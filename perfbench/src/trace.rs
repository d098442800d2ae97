//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! made), the span that caused it, and an id shared by every span of one
//! run or job. Spans stay in memory and are written out, one JSON object a
//! line, when the benchmark ends. A disabled tracer records nothing, so an
//! untraced run pays one branch a call.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept in memory. Later ones are counted but not stored, so a long
/// traced run of tiny programs stays bounded.
pub const MAX_SPANS: usize = 100_000;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one run or job.
    pub trace_id: u64,
}

/// Handle of an open span: `None` when the tracer is off or full.
pub type SpanId = Option<usize>;

/// The span store.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, trace_id: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store");
        if spans.len() >= MAX_SPANS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace_id,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, span: SpanId) {
        if let Some(i) = span {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span store")[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        trace_id: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, trace_id, parent);
        let r = f();
        self.close(span);
        r
    }

    /// Spans that did not fit in [`MAX_SPANS`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// `(trace id, self seconds)` of every span named `name`, where self
    /// time is the span's duration minus the time its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<(u64, f64)> {
        let spans = self.spans.lock().expect("span store");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| {
                let own = (s.end_ns - s.start_ns).saturating_sub(c);
                (s.trace_id, own as f64 * 1e-9)
            })
            .collect()
    }

    /// Self seconds of every span named `name`.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        self.self_times(name).into_iter().map(|(_, s)| s).collect()
    }

    /// Writes every span as one JSON object a line.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trace_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_a_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let root = t.open("job", 7, None);
        t.time("child", 7, root, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.close(root);
        let child: f64 = t.self_secs("child").iter().sum();
        let own: f64 = t.self_secs("job").iter().sum();
        assert!(child >= 0.02, "{child}");
        assert!(own < child, "{own} vs {child}");
        assert_eq!(t.self_times("job")[0].0, 7);

        let off = Tracer::new(false);
        let root = off.open("job", 1, None);
        assert!(root.is_none());
        off.close(root);
        assert!(off.self_secs("job").is_empty());
    }
}
