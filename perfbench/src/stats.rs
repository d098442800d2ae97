//! Order statistics and process memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

const MIB: f64 = 1024.0 * 1024.0;
/// Interval between two samples of the live heap.
const HEAP_SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// The system allocator, counting the bytes live on the heap and their
/// high-water mark. Unlike resident memory, the count does not depend on
/// which allocator arena a thread drew or how much freed memory it keeps.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// The counters publish no other data, so `Relaxed` suffices.
fn grown(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrunk(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counting touches no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grown(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grown(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator gave out with
        // `layout`, and `System` gave it out.
        unsafe { System.dealloc(ptr, layout) };
        shrunk(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract; the block came
        // from `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grown(new_size - layout.size());
            } else {
                shrunk(layout.size() - new_size);
            }
        }
        p
    }
}

/// Most bytes live on the heap at once so far, in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / MIB
}

/// Runs `f` while a second thread samples the live heap every
/// [`HEAP_SAMPLE_EVERY`]; returns `f`'s result and the mean sample in MiB.
/// The mean is steady where the peak is not: two serve jobs that happen to
/// run at once double the peak for a moment.
pub fn with_heap_samples<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let (mut sum, mut n) = (0.0, 0u32);
            while !done.load(Ordering::SeqCst) {
                sum += LIVE.load(Ordering::Relaxed) as f64;
                n += 1;
                std::thread::sleep(HEAP_SAMPLE_EVERY);
            }
            sum / f64::from(n) / MIB
        });
        let r = f();
        done.store(true, Ordering::SeqCst);
        (r, sampler.join().expect("the heap sampler does not panic"))
    })
}

/// The `q`-quantile of `values` (`q` in `[0, 1]`), interpolating linearly
/// between the closest ranks; NaN when there are no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; NaN when there are none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; NaN when there are none.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident memory of this process in MiB (`VmHWM`); NaN where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&v), 3.0);
    }
}
