//! The benchmark's result: metrics by name with their units, the checked
//! operations attempted and failed, and two renderings of it — a table for
//! people and the one-line JSON object that ends standard output.

use crate::stats::{median, quantile};
use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// How it was measured: its base and sample count.
    pub detail: String,
}

/// Everything one benchmark run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// Operations checked against a reference: reference agreements, runs,
    /// jobs and, in a traced run, every probe run.
    pub attempted: u64,
    /// Checked operations whose output differed from the reference.
    pub failed: u64,
    /// The metrics, in the order they were measured.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Records one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, detail: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            detail: detail.into(),
        });
    }

    /// Counts `attempted` checked operations, `failed` of which differed
    /// from their reference.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records the end-to-end metrics every workload reports. A job is one
    /// run of a run workload or one submitted serve job; `clock` says which
    /// seconds the times are in.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        instructions: u64,
        jobs: usize,
        secs: f64,
        latency_ms: &[f64],
        clock: &str,
    ) {
        let n = latency_ms.len();
        self.push(
            "setup_s",
            median(setup_s),
            "s",
            format!("median of {} set-ups, {clock}", setup_s.len()),
        );
        self.push(
            "sim_mips",
            instructions as f64 / secs / 1e6,
            "Minstr/s",
            format!("{instructions} simulated instructions in {secs:.3} s, {clock}"),
        );
        self.push(
            "jobs_per_s",
            jobs as f64 / secs,
            "1/s",
            format!("{jobs} jobs in {secs:.3} s, {clock}"),
        );
        self.push(
            "job_p50_ms",
            quantile(latency_ms, 0.5),
            "ms",
            format!("n={n}, {clock}"),
        );
        self.push(
            "job_p95_ms",
            quantile(latency_ms, 0.95),
            "ms",
            format!("n={n}, {} beyond p95, {clock}", n / 20),
        );
    }

    /// True when every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The table for people.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "perfbench {}: {} of {} checked operations failed (fail_frac {:.6})\n",
            self.workload,
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<34} {:>16.6} {:<13} {}",
                m.name, m.value, m.unit, m.detail
            );
        }
        out
    }

    /// The machine-readable result line.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; such a value already makes
                // the report incorrect.
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_owned()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}
