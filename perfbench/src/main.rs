//! End-to-end benchmark of the RISC I simulator stack.
//!
//! One command runs one named workload through the public APIs of
//! `risc1-ir`, `risc1-core` and `risc1-serve`, checks every output against
//! a reference computed outside the timed region, and prints the metrics
//! by name with their units:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <run_loops|run_calls|run_cold|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` reruns the
//! workload with spans around every call into a layer, then the layer
//! probes, and reports the per-layer metrics. The last line of standard
//! output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. `perfbench/README.md` maps every layer metric
//! to the end-to-end metric it should move.

mod gen;
mod host;
mod layers;
mod report;
mod runs;
mod serve;
mod stats;
mod trace;

use gen::Workload;
use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

#[global_allocator]
static HEAP: stats::CountingAlloc = stats::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <run_loops|run_calls|run_cold|serve_mixed> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// The parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0_f64, false);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 || seconds > 600.0 {
                    return Err(format!(
                        "--seconds {value}: must be above 0 and at most 600"
                    ));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where the benchmark writes: the checkout's build directory.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench")
}

/// Runs one workload; `scratch` holds its WAL directories.
fn bench(
    w: Workload,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    scratch: &Path,
) -> Result<Report, String> {
    let (report, heap_mib) = stats::with_heap_samples(|| match w {
        Workload::ServeMixed => serve::bench(seed, seconds, tracer, scratch),
        _ => runs::bench(w, seed, seconds, tracer, scratch),
    });
    let mut report = report?;
    if !tracer.enabled() {
        report.push(
            "heap_mib",
            heap_mib,
            "MiB",
            "bytes live on the heap, mean of samples every 5 ms over the whole run",
        );
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    let tracer = Tracer::new(args.trace);
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("{}: {e}", scratch.display()))
        .and_then(|()| bench(args.workload, args.seed, args.seconds, &tracer, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = out.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: spans written to {} ({} more not kept)",
                path.display(),
                tracer.dropped()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    print!("{}", report.render_text());
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` declares under
    /// `section`, sorted.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} list"));
        let list = &text[start..];
        let list = &list[..list.find(']').expect("the list ends")];
        let field = |entry: &str, key: &str| {
            entry
                .split(&format!("\"{key}\""))
                .nth(1)
                .and_then(|v| v.split('"').nth(1))
                .map(str::to_owned)
        };
        let mut out: Vec<(String, String)> = list
            .split('{')
            .skip(1)
            .map(|e| {
                (
                    field(e, "name").expect("a name"),
                    field(e, "unit").expect("a unit"),
                )
            })
            .collect();
        out.sort();
        out
    }

    /// A short untraced and traced run of `w`: both must pass every check
    /// and emit exactly the metrics `BENCHMARK.json` declares for their
    /// mode, under valid names and with the declared units.
    fn short_runs(w: Workload) {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let scratch = out_dir().join(format!("selftest-{}-{trace}", w.name()));
            std::fs::create_dir_all(&scratch).expect("scratch directory");
            let report =
                bench(w, 3, 0.3, &Tracer::new(trace), &scratch).expect("the workload runs");
            let _ = std::fs::remove_dir_all(&scratch);
            assert_eq!(
                report.failed,
                0,
                "{} trace={trace}: fail_frac must be 0",
                w.name()
            );
            assert!(report.correct(), "{}", report.render_text());
            let mut emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_owned()))
                .collect();
            for (name, _) in &emitted {
                let valid = !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
                assert!(valid, "bad metric name {name:?}");
            }
            emitted.sort();
            assert_eq!(emitted, declared(section), "{} trace={trace}", w.name());
        }
    }

    #[test]
    fn run_loops_short_runs() {
        short_runs(Workload::RunLoops);
    }

    #[test]
    fn run_calls_short_runs() {
        short_runs(Workload::RunCalls);
    }

    #[test]
    fn run_cold_short_runs() {
        short_runs(Workload::RunCold);
    }

    #[test]
    fn serve_mixed_short_runs() {
        short_runs(Workload::ServeMixed);
    }

    #[test]
    fn the_command_line_is_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload run_cold --seed 4 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::RunCold, 4, 2.5, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload run_cold --trace 2",
            "--workload run_cold --seconds 0",
            "--workload run_cold --seconds",
            "--workload run_cold --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
