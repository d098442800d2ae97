//! The run workloads: whole programs, each on a fresh `Cpu`, timed from
//! `Cpu::new` to halt and checked against references computed before the
//! timed region.

use crate::gen::{self, Rng, RunInput, Workload};
use crate::host::HostClock;
use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{layers, serve};
use risc1_core::{Cpu, ExecEngine, ExecStats, Halt, Program, SimConfig};
use risc1_ir::{compile_risc, RiscOpts};
use std::path::Path;
use std::time::Instant;

/// Fuel for every run: far above the longest program of any set, which
/// the default budget would cut short.
pub const FUEL: u64 = 2_000_000_000;

/// The machine every run uses: default engine and memory, fuel raised.
pub fn sim_config() -> SimConfig {
    SimConfig {
        fuel: FUEL,
        ..SimConfig::default()
    }
}

/// A compiled program with the reference it must reproduce.
pub struct Compiled {
    /// Suite id.
    pub id: &'static str,
    /// Arguments to `main`.
    pub args: Vec<i32>,
    /// The compiled image.
    pub program: Program,
    /// `main`'s result according to the IR interpreter.
    pub result: i32,
    /// Simulated statistics of a one-time uncached `step()` run.
    pub stats: ExecStats,
}

/// Compiles `inputs` and computes each reference: the result from the IR
/// interpreter, the simulated statistics from a one-time uncached
/// `step()` run whose result must agree with it. Each program's set-up is
/// one operation on `clock`. Returns the set and the number of programs
/// where the two disagreed.
///
/// # Errors
/// A program that fails to compile, interpret or run.
pub fn setup(
    inputs: &[RunInput],
    tracer: &Tracer,
    rep: u64,
    clock: &mut HostClock,
) -> Result<(Vec<Compiled>, u64), String> {
    let mut failed = 0;
    let mut set = Vec::with_capacity(inputs.len());
    for inp in inputs {
        let t0 = Instant::now();
        let program = tracer
            .time("ir.compile", rep, None, || {
                compile_risc(&inp.module, RiscOpts::default())
            })
            .map_err(|e| format!("{}: compile: {e}", inp.id))?;
        let result = risc1_ir::interp::interpret_with_fuel(&inp.module, &inp.args, FUEL)
            .map_err(|e| format!("{}: interpreter: {e}", inp.id))?
            .value;
        let uncached = SimConfig {
            engine: ExecEngine::Uncached,
            ..sim_config()
        };
        let (sim, stats) = execute(&program, &inp.args, uncached, true)?;
        if sim != result {
            eprintln!(
                "perfbench: MISMATCH {}: uncached step() returned {sim}, the interpreter {result}",
                inp.id
            );
            failed += 1;
        }
        clock.record(t0.elapsed().as_secs_f64());
        set.push(Compiled {
            id: inp.id,
            args: inp.args.clone(),
            program,
            result,
            stats,
        });
    }
    Ok((set, failed))
}

/// Runs `program` on a fresh machine, through `Cpu::step()` one
/// instruction at a time when `step` is set, else through `Cpu::run()`.
///
/// # Errors
/// A load, argument or execution fault, rendered.
pub fn execute(
    program: &Program,
    args: &[i32],
    cfg: SimConfig,
    step: bool,
) -> Result<(i32, ExecStats), String> {
    let mut cpu = Cpu::new(cfg);
    cpu.load_program(program).map_err(|e| e.to_string())?;
    cpu.try_set_args(args).map_err(|e| e.to_string())?;
    if step {
        while cpu.step().map_err(|e| e.to_string())? == Halt::Running {}
    } else {
        cpu.run().map_err(|e| e.to_string())?;
    }
    Ok((cpu.result(), cpu.stats()))
}

/// What the timed phase measured. Times are at the reference host speed
/// (see [`HostClock`]).
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs completed.
    pub runs: u64,
    /// Runs whose result or statistics differed from the reference.
    pub failed: u64,
    /// Simulated instructions retired.
    pub instructions: u64,
    /// The runs' summed time, in seconds.
    pub busy_s: f64,
    /// Host speed relative to the reference during the phase.
    pub speed: f64,
    /// Each run's latency, `Cpu::new` through halt and drop, in ms.
    pub latency_ms: Vec<f64>,
    /// The same latencies by program, in set order.
    pub per_program_ms: Vec<Vec<f64>>,
    /// Latencies of the passes that recorded spans.
    pub traced_ms: Vec<f64>,
    /// Latencies of the passes that did not.
    pub untraced_ms: Vec<f64>,
}

/// Runs passes over `set`, each in a fresh seeded order, until `seconds`
/// have passed. In a traced run every other pass records spans, so their
/// cost shows as the difference between the two halves.
pub fn timed(set: &[Compiled], seed: u64, seconds: f64, tracer: &Tracer) -> Tally {
    let cfg = sim_config();
    let off = Tracer::new(false);
    let mut rng = Rng::new(seed);
    let mut clock = HostClock::new();
    // Program index and whether it was traced, of every run in order.
    let mut order = Vec::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut pass = 0u64;
    loop {
        let traced = tracer.enabled() && pass % 2 == 1;
        let tr = if traced { tracer } else { &off };
        for i in gen::pass_order(&mut rng, set.len()) {
            let c = &set[i];
            let t0 = Instant::now();
            let outcome = run_once(c, cfg.clone(), tr, tally.runs);
            clock.record(t0.elapsed().as_secs_f64());
            order.push((i, traced));
            tally.runs += 1;
            match outcome {
                Ok((result, stats)) => {
                    tally.instructions += stats.instructions;
                    if result != c.result
                        || stats.instructions != c.stats.instructions
                        || stats.cycles != c.stats.cycles
                    {
                        eprintln!(
                            "perfbench: MISMATCH {}: result {result}, {} instructions, {} cycles; \
                             reference {}, {}, {}",
                            c.id,
                            stats.instructions,
                            stats.cycles,
                            c.result,
                            c.stats.instructions,
                            c.stats.cycles
                        );
                        tally.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: FAILED {}: {e}", c.id);
                    tally.failed += 1;
                }
            }
            // A traced run needs one pass of each kind to price its spans.
            if start.elapsed().as_secs_f64() >= seconds && (!tracer.enabled() || pass >= 1) {
                tally.per_program_ms = vec![Vec::new(); set.len()];
                for ((i, traced), secs) in order.into_iter().zip(clock.normalized()) {
                    let ms = secs * 1e3;
                    tally.busy_s += secs;
                    tally.latency_ms.push(ms);
                    tally.per_program_ms[i].push(ms);
                    if traced {
                        tally.traced_ms.push(ms);
                    } else {
                        tally.untraced_ms.push(ms);
                    }
                }
                tally.speed = clock.speed();
                return tally;
            }
        }
        pass += 1;
    }
}

/// One timed run: `Cpu::new`, `load_program`, `set_args` and `Cpu::run`,
/// each inside a span.
fn run_once(
    c: &Compiled,
    cfg: SimConfig,
    tr: &Tracer,
    id: u64,
) -> Result<(i32, ExecStats), String> {
    let root = tr.open("run", id, None);
    let mut cpu = tr.time("core.cpu_new", id, root, || Cpu::new(cfg));
    let out = (|| -> Result<(i32, ExecStats), String> {
        tr.time("core.load_program", id, root, || {
            cpu.load_program(&c.program)
        })
        .map_err(|e| e.to_string())?;
        tr.time("core.set_args", id, root, || cpu.try_set_args(&c.args))
            .map_err(|e| e.to_string())?;
        tr.time("core.run", id, root, || cpu.run())
            .map_err(|e| e.to_string())?;
        Ok((cpu.result(), cpu.stats()))
    })();
    drop(cpu);
    tr.close(root);
    out
}

/// Set-ups per run: seven when they are quick, three when each takes a
/// while, so the median is steady without set-up dominating the run.
fn setup_reps(first_s: f64) -> usize {
    if first_s < 0.25 {
        7
    } else {
        3
    }
}

/// Runs a run workload. Untraced, it reports the end-to-end metrics;
/// traced, the per-layer metrics of its programs, including a short serve
/// campaign of the same programs at `small_args`.
///
/// # Errors
/// A program that cannot be set up, or a serve probe that cannot run.
pub fn bench(
    w: Workload,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    scratch: &Path,
) -> Result<Report, String> {
    let inputs = gen::run_inputs(w);
    let mut report = Report::new(w.name());
    let mut setups = Vec::new();
    let (set, ref_failed) = loop {
        let mut clock = HostClock::new();
        let out = setup(&inputs, tracer, setups.len() as u64, &mut clock)?;
        setups.push(clock.normalized().iter().sum::<f64>());
        if setups.len() >= setup_reps(setups[0]) {
            break out;
        }
    };
    report.tally(set.len() as u64, ref_failed);
    let tally = timed(&set, seed, seconds, tracer);
    report.tally(tally.runs, tally.failed);
    for (c, ms) in set.iter().zip(&tally.per_program_ms) {
        eprintln!(
            "perfbench: {:<16} {:>10} instructions, median {:.3} ms over {} runs",
            c.id,
            c.stats.instructions,
            median(ms),
            ms.len()
        );
    }
    eprintln!(
        "perfbench: host speed {:.3} of the reference during the timed phase",
        tally.speed
    );
    if !tracer.enabled() {
        report.end_to_end(
            &setups,
            tally.instructions,
            tally.latency_ms.len(),
            tally.busy_s,
            &tally.latency_ms,
            "reference-host seconds",
        );
        return Ok(report);
    }
    layers::compile_metric(&mut report, tracer);
    layers::run_span_metrics(&mut report, tracer);
    report.push(
        "tracing.overhead_ratio",
        mean(&tally.traced_ms) / mean(&tally.untraced_ms),
        "ratio",
        format!(
            "mean run latency with spans / without, {} and {} runs",
            tally.traced_ms.len(),
            tally.untraced_ms.len()
        ),
    );
    layers::process_metrics(&mut report, tally.speed);
    layers::core_probes(&mut report, &set, seconds)?;
    let ids: Vec<&'static str> = set.iter().map(|c| c.id).collect();
    serve::probe(&mut report, &ids, seed, tracer, scratch)?;
    Ok(report)
}
