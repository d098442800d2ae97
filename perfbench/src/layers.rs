//! Per-layer metrics of a traced run: spans of the workload's own runs,
//! and probes that price each engine tier, each fusion kind and warm-up
//! on the workload's programs.

use crate::gen;
use crate::report::Report;
use crate::runs::{self, Compiled, FUEL};
use crate::stats::median;
use crate::trace::Tracer;
use risc1_core::{Cpu, ExecEngine, ExecStats, FuseKind, FusionConfig, Halt, SimConfig};
use risc1_ir::{compile_risc, RiscOpts};
use std::collections::BTreeMap;
use std::time::Instant;

/// The engine tiers. `uncached_step` drives `Cpu::step()` and the others
/// `Cpu::run()`, so batching and the icache are priced apart.
const TIERS: [(&str, ExecEngine, bool); 5] = [
    ("uncached_step", ExecEngine::Uncached, true),
    ("uncached", ExecEngine::Uncached, false),
    ("cached", ExecEngine::Cached, false),
    ("superblock", ExecEngine::Superblock, false),
    ("trace", ExecEngine::Trace, false),
];

/// `n / d`, or 0 when nothing was counted.
pub fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Counts one checked probe run, printing it when it failed.
fn check(report: &mut Report, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        eprintln!("perfbench: MISMATCH {}", what());
    }
    report.tally(1, u64::from(!ok));
}

/// `ir.compile_s`: `compile_risc` of the whole program set, median over
/// the set-ups (each set-up's spans carry its index as trace id).
pub fn compile_metric(report: &mut Report, tracer: &Tracer) {
    let mut per_setup: BTreeMap<u64, f64> = BTreeMap::new();
    for (setup, secs) in tracer.self_times("ir.compile") {
        *per_setup.entry(setup).or_default() += secs;
    }
    let totals: Vec<f64> = per_setup.into_values().collect();
    report.push(
        "ir.compile_s",
        median(&totals),
        "s",
        format!(
            "compile_risc of the whole set, median of {} set-ups",
            totals.len()
        ),
    );
}

/// `core.cpu_new_us`, `core.load_program_us` and `core.run_s`: medians of
/// the spans of the traced timed runs.
pub fn run_span_metrics(report: &mut Report, tracer: &Tracer) {
    for (name, span, scale, unit) in [
        ("core.cpu_new_us", "core.cpu_new", 1e6, "us"),
        ("core.load_program_us", "core.load_program", 1e6, "us"),
        ("core.run_s", "core.run", 1.0, "s"),
    ] {
        let secs = tracer.self_secs(span);
        report.push(
            name,
            median(&secs) * scale,
            unit,
            format!("median of {} traced runs", secs.len()),
        );
    }
}

/// `host.speed`, the host's speed against the reference during the traced
/// timed phase, and the process's memory peaks, which the end-to-end mean
/// live heap stands in for.
pub fn process_metrics(report: &mut Report, speed: f64) {
    report.push(
        "host.speed",
        speed,
        "ratio",
        "calibration probe rate / its rate on the reference host",
    );
    report.push(
        "proc.peak_heap_mib",
        crate::stats::peak_heap_mib(),
        "MiB",
        "most bytes live on the heap at once",
    );
    report.push(
        "proc.peak_rss_mib",
        crate::stats::peak_rss_mib(),
        "MiB",
        "VmHWM of the benchmark process",
    );
}

/// Passes over a program set under one configuration.
struct Sweep {
    /// Simulated instructions retired.
    instructions: u64,
    /// Host seconds inside the execution calls.
    secs: f64,
    /// Statistics of the first pass, one per program.
    first: Vec<ExecStats>,
}

impl Sweep {
    fn mips(&self) -> f64 {
        self.instructions as f64 / self.secs / 1e6
    }

    fn detail(&self) -> String {
        format!(
            "{} instructions in {:.3} s of execution",
            self.instructions, self.secs
        )
    }

    /// The first pass's counters, summed over the set.
    fn total(&self) -> ExecStats {
        let mut t = ExecStats::new();
        for s in &self.first {
            t.instructions += s.instructions;
            t.cycles += s.cycles;
            t.window_overflows += s.window_overflows;
            t.window_underflows += s.window_underflows;
            t.blocks_entered += s.blocks_entered;
            t.block_instructions += s.block_instructions;
            for (sum, n) in t.fused_pairs.iter_mut().zip(s.fused_pairs) {
                *sum += n;
            }
            t.traces_built += s.traces_built;
            t.trace_entries += s.trace_entries;
            t.trace_side_exits += s.trace_side_exits;
            t.trace_instructions += s.trace_instructions;
        }
        t
    }
}

/// Steps `cpu` to halt; false on a fault.
fn step_to_halt(cpu: &mut Cpu) -> bool {
    loop {
        match cpu.step() {
            Ok(Halt::Running) => {}
            Ok(Halt::Returned) => return true,
            Err(_) => return false,
        }
    }
}

/// Times whole passes over `set` under `cfg` until `budget` seconds have
/// passed, at least one. Only execution is timed — `run()`, or the
/// `step()` loop when `step` is set — so the tiers are priced without
/// `Cpu::new` and load. The first pass must reproduce every program's
/// uncached `step()` reference exactly: result and `ExecStats`.
fn sweep(
    report: &mut Report,
    set: &[Compiled],
    cfg: &SimConfig,
    step: bool,
    budget: f64,
    what: &str,
) -> Sweep {
    let start = Instant::now();
    let mut s = Sweep {
        instructions: 0,
        secs: 0.0,
        first: Vec::new(),
    };
    loop {
        let first = s.first.is_empty();
        for c in set {
            let mut cpu = Cpu::new(cfg.clone());
            let loaded = cpu.load_program(&c.program).is_ok() && cpu.try_set_args(&c.args).is_ok();
            let t0 = Instant::now();
            let halted = loaded
                && if step {
                    step_to_halt(&mut cpu)
                } else {
                    cpu.run().is_ok()
                };
            s.secs += t0.elapsed().as_secs_f64();
            let stats = cpu.stats();
            s.instructions += stats.instructions;
            if first {
                let ok = halted && cpu.result() == c.result && stats == c.stats;
                check(report, ok, || {
                    format!(
                        "{} under {what}: result or statistics differ from the uncached step() reference",
                        c.id
                    )
                });
                s.first.push(stats);
            }
        }
        if start.elapsed().as_secs_f64() >= budget {
            return s;
        }
    }
}

/// Prices the core layers on `set`: the five tiers, superblock speed with
/// each fusion kind knocked out, the exact counts of one pass, and
/// warm-up.
///
/// # Errors
/// A steady-state program that cannot be compiled, interpreted or loaded.
pub fn core_probes(report: &mut Report, set: &[Compiled], seconds: f64) -> Result<(), String> {
    let budget = (seconds * 0.04).max(0.02);
    let base = runs::sim_config();
    let (mut superblock, mut trace) = (ExecStats::new(), ExecStats::new());
    for (name, engine, step) in TIERS {
        let cfg = SimConfig {
            engine,
            ..base.clone()
        };
        let s = sweep(report, set, &cfg, step, budget, name);
        report.push(
            &format!("core.tier_mips.{name}"),
            s.mips(),
            "Minstr/s",
            s.detail(),
        );
        match engine {
            ExecEngine::Superblock => superblock = s.total(),
            ExecEngine::Trace => trace = s.total(),
            ExecEngine::Uncached | ExecEngine::Cached => {}
        }
    }
    for kind in FuseKind::ALL {
        let cfg = SimConfig {
            fusion: without(kind),
            ..base.clone()
        };
        let s = sweep(report, set, &cfg, false, budget, kind.name());
        report.push(
            &format!("core.fusion_off_mips.{}", kind.name()),
            s.mips(),
            "Minstr/s",
            format!(
                "superblock tier without {} fusion: {}",
                kind.name(),
                s.detail()
            ),
        );
    }
    counts(report, &superblock, &trace);
    warmup(report, set)
}

/// The default fusion set with `kind` disabled.
fn without(kind: FuseKind) -> FusionConfig {
    let mut f = FusionConfig::default();
    match kind {
        FuseKind::CmpBranch => f.cmp_branch = false,
        FuseKind::LdhiImm => f.ldhi_imm = false,
        FuseKind::TransferSlot => f.transfer_slot = false,
        FuseKind::AddrFeed => f.addr_feed = false,
        FuseKind::AluPair => f.alu_pair = false,
    }
    f
}

/// The exact engine counts of one pass: they explain time, not gate it.
fn counts(report: &mut Report, sb: &ExecStats, tr: &ExecStats) {
    report.push(
        "core.trace_coverage",
        ratio(tr.trace_instructions, tr.instructions),
        "ratio",
        "trace tier: instructions retired inside traces / all",
    );
    report.push(
        "core.traces_built",
        tr.traces_built as f64,
        "count",
        "trace tier, one pass over the set",
    );
    report.push(
        "core.trace_side_exit_frac",
        ratio(tr.trace_side_exits, tr.trace_entries),
        "ratio",
        format!(
            "trace tier: {} side exits / {} trace entries",
            tr.trace_side_exits, tr.trace_entries
        ),
    );
    report.push(
        "core.mean_block_len",
        ratio(sb.block_instructions, sb.blocks_entered),
        "instr",
        "default tier: instructions per superblock entered",
    );
    report.push(
        "core.fused_frac",
        ratio(2 * sb.fused_total(), sb.instructions),
        "ratio",
        "default tier: instructions retired in fused pairs / all",
    );
    report.push(
        "core.window_spills_per_kinsn",
        1e3 * ratio(sb.window_overflows + sb.window_underflows, sb.instructions),
        "1/kinstr",
        "window overflow and underflow traps per 1000 instructions",
    );
    report.push(
        "core.cpi",
        ratio(sb.cycles, sb.instructions),
        "cycles/instr",
        "simulated cycles per instruction",
    );
}

/// `core.warmup_frac`: the share of a cold run's time (`Cpu::new` to
/// halt) beyond what its instructions take at the program's steady-state
/// rate, measured on the long version of the same program.
fn warmup(report: &mut Report, set: &[Compiled]) -> Result<(), String> {
    let cfg = runs::sim_config();
    let (mut cold_total, mut excess) = (0.0, 0.0);
    for c in set {
        let long = gen::steady_input(c.id);
        let program = compile_risc(&long.module, RiscOpts::default())
            .map_err(|e| format!("{}: compile: {e}", c.id))?;
        let expect = risc1_ir::interp::interpret_with_fuel(&long.module, &long.args, FUEL)
            .map_err(|e| format!("{}: interpreter: {e}", c.id))?
            .value;
        let mut rates = Vec::new();
        for _ in 0..3 {
            let mut cpu = Cpu::new(cfg.clone());
            cpu.load_program(&program).map_err(|e| e.to_string())?;
            cpu.try_set_args(&long.args).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let ran = cpu.run();
            let secs = t0.elapsed().as_secs_f64();
            check(report, ran.is_ok() && cpu.result() == expect, || {
                format!(
                    "{} steady-state run: result differs from the interpreter",
                    c.id
                )
            });
            rates.push(cpu.stats().instructions as f64 / secs);
        }
        let mut colds = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            let out = runs::execute(&c.program, &c.args, cfg.clone(), false);
            colds.push(t0.elapsed().as_secs_f64());
            let ok = matches!(&out, Ok((r, s)) if *r == c.result && *s == c.stats);
            check(report, ok, || {
                format!(
                    "{} cold run: result or statistics differ from the reference",
                    c.id
                )
            });
        }
        let cold = median(&colds);
        cold_total += cold;
        excess += cold - c.stats.instructions as f64 / median(&rates);
    }
    report.push(
        "core.warmup_frac",
        excess / cold_total,
        "ratio",
        format!(
            "cold-run time beyond each program's steady-state rate / cold-run time, {} programs",
            set.len()
        ),
    );
    Ok(())
}
