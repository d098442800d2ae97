//! The checkpoint/restore and record–replay contracts, enforced end to
//! end across the whole workload suite.
//!
//! Three laws:
//!
//! 1. **Snapshot round-trip** (two property tests): snapshot at an
//!    arbitrary instruction boundary under one engine tier, restore into a
//!    fresh machine under the same tier or another, continue — the
//!    result, `ExecStats`, and full machine digest must be bit-identical
//!    to uninterrupted execution under the destination tier. Random
//!    boundaries land mid-delay-slot and mid-window-overflow, which is the
//!    point.
//! 2. **Replay determinism**: for 16 seeds per workload, a recorded
//!    faulting campaign replays to the identical outcome signature,
//!    instruction count, per-cause trap counts, and full `ExecStats` —
//!    including through JSON serialization; minimized journals still
//!    reproduce the failure.
//! 3. **Supervision rescues**: at least one workload that terminates with
//!    a structured fault under plain injection completes cleanly under
//!    the supervisor's rollback-and-retry.

use proptest::prelude::*;
use risc1::core::inject::{InjectConfig, InjectModes};
use risc1::core::{Cpu, ExecEngine, Halt, Program, SimConfig};
use risc1::ir::layout::ARGV_BASE;
use risc1::ir::{
    compile_risc, minimize_journal, record_risc_injected, recorded_outcome, replay_journal,
    run_risc, run_risc_injected, run_risc_supervised, RiscOpts, SupervisorConfig,
    SupervisorOutcome,
};
use risc1::workloads::all;
use risc1::Journal;
use std::sync::OnceLock;

/// One compiled workload: id, program, args, clean result, fuel-bounded
/// config, and an injection rate tuned to ~4 perturbations per run.
struct Compiled {
    id: &'static str,
    prog: Program,
    args: Vec<i32>,
    expect: i32,
    cfg: SimConfig,
    rate: u32,
    instructions: u64,
}

fn suite() -> &'static Vec<Compiled> {
    static SUITE: OnceLock<Vec<Compiled>> = OnceLock::new();
    SUITE.get_or_init(|| {
        all()
            .iter()
            .map(|w| {
                let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
                let (expect, base) = run_risc(&prog, &w.small_args).expect("suite runs clean");
                let cfg = SimConfig {
                    fuel: base.instructions * 3 + 10_000,
                    ..SimConfig::default()
                };
                let rate = (4 * 10_000 / base.instructions.max(1)).clamp(1, 500) as u32;
                Compiled {
                    id: w.id,
                    prog,
                    args: w.small_args.clone(),
                    expect,
                    cfg,
                    rate,
                    instructions: base.instructions,
                }
            })
            .collect()
    })
}

/// Every engine tier, each a possible origin and destination of a restore.
const ENGINES: [ExecEngine; 4] = [
    ExecEngine::Uncached,
    ExecEngine::Cached,
    ExecEngine::Superblock,
    ExecEngine::Trace,
];

/// `w`'s configuration under the given engine tier.
fn cfg_on(w: &Compiled, engine: ExecEngine) -> SimConfig {
    SimConfig {
        engine,
        ..w.cfg.clone()
    }
}

/// Sets a CPU up exactly like `run_risc_with` does (register args + ARGV
/// mirror), so snapshot comparisons run the real execution path.
fn fresh_cpu(w: &Compiled, engine: ExecEngine) -> Cpu {
    let mut cpu = Cpu::new(cfg_on(w, engine));
    cpu.load_program(&w.prog).expect("fits");
    cpu.set_args(&w.args);
    for (i, &a) in w.args.iter().enumerate() {
        let _ = cpu
            .mem
            .load_image(ARGV_BASE + 4 * i as u32, &(a as u32).to_le_bytes());
    }
    cpu
}

/// Steps until at least `boundary` instructions have retired (trap
/// delivery steps retire nothing, hence ≥) or the program halts.
fn run_to_boundary(cpu: &mut Cpu, boundary: u64) {
    while cpu.stats().instructions < boundary {
        match cpu.step().expect("clean workloads do not fault") {
            Halt::Running => {}
            Halt::Returned => break,
        }
    }
}

/// Law 1's check. Runs `w` to `frac_permille` of its length under `from`,
/// snapshots, and continues; restores the snapshot into a brand-new
/// machine under `to` and continues that too. Both timelines must match a
/// reference run wholly under `to` in result and `ExecStats`, and the
/// restored one also in full machine digest.
fn check_resume(
    w: &Compiled,
    frac_permille: u64,
    from: ExecEngine,
    to: ExecEngine,
) -> Result<(), TestCaseError> {
    let boundary = w.instructions * frac_permille / 1000;
    let ctx = format!("{} {from:?}->{to:?}", w.id);

    // Reference: the whole run, untouched, under the destination tier.
    let mut reference = fresh_cpu(w, to);
    reference.run().expect("clean run");
    prop_assert_eq!(reference.result(), w.expect);

    // Interrupted: run to the boundary under the origin tier, snapshot,
    // keep going.
    let mut original = fresh_cpu(w, from);
    run_to_boundary(&mut original, boundary);
    let snap = original.snapshot();
    snap.verify().expect("fresh snapshots verify");
    original.run().expect("clean continuation");

    // Restored twin: a brand-new machine under the destination tier
    // continued from the snapshot.
    let mut twin = Cpu::new(cfg_on(w, to));
    twin.restore(&snap).expect("restore succeeds across tiers");
    prop_assert_eq!(twin.stats().instructions, snap.at_instruction());
    twin.run().expect("restored continuation");

    for cpu in [&original, &twin] {
        prop_assert_eq!(cpu.result(), w.expect, "{}", ctx);
        prop_assert_eq!(&cpu.stats(), &reference.stats(), "{}", ctx);
    }
    // Full machine digest (registers, window file, memory, trap state,
    // configuration): the resumed timeline ends in the same bits as the
    // reference under its tier.
    prop_assert_eq!(
        twin.snapshot().checksum(),
        reference.snapshot().checksum(),
        "{}",
        ctx
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Law 1, within a tier: snapshot / restore / continue is
    /// bit-identical to uninterrupted execution — registers, memory,
    /// statistics, result — at an arbitrary instruction boundary of an
    /// arbitrary workload.
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        widx in 0usize..11,
        frac_permille in 0u64..1000,
        tier in 0usize..4,
    ) {
        check_resume(&suite()[widx], frac_permille, ENGINES[tier], ENGINES[tier])?;
    }

    /// Law 1, across tiers: the same holds when the snapshot is captured
    /// under one tier and resumed under another. Each case pairs every
    /// tier with the one `shift` places after it, so every case has all
    /// four tiers as origin and as destination.
    #[test]
    fn snapshots_resume_bit_identically_under_a_different_engine(
        widx in 0usize..11,
        frac_permille in 0u64..1000,
        shift in 1usize..4,
    ) {
        for (i, &from) in ENGINES.iter().enumerate() {
            let to = ENGINES[(i + shift) % ENGINES.len()];
            check_resume(&suite()[widx], frac_permille, from, to)?;
        }
    }
}

/// Law 2: every recorded campaign — 16 seeds per workload, recovery
/// alternating — replays bit for bit, including through JSON; and every
/// faulting journal still reproduces its failure after minimization.
#[test]
fn replay_is_deterministic_for_16_seeds_per_workload() {
    let mut faulting: Vec<(usize, Journal)> = Vec::new();
    for (widx, w) in suite().iter().enumerate() {
        for seed in 0..16u64 {
            let recovery = seed % 2 == 0;
            let icfg = InjectConfig {
                seed,
                rate: w.rate,
                modes: InjectModes::all(),
            };
            let (journal, recorded) =
                record_risc_injected(&w.prog, &w.args, w.cfg.clone(), icfg, recovery)
                    .expect("setup is valid");
            let want = journal
                .outcome
                .clone()
                .expect("recorder stores the outcome");

            let replayed = replay_journal(&journal).expect("replay sets up");
            assert_eq!(
                recorded_outcome(&replayed),
                want,
                "{} seed {seed}: outcome/trap-count divergence",
                w.id
            );
            assert_eq!(
                replayed.stats, recorded.stats,
                "{} seed {seed}: full ExecStats divergence",
                w.id
            );

            // Through JSON: parse(serialize(j)) replays identically too.
            let back = Journal::from_json(&journal.to_json()).expect("parses");
            assert_eq!(back, journal, "{} seed {seed}: JSON round-trip", w.id);

            if want.signature.starts_with("fault") {
                faulting.push((widx, journal));
            }
        }
    }
    assert!(
        !faulting.is_empty(),
        "some campaigns must fault (else nothing was injected)"
    );

    // Minimized journals reproduce the failure: one faulting campaign per
    // workload that produced any (ddmin replays O(n²) times — keep it to
    // journals of sane size).
    let mut minimized_some = false;
    let mut seen = std::collections::HashSet::new();
    for (widx, journal) in &faulting {
        if !seen.insert(*widx) || journal.events.len() > 32 {
            continue;
        }
        let w = &suite()[*widx];
        let min = minimize_journal(journal).expect("minimization replays");
        assert!(
            min.events.len() <= journal.events.len(),
            "{}: minimization must not grow the journal",
            w.id
        );
        assert_eq!(
            min.outcome.as_ref().unwrap().signature,
            journal.outcome.as_ref().unwrap().signature,
            "{}: the minimized journal must reproduce the same failure",
            w.id
        );
        minimized_some = true;
    }
    assert!(minimized_some, "at least one journal must get minimized");
}

/// Under a double-fault storm — an injection rate an order of magnitude
/// past the sweep's — retries stop making forward progress, and the
/// supervisor must take its escalate arm (revert past the latest
/// checkpoint to the campaign baseline) instead of burning retries on
/// poisoned state. The escalation is visible in the report, and the
/// applied-event log survives it: escalating must not lose the journal.
#[test]
fn escalation_fires_under_a_double_fault_storm_without_losing_the_event_log() {
    let mut escalated = None;
    'search: for w in suite() {
        for seed in 0..32u64 {
            let icfg = InjectConfig {
                seed,
                rate: 2000, // ~20% of steps perturbed: a storm, not a drizzle
                modes: InjectModes::all(),
            };
            let report = run_risc_supervised(
                &w.prog,
                &w.args,
                w.cfg.clone(),
                Some(icfg),
                true,
                SupervisorConfig {
                    ckpt_every: (w.instructions / 16).max(200),
                    max_retries: 12,
                    ..SupervisorConfig::default()
                },
            )
            .expect("setup is valid");
            if report.escalations >= 1 {
                assert!(
                    report.rollbacks >= report.escalations,
                    "{} seed {seed}: escalations are a subset of rollbacks",
                    w.id
                );
                assert!(
                    !report.events.is_empty(),
                    "{} seed {seed}: escalation must not lose the applied-event log",
                    w.id
                );
                escalated = Some((w.id, seed, report.escalations));
                break 'search;
            }
        }
    }
    let (id, seed, escalations) = escalated
        .expect("no campaign escalated across the whole storm sweep — the stuck arm is dead code");
    assert!(escalations >= 1, "{id} seed {seed}");
}

/// Law 3 (the PR's acceptance criterion): at least one workload that
/// terminates with a structured fault under plain injection completes
/// cleanly — with the correct result — under the supervisor's
/// rollback-and-retry.
#[test]
fn supervision_rescues_a_faulting_workload() {
    let mut rescued = None;
    'search: for w in suite() {
        for seed in 0..16u64 {
            let icfg = InjectConfig {
                seed,
                rate: w.rate,
                modes: InjectModes::all(),
            };
            let plain = run_risc_injected(&w.prog, &w.args, w.cfg.clone(), icfg, true)
                .expect("setup is valid");
            if plain.is_halted() {
                continue;
            }
            let report = run_risc_supervised(
                &w.prog,
                &w.args,
                w.cfg.clone(),
                Some(icfg),
                true,
                SupervisorConfig {
                    ckpt_every: (w.instructions / 8).max(500),
                    max_retries: 8,
                    ..SupervisorConfig::default()
                },
            )
            .expect("setup is valid");
            if report.outcome == (SupervisorOutcome::Halted { result: w.expect }) {
                assert!(
                    report.rollbacks >= 1,
                    "{} seed {seed}: a rescue requires at least one rollback",
                    w.id
                );
                assert!(report.checkpoints.checkpoints > 0 || report.rollbacks > 0);
                rescued = Some((w.id, seed, report.attempts));
                break 'search;
            }
        }
    }
    let (id, seed, attempts) = rescued
        .expect("no faulting campaign was rescued by rollback-and-retry across the whole sweep");
    assert!(attempts >= 2, "{id} seed {seed}: rescue implies a retry");
}
