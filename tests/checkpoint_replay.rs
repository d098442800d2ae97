//! The checkpoint/restore and record–replay contracts, enforced end to
//! end across the whole workload suite.
//!
//! Three laws:
//!
//! 1. **Snapshot round-trip** (two property tests): snapshot at an
//!    arbitrary instruction boundary under one engine tier, restore into a
//!    fresh machine under the same tier or another, continue — the
//!    result, `ExecStats`, and final snapshot of both the original and the
//!    restored machine must be bit-identical to uninterrupted execution
//!    under the destination tier. Random boundaries land mid-delay-slot
//!    and mid-window-overflow, which is the point.
//! 2. **Replay determinism**: for 16 seeds per workload, a recorded
//!    faulting campaign replays to the identical outcome signature,
//!    instruction count, per-cause trap counts, and full `ExecStats` —
//!    including through JSON serialization; minimized journals still
//!    reproduce the failure.
//! 3. **Supervision rescues**: at least one workload that terminates with
//!    a structured fault under plain injection completes cleanly under
//!    the supervisor's rollback-and-retry.
//!
//! Beside the laws, the batched supervisor is held to its definition: a
//! supervisor that checks its policy before every step and takes one
//! `Cpu::step` at a time. And without forwarding, a machine restored
//! between a register write and the instruction that reads it charges the
//! interlock bubble the uninterrupted run charges.

use proptest::prelude::*;
use risc1::core::inject::{InjectConfig, InjectModes};
use risc1::core::{
    Cpu, ExecEngine, FaultInjector, Halt, InjectEvent, Program, SimConfig, Snapshot,
};
use risc1::ir::layout::ARGV_BASE;
use risc1::ir::{
    compile_risc, default_threads, minimize_journal, parallel_map, record_risc_injected,
    recorded_outcome, replay_journal, run_risc, run_risc_injected, run_risc_supervised, seed_jobs,
    setup_risc, RiscOpts, SupervisorConfig, SupervisorOutcome, SupervisorReport,
};
use risc1::isa::{Instruction, Opcode, Reg, Short2};
use risc1::workloads::all;
use risc1::{Checkpointer, Journal, JournalError};
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

/// Every engine tier that runs a machine its own way, each a possible
/// origin and destination of a restore (`cached` runs exactly as
/// `superblock`).
const ENGINES: [ExecEngine; 3] = [
    ExecEngine::Uncached,
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
/// reference run wholly under `to` in result, `ExecStats` and final
/// snapshot — checksum and JSON alike.
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
    // One machine state, one snapshot: all three timelines end in the same
    // machine (registers, window file, memory, trap state, configuration),
    // so their snapshots agree in checksum and in every JSON byte, whichever
    // tier ran them.
    let want = reference.snapshot();
    for cpu in [&original, &twin] {
        let got = cpu.snapshot();
        prop_assert_eq!(got.checksum(), want.checksum(), "{}", ctx);
        prop_assert_eq!(got.to_json(), want.to_json(), "{}", ctx);
    }
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
        tier in 0usize..3,
    ) {
        check_resume(&suite()[widx], frac_permille, ENGINES[tier], ENGINES[tier])?;
    }

    /// Law 1, across tiers: the same holds when the snapshot is captured
    /// under one tier and resumed under another. Each case pairs every
    /// tier with the one `shift` places after it, so every case has all
    /// three tiers as origin and as destination.
    #[test]
    fn snapshots_resume_bit_identically_under_a_different_engine(
        widx in 0usize..11,
        frac_permille in 0u64..1000,
        shift in 1usize..3,
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

/// A recorded journal whose steps go backwards is rejected when parsed,
/// naming the offending event — replaying it could never apply the events
/// after the swap.
#[test]
fn a_journal_with_swapped_steps_is_rejected() {
    let w = suite()
        .iter()
        .find(|w| w.id == "qsort")
        .expect("suite workload");
    let icfg = InjectConfig {
        seed: 1,
        rate: 400,
        modes: InjectModes::transparent(),
    };
    let (mut journal, _) =
        record_risc_injected(&w.prog, &w.args, w.cfg.clone(), icfg, true).expect("setup");
    assert!(journal.events.len() >= 3, "enough events to swap a pair");
    journal.events.swap(1, 2);
    match Journal::from_json(&journal.to_json()) {
        Err(JournalError::Schema(msg)) => assert!(msg.contains("events[2]"), "{msg}"),
        other => panic!("a backwards step must be a schema error, got {other:?}"),
    }
}

/// The definition the batched supervisor is held to: before every step,
/// the watchdog and checkpoint policy, then (outside the backoff) one die
/// roll and its event, then one `Cpu::step`.
fn one_step_supervisor(
    w: &Compiled,
    cfg: SimConfig,
    inject: Option<InjectConfig>,
    sup: SupervisorConfig,
) -> SupervisorReport {
    let injector_for = |attempt: u32| {
        inject.map(|base| {
            FaultInjector::new(InjectConfig {
                seed: base
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(attempt - 1))),
                ..base
            })
        })
    };
    let mut cpu = setup_risc(&w.prog, &w.args, cfg, true).expect("setup is valid");
    let mut ckpt = Checkpointer::new(&mut cpu);
    let baseline = ckpt.latest().clone();
    let mut injector = injector_for(1);
    let (mut attempts, mut rollbacks, mut escalations) = (1u32, 0u32, 0u32);
    let (mut lost, mut suppress) = (0u64, 0u64);
    let mut prev_fault_at: Option<u64> = None;
    let (mut events, mut attempt_events) = (Vec::new(), Vec::new());
    let outcome = loop {
        let retired = cpu.stats().instructions;
        if sup
            .watchdog_fuel
            .is_some_and(|budget| retired + lost >= budget)
        {
            break SupervisorOutcome::WatchdogExpired;
        }
        if retired >= ckpt.latest().at_instruction() + sup.ckpt_every {
            ckpt.checkpoint(&mut cpu);
        }
        if suppress > 0 {
            suppress -= 1;
        } else if let Some(inj) = injector.as_mut() {
            if inj.quiet_steps(1) == 0 {
                if let Some(kind) = inj.draw(&cpu) {
                    kind.apply(&mut cpu);
                    attempt_events.push(InjectEvent {
                        at_instruction: cpu.stats().instructions,
                        kind,
                    });
                }
            }
        }
        match cpu.step() {
            Ok(Halt::Running) => {}
            Ok(Halt::Returned) => {
                break SupervisorOutcome::Halted {
                    result: cpu.result(),
                }
            }
            Err(error) => {
                events.append(&mut attempt_events);
                if attempts > sup.max_retries {
                    break SupervisorOutcome::Faulted { error };
                }
                let fault_at = cpu.stats().instructions;
                let stuck = prev_fault_at.is_some_and(|prev| fault_at <= prev);
                prev_fault_at = if stuck { None } else { Some(fault_at) };
                let restored = if stuck {
                    escalations += 1;
                    lost += fault_at - baseline.at_instruction();
                    ckpt.revert_to(&mut cpu, &baseline)
                } else {
                    lost += fault_at.saturating_sub(ckpt.latest().at_instruction());
                    ckpt.rollback(&mut cpu)
                };
                if restored.is_err() {
                    break SupervisorOutcome::Faulted { error };
                }
                rollbacks += 1;
                attempts += 1;
                injector = injector_for(attempts);
                suppress = sup.backoff_base << (attempts - 2).min(16);
            }
        }
    };
    events.append(&mut attempt_events);
    SupervisorReport {
        outcome,
        stats: cpu.stats(),
        attempts,
        rollbacks,
        escalations,
        lost_instructions: lost,
        checkpoints: ckpt.stats(),
        events,
    }
}

/// The batched supervisor — policy applied between instruction-bounded
/// segments of the one step loop — equals the one-step supervisor on every
/// workload, engine tier and seed, with the sweep covering rollbacks,
/// escalations and watchdog expiries.
#[test]
fn batched_supervisor_equals_the_one_step_supervisor() {
    let jobs: Vec<(usize, usize, u64)> = seed_jobs(suite().len(), 8)
        .into_iter()
        .flat_map(|(wi, seed)| (0..ENGINES.len()).map(move |e| (wi, e, seed)))
        .collect();
    let tallies = parallel_map(&jobs, default_threads(), |_, &(wi, e, seed)| {
        let w = &suite()[wi];
        // Seed classes: a drizzle, a storm (rollbacks and escalations), a
        // storm against a watchdog budget, and no injection at all.
        let rate = if seed % 4 == 0 { w.rate } else { 2000 };
        let inject = (seed % 4 != 3).then_some(InjectConfig {
            seed,
            rate,
            modes: InjectModes::all(),
        });
        let sup = SupervisorConfig {
            ckpt_every: (w.instructions / 8).max(200),
            max_retries: if seed % 4 == 2 { u32::MAX } else { 12 },
            backoff_base: if seed % 4 == 2 { 1 } else { 64 },
            watchdog_fuel: (seed % 4 == 2).then_some(w.instructions * 2),
            deadline: None,
        };
        let cfg = cfg_on(w, ENGINES[e]);
        let want = one_step_supervisor(w, cfg.clone(), inject, sup);
        let got = run_risc_supervised(&w.prog, &w.args, cfg, inject, true, sup).expect("setup");
        let ctx = format!("{} {:?} seed {seed}", w.id, ENGINES[e]);
        assert_eq!(got.outcome, want.outcome, "{ctx}: outcome");
        assert_eq!(got.stats, want.stats, "{ctx}: stats");
        assert_eq!(
            (got.attempts, got.rollbacks, got.escalations),
            (want.attempts, want.rollbacks, want.escalations),
            "{ctx}: attempts, rollbacks, escalations"
        );
        assert_eq!(got.lost_instructions, want.lost_instructions, "{ctx}: lost");
        assert_eq!(got.checkpoints, want.checkpoints, "{ctx}: checkpoints");
        assert_eq!(got.events, want.events, "{ctx}: events");
        (
            want.rollbacks,
            want.escalations,
            want.outcome == SupervisorOutcome::WatchdogExpired,
        )
    });
    let rollbacks: u32 = tallies.iter().map(|t| t.0).sum();
    let escalations: u32 = tallies.iter().map(|t| t.1).sum();
    let expiries = tallies.iter().filter(|t| t.2).count();
    assert!(
        rollbacks > 0 && escalations > 0 && expiries > 0,
        "the sweep must roll back ({rollbacks}), escalate ({escalations}) and \
         expire a watchdog ({expiries})"
    );
}

/// Without forwarding, an instruction that reads the register its
/// predecessor wrote waits one interlock bubble, so a snapshot stores the
/// register the last instruction wrote. Snapshot right after the write, of
/// a global register and of a windowed one, and restore into a fresh
/// machine, directly and through the JSON form: the restored machine
/// charges the same bubble and ends with the same statistics and result as
/// the run that was never interrupted.
#[test]
fn a_restore_between_a_write_and_its_reader_charges_the_same_interlock_bubble() {
    let cfg = SimConfig {
        forwarding: false,
        ..SimConfig::default()
    };
    let imm = |v| Short2::imm(v).expect("fits imm13");
    for (what, written) in [("global", Reg::R1), ("windowed", Reg::R16)] {
        assert_eq!(written.is_windowed(), what == "windowed");
        let prog = Program::from_instructions(vec![
            Instruction::reg(Opcode::Add, written, Reg::R0, imm(5)),
            Instruction::reg(Opcode::Add, Reg::R26, written, imm(1)),
            Instruction::ret(Reg::R0, imm(0)),
            Instruction::nop(),
        ]);
        let fresh = || setup_risc(&prog, &[], cfg.clone(), false).expect("setup");
        let mut whole = fresh();
        whole.run().expect("runs clean");
        assert_eq!(whole.result(), 6, "{what}");
        assert_eq!(whole.stats().bubble_cycles, 1, "{what}: the reader waits");

        let mut donor = fresh();
        assert_eq!(donor.step().expect("the write retires"), Halt::Running);
        let snap = donor.snapshot();
        assert!(
            !snap.to_json().contains("\"last_write\":null"),
            "{what}: the snapshot holds the write"
        );
        let through_json = Snapshot::from_json(&snap.to_json()).expect("reads back");
        for snap in [snap, through_json] {
            let mut restored = Cpu::new(cfg.clone());
            restored.restore(&snap).expect("restores");
            restored.step().expect("the reader retires");
            assert_eq!(
                restored.stats().bubble_cycles,
                1,
                "{what}: the restored reader waits"
            );
            restored.run().expect("runs clean");
            assert_eq!(restored.stats(), whole.stats(), "{what}");
            assert_eq!(restored.result(), whole.result(), "{what}");
        }
    }
}
