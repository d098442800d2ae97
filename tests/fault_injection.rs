//! The robustness contract of the whole stack, enforced end to end.
//!
//! Every fault-injected execution must land in the trichotomy
//! *recovered-with-correct-result | structured-fault | clean-halt* — a
//! panic is never an acceptable fourth outcome. The sweep below drives
//! all eleven suite workloads through seed-driven injection campaigns
//! (with and without recovery handlers) under `catch_unwind`, and the
//! companion property tests hold the memory system and both CISC
//! disassemblers to the same no-panic bar on arbitrary input.

use risc1::core::inject::{InjectConfig, InjectModes};
use risc1::core::{ExecEngine, ExecError, FaultInjector, Halt, InjectEvent, SimConfig, TrapKind};
use risc1::ir::{
    compile_risc, default_threads, parallel_map, record_risc_injected, replay_journal, run_risc,
    run_risc_injected, seed_jobs, setup_risc, InjectOutcome, InjectReport, RiscOpts,
};
use risc1::workloads::all;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Where the sweep dumps the journal of every faulting campaign, so a CI
/// failure is reproducible from the uploaded artifacts alone:
/// `risc1 replay target/replay-artifacts/<workload>_seed<N>.json`.
const ARTIFACT_DIR: &str = "target/replay-artifacts";

/// One compiled workload with its uninjected result and a fuel-bounded
/// configuration (so handler re-execution loops end in a structured
/// `OutOfFuel` quickly instead of burning the default 200M).
struct Compiled {
    id: &'static str,
    prog: risc1::core::Program,
    args: Vec<i32>,
    expect: i32,
    cfg: SimConfig,
    rate: u32,
}

fn compiled_suite() -> Vec<Compiled> {
    all()
        .iter()
        .map(|w| {
            let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
            let (expect, base) = run_risc(&prog, &w.small_args).expect("suite runs clean");
            let cfg = SimConfig {
                fuel: base.instructions * 3 + 10_000,
                ..SimConfig::default()
            };
            // ~4 expected perturbations per run regardless of workload
            // length, so short and long benchmarks are stressed equally.
            let rate = (4 * 10_000 / base.instructions.max(1)).clamp(1, 500) as u32;
            Compiled {
                id: w.id,
                prog,
                args: w.small_args.clone(),
                expect,
                cfg,
                rate,
            }
        })
        .collect()
}

#[test]
fn trichotomy_holds_for_all_workloads_across_32_seeds() {
    let suite = compiled_suite();
    assert_eq!(suite.len(), 11, "the paper's full benchmark count");
    let _ = std::fs::create_dir_all(ARTIFACT_DIR);
    // The 11×32 sweep is the slowest test in the repo; each (workload,
    // seed) campaign is independent, so farm them out on the deterministic
    // parallel runner and fold/write artifacts in canonical order after.
    let jobs = seed_jobs(suite.len(), 32);
    let outcomes = parallel_map(&jobs, default_threads(), |_, &(wi, seed)| {
        let w = &suite[wi];
        // Alternate handler installation so both halves of the design
        // see every workload: even seeds recover, odd seeds run bare.
        let recovery = seed % 2 == 0;
        let icfg = InjectConfig {
            seed,
            rate: w.rate,
            modes: InjectModes::all(),
        };
        catch_unwind(AssertUnwindSafe(|| {
            let (journal, report) =
                record_risc_injected(&w.prog, &w.args, w.cfg.clone(), icfg, recovery)
                    .expect("setup is valid");
            (journal, report.outcome)
        }))
        .unwrap_or_else(|_| panic!("{} seed {seed} (recovery {recovery}) panicked", w.id))
    });
    let mut halted = 0u64;
    let mut faulted = 0u64;
    for (&(wi, seed), (journal, outcome)) in jobs.iter().zip(&outcomes) {
        match outcome {
            InjectOutcome::Halted { .. } => halted += 1,
            InjectOutcome::Faulted { error } => {
                // A structured fault must render, not unwind — and its
                // journal lands in the artifact directory so the exact
                // campaign replays from the CI logs alone.
                let _ = error.to_string();
                let path = format!("{ARTIFACT_DIR}/{}_seed{seed}.json", suite[wi].id);
                let _ = std::fs::write(path, journal.to_json());
                faulted += 1;
            }
        }
    }
    assert_eq!(halted + faulted, 11 * 32);
    assert!(halted > 0, "some campaigns must survive");
    assert!(
        faulted > 0,
        "some campaigns must fault (else nothing was injected)"
    );
}

/// The definition the batched step loop is held to: before every step,
/// one die roll and, when it comes up, the drawn event; then one
/// `Cpu::step`. Returns the report and each event's step index.
fn one_step_at_a_time(
    w: &Compiled,
    cfg: SimConfig,
    icfg: InjectConfig,
    recovery: bool,
) -> (InjectReport, Vec<u64>) {
    let mut cpu = setup_risc(&w.prog, &w.args, cfg, recovery).expect("setup is valid");
    let mut injector = FaultInjector::new(icfg);
    let mut events = Vec::new();
    let mut steps = Vec::new();
    for step in 0u64.. {
        if injector.quiet_steps(1) == 0 {
            if let Some(kind) = injector.draw(&cpu) {
                kind.apply(&mut cpu);
                events.push(InjectEvent {
                    at_instruction: cpu.stats().instructions,
                    kind,
                });
                steps.push(step);
            }
        }
        let outcome = match cpu.step() {
            Ok(Halt::Running) => continue,
            Ok(Halt::Returned) => InjectOutcome::Halted {
                result: cpu.result(),
            },
            Err(error) => InjectOutcome::Faulted { error },
        };
        let report = InjectReport {
            outcome,
            stats: cpu.stats(),
            events,
        };
        return (report, steps);
    }
    unreachable!("the fuel limit ends every run")
}

/// The batched injector — dice rolled ahead, quiet steps run as one
/// `Cpu::step_n` — equals the one-step loop on every workload, engine
/// tier, seed and rate: the full report (outcome, statistics, applied
/// events) and the journal's step keys. Replaying that journal, the same
/// loop's other event source, gives the same report again.
#[test]
fn batched_injection_equals_the_one_step_loop() {
    const ENGINES: [ExecEngine; 3] = [
        ExecEngine::Uncached,
        ExecEngine::Superblock,
        ExecEngine::Trace,
    ];
    let suite = compiled_suite();
    // Every workload on every tier under sixteen seeds: eight at the
    // sweep's rate, eight at a ten-times storm, recovery alternating.
    let jobs: Vec<(usize, usize, u64)> = seed_jobs(suite.len(), 16)
        .into_iter()
        .flat_map(|(wi, seed)| (0..ENGINES.len()).map(move |e| (wi, e, seed)))
        .collect();
    let events = parallel_map(&jobs, default_threads(), |_, &(wi, e, seed)| {
        let w = &suite[wi];
        let cfg = SimConfig {
            engine: ENGINES[e],
            ..w.cfg.clone()
        };
        let icfg = InjectConfig {
            seed,
            rate: if seed < 8 { w.rate } else { w.rate * 10 },
            modes: InjectModes::all(),
        };
        let recovery = seed % 2 == 0;
        let (want, want_steps) = one_step_at_a_time(w, cfg.clone(), icfg, recovery);
        let (journal, got) =
            record_risc_injected(&w.prog, &w.args, cfg, icfg, recovery).expect("setup is valid");
        let ctx = format!("{} {:?} seed {seed}", w.id, ENGINES[e]);
        assert_eq!(got, want, "{ctx}: report");
        let got_steps: Vec<u64> = journal.events.iter().map(|ev| ev.step).collect();
        assert_eq!(got_steps, want_steps, "{ctx}: journal step keys");
        let replayed = replay_journal(&journal).expect("replay sets up");
        assert_eq!(replayed, want, "{ctx}: the journal as event source");
        want.events.len()
    });
    assert!(
        events.iter().sum::<usize>() > jobs.len(),
        "the campaigns must actually inject: {} events",
        events.iter().sum::<usize>()
    );
}

#[test]
fn transparent_injection_reproduces_the_clean_result_bit_for_bit() {
    // Spurious interrupts and forced misalignment probes with resume
    // handlers are extra-architectural: state is saved in a fresh window
    // and `reti r25, #0` replays the interrupted instruction. Every
    // workload and every seed must therefore reproduce the uninjected
    // result exactly.
    let mut trap_activity = 0u64;
    for w in &compiled_suite() {
        for seed in 0..4u64 {
            let icfg = InjectConfig {
                seed,
                rate: 150,
                modes: InjectModes::transparent(),
            };
            let rep =
                run_risc_injected(&w.prog, &w.args, w.cfg.clone(), icfg, true).expect("setup");
            assert!(
                rep.recovered(w.expect),
                "seed {seed}: outcome {:?} after {} events",
                rep.outcome,
                rep.events.len()
            );
            trap_activity += rep.stats.trap_entries + rep.stats.interrupts_taken;
        }
    }
    assert!(
        trap_activity > 0,
        "the transparent campaign must actually fire"
    );
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let suite = compiled_suite();
    let w = &suite[5]; // qsort: recursion + data traffic
    for seed in [0u64, 1, 7, 0xdead_beef] {
        let icfg = InjectConfig {
            seed,
            rate: 80,
            modes: InjectModes::all(),
        };
        let a = run_risc_injected(&w.prog, &w.args, w.cfg.clone(), icfg, true).expect("setup");
        let b = run_risc_injected(&w.prog, &w.args, w.cfg.clone(), icfg, true).expect("setup");
        assert_eq!(
            a.events, b.events,
            "seed {seed}: schedule must be deterministic"
        );
        assert_eq!(a.outcome, b.outcome, "seed {seed}");
        assert_eq!(a.stats.instructions, b.stats.instructions, "seed {seed}");
        assert_eq!(a.stats.cycles, b.stats.cycles, "seed {seed}");
        assert_eq!(a.stats.trap_entries, b.stats.trap_entries, "seed {seed}");
        assert_eq!(a.stats.trap_counts, b.stats.trap_counts, "seed {seed}");
        assert_eq!(
            a.stats.interrupts_taken, b.stats.interrupts_taken,
            "seed {seed}"
        );
    }
}

#[test]
fn different_seeds_produce_different_schedules() {
    let suite = compiled_suite();
    let w = &suite[4]; // bubble: long enough to fire often
    let events: Vec<_> = [3u64, 4]
        .iter()
        .map(|&seed| {
            let icfg = InjectConfig {
                seed,
                rate: 100,
                modes: InjectModes::all(),
            };
            run_risc_injected(&w.prog, &w.args, w.cfg.clone(), icfg, true)
                .expect("setup")
                .events
        })
        .collect();
    assert!(!events[0].is_empty() && !events[1].is_empty());
    assert_ne!(events[0], events[1], "seeds must decorrelate");
}

#[test]
fn the_service_path_is_bit_identical_to_direct_execution() {
    // The same transparency law the serve chaos test enforces, wired into
    // this sweep's conventions: eight seeds of a call-heavy workload routed
    // through the execution service must reproduce `run_risc_injected`
    // report for report — outcome, full `ExecStats`, and applied-event log.
    use risc1::{ExecService, JobMode, JobOutput, JobSpec, PollState, ServiceConfig};
    use std::time::Duration;

    let suite = compiled_suite();
    let w = suite
        .iter()
        .find(|w| w.id == "qsort")
        .expect("suite workload");
    let specs: Vec<JobSpec> = (0..8u64)
        .map(|seed| JobSpec {
            program: w.prog.clone(),
            args: w.args.clone(),
            cfg: w.cfg.clone(),
            inject: Some(InjectConfig {
                seed,
                rate: w.rate,
                modes: InjectModes::all(),
            }),
            recovery: seed % 2 == 0,
            mode: JobMode::Direct,
            timeout_ms: None,
            snapshot: None,
            journal: false,
        })
        .collect();

    let service = ExecService::start(ServiceConfig::default());
    let tickets = service
        .submit("sweep", 1, specs.clone())
        .expect("8 distinct seeds fit the default queue");
    for (t, spec) in tickets.iter().zip(&specs) {
        let state = service
            .wait(t.id, Duration::from_secs(120))
            .expect("ticketed jobs are pollable");
        let PollState::Done(JobOutput::Finished(served)) = state else {
            panic!("seed {}: job did not finish", t.seed);
        };
        let direct = run_risc_injected(
            &spec.program,
            &spec.args,
            spec.cfg.clone(),
            spec.inject.expect("all specs inject"),
            spec.recovery,
        )
        .expect("setup is valid");
        assert_eq!(served, direct, "seed {}: service/direct divergence", t.seed);
    }
    assert_eq!(service.status().counters.panics, 0);
    service.shutdown();
}

#[test]
fn handler_that_faults_terminates_with_a_structured_double_fault() {
    // End-to-end through the assembler: the misalignment handler itself
    // performs a misaligned load, so the trap unit must refuse to recurse
    // and surface both causes.
    let prog = risc1::asm::assemble(
        "
        .entry main
        handler:
            ldhi  r16, #1
            ldl   r17, r16, #2      ; faults again, inside the handler
            reti  r25, #4
            nop
        main:
            ldhi  r16, #1
            nop
            ldl   r17, r16, #2      ; misaligned: 0x2002
            halt
            nop
        ",
    )
    .expect("assembles");
    let mut cpu = risc1::core::Cpu::new(SimConfig::default());
    cpu.load_program(&prog).unwrap();
    let handler = cpu.config().code_base + prog.symbols["handler"];
    cpu.set_trap_handler(TrapKind::Misaligned, handler);
    let err = cpu.run().unwrap_err();
    match err {
        ExecError::DoubleFault { first, second, .. } => {
            assert_eq!(first, TrapKind::Misaligned);
            assert_eq!(second, TrapKind::Misaligned);
        }
        other => panic!("expected a double fault, got {other:?}"),
    }
    let _ = err.to_string();
}

mod never_panics {
    //! Property tests: arbitrary input must never unwind, anywhere in the
    //! user-reachable decoding/memory surface.

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Memory access at any (addr, width) combination returns
        /// `Ok`/`Err`, never panics — including end-of-memory straddles
        /// and addresses near `u32::MAX`.
        #[test]
        fn memory_accessors(addr in any::<u32>(), v in any::<u32>(), size in 1usize..4096) {
            let mut m = risc1::core::Memory::new(size);
            let _ = m.read_u8(addr);
            let _ = m.read_u16(addr);
            let _ = m.read_u32(addr);
            let _ = m.write_u8(addr, v as u8);
            let _ = m.write_u16(addr, v as u16);
            let _ = m.write_u32(addr, v);
            let _ = m.peek_u8(addr);
            let _ = m.peek_u32(addr);
            let _ = m.flip_bit(addr, (v & 7) as u8);
            let _ = m.load_image(addr, &v.to_le_bytes());
        }

        /// The CX (VAX-style byte-coded) disassembler accepts any byte
        /// soup: undecodable bytes degrade to `.byte`, truncated operands
        /// to `None` — never a panic.
        #[test]
        fn cx_disassembler(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let text = risc1::cisc::disasm::disassemble(&bytes);
            prop_assert!(bytes.is_empty() == text.is_empty());
            for offset in 0..bytes.len() {
                let _ = risc1::cisc::disasm::decode_one(&bytes, offset as u32);
            }
        }

        /// The MC (68000-style word-coded) disassembler, same bar.
        #[test]
        fn mc_disassembler(words in proptest::collection::vec(any::<u16>(), 0..128)) {
            let text = risc1::m68::disasm::disassemble(&words);
            prop_assert!(words.is_empty() == text.is_empty());
            for idx in 0..words.len() {
                let _ = risc1::m68::disasm::decode_one(&words, idx);
            }
        }

        /// The RISC I word disassembler renders any 32-bit words.
        #[test]
        fn risc_disassembler(words in proptest::collection::vec(any::<u32>(), 0..128)) {
            let text = risc1::asm::disassemble_words(&words, 0x1000);
            prop_assert_eq!(text.lines().count(), words.len());
        }
    }
}
