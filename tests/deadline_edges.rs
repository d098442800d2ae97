//! Edge cases of the wall-clock watchdog: a zero budget fires before the
//! first step, expiry while the machine sits in a delayed-branch slot
//! stops cleanly (and the stopped prefix is resumable bit-identically),
//! the deterministic fuel bound takes precedence inside a poll window
//! while the wall clock wins exactly at poll steps, and a mid-run expiry
//! stops on a poll boundary even though uninjected runs batch their
//! steps between polls.

use risc1::core::deadline::DEADLINE_POLL_STEPS;
use risc1::core::{Deadline, ExecError, Program, SimConfig};
use risc1::ir::{
    compile_risc, run_risc, run_risc_deadline, run_risc_resumed, snapshot_risc_prefix,
    InjectOutcome, RiscOpts, TimedOutcome,
};
use risc1::workloads::by_id;

struct Compiled {
    prog: Program,
    args: Vec<i32>,
    cfg: SimConfig,
    instructions: u64,
}

fn compiled(id: &str) -> Compiled {
    let w = by_id(id).expect("suite workload");
    let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
    let (_, base) = run_risc(&prog, &w.small_args).expect("suite runs clean");
    let cfg = SimConfig {
        fuel: base.instructions * 3 + 10_000,
        ..SimConfig::default()
    };
    Compiled {
        prog,
        args: w.small_args.clone(),
        cfg,
        instructions: base.instructions,
    }
}

/// `--timeout-ms 0`: the deadline is polled at step 0, before any
/// instruction retires, so a zero budget is a deterministic timeout with
/// an empty prefix — not a race with the first instruction.
#[test]
fn zero_timeout_fires_before_the_first_step() {
    let w = compiled("fib");
    for _ in 0..3 {
        match run_risc_deadline(
            &w.prog,
            &w.args,
            w.cfg.clone(),
            None,
            false,
            Some(Deadline::after_ms(0)),
            None,
        )
        .expect("setup succeeds")
        {
            TimedOutcome::TimedOut { stats, events } => {
                assert_eq!(stats.instructions, 0, "nothing retired before the poll");
                assert!(events.is_empty(), "no injector, no events");
            }
            TimedOutcome::Finished(_) => panic!("a zero budget must never finish"),
        }
    }
}

/// Expiry while the machine is in a delayed-branch slot: the watchdog
/// only looks between steps, so stopping there leaves a valid prefix —
/// proven by resuming that exact prefix to a finish bit-identical to the
/// cold run.
#[test]
fn expiry_in_a_delay_slot_stops_cleanly_and_resumes() {
    let w = compiled("fib");
    let cold = run_risc_deadline(&w.prog, &w.args, w.cfg.clone(), None, false, None, None)
        .expect("cold run")
        .finished()
        .expect("no deadline");

    // Find a prefix that parks the machine in a delay slot (a taken
    // transfer with its slot not yet executed: `pending_target` set).
    let mut in_slot = None;
    for steps in 1..200 {
        let snap = snapshot_risc_prefix(&w.prog, &w.args, w.cfg.clone(), false, steps)
            .expect("prefix snapshot");
        if !snap.to_json().contains("\"pending_target\":null") {
            in_slot = Some(snap);
            break;
        }
    }
    let snap = in_slot.expect("the suite takes a branch within 200 steps");

    // An already-expired deadline stops the resumed run at step 0 — while
    // the restored machine still owes its delay slot.
    match run_risc_resumed(&snap, Some(Deadline::after_ms(0))).expect("snapshot verifies") {
        TimedOutcome::TimedOut { stats, .. } => {
            assert_eq!(
                stats.instructions,
                snap.at_instruction(),
                "the stop added nothing to the prefix"
            );
        }
        TimedOutcome::Finished(_) => panic!("expired deadline must not finish"),
    }

    // The same prefix, resumed without a deadline, completes bit-identical
    // to the cold run: expiry in the slot perturbed nothing.
    match run_risc_resumed(&snap, None).expect("snapshot verifies") {
        TimedOutcome::Finished(report) => assert_eq!(report, cold, "resumed != cold"),
        TimedOutcome::TimedOut { .. } => panic!("no deadline was set"),
    }
}

/// The tie-break law: fuel is part of the deterministic machine and wins
/// anywhere inside a poll window; the wall clock is only consulted every
/// `DEADLINE_POLL_STEPS` steps (and at step 0, where it wins outright).
#[test]
fn fuel_beats_deadline_inside_a_poll_window() {
    let w = compiled("fib");
    assert!(
        w.instructions > 8,
        "workload long enough to exhaust a tiny fuel budget"
    );
    // Fuel that runs out well before the first non-zero poll step…
    let fuel = (w.instructions / 2).clamp(1, DEADLINE_POLL_STEPS / 2);
    let cfg = SimConfig {
        fuel,
        ..w.cfg.clone()
    };
    // …and a deadline that will be long expired by then. It still loses:
    // after the step-0 poll the clock is not consulted again until step
    // 4096, and the machine faults on fuel first.
    let deadline = Deadline::at(std::time::Instant::now() + std::time::Duration::from_millis(30));
    std::thread::sleep(std::time::Duration::from_millis(1));
    match run_risc_deadline(&w.prog, &w.args, cfg, None, false, Some(deadline), None)
        .expect("setup succeeds")
    {
        TimedOutcome::Finished(report) => match report.outcome {
            InjectOutcome::Faulted {
                error: ExecError::OutOfFuel,
            } => {}
            other => panic!("expected fuel exhaustion, got {other:?}"),
        },
        TimedOutcome::TimedOut { .. } => {
            panic!("deadline must not be consulted between poll steps")
        }
    }
}

/// At step 0 the ordering flips: the poll runs before any execution, so
/// an expired deadline beats even zero fuel.
#[test]
fn deadline_beats_fuel_at_step_zero() {
    let w = compiled("fib");
    let cfg = SimConfig {
        fuel: 1,
        ..w.cfg.clone()
    };
    match run_risc_deadline(
        &w.prog,
        &w.args,
        cfg,
        None,
        false,
        Some(Deadline::after_ms(0)),
        None,
    )
    .expect("setup succeeds")
    {
        TimedOutcome::TimedOut { stats, .. } => assert_eq!(stats.instructions, 0),
        TimedOutcome::Finished(_) => panic!("expired deadline loses only between polls"),
    }
}

/// The poll mask itself: step 0 and every multiple of the interval, and
/// nothing in between — the contract every run loop in the repo leans on.
#[test]
fn poll_mask_is_exactly_the_interval() {
    assert!(Deadline::should_poll(0));
    for step in 1..DEADLINE_POLL_STEPS {
        assert!(!Deadline::should_poll(step), "step {step} must not poll");
    }
    assert!(Deadline::should_poll(DEADLINE_POLL_STEPS));
    assert!(Deadline::should_poll(3 * DEADLINE_POLL_STEPS));
    assert!(!Deadline::should_poll(3 * DEADLINE_POLL_STEPS + 1));
}

/// TimedOut is deterministic where it can be: two expired-deadline runs
/// of the same spec stop at the same place with the same statistics.
#[test]
fn timed_out_prefix_is_deterministic() {
    let w = compiled("fib");
    let run = || {
        run_risc_deadline(
            &w.prog,
            &w.args,
            w.cfg.clone(),
            None,
            false,
            Some(Deadline::after_ms(0)),
            None,
        )
        .expect("setup succeeds")
    };
    assert_eq!(run(), run(), "expired-deadline stops are reproducible");
}

/// Between polls an uninjected run batches its steps with `Cpu::step_n`;
/// the poll points must stay those of a one-step loop. So a run that its
/// deadline stops mid-way holds exactly the state of a prefix of a whole
/// number of poll intervals. (A clean `fib` run retires one instruction
/// per step: no trap is ever delivered.)
#[test]
fn a_mid_run_timeout_stops_on_a_poll_boundary() {
    let w = by_id("fib").expect("suite workload");
    let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
    let args = [27];
    let cfg = SimConfig::default();
    let stopped = [1, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .find_map(|ms| {
            match run_risc_deadline(
                &prog,
                &args,
                cfg.clone(),
                None,
                false,
                Some(Deadline::after_ms(ms)),
                None,
            )
            .expect("setup succeeds")
            {
                TimedOutcome::TimedOut { stats, .. } if stats.instructions > 0 => Some(stats),
                TimedOutcome::TimedOut { .. } => None,
                TimedOutcome::Finished(_) => panic!("fib(27) finished within {ms} ms"),
            }
        })
        .expect("some budget expires after the first poll");
    assert_eq!(
        stopped.instructions % DEADLINE_POLL_STEPS,
        0,
        "stopped off a poll boundary"
    );
    let prefix = snapshot_risc_prefix(&prog, &args, cfg, false, stopped.instructions)
        .expect("prefix snapshot");
    match run_risc_resumed(&prefix, Some(Deadline::after_ms(0))).expect("snapshot verifies") {
        TimedOutcome::TimedOut { stats, .. } => {
            assert_eq!(stats, stopped, "the stop is that prefix's state")
        }
        TimedOutcome::Finished(_) => panic!("expired deadline must not finish"),
    }
}
