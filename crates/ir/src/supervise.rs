//! Supervised execution: periodic checkpoints, a watchdog budget, and
//! rollback-to-last-checkpoint with bounded exponential-backoff retry.
//!
//! The supervisor is policy around instruction-bounded segments of the
//! step loop of [`run_risc_injected`](crate::run_risc_injected): it stops
//! the loop at every point where a one-step-at-a-time supervisor would act,
//! and adds three mechanisms there:
//!
//! 1. **Checkpoint every N instructions** via an incremental
//!    [`Checkpointer`] (dirty pages only; cost modeled deterministically
//!    in cycles, never perturbing the simulated machine).
//! 2. **Rollback and retry**: a structured fault rolls the machine back to
//!    the last checkpoint and retries with a *fresh injector stream*
//!    (derived from the campaign seed and the attempt number) and an
//!    exponential **backoff** — the injector rolls no die for
//!    `backoff_base << (attempt-1)` steps after each rollback, modelling a
//!    supervisor that eases off a struggling machine. Retries are bounded
//!    by `max_retries`; past that the fault surfaces.
//!
//!    A fault can manifest long after the perturbation that caused it (a
//!    flipped loop bound burns fuel for thousands of instructions first),
//!    so the *last* checkpoint may itself hold poisoned state. When a
//!    retry makes no forward progress — it faults at an instruction count
//!    no later than the previous fault — the supervisor **escalates**:
//!    the next rollback reverts all the way to the campaign baseline
//!    (snapshot id 1) instead of the latest checkpoint, trading lost work
//!    for a provably clean restart point.
//! 3. **Watchdog budget**: a total instruction budget across *all*
//!    attempts (work discarded by rollbacks counts). When it expires the
//!    run ends in [`SupervisorOutcome::WatchdogExpired`] instead of
//!    looping forever on a fault that rollback cannot clear.
//!
//! Everything is deterministic: same program, arguments, configuration
//! and campaign — same attempts, same rollbacks, same outcome.

use crate::runner::{setup_risc, InjectSetupError, Source, Stepper};
use risc1_core::deadline::DEADLINE_POLL_STEPS;
use risc1_core::{
    CheckpointStats, Checkpointer, Deadline, ExecError, ExecStats, FaultInjector, Halt,
    InjectConfig, InjectEvent, Program, SimConfig,
};

/// Default checkpoint interval, in retired instructions.
pub const DEFAULT_CKPT_EVERY: u64 = 25_000;

/// Supervisor policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Take a checkpoint every this many retired instructions.
    pub ckpt_every: u64,
    /// Maximum rollback-and-retry attempts after the first run.
    pub max_retries: u32,
    /// Backoff unit: after the k-th rollback, the injector rolls no die
    /// for `backoff_base << (k-1)` steps (shift saturating at 16).
    pub backoff_base: u64,
    /// Total instruction budget across all attempts (discarded work
    /// included). `None` leaves only the per-run fuel limit.
    pub watchdog_fuel: Option<u64>,
    /// Wall-clock deadline across all attempts, polled between steps
    /// (at least every [`DEADLINE_POLL_STEPS`] steps, so it never perturbs
    /// the simulated machine). `None` leaves the run
    /// unbounded in host time. Setting it trades determinism of the
    /// *outcome kind* for liveness — the serve layer's per-job watchdog.
    pub deadline: Option<Deadline>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            ckpt_every: DEFAULT_CKPT_EVERY,
            max_retries: 8,
            backoff_base: 64,
            watchdog_fuel: None,
            deadline: None,
        }
    }
}

/// How a supervised run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorOutcome {
    /// The program reached a clean halt (possibly after rollbacks).
    Halted {
        /// The program's return value.
        result: i32,
    },
    /// Retries were exhausted; this is the final attempt's fault.
    Faulted {
        /// The fault that ended the last attempt.
        error: ExecError,
    },
    /// The cross-attempt instruction budget ran out.
    WatchdogExpired,
    /// The cross-attempt wall-clock deadline passed
    /// ([`SupervisorConfig::deadline`]).
    DeadlineExceeded,
}

/// Everything a supervised run produced.
#[derive(Debug, Clone)]
pub struct SupervisorReport {
    /// How the run ended.
    pub outcome: SupervisorOutcome,
    /// Simulator statistics of the machine at termination (the surviving
    /// timeline — rolled-back work is not in here).
    pub stats: ExecStats,
    /// Attempts made (1 = no rollback was needed).
    pub attempts: u32,
    /// Rollbacks performed (`attempts - 1`, unless setup failed).
    pub rollbacks: u32,
    /// Rollbacks that escalated past the latest checkpoint to the campaign
    /// baseline because a retry made no forward progress (the latest
    /// checkpoint may hold poisoned state). Always ≤ `rollbacks`.
    pub escalations: u32,
    /// Instructions discarded by rollbacks across all attempts.
    pub lost_instructions: u64,
    /// Checkpoint cost accounting (modeled cycles, pages/bytes copied).
    pub checkpoints: CheckpointStats,
    /// Perturbations applied across all attempts, in order.
    pub events: Vec<InjectEvent>,
}

impl SupervisorReport {
    /// True when the run halted cleanly.
    pub fn is_halted(&self) -> bool {
        matches!(self.outcome, SupervisorOutcome::Halted { .. })
    }

    /// Checkpoint overhead as a fraction of the surviving timeline's
    /// cycles: modeled checkpoint cycles / execution cycles.
    pub fn checkpoint_overhead(&self) -> f64 {
        if self.stats.cycles == 0 {
            0.0
        } else {
            self.checkpoints.modeled_cycles as f64 / self.stats.cycles as f64
        }
    }
}

/// The step loop of attempt `k` (1-based) of a campaign: attempt 1 uses
/// the campaign seed verbatim; each retry re-derives a fresh,
/// deterministic injector stream, so a retry never replays the exact
/// perturbation sequence that just killed the machine, and holds its dice
/// for the `backoff` steps after the rollback.
fn attempt_stepper(base: Option<InjectConfig>, attempt: u32, backoff: u64) -> Stepper<'static> {
    let source = base.map_or(Source::Clean, |base| {
        let mut cfg = base;
        cfg.seed = base
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(attempt - 1)));
        let mut injector = FaultInjector::new(cfg);
        injector.hold(backoff);
        Source::Dice(injector)
    });
    Stepper::new(source, None)
}

/// Runs a compiled RISC I program under supervision: periodic incremental
/// checkpoints, rollback-and-retry on structured faults, exponential
/// injection backoff, and an optional cross-attempt watchdog budget.
/// `inject: None` supervises a fault-free run (useful for pricing
/// checkpoint overhead alone).
///
/// # Errors
/// [`InjectSetupError`] when the run could not be arranged at all.
pub fn run_risc_supervised(
    prog: &Program,
    args: &[i32],
    cfg: SimConfig,
    inject: Option<InjectConfig>,
    recovery: bool,
    sup: SupervisorConfig,
) -> Result<SupervisorReport, InjectSetupError> {
    let mut cpu = setup_risc(prog, args, cfg, recovery)?;
    let mut ckpt = Checkpointer::new(&mut cpu);
    let baseline = ckpt.latest().clone();
    let mut attempts: u32 = 1;
    let mut stepper = attempt_stepper(inject, attempts, 0);
    let mut rollbacks: u32 = 0;
    let mut escalations: u32 = 0;
    let mut lost: u64 = 0;
    let mut prev_fault_at: Option<u64> = None;
    let mut events: Vec<InjectEvent> = Vec::new();

    // Steps taken across all attempts; the deadline is polled whenever
    // this crosses a multiple of DEADLINE_POLL_STEPS.
    let mut steps: u64 = 0;
    let outcome = loop {
        // Every step retires at most one instruction, so a segment no
        // longer than the instructions left to the watchdog budget and to
        // the next checkpoint ends at or before either: both act at a
        // segment boundary, where a one-step supervisor would act.
        let retired = cpu.stats().instructions;
        let mut segment = DEADLINE_POLL_STEPS - steps % DEADLINE_POLL_STEPS;
        if let Some(budget) = sup.watchdog_fuel {
            match budget.checked_sub(retired + lost) {
                Some(0) | None => break SupervisorOutcome::WatchdogExpired,
                Some(left) => segment = segment.min(left),
            }
        }
        if let Some(d) = sup.deadline {
            if Deadline::should_poll(steps) && d.expired() {
                break SupervisorOutcome::DeadlineExceeded;
            }
        }
        let mut next_ckpt = ckpt.latest().at_instruction() + sup.ckpt_every;
        if retired >= next_ckpt {
            ckpt.checkpoint(&mut cpu);
            next_ckpt = retired + sup.ckpt_every;
        }
        segment = segment.min((next_ckpt - retired).max(1));
        // A fault ends a segment early; counting the whole segment keeps
        // the deadline polled at least every DEADLINE_POLL_STEPS steps.
        steps += segment;
        match stepper.run(&mut cpu, segment) {
            Ok(Halt::Running) => {}
            Ok(Halt::Returned) => {
                break SupervisorOutcome::Halted {
                    result: cpu.result(),
                }
            }
            Err(error) => {
                events.append(&mut stepper.applied);
                if attempts > sup.max_retries {
                    break SupervisorOutcome::Faulted { error };
                }
                // No forward progress since the last rollback means the
                // latest checkpoint likely holds the corruption that is
                // killing us — escalate to the campaign baseline.
                let fault_at = cpu.stats().instructions;
                let stuck = prev_fault_at.is_some_and(|prev| fault_at <= prev);
                prev_fault_at = if stuck { None } else { Some(fault_at) };
                let restored = if stuck {
                    escalations += 1;
                    lost += fault_at.saturating_sub(baseline.at_instruction());
                    ckpt.revert_to(&mut cpu, &baseline)
                } else {
                    lost += fault_at.saturating_sub(ckpt.latest().at_instruction());
                    ckpt.rollback(&mut cpu)
                };
                if restored.is_err() {
                    // The held checkpoint itself failed verification —
                    // nothing to retry from; surface the original fault.
                    break SupervisorOutcome::Faulted { error };
                }
                rollbacks += 1;
                attempts += 1;
                let backoff = sup.backoff_base << u64::from((attempts - 2).min(16));
                stepper = attempt_stepper(inject, attempts, backoff);
            }
        }
    };
    // Events of the final attempt (empty if it faulted: taken above).
    events.append(&mut stepper.applied);
    Ok(SupervisorReport {
        outcome,
        stats: cpu.stats(),
        attempts,
        rollbacks,
        escalations,
        lost_instructions: lost,
        checkpoints: ckpt.stats(),
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::dsl::*;
    use crate::risc::{compile_risc, RiscOpts};

    fn loop_program() -> Program {
        let m = module(
            vec![function(
                "main",
                1,
                3,
                vec![
                    assign(1, konst(0)),
                    assign(2, konst(0)),
                    while_loop(
                        lt(local(2), local(0)),
                        vec![
                            assign(1, add(local(1), local(2))),
                            assign(2, add(local(2), konst(1))),
                        ],
                    ),
                    ret(local(1)),
                ],
            )],
            vec![],
        );
        compile_risc(&m, RiscOpts::default()).unwrap()
    }

    #[test]
    fn unsupervised_result_is_preserved_and_checkpoints_happen() {
        let prog = loop_program();
        let (clean, stats) = crate::run_risc(&prog, &[500]).unwrap();
        let report = run_risc_supervised(
            &prog,
            &[500],
            SimConfig::default(),
            None,
            false,
            SupervisorConfig {
                ckpt_every: 200,
                ..SupervisorConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.outcome, SupervisorOutcome::Halted { result: clean });
        assert_eq!(report.stats, stats, "checkpointing must not perturb");
        assert_eq!(report.attempts, 1);
        assert_eq!(report.rollbacks, 0);
        assert!(report.checkpoints.checkpoints > 0);
        assert!(report.checkpoint_overhead() >= 0.0);
    }

    #[test]
    fn supervisor_is_deterministic() {
        let prog = loop_program();
        let inject = Some(InjectConfig::with_seed(11));
        let run = || {
            run_risc_supervised(
                &prog,
                &[300],
                SimConfig::default(),
                inject,
                true,
                SupervisorConfig {
                    ckpt_every: 500,
                    ..SupervisorConfig::default()
                },
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn watchdog_bounds_hopeless_retries() {
        let prog = loop_program();
        // An absurd injection rate guarantees recurring faults; the
        // watchdog must end the run rather than retrying forever.
        let report = run_risc_supervised(
            &prog,
            &[10_000],
            SimConfig::default(),
            Some(InjectConfig {
                seed: 5,
                rate: 2_000,
                ..InjectConfig::with_seed(5)
            }),
            false,
            SupervisorConfig {
                ckpt_every: 1_000,
                max_retries: u32::MAX,
                backoff_base: 1,
                watchdog_fuel: Some(30_000),
                deadline: None,
            },
        )
        .unwrap();
        match report.outcome {
            SupervisorOutcome::WatchdogExpired => {
                assert!(report.stats.instructions + report.lost_instructions >= 30_000);
            }
            // Acceptable alternates under extreme rates: the machine dies
            // of its own fuel, or even squeaks through. No deadline is
            // configured here, so that arm is unreachable.
            SupervisorOutcome::Faulted { .. }
            | SupervisorOutcome::Halted { .. }
            | SupervisorOutcome::DeadlineExceeded => {}
        }
    }
}
