//! Deterministic record–replay of fault-injection campaigns.
//!
//! [`record_risc_injected`] runs a campaign exactly like
//! [`run_risc_injected`](crate::run_risc_injected) while writing a
//! [`Journal`] of every applied perturbation, keyed by **step index** (the
//! count of machine steps before it — trap and interrupt delivery steps
//! retire no instruction, so instruction indices are not unique keys).
//! [`replay_journal`] re-executes a journal bit for bit without any PRNG:
//! the journal is the event source of the same step loop, applying the
//! recorded events before the recorded steps. The two must
//! agree on outcome signature, instruction count, and per-cause trap
//! counts — `tests/checkpoint_replay.rs` enforces this across every
//! workload and many seeds.
//!
//! [`minimize_journal`] is a ddmin-style delta debugger: it shrinks a
//! failing journal to a (1-minimal) subset of events that still reproduces
//! the same outcome signature.

use crate::runner::{
    run_risc_deadline, run_steps, setup_risc, InjectOutcome, InjectReport, InjectSetupError,
    Source, Stepper,
};
use risc1_core::{InjectConfig, Journal, JournalEvent, Program, RecordedOutcome, SimConfig};

/// The stable textual identity of an outcome: `halt <result>` for a clean
/// halt, or the fault's Display string, identical between a recording and
/// its replay.
pub fn outcome_signature(outcome: &InjectOutcome) -> String {
    match outcome {
        InjectOutcome::Halted { result } => format!("halt {result}"),
        InjectOutcome::Faulted { error } => format!("fault: {error}"),
    }
}

/// Condenses a finished run into the comparable [`RecordedOutcome`]
/// triple: signature, instructions retired, per-cause trap counts.
pub fn recorded_outcome(report: &InjectReport) -> RecordedOutcome {
    RecordedOutcome {
        signature: outcome_signature(&report.outcome),
        instructions: report.stats.instructions,
        trap_counts: report.stats.trap_counts,
    }
}

/// [`run_risc_injected`](crate::run_risc_injected), but additionally
/// records a complete [`Journal`] of the campaign — program image, args,
/// configuration, every applied event, and the outcome.
///
/// # Errors
/// [`InjectSetupError`] when the run could not be arranged.
pub fn record_risc_injected(
    prog: &Program,
    args: &[i32],
    cfg: SimConfig,
    inject: InjectConfig,
    recovery: bool,
) -> Result<(Journal, InjectReport), InjectSetupError> {
    let mut events = Vec::new();
    let report = run_risc_deadline(
        prog,
        args,
        cfg.clone(),
        Some(inject),
        recovery,
        None,
        Some(&mut events),
    )?
    .finished()
    .expect("a run without a deadline cannot time out");
    let journal = Journal {
        events,
        outcome: Some(recorded_outcome(&report)),
        ..Journal::new(prog, args, cfg, Some(inject), recovery)
    };
    Ok((journal, report))
}

/// Re-executes a recorded campaign bit for bit: no PRNG, just the
/// journal's events applied at their recorded step indices.
///
/// # Errors
/// [`InjectSetupError`] when the journal's program/args cannot be set up
/// under its configuration.
pub fn replay_journal(journal: &Journal) -> Result<InjectReport, InjectSetupError> {
    let mut cpu = setup_risc(
        &journal.program,
        &journal.args,
        journal.cfg.clone(),
        journal.recovery,
    )?;
    let stepper = Stepper::new(Source::Journal(&journal.events), None);
    Ok(run_steps(&mut cpu, stepper, None)
        .finished()
        .expect("a run without a deadline cannot time out"))
}

/// Shrinks a journal to a 1-minimal subset of its events that still
/// reproduces the same outcome signature, via ddmin-style delta
/// debugging. The returned journal carries a freshly replayed outcome
/// (same signature; instruction/trap counts of the minimized run).
///
/// The target signature is the journal's recorded outcome when present,
/// otherwise the outcome of replaying the journal as-is.
///
/// # Errors
/// [`InjectSetupError`] when the journal cannot be replayed at all.
pub fn minimize_journal(journal: &Journal) -> Result<Journal, InjectSetupError> {
    let target = match &journal.outcome {
        Some(o) => o.signature.clone(),
        None => recorded_outcome(&replay_journal(journal)?).signature,
    };
    let reproduces = |events: &[JournalEvent]| -> Result<bool, InjectSetupError> {
        let mut candidate = journal.clone();
        candidate.events = events.to_vec();
        candidate.outcome = None;
        let report = replay_journal(&candidate)?;
        Ok(outcome_signature(&report.outcome) == target)
    };

    // ddmin over the event list: try ever-finer chunkings, keeping any
    // subset or complement that still reproduces the target signature.
    let mut events = journal.events.clone();
    let mut granularity = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(granularity);
        let chunks: Vec<&[JournalEvent]> = events.chunks(chunk).collect();
        let mut reduced = None;
        // Subsets first (a single chunk alone), then complements (all but
        // one chunk).
        'search: {
            for c in &chunks {
                if reproduces(c)? {
                    reduced = Some((c.to_vec(), 2));
                    break 'search;
                }
            }
            for i in 0..chunks.len() {
                let complement: Vec<JournalEvent> = chunks
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .flat_map(|(_, c)| c.iter().copied())
                    .collect();
                if reproduces(&complement)? {
                    reduced = Some((complement, granularity.saturating_sub(1).max(2)));
                    break 'search;
                }
            }
        }
        match reduced {
            Some((next_events, next_gran)) => {
                events = next_events;
                granularity = next_gran.min(events.len().max(2));
            }
            None => {
                if granularity >= events.len() {
                    break;
                }
                granularity = (granularity * 2).min(events.len());
            }
        }
    }
    // The empty set may suffice (e.g. the failure was never injection's
    // fault to begin with).
    if events.len() == 1 && reproduces(&[])? {
        events.clear();
    }

    let mut minimized = journal.clone();
    minimized.events = events;
    minimized.outcome = None;
    let report = replay_journal(&minimized)?;
    minimized.outcome = Some(recorded_outcome(&report));
    Ok(minimized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::dsl::*;
    use crate::risc::{compile_risc, RiscOpts};
    use risc1_core::InjectKind;

    fn sum_program() -> Program {
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
    fn record_then_replay_is_bit_identical() {
        let prog = sum_program();
        for seed in 0..8u64 {
            let inject = InjectConfig {
                seed,
                rate: 120,
                ..InjectConfig::with_seed(seed)
            };
            let (journal, recorded) =
                record_risc_injected(&prog, &[60], SimConfig::default(), inject, seed % 2 == 0)
                    .unwrap();
            let replayed = replay_journal(&journal).unwrap();
            assert_eq!(
                recorded_outcome(&replayed),
                journal.outcome.clone().unwrap(),
                "seed {seed}"
            );
            assert_eq!(replayed.stats, recorded.stats, "seed {seed}");
            // Journals survive serialization and still replay identically.
            let back = Journal::from_json(&journal.to_json()).unwrap();
            let again = replay_journal(&back).unwrap();
            assert_eq!(again.stats, recorded.stats, "seed {seed} via JSON");
            // So do journals from builds that configured a retirement
            // trace: the flag is read past.
            let legacy = journal
                .to_json()
                .replace("\"engine\":", "\"record_trace\":true,\"engine\":");
            let old = replay_journal(&Journal::from_json(&legacy).unwrap()).unwrap();
            assert_eq!(
                recorded_outcome(&old),
                journal.outcome.clone().unwrap(),
                "seed {seed} with record_trace"
            );
            assert_eq!(old.stats, recorded.stats, "seed {seed} with record_trace");
        }
    }

    #[test]
    fn replay_without_events_equals_clean_run() {
        let prog = sum_program();
        let (clean, stats) = crate::run_risc(&prog, &[25]).unwrap();
        let journal = Journal::new(&prog, &[25], SimConfig::default(), None, false);
        let report = replay_journal(&journal).unwrap();
        assert_eq!(report.outcome, InjectOutcome::Halted { result: clean });
        assert_eq!(report.stats, stats);
    }

    #[test]
    fn minimizer_shrinks_to_the_single_lethal_event() {
        let prog = sum_program();
        // Record a clean-ish campaign, then plant a lethal fuel cut among
        // harmless interrupts: minimization must isolate it.
        let (mut journal, _) = record_risc_injected(
            &prog,
            &[60],
            SimConfig::default(),
            InjectConfig {
                seed: 3,
                rate: 0,
                ..InjectConfig::with_seed(3)
            },
            true,
        )
        .unwrap();
        assert!(journal.events.is_empty());
        journal.events = (0..10)
            .map(|i| JournalEvent {
                step: 4 + i,
                at_instruction: 0,
                kind: InjectKind::SpuriousInterrupt,
            })
            .collect();
        journal.events.push(JournalEvent {
            step: 40,
            at_instruction: 0,
            kind: InjectKind::FuelJitter { new_limit: 50 },
        });
        let report = replay_journal(&journal).unwrap();
        assert!(
            matches!(report.outcome, InjectOutcome::Faulted { .. }),
            "the fuel cut must be lethal"
        );
        journal.outcome = Some(recorded_outcome(&report));

        let minimized = minimize_journal(&journal).unwrap();
        assert_eq!(minimized.events.len(), 1, "{:?}", minimized.events);
        assert!(matches!(
            minimized.events[0].kind,
            InjectKind::FuelJitter { new_limit: 50 }
        ));
        // The minimized journal still reproduces the signature.
        assert_eq!(
            minimized.outcome.as_ref().unwrap().signature,
            journal.outcome.as_ref().unwrap().signature
        );
    }
}
