//! Record–replay journals: every nondeterministic input of a run, in a
//! self-contained, serializable form.
//!
//! The simulator itself is deterministic; the only nondeterminism comes
//! from the *outside* — the fault injector's perturbations (bit flips,
//! spurious interrupts, probes, fuel jitter). A [`Journal`] captures a
//! complete campaign: the program image, its arguments, the configuration,
//! and every applied perturbation keyed by **step index** (the count of
//! machine steps since reset — one per die the injector rolls — *not* the
//! retired-instruction count: trap and interrupt delivery steps do not
//! retire an instruction, so several events can share one instruction
//! index but never one step index). Re-applying the events at the
//! recorded steps reproduces the run bit for bit.
//!
//! Journals serialize to plain JSON ([`Journal::to_json`] /
//! [`Journal::from_json`]); the journal, its events and its outcome are
//! declared records (see [`crate::json`]).

use crate::config::SimConfig;
use crate::inject::{InjectConfig, InjectKind};
use crate::json::{num, obj, Field, Flag, JsonError, List, Nullable, Parser, Record, Text};
use crate::program::Program;
use crate::trap::TrapKind;
use std::collections::HashMap;
use std::fmt;

/// Journal format version; bumped whenever the JSON shape changes.
pub const JOURNAL_VERSION: u32 = 1;

/// One recorded perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// Step index (count of machine steps since reset) before which the
    /// event was applied. This is the replay key.
    pub step: u64,
    /// Instructions retired at that point — diagnostic only; several
    /// events can share an instruction index.
    pub at_instruction: u64,
    /// What was applied.
    pub kind: InjectKind,
}

impl fmt::Display for JournalEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {:<10} (insn {:<10}) {}",
            self.step, self.at_instruction, self.kind
        )
    }
}

/// The outcome the recorded run ended with, for replay comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedOutcome {
    /// Stable textual signature: `halt <result>` or the fault's Display
    /// string.
    pub signature: String,
    /// Instructions retired in total.
    pub instructions: u64,
    /// Per-cause trap counts, indexed by [`TrapKind::index`].
    pub trap_counts: [u64; TrapKind::COUNT],
}

/// A complete, self-contained record of one injected run.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Format version ([`JOURNAL_VERSION`] when produced by this build).
    pub version: u32,
    /// Seed of the campaign that produced the events (provenance only —
    /// replay applies the recorded events, it does not re-roll).
    pub seed: u64,
    /// Injection rate of the recording campaign (provenance only).
    pub rate: u32,
    /// Whether recovery handlers were installed for the recorded run.
    pub recovery: bool,
    /// Simulator configuration of the recorded run.
    pub cfg: SimConfig,
    /// The recorded program image (its symbol table empty).
    pub program: Program,
    /// Arguments passed to the program.
    pub args: Vec<i32>,
    /// The perturbations, in step order ([`Journal::from_json`] rejects a
    /// step that goes backwards).
    pub events: Vec<JournalEvent>,
    /// The outcome the recording ended with, if the recorder stored one.
    pub outcome: Option<RecordedOutcome>,
}

impl Journal {
    /// The journal of a run of `prog` on `args` under `cfg`, injected from
    /// `inject` (`None`: a clean run) with recovery stubs when `recovery`
    /// is set — as yet without events or outcome.
    pub fn new(
        prog: &Program,
        args: &[i32],
        cfg: SimConfig,
        inject: Option<InjectConfig>,
        recovery: bool,
    ) -> Journal {
        Journal {
            version: JOURNAL_VERSION,
            seed: inject.map_or(0, |i| i.seed),
            rate: inject.map_or(0, |i| i.rate),
            recovery,
            cfg,
            program: Program {
                symbols: HashMap::new(),
                ..prog.clone()
            },
            args: args.to_vec(),
            events: Vec::new(),
            outcome: None,
        }
    }

    /// Serializes the journal to JSON.
    pub fn to_json(&self) -> String {
        crate::json::to_json(self)
    }

    /// Parses a journal from JSON.
    ///
    /// # Errors
    /// [`JournalError`] on malformed JSON, a schema mismatch (an event
    /// whose step goes backwards included), or an unsupported format
    /// version.
    pub fn from_json(text: &str) -> Result<Journal, JournalError> {
        let root = Parser::new(text).parse_document()?;
        let obj = root.as_obj("journal")?;
        // The version decides the schema, so it is read first.
        let version = VERSION.read(obj, "version")?;
        if version != JOURNAL_VERSION {
            return Err(JournalError::Version { found: version });
        }
        let journal = Journal::read_fields(obj, &())?;
        for (i, pair) in journal.events.windows(2).enumerate() {
            if pair[1].step < pair[0].step {
                return Err(JournalError::Schema(format!(
                    "events[{}]: step {} goes back before step {} of the event ahead of it",
                    i + 1,
                    pair[1].step,
                    pair[0].step
                )));
            }
        }
        Ok(journal)
    }
}

/// The format version's field.
const VERSION: crate::json::Num<u32> = num(0..=u32::MAX);

crate::record! {
    Journal {
        "version" => version: VERSION,
        "seed" => seed: num(0..=u64::MAX),
        "rate" => rate: num(0..=u32::MAX),
        "recovery" => recovery: Flag,
        "config" => cfg: obj(),
        "program" => program: obj(),
        "args" => args: List(num(i32::MIN..=i32::MAX)),
        "events" => events: List(obj()),
        "outcome" => outcome: Nullable(obj()),
    }
}

crate::record! {
    JournalEvent {
        "step" => step: num(0..=u64::MAX),
        "at_instruction" => at_instruction: num(0..=u64::MAX),
        "kind" => kind: InjectKindField,
    }
}

crate::tagged! {
    /// An event's perturbation: its kind's name under the event's `kind`
    /// key, its operands beside it.
    InjectKindField: InjectKind {
        "bit-flip" => BitFlip {
            "addr" => addr: num(0..=u32::MAX),
            "bit" => bit: num(0..=u8::MAX),
        },
        "spurious-interrupt" => SpuriousInterrupt {},
        "decode-probe" => DecodeProbe {},
        "misalign-probe" => MisalignProbe {},
        "fuel-jitter" => FuelJitter {
            "new_limit" => new_limit: num(0..=u64::MAX),
        },
        "wstack-corruption" => WstackCorruption {
            "addr" => addr: num(0..=u32::MAX),
            "bit" => bit: num(0..=u8::MAX),
        },
    }
}

crate::record! {
    RecordedOutcome {
        "signature" => signature: Text,
        "instructions" => instructions: num(0..=u64::MAX),
        "trap_counts" => trap_counts: List(num(0..=u64::MAX)),
    }
}

/// Why a journal could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The text is not well-formed JSON.
    Parse {
        /// Byte offset of the problem.
        pos: usize,
        /// What was expected.
        msg: String,
    },
    /// The JSON is well-formed but does not match the journal schema.
    Schema(String),
    /// The journal was written by an unsupported format version.
    Version {
        /// Version found in the file.
        found: u32,
    },
}

impl From<JsonError> for JournalError {
    fn from(e: JsonError) -> JournalError {
        match e {
            JsonError::Parse { pos, msg } => JournalError::Parse { pos, msg },
            JsonError::Schema(m) => JournalError::Schema(m),
        }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Parse { pos, msg } => write!(f, "invalid JSON at byte {pos}: {msg}"),
            JournalError::Schema(msg) => write!(f, "journal schema error: {msg}"),
            JournalError::Version { found } => write!(
                f,
                "journal version {found} (this build reads {JOURNAL_VERSION})"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecEngine;

    fn sample_journal() -> Journal {
        Journal {
            version: JOURNAL_VERSION,
            seed: u64::MAX - 3, // exercises the full u64 range in JSON
            rate: 150,
            recovery: true,
            cfg: SimConfig {
                trap_base: Some(0x40),
                ..SimConfig::default()
            },
            program: Program {
                words: vec![0xdead_beef, 0x0000_0001, u32::MAX],
                entry_offset: 8,
                data: vec![(0x2000, vec![1, 2, 255]), (0x3000, vec![])],
                symbols: HashMap::new(),
            },
            args: vec![-7, 0, 1 << 30],
            events: vec![
                JournalEvent {
                    step: 3,
                    at_instruction: 3,
                    kind: InjectKind::BitFlip {
                        addr: 0x1234,
                        bit: 7,
                    },
                },
                JournalEvent {
                    step: 4,
                    at_instruction: 3,
                    kind: InjectKind::SpuriousInterrupt,
                },
                JournalEvent {
                    step: 90,
                    at_instruction: 81,
                    kind: InjectKind::FuelJitter {
                        new_limit: u64::MAX / 2,
                    },
                },
                JournalEvent {
                    step: 91,
                    at_instruction: 81,
                    kind: InjectKind::DecodeProbe,
                },
                JournalEvent {
                    step: 92,
                    at_instruction: 82,
                    kind: InjectKind::MisalignProbe,
                },
                JournalEvent {
                    step: 100,
                    at_instruction: 88,
                    kind: InjectKind::WstackCorruption {
                        addr: 0xe0004,
                        bit: 0,
                    },
                },
            ],
            outcome: Some(RecordedOutcome {
                signature: "double fault: \"quoted\"\nnext".to_owned(),
                instructions: 12345,
                trap_counts: [1, 0, 2, 0, 0, 3],
            }),
        }
    }

    #[test]
    fn journal_round_trips_through_json() {
        let j = sample_journal();
        let text = j.to_json();
        let back = Journal::from_json(&text).unwrap();
        assert_eq!(back, j);

        // No outcome round-trips as JSON null.
        let mut j2 = j;
        j2.outcome = None;
        assert_eq!(Journal::from_json(&j2.to_json()).unwrap(), j2);
    }

    #[test]
    fn parser_accepts_whitespace_and_rejects_garbage() {
        // Use a journal whose strings contain no ':' or ',' so the
        // whitespace-injecting replace below cannot corrupt them.
        let mut j = sample_journal();
        j.outcome.as_mut().unwrap().signature = "halt 42".to_owned();
        // Re-serialize with gratuitous whitespace: still parses.
        let spaced = j.to_json().replace(',', " ,\n  ").replace(':', " : ");
        assert_eq!(Journal::from_json(&spaced).unwrap(), j);

        for bad in [
            "",
            "{",
            "{\"version\":}",
            "{\"version\":1} trailing",
            "[1,2,",
            "{\"a\" 1}",
            "\"unterminated",
            "{\"version\":99999999999999999999999999999999999999999}",
        ] {
            assert!(
                matches!(Journal::from_json(bad), Err(JournalError::Parse { .. })),
                "{bad:?} should be a parse error"
            );
        }
    }

    #[test]
    fn schema_and_version_errors_are_distinguished() {
        assert!(matches!(
            Journal::from_json("{\"no_version\":true}"),
            Err(JournalError::Schema(_))
        ));
        assert!(matches!(
            Journal::from_json("{\"version\":2}"),
            Err(JournalError::Version { found: 2 })
        ));
        assert!(matches!(
            Journal::from_json("[1,2,3]"),
            Err(JournalError::Schema(_))
        ));
        // A configuration outside the admission limits is a schema error,
        // before anything is sized by it; the limits themselves are in.
        let text = sample_journal().to_json();
        let windows = "\"windows\":8";
        let mem = "\"mem_bytes\":1048576";
        let trap = "\"trap_overhead_cycles\":8";
        for (from, to, ok) in [
            (windows, "\"windows\":1", false),
            (windows, "\"windows\":2", true),
            (windows, "\"windows\":1024", true),
            (windows, "\"windows\":1025", false),
            (windows, "\"windows\":1099511627776", false),
            (mem, "\"mem_bytes\":67108864", true),
            (mem, "\"mem_bytes\":67108865", false),
            (mem, "\"mem_bytes\":1152921504606846976", false),
            (trap, "\"trap_overhead_cycles\":65536", true),
            (trap, "\"trap_overhead_cycles\":65537", false),
            (trap, "\"trap_overhead_cycles\":18446744073709551607", false),
        ] {
            let edited = text.replace(from, to);
            assert_ne!(edited, text, "{from} is in the sample");
            match Journal::from_json(&edited) {
                Ok(_) => assert!(ok, "{to} must be refused"),
                Err(JournalError::Schema(msg)) => assert!(!ok, "{to}: {msg}"),
                Err(e) => panic!("{to}: expected a schema error, got {e:?}"),
            }
        }
    }

    /// Configurations in the spellings older builds wrote still read: the
    /// `predecode` flag that named the engine before the superblock tier,
    /// no `fusion` block, a `fusion` block without `alu_pair`, and the
    /// `record_trace` flag, which is ignored (the retirement recorder is
    /// armed on a `Cpu`, not configured).
    #[test]
    fn legacy_config_spellings_still_read() {
        let j = sample_journal();
        let text = j.to_json();
        let fusion = ",\"fusion\":{\"cmp_branch\":true,\"ldhi_imm\":true,\
                      \"transfer_slot\":true,\"addr_feed\":true,\"alu_pair\":true}";
        for (from, to, engine) in [
            (
                "\"engine\":\"trace\"",
                "\"predecode\":true",
                ExecEngine::Cached,
            ),
            (
                "\"engine\":\"trace\"",
                "\"predecode\":false",
                ExecEngine::Uncached,
            ),
            (fusion, "", ExecEngine::Trace),
            (",\"alu_pair\":true", "", ExecEngine::Trace),
            (
                "\"engine\"",
                "\"record_trace\":true,\"engine\"",
                ExecEngine::Trace,
            ),
            (
                "\"engine\"",
                "\"record_trace\":false,\"engine\"",
                ExecEngine::Trace,
            ),
        ] {
            let legacy = text.replace(from, to);
            assert_ne!(legacy, text, "{from} is in the sample");
            let back = Journal::from_json(&legacy).unwrap_or_else(|e| panic!("{to}: {e}"));
            let want = Journal {
                cfg: SimConfig {
                    engine,
                    ..j.cfg.clone()
                },
                ..j.clone()
            };
            assert_eq!(back, want, "{to}");
        }
    }
}
