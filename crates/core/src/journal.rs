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
//! [`Journal::from_json`]) with a hand-rolled writer and parser — the
//! workspace deliberately has no external dependencies.

use crate::config::{BranchModel, ExecEngine, FusionConfig, SimConfig};
use crate::inject::{InjectConfig, InjectKind};
use crate::json::{get, Json, JsonError, Parser, Writer};
use crate::program::Program;
use crate::snapshot::{MAX_SNAPSHOT_MEM_BYTES, MAX_SNAPSHOT_WINDOWS};
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
    /// Program text, one word per instruction.
    pub words: Vec<u32>,
    /// Entry offset into the text, in bytes.
    pub entry_offset: u32,
    /// Initial data images `(addr, bytes)`.
    pub data: Vec<(u32, Vec<u8>)>,
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
            words: prog.words.clone(),
            entry_offset: prog.entry_offset,
            data: prog.data.clone(),
            args: args.to_vec(),
            events: Vec::new(),
            outcome: None,
        }
    }

    /// Reconstructs the recorded program image.
    pub fn program(&self) -> Program {
        Program {
            words: self.words.clone(),
            entry_offset: self.entry_offset,
            data: self.data.clone(),
            symbols: HashMap::new(),
        }
    }

    /// Serializes the journal to JSON.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.obj_open();
        w.key("version");
        w.num(i128::from(self.version));
        w.key("seed");
        w.num(i128::from(self.seed));
        w.key("rate");
        w.num(i128::from(self.rate));
        w.key("recovery");
        w.bool(self.recovery);
        w.key("config");
        write_config(&mut w, &self.cfg);
        w.key("program");
        self.program().write_json(&mut w);
        w.key("args");
        w.arr_open();
        for &a in &self.args {
            w.num(i128::from(a));
        }
        w.arr_close();
        w.key("events");
        w.arr_open();
        for ev in &self.events {
            write_event(&mut w, ev);
        }
        w.arr_close();
        w.key("outcome");
        match &self.outcome {
            None => w.null(),
            Some(o) => {
                w.obj_open();
                w.key("signature");
                w.str(&o.signature);
                w.key("instructions");
                w.num(i128::from(o.instructions));
                w.key("trap_counts");
                w.arr_open();
                for &c in &o.trap_counts {
                    w.num(i128::from(c));
                }
                w.arr_close();
                w.obj_close();
            }
        }
        w.obj_close();
        w.finish()
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
        let version = get(obj, "version")?.as_u32("version")?;
        if version != JOURNAL_VERSION {
            return Err(JournalError::Version { found: version });
        }
        let Program {
            words,
            entry_offset,
            data,
            ..
        } = Program::from_json_value(get(obj, "program")?)?;
        let mut events: Vec<JournalEvent> = Vec::new();
        for (i, item) in get(obj, "events")?.as_arr("events")?.iter().enumerate() {
            let ev = read_event(item.as_obj("event")?)?;
            if let Some(prev) = events.last().filter(|prev| ev.step < prev.step) {
                return Err(JournalError::Schema(format!(
                    "events[{i}]: step {} goes back before step {} of the event ahead of it",
                    ev.step, prev.step
                )));
            }
            events.push(ev);
        }
        let outcome = match get(obj, "outcome")? {
            Json::Null => None,
            v => {
                let o = v.as_obj("outcome")?;
                let counts = get(o, "trap_counts")?.as_arr("trap_counts")?;
                if counts.len() != TrapKind::COUNT {
                    return Err(JournalError::schema("trap_counts must have 6 entries"));
                }
                let mut trap_counts = [0u64; TrapKind::COUNT];
                for (slot, v) in trap_counts.iter_mut().zip(counts) {
                    *slot = v.as_u64("trap count")?;
                }
                Some(RecordedOutcome {
                    signature: get(o, "signature")?.as_str("signature")?.to_owned(),
                    instructions: get(o, "instructions")?.as_u64("instructions")?,
                    trap_counts,
                })
            }
        };
        Ok(Journal {
            version,
            seed: get(obj, "seed")?.as_u64("seed")?,
            rate: get(obj, "rate")?.as_u32("rate")?,
            recovery: get(obj, "recovery")?.as_bool("recovery")?,
            cfg: read_config(get(obj, "config")?.as_obj("config")?)?,
            words,
            entry_offset,
            data,
            args: get(obj, "args")?
                .as_arr("args")?
                .iter()
                .map(|v| v.as_i32("arg"))
                .collect::<Result<_, _>>()?,
            events,
            outcome,
        })
    }
}

/// Writes a [`SimConfig`] as a JSON object (shared by journals and the
/// serve wire format).
pub fn write_config(w: &mut Writer, cfg: &SimConfig) {
    w.obj_open();
    w.key("windows");
    w.num(cfg.windows as i128);
    w.key("mem_bytes");
    w.num(cfg.mem_bytes as i128);
    w.key("code_base");
    w.num(i128::from(cfg.code_base));
    w.key("stack_top");
    w.num(i128::from(cfg.stack_top));
    w.key("window_stack_top");
    w.num(i128::from(cfg.window_stack_top));
    w.key("trap_overhead_cycles");
    w.num(i128::from(cfg.trap_overhead_cycles));
    w.key("branch_model");
    w.str(match cfg.branch_model {
        BranchModel::Delayed => "delayed",
        BranchModel::Suspended => "suspended",
    });
    w.key("forwarding");
    w.bool(cfg.forwarding);
    w.key("fuel");
    w.num(i128::from(cfg.fuel));
    w.key("trap_base");
    match cfg.trap_base {
        None => w.null(),
        Some(b) => w.num(i128::from(b)),
    }
    w.key("engine");
    w.str(cfg.engine.name());
    w.key("fusion");
    w.obj_open();
    w.key("cmp_branch");
    w.bool(cfg.fusion.cmp_branch);
    w.key("ldhi_imm");
    w.bool(cfg.fusion.ldhi_imm);
    w.key("transfer_slot");
    w.bool(cfg.fusion.transfer_slot);
    w.key("addr_feed");
    w.bool(cfg.fusion.addr_feed);
    w.key("alu_pair");
    w.bool(cfg.fusion.alu_pair);
    w.obj_close();
    w.obj_close();
}

/// Reads a [`SimConfig`] written by [`write_config`] (tolerating the
/// documented legacy field spellings, and ignoring the `record_trace` flag
/// older builds wrote).
///
/// Every configuration that enters from outside — a wire submit, a WAL
/// record, a journal, a snapshot — comes through here, so this is where
/// the sizes a machine is built from are held to their admission limits:
/// 2 to [`MAX_SNAPSHOT_WINDOWS`] windows and at most
/// [`MAX_SNAPSHOT_MEM_BYTES`] of memory.
///
/// # Errors
/// [`JsonError`] on a malformed or unknown field, or a size outside its
/// admission limit.
pub fn read_config(obj: &[(String, Json)]) -> Result<SimConfig, JsonError> {
    let windows = get(obj, "windows")?.as_usize("windows")?;
    if !(2..=MAX_SNAPSHOT_WINDOWS).contains(&windows) {
        return Err(JsonError::schema(&format!(
            "windows {windows} outside 2..={MAX_SNAPSHOT_WINDOWS}"
        )));
    }
    let mem_bytes = get(obj, "mem_bytes")?.as_usize("mem_bytes")?;
    if mem_bytes > MAX_SNAPSHOT_MEM_BYTES {
        return Err(JsonError::schema(&format!(
            "mem_bytes {mem_bytes} exceeds the {MAX_SNAPSHOT_MEM_BYTES}-byte admission limit"
        )));
    }
    Ok(SimConfig {
        windows,
        mem_bytes,
        code_base: get(obj, "code_base")?.as_u32("code_base")?,
        stack_top: get(obj, "stack_top")?.as_u32("stack_top")?,
        window_stack_top: get(obj, "window_stack_top")?.as_u32("window_stack_top")?,
        trap_overhead_cycles: get(obj, "trap_overhead_cycles")?.as_u64("trap_overhead_cycles")?,
        branch_model: match get(obj, "branch_model")?.as_str("branch_model")? {
            "delayed" => BranchModel::Delayed,
            "suspended" => BranchModel::Suspended,
            other => {
                return Err(JsonError::schema(&format!(
                    "unknown branch_model {other:?}"
                )))
            }
        },
        forwarding: get(obj, "forwarding")?.as_bool("forwarding")?,
        fuel: get(obj, "fuel")?.as_u64("fuel")?,
        trap_base: match get(obj, "trap_base")? {
            Json::Null => None,
            v => Some(v.as_u32("trap_base")?),
        },
        engine: read_engine(obj)?,
        fusion: match get(obj, "fusion") {
            Ok(v) => {
                let f = v.as_obj("fusion")?;
                FusionConfig {
                    cmp_branch: get(f, "cmp_branch")?.as_bool("cmp_branch")?,
                    ldhi_imm: get(f, "ldhi_imm")?.as_bool("ldhi_imm")?,
                    transfer_slot: get(f, "transfer_slot")?.as_bool("transfer_slot")?,
                    addr_feed: get(f, "addr_feed")?.as_bool("addr_feed")?,
                    // Absent in journals written before this kind existed;
                    // the default reproduces their behaviour (fusion never
                    // changes architectural state).
                    alu_pair: match get(f, "alu_pair") {
                        Ok(v) => v.as_bool("alu_pair")?,
                        Err(_) => true,
                    },
                }
            }
            // Journals written before the superblock engine carry no
            // fusion block; the defaults reproduce their behaviour.
            Err(_) => FusionConfig::default(),
        },
    })
}

/// Reads the execution-engine field, accepting the legacy `"predecode"`
/// boolean of pre-superblock journals (`true` → cached, `false` →
/// uncached) so old recordings stay replayable.
fn read_engine(obj: &[(String, Json)]) -> Result<ExecEngine, JsonError> {
    if let Ok(v) = get(obj, "engine") {
        let name = v.as_str("engine")?;
        return ExecEngine::from_name(name)
            .ok_or_else(|| JsonError::schema(&format!("unknown engine {name:?}")));
    }
    match get(obj, "predecode")?.as_bool("predecode")? {
        true => Ok(ExecEngine::Cached),
        false => Ok(ExecEngine::Uncached),
    }
}

/// Writes one [`JournalEvent`] as a JSON object.
pub fn write_event(w: &mut Writer, ev: &JournalEvent) {
    w.obj_open();
    w.key("step");
    w.num(i128::from(ev.step));
    w.key("at_instruction");
    w.num(i128::from(ev.at_instruction));
    w.key("kind");
    match ev.kind {
        InjectKind::BitFlip { addr, bit } => {
            w.str("bit-flip");
            w.key("addr");
            w.num(i128::from(addr));
            w.key("bit");
            w.num(i128::from(bit));
        }
        InjectKind::SpuriousInterrupt => w.str("spurious-interrupt"),
        InjectKind::DecodeProbe => w.str("decode-probe"),
        InjectKind::MisalignProbe => w.str("misalign-probe"),
        InjectKind::FuelJitter { new_limit } => {
            w.str("fuel-jitter");
            w.key("new_limit");
            w.num(i128::from(new_limit));
        }
        InjectKind::WstackCorruption { addr, bit } => {
            w.str("wstack-corruption");
            w.key("addr");
            w.num(i128::from(addr));
            w.key("bit");
            w.num(i128::from(bit));
        }
    }
    w.obj_close();
}

/// Reads one [`JournalEvent`] written by [`write_event`].
///
/// # Errors
/// [`JsonError`] on a malformed or unknown event.
pub fn read_event(obj: &[(String, Json)]) -> Result<JournalEvent, JsonError> {
    let kind = match get(obj, "kind")?.as_str("kind")? {
        "bit-flip" => InjectKind::BitFlip {
            addr: get(obj, "addr")?.as_u32("addr")?,
            bit: get(obj, "bit")?.as_u8("bit")?,
        },
        "spurious-interrupt" => InjectKind::SpuriousInterrupt,
        "decode-probe" => InjectKind::DecodeProbe,
        "misalign-probe" => InjectKind::MisalignProbe,
        "fuel-jitter" => InjectKind::FuelJitter {
            new_limit: get(obj, "new_limit")?.as_u64("new_limit")?,
        },
        "wstack-corruption" => InjectKind::WstackCorruption {
            addr: get(obj, "addr")?.as_u32("addr")?,
            bit: get(obj, "bit")?.as_u8("bit")?,
        },
        other => return Err(JsonError::schema(&format!("unknown event kind {other:?}"))),
    };
    Ok(JournalEvent {
        step: get(obj, "step")?.as_u64("step")?,
        at_instruction: get(obj, "at_instruction")?.as_u64("at_instruction")?,
        kind,
    })
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

impl JournalError {
    fn schema(msg: &str) -> JournalError {
        JournalError::Schema(msg.to_owned())
    }
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
            words: vec![0xdead_beef, 0x0000_0001, u32::MAX],
            entry_offset: 8,
            data: vec![(0x2000, vec![1, 2, 255]), (0x3000, vec![])],
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
        for (from, to, ok) in [
            (windows, "\"windows\":1", false),
            (windows, "\"windows\":2", true),
            (windows, "\"windows\":1024", true),
            (windows, "\"windows\":1025", false),
            (windows, "\"windows\":1099511627776", false),
            (mem, "\"mem_bytes\":67108864", true),
            (mem, "\"mem_bytes\":67108865", false),
            (mem, "\"mem_bytes\":1152921504606846976", false),
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

    #[test]
    fn program_reconstruction_matches() {
        let j = sample_journal();
        let p = j.program();
        assert_eq!(p.words, j.words);
        assert_eq!(p.entry_offset, j.entry_offset);
        assert_eq!(p.data, j.data);
        assert!(p.symbols.is_empty());
    }
}
