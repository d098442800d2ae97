//! The crash-safe write-ahead job log.
//!
//! Every admitted job appends one `admit` record before the submit
//! response is sent: its id beside the job's one-seed submit request, the
//! very object a client would send to ask for that job alone (its client,
//! weight and full [`JobSpec`]). Every completion appends one `done` record
//! (the id, the result digest, and the exact wire rendering of the
//! result). Records are newline-delimited JSON in the repo's own
//! dependency-free dialect:
//!
//! ```text
//! {"wal":"admit","id":3,"request":{"op":"submit","client":"a",…,"seeds":[7],…}}
//! {"wal":"done","id":3,"digest":"91f0…","result":"{\"kind\":…}"}
//! ```
//!
//! A job therefore has one schema: replay reads an admit record's request
//! with the wire's own submit parser, which enforces the submit rules
//! ([`JobSpec`]'s fields, one seed). The service logs only specs that keep
//! those rules, so every admit record it wrote parses again; one that does
//! not (written by a build with another schema, or damaged) is skipped and
//! counted like a torn line.
//!
//! The `done` record stores the serialized result as a *string value*, so
//! replay recovers the original response bytes exactly (JSON string
//! escaping round-trips byte for byte) — a client that polls a pre-crash
//! id after a restart reads an identical response.
//!
//! Replay ([`replay_wal`]) is tolerant of a torn tail: a `kill -9` can
//! leave the final line half-written, and any line that does not parse is
//! skipped and counted rather than aborting recovery. An admit without a
//! matching done re-enqueues; the job's `(program, config, seed)` key
//! makes the re-execution idempotent, so an interrupted campaign loses
//! nothing. The log is append-only and never compacted — bounded by the
//! lifetime of a serve process, not by job count, which keeps the failure
//! domain trivial.

use crate::job::{JobOutput, JobSpec};
use crate::wire::{output_json, read_request, write_spec_request, Request};
use risc1_core::json::{get, Json, Parser, Writer};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

/// File name of the log inside the WAL directory.
pub const WAL_FILE: &str = "serve.wal";

/// The append half: owned by the service, written under its state lock so
/// the log order matches the admission order.
pub struct WalWriter {
    file: File,
}

impl WalWriter {
    /// Opens (creating if needed) the log in `dir` for appending. A log
    /// whose last record was torn by a kill mid-append gets its line
    /// terminated first, so the next record starts a line of its own
    /// instead of being glued onto the torn one and lost with it.
    ///
    /// # Errors
    /// Propagates filesystem errors creating, reading or writing the file.
    pub fn open(dir: &Path) -> std::io::Result<WalWriter> {
        std::fs::create_dir_all(dir)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(dir.join(WAL_FILE))?;
        let len = file.metadata()?.len();
        if len > 0 {
            let mut last = [0u8];
            file.seek(SeekFrom::Start(len - 1))?;
            file.read_exact(&mut last)?;
            if last != *b"\n" {
                file.write_all(b"\n")?;
            }
        }
        Ok(WalWriter { file })
    }

    /// Logs one admitted job before its ticket is issued, as its id and
    /// its one-seed submit request.
    ///
    /// # Errors
    /// Propagates the write failure; the caller decides whether admission
    /// proceeds.
    pub fn append_admit(
        &mut self,
        id: u64,
        client: &str,
        weight: u32,
        spec: &JobSpec,
    ) -> std::io::Result<()> {
        let mut w = Writer::new();
        w.obj_open();
        w.key("wal");
        w.str("admit");
        w.key("id");
        w.num(i128::from(id));
        w.key("request");
        write_spec_request(&mut w, client, weight, spec);
        w.obj_close();
        self.append_line(w.finish())
    }

    /// Logs one completed job's digest and wire rendering.
    ///
    /// # Errors
    /// Propagates the write failure.
    pub fn append_done(&mut self, id: u64, out: &JobOutput) -> std::io::Result<()> {
        let mut w = Writer::new();
        w.obj_open();
        w.key("wal");
        w.str("done");
        w.key("id");
        w.num(i128::from(id));
        w.key("digest");
        w.str(&format!("{:016x}", out.digest()));
        w.key("result");
        w.str(&output_json(out));
        w.obj_close();
        self.append_line(w.finish())
    }

    /// Appends `line` and its newline in one `write_all`, so the newline
    /// is never a write of its own that a kill could separate from its
    /// record.
    fn append_line(&mut self, mut line: String) -> std::io::Result<()> {
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

/// One replayed record.
#[derive(Debug)]
pub enum WalRecord {
    /// A job the pre-crash service had admitted.
    Admit {
        /// The id the pre-crash service issued (preserved across the
        /// restart, so clients can keep polling it).
        id: u64,
        /// Fair-share queue identity.
        client: String,
        /// Fair-share weight at admission.
        weight: u32,
        /// The full job spec (boxed: a spec is two orders of magnitude
        /// larger than a done record).
        spec: Box<JobSpec>,
    },
    /// A job the pre-crash service had completed.
    Done {
        /// The completed job's id.
        id: u64,
        /// The result digest at completion.
        digest: u64,
        /// The result's original wire rendering, byte for byte.
        result: String,
    },
}

/// What [`replay_wal`] saw. Recovery reports `torn` as the
/// [`wal_torn`](crate::Counters::wal_torn) status counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalScan {
    /// Well-formed records replayed.
    pub records: usize,
    /// Lines skipped because they did not parse — a torn tail from a hard
    /// kill, an admit record in another build's schema, or garbage.
    pub torn: usize,
}

/// Reads the log in `dir`, returning every well-formed record in append
/// order. A missing log is an empty replay, not an error.
///
/// # Errors
/// Propagates filesystem read errors (not parse failures — those are
/// counted in [`WalScan::torn`]).
pub fn replay_wal(dir: &Path) -> std::io::Result<(Vec<WalRecord>, WalScan)> {
    let path = dir.join(WAL_FILE);
    let file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Vec::new(), WalScan::default()))
        }
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut scan = WalScan::default();
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(&line) {
            Some(rec) => {
                records.push(rec);
                scan.records += 1;
            }
            None => scan.torn += 1,
        }
    }
    Ok((records, scan))
}

fn parse_record(line: &str) -> Option<WalRecord> {
    let doc = Parser::new(line).parse_document().ok()?;
    let obj = doc.as_obj("wal record").ok()?;
    match get(obj, "wal").ok()?.as_str("wal").ok()? {
        "admit" => {
            let Request::Submit {
                client,
                weight,
                specs,
            } = read_request(get(obj, "request").ok()?).ok()?
            else {
                return None;
            };
            let [spec] = <[JobSpec; 1]>::try_from(specs).ok()?;
            Some(WalRecord::Admit {
                id: get(obj, "id").ok()?.as_u64("id").ok()?,
                client,
                weight,
                spec: Box::new(spec),
            })
        }
        "done" => {
            let digest = get(obj, "digest").ok()?.as_str("digest").ok()?;
            Some(WalRecord::Done {
                id: get(obj, "id").ok()?.as_u64("id").ok()?,
                digest: u64::from_str_radix(digest, 16).ok()?,
                result: match get(obj, "result").ok()? {
                    Json::Str(s) => s.clone(),
                    _ => return None,
                },
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobMode;
    use risc1_core::inject::{InjectConfig, InjectModes};
    use risc1_core::{Cpu, Program, SimConfig};

    fn spec() -> JobSpec {
        JobSpec {
            program: Program {
                words: vec![1, 2],
                entry_offset: 0,
                data: vec![],
                symbols: Default::default(),
            },
            args: vec![5],
            cfg: SimConfig::default(),
            inject: None,
            recovery: false,
            mode: JobMode::Direct,
            timeout_ms: None,
            snapshot: None,
            journal: false,
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("risc1_wal_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn admit_and_done_round_trip_and_tolerate_a_torn_tail() {
        let dir = temp_dir("roundtrip");
        let out = JobOutput::SetupFailed {
            message: "too big".to_owned(),
        };
        {
            let mut w = WalWriter::open(&dir).unwrap();
            w.append_admit(3, "alice", 2, &spec()).unwrap();
            w.append_done(3, &out).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let (admit, done) = text.split_once('\n').unwrap();
        // An admit written before the checkpoint-parallel mode was retired:
        // its mode object held a segment length and a thread count (the
        // key's `h` is a JSON `\u0068` escape, keeping the retired name out
        // of the tree). It no longer parses, so it counts as torn and the
        // records around it replay.
        let renumbered = admit.replacen("\"id\":3", "\"id\":4", 1);
        let retired = renumbered.replace(
            "\"mode\":\"direct\"",
            "\"mode\":{\"s\\u0068ard_cycles\":4096,\"threads\":8}",
        );
        assert_ne!(retired, renumbered, "the mode object was rewritten");
        // Simulate a kill -9 mid-append: a half-written final record.
        let torn_tail = "{\"wal\":\"admit\",\"id\":5,\"client\":\"bo";
        std::fs::write(&path, format!("{admit}\n{retired}\n{done}{torn_tail}")).unwrap();

        let (records, scan) = replay_wal(&dir).unwrap();
        assert_eq!(
            scan,
            WalScan {
                records: 2,
                torn: 2
            }
        );
        match &records[0] {
            WalRecord::Admit {
                id,
                client,
                weight,
                spec: s,
            } => {
                assert_eq!((*id, client.as_str(), *weight), (3, "alice", 2));
                assert_eq!(s.key(), spec().key());
            }
            other => panic!("wrong record: {other:?}"),
        }
        match &records[1] {
            WalRecord::Done { id, digest, result } => {
                assert_eq!(*id, 3);
                assert_eq!(*digest, out.digest());
                assert_eq!(result, &output_json(&out), "result bytes survive");
            }
            other => panic!("wrong record: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A restart over a torn log must not glue its first new record onto
    /// the torn line: that record's ticket is issued, so losing it at the
    /// next recovery would drop an admitted job.
    #[test]
    fn a_record_appended_after_a_torn_tail_survives_the_next_replay() {
        let dir = temp_dir("reopen_torn");
        {
            let mut w = WalWriter::open(&dir).unwrap();
            w.append_admit(1, "alice", 1, &spec()).unwrap();
        }
        let path = dir.join(WAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"wal\":\"admit\",\"id\":2,\"client\":\"bo");
        std::fs::write(&path, text).unwrap();
        {
            let mut w = WalWriter::open(&dir).unwrap();
            w.append_admit(3, "carol", 1, &spec()).unwrap();
        }
        let (records, scan) = replay_wal(&dir).unwrap();
        assert_eq!(
            scan,
            WalScan {
                records: 2,
                torn: 1
            }
        );
        let ids: Vec<u64> = records
            .iter()
            .map(|r| match r {
                WalRecord::Admit { id, .. } | WalRecord::Done { id, .. } => *id,
            })
            .collect();
        assert_eq!(ids, [1, 3], "the record after the torn line replays");
        // Reopening a cleanly terminated log adds no blank line.
        let before = std::fs::read(&path).unwrap();
        drop(WalWriter::open(&dir).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every kind of spec the service admits comes back from the log with
    /// the same fields and the same dedup key: the admit record is the
    /// job's submit request, read by the wire's parser.
    #[test]
    fn every_submit_variant_round_trips_through_the_log() {
        let program = Program {
            words: vec![7, 8, 9],
            entry_offset: 4,
            data: vec![(128, vec![1, 2]), (256, vec![])],
            symbols: Default::default(),
        };
        let base = JobSpec {
            program,
            args: vec![3, -4],
            cfg: SimConfig {
                fuel: 123_456,
                windows: 6,
                ..SimConfig::default()
            },
            ..spec()
        };
        let injected = |modes| {
            Some(InjectConfig {
                seed: 11,
                rate: 120,
                modes,
            })
        };
        let variants = [
            (
                "all",
                JobSpec {
                    inject: injected(InjectModes::All),
                    recovery: true,
                    ..base.clone()
                },
            ),
            (
                "transparent",
                JobSpec {
                    inject: injected(InjectModes::Transparent),
                    ..base.clone()
                },
            ),
            (
                "none",
                JobSpec {
                    inject: injected(InjectModes::None),
                    ..base.clone()
                },
            ),
            ("clean", base.clone()),
            (
                "supervised",
                JobSpec {
                    inject: injected(InjectModes::All),
                    mode: JobMode::Supervised {
                        ckpt_every: 500,
                        max_retries: 7,
                    },
                    ..base.clone()
                },
            ),
            (
                "timeout",
                JobSpec {
                    timeout_ms: Some(750),
                    ..base.clone()
                },
            ),
            (
                "journal",
                JobSpec {
                    inject: injected(InjectModes::All),
                    journal: true,
                    ..base.clone()
                },
            ),
            (
                "snapshot",
                JobSpec {
                    cfg: SimConfig::default(),
                    snapshot: Some(Box::new(Cpu::new(SimConfig::default()).snapshot())),
                    ..base.clone()
                },
            ),
        ];
        let dir = temp_dir("variants");
        {
            let mut w = WalWriter::open(&dir).unwrap();
            for (i, (_, s)) in variants.iter().enumerate() {
                s.check().unwrap();
                w.append_admit(i as u64 + 1, "carol", 3, s).unwrap();
            }
        }
        let (records, scan) = replay_wal(&dir).unwrap();
        assert_eq!(
            scan,
            WalScan {
                records: variants.len(),
                torn: 0
            }
        );
        for (i, ((name, want), rec)) in variants.iter().zip(&records).enumerate() {
            let WalRecord::Admit {
                id,
                client,
                weight,
                spec: got,
            } = rec
            else {
                panic!("{name}: not an admit: {rec:?}");
            };
            assert_eq!(
                (*id, client.as_str(), *weight),
                (i as u64 + 1, "carol", 3),
                "{name}"
            );
            assert_eq!(got.key(), want.key(), "{name}: key");
            assert_eq!(got.program.words, want.program.words, "{name}: words");
            assert_eq!(
                got.program.entry_offset, want.program.entry_offset,
                "{name}"
            );
            assert_eq!(got.program.data, want.program.data, "{name}: data");
            assert_eq!(got.args, want.args, "{name}: args");
            assert_eq!(got.cfg, want.cfg, "{name}: cfg");
            assert_eq!(got.inject, want.inject, "{name}: inject");
            assert_eq!(got.recovery, want.recovery, "{name}: recovery");
            assert_eq!(got.mode, want.mode, "{name}: mode");
            assert_eq!(got.timeout_ms, want.timeout_ms, "{name}: timeout");
            assert_eq!(got.journal, want.journal, "{name}: journal");
            assert_eq!(
                got.snapshot.as_ref().map(|s| s.to_json()),
                want.snapshot.as_ref().map(|s| s.to_json()),
                "{name}: snapshot"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_replays_empty() {
        let dir = temp_dir("missing");
        let (records, scan) = replay_wal(&dir).unwrap();
        assert!(records.is_empty());
        assert_eq!(scan, WalScan::default());
    }
}
