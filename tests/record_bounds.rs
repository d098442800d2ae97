//! Every numeric key of every declared record, swept across its range.
//!
//! The keys are not listed here: each fixture is written by its record's
//! own declaration through a capturing writer ([`Writer::capturing`]),
//! which reports every number a declared field wrote, with the field's
//! bound. So a field added to a declaration is swept without editing this
//! test. Each key is tried at 0, 1, 2^32, 2^62 and 2^64 − 1, at its
//! declared bound and one past it (and at a nonzero floor and one below
//! it). Every case must either be refused as a schema error — a
//! `bad-request` on the wire, a journal that does not parse, a `wal_torn`
//! line at recovery — or be admitted and finish its run, replay or
//! recovery with a structured outcome. None may panic, in the test thread
//! or in a service worker.
//!
//! The records and how each is driven:
//! - a submit request (configuration, program, arguments, seeds,
//!   injection, supervision and watchdog fields): sent to a service and
//!   run to completion;
//! - a warm-start snapshot (every key under the submit's `snapshot`):
//!   re-signed with the checksum `verify()` recomputes, so the edit
//!   reaches the reader's bounds and restore rather than a checksum
//!   mismatch, then sent and run;
//! - a journal (header, configuration, program, every event kind and the
//!   outcome): parsed and replayed;
//! - poll and journal requests: answered by a service;
//! - the write-ahead log's admit and done lines, as `WalWriter` writes
//!   them: every number outside the embedded request (whose keys the
//!   submit sweep covers), tried at the probes and at the log's id ceiling
//!   `MAX_JOB_ID` and one past it, and recovered by a service, which must
//!   then never issue an id at or below a recovered one. That check
//!   catches the release-mode wrap of an id past `u64::MAX`, which never
//!   panics.

use risc1::core::inject::{InjectConfig, InjectKind, InjectModes};
use risc1::core::json::{get, obj, Bound, Codec, Json, JsonError, Parser, Writer};
use risc1::core::snapshot::RestoreError;
use risc1::core::{Journal, JournalEvent, Program, RecordedOutcome, SimConfig, Snapshot};
use risc1::ir::{compile_risc, replay_journal, run_risc, snapshot_risc_prefix, RiscOpts};
use risc1::serve::handle_line;
use risc1::serve::wal::{WalWriter, MAX_JOB_ID, WAL_FILE};
use risc1::serve::wire::{Request, REQUEST};
use risc1::workloads::by_id;
use risc1::{ExecService, JobMode, JobOutput, JobSpec, PollState, ServiceConfig};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// The values every key is tried at, beside its own bound.
const PROBES: [i128; 5] = [0, 1, 1 << 32, 1 << 62, u64::MAX as i128];

/// A numeric key of a document: where its number sits, and the bound its
/// field declares.
struct Key {
    path: Vec<String>,
    lo: i128,
    hi: i128,
}

/// The values to try at a key.
fn probes(b: &Key) -> Vec<i128> {
    let mut v = PROBES.to_vec();
    v.extend([b.hi, b.hi + 1]);
    if b.lo > 0 {
        v.extend([b.lo, b.lo - 1]);
    }
    v.sort_unstable();
    v.dedup();
    v
}

/// `path` with array indices collapsed: the key a number sits under.
fn pattern(path: &[String]) -> String {
    path.iter()
        .map(|seg| match seg.parse::<usize>() {
            Ok(_) => "*",
            Err(_) => seg,
        })
        .collect::<Vec<_>>()
        .join(".")
}

/// A document written by `value`'s declaration, and its numeric keys: one
/// per key and bound, at the first place it occurs.
fn written<T>(codec: &impl Codec<T>, value: &T) -> (Json, Vec<Key>) {
    let mut w = Writer::capturing();
    codec.put(&mut w, value);
    let (text, bounds) = w.finish_capture();
    let doc = parse(&text);
    let mut paths = HashMap::new();
    let mut again = String::new();
    rendered(&doc, &mut Vec::new(), &mut again, &mut paths);
    assert_eq!(again, text, "rendered as the writer wrote it");
    let mut seen = HashSet::new();
    let keys = bounds
        .into_iter()
        .map(|Bound { at, lo, hi }| Key {
            path: paths[&at].clone(),
            lo,
            hi,
        })
        .filter(|k| seen.insert((pattern(&k.path), k.lo, k.hi)))
        .collect();
    (doc, keys)
}

fn parse(text: &str) -> Json {
    Parser::new(text).parse_document().expect("well-formed")
}

/// Appends `doc` to `out` as the writer writes it, noting the path of
/// every number by its byte offset.
fn rendered(
    doc: &Json,
    path: &mut Vec<String>,
    out: &mut String,
    paths: &mut HashMap<usize, Vec<String>>,
) {
    let quoted = |s: &str| {
        let mut w = Writer::new();
        w.str(s);
        w.finish()
    };
    match doc {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(&b.to_string()),
        Json::Num(n) => {
            paths.insert(out.len(), path.clone());
            out.push_str(&n.to_string());
        }
        Json::Str(s) => out.push_str(&quoted(s)),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                path.push(i.to_string());
                rendered(item, path, out, paths);
                path.pop();
            }
            out.push(']');
        }
        Json::Obj(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&quoted(k));
                out.push(':');
                path.push(k.clone());
                rendered(v, path, out, paths);
                path.pop();
            }
            out.push('}');
        }
    }
}

fn render(doc: &Json) -> String {
    let mut out = String::new();
    rendered(doc, &mut Vec::new(), &mut out, &mut HashMap::new());
    out
}

/// The value at `path` in `doc`.
fn at<'a>(doc: &'a mut Json, path: &[String]) -> &'a mut Json {
    path.iter().fold(doc, |node, seg| match node {
        Json::Obj(entries) => {
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == seg)
                .expect("the path is in the document")
                .1
        }
        Json::Arr(items) => &mut items[seg.parse::<usize>().expect("an index")],
        other => panic!("{seg} under {other:?}"),
    })
}

/// `doc` with the value at `path` set to `n`.
fn edited(doc: &Json, path: &[String], n: i128) -> Json {
    let mut doc = doc.clone();
    *at(&mut doc, path) = Json::Num(n);
    doc
}

/// The failures of a sweep, and how many cases it ran.
#[derive(Default)]
struct Sweep {
    cases: usize,
    refused: usize,
    failures: Vec<String>,
}

impl Sweep {
    /// Runs one case, which answers whether it was refused, or a failure.
    fn case(&mut self, name: String, run: impl FnOnce() -> Result<bool, String>) {
        self.cases += 1;
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(refused)) => self.refused += usize::from(refused),
            Ok(Err(why)) => self.failures.push(format!("{name}: {why}")),
            Err(_) => self.failures.push(format!("{name}: panicked")),
        }
    }

    fn check(self, what: &str) {
        assert!(
            self.failures.is_empty(),
            "{what}: {} of {} case(s) failed:\n{}",
            self.failures.len(),
            self.cases,
            self.failures.join("\n")
        );
        assert!(self.refused > 0, "{what}: no case was refused");
        assert!(self.refused < self.cases, "{what}: every case was refused");
    }
}

struct Fib {
    prog: Program,
    args: Vec<i32>,
    cfg: SimConfig,
    rate: u32,
}

fn fib() -> Fib {
    let w = by_id("fib").expect("suite workload");
    let prog = compile_risc(&w.module, RiscOpts::default()).expect("compiles");
    let (_, base) = run_risc(&prog, &w.small_args).expect("runs clean");
    Fib {
        prog,
        args: w.small_args.clone(),
        cfg: SimConfig {
            fuel: base.instructions * 3 + 10_000,
            ..SimConfig::default()
        },
        rate: (4 * 10_000 / base.instructions.max(1)).clamp(1, 500) as u32,
    }
}

fn service() -> ExecService {
    ExecService::start(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    })
}

/// Sends `frame`: `Ok(true)` for a `bad-request`, `Ok(false)` when every
/// job it was given finished with an outcome other than a panic.
fn submit(service: &ExecService, frame: &str) -> Result<bool, String> {
    let (reply, _) = handle_line(service, frame);
    if reply.starts_with("{\"ok\":false,\"error\":\"bad-request\"") {
        return Ok(true);
    }
    let doc = parse(&reply);
    let ids = (|| {
        let jobs = get(doc.as_obj("reply")?, "jobs")?.as_arr("jobs")?;
        jobs.iter()
            .map(|j| get(j.as_obj("job")?, "id")?.as_u64("id"))
            .collect::<Result<Vec<u64>, JsonError>>()
    })()
    .map_err(|e| format!("reply {reply}: {e}"))?;
    for id in ids {
        match service.wait(id, Duration::from_secs(60)) {
            Some(PollState::Done(JobOutput::Panicked { message, .. })) => {
                return Err(format!("job {id} panicked: {message}"))
            }
            Some(PollState::Done(_)) => {}
            other => return Err(format!("job {id} did not finish: {other:?}")),
        }
    }
    Ok(false)
}

fn submit_frame(spec: JobSpec) -> Request {
    Request::Submit {
        client: "sweep".to_owned(),
        weight: 2,
        specs: vec![spec],
    }
}

/// A supervised injected campaign under a watchdog: every key of a
/// submit request but the snapshot's.
#[test]
fn every_submit_key_is_refused_or_runs() {
    let f = fib();
    let spec = JobSpec {
        program: f.prog.clone(),
        args: f.args.clone(),
        cfg: SimConfig {
            trap_base: Some(0x8000),
            ..f.cfg.clone()
        },
        inject: Some(InjectConfig {
            seed: 3,
            rate: f.rate,
            modes: InjectModes::All,
        }),
        recovery: true,
        mode: JobMode::Supervised {
            ckpt_every: 500,
            max_retries: 3,
        },
        timeout_ms: Some(20_000),
        snapshot: None,
        journal: false,
    };
    let (doc, keys) = written(&REQUEST, &submit_frame(spec));
    let service = service();
    let mut sweep = Sweep::default();
    for key in &keys {
        for n in probes(key) {
            let frame = render(&edited(&doc, &key.path, n));
            sweep.case(format!("{} = {n}", pattern(&key.path)), || {
                submit(&service, &frame)
            });
        }
    }
    service.shutdown();
    sweep.check("submit");
}

/// `snap`'s document with every `null` that a 1 can stand for set to 1,
/// re-signed, so the sweep reaches every optional number too.
fn filled(snap: &Snapshot) -> Snapshot {
    let mut doc = parse(&snap.to_json());
    fn nulls(node: &Json, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        match node {
            Json::Null => out.push(path.clone()),
            Json::Obj(entries) => entries.iter().for_each(|(k, v)| {
                path.push(k.clone());
                nulls(v, path, out);
                path.pop();
            }),
            Json::Arr(items) => items.iter().enumerate().for_each(|(i, v)| {
                path.push(i.to_string());
                nulls(v, path, out);
                path.pop();
            }),
            _ => {}
        }
    }
    let mut paths = Vec::new();
    nulls(&doc, &mut Vec::new(), &mut paths);
    for path in paths {
        let mut next = doc.clone();
        *at(&mut next, &path) = Json::Num(1);
        if resigned(&next).is_some() {
            doc = next;
        }
    }
    Snapshot::from_json(&resigned(&doc).expect("the filled snapshot reads")).expect("reads")
}

/// A snapshot document re-signed with the checksum `verify()` computes
/// over it, when it reads at all.
fn resigned(doc: &Json) -> Option<String> {
    let snap = Snapshot::from_json(&render(doc)).ok()?;
    let mut doc = doc.clone();
    if let Err(RestoreError::Corrupt { found, .. }) = snap.verify() {
        *at(&mut doc, &["checksum".to_owned()]) = Json::Num(i128::from(found));
    }
    Some(render(&doc))
}

/// A warm start from a snapshot with every optional value present: every
/// key under the submit's `snapshot`, each edit re-signed (but for the
/// checksum's own).
#[test]
fn every_snapshot_key_is_refused_or_runs() {
    let f = fib();
    let snap = snapshot_risc_prefix(&f.prog, &f.args, f.cfg.clone(), false, 1000)
        .expect("prefix snapshot");
    let spec = JobSpec {
        program: f.prog.clone(),
        args: f.args.clone(),
        cfg: f.cfg.clone(),
        inject: None,
        recovery: false,
        mode: JobMode::Direct,
        timeout_ms: Some(20_000),
        snapshot: Some(Box::new(filled(&snap))),
        journal: false,
    };
    let (doc, keys) = written(&REQUEST, &submit_frame(spec));
    let service = service();
    let mut sweep = Sweep::default();
    for key in keys.iter().filter(|k| k.path[0] == "snapshot") {
        for n in probes(key) {
            let mut frame = edited(&doc, &key.path, n);
            let inner = &key.path[1..];
            if inner != ["checksum"] {
                let body = at(&mut frame, &key.path[..1]);
                if let Some(text) = resigned(body) {
                    *body = parse(&text);
                }
            }
            let frame = render(&frame);
            sweep.case(format!("{} = {n}", pattern(&key.path)), || {
                submit(&service, &frame)
            });
        }
    }
    service.shutdown();
    sweep.check("snapshot");
}

/// A journal of every event kind, with an outcome: every key of the
/// journal, its configuration, program, events and outcome.
#[test]
fn every_journal_key_is_refused_or_replays() {
    let f = fib();
    let ev = |step, kind| JournalEvent {
        step,
        at_instruction: step,
        kind,
    };
    let journal = Journal {
        events: vec![
            ev(
                10,
                InjectKind::BitFlip {
                    addr: 0x8000,
                    bit: 3,
                },
            ),
            ev(20, InjectKind::SpuriousInterrupt),
            ev(30, InjectKind::DecodeProbe),
            ev(40, InjectKind::MisalignProbe),
            ev(50, InjectKind::FuelJitter { new_limit: 100_000 }),
            ev(
                60,
                InjectKind::WstackCorruption {
                    addr: f.cfg.window_stack_top - 4,
                    bit: 1,
                },
            ),
        ],
        outcome: Some(RecordedOutcome {
            signature: "halt 144".to_owned(),
            instructions: 5822,
            trap_counts: [0, 1, 0, 0, 0, 0],
        }),
        ..Journal::new(
            &Program {
                data: vec![(0x9000, vec![1, 2])],
                ..f.prog.clone()
            },
            &f.args,
            SimConfig {
                trap_base: Some(0x8000),
                ..f.cfg.clone()
            },
            Some(InjectConfig::with_seed(7)),
            true,
        )
    };
    let (doc, keys) = written(&obj(), &journal);
    let mut sweep = Sweep::default();
    for key in &keys {
        for n in probes(key) {
            let text = render(&edited(&doc, &key.path, n));
            sweep.case(format!("{} = {n}", pattern(&key.path)), || {
                let Ok(journal) = Journal::from_json(&text) else {
                    return Ok(true);
                };
                // A program that cannot be set up under its configuration
                // is a structured replay error.
                let _ = replay_journal(&journal);
                Ok(false)
            });
        }
    }
    sweep.check("journal");
}

/// Poll and journal requests: every key, answered by a service holding
/// one finished job with a recorded journal.
#[test]
fn every_poll_and_journal_request_key_is_answered() {
    let f = fib();
    let service = service();
    let spec = JobSpec {
        program: f.prog.clone(),
        args: f.args.clone(),
        cfg: f.cfg.clone(),
        inject: None,
        recovery: false,
        mode: JobMode::Direct,
        timeout_ms: None,
        snapshot: None,
        journal: true,
    };
    let id = service.submit("sweep", 1, vec![spec]).expect("admitted")[0].id;
    assert!(matches!(
        service.wait(id, Duration::from_secs(60)),
        Some(PollState::Done(JobOutput::Finished(_)))
    ));
    let mut sweep = Sweep::default();
    for request in [
        Request::Poll {
            id,
            wait_ms: Some(1),
        },
        Request::Journal { id, seq: 0 },
    ] {
        let (doc, keys) = written(&REQUEST, &request);
        for key in &keys {
            for n in probes(key) {
                let frame = render(&edited(&doc, &key.path, n));
                sweep.case(frame.clone(), || {
                    let (reply, _) = handle_line(&service, &frame);
                    let doc = parse(&reply);
                    let obj = doc.as_obj("reply").map_err(|e| e.to_string())?;
                    match get(obj, "error") {
                        Ok(Json::Str(e)) if e == "bad-request" => Ok(true),
                        Ok(Json::Str(e))
                            if ["unknown-job", "no-journal", "bad-seq"].contains(&e.as_str()) =>
                        {
                            Ok(false)
                        }
                        Err(_) => Ok(false),
                        other => Err(format!("reply {reply}: {other:?}")),
                    }
                });
            }
        }
    }
    service.shutdown();
    sweep.check("poll and journal");
}

/// A per-test scratch WAL directory, removed on drop.
struct WalDir(std::path::PathBuf);

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The numbers of a WAL line outside its embedded submit request (whose
/// keys the submit sweep covers), by path.
fn wal_numbers(node: &Json, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    match node {
        Json::Num(_) => out.push(path.clone()),
        Json::Obj(entries) => entries
            .iter()
            .filter(|(k, _)| k != "request")
            .for_each(|(k, v)| {
                path.push(k.clone());
                wal_numbers(v, path, out);
                path.pop();
            }),
        _ => {}
    }
}

/// The write-ahead log's admit and done lines: every number outside the
/// embedded request, tried at the probes and at the log's id ceiling and
/// one past it. A line that does not read is counted torn; recovery
/// re-runs or re-seeds the rest and then issues only ids above every one
/// it recovered.
#[test]
fn every_wal_key_is_torn_or_recovers() {
    let f = fib();
    let spec = JobSpec {
        program: f.prog.clone(),
        args: f.args.clone(),
        cfg: f.cfg.clone(),
        inject: None,
        recovery: false,
        mode: JobMode::Direct,
        timeout_ms: None,
        snapshot: None,
        journal: false,
    };
    let dir = WalDir(std::env::temp_dir().join(format!("risc1_bounds_wal_{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    {
        let mut wal = WalWriter::open(&dir.0).expect("open");
        wal.append_admit(1, "sweep", 1, &spec).expect("admit");
        let out = JobOutput::SetupFailed {
            message: "unused".to_owned(),
        };
        wal.append_done(1, &out).expect("done");
    }
    let log = std::fs::read_to_string(dir.0.join(WAL_FILE)).expect("read");
    let lines: Vec<&str> = log.lines().collect();
    let ceiling = Key {
        path: Vec::new(),
        lo: 0,
        hi: i128::from(MAX_JOB_ID),
    };
    let mut sweep = Sweep::default();
    for (which, line) in lines.iter().enumerate() {
        let doc = parse(line);
        let mut paths = Vec::new();
        wal_numbers(&doc, &mut Vec::new(), &mut paths);
        assert!(!paths.is_empty(), "{line}");
        for path in &paths {
            for n in probes(&ceiling) {
                let mut staged = lines.clone();
                let edited_line = render(&edited(&doc, path, n));
                staged[which] = &edited_line;
                // An edited done line recovers beside its admit; an edited
                // admit line beside the original one, under id 1.
                if which == 0 {
                    staged.insert(0, lines[0]);
                }
                let text = staged.join("\n") + "\n";
                let dir = &dir.0;
                sweep.case(
                    format!("{} {} = {n}", ["admit", "done"][which], path.join(".")),
                    || {
                        std::fs::write(dir.join(WAL_FILE), &text).map_err(|e| e.to_string())?;
                        let service = ExecService::start(ServiceConfig {
                            threads: 2,
                            wal_dir: Some(dir.to_string_lossy().into_owned()),
                            recover: true,
                            ..ServiceConfig::default()
                        });
                        let torn = service.status().counters.wal_torn;
                        let recovered = match (torn, which) {
                            (0, 0) => (n as u64).max(1),
                            _ => 1,
                        };
                        // A fresh job: its id lies above every recovered one,
                        // or it is refused whole.
                        let fresh = JobSpec {
                            args: vec![f.args[0] + 1],
                            ..spec.clone()
                        };
                        let verdict = match service.submit("sweep", 1, vec![fresh]) {
                            Ok(tickets) if tickets[0].id <= recovered => Err(format!(
                                "issued id {} at or below recovered id {recovered}",
                                tickets[0].id
                            )),
                            _ => Ok(torn == 1),
                        };
                        service.shutdown();
                        verdict
                    },
                );
            }
        }
    }
    sweep.check("wal");
}
