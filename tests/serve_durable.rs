//! Durability laws for the execution service: crash-safe write-ahead
//! logging, validated warm-start snapshots, and retained replay journals.
//!
//! The restart bit-identity law, end to end: everything the pre-crash
//! service admitted is either re-seeded from its logged completion
//! (byte-identical result, original digest) or re-executed under its
//! original id to a digest bit-identical to direct execution. The WAL is
//! append-only newline-delimited JSON, so a torn tail from a hard kill is
//! skipped, never fatal. A submission whose admission the log cannot record is
//! rejected, so no ticket outlives a lost admit record.

use risc1::core::inject::{InjectConfig, InjectModes};
use risc1::core::snapshot::{RestoreError, Snapshot, SNAPSHOT_VERSION};
use risc1::core::{Program, SimConfig};
use risc1::ir::{
    compile_risc, run_risc, run_risc_deadline, run_risc_resumed, snapshot_risc_prefix, RiscOpts,
    TimedOutcome,
};
use risc1::serve::wal::{WalWriter, WAL_FILE};
use risc1::serve::wire;
use risc1::workloads::by_id;
use risc1::{ExecService, JobMode, JobOutput, JobSpec, PollState, ServiceConfig, SubmitError};
use std::path::PathBuf;
use std::time::Duration;

struct Compiled {
    prog: Program,
    args: Vec<i32>,
    cfg: SimConfig,
    rate: u32,
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
    let rate = (4 * 10_000 / base.instructions.max(1)).clamp(1, 500) as u32;
    Compiled {
        prog,
        args: w.small_args.clone(),
        cfg,
        rate,
        instructions: base.instructions,
    }
}

fn spec(w: &Compiled, seed: Option<u64>) -> JobSpec {
    JobSpec {
        program: w.prog.clone(),
        args: w.args.clone(),
        cfg: w.cfg.clone(),
        inject: seed.map(|seed| InjectConfig {
            seed,
            rate: w.rate,
            modes: InjectModes::all(),
        }),
        recovery: seed.is_some_and(|s| s % 2 == 0),
        mode: JobMode::Direct,
        timeout_ms: None,
        snapshot: None,
        journal: false,
    }
}

/// The digest direct execution of `spec` would produce — the bit-identity
/// reference for everything the service reports.
fn direct_digest(s: &JobSpec) -> u64 {
    let report = run_risc_deadline(
        &s.program,
        &s.args,
        s.cfg.clone(),
        s.inject,
        s.recovery,
        None,
        None,
    )
    .expect("direct rerun")
    .finished()
    .expect("no deadline was set");
    JobOutput::Finished(report).digest()
}

fn done(service: &ExecService, id: u64) -> JobOutput {
    match service.wait(id, Duration::from_secs(120)) {
        Some(PollState::Done(out)) => out,
        other => panic!("job {id} did not finish: {other:?}"),
    }
}

/// A per-test scratch WAL directory, removed on drop.
struct WalDir(PathBuf);

impl WalDir {
    fn new(tag: &str) -> WalDir {
        let dir = std::env::temp_dir().join(format!("risc1_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WalDir(dir)
    }

    fn path_string(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_config(dir: &WalDir, recover: bool) -> ServiceConfig {
    ServiceConfig {
        threads: 2,
        wal_dir: Some(dir.path_string()),
        recover,
        ..ServiceConfig::default()
    }
}

/// Completed results are re-seeded byte-identically from the WAL and an
/// admitted-but-unfinished job is re-executed under its original id —
/// the full recovery state machine, in process.
#[test]
fn recovery_reseeds_completions_and_reruns_incomplete_admissions() {
    let w = compiled("acker");
    let dir = WalDir::new("recover");
    let specs = vec![spec(&w, None), spec(&w, Some(3)), spec(&w, Some(4))];
    let expected: Vec<u64> = specs.iter().map(direct_digest).collect();

    // Life before the crash: admit and finish the campaign.
    let first = ExecService::start(durable_config(&dir, false));
    let tickets = first.submit("durable", 1, specs.clone()).expect("submit");
    let ids: Vec<u64> = tickets.iter().map(|t| t.id).collect();
    for (&id, &want) in ids.iter().zip(&expected) {
        assert_eq!(done(&first, id).digest(), want, "pre-crash digest");
    }
    first.shutdown();
    drop(first);

    // The "crash": an admission the dead service never completed. Appending
    // it with the public writer reproduces exactly what a kill between the
    // admit record and the done record leaves behind.
    let orphan = spec(&w, Some(9));
    let orphan_digest = direct_digest(&orphan);
    let orphan_id = ids.iter().max().unwrap() + 1;
    let mut wal = WalWriter::open(&dir.0).expect("open wal");
    wal.append_admit(orphan_id, "durable", 1, &orphan)
        .expect("append admit");
    drop(wal);

    // Restart with --recover semantics: same ids, same digests.
    let second = ExecService::start(durable_config(&dir, true));
    for (&id, &want) in ids.iter().zip(&expected) {
        let out = done(&second, id);
        assert_eq!(out.digest(), want, "post-restart digest for job {id}");
        assert!(
            matches!(out, JobOutput::Recovered { .. }),
            "completed jobs re-seed from the log, not re-run"
        );
    }
    let out = done(&second, orphan_id);
    assert_eq!(out.digest(), orphan_digest, "re-executed orphan digest");
    assert!(
        matches!(out, JobOutput::Finished(_)),
        "incomplete admissions re-execute live"
    );

    let counters = second.status().counters;
    assert_eq!(counters.wal_reseeded, expected.len() as u64);
    assert_eq!(counters.wal_replayed, 1, "one incomplete admission re-ran");
    second.shutdown();
}

/// A submission whose admission the log cannot record is rejected whole,
/// with a structured error: nothing of it is submitted, queued, given an
/// id or left in the dedup map, and the failure is counted. The log here
/// is `/dev/full`, so every append fails with ENOSPC.
#[cfg(unix)]
#[test]
fn a_failed_admit_append_rejects_the_whole_submission() {
    let w = compiled("fib");
    let dir = WalDir::new("full");
    std::fs::create_dir_all(&dir.0).expect("create wal dir");
    std::os::unix::fs::symlink("/dev/full", dir.0.join(WAL_FILE)).expect("link the log");
    let service = ExecService::start(durable_config(&dir, false));
    let specs = vec![spec(&w, None), spec(&w, Some(3)), spec(&w, None)];

    let err = service
        .submit("durable", 1, specs.clone())
        .expect_err("the log cannot take the admission");
    assert!(matches!(err, SubmitError::Unavailable(_)), "{err:?}");
    let reply = wire::submit_error_response(&err);
    assert!(
        reply.starts_with(r#"{"ok":false,"error":"unavailable","#),
        "{reply}"
    );
    let status = service.status();
    assert_eq!(status.counters.submitted, 0);
    assert_eq!(status.counters.dedup_hits, 0);
    assert_eq!(status.queued, 0);
    assert_eq!(status.counters.wal_admit_failures, 1);
    for id in 1..=3 {
        assert!(service.poll(id).is_none(), "job {id} was never admitted");
    }
    // No dedup entry survived: the resubmission meets the full log again
    // instead of a ticket for a job that does not exist.
    let err = service.submit("durable", 1, specs).expect_err("still full");
    assert!(matches!(err, SubmitError::Unavailable(_)), "{err:?}");
    assert_eq!(service.status().counters.wal_admit_failures, 2);
    service.shutdown();
}

/// A torn tail — the half-written line a `kill -9` leaves mid-append — is
/// skipped; every record before it still replays.
#[test]
fn torn_wal_tail_is_skipped_not_fatal() {
    let w = compiled("fib");
    let dir = WalDir::new("torn");
    let s = spec(&w, Some(2));
    let want = direct_digest(&s);

    let first = ExecService::start(durable_config(&dir, false));
    let id = first.submit("durable", 1, vec![s]).expect("submit")[0].id;
    assert_eq!(done(&first, id).digest(), want);
    first.shutdown();
    drop(first);

    // Tear the tail: a prefix of an admit record with no trailing newline.
    let log = dir.0.join("serve.wal");
    let mut bytes = std::fs::read(&log).expect("read wal");
    bytes.extend_from_slice(b"{\"wal\":\"admit\",\"id\":77,\"client\":\"du");
    std::fs::write(&log, bytes).expect("tear wal");

    let second = ExecService::start(durable_config(&dir, true));
    let out = done(&second, id);
    assert_eq!(out.digest(), want, "records before the tear replay");
    let counters = second.status().counters;
    assert_eq!(counters.wal_reseeded, 1);
    assert_eq!(counters.wal_torn, 1, "the torn line is counted");
    second.shutdown();
}

/// The submit rules hold for library submissions as they do for wire
/// frames: a spec that breaks one is rejected with the whole submission
/// around it, so it draws no id and the log records nothing. Every admit
/// record in a log is then one the wire parser reads back at recovery.
#[test]
fn a_spec_breaking_a_submit_rule_is_rejected_whole() {
    let w = compiled("fib");
    let dir = WalDir::new("rules");
    let snap =
        snapshot_risc_prefix(&w.prog, &w.args, w.cfg.clone(), false, 100).expect("prefix snapshot");
    let supervised = JobMode::Supervised {
        ckpt_every: 1000,
        max_retries: 2,
    };
    let warm = JobSpec {
        snapshot: Some(Box::new(snap)),
        ..spec(&w, None)
    };
    let broken = [
        (
            "snapshot+inject",
            JobSpec {
                inject: spec(&w, Some(1)).inject,
                ..warm.clone()
            },
        ),
        (
            "snapshot+supervised",
            JobSpec {
                mode: supervised,
                ..warm.clone()
            },
        ),
        (
            "snapshot+journal",
            JobSpec {
                journal: true,
                ..warm.clone()
            },
        ),
        (
            "journal+supervised",
            JobSpec {
                journal: true,
                mode: supervised,
                ..spec(&w, Some(1))
            },
        ),
        (
            "ckpt_every 0",
            JobSpec {
                mode: JobMode::Supervised {
                    ckpt_every: 0,
                    max_retries: 2,
                },
                ..spec(&w, Some(1))
            },
        ),
    ];
    let service = ExecService::start(durable_config(&dir, false));
    for (name, bad) in broken {
        let err = service
            .submit("rules", 1, vec![spec(&w, Some(2)), bad])
            .expect_err(name);
        assert!(matches!(err, SubmitError::Invalid(_)), "{name}: {err:?}");
        let reply = wire::submit_error_response(&err);
        assert!(
            reply.starts_with(r#"{"ok":false,"error":"bad-request","#),
            "{name}: {reply}"
        );
    }
    let status = service.status();
    assert_eq!(status.counters.submitted, 0);
    assert_eq!(status.counters.dedup_hits, 0);
    assert_eq!(status.queued, 0);
    let log = std::fs::read(dir.0.join(WAL_FILE)).expect("read wal");
    assert!(log.is_empty(), "nothing was logged");
    // No id was drawn: the first admitted job is job 1, and it is the
    // only admit record in the log.
    let ok = service
        .submit("rules", 1, vec![warm.clone()])
        .expect("a warm start alone keeps the rules");
    assert_eq!(ok[0].id, 1);
    done(&service, 1);
    service.shutdown();
    drop(service);
    let (records, scan) = risc1::serve::replay_wal(&dir.0).expect("replay");
    assert_eq!((scan.records, scan.torn), (2, 0), "admit and done parse");
    match &records[0] {
        risc1::serve::WalRecord::Admit { id, spec, .. } => {
            assert_eq!(*id, 1);
            assert_eq!(spec.key(), warm.key());
        }
        other => panic!("not an admit: {other:?}"),
    }
}

/// Warm starts: a resumed run is bit-identical to the cold run while the
/// host executes only the suffix, and the dedup key distinguishes
/// snapshot content — a tampered body that keeps the original's stored
/// checksum must miss dedup and die at restore-time verification.
#[test]
fn warm_start_is_bit_identical_and_tampering_is_rejected() {
    let w = compiled("acker");
    let cold = run_risc_deadline(&w.prog, &w.args, w.cfg.clone(), None, false, None, None)
        .expect("cold run")
        .finished()
        .expect("no deadline was set");

    let snap = snapshot_risc_prefix(
        &w.prog,
        &w.args,
        w.cfg.clone(),
        false,
        (w.instructions / 2).max(1),
    )
    .expect("prefix snapshot");
    assert!(snap.at_instruction() > 0, "prefix actually executed");

    // The resumed suffix reproduces the cold run bit for bit, and the host
    // only stepped the remainder.
    match run_risc_resumed(&snap, None).expect("resume") {
        TimedOutcome::Finished(report) => assert_eq!(report, cold, "warm != cold"),
        TimedOutcome::TimedOut { .. } => panic!("no deadline was set"),
    }
    assert!(
        snap.at_instruction() <= cold.stats.instructions,
        "snapshot prefix is a prefix of the cold run"
    );

    // Through the service: same digest as the cold job.
    let mut warm = spec(&w, None);
    warm.snapshot = Some(Box::new(snap.clone()));
    let cold_digest = JobOutput::Finished(cold).digest();

    // Tampering a field while keeping the stored checksum must change the
    // dedup key (the key folds content, not the self-declared identity)…
    let tampered_json = snap
        .to_json()
        .replace("\"halted\":false", "\"halted\":true");
    assert_ne!(tampered_json, snap.to_json(), "tamper changed the body");
    let tampered = Snapshot::from_json(&tampered_json).expect("tampered body still parses");
    let mut tampered_spec = warm.clone();
    tampered_spec.snapshot = Some(Box::new(tampered));
    assert_ne!(
        warm.key(),
        tampered_spec.key(),
        "tampered snapshot must not share the original's dedup key"
    );

    // …and the service must reject it at restore time, counted.
    let service = ExecService::start(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    });
    let id = service.submit("warm", 1, vec![warm]).expect("submit")[0].id;
    assert_eq!(done(&service, id).digest(), cold_digest, "warm digest");

    let tid = service
        .submit("warm", 1, vec![tampered_spec])
        .expect("submit")[0]
        .id;
    assert_ne!(tid, id, "tampered job was not dedup-served");
    match done(&service, tid) {
        JobOutput::SnapshotRejected { message } => {
            assert!(message.contains("checksum"), "structured cause: {message}")
        }
        other => panic!("tampered snapshot produced {other:?}"),
    }
    assert_eq!(service.status().counters.snapshots_rejected, 1);
    service.shutdown();
}

/// A snapshot whose embedded config disagrees with itself (mutated fuel,
/// checksum updated to match nothing) is a structured rejection, and a
/// declared-oversized snapshot never allocates.
#[test]
fn snapshot_rejection_variants_are_structured() {
    let w = compiled("fib");
    let snap =
        snapshot_risc_prefix(&w.prog, &w.args, w.cfg.clone(), false, 100).expect("prefix snapshot");
    let json = snap.to_json();

    // Version skew parses (versions are data) but cannot restore.
    let skewed = json.replace(
        &format!("\"version\":{SNAPSHOT_VERSION}"),
        "\"version\":999",
    );
    assert_ne!(skewed, json, "the snapshot carries its version");
    let s = Snapshot::from_json(&skewed).expect("a version is data");
    assert!(
        matches!(
            run_risc_resumed(&s, None),
            Err(RestoreError::Version { found: 999, .. })
        ),
        "version skew must be refused as such"
    );

    // A body that declares an absurd memory size fails admission at parse
    // time — limits bound allocation before any bytes are trusted.
    let huge = json.replace(
        &format!("\"mem_bytes\":{}", w.cfg.mem_bytes),
        "\"mem_bytes\":68719476736",
    );
    assert!(
        Snapshot::from_json(&huge).is_err(),
        "oversized declaration must fail admission"
    );
}

/// Journals retained for `journal:true` jobs replay bit for bit via the
/// public service API — the in-process half of streamed replay.
#[test]
fn retained_journal_replays_bit_for_bit() {
    let w = compiled("fib");
    let mut s = spec(&w, Some(5));
    s.journal = true;
    let service = ExecService::start(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    });
    let id = service.submit("journal", 1, vec![s]).expect("submit")[0].id;
    let out = done(&service, id);

    let text = service.journal(id).expect("journal retained");
    let journal = risc1::core::Journal::from_json(&text).expect("journal parses");
    let replayed = risc1::ir::replay_journal(&journal).expect("journal replays");
    assert_eq!(
        Some(risc1::ir::recorded_outcome(&replayed)),
        journal.outcome,
        "replay reproduces the recorded outcome"
    );
    assert_eq!(
        JobOutput::Finished(replayed).digest(),
        out.digest(),
        "replayed digest matches the served digest"
    );
    service.shutdown();
}
