//! The execution service: admission, fair-share scheduling, crash-only
//! workers, and structured status.
//!
//! [`ExecService`] is a long-running library object. Clients [`submit`]
//! campaigns of [`JobSpec`]s; a background scheduler thread drains the
//! per-client queues in weighted round-robin order and runs each batch
//! over [`parallel_map`] — the same deterministic runner every campaign in
//! the repo uses, so results are independent of worker count. Every job
//! runs under `catch_unwind`: a panic inside the simulator is journaled to
//! the replay-artifacts funnel and reported as a structured
//! [`JobOutput::Panicked`], never a dead worker.
//!
//! The robustness state machine, end to end:
//!
//! ```text
//! submit ──▶ dedup hit? ──────────────▶ ticket (in-flight / retained id)
//!    │
//!    ├──▶ queue full? ──▶ Overloaded (whole submission shed, counted)
//!    │
//!    ├──▶ admit not logged? ──▶ Unavailable (whole submission, counted)
//!    │
//!    └──▶ Queued ──▶ Running ──▶ Done(JobOutput)
//!                      │  supervised jobs retry with backoff inside the
//!                      │  PR-3 supervisor; poisoned checkpoints escalate
//!                      └─ panic ──▶ journal to artifacts ──▶ Done(Panicked)
//! ```
//!
//! With a [`wal_dir`](ServiceConfig::wal_dir) configured, every admission
//! and completion is appended to a [write-ahead log](crate::wal) before
//! the client hears about it — a submission whose admission cannot be
//! logged is rejected — and [`recover`](ServiceConfig::recover) replays
//! that log on startup: completed results re-seed the job table
//! (byte-identical to the pre-crash responses), incomplete jobs re-enqueue
//! under their original ids, and the idempotent job keys make
//! re-execution safe — a `kill -9` mid-campaign loses nothing.
//!
//! [`submit`]: ExecService::submit

use crate::job::{JobKey, JobMode, JobOutput, JobSpec};
use crate::queue::{Overloaded, QueueDepth, QueueSet};
use crate::wal::{replay_wal, WalRecord, WalWriter};
use risc1_core::json::{get, Parser};
use risc1_core::{Deadline, Journal, JournalEvent, TrapKind};
use risc1_ir::{
    default_threads, parallel_map, recorded_outcome, run_risc_deadline, run_risc_resumed,
    run_risc_supervised, SupervisorConfig, TimedOutcome,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for an [`ExecService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads per batch (defaults to the campaign runner's
    /// `RISC1_THREADS`-aware thread count).
    pub threads: usize,
    /// Per-client queue capacity; submissions that would overflow it are
    /// rejected with a structured [`Overloaded`].
    pub queue_cap: usize,
    /// How many finished jobs stay retained, oldest out first: pollable by
    /// id, and served to an identical resubmission by dedup. A resubmission
    /// of a job that has left retention runs again under a fresh id.
    pub cache_cap: usize,
    /// Where panicking jobs journal their campaigns for offline replay.
    pub artifact_dir: String,
    /// Directory of the crash-safe write-ahead job log; `None` runs the
    /// service without durability.
    pub wal_dir: Option<String>,
    /// Replay an existing log in [`wal_dir`](Self::wal_dir) on startup,
    /// re-seeding completed results and re-enqueueing incomplete jobs
    /// under their original ids.
    pub recover: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            threads: default_threads(),
            queue_cap: 64,
            cache_cap: 256,
            artifact_dir: "target/replay-artifacts".to_owned(),
            wal_dir: None,
            recover: false,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The client's queue cannot take the submission (load shed).
    Overloaded(Overloaded),
    /// The service is shutting down and admits nothing new.
    ShuttingDown,
    /// The write-ahead log could not record the admission (the message is
    /// the I/O error), so nothing of the submission was admitted.
    Unavailable(String),
    /// A spec breaks a submit rule (the message names it; see the rules
    /// on [`JobSpec`]'s `snapshot`, `journal` and `mode`), so nothing of
    /// the submission was admitted.
    Invalid(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded(o) => write!(f, "{o}"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Unavailable(e) => write!(f, "cannot log the admission: {e}"),
            SubmitError::Invalid(e) => write!(f, "invalid job: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The receipt for one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitTicket {
    /// The injection seed of the spec (0 for pristine runs).
    pub seed: u64,
    /// The job id to poll.
    pub id: u64,
    /// True when the job was served by dedup — the id refers to an
    /// in-flight or retained execution of an identical spec.
    pub dedup: bool,
}

/// Where a job currently is.
// A `Done` report dwarfs the marker states, but boxing it would break the
// nested patterns clients match (`PollState::Done(JobOutput::Finished(r))`),
// and poll results are transient values, not a resident table.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PollState {
    /// Waiting in its client's queue.
    Queued,
    /// Claimed by the current batch.
    Running,
    /// Finished; the output is yours.
    Done(JobOutput),
}

/// Monotonic service counters, exposed by the `status` endpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Jobs accepted for execution (dedup hits not included).
    pub submitted: u64,
    /// Submitted jobs served by dedup: an in-flight or retained job with
    /// the same key.
    pub dedup_hits: u64,
    /// Jobs rejected by load shedding.
    pub shed: u64,
    /// Submissions rejected because the write-ahead log could not record
    /// their admission.
    pub wal_admit_failures: u64,
    /// Jobs that finished executing.
    pub completed: u64,
    /// Jobs that ended in a caught panic.
    pub panics: u64,
    /// Jobs stopped by their wall-clock watchdog.
    pub timeouts: u64,
    /// Jobs whose setup failed before any instruction ran.
    pub setup_failures: u64,
    /// Supervisor retry attempts across all supervised jobs.
    pub retries: u64,
    /// Supervisor escalations to the campaign baseline.
    pub escalations: u64,
    /// Incomplete jobs re-enqueued from the write-ahead log at startup.
    pub wal_replayed: u64,
    /// Completed results re-seeded from the write-ahead log at startup.
    pub wal_reseeded: u64,
    /// Lines of the write-ahead log skipped at startup because they did
    /// not parse: a torn tail from a hard kill, an admit record in another
    /// build's schema, or garbage.
    pub wal_torn: u64,
    /// Warm-start snapshots rejected at restore time (corruption, version
    /// skew, config mismatch).
    pub snapshots_rejected: u64,
    /// Per-cause trap totals accumulated from every finished job, indexed
    /// by [`TrapKind::index`].
    pub trap_totals: [u64; TrapKind::COUNT],
}

/// A point-in-time snapshot of the service, for the `status` endpoint.
#[derive(Debug, Clone)]
pub struct StatusReport {
    /// Per-client queue depths and weights.
    pub queues: Vec<QueueDepth>,
    /// Jobs queued across all clients.
    pub queued: usize,
    /// Jobs in the currently running batch.
    pub running: usize,
    /// Finished jobs retained (at most [`ServiceConfig::cache_cap`]).
    pub cached: usize,
    /// The monotonic counters.
    pub counters: Counters,
}

// Resident in the job table, but the table is bounded by the queues and
// `cache_cap` retention — a few hundred entries — so the variant size gaps
// are cheaper than indirecting every poll.
#[allow(clippy::large_enum_variant)]
enum JobState {
    /// Waiting in its client's queue, with the spec the scheduler takes
    /// when it claims the job.
    Queued(JobSpec),
    Running,
    /// Finished, with the recorded replay journal of a `journal:true` job,
    /// retained for streamed download.
    Done(JobOutput, Option<Arc<String>>),
}

/// One entry of the job table.
struct Job {
    /// The job's dedup key.
    key: JobKey,
    state: JobState,
}

impl Job {
    fn poll(&self) -> PollState {
        match &self.state {
            JobState::Queued(_) => PollState::Queued,
            JobState::Running => PollState::Running,
            JobState::Done(out, _) => PollState::Done(out.clone()),
        }
    }
}

struct State {
    queues: QueueSet,
    /// Every queued, running or retained job by id.
    jobs: HashMap<u64, Job>,
    /// Canonical job id per key: the in-flight or retained job an identical
    /// submission dedups to.
    dedup: HashMap<JobKey, u64>,
    counters: Counters,
    next_id: u64,
    shutdown: bool,
    /// Finished job ids, oldest first, so retention stays bounded.
    completed_order: VecDeque<u64>,
    /// The write-ahead log's append half, when durability is on. Written
    /// under this state lock so log order matches admission order.
    wal: Option<WalWriter>,
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<State>,
    /// Signalled when work arrives or shutdown is requested.
    work: Condvar,
    /// Signalled when a batch of jobs finishes.
    done: Condvar,
}

/// The long-running execution service. See the module docs for the state
/// machine; construction spawns the scheduler thread, [`shutdown`]
/// (or drop) stops and joins it.
///
/// [`shutdown`]: ExecService::shutdown
pub struct ExecService {
    inner: Arc<Inner>,
    scheduler: Mutex<Option<JoinHandle<()>>>,
}

impl ExecService {
    /// Starts a service (and its scheduler thread) with the given config.
    ///
    /// # Panics
    /// When [`wal_dir`](ServiceConfig::wal_dir) is set but the log cannot
    /// be opened (or, with [`recover`](ServiceConfig::recover), read) —
    /// starting a service that silently drops its durability guarantee
    /// would be worse than not starting.
    pub fn start(cfg: ServiceConfig) -> ExecService {
        let mut state = State {
            queues: QueueSet::new(cfg.queue_cap),
            jobs: HashMap::new(),
            dedup: HashMap::new(),
            counters: Counters::default(),
            next_id: 1,
            shutdown: false,
            completed_order: VecDeque::new(),
            wal: None,
        };
        if let Some(dir) = cfg.wal_dir.as_deref() {
            let dir = Path::new(dir);
            if cfg.recover {
                let (records, scan) = replay_wal(dir)
                    .unwrap_or_else(|e| panic!("cannot replay WAL in {}: {e}", dir.display()));
                state.counters.wal_torn = scan.torn as u64;
                seed_from_wal(&mut state, records);
                evict_retained(&mut state, cfg.cache_cap);
            }
            state.wal = Some(
                WalWriter::open(dir)
                    .unwrap_or_else(|e| panic!("cannot open WAL in {}: {e}", dir.display())),
            );
        }
        let inner = Arc::new(Inner {
            state: Mutex::new(state),
            work: Condvar::new(),
            done: Condvar::new(),
            cfg,
        });
        let scheduler = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || scheduler_loop(&inner))
        };
        ExecService {
            inner,
            scheduler: Mutex::new(Some(scheduler)),
        }
    }

    /// Submits a campaign for `client` (registering it with `weight` on
    /// first contact). Admission is atomic: either every spec gets a
    /// ticket, or the whole submission is rejected. Specs whose key
    /// matches an in-flight or retained job — or an earlier spec of the
    /// same submission — are served by dedup and do not consume queue
    /// space.
    ///
    /// # Errors
    /// [`SubmitError::Invalid`] when a spec breaks a submit rule, the same
    /// rules the wire parser holds a submit request to;
    /// [`SubmitError::Overloaded`] when the fresh jobs would overflow the
    /// client's queue (they are counted as shed);
    /// [`SubmitError::ShuttingDown`] after [`shutdown`](Self::shutdown);
    /// [`SubmitError::Unavailable`] when the write-ahead log cannot record
    /// an admission (counted in [`Counters::wal_admit_failures`]).
    pub fn submit(
        &self,
        client: &str,
        weight: u32,
        specs: Vec<JobSpec>,
    ) -> Result<Vec<SubmitTicket>, SubmitError> {
        for spec in &specs {
            spec.check()
                .map_err(|rule| SubmitError::Invalid(rule.to_owned()))?;
        }
        let mut st = self.inner.state.lock().expect("service state");
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        // Sort the specs into dedup hits and fresh jobs, numbered from
        // `next_id` in order, before anything changes.
        let mut tickets = Vec::with_capacity(specs.len());
        let mut fresh: Vec<(u64, JobKey, JobSpec)> = Vec::new();
        let mut batch: HashMap<JobKey, u64> = HashMap::new();
        for spec in specs {
            let key = spec.key();
            let seed = spec.inject.map_or(0, |i| i.seed);
            let (id, dedup) = match st.dedup.get(&key).or_else(|| batch.get(&key)) {
                Some(&id) => (id, true),
                None => {
                    let id = st.next_id + fresh.len() as u64;
                    batch.insert(key, id);
                    fresh.push((id, key, spec));
                    (id, false)
                }
            };
            tickets.push(SubmitTicket { seed, id, dedup });
        }
        let depth = st
            .queues
            .depths()
            .iter()
            .find(|q| q.client == client)
            .map_or(0, |q| q.depth);
        if depth + fresh.len() > self.inner.cfg.queue_cap {
            st.counters.shed += tickets.len() as u64;
            return Err(SubmitError::Overloaded(Overloaded {
                client: client.to_owned(),
                depth,
                capacity: self.inner.cfg.queue_cap,
                rejected: tickets.len(),
            }));
        }

        // Log every admission before its ticket exists: a crash after this
        // re-runs the jobs, a crash before it means the client never got a
        // ticket to lose. A failed append rejects the whole submission. Its
        // ids stay drawn, so a record it did log can never share an id
        // with a later job; recovery would run such a job unclaimed.
        st.next_id += fresh.len() as u64;
        let logged = match st.wal.as_mut() {
            Some(wal) => fresh
                .iter()
                .try_for_each(|(id, _, spec)| wal.append_admit(*id, client, weight, spec)),
            None => Ok(()),
        };
        if let Err(e) = logged {
            st.counters.wal_admit_failures += 1;
            return Err(SubmitError::Unavailable(e.to_string()));
        }

        st.counters.dedup_hits += (tickets.len() - fresh.len()) as u64;
        st.counters.submitted += fresh.len() as u64;
        let ids: Vec<u64> = fresh.iter().map(|&(id, _, _)| id).collect();
        for (id, key, spec) in fresh {
            st.jobs.insert(
                id,
                Job {
                    key,
                    state: JobState::Queued(spec),
                },
            );
            st.dedup.insert(key, id);
        }
        st.queues
            .try_push(client, weight, &ids)
            .expect("admission was checked before ids were allocated");
        drop(st);
        self.inner.work.notify_all();
        Ok(tickets)
    }

    /// Where job `id` currently is (`None` for ids the service does not
    /// know — never issued, or finished and since evicted by retention).
    pub fn poll(&self, id: u64) -> Option<PollState> {
        let st = self.inner.state.lock().expect("service state");
        st.jobs.get(&id).map(Job::poll)
    }

    /// [`poll`](Self::poll), but blocks until the job is done, the
    /// timeout elapses, or the service shuts down.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<PollState> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock().expect("service state");
        loop {
            let state = st.jobs.get(&id).map(Job::poll);
            let remaining = deadline.saturating_duration_since(Instant::now());
            if matches!(state, None | Some(PollState::Done(_)))
                || st.shutdown
                || remaining.is_zero()
            {
                return state;
            }
            let (guard, _) = self
                .inner
                .done
                .wait_timeout(st, remaining)
                .expect("service state");
            st = guard;
        }
    }

    /// The recorded replay journal of job `id`, when the job was submitted
    /// with `journal:true`, finished, and is still retained. The text is
    /// the standard [`Journal`] JSON document, replayable by
    /// `risc1 replay`.
    pub fn journal(&self, id: u64) -> Option<Arc<String>> {
        let st = self.inner.state.lock().expect("service state");
        match &st.jobs.get(&id)?.state {
            JobState::Done(_, journal) => journal.clone(),
            _ => None,
        }
    }

    /// A point-in-time status snapshot: queue depths, retry/dedup/shed
    /// counters, per-cause trap totals.
    pub fn status(&self) -> StatusReport {
        let st = self.inner.state.lock().expect("service state");
        StatusReport {
            queues: st.queues.depths(),
            queued: st.queues.depth(),
            running: st
                .jobs
                .values()
                .filter(|j| matches!(j.state, JobState::Running))
                .count(),
            cached: st.completed_order.len(),
            counters: st.counters.clone(),
        }
    }

    /// Stops admitting work, lets the in-flight batch finish, and joins
    /// the scheduler thread. Queued-but-unstarted jobs are abandoned.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().expect("service state");
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        self.inner.done.notify_all();
        let handle = self.scheduler.lock().expect("scheduler handle").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for ExecService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn scheduler_loop(inner: &Inner) {
    loop {
        // Claim a batch (or exit on shutdown).
        let batch: Vec<(u64, JobSpec, JobKey)> = {
            let mut st = inner.state.lock().expect("service state");
            loop {
                if st.shutdown {
                    return;
                }
                // Four jobs per worker: enough to keep every worker busy
                // across uneven job lengths, few enough that a batch's
                // results are not held back long.
                let ids = st.queues.drain(inner.cfg.threads.max(1) * 4);
                if !ids.is_empty() {
                    break ids
                        .into_iter()
                        .map(|id| {
                            let job = st.jobs.get_mut(&id).expect("a queued job is in the table");
                            let JobState::Queued(spec) =
                                std::mem::replace(&mut job.state, JobState::Running)
                            else {
                                unreachable!("the queues hold only queued jobs");
                            };
                            (id, spec, job.key)
                        })
                        .collect();
                }
                st = inner.work.wait(st).expect("service state");
            }
        };
        // Execute outside the lock; the deterministic runner keeps results
        // independent of the worker count.
        let outs = parallel_map(&batch, inner.cfg.threads, |_, (id, spec, key)| {
            let (out, journal) = execute(spec, *key, &inner.cfg.artifact_dir);
            (*id, out, journal)
        });
        let mut st = inner.state.lock().expect("service state");
        for (id, out, journal) in outs {
            record_completion(&mut st, id, out, journal.map(Arc::new));
        }
        evict_retained(&mut st, inner.cfg.cache_cap);
        drop(st);
        inner.done.notify_all();
    }
}

fn record_completion(st: &mut State, id: u64, out: JobOutput, journal: Option<Arc<String>>) {
    match &out {
        JobOutput::Finished(r) => add_traps(&mut st.counters, &r.stats.trap_counts),
        JobOutput::Supervised(r) => {
            st.counters.retries += u64::from(r.attempts.saturating_sub(1));
            st.counters.escalations += u64::from(r.escalations);
            add_traps(&mut st.counters, &r.stats.trap_counts);
        }
        JobOutput::TimedOut { stats, .. } => {
            st.counters.timeouts += 1;
            add_traps(&mut st.counters, &stats.trap_counts);
        }
        JobOutput::SetupFailed { .. } => st.counters.setup_failures += 1,
        JobOutput::Panicked { .. } => st.counters.panics += 1,
        JobOutput::SnapshotRejected { .. } => st.counters.snapshots_rejected += 1,
        // Only created by WAL replay, which never routes through here.
        JobOutput::Recovered { .. } => {}
    }
    st.counters.completed += 1;
    if let Some(wal) = st.wal.as_mut() {
        if let Err(e) = wal.append_done(id, &out) {
            eprintln!("risc1-serve: WAL done append failed: {e}");
        }
    }
    st.jobs
        .get_mut(&id)
        .expect("a running job is in the table")
        .state = JobState::Done(out, journal);
    st.completed_order.push_back(id);
}

/// Rebuilds service state from a replayed write-ahead log: admits with a
/// matching done record become [`JobOutput::Recovered`] results (dedup
/// and job table re-seeded, responses byte-identical); admits
/// without one re-enqueue under their original ids for idempotent
/// re-execution.
fn seed_from_wal(st: &mut State, records: Vec<WalRecord>) {
    let mut admits = Vec::new();
    let mut dones: HashMap<u64, (u64, String)> = HashMap::new();
    for rec in records {
        match rec {
            WalRecord::Admit {
                id,
                client,
                weight,
                spec,
            } => admits.push((id, client, weight, spec)),
            WalRecord::Done { id, digest, result } => {
                // Duplicate done records (a recovered-then-re-executed
                // job) carry identical digests; last wins either way.
                dones.insert(id, (digest, result));
            }
        }
    }
    for (id, client, weight, spec) in admits {
        st.next_id = st.next_id.max(id + 1);
        let key = spec.key();
        if let Some((digest, summary)) = dones.remove(&id) {
            let kind = result_kind(&summary);
            let out = JobOutput::Recovered {
                kind,
                digest,
                summary,
            };
            let state = JobState::Done(out, None);
            st.jobs.insert(id, Job { key, state });
            st.dedup.insert(key, id);
            st.completed_order.push_back(id);
            st.counters.wal_reseeded += 1;
        } else {
            let state = JobState::Queued(*spec);
            st.jobs.insert(id, Job { key, state });
            st.dedup.insert(key, id);
            st.queues.force_push(&client, weight, id);
            st.counters.wal_replayed += 1;
        }
    }
}

/// The `kind` tag of a stored result rendering, for the recovered
/// output's own tag. The log wrote this JSON itself, so a parse failure
/// means on-disk corruption that slipped past record parsing; surface it
/// as a tag rather than guessing.
fn result_kind(summary: &str) -> String {
    Parser::new(summary)
        .parse_document()
        .ok()
        .and_then(|doc| {
            let obj = doc.as_obj("result").ok()?;
            Some(get(obj, "kind").ok()?.as_str("kind").ok()?.to_owned())
        })
        .unwrap_or_else(|| "unreadable".to_owned())
}

/// Keeps the finished-job table bounded: only the most recent `retain`
/// completions stay pollable by id and serve dedup.
fn evict_retained(st: &mut State, retain: usize) {
    while st.completed_order.len() > retain {
        let Some(old) = st.completed_order.pop_front() else {
            break;
        };
        if let Some(job) = st.jobs.remove(&old) {
            if st.dedup.get(&job.key) == Some(&old) {
                st.dedup.remove(&job.key);
            }
        }
    }
}

fn add_traps(counters: &mut Counters, trap_counts: &[u64; TrapKind::COUNT]) {
    for (total, n) in counters.trap_totals.iter_mut().zip(trap_counts) {
        *total += n;
    }
}

/// Runs one job to a structured [`JobOutput`], plus the recorded journal
/// text when the spec asked for one and the run finished. Never panics:
/// the simulator call is wrapped in `catch_unwind`, and a caught panic
/// journals the events applied so far to the replay-artifacts funnel.
fn execute(spec: &JobSpec, key: JobKey, artifact_dir: &str) -> (JobOutput, Option<String>) {
    let deadline = spec.timeout_ms.map(Deadline::after_ms);
    if let Some(snap) = spec.snapshot.as_deref() {
        // Warm start (direct, clean and unrecorded, by the submit rules):
        // resume from the validated snapshot and execute only the suffix.
        // The restored statistics cover the prefix, so a finished report
        // is bit-identical to a cold run.
        let run = catch_unwind(AssertUnwindSafe(|| run_risc_resumed(snap, deadline)));
        let out = match run {
            Ok(Ok(TimedOutcome::Finished(report))) => JobOutput::Finished(report),
            Ok(Ok(TimedOutcome::TimedOut { stats, events })) => {
                JobOutput::TimedOut { stats, events }
            }
            Ok(Err(e)) => JobOutput::SnapshotRejected {
                message: e.to_string(),
            },
            Err(payload) => JobOutput::Panicked {
                message: panic_message(&payload),
                artifact: None,
            },
        };
        return (out, None);
    }
    match spec.mode {
        JobMode::Direct => {
            // The event sink lives outside `catch_unwind` so a panicking
            // job still yields the schedule it applied before dying.
            let sink = Mutex::new(Vec::new());
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut events = sink.lock().expect("sink is unpoisoned before the run");
                run_risc_deadline(
                    &spec.program,
                    &spec.args,
                    spec.cfg.clone(),
                    spec.inject,
                    spec.recovery,
                    deadline,
                    Some(&mut events),
                )
            }));
            let recorded = sink.into_inner().unwrap_or_else(|e| e.into_inner());
            match run {
                Ok(Ok(TimedOutcome::Finished(report))) => {
                    let journal = spec
                        .journal
                        .then(|| build_journal(spec, recorded, &report).to_json());
                    (JobOutput::Finished(report), journal)
                }
                Ok(Ok(TimedOutcome::TimedOut { stats, events })) => {
                    (JobOutput::TimedOut { stats, events }, None)
                }
                Ok(Err(e)) => (
                    JobOutput::SetupFailed {
                        message: e.to_string(),
                    },
                    None,
                ),
                Err(payload) => (
                    JobOutput::Panicked {
                        message: panic_message(&payload),
                        artifact: journal_panic(spec, recorded, artifact_dir, key),
                    },
                    None,
                ),
            }
        }
        JobMode::Supervised {
            ckpt_every,
            max_retries,
        } => {
            let sup = SupervisorConfig {
                ckpt_every,
                max_retries,
                deadline,
                ..SupervisorConfig::default()
            };
            let run = catch_unwind(AssertUnwindSafe(|| {
                run_risc_supervised(
                    &spec.program,
                    &spec.args,
                    spec.cfg.clone(),
                    spec.inject,
                    spec.recovery,
                    sup,
                )
            }));
            let out = match run {
                Ok(Ok(report)) => JobOutput::Supervised(report),
                Ok(Err(e)) => JobOutput::SetupFailed {
                    message: e.to_string(),
                },
                Err(payload) => JobOutput::Panicked {
                    message: panic_message(&payload),
                    artifact: journal_panic(spec, Vec::new(), artifact_dir, key),
                },
            };
            (out, None)
        }
    }
}

/// The replay journal of a finished direct run: the spec's campaign plus
/// the step-keyed events the deadline runner recorded and the comparable
/// outcome triple — exactly what `risc1 replay` consumes.
fn build_journal(
    spec: &JobSpec,
    events: Vec<JournalEvent>,
    report: &risc1_ir::InjectReport,
) -> Journal {
    Journal {
        outcome: Some(recorded_outcome(report)),
        ..spec.replay_journal(events)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Journals a panicking job's campaign (program, config, events applied so
/// far, no outcome) into the same artifact funnel the CI injection sweep
/// uses, so `risc1 replay` can reproduce the crash offline.
fn journal_panic(
    spec: &JobSpec,
    events: Vec<JournalEvent>,
    dir: &str,
    key: JobKey,
) -> Option<String> {
    let journal = spec.replay_journal(events);
    std::fs::create_dir_all(dir).ok()?;
    let path = format!(
        "{dir}/serve_panic_{:016x}_{:016x}_seed{}.json",
        key.program, key.config, key.seed
    );
    std::fs::write(&path, journal.to_json()).ok()?;
    Some(path)
}
