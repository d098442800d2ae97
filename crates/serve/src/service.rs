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
//! submit ──▶ dedup hit? ──────────────▶ ticket (cached / in-flight id)
//!    │
//!    ├──▶ queue full? ──▶ Overloaded (whole submission shed, counted)
//!    │
//!    └──▶ Queued ──▶ Running ──▶ Done(JobOutput)
//!                      │  supervised jobs retry with backoff inside the
//!                      │  PR-3 supervisor; poisoned checkpoints escalate
//!                      └─ panic ──▶ journal to artifacts ──▶ Done(Panicked)
//! ```
//!
//! With a [`wal_dir`](ServiceConfig::wal_dir) configured, every admission
//! and completion is appended to a [write-ahead log](crate::wal) before
//! the client hears about it, and [`recover`](ServiceConfig::recover)
//! replays that log on startup: completed results re-seed the cache and
//! job table (byte-identical to the pre-crash responses), incomplete jobs
//! re-enqueue under their original ids, and the idempotent job keys make
//! re-execution safe — a `kill -9` mid-campaign loses nothing.
//!
//! [`submit`]: ExecService::submit

use crate::cache::ResultCache;
use crate::job::{JobKey, JobMode, JobOutput, JobSpec};
use crate::queue::{Overloaded, QueueDepth, QueueSet};
use crate::wal::{replay_wal, WalRecord, WalWriter};
use risc1_core::json::{get, Parser};
use risc1_core::{Deadline, Journal, JournalEvent, TrapKind};
use risc1_ir::{
    default_threads, parallel_map, recorded_outcome, run_risc_deadline, run_risc_resumed,
    run_risc_supervised, SupervisorConfig, TimedOutcome,
};
use std::collections::{HashMap, HashSet, VecDeque};
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
    /// Bound on the LRU result cache *and* on retained finished jobs.
    pub cache_cap: usize,
    /// Most jobs the scheduler drains into one parallel batch.
    pub batch_max: usize,
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
        let threads = default_threads();
        ServiceConfig {
            threads,
            queue_cap: 64,
            cache_cap: 256,
            batch_max: threads.max(1) * 4,
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
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded(o) => write!(f, "{o}"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
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
    /// in-flight or cached execution of an identical spec.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Jobs accepted for execution (dedup hits not included).
    pub submitted: u64,
    /// Submitted jobs served from the dedup map or result cache.
    pub dedup_hits: u64,
    /// Jobs rejected by load shedding.
    pub shed: u64,
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
    /// Warm-start snapshots rejected at restore time (corruption, version
    /// skew, config mismatch).
    pub snapshots_rejected: u64,
    /// Per-cause trap totals accumulated from every finished job, indexed
    /// by [`TrapKind::index`].
    pub trap_totals: [u64; TrapKind::COUNT],
}

impl Default for Counters {
    fn default() -> Counters {
        Counters {
            submitted: 0,
            dedup_hits: 0,
            shed: 0,
            completed: 0,
            panics: 0,
            timeouts: 0,
            setup_failures: 0,
            retries: 0,
            escalations: 0,
            wal_replayed: 0,
            wal_reseeded: 0,
            snapshots_rejected: 0,
            trap_totals: [0; TrapKind::COUNT],
        }
    }
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
    /// Entries in the result cache.
    pub cached: usize,
    /// The monotonic counters.
    pub counters: Counters,
}

// Resident in the job table, but the table is bounded by `cache_cap`
// retention — a few hundred entries — so the variant size gap is cheaper
// than indirecting every poll.
#[allow(clippy::large_enum_variant)]
enum JobState {
    Queued,
    Running,
    Done(JobOutput),
}

struct State {
    queues: QueueSet,
    /// Specs of queued jobs (removed when the scheduler claims them).
    specs: HashMap<u64, JobSpec>,
    jobs: HashMap<u64, JobState>,
    keys: HashMap<u64, JobKey>,
    /// Canonical job id per key, for in-flight dedup.
    dedup: HashMap<JobKey, u64>,
    cache: ResultCache,
    counters: Counters,
    next_id: u64,
    shutdown: bool,
    /// Finished job ids, oldest first, so retention stays bounded.
    completed_order: VecDeque<u64>,
    /// The write-ahead log's append half, when durability is on. Written
    /// under this state lock so log order matches admission order.
    wal: Option<WalWriter>,
    /// Recorded replay journals of finished `journal:true` jobs, retained
    /// (and evicted) alongside the job table for streamed download.
    journals: HashMap<u64, Arc<String>>,
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
            specs: HashMap::new(),
            jobs: HashMap::new(),
            keys: HashMap::new(),
            dedup: HashMap::new(),
            cache: ResultCache::new(cfg.cache_cap),
            counters: Counters::default(),
            next_id: 1,
            shutdown: false,
            completed_order: VecDeque::new(),
            wal: None,
            journals: HashMap::new(),
        };
        if let Some(dir) = cfg.wal_dir.as_deref() {
            let dir = Path::new(dir);
            if cfg.recover {
                let (records, _) = replay_wal(dir)
                    .unwrap_or_else(|e| panic!("cannot replay WAL in {}: {e}", dir.display()));
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
    /// matches an in-flight or cached job are served by dedup and do not
    /// consume queue space.
    ///
    /// # Errors
    /// [`SubmitError::Overloaded`] when the fresh jobs would overflow the
    /// client's queue (they are counted as shed);
    /// [`SubmitError::ShuttingDown`] after [`shutdown`](Self::shutdown).
    pub fn submit(
        &self,
        client: &str,
        weight: u32,
        specs: Vec<JobSpec>,
    ) -> Result<Vec<SubmitTicket>, SubmitError> {
        let mut st = self.inner.state.lock().expect("service state");
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let keys: Vec<JobKey> = specs.iter().map(JobSpec::key).collect();

        // Count the genuinely new jobs first so admission is atomic.
        let mut batch_seen = HashSet::new();
        let mut fresh = 0usize;
        for key in &keys {
            if !st.dedup.contains_key(key) && st.cache.get(key).is_none() && batch_seen.insert(*key)
            {
                fresh += 1;
            }
        }
        let depth = st
            .queues
            .depths()
            .iter()
            .find(|q| q.client == client)
            .map_or(0, |q| q.depth);
        if depth + fresh > self.inner.cfg.queue_cap {
            st.counters.shed += specs.len() as u64;
            return Err(SubmitError::Overloaded(Overloaded {
                client: client.to_owned(),
                depth,
                capacity: self.inner.cfg.queue_cap,
                rejected: specs.len(),
            }));
        }

        let mut tickets = Vec::with_capacity(specs.len());
        let mut enqueue = Vec::new();
        for (spec, key) in specs.into_iter().zip(keys) {
            let seed = spec.inject.map_or(0, |i| i.seed);
            if let Some(&id) = st.dedup.get(&key) {
                st.counters.dedup_hits += 1;
                tickets.push(SubmitTicket {
                    seed,
                    id,
                    dedup: true,
                });
            } else if let Some(out) = st.cache.get(&key).cloned() {
                // Completed long ago and since evicted from the job table:
                // materialise a fresh Done job straight from the cache.
                let id = st.next_id;
                st.next_id += 1;
                st.jobs.insert(id, JobState::Done(out));
                st.keys.insert(id, key);
                st.dedup.insert(key, id);
                st.completed_order.push_back(id);
                st.counters.dedup_hits += 1;
                tickets.push(SubmitTicket {
                    seed,
                    id,
                    dedup: true,
                });
            } else {
                let id = st.next_id;
                st.next_id += 1;
                // Log the admission before the ticket exists: a crash after
                // this line re-runs the job, a crash before it means the
                // client never got a ticket to lose.
                if let Some(wal) = st.wal.as_mut() {
                    if let Err(e) = wal.append_admit(id, client, weight, &spec) {
                        eprintln!("risc1-serve: WAL admit append failed: {e}");
                    }
                }
                st.specs.insert(id, spec);
                st.jobs.insert(id, JobState::Queued);
                st.keys.insert(id, key);
                st.dedup.insert(key, id);
                st.counters.submitted += 1;
                enqueue.push(id);
                tickets.push(SubmitTicket {
                    seed,
                    id,
                    dedup: false,
                });
            }
        }
        st.queues
            .try_push(client, weight, &enqueue)
            .expect("admission was checked before ids were allocated");
        evict_retained(&mut st, self.inner.cfg.cache_cap);
        drop(st);
        self.inner.work.notify_all();
        Ok(tickets)
    }

    /// Where job `id` currently is (`None` for ids the service does not
    /// know — never issued, or finished and since evicted by retention).
    pub fn poll(&self, id: u64) -> Option<PollState> {
        let st = self.inner.state.lock().expect("service state");
        st.jobs.get(&id).map(|j| match j {
            JobState::Queued => PollState::Queued,
            JobState::Running => PollState::Running,
            JobState::Done(out) => PollState::Done(out.clone()),
        })
    }

    /// [`poll`](Self::poll), but blocks until the job is done, the
    /// timeout elapses, or the service shuts down.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<PollState> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock().expect("service state");
        loop {
            match st.jobs.get(&id) {
                None => return None,
                Some(JobState::Done(out)) => return Some(PollState::Done(out.clone())),
                Some(JobState::Queued) | Some(JobState::Running) => {}
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if st.shutdown || remaining.is_zero() {
                return self_poll(&st, id);
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
        st.journals.get(&id).cloned()
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
                .filter(|j| matches!(j, JobState::Running))
                .count(),
            cached: st.cache.len(),
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

fn self_poll(st: &State, id: u64) -> Option<PollState> {
    st.jobs.get(&id).map(|j| match j {
        JobState::Queued => PollState::Queued,
        JobState::Running => PollState::Running,
        JobState::Done(out) => PollState::Done(out.clone()),
    })
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
                let ids = st.queues.drain(inner.cfg.batch_max);
                if !ids.is_empty() {
                    break ids
                        .into_iter()
                        .map(|id| {
                            let spec = st.specs.remove(&id).expect("queued job has a spec");
                            let key = st.keys[&id];
                            st.jobs.insert(id, JobState::Running);
                            (id, spec, key)
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
            (*id, *key, out, journal)
        });
        let mut st = inner.state.lock().expect("service state");
        for (id, key, out, journal) in outs {
            record_completion(&mut st, id, key, out);
            if let Some(text) = journal {
                st.journals.insert(id, Arc::new(text));
            }
        }
        evict_retained(&mut st, inner.cfg.cache_cap);
        drop(st);
        inner.done.notify_all();
    }
}

fn record_completion(st: &mut State, id: u64, key: JobKey, out: JobOutput) {
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
    st.cache.insert(key, out.clone());
    st.jobs.insert(id, JobState::Done(out));
    st.completed_order.push_back(id);
}

/// Rebuilds service state from a replayed write-ahead log: admits with a
/// matching done record become [`JobOutput::Recovered`] results (cache,
/// dedup and job table re-seeded, responses byte-identical); admits
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
            st.cache.insert(key, out.clone());
            st.jobs.insert(id, JobState::Done(out));
            st.keys.insert(id, key);
            st.dedup.insert(key, id);
            st.completed_order.push_back(id);
            st.counters.wal_reseeded += 1;
        } else {
            st.specs.insert(id, *spec);
            st.jobs.insert(id, JobState::Queued);
            st.keys.insert(id, key);
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
/// completions stay pollable by id (their outputs remain in the LRU cache
/// a while longer, so dedup still works after eviction).
fn evict_retained(st: &mut State, retain: usize) {
    while st.completed_order.len() > retain {
        let Some(old) = st.completed_order.pop_front() else {
            break;
        };
        st.jobs.remove(&old);
        st.journals.remove(&old);
        if let Some(key) = st.keys.remove(&old) {
            if st.dedup.get(&key) == Some(&old) {
                st.dedup.remove(&key);
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
    match spec.mode {
        JobMode::Direct if spec.snapshot.is_some() => {
            // Warm start: resume from the validated snapshot and execute
            // only the suffix. The restored statistics cover the prefix,
            // so a finished report is bit-identical to a cold run.
            let snap = spec.snapshot.as_deref().expect("checked above");
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
            (out, None)
        }
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
        events,
        outcome: Some(recorded_outcome(report)),
        ..Journal::new(
            &spec.program,
            &spec.args,
            spec.cfg.clone(),
            spec.inject,
            spec.recovery,
        )
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
    let journal = Journal {
        events,
        ..Journal::new(
            &spec.program,
            &spec.args,
            spec.cfg.clone(),
            spec.inject,
            spec.recovery,
        )
    };
    std::fs::create_dir_all(dir).ok()?;
    let path = format!(
        "{dir}/serve_panic_{:016x}_{:016x}_seed{}.json",
        key.program, key.config, key.seed
    );
    std::fs::write(&path, journal.to_json()).ok()?;
    Some(path)
}
