//! # `risc1-serve` — fault-tolerant batch execution service
//!
//! The serving layer over the simulator stack: a long-running,
//! dependency-free service that accepts campaign jobs (program + seed
//! range + [`SimConfig`](risc1_core::SimConfig) + fuel/deadline budget),
//! schedules them with per-client fair-share weighted queuing over the
//! deterministic campaign runner, and executes each job either directly
//! or under the checkpoint/rollback/escalate supervisor.
//!
//! The design is crash-only and semantically transparent:
//!
//! * **Transparency law** — a direct job's result is bit-identical to
//!   [`run_risc_injected`](risc1_ir::run_risc_injected) of the same
//!   `(program, args, cfg, inject, recovery)`; `tests/serve_chaos.rs`
//!   drives concurrent clients against a mixed clean/injected workload
//!   and checks every accepted job against a local rerun.
//! * **Load shedding, never silent drops** — per-client queues are
//!   bounded; an overflowing submission is rejected atomically with a
//!   structured [`Overloaded`], and the shed count is visible in
//!   [`status`](ExecService::status).
//! * **Idempotent dedup** — jobs are keyed by `(program hash, config
//!   hash, seed)`; a duplicate submission is served by the in-flight or
//!   retained job with its key. The last
//!   [`cache_cap`](ServiceConfig::cache_cap) finished jobs stay retained.
//! * **Crash-only workers** — a panicking job is caught, journaled to
//!   the replay-artifacts funnel for offline `risc1 replay`, and reported
//!   as a structured [`JobOutput::Panicked`].
//! * **Watchdogs** — per-job wall-clock [`Deadline`](risc1_core::Deadline)s
//!   layered on the simulator's fuel preemption.
//!
//! * **Durability** — with a [`wal_dir`](ServiceConfig::wal_dir), every
//!   admission and completion hits a crash-safe [write-ahead log](wal)
//!   before the client hears about it; `--recover` replays the log on
//!   restart so a `kill -9` mid-campaign loses nothing and every digest
//!   stays bit-identical.
//! * **Warm starts** — a job may carry a checksummed
//!   [`Snapshot`](risc1_core::Snapshot) and resume from it; wire
//!   snapshots are untrusted and every corruption/version/config mismatch
//!   is a structured [`JobOutput::SnapshotRejected`].
//! * **Streamed replay journals** — `journal:true` jobs retain a replay
//!   journal the client can pull in bounded, acked chunks and replay
//!   bit for bit with `risc1 replay`, no server filesystem access needed.
//!
//! Transports: in-process (library calls), TCP, or stdin/stdout — all
//! speaking the newline-delimited JSON protocol in [`wire`].

pub mod job;
pub mod queue;
pub mod server;
pub mod service;
pub mod wal;
pub mod wire;

pub use job::{JobKey, JobMode, JobOutput, JobSpec};
pub use queue::{Overloaded, QueueDepth};
pub use server::{handle_line, serve_lines, serve_tcp, MAX_WIRE_LINE_BYTES};
pub use service::{
    Counters, ExecService, PollState, ServiceConfig, StatusReport, SubmitError, SubmitTicket,
};
pub use wal::{replay_wal, WalRecord, WalScan, WalWriter};
