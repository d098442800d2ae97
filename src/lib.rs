//! # `risc1` — facade crate for the RISC I reproduction workspace.
//!
//! Re-exports every subsystem under one roof. See the individual crates for
//! detail: [`isa`], [`core`], [`asm`], [`cisc`], [`m68`], [`ir`], [`lint`],
//! [`workloads`], [`stats`], [`experiments`].

pub use risc1_asm as asm;
pub use risc1_cisc as cisc;
pub use risc1_core as core;
pub use risc1_experiments as experiments;
pub use risc1_ir as ir;
pub use risc1_isa as isa;
pub use risc1_lint as lint;
pub use risc1_m68 as m68;
pub use risc1_serve as serve;
pub use risc1_stats as stats;
pub use risc1_workloads as workloads;

// Robustness surface, re-exported flat so downstream users get the whole
// checkpoint / record–replay / supervision story without depending on
// `risc1-core` or `risc1-ir` directly.
pub use risc1_core::{
    CheckpointStats, Checkpointer, Journal, JournalError, JournalEvent, RecordedOutcome,
    ReplayContext, RestoreError, Snapshot,
};
pub use risc1_ir::{
    minimize_journal, record_risc_injected, recorded_outcome, replay_journal, run_risc_deadline,
    run_risc_injected, run_risc_supervised, InjectOutcome, InjectReport, InjectSetupError,
    SupervisorConfig, SupervisorOutcome, SupervisorReport, TimedOutcome,
};
pub use risc1_serve::{
    ExecService, JobMode, JobOutput, JobSpec, Overloaded, PollState, ServiceConfig, SubmitError,
    SubmitTicket,
};
