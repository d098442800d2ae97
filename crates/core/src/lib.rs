//! # `risc1-core` — cycle-level simulator for the RISC I processor
//!
//! This crate is the paper's machine: a functional + timing simulator of the
//! RISC I microarchitecture described in Patterson & Séquin (ISCA 1981).
//! It provides:
//!
//! * [`mem::Memory`] — a byte-addressable little-endian memory with
//!   alignment checking and traffic accounting,
//! * [`windows::WindowFile`] — the overlapped register-window file (the
//!   paper's central mechanism), with configurable window count, circular
//!   overlap, and overflow/underflow spill machinery,
//! * [`cpu::Cpu`] — the executor and its timing model: delayed jumps,
//!   condition codes, window traps serviced by a built-in (cycle-accounted)
//!   spill/fill sequence, the paper's delayed-branch pipeline, the
//!   "suspended pipeline" alternative it argues against, and load-use
//!   interlock modelling with or without internal forwarding,
//! * [`pipeline`] — the timing diagrams and summary figures drawn from the
//!   rows of a `Cpu`'s retirement recorder,
//! * [`stats::ExecStats`] — every counter the evaluation experiments need.
//!
//! ## Example: run a tiny program
//!
//! ```
//! use risc1_core::{Cpu, Program, SimConfig};
//! use risc1_isa::{Instruction, Opcode, Reg, Short2};
//!
//! // main: r16 := 2 + 3, then return (halts at depth 0)
//! let prog = Program::from_instructions(vec![
//!     Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, Short2::imm(2).unwrap()),
//!     Instruction::reg(Opcode::Add, Reg::R16, Reg::R16, Short2::imm(3).unwrap()),
//!     Instruction::ret(Reg::R25, Short2::imm(0).unwrap()),
//!     Instruction::nop(), // delay slot of the ret
//! ]);
//! let mut cpu = Cpu::new(SimConfig::default());
//! cpu.load_program(&prog).unwrap();
//! cpu.run().unwrap();
//! assert_eq!(cpu.reg(risc1_isa::Reg::R16), 5);
//! ```

pub mod config;
pub mod cpu;
pub mod deadline;
pub mod exec;
pub mod inject;
pub mod journal;
pub mod json;
mod line;
pub mod mem;
pub mod pipeline;
pub mod program;
mod retire;
pub mod snapshot;
pub mod stats;
mod superblock;
mod trace;
pub mod trap;
pub mod windows;

pub use config::{BranchModel, ExecEngine, FusionConfig, SimConfig};
pub use cpu::{Cpu, ExecError, Halt, TooManyArgs, TRAP_VECTOR_STRIDE};
pub use deadline::Deadline;
pub use inject::{FaultInjector, InjectConfig, InjectEvent, InjectKind, XorShift64};
pub use journal::{Journal, JournalError, JournalEvent, RecordedOutcome, JOURNAL_VERSION};
pub use mem::{MemError, Memory, PAGE_BYTES};
pub use program::Program;
pub use snapshot::{
    config_hash, page_sum, CheckpointStats, Checkpointer, RestoreError, Snapshot, CKPT_BASE_CYCLES,
    MAX_SNAPSHOT_MEM_BYTES, MAX_SNAPSHOT_TRAP_OVERHEAD_CYCLES, MAX_SNAPSHOT_WINDOWS,
    SNAPSHOT_VERSION,
};
pub use stats::{ExecStats, FuseKind, OpcodeCounts};
pub use trap::{TrapCause, TrapKind};
pub use windows::WindowFile;
