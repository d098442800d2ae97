//! # `risc1-ir` — the shared mini-C intermediate representation and its two
//! code generators
//!
//! The RISC I paper's evaluation method is: take a set of C benchmarks,
//! compile *the same source* for RISC I and for the commercial CISC
//! machines, and compare execution time, code size, instruction mix and
//! procedure-call cost. The C compilers for those machines are long gone,
//! so this crate plays their role:
//!
//! * [`ast`] — a small, C-flavoured IR: `i32` scalars, word/byte global
//!   arrays, expressions, `if`/`while`, procedure calls (≤ 6 register
//!   arguments, matching the RISC I window convention);
//! * [`interp`] — a reference interpreter, the oracle for differential
//!   testing of both backends;
//! * [`risc`] — the RISC I code generator: register-window calling
//!   convention, locals in LOCAL registers, software multiply/divide
//!   runtime (RISC I has no multiply instruction — true to the chip),
//!   and an optional delay-slot-filling peephole pass ([`delay`]);
//! * [`cx`] — the CX code generator: stack frames via `CALLS`/`RET`,
//!   memory operands, native multiply/divide — idiomatic code for a
//!   VAX-class machine;
//! * [`m68`] — the MC code generator: the same calling structure on the
//!   16-bit-word machine (`LINK`/`UNLK` frames, two-address ALU ops).
//!
//! ## Example: one source, two machines, one answer
//!
//! ```
//! use risc1_ir::ast::dsl::*;
//! use risc1_ir::{compile_cx, compile_risc, run_cx, run_risc, RiscOpts};
//!
//! // fn main(n) { return n + 2; }
//! let m = module(vec![
//!     function("main", 1, 1, vec![ret(add(local(0), konst(2)))]),
//! ], vec![]);
//!
//! let risc = compile_risc(&m, RiscOpts::default()).unwrap();
//! let cx = compile_cx(&m).unwrap();
//! assert_eq!(run_risc(&risc, &[40]).unwrap().0, 42);
//! assert_eq!(run_cx(&cx, &[40]).unwrap().0, 42);
//! ```

pub mod ast;
pub mod campaign;
pub mod cx;
pub mod delay;
pub mod interp;
pub mod layout;
pub mod m68;
pub mod rasm;
pub mod replay;
pub mod risc;
pub mod runner;
pub mod supervise;

pub use ast::{BinOp, CmpOp, Expr, Function, Global, Module, Stmt, ValidateError};
pub use campaign::{default_threads, parallel_map, parse_threads, seed_jobs};
pub use cx::compile_cx;
pub use interp::{interpret, InterpError};
pub use m68::compile_mc;
pub use replay::{
    minimize_journal, outcome_signature, record_risc_injected, recorded_outcome, replay_journal,
};
pub use risc::{compile_risc, RiscOpts};
pub use runner::{
    run_cx, run_cx_with, run_mc, run_mc_with, run_risc, run_risc_deadline, run_risc_injected,
    run_risc_resumed, run_risc_with, snapshot_risc_prefix, CodegenError, InjectOutcome,
    InjectReport, InjectSetupError, TimedOutcome,
};
pub use supervise::{
    run_risc_supervised, SupervisorConfig, SupervisorOutcome, SupervisorReport, DEFAULT_CKPT_EVERY,
};
