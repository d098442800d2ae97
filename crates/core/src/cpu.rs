//! The RISC I processor: functional execution plus the paper's timing model.
//!
//! Semantics implemented here, all per the paper / tech report:
//!
//! * **Delayed jumps.** Every transfer of control executes the instruction
//!   that follows it before the target (there is no annulment in RISC I).
//!   A transfer *in* a delay slot is architecturally undefined; the
//!   simulator reports it as an error.
//! * **Register windows.** `CALL`/`CALLR` advance the window before writing
//!   the return address, so the link register is named in the *callee's*
//!   window. `RET` reads its target in the callee's window, then retreats.
//!   Overflow/underflow traps are serviced by a built-in 16-transfer
//!   spill/fill sequence against a save stack in memory, fully accounted in
//!   cycles and memory traffic.
//! * **Timing.** 1 cycle per instruction, 2 for memory access instructions,
//!   plus model-dependent bubbles (see [`crate::config::BranchModel`] and
//!   the `forwarding` flag).
//! * **Halt convention.** A `RET` (or `RETI`) executed at call depth 0
//!   terminates the program; the return value is read from `r26` by
//!   [`Cpu::result`].

use crate::config::{BranchModel, ExecEngine, SimConfig};
use crate::exec::alu;
use crate::icache::{ICache, Line};
use crate::mem::{MemError, Memory};
use crate::program::Program;
use crate::snapshot::{CpuState, RestoreError, Snapshot};
use crate::stats::{ExecStats, FuseKind};
use crate::superblock::{BOp, BlockCache};
use crate::trace::{self, TExit, TMeta, TOp, TraceCache};
use crate::trap::{TrapCause, TrapKind};
use crate::windows::{WindowFile, SPILL_REGS};
use risc1_isa::psw::Flags;
use risc1_isa::{DecodeError, Instruction, Opcode, Psw, Reg, Short2, INSN_BYTES};
use std::fmt;
use std::sync::Arc;

/// Why the simulator stopped with an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A data or instruction access faulted.
    Mem {
        /// PC of the faulting instruction.
        pc: u32,
        /// The underlying fault.
        err: MemError,
    },
    /// The word at `pc` does not decode to an instruction.
    Decode {
        /// PC of the undecodable word.
        pc: u32,
        /// The decode failure.
        err: DecodeError,
    },
    /// The configured fuel limit was exhausted (runaway program).
    OutOfFuel,
    /// A transfer of control sat in the delay slot of another transfer —
    /// architecturally undefined on RISC I.
    TransferInDelaySlot {
        /// PC of the offending (second) transfer.
        pc: u32,
    },
    /// The window-save stack ran into the program stack region.
    WindowStackOverflow {
        /// Save-stack pointer at the time of the failure.
        ptr: u32,
    },
    /// A second fault arrived while a trap handler was already running.
    /// The trap unit refuses to recurse: the run terminates with both
    /// causes preserved.
    DoubleFault {
        /// PC of the second fault.
        pc: u32,
        /// The trap being serviced when the second fault hit.
        first: TrapKind,
        /// The fault that arrived inside the handler.
        second: TrapKind,
        /// Where to pick the failure up again: the last checkpoint taken
        /// and the journal position reached, when a checkpointer and/or
        /// recorder was attached to this CPU.
        ctx: ReplayContext,
    },
    /// Historical: `step` after halt now idempotently returns
    /// [`Halt::Returned`] instead of this error. The variant is retained
    /// for API stability and is no longer produced by the simulator.
    AlreadyHalted,
}

impl ExecError {
    /// The architectural trap this error corresponds to, if it is a
    /// vectorable fault (fuel exhaustion, double faults and the historical
    /// `AlreadyHalted` are not traps).
    ///
    /// For memory faults, an out-of-range access at the faulting PC itself
    /// is classified as an instruction-access fault, anything else as a
    /// data-access fault.
    pub fn trap_cause(&self) -> Option<TrapCause> {
        match *self {
            ExecError::Mem { pc, err } => Some(match err {
                MemError::Misaligned { addr, .. } => TrapCause {
                    kind: TrapKind::Misaligned,
                    pc,
                    info: addr,
                },
                MemError::OutOfRange { addr, .. } => TrapCause {
                    kind: if addr == pc {
                        TrapKind::InstructionAccess
                    } else {
                        TrapKind::DataAccess
                    },
                    pc,
                    info: addr,
                },
            }),
            ExecError::Decode { pc, .. } => Some(TrapCause {
                kind: TrapKind::Decode,
                pc,
                info: 0,
            }),
            ExecError::TransferInDelaySlot { pc } => Some(TrapCause {
                kind: TrapKind::TransferInDelaySlot,
                pc,
                info: pc,
            }),
            ExecError::WindowStackOverflow { ptr } => Some(TrapCause {
                kind: TrapKind::WindowStackExhausted,
                pc: 0,
                info: ptr,
            }),
            ExecError::OutOfFuel | ExecError::DoubleFault { .. } | ExecError::AlreadyHalted => None,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Mem { pc, err } => write!(f, "memory fault at pc {pc:#010x}: {err}"),
            ExecError::Decode { pc, err } => write!(f, "decode fault at pc {pc:#010x}: {err}"),
            ExecError::OutOfFuel => write!(f, "instruction fuel exhausted"),
            ExecError::TransferInDelaySlot { pc } => {
                write!(f, "transfer of control in a delay slot at pc {pc:#010x}")
            }
            ExecError::WindowStackOverflow { ptr } => {
                write!(f, "window-save stack overflow at {ptr:#010x}")
            }
            // `ctx` is deliberately not rendered: the Display string is the
            // stable outcome signature that record–replay and journal
            // minimization compare across runs.
            ExecError::DoubleFault {
                pc, first, second, ..
            } => write!(
                f,
                "double fault at pc {pc:#010x}: {second} trap while servicing {first}"
            ),
            ExecError::AlreadyHalted => write!(f, "cpu is halted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Replay coordinates attached to a terminal fault: which snapshot the
/// execution could be resumed from and how far into the recorded journal it
/// had progressed. Both are `None` when no checkpointer or journal was
/// attached — a bare `Cpu::run` loses nothing it ever had.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayContext {
    /// Id of the last snapshot taken (see [`crate::snapshot::Checkpointer`]).
    pub snapshot: Option<u64>,
    /// Number of journal events applied when the fault hit (an index into
    /// the recorded event list).
    pub journal_pos: Option<u64>,
}

/// Byte stride between trap vectors when a vectored table is configured
/// via [`SimConfig::trap_base`]: four instruction words per vector, enough
/// for a `reti`+slot stub or a jump to a larger handler.
pub const TRAP_VECTOR_STRIDE: u32 = 16;

/// Outcome of [`Cpu::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// The program is still running.
    Running,
    /// A `RET` at depth 0 terminated the program.
    Returned,
}

/// Identity of a physical register, used by the hazard model (visible names
/// are window-relative, so hazards must be tracked physically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhysId {
    Global(u8),
    Ring(usize),
}

/// More arguments than the entry window's six HIGH registers can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyArgs {
    /// How many arguments were supplied.
    pub given: usize,
}

impl fmt::Display for TooManyArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} register arguments supplied, but the window has six \
             (larger argument lists go through memory)",
            self.given
        )
    }
}

impl std::error::Error for TooManyArgs {}

/// Internal outcome of one execution attempt: either an unrecoverable
/// host-level stop, or an architectural fault that the trap unit may
/// vector to a handler.
enum StepEvent {
    /// Not vectorable (fuel, faults inside spill/fill servicing, …).
    Fatal(ExecError),
    /// A vectorable architectural fault.
    Trap {
        kind: TrapKind,
        /// PC of the faulting instruction (before the delay-slot restart
        /// rule is applied).
        pc: u32,
        /// The info word the handler receives in `r23`.
        info: u32,
        /// The error to surface if no handler is installed.
        err: ExecError,
    },
}

/// Why a window spill could not be serviced.
enum SpillFail {
    /// The save stack is out of room (vectorable).
    Exhausted { ptr: u32 },
    /// A memory fault mid-spill (fatal: the frame is partially written).
    Mem(ExecError),
}

/// One retired instruction in the optional execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Address the instruction was fetched from.
    pub pc: u32,
    /// The instruction itself.
    pub insn: Instruction,
    /// Cycle at which the instruction entered execute.
    pub start_cycle: u64,
    /// Cycles the instruction occupied (base + bubbles + traps).
    pub cycles: u64,
    /// Whether it sat in a delay slot.
    pub in_delay_slot: bool,
}

/// The simulated processor.
#[derive(Debug, Clone)]
pub struct Cpu {
    cfg: SimConfig,
    /// Main memory (public so tests and experiments can inspect results).
    pub mem: Memory,
    regs: WindowFile,
    pc: u32,
    last_pc: u32,
    flags: Flags,
    interrupts_enabled: bool,
    wstack_ptr: u32,
    pending_target: Option<u32>,
    last_write: Option<(PhysId, bool)>,
    halted: bool,
    stats: ExecStats,
    trace: Vec<Retired>,
    interrupt_handler: Option<u32>,
    interrupt_pending: bool,
    trap_handlers: [Option<u32>; TrapKind::COUNT],
    /// The trap currently being serviced; a second fault while this is set
    /// terminates the run with [`ExecError::DoubleFault`].
    active_trap: Option<TrapKind>,
    /// An injected (forced) trap, delivered at the next clean instruction
    /// boundary — see [`Cpu::inject_probe`].
    pending_probe: Option<TrapKind>,
    /// Runtime fuel limit; starts at [`SimConfig::fuel`] and can be
    /// tightened (fault-injection "fuel jitter").
    fuel_limit: u64,
    /// Id of the last snapshot taken of this CPU (set by the checkpoint
    /// machinery via [`Cpu::note_checkpoint`]); attached to terminal
    /// double faults.
    last_snapshot: Option<u64>,
    /// Journal position (events applied so far) noted by the fault
    /// injector or replayer via [`Cpu::note_journal_position`].
    journal_pos: Option<u64>,
    /// Predecoded instruction cache — *derived* state only (rebuilt from
    /// memory on demand), so it is deliberately absent from
    /// [`CpuState`]/snapshots/journals and from every checksum.
    icache: ICache,
    /// Superblock cache (engine `Superblock` only) — derived state, same
    /// snapshot/checksum exemption as the icache. Invalidated in lockstep
    /// with it by [`Cpu::drain_code_invalidations`].
    blocks: BlockCache,
    /// Compiled trace cache (engine `Trace` only) — derived state like the
    /// icache and block cache, and the third consumer of the code-dirty
    /// channel.
    traces: TraceCache,
}

impl Cpu {
    /// A processor with the given configuration, memory zeroed, at reset.
    pub fn new(cfg: SimConfig) -> Cpu {
        let mem = Memory::new(cfg.mem_bytes);
        let regs = WindowFile::new(cfg.windows);
        let wstack_ptr = cfg.window_stack_top;
        let pc = cfg.code_base;
        let mut trap_handlers = [None; TrapKind::COUNT];
        if let Some(base) = cfg.trap_base {
            for kind in TrapKind::ALL {
                trap_handlers[kind.index()] = Some(base + kind.index() as u32 * TRAP_VECTOR_STRIDE);
            }
        }
        let fuel_limit = cfg.fuel;
        let icache = ICache::new(mem.page_count());
        let blocks = BlockCache::new(mem.page_count());
        let traces = TraceCache::new(mem.page_count());
        Cpu {
            cfg,
            mem,
            regs,
            pc,
            last_pc: 0,
            flags: Flags::default(),
            interrupts_enabled: false,
            wstack_ptr,
            pending_target: None,
            last_write: None,
            halted: false,
            stats: ExecStats::new(),
            trace: Vec::new(),
            interrupt_handler: None,
            interrupt_pending: false,
            trap_handlers,
            active_trap: None,
            pending_probe: None,
            fuel_limit,
            last_snapshot: None,
            journal_pos: None,
            icache,
            blocks,
            traces,
        }
    }

    /// The configuration this CPU was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Loads a program: code at the code base, data images, PC at the entry
    /// point, global `r1` initialised as the program stack pointer, and all
    /// traffic counters cleared.
    ///
    /// # Errors
    /// Fails if any image falls outside memory.
    pub fn load_program(&mut self, prog: &Program) -> Result<(), MemError> {
        self.mem
            .load_image(self.cfg.code_base, &prog.code_image())?;
        for (addr, bytes) in &prog.data {
            self.mem.load_image(*addr, bytes)?;
        }
        self.pc = self.cfg.code_base + prog.entry_offset;
        self.regs.write(Reg::R1, self.cfg.stack_top);
        self.mem.reset_traffic();
        Ok(())
    }

    /// Writes procedure arguments into the incoming-parameter registers
    /// (`r26`, `r27`, …) of the entry frame.
    ///
    /// # Panics
    /// Panics if more than 6 arguments are supplied (the window has six
    /// HIGH registers; larger argument lists go through memory). Use
    /// [`Cpu::try_set_args`] where the argument list is user input.
    pub fn set_args(&mut self, args: &[i32]) {
        self.try_set_args(args)
            .expect("at most 6 register arguments");
    }

    /// Fallible form of [`Cpu::set_args`].
    ///
    /// # Errors
    /// [`TooManyArgs`] if more than 6 arguments are supplied; no registers
    /// are written in that case.
    pub fn try_set_args(&mut self, args: &[i32]) -> Result<(), TooManyArgs> {
        if args.len() > 6 {
            return Err(TooManyArgs { given: args.len() });
        }
        for (i, &a) in args.iter().enumerate() {
            self.regs.write(Reg::new(26 + i as u8).unwrap(), a as u32);
        }
        Ok(())
    }

    /// The entry frame's return value (`r26` by convention).
    pub fn result(&self) -> i32 {
        self.regs.read(Reg::R26) as i32
    }

    /// Reads a visible register of the current window.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs.read(r)
    }

    /// Reads a visible register as a signed value.
    pub fn reg_i32(&self, r: Reg) -> i32 {
        self.regs.read(r) as i32
    }

    /// Writes a visible register of the current window.
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        self.regs.write(r, v);
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Current condition flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// The PSW as `GETPSW` would read it.
    pub fn psw(&self) -> Psw {
        Psw {
            flags: self.flags,
            interrupts_enabled: self.interrupts_enabled,
            cwp: self.regs.cwp(),
            swp: self.regs.swp(),
        }
    }

    /// Installs the interrupt handler address and enables interrupts.
    /// Handlers run in their own register window (`CALLI` advances it and
    /// leaves the interrupted PC in `r25`); they return with
    /// `reti r25, #4`.
    pub fn set_interrupt_handler(&mut self, addr: u32) {
        self.interrupt_handler = Some(addr);
        self.interrupts_enabled = true;
    }

    /// Posts an external interrupt. It is taken before the next
    /// instruction at which interrupts are enabled and no delayed jump is
    /// in flight (RISC I holds interrupts off during delay slots so the
    /// saved PC always restarts a clean sequence).
    pub fn raise_interrupt(&mut self) {
        self.interrupt_pending = true;
    }

    /// Whether an interrupt is posted but not yet taken.
    pub fn interrupt_pending(&self) -> bool {
        self.interrupt_pending
    }

    /// Installs a handler for one trap cause. With a handler installed the
    /// corresponding fault no longer terminates the run: the trap unit
    /// enters the handler in a fresh window with the restart PC in `r25`,
    /// the cause code in `r24` and the info word in `r23`; the handler
    /// returns with `reti r25, #0` (re-execute) or `reti r25, #4` (skip).
    pub fn set_trap_handler(&mut self, kind: TrapKind, addr: u32) {
        self.trap_handlers[kind.index()] = Some(addr);
    }

    /// Removes the handler for one trap cause (faults of that kind revert
    /// to structured [`ExecError`]s).
    pub fn clear_trap_handler(&mut self, kind: TrapKind) {
        self.trap_handlers[kind.index()] = None;
    }

    /// The handler installed for a trap cause, if any.
    pub fn trap_handler(&self, kind: TrapKind) -> Option<u32> {
        self.trap_handlers[kind.index()]
    }

    /// The trap currently being serviced (set on trap entry, cleared by
    /// the handler's `RETI`).
    pub fn active_trap(&self) -> Option<TrapKind> {
        self.active_trap
    }

    /// Forces a trap of the given kind at the next clean instruction
    /// boundary (not in a delay slot, not inside a handler) — the fault
    /// injector's hook. The forced trap is *extra-architectural*: no
    /// instruction actually faulted, so a handler that resumes with
    /// `reti r25, #0` continues the program exactly where it was
    /// interrupted. Without a handler the probe surfaces as the
    /// corresponding structured [`ExecError`].
    pub fn inject_probe(&mut self, kind: TrapKind) {
        self.pending_probe = Some(kind);
    }

    /// The current fuel limit (instructions the run may retire in total).
    pub fn fuel_limit(&self) -> u64 {
        self.fuel_limit
    }

    /// Tightens or raises the fuel limit at runtime (the injector's "fuel
    /// jitter" perturbation). A limit at or below the instructions already
    /// retired makes the next `step` report [`ExecError::OutOfFuel`].
    pub fn set_fuel_limit(&mut self, fuel: u64) {
        self.fuel_limit = fuel;
    }

    /// Captures a complete, checksummed snapshot of this CPU (registers,
    /// window stack, trap state, PSW, pc/lastpc, statistics and memory).
    /// Restoring it with [`Cpu::restore`] guarantees bit-identical
    /// continuation. Ad-hoc snapshots carry id 0; the incremental
    /// [`crate::snapshot::Checkpointer`] hands out increasing ids.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(self, 0)
    }

    /// Restores this CPU to a snapshot's exact state. The snapshot may
    /// come from any engine tier or fusion setting; this CPU keeps its own.
    ///
    /// # Errors
    /// [`RestoreError`] when the snapshot's version or machine
    /// configuration ([`SimConfig::architectural`]) does not match, or its
    /// checksum no longer verifies.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), RestoreError> {
        snap.restore_into(self)
    }

    /// Records that a snapshot with the given id was just taken — called
    /// by the checkpoint machinery so terminal faults can carry their
    /// resume point (see [`ReplayContext`]).
    pub fn note_checkpoint(&mut self, id: u64) {
        self.last_snapshot = Some(id);
    }

    /// Records the journal position (events applied so far) — called by
    /// the fault injector and the replayer after each applied event.
    pub fn note_journal_position(&mut self, pos: u64) {
        self.journal_pos = Some(pos);
    }

    /// The replay coordinates attached to terminal faults.
    pub fn replay_context(&self) -> ReplayContext {
        ReplayContext {
            snapshot: self.last_snapshot,
            journal_pos: self.journal_pos,
        }
    }

    /// Clones every field of the processor into a [`CpuState`] (the
    /// register/state half of a snapshot; memory is captured separately).
    pub(crate) fn capture_state(&self) -> CpuState {
        CpuState {
            regs: self.regs.clone(),
            pc: self.pc,
            last_pc: self.last_pc,
            flags: self.flags,
            interrupts_enabled: self.interrupts_enabled,
            wstack_ptr: self.wstack_ptr,
            pending_target: self.pending_target,
            last_write: self.last_write,
            halted: self.halted,
            stats: self.stats.clone(),
            trace: self.trace.clone(),
            interrupt_handler: self.interrupt_handler,
            interrupt_pending: self.interrupt_pending,
            trap_handlers: self.trap_handlers,
            active_trap: self.active_trap,
            pending_probe: self.pending_probe,
            fuel_limit: self.fuel_limit,
            last_snapshot: self.last_snapshot,
            journal_pos: self.journal_pos,
        }
    }

    /// Overwrites every field of the processor from a [`CpuState`].
    pub(crate) fn apply_state(&mut self, s: &CpuState) {
        self.regs = s.regs.clone();
        self.pc = s.pc;
        self.last_pc = s.last_pc;
        self.flags = s.flags;
        self.interrupts_enabled = s.interrupts_enabled;
        self.wstack_ptr = s.wstack_ptr;
        self.pending_target = s.pending_target;
        self.last_write = s.last_write;
        self.halted = s.halted;
        self.stats = s.stats.clone();
        self.trace = s.trace.clone();
        self.interrupt_handler = s.interrupt_handler;
        self.interrupt_pending = s.interrupt_pending;
        self.trap_handlers = s.trap_handlers;
        self.active_trap = s.active_trap;
        self.pending_probe = s.pending_probe;
        self.fuel_limit = s.fuel_limit;
        self.last_snapshot = s.last_snapshot;
        self.journal_pos = s.journal_pos;
    }

    /// Statistics accumulated so far (window counters synced).
    pub fn stats(&self) -> ExecStats {
        let mut s = self.stats.clone();
        s.max_depth = self.regs.max_depth();
        s.window_overflows = self.regs.overflows();
        s.window_underflows = self.regs.underflows();
        s
    }

    /// The register-window file (read-only), for experiments that inspect
    /// residency.
    pub fn windows(&self) -> &WindowFile {
        &self.regs
    }

    /// The retired-instruction trace (empty unless
    /// [`SimConfig::record_trace`] is set).
    pub fn trace(&self) -> &[Retired] {
        &self.trace
    }

    /// Whether the program has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Runs until the program returns from its entry frame.
    ///
    /// ## Halt convention
    /// A `RET` (or `RETI`) executed at call depth 0 halts the machine; the
    /// program's result is then read from `r26` of the entry window by
    /// [`Cpu::result`]. Once halted, further `run`/`step` calls are
    /// idempotent no-ops ([`Halt::Returned`]).
    ///
    /// # Errors
    /// Any [`ExecError`]; on error the CPU state is left at the faulting
    /// instruction for inspection.
    pub fn run(&mut self) -> Result<(), ExecError> {
        self.run_to_halt()
    }

    /// Runs until the program returns from its entry frame, using the
    /// batched fast path of [`Cpu::step_n`]. Identical architectural
    /// behaviour to calling [`Cpu::step`] in a loop — this is merely the
    /// cheap way to do it.
    ///
    /// # Errors
    /// As [`Cpu::run`].
    pub fn run_to_halt(&mut self) -> Result<(), ExecError> {
        // Any large chunk works; bounded so a single call cannot monopolise
        // a supervisor that interleaves other work between calls.
        while self.step_n(1 << 20)? == Halt::Running {}
        Ok(())
    }

    /// Executes up to `n` steps (instruction executions or trap/interrupt
    /// deliveries — the same unit [`Cpu::step`] counts one at a time).
    ///
    /// Architecturally equivalent to `n` calls to `step()`, but batched:
    /// while no probe or interrupt is pending, the loop runs a *burst* that
    /// skips the per-step probe/interrupt/fuel checks. The burst length is
    /// pre-computed from the fuel remaining, and nothing inside a burst can
    /// arm a probe or raise an interrupt (those come only from the outside
    /// — injectors, supervisors, tests), so deferring the checks to burst
    /// boundaries is exact, not approximate. Traps raised *by* executed
    /// instructions still vector immediately, exactly as in `step()`.
    ///
    /// Returns [`Halt::Returned`] as soon as the program halts, otherwise
    /// [`Halt::Running`] after `n` steps.
    ///
    /// # Errors
    /// As [`Cpu::step`]; the CPU stops at the faulting instruction.
    pub fn step_n(&mut self, n: u64) -> Result<Halt, ExecError> {
        let mut left = n;
        while left > 0 {
            // Slow boundary: halt, armed events and fuel exhaustion take
            // the canonical one-step path.
            if self.halted {
                return Ok(Halt::Returned);
            }
            if self.pending_probe.is_some()
                || self.interrupt_pending
                || self.stats.instructions >= self.fuel_limit
            {
                if self.step()? == Halt::Returned {
                    return Ok(Halt::Returned);
                }
                left -= 1;
                continue;
            }
            // Fast burst: long enough to amortise the boundary checks,
            // short enough that fuel cannot overshoot (trap deliveries
            // retire no instruction, so the burst can only *under*-consume
            // fuel, never overrun it).
            let burst = left.min(self.fuel_limit - self.stats.instructions);
            let mut done = 0;
            if matches!(self.cfg.engine, ExecEngine::Superblock | ExecEngine::Trace) {
                if self.exec_block_burst(burst, &mut done)? == Halt::Returned {
                    return Ok(Halt::Returned);
                }
            } else {
                while done < burst {
                    done += 1;
                    match self.exec_one() {
                        Ok(Halt::Running) => {}
                        other => {
                            if self.finish_exec(other)? == Halt::Returned {
                                return Ok(Halt::Returned);
                            }
                            // A trap vectored; fall back to the boundary so
                            // the fuel bound is recomputed.
                            break;
                        }
                    }
                }
            }
            left -= done;
        }
        Ok(Halt::Running)
    }

    /// The superblock burst: up to `burst` step units, block at a time.
    /// `done` is incremented by the step units consumed (one per retired
    /// instruction or trapping execution attempt — exactly what the
    /// one-at-a-time loop would count). Returns early — with the fuel
    /// boundary to be recomputed by the caller — after any vectored trap,
    /// mirroring the cached burst's `break`.
    fn exec_block_burst(&mut self, burst: u64, done: &mut u64) -> Result<Halt, ExecError> {
        // The trace engine rides the superblock burst: blocks accumulate
        // heat here, and hot entries promote to compiled traces. Tracing
        // needs the same preconditions as fusion (no hazard bookkeeping,
        // no retirement trace), so it degrades to plain superblock
        // execution under `--no-forwarding` or recording.
        let tracing =
            self.cfg.engine == ExecEngine::Trace && self.cfg.forwarding && !self.cfg.record_trace;
        while *done < burst {
            // A delayed jump in flight means the next instruction is a
            // delay slot whose successor depends on the pending target:
            // single-step it (blocks are entered only on clean boundaries).
            if self.pending_target.is_some() {
                *done += 1;
                match self.exec_one() {
                    Ok(Halt::Running) => continue,
                    other => return self.finish_exec(other),
                }
            }
            self.drain_code_invalidations();
            let pc = self.pc;
            if tracing {
                // A miss — wrong window, demoted trace, or never promoted —
                // falls straight through to the superblock path: building
                // aggressively on misses (e.g. per-window variants for
                // recursive code) costs more in build walks than the short
                // per-window loops ever repay.
                if let Some(tidx) = self.traces.resolve(pc, self.regs.cwp()) {
                    let insns = u64::from(self.traces.trace(tidx).insns);
                    // Budget-insufficient entries fall through to the block
                    // path, preserving the exact `n`-step contract.
                    if insns <= burst - *done {
                        // A trace run breaks the block-to-block succession
                        // the chain hinting assumes; drop the hint rather
                        // than record a false edge.
                        self.blocks.forget_last();
                        match self.exec_trace_burst(tidx, burst, done) {
                            Ok(()) => continue,
                            other => return self.finish_exec(other.map(|()| Halt::Running)),
                        }
                    }
                }
            }
            let idx = match self.blocks.resolve(pc) {
                Some(idx) => Some(idx),
                None => self.blocks.build(&mut self.mem, pc, &self.cfg),
            };
            let Some(idx) = idx else {
                // Unblockable text (about to trap): the canonical one-step
                // path raises the architectural fault.
                *done += 1;
                match self.exec_one() {
                    Ok(Halt::Running) => continue,
                    other => return self.finish_exec(other),
                }
            };
            let (insns, end, ops) = {
                let b = self.blocks.block(idx);
                (u64::from(b.insns), b.end, Arc::clone(&b.ops))
            };
            if insns > burst - *done {
                // The block could overrun the step/fuel budget; preserve
                // the exact `n`-step contract by single-stepping instead.
                *done += 1;
                match self.exec_one() {
                    Ok(Halt::Running) => continue,
                    other => return self.finish_exec(other),
                }
            }
            self.stats.blocks_entered += 1;
            let before = self.stats.instructions;
            let mut dirtied = false;
            for op in ops.iter() {
                let pc = self.pc;
                let r = match op {
                    BOp::One(line) => {
                        let r = self.exec_prepared(pc, line);
                        // Instructions that write memory (stores; window
                        // spills on the call/return ops) can overwrite
                        // text later in this very block. The channel poll
                        // is O(1); if anything is pending, bail to the
                        // boundary where the drain and a fresh build see
                        // the new bytes — exactly what the
                        // per-instruction engines observe.
                        if (line.op.is_store() || line.op.moves_window())
                            && self.mem.code_dirty_pending()
                        {
                            dirtied = true;
                        }
                        r
                    }
                    BOp::CmpBranch { a, b } => {
                        self.fuse_cmp_branch(pc, a, b);
                        Ok(Halt::Running)
                    }
                    BOp::LdhiImm {
                        a,
                        b,
                        hi,
                        value,
                        flags,
                    } => {
                        self.fuse_ldhi_imm(pc, a, b, *hi, *value, *flags);
                        Ok(Halt::Running)
                    }
                    BOp::TransferSlot { a, b } => {
                        self.fuse_transfer_slot(pc, a, b);
                        Ok(Halt::Running)
                    }
                    BOp::AddrFeed { a, b } => self.fuse_addr_feed(pc, a, b).map(|()| Halt::Running),
                    BOp::AluPair { a, b } => {
                        self.fuse_alu_pair(pc, a, b);
                        Ok(Halt::Running)
                    }
                };
                match r {
                    Ok(Halt::Running) => {}
                    other => {
                        let retired = self.stats.instructions - before;
                        self.stats.block_instructions += retired;
                        *done += retired;
                        self.blocks.forget_last();
                        return self.finish_exec(other);
                    }
                }
                if dirtied {
                    break;
                }
            }
            let retired = self.stats.instructions - before;
            self.stats.block_instructions += retired;
            *done += retired;
            if dirtied {
                self.blocks.forget_last();
            } else {
                let taken = self.pending_target.is_some() || self.pc != end;
                self.blocks.note_exit(idx, taken);
                if tracing {
                    // Exact equality: one promotion attempt per block, so a
                    // declined build (too short, untraceable text) is never
                    // retried on every subsequent pass.
                    let heat = self.blocks.bump_heat(idx, taken);
                    if heat == trace::HOT_THRESHOLD {
                        let built = self.traces.build(
                            &mut self.mem,
                            &self.blocks,
                            &self.regs,
                            &self.cfg,
                            pc,
                        );
                        self.stats.traces_built += u64::from(built.is_some());
                    }
                }
            }
        }
        Ok(Halt::Running)
    }

    /// Runs one compiled trace (engine `Trace`): loads the live registers
    /// into the virtual register file, executes the IR with *no*
    /// per-instruction statistics or PC maintenance, and settles everything
    /// at exit — a complete pass applies the precomputed bulk aggregate and
    /// the final PC/pending/`last_pc` in O(1); self-loop traces iterate in
    /// place while the step budget allows, paying the register traffic only
    /// once per entry.
    ///
    /// Side exits (guard mismatches, faults, code-dirty stores) replay the
    /// committed prefix's per-op accounting from the trace's static
    /// metadata and restore exactly the architectural state the superblock
    /// engine would hold at that point; faults return the identical
    /// [`StepEvent`] the per-instruction executor would have raised, so the
    /// caller funnels them through the same `finish_exec` (lastpc rule and
    /// all).
    ///
    /// Caller guarantees: no delayed jump in flight, the whole trace fits
    /// in `burst - *done`, and `forwarding && !record_trace` (so
    /// `last_write` is constantly `None` and no retirement trace is due).
    fn exec_trace_burst(&mut self, tidx: u32, burst: u64, done: &mut u64) -> Result<(), StepEvent> {
        // Borrowing the trace directly (no `Arc` clone per entry) is the
        // point of this routine's shape: all the state it touches lives in
        // *other* fields of `self`, so the borrows stay disjoint as long as
        // no whole-`self` method is called while `t` is alive — which is
        // why the load/store and replay helpers are free functions.
        let t = self.traces.trace(tidx);
        let insns = u64::from(t.insns);
        let self_loop = t.self_loop;
        let finals = (t.final_pc, t.final_pending, t.final_last_pc);
        let before = self.stats.instructions;
        let avail = burst - *done;
        // Operand indices are u8 and the array covers the full index space,
        // so every access below is in bounds by construction — the hot loop
        // carries no bounds checks and touches no statistics.
        let mut v = [0u32; trace::VREG_SLOTS];
        for &(vr, value) in t.consts.iter() {
            v[vr as usize] = value;
        }
        for &(vr, flat) in t.live_in.iter() {
            v[vr as usize] = self.regs.load_flat(flat);
        }
        let mut flags = self.flags;
        let mut passes: u64 = 0;
        let exit = 'run: loop {
            for (k, op) in t.ops.iter().enumerate() {
                match *op {
                    TOp::Alu { op, d, a, b } => {
                        // `.value` alone: the flag computation inside the
                        // inlined ALU is dead code on this arm.
                        v[d as usize] = alu(op, v[a as usize], v[b as usize], flags.c).value;
                    }
                    TOp::AluScc { op, d, a, b } => {
                        let out = alu(op, v[a as usize], v[b as usize], flags.c);
                        v[d as usize] = out.value;
                        flags = out.flags;
                    }
                    TOp::Const { d, value } => v[d as usize] = value,
                    TOp::Load { op, d, a, b } => {
                        let addr = v[a as usize].wrapping_add(v[b as usize]);
                        match load_op(&mut self.mem, op, addr) {
                            Ok(val) => v[d as usize] = val,
                            Err(err) => break 'run TExit::Fault { k, addr, err },
                        }
                    }
                    TOp::Store { op, data, a, b } => {
                        let addr = v[a as usize].wrapping_add(v[b as usize]);
                        match store_op(&mut self.mem, op, addr, v[data as usize]) {
                            Ok(()) => {
                                if self.mem.code_dirty_pending() {
                                    break 'run TExit::Dirty { k };
                                }
                            }
                            Err(err) => break 'run TExit::Fault { k, addr, err },
                        }
                    }
                    TOp::Branch {
                        cond,
                        target,
                        expect,
                    } => {
                        let taken = cond.eval(flags);
                        if taken != expect {
                            break 'run TExit::Mismatch { k, taken, target };
                        }
                    }
                    TOp::Jump => {}
                }
            }
            passes += 1;
            if self_loop && (passes + 1) * insns <= avail {
                continue;
            }
            break TExit::Complete;
        };
        // All completed passes settle as one bulk update; only a partial
        // final pass (a side exit) needs the per-op metadata replay below.
        if passes > 0 {
            t.agg.apply_n(&mut self.stats, passes);
        }
        self.stats.trace_entries += passes + u64::from(!matches!(exit, TExit::Complete));
        let fault = match exit {
            TExit::Complete => {
                (self.pc, self.pending_target, self.last_pc) = finals;
                self.stats.trace_exits += 1;
                None
            }
            TExit::Dirty { k } => {
                // The store committed; account it and everything before it,
                // then exit where its PC dance lands. Stores produce no
                // target, so nothing is in flight afterwards.
                replay_meta(&mut self.stats, &t.meta, k + 1);
                let m = t.meta[k];
                self.pc = m.pending_before.unwrap_or(m.pc.wrapping_add(INSN_BYTES));
                self.pending_target = None;
                self.last_pc = m.pc;
                self.stats.trace_side_exits += 1;
                None
            }
            TExit::Mismatch { k, taken, target } => {
                // The guard *is* the branch: retire it with its actual
                // direction (branches never sit in delay slots inside a
                // trace, so no slot accounting applies).
                replay_meta(&mut self.stats, &t.meta, k);
                let m = t.meta[k];
                self.stats.retire(m.op);
                let mut cycles = u64::from(m.base);
                if taken {
                    self.stats.taken_transfers += 1;
                    if self.cfg.branch_model == BranchModel::Suspended {
                        cycles += 1;
                        self.stats.bubble_cycles += 1;
                    }
                }
                self.stats.cycles += cycles;
                self.pc = m.pc.wrapping_add(INSN_BYTES);
                self.pending_target = taken.then_some(target);
                self.last_pc = m.pc;
                self.stats.trace_side_exits += 1;
                None
            }
            TExit::Fault { k, addr, err } => {
                // Mirror `exec_prepared` mid-fault exactly: the op retired
                // (with delay-slot accounting) but charged no cycles and
                // committed nothing else; PC/pending/`last_pc` still
                // describe the attempt, so `finish_exec`'s lastpc rule sees
                // the same state the per-instruction engines would have.
                replay_meta(&mut self.stats, &t.meta, k);
                let m = t.meta[k];
                self.stats.retire(m.op);
                if m.pending_before.is_some() {
                    self.stats.delay_slots += 1;
                    if m.nop {
                        self.stats.delay_slot_nops += 1;
                    }
                }
                self.pc = m.pc;
                self.pending_target = m.pending_before;
                if k > 0 {
                    self.last_pc = t.meta[k - 1].pc;
                }
                self.stats.trace_side_exits += 1;
                Some((m.pc, addr, err))
            }
        };
        for &(vr, flat) in t.live_out.iter() {
            self.regs.store_flat(flat, v[vr as usize]);
        }
        self.flags = flags;
        // Tracing requires forwarding, under which `note_write` never
        // records anything — constant, like the fused-pair handlers.
        self.last_write = None;
        let used = self.stats.instructions - before;
        self.stats.trace_instructions += used;
        *done += used;
        // Productivity bookkeeping: the per-entry overhead (register file
        // traffic in and out, aggregate settle) only amortises when a visit
        // retires well past it. A self-loop trace must actually *loop* —
        // two completed passes — to count; the common failure mode is a
        // short-trip-count loop that side-exits on its first backedge every
        // visit, which beats the half-a-pass yardstick while losing to the
        // superblock engine outright. Straight traces are productive when
        // they retire at least half their body. Enough strikes demote the
        // trace and the superblock tier takes the entry back.
        let productive = if self_loop {
            passes >= 2
        } else {
            2 * used >= insns
        };
        self.traces.note_run(tidx, productive);
        match fault {
            Some((pc, addr, err)) => Err(data_trap(pc, addr, err)),
            None => Ok(()),
        }
    }

    /// Executes one instruction (or delivers one pending trap/interrupt).
    ///
    /// After the program has halted this is an idempotent no-op returning
    /// [`Halt::Returned`].
    ///
    /// # Errors
    /// See [`ExecError`]. A fault whose cause has a handler installed (see
    /// [`Cpu::set_trap_handler`]) does not surface here: it vectors into
    /// the handler and the step reports [`Halt::Running`].
    pub fn step(&mut self) -> Result<Halt, ExecError> {
        if self.halted {
            return Ok(Halt::Returned);
        }
        if self.stats.instructions >= self.fuel_limit {
            return Err(ExecError::OutOfFuel);
        }
        // Pending probes and interrupts are delivered only at a clean
        // boundary: no delayed jump in flight (the paper holds interrupts
        // off during delay slots so the saved PC always restarts a clean
        // sequence) and no handler already running.
        if self.pending_target.is_none() && self.active_trap.is_none() {
            if let Some(kind) = self.pending_probe.take() {
                let pc = self.pc;
                let (info, err) = self.probe_fault(kind, pc);
                self.vector_trap(kind, pc, info, err)?;
                return Ok(Halt::Running);
            }
            if self.interrupt_pending && self.interrupts_enabled {
                match self.take_interrupt() {
                    Ok(()) => {}
                    Err(StepEvent::Fatal(e)) => return Err(e),
                    Err(StepEvent::Trap {
                        kind,
                        pc,
                        info,
                        err,
                    }) => {
                        self.vector_trap(kind, pc, info, err)?;
                        return Ok(Halt::Running);
                    }
                }
            }
        }
        let r = self.exec_one();
        self.finish_exec(r)
    }

    /// The epilogue shared by [`Cpu::step`] and the [`Cpu::step_n`] burst
    /// loop: surfaces fatal errors, vectors trappable faults.
    fn finish_exec(&mut self, r: Result<Halt, StepEvent>) -> Result<Halt, ExecError> {
        match r {
            Ok(h) => Ok(h),
            Err(StepEvent::Fatal(e)) => Err(e),
            Err(StepEvent::Trap {
                kind,
                pc,
                info,
                err,
            }) => {
                // The paper's `lastpc` rule: a fault in a delay slot
                // restarts at the transfer that owns the slot, because the
                // slot alone cannot re-establish the in-flight target.
                let restart = if self.pending_target.is_some() {
                    self.last_pc
                } else {
                    pc
                };
                self.vector_trap(kind, restart, info, err)?;
                Ok(Halt::Running)
            }
        }
    }

    /// Fetches and decodes the word at `pc` the slow way, mapping failures
    /// onto their architectural traps. The predecode cache never caches a
    /// failing fetch, so this is also the only source of fetch traps.
    fn fetch_decode(&mut self, pc: u32) -> Result<Instruction, StepEvent> {
        let word = self.mem.peek_u32(pc).map_err(|err| StepEvent::Trap {
            kind: match err {
                MemError::Misaligned { .. } => TrapKind::Misaligned,
                MemError::OutOfRange { .. } => TrapKind::InstructionAccess,
            },
            pc,
            info: pc,
            err: ExecError::Mem { pc, err },
        })?;
        Instruction::decode(word).map_err(|err| StepEvent::Trap {
            kind: TrapKind::Decode,
            pc,
            info: word,
            err: ExecError::Decode { pc, err },
        })
    }

    /// Drains the code-dirty channel, fanning every invalidation event out
    /// to the predecode cache, the superblock cache *and* the trace cache.
    /// Always combined: the drain clears page registrations as it goes, so
    /// a one-sided drain would silently starve the other consumers.
    #[inline]
    fn drain_code_invalidations(&mut self) {
        if !self.mem.code_dirty_pending() {
            return;
        }
        let (mem, icache, blocks, traces) = (
            &mut self.mem,
            &mut self.icache,
            &mut self.blocks,
            &mut self.traces,
        );
        mem.drain_code_dirty(|d| {
            icache.invalidate(d);
            blocks.invalidate(d);
            traces.invalidate(d);
        });
    }

    /// Fetches, decodes and executes exactly one instruction.
    fn exec_one(&mut self) -> Result<Halt, StepEvent> {
        let pc = self.pc;
        // Fast fetch: the prepared line, when the cache can serve one
        // (fills lazily; the channel drain first re-decodes self-modified
        // text). Anything it cannot serve — including every faulting
        // fetch — takes the architectural slow path, which pays the full
        // decode + prepare cost per step. Both paths feed the same
        // executor, so caching cannot change semantics. The superblock
        // engine lands here too for its single-step cases (delay slots,
        // unblockable text, `step()` calls).
        let line = match self.cfg.engine {
            ExecEngine::Uncached => Line::prepare(self.fetch_decode(pc)?),
            ExecEngine::Cached | ExecEngine::Superblock | ExecEngine::Trace => {
                self.drain_code_invalidations();
                match self.icache.fetch(&mut self.mem, pc) {
                    Some(line) => line,
                    None => Line::prepare(self.fetch_decode(pc)?),
                }
            }
        };
        self.exec_prepared(pc, &line)
    }

    /// Executes one prepared instruction. This is the single executor body
    /// shared by the cached and uncached fetch paths: all semantics live
    /// here, operating on the pre-extracted fields of [`Line`].
    #[inline]
    fn exec_prepared(&mut self, pc: u32, line: &Line) -> Result<Halt, StepEvent> {
        let in_delay_slot = self.pending_target.is_some();
        if in_delay_slot && line.is_transfer {
            return Err(StepEvent::Trap {
                kind: TrapKind::TransferInDelaySlot,
                pc,
                info: pc,
                err: ExecError::TransferInDelaySlot { pc },
            });
        }

        self.stats.retire(line.op);
        if in_delay_slot {
            self.stats.delay_slots += 1;
            if line.insn.is_nop() {
                self.stats.delay_slot_nops += 1;
            }
        }

        let start_cycle = self.stats.cycles;
        let mut cycles = u64::from(line.base_cycles);
        if !self.cfg.forwarding {
            cycles += self.hazard_bubbles(&line.insn);
        }

        let mut new_target: Option<u32> = None;
        let mut new_write: Option<(PhysId, bool)> = None;
        let mut halted = false;

        match line.op {
            Opcode::Add
            | Opcode::Addc
            | Opcode::Sub
            | Opcode::Subc
            | Opcode::Subr
            | Opcode::Subcr
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Sll
            | Opcode::Srl
            | Opcode::Sra => {
                let a = self.regs.read(line.rs1);
                let b = self.s2_value(line.s2);
                let out = alu(line.op, a, b, self.flags.c);
                self.regs.write(line.dest, out.value);
                if line.scc {
                    self.flags = out.flags;
                }
                new_write = self.note_write(line.dest, false);
            }
            Opcode::Ldl | Opcode::Ldsu | Opcode::Ldss | Opcode::Ldbu | Opcode::Ldbs => {
                let addr = self
                    .regs
                    .read(line.rs1)
                    .wrapping_add(self.s2_value(line.s2));
                let v = self
                    .load_value(line.op, addr)
                    .map_err(|err| data_trap(pc, addr, err))?;
                self.regs.write(line.dest, v);
                self.stats.data_reads += 1;
                new_write = self.note_write(line.dest, true);
            }
            Opcode::Stl | Opcode::Sts | Opcode::Stb => {
                // `dest` names the data register in store encodings.
                let addr = self
                    .regs
                    .read(line.rs1)
                    .wrapping_add(self.s2_value(line.s2));
                let data = self.regs.read(line.dest);
                self.store_value(line.op, addr, data)
                    .map_err(|err| data_trap(pc, addr, err))?;
                self.stats.data_writes += 1;
            }
            Opcode::Jmp | Opcode::Jmpr => {
                if line.cond.eval(self.flags) {
                    new_target = Some(self.transfer_target(line, pc));
                    self.stats.taken_transfers += 1;
                }
            }
            Opcode::Call | Opcode::Callr => {
                let link = line.dest;
                let target = self.transfer_target(line, pc);
                if self.regs.call_would_overflow() {
                    cycles += self.spill_window(false).map_err(|f| spill_event(pc, f))?;
                }
                self.regs.advance();
                // The link register is named in the *new* window.
                self.regs.write(link, pc);
                new_write = self.note_write(link, false);
                new_target = Some(target);
                self.stats.calls += 1;
                self.stats.taken_transfers += 1;
            }
            Opcode::Ret | Opcode::Reti => {
                let target = self
                    .regs
                    .read(line.rs1)
                    .wrapping_add(self.s2_value(line.s2));
                if self.regs.ret_would_underflow() {
                    cycles += self.fill_window(pc).map_err(StepEvent::Fatal)?;
                }
                if self.regs.retreat() {
                    new_target = Some(target);
                    self.stats.rets += 1;
                    self.stats.taken_transfers += 1;
                    if line.op == Opcode::Reti {
                        self.interrupts_enabled = true;
                        // A RETI while a trap is being serviced is the
                        // handler's exit: the trap unit is re-armed.
                        if self.active_trap.take().is_some() {
                            self.stats.trap_returns += 1;
                        }
                    }
                } else {
                    halted = true;
                }
            }
            Opcode::Calli => {
                if self.regs.call_would_overflow() {
                    cycles += self.spill_window(false).map_err(|f| spill_event(pc, f))?;
                }
                self.regs.advance();
                self.regs.write(line.dest, self.last_pc);
                new_write = self.note_write(line.dest, false);
                self.interrupts_enabled = false;
                self.stats.calls += 1;
            }
            Opcode::Ldhi => {
                self.regs.write(line.dest, (line.imm19 as u32) << 13);
                new_write = self.note_write(line.dest, false);
            }
            Opcode::Gtlpc => {
                self.regs.write(line.dest, self.last_pc);
                new_write = self.note_write(line.dest, false);
            }
            Opcode::Getpsw => {
                let w = self.psw().to_word();
                self.regs.write(line.dest, w);
                new_write = self.note_write(line.dest, false);
            }
            Opcode::Putpsw => {
                let word = self
                    .regs
                    .read(line.rs1)
                    .wrapping_add(self.s2_value(line.s2));
                let psw = Psw::from_word(word);
                // CWP/SWP are owned by the window hardware; software writes
                // to them are ignored (a full context switch would also
                // reload the window file, which this simulator models via
                // fresh `Cpu` instances instead).
                self.flags = psw.flags;
                self.interrupts_enabled = psw.interrupts_enabled;
            }
        }

        if self.cfg.branch_model == BranchModel::Suspended && new_target.is_some() {
            cycles += 1;
            self.stats.bubble_cycles += 1;
        }

        self.stats.cycles += cycles;
        self.last_write = new_write;
        self.last_pc = pc;

        if self.cfg.record_trace {
            self.trace.push(Retired {
                pc,
                insn: line.insn,
                start_cycle,
                cycles,
                in_delay_slot,
            });
        }

        if halted {
            self.halted = true;
            return Ok(Halt::Returned);
        }

        let next = match self.pending_target.take() {
            Some(t) => t,
            None => pc.wrapping_add(INSN_BYTES),
        };
        self.pending_target = new_target;
        self.pc = next;
        Ok(Halt::Running)
    }

    fn s2_value(&self, s2: Short2) -> u32 {
        match s2 {
            Short2::Reg(r) => self.regs.read(r),
            Short2::Imm(v) => v as i32 as u32,
        }
    }

    /// Target of a control transfer: PC-relative for long shapes,
    /// register + short-source-2 for short shapes.
    #[inline]
    fn transfer_target(&self, line: &Line, pc: u32) -> u32 {
        if line.long {
            pc.wrapping_add(line.imm19 as u32)
        } else {
            self.regs
                .read(line.rs1)
                .wrapping_add(self.s2_value(line.s2))
        }
    }

    // ── Fused-pair handlers (superblock engine) ─────────────────────────
    //
    // Each handler is the two-instruction `exec_prepared` sequence with
    // the per-instruction scaffolding collapsed. Fusion is gated (at block
    // build time) on `forwarding && !record_trace`, so the hazard
    // bookkeeping is a constant `last_write = None` and there is no trace
    // push; and blocks are entered only with no delayed jump in flight, so
    // the pair's first instruction is never in a delay slot. `pa` is the
    // first instruction's address; `pb = pa + 4` the second's.

    /// SCC-setting ALU op + conditional JMP/JMPR reading its flags.
    /// Neither half can fault or halt.
    fn fuse_cmp_branch(&mut self, pa: u32, a: &Line, b: &Line) {
        self.stats.retire(a.op);
        let out = alu(
            a.op,
            self.regs.read(a.rs1),
            self.s2_value(a.s2),
            self.flags.c,
        );
        self.regs.write(a.dest, out.value);
        // `a.scc` is a fusion precondition, so the latch is unconditional.
        self.flags = out.flags;
        let pb = pa.wrapping_add(INSN_BYTES);
        self.stats.retire(b.op);
        let mut cycles = u64::from(a.base_cycles) + u64::from(b.base_cycles);
        let mut target = None;
        if b.cond.eval(self.flags) {
            // Short-form targets read registers after `a`'s write — the
            // same order the unfused sequence observes.
            target = Some(self.transfer_target(b, pb));
            self.stats.taken_transfers += 1;
            if self.cfg.branch_model == BranchModel::Suspended {
                cycles += 1;
                self.stats.bubble_cycles += 1;
            }
        }
        self.stats.cycles += cycles;
        self.last_write = None;
        self.last_pc = pb;
        self.stats.fused_pairs[FuseKind::CmpBranch.index()] += 1;
        self.pending_target = target;
        self.pc = pb.wrapping_add(INSN_BYTES);
    }

    /// LDHI + immediate ALU constant construction; both results were
    /// computed at block build. Cannot fault.
    fn fuse_ldhi_imm(&mut self, pa: u32, a: &Line, b: &Line, hi: u32, value: u32, flags: Flags) {
        self.stats.retire(a.op);
        self.regs.write(a.dest, hi);
        self.stats.retire(b.op);
        self.regs.write(b.dest, value);
        if b.scc {
            self.flags = flags;
        }
        self.stats.cycles += u64::from(a.base_cycles) + u64::from(b.base_cycles);
        self.last_write = None;
        self.last_pc = pa.wrapping_add(INSN_BYTES);
        self.stats.fused_pairs[FuseKind::LdhiImm.index()] += 1;
        self.pc = pa.wrapping_add(2 * INSN_BYTES);
    }

    /// Conditional transfer + safe (ALU/LDHI) delay-slot instruction,
    /// retired as one unit that leaves no jump in flight. Cannot fault.
    fn fuse_transfer_slot(&mut self, pa: u32, a: &Line, b: &Line) {
        self.stats.retire(a.op);
        let mut cycles = u64::from(a.base_cycles) + u64::from(b.base_cycles);
        let mut target = None;
        // The condition is evaluated on the pre-slot flags, and short-form
        // target operands are read before the slot writes — both exactly
        // as the unfused transfer, which executes first.
        if a.cond.eval(self.flags) {
            target = Some(self.transfer_target(a, pa));
            self.stats.taken_transfers += 1;
            if self.cfg.branch_model == BranchModel::Suspended {
                cycles += 1;
                self.stats.bubble_cycles += 1;
            }
        }
        let pb = pa.wrapping_add(INSN_BYTES);
        self.stats.retire(b.op);
        if target.is_some() {
            // The slot sits in a delay slot only when the transfer took
            // (an untaken conditional leaves no target pending, and the
            // unfused accounting checks exactly that).
            self.stats.delay_slots += 1;
            if b.insn.is_nop() {
                self.stats.delay_slot_nops += 1;
            }
        }
        if b.op == Opcode::Ldhi {
            self.regs.write(b.dest, (b.imm19 as u32) << 13);
        } else {
            let out = alu(
                b.op,
                self.regs.read(b.rs1),
                self.s2_value(b.s2),
                self.flags.c,
            );
            self.regs.write(b.dest, out.value);
            if b.scc {
                self.flags = out.flags;
            }
        }
        self.stats.cycles += cycles;
        self.last_write = None;
        self.last_pc = pb;
        self.stats.fused_pairs[FuseKind::TransferSlot.index()] += 1;
        self.pending_target = None;
        self.pc = match target {
            Some(t) => t,
            None => pb.wrapping_add(INSN_BYTES),
        };
    }

    /// ALU op feeding the address register of the next load. The load can
    /// fault; `a` is committed fully first, so a trap on `b` leaves
    /// precisely the state the unfused sequence would — restart at `pb`.
    fn fuse_addr_feed(&mut self, pa: u32, a: &Line, b: &Line) -> Result<(), StepEvent> {
        self.stats.retire(a.op);
        let out = alu(
            a.op,
            self.regs.read(a.rs1),
            self.s2_value(a.s2),
            self.flags.c,
        );
        self.regs.write(a.dest, out.value);
        if a.scc {
            self.flags = out.flags;
        }
        self.stats.cycles += u64::from(a.base_cycles);
        self.last_write = None;
        self.last_pc = pa;
        let pb = pa.wrapping_add(INSN_BYTES);
        self.pc = pb;
        self.stats.retire(b.op);
        let addr = self.regs.read(b.rs1).wrapping_add(self.s2_value(b.s2));
        let v = self
            .load_value(b.op, addr)
            .map_err(|err| data_trap(pb, addr, err))?;
        self.regs.write(b.dest, v);
        self.stats.data_reads += 1;
        self.stats.cycles += u64::from(b.base_cycles);
        self.last_pc = pb;
        self.stats.fused_pairs[FuseKind::AddrFeed.index()] += 1;
        self.pc = pb.wrapping_add(INSN_BYTES);
        Ok(())
    }

    /// Two adjacent plain ALU/LDHI ops retired back-to-back — the
    /// catch-all pair. Neither half can fault or halt.
    fn fuse_alu_pair(&mut self, pa: u32, a: &Line, b: &Line) {
        self.stats.retire(a.op);
        if a.op == Opcode::Ldhi {
            self.regs.write(a.dest, (a.imm19 as u32) << 13);
        } else {
            let out = alu(
                a.op,
                self.regs.read(a.rs1),
                self.s2_value(a.s2),
                self.flags.c,
            );
            self.regs.write(a.dest, out.value);
            if a.scc {
                self.flags = out.flags;
            }
        }
        let pb = pa.wrapping_add(INSN_BYTES);
        self.stats.retire(b.op);
        if b.op == Opcode::Ldhi {
            self.regs.write(b.dest, (b.imm19 as u32) << 13);
        } else {
            // `b`'s operands are read after `a`'s write — the order the
            // unfused sequence observes.
            let out = alu(
                b.op,
                self.regs.read(b.rs1),
                self.s2_value(b.s2),
                self.flags.c,
            );
            self.regs.write(b.dest, out.value);
            if b.scc {
                self.flags = out.flags;
            }
        }
        self.stats.cycles += u64::from(a.base_cycles) + u64::from(b.base_cycles);
        self.last_write = None;
        self.last_pc = pb;
        self.stats.fused_pairs[FuseKind::AluPair.index()] += 1;
        self.pc = pb.wrapping_add(INSN_BYTES);
    }

    fn load_value(&mut self, op: Opcode, addr: u32) -> Result<u32, MemError> {
        load_op(&mut self.mem, op, addr)
    }

    fn store_value(&mut self, op: Opcode, addr: u32, v: u32) -> Result<(), MemError> {
        store_op(&mut self.mem, op, addr, v)
    }

    /// Hazard-model bookkeeping for a register write: the physical
    /// identity the *next* instruction's reads are checked against. With
    /// internal forwarding (the RISC I datapath, and the default) the
    /// hazard model never fires, so the translation — two extra window
    /// computations per instruction — is skipped entirely.
    #[inline]
    fn note_write(&self, r: Reg, was_load: bool) -> Option<(PhysId, bool)> {
        if self.cfg.forwarding {
            None
        } else {
            self.phys(r).map(|p| (p, was_load))
        }
    }

    /// Physical identity of a visible register in the *current* window.
    fn phys(&self, r: Reg) -> Option<PhysId> {
        if r.is_zero() {
            return None;
        }
        Some(match self.regs.physical_slot(self.regs.cwp() as usize, r) {
            None => PhysId::Global(r.number()),
            Some(i) => PhysId::Ring(i),
        })
    }

    /// Forces the `CALLI` sequence: advance the window (spilling if
    /// needed), save the interrupted PC in the new window's `r25`, disable
    /// interrupts, and vector to the handler.
    ///
    /// An interrupt with no handler installed (e.g. a spurious one raised
    /// by the fault injector) is dropped: the real machine would fetch a
    /// null vector, but the simulator has nothing meaningful to run there.
    fn take_interrupt(&mut self) -> Result<(), StepEvent> {
        let Some(handler) = self.interrupt_handler else {
            self.interrupt_pending = false;
            return Ok(());
        };
        let mut cycles = self.cfg.trap_overhead_cycles;
        if self.regs.call_would_overflow() {
            // On failure the interrupt stays pending: it retries once the
            // exhaustion handler (if any) has made room.
            cycles += self
                .spill_window(false)
                .map_err(|f| spill_event(self.pc, f))?;
        }
        self.interrupt_pending = false;
        self.regs.advance();
        self.regs.write(Reg::R25, self.pc);
        self.interrupts_enabled = false;
        self.last_pc = self.pc;
        self.pc = handler;
        self.stats.cycles += cycles;
        self.stats.trap_cycles += self.cfg.trap_overhead_cycles;
        self.stats.calls += 1;
        self.stats.interrupts_taken += 1;
        Ok(())
    }

    /// Forces the trap-entry sequence — a `CALLI` carrying cause state:
    /// fresh window, `r25` = restart PC, `r24` = cause code, `r23` = info
    /// word, interrupts off, PC at the handler (no delay slot). Returns
    /// the structured error instead when no handler is installed, or a
    /// double fault when one is already running.
    fn vector_trap(
        &mut self,
        kind: TrapKind,
        restart: u32,
        info: u32,
        err: ExecError,
    ) -> Result<(), ExecError> {
        let Some(handler) = self.trap_handlers[kind.index()] else {
            return Err(err);
        };
        if let Some(first) = self.active_trap {
            return Err(ExecError::DoubleFault {
                pc: restart,
                first,
                second: kind,
                ctx: self.replay_context(),
            });
        }
        let mut cycles = self.cfg.trap_overhead_cycles;
        if self.regs.call_would_overflow() {
            // The exhaustion trap may spill into the reserved emergency
            // frame — that is what the reserve exists for. If even that
            // fails, no handler can be entered: surface the original
            // fault.
            let emergency = kind == TrapKind::WindowStackExhausted;
            match self.spill_window(emergency) {
                Ok(c) => cycles += c,
                Err(_) => return Err(err),
            }
        }
        self.regs.advance();
        self.regs.write(Reg::R25, restart);
        self.regs.write(Reg::R24, kind.code());
        self.regs.write(Reg::R23, info);
        self.interrupts_enabled = false;
        self.active_trap = Some(kind);
        self.pending_target = None;
        self.last_write = None;
        self.last_pc = restart;
        self.pc = handler;
        self.stats.cycles += cycles;
        self.stats.trap_cycles += self.cfg.trap_overhead_cycles;
        self.stats.trap_entries += 1;
        self.stats.trap_entry_cycles += cycles;
        self.stats.trap_counts[kind.index()] += 1;
        self.stats.calls += 1;
        Ok(())
    }

    /// The `(info word, unhandled error)` pair for a forced probe of
    /// `kind` delivered at `pc` (see [`Cpu::inject_probe`]).
    fn probe_fault(&self, kind: TrapKind, pc: u32) -> (u32, ExecError) {
        match kind {
            TrapKind::InstructionAccess | TrapKind::DataAccess => (
                pc,
                ExecError::Mem {
                    pc,
                    err: MemError::OutOfRange { addr: pc, width: 4 },
                },
            ),
            TrapKind::Misaligned => {
                let addr = pc | 2;
                (
                    addr,
                    ExecError::Mem {
                        pc,
                        err: MemError::Misaligned { addr, width: 4 },
                    },
                )
            }
            TrapKind::Decode => (
                self.mem.peek_u32(pc).unwrap_or(0),
                ExecError::Decode {
                    pc,
                    err: DecodeError::UnknownOpcode(0x7f),
                },
            ),
            TrapKind::TransferInDelaySlot => (pc, ExecError::TransferInDelaySlot { pc }),
            TrapKind::WindowStackExhausted => (
                self.wstack_ptr,
                ExecError::WindowStackOverflow {
                    ptr: self.wstack_ptr,
                },
            ),
        }
    }

    /// Interlock bubbles between the previous instruction's write and this
    /// instruction's reads (see [`SimConfig::forwarding`]).
    ///
    /// With internal forwarding (the RISC I datapath, and the default) there
    /// is no penalty: result buses bypass the register file. Without it,
    /// reading a register written by the immediately preceding instruction
    /// costs one bubble while the write drains.
    fn hazard_bubbles(&mut self, insn: &Instruction) -> u64 {
        if self.cfg.forwarding {
            return 0;
        }
        let Some((written, _was_load)) = self.last_write else {
            return 0;
        };
        let hazard = insn
            .reads()
            .into_iter()
            .filter_map(|r| self.phys(r))
            .any(|p| p == written);
        if hazard {
            self.stats.bubble_cycles += 1;
            1
        } else {
            0
        }
    }

    /// Services a window overflow: 16 stores to the save stack. Returns the
    /// cycles consumed.
    ///
    /// Program-initiated spills (`emergency == false`) keep one frame of
    /// head-room free below themselves — the emergency reserve that lets
    /// the exhaustion trap itself still enter a handler in a fresh window.
    fn spill_window(&mut self, emergency: bool) -> Result<u64, SpillFail> {
        let frame = SPILL_REGS as u32 * 4;
        let reserve = if emergency { 0 } else { frame };
        if self.wstack_ptr < self.cfg.stack_top + frame + reserve {
            return Err(SpillFail::Exhausted {
                ptr: self.wstack_ptr,
            });
        }
        let saved = self.regs.spill_oldest();
        for v in saved {
            self.wstack_ptr -= 4;
            let ptr = self.wstack_ptr;
            self.mem
                .write_u32(ptr, v)
                .map_err(|err| SpillFail::Mem(ExecError::Mem { pc: self.pc, err }))?;
        }
        self.stats.data_writes += SPILL_REGS as u64;
        let cost = self.cfg.trap_overhead_cycles + SPILL_REGS as u64 * 2;
        self.stats.trap_cycles += cost;
        Ok(cost)
    }

    /// Services a window underflow: 16 loads from the save stack. Returns
    /// the cycles consumed.
    fn fill_window(&mut self, pc: u32) -> Result<u64, ExecError> {
        let mut regs = [0u32; SPILL_REGS];
        for slot in regs.iter_mut().rev() {
            let ptr = self.wstack_ptr;
            *slot = self
                .mem
                .read_u32(ptr)
                .map_err(|err| ExecError::Mem { pc, err })?;
            self.wstack_ptr += 4;
        }
        self.regs.fill_previous(regs);
        self.stats.data_reads += SPILL_REGS as u64;
        let cost = self.cfg.trap_overhead_cycles + SPILL_REGS as u64 * 2;
        self.stats.trap_cycles += cost;
        Ok(cost)
    }
}

/// The memory access for a load opcode, with its width and sign extension.
/// Free-standing (not a `Cpu` method) so the trace executor can call it
/// while holding a borrow of the trace cache.
#[inline]
fn load_op(mem: &mut Memory, op: Opcode, addr: u32) -> Result<u32, MemError> {
    Ok(match op {
        Opcode::Ldl => mem.read_u32(addr)?,
        Opcode::Ldsu => mem.read_u16(addr)? as u32,
        Opcode::Ldss => mem.read_u16(addr)? as i16 as i32 as u32,
        Opcode::Ldbu => mem.read_u8(addr)? as u32,
        Opcode::Ldbs => mem.read_u8(addr)? as i8 as i32 as u32,
        _ => unreachable!("not a load"),
    })
}

/// The memory access for a store opcode at its width.
#[inline]
fn store_op(mem: &mut Memory, op: Opcode, addr: u32, v: u32) -> Result<(), MemError> {
    match op {
        Opcode::Stl => mem.write_u32(addr, v),
        Opcode::Sts => mem.write_u16(addr, v as u16),
        Opcode::Stb => mem.write_u8(addr, v as u8),
        _ => unreachable!("not a store"),
    }
}

/// Replays the per-instruction statistics of `meta[..n]` — the committed
/// prefix of a side-exiting trace run. Field for field what
/// `exec_prepared` bumps per op (tracing preconditions pin the rest:
/// forwarding ⇒ no hazard bubbles, and traced ops are never calls,
/// returns or window traps).
fn replay_meta(stats: &mut ExecStats, meta: &[TMeta], n: usize) {
    for m in &meta[..n] {
        stats.retire(m.op);
        if m.pending_before.is_some() {
            stats.delay_slots += 1;
            stats.delay_slot_nops += u64::from(m.nop);
        }
        stats.cycles += u64::from(m.base) + u64::from(m.bubble);
        stats.bubble_cycles += u64::from(m.bubble);
        stats.data_reads += u64::from(m.is_load);
        stats.data_writes += u64::from(m.is_store);
        stats.taken_transfers += u64::from(m.taken);
    }
}

/// The trap event for a data-access fault at `addr` by the instruction at
/// `pc`.
fn data_trap(pc: u32, addr: u32, err: MemError) -> StepEvent {
    StepEvent::Trap {
        kind: match err {
            MemError::Misaligned { .. } => TrapKind::Misaligned,
            MemError::OutOfRange { .. } => TrapKind::DataAccess,
        },
        pc,
        info: addr,
        err: ExecError::Mem { pc, err },
    }
}

/// The step event for a failed window spill requested by the instruction
/// at `pc`.
fn spill_event(pc: u32, f: SpillFail) -> StepEvent {
    match f {
        SpillFail::Exhausted { ptr } => StepEvent::Trap {
            kind: TrapKind::WindowStackExhausted,
            pc,
            info: ptr,
            err: ExecError::WindowStackOverflow { ptr },
        },
        SpillFail::Mem(e) => StepEvent::Fatal(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risc1_isa::{Cond, Short2};

    fn imm(v: i32) -> Short2 {
        Short2::imm(v).unwrap()
    }

    /// Builds, loads and runs a program, returning the CPU for inspection.
    fn run_program(insns: Vec<Instruction>) -> Cpu {
        run_with(SimConfig::default(), insns, &[])
    }

    fn run_with(cfg: SimConfig, insns: Vec<Instruction>, args: &[i32]) -> Cpu {
        let mut cpu = Cpu::new(cfg);
        cpu.load_program(&Program::from_instructions(insns))
            .unwrap();
        cpu.set_args(args);
        cpu.run().expect("program should halt cleanly");
        cpu
    }

    fn halt_seq() -> Vec<Instruction> {
        vec![Instruction::ret(Reg::R0, imm(0)), Instruction::nop()]
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut p = vec![
            Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, imm(40)),
            Instruction::reg(Opcode::Add, Reg::R16, Reg::R16, imm(2)),
            Instruction::reg(Opcode::Add, Reg::R26, Reg::R16, Short2::ZERO),
        ];
        p.extend(halt_seq());
        let cpu = run_program(p);
        assert_eq!(cpu.result(), 42);
        assert!(cpu.is_halted());
    }

    #[test]
    fn loads_and_stores_roundtrip_through_memory() {
        let mut p = vec![
            // r16 := 0x2000 (data scratch; built with ldhi since 0x2000
            // exceeds the 13-bit immediate), store −2, reload as halves
            Instruction::ldhi(Reg::R16, 1),
            Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, imm(-2)), // 0xFFFF_FFFE
            Instruction::reg(Opcode::Stl, Reg::R17, Reg::R16, imm(0)),
            Instruction::reg(Opcode::Ldsu, Reg::R18, Reg::R16, imm(0)),
            Instruction::reg(Opcode::Ldss, Reg::R19, Reg::R16, imm(0)),
            Instruction::reg(Opcode::Ldbu, Reg::R20, Reg::R16, imm(3)),
            Instruction::reg(Opcode::Ldbs, Reg::R21, Reg::R16, imm(3)),
            Instruction::reg(Opcode::Ldl, Reg::R22, Reg::R16, imm(0)),
        ];
        p.extend(halt_seq());
        let cpu = run_program(p);
        assert_eq!(cpu.reg(Reg::R18), 0xfffe);
        assert_eq!(cpu.reg_i32(Reg::R19), -2);
        assert_eq!(cpu.reg(Reg::R20), 0xff);
        assert_eq!(cpu.reg_i32(Reg::R21), -1);
        assert_eq!(cpu.reg(Reg::R22), 0xffff_fffe);
    }

    #[test]
    fn delayed_jump_executes_slot_then_target() {
        // jmpr alw +12 skips exactly one instruction beyond its slot.
        let mut p = vec![
            Instruction::jmpr(Cond::Alw, 12), // 0: jump to 12
            Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, imm(1)), // 4: delay slot RUNS
            Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, imm(99)), // 8: skipped
            Instruction::reg(Opcode::Add, Reg::R18, Reg::R0, imm(2)), // 12: target
        ];
        p.extend(halt_seq());
        let cpu = run_program(p);
        assert_eq!(cpu.reg(Reg::R16), 1, "delay slot executed");
        assert_eq!(cpu.reg(Reg::R17), 0, "skipped instruction did not run");
        assert_eq!(cpu.reg(Reg::R18), 2, "target executed");
    }

    #[test]
    fn conditional_jump_taken_and_not_taken() {
        // r16 = 5; compare to 5; jeq taken. Then compare to 6; jeq not taken.
        let mut p = vec![
            Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, imm(5)),
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R16, imm(5)),
            Instruction::jmpr(Cond::Eq, 12), // to +12 (skip the poison)
            Instruction::nop(),
            Instruction::reg(Opcode::Add, Reg::R20, Reg::R0, imm(1)), // poison: skipped
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R16, imm(6)),
            Instruction::jmpr(Cond::Eq, 12), // NOT taken
            Instruction::nop(),
            Instruction::reg(Opcode::Add, Reg::R21, Reg::R0, imm(1)), // runs
        ];
        p.extend(halt_seq());
        let cpu = run_program(p);
        assert_eq!(cpu.reg(Reg::R20), 0);
        assert_eq!(cpu.reg(Reg::R21), 1);
    }

    #[test]
    fn call_and_ret_pass_parameters_through_window_overlap() {
        // main: r10 := 7; call f; result comes back in r10.
        // f: r26 (== caller r10) += 1; write into r26; ret.
        let p = vec![
            /* 0  */ Instruction::reg(Opcode::Add, Reg::R10, Reg::R0, imm(7)),
            /* 4  */ Instruction::callr(Reg::R25, 12), // f at 4+12=16
            /* 8  */ Instruction::nop(), // call delay slot
            /* 12 */
            Instruction::reg(Opcode::Add, Reg::R26, Reg::R10, Short2::ZERO), // result to r26
            // (falls through to f? no: execution continues at 12 after ret, then needs halt)
            /* 16 */
            Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(1)), // f body
            /* 20 */ Instruction::ret(Reg::R25, imm(8)),
            /* 24 */ Instruction::nop(), // ret delay slot
        ];
        // After ret, control returns to call_pc+8 = 12, which copies r10
        // to r26 and falls through to 16... that would re-enter f. Add an
        // explicit halt by making 12 the last "main" instruction jump to a
        // halt stub instead — simpler: rebuild with halt at 12.
        let p = {
            let mut q = p;
            q[3] = Instruction::ret(Reg::R0, imm(0)); // halt at depth 0 (r10 holds result)
            q
        };
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        cpu.run().unwrap();
        assert_eq!(cpu.reg(Reg::R10), 8, "callee wrote r26 == caller r10");
        let s = cpu.stats();
        assert_eq!(s.calls, 1);
        assert_eq!(s.rets, 1);
        assert_eq!(s.max_depth, 1);
    }

    #[test]
    fn ret_at_depth_zero_halts_without_jumping() {
        let cpu = run_program(halt_seq());
        assert!(cpu.is_halted());
        assert_eq!(cpu.stats().rets, 0, "a halting ret is not a return");
    }

    #[test]
    fn deep_recursion_overflows_and_recovers() {
        // f(n): if n == 0 return 0; return f(n-1) + n  — triangular number,
        // forcing window traps with a small file.
        // Layout (entry = main at 0, f at 16):
        let f_entry = 16;
        let p = vec![
            /* 0: main */
            Instruction::reg(Opcode::Add, Reg::R10, Reg::R0, imm(20)), // arg n=20
            Instruction::callr(Reg::R25, f_entry - 4),                 // call f
            Instruction::nop(),
            Instruction::ret(Reg::R0, imm(0)), // halt; result in r10
            /* 16: f(n in r26) */
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R26, imm(0)),
            Instruction::jmpr(Cond::Ne, 16), // if n != 0 goto recurse (at 20+16=36)
            Instruction::nop(),
            Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, imm(0)), // base: return 0
            Instruction::ret(Reg::R25, imm(8)),
            Instruction::nop(),
            /* 36: recurse */
            Instruction::reg(Opcode::Sub, Reg::R10, Reg::R26, imm(1)), // arg = n-1
            Instruction::callr(Reg::R25, f_entry - 44),                // call f (callr sits at 44)
            Instruction::nop(),
            /* 48: after call: r10 = f(n-1); return r10 + n */
            Instruction::reg(Opcode::Add, Reg::R26, Reg::R10, Reg::R26.into()),
            Instruction::ret(Reg::R25, imm(8)),
            Instruction::nop(),
        ];
        let cfg = SimConfig::with_windows(4);
        let mut cpu = Cpu::new(cfg);
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        cpu.run().unwrap();
        assert_eq!(cpu.reg(Reg::R10), 210, "sum 1..=20");
        let s = cpu.stats();
        assert_eq!(s.calls, 21);
        assert!(
            s.window_overflows > 0,
            "4-window file must spill at depth 21"
        );
        assert_eq!(s.window_overflows, s.window_underflows);
        assert_eq!(s.max_depth, 21);
        assert!(s.trap_cycles > 0);
        // Spills and fills balance: 16 writes per overflow, 16 reads per
        // underflow, plus no other memory traffic in this program.
        assert_eq!(s.data_writes, 16 * s.window_overflows);
        assert_eq!(s.data_reads, 16 * s.window_underflows);
    }

    #[test]
    fn eight_window_default_never_spills_at_shallow_depth() {
        // Same program as above but depth 5 on the default 8-window file.
        let f_entry = 16;
        let p = vec![
            Instruction::reg(Opcode::Add, Reg::R10, Reg::R0, imm(5)),
            Instruction::callr(Reg::R25, f_entry - 4),
            Instruction::nop(),
            Instruction::ret(Reg::R0, imm(0)),
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R26, imm(0)),
            Instruction::jmpr(Cond::Ne, 16),
            Instruction::nop(),
            Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, imm(0)),
            Instruction::ret(Reg::R25, imm(8)),
            Instruction::nop(),
            Instruction::reg(Opcode::Sub, Reg::R10, Reg::R26, imm(1)),
            Instruction::callr(Reg::R25, f_entry - 44),
            Instruction::nop(),
            Instruction::reg(Opcode::Add, Reg::R26, Reg::R10, Reg::R26.into()),
            Instruction::ret(Reg::R25, imm(8)),
            Instruction::nop(),
        ];
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        cpu.run().unwrap();
        assert_eq!(cpu.reg(Reg::R10), 15);
        assert_eq!(cpu.stats().window_overflows, 0);
    }

    #[test]
    fn transfer_in_delay_slot_is_rejected() {
        let p = vec![
            Instruction::jmpr(Cond::Alw, 8),
            Instruction::jmpr(Cond::Alw, 8), // in the delay slot: illegal
        ];
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        let err = cpu.run().unwrap_err();
        assert!(matches!(err, ExecError::TransferInDelaySlot { .. }));
    }

    #[test]
    fn fuel_limit_stops_runaway_loops() {
        let p = vec![
            Instruction::jmpr(Cond::Alw, 0), // jump to self
            Instruction::nop(),
        ];
        let cfg = SimConfig {
            fuel: 1000,
            ..SimConfig::default()
        };
        let mut cpu = Cpu::new(cfg);
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        assert_eq!(cpu.run().unwrap_err(), ExecError::OutOfFuel);
    }

    #[test]
    fn misaligned_access_faults() {
        let mut p = vec![
            Instruction::ldhi(Reg::R16, 1), // r16 := 0x2000
            Instruction::nop(),
            Instruction::reg(Opcode::Ldl, Reg::R17, Reg::R16, imm(2)), // misaligned
        ];
        p.extend(halt_seq());
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        let err = cpu.run().unwrap_err();
        assert!(matches!(
            err,
            ExecError::Mem {
                err: MemError::Misaligned { .. },
                ..
            }
        ));
    }

    #[test]
    fn load_constant_builds_full_constants() {
        // Exercise the ldhi+add idiom across sign-extension edge cases.
        for big in [
            0xdead_beefu32,
            0x0000_1000,
            0xffff_f000,
            0x7fff_ffff,
            0x8000_0000,
            123,
            (-5i32) as u32,
        ] {
            let mut p = Instruction::load_constant(Reg::R16, big);
            p.extend(halt_seq());
            let cpu = run_program(p);
            assert_eq!(cpu.reg(Reg::R16), big, "constant {big:#x}");
        }
    }

    #[test]
    fn getpsw_reflects_flags_and_putpsw_restores_them() {
        let mut p = vec![
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R0, imm(0)), // Z=1, C=1
            Instruction::reg(Opcode::Getpsw, Reg::R16, Reg::R0, Short2::ZERO),
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R0, imm(1)), // clobber flags
            Instruction::reg(Opcode::Putpsw, Reg::R0, Reg::R16, Short2::ZERO),
            Instruction::reg(Opcode::Getpsw, Reg::R17, Reg::R0, Short2::ZERO),
        ];
        p.extend(halt_seq());
        let cpu = run_program(p);
        let a = Psw::from_word(cpu.reg(Reg::R16));
        let b = Psw::from_word(cpu.reg(Reg::R17));
        assert_eq!(a.flags, b.flags, "putpsw restored the flags");
        assert!(a.flags.z && a.flags.c);
    }

    #[test]
    fn gtlpc_returns_previous_pc() {
        let mut p = vec![
            Instruction::nop(),                                               // pc 0x1000
            Instruction::reg(Opcode::Gtlpc, Reg::R16, Reg::R0, Short2::ZERO), // pc 0x1004
        ];
        p.extend(halt_seq());
        let cpu = run_program(p);
        assert_eq!(cpu.reg(Reg::R16), 0x1000);
    }

    #[test]
    fn suspended_model_charges_taken_transfers() {
        let body = |_: ()| {
            let mut p = vec![Instruction::jmpr(Cond::Alw, 8), Instruction::nop()];
            p.extend(halt_seq());
            p
        };
        let delayed = run_with(SimConfig::default(), body(()), &[]);
        let suspended = run_with(
            SimConfig {
                branch_model: BranchModel::Suspended,
                ..SimConfig::default()
            },
            body(()),
            &[],
        );
        assert_eq!(
            suspended.stats().cycles,
            delayed.stats().cycles + 1,
            "one taken jmpr costs one extra bubble under the suspended model"
        );
        assert_eq!(suspended.stats().bubble_cycles, 1);
    }

    #[test]
    fn load_use_interlock_without_forwarding() {
        let body = || {
            let mut p = vec![
                Instruction::ldhi(Reg::R16, 1), // r16 := 0x2000
                Instruction::nop(),             // break the ldhi->ldl dependency
                Instruction::reg(Opcode::Ldl, Reg::R16, Reg::R16, Short2::ZERO),
                Instruction::reg(Opcode::Add, Reg::R17, Reg::R16, imm(1)), // uses loaded value
            ];
            p.extend(halt_seq());
            p
        };
        let with_fwd = run_with(SimConfig::default(), body(), &[]);
        let no_fwd = run_with(
            SimConfig {
                forwarding: false,
                ..SimConfig::default()
            },
            body(),
            &[],
        );
        assert_eq!(no_fwd.stats().cycles, with_fwd.stats().cycles + 1);
    }

    #[test]
    fn window_stack_exhaustion_is_detected() {
        // Infinite recursion: call self forever. The window save stack is
        // finite, so the simulator must fail with WindowStackOverflow (not
        // silently corrupt memory).
        let p = vec![
            Instruction::callr(Reg::R25, 0), // call self
            Instruction::nop(),
        ];
        let cfg = SimConfig {
            windows: 2,
            stack_top: 0xe0000,
            window_stack_top: 0xe0100, // tiny save area: 4 spills
            ..SimConfig::default()
        };
        let mut cpu = Cpu::new(cfg);
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        let err = cpu.run().unwrap_err();
        assert!(
            matches!(err, ExecError::WindowStackOverflow { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn step_after_halt_is_idempotent() {
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(halt_seq()))
            .unwrap();
        cpu.run().unwrap();
        let stats = cpu.stats();
        // Further steps (and runs) are no-ops, not errors.
        assert_eq!(cpu.step(), Ok(Halt::Returned));
        assert_eq!(cpu.step(), Ok(Halt::Returned));
        assert_eq!(cpu.run(), Ok(()));
        assert_eq!(cpu.stats(), stats, "no work is done after halt");
    }

    /// Writes a `reti r25, #s2; nop` stub at `addr` and installs it as the
    /// handler for `kind`.
    fn install_stub(cpu: &mut Cpu, kind: TrapKind, addr: u32, s2: i32) {
        let stub = [Instruction::reti(Reg::R25, imm(s2)), Instruction::nop()];
        for (i, insn) in stub.iter().enumerate() {
            cpu.mem
                .load_image(addr + 4 * i as u32, &insn.encode().to_le_bytes())
                .unwrap();
        }
        cpu.set_trap_handler(kind, addr);
    }

    #[test]
    fn misaligned_fault_vectors_skips_and_continues() {
        // Same program as `misaligned_access_faults`, but with a skip
        // handler installed: the faulting load is dropped, r17 stays 0,
        // and the program halts cleanly.
        let mut p = vec![
            Instruction::ldhi(Reg::R16, 1), // r16 := 0x2000
            Instruction::nop(),
            Instruction::reg(Opcode::Ldl, Reg::R17, Reg::R16, imm(2)), // misaligned
            Instruction::reg(Opcode::Add, Reg::R18, Reg::R0, imm(7)),
        ];
        p.extend(halt_seq());
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        install_stub(&mut cpu, TrapKind::Misaligned, 0x100, 4);
        cpu.run().unwrap();
        assert!(cpu.is_halted());
        assert_eq!(cpu.reg(Reg::R17), 0, "faulting load was skipped");
        assert_eq!(cpu.reg(Reg::R18), 7, "execution continued after the skip");
        let s = cpu.stats();
        assert_eq!(s.trap_entries, 1);
        assert_eq!(s.trap_returns, 1);
        assert_eq!(s.trap_count(TrapKind::Misaligned), 1);
        assert!(s.trap_entry_cycles >= cpu.config().trap_overhead_cycles);
    }

    #[test]
    fn trap_handler_sees_cause_and_info_registers() {
        // Handler copies r23/r24 (info, cause) to globals r2/r3 so the
        // test can observe them after resume.
        let mut p = vec![
            Instruction::ldhi(Reg::R16, 1),
            Instruction::nop(),
            Instruction::reg(Opcode::Ldl, Reg::R17, Reg::R16, imm(2)), // misaligned at 0x2002
        ];
        p.extend(halt_seq());
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        let handler = [
            Instruction::reg(Opcode::Add, Reg::R2, Reg::R23, Short2::ZERO),
            Instruction::reg(Opcode::Add, Reg::R3, Reg::R24, Short2::ZERO),
            Instruction::reg(Opcode::Add, Reg::R4, Reg::R25, Short2::ZERO),
            Instruction::reti(Reg::R25, imm(4)),
            Instruction::nop(),
        ];
        for (i, insn) in handler.iter().enumerate() {
            cpu.mem
                .load_image(0x200 + 4 * i as u32, &insn.encode().to_le_bytes())
                .unwrap();
        }
        cpu.set_trap_handler(TrapKind::Misaligned, 0x200);
        cpu.run().unwrap();
        assert_eq!(cpu.reg(Reg::R2), 0x2002, "info word = fault address");
        assert_eq!(cpu.reg(Reg::R3), TrapKind::Misaligned.code(), "cause code");
        assert_eq!(cpu.reg(Reg::R4), 0x1008, "restart PC = faulting load");
    }

    #[test]
    fn unhandled_faults_keep_structured_errors_with_cause() {
        let mut p = vec![
            Instruction::ldhi(Reg::R16, 1),
            Instruction::nop(),
            Instruction::reg(Opcode::Ldl, Reg::R17, Reg::R16, imm(2)),
        ];
        p.extend(halt_seq());
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        let err = cpu.run().unwrap_err();
        let cause = err.trap_cause().expect("vectorable fault has a cause");
        assert_eq!(cause.kind, TrapKind::Misaligned);
        assert_eq!(cause.info, 0x2002);
    }

    #[test]
    fn fault_in_delay_slot_restarts_at_the_transfer() {
        // jmpr jumps over a poison instruction; its delay slot loads
        // through global r2, which holds a misaligned address. The lastpc
        // rule: restart = the jmpr itself, so after the handler fixes r2
        // and re-executes, the jump is replayed, the slot succeeds, and
        // the poison instruction never runs.
        let mut p = vec![
            Instruction::ldhi(Reg::R2, 1),                           // 0x1000
            Instruction::reg(Opcode::Add, Reg::R2, Reg::R2, imm(2)), // 0x1004: 0x2002
            Instruction::jmpr(Cond::Alw, 12),                        // 0x1008 -> 0x1014
            Instruction::reg(Opcode::Ldl, Reg::R17, Reg::R2, Short2::ZERO), // 0x100c slot
            Instruction::reg(Opcode::Add, Reg::R20, Reg::R0, imm(1)), // 0x1010 poison
            Instruction::reg(Opcode::Add, Reg::R21, Reg::R0, imm(2)), // 0x1014 target
        ];
        p.extend(halt_seq());
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        // Handler: record the restart PC, repair the address, re-execute.
        let handler = [
            Instruction::reg(Opcode::Add, Reg::R4, Reg::R25, Short2::ZERO),
            Instruction::reg(Opcode::Sub, Reg::R2, Reg::R2, imm(2)),
            Instruction::reti(Reg::R25, imm(0)),
            Instruction::nop(),
        ];
        for (i, insn) in handler.iter().enumerate() {
            cpu.mem
                .load_image(0x200 + 4 * i as u32, &insn.encode().to_le_bytes())
                .unwrap();
        }
        cpu.set_trap_handler(TrapKind::Misaligned, 0x200);
        cpu.run().unwrap();
        assert_eq!(cpu.reg(Reg::R4), 0x1008, "restart is the transfer's PC");
        assert_eq!(
            cpu.reg(Reg::R20),
            0,
            "poison in the jumped-over gap never runs"
        );
        assert_eq!(cpu.reg(Reg::R21), 2);
        assert_eq!(cpu.stats().trap_entries, 1, "re-execution succeeds");
    }

    #[test]
    fn probe_resume_is_bit_for_bit_transparent() {
        let build = || {
            let mut p = vec![
                Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, imm(40)),
                Instruction::reg(Opcode::Add, Reg::R16, Reg::R16, imm(2)),
                Instruction::reg(Opcode::Add, Reg::R26, Reg::R16, Short2::ZERO),
            ];
            p.extend(halt_seq());
            p
        };
        let clean = run_program(build());
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(build()))
            .unwrap();
        install_stub(&mut cpu, TrapKind::Misaligned, 0x100, 0);
        cpu.inject_probe(TrapKind::Misaligned);
        cpu.step().unwrap(); // delivers the probe
        assert_eq!(cpu.stats().trap_entries, 1);
        cpu.run().unwrap();
        assert_eq!(cpu.result(), clean.result());
        assert_eq!(cpu.reg(Reg::R16), clean.reg(Reg::R16));
    }

    #[test]
    fn probe_without_handler_is_a_structured_fault() {
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(halt_seq()))
            .unwrap();
        cpu.inject_probe(TrapKind::Decode);
        let err = cpu.run().unwrap_err();
        assert!(matches!(err, ExecError::Decode { .. }), "{err:?}");
    }

    #[test]
    fn faulting_handler_double_faults_instead_of_recursing() {
        // The Misaligned handler itself performs a misaligned load.
        let mut p = vec![
            Instruction::ldhi(Reg::R16, 1),
            Instruction::nop(),
            Instruction::reg(Opcode::Ldl, Reg::R17, Reg::R16, imm(2)),
        ];
        p.extend(halt_seq());
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        let handler = [
            Instruction::ldhi(Reg::R16, 1),
            Instruction::reg(Opcode::Ldl, Reg::R17, Reg::R16, imm(2)), // faults again
            Instruction::reti(Reg::R25, imm(4)),
            Instruction::nop(),
        ];
        for (i, insn) in handler.iter().enumerate() {
            cpu.mem
                .load_image(0x200 + 4 * i as u32, &insn.encode().to_le_bytes())
                .unwrap();
        }
        cpu.set_trap_handler(TrapKind::Misaligned, 0x200);
        let err = cpu.run().unwrap_err();
        assert_eq!(
            err,
            ExecError::DoubleFault {
                pc: 0x204,
                first: TrapKind::Misaligned,
                second: TrapKind::Misaligned,
                ctx: ReplayContext::default(),
            }
        );
    }

    #[test]
    fn window_exhaustion_recovers_through_the_emergency_reserve() {
        // Deep recursion on a 2-window file with a tiny save area. The
        // skip handler drops calls that can no longer be serviced, so the
        // recursion unwinds and the program halts cleanly instead of
        // dying with WindowStackOverflow.
        let f_entry = 16;
        let p = vec![
            Instruction::reg(Opcode::Add, Reg::R10, Reg::R0, imm(20)),
            Instruction::callr(Reg::R25, f_entry - 4),
            Instruction::nop(),
            Instruction::ret(Reg::R0, imm(0)),
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R26, imm(0)),
            Instruction::jmpr(Cond::Ne, 16),
            Instruction::nop(),
            Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, imm(0)),
            Instruction::ret(Reg::R25, imm(8)),
            Instruction::nop(),
            Instruction::reg(Opcode::Sub, Reg::R10, Reg::R26, imm(1)),
            Instruction::callr(Reg::R25, f_entry - 44),
            Instruction::nop(),
            Instruction::reg(Opcode::Add, Reg::R26, Reg::R10, Reg::R26.into()),
            Instruction::ret(Reg::R25, imm(8)),
            Instruction::nop(),
        ];
        let cfg = SimConfig {
            windows: 2,
            stack_top: 0xe0000,
            window_stack_top: 0xe0100, // 4 frames incl. the reserve
            ..SimConfig::default()
        };
        let mut cpu = Cpu::new(cfg);
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        install_stub(&mut cpu, TrapKind::WindowStackExhausted, 0x100, 4);
        cpu.run().unwrap();
        assert!(cpu.is_halted(), "recovered to a clean halt");
        let s = cpu.stats();
        assert!(s.trap_count(TrapKind::WindowStackExhausted) > 0);
        assert_eq!(s.trap_entries, s.trap_returns);
    }

    #[test]
    fn try_set_args_rejects_more_than_six() {
        let mut cpu = Cpu::new(SimConfig::default());
        assert!(cpu.try_set_args(&[1, 2, 3, 4, 5, 6]).is_ok());
        let err = cpu.try_set_args(&[0; 7]).unwrap_err();
        assert_eq!(err.given, 7);
        assert!(err.to_string().contains("7"));
    }

    #[test]
    fn fuel_jitter_surface_works() {
        let p = vec![
            Instruction::jmpr(Cond::Alw, 0), // spin forever
            Instruction::nop(),
        ];
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(p)).unwrap();
        assert_eq!(cpu.fuel_limit(), SimConfig::default().fuel);
        cpu.set_fuel_limit(100);
        assert_eq!(cpu.run().unwrap_err(), ExecError::OutOfFuel);
        assert!(cpu.stats().instructions <= 100);
    }

    #[test]
    fn config_trap_base_preinstalls_the_vector_table() {
        let cfg = SimConfig {
            trap_base: Some(0x400),
            ..SimConfig::default()
        };
        let cpu = Cpu::new(cfg);
        for kind in TrapKind::ALL {
            assert_eq!(
                cpu.trap_handler(kind),
                Some(0x400 + kind.index() as u32 * TRAP_VECTOR_STRIDE)
            );
        }
    }

    #[test]
    fn trace_records_when_enabled() {
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let mut prog = vec![Instruction::nop()];
        prog.extend(halt_seq());
        let cpu = run_with(cfg, prog, &[]);
        // nop + halting ret retire; the ret's delay slot never runs because
        // the machine stops at depth 0.
        assert_eq!(cpu.trace().len(), 2);
        assert_eq!(cpu.trace()[0].pc, 0x1000);
        assert!(!cpu.trace()[1].in_delay_slot);
        // Disabled by default:
        let cpu2 = run_program(halt_seq());
        assert!(cpu2.trace().is_empty());
    }

    /// A loop dense in fusable idioms: LDHI+imm constant, ALU→load address
    /// feed, compare+branch, and a bare transfer+slot, iterated enough to
    /// exercise block chaining *and* clear the trace tier's promotion
    /// threshold.
    fn fusion_workout() -> Vec<Instruction> {
        let mut p = vec![
            // r16 := 0x2000 + 8 (LDHI + imm pair), seed [r16] with 7.
            Instruction::ldhi(Reg::R16, 1),
            Instruction::reg(Opcode::Add, Reg::R16, Reg::R16, imm(8)),
            Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, imm(7)),
            Instruction::reg(Opcode::Stl, Reg::R17, Reg::R16, imm(0)),
            Instruction::reg(Opcode::Add, Reg::R20, Reg::R0, imm(0)), // i
            Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, imm(0)), // acc
            // loop: r18 := r16 + 0 (addr feed) ; r19 := [r18]
            Instruction::reg(Opcode::Add, Reg::R18, Reg::R16, imm(0)),
            Instruction::reg(Opcode::Ldl, Reg::R19, Reg::R18, imm(0)),
            Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, Short2::reg(Reg::R19)),
            Instruction::reg(Opcode::Add, Reg::R20, Reg::R20, imm(1)),
            // compare + conditional branch back to loop (8 insns up).
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R20, imm(100)),
            Instruction::jmpr(Cond::Lt, -5 * INSN_BYTES as i32),
            Instruction::nop(), // the branch's delay slot
        ];
        p.extend(halt_seq());
        p
    }

    #[test]
    fn engines_agree_and_superblocks_fuse() {
        let run_engine = |engine| {
            let cfg = SimConfig {
                engine,
                ..SimConfig::default()
            };
            run_with(cfg, fusion_workout(), &[])
        };
        let unc = run_engine(ExecEngine::Uncached);
        let cac = run_engine(ExecEngine::Cached);
        let sup = run_engine(ExecEngine::Superblock);
        let trc = run_engine(ExecEngine::Trace);
        assert_eq!(unc.result(), 7 * 100);
        assert_eq!(unc.stats(), cac.stats());
        assert_eq!(cac.stats(), sup.stats());
        assert_eq!(sup.stats(), trc.stats());
        for r in [Reg::R16, Reg::R18, Reg::R19, Reg::R20, Reg::R26] {
            assert_eq!(unc.reg(r), sup.reg(r), "{r:?}");
            assert_eq!(unc.reg(r), trc.reg(r), "{r:?} (trace)");
        }
        // And the superblock engine actually engaged.
        assert!(sup.stats().blocks_entered > 0, "blocks formed");
        assert!(sup.stats().mean_block_len().unwrap() > 1.0);
        assert!(
            sup.stats().fused(FuseKind::CmpBranch) >= 100,
            "loop branch fused each iteration"
        );
        assert!(sup.stats().fused(FuseKind::AddrFeed) >= 100);
        assert!(sup.stats().fused(FuseKind::LdhiImm) >= 1);
        assert_eq!(unc.stats().fused_total(), 0, "uncached engine never fuses");
        // The trace tier promoted the hot loop and ran it from trace IR.
        assert!(trc.stats().traces_built >= 1, "loop promoted to a trace");
        assert!(trc.stats().trace_entries >= 1, "trace entered");
        assert!(
            trc.stats().trace_instructions > 0,
            "instructions retired from trace IR"
        );
    }

    /// The superblock and trace engines must be exact under any chopping
    /// of the timeline: `step()` one at a time, odd `step_n` sizes, and
    /// one straight `run()` all retire the same architectural stats.
    #[test]
    fn superblock_is_exact_under_any_step_chopping() {
        let run_chopped = |engine, chunk: u64| {
            let cfg = SimConfig {
                engine,
                ..SimConfig::default()
            };
            let mut cpu = Cpu::new(cfg);
            cpu.load_program(&Program::from_instructions(fusion_workout()))
                .unwrap();
            loop {
                let halt = if chunk == 0 {
                    cpu.step().unwrap()
                } else {
                    cpu.step_n(chunk).unwrap()
                };
                if halt == Halt::Returned {
                    break;
                }
            }
            cpu
        };
        let straight = run_program(fusion_workout());
        for engine in [ExecEngine::Superblock, ExecEngine::Trace] {
            for chunk in [0, 1, 3, 7, 100] {
                let chopped = run_chopped(engine, chunk);
                assert_eq!(
                    chopped.stats(),
                    straight.stats(),
                    "{engine:?} chunk {chunk}"
                );
                assert_eq!(
                    chopped.result(),
                    straight.result(),
                    "{engine:?} chunk {chunk}"
                );
            }
        }
    }

    /// Exact-`n` contract: `step_n(n)` performs exactly `n` step units
    /// even when blocks (or whole traces) would overrun the budget
    /// mid-flight.
    #[test]
    fn step_n_is_exact_about_n_under_superblock() {
        for engine in [ExecEngine::Superblock, ExecEngine::Trace] {
            let cfg = SimConfig {
                engine,
                ..SimConfig::default()
            };
            let mut a = Cpu::new(cfg);
            a.load_program(&Program::from_instructions(fusion_workout()))
                .unwrap();
            let mut b = a.clone();
            // 17 deliberately lands mid-block; under the trace engine the
            // second call lands mid-trace once the loop is promoted.
            for _ in 0..8 {
                assert_eq!(a.step_n(17).unwrap(), Halt::Running, "{engine:?}");
            }
            for _ in 0..8 * 17 {
                b.step().unwrap();
            }
            assert_eq!(a.stats(), b.stats(), "{engine:?}");
            assert_eq!(a.pc(), b.pc(), "{engine:?}");
        }
    }
}
