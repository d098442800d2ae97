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
//!
//! Each op's effect (its register write, memory access, transfer target or
//! window move) is one helper, which two executors run. `exec_prepared`
//! executes one instruction and counts its statistics; every tier reaches
//! it, and it is the only path for the ops that touch the PSW, `last_pc`
//! or the trap unit, and for every op under the interlock model, where no
//! block forms. The block executor (`exec_block`) runs a
//! superblock's ops for their effects alone and settles the block's
//! statistics and PC state once, from aggregates built when the block
//! formed (see `crate::superblock`); an op that leaves a block early
//! replays what committed, by the rules the trace tier uses too
//! (`crate::retire`). Every tier fetches through one function, `fetch`,
//! and runs one burst loop, `Cpu::exec_block_burst`.

use crate::config::{BranchModel, ExecEngine, SimConfig};
use crate::exec::alu;
use crate::line::Line;
use crate::mem::{MemError, Memory};
use crate::program::Program;
use crate::retire::replay_meta;
use crate::snapshot::{CpuState, RestoreError, Snapshot};
use crate::stats::ExecStats;
use crate::superblock::{replay_prefix, retired, BlockCache, Body};
use crate::trace::{self, match_top, TExit, TOp};
use crate::trap::{TrapCause, TrapKind};
use crate::windows::{WindowFile, SPILL_REGS};
use risc1_isa::psw::Flags;
use risc1_isa::{DecodeError, Instruction, Opcode, Psw, Reg, Short2, INSN_BYTES};
use std::fmt;

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
    },
}

impl ExecError {
    /// The architectural trap this error corresponds to, if it is a
    /// vectorable fault (fuel exhaustion and double faults are not traps).
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
            ExecError::OutOfFuel | ExecError::DoubleFault { .. } => None,
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
            ExecError::DoubleFault { pc, first, second } => write!(
                f,
                "double fault at pc {pc:#010x}: {second} trap while servicing {first}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

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
pub(crate) enum StepEvent {
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

/// Why the block executor left a block before its end, at op `k`.
enum BlockExit {
    /// Op `k`'s access, spill or fill faulted: it retires alone.
    Fault {
        /// The op's index in the block.
        k: usize,
        /// What the fault raises.
        event: StepEvent,
    },
    /// Op `k`, a store or a call whose spill wrote, dirtied code: it
    /// committed whole, and the next block must see the new bytes.
    Dirty {
        /// The op's index in the block.
        k: usize,
    },
    /// Op `k`, a return at depth 0, halted the machine.
    Halt {
        /// The op's index in the block.
        k: usize,
    },
}

/// Rows the retirement recorder keeps: the first this many instructions a
/// machine retires once [`Cpu::record_retired`] arms it — the prefix the
/// pipeline diagrams of `risc1 trace` and E11 draw.
pub const RECORDER_ROWS: usize = 64;

/// One retired instruction, as the retirement recorder saw it.
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
    /// The retirement recorder ([`Cpu::record_retired`]): `None` until
    /// armed, then at most [`RECORDER_ROWS`] rows. A host-side observer, so
    /// like the block cache below it is absent from [`CpuState`], snapshots
    /// and every checksum.
    retired: Option<Vec<Retired>>,
    /// The block cache, the one cache of decoded code (every engine but
    /// `Uncached`), holding each compiled trace in the block it is entered
    /// at. Derived state only, rebuilt from memory on demand, so it is
    /// absent from [`CpuState`], snapshots, journals and every checksum.
    /// Invalidated by [`Cpu::drain_code_invalidations`].
    blocks: BlockCache,
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
                // Address arithmetic wraps, as the PC's does.
                trap_handlers[kind.index()] =
                    Some(base.wrapping_add(kind.index() as u32 * TRAP_VECTOR_STRIDE));
            }
        }
        let fuel_limit = cfg.fuel;
        let blocks = BlockCache::new(mem.page_count());
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
            interrupt_handler: None,
            interrupt_pending: false,
            trap_handlers,
            active_trap: None,
            pending_probe: None,
            fuel_limit,
            retired: None,
            blocks,
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
        // Address arithmetic wraps, as the PC's does.
        self.pc = self.cfg.code_base.wrapping_add(prog.entry_offset);
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
    /// come from any engine tier or fusion setting; this CPU keeps its own,
    /// and its retirement recorder too.
    ///
    /// # Errors
    /// [`RestoreError`] when the snapshot's version or machine
    /// configuration ([`SimConfig::architectural`]) does not match, or its
    /// checksum no longer verifies.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), RestoreError> {
        snap.restore_into(self)
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
            interrupt_handler: self.interrupt_handler,
            interrupt_pending: self.interrupt_pending,
            trap_handlers: self.trap_handlers,
            active_trap: self.active_trap,
            pending_probe: self.pending_probe,
            fuel_limit: self.fuel_limit,
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
        self.interrupt_handler = s.interrupt_handler;
        self.interrupt_pending = s.interrupt_pending;
        self.trap_handlers = s.trap_handlers;
        self.active_trap = s.active_trap;
        self.pending_probe = s.pending_probe;
        self.fuel_limit = s.fuel_limit;
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats.clone()
    }

    /// The register-window file (read-only), for experiments that inspect
    /// residency.
    pub fn windows(&self) -> &WindowFile {
        &self.regs
    }

    /// Arms the retirement recorder, emptying it: the machine notes the
    /// next [`RECORDER_ROWS`] instructions it retires, which
    /// [`Cpu::retired`] reads back. Until the recorder is full,
    /// [`Cpu::step_n`] takes the one-step path, so every row is one
    /// instruction seen alone; after that, execution is back at full speed.
    /// The recorder observes the machine without being part of it:
    /// snapshots, restores and checksums neither see nor touch it.
    pub fn record_retired(&mut self) {
        self.retired = Some(Vec::with_capacity(RECORDER_ROWS));
    }

    /// The rows the retirement recorder holds, oldest first (empty unless
    /// [`Cpu::record_retired`] armed it).
    pub fn retired(&self) -> &[Retired] {
        self.retired.as_deref().unwrap_or_default()
    }

    /// The trace entered at `pc`, if a live block starts there and has
    /// promoted.
    #[cfg(test)]
    pub(crate) fn trace_at(&self, pc: u32) -> Option<&trace::Trace> {
        self.blocks
            .lookup(pc)
            .and_then(|idx| self.blocks.trace(idx))
    }

    /// Whether the retirement recorder is armed and not yet full.
    fn recorder_wants_rows(&self) -> bool {
        self.retired
            .as_ref()
            .is_some_and(|rows| rows.len() < RECORDER_ROWS)
    }

    /// Whether the program has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Runs until the program returns from its entry frame, using the
    /// batched fast path of [`Cpu::step_n`]. Identical architectural
    /// behaviour to calling [`Cpu::step`] in a loop — this is merely the
    /// cheap way to do it.
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
            // Slow boundary: halt, armed events, fuel exhaustion and a
            // retirement recorder that still wants rows take the canonical
            // one-step path.
            if self.halted {
                return Ok(Halt::Returned);
            }
            if self.pending_probe.is_some()
                || self.interrupt_pending
                || self.stats.instructions >= self.fuel_limit
                || self.recorder_wants_rows()
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
            if self.exec_block_burst(burst, &mut done)? == Halt::Returned {
                return Ok(Halt::Returned);
            }
            left -= done;
        }
        Ok(Halt::Running)
    }

    /// The burst: up to `burst` step units, a block at a time where a
    /// block runs, one step at a time where none does. `done` is
    /// incremented by the step units consumed (one per retired instruction
    /// or trapping execution attempt — exactly what `step()` would count).
    /// Returns early — with the fuel boundary to be recomputed by the
    /// caller — after any vectored trap.
    ///
    /// Every engine runs this one loop, each by one rule: `Uncached` looks
    /// up no block, so every step takes the one-step path; `Superblock`
    /// runs block bodies on the block executor; `Trace` also promotes hot
    /// blocks to traces and runs them; and `Cached`, inert, runs as
    /// `Superblock`.
    fn exec_block_burst(&mut self, burst: u64, done: &mut u64) -> Result<Halt, ExecError> {
        // Blocks accumulate heat here, and hot entries promote to compiled
        // traces. Both need forwarding, which leaves no hazard bookkeeping
        // per op: without it, every tier takes the one-step path.
        let tracing = self.cfg.engine == ExecEngine::Trace && self.cfg.forwarding;
        let forms_blocks = self.cfg.engine != ExecEngine::Uncached && self.cfg.forwarding;
        while *done < burst {
            let left = burst - *done;
            // Blocks are entered only on clean boundaries: with a delayed
            // jump in flight the next instruction is a delay slot whose
            // successor depends on the pending target.
            let mut entry = None;
            if forms_blocks && self.pending_target.is_none() {
                self.drain_code_invalidations();
                let pc = self.pc;
                entry = match self.blocks.lookup(pc) {
                    Some(idx) => Some(idx),
                    None => self.blocks.build(&mut self.mem, pc, &self.cfg),
                };
            }
            if let Some(idx) = entry.filter(|_| tracing) {
                // The block's trace runs only when it is enabled, built for
                // the current window, and no longer than the step budget
                // left; otherwise the body runs. Building per-window traces
                // on a window miss (e.g. for recursive code) costs more in
                // build walks than the short per-window loops ever repay,
                // and a trace that could overrun the budget would break the
                // exact `n`-step contract.
                if let Some(t) = self.blocks.trace(idx) {
                    if t.enabled && t.cwp == self.regs.cwp() && u64::from(t.insns) <= left {
                        match self.exec_trace_burst(idx, burst, done) {
                            Ok(()) => continue,
                            other => return self.finish_exec(other.map(|()| Halt::Running)),
                        }
                    }
                }
            }
            let Some(idx) = entry.filter(|&idx| u64::from(self.blocks.block(idx).insns()) <= left)
            else {
                // One step on the one-step path: every step of the uncached
                // engine or of a machine without forwarding, a delay slot,
                // a one-step-only op, text no block forms from (about to
                // trap, which this raises), or a block that could overrun
                // the step/fuel budget and break the exact `n`-step
                // contract.
                *done += 1;
                match self.exec_one() {
                    Ok(Halt::Running) => continue,
                    other => return self.finish_exec(other),
                }
            };
            self.stats.blocks_entered += 1;
            let before = self.stats.instructions;
            let (r, dirtied) = self.exec_block_body(idx);
            let retired = self.stats.instructions - before;
            self.stats.block_instructions += retired;
            *done += retired;
            if !matches!(r, Ok(Halt::Running)) {
                return self.finish_exec(r);
            }
            if tracing && !dirtied {
                // Exact equality: one promotion attempt per block, so a
                // declined build (too short, untraceable text) is never
                // retried on every subsequent pass.
                let taken = self.pending_target.is_some() || self.pc != self.blocks.block(idx).end;
                let heat = self.blocks.bump_heat(idx, taken);
                if heat == trace::HOT_THRESHOLD {
                    let built =
                        trace::promote(&mut self.mem, &mut self.blocks, &self.regs, &self.cfg, idx);
                    self.stats.traces_built += u64::from(built);
                }
            }
        }
        Ok(Halt::Running)
    }

    /// Runs the body of the block at `idx` from its first op until it
    /// completes or leaves early: a vectorable fault or halt (returned as
    /// the result), or a code-dirty bail after a memory-writing op
    /// (returned as `true`).
    ///
    /// The body is taken out of its block for the run, so the lines are
    /// read while `self` is borrowed mutably, and put back before this
    /// returns, whichever way the run ended. That is sound only because
    /// nothing on the body path, the block executor, touches
    /// `self.blocks`: no block can be built, invalidated or compacted
    /// while a body is out.
    #[inline]
    fn exec_block_body(&mut self, idx: u32) -> (Result<Halt, StepEvent>, bool) {
        let block = self.blocks.block(idx);
        let (start, end) = (block.start, block.end);
        let body = self.blocks.take_body(idx);
        let out = self.exec_block(&body, start, end);
        self.blocks.put_body(idx, body);
        out
    }

    /// The block executor: runs `body`, a block from `start` to `end`
    /// entered with no jump in flight, dispatching each op once on its
    /// opcode for its effect alone, through the effect helpers
    /// `exec_prepared` uses. An ALU op, load or store runs with its opcode
    /// a constant, so the inlined ALU or access folds to the one operation,
    /// as a specialized trace op does. Nothing per op is counted and
    /// neither `pc` nor `last_pc` moves: a completed block settles once,
    /// from the aggregate of the direction its transfer went, and an early
    /// exit replays what committed ([`Cpu::leave_block`]). Spills and fills
    /// stay dynamic: the helpers charge them.
    ///
    /// Caller guarantees: the block fits the step budget and the machine
    /// has forwarding (so `last_write` is constantly `None`). No body holds
    /// a one-step-only op (CALLI, RETI, GTLPC, GETPSW, PUTPSW): a block
    /// ends before one.
    ///
    /// Never inlined: like the trace executor, its loop gets register
    /// allocation and code layout of its own, apart from the burst loop.
    #[inline(never)]
    fn exec_block(&mut self, body: &Body, start: u32, end: u32) -> (Result<Halt, StepEvent>, bool) {
        // The target the block's transfer left in flight, once it has
        // committed taken.
        let mut target = None;
        let exit = 'run: {
            for (k, line) in body.lines.iter().enumerate() {
                let pc = start.wrapping_add(INSN_BYTES * k as u32);
                macro_rules! dispatch {
                    (alu: $($alu:ident)*; load: $($ld:ident)*; store: $($st:ident)*) => {
                        match line.op {
                            $(Opcode::$alu => self.alu_effect(Opcode::$alu, line),)*
                            Opcode::Ldhi => self.ldhi_effect(line),
                            $(Opcode::$ld => {
                                if let Err(event) = self.load_effect(Opcode::$ld, line, pc) {
                                    break 'run BlockExit::Fault { k, event };
                                }
                            })*
                            $(Opcode::$st => {
                                if let Err(event) = self.store_effect(Opcode::$st, line, pc) {
                                    break 'run BlockExit::Fault { k, event };
                                }
                                if self.mem.code_dirty_pending() {
                                    break 'run BlockExit::Dirty { k };
                                }
                            })*
                            Opcode::Jmp | Opcode::Jmpr => target = self.jump_target(line, pc),
                            Opcode::Call | Opcode::Callr => match self.call_effect(line, pc) {
                                Ok(t) => {
                                    target = Some(t);
                                    if self.mem.code_dirty_pending() {
                                        break 'run BlockExit::Dirty { k };
                                    }
                                }
                                Err(event) => break 'run BlockExit::Fault { k, event },
                            },
                            Opcode::Ret => match self.ret_effect(line, pc) {
                                Ok(Some(t)) => target = Some(t),
                                Ok(None) => break 'run BlockExit::Halt { k },
                                Err(event) => break 'run BlockExit::Fault { k, event },
                            },
                            op => unreachable!("{op} is one-step only"),
                        }
                    };
                }
                dispatch! {
                    alu: Add Addc Sub Subc Subr Subcr And Or Xor Sll Srl Sra;
                    load: Ldl Ldsu Ldss Ldbu Ldbs;
                    store: Stl Sts Stb
                }
            }
            body.settle[usize::from(target.is_some())].apply(&mut self.stats);
            for &(op, n) in body.opcodes.iter() {
                self.stats.opcode_counts.add(op, u64::from(n));
            }
            (self.pc, self.pending_target) = if body.slot {
                (target.unwrap_or(end), None)
            } else {
                (end, target)
            };
            self.last_pc = end.wrapping_sub(INSN_BYTES);
            self.last_write = None;
            return (Ok(Halt::Running), false);
        };
        self.leave_block(&body.lines, start, target, exit)
    }

    /// Settles a block the executor left early at op `k`: replays the ops
    /// before it, then op `k` as it retired there, and leaves exactly the
    /// `pc`, `last_pc` and in-flight target `exec_prepared` would have. A
    /// fault leaves them describing the attempt, as `exec_prepared`'s
    /// early return does, so `finish_exec`'s lastpc rule restarts a fault
    /// in a taken transfer's delay slot at the transfer. `target` is what
    /// the block's transfer left in flight, if it committed taken.
    #[cold]
    #[inline(never)]
    fn leave_block(
        &mut self,
        lines: &[Line],
        start: u32,
        target: Option<u32>,
        exit: BlockExit,
    ) -> (Result<Halt, StepEvent>, bool) {
        let suspended = self.cfg.branch_model == BranchModel::Suspended;
        let k = match exit {
            BlockExit::Fault { k, .. } | BlockExit::Dirty { k } | BlockExit::Halt { k } => k,
        };
        replay_prefix(&mut self.stats, lines, start, k, target, suspended);
        let m = retired(lines, start, k, target, suspended);
        self.last_write = None;
        match exit {
            BlockExit::Fault { event, .. } => {
                replay_meta(&mut self.stats, &[m.faulted()]);
                self.pc = m.pc;
                self.pending_target = m.pending_before;
                if k > 0 {
                    self.last_pc = m.pc.wrapping_sub(INSN_BYTES);
                }
                (Err(event), false)
            }
            BlockExit::Dirty { .. } => {
                replay_meta(&mut self.stats, &[m]);
                self.pc = m.pending_before.unwrap_or(m.pc.wrapping_add(INSN_BYTES));
                self.pending_target = target.filter(|_| lines[k].is_transfer);
                self.last_pc = m.pc;
                (Ok(Halt::Running), true)
            }
            BlockExit::Halt { .. } => {
                replay_meta(&mut self.stats, &[m]);
                self.halted = true;
                self.pc = m.pc;
                self.last_pc = m.pc;
                (Ok(Halt::Returned), false)
            }
        }
    }

    /// Runs the trace of the block at `idx` (engine `Trace`): loads the
    /// live registers into the virtual register file, executes the IR with
    /// *no* per-instruction statistics or PC maintenance, and settles
    /// everything at exit — completed passes apply their paths'
    /// precomputed bulk aggregates and the final PC/pending/`last_pc` in
    /// O(1); self-loop traces iterate in place while the step budget
    /// allows, paying the register traffic only once per entry.
    ///
    /// The ops are walked by index: a pass runs the main path's ops, and a
    /// branch that disagrees with its profiled direction continues the pass
    /// on its arm, if it has one. Passes are counted per path.
    ///
    /// Side exits (guard mismatches, faults, code-dirty stores) replay the
    /// committed prefix of the path they left from the trace's static
    /// metadata, then the op they left at as it retired there (a store
    /// whole, a branch in its actual direction, a fault with its
    /// retirement alone), and restore exactly the architectural state the
    /// superblock engine would hold at that point; faults return the identical
    /// [`StepEvent`] the per-instruction executor would have raised, so the
    /// caller funnels them through the same `finish_exec` (lastpc rule and
    /// all).
    ///
    /// Caller guarantees: no delayed jump in flight, the trace's longest
    /// path fits in `burst - *done`, and `forwarding` (so `last_write` is
    /// constantly `None`).
    ///
    /// Never inlined: the executor is a function of its own, so its hot
    /// loop and the block loop of [`Cpu::exec_block_burst`], its one
    /// caller, get separate register allocation and code layout. Inlined
    /// there, it ran the five traced programs of perfbench's `run_loops`
    /// 8–20% slower (4 alternating pairs), and `intmm`, which stays in the
    /// block tier, no faster.
    #[inline(never)]
    fn exec_trace_burst(&mut self, idx: u32, burst: u64, done: &mut u64) -> Result<(), StepEvent> {
        // Borrowing the trace in place, with no copy per entry, is the
        // point of this routine's shape: all the state it touches lives in
        // *other* fields of `self`, so the borrows stay disjoint as long as
        // no whole-`self` method is called while `t` is alive — which is
        // why the load/store and replay helpers are free functions.
        let t = self.blocks.trace(idx).expect("the caller found a trace");
        let insns = u64::from(t.insns);
        let self_loop = t.self_loop;
        let main_end = t.paths[0].end;
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
        // Completed passes per path, and what they retired; the path the
        // current pass is on, the path of the last completed pass, and the
        // ops left to run on the current path.
        let mut passes = [0u64; trace::MAX_PATHS];
        let mut retired = 0u64;
        let (mut path, mut last) = (0, 0);
        let (mut lo, mut hi) = (0, main_end);
        let exit = 'run: loop {
            for (i, op) in t.ops[lo..hi].iter().enumerate() {
                let k = lo + i;
                // One dispatch per op: a specialized op's arm runs with its
                // opcode a constant, so the inlined ALU or access folds to
                // the one operation (see `trace::with_specialized!`).
                trace::with_specialized!(match_top! {
                    *op;
                    alu(op, d, a, b) => {
                        // `.value` alone: the flag computation inside the
                        // inlined ALU is dead code on this arm.
                        v[d as usize] = alu(op, v[a as usize], v[b as usize], flags.c).value;
                    }
                    alu_scc(op, d, a, b) => {
                        let out = alu(op, v[a as usize], v[b as usize], flags.c);
                        v[d as usize] = out.value;
                        flags = out.flags;
                    }
                    load(op, d, a, b) => {
                        let addr = v[a as usize].wrapping_add(v[b as usize]);
                        match load_op(&mut self.mem, op, addr) {
                            Ok(val) => v[d as usize] = val,
                            Err(err) => break 'run TExit::Fault { k, addr, err },
                        }
                    }
                    store(op, data, a, b) => {
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
                    TOp::Const { d, value } => v[d as usize] = value,
                    TOp::Branch {
                        cond,
                        target,
                        expect,
                        arm,
                    } => {
                        let taken = cond.eval(flags);
                        if taken != expect {
                            if arm == 0 {
                                break 'run TExit::Mismatch { k, taken, target };
                            }
                            path = t.arm_at(usize::from(arm));
                            (lo, hi) = (usize::from(arm), t.paths[path].end);
                            continue 'run;
                        }
                    }
                    TOp::Jump => {}
                });
            }
            passes[path] += 1;
            retired += u64::from(t.paths[path].insns);
            last = path;
            if self_loop && retired + insns <= avail {
                path = 0;
                (lo, hi) = (0, main_end);
                continue;
            }
            break TExit::Complete;
        };
        // Each path's completed passes settle as one bulk update; only a
        // partial final pass (a side exit) needs the per-op metadata replay
        // below.
        let mut total = 0;
        for (p, &n) in t.paths.iter().zip(&passes) {
            if n > 0 {
                p.agg.apply_n(&mut self.stats, n);
                total += n;
            }
        }
        let side_exit = u64::from(!matches!(exit, TExit::Complete));
        self.stats.trace_entries += total + side_exit;
        self.stats.trace_side_exits += side_exit;
        let guard = match exit {
            TExit::Mismatch { k, .. } => Some(k),
            _ => None,
        };
        let fault = match exit {
            TExit::Complete => {
                (self.pc, self.pending_target) = (t.final_pc, t.final_pending);
                self.last_pc = t.paths[last].final_last_pc;
                self.stats.trace_exits += 1;
                None
            }
            TExit::Dirty { k } => {
                // The store committed; account it and everything before it,
                // then exit where its PC dance lands. Stores produce no
                // target, so nothing is in flight afterwards.
                let m = t.meta[k];
                t.replay(&mut self.stats, path, k, m);
                self.pc = m.pending_before.unwrap_or(m.pc.wrapping_add(INSN_BYTES));
                self.pending_target = None;
                self.last_pc = m.pc;
                None
            }
            TExit::Mismatch { k, taken, target } => {
                // The guard *is* the branch: it retires in its actual
                // direction, as an arm forking there would retire it
                // (branches never sit in delay slots inside a trace).
                let m = t.meta[k];
                let suspended = self.cfg.branch_model == BranchModel::Suspended;
                t.replay(&mut self.stats, path, k, m.directed(taken, suspended));
                self.pc = m.pc.wrapping_add(INSN_BYTES);
                self.pending_target = taken.then_some(target);
                self.last_pc = m.pc;
                None
            }
            TExit::Fault { k, addr, err } => {
                // Mirror `exec_prepared` mid-fault exactly: the op retired
                // (with delay-slot accounting) but charged no cycles and
                // committed nothing else; PC/pending/`last_pc` still
                // describe the attempt, so `finish_exec`'s lastpc rule sees
                // the same state the per-instruction engines would have.
                let m = t.meta[k];
                t.replay(&mut self.stats, path, k, m.faulted());
                self.pc = m.pc;
                self.pending_target = m.pending_before;
                // The instruction retired last: the path's previous op (an
                // arm's first op follows its forking branch), else the end
                // of the last completed pass, else whatever ran before the
                // trace was entered.
                if let Some(pc) = t.prev_pc(path, k) {
                    self.last_pc = pc;
                } else if total > 0 {
                    self.last_pc = t.paths[last].final_last_pc;
                }
                Some((m.pc, addr, err))
            }
        };
        for &(vr, flat) in t.live_out.iter() {
            self.regs.store_flat(flat, v[vr as usize]);
        }
        self.flags = flags;
        // Tracing requires forwarding, under which `note_write` never
        // records anything — constant, as in the block executor.
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
            total >= 2
        } else {
            2 * used >= insns
        };
        let fork = self
            .blocks
            .trace_mut(idx)
            .and_then(|t| t.note_run(productive, total, guard));
        if let Some(fork) = fork {
            // The run ended at a guard, so no store dirtied code since the
            // drain before entry: the blocks the rebuild walks are current.
            let built = trace::rebuild(
                &mut self.mem,
                &mut self.blocks,
                &self.regs,
                &self.cfg,
                idx,
                fork,
            );
            self.stats.traces_built += u64::from(built);
        }
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

    /// Drains the code-dirty channel into the block cache, which kills
    /// every block decoded from a written page, and each killed block's
    /// trace with it.
    #[inline]
    fn drain_code_invalidations(&mut self) {
        if self.mem.code_dirty_pending() {
            let blocks = &mut self.blocks;
            self.mem.drain_code_dirty(|d| blocks.invalidate(d));
        }
    }

    /// Fetches and executes exactly one instruction, and hands it to the
    /// retirement recorder if one is armed and wants rows. The one-step
    /// path of every engine: the word is decoded from memory each time.
    fn exec_one(&mut self) -> Result<Halt, StepEvent> {
        let pc = self.pc;
        let line = fetch(&self.mem, pc)?;
        if self.recorder_wants_rows() {
            return self.exec_recorded(pc, &line);
        }
        self.exec_prepared(pc, &line)
    }

    /// [`Cpu::exec_prepared`], noting the instruction in the retirement
    /// recorder if it retires. Out of line, so that the hot callers of
    /// [`Cpu::exec_one`] carry no recorder state across the executor.
    #[cold]
    #[inline(never)]
    fn exec_recorded(&mut self, pc: u32, line: &Line) -> Result<Halt, StepEvent> {
        let (start_cycle, in_delay_slot) = (self.stats.cycles, self.pending_target.is_some());
        let r = self.exec_prepared(pc, line);
        if let (Ok(_), Some(rows)) = (&r, self.retired.as_mut()) {
            rows.push(Retired {
                pc,
                insn: line.insn,
                start_cycle,
                cycles: self.stats.cycles - start_cycle,
                in_delay_slot,
            });
        }
        r
    }

    /// Executes one prepared instruction, counting its statistics: the
    /// executor of the one-step path. All semantics live here or in the
    /// effect helpers it shares with the block executor, operating on the
    /// pre-extracted fields of [`Line`].
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
                self.alu_effect(line.op, line);
                new_write = self.note_write(line.dest, false);
            }
            Opcode::Ldl | Opcode::Ldsu | Opcode::Ldss | Opcode::Ldbu | Opcode::Ldbs => {
                self.load_effect(line.op, line, pc)?;
                self.stats.data_reads += 1;
                new_write = self.note_write(line.dest, true);
            }
            Opcode::Stl | Opcode::Sts | Opcode::Stb => {
                self.store_effect(line.op, line, pc)?;
                self.stats.data_writes += 1;
            }
            Opcode::Jmp | Opcode::Jmpr => {
                new_target = self.jump_target(line, pc);
                if new_target.is_some() {
                    self.take_transfer(&mut cycles);
                }
            }
            Opcode::Call | Opcode::Callr => {
                new_target = Some(self.call_effect(line, pc)?);
                new_write = self.note_write(line.dest, false);
                self.stats.calls += 1;
                self.take_transfer(&mut cycles);
            }
            Opcode::Ret | Opcode::Reti => match self.ret_effect(line, pc)? {
                Some(target) => {
                    new_target = Some(target);
                    self.stats.rets += 1;
                    self.take_transfer(&mut cycles);
                    if line.op == Opcode::Reti {
                        self.interrupts_enabled = true;
                        // A RETI while a trap is being serviced is the
                        // handler's exit: the trap unit is re-armed.
                        if self.active_trap.take().is_some() {
                            self.stats.trap_returns += 1;
                        }
                    }
                }
                None => halted = true,
            },
            Opcode::Calli => {
                self.enter_window(pc)?;
                self.regs.write(line.dest, self.last_pc);
                new_write = self.note_write(line.dest, false);
                self.interrupts_enabled = false;
                self.stats.calls += 1;
            }
            Opcode::Ldhi => {
                self.ldhi_effect(line);
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
                let word = self.short_sum(line);
                let psw = Psw::from_word(word);
                // CWP/SWP are owned by the window hardware; software writes
                // to them are ignored (a full context switch would also
                // reload the window file, which this simulator models via
                // fresh `Cpu` instances instead).
                self.flags = psw.flags;
                self.interrupts_enabled = psw.interrupts_enabled;
            }
        }

        self.stats.cycles += cycles;
        self.last_write = new_write;
        self.last_pc = pc;

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

    /// `rs1 + s2` of a short-form line: a load's or store's address, a
    /// return's or short transfer's target, PUTPSW's word.
    #[inline]
    fn short_sum(&self, line: &Line) -> u32 {
        self.regs
            .read(line.rs1)
            .wrapping_add(self.s2_value(line.s2))
    }

    /// Target of a control transfer: PC-relative for long shapes,
    /// register + short-source-2 for short shapes.
    #[inline]
    fn transfer_target(&self, line: &Line, pc: u32) -> u32 {
        if line.long {
            pc.wrapping_add(line.imm19 as u32)
        } else {
            self.short_sum(line)
        }
    }

    // ── Op effects ──────────────────────────────────────────────────────
    //
    // Each op's effect on registers, memory and the window file is stated
    // once here, and both `exec_prepared` and the block executor run it.
    // What an op adds to the statistics is not part of its effect:
    // `exec_prepared` counts it per op, the block executor settles it per
    // block. Spills and fills are the exception: their cost depends on
    // the window file, so the effect charges them as it services them.
    // Every helper is inlined, so a caller passing a constant opcode gets
    // the one operation.

    /// A plain ALU line's effect, running `op` (the line's own opcode):
    /// its result written to `dest`, and the flags latched if it sets
    /// them.
    #[inline(always)]
    fn alu_effect(&mut self, op: Opcode, line: &Line) {
        let out = alu(
            op,
            self.regs.read(line.rs1),
            self.s2_value(line.s2),
            self.flags.c,
        );
        self.regs.write(line.dest, out.value);
        if line.scc {
            self.flags = out.flags;
        }
    }

    /// An LDHI line's effect: its constant written to `dest`.
    #[inline(always)]
    fn ldhi_effect(&mut self, line: &Line) {
        self.regs.write(line.dest, line.ldhi_value());
    }

    /// The effect of the load at `pc`, running `op` (the line's own
    /// opcode): the loaded value written to `dest`, or the trap its access
    /// raises.
    #[inline(always)]
    fn load_effect(&mut self, op: Opcode, line: &Line, pc: u32) -> Result<(), StepEvent> {
        let addr = self.short_sum(line);
        let v = load_op(&mut self.mem, op, addr).map_err(|err| data_trap(pc, addr, err))?;
        self.regs.write(line.dest, v);
        Ok(())
    }

    /// The effect of the store at `pc`, running `op` (the line's own
    /// opcode): `dest`, which names the data register in store encodings,
    /// written to memory, or the trap its access raises.
    #[inline(always)]
    fn store_effect(&mut self, op: Opcode, line: &Line, pc: u32) -> Result<(), StepEvent> {
        let addr = self.short_sum(line);
        let data = self.regs.read(line.dest);
        store_op(&mut self.mem, op, addr, data).map_err(|err| data_trap(pc, addr, err))
    }

    /// A conditional transfer at `pc` (JMP/JMPR): its target if `line`'s
    /// condition holds on the current flags, `None` if it falls through.
    #[inline(always)]
    fn jump_target(&self, line: &Line, pc: u32) -> Option<u32> {
        line.cond
            .eval(self.flags)
            .then(|| self.transfer_target(line, pc))
    }

    /// The effect of the CALL or CALLR at `pc`: a fresh window, spilling
    /// the oldest first if the file is full, with the return address in
    /// its link register. Returns the call's target. The target operands
    /// are read in the caller's window; the link register is named in the
    /// callee's.
    #[inline(always)]
    fn call_effect(&mut self, line: &Line, pc: u32) -> Result<u32, StepEvent> {
        let target = self.transfer_target(line, pc);
        self.enter_window(pc)?;
        self.regs.write(line.dest, pc);
        Ok(target)
    }

    /// Enters a fresh window for the call at `pc` (CALL, CALLR, CALLI),
    /// spilling the oldest window first if the file is full and charging
    /// the spill's cycles.
    #[inline(always)]
    fn enter_window(&mut self, pc: u32) -> Result<(), StepEvent> {
        if self.regs.call_would_overflow() {
            let cycles = self
                .spill_window(pc, false)
                .map_err(|f| spill_event(pc, f))?;
            self.stats.cycles += cycles;
        }
        self.advance_window();
        Ok(())
    }

    /// The window effect of the RET or RETI at `pc`: refills the window it
    /// returns into if that was spilled, charging the fill's cycles, then
    /// leaves the current one. Returns the return's target, read in the
    /// window it leaves, or `None` at depth 0, where a return halts the
    /// machine and changes nothing.
    #[inline(always)]
    fn ret_effect(&mut self, line: &Line, pc: u32) -> Result<Option<u32>, StepEvent> {
        let target = self.short_sum(line);
        if self.regs.ret_would_underflow() {
            self.stats.cycles += self.fill_window(pc).map_err(StepEvent::Fatal)?;
        }
        Ok(self.regs.retreat().then_some(target))
    }

    /// Counts a taken transfer, and adds to `cycles` the bubble the
    /// suspended branch model charges for it.
    #[inline(always)]
    fn take_transfer(&mut self, cycles: &mut u64) {
        self.stats.taken_transfers += 1;
        if self.cfg.branch_model == BranchModel::Suspended {
            *cycles += 1;
            self.stats.bubble_cycles += 1;
        }
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
        let pc = self.pc;
        let mut cycles = self.cfg.trap_overhead_cycles;
        if self.regs.call_would_overflow() {
            // On failure the interrupt stays pending: it retries once the
            // exhaustion handler (if any) has made room.
            cycles += self
                .spill_window(pc, false)
                .map_err(|f| spill_event(pc, f))?;
        }
        self.interrupt_pending = false;
        self.advance_window();
        self.regs.write(Reg::R25, pc);
        self.interrupts_enabled = false;
        self.last_pc = pc;
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
            });
        }
        let mut cycles = self.cfg.trap_overhead_cycles;
        if self.regs.call_would_overflow() {
            // The exhaustion trap may spill into the reserved emergency
            // frame — that is what the reserve exists for. If even that
            // fails, no handler can be entered: surface the original
            // fault.
            let emergency = kind == TrapKind::WindowStackExhausted;
            match self.spill_window(restart, emergency) {
                Ok(c) => cycles += c,
                Err(_) => return Err(err),
            }
        }
        self.advance_window();
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

    /// Enters a fresh window (the register-file half of a `CALL`, `CALLI`,
    /// interrupt or trap entry) and notes the call depth it reaches.
    #[inline]
    fn advance_window(&mut self) {
        self.regs.advance();
        self.stats.max_depth = self.stats.max_depth.max(self.regs.depth());
    }

    /// Services a window overflow for the call, interrupt or trap entry at
    /// `pc`: 16 stores to the save stack, pushed as one frame. Returns the
    /// cycles consumed. The overflow counts once the window leaves the
    /// file, before its push can fault; a fault names `pc`.
    ///
    /// Program-initiated spills (`emergency == false`) keep one frame of
    /// head-room free below themselves — the emergency reserve that lets
    /// the exhaustion trap itself still enter a handler in a fresh window.
    fn spill_window(&mut self, pc: u32, emergency: bool) -> Result<u64, SpillFail> {
        let frame = SPILL_REGS as u32 * 4;
        let reserve = if emergency { 0 } else { frame };
        // A stack top within a frame of the address space's end leaves no
        // room above it for the save stack: the file is exhausted.
        if self.wstack_ptr < self.cfg.stack_top.saturating_add(frame + reserve) {
            return Err(SpillFail::Exhausted {
                ptr: self.wstack_ptr,
            });
        }
        let saved = self.regs.spill_oldest();
        self.stats.window_overflows += 1;
        if let Err(err) = self.mem.push_frame(self.wstack_ptr, &saved) {
            // The pointer stops at the faulting word, as a push made word
            // by word would leave it.
            self.wstack_ptr = err.addr();
            return Err(SpillFail::Mem(ExecError::Mem { pc, err }));
        }
        self.wstack_ptr -= frame;
        self.stats.data_writes += SPILL_REGS as u64;
        let cost = self.cfg.trap_overhead_cycles + SPILL_REGS as u64 * 2;
        self.stats.trap_cycles += cost;
        Ok(cost)
    }

    /// Services a window underflow: 16 loads from the save stack, popped
    /// as one frame. Returns the cycles consumed.
    fn fill_window(&mut self, pc: u32) -> Result<u64, ExecError> {
        let regs = match self.mem.pop_frame(self.wstack_ptr) {
            Ok(regs) => regs,
            Err(err) => {
                // The pointer stops at the faulting word, as a pop made word
                // by word would leave it.
                self.wstack_ptr = err.addr();
                return Err(ExecError::Mem { pc, err });
            }
        };
        self.wstack_ptr += SPILL_REGS as u32 * 4;
        self.regs.fill_previous(regs);
        self.stats.window_underflows += 1;
        self.stats.data_reads += SPILL_REGS as u64;
        let cost = self.cfg.trap_overhead_cycles + SPILL_REGS as u64 * 2;
        self.stats.trap_cycles += cost;
        Ok(cost)
    }
}

/// The memory access for a load opcode, with its width and sign extension.
/// Free-standing (not a `Cpu` method) so the trace executor can call it
/// while holding a borrow of the block cache that holds the trace. Always
/// inlined, so a caller with a constant opcode (a specialized trace op)
/// gets the one access.
#[inline(always)]
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

/// The memory access for a store opcode at its width; always inlined, as
/// [`load_op`].
#[inline(always)]
fn store_op(mem: &mut Memory, op: Opcode, addr: u32, v: u32) -> Result<(), MemError> {
    match op {
        Opcode::Stl => mem.write_u32(addr, v),
        Opcode::Sts => mem.write_u16(addr, v as u16),
        Opcode::Stb => mem.write_u8(addr, v as u8),
        _ => unreachable!("not a store"),
    }
}

/// Fetches the word at `pc` and prepares it: the one fetch path, which the
/// one-step path runs for every instruction it executes and block
/// formation for every line of a block. A fetch that faults (misaligned,
/// out of range) or a word that does not decode is its architectural trap.
///
/// Inlined: out of line, `step()` on the uncached tier, which fetches
/// every instruction, ran about a fifth slower.
#[inline]
pub(crate) fn fetch(mem: &Memory, pc: u32) -> Result<Line, StepEvent> {
    let word = mem.peek_u32(pc).map_err(|err| StepEvent::Trap {
        kind: match err {
            MemError::Misaligned { .. } => TrapKind::Misaligned,
            MemError::OutOfRange { .. } => TrapKind::InstructionAccess,
        },
        pc,
        info: pc,
        err: ExecError::Mem { pc, err },
    })?;
    let insn = Instruction::decode(word).map_err(|err| StepEvent::Trap {
        kind: TrapKind::Decode,
        pc,
        info: word,
        err: ExecError::Decode { pc, err },
    })?;
    Ok(Line::prepare(insn))
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
    use crate::mem::{MemTraffic, HOST_PAGE_BYTES, PAGE_BYTES};
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

    /// The retirement recorder holds the first [`RECORDER_ROWS`]
    /// retirements once armed. Only while it wants rows does the machine
    /// take the one-step path, and it is no part of the machine state.
    #[test]
    fn the_recorder_holds_the_first_rows_then_steps_aside() {
        let mut prog = vec![Instruction::nop()];
        prog.extend(halt_seq());
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(prog)).unwrap();
        cpu.record_retired();
        cpu.run().unwrap();
        // nop + halting ret retire; the ret's delay slot never runs because
        // the machine stops at depth 0.
        assert_eq!(cpu.retired().len(), 2);
        assert_eq!(cpu.retired()[0].pc, 0x1000);
        assert!(!cpu.retired()[1].in_delay_slot);
        // Unarmed by default:
        assert!(run_program(halt_seq()).retired().is_empty());

        // A hot loop of 700 retirements: the first 64 are recorded one
        // step at a time, then block bodies and the trace tier take over.
        let plain = run_program(loop_workout());
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(loop_workout()))
            .unwrap();
        cpu.record_retired();
        cpu.run().unwrap();
        assert_eq!(cpu.retired().len(), RECORDER_ROWS);
        assert_eq!(cpu.retired()[0].pc, 0x1000);
        let s = cpu.stats();
        assert!(s.block_instructions > 0, "block bodies resumed");
        assert_eq!(
            RECORDER_ROWS as u64 + s.block_instructions + s.trace_instructions,
            s.instructions,
            "every retirement past the recorder ran in a block body or a trace"
        );
        assert!(cpu.stats().trace_entries > 0, "the trace tier resumed");
        assert_eq!(cpu.stats(), plain.stats());
        assert_eq!(cpu.snapshot().to_json(), plain.snapshot().to_json());
        // Arming again empties the recorder.
        cpu.record_retired();
        assert!(cpu.retired().is_empty());
    }

    /// A loop of common idioms: an LDHI+imm constant, an ALU op feeding a
    /// load's address, a compare and its branch, iterated enough to
    /// re-enter its blocks *and* clear the trace tier's promotion
    /// threshold.
    fn loop_workout() -> Vec<Instruction> {
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
    fn engines_agree_and_block_bodies_run_the_loop() {
        let run_engine = |engine| {
            let cfg = SimConfig {
                engine,
                ..SimConfig::default()
            };
            run_with(cfg, loop_workout(), &[])
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
        // And the superblock engine actually engaged: the whole program
        // ran in block bodies, the loop's once per iteration.
        let s = sup.stats();
        assert_eq!(s.block_instructions, s.instructions, "every op in a block");
        assert_eq!(s.blocks_entered, 1 + 99 + 1, "entry, 99 loop passes, halt");
        assert_eq!(
            unc.stats().blocks_entered,
            0,
            "the uncached engine forms none"
        );
        // The inert cached engine runs as superblock: the same blocks, and
        // no trace.
        let c = cac.stats();
        assert_eq!(
            (c.blocks_entered, c.block_instructions),
            (s.blocks_entered, s.block_instructions),
            "cached enters superblock's blocks"
        );
        assert_eq!((c.traces_built, c.trace_instructions), (0, 0));
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
            cpu.load_program(&Program::from_instructions(loop_workout()))
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
        let straight = run_program(loop_workout());
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
            a.load_program(&Program::from_instructions(loop_workout()))
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

    /// The block cache's page table starts empty and grows only to the
    /// highest page the run executed from — not to memory's size.
    #[test]
    fn the_block_page_table_grows_only_to_the_highest_page_executed() {
        let table_len = |cpu: &Cpu| cpu.blocks.page_table_len();
        // Forty nops fill the code base's page and spill into the next, so
        // the hot loop and the halt sit wholly in the second page.
        let mut p = vec![Instruction::nop(); 40];
        p.extend(loop_workout());
        let cfg = SimConfig::default();
        let first = cfg.code_base as usize / PAGE_BYTES;
        let last = (cfg.code_base as usize + 4 * (p.len() - 1)) / PAGE_BYTES;
        assert_eq!(last, first + 1, "the program spans two pages");
        for engine in [ExecEngine::Uncached, ExecEngine::Cached, ExecEngine::Trace] {
            let cfg = SimConfig {
                engine,
                ..cfg.clone()
            };
            assert_eq!(table_len(&Cpu::new(cfg.clone())), 0, "{engine:?}: fresh");
            let cpu = run_with(cfg, p.clone(), &[]);
            assert_eq!(cpu.result(), 7 * 100);
            let blocks = table_len(&cpu);
            match engine {
                ExecEngine::Uncached => assert_eq!(blocks, 0, "no block formed"),
                ExecEngine::Cached => assert_eq!(blocks, last + 1, "blocks span both pages"),
                _ => {
                    assert_eq!(blocks, last + 1, "blocks and the trace span both pages");
                    assert!(cpu.stats().traces_built >= 1, "loop promoted");
                }
            }
        }
    }

    /// `sum(n) = n + sum(n - 1)`, entered with `n = depth`: `depth + 1`
    /// nested calls, then as many returns, leaving `sum(depth)`.
    fn recursion(depth: i32) -> Vec<Instruction> {
        vec![
            /* 0 */ Instruction::reg(Opcode::Add, Reg::R10, Reg::R0, imm(depth)),
            /* 1 */ Instruction::callr(Reg::R25, 4 * (6 - 1)),
            /* 2 */ Instruction::nop(),
            /* 3 */ Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, Reg::R10.into()),
            /* 4 */ Instruction::ret(Reg::R0, imm(0)),
            /* 5 */ Instruction::nop(),
            /* 6 sum */ Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R26, imm(0)),
            /* 7 */ Instruction::jmpr(Cond::Eq, 4 * (13 - 7)),
            /* 8 */ Instruction::nop(),
            /* 9 */ Instruction::reg(Opcode::Sub, Reg::R10, Reg::R26, imm(1)),
            /* 10 */ Instruction::callr(Reg::R25, 4 * (6 - 10)),
            /* 11 */ Instruction::nop(),
            /* 12 */ Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, Reg::R10.into()),
            /* 13 */ Instruction::ret(Reg::R25, imm(8)),
            /* 14 */ Instruction::nop(),
        ]
    }

    /// A default machine running `recursion(depth)`, its window save
    /// stack starting at `window_stack_top`.
    fn recursing(window_stack_top: u32, depth: i32) -> Cpu {
        let mut cpu = Cpu::new(SimConfig {
            window_stack_top,
            ..SimConfig::default()
        });
        cpu.load_program(&Program::from_instructions(recursion(depth)))
            .unwrap();
        cpu
    }

    // The faults, addresses and traffic pinned below were recorded with
    // spills and fills that moved one word at a time; the frame transfers
    // must reproduce every one of them. So were the snapshots, whose
    // checksums were re-recorded once snapshots stopped storing the
    // host-only config fields and runner bookkeeping, and again for
    // format 3, which stores each machine value once: with the dropped
    // fields removed and the window counters moved into `stats`, each
    // snapshot's JSON is the one recorded before.

    #[test]
    fn a_spill_onto_a_misaligned_or_out_of_range_save_stack_faults_at_its_first_word() {
        for (top, err, checksum) in [
            (
                0xf_0002,
                MemError::Misaligned {
                    addr: 0xe_fffe,
                    width: 4,
                },
                0x931d_5a56_435c_9aef,
            ),
            (
                0x10_0002,
                MemError::Misaligned {
                    addr: 0xf_fffe,
                    width: 4,
                },
                0x2e12_ff23_cf10_b27d,
            ),
            (
                0x10_0040,
                MemError::OutOfRange {
                    addr: 0x10_003c,
                    width: 4,
                },
                0xd790_707a_21a3_86af,
            ),
        ] {
            let mut cpu = recursing(top, 12);
            assert_eq!(
                cpu.run(),
                Err(ExecError::Mem { pc: 0x1028, err }),
                "top {top:#x}"
            );
            assert_eq!(cpu.mem.traffic(), MemTraffic::default(), "stores nothing");
            assert_eq!(cpu.wstack_ptr, err.addr(), "stops at the faulting word");
            assert_eq!(cpu.snapshot().checksum(), checksum, "top {top:#x}");
        }
    }

    #[test]
    fn a_fill_that_runs_off_the_end_of_memory_reads_the_words_below_it() {
        let mut cpu = recursing(0xf_0000, 12);
        while cpu.stats().rets == 0 {
            cpu.step().unwrap();
        }
        assert_eq!(cpu.stats().window_overflows, 7, "spilled frames to refill");
        // A warm-start snapshot can carry any save-stack pointer: restore
        // does not check it against memory.
        cpu.wstack_ptr = cpu.cfg.mem_bytes as u32 - 32;
        let err = MemError::OutOfRange {
            addr: 0x10_0000,
            width: 4,
        };
        assert_eq!(cpu.run(), Err(ExecError::Mem { pc: 0x1034, err }));
        assert_eq!(
            cpu.mem.traffic(),
            MemTraffic {
                reads: 8,
                writes: 112
            }
        );
        assert_eq!(cpu.wstack_ptr, 0x10_0000);
        assert_eq!(cpu.snapshot().checksum(), 0x5a5b_657f_1527_a5b4);
    }

    #[test]
    fn frames_straddling_a_host_page_or_ending_memory_round_trip() {
        // (save-stack top, depth, result, frames spilled, checksum)
        for (top, depth, sum, frames, checksum) in [
            (0xf_0010, 20, 210, 15, 0x2348_367c_5cb7_1a25),
            (0xf_0020, 20, 210, 15, 0x6ad6_a530_39a9_c13a),
            (0xf_0030, 20, 210, 15, 0x4f9b_ec9e_f204_b5b8),
            (0x10_0000, 12, 78, 7, 0x8330_4263_c4fe_7037),
        ] {
            let mut cpu = recursing(top, depth);
            cpu.run().unwrap();
            assert_eq!(cpu.result(), sum);
            assert_eq!(cpu.stats().window_overflows, frames);
            let words = 16 * frames;
            assert_eq!(
                cpu.mem.traffic(),
                MemTraffic {
                    reads: words,
                    writes: words
                }
            );
            assert_eq!(cpu.wstack_ptr, top, "every frame popped");
            assert_eq!(cpu.snapshot().checksum(), checksum, "top {top:#x}");
            if top % 64 != 0 {
                let first = (top as usize - 64) / HOST_PAGE_BYTES;
                assert_eq!(first + 1, top as usize / HOST_PAGE_BYTES, "straddles");
            }
        }
    }
}
