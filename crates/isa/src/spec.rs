//! The executable ISA specification — single source of truth for RISC I.
//!
//! Every fact the rest of the workspace needs about an instruction lives in
//! one table-driven record per opcode ([`SpecEntry`]): the operand shape the
//! encoding accepts, the def/use sets (registers, condition codes, PSW,
//! window pointer and memory), the base cycle cost of the paper's timing
//! model, delay-slot legality, and an `effect` function giving the
//! operational semantics against a minimal [`SpecState`].
//!
//! Consumers of the table:
//!
//! * [`Instruction`]'s `reads`/`writes`/`sets_cc`/
//!   `reads_cc`/`safe_in_delay_slot_of` delegate here instead of hand-listing
//!   opcodes;
//! * [`crate::encoding::scc_allowed`] and the decoder's legality checks;
//! * the simulator's prepared lines (base cycle cost and transfer flag)
//!   and the trace builder's lowering classes ([`Lowering`]);
//! * the lint crate's dataflow facts and the `dead-scc-set` /
//!   `spec-illegal-encoding` rules (via [`validate`]);
//! * `risc1 lint --spec-audit`, which cross-checks assembler, disassembler
//!   and engine cost tables against this module for all 128 opcode points;
//! * the reference interpreter ([`SpecState::step`]) — a fourth, deliberately
//!   slow engine the differential fuzzer compares the production engines to.
//!
//! The interpreter shares **no code** with `risc1-core`: the windowed
//! register file, the ALU flag algebra and the little-endian memory are
//! re-derived from the paper, so agreement between the two is evidence, not
//! tautology.

use crate::cond::Cond;
use crate::insn::{Instruction, Operands, Short2, IMM13_MAX, IMM13_MIN, IMM19_MAX, IMM19_MIN};
use crate::opcode::Opcode;
use crate::psw::{Flags, Psw};
use crate::reg::{Reg, NUM_VISIBLE_REGS};
use crate::DecodeError;
use std::fmt;
use std::sync::OnceLock;

/// Cycles of the execute stage common to every instruction (the paper's
/// single-cycle datapath).
pub const EXECUTE_CYCLES: u64 = 1;
/// Extra cycles a *data* memory transfer costs on top of the execute cycle —
/// loads and stores take a second cycle for the data movement, exactly the
/// paper's timing assumption. Shared with the CX cost model.
pub const MEM_TRANSFER_CYCLES: u64 = 1;
/// Pipeline bubble charged for a taken transfer when no delay slot hides the
/// refetch (the simulator's "suspended" branch model; also the CX baseline's
/// taken-branch penalty, since CX has no delay slots).
pub const TAKEN_TRANSFER_BUBBLE: u64 = 1;
/// Number of opcode points addressable by the 7-bit opcode field.
pub const OPCODE_POINTS: usize = 128;

/// Operand shape of an instruction, i.e. which [`Operands`] variant a decoded
/// word carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandShape {
    /// `dest, rs1, s2`.
    Short,
    /// `cond, rs1, s2` (the indexed conditional jump).
    ShortCond,
    /// `dest, #imm19`.
    Long,
    /// `cond, #imm19` (the PC-relative conditional jump).
    LongCond,
}

/// What the `dest` field of a short/long-format word means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestRole {
    /// An ordinary result register (r0 writes are discarded).
    Result,
    /// The data register of a store — a *read*, not a write.
    StoreData,
    /// The link register of a call (written in the *new* window).
    Link,
    /// Architecturally ignored; the canonical encoding requires r0
    /// (RET/RETI/PUTPSW).
    Ignored,
}

/// Data-memory effect of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEffect {
    /// No data memory reference.
    None,
    /// Reads `bytes` bytes at `rs1 + s2`, optionally sign-extending.
    Read {
        /// Access width in bytes (1, 2 or 4).
        bytes: u8,
        /// Whether the loaded value is sign-extended to 32 bits.
        sign_extend: bool,
    },
    /// Writes the low `bytes` bytes of the data register at `rs1 + s2`.
    Write {
        /// Access width in bytes (1, 2 or 4).
        bytes: u8,
    },
}

/// How an instruction *uses* the condition flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagsRead {
    /// Flags are not an input.
    Never,
    /// The carry flag feeds the ALU (ADDC/SUBC/SUBCR).
    Carry,
    /// Flags are read iff the jump condition actually tests them
    /// (`alw`/`nvr` do not).
    Cond,
    /// The whole flag set is read (GETPSW materialises the PSW).
    Always,
}

/// How an instruction *defines* the condition flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagsWrite {
    /// Flags are never written.
    Never,
    /// Flags are written iff the `scc` bit is asserted (the ALU group).
    IfScc,
    /// Flags are always rewritten (PUTPSW).
    Always,
}

/// Effect on the current-window pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMotion {
    /// CWP unchanged.
    None,
    /// Advances to a fresh window (calls).
    Push,
    /// Returns to the previous window (returns).
    Pop,
}

/// Control-transfer behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transfer {
    /// Ordinary fall-through instruction.
    None,
    /// Delayed transfer to `rs1 + s2`.
    Indexed,
    /// Delayed transfer to `pc + imm19`.
    Relative,
    /// CALLI: window motion and state capture with *no* target operand —
    /// execution falls through, so it exposes no delay slot.
    TrapInPlace,
}

/// Operational-semantics function of one instruction, executed against the
/// minimal [`SpecState`].
pub type EffectFn = fn(&Instruction, &mut SpecState) -> Result<(), SpecFault>;

/// The per-instruction semantics record. One row of the executable Table II.
#[derive(Debug, Clone, Copy)]
pub struct SpecEntry {
    /// The opcode this row describes (its discriminant is the 7-bit field).
    pub opcode: Opcode,
    /// Operand shape of the canonical encoding.
    pub shape: OperandShape,
    /// Whether the `scc` bit may be asserted (ALU and shift group only).
    pub scc_allowed: bool,
    /// Whether an immediate `s2` is a shift count, masked to 5 bits by the
    /// barrel shifter (canonical encodings keep it in `0..=31`).
    pub masks_shift_count: bool,
    /// Base cycle cost in the paper's timing model.
    pub base_cycles: u8,
    /// Data-memory effect.
    pub mem: MemEffect,
    /// Meaning of the `dest` field.
    pub dest: DestRole,
    /// Whether `rs1` is an input (canonical encodings of non-users carry r0).
    pub uses_rs1: bool,
    /// Whether `s2` is an input (canonical encodings of non-users carry #0).
    pub uses_s2: bool,
    /// Condition-flag uses.
    pub reads_flags: FlagsRead,
    /// Condition-flag defs.
    pub writes_flags: FlagsWrite,
    /// Whether the saved last-PC register is an input (GTLPC/CALLI).
    pub reads_last_pc: bool,
    /// Whether non-flag PSW state (interrupt enable, window pointers) is an
    /// input (GETPSW).
    pub reads_psw: bool,
    /// Whether non-flag PSW state is written (PUTPSW, CALLI, RETI).
    pub writes_psw: bool,
    /// Effect on the current-window pointer.
    pub window: WindowMotion,
    /// Control-transfer behaviour.
    pub transfer: Transfer,
    /// Whether the instruction exposes a delay slot.
    pub has_delay_slot: bool,
    /// For long-format rows: whether `imm19` is an unsigned payload (LDHI)
    /// rather than a signed PC-relative offset.
    pub imm19_unsigned: bool,
    /// Operational semantics against [`SpecState`].
    pub effect: EffectFn,
}

/// How the trace-compilation tier lowers one instruction into trace IR.
///
/// Derived purely from the spec row's effect fields, so the trace builder
/// never keeps a private opcode list that could drift from the table: any
/// row that moves a window, touches the PSW, reads `lastpc`, or transfers
/// anywhere but PC-relative is `Excluded` and ends trace formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lowering {
    /// Plain ALU/shift row: lowers to a virtual-register ALU op.
    Alu,
    /// LDHI: lowers to a build-time constant move.
    Const,
    /// Memory read: lowers to a guarded load (faults side-exit the trace).
    Load,
    /// Memory write: lowers to a guarded store (faults and code-dirty
    /// writes side-exit the trace).
    Store,
    /// PC-relative transfer (JMPR): lowers to a direction guard with a
    /// statically predicted target.
    RelBranch,
    /// Everything else — window motion, PSW/lastpc access, indexed or
    /// trapping transfers. Traces stop before these.
    Excluded,
}

impl SpecEntry {
    /// Whether this row is in the ALU/shift group: the rows that may set
    /// the flags, and that the trace tier lowers to plain ALU ops.
    pub fn is_alu(&self) -> bool {
        self.scc_allowed
    }

    /// The trace-IR class of this row (see [`Lowering`]). Computed from the
    /// row's declared effects, not from the opcode, so new table rows are
    /// conservatively excluded until their effects say otherwise.
    pub fn lowering(&self) -> Lowering {
        if self.window != WindowMotion::None
            || self.writes_psw
            || self.reads_psw
            || self.reads_last_pc
        {
            return Lowering::Excluded;
        }
        match (self.transfer, self.mem) {
            (Transfer::None, MemEffect::Read { .. }) => Lowering::Load,
            (Transfer::None, MemEffect::Write { .. }) => Lowering::Store,
            (Transfer::Relative, MemEffect::None) => Lowering::RelBranch,
            (Transfer::None, MemEffect::None) if self.is_alu() => Lowering::Alu,
            (Transfer::None, MemEffect::None) if self.shape == OperandShape::Long => {
                Lowering::Const
            }
            _ => Lowering::Excluded,
        }
    }

    /// Canonical sample instructions covering every operand shape this row
    /// accepts. Used by the round-trip law tests and `--spec-audit`.
    pub fn canonical_samples(&self) -> Vec<Instruction> {
        let op = self.opcode;
        match self.shape {
            OperandShape::Short if self.dest == DestRole::Ignored => vec![
                Instruction::reg(op, Reg::R0, Reg::R25, Short2::imm(8).unwrap()),
                Instruction::reg(op, Reg::R0, Reg::R3, Short2::reg(Reg::R4)),
            ],
            OperandShape::Short if !self.uses_rs1 => vec![
                Instruction::reg(op, Reg::R16, Reg::R0, Short2::ZERO),
                Instruction::reg(op, Reg::R1, Reg::R0, Short2::ZERO),
            ],
            OperandShape::Short => {
                let (lo, hi) = if self.masks_shift_count {
                    (0, 31)
                } else {
                    (IMM13_MIN, IMM13_MAX)
                };
                let mut out = vec![
                    Instruction::reg(op, Reg::R1, Reg::R2, Short2::reg(Reg::R3)),
                    Instruction::reg(op, Reg::R16, Reg::R26, Short2::imm(lo).unwrap()),
                    Instruction::reg(op, Reg::R31, Reg::R9, Short2::imm(hi).unwrap()),
                ];
                if self.scc_allowed {
                    out.push(Instruction::reg_scc(
                        op,
                        Reg::R0,
                        Reg::R7,
                        Short2::reg(Reg::R8),
                    ));
                    out.push(Instruction::reg_scc(
                        op,
                        Reg::R4,
                        Reg::R5,
                        Short2::imm(hi).unwrap(),
                    ));
                }
                out
            }
            OperandShape::ShortCond => {
                let mut out: Vec<Instruction> = Cond::ALL
                    .iter()
                    .map(|&c| Instruction::jmp(c, Reg::R7, Short2::imm(0).unwrap()))
                    .collect();
                out.push(Instruction::jmp(Cond::Alw, Reg::R2, Short2::reg(Reg::R3)));
                out
            }
            OperandShape::Long if self.imm19_unsigned => vec![
                Instruction::ldhi(Reg::R1, 0),
                Instruction::ldhi(Reg::R31, (1 << 19) - 1),
            ],
            OperandShape::Long => vec![
                Instruction::callr(Reg::R25, 8),
                Instruction::callr(Reg::R0, IMM19_MIN),
                Instruction::callr(Reg::R1, IMM19_MAX),
            ],
            OperandShape::LongCond => {
                let mut out: Vec<Instruction> = Cond::ALL
                    .iter()
                    .map(|&c| Instruction::jmpr(c, -4))
                    .collect();
                out.push(Instruction::jmpr(Cond::Alw, IMM19_MAX));
                out.push(Instruction::jmpr(Cond::Eq, IMM19_MIN));
                out
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

/// Row template for the ALU/shift group.
const fn alu(op: Opcode) -> SpecEntry {
    SpecEntry {
        opcode: op,
        shape: OperandShape::Short,
        scc_allowed: true,
        masks_shift_count: false,
        base_cycles: EXECUTE_CYCLES as u8,
        mem: MemEffect::None,
        dest: DestRole::Result,
        uses_rs1: true,
        uses_s2: true,
        reads_flags: FlagsRead::Never,
        writes_flags: FlagsWrite::IfScc,
        reads_last_pc: false,
        reads_psw: false,
        writes_psw: false,
        window: WindowMotion::None,
        transfer: Transfer::None,
        has_delay_slot: false,
        imm19_unsigned: false,
        effect: effect_alu,
    }
}

/// Row template for the carry-chained ALU ops.
const fn alu_carry(op: Opcode) -> SpecEntry {
    SpecEntry {
        reads_flags: FlagsRead::Carry,
        ..alu(op)
    }
}

/// Row template for the shifts (5-bit masked count).
const fn shift(op: Opcode) -> SpecEntry {
    SpecEntry {
        masks_shift_count: true,
        ..alu(op)
    }
}

/// Row template for the loads.
const fn load(op: Opcode, bytes: u8, sign_extend: bool) -> SpecEntry {
    SpecEntry {
        scc_allowed: false,
        base_cycles: (EXECUTE_CYCLES + MEM_TRANSFER_CYCLES) as u8,
        mem: MemEffect::Read { bytes, sign_extend },
        writes_flags: FlagsWrite::Never,
        effect: effect_load,
        ..alu(op)
    }
}

/// Row template for the stores.
const fn store(op: Opcode, bytes: u8) -> SpecEntry {
    SpecEntry {
        scc_allowed: false,
        base_cycles: (EXECUTE_CYCLES + MEM_TRANSFER_CYCLES) as u8,
        mem: MemEffect::Write { bytes },
        dest: DestRole::StoreData,
        writes_flags: FlagsWrite::Never,
        effect: effect_store,
        ..alu(op)
    }
}

/// Row template for the non-ALU short-format odds and ends.
const fn misc(op: Opcode) -> SpecEntry {
    SpecEntry {
        scc_allowed: false,
        writes_flags: FlagsWrite::Never,
        ..alu(op)
    }
}

/// Every instruction's semantics record, in Table II order (the same order
/// as [`Opcode::ALL`]).
pub static ENTRIES: [SpecEntry; 31] = [
    alu(Opcode::Add),
    alu_carry(Opcode::Addc),
    alu(Opcode::Sub),
    alu_carry(Opcode::Subc),
    alu(Opcode::Subr),
    alu_carry(Opcode::Subcr),
    alu(Opcode::And),
    alu(Opcode::Or),
    alu(Opcode::Xor),
    shift(Opcode::Sll),
    shift(Opcode::Srl),
    shift(Opcode::Sra),
    load(Opcode::Ldl, 4, false),
    load(Opcode::Ldsu, 2, false),
    load(Opcode::Ldss, 2, true),
    load(Opcode::Ldbu, 1, false),
    load(Opcode::Ldbs, 1, true),
    store(Opcode::Stl, 4),
    store(Opcode::Sts, 2),
    store(Opcode::Stb, 1),
    // jmp cond, rs1, s2
    SpecEntry {
        shape: OperandShape::ShortCond,
        dest: DestRole::Ignored,
        reads_flags: FlagsRead::Cond,
        transfer: Transfer::Indexed,
        has_delay_slot: true,
        effect: effect_jump,
        ..misc(Opcode::Jmp)
    },
    // jmpr cond, #imm19
    SpecEntry {
        shape: OperandShape::LongCond,
        dest: DestRole::Ignored,
        uses_rs1: false,
        uses_s2: false,
        reads_flags: FlagsRead::Cond,
        transfer: Transfer::Relative,
        has_delay_slot: true,
        effect: effect_jump,
        ..misc(Opcode::Jmpr)
    },
    // call link, rs1, s2
    SpecEntry {
        dest: DestRole::Link,
        window: WindowMotion::Push,
        transfer: Transfer::Indexed,
        has_delay_slot: true,
        effect: effect_call,
        ..misc(Opcode::Call)
    },
    // callr link, #imm19
    SpecEntry {
        shape: OperandShape::Long,
        dest: DestRole::Link,
        uses_rs1: false,
        uses_s2: false,
        window: WindowMotion::Push,
        transfer: Transfer::Relative,
        has_delay_slot: true,
        effect: effect_call,
        ..misc(Opcode::Callr)
    },
    // ret rs1, s2
    SpecEntry {
        dest: DestRole::Ignored,
        window: WindowMotion::Pop,
        transfer: Transfer::Indexed,
        has_delay_slot: true,
        effect: effect_ret,
        ..misc(Opcode::Ret)
    },
    // calli dest — trap entry, falls through
    SpecEntry {
        dest: DestRole::Link,
        uses_rs1: false,
        uses_s2: false,
        reads_last_pc: true,
        writes_psw: true,
        window: WindowMotion::Push,
        transfer: Transfer::TrapInPlace,
        has_delay_slot: false,
        effect: effect_calli,
        ..misc(Opcode::Calli)
    },
    // reti rs1, s2 — return re-enabling interrupts
    SpecEntry {
        dest: DestRole::Ignored,
        writes_psw: true,
        window: WindowMotion::Pop,
        transfer: Transfer::Indexed,
        has_delay_slot: true,
        effect: effect_ret,
        ..misc(Opcode::Reti)
    },
    // ldhi dest, #imm19
    SpecEntry {
        shape: OperandShape::Long,
        uses_rs1: false,
        uses_s2: false,
        imm19_unsigned: true,
        effect: effect_ldhi,
        ..misc(Opcode::Ldhi)
    },
    // gtlpc dest
    SpecEntry {
        uses_rs1: false,
        uses_s2: false,
        reads_last_pc: true,
        effect: effect_gtlpc,
        ..misc(Opcode::Gtlpc)
    },
    // getpsw dest
    SpecEntry {
        uses_rs1: false,
        uses_s2: false,
        reads_flags: FlagsRead::Always,
        reads_psw: true,
        effect: effect_getpsw,
        ..misc(Opcode::Getpsw)
    },
    // putpsw rs1, s2
    SpecEntry {
        dest: DestRole::Ignored,
        writes_flags: FlagsWrite::Always,
        writes_psw: true,
        effect: effect_putpsw,
        ..misc(Opcode::Putpsw)
    },
];

fn lut() -> &'static [Option<&'static SpecEntry>; OPCODE_POINTS] {
    static LUT: OnceLock<[Option<&'static SpecEntry>; OPCODE_POINTS]> = OnceLock::new();
    LUT.get_or_init(|| {
        let mut t = [None; OPCODE_POINTS];
        for e in &ENTRIES {
            t[e.opcode as usize] = Some(e);
        }
        t
    })
}

/// The semantics record of an opcode. Total: every opcode has exactly one.
pub fn entry(op: Opcode) -> &'static SpecEntry {
    lut()[op as usize].expect("every opcode has a spec entry")
}

/// The semantics record behind a raw 7-bit opcode field, `None` for the 97
/// unassigned opcode points (and for out-of-range codes).
pub fn entry_for_code(code: u8) -> Option<&'static SpecEntry> {
    lut().get(code as usize).copied().flatten()
}

// ---------------------------------------------------------------------------
// Derived def/use facts (consumed by `Instruction` and the linter)
// ---------------------------------------------------------------------------

/// The registers `insn` reads, in operand order (`rs1`, register `s2`, then
/// a store's data register); r0 never appears.
pub fn reg_reads(insn: &Instruction) -> Vec<Reg> {
    let e = entry(insn.opcode);
    let mut out = Vec::with_capacity(3);
    let mut push = |r: Reg| {
        if !r.is_zero() {
            out.push(r);
        }
    };
    match insn.operands {
        Operands::Short { dest, rs1, s2 } => {
            if e.uses_rs1 {
                push(rs1);
            }
            if e.uses_s2 {
                if let Short2::Reg(r) = s2 {
                    push(r);
                }
            }
            if e.dest == DestRole::StoreData {
                push(dest);
            }
        }
        Operands::ShortCond { rs1, s2, .. } => {
            if e.uses_rs1 {
                push(rs1);
            }
            if e.uses_s2 {
                if let Short2::Reg(r) = s2 {
                    push(r);
                }
            }
        }
        Operands::Long { .. } | Operands::LongCond { .. } => {}
    }
    out
}

/// The register `insn` writes, if any (r0 writes are discarded).
pub fn reg_write(insn: &Instruction) -> Option<Reg> {
    match entry(insn.opcode).dest {
        DestRole::Result | DestRole::Link => match insn.operands {
            Operands::Short { dest, .. } | Operands::Long { dest, .. } => {
                (!dest.is_zero()).then_some(dest)
            }
            Operands::ShortCond { .. } | Operands::LongCond { .. } => None,
        },
        DestRole::StoreData | DestRole::Ignored => None,
    }
}

/// Whether `insn` may change the condition flags.
pub fn sets_condition_codes(insn: &Instruction) -> bool {
    insn.scc || entry(insn.opcode).writes_flags == FlagsWrite::Always
}

/// Whether `insn`'s behaviour depends on the condition flags.
pub fn reads_condition_codes(insn: &Instruction) -> bool {
    match entry(insn.opcode).reads_flags {
        FlagsRead::Never => false,
        FlagsRead::Carry | FlagsRead::Always => true,
        FlagsRead::Cond => insn
            .jump_cond()
            .is_some_and(|c| !matches!(c, Cond::Alw | Cond::Nvr)),
    }
}

/// Whether `slot` can sit in the delay slot of `transfer` without changing
/// program meaning (see `Instruction::safe_in_delay_slot_of` for the
/// rationale of each clause). Every fact consulted comes from the table.
pub fn safe_in_delay_slot(slot: &Instruction, transfer: &Instruction) -> bool {
    debug_assert!(entry(transfer.opcode).transfer != Transfer::None);
    if slot.is_nop() {
        return true;
    }
    if entry(slot.opcode).transfer != Transfer::None {
        return false;
    }
    if sets_condition_codes(slot) && reads_condition_codes(transfer) {
        return false;
    }
    if let Some(w) = reg_write(slot) {
        if reg_reads(transfer).contains(&w) {
            return false;
        }
    }
    if entry(transfer.opcode).window != WindowMotion::None {
        let global_only = reg_reads(slot)
            .into_iter()
            .chain(reg_write(slot))
            .all(|r| !r.is_windowed());
        if !global_only {
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Encoding-shape validation
// ---------------------------------------------------------------------------

/// Why an instruction's operand shape is rejected by the spec table: the
/// word may decode, but it is not a canonical encoding the assembler can
/// produce (so it breaks the disassemble→reassemble round trip and very
/// likely does not mean what it appears to mean).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecViolation {
    /// The operand payload variant does not match the table's shape.
    OperandShape(OperandShape),
    /// `scc` asserted outside the ALU/shift group.
    SccNotAllowed,
    /// The `dest` field is architecturally ignored and must be r0.
    DestMustBeZero,
    /// `rs1` is not an input of this instruction and must be r0.
    Rs1MustBeZero,
    /// `s2` is not an input of this instruction and must be `#0`.
    S2MustBeZeroImmediate,
    /// An immediate shift count outside `0..=31` (the barrel shifter masks
    /// it, so the written count is not what executes).
    ShiftCountOutOfRange(i32),
    /// A short immediate outside the signed 13-bit field.
    Imm13OutOfRange(i32),
    /// A long immediate outside its 19-bit field.
    Imm19OutOfRange(i32),
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecViolation::OperandShape(s) => {
                write!(f, "operand payload does not match the {s:?} shape")
            }
            SpecViolation::SccNotAllowed => {
                write!(f, "scc bit asserted outside the ALU/shift group")
            }
            SpecViolation::DestMustBeZero => {
                write!(f, "dest field is architecturally ignored and must be r0")
            }
            SpecViolation::Rs1MustBeZero => write!(f, "rs1 is unused and must be r0"),
            SpecViolation::S2MustBeZeroImmediate => write!(f, "s2 is unused and must be #0"),
            SpecViolation::ShiftCountOutOfRange(v) => {
                write!(
                    f,
                    "shift count #{v} outside 0..=31 is masked by the shifter"
                )
            }
            SpecViolation::Imm13OutOfRange(v) => {
                write!(f, "immediate #{v} outside the signed 13-bit field")
            }
            SpecViolation::Imm19OutOfRange(v) => {
                write!(f, "immediate #{v} outside the 19-bit field")
            }
        }
    }
}

/// Checks an instruction against the table's encoding constraints: operand
/// shape, scc legality, required-zero fields and immediate ranges. `Ok` for
/// exactly the instructions the assembler can produce.
pub fn validate(insn: &Instruction) -> Result<(), SpecViolation> {
    let e = entry(insn.opcode);
    if insn.scc && !e.scc_allowed {
        return Err(SpecViolation::SccNotAllowed);
    }
    let check_imm13 = |s2: Short2| -> Result<(), SpecViolation> {
        if let Short2::Imm(v) = s2 {
            let v = i32::from(v);
            if !(IMM13_MIN..=IMM13_MAX).contains(&v) {
                return Err(SpecViolation::Imm13OutOfRange(v));
            }
            if e.masks_shift_count && !(0..32).contains(&v) {
                return Err(SpecViolation::ShiftCountOutOfRange(v));
            }
        }
        Ok(())
    };
    match (insn.operands, e.shape) {
        (Operands::Short { dest, rs1, s2 }, OperandShape::Short) => {
            if e.dest == DestRole::Ignored && !dest.is_zero() {
                return Err(SpecViolation::DestMustBeZero);
            }
            if !e.uses_rs1 && !rs1.is_zero() {
                return Err(SpecViolation::Rs1MustBeZero);
            }
            if !e.uses_s2 && s2 != Short2::ZERO {
                return Err(SpecViolation::S2MustBeZeroImmediate);
            }
            check_imm13(s2)
        }
        (Operands::ShortCond { s2, .. }, OperandShape::ShortCond) => check_imm13(s2),
        (Operands::Long { imm19, .. }, OperandShape::Long) => {
            let ok = if e.imm19_unsigned {
                (0..1 << 19).contains(&imm19)
            } else {
                (IMM19_MIN..=IMM19_MAX).contains(&imm19)
            };
            if ok {
                Ok(())
            } else {
                Err(SpecViolation::Imm19OutOfRange(imm19))
            }
        }
        (Operands::LongCond { imm19, .. }, OperandShape::LongCond) => {
            if (IMM19_MIN..=IMM19_MAX).contains(&imm19) {
                Ok(())
            } else {
                Err(SpecViolation::Imm19OutOfRange(imm19))
            }
        }
        (_, expected) => Err(SpecViolation::OperandShape(expected)),
    }
}

// ---------------------------------------------------------------------------
// The reference interpreter
// ---------------------------------------------------------------------------

/// Why the reference interpreter stopped abnormally. The spec machine has no
/// trap handling: conditions the production simulator turns into traps are
/// hard faults here (the differential fuzzer only generates trap-free
/// programs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecFault {
    /// Instruction fetch outside memory or misaligned.
    InstructionAccess {
        /// Faulting program counter.
        pc: u32,
    },
    /// The fetched word does not decode.
    Decode {
        /// Faulting program counter.
        pc: u32,
        /// The decoder's reason.
        err: DecodeError,
    },
    /// A transfer executed in a delay slot (a hardware fault on RISC I).
    TransferInDelaySlot {
        /// Faulting program counter.
        pc: u32,
    },
    /// Misaligned data access.
    DataMisaligned {
        /// Faulting program counter.
        pc: u32,
        /// Faulting address.
        addr: u32,
        /// Access width in bytes.
        width: u8,
    },
    /// Data access outside memory.
    DataOutOfRange {
        /// Faulting program counter.
        pc: u32,
        /// Faulting address.
        addr: u32,
        /// Access width in bytes.
        width: u8,
    },
    /// A call with every register window resident (the production machine
    /// would trap and spill).
    WindowOverflow {
        /// Faulting program counter.
        pc: u32,
    },
    /// The instruction budget of [`SpecState::run`] was exhausted.
    OutOfFuel,
}

impl fmt::Display for SpecFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecFault::InstructionAccess { pc } => {
                write!(f, "instruction access fault at pc={pc:#010x}")
            }
            SpecFault::Decode { pc, err } => write!(f, "decode fault at pc={pc:#010x}: {err}"),
            SpecFault::TransferInDelaySlot { pc } => {
                write!(f, "transfer in delay slot at pc={pc:#010x}")
            }
            SpecFault::DataMisaligned { pc, addr, width } => write!(
                f,
                "misaligned {width}-byte access to {addr:#010x} at pc={pc:#010x}"
            ),
            SpecFault::DataOutOfRange { pc, addr, width } => write!(
                f,
                "out-of-range {width}-byte access to {addr:#010x} at pc={pc:#010x}"
            ),
            SpecFault::WindowOverflow { pc } => write!(f, "window overflow at pc={pc:#010x}"),
            SpecFault::OutOfFuel => write!(f, "spec interpreter ran out of fuel"),
        }
    }
}

impl std::error::Error for SpecFault {}

/// Execution counters of the spec machine — the stats-visible subset the
/// production engines must agree on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles (sum of base cycle costs; the spec machine models no stalls).
    pub cycles: u64,
    /// Instruction fetches (one per retired instruction).
    pub ifetches: u64,
    /// Data loads performed.
    pub data_reads: u64,
    /// Data stores performed.
    pub data_writes: u64,
    /// Calls executed (including CALLI).
    pub calls: u64,
    /// Returns executed (the final halting return is not counted).
    pub rets: u64,
    /// Transfers actually taken.
    pub taken_transfers: u64,
    /// Instructions retired in a delay slot.
    pub delay_slots: u64,
    /// No-ops retired in a delay slot.
    pub delay_slot_nops: u64,
}

/// The minimal machine state the spec semantics are defined against: a
/// little-endian byte memory, the overlapped register windows, the flags,
/// the PC pair and the delayed-jump latch. Deliberately slow: every step
/// fetches and decodes from scratch.
#[derive(Debug, Clone)]
pub struct SpecState {
    mem: Vec<u8>,
    globals: [u32; 10],
    ring: Vec<u32>,
    windows: usize,
    cwp: usize,
    resident: usize,
    depth: u64,
    pc: u32,
    last_pc: u32,
    pending_target: Option<u32>,
    new_target: Option<u32>,
    flags: Flags,
    interrupts_enabled: bool,
    halted: bool,
    stats: SpecStats,
}

impl SpecState {
    /// A fresh machine with `mem_bytes` of zeroed memory and `windows`
    /// register windows.
    ///
    /// # Panics
    /// Panics if `windows < 2` (the scheme needs a current and a previous
    /// window).
    pub fn new(mem_bytes: usize, windows: usize) -> SpecState {
        assert!(windows >= 2, "register file needs at least two windows");
        SpecState {
            mem: vec![0; mem_bytes],
            globals: [0; 10],
            ring: vec![0; windows * 16],
            windows,
            cwp: 0,
            resident: 1,
            depth: 0,
            pc: 0,
            last_pc: 0,
            pending_target: None,
            new_target: None,
            flags: Flags::default(),
            interrupts_enabled: false,
            halted: false,
            stats: SpecStats::default(),
        }
    }

    /// Copies `bytes` into memory at `addr` (program/data loading; not a
    /// data reference).
    ///
    /// # Panics
    /// Panics if the image does not fit.
    pub fn load_image(&mut self, addr: u32, bytes: &[u8]) {
        let start = addr as usize;
        self.mem[start..start + bytes.len()].copy_from_slice(bytes);
    }

    /// Writes instruction `words` at `addr`, little-endian.
    ///
    /// # Panics
    /// Panics if the image does not fit.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            let at = addr as usize + 4 * i;
            self.mem[at..at + 4].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Sets the program counter (entry point).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether the machine has halted (a return at call depth zero).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Execution counters so far.
    pub fn stats(&self) -> &SpecStats {
        &self.stats
    }

    /// Current window pointer.
    pub fn cwp(&self) -> u8 {
        self.cwp as u8
    }

    /// Saved window pointer (the oldest resident window).
    pub fn swp(&self) -> u8 {
        ((self.cwp + self.windows - (self.resident - 1)) % self.windows) as u8
    }

    /// Call depth relative to the entry point.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Current condition flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// The whole memory image (for digests and inspection).
    pub fn mem_bytes(&self) -> &[u8] {
        &self.mem
    }

    /// The 32 registers visible in the current window, r0 first.
    pub fn visible(&self) -> [u32; NUM_VISIBLE_REGS] {
        let mut out = [0u32; NUM_VISIBLE_REGS];
        for r in Reg::all() {
            out[r.number() as usize] = self.read_reg(r);
        }
        out
    }

    /// The program result by convention: r26 of the entry window.
    pub fn result(&self) -> i32 {
        self.read_reg(Reg::R26) as i32
    }

    /// Reads a register in the current window's name space.
    pub fn read_reg(&self, r: Reg) -> u32 {
        match self.ring_slot(r.number()) {
            None => {
                if r.is_zero() {
                    0
                } else {
                    self.globals[r.number() as usize]
                }
            }
            Some(i) => self.ring[i],
        }
    }

    /// Writes a register in the current window's name space (r0 writes are
    /// discarded).
    pub fn write_reg(&mut self, r: Reg, v: u32) {
        match self.ring_slot(r.number()) {
            None => {
                if !r.is_zero() {
                    self.globals[r.number() as usize] = v;
                }
            }
            Some(i) => self.ring[i] = v,
        }
    }

    /// Physical slot of a windowed register: each window owns 16 ring slots
    /// (6 LOW + 10 LOCAL); HIGH registers alias the previous window's LOW.
    fn ring_slot(&self, n: u8) -> Option<usize> {
        let w = self.windows;
        match n {
            0..=9 => None,
            10..=15 => Some((self.cwp % w) * 16 + (n as usize - 10)),
            16..=25 => Some((self.cwp % w) * 16 + 6 + (n as usize - 16)),
            _ => Some(((self.cwp + w - 1) % w) * 16 + (n as usize - 26)),
        }
    }

    fn window_push(&mut self) -> Result<(), SpecFault> {
        if self.resident == self.windows - 1 {
            return Err(SpecFault::WindowOverflow { pc: self.pc });
        }
        self.cwp = (self.cwp + 1) % self.windows;
        self.resident += 1;
        self.depth += 1;
        Ok(())
    }

    fn window_pop(&mut self) {
        debug_assert!(self.depth > 0 && self.resident > 1);
        self.cwp = (self.cwp + self.windows - 1) % self.windows;
        self.resident -= 1;
        self.depth -= 1;
    }

    fn mem_check(&self, addr: u32, width: u8) -> Result<usize, SpecFault> {
        if u64::from(addr) % u64::from(width) != 0 {
            return Err(SpecFault::DataMisaligned {
                pc: self.pc,
                addr,
                width,
            });
        }
        if u64::from(addr) + u64::from(width) > self.mem.len() as u64 {
            return Err(SpecFault::DataOutOfRange {
                pc: self.pc,
                addr,
                width,
            });
        }
        Ok(addr as usize)
    }

    fn mem_read(&mut self, addr: u32, bytes: u8) -> Result<u32, SpecFault> {
        let i = self.mem_check(addr, bytes)?;
        let mut v = 0u32;
        for k in (0..bytes as usize).rev() {
            v = v << 8 | u32::from(self.mem[i + k]);
        }
        Ok(v)
    }

    fn mem_write(&mut self, addr: u32, bytes: u8, value: u32) -> Result<(), SpecFault> {
        let i = self.mem_check(addr, bytes)?;
        for k in 0..bytes as usize {
            self.mem[i + k] = (value >> (8 * k)) as u8;
        }
        Ok(())
    }

    fn fetch(&self, pc: u32) -> Result<u32, SpecFault> {
        if !pc.is_multiple_of(4) || u64::from(pc) + 4 > self.mem.len() as u64 {
            return Err(SpecFault::InstructionAccess { pc });
        }
        let i = pc as usize;
        Ok(u32::from_le_bytes([
            self.mem[i],
            self.mem[i + 1],
            self.mem[i + 2],
            self.mem[i + 3],
        ]))
    }

    /// Executes one instruction. Returns `true` once the machine has halted.
    ///
    /// # Errors
    /// Any [`SpecFault`] the instruction raises; the machine state is not
    /// meaningful afterwards.
    pub fn step(&mut self) -> Result<bool, SpecFault> {
        if self.halted {
            return Ok(true);
        }
        let pc = self.pc;
        let word = self.fetch(pc)?;
        let insn = Instruction::decode(word).map_err(|err| SpecFault::Decode { pc, err })?;
        let e = entry(insn.opcode);
        let in_delay_slot = self.pending_target.is_some();
        if in_delay_slot && e.transfer != Transfer::None {
            return Err(SpecFault::TransferInDelaySlot { pc });
        }
        self.stats.instructions += 1;
        self.stats.ifetches += 1;
        if in_delay_slot {
            self.stats.delay_slots += 1;
            if insn.is_nop() {
                self.stats.delay_slot_nops += 1;
            }
        }
        self.stats.cycles += u64::from(e.base_cycles);
        self.new_target = None;
        (e.effect)(&insn, self)?;
        self.last_pc = pc;
        if self.halted {
            return Ok(true);
        }
        let next = self.pending_target.take().unwrap_or(pc.wrapping_add(4));
        self.pending_target = self.new_target.take();
        self.pc = next;
        Ok(false)
    }

    /// Runs until the machine halts or `fuel` instructions have retired.
    ///
    /// # Errors
    /// [`SpecFault::OutOfFuel`] when the budget is exhausted, or any fault
    /// an instruction raises.
    pub fn run(&mut self, fuel: u64) -> Result<(), SpecFault> {
        while !self.halted {
            if self.stats.instructions >= fuel {
                return Err(SpecFault::OutOfFuel);
            }
            self.step()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Effects
// ---------------------------------------------------------------------------

fn short_operands(insn: &Instruction) -> (Reg, Reg, Short2) {
    match insn.operands {
        Operands::Short { dest, rs1, s2 } => (dest, rs1, s2),
        _ => unreachable!("short-shape opcode decoded with non-short operands"),
    }
}

fn s2_value(st: &SpecState, s2: Short2) -> u32 {
    match s2 {
        Short2::Reg(r) => st.read_reg(r),
        Short2::Imm(v) => v as i32 as u32,
    }
}

/// The ALU of the spec machine: value and flags for one of the twelve
/// ALU/shift operations. Independent of the production executor's adder —
/// flags come from exact wide arithmetic rather than bit tricks.
///
/// # Panics
/// Panics if `op` is outside the ALU/shift group.
pub fn spec_alu(op: Opcode, a: u32, b: u32, carry: bool) -> (u32, Flags) {
    let count = b & ((1 << Opcode::SHIFT_COUNT_BITS) - 1);
    match op {
        Opcode::Add => add3(a, b, false),
        Opcode::Addc => add3(a, b, carry),
        Opcode::Sub => sub3(a, b, true),
        Opcode::Subc => sub3(a, b, carry),
        Opcode::Subr => sub3(b, a, true),
        Opcode::Subcr => sub3(b, a, carry),
        Opcode::And => logic(a & b),
        Opcode::Or => logic(a | b),
        Opcode::Xor => logic(a ^ b),
        Opcode::Sll => logic(a << count),
        Opcode::Srl => logic(a >> count),
        Opcode::Sra => logic(((a as i32) >> count) as u32),
        other => unreachable!("spec_alu on non-ALU opcode {other}"),
    }
}

fn value_flags(value: u32, v: bool, c: bool) -> (u32, Flags) {
    (
        value,
        Flags {
            z: value == 0,
            n: (value as i32) < 0,
            v,
            c,
        },
    )
}

fn add3(a: u32, b: u32, carry_in: bool) -> (u32, Flags) {
    let wide = u64::from(a) + u64::from(b) + u64::from(carry_in);
    let value = wide as u32;
    let exact = i64::from(a as i32) + i64::from(b as i32) + i64::from(carry_in);
    value_flags(
        value,
        exact != i64::from(value as i32),
        wide > u64::from(u32::MAX),
    )
}

/// `a - b - borrow` where `no_borrow_in` is the carry convention (C = 1 means
/// no borrow).
fn sub3(a: u32, b: u32, no_borrow_in: bool) -> (u32, Flags) {
    let borrow = u64::from(!no_borrow_in);
    let value = a.wrapping_sub(b).wrapping_sub(borrow as u32);
    let exact = i64::from(a as i32) - i64::from(b as i32) - borrow as i64;
    value_flags(
        value,
        exact != i64::from(value as i32),
        u64::from(a) >= u64::from(b) + borrow,
    )
}

fn logic(value: u32) -> (u32, Flags) {
    value_flags(value, false, false)
}

fn effect_alu(insn: &Instruction, st: &mut SpecState) -> Result<(), SpecFault> {
    let (dest, rs1, s2) = short_operands(insn);
    let a = st.read_reg(rs1);
    let b = s2_value(st, s2);
    let (value, flags) = spec_alu(insn.opcode, a, b, st.flags.c);
    st.write_reg(dest, value);
    if insn.scc {
        st.flags = flags;
    }
    Ok(())
}

fn effect_load(insn: &Instruction, st: &mut SpecState) -> Result<(), SpecFault> {
    let (dest, rs1, s2) = short_operands(insn);
    let addr = st.read_reg(rs1).wrapping_add(s2_value(st, s2));
    let MemEffect::Read { bytes, sign_extend } = entry(insn.opcode).mem else {
        unreachable!("load entry carries a read effect")
    };
    let raw = st.mem_read(addr, bytes)?;
    let value = if sign_extend {
        let shift = 32 - 8 * u32::from(bytes);
        (((raw << shift) as i32) >> shift) as u32
    } else {
        raw
    };
    st.write_reg(dest, value);
    st.stats.data_reads += 1;
    Ok(())
}

fn effect_store(insn: &Instruction, st: &mut SpecState) -> Result<(), SpecFault> {
    let (dest, rs1, s2) = short_operands(insn);
    let addr = st.read_reg(rs1).wrapping_add(s2_value(st, s2));
    let MemEffect::Write { bytes } = entry(insn.opcode).mem else {
        unreachable!("store entry carries a write effect")
    };
    let data = st.read_reg(dest);
    st.mem_write(addr, bytes, data)?;
    st.stats.data_writes += 1;
    Ok(())
}

fn effect_jump(insn: &Instruction, st: &mut SpecState) -> Result<(), SpecFault> {
    let (cond, target) = match insn.operands {
        Operands::ShortCond { cond, rs1, s2 } => {
            (cond, st.read_reg(rs1).wrapping_add(s2_value(st, s2)))
        }
        Operands::LongCond { cond, imm19 } => (cond, st.pc.wrapping_add(imm19 as u32)),
        _ => unreachable!("jump operands"),
    };
    if cond.eval(st.flags) {
        st.new_target = Some(target);
        st.stats.taken_transfers += 1;
    }
    Ok(())
}

fn effect_call(insn: &Instruction, st: &mut SpecState) -> Result<(), SpecFault> {
    let (link, target) = match insn.operands {
        Operands::Short { dest, rs1, s2 } => {
            (dest, st.read_reg(rs1).wrapping_add(s2_value(st, s2)))
        }
        Operands::Long { dest, imm19 } => (dest, st.pc.wrapping_add(imm19 as u32)),
        _ => unreachable!("call operands"),
    };
    st.window_push()?;
    let pc = st.pc;
    st.write_reg(link, pc);
    st.new_target = Some(target);
    st.stats.calls += 1;
    st.stats.taken_transfers += 1;
    Ok(())
}

fn effect_ret(insn: &Instruction, st: &mut SpecState) -> Result<(), SpecFault> {
    let (_, rs1, s2) = short_operands(insn);
    let target = st.read_reg(rs1).wrapping_add(s2_value(st, s2));
    if st.depth == 0 {
        // A return past the entry point halts the machine; the PC stays on
        // the return itself and the counters do not record a return.
        st.halted = true;
        return Ok(());
    }
    st.window_pop();
    st.new_target = Some(target);
    st.stats.rets += 1;
    st.stats.taken_transfers += 1;
    if insn.opcode == Opcode::Reti {
        st.interrupts_enabled = true;
    }
    Ok(())
}

fn effect_calli(insn: &Instruction, st: &mut SpecState) -> Result<(), SpecFault> {
    let (dest, _, _) = short_operands(insn);
    st.window_push()?;
    let lp = st.last_pc;
    st.write_reg(dest, lp);
    st.interrupts_enabled = false;
    st.stats.calls += 1;
    Ok(())
}

fn effect_ldhi(insn: &Instruction, st: &mut SpecState) -> Result<(), SpecFault> {
    let Operands::Long { dest, imm19 } = insn.operands else {
        unreachable!("ldhi operands")
    };
    st.write_reg(dest, (imm19 as u32) << 13);
    Ok(())
}

fn effect_gtlpc(insn: &Instruction, st: &mut SpecState) -> Result<(), SpecFault> {
    let (dest, _, _) = short_operands(insn);
    let lp = st.last_pc;
    st.write_reg(dest, lp);
    Ok(())
}

fn effect_getpsw(insn: &Instruction, st: &mut SpecState) -> Result<(), SpecFault> {
    let (dest, _, _) = short_operands(insn);
    let word = Psw {
        flags: st.flags,
        interrupts_enabled: st.interrupts_enabled,
        cwp: st.cwp(),
        swp: st.swp(),
    }
    .to_word();
    st.write_reg(dest, word);
    Ok(())
}

fn effect_putpsw(insn: &Instruction, st: &mut SpecState) -> Result<(), SpecFault> {
    let (_, rs1, s2) = short_operands(insn);
    let word = st.read_reg(rs1).wrapping_add(s2_value(st, s2));
    let psw = Psw::from_word(word);
    // Flags and the interrupt-enable bit are writable; the window pointers
    // are owned by the hardware and ignored, as in the production machine.
    st.flags = psw.flags;
    st.interrupts_enabled = psw.interrupts_enabled;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::{Category, Format};

    #[test]
    fn table_covers_every_opcode_in_order() {
        assert_eq!(ENTRIES.len(), Opcode::ALL.len());
        for (e, op) in ENTRIES.iter().zip(Opcode::ALL) {
            assert_eq!(e.opcode, *op, "table order must match Table II");
        }
    }

    #[test]
    fn lookup_is_total_over_opcodes_and_rejects_unassigned_codes() {
        for op in Opcode::ALL {
            assert_eq!(entry(*op).opcode, *op);
            assert_eq!(entry_for_code(*op as u8).unwrap().opcode, *op);
        }
        for code in 0..=u8::MAX {
            assert_eq!(
                entry_for_code(code).is_some(),
                Opcode::from_code(code).is_some(),
                "code {code:#04x}"
            );
        }
    }

    #[test]
    fn table_agrees_with_opcode_metadata() {
        for e in &ENTRIES {
            let op = e.opcode;
            assert_eq!(u64::from(e.base_cycles), op.base_cycles(), "{op}");
            assert_eq!(
                u64::from(e.mem != MemEffect::None),
                op.data_mem_refs(),
                "{op}"
            );
            let shape_format = match e.shape {
                OperandShape::Short | OperandShape::ShortCond => Format::Short,
                OperandShape::Long | OperandShape::LongCond => Format::Long,
            };
            assert_eq!(shape_format, op.format(), "{op}");
            let shape_cond = matches!(e.shape, OperandShape::ShortCond | OperandShape::LongCond);
            assert_eq!(shape_cond, op.uses_condition(), "{op}");
            assert_eq!(
                e.scc_allowed,
                matches!(op.category(), Category::Arithmetic | Category::Shift),
                "{op}"
            );
            assert_eq!(
                e.masks_shift_count,
                op.category() == Category::Shift,
                "{op}"
            );
            assert_eq!(
                matches!(e.mem, MemEffect::Read { .. }),
                op.is_load(),
                "{op}"
            );
            assert_eq!(
                matches!(e.mem, MemEffect::Write { .. }),
                op.is_store(),
                "{op}"
            );
            assert_eq!(e.window != WindowMotion::None, op.moves_window(), "{op}");
            assert_eq!(e.window == WindowMotion::Push, op.is_call(), "{op}");
            assert_eq!(e.window == WindowMotion::Pop, op.is_ret(), "{op}");
            assert_eq!(e.transfer != Transfer::None, op.is_transfer(), "{op}");
            assert_eq!(e.has_delay_slot, op.has_delay_slot(), "{op}");
        }
    }

    #[test]
    fn lowering_classes_match_trace_rules() {
        for e in &ENTRIES {
            let op = e.opcode;
            let want = match op {
                Opcode::Ldhi => Lowering::Const,
                Opcode::Jmpr => Lowering::RelBranch,
                _ if e.is_alu() => Lowering::Alu,
                _ if op.is_load() => Lowering::Load,
                _ if op.is_store() => Lowering::Store,
                _ => Lowering::Excluded,
            };
            assert_eq!(e.lowering(), want, "{op}");
        }
        // The excluded set is exactly the rows a trace cannot cross:
        // window motion, PSW/lastpc access, and non-relative transfers.
        let excluded: Vec<Opcode> = ENTRIES
            .iter()
            .filter(|e| e.lowering() == Lowering::Excluded)
            .map(|e| e.opcode)
            .collect();
        assert_eq!(
            excluded,
            vec![
                Opcode::Jmp,
                Opcode::Call,
                Opcode::Callr,
                Opcode::Ret,
                Opcode::Calli,
                Opcode::Reti,
                Opcode::Gtlpc,
                Opcode::Getpsw,
                Opcode::Putpsw,
            ]
        );
    }

    #[test]
    fn flag_def_use_partition() {
        // Exactly the carry-chained ops read carry; exactly the ALU group
        // may set flags; PUTPSW always does.
        let carry: Vec<Opcode> = ENTRIES
            .iter()
            .filter(|e| e.reads_flags == FlagsRead::Carry)
            .map(|e| e.opcode)
            .collect();
        assert_eq!(carry, vec![Opcode::Addc, Opcode::Subc, Opcode::Subcr]);
        assert_eq!(ENTRIES.iter().filter(|e| e.is_alu()).count(), 12);
        let always: Vec<Opcode> = ENTRIES
            .iter()
            .filter(|e| e.writes_flags == FlagsWrite::Always)
            .map(|e| e.opcode)
            .collect();
        assert_eq!(always, vec![Opcode::Putpsw]);
    }

    #[test]
    fn canonical_samples_validate_and_roundtrip_the_encoding() {
        for e in &ENTRIES {
            let samples = e.canonical_samples();
            assert!(!samples.is_empty(), "{}", e.opcode);
            for insn in samples {
                assert_eq!(validate(&insn), Ok(()), "{insn}");
                assert_eq!(Instruction::decode(insn.encode()), Ok(insn), "{insn}");
            }
        }
    }

    #[test]
    fn validate_rejects_noncanonical_shapes() {
        // ret with a non-zero (ignored) dest field.
        let ret = Instruction {
            opcode: Opcode::Ret,
            scc: false,
            operands: Operands::Short {
                dest: Reg::R5,
                rs1: Reg::R25,
                s2: Short2::imm(8).unwrap(),
            },
        };
        assert_eq!(validate(&ret), Err(SpecViolation::DestMustBeZero));

        // calli with junk in the unused rs1/s2 fields.
        let calli = Instruction {
            opcode: Opcode::Calli,
            scc: false,
            operands: Operands::Short {
                dest: Reg::R16,
                rs1: Reg::R5,
                s2: Short2::ZERO,
            },
        };
        assert_eq!(validate(&calli), Err(SpecViolation::Rs1MustBeZero));
        let calli2 = Instruction {
            opcode: Opcode::Gtlpc,
            scc: false,
            operands: Operands::Short {
                dest: Reg::R16,
                rs1: Reg::R0,
                s2: Short2::imm(4).unwrap(),
            },
        };
        assert_eq!(validate(&calli2), Err(SpecViolation::S2MustBeZeroImmediate));

        // A shift count the barrel shifter would mask.
        let sll = Instruction::reg(Opcode::Sll, Reg::R1, Reg::R2, Short2::imm(33).unwrap());
        assert_eq!(validate(&sll), Err(SpecViolation::ShiftCountOutOfRange(33)));

        // scc outside the ALU group.
        let scc_load = Instruction {
            scc: true,
            ..Instruction::reg(Opcode::Ldl, Reg::R1, Reg::R2, Short2::ZERO)
        };
        assert_eq!(validate(&scc_load), Err(SpecViolation::SccNotAllowed));

        // An ldhi payload outside the unsigned 19-bit field.
        let ldhi = Instruction {
            opcode: Opcode::Ldhi,
            scc: false,
            operands: Operands::Long {
                dest: Reg::R1,
                imm19: -1,
            },
        };
        assert_eq!(validate(&ldhi), Err(SpecViolation::Imm19OutOfRange(-1)));

        // Operand payload in the wrong shape entirely.
        let bad_shape = Instruction {
            opcode: Opcode::Add,
            scc: false,
            operands: Operands::LongCond {
                cond: Cond::Alw,
                imm19: 0,
            },
        };
        assert_eq!(
            validate(&bad_shape),
            Err(SpecViolation::OperandShape(OperandShape::Short))
        );
    }

    #[test]
    fn derived_def_use_matches_the_table_roles() {
        let add = Instruction::reg(Opcode::Add, Reg::R1, Reg::R2, Short2::reg(Reg::R3));
        assert_eq!(reg_reads(&add), vec![Reg::R2, Reg::R3]);
        assert_eq!(reg_write(&add), Some(Reg::R1));

        let st = Instruction::reg(Opcode::Stl, Reg::R5, Reg::R26, Short2::imm(4).unwrap());
        assert_eq!(reg_reads(&st), vec![Reg::R26, Reg::R5]);
        assert_eq!(reg_write(&st), None);

        // calli/gtlpc/getpsw read no registers even when the (must-be-zero)
        // fields carry junk: the fields are not inputs of the datapath.
        let calli = Instruction {
            opcode: Opcode::Calli,
            scc: false,
            operands: Operands::Short {
                dest: Reg::R16,
                rs1: Reg::R5,
                s2: Short2::reg(Reg::R6),
            },
        };
        assert!(reg_reads(&calli).is_empty());
        assert_eq!(reg_write(&calli), Some(Reg::R16));
    }

    fn run_insns(insns: &[Instruction], fuel: u64) -> SpecState {
        let mut st = SpecState::new(0x4000, 8);
        let words: Vec<u32> = insns.iter().map(Instruction::encode).collect();
        st.load_words(0x1000, &words);
        st.set_pc(0x1000);
        st.run(fuel).expect("clean run");
        st
    }

    #[test]
    fn interpreter_halts_on_entry_return_without_advancing_pc() {
        let st = run_insns(
            &[
                Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, Short2::imm(5).unwrap()),
                Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, Short2::imm(7).unwrap()),
                Instruction::reg(Opcode::Add, Reg::R26, Reg::R16, Short2::reg(Reg::R17)),
                Instruction::ret(Reg::R0, Short2::ZERO),
                Instruction::nop(),
            ],
            100,
        );
        assert_eq!(st.result(), 12);
        assert_eq!(st.pc(), 0x100c, "halting return does not advance the pc");
        assert_eq!(st.stats().instructions, 4, "the delay-slot nop never runs");
        assert_eq!(st.stats().cycles, 4);
        assert_eq!(st.stats().rets, 0, "the halting return is not counted");
        assert_eq!(st.depth(), 0);
    }

    #[test]
    fn interpreter_window_overlap_passes_parameters() {
        // main: r10 := 21; callr f; (slot) nop; r26 := r10; halt
        // f:    r26 := r26 + r26; ret r25, #8; (slot) nop
        let st = run_insns(
            &[
                Instruction::reg(Opcode::Add, Reg::R10, Reg::R0, Short2::imm(21).unwrap()),
                Instruction::callr(Reg::R25, 16), // to f at +4 insns
                Instruction::nop(),
                Instruction::reg(Opcode::Add, Reg::R26, Reg::R10, Short2::ZERO),
                Instruction::ret(Reg::R0, Short2::ZERO),
                // f:
                Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, Short2::reg(Reg::R26)),
                Instruction::ret(Reg::R25, Short2::imm(8).unwrap()),
                Instruction::nop(),
            ],
            100,
        );
        assert_eq!(st.result(), 42, "callee's r26 aliases the caller's r10");
        assert_eq!(st.stats().calls, 1);
        assert_eq!(st.stats().rets, 1);
        assert_eq!(st.cwp(), 0);
        assert_eq!(st.depth(), 0);
    }

    #[test]
    fn interpreter_flags_and_conditional_branches() {
        // r16 := 3; loop: r16 -= 1 {scc}; jmpr gt, loop; (slot) nop;
        // r26 := r16; halt
        let st = run_insns(
            &[
                Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, Short2::imm(3).unwrap()),
                Instruction::reg_scc(Opcode::Sub, Reg::R16, Reg::R16, Short2::imm(1).unwrap()),
                Instruction::jmpr(Cond::Gt, -4),
                Instruction::nop(),
                Instruction::reg(Opcode::Add, Reg::R26, Reg::R16, Short2::ZERO),
                Instruction::ret(Reg::R0, Short2::ZERO),
            ],
            100,
        );
        assert_eq!(st.result(), 0);
        assert_eq!(st.stats().taken_transfers, 2, "taken twice, then falls out");
        // Only the two taken iterations put the nop in a transfer's shadow;
        // after the untaken jump it is an ordinary instruction.
        assert_eq!(st.stats().delay_slots, 2);
        assert_eq!(st.stats().delay_slot_nops, 2);
    }

    #[test]
    fn interpreter_memory_is_little_endian() {
        let value = 0x1122_3344u32;
        let insns: Vec<Instruction> = Instruction::load_constant(Reg::R1, value)
            .into_iter()
            .chain([
                Instruction::reg(Opcode::Stl, Reg::R1, Reg::R0, Short2::imm(0x80).unwrap()),
                Instruction::reg(Opcode::Ldbu, Reg::R26, Reg::R0, Short2::imm(0x80).unwrap()),
                Instruction::ret(Reg::R0, Short2::ZERO),
            ])
            .collect();
        let st = run_insns(&insns, 100);
        assert_eq!(st.result(), 0x44, "byte 0 is the least significant");
        assert_eq!(st.stats().data_reads, 1);
        assert_eq!(st.stats().data_writes, 1);
        assert_eq!(&st.mem_bytes()[0x80..0x84], &[0x44, 0x33, 0x22, 0x11]);
    }

    #[test]
    fn interpreter_faults_are_reported() {
        // Misaligned load.
        let mut st = SpecState::new(0x2000, 8);
        let ld = Instruction::reg(Opcode::Ldl, Reg::R1, Reg::R0, Short2::imm(2).unwrap());
        st.load_words(0x1000, &[ld.encode()]);
        st.set_pc(0x1000);
        assert!(matches!(
            st.step(),
            Err(SpecFault::DataMisaligned {
                addr: 2,
                width: 4,
                ..
            })
        ));

        // Transfer in a delay slot.
        let mut st = SpecState::new(0x2000, 8);
        let j = Instruction::jmpr(Cond::Alw, 8);
        st.load_words(0x1000, &[j.encode(), j.encode()]);
        st.set_pc(0x1000);
        assert_eq!(st.step(), Ok(false));
        assert_eq!(
            st.step(),
            Err(SpecFault::TransferInDelaySlot { pc: 0x1004 })
        );

        // Unassigned opcode word.
        let mut st = SpecState::new(0x2000, 8);
        st.set_pc(0x1000);
        assert!(matches!(
            st.step(),
            Err(SpecFault::Decode { pc: 0x1000, .. })
        ));

        // Window overflow: with 3 windows the second nested call (reaching
        // the last free window) faults, as the production machine would trap.
        let mut st = SpecState::new(0x2000, 3);
        let call = Instruction::callr(Reg::R25, 8);
        let chain = [
            call.encode(),
            Instruction::nop().encode(),
            call.encode(),
            Instruction::nop().encode(),
        ];
        st.load_words(0x1000, &chain);
        st.set_pc(0x1000);
        assert_eq!(st.step(), Ok(false), "first call pushes a fresh window");
        assert_eq!(st.step(), Ok(false), "delay-slot nop");
        assert_eq!(st.step(), Err(SpecFault::WindowOverflow { pc: 0x1008 }));
    }

    #[test]
    fn interpreter_psw_round_trip() {
        // putpsw materialises flags; getpsw reads them back with the window
        // pointers; calli turns interrupts off.
        let st = run_insns(
            &[
                // Z and C set, interrupts on: word = 0b11001 = 0x19.
                Instruction::reg(Opcode::Putpsw, Reg::R0, Reg::R0, Short2::imm(0x19).unwrap()),
                Instruction::reg(Opcode::Getpsw, Reg::R26, Reg::R0, Short2::ZERO),
                Instruction::ret(Reg::R0, Short2::ZERO),
            ],
            100,
        );
        let psw = Psw::from_word(st.result() as u32);
        assert!(psw.flags.z && psw.flags.c && !psw.flags.n && !psw.flags.v);
        assert!(psw.interrupts_enabled);
        assert_eq!(psw.cwp, 0);
        assert_eq!(psw.swp, 0);
    }
}
