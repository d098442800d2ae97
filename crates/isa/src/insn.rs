//! Decoded instruction representation.
//!
//! [`Instruction`] is the symbolic (already-decoded) form used throughout the
//! workspace: the simulator executes it directly, the assembler produces it,
//! and [`Instruction::encode`]/[`Instruction::decode`] convert to and from
//! the 32-bit machine word.

use crate::cond::Cond;
use crate::opcode::{Format, Opcode};
use crate::reg::Reg;
use std::fmt;

/// Range of the 13-bit signed short immediate.
pub const IMM13_MIN: i32 = -(1 << 12);
/// Inclusive upper bound of the 13-bit signed short immediate.
pub const IMM13_MAX: i32 = (1 << 12) - 1;
/// Range of the 19-bit signed long immediate (PC-relative transfers).
pub const IMM19_MIN: i32 = -(1 << 18);
/// Inclusive upper bound of the 19-bit signed long immediate.
pub const IMM19_MAX: i32 = (1 << 18) - 1;

/// The second source operand of a short-format instruction: either a
/// register or a sign-extended 13-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Short2 {
    /// Second operand comes from a register.
    Reg(Reg),
    /// Second operand is a 13-bit signed immediate (invariant: within
    /// [`IMM13_MIN`]..=[`IMM13_MAX`], enforced by [`Short2::imm`]).
    Imm(i16),
}

impl Short2 {
    /// A register second operand.
    pub fn reg(r: Reg) -> Short2 {
        Short2::Reg(r)
    }

    /// An immediate second operand; `None` if the value does not fit in 13
    /// signed bits.
    pub fn imm(v: i32) -> Option<Short2> {
        (IMM13_MIN..=IMM13_MAX)
            .contains(&v)
            .then_some(Short2::Imm(v as i16))
    }

    /// The constant zero (`#0`), used wherever an operand is unused.
    pub const ZERO: Short2 = Short2::Imm(0);
}

impl From<Reg> for Short2 {
    fn from(r: Reg) -> Short2 {
        Short2::Reg(r)
    }
}

impl fmt::Display for Short2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Short2::Reg(r) => write!(f, "{r}"),
            Short2::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// The operand payload of an instruction, one variant per operand shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operands {
    /// `dest, rs1, s2` — ALU ops, loads (dest := M[rs1+s2]), stores
    /// (M[rs1+s2] := dest), CALL/RET/CALLI/RETI and PSW ops.
    Short {
        /// Destination register (or data source for stores, or the link
        /// register for CALL).
        dest: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source operand.
        s2: Short2,
    },
    /// `cond, rs1, s2` — the conditional indexed jump `JMP`.
    ShortCond {
        /// Jump condition (encoded in the dest field).
        cond: Cond,
        /// Base register of the target address.
        rs1: Reg,
        /// Offset part of the target address.
        s2: Short2,
    },
    /// `dest, imm19` — `LDHI` (unsigned payload) and `CALLR` (signed
    /// PC-relative byte offset).
    Long {
        /// Destination (or link) register.
        dest: Reg,
        /// 19-bit immediate; signed byte offset for CALLR, raw high bits
        /// payload for LDHI.
        imm19: i32,
    },
    /// `cond, imm19` — the conditional PC-relative jump `JMPR`.
    LongCond {
        /// Jump condition.
        cond: Cond,
        /// Signed PC-relative byte offset.
        imm19: i32,
    },
}

/// A fully decoded RISC I instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Which of the 31 operations this is.
    pub opcode: Opcode,
    /// Whether the instruction updates the condition flags.
    pub scc: bool,
    /// The operands, in the shape appropriate for `opcode`.
    pub operands: Operands,
}

impl Instruction {
    /// A plain three-operand instruction (`dest := rs1 op s2`), not setting
    /// condition codes. Also used for loads/stores and window ops.
    ///
    /// ```
    /// use risc1_isa::{Instruction, Opcode, Reg, Short2};
    /// let i = Instruction::reg(Opcode::Sub, Reg::R1, Reg::R2, Short2::reg(Reg::R3));
    /// assert_eq!(i.to_string(), "sub r1, r2, r3");
    /// ```
    pub fn reg(opcode: Opcode, dest: Reg, rs1: Reg, s2: Short2) -> Instruction {
        debug_assert_eq!(opcode.format(), Format::Short);
        debug_assert!(!opcode.uses_condition());
        Instruction {
            opcode,
            scc: false,
            operands: Operands::Short { dest, rs1, s2 },
        }
    }

    /// Like [`Instruction::reg`] but with the `scc` (set condition codes)
    /// bit asserted.
    pub fn reg_scc(opcode: Opcode, dest: Reg, rs1: Reg, s2: Short2) -> Instruction {
        Instruction {
            scc: true,
            ..Instruction::reg(opcode, dest, rs1, s2)
        }
    }

    /// The conditional indexed jump `jmp cond, rs1, s2`.
    pub fn jmp(cond: Cond, rs1: Reg, s2: Short2) -> Instruction {
        Instruction {
            opcode: Opcode::Jmp,
            scc: false,
            operands: Operands::ShortCond { cond, rs1, s2 },
        }
    }

    /// The conditional PC-relative jump `jmpr cond, #offset` (byte offset
    /// from the jump's own address).
    pub fn jmpr(cond: Cond, offset: i32) -> Instruction {
        debug_assert!((IMM19_MIN..=IMM19_MAX).contains(&offset));
        Instruction {
            opcode: Opcode::Jmpr,
            scc: false,
            operands: Operands::LongCond {
                cond,
                imm19: offset,
            },
        }
    }

    /// `call link, rs1, s2`: save PC in `link` (a register of the *new*
    /// window), advance the window, jump to `rs1 + s2`.
    pub fn call(link: Reg, rs1: Reg, s2: Short2) -> Instruction {
        Instruction::reg(Opcode::Call, link, rs1, s2)
    }

    /// `callr link, #offset`: PC-relative call.
    pub fn callr(link: Reg, offset: i32) -> Instruction {
        debug_assert!((IMM19_MIN..=IMM19_MAX).contains(&offset));
        Instruction {
            opcode: Opcode::Callr,
            scc: false,
            operands: Operands::Long {
                dest: link,
                imm19: offset,
            },
        }
    }

    /// `ret rs1, s2`: jump to `rs1 + s2` and move back to the previous
    /// window.
    pub fn ret(rs1: Reg, s2: Short2) -> Instruction {
        Instruction::reg(Opcode::Ret, Reg::R0, rs1, s2)
    }

    /// `reti rs1, s2`: like [`Instruction::ret`], but also re-enables
    /// interrupts — the return path of interrupt and trap handlers.
    pub fn reti(rs1: Reg, s2: Short2) -> Instruction {
        Instruction::reg(Opcode::Reti, Reg::R0, rs1, s2)
    }

    /// `ldhi dest, #imm19`: set the high 19 bits of `dest`, clear the rest.
    pub fn ldhi(dest: Reg, imm19: u32) -> Instruction {
        debug_assert!(imm19 < (1 << 19));
        Instruction {
            opcode: Opcode::Ldhi,
            scc: false,
            operands: Operands::Long {
                dest,
                imm19: imm19 as i32,
            },
        }
    }

    /// Emits the shortest sequence that materialises an arbitrary 32-bit
    /// constant in `dest`: one `add dest, r0, #v` when `v` fits the signed
    /// 13-bit immediate, otherwise `ldhi` followed by an `add` whose
    /// sign-extended immediate is compensated in the high part.
    ///
    /// ```
    /// use risc1_isa::{Instruction, Reg};
    /// assert_eq!(Instruction::load_constant(Reg::R5, 7).len(), 1);
    /// assert_eq!(Instruction::load_constant(Reg::R5, 0xdead_beef).len(), 2);
    /// ```
    pub fn load_constant(dest: Reg, value: u32) -> Vec<Instruction> {
        if let Some(s2) = Short2::imm(value as i32) {
            return vec![Instruction::reg(Opcode::Add, dest, Reg::R0, s2)];
        }
        let lo = value & 0x1fff;
        let se_lo = ((lo as i32) << 19) >> 19; // sign-extended low 13 bits
        let hi = value.wrapping_sub(se_lo as u32) >> 13;
        vec![
            Instruction::ldhi(dest, hi & 0x7ffff),
            Instruction::reg(Opcode::Add, dest, dest, Short2::imm(se_lo).unwrap()),
        ]
    }

    /// A canonical no-op (`add r0, r0, #0`): writing r0 is discarded.
    pub fn nop() -> Instruction {
        Instruction::reg(Opcode::Add, Reg::R0, Reg::R0, Short2::ZERO)
    }

    /// Whether the instruction is a no-op by the canonical encoding.
    #[inline]
    pub fn is_nop(&self) -> bool {
        *self == Instruction::nop()
    }

    /// The registers this instruction *reads* when executed, in the current
    /// window's name space. Used by the pipeline hazard model and the
    /// delay-slot filler. Derived from the spec table's operand roles.
    pub fn reads(&self) -> Vec<Reg> {
        crate::spec::reg_reads(self)
    }

    /// The register this instruction *writes*, if any (r0 writes are
    /// discarded and reported as `None`). Derived from the spec table's
    /// `dest` role.
    pub fn writes(&self) -> Option<Reg> {
        crate::spec::reg_write(self)
    }

    /// Whether executing the instruction may change the condition flags:
    /// any instruction with the `scc` bit set, plus `PUTPSW`, which rewrites
    /// the whole status word. Derived from the spec table's flag defs.
    pub fn sets_cc(&self) -> bool {
        crate::spec::sets_condition_codes(self)
    }

    /// Whether the instruction's result depends on the condition flags (or
    /// the PSW containing them): the carry-chained ALU ops, `GETPSW`, and
    /// any conditional transfer whose condition actually tests flags
    /// (`alw`/`nvr` do not). Derived from the spec table's flag uses.
    pub fn reads_cc(&self) -> bool {
        crate::spec::reads_condition_codes(self)
    }

    /// The condition tested by a `JMP`/`JMPR`, `None` for everything else.
    pub fn jump_cond(&self) -> Option<Cond> {
        match self.operands {
            Operands::ShortCond { cond, .. } | Operands::LongCond { cond, .. }
                if self.opcode.uses_condition() =>
            {
                Some(cond)
            }
            _ => None,
        }
    }

    /// The link register a call saves its return address into, `None` for
    /// non-calls (and for a discarded r0 link).
    pub fn link_reg(&self) -> Option<Reg> {
        self.opcode.is_call().then(|| self.writes()).flatten()
    }

    /// Whether `self` can sit in the delay slot of `transfer` without
    /// changing program meaning. This single predicate is shared by the
    /// delay-slot filler (may it hoist the predecessor into the slot?) and
    /// the linter (is an already-placed slot instruction hazard-free?):
    ///
    /// * a transfer in a transfer's shadow is a hardware fault;
    /// * a flag-setter is unsafe when the transfer's condition reads flags —
    ///   hoisting would make the jump test stale flags, and even in placed
    ///   code an interrupt restart via `GTLPC` re-executes the jump *after*
    ///   the slot ran;
    /// * writing a register the transfer reads (`jmp rs1` / `ret rs1`) is
    ///   unsafe for the same restart reason;
    /// * when the transfer moves the register window, the slot executes in
    ///   the *new* window, so only instructions confined to the shared
    ///   global registers mean the same thing on both sides of the move.
    ///
    /// Every fact consulted (transfer class, flag def/use, register def/use,
    /// window motion) comes from the spec table.
    pub fn safe_in_delay_slot_of(&self, transfer: &Instruction) -> bool {
        crate::spec::safe_in_delay_slot(self, transfer)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        // Print the canonical assembler operand shape for each opcode so
        // that disassembly reassembles to the same words.
        match self.operands {
            Operands::Short { dest, rs1, s2 } => match self.opcode {
                Opcode::Ret | Opcode::Reti | Opcode::Putpsw => write!(f, " {rs1}, {s2}")?,
                Opcode::Calli | Opcode::Gtlpc | Opcode::Getpsw => write!(f, " {dest}")?,
                _ => write!(f, " {dest}, {rs1}, {s2}")?,
            },
            Operands::ShortCond { cond, rs1, s2 } => write!(f, " {cond}, {rs1}, {s2}")?,
            Operands::Long { dest, imm19 } => write!(f, " {dest}, #{imm19}")?,
            Operands::LongCond { cond, imm19 } => write!(f, " {cond}, #{imm19}")?,
        }
        if self.scc {
            write!(f, " {{scc}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imm13_bounds() {
        assert!(Short2::imm(IMM13_MAX).is_some());
        assert!(Short2::imm(IMM13_MIN).is_some());
        assert!(Short2::imm(IMM13_MAX + 1).is_none());
        assert!(Short2::imm(IMM13_MIN - 1).is_none());
    }

    #[test]
    fn display_formats() {
        let add = Instruction::reg_scc(Opcode::Add, Reg::R1, Reg::R2, Short2::imm(-7).unwrap());
        assert_eq!(add.to_string(), "add r1, r2, #-7 {scc}");
        let j = Instruction::jmpr(Cond::Lt, -16);
        assert_eq!(j.to_string(), "jmpr lt, #-16");
        let l = Instruction::ldhi(Reg::R4, 0x7ffff);
        assert_eq!(l.to_string(), "ldhi r4, #524287");
    }

    #[test]
    fn nop_roundtrip() {
        assert!(Instruction::nop().is_nop());
        assert!(!Instruction::reg(Opcode::Add, Reg::R1, Reg::R0, Short2::ZERO).is_nop());
    }

    #[test]
    fn reads_and_writes() {
        let add = Instruction::reg(Opcode::Add, Reg::R1, Reg::R2, Short2::reg(Reg::R3));
        assert_eq!(add.reads(), vec![Reg::R2, Reg::R3]);
        assert_eq!(add.writes(), Some(Reg::R1));

        // r0 never appears as a dependency.
        let z = Instruction::reg(Opcode::Add, Reg::R0, Reg::R0, Short2::ZERO);
        assert!(z.reads().is_empty());
        assert_eq!(z.writes(), None);

        // Stores read their data register and write nothing.
        let st = Instruction::reg(Opcode::Stl, Reg::R5, Reg::R26, Short2::imm(4).unwrap());
        assert_eq!(st.reads(), vec![Reg::R26, Reg::R5]);
        assert_eq!(st.writes(), None);

        // Conditional jumps write nothing.
        let j = Instruction::jmp(Cond::Eq, Reg::R7, Short2::ZERO);
        assert_eq!(j.reads(), vec![Reg::R7]);
        assert_eq!(j.writes(), None);
    }

    #[test]
    fn ret_uses_rs1() {
        let r = Instruction::ret(Reg::R25, Short2::imm(8).unwrap());
        assert_eq!(r.reads(), vec![Reg::R25]);
        assert_eq!(r.writes(), None);
    }

    #[test]
    fn condition_code_def_use() {
        let plain = Instruction::reg(Opcode::Add, Reg::R1, Reg::R2, Short2::ZERO);
        assert!(!plain.sets_cc() && !plain.reads_cc());
        let scc = Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R1, Short2::ZERO);
        assert!(scc.sets_cc());
        let carry = Instruction::reg(Opcode::Addc, Reg::R1, Reg::R2, Short2::ZERO);
        assert!(carry.reads_cc());

        assert!(Instruction::jmpr(Cond::Eq, 8).reads_cc());
        assert!(!Instruction::jmpr(Cond::Alw, 8).reads_cc());
        assert!(!Instruction::jmpr(Cond::Nvr, 8).reads_cc());
        assert_eq!(Instruction::jmpr(Cond::Lt, 8).jump_cond(), Some(Cond::Lt));
        assert_eq!(plain.jump_cond(), None);
    }

    #[test]
    fn link_registers() {
        assert_eq!(Instruction::callr(Reg::R25, 8).link_reg(), Some(Reg::R25));
        assert_eq!(
            Instruction::call(Reg::R25, Reg::R2, Short2::ZERO).link_reg(),
            Some(Reg::R25)
        );
        assert_eq!(Instruction::callr(Reg::R0, 8).link_reg(), None);
        assert_eq!(Instruction::jmpr(Cond::Alw, 8).link_reg(), None);
    }

    #[test]
    fn delay_slot_safety() {
        let j_alw = Instruction::jmpr(Cond::Alw, 8);
        let j_eq = Instruction::jmpr(Cond::Eq, 8);
        let j_reg = Instruction::jmp(Cond::Alw, Reg::R5, Short2::ZERO);
        let ret = Instruction::ret(Reg::R25, Short2::imm(8).unwrap());

        let nop = Instruction::nop();
        assert!(nop.safe_in_delay_slot_of(&ret), "nop is safe anywhere");

        let add = Instruction::reg(Opcode::Add, Reg::R16, Reg::R16, Short2::ZERO);
        assert!(add.safe_in_delay_slot_of(&j_alw));
        assert!(add.safe_in_delay_slot_of(&j_eq));
        assert!(
            !add.safe_in_delay_slot_of(&ret),
            "window-relative write in a window-moving slot"
        );

        let global = Instruction::reg(Opcode::Add, Reg::R2, Reg::R3, Short2::ZERO);
        assert!(
            global.safe_in_delay_slot_of(&ret),
            "globals name the same state in both windows"
        );

        let scc = Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R16, Short2::ZERO);
        assert!(!scc.safe_in_delay_slot_of(&j_eq), "condition reads flags");
        assert!(scc.safe_in_delay_slot_of(&j_alw), "alw ignores flags");

        let clobber = Instruction::reg(Opcode::Add, Reg::R5, Reg::R0, Short2::ZERO);
        assert!(
            !clobber.safe_in_delay_slot_of(&j_reg),
            "writes the jump's base register"
        );

        assert!(
            !j_alw.safe_in_delay_slot_of(&j_eq),
            "transfer in a delay slot faults"
        );
    }

    #[test]
    fn delay_slot_metadata() {
        assert!(Opcode::Jmpr.has_delay_slot());
        assert!(Opcode::Ret.has_delay_slot());
        assert!(!Opcode::Calli.has_delay_slot(), "calli falls through");
        assert!(!Opcode::Add.has_delay_slot());
        assert!(Opcode::Calli.is_call() && Opcode::Callr.is_call());
        assert!(Opcode::Ret.is_ret() && Opcode::Reti.is_ret());
        assert!(!Opcode::Jmp.is_call() && !Opcode::Jmp.is_ret());
    }
}
