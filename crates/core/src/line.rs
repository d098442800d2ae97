//! Prepared lines: a decoded instruction in the form every executor runs.
//!
//! A [`Line`] is the instruction with its operands pulled out of their
//! shape, its base cycle cost and its transfer flag. Every line comes from
//! one fetch function, `cpu::fetch`, which returns a line or the trap the
//! fetch raises. The one-step path (`Cpu::exec_one`) calls it for each
//! instruction it runs, and block formation for each line of a block, so a
//! fetch traps alike on every tier. Lines are cached only inside block
//! bodies (`crate::superblock`), which the trace builder also lowers from.

use risc1_isa::insn::Operands;
use risc1_isa::spec::{self, Transfer};
use risc1_isa::{Cond, Instruction, Opcode, Reg, Short2};

/// One prepared instruction: the decode result plus everything the
/// execute loop would otherwise recompute per retirement. The operand
/// fields are a *flattened* view of [`Operands`] — each shape fills the
/// fields it has and leaves the rest at neutral values the dispatch arms
/// for that opcode never read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Line {
    /// The decoded instruction (kept whole for trace records and the
    /// hazard model's read-set computation).
    pub insn: Instruction,
    /// Copy of `insn.opcode`, the dispatch key.
    pub op: Opcode,
    /// Copy of `insn.scc`.
    pub scc: bool,
    /// Whether the operands were a long (19-bit immediate) shape.
    pub long: bool,
    /// Precomputed transfer flag, from the spec table's `transfer` column.
    pub is_transfer: bool,
    /// Precomputed base cycle cost, from the spec table's `base_cycles`
    /// column.
    pub base_cycles: u8,
    /// Destination / link / store-data register (short shapes).
    pub dest: Reg,
    /// First source register (short shapes).
    pub rs1: Reg,
    /// Second source operand (short shapes).
    pub s2: Short2,
    /// The 19-bit immediate (long shapes).
    pub imm19: i32,
    /// Jump condition (conditional shapes).
    pub cond: Cond,
}

impl Line {
    /// Flattens a decoded instruction into its prepared form.
    #[inline]
    pub(crate) fn prepare(insn: Instruction) -> Line {
        let (dest, rs1, s2, imm19, cond, long) = match insn.operands {
            Operands::Short { dest, rs1, s2 } => (dest, rs1, s2, 0, Cond::Nvr, false),
            Operands::Long { dest, imm19 } => (dest, Reg::R0, Short2::ZERO, imm19, Cond::Nvr, true),
            Operands::ShortCond { cond, rs1, s2 } => (Reg::R0, rs1, s2, 0, cond, false),
            Operands::LongCond { cond, imm19 } => {
                (Reg::R0, Reg::R0, Short2::ZERO, imm19, cond, true)
            }
        };
        let entry = spec::entry(insn.opcode);
        Line {
            insn,
            op: insn.opcode,
            scc: insn.scc,
            long,
            is_transfer: entry.transfer != Transfer::None,
            base_cycles: entry.base_cycles,
            dest,
            rs1,
            s2,
            imm19,
            cond,
        }
    }

    /// The value an LDHI line loads: its 19-bit immediate in the high
    /// bits, the low 13 zero.
    #[inline]
    pub(crate) fn ldhi_value(&self) -> u32 {
        (self.imm19 as u32) << 13
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_word() -> u32 {
        Instruction::reg(Opcode::Add, Reg::R16, Reg::R17, Short2::Reg(Reg::R18)).encode()
    }

    #[test]
    fn prepared_lines_flatten_every_operand_shape() {
        // Short: all fields extracted.
        let add = Line::prepare(Instruction::reg(
            Opcode::Add,
            Reg::R16,
            Reg::R17,
            Short2::Reg(Reg::R18),
        ));
        assert_eq!((add.dest, add.rs1), (Reg::R16, Reg::R17));
        assert!(!add.long && !add.is_transfer);
        assert_eq!(u64::from(add.base_cycles), Opcode::Add.base_cycles());
        // Long: imm19 extracted, transfer/cycle attributes precomputed.
        let ldhi = Line::prepare(Instruction::ldhi(Reg::R20, 7));
        assert!(ldhi.long);
        assert_eq!((ldhi.dest, ldhi.imm19), (Reg::R20, 7));
        let call = Line::prepare(Instruction::decode(add_word()).unwrap());
        assert_eq!(call.insn.opcode, call.op);
    }
}
