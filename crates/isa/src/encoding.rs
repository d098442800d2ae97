//! Binary encode/decode of the 32-bit instruction word.
//!
//! Word layout (bit 31 = most significant):
//!
//! ```text
//! short:  |op 31..25|scc 24|dest 23..19|rs1 18..14|imm 13|short2 12..0|
//! long:   |op 31..25|scc 24|dest 23..19|        imm19 18..0           |
//! ```
//!
//! `short2` holds either a sign-extended 13-bit immediate (imm = 1) or a
//! register number in bits 4..0 with bits 12..5 required to be zero
//! (imm = 0). The required-zero padding means decode is *strict*: every
//! 32-bit word either decodes to exactly one instruction or is rejected,
//! which the property tests rely on.

use crate::cond::Cond;
use crate::insn::{Instruction, Operands, Short2, IMM19_MAX, IMM19_MIN};
use crate::opcode::Opcode;
use crate::reg::Reg;
use crate::spec::{self, OperandShape};
use std::fmt;

/// Why a 32-bit word failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The 7-bit opcode field matches no instruction.
    UnknownOpcode(u8),
    /// A register-operand encoding had non-zero bits in the must-be-zero
    /// padding field.
    NonZeroPadding(u32),
    /// The scc bit was set on an instruction that cannot set condition
    /// codes (transfers, loads/stores and the misc group).
    SccNotAllowed(Opcode),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownOpcode(c) => write!(f, "unknown opcode field {c:#04x}"),
            DecodeError::NonZeroPadding(w) => {
                write!(f, "non-zero padding in register operand of word {w:#010x}")
            }
            DecodeError::SccNotAllowed(op) => {
                write!(f, "scc bit set on `{op}`, which cannot set condition codes")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Whether an opcode is allowed to assert the `scc` bit. Only the ALU and
/// shift group drives the condition-code logic. This is the spec table's
/// `scc_allowed` column.
pub fn scc_allowed(op: Opcode) -> bool {
    spec::entry(op).scc_allowed
}

impl Instruction {
    /// Encodes the instruction into its 32-bit machine word.
    pub fn encode(&self) -> u32 {
        let op = (self.opcode as u32) << 25;
        let scc = (self.scc as u32) << 24;
        let word = |dest: u32, rest: u32| op | scc | (dest & 0x1f) << 19 | rest;
        match self.operands {
            Operands::Short { dest, rs1, s2 } => word(dest.number() as u32, short_fields(rs1, s2)),
            Operands::ShortCond { cond, rs1, s2 } => word(cond as u32, short_fields(rs1, s2)),
            Operands::Long { dest, imm19 } => word(dest.number() as u32, (imm19 as u32) & 0x7ffff),
            Operands::LongCond { cond, imm19 } => word(cond as u32, (imm19 as u32) & 0x7ffff),
        }
    }

    /// Decodes a 32-bit machine word. The opcode field's row of the spec
    /// table gives the operand shape, the `scc` legality and whether a
    /// long immediate is signed.
    ///
    /// # Errors
    /// Returns a [`DecodeError`] if the opcode field is unassigned, the
    /// must-be-zero padding of a register operand is non-zero, or the `scc`
    /// bit is set on an instruction outside the ALU group.
    pub fn decode(w: u32) -> Result<Instruction, DecodeError> {
        let code = (w >> 25) as u8 & 0x7f;
        let row = spec::entry_for_code(code).ok_or(DecodeError::UnknownOpcode(code))?;
        let scc = w >> 24 & 1 != 0;
        if scc && !row.scc_allowed {
            return Err(DecodeError::SccNotAllowed(row.opcode));
        }
        let dest_field = (w >> 19 & 0x1f) as u8;
        let dest = Reg::from_field(dest_field as u32);
        // Bit 4 of the dest field is unused by conditions and must be zero
        // for a canonical encoding.
        let cond = || Cond::from_field(dest_field).ok_or(DecodeError::NonZeroPadding(w));
        let raw = (w & 0x7ffff) as i32;
        let signed = (raw << 13) >> 13;
        let operands = match row.shape {
            OperandShape::Short => {
                let (rs1, s2) = short_operands(w)?;
                Operands::Short { dest, rs1, s2 }
            }
            OperandShape::ShortCond => {
                let (rs1, s2) = short_operands(w)?;
                Operands::ShortCond {
                    cond: cond()?,
                    rs1,
                    s2,
                }
            }
            OperandShape::Long => Operands::Long {
                dest,
                imm19: if row.imm19_unsigned { raw } else { signed },
            },
            OperandShape::LongCond => Operands::LongCond {
                cond: cond()?,
                imm19: signed,
            },
        };
        Ok(Instruction {
            opcode: row.opcode,
            scc,
            operands,
        })
    }
}

/// The `rs1` and `s2` fields of a short-format word: `s2` is a
/// sign-extended 13-bit immediate, or a register whose must-be-zero
/// padding is checked.
fn short_operands(w: u32) -> Result<(Reg, Short2), DecodeError> {
    let rs1 = Reg::from_field(w >> 14 & 0x1f);
    let s2 = if w >> 13 & 1 != 0 {
        let raw = (w & 0x1fff) as i32;
        Short2::Imm(((raw << 19) >> 19) as i16)
    } else {
        if w & 0x1fe0 != 0 {
            return Err(DecodeError::NonZeroPadding(w));
        }
        Short2::Reg(Reg::from_field(w & 0x1f))
    };
    Ok((rs1, s2))
}

fn short_fields(rs1: Reg, s2: Short2) -> u32 {
    let rs1 = (rs1.number() as u32) << 14;
    match s2 {
        Short2::Reg(r) => rs1 | r.number() as u32,
        Short2::Imm(v) => rs1 | 1 << 13 | ((v as u32) & 0x1fff),
    }
}

/// Validates that a long immediate fits the PC-relative field.
pub fn fits_imm19(offset: i32) -> bool {
    (IMM19_MIN..=IMM19_MAX).contains(&offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Format;
    use proptest::prelude::*;

    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0u8..32).prop_map(|n| Reg::new(n).unwrap())
    }

    fn arb_short2() -> impl Strategy<Value = Short2> {
        prop_oneof![
            arb_reg().prop_map(Short2::Reg),
            (-4096i32..=4095).prop_map(|v| Short2::imm(v).unwrap()),
        ]
    }

    fn arb_cond() -> impl Strategy<Value = Cond> {
        (0u8..16).prop_map(|n| Cond::from_field(n).unwrap())
    }

    fn arb_instruction() -> impl Strategy<Value = Instruction> {
        let short_ops: Vec<Opcode> = Opcode::ALL
            .iter()
            .copied()
            .filter(|o| o.format() == Format::Short && !o.uses_condition())
            .collect();
        let alu_ops: Vec<Opcode> = Opcode::ALL
            .iter()
            .copied()
            .filter(|o| scc_allowed(*o))
            .collect();
        prop_oneof![
            // plain short format
            (
                proptest::sample::select(short_ops),
                arb_reg(),
                arb_reg(),
                arb_short2()
            )
                .prop_map(|(op, d, r1, s2)| Instruction::reg(op, d, r1, s2)),
            // scc-setting ALU op
            (
                proptest::sample::select(alu_ops),
                arb_reg(),
                arb_reg(),
                arb_short2()
            )
                .prop_map(|(op, d, r1, s2)| Instruction::reg_scc(op, d, r1, s2)),
            // jmp
            (arb_cond(), arb_reg(), arb_short2())
                .prop_map(|(c, r1, s2)| Instruction::jmp(c, r1, s2)),
            // jmpr
            (arb_cond(), IMM19_MIN..=IMM19_MAX).prop_map(|(c, off)| Instruction::jmpr(c, off)),
            // callr
            (arb_reg(), IMM19_MIN..=IMM19_MAX).prop_map(|(d, off)| Instruction::callr(d, off)),
            // ldhi
            (arb_reg(), 0u32..(1 << 19)).prop_map(|(d, v)| Instruction::ldhi(d, v)),
        ]
    }

    proptest! {
        /// encode ∘ decode = identity over every constructible instruction.
        #[test]
        fn encode_decode_roundtrip(insn in arb_instruction()) {
            let word = insn.encode();
            prop_assert_eq!(Instruction::decode(word), Ok(insn));
        }

        /// decode ∘ encode = identity over every word that decodes at all
        /// (i.e. the encoding is canonical: no two words decode to the same
        /// instruction).
        #[test]
        fn decode_encode_roundtrip(word in any::<u32>()) {
            if let Ok(insn) = Instruction::decode(word) {
                prop_assert_eq!(insn.encode(), word);
            }
        }
    }

    #[test]
    fn known_encoding_golden() {
        // add r1, r2, #5 => op=0x01 scc=0 dest=1 rs1=2 imm=1 s2=5
        let i = Instruction::reg(Opcode::Add, Reg::R1, Reg::R2, Short2::imm(5).unwrap());
        let expected = (0x01 << 25) | (1 << 19) | (2 << 14) | (1 << 13) | 5;
        assert_eq!(i.encode(), expected);
    }

    #[test]
    fn negative_immediate_sign_extends() {
        let i = Instruction::reg(Opcode::Add, Reg::R1, Reg::R2, Short2::imm(-1).unwrap());
        let d = Instruction::decode(i.encode()).unwrap();
        match d.operands {
            Operands::Short {
                s2: Short2::Imm(v), ..
            } => assert_eq!(v, -1),
            other => panic!("unexpected operands {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_opcode() {
        assert_eq!(
            Instruction::decode(0xfe00_0000),
            Err(DecodeError::UnknownOpcode(0x7f))
        );
    }

    #[test]
    fn rejects_dirty_padding() {
        // add with register operand but junk in bits 12..5
        let base = Instruction::reg(Opcode::Add, Reg::R1, Reg::R2, Short2::reg(Reg::R3)).encode();
        let dirty = base | 0x0100;
        assert_eq!(
            Instruction::decode(dirty),
            Err(DecodeError::NonZeroPadding(dirty))
        );
    }

    #[test]
    fn rejects_scc_on_load() {
        let base = Instruction::reg(Opcode::Ldl, Reg::R1, Reg::R2, Short2::ZERO).encode();
        let dirty = base | 1 << 24;
        assert_eq!(
            Instruction::decode(dirty),
            Err(DecodeError::SccNotAllowed(Opcode::Ldl))
        );
    }

    #[test]
    fn jmpr_negative_offset_roundtrip() {
        let i = Instruction::jmpr(Cond::Alw, IMM19_MIN);
        assert_eq!(Instruction::decode(i.encode()), Ok(i));
        let i = Instruction::jmpr(Cond::Alw, -4);
        assert_eq!(Instruction::decode(i.encode()), Ok(i));
    }

    #[test]
    fn ldhi_payload_is_unsigned() {
        let i = Instruction::ldhi(Reg::R1, 0x7ffff);
        let d = Instruction::decode(i.encode()).unwrap();
        match d.operands {
            Operands::Long { imm19, .. } => assert_eq!(imm19, 0x7ffff),
            other => panic!("unexpected operands {other:?}"),
        }
    }
}
