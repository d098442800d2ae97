//! The 31 RISC I opcodes.
//!
//! An opcode names one row of the paper's Table II: its mnemonic, its
//! 7-bit code and a one-line semantic description. Every other static fact
//! about it (instruction format, functional category, base cycle cost,
//! memory, window and transfer behaviour) is read from that row of the
//! executable spec table, [`crate::spec::ENTRIES`], where each is stated
//! once.

use crate::spec::{self, MemEffect, OperandShape, Transfer, WindowMotion};
use std::fmt;

/// Functional category of an instruction (the paper groups Table II the same
/// way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Register-to-register ALU operations.
    Arithmetic,
    /// Shift operations (a subset of the ALU in hardware, listed separately
    /// because the assembler treats the shift count specially).
    Shift,
    /// LOAD instructions — the only way to read memory.
    Load,
    /// STORE instructions — the only way to write memory.
    Store,
    /// Jumps, calls and returns (all delayed by one instruction slot).
    ControlTransfer,
    /// PSW access, LDHI and the other odds and ends.
    Misc,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Arithmetic => "arithmetic/logic",
            Category::Shift => "shift",
            Category::Load => "load",
            Category::Store => "store",
            Category::ControlTransfer => "control transfer",
            Category::Misc => "miscellaneous",
        };
        f.write_str(s)
    }
}

/// Binary layout of an instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// `op<7> scc<1> dest<5> rs1<5> imm<1> short2<13>` — the workhorse format.
    /// `short2` is either a register (imm = 0) or a sign-extended 13-bit
    /// immediate (imm = 1).
    Short,
    /// `op<7> scc<1> dest<5> imm19<19>` — used by `LDHI` and the PC-relative
    /// transfers `JMPR`/`CALLR`.
    Long,
}

macro_rules! opcodes {
    ($(($variant:ident, $mnem:literal, $code:expr, $desc:literal)),* $(,)?) => {
        /// One of the 31 RISC I instructions.
        ///
        /// The discriminant is the 7-bit opcode field of the encoded word.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum Opcode {
            $(#[doc = $desc] $variant = $code,)*
        }

        impl Opcode {
            /// Every opcode, in Table II order.
            pub const ALL: &'static [Opcode] = &[$(Opcode::$variant),*];

            /// The assembler mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self { $(Opcode::$variant => $mnem,)* }
            }

            /// One-line semantics, as in Table II of the paper.
            pub fn description(self) -> &'static str {
                match self { $(Opcode::$variant => $desc,)* }
            }

            /// Decode a 7-bit opcode field.
            pub fn from_code(code: u8) -> Option<Opcode> {
                match code { $($code => Some(Opcode::$variant),)* _ => None }
            }

            /// Look up an opcode by its assembler mnemonic
            /// (case-insensitive).
            pub fn from_mnemonic(s: &str) -> Option<Opcode> {
                $(if s.eq_ignore_ascii_case($mnem) { return Some(Opcode::$variant); })*
                None
            }
        }
    };
}

// Opcode space: top bit of the 7-bit field selects long format (1) vs short
// format (0), which keeps the decoder a handful of gates — one of the paper's
// selling points.
opcodes! {
    // -- arithmetic / logic ---------------------------------------------------
    (Add,    "add",    0x01, "rd := rs1 + s2"),
    (Addc,   "addc",   0x02, "rd := rs1 + s2 + carry"),
    (Sub,    "sub",    0x03, "rd := rs1 - s2"),
    (Subc,   "subc",   0x04, "rd := rs1 - s2 - borrow"),
    (Subr,   "subr",   0x05, "rd := s2 - rs1 (reverse subtract)"),
    (Subcr,  "subcr",  0x06, "rd := s2 - rs1 - borrow"),
    (And,    "and",    0x07, "rd := rs1 & s2"),
    (Or,     "or",     0x08, "rd := rs1 | s2"),
    (Xor,    "xor",    0x09, "rd := rs1 ^ s2"),
    (Sll,    "sll",    0x0a, "rd := rs1 << s2 (shift left logical)"),
    (Srl,    "srl",    0x0b, "rd := rs1 >> s2 (shift right logical)"),
    (Sra,    "sra",    0x0c, "rd := rs1 >> s2 (shift right arithmetic)"),
    // -- loads ----------------------------------------------------------------
    (Ldl,    "ldl",    0x10, "rd := M[rs1 + s2] (load 32-bit word)"),
    (Ldsu,   "ldsu",   0x11, "rd := zero-extended 16-bit M[rs1 + s2]"),
    (Ldss,   "ldss",   0x12, "rd := sign-extended 16-bit M[rs1 + s2]"),
    (Ldbu,   "ldbu",   0x13, "rd := zero-extended 8-bit M[rs1 + s2]"),
    (Ldbs,   "ldbs",   0x14, "rd := sign-extended 8-bit M[rs1 + s2]"),
    // -- stores ---------------------------------------------------------------
    (Stl,    "stl",    0x15, "M[rs1 + s2] := rd (store 32-bit word)"),
    (Sts,    "sts",    0x16, "M[rs1 + s2] := low 16 bits of rd"),
    (Stb,    "stb",    0x17, "M[rs1 + s2] := low 8 bits of rd"),
    // -- control transfer -----------------------------------------------------
    (Jmp,    "jmp",    0x20, "if cond then pc := rs1 + s2 (delayed)"),
    (Jmpr,   "jmpr",   0x60, "if cond then pc := pc + imm19 (delayed)"),
    (Call,   "call",   0x21, "rd := pc, next window, pc := rs1 + s2 (delayed)"),
    (Callr,  "callr",  0x61, "rd := pc, next window, pc := pc + imm19 (delayed)"),
    (Ret,    "ret",    0x22, "pc := rs1 + s2, previous window (delayed)"),
    (Calli,  "calli",  0x23, "interrupt entry: disable interrupts, next window, save last pc"),
    (Reti,   "reti",   0x24, "interrupt exit: enable interrupts, previous window, pc := rs1 + s2"),
    // -- miscellaneous --------------------------------------------------------
    (Ldhi,   "ldhi",   0x62, "rd := imm19 << 13 (load immediate high part)"),
    (Gtlpc,  "gtlpc",  0x25, "rd := last pc (for restarting delayed jumps after interrupts)"),
    (Getpsw, "getpsw", 0x26, "rd := psw"),
    (Putpsw, "putpsw", 0x27, "psw := rs1 + s2"),
}

impl Opcode {
    /// Functional category (Table II grouping): a load or store by its
    /// memory effect, a transfer by its transfer kind, a shift by its
    /// masked count, arithmetic by the rest of the rows that may set the
    /// flags, and miscellaneous otherwise.
    pub fn category(self) -> Category {
        let e = spec::entry(self);
        match (e.mem, e.transfer) {
            (MemEffect::Read { .. }, _) => Category::Load,
            (MemEffect::Write { .. }, _) => Category::Store,
            (_, Transfer::None) if e.masks_shift_count => Category::Shift,
            (_, Transfer::None) if e.scc_allowed => Category::Arithmetic,
            (_, Transfer::None) => Category::Misc,
            _ => Category::ControlTransfer,
        }
    }

    /// Binary instruction format, the width of the operand shape.
    pub fn format(self) -> Format {
        match spec::entry(self).shape {
            OperandShape::Short | OperandShape::ShortCond => Format::Short,
            OperandShape::Long | OperandShape::LongCond => Format::Long,
        }
    }

    /// Base cycle cost in the paper's timing model.
    pub fn base_cycles(self) -> u64 {
        u64::from(spec::entry(self).base_cycles)
    }

    /// Number of *data* memory references the instruction makes
    /// (instruction fetch is not counted here).
    pub fn data_mem_refs(self) -> u64 {
        u64::from(spec::entry(self).mem != MemEffect::None)
    }

    /// Whether the instruction is a conditional transfer whose `dest` field
    /// holds a condition code instead of a destination register.
    #[inline]
    pub fn uses_condition(self) -> bool {
        matches!(
            spec::entry(self).shape,
            OperandShape::ShortCond | OperandShape::LongCond
        )
    }

    /// Whether executing the instruction may change the current window
    /// pointer.
    #[inline]
    pub fn moves_window(self) -> bool {
        spec::entry(self).window != WindowMotion::None
    }

    /// Whether the instruction is any transfer of control.
    #[inline]
    pub fn is_transfer(self) -> bool {
        spec::entry(self).transfer != Transfer::None
    }

    /// Whether the instruction enters a procedure (advances the window and
    /// records a return address).
    pub fn is_call(self) -> bool {
        spec::entry(self).window == WindowMotion::Push
    }

    /// Whether the instruction leaves a procedure (moves back to the
    /// previous window).
    pub fn is_ret(self) -> bool {
        spec::entry(self).window == WindowMotion::Pop
    }

    /// Whether the transfer exposes a delay slot: every transfer to a
    /// target operand does. `CALLI` traps in place and falls through to
    /// the next word.
    #[inline]
    pub fn has_delay_slot(self) -> bool {
        matches!(
            spec::entry(self).transfer,
            Transfer::Indexed | Transfer::Relative
        )
    }

    /// Whether this is a load.
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(spec::entry(self).mem, MemEffect::Read { .. })
    }

    /// Whether this is a store.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(spec::entry(self).mem, MemEffect::Write { .. })
    }

    /// Number of bits of the 13-bit short-immediate field a shift-count uses.
    /// Shifts only look at the low 5 bits of `s2`, like the hardware barrel
    /// shifter.
    pub const SHIFT_COUNT_BITS: u32 = 5;
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exactly_31_instructions() {
        // The paper's headline number.
        assert_eq!(Opcode::ALL.len(), 31);
    }

    #[test]
    fn opcode_codes_are_unique() {
        let codes: HashSet<u8> = Opcode::ALL.iter().map(|o| *o as u8).collect();
        assert_eq!(codes.len(), Opcode::ALL.len());
    }

    #[test]
    fn mnemonics_are_unique_and_lowercase() {
        let mut seen = HashSet::new();
        for op in Opcode::ALL {
            let m = op.mnemonic();
            assert_eq!(m, m.to_ascii_lowercase());
            assert!(seen.insert(m), "duplicate mnemonic {m}");
        }
    }

    #[test]
    fn from_code_roundtrips() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_code(*op as u8), Some(*op));
        }
        assert_eq!(Opcode::from_code(0x7f), None);
        assert_eq!(Opcode::from_code(0), None);
    }

    #[test]
    fn from_mnemonic_is_case_insensitive() {
        assert_eq!(Opcode::from_mnemonic("ADD"), Some(Opcode::Add));
        assert_eq!(Opcode::from_mnemonic("LdHi"), Some(Opcode::Ldhi));
        assert_eq!(Opcode::from_mnemonic("mul"), None);
    }

    #[test]
    fn long_format_opcodes_have_top_bit_set() {
        for op in Opcode::ALL {
            let top = (*op as u8) & 0x40 != 0;
            assert_eq!(
                top,
                op.format() == Format::Long,
                "format bit mismatch for {op}"
            );
        }
    }

    #[test]
    fn memory_ops_cost_two_cycles() {
        for op in Opcode::ALL {
            let is_mem = op.is_load() || op.is_store();
            assert_eq!(op.base_cycles() == 2, is_mem, "{op}");
            assert_eq!(op.data_mem_refs() == 1, is_mem, "{op}");
        }
    }

    #[test]
    fn category_counts_match_paper() {
        let count = |c: Category| Opcode::ALL.iter().filter(|o| o.category() == c).count();
        assert_eq!(count(Category::Arithmetic) + count(Category::Shift), 12);
        assert_eq!(count(Category::Load), 5);
        assert_eq!(count(Category::Store), 3);
        assert_eq!(count(Category::ControlTransfer), 7);
        assert_eq!(count(Category::Misc), 4);
    }

    #[test]
    fn window_movers() {
        assert!(Opcode::Call.moves_window());
        assert!(Opcode::Ret.moves_window());
        assert!(!Opcode::Jmp.moves_window());
        assert!(!Opcode::Add.moves_window());
    }
}
