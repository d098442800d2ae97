//! Loadable program images.
//!
//! A [`Program`] is the output of the assembler or the IR compiler: encoded
//! instruction words, optional data images, an entry offset, and a symbol
//! table for diagnostics.

use crate::json::{num, or, List, Pair};
use risc1_isa::{Instruction, INSN_BYTES};
use std::collections::HashMap;

/// A RISC I program image ready to be loaded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Encoded instruction words, in address order from the code base.
    pub words: Vec<u32>,
    /// Byte offset of the entry point within the code.
    pub entry_offset: u32,
    /// Data images: (absolute byte address, bytes).
    pub data: Vec<(u32, Vec<u8>)>,
    /// Symbol table: name → byte offset within the code.
    pub symbols: HashMap<String, u32>,
}

impl Program {
    /// A program consisting of the given instructions, entry at the first.
    pub fn from_instructions(insns: Vec<Instruction>) -> Program {
        Program {
            words: insns.iter().map(Instruction::encode).collect(),
            ..Program::default()
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Static code size in bytes (the quantity compared in the paper's
    /// code-size table, E7).
    pub fn code_bytes(&self) -> u64 {
        self.words.len() as u64 * INSN_BYTES as u64
    }

    /// The code as a little-endian byte image.
    pub fn code_image(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 4);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Adds a data image at an absolute address.
    pub fn add_data(&mut self, addr: u32, bytes: Vec<u8>) {
        self.data.push((addr, bytes));
    }

    /// Decodes the instruction at byte offset `off` (for disassembly and
    /// diagnostics).
    pub fn instruction_at(&self, off: u32) -> Option<Instruction> {
        let idx = (off / INSN_BYTES) as usize;
        self.words
            .get(idx)
            .and_then(|w| Instruction::decode(*w).ok())
    }

    /// The symbol whose offset is closest at or below `off`, if any — used
    /// to label trace output.
    pub fn symbol_for(&self, off: u32) -> Option<(&str, u32)> {
        self.symbols
            .iter()
            .filter(|(_, &s)| s <= off)
            .max_by_key(|(_, &s)| s)
            .map(|(name, &s)| (name.as_str(), off - s))
    }
}

// The image as one JSON object, as journals, serve submit requests and the
// serve write-ahead log all carry a program. The symbol table is for
// diagnostics: it is not written and reads back empty.
crate::record! {
    Program {
        "entry_offset" => entry_offset: num(0..=u32::MAX),
        "words" => words: List(num(0..=u32::MAX)),
        "data" => data: or(
            List(Pair(("addr", num(0..=u32::MAX)), ("bytes", List(num(0..=u8::MAX))))),
            Vec::new,
        ),
    } ..Program::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use risc1_isa::{Opcode, Reg, Short2};

    #[test]
    fn from_instructions_roundtrip() {
        let insns = vec![
            Instruction::reg(Opcode::Add, Reg::R1, Reg::R2, Short2::ZERO),
            Instruction::nop(),
        ];
        let p = Program::from_instructions(insns.clone());
        assert_eq!(p.len(), 2);
        assert_eq!(p.code_bytes(), 8);
        assert_eq!(p.instruction_at(0), Some(insns[0]));
        assert_eq!(p.instruction_at(4), Some(insns[1]));
        assert_eq!(p.instruction_at(8), None);
    }

    #[test]
    fn code_image_is_little_endian() {
        let p = Program {
            words: vec![0x0403_0201],
            ..Program::default()
        };
        assert_eq!(p.code_image(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn symbol_lookup_picks_enclosing() {
        let mut p = Program::default();
        p.symbols.insert("f".into(), 0);
        p.symbols.insert("g".into(), 16);
        assert_eq!(p.symbol_for(4), Some(("f", 4)));
        assert_eq!(p.symbol_for(16), Some(("g", 0)));
        assert_eq!(p.symbol_for(100), Some(("g", 84)));
    }
}
