//! The codec/assembler round-trip law, quantified over the spec table.
//!
//! For every row of the executable ISA spec ([`risc1::isa::spec::ENTRIES`])
//! and every canonical sample that row generates, three representations of
//! the instruction must agree bit for bit:
//!
//!   encode(sample) == assemble(display(sample)) == assemble(disassemble(word))
//!
//! Each leg is its own test, so a codec or printer regression is pinpointed
//! by the failing sample. With the table's own tests in `spec.rs` (Table II
//! order, one row per opcode, no row and no decoding for an unassigned
//! opcode point, every sample valid), these laws are what remains to check
//! of the table: every other opcode fact is read from it, not copied.

use risc1::asm::{assemble, disassemble_words};
use risc1::isa::spec;
use risc1::isa::Instruction;

/// Strips the `0x00000000:  ` address column the disassembler prefixes to
/// every line, leaving reassemblable source.
fn strip_addresses(listing: &str) -> String {
    listing
        .lines()
        .map(|l| {
            let text = l.split(":  ").nth(1).expect("address column present");
            format!("{text}\n")
        })
        .collect()
}

/// encode → decode is the identity on every canonical sample.
#[test]
fn every_spec_sample_survives_encode_decode() {
    for entry in &spec::ENTRIES {
        for insn in entry.canonical_samples() {
            let word = insn.encode();
            let back = Instruction::decode(word)
                .unwrap_or_else(|e| panic!("`{insn}` ({word:#010x}) fails to decode: {e}"));
            assert_eq!(back, insn, "decode(encode(`{insn}`)) is not the identity");
        }
    }
}

/// The printed form of every canonical sample reassembles to the same word.
#[test]
fn every_spec_sample_survives_display_assemble() {
    for entry in &spec::ENTRIES {
        for insn in entry.canonical_samples() {
            let word = insn.encode();
            let prog = assemble(&insn.to_string())
                .unwrap_or_else(|e| panic!("printed form `{insn}` does not assemble: {e}"));
            assert_eq!(
                prog.words,
                vec![word],
                "`{insn}` reassembles to different words"
            );
        }
    }
}

/// Disassembling every canonical sample and reassembling the listing
/// reproduces the original image.
#[test]
fn every_spec_sample_survives_disassemble_reassemble() {
    let words: Vec<u32> = spec::ENTRIES
        .iter()
        .flat_map(|e| e.canonical_samples())
        .map(|insn| insn.encode())
        .collect();
    assert!(!words.is_empty(), "the spec table generates samples");
    let listing = disassemble_words(&words, 0);
    let prog = assemble(&strip_addresses(&listing))
        .unwrap_or_else(|e| panic!("disassembly does not reassemble: {e}\n{listing}"));
    assert_eq!(
        prog.words, words,
        "round trip changed the image:\n{listing}"
    );
}
