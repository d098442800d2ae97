//! `risc1 lint --spec-audit` — the spec-table consistency checker.
//!
//! The executable spec table ([`risc1_isa::spec::ENTRIES`]) is the single
//! source of truth for per-instruction semantics. This pass sweeps all 128
//! opcode points and cross-checks every other place an instruction fact
//! lives against the table:
//!
//! * the `Opcode` metadata methods (format, category, cycle counts, memory
//!   references, window motion, transfer/delay-slot behaviour),
//! * the encoder/decoder (every canonical sample round-trips bit for bit,
//!   and every unassigned opcode point is rejected),
//! * the assembler (the printed form of every canonical sample reassembles
//!   to the same word),
//! * the simulator's prepared lines (the `base_cycles` a line is stamped
//!   with equals the table's).
//!
//! Any divergence is reported and the command exits nonzero, so CI fails
//! the moment a consumer drifts from the table. [`audit_entries`] takes the
//! table as a parameter so the test suite can perturb a row and prove the
//! audit actually notices.

use risc1_asm::assemble;
use risc1_isa::insn::Instruction;
use risc1_isa::opcode::{Category, Format, Opcode};
use risc1_isa::spec::{self, MemEffect, OperandShape, SpecEntry, Transfer, WindowMotion};

/// Number of distinct checks the audit performs per assigned opcode
/// (metadata agreement, encode/decode, assembler round-trip, prepared
/// line), used only for the summary line.
const CHECK_FAMILIES: usize = 4;

/// Runs the audit against the real table and renders the result.
///
/// # Errors
/// Returns the rendered divergence report when any cross-check fails.
pub fn run() -> Result<String, String> {
    let problems = audit_entries(&spec::ENTRIES);
    if problems.is_empty() {
        let samples: usize = spec::ENTRIES
            .iter()
            .map(|e| e.canonical_samples().len())
            .sum();
        Ok(format!(
            "spec-audit: ok — {} opcode points audited ({} assigned, {} unassigned), \
             {} canonical samples round-tripped, {} check families per opcode\n",
            spec::OPCODE_POINTS,
            spec::ENTRIES.len(),
            spec::OPCODE_POINTS - spec::ENTRIES.len(),
            samples,
            CHECK_FAMILIES,
        ))
    } else {
        let mut out = String::new();
        for p in &problems {
            out.push_str("spec-audit: ");
            out.push_str(p);
            out.push('\n');
        }
        out.push_str(&format!("spec-audit: {} divergence(s)\n", problems.len()));
        Err(out)
    }
}

/// Cross-checks `entries` (normally [`spec::ENTRIES`]) against the opcode
/// metadata, codec, assembler, and prepared lines. Returns one message per
/// divergence; empty means the tree is consistent.
pub fn audit_entries(entries: &[SpecEntry]) -> Vec<String> {
    let mut problems = Vec::new();

    if entries.len() != Opcode::ALL.len() {
        problems.push(format!(
            "table has {} rows but the ISA defines {} opcodes",
            entries.len(),
            Opcode::ALL.len()
        ));
    }
    for (row, (e, &op)) in entries.iter().zip(Opcode::ALL).enumerate() {
        if e.opcode != op {
            problems.push(format!(
                "row {row} describes {} but Table II order puts {} there",
                e.opcode.mnemonic(),
                op.mnemonic()
            ));
        }
    }

    for code in 0..spec::OPCODE_POINTS as u8 {
        match Opcode::from_code(code) {
            Some(op) => audit_assigned(entries, code, op, &mut problems),
            None => audit_unassigned(entries, code, &mut problems),
        }
    }
    problems
}

/// All checks for one assigned opcode point.
fn audit_assigned(entries: &[SpecEntry], code: u8, op: Opcode, problems: &mut Vec<String>) {
    let rows: Vec<&SpecEntry> = entries.iter().filter(|e| e.opcode == op).collect();
    let entry = match rows.as_slice() {
        [one] => *one,
        [] => {
            problems.push(format!(
                "opcode {:#04x} ({}) has no spec row",
                code,
                op.mnemonic()
            ));
            return;
        }
        many => {
            problems.push(format!(
                "opcode {:#04x} ({}) has {} spec rows",
                code,
                op.mnemonic(),
                many.len()
            ));
            return;
        }
    };
    let m = op.mnemonic();
    let mut diverge = |what: &str, table: String, elsewhere: String| {
        problems.push(format!(
            "{m}: {what} — table says {table}, elsewhere says {elsewhere}"
        ));
    };

    // --- Opcode metadata agreement -------------------------------------
    let shape_format = match entry.shape {
        OperandShape::Short | OperandShape::ShortCond => Format::Short,
        OperandShape::Long | OperandShape::LongCond => Format::Long,
    };
    if shape_format != op.format() {
        diverge(
            "format",
            format!("{:?}", entry.shape),
            format!("{:?}", op.format()),
        );
    }
    let shape_cond = matches!(
        entry.shape,
        OperandShape::ShortCond | OperandShape::LongCond
    );
    if shape_cond != op.uses_condition() {
        diverge(
            "condition field",
            format!("{:?}", entry.shape),
            format!("uses_condition = {}", op.uses_condition()),
        );
    }
    let cat_scc = matches!(op.category(), Category::Arithmetic | Category::Shift);
    if entry.scc_allowed != cat_scc {
        diverge(
            "scc legality",
            format!("scc_allowed = {}", entry.scc_allowed),
            format!("category {:?}", op.category()),
        );
    }
    if u64::from(entry.base_cycles) != op.base_cycles() {
        diverge(
            "base cycles",
            entry.base_cycles.to_string(),
            op.base_cycles().to_string(),
        );
    }
    let mem_refs = match entry.mem {
        MemEffect::None => 0,
        MemEffect::Read { .. } | MemEffect::Write { .. } => 1,
    };
    if mem_refs != op.data_mem_refs() {
        diverge(
            "data memory references",
            mem_refs.to_string(),
            op.data_mem_refs().to_string(),
        );
    }
    if matches!(entry.mem, MemEffect::Read { .. }) != op.is_load() {
        diverge(
            "load classification",
            format!("{:?}", entry.mem),
            format!("is_load = {}", op.is_load()),
        );
    }
    if matches!(entry.mem, MemEffect::Write { .. }) != op.is_store() {
        diverge(
            "store classification",
            format!("{:?}", entry.mem),
            format!("is_store = {}", op.is_store()),
        );
    }
    if (entry.window != WindowMotion::None) != op.moves_window() {
        diverge(
            "window motion",
            format!("{:?}", entry.window),
            format!("moves_window = {}", op.moves_window()),
        );
    }
    if (entry.window == WindowMotion::Push) != op.is_call() {
        diverge(
            "call classification",
            format!("{:?}", entry.window),
            format!("is_call = {}", op.is_call()),
        );
    }
    if (entry.window == WindowMotion::Pop) != op.is_ret() {
        diverge(
            "return classification",
            format!("{:?}", entry.window),
            format!("is_ret = {}", op.is_ret()),
        );
    }
    if (entry.transfer != Transfer::None) != op.is_transfer() {
        diverge(
            "transfer classification",
            format!("{:?}", entry.transfer),
            format!("is_transfer = {}", op.is_transfer()),
        );
    }
    if entry.has_delay_slot != op.has_delay_slot() {
        diverge(
            "delay slot",
            entry.has_delay_slot.to_string(),
            format!("has_delay_slot = {}", op.has_delay_slot()),
        );
    }

    // --- Canonical samples: codec, assembler, prepared line ------------
    for insn in entry.canonical_samples() {
        if insn.opcode != op {
            problems.push(format!(
                "{m}: canonical sample `{insn}` has the wrong opcode"
            ));
            continue;
        }
        if let Err(v) = spec::validate(&insn) {
            problems.push(format!(
                "{m}: canonical sample `{insn}` fails its own spec validation: {v}"
            ));
        }
        let word = insn.encode();
        match Instruction::decode(word) {
            Ok(back) if back == insn => {}
            Ok(back) => problems.push(format!(
                "{m}: `{insn}` encodes to {word:#010x} but decodes back as `{back}`"
            )),
            Err(e) => problems.push(format!(
                "{m}: `{insn}` encodes to {word:#010x} which does not decode: {e}"
            )),
        }
        match assemble(&insn.to_string()) {
            Ok(prog) if prog.words == [word] => {}
            Ok(prog) => problems.push(format!(
                "{m}: `{insn}` reassembles to {:?}, not [{word:#010x}]",
                prog.words
            )),
            Err(e) => problems.push(format!(
                "{m}: printed form `{insn}` does not reassemble: {e}"
            )),
        }
        let prepared = risc1_core::prepared_base_cycles(&insn);
        if prepared != entry.base_cycles {
            problems.push(format!(
                "{m}: a prepared line of `{insn}` has base_cycles {prepared}, table says {}",
                entry.base_cycles
            ));
        }
    }
}

/// All checks for one unassigned opcode point: nothing anywhere may claim it.
fn audit_unassigned(entries: &[SpecEntry], code: u8, problems: &mut Vec<String>) {
    if let Some(e) = entries.iter().find(|e| e.opcode as u8 == code) {
        problems.push(format!(
            "unassigned opcode {:#04x} has a spec row ({})",
            code,
            e.opcode.mnemonic()
        ));
    }
    if spec::entry_for_code(code).is_some() {
        problems.push(format!(
            "unassigned opcode {:#04x} resolves via entry_for_code",
            code
        ));
    }
    let word = u32::from(code) << 25;
    if Instruction::decode(word).is_ok() {
        problems.push(format!(
            "unassigned opcode {:#04x} decodes (word {word:#010x}) — \
             the decoder is less strict than the table",
            code
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tree_is_consistent() {
        let problems = audit_entries(&spec::ENTRIES);
        assert!(problems.is_empty(), "unexpected divergences: {problems:#?}");
        let report = run().expect("audit passes on the real table");
        assert!(report.contains("spec-audit: ok"), "{report}");
        assert!(report.contains("128 opcode points"), "{report}");
    }

    #[test]
    fn a_perturbed_cycle_count_is_caught() {
        // The negative test the acceptance criteria demand: nudge one row's
        // base_cycles and the audit must notice both disagreeing consumers
        // (the Opcode metadata and the simulator's prepared lines).
        let mut table = spec::ENTRIES;
        table[0].base_cycles += 1;
        let problems = audit_entries(&table);
        assert!(
            problems.iter().any(|p| p.contains("base cycles")),
            "metadata divergence not reported: {problems:#?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("a prepared line of")),
            "prepared-line divergence not reported: {problems:#?}"
        );
    }

    #[test]
    fn a_misordered_table_is_caught() {
        let mut table = spec::ENTRIES;
        table.swap(0, 2);
        let problems = audit_entries(&table);
        assert!(
            problems.iter().any(|p| p.contains("Table II order")),
            "{problems:#?}"
        );
    }

    #[test]
    fn a_wrong_delay_slot_claim_is_caught() {
        let mut table = spec::ENTRIES;
        let jmp = table
            .iter_mut()
            .find(|e| e.opcode == Opcode::Jmp)
            .expect("jmp row");
        jmp.has_delay_slot = false;
        let problems = audit_entries(&table);
        assert!(
            problems.iter().any(|p| p.contains("delay slot")),
            "{problems:#?}"
        );
    }
}
