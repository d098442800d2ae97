//! Pipeline-timing views over an execution trace.
//!
//! RISC I overlaps instruction fetch with execution: while instruction *i*
//! occupies the datapath, instruction *i+1* is being fetched. That overlap
//! is precisely why every transfer of control has a delay slot (the next
//! instruction is already in flight) and why loads/stores cost a second
//! cycle (the single memory port is busy with data).
//!
//! This module renders the rows of a [`crate::Cpu`]'s retirement recorder
//! ([`crate::Cpu::record_retired`], read back with
//! [`crate::Cpu::retired`]) as the classic timing diagram the paper uses to
//! explain delayed jumps (experiment E11), and provides summary figures.

use crate::cpu::Retired;
use std::fmt::Write as _;

/// Summary occupancy figures for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSummary {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Instructions per cycle (the paper's goal: as close to 1 as memory
    /// instructions allow).
    pub ipc: f64,
    /// Cycles lost to bubbles (interlocks / suspended-pipeline penalties).
    pub bubble_cycles: u64,
}

/// Computes summary figures from recorded rows.
pub fn summarize(trace: &[Retired]) -> PipelineSummary {
    let instructions = trace.len() as u64;
    let cycles: u64 = trace.iter().map(|r| r.cycles).sum();
    let bubble_cycles: u64 = trace
        .iter()
        .map(|r| r.cycles.saturating_sub(r.insn.opcode.base_cycles()))
        .sum();
    PipelineSummary {
        instructions,
        cycles,
        ipc: if cycles == 0 {
            0.0
        } else {
            instructions as f64 / cycles as f64
        },
        bubble_cycles,
    }
}

/// Renders a cycle-by-cycle timing diagram of (a prefix of) recorded rows.
///
/// Columns are cycles; each row is one retired instruction showing its
/// overlapped fetch (`F`, one cycle before execute), any interlock bubbles
/// (`b`), execute (`E`) and the extra memory cycle of loads/stores (`M`).
///
/// ```
/// use risc1_core::{pipeline, Cpu, Program, SimConfig};
/// use risc1_isa::{Instruction, Reg, Short2};
///
/// let mut cpu = Cpu::new(SimConfig::default());
/// cpu.load_program(&Program::from_instructions(vec![
///     Instruction::nop(),
///     Instruction::ret(Reg::R25, Short2::ZERO),
///     Instruction::nop(),
/// ])).unwrap();
/// cpu.record_retired();
/// cpu.run().unwrap();
/// let diagram = pipeline::render_timing(cpu.retired(), 10);
/// assert!(diagram.contains('E'));
/// ```
pub fn render_timing(trace: &[Retired], max_rows: usize) -> String {
    let rows = &trace[..trace.len().min(max_rows)];
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    let base = rows[0].start_cycle.saturating_sub(1);
    let end = rows
        .iter()
        .map(|r| r.start_cycle + r.cycles)
        .max()
        .unwrap_or(base);
    let width = (end - base) as usize;

    // Header: cycle numbers mod 10.
    let label_w = 34;
    let _ = write!(out, "{:label_w$} ", "cycle:");
    for c in 0..width {
        let _ = write!(out, "{}", (base as usize + c) % 10);
    }
    out.push('\n');

    for r in rows {
        let label = format!(
            "{:#06x} {}{}",
            r.pc,
            r.insn,
            if r.in_delay_slot { "  <slot>" } else { "" }
        );
        let mut line = vec![b' '; width];
        let fetch = r.start_cycle.saturating_sub(1);
        if fetch >= base {
            line[(fetch - base) as usize] = b'F';
        }
        let bubbles = r.cycles.saturating_sub(r.insn.opcode.base_cycles());
        let mut c = r.start_cycle - base;
        for _ in 0..bubbles {
            line[c as usize] = b'b';
            c += 1;
        }
        line[c as usize] = b'E';
        c += 1;
        for _ in 1..r.insn.opcode.base_cycles() {
            line[c as usize] = b'M';
            c += 1;
        }
        let _ = writeln!(
            out,
            "{:label_w$} {}",
            truncate(&label, label_w),
            String::from_utf8_lossy(&line)
        );
    }
    out
}

fn truncate(s: &str, w: usize) -> String {
    if s.len() <= w {
        s.to_string()
    } else {
        format!("{}…", &s[..w.saturating_sub(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cpu, Program, SimConfig};
    use risc1_isa::{Instruction, Opcode, Reg, Short2};

    fn traced_run(insns: Vec<Instruction>, forwarding: bool) -> Vec<Retired> {
        let cfg = SimConfig {
            forwarding,
            ..SimConfig::default()
        };
        let mut cpu = Cpu::new(cfg);
        cpu.load_program(&Program::from_instructions(insns))
            .unwrap();
        cpu.record_retired();
        cpu.run().unwrap();
        cpu.retired().to_vec()
    }

    fn halt_seq() -> Vec<Instruction> {
        vec![Instruction::ret(Reg::R0, Short2::ZERO), Instruction::nop()]
    }

    #[test]
    fn summary_counts_instructions_and_cycles() {
        let mut p = vec![
            Instruction::nop(),
            Instruction::ldhi(Reg::R16, 1),
            Instruction::reg(Opcode::Stl, Reg::R0, Reg::R16, Short2::ZERO),
        ];
        p.extend(halt_seq());
        let t = traced_run(p, true);
        let s = summarize(&t);
        assert_eq!(s.instructions, 4); // halting ret retires, its slot does not
        assert_eq!(s.cycles, 1 + 1 + 2 + 1, "store costs the extra M cycle");
        assert_eq!(s.bubble_cycles, 0);
        assert!(s.ipc > 0.7 && s.ipc <= 1.0);
    }

    #[test]
    fn diagram_shows_stages_in_order() {
        let mut p = vec![
            Instruction::ldhi(Reg::R16, 1),
            Instruction::reg(Opcode::Ldl, Reg::R17, Reg::R16, Short2::ZERO),
        ];
        p.extend(halt_seq());
        let t = traced_run(p, true);
        let d = render_timing(&t, 16);
        let lines: Vec<&str> = d.lines().collect();
        assert!(lines.len() >= 4);
        assert!(lines[1].contains('E'));
        assert!(
            lines[2].contains("EM"),
            "load occupies execute + memory: {d}"
        );
    }

    #[test]
    fn diagram_marks_interlock_bubbles() {
        let mut p = vec![
            Instruction::ldhi(Reg::R16, 1),
            Instruction::reg(Opcode::Add, Reg::R17, Reg::R16, Short2::ZERO), // RAW on r16
        ];
        p.extend(halt_seq());
        let t = traced_run(p, false); // forwarding off
        let d = render_timing(&t, 16);
        assert!(d.contains('b'), "expected a bubble in:\n{d}");
        let s = summarize(&t);
        assert_eq!(s.bubble_cycles, 1);
    }

    #[test]
    fn empty_trace_renders_empty() {
        assert!(render_timing(&[], 5).is_empty());
        let s = summarize(&[]);
        assert_eq!(s.instructions, 0);
        assert_eq!(s.ipc, 0.0);
    }

    #[test]
    fn max_rows_limits_output() {
        let mut p = vec![Instruction::nop(); 10];
        p.extend(halt_seq());
        let t = traced_run(p, true);
        let d = render_timing(&t, 3);
        assert_eq!(d.lines().count(), 4, "header + 3 rows");
    }
}
