//! E11 — the pipeline-timing figure: why the delayed jump exists.
//!
//! Renders the cycle-by-cycle occupancy of a small kernel (a compare, a
//! taken branch whose delay slot holds useful work, a load feeding its
//! successor) under the real machine, and the same kernel without
//! forwarding to make the interlock bubble visible — the two diagrams the
//! paper uses to justify its pipeline choices.

use risc1_core::{pipeline, Cpu, Program, SimConfig};
use risc1_isa::{Cond, Instruction, Opcode, Reg, Short2};

fn kernel() -> Vec<Instruction> {
    let imm = |v: i32| Short2::imm(v).unwrap();
    vec![
        Instruction::ldhi(Reg::R16, 1), // r16 := 0x2000
        Instruction::reg(Opcode::Ldl, Reg::R17, Reg::R16, Short2::ZERO), // load
        Instruction::reg(Opcode::Add, Reg::R18, Reg::R17, imm(1)), // load-use
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R18, imm(1)), // compare
        Instruction::jmpr(Cond::Eq, 12), // taken branch
        Instruction::reg(Opcode::Add, Reg::R19, Reg::R0, imm(7)), // delay slot: useful
        Instruction::reg(Opcode::Add, Reg::R20, Reg::R0, imm(99)), // skipped
        Instruction::ret(Reg::R0, Short2::ZERO), // halt
        Instruction::nop(),
    ]
}

/// Runs the kernel and returns `(diagram, summary)` for a configuration.
pub fn compute(forwarding: bool) -> (String, pipeline::PipelineSummary) {
    let cfg = SimConfig {
        forwarding,
        ..SimConfig::default()
    };
    let mut cpu = Cpu::new(cfg);
    cpu.load_program(&Program::from_instructions(kernel()))
        .expect("kernel fits");
    cpu.record_retired();
    cpu.run().expect("kernel halts");
    (
        pipeline::render_timing(cpu.retired(), 12),
        pipeline::summarize(cpu.retired()),
    )
}

/// Renders both figures.
pub fn run() -> String {
    let (with_fwd, s1) = compute(true);
    let (without, s2) = compute(false);
    format!(
        "E11 — pipeline timing (F = fetch, E = execute, M = memory cycle, b = bubble)\n\n\
         with internal forwarding (the RISC I datapath):\n{with_fwd}\n\
         ipc {:.2}, bubbles {}\n\n\
         without forwarding (interlock on register reuse):\n{without}\n\
         ipc {:.2}, bubbles {}\n\n\
         The delay slot after the taken branch executes useful work (r19),\n\
         and the skipped instruction (r20) never enters the datapath.\n",
        s1.ipc, s1.bubble_cycles, s2.ipc, s2.bubble_cycles
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_removes_all_bubbles() {
        let (_, s) = compute(true);
        assert_eq!(s.bubble_cycles, 0);
        assert!(s.ipc > 0.7);
    }

    #[test]
    fn interlocks_appear_without_forwarding() {
        let (d, s) = compute(false);
        assert!(
            s.bubble_cycles >= 2,
            "load-use + reuse chains: {}",
            s.bubble_cycles
        );
        assert!(d.contains('b'));
    }

    #[test]
    fn delay_slot_ran_and_skip_did_not() {
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&Program::from_instructions(kernel()))
            .unwrap();
        cpu.run().unwrap();
        assert_eq!(cpu.reg(Reg::R19), 7, "delay slot executed");
        assert_eq!(cpu.reg(Reg::R20), 0, "branch shadow skipped");
    }
}
