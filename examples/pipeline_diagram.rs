//! Visualise the overlapped pipeline: delay slots, memory cycles and (with
//! forwarding disabled) interlock bubbles.
//!
//! ```text
//! cargo run --example pipeline_diagram
//! ```

use risc1::core::{pipeline, Cpu, Program, SimConfig};
use risc1::isa::{Cond, Instruction, Opcode, Reg, Short2};

fn main() {
    let imm = |v: i32| Short2::imm(v).unwrap();
    let prog = Program::from_instructions(vec![
        Instruction::ldhi(Reg::R16, 1),
        Instruction::reg(Opcode::Ldl, Reg::R17, Reg::R16, Short2::ZERO),
        Instruction::reg(Opcode::Add, Reg::R18, Reg::R17, imm(1)),
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R18, imm(1)),
        Instruction::jmpr(Cond::Eq, 12),
        Instruction::reg(Opcode::Add, Reg::R19, Reg::R0, imm(7)), // delay slot
        Instruction::reg(Opcode::Add, Reg::R20, Reg::R0, imm(99)), // skipped
        Instruction::ret(Reg::R0, Short2::ZERO),
        Instruction::nop(),
    ]);

    for forwarding in [true, false] {
        let cfg = SimConfig {
            forwarding,
            ..SimConfig::default()
        };
        let mut cpu = Cpu::new(cfg);
        cpu.load_program(&prog).unwrap();
        cpu.record_retired();
        cpu.run().unwrap();
        let s = pipeline::summarize(cpu.retired());
        println!(
            "forwarding {}:  ipc {:.2}, bubbles {}\n",
            if forwarding { "on (RISC I)" } else { "off" },
            s.ipc,
            s.bubble_cycles
        );
        println!("{}", pipeline::render_timing(cpu.retired(), 16));
    }
    println!("F = fetch, E = execute, M = memory cycle, b = interlock bubble");
}
