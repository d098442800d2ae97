//! The retirement recorder, pinned to rows recorded before it existed.
//!
//! `Cpu::record_retired` arms an observer that notes the first
//! `RECORDER_ROWS` instructions the machine retires: pc, instruction word,
//! start cycle, cycles taken and whether it sat in a delay slot. Those rows
//! are what `risc1 trace` and E11 draw. Before the recorder, the same rows
//! came from a retirement trace kept in machine state, switched on in the
//! configuration. The digests below were recorded from that trace, over
//! its first 64 rows, for five programs whose first 64 retirements hold
//! the cases where a row is easiest to get wrong:
//!
//! 1. window spills and fills (a recursion on a 2-window file);
//! 2. the step that takes an external interrupt, which also executes the
//!    handler's first instruction;
//! 3. a fault vectored into a handler;
//! 4. a useful delay slot after a taken branch;
//! 5. load-use bubbles with forwarding off.
//!
//! Each program runs under both branch models, and every engine tier must
//! reproduce every digest.

use risc1::asm::assemble;
use risc1::core::cpu::RECORDER_ROWS;
use risc1::core::snapshot::Fnv64;
use risc1::core::{BranchModel, Cpu, ExecEngine, Program, SimConfig, TrapKind};

/// `f(n) = n + f(n - 1)`, `f(0) = 0`: each level is one window.
const SPILL_FILL: &str = "
        .entry main
    f:      sub   r0, r26, #0 {scc}
            jmpr  le, base
            nop
            sub   r10, r26, #1
            callr r25, f
            nop
            add   r26, r26, r10
            ret   r25, #8
            nop
    base:   add   r26, r0, #0
            ret   r25, #8
            nop
    main:   add   r10, r26, #0
            callr r25, f
            nop
            add   r26, r10, #0
            halt
            nop
";

/// The busy loop of `tests/interrupts.rs`, whose handler bumps a counter.
const INTERRUPT: &str = "
        .entry main
        handler:
            ldhi  r16, #1
            ldl   r17, r16, #0
            add   r17, r17, #1
            stl   r17, r16, #0
            reti  r25, #0
            nop
        main:
            add   r16, r0, #0
            add   r17, r0, #1
            li    r18, #10000
        spin:
            add   r16, r16, r17
            sub   r0, r16, r18 {scc}
            jmpr  ne, spin
            nop
            add   r26, r16, #0
            halt
            nop
";

/// A misaligned load, skipped by its handler.
const VECTORED_FAULT: &str = "
        .entry main
    handler: reti r25, #4
             nop
    main:    ldhi r16, #1
             add  r18, r0, #3
             ldl  r17, r16, #2
             add  r26, r17, r18
             halt
             nop
";

/// E11's kernel: a taken branch whose delay slot does useful work.
const DELAY_SLOT: &str = "
        .entry main
    main:   ldhi  r16, #1
            ldl   r17, r16, #0
            add   r18, r17, #1
            sub   r0, r18, #1 {scc}
            jmpr  eq, skip
            add   r19, r0, #7
            add   r20, r0, #99
    skip:   add   r26, r19, #0
            halt
            nop
";

/// Loads whose results are used at once, one of them across a transfer.
const LOAD_USE: &str = "
        .entry main
    main:   ldhi  r16, #1
            add   r17, r0, #5
            stl   r17, r16, #0
            ldl   r18, r16, #0
            add   r19, r18, #1
            jmpr  alw, tail
            ldl   r20, r16, #0
    tail:   add   r20, r20, r19
            add   r26, r20, r20
            halt
            nop
";

fn run_to_halt(cpu: &mut Cpu, _: &Program) {
    cpu.run().expect("halts");
}

fn interrupt_mid_loop(cpu: &mut Cpu, prog: &Program) {
    cpu.set_interrupt_handler(cpu.config().code_base + prog.symbols["handler"]);
    cpu.step_n(20).expect("runs");
    cpu.raise_interrupt();
    cpu.run().expect("halts");
}

fn skip_faults(cpu: &mut Cpu, prog: &Program) {
    cpu.set_trap_handler(
        TrapKind::Misaligned,
        cpu.config().code_base + prog.symbols["handler"],
    );
    cpu.run().expect("halts");
}

struct Case {
    name: &'static str,
    src: &'static str,
    windows: usize,
    forwarding: bool,
    args: &'static [i32],
    drive: fn(&mut Cpu, &Program),
    /// Per branch model (delayed, suspended): rows held and their digest.
    pins: [(usize, u64); 2],
}

const CASES: [Case; 5] = [
    Case {
        name: "spill_fill",
        src: SPILL_FILL,
        windows: 2,
        forwarding: true,
        args: &[3],
        drive: run_to_halt,
        pins: [(38, 4239240420576955279), (38, 10531750930725591357)],
    },
    Case {
        name: "interrupt",
        src: INTERRUPT,
        windows: 8,
        forwarding: true,
        args: &[],
        drive: interrupt_mid_loop,
        pins: [(64, 9943095388699543674), (64, 1829754328920970176)],
    },
    Case {
        name: "vectored_fault",
        src: VECTORED_FAULT,
        windows: 8,
        forwarding: true,
        args: &[],
        drive: skip_faults,
        pins: [(6, 2866565720184301969), (6, 10414715291459805171)],
    },
    Case {
        name: "delay_slot",
        src: DELAY_SLOT,
        windows: 8,
        forwarding: true,
        args: &[],
        drive: run_to_halt,
        pins: [(8, 11684635373311920572), (8, 11230111114132857488)],
    },
    Case {
        name: "load_use",
        src: LOAD_USE,
        windows: 8,
        forwarding: false,
        args: &[],
        drive: run_to_halt,
        pins: [(10, 15953893766667926587), (10, 3855333414806338030)],
    },
];

const ENGINES: [ExecEngine; 3] = [
    ExecEngine::Uncached,
    ExecEngine::Superblock,
    ExecEngine::Trace,
];

const MODELS: [BranchModel; 2] = [BranchModel::Delayed, BranchModel::Suspended];

/// Runs `case` with the recorder armed, returning the machine and the
/// program it ran.
fn recorded(case: &Case, branch_model: BranchModel, engine: ExecEngine) -> (Cpu, Program) {
    let prog = assemble(case.src).expect("assembles");
    let mut cpu = Cpu::new(SimConfig {
        windows: case.windows,
        forwarding: case.forwarding,
        branch_model,
        engine,
        ..SimConfig::default()
    });
    cpu.load_program(&prog).expect("fits");
    cpu.set_args(case.args);
    cpu.record_retired();
    (case.drive)(&mut cpu, &prog);
    (cpu, prog)
}

/// FNV-1a over every row's `(pc, word, start_cycle, cycles, in_delay_slot)`.
fn digest(cpu: &Cpu) -> u64 {
    let mut h = Fnv64::new();
    for r in cpu.retired() {
        h.write_u64(u64::from(r.pc));
        h.write_u64(u64::from(r.insn.encode()));
        h.write_u64(r.start_cycle);
        h.write_u64(r.cycles);
        h.write_u8(u8::from(r.in_delay_slot));
    }
    h.finish()
}

#[test]
fn every_tier_records_the_rows_recorded_before() {
    for case in &CASES {
        for (model, want) in MODELS.into_iter().zip(case.pins) {
            for engine in ENGINES {
                let (cpu, _) = recorded(case, model, engine);
                let got = (cpu.retired().len(), digest(&cpu));
                assert_eq!(got, want, "{} under {model:?} on {engine:?}", case.name);
            }
        }
    }
}

/// The rows hold what the pins claim they hold: the spills and fills, the
/// interrupt's entry step, the vectored fault, the delay slot and the
/// bubbles all fall inside the first [`RECORDER_ROWS`] retirements.
#[test]
fn the_pinned_rows_cover_their_cases() {
    let by_name = |name: &str| CASES.iter().find(|c| c.name == name).expect("case");
    let (cpu, _) = recorded(
        by_name("spill_fill"),
        BranchModel::Delayed,
        ExecEngine::Trace,
    );
    let s = cpu.stats();
    assert_eq!(cpu.retired().len() as u64, s.instructions);
    assert!(s.window_overflows > 0 && s.window_underflows > 0);

    let (cpu, prog) = recorded(
        by_name("interrupt"),
        BranchModel::Delayed,
        ExecEngine::Trace,
    );
    let handler = cpu.config().code_base + prog.symbols["handler"];
    let entry = cpu.retired().iter().position(|r| r.pc == handler);
    let entry = entry.expect("the handler's first instruction is recorded");
    let before = cpu.retired()[entry - 1];
    assert!(
        cpu.retired()[entry].start_cycle > before.start_cycle + before.cycles,
        "the entry step charges the interrupt before the handler's first instruction"
    );
    assert_eq!(cpu.retired().len(), RECORDER_ROWS);
    assert!(cpu.stats().instructions > RECORDER_ROWS as u64);

    let (cpu, _) = recorded(
        by_name("vectored_fault"),
        BranchModel::Delayed,
        ExecEngine::Trace,
    );
    assert_eq!(cpu.stats().trap_entries, 1);
    assert_eq!(cpu.result(), 3, "the faulting load was skipped");

    let (cpu, _) = recorded(
        by_name("delay_slot"),
        BranchModel::Delayed,
        ExecEngine::Trace,
    );
    assert!(cpu.retired().iter().any(|r| r.in_delay_slot));
    assert_eq!(cpu.result(), 7);

    let (cpu, _) = recorded(by_name("load_use"), BranchModel::Delayed, ExecEngine::Trace);
    assert!(cpu
        .retired()
        .iter()
        .any(|r| r.cycles > r.insn.opcode.base_cycles()));
}

/// The recorder observes the machine without being part of it: a recorded
/// run ends in the same snapshot as an unrecorded one, and a restore
/// leaves the recorder's rows alone.
#[test]
fn the_recorder_is_no_part_of_the_machine() {
    for case in &CASES {
        let (mut recorded_cpu, prog) = recorded(case, BranchModel::Delayed, ExecEngine::Trace);
        let mut plain = Cpu::new(recorded_cpu.config().clone());
        plain.load_program(&prog).expect("fits");
        let reset = plain.snapshot();
        plain.set_args(case.args);
        (case.drive)(&mut plain, &prog);
        let snap = recorded_cpu.snapshot();
        assert_eq!(snap.to_json(), plain.snapshot().to_json(), "{}", case.name);

        let rows = recorded_cpu.retired().to_vec();
        recorded_cpu.restore(&reset).expect("restores");
        assert_eq!(recorded_cpu.retired(), &rows[..], "{}", case.name);
        assert!(plain.retired().is_empty(), "{}", case.name);
    }
}
