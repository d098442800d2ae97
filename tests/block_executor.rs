//! The block executor against the one-step reference.
//!
//! The block tiers run a block's ops for their effects alone and settle
//! the statistics, `pc`, `last_pc` and the in-flight target once per
//! block; an op that leaves a block early replays what committed. Each
//! hand-assembled program below runs to its end under the superblock and
//! trace tiers with `run()`, and one `step()` at a time under the uncached
//! tier, under both branch models, and every run must end alike: the same
//! error, if any, the same `ExecStats` and the same snapshot checksum,
//! which covers `pc`, `last_pc`, the in-flight target, the registers and
//! memory. The programs cover every op kind the executor runs, each way a
//! block is left early (a faulting access, spill or fill, a store or spill
//! that dirties code, a return that halts) and each way one completes (a
//! taken or untaken transfer with its delay slot, a transfer whose slot
//! was left out, a page boundary), and the ops no block holds, which end
//! a block and run on the one-step path.

use risc1::asm::assemble;
use risc1::core::{
    BranchModel, Cpu, ExecEngine, ExecError, ExecStats, Halt, MemError, Program, SimConfig,
    TrapKind,
};
use risc1::isa::{Instruction, Opcode, Reg, Short2};

/// How a run ended.
#[derive(Debug, PartialEq)]
struct End {
    end: Result<(), ExecError>,
    stats: ExecStats,
    checksum: u64,
    pc: u32,
    result: i32,
}

/// A program with the machine it runs on: code at the code base, code
/// images elsewhere, and trap handlers.
struct Case {
    prog: Program,
    cfg: SimConfig,
    handlers: Vec<(TrapKind, u32)>,
}

impl Case {
    /// `main`, assembled, on a default machine.
    fn new(main: &str) -> Case {
        Case {
            prog: assemble(main).expect("assembles"),
            cfg: SimConfig::default(),
            handlers: Vec::new(),
        }
    }

    /// Adds `code`, assembled, at `addr`.
    fn with_code(mut self, addr: u32, code: &str) -> Case {
        let image = assemble(code).expect("assembles").code_image();
        self.prog.data.push((addr, image));
        self
    }

    /// Adds `code` at `addr` as the handler of `kind`.
    fn with_handler(self, kind: TrapKind, addr: u32, code: &str) -> Case {
        let mut case = self.with_code(addr, code);
        case.handlers.push((kind, addr));
        case
    }

    /// Runs on a machine configured as `cfg`, under `engine` and
    /// `branch_model`, with `arg` in r26.
    fn run(&self, engine: ExecEngine, branch_model: BranchModel, arg: i32) -> End {
        let mut cpu = Cpu::new(SimConfig {
            engine,
            branch_model,
            ..self.cfg.clone()
        });
        cpu.load_program(&self.prog).expect("program fits memory");
        cpu.set_args(&[arg]);
        for &(kind, addr) in &self.handlers {
            cpu.set_trap_handler(kind, addr);
        }
        let end = if engine == ExecEngine::Uncached {
            loop {
                match cpu.step() {
                    Ok(Halt::Running) => {}
                    Ok(Halt::Returned) => break Ok(()),
                    Err(e) => break Err(e),
                }
            }
        } else {
            cpu.run()
        };
        End {
            end,
            stats: cpu.stats(),
            checksum: cpu.snapshot().checksum(),
            pc: cpu.pc(),
            result: cpu.result(),
        }
    }

    /// Runs under every block tier and both branch models, and checks each
    /// run against the one-step uncached run. Returns the superblock
    /// tier's delayed-model run.
    fn agrees(&self, arg: i32) -> End {
        let mut first = None;
        for branch_model in [BranchModel::Delayed, BranchModel::Suspended] {
            let reference = self.run(ExecEngine::Uncached, branch_model, arg);
            for engine in [ExecEngine::Superblock, ExecEngine::Trace] {
                let got = self.run(engine, branch_model, arg);
                assert_eq!(got, reference, "{engine:?}, {branch_model:?}");
                assert!(got.stats.block_instructions > 0, "{engine:?}: no block ran");
                first.get_or_insert(got);
            }
        }
        first.expect("ran")
    }
}

/// A handler that skips the faulting instruction.
const SKIP: &str = "reti r25, #4\nnop\n";

#[test]
fn every_op_kind_the_executor_runs_matches_the_one_step_path() {
    // Stores and loads of every width, CALLR into a leaf, CALL and JMP
    // through registers to code at 0x3000 and 0x3100, an untaken JMPR
    // with its slot, then three passes of every ALU opcode with and
    // without `scc`, long enough to cross a page, and a halt.
    let main = "
            ldhi  r16, #1
            add   r17, r0, #-77
            stl   r17, r16, #0
            sts   r17, r16, #4
            stb   r17, r16, #8
            ldl   r18, r16, #0
            ldsu  r19, r16, #4
            ldss  r20, r16, #4
            ldbu  r21, r16, #8
            ldbs  r22, r16, #8
            add   r26, r18, r19
            add   r26, r26, r20
            add   r26, r26, r21
            add   r26, r26, r22
            add   r10, r0, #5
            callr r25, twice
            nop
            add   r26, r26, r10
            li    r9, #0x3000
            call  r25, r9, #0
            add   r10, r26, #0
            add   r26, r26, r10
            sub   r0, r26, #0 {scc}
            jmpr  eq, skip
            add   r23, r0, #1
            li    r9, #0x3100
            jmp   alw, r9, #0
            nop
    skip:   halt
            nop
    twice:  add   r26, r26, r26
            ret   r25, #8
            nop
    ";
    let inc = "
            add   r26, r26, #3
            ret   r25, #8
            nop
    ";
    let ops = [
        "add", "addc", "sub", "subc", "subr", "subcr", "and", "or", "xor", "sll", "srl", "sra",
    ];
    let mut sweep = String::from("add r17, r0, #3\nloop:\n");
    for (i, op) in ops.iter().enumerate() {
        sweep += &format!(
            "{op} r20, r26, r19\n{op} r21, r20, #{} {{scc}}\nadd r26, r26, r21\n",
            i + 1
        );
    }
    sweep += "
            sub   r17, r17, #1 {scc}
            jmpr  ne, loop
            add   r24, r24, #1
            jmpr  gt, loop
            nop
            halt
            nop
    ";
    let case = Case::new(main)
        .with_code(0x3000, inc)
        .with_code(0x3100, &sweep);
    let end = case.agrees(4);
    assert_eq!(end.end, Ok(()));
    let s = end.stats;
    assert_eq!((s.calls, s.rets), (2, 2));
    assert_eq!((s.data_reads, s.data_writes), (5, 3));
    assert_eq!(s.block_instructions, s.instructions, "every op in a block");
}

#[test]
fn a_load_fault_mid_block_stops_or_vectors_as_the_one_step_path() {
    let main = "
            ldhi  r16, #1
            add   r17, r0, #1
            add   r18, r16, #2
            ldl   r19, r18, #0
            add   r20, r0, #9
            add   r26, r26, r20
            halt
            nop
    ";
    let end = Case::new(main).agrees(1);
    let err = MemError::Misaligned {
        addr: 0x2002,
        width: 4,
    };
    assert_eq!(end.end, Err(ExecError::Mem { pc: 0x100c, err }));
    assert_eq!(end.pc, 0x100c);
    let end = Case::new(main)
        .with_handler(TrapKind::Misaligned, 0x200, SKIP)
        .agrees(1);
    assert_eq!((end.end, end.result), (Ok(()), 10));
    assert_eq!(end.stats.trap_entries, 1);
}

/// A program whose delay slot holds `slot`, an access through r2 =
/// 0x2002, misaligned, after a transfer `jump` to `target` over a poison
/// op; a handler records the restart PC in r4, repairs r2 and re-executes.
fn faulting_slot(compare: &str, jump: &str, slot: &str) -> Case {
    let main = format!(
        "
            ldhi  r2, #1
            add   r2, r2, #2
            {compare}
            {jump} target
            {slot}
            add   r26, r26, #100
    target: add   r26, r26, #1
            halt
            nop
    "
    );
    let fix = "
            add   r4, r25, #0
            sub   r2, r2, #2
            reti  r25, #0
            nop
    ";
    Case::new(&main).with_handler(TrapKind::Misaligned, 0x200, fix)
}

#[test]
fn a_fault_in_a_delay_slot_restarts_at_its_transfer_only_if_it_was_taken() {
    for slot in ["ldl r17, r2, #0", "stl r17, r2, #0"] {
        // Taken: the restart is the transfer, which runs again and skips
        // the poison.
        let case = faulting_slot("sub r0, r0, #0 {scc}", "jmpr eq,", slot);
        let end = case.agrees(0);
        assert_eq!((end.end, end.result), (Ok(()), 1), "{slot}");
        let mut cpu_r4 = Cpu::new(SimConfig::default());
        cpu_r4.load_program(&case.prog).unwrap();
        cpu_r4.set_trap_handler(TrapKind::Misaligned, 0x200);
        cpu_r4.run().unwrap();
        assert_eq!(cpu_r4.reg(Reg::R4), 0x100c, "{slot}: restart");
        // Untaken: the restart is the slot, and the poison runs.
        let end = faulting_slot("sub r0, r0, #1 {scc}", "jmpr eq,", slot).agrees(0);
        assert_eq!((end.end, end.result), (Ok(()), 101), "{slot}");
        // Unhandled, the fault stops every tier in the same state.
        let mut case = faulting_slot("sub r0, r0, #0 {scc}", "jmpr eq,", slot);
        case.handlers.clear();
        let end = case.agrees(0);
        assert!(matches!(end.end, Err(ExecError::Mem { pc: 0x1010, .. })));
    }
}

/// `sum(n)` by recursion `depth + 1` calls deep, on a machine configured
/// as `cfg`.
fn recursion(depth: i32, cfg: SimConfig) -> Case {
    let main = format!(
        "
            add   r10, r0, #{depth}
            callr r25, sum
            nop
            add   r26, r0, r10
            halt
            nop
    sum:    sub   r0, r26, #0 {{scc}}
            jmpr  eq, base
            nop
            sub   r10, r26, #1
            callr r25, sum
            nop
            add   r26, r26, r10
    base:   ret   r25, #8
            nop
    "
    );
    Case {
        cfg,
        ..Case::new(&main)
    }
}

#[test]
fn a_call_whose_spill_faults_stops_or_vectors_as_the_one_step_path() {
    // A misaligned save stack: the spill's push faults, fatally, naming
    // the call.
    let cfg = SimConfig {
        window_stack_top: 0xf_0002,
        ..SimConfig::default()
    };
    let end = recursion(12, cfg).agrees(0);
    let err = MemError::Misaligned {
        addr: 0xe_fffe,
        width: 4,
    };
    assert_eq!(end.end, Err(ExecError::Mem { pc: 0x1028, err }));
    // A save stack with room for four frames: the fifth spill is refused,
    // and the handler skips the call.
    let cfg = SimConfig {
        windows: 2,
        stack_top: 0xe0000,
        window_stack_top: 0xe0100,
        ..SimConfig::default()
    };
    let end = recursion(20, cfg)
        .with_handler(TrapKind::WindowStackExhausted, 0x100, SKIP)
        .agrees(0);
    assert_eq!(end.end, Ok(()));
    assert!(end.stats.trap_count(TrapKind::WindowStackExhausted) > 0);
    assert!(end.stats.window_overflows > 0 && end.stats.window_underflows > 0);
}

#[test]
fn a_call_whose_spill_dirties_code_leaves_its_block_after_the_call() {
    // Three windows: `mid`'s call into `leaf`, at 0x1100, is the first to
    // spill. The save stack's top is just past the call's delay slot, so
    // the frame's first word, `main`'s r26, lands on the slot, replacing
    // `add r10, r0, #2` with `add r26, r26, #1000`. The slot runs after
    // the call, so it must run what the spill wrote.
    let slot = Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, Short2::imm(1000).unwrap());
    let mut main = format!(
        "
            li    r26, #{:#x}
            callr r25, mid
            nop
            add   r26, r10, #0
            halt
            nop
    ",
        slot.encode()
    );
    main += &"nop\n".repeat((0x10fc - 0x101c) / 4);
    main += "
    mid:    add   r10, r0, #7
            callr r25, leaf
            add   r10, r0, #2
            add   r26, r26, r10
            ret   r25, #8
            nop
    leaf:   add   r26, r26, #5
            ret   r25, #8
            nop
    ";
    let case = Case {
        cfg: SimConfig {
            windows: 3,
            stack_top: 0x100,
            window_stack_top: 0x1108,
            ..SimConfig::default()
        },
        ..Case::new(&main)
    };
    let end = case.agrees(0);
    assert_eq!(end.end, Ok(()));
    assert_eq!(end.stats.window_overflows, 1);
    assert_eq!(end.result, 7 + 1000 + 5, "the slot ran the spilled word");
}

#[test]
fn a_store_that_dirties_its_own_block_runs_the_new_text_next() {
    // The store overwrites the next op of its own block, `add #11`, with
    // `add #1`, which must be what runs.
    let main = "
            add   r20, r0, #1
            sll   r20, r20, #12
            ldl   r21, r20, #28
            stl   r21, r20, #16
            add   r26, r26, #11
            halt
            nop
            add   r26, r26, #1
    ";
    let end = Case::new(main).agrees(40);
    assert_eq!((end.end, end.result), (Ok(()), 41));
}

#[test]
fn a_return_that_halts_after_other_ops_settles_them_and_stops_at_itself() {
    let end = Case::new("add r16, r0, #1\nadd r26, r16, #2\nhalt\nnop\n").agrees(0);
    assert_eq!((end.end, end.result, end.pc), (Ok(()), 3, 0x1008));
    assert_eq!(end.stats.instructions, 3, "the slot never runs");
}

#[test]
fn an_untaken_branch_and_its_slot_complete_their_block() {
    let main = "
            sub   r0, r26, #1 {scc}
            jmpr  eq, done
            add   r26, r26, #10
            add   r26, r26, #100
    done:   halt
            nop
    ";
    assert_eq!(Case::new(main).agrees(0).result, 110, "untaken");
    assert_eq!(Case::new(main).agrees(1).result, 11, "taken");
}

#[test]
fn a_block_whose_slot_was_left_out_exits_with_its_jump_in_flight() {
    // The transfer's slot is another transfer, so the block ends without
    // it. Taken, the jump is left in flight and the slot traps; untaken,
    // nothing is in flight and the slot runs as a plain jump.
    let main = "
            sub   r0, r26, #1 {scc}
            jmpr  eq, done
            jmpr  alw, done
            add   r26, r26, #10
            add   r26, r26, #100
    done:   halt
            nop
    ";
    let end = Case::new(main).agrees(1);
    assert_eq!(end.end, Err(ExecError::TransferInDelaySlot { pc: 0x1008 }));
    let end = Case::new(main).agrees(0);
    assert_eq!((end.end, end.result), (Ok(()), 10));
}

#[test]
fn the_ops_no_block_holds_run_between_blocks_on_the_one_step_path() {
    // GTLPC, GETPSW, PUTPSW, CALLI and RETI each follow an ALU op, and a
    // GETPSW sits in the loop branch's delay slot: a block ends before
    // each, none starts at one, and each runs on the one-step path, as
    // does the RETI's own slot, which runs with its target in flight.
    // CALLI enters a window with `r25` holding the last PC, the word
    // before it, so `reti r25, #20` returns past the RETI's slot. Eighty
    // passes heat the blocks between them past the trace tier's
    // promotion threshold.
    let main = "
            add   r24, r0, #80
    loop:   add   r16, r16, #1
            gtlpc r17
            add   r18, r18, r17
            getpsw r19
            sub   r0, r0, #1 {scc}
            putpsw r19, #0
            add   r20, r20, #1
            calli r25
            add   r16, r0, #5
            reti  r25, #20
            nop
            sub   r24, r24, #1 {scc}
            jmpr  ne, loop
            getpsw r21
            add   r26, r16, r20
            halt
            nop
    ";
    let case = Case::new(main);
    let end = case.agrees(0);
    assert_eq!((end.end, end.result), (Ok(()), 160));
    assert_eq!((end.stats.calls, end.stats.rets), (80, 80));
    for engine in [ExecEngine::Superblock, ExecEngine::Trace] {
        let s = case.run(engine, BranchModel::Delayed, 0).stats;
        assert_eq!(
            s.instructions - s.block_instructions - s.trace_instructions,
            80 * 7,
            "{engine:?}: the five ops, the slot holding GETPSW and the \
             RETI's slot, on every pass"
        );
    }
}
