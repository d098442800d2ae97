//! Whole-machine identity, pinned to recorded constants.
//!
//! Simulated memory is lazily paged: a host page is allocated by the first
//! write that reaches it, and a page never written reads as zero. Window
//! spills and fills move a whole frame in one memory call. Neither may be
//! visible. The constants below were recorded with the flat, eagerly
//! zeroed memory and the word-at-a-time spill and fill loops that came
//! before, and every case must still reproduce them bit for bit:
//!
//! 1. all eleven suite workloads at `small_args` under each of the four
//!    engine tiers: the result, the final snapshot's checksum, an FNV-1a
//!    digest of its JSON rendering, and headline `ExecStats` counters;
//! 2. a hot loop that patches its own code after every caching tier has
//!    formed it;
//! 3. a hand-driven checkpoint cycle that scribbles on memory and rolls
//!    back, and a supervised campaign under fault injection that rolls
//!    back twice — both go through `Checkpointer`'s incremental
//!    `sync_page_from` path.
//!
//! A snapshot's checksum covers its whole configuration, engine tier
//! included, so each tier has its own row. A deliberate change to what a
//! snapshot holds re-records a row from the failure message.

use risc1::core::inject::{InjectConfig, InjectModes};
use risc1::core::{CheckpointStats, Checkpointer, Cpu, ExecEngine, Halt, Program, SimConfig};
use risc1::ir::{
    compile_risc, run_risc_supervised, setup_risc, RiscOpts, SupervisorConfig, SupervisorOutcome,
};
use risc1::isa::{Cond, Instruction, Opcode, Reg, Short2};
use risc1::workloads::{all, by_id};

/// The four engine tiers, in the column order of [`SUITE`] and [`SELF_PATCHING`].
const ENGINES: [ExecEngine; 4] = [
    ExecEngine::Uncached,
    ExecEngine::Cached,
    ExecEngine::Superblock,
    ExecEngine::Trace,
];

/// FNV-1a over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a finished machine leaves behind: its result, its snapshot's
/// checksum and JSON digest (which cover registers, trap state, every
/// counter and every memory byte), and headline counters to read a
/// mismatch by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    result: i32,
    checksum: u64,
    json: u64,
    instructions: u64,
    cycles: u64,
    data_reads: u64,
    data_writes: u64,
    window_overflows: u64,
}

fn pin(cpu: &Cpu) -> Pin {
    let snap = cpu.snapshot();
    let s = cpu.stats();
    Pin {
        result: cpu.result(),
        checksum: snap.checksum(),
        json: fnv(snap.to_json().as_bytes()),
        instructions: s.instructions,
        cycles: s.cycles,
        data_reads: s.data_reads,
        data_writes: s.data_writes,
        window_overflows: s.window_overflows,
    }
}

/// Runs `prog` to halt on a fresh default machine under `engine`, set up
/// the way every runner sets one up.
fn run_on(prog: &Program, args: &[i32], engine: ExecEngine) -> Cpu {
    let cfg = SimConfig {
        engine,
        ..SimConfig::default()
    };
    let mut cpu = setup_risc(prog, args, cfg, false).expect("setup");
    cpu.run().expect("runs clean");
    cpu
}

/// `pin` rendered as a table row, so a deliberate change re-records by
/// copying the failure message.
fn row(p: &Pin) -> String {
    format!(
        "Pin {{ result: {}, checksum: {:#018x}, json: {:#018x}, instructions: {}, cycles: {}, \
         data_reads: {}, data_writes: {}, window_overflows: {} }}",
        p.result,
        p.checksum,
        p.json,
        p.instructions,
        p.cycles,
        p.data_reads,
        p.data_writes,
        p.window_overflows
    )
}

fn imm(v: i32) -> Short2 {
    Short2::imm(v).expect("fits imm13")
}

/// A 100-iteration hot loop that, on iteration 70, copies the word at
/// `PATCH` over its own first instruction: `add r26, r26, #11` becomes
/// `add r26, r26, #1`. By then every caching tier has formed and entered
/// the loop, so the store must invalidate it. Result: 70·11 + 30·1 = 800.
fn self_patching_program() -> Program {
    const LOOP: i32 = 4;
    const PATCH: i32 = 17;
    let insns = vec![
        /* 0 */ Instruction::reg(Opcode::Add, Reg::R20, Reg::R0, imm(1)),
        /* 1 */ Instruction::reg(Opcode::Sll, Reg::R20, Reg::R20, imm(12)), // code base
        /* 2 */ Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, imm(0)),
        /* 3 */ Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, imm(0)),
        /* 4 LOOP */ Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(11)),
        /* 5 */ Instruction::reg(Opcode::Add, Reg::R17, Reg::R17, imm(1)),
        /* 6 */ Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(70)),
        /* 7 */ Instruction::jmpr(Cond::Ne, 4 * (11 - 7)), // skip the patch
        /* 8 */ Instruction::nop(),
        /* 9 */ Instruction::reg(Opcode::Ldl, Reg::R21, Reg::R20, imm(4 * PATCH)),
        /* 10 */ Instruction::reg(Opcode::Stl, Reg::R21, Reg::R20, imm(4 * LOOP)),
        /* 11 */ Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(100)),
        /* 12 */ Instruction::jmpr(Cond::Ne, 4 * (LOOP - 12)),
        /* 13 */ Instruction::nop(),
        /* 14 */ Instruction::ret(Reg::R0, imm(0)),
        /* 15 */ Instruction::nop(),
        /* 16 */ Instruction::nop(),
        /* 17 PATCH */ Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(1)),
    ];
    assert_eq!(SimConfig::default().code_base, 0x1000, "address math above");
    Program::from_instructions(insns)
}

/// Runs `sieve` under a hand-driven checkpointer: a checkpoint after
/// every 400-step segment, except that every third segment scribbles on
/// memory — alternately a host page the program never writes and its own
/// code — and rolls back instead.
fn checkpoint_cycle() -> (Cpu, Checkpointer) {
    let w = by_id("sieve").expect("sieve is a suite workload");
    let prog = compile_risc(&w.module, RiscOpts::default()).expect("compiles");
    let mut cpu = setup_risc(&prog, &w.small_args, SimConfig::default(), false).expect("setup");
    let mut ckpt = Checkpointer::new(&mut cpu);
    for segment in 1u32.. {
        if cpu.step_n(400).expect("runs clean") == Halt::Returned {
            break;
        }
        if segment % 3 == 0 {
            let addr = if segment % 2 == 0 {
                0x8_0000
            } else {
                cpu.config().code_base + 8
            };
            cpu.mem.flip_bit(addr, 5).expect("in range");
            ckpt.rollback(&mut cpu).expect("rolls back");
        } else {
            ckpt.checkpoint(&mut cpu);
        }
    }
    (cpu, ckpt)
}

/// Per workload, one row per tier of [`ENGINES`].
#[rustfmt::skip]
const SUITE: [(&str, [Pin; 4]); 11] = [
    ("e_string_search", [
        Pin { result: 5825, checksum: 0x5be910720defc42f, json: 0x8f4bcd7356fe4f95, instructions: 182591, cycles: 194441, data_reads: 11850, data_writes: 0, window_overflows: 0 },
        Pin { result: 5825, checksum: 0xe78e97e5db33e586, json: 0xbab74b7ef621c1cb, instructions: 182591, cycles: 194441, data_reads: 11850, data_writes: 0, window_overflows: 0 },
        Pin { result: 5825, checksum: 0xbba56764364e3041, json: 0xb4f640e7f3436bfa, instructions: 182591, cycles: 194441, data_reads: 11850, data_writes: 0, window_overflows: 0 },
        Pin { result: 5825, checksum: 0xdc34f459a17f0df0, json: 0x9d8cbaff9f1b3069, instructions: 182591, cycles: 194441, data_reads: 11850, data_writes: 0, window_overflows: 0 },
    ]),
    ("f_bit_test", [
        Pin { result: 2219, checksum: 0xffa5286f0f0b6d12, json: 0x534dc661e3bb0876, instructions: 43403, cycles: 43403, data_reads: 0, data_writes: 0, window_overflows: 0 },
        Pin { result: 2219, checksum: 0x6b2960e021fda833, json: 0xcd7f63c538b6388b, instructions: 43403, cycles: 43403, data_reads: 0, data_writes: 0, window_overflows: 0 },
        Pin { result: 2219, checksum: 0xa90d1e0f12d63a50, json: 0x534e5f3ebdbb42fc, instructions: 43403, cycles: 43403, data_reads: 0, data_writes: 0, window_overflows: 0 },
        Pin { result: 2219, checksum: 0x185ad5ba89e62bc1, json: 0xd45762eb6140ed95, instructions: 43403, cycles: 43403, data_reads: 0, data_writes: 0, window_overflows: 0 },
    ]),
    ("h_linked_list", [
        Pin { result: 181700, checksum: 0x5bcbae48f5894158, json: 0x9211624b82ae9a6c, instructions: 13241, cycles: 14507, data_reads: 1148, data_writes: 118, window_overflows: 0 },
        Pin { result: 181700, checksum: 0x002fa333b3ed6a85, json: 0x36a3ae2d24988b3c, instructions: 13241, cycles: 14507, data_reads: 1148, data_writes: 118, window_overflows: 0 },
        Pin { result: 181700, checksum: 0xb410882c04081c9a, json: 0xe85a05575d6fe605, instructions: 13241, cycles: 14507, data_reads: 1148, data_writes: 118, window_overflows: 0 },
        Pin { result: 181700, checksum: 0x1c00dd325adb0087, json: 0xdd06a4d13c44fb8d, instructions: 13241, cycles: 14507, data_reads: 1148, data_writes: 118, window_overflows: 0 },
    ]),
    ("sieve", [
        Pin { result: 109, checksum: 0x36e913ab9c9897a3, json: 0x943bedddba9236b4, instructions: 25099, cycles: 27411, data_reads: 598, data_writes: 1714, window_overflows: 0 },
        Pin { result: 109, checksum: 0xf3fe7fad40a41152, json: 0xb6fd274d4cfcab02, instructions: 25099, cycles: 27411, data_reads: 598, data_writes: 1714, window_overflows: 0 },
        Pin { result: 109, checksum: 0x0763299602833e9d, json: 0x996338a4544919c6, instructions: 25099, cycles: 27411, data_reads: 598, data_writes: 1714, window_overflows: 0 },
        Pin { result: 109, checksum: 0xb0d9347d92c2cdec, json: 0xcf27680ebe1e4aac, instructions: 25099, cycles: 27411, data_reads: 598, data_writes: 1714, window_overflows: 0 },
    ]),
    ("bubble", [
        Pin { result: 165126, checksum: 0xb6da7f965645b2f1, json: 0x6065e998b2990b9b, instructions: 22336, cycles: 25325, data_reads: 2313, data_writes: 676, window_overflows: 0 },
        Pin { result: 165126, checksum: 0x48e371e42697af84, json: 0x0e3f63d1693dd542, instructions: 22336, cycles: 25325, data_reads: 2313, data_writes: 676, window_overflows: 0 },
        Pin { result: 165126, checksum: 0xa5399942cfc8e78b, json: 0xaf304e2e3038a092, instructions: 22336, cycles: 25325, data_reads: 2313, data_writes: 676, window_overflows: 0 },
        Pin { result: 165126, checksum: 0xf1b7db98c4ef4176, json: 0xf92a37580c4f95b0, instructions: 22336, cycles: 25325, data_reads: 2313, data_writes: 676, window_overflows: 0 },
    ]),
    ("qsort", [
        Pin { result: 148434, checksum: 0x4b901208d45631d4, json: 0xdbbe97fcec0bf7c1, instructions: 7987, cycles: 9566, data_reads: 761, data_writes: 434, window_overflows: 8 },
        Pin { result: 148434, checksum: 0x1cb4bea8207ca481, json: 0x4207672c34a53b5a, instructions: 7987, cycles: 9566, data_reads: 761, data_writes: 434, window_overflows: 8 },
        Pin { result: 148434, checksum: 0x90ebfacdcc99cac2, json: 0x4d6c458fa3a08ca5, instructions: 7987, cycles: 9566, data_reads: 761, data_writes: 434, window_overflows: 8 },
        Pin { result: 148434, checksum: 0x6ab7e0d723fb0eaf, json: 0xd39441834e7095d4, instructions: 7987, cycles: 9566, data_reads: 761, data_writes: 434, window_overflows: 8 },
    ]),
    ("intmm", [
        Pin { result: 64, checksum: 0x7d6679c590f70deb, json: 0xfba84b82fd88a41d, instructions: 14804, cycles: 15380, data_reads: 468, data_writes: 108, window_overflows: 0 },
        Pin { result: 64, checksum: 0x956db1a823c00d36, json: 0x6731a3b6e15694d4, instructions: 14804, cycles: 15380, data_reads: 468, data_writes: 108, window_overflows: 0 },
        Pin { result: 64, checksum: 0x6e4068e3408ae495, json: 0x30aeb015cfd43592, instructions: 14804, cycles: 15380, data_reads: 468, data_writes: 108, window_overflows: 0 },
        Pin { result: 64, checksum: 0x0c5730cc76392158, json: 0x24321b86bb7db7a0, instructions: 14804, cycles: 15380, data_reads: 468, data_writes: 108, window_overflows: 0 },
    ]),
    ("puzzle", [
        Pin { result: 10, checksum: 0xa69a8bcbc4e29eef, json: 0x9514a10ded44eb1f, instructions: 6931, cycles: 7722, data_reads: 409, data_writes: 334, window_overflows: 1 },
        Pin { result: 10, checksum: 0x3a220b26d7f0040e, json: 0xaf3626d43f15e972, instructions: 6931, cycles: 7722, data_reads: 409, data_writes: 334, window_overflows: 1 },
        Pin { result: 10, checksum: 0x9f76549ee6282961, json: 0xdac1d983c67c8a2b, instructions: 6931, cycles: 7722, data_reads: 409, data_writes: 334, window_overflows: 1 },
        Pin { result: 10, checksum: 0xdea3b8082ee9f308, json: 0x3526748f1983b126, instructions: 6931, cycles: 7722, data_reads: 409, data_writes: 334, window_overflows: 1 },
    ]),
    ("acker", [
        Pin { result: 61, checksum: 0x85dd5ec376dea2c3, json: 0x9de832db85c9c2ff, instructions: 38978, cycles: 118418, data_reads: 15888, data_writes: 15888, window_overflows: 993 },
        Pin { result: 61, checksum: 0xeb54d2d2a31c0cb6, json: 0x6a1a0e119cf29b32, instructions: 38978, cycles: 118418, data_reads: 15888, data_writes: 15888, window_overflows: 993 },
        Pin { result: 61, checksum: 0xc977d2696d87cb5d, json: 0x58be44fa6854a09d, instructions: 38978, cycles: 118418, data_reads: 15888, data_writes: 15888, window_overflows: 993 },
        Pin { result: 61, checksum: 0xdf7935b602823570, json: 0x64fcefb5c6c294b0, instructions: 38978, cycles: 118418, data_reads: 15888, data_writes: 15888, window_overflows: 993 },
    ]),
    ("fib", [
        Pin { result: 144, checksum: 0xf0daa7580efa5e98, json: 0x2c788ba65b502d76, instructions: 5822, cycles: 7502, data_reads: 336, data_writes: 336, window_overflows: 21 },
        Pin { result: 144, checksum: 0xeb48e8e4b2fae15d, json: 0xdb0189d8d5e08d95, instructions: 5822, cycles: 7502, data_reads: 336, data_writes: 336, window_overflows: 21 },
        Pin { result: 144, checksum: 0x9dc94baa4f93a1f2, json: 0x2aecb6aeefeac28b, instructions: 5822, cycles: 7502, data_reads: 336, data_writes: 336, window_overflows: 21 },
        Pin { result: 144, checksum: 0xc976e08b8fa619b7, json: 0x863c0ba25872aaef, instructions: 5822, cycles: 7502, data_reads: 336, data_writes: 336, window_overflows: 21 },
    ]),
    ("hanoi", [
        Pin { result: 255, checksum: 0x3fb2edcbec0767ab, json: 0x1e9cb6174b65b937, instructions: 6652, cycles: 7292, data_reads: 128, data_writes: 128, window_overflows: 8 },
        Pin { result: 255, checksum: 0x02399804ae55e14a, json: 0xe36e861bb5fad6a5, instructions: 6652, cycles: 7292, data_reads: 128, data_writes: 128, window_overflows: 8 },
        Pin { result: 255, checksum: 0xa55bdf7d35a6a995, json: 0x00eee790175a5b17, instructions: 6652, cycles: 7292, data_reads: 128, data_writes: 128, window_overflows: 8 },
        Pin { result: 255, checksum: 0x50b4a1aac79c21ac, json: 0x0e56b6e17dea2e04, instructions: 6652, cycles: 7292, data_reads: 128, data_writes: 128, window_overflows: 8 },
    ]),
];

/// [`self_patching_program`], one row per tier of [`ENGINES`].
#[rustfmt::skip]
const SELF_PATCHING: [Pin; 4] = [
    Pin { result: 800, checksum: 0xa2f367b2e7d4228c, json: 0xb35f55114e786f31, instructions: 807, cycles: 809, data_reads: 1, data_writes: 1, window_overflows: 0 },
    Pin { result: 800, checksum: 0x9ab9abde8faed469, json: 0x48c276da9dae60a0, instructions: 807, cycles: 809, data_reads: 1, data_writes: 1, window_overflows: 0 },
    Pin { result: 800, checksum: 0x102b4c61705848f6, json: 0x23a209c22d03bfda, instructions: 807, cycles: 809, data_reads: 1, data_writes: 1, window_overflows: 0 },
    Pin { result: 800, checksum: 0xa8ee177675a28a43, json: 0xbda4fe666b36cd4f, instructions: 807, cycles: 809, data_reads: 1, data_writes: 1, window_overflows: 0 },
];

#[test]
fn every_suite_machine_matches_its_recorded_constants() {
    let workloads = all();
    assert_eq!(workloads.len(), SUITE.len());
    for (w, (id, want)) in workloads.iter().zip(SUITE) {
        assert_eq!(w.id, id, "suite order");
        let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
        for (engine, want) in ENGINES.into_iter().zip(want) {
            let got = pin(&run_on(&prog, &w.small_args, engine));
            assert_eq!(got, want, "{id} under {engine:?}; got {}", row(&got));
        }
    }
}

#[test]
fn a_self_patching_loop_matches_its_recorded_constants() {
    let prog = self_patching_program();
    for (engine, want) in ENGINES.into_iter().zip(SELF_PATCHING) {
        let got = pin(&run_on(&prog, &[], engine));
        assert_eq!(
            got.result, 800,
            "{engine:?}: stale code ran after the patch"
        );
        assert_eq!(got, want, "{engine:?}; got {}", row(&got));
    }
}

#[test]
fn a_checkpoint_cycle_with_rollbacks_matches_its_recorded_constants() {
    let (cpu, ckpt) = checkpoint_cycle();
    let got = pin(&cpu);
    assert_eq!(
        got,
        Pin {
            result: 109,
            checksum: 0x5a2b_db39_7d63_02be,
            json: 0x233f_28d5_771d_fb1e,
            instructions: 25099,
            cycles: 27411,
            data_reads: 598,
            data_writes: 1714,
            window_overflows: 0,
        },
        "got {}",
        row(&got)
    );
    assert_eq!(ckpt.latest().checksum(), 0x798f_1a67_0a8d_e407);
    assert_eq!(
        ckpt.stats(),
        CheckpointStats {
            checkpoints: 62,
            pages_copied: 131,
            bytes_copied: 16768,
            modeled_cycles: 14112,
        }
    );
}

#[test]
fn a_supervised_campaign_with_rollbacks_matches_its_recorded_constants() {
    let w = by_id("bubble").expect("bubble is a suite workload");
    let prog = compile_risc(&w.module, RiscOpts::default()).expect("compiles");
    let cfg = SimConfig {
        fuel: 77_008,
        ..SimConfig::default()
    };
    let inject = InjectConfig {
        seed: 0,
        rate: 1,
        modes: InjectModes::all(),
    };
    let sup = SupervisorConfig {
        ckpt_every: 2792,
        max_retries: 8,
        ..SupervisorConfig::default()
    };
    let report =
        run_risc_supervised(&prog, &w.small_args, cfg, Some(inject), true, sup).expect("setup");
    assert_eq!(
        report.outcome,
        SupervisorOutcome::Halted { result: 165_126 }
    );
    assert_eq!(
        (
            report.attempts,
            report.rollbacks,
            report.escalations,
            report.lost_instructions,
            report.events.len()
        ),
        (3, 2, 1, 61_504, 9)
    );
    let s = report.stats;
    assert_eq!(
        (s.instructions, s.cycles, s.data_writes),
        (22_337, 25_334, 676)
    );
    assert_eq!(
        report.checkpoints,
        CheckpointStats {
            checkpoints: 29,
            pages_copied: 18,
            bytes_copied: 2304,
            modeled_cycles: 5216,
        }
    );
}
