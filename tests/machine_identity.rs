//! Whole-machine identity, pinned to recorded constants.
//!
//! Simulated memory is lazily paged: a host page is allocated by the first
//! write that reaches it, and a page never written reads as zero. Window
//! spills and fills move a whole frame in one memory call. Neither may be
//! visible. The results and counters below were recorded with the flat,
//! eagerly zeroed memory and the word-at-a-time spill and fill loops that
//! came before, and every case must still reproduce them bit for bit:
//!
//! 1. all eleven suite workloads at `small_args` under each of the three
//!    engine tiers: the result, the final snapshot's checksum, an FNV-1a
//!    digest of its JSON rendering, and headline `ExecStats` counters;
//! 2. a hot loop that patches its own code after every caching tier has
//!    formed it;
//! 3. a hand-driven checkpoint cycle that scribbles on memory and rolls
//!    back, and a supervised campaign under fault injection that rolls
//!    back twice — both go through `Checkpointer`'s incremental
//!    `sync_page_from` path.
//!
//! A snapshot holds what the machine computes and nothing else: no engine
//! tier, fusion setting or runner bookkeeping. So each program has one row,
//! and every tier must reproduce it. The checksums and JSON digests are
//! those of snapshot format 4, which stores each machine value once: the
//! window overflow, underflow and depth counters live in the `stats` block
//! alone, the window file stores `cwp`, `resident` and `spilled`, the
//! interlock model's last write is one flat register index, and the
//! call depth, the fetch count, the instruction count at capture and the
//! memory size are derived, not stored. Every other pinned number is the one
//! recorded before. Every machine below runs once per test process, and a
//! test that finds a pinned value changed lists all the values that differ
//! and prints the constants that would record what ran, so a deliberate
//! change to what a snapshot holds re-records them in one paste.

use risc1::core::inject::{InjectConfig, InjectModes};
use risc1::core::{CheckpointStats, Checkpointer, Cpu, ExecEngine, Halt, Program, SimConfig};
use risc1::ir::{
    compile_risc, run_risc_supervised, setup_risc, RiscOpts, SupervisorConfig, SupervisorOutcome,
};
use risc1::isa::{Cond, Instruction, Opcode, Reg, Short2};
use risc1::workloads::{all, by_id};
use std::sync::OnceLock;

/// The engine tiers, each of which must reproduce every row (`cached` runs
/// exactly as `superblock`).
const ENGINES: [ExecEngine; 3] = [
    ExecEngine::Uncached,
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

/// Per workload, the row every tier of [`ENGINES`] must reproduce.
#[rustfmt::skip]
const SUITE: [(&str, Pin); 11] = [
    ("e_string_search", Pin { result: 5825, checksum: 0xd989587346864d53, json: 0xcf49c584fdde78e5, instructions: 182591, cycles: 194441, data_reads: 11850, data_writes: 0, window_overflows: 0 }),
    ("f_bit_test", Pin { result: 2219, checksum: 0xe85f6617bef8ea34, json: 0xcec1034fff79bb8b, instructions: 43403, cycles: 43403, data_reads: 0, data_writes: 0, window_overflows: 0 }),
    ("h_linked_list", Pin { result: 181700, checksum: 0x54a8093fc44249a8, json: 0xc374fc10bf9743ab, instructions: 13241, cycles: 14507, data_reads: 1148, data_writes: 118, window_overflows: 0 }),
    ("sieve", Pin { result: 109, checksum: 0xff004adf72679589, json: 0x9bb1de344d43edc7, instructions: 25099, cycles: 27411, data_reads: 598, data_writes: 1714, window_overflows: 0 }),
    ("bubble", Pin { result: 165126, checksum: 0xd4940b9fcfe70533, json: 0xa3a07fb0d9530fd0, instructions: 22336, cycles: 25325, data_reads: 2313, data_writes: 676, window_overflows: 0 }),
    ("qsort", Pin { result: 148434, checksum: 0xe52b2135ad1bf1c2, json: 0xb5f5f14d90f20ec9, instructions: 7987, cycles: 9566, data_reads: 761, data_writes: 434, window_overflows: 8 }),
    ("intmm", Pin { result: 64, checksum: 0x0e11d9b1419159a0, json: 0xd570d10b9b0cfa35, instructions: 14804, cycles: 15380, data_reads: 468, data_writes: 108, window_overflows: 0 }),
    ("puzzle", Pin { result: 10, checksum: 0x4c58b6254203e3ee, json: 0x2dd9646d36f12e36, instructions: 6931, cycles: 7722, data_reads: 409, data_writes: 334, window_overflows: 1 }),
    ("acker", Pin { result: 61, checksum: 0xcfd27140f312741b, json: 0x52e02c6362c0967a, instructions: 38978, cycles: 118418, data_reads: 15888, data_writes: 15888, window_overflows: 993 }),
    ("fib", Pin { result: 144, checksum: 0xeb288824cb9877ae, json: 0x4956ae37dfe6d78f, instructions: 5822, cycles: 7502, data_reads: 336, data_writes: 336, window_overflows: 21 }),
    ("hanoi", Pin { result: 255, checksum: 0xd39bbcb5d4c1096b, json: 0xeea594c37bcc683c, instructions: 6652, cycles: 7292, data_reads: 128, data_writes: 128, window_overflows: 8 }),
];
/// [`self_patching_program`]'s row, which every tier must reproduce.
#[rustfmt::skip]
const SELF_PATCHING: Pin = Pin { result: 800, checksum: 0xeb459bf2b4890ae8, json: 0xbe83ee1038513636, instructions: 807, cycles: 809, data_reads: 1, data_writes: 1, window_overflows: 0 };
/// The checkpoint cycle's latest snapshot: its checksum and JSON digest.
const CHECKPOINT_LATEST: (u64, u64) = (0x74ac86a57f0f8379, 0x947768d2ffc0e722);

/// Every pinned machine, run once per test process.
struct Runs {
    /// Per suite workload, in suite order, its pin under each of
    /// [`ENGINES`].
    suite: Vec<(&'static str, [Pin; 3])>,
    /// [`self_patching_program`]'s pin under each of [`ENGINES`].
    self_patching: [Pin; 3],
    /// The checkpoint cycle's final machine.
    checkpoint: Pin,
    /// Its latest snapshot's checksum and JSON digest.
    checkpoint_latest: (u64, u64),
    /// Its cost accounting.
    checkpoint_stats: CheckpointStats,
}

fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        let suite = all()
            .into_iter()
            .map(|w| {
                let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
                (w.id, ENGINES.map(|e| pin(&run_on(&prog, &w.small_args, e))))
            })
            .collect();
        let prog = self_patching_program();
        let (cpu, ckpt) = checkpoint_cycle();
        let latest = ckpt.latest();
        Runs {
            suite,
            self_patching: ENGINES.map(|e| pin(&run_on(&prog, &[], e))),
            checkpoint: pin(&cpu),
            checkpoint_latest: (latest.checksum(), fnv(latest.to_json().as_bytes())),
            checkpoint_stats: ckpt.stats(),
        }
    })
}

/// The pinned constants as they would record `r`: each row from the
/// first tier's run.
fn replacement(r: &Runs) -> String {
    let mut out = String::from(
        "/// Per workload, the row every tier of [`ENGINES`] must reproduce.\n\
         #[rustfmt::skip]\n\
         const SUITE: [(&str, Pin); 11] = [\n",
    );
    for (id, pins) in &r.suite {
        out += &format!("    (\"{id}\", {}),\n", row(&pins[0]));
    }
    let (checksum, json) = r.checkpoint_latest;
    out + &format!(
        "];\n\
         /// [`self_patching_program`]'s row, which every tier must reproduce.\n\
         #[rustfmt::skip]\n\
         const SELF_PATCHING: Pin = {};\n\
         /// The checkpoint cycle's latest snapshot: its checksum and JSON digest.\n\
         const CHECKPOINT_LATEST: (u64, u64) = ({checksum:#018x}, {json:#018x});\n",
        row(&r.self_patching[0])
    )
}

/// Fails if `mismatches` names any pinned value that differs from its run,
/// listing them all, followed by the constants that would record the runs.
fn check(mismatches: Vec<String>) {
    assert!(
        mismatches.is_empty(),
        "{} pinned value(s) differ:\n{}\n\nIf the change is deliberate, replace the \
         constants with:\n\n{}",
        mismatches.len(),
        mismatches.join("\n"),
        replacement(runs())
    );
}

#[test]
fn every_suite_machine_matches_its_recorded_constants() {
    let r = runs();
    assert_eq!(r.suite.len(), SUITE.len());
    let mut mismatches = Vec::new();
    for ((id, want), (got_id, pins)) in SUITE.iter().zip(&r.suite) {
        assert_eq!(id, got_id, "suite order");
        for (engine, got) in ENGINES.iter().zip(pins) {
            if got != want {
                mismatches.push(format!("{id} under {engine:?}: {}", row(got)));
            }
        }
    }
    check(mismatches);
}

#[test]
fn a_self_patching_loop_matches_its_recorded_constants() {
    let mut mismatches = Vec::new();
    for (engine, got) in ENGINES.iter().zip(&runs().self_patching) {
        assert_eq!(
            got.result, 800,
            "{engine:?}: stale code ran after the patch"
        );
        if *got != SELF_PATCHING {
            mismatches.push(format!("self-patching under {engine:?}: {}", row(got)));
        }
    }
    check(mismatches);
}

#[test]
fn a_checkpoint_cycle_with_rollbacks_matches_its_recorded_constants() {
    let r = runs();
    // Rollbacks leave no trace in the machine: it ends exactly where an
    // uninterrupted sieve run ends.
    let (_, sieve) = r
        .suite
        .iter()
        .find(|(id, _)| *id == "sieve")
        .expect("sieve is a suite workload");
    assert_eq!(r.checkpoint, sieve[0], "got {}", row(&r.checkpoint));
    assert_eq!(
        r.checkpoint_stats,
        CheckpointStats {
            checkpoints: 62,
            pages_copied: 131,
            bytes_copied: 16768,
            modeled_cycles: 14112,
        }
    );
    let (checksum, json) = r.checkpoint_latest;
    let mut mismatches = Vec::new();
    if r.checkpoint_latest != CHECKPOINT_LATEST {
        mismatches.push(format!(
            "checkpoint cycle's latest snapshot: ({checksum:#018x}, {json:#018x})"
        ));
    }
    check(mismatches);
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
