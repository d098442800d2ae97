//! The execution engines' correctness law: acceleration is invisible.
//!
//! Every engine runs one burst loop over one fetch path, and each tier is
//! one rule in it. `uncached` forms no block: every instruction takes the
//! one-step path, fetched and decoded from memory. `superblock` forms
//! superblocks (`crates/core/src/superblock.rs`), straight-line blocks of
//! prepared lines, and runs their bodies on the block executor, which
//! settles each block once. `trace` (`crates/core/src/trace.rs`) also
//! compiles hot superblock sequences to register-allocated trace IR with
//! bulk statistics applied at trace exit, running both directions of a
//! data-dependent branch as arms. `cached` is inert: it runs exactly as
//! `superblock`, which one assertion of the first law holds it to. All of
//! that is pure derived state — under any engine, every simulated
//! observable must be bit-identical: final result, `ExecStats`
//! (instruction mix, cycles, traps, spills), the entire memory image, the
//! visible register window, the window-file position, and the whole
//! machine as its snapshot checksum sees it (PSW, trap state, `last_pc`,
//! the in-flight target, the save-stack pointer). This suite holds all
//! engines to that bar eleven ways:
//!
//! 1. deterministically across all eleven suite workloads, under both the
//!    delayed and the suspended branch model, with a floor on the trace
//!    tier's coverage of the loop programs, and again under the interlock
//!    model (no forwarding), where no tier forms a block,
//! 2. property-style under seed-driven fault injection (where traps,
//!    recovery stubs, and snapshot restores stress the invalidation
//!    paths),
//! 3. with a hand-assembled self-modifying program that overwrites its
//!    own already-executed-and-cached text,
//! 4. with a program that patches the middle of an already-formed hot
//!    loop while it runs — the store must kill the formed blocks,
//! 5. with a long-running hot loop that patches its own text only *after*
//!    the trace tier has compiled and entered a trace for it — the store
//!    side-exits the trace and kills it — once on the loop's only page,
//!    and once on the second page of a loop that crosses a page boundary,
//!    which its entry block does not reach,
//! 6. with a host bulk patch of every page of a 1,025-page text, which
//!    the code-dirty channel queues page by page,
//! 7. with a hot loop in the last page of memory — the far end of the
//!    block cache's lazily grown tables — that patches itself and then
//!    jumps past the end of memory,
//! 8. with a hot loop whose block leaves early on some iterations, through
//!    a vectored fault and through a code-dirty store, and must run its
//!    whole body on the next entry,
//! 9. with a bubble-style hot loop whose swap test goes both ways, so its
//!    trace holds both directions: plain, with vectored faults and
//!    code-dirty stores on both paths, under the suspended branch model,
//!    and chopped by `step_n` at every size up to its longest path,
//! 10. with a hot loop entered from outside whose first op faults, with
//!     no handler, after its trace has completed passes, and
//! 11. with fetches that trap: a jump to an undecodable word, a jump to a
//!     misaligned address, and an undecodable word in a taken branch's
//!     delay slot, each unhandled and with a handler that resumes, run by
//!     `run()` and one `step()` at a time.

use proptest::prelude::*;
use risc1::core::inject::{InjectConfig, InjectModes};
use risc1::core::{
    BranchModel, Cpu, ExecEngine, ExecError, ExecStats, Halt, Program, SimConfig, TrapKind,
    PAGE_BYTES,
};
use risc1::ir::{compile_risc, run_risc, run_risc_injected, RiscOpts};
use risc1::isa::{Cond, Instruction, Opcode, Reg, Short2};
use risc1::workloads::all;
use std::sync::OnceLock;

/// Mirror of the runtime argument area (`risc1_ir::layout::ARGV_BASE`):
/// the runner writes args both to registers and here, so the memory
/// digests only match if both modes see the same argv image.
const ARGV_BASE: u32 = risc1::ir::layout::ARGV_BASE;

/// Everything a program can observably leave behind.
#[derive(Debug, PartialEq)]
struct FinalState {
    result: i32,
    pc: u32,
    stats: ExecStats,
    visible: [u32; 32],
    cwp: u8,
    depth: u64,
    mem_digest: u64,
    /// The final snapshot's checksum: the whole machine, including what
    /// the fields above leave out. Snapshots hold only the architectural
    /// configuration, so it is engine-independent.
    checksum: u64,
}

/// FNV-1a over every memory page. The checksum covers memory too; this
/// digest says whether a mismatch is in memory or elsewhere.
fn mem_digest(cpu: &Cpu) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for idx in 0..cpu.mem.page_count() {
        for &b in cpu.mem.page(idx) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn capture(cpu: &Cpu) -> FinalState {
    FinalState {
        result: cpu.result(),
        pc: cpu.pc(),
        stats: cpu.stats(),
        visible: cpu.windows().visible(),
        cwp: cpu.windows().cwp(),
        depth: cpu.windows().depth(),
        mem_digest: mem_digest(cpu),
        checksum: cpu.snapshot().checksum(),
    }
}

/// Runs `prog` to halt under the given engine and branch model, with the
/// default datapath (forwarding on, so the block executor and traces
/// engage), and captures the final state.
fn run_mode(
    prog: &Program,
    args: &[i32],
    engine: ExecEngine,
    branch_model: BranchModel,
) -> FinalState {
    let cfg = SimConfig {
        engine,
        branch_model,
        ..SimConfig::default()
    };
    run_cfg(prog, args, cfg)
}

/// Runs `prog` to halt on a machine configured as `cfg` and captures the
/// final state. The block and trace engines go through the batched
/// `Cpu::run` fast path, the uncached engine through the one-at-a-time
/// `step()` loop.
fn run_cfg(prog: &Program, args: &[i32], cfg: SimConfig) -> FinalState {
    let engine = cfg.engine;
    let mut cpu = Cpu::new(cfg);
    cpu.load_program(prog).expect("program fits memory");
    cpu.set_args(args);
    for (i, &a) in args.iter().enumerate() {
        cpu.mem
            .load_image(ARGV_BASE + 4 * i as u32, &(a as u32).to_le_bytes())
            .expect("argv mirror fits");
    }
    if engine == ExecEngine::Uncached {
        while cpu.step().expect("suite runs clean") == Halt::Running {}
    } else {
        cpu.run().expect("suite runs clean");
    }
    capture(&cpu)
}

/// The inert cached tier's rule: it enters exactly the blocks the
/// superblock tier enters, retiring as many instructions in their bodies,
/// and runs no trace. Both sides' `blocks_entered` and
/// `block_instructions` are host telemetry, outside the `ExecStats`
/// equality the laws assert.
fn assert_same_blocks(cached: &ExecStats, superblock: &ExecStats, id: &str) {
    assert_eq!(
        (cached.blocks_entered, cached.block_instructions),
        (superblock.blocks_entered, superblock.block_instructions),
        "{id}: cached entered other blocks than superblock"
    );
    assert_eq!(
        (cached.traces_built, cached.trace_instructions),
        (0, 0),
        "{id}: cached ran a trace"
    );
}

/// Floors on the trace tier's coverage (`trace_instructions /
/// instructions`) of the loop programs at `small_args`, each 0.05 below
/// what the tier read when the floors were set: e_string_search 0.976,
/// f_bit_test 0.950, h_linked_list 0.717, sieve 0.874, bubble 0.811. Both
/// counts are exact, so the gate cannot flap on timer noise.
const TRACE_COVERAGE_FLOORS: [(&str, f64); 5] = [
    ("e_string_search", 0.92),
    ("f_bit_test", 0.90),
    ("h_linked_list", 0.66),
    ("sieve", 0.82),
    ("bubble", 0.76),
];

#[test]
fn every_workload_is_bit_identical_across_all_four_engines() {
    let mut traced_anywhere = 0u64;
    let mut floors_checked = 0;
    for w in all() {
        let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
        for model in [BranchModel::Delayed, BranchModel::Suspended] {
            let uncached = run_mode(&prog, &w.small_args, ExecEngine::Uncached, model);
            let superblock = run_mode(&prog, &w.small_args, ExecEngine::Superblock, model);
            let trace = run_mode(&prog, &w.small_args, ExecEngine::Trace, model);
            let id = format!("{} ({model:?})", w.id);
            assert_eq!(superblock, uncached, "{id}: superblocks must be invisible");
            assert_eq!(trace, uncached, "{id}: traces must be invisible");
            // The superblock engine must actually engage (not silently fall
            // back to single-stepping): block bodies retire every
            // instruction of a suite run, as `tests/host_counts.rs`
            // records. The uncached tier enters no block, and the inert
            // cached tier enters exactly superblock's.
            assert_eq!(
                superblock.stats.block_instructions, superblock.stats.instructions,
                "{id}: instructions retired outside a block body"
            );
            assert_eq!(uncached.stats.blocks_entered, 0, "{id}");
            let cached = run_mode(&prog, &w.small_args, ExecEngine::Cached, model);
            assert_same_blocks(&cached.stats, &superblock.stats, &id);
            traced_anywhere += trace.stats.trace_instructions;
            assert_eq!(
                superblock.stats.trace_instructions, 0,
                "{id}: only the trace engine may run traces"
            );
            if let Some(&(_, floor)) = TRACE_COVERAGE_FLOORS.iter().find(|(id, _)| *id == w.id) {
                let coverage = trace.stats.trace_coverage();
                assert!(
                    coverage >= floor,
                    "{id}: the trace tier covered {coverage:.4} of its instructions \
                     ({} of {}), under its floor of {floor}",
                    trace.stats.trace_instructions,
                    trace.stats.instructions
                );
                floors_checked += 1;
            }
        }
    }
    assert_eq!(
        floors_checked,
        2 * TRACE_COVERAGE_FLOORS.len(),
        "every floored program is in the suite, checked under both models"
    );
    assert!(
        traced_anywhere > 0,
        "the trace tier never compiled and ran a trace across the whole suite"
    );
}

/// The same law under the interlock model (`forwarding: false`), whose
/// hazard bookkeeping is per op, so no tier forms a block and every op runs
/// through `exec_prepared`: all eleven workloads, every engine, both branch
/// models, the whole final state.
#[test]
fn every_workload_is_bit_identical_across_all_four_engines_without_forwarding() {
    for w in all() {
        let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
        for branch_model in [BranchModel::Delayed, BranchModel::Suspended] {
            let run = |engine| {
                let cfg = SimConfig {
                    engine,
                    branch_model,
                    forwarding: false,
                    ..SimConfig::default()
                };
                run_cfg(&prog, &w.small_args, cfg)
            };
            let uncached = run(ExecEngine::Uncached);
            let superblock = run(ExecEngine::Superblock);
            let trace = run(ExecEngine::Trace);
            let id = format!("{} ({branch_model:?}, no forwarding)", w.id);
            assert_eq!(superblock, uncached, "{id}: superblock differs");
            assert_eq!(trace, uncached, "{id}: trace differs");
            for end in [&uncached, &superblock, &trace] {
                assert_eq!(end.stats.blocks_entered, 0, "{id}: a block formed");
            }
        }
    }
}

/// One compiled workload plus the fuel/rate bounds the injection sweep
/// uses, shared across proptest cases (compiling per-case would dominate
/// the suite's runtime).
struct Compiled {
    prog: Program,
    args: Vec<i32>,
    fuel: u64,
    rate: u32,
}

fn compiled_suite() -> &'static Vec<Compiled> {
    static SUITE: OnceLock<Vec<Compiled>> = OnceLock::new();
    SUITE.get_or_init(|| {
        all()
            .iter()
            .map(|w| {
                let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
                let (_, base) = run_risc(&prog, &w.small_args).expect("suite runs clean");
                Compiled {
                    prog,
                    args: w.small_args.clone(),
                    fuel: base.instructions * 3 + 10_000,
                    rate: (4 * 10_000 / base.instructions.max(1)).clamp(1, 500) as u32,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The law under fire: a seed-driven fault campaign — register and
    /// memory corruption, forced traps, recovery re-execution — produces
    /// the *exact same* `InjectReport` (outcome, stats, and the full
    /// event log) under every engine. Injected memory writes land
    /// through the same dirty-channel stores use, so this leans hard on
    /// invalidation.
    #[test]
    fn injected_campaigns_are_engine_independent(
        wi in 0usize..11,
        seed in any::<u64>(),
        recovery in any::<bool>(),
    ) {
        let c = &compiled_suite()[wi];
        let inject = InjectConfig { seed, rate: c.rate, modes: InjectModes::all() };
        let run = |engine| {
            let cfg = SimConfig { engine, fuel: c.fuel, ..SimConfig::default() };
            run_risc_injected(&c.prog, &c.args, cfg, inject, recovery)
                .expect("setup succeeds")
        };
        let uncached = run(ExecEngine::Uncached);
        prop_assert_eq!(run(ExecEngine::Superblock), uncached.clone());
        prop_assert_eq!(run(ExecEngine::Trace), uncached);
    }
}

/// Splits a value into `#imm` chunks an `add` can carry (13-bit signed).
fn imm_chunks(mut v: u32) -> Vec<Short2> {
    let mut out = Vec::new();
    while v > 0 {
        let chunk = v.min(4095);
        out.push(Short2::imm(chunk as i32).expect("chunk fits imm13"));
        v -= chunk;
    }
    out
}

/// Emits a prologue that leaves `r20 = code_base + 4*target` (patched in
/// by the caller once the target index is known — slot 2 is a
/// placeholder) and `r21 = word`, built as ldhi + imm13 chunks.
fn patch_prologue(word: u32) -> Vec<Instruction> {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    let mut insns = vec![
        Instruction::reg(Opcode::Add, Reg::R20, Reg::R0, imm(1)),
        Instruction::reg(Opcode::Sll, Reg::R20, Reg::R20, imm(12)),
        // Placeholder: patched with the real offset once the target is
        // known.
        Instruction::nop(),
        Instruction::ldhi(Reg::R21, word >> 13),
    ];
    for chunk in imm_chunks(word & 0x1fff) {
        insns.push(Instruction::reg(Opcode::Add, Reg::R21, Reg::R21, chunk));
    }
    insns
}

#[test]
fn self_modifying_code_invalidates_already_executed_text() {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");

    // The program below runs its loop body twice. Pass one executes the
    // original `add r26, r26, #10` (caching that line), then *stores a
    // nop over it*; pass two re-executes the same address. A correct
    // cache re-decodes and adds nothing — acc ends at 10. A stale cache
    // replays the old line — acc ends at 20.
    let mut insns = patch_prologue(Instruction::nop().encode());
    insns.extend([
        Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, imm(0)), // acc = 0
        Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, imm(0)), // pass = 0
    ]);
    let l = insns.len(); // loop head / patch target
    insns.extend([
        Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(10)), // PATCHED
        Instruction::reg(Opcode::Stl, Reg::R21, Reg::R20, imm(0)),  // text[L] = nop
        Instruction::reg(Opcode::Add, Reg::R17, Reg::R17, imm(1)),
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(2)),
    ]);
    let j = insns.len();
    insns.extend([
        Instruction::jmpr(Cond::Lt, 4 * (l as i32 - j as i32)),
        Instruction::nop(), // delay slot
        Instruction::ret(Reg::R0, imm(0)),
        Instruction::nop(), // return delay slot
    ]);
    // Resolve the placeholder: r20 = 0x1000 + 4 * L.
    insns[2] = Instruction::reg(Opcode::Add, Reg::R20, Reg::R20, imm(4 * l as i32));
    assert_eq!(SimConfig::default().code_base, 0x1000, "address math above");

    let prog = Program::from_instructions(insns);
    let uncached = run_mode(&prog, &[], ExecEngine::Uncached, BranchModel::Delayed);
    let superblock = run_mode(&prog, &[], ExecEngine::Superblock, BranchModel::Delayed);
    let trace = run_mode(&prog, &[], ExecEngine::Trace, BranchModel::Delayed);
    assert_eq!(
        superblock.result, 10,
        "stale cached line survived the overwrite (20 = add ran twice)"
    );
    assert_eq!(superblock, uncached, "superblocks must be invisible");
    assert_eq!(trace, uncached, "traces must be invisible");
}

#[test]
fn patching_the_middle_of_a_chained_hot_loop_is_observed() {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    let patch_word = Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(1)).encode();

    // A ten-iteration loop whose body opens with `add r26, r26, #11`.
    // The first five iterations run that original text — under the
    // superblock engine each of the loop's blocks is formed and cached by
    // then. On iteration five the loop stores `add r26, r26, #1` over
    // its own first instruction; iterations six through ten must execute
    // the patched text. acc = 5*11 + 5*1 = 60 only if the store kills
    // the already-formed blocks mid-flight; a stale block replays the
    // old body for 110.
    let mut insns = patch_prologue(patch_word);
    let l = insns.len(); // loop head / patch target
    insns.extend([
        Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(11)), // PATCHED at i == 5
        Instruction::reg(Opcode::Add, Reg::R17, Reg::R17, imm(1)),  // i += 1
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(5)),
        Instruction::jmpr(Cond::Ne, 3 * 4), // i != 5: skip the patch store
        Instruction::nop(),                 // delay slot
        Instruction::reg(Opcode::Stl, Reg::R21, Reg::R20, imm(0)), // text[L] = add #1
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(10)),
    ]);
    let j = insns.len();
    insns.extend([
        Instruction::jmpr(Cond::Lt, 4 * (l as i32 - j as i32)),
        Instruction::nop(), // delay slot
        Instruction::ret(Reg::R0, imm(0)),
        Instruction::nop(), // return delay slot
    ]);
    insns[2] = Instruction::reg(Opcode::Add, Reg::R20, Reg::R20, imm(4 * l as i32));
    assert_eq!(SimConfig::default().code_base, 0x1000, "address math above");

    let prog = Program::from_instructions(insns);
    let uncached = run_mode(&prog, &[], ExecEngine::Uncached, BranchModel::Delayed);
    let superblock = run_mode(&prog, &[], ExecEngine::Superblock, BranchModel::Delayed);
    let trace = run_mode(&prog, &[], ExecEngine::Trace, BranchModel::Delayed);
    assert_eq!(
        superblock.result, 60,
        "a stale superblock replayed the pre-patch loop body"
    );
    assert_eq!(superblock, uncached, "superblocks must be invisible");
    assert_eq!(trace, uncached, "traces must be invisible");
    assert!(
        superblock.stats.blocks_entered >= 5,
        "the loop never got hot under the superblock engine"
    );
}

#[test]
fn patching_a_running_trace_mid_flight_is_observed() {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    let patch_word = Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(1)).encode();

    // Same shape as the hot-loop patch test, but run long enough that the
    // trace tier has *compiled and entered* a trace over the loop before
    // the patch lands: 200 iterations, patching at i == 100 (block heat
    // promotes at 64 completed executions, so by iteration 100 the loop
    // is running from trace IR). The patch store takes the trace's cold
    // branch direction — a guard mismatch exits the trace, the store runs
    // under the block path, the dirty channel kills the stale trace, and
    // iterations 101..200 run (and re-promote) the patched text.
    // acc = 100*11 + 100*1 = 1200 only if all of that is observed.
    let mut insns = patch_prologue(patch_word);
    let l = insns.len(); // loop head / patch target
    insns.extend([
        Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(11)), // PATCHED at i == 100
        Instruction::reg(Opcode::Add, Reg::R17, Reg::R17, imm(1)),  // i += 1
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(100)),
        Instruction::jmpr(Cond::Ne, 3 * 4), // i != 100: skip the patch store
        Instruction::nop(),                 // delay slot
        Instruction::reg(Opcode::Stl, Reg::R21, Reg::R20, imm(0)), // text[L] = add #1
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(200)),
    ]);
    let j = insns.len();
    insns.extend([
        Instruction::jmpr(Cond::Lt, 4 * (l as i32 - j as i32)),
        Instruction::nop(), // delay slot
        Instruction::ret(Reg::R0, imm(0)),
        Instruction::nop(), // return delay slot
    ]);
    insns[2] = Instruction::reg(Opcode::Add, Reg::R20, Reg::R20, imm(4 * l as i32));
    assert_eq!(SimConfig::default().code_base, 0x1000, "address math above");

    let prog = Program::from_instructions(insns);
    let uncached = run_mode(&prog, &[], ExecEngine::Uncached, BranchModel::Delayed);
    let trace = run_mode(&prog, &[], ExecEngine::Trace, BranchModel::Delayed);
    assert_eq!(
        trace.result, 1200,
        "a stale trace replayed the pre-patch loop body"
    );
    assert_eq!(trace, uncached, "traces must be invisible");
    assert!(
        trace.stats.traces_built >= 2,
        "the loop must promote before the patch and re-promote after \
         (built {} traces)",
        trace.stats.traces_built
    );
    assert!(
        trace.stats.trace_side_exits >= 1,
        "the patch must leave the trace through a side exit"
    );
}

#[test]
fn patching_the_second_page_of_a_traced_loop_kills_the_trace_at_its_entry() {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    let patch_word = Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(1)).encode();

    // A 300-iteration loop whose entry block is the last two words of one
    // 128-byte page; the rest of its body, the patch target included,
    // sits on the next page. The trace formed over it reads both pages,
    // while its entry block spans only the first. At i == 100 the loop
    // stores `add r26, r26, #1` over its `add r26, r26, #11` on the
    // second page, so acc = 100*11 + 200*1 = 1300 only if that store
    // kills the entry block's trace too; a stale trace keeps adding 11.
    let mut insns = patch_prologue(patch_word);
    let code_base = SimConfig::default().code_base;
    let page = PAGE_BYTES as u32;
    while !(code_base + 4 * insns.len() as u32 + 8).is_multiple_of(page) {
        insns.push(Instruction::nop());
    }
    let l = insns.len(); // loop head: two words before a page boundary
    let target = l + 2; // first word of the next page
    insns.extend([
        Instruction::reg(Opcode::Add, Reg::R17, Reg::R17, imm(1)), // i += 1
        Instruction::reg(Opcode::Add, Reg::R19, Reg::R19, imm(2)),
        Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(11)), // PATCHED at i == 100
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(100)),
        Instruction::jmpr(Cond::Ne, 3 * 4), // i != 100: skip the patch store
        Instruction::nop(),                 // delay slot
        Instruction::reg(Opcode::Stl, Reg::R21, Reg::R20, imm(0)), // text[target] = add #1
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(300)),
    ]);
    let j = insns.len();
    insns.extend([
        Instruction::jmpr(Cond::Lt, 4 * (l as i32 - j as i32)),
        Instruction::nop(), // delay slot
        Instruction::ret(Reg::R0, imm(0)),
        Instruction::nop(), // return delay slot
    ]);
    insns[2] = Instruction::reg(Opcode::Add, Reg::R20, Reg::R20, imm(4 * target as i32));
    assert_eq!(code_base, 0x1000, "address math above");
    let page_of = |i: usize| (code_base as usize + 4 * i) / PAGE_BYTES;
    assert_eq!(page_of(l + 1), page_of(l), "the entry block's page");
    assert_eq!(
        page_of(target),
        page_of(l) + 1,
        "the patch lands on the next"
    );

    let prog = Program::from_instructions(insns);
    let uncached = run_mode(&prog, &[], ExecEngine::Uncached, BranchModel::Delayed);
    assert_eq!(uncached.result, 1300);
    for engine in [ExecEngine::Superblock, ExecEngine::Trace] {
        assert_eq!(
            run_mode(&prog, &[], engine, BranchModel::Delayed),
            uncached,
            "{engine:?} must be invisible"
        );
    }
    let trace = run_mode(&prog, &[], ExecEngine::Trace, BranchModel::Delayed);
    assert!(
        trace.stats.traces_built >= 2,
        "the loop must promote before the patch and re-promote after \
         (built {} traces)",
        trace.stats.traces_built
    );
}

#[test]
fn a_bulk_patch_of_every_code_page_is_observed_page_by_page() {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    let insns_per_page = PAGE_BYTES / 4;
    // A text of over a thousand pages, every one of them registered and
    // then patched between two drains: the channel must queue each page
    // once and drop no invalidation.
    let body_pages = 1025;
    let body_len = body_pages * insns_per_page;

    // body: `add r26, r26, #1` filling `body_pages` whole pages, run
    // twice by the tail's pass counter. `code_base` is page-aligned, so
    // the body covers exactly `body_pages` pages.
    let mut insns = vec![Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(1)); body_len];
    let j = insns.len() + 2;
    insns.extend([
        Instruction::reg(Opcode::Add, Reg::R17, Reg::R17, imm(1)), // pass += 1
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(2)),
        Instruction::jmpr(Cond::Lt, 4 * -(j as i32)), // pass < 2: rerun the body
        Instruction::nop(),                           // delay slot
        Instruction::ret(Reg::R0, imm(0)),
        Instruction::nop(), // return delay slot
    ]);
    assert_eq!(SimConfig::default().code_base % PAGE_BYTES as u32, 0);
    let prog = Program::from_instructions(insns);

    // After pass one every body page is registered as executed code.
    // The host then bulk-patches the whole body to `add r26, r26, #2`
    // through `load_image` — same dirty channel as stores — and resumes.
    // acc = body_len * (1 + 2) only if all the patches are observed.
    let patched = Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(2)).encode();
    let mut page_image = Vec::with_capacity(PAGE_BYTES);
    for _ in 0..insns_per_page {
        page_image.extend_from_slice(&patched.to_le_bytes());
    }
    let run = |engine| {
        let cfg = SimConfig {
            engine,
            ..SimConfig::default()
        };
        let code_base = cfg.code_base;
        let mut cpu = Cpu::new(cfg);
        cpu.load_program(&prog).expect("program fits memory");
        assert_eq!(
            cpu.step_n(body_len as u64).expect("pass one runs clean"),
            Halt::Running
        );
        assert_eq!(cpu.pc(), code_base + 4 * body_len as u32, "mid-tail");
        for p in 0..body_pages {
            cpu.mem
                .load_image(code_base + (p * PAGE_BYTES) as u32, &page_image)
                .expect("patch fits memory");
        }
        if engine == ExecEngine::Uncached {
            while cpu.step().expect("pass two runs clean") == Halt::Running {}
        } else {
            cpu.run().expect("pass two runs clean");
        }
        capture(&cpu)
    };
    let uncached = run(ExecEngine::Uncached);
    let superblock = run(ExecEngine::Superblock);
    let trace = run(ExecEngine::Trace);
    assert_eq!(
        uncached.result,
        3 * body_len as i32,
        "pass two must see the patched body"
    );
    assert_eq!(superblock, uncached, "superblocks must be invisible");
    assert_eq!(trace, uncached, "traces must be invisible");
}

#[test]
fn a_patched_hot_loop_in_the_last_page_of_memory_traps_identically_past_its_end() {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    let patch_word = Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(1)).encode();
    let insns_per_page = PAGE_BYTES / 4;

    // Two pages of text ending exactly at the end of memory: a prologue
    // padded to fill the first, then the trace-promoting hot loop of
    // `patching_a_running_trace_mid_flight_is_observed` in the last page.
    // After the loop, a jump to the first address past memory must raise
    // the instruction-access trap under every tier.
    let cfg = SimConfig::default();
    let mem_end = cfg.mem_bytes as u32;
    let code_base = mem_end - 2 * PAGE_BYTES as u32;
    let l = insns_per_page; // loop head / patch target: the last page
    let target = code_base + 4 * l as u32;
    let mut insns = vec![Instruction::ldhi(Reg::R20, target >> 13)];
    insns.extend(
        imm_chunks(target & 0x1fff)
            .into_iter()
            .map(|c| Instruction::reg(Opcode::Add, Reg::R20, Reg::R20, c)),
    );
    insns.push(Instruction::ldhi(Reg::R21, patch_word >> 13));
    insns.extend(
        imm_chunks(patch_word & 0x1fff)
            .into_iter()
            .map(|c| Instruction::reg(Opcode::Add, Reg::R21, Reg::R21, c)),
    );
    insns.resize(l, Instruction::nop());
    insns.extend([
        Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(11)), // PATCHED at i == 100
        Instruction::reg(Opcode::Add, Reg::R17, Reg::R17, imm(1)),  // i += 1
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(100)),
        Instruction::jmpr(Cond::Ne, 3 * 4), // i != 100: skip the patch store
        Instruction::nop(),                 // delay slot
        Instruction::reg(Opcode::Stl, Reg::R21, Reg::R20, imm(0)), // text[L] = add #1
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(200)),
    ]);
    let j = insns.len();
    insns.extend([
        Instruction::jmpr(Cond::Lt, 4 * (l as i32 - j as i32)),
        Instruction::nop(), // delay slot
    ]);
    let exit = code_base + 4 * insns.len() as u32;
    insns.extend([
        Instruction::jmpr(Cond::Alw, (mem_end - exit) as i32), // off the end
        Instruction::nop(),                                    // delay slot
    ]);
    assert!(insns.len() <= 2 * insns_per_page, "two pages of text");
    let prog = Program::from_instructions(insns);

    let run = |engine| {
        let mut cpu = Cpu::new(SimConfig {
            engine,
            code_base,
            ..cfg.clone()
        });
        cpu.load_program(&prog).expect("program fits memory");
        let err = if engine == ExecEngine::Uncached {
            loop {
                match cpu.step() {
                    Ok(Halt::Running) => {}
                    Ok(Halt::Returned) => panic!("{engine:?}: halted instead of trapping"),
                    Err(e) => break e,
                }
            }
        } else {
            cpu.run().expect_err("the jump past memory traps")
        };
        (err, capture(&cpu))
    };
    let uncached = run(ExecEngine::Uncached);
    let (err, state) = &uncached;
    assert_eq!(state.result, 1200, "the patch was observed");
    assert!(
        matches!(err, ExecError::Mem { pc, .. } if *pc == mem_end),
        "{err:?}"
    );
    assert_eq!(
        err.trap_cause().map(|c| c.kind),
        Some(TrapKind::InstructionAccess)
    );
    assert_eq!(
        run(ExecEngine::Superblock),
        uncached,
        "superblocks must be invisible"
    );
    let trace = run(ExecEngine::Trace);
    assert_eq!(trace, uncached, "traces must be invisible");
    assert!(
        trace.1.stats.traces_built >= 2,
        "the loop must promote before the patch and re-promote after \
         (built {} traces)",
        trace.1.stats.traces_built
    );
}

#[test]
fn a_block_that_leaves_early_runs_its_whole_body_on_its_next_entry() {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    let words_per_page = PAGE_BYTES / 4;
    let cfg = SimConfig::default();
    assert_eq!(cfg.code_base % PAGE_BYTES as u32, 0, "page math below");

    // Page 0 is the prologue, page 1 the loop, page 2 the misaligned-load
    // handler plus a spare word of it the loop stores into. The loop's
    // one block leaves early twice every 16 iterations, and both times the
    // next iteration enters the same block again:
    // - i % 16 == 7: its load reads a misaligned address. The vectored
    //   fault runs the handler, which skips the load (`reti r25, #4`).
    // - i % 16 == 15: its store writes the handler's page, which is code
    //   that has run (and was rebuilt since the last such store), so the
    //   body ends through the code-dirty bail. The loop's own page is
    //   untouched, so its block stays alive.
    let handler = cfg.code_base + 2 * PAGE_BYTES as u32;
    let code_target = handler + 16;
    let iterations = 200;
    let mut insns = vec![
        Instruction::ldhi(Reg::R16, 1), // r16 = 0x2000: load base and data target
        Instruction::reg(Opcode::Add, Reg::R22, Reg::R16, imm(0)),
        Instruction::ldhi(Reg::R20, code_target >> 13),
    ];
    insns.extend(
        imm_chunks(code_target & 0x1fff)
            .into_iter()
            .map(|c| Instruction::reg(Opcode::Add, Reg::R20, Reg::R20, c)),
    );
    insns.push(Instruction::reg(
        Opcode::Xor,
        Reg::R21,
        Reg::R20,
        Short2::Reg(Reg::R22),
    ));
    insns.resize(words_per_page, Instruction::nop());
    let l = insns.len(); // loop head
    insns.extend([
        Instruction::reg(Opcode::Add, Reg::R17, Reg::R17, imm(1)), // i += 1
        // r18 = 1 iff i % 16 == 7.
        Instruction::reg(Opcode::Add, Reg::R18, Reg::R17, imm(8)),
        Instruction::reg(Opcode::And, Reg::R18, Reg::R18, imm(15)),
        Instruction::reg(Opcode::Add, Reg::R18, Reg::R18, imm(1)),
        Instruction::reg(Opcode::Srl, Reg::R18, Reg::R18, imm(4)),
        // r19 = the handler's page iff i % 16 == 15, else the data target.
        Instruction::reg(Opcode::And, Reg::R19, Reg::R17, imm(15)),
        Instruction::reg(Opcode::Add, Reg::R19, Reg::R19, imm(1)),
        Instruction::reg(Opcode::Srl, Reg::R19, Reg::R19, imm(4)),
        Instruction::reg(Opcode::Sub, Reg::R19, Reg::R0, Short2::Reg(Reg::R19)),
        Instruction::reg(Opcode::And, Reg::R19, Reg::R19, Short2::Reg(Reg::R21)),
        Instruction::reg(Opcode::Xor, Reg::R19, Reg::R19, Short2::Reg(Reg::R22)),
        Instruction::reg(Opcode::Stl, Reg::R17, Reg::R19, imm(0)), // code-dirty bail
        Instruction::reg(Opcode::Add, Reg::R23, Reg::R16, Short2::Reg(Reg::R18)),
        Instruction::reg(Opcode::Ldl, Reg::R24, Reg::R23, imm(0)), // misaligned fault
        Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, Short2::Reg(Reg::R24)),
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(iterations)),
    ]);
    let j = insns.len();
    insns.extend([
        Instruction::jmpr(Cond::Lt, 4 * (l as i32 - j as i32)),
        Instruction::nop(), // delay slot
        Instruction::ret(Reg::R0, imm(0)),
        Instruction::nop(), // return delay slot
    ]);
    assert!(insns.len() <= 2 * words_per_page, "the loop fits page 1");
    insns.resize(2 * words_per_page, Instruction::nop());
    insns.extend([Instruction::reti(Reg::R25, imm(4)), Instruction::nop()]);
    let prog = Program::from_instructions(insns);

    let run = |engine| {
        let mut cpu = Cpu::new(SimConfig {
            engine,
            ..cfg.clone()
        });
        cpu.load_program(&prog).expect("program fits memory");
        cpu.set_trap_handler(TrapKind::Misaligned, handler);
        if engine == ExecEngine::Uncached {
            while cpu.step().expect("the loop runs clean") == Halt::Running {}
        } else {
            cpu.run().expect("the loop runs clean");
        }
        let stored = cpu.mem.peek_u32(code_target).expect("in range");
        (stored, capture(&cpu))
    };
    let uncached = run(ExecEngine::Uncached);
    let (stored, state) = &uncached;
    assert_eq!(
        *stored, 191,
        "the last i % 16 == 15 store hit the code page"
    );
    assert_eq!(
        state.stats.trap_count(TrapKind::Misaligned),
        13,
        "one skipped load for each i % 16 == 7 in 1..=200"
    );
    let superblock = run(ExecEngine::Superblock);
    assert_eq!(superblock, uncached, "superblocks must be invisible");
    assert!(
        superblock.1.stats.blocks_entered >= iterations as u64,
        "the loop must run as a block"
    );
    assert_eq!(run(ExecEngine::Trace), uncached, "traces must be invisible");
}

/// Iterations of the two-armed loop, one array pair each.
const SWAP_ITERS: i32 = 200;

/// The two-armed loop's longest path through its trace: the loop head
/// (16 instructions), the swap (2) and the tail (6). The arm's path is the
/// head, its slot and the tail (22).
const SWAP_LONGEST_PATH: u64 = 24;

/// Where the two-armed loop's array and data word live.
const SWAP_ARRAY: u32 = 0x2000;

/// A bubble-style hot loop whose swap test goes both ways: iteration `i`
/// compares array pair `i - 1` (odd-even transposition, so the pairs are
/// independent) and swaps it when out of order. Every third pair is in
/// order, so the swap is the majority direction and the in-order skip past
/// it — the branch's taken direction — is hot enough to become the arm of
/// the loop's trace. The skip's delay slot is a load, so the arm's first
/// op can fault with the skip's target in flight.
///
/// With `traps`, two things happen every 16 iterations, on the main path
/// and in the arm alike:
/// - `i % 16 == 7`: the slot load is misaligned. The handler zeroes the
///   offset (global r7) and returns to the restart address, which the
///   lastpc rule makes the skip itself when the skip was taken.
/// - `i % 16 == 15`: the tail's store, which otherwise writes a data word,
///   writes the handler's page — code that has run since the last such
///   store — and leaves its block or trace through the code-dirty channel.
///
/// Returns the program, the handler's address and the code word stored to.
fn two_armed_loop(traps: bool) -> (Program, u32, u32) {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    let cfg = SimConfig::default();
    let words_per_page = PAGE_BYTES / 4;
    let handler = cfg.code_base + 2 * PAGE_BYTES as u32;
    let code_word = handler + 16;
    let mask = if traps { 15 } else { 0 };
    // Page 0: r16 = the array, r23 = the data word, r18 = r23 ^ code word.
    let mut insns = vec![
        Instruction::ldhi(Reg::R16, SWAP_ARRAY >> 13),
        Instruction::reg(Opcode::Add, Reg::R23, Reg::R16, imm(0x800)),
        Instruction::reg(Opcode::Add, Reg::R24, Reg::R0, imm(0)),
    ];
    insns.extend(
        imm_chunks(code_word)
            .into_iter()
            .map(|c| Instruction::reg(Opcode::Add, Reg::R24, Reg::R24, c)),
    );
    insns.push(Instruction::reg(
        Opcode::Xor,
        Reg::R18,
        Reg::R24,
        Short2::Reg(Reg::R23),
    ));
    insns.resize(words_per_page, Instruction::nop());
    // Page 1: the loop.
    let l = insns.len();
    insns.extend([
        Instruction::reg(Opcode::Add, Reg::R17, Reg::R17, imm(1)), // i += 1
        // r7 = 1 iff traps and i % 16 == 7.
        Instruction::reg(Opcode::Add, Reg::R7, Reg::R17, imm(8)),
        Instruction::reg(Opcode::And, Reg::R7, Reg::R7, imm(mask)),
        Instruction::reg(Opcode::Add, Reg::R7, Reg::R7, imm(1)),
        Instruction::reg(Opcode::Srl, Reg::R7, Reg::R7, imm(4)),
        // r19 = the code word iff traps and i % 16 == 15, else the data word.
        Instruction::reg(Opcode::And, Reg::R19, Reg::R17, imm(mask)),
        Instruction::reg(Opcode::Add, Reg::R19, Reg::R19, imm(1)),
        Instruction::reg(Opcode::Srl, Reg::R19, Reg::R19, imm(4)),
        Instruction::reg(Opcode::Sub, Reg::R19, Reg::R0, Short2::Reg(Reg::R19)),
        Instruction::reg(Opcode::And, Reg::R19, Reg::R19, Short2::Reg(Reg::R18)),
        Instruction::reg(Opcode::Xor, Reg::R19, Reg::R19, Short2::Reg(Reg::R23)),
        Instruction::reg(Opcode::Ldl, Reg::R20, Reg::R16, imm(0)),
        Instruction::reg(Opcode::Ldl, Reg::R21, Reg::R16, imm(4)),
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R20, Short2::Reg(Reg::R21)),
        Instruction::jmpr(Cond::Le, 4 * 4), // in order: skip the swap
        Instruction::reg(Opcode::Ldl, Reg::R22, Reg::R23, Short2::Reg(Reg::R7)), // slot
        Instruction::reg(Opcode::Stl, Reg::R21, Reg::R16, imm(0)), // swap
        Instruction::reg(Opcode::Stl, Reg::R20, Reg::R16, imm(4)),
        Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, Short2::Reg(Reg::R22)),
        Instruction::reg(Opcode::Stl, Reg::R17, Reg::R19, imm(0)), // code-dirty store
        Instruction::reg(Opcode::Add, Reg::R16, Reg::R16, imm(8)),
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R17, imm(SWAP_ITERS)),
    ]);
    let j = insns.len();
    insns.extend([
        Instruction::jmpr(Cond::Lt, 4 * (l as i32 - j as i32)),
        Instruction::nop(), // delay slot
        Instruction::ret(Reg::R0, imm(0)),
        Instruction::nop(), // return delay slot
    ]);
    assert!(insns.len() <= 2 * words_per_page, "the loop fits page 1");
    // Page 2: the handler, then the code word the stores aim at.
    insns.resize(2 * words_per_page, Instruction::nop());
    insns.extend([
        Instruction::reg(Opcode::Add, Reg::R7, Reg::R0, imm(0)),
        Instruction::reti(Reg::R25, imm(0)),
        Instruction::nop(),
        Instruction::nop(),
        Instruction::nop(), // the code word
    ]);
    let mut prog = Program::from_instructions(insns);
    let mut array = Vec::new();
    for k in 0..SWAP_ITERS as u32 {
        let pair = if k % 3 == 0 {
            [k, k + 1000]
        } else {
            [k + 1000, k]
        };
        for w in pair {
            array.extend_from_slice(&w.to_le_bytes());
        }
    }
    prog.add_data(SWAP_ARRAY, array);
    (prog, handler, code_word)
}

/// A machine loaded with [`two_armed_loop`] under `engine` and
/// `branch_model`.
fn two_armed_cpu(traps: bool, engine: ExecEngine, branch_model: BranchModel) -> (Cpu, u32) {
    let (prog, handler, code_word) = two_armed_loop(traps);
    let mut cpu = Cpu::new(SimConfig {
        engine,
        branch_model,
        ..SimConfig::default()
    });
    cpu.load_program(&prog).expect("program fits memory");
    cpu.set_trap_handler(TrapKind::Misaligned, handler);
    (cpu, code_word)
}

/// Runs [`two_armed_loop`] to its halt under every engine and
/// `branch_model`, holds the others to the uncached engine, and
/// returns the trace engine's final state and the code word's last value.
fn two_armed_law(traps: bool, branch_model: BranchModel) -> (FinalState, u32) {
    let run = |engine| {
        let (mut cpu, code_word) = two_armed_cpu(traps, engine, branch_model);
        if engine == ExecEngine::Uncached {
            while cpu.step().expect("the loop runs clean") == Halt::Running {}
        } else {
            cpu.run().expect("the loop runs clean");
        }
        let stored = cpu.mem.peek_u32(code_word).expect("in range");
        (capture(&cpu), stored)
    };
    let uncached = run(ExecEngine::Uncached);
    assert_eq!(
        run(ExecEngine::Superblock),
        uncached,
        "superblocks must be invisible"
    );
    let trace = run(ExecEngine::Trace);
    assert_eq!(trace, uncached, "traces must be invisible");
    assert!(
        trace.0.stats.trace_instructions * 2 > trace.0.stats.instructions,
        "the loop ran from its trace"
    );
    trace
}

#[test]
fn a_two_armed_hot_loop_runs_both_directions_inside_its_trace() {
    let (state, _) = two_armed_law(false, BranchModel::Delayed);
    assert_eq!(state.stats.trace_side_exits, 1, "only the loop exit");
    assert_eq!(state.stats.traces_built, 1);
}

#[test]
fn vectored_faults_and_code_stores_inside_an_arm_are_exact() {
    let (state, stored) = two_armed_law(true, BranchModel::Delayed);
    assert_eq!(
        state.stats.trap_count(TrapKind::Misaligned),
        13,
        "one fault for each i % 16 == 7 in 1..=200"
    );
    assert_eq!(stored, 191, "the last i % 16 == 15 store hit the code page");
}

#[test]
fn a_two_armed_hot_loop_is_exact_under_the_suspended_branch_model() {
    let (state, _) = two_armed_law(true, BranchModel::Suspended);
    assert!(
        state.stats.bubble_cycles > 0,
        "taken transfers paid bubbles"
    );
}

#[test]
fn a_two_armed_hot_loop_is_exact_under_any_step_n_chopping() {
    // Every chunk size up to one past the longest path: traces are entered
    // only when their longest path fits what is left of the chunk, and
    // each call must retire exactly what the uncached engine does.
    for n in 1..=SWAP_LONGEST_PATH + 1 {
        let chop = |engine| {
            let (mut cpu, _) = two_armed_cpu(true, engine, BranchModel::Delayed);
            let mut marks = Vec::new();
            while cpu.step_n(n).expect("the loop runs clean") == Halt::Running {
                marks.push((cpu.stats().instructions, cpu.pc()));
            }
            (marks, capture(&cpu))
        };
        let uncached = chop(ExecEngine::Uncached);
        for engine in [ExecEngine::Superblock, ExecEngine::Trace] {
            let got = chop(engine);
            assert_eq!(
                got.0, uncached.0,
                "{engine:?}, step_n({n}): a call went astray"
            );
            assert_eq!(got.1, uncached.1, "{engine:?}, step_n({n})");
        }
    }
}

#[test]
fn an_unhandled_fault_at_a_traces_first_op_keeps_the_last_pass_in_last_pc() {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    // An inner loop of 150 trips, run twice, that opens with a load
    // walking up to the end of memory. Its trace forms on the first run;
    // the second run enters it from outside, through a jump whose slot is
    // then the last instruction retired, and its 51st load faults with no
    // handler installed. The machine stops at the trace's first op, and
    // its `last_pc` must be the last instruction of the pass before, not
    // the jump's slot.
    let mem_end = SimConfig::default().mem_bytes as u32;
    let first = mem_end - 4 * 200;
    let mut insns = vec![Instruction::ldhi(Reg::R16, first >> 13)];
    insns.extend(
        imm_chunks(first & 0x1fff)
            .into_iter()
            .map(|c| Instruction::reg(Opcode::Add, Reg::R16, Reg::R16, c)),
    );
    let enter = insns.len();
    insns.extend([Instruction::nop(), Instruction::nop()]); // patched below
    let l = insns.len(); // the inner loop
    insns.extend([
        Instruction::reg(Opcode::Ldl, Reg::R20, Reg::R16, imm(0)),
        Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, Short2::Reg(Reg::R20)),
        Instruction::reg(Opcode::Add, Reg::R16, Reg::R16, imm(4)),
        Instruction::reg_scc(Opcode::Sub, Reg::R17, Reg::R17, imm(1)),
    ]);
    let j = insns.len();
    insns.extend([
        Instruction::jmpr(Cond::Gt, 4 * (l as i32 - j as i32)),
        Instruction::nop(), // delay slot
        Instruction::reg(Opcode::Add, Reg::R18, Reg::R18, imm(1)),
        Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R18, imm(2)),
        Instruction::jmpr(Cond::Lt, 4 * 3), // run it again
        Instruction::nop(),                 // delay slot
        Instruction::ret(Reg::R0, imm(0)),
        Instruction::nop(), // return delay slot
    ]);
    let outer = insns.len();
    insns.extend([
        Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, imm(150)),
        Instruction::jmpr(Cond::Alw, 4 * (l as i32 - outer as i32 - 1)),
        Instruction::reg(Opcode::Add, Reg::R19, Reg::R19, imm(1)), // delay slot
    ]);
    insns[enter] = Instruction::jmpr(Cond::Alw, 4 * (outer as i32 - enter as i32));
    let prog = Program::from_instructions(insns);
    let run = |engine| {
        let mut cpu = Cpu::new(SimConfig {
            engine,
            ..SimConfig::default()
        });
        cpu.load_program(&prog).expect("program fits memory");
        let err = if engine == ExecEngine::Uncached {
            loop {
                if let Err(e) = cpu.step() {
                    break e;
                }
            }
        } else {
            cpu.run().expect_err("the load past memory faults")
        };
        (err, capture(&cpu))
    };
    let uncached = run(ExecEngine::Uncached);
    assert!(
        matches!(uncached.0, ExecError::Mem { .. }),
        "{:?}",
        uncached.0
    );
    assert_eq!(uncached.1.stats.trap_count(TrapKind::DataAccess), 0);
    assert_eq!(uncached.1.result, 0, "memory past the program reads zero");
    assert_eq!(
        run(ExecEngine::Superblock),
        uncached,
        "superblocks must be invisible"
    );
    let trace = run(ExecEngine::Trace);
    assert_eq!(trace, uncached, "traces must be invisible");
    assert!(
        trace.1.stats.trace_entries > 100,
        "the loop ran from its trace"
    );
}

/// Where the fetch-trap cases install their handler: below the code base,
/// in a page of its own.
const FETCH_TRAP_HANDLER: u32 = 0x400;

/// One fetch-trap program: its text, the word patched over one of its
/// instructions (Program text holds only decodable instructions), the trap
/// a fetch raises in it, the PC that fetch is at, and a handler that
/// resumes the program past the trap.
struct FetchTrapCase {
    name: &'static str,
    text: Vec<Instruction>,
    patch: Option<(u32, u32)>,
    kind: TrapKind,
    fault_pc: u32,
    handler: Vec<Instruction>,
}

/// Runs `case` to its end under `engine`, through `run()` or one `step()`
/// at a time, with its handler installed or not.
fn run_fetch_trap(
    case: &FetchTrapCase,
    engine: ExecEngine,
    handled: bool,
    stepped: bool,
) -> (Result<(), ExecError>, FinalState) {
    let cfg = SimConfig {
        engine,
        ..SimConfig::default()
    };
    let code_base = cfg.code_base;
    let mut cpu = Cpu::new(cfg);
    let prog = Program::from_instructions(case.text.clone());
    cpu.load_program(&prog).expect("program fits memory");
    if let Some((index, word)) = case.patch {
        cpu.mem
            .load_image(code_base + 4 * index, &word.to_le_bytes())
            .expect("patch fits memory");
    }
    if handled {
        for (i, insn) in case.handler.iter().enumerate() {
            cpu.mem
                .load_image(
                    FETCH_TRAP_HANDLER + 4 * i as u32,
                    &insn.encode().to_le_bytes(),
                )
                .expect("handler fits memory");
        }
        cpu.set_trap_handler(case.kind, FETCH_TRAP_HANDLER);
    }
    let end = if stepped {
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
    (end, capture(&cpu))
}

#[test]
fn fetch_traps_are_the_same_on_every_tier() {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    let code_base = SimConfig::default().code_base;
    let undecodable = 0xffff_ffff;
    assert!(Instruction::decode(undecodable).is_err());
    // Each program leaves r26 = 6 if its handler resumed it where the
    // case says, and halts.
    let add = |d: Reg, s: Reg, v: i32| Instruction::reg(Opcode::Add, d, s, imm(v));
    let halt = [Instruction::ret(Reg::R0, imm(0)), Instruction::nop()];
    let skip = |by: i32| vec![Instruction::reti(Reg::R25, imm(by)), Instruction::nop()];
    let cases = [
        // A jump to an undecodable word: no block forms there, so the
        // one-step path raises the decode trap. The handler skips it.
        FetchTrapCase {
            name: "a jump to an undecodable word",
            text: [
                add(Reg::R16, Reg::R0, 5),
                Instruction::jmpr(Cond::Alw, 4 * 3),
                add(Reg::R17, Reg::R0, 1), // delay slot
                add(Reg::R16, Reg::R0, 99),
                Instruction::nop(), // patched: undecodable
                Instruction::reg(Opcode::Add, Reg::R26, Reg::R16, Short2::Reg(Reg::R17)),
            ]
            .into_iter()
            .chain(halt)
            .collect(),
            patch: Some((4, undecodable)),
            kind: TrapKind::Decode,
            fault_pc: code_base + 4 * 4,
            handler: skip(4),
        },
        // A jump into the middle of a word: the fetch is misaligned. The
        // handler resumes at the next word.
        FetchTrapCase {
            name: "a jump to a misaligned address",
            text: [
                add(Reg::R16, Reg::R0, 5),
                Instruction::jmpr(Cond::Alw, 4 * 3 + 2),
                add(Reg::R17, Reg::R0, 1), // delay slot
                add(Reg::R16, Reg::R0, 99),
                add(Reg::R16, Reg::R0, 77), // jumped into
                Instruction::reg(Opcode::Add, Reg::R26, Reg::R16, Short2::Reg(Reg::R17)),
            ]
            .into_iter()
            .chain(halt)
            .collect(),
            patch: None,
            kind: TrapKind::Misaligned,
            fault_pc: code_base + 4 * 4 + 2,
            handler: skip(2),
        },
        // An undecodable word in a taken branch's delay slot: the block
        // leaves the slot out and exits with the jump in flight, the
        // one-step path raises the trap, and the lastpc rule restarts at
        // the branch. The handler copies its own last word, a nop, over
        // the slot, and returns to the branch, which runs the new slot.
        FetchTrapCase {
            name: "an undecodable word in a taken branch's delay slot",
            text: [
                add(Reg::R16, Reg::R0, 5),
                Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R16, imm(5)),
                Instruction::jmpr(Cond::Eq, 4 * 3),
                Instruction::nop(), // delay slot, patched: undecodable
                add(Reg::R16, Reg::R0, 99),
                add(Reg::R26, Reg::R16, 1),
            ]
            .into_iter()
            .chain(halt)
            .collect(),
            patch: Some((3, undecodable)),
            kind: TrapKind::Decode,
            fault_pc: code_base + 4 * 3,
            handler: vec![
                Instruction::reg(
                    Opcode::Ldl,
                    Reg::R16,
                    Reg::R0,
                    imm(FETCH_TRAP_HANDLER as i32 + 12),
                ),
                Instruction::reg(Opcode::Stl, Reg::R16, Reg::R25, imm(4)),
                Instruction::reti(Reg::R25, imm(0)),
                Instruction::nop(), // delay slot, and the word copied
            ],
        },
    ];
    for case in &cases {
        for handled in [false, true] {
            let id = format!(
                "{} ({})",
                case.name,
                if handled { "handled" } else { "unhandled" }
            );
            let reference = run_fetch_trap(case, ExecEngine::Uncached, handled, true);
            let (end, state) = &reference;
            if handled {
                assert_eq!(*end, Ok(()), "{id}: the handler resumes the program");
                assert_eq!(state.result, 6, "{id}: resumed where the case says");
                assert_eq!(state.stats.trap_count(case.kind), 1, "{id}");
            } else {
                let err = end
                    .as_ref()
                    .expect_err("an unhandled fetch trap stops the run");
                let cause = err.trap_cause().expect("a fetch trap is vectorable");
                assert_eq!((cause.kind, cause.pc), (case.kind, case.fault_pc), "{id}");
            }
            for engine in [
                ExecEngine::Uncached,
                ExecEngine::Superblock,
                ExecEngine::Trace,
            ] {
                for stepped in [false, true] {
                    assert_eq!(
                        run_fetch_trap(case, engine, handled, stepped),
                        reference,
                        "{id}: {engine:?}, {}",
                        if stepped { "step()" } else { "run()" }
                    );
                }
            }
        }
    }
}
