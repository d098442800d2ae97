//! The execution engines' correctness law: acceleration is invisible.
//!
//! PR 4 added a predecoded instruction cache (`crates/core/src/icache.rs`),
//! PR 5 layered a superblock engine over it
//! (`crates/core/src/superblock.rs`): straight-line blocks formed over
//! the cached lines, chained block-to-block, with macro-op fusion inside,
//! and PR 9 added the trace tier (`crates/core/src/trace.rs`): hot chained
//! superblocks compiled to register-allocated trace IR with bulk
//! statistics applied at trace exit. All of that is pure derived state —
//! under any of the four engines (`uncached`, `cached`, `superblock`,
//! `trace`), every simulated observable must be bit-identical: final
//! result, `ExecStats` (instruction mix, cycles, traps, spills), the
//! entire memory image, the visible register window, and the window-file
//! position. This suite holds all engines to that bar eight ways:
//!
//! 1. deterministically across all eleven suite workloads (four-way),
//! 2. property-style under seed-driven fault injection (where traps,
//!    recovery stubs, and snapshot restores stress the invalidation
//!    paths),
//! 3. with a hand-assembled self-modifying program that overwrites its
//!    own already-executed-and-cached text,
//! 4. with a program that patches the middle of an already-chained hot
//!    loop while it runs — the store must kill the formed blocks,
//! 5. with a long-running hot loop that patches its own text only *after*
//!    the trace tier has compiled and entered a trace for it — the store
//!    side-exits the trace and kills it,
//! 6. by dirtying more registered code pages than the pending channel
//!    can hold, forcing the overflow → flush-everything fallback, and
//! 7. with a hot loop in the last page of memory — the far end of the
//!    caches' lazily grown page tables — that patches itself and then
//!    jumps past the end of memory, and
//! 8. with a hot loop whose block leaves early on some iterations, through
//!    a vectored fault and through a code-dirty store, and must run its
//!    whole body on the next entry.
//!
//! Snapshot checksums deliberately cover `SimConfig` (so a restore
//! cannot silently cross configurations), which makes them useless for
//! cross-engine comparison — the digest here is hand-rolled over the raw
//! memory pages instead.

use proptest::prelude::*;
use risc1::core::inject::{InjectConfig, InjectModes};
use risc1::core::{
    Cpu, ExecEngine, ExecError, ExecStats, Halt, Program, SimConfig, TrapKind,
    CODE_DIRTY_PENDING_CAP, PAGE_BYTES,
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
}

/// FNV-1a over every memory page. `Snapshot::checksum` is unusable here
/// because it folds in the `SimConfig` (which differs by construction
/// across the engines); this digest covers memory content only.
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
    }
}

/// Runs `prog` to halt under the given engine and captures the final
/// state. The cached, superblock and trace engines go through the
/// batched `Cpu::run` fast path, the uncached engine through the
/// one-at-a-time `step()` loop.
fn run_mode(prog: &Program, args: &[i32], engine: ExecEngine) -> FinalState {
    let cfg = SimConfig {
        engine,
        ..SimConfig::default()
    };
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

#[test]
fn every_workload_is_bit_identical_across_all_four_engines() {
    let mut fused_anywhere = 0u64;
    let mut traced_anywhere = 0u64;
    for w in all() {
        let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
        let uncached = run_mode(&prog, &w.small_args, ExecEngine::Uncached);
        let cached = run_mode(&prog, &w.small_args, ExecEngine::Cached);
        let superblock = run_mode(&prog, &w.small_args, ExecEngine::Superblock);
        let trace = run_mode(&prog, &w.small_args, ExecEngine::Trace);
        assert_eq!(cached, uncached, "{}: cache must be invisible", w.id);
        assert_eq!(
            superblock, uncached,
            "{}: superblocks must be invisible",
            w.id
        );
        assert_eq!(trace, uncached, "{}: traces must be invisible", w.id);
        // The superblock engine must actually engage (not silently fall
        // back to single-stepping), and must never fuse elsewhere.
        assert!(
            superblock.stats.blocks_entered > 0,
            "{}: superblock engine never entered a block",
            w.id
        );
        assert_eq!(uncached.stats.fused_total(), 0, "{}", w.id);
        assert_eq!(cached.stats.fused_total(), 0, "{}", w.id);
        fused_anywhere += superblock.stats.fused_total();
        traced_anywhere += trace.stats.trace_instructions;
        assert_eq!(
            superblock.stats.trace_instructions, 0,
            "{}: only the trace engine may run traces",
            w.id
        );
    }
    assert!(
        fused_anywhere > 0,
        "macro-op fusion never fired across the whole suite"
    );
    assert!(
        traced_anywhere > 0,
        "the trace tier never compiled and ran a trace across the whole suite"
    );
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
    /// event log) under all four engines. Injected memory writes land
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
        prop_assert_eq!(run(ExecEngine::Cached), uncached.clone());
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
    let uncached = run_mode(&prog, &[], ExecEngine::Uncached);
    let cached = run_mode(&prog, &[], ExecEngine::Cached);
    let superblock = run_mode(&prog, &[], ExecEngine::Superblock);
    let trace = run_mode(&prog, &[], ExecEngine::Trace);
    assert_eq!(
        cached.result, 10,
        "stale cached line survived the overwrite (20 = add ran twice)"
    );
    assert_eq!(cached, uncached, "cache must be invisible");
    assert_eq!(superblock, uncached, "superblocks must be invisible");
    assert_eq!(trace, uncached, "traces must be invisible");
}

#[test]
fn patching_the_middle_of_a_chained_hot_loop_is_observed() {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    let patch_word = Instruction::reg(Opcode::Add, Reg::R26, Reg::R26, imm(1)).encode();

    // A ten-iteration loop whose body opens with `add r26, r26, #11`.
    // The first five iterations run that original text — under the
    // superblock engine the loop is block-formed, chained, and hot by
    // then. On iteration five the loop stores `add r26, r26, #1` over
    // its own first instruction; iterations six through ten must execute
    // the patched text. acc = 5*11 + 5*1 = 60 only if the store kills
    // the already-chained blocks mid-flight; a stale block replays the
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
    let uncached = run_mode(&prog, &[], ExecEngine::Uncached);
    let cached = run_mode(&prog, &[], ExecEngine::Cached);
    let superblock = run_mode(&prog, &[], ExecEngine::Superblock);
    let trace = run_mode(&prog, &[], ExecEngine::Trace);
    assert_eq!(
        superblock.result, 60,
        "a stale superblock replayed the pre-patch loop body"
    );
    assert_eq!(cached, uncached, "cache must be invisible");
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
    let uncached = run_mode(&prog, &[], ExecEngine::Uncached);
    let trace = run_mode(&prog, &[], ExecEngine::Trace);
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
fn dirty_channel_overflow_falls_back_to_flushing_everything() {
    let imm = |v: i32| Short2::imm(v).expect("fits imm13");
    let insns_per_page = PAGE_BYTES / 4;
    // One more code page than the pending channel can hold, so patching
    // all of them mid-run must overflow the channel and trip the
    // flush-everything fallback rather than dropping invalidations.
    let body_pages = CODE_DIRTY_PENDING_CAP + 1;
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
    let cached = run(ExecEngine::Cached);
    let superblock = run(ExecEngine::Superblock);
    let trace = run(ExecEngine::Trace);
    assert_eq!(
        uncached.result,
        3 * body_len as i32,
        "pass two must see the patched body"
    );
    assert_eq!(cached, uncached, "cache must be invisible");
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
    assert_eq!(run(ExecEngine::Cached), uncached, "cache must be invisible");
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
    assert_eq!(run(ExecEngine::Cached), uncached, "cache must be invisible");
    let superblock = run(ExecEngine::Superblock);
    assert_eq!(superblock, uncached, "superblocks must be invisible");
    assert!(
        superblock.1.stats.blocks_entered >= iterations as u64,
        "the loop must run as a block"
    );
    assert_eq!(run(ExecEngine::Trace), uncached, "traces must be invisible");
}
