//! Host-side work, pinned to recorded constants.
//!
//! The block and trace tiers may change how they execute a program, but
//! not which blocks they enter or which traces they build: a change to
//! block formation, promotion or trace shape should be a decision, not a
//! side effect. So the host telemetry below is pinned per program, and a
//! change to the executors that keeps every count is one that kept the
//! tiers' shape. Beside the block and trace counters, each row pins the
//! instructions that retired on the one-step path, outside every block
//! body and trace: delay slots entered with a jump in flight, text no
//! block forms from, and blocks or traces longer than the step budget
//! left.
//!
//! The rows:
//!
//! 1. all eleven suite workloads at `small_args`, under the superblock and
//!    trace tiers, each under the delayed and the suspended branch model;
//! 2. (release builds only) the eleven `run_loops` and `run_calls` programs
//!    of the end-to-end benchmark at the scales it runs them at, under the
//!    default trace tier.
//!
//! Each machine is set up as the benchmark sets one up: `Cpu::new`,
//! `load_program`, `try_set_args`, `run`. A test that finds a pinned row
//! changed lists every row that moved and prints the table that would
//! record what ran, so a deliberate change re-records in one paste.

use risc1::core::{BranchModel, Cpu, ExecEngine, ExecStats, SimConfig};
use risc1::ir::{compile_risc, RiscOpts};
use risc1::workloads::{all, by_id_scaled, Workload};

/// The host telemetry of one run: what the block and trace tiers did, and
/// what ran outside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Host {
    blocks_entered: u64,
    block_instructions: u64,
    traces_built: u64,
    trace_entries: u64,
    trace_exits: u64,
    trace_side_exits: u64,
    trace_instructions: u64,
    /// Instructions retired on the one-step path, outside any block body or
    /// trace: `instructions − block_instructions − trace_instructions`.
    one_step: u64,
}

fn host(s: &ExecStats) -> Host {
    Host {
        blocks_entered: s.blocks_entered,
        block_instructions: s.block_instructions,
        traces_built: s.traces_built,
        trace_entries: s.trace_entries,
        trace_exits: s.trace_exits,
        trace_side_exits: s.trace_side_exits,
        trace_instructions: s.trace_instructions,
        one_step: s.instructions - s.block_instructions - s.trace_instructions,
    }
}

fn render(h: &Host) -> String {
    format!(
        "Host {{ blocks_entered: {}, block_instructions: {}, traces_built: {}, \
         trace_entries: {}, trace_exits: {}, trace_side_exits: {}, trace_instructions: {}, \
         one_step: {} }}",
        h.blocks_entered,
        h.block_instructions,
        h.traces_built,
        h.trace_entries,
        h.trace_exits,
        h.trace_side_exits,
        h.trace_instructions,
        h.one_step
    )
}

/// Compiles workload `w` and runs it with `args` to halt on a fresh machine
/// under `engine` and `branch_model`.
fn run(w: &Workload, args: &[i32], engine: ExecEngine, branch_model: BranchModel) -> Host {
    let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
    let mut cpu = Cpu::new(SimConfig {
        engine,
        branch_model,
        fuel: 2_000_000_000,
        ..SimConfig::default()
    });
    cpu.load_program(&prog).expect("program fits memory");
    cpu.try_set_args(args).expect("register arguments");
    cpu.run().expect("runs clean");
    host(&cpu.stats())
}

/// Fails if any row of `got` differs from `want`, listing every row that
/// moved, then the table `table` renders from `got`.
fn check<K: std::fmt::Debug + PartialEq>(
    want: &[(K, Host)],
    got: &[(K, Host)],
    table: impl Fn(&[(K, Host)]) -> String,
) {
    let mut moved: Vec<String> = want
        .iter()
        .zip(got)
        .filter(|((wk, wh), (gk, gh))| wk != gk || wh != gh)
        .map(|((wk, w), (gk, g))| {
            format!(
                "{gk:?}:\n  pinned {wk:?} {}\n  ran    {}",
                render(w),
                render(g)
            )
        })
        .collect();
    if want.len() != got.len() {
        moved.push(format!("{} rows pinned, {} ran", want.len(), got.len()));
    }
    assert!(
        moved.is_empty(),
        "{} row(s) moved:\n{}\n\nIf the change is deliberate, replace the table with:\n\n{}",
        moved.len(),
        moved.join("\n"),
        table(got)
    );
}

const TIERS: [ExecEngine; 2] = [ExecEngine::Superblock, ExecEngine::Trace];
const MODELS: [BranchModel; 2] = [BranchModel::Delayed, BranchModel::Suspended];

/// Per suite workload at `small_args`, tier and branch model: its host
/// telemetry.
#[rustfmt::skip]
const SMALL: [((&str, ExecEngine, BranchModel), Host); 44] = [
    (("e_string_search", ExecEngine::Superblock, BranchModel::Delayed), Host { blocks_entered: 46979, block_instructions: 182591, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("e_string_search", ExecEngine::Superblock, BranchModel::Suspended), Host { blocks_entered: 46979, block_instructions: 182591, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("e_string_search", ExecEngine::Trace, BranchModel::Delayed), Host { blocks_entered: 1020, block_instructions: 4371, traces_built: 9, trace_entries: 5777, trace_exits: 0, trace_side_exits: 41, trace_instructions: 178191, one_step: 29 }),
    (("e_string_search", ExecEngine::Trace, BranchModel::Suspended), Host { blocks_entered: 1020, block_instructions: 4371, traces_built: 9, trace_entries: 5777, trace_exits: 0, trace_side_exits: 41, trace_instructions: 178191, one_step: 29 }),
    (("f_bit_test", ExecEngine::Superblock, BranchModel::Delayed), Host { blocks_entered: 9212, block_instructions: 43403, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("f_bit_test", ExecEngine::Superblock, BranchModel::Suspended), Host { blocks_entered: 9212, block_instructions: 43403, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("f_bit_test", ExecEngine::Trace, BranchModel::Delayed), Host { blocks_entered: 324, block_instructions: 1873, traces_built: 5, trace_entries: 3854, trace_exits: 236, trace_side_exits: 296, trace_instructions: 41234, one_step: 296 }),
    (("f_bit_test", ExecEngine::Trace, BranchModel::Suspended), Host { blocks_entered: 324, block_instructions: 1873, traces_built: 5, trace_entries: 3854, trace_exits: 236, trace_side_exits: 296, trace_instructions: 41234, one_step: 296 }),
    (("h_linked_list", ExecEngine::Superblock, BranchModel::Delayed), Host { blocks_entered: 3270, block_instructions: 13241, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("h_linked_list", ExecEngine::Superblock, BranchModel::Suspended), Host { blocks_entered: 3270, block_instructions: 13241, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("h_linked_list", ExecEngine::Trace, BranchModel::Delayed), Host { blocks_entered: 694, block_instructions: 3729, traces_built: 2, trace_entries: 435, trace_exits: 0, trace_side_exits: 26, trace_instructions: 9487, one_step: 25 }),
    (("h_linked_list", ExecEngine::Trace, BranchModel::Suspended), Host { blocks_entered: 694, block_instructions: 3729, traces_built: 2, trace_entries: 435, trace_exits: 0, trace_side_exits: 26, trace_instructions: 9487, one_step: 25 }),
    (("sieve", ExecEngine::Superblock, BranchModel::Delayed), Host { blocks_entered: 5445, block_instructions: 25099, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("sieve", ExecEngine::Superblock, BranchModel::Suspended), Host { blocks_entered: 5445, block_instructions: 25099, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("sieve", ExecEngine::Trace, BranchModel::Delayed), Host { blocks_entered: 707, block_instructions: 3114, traces_built: 9, trace_entries: 2107, trace_exits: 0, trace_side_exits: 144, trace_instructions: 21932, one_step: 53 }),
    (("sieve", ExecEngine::Trace, BranchModel::Suspended), Host { blocks_entered: 707, block_instructions: 3114, traces_built: 9, trace_entries: 2107, trace_exits: 0, trace_side_exits: 144, trace_instructions: 21932, one_step: 53 }),
    (("bubble", ExecEngine::Superblock, BranchModel::Delayed), Host { blocks_entered: 3017, block_instructions: 22336, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("bubble", ExecEngine::Superblock, BranchModel::Suspended), Host { blocks_entered: 3017, block_instructions: 22336, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("bubble", ExecEngine::Trace, BranchModel::Delayed), Host { blocks_entered: 601, block_instructions: 4176, traces_built: 2, trace_entries: 716, trace_exits: 0, trace_side_exits: 38, trace_instructions: 18122, one_step: 38 }),
    (("bubble", ExecEngine::Trace, BranchModel::Suspended), Host { blocks_entered: 601, block_instructions: 4176, traces_built: 2, trace_entries: 716, trace_exits: 0, trace_side_exits: 38, trace_instructions: 18122, one_step: 38 }),
    (("qsort", ExecEngine::Superblock, BranchModel::Delayed), Host { blocks_entered: 1192, block_instructions: 7987, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("qsort", ExecEngine::Superblock, BranchModel::Suspended), Host { blocks_entered: 1192, block_instructions: 7987, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("qsort", ExecEngine::Trace, BranchModel::Delayed), Host { blocks_entered: 1089, block_instructions: 7256, traces_built: 5, trace_entries: 25, trace_exits: 2, trace_side_exits: 6, trace_instructions: 727, one_step: 4 }),
    (("qsort", ExecEngine::Trace, BranchModel::Suspended), Host { blocks_entered: 1089, block_instructions: 7256, traces_built: 5, trace_entries: 25, trace_exits: 2, trace_side_exits: 6, trace_instructions: 727, one_step: 4 }),
    (("intmm", ExecEngine::Superblock, BranchModel::Delayed), Host { blocks_entered: 3390, block_instructions: 14804, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("intmm", ExecEngine::Superblock, BranchModel::Suspended), Host { blocks_entered: 3390, block_instructions: 14804, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("intmm", ExecEngine::Trace, BranchModel::Delayed), Host { blocks_entered: 3301, block_instructions: 14492, traces_built: 3, trace_entries: 37, trace_exits: 0, trace_side_exits: 19, trace_instructions: 293, one_step: 19 }),
    (("intmm", ExecEngine::Trace, BranchModel::Suspended), Host { blocks_entered: 3301, block_instructions: 14492, traces_built: 3, trace_entries: 37, trace_exits: 0, trace_side_exits: 19, trace_instructions: 293, one_step: 19 }),
    (("puzzle", ExecEngine::Superblock, BranchModel::Delayed), Host { blocks_entered: 1315, block_instructions: 6931, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("puzzle", ExecEngine::Superblock, BranchModel::Suspended), Host { blocks_entered: 1315, block_instructions: 6931, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("puzzle", ExecEngine::Trace, BranchModel::Delayed), Host { blocks_entered: 1238, block_instructions: 6565, traces_built: 5, trace_entries: 31, trace_exits: 3, trace_side_exits: 22, trace_instructions: 356, one_step: 10 }),
    (("puzzle", ExecEngine::Trace, BranchModel::Suspended), Host { blocks_entered: 1238, block_instructions: 6565, traces_built: 5, trace_entries: 31, trace_exits: 3, trace_side_exits: 22, trace_instructions: 356, one_step: 10 }),
    (("acker", ExecEngine::Superblock, BranchModel::Delayed), Host { blocks_entered: 8543, block_instructions: 38978, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("acker", ExecEngine::Superblock, BranchModel::Suspended), Host { blocks_entered: 8543, block_instructions: 38978, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("acker", ExecEngine::Trace, BranchModel::Delayed), Host { blocks_entered: 8543, block_instructions: 38978, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("acker", ExecEngine::Trace, BranchModel::Suspended), Host { blocks_entered: 8543, block_instructions: 38978, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("fib", ExecEngine::Superblock, BranchModel::Delayed), Host { blocks_entered: 1630, block_instructions: 5822, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("fib", ExecEngine::Superblock, BranchModel::Suspended), Host { blocks_entered: 1630, block_instructions: 5822, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("fib", ExecEngine::Trace, BranchModel::Delayed), Host { blocks_entered: 1630, block_instructions: 5822, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("fib", ExecEngine::Trace, BranchModel::Suspended), Host { blocks_entered: 1630, block_instructions: 5822, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("hanoi", ExecEngine::Superblock, BranchModel::Delayed), Host { blocks_entered: 1791, block_instructions: 6652, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("hanoi", ExecEngine::Superblock, BranchModel::Suspended), Host { blocks_entered: 1791, block_instructions: 6652, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("hanoi", ExecEngine::Trace, BranchModel::Delayed), Host { blocks_entered: 1791, block_instructions: 6652, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
    (("hanoi", ExecEngine::Trace, BranchModel::Suspended), Host { blocks_entered: 1791, block_instructions: 6652, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 0 }),
];

#[test]
fn suite_programs_at_small_args_keep_their_block_and_trace_counts() {
    let mut got = Vec::new();
    for w in all() {
        for engine in TIERS {
            for model in MODELS {
                got.push(((w.id, engine, model), run(&w, &w.small_args, engine, model)));
            }
        }
    }
    check(&SMALL, &got, |rows| {
        let mut out = String::from(
            "/// Per suite workload at `small_args`, tier and branch model: its host\n\
             /// telemetry.\n\
             #[rustfmt::skip]\n\
             const SMALL: [((&str, ExecEngine, BranchModel), Host); 44] = [\n",
        );
        for ((id, engine, model), h) in rows {
            out += &format!(
                "    ((\"{id}\", ExecEngine::{engine:?}, BranchModel::{model:?}), {}),\n",
                render(h)
            );
        }
        out + "];\n"
    });
}

/// The end-to-end benchmark's `run_loops` and then `run_calls` programs,
/// each with the scale the benchmark runs it at.
const BENCHMARK: [(&str, u32); 11] = [
    ("e_string_search", 1),
    ("f_bit_test", 4),
    ("h_linked_list", 8),
    ("sieve", 8),
    ("bubble", 7),
    ("intmm", 8),
    ("acker", 1),
    ("fib", 10),
    ("hanoi", 8),
    ("qsort", 30),
    ("puzzle", 20),
];

/// Each program of [`BENCHMARK`] at its scale, and its host telemetry
/// under the default trace tier.
#[rustfmt::skip]
const SCALED: [((&str, u32), Host); 11] = [
    (("e_string_search", 1), Host { blocks_entered: 8899, block_instructions: 41132, traces_built: 11, trace_entries: 93150, trace_exits: 2, trace_side_exits: 424, trace_instructions: 2879674, one_step: 410 }),
    (("f_bit_test", 4), Host { blocks_entered: 331, block_instructions: 1914, traces_built: 5, trace_entries: 259910, trace_exits: 19935, trace_side_exits: 19995, trace_instructions: 2897314, one_step: 19997 }),
    (("h_linked_list", 8), Host { blocks_entered: 1311, block_instructions: 6184, traces_built: 9, trace_entries: 95642, trace_exits: 811, trace_side_exits: 881, trace_instructions: 2113555, one_step: 875 }),
    (("sieve", 8), Host { blocks_entered: 7466, block_instructions: 48830, traces_built: 8, trace_entries: 290489, trace_exits: 1479, trace_side_exits: 8585, trace_instructions: 3090783, one_step: 2065 }),
    (("bubble", 7), Host { blocks_entered: 2789, block_instructions: 14334, traces_built: 12, trace_entries: 130482, trace_exits: 3, trace_side_exits: 748, trace_instructions: 3620512, one_step: 772 }),
    (("intmm", 8), Host { blocks_entered: 454523, block_instructions: 2011694, traces_built: 9, trace_entries: 2910, trace_exits: 930, trace_side_exits: 107, trace_instructions: 72506, one_step: 112 }),
    (("acker", 1), Host { blocks_entered: 603069, block_instructions: 2756233, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 6 }),
    (("fib", 10), Host { blocks_entered: 849750, block_instructions: 3034819, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 3 }),
    (("hanoi", 8), Host { blocks_entered: 917502, block_instructions: 3407862, traces_built: 0, trace_entries: 0, trace_exits: 0, trace_side_exits: 0, trace_instructions: 0, one_step: 6 }),
    (("qsort", 30), Host { blocks_entered: 477465, block_instructions: 2976308, traces_built: 15, trace_entries: 32322, trace_exits: 475, trace_side_exits: 334, trace_instructions: 733013, one_step: 323 }),
    (("puzzle", 20), Host { blocks_entered: 349176, block_instructions: 1562554, traces_built: 6, trace_entries: 3723, trace_exits: 901, trace_side_exits: 1606, trace_instructions: 105392, one_step: 735 }),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: the benchmark scales retire tens of millions of instructions"
)]
fn benchmark_programs_at_their_scales_keep_their_block_and_trace_counts() {
    let got: Vec<((&str, u32), Host)> = BENCHMARK
        .iter()
        .map(|&(id, scale)| {
            let w = by_id_scaled(id, scale).expect("suite id");
            let h = run(&w, &w.args, ExecEngine::Trace, BranchModel::Delayed);
            ((id, scale), h)
        })
        .collect();
    check(&SCALED, &got, |rows| {
        let mut out = String::from(
            "/// Each program of [`BENCHMARK`] at its scale, and its host telemetry\n\
             /// under the default trace tier.\n\
             #[rustfmt::skip]\n\
             const SCALED: [((&str, u32), Host); 11] = [\n",
        );
        for ((id, scale), h) in rows {
            out += &format!("    ((\"{id}\", {scale}), {}),\n", render(h));
        }
        out + "];\n"
    });
}
