//! Trace compilation: hot superblock sequences lowered to
//! register-allocated trace IR (the `--engine trace` tier).
//!
//! The block executor still pays, per retired instruction, a window-map
//! register translation and an opcode dispatch over a prepared line, and
//! per block a lookup and a settle. All of it is loop-invariant for a hot
//! loop: the CWP cannot move inside a trace (window-moving ops end trace
//! formation), so register names resolve to *flat physical store indices*
//! once, at build time; the path is fixed, so a whole pass settles as one
//! precomputed bulk update applied at trace exit, however many blocks it
//! crosses; and the surviving dispatch is one match per op over an IR whose
//! operands are already virtual register numbers or interned immediates.
//!
//! ## The IR
//!
//! The ops a hot loop runs most are [`TOp`] variants named by their
//! operation: non-flag `Add Sub And Or Xor Sll Srl Sra`, flag-setting
//! `AddScc` and `SubScc`, `Ldl` and `Stl`, listed once in
//! [`with_specialized!`]. The executor runs each with its opcode a
//! constant, so the shared semantics ([`crate::exec::alu`] and the
//! executor's load and store helpers) fold to the one operation and the op
//! is dispatched once, on its variant. Every other opcode of those kinds
//! takes the generic `Alu`, `AluScc`, `Load` or `Store`, which carry it;
//! `Const` (LDHI), `Branch` and `Jump` complete the set. The executor,
//! `Cpu::exec_trace_burst`, is a function of its own, never inlined into
//! the block loop that calls it, so the two loops get separate register
//! allocation and code layout; inlined there, the trace loop ran 8–20%
//! slower.
//!
//! ## Formation
//!
//! Superblocks carry an exit-direction profile (see
//! [`crate::superblock::Block`]), bumped on every completed execution under
//! the trace engine; its sum is the block's promotion heat. When a block's
//! heat reaches [`HOT_THRESHOLD`]
//! the builder walks the blocks from its entry: each block's prepared lines
//! are lowered in order (classification comes from the spec table's
//! [`Lowering`] column, so the builder holds no opcode list of its own),
//! conditional transfers take the direction their profile favours, and the
//! walk extends across up to [`MAX_TRACE_BLOCKS`] blocks until it loops
//! back to the entry (a *self-loop* trace — the valuable kind: iterations
//! re-run the IR without reloading or writing back the virtual register
//! file), reaches an excluded instruction, or runs out of profiled
//! successors. Non-looping traces shorter than [`MIN_STRAIGHT_INSNS`] are
//! declined — the entry/exit register traffic would cost more than the
//! dispatch they save. A declined build is never retried for the same hot
//! block (the trigger fires on exact heat equality), so cold spots cannot
//! thrash the builder.
//!
//! ## Arms
//!
//! A self-loop trace over a loop whose body branches on data both ways
//! (a sort's swap test) would side-exit on every pass that goes the
//! minority way, and be demoted for it. So when the main path closes on its
//! entry, each conditional branch on it whose block profile shows the
//! minority direction taking at least 1/[`ARM_MIN_SHARE`] of the exits is
//! also lowered that way, as an **arm**: from the branch's delay slot, with
//! that direction's pending target, along block profiles back to the entry,
//! duplicating any tail it shares with the main path (the shape of Gal and
//! Franz's trace trees). An arm that does not close — it leaves the loop,
//! reaches an excluded op, or runs past a cap — is rolled back, and its
//! branch stays a guard. Arms do not nest, and a trace holds at most
//! [`MAX_ARMS`]. A [`TOp::Branch`] names its arm's first op; the executor
//! walks the ops by index and enters the arm on a mismatch. Each path — the
//! main path, or the main prefix up to a forking branch, that branch in the
//! other direction and then the arm — carries its own bulk aggregate and
//! final `last_pc` ([`TPath`]), and a side exit replays the committed
//! prefix of the path it was on. A block profile is taken once, while the
//! block warms up, so a trace about to be demoted because passes keep
//! ending at one of its guards is first rebuilt with an arm forced there
//! ([`Trace::note_run`]).
//!
//! ## Guards and side exits
//!
//! Three ops can leave a trace early, each restoring *exactly* the state
//! the superblock engine would have at the same architectural point:
//! loads/stores that fault (the trace funnels the very same `StepEvent`
//! through `Cpu::finish_exec`), stores that hit the code-dirty channel
//! (exit after the store so a fresh build sees the new bytes), and
//! direction guards on conditional branches (the guard *is* the branch:
//! resume at the fall-through with the actual pending target). Per-op
//! static metadata ([`TMeta`]) carries everything those exits need;
//! nothing is recomputed from memory. Every exit settles its statistics
//! the one way [`Trace::replay`] does: the committed prefix of its path,
//! then the op it left at as one adjusted [`TMeta`] — a dirtying store
//! whole, a guard's branch in its actual direction ([`TMeta::directed`],
//! the method that gives an arm its fork), a faulting access with its
//! retirement alone ([`TMeta::faulted`]). A path's bulk aggregate is the
//! same replay summed ([`TAgg::from_meta`]), so the executor retires
//! nothing by hand. The block executor's early exits follow the same rules
//! ([`crate::retire`]).
//!
//! ## Where traces live
//!
//! A trace lives in the block it is entered at
//! ([`Block::trace`](crate::superblock::Block)), so there is no trace
//! cache: entering a block finds its trace with the same lookup. Attaching
//! a trace registers its block on every page the trace's ops were lowered
//! from ([`BlockCache::attach`]), which makes invalidation the block cache's
//! job — a write to any page the trace read kills the block and its trace
//! together, and a clear or compaction drops both. A demoted trace stays on
//! its block, whose heat has already passed the promotion threshold, so
//! nothing rebuilds in its place until the block dies. Like the blocks,
//! traces are *derived* state — absent from snapshots, journals, and
//! checksums — and the four-engine equivalence law in `interp_equivalence`
//! holds with no new escape hatches.

use crate::config::{BranchModel, SimConfig};
use crate::line::Line;
use crate::mem::{MemError, Memory};
use crate::retire::{replay_meta, TMeta};
use crate::stats::ExecStats;
use crate::superblock::BlockCache;
use crate::windows::WindowFile;
use risc1_isa::spec::{self, Lowering};
use risc1_isa::{Cond, Opcode, Short2};

/// Completed block executions before promotion to a trace. Compiling a
/// trace costs on the order of a thousand retired instructions' worth of
/// host time, so promotion must be earned: a block entered 64 times is
/// overwhelmingly loop flesh that will be entered thousands more, while
/// warm-but-cold-tail entries (short recursion bodies, init code) never
/// repay the build and are left to the superblock tier.
pub(crate) const HOT_THRESHOLD: u32 = 64;

/// A conditional branch on a self-loop trace's main path gets an arm when
/// its minority direction took at least `1 / ARM_MIN_SHARE` of its block's
/// profiled exits. A loop exit (one exit per trip) stays a guard.
const ARM_MIN_SHARE: u64 = 8;

/// Most arms per trace.
const MAX_ARMS: usize = 2;

/// Most paths through one trace: the main path and its arms.
pub(crate) const MAX_PATHS: usize = 1 + MAX_ARMS;

/// Most blocks one walk (the main path, or one arm) may span.
const MAX_TRACE_BLOCKS: usize = 8;

/// Hard cap on instructions per trace, arms included.
const MAX_TRACE_INSNS: usize = 256;

// A branch names its arm's first op in a `u8`.
const _: () = assert!(MAX_TRACE_INSNS <= 1 << 8);

/// Non-looping traces shorter than this are declined: the virtual register
/// load/writeback at entry/exit would outweigh the dispatch saved.
const MIN_STRAIGHT_INSNS: usize = 32;

/// Size of the executor's value array. Operand indices are `u8`, so a
/// 256-slot array makes every `v[idx as usize]` access provably in bounds —
/// the hot loop carries no bounds checks at all.
pub(crate) const VREG_SLOTS: usize = 256;

/// Highest vreg index the builder will allocate (leaving the array's
/// headroom as proof of in-boundedness). Registers take at most 36 slots
/// (9 writable globals + 26 windowed + the sink); the rest intern the
/// trace's distinct immediates as entry-loaded constants.
const VREG_LIMIT: usize = VREG_SLOTS;

/// Virtual register index of the write sink for r0 destinations (never
/// loaded, never written back). r0 *reads* come from an interned zero
/// constant instead — the sink slot holds garbage after any r0-dest write.
const SINK: u8 = 0;

/// Unproductive entries tolerated before a trace is disabled — the escape
/// valve for traces whose visits can't amortise the per-entry register
/// traffic: a self-loop trace over a loop whose trip count collapsed to
/// one, or a straight trace built along a profile the workload has since
/// stopped following. Left enabled, such a trace pays entry/replay cost on
/// every visit and *loses* to the superblock engine.
const STRIKE_LIMIT: u8 = 4;

/// Calls `$then!` with the trace IR's specialized ops, after the caller's
/// own tokens (in brackets): the ops a hot loop runs most, each a [`TOp`]
/// variant named by its operation. `alu` lists the opcodes specialized
/// without `scc`, `scc` the variant and opcode of those specialized with
/// it, `load` and `store` the specialized access opcodes. This list is the
/// only place they are named: [`TOp`] and its lowering constructors
/// (`trace_ir!`) and the executor's dispatch ([`match_top!`], in
/// `Cpu::exec_trace_burst`) expand from it.
///
/// Specializing is the point of the IR: a specialized op runs
/// [`crate::exec::alu`], `load_op` or `store_op` with its opcode a
/// constant, so the inlined semantics fold to the one operation and the op
/// dispatches once, on its variant. Every other ALU, load or store opcode
/// lowers to the generic `Alu`, `AluScc`, `Load` or `Store`, which carry
/// their opcode and dispatch on it a second time. The list follows the
/// dynamic mix: over perfbench's six `run_loops` programs at their
/// benchmark scales, ADD is 48% of the retired instructions, SUB with
/// `scc` 11%, SLL 5.6%, LDL 3.9% and AND and SUB 2.1% each, while no ALU,
/// load or store op left generic reaches 1.6% (LDBU 1.5%, STB 1.4%).
macro_rules! with_specialized {
    ($then:ident! { $($args:tt)* }) => {
        $then! {
            [$($args)*]
            alu: [Add, Sub, And, Or, Xor, Sll, Srl, Sra]
            scc: [AddScc = Add, SubScc = Sub]
            load: [Ldl]
            store: [Stl]
        }
    };
}
pub(crate) use with_specialized;

/// Defines [`TOp`] and its lowering constructors from the specialized list
/// ([`with_specialized!`]).
macro_rules! trace_ir {
    (
        []
        alu: [$($alu:ident),*]
        scc: [$($scc:ident = $scc_op:ident),*]
        load: [$($ld:ident),*]
        store: [$($st:ident),*]
    ) => {
        /// One trace-IR operation. All register operands are virtual
        /// indices into the run's value array; immediates were interned
        /// into entry-loaded constant slots at build time, so the hot loop
        /// never branches on operand kind. Everything address- or
        /// direction-static was folded at build time, the opcode of a
        /// specialized op included.
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum TOp {
            $(
                #[doc = concat!("`", stringify!($alu), " d, a, b` that latches no flags.")]
                $alu {
                    /// Destination vreg.
                    d: u8,
                    /// First operand vreg.
                    a: u8,
                    /// Second operand vreg.
                    b: u8,
                },
            )*
            $(
                #[doc = concat!("`", stringify!($scc_op), " d, a, b` with `scc` set: latches flags.")]
                $scc {
                    /// Destination vreg.
                    d: u8,
                    /// First operand vreg.
                    a: u8,
                    /// Second operand vreg.
                    b: u8,
                },
            )*
            $(
                #[doc = concat!("`", stringify!($ld), " d, (a + b)`; a fault side-exits.")]
                $ld {
                    /// Destination vreg.
                    d: u8,
                    /// Base operand vreg.
                    a: u8,
                    /// Offset operand vreg.
                    b: u8,
                },
            )*
            $(
                #[doc = concat!(
                    "`", stringify!($st), " data, (a + b)`; a fault or a code-dirty hit side-exits."
                )]
                $st {
                    /// Data operand vreg.
                    data: u8,
                    /// Base operand vreg.
                    a: u8,
                    /// Offset operand vreg.
                    b: u8,
                },
            )*
            /// Any other ALU/shift op that does not latch flags: the flag
            /// computation is dead code here.
            Alu {
                /// The opcode (dispatched via [`crate::exec::alu`]).
                op: Opcode,
                /// Destination vreg.
                d: u8,
                /// First operand vreg.
                a: u8,
                /// Second operand vreg.
                b: u8,
            },
            /// Any other ALU/shift op with the `scc` bit set: latches flags.
            AluScc {
                /// The opcode.
                op: Opcode,
                /// Destination vreg.
                d: u8,
                /// First operand vreg.
                a: u8,
                /// Second operand vreg.
                b: u8,
            },
            /// LDHI — the value is a build-time constant.
            Const {
                /// Destination vreg.
                d: u8,
                /// `imm19 << 13`.
                value: u32,
            },
            /// Any other load; faults side-exit.
            Load {
                /// The load opcode (selects width/extension).
                op: Opcode,
                /// Destination vreg.
                d: u8,
                /// Base operand vreg.
                a: u8,
                /// Offset operand vreg.
                b: u8,
            },
            /// Any other store; faults and code-dirty hits side-exit.
            Store {
                /// The store opcode (selects width).
                op: Opcode,
                /// Data operand vreg.
                data: u8,
                /// Base operand vreg.
                a: u8,
                /// Offset operand vreg.
                b: u8,
            },
            /// Conditional PC-relative branch with a statically expected
            /// direction — the guard *is* the branch: agreeing with the
            /// profile continues the trace; disagreeing enters the branch's
            /// arm, or, without one, retires the branch with its actual
            /// direction and side-exits.
            Branch {
                /// The condition, evaluated on the live flags.
                cond: Cond,
                /// Static target (`pc + imm19`).
                target: u32,
                /// The profiled direction the trace was built along.
                expect: bool,
                /// Index of the first op of the arm that runs the other
                /// direction, or 0 for none (op 0 always starts the main
                /// path).
                arm: u8,
            },
            /// Unconditional (ALW) JMPR: pure static glue — the successor
            /// is baked into the trace, only the accounting remains.
            Jump,
        }

        impl TOp {
            /// The op an ALU line with opcode `op` and `scc` bit `scc`
            /// lowers to: its specialized variant, if listed, else the
            /// generic one.
            fn alu(op: Opcode, scc: bool, d: u8, a: u8, b: u8) -> TOp {
                match (op, scc) {
                    $((Opcode::$alu, false) => TOp::$alu { d, a, b },)*
                    $((Opcode::$scc_op, true) => TOp::$scc { d, a, b },)*
                    (op, false) => TOp::Alu { op, d, a, b },
                    (op, true) => TOp::AluScc { op, d, a, b },
                }
            }

            /// The op a load line lowers to.
            fn load(op: Opcode, d: u8, a: u8, b: u8) -> TOp {
                match op {
                    $(Opcode::$ld => TOp::$ld { d, a, b },)*
                    op => TOp::Load { op, d, a, b },
                }
            }

            /// The op a store line lowers to.
            fn store(op: Opcode, data: u8, a: u8, b: u8) -> TOp {
                match op {
                    $(Opcode::$st => TOp::$st { data, a, b },)*
                    op => TOp::Store { op, data, a, b },
                }
            }
        }

        /// The name of every [`TOp`] variant the lowering can emit, for
        /// tests that check a trace holds them all.
        #[cfg(test)]
        const TOP_VARIANTS: &[&str] = &[
            $(stringify!($alu),)*
            $(stringify!($scc),)*
            $(stringify!($ld),)*
            $(stringify!($st),)*
            "Alu", "AluScc", "Const", "Load", "Store", "Branch", "Jump",
        ];
    };
}
with_specialized!(trace_ir! {});

/// Expands to the executor's one `match` over a [`TOp`], through
/// [`with_specialized!`]. The caller writes the arm of each op kind once —
/// `alu`, `alu_scc`, `load` and `store`, each naming the bindings of its
/// opcode and operands — and then its other arms. Each specialized variant
/// gets its kind's arm with the opcode bound to its constant; the generic
/// variant of the kind gets the same arm with the opcode it carries:
///
/// ```text
/// with_specialized!(match_top! {
///     *op;
///     alu(op, d, a, b) => { … }
///     alu_scc(op, d, a, b) => { … }
///     load(op, d, a, b) => { … }
///     store(op, data, a, b) => { … }
///     TOp::Const { d, value } => …,
///     …
/// })
/// ```
macro_rules! match_top {
    (
        [
            $scrutinee:expr;
            alu($aop:ident, $ad:ident, $aa:ident, $ab:ident) => $alu_arm:block
            alu_scc($sop:ident, $sd:ident, $sa:ident, $sb:ident) => $scc_arm:block
            load($lop:ident, $ldd:ident, $la:ident, $lb:ident) => $load_arm:block
            store($stop:ident, $data:ident, $ta:ident, $tb:ident) => $store_arm:block
            $($rest:tt)*
        ]
        alu: [$($alu:ident),*]
        scc: [$($scc:ident = $scc_op:ident),*]
        load: [$($ld:ident),*]
        store: [$($st:ident),*]
    ) => {
        match $scrutinee {
            $($crate::trace::TOp::$alu { d: $ad, a: $aa, b: $ab } => {
                let $aop = risc1_isa::Opcode::$alu;
                $alu_arm
            })*
            $crate::trace::TOp::Alu { op: $aop, d: $ad, a: $aa, b: $ab } => $alu_arm
            $($crate::trace::TOp::$scc { d: $sd, a: $sa, b: $sb } => {
                let $sop = risc1_isa::Opcode::$scc_op;
                $scc_arm
            })*
            $crate::trace::TOp::AluScc { op: $sop, d: $sd, a: $sa, b: $sb } => $scc_arm
            $($crate::trace::TOp::$ld { d: $ldd, a: $la, b: $lb } => {
                let $lop = risc1_isa::Opcode::$ld;
                $load_arm
            })*
            $crate::trace::TOp::Load { op: $lop, d: $ldd, a: $la, b: $lb } => $load_arm
            $($crate::trace::TOp::$st { data: $data, a: $ta, b: $tb } => {
                let $stop = risc1_isa::Opcode::$st;
                $store_arm
            })*
            $crate::trace::TOp::Store { op: $stop, data: $data, a: $ta, b: $tb } => $store_arm
            $($rest)*
        }
    };
}
pub(crate) use match_top;

/// Why a trace run stopped — produced by the executor's hot loop in
/// [`crate::cpu`], consumed by its exit epilogue.
#[derive(Debug)]
pub(crate) enum TExit {
    /// Every op ran; exit at the trace's precomputed final state.
    Complete,
    /// The store at op `k` completed but hit the code-dirty channel; exit
    /// *after* it so a fresh build sees the new bytes.
    Dirty {
        /// Index of the store.
        k: usize,
    },
    /// The branch at op `k` disagreed with its profiled direction; it
    /// retires with the actual direction and the trace exits at the
    /// fall-through.
    Mismatch {
        /// Index of the branch.
        k: usize,
        /// The actual direction.
        taken: bool,
        /// The (static) branch target.
        target: u32,
    },
    /// The access at op `k` faulted before committing.
    Fault {
        /// Index of the faulting op.
        k: usize,
        /// The faulting address.
        addr: u32,
        /// The underlying memory fault.
        err: MemError,
    },
}

/// The precomputed bulk statistics update of one complete trace pass — the
/// sum of what `exec_prepared` would have counted per instruction.
#[derive(Debug, Clone)]
pub(crate) struct TAgg {
    /// Retired instructions (= trace length).
    pub instructions: u64,
    /// Cycles including expected-path bubbles.
    pub cycles: u64,
    /// Suspended-model bubbles alone.
    pub bubble_cycles: u64,
    /// Successful loads.
    pub data_reads: u64,
    /// Successful stores.
    pub data_writes: u64,
    /// Taken transfers on the expected path.
    pub taken_transfers: u64,
    /// Ops executed in delay slots.
    pub delay_slots: u64,
    /// Of those, canonical NOPs.
    pub delay_slot_nops: u64,
    /// Opcode histogram, compact.
    pub opcodes: Vec<(Opcode, u32)>,
}

impl TAgg {
    /// Applies `n` complete passes in one update — the self-loop executor
    /// counts iterations locally and settles them all here, so the hot loop
    /// touches no statistics at all.
    pub(crate) fn apply_n(&self, stats: &mut ExecStats, n: u64) {
        stats.instructions += self.instructions * n;
        stats.cycles += self.cycles * n;
        stats.bubble_cycles += self.bubble_cycles * n;
        stats.data_reads += self.data_reads * n;
        stats.data_writes += self.data_writes * n;
        stats.taken_transfers += self.taken_transfers * n;
        stats.delay_slots += self.delay_slots * n;
        stats.delay_slot_nops += self.delay_slot_nops * n;
        for &(op, c) in &self.opcodes {
            stats.opcode_counts.add(op, u64::from(c) * n);
        }
    }

    /// The aggregate of retiring `meta` in order: what [`replay_meta`]
    /// counts for it.
    fn from_meta(meta: &[TMeta]) -> TAgg {
        let mut s = ExecStats::new();
        replay_meta(&mut s, meta);
        TAgg {
            instructions: s.instructions,
            cycles: s.cycles,
            bubble_cycles: s.bubble_cycles,
            data_reads: s.data_reads,
            data_writes: s.data_writes,
            taken_transfers: s.taken_transfers,
            delay_slots: s.delay_slots,
            delay_slot_nops: s.delay_slot_nops,
            opcodes: s
                .opcode_counts
                .iter()
                .map(|(op, n)| (op, n as u32))
                .collect(),
        }
    }
}

/// One path through a trace: the main path, or an arm — the main path's
/// ops before a forking branch, that branch retired in the arm's
/// direction, then the arm's own ops back to the entry.
#[derive(Debug, Clone)]
pub(crate) struct TPath {
    /// The path's own ops are `start..end` in [`Trace::ops`]; the main
    /// path's start at 0.
    pub start: usize,
    /// One past the path's last op.
    pub end: usize,
    /// For an arm: the index of the main-path branch it forks from, and
    /// that branch's metadata as the arm retires it.
    pub fork: Option<(usize, TMeta)>,
    /// Instructions one complete pass retires.
    pub insns: u32,
    /// The complete-pass bulk stats update.
    pub agg: TAgg,
    /// `last_pc` after a complete pass (the path's last op's address).
    pub final_last_pc: u32,
}

/// One compiled trace, held by the block it is entered at.
#[derive(Debug, Clone)]
pub(crate) struct Trace {
    /// The CWP the register flattening was computed for; entering at any
    /// other CWP must miss (flat indices differ per window).
    pub cwp: u8,
    /// The IR body.
    pub ops: Box<[TOp]>,
    /// Per-op side-exit metadata, same length as `ops`.
    pub meta: Box<[TMeta]>,
    /// The main path, then one path per arm in op order.
    pub paths: Box<[TPath]>,
    /// `(vreg, flat store index)` loads performed at trace entry — every
    /// allocated vreg except the sink, so any side exit can write back
    /// architecturally-current values.
    pub live_in: Box<[(u8, u16)]>,
    /// `(vreg, flat store index)` writebacks at any exit — the written
    /// subset of `live_in`.
    pub live_out: Box<[(u8, u16)]>,
    /// `(vreg, value)` constants materialised at trace entry: the interned
    /// short-2 immediates, the r0 zero, loaded once — loop-invariant, so
    /// the op stream addresses them like any other vreg.
    pub consts: Box<[(u8, u32)]>,
    /// Instructions retired by one complete pass along the longest path.
    pub insns: u32,
    /// Whether the trace's fall-out lands exactly on its own entry with no
    /// jump in flight — iterations then re-run the IR without touching the
    /// window file.
    pub self_loop: bool,
    /// PC after a complete pass.
    pub final_pc: u32,
    /// Delayed-jump target in flight after a complete pass.
    pub final_pending: Option<u32>,
    /// Cleared after [`STRIKE_LIMIT`] unproductive runs: the block's body
    /// runs in its place from then on, and nothing rebuilds or thrashes.
    pub enabled: bool,
    /// Unproductive-run counter; productive runs pay one back.
    pub strikes: u8,
    /// Complete passes over the trace's life.
    pub passes: u64,
    /// Addresses of the main-path branches rebuilds of this trace have
    /// given, or tried to give, an arm (see [`Trace::note_run`]).
    pub forced: Vec<u32>,
}

impl Trace {
    /// The path whose own ops begin at op `start`: the arm a branch names.
    #[inline]
    pub(crate) fn arm_at(&self, start: usize) -> usize {
        self.paths
            .iter()
            .position(|p| p.start == start)
            .expect("a branch names the first op of an arm")
    }

    /// Replays the statistics of `path`'s committed prefix before op `k`,
    /// one of the path's own ops, then `last`: op `k` as the side exit
    /// there retires it. What a side exit at `k` owes.
    pub(crate) fn replay(&self, stats: &mut ExecStats, path: usize, k: usize, last: TMeta) {
        let p = &self.paths[path];
        if let Some((b, m)) = p.fork {
            replay_meta(stats, &self.meta[..b]);
            replay_meta(stats, &[m]);
        }
        replay_meta(stats, &self.meta[p.start..k]);
        replay_meta(stats, &[last]);
    }

    /// The address of the instruction `path` retires just before op `k`,
    /// or `None` at the main path's first op.
    pub(crate) fn prev_pc(&self, path: usize, k: usize) -> Option<u32> {
        let p = &self.paths[path];
        if k > p.start {
            Some(self.meta[k - 1].pc)
        } else {
            p.fork.map(|(b, _)| self.meta[b].pc)
        }
    }

    /// Settles one run's productivity (the executor judges what counts —
    /// a self-loop trace must complete at least two passes on any of its
    /// paths, a straight trace must retire at least half its body): a
    /// productive run pays a strike back; an unproductive one earns one,
    /// and at [`STRIKE_LIMIT`] the trace is demoted for good — entering it
    /// repeatedly costs more than the superblock path it displaced.
    ///
    /// One exception: a block profile is taken once, at promotion, so a
    /// branch that went one way then and both ways since (a sort's swap
    /// test, early and late in the sort) gets no arm and its guard starts
    /// ending passes. So when the run that earns a self-loop trace its last
    /// strike side-exited at `guard`, a main-path guard that no rebuild has
    /// tried yet, fewer than [`MAX_ARMS`] have been tried, and the trace
    /// has earned a rebuild — [`HOT_THRESHOLD`] complete passes over its
    /// life, counting the run's `passes` — the trace stays enabled and this
    /// returns the branch's address: the caller rebuilds the trace with an
    /// arm tried there ([`rebuild`]).
    pub(crate) fn note_run(
        &mut self,
        productive: bool,
        passes: u64,
        guard: Option<usize>,
    ) -> Option<u32> {
        self.passes += passes;
        if productive {
            self.strikes = self.strikes.saturating_sub(1);
            return None;
        }
        self.strikes += 1;
        if self.strikes < STRIKE_LIMIT {
            return None;
        }
        let earned = self.self_loop && self.passes >= u64::from(HOT_THRESHOLD);
        let fork = guard
            .filter(|&k| earned && k < self.paths[0].end && self.forced.len() < MAX_ARMS)
            .map(|k| self.meta[k].pc)
            .filter(|pc| !self.forced.contains(pc));
        if fork.is_none() {
            self.enabled = false;
        }
        fork
    }
}

/// Attempts to compile a trace entered at the block at `idx` for the
/// register file's current window, and gives it to that block. Returns
/// whether it did: callers never retry for the same heat trigger, so a
/// decline (the entry is not worth, or not possible, to trace) is cheap
/// and final.
pub(crate) fn promote(
    mem: &mut Memory,
    blocks: &mut BlockCache,
    regs: &WindowFile,
    cfg: &SimConfig,
    idx: u32,
) -> bool {
    let start = blocks.block(idx).start;
    let Some(t) = compile(blocks, regs, cfg, regs.cwp(), start, Vec::new()) else {
        return false;
    };
    blocks.attach(mem, idx, t);
    true
}

/// Rebuilds the trace of the block at `idx`, for its own entry and window,
/// with an arm tried at the branch at `fork` as well as at those earlier
/// rebuilds tried. Returns whether the rebuild gained that arm and replaced
/// the trace; if not, the old one is demoted.
pub(crate) fn rebuild(
    mem: &mut Memory,
    blocks: &mut BlockCache,
    regs: &WindowFile,
    cfg: &SimConfig,
    idx: u32,
    fork: u32,
) -> bool {
    let start = blocks.block(idx).start;
    let old = blocks.trace(idx).expect("a rebuild replaces a trace");
    let mut forced = old.forced.clone();
    forced.push(fork);
    let forks_at = |t: &Trace| {
        t.paths
            .iter()
            .any(|p| p.fork.is_some_and(|(b, _)| t.meta[b].pc == fork))
    };
    match compile(blocks, regs, cfg, old.cwp, start, forced) {
        Some(t) if forks_at(&t) => {
            blocks.attach(mem, idx, t);
            true
        }
        _ => {
            blocks.trace_mut(idx).expect("checked above").enabled = false;
            false
        }
    }
}

/// Compiles the trace entered at `start` for window `cwp`: the main path
/// along block profiles, then, if it closes on `start`, its arms — at the
/// branches whose both directions are hot and at the `forced` addresses.
fn compile(
    blocks: &BlockCache,
    regs: &WindowFile,
    cfg: &SimConfig,
    cwp: u8,
    start: u32,
    forced: Vec<u32>,
) -> Option<Trace> {
    let mut b = Builder::new(cwp, regs, cfg, &forced);
    b.cursor = start;
    let self_loop = b.walk(blocks, start, start, 0, true);
    if self_loop {
        b.lower_arms(blocks, start);
    }
    let mut t = b.finish(self_loop)?;
    t.forced = forced;
    Some(t)
}

/// Whether the exit profile `[fall-through, taken]` of a branch's block
/// shows both directions hot enough to give the branch an arm.
fn both_hot(profile: [u32; 2]) -> bool {
    let [fall, taken] = profile.map(u64::from);
    let minority = fall.min(taken);
    minority > 0 && minority * ARM_MIN_SHARE >= fall + taken
}

/// A main-path branch that may get an arm: where to resume lowering in the
/// other direction.
struct Fork {
    /// The branch's op index.
    k: usize,
    /// Entry PC of the branch's block.
    block: u32,
    /// Lines of that block up to and including the branch.
    skip: usize,
}

/// Build-time state: the virtual register allocator plus the static replica
/// of the PC dance (`cursor`/`pending` evolve exactly as `pc`/
/// `pending_target` would).
struct Builder<'a> {
    cwp: u8,
    regs: &'a WindowFile,
    suspended: bool,
    ops: Vec<TOp>,
    meta: Vec<TMeta>,
    /// flat store index → (vreg, written) for every allocated register.
    alloc: Vec<(u16, u8, bool)>,
    /// Interned immediates: value → vreg, loaded once at entry.
    consts: Vec<(u32, u8)>,
    next_vreg: u8,
    cursor: u32,
    pending: Option<u32>,
    /// Addresses of branches to fork whatever their profile says.
    forced: &'a [u32],
    /// Main-path branches to try arms at, in op order.
    forks: Vec<Fork>,
    /// Lowered arms: each one's first op, and its fork as [`TPath::fork`].
    arms: Vec<(usize, (usize, TMeta))>,
}

impl<'a> Builder<'a> {
    fn new(cwp: u8, regs: &'a WindowFile, cfg: &SimConfig, forced: &'a [u32]) -> Builder<'a> {
        Builder {
            cwp,
            regs,
            suspended: cfg.branch_model == BranchModel::Suspended,
            ops: Vec::new(),
            meta: Vec::new(),
            alloc: Vec::new(),
            consts: Vec::new(),
            next_vreg: SINK + 1,
            cursor: 0,
            pending: None,
            forced,
            forks: Vec::new(),
            arms: Vec::new(),
        }
    }

    /// Lowers the blocks from the one entered at `pc`, skipping its first
    /// `skip` lines, along their profiled directions. Returns `true` when
    /// the walk closes on `start` with no jump in flight; `false` when it
    /// reaches an op it cannot lower, a block that was never built, a taken
    /// transfer whose slot was left out, or a cap — what it lowered stays.
    /// The `main` path records the branches whose both directions are hot,
    /// or that are forced, for [`Builder::lower_arms`]; an arm gives up as
    /// soon as it enters a block it has lowered whole, since each block
    /// leads on the same way every time: it is circling an inner loop and
    /// would only run into the block cap.
    fn walk(
        &mut self,
        blocks: &BlockCache,
        start: u32,
        mut pc: u32,
        mut skip: usize,
        main: bool,
    ) -> bool {
        let mut whole: Vec<u32> = Vec::new();
        for _ in 0..MAX_TRACE_BLOCKS {
            if !main {
                if whole.contains(&pc) {
                    return false;
                }
                if skip == 0 {
                    whole.push(pc);
                }
            }
            let Some(bidx) = blocks.lookup(pc) else {
                return false;
            };
            let block = blocks.block(bidx);
            let profile = block.hot_exits;
            // The block body *is* the decoded line stream, so the walk
            // re-decodes nothing from memory and — unlike a fresh decode,
            // which would run to the block's end — stops at the trace cap.
            // This keeps declined promotion attempts cheap.
            for (i, line) in block.lines().iter().enumerate().skip(skip) {
                if self.meta.len() >= MAX_TRACE_INSNS || !self.push(line, profile) {
                    return false;
                }
                if main
                    && matches!(self.ops.last(), Some(TOp::Branch { .. }))
                    && (both_hot(profile)
                        || self.forced.contains(&self.meta[self.meta.len() - 1].pc))
                {
                    self.forks.push(Fork {
                        k: self.ops.len() - 1,
                        block: pc,
                        skip: i + 1,
                    });
                }
            }
            skip = 0;
            if self.pending.is_some() {
                // The block ended on a taken transfer whose slot was left
                // out: the trace exits with the jump still in flight and
                // the single-step path runs the slot.
                return false;
            }
            pc = self.cursor;
            if pc == start {
                return true;
            }
        }
        false
    }

    /// Lowers an arm for each recorded fork, in op order, until
    /// [`MAX_ARMS`] have formed: the fork's delay slot with the other
    /// direction's pending target, then blocks along their profiles back to
    /// `start`. An arm that does not close is rolled back, allocations and
    /// all, and its branch stays a guard. Called once the main path has
    /// closed on `start`, which is where it leaves the PC dance.
    fn lower_arms(&mut self, blocks: &BlockCache, start: u32) {
        for fork in std::mem::take(&mut self.forks) {
            if self.arms.len() == MAX_ARMS {
                break;
            }
            let TOp::Branch { target, expect, .. } = self.ops[fork.k] else {
                unreachable!("forks are branches");
            };
            let first = self.ops.len();
            let (alloc, consts, next_vreg) =
                (self.alloc.clone(), self.consts.len(), self.next_vreg);
            self.cursor = self.meta[fork.k].pc.wrapping_add(4);
            self.pending = (!expect).then_some(target);
            if self.walk(blocks, start, fork.block, fork.skip, false) {
                if let TOp::Branch { arm, .. } = &mut self.ops[fork.k] {
                    *arm = first as u8;
                }
                let retired = self.meta[fork.k].directed(!expect, self.suspended);
                self.arms.push((first, (fork.k, retired)));
            } else {
                self.ops.truncate(first);
                self.meta.truncate(first);
                self.alloc = alloc;
                self.consts.truncate(consts);
                self.next_vreg = next_vreg;
            }
        }
        self.cursor = start;
        self.pending = None;
    }

    /// The vreg backing flat store index `flat`, allocating on first touch.
    /// Callers checked headroom (`push` reserves three slots per op), so
    /// allocation cannot overflow the operand index space.
    fn vreg_for(&mut self, flat: u16, write: bool) -> u8 {
        for entry in &mut self.alloc {
            if entry.0 == flat {
                entry.2 |= write;
                return entry.1;
            }
        }
        let v = self.next_vreg;
        debug_assert!((v as usize) < VREG_LIMIT, "vreg file overflow");
        self.next_vreg += 1;
        self.alloc.push((flat, v, write));
        v
    }

    /// The vreg holding constant `value`, interning on first use. The
    /// constants are loop-invariant: loaded once at trace entry, read like
    /// any register thereafter — the hot loop never branches on operand
    /// kind.
    fn const_vreg(&mut self, value: u32) -> u8 {
        if let Some(&(_, v)) = self.consts.iter().find(|&&(c, _)| c == value) {
            return v;
        }
        let v = self.next_vreg;
        debug_assert!((v as usize) < VREG_LIMIT, "vreg file overflow");
        self.next_vreg += 1;
        self.consts.push((value, v));
        v
    }

    fn read_reg(&mut self, r: risc1_isa::Reg) -> u8 {
        if r.is_zero() {
            // Not the sink: r0-dest writes leave garbage there, while the
            // interned zero is never written.
            return self.const_vreg(0);
        }
        let flat = self.regs.flat_index(self.cwp as usize, r);
        self.vreg_for(flat, false)
    }

    fn write_reg(&mut self, r: risc1_isa::Reg) -> u8 {
        if r.is_zero() {
            return SINK;
        }
        let flat = self.regs.flat_index(self.cwp as usize, r);
        self.vreg_for(flat, true)
    }

    fn read_s2(&mut self, s2: Short2) -> u8 {
        match s2 {
            Short2::Reg(r) => self.read_reg(r),
            Short2::Imm(v) => self.const_vreg(v as i32 as u32),
        }
    }

    /// Lowers one prepared line at the cursor. Returns `false` (consuming
    /// nothing) when the op ends trace formation; the cursor and pending
    /// state then already describe the continuation point.
    fn push(&mut self, line: &Line, profile: [u32; 2]) -> bool {
        let lowering = spec::entry(line.op).lowering();
        if lowering == Lowering::Excluded {
            return false;
        }
        // An op allocates at most three fresh vregs; reserving them up
        // front keeps every operand index inside the executor's value
        // array by construction.
        if self.next_vreg as usize + 3 > VREG_LIMIT {
            return false;
        }
        let pc = self.cursor;
        let pending_before = self.pending;
        let mut taken = false;
        let mut new_target = None;
        let op = match lowering {
            Lowering::Alu => {
                let a = self.read_reg(line.rs1);
                let b = self.read_s2(line.s2);
                let d = self.write_reg(line.dest);
                TOp::alu(line.op, line.scc, d, a, b)
            }
            Lowering::Const => {
                let d = self.write_reg(line.dest);
                TOp::Const {
                    d,
                    value: line.ldhi_value(),
                }
            }
            Lowering::Load => {
                let a = self.read_reg(line.rs1);
                let b = self.read_s2(line.s2);
                let d = self.write_reg(line.dest);
                TOp::load(line.op, d, a, b)
            }
            Lowering::Store => {
                let a = self.read_reg(line.rs1);
                let b = self.read_s2(line.s2);
                let data = self.read_reg(line.dest);
                TOp::store(line.op, data, a, b)
            }
            Lowering::RelBranch => {
                if !line.long {
                    return false;
                }
                debug_assert!(
                    pending_before.is_none(),
                    "collect_lines never puts a transfer in a delay slot"
                );
                let target = pc.wrapping_add(line.imm19 as u32);
                let expect = match line.cond {
                    Cond::Alw => true,
                    Cond::Nvr => false,
                    _ => profile[1] > profile[0],
                };
                taken = expect;
                new_target = expect.then_some(target);
                if line.cond == Cond::Alw {
                    TOp::Jump
                } else {
                    TOp::Branch {
                        cond: line.cond,
                        target,
                        expect,
                        arm: 0,
                    }
                }
            }
            Lowering::Excluded => unreachable!(),
        };
        self.ops.push(op);
        self.meta
            .push(TMeta::of_line(line, pc, pending_before).directed(taken, self.suspended));
        // The static replica of the executor's PC dance.
        let next = pending_before.unwrap_or_else(|| pc.wrapping_add(4));
        self.pending = new_target;
        self.cursor = next;
        true
    }

    /// The path whose own ops are `start..end`, forking (for an arm) from
    /// the main-path branch `fork` names: its length, aggregate and final
    /// `last_pc` are those of the ops it retires, in order.
    fn path(&self, start: usize, end: usize, fork: Option<(usize, TMeta)>) -> TPath {
        let mut retired: Vec<TMeta> = Vec::new();
        if let Some((b, m)) = fork {
            retired.extend_from_slice(&self.meta[..b]);
            retired.push(m);
        }
        retired.extend_from_slice(&self.meta[start..end]);
        TPath {
            start,
            end,
            fork,
            insns: retired.len() as u32,
            agg: TAgg::from_meta(&retired),
            final_last_pc: retired.last().map_or(0, |m| m.pc),
        }
    }

    fn finish(self, self_loop: bool) -> Option<Trace> {
        if self.meta.is_empty() || !(self_loop || self.meta.len() >= MIN_STRAIGHT_INSNS) {
            return None;
        }
        debug_assert!(!self_loop || self.pending.is_none());
        let live_in: Vec<(u8, u16)> = self.alloc.iter().map(|&(f, v, _)| (v, f)).collect();
        let live_out: Vec<(u8, u16)> = self
            .alloc
            .iter()
            .filter(|&&(_, _, w)| w)
            .map(|&(f, v, _)| (v, f))
            .collect();
        let consts: Vec<(u8, u32)> = self.consts.iter().map(|&(c, v)| (v, c)).collect();
        // The main path runs up to the first arm, each arm up to the next.
        let starts = std::iter::once(0).chain(self.arms.iter().map(|&(first, _)| first));
        let ends = self.arms.iter().map(|&(first, _)| first);
        let forks = std::iter::once(None).chain(self.arms.iter().map(|&(_, fork)| Some(fork)));
        let paths: Vec<TPath> = starts
            .zip(ends.chain([self.meta.len()]))
            .zip(forks)
            .map(|((start, end), fork)| self.path(start, end, fork))
            .collect();
        Some(Trace {
            cwp: self.cwp,
            insns: paths.iter().map(|p| p.insns).max().unwrap_or(0),
            ops: self.ops.into(),
            meta: self.meta.into(),
            paths: paths.into(),
            live_in: live_in.into(),
            live_out: live_out.into(),
            consts: consts.into(),
            self_loop,
            final_pc: self.cursor,
            final_pending: self.pending,
            enabled: true,
            strikes: 0,
            passes: 0,
            forced: Vec::new(),
        })
    }
}

/// Builds the blocks from `start` along `taken_exit`, saturates their heat
/// profiles that way, then promotes `start`'s block, for tests. Returns
/// that block when it took a trace.
#[cfg(test)]
fn build_hot(
    mem: &mut Memory,
    blocks: &mut BlockCache,
    regs: &WindowFile,
    cfg: &SimConfig,
    start: u32,
    taken_exit: bool,
) -> Option<u32> {
    let mut pc = start;
    for _ in 0..MAX_TRACE_BLOCKS {
        let Some(idx) = blocks.lookup(pc).or_else(|| blocks.build(mem, pc, cfg)) else {
            break;
        };
        for _ in 0..HOT_THRESHOLD {
            blocks.bump_heat(idx, taken_exit);
        }
        let b = blocks.block(idx);
        pc = if taken_exit {
            let transfer = b.end.wrapping_sub(if b.insns() >= 2 { 8 } else { 4 });
            let line = crate::cpu::fetch(mem, transfer).ok()?;
            transfer.wrapping_add(line.imm19 as u32)
        } else {
            b.end
        };
        if pc == start {
            break;
        }
    }
    let idx = blocks.lookup(start)?;
    promote(mem, blocks, regs, cfg, idx).then_some(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecEngine;
    use crate::cpu::{Cpu, ExecError, Halt};
    use crate::mem::{CodeDirty, PAGE_BYTES};
    use crate::program::Program;
    use crate::trap::TrapKind;
    use risc1_isa::{Instruction, Reg};

    fn add(dest: Reg, rs1: Reg, imm: i32) -> u32 {
        Instruction::reg(Opcode::Add, dest, rs1, Short2::imm(imm).unwrap()).encode()
    }

    fn sub_scc(dest: Reg, rs1: Reg, imm: i32) -> u32 {
        Instruction::reg_scc(Opcode::Sub, dest, rs1, Short2::imm(imm).unwrap()).encode()
    }

    fn mem_with(words: &[u32]) -> Memory {
        let mut mem = Memory::new(4 * PAGE_BYTES);
        for (i, &w) in words.iter().enumerate() {
            mem.write_u32(4 * i as u32, w).unwrap();
        }
        mem
    }

    /// A two-block self loop: count down r16 from the entry, branch back
    /// while not equal.
    fn countdown_loop() -> Vec<u32> {
        vec![
            add(Reg::R17, Reg::R17, 3),               // 0x0
            sub_scc(Reg::R16, Reg::R16, 1),           // 0x4
            Instruction::jmpr(Cond::Ne, -8).encode(), // 0x8 → 0x0
            add(Reg::R18, Reg::R18, 1),               // 0xc (slot)
        ]
    }

    #[test]
    fn self_loop_trace_forms_with_flat_registers() {
        let cfg = SimConfig::default();
        let mut mem = mem_with(&countdown_loop());
        let mut blocks = BlockCache::new(mem.page_count());
        let regs = WindowFile::new(cfg.windows);
        let idx = build_hot(&mut mem, &mut blocks, &regs, &cfg, 0, true).expect("promotes");
        let t = blocks.trace(idx).expect("the entry block holds its trace");
        assert!(t.self_loop, "loops back to its entry");
        assert_eq!(t.cwp, regs.cwp(), "flattened for the current window");
        assert_eq!(t.insns, 4);
        assert_eq!(t.final_pc, 0);
        assert_eq!(t.final_pending, None);
        assert_eq!(t.paths.len(), 1, "one direction: no arm");
        let main = &t.paths[0];
        assert_eq!(main.final_last_pc, 0xc, "the slot is the last op");
        // The slot rides in the taken branch's delay slot.
        assert_eq!(t.meta[3].pending_before, Some(0));
        assert_eq!(main.agg.instructions, 4);
        assert_eq!(main.agg.taken_transfers, 1);
        assert_eq!(main.agg.delay_slots, 1);
        // r16, r17, r18 live; r16/r17/r18 all written.
        assert_eq!(t.live_in.len(), 3);
        assert_eq!(t.live_out.len(), 3);
    }

    /// Builds the block at `pc` and records `fall` fall-through and `taken`
    /// taken completions in its exit profile.
    fn profile(
        mem: &mut Memory,
        blocks: &mut BlockCache,
        cfg: &SimConfig,
        pc: u32,
        [fall, taken]: [u32; 2],
    ) {
        let idx = blocks
            .lookup(pc)
            .or_else(|| blocks.build(mem, pc, cfg))
            .expect("block builds");
        for i in 0..fall + taken {
            blocks.bump_heat(idx, i >= fall);
        }
    }

    /// Promotes the block at `pc`, returning it.
    fn promoted(
        mem: &mut Memory,
        blocks: &mut BlockCache,
        regs: &WindowFile,
        cfg: &SimConfig,
        pc: u32,
    ) -> u32 {
        let idx = blocks.lookup(pc).expect("block built");
        assert!(promote(mem, blocks, regs, cfg, idx), "promotes");
        idx
    }

    /// A counted loop with a data-dependent skip: even iterations branch
    /// over the odd-only add. Blocks: A at 0x0 ends on the skip, B at
    /// 0x10 is the odd-only add plus the loop tail, C at 0x14 the tail
    /// alone.
    fn alternating_loop() -> Vec<u32> {
        vec![
            add(Reg::R17, Reg::R17, 1), // 0x0: i += 1
            Instruction::reg_scc(Opcode::And, Reg::R18, Reg::R17, Short2::imm(1).unwrap()).encode(),
            Instruction::jmpr(Cond::Eq, 12).encode(), // 0x8: even → 0x14
            add(Reg::R0, Reg::R0, 0),                 // 0xc (slot)
            add(Reg::R19, Reg::R19, 1),               // 0x10: odd only
            sub_scc(Reg::R16, Reg::R16, 1),
            Instruction::jmpr(Cond::Ne, -24).encode(), // 0x18 → 0x0
            add(Reg::R0, Reg::R0, 0),                  // 0x1c (slot)
        ]
    }

    /// Compiles [`alternating_loop`] at 0 with the skip's block profile
    /// `skip` and the loop tail's `tail` (both tail blocks alike).
    fn alternating_trace(skip: [u32; 2], tail: [u32; 2]) -> Trace {
        let cfg = SimConfig::default();
        let mut mem = mem_with(&alternating_loop());
        let mut blocks = BlockCache::new(mem.page_count());
        let regs = WindowFile::new(cfg.windows);
        profile(&mut mem, &mut blocks, &cfg, 0, skip);
        profile(&mut mem, &mut blocks, &cfg, 0x10, tail);
        profile(&mut mem, &mut blocks, &cfg, 0x14, tail);
        let idx = promoted(&mut mem, &mut blocks, &regs, &cfg, 0);
        blocks.trace(idx).expect("attached").clone()
    }
    #[test]
    fn an_arm_forms_when_both_directions_are_hot() {
        // The skip went each way half the time; the tie goes to the
        // fall-through, so the main path runs the odd-only add.
        let t = alternating_trace([32, 32], [0, 64]);
        assert!(t.self_loop);
        assert_eq!(t.paths.len(), 2, "main path and one arm");
        let (main, arm) = (&t.paths[0], &t.paths[1]);
        assert_eq!((main.start, main.end), (0, 8), "A then B");
        assert!(matches!(
            t.ops[2],
            TOp::Branch {
                expect: false,
                arm: 8,
                ..
            }
        ));
        // The arm is the skip's slot with the taken target in flight, then
        // C back to the entry.
        assert_eq!((arm.start, arm.end), (8, 12));
        assert_eq!(t.meta[8].pc, 0xc);
        assert_eq!(t.meta[8].pending_before, Some(0x14));
        assert_eq!(t.meta[9].pc, 0x14);
        let (b, fork) = arm.fork.expect("an arm forks");
        assert_eq!(b, 2);
        assert!(fork.taken, "the arm retires the skip taken");
        // Main: 4 + 4. Arm: the two ops before the skip, the skip, its
        // slot and C's three.
        assert_eq!((main.insns, arm.insns, t.insns), (8, 7, 8));
        assert_eq!((main.final_last_pc, arm.final_last_pc), (0x1c, 0x1c));
        assert_eq!(arm.agg.taken_transfers, 2, "skip and backedge");
        assert_eq!(main.agg.taken_transfers, 1, "backedge only");
        assert_eq!(t.arm_at(8), 1);
        assert_eq!(t.prev_pc(1, 8), Some(0x8), "the slot follows the skip");
        assert_eq!(t.prev_pc(0, 8 - 1), Some(0x18));
        assert_eq!(t.prev_pc(0, 0), None);
    }

    #[test]
    fn a_rare_direction_stays_a_guard() {
        // 1/8 of the exits is enough for an arm; less is not.
        let t = alternating_trace([56, 8], [0, 64]);
        assert_eq!(t.paths.len(), 2, "exactly 1/8 is hot");
        let t = alternating_trace([57, 7], [0, 64]);
        assert_eq!(t.paths.len(), 1, "under 1/8 is not");
        assert!(matches!(t.ops[2], TOp::Branch { arm: 0, .. }));
        // A loop exit taken once per 16 trips stays a guard too.
        let t = alternating_trace([64, 0], [4, 60]);
        assert_eq!(t.paths.len(), 1);
        assert!(matches!(
            t.ops[6],
            TOp::Branch {
                expect: true,
                arm: 0,
                ..
            }
        ));
    }

    #[test]
    fn an_arm_that_leaves_the_loop_is_dropped() {
        let cfg = SimConfig::default();
        // The skip's taken direction leaves the loop: it bumps r20, which
        // the loop never touches, then returns.
        let mut mem = mem_with(&[
            add(Reg::R17, Reg::R17, 1),
            Instruction::reg_scc(Opcode::And, Reg::R0, Reg::R17, Short2::imm(1).unwrap()).encode(),
            Instruction::jmpr(Cond::Eq, 16).encode(), // 0x8: → 0x18, out
            add(Reg::R0, Reg::R0, 0),
            Instruction::jmpr(Cond::Alw, -16).encode(), // 0x10: → 0x0
            add(Reg::R0, Reg::R0, 0),
            add(Reg::R20, Reg::R20, 1), // 0x18
            Instruction::ret(Reg::R25, Short2::imm(8).unwrap()).encode(),
            add(Reg::R0, Reg::R0, 0),
        ]);
        let mut blocks = BlockCache::new(mem.page_count());
        let regs = WindowFile::new(cfg.windows);
        profile(&mut mem, &mut blocks, &cfg, 0, [32, 32]);
        profile(&mut mem, &mut blocks, &cfg, 0x10, [0, 64]);
        profile(&mut mem, &mut blocks, &cfg, 0x18, [0, 32]);
        let idx = promoted(&mut mem, &mut blocks, &regs, &cfg, 0);
        let t = blocks.trace(idx).expect("attached");
        assert!(t.self_loop);
        assert_eq!(t.paths.len(), 1, "the arm was dropped");
        assert_eq!(t.ops.len(), 6, "and its ops rolled back");
        assert!(matches!(t.ops[2], TOp::Branch { arm: 0, .. }));
        let r20 = regs.flat_index(usize::from(regs.cwp()), Reg::R20);
        assert!(
            t.live_in.iter().all(|&(_, flat)| flat != r20),
            "the dropped arm's registers are not loaded"
        );
    }

    #[test]
    fn a_guard_that_keeps_ending_passes_gets_an_arm_before_demotion() {
        let cfg = SimConfig::default();
        let mut mem = mem_with(&alternating_loop());
        let mut blocks = BlockCache::new(mem.page_count());
        let regs = WindowFile::new(cfg.windows);
        // Promoted while the skip went one way: no arm.
        profile(&mut mem, &mut blocks, &cfg, 0, [64, 0]);
        profile(&mut mem, &mut blocks, &cfg, 0x10, [0, 64]);
        profile(&mut mem, &mut blocks, &cfg, 0x14, [0, 64]);
        let idx = promoted(&mut mem, &mut blocks, &regs, &cfg, 0);
        let t = blocks.trace_mut(idx).expect("attached");
        assert_eq!(t.paths.len(), 1);
        // A trace that has not run HOT_THRESHOLD passes is demoted when it
        // strikes out, whatever guard it left at.
        let mut young = t.clone();
        for _ in 0..STRIKE_LIMIT {
            assert_eq!(young.note_run(false, 1, Some(2)), None);
        }
        assert!(!young.enabled, "demoted");
        // Once it has, runs that end at the skip's guard strike out, and
        // the last strike asks for a rebuild with an arm there instead.
        assert_eq!(t.note_run(true, u64::from(HOT_THRESHOLD), None), None);
        for _ in 1..STRIKE_LIMIT {
            assert_eq!(t.note_run(false, 1, Some(2)), None);
        }
        assert_eq!(t.note_run(false, 1, Some(2)), Some(0x8));
        assert!(t.enabled);
        assert!(rebuild(&mut mem, &mut blocks, &regs, &cfg, idx, 0x8));
        assert_eq!(blocks.lookup(0), Some(idx), "in place, on the same block");
        let t = blocks.trace_mut(idx).expect("attached");
        assert_eq!(t.paths.len(), 2, "the rebuild forked the skip");
        assert_eq!(t.forced, vec![0x8]);
        // A guard is tried once: striking out on it again demotes.
        assert_eq!(t.note_run(true, u64::from(HOT_THRESHOLD), None), None);
        for _ in 0..STRIKE_LIMIT {
            assert_eq!(t.note_run(false, 1, Some(2)), None);
        }
        assert!(!t.enabled, "demoted");
        // A rebuild that cannot form the arm (the loop's exit leaves it)
        // demotes rather than replacing the trace with its twin.
        t.enabled = true;
        assert!(!rebuild(&mut mem, &mut blocks, &regs, &cfg, idx, 0x18));
        let t = blocks
            .trace(idx)
            .expect("a demoted trace stays on its block");
        assert!(!t.enabled);
        assert_eq!(t.forced, vec![0x8], "not replaced");
    }

    /// The statistics of retiring `meta` in order, summed field by field
    /// as `exec_prepared` counts them.
    fn retire_all(meta: &[TMeta]) -> ExecStats {
        let mut sum = ExecStats::new();
        for m in meta {
            sum.retire(m.op);
            if m.pending_before.is_some() {
                sum.delay_slots += 1;
                sum.delay_slot_nops += u64::from(m.nop);
            }
            sum.cycles += u64::from(m.base) + u64::from(m.bubble);
            sum.bubble_cycles += u64::from(m.bubble);
            sum.data_reads += u64::from(m.is_load);
            sum.data_writes += u64::from(m.is_store);
            sum.taken_transfers += u64::from(m.taken);
        }
        sum
    }

    #[test]
    fn every_path_aggregate_matches_its_per_op_metadata() {
        // Applying a path's bulk aggregate must equal replaying the per-op
        // metadata of the ops it retires, which is what the side exits
        // replay — the exits' exactness rests on it. Both branch models.
        for branch_model in [BranchModel::Delayed, BranchModel::Suspended] {
            let cfg = SimConfig {
                branch_model,
                ..SimConfig::default()
            };
            let mut mem = mem_with(&alternating_loop());
            let mut blocks = BlockCache::new(mem.page_count());
            let regs = WindowFile::new(cfg.windows);
            profile(&mut mem, &mut blocks, &cfg, 0, [32, 32]);
            profile(&mut mem, &mut blocks, &cfg, 0x10, [0, 64]);
            profile(&mut mem, &mut blocks, &cfg, 0x14, [0, 64]);
            let idx = promoted(&mut mem, &mut blocks, &regs, &cfg, 0);
            let t = blocks.trace(idx).expect("attached");
            assert_eq!(t.paths.len(), 2);
            for (p, path) in t.paths.iter().enumerate() {
                let mut retired: Vec<TMeta> = Vec::new();
                if let Some((b, m)) = path.fork {
                    let TOp::Branch { expect, .. } = t.ops[b] else {
                        panic!("arm {p} forks from op {b}, no branch");
                    };
                    assert_eq!(m.taken, !expect, "the arm retires the other direction");
                    assert_eq!(m.bubble, branch_model == BranchModel::Suspended && !expect);
                    retired.extend_from_slice(&t.meta[..b]);
                    retired.push(m);
                }
                retired.extend_from_slice(&t.meta[path.start..path.end]);
                let sum = retire_all(&retired);
                let mut bulk = ExecStats::new();
                path.agg.apply_n(&mut bulk, 1);
                let mut replayed = ExecStats::new();
                let last = path.end - 1;
                t.replay(&mut replayed, p, last, t.meta[last]);
                for got in [&bulk, &replayed] {
                    assert_eq!(got, &sum, "path {p}");
                    assert_eq!(got.cycles, sum.cycles, "path {p}");
                    assert_eq!(got.opcode_counts, sum.opcode_counts, "path {p}");
                }
                assert_eq!(u64::from(path.insns), sum.instructions);
            }
        }
    }

    #[test]
    fn short_straight_traces_are_declined_and_window_ops_end_formation() {
        let cfg = SimConfig::default();
        // add; add; ret — the RET excludes, leaving a 2-op straight trace:
        // below MIN_STRAIGHT_INSNS, so the build declines.
        let mut mem = mem_with(&[
            add(Reg::R16, Reg::R0, 1),
            add(Reg::R17, Reg::R16, 2),
            Instruction::ret(Reg::R25, Short2::imm(0).unwrap()).encode(),
            add(Reg::R0, Reg::R0, 0),
        ]);
        let mut blocks = BlockCache::new(mem.page_count());
        let regs = WindowFile::new(cfg.windows);
        assert!(build_hot(&mut mem, &mut blocks, &regs, &cfg, 0, false).is_none());
        let entry = blocks.lookup(0).expect("the block itself stays");
        assert!(blocks.trace(entry).is_none());
    }

    #[test]
    fn a_write_to_any_page_of_a_trace_drops_its_block_and_a_clear_drops_both() {
        let cfg = SimConfig::default();
        // A self loop whose entry block fills the end of page 0; its
        // count, back-edge and slot sit on page 1.
        let head = PAGE_BYTES as u32 - 8;
        let mut words = vec![add(Reg::R0, Reg::R0, 0); head as usize / 4];
        words.extend([
            add(Reg::R17, Reg::R17, 3),                // head
            add(Reg::R18, Reg::R18, 1),                // head + 4
            sub_scc(Reg::R16, Reg::R16, 1),            // page 1
            Instruction::jmpr(Cond::Ne, -12).encode(), // → head
            add(Reg::R19, Reg::R19, 1),                // slot
        ]);
        let tail = PAGE_BYTES as u32;
        let mut mem = mem_with(&words);
        let mut blocks = BlockCache::new(mem.page_count());
        let regs = WindowFile::new(cfg.windows);
        let promote_loop = |mem: &mut Memory, blocks: &mut BlockCache| {
            profile(mem, blocks, &cfg, head, [64, 0]);
            profile(mem, blocks, &cfg, tail, [0, 64]);
            let idx = promoted(mem, blocks, &regs, &cfg, head);
            let t = blocks.trace(idx).expect("attached");
            assert!(t.self_loop && t.meta.iter().any(|m| m.pc >= tail));
            assert_eq!(
                blocks.block(idx).end,
                tail,
                "the entry block ends on page 0"
            );
        };
        // A write to the page the entry block does not span still drops
        // the block, and its trace with it.
        promote_loop(&mut mem, &mut blocks);
        blocks.invalidate(CodeDirty::Page(1));
        assert_eq!(blocks.lookup(head), None, "the trace's second page");
        assert_eq!(blocks.lookup(tail), None);
        // So does a write to its own page; the tail block read none of it.
        promote_loop(&mut mem, &mut blocks);
        blocks.invalidate(CodeDirty::Page(0));
        assert_eq!(blocks.lookup(head), None, "the entry block's page");
        let survivor = blocks.lookup(tail).expect("the tail block survives");
        assert!(blocks.trace(survivor).is_none());
        // A wholesale clear drops every block and every trace.
        promote_loop(&mut mem, &mut blocks);
        blocks.invalidate(CodeDirty::All);
        assert_eq!(blocks.lookup(head), None);
        assert_eq!(blocks.lookup(tail), None);
    }

    /// The name of a trace op's variant.
    fn variant(op: &TOp) -> String {
        let text = format!("{op:?}");
        text.split(' ').next().unwrap_or_default().to_string()
    }

    fn imm(v: i32) -> Short2 {
        Short2::imm(v).unwrap()
    }

    /// Runs `prog` under `engine` and `branch_model`: with `run()` on the
    /// block and trace tiers, and one `step()` at a time on the uncached
    /// tier (the one-step path). With a misaligned-access handler at
    /// `handler`, if any.
    fn run_on(
        engine: ExecEngine,
        branch_model: BranchModel,
        prog: &Program,
        handler: Option<u32>,
    ) -> (Cpu, Result<(), ExecError>) {
        let cfg = SimConfig {
            engine,
            branch_model,
            ..SimConfig::default()
        };
        let mut cpu = Cpu::new(cfg);
        cpu.load_program(prog).unwrap();
        if let Some(addr) = handler {
            cpu.set_trap_handler(TrapKind::Misaligned, addr);
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
        (cpu, end)
    }

    /// Runs `prog` under the trace, superblock and uncached tiers and
    /// checks that they end alike: the same error, if any, snapshot
    /// checksum and `ExecStats`. Returns the trace tier's machine.
    fn agree_across_tiers(branch_model: BranchModel, prog: &Program, handler: Option<u32>) -> Cpu {
        let (trc, end) = run_on(ExecEngine::Trace, branch_model, prog, handler);
        for engine in [ExecEngine::Superblock, ExecEngine::Uncached] {
            let (other, other_end) = run_on(engine, branch_model, prog, handler);
            assert_eq!(end, other_end, "{engine:?}, {branch_model:?}");
            assert_eq!(
                trc.snapshot().checksum(),
                other.snapshot().checksum(),
                "{engine:?}, {branch_model:?}"
            );
            assert_eq!(trc.stats(), other.stats(), "{engine:?}, {branch_model:?}");
        }
        let s = trc.stats();
        assert!(s.traces_built >= 1 && s.trace_instructions > 0, "{s:?}");
        trc
    }

    /// Every opcode the spec table lowers as `class`.
    fn lowered_as(class: Lowering) -> impl Iterator<Item = Opcode> {
        Opcode::ALL
            .iter()
            .copied()
            .filter(move |&op| spec::entry(op).lowering() == class)
    }

    #[test]
    fn every_trace_op_matches_the_block_tier() {
        // A 200-trip loop at `head` whose body runs every ALU opcode with
        // `scc` off and on, folding each result into the accumulator r18,
        // every store width and every load width through the data page at
        // r16, an LDHI, an unconditional jump and the loop's branch.
        let head = 0x1000 + 4 * 4;
        let mut p = vec![
            Instruction::ldhi(Reg::R16, 1), // r16 := 0x2000
            Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, imm(200)),
            Instruction::reg(Opcode::Add, Reg::R18, Reg::R0, imm(1234)),
            Instruction::reg(Opcode::Add, Reg::R19, Reg::R0, imm(7)),
        ];
        for (i, op) in lowered_as(Lowering::Alu).enumerate() {
            p.extend([
                Instruction::reg(op, Reg::R20, Reg::R18, Short2::reg(Reg::R19)),
                Instruction::reg_scc(op, Reg::R21, Reg::R20, imm(i as i32 + 1)),
                Instruction::reg(Opcode::Add, Reg::R18, Reg::R18, Short2::reg(Reg::R21)),
            ]);
        }
        // Store i writes word i of the data page, and load i reads word i
        // modulo the store count: every width is aligned, and every load
        // reads what a store left.
        let stores: Vec<Opcode> = lowered_as(Lowering::Store).collect();
        for (i, &op) in stores.iter().enumerate() {
            p.push(Instruction::reg(op, Reg::R18, Reg::R16, imm(4 * i as i32)));
        }
        for (i, op) in lowered_as(Lowering::Load).enumerate() {
            let at = imm(4 * (i % stores.len()) as i32);
            p.extend([
                Instruction::reg(op, Reg::R20, Reg::R16, at),
                Instruction::reg(Opcode::Xor, Reg::R18, Reg::R18, Short2::reg(Reg::R20)),
            ]);
        }
        p.extend([
            Instruction::ldhi(Reg::R20, 5),
            Instruction::reg(Opcode::Add, Reg::R18, Reg::R18, Short2::reg(Reg::R20)),
            Instruction::jmpr(Cond::Alw, 8), // over its slot, to the next op
            Instruction::reg(Opcode::Add, Reg::R19, Reg::R19, imm(3)),
            Instruction::reg_scc(Opcode::Sub, Reg::R17, Reg::R17, imm(1)),
        ]);
        let back = head as i32 - (0x1000 + 4 * p.len() as i32);
        p.extend([
            Instruction::jmpr(Cond::Ne, back),
            Instruction::nop(),
            Instruction::ret(Reg::R0, imm(0)),
            Instruction::nop(),
        ]);
        let prog = Program::from_instructions(p);
        for branch_model in [BranchModel::Delayed, BranchModel::Suspended] {
            let trc = agree_across_tiers(branch_model, &prog, None);
            let t = trc.trace_at(head).expect("the loop promoted");
            assert!(t.self_loop && t.paths.len() == 1);
            let held: Vec<String> = t.ops.iter().map(variant).collect();
            for name in TOP_VARIANTS {
                assert!(held.iter().any(|h| h == name), "no {name} in {held:?}");
            }
            let s = trc.stats();
            assert!(
                s.trace_instructions * 10 > s.instructions * 6,
                "the trace ran the loop: {s:?}"
            );
        }
    }

    #[test]
    fn specialized_accesses_that_fault_side_exit_as_the_one_step_path_faults() {
        // A 200-trip loop at `head` walks a table at 0x4000. An entry's bit
        // 0 misaligns the loop's second LDL and its bit 1 its STL, both
        // specialized and both off the data page at r16. One entry, past
        // promotion, is nonzero.
        let head = 0x1000 + 4 * 3;
        let body = [
            Instruction::ldhi(Reg::R16, 1), // r16 := 0x2000
            Instruction::ldhi(Reg::R9, 2),  // r9 := 0x4000, the table
            Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, imm(200)),
            Instruction::reg(Opcode::Ldl, Reg::R10, Reg::R9, imm(0)), // head
            Instruction::reg(Opcode::Add, Reg::R9, Reg::R9, imm(4)),
            Instruction::reg(Opcode::And, Reg::R12, Reg::R10, imm(1)),
            Instruction::reg(Opcode::And, Reg::R13, Reg::R10, imm(2)),
            Instruction::reg(Opcode::Ldl, Reg::R11, Reg::R16, Short2::reg(Reg::R12)),
            Instruction::reg(Opcode::Add, Reg::R11, Reg::R11, imm(1)),
            Instruction::reg(Opcode::Stl, Reg::R11, Reg::R16, Short2::reg(Reg::R13)),
            Instruction::reg_scc(Opcode::Sub, Reg::R17, Reg::R17, imm(1)),
            Instruction::jmpr(Cond::Ne, -4 * 8), // → head
            Instruction::nop(),
            Instruction::ret(Reg::R0, imm(0)),
            Instruction::nop(),
        ];
        let faulting = [(0x1000 + 4 * 7, "Ldl", 1), (0x1000 + 4 * 9, "Stl", 2)];
        // A handler that skips the faulting op: `reti r25, #4; nop`.
        let stub = [Instruction::reti(Reg::R25, imm(4)), Instruction::nop()];
        let stub_at = 0x100;
        for (pc, name, entry) in faulting {
            let mut table = vec![0u8; 4 * 200];
            table[4 * 150] = entry;
            let mut prog = Program::from_instructions(body.to_vec());
            prog.data.push((0x4000, table));
            prog.data.push((
                stub_at,
                stub.iter().flat_map(|i| i.encode().to_le_bytes()).collect(),
            ));
            for branch_model in [BranchModel::Delayed, BranchModel::Suspended] {
                // Unhandled, the fault stops every tier at the same op with
                // the same error and the same machine.
                let trc = agree_across_tiers(branch_model, &prog, None);
                let t = trc.trace_at(head).expect("the loop promoted");
                let k = t.meta.iter().position(|m| m.pc == pc).expect("traced");
                assert_eq!(variant(&t.ops[k]), name);
                assert_eq!(trc.pc(), pc, "{name} stops at itself");
                assert_eq!(trc.stats().trace_side_exits, 1, "{name} left the trace");
                // Handled, the fault vectors and the loop runs on.
                let trc = agree_across_tiers(branch_model, &prog, Some(stub_at));
                assert!(trc.is_halted());
                let s = trc.stats();
                assert_eq!((s.trap_entries, s.trap_returns), (1, 1), "{name}");
                assert!(s.trace_side_exits >= 1, "{name}");
            }
        }
    }
}
