//! Trace compilation: hot superblock sequences lowered to
//! register-allocated trace IR (the `--engine trace` tier).
//!
//! The superblock engine still pays, per retired instruction, a window-map
//! register translation, a full opcode dispatch and half a dozen statistic
//! counter bumps. All three are loop-invariant for a hot loop: the CWP
//! cannot move inside a trace (window-moving ops end trace formation), so
//! register names resolve to *flat physical store indices* once, at build
//! time; the opcode stream is fixed, so the per-instruction stat deltas sum
//! to one precomputed bulk update applied at trace exit; and the surviving
//! dispatch is over a six-variant IR whose operands are already virtual
//! register numbers or immediates.
//!
//! ## Formation
//!
//! Superblocks carry a promotion heat counter and an exit-direction profile
//! (see [`crate::superblock::Block`]), bumped on every completed execution
//! under the trace engine. When a block's heat reaches [`HOT_THRESHOLD`]
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
//! ## Guards and side exits
//!
//! Three ops can leave a trace early, each restoring *exactly* the state
//! the superblock engine would have at the same architectural point:
//! loads/stores that fault (the trace applies the per-op stat deltas for
//! everything already committed plus the faulting op's retire-side
//! accounting, then funnels the very same `StepEvent` through
//! `Cpu::finish_exec`), stores that hit the code-dirty channel (exit after
//! the store so a fresh build sees the new bytes), and direction guards on
//! conditional branches (the guard *is* the branch: a mismatch retires the
//! branch with its actual direction and resumes at the fall-through with
//! the actual pending target). Per-op static metadata ([`TMeta`]) carries
//! everything those exits need; nothing is recomputed from memory.
//!
//! ## Invalidation
//!
//! Traces register every page their instructions came from with
//! [`Memory::note_code_page`], exactly like the icache and block cache, and
//! [`Cpu::drain_code_invalidations`](crate::Cpu) fans each code-dirty event
//! out to all three. Like them, the whole structure is *derived* state —
//! absent from snapshots, journals, and checksums — and the four-engine
//! equivalence law in `interp_equivalence` holds with no new escape
//! hatches.

use crate::config::{BranchModel, SimConfig};
use crate::icache::Line;
use crate::mem::{CodeDirty, MemError, Memory, PAGE_BYTES};
use crate::stats::ExecStats;
use crate::superblock::{BOp, BlockCache};
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

/// Most blocks one trace may span.
const MAX_TRACE_BLOCKS: usize = 8;

/// Hard cap on instructions per trace.
const MAX_TRACE_INSNS: usize = 256;

/// Most live trace variants kept per entry PC. A block promotes at most
/// once per lifetime (the heat trigger is an exact-equality match), so
/// chains longer than one live variant only arise across invalidation
/// epochs; this bounds them until compaction clears the dead.
const MAX_VARIANTS: usize = 4;

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

/// Sentinel for "no trace" in the entry map and variant chain.
const NO_TRACE: u32 = u32::MAX;

/// One trace-IR operation. All register operands are virtual indices into
/// the run's value array; immediates were interned into entry-loaded
/// constant slots at build time, so the hot loop never branches on operand
/// kind. Everything address- or direction-static was folded at build time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TOp {
    /// ALU/shift op that does not latch flags — the common case, and the
    /// executor's fastest: the flag computation is dead code here.
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
    /// ALU/shift op with the `scc` bit set: latches flags.
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
    /// A load; faults side-exit.
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
    /// A store; faults and code-dirty hits side-exit.
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
    /// Conditional PC-relative branch with a statically expected direction
    /// — the guard *is* the branch: agreeing with the profile continues the
    /// trace, disagreeing retires the branch with its actual direction and
    /// side-exits.
    Branch {
        /// The condition, evaluated on the live flags.
        cond: Cond,
        /// Static target (`pc + imm19`).
        target: u32,
        /// The profiled direction the trace was built along.
        expect: bool,
    },
    /// Unconditional (ALW) JMPR: pure static glue — the successor is baked
    /// into the trace, only the accounting remains.
    Jump,
}

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

/// Per-op static metadata: everything a side exit needs to reconstruct the
/// exact per-instruction accounting and restart state of the superblock
/// engine at this op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TMeta {
    /// The op's instruction address.
    pub pc: u32,
    /// The delayed-jump target in flight when this op executes (`Some`
    /// exactly when the op sits in a taken transfer's delay slot).
    pub pending_before: Option<u32>,
    /// The opcode (for retire histograms).
    pub op: Opcode,
    /// Base cycle cost.
    pub base: u8,
    /// Whether the op pays a suspended-model bubble on the expected path.
    pub bubble: bool,
    /// Whether the expected path counts a taken transfer here.
    pub taken: bool,
    /// Memory-read op (counts `data_reads` on success).
    pub is_load: bool,
    /// Memory-write op (counts `data_writes` on success).
    pub is_store: bool,
    /// Whether the instruction is a canonical NOP (delay-slot accounting).
    pub nop: bool,
}

/// The precomputed bulk statistics update of one complete trace pass — the
/// sum of what `exec_prepared` would have counted per instruction.
#[derive(Debug, Clone, Default)]
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
        stats.ifetches += self.instructions * n;
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

    fn from_meta(meta: &[TMeta]) -> TAgg {
        let mut agg = TAgg {
            instructions: meta.len() as u64,
            ..TAgg::default()
        };
        for m in meta {
            agg.cycles += u64::from(m.base) + u64::from(m.bubble);
            agg.bubble_cycles += u64::from(m.bubble);
            agg.data_reads += u64::from(m.is_load);
            agg.data_writes += u64::from(m.is_store);
            agg.taken_transfers += u64::from(m.taken);
            if m.pending_before.is_some() {
                agg.delay_slots += 1;
                agg.delay_slot_nops += u64::from(m.nop);
            }
            match agg.opcodes.iter_mut().find(|(op, _)| *op == m.op) {
                Some((_, n)) => *n += 1,
                None => agg.opcodes.push((m.op, 1)),
            }
        }
        agg
    }
}

/// One compiled trace.
#[derive(Debug, Clone)]
pub(crate) struct Trace {
    /// Entry PC.
    pub start: u32,
    /// The CWP the register flattening was computed for; entering at any
    /// other CWP must miss (flat indices differ per window).
    pub cwp: u8,
    /// The IR body.
    pub ops: Box<[TOp]>,
    /// Per-op side-exit metadata, same length as `ops`.
    pub meta: Box<[TMeta]>,
    /// The complete-pass bulk stats update.
    pub agg: TAgg,
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
    /// Instructions retired by one complete pass.
    pub insns: u32,
    /// Whether the trace's fall-out lands exactly on its own entry with no
    /// jump in flight — iterations then re-run the IR without touching the
    /// window file.
    pub self_loop: bool,
    /// PC after a complete pass.
    pub final_pc: u32,
    /// Delayed-jump target in flight after a complete pass.
    pub final_pending: Option<u32>,
    /// `last_pc` after a complete pass (the last op's address).
    pub final_last_pc: u32,
    /// Cleared when a page the trace spans is invalidated.
    pub alive: bool,
    /// Cleared after [`STRIKE_LIMIT`] unproductive runs: the trace stops
    /// resolving (the superblock engine takes over) but keeps its variant
    /// slot, so nothing rebuilds or thrashes in its place.
    pub enabled: bool,
    /// Unproductive-run counter; productive runs pay one back.
    pub strikes: u8,
    /// Next variant (different build CWP) at the same entry, or
    /// [`NO_TRACE`].
    pub alt: u32,
}

/// The trace cache: compiled traces by entry PC with per-page registration
/// for invalidation, mirroring [`BlockCache`]'s layout decisions (the
/// direct map over word addresses, clear-the-world compaction).
#[derive(Debug, Clone)]
pub(crate) struct TraceCache {
    /// Entry PC → head of the variant chain (`map[pc/4]`), or
    /// [`NO_TRACE`]. Grown lazily like the block map.
    map: Vec<u32>,
    /// `map`'s target length in words.
    map_words: usize,
    traces: Vec<Trace>,
    /// Trace indices registered per memory page (dead entries filtered on
    /// use; rebuilt wholesale on compaction). Grown on build to the
    /// highest page a trace was lowered from.
    by_page: Vec<Vec<u32>>,
    /// Dead traces awaiting compaction.
    dead: usize,
}

/// Dead traces tolerated before a wholesale clear.
const COMPACT_DEAD_MIN: usize = 64;

impl TraceCache {
    /// An empty cache over `page_count` memory pages.
    pub(crate) fn new(page_count: usize) -> TraceCache {
        TraceCache {
            map: Vec::new(),
            map_words: page_count * (PAGE_BYTES / 4),
            traces: Vec::new(),
            by_page: Vec::new(),
            dead: 0,
        }
    }

    /// Length of the page registration table (the highest page a trace was
    /// lowered from, plus one).
    #[cfg(test)]
    pub(crate) fn page_table_len(&self) -> usize {
        self.by_page.len()
    }

    /// The trace at `idx`.
    #[inline]
    pub(crate) fn trace(&self, idx: u32) -> &Trace {
        &self.traces[idx as usize]
    }

    /// Finds a live, still-enabled trace entered at `pc` that was built
    /// for `cwp`.
    #[inline]
    pub(crate) fn resolve(&self, pc: u32, cwp: u8) -> Option<u32> {
        let mut idx = *self.map.get(pc as usize / 4)?;
        while idx != NO_TRACE {
            let t = &self.traces[idx as usize];
            if t.alive && t.enabled && t.start == pc && t.cwp == cwp {
                return Some(idx);
            }
            idx = t.alt;
        }
        None
    }

    /// Whether any variant — enabled or demoted — exists at `pc` for
    /// `cwp`. The build guard uses this (not [`TraceCache::resolve`]) so a
    /// demoted trace blocks rebuilding in its place.
    fn variant_for(&self, pc: u32, cwp: u8) -> bool {
        let Some(&head) = self.map.get(pc as usize / 4) else {
            return false;
        };
        let mut idx = head;
        while idx != NO_TRACE {
            let t = &self.traces[idx as usize];
            if t.alive && t.start == pc && t.cwp == cwp {
                return true;
            }
            idx = t.alt;
        }
        false
    }

    /// Settles one run's productivity (the executor judges what counts —
    /// a self-loop trace must complete at least two passes, a straight
    /// trace must retire at least half its body): a productive run pays a
    /// strike back; an unproductive one earns one, and at [`STRIKE_LIMIT`]
    /// the trace is demoted for good — entering it repeatedly costs more
    /// than the superblock path it displaced.
    pub(crate) fn note_run(&mut self, idx: u32, productive: bool) {
        let t = &mut self.traces[idx as usize];
        if productive {
            t.strikes = t.strikes.saturating_sub(1);
        } else {
            t.strikes += 1;
            if t.strikes >= STRIKE_LIMIT {
                t.enabled = false;
            }
        }
    }

    /// Live variants at `pc` (any CWP) — bounds the chain against
    /// [`MAX_VARIANTS`] when invalidation epochs rebuild an entry.
    #[inline]
    pub(crate) fn variants_at(&self, pc: u32) -> usize {
        let Some(&head) = self.map.get(pc as usize / 4) else {
            return 0;
        };
        let mut n = 0;
        let mut idx = head;
        while idx != NO_TRACE {
            let t = &self.traces[idx as usize];
            n += usize::from(t.alive);
            idx = t.alt;
        }
        n
    }

    /// Applies one invalidation event: kills every trace registered on the
    /// named page (or everything). All variants at an entry span the same
    /// pages (the chain walk is CWP-independent), so a page kill never
    /// orphans part of a variant chain.
    #[cold]
    pub(crate) fn invalidate(&mut self, d: CodeDirty) {
        match d {
            CodeDirty::Page(idx) => {
                let Some(list) = self.by_page.get_mut(idx) else {
                    return;
                };
                for ti in list.drain(..) {
                    if let Some(t) = self.traces.get_mut(ti as usize) {
                        if t.alive {
                            t.alive = false;
                            self.dead += 1;
                            if let Some(slot) = self.map.get_mut(t.start as usize / 4) {
                                *slot = NO_TRACE;
                            }
                        }
                    }
                }
            }
            CodeDirty::All => self.clear(),
        }
    }

    /// Drops everything.
    fn clear(&mut self) {
        self.map.fill(NO_TRACE);
        self.traces.clear();
        self.by_page.iter_mut().for_each(Vec::clear);
        self.dead = 0;
    }

    /// Clear-the-world compaction once dead traces dominate, mirroring the
    /// block cache's reasoning: indices are never reused while stale
    /// references could exist.
    fn maybe_compact(&mut self) {
        if self.dead > COMPACT_DEAD_MIN && self.dead * 2 > self.traces.len() {
            self.clear();
        }
    }

    /// Attempts to compile a trace entered at `start` for the register
    /// file's current window. Returns `None` when the entry is not worth
    /// (or not possible to) trace — callers never retry for the same heat
    /// trigger, so a decline is cheap and final.
    pub(crate) fn build(
        &mut self,
        mem: &mut Memory,
        blocks: &BlockCache,
        regs: &WindowFile,
        cfg: &SimConfig,
        start: u32,
    ) -> Option<u32> {
        let cwp = regs.cwp();
        if self.variant_for(start, cwp) || self.variants_at(start) >= MAX_VARIANTS {
            return None;
        }
        let mut b = Builder::new(cwp, regs, cfg);
        b.cursor = start;
        let mut pc = start;
        let mut self_loop = false;
        'blocks: for _ in 0..MAX_TRACE_BLOCKS {
            let Some(bidx) = blocks.lookup(pc) else {
                break;
            };
            let block = blocks.block(bidx);
            let profile = block.hot_exits;
            // The block body *is* the decoded line stream (fused pairs
            // carry their original halves), so the walk re-decodes
            // nothing from memory and — unlike a fresh decode, which
            // would run to the block's end — stops at the trace cap.
            // This keeps declined promotion attempts cheap.
            for op in block.ops.iter() {
                let (first, second) = match op {
                    BOp::One(l) => (l, None),
                    BOp::CmpBranch { a, b }
                    | BOp::LdhiImm { a, b, .. }
                    | BOp::TransferSlot { a, b }
                    | BOp::AddrFeed { a, b }
                    | BOp::AluPair { a, b } => (a, Some(b)),
                };
                for line in std::iter::once(first).chain(second) {
                    if b.meta.len() >= MAX_TRACE_INSNS || !b.push(line, profile) {
                        break 'blocks;
                    }
                }
            }
            if b.pending.is_some() {
                // The block ended on a taken transfer whose slot was left
                // out: the trace exits with the jump still in flight and
                // the single-step path runs the slot.
                break;
            }
            pc = b.cursor;
            if pc == start {
                self_loop = true;
                break;
            }
        }
        let t = b.finish(start, self_loop)?;

        let word = start as usize / 4;
        if self.map.len() <= word {
            let len = (word + 1)
                .next_power_of_two()
                .clamp(word + 1, self.map_words);
            self.map.resize(len, NO_TRACE);
        }
        self.maybe_compact();
        let idx = self.traces.len() as u32;
        let mut t = t;
        t.alt = self.map.get(word).copied().unwrap_or(NO_TRACE);
        // Register every page an instruction was lowered from; taken
        // branches can hop pages, so the span is the set of op addresses,
        // not an interval.
        let mut pages: Vec<usize> = t.meta.iter().map(|m| m.pc as usize / PAGE_BYTES).collect();
        pages.sort_unstable();
        pages.dedup();
        if let Some(&last) = pages.last() {
            if self.by_page.len() <= last {
                self.by_page.resize_with(last + 1, Vec::new);
            }
        }
        for page in pages {
            mem.note_code_page(page);
            self.by_page[page].push(idx);
        }
        self.traces.push(t);
        if let Some(slot) = self.map.get_mut(word) {
            *slot = idx;
        }
        Some(idx)
    }
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
}

impl<'a> Builder<'a> {
    fn new(cwp: u8, regs: &'a WindowFile, cfg: &SimConfig) -> Builder<'a> {
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
        }
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
                if line.scc {
                    TOp::AluScc {
                        op: line.op,
                        d,
                        a,
                        b,
                    }
                } else {
                    TOp::Alu {
                        op: line.op,
                        d,
                        a,
                        b,
                    }
                }
            }
            Lowering::Const => {
                let d = self.write_reg(line.dest);
                TOp::Const {
                    d,
                    value: (line.imm19 as u32) << 13,
                }
            }
            Lowering::Load => {
                let a = self.read_reg(line.rs1);
                let b = self.read_s2(line.s2);
                let d = self.write_reg(line.dest);
                TOp::Load {
                    op: line.op,
                    d,
                    a,
                    b,
                }
            }
            Lowering::Store => {
                let a = self.read_reg(line.rs1);
                let b = self.read_s2(line.s2);
                let data = self.read_reg(line.dest);
                TOp::Store {
                    op: line.op,
                    data,
                    a,
                    b,
                }
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
                    }
                }
            }
            Lowering::Excluded => unreachable!(),
        };
        self.ops.push(op);
        self.meta.push(TMeta {
            pc,
            pending_before,
            op: line.op,
            base: line.base_cycles,
            bubble: self.suspended && taken,
            taken,
            is_load: lowering == Lowering::Load,
            is_store: lowering == Lowering::Store,
            nop: line.insn.is_nop(),
        });
        // The static replica of the executor's PC dance.
        let next = pending_before.unwrap_or_else(|| pc.wrapping_add(4));
        self.pending = new_target;
        self.cursor = next;
        true
    }

    fn finish(self, start: u32, self_loop: bool) -> Option<Trace> {
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
        let agg = TAgg::from_meta(&self.meta);
        let final_last_pc = self.meta.last().map(|m| m.pc).unwrap_or(start);
        Some(Trace {
            start,
            cwp: self.cwp,
            insns: self.meta.len() as u32,
            ops: self.ops.into(),
            meta: self.meta.into(),
            agg,
            live_in: live_in.into(),
            live_out: live_out.into(),
            consts: consts.into(),
            self_loop,
            final_pc: self.cursor,
            final_pending: self.pending,
            final_last_pc,
            alive: true,
            enabled: true,
            strikes: 0,
            alt: NO_TRACE,
        })
    }
}

/// Builds a trace with its entry marked hot enough, for tests: constructs
/// the block, saturates its heat profile along `taken_exit`, then compiles.
#[cfg(test)]
fn build_hot(
    cache: &mut TraceCache,
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
            let transfer = b.end.wrapping_sub(if b.insns >= 2 { 8 } else { 4 });
            let line =
                crate::superblock::collect_lines(mem, transfer).and_then(|l| l.first().copied())?;
            transfer.wrapping_add(line.imm19 as u32)
        } else {
            b.end
        };
        if pc == start {
            break;
        }
    }
    cache.build(mem, blocks, regs, cfg, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use risc1_isa::{Instruction, Reg};

    fn add(dest: Reg, rs1: Reg, imm: i32) -> u32 {
        Instruction::reg(Opcode::Add, dest, rs1, Short2::imm(imm).unwrap()).encode()
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
            add(Reg::R17, Reg::R17, 3), // 0x0
            Instruction::reg_scc(Opcode::Sub, Reg::R16, Reg::R16, Short2::imm(1).unwrap()).encode(), // 0x4
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
        let mut cache = TraceCache::new(mem.page_count());
        let idx =
            build_hot(&mut cache, &mut mem, &mut blocks, &regs, &cfg, 0, true).expect("promotes");
        let t = cache.trace(idx);
        assert!(t.self_loop, "loops back to its entry");
        assert_eq!(t.insns, 4);
        assert_eq!(t.final_pc, 0);
        assert_eq!(t.final_pending, None);
        assert_eq!(t.final_last_pc, 0xc, "the slot is the last op");
        // The slot rides in the taken branch's delay slot.
        assert_eq!(t.meta[3].pending_before, Some(0));
        assert_eq!(t.agg.instructions, 4);
        assert_eq!(t.agg.taken_transfers, 1);
        assert_eq!(t.agg.delay_slots, 1);
        // r16, r17, r18 live; r16/r17/r18 all written.
        assert_eq!(t.live_in.len(), 3);
        assert_eq!(t.live_out.len(), 3);
        assert_eq!(cache.resolve(0, regs.cwp()), Some(idx));
        assert_eq!(
            cache.resolve(0, regs.cwp() + 1),
            None,
            "other window misses"
        );
    }

    #[test]
    fn aggregate_matches_per_op_metadata() {
        let cfg = SimConfig::default();
        let mut mem = mem_with(&countdown_loop());
        let mut blocks = BlockCache::new(mem.page_count());
        let regs = WindowFile::new(cfg.windows);
        let mut cache = TraceCache::new(mem.page_count());
        let idx =
            build_hot(&mut cache, &mut mem, &mut blocks, &regs, &cfg, 0, true).expect("promotes");
        let t = cache.trace(idx);
        // Applying the bulk aggregate must equal replaying the per-op
        // metadata the side exits use — the exits' exactness rests on it.
        let mut bulk = ExecStats::new();
        t.agg.apply_n(&mut bulk, 1);
        let mut sum = ExecStats::new();
        for m in t.meta.iter() {
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
        assert_eq!(bulk, sum);
        assert_eq!(bulk.ifetches, sum.ifetches);
        assert_eq!(bulk.cycles, sum.cycles);
        assert_eq!(bulk.opcode_counts, sum.opcode_counts);
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
        let mut cache = TraceCache::new(mem.page_count());
        assert!(build_hot(&mut cache, &mut mem, &mut blocks, &regs, &cfg, 0, false).is_none());
    }

    #[test]
    fn invalidation_kills_traces_and_resolve_misses() {
        let cfg = SimConfig::default();
        let mut mem = mem_with(&countdown_loop());
        let mut blocks = BlockCache::new(mem.page_count());
        let regs = WindowFile::new(cfg.windows);
        let mut cache = TraceCache::new(mem.page_count());
        let idx =
            build_hot(&mut cache, &mut mem, &mut blocks, &regs, &cfg, 0, true).expect("promotes");
        assert_eq!(cache.resolve(0, regs.cwp()), Some(idx));
        cache.invalidate(CodeDirty::Page(0));
        assert_eq!(cache.resolve(0, regs.cwp()), None, "page kill");
        assert_eq!(cache.variants_at(0), 0);
        let idx2 =
            build_hot(&mut cache, &mut mem, &mut blocks, &regs, &cfg, 0, true).expect("rebuilds");
        cache.invalidate(CodeDirty::All);
        assert!(cache.traces.is_empty(), "All is a full clear");
        let _ = idx2;
    }

    #[test]
    fn variant_chain_is_per_cwp_and_capped() {
        let cfg = SimConfig::default();
        let mut mem = mem_with(&countdown_loop());
        let mut blocks = BlockCache::new(mem.page_count());
        let mut regs = WindowFile::new(cfg.windows);
        let mut cache = TraceCache::new(mem.page_count());
        let first =
            build_hot(&mut cache, &mut mem, &mut blocks, &regs, &cfg, 0, true).expect("cwp 0");
        // Duplicate build for the same cwp is refused.
        assert!(cache.build(&mut mem, &blocks, &regs, &cfg, 0).is_none());
        // New windows get their own variants up to the cap.
        let mut built = vec![first];
        for _ in 0..MAX_VARIANTS + 1 {
            regs.advance();
            if let Some(i) = cache.build(&mut mem, &blocks, &regs, &cfg, 0) {
                built.push(i);
            }
        }
        assert_eq!(built.len(), MAX_VARIANTS, "cap holds");
        // Every built variant resolves under its own cwp.
        for &i in &built {
            let t = cache.trace(i).clone();
            assert_eq!(cache.resolve(0, t.cwp), Some(i));
        }
    }
}
