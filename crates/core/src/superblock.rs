//! Superblock execution: block formation over prepared lines, and the
//! block executor's bodies.
//!
//! Straight-line runs of prepared [`Line`]s, fetched through the one fetch
//! path (`cpu::fetch`), are grouped into **superblocks** that end at a
//! transfer of control (including its delay slot, unless the slot is
//! itself a transfer) or at a page boundary. One PC lookup, one channel
//! poll and one boundary check are paid per *block* instead of per
//! instruction. A block owns its body and the engine runs it by reference:
//! entering a block costs a direct-mapped lookup, with no copy of the body
//! and no reference count.
//!
//! A body is the block's lines plus what a completed run retires,
//! aggregated when the block forms ([`Body`]). The block executor
//! (`Cpu::exec_block`) dispatches each op once on its opcode, for its
//! effect alone, and settles a completed block once: the aggregate of the
//! direction its transfer went, then `pc`, `last_pc` and the in-flight
//! target. An op that leaves early (a faulting access, spill or fill, a
//! store or spill that dirties code, a return that halts) replays the
//! ops that committed through [`retired`], the rule the aggregates are
//! built from ([`crate::retire`]). The ops that touch the PSW, `last_pc`
//! or the trap unit (CALLI, RETI, GTLPC, GETPSW, PUTPSW) run on the
//! one-step path: a block ends before one, in a delay slot too, and none
//! starts at one. A machine without forwarding forms no blocks, since its
//! hazard bookkeeping is per op.
//!
//! A block is also where a compiled trace lives: the trace tier
//! ([`crate::trace`]) attaches each trace to the block it is entered at,
//! so one lookup finds both.
//!
//! This is the one cache of decoded code. Every page a block's
//! instructions were decoded from, and every page its trace's ops were
//! lowered from, is registered with [`Memory`]'s code-dirty channel, and
//! `Cpu::drain_code_invalidations` applies each channel event here.
//! Invalidation is block-granular: a dirtied page kills exactly the blocks
//! that read it, each with its trace. A block is alive exactly while the
//! entry map names it, and its promotion heat is the sum of its exit
//! profile, so the block record stores neither and stays at 32 bytes. The
//! whole structure is *derived* state — absent from snapshots, journals,
//! and checksums.

use crate::config::{BranchModel, SimConfig};
use crate::cpu::fetch;
use crate::line::Line;
use crate::mem::{CodeDirty, Memory, PAGE_BYTES};
use crate::retire::{replay_meta, TMeta};
use crate::stats::ExecStats;
use crate::trace::Trace;
use risc1_isa::Opcode;

/// Sentinel for "no live block starts at this word" in
/// [`BlockCache::map`].
const NO_BLOCK: u32 = u32::MAX;

/// Dead blocks tolerated before a wholesale rebuild of the cache (see
/// [`BlockCache::maybe_compact`]).
const COMPACT_DEAD_MIN: usize = 64;

// A block holds at most a page of lines and a delay slot, each costing at
// most two cycles and a bubble, so every count of [`Settle`] fits a byte.
const _: () = assert!(3 * (PAGE_BYTES / 4 + 1) <= u8::MAX as usize);

/// What a completed run of a block retires in one exit direction, bar the
/// opcode histogram, which both directions share ([`Body::opcodes`]).
/// Window spills and fills stay out: the ops that service them charge
/// them as they run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Settle {
    instructions: u8,
    cycles: u8,
    bubble_cycles: u8,
    data_reads: u8,
    data_writes: u8,
    taken_transfers: u8,
    delay_slots: u8,
    delay_slot_nops: u8,
    calls: u8,
    rets: u8,
}

impl Settle {
    /// The counts of `s`, which [`replay_meta`] filled from one block run.
    fn of(s: &ExecStats) -> Settle {
        let byte = |n: u64| u8::try_from(n).expect("a block's counts fit a byte");
        Settle {
            instructions: byte(s.instructions),
            cycles: byte(s.cycles),
            bubble_cycles: byte(s.bubble_cycles),
            data_reads: byte(s.data_reads),
            data_writes: byte(s.data_writes),
            taken_transfers: byte(s.taken_transfers),
            delay_slots: byte(s.delay_slots),
            delay_slot_nops: byte(s.delay_slot_nops),
            calls: byte(s.calls),
            rets: byte(s.rets),
        }
    }

    /// Adds these counts to `stats`.
    #[inline]
    pub(crate) fn apply(&self, stats: &mut ExecStats) {
        stats.instructions += u64::from(self.instructions);
        stats.cycles += u64::from(self.cycles);
        stats.bubble_cycles += u64::from(self.bubble_cycles);
        stats.data_reads += u64::from(self.data_reads);
        stats.data_writes += u64::from(self.data_writes);
        stats.taken_transfers += u64::from(self.taken_transfers);
        stats.delay_slots += u64::from(self.delay_slots);
        stats.delay_slot_nops += u64::from(self.delay_slot_nops);
        stats.calls += u64::from(self.calls);
        stats.rets += u64::from(self.rets);
    }
}

/// A block body: its lines, and what a completed run retires.
#[derive(Debug, Clone)]
pub(crate) struct Body {
    /// The prepared lines, in address order, never empty. At most one is a
    /// transfer: the last line, or the one before a delay slot.
    pub lines: Box<[Line]>,
    /// A completed run's retirements by exit direction (`[fall-through,
    /// taken]`), the transfer's direction deciding.
    pub settle: [Settle; 2],
    /// A completed run's opcode histogram, `(opcode, count)`.
    pub opcodes: Box<[(Opcode, u8)]>,
    /// Whether the last line is a delay slot: a completed run leaves no
    /// jump in flight. Otherwise a taken transfer among the lines leaves
    /// its target in flight.
    pub slot: bool,
}

impl Body {
    /// The body of `lines`, a block starting at `start`, on a machine
    /// configured as `cfg`.
    fn new(lines: Vec<Line>, start: u32, cfg: &SimConfig) -> Body {
        let suspended = cfg.branch_model == BranchModel::Suspended;
        // Any address stands for a taken transfer's target: only whether
        // one is in flight counts.
        let runs = [None, Some(start)].map(|target| {
            let mut s = ExecStats::new();
            replay_prefix(&mut s, &lines, start, lines.len(), target, suspended);
            s
        });
        Body {
            settle: [Settle::of(&runs[0]), Settle::of(&runs[1])],
            opcodes: runs[0]
                .opcode_counts
                .iter()
                .map(|(op, n)| (op, n as u8))
                .collect(),
            slot: lines.len() >= 2 && lines[lines.len() - 2].is_transfer,
            lines: lines.into(),
        }
    }
}

/// Replays lines `..k` of a block starting at `start`, each as [`retired`]
/// has it: a completed block's aggregate is its whole run replayed, and an
/// early exit at line `k` owes the lines before it.
pub(crate) fn replay_prefix(
    stats: &mut ExecStats,
    lines: &[Line],
    start: u32,
    k: usize,
    target: Option<u32>,
    suspended: bool,
) {
    for i in 0..k {
        replay_meta(stats, &[retired(lines, start, i, target, suspended)]);
    }
}

/// How line `i` of a block starting at `start` retires in a run whose
/// transfer, once committed, left `target` in flight (`None`: it fell
/// through): the transfer in its direction, its delay slot with the
/// target in flight.
pub(crate) fn retired(
    lines: &[Line],
    start: u32,
    i: usize,
    target: Option<u32>,
    suspended: bool,
) -> TMeta {
    let line = &lines[i];
    let pending_before = target.filter(|_| i > 0 && lines[i - 1].is_transfer);
    let pc = start.wrapping_add(4 * i as u32);
    TMeta::of_line(line, pc, pending_before)
        .directed(line.is_transfer && target.is_some(), suspended)
}

/// A formed superblock: its body, its span, its exit profile, and the
/// trace entered at it.
///
/// Call-heavy code enters a block every four or so instructions, and each
/// entry reads this record. At 56 bytes rather than 48 it ran `run_calls`'
/// five programs 1–5% slower in an in-process A/B, so what can be derived
/// is not stored: the retire count ([`Block::insns`]), the promotion heat
/// (the sum of [`Block::hot_exits`]) and liveness (whether
/// [`BlockCache::map`] names the block). The body sits behind one pointer,
/// which leaves 32 bytes.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Entry PC.
    pub start: u32,
    /// Address just past the last included instruction — the fall-through
    /// PC when the block exits without a taken transfer.
    pub end: u32,
    /// The block body. The burst loop takes it out for the run
    /// ([`BlockCache::take_body`]) and puts it back before it touches the
    /// cache again, so entering a block copies nothing; `None` only while
    /// it is out.
    pub body: Option<Box<Body>>,
    /// Completed executions since build by exit direction (`[fall-through,
    /// taken]`): the trace builder's branch-direction profile, and summed,
    /// the trace engine's promotion heat ([`BlockCache::bump_heat`]).
    /// Bumped only under `--engine trace`; dies with the block.
    pub hot_exits: [u32; 2],
    /// The compiled trace entered here, once the block has promoted
    /// ([`BlockCache::attach`]). It dies with the block; a demoted trace
    /// stays, and the block's heat, past the threshold, keeps it from
    /// promoting again.
    pub trace: Option<Box<Trace>>,
}

const _: () = assert!(std::mem::size_of::<Block>() <= 32);

impl Block {
    /// Instructions retired if every op completes — the worst case fuel
    /// accounting must allow for.
    #[inline]
    pub(crate) fn insns(&self) -> u32 {
        self.end.wrapping_sub(self.start) / 4
    }

    /// The block's prepared lines.
    pub(crate) fn lines(&self) -> &[Line] {
        &self
            .body
            .as_ref()
            .expect("a block's body is in place while the cache is read")
            .lines
    }
}

/// The superblock cache: blocks (and the traces entered at them) by entry
/// PC, with per-page registration for block-granular invalidation.
#[derive(Debug, Clone)]
pub(crate) struct BlockCache {
    /// Entry PC → block index, direct-mapped by word address: `map[pc/4]`
    /// is the index of the block starting at `pc`, or [`NO_BLOCK`]. A
    /// plain indexed load keeps the per-block-entry lookup at a couple of
    /// nanoseconds — call/return-heavy code enters a block every three or
    /// four instructions, where a hashed map's probe cost alone erased
    /// most of the engine's win. This map is the liveness rule: a block is
    /// alive exactly while the slot of its start names it, and it dies
    /// when the slot is cleared. Sized to cover memory lazily on first
    /// build, so non-superblock configurations never pay the allocation.
    map: Vec<u32>,
    /// `map`'s target length in words (memory size / 4).
    map_words: usize,
    blocks: Vec<Block>,
    /// For each memory page, the indices of blocks decoded from it or whose
    /// trace was lowered from it. May retain indices of dead blocks
    /// (filtered on use by the liveness rule); cleared on compaction, so
    /// no index outlives the block it named. Grown to the highest
    /// page a block or trace spans, like `map`: nothing is registered past
    /// it, so invalidating such a page is a no-op.
    by_page: Vec<Vec<u32>>,
    /// Dead blocks awaiting compaction.
    dead: usize,
}

impl BlockCache {
    /// An empty cache over `page_count` memory pages.
    pub(crate) fn new(page_count: usize) -> BlockCache {
        BlockCache {
            map: Vec::new(),
            map_words: page_count * (PAGE_BYTES / 4),
            blocks: Vec::new(),
            by_page: Vec::new(),
            dead: 0,
        }
    }

    /// The block at `idx`.
    #[inline]
    pub(crate) fn block(&self, idx: u32) -> &Block {
        &self.blocks[idx as usize]
    }

    /// Takes the body of the block at `idx` out to run it, until
    /// [`BlockCache::put_body`] returns it.
    #[inline]
    pub(crate) fn take_body(&mut self, idx: u32) -> Box<Body> {
        self.blocks[idx as usize]
            .body
            .take()
            .expect("a block's body is put back after each run")
    }

    /// Returns a body taken by [`BlockCache::take_body`].
    #[inline]
    pub(crate) fn put_body(&mut self, idx: u32, body: Box<Body>) {
        self.blocks[idx as usize].body = Some(body);
    }
    /// The trace of the block at `idx`, if it has promoted.
    #[inline]
    pub(crate) fn trace(&self, idx: u32) -> Option<&Trace> {
        self.blocks[idx as usize].trace.as_deref()
    }

    /// [`BlockCache::trace`], mutably.
    pub(crate) fn trace_mut(&mut self, idx: u32) -> Option<&mut Trace> {
        self.blocks[idx as usize].trace.as_deref_mut()
    }

    /// Gives the block at `idx` the trace entered at it, replacing any it
    /// had, and registers the block on every page an op of the trace was
    /// lowered from: a write to any of them kills block and trace together.
    /// Taken branches can hop pages, so the span is the set of op
    /// addresses, not an interval.
    pub(crate) fn attach(&mut self, mem: &mut Memory, idx: u32, trace: Trace) {
        let mut pages: Vec<usize> = trace
            .meta
            .iter()
            .map(|m| m.pc as usize / PAGE_BYTES)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        for page in pages {
            self.register(mem, page, idx);
        }
        self.blocks[idx as usize].trace = Some(Box::new(trace));
    }

    /// Registers the block at `idx` on `page`, once.
    fn register(&mut self, mem: &mut Memory, page: usize, idx: u32) {
        if self.by_page.len() <= page {
            self.by_page.resize_with(page + 1, Vec::new);
        }
        mem.note_code_page(page);
        if !self.by_page[page].contains(&idx) {
            self.by_page[page].push(idx);
        }
    }

    /// Records the exit direction the block at `idx` just took, returning
    /// its new promotion heat: its completed executions, the sum of its
    /// exit profile (saturating; heat counts on past the promotion
    /// threshold, so a block promotes at most once in its life).
    #[inline]
    pub(crate) fn bump_heat(&mut self, idx: u32, taken: bool) -> u32 {
        let exits = &mut self.blocks[idx as usize].hot_exits;
        exits[taken as usize] = exits[taken as usize].saturating_add(1);
        exits[0].saturating_add(exits[1])
    }

    /// Length of the page registration table (the highest page a block
    /// spans, plus one).
    #[cfg(test)]
    pub(crate) fn page_table_len(&self) -> usize {
        self.by_page.len()
    }

    /// Finds the live block starting at `pc`: two dependent loads, the
    /// map slot and then the block.
    #[inline]
    pub(crate) fn lookup(&self, pc: u32) -> Option<u32> {
        let idx = *self.map.get(pc as usize / 4)?;
        if idx == NO_BLOCK {
            return None;
        }
        // A misaligned `pc` lands in some aligned block's map slot; the
        // start check rejects it.
        (self.blocks[idx as usize].start == pc).then_some(idx)
    }

    /// Applies one invalidation event: kills every live block registered
    /// on the named page (or everything), and with it the block's trace.
    /// An index the page kept of a block that already died is stale: the
    /// map no longer names it, though it may name a block rebuilt at the
    /// same start, which this page never held.
    #[cold]
    pub(crate) fn invalidate(&mut self, d: CodeDirty) {
        match d {
            CodeDirty::Page(idx) => {
                let Some(list) = self.by_page.get_mut(idx) else {
                    return;
                };
                for bi in list.drain(..) {
                    let start = self.blocks[bi as usize].start;
                    let slot = &mut self.map[start as usize / 4];
                    if *slot == bi {
                        *slot = NO_BLOCK;
                        self.dead += 1;
                    }
                }
            }
            CodeDirty::All => self.clear(),
        }
    }

    /// Drops everything (wholesale restore, compaction).
    fn clear(&mut self) {
        self.map.fill(NO_BLOCK);
        self.blocks.clear();
        self.by_page.iter_mut().for_each(Vec::clear);
        self.dead = 0;
    }

    /// Rebuilds from scratch once dead blocks dominate. A full clear is the
    /// simplest compaction: it leaves no block index in `map` or `by_page`
    /// to renumber.
    fn maybe_compact(&mut self) {
        if self.dead > COMPACT_DEAD_MIN && self.dead * 2 > self.blocks.len() {
            self.clear();
        }
    }

    /// Forms and registers a new block starting at `pc`. Returns
    /// `None` when not even the first word yields a prepared line
    /// (misaligned, out of range, undecodable) — the caller must take the
    /// architectural one-step path, which raises the proper trap.
    pub(crate) fn build(&mut self, mem: &mut Memory, start: u32, cfg: &SimConfig) -> Option<u32> {
        let lines = collect_lines(mem, start)?;
        let word = start as usize / 4;
        if self.map.len() <= word {
            // Grow the direct map just past the highest entry PC seen,
            // power-of-two stepped (code clusters near `code_base`, so
            // this stays a few KB; covering all of memory up front would
            // cost a megabyte-scale fill on the first build — measurable
            // against a short program's whole runtime).
            let len = (word + 1)
                .next_power_of_two()
                .clamp(word + 1, self.map_words);
            self.map.resize(len, NO_BLOCK);
        }
        self.maybe_compact();
        let end = start.wrapping_add(4 * lines.len() as u32);
        let idx = self.blocks.len() as u32;
        self.blocks.push(Block {
            start,
            end,
            body: Some(Box::new(Body::new(lines, start, cfg))),
            hot_exits: [0; 2],
            trace: None,
        });
        self.map[word] = idx;
        for page in start as usize / PAGE_BYTES..=(end as usize - 4) / PAGE_BYTES {
            self.register(mem, page, idx);
        }
        Some(idx)
    }
}

/// Whether `op` runs only on the one-step path, whose `exec_prepared`
/// keeps the PSW, `last_pc` and the trap unit current per op: CALLI,
/// RETI, GTLPC, GETPSW and PUTPSW. No block holds one.
fn one_step_only(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Calli | Opcode::Reti | Opcode::Gtlpc | Opcode::Getpsw | Opcode::Putpsw
    )
}

/// Collects the prepared lines of one superblock: consecutive words from
/// `start` that fetch without a trap, ending before a one-step-only op,
/// after a transfer (and, when safe, its delay slot) or at a page
/// boundary. Returns `None` if the first fetch traps (misaligned, out of
/// range, undecodable), which the one-step path raises, or if the first
/// op is one-step only.
fn collect_lines(mem: &Memory, start: u32) -> Option<Vec<Line>> {
    let mut lines = Vec::new();
    let mut pc = start;
    while let Some(line) = fetch(mem, pc).ok().filter(|l| !one_step_only(l.op)) {
        lines.push(line);
        pc = pc.wrapping_add(4);
        if line.is_transfer {
            // Every transfer a block holds exposes a delay slot (CALLI,
            // which has none, is one-step only). The slot is included
            // unless it is another transfer, which raises
            // TransferInDelaySlot, or one-step only: the one-step path
            // runs it with the target in flight.
            if let Ok(slot) = fetch(mem, pc) {
                if !slot.is_transfer && !one_step_only(slot.op) {
                    lines.push(slot);
                }
            }
            break;
        }
        if (pc as usize).is_multiple_of(PAGE_BYTES) {
            break;
        }
    }
    (!lines.is_empty()).then_some(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use risc1_isa::{Cond, Instruction, Reg, Short2};

    fn mem_with(words: &[u32]) -> Memory {
        let mut mem = Memory::new(4 * PAGE_BYTES);
        for (i, &w) in words.iter().enumerate() {
            mem.write_u32(4 * i as u32, w).unwrap();
        }
        mem
    }

    fn add(dest: Reg, rs1: Reg, imm: i32) -> u32 {
        Instruction::reg(Opcode::Add, dest, rs1, Short2::imm(imm).unwrap()).encode()
    }

    fn jmpr(cond: Cond, off: i32) -> u32 {
        Instruction::jmpr(cond, off).encode()
    }

    #[test]
    fn block_ends_after_transfer_and_slot() {
        let mem = mem_with(&[
            add(Reg::R16, Reg::R0, 1),
            add(Reg::R17, Reg::R0, 2),
            jmpr(Cond::Alw, -8),
            add(Reg::R18, Reg::R0, 3), // delay slot, included
            add(Reg::R19, Reg::R0, 4), // past the block
        ]);
        let lines = collect_lines(&mem, 0).unwrap();
        assert_eq!(lines.len(), 4, "two ALUs + transfer + slot");
        assert_eq!(lines[2].op, Opcode::Jmpr);
    }

    #[test]
    fn transfer_slot_that_is_a_transfer_is_left_out() {
        let mem = mem_with(&[jmpr(Cond::Alw, 8), jmpr(Cond::Alw, 8)]);
        let lines = collect_lines(&mem, 0).unwrap();
        assert_eq!(lines.len(), 1, "the trapping slot takes the slow path");
    }

    #[test]
    fn block_stops_at_page_boundary() {
        let words: Vec<u32> = (0..40).map(|_| add(Reg::R16, Reg::R16, 1)).collect();
        let mem = mem_with(&words);
        let lines = collect_lines(&mem, 0).unwrap();
        assert_eq!(lines.len(), PAGE_BYTES / 4, "one page of instructions");
    }

    #[test]
    fn no_block_holds_or_starts_at_a_one_step_only_op() {
        for op in [
            Opcode::Calli,
            Opcode::Reti,
            Opcode::Gtlpc,
            Opcode::Getpsw,
            Opcode::Putpsw,
        ] {
            let word = Instruction::reg(op, Reg::R0, Reg::R0, Short2::ZERO).encode();
            let mem = mem_with(&[add(Reg::R16, Reg::R0, 1), word, add(Reg::R17, Reg::R0, 2)]);
            let lines = collect_lines(&mem, 0).unwrap();
            assert_eq!(lines.len(), 1, "{op}: the block ends before it");
            assert!(collect_lines(&mem, 4).is_none(), "{op}: none starts at it");
            let mem = mem_with(&[jmpr(Cond::Alw, 8), word, add(Reg::R17, Reg::R0, 2)]);
            let lines = collect_lines(&mem, 0).unwrap();
            assert_eq!(lines.len(), 1, "{op}: a delay slot holding it is left out");
        }
    }

    #[test]
    fn undecodable_or_misaligned_start_is_refused() {
        let mem = mem_with(&[0xffff_ffff]);
        assert!(collect_lines(&mem, 0).is_none(), "undecodable first word");
        assert!(collect_lines(&mem, 2).is_none(), "misaligned");
        let far = 16 * PAGE_BYTES as u32;
        assert!(collect_lines(&mem, far).is_none(), "out of range");
    }

    #[test]
    fn invalidation_is_block_granular_and_compaction_clears() {
        let cfg = SimConfig::default();
        let mut mem = Memory::new(4 * PAGE_BYTES);
        // One block in page 0, one in page 1.
        mem.write_u32(0, jmpr(Cond::Alw, 0)).unwrap();
        mem.write_u32(4, add(Reg::R16, Reg::R0, 1)).unwrap();
        mem.write_u32(PAGE_BYTES as u32, jmpr(Cond::Alw, 0))
            .unwrap();
        let mut cache = BlockCache::new(mem.page_count());
        let b0 = cache.build(&mut mem, 0, &cfg).unwrap();
        let b1 = cache.build(&mut mem, PAGE_BYTES as u32, &cfg).unwrap();
        assert_eq!(cache.lookup(0), Some(b0));
        cache.invalidate(CodeDirty::Page(0));
        assert_eq!(cache.lookup(0), None, "page-0 block died");
        assert_eq!(
            cache.lookup(PAGE_BYTES as u32),
            Some(b1),
            "page-1 block survives"
        );
        cache.invalidate(CodeDirty::All);
        assert_eq!(cache.lookup(PAGE_BYTES as u32), None);
        assert!(cache.blocks.is_empty(), "All is a full clear");
    }

    #[test]
    fn a_code_page_is_queued_once_until_a_rebuilt_block_registers_it_again() {
        let cfg = SimConfig::default();
        let mut mem = Memory::new(4 * PAGE_BYTES);
        mem.write_u32(0, jmpr(Cond::Alw, 0)).unwrap();
        mem.write_u32(4, add(Reg::R16, Reg::R0, 1)).unwrap();
        let queued = |mem: &mut Memory| {
            let mut events = Vec::new();
            mem.drain_code_dirty(|d| events.push(d));
            events
        };
        let mut cache = BlockCache::new(mem.page_count());
        cache.build(&mut mem, 0, &cfg).unwrap();
        for v in 0..100 {
            mem.write_u32(8, v).unwrap();
        }
        let events = queued(&mut mem);
        assert_eq!(events, vec![CodeDirty::Page(0)], "queued once");
        events.into_iter().for_each(|d| cache.invalidate(d));
        assert_eq!(cache.lookup(0), None, "the block died");
        mem.write_u32(8, 100).unwrap();
        assert!(!mem.code_dirty_pending(), "no block holds the page");
        cache.build(&mut mem, 0, &cfg).unwrap();
        mem.write_u32(8, 101).unwrap();
        mem.write_u32(8, 102).unwrap();
        assert_eq!(
            queued(&mut mem),
            vec![CodeDirty::Page(0)],
            "the rebuilt block registered the page anew"
        );
    }

    #[test]
    fn a_stale_page_index_does_not_kill_a_block_rebuilt_at_its_start() {
        let cfg = SimConfig::default();
        let mut mem = Memory::new(4 * PAGE_BYTES);
        // A block ending on the last word of page 0 whose delay slot sits
        // on page 1, so it is registered on both pages.
        let page = PAGE_BYTES as u32;
        let start = page - 8;
        mem.write_u32(start, add(Reg::R16, Reg::R0, 1)).unwrap();
        mem.write_u32(page - 4, jmpr(Cond::Alw, -4)).unwrap();
        mem.write_u32(page, add(Reg::R17, Reg::R0, 2)).unwrap();
        let mut cache = BlockCache::new(mem.page_count());
        let first = cache.build(&mut mem, start, &cfg).unwrap();
        assert_eq!(cache.block(first).end, page + 4, "the slot is included");
        // Killed through page 0; page 1 keeps its index, now stale.
        cache.invalidate(CodeDirty::Page(0));
        assert_eq!(cache.lookup(start), None);
        assert_eq!(cache.dead, 1);
        // A transfer in the slot is left out, so the block rebuilt at the
        // same start stays on page 0.
        mem.write_u32(page, jmpr(Cond::Alw, 8)).unwrap();
        let rebuilt = cache.build(&mut mem, start, &cfg).unwrap();
        assert_ne!(rebuilt, first);
        assert_eq!(cache.block(rebuilt).end, page, "the slot is left out");
        // Page 1's stale index names the dead block, not the rebuilt one.
        cache.invalidate(CodeDirty::Page(1));
        assert_eq!(
            cache.lookup(start),
            Some(rebuilt),
            "the rebuilt block lives"
        );
        assert_eq!(cache.dead, 1, "and the dead block dies only once");
    }
}
