//! Superblock execution: block formation and macro-op fusion over the
//! predecoded instruction cache.
//!
//! The cached engine (PR 4) removed decode from the hot loop but still pays
//! a PC→line lookup, an invalidation-channel poll and a full dispatch per
//! retired instruction. This module removes the per-instruction overheads
//! for straight-line runs: consecutive prepared [`Line`]s are grouped into
//! **superblocks** that end at a transfer of control (including its delay
//! slot, unless the slot is itself a transfer) or at a page boundary, and
//! a block body executes as a tight loop —
//! one PC lookup, one channel poll and one boundary check per *block*
//! instead of per instruction. A block owns its body and the engine runs
//! it by reference: entering a block costs a direct-mapped lookup, with no
//! copy of the body and no reference count.
//!
//! On top of formation, a **macro-op fusion** pass (in the spirit of Celio
//! et al.'s renewed-RISC fusion study) rewrites common adjacent pairs into
//! single fused ops — compare+conditional-jump, LDHI+immediate-ALU constant
//! construction, delayed transfer+safe slot, ALU→load address feeding, and
//! a catch-all adjacent ALU/LDHI pair (tried last, so the specialised
//! shapes keep their matches) — executed by handlers in `Cpu` built from
//! the effects `exec_prepared` itself uses (an ALU or LDHI op's register
//! write, a conditional transfer's direction and cost) and one shared
//! epilogue, whose observable effects are proved bit-identical to running
//! the two instructions through `exec_prepared` (the four-way
//! `interp_equivalence` law).
//!
//! A block is also where a compiled trace lives: the trace tier
//! ([`crate::trace`]) attaches each trace to the block it is entered at,
//! so one lookup finds both.
//!
//! Correctness of invalidation rides the same code-dirty channel as the
//! icache: every page a block's instructions were decoded from — and every
//! page its trace's ops were lowered from — is registered with [`Memory`],
//! and `Cpu::drain_code_invalidations` fans each channel event out to both
//! caches. Invalidation is block-granular: a dirtied page kills exactly the
//! blocks that read it, each with its trace. A block is alive exactly while
//! the entry map names it, and its promotion heat is the sum of its exit
//! profile, so the block record stores neither and stays at 40 bytes. Like
//! the icache, the whole structure is *derived* state — absent from
//! snapshots, journals, and checksums.

use crate::config::SimConfig;
use crate::exec::alu;
use crate::icache::Line;
use crate::mem::{CodeDirty, Memory, PAGE_BYTES};
use crate::trace::Trace;
use risc1_isa::psw::Flags;
use risc1_isa::{Instruction, Opcode, Short2};

/// Sentinel for "no live block starts at this word" in
/// [`BlockCache::map`].
const NO_BLOCK: u32 = u32::MAX;

/// Dead blocks tolerated before a wholesale rebuild of the cache (see
/// [`BlockCache::maybe_compact`]).
const COMPACT_DEAD_MIN: usize = 64;

/// One operation of a superblock body: either a single prepared line or a
/// fused pair. Fused variants carry both original lines — `a` executes
/// first — plus any values the builder could precompute.
#[derive(Debug, Clone)]
pub(crate) enum BOp {
    /// An unfused prepared instruction, executed via `exec_prepared`.
    One(Line),
    /// SCC-setting ALU op `a` + conditional JMP/JMPR `b` reading its flags.
    CmpBranch {
        /// The flag-setting ALU instruction.
        a: Line,
        /// The conditional transfer.
        b: Line,
    },
    /// LDHI `a` + immediate ALU op `b` completing a constant; the result
    /// is a build-time constant.
    LdhiImm {
        /// The LDHI.
        a: Line,
        /// The dependent immediate ALU op.
        b: Line,
        /// `a`'s value: `imm19 << 13`.
        hi: u32,
        /// `b`'s precomputed result.
        value: u32,
        /// `b`'s precomputed flags (latched only if `b.scc`).
        flags: Flags,
    },
    /// Conditional transfer `a` + safe (ALU/LDHI) delay-slot instruction
    /// `b`, executed as one unit.
    TransferSlot {
        /// The transfer.
        a: Line,
        /// The delay-slot instruction.
        b: Line,
    },
    /// ALU op `a` feeding the address register of load `b`.
    AddrFeed {
        /// The address-forming ALU instruction.
        a: Line,
        /// The dependent load.
        b: Line,
    },
    /// Two adjacent plain ALU/LDHI ops retired through one handler — the
    /// catch-all pair, tried after every specialised kind.
    AluPair {
        /// The first instruction.
        a: Line,
        /// The second instruction.
        b: Line,
    },
}

impl BOp {
    /// Instructions this op retires when it completes.
    #[cfg(test)]
    fn insns(&self) -> u32 {
        match self {
            BOp::One(_) => 1,
            _ => 2,
        }
    }
}

/// A formed superblock: its ops, its span, its exit profile, and the trace
/// entered at it.
///
/// Call-heavy code enters a block every four or so instructions, and each
/// entry reads this record. At 56 bytes rather than 48 it ran `run_calls`'
/// five programs 1–5% slower in an in-process A/B, so what can be derived
/// is not stored: the retire count ([`Block::insns`]), the promotion heat
/// (the sum of [`Block::hot_exits`]) and liveness (whether
/// [`BlockCache::map`] names the block). That leaves 40 bytes.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Entry PC.
    pub start: u32,
    /// Address just past the last included instruction — the fall-through
    /// PC when the block exits without a taken transfer.
    pub end: u32,
    /// The block body, never empty. The burst loop takes it out for the
    /// run ([`BlockCache::take_ops`]) and puts it back before it touches
    /// the cache again, so entering a block copies nothing.
    pub ops: Box<[BOp]>,
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

const _: () = assert!(std::mem::size_of::<Block>() <= 40);

impl Block {
    /// Instructions retired if every op completes — the worst case fuel
    /// accounting must allow for.
    #[inline]
    pub(crate) fn insns(&self) -> u32 {
        self.end.wrapping_sub(self.start) / 4
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

    /// Takes the body of the block at `idx` out to run it, leaving it
    /// empty until [`BlockCache::put_ops`] returns it.
    #[inline]
    pub(crate) fn take_ops(&mut self, idx: u32) -> Box<[BOp]> {
        std::mem::take(&mut self.blocks[idx as usize].ops)
    }

    /// Returns a body taken by [`BlockCache::take_ops`].
    #[inline]
    pub(crate) fn put_ops(&mut self, idx: u32, ops: Box<[BOp]>) {
        self.blocks[idx as usize].ops = ops;
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

    /// Drops everything (wholesale restore, channel overflow, compaction).
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

    /// Forms, fuses and registers a new block starting at `pc`. Returns
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
        let ops = fuse(&lines, cfg).into_boxed_slice();
        let end = start.wrapping_add(4 * lines.len() as u32);
        let idx = self.blocks.len() as u32;
        self.blocks.push(Block {
            start,
            end,
            ops,
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

/// Collects the prepared lines of one superblock: consecutive decodable
/// words from `start`, ending after a transfer (and, when safe, its delay
/// slot) or at a page boundary. Returns `None` if not even the first word
/// prepares. Shared with the trace builder, which re-collects the lines of
/// each block on its path.
pub(crate) fn collect_lines(mem: &Memory, start: u32) -> Option<Vec<Line>> {
    if start & 3 != 0 {
        return None;
    }
    let mut lines = Vec::new();
    let mut pc = start;
    while let Some(line) = prepare_at(mem, pc) {
        lines.push(line);
        pc = pc.wrapping_add(4);
        if line.is_transfer {
            // CALLI traps in place (no slot); every other transfer exposes
            // a delay slot, included when it is itself block-safe. A slot
            // that is another transfer raises TransferInDelaySlot — left
            // out so the one-step path delivers the trap.
            if line.op.has_delay_slot() {
                if let Some(slot) = prepare_at(mem, pc) {
                    if !slot.is_transfer {
                        lines.push(slot);
                    }
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

/// Prepares the word at `pc`, or `None` for anything the slow path must
/// handle (never cached, mirroring `ICache::fetch`).
fn prepare_at(mem: &Memory, pc: u32) -> Option<Line> {
    let word = mem.peek_u32(pc).ok()?;
    Some(Line::prepare(Instruction::decode(word).ok()?))
}

/// Whether the opcode is a plain ALU/shift op (the `alu` dispatch set) —
/// the spec table's ALU group.
fn is_alu(op: Opcode) -> bool {
    risc1_isa::spec::entry(op).is_alu()
}

/// ALU ops that consult the incoming carry flag — excluded from build-time
/// constant folding. The spec table's `FlagsRead::Carry` rows.
fn reads_carry(op: Opcode) -> bool {
    risc1_isa::spec::entry(op).reads_carry()
}

/// The left-to-right fusion pass: non-overlapping adjacent pairs, first
/// matching kind wins, with one pair of lookahead so the catch-all never
/// *steals* the left half of a specialised pair — greedy pairing used to
/// let `alu_pair` consume the address-forming ALU (or flag-setter, or
/// LDHI) that the *next* pair would have fused as `addr_feed`/`cmp_branch`/
/// `ldhi_imm`, which is why whole workloads reported zero `addr_feed`
/// pairs. Fusion is attempted only under the default datapath (forwarding
/// on): the fused handlers elide the hazard bookkeeping the interlock
/// model needs, and gating here keeps them exact rather than conditional.
fn fuse(lines: &[Line], cfg: &SimConfig) -> Vec<BOp> {
    let fusable = cfg.forwarding;
    let mut ops = Vec::with_capacity(lines.len());
    let mut i = 0;
    while i < lines.len() {
        if fusable && i + 1 < lines.len() {
            if let Some(op) = try_fuse(&lines[i], &lines[i + 1], cfg) {
                // Lookahead: a catch-all pair here yields exactly one fused
                // pair either way, but a specialised pair starting at the
                // *second* element is a strictly better handler (and what
                // e15 ablates). Defer when one is available.
                let steals_specialised = matches!(op, BOp::AluPair { .. })
                    && i + 2 < lines.len()
                    && try_fuse_specialised(&lines[i + 1], &lines[i + 2], cfg).is_some();
                if !steals_specialised {
                    ops.push(op);
                    i += 2;
                    continue;
                }
            }
        }
        ops.push(BOp::One(lines[i]));
        i += 1;
    }
    ops
}

/// Attempts to fuse the adjacent pair `(a, b)`: every specialised kind
/// first, then the catch-all.
fn try_fuse(a: &Line, b: &Line, cfg: &SimConfig) -> Option<BOp> {
    if let Some(op) = try_fuse_specialised(a, b, cfg) {
        return Some(op);
    }
    let f = &cfg.fusion;
    // Catch-all: any two adjacent plain ALU/LDHI ops. Tried last so the
    // specialised kinds keep their matches; neither half can fault.
    if f.alu_pair
        && (is_alu(a.op) || a.op == Opcode::Ldhi)
        && (is_alu(b.op) || b.op == Opcode::Ldhi)
    {
        return Some(BOp::AluPair { a: *a, b: *b });
    }
    None
}

/// Attempts the four specialised fusion kinds on `(a, b)` — everything but
/// the `alu_pair` catch-all, which `fuse` also consults for lookahead.
fn try_fuse_specialised(a: &Line, b: &Line, cfg: &SimConfig) -> Option<BOp> {
    let f = &cfg.fusion;
    // Compare + conditional jump: `a` deterministically latches the flags
    // `b` tests, and nothing between them can fault.
    if f.cmp_branch && is_alu(a.op) && a.scc && b.op.uses_condition() {
        return Some(BOp::CmpBranch { a: *a, b: *b });
    }
    // Transfer + safe slot: target operands are read before the slot runs
    // in the unfused sequence too, so executing them as a unit is exact.
    // Only ALU/LDHI slots qualify — no faults, no window moves, no PSW.
    if f.transfer_slot && a.op.uses_condition() && (is_alu(b.op) || b.op == Opcode::Ldhi) {
        return Some(BOp::TransferSlot { a: *a, b: *b });
    }
    // LDHI + immediate ALU: the whole pair is a build-time constant when
    // the ALU op ignores carry and its only dynamic input is `a`'s result.
    if f.ldhi_imm
        && a.op == Opcode::Ldhi
        && !a.dest.is_zero()
        && is_alu(b.op)
        && !reads_carry(b.op)
        && b.rs1 == a.dest
    {
        if let Short2::Imm(imm) = b.s2 {
            let hi = a.ldhi_value();
            let out = alu(b.op, hi, imm as i32 as u32, false);
            return Some(BOp::LdhiImm {
                a: *a,
                b: *b,
                hi,
                value: out.value,
                flags: out.flags,
            });
        }
    }
    // ALU feeding the address register of the next load.
    if f.addr_feed && is_alu(a.op) && b.op.is_load() && b.rs1 == a.dest && !a.dest.is_zero() {
        return Some(BOp::AddrFeed { a: *a, b: *b });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use risc1_isa::{Cond, Reg};

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

    fn add_scc(dest: Reg, rs1: Reg, imm: i32) -> u32 {
        Instruction::reg_scc(Opcode::Add, dest, rs1, Short2::imm(imm).unwrap()).encode()
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
    fn undecodable_or_misaligned_start_is_refused() {
        let mem = mem_with(&[0xffff_ffff]);
        assert!(collect_lines(&mem, 0).is_none(), "undecodable first word");
        assert!(collect_lines(&mem, 2).is_none(), "misaligned");
        let far = 16 * PAGE_BYTES as u32;
        assert!(collect_lines(&mem, far).is_none(), "out of range");
    }

    #[test]
    fn fusion_finds_all_four_kinds() {
        let cfg = SimConfig::default();
        let ldl = Instruction::reg(Opcode::Ldl, Reg::R17, Reg::R16, Short2::imm(0).unwrap());
        let mem = mem_with(&[
            Instruction::ldhi(Reg::R16, 5).encode(),
            add(Reg::R16, Reg::R16, 9), // ldhi+imm pair
            add(Reg::R16, Reg::R16, 4),
            ldl.encode(), // addr-feed pair
            add_scc(Reg::R0, Reg::R17, -1),
            jmpr(Cond::Eq, 8),         // cmp+branch pair
            add(Reg::R18, Reg::R0, 1), // its slot, unfused
        ]);
        let lines = collect_lines(&mem, 0).unwrap();
        let ops = fuse(&lines, &cfg);
        assert!(matches!(ops[0], BOp::LdhiImm { value, .. } if value == (5 << 13) + 9));
        assert!(matches!(ops[1], BOp::AddrFeed { .. }));
        assert!(matches!(ops[2], BOp::CmpBranch { .. }));
        assert!(matches!(ops[3], BOp::One(_)));
        assert_eq!(ops.iter().map(BOp::insns).sum::<u32>(), 7);

        // Bare transfer + slot (no preceding scc ALU) fuses as a unit.
        let mem2 = mem_with(&[
            add(Reg::R16, Reg::R0, 1),
            jmpr(Cond::Alw, -4),
            add(Reg::R17, Reg::R0, 2),
        ]);
        let ops2 = fuse(&collect_lines(&mem2, 0).unwrap(), &cfg);
        assert!(matches!(ops2[1], BOp::TransferSlot { .. }));
    }

    #[test]
    fn catch_all_defers_to_a_following_specialised_pair() {
        let cfg = SimConfig::default();
        let ldl = Instruction::reg(Opcode::Ldl, Reg::R18, Reg::R17, Short2::imm(0).unwrap());
        // add; add (address-forming); ldl — greedy pairing used to emit
        // AluPair(add, add) + One(ldl), hiding the addr_feed shape that
        // whole workloads then reported as zero.
        let mem = mem_with(&[
            add(Reg::R16, Reg::R0, 1),
            add(Reg::R17, Reg::R16, 8),
            ldl.encode(),
        ]);
        let lines = collect_lines(&mem, 0).unwrap();
        let ops = fuse(&lines, &cfg);
        assert!(matches!(ops[0], BOp::One(_)), "first ALU yields");
        assert!(matches!(ops[1], BOp::AddrFeed { .. }), "addr_feed wins");
        // With addr_feed knocked out the catch-all reclaims the pair.
        let no_feed = SimConfig {
            fusion: crate::config::FusionConfig {
                addr_feed: false,
                ..crate::config::FusionConfig::default()
            },
            ..SimConfig::default()
        };
        let ops2 = fuse(&lines, &no_feed);
        assert!(matches!(ops2[0], BOp::AluPair { .. }));
        assert!(matches!(ops2[1], BOp::One(_)));
    }

    #[test]
    fn fusion_respects_config_gates() {
        let mem = mem_with(&[
            add_scc(Reg::R0, Reg::R17, -1),
            jmpr(Cond::Eq, 8),
            add(Reg::R18, Reg::R0, 1),
        ]);
        let lines = collect_lines(&mem, 0).unwrap();
        assert!(fuse(&lines, &SimConfig::default())
            .iter()
            .any(|op| !matches!(op, BOp::One(_))));
        let cfg = SimConfig {
            fusion: crate::config::FusionConfig::none(),
            ..SimConfig::default()
        };
        assert!(fuse(&lines, &cfg)
            .iter()
            .all(|op| matches!(op, BOp::One(_))));
        let interlocked = SimConfig {
            forwarding: false,
            ..SimConfig::default()
        };
        assert!(
            fuse(&lines, &interlocked)
                .iter()
                .all(|op| matches!(op, BOp::One(_))),
            "the interlock model disables fusion entirely"
        );
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
