//! Predecoded instruction cache.
//!
//! `exec_one` used to pay a `peek_u32` → [`Instruction::decode`] round-trip
//! for every retired instruction, then re-match the operand shape inside
//! the dispatch arm. All of that is a pure function of memory content, so
//! this module shadows memory with lazily-filled pages of fully *prepared*
//! lines ([`Line`]): the decoded instruction plus its pre-extracted
//! operands, base cycle cost and transfer flag. The first fetch of a word
//! decodes and prepares it once; every later fetch is two array indexes.
//!
//! Correctness hinges on invalidation, and invalidation rides the existing
//! dirty-page machinery: [`crate::mem::Memory`] feeds a dedicated
//! decode-cache channel from the same `mark_dirty` entry point that the
//! checkpoint subsystem uses. Before trusting any cached line the CPU polls
//! that channel (an O(1) flag check, `Cpu::drain_code_invalidations`) and
//! fans each event out to this cache *and* the superblock cache, dropping
//! exactly the pages that were written — so self-modifying code, snapshot
//! `restore()`, and `revert_to()` all see freshly decoded text. Those two
//! are the only consumers: a compiled trace lives in the block it is
//! entered at, registered on every page it read, so the block cache drops
//! it with its block. The cache
//! holds *derived* state only: it never appears in snapshots, journals, or
//! checksums, and the `interp_equivalence` suite asserts runs with and
//! without it are bit-identical.
//!
//! Scope note: the whole address space is shadowed, not just the text
//! segment — recovery stubs (e.g. at `RECOVERY_STUB_BASE`, below
//! `code_base`) and trap handlers execute from arbitrary addresses and
//! deserve caching too. Pages are allocated on first execution from them,
//! and the page table itself grows only to the highest page executed, so
//! a program that runs from a few dozen pages never pays for the rest of
//! memory.

use crate::mem::{CodeDirty, Memory, PAGE_BYTES};
use risc1_isa::insn::Operands;
use risc1_isa::spec::{self, Transfer};
use risc1_isa::{Cond, Instruction, Opcode, Reg, Short2};

/// Decoded slots per page: one per 32-bit word.
const LINES_PER_PAGE: usize = PAGE_BYTES / 4;

/// One prepared instruction: the decode result plus everything the
/// execute loop would otherwise recompute per retirement. The operand
/// fields are a *flattened* view of [`Operands`] — each shape fills the
/// fields it has and leaves the rest at neutral values the dispatch arms
/// for that opcode never read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Line {
    /// The decoded instruction (kept whole for trace records and the
    /// hazard model's read-set computation).
    pub insn: Instruction,
    /// Copy of `insn.opcode`, the dispatch key.
    pub op: Opcode,
    /// Copy of `insn.scc`.
    pub scc: bool,
    /// Whether the operands were a long (19-bit immediate) shape.
    pub long: bool,
    /// Precomputed transfer flag, from the spec table's `transfer` column.
    pub is_transfer: bool,
    /// Precomputed base cycle cost, from the spec table's `base_cycles`
    /// column.
    pub base_cycles: u8,
    /// Destination / link / store-data register (short shapes).
    pub dest: Reg,
    /// First source register (short shapes).
    pub rs1: Reg,
    /// Second source operand (short shapes).
    pub s2: Short2,
    /// The 19-bit immediate (long shapes).
    pub imm19: i32,
    /// Jump condition (conditional shapes).
    pub cond: Cond,
}

impl Line {
    /// Flattens a decoded instruction into its prepared form. This is the
    /// work the cache amortises: the uncached path runs it on every
    /// retirement, a cache hit never runs it at all.
    #[inline]
    pub(crate) fn prepare(insn: Instruction) -> Line {
        let (dest, rs1, s2, imm19, cond, long) = match insn.operands {
            Operands::Short { dest, rs1, s2 } => (dest, rs1, s2, 0, Cond::Nvr, false),
            Operands::Long { dest, imm19 } => (dest, Reg::R0, Short2::ZERO, imm19, Cond::Nvr, true),
            Operands::ShortCond { cond, rs1, s2 } => (Reg::R0, rs1, s2, 0, cond, false),
            Operands::LongCond { cond, imm19 } => {
                (Reg::R0, Reg::R0, Short2::ZERO, imm19, cond, true)
            }
        };
        let entry = spec::entry(insn.opcode);
        Line {
            insn,
            op: insn.opcode,
            scc: insn.scc,
            long,
            is_transfer: entry.transfer != Transfer::None,
            base_cycles: entry.base_cycles,
            dest,
            rs1,
            s2,
            imm19,
            cond,
        }
    }

    /// The value an LDHI line loads: its 19-bit immediate in the high
    /// bits, the low 13 zero.
    #[inline]
    pub(crate) fn ldhi_value(&self) -> u32 {
        (self.imm19 as u32) << 13
    }
}

/// The base cycle cost a prepared cache line carries for `insn`. Exposed so
/// the `--spec-audit` pass can cross-check the engine's per-line cost
/// against the spec table without reaching into the private cache type.
pub fn prepared_base_cycles(insn: &Instruction) -> u8 {
    Line::prepare(*insn).base_cycles
}

/// The cache proper: one lazily-allocated line array per memory page.
///
/// A line is `None` until the word at that address has been fetched and
/// successfully decoded. Undecodable or out-of-range words are never
/// cached — those fetches fall back to the slow path, which produces the
/// architecturally-correct trap.
#[derive(Debug, Clone, Default)]
pub(crate) struct ICache {
    /// Indexed by page; grown on first fetch to the highest page fetched
    /// from (pages past its end hold nothing, so invalidating one is a
    /// no-op).
    pages: Vec<Option<Box<[Option<Line>; LINES_PER_PAGE]>>>,
}

impl ICache {
    /// Fetches the prepared line at `pc`, filling it on first use. Returns
    /// `None` for anything the cache does not handle — misaligned or
    /// out-of-range addresses and undecodable words — which the caller
    /// must route through the uncached fetch path for proper trap
    /// delivery.
    ///
    /// The caller is responsible for draining the memory's code-dirty
    /// channel first (`Cpu::drain_code_invalidations`): the drain is shared
    /// with the superblock cache, and a one-sided drain here would swallow
    /// invalidations the block cache still needs.
    #[inline]
    pub(crate) fn fetch(&mut self, mem: &mut Memory, pc: u32) -> Option<Line> {
        if pc & 3 != 0 {
            return None;
        }
        let page = pc as usize / PAGE_BYTES;
        let slot = (pc as usize % PAGE_BYTES) / 4;
        if page >= self.pages.len() {
            if page >= mem.page_count() {
                return None;
            }
            self.pages.resize(page + 1, None);
        }
        let entry = &mut self.pages[page];
        if entry.is_none() {
            // First line in this page: allocate the array and register the
            // page with memory, which arms the invalidation channel for
            // writes to it (writes to unregistered pages bypass the
            // channel entirely).
            *entry = Some(Box::new([None; LINES_PER_PAGE]));
            mem.note_code_page(page);
        }
        let lines = entry.as_mut().expect("just ensured");
        if let Some(line) = lines[slot] {
            return Some(line);
        }
        let word = mem.peek_u32(pc).ok()?;
        let line = Line::prepare(Instruction::decode(word).ok()?);
        lines[slot] = Some(line);
        Some(line)
    }

    /// Applies one invalidation event from the code-dirty channel, dropping
    /// the page it names (or everything, after a wholesale restore or
    /// channel overflow).
    #[cold]
    pub(crate) fn invalidate(&mut self, d: CodeDirty) {
        match d {
            CodeDirty::Page(idx) => {
                if let Some(p) = self.pages.get_mut(idx) {
                    *p = None;
                }
            }
            CodeDirty::All => self.pages.iter_mut().for_each(|p| *p = None),
        }
    }

    /// Length of the page table (the highest page fetched from, plus one).
    #[cfg(test)]
    pub(crate) fn page_table_len(&self) -> usize {
        self.pages.len()
    }

    /// Test helper: drain the channel into this cache alone.
    #[cfg(test)]
    fn sync(&mut self, mem: &mut Memory) {
        if mem.code_dirty_pending() {
            mem.drain_code_dirty(|d| self.invalidate(d));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_word() -> u32 {
        Instruction::reg(Opcode::Add, Reg::R16, Reg::R17, Short2::Reg(Reg::R18)).encode()
    }

    #[test]
    fn first_fetch_decodes_then_hits() {
        let mut mem = Memory::new(4 * PAGE_BYTES);
        mem.write_u32(8, add_word()).unwrap();
        let mut ic = ICache::default();
        ic.sync(&mut mem);
        let a = ic.fetch(&mut mem, 8).expect("decodes");
        assert_eq!(a.op, Opcode::Add);
        // Hit path: same line, channel still quiet.
        assert!(!mem.code_dirty_pending(), "no new invalidations");
        let b = ic.fetch(&mut mem, 8).expect("hits");
        assert_eq!(a, b);
    }

    #[test]
    fn prepared_lines_flatten_every_operand_shape() {
        // Short: all fields extracted.
        let add = Line::prepare(Instruction::reg(
            Opcode::Add,
            Reg::R16,
            Reg::R17,
            Short2::Reg(Reg::R18),
        ));
        assert_eq!((add.dest, add.rs1), (Reg::R16, Reg::R17));
        assert!(!add.long && !add.is_transfer);
        assert_eq!(u64::from(add.base_cycles), Opcode::Add.base_cycles());
        // Long: imm19 extracted, transfer/cycle attributes precomputed.
        let ldhi = Line::prepare(Instruction::ldhi(Reg::R20, 7));
        assert!(ldhi.long);
        assert_eq!((ldhi.dest, ldhi.imm19), (Reg::R20, 7));
        let call = Line::prepare(Instruction::decode(add_word()).unwrap());
        assert_eq!(call.insn.opcode, call.op);
    }

    #[test]
    fn stores_invalidate_exactly_their_page() {
        let mut mem = Memory::new(4 * PAGE_BYTES);
        let sub = Instruction::reg(Opcode::Sub, Reg::R16, Reg::R17, Short2::Reg(Reg::R18)).encode();
        mem.write_u32(0, add_word()).unwrap();
        let mut ic = ICache::default();
        assert_eq!(ic.fetch(&mut mem, 0).unwrap().op, Opcode::Add);
        // Overwrite the cached word: after a drain the next fetch must
        // re-decode.
        mem.write_u32(0, sub).unwrap();
        assert!(mem.code_dirty_pending());
        ic.sync(&mut mem);
        assert_eq!(ic.fetch(&mut mem, 0).unwrap().op, Opcode::Sub);
    }

    #[test]
    fn junk_misalignment_and_out_of_range_are_never_cached() {
        let mut mem = Memory::new(PAGE_BYTES);
        mem.write_u32(4, 0xffff_ffff).unwrap();
        let mut ic = ICache::default();
        assert!(ic.fetch(&mut mem, 4).is_none(), "undecodable");
        assert!(ic.fetch(&mut mem, 2).is_none(), "misaligned");
        assert!(ic.fetch(&mut mem, 4 * PAGE_BYTES as u32).is_none(), "oob");
        assert_eq!(ic.page_table_len(), 1, "no page past memory's end");
    }

    #[test]
    fn mark_all_dirty_flushes_every_cached_page() {
        let mut mem = Memory::new(2 * PAGE_BYTES);
        mem.write_u32(0, add_word()).unwrap();
        mem.write_u32(PAGE_BYTES as u32, add_word()).unwrap();
        let mut ic = ICache::default();
        ic.fetch(&mut mem, 0).unwrap();
        ic.fetch(&mut mem, PAGE_BYTES as u32).unwrap();
        mem.mark_all_dirty();
        ic.sync(&mut mem);
        // Still correct after the flush (content unchanged), and the
        // internal pages were rebuilt from scratch.
        assert_eq!(ic.fetch(&mut mem, 0).unwrap().op, Opcode::Add);
        assert!(ic.pages[1].is_none(), "page 1 dropped, not yet refilled");
    }
}
