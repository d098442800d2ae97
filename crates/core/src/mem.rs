//! Byte-addressable main memory, lazily paged.
//!
//! Little-endian, with strict alignment (words on 4-byte, halves on 2-byte
//! boundaries — RISC I had no unaligned access) and read/write traffic
//! counters, because several of the paper's tables are really statements
//! about memory traffic.
//!
//! The address space is backed by a direct-indexed table of
//! `HOST_PAGE_BYTES`-sized host pages, each allocated zeroed by the first
//! write that reaches it. A page never written reads as zero from one
//! shared static page, and no read or peek allocates. So creating, cloning
//! and dropping a memory costs what its program wrote, not what it could
//! address: the suite programs write 2–4 of a default machine's 256 host
//! pages. An access costs one table lookup and never straddles a host
//! page, because accesses are aligned and a host page is a multiple of
//! the widest access.
//!
//! Memory also tracks *dirty pages*: every mutation (stores, image loads,
//! injected bit flips) marks the [`PAGE_BYTES`]-sized page it touched. The
//! dirty-page machinery has two independent consumers:
//!
//! * the checkpoint subsystem ([`crate::snapshot`]) reads and clears the
//!   `dirty` bitmap to keep periodic snapshots incremental — only pages
//!   written since the previous checkpoint are copied and re-checksummed;
//! * the block cache (`crate::superblock`), the one cache of decoded
//!   code, drains its own channel (`code_dirty_*`) so that writes over
//!   already-decoded text kill exactly the blocks (and traces) decoded
//!   from the pages they touched. The first write to a page the cache
//!   registered drops the registration and queues the page, so the queue
//!   never holds more pages than were registered. The channels are fed
//!   by the same `mark_page` entry point but cleared independently, so
//!   taking a checkpoint never hides a self-modifying store from the
//!   block cache (and vice versa).

use crate::windows::SPILL_REGS;
use std::fmt;

/// Size of one dirty-tracking page in bytes. Small enough that sparse
/// writes stay cheap to checkpoint, large enough that the page bitmap and
/// per-page checksum table stay compact (a 1 MiB memory has 8192 pages).
pub const PAGE_BYTES: usize = 128;

/// Size of one host page, the unit of allocation: a whole number of
/// dirty-tracking pages, so a dirty-tracking page never straddles two.
pub(crate) const HOST_PAGE_BYTES: usize = 4096;

const _: () = assert!(HOST_PAGE_BYTES.is_multiple_of(PAGE_BYTES));

type HostPage = [u8; HOST_PAGE_BYTES];

/// What every host page reads as until its first write.
static ZERO_PAGE: HostPage = [0; HOST_PAGE_BYTES];

/// Bytes in one register-window frame, the unit a window trap moves
/// ([`Memory::push_frame`], [`Memory::pop_frame`]).
const FRAME_BYTES: usize = 4 * SPILL_REGS;

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Address (plus access width) falls outside physical memory.
    OutOfRange {
        /// Faulting byte address.
        addr: u32,
        /// Access width in bytes.
        width: u32,
    },
    /// Address is not aligned to the access width.
    Misaligned {
        /// Faulting byte address.
        addr: u32,
        /// Access width in bytes.
        width: u32,
    },
}

impl MemError {
    /// The faulting byte address.
    pub(crate) fn addr(&self) -> u32 {
        match *self {
            MemError::OutOfRange { addr, .. } | MemError::Misaligned { addr, .. } => addr,
        }
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, width } => {
                write!(f, "address {addr:#010x} (width {width}) out of range")
            }
            MemError::Misaligned { addr, width } => {
                write!(f, "address {addr:#010x} misaligned for width {width}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Traffic counters, split by direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemTraffic {
    /// Number of read accesses (any width).
    pub reads: u64,
    /// Number of write accesses (any width).
    pub writes: u64,
}

impl MemTraffic {
    /// Total accesses in either direction.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// One invalidation notice from the code-dirty channel (see
/// [`Memory::drain_code_dirty`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CodeDirty {
    /// Exactly this page was written.
    Page(usize),
    /// Drop everything: a wholesale restore.
    All,
}

/// Bit-scan iterator over one dirty-bitmap word: yields `base + bit` for
/// every set bit, ascending.
struct BitScan {
    base: usize,
    bits: u64,
}

impl Iterator for BitScan {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + b)
    }
}

/// A zeroed host page, straight from the allocator's zeroed memory.
#[cold]
#[inline(never)]
fn zeroed_page() -> Box<HostPage> {
    vec![0; HOST_PAGE_BYTES]
        .into_boxed_slice()
        .try_into()
        .expect("exactly one host page")
}

/// Lazily paged little-endian memory: reads as zero everywhere until
/// written, and holds only the host pages written so far.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Size of the simulated address space in bytes.
    size: usize,
    /// Host page `i` backs bytes `[i * HOST_PAGE_BYTES, (i + 1) *
    /// HOST_PAGE_BYTES)`; `None` until the first write there, reading as
    /// [`ZERO_PAGE`] meanwhile. The last page may extend past `size`; those
    /// bytes are never addressed.
    pages: Vec<Option<Box<HostPage>>>,
    traffic: MemTraffic,
    /// Dirty-page bitmap, one bit per [`PAGE_BYTES`] page — the checkpoint
    /// consumer ([`Memory::dirty_pages`] / [`Memory::clear_dirty`]).
    dirty: Vec<u64>,
    /// Block-cache consumer: the registered pages written since the cache
    /// last drained, each queued by the write that dropped its
    /// registration.
    code_dirty_pages: Vec<u32>,
    /// Flush-everything flag for the block cache, set by
    /// [`Memory::mark_all_dirty`] (wholesale restores).
    code_dirty_all: bool,
    /// Pages the block cache holds decoded code from: a block's lines or
    /// a trace's ops (registered via [`Memory::note_code_page`]), less
    /// those written since. Writes to *unregistered* pages — the
    /// overwhelmingly common case, since data pages outnumber text pages —
    /// never touch the channel at all, so an ordinary store costs one bit
    /// test here instead of a push/drain round-trip with the cache.
    code_pages: Vec<u64>,
}

impl Memory {
    /// Creates a memory of `size` bytes that reads as zero. No host page
    /// is allocated until it is written.
    pub fn new(size: usize) -> Memory {
        let pages = size.div_ceil(PAGE_BYTES);
        Memory {
            size,
            pages: vec![None; size.div_ceil(HOST_PAGE_BYTES)],
            traffic: MemTraffic::default(),
            dirty: vec![0; pages.div_ceil(64)],
            code_dirty_pages: Vec::new(),
            code_dirty_all: false,
            code_pages: vec![0; pages.div_ceil(64)],
        }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Read/write traffic accumulated so far.
    pub fn traffic(&self) -> MemTraffic {
        self.traffic
    }

    /// Resets the traffic counters (e.g. after program load, so experiments
    /// measure only execution traffic).
    pub fn reset_traffic(&mut self) {
        self.traffic = MemTraffic::default();
    }

    /// Overwrites the traffic counters (snapshot restore).
    pub fn set_traffic(&mut self, traffic: MemTraffic) {
        self.traffic = traffic;
    }

    /// Number of dirty-tracking pages ([`PAGE_BYTES`] each; the last page
    /// may be short when the size is not a multiple).
    pub fn page_count(&self) -> usize {
        self.size.div_ceil(PAGE_BYTES)
    }

    /// The bytes of page `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= page_count()`.
    pub fn page(&self, idx: usize) -> &[u8] {
        assert!(idx < self.page_count(), "page {idx} out of range");
        let start = idx * PAGE_BYTES;
        let len = PAGE_BYTES.min(self.size - start);
        let off = start % HOST_PAGE_BYTES;
        &self.host(start / HOST_PAGE_BYTES)[off..off + len]
    }

    /// Whether page `idx` lies in a host page that has been written. A
    /// page that is not resident is all zeros without looking.
    pub(crate) fn page_is_resident(&self, idx: usize) -> bool {
        self.pages
            .get(idx * PAGE_BYTES / HOST_PAGE_BYTES)
            .is_some_and(Option::is_some)
    }

    /// Whether page `idx` has been written since the dirty map was last
    /// cleared.
    pub fn page_is_dirty(&self, idx: usize) -> bool {
        self.dirty
            .get(idx / 64)
            .is_some_and(|w| w & (1 << (idx % 64)) != 0)
    }

    /// Indices of all dirty pages, in ascending order. Allocation-free:
    /// scans the bitmap lazily, so the per-checkpoint cost is proportional
    /// to the bitmap, not to a freshly collected `Vec`.
    pub fn dirty_pages(&self) -> impl Iterator<Item = usize> + '_ {
        let page_count = self.page_count();
        self.dirty.iter().enumerate().flat_map(move |(w, &bits)| {
            BitScan { base: w * 64, bits }.filter(move |&idx| idx < page_count)
        })
    }

    /// Clears the dirty-page map (a checkpoint was just taken). The
    /// code-dirty channel is deliberately untouched: the two consumers
    /// of the dirty tracker are independent.
    pub fn clear_dirty(&mut self) {
        self.dirty.iter_mut().for_each(|w| *w = 0);
    }

    /// Marks every page dirty (conservative reset after a wholesale
    /// restore, when the incremental baseline is no longer valid). Also
    /// arms the code-dirty channel's flush-everything flag, which is what
    /// makes `restore()`/`rollback()`/`revert_to()` drop stale blocks and
    /// traces without any snapshot-side bookkeeping.
    pub fn mark_all_dirty(&mut self) {
        self.dirty.iter_mut().for_each(|w| *w = !0);
        self.code_dirty_all = true;
    }

    /// Whether the code-dirty channel has pending pages — the O(1) poll
    /// the burst loop performs before trusting a cached block, and block
    /// bodies and traces after every op that writes memory.
    #[inline]
    pub(crate) fn code_dirty_pending(&self) -> bool {
        self.code_dirty_all || !self.code_dirty_pages.is_empty()
    }

    /// Drains the code-dirty channel: calls `f` with
    /// [`CodeDirty::Page`] for every page queued since the previous drain,
    /// or with [`CodeDirty::All`] once when [`Memory::mark_all_dirty`]
    /// ran, which drops every registration too. Clears the channel either
    /// way.
    pub(crate) fn drain_code_dirty(&mut self, mut f: impl FnMut(CodeDirty)) {
        if self.code_dirty_all {
            self.code_dirty_all = false;
            self.code_pages.iter_mut().for_each(|w| *w = 0);
            f(CodeDirty::All);
        } else {
            for &idx in &self.code_dirty_pages {
                f(CodeDirty::Page(idx as usize));
            }
        }
        self.code_dirty_pages.clear();
    }

    /// Registers page `idx` as holding decoded code: the next write to it
    /// drops the registration and queues the page on the invalidation
    /// channel. The block cache calls this for every page a block it
    /// builds, or a trace it attaches, was decoded from.
    #[inline]
    pub(crate) fn note_code_page(&mut self, idx: usize) {
        if let Some(w) = self.code_pages.get_mut(idx / 64) {
            *w |= 1 << (idx % 64);
        }
    }

    /// Copies page `idx` from `src` into this memory — the incremental
    /// checkpoint primitive, applied to a held image. Traffic counters and
    /// dirty bits of either side are untouched. A page that reads as zero
    /// on both sides costs nothing and allocates nothing.
    ///
    /// # Panics
    /// Panics if the two memories differ in size or `idx` is out of range.
    pub fn sync_page_from(&mut self, src: &Memory, idx: usize) {
        assert_eq!(self.size, src.size, "image size mismatch");
        let bytes = src.page(idx);
        if src.page_is_resident(idx) || self.page_is_resident(idx) {
            self.store(idx * PAGE_BYTES, bytes);
        }
    }

    /// Host page `idx` for reading: the zero page until it is written.
    #[inline]
    fn host(&self, idx: usize) -> &HostPage {
        match self.pages.get(idx) {
            Some(Some(page)) => page,
            _ => &ZERO_PAGE,
        }
    }

    /// Host page `idx` for writing, allocated zeroed on first use.
    #[inline]
    fn host_mut(&mut self, idx: usize) -> &mut HostPage {
        self.pages[idx].get_or_insert_with(zeroed_page)
    }

    /// The `W` bytes at `i`, which the caller has checked to be in range
    /// and `W`-aligned. Masking with the alignment keeps the offset a
    /// whole access inside the page, so the slice needs no bounds check.
    #[inline]
    fn get<const W: usize>(&self, i: usize) -> [u8; W] {
        let off = i & (HOST_PAGE_BYTES - W);
        let mut bytes = [0; W];
        bytes.copy_from_slice(&self.host(i / HOST_PAGE_BYTES)[off..off + W]);
        bytes
    }

    /// Stores `W` bytes at `i` under the same precondition as
    /// [`Memory::get`].
    #[inline]
    fn put<const W: usize>(&mut self, i: usize, bytes: [u8; W]) {
        let off = i & (HOST_PAGE_BYTES - W);
        self.host_mut(i / HOST_PAGE_BYTES)[off..off + W].copy_from_slice(&bytes);
    }

    /// Copies range-checked `bytes` in at `addr`, one host page at a time.
    /// No traffic, no dirty marks.
    fn store(&mut self, mut addr: usize, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = addr % HOST_PAGE_BYTES;
            let n = bytes.len().min(HOST_PAGE_BYTES - off);
            self.host_mut(addr / HOST_PAGE_BYTES)[off..off + n].copy_from_slice(&bytes[..n]);
            addr += n;
            bytes = &bytes[n..];
        }
    }

    /// Fills `out` from the range-checked bytes at `addr`, one host page
    /// at a time. No traffic.
    fn fetch(&self, mut addr: usize, mut out: &mut [u8]) {
        while !out.is_empty() {
            let off = addr % HOST_PAGE_BYTES;
            let n = out.len().min(HOST_PAGE_BYTES - off);
            let (head, rest) = out.split_at_mut(n);
            head.copy_from_slice(&self.host(addr / HOST_PAGE_BYTES)[off..off + n]);
            addr += n;
            out = rest;
        }
    }

    /// Marks the `width` bytes at `addr` written, page by page.
    fn mark_dirty(&mut self, addr: u32, width: usize) {
        // Callers validate bounds before mutating; the tracker relies on it.
        debug_assert!(width > 0 && addr as u64 + width as u64 <= self.size as u64);
        let first = addr as usize / PAGE_BYTES;
        let last = (addr as usize + width - 1) / PAGE_BYTES;
        for idx in first..=last {
            self.mark_page(idx);
        }
    }

    /// Marks page `idx` written for both consumers. An aligned store never
    /// straddles a page, so it marks exactly the page holding its address.
    #[inline]
    fn mark_page(&mut self, idx: usize) {
        if let Some(w) = self.dirty.get_mut(idx / 64) {
            *w |= 1 << (idx % 64);
        }
        self.note_code_dirty(idx);
    }

    /// Feeds the code-dirty channel with one dirtied page index. Writes
    /// to pages the cache holds nothing for are filtered out here. The
    /// first write to a registered page drops its registration and queues
    /// it, so a page written a million times between drains is queued
    /// once, and again only once a block rebuilt on it registers it anew.
    #[inline]
    fn note_code_dirty(&mut self, idx: usize) {
        let Some(w) = self.code_pages.get_mut(idx / 64) else {
            return;
        };
        let bit = 1 << (idx % 64);
        if *w & bit != 0 {
            *w &= !bit;
            self.code_dirty_pages.push(idx as u32);
        }
    }

    #[inline]
    fn check(&self, addr: u32, width: u32) -> Result<usize, MemError> {
        if !addr.is_multiple_of(width) {
            return Err(MemError::Misaligned { addr, width });
        }
        let end = addr as u64 + width as u64;
        if end > self.size as u64 {
            return Err(MemError::OutOfRange { addr, width });
        }
        Ok(addr as usize)
    }

    /// Reads a 32-bit word.
    ///
    /// # Errors
    /// [`MemError::Misaligned`] unless `addr` is 4-aligned;
    /// [`MemError::OutOfRange`] past the end of memory.
    #[inline]
    pub fn read_u32(&mut self, addr: u32) -> Result<u32, MemError> {
        let i = self.check(addr, 4)?;
        self.traffic.reads += 1;
        Ok(u32::from_le_bytes(self.get(i)))
    }

    /// Reads a 16-bit halfword (zero-extended to u16).
    #[inline]
    pub fn read_u16(&mut self, addr: u32) -> Result<u16, MemError> {
        let i = self.check(addr, 2)?;
        self.traffic.reads += 1;
        Ok(u16::from_le_bytes(self.get(i)))
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1)?;
        self.traffic.reads += 1;
        Ok(self.get::<1>(i)[0])
    }

    /// Writes a 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), MemError> {
        let i = self.check(addr, 4)?;
        self.traffic.writes += 1;
        self.put(i, v.to_le_bytes());
        self.mark_page(i / PAGE_BYTES);
        Ok(())
    }

    /// Writes a 16-bit halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, v: u16) -> Result<(), MemError> {
        let i = self.check(addr, 2)?;
        self.traffic.writes += 1;
        self.put(i, v.to_le_bytes());
        self.mark_page(i / PAGE_BYTES);
        Ok(())
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.traffic.writes += 1;
        self.put(i, [v]);
        self.mark_page(i / PAGE_BYTES);
        Ok(())
    }

    /// Pushes one register-window frame onto a save stack that grows down
    /// from `top`: `words[k]` goes to `top - 4 * (k + 1)`, the order a
    /// window spill saves registers in. The result is that of the
    /// [`Memory::write_u32`] calls made one word at a time in that order,
    /// errors included, for one range check, one host-page lookup (two
    /// when the frame straddles host pages) and one dirty mark.
    ///
    /// All words of a frame share `top`'s alignment, and the first word
    /// pushed is the highest, so a push that fails fails at its first word
    /// and stores nothing. A frame that would run below address 0 is out of
    /// range as a whole.
    ///
    /// # Errors
    /// [`MemError::Misaligned`] unless `top` is 4-aligned, else
    /// [`MemError::OutOfRange`] when the frame does not fit; either names
    /// the first word, `top - 4`.
    pub(crate) fn push_frame(
        &mut self,
        top: u32,
        words: &[u32; SPILL_REGS],
    ) -> Result<(), MemError> {
        let first = top.wrapping_sub(4);
        if !top.is_multiple_of(4) {
            return Err(MemError::Misaligned {
                addr: first,
                width: 4,
            });
        }
        if (top as usize) < FRAME_BYTES || top as u64 > self.size as u64 {
            return Err(MemError::OutOfRange {
                addr: first,
                width: 4,
            });
        }
        let mut frame = [0; FRAME_BYTES];
        for (slot, w) in frame.as_chunks_mut::<4>().0.iter_mut().rev().zip(words) {
            *slot = w.to_le_bytes();
        }
        let base = top - FRAME_BYTES as u32;
        self.store(base as usize, &frame);
        self.traffic.writes += SPILL_REGS as u64;
        self.mark_dirty(base, FRAME_BYTES);
        Ok(())
    }

    /// Pops the register-window frame whose lowest word is at `bottom`:
    /// the inverse of `push_frame(bottom + 4 * SPILL_REGS, ..)`, so
    /// `words[k]` comes from `bottom + 4 * (SPILL_REGS - 1 - k)`. The result
    /// is that of [`Memory::read_u32`] calls made one word at a time from
    /// `bottom` upward, the order a window fill restores registers in,
    /// errors included: a frame that runs off the end of memory reads and
    /// counts the words below the end before the first word past it faults.
    ///
    /// # Errors
    /// [`MemError::Misaligned`] at `bottom` unless it is 4-aligned;
    /// [`MemError::OutOfRange`] at the first word past the end of memory.
    pub(crate) fn pop_frame(&mut self, bottom: u32) -> Result<[u32; SPILL_REGS], MemError> {
        if !bottom.is_multiple_of(4) {
            return Err(MemError::Misaligned {
                addr: bottom,
                width: 4,
            });
        }
        if bottom as u64 + FRAME_BYTES as u64 > self.size as u64 {
            let fit = (self.size as u64).saturating_sub(bottom as u64) / 4;
            self.traffic.reads += fit;
            return Err(MemError::OutOfRange {
                addr: bottom.wrapping_add(4 * fit as u32),
                width: 4,
            });
        }
        let mut frame = [0; FRAME_BYTES];
        self.fetch(bottom as usize, &mut frame);
        self.traffic.reads += SPILL_REGS as u64;
        let mut words = [0; SPILL_REGS];
        for (w, slot) in words.iter_mut().zip(frame.as_chunks::<4>().0.iter().rev()) {
            *w = u32::from_le_bytes(*slot);
        }
        Ok(words)
    }

    /// Bulk-loads `data` at `addr` without touching traffic counters
    /// (program/data loading, not simulated accesses). An empty image
    /// writes nothing and marks nothing dirty.
    pub fn load_image(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
        let end = addr as u64 + data.len() as u64;
        if end > self.size as u64 {
            return Err(MemError::OutOfRange {
                addr,
                width: data.len() as u32,
            });
        }
        if data.is_empty() {
            return Ok(());
        }
        self.store(addr as usize, data);
        self.mark_dirty(addr, data.len());
        Ok(())
    }

    /// Flips one bit of one byte, bypassing traffic accounting — the fault
    /// injector's corruption primitive.
    ///
    /// # Errors
    /// [`MemError::OutOfRange`] past the end of memory.
    pub fn flip_bit(&mut self, addr: u32, bit: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.host_mut(i / HOST_PAGE_BYTES)[i % HOST_PAGE_BYTES] ^= 1 << (bit & 7);
        self.mark_page(i / PAGE_BYTES);
        Ok(())
    }

    /// Reads a byte without traffic accounting (instruction-stream fetch
    /// for the byte-coded CISC machine, debugger inspection).
    #[inline]
    pub fn peek_u8(&self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1)?;
        Ok(self.get::<1>(i)[0])
    }

    /// Reads a word without traffic accounting (instruction fetch, and
    /// debugger/test inspection of results).
    #[inline]
    pub fn peek_u32(&self, addr: u32) -> Result<u32, MemError> {
        let i = self.check(addr, 4)?;
        Ok(u32::from_le_bytes(self.get(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn word_roundtrip_and_endianness() {
        let mut m = Memory::new(64);
        m.write_u32(8, 0x1234_5678).unwrap();
        assert_eq!(m.read_u32(8).unwrap(), 0x1234_5678);
        assert_eq!(m.read_u8(8).unwrap(), 0x78, "little endian");
        assert_eq!(m.read_u8(11).unwrap(), 0x12);
        assert_eq!(m.read_u16(8).unwrap(), 0x5678);
    }

    #[test]
    fn alignment_faults() {
        let mut m = Memory::new(64);
        assert_eq!(
            m.read_u32(2),
            Err(MemError::Misaligned { addr: 2, width: 4 })
        );
        assert_eq!(
            m.write_u16(5, 0),
            Err(MemError::Misaligned { addr: 5, width: 2 })
        );
        assert!(m.read_u8(5).is_ok());
    }

    #[test]
    fn range_faults() {
        let mut m = Memory::new(16);
        assert!(m.read_u32(12).is_ok());
        assert_eq!(
            m.read_u32(16),
            Err(MemError::OutOfRange { addr: 16, width: 4 })
        );
        // End-of-memory straddle.
        assert!(m.write_u32(14, 0).is_err());
        // Overflow-proof arithmetic near u32::MAX.
        assert!(m.read_u8(u32::MAX).is_err());
    }

    #[test]
    fn traffic_counts_accesses_not_bytes() {
        let mut m = Memory::new(64);
        m.write_u32(0, 1).unwrap();
        m.write_u8(4, 2).unwrap();
        let _ = m.read_u16(0).unwrap();
        assert_eq!(
            m.traffic(),
            MemTraffic {
                reads: 1,
                writes: 2
            }
        );
        m.reset_traffic();
        assert_eq!(m.traffic().total(), 0);
    }

    #[test]
    fn an_empty_image_writes_and_marks_nothing() {
        let mut m = Memory::new(64);
        assert_eq!(m.load_image(64, &[]), Ok(()), "fits at the very end");
        m.load_image(8, &[]).unwrap();
        assert_eq!(m.page_count(), 1);
        assert!(dirty(&m).is_empty());
        assert_eq!(
            m.load_image(65, &[]),
            Err(MemError::OutOfRange { addr: 65, width: 0 })
        );
    }

    #[test]
    fn load_image_bypasses_traffic() {
        let mut m = Memory::new(64);
        m.load_image(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.peek_u32(4).unwrap(), 0x0403_0201);
        assert_eq!(m.traffic().total(), 0);
        assert!(m.load_image(62, &[0; 4]).is_err());
    }

    /// The collected form of the lazy [`Memory::dirty_pages`] iterator.
    fn dirty(m: &Memory) -> Vec<usize> {
        m.dirty_pages().collect()
    }

    #[test]
    fn writes_mark_exactly_the_touched_pages() {
        let mut m = Memory::new(4 * PAGE_BYTES);
        assert_eq!(m.page_count(), 4);
        assert!(dirty(&m).is_empty(), "fresh memory is clean");
        m.write_u32(0, 1).unwrap();
        m.write_u8(2 * PAGE_BYTES as u32 + 5, 7).unwrap();
        assert_eq!(dirty(&m), vec![0, 2]);
        assert!(m.page_is_dirty(0) && !m.page_is_dirty(1));
        m.clear_dirty();
        assert!(dirty(&m).is_empty());
        // Failed writes mark nothing.
        assert!(m.write_u32(2, 1).is_err());
        assert!(m.write_u32(!3u32, 1).is_err());
        assert!(dirty(&m).is_empty());
    }

    #[test]
    fn image_loads_and_bit_flips_mark_pages() {
        let mut m = Memory::new(4 * PAGE_BYTES);
        // A load that straddles a page boundary marks both pages.
        m.load_image(PAGE_BYTES as u32 - 2, &[1, 2, 3, 4]).unwrap();
        assert_eq!(dirty(&m), vec![0, 1]);
        m.clear_dirty();
        m.flip_bit(3 * PAGE_BYTES as u32, 0).unwrap();
        assert_eq!(dirty(&m), vec![3]);
    }

    /// The collected form of one [`Memory::drain_code_dirty`] call:
    /// `(flushed_everything, exact_pages)`.
    fn drain(m: &mut Memory) -> (bool, Vec<usize>) {
        let mut all = false;
        let mut pages = Vec::new();
        m.drain_code_dirty(|d| match d {
            CodeDirty::Page(idx) => pages.push(idx),
            CodeDirty::All => all = true,
        });
        (all, pages)
    }

    #[test]
    fn code_dirty_channel_is_independent_of_checkpoint_clears() {
        let mut m = Memory::new(4 * PAGE_BYTES);
        for idx in 0..4 {
            m.note_code_page(idx);
        }
        assert!(!m.code_dirty_pending());
        m.write_u32(0, 1).unwrap();
        m.write_u32(2 * PAGE_BYTES as u32, 2).unwrap();
        // A checkpoint clears its own bitmap but must not swallow the
        // block cache's view of the same writes.
        m.clear_dirty();
        assert!(m.code_dirty_pending());
        assert_eq!(drain(&mut m), (false, vec![0, 2]));
        assert!(!m.code_dirty_pending());
        // Deduplication: many stores to one page pend once (the drain
        // dropped page 1's registration, so re-register first).
        m.note_code_page(1);
        for _ in 0..10 {
            m.write_u32(PAGE_BYTES as u32, 3).unwrap();
        }
        assert_eq!(drain(&mut m), (false, vec![1]));
    }

    #[test]
    fn unregistered_pages_never_raise_the_code_dirty_channel() {
        let mut m = Memory::new(4 * PAGE_BYTES);
        m.note_code_page(1);
        // Data-page writes (nothing decoded there) stay off the channel …
        m.write_u32(0, 1).unwrap();
        m.write_u32(3 * PAGE_BYTES as u32, 2).unwrap();
        assert!(!m.code_dirty_pending());
        // … while the registered page pends, and the write that queued it
        // dropped the registration, as the drain drops the cached lines.
        m.write_u32(PAGE_BYTES as u32, 3).unwrap();
        assert_eq!(drain(&mut m), (false, vec![1]));
        m.write_u32(PAGE_BYTES as u32, 4).unwrap();
        assert!(!m.code_dirty_pending(), "registration dropped by the write");
    }

    #[test]
    fn mark_all_dirty_arms_the_flush_everything_flag() {
        let mut m = Memory::new(4 * PAGE_BYTES);
        for idx in 0..4 {
            m.note_code_page(idx);
        }
        m.write_u32(0, 1).unwrap();
        m.mark_all_dirty();
        assert_eq!(drain(&mut m), (true, vec![]));
        // The flush-everything drain dropped every registration; a
        // re-registered page pends exactly again.
        m.note_code_page(1);
        m.write_u32(PAGE_BYTES as u32, 2).unwrap();
        assert_eq!(drain(&mut m), (false, vec![1]));
    }

    #[test]
    fn sync_page_from_copies_one_page_verbatim() {
        let mut a = Memory::new(2 * PAGE_BYTES);
        let mut b = Memory::new(2 * PAGE_BYTES);
        a.write_u32(4, 0xdead_beef).unwrap();
        a.write_u32(PAGE_BYTES as u32, 0x1234_5678).unwrap();
        b.sync_page_from(&a, 0);
        assert_eq!(b.peek_u32(4).unwrap(), 0xdead_beef);
        assert_eq!(
            b.peek_u32(PAGE_BYTES as u32).unwrap(),
            0,
            "page 1 untouched"
        );
        b.sync_page_from(&a, 1);
        assert_eq!(b.peek_u32(PAGE_BYTES as u32).unwrap(), 0x1234_5678);
    }

    #[test]
    fn partial_final_page_is_tracked() {
        let mut m = Memory::new(PAGE_BYTES + 8);
        assert_eq!(m.page_count(), 2);
        assert_eq!(m.page(1).len(), 8);
        m.write_u32(PAGE_BYTES as u32 + 4, 9).unwrap();
        assert_eq!(dirty(&m), vec![1]);
        m.mark_all_dirty();
        assert_eq!(dirty(&m), vec![0, 1]);
    }

    /// The flat memory a lazily paged [`Memory`] must be indistinguishable
    /// from: a byte vector, the traffic counters, both dirty-page
    /// consumers, and frame transfers written as the word-at-a-time loops
    /// they replace.
    struct Flat {
        bytes: Vec<u8>,
        traffic: MemTraffic,
        dirty: BTreeSet<usize>,
        code_pages: BTreeSet<usize>,
        pending: Vec<usize>,
        flush_all: bool,
        /// Host pages a successful mutation has reached.
        written: BTreeSet<usize>,
    }

    impl Flat {
        fn new(size: usize) -> Flat {
            Flat {
                bytes: vec![0; size],
                traffic: MemTraffic::default(),
                dirty: BTreeSet::new(),
                code_pages: BTreeSet::new(),
                pending: Vec::new(),
                flush_all: false,
                written: BTreeSet::new(),
            }
        }

        fn check(&self, addr: u32, width: u32) -> Result<usize, MemError> {
            if !addr.is_multiple_of(width) {
                Err(MemError::Misaligned { addr, width })
            } else if addr as usize + width as usize > self.bytes.len() {
                Err(MemError::OutOfRange { addr, width })
            } else {
                Ok(addr as usize)
            }
        }

        fn mark(&mut self, at: usize, len: usize) {
            for idx in at / PAGE_BYTES..=(at + len - 1) / PAGE_BYTES {
                self.dirty.insert(idx);
                if self.code_pages.remove(&idx) {
                    self.pending.push(idx);
                }
            }
            self.written
                .extend(at / HOST_PAGE_BYTES..=(at + len - 1) / HOST_PAGE_BYTES);
        }

        fn peek(&self, addr: u32, width: u32) -> Result<u32, MemError> {
            let i = self.check(addr, width)?;
            let bytes = &self.bytes[i..i + width as usize];
            Ok(bytes.iter().rev().fold(0, |v, &b| v << 8 | u32::from(b)))
        }

        fn read(&mut self, addr: u32, width: u32) -> Result<u32, MemError> {
            let v = self.peek(addr, width)?;
            self.traffic.reads += 1;
            Ok(v)
        }

        fn write(&mut self, addr: u32, width: u32, v: u32) -> Result<(), MemError> {
            let i = self.check(addr, width)?;
            self.traffic.writes += 1;
            self.bytes[i..i + width as usize].copy_from_slice(&v.to_le_bytes()[..width as usize]);
            self.mark(i, width as usize);
            Ok(())
        }

        fn load(&mut self, addr: u32, data: &[u8]) -> Result<(), MemError> {
            let at = addr as usize;
            if at + data.len() > self.bytes.len() {
                return Err(MemError::OutOfRange {
                    addr,
                    width: data.len() as u32,
                });
            }
            if !data.is_empty() {
                self.bytes[at..at + data.len()].copy_from_slice(data);
                self.mark(at, data.len());
            }
            Ok(())
        }

        fn flip(&mut self, addr: u32, bit: u8) -> Result<(), MemError> {
            let i = self.check(addr, 1)?;
            self.bytes[i] ^= 1 << (bit & 7);
            self.mark(i, 1);
            Ok(())
        }

        fn push_frame(&mut self, top: u32, words: &[u32; SPILL_REGS]) -> Result<(), MemError> {
            if top.is_multiple_of(4) && (top as usize) < FRAME_BYTES {
                return Err(MemError::OutOfRange {
                    addr: top.wrapping_sub(4),
                    width: 4,
                });
            }
            for (k, &w) in words.iter().enumerate() {
                self.write(top.wrapping_sub(4 * (k as u32 + 1)), 4, w)?;
            }
            Ok(())
        }

        fn pop_frame(&mut self, bottom: u32) -> Result<[u32; SPILL_REGS], MemError> {
            let mut words = [0; SPILL_REGS];
            for (j, w) in words.iter_mut().rev().enumerate() {
                *w = self.read(bottom.wrapping_add(4 * j as u32), 4)?;
            }
            Ok(words)
        }

        fn sync_from(&mut self, src: &Flat, idx: usize) {
            let start = idx * PAGE_BYTES;
            let end = (start + PAGE_BYTES).min(self.bytes.len());
            self.bytes[start..end].copy_from_slice(&src.bytes[start..end]);
            if src.written.contains(&(start / HOST_PAGE_BYTES)) {
                self.written.insert(start / HOST_PAGE_BYTES);
            }
        }

        fn mark_all_dirty(&mut self) {
            self.dirty = (0..self.bytes.len().div_ceil(PAGE_BYTES)).collect();
            self.flush_all = true;
        }

        fn drain(&mut self) -> (bool, Vec<usize>) {
            let drained = if self.flush_all {
                self.code_pages.clear();
                (true, Vec::new())
            } else {
                (false, self.pending.clone())
            };
            self.flush_all = false;
            self.pending.clear();
            drained
        }
    }

    /// Host pages `m` has allocated.
    fn resident(m: &Memory) -> usize {
        m.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Three whole host pages and a short fourth, whose last
    /// dirty-tracking page is short too.
    const MODEL_BYTES: usize = 3 * HOST_PAGE_BYTES + 200;

    /// Addresses that find the edges: anywhere in memory, around a
    /// host-page boundary, around the end, or anywhere at all.
    fn edge_addr() -> impl Strategy<Value = u32> {
        prop_oneof![
            0..MODEL_BYTES as u32 + 8,
            (1u32..4, 0u32..144).prop_map(|(h, d)| h * HOST_PAGE_BYTES as u32 + d - 72),
            (0u32..144).prop_map(|d| MODEL_BYTES as u32 + d - 72),
            any::<u32>(),
        ]
    }

    /// An image of up to 5000 bytes drawn from `x`, long enough to cross
    /// a host page.
    fn image(x: u32) -> Vec<u8> {
        (0..x as usize % 5000)
            .map(|i| (i as u32 ^ x) as u8)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn lazily_paged_memory_is_indistinguishable_from_flat_memory(
            ops in collection::vec((0u8..12, edge_addr(), any::<u32>()), 1..64)
        ) {
            let mut m = Memory::new(MODEL_BYTES);
            let mut flat = Flat::new(MODEL_BYTES);
            // The other side of `sync_page_from`, fed by image loads only.
            let mut src = Memory::new(MODEL_BYTES);
            let mut flat_src = Flat::new(MODEL_BYTES);
            let pages = m.page_count();
            for (kind, addr, x) in ops {
                let before = resident(&m);
                let width = [1, 2, 4][x as usize % 3];
                match kind {
                    0 => {
                        let got = match width {
                            1 => m.read_u8(addr).map(u32::from),
                            2 => m.read_u16(addr).map(u32::from),
                            _ => m.read_u32(addr),
                        };
                        prop_assert_eq!(got, flat.read(addr, width));
                        prop_assert_eq!(resident(&m), before, "a read allocated");
                    }
                    1 => {
                        let got = match width {
                            1 => m.write_u8(addr, x as u8),
                            2 => m.write_u16(addr, x as u16),
                            _ => m.write_u32(addr, x),
                        };
                        prop_assert_eq!(got, flat.write(addr, width, x));
                    }
                    2 => {
                        if x % 2 == 0 {
                            prop_assert_eq!(m.peek_u8(addr).map(u32::from), flat.peek(addr, 1));
                        } else {
                            prop_assert_eq!(m.peek_u32(addr), flat.peek(addr, 4));
                        }
                        prop_assert_eq!(resident(&m), before, "a peek allocated");
                    }
                    3 => prop_assert_eq!(m.load_image(addr, &image(x)), flat.load(addr, &image(x))),
                    4 => prop_assert_eq!(m.flip_bit(addr, x as u8), flat.flip(addr, x as u8)),
                    5 => {
                        let words = std::array::from_fn(|k| x.rotate_left(k as u32));
                        prop_assert_eq!(m.push_frame(addr, &words), flat.push_frame(addr, &words));
                    }
                    6 => {
                        prop_assert_eq!(m.pop_frame(addr), flat.pop_frame(addr));
                        prop_assert_eq!(resident(&m), before, "a frame pop allocated");
                    }
                    7 => prop_assert_eq!(
                        src.load_image(addr, &image(x)),
                        flat_src.load(addr, &image(x))
                    ),
                    8 => {
                        let idx = addr as usize % pages;
                        m.sync_page_from(&src, idx);
                        flat.sync_from(&flat_src, idx);
                    }
                    9 => {
                        let idx = addr as usize % pages;
                        m.note_code_page(idx);
                        flat.code_pages.insert(idx);
                    }
                    10 => prop_assert_eq!(drain(&mut m), flat.drain()),
                    _ if x % 2 == 0 => {
                        m.clear_dirty();
                        flat.dirty.clear();
                    }
                    _ => {
                        m.mark_all_dirty();
                        flat.mark_all_dirty();
                    }
                }
                prop_assert_eq!(m.traffic(), flat.traffic);
                prop_assert!(resident(&m) <= flat.written.len(), "allocated an unwritten page");
            }
            for (mem, flat) in [(&m, &flat), (&src, &flat_src)] {
                for idx in 0..pages {
                    let start = idx * PAGE_BYTES;
                    let end = (start + PAGE_BYTES).min(MODEL_BYTES);
                    prop_assert_eq!(mem.page(idx), &flat.bytes[start..end], "page {}", idx);
                }
                prop_assert!(resident(mem) <= flat.written.len(), "allocated an unwritten page");
            }
            prop_assert_eq!(dirty(&m), flat.dirty.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(drain(&mut m), flat.drain());
        }
    }

    proptest! {
        #[test]
        fn bytes_compose_into_words(addr in 0u32..15, v in any::<u32>()) {
            let addr = addr * 4;
            let mut m = Memory::new(64);
            m.write_u32(addr, v).unwrap();
            let composed = (0..4).map(|k| (m.read_u8(addr + k).unwrap() as u32) << (8 * k))
                .fold(0, |acc, b| acc | b);
            prop_assert_eq!(composed, v);
        }

        #[test]
        fn halves_compose_into_words(addr in 0u32..15, v in any::<u32>()) {
            let addr = addr * 4;
            let mut m = Memory::new(64);
            m.write_u32(addr, v).unwrap();
            let lo = m.read_u16(addr).unwrap() as u32;
            let hi = m.read_u16(addr + 2).unwrap() as u32;
            prop_assert_eq!(lo | (hi << 16), v);
        }
    }
}
