//! The overlapped register-window file — the paper's central mechanism.
//!
//! ## Physical organisation
//!
//! The file holds 10 globals plus a circular ring of `16·w` registers for
//! `w` windows (the paper's 138 registers for w = 8). Each window *owns* 16
//! consecutive ring slots: 6 for its LOW (outgoing-parameter) registers and
//! 10 for its LOCALs. A window's HIGH (incoming-parameter) registers are
//! *borrowed* — they are physically the previous window's LOW slots, which
//! is exactly how a `CALL` passes up to six parameters without moving data.
//!
//! ```text
//! window i-1:          [ LOW(6) | LOCAL(10) ]
//! window i:   HIGH ----^         [ LOW(6) | LOCAL(10) ]
//! window i+1:           HIGH ----^          [ LOW(6) | LOCAL(10) ] ...
//! ```
//!
//! ## Overflow and underflow
//!
//! Because the ring is circular, at most `w − 1` windows can be resident
//! simultaneously (with `w` resident, the newest window's LOW slots would
//! alias the oldest window's HIGH). A `CALL` at that limit raises an
//! *overflow*: the oldest window's 16 registers (its HIGH + LOCAL — its LOW
//! stays live as the next window's HIGH) are spilled to a save stack in
//! memory. A `RET` into a spilled window raises an *underflow* and refills
//! them. The simulator's CPU services both traps with a cycle-accounted
//! 16-transfer sequence, which is how the paper costs deep recursion.

use risc1_isa::reg::{HIGH_BASE, LOCAL_BASE, LOW_BASE};
use risc1_isa::Reg;

/// Number of global registers (r0–r9). r0 is hardwired to zero.
pub const GLOBALS: usize = 10;
/// Ring slots owned by each window (6 LOW + 10 LOCAL).
pub const WINDOW_STRIDE: usize = 16;
/// Registers moved per overflow or underflow trap (HIGH + LOCAL).
pub const SPILL_REGS: usize = 16;

/// The register file with overlapped windows.
///
/// ## Storage layout (an interpreter-speed concern, not an architectural
/// one)
///
/// All registers live in one flat `store`: the 10 globals first, then the
/// `16·w` ring slots. Register access is the hottest operation in the
/// whole simulator (two reads and a write on a typical instruction), so
/// the visible-name → store-index translation — a branchy computation
/// involving a modulo by the window count — is not done per access.
/// Instead `maps` precomputes, once at construction, the full 32-entry
/// translation table for *every possible* `cwp`; `read`/`write` are then
/// a two-load table walk, and a `CALL`/`RET` switches tables by moving
/// `cwp` alone. The tables are a pure function of the window geometry
/// (never of register *values*), so none of this is visible state:
/// snapshots and checksums see exactly the globals-then-ring words they
/// always did.
#[derive(Debug, Clone)]
pub struct WindowFile {
    /// Globals (`store[..GLOBALS]`) followed by the ring.
    store: Vec<u32>,
    /// `maps[w][n]` = store index backing visible register `n` when
    /// `cwp == w`. Entry 0 (r0) points at a global slot but is never used:
    /// `read`/`write` special-case r0 first.
    maps: Vec<[u16; 32]>,
    /// Inline copy of `maps[cwp]`, refreshed whenever `cwp` moves, so the
    /// per-access path never chases the `maps` Vec pointer.
    cur: [u16; 32],
    windows: usize,
    cwp: usize,
    /// Number of windows currently resident in the file (1..=windows−1).
    resident: usize,
    /// Windows currently spilled to the save stack.
    spilled: u64,
}

/// Lists the counters of the file's state after its store once, in
/// checksum order, each named by its field (its snapshot JSON key), and
/// derives from the list what the snapshot codec walks.
macro_rules! window_counters {
    ($($field:ident),+ $(,)?) => {
        /// The window file's counters by name, in checksum order: the keys
        /// a snapshot stores them under.
        pub(crate) const WINDOW_COUNTERS: [&str; [$(stringify!($field)),+].len()] =
            [$(stringify!($field)),+];

        impl WindowFile {
            /// The counters' values, in [`WINDOW_COUNTERS`] order.
            pub(crate) fn counters(&self) -> [u64; WINDOW_COUNTERS.len()] {
                [$(self.$field as u64),+]
            }

            /// Sets the counters from values in [`WINDOW_COUNTERS`] order.
            fn set_counters(&mut self, [$($field),+]: [u64; WINDOW_COUNTERS.len()]) {
                $(self.$field = $field as _;)+
            }
        }
    };
}

window_counters!(cwp, resident, spilled);

impl WindowFile {
    /// Creates a file with `windows` windows, all registers zero, at call
    /// depth 0.
    ///
    /// # Panics
    /// Panics if `windows < 2` (with fewer there is no ring to overlap).
    pub fn new(windows: usize) -> WindowFile {
        assert!(windows >= 2, "need at least 2 register windows");
        let mut f = WindowFile {
            store: vec![0; GLOBALS + WINDOW_STRIDE * windows],
            maps: Vec::new(),
            cur: [0; 32],
            windows,
            cwp: 0,
            resident: 1,
            spilled: 0,
        };
        f.maps = (0..windows)
            .map(|w| {
                let mut map = [0u16; 32];
                for r in Reg::all() {
                    let n = r.number();
                    map[n as usize] = match f.physical_slot(w, r) {
                        None => n as u16,
                        Some(i) => (GLOBALS + i) as u16,
                    };
                }
                map
            })
            .collect();
        f.cur = f.maps[f.cwp];
        f
    }

    /// Number of windows in the file.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Current window pointer.
    pub fn cwp(&self) -> u8 {
        self.cwp as u8
    }

    /// Saved window pointer: the oldest resident window.
    pub fn swp(&self) -> u8 {
        self.oldest() as u8
    }

    /// Current call depth (0 = entry frame): every window above the
    /// entry frame, resident or spilled. A `CALL` and a `RET` move it with
    /// `resident`; a spill and a fill move `resident` against `spilled` and
    /// leave it be.
    pub fn depth(&self) -> u64 {
        (self.resident - 1) as u64 + self.spilled
    }

    /// Number of windows currently resident.
    pub fn resident(&self) -> usize {
        self.resident
    }

    fn oldest(&self) -> usize {
        // `resident - 1 < windows`, so one conditional wrap replaces a
        // division by the runtime window count.
        let back = self.resident - 1;
        if self.cwp >= back {
            self.cwp - back
        } else {
            self.cwp + self.windows - back
        }
    }

    /// Feeds the complete state of the file (globals, ring, pointers,
    /// counters) into `sink` in a fixed order — the snapshot-checksum
    /// primitive.
    pub(crate) fn for_each_word(&self, mut sink: impl FnMut(u64)) {
        // `store` is globals-then-ring, so this walks the same words in
        // the same order the split representation did.
        for &w in &self.store {
            sink(u64::from(w));
        }
        sink(self.windows as u64);
        for v in self.counters() {
            sink(v);
        }
    }

    /// The flat store (globals then ring), for snapshot serialization.
    pub(crate) fn export_store(&self) -> &[u32] {
        &self.store
    }

    /// Rebuilds a file from serialized state: a `new(windows)` skeleton
    /// (which recomputes the translation tables) refilled with the stored
    /// words and the counters, given in [`WINDOW_COUNTERS`] order. The
    /// inline `cur` map is refreshed from the restored `cwp`.
    ///
    /// `spilled` is held to `mem_bytes / 64 + 1`: each spilled frame sits
    /// in a machine of `mem_bytes` bytes as 64 of them, except at most one
    /// whose push faulted fatally. So [`WindowFile::depth`] cannot
    /// overflow, and nor can the next spill.
    ///
    /// # Errors
    /// A message when `store` does not match the geometry or a counter is
    /// out of range for it.
    pub(crate) fn import(
        windows: usize,
        mem_bytes: usize,
        store: &[u32],
        counters: [u64; WINDOW_COUNTERS.len()],
    ) -> Result<WindowFile, String> {
        if windows < 2 {
            return Err(format!("{windows} register windows (need at least 2)"));
        }
        if store.len() != GLOBALS + WINDOW_STRIDE * windows {
            return Err(format!(
                "store holds {} words, geometry needs {}",
                store.len(),
                GLOBALS + WINDOW_STRIDE * windows
            ));
        }
        let mut f = WindowFile::new(windows);
        f.store.copy_from_slice(store);
        f.set_counters(counters);
        if f.cwp >= windows {
            return Err(format!("cwp {} out of range for {windows} windows", f.cwp));
        }
        if f.resident == 0 || f.resident >= windows {
            return Err(format!(
                "{} resident windows out of range (1..{windows})",
                f.resident
            ));
        }
        let max_spilled = (mem_bytes / (4 * SPILL_REGS)) as u64 + 1;
        if f.spilled > max_spilled {
            return Err(format!(
                "{} spilled windows exceed the {max_spilled} a {mem_bytes}-byte memory holds",
                f.spilled
            ));
        }
        f.cur = f.maps[f.cwp];
        Ok(f)
    }

    /// Physical ring index of `offset` within the 16 slots owned by
    /// `window`.
    fn slot(&self, window: usize, offset: usize) -> usize {
        debug_assert!(offset < WINDOW_STRIDE);
        (window % self.windows) * WINDOW_STRIDE + offset
    }

    /// Physical ring index backing visible register `r` in window `window`.
    /// Returns `None` for globals.
    pub fn physical_slot(&self, window: usize, r: Reg) -> Option<usize> {
        let n = r.number();
        match () {
            _ if n < LOW_BASE => None,
            _ if n < LOCAL_BASE => Some(self.slot(window, (n - LOW_BASE) as usize)),
            _ if n < HIGH_BASE => Some(self.slot(window, 6 + (n - LOCAL_BASE) as usize)),
            _ => {
                let prev = (window + self.windows - 1) % self.windows;
                Some(self.slot(prev, (n - HIGH_BASE) as usize))
            }
        }
    }

    /// Reads visible register `r` in the current window. r0 reads as zero.
    #[inline]
    pub fn read(&self, r: Reg) -> u32 {
        if r.is_zero() {
            return 0;
        }
        // `& 31` keeps the array index branch-free; register numbers are
        // below 32 by construction.
        let i = self.cur[r.number() as usize & 31];
        self.store[i as usize]
    }

    /// Writes visible register `r` in the current window. Writes to r0 are
    /// discarded.
    #[inline]
    pub fn write(&mut self, r: Reg, v: u32) {
        if r.is_zero() {
            return;
        }
        let i = self.cur[r.number() as usize & 31];
        self.store[i as usize] = v;
    }

    /// Flat `store` index backing visible register `r` at window `window` —
    /// the trace engine's build-time register resolution (the same formula
    /// the `maps` tables are built from). The caller special-cases r0.
    pub(crate) fn flat_index(&self, window: usize, r: Reg) -> u16 {
        match self.physical_slot(window, r) {
            None => r.number() as u16,
            Some(i) => (GLOBALS + i) as u16,
        }
    }

    /// Reads the flat `store` word at `idx` (a [`Self::flat_index`] result).
    #[inline]
    pub(crate) fn load_flat(&self, idx: u16) -> u32 {
        self.store[idx as usize]
    }

    /// Writes the flat `store` word at `idx` (a [`Self::flat_index`] result).
    #[inline]
    pub(crate) fn store_flat(&mut self, idx: u16, v: u32) {
        self.store[idx as usize] = v;
    }

    /// All 32 visible registers of the current window, r0 first.
    pub fn visible(&self) -> [u32; 32] {
        let mut out = [0; 32];
        for r in Reg::all() {
            out[r.number() as usize] = self.read(r);
        }
        out
    }

    /// Whether the next `CALL` must spill a window first.
    pub fn call_would_overflow(&self) -> bool {
        self.resident == self.windows - 1
    }

    /// Evicts the oldest resident window, returning the 16 registers
    /// (6 HIGH then 10 LOCAL) that must be written to the save stack.
    ///
    /// # Panics
    /// Panics if no spill is required (call [`call_would_overflow`] first).
    ///
    /// [`call_would_overflow`]: WindowFile::call_would_overflow
    pub fn spill_oldest(&mut self) -> [u32; SPILL_REGS] {
        assert!(self.call_would_overflow(), "spill without overflow");
        let o = self.oldest();
        let prev = (o + self.windows - 1) % self.windows;
        let mut out = [0; SPILL_REGS];
        for (k, slot) in out.iter_mut().take(6).enumerate() {
            *slot = self.store[GLOBALS + self.slot(prev, k)]; // HIGH of o = LOW of o−1
        }
        for (k, slot) in out.iter_mut().skip(6).enumerate() {
            *slot = self.store[GLOBALS + self.slot(o, 6 + k)]; // LOCALs of o
        }
        self.resident -= 1;
        self.spilled += 1;
        out
    }

    /// Enters a new window (the register-file half of a `CALL`).
    ///
    /// # Panics
    /// Panics if the file is full — the CPU must spill first.
    pub fn advance(&mut self) {
        assert!(!self.call_would_overflow(), "advance on a full window file");
        // A compare, not a division by the window count: this runs on
        // every CALL.
        self.cwp = if self.cwp + 1 == self.windows {
            0
        } else {
            self.cwp + 1
        };
        self.cur = self.maps[self.cwp];
        self.resident += 1;
    }

    /// Whether the next `RET` must refill a spilled window first.
    pub fn ret_would_underflow(&self) -> bool {
        self.resident == 1 && self.spilled > 0
    }

    /// Restores a previously spilled window (the one the imminent `RET`
    /// returns into) from the 16 saved registers (6 HIGH then 10 LOCAL).
    ///
    /// # Panics
    /// Panics if no fill is required.
    pub fn fill_previous(&mut self, regs: [u32; SPILL_REGS]) {
        assert!(self.ret_would_underflow(), "fill without underflow");
        let t = (self.cwp + self.windows - 1) % self.windows;
        let prev = (t + self.windows - 1) % self.windows;
        for (k, &v) in regs.iter().take(6).enumerate() {
            let i = GLOBALS + self.slot(prev, k);
            self.store[i] = v;
        }
        for (k, &v) in regs.iter().skip(6).enumerate() {
            let i = GLOBALS + self.slot(t, 6 + k);
            self.store[i] = v;
        }
        self.resident += 1;
        self.spilled -= 1;
    }

    /// Leaves the current window (the register-file half of a `RET`).
    /// Returns `false` — without changing anything — if already at depth 0,
    /// which the CPU treats as program termination.
    ///
    /// # Panics
    /// Panics if the previous window is neither resident nor at depth 0 —
    /// the CPU must fill first.
    pub fn retreat(&mut self) -> bool {
        if self.depth() == 0 {
            return false;
        }
        assert!(!self.ret_would_underflow(), "retreat into a spilled window");
        self.cwp = if self.cwp == 0 {
            self.windows - 1
        } else {
            self.cwp - 1
        };
        self.cur = self.maps[self.cwp];
        self.resident -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use risc1_isa::Reg;

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_one_window() {
        let _ = WindowFile::new(1);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut f = WindowFile::new(8);
        f.write(Reg::R0, 99);
        assert_eq!(f.read(Reg::R0), 0);
    }

    #[test]
    fn globals_are_shared_across_windows() {
        let mut f = WindowFile::new(4);
        f.write(Reg::R5, 42);
        f.advance();
        assert_eq!(f.read(Reg::R5), 42);
        f.write(Reg::R5, 43);
        assert!(f.retreat());
        assert_eq!(f.read(Reg::R5), 43);
    }

    #[test]
    fn low_becomes_callees_high() {
        // The free-parameter-passing property: caller r10..r15 == callee
        // r26..r31, element for element.
        let mut f = WindowFile::new(8);
        for k in 0..6u8 {
            f.write(Reg::new(10 + k).unwrap(), 100 + k as u32);
        }
        f.advance();
        for k in 0..6u8 {
            assert_eq!(f.read(Reg::new(26 + k).unwrap()), 100 + k as u32);
        }
        // And the aliasing is two-way: the callee writing HIGH is visible to
        // the caller's LOW (how results come back).
        f.write(Reg::R26, 7777);
        assert!(f.retreat());
        assert_eq!(f.read(Reg::R10), 7777);
    }

    #[test]
    fn locals_are_private_per_window() {
        let mut f = WindowFile::new(8);
        f.write(Reg::R16, 1);
        f.advance();
        assert_eq!(f.read(Reg::R16), 0, "fresh window sees its own locals");
        f.write(Reg::R16, 2);
        assert!(f.retreat());
        assert_eq!(f.read(Reg::R16), 1);
    }

    #[test]
    fn overflow_triggers_at_capacity() {
        // w windows hold w−1 frames; the (w−1)-th CALL from depth 0 spills.
        let w = 4;
        let mut f = WindowFile::new(w);
        for _ in 0..w - 2 {
            assert!(!f.call_would_overflow());
            f.advance();
        }
        assert!(f.call_would_overflow());
        let _ = f.spill_oldest();
        f.advance();
        // One window went to the save stack: the file is full again, and
        // the depth counts the spilled window with the resident ones.
        assert!(f.call_would_overflow());
        assert_eq!(f.depth(), (w - 1) as u64);
    }

    #[test]
    fn deep_recursion_spills_and_refills_losslessly() {
        // Write a unique signature into every frame's locals and params,
        // recurse far past the file capacity, then unwind and check every
        // frame is intact. This is the strongest single invariant of the
        // window machinery.
        let w = 4;
        let depth = 20;
        let mut f = WindowFile::new(w);
        let mut stack: Vec<[u32; SPILL_REGS]> = Vec::new();
        let (mut spills, mut fills) = (0, 0);
        let sig = |d: u32, k: u32| 1000 * d + k;

        for d in 0..depth {
            for k in 0..10u32 {
                f.write(Reg::new(16 + k as u8).unwrap(), sig(d, k));
            }
            for k in 0..6u32 {
                f.write(Reg::new(10 + k as u8).unwrap(), sig(d, 100 + k));
            }
            if f.call_would_overflow() {
                stack.push(f.spill_oldest());
                spills += 1;
            }
            f.advance();
        }
        assert!(spills > 0, "must have spilled");
        assert_eq!(f.depth(), depth as u64);
        for d in (0..depth).rev() {
            if f.ret_would_underflow() {
                f.fill_previous(stack.pop().unwrap());
                fills += 1;
            }
            assert!(f.retreat());
            for k in 0..10u32 {
                assert_eq!(
                    f.read(Reg::new(16 + k as u8).unwrap()),
                    sig(d, k),
                    "locals of frame {d}"
                );
            }
            for k in 0..6u32 {
                assert_eq!(
                    f.read(Reg::new(10 + k as u8).unwrap()),
                    sig(d, 100 + k),
                    "outgoing params of frame {d}"
                );
            }
        }
        assert!(stack.is_empty());
        assert_eq!(f.depth(), 0);
        assert_eq!(spills, fills);
    }

    #[test]
    fn retreat_at_depth_zero_reports_halt() {
        let mut f = WindowFile::new(8);
        assert!(!f.retreat());
        assert_eq!(f.depth(), 0);
    }

    #[test]
    fn swp_tracks_oldest_window() {
        let mut f = WindowFile::new(8);
        assert_eq!(f.swp(), 0);
        f.advance();
        f.advance();
        assert_eq!(f.cwp(), 2);
        assert_eq!(f.swp(), 0);
    }

    proptest! {
        /// Random call/return sequences against a Vec-of-frames oracle: the
        /// window file must behave exactly like unbounded per-frame storage.
        #[test]
        fn window_file_equals_unbounded_frames(ops in proptest::collection::vec(any::<bool>(), 1..200),
                                               w in 2usize..10) {
            let mut f = WindowFile::new(w);
            let mut spill: Vec<[u32; SPILL_REGS]> = Vec::new();
            // oracle: stack of frames, each [locals(10), low(6)]
            let mut oracle: Vec<[u32; 16]> = vec![[0; 16]];
            let mut counter = 1u32;

            for &is_call in &ops {
                if is_call {
                    // mutate current frame distinctively, then call
                    for k in 0..10 {
                        counter += 1;
                        f.write(Reg::new(16 + k as u8).unwrap(), counter);
                        oracle.last_mut().unwrap()[k] = counter;
                    }
                    for k in 0..6 {
                        counter += 1;
                        f.write(Reg::new(10 + k as u8).unwrap(), counter);
                        oracle.last_mut().unwrap()[10 + k] = counter;
                    }
                    if f.call_would_overflow() {
                        spill.push(f.spill_oldest());
                    }
                    f.advance();
                    // callee HIGH must equal caller LOW
                    let caller = &oracle[oracle.len() - 1];
                    for k in 0..6 {
                        prop_assert_eq!(f.read(Reg::new(26 + k as u8).unwrap()), caller[10 + k]);
                    }
                    oracle.push([0; 16]);
                } else if oracle.len() > 1 {
                    if f.ret_would_underflow() {
                        f.fill_previous(spill.pop().unwrap());
                    }
                    prop_assert!(f.retreat());
                    oracle.pop();
                    let frame = oracle.last().unwrap();
                    for (k, &expect) in frame.iter().enumerate() {
                        let reg = if k < 10 { 16 + k as u8 } else { 10 + (k - 10) as u8 };
                        prop_assert_eq!(f.read(Reg::new(reg).unwrap()), expect);
                    }
                }
            }
            prop_assert_eq!(f.depth() as usize, oracle.len() - 1);
        }
    }
}
