//! Versioned, checksummed CPU snapshots and incremental checkpointing.
//!
//! A [`Snapshot`] is the complete state of a [`Cpu`] — register windows,
//! trap state, PSW, pc/lastpc, statistics, and memory — captured so that
//! [`Cpu::restore`] continues execution **bit-identically** to a run that
//! was never interrupted. Every snapshot carries a format version and an
//! FNV-1a checksum over every value it stores, verified on restore.
//!
//! A snapshot holds what the machine computes and nothing else: the
//! configuration it stores is the [`SimConfig::architectural`] view, and
//! host-side state — the engine tier and its caches, the retirement
//! recorder — is left out. So one machine state has one checksum and one
//! JSON rendering, whichever tier ran it. It holds each value once, too:
//! what can be derived from a stored value — the call depth, the
//! instruction count at capture, the memory size — is derived, not stored
//! beside it, so no two stored values can disagree.
//!
//! A [`Checkpointer`] makes periodic snapshots cheap: it holds one snapshot
//! image and, at each checkpoint, copies only the memory pages written
//! since the previous one (the [`Memory`] dirty-page map), re-hashing just
//! those pages. The cost of each checkpoint is *modeled in cycles*
//! (deterministically, so experiments comparing checkpoint overhead are
//! reproducible in CI): a fixed [`CKPT_BASE_CYCLES`] for the register/state
//! copy plus one cycle per memory word copied.

use crate::config::SimConfig;
use crate::cpu::Cpu;
use crate::json::{
    num, obj, obj_in, Codec, Coded, Field, Flag, Json, JsonError, List, Nullable, Num, Record,
    Then, Tuple, Unhashed, Writer,
};
use crate::mem::{MemTraffic, Memory, PAGE_BYTES};
use crate::stats::{ExecStats, OpcodeCounts};
use crate::trap::TrapKind;
use crate::windows::{WindowFile, WINDOW_COUNTERS};
use risc1_isa::psw::Flags;
use risc1_isa::Opcode;
use std::fmt;

/// Snapshot format version; bumped whenever the captured state changes
/// shape. Restore refuses snapshots from a different version.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Admission limit on the simulated-memory size a *deserialized*
/// configuration may declare — in a snapshot, a journal, a wire submit or
/// a WAL record alike (the [`SimConfig`] record declares it). That
/// input is untrusted; without this bound a one-line frame could make the
/// server allocate arbitrary memory.
pub const MAX_SNAPSHOT_MEM_BYTES: usize = 64 << 20;

/// Admission limit on the register-window count a deserialized
/// configuration may declare (the paper built 8; experiments sweep a few
/// dozen). The floor is the hardware's: a window file needs at least 2.
pub const MAX_SNAPSHOT_WINDOWS: usize = 1024;

/// Admission limit on the per-trap overhead a deserialized configuration
/// may declare, in cycles (the default is 8; Ablation A sweeps 0 to 64).
/// The bound keeps a trap's cost, and the cycle counters it is added to,
/// far from overflowing.
pub const MAX_SNAPSHOT_TRAP_OVERHEAD_CYCLES: u64 = 1 << 16;

/// Admission limit on every counter a deserialized snapshot may declare:
/// the statistics' scalar, trap and opcode counters and the memory traffic
/// counts. No run reaches it (2^62 cycles are centuries of simulation),
/// and from it a counter has room for some 10^14 steps, each of which adds
/// at most about 2^17 (a trap at the largest overhead
/// [`MAX_SNAPSHOT_TRAP_OVERHEAD_CYCLES`] allows). Without it a re-signed
/// snapshot could declare `u64::MAX` and overflow the counter on the next
/// step.
pub const MAX_SNAPSHOT_COUNTER: u64 = 1 << 62;

/// Modeled fixed cost of one incremental checkpoint, in cycles: the
/// register file (138 words), the processor state words, and bookkeeping.
/// Dirty memory pages add one cycle per word copied on top.
pub const CKPT_BASE_CYCLES: u64 = 160;

/// A 64-bit FNV-1a hasher — small, deterministic, dependency-free. Used
/// for snapshot checksums and per-page memory digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    /// Absorbs a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorbs a 64-bit word (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a digest of one memory page — the per-page unit the snapshot
/// checksum and the incremental checkpointer agree on.
pub fn page_sum(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// [`page_sum`] of a full page of zeros (absorbing a zero byte is one
/// multiply): the digest of every page in a host page nothing has written.
const ZERO_PAGE_SUM: u64 = {
    let mut h = Fnv64::OFFSET;
    let mut i = 0;
    while i < PAGE_BYTES {
        h = h.wrapping_mul(Fnv64::PRIME);
        i += 1;
    }
    h
};

/// [`page_sum`] of page `idx` of `mem`, without hashing a full page that
/// lies in an unwritten host page.
fn mem_page_sum(mem: &Memory, idx: usize) -> u64 {
    let page = mem.page(idx);
    if page.len() == PAGE_BYTES && !mem.page_is_resident(idx) {
        ZERO_PAGE_SUM
    } else {
        page_sum(page)
    }
}

/// The register/state half of a snapshot: every field of the processor
/// except memory. Captured and applied by `Cpu::capture_state` /
/// `Cpu::apply_state` (the fields are module-private to `cpu`).
#[derive(Debug, Clone)]
pub(crate) struct CpuState {
    pub(crate) regs: WindowFile,
    pub(crate) pc: u32,
    pub(crate) last_pc: u32,
    pub(crate) flags: Flags,
    pub(crate) interrupts_enabled: bool,
    pub(crate) wstack_ptr: u32,
    pub(crate) pending_target: Option<u32>,
    /// The flat register-file index the last instruction wrote, for the
    /// interlock model (`None` under forwarding).
    pub(crate) last_write: Option<u16>,
    pub(crate) halted: bool,
    pub(crate) stats: ExecStats,
    pub(crate) interrupt_handler: Option<u32>,
    pub(crate) interrupt_pending: bool,
    pub(crate) trap_handlers: [Option<u32>; TrapKind::COUNT],
    pub(crate) active_trap: Option<TrapKind>,
    pub(crate) pending_probe: Option<TrapKind>,
    pub(crate) fuel_limit: u64,
}

/// Stable FNV-1a digest of a configuration's machine identity — its
/// [`SimConfig::architectural`] view, so the host-only engine tier and
/// fusion toggles never move it. Used in [`RestoreError::ConfigMismatch`]
/// diagnostics (expected-vs-found) and as the `config_hash` component of
/// the serve layer's job-dedup key.
pub fn config_hash(cfg: &SimConfig) -> u64 {
    let mut h = Fnv64::new();
    cfg.hash_fields(&mut h, &());
    h.finish()
}

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot was written by a different format version.
    Version {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build restores.
        expected: u32,
    },
    /// The snapshot was captured under a different machine than the CPU
    /// being restored (window count, memory size, timing model…): their
    /// [`SimConfig::architectural`] views differ. The host-only engine
    /// tier and fusion toggles never cause this. The digests are
    /// [`config_hash`] values.
    ConfigMismatch {
        /// [`config_hash`] of the configuration the snapshot was captured
        /// under (what the restore expected to find on the CPU).
        expected: u64,
        /// [`config_hash`] of the CPU the restore was attempted on.
        found: u64,
    },
    /// The snapshot's contents no longer match its checksum.
    Corrupt {
        /// Checksum stored at capture time.
        expected: u64,
        /// Checksum recomputed over the current contents.
        found: u64,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Version { found, expected } => {
                write!(
                    f,
                    "snapshot version {found} (this build restores {expected})"
                )
            }
            RestoreError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot was captured under a different configuration: \
                 config hash {expected:#018x} vs this CPU's {found:#018x}"
            ),
            RestoreError::Corrupt { expected, found } => write!(
                f,
                "snapshot checksum mismatch: stored {expected:#018x}, recomputed {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A complete, self-verifying capture of one simulated machine.
#[derive(Debug, Clone)]
pub struct Snapshot {
    version: u32,
    id: u64,
    /// Always an [`SimConfig::architectural`] view.
    cfg: SimConfig,
    state: CpuState,
    mem: Memory,
    page_sums: Vec<u64>,
    checksum: u64,
}

impl Snapshot {
    /// Captures the full state of `cpu` under the given id.
    pub(crate) fn capture(cpu: &Cpu, id: u64) -> Snapshot {
        let state = cpu.capture_state();
        let mem = cpu.mem.clone();
        let page_sums = (0..mem.page_count())
            .map(|i| mem_page_sum(&mem, i))
            .collect();
        let mut snap = Snapshot {
            version: SNAPSHOT_VERSION,
            id,
            cfg: cpu.config().architectural(),
            state,
            mem,
            page_sums,
            checksum: 0,
        };
        snap.checksum = snap.compute_checksum();
        snap
    }

    /// Format version the snapshot was captured with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The snapshot's id (0 for ad-hoc [`Cpu::snapshot`] captures,
    /// monotonically increasing for [`Checkpointer`] checkpoints).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Instructions retired when the snapshot was taken.
    pub fn at_instruction(&self) -> u64 {
        self.state.stats.instructions
    }

    /// The checksum stored at capture time.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The machine the snapshot was captured on: the capturing CPU's
    /// [`SimConfig::architectural`] view, so its host-only fields are at
    /// their defaults.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Digest of everything the snapshot stores: version, id,
    /// configuration, register/trap state, the memory traffic counters and
    /// the per-page memory digests.
    fn compute_checksum(&self) -> u64 {
        let mut h = Fnv64::new();
        self.hash_fields(&mut h, &());
        h.finish()
    }

    /// Verifies the snapshot against its stored checksum.
    ///
    /// # Errors
    /// [`RestoreError::Corrupt`] when the contents have changed since
    /// capture.
    pub fn verify(&self) -> Result<(), RestoreError> {
        let found = self.compute_checksum();
        if found != self.checksum {
            return Err(RestoreError::Corrupt {
                expected: self.checksum,
                found,
            });
        }
        Ok(())
    }

    /// Restores `cpu` to this snapshot's exact state (the implementation
    /// behind [`Cpu::restore`]). The CPU keeps its own host-only fields
    /// (engine tier, fusion toggles), which may differ from the capture's;
    /// the caches a tier keeps are derived state, invalidated here through
    /// the dirty-page funnel.
    pub(crate) fn restore_into(&self, cpu: &mut Cpu) -> Result<(), RestoreError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(RestoreError::Version {
                found: self.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        if cpu.config().architectural() != self.cfg {
            return Err(RestoreError::ConfigMismatch {
                expected: config_hash(&self.cfg),
                found: config_hash(cpu.config()),
            });
        }
        self.verify()?;
        cpu.apply_state(&self.state);
        cpu.mem = self.mem.clone();
        // The incremental baseline (if any) no longer matches this memory:
        // force the next checkpoint to treat every page as dirty unless a
        // Checkpointer re-establishes the baseline (see its `rollback`).
        cpu.mem.mark_all_dirty();
        Ok(())
    }

    /// The snapshot as a standalone JSON document. Memory is sparse —
    /// only pages with a nonzero byte are written, and pages in unwritten
    /// host pages are skipped unscanned — so snapshots of mostly-empty
    /// address spaces stay small and cheap.
    pub fn to_json(&self) -> String {
        crate::json::to_json(self)
    }

    /// Deserializes a snapshot from JSON text. The input is untrusted:
    /// structural problems and admission-limit violations
    /// ([`MAX_SNAPSHOT_MEM_BYTES`], [`MAX_SNAPSHOT_WINDOWS`],
    /// [`MAX_SNAPSHOT_TRAP_OVERHEAD_CYCLES`], [`MAX_SNAPSHOT_COUNTER`], and
    /// a window file's `spilled` count beyond what its memory holds)
    /// surface as [`JsonError`] before anything large is allocated. The
    /// configuration keeps its [`SimConfig::architectural`] view, so the
    /// host-only fields of the stored one are not read into the snapshot.
    /// The stored checksum is carried as-is — call [`Snapshot::verify`] (or
    /// restore, which verifies) to detect byte-level corruption.
    ///
    /// # Errors
    /// [`JsonError`] on malformed text or any shape or limit violation.
    pub fn from_json(text: &str) -> Result<Snapshot, JsonError> {
        crate::json::from_json(text)
    }
}

// A snapshot as one JSON object, and its checksum: every row but the
// checksum's own. Memory is stored as its traffic counts and its nonzero
// pages; the per-page digests are derived from it, and hashed in its place.
crate::record! {
    Snapshot {
        "version" => version: num(0..=u32::MAX),
        "id" => id: num(0..=u64::MAX),
        "cfg" => cfg: Then(obj(), |c: SimConfig| Ok(c.architectural())),
        "state" => state: obj_in::<CpuState>(&cfg),
        "traffic" => mem: MemoryField(&cfg),
        "pages" => page_sums: PageSums(&mem),
        "checksum" => checksum: Unhashed(num(0..=u64::MAX)),
    }
}

// The register/state half of a snapshot, in checksum order, read under
// the snapshot's configuration.
crate::record! {
    CpuState [cfg: SimConfig] {
        "store" => regs: WindowFileField(cfg),
        "pc" => pc: num(0..=u32::MAX),
        "last_pc" => last_pc: num(0..=u32::MAX),
        "flags" => flags: FlagsField,
        "interrupts_enabled" => interrupts_enabled: Flag,
        "wstack_ptr" => wstack_ptr: num(0..=u32::MAX),
        "pending_target" => pending_target: Nullable(num(0..=u32::MAX)),
        "last_write" => last_write: Nullable(num(0..=u16::MAX)),
        "halted" => halted: Flag,
        "stats" => stats: obj(),
        "interrupt_handler" => interrupt_handler: Nullable(num(0..=u32::MAX)),
        "interrupt_pending" => interrupt_pending: Flag,
        "trap_handlers" => trap_handlers: List(Nullable(num(0..=u32::MAX))),
        "active_trap" => active_trap: Nullable(TRAP_CODE),
        "pending_probe" => pending_probe: Nullable(TRAP_CODE),
        "fuel_limit" => fuel_limit: num(0..=u64::MAX),
    }
}

/// Every counter a snapshot stores, held to [`MAX_SNAPSHOT_COUNTER`]: the
/// statistics' scalar, trap and opcode counts and the memory traffic.
pub(crate) const COUNTER: Num<u64> = num(0..=MAX_SNAPSHOT_COUNTER);

crate::record! {
    MemTraffic {
        "reads" => reads: COUNTER,
        "writes" => writes: COUNTER,
    }
}

/// The window file: its store (globals, then the ring) under the field's
/// key, its counters under their own names beside it. The checksum
/// absorbs the store, the window count and the counters.
struct WindowFileField<'a>(&'a SimConfig);

const WORD: Num<u32> = num(0..=u32::MAX);

/// A window pointer or count, held to the file's geometry by
/// [`WindowFile::import`].
const POINTER: Num<u64> = num(0..=u64::MAX);

impl Field<WindowFile> for WindowFileField<'_> {
    fn write(&self, w: &mut Writer, key: &str, v: &WindowFile) {
        w.key(key);
        w.arr_open();
        v.export_store().iter().for_each(|word| WORD.put(w, word));
        w.arr_close();
        for (key, n) in WINDOW_COUNTERS.into_iter().zip(v.counters()) {
            POINTER.write(w, key, &n);
        }
    }

    fn read(&self, obj: &[(String, Json)], key: &str) -> Result<WindowFile, JsonError> {
        let store: Vec<u32> = List(WORD).read(obj, key)?;
        let mut counters = [0; WINDOW_COUNTERS.len()];
        for (n, key) in counters.iter_mut().zip(WINDOW_COUNTERS) {
            *n = POINTER.read(obj, key)?;
        }
        WindowFile::import(self.0.windows, self.0.mem_bytes, &store, counters)
            .map_err(|e| JsonError::schema(&format!("register file: {e}")))
    }

    fn hash(&self, h: &mut Fnv64, v: &WindowFile) {
        v.for_each_word(|w| h.write_u64(w));
    }
}

/// The PSW flags, packed `z | n << 1 | v << 2 | c << 3` into one number
/// (the checksum absorbs it as one byte).
struct FlagsField;

const FLAG_BITS: Num<u8> = num(0..=0b1111);

fn pack(Flags { z, n, v, c }: Flags) -> u8 {
    u8::from(z) | u8::from(n) << 1 | u8::from(v) << 2 | u8::from(c) << 3
}

impl Codec<Flags> for FlagsField {
    fn put(&self, w: &mut Writer, v: &Flags) {
        FLAG_BITS.put(w, &pack(*v));
    }

    fn get(&self, v: &Json, what: &str) -> Result<Flags, JsonError> {
        let bits = FLAG_BITS.get(v, what)?;
        let [z, n, v, c] = [0, 1, 2, 3].map(|i| bits >> i & 1 != 0);
        Ok(Flags { z, n, v, c })
    }

    fn absorb(&self, h: &mut Fnv64, v: &Flags) {
        h.write_u8(pack(*v));
    }
}

const TRAP_CODE: Coded<TrapKind, u32> = Coded(
    num(1..=TrapKind::COUNT as u32),
    |k| k.code(),
    TrapKind::from_code,
);

/// The dynamic opcode histogram, sparse: `[code, count]` pairs of the
/// nonzero counts. The checksum absorbs every count, in the ISA's fixed
/// order.
pub(crate) struct OpcodeHistogram;

/// One histogram entry: an opcode by its 7-bit code, and its count.
const OPCODE_COUNT: Tuple<Coded<Opcode, u8>, Num<u64>> = Tuple(
    Coded(num(0..=0x7f), |op| *op as u8, Opcode::from_code),
    COUNTER,
);

impl Codec<OpcodeCounts> for OpcodeHistogram {
    fn put(&self, w: &mut Writer, v: &OpcodeCounts) {
        w.arr_open();
        v.iter().for_each(|entry| OPCODE_COUNT.put(w, &entry));
        w.arr_close();
    }

    fn get(&self, v: &Json, what: &str) -> Result<OpcodeCounts, JsonError> {
        let mut counts = OpcodeCounts::new();
        let entries: Vec<(Opcode, u64)> = List(OPCODE_COUNT).get(v, what)?;
        for (op, n) in entries {
            counts.set(op, n);
        }
        Ok(counts)
    }

    fn absorb(&self, h: &mut Fnv64, v: &OpcodeCounts) {
        for &op in Opcode::ALL {
            h.write_u64(v.get(op));
        }
    }
}

crate::keyed! {
    impl[] FlagsField => Flags;
    impl[] OpcodeHistogram => OpcodeCounts;
}

/// The memory of a machine of the snapshot's configuration: its traffic
/// counts under the field's key, then its nonzero pages under `pages` as
/// `[index, [bytes…]]`. The checksum absorbs the traffic counts; the pages
/// are absorbed through their digests ([`PageSums`]).
struct MemoryField<'a>(&'a SimConfig);

const PAGE_INDEX: Num<usize> = num(0..=MAX_SNAPSHOT_MEM_BYTES / PAGE_BYTES);

const BYTE: Num<u8> = num(0..=u8::MAX);

impl Field<Memory> for MemoryField<'_> {
    fn write(&self, w: &mut Writer, key: &str, v: &Memory) {
        obj::<MemTraffic>().write(w, key, &v.traffic());
        w.key("pages");
        w.arr_open();
        for idx in 0..v.page_count() {
            if !v.page_is_resident(idx) {
                continue;
            }
            let page = v.page(idx);
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            w.arr_open();
            PAGE_INDEX.put(w, &idx);
            w.arr_open();
            page.iter().for_each(|b| BYTE.put(w, b));
            w.arr_close();
            w.arr_close();
        }
        w.arr_close();
    }

    fn read(&self, entries: &[(String, Json)], key: &str) -> Result<Memory, JsonError> {
        let mut mem = Memory::new(self.0.mem_bytes);
        let pages: Vec<(usize, Vec<u8>)> =
            List(Tuple(PAGE_INDEX, List(BYTE))).read(entries, "pages")?;
        for (i, bytes) in pages {
            if i >= mem.page_count() {
                return Err(JsonError::schema(&format!(
                    "page index {i} out of range ({} pages)",
                    mem.page_count()
                )));
            }
            let want = mem.page(i).len();
            if bytes.len() != want {
                return Err(JsonError::schema(&format!(
                    "page {i} holds {} bytes, expected {want}",
                    bytes.len()
                )));
            }
            mem.load_image((i * PAGE_BYTES) as u32, &bytes)
                .map_err(|e| JsonError::schema(&format!("page {i}: {e}")))?;
        }
        mem.set_traffic(obj::<MemTraffic>().read(entries, key)?);
        Ok(mem)
    }

    fn hash(&self, h: &mut Fnv64, v: &Memory) {
        v.traffic().hash_fields(h, &());
    }
}

/// The per-page digests of the snapshot's memory: derived, so they are
/// not written and are recomputed when read (byte corruption then lands
/// in [`Snapshot::verify`] as a checksum mismatch rather than a
/// trusted-but-wrong digest). The checksum absorbs their count and each.
struct PageSums<'a>(&'a Memory);

impl Field<Vec<u64>> for PageSums<'_> {
    fn write(&self, _: &mut Writer, _: &str, _: &Vec<u64>) {}

    fn read(&self, _: &[(String, Json)], _: &str) -> Result<Vec<u64>, JsonError> {
        Ok((0..self.0.page_count())
            .map(|i| mem_page_sum(self.0, i))
            .collect())
    }

    fn hash(&self, h: &mut Fnv64, v: &Vec<u64>) {
        h.write_u64(v.len() as u64);
        v.iter().for_each(|&s| h.write_u64(s));
    }
}

/// Cost accounting of a [`Checkpointer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Incremental checkpoints taken (the baseline capture is not
    /// counted — its image is the program image the supervisor holds
    /// anyway).
    pub checkpoints: u64,
    /// Dirty memory pages copied across all checkpoints.
    pub pages_copied: u64,
    /// Bytes those pages amounted to.
    pub bytes_copied: u64,
    /// Deterministic modeled cost in cycles: [`CKPT_BASE_CYCLES`] per
    /// checkpoint plus one cycle per word copied. Kept separate from the
    /// CPU's own cycle counter so checkpointing never perturbs execution.
    pub modeled_cycles: u64,
}

/// Incremental checkpointing driver: holds the latest snapshot and
/// refreshes it cheaply using the memory dirty-page map.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    snap: Snapshot,
    stats: CheckpointStats,
}

impl Checkpointer {
    /// Captures the baseline snapshot (id 1) of `cpu` and arms dirty-page
    /// tracking. Call right after program load, before execution.
    pub fn new(cpu: &mut Cpu) -> Checkpointer {
        let snap = Snapshot::capture(cpu, 1);
        cpu.mem.clear_dirty();
        Checkpointer {
            snap,
            stats: CheckpointStats::default(),
        }
    }

    /// Takes an incremental checkpoint: syncs dirty pages into the held
    /// image, re-digests only those pages, recaptures the register/state
    /// half, and re-checksums. Returns the new snapshot id.
    pub fn checkpoint(&mut self, cpu: &mut Cpu) -> u64 {
        let mut bytes = 0u64;
        let mut pages_copied = 0u64;
        for idx in cpu.mem.dirty_pages() {
            self.snap.mem.sync_page_from(&cpu.mem, idx);
            bytes += self.snap.mem.page(idx).len() as u64;
            self.snap.page_sums[idx] = mem_page_sum(&self.snap.mem, idx);
            pages_copied += 1;
        }
        self.snap.mem.set_traffic(cpu.mem.traffic());
        self.snap.id += 1;
        cpu.mem.clear_dirty();
        self.snap.state = cpu.capture_state();
        self.snap.checksum = self.snap.compute_checksum();
        self.stats.checkpoints += 1;
        self.stats.pages_copied += pages_copied;
        self.stats.bytes_copied += bytes;
        self.stats.modeled_cycles += CKPT_BASE_CYCLES + bytes / 4;
        self.snap.id
    }

    /// Rolls `cpu` back to the latest checkpoint. The dirty-page baseline
    /// is re-established (memory now equals the held image exactly), so
    /// subsequent checkpoints stay incremental.
    ///
    /// # Errors
    /// [`RestoreError`] when the held snapshot fails verification or no
    /// longer matches the CPU's configuration.
    pub fn rollback(&self, cpu: &mut Cpu) -> Result<(), RestoreError> {
        self.snap.restore_into(cpu)?;
        cpu.mem.clear_dirty();
        Ok(())
    }

    /// Restores an *older* snapshot (e.g. a campaign baseline) into `cpu`
    /// and re-anchors the checkpointer on it, so escalated rollbacks past
    /// the latest checkpoint keep incremental tracking consistent. The
    /// latest checkpoint may have captured already-corrupted state — a
    /// fault can manifest long after the perturbation that caused it —
    /// and this is the escape hatch. Cost accounting carries over.
    ///
    /// # Errors
    /// [`RestoreError`] when `snap` fails verification or no longer
    /// matches the CPU's configuration.
    pub fn revert_to(&mut self, cpu: &mut Cpu, snap: &Snapshot) -> Result<(), RestoreError> {
        snap.restore_into(cpu)?;
        cpu.mem.clear_dirty();
        self.snap = snap.clone();
        Ok(())
    }

    /// The latest checkpointed snapshot.
    pub fn latest(&self) -> &Snapshot {
        &self.snap
    }

    /// Cost accounting so far.
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{get, Parser};
    use crate::program::Program;
    use risc1_isa::{Cond, Instruction, Opcode, Reg, Short2};

    fn imm(v: i32) -> Short2 {
        Short2::imm(v).unwrap()
    }

    /// A small loop program: sum 1..=n into r17, store each partial into
    /// memory, return the sum. Keeps writing so checkpoints see dirt.
    fn loop_program() -> Program {
        Program::from_instructions(vec![
            /* 0  */ Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, imm(50)), // n
            /* 4  */ Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, imm(0)), // sum
            /* 8  */ Instruction::ldhi(Reg::R18, 1), // scratch at 0x2000
            /* 12 loop: */
            Instruction::reg(Opcode::Add, Reg::R17, Reg::R17, Reg::R16.into()),
            /* 16 */ Instruction::reg(Opcode::Stl, Reg::R17, Reg::R18, imm(0)),
            /* 20 */ Instruction::reg_scc(Opcode::Sub, Reg::R16, Reg::R16, imm(1)),
            /* 24 */ Instruction::jmpr(Cond::Ne, -12),
            /* 28 */ Instruction::nop(),
            /* 32 */ Instruction::reg(Opcode::Add, Reg::R26, Reg::R17, Short2::ZERO),
            /* 36 */ Instruction::ret(Reg::R0, imm(0)),
            /* 40 */ Instruction::nop(),
        ])
    }

    fn fresh_cpu() -> Cpu {
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&loop_program()).unwrap();
        cpu
    }

    #[test]
    fn the_zero_page_sum_is_the_digest_of_a_zero_page() {
        assert_eq!(ZERO_PAGE_SUM, page_sum(&[0; PAGE_BYTES]));
        // A short last page inside an unwritten host page is hashed.
        let mem = Memory::new(PAGE_BYTES + 8);
        assert_eq!(mem_page_sum(&mem, 0), ZERO_PAGE_SUM);
        assert_eq!(mem_page_sum(&mem, 1), page_sum(&[0; 8]));
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        // Reference: run to completion untouched.
        let mut reference = fresh_cpu();
        reference.run().unwrap();

        // Interrupted: run half, snapshot, run to completion; then restore
        // a second CPU from the snapshot and finish there too.
        let mut cpu = fresh_cpu();
        for _ in 0..100 {
            cpu.step().unwrap();
        }
        let snap = cpu.snapshot();
        snap.verify().unwrap();
        assert_eq!(snap.at_instruction(), 100);
        cpu.run().unwrap();

        let mut twin = Cpu::new(SimConfig::default());
        twin.restore(&snap).unwrap();
        twin.run().unwrap();

        for c in [&cpu, &twin] {
            assert_eq!(c.result(), reference.result());
            let a = c.stats();
            let b = reference.stats();
            assert_eq!(a, b, "stats must be bit-identical");
        }
        // Full-state digests agree too (registers, memory, everything).
        assert!(cpu.snapshot().checksum() != 0, "checksum is computed");
        assert_eq!(
            Snapshot::capture(&cpu, 7).compute_checksum(),
            Snapshot::capture(&twin, 7).compute_checksum(),
            "final machine states are identical"
        );
    }

    #[test]
    fn restore_rejects_config_mismatch_and_corruption() {
        let mut cpu = fresh_cpu();
        for _ in 0..10 {
            cpu.step().unwrap();
        }
        let mut snap = cpu.snapshot();

        let mut other = Cpu::new(SimConfig::with_windows(4));
        match other.restore(&snap) {
            Err(RestoreError::ConfigMismatch { expected, found }) => {
                assert_eq!(expected, config_hash(&SimConfig::default()));
                assert_eq!(found, config_hash(&SimConfig::with_windows(4)));
                assert_ne!(expected, found, "differing configs must hash apart");
            }
            other => panic!("expected a config mismatch, got {other:?}"),
        }
        for arch in [
            SimConfig {
                mem_bytes: 1 << 21,
                ..SimConfig::default()
            },
            SimConfig {
                forwarding: false,
                ..SimConfig::default()
            },
        ] {
            assert!(
                matches!(
                    Cpu::new(arch.clone()).restore(&snap),
                    Err(RestoreError::ConfigMismatch { .. })
                ),
                "{arch:?}"
            );
        }
        // Engine tier and fusion are host-only: a CPU that differs from the
        // capture only there restores it...
        let mut cached = Cpu::new(SimConfig {
            engine: crate::config::ExecEngine::Cached,
            fusion: crate::config::FusionConfig::none(),
            ..SimConfig::default()
        });
        cached.restore(&snap).unwrap();
        assert_eq!(cached.stats(), cpu.stats());
        // ...and captures the same snapshot bit for bit: a snapshot stores
        // only the architectural configuration, so no tier is in its
        // checksum or its JSON.
        assert_eq!(cached.snapshot().checksum(), snap.checksum());
        assert_eq!(cached.snapshot().to_json(), snap.to_json());
        // A body that names another tier reads back as the same snapshot.
        let renamed = snap
            .to_json()
            .replace("\"engine\":\"trace\"", "\"engine\":\"uncached\"");
        assert_ne!(renamed, snap.to_json());
        let back = Snapshot::from_json(&renamed).unwrap();
        back.verify().unwrap();
        assert_eq!(back.to_json(), snap.to_json());

        // Tamper with the captured state: verification must fail.
        snap.state.pc ^= 4;
        assert!(matches!(snap.verify(), Err(RestoreError::Corrupt { .. })));
        let mut twin = Cpu::new(SimConfig::default());
        assert!(matches!(
            twin.restore(&snap),
            Err(RestoreError::Corrupt { .. })
        ));

        // And a version from the future is refused before anything else.
        snap.state.pc ^= 4;
        snap.checksum = snap.compute_checksum();
        snap.version = SNAPSHOT_VERSION + 1;
        assert!(matches!(
            twin.restore(&snap),
            Err(RestoreError::Version { .. })
        ));
    }

    #[test]
    fn checkpointer_is_incremental_and_rolls_back_exactly() {
        let mut cpu = fresh_cpu();
        let mut ckpt = Checkpointer::new(&mut cpu);
        assert_eq!(ckpt.latest().id(), 1);
        assert_eq!(ckpt.stats().checkpoints, 0);

        for _ in 0..60 {
            cpu.step().unwrap();
        }
        let id = ckpt.checkpoint(&mut cpu);
        assert_eq!(id, 2);
        let s = ckpt.stats();
        assert_eq!(s.checkpoints, 1);
        assert!(s.pages_copied > 0, "the loop writes memory");
        assert!(
            (s.pages_copied as usize) < cpu.mem.page_count() / 2,
            "incremental: far fewer pages than the whole memory"
        );
        assert_eq!(s.modeled_cycles, CKPT_BASE_CYCLES + s.bytes_copied / 4);

        // Checkpoint digest equals a from-scratch full capture's state.
        ckpt.latest().verify().unwrap();
        let mark = cpu.snapshot();

        // Run further, then roll back: the machine must be bit-identical
        // to the checkpoint, and re-running must reproduce the future.
        for _ in 0..40 {
            cpu.step().unwrap();
        }
        let ahead = cpu.stats().instructions;
        ckpt.rollback(&mut cpu).unwrap();
        assert_eq!(cpu.stats().instructions, mark.at_instruction());
        assert_eq!(
            Snapshot::capture(&cpu, 0).compute_checksum(),
            Snapshot::capture_from_mark(&mark),
            "rollback restores the exact checkpointed state"
        );
        for _ in 0..40 {
            cpu.step().unwrap();
        }
        assert_eq!(cpu.stats().instructions, ahead, "re-execution is exact");

        // A second checkpoint after rollback is still incremental.
        let id = ckpt.checkpoint(&mut cpu);
        assert_eq!(id, 3);
        assert!(ckpt.stats().pages_copied < 2 * cpu.mem.page_count() as u64);
    }

    impl Snapshot {
        /// Test helper: digest of a snapshot re-captured at id 0 so it can
        /// be compared against another id-0 capture.
        fn capture_from_mark(mark: &Snapshot) -> u64 {
            let mut m = mark.clone();
            m.id = 0;
            m.compute_checksum()
        }
    }

    #[test]
    fn snapshot_json_round_trips_bit_identically() {
        let mut cpu = fresh_cpu();
        for _ in 0..100 {
            cpu.step().unwrap();
        }
        let snap = cpu.snapshot();
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).unwrap();
        back.verify().unwrap();
        assert_eq!(back.checksum(), snap.checksum());
        assert_eq!(back.at_instruction(), snap.at_instruction());

        // A CPU restored from the deserialized snapshot finishes exactly
        // like an uninterrupted run.
        let mut reference = fresh_cpu();
        reference.run().unwrap();
        let mut twin = Cpu::new(SimConfig::default());
        twin.restore(&back).unwrap();
        twin.run().unwrap();
        assert_eq!(twin.result(), reference.result());
        assert_eq!(twin.stats(), reference.stats());

        // Serializing again is byte-identical (stable key order).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn snapshot_json_rejects_corruption_and_oversized_declarations() {
        let mut cpu = fresh_cpu();
        for _ in 0..20 {
            cpu.step().unwrap();
        }
        let text = cpu.snapshot().to_json();

        // Field tampering parses fine but fails checksum verification, in
        // the machine state and in the memory traffic counters alike.
        let traffic = cpu.mem.traffic();
        let counted = format!(
            "\"traffic\":{{\"reads\":{},\"writes\":{}}}",
            traffic.reads, traffic.writes
        );
        let recounted = format!(
            "\"traffic\":{{\"reads\":{},\"writes\":{}}}",
            traffic.reads + 1,
            traffic.writes
        );
        for (from, to) in [
            ("\"halted\":false", "\"halted\":true"),
            (&*counted, &*recounted),
        ] {
            let tampered = text.replace(from, to);
            assert_ne!(tampered, text, "{from} is in the text");
            let snap = Snapshot::from_json(&tampered).unwrap();
            assert!(matches!(snap.verify(), Err(RestoreError::Corrupt { .. })));
            let mut twin = Cpu::new(SimConfig::default());
            assert!(matches!(
                twin.restore(&snap),
                Err(RestoreError::Corrupt { .. })
            ));
        }

        // A declared memory size beyond the admission limit is refused
        // before any allocation.
        let huge = (MAX_SNAPSHOT_MEM_BYTES + 1).to_string();
        let oversized = text.replace("\"mem_bytes\":1048576", &format!("\"mem_bytes\":{huge}"));
        assert!(Snapshot::from_json(&oversized).is_err());

        // Garbage documents are structured errors, never panics.
        for bad in ["", "{}", "[1,2]", "{\"version\":1}", "not json at all"] {
            assert!(Snapshot::from_json(bad).is_err(), "{bad:?}");
        }
    }

    /// Ackermann's A(3, 3) with the calls of the suite's `acker` workload
    /// at its `small_args`: the entry frame calls `main(3)`, which calls
    /// `ack(3, 3)`, and every invocation calls itself as `ack(m-1, 1)` or
    /// `ack(m-1, ack(m, n-1))`. Arguments arrive in r26/r27, the result
    /// leaves in r26.
    fn ackermann() -> Program {
        Program::from_instructions(vec![
            /* 0 */ Instruction::reg(Opcode::Add, Reg::R10, Reg::R0, imm(3)),
            /* 1 */ Instruction::callr(Reg::R25, 4 * (6 - 1)),
            /* 2 */ Instruction::nop(),
            /* 3 */ Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, Reg::R10.into()),
            /* 4 */ Instruction::ret(Reg::R0, imm(0)),
            /* 5 */ Instruction::nop(),
            /* 6 main */ Instruction::reg(Opcode::Add, Reg::R10, Reg::R0, imm(3)),
            /* 7 */ Instruction::reg(Opcode::Add, Reg::R11, Reg::R26, imm(0)),
            /* 8 */ Instruction::callr(Reg::R25, 4 * (13 - 8)),
            /* 9 */ Instruction::nop(),
            /* 10 */ Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, Reg::R10.into()),
            /* 11 */ Instruction::ret(Reg::R25, imm(8)),
            /* 12 */ Instruction::nop(),
            /* 13 ack */ Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R26, imm(0)),
            /* 14 */ Instruction::jmpr(Cond::Ne, 4 * (19 - 14)),
            /* 15 */ Instruction::nop(),
            /* 16 */ Instruction::reg(Opcode::Add, Reg::R26, Reg::R27, imm(1)),
            /* 17 */ Instruction::ret(Reg::R25, imm(8)),
            /* 18 */ Instruction::nop(),
            /* 19 */ Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R27, imm(0)),
            /* 20 */ Instruction::jmpr(Cond::Ne, 4 * (29 - 20)),
            /* 21 */ Instruction::nop(),
            /* 22 */ Instruction::reg(Opcode::Sub, Reg::R10, Reg::R26, imm(1)),
            /* 23 */ Instruction::reg(Opcode::Add, Reg::R11, Reg::R0, imm(1)),
            /* 24 */ Instruction::callr(Reg::R25, 4 * (13 - 24)),
            /* 25 */ Instruction::nop(),
            /* 26 */ Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, Reg::R10.into()),
            /* 27 */ Instruction::ret(Reg::R25, imm(8)),
            /* 28 */ Instruction::nop(),
            /* 29 */ Instruction::reg(Opcode::Add, Reg::R10, Reg::R26, imm(0)),
            /* 30 */ Instruction::reg(Opcode::Sub, Reg::R11, Reg::R27, imm(1)),
            /* 31 */ Instruction::callr(Reg::R25, 4 * (13 - 31)),
            /* 32 */ Instruction::nop(),
            /* 33 */ Instruction::reg(Opcode::Add, Reg::R11, Reg::R10, imm(0)),
            /* 34 */ Instruction::reg(Opcode::Sub, Reg::R10, Reg::R26, imm(1)),
            /* 35 */ Instruction::callr(Reg::R25, 4 * (13 - 35)),
            /* 36 */ Instruction::nop(),
            /* 37 */ Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, Reg::R10.into()),
            /* 38 */ Instruction::ret(Reg::R25, imm(8)),
            /* 39 */ Instruction::nop(),
        ])
    }

    /// The keys of a JSON object, in order.
    fn keys(v: &Json) -> Vec<&str> {
        v.as_obj("object")
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn format_3_stores_each_machine_value_once() {
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&ackermann()).unwrap();
        cpu.run().unwrap();
        assert_eq!(cpu.result(), 61);
        let s = cpu.stats();
        assert_eq!(
            (s.window_overflows, s.window_underflows, s.max_depth),
            (993, 993, 64)
        );
        let text = cpu.snapshot().to_json();
        let doc = Parser::new(&text).parse_document().unwrap();
        let obj = doc.as_obj("snapshot").unwrap();

        // The window counters live in `stats` alone, as `Cpu::stats()`
        // reports them.
        let state = get(obj, "state").unwrap();
        let stats = get(state.as_obj("state").unwrap(), "stats").unwrap();
        let stats = stats.as_obj("stats").unwrap();
        for (key, want) in [
            ("window_overflows", s.window_overflows),
            ("window_underflows", s.window_underflows),
            ("max_depth", s.max_depth),
        ] {
            assert_eq!(get(stats, key).unwrap().as_u64(key).unwrap(), want, "{key}");
        }
        assert!(
            get(stats, "ifetches").is_err(),
            "the fetch count is derived"
        );

        // The window file stores its pointers and nothing else: the keys
        // between its store and the pc.
        let state_keys = keys(state);
        let window = state_keys.iter().position(|&k| k == "store").unwrap() + 1;
        let pc = state_keys.iter().position(|&k| k == "pc").unwrap();
        assert_eq!(state_keys[window..pc], ["cwp", "resident", "spilled"]);
        assert_eq!(
            keys(&doc),
            ["version", "id", "cfg", "state", "traffic", "pages", "checksum"],
            "no at_instruction or mem_bytes beside the values they copy"
        );

        // The text a format-2 build wrote for this machine parses, since
        // its extra keys are skipped, and is refused as another version.
        let resident = "\"resident\":1,\"spilled\":0";
        let mut v2 = text.clone();
        for (from, to) in [
            ("\"version\":4", "\"version\":2".to_string()),
            (
                "\"cfg\"",
                format!("\"at_instruction\":{},\"cfg\"", s.instructions),
            ),
            (
                resident,
                "\"resident\":1,\"depth\":0,\"spilled\":0,\"max_depth\":64,\
                 \"overflows\":993,\"underflows\":993"
                    .to_string(),
            ),
            (
                "\"data_reads\"",
                format!("\"ifetches\":{},\"data_reads\"", s.instructions),
            ),
            (
                "\"traffic\"",
                "\"mem_bytes\":1048576,\"traffic\"".to_string(),
            ),
        ] {
            let next = v2.replacen(from, &to, 1);
            assert_ne!(next, v2, "{from} is in the text");
            v2 = next;
        }
        let old = Snapshot::from_json(&v2).unwrap();
        assert!(matches!(
            Cpu::new(SimConfig::default()).restore(&old),
            Err(RestoreError::Version {
                found: 2,
                expected: 4
            })
        ));

        // So does the text a format-3 build wrote with nothing in
        // `last_write`; a format-3 `last_write` object no longer reads.
        let v3 = text.replacen("\"version\":4", "\"version\":3", 1);
        let old = Snapshot::from_json(&v3).unwrap();
        assert!(matches!(
            Cpu::new(SimConfig::default()).restore(&old),
            Err(RestoreError::Version {
                found: 3,
                expected: 4
            })
        ));
        let object = "{\"kind\":\"global\",\"index\":1,\"load\":false}";
        let v3 = v3.replacen(
            "\"last_write\":null",
            &format!("\"last_write\":{object}"),
            1,
        );
        assert!(v3.contains(object));
        assert!(Snapshot::from_json(&v3).is_err());

        // A `spilled` count is held to what memory can hold: the bound
        // itself reads and restores, one more is a schema error.
        let bound = SimConfig::default().mem_bytes / 64 + 1;
        for (spilled, ok) in [(bound, true), (bound + 1, false)] {
            let edited = text.replacen(
                resident,
                &format!("\"resident\":1,\"spilled\":{spilled}"),
                1,
            );
            assert_ne!(edited, text);
            match Snapshot::from_json(&edited) {
                Ok(mut snap) => {
                    assert!(ok, "spilled {spilled} must be refused");
                    snap.checksum = snap.compute_checksum();
                    let mut twin = Cpu::new(SimConfig::default());
                    twin.restore(&snap).unwrap();
                    assert_eq!(twin.windows().depth(), bound as u64);
                }
                Err(e) => assert!(!ok && matches!(e, JsonError::Schema(_)), "{spilled}: {e}"),
            }
        }
    }

    #[test]
    fn counters_above_the_ceiling_are_schema_errors() {
        // Re-signed with a counter at `u64::MAX`, a snapshot used to read,
        // verify and restore, and the machine's next step overflowed the
        // counter. Every kind of counter the reader takes: a scalar, a trap
        // count, an opcode count and a memory traffic count.
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.load_program(&ackermann()).unwrap();
        for _ in 0..1000 {
            cpu.step().unwrap();
        }
        let snap = cpu.snapshot();
        type Forge = fn(&mut Snapshot, u64);
        let forgeries: [(&str, Forge); 4] = [
            ("cycles", |s, n| s.state.stats.cycles = n),
            ("trap_counts", |s, n| s.state.stats.trap_counts[0] = n),
            ("opcodes", |s, n| {
                s.state.stats.opcode_counts.set(Opcode::Add, n)
            }),
            ("traffic.reads", |s, n| {
                let writes = s.mem.traffic().writes;
                s.mem.set_traffic(MemTraffic { reads: n, writes });
            }),
        ];
        for (what, forge) in forgeries {
            for (n, ok) in [
                (MAX_SNAPSHOT_COUNTER, true),
                (MAX_SNAPSHOT_COUNTER + 1, false),
                (u64::MAX, false),
            ] {
                let mut forged = snap.clone();
                forge(&mut forged, n);
                forged.checksum = forged.compute_checksum();
                match Snapshot::from_json(&forged.to_json()) {
                    Ok(back) => {
                        assert!(ok, "{what} = {n} must be refused");
                        // At the ceiling the machine restores and runs on.
                        let mut twin = Cpu::new(SimConfig::default());
                        twin.restore(&back).unwrap();
                        twin.step_n(1000).unwrap();
                    }
                    Err(e) => {
                        assert!(
                            !ok && matches!(e, JsonError::Schema(_)),
                            "{what} = {n}: {e}"
                        )
                    }
                }
            }
        }
    }

    #[test]
    fn fnv_is_stable() {
        let mut h = Fnv64::new();
        h.write_bytes(b"risc1");
        // Reference value computed once; guards against accidental changes
        // to the hashing scheme (which would invalidate stored digests).
        assert_eq!(h.finish(), {
            let mut r = Fnv64::new();
            for b in [0x72u8, 0x69, 0x73, 0x63, 0x31] {
                r.write_u8(b);
            }
            r.finish()
        });
        assert_ne!(Fnv64::new().finish(), h.finish());
    }
}
