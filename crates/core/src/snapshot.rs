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

use crate::config::{BranchModel, SimConfig};
use crate::cpu::{Cpu, PhysId};
use crate::journal::{read_config, write_config};
use crate::json::{get, Json, JsonError, Parser, Writer};
use crate::mem::{MemTraffic, Memory, PAGE_BYTES};
use crate::stats::ExecStats;
use crate::trap::TrapKind;
use crate::windows::{WindowFile, WINDOW_COUNTERS};
use risc1_isa::psw::Flags;
use risc1_isa::Opcode;
use std::fmt;

/// Snapshot format version; bumped whenever the captured state changes
/// shape. Restore refuses snapshots from a different version.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Admission limit on the simulated-memory size a *deserialized*
/// configuration may declare — in a snapshot, a journal, a wire submit or
/// a WAL record alike ([`crate::journal::read_config`] enforces it). That
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
    pub(crate) last_write: Option<(PhysId, bool)>,
    pub(crate) halted: bool,
    pub(crate) stats: ExecStats,
    pub(crate) interrupt_handler: Option<u32>,
    pub(crate) interrupt_pending: bool,
    pub(crate) trap_handlers: [Option<u32>; TrapKind::COUNT],
    pub(crate) active_trap: Option<TrapKind>,
    pub(crate) pending_probe: Option<TrapKind>,
    pub(crate) fuel_limit: u64,
}

fn hash_opt_u64(h: &mut Fnv64, v: Option<u64>) {
    match v {
        None => h.write_u64(0),
        Some(x) => {
            h.write_u64(1);
            h.write_u64(x);
        }
    }
}

/// Hashes the *architectural* counters only — the same set `ExecStats`'s
/// `PartialEq` compares. Host telemetry (`fused_pairs`, the block and
/// trace counters) depends on how the timeline was chopped into bursts,
/// and the snapshot round-trip law quantifies over choppings.
fn hash_stats(h: &mut Fnv64, s: &ExecStats) {
    for (_, v) in s.counters() {
        h.write_u64(v);
    }
    for &c in &s.trap_counts {
        h.write_u64(c);
    }
    // The opcode histogram, in the ISA's fixed order.
    for &op in Opcode::ALL {
        h.write_u64(s.opcode_counts.get(op));
    }
}

impl CpuState {
    /// Hashes every captured field: registers, pc/lastpc, PSW, window
    /// stack, pending delayed transfer, trap unit, fuel and architectural
    /// statistics.
    fn hash_into(&self, h: &mut Fnv64) {
        self.regs.for_each_word(|w| h.write_u64(w));
        h.write_u64(u64::from(self.pc));
        h.write_u64(u64::from(self.last_pc));
        let Flags { z, n, v, c } = self.flags;
        h.write_u8(u8::from(z) | u8::from(n) << 1 | u8::from(v) << 2 | u8::from(c) << 3);
        h.write_u8(u8::from(self.interrupts_enabled));
        h.write_u64(u64::from(self.wstack_ptr));
        hash_opt_u64(h, self.pending_target.map(u64::from));
        match self.last_write {
            None => h.write_u64(0),
            Some((PhysId::Global(g), load)) => {
                h.write_u64(1);
                h.write_u64(u64::from(g));
                h.write_u8(u8::from(load));
            }
            Some((PhysId::Ring(i), load)) => {
                h.write_u64(2);
                h.write_u64(i as u64);
                h.write_u8(u8::from(load));
            }
        }
        h.write_u8(u8::from(self.halted));
        hash_stats(h, &self.stats);
        hash_opt_u64(h, self.interrupt_handler.map(u64::from));
        h.write_u8(u8::from(self.interrupt_pending));
        for t in self.trap_handlers {
            hash_opt_u64(h, t.map(u64::from));
        }
        hash_opt_u64(h, self.active_trap.map(|k| u64::from(k.code())));
        hash_opt_u64(h, self.pending_probe.map(|k| u64::from(k.code())));
        h.write_u64(self.fuel_limit);
    }
}

/// Stable FNV-1a digest of a configuration's machine identity — its
/// [`SimConfig::architectural`] view, so the host-only engine tier and
/// fusion toggles never move it. Used in [`RestoreError::ConfigMismatch`]
/// diagnostics (expected-vs-found) and as the `config_hash` component of
/// the serve layer's job-dedup key.
pub fn config_hash(cfg: &SimConfig) -> u64 {
    let mut h = Fnv64::new();
    hash_config(&mut h, cfg);
    h.finish()
}

/// Hashes the architectural fields of `cfg` — all of them but the
/// host-only `engine` and `fusion` (see [`SimConfig::architectural`]).
fn hash_config(h: &mut Fnv64, cfg: &SimConfig) {
    h.write_u64(cfg.windows as u64);
    h.write_u64(cfg.mem_bytes as u64);
    h.write_u64(u64::from(cfg.code_base));
    h.write_u64(u64::from(cfg.stack_top));
    h.write_u64(u64::from(cfg.window_stack_top));
    h.write_u64(cfg.trap_overhead_cycles);
    h.write_u8(match cfg.branch_model {
        BranchModel::Delayed => 0,
        BranchModel::Suspended => 1,
    });
    h.write_u8(u8::from(cfg.forwarding));
    h.write_u64(cfg.fuel);
    hash_opt_u64(h, cfg.trap_base.map(u64::from));
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
        h.write_u64(u64::from(self.version));
        h.write_u64(self.id);
        hash_config(&mut h, &self.cfg);
        self.state.hash_into(&mut h);
        let traffic = self.mem.traffic();
        h.write_u64(traffic.reads);
        h.write_u64(traffic.writes);
        h.write_u64(self.page_sums.len() as u64);
        for &s in &self.page_sums {
            h.write_u64(s);
        }
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

    /// Serializes the snapshot into the current position of `w` as one
    /// JSON object. Memory is sparse — only pages with a nonzero byte are
    /// emitted, and pages in unwritten host pages are skipped unscanned —
    /// so snapshots of mostly-empty address spaces stay small and cheap.
    pub fn write_json(&self, w: &mut Writer) {
        w.obj_open();
        w.key("version");
        w.num(i128::from(self.version));
        w.key("id");
        w.num(i128::from(self.id));
        w.key("cfg");
        write_config(w, &self.cfg);
        w.key("state");
        self.write_state(w);
        w.key("traffic");
        w.obj_open();
        w.key("reads");
        w.num(i128::from(self.mem.traffic().reads));
        w.key("writes");
        w.num(i128::from(self.mem.traffic().writes));
        w.obj_close();
        w.key("pages");
        w.arr_open();
        for idx in 0..self.mem.page_count() {
            if !self.mem.page_is_resident(idx) {
                continue;
            }
            let page = self.mem.page(idx);
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            w.arr_open();
            w.num(idx as i128);
            w.arr_open();
            for &b in page {
                w.num(i128::from(b));
            }
            w.arr_close();
            w.arr_close();
        }
        w.arr_close();
        w.key("checksum");
        w.num(i128::from(self.checksum));
        w.obj_close();
    }

    fn write_state(&self, w: &mut Writer) {
        let s = &self.state;
        w.obj_open();
        w.key("store");
        w.arr_open();
        for &word in s.regs.export_store() {
            w.num(i128::from(word));
        }
        w.arr_close();
        for (key, v) in WINDOW_COUNTERS.into_iter().zip(s.regs.counters()) {
            w.key(key);
            w.num(i128::from(v));
        }
        w.key("pc");
        w.num(i128::from(s.pc));
        w.key("last_pc");
        w.num(i128::from(s.last_pc));
        let Flags { z, n, v, c } = s.flags;
        w.key("flags");
        w.num(i128::from(
            u8::from(z) | u8::from(n) << 1 | u8::from(v) << 2 | u8::from(c) << 3,
        ));
        w.key("interrupts_enabled");
        w.bool(s.interrupts_enabled);
        w.key("wstack_ptr");
        w.num(i128::from(s.wstack_ptr));
        w.key("pending_target");
        write_opt_num(w, s.pending_target.map(u64::from));
        w.key("last_write");
        match s.last_write {
            None => w.null(),
            Some((id, load)) => {
                w.obj_open();
                w.key("kind");
                w.str(match id {
                    PhysId::Global(_) => "global",
                    PhysId::Ring(_) => "ring",
                });
                w.key("index");
                w.num(match id {
                    PhysId::Global(g) => i128::from(g),
                    PhysId::Ring(i) => i as i128,
                });
                w.key("load");
                w.bool(load);
                w.obj_close();
            }
        }
        w.key("halted");
        w.bool(s.halted);
        w.key("stats");
        write_stats(w, &s.stats);
        w.key("interrupt_handler");
        write_opt_num(w, s.interrupt_handler.map(u64::from));
        w.key("interrupt_pending");
        w.bool(s.interrupt_pending);
        w.key("trap_handlers");
        w.arr_open();
        for t in s.trap_handlers {
            write_opt_num(w, t.map(u64::from));
        }
        w.arr_close();
        w.key("active_trap");
        write_opt_num(w, s.active_trap.map(|k| u64::from(k.code())));
        w.key("pending_probe");
        write_opt_num(w, s.pending_probe.map(|k| u64::from(k.code())));
        w.key("fuel_limit");
        w.num(i128::from(s.fuel_limit));
        w.obj_close();
    }

    /// The snapshot as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Deserializes a snapshot from a parsed JSON value. The input is
    /// untrusted: structural problems and admission-limit violations
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
    /// [`JsonError`] on any shape or limit violation.
    pub fn from_json_value(v: &Json) -> Result<Snapshot, JsonError> {
        let obj = v.as_obj("snapshot")?;
        let version = get(obj, "version")?.as_u32("version")?;
        let id = get(obj, "id")?.as_u64("id")?;
        // `read_config` holds the window count, memory size and trap
        // overhead to their admission limits.
        let cfg = read_config(get(obj, "cfg")?.as_obj("cfg")?)?.architectural();
        let state = read_state(get(obj, "state")?, &cfg)?;
        let mut mem = Memory::new(cfg.mem_bytes);
        let traffic = get(obj, "traffic")?.as_obj("traffic")?;
        for entry in get(obj, "pages")?.as_arr("pages")? {
            let pair = entry.as_arr("page entry")?;
            if pair.len() != 2 {
                return Err(JsonError::schema("page entry: expected [index, bytes]"));
            }
            let (idx, bytes) = (&pair[0], &pair[1]);
            let i = idx.as_usize("page index")?;
            if i >= mem.page_count() {
                return Err(JsonError::schema(&format!(
                    "page index {i} out of range ({} pages)",
                    mem.page_count()
                )));
            }
            let want = mem.page(i).len();
            let raw = bytes.as_arr("page bytes")?;
            if raw.len() != want {
                return Err(JsonError::schema(&format!(
                    "page {i} holds {} bytes, expected {want}",
                    raw.len()
                )));
            }
            let mut buf = Vec::with_capacity(want);
            for b in raw {
                buf.push(b.as_u8("page byte")?);
            }
            mem.load_image((i * PAGE_BYTES) as u32, &buf)
                .map_err(|e| JsonError::schema(&format!("page {i}: {e}")))?;
        }
        mem.set_traffic(MemTraffic {
            reads: read_counter(get(traffic, "reads")?, "traffic.reads")?,
            writes: read_counter(get(traffic, "writes")?, "traffic.writes")?,
        });
        // Page digests are recomputed from the rebuilt memory (they are
        // derivable); byte corruption then lands in `verify()` as a
        // checksum mismatch rather than a trusted-but-wrong digest.
        let page_sums = (0..mem.page_count())
            .map(|i| mem_page_sum(&mem, i))
            .collect();
        Ok(Snapshot {
            version,
            id,
            cfg,
            state,
            mem,
            page_sums,
            checksum: get(obj, "checksum")?.as_u64("checksum")?,
        })
    }

    /// Deserializes a snapshot from JSON text (see
    /// [`Snapshot::from_json_value`]).
    ///
    /// # Errors
    /// [`JsonError`] on malformed text or any shape/limit violation.
    pub fn from_json(text: &str) -> Result<Snapshot, JsonError> {
        Snapshot::from_json_value(&Parser::new(text).parse_document()?)
    }
}

fn write_opt_num(w: &mut Writer, v: Option<u64>) {
    match v {
        None => w.null(),
        Some(x) => w.num(i128::from(x)),
    }
}

fn read_opt_u64(v: &Json, what: &str) -> Result<Option<u64>, JsonError> {
    match v {
        Json::Null => Ok(None),
        other => other.as_u64(what).map(Some),
    }
}

fn write_stats(w: &mut Writer, s: &ExecStats) {
    w.obj_open();
    for (key, v) in s.counters() {
        w.key(key);
        w.num(i128::from(v));
    }
    w.key("trap_counts");
    w.arr_open();
    for &c in &s.trap_counts {
        w.num(i128::from(c));
    }
    w.arr_close();
    // Sparse histogram: `[opcode code, count]` pairs, nonzero only. The
    // engine-telemetry fields (fused pairs, block counters) are host-side
    // and excluded from snapshot identity, so they are not serialized.
    w.key("opcodes");
    w.arr_open();
    for (op, n) in s.opcode_counts.iter() {
        w.arr_open();
        w.num(i128::from(op as u8));
        w.num(i128::from(n));
        w.arr_close();
    }
    w.arr_close();
    w.obj_close();
}

/// A counter, held to [`MAX_SNAPSHOT_COUNTER`].
fn read_counter(v: &Json, what: &str) -> Result<u64, JsonError> {
    let n = v.as_u64(what)?;
    if n > MAX_SNAPSHOT_COUNTER {
        return Err(JsonError::schema(&format!(
            "{what} {n} is above the counter ceiling {MAX_SNAPSHOT_COUNTER}"
        )));
    }
    Ok(n)
}

fn read_stats(v: &Json) -> Result<ExecStats, JsonError> {
    let obj = v.as_obj("stats")?;
    let mut s = ExecStats::default();
    for (key, v) in s.counters_mut() {
        *v = read_counter(get(obj, key)?, key)?;
    }
    let counts = get(obj, "trap_counts")?.as_arr("trap_counts")?;
    if counts.len() != TrapKind::COUNT {
        return Err(JsonError::schema(&format!(
            "trap_counts holds {} entries, expected {}",
            counts.len(),
            TrapKind::COUNT
        )));
    }
    for (i, c) in counts.iter().enumerate() {
        s.trap_counts[i] = read_counter(c, "trap_counts entry")?;
    }
    for pair in get(obj, "opcodes")?.as_arr("opcodes")? {
        let pair = pair.as_arr("opcode pair")?;
        if pair.len() != 2 {
            return Err(JsonError::schema("opcode pair: expected [code, count]"));
        }
        let code = pair[0].as_u8("opcode code")?;
        let op = Opcode::from_code(code)
            .ok_or_else(|| JsonError::schema(&format!("unknown opcode code {code}")))?;
        s.opcode_counts
            .set(op, read_counter(&pair[1], "opcode count")?);
    }
    Ok(s)
}

fn read_state(v: &Json, cfg: &SimConfig) -> Result<CpuState, JsonError> {
    let obj = v.as_obj("state")?;
    let u = |key: &str| -> Result<u64, JsonError> { get(obj, key)?.as_u64(key) };
    let store_raw = get(obj, "store")?.as_arr("store")?;
    let mut store = Vec::with_capacity(store_raw.len());
    for word in store_raw {
        store.push(word.as_u32("store word")?);
    }
    let mut counters = [0; WINDOW_COUNTERS.len()];
    for (v, key) in counters.iter_mut().zip(WINDOW_COUNTERS) {
        *v = u(key)?;
    }
    let regs = WindowFile::import(cfg.windows, cfg.mem_bytes, &store, counters)
        .map_err(|e| JsonError::schema(&format!("register file: {e}")))?;
    let packed = get(obj, "flags")?.as_u8("flags")?;
    if packed > 0b1111 {
        return Err(JsonError::schema(&format!(
            "flags byte {packed} out of range"
        )));
    }
    let flags = Flags {
        z: packed & 1 != 0,
        n: packed & 2 != 0,
        v: packed & 4 != 0,
        c: packed & 8 != 0,
    };
    let last_write = match get(obj, "last_write")? {
        Json::Null => None,
        lw => {
            let lw = lw.as_obj("last_write")?;
            let index = get(lw, "index")?;
            let id = match get(lw, "kind")?.as_str("last_write.kind")? {
                "global" => PhysId::Global(index.as_u8("last_write.index")?),
                "ring" => PhysId::Ring(index.as_usize("last_write.index")?),
                other => {
                    return Err(JsonError::schema(&format!(
                        "last_write.kind {other:?} (expected global|ring)"
                    )))
                }
            };
            Some((id, get(lw, "load")?.as_bool("last_write.load")?))
        }
    };
    let handlers_raw = get(obj, "trap_handlers")?.as_arr("trap_handlers")?;
    if handlers_raw.len() != TrapKind::COUNT {
        return Err(JsonError::schema(&format!(
            "trap_handlers holds {} entries, expected {}",
            handlers_raw.len(),
            TrapKind::COUNT
        )));
    }
    let mut trap_handlers = [None; TrapKind::COUNT];
    for (i, h) in handlers_raw.iter().enumerate() {
        trap_handlers[i] = read_opt_u64(h, "trap handler")?
            .map(|x| u32::try_from(x).map_err(|_| JsonError::schema("trap handler out of u32")))
            .transpose()?;
    }
    let trap_kind = |v: &Json, what: &str| -> Result<Option<TrapKind>, JsonError> {
        read_opt_u64(v, what)?
            .map(|code| {
                u32::try_from(code)
                    .ok()
                    .and_then(TrapKind::from_code)
                    .ok_or_else(|| JsonError::schema(&format!("{what}: unknown trap code {code}")))
            })
            .transpose()
    };
    Ok(CpuState {
        regs,
        pc: get(obj, "pc")?.as_u32("pc")?,
        last_pc: get(obj, "last_pc")?.as_u32("last_pc")?,
        flags,
        interrupts_enabled: get(obj, "interrupts_enabled")?.as_bool("interrupts_enabled")?,
        wstack_ptr: get(obj, "wstack_ptr")?.as_u32("wstack_ptr")?,
        pending_target: read_opt_u64(get(obj, "pending_target")?, "pending_target")?
            .map(|x| u32::try_from(x).map_err(|_| JsonError::schema("pending_target out of u32")))
            .transpose()?,
        last_write,
        halted: get(obj, "halted")?.as_bool("halted")?,
        stats: read_stats(get(obj, "stats")?)?,
        interrupt_handler: read_opt_u64(get(obj, "interrupt_handler")?, "interrupt_handler")?
            .map(|x| {
                u32::try_from(x).map_err(|_| JsonError::schema("interrupt_handler out of u32"))
            })
            .transpose()?,
        interrupt_pending: get(obj, "interrupt_pending")?.as_bool("interrupt_pending")?,
        trap_handlers,
        active_trap: trap_kind(get(obj, "active_trap")?, "active_trap")?,
        pending_probe: trap_kind(get(obj, "pending_probe")?, "pending_probe")?,
        fuel_limit: u("fuel_limit")?,
    })
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
            ("\"version\":3", "\"version\":2".to_string()),
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
                expected: 3
            })
        ));

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
