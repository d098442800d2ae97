//! Simulator configuration.

use crate::json::{
    get_opt, num, obj, or, Field, Flag, Json, JsonError, Named, Nullable, Unhashed, Writer,
};
use crate::snapshot::{
    Fnv64, MAX_SNAPSHOT_MEM_BYTES, MAX_SNAPSHOT_TRAP_OVERHEAD_CYCLES, MAX_SNAPSHOT_WINDOWS,
};

/// How transfers of control are timed.
///
/// RISC I's argument (and the subject of experiment E9): a *delayed* jump
/// costs one cycle and exposes the slot to the compiler, whereas the naive
/// *suspended pipeline* freezes instruction fetch for one cycle on every
/// taken transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchModel {
    /// The paper's design: the instruction after every transfer executes;
    /// no timing penalty beyond the slot itself.
    #[default]
    Delayed,
    /// The alternative the paper rejects: every *taken* transfer inserts one
    /// bubble cycle. (Delay slots still execute — the program semantics do
    /// not change, only the accounting — so the same binary is comparable
    /// under both models.)
    Suspended,
}

/// The branch models by their serialized names, in checksum order.
const BRANCH_MODELS: [(&str, BranchModel); 2] = [
    ("delayed", BranchModel::Delayed),
    ("suspended", BranchModel::Suspended),
];

/// Complete configuration of one simulated RISC I machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of register windows in the file (the paper built 8; the
    /// window-sweep experiment varies this from 2 to 16). Must be ≥ 2.
    pub windows: usize,
    /// Memory size in bytes.
    pub mem_bytes: usize,
    /// Byte address at which programs are loaded.
    pub code_base: u32,
    /// Initial program stack pointer (grows down). Used by compiled code for
    /// the rare spills that do not fit the window.
    pub stack_top: u32,
    /// Top of the window-save stack (grows down). Spilled windows go here.
    pub window_stack_top: u32,
    /// Fixed cycle overhead of taking a window overflow/underflow trap, on
    /// top of the 16 stores/loads themselves (models trap entry/exit).
    pub trap_overhead_cycles: u64,
    /// Branch timing model.
    pub branch_model: BranchModel,
    /// Whether the datapath has internal forwarding. Without it, an
    /// instruction that reads the register written by its immediate
    /// predecessor pays a one-cycle interlock bubble; RISC I had forwarding,
    /// so the default is `true`. (Load results are never forwardable from
    /// the same cycle: a load-use pair always pays one bubble when
    /// forwarding is off, and none when on, matching the paper's
    /// "internal forwarding" discussion.)
    pub forwarding: bool,
    /// Maximum number of instructions to execute before the simulator gives
    /// up (guards against runaway programs in tests and fuzzing).
    pub fuel: u64,
    /// Base address of a vectored trap table. When set, every trap cause
    /// gets a handler pre-installed at
    /// `trap_base + index · TRAP_VECTOR_STRIDE` (see
    /// [`crate::trap::TrapKind`] and [`crate::cpu::TRAP_VECTOR_STRIDE`]);
    /// when `None` (the default) faults surface as structured
    /// [`crate::ExecError`]s unless handlers are installed one by one via
    /// [`crate::Cpu::set_trap_handler`].
    pub trap_base: Option<u32>,
    /// Which execution engine drives the interpreter loop. Purely a speed
    /// knob: architectural state, statistics and trap behaviour are
    /// bit-identical across all four tiers, which the `interp_equivalence`
    /// suite asserts four ways. Host-only (see [`SimConfig::architectural`]).
    pub engine: ExecEngine,
    /// Inert: nothing reads it since the block executor replaced macro-op
    /// fusion. Kept, with its record row, so journals, wire configs and
    /// the end-to-end benchmark that name it keep their bytes and keep
    /// building; the benchmark change that drops its probes deletes it.
    /// Host-only, like `engine`.
    pub fusion: FusionConfig,
}

/// The interpreter tier driving instruction execution. Every tier runs one
/// burst loop over one fetch path, and each is one rule in that loop. All
/// funnel through the op effects of the same `exec_prepared` executor (the
/// block executor runs them with its statistics settled per block, the
/// trace tier runs IR lowered from the same prepared lines with bit-exact
/// side exits), so architectural behaviour is bit-identical (the
/// equivalence law in `interp_equivalence`). Blocks and traces need
/// `forwarding`: without it, every tier runs as `Uncached`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Fetch → decode → prepare → execute, one instruction at a time: no
    /// block is looked up or formed. The baseline tier the benchmark
    /// measures the others against.
    Uncached,
    /// Inert: runs exactly as `Superblock`. Kept, with its spelling, so
    /// the journals and wire configs that name it keep their bytes and the
    /// end-to-end benchmark that builds it keeps building; the benchmark
    /// change that drops its probe deletes it.
    Cached,
    /// Superblocks formed over prepared lines: straight-line runs
    /// execute as blocks with one PC lookup per block, each op dispatched
    /// once and each completed block settled once (see
    /// `crate::superblock`).
    Superblock,
    /// Hot superblock sequences compiled to register-allocated
    /// trace IR: window-relative registers resolved to flat physical
    /// indices at build time, stats sunk to trace exit, guarded side exits
    /// falling back to the superblock engine bit-exactly (see
    /// `crate::trace`). The default: level with superblock on call-heavy
    /// code, well ahead of it on loops.
    #[default]
    Trace,
}

impl ExecEngine {
    /// Every tier by its CLI / serialization spelling.
    const NAMES: [(&'static str, ExecEngine); 4] = [
        ("uncached", ExecEngine::Uncached),
        ("cached", ExecEngine::Cached),
        ("superblock", ExecEngine::Superblock),
        ("trace", ExecEngine::Trace),
    ];

    /// The CLI / serialization spelling.
    pub fn name(self) -> &'static str {
        let (name, _) = Self::NAMES
            .into_iter()
            .find(|&(_, e)| e == self)
            .expect("named");
        name
    }

    /// Parses the CLI / serialization spelling.
    pub fn from_name(s: &str) -> Option<ExecEngine> {
        Self::NAMES
            .into_iter()
            .find(|&(n, _)| n == s)
            .map(|(_, e)| e)
    }
}

/// The engine tier's field: its name, or in a journal written before the
/// superblock tier, the `predecode` flag (`true` the cached tier, `false`
/// the uncached one) in its place.
struct Engine;

const ENGINE_NAMES: Named<ExecEngine> = Named(&ExecEngine::NAMES);

impl Field<ExecEngine> for Engine {
    fn write(&self, w: &mut Writer, key: &str, v: &ExecEngine) {
        ENGINE_NAMES.write(w, key, v);
    }

    fn read(&self, obj: &[(String, Json)], key: &str) -> Result<ExecEngine, JsonError> {
        if get_opt(obj, key).is_some() {
            return ENGINE_NAMES.read(obj, key);
        }
        Ok(match Flag.read(obj, "predecode")? {
            true => ExecEngine::Cached,
            false => ExecEngine::Uncached,
        })
    }

    fn hash(&self, h: &mut Fnv64, v: &ExecEngine) {
        ENGINE_NAMES.hash(h, v);
    }
}

/// Per-kind macro-op fusion switches. Inert: the block executor, which
/// dispatches every op once and settles each block once, replaced the
/// fused-pair handlers, and nothing reads these. The type stays public so
/// the end-to-end benchmark's fusion probes keep building, and its record
/// keeps the bytes of every journal and wire config that carries it; the
/// benchmark change that drops the probes deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionConfig {
    /// Fuse SCC-setting ALU op + conditional JMP/JMPR reading those flags.
    pub cmp_branch: bool,
    /// Fuse LDHI + dependent immediate-ALU constant construction.
    pub ldhi_imm: bool,
    /// Fuse a delayed transfer with a safe delay-slot instruction.
    pub transfer_slot: bool,
    /// Fuse an ALU op feeding the address register of the next load.
    pub addr_feed: bool,
    /// Fuse two adjacent plain ALU/LDHI ops (the catch-all pair, tried
    /// after every specialised kind).
    pub alu_pair: bool,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            cmp_branch: true,
            ldhi_imm: true,
            transfer_slot: true,
            addr_feed: true,
            alu_pair: true,
        }
    }
}

crate::record! {
    FusionConfig {
        "cmp_branch" => cmp_branch: Flag,
        "ldhi_imm" => ldhi_imm: Flag,
        "transfer_slot" => transfer_slot: Flag,
        "addr_feed" => addr_feed: Flag,
        // Absent in journals written before this kind existed; the default
        // reproduces their behaviour (fusion never changes architectural
        // state).
        "alu_pair" => alu_pair: or(Flag, || true),
    }
}

impl FusionConfig {
    /// All kinds disabled (inert, like every setting of this type).
    pub fn none() -> FusionConfig {
        FusionConfig {
            cmp_branch: false,
            ldhi_imm: false,
            transfer_slot: false,
            addr_feed: false,
            alu_pair: false,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            windows: 8,
            mem_bytes: 1 << 20,
            code_base: 0x1000,
            stack_top: 0xe0000,
            window_stack_top: 0xf0000,
            trap_overhead_cycles: 8,
            branch_model: BranchModel::Delayed,
            forwarding: true,
            fuel: 200_000_000,
            trap_base: None,
            engine: ExecEngine::Trace,
            fusion: FusionConfig::default(),
        }
    }
}

// The one statement of the configuration's JSON object, shared by
// journals, snapshots, wire submits and WAL records, and of its
// checksum walk. Every configuration that enters from outside comes
// through here, so this is where the sizes a machine is built from are
// held to their admission limits. The checksum leaves out the host-only
// `engine` and `fusion` (see `SimConfig::architectural`); the reader
// ignores the `record_trace` flag older builds wrote.
crate::record! {
    SimConfig {
        "windows" => windows: num(2..=MAX_SNAPSHOT_WINDOWS),
        "mem_bytes" => mem_bytes: num(0..=MAX_SNAPSHOT_MEM_BYTES),
        "code_base" => code_base: num(0..=u32::MAX),
        "stack_top" => stack_top: num(0..=u32::MAX),
        "window_stack_top" => window_stack_top: num(0..=u32::MAX),
        "trap_overhead_cycles" => trap_overhead_cycles: num(0..=MAX_SNAPSHOT_TRAP_OVERHEAD_CYCLES),
        "branch_model" => branch_model: Named(&BRANCH_MODELS),
        "forwarding" => forwarding: Flag,
        "fuel" => fuel: num(0..=u64::MAX),
        "trap_base" => trap_base: Nullable(num(0..=u32::MAX)),
        "engine" => engine: Unhashed(Engine),
        // Journals written before the superblock engine carry no fusion
        // block; the defaults reproduce their behaviour.
        "fusion" => fusion: Unhashed(or(obj(), FusionConfig::default)),
    }
}

impl SimConfig {
    /// A configuration with a specific number of register windows, other
    /// parameters at their defaults.
    pub fn with_windows(windows: usize) -> Self {
        SimConfig {
            windows,
            ..SimConfig::default()
        }
    }

    /// Total physical registers implied by this configuration:
    /// 10 globals + 16 per window (the paper's `10 + 16·w`; 138 for w = 8).
    pub fn physical_registers(&self) -> usize {
        crate::windows::GLOBALS + crate::windows::WINDOW_STRIDE * self.windows
    }

    /// This configuration with its host-only fields reset to their
    /// defaults — the simulated machine alone.
    ///
    /// `engine` and `fusion` are the host-only fields: they choose how the
    /// host executes the machine, never what it computes (the four-engine
    /// equivalence law in `interp_equivalence`). So a machine's identity
    /// is this view: [`crate::Cpu::restore`] accepts a snapshot whose
    /// configuration differs from the CPU's only in those two fields, and
    /// [`crate::snapshot::config_hash`] — the config part of the serve
    /// dedup key — hashes this view. A [`crate::Snapshot`] stores only this
    /// view, so its checksum and JSON never depend on the tier that ran
    /// the machine. Every other field is architectural.
    pub fn architectural(&self) -> SimConfig {
        SimConfig {
            engine: ExecEngine::default(),
            fusion: FusionConfig::default(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.windows, 8);
        assert_eq!(c.physical_registers(), 138, "the paper's register count");
        assert_eq!(c.branch_model, BranchModel::Delayed);
        assert!(c.forwarding);
        assert_eq!(c.engine, ExecEngine::Trace);
        assert_eq!(c.fusion, FusionConfig::default());
    }

    #[test]
    fn engine_names_round_trip() {
        for e in [
            ExecEngine::Uncached,
            ExecEngine::Cached,
            ExecEngine::Superblock,
            ExecEngine::Trace,
        ] {
            assert_eq!(ExecEngine::from_name(e.name()), Some(e));
        }
        assert_eq!(ExecEngine::from_name("fast"), None);
    }

    #[test]
    fn window_sweep_register_counts() {
        assert_eq!(SimConfig::with_windows(2).physical_registers(), 42);
        assert_eq!(SimConfig::with_windows(4).physical_registers(), 74);
        assert_eq!(SimConfig::with_windows(16).physical_registers(), 266);
    }
}
