//! Simulator configuration.

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
    /// Record a full retired-instruction trace (needed only by the pipeline
    /// diagram experiment; costs memory).
    pub record_trace: bool,
    /// Which execution engine drives the interpreter loop. Purely a speed
    /// knob: architectural state, statistics and trap behaviour are
    /// bit-identical across all four tiers, which the `interp_equivalence`
    /// suite asserts four ways. Host-only (see [`SimConfig::architectural`]).
    pub engine: ExecEngine,
    /// Per-kind macro-op fusion toggles, consulted only by the superblock
    /// engine (see `crate::superblock`). All on by default; experiment e15
    /// sweeps them off one at a time. Host-only, like `engine`.
    pub fusion: FusionConfig,
}

/// The interpreter tier driving instruction execution. Each tier is strictly
/// a host-speed optimisation over the one below it; all four funnel through
/// the same `exec_prepared` executor (or, for the trace tier, through IR
/// lowered from the same prepared lines with bit-exact side exits), so
/// architectural behaviour is bit-identical (the four-way equivalence law in
/// `interp_equivalence`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Fetch → decode → prepare → execute, one instruction at a time. The
    /// baseline tier the bench harness measures the others against.
    Uncached,
    /// PR 4's predecoded instruction cache: prepared lines are cached per
    /// page and invalidated through the code-dirty channel.
    Cached,
    /// Superblocks formed over the predecoded lines: straight-line runs
    /// execute as chained blocks with one PC lookup per block and macro-op
    /// fusion of common adjacent pairs (see `crate::superblock`).
    #[default]
    Superblock,
    /// Hot chained superblock sequences compiled to register-allocated
    /// trace IR: window-relative registers resolved to flat physical
    /// indices at build time, stats sunk to trace exit, guarded side exits
    /// falling back to the superblock engine bit-exactly (see
    /// `crate::trace`).
    Trace,
}

impl ExecEngine {
    /// The CLI / serialization spelling.
    pub fn name(self) -> &'static str {
        match self {
            ExecEngine::Uncached => "uncached",
            ExecEngine::Cached => "cached",
            ExecEngine::Superblock => "superblock",
            ExecEngine::Trace => "trace",
        }
    }

    /// Parses the CLI / serialization spelling.
    pub fn from_name(s: &str) -> Option<ExecEngine> {
        match s {
            "uncached" => Some(ExecEngine::Uncached),
            "cached" => Some(ExecEngine::Cached),
            "superblock" => Some(ExecEngine::Superblock),
            "trace" => Some(ExecEngine::Trace),
            _ => None,
        }
    }
}

/// Per-kind macro-op fusion switches (superblock engine only). Fusion never
/// changes architectural behaviour — these exist so e15 can measure how much
/// each kind contributes.
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

impl FusionConfig {
    /// All kinds disabled (superblocks still form; pairs never fuse).
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
            record_trace: false,
            engine: ExecEngine::Superblock,
            fusion: FusionConfig::default(),
        }
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
    /// dedup key — hashes this view. Every other field is architectural,
    /// `record_trace` included, because it changes the captured state.
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
        assert_eq!(c.engine, ExecEngine::Superblock);
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
