//! Execution statistics — the raw material of every evaluation table.

use crate::json::List;
use crate::snapshot::{OpcodeHistogram, COUNTER};
use crate::trap::TrapKind;
use risc1_isa::{Category, Opcode};
use std::collections::HashMap;
use std::fmt;

/// Number of slots in the dense opcode histogram: the opcode field is
/// 7 bits, so every legal discriminant fits below 128.
const OPCODE_SLOTS: usize = 128;

/// Dense dynamic-opcode histogram, indexed by opcode discriminant.
///
/// This replaces the former `HashMap<Opcode, u64>`: `retire` runs once per
/// simulated instruction, and a hash-and-probe on that path cost more than
/// the rest of the bookkeeping combined. The discriminant of [`Opcode`] *is*
/// its 7-bit encoding (see `risc1_isa::opcode`), so a flat 128-slot array
/// gives a branch-free single-store bump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpcodeCounts([u64; OPCODE_SLOTS]);

impl Default for OpcodeCounts {
    fn default() -> Self {
        OpcodeCounts([0; OPCODE_SLOTS])
    }
}

impl OpcodeCounts {
    /// All-zero histogram.
    pub fn new() -> OpcodeCounts {
        OpcodeCounts::default()
    }

    /// Increments the count for one retired opcode.
    #[inline]
    pub fn bump(&mut self, op: Opcode) {
        self.0[op as u8 as usize] += 1;
    }

    /// Adds `n` retirements of one opcode in a single update — the trace
    /// engine's bulk stat sink at trace exit.
    #[inline]
    pub fn add(&mut self, op: Opcode, n: u64) {
        self.0[op as u8 as usize] += n;
    }

    /// The count for one opcode (zero if never retired).
    #[inline]
    pub fn get(&self, op: Opcode) -> u64 {
        self.0[op as u8 as usize]
    }

    /// Overwrites the count for one opcode (snapshot deserialization).
    #[inline]
    pub fn set(&mut self, op: Opcode, n: u64) {
        self.0[op as u8 as usize] = n;
    }

    /// Iterates over `(opcode, count)` pairs with non-zero counts, in
    /// Table II order.
    pub fn iter(&self) -> impl Iterator<Item = (Opcode, u64)> + '_ {
        Opcode::ALL
            .iter()
            .map(|&op| (op, self.get(op)))
            .filter(|&(_, n)| n > 0)
    }

    /// Total retired instructions across all opcodes.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// The macro-op pair shapes the superblock engine fused before the block
/// executor replaced fusion. Inert: no run counts a fused pair, so
/// [`ExecStats::fused_pairs`] stays zero. Kept public for the end-to-end
/// benchmark's fusion probes, and deleted with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseKind {
    /// SCC-setting ALU op immediately followed by a conditional JMP/JMPR
    /// that reads the flags it just set.
    CmpBranch,
    /// LDHI followed by an immediate ALU op completing a 32-bit constant.
    LdhiImm,
    /// A delayed transfer and its (safe) delay-slot instruction, executed
    /// as one unit.
    TransferSlot,
    /// An ALU op whose result feeds the address register of the next load.
    AddrFeed,
    /// Two adjacent plain ALU/LDHI ops retired through one handler. The
    /// catch-all pair — tried last, so the specialised kinds above keep
    /// their matches.
    AluPair,
}

impl FuseKind {
    /// Number of fusion kinds (array sizing).
    pub const COUNT: usize = 5;

    /// Every kind, in display order.
    pub const ALL: [FuseKind; FuseKind::COUNT] = [
        FuseKind::CmpBranch,
        FuseKind::LdhiImm,
        FuseKind::TransferSlot,
        FuseKind::AddrFeed,
        FuseKind::AluPair,
    ];

    /// Dense index for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short human/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            FuseKind::CmpBranch => "cmp_branch",
            FuseKind::LdhiImm => "ldhi_imm",
            FuseKind::TransferSlot => "transfer_slot",
            FuseKind::AddrFeed => "addr_feed",
            FuseKind::AluPair => "alu_pair",
        }
    }
}

/// Counters accumulated over one simulation run.
///
/// Everything except the trailing telemetry block is *architectural*: a
/// function of the program and `SimConfig` alone, identical across execution
/// engines and across any chopping of the run into `step_n` bursts. The
/// trailing fields (`fused_pairs`, `blocks_entered`, `block_instructions`,
/// and the `trace*` counters) are **host-engine telemetry**: they describe
/// what the superblock/trace machinery did, which legitimately depends on
/// how the timeline was sliced (a `step()` prefix forms different blocks and
/// traces than a straight `run()`). `PartialEq` therefore compares only the
/// architectural fields — the equivalence and snapshot-round-trip laws stay
/// exact while telemetry remains observable.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Instructions retired (delay-slot instructions included).
    pub instructions: u64,
    /// Total cycles, including trap servicing and timing-model bubbles.
    pub cycles: u64,
    /// Bubble cycles added by the timing model (interlocks, suspended-
    /// pipeline penalties) — included in `cycles`.
    pub bubble_cycles: u64,
    /// Data-memory reads issued by loads (and window fills).
    pub data_reads: u64,
    /// Data-memory writes issued by stores (and window spills).
    pub data_writes: u64,
    /// Procedure calls executed (`call`, `callr`).
    pub calls: u64,
    /// Returns executed.
    pub rets: u64,
    /// Transfers of control that were taken.
    pub taken_transfers: u64,
    /// Register-window overflow traps.
    pub window_overflows: u64,
    /// Register-window underflow traps.
    pub window_underflows: u64,
    /// Cycles spent inside window traps — included in `cycles`.
    pub trap_cycles: u64,
    /// Instructions executed in a delay slot.
    pub delay_slots: u64,
    /// Delay-slot instructions that were NOPs (unfilled slots).
    pub delay_slot_nops: u64,
    /// Deepest call depth reached.
    pub max_depth: u64,
    /// Vectored trap entries (faults delivered to an installed handler;
    /// window spill/fill servicing is *not* counted here).
    pub trap_entries: u64,
    /// Handler exits: `RETI` instructions that closed an active trap.
    pub trap_returns: u64,
    /// Cycles spent entering trap handlers (fixed overhead plus any
    /// entry-time window spill) — included in `cycles`.
    pub trap_entry_cycles: u64,
    /// Vectored trap entries by cause, indexed by [`TrapKind::index`].
    pub trap_counts: [u64; TrapKind::COUNT],
    /// External interrupts taken (the `CALLI` entry sequence).
    pub interrupts_taken: u64,
    /// Dynamic opcode histogram (dense, discriminant-indexed; see
    /// [`OpcodeCounts`]).
    pub opcode_counts: OpcodeCounts,
    /// Inert host telemetry, always zero: instruction pairs retired
    /// through a fused handler, by [`FuseKind::index`], from before the
    /// block executor replaced fusion. Kept for the end-to-end benchmark,
    /// which reads it. Excluded from `PartialEq` (see type docs).
    pub fused_pairs: [u64; FuseKind::COUNT],
    /// Host telemetry: superblock bodies entered. Excluded from `PartialEq`.
    pub blocks_entered: u64,
    /// Host telemetry: instructions retired inside superblock bodies (the
    /// numerator of mean block length). Excluded from `PartialEq`.
    pub block_instructions: u64,
    /// Host telemetry: traces compiled by the trace engine. Excluded from
    /// `PartialEq`.
    pub traces_built: u64,
    /// Host telemetry: trace bodies entered (each self-loop iteration
    /// counts once). Excluded from `PartialEq`.
    pub trace_entries: u64,
    /// Host telemetry: complete trace exits (the trace ran to its static
    /// end). Excluded from `PartialEq`.
    pub trace_exits: u64,
    /// Host telemetry: guarded side exits taken mid-trace (guard failures,
    /// faults, budget and code-dirty exits). Excluded from `PartialEq`.
    pub trace_side_exits: u64,
    /// Host telemetry: instructions retired inside compiled traces (the
    /// numerator of trace coverage). Excluded from `PartialEq`.
    pub trace_instructions: u64,
}

/// Lists the scalar architectural counters of [`ExecStats`] once, and
/// derives from the list the view `PartialEq` compares and the snapshot
/// record: each counter under its name, held to the counter ceiling, then
/// the trap and opcode counts. The telemetry fields are not among them
/// (see the type docs): a snapshot neither stores nor hashes them.
macro_rules! scalar_counters {
    ($($field:ident),+ $(,)?) => {
        /// Number of scalar architectural counters.
        const SCALAR_COUNTERS: usize = [$(stringify!($field)),+].len();

        impl ExecStats {
            /// The scalar architectural counters, in checksum order.
            fn counters(&self) -> [u64; SCALAR_COUNTERS] {
                [$(self.$field),+]
            }
        }

        crate::record! {
            ExecStats {
                $(stringify!($field) => $field: COUNTER,)+
                "trap_counts" => trap_counts: List(COUNTER),
                // Sparse: `[opcode code, count]` pairs, nonzero only.
                "opcodes" => opcode_counts: OpcodeHistogram,
            } ..ExecStats::default()
        }
    };
}

scalar_counters!(
    instructions,
    cycles,
    bubble_cycles,
    data_reads,
    data_writes,
    calls,
    rets,
    taken_transfers,
    window_overflows,
    window_underflows,
    trap_cycles,
    delay_slots,
    delay_slot_nops,
    max_depth,
    trap_entries,
    trap_returns,
    trap_entry_cycles,
    interrupts_taken,
);

/// Architectural fields only — see the type docs. The telemetry fields
/// are excluded on purpose: block and trace formation depend on how the
/// timeline is chopped into bursts, and the equivalence laws quantify over
/// choppings.
impl PartialEq for ExecStats {
    fn eq(&self, other: &Self) -> bool {
        self.counters() == other.counters()
            && self.trap_counts == other.trap_counts
            && self.opcode_counts == other.opcode_counts
    }
}

impl Eq for ExecStats {}

impl ExecStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> ExecStats {
        ExecStats::default()
    }

    /// Records one retired instruction of the given opcode.
    #[inline]
    pub fn retire(&mut self, op: Opcode) {
        self.instructions += 1;
        self.opcode_counts.bump(op);
    }

    /// Total data-memory traffic (reads + writes).
    pub fn data_traffic(&self) -> u64 {
        self.data_reads + self.data_writes
    }

    /// Dynamic instruction count per category, for the instruction-mix
    /// table (E12).
    pub fn category_counts(&self) -> HashMap<Category, u64> {
        let mut out = HashMap::new();
        for (op, n) in self.opcode_counts.iter() {
            *out.entry(op.category()).or_insert(0) += n;
        }
        out
    }

    /// Fraction of delay slots the compiler filled with useful work
    /// (1.0 − NOP share). Returns `None` when no slots were executed.
    pub fn delay_slot_fill_rate(&self) -> Option<f64> {
        (self.delay_slots > 0).then(|| 1.0 - self.delay_slot_nops as f64 / self.delay_slots as f64)
    }

    /// Average cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Fraction of all calls that overflowed the window file — the quantity
    /// the paper's window-count design study (E8) plots.
    pub fn overflow_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.window_overflows as f64 / self.calls as f64
        }
    }

    /// Vectored trap entries of one cause.
    pub fn trap_count(&self, kind: TrapKind) -> u64 {
        self.trap_counts[kind.index()]
    }

    /// Average cycles per vectored trap entry. Returns `None` when no
    /// traps were taken.
    pub fn trap_entry_cost(&self) -> Option<f64> {
        (self.trap_entries > 0).then(|| self.trap_entry_cycles as f64 / self.trap_entries as f64)
    }

    /// Fused pairs of one kind (inert telemetry, always zero).
    pub fn fused(&self, kind: FuseKind) -> u64 {
        self.fused_pairs[kind.index()]
    }

    /// Total fused pairs across all kinds (inert telemetry, always zero).
    pub fn fused_total(&self) -> u64 {
        self.fused_pairs.iter().sum()
    }

    /// Mean superblock body length in instructions, or `None` if no block
    /// was ever entered (telemetry).
    pub fn mean_block_len(&self) -> Option<f64> {
        (self.blocks_entered > 0)
            .then(|| self.block_instructions as f64 / self.blocks_entered as f64)
    }

    /// Fraction of all retired instructions that ran inside compiled traces
    /// (telemetry; trace engine only). Zero when nothing retired.
    pub fn trace_coverage(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.trace_instructions as f64 / self.instructions as f64
        }
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "instructions {:>12}  cycles {:>12}  cpi {:.3}",
            self.instructions,
            self.cycles,
            self.cpi()
        )?;
        // RISC I fetches one instruction word per instruction it retires.
        writeln!(
            f,
            "data reads   {:>12}  data writes {:>8}  ifetches {:>12}",
            self.data_reads, self.data_writes, self.instructions
        )?;
        writeln!(
            f,
            "calls {:>8}  rets {:>8}  overflows {:>6}  underflows {:>6}  trap cycles {:>8}",
            self.calls, self.rets, self.window_overflows, self.window_underflows, self.trap_cycles
        )?;
        write!(
            f,
            "delay slots {:>8} ({} nops)  max depth {}",
            self.delay_slots, self.delay_slot_nops, self.max_depth
        )?;
        if self.trap_entries > 0 || self.interrupts_taken > 0 {
            let by_cause = TrapKind::ALL
                .iter()
                .filter(|k| self.trap_count(**k) > 0)
                .map(|k| format!("{} {}", k, self.trap_count(*k)))
                .collect::<Vec<_>>()
                .join(", ");
            write!(
                f,
                "\ntraps {:>7} (returns {}, entry cycles {})  interrupts {}  [{}]",
                self.trap_entries,
                self.trap_returns,
                self.trap_entry_cycles,
                self.interrupts_taken,
                by_cause
            )?;
        }
        if self.blocks_entered > 0 {
            write!(
                f,
                "\nsuperblocks {:>6} (mean len {:.2})",
                self.blocks_entered,
                self.mean_block_len().unwrap_or(0.0),
            )?;
        }
        if self.trace_entries > 0 {
            write!(
                f,
                "\ntraces {:>10} built (entries {}, exits {}, side exits {}, coverage {:.1}%)",
                self.traces_built,
                self.trace_entries,
                self.trace_exits,
                self.trace_side_exits,
                100.0 * self.trace_coverage()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_updates_histogram() {
        let mut s = ExecStats::new();
        s.retire(Opcode::Add);
        s.retire(Opcode::Add);
        s.retire(Opcode::Ldl);
        assert_eq!(s.instructions, 3);
        assert_eq!(s.opcode_counts.get(Opcode::Add), 2);
        assert_eq!(s.opcode_counts.get(Opcode::Xor), 0);
        assert_eq!(s.opcode_counts.total(), 3);
        assert_eq!(s.category_counts()[&Category::Load], 1);
    }

    #[test]
    fn every_opcode_discriminant_fits_the_dense_histogram() {
        // The histogram indexes by `op as u8`; the 7-bit opcode field
        // guarantees this stays below OPCODE_SLOTS.
        for &op in Opcode::ALL {
            assert!((op as u8 as usize) < OPCODE_SLOTS, "{op:?}");
        }
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let s = ExecStats::new();
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.overflow_rate(), 0.0);
        assert_eq!(s.delay_slot_fill_rate(), None);
    }

    #[test]
    fn fill_rate() {
        let s = ExecStats {
            delay_slots: 10,
            delay_slot_nops: 4,
            ..ExecStats::new()
        };
        assert!((s.delay_slot_fill_rate().unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!ExecStats::new().to_string().is_empty());
    }

    #[test]
    fn equality_ignores_host_telemetry() {
        let a = ExecStats {
            instructions: 10,
            ..ExecStats::new()
        };
        let b = ExecStats {
            instructions: 10,
            fused_pairs: [3, 0, 1, 0, 2],
            blocks_entered: 4,
            block_instructions: 17,
            ..ExecStats::new()
        };
        assert_eq!(a, b, "telemetry must not affect equivalence laws");
        let c = ExecStats {
            instructions: 11,
            ..ExecStats::new()
        };
        assert_ne!(a, c, "architectural fields still compare");
    }

    #[test]
    fn equality_ignores_trace_telemetry() {
        // Pins the satellite requirement: the trace engine's counters are
        // host telemetry exactly like `fused_pairs` — never part of the
        // equivalence laws or snapshot checksums (snapshots serialize an
        // explicit architectural field list, so any field excluded here is
        // automatically excluded there).
        let a = ExecStats {
            instructions: 10,
            cycles: 40,
            ..ExecStats::new()
        };
        let b = ExecStats {
            instructions: 10,
            cycles: 40,
            traces_built: 3,
            trace_entries: 1000,
            trace_exits: 990,
            trace_side_exits: 10,
            trace_instructions: 9,
            ..ExecStats::new()
        };
        assert_eq!(a, b, "trace telemetry must not affect equivalence laws");
        assert!((b.trace_coverage() - 0.9).abs() < 1e-12);
        assert_eq!(ExecStats::new().trace_coverage(), 0.0);
    }

    #[test]
    fn fusion_accessors() {
        let s = ExecStats {
            fused_pairs: [2, 3, 4, 5, 6],
            blocks_entered: 2,
            block_instructions: 9,
            ..ExecStats::new()
        };
        assert_eq!(s.fused(FuseKind::CmpBranch), 2);
        assert_eq!(s.fused_total(), 20);
        assert!((s.mean_block_len().unwrap() - 4.5).abs() < 1e-12);
        assert_eq!(ExecStats::new().mean_block_len(), None);
        for (i, k) in FuseKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.name().is_empty());
        }
    }
}
