//! Retirement accounting shared by the block and trace tiers.
//!
//! `exec_prepared` counts each instruction's statistics as it retires it.
//! The block executor and the trace executor do not: they settle a
//! completed block, or a completed trace pass, from an aggregate built when
//! it formed, and on an early exit replay the ops that committed. The
//! aggregates and the replays come from one rule, [`replay_meta`], over
//! per-op metadata ([`TMeta`]) adjusted for how the op retired: a transfer
//! in the direction it went ([`TMeta::directed`]), an op whose access,
//! spill or fill faulted with its retirement alone ([`TMeta::faulted`]).

use crate::line::Line;
use crate::stats::ExecStats;
use risc1_isa::Opcode;

/// Per-op static metadata: everything an aggregate or an early exit needs
/// to reproduce the per-instruction accounting of `exec_prepared` at this
/// op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TMeta {
    /// The op's instruction address.
    pub pc: u32,
    /// The delayed-jump target in flight when this op executes (`Some`
    /// exactly when the op sits in a taken transfer's delay slot).
    pub pending_before: Option<u32>,
    /// The opcode (for retire histograms).
    pub op: Opcode,
    /// Base cycle cost.
    pub base: u8,
    /// Whether the op pays a suspended-model bubble.
    pub bubble: bool,
    /// Whether the op counts a taken transfer.
    pub taken: bool,
    /// Memory-read op (counts `data_reads` on success).
    pub is_load: bool,
    /// Memory-write op (counts `data_writes` on success).
    pub is_store: bool,
    /// Whether the instruction is a canonical NOP (delay-slot accounting).
    pub nop: bool,
}

impl TMeta {
    /// The metadata of `line` at `pc`, executed with `pending_before` in
    /// flight and retired without taking a transfer.
    pub(crate) fn of_line(line: &Line, pc: u32, pending_before: Option<u32>) -> TMeta {
        TMeta {
            pc,
            pending_before,
            op: line.op,
            base: line.base_cycles,
            bubble: false,
            taken: false,
            is_load: line.op.is_load(),
            is_store: line.op.is_store(),
            nop: line.insn.is_nop(),
        }
    }

    /// This op retired in direction `taken`: a taken transfer pays the
    /// suspended model's bubble when `suspended`. How a block or a trace
    /// path charges its transfer, an arm its fork, and a guard its
    /// mismatch.
    pub(crate) fn directed(self, taken: bool, suspended: bool) -> TMeta {
        TMeta {
            taken,
            bubble: suspended && taken,
            ..self
        }
    }

    /// This op as it retires when its access, spill or fill faults: the
    /// retirement and its delay-slot accounting, and no cycles, access or
    /// transfer.
    pub(crate) fn faulted(self) -> TMeta {
        TMeta {
            base: 0,
            bubble: false,
            taken: false,
            is_load: false,
            is_store: false,
            ..self
        }
    }
}

/// Replays the per-instruction statistics of `meta`, in order. Field for
/// field what `exec_prepared` bumps per op under forwarding (no hazard
/// bubbles), bar what stays dynamic: window spills and fills, with their
/// cycles, traffic and counters, are charged by the ops that service them.
/// A call or a return counts when it completes, which is when it takes its
/// transfer; a return that halts takes none.
pub(crate) fn replay_meta(stats: &mut ExecStats, meta: &[TMeta]) {
    for m in meta {
        stats.retire(m.op);
        if m.pending_before.is_some() {
            stats.delay_slots += 1;
            stats.delay_slot_nops += u64::from(m.nop);
        }
        stats.cycles += u64::from(m.base) + u64::from(m.bubble);
        stats.bubble_cycles += u64::from(m.bubble);
        stats.data_reads += u64::from(m.is_load);
        stats.data_writes += u64::from(m.is_store);
        stats.taken_transfers += u64::from(m.taken);
        stats.calls += u64::from(m.taken && matches!(m.op, Opcode::Call | Opcode::Callr));
        stats.rets += u64::from(m.taken && m.op.is_ret());
    }
}
