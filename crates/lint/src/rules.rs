//! The rule suite: every check the analyzer runs over a built [`Cfg`].
//!
//! Severity is grounded in what the simulated machine actually does:
//!
//! * transfers in delay slots fault (`ExecError::TransferInDelaySlot`), so
//!   that and other guaranteed-misbehavior findings are **errors**;
//! * reads of never-written registers return the architectural zero, and a
//!   clobbered delay slot only misbehaves when an interrupt restart
//!   re-executes the transfer via `GTLPC` — real hazards, deterministic
//!   machines, hence **warnings**;
//! * dead stores and recursion are **info**.
//!
//! The window-depth rule implements the paper's register-window arithmetic:
//! a file of *w* windows holds *w − 1* activation frames, so a static call
//! chain of depth ≥ *w − 1* from the entry point is guaranteed to take
//! overflow traps (16 words stored per spilled window, and 16 loaded back
//! per fill: `SPILL_REGS` in `risc1-core`).

use crate::cfg::{Cfg, FunctionCfg, InsnIdx};
use crate::dataflow::{
    arch_effects, liveness, may_defined, reg_bit, reg_range, set_regs, summary_effects, BitSet,
    FLAGS_BIT,
};
use crate::diag::{Diagnostic, Rule, Severity};
use risc1_core::{Program, SimConfig};
use risc1_isa::{Category, Instruction, Opcode, INSN_BYTES};
use std::collections::{HashMap, HashSet};

/// Analyzer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Number of register windows on the target machine (the paper's
    /// hardware had 8); drives the call-depth rule.
    pub windows: usize,
    /// Byte offsets (within the code image) of trap-handler entry points.
    /// Each becomes an extra function root: hardware reaches it through
    /// the trap vector, so its body is live code and must return with
    /// `reti` (the trap-handler-missing-reti rule).
    pub trap_handlers: Vec<u32>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            windows: 8,
            trap_handlers: Vec::new(),
        }
    }
}

impl LintConfig {
    /// Derives the lint-relevant parameters from a simulator config.
    /// Handler roots are program-specific, not machine-specific, so the
    /// list starts empty.
    pub fn from_sim(sim: &SimConfig) -> LintConfig {
        LintConfig {
            windows: sim.windows,
            ..LintConfig::default()
        }
    }
}

/// Whether any diagnostic in the batch is error-severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Runs every rule over `program` and returns the findings, errors first,
/// then by address.
pub fn lint_program(program: &Program, config: &LintConfig) -> Vec<Diagnostic> {
    let roots: Vec<InsnIdx> = config
        .trap_handlers
        .iter()
        .filter(|&&off| off % INSN_BYTES == 0)
        .map(|&off| (off / INSN_BYTES) as InsnIdx)
        .collect();
    let cfg = Cfg::build_with_roots(program, &roots);
    let mut diags = cfg.issues.clone();
    let mut lints = Linter {
        program,
        cfg: &cfg,
        config,
        diags: &mut diags,
        reported_reads: HashSet::new(),
    };
    lints.delay_slot_rules();
    lints.branch_into_slot();
    lints.dataflow_rules();
    lints.spec_illegal_encoding();
    lints.fall_off_end();
    lints.unreachable_code();
    lints.call_depth();
    lints.trap_handler_reti();
    diags.sort_by_key(|d| (std::cmp::Reverse(d.severity), d.pc, d.rule));
    diags.dedup();
    diags
}

struct Linter<'a> {
    program: &'a Program,
    cfg: &'a Cfg,
    config: &'a LintConfig,
    diags: &'a mut Vec<Diagnostic>,
    /// Uninit reads already reported, keyed by (word, fact bit).
    reported_reads: HashSet<(InsnIdx, BitSet)>,
}

impl Linter<'_> {
    fn pc(&self, idx: InsnIdx) -> u32 {
        (idx * INSN_BYTES as usize) as u32
    }

    /// `" in sym+0xOFF"` (leading space) when the address falls under a
    /// known symbol; empty otherwise.
    fn loc(&self, idx: InsnIdx) -> String {
        match self.program.symbol_for(self.pc(idx)) {
            Some((name, delta)) => format!(" in {name}+0x{delta:x}"),
            None => String::new(),
        }
    }

    fn push(&mut self, rule: Rule, idx: InsnIdx, message: String) {
        self.diags
            .push(Diagnostic::new(rule, self.pc(idx), message));
    }

    /// Transfer-in-slot (error) and slot-clobber (warning), directly off
    /// the shared `safe_in_delay_slot_of` hazard predicate.
    fn delay_slot_rules(&mut self) {
        for i in 0..self.cfg.code.len() {
            if !self.cfg.reachable[i] {
                continue;
            }
            let Some(t) = self.cfg.code[i] else { continue };
            if !t.opcode.has_delay_slot() || i + 1 >= self.cfg.code.len() {
                continue;
            }
            let Some(s) = self.cfg.code[i + 1] else {
                continue;
            };
            if s.opcode.is_transfer() {
                self.push(
                    Rule::TransferInDelaySlot,
                    i + 1,
                    format!(
                        "`{s}` sits in the delay slot of `{t}`{} - the hardware faults here",
                        self.loc(i)
                    ),
                );
            } else if !s.safe_in_delay_slot_of(&t) {
                let why = if t.opcode.moves_window() {
                    "the slot executes in the other register window"
                } else if s.sets_cc() && t.reads_cc() {
                    "an interrupt restart re-executes the jump with the slot's flags"
                } else {
                    "an interrupt restart re-executes the jump with the clobbered register"
                };
                self.push(
                    Rule::DelaySlotClobber,
                    i + 1,
                    format!("`{s}` in the delay slot of `{t}`{}: {why}", self.loc(i)),
                );
            }
        }
    }

    /// A transfer whose static target is some other transfer's delay slot.
    fn branch_into_slot(&mut self) {
        for f in &self.cfg.functions {
            for b in &f.blocks {
                let Some(term) = b.term else { continue };
                let Some(insn) = self.cfg.code[term] else {
                    continue;
                };
                if !matches!(insn.opcode, Opcode::Jmpr | Opcode::Callr) {
                    continue;
                }
                for &s in &b.succs {
                    let target = f.blocks[s].start;
                    if self.cfg.delay_slot[target] && target != term + 1 {
                        self.push(
                            Rule::BranchIntoDelaySlot,
                            term,
                            format!(
                                "`{insn}`{} targets +0x{:04x}, the delay slot of another transfer",
                                self.loc(term),
                                self.pc(target)
                            ),
                        );
                    }
                }
            }
        }
    }

    /// The facts defined when control enters `f`.
    fn entry_defined(&self, f: &FunctionCfg) -> BitSet {
        // Incoming arguments (HIGH aliases the caller's LOW) are always
        // assumed live-in; arity is not statically known.
        let mut defined = reg_range(26, 31);
        if !f.is_entry {
            // A called function inherits whatever globals and flags the
            // environment established, plus the link register every known
            // call site writes.
            defined |= reg_range(1, 9) | FLAGS_BIT;
            for caller in &self.cfg.functions {
                for site in &caller.calls {
                    if site.target == Some(f.head) {
                        defined |= site.link.map(reg_bit).unwrap_or(0);
                    }
                }
            }
        }
        if f.is_trap_handler {
            // Trap entry writes the precise-state triple into the fresh
            // window: r25 = restart pc, r24 = cause, r23 = info.
            defined |= reg_range(23, 25);
        }
        defined
    }

    /// Uninit reads, ret-without-call, and dead stores — the dataflow
    /// rules, one pass pair per function.
    fn dataflow_rules(&mut self) {
        for f in &self.cfg.functions {
            let defined = may_defined(f, &self.cfg.code, self.entry_defined(f));
            for (id, b) in f.blocks.iter().enumerate() {
                let mut d = defined.ins[id];
                for i in b.start..b.end.min(self.cfg.code.len()) {
                    let Some(insn) = self.cfg.code[i] else { break };
                    let missing = arch_effects(&insn).uses & !d;
                    self.report_uninit(f, i, &insn, missing);
                    d |= summary_effects(&insn).defs;
                }
            }

            let exit_live = reg_range(1, 9) | reg_range(26, 31) | FLAGS_BIT;
            let live = liveness(f, &self.cfg.code, exit_live);
            for (id, b) in f.blocks.iter().enumerate() {
                let mut l = live.outs[id];
                for i in (b.start..b.end.min(self.cfg.code.len())).rev() {
                    let Some(insn) = self.cfg.code[i] else {
                        continue;
                    };
                    self.report_dead_store(i, &insn, l);
                    self.report_dead_scc(i, &insn, l);
                    let e = summary_effects(&insn);
                    l = (l & !e.defs) | e.uses;
                }
            }
        }
    }

    fn report_uninit(&mut self, f: &FunctionCfg, i: InsnIdx, insn: &Instruction, missing: BitSet) {
        if missing == 0 {
            return;
        }
        if insn.opcode.is_ret() && f.is_entry {
            // `ret` in the entry function is the halt idiom: at call depth
            // zero the simulator stops and ignores the target operand.
            return;
        }
        if missing & FLAGS_BIT != 0 && self.reported_reads.insert((i, FLAGS_BIT)) {
            self.push(
                Rule::UninitRead,
                i,
                format!(
                    "`{insn}`{} tests condition flags never set on any path",
                    self.loc(i)
                ),
            );
        }
        for r in set_regs(missing & !FLAGS_BIT) {
            if !self.reported_reads.insert((i, reg_bit(r))) {
                continue;
            }
            if insn.opcode.is_ret() {
                self.push(
                    Rule::RetWithoutCall,
                    i,
                    format!(
                        "`{insn}`{} consumes {r} but no reaching call wrote a return address",
                        self.loc(i)
                    ),
                );
            } else {
                self.push(
                    Rule::UninitRead,
                    i,
                    format!(
                        "`{insn}`{} reads {r}, which nothing writes on any path (it reads as 0)",
                        self.loc(i)
                    ),
                );
            }
        }
    }

    fn report_dead_store(&mut self, i: InsnIdx, insn: &Instruction, live: BitSet) {
        let pure = matches!(
            insn.opcode.category(),
            Category::Arithmetic | Category::Shift
        ) || matches!(insn.opcode, Opcode::Ldhi | Opcode::Getpsw | Opcode::Gtlpc);
        if !pure || insn.sets_cc() || insn.is_nop() {
            return;
        }
        // A window-moving transfer's slot runs in the other window; its
        // writes are not this function's registers, so skip attribution.
        if self.cfg.delay_slot[i] && self.cfg.code[i - 1].is_some_and(|t| t.opcode.moves_window()) {
            return;
        }
        if let Some(w) = insn.writes() {
            if reg_bit(w) & live == 0 {
                self.push(
                    Rule::DeadStore,
                    i,
                    format!(
                        "`{insn}`{} writes {w}, which is overwritten before any read",
                        self.loc(i)
                    ),
                );
            }
        }
    }

    /// An `{scc}` bit whose flags nothing reads before the next flag
    /// write. The machine executes it fine, but it poisons the delay-slot
    /// filler (a flag-setter is never safe in a conditional transfer's
    /// shadow) for no benefit. `live` is the live-after set of the
    /// instruction, so the rule is exact up to the call-summary and
    /// function-exit conservatism of the liveness pass.
    fn report_dead_scc(&mut self, i: InsnIdx, insn: &Instruction, live: BitSet) {
        if insn.scc && live & FLAGS_BIT == 0 {
            self.push(
                Rule::DeadSccSet,
                i,
                format!(
                    "`{insn}`{} sets the condition codes but nothing reads them \
                     before the next setter",
                    self.loc(i)
                ),
            );
        }
    }

    /// Reachable words whose decoded operand shape the ISA spec table
    /// rejects: the word executes, but the assembler could never have
    /// produced it, so it is almost certainly a miscomputed constant or
    /// data executed as code (e.g. a `ret` with a non-zero ignored dest
    /// field, or a shift count the barrel shifter silently masks).
    fn spec_illegal_encoding(&mut self) {
        for i in 0..self.cfg.code.len() {
            if !self.cfg.reachable[i] {
                continue;
            }
            let Some(insn) = self.cfg.code[i] else {
                continue;
            };
            if let Err(v) = risc1_isa::spec::validate(&insn) {
                self.push(
                    Rule::SpecIllegalEncoding,
                    i,
                    format!("`{insn}`{}: {v}", self.loc(i)),
                );
            }
        }
    }

    /// A reachable block that can run past the last word of code.
    fn fall_off_end(&mut self) {
        let mut seen = HashSet::new();
        for f in &self.cfg.functions {
            for b in f.blocks.iter().filter(|b| b.falls_off) {
                let last = b.end.saturating_sub(1).min(self.cfg.code.len() - 1);
                if !seen.insert(last) {
                    continue;
                }
                self.push(
                    Rule::FallOffEnd,
                    last,
                    format!(
                        "execution{} can run past the end of code without a ret/halt",
                        self.loc(last)
                    ),
                );
            }
        }
    }

    /// Decodable instructions no path ever executes, reported one run at a
    /// time. Stands down entirely when an indexed jump makes static
    /// reachability incomplete, and skips NOPs (alignment padding) and
    /// undecodable words (inline data).
    fn unreachable_code(&mut self) {
        if self.cfg.has_indexed_jump {
            return;
        }
        let interesting: Vec<bool> = (0..self.cfg.code.len())
            .map(|i| !self.cfg.reachable[i] && self.cfg.code[i].is_some_and(|insn| !insn.is_nop()))
            .collect();
        let mut i = 0;
        while i < interesting.len() {
            if interesting[i] {
                let run = interesting[i..].iter().take_while(|&&x| x).count();
                self.push(
                    Rule::UnreachableCode,
                    i,
                    format!("{run} instruction(s){} can never execute", self.loc(i)),
                );
                i += run;
            } else {
                i += 1;
            }
        }
    }

    /// Static call-depth analysis over the function call graph.
    fn call_depth(&mut self) {
        let index_of: HashMap<InsnIdx, usize> = self
            .cfg
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.head, i))
            .collect();

        // Longest acyclic call chain from each function, in nested calls.
        fn depth(
            fid: usize,
            cfg: &Cfg,
            index_of: &HashMap<InsnIdx, usize>,
            memo: &mut Vec<Option<usize>>,
            on_stack: &mut Vec<bool>,
            cycle: &mut Option<usize>,
        ) -> usize {
            if let Some(d) = memo[fid] {
                return d;
            }
            if on_stack[fid] {
                cycle.get_or_insert(fid);
                return 0; // cycle edges contribute no static depth
            }
            on_stack[fid] = true;
            let mut best = 0;
            for site in &cfg.functions[fid].calls {
                let below = site
                    .target
                    .and_then(|h| index_of.get(&h).copied())
                    .map(|t| depth(t, cfg, index_of, memo, on_stack, cycle))
                    .unwrap_or(0);
                best = best.max(1 + below);
            }
            on_stack[fid] = false;
            memo[fid] = Some(best);
            best
        }

        let n = self.cfg.functions.len();
        if n == 0 {
            return;
        }
        let mut memo = vec![None; n];
        let mut on_stack = vec![false; n];
        let mut cycle = None;
        let d = depth(0, self.cfg, &index_of, &mut memo, &mut on_stack, &mut cycle);

        if let Some(fid) = cycle {
            let head = self.cfg.functions[fid].head;
            self.push(
                Rule::RecursiveCallGraph,
                head,
                format!(
                    "{} is recursive: window overflow depends on runtime depth",
                    self.cfg.functions[fid].label()
                ),
            );
        }
        let w = self.config.windows;
        if w >= 2 && d >= w - 1 {
            self.push(
                Rule::WindowOverflowDepth,
                self.cfg.entry,
                format!(
                    "deepest static call chain is {d} calls but {w} windows hold only \
                     {} frames: window overflow traps are guaranteed on that path",
                    w - 1
                ),
            );
        }
    }

    /// A trap-handler root that exits with `ret` instead of `reti`. The
    /// machine executes the `ret` fine, but the trap unit stays armed (the
    /// next vectorable fault is a double fault) and interrupts stay
    /// masked. Stands down when the function is also a call target —
    /// dual-use code may legitimately return with `ret` on the call path.
    fn trap_handler_reti(&mut self) {
        let called: HashSet<InsnIdx> = self
            .cfg
            .functions
            .iter()
            .flat_map(|f| f.calls.iter().filter_map(|s| s.target))
            .collect();
        for f in &self.cfg.functions {
            if !f.is_trap_handler || called.contains(&f.head) {
                continue;
            }
            for b in &f.blocks {
                let Some(term) = b.term else { continue };
                let Some(insn) = self.cfg.code[term] else {
                    continue;
                };
                if insn.opcode == Opcode::Ret {
                    self.push(
                        Rule::TrapHandlerMissingReti,
                        term,
                        format!(
                            "`{insn}`{} leaves trap handler {} without re-arming the trap \
                             unit: the next fault double-faults and interrupts stay \
                             disabled - return with `reti`",
                            self.loc(term),
                            f.label()
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risc1_isa::{Cond, Reg, Short2};

    fn imm(v: i32) -> Short2 {
        Short2::imm(v).unwrap()
    }

    fn halt() -> Vec<Instruction> {
        vec![Instruction::ret(Reg::R0, Short2::ZERO), Instruction::nop()]
    }

    fn lint(insns: Vec<Instruction>) -> Vec<Diagnostic> {
        lint_program(&Program::from_instructions(insns), &LintConfig::default())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    /// A two-instruction program that exercises no rule at all.
    #[test]
    fn minimal_clean_program() {
        let mut insns = vec![Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, imm(1))];
        insns.extend(halt());
        // The add's result is never read — allow the dead-store info, but
        // nothing else. (Writing then halting is the minimal program.)
        let diags = lint(insns);
        assert!(
            diags.iter().all(|d| d.severity == Severity::Info),
            "{diags:?}"
        );
    }

    #[test]
    fn transfer_in_delay_slot_is_an_error() {
        let mut insns = vec![
            Instruction::jmpr(Cond::Alw, 8),
            Instruction::jmpr(Cond::Alw, 4), // in the slot: faults
        ];
        insns.extend(halt());
        let diags = lint(insns);
        assert!(rules_of(&diags).contains(&Rule::TransferInDelaySlot));
        assert!(has_errors(&diags));
    }

    #[test]
    fn clean_slot_is_not_flagged() {
        let mut insns = vec![
            Instruction::jmpr(Cond::Alw, 8),
            Instruction::reg(Opcode::Add, Reg::R2, Reg::R2, imm(1)),
        ];
        insns.extend(halt());
        let diags = lint(insns);
        assert!(!rules_of(&diags).contains(&Rule::TransferInDelaySlot));
        assert!(!rules_of(&diags).contains(&Rule::DelaySlotClobber));
    }

    #[test]
    fn scc_in_conditional_slot_is_a_clobber() {
        // The conditional jump targets the ret; its slot re-sets the flags
        // the jump just consumed.
        let mut insns = vec![
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R26, imm(0)),
            Instruction::jmpr(Cond::Eq, 8),
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R26, imm(5)),
        ];
        insns.extend(halt());
        let diags = lint(insns);
        assert!(
            rules_of(&diags).contains(&Rule::DelaySlotClobber),
            "{diags:?}"
        );
        assert!(!has_errors(&diags));
    }

    #[test]
    fn uninit_read_is_flagged_and_zero_reg_is_not() {
        let mut insns = vec![
            Instruction::reg(Opcode::Add, Reg::R16, Reg::R17, imm(0)), // r17 never written
        ];
        insns.extend(halt());
        let diags = lint(insns);
        let uninit: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::UninitRead)
            .collect();
        assert_eq!(uninit.len(), 1, "{diags:?}");
        assert!(uninit[0].message.contains("r17"));
    }

    #[test]
    fn defined_read_is_clean() {
        let mut insns = vec![
            Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, imm(3)),
            Instruction::reg(Opcode::Stl, Reg::R17, Reg::R0, imm(64)), // store keeps it live
        ];
        insns.extend(halt());
        let diags = lint(insns);
        assert!(rules_of(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn incoming_args_are_not_uninit() {
        // HIGH registers are incoming parameters; reading them is clean.
        let mut insns = vec![
            Instruction::reg(Opcode::Add, Reg::R2, Reg::R26, Short2::reg(Reg::R31)),
            Instruction::reg(Opcode::Stl, Reg::R2, Reg::R0, imm(64)),
        ];
        insns.extend(halt());
        assert!(rules_of(&lint(insns)).is_empty());
    }

    #[test]
    fn dead_store_is_info() {
        let mut insns = vec![
            Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, imm(1)), // overwritten below
            Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, imm(2)),
            Instruction::reg(Opcode::Stl, Reg::R16, Reg::R0, imm(64)),
        ];
        insns.extend(halt());
        let diags = lint(insns);
        let dead: Vec<_> = diags.iter().filter(|d| d.rule == Rule::DeadStore).collect();
        assert_eq!(dead.len(), 1, "{diags:?}");
        assert_eq!(dead[0].pc, 0, "the first write is the dead one");
        assert_eq!(dead[0].severity, Severity::Info);
    }

    #[test]
    fn store_to_memory_is_never_dead() {
        let mut insns = vec![
            Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, imm(1)),
            Instruction::reg(Opcode::Stl, Reg::R16, Reg::R0, imm(64)),
        ];
        insns.extend(halt());
        assert!(!rules_of(&lint(insns)).contains(&Rule::DeadStore));
    }

    #[test]
    fn dead_scc_set_is_flagged_and_consumed_flags_are_not() {
        // The first {scc} is overwritten by the second before any read; the
        // second feeds the conditional jump and is live.
        let mut insns = vec![
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R26, imm(1)),
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R26, imm(0)),
            Instruction::jmpr(Cond::Eq, 8),
            Instruction::nop(),
        ];
        insns.extend(halt());
        let diags = lint(insns);
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::DeadSccSet)
            .collect();
        assert_eq!(dead.len(), 1, "{diags:?}");
        assert_eq!(dead[0].pc, 0, "only the overwritten setter is dead");
        assert_eq!(dead[0].severity, Severity::Info);
    }

    #[test]
    fn scc_live_across_a_branch_join_is_not_dead() {
        // The setter's flags are read on the fall-through path only; the
        // union at the join must keep it live.
        let mut insns = vec![
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R26, imm(0)),
            Instruction::jmpr(Cond::Alw, 8),
            Instruction::nop(),
            Instruction::reg(Opcode::Addc, Reg::R16, Reg::R0, imm(0)), // reads carry
        ];
        insns.extend(halt());
        let diags = lint(insns);
        assert!(!rules_of(&diags).contains(&Rule::DeadSccSet), "{diags:?}");
    }

    #[test]
    fn spec_illegal_encoding_flags_noncanonical_words() {
        use risc1_isa::Operands;
        // A shift count the barrel shifter masks, and a ret carrying junk
        // in its architecturally-ignored dest field.
        let ret_bad = Instruction {
            opcode: Opcode::Ret,
            scc: false,
            operands: Operands::Short {
                dest: Reg::R5,
                rs1: Reg::R25,
                s2: imm(8),
            },
        };
        let mut insns = vec![
            Instruction::callr(Reg::R25, 4 * INSN_BYTES as i32),
            Instruction::nop(),
        ];
        insns.extend(halt());
        insns.push(Instruction::reg(Opcode::Sll, Reg::R2, Reg::R2, imm(33)));
        insns.push(ret_bad);
        insns.push(Instruction::nop());
        let diags = lint(insns);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::SpecIllegalEncoding)
            .collect();
        assert_eq!(hits.len(), 2, "{diags:?}");
        assert!(hits.iter().any(|d| d.message.contains("shift count")));
        assert!(hits.iter().any(|d| d.message.contains("must be r0")));
        assert!(!has_errors(&diags), "the words still execute");
    }

    #[test]
    fn canonical_programs_are_spec_legal() {
        assert!(!rules_of(&lint(call_chain(2))).contains(&Rule::SpecIllegalEncoding));
    }

    #[test]
    fn unreachable_code_is_flagged_once_per_run() {
        let mut insns = halt();
        insns.push(Instruction::reg(Opcode::Add, Reg::R16, Reg::R0, imm(1)));
        insns.push(Instruction::reg(Opcode::Add, Reg::R17, Reg::R0, imm(2)));
        let diags = lint(insns);
        let unreachable: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::UnreachableCode)
            .collect();
        assert_eq!(unreachable.len(), 1, "{diags:?}");
        assert!(unreachable[0].message.contains("2 instruction(s)"));
    }

    #[test]
    fn reachable_loop_is_not_unreachable() {
        let insns = vec![
            Instruction::reg(Opcode::Add, Reg::R16, Reg::R16, imm(1)),
            Instruction::jmpr(Cond::Alw, -4),
            Instruction::nop(),
        ];
        assert!(!rules_of(&lint(insns)).contains(&Rule::UnreachableCode));
    }

    #[test]
    fn fall_off_end_is_an_error() {
        let diags = lint(vec![Instruction::reg(
            Opcode::Add,
            Reg::R16,
            Reg::R0,
            imm(1),
        )]);
        assert!(rules_of(&diags).contains(&Rule::FallOffEnd), "{diags:?}");
        assert!(has_errors(&diags));
    }

    #[test]
    fn halted_program_does_not_fall_off() {
        assert!(!rules_of(&lint(halt())).contains(&Rule::FallOffEnd));
    }

    /// Build entry -> f1 -> f2 -> … -> fN as a callr chain; each callee
    /// rets. Depth N.
    fn call_chain(n: usize) -> Vec<Instruction> {
        // Layout: entry at 0..4 (callr f1; nop; ret r0; nop), then each fi
        // at 4 + (i-1)*4: callr f(i+1); nop; ret r25; nop — last is a leaf.
        let mut insns = Vec::new();
        insns.push(Instruction::callr(Reg::R25, 4 * INSN_BYTES as i32));
        insns.push(Instruction::nop());
        insns.extend(halt());
        for i in 0..n {
            if i + 1 < n {
                insns.push(Instruction::callr(Reg::R25, 4 * INSN_BYTES as i32));
                insns.push(Instruction::nop());
            } else {
                insns.push(Instruction::reg(Opcode::Add, Reg::R26, Reg::R0, imm(1)));
                insns.push(Instruction::nop());
            }
            insns.push(Instruction::ret(Reg::R25, imm(8)));
            insns.push(Instruction::nop());
        }
        insns
    }

    #[test]
    fn deep_call_chain_guarantees_overflow() {
        // 8 nested calls with 8 windows (7 frames) must warn; the same
        // chain with 16 windows must not.
        let insns = call_chain(8);
        let warn = lint_program(
            &Program::from_instructions(insns.clone()),
            &LintConfig {
                windows: 8,
                ..LintConfig::default()
            },
        );
        assert!(
            rules_of(&warn).contains(&Rule::WindowOverflowDepth),
            "{warn:?}"
        );
        let ok = lint_program(
            &Program::from_instructions(insns),
            &LintConfig {
                windows: 16,
                ..LintConfig::default()
            },
        );
        assert!(!rules_of(&ok).contains(&Rule::WindowOverflowDepth));
    }

    #[test]
    fn shallow_chain_is_clean_and_ret_link_is_defined() {
        let diags = lint(call_chain(2));
        assert!(!rules_of(&diags).contains(&Rule::WindowOverflowDepth));
        assert!(
            !rules_of(&diags).contains(&Rule::RetWithoutCall),
            "callr writes the link register: {diags:?}"
        );
        assert!(!has_errors(&diags));
    }

    #[test]
    fn recursion_is_reported_as_info() {
        // entry calls f; f calls itself.
        let insns = vec![
            Instruction::callr(Reg::R25, 4 * INSN_BYTES as i32),
            Instruction::nop(),
            Instruction::ret(Reg::R0, Short2::ZERO),
            Instruction::nop(),
            // f:
            Instruction::callr(Reg::R25, 0), // callr f (self)
            Instruction::nop(),
            Instruction::ret(Reg::R25, imm(8)),
            Instruction::nop(),
        ];
        let diags = lint(insns);
        assert!(
            rules_of(&diags).contains(&Rule::RecursiveCallGraph),
            "{diags:?}"
        );
        assert!(!has_errors(&diags));
    }

    #[test]
    fn ret_without_reaching_call_in_callee() {
        // entry calls f with a discarded r0 link; f rets through r25,
        // which nothing wrote.
        let insns = vec![
            Instruction::callr(Reg::R0, 4 * INSN_BYTES as i32),
            Instruction::nop(),
            Instruction::ret(Reg::R0, Short2::ZERO),
            Instruction::nop(),
            // f:
            Instruction::ret(Reg::R25, imm(8)),
            Instruction::nop(),
        ];
        let diags = lint(insns);
        assert!(
            rules_of(&diags).contains(&Rule::RetWithoutCall),
            "{diags:?}"
        );
    }

    #[test]
    fn branch_into_delay_slot_is_flagged() {
        // The conditional jump at word 1 targets word 5, which is the
        // delay slot of the (also reachable) jump at word 4.
        let insns = vec![
            Instruction::reg_scc(Opcode::Sub, Reg::R0, Reg::R26, imm(0)),
            Instruction::jmpr(Cond::Eq, 16), // -> word 5
            Instruction::nop(),
            Instruction::nop(),
            Instruction::jmpr(Cond::Alw, 12), // -> word 7, slot is word 5
            Instruction::reg(Opcode::Add, Reg::R2, Reg::R0, imm(1)),
            Instruction::nop(),
            Instruction::ret(Reg::R0, Short2::ZERO),
            Instruction::nop(),
        ];
        let diags = lint(insns);
        assert!(
            rules_of(&diags).contains(&Rule::BranchIntoDelaySlot),
            "{diags:?}"
        );
    }

    /// The entry halts at words 0..2; the handler body starts at word 2.
    fn handler_config() -> LintConfig {
        LintConfig {
            trap_handlers: vec![2 * INSN_BYTES],
            ..LintConfig::default()
        }
    }

    #[test]
    fn trap_handler_returning_with_ret_is_flagged() {
        let mut insns = halt();
        // handler: stash the cause in a global, then (wrongly) plain ret.
        insns.push(Instruction::reg(Opcode::Add, Reg::R2, Reg::R24, imm(0)));
        insns.push(Instruction::ret(Reg::R25, Short2::ZERO));
        insns.push(Instruction::nop());
        let diags = lint_program(&Program::from_instructions(insns), &handler_config());
        let rules = rules_of(&diags);
        assert!(rules.contains(&Rule::TrapHandlerMissingReti), "{diags:?}");
        assert!(
            !rules.contains(&Rule::UnreachableCode),
            "a handler root is live code: {diags:?}"
        );
        assert!(
            !rules.contains(&Rule::UninitRead) && !rules.contains(&Rule::RetWithoutCall),
            "trap entry defines r23-r25: {diags:?}"
        );
        assert!(!has_errors(&diags));
    }

    #[test]
    fn trap_handler_returning_with_reti_is_clean() {
        let mut insns = halt();
        insns.push(Instruction::reg(Opcode::Add, Reg::R2, Reg::R24, imm(0)));
        insns.push(Instruction::reti(Reg::R25, Short2::ZERO));
        insns.push(Instruction::nop());
        let diags = lint_program(&Program::from_instructions(insns), &handler_config());
        assert!(rules_of(&diags).is_empty(), "{diags:?}");
    }

    #[test]
    fn dual_use_handler_stands_down() {
        // entry callr's the function at word 4; the same head is declared
        // a trap root. On the call path a plain ret is legitimate.
        let insns = vec![
            Instruction::callr(Reg::R25, 4 * INSN_BYTES as i32),
            Instruction::nop(),
            Instruction::ret(Reg::R0, Short2::ZERO),
            Instruction::nop(),
            // f:
            Instruction::reg(Opcode::Add, Reg::R2, Reg::R26, imm(0)),
            Instruction::ret(Reg::R25, Short2::ZERO),
            Instruction::nop(),
        ];
        let config = LintConfig {
            trap_handlers: vec![4 * INSN_BYTES],
            ..LintConfig::default()
        };
        let diags = lint_program(&Program::from_instructions(insns), &config);
        assert!(
            !rules_of(&diags).contains(&Rule::TrapHandlerMissingReti),
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostics_sort_errors_first() {
        let mut insns = vec![
            Instruction::reg(Opcode::Add, Reg::R16, Reg::R17, imm(0)), // warning (late pc? no, pc 0)
            Instruction::jmpr(Cond::Alw, 8),
            Instruction::jmpr(Cond::Alw, 4), // error at pc 8
        ];
        insns.extend(halt());
        let diags = lint(insns);
        assert!(!diags.is_empty());
        assert_eq!(diags[0].severity, Severity::Error);
    }
}
