//! Compile-and-run helpers shared by tests, workloads and experiments.

use crate::ast::ValidateError;
use crate::layout::ARGV_BASE;
use crate::rasm::RasmError;
use risc1_cisc::{BuildError, CxConfig, CxCpu, CxProgram, CxStats};
use risc1_core::deadline::DEADLINE_POLL_STEPS;
use risc1_core::inject::RECOVERY_STUB_BASE;
use risc1_core::snapshot::RestoreError;
use risc1_core::{
    Cpu, Deadline, ExecError, ExecStats, FaultInjector, Halt, InjectConfig, InjectEvent,
    InjectKind, JournalEvent, Program, SimConfig, Snapshot,
};
use risc1_m68::{McBuildError, McConfig, McCpu, McProgram, McStats};
use std::fmt;

/// A code-generation failure (either backend).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// The module failed structural validation.
    Validate(ValidateError),
    /// RISC label resolution failed.
    Rasm(RasmError),
    /// CX stream building failed.
    CxBuild(BuildError),
    /// MC stream building failed.
    McBuild(McBuildError),
    /// An expression (plus the function's locals) exceeded the register
    /// budget of the simple 1981-style allocator.
    OutOfRegisters {
        /// Function (or context) that overflowed.
        func: String,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Validate(e) => write!(f, "validation: {e}"),
            CodegenError::Rasm(e) => write!(f, "risc assembly: {e}"),
            CodegenError::CxBuild(e) => write!(f, "cx assembly: {e}"),
            CodegenError::McBuild(e) => write!(f, "mc assembly: {e}"),
            CodegenError::OutOfRegisters { func } => {
                write!(f, "out of registers compiling `{func}`")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<ValidateError> for CodegenError {
    fn from(e: ValidateError) -> Self {
        CodegenError::Validate(e)
    }
}

/// Runs a compiled RISC I program with the given `main` arguments under the
/// default configuration, returning `(result, stats)`.
///
/// # Errors
/// Propagates simulator faults as boxed errors.
pub fn run_risc(prog: &Program, args: &[i32]) -> Result<(i32, ExecStats), risc1_core::ExecError> {
    run_risc_with(prog, args, SimConfig::default())
}

/// [`run_risc`] with an explicit simulator configuration.
///
/// # Errors
/// Propagates simulator faults.
pub fn run_risc_with(
    prog: &Program,
    args: &[i32],
    cfg: SimConfig,
) -> Result<(i32, ExecStats), risc1_core::ExecError> {
    // In debug builds, hold the code generator to the analyzer's bar:
    // nothing it emits may carry an error-severity finding (delay-slot
    // faults, undecodable words, paths that run off the end of code).
    #[cfg(debug_assertions)]
    {
        let diags = risc1_lint::lint_program(prog, &risc1_lint::LintConfig::from_sim(&cfg));
        assert!(
            !risc1_lint::has_errors(&diags),
            "codegen produced a program the linter rejects:\n{}",
            risc1_lint::render_text(&diags)
        );
    }
    let mut cpu =
        setup_risc(prog, args, cfg, false).expect("program fits memory, at most 6 arguments");
    cpu.run()?;
    Ok((cpu.result(), cpu.stats()))
}

/// How a fault-injected run ended.
///
/// This is the harness trichotomy: every injected execution either halts
/// cleanly (possibly after recovering from injected faults via the trap
/// unit) or stops with a *structured* simulator fault. A fourth outcome —
/// a panic — must never happen; `tests/fault_injection.rs` enforces this
/// over every workload and many seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectOutcome {
    /// The program reached a clean halt with `result` in `r26`.
    Halted {
        /// The program's return value.
        result: i32,
    },
    /// Execution terminated with a structured fault.
    Faulted {
        /// The fault that ended the run.
        error: ExecError,
    },
}

/// Everything an injected run produced: outcome, execution statistics
/// (including trap entry/return counters) and the injection schedule that
/// was actually applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectReport {
    /// How the run ended.
    pub outcome: InjectOutcome,
    /// Simulator statistics at termination.
    pub stats: ExecStats,
    /// The faults the injector applied, in order.
    pub events: Vec<InjectEvent>,
}

impl InjectReport {
    /// True when the run halted cleanly.
    pub fn is_halted(&self) -> bool {
        matches!(self.outcome, InjectOutcome::Halted { .. })
    }

    /// True when the run halted cleanly *and* produced `expect` — i.e. the
    /// injected faults were fully absorbed.
    pub fn recovered(&self, expect: i32) -> bool {
        self.outcome == InjectOutcome::Halted { result: expect }
    }
}

/// A failure to *arrange* an injected run (before any instruction
/// executes): the image does not fit memory, or more than six register
/// arguments were supplied. Distinct from [`InjectOutcome::Faulted`],
/// which is a structured fault of the simulated machine itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectSetupError {
    /// Loading the program image (or the recovery stubs) faulted.
    Load(risc1_core::MemError),
    /// More than six register arguments.
    Args(risc1_core::TooManyArgs),
}

impl fmt::Display for InjectSetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectSetupError::Load(e) => write!(f, "loading program: {e}"),
            InjectSetupError::Args(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InjectSetupError {}

/// Runs a compiled RISC I program under deterministic fault injection.
///
/// Identical `(prog, args, cfg, inject, recovery)` inputs produce an
/// identical injection schedule, trap counts and final state. With
/// `recovery` set, per-cause recovery stubs are installed at
/// [`RECOVERY_STUB_BASE`] (below `code_base`, an area program images never
/// touch) before execution, so vectorable faults enter handlers instead of
/// terminating the run.
///
/// This function never panics on any seed: setup problems come back as
/// `Err`, and every execution ends in the [`InjectOutcome`] trichotomy.
///
/// # Errors
/// [`InjectSetupError`] when the run could not be arranged at all.
pub fn run_risc_injected(
    prog: &Program,
    args: &[i32],
    cfg: SimConfig,
    inject: InjectConfig,
    recovery: bool,
) -> Result<InjectReport, InjectSetupError> {
    Ok(
        run_risc_deadline(prog, args, cfg, Some(inject), recovery, None, None)?
            .finished()
            .expect("a run without a deadline cannot time out"),
    )
}

/// How a deadline-watched run ended: either the full [`InjectReport`] of a
/// completed execution, or a timeout with the partial statistics and
/// injection schedule gathered before the wall clock ran out.
///
/// This deliberately wraps — rather than extends — [`InjectOutcome`]: the
/// trichotomy (recovered / structured fault / clean halt) is a determinism
/// law, and a wall-clock expiry is host-dependent, so it lives one layer
/// out where nothing bit-compares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimedOutcome {
    /// The run completed before the deadline (or had none).
    Finished(InjectReport),
    /// The wall-clock deadline passed mid-run.
    TimedOut {
        /// Simulator statistics at the moment the run was stopped.
        stats: ExecStats,
        /// Faults the injector had applied so far.
        events: Vec<InjectEvent>,
    },
}

impl TimedOutcome {
    /// The completed report, if the run finished.
    pub fn finished(self) -> Option<InjectReport> {
        match self {
            TimedOutcome::Finished(report) => Some(report),
            TimedOutcome::TimedOut { .. } => None,
        }
    }
}

/// [`run_risc_injected`] under an optional wall-clock [`Deadline`] and an
/// optional sink for a [`Journal`](risc1_core::Journal)'s step-keyed
/// events — `inject: None` runs the pristine program. The sink is
/// caller-owned so events survive even if the caller later has to abandon
/// the run. This is [`setup_risc`] followed by [`run_risc_on`].
///
/// When the deadline does not fire, the returned report is bit-identical
/// to [`run_risc_injected`] of the same `(prog, args, cfg, inject,
/// recovery)` — the chaos test in `tests/serve_chaos.rs` holds the serve
/// stack to exactly this law.
///
/// # Errors
/// [`InjectSetupError`] when the run could not be arranged at all.
pub fn run_risc_deadline(
    prog: &Program,
    args: &[i32],
    cfg: SimConfig,
    inject: Option<InjectConfig>,
    recovery: bool,
    deadline: Option<Deadline>,
    journal_events: Option<&mut Vec<JournalEvent>>,
) -> Result<TimedOutcome, InjectSetupError> {
    let mut cpu = setup_risc(prog, args, cfg, recovery)?;
    Ok(run_risc_on(&mut cpu, inject, deadline, journal_events))
}

/// Runs a machine arranged by [`setup_risc`] to its end through the one
/// step loop every RISC I run takes: injected from `inject` when set, polling
/// `deadline` before step 0 and after every [`DEADLINE_POLL_STEPS`] steps
/// (so the check never perturbs the machine), and pushing each applied
/// event into `journal_events` as it happens. The machine is left as the
/// run ended, for callers that inspect more than its statistics.
pub fn run_risc_on(
    cpu: &mut Cpu,
    inject: Option<InjectConfig>,
    deadline: Option<Deadline>,
    journal_events: Option<&mut Vec<JournalEvent>>,
) -> TimedOutcome {
    let source = inject.map_or(Source::Clean, |c| Source::Dice(FaultInjector::new(c)));
    run_steps(cpu, Stepper::new(source, journal_events), deadline)
}

/// Runs `cpu` to its end under `stepper`, consulting `deadline` at the
/// poll points of a one-step loop: before step 0 and after every
/// [`DEADLINE_POLL_STEPS`] steps.
pub(crate) fn run_steps(
    cpu: &mut Cpu,
    mut stepper: Stepper<'_>,
    deadline: Option<Deadline>,
) -> TimedOutcome {
    let outcome = loop {
        if deadline.is_some_and(|d| d.expired()) {
            return TimedOutcome::TimedOut {
                stats: cpu.stats(),
                events: stepper.applied,
            };
        }
        match stepper.run(cpu, DEADLINE_POLL_STEPS) {
            Ok(Halt::Running) => {}
            Ok(Halt::Returned) => {
                break InjectOutcome::Halted {
                    result: cpu.result(),
                }
            }
            Err(error) => break InjectOutcome::Faulted { error },
        }
    };
    TimedOutcome::Finished(InjectReport {
        outcome,
        stats: cpu.stats(),
        events: stepper.applied,
    })
}

/// Where a run's perturbations come from.
pub(crate) enum Source<'a> {
    /// Nowhere: a clean run.
    Clean,
    /// The dice of a seeded injector.
    Dice(FaultInjector),
    /// A recorded journal's step-keyed events.
    Journal(&'a [JournalEvent]),
}

/// The one RISC I step loop, behind every run, replay and supervised
/// segment. Its definition is a loop that, before each step, applies the
/// event due at that step (if any) and then calls [`Cpu::step`] once. It
/// runs as [`Cpu::step_n`] batches instead, cut only before a step that is
/// due an event. That is exact: a batch of `n` executes the same step
/// units as `n` calls to `step`, nothing inside a batch arms a probe or
/// raises an interrupt, and an injector's die rolls read no machine state,
/// so they can be rolled ahead of the steps they belong to.
pub(crate) struct Stepper<'a> {
    source: Source<'a>,
    /// Index of the next step: steps taken since reset.
    step: u64,
    /// Journal events applied so far (the cursor into `Source::Journal`).
    next: usize,
    /// The perturbations applied so far, in order.
    pub(crate) applied: Vec<InjectEvent>,
    sink: Option<&'a mut Vec<JournalEvent>>,
}

impl<'a> Stepper<'a> {
    pub(crate) fn new(source: Source<'a>, sink: Option<&'a mut Vec<JournalEvent>>) -> Self {
        Stepper {
            source,
            step: 0,
            next: 0,
            applied: Vec::new(),
            sink,
        }
    }

    /// Takes up to `n` steps, each preceded by its event if one is due;
    /// ends early at a halt or fault, exactly as [`Cpu::step_n`] does.
    pub(crate) fn run(&mut self, cpu: &mut Cpu, n: u64) -> Result<Halt, ExecError> {
        let end = self.step + n;
        while self.step < end {
            let quiet = self.quiet_steps(end - self.step);
            let halt = cpu.step_n(quiet)?;
            self.step += quiet;
            if halt == Halt::Returned {
                return Ok(halt);
            }
            if self.step < end {
                self.fire(cpu);
                self.step += 1;
                if cpu.step_n(1)? == Halt::Returned {
                    return Ok(Halt::Returned);
                }
            }
        }
        Ok(Halt::Running)
    }

    /// How many of the next `max` steps are due no event.
    fn quiet_steps(&mut self, max: u64) -> u64 {
        match &mut self.source {
            Source::Clean => max,
            Source::Dice(injector) => injector.quiet_steps(max),
            Source::Journal(events) => events
                .get(self.next)
                .map_or(max, |ev| ev.step.saturating_sub(self.step).min(max)),
        }
    }

    /// Applies the events due before step `self.step`. A journal event
    /// whose step has already passed — only a journal built in memory can
    /// hold one, [`Journal::from_json`](risc1_core::Journal::from_json)
    /// rejects it — goes in here too, rather than never.
    fn fire(&mut self, cpu: &mut Cpu) {
        if let Source::Dice(injector) = &mut self.source {
            if let Some(kind) = injector.draw(cpu) {
                self.apply(cpu, kind);
            }
        } else if let Source::Journal(events) = self.source {
            while let Some(ev) = events.get(self.next).filter(|ev| ev.step <= self.step) {
                self.next += 1;
                self.apply(cpu, ev.kind);
            }
        }
    }

    fn apply(&mut self, cpu: &mut Cpu, kind: InjectKind) {
        kind.apply(cpu);
        let at_instruction = cpu.stats().instructions;
        self.applied.push(InjectEvent {
            at_instruction,
            kind,
        });
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.push(JournalEvent {
                step: self.step,
                at_instruction,
                kind,
            });
        }
    }
}

/// Warm start: restores `snap` into a fresh CPU and runs the remaining
/// suffix to completion (under an optional wall-clock deadline, polled the
/// same way [`run_risc_deadline`] polls). The snapshot carries the full
/// architectural statistics of its prefix, so the finished report is
/// bit-identical to a cold run of the same program and configuration —
/// while the host only executes `final − at_instruction` instructions. The
/// suffix runs on the default engine tier: a snapshot stores no tier, and
/// the tier never changes what the machine computes.
///
/// Injection is deliberately unsupported on this path: the injector's PRNG
/// schedule is keyed by absolute step index from reset, which a warm start
/// cannot reproduce.
///
/// # Errors
/// [`RestoreError`] when the snapshot fails verification (corruption,
/// version skew, or a configuration mismatch).
pub fn run_risc_resumed(
    snap: &Snapshot,
    deadline: Option<Deadline>,
) -> Result<TimedOutcome, RestoreError> {
    let mut cpu = Cpu::new(snap.config().clone());
    cpu.restore(snap)?;
    Ok(run_risc_on(&mut cpu, None, deadline, None))
}

/// Captures a checksummed snapshot of a pristine (no-injection) run after
/// exactly `steps` machine steps — the producer side of warm starts:
/// campaigns over a common prefix snapshot it once and submit the
/// remainder as [`run_risc_resumed`] jobs.
///
/// # Errors
/// [`InjectSetupError`] when the run could not be arranged;
/// `Err(InjectSetupError::Load)` never occurs from stepping itself — a
/// program that halts or faults before `steps` simply yields the snapshot
/// at that earlier point.
pub fn snapshot_risc_prefix(
    prog: &Program,
    args: &[i32],
    cfg: SimConfig,
    recovery: bool,
    steps: u64,
) -> Result<Snapshot, InjectSetupError> {
    let mut cpu = setup_risc(prog, args, cfg, recovery)?;
    // `step_n` stops where `steps` calls to `step` would: after the last
    // of them, or earlier at a halt or fault.
    let _ = cpu.step_n(steps);
    Ok(cpu.snapshot())
}

/// Arranges a CPU for a RISC I run: loads the program, sets register +
/// ARGV-mirror arguments, and (when `recovery` is set) installs the
/// per-cause recovery stubs at [`RECOVERY_STUB_BASE`]. Every entry point —
/// plain, injected, recorded, replayed, supervised, and `risc1 run` —
/// starts from the machine this builds.
///
/// # Errors
/// [`InjectSetupError`] when the image does not fit memory or more than
/// six arguments are given.
pub fn setup_risc(
    prog: &Program,
    args: &[i32],
    cfg: SimConfig,
    recovery: bool,
) -> Result<Cpu, InjectSetupError> {
    let mut cpu = Cpu::new(cfg);
    cpu.load_program(prog).map_err(InjectSetupError::Load)?;
    cpu.try_set_args(args).map_err(InjectSetupError::Args)?;
    if recovery {
        risc1_core::inject::install_recovery_handlers(&mut cpu, RECOVERY_STUB_BASE)
            .map_err(InjectSetupError::Load)?;
    }
    for (i, &a) in args.iter().enumerate() {
        let _ = cpu
            .mem
            .load_image(ARGV_BASE + 4 * i as u32, &(a as u32).to_le_bytes());
    }
    Ok(cpu)
}

/// Runs a compiled CX program with the given `main` arguments under the
/// default configuration, returning `(result, stats)`.
///
/// # Errors
/// Propagates simulator faults.
pub fn run_cx(prog: &CxProgram, args: &[i32]) -> Result<(i32, CxStats), risc1_cisc::CxError> {
    run_cx_with(prog, args, CxConfig::default())
}

/// [`run_cx`] with an explicit machine configuration.
///
/// # Errors
/// Propagates simulator faults.
pub fn run_cx_with(
    prog: &CxProgram,
    args: &[i32],
    cfg: CxConfig,
) -> Result<(i32, CxStats), risc1_cisc::CxError> {
    let mut cpu = CxCpu::new(cfg);
    cpu.load_program(prog).expect("program fits memory");
    for (i, &a) in args.iter().enumerate() {
        let _ = cpu
            .mem
            .load_image(ARGV_BASE + 4 * i as u32, &(a as u32).to_le_bytes());
    }
    cpu.run()?;
    Ok((cpu.result(), cpu.stats()))
}

/// Runs a compiled MC program with the given `main` arguments under the
/// default configuration, returning `(result, stats)`.
///
/// # Errors
/// Propagates simulator faults.
pub fn run_mc(prog: &McProgram, args: &[i32]) -> Result<(i32, McStats), risc1_m68::McError> {
    run_mc_with(prog, args, McConfig::default())
}

/// [`run_mc`] with an explicit machine configuration.
///
/// # Errors
/// Propagates simulator faults.
pub fn run_mc_with(
    prog: &McProgram,
    args: &[i32],
    cfg: McConfig,
) -> Result<(i32, McStats), risc1_m68::McError> {
    let mut cpu = McCpu::new(cfg);
    cpu.load_program(prog).expect("program fits memory");
    for (i, &a) in args.iter().enumerate() {
        let _ = cpu
            .mem
            .load_image(ARGV_BASE + 4 * i as u32, &(a as u32).to_le_bytes());
    }
    cpu.run()?;
    Ok((cpu.result(), cpu.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::dsl::*;
    use crate::interp::interpret;
    use crate::risc::{compile_risc, RiscOpts};
    use crate::{compile_cx, Module};
    use proptest::prelude::*;

    /// Compile and run a module on all four engines; assert agreement and
    /// return the value.
    fn tri_run(m: &Module, args: &[i32]) -> i32 {
        let oracle = interpret(m, args).expect("interpreter succeeds");
        let risc = compile_risc(m, RiscOpts::default()).expect("risc compiles");
        let (rv, _) = run_risc(&risc, args).expect("risc runs");
        let cx = compile_cx(m).expect("cx compiles");
        let (cv, _) = run_cx(&cx, args).expect("cx runs");
        let mc = crate::m68::compile_mc(m).expect("mc compiles");
        let (mv, _) = run_mc(&mc, args).expect("mc runs");
        assert_eq!(rv, oracle.value, "risc vs interpreter");
        assert_eq!(cv, oracle.value, "cx vs interpreter");
        assert_eq!(mv, oracle.value, "mc vs interpreter");
        oracle.value
    }

    #[test]
    fn arithmetic_module_agrees_everywhere() {
        let m = module(
            vec![function(
                "main",
                2,
                3,
                vec![
                    assign(2, add(mul(local(0), local(1)), konst(1))),
                    ret(sub(local(2), shr(local(0), konst(1)))),
                ],
            )],
            vec![],
        );
        assert_eq!(tri_run(&m, &[6, 7]), 6 * 7 + 1 - 3);
        assert_eq!(tri_run(&m, &[-5, 3]), -5 * 3 + 1 - (-3));
    }

    #[test]
    fn recursion_agrees_everywhere() {
        let fib = function(
            "fib",
            1,
            3,
            vec![
                if_then(lt(local(0), konst(2)), vec![ret(local(0))]),
                assign(1, call(1, vec![sub(local(0), konst(1))])),
                assign(2, call(1, vec![sub(local(0), konst(2))])),
                ret(add(local(1), local(2))),
            ],
        );
        let main = function(
            "main",
            1,
            2,
            vec![assign(1, call(1, vec![local(0)])), ret(local(1))],
        );
        let m = module(vec![main, fib], vec![]);
        assert_eq!(tri_run(&m, &[12]), 144);
    }

    #[test]
    fn arrays_agree_everywhere() {
        // Write i*i into a word array, xor-reduce; plus a byte array.
        let m = module(
            vec![function(
                "main",
                1,
                3,
                vec![
                    assign(1, konst(0)),
                    while_loop(
                        lt(local(1), local(0)),
                        vec![
                            storew(0, local(1), mul(local(1), local(1))),
                            storeb(1, local(1), add(local(1), konst(200))),
                            assign(1, add(local(1), konst(1))),
                        ],
                    ),
                    assign(1, konst(0)),
                    assign(2, konst(0)),
                    while_loop(
                        lt(local(1), local(0)),
                        vec![
                            assign(2, bxor(local(2), loadw(0, local(1)))),
                            assign(2, add(local(2), loadb(1, local(1)))),
                            assign(1, add(local(1), konst(1))),
                        ],
                    ),
                    ret(local(2)),
                ],
            )],
            vec![global_words("sq", 40), global_bytes("by", 40)],
        );
        tri_run(&m, &[17]);
    }

    #[test]
    fn division_agrees_everywhere() {
        let m = module(
            vec![function("main", 2, 2, vec![ret(div(local(0), local(1)))])],
            vec![],
        );
        for (a, b) in [
            (100, 7),
            (-100, 7),
            (100, -7),
            (-100, -7),
            (6, 3),
            (0, 5),
            (7, 100),
        ] {
            assert_eq!(tri_run(&m, &[a, b]), a / b, "{a}/{b}");
        }
    }

    #[test]
    fn delay_slot_filling_preserves_semantics_and_saves_cycles() {
        let m = module(
            vec![function(
                "main",
                1,
                3,
                vec![
                    assign(1, konst(0)),
                    assign(2, konst(0)),
                    while_loop(
                        lt(local(2), local(0)),
                        vec![
                            assign(1, add(local(1), local(2))),
                            assign(2, add(local(2), konst(1))),
                        ],
                    ),
                    ret(local(1)),
                ],
            )],
            vec![],
        );
        let plain = compile_risc(
            &m,
            RiscOpts {
                fill_delay_slots: false,
            },
        )
        .unwrap();
        let filled = compile_risc(
            &m,
            RiscOpts {
                fill_delay_slots: true,
            },
        )
        .unwrap();
        let (v0, s0) = run_risc(&plain, &[50]).unwrap();
        let (v1, s1) = run_risc(&filled, &[50]).unwrap();
        assert_eq!(v0, 1225);
        assert_eq!(v1, 1225);
        assert!(s1.cycles < s0.cycles, "filled slots save cycles");
        assert!(s1.delay_slot_fill_rate().unwrap() > s0.delay_slot_fill_rate().unwrap());
        assert!(filled.code_bytes() < plain.code_bytes());
    }

    #[test]
    fn out_of_registers_is_reported() {
        // A function with 9 locals leaves no temp registers at all.
        let m = module(
            vec![function(
                "main",
                0,
                9,
                vec![ret(add(add(local(0), local(1)), add(local(2), local(3))))],
            )],
            vec![],
        );
        assert!(matches!(
            compile_risc(&m, RiscOpts::default()),
            Err(CodegenError::OutOfRegisters { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random arithmetic expressions evaluate identically on the
        /// interpreter, RISC I and CX — the central differential test.
        #[test]
        fn random_expressions_agree(ops in proptest::collection::vec((0u8..7, any::<i8>()), 1..25),
                                    a in -1000i32..1000, b in -1000i32..1000) {
            // Build a straight-line program over two params and an
            // accumulator, from a random op list.
            let mut body = vec![assign(2, local(0))];
            for (op, k) in &ops {
                let rhs = if k % 2 == 0 { local(1) } else { konst(i32::from(*k)) };
                let e = match op {
                    0 => add(local(2), rhs),
                    1 => sub(local(2), rhs),
                    2 => mul(local(2), rhs),
                    3 => band(local(2), rhs),
                    4 => bor(local(2), rhs),
                    5 => bxor(local(2), rhs),
                    _ => shr(local(2), band(rhs, konst(7))),
                };
                body.push(assign(2, e));
            }
            body.push(ret(local(2)));
            let m = module(vec![function("main", 2, 3, body)], vec![]);

            let oracle = interpret(&m, &[a, b]).unwrap().value;
            let risc = compile_risc(&m, RiscOpts::default()).unwrap();
            let (rv, _) = run_risc(&risc, &[a, b]).unwrap();
            prop_assert_eq!(rv, oracle, "risc mismatch");
            let cx = compile_cx(&m).unwrap();
            let (cv, _) = run_cx(&cx, &[a, b]).unwrap();
            prop_assert_eq!(cv, oracle, "cx mismatch");
        }
    }
}
