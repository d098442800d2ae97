//! # `risc1-cli` — the `risc1` command-line tool
//!
//! ```text
//! risc1 asm <file.s>             assemble and disassemble back (listing)
//! risc1 lint <file.s> [--json]   static analysis: CFG + dataflow findings
//!   --trap-handler <sym>         declare a trap-vector entry point
//!                                (repeatable); handlers must reti
//! risc1 lint --spec-audit        cross-check every opcode fact against the
//!                                executable ISA spec table
//! risc1 run <file.s> [args…]     assemble and execute; prints result + stats
//!   --fuel N                     instruction budget (default 200M)
//!   --engine <tier>              uncached | cached | superblock |
//!                                trace (default)
//!   --trap-handlers              install recovery stubs for vectorable faults
//!   --inject <seed> [--rate N]   deterministic fault injection (N per 10000
//!                                steps; default 20)
//!   --record <trace.json>        write a replayable journal of the campaign
//!   --supervise                  checkpoint + rollback-and-retry supervisor
//!     [--ckpt-every N]           checkpoint interval in instructions
//!     [--max-retries K]          rollback attempts before the fault surfaces
//! risc1 replay <trace.json>      re-execute a recorded campaign bit for bit
//!   [--minimize [--out <path>]]  delta-debug the journal to a minimal subset
//!   [--fetch <addr> --job <id>]  pull the journal in chunks from a running
//!                                serve instance instead of a local file
//! risc1 trace <file.s> [args…]   execute with the pipeline timing diagram
//!                                of the first 64 retirements (run's flags,
//!                                but not --supervise)
//! risc1 bench <workload>         one suite workload: RISC I vs CX cycles,
//!                                CPI and code size (host-time benchmarking
//!                                lives in perfbench/)
//! risc1 serve <--tcp addr|--stdin|--smoke>
//!                                fault-tolerant batch execution service
//!                                (JSON jobs, fair-share queues, dedup)
//!   [--wal-dir <dir>]            crash-safe write-ahead job log
//!   [--recover <dir>]            replay the WAL on startup (warm restart)
//! risc1 exp <id|all>             print an experiment report (e1…e14,
//!                                ablations)
//! risc1 list                     list suite workloads and experiments
//! ```
//!
//! The library surface exists so the dispatch logic is unit-testable; the
//! binary is a thin `main` over [`dispatch`]. Every user input error comes
//! back as `Err(message)` — the binary prints it and exits nonzero, it
//! never panics.

use risc1_asm::{assemble, disassemble};
use risc1_core::cpu::RECORDER_ROWS;
use risc1_core::{Deadline, ExecEngine, InjectConfig, Journal, SimConfig, TrapKind};
use risc1_ir::{
    minimize_journal, recorded_outcome, replay_journal, run_risc_on, run_risc_supervised,
    setup_risc, InjectOutcome, SupervisorConfig, SupervisorOutcome, TimedOutcome,
};
use risc1_stats::measure_with;
use std::fmt::Write as _;

mod serve_cmd;
mod spec_audit;

/// Result of a CLI invocation: the text to print, or an error message.
pub type CliResult = Result<String, String>;

/// Dispatches a command line (without the program name).
///
/// # Errors
/// Returns a usage or execution error as a human-readable string.
pub fn dispatch(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("asm") => cmd_asm(args.get(1).ok_or(USAGE)?),
        Some("lint") if args.get(1).map(String::as_str) == Some("--spec-audit") => {
            if let Some(extra) = args.get(2) {
                return Err(format!(
                    "lint --spec-audit takes no arguments, got `{extra}`\n{USAGE}"
                ));
            }
            spec_audit::run()
        }
        Some("lint") => cmd_lint(args.get(1).ok_or(USAGE)?, &args[2..]),
        Some("run") => cmd_run(args.get(1).ok_or(USAGE)?, &args[2..], false),
        Some("replay") => cmd_replay(&args[1..]),
        Some("trace") => cmd_run(args.get(1).ok_or(USAGE)?, &args[2..], true),
        Some("bench") => cmd_bench(&args[1..]),
        Some("serve") => serve_cmd::run(&args[1..]),
        Some("exp") => cmd_exp(args.get(1).ok_or(USAGE)?),
        Some("list") => Ok(listing()),
        _ => Err(USAGE.to_string()),
    }
}

/// The usage banner.
pub const USAGE: &str = "usage: risc1 <asm|lint|run|trace|bench|exp|list> …
  risc1 asm <file.s>            assemble + listing
  risc1 lint <file.s> [--json] [--windows N]
                                static analysis (CFG + dataflow); exits
                                nonzero on error-severity findings
       [--trap-handler <sym>]   declare a trap-vector entry point (symbol
                                or byte offset; repeatable) - its body is
                                live code and must return with reti
  risc1 lint --spec-audit       audit the executable ISA spec table against
                                the opcode metadata, codec, assembler and
                                prepared lines over all 128 opcode points;
                                exits nonzero on any divergence
  risc1 run <file.s> [args…]    execute (args are main's integer arguments)
       [--fuel N]               instruction budget (default 200M)
       [--timeout-ms N]         wall-clock budget; polled between steps,
                                so it never perturbs the machine
       [--engine <tier>]        interpreter tier: uncached (one step at a
                                time) | superblock (blocks, run whole) |
                                trace (default, fastest: blocks and
                                hot-loop traces) | cached (runs as
                                superblock) — all tiers are
                                architecturally bit-identical
       [--trap-handlers]        install recovery stubs: vectorable faults
                                enter handlers instead of ending the run
       [--inject <seed>]        deterministic fault injection from <seed>
       [--rate N]               injection rate per 10000 steps (default 20)
       [--record <trace.json>]  write a replayable journal of the campaign
                                (requires --inject)
       [--supervise]            supervised run: incremental checkpoints +
                                rollback-and-retry on structured faults
       [--ckpt-every N]         checkpoint interval in instructions
       [--max-retries K]        rollback attempts before the fault surfaces
  risc1 replay <trace.json>     re-execute a recorded campaign bit for bit
       [--minimize]             delta-debug to a minimal failing event set
       [--out <path>]           write the minimized journal here
       [--fetch <addr>]         pull the journal from a running serve
                                instance over TCP (sequence-numbered
                                chunks) instead of reading a local file
       [--job <id>]             the service job id to fetch (with --fetch)
  risc1 trace <file.s> [args…]  execute with a pipeline diagram of the
                                first 64 retirements (takes run's flags
                                except --supervise)
  risc1 bench <workload-id>     run one suite workload on RISC I and CX:
                                instructions, cycles, CPI, speedup and
                                code size (simulated; reads no clock)
  risc1 serve --tcp <addr>      batch execution service: newline-delimited
                                JSON jobs over TCP (fair-share queuing,
                                dedup, watchdogs, crash-only workers)
  risc1 serve --stdin           same protocol over stdin/stdout
  risc1 serve --smoke           self-test: start a real TCP server, run a
                                mixed 3-job campaign through sockets and
                                assert bit-identity with direct execution
       [--threads N]            worker threads (default: parallelism)
       [--queue-cap N]          per-client queue bound (default 64)
       [--cache-cap N]          finished jobs retained for poll and dedup
                                (default 256)
       [--artifact-dir <dir>]   panic-journal funnel (default
                                target/replay-artifacts)
       [--wal-dir <dir>]        append every admission and completion to a
                                crash-safe write-ahead log in <dir>
       [--recover <dir>]        replay the WAL in <dir> on startup:
                                completed results re-seed the job table,
                                incomplete jobs re-enqueue (implies
                                --wal-dir <dir>)
  risc1 exp <e1…e14|ablations|all>
                                print an experiment report
  risc1 list                    available workloads and experiments

  RISC1_THREADS=<n> pins the worker count for parallel experiment
  campaigns (e13, e14) and serve workers (default: available parallelism)";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Vec<i32>, String> {
    args.iter()
        .map(|a| {
            a.parse::<i32>()
                .map_err(|e| format!("bad argument `{a}`: {e}"))
        })
        .collect()
}

fn cmd_asm(path: &str) -> CliResult {
    let src = read(path)?;
    let prog = assemble(&src).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; {} instructions, {} bytes",
        prog.len(),
        prog.code_bytes()
    );
    out.push_str(&disassemble(&prog));
    Ok(out)
}

fn cmd_lint(path: &str, rest: &[String]) -> CliResult {
    let mut json = false;
    let mut config = risc1_lint::LintConfig::default();
    let mut handlers: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => json = true,
            "--windows" => {
                let n = it.next().ok_or("--windows needs a value")?;
                config.windows = n
                    .parse()
                    .map_err(|e| format!("bad --windows value `{n}`: {e}"))?;
            }
            "--trap-handler" => {
                let v = it
                    .next()
                    .ok_or("--trap-handler needs a symbol or byte offset")?;
                handlers.push(v.clone());
            }
            other => return Err(format!("unknown lint flag `{other}`\n{USAGE}")),
        }
    }
    let src = read(path)?;
    let prog = assemble(&src).map_err(|e| e.to_string())?;
    for h in &handlers {
        let off = match prog.symbols.get(h.as_str()) {
            Some(&o) => o,
            None => h.parse::<u32>().map_err(|_| {
                format!("--trap-handler `{h}`: neither a symbol in this program nor a byte offset")
            })?,
        };
        config.trap_handlers.push(off);
    }
    let diags = risc1_lint::lint_program(&prog, &config);
    let rendered = if json {
        risc1_lint::render_json(&diags)
    } else {
        risc1_lint::render_text(&diags)
    };
    if risc1_lint::has_errors(&diags) {
        Err(rendered)
    } else {
        Ok(rendered)
    }
}

/// Options accepted by `run`/`trace` after the file name.
struct RunOpts {
    args: Vec<i32>,
    inject_seed: Option<u64>,
    rate: Option<u32>,
    trap_handlers: bool,
    record: Option<String>,
    supervise: bool,
    ckpt_every: Option<u64>,
    max_retries: Option<u32>,
    fuel: Option<u64>,
    timeout_ms: Option<u64>,
    engine: Option<ExecEngine>,
}

fn parse_run_opts(rest: &[String]) -> Result<RunOpts, String> {
    let mut plain: Vec<String> = Vec::new();
    let mut inject_seed = None;
    let mut rate = None;
    let mut trap_handlers = false;
    let mut record = None;
    let mut supervise = false;
    let mut ckpt_every = None;
    let mut max_retries = None;
    let mut fuel = None;
    let mut timeout_ms = None;
    let mut engine = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trap-handlers" => trap_handlers = true,
            "--supervise" => supervise = true,
            "--inject" => {
                let v = it.next().ok_or("--inject needs a seed")?;
                inject_seed = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("bad --inject seed `{v}`: {e}"))?,
                );
            }
            "--rate" => {
                let v = it.next().ok_or("--rate needs a value")?;
                rate = Some(
                    v.parse::<u32>()
                        .map_err(|e| format!("bad --rate value `{v}`: {e}"))?,
                );
            }
            "--record" => {
                let v = it.next().ok_or("--record needs a file path")?;
                record = Some(v.clone());
            }
            "--ckpt-every" => {
                let v = it.next().ok_or("--ckpt-every needs a value")?;
                ckpt_every = Some(match v.parse::<u64>() {
                    Ok(0) => {
                        // Every instruction a checkpoint, in one-step
                        // segments: never what anyone means.
                        return Err(format!("bad --ckpt-every value `{v}`: must be at least 1"));
                    }
                    Ok(n) => n,
                    Err(e) => return Err(format!("bad --ckpt-every value `{v}`: {e}")),
                });
            }
            "--max-retries" => {
                let v = it.next().ok_or("--max-retries needs a value")?;
                max_retries = Some(
                    v.parse::<u32>()
                        .map_err(|e| format!("bad --max-retries value `{v}`: {e}"))?,
                );
            }
            "--fuel" => {
                let v = it.next().ok_or("--fuel needs a value")?;
                fuel = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("bad --fuel value `{v}`: {e}"))?,
                );
            }
            "--timeout-ms" => {
                let v = it.next().ok_or("--timeout-ms needs a value")?;
                timeout_ms = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("bad --timeout-ms value `{v}`: {e}"))?,
                );
            }
            "--engine" => {
                let v = it.next().ok_or("--engine needs a tier name")?;
                engine = Some(parse_engine(v)?);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown run flag `{other}`\n{USAGE}"))
            }
            other => plain.push(other.to_string()),
        }
    }
    if rate.is_some() && inject_seed.is_none() {
        return Err("--rate only makes sense with --inject".to_string());
    }
    if record.is_some() && inject_seed.is_none() {
        return Err("--record only makes sense with --inject".to_string());
    }
    if record.is_some() && supervise {
        return Err("--record and --supervise are mutually exclusive \
                    (journals record a single attempt)"
            .to_string());
    }
    if (ckpt_every.is_some() || max_retries.is_some()) && !supervise {
        return Err("--ckpt-every/--max-retries only make sense with --supervise".to_string());
    }
    if timeout_ms.is_some() && record.is_some() {
        return Err("--timeout-ms and --record are mutually exclusive \
                    (journals record a complete campaign)"
            .to_string());
    }
    Ok(RunOpts {
        args: parse_args(&plain)?,
        inject_seed,
        rate,
        trap_handlers,
        record,
        supervise,
        ckpt_every,
        max_retries,
        fuel,
        timeout_ms,
        engine,
    })
}

fn parse_engine(v: &str) -> Result<ExecEngine, String> {
    ExecEngine::from_name(v)
        .ok_or_else(|| format!("bad --engine `{v}` (uncached | cached | superblock | trace)"))
}

fn cmd_run(path: &str, rest: &[String], trace: bool) -> CliResult {
    let src = read(path)?;
    let prog = assemble(&src).map_err(|e| e.to_string())?;
    let opts = parse_run_opts(rest)?;
    if trace && opts.supervise {
        return Err("trace does not take --supervise (the diagram follows one \
                    unsupervised run)"
            .to_string());
    }
    let mut cfg = SimConfig::default();
    if let Some(fuel) = opts.fuel {
        cfg.fuel = fuel;
    }
    if let Some(engine) = opts.engine {
        cfg.engine = engine;
    }
    let recovery = opts.trap_handlers || opts.inject_seed.is_some();
    let inject = opts.inject_seed.map(|seed| {
        let mut icfg = InjectConfig::with_seed(seed);
        icfg.rate = opts.rate.unwrap_or(icfg.rate);
        icfg
    });
    if opts.supervise {
        return cmd_run_supervised(&prog, &opts, cfg, inject, recovery);
    }
    let mut cpu =
        setup_risc(&prog, &opts.args, cfg.clone(), recovery).map_err(|e| e.to_string())?;
    if trace {
        cpu.record_retired();
    }
    let deadline = opts.timeout_ms.map(Deadline::after_ms);
    let mut recorded = Vec::new();
    let sink = opts.record.is_some().then_some(&mut recorded);
    let (stats, events, outcome) = match run_risc_on(&mut cpu, inject, deadline, sink) {
        TimedOutcome::Finished(report) => {
            if let Some(record) = &opts.record {
                let journal = Journal {
                    events: recorded,
                    outcome: Some(recorded_outcome(&report)),
                    ..Journal::new(&prog, &opts.args, cfg, inject, recovery)
                };
                std::fs::write(record, journal.to_json()).map_err(|e| format!("{record}: {e}"))?;
            }
            (report.stats, report.events, Some(report.outcome))
        }
        TimedOutcome::TimedOut { stats, events } => (stats, events, None),
    };
    let mut out = String::new();
    if let Some(icfg) = inject {
        let (seed, rate, n) = (icfg.seed, icfg.rate, events.len());
        let _ = match &opts.record {
            Some(record) => writeln!(
                out,
                "recorded {n} event(s) (seed {seed}, rate {rate}/10000) to {record}"
            ),
            None => writeln!(out, "injected {n} faults (seed {seed}, rate {rate}/10000)"),
        };
        for ev in &events {
            let _ = writeln!(out, "  {ev}");
        }
    }
    match outcome {
        None => {
            let _ = writeln!(out, "{stats}");
            return Err(format!(
                "{out}timeout: wall-clock budget ({} ms) expired",
                opts.timeout_ms.unwrap_or(0)
            ));
        }
        Some(InjectOutcome::Faulted { error }) if inject.is_some() => {
            let _ = writeln!(out, "{stats}");
            return Err(format!("{out}fault: {error}"));
        }
        Some(InjectOutcome::Faulted { error }) => return Err(error.to_string()),
        Some(InjectOutcome::Halted { result }) => {
            let _ = writeln!(out, "result: {result}");
            let _ = writeln!(out, "{stats}");
        }
    }
    if trace {
        let _ = writeln!(
            out,
            "\n{}",
            risc1_core::pipeline::render_timing(cpu.retired(), RECORDER_ROWS)
        );
    }
    Ok(out)
}

/// `run --supervise`: execute under the checkpoint + rollback-and-retry
/// supervisor and render its report.
fn cmd_run_supervised(
    prog: &risc1_core::Program,
    opts: &RunOpts,
    cfg: SimConfig,
    inject: Option<InjectConfig>,
    recovery: bool,
) -> CliResult {
    let mut sup = SupervisorConfig::default();
    if let Some(n) = opts.ckpt_every {
        sup.ckpt_every = n;
    }
    if let Some(k) = opts.max_retries {
        sup.max_retries = k;
    }
    sup.deadline = opts.timeout_ms.map(Deadline::after_ms);
    let report = run_risc_supervised(prog, &opts.args, cfg, inject, recovery, sup)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "supervised run: {} attempt(s), {} rollback(s), {} instruction(s) discarded",
        report.attempts, report.rollbacks, report.lost_instructions
    );
    let c = report.checkpoints;
    let _ = writeln!(
        out,
        "checkpoints: {} taken, {} page(s) / {} byte(s) copied, \
         {} modeled cycle(s) ({:.2}% overhead)",
        c.checkpoints,
        c.pages_copied,
        c.bytes_copied,
        c.modeled_cycles,
        report.checkpoint_overhead() * 100.0
    );
    if !report.events.is_empty() {
        let _ = writeln!(
            out,
            "injected {} fault(s) across attempts",
            report.events.len()
        );
        for ev in &report.events {
            let _ = writeln!(out, "  {ev}");
        }
    }
    match report.outcome {
        SupervisorOutcome::Halted { result } => {
            let _ = writeln!(out, "result: {result}");
            let _ = writeln!(out, "{}", report.stats);
            Ok(out)
        }
        SupervisorOutcome::Faulted { error } => {
            let _ = writeln!(out, "{}", report.stats);
            Err(format!("{out}fault (retries exhausted): {error}"))
        }
        SupervisorOutcome::WatchdogExpired => {
            let _ = writeln!(out, "{}", report.stats);
            Err(format!("{out}watchdog budget expired"))
        }
        SupervisorOutcome::DeadlineExceeded => {
            let _ = writeln!(out, "{}", report.stats);
            Err(format!("{out}timeout: wall-clock budget expired"))
        }
    }
}

/// `replay <trace.json>` / `replay --fetch <addr> --job <id>`: re-execute
/// a recorded campaign bit for bit — from a local journal file or from a
/// running serve instance's chunked journal stream — optionally
/// delta-debugging it down to a minimal failing event set.
fn cmd_replay(rest: &[String]) -> CliResult {
    let mut minimize = false;
    let mut out_path: Option<String> = None;
    let mut fetch: Option<String> = None;
    let mut job: Option<u64> = None;
    let mut path: Option<String> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--minimize" => minimize = true,
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                out_path = Some(v.clone());
            }
            "--fetch" => {
                let v = it.next().ok_or("--fetch needs an address (host:port)")?;
                fetch = Some(v.clone());
            }
            "--job" => {
                let v = it.next().ok_or("--job needs a job id")?;
                job = Some(
                    v.parse::<u64>()
                        .map_err(|e| format!("bad --job id `{v}`: {e}"))?,
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown replay flag `{other}`\n{USAGE}"))
            }
            other => {
                if path.replace(other.to_string()).is_some() {
                    return Err(format!("replay takes one journal file\n{USAGE}"));
                }
            }
        }
    }
    if out_path.is_some() && !minimize {
        return Err("--out only makes sense with --minimize".to_string());
    }
    if job.is_some() && fetch.is_none() {
        return Err("--job only makes sense with --fetch".to_string());
    }
    let (text, origin) = match (fetch, path) {
        (Some(addr), None) => {
            let id = job.ok_or("--fetch needs --job <id>")?;
            (fetch_journal(&addr, id)?.0, format!("{addr} job {id}"))
        }
        (None, Some(p)) => (read(&p)?, p),
        (Some(_), Some(_)) => {
            return Err("give either a journal file or --fetch, not both".to_string())
        }
        (None, None) => return Err(format!("replay needs a journal file or --fetch\n{USAGE}")),
    };
    let journal = Journal::from_json(&text).map_err(|e| format!("{origin}: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "journal: {} event(s), seed {}, rate {}/10000, recovery {}",
        journal.events.len(),
        journal.seed,
        journal.rate,
        if journal.recovery { "on" } else { "off" }
    );
    let report = replay_journal(&journal).map_err(|e| e.to_string())?;
    let replayed = recorded_outcome(&report);
    let _ = writeln!(out, "replayed outcome: {}", replayed.signature);
    let _ = writeln!(out, "instructions: {}", replayed.instructions);
    let counts: Vec<String> = TrapKind::ALL
        .iter()
        .map(|k| format!("{}={}", k.name(), replayed.trap_counts[k.index()]))
        .collect();
    let _ = writeln!(out, "trap counts: {}", counts.join(" "));
    if let Some(recorded) = &journal.outcome {
        if *recorded != replayed {
            let _ = writeln!(out, "recorded outcome: {}", recorded.signature);
            let _ = writeln!(out, "recorded instructions: {}", recorded.instructions);
            return Err(format!("{out}replay DIVERGED from the recording"));
        }
        let _ = writeln!(out, "replay matches the recording bit for bit");
    }
    if minimize {
        let minimized = minimize_journal(&journal).map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "minimized: {} event(s) -> {} event(s), same signature",
            journal.events.len(),
            minimized.events.len()
        );
        for ev in &minimized.events {
            let _ = writeln!(out, "  {ev}");
        }
        if let Some(p) = out_path {
            std::fs::write(&p, minimized.to_json()).map_err(|e| format!("{p}: {e}"))?;
            let _ = writeln!(out, "wrote minimized journal to {p}");
        }
    }
    Ok(out)
}

/// Pulls job `id`'s replay journal from a serve instance at `addr`, one
/// bounded sequence-numbered chunk per request, and reassembles the text.
/// Returns the text and the number of chunks it came in.
fn fetch_journal(addr: &str, id: u64) -> Result<(String, u64), String> {
    use risc1_core::json::{get, Parser};
    use std::io::{BufRead, BufReader, Write};
    let mut tx = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rx = BufReader::new(tx.try_clone().map_err(|e| e.to_string())?);
    let mut text = String::new();
    let mut seq = 0u64;
    loop {
        let req = format!("{{\"op\":\"journal\",\"id\":{id},\"seq\":{seq}}}\n");
        tx.write_all(req.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        rx.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
        let v = Parser::new(line.trim_end())
            .parse_document()
            .map_err(|e| format!("chunk {seq} is not valid JSON: {e}"))?;
        let obj = v.as_obj("journal chunk").map_err(|e| e.to_string())?;
        if get(obj, "ok").and_then(|o| o.as_bool("ok")) != Ok(true) {
            return Err(format!(
                "server refused journal chunk {seq}: {}",
                line.trim_end()
            ));
        }
        text.push_str(
            get(obj, "data")
                .and_then(|d| d.as_str("data"))
                .map_err(|e| e.to_string())?,
        );
        if get(obj, "last").and_then(|l| l.as_bool("last")) == Ok(true) {
            return Ok((text, seq + 1));
        }
        seq += 1;
    }
}

fn cmd_bench(args: &[String]) -> CliResult {
    let (id, rest) = match args {
        [id, rest @ ..] if !id.starts_with("--") => (id, rest),
        _ => {
            return Err(format!(
                "bench needs a workload id: risc1 bench <workload-id>\n{USAGE}"
            ))
        }
    };
    if let Some(flag) = rest.first() {
        return Err(format!("unknown bench flag `{flag}`\n{USAGE}"));
    }
    let w = risc1_workloads::by_id(id)
        .ok_or_else(|| format!("unknown workload `{id}` (try `risc1 list`)"))?;
    let m = measure_with(&w, &w.args.clone(), SimConfig::default());
    let mut out = String::new();
    let _ = writeln!(out, "{}: {}", w.id, w.description);
    let _ = writeln!(out, "result        {}", m.result);
    let _ = writeln!(
        out,
        "RISC I        {} instructions, {} cycles (cpi {:.2})",
        m.risc.instructions,
        m.risc.cycles,
        m.risc.cpi()
    );
    let _ = writeln!(
        out,
        "CX            {} instructions, {} cycles (cpi {:.2})",
        m.cx.instructions,
        m.cx.cycles,
        m.cx.cpi()
    );
    let _ = writeln!(
        out,
        "speedup       {:.2}x  (CX cycles / RISC I cycles)",
        m.speedup()
    );
    let _ = writeln!(
        out,
        "code size     RISC I {} B vs CX {} B ({:.2}x)",
        m.risc_code_bytes,
        m.cx_code_bytes,
        m.code_ratio()
    );
    Ok(out)
}

fn cmd_exp(id: &str) -> CliResult {
    if id == "all" {
        return Ok(risc1_experiments::run_all());
    }
    risc1_experiments::EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, run)| run())
        .ok_or_else(|| format!("unknown experiment `{id}` ({})", experiment_ids()))
}

/// The ids `risc1 exp` takes, in report order.
fn experiment_ids() -> String {
    let mut ids: Vec<&str> = risc1_experiments::EXPERIMENTS
        .iter()
        .map(|(name, _)| *name)
        .collect();
    ids.push("all");
    ids.join(", ")
}

fn listing() -> String {
    let mut out = String::from("workloads:\n");
    for w in risc1_workloads::all() {
        let _ = writeln!(out, "  {:16} {}", w.id, w.description);
    }
    let _ = writeln!(
        out,
        "\nexperiments: {} (see DESIGN.md §3)",
        experiment_ids()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn usage_on_empty_or_unknown() {
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn list_shows_workloads() {
        let out = dispatch(&s(&["list"])).unwrap();
        assert!(out.contains("acker") && out.contains("sieve"));
        assert!(out.contains("experiments: e1, e2, "), "{out}");
        assert!(out.contains("e14, ablations, all"), "{out}");
    }

    #[test]
    fn spec_audit_passes_on_the_tree() {
        let out = dispatch(&s(&["lint", "--spec-audit"])).unwrap();
        assert!(out.contains("spec-audit: ok"), "{out}");
    }

    #[test]
    fn spec_audit_rejects_stray_arguments() {
        let err = dispatch(&s(&["lint", "--spec-audit", "foo.s"])).unwrap_err();
        assert!(err.contains("takes no arguments"), "{err}");
    }

    #[test]
    fn exp_rejects_unknown_id() {
        let err = dispatch(&s(&["exp", "e99"])).unwrap_err();
        assert!(err.contains("e14, ablations, all"), "{err}");
        assert!(dispatch(&s(&["exp", "e2"])).unwrap().contains("ldhi"));
    }

    #[test]
    fn bench_runs_a_small_workload() {
        let out = dispatch(&s(&["bench", "fib"])).unwrap();
        assert!(out.contains("speedup"));
        assert!(dispatch(&s(&["bench", "zzz"])).is_err());
        assert!(dispatch(&s(&["bench", "fib", "--quick"])).is_err());
        // Without an id there is nothing to run: host-time benchmarking
        // lives in perfbench, not here.
        for argv in [&["bench"][..], &["bench", "--quick"]] {
            let err = dispatch(&s(argv)).unwrap_err();
            assert!(err.contains("bench <workload-id>"), "{err}");
        }
    }

    #[test]
    fn asm_and_run_roundtrip_through_a_temp_file() {
        let dir = std::env::temp_dir().join("risc1_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.s");
        std::fs::write(&path, "add r16, r26, #2\nadd r26, r16, #0\nhalt\nnop\n").unwrap();
        let p = path.to_str().unwrap();
        let asm = dispatch(&s(&["asm", p])).unwrap();
        assert!(asm.contains("add r16, r26, #2"));
        let run = dispatch(&s(&["run", p, "40"])).unwrap();
        assert!(run.contains("result: 42"), "{run}");
        // The engine tier is a pure speed knob — architectural output is
        // identical (only the superblock/trace telemetry lines may appear).
        let arch = |t: &str| {
            t.lines()
                .filter(|l| !l.starts_with("superblocks") && !l.starts_with("traces"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for engine in ["uncached", "cached", "superblock", "trace"] {
            let tier = dispatch(&s(&["run", p, "40", "--engine", engine])).unwrap();
            assert_eq!(arch(&run), arch(&tier), "--engine {engine}");
        }
        assert!(dispatch(&s(&["run", p, "40", "--engine", "warp"])).is_err());
        assert!(dispatch(&s(&["run", p, "40", "--engine"])).is_err());
        let trace = dispatch(&s(&["trace", p, "40", "--engine", "cached"])).unwrap();
        assert!(trace.contains('E'));
        // A supervised run draws no diagram, so `trace` refuses the flag.
        let err = dispatch(&s(&["trace", p, "40", "--supervise"])).unwrap_err();
        assert!(err.contains("--supervise"), "{err}");
        let bad = dispatch(&s(&["run", p, "x"]));
        assert!(bad.is_err());
    }

    fn write_temp(name: &str, src: &str) -> String {
        let dir = std::env::temp_dir().join("risc1_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn lint_trap_handler_flag_declares_a_root() {
        let p = write_temp(
            "h.s",
            ".entry main
            handler:
                add  r2, r24, #0
                ret  r25, #0
                nop
            main:
                halt
                nop
            ",
        );
        // Without the flag the handler is just dead code; with it, the
        // body is live and the missing reti is a warning (exit code 0).
        let bare = dispatch(&s(&["lint", &p])).unwrap();
        assert!(!bare.contains("trap-handler-missing-reti"), "{bare}");
        let flagged = dispatch(&s(&["lint", &p, "--trap-handler", "handler"])).unwrap();
        assert!(flagged.contains("trap-handler-missing-reti"), "{flagged}");
        assert!(!flagged.contains("unreachable-code"), "{flagged}");
        let unknown = dispatch(&s(&["lint", &p, "--trap-handler", "nosuch"]));
        assert!(unknown.unwrap_err().contains("nosuch"));
    }

    #[test]
    fn record_replay_and_minimize_round_trip_through_files() {
        let p = write_temp("rec.s", "add r16, r26, #2\nadd r26, r16, #0\nhalt\nnop\n");
        let trace = write_temp("rec_trace.json", "");
        // Record a campaign (rate high enough to apply something).
        let rec = dispatch(&s(&[
            "run", &p, "40", "--inject", "9", "--rate", "4000", "--record", &trace,
        ]));
        let text = match &rec {
            Ok(t) => t.clone(),
            Err(t) => t.clone(),
        };
        assert!(text.contains("recorded"), "{text}");
        // Replay must match the recording exactly, whatever the outcome.
        let rep = dispatch(&s(&["replay", &trace])).unwrap();
        assert!(rep.contains("replay matches the recording"), "{rep}");
        // Minimize and write the result; the minimized journal replays too.
        let min_path = write_temp("rec_trace.min.json", "");
        let min = dispatch(&s(&["replay", &trace, "--minimize", "--out", &min_path])).unwrap();
        assert!(min.contains("minimized:"), "{min}");
        let again = dispatch(&s(&["replay", &min_path])).unwrap();
        assert!(again.contains("replay matches the recording"), "{again}");
        // Flag validation.
        assert!(dispatch(&s(&["replay", &trace, "--out", "x"])).is_err());
        assert!(dispatch(&s(&["run", &p, "40", "--record", &trace])).is_err());
        assert_eq!(
            dispatch(&s(&[
                "run",
                &p,
                "40",
                "--inject",
                "9",
                "--record",
                &trace,
                "--timeout-ms",
                "5",
            ])),
            Err(
                "--timeout-ms and --record are mutually exclusive (journals record a complete campaign)"
                    .to_string()
            )
        );
        assert!(dispatch(&s(&["replay", "/nonexistent.json"])).is_err());
    }

    #[test]
    fn supervised_run_reports_checkpoints() {
        let p = write_temp("sup.s", "add r16, r26, #2\nadd r26, r16, #0\nhalt\nnop\n");
        let out = dispatch(&s(&[
            "run",
            &p,
            "40",
            "--supervise",
            "--ckpt-every",
            "2",
            "--max-retries",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("supervised run"), "{out}");
        assert!(out.contains("result: 42"), "{out}");
        // A zero interval would checkpoint after every instruction.
        assert_eq!(
            dispatch(&s(&["run", &p, "40", "--supervise", "--ckpt-every", "0"])),
            Err("bad --ckpt-every value `0`: must be at least 1".to_string())
        );
        // Supervisor flags require --supervise; --record conflicts.
        assert!(dispatch(&s(&["run", &p, "40", "--ckpt-every", "5"])).is_err());
        assert!(dispatch(&s(&[
            "run",
            &p,
            "40",
            "--inject",
            "1",
            "--record",
            "t.json",
            "--supervise",
        ]))
        .is_err());
    }

    #[test]
    fn every_run_mode_builds_the_same_machine() {
        // Reads the argument mirror at ARGV_BASE (0x7000 = 4 << 13, less
        // 4096), which every entry point must write.
        let p = write_temp("argv.s", "ldhi r16, #4\nldl r26, r16, #-4096\nhalt\nnop\n");
        let journal = write_temp("argv.json", "");
        let modes: [&[&str]; 5] = [
            &[],
            &["--inject", "1", "--rate", "0"],
            &["--timeout-ms", "60000"],
            &["--supervise"],
            &["--inject", "1", "--rate", "0", "--record", &journal],
        ];
        for extra in modes {
            let mut argv = vec!["run", &p, "5"];
            argv.extend(extra);
            let out = dispatch(&s(&argv)).unwrap();
            assert!(out.contains("result: 5"), "{argv:?}: {out}");
        }
        let replayed = dispatch(&s(&["replay", &journal])).unwrap();
        assert!(replayed.contains("replayed outcome: halt 5"), "{replayed}");
    }

    #[test]
    fn run_injection_flags_are_deterministic_and_validated() {
        let p = write_temp("inj.s", "add r16, r26, #2\nadd r26, r16, #0\nhalt\nnop\n");
        let a = dispatch(&s(&["run", &p, "40", "--inject", "7", "--rate", "5000"]));
        let b = dispatch(&s(&["run", &p, "40", "--inject", "7", "--rate", "5000"]));
        assert_eq!(a, b, "identical seed must reproduce the run verbatim");
        let text = match &a {
            Ok(t) => t.clone(),
            Err(t) => t.clone(),
        };
        assert!(text.contains("injected"), "{text}");
        assert!(dispatch(&s(&["run", &p, "40", "--rate", "5"])).is_err());
        assert!(dispatch(&s(&["run", &p, "40", "--inject", "x"])).is_err());
        let handled = dispatch(&s(&["run", &p, "40", "--trap-handlers"])).unwrap();
        assert!(handled.contains("result: 42"), "{handled}");
    }
}
