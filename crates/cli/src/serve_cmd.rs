//! `risc1 serve`: the fault-tolerant batch execution service, over TCP or
//! stdin/stdout, plus the `--smoke` self-test CI gates on.

use risc1_core::json::{get, Json, Parser};
use risc1_core::{InjectConfig, Journal, SimConfig};
use risc1_ir::{
    compile_risc, recorded_outcome, replay_journal, run_risc, run_risc_deadline, run_risc_injected,
    snapshot_risc_prefix, RiscOpts, TimedOutcome,
};
use risc1_serve::{serve_lines, serve_tcp, wire, ExecService, JobOutput, ServiceConfig};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};

type CliResult = Result<String, String>;

struct ServeOpts {
    mode: Mode,
    threads: Option<usize>,
    queue_cap: Option<usize>,
    cache_cap: Option<usize>,
    artifact_dir: Option<String>,
    wal_dir: Option<String>,
    recover: bool,
}

enum Mode {
    Tcp(String),
    Stdin,
    Smoke,
}

fn parse_opts(rest: &[String]) -> Result<ServeOpts, String> {
    let mut mode = None;
    let mut threads = None;
    let mut queue_cap = None;
    let mut cache_cap = None;
    let mut artifact_dir = None;
    let mut wal_dir = None;
    let mut recover = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tcp" => {
                let v = it.next().ok_or("--tcp needs an address (host:port)")?;
                mode = Some(Mode::Tcp(v.clone()));
            }
            "--stdin" => mode = Some(Mode::Stdin),
            "--smoke" => mode = Some(Mode::Smoke),
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                threads = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("bad --threads value `{v}`: {e}"))?,
                );
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                queue_cap = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("bad --queue-cap value `{v}`: {e}"))?,
                );
            }
            "--cache-cap" => {
                let v = it.next().ok_or("--cache-cap needs a value")?;
                cache_cap = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("bad --cache-cap value `{v}`: {e}"))?,
                );
            }
            "--artifact-dir" => {
                let v = it.next().ok_or("--artifact-dir needs a path")?;
                artifact_dir = Some(v.clone());
            }
            "--wal-dir" => {
                let v = it.next().ok_or("--wal-dir needs a path")?;
                wal_dir = Some(v.clone());
            }
            "--recover" => {
                let v = it.next().ok_or("--recover needs the WAL directory")?;
                wal_dir = Some(v.clone());
                recover = true;
            }
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    Ok(ServeOpts {
        mode: mode.ok_or("serve needs a mode: --tcp <addr> | --stdin | --smoke")?,
        threads,
        queue_cap,
        cache_cap,
        artifact_dir,
        wal_dir,
        recover,
    })
}

fn service_config(opts: &ServeOpts) -> ServiceConfig {
    let mut cfg = ServiceConfig::default();
    if let Some(t) = opts.threads {
        cfg.threads = t.max(1);
    }
    if let Some(q) = opts.queue_cap {
        cfg.queue_cap = q.max(1);
    }
    if let Some(c) = opts.cache_cap {
        cfg.cache_cap = c.max(1);
    }
    if let Some(d) = &opts.artifact_dir {
        cfg.artifact_dir = d.clone();
    }
    cfg.wal_dir = opts.wal_dir.clone();
    cfg.recover = opts.recover;
    cfg
}

/// `risc1 serve --tcp <addr> | --stdin | --smoke [tuning flags]
///  [--wal-dir <dir>] [--recover <dir>]`.
///
/// # Errors
/// Flag errors, bind failures, or (in smoke mode) any transcript check
/// that fails.
pub fn run(rest: &[String]) -> CliResult {
    let opts = parse_opts(rest)?;
    let cfg = service_config(&opts);
    match &opts.mode {
        Mode::Tcp(addr) => {
            let listener =
                TcpListener::bind(addr.as_str()).map_err(|e| format!("bind {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            // Announce the bound address immediately (port 0 resolves here)
            // so scripted clients can connect before the server returns.
            eprintln!("serving on {local}");
            let service = ExecService::start(cfg);
            serve_tcp(&service, listener).map_err(|e| format!("serve: {e}"))?;
            Ok(format!("serve: clean shutdown ({local})\n"))
        }
        Mode::Stdin => {
            let service = ExecService::start(cfg);
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let shut = serve_lines(&service, stdin.lock(), stdout.lock())
                .map_err(|e| format!("serve: {e}"))?;
            if !shut {
                service.shutdown();
            }
            Ok("serve: clean shutdown (stdin)\n".to_owned())
        }
        Mode::Smoke => smoke(cfg),
    }
}

/// One request/response exchange over the smoke connection, appended to
/// the transcript.
fn exchange(
    out: &mut String,
    tx: &mut TcpStream,
    rx: &mut BufReader<TcpStream>,
    request: &str,
) -> Result<Json, String> {
    // One write per frame: a newline sent on its own would wait out the
    // server's delayed ACK under Nagle's algorithm.
    let mut frame = Vec::with_capacity(request.len() + 1);
    frame.extend_from_slice(request.as_bytes());
    frame.push(b'\n');
    tx.write_all(&frame).map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    rx.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
    let _ = writeln!(out, "> {request}");
    let _ = writeln!(out, "< {}", line.trim_end());
    Parser::new(line.trim_end())
        .parse_document()
        .map_err(|e| format!("response is not valid JSON: {e}"))
}

fn job_ids(response: &Json) -> Result<Vec<(u64, u64, bool)>, String> {
    let obj = response.as_obj("response").map_err(|e| e.to_string())?;
    let jobs = get(obj, "jobs")
        .and_then(|j| j.as_arr("jobs"))
        .map_err(|e| e.to_string())?;
    jobs.iter()
        .map(|j| {
            let j = j.as_obj("job")?;
            Ok((
                get(j, "seed")?.as_u64("seed")?,
                get(j, "id")?.as_u64("id")?,
                get(j, "dedup")?.as_bool("dedup")?,
            ))
        })
        .collect::<Result<Vec<_>, risc1_core::json::JsonError>>()
        .map_err(|e| e.to_string())
}

fn done_digest(response: &Json) -> Result<String, String> {
    let obj = response.as_obj("response").map_err(|e| e.to_string())?;
    let state = get(obj, "state")
        .and_then(|s| s.as_str("state"))
        .map_err(|e| e.to_string())?;
    if state != "done" {
        return Err(format!("job not done after wait: state {state}"));
    }
    let result = get(obj, "result")
        .and_then(|r| r.as_obj("result"))
        .map_err(|e| e.to_string())?;
    get(result, "digest")
        .and_then(|d| d.as_str("digest"))
        .map(str::to_owned)
        .map_err(|e| e.to_string())
}

/// The CI smoke gate: start a real TCP server, drive a 3-job mixed
/// campaign (one clean, two injected — faults included) through sockets,
/// assert every result is bit-identical to direct execution, exercise
/// dedup, and shut down cleanly. The transcript is the output.
fn smoke(mut cfg: ServiceConfig) -> CliResult {
    let w = risc1_workloads::by_id("fib").ok_or("smoke workload `fib` missing")?;
    let prog = compile_risc(&w.module, RiscOpts::default()).map_err(|e| e.to_string())?;
    let (_, base) = run_risc(&prog, &w.small_args).map_err(|e| e.to_string())?;
    let sim = SimConfig {
        fuel: base.instructions * 3 + 10_000,
        ..SimConfig::default()
    };
    let rate = (4 * 10_000 / base.instructions.max(1)).clamp(1, 500) as u32;

    cfg.queue_cap = cfg.queue_cap.min(16);
    let service = ExecService::start(cfg);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    let mut out = String::new();
    let _ = writeln!(out, "smoke: serving on {addr}");
    let result = std::thread::scope(|scope| -> CliResult {
        let server = scope.spawn(|| serve_tcp(&service, listener));

        // Every in-process gate (including the shutdown handshake) runs in
        // this inner closure: a failing gate must not leave the accept
        // loop blocked, or the scope would hang forever joining the server
        // thread. The error path below always unblocks it first.
        let gates = (|| -> Result<(String, String, Vec<u64>), String> {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut rx = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            let mut tx = stream;

            // 1 clean job + 2 injected jobs (all modes, recovery on).
            let clean_req = wire::submit_request(
                "smoke",
                1,
                &prog,
                &w.small_args,
                &sim,
                &[0],
                false,
                0,
                "none",
                false,
                "direct",
                None,
                false,
                None,
            );
            let inject_req = wire::submit_request(
                "smoke",
                1,
                &prog,
                &w.small_args,
                &sim,
                &[3, 11],
                true,
                rate,
                "all",
                true,
                "direct",
                None,
                false,
                None,
            );
            let clean = exchange(&mut out, &mut tx, &mut rx, &clean_req)?;
            let injected = exchange(&mut out, &mut tx, &mut rx, &inject_req)?;
            let mut jobs = job_ids(&clean)?;
            jobs.extend(job_ids(&injected)?);
            if jobs.len() != 3 || jobs.iter().any(|&(_, _, dedup)| dedup) {
                return Err(format!("expected 3 fresh jobs, got {jobs:?}\n{out}"));
            }

            // Expected digests from direct, in-process execution.
            let clean_direct =
                run_risc_deadline(&prog, &w.small_args, sim.clone(), None, false, None, None)
                    .map_err(|e| e.to_string())?;
            let TimedOutcome::Finished(clean_report) = clean_direct else {
                return Err("clean direct run timed out without a deadline".into());
            };
            let mut expected = vec![JobOutput::Finished(clean_report).digest()];
            for &(seed, _, _) in &jobs[1..] {
                let report = run_risc_injected(
                    &prog,
                    &w.small_args,
                    sim.clone(),
                    InjectConfig {
                        seed,
                        rate,
                        modes: risc1_core::inject::InjectModes::all(),
                    },
                    true,
                )
                .map_err(|e| e.to_string())?;
                expected.push(JobOutput::Finished(report).digest());
            }

            for (&(seed, id, _), want) in jobs.iter().zip(&expected) {
                let poll = format!("{{\"op\":\"poll\",\"id\":{id},\"wait_ms\":60000}}");
                let response = exchange(&mut out, &mut tx, &mut rx, &poll)?;
                let got = done_digest(&response)?;
                let want = format!("{want:016x}");
                if got != want {
                    return Err(format!(
                        "seed {seed}: served digest {got} != direct digest {want}\n{out}"
                    ));
                }
            }

            // Duplicate submission: every ticket must be a dedup hit.
            let dup = exchange(&mut out, &mut tx, &mut rx, &inject_req)?;
            if !job_ids(&dup)?.iter().all(|&(_, _, dedup)| dedup) {
                return Err(format!("duplicate submission was not deduped\n{out}"));
            }

            let status = exchange(&mut out, &mut tx, &mut rx, "{\"op\":\"status\"}")?;
            let sobj = status.as_obj("status").map_err(|e| e.to_string())?;
            let counters = get(sobj, "counters")
                .and_then(|c| c.as_obj("counters"))
                .map_err(|e| e.to_string())?;
            let completed = get(counters, "completed")
                .and_then(|v| v.as_u64("completed"))
                .map_err(|e| e.to_string())?;
            let panics = get(counters, "panics")
                .and_then(|v| v.as_u64("panics"))
                .map_err(|e| e.to_string())?;
            if completed != 3 || panics != 0 {
                return Err(format!(
                    "status: expected 3 completed / 0 panics, got {completed}/{panics}\n{out}"
                ));
            }

            // Streamed replay journal: record seed 3's campaign server-side,
            // pull it in sequence-numbered chunks, replay it bit for bit.
            let journal_req = wire::submit_request(
                "smoke",
                1,
                &prog,
                &w.small_args,
                &sim,
                &[3],
                true,
                rate,
                "all",
                true,
                "direct",
                None,
                true,
                None,
            );
            let jr = exchange(&mut out, &mut tx, &mut rx, &journal_req)?;
            let jid = job_ids(&jr)?
                .first()
                .map(|&(_, id, _)| id)
                .ok_or("journal submit returned no job")?;
            let poll = format!("{{\"op\":\"poll\",\"id\":{jid},\"wait_ms\":60000}}");
            let jdone = exchange(&mut out, &mut tx, &mut rx, &poll)?;
            let jdigest = done_digest(&jdone)?;
            if jdigest != format!("{:016x}", expected[1]) {
                return Err(format!(
                    "journal job digest {jdigest} != direct digest of seed 3\n{out}"
                ));
            }
            // The client behind `risc1 replay --fetch`, on a connection of
            // its own.
            let (text, chunks) = crate::fetch_journal(&addr.to_string(), jid)
                .map_err(|e| format!("fetching the journal: {e}\n{out}"))?;
            let journal =
                Journal::from_json(&text).map_err(|e| format!("streamed journal: {e}"))?;
            let replayed = replay_journal(&journal).map_err(|e| format!("replay: {e}"))?;
            if Some(recorded_outcome(&replayed)) != journal.outcome {
                return Err(format!(
                    "streamed journal did not replay bit for bit\n{out}"
                ));
            }
            let _ = writeln!(
                out,
                "smoke: journal streamed in {chunks} chunk(s), replayed bit for bit"
            );

            // Warm start: snapshot the clean run's prefix, submit it, and the
            // served digest must still equal the cold run's.
            let prefix = (base.instructions / 2).max(1);
            let snap = snapshot_risc_prefix(&prog, &w.small_args, sim.clone(), false, prefix)
                .map_err(|e| e.to_string())?;
            if snap.at_instruction() == 0 {
                return Err("warm-start snapshot covers no prefix".into());
            }
            let warm_req = wire::submit_request(
                "smoke",
                1,
                &prog,
                &w.small_args,
                &sim,
                &[0],
                false,
                0,
                "none",
                false,
                "direct",
                None,
                false,
                Some(&snap),
            );
            let wr = exchange(&mut out, &mut tx, &mut rx, &warm_req)?;
            let wid = job_ids(&wr)?
                .first()
                .map(|&(_, id, _)| id)
                .ok_or("warm-start submit returned no job")?;
            let poll = format!("{{\"op\":\"poll\",\"id\":{wid},\"wait_ms\":60000}}");
            let wdone = exchange(&mut out, &mut tx, &mut rx, &poll)?;
            let wdigest = done_digest(&wdone)?;
            if wdigest != format!("{:016x}", expected[0]) {
                return Err(format!(
                    "warm-start digest {wdigest} != cold digest (prefix {} insns)\n{out}",
                    snap.at_instruction()
                ));
            }
            let _ = writeln!(
                out,
                "smoke: warm start skipped {} prefix instruction(s), digest unchanged",
                snap.at_instruction()
            );

            // A tampered snapshot must land as a structured rejection.
            let tampered = snap
                .to_json()
                .replace("\"halted\":false", "\"halted\":true");
            let reject_req = tampered_snapshot_request(&prog, &w.small_args, &sim, &tampered);
            let rr = exchange(&mut out, &mut tx, &mut rx, &reject_req)?;
            let rid = job_ids(&rr)?
                .first()
                .map(|&(_, id, _)| id)
                .ok_or("tampered submit returned no job")?;
            let poll = format!("{{\"op\":\"poll\",\"id\":{rid},\"wait_ms\":60000}}");
            let rdone = exchange(&mut out, &mut tx, &mut rx, &poll)?;
            if done_kind(&rdone)? != "snapshot-rejected" {
                return Err(format!("tampered snapshot was not rejected\n{out}"));
            }

            // Counters surface the durability story.
            let status = exchange(&mut out, &mut tx, &mut rx, "{\"op\":\"status\"}")?;
            let sobj = status.as_obj("status").map_err(|e| e.to_string())?;
            let counters = get(sobj, "counters")
                .and_then(|c| c.as_obj("counters"))
                .map_err(|e| e.to_string())?;
            let rejected = get(counters, "snapshots_rejected")
                .and_then(|v| v.as_u64("snapshots_rejected"))
                .map_err(|e| e.to_string())?;
            if rejected != 1 {
                return Err(format!(
                    "expected 1 rejected snapshot, got {rejected}\n{out}"
                ));
            }

            let bye = exchange(&mut out, &mut tx, &mut rx, "{\"op\":\"shutdown\"}")?;
            let bobj = bye.as_obj("shutdown").map_err(|e| e.to_string())?;
            if get(bobj, "ok").and_then(|v| v.as_bool("ok")) != Ok(true) {
                return Err(format!("shutdown not acknowledged\n{out}"));
            }
            Ok((clean_req, inject_req, expected))
        })();
        let (clean_req, inject_req, expected) = match gates {
            Ok(v) => v,
            Err(e) => {
                // Unblock the accept loop so the scope's implicit join of
                // the server thread terminates, then surface the failure.
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = s.write_all(b"{\"op\":\"shutdown\"}\n");
                    let mut ack = String::new();
                    let _ = BufReader::new(s).read_line(&mut ack);
                }
                return Err(e);
            }
        };
        server
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("server: {e}"))?;

        // Crash-recovery law, end to end: a real server process, a real
        // kill -9, a real restart with --recover.
        kill_restart_gate(&mut out, &clean_req, &inject_req, &expected)?;

        let _ = writeln!(
            out,
            "smoke: 3 jobs bit-identical, dedup ok, journal streamed, warm start ok, \
             recovery ok, clean shutdown"
        );
        Ok(out.clone())
    });
    result
}

/// A submit request wrapping an intentionally corrupted snapshot body
/// (which still parses, so the rejection happens at restore time).
fn tampered_snapshot_request(
    prog: &risc1_core::Program,
    args: &[i32],
    sim: &SimConfig,
    snapshot_json: &str,
) -> String {
    let mut w = risc1_core::json::Writer::new();
    w.obj_open();
    w.key("op");
    w.str("submit");
    w.key("client");
    w.str("smoke");
    w.key("program");
    prog.write_json(&mut w);
    w.key("args");
    w.arr_open();
    for &a in args {
        w.num(i128::from(a));
    }
    w.arr_close();
    w.key("cfg");
    risc1_core::journal::write_config(&mut w, sim);
    // Same seed as the completed warm-start job: the dedup key folds the
    // snapshot's full content, so the tampered body must miss dedup and
    // reach restore-time verification.
    w.key("seeds");
    w.arr_open();
    w.num(0);
    w.arr_close();
    w.key("inject");
    w.bool(false);
    w.key("snapshot");
    w.raw(snapshot_json);
    w.obj_close();
    w.finish()
}

fn done_kind(response: &Json) -> Result<String, String> {
    let obj = response.as_obj("response").map_err(|e| e.to_string())?;
    let result = get(obj, "result")
        .and_then(|r| r.as_obj("result"))
        .map_err(|e| e.to_string())?;
    get(result, "kind")
        .and_then(|k| k.as_str("kind"))
        .map(str::to_owned)
        .map_err(|e| e.to_string())
}

/// A spawned server that is killed if the gate errors out early.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Reads the `serving on <addr>` announcement from a child's stderr.
fn read_serving_addr(stderr: &mut std::process::ChildStderr) -> Result<String, String> {
    let mut lines = BufReader::new(stderr).lines();
    for line in &mut lines {
        let line = line.map_err(|e| format!("child stderr: {e}"))?;
        if let Some(addr) = line.strip_prefix("serving on ") {
            return Ok(addr.trim().to_owned());
        }
    }
    Err("child exited before announcing its address".into())
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let rx = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, rx))
}

/// Spawn a durable server, admit the smoke campaign, `kill -9` the
/// process, restart it with `--recover`, and require every pre-crash job
/// id to answer with a digest bit-identical to direct execution.
///
/// Skipped (with a transcript note) when not running as the installed
/// `risc1` binary — e.g. from a unit-test harness, which must not re-spawn
/// itself.
fn kill_restart_gate(
    out: &mut String,
    clean_req: &str,
    inject_req: &str,
    expected: &[u64],
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    if exe.file_stem().and_then(|s| s.to_str()) != Some("risc1") {
        let _ = writeln!(
            out,
            "smoke: kill-restart gate skipped (not running as the risc1 binary)"
        );
        return Ok(());
    }
    // Under target/ rather than the system temp dir: a failing gate leaves
    // the log behind, where CI uploads target/wal-artifacts/ for offline
    // inspection. The success path below removes it.
    let wal =
        std::path::Path::new("target/wal-artifacts").join(format!("smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);

    // Server one: admit the campaign, then die hard.
    let mut child = ChildGuard(
        std::process::Command::new(&exe)
            .args(["serve", "--tcp", "127.0.0.1:0", "--wal-dir"])
            .arg(&wal)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?,
    );
    let addr = read_serving_addr(child.0.stderr.as_mut().expect("piped stderr"))?;
    let _ = writeln!(out, "smoke: durable server on {addr}");
    let (mut tx, mut rx) = connect(&addr)?;
    let clean = exchange(out, &mut tx, &mut rx, clean_req)?;
    let injected = exchange(out, &mut tx, &mut rx, inject_req)?;
    let mut jobs = job_ids(&clean)?;
    jobs.extend(job_ids(&injected)?);
    if jobs.len() != expected.len() {
        return Err(format!(
            "expected {} admitted jobs, got {jobs:?}",
            expected.len()
        ));
    }
    // The admissions are in the log (they were before the tickets were
    // issued); now the process dies mid-campaign.
    child.0.kill().map_err(|e| format!("kill: {e}"))?;
    let _ = child.0.wait();
    let _ = writeln!(out, "smoke: server killed (SIGKILL) mid-campaign");

    // Server two: recover the log and serve the original ids.
    let mut child = ChildGuard(
        std::process::Command::new(&exe)
            .args(["serve", "--tcp", "127.0.0.1:0", "--recover"])
            .arg(&wal)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn recovered server: {e}"))?,
    );
    let addr = read_serving_addr(child.0.stderr.as_mut().expect("piped stderr"))?;
    let _ = writeln!(out, "smoke: recovered server on {addr}");
    let (mut tx, mut rx) = connect(&addr)?;
    for (&(seed, id, _), want) in jobs.iter().zip(expected) {
        let poll = format!("{{\"op\":\"poll\",\"id\":{id},\"wait_ms\":60000}}");
        let response = exchange(out, &mut tx, &mut rx, &poll)?;
        let got = done_digest(&response)?;
        let want = format!("{want:016x}");
        if got != want {
            return Err(format!(
                "recovery: seed {seed} digest {got} != direct digest {want}\n{out}"
            ));
        }
    }
    let status = exchange(out, &mut tx, &mut rx, "{\"op\":\"status\"}")?;
    let sobj = status.as_obj("status").map_err(|e| e.to_string())?;
    let counters = get(sobj, "counters")
        .and_then(|c| c.as_obj("counters"))
        .map_err(|e| e.to_string())?;
    let replayed = get(counters, "wal_replayed")
        .and_then(|v| v.as_u64("wal_replayed"))
        .map_err(|e| e.to_string())?;
    let reseeded = get(counters, "wal_reseeded")
        .and_then(|v| v.as_u64("wal_reseeded"))
        .map_err(|e| e.to_string())?;
    if (replayed + reseeded) as usize != expected.len() {
        return Err(format!(
            "recovery counters {replayed}+{reseeded} do not cover {} admitted jobs",
            expected.len()
        ));
    }
    let _ = writeln!(
        out,
        "smoke: recovered {reseeded} result(s) from the WAL, re-ran {replayed}, \
         all digests bit-identical"
    );
    let bye = exchange(out, &mut tx, &mut rx, "{\"op\":\"shutdown\"}")?;
    let bobj = bye.as_obj("shutdown").map_err(|e| e.to_string())?;
    if get(bobj, "ok").and_then(|v| v.as_bool("ok")) != Ok(true) {
        return Err("recovered server did not acknowledge shutdown".into());
    }
    let _ = child.0.wait();
    let _ = std::fs::remove_dir_all(&wal);
    Ok(())
}
