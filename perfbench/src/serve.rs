//! The `serve_mixed` workload: a closed-loop TCP campaign against
//! `serve_tcp` inside this process, with the WAL on, and the attribution
//! of its job latency to the serve layers.

use crate::gen::{self, JobInput, JobStream, Workload};
use crate::host::HostClock;
use crate::layers::{self, ratio};
use crate::report::Report;
use crate::runs;
use crate::stats::{mean, median, quantile};
use crate::trace::{SpanId, Tracer};
use risc1_core::json::{get, get_opt, Json, JsonError, Parser};
use risc1_core::{Program, SimConfig};
use risc1_ir::{compile_risc, run_risc_deadline, run_risc_injected, RiscOpts, TimedOutcome};
use risc1_serve::wire::{self, Request};
use risc1_serve::{
    handle_line, serve_tcp, ExecService, JobOutput, JobSpec, PollState, ServiceConfig,
    StatusReport, WalWriter,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Fuel of a clean job before its offset: far above any `small_args` run.
const CLEAN_FUEL: u64 = 50_000_000;
/// How long one poll waits for its job before answering.
const POLL_WAIT_MS: u64 = 60_000;
/// A campaign takes no new job after this long, however few are done.
const HARD_CAP_S: f64 = 100.0;
/// Set-ups before a `serve_mixed` campaign, and again after it. Each takes
/// well under a millisecond of thread spawns and system calls, whose cost
/// follows the host's state, so a steady median needs many, and two
/// batches ten seconds apart see two states.
const SETUP_REPS: usize = 31;
/// Jobs in the serve probe of a traced run workload.
const PROBE_JOBS: usize = 24;

/// Jobs a campaign of `seconds` completes at least: 200 at full length,
/// so ten samples lie beyond p95, and fewer in short self-test runs.
fn min_jobs(seconds: f64) -> usize {
    ((seconds * 20.0) as usize).clamp(8, 200)
}

/// The service as `risc1 serve` runs by default, with one thread per host
/// core and its WAL and artifacts under `dir`.
fn service_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        wal_dir: Some(dir.join("wal").display().to_string()),
        artifact_dir: dir.join("artifacts").display().to_string(),
        ..ServiceConfig::default()
    }
}

/// A program the campaign submits.
struct ServeProg {
    id: &'static str,
    program: Program,
    /// Fuel of an injected job: three times the clean run, so a fault that
    /// sends the program astray ends in a structured out-of-fuel fault.
    inject_fuel: u64,
    /// Injection rate of an injected job: about four faults a run.
    rate: u32,
}

/// Compiles the suite programs `ids` and sizes their injected jobs from
/// one clean run at `small_args`.
fn prepare(ids: &[&'static str]) -> Result<Vec<ServeProg>, String> {
    ids.iter()
        .map(|&id| {
            let w = risc1_workloads::by_id(id).ok_or_else(|| format!("unknown suite id {id}"))?;
            let program = compile_risc(&w.module, RiscOpts::default())
                .map_err(|e| format!("{id}: compile: {e}"))?;
            let (_, stats) = runs::execute(&program, &w.small_args, SimConfig::default(), false)?;
            let base = stats.instructions.max(1);
            Ok(ServeProg {
                id,
                program,
                inject_fuel: base * 3 + 10_000,
                rate: (40_000 / base).clamp(1, 500) as u32,
            })
        })
        .collect()
}

/// The submit line of `job`, as a client sends it.
fn submit_line(job: &JobInput, progs: &[ServeProg], client: &str) -> String {
    let p = &progs[job.program];
    let args = [job.arg];
    match job.inject_seed {
        None => {
            let cfg = SimConfig {
                fuel: CLEAN_FUEL + job.fuel_offset,
                ..SimConfig::default()
            };
            wire::submit_request(
                client,
                1,
                &p.program,
                &args,
                &cfg,
                &[0],
                false,
                0,
                "none",
                false,
                "direct",
                None,
                false,
                None,
            )
        }
        Some(seed) => {
            let cfg = SimConfig {
                fuel: p.inject_fuel,
                ..SimConfig::default()
            };
            wire::submit_request(
                client,
                1,
                &p.program,
                &args,
                &cfg,
                &[seed],
                true,
                p.rate,
                "all",
                true,
                "direct",
                None,
                false,
                None,
            )
        }
    }
}

/// The poll line that waits for job `id`.
fn poll_line(id: u64) -> String {
    format!("{{\"op\":\"poll\",\"id\":{id},\"wait_ms\":{POLL_WAIT_MS}}}")
}

/// The spec the service builds from a one-job submit line.
fn spec_of(line: &str) -> Result<JobSpec, String> {
    match wire::parse_request(line).map_err(|e| e.to_string())? {
        Request::Submit { mut specs, .. } if specs.len() == 1 => Ok(specs.remove(0)),
        _ => Err("not a one-job submit".to_owned()),
    }
}

/// The digest direct in-process execution gives `job`'s spec:
/// `run_risc_deadline` for a clean job, `run_risc_injected` for an
/// injected one. A panic is an error here, not the end of the benchmark.
fn reference(job: &JobInput, progs: &[ServeProg]) -> Result<u64, String> {
    let spec = spec_of(&submit_line(job, progs, "reference"))?;
    let run = || -> Result<u64, String> {
        let report = match spec.inject {
            None => match run_risc_deadline(
                &spec.program,
                &spec.args,
                spec.cfg.clone(),
                None,
                spec.recovery,
                None,
                None,
            )
            .map_err(|e| e.to_string())?
            {
                TimedOutcome::Finished(r) => r,
                TimedOutcome::TimedOut { .. } => {
                    return Err("timed out with no deadline".to_owned())
                }
            },
            Some(inject) => run_risc_injected(
                &spec.program,
                &spec.args,
                spec.cfg.clone(),
                inject,
                spec.recovery,
            )
            .map_err(|e| e.to_string())?,
        };
        Ok(JobOutput::Finished(report).digest())
    };
    catch_unwind(AssertUnwindSafe(run))
        .unwrap_or_else(|_| Err("direct execution panicked".to_owned()))
}

/// One client connection. Each request goes out in a single write, so the
/// client adds no stall of its own.
struct Client {
    tx: TcpStream,
    rx: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let tx = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        tx.set_nodelay(true).map_err(|e| e.to_string())?;
        tx.set_read_timeout(Some(Duration::from_secs(150)))
            .map_err(|e| e.to_string())?;
        let rx = BufReader::new(tx.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { tx, rx })
    }

    /// Sends one request line and returns the response line.
    fn exchange(&mut self, line: &str) -> Result<String, String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.tx
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.rx.read_line(&mut reply) {
            Ok(0) => Err("the server closed the connection".to_owned()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// `serve_tcp` on a loopback port, on a thread of its own.
struct Server {
    service: Arc<ExecService>,
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Starts the service (inside a `serve.start` span), binds and serves.
    fn start(cfg: ServiceConfig, tracer: &Tracer, setup: u64) -> Result<Server, String> {
        let service = Arc::new(tracer.time("serve.start", setup, None, || ExecService::start(cfg)));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let served = Arc::clone(&service);
        let thread = std::thread::spawn(move || serve_tcp(&served, listener));
        Ok(Server {
            service,
            addr,
            thread,
        })
    }

    /// Connects the campaign's clients.
    fn clients(&self) -> Result<Vec<Client>, String> {
        (0..CLIENTS).map(|_| Client::connect(self.addr)).collect()
    }

    /// Sends `shutdown` and joins the accept loop. Close every client
    /// first: the server joins each connection's thread, which ends at the
    /// end of its stream.
    fn stop(self) -> Result<(), String> {
        Client::connect(self.addr)?.exchange("{\"op\":\"shutdown\"}")?;
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_owned())?
            .map_err(|e| format!("serve_tcp: {e}"))
    }
}

/// One job as its client saw it.
struct JobRecord {
    /// Position in the job sequence.
    index: usize,
    /// Whether the service answered the submit by dedup.
    dedup: bool,
    /// Submit line sent → done reply received, in ms.
    latency_ms: f64,
    /// The submit exchange, in ms.
    submit_ms: f64,
    /// The poll exchanges, in ms.
    poll_ms: f64,
    /// `(kind, digest, instructions)` of the done reply, or why there is
    /// none.
    result: Result<(String, String, u64), String>,
    /// Whether the job recorded spans.
    traced: bool,
    /// Set by [`check`]: the job matched direct execution.
    passed: bool,
}

/// When a campaign stops taking jobs: once `seconds` have passed and
/// `min_jobs` are done, once `max_jobs` have been handed out, or after
/// [`HARD_CAP_S`].
struct Budget {
    seconds: f64,
    min_jobs: usize,
    max_jobs: usize,
}

/// A finished campaign.
struct Campaign {
    /// Every job, in sequence order.
    records: Vec<JobRecord>,
    /// Every job handed out, by index.
    jobs: Vec<JobInput>,
    /// Wall time of the whole campaign.
    wall_s: f64,
}

/// What the client threads of a campaign share.
struct Shared<'a> {
    progs: &'a [ServeProg],
    stream: Mutex<JobStream>,
    done: AtomicUsize,
    budget: &'a Budget,
    start: Instant,
    tracer: &'a Tracer,
}

/// Runs the closed loop of every client to the end of `budget`. In a
/// traced run odd-numbered jobs record spans, so their cost shows against
/// the even ones.
fn campaign(
    clients: Vec<Client>,
    progs: &[ServeProg],
    stream: JobStream,
    budget: &Budget,
    tracer: &Tracer,
) -> Result<Campaign, String> {
    let shared = Shared {
        progs,
        stream: Mutex::new(stream),
        done: AtomicUsize::new(0),
        budget,
        start: Instant::now(),
        tracer,
    };
    let per_client: Vec<Result<Vec<JobRecord>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                let shared = &shared;
                s.spawn(move || client_loop(client, &format!("client{i}"), shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".to_owned()))
            })
            .collect()
    });
    let wall_s = shared.start.elapsed().as_secs_f64();
    let mut records = Vec::new();
    for r in per_client {
        records.extend(r?);
    }
    records.sort_by_key(|r| r.index);
    let jobs = shared
        .stream
        .into_inner()
        .expect("job stream")
        .history()
        .to_vec();
    Ok(Campaign {
        records,
        jobs,
        wall_s,
    })
}

/// One client's closed loop: take the next job of the shared stream, send
/// its submit, poll with `wait_ms` until it is done, repeat.
fn client_loop(mut client: Client, name: &str, shared: &Shared) -> Result<Vec<JobRecord>, String> {
    let off = Tracer::new(false);
    let mut records = Vec::new();
    loop {
        let elapsed = shared.start.elapsed().as_secs_f64();
        let enough = elapsed >= shared.budget.seconds
            && shared.done.load(Ordering::SeqCst) >= shared.budget.min_jobs;
        if enough || elapsed >= HARD_CAP_S {
            return Ok(records);
        }
        let (index, job) = {
            let mut stream = shared.stream.lock().expect("job stream");
            if stream.history().len() >= shared.budget.max_jobs {
                return Ok(records);
            }
            stream.next_job()
        };
        let line = submit_line(&job, shared.progs, name);
        let traced = shared.tracer.enabled() && index % 2 == 1;
        let tr = if traced { shared.tracer } else { &off };
        let trace_id = index as u64;
        let root = tr.open("job", trace_id, None);
        let t0 = Instant::now();
        let reply = tr.time("client.submit", trace_id, root, || client.exchange(&line))?;
        let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut poll_ms = 0.0;
        let (dedup, result) = match parse_ticket(&reply) {
            Err(e) => (false, Err(e)),
            Ok((id, dedup)) => {
                let poll = poll_line(id);
                let result = loop {
                    let t = Instant::now();
                    let reply =
                        tr.time("client.poll", trace_id, root, || client.exchange(&poll))?;
                    poll_ms += t.elapsed().as_secs_f64() * 1e3;
                    match parse_done(&reply) {
                        Ok(Some(done)) => break Ok(done),
                        Ok(None) => {}
                        Err(e) => break Err(e),
                    }
                };
                (dedup, result)
            }
        };
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.close(root);
        shared.done.fetch_add(1, Ordering::SeqCst);
        records.push(JobRecord {
            index,
            dedup,
            latency_ms,
            submit_ms,
            poll_ms,
            result,
            traced,
            passed: false,
        });
    }
}

/// A reply line as a JSON object.
fn reply_obj(reply: &str) -> Result<Vec<(String, Json)>, String> {
    match Parser::new(reply.trim_end()).parse_document() {
        Ok(Json::Obj(fields)) => Ok(fields),
        Ok(_) => Err(format!("reply is not an object: {}", reply.trim_end())),
        Err(e) => Err(format!("malformed reply ({e}): {}", reply.trim_end())),
    }
}

/// The job id and dedup flag of a one-job submit reply; a refusal (shed,
/// bad request, shutting down) is an error.
fn parse_ticket(reply: &str) -> Result<(u64, bool), String> {
    let obj = reply_obj(reply)?;
    let ticket = || -> Result<(u64, bool), JsonError> {
        if !get(&obj, "ok")?.as_bool("ok")? {
            return Err(JsonError::schema("refused"));
        }
        let jobs = get(&obj, "jobs")?.as_arr("jobs")?;
        let job = jobs
            .first()
            .ok_or_else(|| JsonError::schema("no job"))?
            .as_obj("job")?;
        Ok((
            get(job, "id")?.as_u64("id")?,
            get(job, "dedup")?.as_bool("dedup")?,
        ))
    };
    ticket().map_err(|e| format!("submit: {e}: {}", reply.trim_end()))
}

/// `Some((kind, digest, instructions))` once a poll reply says done.
fn parse_done(reply: &str) -> Result<Option<(String, String, u64)>, String> {
    let obj = reply_obj(reply)?;
    let done = || -> Result<Option<(String, String, u64)>, JsonError> {
        if !get(&obj, "ok")?.as_bool("ok")? {
            return Err(JsonError::schema("refused"));
        }
        if get(&obj, "state")?.as_str("state")? != "done" {
            return Ok(None);
        }
        let result = get(&obj, "result")?.as_obj("result")?;
        let instructions = match get_opt(result, "instructions") {
            Some(v) => v.as_u64("instructions")?,
            None => 0,
        };
        Ok(Some((
            get(result, "kind")?.as_str("kind")?.to_owned(),
            get(result, "digest")?.as_str("digest")?.to_owned(),
            instructions,
        )))
    };
    done().map_err(|e| format!("poll: {e}: {}", reply.trim_end()))
}

/// Runs a campaign of seeded jobs against `server`, then reads the
/// service's status and stops the server.
fn run_campaign(
    server: Server,
    clients: Vec<Client>,
    progs: &[ServeProg],
    seed: u64,
    budget: &Budget,
    tracer: &Tracer,
) -> Result<(Campaign, StatusReport), String> {
    let ranges = progs.iter().map(|p| gen::serve_arg_range(p.id)).collect();
    let run = campaign(clients, progs, JobStream::new(seed, ranges), budget, tracer);
    let status = server.service.status();
    server.stop()?;
    Ok((run?, status))
}

/// Checks every job against direct in-process execution of its spec,
/// counting each in `report` and printing every mismatch.
fn check(report: &mut Report, c: &mut Campaign, progs: &[ServeProg]) {
    let mut want: HashMap<usize, Result<u64, String>> = HashMap::new();
    for r in &mut c.records {
        let fresh = c.jobs[r.index].repeats.unwrap_or(r.index);
        let expect = want
            .entry(fresh)
            .or_insert_with(|| reference(&c.jobs[fresh], progs));
        r.passed = match (&r.result, &*expect) {
            (Ok((kind, digest, _)), Ok(d)) => kind == "finished" && *digest == format!("{d:016x}"),
            _ => false,
        };
        if !r.passed {
            eprintln!(
                "perfbench: MISMATCH job {} ({}): served {:?}, direct execution {:?}",
                r.index, progs[c.jobs[r.index].program].id, r.result, expect
            );
        }
        report.tally(1, u64::from(!r.passed));
    }
}

/// One job's latency split across the layers it passed through, in
/// seconds. The parts sum to `latency`: `queue` is what the rest leave.
#[derive(Debug, Clone, Copy)]
struct Parts {
    latency: f64,
    transport: f64,
    submit: f64,
    parse: f64,
    render: f64,
    wal: f64,
    exec: f64,
    queue: f64,
}

/// Runs `f` inside a span; returns its result and its wall seconds.
fn clock<R>(
    tracer: &Tracer,
    name: &'static str,
    id: u64,
    parent: SpanId,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t0 = Instant::now();
    let r = tracer.time(name, id, parent, f);
    (r, t0.elapsed().as_secs_f64())
}

/// Prices each serve layer on the campaign's own jobs. The jobs that
/// passed are replayed in order against a fresh in-process service with
/// the WAL on, timing `handle_line` on the same submit and poll lines the
/// clients sent; then the calls inside it are timed one by one on the
/// same specs: `wire::parse_request`, `wire::poll_response`,
/// `WalWriter::append_admit` and `append_done` into a scratch log, and
/// `run_risc_deadline`. Transport is each TCP exchange minus `handle_line`
/// of its line, and queue wait is the residual. The parts are averaged
/// over the jobs of the p40–p60 latency band, so they sum to that band's
/// mean latency, which lies in the p40–p60 range around the job p50.
fn attribute(
    report: &mut Report,
    c: &Campaign,
    status: &StatusReport,
    progs: &[ServeProg],
    tracer: &Tracer,
    dir: &Path,
) -> Result<(), String> {
    let svc = ExecService::start(service_config(&dir.join("replay")));
    let mut wal =
        WalWriter::open(&dir.join("scratch-wal")).map_err(|e| format!("scratch WAL: {e}"))?;
    let mut parts = Vec::new();
    let (mut exec_instructions, mut exec_total) = (0u64, 0.0);
    for r in c.records.iter().filter(|r| r.passed) {
        let job = r.index as u64;
        let root = tracer.open("replay.job", job, None);
        let line = submit_line(&c.jobs[r.index], progs, "replay");
        let ((reply, _), handle_submit) = clock(tracer, "serve.handle_submit", job, root, || {
            handle_line(&svc, &line)
        });
        let (id, _) = parse_ticket(&reply)?;
        let poll = poll_line(id);
        let (_, handle_poll) = clock(tracer, "serve.handle_poll", job, root, || {
            handle_line(&svc, &poll)
        });
        let (spec, parse_submit) = clock(tracer, "serve.wire_parse", job, root, || spec_of(&line));
        let spec = spec?;
        let (parsed, parse_poll) = clock(tracer, "serve.wire_parse", job, root, || {
            wire::parse_request(&poll)
        });
        parsed.map_err(|e| e.to_string())?;
        let state = svc
            .poll(id)
            .ok_or_else(|| format!("replayed job {id} is unknown"))?;
        let (_, render) = clock(tracer, "serve.wire_render", job, root, || {
            wire::poll_response(Some(&state), id)
        });
        let (mut wal_admit, mut wal_done, mut exec) = (0.0, 0.0, 0.0);
        if !r.dedup {
            let PollState::Done(out) = &state else {
                return Err(format!("replayed job {id} did not finish"));
            };
            let (appended, secs) = clock(tracer, "serve.wal_append", job, root, || {
                wal.append_admit(id, "replay", 1, &spec)
            });
            appended.map_err(|e| format!("WAL append: {e}"))?;
            wal_admit = secs;
            let (appended, secs) = clock(tracer, "serve.wal_append", job, root, || {
                wal.append_done(id, out)
            });
            appended.map_err(|e| format!("WAL append: {e}"))?;
            wal_done = secs;
            let (ran, secs) = clock(tracer, "serve.exec", job, root, || {
                run_risc_deadline(
                    &spec.program,
                    &spec.args,
                    spec.cfg.clone(),
                    spec.inject,
                    spec.recovery,
                    None,
                    None,
                )
            });
            if let Ok(TimedOutcome::Finished(done)) = ran {
                exec_instructions += done.stats.instructions;
            }
            exec = secs;
            exec_total += secs;
        }
        tracer.close(root);
        let latency = r.latency_ms / 1e3;
        let transport = (r.submit_ms + r.poll_ms) / 1e3 - handle_submit - handle_poll;
        let submit = handle_submit - parse_submit - wal_admit;
        let (parse, wal_s) = (parse_submit + parse_poll, wal_admit + wal_done);
        let queue = latency - transport - submit - parse - render - wal_s - exec;
        parts.push(Parts {
            latency,
            transport,
            submit,
            parse,
            render,
            wal: wal_s,
            exec,
            queue,
        });
    }
    drop(svc);
    if parts.is_empty() {
        return Err("no serve job passed its check".to_owned());
    }
    parts.sort_by(|a, b| a.latency.total_cmp(&b.latency));
    let n = parts.len();
    let lo = n * 2 / 5;
    let band = &parts[lo..(n * 3).div_ceil(5).max(lo + 1)];
    let avg = |part: fn(&Parts) -> f64| band.iter().map(part).sum::<f64>() / band.len() as f64;
    let basis = format!(
        "mean over the {} jobs of the p40-p60 latency band",
        band.len()
    );
    let starts = tracer.self_secs("serve.start");
    let latencies: Vec<f64> = c.records.iter().map(|r| r.latency_ms).collect();
    report.push(
        "serve.start_ms",
        median(&starts) * 1e3,
        "ms",
        format!(
            "ExecService::start with the WAL on, median of {}",
            starts.len()
        ),
    );
    report.push(
        "serve.transport_ms",
        avg(|p| p.transport) * 1e3,
        "ms",
        format!("TCP exchanges minus handle_line of the same lines; {basis}"),
    );
    report.push(
        "serve.handle_submit_us",
        avg(|p| p.submit) * 1e6,
        "us",
        format!("handle_line(submit) minus its parse and WAL append; {basis}"),
    );
    report.push(
        "serve.wire_parse_us",
        avg(|p| p.parse) * 1e6,
        "us",
        format!("wire::parse_request of the submit and poll lines; {basis}"),
    );
    report.push(
        "serve.wire_render_us",
        avg(|p| p.render) * 1e6,
        "us",
        format!("wire::poll_response of the done reply; {basis}"),
    );
    report.push(
        "serve.wal_append_us",
        avg(|p| p.wal) * 1e6,
        "us",
        format!("WalWriter::append_admit + append_done, none for dedup hits; {basis}"),
    );
    report.push(
        "serve.exec_ms",
        avg(|p| p.exec) * 1e3,
        "ms",
        format!("run_risc_deadline, none for dedup hits; {basis}"),
    );
    report.push(
        "serve.queue_wait_ms",
        avg(|p| p.queue) * 1e3,
        "ms",
        format!("residual: latency minus every part above; {basis}"),
    );
    report.push(
        "serve.band_latency_ms",
        avg(|p| p.latency) * 1e3,
        "ms",
        format!(
            "the serve parts above sum to this; job p50 {:.3} ms over {} jobs",
            quantile(&latencies, 0.5),
            latencies.len()
        ),
    );
    report.push(
        "serve.exec_mips",
        exec_instructions as f64 / exec_total / 1e6,
        "Minstr/s",
        format!(
            "run_risc_deadline of every fresh job: {exec_instructions} instructions in {exec_total:.4} s"
        ),
    );
    let k = &status.counters;
    report.push(
        "serve.dedup_hit_frac",
        ratio(k.dedup_hits, k.submitted + k.dedup_hits),
        "ratio",
        format!(
            "status: {} dedup hits, {} jobs admitted",
            k.dedup_hits, k.submitted
        ),
    );
    report.push(
        "serve.shed",
        k.shed as f64,
        "count",
        "status: jobs refused by load shedding",
    );
    Ok(())
}

/// Runs `serve_mixed`. Untraced, it reports the end-to-end metrics;
/// traced, the serve-layer attribution of the same campaign and the core
/// layers of its programs.
///
/// # Errors
/// A server that cannot start, a connection that fails, or a program that
/// cannot be set up.
pub fn bench(seed: u64, seconds: f64, tracer: &Tracer, scratch: &Path) -> Result<Report, String> {
    let inputs = gen::run_inputs(Workload::ServeMixed);
    let ids: Vec<&'static str> = inputs.iter().map(|i| i.id).collect();
    let progs = prepare(&ids)?;
    let mut report = Report::new(Workload::ServeMixed.name());
    let mut setups = Vec::new();
    let set_up = |setups: &mut Vec<f64>| -> Result<(Server, Vec<Client>), String> {
        let setup = setups.len() as u64;
        let t0 = Instant::now();
        let dir = scratch.join(format!("serve{setup}"));
        let server = Server::start(service_config(&dir), tracer, setup)?;
        let clients = server.clients()?;
        for inp in &inputs {
            tracer
                .time("ir.compile", setup, None, || {
                    compile_risc(&inp.module, RiscOpts::default())
                })
                .map_err(|e| format!("{}: compile: {e}", inp.id))?;
        }
        setups.push(t0.elapsed().as_secs_f64());
        Ok((server, clients))
    };
    let set_up_and_stop = |setups: &mut Vec<f64>| -> Result<(), String> {
        let (server, clients) = set_up(setups)?;
        drop(clients);
        server.stop()
    };
    for _ in 1..SETUP_REPS {
        set_up_and_stop(&mut setups)?;
    }
    let (server, clients) = set_up(&mut setups)?;
    let budget = Budget {
        seconds,
        min_jobs: min_jobs(seconds),
        max_jobs: usize::MAX,
    };
    let (mut c, status) = run_campaign(server, clients, &progs, seed, &budget, tracer)?;
    for _ in 0..SETUP_REPS {
        set_up_and_stop(&mut setups)?;
    }
    check(&mut report, &mut c, &progs);
    if !tracer.enabled() {
        // Only fresh jobs simulate; a dedup hit returns a stored result.
        let instructions = c
            .records
            .iter()
            .filter(|r| !r.dedup)
            .filter_map(|r| r.result.as_ref().ok())
            .map(|r| r.2)
            .sum();
        let latency: Vec<f64> = c.records.iter().map(|r| r.latency_ms).collect();
        report.end_to_end(
            &setups,
            instructions,
            c.records.len(),
            c.wall_s,
            &latency,
            "wall-clock seconds",
        );
        return Ok(report);
    }
    layers::compile_metric(&mut report, tracer);
    attribute(&mut report, &c, &status, &progs, tracer, scratch)?;
    let mean_latency = |traced: bool| {
        let v: Vec<f64> = c
            .records
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.latency_ms)
            .collect();
        mean(&v)
    };
    report.push(
        "tracing.overhead_ratio",
        mean_latency(true) / mean_latency(false),
        "ratio",
        format!(
            "mean job latency with spans / without, {} jobs",
            c.records.len()
        ),
    );
    // The core layers of the same programs, priced the way run_cold
    // prices them.
    let (set, failed) = runs::setup(&inputs, &Tracer::new(false), 0, &mut HostClock::new())?;
    report.tally(set.len() as u64, failed);
    let t = runs::timed(&set, seed, (seconds * 0.1).max(0.05), tracer);
    report.tally(t.runs, t.failed);
    layers::run_span_metrics(&mut report, tracer);
    layers::process_metrics(&mut report, t.speed);
    layers::core_probes(&mut report, &set, seconds)?;
    Ok(report)
}

/// The serve-layer metrics of a traced run workload: a short campaign of
/// its own programs at `small_args` through the same TCP path, attributed
/// the same way as `serve_mixed`.
///
/// # Errors
/// A server that cannot start or a connection that fails.
pub fn probe(
    report: &mut Report,
    ids: &[&'static str],
    seed: u64,
    tracer: &Tracer,
    scratch: &Path,
) -> Result<(), String> {
    let progs = prepare(ids)?;
    let dir = scratch.join("probe");
    let server = Server::start(service_config(&dir), tracer, 0)?;
    let clients = server.clients()?;
    let budget = Budget {
        seconds: 0.0,
        min_jobs: PROBE_JOBS,
        max_jobs: PROBE_JOBS,
    };
    let (mut c, status) =
        run_campaign(server, clients, &progs, seed, &budget, &Tracer::new(false))?;
    check(report, &mut c, &progs);
    attribute(report, &c, &status, &progs, tracer, &dir)
}
