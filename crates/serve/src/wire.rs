//! The JSON wire protocol: newline-delimited request/response objects.
//!
//! Requests (one object per line):
//!
//! ```text
//! {"op":"submit","client":"a","weight":2,"seeds":[0,1,2],
//!  "program":{"words":[…],"entry_offset":0,"data":[{"addr":N,"bytes":[…]}]},
//!  "args":[9],"cfg":{…},                      // cfg optional (defaults)
//!  "inject":true,"rate":120,"modes":"all",    // campaign parameters
//!  "recovery":true,"mode":"direct",           // or "supervised"
//!  "timeout_ms":5000}                         // optional watchdog
//! {"op":"poll","id":7,"wait_ms":200}          // wait_ms optional
//! {"op":"journal","id":7,"seq":0}             // stream a recorded journal
//! {"op":"status"}
//! {"op":"shutdown"}
//! ```
//!
//! A submit may also carry `"journal":true` (record a replay journal and
//! retain it for `journal` requests) or `"snapshot":{…}` (a warm-start
//! checkpoint in the [`Snapshot`] JSON format; the run resumes from it
//! instead of reset). Snapshots are untrusted wire input: they pass the
//! codec's admission limits at parse time, full checksum verification at
//! restore time, and every failure is a structured rejection.
//!
//! Journals stream in bounded, sequence-numbered chunks
//! ([`JOURNAL_CHUNK_BYTES`]); each request for chunk `seq` acknowledges
//! everything before it, so a slow client backpressures itself.
//!
//! Every response carries `"ok"`; failures are structured, e.g. an
//! overloaded queue answers
//! `{"ok":false,"error":"overloaded","depth":64,"capacity":64,…}` — load
//! shedding is a first-class reply, never a dropped connection. Finished
//! jobs report a 64-bit FNV `digest` of (outcome signature, instructions,
//! trap counts, event log) so clients can verify bit-identity against a
//! local run without shipping the full report.
//!
//! The config object reuses the journal format's
//! [`write_config`]/[`read_config`], so a journal's `cfg` block pastes
//! directly into a submit request.

use crate::job::{JobMode, JobOutput, JobSpec};
use crate::queue::Overloaded;
use crate::service::{PollState, StatusReport, SubmitError, SubmitTicket};
use risc1_core::inject::InjectModes;
use risc1_core::journal::{read_config, write_config};
use risc1_core::json::{get, get_opt, Json, JsonError, Parser, Writer};
use risc1_core::snapshot::Snapshot;
use risc1_core::{InjectConfig, Program, SimConfig, TrapKind};
use risc1_ir::{outcome_signature, InjectOutcome, SupervisorOutcome};

/// Most seeds one submit may carry: bounds parse-time allocation before
/// admission control can see the request at all.
pub const MAX_SEEDS_PER_SUBMIT: usize = 4096;

/// Bytes of journal text per streamed chunk. Small enough that one
/// response line stays far under the wire frame cap even after JSON
/// string escaping, large enough that a megabyte journal moves in a few
/// dozen round trips.
pub const JOURNAL_CHUNK_BYTES: usize = 32 * 1024;

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run a campaign: one [`JobSpec`] per requested seed.
    Submit {
        /// Client name (fair-share queue identity).
        client: String,
        /// Fair-share weight (≥ 1).
        weight: u32,
        /// One spec per seed, in request order.
        specs: Vec<JobSpec>,
    },
    /// Ask where a job is.
    Poll {
        /// The job id from a submit ticket.
        id: u64,
        /// Block this long for completion (0/absent = non-blocking).
        wait_ms: Option<u64>,
    },
    /// Fetch one chunk of a recorded replay journal.
    Journal {
        /// The job id (must have been submitted with `"journal":true`).
        id: u64,
        /// Zero-based chunk index; requesting chunk `seq` acknowledges
        /// receipt of every chunk before it.
        seq: u64,
    },
    /// Ask for queue depths and counters.
    Status,
    /// Stop the server after answering.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
/// [`JsonError`] on malformed JSON or a request that does not match the
/// schema above.
pub fn parse_request(line: &str) -> Result<Request, JsonError> {
    let doc = Parser::new(line).parse_document()?;
    let obj = doc.as_obj("request")?;
    match get(obj, "op")?.as_str("op")? {
        "submit" => parse_submit(obj),
        "poll" => Ok(Request::Poll {
            id: get(obj, "id")?.as_u64("id")?,
            wait_ms: match get_opt(obj, "wait_ms") {
                None => None,
                Some(v) => Some(v.as_u64("wait_ms")?),
            },
        }),
        "journal" => Ok(Request::Journal {
            id: get(obj, "id")?.as_u64("id")?,
            seq: match get_opt(obj, "seq") {
                None => 0,
                Some(v) => v.as_u64("seq")?,
            },
        }),
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(JsonError::schema(&format!("unknown op {other:?}"))),
    }
}

fn parse_submit(obj: &[(String, Json)]) -> Result<Request, JsonError> {
    let client = get(obj, "client")?.as_str("client")?.to_owned();
    let weight = match get_opt(obj, "weight") {
        None => 1,
        Some(v) => v.as_u32("weight")?.max(1),
    };
    let program = parse_program(get(obj, "program")?)?;
    let args = get(obj, "args")?
        .as_arr("args")?
        .iter()
        .map(|v| v.as_i32("args[..]"))
        .collect::<Result<Vec<i32>, _>>()?;
    let cfg = match get_opt(obj, "cfg") {
        None => SimConfig::default(),
        Some(v) => read_config(v.as_obj("cfg")?)?,
    };
    let seeds = get(obj, "seeds")?
        .as_arr("seeds")?
        .iter()
        .map(|v| v.as_u64("seeds[..]"))
        .collect::<Result<Vec<u64>, _>>()?;
    if seeds.is_empty() {
        return Err(JsonError::schema("seeds: must not be empty"));
    }
    if seeds.len() > MAX_SEEDS_PER_SUBMIT {
        return Err(JsonError::schema(&format!(
            "seeds: at most {MAX_SEEDS_PER_SUBMIT} per submit"
        )));
    }
    let snapshot = match get_opt(obj, "snapshot") {
        None | Some(Json::Null) => None,
        Some(v) => Some(Box::new(Snapshot::from_json_value(v)?)),
    };
    // A submit is a campaign by default — unless it warm-starts from a
    // snapshot, which cannot replay an injector schedule keyed from reset.
    let inject = match get_opt(obj, "inject") {
        None => snapshot.is_none(),
        Some(v) => v.as_bool("inject")?,
    };
    let rate = match get_opt(obj, "rate") {
        None => InjectConfig::with_seed(0).rate,
        Some(v) => v.as_u32("rate")?,
    };
    let modes = match get_opt(obj, "modes") {
        None => InjectModes::all(),
        Some(v) => match v.as_str("modes")? {
            "all" => InjectModes::all(),
            "transparent" => InjectModes::transparent(),
            "none" => InjectModes::none(),
            other => {
                return Err(JsonError::schema(&format!(
                    "modes: unknown set {other:?} (all | transparent | none)"
                )))
            }
        },
    };
    let recovery = match get_opt(obj, "recovery") {
        None => false,
        Some(v) => v.as_bool("recovery")?,
    };
    let mode = match get_opt(obj, "mode") {
        None => JobMode::Direct,
        Some(v) => match v.as_str("mode")? {
            "direct" => JobMode::Direct,
            "supervised" => {
                let dflt = risc1_ir::SupervisorConfig::default();
                JobMode::Supervised {
                    ckpt_every: match get_opt(obj, "ckpt_every") {
                        None => dflt.ckpt_every,
                        Some(v) => v.as_u64("ckpt_every")?,
                    },
                    max_retries: match get_opt(obj, "max_retries") {
                        None => dflt.max_retries,
                        Some(v) => v.as_u32("max_retries")?,
                    },
                }
            }
            other => {
                return Err(JsonError::schema(&format!(
                    "mode: unknown mode {other:?} (direct | supervised)"
                )))
            }
        },
    };
    let timeout_ms = match get_opt(obj, "timeout_ms") {
        None => None,
        Some(v) => Some(v.as_u64("timeout_ms")?),
    };
    let journal = match get_opt(obj, "journal") {
        None => false,
        Some(v) => v.as_bool("journal")?,
    };
    if snapshot.is_some() {
        if inject {
            return Err(JsonError::schema(
                "snapshot: warm starts cannot be combined with injection \
                 (the injector's schedule is keyed by absolute step from reset)",
            ));
        }
        if !matches!(mode, JobMode::Direct) {
            return Err(JsonError::schema(
                "snapshot: warm starts run in direct mode only",
            ));
        }
        if journal {
            return Err(JsonError::schema(
                "snapshot: a resumed run cannot record a replay journal \
                 (journals replay from reset)",
            ));
        }
    }
    if journal && !matches!(mode, JobMode::Direct) {
        return Err(JsonError::schema(
            "journal: recording is supported in direct mode only",
        ));
    }
    let specs = seeds
        .into_iter()
        .map(|seed| JobSpec {
            program: program.clone(),
            args: args.clone(),
            cfg: cfg.clone(),
            inject: inject.then_some(InjectConfig { seed, rate, modes }),
            recovery,
            mode,
            timeout_ms,
            snapshot: snapshot.clone(),
            journal,
        })
        .collect();
    Ok(Request::Submit {
        client,
        weight,
        specs,
    })
}

fn parse_program(v: &Json) -> Result<Program, JsonError> {
    let obj = v.as_obj("program")?;
    let words = get(obj, "words")?
        .as_arr("program.words")?
        .iter()
        .map(|w| w.as_u32("program.words[..]"))
        .collect::<Result<Vec<u32>, _>>()?;
    let entry_offset = get(obj, "entry_offset")?.as_u32("program.entry_offset")?;
    let data = match get_opt(obj, "data") {
        None => Vec::new(),
        Some(v) => v
            .as_arr("program.data")?
            .iter()
            .map(|d| {
                let d = d.as_obj("program.data[..]")?;
                let addr = get(d, "addr")?.as_u32("program.data[..].addr")?;
                let bytes = get(d, "bytes")?
                    .as_arr("program.data[..].bytes")?
                    .iter()
                    .map(|b| b.as_u8("program.data[..].bytes[..]"))
                    .collect::<Result<Vec<u8>, _>>()?;
                Ok((addr, bytes))
            })
            .collect::<Result<Vec<_>, JsonError>>()?,
    };
    Ok(Program {
        words,
        entry_offset,
        data,
        symbols: Default::default(),
    })
}

/// Serializes a program for a submit request (the client half; the CLI
/// smoke gate and tests use this to talk to a real server).
pub fn write_program(w: &mut Writer, prog: &Program) {
    w.obj_open();
    w.key("words");
    w.arr_open();
    for &word in &prog.words {
        w.num(i128::from(word));
    }
    w.arr_close();
    w.key("entry_offset");
    w.num(i128::from(prog.entry_offset));
    w.key("data");
    w.arr_open();
    for (addr, bytes) in &prog.data {
        w.obj_open();
        w.key("addr");
        w.num(i128::from(*addr));
        w.key("bytes");
        w.arr_open();
        for &b in bytes {
            w.num(i128::from(b));
        }
        w.arr_close();
        w.obj_close();
    }
    w.arr_close();
    w.obj_close();
}

/// Builds a complete submit request line (client-side convenience).
#[allow(clippy::too_many_arguments)]
pub fn submit_request(
    client: &str,
    weight: u32,
    prog: &Program,
    args: &[i32],
    cfg: &SimConfig,
    seeds: &[u64],
    inject: bool,
    rate: u32,
    modes: &str,
    recovery: bool,
    mode: &str,
    timeout_ms: Option<u64>,
    journal: bool,
    snapshot: Option<&Snapshot>,
) -> String {
    let mut w = Writer::new();
    w.obj_open();
    w.key("op");
    w.str("submit");
    w.key("client");
    w.str(client);
    w.key("weight");
    w.num(i128::from(weight));
    w.key("program");
    write_program(&mut w, prog);
    w.key("args");
    w.arr_open();
    for &a in args {
        w.num(i128::from(a));
    }
    w.arr_close();
    w.key("cfg");
    write_config(&mut w, cfg);
    w.key("seeds");
    w.arr_open();
    for &s in seeds {
        w.num(i128::from(s));
    }
    w.arr_close();
    w.key("inject");
    w.bool(inject);
    w.key("rate");
    w.num(i128::from(rate));
    w.key("modes");
    w.str(modes);
    w.key("recovery");
    w.bool(recovery);
    w.key("mode");
    w.str(mode);
    if let Some(ms) = timeout_ms {
        w.key("timeout_ms");
        w.num(i128::from(ms));
    }
    if journal {
        w.key("journal");
        w.bool(true);
    }
    if let Some(snap) = snapshot {
        w.key("snapshot");
        snap.write_json(&mut w);
    }
    w.obj_close();
    w.finish()
}

/// Serializes a full [`JobSpec`] — the write-ahead log's admit-record
/// payload. Everything that determines the job's identity is here, so a
/// replayed spec produces the same [`JobKey`](crate::job::JobKey) and a
/// re-execution after a crash is idempotent.
pub fn write_spec(w: &mut Writer, spec: &JobSpec) {
    w.obj_open();
    w.key("program");
    write_program(w, &spec.program);
    w.key("args");
    w.arr_open();
    for &a in &spec.args {
        w.num(i128::from(a));
    }
    w.arr_close();
    w.key("cfg");
    write_config(w, &spec.cfg);
    w.key("inject");
    match spec.inject {
        None => w.null(),
        Some(i) => {
            w.obj_open();
            w.key("seed");
            w.num(i128::from(i.seed));
            w.key("rate");
            w.num(i128::from(i.rate));
            w.key("modes");
            w.arr_open();
            for on in [
                i.modes.bit_flips,
                i.modes.spurious_interrupts,
                i.modes.decode_probes,
                i.modes.misalign_probes,
                i.modes.fuel_jitter,
                i.modes.wstack_corruption,
            ] {
                w.bool(on);
            }
            w.arr_close();
            w.obj_close();
        }
    }
    w.key("recovery");
    w.bool(spec.recovery);
    w.key("mode");
    match spec.mode {
        JobMode::Direct => w.str("direct"),
        JobMode::Supervised {
            ckpt_every,
            max_retries,
        } => {
            w.obj_open();
            w.key("ckpt_every");
            w.num(i128::from(ckpt_every));
            w.key("max_retries");
            w.num(i128::from(max_retries));
            w.obj_close();
        }
    }
    w.key("timeout_ms");
    match spec.timeout_ms {
        None => w.null(),
        Some(ms) => w.num(i128::from(ms)),
    }
    w.key("journal");
    w.bool(spec.journal);
    w.key("snapshot");
    match &spec.snapshot {
        None => w.null(),
        Some(s) => s.write_json(w),
    }
    w.obj_close();
}

/// Parses a [`write_spec`] document back into a [`JobSpec`].
///
/// # Errors
/// [`JsonError`] on malformed JSON or a spec that does not match the
/// schema (including a snapshot failing its admission limits).
pub fn parse_spec(v: &Json) -> Result<JobSpec, JsonError> {
    let obj = v.as_obj("spec")?;
    let program = parse_program(get(obj, "program")?)?;
    let args = get(obj, "args")?
        .as_arr("spec.args")?
        .iter()
        .map(|a| a.as_i32("spec.args[..]"))
        .collect::<Result<Vec<i32>, _>>()?;
    let cfg = read_config(get(obj, "cfg")?.as_obj("spec.cfg")?)?;
    let inject = match get(obj, "inject")? {
        Json::Null => None,
        v => {
            let i = v.as_obj("spec.inject")?;
            let flags = get(i, "modes")?
                .as_arr("spec.inject.modes")?
                .iter()
                .map(|b| b.as_bool("spec.inject.modes[..]"))
                .collect::<Result<Vec<bool>, _>>()?;
            let [bit_flips, spurious_interrupts, decode_probes, misalign_probes, fuel_jitter, wstack_corruption] =
                flags[..]
            else {
                return Err(JsonError::schema("spec.inject.modes: expected 6 flags"));
            };
            Some(InjectConfig {
                seed: get(i, "seed")?.as_u64("spec.inject.seed")?,
                rate: get(i, "rate")?.as_u32("spec.inject.rate")?,
                modes: InjectModes {
                    bit_flips,
                    spurious_interrupts,
                    decode_probes,
                    misalign_probes,
                    fuel_jitter,
                    wstack_corruption,
                },
            })
        }
    };
    let recovery = get(obj, "recovery")?.as_bool("spec.recovery")?;
    let mode = match get(obj, "mode")? {
        Json::Str(s) if s == "direct" => JobMode::Direct,
        Json::Obj(m) => JobMode::Supervised {
            ckpt_every: get(m, "ckpt_every")?.as_u64("spec.mode.ckpt_every")?,
            max_retries: get(m, "max_retries")?.as_u32("spec.mode.max_retries")?,
        },
        _ => return Err(JsonError::schema("spec.mode: expected \"direct\" or {…}")),
    };
    let timeout_ms = match get(obj, "timeout_ms")? {
        Json::Null => None,
        v => Some(v.as_u64("spec.timeout_ms")?),
    };
    let journal = get(obj, "journal")?.as_bool("spec.journal")?;
    let snapshot = match get(obj, "snapshot")? {
        Json::Null => None,
        v => Some(Box::new(Snapshot::from_json_value(v)?)),
    };
    Ok(JobSpec {
        program,
        args,
        cfg,
        inject,
        recovery,
        mode,
        timeout_ms,
        snapshot,
        journal,
    })
}

/// The success response to a submit.
pub fn submit_response(tickets: &[SubmitTicket]) -> String {
    let mut w = Writer::new();
    w.obj_open();
    w.key("ok");
    w.bool(true);
    w.key("jobs");
    w.arr_open();
    for t in tickets {
        w.obj_open();
        w.key("seed");
        w.num(i128::from(t.seed));
        w.key("id");
        w.num(i128::from(t.id));
        w.key("dedup");
        w.bool(t.dedup);
        w.obj_close();
    }
    w.arr_close();
    w.obj_close();
    w.finish()
}

/// The structured failure response to a submit.
pub fn submit_error_response(err: &SubmitError) -> String {
    let mut w = Writer::new();
    w.obj_open();
    w.key("ok");
    w.bool(false);
    match err {
        SubmitError::Overloaded(Overloaded {
            client,
            depth,
            capacity,
            rejected,
        }) => {
            w.key("error");
            w.str("overloaded");
            w.key("client");
            w.str(client);
            w.key("depth");
            w.num(*depth as i128);
            w.key("capacity");
            w.num(*capacity as i128);
            w.key("rejected");
            w.num(*rejected as i128);
        }
        SubmitError::ShuttingDown => {
            w.key("error");
            w.str("shutting-down");
        }
    }
    w.obj_close();
    w.finish()
}

/// The response to a poll.
pub fn poll_response(state: Option<&PollState>, id: u64) -> String {
    let mut w = Writer::new();
    w.obj_open();
    match state {
        None => {
            w.key("ok");
            w.bool(false);
            w.key("error");
            w.str("unknown-job");
            w.key("id");
            w.num(i128::from(id));
        }
        Some(PollState::Queued) => {
            w.key("ok");
            w.bool(true);
            w.key("state");
            w.str("queued");
        }
        Some(PollState::Running) => {
            w.key("ok");
            w.bool(true);
            w.key("state");
            w.str("running");
        }
        Some(PollState::Done(out)) => {
            w.key("ok");
            w.bool(true);
            w.key("state");
            w.str("done");
            w.key("result");
            write_output(&mut w, out);
        }
    }
    w.obj_close();
    w.finish()
}

/// One job result as a standalone JSON document — what a poll response
/// embeds under `"result"`, and what the write-ahead log stores so a
/// recovered result can be replayed to clients byte for byte.
pub fn output_json(out: &JobOutput) -> String {
    let mut w = Writer::new();
    write_output(&mut w, out);
    w.finish()
}

fn write_output(w: &mut Writer, out: &JobOutput) {
    if let JobOutput::Recovered { summary, .. } = out {
        // The stored wire rendering of the original result, verbatim: a
        // client polling across a server restart sees identical bytes.
        w.raw(summary);
        return;
    }
    w.obj_open();
    w.key("kind");
    w.str(out.kind());
    match out {
        JobOutput::Finished(r) => {
            w.key("signature");
            w.str(&outcome_signature(&r.outcome));
            w.key("result");
            match r.outcome {
                InjectOutcome::Halted { result } => w.num(i128::from(result)),
                InjectOutcome::Faulted { .. } => w.null(),
            }
            w.key("instructions");
            w.num(i128::from(r.stats.instructions));
            w.key("events");
            w.num(r.events.len() as i128);
        }
        JobOutput::Supervised(r) => {
            w.key("outcome");
            w.str(&match &r.outcome {
                SupervisorOutcome::Halted { result } => format!("halt {result}"),
                SupervisorOutcome::Faulted { error } => format!("fault: {error}"),
                SupervisorOutcome::WatchdogExpired => "watchdog".to_owned(),
                SupervisorOutcome::DeadlineExceeded => "deadline".to_owned(),
            });
            w.key("attempts");
            w.num(i128::from(r.attempts));
            w.key("rollbacks");
            w.num(i128::from(r.rollbacks));
            w.key("escalations");
            w.num(i128::from(r.escalations));
            w.key("instructions");
            w.num(i128::from(r.stats.instructions));
            w.key("events");
            w.num(r.events.len() as i128);
        }
        JobOutput::TimedOut { stats, events } => {
            w.key("instructions");
            w.num(i128::from(stats.instructions));
            w.key("events");
            w.num(events.len() as i128);
        }
        JobOutput::SetupFailed { message } => {
            w.key("message");
            w.str(message);
        }
        JobOutput::Panicked { message, artifact } => {
            w.key("message");
            w.str(message);
            w.key("artifact");
            match artifact {
                None => w.null(),
                Some(path) => w.str(path),
            }
        }
        JobOutput::SnapshotRejected { message } => {
            w.key("message");
            w.str(message);
        }
        JobOutput::Recovered { .. } => unreachable!("handled above"),
    }
    w.key("digest");
    w.str(&format!("{:016x}", out.digest()));
    w.obj_close();
}

/// The response to a journal request: one chunk of the recorded journal
/// text, or a structured refusal when the job has no retained journal or
/// the sequence number is out of range.
pub fn journal_response(id: u64, seq: u64, journal: Option<&str>) -> String {
    let mut w = Writer::new();
    w.obj_open();
    let Some(text) = journal else {
        w.key("ok");
        w.bool(false);
        w.key("error");
        w.str("no-journal");
        w.key("id");
        w.num(i128::from(id));
        w.obj_close();
        return w.finish();
    };
    let bounds = chunk_bounds(text, JOURNAL_CHUNK_BYTES);
    let chunks = bounds.len() as u64;
    let Some(&(start, end)) = usize::try_from(seq).ok().and_then(|i| bounds.get(i)) else {
        w.key("ok");
        w.bool(false);
        w.key("error");
        w.str("bad-seq");
        w.key("id");
        w.num(i128::from(id));
        w.key("seq");
        w.num(i128::from(seq));
        w.key("chunks");
        w.num(i128::from(chunks));
        w.obj_close();
        return w.finish();
    };
    w.key("ok");
    w.bool(true);
    w.key("id");
    w.num(i128::from(id));
    w.key("seq");
    w.num(i128::from(seq));
    w.key("chunks");
    w.num(i128::from(chunks));
    w.key("bytes");
    w.num(text.len() as i128);
    w.key("data");
    w.str(&text[start..end]);
    w.key("last");
    w.bool(seq + 1 == chunks);
    w.obj_close();
    w.finish()
}

/// Chunk boundaries over `text`, each at most `chunk` bytes, split on
/// char boundaries so every chunk is valid UTF-8. An empty text still has
/// one (empty) chunk, so `chunks` is never zero.
fn chunk_bounds(text: &str, chunk: usize) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut start = 0usize;
    loop {
        let mut end = (start + chunk.max(1)).min(text.len());
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        bounds.push((start, end));
        if end == text.len() {
            return bounds;
        }
        start = end;
    }
}

/// The response to a status request.
pub fn status_response(status: &StatusReport) -> String {
    let mut w = Writer::new();
    w.obj_open();
    w.key("ok");
    w.bool(true);
    w.key("queues");
    w.arr_open();
    for q in &status.queues {
        w.obj_open();
        w.key("client");
        w.str(&q.client);
        w.key("weight");
        w.num(i128::from(q.weight));
        w.key("depth");
        w.num(q.depth as i128);
        w.obj_close();
    }
    w.arr_close();
    w.key("queued");
    w.num(status.queued as i128);
    w.key("running");
    w.num(status.running as i128);
    w.key("cached");
    w.num(status.cached as i128);
    w.key("counters");
    w.obj_open();
    let c = &status.counters;
    for (k, v) in [
        ("submitted", c.submitted),
        ("dedup_hits", c.dedup_hits),
        ("shed", c.shed),
        ("completed", c.completed),
        ("panics", c.panics),
        ("timeouts", c.timeouts),
        ("setup_failures", c.setup_failures),
        ("retries", c.retries),
        ("escalations", c.escalations),
        ("wal_replayed", c.wal_replayed),
        ("wal_reseeded", c.wal_reseeded),
        ("snapshots_rejected", c.snapshots_rejected),
    ] {
        w.key(k);
        w.num(i128::from(v));
    }
    w.obj_close();
    w.key("trap_totals");
    w.obj_open();
    for kind in TrapKind::ALL {
        w.key(&format!("{kind:?}"));
        w.num(i128::from(c.trap_totals[kind.index()]));
    }
    w.obj_close();
    w.obj_close();
    w.finish()
}

/// The acknowledgement sent before the server stops.
pub fn shutdown_response() -> String {
    let mut w = Writer::new();
    w.obj_open();
    w.key("ok");
    w.bool(true);
    w.key("state");
    w.str("shutting-down");
    w.obj_close();
    w.finish()
}

/// A structured parse/schema failure reply.
pub fn bad_request(message: &str) -> String {
    frame_error("bad-request", message)
}

/// A structured transport-level failure reply: oversized frames,
/// truncated frames, invalid UTF-8. Malformed input is always answered,
/// never dropped or panicked on.
pub fn frame_error(error: &str, message: &str) -> String {
    let mut w = Writer::new();
    w.obj_open();
    w.key("ok");
    w.bool(false);
    w.key("error");
    w.str(error);
    w.key("message");
    w.str(message);
    w.obj_close();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_request_round_trips() {
        let prog = Program {
            words: vec![10, 20],
            entry_offset: 4,
            data: vec![(64, vec![1, 2, 3])],
            symbols: Default::default(),
        };
        let line = submit_request(
            "alice",
            2,
            &prog,
            &[7, -3],
            &SimConfig::default(),
            &[0, 1, 5],
            true,
            120,
            "all",
            true,
            "direct",
            Some(500),
            false,
            None,
        );
        match parse_request(&line).unwrap() {
            Request::Submit {
                client,
                weight,
                specs,
            } => {
                assert_eq!(client, "alice");
                assert_eq!(weight, 2);
                assert_eq!(specs.len(), 3);
                assert_eq!(specs[2].inject.unwrap().seed, 5);
                assert_eq!(specs[0].inject.unwrap().rate, 120);
                assert_eq!(specs[0].args, vec![7, -3]);
                assert_eq!(specs[0].program.words, vec![10, 20]);
                assert_eq!(specs[0].program.data, vec![(64, vec![1, 2, 3])]);
                assert!(specs[0].recovery);
                assert_eq!(specs[0].timeout_ms, Some(500));
                assert_eq!(specs[0].mode, JobMode::Direct);
                assert_eq!(specs[0].cfg, SimConfig::default());
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_schema_errors() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"warp\"}").is_err());
        assert!(parse_request("{\"op\":\"poll\"}").is_err(), "missing id");
        // Empty seed lists are rejected before touching the queues.
        let line = "{\"op\":\"submit\",\"client\":\"c\",\"args\":[],\"seeds\":[],\
                    \"program\":{\"words\":[1],\"entry_offset\":0}}";
        assert!(parse_request(line).is_err());
        // A mode this server does not run is a structured schema error
        // naming the modes it does. The frame is a submit in the retired
        // checkpoint-parallel mode; its names are spelled with `h` escapes
        // (JSON `\u0068`, Rust `\u{68}`) so the retired feature's name
        // appears nowhere in the tree.
        let retired = "{\"op\":\"submit\",\"client\":\"c\",\"args\":[],\"seeds\":[1],\
                       \"program\":{\"words\":[1],\"entry_offset\":0},\
                       \"mode\":\"s\\u0068arded\",\"s\\u0068ard_cycles\":300,\"threads\":2}";
        assert_eq!(
            parse_request(retired).unwrap_err().to_string(),
            "schema error: mode: unknown mode \"s\u{68}arded\" (direct | supervised)"
        );
    }

    #[test]
    fn poll_and_control_requests_parse() {
        match parse_request("{\"op\":\"poll\",\"id\":9,\"wait_ms\":50}").unwrap() {
            Request::Poll { id, wait_ms } => {
                assert_eq!(id, 9);
                assert_eq!(wait_ms, Some(50));
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert!(matches!(
            parse_request("{\"op\":\"status\"}").unwrap(),
            Request::Status
        ));
        assert!(matches!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        ));
        match parse_request("{\"op\":\"journal\",\"id\":4,\"seq\":2}").unwrap() {
            Request::Journal { id, seq } => {
                assert_eq!((id, seq), (4, 2));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn spec_round_trips_through_the_wal_format() {
        let spec = JobSpec {
            program: Program {
                words: vec![7, 8, 9],
                entry_offset: 4,
                data: vec![(128, vec![1, 2])],
                symbols: Default::default(),
            },
            args: vec![3, -4],
            cfg: SimConfig::default(),
            inject: Some(InjectConfig::with_seed(11)),
            recovery: true,
            mode: JobMode::Supervised {
                ckpt_every: 500,
                max_retries: 2,
            },
            timeout_ms: Some(750),
            snapshot: None,
            journal: true,
        };
        let mut w = Writer::new();
        write_spec(&mut w, &spec);
        let text = w.finish();
        let back = parse_spec(&Parser::new(&text).parse_document().unwrap()).unwrap();
        assert_eq!(back.key(), spec.key(), "identity survives the round trip");
        assert_eq!(back.args, spec.args);
        assert_eq!(back.inject, spec.inject);
        assert_eq!(back.mode, spec.mode);
        assert_eq!(back.timeout_ms, spec.timeout_ms);
        assert!(back.journal);
        // And serialization is stable: a second round trip is byte-equal.
        let mut w2 = Writer::new();
        write_spec(&mut w2, &back);
        assert_eq!(w2.finish(), text);
    }

    #[test]
    fn journal_chunks_cover_the_text_and_reject_bad_seqs() {
        let text = "j".repeat(JOURNAL_CHUNK_BYTES + 17);
        let bounds = chunk_bounds(&text, JOURNAL_CHUNK_BYTES);
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[0], (0, JOURNAL_CHUNK_BYTES));
        assert_eq!(bounds[1], (JOURNAL_CHUNK_BYTES, text.len()));
        // Empty journals still answer one (empty, last) chunk.
        assert_eq!(chunk_bounds("", JOURNAL_CHUNK_BYTES), vec![(0, 0)]);

        let last = journal_response(9, 1, Some(&text));
        assert!(last.contains("\"last\":true"), "{last}");
        let bad = journal_response(9, 2, Some(&text));
        assert!(bad.contains("\"error\":\"bad-seq\""), "{bad}");
        let none = journal_response(9, 0, None);
        assert!(none.contains("\"error\":\"no-journal\""), "{none}");
    }

    #[test]
    fn snapshot_submits_reject_incompatible_modes() {
        // A malformed snapshot value is a schema error, not a panic.
        let bad = "{\"op\":\"submit\",\"client\":\"c\",\"args\":[],\"seeds\":[1],\
                   \"program\":{\"words\":[1],\"entry_offset\":0},\"snapshot\":7}";
        assert!(parse_request(bad).is_err());
        // journal recording is direct-mode only.
        let sup = "{\"op\":\"submit\",\"client\":\"c\",\"args\":[],\"seeds\":[1],\
                   \"program\":{\"words\":[1],\"entry_offset\":0},\
                   \"journal\":true,\"mode\":\"supervised\"}";
        assert!(parse_request(sup).is_err());
    }
}
