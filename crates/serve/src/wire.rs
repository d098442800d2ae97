//! The JSON wire protocol: newline-delimited request/response objects.
//!
//! Requests (one object per line):
//!
//! ```text
//! {"op":"submit","client":"a","weight":2,"seeds":[0,1,2],
//!  "program":{"entry_offset":0,"words":[…],"data":[{"addr":N,"bytes":[…]}]},
//!  "args":[9],"cfg":{…},                      // cfg optional (defaults)
//!  "inject":true,"rate":120,"modes":"all",    // or "transparent" | "none"
//!  "recovery":true,"mode":"direct",           // or "supervised" (with
//!                                             // optional "ckpt_every",
//!                                             // "max_retries")
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
//! A submit request is the one schema of a job: the write-ahead log stores
//! each admitted job as its one-seed request and reads it back here. A
//! submit that breaks a submit rule (see [`JobSpec`]'s `snapshot`,
//! `journal` and `mode`) is a `bad-request`.
//!
//! Journals stream in bounded, sequence-numbered chunks
//! ([`JOURNAL_CHUNK_BYTES`]); each request for chunk `seq` acknowledges
//! everything before it, so a slow client backpressures itself.
//!
//! Every response carries `"ok"`; failures are structured, e.g. an
//! overloaded queue answers
//! `{"ok":false,"error":"overloaded","depth":64,"capacity":64,…}` — load
//! shedding is a first-class reply, never a dropped connection, and so is
//! a submission whose admission the write-ahead log could not record
//! (`{"ok":false,"error":"unavailable","message":…}`). Finished
//! jobs report a 64-bit FNV `digest` of (outcome signature, instructions,
//! trap counts, event log) so clients can verify bit-identity against a
//! local run without shipping the full report.
//!
//! Each request is declared once ([`RequestField`], a tagged union over
//! `op`), and a submit's job fields are one record beside its client
//! fields; [`parse_request`] reads by the declaration and
//! [`submit_request`] writes by it. The config object is the one
//! [`SimConfig`] record journals and snapshots use, so a journal's
//! `config` block pastes directly into a submit request's `cfg`.
//! Responses are written by hand.

use crate::job::{JobMode, JobOutput, JobSpec};
use crate::queue::Overloaded;
use crate::service::{PollState, StatusReport, SubmitError, SubmitTicket};
use risc1_core::inject::InjectModes;
use risc1_core::json::{
    get_opt, num, obj, omit, or, sparse, Codec, Embed, Field, Flag, Json, JsonError, List, Named,
    Num, Omit, Parser, Record, Text, Then, Writer,
};
use risc1_core::snapshot::{Fnv64, Snapshot};
use risc1_core::{InjectConfig, Program, SimConfig, TrapKind};
use risc1_ir::{outcome_signature, InjectOutcome, SupervisorConfig, SupervisorOutcome};

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
    read_request(&Parser::new(line).parse_document()?)
}

/// Reads one parsed request object: [`parse_request`] after the JSON
/// parse, and how the write-ahead log reads the submit request it stores
/// for each admitted job.
pub(crate) fn read_request(doc: &Json) -> Result<Request, JsonError> {
    REQUEST.get(doc, "request")
}

/// A request as one object, its operation named under `op`: the
/// declaration [`parse_request`] reads by and every submit request is
/// written by.
pub const REQUEST: Embed<RequestField> = Embed(RequestField, "op");

risc1_core::tagged! {
    /// A request: its operation's name, and that operation's fields beside
    /// it.
    pub RequestField: Request {
        "submit" => Submit {
            "client" => client: Text,
            // A weight of 0 reads as 1.
            "weight" => weight: or(Then(num(0..=u32::MAX), |w: u32| Ok(w.max(1))), || 1),
            "program" => specs: Jobs,
        },
        "poll" => Poll {
            "id" => id: num(0..=u64::MAX),
            "wait_ms" => wait_ms: omit(num(0..=u64::MAX)),
        },
        "journal" => Journal {
            "id" => id: num(0..=u64::MAX),
            "seq" => seq: or(num(0..=u64::MAX), || 0),
        },
        "status" => Status {},
        "shutdown" => Shutdown {},
    }
}

// A spec's fields in a submit request. Its injection field spells the
// request's seeds too, which `Jobs` reads to make one spec of each.
risc1_core::record! {
    JobSpec [campaign: Campaign] {
        "program" => program: obj(),
        "args" => args: List(num(i32::MIN..=i32::MAX)),
        "cfg" => cfg: or(obj(), SimConfig::default),
        SEEDS_KEY => inject: Injection(campaign),
        "recovery" => recovery: or(Flag, || false),
        "mode" => mode: or(ModeField, || JobMode::Direct),
        "timeout_ms" => timeout_ms: omit(num(0..=u64::MAX)),
        "journal" => journal: sparse(Flag, || false),
        "snapshot" => snapshot: Omit {
            field: obj(),
            null_is_absent: true,
        },
    }
}

risc1_core::tagged! {
    /// How a job runs, and a supervised job's checkpoint interval and
    /// retry budget beside it.
    ModeField: JobMode {
        "direct" => Direct {},
        "supervised" => Supervised {
            "ckpt_every" => ckpt_every: or(num(0..=u64::MAX), || {
                SupervisorConfig::default().ckpt_every
            }),
            "max_retries" => max_retries: or(num(0..=u32::MAX), || {
                SupervisorConfig::default().max_retries
            }),
        },
    }
}

/// What a submit request adds to the spec it writes: the seeds it runs
/// under, one job each, and the rate and modes a clean request carries,
/// unread.
pub struct Campaign {
    seeds: Vec<u64>,
    unread: InjectConfig,
}

const SEEDS_KEY: &str = "seeds";

/// A submit's seeds: one job each, at least one and at most
/// [`MAX_SEEDS_PER_SUBMIT`].
const SEEDS: Then<List<Num<u64>>, Vec<u64>> = Then(List(num(0..=u64::MAX)), |seeds| {
    match (1..=MAX_SEEDS_PER_SUBMIT).contains(&seeds.len()) {
        true => Ok(seeds),
        false => Err(JsonError::schema(&format!(
            "seeds: {} given, 1 to {MAX_SEEDS_PER_SUBMIT} per submit",
            seeds.len()
        ))),
    }
});

/// The injection mode sets a submit names in its `modes` field.
const MODE_SETS: [(&str, InjectModes); 3] = [
    ("all", InjectModes::All),
    ("transparent", InjectModes::Transparent),
    ("none", InjectModes::None),
];

const RATE: Num<u32> = num(0..=u32::MAX);
const MODES: Named<InjectModes> = Named(&MODE_SETS);

/// A spec's injection campaign: the request's seeds under the field's
/// key, then `inject`, `rate` and `modes`. An absent `inject` means a
/// campaign — unless the request warm-starts from a snapshot, which cannot
/// replay an injector schedule keyed from reset.
struct Injection<'a>(&'a Campaign);

impl Field<Option<InjectConfig>> for Injection<'_> {
    fn write(&self, w: &mut Writer, key: &str, v: &Option<InjectConfig>) {
        let campaign = v.unwrap_or(self.0.unread);
        SEEDS.write(w, key, &self.0.seeds);
        Flag.write(w, "inject", &v.is_some());
        RATE.write(w, "rate", &campaign.rate);
        MODES.write(w, "modes", &campaign.modes);
    }

    fn read(&self, obj: &[(String, Json)], _: &str) -> Result<Option<InjectConfig>, JsonError> {
        let inject = match get_opt(obj, "inject") {
            None => matches!(get_opt(obj, "snapshot"), None | Some(Json::Null)),
            Some(_) => Flag.read(obj, "inject")?,
        };
        Ok(inject.then_some(InjectConfig {
            seed: 0,
            rate: or(RATE, || InjectConfig::with_seed(0).rate).read(obj, "rate")?,
            modes: or(MODES, || InjectModes::All).read(obj, "modes")?,
        }))
    }

    /// A request is never hashed.
    fn hash(&self, _: &mut Fnv64, _: &Option<InjectConfig>) {}
}

/// A submit's jobs: one spec's fields and the seeds it runs under, read as
/// one spec per seed, each held to the submit rules, and written from the
/// first spec with every spec's seed. No jobs write no fields.
struct Jobs;

impl Field<Vec<JobSpec>> for Jobs {
    fn write(&self, w: &mut Writer, _: &str, specs: &Vec<JobSpec>) {
        if let Some(first) = specs.first() {
            let seeds = specs.iter().map(|s| s.inject.map_or(0, |i| i.seed));
            first.write_fields(w, &Campaign::clean(seeds.collect()));
        }
    }

    fn read(&self, obj: &[(String, Json)], _: &str) -> Result<Vec<JobSpec>, JsonError> {
        let spec = JobSpec::read_fields(obj, &Campaign::clean(Vec::new()))?;
        spec.check().map_err(JsonError::schema)?;
        let seeds = SEEDS.read(obj, SEEDS_KEY)?;
        Ok(seeds
            .into_iter()
            .map(|seed| JobSpec {
                inject: spec.inject.map(|i| InjectConfig { seed, ..i }),
                ..spec.clone()
            })
            .collect())
    }

    /// A request is never hashed.
    fn hash(&self, _: &mut Fnv64, _: &Vec<JobSpec>) {}
}

impl Campaign {
    /// `seeds`, with a clean request carrying the campaign defaults, which
    /// `inject: false` leaves unread.
    fn clean(seeds: Vec<u64>) -> Campaign {
        Campaign {
            seeds,
            unread: InjectConfig::with_seed(0),
        }
    }
}

/// Builds a complete submit request line (client-side convenience). A
/// `modes` or `mode` name this build does not know is written as `all` or
/// `direct`.
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
    let modes = MODE_SETS
        .into_iter()
        .find(|&(name, _)| name == modes)
        .map_or(InjectModes::All, |(_, m)| m);
    let campaign = InjectConfig {
        seed: 0,
        rate,
        modes,
    };
    let supervisor = SupervisorConfig::default();
    let spec = JobSpec {
        program: prog.clone(),
        args: args.to_vec(),
        cfg: cfg.clone(),
        inject: inject.then_some(campaign),
        recovery,
        mode: match mode {
            "supervised" => JobMode::Supervised {
                ckpt_every: supervisor.ckpt_every,
                max_retries: supervisor.max_retries,
            },
            _ => JobMode::Direct,
        },
        timeout_ms,
        snapshot: snapshot.map(|s| Box::new(s.clone())),
        journal,
    };
    // The request's client fields, then the spec's under this campaign,
    // so a clean request keeps the rate and modes it names.
    let head = Request::Submit {
        client: client.to_owned(),
        weight,
        specs: Vec::new(),
    };
    let campaign = Campaign {
        seeds: seeds.to_vec(),
        unread: campaign,
    };
    let mut w = Writer::new();
    w.obj_open();
    REQUEST.0.write(&mut w, REQUEST.1, &head);
    spec.write_fields(&mut w, &campaign);
    w.obj_close();
    w.finish()
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
        SubmitError::Unavailable(message) => {
            w.key("error");
            w.str("unavailable");
            w.key("message");
            w.str(message);
        }
        SubmitError::Invalid(message) => {
            w.key("error");
            w.str("bad-request");
            w.key("message");
            w.str(message);
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
        ("wal_admit_failures", c.wal_admit_failures),
        ("completed", c.completed),
        ("panics", c.panics),
        ("timeouts", c.timeouts),
        ("setup_failures", c.setup_failures),
        ("retries", c.retries),
        ("escalations", c.escalations),
        ("wal_replayed", c.wal_replayed),
        ("wal_reseeded", c.wal_reseeded),
        ("wal_torn", c.wal_torn),
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
        // A configuration no machine can be built from is refused at parse
        // time, before a worker sizes a window file or a page table by it.
        let prog = Program {
            words: vec![1],
            entry_offset: 0,
            data: Vec::new(),
            symbols: Default::default(),
        };
        let frame = submit_request(
            "c",
            1,
            &prog,
            &[],
            &SimConfig::default(),
            &[1],
            false,
            0,
            "none",
            false,
            "direct",
            None,
            false,
            None,
        );
        assert!(parse_request(&frame).is_ok());
        let trap = "\"trap_overhead_cycles\":8";
        for (from, to, ok) in [
            ("\"windows\":8", "\"windows\":1", false),
            ("\"windows\":8", "\"windows\":1099511627776", false),
            (
                "\"mem_bytes\":1048576",
                "\"mem_bytes\":1152921504606846976",
                false,
            ),
            (trap, "\"trap_overhead_cycles\":65536", true),
            (trap, "\"trap_overhead_cycles\":65537", false),
            (trap, "\"trap_overhead_cycles\":18446744073709551607", false),
        ] {
            let edited = frame.replace(from, to);
            assert_ne!(edited, frame, "{from} is in the frame");
            match parse_request(&edited) {
                Ok(_) => assert!(ok, "{to} must be refused"),
                Err(err) => assert!(!ok && matches!(err, JsonError::Schema(_)), "{to}: {err}"),
            }
        }
        // A supervised job must checkpoint at intervals of at least one
        // instruction.
        let supervised = frame.replace("\"mode\":\"direct\"", "\"mode\":\"supervised\"");
        assert_ne!(supervised, frame, "the frame names its mode");
        assert!(parse_request(&supervised).is_ok());
        for ckpt_every in [0, 1] {
            let frame = supervised.replace(
                "\"mode\":\"supervised\"",
                &format!("\"mode\":\"supervised\",\"ckpt_every\":{ckpt_every}"),
            );
            if ckpt_every == 0 {
                let err = parse_request(&frame).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    "schema error: ckpt_every: must be at least 1"
                );
            } else {
                assert!(parse_request(&frame).is_ok());
            }
        }
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
