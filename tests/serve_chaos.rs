//! Chaos test for the batch execution service: the transparency law under
//! concurrent load.
//!
//! Two clients hammer one [`ExecService`] with a mixed campaign — clean
//! runs, fault-injected runs with and without recovery handlers,
//! supervised runs, and wall-clock-doomed runs — and every accepted job
//! must come back **bit-identical** to executing the same spec directly,
//! with zero panics and zero silent drops. Resubmitting the direct jobs
//! under other engine tiers and fusion settings must dedup, and the
//! replayed wire bytes must equal a direct run under the new tier; so must
//! a frame carrying the `record_trace` flag older builds configured.
//! Overload is exercised separately: a submission that would overflow its
//! client's queue must be rejected with a structured [`Overloaded`],
//! counted as shed, and the service must keep serving afterwards.
//! So is retention: a resubmission dedups only while its job is retained.

use risc1::core::inject::{InjectConfig, InjectModes};
use risc1::core::{ExecEngine, FusionConfig, Program, SimConfig};
use risc1::ir::{
    compile_risc, run_risc, run_risc_deadline, run_risc_injected, run_risc_supervised,
    InjectReport, RiscOpts, SupervisorConfig, TimedOutcome,
};
use risc1::serve::wire;
use risc1::workloads::by_id;
use risc1::{ExecService, JobMode, JobOutput, JobSpec, PollState, ServiceConfig, SubmitError};
use std::collections::HashMap;
use std::time::Duration;

/// One compiled workload with a fuel-bounded config and an injection rate
/// tuned to ~4 perturbations per run (the repo-wide sweep convention).
struct Compiled {
    prog: Program,
    args: Vec<i32>,
    cfg: SimConfig,
    rate: u32,
    instructions: u64,
}

fn compiled(id: &str) -> Compiled {
    let w = by_id(id).expect("suite workload");
    let prog = compile_risc(&w.module, RiscOpts::default()).expect("suite compiles");
    let (_, base) = run_risc(&prog, &w.small_args).expect("suite runs clean");
    let cfg = SimConfig {
        fuel: base.instructions * 3 + 10_000,
        ..SimConfig::default()
    };
    let rate = (4 * 10_000 / base.instructions.max(1)).clamp(1, 500) as u32;
    Compiled {
        prog,
        args: w.small_args.clone(),
        cfg,
        rate,
        instructions: base.instructions,
    }
}

/// The campaign one client runs against one pair of workloads: per
/// workload, four injected direct runs (recovery alternating), one clean
/// run and one supervised run — plus one run doomed by a zero-budget
/// watchdog.
fn campaign(workloads: &[&Compiled]) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for w in workloads {
        for seed in 1..=4u64 {
            specs.push(JobSpec {
                program: w.prog.clone(),
                args: w.args.clone(),
                cfg: w.cfg.clone(),
                inject: Some(InjectConfig {
                    seed,
                    rate: w.rate,
                    modes: InjectModes::all(),
                }),
                recovery: seed % 2 == 0,
                mode: JobMode::Direct,
                timeout_ms: None,
                snapshot: None,
                journal: false,
            });
        }
        specs.push(JobSpec {
            program: w.prog.clone(),
            args: w.args.clone(),
            cfg: w.cfg.clone(),
            inject: None,
            recovery: false,
            mode: JobMode::Direct,
            timeout_ms: None,
            snapshot: None,
            journal: false,
        });
        specs.push(JobSpec {
            program: w.prog.clone(),
            args: w.args.clone(),
            cfg: w.cfg.clone(),
            inject: Some(InjectConfig {
                seed: 5,
                rate: w.rate,
                modes: InjectModes::all(),
            }),
            recovery: true,
            mode: JobMode::Supervised {
                ckpt_every: (w.instructions / 8).max(500),
                max_retries: 4,
            },
            timeout_ms: None,
            snapshot: None,
            journal: false,
        });
    }
    // Doomed: a zero-millisecond watchdog expires before the first step,
    // so the timeout path is deterministic.
    let w = workloads[0];
    specs.push(JobSpec {
        program: w.prog.clone(),
        args: w.args.clone(),
        cfg: w.cfg.clone(),
        inject: Some(InjectConfig {
            seed: 9,
            rate: w.rate,
            modes: InjectModes::all(),
        }),
        recovery: true,
        mode: JobMode::Direct,
        timeout_ms: Some(0),
        snapshot: None,
        journal: false,
    });
    specs
}

/// The report of running a direct-mode `spec` with no service in between.
fn direct_report(spec: &JobSpec) -> InjectReport {
    match spec.inject {
        Some(icfg) => run_risc_injected(
            &spec.program,
            &spec.args,
            spec.cfg.clone(),
            icfg,
            spec.recovery,
        )
        .expect("setup is valid"),
        None => {
            match run_risc_deadline(
                &spec.program,
                &spec.args,
                spec.cfg.clone(),
                None,
                spec.recovery,
                None,
                None,
            )
            .expect("setup is valid")
            {
                TimedOutcome::Finished(r) => r,
                TimedOutcome::TimedOut { .. } => unreachable!("no deadline configured"),
            }
        }
    }
}

/// Runs `spec` directly (no service) and asserts the served output is
/// bit-identical — the transparency law, spec shape by spec shape.
fn assert_transparent(spec: &JobSpec, out: &JobOutput) {
    match (spec.mode, spec.timeout_ms) {
        (JobMode::Direct, Some(0)) => {
            let JobOutput::TimedOut { stats, .. } = out else {
                panic!("zero-budget job must time out, got {}", out.kind());
            };
            assert_eq!(stats.instructions, 0, "the watchdog fires before step 0");
        }
        (JobMode::Direct, _) => {
            let JobOutput::Finished(served) = out else {
                panic!("direct job must finish, got {}", out.kind());
            };
            assert_eq!(
                served,
                &direct_report(spec),
                "served report diverged from direct run"
            );
        }
        (
            JobMode::Supervised {
                ckpt_every,
                max_retries,
            },
            _,
        ) => {
            let direct = run_risc_supervised(
                &spec.program,
                &spec.args,
                spec.cfg.clone(),
                spec.inject,
                spec.recovery,
                SupervisorConfig {
                    ckpt_every,
                    max_retries,
                    ..SupervisorConfig::default()
                },
            )
            .expect("setup is valid");
            assert_eq!(
                out.digest(),
                JobOutput::Supervised(direct).digest(),
                "served supervised report diverged from direct run"
            );
        }
    }
}

#[test]
fn concurrent_mixed_campaigns_are_bit_identical_to_direct_execution() {
    let fib = compiled("fib");
    let sieve = compiled("sieve");
    let hanoi = compiled("hanoi");
    let qsort = compiled("qsort");
    let alpha_specs = campaign(&[&fib, &sieve]);
    let beta_specs = campaign(&[&hanoi, &qsort]);
    assert!(alpha_specs.len() + beta_specs.len() >= 24);

    let service = ExecService::start(ServiceConfig::default());
    let collected: Vec<Vec<(JobSpec, JobOutput)>> = std::thread::scope(|scope| {
        let clients = [("alpha", 2u32, &alpha_specs), ("beta", 1, &beta_specs)];
        let handles: Vec<_> = clients
            .map(|(name, weight, specs)| {
                let service = &service;
                scope.spawn(move || {
                    let tickets = service
                        .submit(name, weight, specs.clone())
                        .expect("the campaign fits the queue");
                    assert!(
                        tickets.iter().all(|t| !t.dedup),
                        "{name}: all specs are distinct, nothing should dedup"
                    );
                    tickets
                        .iter()
                        .zip(specs.iter())
                        .map(|(t, spec)| {
                            let state = service
                                .wait(t.id, Duration::from_secs(120))
                                .expect("ticketed jobs are pollable");
                            let PollState::Done(out) = state else {
                                panic!("{name}: job {} not done within budget", t.id);
                            };
                            (spec.clone(), out)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .into_iter()
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no client panics"))
            .collect()
    });

    let mut digests: HashMap<risc1::serve::JobKey, u64> = HashMap::new();
    for (spec, out) in collected.iter().flatten() {
        assert!(
            !matches!(out, JobOutput::Panicked { .. }),
            "a worker panicked: {out:?}"
        );
        assert_transparent(spec, out);
        digests.insert(spec.key(), out.digest());
    }

    // Idempotency: a third client resubmitting alpha's whole campaign gets
    // only dedup tickets, and every replayed result carries the digest of
    // the original execution.
    let tickets = service
        .submit("gamma", 1, alpha_specs.clone())
        .expect("dedup consumes no queue space");
    assert!(
        tickets.iter().all(|t| t.dedup),
        "all resubmissions must dedup"
    );
    for (t, spec) in tickets.iter().zip(&alpha_specs) {
        let Some(PollState::Done(out)) = service.poll(t.id) else {
            panic!("deduped job {} must already be done", t.id);
        };
        assert_eq!(
            out.digest(),
            digests[&spec.key()],
            "deduped result diverged from the original execution"
        );
    }

    // Cross-engine resubmit: engine tier and fusion are host-only, so
    // every direct job resubmitted under another tier (fusion off) is a
    // dedup hit, and its replayed wire bytes equal a direct run under that
    // tier.
    let tiers = [ExecEngine::Uncached, ExecEngine::Cached, ExecEngine::Trace];
    let cross: Vec<JobSpec> = alpha_specs
        .iter()
        .chain(&beta_specs)
        .filter(|spec| spec.mode == JobMode::Direct && spec.timeout_ms.is_none())
        .enumerate()
        .map(|(i, spec)| {
            let mut spec = spec.clone();
            spec.cfg.engine = tiers[i % tiers.len()];
            spec.cfg.fusion = FusionConfig::none();
            spec
        })
        .collect();
    let tickets = service
        .submit("delta", 1, cross.clone())
        .expect("dedup consumes no queue space");
    assert!(
        tickets.iter().all(|t| t.dedup),
        "a tier change must not miss dedup"
    );
    for (t, spec) in tickets.iter().zip(&cross) {
        let Some(PollState::Done(out)) = service.poll(t.id) else {
            panic!("deduped job {} must already be done", t.id);
        };
        assert_eq!(
            wire::output_json(&out),
            wire::output_json(&JobOutput::Finished(direct_report(spec))),
            "{:?}: replayed wire bytes diverged from a direct run",
            spec.cfg.engine
        );
    }

    let status = service.status();
    let total = (alpha_specs.len() + beta_specs.len()) as u64;
    assert_eq!(
        status.counters.completed, total,
        "every accepted job finishes"
    );
    assert_eq!(status.counters.panics, 0);
    assert_eq!(status.counters.shed, 0);
    assert_eq!(status.counters.timeouts, 2, "one doomed job per client");
    assert_eq!(
        status.counters.dedup_hits,
        (alpha_specs.len() + cross.len()) as u64
    );
    assert_eq!(status.queued, 0, "nothing may linger in the queues");
    service.shutdown();
}

#[test]
fn overload_is_a_structured_rejection_not_a_silent_drop() {
    let fib = compiled("fib");
    let service = ExecService::start(ServiceConfig {
        queue_cap: 4,
        ..ServiceConfig::default()
    });
    let flood: Vec<JobSpec> = (100..108u64)
        .map(|seed| JobSpec {
            program: fib.prog.clone(),
            args: fib.args.clone(),
            cfg: fib.cfg.clone(),
            inject: Some(InjectConfig {
                seed,
                rate: fib.rate,
                modes: InjectModes::all(),
            }),
            recovery: false,
            mode: JobMode::Direct,
            timeout_ms: None,
            snapshot: None,
            journal: false,
        })
        .collect();

    // 8 fresh jobs against a 4-slot queue: the whole submission is shed,
    // atomically, with a structured error that renders.
    let err = service
        .submit("flood", 1, flood.clone())
        .expect_err("8 fresh jobs cannot fit a 4-slot queue");
    match &err {
        SubmitError::Overloaded(o) => {
            assert_eq!(o.capacity, 4);
            assert_eq!(o.rejected, 8);
            assert_eq!(o.client, "flood");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let _ = err.to_string();
    assert_eq!(service.status().counters.shed, 8);

    // Degradation is graceful: a submission that fits is still served.
    let tickets = service
        .submit("flood", 1, flood[..2].to_vec())
        .expect("2 jobs fit a 4-slot queue");
    for t in &tickets {
        let state = service
            .wait(t.id, Duration::from_secs(120))
            .expect("ticketed jobs are pollable");
        assert!(
            matches!(state, PollState::Done(JobOutput::Finished(_))),
            "post-shed jobs must still execute"
        );
    }
    assert_eq!(service.status().counters.completed, 2);
    service.shutdown();
}

/// Retention is the dedup boundary. With `cache_cap` 2, a resubmission of
/// a retained job dedups to its id; once two newer completions have pushed
/// that job out, the same resubmission runs again under a fresh id, to the
/// same digest.
#[test]
fn a_resubmission_dedups_while_retained_and_reruns_once_evicted() {
    let fib = compiled("fib");
    let service = ExecService::start(ServiceConfig {
        cache_cap: 2,
        ..ServiceConfig::default()
    });
    let job = |seed: u64| JobSpec {
        program: fib.prog.clone(),
        args: fib.args.clone(),
        cfg: fib.cfg.clone(),
        inject: Some(InjectConfig {
            seed,
            rate: fib.rate,
            modes: InjectModes::all(),
        }),
        recovery: false,
        mode: JobMode::Direct,
        timeout_ms: None,
        snapshot: None,
        journal: false,
    };
    let run = |spec: JobSpec| {
        let ticket = service.submit("retain", 1, vec![spec]).expect("fits")[0];
        match service.wait(ticket.id, Duration::from_secs(120)) {
            Some(PollState::Done(out)) => (ticket, out.digest()),
            other => panic!("job {} did not finish: {other:?}", ticket.id),
        }
    };

    let (first, digest) = run(job(1));
    assert!(!first.dedup);
    let (again, again_digest) = run(job(1));
    assert!(again.dedup, "a retained job serves dedup");
    assert_eq!((again.id, again_digest), (first.id, digest));
    assert_eq!(service.status().cached, 1);

    run(job(2));
    run(job(3));
    assert_eq!(service.status().cached, 2, "retention holds the last two");
    assert!(service.poll(first.id).is_none(), "the first job has left");
    let (rerun, rerun_digest) = run(job(1));
    assert!(!rerun.dedup, "a job past retention runs again");
    assert!(rerun.id > first.id, "under a fresh id");
    assert_eq!(rerun_digest, digest, "to the same digest");
    let c = service.status().counters;
    assert_eq!((c.submitted, c.dedup_hits, c.completed), (4, 1, 4));
    service.shutdown();
}

#[test]
fn the_wire_protocol_round_trips_over_real_sockets() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let fib = compiled("fib");
    let service = ExecService::start(ServiceConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|scope| {
        let server = scope.spawn(|| risc1::serve::serve_tcp(&service, listener));

        let stream = TcpStream::connect(addr).expect("connect");
        let mut rx = BufReader::new(stream.try_clone().expect("clone"));
        let mut tx = stream;
        let mut roundtrip = |req: &str| -> String {
            tx.write_all(req.as_bytes()).expect("send");
            tx.write_all(b"\n").expect("send");
            let mut line = String::new();
            rx.read_line(&mut line).expect("recv");
            line
        };

        let submit = wire::submit_request(
            "tcp",
            1,
            &fib.prog,
            &fib.args,
            &fib.cfg,
            &[21, 22],
            true,
            fib.rate,
            "all",
            true,
            "direct",
            None,
            false,
            None,
        );
        let reply = roundtrip(&submit);
        assert!(reply.contains("\"ok\":true"), "submit failed: {reply}");
        // Job ids are 1 and 2 on a fresh service; wait for both and check
        // the served digests against direct runs.
        for (id, seed) in [(1u64, 21u64), (2, 22)] {
            let reply = roundtrip(&format!(
                "{{\"op\":\"poll\",\"id\":{id},\"wait_ms\":120000}}"
            ));
            let direct = run_risc_injected(
                &fib.prog,
                &fib.args,
                fib.cfg.clone(),
                InjectConfig {
                    seed,
                    rate: fib.rate,
                    modes: InjectModes::all(),
                },
                true,
            )
            .expect("setup is valid");
            let want = format!("{:016x}", JobOutput::Finished(direct).digest());
            assert!(
                reply.contains(&want),
                "seed {seed}: digest {want} not in {reply}"
            );
        }
        // Malformed input is a structured bad-request, not a dropped
        // connection.
        let reply = roundtrip("this is not json");
        assert!(reply.contains("bad-request"), "got {reply}");

        let reply = roundtrip("{\"op\":\"shutdown\"}");
        assert!(reply.contains("shutting-down"), "got {reply}");
        server
            .join()
            .expect("server thread exits")
            .expect("accept loop exits cleanly");
    });
}

/// Builds older than the retirement recorder kept a `record_trace` flag in
/// the configuration, and a client may still send one. It names no machine
/// state, so it changes nothing: the flagged frame gets the dedup key and
/// the result bytes of the same frame without it.
#[test]
fn a_record_trace_flag_in_a_submit_changes_nothing() {
    let fib = compiled("fib");
    let frame = wire::submit_request(
        "plain",
        1,
        &fib.prog,
        &fib.args,
        &fib.cfg,
        &[3, 4],
        true,
        fib.rate,
        "all",
        true,
        "direct",
        None,
        false,
        None,
    );
    let flagged = frame.replace(
        "\"trap_base\":null,",
        "\"trap_base\":null,\"record_trace\":true,",
    );
    assert_ne!(flagged, frame, "the frame carries a config");
    let specs = |line: &str| match wire::parse_request(line).expect("parses") {
        wire::Request::Submit { specs, .. } => specs,
        other => panic!("not a submit: {other:?}"),
    };
    let (plain, traced) = (specs(&frame), specs(&flagged));
    let service = ExecService::start(ServiceConfig::default());
    let done = |id| match service.wait(id, Duration::from_secs(120)) {
        Some(PollState::Done(out)) => out,
        other => panic!("job {id} did not finish: {other:?}"),
    };
    let first = service.submit("plain", 1, plain.clone()).expect("admitted");
    let want: Vec<String> = first
        .iter()
        .map(|t| wire::output_json(&done(t.id)))
        .collect();
    let second = service
        .submit("flagged", 1, traced.clone())
        .expect("admitted");
    for (i, t) in second.iter().enumerate() {
        assert_eq!(traced[i].key(), plain[i].key(), "seed {}", i + 3);
        assert!(t.dedup, "seed {}: the flagged frame must dedup", i + 3);
        assert_eq!(wire::output_json(&done(t.id)), want[i], "seed {}", i + 3);
    }
    service.shutdown();
}
