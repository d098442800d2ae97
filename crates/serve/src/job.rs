//! Job identity and results: what a client asks the service to run, how
//! the service recognises a duplicate, and everything a finished job can
//! report back.

use risc1_core::snapshot::{config_hash, Fnv64, Snapshot};
use risc1_core::{ExecStats, InjectConfig, InjectEvent, Program, SimConfig, TrapKind};
use risc1_ir::{outcome_signature, InjectReport, SupervisorReport};

/// How a job is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobMode {
    /// One attempt, bit-identical to
    /// [`run_risc_injected`](risc1_ir::run_risc_injected) of the same
    /// `(program, args, cfg, inject, recovery)` — the law the chaos test
    /// enforces.
    Direct,
    /// Under the PR-3 supervisor: incremental checkpoints, rollback and
    /// retry with a fresh injector stream on structured faults, escalation
    /// to the campaign baseline when a retry makes no forward progress.
    Supervised {
        /// Checkpoint interval in instructions.
        ckpt_every: u64,
        /// Rollback attempts before the fault surfaces.
        max_retries: u32,
    },
}

/// One unit of work: a program plus everything that determines its result.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The compiled program image.
    pub program: Program,
    /// Arguments for `main`.
    pub args: Vec<i32>,
    /// Simulator configuration (engine tier, fuel, window count, …).
    pub cfg: SimConfig,
    /// Fault-injection campaign, or `None` for a pristine run.
    pub inject: Option<InjectConfig>,
    /// Whether to install the per-cause recovery stubs.
    pub recovery: bool,
    /// Execution mode.
    pub mode: JobMode,
    /// Per-job wall-clock watchdog, layered on fuel preemption. The
    /// [`Deadline`](risc1_core::Deadline) is armed when the job *starts
    /// executing*, not when it is queued.
    pub timeout_ms: Option<u64>,
    /// Warm start: resume from this checkpointed state instead of reset.
    /// Wire snapshots are untrusted — they pass the codec's admission
    /// limits at parse time and full checksum verification at restore
    /// time; any mismatch surfaces as [`JobOutput::SnapshotRejected`].
    /// Mutually exclusive with injection, supervision and journal
    /// recording (enforced at parse time).
    pub snapshot: Option<Box<Snapshot>>,
    /// Record a replay journal of the run and retain it for streamed
    /// download (`journal` wire requests). Direct mode only.
    pub journal: bool,
}

/// The idempotency key of a job: `(program hash, config hash, seed)`.
/// The config hash folds in everything else that determines the result —
/// the machine configuration, args, recovery, injection rate and modes,
/// execution mode, timeout — so equal keys imply bit-identical outputs and
/// the service may serve a duplicate submission from its result cache.
/// The host-only engine tier and fusion toggles are left out
/// ([`config_hash`]): the same job under another tier is a dedup hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobKey {
    /// FNV-1a over the program image (words, entry offset, data).
    pub program: u64,
    /// FNV-1a over the simulator config and the remaining spec fields.
    pub config: u64,
    /// The injection seed (0 for pristine runs).
    pub seed: u64,
}

impl JobSpec {
    /// The dedup key of this spec.
    pub fn key(&self) -> JobKey {
        let mut p = Fnv64::new();
        for &w in &self.program.words {
            p.write_u64(u64::from(w));
        }
        p.write_u64(u64::from(self.program.entry_offset));
        for (addr, bytes) in &self.program.data {
            p.write_u64(u64::from(*addr));
            p.write_bytes(bytes);
        }

        let mut c = Fnv64::new();
        c.write_u64(config_hash(&self.cfg));
        c.write_u64(self.args.len() as u64);
        for &a in &self.args {
            c.write_u64(a as u32 as u64);
        }
        c.write_u8(u8::from(self.recovery));
        match self.inject {
            None => c.write_u8(0),
            Some(i) => {
                c.write_u8(1);
                c.write_u64(u64::from(i.rate));
                c.write_u8(u8::from(i.modes.bit_flips));
                c.write_u8(u8::from(i.modes.spurious_interrupts));
                c.write_u8(u8::from(i.modes.decode_probes));
                c.write_u8(u8::from(i.modes.misalign_probes));
                c.write_u8(u8::from(i.modes.fuel_jitter));
                c.write_u8(u8::from(i.modes.wstack_corruption));
            }
        }
        match self.mode {
            JobMode::Direct => c.write_u8(0),
            JobMode::Supervised {
                ckpt_every,
                max_retries,
            } => {
                c.write_u8(1);
                c.write_u64(ckpt_every);
                c.write_u64(u64::from(max_retries));
            }
        }
        match self.timeout_ms {
            None => c.write_u8(0),
            Some(ms) => {
                c.write_u8(1);
                c.write_u64(ms);
            }
        }
        match &self.snapshot {
            None => c.write_u8(0),
            Some(s) => {
                // Identity of the prefix being skipped: fold the full
                // canonical serialization, not the snapshot's self-declared
                // checksum. Wire snapshots are untrusted — a tampered body
                // that keeps the original's stored checksum must not share
                // a key with the original, or dedup would serve it the
                // cached result instead of a restore-time rejection.
                c.write_u8(1);
                c.write_bytes(s.to_json().as_bytes());
            }
        }
        c.write_u8(u8::from(self.journal));

        JobKey {
            program: p.finish(),
            config: c.finish(),
            seed: self.inject.map_or(0, |i| i.seed),
        }
    }
}

/// Everything a completed job can report. Structured end to end: a panic
/// inside the simulator is caught, journaled, and lands here as
/// [`JobOutput::Panicked`] — never as a dead worker.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// A direct run completed; the report is bit-identical to
    /// [`run_risc_injected`](risc1_ir::run_risc_injected).
    Finished(InjectReport),
    /// A supervised run completed (possibly after rollbacks/escalations).
    Supervised(SupervisorReport),
    /// The wall-clock watchdog fired mid-run.
    TimedOut {
        /// Statistics at the moment the run was stopped.
        stats: ExecStats,
        /// Faults the injector had applied so far.
        events: Vec<InjectEvent>,
    },
    /// The run could not be arranged (image too large, too many args).
    SetupFailed {
        /// The rendered setup error.
        message: String,
    },
    /// The job panicked; the worker caught it and journaled the applied
    /// events to the replay-artifacts funnel.
    Panicked {
        /// The panic payload, rendered.
        message: String,
        /// Path of the journal written for offline replay, when the write
        /// succeeded.
        artifact: Option<String>,
    },
    /// The warm-start snapshot failed restore-time verification
    /// (corruption, version skew, or a configuration mismatch). Always a
    /// structured rejection, never a panic.
    SnapshotRejected {
        /// The rendered [`RestoreError`](risc1_core::RestoreError).
        message: String,
    },
    /// Re-seeded from the write-ahead log after a restart. The summary is
    /// the stored wire rendering of the original result, replayed
    /// verbatim, so responses are byte-identical across the restart.
    Recovered {
        /// The original output's kind tag.
        kind: String,
        /// The original output's digest.
        digest: u64,
        /// The original result object exactly as it was serialized.
        summary: String,
    },
}

impl JobOutput {
    /// A short machine-readable tag for wire responses and logs. For a
    /// recovered result this is the *original* output's tag, so clients
    /// cannot tell a re-seeded result from a live one.
    pub fn kind(&self) -> &str {
        match self {
            JobOutput::Finished(_) => "finished",
            JobOutput::Supervised(_) => "supervised",
            JobOutput::TimedOut { .. } => "timeout",
            JobOutput::SetupFailed { .. } => "setup-error",
            JobOutput::Panicked { .. } => "panic",
            JobOutput::SnapshotRejected { .. } => "snapshot-rejected",
            JobOutput::Recovered { kind, .. } => kind,
        }
    }

    /// A 64-bit identity digest of the output, so a remote client can
    /// check bit-identity against a local run without shipping the full
    /// report over the wire. Folds the outcome signature, instructions
    /// retired, per-cause trap counts and the applied-event log.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        match self {
            JobOutput::Finished(r) => {
                h.write_u8(1);
                fold_report(&mut h, &outcome_signature(&r.outcome), &r.stats, &r.events);
            }
            JobOutput::Supervised(r) => {
                h.write_u8(2);
                fold_report(&mut h, &format!("{:?}", r.outcome), &r.stats, &r.events);
                h.write_u64(u64::from(r.attempts));
                h.write_u64(u64::from(r.rollbacks));
                h.write_u64(u64::from(r.escalations));
            }
            JobOutput::TimedOut { stats, events } => {
                h.write_u8(3);
                fold_report(&mut h, "timeout", stats, events);
            }
            JobOutput::SetupFailed { message } => {
                h.write_u8(4);
                h.write_bytes(message.as_bytes());
            }
            JobOutput::Panicked { message, .. } => {
                h.write_u8(5);
                h.write_bytes(message.as_bytes());
            }
            JobOutput::SnapshotRejected { message } => {
                h.write_u8(6);
                h.write_bytes(message.as_bytes());
            }
            // A recovered result keeps the original execution's digest —
            // the restart bit-identity law on the wire.
            JobOutput::Recovered { digest, .. } => return *digest,
        }
        h.finish()
    }
}

fn fold_report(h: &mut Fnv64, signature: &str, stats: &ExecStats, events: &[InjectEvent]) {
    h.write_bytes(signature.as_bytes());
    h.write_u64(stats.instructions);
    for kind in TrapKind::ALL {
        h.write_u64(stats.trap_count(kind));
    }
    h.write_u64(events.len() as u64);
    for ev in events {
        h.write_bytes(ev.to_string().as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risc1_core::{ExecEngine, FusionConfig, InjectConfig};

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            program: Program {
                words: vec![1, 2, 3],
                entry_offset: 0,
                data: vec![(64, vec![9, 9])],
                symbols: Default::default(),
            },
            args: vec![5],
            cfg: SimConfig::default(),
            inject: Some(InjectConfig::with_seed(seed)),
            recovery: true,
            mode: JobMode::Direct,
            timeout_ms: None,
            snapshot: None,
            journal: false,
        }
    }

    #[test]
    fn key_separates_every_identity_dimension() {
        let base = spec(7).key();
        assert_eq!(base, spec(7).key(), "keys are deterministic");
        assert_ne!(base, spec(8).key(), "seed");

        let mut other = spec(7);
        other.args = vec![6];
        assert_ne!(base, other.key(), "args");

        let mut other = spec(7);
        other.recovery = false;
        assert_ne!(base, other.key(), "recovery");

        let mut other = spec(7);
        other.mode = JobMode::Supervised {
            ckpt_every: 1000,
            max_retries: 3,
        };
        assert_ne!(base, other.key(), "mode");

        let mut other = spec(7);
        other.timeout_ms = Some(50);
        assert_ne!(base, other.key(), "timeout");

        let mut other = spec(7);
        other.program.words[0] = 99;
        assert_ne!(base, other.key(), "program");

        let mut other = spec(7);
        other.cfg.fuel += 1;
        assert_ne!(base, other.key(), "config");

        let mut other = spec(7);
        other.cfg.windows = 4;
        assert_ne!(base, other.key(), "windows");

        let mut other = spec(7);
        other.journal = true;
        assert_ne!(base, other.key(), "journal");

        // The host-only engine tier and fusion toggles are not identity
        // dimensions: the same job under another tier dedups.
        for engine in [ExecEngine::Uncached, ExecEngine::Cached, ExecEngine::Trace] {
            let mut other = spec(7);
            other.cfg.engine = engine;
            assert_eq!(base, other.key(), "{engine:?}");
        }
        let mut other = spec(7);
        other.cfg.fusion = FusionConfig::none();
        assert_eq!(base, other.key(), "fusion");
    }

    #[test]
    fn recovered_output_keeps_the_original_digest_and_kind() {
        let out = JobOutput::Recovered {
            kind: "finished".to_owned(),
            digest: 0xdead_beef_cafe_f00d,
            summary: "{\"kind\":\"finished\"}".to_owned(),
        };
        assert_eq!(out.digest(), 0xdead_beef_cafe_f00d);
        assert_eq!(out.kind(), "finished");
    }
}
