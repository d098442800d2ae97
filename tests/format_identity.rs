//! Every persisted format, pinned to recorded bytes.
//!
//! A codec change that rewrites both the writer and the reader of a format
//! still passes a round trip, so a round trip cannot show that no byte
//! moved. These cases pin the bytes themselves: a recorded journal, the
//! write-ahead log's admit line for every kind of job the service admits
//! and its done line, the submit frames a client sends, and the hashes the
//! serve layer keys its dedup map by (`config_hash` and `JobSpec::key`).
//! Snapshot bytes are pinned in `tests/machine_identity.rs`.
//!
//! Each byte case is pinned as an FNV-1a digest and a length. A test that
//! finds a pinned value changed lists every value that differs and prints
//! the constants that would record what ran, so a deliberate format change
//! re-records them in one paste.

use risc1::core::inject::{InjectConfig, InjectKind, InjectModes};
use risc1::core::snapshot::config_hash;
use risc1::core::{
    BranchModel, Cpu, ExecEngine, FusionConfig, Journal, JournalEvent, Program, RecordedOutcome,
    SimConfig,
};
use risc1::serve::wal::{WalWriter, WAL_FILE};
use risc1::serve::wire;
use risc1::{JobMode, JobOutput, JobSpec};
use std::sync::OnceLock;

/// FNV-1a over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A configuration off the defaults in every field a journal or frame
/// spells: a trap table, the suspended branch model, no forwarding,
/// another engine tier and one fusion kind off.
fn odd_config() -> SimConfig {
    SimConfig {
        windows: 6,
        mem_bytes: 1 << 19,
        fuel: 987_654,
        trap_overhead_cycles: 12,
        trap_base: Some(0x40),
        branch_model: BranchModel::Suspended,
        forwarding: false,
        engine: ExecEngine::Superblock,
        fusion: FusionConfig {
            ldhi_imm: false,
            ..FusionConfig::default()
        },
        ..SimConfig::default()
    }
}

/// A journal with every event kind and the odd configuration.
fn journal(outcome: Option<RecordedOutcome>) -> Journal {
    let ev = |step, at_instruction, kind| JournalEvent {
        step,
        at_instruction,
        kind,
    };
    let program = Program {
        words: vec![0xdead_beef, 1, u32::MAX],
        entry_offset: 8,
        data: vec![(0x2000, vec![1, 2, 255]), (0x3000, vec![])],
        symbols: Default::default(),
    };
    let inject = InjectConfig {
        seed: u64::MAX - 3,
        rate: 150,
        modes: InjectModes::All,
    };
    Journal {
        events: vec![
            ev(
                3,
                3,
                InjectKind::BitFlip {
                    addr: 0x1234,
                    bit: 7,
                },
            ),
            ev(4, 3, InjectKind::SpuriousInterrupt),
            ev(
                90,
                81,
                InjectKind::FuelJitter {
                    new_limit: u64::MAX / 2,
                },
            ),
            ev(91, 81, InjectKind::DecodeProbe),
            ev(92, 82, InjectKind::MisalignProbe),
            ev(
                100,
                88,
                InjectKind::WstackCorruption {
                    addr: 0xe0004,
                    bit: 0,
                },
            ),
        ],
        outcome,
        ..Journal::new(
            &program,
            &[-7, 0, 1 << 30],
            odd_config(),
            Some(inject),
            true,
        )
    }
}

/// The eight kinds of job of the WAL's round-trip test, by name.
fn variants() -> Vec<(&'static str, JobSpec)> {
    let base = JobSpec {
        program: Program {
            words: vec![7, 8, 9],
            entry_offset: 4,
            data: vec![(128, vec![1, 2]), (256, vec![])],
            symbols: Default::default(),
        },
        args: vec![3, -4],
        cfg: SimConfig {
            fuel: 123_456,
            windows: 6,
            ..SimConfig::default()
        },
        inject: None,
        recovery: false,
        mode: JobMode::Direct,
        timeout_ms: None,
        snapshot: None,
        journal: false,
    };
    let injected = |modes| {
        Some(InjectConfig {
            seed: 11,
            rate: 120,
            modes,
        })
    };
    vec![
        (
            "all",
            JobSpec {
                inject: injected(InjectModes::All),
                recovery: true,
                ..base.clone()
            },
        ),
        (
            "transparent",
            JobSpec {
                inject: injected(InjectModes::Transparent),
                ..base.clone()
            },
        ),
        (
            "none",
            JobSpec {
                inject: injected(InjectModes::None),
                ..base.clone()
            },
        ),
        ("clean", base.clone()),
        (
            "supervised",
            JobSpec {
                inject: injected(InjectModes::All),
                mode: JobMode::Supervised {
                    ckpt_every: 500,
                    max_retries: 7,
                },
                ..base.clone()
            },
        ),
        (
            "timeout",
            JobSpec {
                timeout_ms: Some(750),
                ..base.clone()
            },
        ),
        (
            "journal",
            JobSpec {
                inject: injected(InjectModes::All),
                journal: true,
                ..base.clone()
            },
        ),
        (
            "snapshot",
            JobSpec {
                cfg: SimConfig::default(),
                snapshot: Some(Box::new(Cpu::new(SimConfig::default()).snapshot())),
                ..base
            },
        ),
    ]
}

/// The WAL lines the writer appends for every variant (ids 1..=8) and one
/// done line, read back from the file.
fn wal_lines() -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("risc1_format_identity_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut w = WalWriter::open(&dir).expect("open wal");
        for (i, (_, spec)) in variants().iter().enumerate() {
            w.append_admit(i as u64 + 1, "carol", 3, spec)
                .expect("append admit");
        }
        let out = JobOutput::SetupFailed {
            message: "too big".to_owned(),
        };
        w.append_done(3, &out).expect("append done");
    }
    let text = std::fs::read_to_string(dir.join(WAL_FILE)).expect("read wal");
    let _ = std::fs::remove_dir_all(&dir);
    text.lines().map(str::to_owned).collect()
}

/// A client's submit frame for a clean job and for an injected one.
fn submit_frames() -> [(&'static str, String); 2] {
    let prog = Program {
        words: vec![10, 20],
        entry_offset: 4,
        data: vec![(64, vec![1, 2, 3])],
        symbols: Default::default(),
    };
    let clean = wire::submit_request(
        "alice",
        1,
        &prog,
        &[7],
        &SimConfig::default(),
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
    let injected = wire::submit_request(
        "bob",
        2,
        &prog,
        &[7, -3],
        &odd_config(),
        &[0, 1, 5],
        true,
        120,
        "transparent",
        true,
        "direct",
        Some(500),
        false,
        None,
    );
    [("submit clean", clean), ("submit injected", injected)]
}

/// Every byte case, in table order.
fn byte_cases() -> Vec<(String, Vec<u8>)> {
    let outcome = RecordedOutcome {
        signature: "double fault: \"quoted\"\nnext".to_owned(),
        instructions: 12_345,
        trap_counts: [1, 0, 2, 0, 0, 3],
    };
    let mut cases = vec![
        ("journal null outcome".to_owned(), journal(None).to_json()),
        (
            "journal outcome".to_owned(),
            journal(Some(outcome)).to_json(),
        ),
    ];
    let lines = wal_lines();
    let names = variants().into_iter().map(|(name, _)| name);
    for (name, line) in names.chain(["done"]).zip(lines) {
        cases.push((format!("wal {name}"), line));
    }
    for (name, frame) in submit_frames() {
        cases.push((name.to_owned(), frame));
    }
    cases
        .into_iter()
        .map(|(name, text)| (name, text.into_bytes()))
        .collect()
}

/// Every hash case: three configurations' `config_hash`, then each
/// variant's dedup key as `(program, config, seed)`.
fn hash_cases() -> Vec<(String, [u64; 3])> {
    let configs = [
        ("config default", SimConfig::default()),
        ("config windows 4", SimConfig::with_windows(4)),
        ("config odd", odd_config()),
    ];
    let mut cases: Vec<(String, [u64; 3])> = configs
        .into_iter()
        .map(|(name, cfg)| (name.to_owned(), [config_hash(&cfg), 0, 0]))
        .collect();
    for (name, spec) in variants() {
        let k = spec.key();
        cases.push((format!("key {name}"), [k.program, k.config, k.seed]));
    }
    cases
}

struct Runs {
    bytes: Vec<(String, u64, usize)>,
    hashes: Vec<(String, [u64; 3])>,
}

fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| Runs {
        bytes: byte_cases()
            .into_iter()
            .map(|(name, b)| (name, fnv(&b), b.len()))
            .collect(),
        hashes: hash_cases(),
    })
}

/// Per byte case: its name, the FNV-1a digest of its bytes, its length.
#[rustfmt::skip]
const BYTES: [(&str, u64, usize); 13] = [
    ("journal null outcome", 0xb30fd3dbe3b9ca37, 979),
    ("journal outcome", 0xeae69fa7410c379e, 1070),
    ("wal all", 0x5131899075e99b72, 596),
    ("wal transparent", 0x5dd1841c71ae46cd, 605),
    ("wal none", 0x23e2a02c7a1c9e96, 598),
    ("wal clean", 0xd2cf70e40cb88a98, 596),
    ("wal supervised", 0xb773688f2aa5f699, 634),
    ("wal timeout", 0xb266a4363c20d074, 613),
    ("wal journal", 0x91d6c2ecc2368e3c, 612),
    ("wal snapshot", 0x52fb9d2e671c3162, 2005),
    ("wal done", 0x7a2835908d64335b, 143),
    ("submit clean", 0x79164ca18706087d, 540),
    ("submit injected", 0x65c5d8421e569164, 573),
];
/// Per hash case: its name and its value(s).
#[rustfmt::skip]
const HASHES: [(&str, [u64; 3]); 11] = [
    ("config default", [0x58ec4d030c499e4b, 0x0000000000000000, 0x0]),
    ("config windows 4", [0x93baafbb20ee104f, 0x0000000000000000, 0x0]),
    ("config odd", [0x18964511e3a8f6ad, 0x0000000000000000, 0x0]),
    ("key all", [0xec23a58ba1e37eab, 0x8560e3c1e82f29c9, 0xb]),
    ("key transparent", [0xec23a58ba1e37eab, 0xa9bf3ca019036335, 0xb]),
    ("key none", [0xec23a58ba1e37eab, 0x83b29320a115240c, 0xb]),
    ("key clean", [0xec23a58ba1e37eab, 0x1c65ce260ed68c01, 0x0]),
    ("key supervised", [0xec23a58ba1e37eab, 0x8ed696b5ece65617, 0xb]),
    ("key timeout", [0xec23a58ba1e37eab, 0x68362d3a25bf8dee, 0x0]),
    ("key journal", [0xec23a58ba1e37eab, 0x9d105a759bb3fa85, 0xb]),
    ("key snapshot", [0xec23a58ba1e37eab, 0x0ba4686436765155, 0x0]),
];

/// The pinned constants as they would record `r`.
fn replacement(r: &Runs) -> String {
    let mut out = format!(
        "/// Per byte case: its name, the FNV-1a digest of its bytes, its length.\n\
         #[rustfmt::skip]\n\
         const BYTES: [(&str, u64, usize); {}] = [\n",
        r.bytes.len()
    );
    for (name, digest, len) in &r.bytes {
        out += &format!("    (\"{name}\", {digest:#018x}, {len}),\n");
    }
    out += &format!(
        "];\n\
         /// Per hash case: its name and its value(s).\n\
         #[rustfmt::skip]\n\
         const HASHES: [(&str, [u64; 3]); {}] = [\n",
        r.hashes.len()
    );
    for (name, [a, b, c]) in &r.hashes {
        out += &format!("    (\"{name}\", [{a:#018x}, {b:#018x}, {c:#x}]),\n");
    }
    out + "];\n"
}

/// Fails if `mismatches` names any pinned value that differs from its run,
/// listing them all, followed by the constants that would record the runs.
fn check(mismatches: Vec<String>) {
    assert!(
        mismatches.is_empty(),
        "{} pinned value(s) differ:\n{}\n\nIf the change is deliberate, replace the \
         constants with:\n\n{}",
        mismatches.len(),
        mismatches.join("\n"),
        replacement(runs())
    );
}

#[test]
fn every_format_keeps_its_recorded_bytes() {
    let r = runs();
    let mut mismatches = Vec::new();
    if r.bytes.len() != BYTES.len() {
        mismatches.push(format!(
            "{} byte cases, {} pinned",
            r.bytes.len(),
            BYTES.len()
        ));
    }
    for ((name, digest, len), (want_name, want_digest, want_len)) in r.bytes.iter().zip(&BYTES) {
        if (name.as_str(), *digest, *len) != (*want_name, *want_digest, *want_len) {
            mismatches.push(format!("{name}: ({digest:#018x}, {len})"));
        }
    }
    check(mismatches);
}

#[test]
fn every_dedup_hash_keeps_its_recorded_value() {
    let r = runs();
    let mut mismatches = Vec::new();
    if r.hashes.len() != HASHES.len() {
        mismatches.push(format!(
            "{} hash cases, {} pinned",
            r.hashes.len(),
            HASHES.len()
        ));
    }
    for ((name, got), (want_name, want)) in r.hashes.iter().zip(&HASHES) {
        if (name.as_str(), got) != (*want_name, want) {
            mismatches.push(format!("{name}: {got:#018x?}"));
        }
    }
    check(mismatches);
}
