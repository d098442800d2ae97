#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, and the tier-1 build+test cycle.
# Everything runs offline; a clean exit here is the bar every PR must meet.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo build --release --workspace"
cargo build --release -q --workspace

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo test --test fault_injection (robustness sweep)"
cargo test -q --test fault_injection

echo "==> cargo test --test checkpoint_replay (replay determinism and the"
echo "    cross-engine snapshot-resume law)"
cargo test -q --test checkpoint_replay

echo "==> cargo test --test interp_equivalence (four-engine equivalence law)"
cargo test -q --test interp_equivalence

echo "==> risc1 lint --spec-audit (ISA spec table vs metadata/codec/assembler/icache)"
cargo run -q --release -p risc1-cli --bin risc1 -- lint --spec-audit

echo "==> cargo test --test spec_differential (spec-vs-four-engines differential"
echo "    fuzz, fixed-seed quick profile: 200 generated + 48 injected cases)"
cargo test -q --release --test spec_differential

echo "==> cargo test --test serve_chaos (service transparency law under load)"
cargo test -q --test serve_chaos

echo "==> cargo test --test serve_durable (WAL recovery, warm-start snapshots,"
echo "    retained replay journals)"
cargo test -q --test serve_durable

echo "==> cargo test --test serve_wire_fuzz (500+ malformed frames, zero panics)"
cargo test -q --test serve_wire_fuzz

echo "==> cargo test --test deadline_edges (watchdog edge cases and tie-breaks)"
cargo test -q --test deadline_edges

echo "==> risc1 serve --smoke (TCP round trip: mixed campaign digests vs direct"
echo "    runs, dedup, streamed journal replay, warm start, tampered-snapshot"
echo "    rejection, and the kill -9 / --recover restart bit-identity gate;"
echo "    a failed recovery leaves its WAL under target/wal-artifacts/)"
cargo run -q --release -p risc1-cli --bin risc1 -- serve --smoke

echo "==> risc1 bench --quick (perf gate: each tier must beat the one below,"
echo "    and geomeans must stay within 10% of the checked-in baseline)"
cargo run -q --release -p risc1-cli --bin risc1 -- bench --quick \
  --out target/BENCH_interp.json --baseline BENCH_interp.json

echo "All checks passed."
