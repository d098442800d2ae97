#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, and the tier-1 build+test cycle.
# Everything runs offline; a clean exit here is the bar every PR must meet.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo doc (every rustdoc warning, broken intra-doc links included,"
echo "    is an error)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --document-private-items

echo "==> cargo build --release --workspace"
cargo build --release -q --workspace

echo "==> cargo test --workspace (every unit and integration test, debug"
echo "    profile: the engine equivalence, snapshot-resume, replay, fault"
echo "    injection, serve and watchdog laws among them)"
cargo test -q --workspace

echo "==> cargo test --release --test host_counts (block and trace counts,"
echo "    including the benchmark-scale rows only an optimized build runs)"
cargo test -q --release --test host_counts

echo "==> risc1 exp all vs EXPERIMENT_RESULTS.txt (the simulated tables must"
echo "    not move)"
diff <(cargo run -q --release -p risc1-cli --bin risc1 -- exp all) EXPERIMENT_RESULTS.txt

echo "==> cargo test --release --test spec_differential (spec-vs-engines"
echo "    differential fuzz under the shipping optimizer, fixed-seed quick"
echo "    profile: 200 generated + 48 injected cases)"
cargo test -q --release --test spec_differential

echo "==> risc1 serve --smoke (TCP round trip: mixed campaign digests vs direct"
echo "    runs, dedup, streamed journal replay, warm start, tampered-snapshot"
echo "    rejection, and the kill -9 / --recover restart bit-identity gate;"
echo "    a failed recovery leaves its WAL under target/wal-artifacts/)"
cargo run -q --release -p risc1-cli --bin risc1 -- serve --smoke

echo "==> examples (every program in examples/ runs clean in release)"
for example in examples/*.rs; do
    cargo run -q --release --example "$(basename "$example" .rs)" > /dev/null
done

echo "==> perfbench self-tests (builds the end-to-end benchmark against this"
echo "    tree; same-seed determinism, metric names vs BENCHMARK.json, and a"
echo "    short untraced and traced run of every workload with zero failures)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "All checks passed."
