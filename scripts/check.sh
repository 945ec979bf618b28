#!/usr/bin/env bash
# The full CI gate, runnable locally: formatting, lints, source policy,
# release build, test suite, parallel CLI smoke runs, pinned differential
# fuzz, pinned work counters. Mirrors .github/workflows/ci.yml (all but
# its Miri job, which needs a nightly toolchain).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings + pedantic subset)"
cargo clippy --workspace --all-targets -- -D warnings \
  -D clippy::dbg_macro -D clippy::todo -D clippy::unimplemented \
  -D clippy::mem_forget -D clippy::exit -D clippy::large_stack_arrays

echo "==> csce-lint (source policy + panic-freedom certification, one baseline)"
cargo run -q -p csce-analyze --bin csce-lint

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> debug invariants (release + debug assertions, as in CI's debug-invariants job)"
RUSTFLAGS="-C debug-assertions=on" CARGO_TARGET_DIR=target/debug-invariants \
  cargo test -q --release -p csce-graph -p csce-ccsr -p csce-core -p csce-analyze

echo "==> perfbench tests (the benchmark package builds against the public API)"
cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> parallel smoke (4- and 1-thread CLI runs, as in CI's parallel-smoke job)"
bash scripts/parallel-smoke.sh

echo "==> csce fuzz (both pinned seeds, as in CI's fuzz-smoke job)"
fuzz_out=$(mktemp -d)
./target/release/csce fuzz --runs 200 --seed 42 --out "$fuzz_out"
./target/release/csce fuzz --runs 100 --seed 20260807 --out "$fuzz_out"
rm -rf "$fuzz_out"

echo "==> counter ratchet fixtures, then the pinned work counters (as in CI's counters job)"
cargo test -q -p csce-analyze --test counter_ratchet
bash scripts/check-counters.sh

echo "All checks passed."
