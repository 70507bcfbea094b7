#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> non-test lines (scripts/loc.sh, information only)"
scripts/loc.sh | tail -n 1

echo "==> std-only code (no .rs file names crossbeam or parking_lot)"
if grep -rnE 'crossbeam|parking_lot' --include='*.rs' crates src tests examples; then
  echo "Rust sources name crossbeam or parking_lot; use std::thread::scope / std::sync" >&2
  exit 1
fi

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --locked --workspace --all-targets -- -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> cargo build --locked --release --workspace"
cargo build --locked --release --workspace

echo "==> cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml"
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> perfbench correctness gates (offline-27q, seed 7, 1 s, QUFEM_THREADS 1 then 4)"
# The second run's exact-count check compares its output digest and engine
# counts with the record the first (inline) run left.
for t in 1 4; do
  last="$(QUFEM_THREADS="$t" cargo run --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
    --workload offline-27q --seed 7 --seconds 1 --trace 0 | tail -n 1)"
  echo "    QUFEM_THREADS=$t: $last"
  case "$last" in
    *'"correct": true'*) ;;
    *) echo "perfbench correctness gates failed at QUFEM_THREADS=$t" >&2; exit 1 ;;
  esac
done

echo "==> perfbench serve correctness gates (serve-binary-27q 2 s; serve-churn-27q 10 s, QUFEM_THREADS 1 then 4; seed 7)"
# The serve workloads send their traffic through the JSON codec (the
# binary dialect's embedded JSON, the NDJSON dialect and an admit). The
# second serve-churn-27q run's exact-count check compares its records,
# characterization included, with the ones the first (1-thread) run left.
for gate in "serve-binary-27q 2" "serve-churn-27q 10 1" "serve-churn-27q 10 4"; do
  read -r workload seconds threads <<< "$gate"
  last="$(env ${threads:+QUFEM_THREADS=$threads} cargo run --release --offline --locked \
    --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 | tail -n 1)"
  echo "    $workload${threads:+ at QUFEM_THREADS=$threads}: $last"
  case "$last" in
    *'"correct": true'*) ;;
    *) echo "perfbench correctness gate failed on $workload" >&2; exit 1 ;;
  esac
done

echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

for t in 1 4; do
  echo "==> QUFEM_THREADS=$t cargo test -q --workspace"
  QUFEM_THREADS="$t" cargo test -q --workspace
done

echo "==> all checks passed"
