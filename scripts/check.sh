#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo bench --no-run --workspace"
cargo bench --no-run --workspace

echo "==> cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> perfbench correctness gates (offline-27q, seed 7, 1 s, QUFEM_THREADS 1 then 4)"
# The second run's exact-count check compares its output digest and engine
# counts with the record the first (inline) run left.
for t in 1 4; do
  perfbench_last="$(QUFEM_THREADS="$t" cargo run --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
    --workload offline-27q --seed 7 --seconds 1 --trace 0 | tail -n 1)"
  echo "    QUFEM_THREADS=$t: $perfbench_last"
  case "$perfbench_last" in
    *'"correct": true'*) ;;
    *) echo "perfbench correctness gates failed at QUFEM_THREADS=$t" >&2; exit 1 ;;
  esac
done

echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> QUFEM_THREADS matrix: sharded engine must match sequential bit-for-bit"
for t in 1 4; do
  echo "==> QUFEM_THREADS=$t cargo test -q -p qufem-core --test plan_execute"
  QUFEM_THREADS="$t" cargo test -q -p qufem-core --test plan_execute
  echo "==> QUFEM_THREADS=$t engine and arena unit tests"
  QUFEM_THREADS="$t" cargo test -q -p qufem-core --lib engine::
  QUFEM_THREADS="$t" cargo test -q -p qufem-core --lib arena::
done

echo "==> QUFEM_THREADS matrix: characterization pipeline must be bit-identical"
for t in 1 4; do
  echo "==> QUFEM_THREADS=$t cargo test -q -p qufem-core --test characterize_parallel"
  QUFEM_THREADS="$t" cargo test -q -p qufem-core --test characterize_parallel
  echo "==> QUFEM_THREADS=$t cargo test -q -p qufem-core --test matrix_table"
  QUFEM_THREADS="$t" cargo test -q -p qufem-core --test matrix_table
done

echo "==> QUFEM_THREADS matrix: served responses must match in-process calibration"
for t in 1 4; do
  echo "==> QUFEM_THREADS=$t cargo test -q --test serve"
  QUFEM_THREADS="$t" cargo test -q --test serve
  echo "==> QUFEM_THREADS=$t multi-method registry differential tests"
  QUFEM_THREADS="$t" cargo test -q --test serve -- every_registry_method unknown_method
done

echo "==> QUFEM_THREADS matrix: serve observability (metrics/trace/access log)"
for t in 1 4; do
  echo "==> QUFEM_THREADS=$t cargo test -q --test serve_observability"
  QUFEM_THREADS="$t" cargo test -q --test serve_observability
done

echo "==> QUFEM_THREADS matrix: catalog hot-swap must stay bit-identical"
for t in 1 4; do
  echo "==> QUFEM_THREADS=$t catalog unit tests"
  QUFEM_THREADS="$t" cargo test -q -p qufem-serve catalog
  QUFEM_THREADS="$t" cargo test -q -p qufem-serve cache
  QUFEM_THREADS="$t" cargo test -q --release --test cli -- flags_a_subcommand_does_not_read
  echo "==> QUFEM_THREADS=$t hot-swap differential and concurrency tests"
  QUFEM_THREADS="$t" cargo test -q --test serve_observability -- hot_swap version_pinned unknown_devices
  echo "==> QUFEM_THREADS=$t versioned persistence robustness"
  QUFEM_THREADS="$t" cargo test -q -p qufem-core --test persist_robustness
  echo "==> QUFEM_THREADS=$t end-to-end admit CLI walkthrough"
  QUFEM_THREADS="$t" cargo test -q --release --test cli -- admit_hot_swaps
done

echo "==> QUFEM_THREADS matrix: apply hot path must stay allocation-free"
for t in 1 4; do
  echo "==> QUFEM_THREADS=$t counting-allocator proofs: apply, request accounting (collector off and on)"
  QUFEM_THREADS="$t" cargo test -q -p qufem-core --test apply_zero_alloc
  QUFEM_THREADS="$t" cargo test -q -p qufem-serve --test zero_alloc
  echo "==> QUFEM_THREADS=$t shard-pool differential and panic-recovery tests"
  QUFEM_THREADS="$t" cargo test -q -p qufem-core --test shard_pool
done

echo "==> QUFEM_THREADS matrix: binary dialect must match NDJSON bit-for-bit"
for t in 1 4; do
  echo "==> QUFEM_THREADS=$t JSON-vs-binary differential tests"
  QUFEM_THREADS="$t" cargo test -q --test serve_binary
  echo "==> QUFEM_THREADS=$t frame codec unit tests"
  QUFEM_THREADS="$t" cargo test -q -p qufem-serve --lib wire::
  echo "==> QUFEM_THREADS=$t decoder robustness tests"
  QUFEM_THREADS="$t" cargo test -q -p qufem-serve --test wire_robustness
done

echo "==> loadgen-scenarios: replay digests must agree across QUFEM_THREADS"
loadgen_tmp="$(mktemp -d)"
trap 'rm -rf "$loadgen_tmp"' EXIT
for s in steady-mix bursty; do
  ref=""
  for t in 1 4; do
    out="$loadgen_tmp/$s-t$t.json"
    echo "==> QUFEM_THREADS=$t qufem loadgen scenarios/$s.toml"
    QUFEM_THREADS="$t" target/release/qufem loadgen "scenarios/$s.toml" --out "$out"
    digest="$(sed -n 's/.*"determinism_digest": "\([0-9a-f]*\)".*/\1/p' "$out")"
    if [ -z "$digest" ]; then
      echo "no determinism_digest in $out" >&2
      exit 1
    fi
    if [ -z "$ref" ]; then
      ref="$digest"
    elif [ "$digest" != "$ref" ]; then
      echo "loadgen digest mismatch for $s: $digest != $ref" >&2
      exit 1
    fi
  done
  echo "    $s determinism digest: $ref"
done

echo "==> all checks passed"
