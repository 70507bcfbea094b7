//! Integration tests for the loadgen replay harness (DESIGN §4.16).
//!
//! These run the checked-in scenarios in-process against a live server and
//! pin the acceptance properties: zero error frames, monotone version
//! echoes across drift swaps, and byte-identical report JSON across
//! replays modulo the single stamped `wall_secs` field.

use qufem::loadgen::{run_scenario, Report, Scenario};
use std::path::Path;

/// `determinism_digest` of `steady-mix.toml`, `bursty.toml` and
/// `large-steady.toml`. A report is a pure function of (scenario, seed), so
/// the suite, run at any `QUFEM_THREADS`, must reproduce these exactly; a
/// change that alters what the server answers must update them on purpose.
const STEADY_MIX_DIGEST: &str = "838aa135f0609d60";
const BURSTY_DIGEST: &str = "9152567aa8726663";
const LARGE_STEADY_DIGEST: &str = "f8b95a3f12427541";

fn load(name: &str) -> Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios").join(name);
    Scenario::load(&path).unwrap_or_else(|e| panic!("load {name}: {e}"))
}

fn run(name: &str) -> Report {
    let scenario = load(name);
    run_scenario(&scenario).unwrap_or_else(|e| panic!("run {name}: {e}"))
}

#[test]
fn steady_mix_replays_clean() {
    let report = run("steady-mix.toml");
    assert_eq!(report.errors, 0, "error frames in steady-mix");
    assert_eq!(report.requests, 8, "4 rounds x 2 clients x 1 per round");
    assert!(report.version_echoes_monotone);
    assert_eq!(report.swaps, 0, "no admits in steady-mix");
    assert_eq!(report.devices.len(), 1);
    assert_eq!(report.devices[0].head_version, 0);
    // Every request got a response line.
    assert!(report.response_bytes.p50 > 0);
    assert_eq!(
        report.cache_model.hits + report.cache_model.misses,
        report.requests,
        "cache model covers every request"
    );
    // Tenant accounting covers the trace exactly.
    assert_eq!(report.tenants.iter().map(|t| t.requests).sum::<u64>(), report.requests);
}

#[test]
fn replaying_a_scenario_is_deterministic() {
    let scenario = load("steady-mix.toml");
    let a = run_scenario(&scenario).unwrap();
    let b = run_scenario(&scenario).unwrap();
    // Everything except wall_secs is byte-identical.
    assert_eq!(a.canonical_json(), b.canonical_json());
    assert_eq!(a.determinism_digest(), STEADY_MIX_DIGEST);
    assert_eq!(b.determinism_digest(), STEADY_MIX_DIGEST);
    assert_eq!(a.trace_digest, b.trace_digest);
    assert_eq!(a.response_digest, b.response_digest);
    // The full pretty JSON differs in at most the wall_secs line.
    let (pretty_a, pretty_b) = (a.to_json_pretty(), b.to_json_pretty());
    let differing: Vec<(&str, &str)> = pretty_a
        .lines()
        .zip(pretty_b.lines())
        .filter(|(x, y)| x != y)
        .map(|(x, y)| (x.trim(), y.trim()))
        .collect();
    assert!(
        differing.iter().all(|(x, _)| x.starts_with("\"wall_secs\"")),
        "only wall_secs may differ, got {differing:?}"
    );
}

#[test]
fn drift_swap_serves_clean_with_monotone_versions() {
    let report = run("drift-swap.toml");
    assert_eq!(report.errors, 0, "error frames during drift swaps");
    assert!(report.version_echoes_monotone, "version echo went backwards");
    assert_eq!(report.swaps, 2, "two admit-drift events");
    assert_eq!(report.devices.len(), 1);
    assert_eq!(report.devices[0].head_version, 2);
    assert_eq!(report.devices[0].versions, vec![0, 1, 2]);
    // Both admits were acknowledged with the expected versions, in order.
    let admits: Vec<_> = report.events.iter().filter(|e| e.kind == "admit-drift").collect();
    assert_eq!(admits.len(), 2);
    assert_eq!(admits[0].version, Some(1));
    assert_eq!(admits[1].version, Some(2));
    assert!(report.events.iter().any(|e| e.kind == "reconnect"));
}

#[test]
fn bursty_open_loop_replays_clean_and_deterministic() {
    let scenario = load("bursty.toml");
    let a = run_scenario(&scenario).unwrap();
    assert_eq!(a.errors, 0);
    assert_eq!(a.requests, 3 * 2 * 3, "rounds x clients x burst");
    let b = run_scenario(&scenario).unwrap();
    assert_eq!(a.determinism_digest(), BURSTY_DIGEST);
    assert_eq!(b.determinism_digest(), BURSTY_DIGEST);
}

#[test]
fn large_steady_replays_clean_and_deterministic() {
    let report = run("large-steady.toml");
    assert_eq!(report.errors, 0, "error frames in large-steady");
    assert_eq!(report.requests, 3 * 2, "rounds x clients x 1 per round");
    assert!(report.version_echoes_monotone);
    assert_eq!(report.swaps, 0, "no admits in large-steady");
    assert_eq!(report.determinism_digest(), LARGE_STEADY_DIGEST);
}

#[test]
fn cold_start_models_cache_churn() {
    let report = run("cold-start.toml");
    assert_eq!(report.errors, 0);
    assert!(!report.prewarm);
    assert!(report.cache_model.misses > 0, "cold start must pay cold builds");
    assert_eq!(report.cache_model.capacity, 2);
}

#[test]
fn multi_device_fanout_isolates_devices() {
    let report = run("multi-device-fanout.toml");
    assert_eq!(report.errors, 0);
    assert!(report.version_echoes_monotone);
    assert_eq!(report.swaps, 2, "one setup admit (beta) + one drift admit");
    assert_eq!(report.devices.len(), 2);
    let alpha = report.devices.iter().find(|d| d.id == "alpha").unwrap();
    let beta = report.devices.iter().find(|d| d.id == "beta").unwrap();
    assert_eq!(alpha.head_version, 0, "alpha never recalibrated");
    assert_eq!(beta.head_version, 1, "beta swapped once mid-run");
    assert!(alpha.requests > 0 && beta.requests > 0, "traffic reached both devices");
}

#[test]
fn different_seeds_change_the_trace_but_not_the_shape() {
    let base = load("steady-mix.toml");
    let mut text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/steady-mix.toml"),
    )
    .unwrap();
    text = text.replace("seed = 7", "seed = 8");
    let reseeded = Scenario::parse(&text).unwrap();
    let a = run_scenario(&base).unwrap();
    let b = run_scenario(&reseeded).unwrap();
    assert_ne!(a.trace_digest, b.trace_digest);
    assert_ne!(a.determinism_digest(), b.determinism_digest());
    assert_eq!(a.requests, b.requests, "same scenario shape");
    assert_eq!(b.errors, 0);
}

#[test]
fn binary_pipelined_replays_clean_and_deterministic() {
    let scenario = load("binary-pipelined.toml");
    let a = run_scenario(&scenario).unwrap();
    assert_eq!(a.errors, 0, "error frames over the binary dialect");
    assert_eq!(a.requests, 3 * 2 * 6, "rounds x clients x burst");
    assert_eq!(a.protocol, "binary");
    assert!(a.version_echoes_monotone);
    assert!(a.response_bytes.p50 > 0, "binary frame sizes recorded");
    let b = run_scenario(&scenario).unwrap();
    assert_eq!(a.determinism_digest(), b.determinism_digest());
}

#[test]
fn binary_and_json_replays_serve_identical_distributions() {
    // The same scenario text with only the wire dialect flipped: the
    // per-tenant response digests fold nothing but distribution bits and
    // identity echoes, so they must agree across dialects exactly.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/binary-pipelined.toml");
    let text = std::fs::read_to_string(&path).unwrap();
    let binary = Scenario::parse(&text).unwrap();
    let json =
        Scenario::parse(&text.replace("protocol = \"binary\"", "protocol = \"json\"")).unwrap();
    let a = run_scenario(&binary).unwrap();
    let b = run_scenario(&json).unwrap();
    assert_eq!(a.trace_digest, b.trace_digest, "same trace either way");
    assert_eq!(a.response_digest, b.response_digest, "dialect changed the served bytes");
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(ta.response_digest, tb.response_digest, "tenant {} diverged", ta.name);
    }
    assert_eq!(a.errors, 0);
    assert_eq!(b.errors, 0);
    // Binary calibrate frames undercut the JSON lines for the same payload.
    assert!(
        a.response_bytes.p50 < b.response_bytes.p50,
        "binary p50 {} should be smaller than JSON p50 {}",
        a.response_bytes.p50,
        b.response_bytes.p50
    );
}

#[test]
fn an_impossible_latency_budget_fails_the_replay() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/binary-pipelined.toml");
    let text = std::fs::read_to_string(&path).unwrap();
    let strangled =
        Scenario::parse(&text.replace("p99_ms = 30000.0", "p99_ms = 0.000001")).unwrap();
    let err = run_scenario(&strangled).unwrap_err();
    assert!(err.to_string().contains("latency budget exceeded"), "{err}");
}
