//! Run outcome, the per-layer metric table, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["offline-27q", "serve-binary-27q", "serve-churn-27q"];

/// End-to-end metrics every untraced run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("rel_fidelity", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// One per-layer metric: `(name, unit, end-to-end metric it should move,
/// workloads it should move it on)`. A workload that does not load the
/// layer reports 0 for it.
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// End-to-end metric a change in this layer should move.
    pub moves: &'static str,
    /// Where the move should show, and where it should not.
    pub on: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, moves, on }
}

const SETUP_ALL: &str = "all three";
const CHURN: &str = "serve-churn-27q";
const BINARY: &str = "serve-binary-27q";
const OFFLINE: &str = "offline-27q; predicted no move on serve-binary-27q";
const PREPARE: &str = "serve-churn-27q (misses); no move on serve-binary-27q";
const CONVERT: &str = "serve-binary-27q (large share); offline-27q (small share)";
const SERVE_BOTH: &str = "serve-binary-27q, serve-churn-27q";
const P99_DIAG: &str = "diagnostic: too few samples offline to be end-to-end";
const RESIDUAL_DIAG: &str = "diagnostic: share of latency_p50_ms the stages leave unexplained";
const OVERHEAD_DIAG: &str = "diagnostic: traced / untraced throughput_per_s";

/// Every per-layer metric the traced run reports.
pub const LAYERS: &[LayerMetric] = &[
    lm("benchgen.s", "s", "setup_s", SETUP_ALL),
    lm("benchgen.circuits", "count", "setup_s", SETUP_ALL),
    lm("characterize.s", "s", "setup_s", SETUP_ALL),
    lm("characterize.iterations", "count", "setup_s", SETUP_ALL),
    lm("prepare.ms", "ms", "latency_p99_ms, setup_s", PREPARE),
    lm("prepare.matrices", "count", "latency_p99_ms, setup_s", PREPARE),
    lm("convert.from_dist_us", "us", "latency_p50_ms", CONVERT),
    lm("convert.to_dist_us", "us", "latency_p50_ms", CONVERT),
    lm("apply.ms_p50", "ms", "throughput_per_s, cpu_ms_per_op", OFFLINE),
    lm("apply.ms_p90", "ms", "throughput_per_s, cpu_ms_per_op", OFFLINE),
    lm("engine.products", "count", "throughput_per_s, cpu_ms_per_op", OFFLINE),
    lm("engine.pruned", "count", "rel_fidelity, throughput_per_s", OFFLINE),
    lm("engine.accumulated", "count", "throughput_per_s, cpu_ms_per_op", OFFLINE),
    lm("engine.passthrough", "count", "rel_fidelity, throughput_per_s", OFFLINE),
    lm("engine.peak_output_support", "count", "throughput_per_s, peak_rss_mb", OFFLINE),
    lm("engine.useful_ratio", "ratio", "throughput_per_s, cpu_ms_per_op", OFFLINE),
    lm("wire.encode_us", "us", "throughput_per_s", BINARY),
    lm("wire.decode_us", "us", "throughput_per_s", BINARY),
    lm("wire.request_bytes", "bytes", "throughput_per_s", BINARY),
    lm("wire.response_bytes", "bytes", "throughput_per_s", BINARY),
    lm("json.encode_us", "us", "latency_p50_ms", CHURN),
    lm("json.decode_us", "us", "latency_p50_ms", CHURN),
    lm("json.request_bytes", "bytes", "latency_p50_ms", CHURN),
    lm("json.response_bytes", "bytes", "latency_p50_ms", CHURN),
    lm("server.queue_us_p50", "us", "latency_p50_ms, latency_p99_ms, throughput_per_s", BINARY),
    lm("server.apply_us_p50", "us", "latency_p50_ms, latency_p99_ms, throughput_per_s", BINARY),
    lm("server.serialize_us_p50", "us", "latency_p50_ms, latency_p99_ms, throughput_per_s", BINARY),
    lm("server.total_us_p50", "us", "latency_p50_ms, latency_p99_ms, throughput_per_s", BINARY),
    lm("server.overhead_us", "us", "latency_p50_ms, latency_p99_ms, throughput_per_s", BINARY),
    lm("server.rejected", "count", "success_rate, throughput_per_s", BINARY),
    lm("plan_cache.hits", "count", "latency_p90_ms", CHURN),
    lm("plan_cache.misses", "count", "latency_p90_ms", CHURN),
    lm("plan_cache.hit_ratio", "ratio", "latency_p90_ms", CHURN),
    lm("catalog.admit_ms", "ms", "peak_rss_mb, latency_p99_ms", CHURN),
    lm("catalog.versions", "count", "peak_rss_mb, latency_p99_ms", CHURN),
    lm("rss_growth_mb", "MB", "peak_rss_mb", CHURN),
    lm("m3.apply_ms", "ms", "latency_p50_ms", CHURN),
    lm("latency_p99_ms", "ms", P99_DIAG, SERVE_BOTH),
    lm("stage_sum.residual_share", "ratio", RESIDUAL_DIAG, SERVE_BOTH),
    lm("trace.throughput_ratio", "ratio", OVERHEAD_DIAG, SETUP_ALL),
];

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Calibrations attempted in the measured phase(s).
    pub attempted: u64,
    /// Calibrations that failed, were refused, or did not verify.
    pub failed: u64,
    /// Descriptions of the first few mismatches.
    pub mismatches: Vec<String>,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// Values that must repeat exactly across runs with the same seed.
    pub exact: BTreeMap<String, String>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one verification failure.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }

    /// Records a value that must repeat exactly across runs.
    pub fn exact(&mut self, key: impl Into<String>, value: impl ToString) {
        self.exact.insert(key.into(), value.to_string());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// The result line: one JSON object with the end-to-end metrics (untraced)
/// or the per-layer metrics (traced).
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let mut metrics = Vec::new();
    if traced {
        for l in LAYERS {
            let v = outcome.layers.get(l.name).copied().unwrap_or(0.0);
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                l.name,
                json_number(v),
                l.unit
            ));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = *outcome.end_to_end.get(name).unwrap_or_else(|| panic!("{name} not measured"));
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Human-readable report for standard error.
pub fn human_report(workload: &str, outcome: &Outcome, traced: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {workload} ({}) ==", if traced { "traced" } else { "untraced" });
    for note in &outcome.notes {
        let _ = writeln!(s, "  {note}");
    }
    if traced {
        let _ = writeln!(
            s,
            "  {:<28} {:>14} {:<6} {:<48} on",
            "per-layer metric", "value", "unit", "should move"
        );
        for l in LAYERS {
            let value = match outcome.layers.get(l.name) {
                Some(v) => format!("{v:.4}"),
                None => "n/a".to_string(),
            };
            let _ = writeln!(
                s,
                "  {:<28} {:>14} {:<6} {:<48} {}",
                l.name, value, l.unit, l.moves, l.on
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            if let Some(v) = outcome.end_to_end.get(name) {
                let _ = writeln!(s, "  {name:<20} {v:>14.4} {unit}");
            }
        }
    }
    for (k, v) in &outcome.exact {
        let _ = writeln!(s, "  exact {k} = {v}");
    }
    for m in &outcome.mismatches {
        let _ = writeln!(s, "  MISMATCH {m}");
    }
    s
}

/// Checks this run's exact counts against the record an earlier run with
/// the same workload, seed and budget (`record`) left in `dir`, then stores
/// them. Returns the keys whose values drifted.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn check_exact_counts(
    dir: &std::path::Path,
    record: &str,
    exact: &BTreeMap<String, String>,
) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("counts-{record}.txt"));
    let mut drifted = Vec::new();
    if let Ok(previous) = std::fs::read_to_string(&path) {
        for line in previous.lines() {
            if let Some((k, v)) = line.split_once('=') {
                match exact.get(k) {
                    Some(now) if now != v => drifted.push(format!("{k}: {v} -> {now}")),
                    _ => {}
                }
            }
        }
    }
    let body: String = exact.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    std::fs::write(&path, body)?;
    Ok(drifted)
}
