//! End-to-end and per-layer benchmark of the QuFEM calibration engine and
//! its calibration service. See `perfbench/README.md` for the workloads,
//! the metrics, and how to rerun a claim on a second seed.

pub mod inputs;
pub mod offline;
pub mod report;
mod serve;
pub mod serve_binary;
pub mod serve_churn;
pub mod setup;
pub mod stats;
mod trace;

/// Options every workload takes from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds; sets the fixed request counts.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where span files and exact-count records go.
    pub out_dir: std::path::PathBuf,
}

/// Records the tracing overhead: the throughput of a workload's traced
/// measured phase over that of its untraced one, run back to back.
pub fn tracing_overhead(outcome: &mut report::Outcome, untraced: f64, traced: f64) {
    outcome.layers.insert("trace.throughput_ratio", traced / untraced);
    outcome.notes.push(format!(
        "tracing overhead: throughput {untraced:.2}/s untraced vs {traced:.2}/s traced ({:+.1}%)",
        (traced / untraced - 1.0) * 100.0
    ));
}
