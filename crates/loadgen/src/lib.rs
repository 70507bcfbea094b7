//! # qufem-loadgen — deterministic traffic replay for the serving stack
//!
//! Serving changes (catalog hot-swaps, cache sizing, backpressure) are easy
//! to regress in ways unit tests miss: the failure only shows up under a
//! *mix* of tenants, devices, and mid-run events. This crate turns such a
//! mix into a first-class, replayable artifact:
//!
//! 1. a **scenario** ([`Scenario`], parsed from a small TOML subset)
//!    declares tenants (device × method × measured-subset × shots), the
//!    arrival process (closed lockstep vs open pipelined bursts), server
//!    sizing, and mid-run events (drift recalibration admits, client
//!    reconnects);
//! 2. a **trace** ([`trace::generate`]) materializes every request from
//!    per-client ChaCha8 streams, so the byte stream a run sends is a pure
//!    function of `(scenario, seed)`;
//! 3. the **runner** ([`run_scenario`]) replays the trace against a live
//!    in-process [`qufem_serve::Server`] in barrier-separated rounds and
//!    assembles a [`Report`] whose JSON is byte-identical across runs and
//!    across `QUFEM_THREADS` settings. The report's `determinism_digest`
//!    folds every other field, so two runs agree iff their digests do.
//!
//! Loadgen checks serving; it does not time it. Latency and throughput
//! are measured by the perfbench harness (`perfbench/` at the repo root).
//!
//! See DESIGN §4.16 for the scenario and report schemas, and `scenarios/`
//! at the repo root for the checked-in mixes CI replays.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;
mod runner;
pub mod scenario;
pub mod toml;
pub mod trace;

pub use report::Report;
pub use runner::run_scenario;
pub use scenario::Scenario;

/// Loadgen error: scenario parse/validation failures and run failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error from any message.
    pub fn new(message: impl Into<String>) -> Self {
        Error(message.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
