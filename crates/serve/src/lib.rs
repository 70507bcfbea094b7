//! # qufem-serve — a concurrent calibration service over QuFEM
//!
//! The paper treats calibration parameters as a **shared device-level
//! artifact**: characterization is expensive and device-specific, but once
//! computed it calibrates arbitrarily many programs' outputs (Eq. 7, §3.2).
//! This crate serves that artifact over TCP so clients do not have to link
//! the library or re-run characterization: a [`Server`] holds a [`Catalog`]
//! of devices — each a lineage of versioned snapshots with a per-version
//! LRU cache of prepared mitigations keyed by `(method, measured qubit
//! set)` and a [`qufem_core::MethodRegistry`] of alternative methods —
//! and answers newline-delimited JSON requests from a bounded worker pool —
//! or, negotiated per connection by the first byte, length-prefixed binary
//! frames that pipeline freely and pack distributions bit-exactly
//! (see [`wire`] and DESIGN §4.18).
//! Requests may pin a `device`/`version`; `admit` publishes a
//! re-characterization as a device's next version atomically under live
//! traffic (DESIGN §4.15), and every response echoes the serving identity.
//!
//! ```text
//! → {"cmd":"calibrate","measured":[0,1],"dist":[2,[{"width":2,"words":[0]},0.9],[{"width":2,"words":[3]},0.1]]}
//! ← {"ok":true,"dist":[2,…],"stats":{…}}
//! → {"cmd":"calibrate","method":"m3","dist":[2,[{"width":2,"words":[0]},1.0]]}
//! ← {"ok":true,"dist":[2,…]}
//! → {"cmd":"admit","params":{…},"device":"ibmq-a"}
//! ← {"ok":true,"device":"ibmq-a","version":1}
//! → {"cmd":"calibrate","device":"ibmq-a","version":0,"dist":[3,…]}
//! ← {"ok":true,"dist":[3,…],"device":"ibmq-a","version":0,"stats":{…}}
//! → {"cmd":"status"}
//! ← {"ok":true,"status":{"n_qubits":7,"methods":["qufem",…],"devices":[…],…}}
//! → {"cmd":"metrics"}
//! ← {"ok":true,"metrics":{"requests":25,"methods":[{"method":"qufem","apply":{"p50":…},…}],…}}
//! → {"cmd":"trace"}
//! ← {"ok":true,"trace":[{"id":24,"cmd":"calibrate","apply_us":512,…},…]}
//! → {"cmd":"shutdown"}
//! ← {"ok":true}
//! ```
//!
//! Every server also keeps **always-on** observability independent of the
//! opt-in telemetry collector (see [`ServeMetrics`]): per-method latency
//! quantile histograms served by `metrics` (as JSON or a Prometheus-like
//! text format), a bounded flight recorder served by `trace`, and
//! slow-request accounting with an optional stderr access log — at zero
//! heap allocations per request in steady state. Each count has one owner
//! ([`ServeMetrics`] for requests, the [`Catalog`] for per-device requests),
//! and one list of names feeds the text format and, when the collector is
//! enabled, the final totals [`Server::join`] exports into it once.
//!
//! Responses are **bit-identical** to calling the selected method's
//! [`qufem_core::Mitigator::prepare`] + apply in-process on the same input
//! — the server adds transport, caching, and concurrency, never numerics.
//! Requests that omit `method` (including every pre-registry client) are
//! served by [`ServeConfig::default_method`]; an unknown method id fails
//! only that request with an error frame.
//! Operational limits (frame size, queue depth, timeouts) and the
//! backpressure policy are documented on [`ServeConfig`] and in the
//! README's "Serving" section.
//!
//! ```no_run
//! use qufem_core::{QuFem, QuFemConfig};
//! use qufem_device::presets;
//! use qufem_serve::{Server, ServeConfig};
//!
//! let qufem = QuFem::characterize(&presets::ibmq_7(1), QuFemConfig::default())?;
//! let server = Server::start(qufem, "127.0.0.1:0", ServeConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! server.join(); // returns after a `shutdown` request drains in-flight work
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod catalog;
mod observability;
mod protocol;
mod server;
pub mod wire;

pub use cache::PlanCache;
pub use catalog::{Catalog, ResolveError, VersionEntry};
pub use observability::{
    CacheOutcome, FlightRecorder, RequestCmd, RequestOutcome, RequestRecord, ServeMetrics,
};
pub use protocol::{
    DeviceStatusInfo, HistogramSummary, MethodMetrics, MetricsInfo, Request, RequestTrace,
    Response, StatusInfo, CMD_ADMIT, CMD_CALIBRATE, CMD_METRICS, CMD_SHUTDOWN, CMD_STATUS,
    CMD_TRACE,
};
pub use server::{request_once, Client, ServeConfig, ServeHandle, Server};
