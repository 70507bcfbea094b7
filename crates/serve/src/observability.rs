//! Always-on request observability: per-request records, per-method quantile
//! histograms, a bounded flight recorder, and the slow-request access log.
//!
//! [`ServeMetrics`] records every request-level count and histogram a
//! server keeps; the catalog counts requests per device version and the
//! event loop owns the live-connection count. All of it is live for every
//! server (so the `metrics` and `trace` wire commands answer without
//! restarting the process) and reaches the opt-in global collector in
//! `qufem-telemetry` exactly once, when [`crate::Server::join`] exports what
//! the `metrics` command composes. The steady-state cost per request is a
//! handful of atomic operations plus one short mutex-protected fold into
//! preallocated histograms and ring slots — **no heap allocation**,
//! collector on or off (pinned by the crate's counting-allocator test).
//! Method names are interned once as `Arc<str>` inside the per-method
//! table; only resolved method ids are interned, so garbage ids from
//! untrusted clients cannot grow it.
//!
//! The slow-request access log (off by default) emits one JSON line per
//! request over the threshold on stderr, with exactly the same schema as the
//! `trace` command's entries ([`crate::protocol::RequestTrace`]).

use crate::protocol::RequestTrace;
use qufem_telemetry::QuantileHistogram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Command verb of a recorded request, as a cheap enum (no per-request
/// string).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestCmd {
    /// `calibrate`
    Calibrate,
    /// `status`
    Status,
    /// `shutdown`
    Shutdown,
    /// `metrics`
    Metrics,
    /// `trace`
    Trace,
    /// `admit`
    Admit,
    /// Anything else (including frames that never parsed).
    Unknown,
}

impl RequestCmd {
    /// Stable lowercase name used in traces and access-log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestCmd::Calibrate => "calibrate",
            RequestCmd::Status => "status",
            RequestCmd::Shutdown => "shutdown",
            RequestCmd::Metrics => "metrics",
            RequestCmd::Trace => "trace",
            RequestCmd::Admit => "admit",
            RequestCmd::Unknown => "unknown",
        }
    }
}

/// How a calibrate request interacted with the plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the plan cache.
    Hit,
    /// Preparation built and inserted.
    Miss,
    /// Per-request option overrides bypassed the cache.
    Bypass,
    /// The request never reached the cache (non-calibrate, early error).
    NotApplicable,
}

impl CacheOutcome {
    /// Stable name used in traces and access-log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
            CacheOutcome::NotApplicable => "-",
        }
    }
}

/// Terminal state of a recorded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Answered `ok: true`.
    Ok,
    /// Answered with an error frame.
    Error,
    /// The frame was not valid JSON / not a valid request.
    Malformed,
    /// The frame exceeded the configured byte limit.
    Oversized,
    /// The requested method id (or its options) was rejected.
    UnknownMethod,
    /// The requested device id (or pinned version) is not in the catalog.
    UnknownDevice,
}

impl RequestOutcome {
    /// Number of variants (the discriminants are `0..COUNT`).
    const COUNT: usize = 6;

    /// Stable name used in traces and access-log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestOutcome::Ok => "ok",
            RequestOutcome::Error => "error",
            RequestOutcome::Malformed => "malformed",
            RequestOutcome::Oversized => "oversized",
            RequestOutcome::UnknownMethod => "unknown_method",
            RequestOutcome::UnknownDevice => "unknown_device",
        }
    }
}

/// Everything measured about one request. Built on the worker's stack while
/// the request is served, then folded into [`ServeMetrics::finish`].
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Monotonic id, unique per server instance (assigned at frame read).
    pub id: u64,
    /// Command verb.
    pub cmd: RequestCmd,
    /// Resolved method id (calibrate only; `None` when resolution failed).
    pub method: Option<Arc<str>>,
    /// Measured qubits in the request (calibrate only).
    pub measured: u32,
    /// Plan-cache interaction.
    pub cache: CacheOutcome,
    /// Time from the frame leaving its connection's read buffer until a
    /// worker started it (0 for terminal error frames the event loop
    /// answers itself).
    pub queue_us: u64,
    /// Time preparing the mitigation (cache build or bypass rebuild).
    pub prepare_us: u64,
    /// Time in the apply (sharded matrix application).
    pub apply_us: u64,
    /// Time serializing the response line.
    pub serialize_us: u64,
    /// Time from a worker starting the request to its response encoded.
    pub total_us: u64,
    /// Bytes in the request line.
    pub request_bytes: u64,
    /// Bytes in the response line (including the newline).
    pub response_bytes: u64,
    /// Terminal state.
    pub outcome: RequestOutcome,
    /// Completion time, microseconds since the server started.
    pub ts_us: u64,
    /// Resolved device id (calibrate/admit only; `None` when resolution
    /// failed): the lineage's shared id, so recording it never allocates.
    pub device: Option<Arc<str>>,
    /// Resolved snapshot version (0 when not device-routed).
    pub version: u64,
}

impl RequestRecord {
    /// A fresh record for request `id`; fields default to "nothing measured".
    pub fn new(id: u64) -> Self {
        RequestRecord {
            id,
            cmd: RequestCmd::Unknown,
            method: None,
            measured: 0,
            cache: CacheOutcome::NotApplicable,
            queue_us: 0,
            prepare_us: 0,
            apply_us: 0,
            serialize_us: 0,
            total_us: 0,
            request_bytes: 0,
            response_bytes: 0,
            outcome: RequestOutcome::Error,
            ts_us: 0,
            device: None,
            version: 0,
        }
    }

    /// The trace/access-log view of this record (allocates; only used for
    /// `trace` dumps and slow-request log lines).
    pub fn to_trace(&self) -> RequestTrace {
        RequestTrace {
            id: self.id,
            cmd: self.cmd.as_str().to_string(),
            method: self.method.as_deref().map(str::to_string),
            measured: self.measured,
            cache: self.cache.as_str().to_string(),
            outcome: self.outcome.as_str().to_string(),
            queue_us: self.queue_us,
            prepare_us: self.prepare_us,
            apply_us: self.apply_us,
            serialize_us: self.serialize_us,
            total_us: self.total_us,
            request_bytes: self.request_bytes,
            response_bytes: self.response_bytes,
            ts_us: self.ts_us,
            device: self.device.as_deref().map(str::to_string),
            version: self.version,
        }
    }
}

/// Bounded ring of the last N [`RequestRecord`]s, preallocated so pushes
/// never allocate. Capacity 0 disables recording.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Option<RequestRecord>>,
    /// Next write position.
    head: usize,
    len: usize,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` records.
    pub fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        FlightRecorder { slots, head: 0, len: 0 }
    }

    /// Maximum records kept.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the recorder holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores one record, evicting the oldest once full. No allocation: the
    /// record moves into a preallocated slot.
    pub fn push(&mut self, record: RequestRecord) {
        let capacity = self.slots.len();
        if capacity == 0 {
            return;
        }
        self.slots[self.head] = Some(record);
        self.head = (self.head + 1) % capacity;
        self.len = (self.len + 1).min(capacity);
    }

    /// The held records, oldest first (allocates; `trace` command only).
    pub fn dump(&self) -> Vec<RequestRecord> {
        let capacity = self.slots.len();
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            let idx = (self.head + capacity - self.len + i) % capacity;
            if let Some(rec) = &self.slots[idx] {
                out.push(rec.clone());
            }
        }
        out
    }
}

/// Per-method latency distributions (always-on, independent of the global
/// telemetry collector).
#[derive(Debug, Default)]
pub struct MethodStats {
    /// Apply latency, seconds; its count is the calibrate requests this
    /// method served.
    pub apply: QuantileHistogram,
    /// Prepare latency, seconds (cache misses and bypasses only).
    pub prepare: QuantileHistogram,
}

#[derive(Debug)]
struct MetricsState {
    /// End-to-end request latency, seconds, across all commands.
    request: QuantileHistogram,
    /// Keyed by interned method id; the keys double as the interner.
    per_method: HashMap<Arc<str>, MethodStats>,
    flight: FlightRecorder,
}

/// Live, always-on serving metrics: counters, gauges, per-method quantile
/// histograms, and the flight recorder. One instance per [`crate::Server`].
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    /// Next request id; ids start at 1, so `next_id - 1` requests began.
    next_id: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    /// Most connections live at once, as the acceptor counted them.
    connections_peak: AtomicU64,
    /// Frames queued or executing across connections, as of the event
    /// loop's latest sweep.
    backlog: AtomicU64,
    /// Finished requests per [`RequestOutcome`], indexed by discriminant.
    outcomes: [AtomicU64; RequestOutcome::COUNT],
    swaps: AtomicU64,
    binary_requests: AtomicU64,
    slow: AtomicU64,
    /// Slow-request threshold in microseconds (`u64::MAX` = off).
    slow_threshold_us: u64,
    /// Emit slow requests as JSON lines on stderr.
    access_log: bool,
    state: Mutex<MetricsState>,
}

impl ServeMetrics {
    /// Creates the metrics hub. `flight_capacity` bounds the flight
    /// recorder (0 disables it); `slow_threshold_us` marks requests at or
    /// over it as slow (`None` = never); `access_log` additionally prints
    /// slow requests as JSON lines on stderr.
    pub fn new(flight_capacity: usize, slow_threshold_us: Option<u64>, access_log: bool) -> Self {
        ServeMetrics {
            started: Instant::now(),
            next_id: AtomicU64::new(1),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            connections_peak: AtomicU64::new(0),
            backlog: AtomicU64::new(0),
            outcomes: Default::default(),
            swaps: AtomicU64::new(0),
            binary_requests: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            slow_threshold_us: slow_threshold_us.unwrap_or(u64::MAX),
            access_log,
            state: Mutex::new(MetricsState {
                request: QuantileHistogram::default(),
                per_method: HashMap::new(),
                flight: FlightRecorder::new(flight_capacity),
            }),
        }
    }

    /// Allocates the next monotonic request id. Runs exactly once per
    /// answered frame, so it doubles as the request counter.
    pub fn begin(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Requests begun so far (any command, including failures).
    pub fn requests(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed) - 1
    }

    /// Counts one accepted connection; `live` is the number of live
    /// connections including it, folded into the high-water mark.
    pub fn record_accept(&self, live: usize) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.connections_peak.fetch_max(live as u64, Ordering::Relaxed);
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Most connections that were live at once so far.
    pub fn connections_peak(&self) -> u64 {
        self.connections_peak.load(Ordering::Relaxed)
    }

    /// Counts one connection shed by backpressure.
    pub fn record_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections rejected by backpressure so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Sets the number of frames queued or executing across connections.
    pub fn record_backlog(&self, frames: usize) {
        self.backlog.store(frames as u64, Ordering::Relaxed);
    }

    /// Frames queued or executing as of the latest event-loop sweep.
    pub fn backlog(&self) -> u64 {
        self.backlog.load(Ordering::Relaxed)
    }

    /// Microseconds since the server started.
    pub fn uptime_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Interns a *resolved* method id, returning the shared key used in
    /// [`RequestRecord::method`]. Allocates only the first time a method is
    /// seen; callers must not intern unvalidated client input.
    pub fn method_key(&self, id: &str) -> Arc<str> {
        let mut state = self.state.lock().expect("serve metrics lock");
        if let Some((key, _)) = state.per_method.get_key_value(id) {
            return Arc::clone(key);
        }
        let key: Arc<str> = Arc::from(id);
        state.per_method.insert(Arc::clone(&key), MethodStats::default());
        key
    }

    /// Counts one admitted snapshot (hot-swap).
    pub fn record_swap(&self) {
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots admitted since startup.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Finished requests whose terminal state was `outcome`.
    pub fn outcomes(&self, outcome: RequestOutcome) -> u64 {
        self.outcomes[outcome as usize].load(Ordering::Relaxed)
    }

    /// Requests at or over the slow threshold.
    pub fn slow(&self) -> u64 {
        self.slow.load(Ordering::Relaxed)
    }

    /// Counts one request that arrived over the binary frame dialect.
    pub fn record_binary(&self) {
        self.binary_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests received over the binary frame dialect since startup.
    pub fn binary_requests(&self) -> u64 {
        self.binary_requests.load(Ordering::Relaxed)
    }

    /// Folds one finished request into the histograms, counters, and flight
    /// recorder, and emits the access-log line if the request was slow.
    /// Stamps [`RequestRecord::ts_us`]. Allocation-free in steady state.
    pub fn finish(&self, mut record: RequestRecord) {
        record.ts_us = self.uptime_us();
        self.outcomes[record.outcome as usize].fetch_add(1, Ordering::Relaxed);
        let slow = record.total_us >= self.slow_threshold_us;
        if slow {
            self.slow.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut state = self.state.lock().expect("serve metrics lock");
            state.request.record(record.total_us as f64 / 1e6);
            if record.cmd == RequestCmd::Calibrate {
                if let Some(method) = &record.method {
                    if let Some(stats) = state.per_method.get_mut(method.as_ref()) {
                        stats.apply.record(record.apply_us as f64 / 1e6);
                        if record.cache != CacheOutcome::Hit {
                            stats.prepare.record(record.prepare_us as f64 / 1e6);
                        }
                    }
                }
            }
            state.flight.push(record.clone());
        }
        if slow && self.access_log {
            // One line per slow request; schema = `RequestTrace`.
            if let Ok(line) = serde_json::to_string(&record.to_trace()) {
                eprintln!("{line}");
            }
        }
    }

    /// Copy of the end-to-end request histogram.
    pub fn request_histogram(&self) -> QuantileHistogram {
        self.state.lock().expect("serve metrics lock").request.clone()
    }

    /// Per-method `(id, apply, prepare)` histograms sorted by method id
    /// (deterministic output order).
    pub fn method_stats(&self) -> Vec<(String, QuantileHistogram, QuantileHistogram)> {
        let state = self.state.lock().expect("serve metrics lock");
        let mut out: Vec<_> = state
            .per_method
            .iter()
            .map(|(k, v)| (k.to_string(), v.apply.clone(), v.prepare.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Flight-recorder contents, oldest first.
    pub fn flight_dump(&self) -> Vec<RequestRecord> {
        self.state.lock().expect("serve metrics lock").flight.dump()
    }

    /// `(len, capacity)` of the flight recorder.
    pub fn flight_stats(&self) -> (usize, usize) {
        let state = self.state.lock().expect("serve metrics lock");
        (state.flight.len(), state.flight.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, total_us: u64) -> RequestRecord {
        let mut r = RequestRecord::new(id);
        r.cmd = RequestCmd::Calibrate;
        r.total_us = total_us;
        r.outcome = RequestOutcome::Ok;
        r
    }

    #[test]
    fn flight_recorder_keeps_last_n_in_arrival_order() {
        let mut fr = FlightRecorder::new(3);
        assert!(fr.is_empty());
        for id in 1..=5 {
            fr.push(record(id, 10));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.capacity(), 3);
        let ids: Vec<u64> = fr.dump().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 4, 5], "oldest evicted first, dump oldest-first");
    }

    #[test]
    fn flight_recorder_capacity_zero_records_nothing() {
        let mut fr = FlightRecorder::new(0);
        fr.push(record(1, 10));
        assert!(fr.is_empty());
        assert!(fr.dump().is_empty());
    }

    #[test]
    fn finish_feeds_per_method_histograms() {
        let metrics = ServeMetrics::new(8, None, false);
        let key = metrics.method_key("qufem");
        for i in 0..4u64 {
            let mut r = record(metrics.begin(), 1_000 + i);
            r.method = Some(Arc::clone(&key));
            r.apply_us = 500;
            r.cache = if i == 0 { CacheOutcome::Miss } else { CacheOutcome::Hit };
            r.prepare_us = if i == 0 { 2_000 } else { 0 };
            metrics.finish(r);
        }
        let methods = metrics.method_stats();
        assert_eq!(methods.len(), 1);
        let (name, apply, prepare) = &methods[0];
        assert_eq!(name, "qufem");
        assert_eq!(apply.count, 4, "one apply per calibrate");
        assert_eq!(prepare.count, 1, "prepare recorded only on misses");
        assert_eq!(metrics.request_histogram().count, 4);
        assert_eq!(metrics.flight_stats(), (4, 8));
    }

    #[test]
    fn interning_is_idempotent_and_skips_unresolved_methods() {
        let metrics = ServeMetrics::new(4, None, false);
        let a = metrics.method_key("m3");
        let b = metrics.method_key("m3");
        assert!(Arc::ptr_eq(&a, &b), "same method must share one interned key");
        // A record with no method (e.g. unknown id) must not grow the table.
        let mut r = record(metrics.begin(), 10);
        r.outcome = RequestOutcome::UnknownMethod;
        metrics.finish(r);
        assert_eq!(metrics.method_stats().len(), 1);
        assert_eq!(metrics.outcomes(RequestOutcome::UnknownMethod), 1);
    }

    #[test]
    fn device_attribution_and_catalog_counters() {
        let metrics = ServeMetrics::new(4, None, false);
        let dev: Arc<str> = Arc::from("ibmq-7");
        for i in 0..3u64 {
            let mut r = record(metrics.begin(), 100 + i);
            r.device = Some(Arc::clone(&dev));
            r.version = 1;
            metrics.finish(r);
        }
        // Trace carries the attribution.
        let trace = metrics.flight_dump()[0].to_trace();
        assert_eq!(trace.device.as_deref(), Some("ibmq-7"));
        assert_eq!(trace.version, 1);
        let mut r = record(metrics.begin(), 10);
        r.outcome = RequestOutcome::UnknownDevice;
        metrics.finish(r);
        assert_eq!(metrics.outcomes(RequestOutcome::UnknownDevice), 1);
        // Swap accounting.
        metrics.record_swap();
        metrics.record_swap();
        assert_eq!(metrics.swaps(), 2);
    }

    #[test]
    fn slow_threshold_counts_without_access_log() {
        let metrics = ServeMetrics::new(4, Some(1_000), false);
        metrics.finish(record(1, 999));
        metrics.finish(record(2, 1_000));
        metrics.finish(record(3, 50_000));
        assert_eq!(metrics.slow(), 2, "requests at/over threshold are slow");
    }

    #[test]
    fn requests_count_begun_ids_and_connections_track_their_peak() {
        let metrics = ServeMetrics::new(1, None, false);
        assert_eq!(metrics.requests(), 0);
        for _ in 0..3 {
            metrics.begin();
        }
        assert_eq!(metrics.requests(), 3, "every begun request counts, finished or not");
        metrics.record_accept(2);
        metrics.record_accept(5);
        metrics.record_accept(1);
        metrics.record_reject();
        assert_eq!((metrics.accepted(), metrics.rejected()), (3, 1));
        assert_eq!(metrics.connections_peak(), 5, "high-water mark");
    }

    #[test]
    fn ids_are_monotonic() {
        let metrics = ServeMetrics::new(1, None, false);
        let ids: Vec<u64> = (0..5).map(|_| metrics.begin()).collect();
        for w in ids.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
