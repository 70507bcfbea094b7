//! Always-on request observability: per-request records, per-method quantile
//! histograms, a bounded flight recorder, and the slow-request access log.
//!
//! [`ServeMetrics`] is the serve layer's **only** recorder: every counter,
//! gauge and histogram a server keeps lives here, is live for every server
//! (so the `metrics` and `trace` wire commands answer without restarting the
//! process), and reaches the opt-in global collector in `qufem-telemetry`
//! exactly once, through [`ServeMetrics::publish`] when the server is
//! joined. The steady-state cost per request is a handful of atomic
//! operations plus one short mutex-protected fold into preallocated
//! histograms and ring slots — **no heap allocation**, collector on or off
//! (pinned by the crate's counting-allocator test). Method names are
//! interned once as `Arc<str>` inside the per-method table; only resolved
//! method ids are interned, so garbage ids from untrusted clients cannot
//! grow it.
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
    /// failed). Interned via [`ServeMetrics::device_key`].
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
    /// Calibrate requests routed to this method.
    pub requests: u64,
    /// Apply latency, seconds.
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
    /// Calibrate requests per device, keyed by interned device id.
    per_device: HashMap<Arc<str>, u64>,
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
    /// Live connections the acceptor counted at its latest accept, and the
    /// high-water mark of that value.
    live_conns: AtomicU64,
    live_conns_peak: AtomicU64,
    /// Frames queued or executing across connections, as of the event
    /// loop's latest sweep.
    backlog: AtomicU64,
    malformed: AtomicU64,
    oversized: AtomicU64,
    unknown_method: AtomicU64,
    unknown_device: AtomicU64,
    swaps: AtomicU64,
    binary_requests: AtomicU64,
    slow: AtomicU64,
    /// Slow-request threshold in microseconds (`u64::MAX` = off).
    slow_threshold_us: u64,
    /// Emit slow requests as JSON lines on stderr.
    access_log: bool,
    /// Deterministic-clock mode (see [`crate::ServeConfig::frozen_clock`]):
    /// durations fold as 0, timestamps are the request id, uptime is 0.
    frozen_clock: bool,
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
            live_conns: AtomicU64::new(0),
            live_conns_peak: AtomicU64::new(0),
            backlog: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            unknown_method: AtomicU64::new(0),
            unknown_device: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            binary_requests: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            slow_threshold_us: slow_threshold_us.unwrap_or(u64::MAX),
            access_log,
            frozen_clock: false,
            state: Mutex::new(MetricsState {
                request: QuantileHistogram::default(),
                per_method: HashMap::new(),
                per_device: HashMap::new(),
                flight: FlightRecorder::new(flight_capacity),
            }),
        }
    }

    /// Switches deterministic-clock mode on or off (builder form, applied
    /// once at server construction). When frozen, [`ServeMetrics::finish`]
    /// folds every duration as 0 and stamps [`RequestRecord::ts_us`] with
    /// the request id instead of wall time, and
    /// [`ServeMetrics::uptime_us`] reports 0 — making every metrics/trace
    /// view a pure function of the request sequence.
    #[must_use]
    pub fn with_frozen_clock(mut self, frozen: bool) -> Self {
        self.frozen_clock = frozen;
        self
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
    /// connections including it.
    pub fn record_accept(&self, live: usize) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.live_conns.store(live as u64, Ordering::Relaxed);
        self.live_conns_peak.fetch_max(live as u64, Ordering::Relaxed);
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
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

    /// Microseconds since the server started (0 in deterministic-clock
    /// mode).
    pub fn uptime_us(&self) -> u64 {
        if self.frozen_clock {
            return 0;
        }
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

    /// Interns a *resolved* device id, returning the shared key used in
    /// [`RequestRecord::device`]. Allocates only the first time a device is
    /// seen; callers must not intern unvalidated client input.
    pub fn device_key(&self, id: &str) -> Arc<str> {
        let mut state = self.state.lock().expect("serve metrics lock");
        if let Some((key, _)) = state.per_device.get_key_value(id) {
            return Arc::clone(key);
        }
        let key: Arc<str> = Arc::from(id);
        state.per_device.insert(Arc::clone(&key), 0);
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

    /// Calibrate requests that named an unknown device or unretained
    /// version.
    pub fn unknown_device_count(&self) -> u64 {
        self.unknown_device.load(Ordering::Relaxed)
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
        if self.frozen_clock {
            record.queue_us = 0;
            record.prepare_us = 0;
            record.apply_us = 0;
            record.serialize_us = 0;
            record.total_us = 0;
            record.ts_us = record.id;
        } else {
            record.ts_us = self.uptime_us();
        }
        match record.outcome {
            RequestOutcome::Malformed => {
                self.malformed.fetch_add(1, Ordering::Relaxed);
            }
            RequestOutcome::Oversized => {
                self.oversized.fetch_add(1, Ordering::Relaxed);
            }
            RequestOutcome::UnknownMethod => {
                self.unknown_method.fetch_add(1, Ordering::Relaxed);
            }
            RequestOutcome::UnknownDevice => {
                self.unknown_device.fetch_add(1, Ordering::Relaxed);
            }
            RequestOutcome::Ok | RequestOutcome::Error => {}
        }
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
                        stats.requests += 1;
                        stats.apply.record(record.apply_us as f64 / 1e6);
                        if record.cache != CacheOutcome::Hit {
                            stats.prepare.record(record.prepare_us as f64 / 1e6);
                        }
                    }
                }
                if let Some(device) = &record.device {
                    if let Some(count) = state.per_device.get_mut(device.as_ref()) {
                        *count += 1;
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

    /// Counter snapshot: `(malformed, oversized, unknown_method, slow)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.malformed.load(Ordering::Relaxed),
            self.oversized.load(Ordering::Relaxed),
            self.unknown_method.load(Ordering::Relaxed),
            self.slow.load(Ordering::Relaxed),
        )
    }

    /// Copy of the end-to-end request histogram.
    pub fn request_histogram(&self) -> QuantileHistogram {
        self.state.lock().expect("serve metrics lock").request.clone()
    }

    /// Per-method stats sorted by method id (deterministic output order).
    pub fn method_stats(&self) -> Vec<(String, u64, QuantileHistogram, QuantileHistogram)> {
        let state = self.state.lock().expect("serve metrics lock");
        let mut out: Vec<_> = state
            .per_method
            .iter()
            .map(|(k, v)| (k.to_string(), v.requests, v.apply.clone(), v.prepare.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Calibrate request counts per device, sorted by device id.
    pub fn device_stats(&self) -> Vec<(String, u64)> {
        let state = self.state.lock().expect("serve metrics lock");
        let mut out: Vec<_> = state.per_device.iter().map(|(k, v)| (k.to_string(), *v)).collect();
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

    /// Publishes the totals into the global telemetry collector (a no-op
    /// while it is off): the `serve.*` counters, the acceptor's
    /// `serve.queue_depth` gauge and its `.peak`, and the
    /// `serve.request_secs` / `serve.apply_secs.<method>` histograms. Call
    /// it once, when serving is over — [`crate::Server::join`] does.
    pub fn publish(&self) {
        if !qufem_telemetry::enabled() {
            return;
        }
        let (malformed, oversized, unknown_method, slow) = self.counters();
        for (name, value) in [
            ("serve.requests", self.requests()),
            ("serve.rejected", self.rejected()),
            ("serve.malformed", malformed),
            ("serve.oversized", oversized),
            ("serve.unknown_method", unknown_method),
            ("serve.unknown_device", self.unknown_device_count()),
            ("serve.swaps", self.swaps()),
            ("serve.slow_requests", slow),
        ] {
            qufem_telemetry::counter_add(name, value);
        }
        qufem_telemetry::gauge_set(
            "serve.queue_depth",
            self.live_conns.load(Ordering::Relaxed) as f64,
        );
        qufem_telemetry::gauge_max(
            "serve.queue_depth.peak",
            self.live_conns_peak.load(Ordering::Relaxed) as f64,
        );
        let state = self.state.lock().expect("serve metrics lock");
        qufem_telemetry::histogram_merge("serve.request_secs", &state.request);
        for (method, stats) in &state.per_method {
            qufem_telemetry::histogram_merge(&format!("serve.apply_secs.{method}"), &stats.apply);
        }
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
        let (name, requests, apply, prepare) = &methods[0];
        assert_eq!(name, "qufem");
        assert_eq!(*requests, 4);
        assert_eq!(apply.count, 4);
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
        assert_eq!(metrics.counters().2, 1, "unknown_method counted");
    }

    #[test]
    fn device_attribution_and_catalog_counters() {
        let metrics = ServeMetrics::new(4, None, false);
        let dev = metrics.device_key("ibmq-7");
        assert!(Arc::ptr_eq(&dev, &metrics.device_key("ibmq-7")));
        for i in 0..3u64 {
            let mut r = record(metrics.begin(), 100 + i);
            r.device = Some(Arc::clone(&dev));
            r.version = 1;
            metrics.finish(r);
        }
        assert_eq!(metrics.device_stats(), vec![("ibmq-7".to_string(), 3)]);
        // Trace carries the attribution.
        let trace = metrics.flight_dump()[0].to_trace();
        assert_eq!(trace.device.as_deref(), Some("ibmq-7"));
        assert_eq!(trace.version, 1);
        // Unknown-device outcomes count without touching per-device stats.
        let mut r = record(metrics.begin(), 10);
        r.outcome = RequestOutcome::UnknownDevice;
        metrics.finish(r);
        assert_eq!(metrics.unknown_device_count(), 1);
        assert_eq!(metrics.device_stats(), vec![("ibmq-7".to_string(), 3)]);
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
        assert_eq!(metrics.counters().3, 2, "requests at/over threshold are slow");
    }

    #[test]
    fn frozen_clock_zeroes_durations_and_stamps_ids() {
        let metrics = ServeMetrics::new(4, Some(1), false).with_frozen_clock(true);
        let id = metrics.begin();
        let mut r = record(id, 50_000);
        r.queue_us = 7;
        r.prepare_us = 456;
        r.apply_us = 123;
        r.serialize_us = 9;
        metrics.finish(r);
        assert_eq!(metrics.uptime_us(), 0, "frozen uptime is 0");
        assert_eq!(metrics.counters().3, 0, "frozen requests are never slow");
        let dump = metrics.flight_dump();
        assert_eq!(dump[0].total_us, 0);
        assert_eq!(dump[0].queue_us, 0);
        assert_eq!(dump[0].prepare_us, 0);
        assert_eq!(dump[0].apply_us, 0);
        assert_eq!(dump[0].serialize_us, 0);
        assert_eq!(dump[0].ts_us, id, "timestamp is the request id");
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
        assert_eq!(metrics.live_conns.load(Ordering::Relaxed), 1, "latest accept");
        assert_eq!(metrics.live_conns_peak.load(Ordering::Relaxed), 5, "high-water mark");
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
