//! Wire types for the qufem-serve newline-delimited JSON protocol.
//!
//! One request is one line of JSON, one response is one line of JSON; a
//! connection carries any number of request/response pairs in order. The
//! format is documented in the README's "Serving" section and pinned by the
//! round-trip tests below — it is a compatibility surface, change it only
//! with a protocol version bump.

use qufem_core::{EngineStats, MethodOptions, QuFemData};
use qufem_telemetry::QuantileHistogram;
use qufem_types::ProbDist;
use serde::{Deserialize, Serialize};

/// Command verb: calibrate one distribution.
pub const CMD_CALIBRATE: &str = "calibrate";
/// Command verb: report server status.
pub const CMD_STATUS: &str = "status";
/// Command verb: begin graceful shutdown.
pub const CMD_SHUTDOWN: &str = "shutdown";
/// Command verb: report live serving metrics (counters + quantiles).
pub const CMD_METRICS: &str = "metrics";
/// Command verb: dump the request flight recorder.
pub const CMD_TRACE: &str = "trace";
/// Command verb: admit a recalibrated snapshot into the catalog (hot-swap).
pub const CMD_ADMIT: &str = "admit";

/// One request frame.
///
/// `cmd` selects the operation; the remaining fields are optional and only
/// read by the commands that need them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// `"calibrate"`, `"status"`, or `"shutdown"`.
    pub cmd: String,
    /// Measured qubit indices for `calibrate` (defaults to the full
    /// register of the served calibrator).
    #[serde(default)]
    pub measured: Option<Vec<usize>>,
    /// The measured distribution to calibrate (required by `calibrate`).
    #[serde(default)]
    pub dist: Option<ProbDist>,
    /// Calibration method id for `calibrate` (defaults to the server's
    /// default method; requests from older clients omit this field). An
    /// unknown id fails *that request* with an error frame — the connection
    /// stays open.
    #[serde(default)]
    pub method: Option<String>,
    /// Per-request method options for `calibrate` (e.g. `max_iterations`
    /// for `ibu`). When present and non-empty the method is rebuilt for
    /// this request with the overrides applied, bypassing the plan cache.
    #[serde(default)]
    pub options: Option<MethodOptions>,
    /// Output format for `metrics`: `"json"` (the default) answers with a
    /// structured [`MetricsInfo`]; `"text"` answers with the Prometheus-like
    /// rendering in [`Response::metrics_text`].
    #[serde(default)]
    pub format: Option<String>,
    /// Device id for `calibrate`/`admit` (defaults to the server's default
    /// device; requests from older clients omit this field). An unknown id
    /// fails *that request* with an error frame — the connection stays open.
    #[serde(default)]
    pub device: Option<String>,
    /// Pins `calibrate` to an explicit snapshot version of the device
    /// (defaults to the device's head version). Pinned requests keep
    /// answering bit-identically across hot-swaps as long as the version is
    /// retained in the catalog.
    #[serde(default)]
    pub version: Option<u64>,
    /// Exported calibration parameters for `admit` (the hot-swap payload;
    /// see `QuFem::export_versioned`).
    #[serde(default)]
    pub params: Option<QuFemData>,
}

impl Request {
    /// A `calibrate` request over an explicit measured set, using the
    /// server's default method and device.
    pub fn calibrate(dist: ProbDist, measured: Option<Vec<usize>>) -> Self {
        Request {
            cmd: CMD_CALIBRATE.to_string(),
            measured,
            dist: Some(dist),
            method: None,
            options: None,
            format: None,
            device: None,
            version: None,
            params: None,
        }
    }

    /// An `admit` request carrying exported calibration parameters. The
    /// target device comes from the params' lineage stamp unless overridden
    /// with [`Request::with_device`].
    pub fn admit(params: QuFemData) -> Self {
        let mut req = Request::bare(CMD_ADMIT);
        req.params = Some(params);
        req
    }

    /// Selects an explicit calibration method for this request.
    #[must_use]
    pub fn with_method(mut self, method: impl Into<String>) -> Self {
        self.method = Some(method.into());
        self
    }

    /// Attaches per-request method options.
    #[must_use]
    pub fn with_options(mut self, options: MethodOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Routes this request to an explicit device.
    #[must_use]
    pub fn with_device(mut self, device: impl Into<String>) -> Self {
        self.device = Some(device.into());
        self
    }

    /// Pins this request to an explicit snapshot version.
    #[must_use]
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = Some(version);
        self
    }

    /// A `status` request.
    pub fn status() -> Self {
        Request::bare(CMD_STATUS)
    }

    /// A `shutdown` request.
    pub fn shutdown() -> Self {
        Request::bare(CMD_SHUTDOWN)
    }

    /// A `metrics` request answering with structured JSON.
    pub fn metrics() -> Self {
        Request::bare(CMD_METRICS)
    }

    /// A `metrics` request answering in the Prometheus-like text format.
    pub fn metrics_text() -> Self {
        let mut req = Request::bare(CMD_METRICS);
        req.format = Some("text".to_string());
        req
    }

    /// A `trace` request (flight-recorder dump).
    pub fn trace() -> Self {
        Request::bare(CMD_TRACE)
    }

    fn bare(cmd: &str) -> Self {
        Request {
            cmd: cmd.to_string(),
            measured: None,
            dist: None,
            method: None,
            options: None,
            format: None,
            device: None,
            version: None,
            params: None,
        }
    }
}

/// Server status snapshot returned by the `status` command.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusInfo {
    /// Qubit count of the served calibrator.
    pub n_qubits: usize,
    /// Calibration iterations of the served calibrator.
    pub iterations: usize,
    /// Requests answered (any command, successful or failed).
    pub requests: u64,
    /// Connections rejected because the queue was full.
    pub rejected: u64,
    /// Prepared plans currently cached.
    pub plan_cache_len: usize,
    /// Plan-cache capacity.
    pub plan_cache_capacity: usize,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Method ids this server can calibrate with (sorted).
    #[serde(default)]
    pub methods: Vec<String>,
    /// Method used when a request omits `method`.
    #[serde(default)]
    pub default_method: String,
    /// Per-device catalog contents, sorted by device id (absent in frames
    /// from pre-catalog servers).
    #[serde(default)]
    pub devices: Vec<DeviceStatusInfo>,
    /// Device served when a request omits `device`.
    #[serde(default)]
    pub default_device: String,
}

/// One device's catalog state, as reported in [`StatusInfo`] and
/// [`MetricsInfo`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceStatusInfo {
    /// Device id.
    pub device: String,
    /// Version new unpinned requests resolve to.
    pub head_version: u64,
    /// Versions currently retained (pinnable), ascending.
    pub versions: Vec<u64>,
    /// Prepared plans cached across this device's retained versions.
    pub plan_cache_len: usize,
    /// Instantiated `(version, method)` mitigators for this device.
    pub method_cache_len: usize,
    /// Calibrate requests routed to this device since startup.
    #[serde(default)]
    pub requests: u64,
}

/// Compact quantile summary of one [`QuantileHistogram`], as it travels in
/// [`MetricsInfo`]. Empty histograms report all-zero fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values (seconds for latency histograms).
    pub sum: f64,
    /// Smallest recorded value (0 when empty).
    pub min: f64,
    /// Largest recorded value (0 when empty).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Estimated 99.9th percentile.
    pub p999: f64,
}

impl From<&QuantileHistogram> for HistogramSummary {
    fn from(h: &QuantileHistogram) -> Self {
        if h.count == 0 {
            return HistogramSummary {
                count: 0,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                p999: 0.0,
            };
        }
        HistogramSummary {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
        }
    }
}

/// Per-method serving metrics inside [`MetricsInfo`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodMetrics {
    /// Method id (e.g. `"qufem"`, `"m3"`).
    pub method: String,
    /// Calibrate requests served by this method.
    pub requests: u64,
    /// Apply latency distribution, seconds.
    pub apply: HistogramSummary,
    /// Prepare latency distribution, seconds (cache misses/bypasses only).
    pub prepare: HistogramSummary,
}

/// Live metrics snapshot returned by the `metrics` command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsInfo {
    /// Microseconds since the server started.
    pub uptime_us: u64,
    /// Requests answered (any command, successful or failed).
    pub requests: u64,
    /// Connections accepted into the queue.
    pub accepted: u64,
    /// Connections rejected by backpressure.
    pub rejected: u64,
    /// Frames that failed to parse as requests.
    pub malformed: u64,
    /// Frames over the byte limit.
    pub oversized: u64,
    /// Calibrate requests naming an unknown method (or bad options).
    pub unknown_method: u64,
    /// Requests at or over the slow threshold (0 when no threshold is set).
    pub slow: u64,
    /// Requests received over the binary frame dialect (any command); the
    /// remainder arrived as NDJSON. Absent in pre-binary servers.
    #[serde(default)]
    pub binary_requests: u64,
    /// Requests decoded but not yet answered (dispatch backlog).
    pub queue_depth: u64,
    /// Prepared plans currently cached.
    pub plan_cache_len: usize,
    /// Plan-cache capacity.
    pub plan_cache_capacity: usize,
    /// Plan-cache hits since startup.
    pub plan_cache_hits: u64,
    /// Plan-cache misses since startup.
    pub plan_cache_misses: u64,
    /// Records currently in the flight recorder.
    pub flight_recorder_len: usize,
    /// Flight-recorder capacity (0 = disabled).
    pub flight_recorder_capacity: usize,
    /// End-to-end request latency across all commands, seconds.
    pub request: HistogramSummary,
    /// Per-method latency summaries, sorted by method id.
    pub methods: Vec<MethodMetrics>,
    /// Snapshots admitted into the catalog since startup (hot-swaps).
    #[serde(default)]
    pub swaps: u64,
    /// Calibrate requests naming an unknown device or unretained version.
    #[serde(default)]
    pub unknown_device: u64,
    /// Per-device catalog state, sorted by device id.
    #[serde(default)]
    pub devices: Vec<DeviceStatusInfo>,
}

/// One flight-recorder entry as it travels in `trace` responses — and,
/// line-for-line, the schema of slow-request access-log lines on stderr.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// Monotonic request id (unique per server instance).
    pub id: u64,
    /// Command verb (`"calibrate"`, `"status"`, …, `"unknown"`).
    pub cmd: String,
    /// Resolved method id, or `null` when not a calibrate / not resolved.
    pub method: Option<String>,
    /// Measured qubits in the request (0 when not a calibrate).
    pub measured: u32,
    /// Plan-cache interaction: `"hit"`, `"miss"`, `"bypass"`, or `"-"`.
    pub cache: String,
    /// Terminal state: `"ok"`, `"error"`, `"malformed"`, `"oversized"`, or
    /// `"unknown_method"`.
    pub outcome: String,
    /// Wait from the frame leaving its connection's read buffer until a
    /// worker started it, µs (0 for terminal error frames).
    pub queue_us: u64,
    /// Preparation time (cache build or bypass rebuild), µs.
    pub prepare_us: u64,
    /// Apply time, µs.
    pub apply_us: u64,
    /// Response serialization time, µs.
    pub serialize_us: u64,
    /// Time from a worker starting the request to its response encoded, µs.
    pub total_us: u64,
    /// Bytes in the request line.
    pub request_bytes: u64,
    /// Bytes in the response line.
    pub response_bytes: u64,
    /// Completion time, µs since the server started.
    pub ts_us: u64,
    /// Resolved device id, or `null` when not device-routed (non-calibrate,
    /// unknown device). Attributes slow requests to a tenant.
    #[serde(default)]
    pub device: Option<String>,
    /// Resolved snapshot version (0 when not device-routed).
    #[serde(default)]
    pub version: u64,
}

/// One response frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Error description when `ok` is false.
    #[serde(default)]
    pub error: Option<String>,
    /// Calibrated quasi-probability distribution (`calibrate` only).
    #[serde(default)]
    pub dist: Option<ProbDist>,
    /// Engine counters for this request (`calibrate` only).
    #[serde(default)]
    pub stats: Option<EngineStats>,
    /// Status snapshot (`status` only).
    #[serde(default)]
    pub status: Option<StatusInfo>,
    /// Live metrics snapshot (`metrics` only, JSON format).
    #[serde(default)]
    pub metrics: Option<MetricsInfo>,
    /// Prometheus-like text rendering (`metrics` with `format: "text"`).
    #[serde(default)]
    pub metrics_text: Option<String>,
    /// Flight-recorder dump, oldest first (`trace` only).
    #[serde(default)]
    pub trace: Option<Vec<RequestTrace>>,
    /// Device the request resolved to (`calibrate`/`admit`; audit echo).
    #[serde(default)]
    pub device: Option<String>,
    /// Snapshot version the request resolved to (`calibrate`: the version
    /// served; `admit`: the version assigned to the admitted snapshot).
    #[serde(default)]
    pub version: Option<u64>,
}

impl Response {
    fn base(ok: bool) -> Self {
        Response {
            ok,
            error: None,
            dist: None,
            stats: None,
            status: None,
            metrics: None,
            metrics_text: None,
            trace: None,
            device: None,
            version: None,
        }
    }

    /// A failure response.
    pub fn err(message: impl Into<String>) -> Self {
        let mut resp = Response::base(false);
        resp.error = Some(message.into());
        resp
    }

    /// A bare success response (shutdown acknowledgement).
    pub fn ack() -> Self {
        Response::base(true)
    }

    /// A calibration result response.
    pub fn calibrated(dist: ProbDist, stats: EngineStats) -> Self {
        let mut resp = Response::base(true);
        resp.dist = Some(dist);
        resp.stats = Some(stats);
        resp
    }

    /// A calibration result from a method that reports no engine counters
    /// (the stateless baselines).
    pub fn calibrated_without_stats(dist: ProbDist) -> Self {
        let mut resp = Response::base(true);
        resp.dist = Some(dist);
        resp
    }

    /// A status response.
    pub fn with_status(status: StatusInfo) -> Self {
        let mut resp = Response::base(true);
        resp.status = Some(status);
        resp
    }

    /// A structured metrics response.
    pub fn with_metrics(metrics: MetricsInfo) -> Self {
        let mut resp = Response::base(true);
        resp.metrics = Some(metrics);
        resp
    }

    /// A text-format metrics response.
    pub fn with_metrics_text(text: String) -> Self {
        let mut resp = Response::base(true);
        resp.metrics_text = Some(text);
        resp
    }

    /// A flight-recorder dump response.
    pub fn with_trace(trace: Vec<RequestTrace>) -> Self {
        let mut resp = Response::base(true);
        resp.trace = Some(trace);
        resp
    }

    /// Stamps the `(device, version)` identity echo onto this response.
    #[must_use]
    pub fn with_identity(mut self, device: impl Into<String>, version: u64) -> Self {
        self.device = Some(device.into());
        self.version = Some(version);
        self
    }

    /// An `admit` acknowledgement echoing the assigned identity.
    pub fn admitted(device: impl Into<String>, version: u64) -> Self {
        Response::base(true).with_identity(device, version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_types::BitString;

    #[test]
    fn request_json_matches_documented_shape() {
        let mut dist = ProbDist::new(2);
        dist.set(BitString::zeros(2), 0.75);
        let req = Request::calibrate(dist, Some(vec![0, 2]));
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"cmd\":\"calibrate\""), "json: {json}");
        assert!(json.contains("\"measured\":[0,2]"), "json: {json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cmd, CMD_CALIBRATE);
        assert_eq!(back.measured, Some(vec![0, 2]));
    }

    #[test]
    fn response_roundtrip_preserves_dist_bits() {
        let mut dist = ProbDist::new(3);
        dist.set(BitString::from_index(5, 3).unwrap(), 0.1 + 0.2); // non-representable sum
        dist.set(BitString::from_index(2, 3).unwrap(), -1.5e-9);
        let stats =
            EngineStats { products: 7, kept_per_level: vec![3, 1], ..EngineStats::default() };
        let resp = Response::calibrated(dist.clone(), stats.clone());
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert!(back.ok);
        assert_eq!(back.stats.as_ref().unwrap(), &stats);
        let (a, b) = (dist.sorted_pairs(), back.dist.unwrap().sorted_pairs());
        assert_eq!(a.len(), b.len());
        for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "float bits must survive the wire");
        }
    }

    #[test]
    fn minimal_request_line_parses_with_defaults() {
        let req: Request = serde_json::from_str(r#"{"cmd":"status"}"#).unwrap();
        assert_eq!(req.cmd, CMD_STATUS);
        assert!(req.measured.is_none());
        assert!(req.dist.is_none());
        assert!(req.method.is_none());
        assert!(req.options.is_none());
    }

    #[test]
    fn request_with_method_and_options_round_trips() {
        let mut dist = ProbDist::new(2);
        dist.set(BitString::zeros(2), 1.0);
        let mut options = MethodOptions::new();
        options.insert("max_iterations".to_string(), 50.0);
        let req = Request::calibrate(dist, None).with_method("ibu").with_options(options.clone());
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"method\":\"ibu\""), "json: {json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.method.as_deref(), Some("ibu"));
        assert_eq!(back.options, Some(options));
    }

    #[test]
    fn old_method_less_wire_format_still_parses() {
        // The exact calibrate line shape shipped before the method field
        // existed — old clients must keep working against new servers.
        let dist =
            ProbDist::from_pairs(2, [(BitString::from_binary_str("10").unwrap(), 0.75)]).unwrap();
        let dist_json = serde_json::to_string(&dist).unwrap();
        let line = format!(r#"{{"cmd":"calibrate","measured":[0,1],"dist":{dist_json}}}"#);
        let req: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(req.cmd, CMD_CALIBRATE);
        assert_eq!(req.measured, Some(vec![0, 1]));
        assert!(req.method.is_none(), "missing method must default to None");
        assert!(req.options.is_none());
        assert!(req.device.is_none(), "missing device must default to None");
        assert!(req.version.is_none());
        assert!(req.params.is_none());

        // Likewise old StatusInfo frames without methods/default_method.
        let status: StatusInfo = serde_json::from_str(
            r#"{"n_qubits":7,"iterations":2,"requests":0,"rejected":0,
                "plan_cache_len":0,"plan_cache_capacity":8,"workers":4}"#,
        )
        .unwrap();
        assert!(status.methods.is_empty());
        assert!(status.default_method.is_empty());
        assert!(status.devices.is_empty());
        assert!(status.default_device.is_empty());
    }

    #[test]
    fn device_and_version_fields_round_trip() {
        let dist =
            ProbDist::from_pairs(1, [(BitString::from_binary_str("1").unwrap(), 1.0)]).unwrap();
        let req = Request::calibrate(dist, None).with_device("ibmq-7").with_version(2);
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"device\":\"ibmq-7\""), "json: {json}");
        assert!(json.contains("\"version\":2"), "json: {json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.device.as_deref(), Some("ibmq-7"));
        assert_eq!(back.version, Some(2));

        let resp = Response::ack().with_identity("ibmq-7", 3);
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back.device.as_deref(), Some("ibmq-7"));
        assert_eq!(back.version, Some(3));
    }

    #[test]
    fn pre_catalog_response_frames_still_parse() {
        // The exact response shape shipped before the catalog existed — new
        // clients must keep working against pre-catalog servers.
        let old = r#"{"ok":true,"error":null,"dist":null,"stats":null,"status":null,
                      "metrics":null,"metrics_text":null,"trace":null}"#;
        let resp: Response = serde_json::from_str(old).unwrap();
        assert!(resp.ok);
        assert!(resp.device.is_none());
        assert!(resp.version.is_none());

        // Old traces without device attribution.
        let old_trace = r#"{"id":1,"cmd":"calibrate","method":"qufem","measured":7,
            "cache":"hit","outcome":"ok","queue_us":0,"prepare_us":0,"apply_us":1,
            "serialize_us":1,"total_us":2,"request_bytes":10,"response_bytes":20,"ts_us":5}"#;
        let trace: RequestTrace = serde_json::from_str(old_trace).unwrap();
        assert!(trace.device.is_none());
        assert_eq!(trace.version, 0);
    }

    #[test]
    fn metrics_and_trace_requests_round_trip() {
        let req = Request::metrics();
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"cmd\":\"metrics\""), "json: {json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cmd, CMD_METRICS);
        assert!(back.format.is_none());

        let req = Request::metrics_text();
        let back: Request = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back.format.as_deref(), Some("text"));

        let req = Request::trace();
        let back: Request = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back.cmd, CMD_TRACE);
    }

    #[test]
    fn metrics_response_round_trips_with_quantiles() {
        let mut h = QuantileHistogram::default();
        for v in [0.001, 0.002, 0.004, 0.1] {
            h.record(v);
        }
        let summary = HistogramSummary::from(&h);
        assert_eq!(summary.count, 4);
        assert!(summary.p50 <= summary.p90 && summary.p90 <= summary.p99);
        let info = MetricsInfo {
            uptime_us: 1_000_000,
            requests: 10,
            accepted: 9,
            rejected: 1,
            malformed: 0,
            oversized: 0,
            unknown_method: 2,
            slow: 1,
            binary_requests: 3,
            queue_depth: 0,
            plan_cache_len: 1,
            plan_cache_capacity: 8,
            plan_cache_hits: 7,
            plan_cache_misses: 1,
            flight_recorder_len: 10,
            flight_recorder_capacity: 256,
            request: summary.clone(),
            methods: vec![MethodMetrics {
                method: "qufem".to_string(),
                requests: 8,
                apply: summary.clone(),
                prepare: HistogramSummary::from(&QuantileHistogram::default()),
            }],
            swaps: 2,
            unknown_device: 1,
            devices: vec![DeviceStatusInfo {
                device: "ibmq-7".to_string(),
                head_version: 2,
                versions: vec![0, 1, 2],
                plan_cache_len: 3,
                method_cache_len: 2,
                requests: 8,
            }],
        };
        let resp = Response::with_metrics(info.clone());
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert!(back.ok);
        assert_eq!(back.metrics, Some(info));
        assert!(back.trace.is_none());
    }

    #[test]
    fn empty_histogram_summary_is_all_zeros_not_null() {
        let summary = HistogramSummary::from(&QuantileHistogram::default());
        let json = serde_json::to_string(&summary).unwrap();
        assert!(!json.contains("null"), "empty summary must not leak infinities: {json}");
        let back: HistogramSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
        assert_eq!(back.min, 0.0);
        assert_eq!(back.max, 0.0);
    }

    #[test]
    fn trace_response_round_trips() {
        let entry = RequestTrace {
            id: 42,
            cmd: "calibrate".to_string(),
            method: Some("qufem".to_string()),
            measured: 7,
            cache: "hit".to_string(),
            outcome: "ok".to_string(),
            queue_us: 12,
            prepare_us: 0,
            apply_us: 340,
            serialize_us: 25,
            total_us: 400,
            request_bytes: 512,
            response_bytes: 1024,
            ts_us: 9_000_000,
            device: Some("ibmq-7".to_string()),
            version: 1,
        };
        let resp = Response::with_trace(vec![entry.clone()]);
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back.trace, Some(vec![entry]));
    }

    #[test]
    fn pre_observability_response_frames_still_parse() {
        // The exact response shape shipped before metrics/trace existed —
        // new clients must keep working against old servers.
        let old = r#"{"ok":true,"error":null,"dist":null,"stats":null,"status":null}"#;
        let resp: Response = serde_json::from_str(old).unwrap();
        assert!(resp.ok);
        assert!(resp.metrics.is_none());
        assert!(resp.metrics_text.is_none());
        assert!(resp.trace.is_none());

        // And old requests without the format field.
        let req: Request = serde_json::from_str(r#"{"cmd":"status"}"#).unwrap();
        assert!(req.format.is_none());
    }

    #[test]
    fn calibrated_without_stats_omits_counters() {
        let mut dist = ProbDist::new(1);
        dist.set(BitString::zeros(1), 1.0);
        let resp = Response::calibrated_without_stats(dist);
        assert!(resp.ok);
        assert!(resp.stats.is_none());
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert!(back.stats.is_none());
        assert!(back.dist.is_some());
    }
}
