//! Helpers shared by the two serve workloads: server configuration,
//! control commands, the two client dialects, and the server-side stage
//! breakdown read from the flight recorder.

use crate::report::Outcome;
use crate::setup;
use crate::stats::{median, median_or_zero, percentile};
use crate::trace::{self, Recorder, Span};
use qufem_core::{configured_threads, EngineStats, ExecArena, PreparedCalibration};
use qufem_serve::{wire, Client, MetricsInfo, Request, RequestTrace, ServeConfig, Server};
use qufem_types::{ProbDist, SupportIndex};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads (= vCPUs of the reference VM).
pub const WORKERS: usize = 2;
/// Prepared-plan cache capacity per served version.
pub const PLAN_CACHE_CAPACITY: usize = 8;
/// Flight-recorder capacity: enough records to cover the traced phase's
/// tail for the stage breakdown.
pub const FLIGHT_RECORDER: usize = 4096;

/// The server configuration both serve workloads use.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        plan_cache_capacity: PLAN_CACHE_CAPACITY,
        flight_recorder: FLIGHT_RECORDER,
        // Admit payloads of the churn workload are ~9 MB of JSON.
        max_request_bytes: 64 << 20,
        // The control connection idles through a whole measured phase.
        read_timeout: Some(Duration::from_secs(600)),
        registry: Arc::new(qufem_baselines::standard_registry(setup::harness_config())),
        prewarm: true,
        ..ServeConfig::default()
    }
}

/// Starts a server on an ephemeral local port and waits for its prewarm.
pub fn start(qufem: qufem_core::QuFem) -> Server {
    let server = Server::start(qufem, "127.0.0.1:0", serve_config()).expect("start server");
    server.wait_for_prewarm();
    server
}

/// Sends one control request and checks it succeeded.
pub fn control(addr: SocketAddr, request: &Request) -> qufem_serve::Response {
    let response =
        Client::connect(addr).and_then(|mut c| c.request(request)).expect("control exchange");
    assert!(response.ok, "control request failed: {:?}", response.error);
    response
}

/// The server's `metrics` snapshot.
pub fn metrics(addr: SocketAddr) -> MetricsInfo {
    control(addr, &Request::metrics()).metrics.expect("metrics payload")
}

/// The flight recorder's `trace` records.
pub fn trace_records(addr: SocketAddr) -> Vec<RequestTrace> {
    control(addr, &Request::trace()).trace.expect("trace payload")
}

/// A binary-dialect connection driven with the public wire codec, so the
/// benchmark can time encode, exchange and decode separately.
pub struct BinaryConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl BinaryConn {
    /// Connects; the first frame's magic byte negotiates the dialect.
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        BinaryConn { stream, reader }
    }

    /// Writes one encoded frame.
    pub fn write(&mut self, frame: &[u8]) {
        self.stream.write_all(frame).expect("write frame");
    }

    /// Reads one whole response frame.
    pub fn read_frame(&mut self) -> wire::Frame {
        let mut header = [0u8; wire::HEADER_LEN];
        self.reader.read_exact(&mut header).expect("read frame header");
        let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let id = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let mut payload = vec![0u8; len];
        self.reader.read_exact(&mut payload).expect("read frame payload");
        wire::Frame { id, code: header[16], payload }
    }
}

/// An NDJSON connection driven with the public protocol types.
pub struct JsonConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl JsonConn {
    /// Connects; the first `{` negotiates the dialect.
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        JsonConn { stream, reader, line: String::new() }
    }

    /// Writes one request line (newline included) and reads the response
    /// line.
    pub fn exchange(&mut self, line: &[u8]) -> &str {
        self.stream.write_all(line).expect("write request line");
        self.line.clear();
        self.reader.read_line(&mut self.line).expect("read response line");
        assert!(!self.line.is_empty(), "server closed the connection");
        self.line.trim_end()
    }
}

/// What one client connection measured.
pub struct ConnResult {
    /// Client-side latency of every calibrate, µs.
    pub latencies_us: Vec<f64>,
    /// Calibrates that failed or did not verify.
    pub failed: u64,
    /// The first few failures.
    pub mismatches: Vec<String>,
    /// Request bytes written.
    pub request_bytes: u64,
    /// Response bytes read.
    pub response_bytes: u64,
    /// The connection's spans.
    pub rec: Recorder,
}

/// The merged client-side results of one measured phase.
pub struct Clients {
    /// Client-side latency of every calibrate, µs.
    pub latencies_us: Vec<f64>,
    /// Request bytes written.
    pub request_bytes: u64,
    /// Response bytes read.
    pub response_bytes: u64,
    /// Every connection's spans.
    pub spans: Vec<Span>,
}

impl Clients {
    /// Merges the connections' results, adding their attempts and failures
    /// to `outcome`.
    pub fn merge(results: Vec<ConnResult>, outcome: &mut Outcome) -> Self {
        let mut clients = Clients {
            latencies_us: Vec::new(),
            request_bytes: 0,
            response_bytes: 0,
            spans: vec![],
        };
        let mut recs = Vec::new();
        for r in results {
            outcome.attempted += r.latencies_us.len() as u64;
            outcome.failed += r.failed;
            outcome.mismatches.extend(r.mismatches);
            clients.latencies_us.extend(r.latencies_us);
            clients.request_bytes += r.request_bytes;
            clients.response_bytes += r.response_bytes;
            recs.push(r.rec);
        }
        clients.spans = trace::merge(recs);
        clients
    }

    /// Splits the latencies into one sample per fixed-count window, for
    /// `connections` that each completed `windows` windows of `per_window`
    /// calibrates (merged connection-major, window order within each).
    pub fn per_window(
        &self,
        connections: usize,
        windows: usize,
        per_window: usize,
    ) -> Vec<Vec<f64>> {
        assert_eq!(self.latencies_us.len(), connections * windows * per_window);
        (0..windows)
            .map(|w| {
                (0..connections)
                    .flat_map(|c| {
                        let start = (c * windows + w) * per_window;
                        &self.latencies_us[start..start + per_window]
                    })
                    .copied()
                    .collect()
            })
            .collect()
    }
}

/// Output of one in-process reference calibration.
pub struct Expected {
    /// Digest of the output ([`qufem_core::digest_prob_dist`]).
    pub digest: u64,
    /// Engine counts (QuFEM only).
    pub stats: Option<EngineStats>,
    /// Relative fidelity of the output.
    pub fidelity: f64,
}

/// Reference calibration through the arena entry point, the path the
/// offline workload measures.
pub fn reference_qufem(
    prepared: &PreparedCalibration,
    arena: &mut ExecArena,
    input: &crate::inputs::Input,
) -> (ProbDist, EngineStats) {
    let mut stats = EngineStats::default();
    let index = SupportIndex::from_dist(&input.noisy);
    let out = prepared
        .apply_arena(&index, configured_threads(), &mut stats, arena)
        .expect("reference calibration");
    (out.to_dist(), stats)
}

/// Per-layer conversion and apply timings measured in-process on the
/// workload's own inputs, `reps` times over after one untimed warm-up pass
/// that sizes each case's arena.
pub fn engine_microbench(
    outcome: &mut Outcome,
    cases: &[(&PreparedCalibration, &ProbDist)],
    reps: usize,
) {
    let threads = configured_threads();
    let mut arenas: Vec<ExecArena> = cases.iter().map(|(p, _)| p.new_arena()).collect();
    let (mut from_us, mut to_us, mut apply_ms) = (vec![], vec![], vec![]);
    for rep in 0..=reps {
        for ((prepared, dist), arena) in cases.iter().zip(&mut arenas) {
            let mut stats = EngineStats::default();
            let t0 = Instant::now();
            let index = SupportIndex::from_dist(dist);
            let t1 = Instant::now();
            let out = prepared.apply_arena(&index, threads, &mut stats, arena).expect("apply");
            let t2 = Instant::now();
            let back = out.to_dist();
            let t3 = Instant::now();
            std::hint::black_box(back);
            if rep == 0 {
                continue;
            }
            from_us.push((t1 - t0).as_secs_f64() * 1e6);
            apply_ms.push((t2 - t1).as_secs_f64() * 1e3);
            to_us.push((t3 - t2).as_secs_f64() * 1e6);
        }
    }
    let l = &mut outcome.layers;
    l.insert("convert.from_dist_us", median(&from_us));
    l.insert("convert.to_dist_us", median(&to_us));
    l.insert("apply.ms_p50", percentile(&apply_ms, 0.5).expect("apply p50"));
    l.insert("apply.ms_p90", percentile(&apply_ms, 0.9).expect("apply p90"));
}

/// Engine counters per calibration from the sum over `n` calibrations.
pub fn insert_engine_layers(l: &mut BTreeMap<&'static str, f64>, total: &EngineStats, n: f64) {
    l.insert("engine.products", total.products as f64 / n);
    l.insert("engine.pruned", total.pruned as f64 / n);
    l.insert("engine.accumulated", total.accumulated as f64 / n);
    l.insert("engine.passthrough", total.passthrough as f64 / n);
    l.insert("engine.peak_output_support", total.peak_output_support as f64);
    l.insert("engine.useful_ratio", total.accumulated as f64 / total.products.max(1) as f64);
}

/// Client-side codec and exchange spans of the traced phase, reconciled
/// with the server-side stages read raw (µs) from the flight recorder.
///
/// `codec` is `wire` or `json`. Inserts the codec and `server.*` layer
/// metrics, `latency_p99_ms`, and the residual share of `latency_p50_ms`
/// the stages leave unexplained.
pub fn stage_breakdown(
    outcome: &mut Outcome,
    codec: &str,
    spans: &[Span],
    records: &[RequestTrace],
) {
    let (encode, decode) = match codec {
        "wire" => ("wire.encode", "wire.decode"),
        _ => ("json.encode", "json.decode"),
    };
    let latency_us = trace::durations_us(spans, "calibrate");
    let encode_us = median(&trace::durations_us(spans, encode));
    let decode_us = median(&trace::durations_us(spans, decode));
    let exchange_us = median(&trace::durations_us(spans, "exchange"));
    let calibrates: Vec<&RequestTrace> =
        records.iter().filter(|r| r.cmd == "calibrate" && r.outcome == "ok").collect();
    let server = |f: fn(&RequestTrace) -> u64| -> f64 {
        median_or_zero(&calibrates.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let queue = server(|r| r.queue_us);
    let prepare = server(|r| r.prepare_us);
    let apply = server(|r| r.apply_us);
    let serialize = server(|r| r.serialize_us);
    let total = server(|r| r.total_us);
    let overhead = exchange_us - total;
    let p50 = median(&latency_us);
    let sum = encode_us + decode_us + queue + prepare + apply + serialize + overhead;
    let residual = (p50 - sum) / p50;

    let l = &mut outcome.layers;
    let (enc_key, dec_key) = match codec {
        "wire" => ("wire.encode_us", "wire.decode_us"),
        _ => ("json.encode_us", "json.decode_us"),
    };
    l.insert(enc_key, encode_us);
    l.insert(dec_key, decode_us);
    l.insert("server.queue_us_p50", queue);
    l.insert("server.apply_us_p50", apply);
    l.insert("server.serialize_us_p50", serialize);
    l.insert("server.total_us_p50", total);
    l.insert("server.overhead_us", overhead);
    l.insert("stage_sum.residual_share", residual);
    if let Ok(p99) = percentile(&latency_us, 0.99) {
        l.insert("latency_p99_ms", p99 / 1e3);
    }
    outcome.notes.push(format!(
        "stage sum (p50s, µs): {codec} encode {encode_us:.1} + decode {decode_us:.1} + server queue \
         {queue:.1} + prepare {prepare:.1} + apply {apply:.1} + serialize {serialize:.1} + \
         overhead {overhead:.1} (exchange {exchange_us:.1} − server total {total:.1}) = {sum:.1} \
         vs latency p50 {p50:.1}: residual {:+.1}% ({} server records)",
        residual * 100.0,
        calibrates.len()
    ));
}

/// Plan-cache layer metrics from two `metrics` snapshots around a phase.
pub fn plan_cache_layers(outcome: &mut Outcome, before: &MetricsInfo, after: &MetricsInfo) {
    let hits = (after.plan_cache_hits - before.plan_cache_hits) as f64;
    let misses = (after.plan_cache_misses - before.plan_cache_misses) as f64;
    let l = &mut outcome.layers;
    l.insert("plan_cache.hits", hits);
    l.insert("plan_cache.misses", misses);
    l.insert("plan_cache.hit_ratio", hits / (hits + misses).max(1.0));
    l.insert("server.rejected", (after.rejected - before.rejected) as f64);
}
