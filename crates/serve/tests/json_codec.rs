//! Pins the JSON codec's bytes and parse rules on the messages the service
//! actually exchanges.
//!
//! The golden digests are FNV-1a 64 digests (`qufem_core::digest_str`) of
//! `serde_json::to_string` and `to_string_pretty` output. They fix field
//! order, float text (shortest round-trip plus the `.0` rule), escapes,
//! sorted map pairs and the pretty layout; a codec change that moves any
//! byte of any message fails here.
//!
//! The parse-rule cases fix what a reader must accept and the exact error
//! text of what it must reject.

use qufem_core::{
    digest_str, EngineStats, MethodOptions, QuFem, QuFemConfig, QuFemData, SnapshotLineage,
};
use qufem_serve::{
    DeviceStatusInfo, HistogramSummary, MethodMetrics, MetricsInfo, Request, RequestTrace,
    Response, StatusInfo,
};
use qufem_types::{BitString, ProbDist};
use serde::Value;
use std::collections::HashMap;

fn bs(s: &str) -> BitString {
    BitString::from_binary_str(s).unwrap()
}

fn sample_dist() -> ProbDist {
    // Integral, tiny, negative and long-mantissa values, on a 70-qubit
    // register so keys span two words.
    let width = 70;
    let mut dist = ProbDist::new(width);
    let mut one = BitString::zeros(width);
    one.set(0, true);
    let mut high = BitString::zeros(width);
    high.set(69, true);
    high.set(3, true);
    dist.set(BitString::zeros(width), 0.5);
    dist.set(one, 1.0 / 3.0);
    dist.set(high, -2.5e-7);
    dist
}

fn summary(scale: f64) -> HistogramSummary {
    HistogramSummary {
        count: 3,
        sum: 0.75 * scale,
        min: 1e-6 * scale,
        max: 2.0 * scale,
        p50: 0.1 * scale,
        p90: 0.3 * scale,
        p99: 1.0 * scale,
        p999: 1.999 * scale,
    }
}

fn device_info() -> DeviceStatusInfo {
    DeviceStatusInfo {
        device: "ibmq-7".into(),
        head_version: 2,
        versions: vec![0, 1, 2],
        plan_cache_len: 4,
        method_cache_len: 2,
        requests: 17,
    }
}

fn trace(id: u64, method: Option<&str>) -> RequestTrace {
    RequestTrace {
        id,
        cmd: "calibrate".into(),
        method: method.map(str::to_string),
        measured: 7,
        cache: "miss".into(),
        outcome: "ok".into(),
        queue_us: 12,
        prepare_us: 3400,
        apply_us: 880,
        serialize_us: 41,
        total_us: 4400,
        request_bytes: 1234,
        response_bytes: 987,
        ts_us: 1_000_000 + id,
        device: method.map(|_| "ibmq-7".to_string()),
        version: 1,
    }
}

fn options() -> MethodOptions {
    let mut options = MethodOptions::new();
    options.insert("max_iterations".into(), 20.0);
    options.insert("tolerance".into(), 1e-9);
    options
}

fn small_admit() -> Request {
    let config = QuFemConfig::builder()
        .characterization_threshold(5e-3)
        .shots(200)
        .seed(11)
        .build()
        .unwrap();
    let qufem = QuFem::characterize(&qufem_device::presets::ibmq_7(2), config).unwrap();
    let lineage = SnapshotLineage {
        device_id: "ibmq-7 \"edge\"\n".into(),
        version: 3,
        parent_version: Some(2),
        created_seq: 9,
    };
    Request::admit(qufem.export_versioned(&lineage)).with_device("ibmq-7")
}

/// A manifest-shaped dynamic document: nested maps, integer and float
/// counters, an empty map and sequence, and strings that need escapes.
fn manifest() -> Value {
    let s = |x: &str| Value::Str(x.to_string());
    let map = |pairs: Vec<(&str, Value)>| {
        Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    map(vec![
        ("qufem_telemetry_version", Value::UInt(1)),
        (
            "meta",
            map(vec![
                ("command", s("calibrate")),
                ("seed", Value::UInt(7)),
                ("quick", Value::Bool(false)),
            ]),
        ),
        (
            "counters",
            map(vec![("engine.products", Value::UInt(123_456)), ("engine.pruned", Value::UInt(0))]),
        ),
        (
            "gauges",
            map(vec![("parallel.threads", Value::Float(4.0)), ("rss_mb", Value::Float(28.25))]),
        ),
        ("histograms", map(vec![])),
        ("offsets", Value::Seq(vec![Value::Int(-3), Value::Float(-0.0), Value::Null])),
        ("spans", Value::Seq(vec![])),
        (
            "traceEvents",
            Value::Seq(vec![map(vec![
                ("name", s("process_name")),
                ("ph", s("M")),
                ("args", map(vec![("label", s("tab\there \u{1} \\ \"q\" é"))])),
            ])]),
        ),
    ])
}

fn golden_messages() -> Vec<(&'static str, String, String)> {
    let stats = EngineStats {
        products: 1201,
        pruned: 300,
        accumulated: 900,
        passthrough: 2,
        kept_per_level: vec![10, 20, 30],
        peak_output_support: 77,
    };
    let status = StatusInfo {
        n_qubits: 7,
        iterations: 2,
        requests: 99,
        rejected: 1,
        plan_cache_len: 3,
        plan_cache_capacity: 64,
        workers: 2,
        methods: vec!["ibu".into(), "m3".into(), "qufem".into()],
        default_method: "qufem".into(),
        devices: vec![device_info()],
        default_device: "ibmq-7".into(),
    };
    let metrics = MetricsInfo {
        uptime_us: 5_000_000,
        requests: 99,
        accepted: 4,
        rejected: 1,
        malformed: 2,
        oversized: 0,
        unknown_method: 1,
        slow: 3,
        binary_requests: 40,
        queue_depth: 0,
        plan_cache_len: 3,
        plan_cache_capacity: 64,
        plan_cache_hits: 80,
        plan_cache_misses: 19,
        flight_recorder_len: 2,
        flight_recorder_capacity: 8,
        request: summary(1.0),
        methods: vec![MethodMetrics {
            method: "qufem".into(),
            requests: 50,
            apply: summary(0.5),
            prepare: summary(3.0),
        }],
        swaps: 1,
        unknown_device: 0,
        devices: vec![device_info()],
    };
    let mut pairs: HashMap<(usize, usize), f64> = HashMap::new();
    pairs.insert((10, 0), 0.25);
    pairs.insert((9, 5), 1.0);
    pairs.insert((0, 2), -0.125);

    let calibrate = Request::calibrate(sample_dist(), Some(vec![0, 1, 2]))
        .with_method("ibu")
        .with_options(options())
        .with_device("ibmq-7")
        .with_version(1);
    vec![
        render("calibrate_request", &calibrate),
        render(
            "calibrated_response",
            &Response::calibrated(sample_dist(), stats).with_identity("ibmq-7", 1),
        ),
        render("status_response", &Response::with_status(status)),
        render("metrics_response", &Response::with_metrics(metrics)),
        render(
            "trace_response",
            &Response::with_trace(vec![trace(1, Some("qufem")), trace(2, None)]),
        ),
        render("error_response", &Response::err("malformed request: bad \"cmd\"\n\ttab")),
        render("small_admit", &small_admit()),
        render("telemetry_manifest", &manifest()),
        render("pair_keyed_map", &pairs),
    ]
}

/// `(name, compact JSON, pretty JSON)`.
fn render<T: serde::Serialize>(name: &'static str, value: &T) -> (&'static str, String, String) {
    (name, serde_json::to_string(value).unwrap(), serde_json::to_string_pretty(value).unwrap())
}

/// `(name, compact digest, pretty digest)`.
const GOLDEN: [(&str, u64, u64); 9] = [
    ("calibrate_request", 0xe32b636061b41790, 0x2207db25577d24b2),
    ("calibrated_response", 0xb1b1799dfad8338e, 0x0ee9eb0a0d82ccf8),
    ("status_response", 0x3a49e0a46364a79a, 0xd8126af90509dd80),
    ("metrics_response", 0x5a7cec80a448ec23, 0x3045851291038445),
    ("trace_response", 0x3a916d7a702b4014, 0x2025cc4dfd0d9850),
    ("error_response", 0x07fdb31e01ab3b14, 0xe08418deaf92bf2c),
    ("small_admit", 0x8aff587d6ea1e9b5, 0x5a4bdce71a33efb3),
    ("telemetry_manifest", 0xabba8890c5c16617, 0x437e6b17626a5f97),
    ("pair_keyed_map", 0x26140403f47276b9, 0xa4da14cdbfcda3f9),
];

#[test]
fn serialized_messages_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    for ((name, compact, pretty), (golden_name, c, p)) in golden_messages().iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        let got = (digest_str(compact), digest_str(pretty));
        if got != (c, p) {
            mismatches.push(format!("(\"{name}\", {:#018x}, {:#018x}),", got.0, got.1));
        }
    }
    assert!(mismatches.is_empty(), "digests moved:\n{}", mismatches.join("\n"));
}

#[test]
fn typed_messages_reparse_to_the_same_bytes() {
    let admit = serde_json::to_string(&small_admit()).unwrap();
    let back: Request = serde_json::from_str(&admit).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), admit);
    let data: QuFemData = serde_json::from_str(
        &serde_json::to_string(back.params.as_ref().expect("admit carries params")).unwrap(),
    )
    .unwrap();
    assert_eq!(data.lineage.as_ref().map(|l| l.version), Some(3));
    for (name, compact, _) in golden_messages() {
        let again = if name.ends_with("_request") {
            serde_json::to_string(&serde_json::from_str::<Request>(&compact).unwrap()).unwrap()
        } else if name.ends_with("_response") {
            serde_json::to_string(&serde_json::from_str::<Response>(&compact).unwrap()).unwrap()
        } else {
            serde_json::to_string(&serde_json::from_str::<Value>(&compact).unwrap()).unwrap()
        };
        assert_eq!(again, compact, "{name}");
    }
}

fn parse_err<T: serde::Deserialize + std::fmt::Debug>(text: &str) -> String {
    serde_json::from_str::<T>(text).unwrap_err().to_string()
}

#[test]
fn unknown_keys_are_ignored() {
    let req: Request =
        serde_json::from_str(r#"{"zzz":[1,{"deep":[null,true,-2.5e3]}],"cmd":"status","x":"q"}"#)
            .unwrap();
    assert_eq!(req.cmd, "status");
}

#[test]
fn the_first_of_duplicate_keys_wins() {
    let req: Request = serde_json::from_str(r#"{"cmd":"status","cmd":"metrics"}"#).unwrap();
    assert_eq!(req.cmd, "status");
    // A later duplicate is never converted, so its type does not matter.
    let req: Request =
        serde_json::from_str(r#"{"cmd":"trace","version":7,"version":"x"}"#).unwrap();
    assert_eq!(req.version, Some(7));
    // A first `null` on a default field wins too: the field is its default.
    let req: Request =
        serde_json::from_str(r#"{"cmd":"trace","version":null,"version":7}"#).unwrap();
    assert_eq!(req.version, None);
}

#[test]
fn null_or_missing_default_fields_take_the_default() {
    let text = |methods: &str| {
        format!(
            r#"{{"n_qubits":7,"iterations":2,"requests":0,"rejected":0,"plan_cache_len":0,
               "plan_cache_capacity":8,"workers":1{methods}}}"#
        )
    };
    for methods in ["", r#","methods":null"#] {
        let status: StatusInfo = serde_json::from_str(&text(methods)).unwrap();
        assert!(status.methods.is_empty() && status.default_device.is_empty(), "{methods}");
    }
    let req: Request = serde_json::from_str(r#"{"cmd":"calibrate","measured":null}"#).unwrap();
    assert_eq!(req.measured, None);
}

#[test]
fn trailing_input_is_rejected() {
    assert_eq!(parse_err::<Request>(r#"{"cmd":"status"} x"#), "trailing characters at byte 17");
    assert_eq!(parse_err::<u64>("1 2"), "trailing characters at byte 2");
}

#[test]
fn rejected_input_keeps_its_error_text() {
    assert_eq!(
        parse_err::<Request>(r#"{"measured":[1]}"#),
        "missing field `cmd` for struct Request"
    );
    assert_eq!(parse_err::<Request>(r#"{"cmd":5}"#), "Request.cmd: expected string, got integer");
    assert_eq!(parse_err::<Request>("[1]"), "expected map for struct Request, got sequence");
    assert_eq!(
        parse_err::<Request>(r#"{"cmd":"calibrate","dist":[3,[{"width":3,"words":["a"]},0.5]]}"#),
        "Request.dist: BitString.words: expected unsigned integer, got string"
    );
    assert_eq!(
        parse_err::<Request>(r#"{"cmd":"calibrate","version":-1}"#),
        "Request.version: expected unsigned integer, got integer"
    );
    assert_eq!(
        parse_err::<Request>(r#"{"cmd":"calibrate","measured":[1,2.5]}"#),
        "Request.measured: expected unsigned integer, got float"
    );
    assert_eq!(
        parse_err::<Request>(r#"{"cmd":"calibrate","options":[["a",1,2]]}"#),
        "Request.options: expected 2-tuple, got sequence of 3"
    );
    assert_eq!(parse_err::<u8>("300"), "integer 300 out of range for u8");
    assert_eq!(parse_err::<ProbDist>("[]"), "missing width");
    assert_eq!(
        parse_err::<ProbDist>(r#"[2,[{"width":3,"words":[1]},0.5]]"#),
        "bit-string width mismatch"
    );
    assert_eq!(
        parse_err::<ProbDist>(r#"[3,[{"width":3,"words":[8]},0.5]]"#),
        format!("bad bit string: {}", BitString::check_words(3, &[8]).unwrap_err())
    );
    let dist: ProbDist = serde_json::from_str(r#"[3,[{"width":3,"words":[5]},0.5]]"#).unwrap();
    assert_eq!(dist.prob(&bs("101")), 0.5);
    // Syntax faults are reported bare, wherever they sit.
    assert_eq!(
        parse_err::<Request>(r#"{"cmd":"status","dist":[3,"#),
        "unexpected end of JSON input"
    );
    assert_eq!(parse_err::<Request>(r#"{"cmd":"status",}"#), "expected `\"` at byte 16, got `}`");
    assert_eq!(parse_err::<Request>(r#"{"cmd":tru}"#), "invalid literal at byte 7");
    assert_eq!(
        parse_err::<Request>(r#"{"cmd":"a" "b"}"#),
        "expected `,` or `}` at byte 11, got `\"`"
    );
    assert_eq!(parse_err::<Vec<u8>>("[1 2]"), "expected `,` or `]` at byte 3, got `2`");
    assert_eq!(parse_err::<Value>("[1,]"), "unexpected character `]` at byte 3");
}
