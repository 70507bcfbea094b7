//! Integration tests for the live serving observability layer: the
//! `metrics` wire command under concurrent load, the `trace` flight
//! recorder, the Prometheus-like text format, and the slow-request
//! accounting — mostly with the global telemetry collector left
//! **disabled**, because `ServeMetrics` must be live in every server
//! regardless. Two tests flip the collector on to prove a joined server
//! exports exactly the totals its `metrics` command reports.

use qufem::device::presets;
use qufem::serve::{wire, CacheOutcome, Client, Request, ServeConfig, Server};
use qufem::{ProbDist, QuFem, QuFemConfig, QubitSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The telemetry collector is process-global and a server exports into it
/// when joined. Tests that turn it on hold this lock for as long as it is
/// on, and every other test joins its server under the lock, so no other
/// server's totals land in a collector a test is reading.
static COLLECTOR: Mutex<()> = Mutex::new(());

fn collector_lock() -> MutexGuard<'static, ()> {
    COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stops a server whose totals no test reads from the collector.
fn stop_server(server: Server) {
    let _guard = collector_lock();
    server.shutdown_and_join();
}

fn characterized() -> (qufem::device::Device, QuFem) {
    let device = presets::ibmq_7(1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(400).seed(3).build().unwrap();
    let qufem = QuFem::characterize(&device, config).unwrap();
    (device, qufem)
}

/// Prewarm is disabled so the plan-cache hit/miss counts these tests assert
/// on are not raced by the startup warm-up build.
fn test_config() -> ServeConfig {
    ServeConfig {
        read_timeout: Some(Duration::from_secs(10)),
        prewarm: false,
        ..ServeConfig::default()
    }
}

/// A deterministic noisy input over `measured`, distinct per `seed`.
fn noisy_input(device: &qufem::device::Device, measured: &[usize], seed: u64) -> ProbDist {
    let set: QubitSet = measured.iter().copied().collect();
    let ideal = qufem::circuits::ghz(measured.len());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    device.measure_distribution(&ideal, &set, 600, &mut rng)
}

#[test]
fn metrics_under_concurrent_clients_report_monotone_quantiles() {
    let (device, qufem) = characterized();
    let device = std::sync::Arc::new(device);
    let server = Server::start(qufem, "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();

    // Warm the plan for the shared measured set first: concurrent cold
    // requests may race duplicate builds (both counting as misses), which
    // would make the cache assertions below nondeterministic.
    {
        let mut warm = Client::connect(addr).unwrap();
        let dist = noisy_input(&device, &[0, 1, 2], 999);
        assert!(warm.request(&Request::calibrate(dist, Some(vec![0, 1, 2]))).unwrap().ok);
    }

    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: u64 = 3;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let device = std::sync::Arc::clone(&device);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for r in 0..REQUESTS_PER_CLIENT {
                    let measured = vec![0, 1, 2];
                    let dist = noisy_input(&device, &measured, (c as u64) << 8 | r);
                    let response =
                        client.request(&Request::calibrate(dist, Some(measured))).unwrap();
                    assert!(response.ok, "calibrate failed: {:?}", response.error);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let calibrates = 1 + (CLIENTS as u64) * REQUESTS_PER_CLIENT;

    // A request folds into the histograms just *after* its response is
    // written, so poll until every calibrate has landed. The per-method
    // table is untouched by the metrics polls themselves, which makes its
    // counts exact targets to wait on.
    let mut client = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut polls = 0u64;
    let metrics = loop {
        polls += 1;
        let response = client.request(&Request::metrics()).unwrap();
        assert!(response.ok);
        let m = response.metrics.expect("metrics payload");
        let landed = m.methods.iter().find(|m| m.method == "qufem").map_or(0, |m| m.apply.count);
        if landed >= calibrates || Instant::now() >= deadline {
            break m;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    assert_eq!(metrics.requests, calibrates + polls, "calibrates plus the metrics polls");
    assert!(metrics.request.count >= calibrates, "request histogram covers the calibrates");
    assert!(metrics.uptime_us > 0);

    // Live per-method apply quantiles, monotone by construction.
    let qufem_metrics = metrics
        .methods
        .iter()
        .find(|m| m.method == "qufem")
        .expect("per-method entry for the served instance");
    assert_eq!(qufem_metrics.requests, calibrates);
    assert_eq!(qufem_metrics.apply.count, calibrates);
    let a = &qufem_metrics.apply;
    assert!(a.p50 <= a.p90 && a.p90 <= a.p99 && a.p99 <= a.p999, "quantiles not monotone: {a:?}");
    assert!(a.p50 >= a.min && a.p999 <= a.max, "quantiles left [min, max]: {a:?}");
    assert!(a.max > 0.0, "apply latency must have been measured");

    // Every client reused the warmed plan: one miss total, rest hits.
    assert_eq!(qufem_metrics.prepare.count, 1, "prepare recorded on the single miss");
    assert_eq!(metrics.plan_cache_misses, 1);
    assert_eq!(metrics.plan_cache_hits, calibrates - 1);
    assert_eq!(metrics.slow, 0, "no slow threshold configured");

    stop_server(server);
}

#[test]
fn flight_recorder_evicts_oldest_and_dumps_in_order() {
    let (device, qufem) = characterized();
    let config = ServeConfig { flight_recorder: 4, ..test_config() };
    let server = Server::start(qufem, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    for seed in 0..6u64 {
        let measured = vec![0, 1];
        let dist = noisy_input(&device, &measured, seed);
        let response = client.request(&Request::calibrate(dist, Some(measured))).unwrap();
        assert!(response.ok);
    }
    let response = client.request(&Request::trace()).unwrap();
    assert!(response.ok);
    let trace = response.trace.expect("trace payload");
    // Capacity 4: the 6 calibrates overflowed the ring, keeping the last 4.
    assert_eq!(trace.len(), 4);
    let ids: Vec<u64> = trace.iter().map(|t| t.id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "dump must be oldest-first");
    assert_eq!(trace.last().unwrap().cmd, "calibrate");
    for t in &trace {
        assert_eq!(t.outcome, "ok");
        assert_eq!(t.measured, 2);
        assert_eq!(t.method.as_deref(), Some("qufem"));
        assert!(t.total_us >= t.apply_us, "total must cover apply: {t:?}");
        assert!(t.request_bytes > 0 && t.response_bytes > 0);
    }
    // The first calibrate was the cache miss; it has been evicted, so every
    // surviving record is a hit.
    assert!(trace.iter().all(|t| t.cache == "hit"), "{trace:?}");

    // The trace request itself lands in the recorder afterwards.
    let response = client.request(&Request::trace()).unwrap();
    let trace = response.trace.unwrap();
    assert_eq!(trace.last().unwrap().cmd, "trace");

    stop_server(server);
}

/// `queue_us` covers every request: the time from a frame leaving the read
/// buffer until a worker starts it. Behind one worker, pipelined requests
/// after the first wait for the ones before them.
#[test]
fn queue_wait_is_recorded_for_pipelined_requests() {
    let (device, qufem) = characterized();
    let config = ServeConfig { workers: 1, ..test_config() };
    let server = Server::start(qufem, "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect_binary(server.local_addr()).unwrap();

    const DEPTH: u64 = 8;
    let measured = vec![0usize, 1, 2, 3, 4, 5, 6];
    for seed in 0..DEPTH {
        let dist = noisy_input(&device, &measured, seed);
        client.send(&Request::calibrate(dist, Some(measured.clone()))).unwrap();
    }
    for _ in 0..DEPTH {
        assert!(client.recv().unwrap().1.ok);
    }
    let trace = client.request(&Request::trace()).unwrap().trace.expect("trace payload");
    let calibrates: Vec<_> = trace.iter().filter(|t| t.cmd == "calibrate").collect();
    assert_eq!(calibrates.len(), DEPTH as usize);
    assert!(calibrates[1..].iter().any(|t| t.queue_us > 0), "{calibrates:?}");

    stop_server(server);
}

/// A prewarmed server has built the default method's full-register plan
/// before the first request, so that request hits the plan cache; without
/// prewarm, the same request builds the plan.
#[test]
fn prewarm_makes_the_first_full_register_request_a_cache_hit() {
    let (device, qufem) = characterized();
    let measured: Vec<usize> = (0..7).collect();
    let input = noisy_input(&device, &measured, 5);
    for (prewarm, expected) in [(true, CacheOutcome::Hit), (false, CacheOutcome::Miss)] {
        let server =
            Server::start(qufem.clone(), "127.0.0.1:0", ServeConfig { prewarm, ..test_config() })
                .unwrap();
        server.wait_for_prewarm();
        assert_eq!(server.handle().prewarmed(), prewarm);

        let mut client = Client::connect(server.local_addr()).unwrap();
        let response =
            client.request(&Request::calibrate(input.clone(), Some(measured.clone()))).unwrap();
        assert!(response.ok, "{:?}", response.error);
        let trace = client.request(&Request::trace()).unwrap().trace.expect("trace payload");
        let first = trace.iter().find(|t| t.cmd == "calibrate").expect("calibrate record");
        assert_eq!(first.cache, expected.as_str(), "prewarm {prewarm}: {first:?}");

        stop_server(server);
    }
}

#[test]
fn metrics_text_format_renders_counters_and_quantiles() {
    let (device, qufem) = characterized();
    let server = Server::start(qufem, "127.0.0.1:0", test_config()).unwrap();

    // One connection throughout: the worker serves it sequentially, so the
    // calibrate has fully landed before the metrics request is handled.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let measured = vec![0, 1];
    let dist = noisy_input(&device, &measured, 7);
    let response = client.request(&Request::calibrate(dist, Some(measured))).unwrap();
    assert!(response.ok);

    let response = client.request(&Request::metrics_text()).unwrap();
    assert!(response.ok);
    assert!(response.metrics.is_none(), "text format must not carry the JSON payload");
    let text = response.metrics_text.expect("text payload");
    assert!(text.contains("qufem_serve_requests 2"), "text:\n{text}");
    assert!(text.contains("qufem_serve_plan_cache_misses 1"), "text:\n{text}");
    assert!(text.contains("serve_request_secs{quantile=\"0.5\"}"), "text:\n{text}");
    assert!(text.contains("serve_apply_secs_qufem_count 1"), "text:\n{text}");
    // Every line is `name value` or `name{quantile="q"} value`.
    for line in text.lines() {
        let parts: Vec<&str> = line.rsplitn(2, ' ').collect();
        assert_eq!(parts.len(), 2, "malformed line: {line:?}");
        assert!(parts[0].parse::<f64>().is_ok(), "non-numeric value in line: {line:?}");
    }

    stop_server(server);
}

#[test]
fn slow_threshold_zero_marks_every_request_slow() {
    let (device, qufem) = characterized();
    let config = ServeConfig { slow_threshold: Some(Duration::ZERO), ..test_config() };
    let server = Server::start(qufem, "127.0.0.1:0", config).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    let measured = vec![0, 1];
    let dist = noisy_input(&device, &measured, 9);
    let response = client.request(&Request::calibrate(dist, Some(measured))).unwrap();
    assert!(response.ok);
    let response = client.request(&Request::metrics()).unwrap();
    let metrics = response.metrics.unwrap();
    // The calibrate has landed (same connection); the metrics request
    // itself only lands after its response is composed.
    assert_eq!(metrics.slow, 1, "threshold 0 must count every finished request as slow");

    stop_server(server);
}

#[test]
fn enabled_global_telemetry_mirrors_serving_histograms() {
    let (device, qufem) = characterized();
    let server = Server::start(qufem, "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let _guard = collector_lock();
    qufem_telemetry::reset();
    qufem_telemetry::enable();

    for seed in 0..3u64 {
        let measured = vec![0, 1];
        let dist = noisy_input(&device, &measured, seed);
        assert!(client.request(&Request::calibrate(dist, Some(measured))).unwrap().ok);
    }
    assert!(client.request(&Request::status()).unwrap().ok);

    // The serving histograms reach the collector once, when the server is
    // joined — nothing is mirrored per request.
    assert!(!qufem_telemetry::snapshot().histograms.contains_key("serve.request_secs"));
    server.shutdown_and_join();
    qufem_telemetry::disable();
    let snapshot = qufem_telemetry::snapshot();
    let request = snapshot.histograms.get("serve.request_secs").expect("request histogram");
    assert_eq!(request.count, 4, "three calibrates and a status: {request:?}");
    assert!(request.quantile(0.5) <= request.quantile(0.99));
    let apply = snapshot.histograms.get("serve.apply_secs.qufem").expect("apply histogram");
    assert_eq!(apply.count, 3, "{apply:?}");
    assert_eq!(snapshot.counter("serve.requests"), 4);
}

#[test]
fn joined_server_exports_exactly_its_metrics_command_totals() {
    let (device, qufem) = characterized();
    let config = ServeConfig {
        registry: std::sync::Arc::new(qufem::baselines::standard_registry(qufem.config().clone())),
        ..test_config()
    };
    let recalibrated = recalibrated_params(&device, 1);
    let _guard = collector_lock();
    qufem_telemetry::reset();
    qufem_telemetry::enable();
    let server = Server::start(qufem, "127.0.0.1:0", config).unwrap();
    let handle = server.handle();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    let measured = vec![0, 1, 2];
    for seed in 0..4u64 {
        let dist = noisy_input(&device, &measured, seed);
        let method = if seed % 2 == 0 { "qufem" } else { "m3" };
        let request = Request::calibrate(dist, Some(measured.clone())).with_method(method);
        assert!(client.request(&request).unwrap().ok);
    }
    client.send_raw(b"this is not json\n").unwrap();
    assert!(!client.read_response().unwrap().ok);
    let dist = noisy_input(&device, &measured, 9);
    let unknown_method =
        Request::calibrate(dist.clone(), Some(measured.clone())).with_method("no-such-method");
    assert!(!client.request(&unknown_method).unwrap().ok);
    let unknown_device = Request::calibrate(dist, Some(measured)).with_device("no-such-device");
    assert!(!client.request(&unknown_device).unwrap().ok);
    assert!(client.request(&Request::admit(recalibrated)).unwrap().ok);

    // A binary frame declaring a payload past the limit: answered with an
    // error echoing its id, then the connection closes.
    let mut binary = Client::connect_binary(addr).unwrap();
    let mut header = wire::encode_frame(41, wire::CODE_CALIBRATE, &[]);
    let declared = test_config().max_request_bytes as u32 + 1;
    header[4..8].copy_from_slice(&declared.to_le_bytes());
    binary.send_raw(&header).unwrap();
    let (id, response) = binary.recv().unwrap();
    assert_eq!(id, 41);
    assert!(!response.ok);

    let info = client.request(&Request::metrics()).unwrap().metrics.expect("metrics payload");
    server.shutdown_and_join();
    qufem_telemetry::disable();
    let snapshot = qufem_telemetry::snapshot();

    // Every exported counter is the metrics command's field, once.
    for (name, field) in [
        ("serve.requests", info.requests),
        ("serve.rejected", info.rejected),
        ("serve.malformed", info.malformed),
        ("serve.oversized", info.oversized),
        ("serve.unknown_method", info.unknown_method),
        ("serve.unknown_device", info.unknown_device),
        ("serve.swaps", info.swaps),
        ("serve.slow_requests", info.slow),
    ] {
        assert_eq!(snapshot.counter(name), field, "{name}");
    }
    // The drive above really produced each kind of event.
    assert_eq!(
        (info.malformed, info.oversized, info.unknown_method, info.unknown_device, info.swaps),
        (1, 1, 1, 1, 1)
    );
    assert_eq!(info.requests, 10, "4 calibrates, 4 failures, an admit and the metrics request");
    assert_eq!(handle.requests(), info.requests);

    // The metrics request folds into the request histogram only after its
    // own snapshot was composed: the export holds every begun request.
    let request = snapshot.histograms.get("serve.request_secs").expect("request histogram");
    assert_eq!(request.count, info.request.count + 1);
    assert_eq!(request.count, info.requests);
    let exported: Vec<&str> =
        snapshot.histograms.keys().filter_map(|k| k.strip_prefix("serve.apply_secs.")).collect();
    let served: Vec<&str> = info.methods.iter().map(|m| m.method.as_str()).collect();
    assert_eq!(exported, served, "one apply histogram per served method");
    for m in &info.methods {
        let apply = &snapshot.histograms[&format!("serve.apply_secs.{}", m.method)];
        assert_eq!(apply.count, m.apply.count, "{}", m.method);
        assert_eq!(apply.count, 2, "{}", m.method);
    }
    let peak = snapshot.gauge("serve.queue_depth.peak").expect("peak gauge");
    assert!(peak >= 2.0, "two connections were live at once: {peak}");
    assert!(snapshot.gauge("serve.queue_depth").is_some());
}

#[test]
fn unknown_method_and_malformed_requests_are_counted_and_traced() {
    let (device, qufem) = characterized();
    let server = Server::start(qufem, "127.0.0.1:0", test_config()).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    let measured = vec![0, 1];
    let dist = noisy_input(&device, &measured, 3);
    let response = client
        .request(&Request::calibrate(dist, Some(measured)).with_method("no-such-method"))
        .unwrap();
    assert!(!response.ok);
    client.send_raw(b"this is not json\n").unwrap();
    let response = client.read_response().unwrap();
    assert!(!response.ok);

    let response = client.request(&Request::metrics()).unwrap();
    let metrics = response.metrics.unwrap();
    assert_eq!(metrics.unknown_method, 1);
    assert_eq!(metrics.malformed, 1);
    // The unresolved method id must not appear in the per-method table.
    assert!(metrics.methods.iter().all(|m| m.method != "no-such-method"));

    let response = client.request(&Request::trace()).unwrap();
    let trace = response.trace.unwrap();
    let outcomes: Vec<&str> = trace.iter().map(|t| t.outcome.as_str()).collect();
    assert!(outcomes.contains(&"unknown_method"), "{outcomes:?}");
    assert!(outcomes.contains(&"malformed"), "{outcomes:?}");

    stop_server(server);
}

/// A recalibration of `device` after `step` drift intervals, exported as
/// wire-transportable parameters.
fn recalibrated_params(device: &qufem::device::Device, step: u64) -> qufem::QuFemData {
    let drifted = device.drifted(step);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(400).seed(3).build().unwrap();
    QuFem::characterize(&drifted, config).unwrap().export()
}

#[test]
fn hot_swap_under_concurrent_traffic_keeps_every_request_ok() {
    let (device, qufem) = characterized();
    let device = std::sync::Arc::new(device);
    let server = Server::start(qufem, "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();

    // Recalibrations are characterized up front so the admit loop below
    // interleaves tightly with the client traffic.
    const ADMITS: u64 = 2;
    let exports: Vec<qufem::QuFemData> =
        (1..=ADMITS).map(|step| recalibrated_params(&device, step)).collect();

    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: u64 = 6;
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let device = std::sync::Arc::clone(&device);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut versions = Vec::new();
                for r in 0..REQUESTS_PER_CLIENT {
                    let measured = vec![0, 1, 2];
                    let dist = noisy_input(&device, &measured, (c as u64) << 8 | r);
                    let response =
                        client.request(&Request::calibrate(dist, Some(measured))).unwrap();
                    assert!(response.ok, "calibrate failed mid-swap: {:?}", response.error);
                    versions.push(response.version.expect("response echoes a version"));
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                }
                versions
            })
        })
        .collect();

    // Admit the recalibrations while the clients hammer the server.
    for export in exports {
        std::thread::sleep(Duration::from_millis(20));
        let response = qufem::serve::request_once(addr, &Request::admit(export)).unwrap();
        assert!(response.ok, "admit failed: {:?}", response.error);
        assert_eq!(response.device.as_deref(), Some("default"));
    }
    let mut observed = Vec::new();
    for w in workers {
        observed.push(w.join().expect("client thread"));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    // Per-connection version echoes are monotone: a client can see the head
    // advance, never retreat (catalog reads are ordered by the swap lock).
    for versions in &observed {
        assert!(!versions.is_empty());
        assert!(versions.windows(2).all(|w| w[0] <= w[1]), "non-monotone echoes: {versions:?}");
        assert!(versions.iter().all(|&v| v <= ADMITS), "impossible version: {versions:?}");
    }

    let response = qufem::serve::request_once(addr, &Request::metrics()).unwrap();
    let metrics = response.metrics.unwrap();
    assert_eq!(metrics.swaps, ADMITS, "every admit counted as a swap");
    assert_eq!(metrics.unknown_device, 0);
    assert_eq!(metrics.devices.len(), 1);
    let dev = &metrics.devices[0];
    assert_eq!(dev.device, "default");
    assert_eq!(dev.head_version, ADMITS);
    assert_eq!(dev.versions, (0..=ADMITS).collect::<Vec<_>>(), "old versions stay pinnable");
    assert_eq!(dev.requests, (CLIENTS as u64) * REQUESTS_PER_CLIENT);

    stop_server(server);
}

#[test]
fn version_pinned_responses_are_bit_identical_across_hot_swap() {
    let (device, qufem) = characterized();
    let measured_set: QubitSet = [0usize, 1, 2].into_iter().collect();
    let input = noisy_input(&device, &[0, 1, 2], 42);
    // The in-process ground truth for version 0, through the same path the
    // server uses.
    let prepared = qufem::Mitigator::prepare(&qufem, &measured_set).unwrap();
    let mut stats = qufem::EngineStats::default();
    let expected = prepared.apply_with_stats(&input, &mut stats).unwrap();
    let expected_bits: Vec<(qufem::BitString, u64)> =
        expected.sorted_pairs().into_iter().map(|(bits, p)| (bits, p.to_bits())).collect();

    let bits_of = |response: &qufem::serve::Response| -> Vec<(qufem::BitString, u64)> {
        response
            .dist
            .as_ref()
            .expect("calibrated dist")
            .sorted_pairs()
            .into_iter()
            .map(|(bits, p)| (bits, p.to_bits()))
            .collect()
    };

    let server = Server::start(qufem, "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let pinned = Request::calibrate(input.clone(), Some(vec![0, 1, 2])).with_version(0);

    // Before the swap.
    let before = client.request(&pinned).unwrap();
    assert!(before.ok);
    assert_eq!(before.device.as_deref(), Some("default"));
    assert_eq!(before.version, Some(0));
    assert_eq!(bits_of(&before), expected_bits, "wire response differs from in-process");

    // Swap in a recalibration of the drifted device.
    let response = client.request(&Request::admit(recalibrated_params(&device, 1))).unwrap();
    assert!(response.ok, "{:?}", response.error);
    assert_eq!(response.version, Some(1));

    // After the swap: the pinned request still serves version 0, bit for
    // bit; the unpinned request moves to the new head.
    let after = client.request(&pinned).unwrap();
    assert!(after.ok);
    assert_eq!(after.version, Some(0));
    assert_eq!(bits_of(&after), expected_bits, "pinned response changed across hot-swap");

    let unpinned = client.request(&Request::calibrate(input.clone(), Some(vec![0, 1, 2]))).unwrap();
    assert!(unpinned.ok);
    assert_eq!(unpinned.version, Some(1), "unpinned requests follow the head");

    stop_server(server);
}

#[test]
fn unknown_devices_and_versions_are_rejected_and_counted() {
    let (device, qufem) = characterized();
    let server = Server::start(qufem, "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let input = noisy_input(&device, &[0, 1], 5);
    let response = client
        .request(&Request::calibrate(input.clone(), Some(vec![0, 1])).with_device("no-such-device"))
        .unwrap();
    assert!(!response.ok);
    assert!(response.error.as_deref().unwrap_or("").contains("unknown device"), "{response:?}");

    let response = client
        .request(&Request::calibrate(input.clone(), Some(vec![0, 1])).with_version(7))
        .unwrap();
    assert!(!response.ok);
    assert!(response.error.as_deref().unwrap_or("").contains("no version 7"), "{response:?}");

    let response = client.request(&Request::metrics()).unwrap();
    let metrics = response.metrics.unwrap();
    assert_eq!(metrics.unknown_device, 2);
    // Garbage device ids must not leak into the per-device table.
    assert!(metrics.devices.iter().all(|d| d.device == "default"), "{:?}", metrics.devices);

    let response = client.request(&Request::trace()).unwrap();
    let trace = response.trace.unwrap();
    let unknown: Vec<_> = trace.iter().filter(|t| t.outcome == "unknown_device").collect();
    assert_eq!(unknown.len(), 2);
    assert!(unknown.iter().all(|t| t.device.is_none()), "unresolved ids must not be attributed");

    // A served request is attributed: device and version land in the trace.
    let response = client.request(&Request::calibrate(input, Some(vec![0, 1]))).unwrap();
    assert!(response.ok);
    let trace = client.request(&Request::trace()).unwrap().trace.unwrap();
    let last_ok = trace.iter().rev().find(|t| t.outcome == "ok" && t.cmd == "calibrate").unwrap();
    assert_eq!(last_ok.device.as_deref(), Some("default"));
    assert_eq!(last_ok.version, 0);

    stop_server(server);
}

#[test]
fn rejected_admits_leave_catalog_and_caches_untouched_under_traffic() {
    let (device, qufem) = characterized();
    let lineage = qufem::SnapshotLineage {
        device_id: "default".to_string(),
        version: 0,
        parent_version: None,
        created_seq: 0,
    };
    // A corrupt recalibration: a record whose distribution width disagrees
    // with its circuit, which `import_versioned` must reject.
    let mut corrupt = qufem.export_versioned(&lineage);
    {
        let record = &mut corrupt.iterations[0].records[0];
        record.dist = ProbDist::point_mass(qufem::BitString::zeros(
            record.circuit.measured_qubits().len() + 1,
        ));
    }
    // A width-mismatched recalibration: a 3-qubit snapshot aimed at the
    // 7-qubit default device.
    let narrow_device = presets::scale_grid(3, 1);
    let narrow_config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(300).seed(9).build().unwrap();
    let narrow =
        QuFem::characterize(&narrow_device, narrow_config).unwrap().export_versioned(&lineage);

    let device = std::sync::Arc::new(device);
    let server = Server::start(qufem, "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();

    // Warm the single plan the traffic uses, then freeze the baseline the
    // failed admits must not disturb.
    {
        let mut warm = Client::connect(addr).unwrap();
        let dist = noisy_input(&device, &[0, 1, 2], 77);
        assert!(warm.request(&Request::calibrate(dist, Some(vec![0, 1, 2]))).unwrap().ok);
    }
    let mut probe = Client::connect(addr).unwrap();
    let baseline = probe.request(&Request::metrics()).unwrap().metrics.unwrap();
    assert_eq!(baseline.swaps, 0);
    assert_eq!(baseline.plan_cache_len, 1);

    // Live traffic on the warmed plan while both bad admits are attempted.
    const CLIENTS: usize = 2;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(CLIENTS + 1));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let device = std::sync::Arc::clone(&device);
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                for r in 0..6u64 {
                    let dist = noisy_input(&device, &[0, 1, 2], (c as u64) << 16 | r);
                    let response =
                        client.request(&Request::calibrate(dist, Some(vec![0, 1, 2]))).unwrap();
                    assert!(response.ok, "traffic failed during admits: {:?}", response.error);
                    assert_eq!(response.device.as_deref(), Some("default"));
                    assert_eq!(response.version, Some(0), "failed admit must not bump the head");
                }
            })
        })
        .collect();
    barrier.wait();

    let response = probe.request(&Request::admit(narrow).with_device("default")).unwrap();
    assert!(!response.ok, "width-mismatched admit must be rejected");
    assert!(response.error.as_deref().unwrap_or("").contains("qubits"), "{response:?}");

    let response = probe.request(&Request::admit(corrupt).with_device("default")).unwrap();
    assert!(!response.ok, "corrupt admit must be rejected");

    for w in workers {
        w.join().expect("traffic thread");
    }

    // The catalog, plan cache, and swap counter are exactly as before.
    let metrics = probe.request(&Request::metrics()).unwrap().metrics.unwrap();
    assert_eq!(metrics.swaps, baseline.swaps, "rejected admits must not count as swaps");
    assert_eq!(metrics.plan_cache_len, baseline.plan_cache_len, "plan cache grew");
    let status = probe.request(&Request::status()).unwrap().status.unwrap();
    assert_eq!(status.devices.len(), 1);
    assert_eq!(status.devices[0].device, "default");
    assert_eq!(status.devices[0].head_version, 0, "head moved after rejected admits");
    assert_eq!(status.devices[0].versions, vec![0], "a rejected admit left a version behind");

    stop_server(server);
}
