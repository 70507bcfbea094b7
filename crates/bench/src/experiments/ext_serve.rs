//! Extension experiment (beyond the paper): throughput of the calibration
//! daemon (`qufem-serve`) under concurrent clients.
//!
//! The paper frames calibration as an offline post-processing step; serving
//! it from a long-lived process adds a dispatch layer (frame parsing, plan
//! cache, worker pool) on top of the engine. This experiment measures what
//! that layer costs: requests per second over loopback TCP as the worker
//! pool grows, against a mixed stream of measured subsets so plan-cache
//! hits and misses both occur.

use crate::report::Table;
use crate::RunOptions;
use qufem_serve::{request_once, Client, Request, ServeConfig, Server};
use qufem_types::{ProbDist, QubitSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// One request template: a measured subset and a noisy input over it.
fn request_mix(device: &qufem_device::Device, n: usize, seed: u64) -> Vec<(Vec<usize>, ProbDist)> {
    let subsets: Vec<Vec<usize>> = vec![
        (0..n).collect(),
        (0..n).step_by(2).collect(),
        (1..n).step_by(2).collect(),
        (0..n / 2).collect(),
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    subsets
        .into_iter()
        .map(|qubits| {
            let set: QubitSet = qubits.iter().copied().collect();
            let ideal = qufem_circuits::ghz(qubits.len());
            let noisy = device.measure_distribution(&ideal, &set, 600, &mut rng);
            (qubits, noisy)
        })
        .collect()
}

/// Runs the serve-throughput sweep on the 7-qubit device.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let n = 7;
    let device = crate::experiments::device_for(n, opts.seed);
    let qufem = crate::experiments::characterize_qufem(&device, opts.quick, opts.seed);
    let mix = request_mix(&device, n, opts.seed);

    let worker_counts: Vec<usize> = if opts.quick { vec![1, 4] } else { vec![1, 2, 4, 8] };
    let clients: usize = 8;
    let requests_per_client: usize = if opts.quick { 4 } else { 16 };

    let mut table = Table::new(
        "Extension: qufem-serve throughput (7-qubit device, loopback TCP)",
        &["Workers", "Clients", "Requests", "Wall secs", "Req/s", "Apply p50 ms", "Apply p99 ms"],
    );
    for &workers in &worker_counts {
        // Prewarm off: the sweep wants the documented mixed hit/miss stream,
        // not a pre-populated full-register plan.
        let config = ServeConfig {
            workers,
            queue_depth: clients * 2,
            prewarm: false,
            ..ServeConfig::default()
        };
        let server = Server::start(qufem.clone(), "127.0.0.1:0", config).expect("server starts");
        let addr = server.local_addr();

        let start = Instant::now();
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let mix = mix.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    for r in 0..requests_per_client {
                        let (measured, dist) = &mix[(c + r) % mix.len()];
                        let response = client
                            .request(&Request::calibrate(dist.clone(), Some(measured.clone())))
                            .expect("request round-trips");
                        assert!(response.ok, "serve error: {:?}", response.error);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("client thread");
        }
        let secs = start.elapsed().as_secs_f64();

        // The server's own live quantile histograms (the `metrics` wire
        // command) give the per-request apply-latency distribution the
        // wall-clock total above cannot: Req/s hides tail behavior.
        let metrics = request_once(addr, &Request::metrics())
            .expect("metrics round-trips")
            .metrics
            .expect("metrics payload");
        let apply = metrics
            .methods
            .iter()
            .find(|m| m.method == "qufem")
            .map(|m| m.apply.clone())
            .expect("per-method apply histogram");
        qufem_telemetry::gauge_set(&format!("serve.w{workers}.apply_p50_secs"), apply.p50);
        qufem_telemetry::gauge_set(&format!("serve.w{workers}.apply_p99_secs"), apply.p99);
        qufem_telemetry::gauge_set(
            &format!("serve.w{workers}.request_p99_secs"),
            metrics.request.p99,
        );

        let handle = server.handle();
        let total = clients * requests_per_client;
        assert_eq!(handle.requests(), total as u64 + 1, "the calibrates plus the metrics probe");
        assert_eq!(handle.rejected(), 0, "the queue is sized to never shed load");
        server.shutdown_and_join();

        table.push_row(vec![
            workers.to_string(),
            clients.to_string(),
            total.to_string(),
            format!("{secs:.3}"),
            format!("{:.1}", total as f64 / secs),
            format!("{:.3}", apply.p50 * 1e3),
            format!("{:.3}", apply.p99 * 1e3),
        ]);
    }
    table.note("Mixed measured subsets (full register, evens, odds, half prefix): plan-cache hits and misses both occur.");
    table.note("Not part of the paper; measures the serving layer added on top of the engine.");

    // Cold vs warm first-request latency: a cold server pays the
    // full-register `prepare` inside the first request; a prewarmed server
    // built it on a background thread at startup (`serve.prewarm` span).
    let mut latency = Table::new(
        "Extension: qufem-serve first-request latency (cold vs prewarmed plan cache)",
        &["Mode", "Prewarm wait secs", "First-request secs"],
    );
    for (label, prewarm) in [("cold", false), ("warm", true)] {
        let config = ServeConfig { workers: 2, prewarm, ..ServeConfig::default() };
        let server = Server::start(qufem.clone(), "127.0.0.1:0", config).expect("server starts");
        let wait = Instant::now();
        if prewarm {
            server.wait_for_prewarm();
        }
        let wait_secs = wait.elapsed().as_secs_f64();
        let (measured, dist) = &mix[0]; // the full register
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        let start = Instant::now();
        let response = client
            .request(&Request::calibrate(dist.clone(), Some(measured.clone())))
            .expect("request round-trips");
        assert!(response.ok, "serve error: {:?}", response.error);
        let first_secs = start.elapsed().as_secs_f64();
        server.shutdown_and_join();
        latency.push_row(vec![
            label.to_string(),
            format!("{wait_secs:.4}"),
            format!("{first_secs:.4}"),
        ]);
    }
    latency.note("Warm rows wait for the background prewarm before the first request; the wait overlaps server startup in real deployments.");

    // Live recalibration hot-swap: readout noise drifts, the operator
    // re-characterizes the drifted device, and `admit` publishes the new
    // snapshot as the device's next version under live traffic — version
    // echoes flip atomically, and version-pinned requests keep serving the
    // old snapshot bit for bit.
    let mut swap_table = Table::new(
        "Extension: live snapshot hot-swap under readout drift",
        &["Phase", "Served identity", "Requests", "Wall secs", "Check"],
    );
    {
        let requests = if opts.quick { 6 } else { 24 };
        let config = ServeConfig {
            workers: 2,
            prewarm: false,
            device_id: "drift-7".to_string(),
            ..ServeConfig::default()
        };
        let server = Server::start(qufem.clone(), "127.0.0.1:0", config).expect("server starts");
        let addr = server.local_addr();
        let mut client = Client::connect(addr).expect("client connects");
        let (full, input) = &mix[0]; // the full register

        let phase = |client: &mut Client, label: &str, expect_version: u64, count: usize| {
            let start = Instant::now();
            for r in 0..count {
                let (measured, dist) = &mix[r % mix.len()];
                let response = client
                    .request(&Request::calibrate(dist.clone(), Some(measured.clone())))
                    .expect("request round-trips");
                assert!(response.ok, "{label} serve error: {:?}", response.error);
                assert_eq!(response.device.as_deref(), Some("drift-7"));
                assert_eq!(response.version, Some(expect_version), "{label} version echo");
            }
            (format!("drift-7@v{expect_version}"), start.elapsed().as_secs_f64())
        };

        let (identity, secs) = phase(&mut client, "baseline", 0, requests);
        swap_table.push_row(vec![
            "baseline".to_string(),
            identity,
            requests.to_string(),
            format!("{secs:.3}"),
            "-".to_string(),
        ]);
        // Version-pinned baseline: the bits the old snapshot must keep
        // serving after the swap.
        let pinned_request = Request::calibrate(input.clone(), Some(full.clone())).with_version(0);
        let pinned_before = client.request(&pinned_request).expect("pinned request");
        assert!(pinned_before.ok);

        // The operator's recalibration loop: re-characterize the drifted
        // device and admit the export over the wire.
        let drifted = device.drifted(1);
        let recal = crate::experiments::characterize_qufem(&drifted, opts.quick, opts.seed);
        let swap_start = Instant::now();
        let response = client
            .request(&Request::admit(recal.export()).with_device("drift-7"))
            .expect("admit round-trips");
        let swap_secs = swap_start.elapsed().as_secs_f64();
        assert!(response.ok, "admit failed: {:?}", response.error);
        assert_eq!(response.version, Some(1));
        swap_table.push_row(vec![
            "admit".to_string(),
            "drift-7@v1".to_string(),
            "1".to_string(),
            format!("{swap_secs:.3}"),
            "head v0 -> v1".to_string(),
        ]);

        let (identity, secs) = phase(&mut client, "drifted", 1, requests);
        let pinned_after = client.request(&pinned_request).expect("pinned request");
        assert!(pinned_after.ok);
        assert_eq!(pinned_after.version, Some(0));
        let before = pinned_before.dist.expect("pinned dist").sorted_pairs();
        let after = pinned_after.dist.expect("pinned dist").sorted_pairs();
        assert_eq!(before.len(), after.len(), "pinned support changed across hot-swap");
        for ((ka, va), (kb, vb)) in before.iter().zip(&after) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "pinned value at {ka} changed across swap");
        }
        swap_table.push_row(vec![
            "drifted".to_string(),
            identity,
            requests.to_string(),
            format!("{secs:.3}"),
            "pinned v0 bit-identical".to_string(),
        ]);

        // Catalog counters from the live metrics snapshot, exported as
        // gauges for bench_summary.json.
        let metrics = request_once(addr, &Request::metrics())
            .expect("metrics round-trips")
            .metrics
            .expect("metrics payload");
        assert_eq!(metrics.swaps, 1);
        assert_eq!(metrics.unknown_device, 0);
        let retained: usize = metrics.devices.iter().map(|d| d.versions.len()).sum();
        qufem_telemetry::gauge_set("serve.catalog.swaps", metrics.swaps as f64);
        qufem_telemetry::gauge_set("serve.catalog.devices", metrics.devices.len() as f64);
        qufem_telemetry::gauge_set("serve.catalog.versions", retained as f64);
        qufem_telemetry::gauge_set("serve.catalog.unknown_device", metrics.unknown_device as f64);
        qufem_telemetry::gauge_set("serve.catalog.plan_cache_len", metrics.plan_cache_len as f64);
        qufem_telemetry::gauge_set("serve.catalog.swap_secs", swap_secs);
        server.shutdown_and_join();
    }
    swap_table.note("The drifted phase serves a re-characterization of device.drifted(1) admitted over the wire mid-traffic.");
    swap_table.note("Pinned check: a version-0 request after the swap returns bit-identical output to before the swap.");

    // Wire dialect shoot-out: the same calibrate frame over NDJSON vs the
    // length-prefixed binary dialect, lockstep (depth 1) vs pipelined
    // (depth N) on a single connection. The request repeats verbatim so the
    // plan cache stays hot and the framing + dispatch layer — not
    // the engine — dominates what the clock sees.
    let mut wire_table = Table::new(
        "Extension: wire dialect frames/sec (JSON vs binary, lockstep vs pipelined)",
        &["Dialect", "Depth", "Frames", "Wall secs", "Frames/s"],
    );
    {
        let depth: usize = 32;
        let frames: usize = if opts.quick { 96 } else { 512 };
        let config = ServeConfig {
            workers: 4,
            queue_depth: depth * 2,
            prewarm: false,
            ..ServeConfig::default()
        };
        let server = Server::start(qufem.clone(), "127.0.0.1:0", config).expect("server starts");
        let addr = server.local_addr();
        // The half-prefix subset: small enough that apply costs almost
        // nothing once its plan is cached, leaving the wire on the clock.
        let (measured, dist) = &mix[3];
        let request = Request::calibrate(dist.clone(), Some(measured.clone()));
        let mut json_depth1 = f64::NAN;
        let mut binary_deep = f64::NAN;
        for (dialect, binary) in [("json", false), ("binary", true)] {
            for d in [1usize, depth] {
                let mut client = if binary {
                    Client::connect_binary(addr).expect("binary client connects")
                } else {
                    Client::connect(addr).expect("client connects")
                };
                // Warm the plan cache outside the timed window.
                let warm = client.request(&request).expect("warmup round-trips");
                assert!(warm.ok, "warmup error: {:?}", warm.error);
                let start = Instant::now();
                let mut remaining = frames;
                while remaining > 0 {
                    let burst = d.min(remaining);
                    for _ in 0..burst {
                        client.send(&request).expect("send frame");
                    }
                    for _ in 0..burst {
                        let (_, response) = client.recv().expect("recv frame");
                        assert!(response.ok, "serve error: {:?}", response.error);
                    }
                    remaining -= burst;
                }
                let secs = start.elapsed().as_secs_f64();
                let fps = frames as f64 / secs;
                if binary && d == depth {
                    binary_deep = fps;
                } else if !binary && d == 1 {
                    json_depth1 = fps;
                }
                wire_table.push_row(vec![
                    dialect.to_string(),
                    d.to_string(),
                    frames.to_string(),
                    format!("{secs:.3}"),
                    format!("{fps:.1}"),
                ]);
            }
        }
        server.shutdown_and_join();
        qufem_telemetry::gauge_set("serve.binary.frames_per_sec", binary_deep);
        qufem_telemetry::gauge_set("serve.binary.json_frames_per_sec", json_depth1);
        qufem_telemetry::gauge_set("serve.binary.speedup", binary_deep / json_depth1);
        qufem_telemetry::gauge_set("serve.binary.depth", depth as f64);
    }
    wire_table.note("Depth 1 pays a full round trip per frame; depth N keeps N frames in flight so the workers and the wire overlap.");
    wire_table.note("JSON connections dispatch serially (ordering guarantee); binary connections complete out of order, tagged by request id.");

    vec![table, latency, swap_table, wire_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "spawns servers and client fleets; exercised by the exp_all binary"]
    fn throughput_rows_cover_the_worker_sweep() {
        let opts = RunOptions { quick: true, ..RunOptions::default() };
        let tables = run(&opts);
        assert_eq!(tables[0].rows.len(), 2);
        for row in &tables[0].rows {
            assert!(row[4].parse::<f64>().unwrap() > 0.0);
            let p50 = row[5].parse::<f64>().unwrap();
            let p99 = row[6].parse::<f64>().unwrap();
            assert!(p50 > 0.0 && p50 <= p99, "apply quantiles: p50 {p50}, p99 {p99}");
        }
        // Cold and warm first-request latency rows.
        assert_eq!(tables[1].rows.len(), 2);
        for row in &tables[1].rows {
            assert!(row[2].parse::<f64>().unwrap() > 0.0);
        }
        // Hot-swap scenario: baseline, admit, drifted.
        assert_eq!(tables[2].rows.len(), 3);
        assert_eq!(tables[2].rows[0][1], "drift-7@v0");
        assert_eq!(tables[2].rows[1][4], "head v0 -> v1");
        assert_eq!(tables[2].rows[2][1], "drift-7@v1");
        assert_eq!(tables[2].rows[2][4], "pinned v0 bit-identical");
        // Wire dialect shoot-out: json/binary at depth 1 and depth N.
        assert_eq!(tables[3].rows.len(), 4);
        let fps = |row: &Vec<String>| row[4].parse::<f64>().unwrap();
        for row in &tables[3].rows {
            assert!(fps(row) > 0.0, "frames/sec must be positive: {row:?}");
        }
        assert_eq!(tables[3].rows[0][0], "json");
        assert_eq!(tables[3].rows[0][1], "1");
        assert_eq!(tables[3].rows[3][0], "binary");
        assert!(
            fps(&tables[3].rows[3]) > fps(&tables[3].rows[0]),
            "pipelined binary must beat lockstep JSON"
        );
    }
}
