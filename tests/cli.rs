//! End-to-end test of the `qufem` command-line interface: characterize →
//! simulate → calibrate → inspect, exercising the JSON file formats.

use std::process::Command;

fn qufem() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qufem"))
}

fn tmpfile(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qufem_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn full_cli_pipeline() {
    let params = tmpfile("params.json");
    let noisy = tmpfile("noisy.json");
    let calibrated = tmpfile("calibrated.json");

    let status = qufem()
        .args([
            "characterize",
            "--device",
            "ibmq-7",
            "--out",
            params.to_str().unwrap(),
            "--shots",
            "300",
            "--alpha",
            "5e-4",
            "--seed",
            "3",
        ])
        .status()
        .expect("spawn qufem");
    assert!(status.success(), "characterize failed");
    assert!(params.exists());

    let status = qufem()
        .args([
            "simulate",
            "--device",
            "ibmq-7",
            "--algorithm",
            "ghz",
            "--shots",
            "1000",
            "--out",
            noisy.to_str().unwrap(),
            "--seed",
            "3",
        ])
        .status()
        .expect("spawn qufem");
    assert!(status.success(), "simulate failed");

    let status = qufem()
        .args([
            "calibrate",
            "--params",
            params.to_str().unwrap(),
            "--input",
            noisy.to_str().unwrap(),
            "--out",
            calibrated.to_str().unwrap(),
            "--project",
        ])
        .status()
        .expect("spawn qufem");
    assert!(status.success(), "calibrate failed");

    // The calibrated file parses as a distribution and improves GHZ fidelity.
    let noisy_dist: qufem::ProbDist =
        serde_json::from_str(&std::fs::read_to_string(&noisy).unwrap()).unwrap();
    let cal_dist: qufem::ProbDist =
        serde_json::from_str(&std::fs::read_to_string(&calibrated).unwrap()).unwrap();
    let ideal = qufem::circuits::ghz(7);
    let before = qufem::metrics::hellinger_fidelity(&noisy_dist, &ideal);
    let after = qufem::metrics::hellinger_fidelity(&cal_dist, &ideal);
    assert!(after > before, "CLI calibration should help: {before:.4} -> {after:.4}");

    // Inspect prints the configuration.
    let output = qufem()
        .args(["inspect", "--params", params.to_str().unwrap()])
        .output()
        .expect("spawn qufem");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("qubits: 7"), "inspect output: {text}");
    assert!(text.contains("iteration 1"), "inspect output: {text}");
}

#[test]
fn full_pipeline_calibrate_writes_telemetry_manifest() {
    let calibrated = tmpfile("tel_calibrated.json");
    let manifest = tmpfile("tel_manifest.json");

    // `calibrate --device` without `--params` characterizes, synthesizes a
    // noisy input, and calibrates in one run.
    let output = qufem()
        .args([
            "calibrate",
            "--device",
            "grid-4",
            "--out",
            calibrated.to_str().unwrap(),
            "--telemetry",
            manifest.to_str().unwrap(),
            "--shots",
            "300",
            "--alpha",
            "5e-4",
            "--seed",
            "3",
        ])
        .output()
        .expect("spawn qufem");
    assert!(
        output.status.success(),
        "full-pipeline calibrate failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(calibrated.exists());

    let manifest: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
    // Nested spans: characterize → iteration → {matrix-gen, engine}.
    let spans = manifest.get("spans").and_then(|s| s.as_seq()).expect("spans array");
    let find =
        |name: &str| spans.iter().find(|s| s.get("name").and_then(|n| n.as_str()) == Some(name));
    let characterize = find("characterize").expect("characterize span");
    let iteration = find("iteration").expect("iteration span");
    let engine = find("engine").expect("engine span");
    assert_eq!(iteration.get("parent").unwrap().as_u64(), characterize.get("id").unwrap().as_u64());
    assert_eq!(engine.get("parent").unwrap().as_u64(), iteration.get("id").unwrap().as_u64());
    assert!(find("matrix-gen").is_some(), "matrix-gen phase span");
    assert!(find("calibrate").is_some(), "calibrate span");

    // Nonzero engine counters and a Chrome-trace-compatible event array.
    let counters = manifest.get("counters").expect("counters");
    assert!(counters.get("engine.products").unwrap().as_u64().unwrap() > 0);
    assert!(counters.get("engine.pruned").unwrap().as_u64().unwrap() > 0);
    let events = manifest.get("traceEvents").and_then(|e| e.as_seq()).expect("traceEvents");
    assert!(!events.is_empty());
    for ev in events {
        assert!(ev.get("ph").and_then(|p| p.as_str()).is_some(), "event phase field");
    }
}

#[test]
fn serve_and_client_roundtrip_with_telemetry() {
    use std::io::BufRead;

    let params = tmpfile("serve_params.json");
    let noisy = tmpfile("serve_noisy.json");
    let calibrated = tmpfile("serve_calibrated.json");
    let manifest = tmpfile("serve_manifest.json");

    for (what, args) in [
        (
            "characterize",
            vec![
                "characterize",
                "--device",
                "ibmq-7",
                "--out",
                params.to_str().unwrap(),
                "--shots",
                "300",
                "--alpha",
                "5e-4",
                "--seed",
                "3",
            ],
        ),
        (
            "simulate",
            vec![
                "simulate",
                "--device",
                "ibmq-7",
                "--algorithm",
                "ghz",
                "--shots",
                "800",
                "--out",
                noisy.to_str().unwrap(),
                "--seed",
                "3",
            ],
        ),
    ] {
        assert!(qufem().args(&args).status().expect("spawn qufem").success(), "{what} failed");
    }

    // Start the server on an ephemeral port; the "listening on" stderr line
    // is the startup handshake carrying the resolved address.
    let mut server = qufem()
        .args([
            "serve",
            "--params",
            params.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--telemetry",
            manifest.to_str().unwrap(),
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn qufem serve");
    let mut server_stderr = std::io::BufReader::new(server.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            server_stderr.read_line(&mut line).expect("read server stderr") > 0,
            "server exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("qufem-serve listening on ") {
            break rest.to_string();
        }
    };

    // Calibrate over the wire…
    let status = qufem()
        .args([
            "client",
            "--addr",
            &addr,
            "--input",
            noisy.to_str().unwrap(),
            "--out",
            calibrated.to_str().unwrap(),
        ])
        .status()
        .expect("spawn qufem client");
    assert!(status.success(), "client calibrate failed");

    // …and the response must be bit-identical to the in-process library
    // path on the same params and input.
    let data: qufem::QuFemData =
        serde_json::from_str(&std::fs::read_to_string(&params).unwrap()).unwrap();
    let qufem_inproc = qufem::QuFem::import(data).unwrap();
    let noisy_dist: qufem::ProbDist =
        serde_json::from_str(&std::fs::read_to_string(&noisy).unwrap()).unwrap();
    let expected =
        qufem_inproc.prepare(&qufem::QubitSet::full(7)).unwrap().apply(&noisy_dist).unwrap();
    let served: qufem::ProbDist =
        serde_json::from_str(&std::fs::read_to_string(&calibrated).unwrap()).unwrap();
    let (a, b) = (expected.sorted_pairs(), served.sorted_pairs());
    assert_eq!(a.len(), b.len(), "served support diverges from in-process calibration");
    for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
        assert_eq!(ka, kb);
        assert_eq!(va.to_bits(), vb.to_bits(), "served value at {ka} diverges bit-wise");
    }

    // Status round-trip prints machine-readable JSON on stdout.
    let output =
        qufem().args(["client", "--addr", &addr, "--status"]).output().expect("spawn qufem client");
    assert!(output.status.success(), "client status failed");
    let status_json: serde::Value =
        serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).unwrap();
    assert_eq!(status_json.get("n_qubits").unwrap().as_u64(), Some(7));
    assert!(status_json.get("requests").unwrap().as_u64().unwrap() >= 2);

    // Graceful shutdown: the server process exits cleanly and writes the
    // telemetry manifest on its way out.
    let status = qufem()
        .args(["client", "--addr", &addr, "--shutdown"])
        .status()
        .expect("spawn qufem client");
    assert!(status.success(), "client shutdown failed");
    let exit = server.wait().expect("wait for qufem serve");
    assert!(exit.success(), "serve process should exit cleanly after shutdown");

    let manifest: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
    let counters = manifest.get("counters").expect("counters");
    assert!(counters.get("serve.requests").unwrap().as_u64().unwrap() >= 3);
    let spans = manifest.get("spans").and_then(|s| s.as_seq()).expect("spans array");
    let span_names: Vec<&str> =
        spans.iter().filter_map(|s| s.get("name").and_then(|n| n.as_str())).collect();
    assert!(span_names.contains(&"serve.request"), "per-request spans: {span_names:?}");
    assert!(span_names.contains(&"prepare"), "plan build on the cache miss: {span_names:?}");
    assert!(span_names.contains(&"calibrate"), "engine span inside the request: {span_names:?}");
    assert!(
        manifest.get("gauges").and_then(|g| g.get("serve.queue_depth")).is_some(),
        "queue-depth gauge in manifest"
    );
}

#[test]
fn serve_access_log_metrics_and_trace_cli() {
    use std::io::{BufRead, Read};

    let params = tmpfile("obs_params.json");
    let noisy = tmpfile("obs_noisy.json");
    let calibrated = tmpfile("obs_calibrated.json");

    for (what, args) in [
        (
            "characterize",
            vec![
                "characterize",
                "--device",
                "ibmq-7",
                "--out",
                params.to_str().unwrap(),
                "--shots",
                "300",
                "--alpha",
                "5e-4",
                "--seed",
                "3",
            ],
        ),
        (
            "simulate",
            vec![
                "simulate",
                "--device",
                "ibmq-7",
                "--algorithm",
                "ghz",
                "--shots",
                "800",
                "--out",
                noisy.to_str().unwrap(),
                "--seed",
                "3",
            ],
        ),
    ] {
        assert!(qufem().args(&args).status().expect("spawn qufem").success(), "{what} failed");
    }

    // `--slow-ms 0` marks every request slow, so with `--access-log` each
    // one must emit a structured JSON line on the server's stderr.
    let mut server = qufem()
        .args([
            "serve",
            "--params",
            params.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--flight-recorder",
            "8",
            "--slow-ms",
            "0",
            "--access-log",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn qufem serve");
    let mut server_stderr = std::io::BufReader::new(server.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            server_stderr.read_line(&mut line).expect("read server stderr") > 0,
            "server exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("qufem-serve listening on ") {
            break rest.to_string();
        }
    };

    let status = qufem()
        .args([
            "client",
            "--addr",
            &addr,
            "--input",
            noisy.to_str().unwrap(),
            "--out",
            calibrated.to_str().unwrap(),
        ])
        .status()
        .expect("spawn qufem client");
    assert!(status.success(), "client calibrate failed");

    // `client --metrics` prints machine-readable JSON on stdout.
    let output =
        qufem().args(["client", "--addr", &addr, "--metrics"]).output().expect("spawn qufem");
    assert!(output.status.success(), "client --metrics failed");
    let metrics: qufem::serve::MetricsInfo =
        serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).unwrap();
    assert!(metrics.requests >= 1);
    assert_eq!(metrics.flight_recorder_capacity, 8);
    assert!(metrics.slow >= 1, "--slow-ms 0 must mark the calibrate slow");

    // `client --metrics --text` prints the text exposition instead.
    let output = qufem()
        .args(["client", "--addr", &addr, "--metrics", "--text"])
        .output()
        .expect("spawn qufem");
    assert!(output.status.success(), "client --metrics --text failed");
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("qufem_serve_requests "), "text exposition: {text}");
    assert!(text.contains("serve_request_secs{quantile="), "text exposition: {text}");

    // `client --trace` prints one JSON line per flight-recorder entry, each
    // in the documented RequestTrace schema.
    let output =
        qufem().args(["client", "--addr", &addr, "--trace"]).output().expect("spawn qufem");
    assert!(output.status.success(), "client --trace failed");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let entries: Vec<qufem::serve::RequestTrace> = stdout
        .lines()
        .map(|line| serde_json::from_str(line).expect("trace line is RequestTrace JSON"))
        .collect();
    assert!(!entries.is_empty(), "flight recorder should hold the requests so far");
    assert!(entries.iter().any(|t| t.cmd == "calibrate"), "{entries:?}");

    let status = qufem()
        .args(["client", "--addr", &addr, "--shutdown"])
        .status()
        .expect("spawn qufem client");
    assert!(status.success(), "client shutdown failed");
    let exit = server.wait().expect("wait for qufem serve");
    assert!(exit.success(), "serve process should exit cleanly after shutdown");

    // Every access-log line on stderr parses in the same RequestTrace
    // schema as the `trace` command.
    let mut rest = String::new();
    server_stderr.read_to_string(&mut rest).expect("drain server stderr");
    let log_entries: Vec<qufem::serve::RequestTrace> = rest
        .lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .map(|l| serde_json::from_str(l).expect("access-log line is RequestTrace JSON"))
        .collect();
    assert!(!log_entries.is_empty(), "slow requests must be access-logged: {rest}");
    assert!(log_entries.iter().any(|t| t.cmd == "calibrate"), "{log_entries:?}");
    for t in &log_entries {
        assert_eq!(t.outcome, "ok", "{t:?}");
    }
}

#[test]
fn serve_without_source_or_client_without_addr_fail_cleanly() {
    // serve needs --params or --device.
    let output = qufem().args(["serve"]).output().expect("spawn qufem");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("--params or --device"), "stderr: {err}");

    // serve rejects unknown presets before binding a socket.
    let output = qufem().args(["serve", "--device", "nonsense-99"]).output().expect("spawn qufem");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("unknown device"), "stderr: {err}");

    // serve validates numeric flags.
    let output = qufem()
        .args(["serve", "--device", "ibmq-7", "--workers", "many"])
        .output()
        .expect("spawn qufem");
    assert!(!output.status.success());

    // client requires --addr.
    let output = qufem().args(["client"]).output().expect("spawn qufem");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("missing required flag --addr"), "stderr: {err}");

    // client calibrate requires --input/--out.
    let output = qufem().args(["client", "--addr", "127.0.0.1:9"]).output().expect("spawn qufem");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("missing required flag --input"), "stderr: {err}");

    // client surfaces connection failures as errors, not panics.
    let missing_input = tmpfile("never_written.json");
    std::fs::write(&missing_input, "[2]").unwrap();
    let output = qufem()
        .args([
            "client",
            "--addr",
            "127.0.0.1:1",
            "--input",
            missing_input.to_str().unwrap(),
            "--out",
            tmpfile("never_out.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn qufem");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("error:"), "stderr: {err}");
}

#[test]
fn admit_hot_swaps_a_recalibration_into_a_running_server() {
    use std::io::BufRead;

    let params_v0 = tmpfile("admit_params_v0.json");
    let params_v1 = tmpfile("admit_params_v1.json");
    let noisy = tmpfile("admit_noisy.json");
    let out_before = tmpfile("admit_before.json");
    let out_pinned = tmpfile("admit_pinned.json");
    let out_head = tmpfile("admit_head.json");

    // Two characterizations of the same preset (different seeds stand in
    // for a recalibration after drift), plus one noisy input.
    for (what, args) in [
        (
            "characterize v0",
            vec![
                "characterize",
                "--device",
                "ibmq-7",
                "--out",
                params_v0.to_str().unwrap(),
                "--shots",
                "300",
                "--alpha",
                "5e-4",
                "--seed",
                "3",
            ],
        ),
        (
            "characterize v1",
            vec![
                "characterize",
                "--device",
                "ibmq-7",
                "--out",
                params_v1.to_str().unwrap(),
                "--shots",
                "300",
                "--alpha",
                "5e-4",
                "--seed",
                "4",
            ],
        ),
        (
            "simulate",
            vec![
                "simulate",
                "--device",
                "ibmq-7",
                "--algorithm",
                "ghz",
                "--shots",
                "800",
                "--out",
                noisy.to_str().unwrap(),
                "--seed",
                "3",
            ],
        ),
    ] {
        assert!(qufem().args(&args).status().expect("spawn qufem").success(), "{what} failed");
    }

    let mut server = qufem()
        .args([
            "serve",
            "--params",
            params_v0.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--device-id",
            "ibmq-a",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn qufem serve");
    let mut server_stderr = std::io::BufReader::new(server.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            server_stderr.read_line(&mut line).expect("read server stderr") > 0,
            "server exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("qufem-serve listening on ") {
            break rest.to_string();
        }
    };
    let client_calibrate = |extra: &[&str], out: &std::path::Path| {
        let mut args = vec![
            "client",
            "--addr",
            &addr,
            "--input",
            noisy.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let output = qufem().args(&args).output().expect("spawn qufem client");
        assert!(output.status.success(), "client calibrate failed: {:?}", output);
        String::from_utf8_lossy(&output.stderr).to_string()
    };

    // Baseline through version 0, with the served identity echoed.
    let stderr = client_calibrate(&["--device", "ibmq-a"], &out_before);
    assert!(stderr.contains("[ibmq-a@v0]"), "stderr: {stderr}");

    // Hot-swap the recalibration in as ibmq-a version 1.
    let output = qufem()
        .args([
            "admit",
            "--addr",
            &addr,
            "--params",
            params_v1.to_str().unwrap(),
            "--device",
            "ibmq-a",
        ])
        .output()
        .expect("spawn qufem admit");
    assert!(output.status.success(), "admit failed: {:?}", output);
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("device \"ibmq-a\" version 1"), "stderr: {err}");

    // The catalog now shows both versions; unpinned requests follow the
    // head, pinned ones keep serving version 0 byte-for-byte.
    let output =
        qufem().args(["client", "--addr", &addr, "--status"]).output().expect("spawn qufem client");
    assert!(output.status.success());
    let status: serde::Value =
        serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).unwrap();
    assert_eq!(status.get("default_device").unwrap().as_str(), Some("ibmq-a"));
    let devices = status.get("devices").and_then(|d| d.as_seq()).expect("devices array");
    assert_eq!(devices.len(), 1);
    assert_eq!(devices[0].get("head_version").unwrap().as_u64(), Some(1));

    let stderr = client_calibrate(&["--device", "ibmq-a", "--version", "0"], &out_pinned);
    assert!(stderr.contains("[ibmq-a@v0]"), "stderr: {stderr}");
    assert_eq!(
        std::fs::read_to_string(&out_before).unwrap(),
        std::fs::read_to_string(&out_pinned).unwrap(),
        "pinned response changed across the hot-swap"
    );
    let stderr = client_calibrate(&[], &out_head);
    assert!(stderr.contains("[ibmq-a@v1]"), "stderr: {stderr}");
    assert_ne!(
        std::fs::read_to_string(&out_before).unwrap(),
        std::fs::read_to_string(&out_head).unwrap(),
        "the recalibration must actually change the calibrated output"
    );

    let status = qufem()
        .args(["client", "--addr", &addr, "--shutdown"])
        .status()
        .expect("spawn qufem client");
    assert!(status.success(), "client shutdown failed");
    let exit = server.wait().expect("wait for qufem serve");
    assert!(exit.success(), "serve process should exit cleanly after shutdown");
}

#[test]
fn unknown_device_fails_cleanly() {
    let out = tmpfile("never.json");
    let output = qufem()
        .args(["characterize", "--device", "nonsense-99", "--out", out.to_str().unwrap()])
        .output()
        .expect("spawn qufem");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("unknown device"), "stderr: {err}");
}

#[test]
fn missing_flags_show_usage() {
    let output = qufem().args(["calibrate"]).output().expect("spawn qufem");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("usage"), "stderr: {err}");
}

#[test]
fn flags_a_subcommand_does_not_read_are_rejected() {
    // A flag serve does not read must stop it before it starts, not be
    // ignored.
    let output =
        qufem().args(["serve", "--device", "ibmq-7", "--memo-cap", "16"]).output().expect("spawn");
    assert_eq!(output.status.code(), Some(2));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("serve does not take --memo-cap"), "stderr: {err}");

    // Switches are checked too, per subcommand: `--project` is a calibrate
    // switch, not an inspect one.
    let output =
        qufem().args(["inspect", "--params", "p.json", "--project"]).output().expect("spawn");
    assert_eq!(output.status.code(), Some(2));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("inspect does not take --project"), "stderr: {err}");

    // The replay reads its dialect, arrival and seed from the scenario
    // file, and `client` sends one request per run.
    for (args, flag) in [
        (&["client", "--addr", "127.0.0.1:1", "--depth", "3"][..], "client does not take --depth"),
        (
            &["loadgen", "scenarios/steady-mix.toml", "--binary"][..],
            "loadgen does not take --binary",
        ),
        (
            &["loadgen", "scenarios/steady-mix.toml", "--depth", "4"][..],
            "loadgen does not take --depth",
        ),
        (
            &["loadgen", "scenarios/steady-mix.toml", "--seed", "5"][..],
            "loadgen does not take --seed",
        ),
    ] {
        let output = qufem().args(args).output().expect("spawn");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(err.contains(flag), "{args:?} stderr: {err}");
    }
}

#[test]
fn loadgen_replays_write_byte_identical_reports() {
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/binary-pipelined.toml");
    let reports: Vec<Vec<u8>> = ["loadgen_a.json", "loadgen_b.json"]
        .into_iter()
        .map(|name| {
            let out = tmpfile(name);
            let status = qufem()
                .args(["loadgen", scenario, "--out", out.to_str().unwrap()])
                .status()
                .expect("spawn qufem loadgen");
            assert!(status.success(), "loadgen exited with {status}");
            std::fs::read(&out).expect("read report")
        })
        .collect();
    assert!(!reports[0].is_empty());
    assert!(reports[0] == reports[1], "two replays wrote different reports");
}
