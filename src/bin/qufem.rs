//! `qufem` — command-line interface to the QuFEM calibration pipeline.
//!
//! ```text
//! qufem characterize --device quafu-18 --out params.json [--shots 2000]
//!        [--alpha 2.5e-5] [--beta 1e-5] [--iterations 2] [--group-size 2] [--seed 0]
//!        [--telemetry run.json]
//! qufem simulate     --device quafu-18 --algorithm ghz --shots 2000 --out noisy.json [--seed 0]
//! qufem calibrate    --params params.json --input noisy.json --out calibrated.json
//!        [--measured 0,1,2] [--method qufem] [--project] [--telemetry run.json]
//! qufem calibrate    --device quafu-18 --out calibrated.json [--algorithm ghz] [--shots 2000]
//! qufem inspect      --params params.json
//! qufem serve        --params params.json [--addr 127.0.0.1:0] [--workers 4]
//!        [--queue-depth 64] [--max-request-bytes N] [--plan-cache 8] [--method qufem]
//!        [--flight-recorder 256] [--slow-ms 50] [--access-log] [--device-id ibmq-a]
//!        [--telemetry run.json]
//! qufem admit        --addr HOST:PORT --params recal.json [--device ibmq-a]
//! qufem client       --addr HOST:PORT --input noisy.json --out calibrated.json
//!        [--measured 0,1,2] [--method m3] [--device ibmq-a] [--version 2]
//! qufem client       --addr HOST:PORT --status | --shutdown
//! qufem client       --addr HOST:PORT --metrics [--text] | --trace
//! qufem loadgen      <scenario.toml> [--out report.json] [--telemetry run.json]
//! ```
//!
//! `client` speaks NDJSON by default; `--binary` switches to the
//! length-prefixed binary frame dialect (same answers, packed encoding).
//! A `loadgen` scenario names its own dialect, arrival process and seed.
//! A flag the subcommand does not read is an error (exit 2), not silently
//! ignored.
//!
//! `calibrate --device` without `--params` runs the full pipeline —
//! characterize, synthesize a noisy input (unless `--input` is given),
//! calibrate. `--telemetry <path>` enables the collector and writes a run
//! manifest (JSON; loads directly into `chrome://tracing` / Perfetto).
//!
//! `serve` holds a device catalog — the startup calibrator published as
//! version 0 of `--device-id` plus the standard method registry — and
//! answers newline-delimited JSON calibration requests concurrently (see
//! the README's "Serving" and "Multi-device serving" sections); `client`
//! speaks that protocol. `--method` selects among the registered method
//! ids (`qufem`, `ibu`, `m3`, `ctmp`, `qbeep`): on `calibrate` it picks
//! the in-process method, on `serve` the default for method-less requests,
//! on `client` the per-request method. `admit` hot-swaps a recalibration
//! into a running server: the parameter file is published as the next
//! version of its device (or of `--device`) without interrupting traffic.
//! `client --device`/`--version` route a calibrate to a specific catalog
//! entry; unpinned requests follow the device's newest version. A serve
//! run with `--telemetry` writes its manifest after a graceful shutdown.
//!
//! Devices are the built-in presets (`ibmq-7`, `quafu-18`, `custom-36`,
//! `rigetti-79`, `quafu-136`, or `grid-N`); distributions are the JSON
//! encoding of [`qufem::ProbDist`].

use qufem::circuits::Algorithm;
use qufem::device::presets;
use qufem::{ProbDist, QuFem, QuFemConfig, QuFemData, QubitSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  qufem characterize --device <preset> --out <params.json> \
         [--shots N] [--alpha A] [--beta B] [--iterations L] [--group-size K] [--seed S] \
         [--telemetry <run.json>]\n  \
         qufem simulate --device <preset> --algorithm <ghz|bv|dj|simon|vqc|qsvm|hs> \
         --shots N --out <dist.json> [--seed S]\n  \
         qufem calibrate --params <params.json> --input <dist.json> --out <out.json> \
         [--measured 0,1,2] [--method M] [--project] [--telemetry <run.json>]\n  \
         qufem calibrate --device <preset> --out <out.json> [--algorithm A] [--shots N] \
         [--telemetry <run.json>]   (full pipeline: characterize + calibrate)\n  \
         qufem inspect --params <params.json>\n  \
         qufem serve --params <params.json> | --device <preset> [--addr 127.0.0.1:0] \
         [--workers N] [--queue-depth N] [--max-request-bytes N] [--plan-cache N] \
         [--method M] [--flight-recorder N] [--slow-ms MS] [--access-log] \
         [--device-id ID] [--telemetry <run.json>]\n  \
         qufem admit --addr <host:port> --params <recal.json> [--device ID]\n  \
         qufem client --addr <host:port> --input <dist.json> --out <out.json> \
         [--measured 0,1,2] [--method M] [--device ID] [--version V] [--binary]\n  \
         qufem client --addr <host:port> [--binary] --status | --shutdown\n  \
         qufem client --addr <host:port> [--binary] --metrics [--text] | --trace\n  \
         qufem loadgen <scenario.toml> [--out <report.json>] [--telemetry <run.json>] \
         (deterministic traffic replay; scenarios/ has checked-in mixes)\n\n\
         presets: ibmq-7, quafu-18, custom-36, rigetti-79, quafu-136, grid-<N>\n\
         methods: qufem, ibu, m3, ctmp, qbeep"
    );
    std::process::exit(2);
}

fn parse_flags(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut switches = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                switches.push(name.to_string());
                i += 1;
            }
        } else {
            eprintln!("unexpected argument {a:?}");
            usage();
        }
    }
    (flags, switches)
}

/// The characterization flags [`config_from_flags`] reads.
const CONFIG_FLAGS: &str = "shots alpha beta iterations group-size";

/// Every `--name` (valued flag or switch) `command` reads, or `None` for an
/// unknown command.
fn accepted_flags(command: &str) -> Option<Vec<&'static str>> {
    let (own, config) = match command {
        "characterize" => ("device out seed telemetry", CONFIG_FLAGS),
        "simulate" => ("device out algorithm shots seed", ""),
        "calibrate" => (
            "out device params input algorithm measured method project seed telemetry",
            CONFIG_FLAGS,
        ),
        "serve" => (
            "addr workers queue-depth max-request-bytes plan-cache read-timeout-secs method \
             flight-recorder slow-ms access-log device-id params device seed telemetry",
            CONFIG_FLAGS,
        ),
        "admit" => ("addr params device", ""),
        "client" => (
            "addr binary shutdown status metrics text trace input out measured method device \
             version",
            "",
        ),
        "loadgen" => ("scenario out telemetry", ""),
        "inspect" => ("params", ""),
        _ => return None,
    };
    Some(own.split_whitespace().chain(config.split_whitespace()).collect())
}

fn algorithm_by_name(name: &str) -> Option<Algorithm> {
    match name.to_ascii_lowercase().as_str() {
        "ghz" => Some(Algorithm::Ghz),
        "bv" => Some(Algorithm::BernsteinVazirani),
        "dj" => Some(Algorithm::DeutschJozsa),
        "simon" => Some(Algorithm::Simon),
        "vqc" => Some(Algorithm::Vqc),
        "qsvm" => Some(Algorithm::Qsvm),
        "hs" => Some(Algorithm::HamiltonianSimulation),
        _ => None,
    }
}

/// One request over a fresh connection in the chosen wire dialect.
fn request_via(
    addr: &str,
    binary: bool,
    request: &qufem::serve::Request,
) -> std::io::Result<qufem::serve::Response> {
    let mut client = if binary {
        qufem::serve::Client::connect_binary(addr)?
    } else {
        qufem::serve::Client::connect(addr)?
    };
    client.request(request)
}

/// Enables the telemetry collector and stamps run metadata when
/// `--telemetry` was passed. Returns the manifest output path, if any.
fn telemetry_setup(flags: &HashMap<String, String>, command: &str, seed: u64) -> Option<String> {
    let path = flags.get("telemetry").cloned()?;
    qufem_telemetry::reset();
    qufem_telemetry::enable();
    qufem_telemetry::set_meta("command", serde::Value::Str(command.to_string()));
    qufem_telemetry::set_meta("seed", serde::Value::UInt(seed));
    if let Some(device) = flags.get("device") {
        qufem_telemetry::set_meta("device", serde::Value::Str(device.clone()));
    }
    Some(path)
}

/// Writes the run manifest and prints the per-phase summary to stderr.
fn telemetry_finish(path: &str) -> std::io::Result<()> {
    qufem_telemetry::write_manifest(std::path::Path::new(path), &[])?;
    eprint!("{}", qufem_telemetry::summary());
    eprintln!("telemetry manifest written to {path}");
    Ok(())
}

/// Builds a [`QuFemConfig`] from the shared characterization flags.
fn config_from_flags(
    flags: &HashMap<String, String>,
    seed: u64,
) -> Result<QuFemConfig, Box<dyn std::error::Error>> {
    let mut builder = QuFemConfig::builder().seed(seed);
    if let Some(v) = flags.get("shots") {
        builder = builder.shots(v.parse()?);
    }
    if let Some(v) = flags.get("alpha") {
        builder = builder.characterization_threshold(v.parse()?);
    }
    if let Some(v) = flags.get("beta") {
        builder = builder.pruning_threshold(v.parse()?);
    }
    if let Some(v) = flags.get("iterations") {
        builder = builder.iterations(v.parse()?);
    }
    if let Some(v) = flags.get("group-size") {
        builder = builder.max_group_size(v.parse()?);
    }
    Ok(builder.build()?)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else { usage() };
    // `loadgen` takes its scenario file as a positional argument; peel it
    // off before flag parsing, which accepts only `--flag` forms.
    let (positional, rest) = if command == "loadgen" {
        match rest.split_first() {
            Some((p, tail)) if !p.starts_with("--") => (Some(p.clone()), tail),
            _ => (None, rest),
        }
    } else {
        (None, rest)
    };
    let (flags, switches) = parse_flags(rest);
    let accepted = accepted_flags(command).unwrap_or_else(|| usage());
    let unknown = flags.keys().chain(&switches).filter(|name| !accepted.contains(&name.as_str()));
    if let Some(name) = unknown.min() {
        eprintln!("{command} does not take --{name}");
        usage();
    }
    let get = |name: &str| flags.get(name).cloned();
    let require = |name: &str| -> String {
        get(name).unwrap_or_else(|| {
            eprintln!("missing required flag --{name}");
            usage();
        })
    };
    let seed: u64 = get("seed").map(|s| s.parse()).transpose()?.unwrap_or(0);

    match command.as_str() {
        "characterize" => {
            let device_name = require("device");
            let out = require("out");
            let device = presets::by_name(&device_name, seed)
                .ok_or_else(|| format!("unknown device preset {device_name:?}"))?;
            let config = config_from_flags(&flags, seed)?;
            let telemetry = telemetry_setup(&flags, "characterize", seed);
            eprintln!("characterizing {} …", device.name());
            let qufem = QuFem::characterize(&device, config)?;
            let report = qufem.benchgen_report().expect("device characterization");
            eprintln!(
                "done: {} benchmarking circuits, {} iterations",
                report.total_circuits,
                qufem.iterations().len()
            );
            std::fs::write(&out, serde_json::to_string(&qufem.export())?)?;
            eprintln!("parameters written to {out}");
            if let Some(path) = telemetry {
                telemetry_finish(&path)?;
            }
        }
        "simulate" => {
            let device_name = require("device");
            let out = require("out");
            let algorithm = algorithm_by_name(&require("algorithm"))
                .ok_or("unknown algorithm (use ghz|bv|dj|simon|vqc|qsvm|hs)")?;
            let shots: u64 = require("shots").parse()?;
            let device = presets::by_name(&device_name, seed)
                .ok_or_else(|| format!("unknown device preset {device_name:?}"))?;
            let n = device.n_qubits();
            let measured = QubitSet::full(n);
            let ideal = algorithm.ideal_distribution(n, seed);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC11);
            let noisy = device.measure_distribution(&ideal, &measured, shots, &mut rng);
            std::fs::write(&out, serde_json::to_string(&noisy)?)?;
            eprintln!(
                "{} on {}: {} shots, {} distinct outcomes -> {out}",
                algorithm.name(),
                device.name(),
                shots,
                noisy.support_len()
            );
        }
        "calibrate" => {
            let out = require("out");
            let device = match get("device") {
                Some(name) => Some(
                    presets::by_name(&name, seed)
                        .ok_or_else(|| format!("unknown device preset {name:?}"))?,
                ),
                None => None,
            };
            let telemetry = telemetry_setup(&flags, "calibrate", seed);
            let qufem = match get("params") {
                Some(params_path) => {
                    let data: QuFemData =
                        serde_json::from_str(&std::fs::read_to_string(&params_path)?)?;
                    QuFem::import(data)?
                }
                None => {
                    let device = device.as_ref().ok_or("calibrate needs --params or --device")?;
                    let config = config_from_flags(&flags, seed)?;
                    eprintln!("characterizing {} …", device.name());
                    QuFem::characterize(device, config)?
                }
            };
            let dist: ProbDist = match get("input") {
                Some(input) => serde_json::from_str(&std::fs::read_to_string(&input)?)?,
                None => {
                    let device = device
                        .as_ref()
                        .ok_or("calibrate needs --input, or --device to synthesize one")?;
                    let algorithm_name = get("algorithm").unwrap_or_else(|| "ghz".to_string());
                    let algorithm = algorithm_by_name(&algorithm_name)
                        .ok_or("unknown algorithm (use ghz|bv|dj|simon|vqc|qsvm|hs)")?;
                    let shots: u64 = get("shots").map(|s| s.parse()).transpose()?.unwrap_or(2000);
                    let n = device.n_qubits();
                    let ideal = algorithm.ideal_distribution(n, seed);
                    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC11);
                    let noisy =
                        device.measure_distribution(&ideal, &QubitSet::full(n), shots, &mut rng);
                    eprintln!(
                        "synthesized {} input on {}: {} shots, {} outcomes",
                        algorithm.name(),
                        device.name(),
                        shots,
                        noisy.support_len()
                    );
                    noisy
                }
            };
            let measured: QubitSet = match get("measured") {
                Some(spec) => spec
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()?
                    .into_iter()
                    .collect(),
                None => QubitSet::full(qufem.n_qubits()),
            };
            let method = get("method").unwrap_or_else(|| "qufem".to_string());
            let calibrated = if method == "qufem" {
                qufem.calibrate(&dist, &measured)?
            } else {
                // Any other method is built from the QuFEM parameters' first
                // benchmarking snapshot via the standard registry.
                let snapshot = qufem
                    .iterations()
                    .first()
                    .map(|it| it.snapshot().clone())
                    .ok_or("parameters carry no benchmarking snapshot")?;
                let registry = qufem::baselines::standard_registry(qufem.config().clone());
                let mitigator =
                    registry.build(&method, &snapshot, &qufem::baselines::MethodOptions::new())?;
                eprintln!("calibrating with {} …", mitigator.name());
                mitigator.calibrate(&dist, &measured)?
            };
            let result = if switches.contains(&"project".to_string()) {
                calibrated.project_to_probabilities()
            } else {
                calibrated
            };
            std::fs::write(&out, serde_json::to_string(&result)?)?;
            eprintln!(
                "calibrated {} -> {} outcomes, total mass {:.6} -> {out}",
                dist.support_len(),
                result.support_len(),
                result.total_mass()
            );
            if let Some(path) = telemetry {
                telemetry_finish(&path)?;
            }
        }
        "serve" => {
            let telemetry = telemetry_setup(&flags, "serve", seed);
            // Validate flags before the (expensive) parameter load so typos
            // fail fast instead of after a full characterization.
            let addr = get("addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
            let mut serve_config = qufem::serve::ServeConfig::default();
            if let Some(v) = get("workers") {
                serve_config.workers = v.parse()?;
            }
            if let Some(v) = get("queue-depth") {
                serve_config.queue_depth = v.parse()?;
            }
            if let Some(v) = get("max-request-bytes") {
                serve_config.max_request_bytes = v.parse()?;
            }
            if let Some(v) = get("plan-cache") {
                serve_config.plan_cache_capacity = v.parse()?;
            }
            if let Some(v) = get("read-timeout-secs") {
                serve_config.read_timeout = Some(std::time::Duration::from_secs_f64(v.parse()?));
            }
            if let Some(v) = get("method") {
                serve_config.default_method = v;
            }
            if let Some(v) = get("flight-recorder") {
                serve_config.flight_recorder = v.parse()?;
            }
            if let Some(v) = get("slow-ms") {
                serve_config.slow_threshold =
                    Some(std::time::Duration::from_secs_f64(v.parse::<f64>()? / 1e3));
            }
            if switches.contains(&"access-log".to_string()) {
                serve_config.access_log = true;
            }
            if let Some(v) = get("device-id") {
                serve_config.device_id = v;
            }
            let qufem = match get("params") {
                Some(params_path) => {
                    let data: QuFemData =
                        serde_json::from_str(&std::fs::read_to_string(&params_path)?)?;
                    QuFem::import(data)?
                }
                None => {
                    let device_name = get("device").ok_or("serve needs --params or --device")?;
                    let device = presets::by_name(&device_name, seed)
                        .ok_or_else(|| format!("unknown device preset {device_name:?}"))?;
                    let config = config_from_flags(&flags, seed)?;
                    eprintln!("characterizing {} …", device.name());
                    QuFem::characterize(&device, config)?
                }
            };
            // Serve the full standard registry so clients can select any
            // method id, whatever the default is.
            serve_config.registry =
                std::sync::Arc::new(qufem::baselines::standard_registry(qufem.config().clone()));
            let server = qufem::serve::Server::start(qufem, addr.as_str(), serve_config)?;
            let handle = server.handle();
            // The address line is the startup handshake: scripts and the
            // CLI tests wait for it before connecting.
            eprintln!("qufem-serve listening on {}", server.local_addr());
            server.join();
            eprintln!(
                "qufem-serve stopped after {} requests ({} rejected)",
                handle.requests(),
                handle.rejected()
            );
            if let Some(path) = telemetry {
                telemetry_finish(&path)?;
            }
        }
        "admit" => {
            let addr = require("addr");
            let params_path = require("params");
            let data: QuFemData = serde_json::from_str(&std::fs::read_to_string(&params_path)?)?;
            let mut request = qufem::serve::Request::admit(data);
            if let Some(device) = get("device") {
                request = request.with_device(device);
            }
            let response = qufem::serve::request_once(addr.as_str(), &request)?;
            if !response.ok {
                return Err(response.error.unwrap_or_else(|| "admit failed".into()).into());
            }
            eprintln!(
                "admitted {} as device {:?} version {}",
                params_path,
                response.device.as_deref().unwrap_or("?"),
                response.version.unwrap_or_default()
            );
        }
        "client" => {
            let addr = require("addr");
            let binary = switches.contains(&"binary".to_string());
            if switches.contains(&"shutdown".to_string()) {
                let response =
                    request_via(addr.as_str(), binary, &qufem::serve::Request::shutdown())?;
                if !response.ok {
                    return Err(response.error.unwrap_or_else(|| "shutdown failed".into()).into());
                }
                eprintln!("server at {addr} shutting down");
            } else if switches.contains(&"status".to_string()) {
                let response =
                    request_via(addr.as_str(), binary, &qufem::serve::Request::status())?;
                let status = match (response.ok, response.status) {
                    (true, Some(status)) => status,
                    _ => {
                        return Err(response.error.unwrap_or_else(|| "status failed".into()).into())
                    }
                };
                println!("{}", serde_json::to_string_pretty(&status)?);
            } else if switches.contains(&"metrics".to_string()) {
                let text = switches.contains(&"text".to_string());
                let request = if text {
                    qufem::serve::Request::metrics_text()
                } else {
                    qufem::serve::Request::metrics()
                };
                let response = request_via(addr.as_str(), binary, &request)?;
                if !response.ok {
                    return Err(response.error.unwrap_or_else(|| "metrics failed".into()).into());
                }
                if text {
                    let rendered =
                        response.metrics_text.ok_or("server response carried no metrics text")?;
                    print!("{rendered}");
                } else {
                    let metrics = response.metrics.ok_or("server response carried no metrics")?;
                    println!("{}", serde_json::to_string_pretty(&metrics)?);
                }
            } else if switches.contains(&"trace".to_string()) {
                let response = request_via(addr.as_str(), binary, &qufem::serve::Request::trace())?;
                let trace = match (response.ok, response.trace) {
                    (true, Some(trace)) => trace,
                    _ => {
                        return Err(response.error.unwrap_or_else(|| "trace failed".into()).into())
                    }
                };
                // One JSON line per record — the same schema as access-log
                // lines, so the two can be processed by the same tooling.
                for entry in &trace {
                    println!("{}", serde_json::to_string(entry)?);
                }
            } else {
                let input = require("input");
                let out = require("out");
                let dist: ProbDist = serde_json::from_str(&std::fs::read_to_string(&input)?)?;
                let measured: Option<Vec<usize>> = match get("measured") {
                    Some(spec) => Some(
                        spec.split(',')
                            .map(|s| s.trim().parse::<usize>())
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                    None => None,
                };
                let mut request = qufem::serve::Request::calibrate(dist.clone(), measured);
                if let Some(method) = get("method") {
                    request = request.with_method(method);
                }
                if let Some(device) = get("device") {
                    request = request.with_device(device);
                }
                if let Some(version) = get("version") {
                    request = request.with_version(version.parse()?);
                }
                let response = request_via(addr.as_str(), binary, &request)?;
                if !response.ok {
                    return Err(response
                        .error
                        .unwrap_or_else(|| "calibration failed".into())
                        .into());
                }
                let result = response.dist.ok_or("server response carried no distribution")?;
                std::fs::write(&out, serde_json::to_string(&result)?)?;
                let products = response.stats.as_ref().map(|s| s.products).unwrap_or_default();
                let identity = match (&response.device, response.version) {
                    (Some(device), Some(version)) => format!(" [{device}@v{version}]"),
                    _ => String::new(),
                };
                eprintln!(
                    "calibrated {} -> {} outcomes ({} engine products){identity} -> {out}",
                    dist.support_len(),
                    result.support_len(),
                    products
                );
            }
        }
        "loadgen" => {
            let scenario_path = positional.or_else(|| get("scenario")).unwrap_or_else(|| {
                eprintln!("loadgen needs a scenario file (positional or --scenario)");
                usage();
            });
            let scenario = qufem::loadgen::Scenario::load(std::path::Path::new(&scenario_path))?;
            let telemetry = telemetry_setup(&flags, "loadgen", scenario.seed);
            eprintln!(
                "replaying scenario {:?}: {} requests ({} rounds x {} clients), \
                 {} tenant(s), {} device(s)",
                scenario.name,
                scenario.total_requests(),
                scenario.rounds,
                scenario.clients,
                scenario.tenants.len(),
                scenario.devices.len(),
            );
            let report = qufem::loadgen::run_scenario(&scenario)?;
            let json = report.to_json_pretty();
            match get("out") {
                Some(out) => {
                    std::fs::write(&out, &json)?;
                    eprintln!(
                        "report written to {out} (determinism digest {})",
                        report.determinism_digest()
                    );
                }
                None => print!("{json}"),
            }
            if let Some(path) = telemetry {
                telemetry_finish(&path)?;
            }
            // Replays are a regression gate: error frames or non-monotone
            // version echoes fail the command after the report is written.
            if report.errors > 0 {
                return Err(format!("{} error frame(s) — see the report", report.errors).into());
            }
            if !report.version_echoes_monotone {
                return Err("version echoes were not monotone".into());
            }
        }
        "inspect" => {
            let params_path = require("params");
            let data: QuFemData = serde_json::from_str(&std::fs::read_to_string(&params_path)?)?;
            println!("qubits: {}", data.n_qubits);
            if let Some(lineage) = &data.lineage {
                println!(
                    "lineage: device {:?} version {} (parent {:?}, seq {})",
                    lineage.device_id, lineage.version, lineage.parent_version, lineage.created_seq
                );
            }
            println!(
                "config: L={}, K={}, alpha={:.1e}, beta={:.1e}, shots={}",
                data.config.iterations,
                data.config.max_group_size,
                data.config.alpha,
                data.config.beta,
                data.config.shots
            );
            if let Some(report) = &data.benchgen_report {
                println!(
                    "characterization: {} circuits ({} adaptive rounds)",
                    report.total_circuits, report.rounds
                );
            }
            for (i, iter) in data.iterations.iter().enumerate() {
                println!(
                    "iteration {}: {} groups, {} benchmark records",
                    i + 1,
                    iter.grouping.len(),
                    iter.records.len()
                );
                println!("  grouping: {:?}", iter.grouping);
            }
        }
        _ => usage(),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
