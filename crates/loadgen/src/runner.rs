//! Scenario execution: round-based replay against a live in-process
//! [`qufem_serve::Server`].
//!
//! ## Determinism model
//!
//! The runner makes every run of `(scenario, seed)` produce a byte-identical
//! [`Report`] by construction:
//!
//! - the whole request trace is materialized up front ([`crate::trace`]),
//! - traffic advances in **rounds** separated by barriers: every client
//!   finishes round `r` before anything from round `r + 1` starts,
//! - mid-run events (drift admits, reconnects) fire only *between* rounds,
//!   so the catalog head every round-`r` request resolves is a pure function
//!   of the scenario — version echoes are exactly predictable,
//! - calibration responses are bit-identical regardless of worker
//!   interleaving or `QUFEM_THREADS` (the serve crate's core guarantee), so
//!   digests over response distributions and sizes are stable,
//! - the only server views the report reads (the final device table and
//!   the swap count) hold no duration.
//!
//! Nothing is timed: perfbench measures serving, loadgen checks it.
//!
//! ## Sizing
//!
//! The server's connection budget is `workers + queue_depth`, so the runner
//! raises both to at least `clients + 2` (persistent clients + the control
//! connection + reconnect slack) — a smaller value would shed lockstep
//! connects nondeterministically.

use crate::report::{BytePercentiles, CacheModel, DeviceReport, EventReport, Report, TenantReport};
use crate::scenario::{build_device, EventKind, Protocol, Scenario};
use crate::trace::{self, Trace, TraceRequest};
use crate::{Error, Result};
use qufem_core::digest::{digest_prob_dist, Digest64};
use qufem_core::{QuFem, QuFemConfig, QuFemData, SnapshotLineage};
use qufem_serve::{Client, Request, Response, ServeConfig, Server};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Everything recorded about one request/response exchange.
#[derive(Debug, Clone)]
struct Outcome {
    tenant: usize,
    ok: bool,
    error: Option<String>,
    device: Option<String>,
    version: Option<u64>,
    /// Digest of the response distribution (0 for error frames).
    dist_digest: u64,
    /// Exact response wire size in bytes — the NDJSON line or the binary
    /// frame, per the scenario's protocol (serialization is deterministic,
    /// so re-encoding the parsed response reproduces the wire size).
    response_bytes: u64,
}

/// One client's full run: outcomes in issue order plus the monotonicity
/// verdict over its version echoes.
struct ClientResult {
    outcomes: Vec<Outcome>,
    /// Per-connection-segment, per-device version echoes never decreased.
    monotone: bool,
}

/// Runs a scenario end-to-end and assembles its report.
///
/// # Errors
///
/// Characterization failures, socket failures, and poisoned runs. Error
/// *frames* (a response with `ok: false`) are not an `Err` — they are
/// accounted in the report so the regression gate can assert on them.
pub fn run_scenario(scenario: &Scenario) -> Result<Report> {
    // Build and characterize every device up front (including the drifted
    // recalibrations events will admit), so mid-run event cost is one admit
    // request, not a characterization.
    let devices: Vec<_> = scenario.devices.iter().map(build_device).collect::<Result<Vec<_>>>()?;
    let mut calibrators = Vec::with_capacity(devices.len());
    for (idx, device) in devices.iter().enumerate() {
        calibrators.push(characterize(spec_config(scenario, idx)?, device)?);
    }
    let trace = trace::generate(scenario, &devices);
    let mut drift_admits: Vec<Option<QuFemData>> = Vec::with_capacity(scenario.events.len());
    for event in &scenario.events {
        drift_admits.push(match &event.kind {
            EventKind::AdmitDrift { device, step } => {
                let spec = &scenario.devices[*device];
                let drifted = devices[*device].drifted(*step);
                let qufem = characterize(spec_config(scenario, *device)?, &drifted)?;
                let lineage = SnapshotLineage {
                    device_id: spec.id.clone(),
                    version: 0,
                    parent_version: None,
                    created_seq: 0,
                };
                Some(qufem.export_versioned(&lineage))
            }
            EventKind::Reconnect { .. } => None,
        });
    }

    // The startup calibrator becomes version 0 of the first device.
    let mut calibrators = calibrators.into_iter();
    let startup = calibrators.next().expect("scenario has at least one device");
    let secondary: Vec<QuFemData> = calibrators
        .zip(scenario.devices.iter().skip(1))
        .map(|(qufem, spec)| {
            let lineage = SnapshotLineage {
                device_id: spec.id.clone(),
                version: 0,
                parent_version: None,
                created_seq: 0,
            };
            qufem.export_versioned(&lineage)
        })
        .collect();

    let config = ServeConfig {
        workers: scenario.server.workers.max(scenario.clients + 2),
        queue_depth: scenario.server.queue_depth.max(scenario.clients + 2),
        read_timeout: Some(Duration::from_secs(30)),
        plan_cache_capacity: scenario.server.plan_cache,
        prewarm: scenario.prewarm,
        registry: Arc::new(qufem_baselines::standard_registry(startup.config().clone())),
        device_id: scenario.devices[0].id.clone(),
        ..ServeConfig::default()
    };
    let server = Server::start(startup, "127.0.0.1:0", config)
        .map_err(|e| Error::new(format!("server start: {e}")))?;
    if scenario.prewarm {
        server.wait_for_prewarm();
    }
    let addr = server.local_addr();
    let mut control =
        Client::connect(addr).map_err(|e| Error::new(format!("control connect: {e}")))?;

    // Publish the secondary devices (version 0 each) before traffic starts.
    for data in secondary {
        let response = control
            .request(&Request::admit(data))
            .map_err(|e| Error::new(format!("setup admit: {e}")))?;
        if !response.ok {
            return Err(Error::new(format!(
                "setup admit rejected: {}",
                response.error.as_deref().unwrap_or("unknown")
            )));
        }
    }

    let mut events_report: Vec<EventReport> = Vec::with_capacity(scenario.events.len());
    let barrier = Barrier::new(scenario.clients + 1);
    let reconnect_flags: Vec<AtomicBool> =
        (0..scenario.clients).map(|_| AtomicBool::new(false)).collect();

    let client_results: Vec<Result<ClientResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..scenario.clients)
            .map(|c| {
                let requests = &trace.per_client[c];
                let barrier = &barrier;
                let flag = &reconnect_flags[c];
                scope.spawn(move || client_loop(addr, scenario, requests, barrier, flag))
            })
            .collect();

        // Conductor: fire each round's events, then release the round.
        for round in 1..=scenario.rounds {
            for (event, admit) in scenario.events.iter().zip(&drift_admits) {
                if event.round != round {
                    continue;
                }
                match &event.kind {
                    EventKind::AdmitDrift { device, .. } => {
                        let data = admit.clone().expect("admit-drift carries exported params");
                        let report = match control.request(&Request::admit(data)) {
                            Ok(response) if response.ok => EventReport {
                                round,
                                kind: "admit-drift".to_string(),
                                device: response.device.clone(),
                                version: response.version,
                                clients: Vec::new(),
                            },
                            Ok(_) => EventReport {
                                round,
                                kind: "admit-drift".to_string(),
                                device: Some(scenario.devices[*device].id.clone()),
                                version: None,
                                clients: Vec::new(),
                            },
                            Err(_) => EventReport {
                                round,
                                kind: "admit-drift".to_string(),
                                device: Some(scenario.devices[*device].id.clone()),
                                version: None,
                                clients: Vec::new(),
                            },
                        };
                        events_report.push(report);
                    }
                    EventKind::Reconnect { clients } => {
                        for &c in clients {
                            reconnect_flags[c].store(true, Ordering::SeqCst);
                        }
                        events_report.push(EventReport {
                            round,
                            kind: "reconnect".to_string(),
                            device: None,
                            version: None,
                            clients: clients.clone(),
                        });
                    }
                }
            }
            barrier.wait(); // release round `round`
            barrier.wait(); // all clients finished round `round`
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let mut clients_results = Vec::with_capacity(client_results.len());
    for result in client_results {
        clients_results.push(result?);
    }

    // Final catalog view + swap counter over the control connection, before
    // the server goes down.
    let status = control
        .request(&Request::status())
        .map_err(|e| Error::new(format!("final status: {e}")))?
        .status
        .ok_or_else(|| Error::new("final status response carried no status"))?;
    let metrics = control
        .request(&Request::metrics())
        .map_err(|e| Error::new(format!("final metrics: {e}")))?
        .metrics
        .ok_or_else(|| Error::new("final metrics response carried no metrics"))?;
    drop(control);
    server.handle().shutdown();
    server.join();

    print_error_frames(&clients_results);
    Ok(assemble_report(
        scenario,
        &trace,
        &clients_results,
        events_report,
        &status.devices,
        metrics.swaps,
    ))
}

/// Connects one client in the scenario's wire dialect.
fn connect(addr: std::net::SocketAddr, protocol: Protocol) -> std::io::Result<Client> {
    match protocol {
        Protocol::Json => Client::connect(addr),
        Protocol::Binary => Client::connect_binary(addr),
    }
}

/// One client's whole run: reconnects when flagged, sends its rounds'
/// requests (lockstep or pipelined), records every outcome. Errors are
/// recorded per request — the thread always keeps the barrier cadence, so a
/// failed client cannot deadlock the run.
fn client_loop(
    addr: std::net::SocketAddr,
    scenario: &Scenario,
    requests: &[TraceRequest],
    barrier: &Barrier,
    reconnect: &AtomicBool,
) -> Result<ClientResult> {
    let per_round = scenario.per_client_per_round();
    let mut client = Some(
        connect(addr, scenario.protocol).map_err(|e| Error::new(format!("client connect: {e}")))?,
    );
    let mut outcomes = Vec::with_capacity(requests.len());
    let mut monotone = true;
    // Last echoed version per device, reset on reconnect (a fresh
    // connection makes no ordering promise relative to the old one).
    let mut last_versions: HashMap<String, u64> = HashMap::new();
    for round in 1..=scenario.rounds {
        barrier.wait();
        if reconnect.swap(false, Ordering::SeqCst) {
            drop(client.take());
            match connect(addr, scenario.protocol) {
                Ok(fresh) => client = Some(fresh),
                Err(_) => client = None,
            }
            last_versions.clear();
        }
        let batch = &requests[(round - 1) * per_round..round * per_round];
        let responses = exchange(client.as_mut(), scenario, batch);
        for (req, response) in batch.iter().zip(responses) {
            let outcome = match response {
                Ok(response) => {
                    if let (true, Some(device), Some(version)) =
                        (response.ok, response.device.as_deref(), response.version)
                    {
                        let last = last_versions.entry(device.to_string()).or_insert(version);
                        if version < *last {
                            monotone = false;
                        }
                        *last = version;
                    }
                    outcome_of(req, &response, scenario.protocol)
                }
                Err(message) => Outcome {
                    tenant: req.tenant,
                    ok: false,
                    error: Some(message),
                    device: None,
                    version: None,
                    dist_digest: 0,
                    response_bytes: 0,
                },
            };
            outcomes.push(outcome);
        }
        barrier.wait();
    }
    Ok(ClientResult { outcomes, monotone })
}

/// Sends one round's batch: request/response lockstep in closed mode,
/// pipelined on the connection in open mode. Returns one result per
/// request, in order.
fn exchange(
    client: Option<&mut Client>,
    scenario: &Scenario,
    batch: &[TraceRequest],
) -> Vec<std::result::Result<Response, String>> {
    let Some(client) = client else {
        return batch.iter().map(|_| Err("connection lost".to_string())).collect();
    };
    let wire = |req: &TraceRequest| {
        let spec = &scenario.tenants[req.tenant];
        Request::calibrate(req.dist.clone(), Some(req.measured.clone()))
            .with_method(spec.method.clone())
            .with_device(scenario.devices[spec.device].id.clone())
    };
    match scenario.arrival {
        crate::scenario::Arrival::Closed => {
            batch.iter().map(|req| client.request(&wire(req)).map_err(|e| e.to_string())).collect()
        }
        crate::scenario::Arrival::Open { .. } => {
            // Pipeline the whole burst. On the binary dialect responses may
            // complete out of order; the client pairs them by request id, so
            // the report stays a pure function of the trace.
            let requests: Vec<Request> = batch.iter().map(wire).collect();
            client.pipeline(&requests)
        }
    }
}

/// Folds a successful (or error-frame) response into an [`Outcome`].
fn outcome_of(req: &TraceRequest, response: &Response, protocol: Protocol) -> Outcome {
    let response_bytes = match protocol {
        Protocol::Json => serde_json::to_string(response).map(|s| s.len() as u64 + 1).unwrap_or(0),
        // Frame length is independent of the request id, so re-encoding
        // under id 0 reproduces the exact wire size.
        Protocol::Binary => qufem_serve::wire::encode_response(response, 0).len() as u64,
    };
    Outcome {
        tenant: req.tenant,
        ok: response.ok,
        error: response.error.clone(),
        device: response.device.clone(),
        version: response.version,
        dist_digest: response.dist.as_ref().map(digest_prob_dist).unwrap_or(0),
        response_bytes,
    }
}

/// The characterization config for device `idx` of the scenario.
fn spec_config(scenario: &Scenario, idx: usize) -> Result<QuFemConfig> {
    let spec = &scenario.devices[idx];
    QuFemConfig::builder()
        .characterization_threshold(spec.threshold)
        .shots(spec.cal_shots)
        .seed(spec.seed)
        .build()
        .map_err(|e| Error::new(format!("device {:?} config: {e}", spec.id)))
}

fn characterize(config: QuFemConfig, device: &qufem_device::Device) -> Result<QuFem> {
    QuFem::characterize(device, config).map_err(|e| Error::new(format!("characterize: {e}")))
}

/// Builds the final [`Report`] from the collected run state.
fn assemble_report(
    scenario: &Scenario,
    trace: &Trace,
    clients: &[ClientResult],
    events: Vec<EventReport>,
    devices: &[qufem_serve::DeviceStatusInfo],
    swaps: u64,
) -> Report {
    let mut tenant_digests: Vec<Digest64> =
        scenario.tenants.iter().map(|_| Digest64::new()).collect();
    let mut tenant_errors = vec![0u64; scenario.tenants.len()];
    let mut response_fold = Digest64::new();
    let mut sizes = Vec::new();
    let mut requests = 0u64;
    let mut errors = 0u64;
    for (c, result) in clients.iter().enumerate() {
        response_fold.write_u64(c as u64);
        for outcome in &result.outcomes {
            requests += 1;
            if !outcome.ok {
                errors += 1;
                tenant_errors[outcome.tenant] += 1;
            }
            response_fold.write(&[u8::from(outcome.ok)]);
            if let Some(device) = &outcome.device {
                response_fold.write_str(device);
            }
            response_fold.write_u64(outcome.version.unwrap_or(0));
            response_fold.write_u64(outcome.dist_digest);
            let t = &mut tenant_digests[outcome.tenant];
            t.write_u64(outcome.dist_digest);
            if outcome.response_bytes > 0 {
                sizes.push(outcome.response_bytes);
            }
        }
    }
    let tenants = scenario
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TenantReport {
            name: t.name.clone(),
            requests: trace.per_tenant[i],
            errors: tenant_errors[i],
            response_digest: tenant_digests[i].hex(),
        })
        .collect();
    // Per-device request counts come from the trace, not the server's
    // counter: the server increments it after writing the response, so a
    // status probe can observe the last exchange as not-yet-counted.
    let mut routed: HashMap<&str, u64> = HashMap::new();
    for (tenant, &n) in scenario.tenants.iter().zip(&trace.per_tenant) {
        *routed.entry(scenario.devices[tenant.device].id.as_str()).or_insert(0) += n;
    }
    let devices = devices
        .iter()
        .map(|d| DeviceReport {
            id: d.device.clone(),
            head_version: d.head_version,
            versions: d.versions.clone(),
            requests: routed.get(d.device.as_str()).copied().unwrap_or(0),
        })
        .collect();
    Report {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        rounds: scenario.rounds,
        clients: scenario.clients,
        arrival: scenario.arrival.as_str().to_string(),
        protocol: scenario.protocol.as_str().to_string(),
        prewarm: scenario.prewarm,
        scenario_digest: scenario.source_digest.clone(),
        trace_digest: trace.digest.clone(),
        response_digest: response_fold.hex(),
        requests,
        errors,
        swaps,
        version_echoes_monotone: clients.iter().all(|c| c.monotone),
        tenants,
        devices,
        events,
        cache_model: model_cache(scenario, trace),
        response_bytes: BytePercentiles::from_samples(sizes),
    }
}

/// Deterministic sequential replay of the trace through modeled per-version
/// LRU plan caches (capacity = the scenario's `plan_cache`). The prewarmed
/// default plan is pre-seeded without counting, mirroring the server's
/// startup build happening off the request path.
fn model_cache(scenario: &Scenario, trace: &Trace) -> CacheModel {
    type Key = (String, Vec<usize>);
    let mut caches: HashMap<(usize, u64), Vec<Key>> = HashMap::new();
    let capacity = scenario.server.plan_cache.max(1);
    if scenario.prewarm {
        let full: Vec<usize> = (0..scenario.device_width(0)).collect();
        caches.insert((0, 0), vec![("qufem".to_string(), full)]);
    }
    // Head version per device, advanced by admit events at round boundaries.
    let mut head = vec![0u64; scenario.devices.len()];
    let per_round = scenario.per_client_per_round();
    let mut hits = 0u64;
    let mut misses = 0u64;
    for round in 1..=scenario.rounds {
        for event in &scenario.events {
            if event.round == round {
                if let EventKind::AdmitDrift { device, .. } = &event.kind {
                    head[*device] += 1;
                }
            }
        }
        for client in &trace.per_client {
            for req in &client[(round - 1) * per_round..round * per_round] {
                let spec = &scenario.tenants[req.tenant];
                let entry = caches.entry((spec.device, head[spec.device])).or_default();
                let key: Key = (spec.method.clone(), req.measured.clone());
                if let Some(pos) = entry.iter().position(|k| *k == key) {
                    hits += 1;
                    let key = entry.remove(pos);
                    entry.push(key);
                } else {
                    misses += 1;
                    entry.push(key);
                    if entry.len() > capacity {
                        entry.remove(0);
                    }
                }
            }
        }
    }
    CacheModel { capacity, hits, misses }
}

/// Prints up to 5 distinct error-frame messages to stderr for debugging;
/// the report only carries counts (messages could embed nondeterministic
/// socket detail).
fn print_error_frames(clients: &[ClientResult]) {
    let mut seen: Vec<&str> = Vec::new();
    for error in clients.iter().flat_map(|c| &c.outcomes).filter_map(|o| o.error.as_deref()) {
        if !seen.contains(&error) && seen.len() < 5 {
            eprintln!("loadgen: error frame: {error}");
            seen.push(error);
        }
    }
}
