//! `serve-churn-27q`: the same device behind the server, loaded by one
//! lockstep NDJSON connection with calibrates over 8–12-qubit subsets
//! drawn from a pool three times the plan-cache capacity, QuFEM and the M3
//! baseline mixed, and an admit of a drifted re-characterization between
//! phases. It loads the JSON codec, plan-cache misses that run `prepare`,
//! a baseline method and catalog writes — layers `serve-binary-27q` skips.
//!
//! Phases make every count exact: in each phase the connection sends the 8
//! keys of a fresh 8-key window (with several connections each would own
//! its own keys, so no two builds race), a barrier separates phases (so
//! least-recently used eviction sees the same order every run), and the
//! admit happens only at that barrier (so every request's version is known
//! in advance).
//!
//! One connection, not two: two lockstep connections put two clients, two
//! server workers and the event loop on two vCPUs at once, so their
//! latency read the scheduler and the other tenants of the machine more
//! than the serve path (latency_p50_ms spread by 15–25% of its median over
//! ten seeds).

use crate::inputs::{self, ChurnKey, CHURN_INPUTS_PER_KEY, CHURN_WINDOW};
use crate::report::Outcome;
use crate::serve::{self, Clients, ConnResult, Expected, JsonConn, PLAN_CACHE_CAPACITY};
use crate::setup::{self, Characterized, SetupTiming};
use crate::stats::{median, process_cpu_s, rss_mb, windowed_percentile, Windows};
use crate::trace::{self, Recorder};
use crate::{tracing_overhead, Opts};
use qufem_core::digest::{digest_hex, digest_prob_dist, Digest64};
use qufem_core::{EngineStats, MethodOptions, PreparedCalibration, QuFem, QuFemData};
use qufem_metrics::relative_fidelity;
use qufem_serve::{Client, Request, Response, Server};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

/// Client connections, one thread each.
pub const CONNECTIONS: usize = 1;
/// Phases per measured pass.
pub const PHASES: usize = 24;
/// The admit goes out after this phase (0-based), half way.
pub const ADMIT_AFTER: usize = PHASES / 2 - 1;
/// Keys each connection owns in one phase; the connections together fill
/// exactly one plan cache.
pub const KEYS_PER_CONN: usize = CHURN_WINDOW / CONNECTIONS;
const _: () = assert!(CHURN_WINDOW == PLAN_CACHE_CAPACITY, "a phase's keys fill the plan cache");
/// Requests per connection per budget second: about what one connection
/// completes on a 2-vCPU x86-64 VM.
const REQUESTS_PER_CONN_SECOND: f64 = 350.0;

/// The version a request of `phase` in measured pass `pass` resolves to:
/// each pass admits one version.
fn version_at(pass: usize, phase: usize) -> u64 {
    (pass + usize::from(phase > ADMIT_AFTER)) as u64
}

/// Which characterized instance serves `version`: 0 is the main fixture,
/// 1 the drifted fixture, which every pass admits again.
fn instance_of(version: u64) -> usize {
    usize::from(version > 0)
}

/// Keys connection `conn` sends in `phase`.
fn phase_keys(phase: usize, conn: usize) -> std::ops::Range<usize> {
    let windows = inputs::CHURN_KEYS / CHURN_WINDOW;
    let first = (phase % windows) * CHURN_WINDOW + conn * KEYS_PER_CONN;
    first..first + KEYS_PER_CONN
}

fn check(resp: &Response, want: &Expected, version: u64) -> Result<(), String> {
    if !resp.ok {
        return Err(format!("refused: {:?}", resp.error));
    }
    if resp.version != Some(version) {
        return Err(format!("served by version {:?}, expected {version}", resp.version));
    }
    let dist = resp.dist.as_ref().ok_or("no distribution")?;
    if digest_prob_dist(dist) != want.digest {
        return Err("served output differs from in-process prepare + apply".into());
    }
    if resp.stats != want.stats {
        return Err("served engine counts differ from in-process".into());
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    conn_index: usize,
    pass: usize,
    requests: &[Vec<Request>],
    expected: &[Vec<Vec<Expected>>],
    per_phase: usize,
    mut rec: Recorder,
    barrier: &Barrier,
) -> ConnResult {
    let mut conn = JsonConn::connect(addr);
    let mut latencies_us = Vec::with_capacity(per_phase * PHASES);
    let (mut failed, mut mismatches) = (0u64, Vec::new());
    let (mut request_bytes, mut response_bytes) = (0u64, 0u64);
    let mut id = 0u64;
    barrier.wait();
    for phase in 0..PHASES {
        let version = version_at(pass, phase);
        let keys: Vec<usize> = phase_keys(phase, conn_index).collect();
        for j in 0..per_phase {
            let key = keys[j % KEYS_PER_CONN];
            let input = (j / KEYS_PER_CONN) % CHURN_INPUTS_PER_KEY;
            id += 1;
            let t0 = rec.now_ns();
            let mut line = serde_json::to_string(&requests[key][input]).expect("encode request");
            line.push('\n');
            let t1 = if rec.enabled() { rec.now_ns() } else { 0 };
            let reply = conn.exchange(line.as_bytes());
            let t2 = if rec.enabled() { rec.now_ns() } else { 0 };
            request_bytes += line.len() as u64;
            response_bytes += reply.len() as u64 + 1;
            let decoded = serde_json::from_str::<Response>(reply);
            let t3 = rec.now_ns();
            latencies_us.push((t3 - t0) as f64 / 1e3);
            if let Some(parent) = rec.record("calibrate", t0, t3, None, id) {
                rec.record("json.encode", t0, t1, Some(parent), id);
                rec.record("exchange", t1, t2, Some(parent), id);
                rec.record("json.decode", t2, t3, Some(parent), id);
            }
            let want = &expected[instance_of(version)][key][input];
            let verdict = decoded.map_err(|e| format!("undecodable response: {e}"));
            if let Err(e) = verdict.and_then(|resp| check(&resp, want, version)) {
                failed += 1;
                if mismatches.len() < 4 {
                    mismatches.push(format!("phase {phase} key {key} input {input}: {e}"));
                }
            }
        }
        // Phase end, then wait while an admit (if due) goes out.
        barrier.wait();
        barrier.wait();
    }
    ConnResult { latencies_us, failed, mismatches, request_bytes, response_bytes, rec }
}

struct Pass {
    clients: Clients,
    /// One window per phase, the admit excluded.
    windows: Windows,
    /// The admit's exchange time.
    admit_ms: f64,
    rss_growth_mb: f64,
}

#[allow(clippy::too_many_arguments)]
fn measured_pass(
    addr: SocketAddr,
    pass_index: usize,
    requests: &[Vec<Request>],
    expected: &[Vec<Vec<Expected>>],
    admit: &Request,
    per_phase: usize,
    traced: bool,
    outcome: &mut Outcome,
) -> Pass {
    let epoch = Instant::now();
    let barrier = Barrier::new(CONNECTIONS + 1);
    let mut control = Client::connect(addr).expect("control connection");
    let rss0 = rss_mb();
    let mut admit_ms = 0.0;
    let mut windows = Windows::default();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let rec = Recorder::new(epoch, traced, c as u32 + 1);
                let barrier = &barrier;
                s.spawn(move || {
                    drive(addr, c, pass_index, requests, expected, per_phase, rec, barrier)
                })
            })
            .collect();
        barrier.wait();
        for phase in 0..PHASES {
            let (cpu0, wall0) = (process_cpu_s(), Instant::now());
            barrier.wait();
            windows.push(
                wall0.elapsed().as_secs_f64(),
                process_cpu_s() - cpu0,
                CONNECTIONS * per_phase,
            );
            if phase == ADMIT_AFTER {
                let t = Instant::now();
                let resp = control.request(admit).expect("admit exchange");
                admit_ms = t.elapsed().as_secs_f64() * 1e3;
                let want = version_at(pass_index, phase + 1);
                if !resp.ok || resp.version != Some(want) {
                    outcome.mismatch(format!(
                        "admit after phase {phase}: got version {:?} ({:?}), expected {want}",
                        resp.version, resp.error
                    ));
                }
            }
            barrier.wait();
        }
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect::<Vec<_>>()
    });
    let rss_growth_mb = rss_mb() - rss0;
    Pass { clients: Clients::merge(results, outcome), windows, admit_ms, rss_growth_mb }
}

/// The main fixture and the drifted fixture with its admit payload.
struct Fixtures {
    main: Characterized,
    drifted: (Characterized, QuFemData),
}

/// Set-up: characterize the main fixture and the drifted fixture, start the
/// server, wait for its prewarm.
fn set_up() -> ((Fixtures, Server), SetupTiming) {
    let start = Instant::now();
    let device = inputs::device();
    let main = setup::characterize_main();
    let drifted = setup::characterize(&device.drifted(1), &setup::fixture_config());
    let data = drifted.qufem.export();
    let server = serve::start(main.qufem.clone());
    let timing = SetupTiming {
        total_s: start.elapsed().as_secs_f64(),
        benchgen_s: main.benchgen_s,
        characterize_s: main.characterize_s,
        prepare_ms: 0.0,
    };
    ((Fixtures { main, drifted: (drifted, data) }, server), timing)
}

/// One set-up, for a set-up probe process.
pub fn setup_probe() -> SetupTiming {
    let ((_, server), timing) = set_up();
    server.shutdown_and_join();
    timing
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut outcome = Outcome::default();
    let device = inputs::device();
    let ((fixtures, server), timings) = setup::repeated("serve-churn-27q", set_up);
    setup::report(&mut outcome, &timings);
    let addr = server.local_addr();

    let keys: Vec<ChurnKey> = inputs::serve_churn(&device, opts.seed);
    outcome.exact(
        "request_digest",
        digest_hex(inputs::request_digest(keys.iter().flat_map(|k| &k.inputs))),
    );

    // In-process reference for every (instance, key, input) the passes can
    // request: QuFEM through prepare + the arena entry, M3 through the same
    // registry build the server uses.
    let instances: [&QuFem; 2] = [&fixtures.main.qufem, &fixtures.drifted.0.qufem];
    let registry = qufem_baselines::standard_registry(setup::harness_config());
    let (mut prepare_ms, mut m3_apply_ms, mut matrices) = (vec![], vec![], vec![]);
    let mut total = EngineStats::default();
    let mut qufem_calls = 0usize;
    let mut qufem_cases: Vec<(PreparedCalibration, usize)> = Vec::new();
    let mut run_digest = Digest64::new();
    let mut expected: Vec<Vec<Vec<Expected>>> = Vec::new();
    for qufem in &instances {
        let snapshot = qufem.iterations()[0].snapshot();
        let m3 = registry.build("m3", snapshot, &MethodOptions::new()).expect("m3 build");
        let mut per_key = Vec::new();
        for (ki, key) in keys.iter().enumerate() {
            let mut per_input = Vec::new();
            if key.method == "qufem" {
                let t = Instant::now();
                let prepared = qufem.prepare(&key.measured).expect("subset prepare");
                prepare_ms.push(t.elapsed().as_secs_f64() * 1e3);
                matrices.push(prepared.n_matrices() as f64);
                let mut arena = prepared.new_arena();
                for input in &key.inputs {
                    let (out, stats) = serve::reference_qufem(&prepared, &mut arena, input);
                    total.merge(&stats);
                    qufem_calls += 1;
                    per_input.push(expected_of(input, &out, Some(stats)));
                }
                qufem_cases.push((prepared, ki));
            } else {
                let prepared = m3.prepare(&key.measured).expect("m3 prepare");
                for input in &key.inputs {
                    let t = Instant::now();
                    let out = prepared.apply(&input.noisy).expect("m3 apply");
                    m3_apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    per_input.push(expected_of(input, &out, None));
                }
            }
            for e in &per_input {
                run_digest.write_u64(e.digest);
            }
            per_key.push(per_input);
        }
        expected.push(per_key);
    }
    outcome.exact("output_digest", run_digest.hex());
    let fidelities: Vec<f64> = expected.iter().flatten().flatten().map(|e| e.fidelity).collect();

    let requests: Vec<Vec<Request>> = keys
        .iter()
        .map(|k| {
            k.inputs
                .iter()
                .map(|i| {
                    Request::calibrate(i.noisy.clone(), Some(k.measured.as_slice().to_vec()))
                        .with_method(k.method)
                })
                .collect()
        })
        .collect();
    let admit = Request::admit(fixtures.drifted.1.clone());

    let combos = KEYS_PER_CONN * CHURN_INPUTS_PER_KEY;
    let per_phase_target = opts.seconds as f64 * REQUESTS_PER_CONN_SECOND / PHASES as f64;
    let per_phase = (per_phase_target / combos as f64).ceil() as usize * combos;

    let m0 = serve::metrics(addr);
    let pass = measured_pass(addr, 0, &requests, &expected, &admit, per_phase, false, &mut outcome);
    let m1 = serve::metrics(addr);
    let versions = |addr| {
        let status = serve::control(addr, &Request::status()).status.expect("status payload");
        status.devices.iter().map(|d| d.versions.len()).sum::<usize>()
    };
    outcome.exact("plan_cache.hits", m1.plan_cache_hits - m0.plan_cache_hits);
    outcome.exact("plan_cache.misses", m1.plan_cache_misses - m0.plan_cache_misses);
    outcome.exact("catalog.versions", versions(addr));
    outcome.exact("json.request_bytes", pass.clients.request_bytes);
    outcome.exact("json.response_bytes", pass.clients.response_bytes);
    outcome.exact("benchgen.circuits", fixtures.main.circuits);
    outcome.exact("engine.products", total.products);
    outcome.exact("engine.pruned", total.pruned);

    let ops = pass.clients.latencies_us.len() as f64;
    let e2e = &mut outcome.end_to_end;
    e2e.insert("throughput_per_s", pass.windows.throughput());
    let phases = pass.clients.per_window(CONNECTIONS, PHASES, per_phase);
    e2e.insert("latency_p50_ms", windowed_percentile(&phases, 0.5).expect("p50") / 1e3);
    e2e.insert("latency_p90_ms", windowed_percentile(&phases, 0.9).expect("p90") / 1e3);
    e2e.insert("rel_fidelity", fidelities.iter().sum::<f64>() / fidelities.len() as f64);
    e2e.insert("cpu_ms_per_op", pass.windows.cpu_ms_per_op());
    outcome.notes.push(pass.windows.summary());
    outcome.notes.push(format!(
        "{ops} calibrates over {CONNECTIONS} NDJSON connections in {PHASES} phases of \
         {per_phase} per connection; admit exchange {:.1} ms",
        pass.admit_ms
    ));

    if opts.trace {
        let before = serve::metrics(addr);
        let traced =
            measured_pass(addr, 1, &requests, &expected, &admit, per_phase, true, &mut outcome);
        let after = serve::metrics(addr);
        let records = serve::trace_records(addr);
        tracing_overhead(&mut outcome, pass.windows.throughput(), traced.windows.throughput());
        serve::plan_cache_layers(&mut outcome, &before, &after);
        serve::stage_breakdown(&mut outcome, "json", &traced.clients.spans, &records);
        let cases: Vec<(&PreparedCalibration, &qufem_types::ProbDist)> = qufem_cases
            .iter()
            .flat_map(|(p, ki)| keys[*ki].inputs.iter().map(move |i| (p, &i.noisy)))
            .collect();
        serve::engine_microbench(&mut outcome, &cases, 2);
        let n = traced.clients.latencies_us.len() as f64;
        let catalog_versions = versions(addr) as f64;
        let l = &mut outcome.layers;
        setup::insert_layers(l, &timings, &fixtures.main);
        l.insert("prepare.ms", median(&prepare_ms));
        l.insert("prepare.matrices", matrices.iter().sum::<f64>() / matrices.len() as f64);
        l.insert("json.request_bytes", traced.clients.request_bytes as f64 / n);
        l.insert("json.response_bytes", traced.clients.response_bytes as f64 / n);
        l.insert("catalog.admit_ms", traced.admit_ms);
        l.insert("catalog.versions", catalog_versions);
        l.insert("rss_growth_mb", traced.rss_growth_mb);
        l.insert("m3.apply_ms", median(&m3_apply_ms));
        serve::insert_engine_layers(l, &total, qufem_calls as f64);
        let path = opts.out_dir.join(format!("spans-serve-churn-27q-seed{}.json", opts.seed));
        trace::write_chrome(&path, &traced.clients.spans).expect("write span file");
        outcome.notes.push(format!(
            "{} spans written to {}",
            traced.clients.spans.len(),
            path.display()
        ));
    }
    server.shutdown_and_join();
    outcome
}

fn expected_of(
    input: &inputs::Input,
    out: &qufem_types::ProbDist,
    stats: Option<EngineStats>,
) -> Expected {
    Expected {
        digest: digest_prob_dist(out),
        stats,
        fidelity: relative_fidelity(&input.ideal, &input.noisy, &out.project_to_probabilities()),
    }
}
