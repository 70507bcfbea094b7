//! `serve-binary-27q`: the 27-qubit device behind the server with two
//! workers, loaded closed-loop by two pipelined binary connections. Every
//! request is a 7-qubit algorithm output over one of a few measured subsets
//! the plan cache holds, so engine work is small and the wire codec, event
//! loop and worker dispatch dominate.

use crate::inputs::{self, Input};
use crate::report::Outcome;
use crate::serve::{self, BinaryConn, Clients, ConnResult, Expected};
use crate::setup::{Characterized, SetupTiming};
use crate::stats::{median, process_cpu_s, windowed_percentile, Windows};
use crate::trace::{self, Recorder};
use crate::{setup, tracing_overhead, Opts};
use qufem_core::digest::{digest_hex, digest_prob_dist, Digest64};
use qufem_core::{EngineStats, PreparedCalibration};
use qufem_metrics::relative_fidelity;
use qufem_serve::{wire, Request, Server};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

/// Client connections, one thread each (= vCPUs of the reference VM).
pub const CONNECTIONS: usize = 2;
/// Requests in flight per connection.
pub const PIPELINE_DEPTH: usize = 4;
/// Segments per measured pass; each connection drains its pipeline at a
/// barrier between segments, and each segment is one [`Windows`] window.
pub const SEGMENTS: usize = 10;
/// Requests per connection per budget second: about what one connection
/// completes on a 2-vCPU x86-64 VM, so a run measures roughly `--seconds`.
const REQUESTS_PER_CONN_SECOND: f64 = 2000.0;

fn check(resp: &qufem_serve::Response, want: &Expected) -> Result<(), String> {
    if !resp.ok {
        return Err(format!("refused: {:?}", resp.error));
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

/// A request in flight: `(id, input index, encode start, encode end)`.
type Slot = Option<(u64, usize, u64, u64)>;

/// Encodes and writes request number `sent` into a free pipeline slot.
fn issue(
    conn: &mut BinaryConn,
    rec: &Recorder,
    requests: &[Request],
    order: &[usize],
    sent: usize,
    slots: &mut [Slot],
) -> u64 {
    let k = order[sent % order.len()];
    let id = sent as u64 + 1;
    let t0 = rec.now_ns();
    let frame = wire::encode_request(&requests[k], id);
    let t1 = if rec.enabled() { rec.now_ns() } else { 0 };
    conn.write(&frame);
    let free = slots.iter().position(Option::is_none).expect("a free pipeline slot");
    slots[free] = Some((id, k, t0, t1));
    frame.len() as u64
}

/// One closed-loop connection: keeps `depth` requests in flight and sends
/// the next only when a response arrives; `segments` times `per_segment`
/// requests, with the pipeline drained and a barrier wait after each
/// segment (and one before the first).
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    requests: &[Request],
    expected: &[Expected],
    order: &[usize],
    segments: usize,
    per_segment: usize,
    depth: usize,
    mut rec: Recorder,
    barrier: &Barrier,
) -> ConnResult {
    let mut conn = BinaryConn::connect(addr);
    let mut slots: Vec<Slot> = vec![None; depth];
    let mut latencies_us = Vec::with_capacity(segments * per_segment);
    let (mut failed, mut mismatches) = (0u64, Vec::new());
    let (mut request_bytes, mut response_bytes) = (0u64, 0u64);
    let mut sent = 0usize;
    barrier.wait();
    for segment in 1..=segments {
        let n = segment * per_segment;
        while sent < (n - per_segment + depth).min(n) {
            request_bytes += issue(&mut conn, &rec, requests, order, sent, &mut slots);
            sent += 1;
        }
        for _ in 0..per_segment {
            let frame = conn.read_frame();
            let t_read = rec.now_ns();
            let decoded = wire::decode_response(&frame);
            let t_end = rec.now_ns();
            response_bytes += (wire::HEADER_LEN + frame.payload.len()) as u64;
            let slot = slots
                .iter()
                .position(|s| s.is_some_and(|(id, ..)| id == frame.id))
                .expect("response id matches a request in flight");
            let (id, k, t0, t1) = slots[slot].take().expect("occupied slot");
            latencies_us.push((t_end - t0) as f64 / 1e3);
            if let Some(parent) = rec.record("calibrate", t0, t_end, None, id) {
                rec.record("wire.encode", t0, t1, Some(parent), id);
                rec.record("exchange", t1, t_read, Some(parent), id);
                rec.record("wire.decode", t_read, t_end, Some(parent), id);
            }
            if sent < n {
                request_bytes += issue(&mut conn, &rec, requests, order, sent, &mut slots);
                sent += 1;
            }
            // Verify while the next request is in flight.
            let verdict = decoded.map_err(|e| format!("undecodable response: {e}"));
            if let Err(e) = verdict.and_then(|resp| check(&resp, &expected[k])) {
                failed += 1;
                if mismatches.len() < 4 {
                    mismatches.push(format!("request {id} (input {k}): {e}"));
                }
            }
        }
        barrier.wait();
    }
    ConnResult { latencies_us, failed, mismatches, request_bytes, response_bytes, rec }
}

struct Pass {
    clients: Clients,
    windows: Windows,
}

fn measured_pass(
    addr: SocketAddr,
    requests: &[Request],
    expected: &[Expected],
    order: &[usize],
    per_segment: usize,
    traced: bool,
    outcome: &mut Outcome,
) -> Pass {
    let epoch = Instant::now();
    let barrier = Barrier::new(CONNECTIONS + 1);
    let (results, windows) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                // Each connection starts half a pool apart.
                let offset = c * order.len() / CONNECTIONS;
                let rotated: Vec<usize> =
                    (0..order.len()).map(|j| order[(j + offset) % order.len()]).collect();
                let rec = Recorder::new(epoch, traced, c as u32 + 1);
                let barrier = &barrier;
                s.spawn(move || {
                    let (segments, depth) = (SEGMENTS, PIPELINE_DEPTH);
                    drive(
                        addr,
                        requests,
                        expected,
                        &rotated,
                        segments,
                        per_segment,
                        depth,
                        rec,
                        barrier,
                    )
                })
            })
            .collect();
        let mut windows = Windows::default();
        barrier.wait();
        for _ in 0..SEGMENTS {
            let (cpu0, wall0) = (process_cpu_s(), Instant::now());
            barrier.wait();
            windows.push(
                wall0.elapsed().as_secs_f64(),
                process_cpu_s() - cpu0,
                CONNECTIONS * per_segment,
            );
        }
        let results: Vec<ConnResult> =
            handles.into_iter().map(|h| h.join().expect("connection thread")).collect();
        (results, windows)
    });
    Pass { clients: Clients::merge(results, outcome), windows }
}

/// Set-up: characterize the main fixture, start the server, wait for its
/// prewarm.
fn set_up() -> ((Characterized, Server), SetupTiming) {
    let start = Instant::now();
    let ch = setup::characterize_main();
    let server = serve::start(ch.qufem.clone());
    let timing = SetupTiming {
        total_s: start.elapsed().as_secs_f64(),
        benchgen_s: ch.benchgen_s,
        characterize_s: ch.characterize_s,
        prepare_ms: 0.0,
    };
    ((ch, server), timing)
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
    let ((ch, server), timings) = setup::repeated("serve-binary-27q", set_up);
    setup::report(&mut outcome, &timings);
    let addr = server.local_addr();

    let device = inputs::device();
    let pool: Vec<Input> = inputs::serve_binary(&device, opts.seed);
    outcome.exact("request_digest", digest_hex(inputs::request_digest(&pool)));

    // In-process reference: prepare each subset, apply each input.
    let mut prepared: Vec<(qufem_types::QubitSet, PreparedCalibration)> = Vec::new();
    let mut prepare_ms = Vec::new();
    let mut expected = Vec::new();
    let mut total = EngineStats::default();
    let mut run_digest = Digest64::new();
    for input in &pool {
        if !prepared.iter().any(|(m, _)| *m == input.measured) {
            let t = Instant::now();
            let p = ch.qufem.prepare(&input.measured).expect("subset prepare");
            prepare_ms.push(t.elapsed().as_secs_f64() * 1e3);
            prepared.push((input.measured.clone(), p));
        }
        let p = &prepared.iter().find(|(m, _)| *m == input.measured).expect("prepared").1;
        let (out, stats) = serve::reference_qufem(p, &mut p.new_arena(), input);
        total.merge(&stats);
        let digest = digest_prob_dist(&out);
        run_digest.write_u64(digest);
        let fidelity =
            relative_fidelity(&input.ideal, &input.noisy, &out.project_to_probabilities());
        expected.push(Expected { digest, stats: Some(stats), fidelity });
    }
    outcome.exact("output_digest", run_digest.hex());
    let requests: Vec<Request> = pool
        .iter()
        .map(|i| Request::calibrate(i.noisy.clone(), Some(i.measured.as_slice().to_vec())))
        .collect();

    // Warm-up (untimed): one lockstep sweep over the pool on one connection
    // fills the plan cache without racing builds, so the cache counts are
    // exact.
    let m0 = serve::metrics(addr);
    let all: Vec<usize> = (0..pool.len()).collect();
    let lone = Barrier::new(1);
    let rec = Recorder::new(Instant::now(), false, 0);
    let warm = drive(addr, &requests, &expected, &all, 1, pool.len(), 1, rec, &lone);
    outcome.attempted += warm.latencies_us.len() as u64;
    outcome.failed += warm.failed;
    outcome.mismatches.extend(warm.mismatches);
    let m1 = serve::metrics(addr);
    outcome.exact("warmup.plan_cache.misses", m1.plan_cache_misses - m0.plan_cache_misses);

    // Round-robin over the pool: every input gets exactly the same share of
    // requests in every segment.
    let order = all;
    let per_segment_target = opts.seconds as f64 * REQUESTS_PER_CONN_SECOND / SEGMENTS as f64;
    let per_segment = (per_segment_target / pool.len() as f64).ceil() as usize * pool.len();
    let pass = measured_pass(addr, &requests, &expected, &order, per_segment, false, &mut outcome);
    let m2 = serve::metrics(addr);
    outcome.exact("plan_cache.hits", m2.plan_cache_hits - m1.plan_cache_hits);
    outcome.exact("plan_cache.misses", m2.plan_cache_misses - m1.plan_cache_misses);
    outcome.exact("wire.request_bytes", pass.clients.request_bytes);
    outcome.exact("wire.response_bytes", pass.clients.response_bytes);
    outcome.exact("benchgen.circuits", ch.circuits);
    outcome.exact("engine.products", total.products);
    outcome.exact("engine.pruned", total.pruned);
    outcome.exact("engine.accumulated", total.accumulated);

    let ops = pass.clients.latencies_us.len();
    let e2e = &mut outcome.end_to_end;
    e2e.insert("throughput_per_s", pass.windows.throughput());
    let segments = pass.clients.per_window(CONNECTIONS, SEGMENTS, per_segment);
    e2e.insert("latency_p50_ms", windowed_percentile(&segments, 0.5).expect("p50") / 1e3);
    e2e.insert("latency_p90_ms", windowed_percentile(&segments, 0.9).expect("p90") / 1e3);
    e2e.insert(
        "rel_fidelity",
        expected.iter().map(|e| e.fidelity).sum::<f64>() / expected.len() as f64,
    );
    e2e.insert("cpu_ms_per_op", pass.windows.cpu_ms_per_op());
    outcome.notes.push(pass.windows.summary());
    outcome.notes.push(format!(
        "{ops} requests over {CONNECTIONS} binary connections at depth {PIPELINE_DEPTH} in \
         {SEGMENTS} segments; {} inputs over {} subsets of {} qubits",
        pool.len(),
        prepared.len(),
        inputs::BINARY_SUBSET
    ));

    if opts.trace {
        let before = serve::metrics(addr);
        let traced =
            measured_pass(addr, &requests, &expected, &order, per_segment, true, &mut outcome);
        let after = serve::metrics(addr);
        let records = serve::trace_records(addr);
        tracing_overhead(&mut outcome, pass.windows.throughput(), traced.windows.throughput());
        serve::plan_cache_layers(&mut outcome, &before, &after);
        serve::stage_breakdown(&mut outcome, "wire", &traced.clients.spans, &records);
        let cases: Vec<(&PreparedCalibration, &qufem_types::ProbDist)> = pool
            .iter()
            .map(|i| {
                let p = &prepared.iter().find(|(m, _)| *m == i.measured).expect("prepared").1;
                (p, &i.noisy)
            })
            .collect();
        serve::engine_microbench(&mut outcome, &cases, 3);
        let n = traced.clients.latencies_us.len() as f64;
        let l = &mut outcome.layers;
        setup::insert_layers(l, &timings, &ch);
        l.insert("prepare.ms", median(&prepare_ms));
        l.insert(
            "prepare.matrices",
            prepared.iter().map(|(_, p)| p.n_matrices()).sum::<usize>() as f64
                / prepared.len() as f64,
        );
        l.insert("wire.request_bytes", traced.clients.request_bytes as f64 / n);
        l.insert("wire.response_bytes", traced.clients.response_bytes as f64 / n);
        serve::insert_engine_layers(l, &total, pool.len() as f64);
        let path = opts.out_dir.join(format!("spans-serve-binary-27q-seed{}.json", opts.seed));
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
