//! `offline-27q`: one in-process caller calibrates the paper's seven
//! algorithm outputs on the full 27-qubit register, the Table 4 path. The
//! engine, its arena and β-pruning do almost all the work; no serve layer
//! runs.

use crate::inputs::{self, Input, N_QUBITS};
use crate::report::Outcome;
use crate::setup::{Characterized, SetupTiming};
use crate::stats::{median, percentile, process_cpu_s, Windows};
use crate::trace::{self, Recorder};
use crate::{setup, tracing_overhead, Opts};
use qufem_core::digest::{digest_hex, digest_prob_dist, Digest64};
use qufem_core::{configured_threads, EngineStats, ExecArena, PreparedCalibration};
use qufem_metrics::relative_fidelity;
use qufem_types::{QubitSet, SupportIndex};
use std::time::Instant;

/// Batches (of the seven inputs) per budget second. One batch takes about
/// 1.4 s on a 2-vCPU x86-64 VM.
const BATCHES_PER_SECOND: f64 = 0.75;
/// At least 15 batches (105 calibrations), so `latency_p90_ms` has ten
/// samples beyond it.
const MIN_BATCHES: usize = 15;

/// Order-sensitive fingerprint of an engine output: every key word and
/// value bit pattern, in index order. Cheap enough to check every call.
fn fingerprint(index: &SupportIndex) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ index.len() as u64;
    for (_, words, value) in index.iter() {
        for &w in words {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
        }
        h = (h ^ value.to_bits()).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    }
    h
}

/// What every measured call of one input must reproduce.
struct Golden {
    fingerprint: u64,
    digest: u64,
    stats: EngineStats,
}

struct Pass {
    latencies_ms: Vec<f64>,
    /// One window per batch: every batch is the same seven inputs.
    windows: Windows,
}

#[allow(clippy::too_many_arguments)]
fn measured_pass(
    prepared: &PreparedCalibration,
    arena: &mut ExecArena,
    inputs: &[Input],
    golden: &[Golden],
    batches: usize,
    rec: &mut Recorder,
    outcome: &mut Outcome,
) -> Pass {
    let threads = configured_threads();
    let mut latencies_ms = Vec::with_capacity(batches * inputs.len());
    let mut windows = Windows::default();
    for batch in 0..batches {
        let cpu0 = process_cpu_s();
        let wall0 = Instant::now();
        for (i, input) in inputs.iter().enumerate() {
            let request = (batch * inputs.len() + i) as u64 + 1;
            let mut stats = EngineStats::default();
            let t0 = rec.now_ns();
            let index = SupportIndex::from_dist(&input.noisy);
            let t1 = if rec.enabled() { rec.now_ns() } else { 0 };
            let applied = prepared.apply_arena(&index, threads, &mut stats, arena);
            let t2 = if rec.enabled() { rec.now_ns() } else { 0 };
            let dist = applied.map(SupportIndex::to_dist);
            let t3 = rec.now_ns();
            latencies_ms.push((t3 - t0) as f64 / 1e6);
            if let Some(parent) = rec.record("calibrate", t0, t3, None, request) {
                rec.record("convert.from_dist", t0, t1, Some(parent), request);
                rec.record("apply", t1, t2, Some(parent), request);
                rec.record("convert.to_dist", t2, t3, Some(parent), request);
            }
            outcome.attempted += 1;
            let g = &golden[i];
            match dist {
                Err(e) => outcome.mismatch(format!("{}: apply failed: {e}", input.name)),
                Ok(dist) => {
                    // Order-exact match is the cheap common case; a reordered
                    // but bit-identical output still verifies.
                    let exact = fingerprint(arena.out()) == g.fingerprint
                        || digest_prob_dist(&dist) == g.digest;
                    if !exact {
                        outcome.mismatch(format!("{}: output differs from reference", input.name));
                    } else if stats != g.stats {
                        outcome.mismatch(format!("{}: engine counts drifted", input.name));
                    }
                }
            }
        }
        windows.push(wall0.elapsed().as_secs_f64(), process_cpu_s() - cpu0, inputs.len());
    }
    Pass { latencies_ms, windows }
}

/// Set-up: characterize the main fixture and prepare the full register.
fn set_up() -> ((Characterized, PreparedCalibration), SetupTiming) {
    let start = Instant::now();
    let ch = setup::characterize_main();
    let prepare_start = Instant::now();
    let prepared = ch.qufem.prepare(&QubitSet::full(N_QUBITS)).expect("full-register prepare");
    let timing = SetupTiming {
        total_s: start.elapsed().as_secs_f64(),
        benchgen_s: ch.benchgen_s,
        characterize_s: ch.characterize_s,
        prepare_ms: prepare_start.elapsed().as_secs_f64() * 1e3,
    };
    ((ch, prepared), timing)
}

/// One set-up, for a set-up probe process.
pub fn setup_probe() -> SetupTiming {
    set_up().1
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut outcome = Outcome::default();
    let ((ch, prepared), timings) = setup::repeated("offline-27q", set_up);
    setup::report(&mut outcome, &timings);

    let device = inputs::device();
    let inputs = inputs::offline(&device, opts.seed);
    outcome.exact("request_digest", digest_hex(inputs::request_digest(&inputs)));

    // Reference: the ProbDist convenience entry point on one thread. The
    // measured path (arena entry, configured threads) must match it bit for
    // bit; fidelity is computed from it once per input.
    let mut fidelity = Vec::new();
    let mut reference = Vec::new();
    for input in &inputs {
        let out = prepared.apply(&input.noisy).expect("reference calibration");
        reference.push(digest_prob_dist(&out));
        fidelity.push(relative_fidelity(
            &input.ideal,
            &input.noisy,
            &out.project_to_probabilities(),
        ));
    }

    // Warm-up (untimed): sizes the arena and captures what every measured
    // call must reproduce.
    let threads = configured_threads();
    let mut arena = prepared.new_arena();
    let mut golden = Vec::new();
    let mut run_digest = Digest64::new();
    for (input, &reference) in inputs.iter().zip(&reference) {
        let mut stats = EngineStats::default();
        let index = SupportIndex::from_dist(&input.noisy);
        let out = prepared.apply_arena(&index, threads, &mut stats, &mut arena).expect("warm-up");
        outcome.attempted += 1;
        let digest = digest_prob_dist(&out.to_dist());
        if digest != reference {
            outcome.mismatch(format!("{}: arena path differs from the ProbDist path", input.name));
        }
        run_digest.write_u64(digest);
        golden.push(Golden { fingerprint: fingerprint(arena.out()), digest, stats });
    }
    outcome.exact("output_digest", run_digest.hex());

    let batches = MIN_BATCHES.max((opts.seconds as f64 * BATCHES_PER_SECOND).ceil() as usize);
    let epoch = Instant::now();
    let mut untraced_rec = Recorder::new(epoch, false, 0);
    let pass = measured_pass(
        &prepared,
        &mut arena,
        &inputs,
        &golden,
        batches,
        &mut untraced_rec,
        &mut outcome,
    );

    let e2e = &mut outcome.end_to_end;
    e2e.insert("throughput_per_s", pass.windows.throughput());
    e2e.insert("latency_p50_ms", percentile(&pass.latencies_ms, 0.5).expect("p50"));
    e2e.insert("latency_p90_ms", percentile(&pass.latencies_ms, 0.9).expect("p90"));
    e2e.insert("rel_fidelity", fidelity.iter().sum::<f64>() / fidelity.len() as f64);
    e2e.insert("cpu_ms_per_op", pass.windows.cpu_ms_per_op());
    outcome.notes.push(pass.windows.summary());

    // Exact engine counts per calibration, over the seven inputs.
    let mut total = EngineStats::default();
    for g in &golden {
        total.merge(&g.stats);
    }
    let n = golden.len() as f64;
    outcome.exact("benchgen.circuits", ch.circuits);
    outcome.exact("engine.products", total.products);
    outcome.exact("engine.pruned", total.pruned);
    outcome.exact("engine.accumulated", total.accumulated);
    outcome.exact("engine.passthrough", total.passthrough);
    outcome.exact("engine.peak_output_support", total.peak_output_support);
    outcome.notes.push(format!(
        "{} calibrations in {batches} batches of {} inputs; {threads} engine threads",
        pass.latencies_ms.len(),
        inputs.len()
    ));
    for (i, (input, f)) in inputs.iter().zip(&fidelity).enumerate() {
        let own: Vec<f64> =
            pass.latencies_ms.iter().skip(i).step_by(inputs.len()).copied().collect();
        outcome.notes.push(format!(
            "{:<6} {:>5} input strings, median latency {:.1} ms, relative fidelity {f:.4}",
            input.name,
            input.noisy.support_len(),
            median(&own)
        ));
    }

    if opts.trace {
        let mut rec = Recorder::new(epoch, true, 0);
        let traced =
            measured_pass(&prepared, &mut arena, &inputs, &golden, batches, &mut rec, &mut outcome);
        tracing_overhead(&mut outcome, pass.windows.throughput(), traced.windows.throughput());
        let spans = trace::merge(vec![rec]);
        let l = &mut outcome.layers;
        setup::insert_layers(l, &timings, &ch);
        l.insert("prepare.ms", setup::median_of(&timings, |t| t.prepare_ms));
        l.insert("prepare.matrices", prepared.n_matrices() as f64);
        l.insert("convert.from_dist_us", median(&trace::durations_us(&spans, "convert.from_dist")));
        l.insert("convert.to_dist_us", median(&trace::durations_us(&spans, "convert.to_dist")));
        let apply_ms: Vec<f64> =
            trace::durations_us(&spans, "apply").iter().map(|us| us / 1e3).collect();
        l.insert("apply.ms_p50", percentile(&apply_ms, 0.5).expect("apply p50"));
        l.insert("apply.ms_p90", percentile(&apply_ms, 0.9).expect("apply p90"));
        crate::serve::insert_engine_layers(l, &total, n);
        let path = opts.out_dir.join(format!("spans-offline-27q-seed{}.json", opts.seed));
        trace::write_chrome(&path, &spans).expect("write span file");
        outcome.notes.push(format!("{} spans written to {}", spans.len(), path.display()));
    }
    outcome
}
