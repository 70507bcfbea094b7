//! Pins the persistent shard pool's two contracts:
//!
//! 1. **Invisibility** — calibrating through the pool (`apply_arena` at
//!    any thread count, and the `ProbDist` `apply` at the configured one)
//!    is bit-identical to the pre-refactor `engine::reference`
//!    implementation chained over the prepared iterations, at thread
//!    counts that don't divide the support, exceed it, and degenerate to
//!    one. Merged `EngineStats` must match field-for-field. Small 7-qubit
//!    inputs stay below the pool floor and cover the inline path; 10-qubit
//!    inputs of 600 strings really dispatch to the pool.
//! 2. **Survival** — a panic inside a pool worker surfaces to the caller
//!    exactly like the sequential path's panic would, and the long-lived
//!    workers keep serving jobs afterwards: the next valid pooled call
//!    still bit-matches the sequential result.

use qufem_core::arena::POOL_FLOOR;
use qufem_core::engine::{self, reference, EngineStats, IterationPlan};
use qufem_core::{build_group_matrices_with, ExecArena, PreparedMitigator, QuFem, QuFemConfig};
use qufem_types::{BitString, ProbDist, QubitSet, SupportIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn fast_config() -> QuFemConfig {
    QuFemConfig::builder().characterization_threshold(5e-4).shots(500).seed(9).build().unwrap()
}

/// Random quasi-distribution: positive bulk, sub-β dust, and exact zeros,
/// so pruning, passthrough, and accumulation paths all fire.
fn random_dist(n: usize, support: usize, rng: &mut ChaCha8Rng) -> ProbDist {
    let mut dist = ProbDist::new(n);
    for _ in 0..support {
        let key = BitString::from_index(rng.gen_range(0..(1usize << n)), n).unwrap();
        let roll: f64 = rng.gen_range(0.0..1.0);
        let value = if roll < 0.1 {
            0.0
        } else if roll < 0.25 {
            rng.gen_range(1e-9..1e-6)
        } else {
            rng.gen_range(0.0..1.0)
        };
        dist.set(key, value);
    }
    dist
}

fn assert_dist_bits_equal(a: &ProbDist, b: &ProbDist, context: &str) {
    assert_eq!(a.support_len(), b.support_len(), "support diverges: {context}");
    for (k, v) in a.iter() {
        assert_eq!(b.prob(&k).to_bits(), v.to_bits(), "entry {k} diverges: {context}");
    }
}

#[test]
fn pooled_apply_matches_sequential_and_reference_chain() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5A4D);
    let inputs: Vec<ProbDist> =
        (0..4).map(|_| random_dist(7, rng.gen_range(6usize..=48), &mut rng)).collect();
    assert_apply_matches_reference_chain(qufem_device::presets::ibmq_7(3), &inputs);
}

#[test]
fn pooled_apply_above_the_floor_matches_reference_chain() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5A4E);
    let inputs: Vec<ProbDist> = (0..2).map(|_| random_dist(10, 900, &mut rng)).collect();
    for input in &inputs {
        assert!(input.support_len() >= 2 * POOL_FLOOR, "{} strings", input.support_len());
    }
    assert_apply_matches_reference_chain(qufem_device::presets::scale_grid(10, 3), &inputs);
}

/// Characterizes `device`, prepares its full register, and pins every apply
/// entry point at several thread counts to the reference chain on each
/// input. Inputs above the pool floor must dispatch to the pool.
fn assert_apply_matches_reference_chain(device: qufem_device::Device, inputs: &[ProbDist]) {
    let qufem = QuFem::characterize(&device, fast_config()).unwrap();
    let n = device.n_qubits();
    let measured = QubitSet::full(n);
    let prepared = qufem.prepare(&measured).unwrap();
    let positions: Vec<usize> = measured.iter().collect();
    let beta = qufem.config().beta;

    for (round, noisy) in inputs.iter().enumerate() {
        // Pre-refactor ground truth: fold the reference engine over the
        // per-iteration group matrices the prepared plans were built from.
        let mut ref_stats = EngineStats::default();
        let mut ref_out = noisy.clone();
        for params in qufem.iterations() {
            let gms = build_group_matrices_with(
                params.snapshot(),
                params.grouping(),
                &measured,
                qufem.config().joint_group_estimation,
            )
            .unwrap();
            ref_out = reference::apply_iteration(&ref_out, &positions, &gms, beta, &mut ref_stats);
        }

        let mut stats = EngineStats::default();
        let boxed = prepared.apply_with_stats(noisy, &mut stats).unwrap();
        assert_eq!(stats, ref_stats, "round {round}: apply stats diverge from reference");
        assert_dist_bits_equal(&boxed, &ref_out, &format!("round {round}: apply vs reference"));
        assert_dist_bits_equal(&prepared.apply(noisy).unwrap(), &ref_out, "apply");

        let input = SupportIndex::from_dist(noisy);
        let pooled = input.len() >= 2 * POOL_FLOOR;
        let mut arena = prepared.new_arena();
        for threads in [1usize, 2, 7, 16] {
            let context = format!("{n} qubits, round {round}, {threads} threads");
            let mut stats = EngineStats::default();
            let out = prepared.apply_arena(&input, threads, &mut stats, &mut arena).unwrap();
            let out = out.to_dist();
            if pooled && threads > 1 {
                assert!(arena.last_shards() > 1, "pool not dispatched: {context}");
            }
            assert_eq!(stats, ref_stats, "apply_arena stats diverge: {context}");
            assert_dist_bits_equal(&out, &ref_out, &format!("apply_arena: {context}"));
        }
    }
}

/// Builds a plan whose keys span two 64-bit words (70 qubits) — feeding it
/// a one-word input makes every worker index past the key slice and panic.
fn mismatched_plan() -> IterationPlan {
    let n = 70usize;
    let snap = qufem_core::BenchmarkSnapshot::new(n);
    let grouping: Vec<QubitSet> =
        (0..n / 2).map(|g| [2 * g, 2 * g + 1].into_iter().collect()).collect();
    let gms = build_group_matrices_with(&snap, &grouping, &QubitSet::full(n), false).unwrap();
    let positions: Vec<usize> = (0..n).collect();
    IterationPlan::build(&positions, &gms, 1e-5)
}

#[test]
fn worker_panic_surfaces_and_pool_survives() {
    let bad_chain = [Arc::new(mismatched_plan())];
    // Width-10 keys: one word per key, while the plan extracts from two.
    // Enough strings that the walk runs on the pool, not inline.
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let narrow = random_dist(10, 900, &mut rng);
    let narrow_index = SupportIndex::from_dist(&narrow);
    assert!(narrow_index.len() >= 2 * POOL_FLOOR);

    // The sequential executor panics on the width mismatch...
    let seq_panic = catch_unwind(AssertUnwindSafe(|| {
        let mut stats = EngineStats::default();
        engine::execute(&bad_chain[0], &narrow_index, &mut stats)
    }));
    assert!(seq_panic.is_err(), "sequential path must reject the width mismatch");

    // ...and the pooled executor surfaces the worker's panic the same way
    // instead of hanging or poisoning the pool (or the arena).
    let mut arena = ExecArena::with_shards(4);
    for _ in 0..3 {
        let pooled_panic = catch_unwind(AssertUnwindSafe(|| {
            arena.run_chain(&bad_chain, &narrow_index, 4);
        }));
        assert!(pooled_panic.is_err(), "pooled path must surface the worker panic");
        assert!(arena.last_shards() > 1, "the panicking walk ran on the pool");
    }

    // The persistent workers are still alive: a valid pooled execution on
    // the same process-wide pool (and the same arena) remains bit-identical
    // to sequential.
    let n = 10usize;
    let snap = qufem_core::BenchmarkSnapshot::new(n);
    let grouping: Vec<QubitSet> =
        (0..n / 2).map(|g| [2 * g, 2 * g + 1].into_iter().collect()).collect();
    let gms = build_group_matrices_with(&snap, &grouping, &QubitSet::full(n), false).unwrap();
    let positions: Vec<usize> = (0..n).collect();
    let good_chain = [Arc::new(IterationPlan::build(&positions, &gms, 1e-5))];
    let dist = random_dist(n, 900, &mut rng);
    let input = SupportIndex::from_dist(&dist);

    let mut s_seq = EngineStats::default();
    let seq = engine::execute(&good_chain[0], &input, &mut s_seq);
    for threads in [2usize, 4, 16] {
        arena.run_chain(&good_chain, &input, threads);
        assert!(arena.last_shards() > 1, "pool not dispatched at {threads} threads");
        let par = arena.out();
        assert_eq!(
            arena.local_stats(),
            &s_seq,
            "stats diverge after worker panic at {threads} threads"
        );
        assert_eq!(par.len(), seq.len(), "support diverges after worker panic");
        for id in 0..seq.len() as u32 {
            assert_eq!(par.key_words(id), seq.key_words(id));
            assert_eq!(par.value(id).to_bits(), seq.value(id).to_bits());
        }
    }
}
