//! Differential tests pinning the plan/execute engine to the pre-refactor
//! implementation (`engine::reference`) bit-for-bit, and the arena's sharded
//! chain walk (`ExecArena::run_chain`) to the sequential `execute`, across
//! seeded random workloads.

use qufem_core::engine::{self, reference, EngineStats};
use qufem_core::{
    build_group_matrices, BenchmarkRecord, BenchmarkSnapshot, ExecArena, GroupMatrix, IterationPlan,
};
use qufem_device::BenchmarkCircuit;
use qufem_types::{BitString, ProbDist, QubitSet, SupportIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Snapshot over all `2^n` preparations with random per-qubit flip rates
/// plus a random correlated perturbation, so the generated group matrices
/// have dense, non-trivial inverses.
fn random_snapshot(n: usize, rng: &mut ChaCha8Rng) -> BenchmarkSnapshot {
    let eps: Vec<(f64, f64)> =
        (0..n).map(|_| (rng.gen_range(0.01..0.2), rng.gen_range(0.01..0.2))).collect();
    let mut snap = BenchmarkSnapshot::new(n);
    for y in 0..(1usize << n) {
        let prep = BitString::from_index(y, n).unwrap();
        let circuit = BenchmarkCircuit::all_prepared(&prep);
        let mut dist = ProbDist::new(n);
        let mut total = 0.0;
        let mut weights = Vec::with_capacity(1usize << n);
        for x in 0..(1usize << n) {
            let out = BitString::from_index(x, n).unwrap();
            let mut p = 1.0;
            for (k, &(e0, e1)) in eps.iter().enumerate() {
                let flipped = out.get(k) != prep.get(k);
                let e = if prep.get(k) { e1 } else { e0 };
                p *= if flipped { e } else { 1.0 - e };
            }
            // Correlated wobble the product form cannot represent.
            p *= 1.0 + rng.gen_range(-0.2..0.2);
            total += p;
            weights.push((out, p));
        }
        for (out, p) in weights {
            dist.add(out, p / total);
        }
        snap.push(BenchmarkRecord::new(circuit, dist));
    }
    snap
}

/// Random partition of `0..n` into groups of size ≤ `max_group`.
fn random_grouping(n: usize, max_group: usize, rng: &mut ChaCha8Rng) -> Vec<QubitSet> {
    let mut qubits: Vec<usize> = (0..n).collect();
    for i in (1..qubits.len()).rev() {
        qubits.swap(i, rng.gen_range(0..=i));
    }
    let mut groups = Vec::new();
    let mut start = 0;
    while start < n {
        let size = rng.gen_range(1..=max_group.min(n - start));
        groups.push(qubits[start..start + size].iter().copied().collect());
        start += size;
    }
    groups
}

/// Random quasi-distribution: positive bulk, sub-β dust, and exact zeros.
fn random_dist(n: usize, support: usize, rng: &mut ChaCha8Rng) -> ProbDist {
    let mut dist = ProbDist::new(n);
    for _ in 0..support {
        let key = BitString::from_index(rng.gen_range(0..(1usize << n)), n).unwrap();
        let roll: f64 = rng.gen_range(0.0..1.0);
        let value = if roll < 0.1 {
            0.0 // explicit zero entry
        } else if roll < 0.25 {
            rng.gen_range(1e-9..1e-6) // below any tested β
        } else {
            rng.gen_range(0.0..1.0)
        };
        dist.set(key, value);
    }
    dist
}

fn matrices(snap: &BenchmarkSnapshot, grouping: &[QubitSet], n: usize) -> Vec<GroupMatrix> {
    let grouping: Vec<QubitSet> = grouping.to_vec();
    build_group_matrices(snap, &grouping, &QubitSet::full(n)).unwrap()
}

fn assert_dist_bits_equal(a: &ProbDist, b: &ProbDist, context: &str) {
    assert_eq!(a.support_len(), b.support_len(), "support diverges: {context}");
    for (k, v) in a.iter() {
        assert_eq!(b.prob(&k).to_bits(), v.to_bits(), "entry {k} diverges: {context}");
    }
}

#[test]
fn execute_matches_reference_across_random_workloads() {
    for seed in 0..6u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(3usize..=6);
        let snap = random_snapshot(n, &mut rng);
        let grouping = random_grouping(n, 3, &mut rng);
        let gms = matrices(&snap, &grouping, n);
        let positions: Vec<usize> = (0..n).collect();
        let dist = random_dist(n, rng.gen_range(2usize..=20), &mut rng);
        for beta in [0.0, 1e-5, 1e-3, 0.1] {
            let context = format!("seed {seed}, n {n}, β {beta}");
            let mut s_new = EngineStats::default();
            let mut s_old = EngineStats::default();
            let new = engine::apply_iteration(&dist, &positions, &gms, beta, &mut s_new);
            let old = reference::apply_iteration(&dist, &positions, &gms, beta, &mut s_old);
            assert_eq!(s_new, s_old, "stats diverge: {context}");
            assert_dist_bits_equal(&new, &old, &context);
        }
    }
}

#[test]
fn execute_matches_reference_on_multiword_keys() {
    // 70-bit keys span two words; an empty snapshot yields identity group
    // matrices, so the walk exercises cross-word extraction and scatter
    // while staying cheap. The reference path must agree bit for bit.
    let n = 70usize;
    let snap = BenchmarkSnapshot::new(n);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let grouping = random_grouping(n, 2, &mut rng);
    let gms = matrices(&snap, &grouping, n);
    let positions: Vec<usize> = (0..n).collect();
    let mut dist = ProbDist::new(n);
    for _ in 0..24 {
        let mut key = BitString::zeros(n);
        for b in 0..n {
            if rng.gen_range(0.0..1.0f64) < 0.5 {
                key.set(b, true);
            }
        }
        dist.set(key, rng.gen_range(0.0..1.0));
    }
    let mut s_new = EngineStats::default();
    let mut s_old = EngineStats::default();
    let new = engine::apply_iteration(&dist, &positions, &gms, 1e-5, &mut s_new);
    let old = reference::apply_iteration(&dist, &positions, &gms, 1e-5, &mut s_old);
    assert_eq!(s_new, s_old);
    assert_dist_bits_equal(&new, &old, "70-qubit identity workload");
}

#[test]
fn sharded_matches_sequential_across_random_workloads() {
    // Thread counts cover degenerate (1), small, the QUFEM_THREADS-derived
    // session value (exercised by the CI matrix), and more shards than
    // input strings.
    let thread_counts = [1usize, 2, 4, engine::configured_threads(), 64];
    let mut arena = ExecArena::with_shards(1);
    for seed in 0..6u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE ^ seed);
        let n = rng.gen_range(3usize..=6);
        let snap = random_snapshot(n, &mut rng);
        let grouping = random_grouping(n, 3, &mut rng);
        let gms = matrices(&snap, &grouping, n);
        let positions: Vec<usize> = (0..n).collect();
        let dist = random_dist(n, rng.gen_range(2usize..=24), &mut rng);
        for beta in [0.0, 1e-5, 1e-2] {
            let chain = [Arc::new(IterationPlan::build(&positions, &gms, beta))];
            let input = SupportIndex::from_dist(&dist);
            let mut s_seq = EngineStats::default();
            let seq = engine::execute(&chain[0], &input, &mut s_seq);
            for &threads in &thread_counts {
                let context = format!("seed {seed}, n {n}, β {beta}, {threads} threads");
                arena.run_chain(&chain, &input, threads);
                let par = arena.out();
                assert_eq!(arena.local_stats(), &s_seq, "stats diverge: {context}");
                assert_eq!(par.len(), seq.len(), "support diverges: {context}");
                for id in 0..seq.len() as u32 {
                    assert_eq!(par.key_words(id), seq.key_words(id), "key order: {context}");
                    assert_eq!(
                        par.value(id).to_bits(),
                        seq.value(id).to_bits(),
                        "value {id} diverges: {context}"
                    );
                }
            }
        }
    }
}
