//! Differential tests pinning the engine's one entry point,
//! `ExecArena::run_chain`, to the pre-refactor implementation
//! (`engine::reference`) bit-for-bit — inline below the pool floor, and
//! sharded on the pool above it against the inline chain — across seeded
//! random workloads.

use qufem_core::arena::POOL_FLOOR;
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

/// Snapshot for registers too wide to enumerate: `records` random
/// preparations, each observed as its exact no-flip and single-flip
/// outcomes (renormalized) under per-qubit flip rates in `0.01..0.2` on the
/// `noisy` lowest qubits. The other qubits read out perfectly, so their
/// group matrices are the identity.
fn sampled_snapshot(
    n: usize,
    noisy: usize,
    records: usize,
    rng: &mut ChaCha8Rng,
) -> BenchmarkSnapshot {
    let eps: Vec<f64> = (0..noisy).map(|_| rng.gen_range(0.01..0.2)).collect();
    let clean: f64 = eps.iter().map(|e| 1.0 - e).product();
    let mut snap = BenchmarkSnapshot::new(n);
    for _ in 0..records {
        let mut prep = BitString::zeros(n);
        for b in 0..n {
            prep.set(b, rng.gen_bool(0.5));
        }
        let mut dist = ProbDist::new(n);
        dist.add(prep.clone(), clean);
        for (k, e) in eps.iter().enumerate() {
            let mut out = prep.clone();
            out.set(k, !prep.get(k));
            dist.add(out, clean / (1.0 - e) * e);
        }
        dist.normalize().unwrap();
        snap.push(BenchmarkRecord::new(BenchmarkCircuit::all_prepared(&prep), dist));
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

/// Random quasi-distribution over keys of any width: every key starts from
/// `fixed` and draws the bits where `free` holds at random.
fn random_wide_dist(
    n: usize,
    support: usize,
    fixed: &BitString,
    free: impl Fn(usize) -> bool,
    rng: &mut ChaCha8Rng,
) -> ProbDist {
    let mut dist = ProbDist::new(n);
    for _ in 0..support {
        let mut key = fixed.clone();
        for b in (0..n).filter(|&b| free(b)) {
            key.set(b, rng.gen_bool(0.5));
        }
        let value = match rng.gen_range(0..10) {
            0 => 0.0,
            1 => rng.gen_range(1e-9..1e-6),
            _ => rng.gen_range(0.0..1.0),
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

/// One iteration over `dist` through the inline `run_chain`, with the same
/// arguments as `reference::apply_iteration`.
fn apply_inline(
    dist: &ProbDist,
    positions: &[usize],
    groups: &[GroupMatrix],
    beta: f64,
    stats: &mut EngineStats,
) -> ProbDist {
    let chain = [Arc::new(IterationPlan::build(positions, groups, beta))];
    let (out, chain_stats) = inline_chain(&chain, &SupportIndex::from_dist(dist));
    stats.merge(&chain_stats);
    out.to_dist()
}

#[test]
fn inline_chain_matches_reference_across_random_workloads() {
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
            let new = apply_inline(&dist, &positions, &gms, beta, &mut s_new);
            let old = reference::apply_iteration(&dist, &positions, &gms, beta, &mut s_old);
            assert_eq!(s_new, s_old, "stats diverge: {context}");
            assert_dist_bits_equal(&new, &old, &context);
        }
    }
}

#[test]
fn inline_chain_matches_reference_on_multiword_keys() {
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
    let new = apply_inline(&dist, &positions, &gms, 1e-5, &mut s_new);
    let old = reference::apply_iteration(&dist, &positions, &gms, 1e-5, &mut s_old);
    assert_eq!(s_new, s_old);
    assert_dist_bits_equal(&new, &old, "70-qubit identity workload");
}

#[test]
fn small_inputs_run_inline_and_match_reference_at_any_thread_count() {
    // Thread counts cover degenerate (1), small, the QUFEM_THREADS-derived
    // session value (exercised by the CI matrix), and more threads than
    // input strings. These inputs (2–24 strings) sit below the pool floor,
    // so every leg records and folds inline; the `pooled_matches_inline_*`
    // tests below pin the pooled path.
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
            let seq = reference::apply_iteration(&dist, &positions, &gms, beta, &mut s_seq);
            let seq = SupportIndex::from_dist(&seq);
            for &threads in &thread_counts {
                let context = format!("seed {seed}, n {n}, β {beta}, {threads} threads");
                arena.run_chain(&chain, &input, threads);
                assert_eq!(arena.last_shards(), 1, "below the floor: {context}");
                let par = arena.out();
                assert_canonical(par, &context);
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

/// `chain` over `input` on a fresh arena at one thread: every iteration
/// runs inline on the caller's thread.
fn inline_chain(chain: &[Arc<IterationPlan>], input: &SupportIndex) -> (SupportIndex, EngineStats) {
    let mut arena = ExecArena::with_shards(1);
    arena.run_chain(chain, input, 1);
    assert_eq!(arena.last_shards(), 1, "one thread runs inline");
    (arena.out().clone(), arena.local_stats().clone())
}

/// Ids are canonical sorted ranks and every key looks up its own id.
fn assert_canonical(index: &SupportIndex, context: &str) {
    let mut order = Vec::new();
    index.sorted_ids(&mut order);
    assert!(order.iter().copied().eq(0..index.len() as u32), "ids not sorted ranks: {context}");
    for id in 0..index.len() as u32 {
        assert_eq!(index.get(index.key_words(id)), Some(id), "lookup of id {id}: {context}");
    }
}

/// Runs `chain` over `input` on the arena at several thread counts and pins
/// every result to the inline chain id for id and bit for bit.
/// The input is above the pool floor, so every leg with `threads > 1` must
/// really dispatch to the shard pool.
fn assert_pooled_matches_inline(
    arena: &mut ExecArena,
    chain: &[Arc<IterationPlan>],
    input: &SupportIndex,
    context: &str,
) {
    assert!(input.len() >= 2 * POOL_FLOOR, "input below the pool floor: {context}");
    let (expected, stats) = inline_chain(chain, input);
    assert_canonical(&expected, context);
    for threads in [1usize, 2, 4, engine::configured_threads(), 16, 64] {
        let context = format!("{context}, {threads} threads");
        arena.run_chain(chain, input, threads);
        let expected_shards = threads.min(input.len() / POOL_FLOOR).max(1);
        assert!(arena.last_shards() >= expected_shards, "pool not dispatched: {context}");
        let out = arena.out();
        assert_eq!(arena.local_stats(), &stats, "stats diverge: {context}");
        assert_eq!(out.len(), expected.len(), "support diverges: {context}");
        for id in 0..expected.len() as u32 {
            assert_eq!(out.key_words(id), expected.key_words(id), "key order: {context}");
            assert_eq!(
                out.value(id).to_bits(),
                expected.value(id).to_bits(),
                "value {id} diverges: {context}"
            );
        }
        assert_canonical(out, &context);
    }
}

#[test]
fn pooled_matches_inline_on_wide_random_workloads() {
    let mut arena = ExecArena::with_shards(1);
    for seed in 0..3u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF100D ^ seed);
        let n = rng.gen_range(10usize..=14);
        let snap = sampled_snapshot(n, n, 48, &mut rng);
        let positions: Vec<usize> = (0..n).collect();
        let gms = matrices(&snap, &random_grouping(n, 3, &mut rng), n);
        let dist = random_dist(n, rng.gen_range(700usize..=1200), &mut rng);
        let input = SupportIndex::from_dist(&dist);
        for beta in [1e-4, 1e-2] {
            let chain = [Arc::new(IterationPlan::build(&positions, &gms, beta))];
            let context = format!("seed {seed}, n {n}, β {beta}");
            assert_pooled_matches_inline(&mut arena, &chain, &input, &context);
        }
        // Two iterations with different groupings: the second runs on the
        // first's fold output as it stands, with no re-sort in between.
        let second = matrices(&snap, &random_grouping(n, 2, &mut rng), n);
        let chain = [
            Arc::new(IterationPlan::build(&positions, &gms, 1e-3)),
            Arc::new(IterationPlan::build(&positions, &second, 1e-3)),
        ];
        let context = format!("seed {seed}, n {n}, two-iteration chain");
        assert_pooled_matches_inline(&mut arena, &chain, &input, &context);
    }
}

#[test]
fn pooled_matches_inline_on_keys_too_wide_for_the_dense_fold() {
    // 40-bit keys (one word, 29 bits below the bucket bits) and 70-bit keys
    // (two words) both take the sorting fold. Only the eight lowest qubits
    // flip, which keeps the walk cheap. The input is dense in a few free
    // bits, so flip neighbourhoods overlap and keys collect many emissions
    // (a fold of two or fewer terms cannot tell orders apart); the other
    // bits are fixed at random, so keys differ in every word.
    for n in [40usize, 70] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let snap = sampled_snapshot(n, 8, 24, &mut rng);
        let positions: Vec<usize> = (0..n).collect();
        let gms = matrices(&snap, &random_grouping(n, 2, &mut rng), n);
        let mut fixed = BitString::zeros(n);
        for b in 0..n {
            fixed.set(b, rng.gen_bool(0.5));
        }
        let free = |b: usize| b < 8 || b == n - 1 || b == n - 2;
        let dist = random_wide_dist(n, 600, &fixed, free, &mut rng);
        let input = SupportIndex::from_dist(&dist);
        let chain = [Arc::new(IterationPlan::build(&positions, &gms, 1e-4))];
        let context = format!("{n}-qubit keys");
        // Inline and pooled share the fold, so pin its order to the
        // reference engine too.
        let mut s_ref = EngineStats::default();
        let reference = reference::apply_iteration(&dist, &positions, &gms, 1e-4, &mut s_ref);
        let (inline, s_inline) = inline_chain(&chain, &input);
        assert_eq!(s_inline, s_ref, "stats diverge from reference: {context}");
        assert_dist_bits_equal(&inline.to_dist(), &reference, &context);
        assert_pooled_matches_inline(&mut ExecArena::with_shards(1), &chain, &input, &context);
    }
}

#[test]
fn pooled_matches_inline_on_keys_narrower_than_the_bucket_bits() {
    // 8-bit keys: fewer key bits than a bucket index takes, so every key is
    // its own bucket. All 256 keys are present.
    let n = 8usize;
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let snap = random_snapshot(n, &mut rng);
    let positions: Vec<usize> = (0..n).collect();
    let gms = matrices(&snap, &random_grouping(n, 3, &mut rng), n);
    let dist: ProbDist = (0..1usize << n)
        .map(|x| (BitString::from_index(x, n).unwrap(), rng.gen_range(-0.1..1.0)))
        .collect();
    let input = SupportIndex::from_dist(&dist);
    let chain = [Arc::new(IterationPlan::build(&positions, &gms, 1e-5))];
    assert_pooled_matches_inline(&mut ExecArena::with_shards(1), &chain, &input, "8-qubit keys");
}

#[test]
fn pooled_matches_inline_when_every_emission_lands_in_one_bucket() {
    // 27-bit keys whose bits 12.. are all zero, and noise only on qubits
    // 0..12: every emission shares the leading key bits, so one bucket
    // holds the whole stream and one partition folds it all.
    let n = 27usize;
    let mut rng = ChaCha8Rng::seed_from_u64(27);
    let snap = sampled_snapshot(n, 12, 32, &mut rng);
    let positions: Vec<usize> = (0..n).collect();
    let gms = matrices(&snap, &random_grouping(n, 3, &mut rng), n);
    let dist = random_wide_dist(n, 900, &BitString::zeros(n), |b| b < 12, &mut rng);
    let input = SupportIndex::from_dist(&dist);
    let chain = [Arc::new(IterationPlan::build(&positions, &gms, 1e-4))];
    let mut arena = ExecArena::with_shards(1);
    assert_pooled_matches_inline(&mut arena, &chain, &input, "one-bucket stream");
}

#[test]
fn negative_zero_first_emission_folds_from_positive_zero_at_any_thread_count() {
    // Qubits 0 and 1 flip independently at 10%; qubits 2.. read perfectly.
    // Input `000…` carries the smallest negative subnormal, so its
    // second-order correction to `110…` (factor 0.125² = 1/64) underflows
    // to exactly -0.0 — the only emission that key ever gets. Every other
    // input string has bit 2 set, and the noiseless group {2} keeps it set,
    // so none of them emits to `110…`. Folding from +0.0 stores
    // `0.0 + -0.0 = +0.0`, as `engine::reference` does via `ProbDist::add`.
    let n = 12usize;
    let mut snap = BenchmarkSnapshot::new(n);
    for y in 0..4usize {
        for high in [false, true] {
            let mut prep = BitString::zeros(n);
            prep.set(0, y & 1 == 1);
            prep.set(1, y & 2 == 2);
            for b in 2..n {
                prep.set(b, high);
            }
            let mut dist = ProbDist::new(n);
            for x in 0..4usize {
                let mut out = prep.clone();
                out.set(0, x & 1 == 1);
                out.set(1, x & 2 == 2);
                let flips = ((x ^ y) & 1) + ((x ^ y) >> 1);
                dist.add(out, 0.1f64.powi(flips as i32) * 0.9f64.powi(2 - flips as i32));
            }
            snap.push(BenchmarkRecord::new(BenchmarkCircuit::all_prepared(&prep), dist));
        }
    }
    let mut grouping: Vec<QubitSet> = vec![[0usize, 1].into_iter().collect()];
    grouping.extend((2..n).map(|q| std::iter::once(q).collect::<QubitSet>()));
    let gms = matrices(&snap, &grouping, n);
    let positions: Vec<usize> = (0..n).collect();

    let mut dist = ProbDist::new(n);
    dist.set(BitString::zeros(n), -f64::from_bits(1));
    for pad in 0..1usize << (n - 3) {
        let mut key = BitString::zeros(n);
        key.set(2, true);
        for b in 3..n {
            key.set(b, (pad >> (b - 3)) & 1 == 1);
        }
        dist.set(key, if pad == 0 { 1.0 } else { 1e-3 });
    }
    let mut target = BitString::zeros(n);
    target.set(0, true);
    target.set(1, true);
    let positive_zero = 0.0f64.to_bits();

    let mut stats = EngineStats::default();
    let reference = reference::apply_iteration(&dist, &positions, &gms, 0.0, &mut stats);
    assert_eq!(reference.prob(&target).to_bits(), positive_zero, "reference folds from +0.0");

    let plan = Arc::new(IterationPlan::build(&positions, &gms, 0.0));
    let input = SupportIndex::from_dist(&dist);
    let mut arena = ExecArena::with_shards(1);
    for threads in [1usize, 2, 4, 16] {
        arena.run_chain(std::slice::from_ref(&plan), &input, threads);
        if threads > 1 {
            assert!(arena.last_shards() >= 2, "{threads} threads must dispatch to the pool");
        }
        let id = arena.out().get(target.as_words()).expect("110… is in the output");
        assert_eq!(arena.out().value(id).to_bits(), positive_zero, "run_chain, {threads} threads");
    }
}
