//! Pins the zero-allocation apply hot path: after a warm-up call sizes the
//! arena, the pool workers' scratch, and the persistent shard queue, a
//! steady-state [`PreparedCalibration::apply_arena`] call performs **zero
//! heap allocations** — on the calling thread and on every pool worker
//! (the process-wide counter catches both). The `ProbDist` paths
//! (`PreparedMitigator::apply_with_stats` and `apply`) are pinned to
//! allocate only at the boundary conversions, and those conversions to a
//! small allocation count that does not grow with the support size.
//!
//! Two inputs are proven on a 10-qubit register: a noisy GHZ output and a
//! 600-string input above the pool floor. At one thread every iteration
//! records and folds inline; at more, the wide input's iterations (and the
//! GHZ output's wider second iteration) record and fold on the persistent
//! shard pool, record and fold jobs both counted. Each runs at 1 and 4
//! threads and at `configured_threads()`, so the CI allocation legs
//! (`QUFEM_THREADS=1` and `QUFEM_THREADS=4`) cover the configured default
//! too.
//!
//! Everything lives in ONE test function: the process-wide allocation
//! counter cannot distinguish concurrent test threads, and a single `#[test]`
//! keeps the measured windows exclusive.

use qufem_core::arena::POOL_FLOOR;
use qufem_core::{configured_threads, EngineStats, PreparedMitigator, QuFem, QuFemConfig};
use qufem_testsupport::{counting_allocator_installed, global_allocations, CountingAlloc};
use qufem_types::{BitString, ProbDist, QubitSet, SupportIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Warm-up rounds before the measured window. The shard pool hands jobs to
/// whichever worker wins the queue pop, so one round does not guarantee
/// every worker has faulted in its thread-local scratch; many rounds make a
/// still-cold worker inside the measured window vanishingly unlikely.
const WARMUP_ROUNDS: usize = 64;

#[test]
fn steady_state_apply_does_not_allocate() {
    qufem_telemetry::disable();
    assert!(counting_allocator_installed(), "counting allocator is live");

    let n = 10;
    let device = qufem_device::presets::scale_grid(n, 1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(500).seed(3).build().unwrap();
    let qufem = QuFem::characterize(&device, config).unwrap();
    let measured = QubitSet::full(n);
    let prepared = qufem.prepare(&measured).unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let ideal = qufem_circuits::ghz(n);
    let noisy = device.measure_distribution(&ideal, &measured, 2000, &mut rng);
    let wide: ProbDist = (0..600)
        .map(|_| (BitString::from_index(rng.gen_range(0..1usize << n), n).unwrap(), rng.gen()))
        .collect();

    let threads = configured_threads();
    let mut arena = prepared.new_arena();
    let mut stats = EngineStats::default();

    // --- apply_arena: strictly zero allocations in steady state ----------
    // Probe 4 explicitly in addition to the configured count so the shard
    // pool runs even when this machine defaults to one thread.
    for (name, dist) in [("ghz", &noisy), ("wide", &wide)] {
        let input = SupportIndex::from_dist(dist);
        if name == "wide" {
            assert!(input.len() >= 2 * POOL_FLOOR, "{} strings", input.len());
        }
        // Reference output for the correctness check of the measured calls.
        let expected = prepared.apply(dist).unwrap().sorted_pairs();
        for probe_threads in [1, 4, threads] {
            for _ in 0..WARMUP_ROUNDS {
                stats.reset();
                prepared.apply_arena(&input, probe_threads, &mut stats, &mut arena).unwrap();
            }
            stats.reset();
            let before = global_allocations();
            let out = prepared.apply_arena(&input, probe_threads, &mut stats, &mut arena).unwrap();
            let after = global_allocations();
            let out_pairs = out.to_dist().sorted_pairs();
            assert_eq!(
                after - before,
                0,
                "{name}: apply_arena must not touch the heap at {probe_threads} threads"
            );
            let shards = arena.last_shards();
            if probe_threads == 1 {
                assert_eq!(shards, 1, "{name}: one thread runs inline");
            } else if name == "wide" {
                assert!(shards > 1, "{name}: {probe_threads} threads dispatch to the pool");
            }
            // The measured call really did the work, bit-identically.
            assert_eq!(out_pairs.len(), expected.len());
            for ((ka, va), (kb, vb)) in out_pairs.iter().zip(&expected) {
                assert_eq!(ka, kb);
                assert_eq!(va.to_bits(), vb.to_bits());
            }
            assert!(stats.products > 0, "engine counters moved");
        }
    }
    // The boundary checks below run on the GHZ input, with its output left
    // in the arena.
    let expected = prepared.apply(&noisy).unwrap().sorted_pairs();
    let input = SupportIndex::from_dist(&noisy);
    prepared.apply_arena(&input, threads, &mut stats, &mut arena).unwrap();

    // --- apply_with_stats / apply: only the ProbDist boundary allocates --
    // Measure the boundary conversions in isolation, then require the
    // `ProbDist` paths cost exactly that — proving the engine work between
    // the conversions (pooled arena, configured threads) contributes zero.
    let before = global_allocations();
    let reindexed = SupportIndex::from_dist(&noisy);
    let from_dist_allocs = global_allocations() - before;
    let before = global_allocations();
    let out_dist = arena.out().to_dist();
    let to_dist_allocs = global_allocations() - before;
    assert_eq!(reindexed.len(), input.len());
    let boundary = from_dist_allocs + to_dist_allocs;
    assert!(boundary > 0, "boundary conversions are the allocation baseline");

    // The boundary itself is a fixed handful of buffers: `from_dist` sorts
    // into fresh flat storage (id order, keys, values, probe table) and
    // `to_dist` copies three buffers, whatever the support size. Two
    // synthetic supports 100x apart, inserted out of key order so
    // `from_dist` really sorts, must cost the same.
    let conversion_allocs = |support: usize| {
        let width = 20;
        let dist: ProbDist = (0..support)
            .map(|i| (BitString::from_index(i * 0x9e37 % (1 << width), width).unwrap(), 1.0))
            .collect();
        assert_eq!(dist.support_len(), support);
        let before = global_allocations();
        let index = SupportIndex::from_dist(&dist);
        let from = global_allocations() - before;
        let before = global_allocations();
        let back = index.to_dist();
        let to = global_allocations() - before;
        assert!(back == dist, "the conversions are lossless");
        (from, to)
    };
    let (small, large) = (conversion_allocs(100), conversion_allocs(10_000));
    assert_eq!(small, large, "conversion allocations must not grow with the support");
    let (from_max, to_max) = large;
    assert!(from_max <= 4, "from_dist made {from_max} allocations");
    assert!(to_max <= 3, "to_dist made {to_max} allocations");
    assert!(from_dist_allocs <= from_max && to_dist_allocs <= to_max);

    for _ in 0..WARMUP_ROUNDS {
        stats.reset();
        prepared.apply_with_stats(&noisy, &mut stats).unwrap();
    }
    stats.reset();
    let before = global_allocations();
    let out = prepared.apply_with_stats(&noisy, &mut stats).unwrap();
    let after = global_allocations();
    assert_eq!(
        after - before,
        boundary,
        "apply_with_stats must allocate only at the ProbDist boundary"
    );
    assert_eq!(out.sorted_pairs(), expected);
    assert_eq!(out.sorted_pairs(), out_dist.sorted_pairs());

    // `apply` hands the engine a throwaway `EngineStats`, whose per-level
    // census vector grows once on merge — measured here in isolation.
    let before = global_allocations();
    let mut fresh = EngineStats::default();
    fresh.merge(&stats);
    let census_allocs = global_allocations() - before;
    let before = global_allocations();
    let out = prepared.apply(&noisy).unwrap();
    let after = global_allocations();
    assert_eq!(
        after - before,
        boundary + census_allocs,
        "apply must allocate only at the ProbDist boundary (plus its own stats)"
    );
    assert_eq!(out.sorted_pairs(), expected);
}
