//! Pins the zero-allocation apply hot path: after a warm-up call sizes the
//! arena, the pool workers' scratch, and the persistent shard queue, a
//! steady-state [`PreparedCalibration::apply_arena`] call performs **zero
//! heap allocations** — on the calling thread and on every pool worker
//! (the process-wide counter catches both). The `ProbDist` paths
//! (`PreparedMitigator::apply_with_stats` and `apply`) are pinned to
//! allocate only at the boundary conversions.
//!
//! The thread count under proof comes from `configured_threads()`, so the
//! CI allocation legs (`QUFEM_THREADS=1` and `QUFEM_THREADS=4`) exercise
//! both the sequential in-arena path and the persistent shard pool.
//!
//! Everything lives in ONE test function: the process-wide allocation
//! counter cannot distinguish concurrent test threads, and a single `#[test]`
//! keeps the measured windows exclusive.

use qufem_core::{configured_threads, EngineStats, PreparedMitigator, QuFem, QuFemConfig};
use qufem_testsupport::{counting_allocator_installed, global_allocations, CountingAlloc};
use qufem_types::{QubitSet, SupportIndex};
use rand::SeedableRng;
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

    let device = qufem_device::presets::ibmq_7(1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(500).seed(3).build().unwrap();
    let qufem = QuFem::characterize(&device, config).unwrap();
    let measured = QubitSet::full(7);
    let prepared = qufem.prepare(&measured).unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let ideal = qufem_circuits::ghz(7);
    let noisy = device.measure_distribution(&ideal, &measured, 2000, &mut rng);
    let input = SupportIndex::from_dist(&noisy);

    let threads = configured_threads();
    let mut arena = prepared.new_arena();
    let mut stats = EngineStats::default();

    // Reference output for the correctness check of the measured calls.
    let expected = prepared.apply(&noisy).unwrap().sorted_pairs();

    // --- apply_arena: strictly zero allocations in steady state ----------
    // Probe 4 explicitly in addition to the configured count so the shard
    // pool runs even when this machine defaults to one thread.
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
            "apply_arena must not touch the heap at {probe_threads} threads"
        );
        // The measured call really did the work, bit-identically.
        assert_eq!(out_pairs.len(), expected.len());
        for ((ka, va), (kb, vb)) in out_pairs.iter().zip(&expected) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
        assert!(stats.products > 0, "engine counters moved");
    }

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
