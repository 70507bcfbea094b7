//! Differential suite for the parallel characterization→prepare pipeline:
//! `benchgen::generate`, `QuFem::from_snapshot`, and `QuFem::prepare` must
//! be **bit-identical at any thread count** — same iterations, same
//! groupings, same exported JSON bytes, same merged `EngineStats`.
//!
//! The explicit `*_with_threads` entry points are exercised directly so one
//! process can sweep thread counts without racing on `QUFEM_THREADS`; the
//! env-driven wrappers delegate to the same code. CI additionally runs this
//! suite under `QUFEM_THREADS ∈ {1, 4}` (mirrored in `scripts/check.sh`).

use qufem_core::{benchgen, BenchmarkSnapshot, EngineStats, PreparedMitigator, QuFem, QuFemConfig};
use qufem_device::presets;
use qufem_types::QubitSet;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// `digest_str` of the exported JSON of `ibmq_7(1)` characterized under
/// [`fast_config`].
const CHARACTERIZE_EXPORT_DIGEST: u64 = 0x336a_432a_9119_f5dd;

fn fast_config() -> QuFemConfig {
    QuFemConfig::builder().characterization_threshold(5e-4).shots(400).seed(3).build().unwrap()
}

/// Bit-level snapshot equality: same circuits in the same order, and every
/// distribution entry equal down to the float bits.
fn assert_snapshots_bit_equal(a: &BenchmarkSnapshot, b: &BenchmarkSnapshot, context: &str) {
    assert_eq!(a.n_qubits(), b.n_qubits(), "{context}: width");
    assert_eq!(a.len(), b.len(), "{context}: record count");
    for (i, (ra, rb)) in a.records().iter().zip(b.records()).enumerate() {
        assert_eq!(ra.circuit(), rb.circuit(), "{context}: circuit {i}");
        let (pa, pb) = (ra.dist().sorted_pairs(), rb.dist().sorted_pairs());
        assert_eq!(pa.len(), pb.len(), "{context}: support of record {i}");
        for ((ka, va), (kb, vb)) in pa.iter().zip(&pb) {
            assert_eq!(ka, kb, "{context}: key order in record {i}");
            assert_eq!(va.to_bits(), vb.to_bits(), "{context}: value at {ka} in record {i}");
        }
    }
}

fn generate_at(threads: usize) -> BenchmarkSnapshot {
    let device = presets::ibmq_7(1);
    let config = fast_config();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let (snapshot, report) =
        benchgen::generate_with_threads(&device, &config, &mut rng, threads).unwrap();
    assert_eq!(report.total_circuits, snapshot.len());
    snapshot
}

#[test]
fn benchgen_bit_identical_across_thread_counts() {
    let baseline = generate_at(1);
    for threads in THREAD_COUNTS {
        let snapshot = generate_at(threads);
        assert_snapshots_bit_equal(&baseline, &snapshot, &format!("benchgen at {threads} threads"));
    }
}

#[test]
fn from_snapshot_bit_identical_across_thread_counts() {
    let snapshot = generate_at(4);
    let baseline = QuFem::from_snapshot_with_threads(snapshot.clone(), fast_config(), 1).unwrap();
    let baseline_json = serde_json::to_string(&baseline.export()).unwrap();
    for threads in THREAD_COUNTS {
        let qufem =
            QuFem::from_snapshot_with_threads(snapshot.clone(), fast_config(), threads).unwrap();
        assert_eq!(
            baseline.iterations().len(),
            qufem.iterations().len(),
            "iteration count at {threads} threads"
        );
        for (i, (pa, pb)) in baseline.iterations().iter().zip(qufem.iterations()).enumerate() {
            assert_eq!(pa.grouping(), pb.grouping(), "grouping {i} at {threads} threads");
            assert_snapshots_bit_equal(
                pa.snapshot(),
                pb.snapshot(),
                &format!("iteration {i} snapshot at {threads} threads"),
            );
        }
        // Per-record stats merged in record order must equal the sequential
        // accumulation in every field, including the per-level census.
        assert_eq!(
            baseline.characterization_engine_stats(),
            qufem.characterization_engine_stats(),
            "merged EngineStats at {threads} threads"
        );
        let json = serde_json::to_string(&qufem.export()).unwrap();
        assert_eq!(baseline_json, json, "exported JSON bytes at {threads} threads");
    }
}

#[test]
fn characterize_export_bit_identical_across_thread_counts() {
    let baseline = QuFem::characterize_with_threads(&presets::ibmq_7(1), fast_config(), 1).unwrap();
    let baseline_json = serde_json::to_string(&baseline.export()).unwrap();
    // Pins the bytes themselves, not only their agreement across thread
    // counts: a change to the characterization engine that moves any float
    // bit of the self-calibrated snapshots changes this digest.
    assert_eq!(
        qufem_core::digest_str(&baseline_json),
        CHARACTERIZE_EXPORT_DIGEST,
        "characterize export digest"
    );
    for threads in THREAD_COUNTS {
        let qufem =
            QuFem::characterize_with_threads(&presets::ibmq_7(1), fast_config(), threads).unwrap();
        let json = serde_json::to_string(&qufem.export()).unwrap();
        assert_eq!(baseline_json, json, "characterize export at {threads} threads");
    }
}

#[test]
fn prepare_bit_identical_across_thread_counts() {
    let device = presets::ibmq_7(1);
    let qufem = QuFem::characterize_with_threads(&device, fast_config(), 2).unwrap();
    let full = QubitSet::full(7);
    let partial: QubitSet = [0usize, 2, 3, 6].into_iter().collect();
    for measured in [full, partial] {
        let baseline = qufem.prepare_with_threads(&measured, 1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let ideal = qufem_circuits::ghz(measured.len());
        let noisy = device.measure_distribution(&ideal, &measured, 1500, &mut rng);
        let mut base_stats = EngineStats::default();
        let base_out = baseline.apply_with_stats(&noisy, &mut base_stats).unwrap();
        for threads in THREAD_COUNTS {
            let prepared = qufem.prepare_with_threads(&measured, threads).unwrap();
            assert_eq!(prepared.n_iterations(), baseline.n_iterations());
            assert_eq!(
                prepared.n_matrices(),
                baseline.n_matrices(),
                "matrix count at {threads} threads"
            );
            let mut stats = EngineStats::default();
            let out = prepared.apply_with_stats(&noisy, &mut stats).unwrap();
            assert_eq!(base_stats, stats, "apply stats at {threads} threads");
            let (a, b) = (base_out.sorted_pairs(), out.sorted_pairs());
            assert_eq!(a.len(), b.len(), "support at {threads} threads");
            for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
                assert_eq!(ka, kb, "key order at {threads} threads");
                assert_eq!(va.to_bits(), vb.to_bits(), "value at {ka}, {threads} threads");
            }
        }
    }
}

#[test]
fn clone_shares_snapshots_instead_of_deep_copying() {
    let qufem = QuFem::characterize_with_threads(&presets::ibmq_7(1), fast_config(), 2).unwrap();
    let cloned = qufem.clone();
    for (a, b) in qufem.iterations().iter().zip(cloned.iterations()) {
        assert!(
            Arc::ptr_eq(&a.snapshot_arc(), &b.snapshot_arc()),
            "cloning a QuFem must share the stored BP_i, not duplicate them"
        );
    }
}
