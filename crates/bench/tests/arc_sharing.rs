//! Memory-accounting regression for the calibration parameters:
//! `IterationParams` keeps its snapshot and its group-matrix table behind
//! `Arc`s, so cloning a `QuFem` — the harness does it for every worker sweep
//! and server start — must share the stored `BP_i` allocations and matrix
//! tables instead of deep-copying them.

use qufem_core::{BenchmarkSnapshot, MatrixTable, QuFem, QuFemConfig};
use qufem_device::presets;
use qufem_types::QubitSet;
use std::collections::HashSet;
use std::sync::Arc;

fn characterized() -> QuFem {
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(400).seed(3).build().unwrap();
    QuFem::characterize(&presets::ibmq_7(1), config).unwrap()
}

#[test]
fn cloned_calibrators_account_a_single_snapshot_set() {
    let qufem = characterized();
    let clones: Vec<QuFem> = (0..8).map(|_| qufem.clone()).collect();

    // Sum every *distinct* snapshot allocation across the original and
    // all clones, deduplicated by Arc pointer identity.
    let mut seen: HashSet<*const BenchmarkSnapshot> = HashSet::new();
    let mut distinct_bytes = 0usize;
    for calibrator in std::iter::once(&qufem).chain(&clones) {
        for params in calibrator.iterations() {
            let arc = params.snapshot_arc();
            if seen.insert(Arc::as_ptr(&arc)) {
                distinct_bytes += params.snapshot().heap_bytes();
            }
        }
    }

    let single_instance: usize = qufem.iterations().iter().map(|p| p.snapshot().heap_bytes()).sum();
    assert!(single_instance > 0, "the 7-qubit characterization stores nonempty snapshots");
    assert_eq!(seen.len(), qufem.iterations().len(), "one allocation per iteration, not per clone");
    assert_eq!(
        distinct_bytes, single_instance,
        "9 calibrators (original + 8 clones) must hold the snapshot bytes of exactly one"
    );
}

#[test]
fn cloned_calibrators_share_one_matrix_table_per_iteration() {
    // An imported calibrator starts with empty tables.
    let qufem = QuFem::import(characterized().export()).unwrap();
    let clones: Vec<QuFem> = (0..8).map(|_| qufem.clone()).collect();
    assert!(qufem.iterations().iter().all(|p| p.matrix_table().is_empty()));
    let table_bytes =
        |q: &QuFem| -> usize { q.iterations().iter().map(|p| p.matrix_table().heap_bytes()).sum() };
    let (bytes_before, tables_before) = (qufem.heap_bytes(), table_bytes(&qufem));

    // Matrices a clone builds land in the tables every holder shares.
    clones[3].prepare(&QubitSet::full(7)).unwrap();
    assert!(qufem.iterations().iter().all(|p| !p.matrix_table().is_empty()));

    let mut seen: HashSet<*const MatrixTable> = HashSet::new();
    let mut distinct_bytes = 0usize;
    for calibrator in std::iter::once(&qufem).chain(&clones) {
        for params in calibrator.iterations() {
            if seen.insert(Arc::as_ptr(params.matrix_table())) {
                distinct_bytes += params.matrix_table().heap_bytes();
            }
        }
    }

    let tables = table_bytes(&qufem);
    assert_eq!(seen.len(), qufem.iterations().len(), "one table per iteration, not per clone");
    assert_eq!(distinct_bytes, tables, "9 calibrators hold the tables of exactly one");
    assert!(tables > tables_before);
    assert_eq!(
        qufem.heap_bytes() - bytes_before,
        tables - tables_before,
        "the original's heap_bytes counts the matrices its clone built"
    );
}
