//! The per-iteration group-matrix table against the uncached reference.
//!
//! A group's sub-noise matrix (paper Eq. 10–11) depends on the measured set
//! only through `g ∩ measured`, so each iteration builds it once per
//! (group, `g∩`) and serves every later reader from the table. These tests
//! pin that the table changes no output bit and that it really deduplicates:
//!
//! * the exported characterization of an 18-qubit device with groups of up
//!   to three qubits matches pinned digests, with joint group estimation
//!   off and on;
//! * `prepare` + `apply` on seeded random measured subsets is bit-identical
//!   to plans built from [`build_group_matrices_with`];
//! * characterization builds exactly one matrix per distinct
//!   (iteration, group, `g∩`) key, and a later `prepare` whose
//!   intersections were all seen builds none.
//!
//! The benchmark records of this fixture measure many different qubit
//! subsets, so a table keyed too coarsely (by group alone) serves wrong
//! matrices and one keyed too finely (by the whole measured set) builds
//! more matrices than there are keys. CI runs this suite under
//! `QUFEM_THREADS ∈ {1, 4}`.

use qufem_core::{
    build_group_matrices_with, digest_str, Digest64, ExecArena, IterationParams, IterationPlan,
    QuFem, QuFemConfig,
};
use qufem_device::{presets, Device};
use qufem_types::{ProbDist, QubitSet, SupportIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

/// `digest_str` of the exported JSON of `quafu_18(2)` characterized under
/// [`config`] with joint group estimation off, then on. Building every
/// matrix afresh gives the same bytes.
const EXPORT_DIGESTS: [u64; 2] = [0x161b_cc36_ab14_80c4, 0xfd66_e369_898c_a143];

/// Digest of every calibrated output of
/// [`prepare_matches_uncached_plans_on_random_subsets`], in order.
const OUTPUTS_DIGEST: u64 = 0x9b33_bff8_dae0_47c0;

/// Qubits of the fixture device.
const N: usize = 18;

/// Serializes the tests of this file: the telemetry collector is
/// process-global, and the dedup count must see only its own builds.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn device() -> Device {
    presets::quafu_18(2)
}

fn config(joint: bool) -> QuFemConfig {
    QuFemConfig::builder()
        .characterization_threshold(1e-3)
        .shots(300)
        .max_group_size(3)
        .joint_group_estimation(joint)
        .seed(5)
        .build()
        .unwrap()
}

/// The characterized fixture, built once per estimation mode.
fn fixture(joint: bool) -> &'static QuFem {
    static FIXTURES: [OnceLock<QuFem>; 2] = [OnceLock::new(), OnceLock::new()];
    FIXTURES[joint as usize].get_or_init(|| QuFem::characterize(&device(), config(joint)).unwrap())
}

/// Seeded random measured subsets of every size class.
fn random_subsets(count: usize, seed: u64) -> Vec<QubitSet> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let size = rng.gen_range(1..=N);
            let mut picked: Vec<usize> = (0..N).collect();
            for i in 0..size {
                let j = rng.gen_range(i..N);
                picked.swap(i, j);
            }
            picked.truncate(size);
            picked.into_iter().collect()
        })
        .collect()
}

/// A noisy distribution over `measured`, seeded.
fn noisy_input(measured: &QubitSet, seed: u64) -> ProbDist {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ideal = qufem_circuits::ghz(measured.len());
    device().measure_distribution(&ideal, measured, 600, &mut rng)
}

/// Calibrates `input` through plans built from freshly generated matrices
/// ([`build_group_matrices_with`]), bypassing the table.
fn uncached_apply(qufem: &QuFem, measured: &QubitSet, input: &ProbDist) -> ProbDist {
    let positions: Vec<usize> = measured.iter().collect();
    let joint = qufem.config().joint_group_estimation;
    let plans: Vec<Arc<IterationPlan>> = qufem
        .iterations()
        .iter()
        .map(|params| {
            let groups =
                build_group_matrices_with(params.snapshot(), params.grouping(), measured, joint)
                    .unwrap();
            Arc::new(IterationPlan::build(&positions, &groups, qufem.config().beta))
        })
        .collect();
    let mut arena = ExecArena::with_shards(1);
    arena.run_chain(&plans, &SupportIndex::from_dist(input), 1);
    arena.out().to_dist()
}

fn assert_bit_equal(a: &ProbDist, b: &ProbDist, context: &str) {
    let (pa, pb) = (a.sorted_pairs(), b.sorted_pairs());
    assert_eq!(pa.len(), pb.len(), "{context}: support");
    for ((ka, va), (kb, vb)) in pa.iter().zip(&pb) {
        assert_eq!(ka, kb, "{context}: key order");
        assert_eq!(va.to_bits(), vb.to_bits(), "{context}: value at {ka}");
    }
}

/// (iteration, group index, `g∩`).
type Key = (usize, usize, QubitSet);

/// The (iteration, group, `g∩`) keys that calibrating over `measured` in
/// iteration `i` meets.
fn iteration_keys(i: usize, params: &IterationParams, measured: &QubitSet) -> Vec<Key> {
    let caps = params.grouping().iter().map(|group| group.intersection(measured));
    caps.enumerate().filter(|(_, cap)| !cap.is_empty()).map(|(g, cap)| (i, g, cap)).collect()
}

/// The keys a prepare over `measured` meets, across every iteration.
fn keys_of(qufem: &QuFem, measured: &QubitSet) -> HashSet<Key> {
    let iterations = qufem.iterations().iter().enumerate();
    iterations.flat_map(|(i, params)| iteration_keys(i, params, measured)).collect()
}

/// The keys the characterization loop meets: iteration `i` calibrates the
/// records of its own `BP_i`.
fn characterization_keys(qufem: &QuFem) -> HashSet<Key> {
    let iterations = qufem.iterations().iter().enumerate();
    iterations
        .flat_map(|(i, params)| {
            let records = params.snapshot().records().iter();
            records.flat_map(move |record| iteration_keys(i, params, &record.measured_set()))
        })
        .collect()
}

#[test]
fn fixture_measures_varying_subsets() {
    let _serial = serial();
    for params in fixture(false).iterations() {
        let sets: HashSet<QubitSet> =
            params.snapshot().records().iter().map(|r| r.measured_set()).collect();
        assert!(sets.len() > 10, "only {} distinct measured sets", sets.len());
        assert!(params.grouping().iter().any(|g| g.len() == 3), "no three-qubit group");
    }
}

#[test]
fn export_digests_are_unchanged() {
    let _serial = serial();
    for (joint, expected) in [false, true].into_iter().zip(EXPORT_DIGESTS) {
        let json = serde_json::to_string(&fixture(joint).export()).unwrap();
        assert_eq!(digest_str(&json), expected, "export digest with joint estimation {joint}");
    }
}

#[test]
fn prepare_matches_uncached_plans_on_random_subsets() {
    let _serial = serial();
    let mut all = Digest64::new();
    for joint in [false, true] {
        let qufem = fixture(joint);
        for (k, measured) in random_subsets(20, 17).iter().enumerate() {
            let input = noisy_input(measured, 100 + k as u64);
            let prepared = qufem.prepare(measured).unwrap();
            let out = prepared.apply(&input).unwrap();
            let reference = uncached_apply(qufem, measured, &input);
            assert_bit_equal(&out, &reference, &format!("joint {joint}, subset {k} {measured:?}"));
            qufem_core::digest::fold_prob_dist(&mut all, &out);
        }
    }
    assert_eq!(all.finish(), OUTPUTS_DIGEST, "calibrated outputs digest");
}

#[test]
fn characterization_builds_one_matrix_per_distinct_key() {
    let _serial = serial();
    let built = || qufem_telemetry::snapshot().counter("noisematrix.submatrices") as usize;
    qufem_telemetry::reset();
    qufem_telemetry::enable();
    let qufem = QuFem::characterize(&device(), config(false)).unwrap();
    let seen = characterization_keys(&qufem);
    let after_characterize = built();

    // Every record's measured set was met in every iteration, so preparing
    // one builds nothing.
    let old = qufem.iterations()[0].snapshot().records()[0].measured_set();
    qufem.prepare(&old).unwrap();
    let after_old = built();

    // An imported copy starts from empty tables: each prepare builds only
    // the keys no earlier prepare met.
    let imported = QuFem::import(qufem.export()).unwrap();
    let [a, b]: [QubitSet; 2] = random_subsets(2, 99).try_into().unwrap();
    let (keys_a, keys_b) = (keys_of(&imported, &a), keys_of(&imported, &b));
    imported.prepare(&a).unwrap();
    let after_a = built();
    imported.prepare(&b).unwrap();
    let after_b = built();
    imported.prepare(&a).unwrap();
    let after_repeat = built();
    qufem_telemetry::disable();

    assert_eq!(after_characterize, seen.len(), "one matrix per distinct (iteration, group, g∩)");
    assert_eq!(after_old, after_characterize, "a prepare over seen intersections builds nothing");
    assert_eq!(after_a - after_old, keys_a.len(), "a first prepare builds each of its keys");
    let new_in_b = keys_b.difference(&keys_a).count();
    assert!(new_in_b > 0, "the second subset meets new intersections");
    assert_eq!(after_b - after_a, new_in_b, "a later prepare builds only unseen keys");
    assert_eq!(after_repeat, after_b, "a repeated prepare builds nothing");
}
