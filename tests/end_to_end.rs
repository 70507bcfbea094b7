//! End-to-end integration tests spanning the whole workspace: device →
//! characterization → calibration → metrics, with baselines as references.

use qufem::baselines::{Golden, Ibu, Mitigator};
use qufem::circuits::Algorithm;
use qufem::device::presets;
use qufem::metrics::{hellinger_fidelity, relative_fidelity};
use qufem::{QuFem, QuFemConfig, QubitSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn fast_config(seed: u64) -> QuFemConfig {
    QuFemConfig::builder().characterization_threshold(2e-4).shots(1000).seed(seed).build().unwrap()
}

#[test]
fn qufem_improves_every_benchmark_algorithm_on_7q() {
    let device = presets::ibmq_7(1);
    let qufem = QuFem::characterize(&device, fast_config(1)).unwrap();
    let measured = QubitSet::full(7);
    let mut rng = ChaCha8Rng::seed_from_u64(100);

    let mut improved = 0;
    for alg in Algorithm::ALL {
        let ideal = alg.ideal_distribution(7, 9);
        let noisy = device.measure_distribution(&ideal, &measured, 2000, &mut rng);
        let calibrated = qufem.calibrate(&noisy, &measured).unwrap().project_to_probabilities();
        let rf = relative_fidelity(&ideal, &noisy, &calibrated);
        assert!(
            rf > 0.95,
            "{}: calibration must not substantially hurt (rf = {rf:.4})",
            alg.name()
        );
        if rf > 1.0 {
            improved += 1;
        }
    }
    assert!(improved >= 5, "QuFEM should improve most algorithms, improved {improved}/7");
}

#[test]
fn qufem_beats_qubit_independent_ibu_under_crosstalk() {
    // The 18q preset has a readout-resonator group with strong crosstalk —
    // exactly what qubit-independent methods cannot represent. The
    // comparison averages over broad-output algorithms (the paper's Fig. 9b
    // shows IBU failing hardest on VQC/QSVM); on GHZ alone IBU's implicit
    // sparsity prior flatters it.
    let device = presets::quafu_18(2);
    let qufem = QuFem::characterize(&device, fast_config(2)).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut ibu = Ibu::characterize(&device, 1000, &mut rng).unwrap();
    ibu.max_iterations = 200;

    let measured = QubitSet::full(18);
    let mut qufem_total = 0.0;
    let mut ibu_total = 0.0;
    for alg in [Algorithm::Vqc, Algorithm::Qsvm, Algorithm::HamiltonianSimulation] {
        let ideal = alg.ideal_distribution(18, 1);
        let noisy = device.measure_distribution(&ideal, &measured, 2000, &mut rng);
        let q = qufem.calibrate(&noisy, &measured).unwrap().project_to_probabilities();
        let i = ibu.calibrate(&noisy, &measured).unwrap().project_to_probabilities();
        qufem_total += hellinger_fidelity(&q, &ideal);
        ibu_total += hellinger_fidelity(&i, &ideal);
    }
    assert!(
        qufem_total > ibu_total,
        "QuFEM ({qufem_total:.4}) should beat IBU ({ibu_total:.4}) under crosstalk"
    );
}

#[test]
fn qufem_approaches_golden_on_small_subset() {
    let device = presets::ibmq_7(3);
    let qufem = QuFem::characterize(&device, fast_config(3)).unwrap();
    let subset: QubitSet = [0usize, 1, 3].into_iter().collect();
    let golden = Golden::exact(&device, std::slice::from_ref(&subset), 8).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(17);

    let ideal = Algorithm::Ghz.ideal_distribution(3, 1);
    let noisy = device.measure_distribution(&ideal, &subset, 4000, &mut rng);
    let q = qufem.calibrate(&noisy, &subset).unwrap().project_to_probabilities();
    let g = golden.calibrate(&noisy, &subset).unwrap().project_to_probabilities();
    let fq = hellinger_fidelity(&q, &ideal);
    let fg = hellinger_fidelity(&g, &ideal);
    assert!(fq > fg - 0.05, "QuFEM ({fq:.4}) should approach exact-golden calibration ({fg:.4})");
}

#[test]
fn characterization_cost_scales_gently_with_device_size() {
    let d7 = presets::ibmq_7(1);
    let d18 = presets::quafu_18(1);
    let q7 = QuFem::characterize(&d7, fast_config(1)).unwrap();
    let q18 = QuFem::characterize(&d18, fast_config(1)).unwrap();
    let c7 = q7.benchgen_report().unwrap().total_circuits as f64;
    let c18 = q18.benchgen_report().unwrap().total_circuits as f64;
    // Far below the golden ratio 2^18 / 2^7 = 2048x; roughly linear-ish.
    assert!(c18 / c7 < 40.0, "circuit growth should be near-linear: {c7} -> {c18}");
}

#[test]
fn calibration_is_deterministic_given_characterization() {
    let device = presets::ibmq_7(4);
    let qufem = QuFem::characterize(&device, fast_config(4)).unwrap();
    let measured = QubitSet::full(7);
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let ideal = Algorithm::Vqc.ideal_distribution(7, 2);
    let noisy = device.measure_distribution(&ideal, &measured, 1000, &mut rng);
    let a = qufem.calibrate(&noisy, &measured).unwrap();
    let b = qufem.calibrate(&noisy, &measured).unwrap();
    assert_eq!(a.sorted_pairs(), b.sorted_pairs());
}

#[test]
fn trait_object_methods_are_interchangeable() {
    let device = presets::ibmq_7(5);
    let qufem = QuFem::characterize(&device, fast_config(5)).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let ibu = Ibu::characterize(&device, 500, &mut rng).unwrap();
    let methods: Vec<&dyn Mitigator> = vec![&qufem, &ibu];

    let measured = QubitSet::full(7);
    let ideal = Algorithm::Ghz.ideal_distribution(7, 3);
    let noisy = device.measure_distribution(&ideal, &measured, 1000, &mut rng);
    for m in methods {
        let out = m.calibrate(&noisy, &measured).unwrap();
        assert!(!out.is_empty(), "{} returned an empty distribution", m.name());
        assert!(m.heap_bytes() > 0);
    }
}

/// The two halves of the `PreparedMitigator` apply contract hold for every
/// registered method: `apply` is exactly `apply_with_stats` with a
/// throwaway stats struct, and a method that does not report engine stats
/// leaves the caller's struct untouched.
#[test]
fn every_registry_method_honours_the_prepared_apply_contract() {
    let device = presets::ibmq_7(2);
    let qufem = QuFem::characterize(&device, fast_config(2)).unwrap();
    let snapshot = qufem.iterations().first().expect("characterized").snapshot();
    let registry = qufem::baselines::standard_registry(qufem.config().clone());
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    for id in registry.ids() {
        let method = registry.build(&id, snapshot, &qufem::MethodOptions::new()).unwrap();
        for measured in [QubitSet::full(7), [0usize, 2, 4].into_iter().collect()] {
            let ideal = Algorithm::Qsvm.ideal_distribution(measured.len(), 4);
            let noisy = device.measure_distribution(&ideal, &measured, 1500, &mut rng);
            let prepared = method.prepare(&measured).unwrap();
            let context = format!("method {id}, measured {measured:?}");

            let plain = prepared.apply(&noisy).unwrap();
            let mut stats = qufem::EngineStats::default();
            let with_stats = prepared.apply_with_stats(&noisy, &mut stats).unwrap();
            let bits = |d: &qufem::ProbDist| -> Vec<(qufem::BitString, u64)> {
                d.sorted_pairs().into_iter().map(|(k, v)| (k, v.to_bits())).collect()
            };
            assert_eq!(bits(&plain), bits(&with_stats), "apply vs apply_with_stats: {context}");
            if prepared.reports_engine_stats() {
                assert!(stats.products > 0, "engine stats must move: {context}");
            } else {
                assert_eq!(stats, qufem::EngineStats::default(), "stats touched: {context}");
            }
        }
    }
}
