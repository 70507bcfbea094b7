//! Cross-validation: the analytic ideal distributions used by the
//! experiment harness must match real gate-level circuit semantics for the
//! deterministic algorithms.

use qufem_circuits::{Algorithm, Circuit};
use qufem_metrics::hellinger_fidelity;
use qufem_types::BitString;

#[test]
fn ghz_analytic_matches_circuit_for_all_small_sizes() {
    for n in 2..=10usize {
        let circuit_dist = Circuit::ghz(n).simulate().probabilities(1e-12);
        let analytic = qufem_circuits::ghz(n);
        assert!(
            hellinger_fidelity(&circuit_dist, &analytic) > 1.0 - 1e-9,
            "GHZ({n}) circuit diverges from analytic distribution"
        );
    }
}

#[test]
fn bv_circuit_is_a_point_mass_on_a_nonzero_secret() {
    for seed in 0..5u64 {
        let c = Algorithm::BernsteinVazirani.circuit(8, seed).expect("BV has a circuit");
        let dist = c.simulate().probabilities(1e-9);
        assert_eq!(dist.support_len(), 1, "BV output must be deterministic");
        let (outcome, p) = dist.argmax().unwrap();
        assert!((p - 1.0).abs() < 1e-9);
        assert!(outcome.count_ones() > 0, "secret must be nonzero");
    }
}

#[test]
fn dj_circuit_point_mass_distinguishes_constant_from_balanced() {
    for seed in 0..8u64 {
        let c = Algorithm::DeutschJozsa.circuit(6, seed).expect("DJ has a circuit");
        let dist = c.simulate().probabilities(1e-9);
        assert_eq!(dist.support_len(), 1);
        // Constant → all-zeros; balanced → nonzero. Either way deterministic.
        let (_, p) = dist.argmax().unwrap();
        assert!((p - 1.0).abs() < 1e-9);
    }
}

#[test]
fn variational_circuits_are_broad_like_their_analytic_stand_ins() {
    // Average support over several parameter seeds: individual random
    // parameter sets can concentrate, but the ensemble is broad.
    let mut total_support = 0usize;
    for seed in 0..4u64 {
        let c = Algorithm::Vqc.circuit(8, seed).expect("VQC has a circuit");
        let dist = c.simulate().probabilities(1e-9);
        assert!((dist.total_mass() - 1.0).abs() < 1e-6);
        total_support += dist.support_len();
    }
    assert!(total_support / 4 > 8, "ansatz outputs should be broad on average");
}

#[test]
fn hamiltonian_simulation_circuit_peaks_near_the_initial_state() {
    let c = Algorithm::HamiltonianSimulation.circuit(8, 0).expect("HS has a circuit");
    let dist = c.simulate().probabilities(1e-9);
    let zero = BitString::zeros(8);
    let (top, _) = dist.argmax().unwrap();
    assert_eq!(top, zero, "short-time Trotter evolution peaks at |0…0⟩");
}

#[test]
fn simon_has_no_library_circuit_but_has_a_distribution() {
    assert!(Algorithm::Simon.circuit(6, 0).is_none());
    let d = Algorithm::Simon.ideal_distribution(6, 0);
    assert!(d.support_len() > 1);
}

#[test]
fn circuits_respect_the_dense_simulation_bound() {
    assert!(Algorithm::Ghz.circuit(25, 0).is_none());
    assert!(Algorithm::Ghz.circuit(24, 0).is_some());
}
