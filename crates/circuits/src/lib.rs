//! Quantum-algorithm workloads for the QuFEM evaluation.
//!
//! The calibration methods under study consume *(ideal distribution, noisy
//! measured distribution)* pairs; the quantum circuit itself only matters
//! through its ideal output distribution. This crate therefore provides the
//! analytic ideal outputs of the seven algorithms in the paper's benchmark
//! suite (§6.1) and the synthetic distribution shapes used for the
//! scalability experiments:
//!
//! * [`Algorithm`] — GHZ, Bernstein–Vazirani, Deutsch–Jozsa, Simon, VQC,
//!   QSVM, Hamiltonian simulation.
//! * [`synthetic`] — Gaussian, uniform, and spike-like distributions with a
//!   configurable number of nonzero bit strings (paper §6.1: "1000
//!   probability distributions … each involves 200 bit-strings").
//!
//! # Example
//!
//! ```
//! use qufem_circuits::Algorithm;
//!
//! let ghz = Algorithm::Ghz.ideal_distribution(5, 0);
//! assert_eq!(ghz.support_len(), 2);
//! assert!((ghz.total_mass() - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod complex;
mod gates;
pub mod sim;
pub mod synthetic;

pub use gates::{Circuit, Gate};

use qufem_types::{BitString, ProbDist};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Upper bound on the support size of analytically exponential outputs
/// (Simon's algorithm); beyond this the uniform coset is subsampled.
pub const MAX_ANALYTIC_SUPPORT: usize = 4096;

/// The seven benchmark algorithms of the QuFEM evaluation (paper §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Greenberger–Horne–Zeilinger state preparation: `½|0…0⟩ + ½|1…1⟩`.
    Ghz,
    /// Variational quantum classifier: a peaked, structured distribution.
    Vqc,
    /// Bernstein–Vazirani: a single secret bit string with probability 1.
    BernsteinVazirani,
    /// Simon's algorithm: uniform over the orthogonal complement of a secret.
    Simon,
    /// Quantum support vector machine: a broad structured distribution.
    Qsvm,
    /// Hamiltonian simulation: mass decaying with Hamming distance from a
    /// reference state.
    HamiltonianSimulation,
    /// Deutsch–Jozsa: a single deterministic outcome.
    DeutschJozsa,
}

impl Algorithm {
    /// All seven algorithms in the paper's Figure 9 order.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::Ghz,
        Algorithm::Vqc,
        Algorithm::BernsteinVazirani,
        Algorithm::Simon,
        Algorithm::Qsvm,
        Algorithm::HamiltonianSimulation,
        Algorithm::DeutschJozsa,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Ghz => "GHZ",
            Algorithm::Vqc => "VQC",
            Algorithm::BernsteinVazirani => "BV",
            Algorithm::Simon => "Simon",
            Algorithm::Qsvm => "QSVM",
            Algorithm::HamiltonianSimulation => "HS",
            Algorithm::DeutschJozsa => "DJ",
        }
    }

    /// The ideal (noise-free) output distribution on `n` qubits.
    ///
    /// `seed` fixes the pseudo-random structure of the VQC/QSVM/HS outputs
    /// and the secret strings of BV/Simon/DJ, so that a single workload can
    /// be regenerated identically by characterization and evaluation code.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn ideal_distribution(self, n: usize, seed: u64) -> ProbDist {
        assert!(n > 0, "algorithms need at least one qubit");
        // Mix the algorithm tag into the seed so different algorithms on the
        // same seed do not share secrets.
        let tag = self as u64 + 1;
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag);
        match self {
            Algorithm::Ghz => ghz(n),
            Algorithm::BernsteinVazirani => point_mass_random(n, &mut rng),
            Algorithm::DeutschJozsa => {
                // Constant oracle → all-zeros; balanced → nonzero string.
                if rng.gen::<bool>() {
                    ProbDist::point_mass(BitString::zeros(n))
                } else {
                    let mut s = random_nonzero_string(n, &mut rng);
                    s.set(0, true); // guarantee nonzero deterministically
                    ProbDist::point_mass(s)
                }
            }
            Algorithm::Simon => simon(n, &mut rng),
            Algorithm::Vqc => peaked_structured(n, 24, 3.0, &mut rng),
            Algorithm::Qsvm => peaked_structured(n, 48, 1.5, &mut rng),
            Algorithm::HamiltonianSimulation => hamming_decay(n, &mut rng),
        }
    }
}

impl Algorithm {
    /// A gate-level circuit implementing this algorithm on `n ≤ 24` qubits,
    /// when one exists in the library ([`Circuit`]); `None` for algorithms
    /// whose circuit needs ancillas or oracles beyond the gate set (Simon)
    /// or for registers beyond the dense-simulation bound.
    ///
    /// The deterministic algorithms' circuits reproduce
    /// [`Algorithm::ideal_distribution`] exactly (validated by the
    /// `circuit_semantics` tests); the variational/Hamiltonian circuits are
    /// representative gate sequences whose *shape* (broad vs. peaked)
    /// matches the analytic workloads.
    pub fn circuit(self, n: usize, seed: u64) -> Option<Circuit> {
        if n == 0 || n > 24 {
            return None;
        }
        let tag = self as u64 + 1;
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag);
        match self {
            Algorithm::Ghz => Some(Circuit::ghz(n)),
            Algorithm::BernsteinVazirani => {
                Some(Circuit::bernstein_vazirani(&random_nonzero_string(n, &mut rng)))
            }
            Algorithm::DeutschJozsa => {
                if rng.gen::<bool>() {
                    Some(Circuit::deutsch_jozsa(n, None))
                } else {
                    let mut mask = random_nonzero_string(n, &mut rng);
                    mask.set(0, true);
                    Some(Circuit::deutsch_jozsa(n, Some(&mask)))
                }
            }
            Algorithm::Vqc => Some(Circuit::hardware_efficient_ansatz(n, 3, seed)),
            Algorithm::Qsvm => Some(Circuit::hardware_efficient_ansatz(n, 5, seed ^ 0x51)),
            Algorithm::HamiltonianSimulation => Some(Circuit::trotterized_ising(n, 3, 0.2)),
            Algorithm::Simon => None,
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The GHZ ideal output on `n` qubits.
pub fn ghz(n: usize) -> ProbDist {
    let mut p = ProbDist::new(n);
    p.add(BitString::zeros(n), 0.5);
    p.add(BitString::ones(n), 0.5);
    p
}

fn random_nonzero_string<R: Rng + ?Sized>(n: usize, rng: &mut R) -> BitString {
    loop {
        let s: BitString = (0..n).map(|_| rng.gen::<bool>()).collect();
        if s.count_ones() > 0 {
            return s;
        }
    }
}

fn point_mass_random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> ProbDist {
    ProbDist::point_mass(random_nonzero_string(n, rng))
}

/// Simon's algorithm output: uniform over `{y : y·s = 0}` for a random
/// secret `s ≠ 0`. For `n - 1 > log2(MAX_ANALYTIC_SUPPORT)` the coset is
/// subsampled uniformly to [`MAX_ANALYTIC_SUPPORT`] strings.
fn simon<R: Rng + ?Sized>(n: usize, rng: &mut R) -> ProbDist {
    let secret = random_nonzero_string(n, rng);
    let mut p = ProbDist::new(n);
    let full_support = 1usize << (n - 1).min(62);
    if full_support <= MAX_ANALYTIC_SUPPORT {
        // Enumerate all y with y·s = 0 (even parity of AND with secret).
        for idx in 0..(1usize << n) {
            let y = BitString::from_index(idx, n).expect("index < 2^n");
            if dot_parity(&y, &secret) == 0 {
                p.add(y, 1.0 / full_support as f64);
            }
        }
    } else {
        let mut seen = std::collections::HashSet::new();
        while seen.len() < MAX_ANALYTIC_SUPPORT {
            let mut y: BitString = (0..n).map(|_| rng.gen::<bool>()).collect();
            // Project onto the orthogonal complement: if parity is odd, flip
            // one bit where the secret is set.
            if dot_parity(&y, &secret) == 1 {
                let pivot = secret.iter_ones().next().expect("secret is nonzero");
                y.flip(pivot);
            }
            seen.insert(y);
        }
        let mass = 1.0 / seen.len() as f64;
        for y in seen {
            p.add(y, mass);
        }
    }
    p
}

fn dot_parity(a: &BitString, b: &BitString) -> u8 {
    let mut parity = 0u8;
    for i in a.iter_ones() {
        if b.get(i) {
            parity ^= 1;
        }
    }
    parity
}

/// A peaked structured distribution: `n_peaks` random strings with softmax
/// weights at temperature `1 / sharpness` — the qualitative shape of
/// variational-circuit outputs.
fn peaked_structured<R: Rng + ?Sized>(
    n: usize,
    n_peaks: usize,
    sharpness: f64,
    rng: &mut R,
) -> ProbDist {
    let capped = n_peaks.min(1usize << n.min(20));
    let mut p = ProbDist::new(n);
    let mut weights = Vec::with_capacity(capped);
    let mut strings = Vec::with_capacity(capped);
    let mut seen = std::collections::HashSet::new();
    while strings.len() < capped {
        let s: BitString = (0..n).map(|_| rng.gen::<bool>()).collect();
        if seen.insert(s.clone()) {
            weights.push((rng.gen::<f64>() * sharpness).exp());
            strings.push(s);
        }
    }
    let total: f64 = weights.iter().sum();
    for (s, w) in strings.into_iter().zip(weights) {
        p.add(s, w / total);
    }
    p
}

/// Mass decaying exponentially with Hamming distance from a random reference
/// string — the shape of short-time Hamiltonian-simulation outputs.
fn hamming_decay<R: Rng + ?Sized>(n: usize, rng: &mut R) -> ProbDist {
    let center: BitString = (0..n).map(|_| rng.gen::<bool>()).collect();
    let mut p = ProbDist::new(n);
    let decay: f64 = 0.12;
    // Keep mass on the center plus 1- and 2-flip neighbours (subsampled).
    p.add(center.clone(), 1.0);
    let mut pairs_added = 0usize;
    for i in 0..n {
        p.add(center.with_flipped(i), decay);
        for j in (i + 1)..n {
            if pairs_added >= 4 * n {
                break;
            }
            if rng.gen::<f64>() < (8.0 / n as f64).min(1.0) {
                p.add(center.with_flipped(i).with_flipped(j), decay * decay);
                pairs_added += 1;
            }
        }
    }
    p.normalize().expect("distribution has positive mass");
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_shape() {
        let p = ghz(4);
        assert_eq!(p.support_len(), 2);
        assert!((p.prob(&BitString::zeros(4)) - 0.5).abs() < 1e-12);
        assert!((p.prob(&BitString::ones(4)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_algorithms_produce_normalized_distributions() {
        for alg in Algorithm::ALL {
            for n in [3usize, 7, 10] {
                let p = alg.ideal_distribution(n, 1);
                assert!(
                    (p.total_mass() - 1.0).abs() < 1e-9,
                    "{alg} on {n} qubits has mass {}",
                    p.total_mass()
                );
                assert_eq!(p.width(), n);
                assert!(p.support_len() > 0);
            }
        }
    }

    #[test]
    fn distributions_are_deterministic_in_seed() {
        for alg in Algorithm::ALL {
            let a = alg.ideal_distribution(7, 42);
            let b = alg.ideal_distribution(7, 42);
            assert_eq!(a.sorted_pairs(), b.sorted_pairs(), "{alg} not deterministic");
        }
    }

    #[test]
    fn different_algorithms_differ_on_same_seed() {
        let bv = Algorithm::BernsteinVazirani.ideal_distribution(7, 3);
        let dj = Algorithm::DeutschJozsa.ideal_distribution(7, 3);
        let vqc = Algorithm::Vqc.ideal_distribution(7, 3);
        assert!(bv.sorted_pairs() != vqc.sorted_pairs());
        assert!(dj.sorted_pairs() != vqc.sorted_pairs());
    }

    #[test]
    fn bv_is_point_mass() {
        let p = Algorithm::BernsteinVazirani.ideal_distribution(9, 5);
        assert_eq!(p.support_len(), 1);
        let (k, v) = p.argmax().unwrap();
        assert_eq!(v, 1.0);
        assert!(k.count_ones() > 0, "BV secret must be nonzero");
    }

    #[test]
    fn simon_small_is_uniform_over_half_space() {
        let p = Algorithm::Simon.ideal_distribution(5, 2);
        assert_eq!(p.support_len(), 16); // 2^(5-1)
        for (_, v) in p.iter() {
            assert!((v - 1.0 / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn simon_large_is_subsampled() {
        let p = Algorithm::Simon.ideal_distribution(20, 2);
        assert_eq!(p.support_len(), MAX_ANALYTIC_SUPPORT);
        assert!((p.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vqc_is_peaked() {
        let p = Algorithm::Vqc.ideal_distribution(10, 7);
        let (_, top) = p.argmax().unwrap();
        assert!(top > 1.0 / p.support_len() as f64, "softmax should concentrate mass");
        assert!(p.support_len() <= 24);
    }

    #[test]
    fn hs_mass_concentrates_near_center() {
        let p = Algorithm::HamiltonianSimulation.ideal_distribution(12, 9);
        let (center, top) = p.argmax().unwrap();
        assert!(top > 0.2);
        // Every outcome within Hamming distance 2 of the center.
        for (k, _) in p.iter() {
            assert!(k.hamming_distance(&center).unwrap() <= 2);
        }
    }
}
