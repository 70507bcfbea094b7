//! Dense statevector simulation of gate-level circuits.
//!
//! The QuFEM pipeline itself never needs amplitudes — calibration acts on
//! measured distributions — but a reference simulator lets the workload
//! library construct its benchmark circuits from actual gates and validates
//! that the analytic ideal distributions in [`crate::Algorithm`] match real
//! circuit semantics (see the `circuit_semantics` integration test).

use crate::complex::Complex;
use crate::gates::Gate;
use qufem_types::{BitString, ProbDist};

/// Dense register bound: a 24-qubit state holds 16M amplitudes (256 MiB).
const MAX_DENSE_QUBITS: usize = 24;

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// A dense statevector over `n ≤ 24` qubits.
///
/// Amplitude indexing follows the workspace convention: bit `q` of an index
/// (LSB = qubit 0) is qubit `q`'s basis value.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 24` (dense amplitudes would exceed 256 MiB).
    pub fn zero_state(n: usize) -> Self {
        assert!(
            n <= MAX_DENSE_QUBITS,
            "dense statevector limited to {MAX_DENSE_QUBITS} qubits, got {n}"
        );
        let mut amps = vec![Complex::ZERO; 1usize << n];
        amps[0] = Complex::ONE;
        StateVector { n, amps }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// The amplitude of a basis index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    pub fn amplitude(&self, index: usize) -> Complex {
        self.amps[index]
    }

    /// Total probability (should stay 1 under unitary gates).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Applies a single-qubit unitary given by its 2×2 matrix entries
    /// `[[a, b], [c, d]]` to qubit `q`.
    fn apply_1q(&mut self, q: usize, a: Complex, b: Complex, c: Complex, d: Complex) {
        let stride = 1usize << q;
        let dim = self.amps.len();
        let mut base = 0;
        while base < dim {
            for offset in base..base + stride {
                let i0 = offset;
                let i1 = offset + stride;
                let (x0, x1) = (self.amps[i0], self.amps[i1]);
                self.amps[i0] = a * x0 + b * x1;
                self.amps[i1] = c * x0 + d * x1;
            }
            base += stride << 1;
        }
    }

    /// Applies a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a qubit outside the register.
    pub fn apply(&mut self, gate: Gate) {
        for q in gate.qubits() {
            assert!(q < self.n, "gate qubit {q} outside register of {}", self.n);
        }
        match gate {
            Gate::H(q) => {
                let h = Complex::new(FRAC_1_SQRT_2, 0.0);
                self.apply_1q(q, h, h, h, -h);
            }
            Gate::X(q) => {
                self.apply_1q(q, Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO)
            }
            Gate::Y(q) => self.apply_1q(q, Complex::ZERO, -Complex::I, Complex::I, Complex::ZERO),
            Gate::Z(q) => {
                self.apply_1q(q, Complex::ONE, Complex::ZERO, Complex::ZERO, -Complex::ONE)
            }
            Gate::Sx(q) => {
                // √X = ½[[1+i, 1−i], [1−i, 1+i]].
                let p = Complex::new(0.5, 0.5);
                let m = Complex::new(0.5, -0.5);
                self.apply_1q(q, p, m, m, p);
            }
            Gate::Rx(q, theta) => {
                let c = Complex::new((theta / 2.0).cos(), 0.0);
                let s = Complex::new(0.0, -(theta / 2.0).sin());
                self.apply_1q(q, c, s, s, c);
            }
            Gate::Ry(q, theta) => {
                let c = Complex::new((theta / 2.0).cos(), 0.0);
                let s = Complex::new((theta / 2.0).sin(), 0.0);
                self.apply_1q(q, c, -s, s, c);
            }
            Gate::Rz(q, theta) => {
                let neg = Complex::from_phase(-theta / 2.0);
                let pos = Complex::from_phase(theta / 2.0);
                self.apply_1q(q, neg, Complex::ZERO, Complex::ZERO, pos);
            }
            Gate::Cx(control, target) => {
                let cm = 1usize << control;
                let tm = 1usize << target;
                for i in 0..self.amps.len() {
                    if i & cm != 0 && i & tm == 0 {
                        self.amps.swap(i, i | tm);
                    }
                }
            }
            Gate::Cz(a, b) => {
                let mask = (1usize << a) | (1usize << b);
                for (i, amp) in self.amps.iter_mut().enumerate() {
                    if i & mask == mask {
                        *amp = -*amp;
                    }
                }
            }
            Gate::Swap(a, b) => {
                let am = 1usize << a;
                let bm = 1usize << b;
                for i in 0..self.amps.len() {
                    if i & am != 0 && i & bm == 0 {
                        self.amps.swap(i, (i & !am) | bm);
                    }
                }
            }
            Gate::Ccx(c1, c2, target) => {
                let cm = (1usize << c1) | (1usize << c2);
                let tm = 1usize << target;
                for i in 0..self.amps.len() {
                    if i & cm == cm && i & tm == 0 {
                        self.amps.swap(i, i | tm);
                    }
                }
            }
        }
    }

    /// The measurement distribution of the state, dropping outcomes with
    /// probability below `threshold`.
    pub fn probabilities(&self, threshold: f64) -> ProbDist {
        let mut dist = ProbDist::new(self.n);
        for (index, amp) in self.amps.iter().enumerate() {
            let p = amp.norm_sqr();
            if p > threshold {
                dist.add(BitString::from_index(index, self.n).expect("index < 2^n"), p);
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::Circuit;
    use qufem_types::BitString;

    fn bs(s: &str) -> BitString {
        BitString::from_binary_str(s).unwrap()
    }

    #[test]
    fn zero_state_is_point_mass() {
        let sv = StateVector::zero_state(3);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
        let p = sv.probabilities(0.0);
        assert_eq!(p.support_len(), 1);
        assert!((p.prob(&bs("000")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_flips_a_qubit() {
        let mut sv = StateVector::zero_state(2);
        sv.apply(Gate::X(1));
        let p = sv.probabilities(0.0);
        assert!((p.prob(&bs("01")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn h_creates_uniform_superposition() {
        let mut sv = StateVector::zero_state(1);
        sv.apply(Gate::H(0));
        let p = sv.probabilities(0.0);
        assert!((p.prob(&bs("0")) - 0.5).abs() < 1e-12);
        assert!((p.prob(&bs("1")) - 0.5).abs() < 1e-12);
        // H is self-inverse.
        sv.apply(Gate::H(0));
        assert!((sv.probabilities(1e-12).prob(&bs("0")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_circuit_matches_analytic() {
        for n in [2usize, 3, 5, 8] {
            let p = Circuit::ghz(n).simulate().probabilities(1e-12);
            let analytic = crate::ghz(n);
            for (k, v) in analytic.iter() {
                assert!((p.prob(&k) - v).abs() < 1e-9, "GHZ({n}) mismatch at {k}");
            }
            assert_eq!(p.support_len(), 2);
        }
    }

    #[test]
    fn bv_circuit_reveals_the_secret() {
        let secret = bs("1011");
        let p = Circuit::bernstein_vazirani(&secret).simulate().probabilities(1e-9);
        assert_eq!(p.support_len(), 1);
        assert!((p.prob(&secret) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dj_constant_returns_zero_string() {
        let p = Circuit::deutsch_jozsa(4, None).simulate().probabilities(1e-9);
        assert!((p.prob(&bs("0000")) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dj_balanced_never_returns_zero_string() {
        let mask = bs("0110");
        let p = Circuit::deutsch_jozsa(4, Some(&mask)).simulate().probabilities(1e-9);
        assert_eq!(p.prob(&bs("0000")), 0.0);
        // The phase-oracle DJ returns exactly the mask.
        assert!((p.prob(&mask) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cx_entangles_and_cz_is_symmetric() {
        // Bell state probabilities.
        let mut sv = StateVector::zero_state(2);
        sv.apply(Gate::H(0));
        sv.apply(Gate::Cx(0, 1));
        let p = sv.probabilities(1e-12);
        assert!((p.prob(&bs("00")) - 0.5).abs() < 1e-12);
        assert!((p.prob(&bs("11")) - 0.5).abs() < 1e-12);

        // CZ(a, b) == CZ(b, a) on a random-ish state.
        let mut a = StateVector::zero_state(2);
        a.apply(Gate::H(0));
        a.apply(Gate::H(1));
        let mut b = a.clone();
        a.apply(Gate::Cz(0, 1));
        b.apply(Gate::Cz(1, 0));
        assert_eq!(a, b);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut sv = StateVector::zero_state(2);
        sv.apply(Gate::X(0));
        sv.apply(Gate::Swap(0, 1));
        assert!((sv.probabilities(0.0).prob(&bs("01")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn toffoli_truth_table() {
        for (c1, c2, expect_flip) in
            [(false, false, false), (true, false, false), (false, true, false), (true, true, true)]
        {
            let mut sv = StateVector::zero_state(3);
            if c1 {
                sv.apply(Gate::X(0));
            }
            if c2 {
                sv.apply(Gate::X(1));
            }
            sv.apply(Gate::Ccx(0, 1, 2));
            let p = sv.probabilities(0.0);
            let expected: BitString = [c1, c2, expect_flip].into_iter().collect();
            assert!((p.prob(&expected) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rotations_preserve_norm_and_compose() {
        let mut sv = StateVector::zero_state(1);
        sv.apply(Gate::Ry(0, 0.7));
        sv.apply(Gate::Rx(0, 1.3));
        sv.apply(Gate::Rz(0, -0.4));
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
        // Ry(θ) then Ry(−θ) is identity.
        let mut back = StateVector::zero_state(1);
        back.apply(Gate::Ry(0, 0.7));
        back.apply(Gate::Ry(0, -0.7));
        assert!((back.probabilities(0.0).prob(&bs("0")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sx_squared_is_x() {
        let mut sv = StateVector::zero_state(1);
        sv.apply(Gate::Sx(0));
        sv.apply(Gate::Sx(0));
        assert!((sv.probabilities(0.0).prob(&bs("1")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ansatz_output_is_normalized_and_broad() {
        let c = Circuit::hardware_efficient_ansatz(6, 3, 4);
        let sv = c.simulate();
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
        let p = sv.probabilities(1e-6);
        assert!(p.support_len() > 8, "ansatz should spread over many strings");
    }

    #[test]
    fn trotter_short_time_stays_near_initial_state() {
        let c = Circuit::trotterized_ising(5, 2, 0.05);
        let p = c.simulate().probabilities(1e-12);
        assert!(p.prob(&bs("00000")) > 0.8, "short-time evolution stays near |0…0⟩");
    }

    #[test]
    #[should_panic(expected = "limited to 24 qubits")]
    fn dense_bound_enforced() {
        let _ = StateVector::zero_state(25);
    }
}
