//! Distance and fidelity metrics used throughout the QuFEM evaluation.
//!
//! * [`hellinger_fidelity`] — the paper's circuit-output fidelity measure
//!   (§6.1, citing Luo & Zhang).
//! * [`relative_fidelity`] — fidelity after calibration divided by fidelity
//!   before (paper Figure 9); `> 1` means calibration helped, `< 1` marks a
//!   calibration failure.
//! * [`total_variation_distance`], [`kl_divergence`] — auxiliary
//!   distribution distances.
//! * [`hilbert_schmidt_distance`] — the matrix-accuracy measure of the
//!   paper's Table 1 (Eq. 5).
//!
//! # Example
//!
//! ```
//! use qufem_types::{BitString, ProbDist, QubitSet};
//! use qufem_metrics::hellinger_fidelity;
//!
//! let p = ProbDist::point_mass(BitString::zeros(2));
//! let q = ProbDist::point_mass(BitString::zeros(2));
//! assert!((hellinger_fidelity(&p, &q) - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use qufem_linalg::Matrix;
use qufem_types::{BitString, ProbDist, QubitSet};

/// Union of the supports of two distributions as packed key words, in
/// deterministic ([`BitString`]) order.
fn joint_support<'a>(p: &'a ProbDist, q: &'a ProbDist) -> Vec<&'a [u64]> {
    let (pi, qi) = (p.as_index(), q.as_index());
    let mut keys: Vec<&[u64]> = pi.iter().chain(qi.iter()).map(|(_, words, _)| words).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The value `dist` assigns to the outcome packed as `words` (0.0 if absent).
fn value_at(dist: &ProbDist, words: &[u64]) -> f64 {
    let index = dist.as_index();
    index.get(words).map_or(0.0, |id| index.value(id))
}

/// Hellinger fidelity between two distributions:
/// `F(p, q) = (Σ_x √(p(x) · q(x)))²`.
///
/// Negative quasi-probability entries are treated as zero (they carry no
/// overlap). The result lies in `[0, 1]` for normalized inputs, with 1 for
/// identical distributions.
pub fn hellinger_fidelity(p: &ProbDist, q: &ProbDist) -> f64 {
    let mut bc = 0.0; // Bhattacharyya coefficient
    for key in joint_support(p, q) {
        let a = value_at(p, key).max(0.0);
        let b = value_at(q, key).max(0.0);
        bc += (a * b).sqrt();
    }
    bc * bc
}

/// Hellinger distance `√(1 − √F)` scaled into `[0, 1]`.
pub fn hellinger_distance(p: &ProbDist, q: &ProbDist) -> f64 {
    (1.0 - hellinger_fidelity(p, q).sqrt()).max(0.0).sqrt()
}

/// Total variation distance `½ Σ_x |p(x) − q(x)|`.
pub fn total_variation_distance(p: &ProbDist, q: &ProbDist) -> f64 {
    let mut s = 0.0;
    for key in joint_support(p, q) {
        s += (value_at(p, key) - value_at(q, key)).abs();
    }
    s / 2.0
}

/// Kullback–Leibler divergence `Σ_x p(x) · ln(p(x)/q(x))`, in nats.
///
/// Outcomes where `p(x) ≤ 0` contribute zero; outcomes with `p(x) > 0` but
/// `q(x) ≤ 0` make the divergence infinite.
pub fn kl_divergence(p: &ProbDist, q: &ProbDist) -> f64 {
    let mut s = 0.0;
    for (_, key, pv) in p.as_index().iter() {
        if pv <= 0.0 {
            continue;
        }
        let qv = value_at(q, key);
        if qv <= 0.0 {
            return f64::INFINITY;
        }
        s += pv * (pv / qv).ln();
    }
    s
}

/// Relative fidelity (paper Figure 9):
/// `F(calibrated, ideal) / F(measured, ideal)`.
///
/// Values above 1 mean calibration improved the output; below 1 marks a
/// calibration failure. Returns `f64::INFINITY` if the uncalibrated fidelity
/// is zero while the calibrated one is positive.
pub fn relative_fidelity(ideal: &ProbDist, measured: &ProbDist, calibrated: &ProbDist) -> f64 {
    let before = hellinger_fidelity(measured, ideal);
    let after = hellinger_fidelity(calibrated, ideal);
    if before == 0.0 {
        if after == 0.0 {
            return 1.0;
        }
        return f64::INFINITY;
    }
    after / before
}

/// Hilbert–Schmidt distance between two matrices (paper Eq. 5).
///
/// The paper writes `D = 1 − |Tr(M† M′)| / d²`; literally applied, that
/// expression is not 0 for `M = M′` (for stochastic matrices near identity
/// `Tr(M† M) ≈ d`, giving `D ≈ 1 − 1/d`). We use the standard normalized
/// form `D = 1 − |Tr(M† M′)| / (‖M‖_F · ‖M′‖_F)`, which is 0 exactly when
/// the matrices are proportional and matches the qualitative use in the
/// paper's Table 1 (golden matrix scores 0, worse approximations score
/// higher).
///
/// # Panics
///
/// Panics if the matrices are not square of equal dimension.
pub fn hilbert_schmidt_distance(m: &Matrix, m_prime: &Matrix) -> f64 {
    assert!(m.is_square() && m_prime.is_square(), "HS distance requires square matrices");
    assert_eq!(m.rows(), m_prime.rows(), "HS distance requires equal dimensions");
    // Tr(M† M') = Σ_ij M[i][j] · M'[i][j] for real matrices.
    let mut tr = 0.0;
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            tr += m.get(r, c) * m_prime.get(r, c);
        }
    }
    // Normalize like the paper: the overlap of two identical column-stochastic
    // matrices close to identity approaches d, and the d² denominator comes
    // from Eq. 5 verbatim; we keep the trace normalized by d so that
    // D(M, M) = 0 and D grows with disagreement.
    1.0 - (tr.abs() / (m.frobenius_norm() * m_prime.frobenius_norm()))
}

/// Hilbert–Schmidt distance computed on the *noise residuals* `M − I`:
/// `D = 1 − |Tr((M−I)† (M′−I))| / (‖M−I‖_F · ‖M′−I‖_F)`.
///
/// Readout noise matrices sit very close to the identity, so the plain
/// [`hilbert_schmidt_distance`] saturates near 0 for every plausible
/// formulation on small devices. Removing the identity compares the *error
/// structure* itself, which is what distinguishes a crosstalk-aware
/// formulation from a qubit-independent one (the contrast the paper's
/// Table 1 draws at 80 qubits).
///
/// Returns 0 when either residual is numerically zero (noise-free inputs).
///
/// # Panics
///
/// Panics if the matrices are not square of equal dimension.
pub fn residual_hs_distance(m: &Matrix, m_prime: &Matrix) -> f64 {
    assert!(m.is_square() && m_prime.is_square(), "HS distance requires square matrices");
    assert_eq!(m.rows(), m_prime.rows(), "HS distance requires equal dimensions");
    let d = m.rows();
    let mut tr = 0.0;
    let mut norm_a = 0.0;
    let mut norm_b = 0.0;
    for r in 0..d {
        for c in 0..d {
            let id = if r == c { 1.0 } else { 0.0 };
            let a = m.get(r, c) - id;
            let b = m_prime.get(r, c) - id;
            tr += a * b;
            norm_a += a * a;
            norm_b += b * b;
        }
    }
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    (1.0 - tr.abs() / (norm_a.sqrt() * norm_b.sqrt())).max(0.0)
}

/// Readout-error-weighted success probability: the probability mass the
/// distribution assigns to the single correct answer `expected`.
pub fn success_probability(dist: &ProbDist, expected: &BitString) -> f64 {
    dist.prob(expected).max(0.0)
}

/// Expectation value of a tensor of Pauli-Z operators on the qubits in
/// `support`: `⟨Z_S⟩ = Σ_x p(x) · (−1)^{|x ∧ S|}`.
///
/// This is the quantity most variational algorithms ultimately consume;
/// calibrating the distribution first and evaluating `expectation_z` on the
/// result is the paper's intended downstream use. Quasi-probability inputs
/// are supported (the expectation is linear).
///
/// # Panics
///
/// Panics if `support` references a bit outside the distribution width.
pub fn expectation_z(dist: &ProbDist, support: &QubitSet) -> f64 {
    let mut value = 0.0;
    for (key, p) in dist.iter() {
        let parity = support.iter().filter(|&q| key.get(q)).count() % 2;
        value += if parity == 0 { p } else { -p };
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_types::BitString;

    fn bs(s: &str) -> BitString {
        BitString::from_binary_str(s).unwrap()
    }

    fn dist(pairs: &[(&str, f64)]) -> ProbDist {
        let width = pairs[0].0.len();
        ProbDist::from_pairs(width, pairs.iter().map(|(k, v)| (bs(k), *v))).unwrap()
    }

    #[test]
    fn hellinger_identical_is_one() {
        let p = dist(&[("00", 0.5), ("11", 0.5)]);
        assert!((hellinger_fidelity(&p, &p) - 1.0).abs() < 1e-12);
        assert!(hellinger_distance(&p, &p) < 1e-9);
    }

    #[test]
    fn hellinger_disjoint_is_zero() {
        let p = dist(&[("00", 1.0)]);
        let q = dist(&[("11", 1.0)]);
        assert_eq!(hellinger_fidelity(&p, &q), 0.0);
        assert!((hellinger_distance(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hellinger_known_value() {
        let p = dist(&[("0", 0.5), ("1", 0.5)]);
        let q = dist(&[("0", 1.0)]);
        // BC = sqrt(0.5), F = 0.5.
        assert!((hellinger_fidelity(&p, &q) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hellinger_ignores_negative_quasiprobs() {
        let p = dist(&[("0", 1.0), ("1", -0.1)]);
        let q = dist(&[("0", 1.0)]);
        assert!((hellinger_fidelity(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tvd_basic() {
        let p = dist(&[("0", 0.8), ("1", 0.2)]);
        let q = dist(&[("0", 0.6), ("1", 0.4)]);
        assert!((total_variation_distance(&p, &q) - 0.2).abs() < 1e-12);
        assert_eq!(total_variation_distance(&p, &p), 0.0);
    }

    #[test]
    fn kl_divergence_cases() {
        let p = dist(&[("0", 0.5), ("1", 0.5)]);
        let q = dist(&[("0", 0.75), ("1", 0.25)]);
        let expected = 0.5 * (0.5f64 / 0.75).ln() + 0.5 * (0.5f64 / 0.25).ln();
        assert!((kl_divergence(&p, &q) - expected).abs() < 1e-12);
        assert_eq!(kl_divergence(&p, &p), 0.0);
        let r = dist(&[("0", 1.0)]);
        assert_eq!(kl_divergence(&p, &r), f64::INFINITY);
    }

    #[test]
    fn relative_fidelity_improvement() {
        let ideal = dist(&[("00", 0.5), ("11", 0.5)]);
        let measured = dist(&[("00", 0.4), ("11", 0.4), ("01", 0.1), ("10", 0.1)]);
        let calibrated = dist(&[("00", 0.49), ("11", 0.49), ("01", 0.01), ("10", 0.01)]);
        let rf = relative_fidelity(&ideal, &measured, &calibrated);
        assert!(rf > 1.0, "calibration should improve fidelity, got {rf}");
    }

    #[test]
    fn relative_fidelity_failure_below_one() {
        let ideal = dist(&[("0", 1.0)]);
        let measured = dist(&[("0", 0.9), ("1", 0.1)]);
        let worse = dist(&[("0", 0.5), ("1", 0.5)]);
        assert!(relative_fidelity(&ideal, &measured, &worse) < 1.0);
    }

    #[test]
    fn relative_fidelity_zero_baseline() {
        let ideal = dist(&[("0", 1.0)]);
        let measured = dist(&[("1", 1.0)]);
        let calibrated = dist(&[("0", 1.0)]);
        assert_eq!(relative_fidelity(&ideal, &measured, &calibrated), f64::INFINITY);
        assert_eq!(relative_fidelity(&ideal, &measured, &measured), 1.0);
    }

    #[test]
    fn hs_distance_zero_for_identical() {
        let m = Matrix::from_rows(&[&[0.95, 0.1], &[0.05, 0.9]]).unwrap();
        assert!(hilbert_schmidt_distance(&m, &m) < 1e-12);
    }

    #[test]
    fn hs_distance_grows_with_disagreement() {
        let real = Matrix::from_rows(&[&[0.9, 0.2], &[0.1, 0.8]]).unwrap();
        let close = Matrix::from_rows(&[&[0.89, 0.21], &[0.11, 0.79]]).unwrap();
        let far = Matrix::identity(2);
        let d_close = hilbert_schmidt_distance(&real, &close);
        let d_far = hilbert_schmidt_distance(&real, &far);
        assert!(d_close < d_far, "closer matrix should have smaller HS distance");
        assert!(d_close >= 0.0);
    }

    #[test]
    fn residual_hs_discriminates_crosstalk_structure() {
        // "Real" noise: q0's error depends on q1's state (column 2 differs).
        let real = Matrix::from_rows(&[
            &[0.97, 0.02, 0.92, 0.02],
            &[0.01, 0.96, 0.06, 0.02],
            &[0.01, 0.01, 0.01, 0.03],
            &[0.01, 0.01, 0.01, 0.93],
        ])
        .unwrap();
        // Crosstalk-aware approximation (close to real).
        let aware = Matrix::from_rows(&[
            &[0.96, 0.02, 0.91, 0.02],
            &[0.02, 0.96, 0.07, 0.02],
            &[0.01, 0.01, 0.01, 0.03],
            &[0.01, 0.01, 0.01, 0.93],
        ])
        .unwrap();
        // Qubit-independent approximation (misses the column-2 structure).
        let blind = Matrix::from_rows(&[
            &[0.96, 0.02, 0.02, 0.001],
            &[0.02, 0.96, 0.001, 0.02],
            &[0.01, 0.01, 0.96, 0.02],
            &[0.01, 0.01, 0.02, 0.949],
        ])
        .unwrap();
        let d_aware = residual_hs_distance(&real, &aware);
        let d_blind = residual_hs_distance(&real, &blind);
        assert!(d_aware < d_blind, "aware {d_aware} should beat blind {d_blind}");
        assert!(residual_hs_distance(&real, &real) < 1e-12);
    }

    #[test]
    fn residual_hs_zero_for_noise_free() {
        let id = Matrix::identity(4);
        let m = Matrix::from_rows(&[&[0.9, 0.1], &[0.1, 0.9]]).unwrap();
        assert_eq!(residual_hs_distance(&Matrix::identity(2), &m), 0.0);
        assert_eq!(residual_hs_distance(&id, &id), 0.0);
    }

    #[test]
    fn expectation_z_known_values() {
        use qufem_types::QubitSet;
        // ⟨ZZ⟩ of a GHZ state is +1; ⟨ZI⟩ is 0.
        let ghz = dist(&[("00", 0.5), ("11", 0.5)]);
        let both: QubitSet = [0usize, 1].into_iter().collect();
        let first: QubitSet = [0usize].into_iter().collect();
        assert!((expectation_z(&ghz, &both) - 1.0).abs() < 1e-12);
        assert!(expectation_z(&ghz, &first).abs() < 1e-12);
        // Point mass |01⟩: ⟨Z_1⟩ = −1 (bit 1 set), ⟨Z_0⟩ = +1.
        let pm = dist(&[("01", 1.0)]);
        let second: QubitSet = [1usize].into_iter().collect();
        assert!((expectation_z(&pm, &second) + 1.0).abs() < 1e-12);
        assert!((expectation_z(&pm, &first) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_z_is_linear_in_quasiprobs() {
        use qufem_types::QubitSet;
        let q = dist(&[("0", 1.1), ("1", -0.1)]);
        let s: QubitSet = [0usize].into_iter().collect();
        assert!((expectation_z(&q, &s) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn success_probability_reads_expected_mass() {
        let p = dist(&[("01", 0.7), ("11", 0.3)]);
        assert!((success_probability(&p, &bs("01")) - 0.7).abs() < 1e-12);
        assert_eq!(success_probability(&p, &bs("00")), 0.0);
    }
}
