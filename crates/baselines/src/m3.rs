//! The M3 (matrix-free measurement mitigation) baseline \[37\].

use crate::{Mitigator, PreparedMitigator, PreparedStateless, QubitMatrices};
use qufem_core::{benchgen, BenchmarkSnapshot};
use qufem_device::Device;
use qufem_linalg::{gmres, GmresOptions};
use qufem_types::{BitString, Error, ProbDist, QubitSet, Result, SupportIndex};
use rand::Rng;
use std::sync::Arc;

/// IBM's M3: restrict the assignment matrix to the *observed* bit strings,
/// prune entries beyond a Hamming-distance threshold, renormalize the
/// reduced columns, and solve the linear system matrix-free with GMRES.
///
/// The reduced matrix element for observed strings `x, y` is the tensor
/// product of per-qubit calibration matrices,
/// `Ã[x][y] = Π_q M_q[x_q][y_q] / colsum(y)`, zeroed when
/// `hamming(x, y) > D` (the paper sets `D = 3`).
///
/// M3's cost scales with the square of the observed support — the source of
/// its 45-qubit memory wall in the paper (Table 5). This implementation
/// enforces that wall explicitly via `max_subspace`.
#[derive(Debug, Clone)]
pub struct M3 {
    matrices: QubitMatrices,
    circuits: u64,
    /// Hamming-distance pruning threshold `D` (paper: 3).
    pub hamming_threshold: usize,
    /// Upper bound on the observed-subspace size (memory wall).
    pub max_subspace: usize,
    /// GMRES solver options.
    pub gmres: GmresOptions,
}

impl M3 {
    /// Characterizes per-qubit matrices with `2·N_q` circuits. (The original
    /// re-characterizes per calibration batch, which is how its Table 3
    /// circuit count grows as `O(N^3.1)`; the bench harness accounts for
    /// that separately.)
    ///
    /// # Errors
    ///
    /// Propagates matrix-estimation failures.
    pub fn characterize<R: Rng + ?Sized>(device: &Device, shots: u64, rng: &mut R) -> Result<Self> {
        let _span = qufem_telemetry::span!("characterize", "M3");
        let snapshot = benchgen::generate_qubit_independent(device, shots, rng);
        let circuits = snapshot.len() as u64;
        Ok(M3 {
            matrices: QubitMatrices::from_snapshot(&snapshot)?,
            circuits,
            hamming_threshold: 3,
            max_subspace: 16_384,
            gmres: GmresOptions::default(),
        })
    }

    /// Builds M3 from an existing benchmarking snapshot (e.g. QuFEM's
    /// `BP_1`) — the [`crate::standard_registry`] constructor.
    ///
    /// # Errors
    ///
    /// Propagates matrix-estimation failures.
    pub fn from_benchmarks(snapshot: &BenchmarkSnapshot) -> Result<Self> {
        let mut m3 = M3::from_matrices(QubitMatrices::from_snapshot(snapshot)?);
        m3.circuits = snapshot.len() as u64;
        Ok(m3)
    }

    /// Builds M3 directly from per-qubit matrices (tests, ablations).
    pub fn from_matrices(matrices: QubitMatrices) -> Self {
        M3 {
            matrices,
            circuits: 0,
            hamming_threshold: 3,
            max_subspace: 16_384,
            gmres: GmresOptions::default(),
        }
    }

    /// The reduced-subspace matrix dimension M3 would use for a
    /// distribution (its memory footprint is the square of this).
    pub fn subspace_dim(dist: &ProbDist) -> usize {
        dist.as_index().values().iter().filter(|&&p| p > 0.0).count()
    }

    /// The reduced-subspace GMRES solve itself, for one measured set.
    fn apply_to(&self, dist: &ProbDist, measured: &QubitSet) -> Result<ProbDist> {
        let positions: Vec<usize> = measured.iter().collect();
        dist.check_width(positions.len())?;
        let observed = SupportIndex::positive_from_dist(dist);
        if observed.is_empty() {
            return Ok(ProbDist::new(dist.width()));
        }
        let s = observed.len();
        if s > self.max_subspace {
            return Err(Error::ResourceExhausted(format!(
                "M3 reduced subspace of {s} strings exceeds the {}-string bound",
                self.max_subspace
            )));
        }
        let strings: Vec<BitString> = (0..s as u32).map(|id| observed.key(id)).collect();

        // Reduced matrix with Hamming pruning, stored sparsely per column,
        // columns renormalized over the subspace (M3's normalization step).
        // Hamming distances come straight off the interned key words
        // (XOR + popcount), skipping the O(s²) `BitString` comparisons.
        let mut columns: Vec<Vec<(usize, f64)>> = Vec::with_capacity(s);
        for (j, y) in strings.iter().enumerate() {
            let y_words = observed.key_words(j as u32);
            let mut col = Vec::new();
            let mut sum = 0.0;
            for (i, x) in strings.iter().enumerate() {
                let d = hamming_words(observed.key_words(i as u32), y_words);
                if d > self.hamming_threshold {
                    continue;
                }
                let v = self.matrices.forward_element(&positions, x, y);
                if v != 0.0 {
                    col.push((i, v));
                    sum += v;
                }
            }
            if sum <= 0.0 {
                // Degenerate column: fall back to identity behaviour.
                col = vec![(j, 1.0)];
                sum = 1.0;
            }
            for (_, v) in col.iter_mut() {
                *v /= sum;
            }
            columns.push(col);
        }

        let b: Vec<f64> = observed.values().to_vec();
        let apply = |v: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; s];
            for (j, col) in columns.iter().enumerate() {
                let vj = v[j];
                if vj == 0.0 {
                    continue;
                }
                for &(i, a) in col {
                    out[i] += a * vj;
                }
            }
            out
        };
        let outcome = gmres(apply, &b, &self.gmres)?;

        let mut out = ProbDist::new(dist.width());
        for (j, y) in strings.into_iter().enumerate() {
            if outcome.solution[j] != 0.0 {
                out.add(y, outcome.solution[j]);
            }
        }
        Ok(out)
    }
}

impl Mitigator for M3 {
    fn name(&self) -> &'static str {
        "M3"
    }

    fn prepare(&self, measured: &QubitSet) -> Result<Arc<dyn PreparedMitigator>> {
        let method = self.clone();
        let measured = measured.clone();
        Ok(PreparedStateless::boxed(
            "M3",
            measured.len(),
            self.matrices.heap_bytes(),
            move |dist| method.apply_to(dist, &measured),
        ))
    }

    fn n_benchmark_circuits(&self) -> u64 {
        self.circuits
    }

    fn heap_bytes(&self) -> usize {
        self.matrices.heap_bytes()
    }
}

/// Hamming distance between two equal-length packed key-word slices.
fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones() as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::test_support::independent_snapshot;
    use qufem_device::presets;
    use qufem_metrics::hellinger_fidelity;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn bs(s: &str) -> BitString {
        BitString::from_binary_str(s).unwrap()
    }

    fn exact_m3(eps: &[f64]) -> M3 {
        M3::from_matrices(QubitMatrices::from_snapshot(&independent_snapshot(eps)).unwrap())
    }

    #[test]
    fn recovers_peak_within_observed_subspace() {
        let m3 = exact_m3(&[0.1, 0.1]);
        let measured = QubitSet::full(2);
        let noisy = ProbDist::from_pairs(
            2,
            [(bs("00"), 0.81), (bs("10"), 0.09), (bs("01"), 0.09), (bs("11"), 0.01)],
        )
        .unwrap();
        let out = m3.calibrate(&noisy, &measured).unwrap().clip_to_probabilities();
        assert!(out.prob(&bs("00")) > 0.99, "M3 should concentrate mass: {out:?}");
    }

    #[test]
    fn restricts_output_to_observed_support() {
        let m3 = exact_m3(&[0.1, 0.1, 0.1]);
        let measured = QubitSet::full(3);
        let noisy = ProbDist::from_pairs(3, [(bs("000"), 0.7), (bs("111"), 0.3)]).unwrap();
        let out = m3.calibrate(&noisy, &measured).unwrap();
        for (k, _) in out.iter() {
            assert!(
                k == bs("000") || k == bs("111"),
                "M3 output must stay in the observed subspace, got {k}"
            );
        }
    }

    #[test]
    fn hamming_pruning_changes_solution_on_distant_pairs() {
        let mut strict = exact_m3(&[0.2, 0.2, 0.2, 0.2]);
        strict.hamming_threshold = 0; // prune everything off-diagonal
        let loose = exact_m3(&[0.2, 0.2, 0.2, 0.2]);
        let measured = QubitSet::full(4);
        let noisy = ProbDist::from_pairs(4, [(bs("0000"), 0.8), (bs("1100"), 0.2)]).unwrap();
        let a = strict.calibrate(&noisy, &measured).unwrap();
        let b = loose.calibrate(&noisy, &measured).unwrap();
        // With D = 0 the matrix is diagonal → output equals renormalized input.
        assert!((a.prob(&bs("0000")) - 0.8).abs() < 1e-9);
        assert!((a.prob(&bs("0000")) - b.prob(&bs("0000"))).abs() > 1e-6);
    }

    #[test]
    fn subspace_wall_is_enforced() {
        let mut m3 = exact_m3(&[0.1, 0.1, 0.1]);
        m3.max_subspace = 1;
        let measured = QubitSet::full(3);
        let noisy = ProbDist::from_pairs(3, [(bs("000"), 0.5), (bs("111"), 0.5)]).unwrap();
        assert!(matches!(m3.calibrate(&noisy, &measured), Err(Error::ResourceExhausted(_))));
    }

    #[test]
    fn characterization_uses_2n_circuits() {
        let device = presets::ibmq_7(1);
        device.reset_stats();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m3 = M3::characterize(&device, 500, &mut rng).unwrap();
        assert_eq!(m3.n_benchmark_circuits(), 14);
    }

    #[test]
    fn improves_ghz_fidelity_on_device() {
        let device = presets::ibmq_7(3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let m3 = M3::characterize(&device, 2000, &mut rng).unwrap();
        let measured = QubitSet::full(7);
        let ideal = qufem_circuits::ghz(7);
        let noisy = device.measure_distribution(&ideal, &measured, 4000, &mut rng);
        let out = m3.calibrate(&noisy, &measured).unwrap().clip_to_probabilities();
        let before = hellinger_fidelity(&noisy, &ideal);
        let after = hellinger_fidelity(&out, &ideal);
        assert!(after > before, "M3 should improve GHZ: {before} → {after}");
    }

    #[test]
    fn empty_distribution_passthrough() {
        let m3 = exact_m3(&[0.1]);
        let out = m3.calibrate(&ProbDist::new(1), &QubitSet::full(1)).unwrap();
        assert!(out.is_empty());
    }
}
