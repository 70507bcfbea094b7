//! Dynamic sub-noise matrix generation (paper Eq. 10–11).
//!
//! Sub-noise matrices are *not* stored as static calibration data: they are
//! generated on demand from the benchmarking snapshot, conditioned on which
//! qubits the target circuit actually measured. This captures the paper's
//! observation that "interactions always change under different combinations
//! of measured qubits" (§3.2, feature 2).
//!
//! A group's matrix depends on the measured set only through `g∩`, the
//! group's measured qubits (Eq. 10): every measured set with the same `g∩`
//! gets the same matrix, bit for bit. Each iteration therefore keeps one
//! [`MatrixTable`] that builds a matrix on the first request for its
//! (group, `g∩`) and serves it to every later one — the characterization
//! loop's hundreds of benchmark measured sets, every `prepare`, and the
//! effective-matrix assembly. [`group_noise_matrix_with`] is the uncached
//! builder behind it.

use crate::snapshot::{BenchmarkSnapshot, IdealCondition};
use qufem_linalg::Matrix;
use qufem_types::{BitString, Error, QubitSet, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A per-group noise matrix together with its pre-inverted form, positioned
/// on specific global qubits.
#[derive(Debug, Clone)]
pub struct GroupMatrix {
    /// Global indices of the group's *measured* qubits (`g∩`), ascending.
    /// Bit `k` of a local sub-index corresponds to `qubits[k]`.
    qubits: Vec<usize>,
    /// The forward noise matrix `M` (column-stochastic, `2^k × 2^k`).
    matrix: Matrix,
    /// Transposed inverse: row `x` of this matrix is the column `M⁻¹|x⟩`
    /// that the tensor-product engine consumes, stored contiguously.
    inverse_t: Matrix,
}

impl GroupMatrix {
    /// Global qubit indices covered by this matrix, ascending.
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// Number of qubits in the group intersection.
    pub fn n_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// The forward noise matrix `M` (entry `(x, y)` = `P(measure x | prepare y)`).
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// The column `M⁻¹ |x⟩` as a contiguous slice (engine hot path).
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn inverse_column(&self, x: usize) -> &[f64] {
        self.inverse_t.row(x)
    }

    /// All inverse columns as one contiguous row-major slice: column
    /// `M⁻¹ |x⟩` occupies `[x · 2^k, (x + 1) · 2^k)`. The iteration plan
    /// copies this block wholesale instead of calling
    /// [`GroupMatrix::inverse_column`] per string.
    pub fn inverse_columns(&self) -> &[f64] {
        self.inverse_t.as_slice()
    }

    /// Approximate heap usage in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.matrix.heap_bytes()
            + self.inverse_t.heap_bytes()
            + self.qubits.capacity() * std::mem::size_of::<usize>()
    }
}

/// Generates the sub-noise matrix of one qubit group for a circuit that
/// measured `measured` (paper Eq. 10–11).
///
/// Returns `Ok(None)` when the group does not intersect the measured set
/// (the group contributes no factor to the calibration of this circuit).
///
/// Matrix elements follow Eq. 11:
///
/// ```text
/// M[x][y] = Π_{q ∈ g∩} P(q.measured = x_q | g∩.ideal = y, g∅.ideal = ∅)
/// ```
///
/// with the conditional probabilities estimated from the benchmarking
/// snapshot (with the relaxation ladder of
/// [`BenchmarkSnapshot::cond_prob_one_relaxed`] for sparsely observed
/// conditions).
///
/// # Errors
///
/// Returns [`Error::ResourceExhausted`] if the intersection exceeds 12
/// qubits (the dense `2^k × 2^k` representation would be unreasonable) and
/// [`Error::LinalgFailure`] if the generated matrix is singular — which
/// cannot happen for flip probabilities below one half.
pub fn group_noise_matrix(
    snapshot: &BenchmarkSnapshot,
    group: &QubitSet,
    measured: &QubitSet,
) -> Result<Option<GroupMatrix>> {
    group_noise_matrix_with(snapshot, group, measured, false)
}

/// [`group_noise_matrix`] with selectable estimation:
///
/// * `joint = false` — the paper's per-qubit product form (Eq. 11).
/// * `joint = true` — each column is the *jointly estimated* outcome
///   distribution `P(g∩.measured = x | conditions)`, which additionally
///   captures correlated readout events inside the group (beyond the paper;
///   see `QuFemConfig::joint_group_estimation` and the
///   `ext_correlated_noise` experiment). Columns with no fully-measured
///   matching records fall back to the product form.
///
/// # Errors
///
/// As [`group_noise_matrix`].
pub fn group_noise_matrix_with(
    snapshot: &BenchmarkSnapshot,
    group: &QubitSet,
    measured: &QubitSet,
    joint: bool,
) -> Result<Option<GroupMatrix>> {
    let g_cap = group.intersection(measured); // g∩, paper Eq. 10
    if g_cap.is_empty() {
        return Ok(None);
    }
    let g_empty = group.difference(&g_cap); // g∅
    let k = g_cap.len();
    if k > 12 {
        return Err(Error::ResourceExhausted(format!(
            "group intersection of {k} qubits needs a 2^{k} dense matrix"
        )));
    }
    let qubits: Vec<usize> = g_cap.iter().collect();
    let dim = 1usize << k;
    let mut matrix = Matrix::zeros(dim, dim);

    let mut conditions: Vec<(usize, IdealCondition)> = Vec::with_capacity(group.len());
    for y in 0..dim {
        let y_bits = BitString::from_index(y, k).expect("y < 2^k");
        conditions.clear();
        for (idx, &q) in qubits.iter().enumerate() {
            conditions.push((q, IdealCondition::measured(y_bits.get(idx))));
        }
        for q in g_empty.iter() {
            conditions.push((q, IdealCondition::Unmeasured));
        }
        if joint {
            if let Some(column) = snapshot.cond_joint(&qubits, &conditions) {
                for (x, &p) in column.iter().enumerate() {
                    matrix.set(x, y, p);
                }
                continue;
            }
        }
        // P(q reads 1 | this column's preparation), one per group qubit.
        let p_one: Vec<f64> = qubits
            .iter()
            .enumerate()
            .map(|(idx, &q)| {
                snapshot
                    .cond_prob_one_relaxed(
                        q,
                        IdealCondition::measured(y_bits.get(idx)),
                        &conditions,
                    )
                    .clamp(0.0, 1.0)
            })
            .collect();
        for x in 0..dim {
            let mut p = 1.0;
            for (idx, &p1) in p_one.iter().enumerate() {
                let bit = (x >> idx) & 1 == 1;
                p *= if bit { p1 } else { 1.0 - p1 };
                if p == 0.0 {
                    break;
                }
            }
            matrix.set(x, y, p);
        }
    }
    // Guard against degenerate columns (estimates of exactly 0/1 everywhere
    // are fine — the matrix stays invertible as long as no column duplicates
    // another; regularize pathological estimates slightly).
    let inverse = match matrix.inverse() {
        Ok(inv) => inv,
        Err(_) => {
            regularize(&mut matrix);
            matrix.inverse()?
        }
    };
    qufem_telemetry::counter_add("noisematrix.submatrices", 1);
    Ok(Some(GroupMatrix { qubits, matrix, inverse_t: inverse.transpose() }))
}

/// The group matrices of one iteration, each built on first use and kept.
///
/// Keyed by (group index, `g∩` mask), where bit `k` of the mask marks the
/// group's `k`-th qubit (ascending) as measured; groups never exceed
/// `max_group_size` (at most 12) qubits, so the mask fits. A group `g` has
/// at most `2^|g| − 1` nonempty intersections, so the table never holds
/// more than `Σ_g (2^|g| − 1)` matrices and needs no cap. A matrix is built
/// under its group's lock, so each key is built exactly once even when
/// several threads ask for it together; a failed build is returned, not
/// stored. [`crate::IterationParams`] holds its table behind an [`Arc`], so
/// clones of a [`crate::QuFem`] share it.
#[derive(Debug)]
pub struct MatrixTable {
    joint: bool,
    /// One map per group, in grouping order: `g∩` mask → matrix.
    groups: Vec<Mutex<HashMap<u64, Arc<GroupMatrix>>>>,
}

impl MatrixTable {
    /// An empty table for `n_groups` groups, estimating as
    /// [`group_noise_matrix_with`] does with `joint`.
    pub(crate) fn new(n_groups: usize, joint: bool) -> Self {
        MatrixTable { joint, groups: (0..n_groups).map(|_| Mutex::default()).collect() }
    }

    /// The matrices of every group of `grouping` that intersects `measured`,
    /// in group order — exactly what [`group_noise_matrix_with`] returns for
    /// each group, built only for keys not seen before. `snapshot` and
    /// `grouping` must be the ones the table was made for.
    ///
    /// # Errors
    ///
    /// As [`group_noise_matrix_with`].
    pub(crate) fn group_matrices(
        &self,
        snapshot: &BenchmarkSnapshot,
        grouping: &[QubitSet],
        measured: &QubitSet,
    ) -> Result<Vec<Arc<GroupMatrix>>> {
        let mut out = Vec::with_capacity(grouping.len());
        for (cells, group) in self.groups.iter().zip(grouping) {
            let mask = group
                .iter()
                .enumerate()
                .filter(|&(_, q)| measured.contains(q))
                .fold(0u64, |mask, (k, _)| mask | 1 << k);
            if mask == 0 {
                continue;
            }
            let mut cells = cells.lock().unwrap_or_else(PoisonError::into_inner);
            let matrix = match cells.get(&mask) {
                Some(matrix) => Arc::clone(matrix),
                None => {
                    let matrix = Arc::new(
                        group_noise_matrix_with(snapshot, group, measured, self.joint)?
                            .expect("a nonempty g∩ yields a matrix"),
                    );
                    cells.insert(mask, Arc::clone(&matrix));
                    matrix
                }
            };
            out.push(matrix);
        }
        Ok(out)
    }

    /// Number of matrices built so far.
    pub fn len(&self) -> usize {
        self.groups
            .iter()
            .map(|cells| cells.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether no matrix has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap usage in bytes: the per-group maps and every stored
    /// matrix.
    pub fn heap_bytes(&self) -> usize {
        let slot = std::mem::size_of::<(u64, Arc<GroupMatrix>)>();
        self.groups.capacity() * std::mem::size_of::<Mutex<HashMap<u64, Arc<GroupMatrix>>>>()
            + self
                .groups
                .iter()
                .map(|cells| {
                    let cells = cells.lock().unwrap_or_else(PoisonError::into_inner);
                    cells.capacity() * slot
                        + cells
                            .values()
                            .map(|m| std::mem::size_of::<GroupMatrix>() + m.heap_bytes())
                            .sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// Nudges a (near-)singular estimated matrix towards the identity so it can
/// be inverted: `M ← (1 − λ) M + λ I` with a small `λ`.
fn regularize(matrix: &mut Matrix) {
    let dim = matrix.rows();
    let lambda = 1e-6;
    for r in 0..dim {
        for c in 0..dim {
            let v = matrix.get(r, c) * (1.0 - lambda) + if r == c { lambda } else { 0.0 };
            matrix.set(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::BenchmarkRecord;
    use qufem_device::BenchmarkCircuit;
    use qufem_types::ProbDist;

    /// Snapshot on 2 qubits covering all four prepared basis states with 2%
    /// error on q0 and 4% on q1 (independent).
    fn independent_snapshot() -> BenchmarkSnapshot {
        let mut snap = BenchmarkSnapshot::new(2);
        for y in 0..4usize {
            let prep = BitString::from_index(y, 2).unwrap();
            let circuit = BenchmarkCircuit::all_prepared(&prep);
            let mut dist = ProbDist::new(2);
            for x in 0..4usize {
                let out = BitString::from_index(x, 2).unwrap();
                let p0 = if out.get(0) != prep.get(0) { 0.02 } else { 0.98 };
                let p1 = if out.get(1) != prep.get(1) { 0.04 } else { 0.96 };
                dist.add(out, p0 * p1);
            }
            snap.push(BenchmarkRecord::new(circuit, dist));
        }
        snap
    }

    #[test]
    fn matrix_matches_independent_ground_truth() {
        let snap = independent_snapshot();
        let group = QubitSet::full(2);
        let gm = group_noise_matrix(&snap, &group, &QubitSet::full(2)).unwrap().unwrap();
        let m = gm.matrix();
        assert!(m.is_column_stochastic(1e-9));
        // M[0][0] = P(00 | 00) = 0.98 * 0.96.
        assert!((m.get(0, 0) - 0.98 * 0.96).abs() < 1e-9);
        // M[1][0] = P(q0 flips) * P(q1 faithful).
        assert!((m.get(1, 0) - 0.02 * 0.96).abs() < 1e-9);
        // M[3][3] = both faithful in |11⟩.
        assert!((m.get(3, 3) - 0.98 * 0.96).abs() < 1e-9);
    }

    #[test]
    fn inverse_column_solves_the_forward_map() {
        let snap = independent_snapshot();
        let group = QubitSet::full(2);
        let gm = group_noise_matrix(&snap, &group, &QubitSet::full(2)).unwrap().unwrap();
        // M · (M⁻¹ e_x) = e_x for every basis column.
        for x in 0..4usize {
            let col = gm.inverse_column(x).to_vec();
            let back = gm.matrix().matvec(&col).unwrap();
            for (i, v) in back.iter().enumerate() {
                let expect = if i == x { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-9, "x={x}, i={i}, v={v}");
            }
        }
    }

    #[test]
    fn group_outside_measured_set_is_none() {
        let snap = independent_snapshot();
        let group: QubitSet = [1usize].into_iter().collect();
        let measured: QubitSet = [0usize].into_iter().collect();
        let gm = group_noise_matrix(&snap, &group, &measured).unwrap();
        assert!(gm.is_none());
    }

    #[test]
    fn partial_intersection_builds_reduced_matrix() {
        let snap = independent_snapshot();
        let group = QubitSet::full(2); // {0, 1}
        let measured: QubitSet = [0usize].into_iter().collect();
        let gm = group_noise_matrix(&snap, &group, &measured).unwrap().unwrap();
        assert_eq!(gm.n_qubits(), 1);
        assert_eq!(gm.qubits(), &[0]);
        assert_eq!(gm.matrix().rows(), 2);
        // q0 error 2% (snapshot has no unmeasured-q1 records; relaxation
        // ladder falls back to the marginal statistics).
        assert!((gm.matrix().get(1, 0) - 0.02).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_yields_identity_matrix() {
        let snap = BenchmarkSnapshot::new(2);
        let group = QubitSet::full(2);
        let gm = group_noise_matrix(&snap, &group, &QubitSet::full(2)).unwrap().unwrap();
        // Fallback ladder bottoms out at the noise-free value → identity.
        for x in 0..4 {
            for y in 0..4 {
                let expect = if x == y { 1.0 } else { 0.0 };
                assert!((gm.matrix().get(x, y) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn oversized_intersection_is_rejected() {
        let snap = BenchmarkSnapshot::new(16);
        let group = QubitSet::full(16);
        let err = group_noise_matrix(&snap, &group, &QubitSet::full(16)).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
    }

    /// Snapshot with *correlated* noise: prepared |00⟩ reads |11⟩ with 10%
    /// probability (a shared-line event), plus 1% independent flips.
    fn correlated_snapshot() -> BenchmarkSnapshot {
        let mut snap = BenchmarkSnapshot::new(2);
        for y in 0..4usize {
            let prep = BitString::from_index(y, 2).unwrap();
            let circuit = BenchmarkCircuit::all_prepared(&prep);
            let mut dist = ProbDist::new(2);
            // Correlated double flip.
            dist.add(prep.with_flipped(0).with_flipped(1), 0.10);
            // Independent singles.
            dist.add(prep.with_flipped(0), 0.01);
            dist.add(prep.with_flipped(1), 0.01);
            dist.add(prep.clone(), 0.88);
            snap.push(BenchmarkRecord::new(circuit, dist));
        }
        snap
    }

    #[test]
    fn joint_estimation_captures_correlated_noise() {
        let snap = correlated_snapshot();
        let group = QubitSet::full(2);
        let measured = QubitSet::full(2);
        let product = group_noise_matrix_with(&snap, &group, &measured, false).unwrap().unwrap();
        let joint = group_noise_matrix_with(&snap, &group, &measured, true).unwrap().unwrap();

        // True P(11 | 00) = 0.10; the product form can only produce
        // P(q0 flips)·P(q1 flips) = 0.11² ≈ 0.012.
        assert!((joint.matrix().get(3, 0) - 0.10).abs() < 1e-9, "joint: {:?}", joint.matrix());
        assert!(
            product.matrix().get(3, 0) < 0.02,
            "product form cannot represent the correlation: {:?}",
            product.matrix()
        );
        assert!(joint.matrix().is_column_stochastic(1e-9));
    }

    #[test]
    fn joint_estimation_matches_product_for_independent_noise() {
        let snap = independent_snapshot();
        let group = QubitSet::full(2);
        let measured = QubitSet::full(2);
        let product = group_noise_matrix_with(&snap, &group, &measured, false).unwrap().unwrap();
        let joint = group_noise_matrix_with(&snap, &group, &measured, true).unwrap().unwrap();
        for x in 0..4 {
            for y in 0..4 {
                assert!(
                    (product.matrix().get(x, y) - joint.matrix().get(x, y)).abs() < 1e-9,
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    fn joint_estimation_falls_back_without_full_group_records() {
        // Snapshot never measures q1, so joint estimation for group {0, 1}
        // with measured = {0} uses g∩ = {0} joints — still available — but
        // for measured = {0, 1} the group is only partially recorded and the
        // product fallback must kick in without error.
        let mut snap = BenchmarkSnapshot::new(2);
        let circuit = BenchmarkCircuit::new(vec![
            qufem_device::QubitOp::Prepare0Measured,
            qufem_device::QubitOp::Idle0,
        ]);
        let dist = ProbDist::from_pairs(
            1,
            [
                (BitString::from_binary_str("0").unwrap(), 0.97),
                (BitString::from_binary_str("1").unwrap(), 0.03),
            ],
        )
        .unwrap();
        snap.push(BenchmarkRecord::new(circuit, dist));
        let group = QubitSet::full(2);
        let measured = QubitSet::full(2);
        let gm = group_noise_matrix_with(&snap, &group, &measured, true).unwrap().unwrap();
        assert!(gm.matrix().is_column_stochastic(1e-9));
    }

    #[test]
    fn regularize_makes_singular_invertible() {
        let mut m = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        assert!(m.inverse().is_err());
        regularize(&mut m);
        assert!(m.inverse().is_ok());
    }
}
