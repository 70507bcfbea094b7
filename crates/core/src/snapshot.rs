//! Benchmarking data snapshots and conditional-probability estimation.
//!
//! Algorithm 1 of the paper threads a set of *benchmarking probability
//! distributions* `BP_i` through the iterations: `BP_1` comes from hardware,
//! and each iteration calibrates every distribution to produce `BP_{i+1}`.
//! A [`BenchmarkSnapshot`] is one such set — the executed circuits paired
//! with their (possibly already partially calibrated) distributions — and
//! serves the conditional probabilities that drive both the interaction
//! quantification (Eq. 8) and the sub-noise-matrix generation (Eq. 11).

use qufem_device::{BenchmarkCircuit, QubitOp};
use qufem_types::{ProbDist, QubitSet};
use serde::{Deserialize, Serialize};

/// A condition on the *ideal* (prepared) state of one qubit, following the
/// paper's triple records: `ideal ∈ {0, 1, ∅}` where `∅` means the qubit is
/// not measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IdealCondition {
    /// Prepared in `|0⟩` and measured.
    Zero,
    /// Prepared in `|1⟩` and measured.
    One,
    /// Not measured (prepared state irrelevant).
    Unmeasured,
}

impl IdealCondition {
    /// The condition corresponding to "prepared in `bit` and measured".
    pub fn measured(bit: bool) -> Self {
        if bit {
            IdealCondition::One
        } else {
            IdealCondition::Zero
        }
    }

    /// Whether a circuit's per-qubit operation satisfies this condition.
    pub fn matches(self, op: QubitOp) -> bool {
        match self {
            IdealCondition::Zero => op == QubitOp::Prepare0Measured,
            IdealCondition::One => op == QubitOp::Prepare1Measured,
            IdealCondition::Unmeasured => !op.is_measured(),
        }
    }
}

/// One benchmarking circuit together with its current distribution.
#[derive(Debug, Clone)]
pub struct BenchmarkRecord {
    circuit: BenchmarkCircuit,
    /// Measured qubits in ascending order — the bit order of `dist`.
    positions: Vec<usize>,
    dist: ProbDist,
    /// Per measured position: `P(bit = 1)` of `dist`, clamped to `[0, 1]`
    /// (calibrated quasi-probabilities can stray slightly outside).
    marginal_one: Vec<f64>,
}

impl BenchmarkRecord {
    /// Pairs a circuit with its measured distribution.
    ///
    /// # Panics
    ///
    /// Panics if the distribution width differs from the circuit's measured
    /// qubit count.
    pub fn new(circuit: BenchmarkCircuit, dist: ProbDist) -> Self {
        let positions: Vec<usize> = circuit.measured_qubits().iter().collect();
        assert_eq!(
            dist.width(),
            positions.len(),
            "distribution width must equal the number of measured qubits"
        );
        let marginal_one = compute_marginals(&dist);
        BenchmarkRecord { circuit, positions, dist, marginal_one }
    }

    /// The benchmarking circuit.
    pub fn circuit(&self) -> &BenchmarkCircuit {
        &self.circuit
    }

    /// Measured qubits (ascending), i.e. the bit order of the distribution.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Measured qubits as a set.
    pub fn measured_set(&self) -> QubitSet {
        self.positions.iter().copied().collect()
    }

    /// The current distribution of this record.
    pub fn dist(&self) -> &ProbDist {
        &self.dist
    }

    /// Replaces the distribution (one calibration iteration applied) and
    /// refreshes cached marginals.
    ///
    /// # Panics
    ///
    /// Panics if the width changes.
    pub fn set_dist(&mut self, dist: ProbDist) {
        assert_eq!(dist.width(), self.positions.len(), "record width cannot change");
        self.marginal_one = compute_marginals(&dist);
        self.dist = dist;
    }

    /// `P(bit = 1)` for the measured qubit with global index `q`, if this
    /// record measures it.
    pub fn marginal_one_of(&self, q: usize) -> Option<f64> {
        self.positions.binary_search(&q).ok().map(|k| self.marginal_one[k])
    }

    /// `P(readout error)` for qubit `q` in this record: the probability the
    /// measured bit differs from the prepared bit.
    pub fn error_prob_of(&self, q: usize) -> Option<f64> {
        let m1 = self.marginal_one_of(q)?;
        Some(if self.circuit.op(q).ideal_bit() { 1.0 - m1 } else { m1 })
    }

    /// Whether this record's circuit satisfies all conditions.
    pub fn matches(&self, conditions: &[(usize, IdealCondition)]) -> bool {
        conditions.iter().all(|&(q, cond)| cond.matches(self.circuit.op(q)))
    }

    /// The joint outcome distribution of a small qubit group within this
    /// record: entry `x` is the probability that the group's qubits (given
    /// by ascending global indices) read exactly the bits of `x`. Returns
    /// `None` if the record does not measure every group qubit.
    ///
    /// Unlike the per-qubit marginals this captures *correlated* readout
    /// events within the group — the basis of the joint matrix-estimation
    /// extension (`QuFemConfig::joint_group_estimation`).
    ///
    /// # Panics
    ///
    /// Panics if the group exceeds 16 qubits (the dense `2^k` output).
    pub fn group_joint(&self, group_qubits: &[usize]) -> Option<Vec<f64>> {
        assert!(group_qubits.len() <= 16, "joint estimation limited to 16-qubit groups");
        let local: Option<Vec<usize>> =
            group_qubits.iter().map(|&q| self.positions.binary_search(&q).ok()).collect();
        let local = local?;
        let mut joint = vec![0.0; 1usize << local.len()];
        for (key, v) in self.dist.sorted_pairs() {
            let mut idx = 0usize;
            for (k, &pos) in local.iter().enumerate() {
                idx |= (key.get(pos) as usize) << k;
            }
            joint[idx] += v;
        }
        // Calibrated quasi-probabilities can stray slightly negative.
        for j in joint.iter_mut() {
            *j = j.max(0.0);
        }
        let total: f64 = joint.iter().sum();
        if total > 0.0 {
            for j in joint.iter_mut() {
                *j /= total;
            }
        }
        Some(joint)
    }

    /// Approximate heap usage in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.dist.heap_bytes()
            + self.positions.capacity() * std::mem::size_of::<usize>()
            + self.marginal_one.capacity() * std::mem::size_of::<f64>()
            + std::mem::size_of_val(self.circuit.ops())
    }
}

fn compute_marginals(dist: &ProbDist) -> Vec<f64> {
    let index = dist.as_index();
    let mut acc = vec![0.0; index.width()];
    // Canonical key order (the identity on a canonical index): hash-map
    // order would make the float sums (and hence downstream partitioning
    // decisions) nondeterministic at the ULP level. Each key adds its value
    // to the accumulator of every set bit, read straight from its words.
    let mut order = Vec::new();
    index.sorted_ids(&mut order);
    for id in order {
        let v = index.value(id);
        for (w, &word) in index.key_words(id).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                acc[w * 64 + bits.trailing_zeros() as usize] += v;
                bits &= bits - 1;
            }
        }
    }
    for a in acc.iter_mut() {
        *a = a.clamp(0.0, 1.0);
    }
    acc
}

/// A set of benchmarking records — the `BP_i` of one iteration.
#[derive(Debug, Clone, Default)]
pub struct BenchmarkSnapshot {
    n_qubits: usize,
    records: Vec<BenchmarkRecord>,
}

impl BenchmarkSnapshot {
    /// Creates an empty snapshot for an `n_qubits` device.
    pub fn new(n_qubits: usize) -> Self {
        BenchmarkSnapshot { n_qubits, records: Vec::new() }
    }

    /// Number of device qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of records (executed benchmarking circuits).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics if the circuit width differs from the snapshot's qubit count.
    pub fn push(&mut self, record: BenchmarkRecord) {
        assert_eq!(record.circuit().width(), self.n_qubits, "record width must match snapshot");
        self.records.push(record);
    }

    /// The records.
    pub fn records(&self) -> &[BenchmarkRecord] {
        &self.records
    }

    /// Mutable access for the per-iteration calibration update.
    pub fn records_mut(&mut self) -> &mut [BenchmarkRecord] {
        &mut self.records
    }

    /// Estimates `P(q.measured = 1 | conditions)` by averaging the marginal
    /// of `q` over records whose circuits satisfy `conditions` and measure
    /// `q`. Returns `None` when no record qualifies.
    pub fn cond_prob_one(&self, q: usize, conditions: &[(usize, IdealCondition)]) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for record in &self.records {
            if !record.matches(conditions) {
                continue;
            }
            if let Some(m1) = record.marginal_one_of(q) {
                sum += m1;
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    /// Like [`BenchmarkSnapshot::cond_prob_one`] with a fallback ladder for
    /// sparse data, used by the noise-matrix generator (Eq. 11):
    ///
    /// 1. the full condition set;
    /// 2. only the conditions on *measured* qubits (dropping `∅`
    ///    requirements on unmeasured group members);
    /// 3. only `q`'s own preparation condition;
    /// 4. the noise-free value implied by `q`'s own preparation.
    pub fn cond_prob_one_relaxed(
        &self,
        q: usize,
        own: IdealCondition,
        conditions: &[(usize, IdealCondition)],
    ) -> f64 {
        if let Some(p) = self.cond_prob_one(q, conditions) {
            return p;
        }
        let measured_only: Vec<(usize, IdealCondition)> =
            conditions.iter().copied().filter(|(_, c)| *c != IdealCondition::Unmeasured).collect();
        if measured_only.len() < conditions.len() {
            if let Some(p) = self.cond_prob_one(q, &measured_only) {
                return p;
            }
        }
        if let Some(p) = self.cond_prob_one(q, &[(q, own)]) {
            return p;
        }
        match own {
            IdealCondition::One => 1.0,
            _ => 0.0,
        }
    }

    /// Counts records matching the conditions (the `num` of paper Eq. 12).
    pub fn count_matching(&self, conditions: &[(usize, IdealCondition)]) -> usize {
        self.records.iter().filter(|r| r.matches(conditions)).count()
    }

    /// Estimates the *joint* conditional outcome distribution of a qubit
    /// group — `P(g.measured = x | conditions)` for every `x` — by
    /// averaging [`BenchmarkRecord::group_joint`] over matching records.
    /// Returns `None` when no record measures the whole group under the
    /// conditions.
    pub fn cond_joint(
        &self,
        group_qubits: &[usize],
        conditions: &[(usize, IdealCondition)],
    ) -> Option<Vec<f64>> {
        let mut acc: Option<Vec<f64>> = None;
        let mut count = 0usize;
        for record in &self.records {
            if !record.matches(conditions) {
                continue;
            }
            let Some(joint) = record.group_joint(group_qubits) else { continue };
            match &mut acc {
                None => acc = Some(joint),
                Some(sum) => {
                    for (s, j) in sum.iter_mut().zip(&joint) {
                        *s += j;
                    }
                }
            }
            count += 1;
        }
        let mut sum = acc?;
        for s in sum.iter_mut() {
            *s /= count as f64;
        }
        Some(sum)
    }

    /// Approximate heap usage in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.records.iter().map(BenchmarkRecord::heap_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_types::BitString;

    fn bs(s: &str) -> BitString {
        BitString::from_binary_str(s).unwrap()
    }

    /// 3-qubit circuit: q0 prepared 1 & measured, q1 prepared 0 & measured,
    /// q2 idle in |1⟩.
    fn record_a() -> BenchmarkRecord {
        let circuit = BenchmarkCircuit::new(vec![
            QubitOp::Prepare1Measured,
            QubitOp::Prepare0Measured,
            QubitOp::Idle1,
        ]);
        // Measured bits (q0, q1): mostly "10" as prepared, some errors.
        let dist =
            ProbDist::from_pairs(2, [(bs("10"), 0.9), (bs("00"), 0.06), (bs("11"), 0.04)]).unwrap();
        BenchmarkRecord::new(circuit, dist)
    }

    #[test]
    fn marginals_computed_per_measured_qubit() {
        let r = record_a();
        // P(q0 reads 1) = 0.9 + 0.04 = 0.94; P(q1 reads 1) = 0.04.
        assert!((r.marginal_one_of(0).unwrap() - 0.94).abs() < 1e-12);
        assert!((r.marginal_one_of(1).unwrap() - 0.04).abs() < 1e-12);
        assert_eq!(r.marginal_one_of(2), None);
    }

    #[test]
    fn error_prob_respects_prepared_state() {
        let r = record_a();
        // q0 prepared 1 → error = P(read 0) = 0.06.
        assert!((r.error_prob_of(0).unwrap() - 0.06).abs() < 1e-12);
        // q1 prepared 0 → error = P(read 1) = 0.04.
        assert!((r.error_prob_of(1).unwrap() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn condition_matching() {
        let r = record_a();
        assert!(r.matches(&[(0, IdealCondition::One)]));
        assert!(r.matches(&[(0, IdealCondition::One), (2, IdealCondition::Unmeasured)]));
        assert!(!r.matches(&[(0, IdealCondition::Zero)]));
        assert!(!r.matches(&[(2, IdealCondition::One)])); // q2 is unmeasured
    }

    #[test]
    fn set_dist_refreshes_marginals() {
        let mut r = record_a();
        let newd = ProbDist::from_pairs(2, [(bs("10"), 1.0)]).unwrap();
        r.set_dist(newd);
        assert!((r.marginal_one_of(0).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(r.marginal_one_of(1).unwrap(), 0.0);
    }

    #[test]
    fn marginals_clamped_for_quasiprobs() {
        let circuit = BenchmarkCircuit::new(vec![QubitOp::Prepare1Measured]);
        let dist = ProbDist::from_pairs(1, [(bs("1"), 1.05), (bs("0"), -0.05)]).unwrap();
        let r = BenchmarkRecord::new(circuit, dist);
        assert_eq!(r.marginal_one_of(0), Some(1.0));
    }

    #[test]
    fn snapshot_cond_prob_averages_matching_records() {
        let mut snap = BenchmarkSnapshot::new(3);
        snap.push(record_a());
        // Second record with the same conditions but different marginal.
        let circuit = BenchmarkCircuit::new(vec![
            QubitOp::Prepare1Measured,
            QubitOp::Prepare0Measured,
            QubitOp::Idle0,
        ]);
        let dist = ProbDist::from_pairs(2, [(bs("10"), 1.0)]).unwrap();
        snap.push(BenchmarkRecord::new(circuit, dist));

        let p = snap.cond_prob_one(0, &[(0, IdealCondition::One)]).unwrap();
        assert!((p - (0.94 + 1.0) / 2.0).abs() < 1e-12);
        // Conditioning on q2 unmeasured+idle1 matches only record A.
        let p = snap
            .cond_prob_one(0, &[(0, IdealCondition::One), (2, IdealCondition::Unmeasured)])
            .unwrap();
        assert!((p - 0.94).abs() < 1e-9 || (p - 0.97).abs() < 0.04);
    }

    #[test]
    fn cond_prob_none_when_no_match() {
        let mut snap = BenchmarkSnapshot::new(3);
        snap.push(record_a());
        assert_eq!(snap.cond_prob_one(0, &[(1, IdealCondition::One)]), None);
    }

    #[test]
    fn relaxed_ladder_falls_back_to_ideal() {
        let snap = BenchmarkSnapshot::new(2);
        // Empty snapshot: final fallback is the noise-free value.
        let p1 = snap.cond_prob_one_relaxed(0, IdealCondition::One, &[(0, IdealCondition::One)]);
        assert_eq!(p1, 1.0);
        let p0 = snap.cond_prob_one_relaxed(0, IdealCondition::Zero, &[(0, IdealCondition::Zero)]);
        assert_eq!(p0, 0.0);
    }

    #[test]
    fn relaxed_ladder_drops_unmeasured_conditions() {
        let mut snap = BenchmarkSnapshot::new(3);
        snap.push(record_a()); // q2 idle in |1⟩
                               // Ask with an unmeasured condition that no record satisfies together
                               // with q1's: (q1 = One) never holds, so even relaxed returns own-cond.
        let p = snap.cond_prob_one_relaxed(
            0,
            IdealCondition::One,
            &[(0, IdealCondition::One), (1, IdealCondition::One), (2, IdealCondition::Unmeasured)],
        );
        // Falls to own condition: record A has q0 prepared one, marginal 0.94.
        assert!((p - 0.94).abs() < 1e-12);
    }

    #[test]
    fn count_matching_is_num_of_eq12() {
        let mut snap = BenchmarkSnapshot::new(3);
        snap.push(record_a());
        snap.push(record_a());
        assert_eq!(snap.count_matching(&[(0, IdealCondition::One)]), 2);
        assert_eq!(snap.count_matching(&[(0, IdealCondition::Zero)]), 0);
    }
}
