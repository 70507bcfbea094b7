//! The simulated quantum device.

use crate::{BenchmarkCircuit, CrosstalkShifts, QubitNoise, ReadoutNoiseModel, Topology};
use qufem_linalg::Matrix;
use qufem_types::{BitString, Error, ProbDist, QubitSet, Result, SupportIndex};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fraction by which [`Device::drifted`] perturbs each noise parameter at
/// most (the wave is in `[-1, 1)`, so parameters move by up to ±25%).
const DRIFT_AMPLITUDE: f64 = 0.25;

/// splitmix64 finalizer: avalanches a 64-bit value. Pure integer mixing —
/// no floating-point transcendentals — so drift is bit-identical across
/// platforms and libm versions.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Calls `event(shot)` for every shot, in ascending order, at which an
/// event of probability `p` fires over `shots` shots, drawing the gaps by
/// geometric skipping: one RNG draw per event, plus the draw that ends the
/// loop unless the last event falls on the last shot. Draws nothing when
/// `p <= 0`.
fn for_each_event<R: Rng + ?Sized>(p: f64, shots: u64, rng: &mut R, mut event: impl FnMut(u64)) {
    if p <= 0.0 {
        return;
    }
    let log1mp = (1.0 - p).ln();
    let mut shot = 0u64;
    loop {
        // Geometric skip: number of non-flip shots before the next flip.
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let skip = ((1.0 - u).ln() / log1mp).floor();
        if !skip.is_finite() || skip >= (shots - shot) as f64 {
            break;
        }
        shot += skip as u64;
        event(shot);
        shot += 1;
        if shot >= shots {
            break;
        }
    }
}

/// FNV-1a over a byte string (seeds the drift wave from the device name).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Maps a mixed 64-bit value onto a wave in `[-1, 1)`.
fn drift_wave(seed: u64) -> f64 {
    // Top 53 bits → uniform in [0, 2), shifted to [-1, 1).
    ((mix64(seed) >> 11) as f64) / ((1u64 << 52) as f64) - 1.0
}

/// Counters for quantum-hardware usage, mirroring the cost accounting in the
/// paper's Table 3 (number of benchmarking circuits executed).
#[derive(Debug, Default)]
pub struct ExecutionStats {
    circuits: AtomicU64,
    shots: AtomicU64,
}

impl ExecutionStats {
    /// Number of circuits executed since the last reset.
    pub fn circuits(&self) -> u64 {
        self.circuits.load(Ordering::Relaxed)
    }

    /// Number of shots executed since the last reset.
    pub fn shots(&self) -> u64 {
        self.shots.load(Ordering::Relaxed)
    }

    fn record(&self, shots: u64) {
        self.circuits.fetch_add(1, Ordering::Relaxed);
        self.shots.fetch_add(shots, Ordering::Relaxed);
        qufem_telemetry::counter_add("device.circuits", 1);
        qufem_telemetry::counter_add("device.shots", shots);
    }

    fn reset(&self) {
        self.circuits.store(0, Ordering::Relaxed);
        self.shots.store(0, Ordering::Relaxed);
    }
}

/// A simulated quantum device: a topology plus a ground-truth readout noise
/// model, with hardware-usage accounting.
///
/// All randomness is caller-supplied (`&mut impl Rng`), so experiments are
/// reproducible given a seed.
#[derive(Debug)]
pub struct Device {
    name: String,
    topology: Topology,
    model: ReadoutNoiseModel,
    stats: ExecutionStats,
}

impl Device {
    /// Creates a device.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if the topology and noise model
    /// disagree on the qubit count.
    pub fn new(
        name: impl Into<String>,
        topology: Topology,
        model: ReadoutNoiseModel,
    ) -> Result<Self> {
        if topology.n_qubits() != model.n_qubits() {
            return Err(Error::WidthMismatch {
                expected: topology.n_qubits(),
                actual: model.n_qubits(),
            });
        }
        Ok(Device { name: name.into(), topology, model, stats: ExecutionStats::default() })
    }

    /// Human-readable device name (e.g. `"quafu-18"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.topology.n_qubits()
    }

    /// The connectivity graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The ground-truth noise model. Calibration code must *not* peek at
    /// this — it exists for golden baselines and tests.
    pub fn ground_truth(&self) -> &ReadoutNoiseModel {
        &self.model
    }

    /// Hardware-usage counters.
    pub fn stats(&self) -> &ExecutionStats {
        &self.stats
    }

    /// Resets the hardware-usage counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Executes a benchmarking circuit for `shots` shots and returns the
    /// empirical distribution over the circuit's measured qubits (bit `k` of
    /// an outcome is the `k`-th measured qubit in ascending order).
    ///
    /// # Panics
    ///
    /// Panics if the circuit width does not match the device, or the circuit
    /// measures no qubits, or `shots == 0`.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        circuit: &BenchmarkCircuit,
        shots: u64,
        rng: &mut R,
    ) -> ProbDist {
        assert_eq!(circuit.width(), self.n_qubits(), "circuit width must match device");
        assert!(shots > 0, "shots must be positive");
        let measured = circuit.measured_qubits();
        assert!(!measured.is_empty(), "circuit must measure at least one qubit");
        self.stats.record(shots);
        let ideal_full = circuit.ideal_bits();
        self.sample_readout(&ideal_full, &measured, shots, rng)
    }

    /// Samples the noisy readout of a fixed full-width ideal state, without
    /// counting it as a hardware circuit (used internally and by workload
    /// generators).
    ///
    /// Flip events are sampled with geometric skipping: for each qubit, and
    /// then for each correlated pair with both qubits measured, the shots at
    /// which it flips are drawn directly (one RNG draw per event plus one
    /// that ends the qubit's loop, so the expected number of draws is the
    /// number of *flips*, not `shots × qubits`). Statistically identical to
    /// per-cell Bernoulli draws. Each shot keeps its outcome as packed
    /// words — the ideal bits XOR every event that hit it, so two events on
    /// one bit cancel — and the outcomes are counted by sorting the shots,
    /// which yields the distribution in canonical key order (no probe
    /// table). Memory is `shots × ⌈m/64⌉` words plus one index per shot.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn sample_readout<R: Rng + ?Sized>(
        &self,
        ideal_full: &BitString,
        measured: &QubitSet,
        shots: u64,
        rng: &mut R,
    ) -> ProbDist {
        assert!(shots > 0, "shots must be positive");
        let flip_probs = self.model.flip_probabilities(ideal_full, measured);
        let ideal_sub = ideal_full.extract(measured.as_slice());
        let m = measured.len();
        let wpk = ideal_sub.as_words().len();
        // Shot `s`'s outcome occupies `outcomes[s * wpk..(s + 1) * wpk]`.
        let mut outcomes = ideal_sub.as_words().repeat(shots as usize);
        let mut flip =
            |shot: u64, k: usize| outcomes[shot as usize * wpk + k / 64] ^= 1 << (k % 64);
        for (k, &p) in flip_probs.iter().enumerate().take(m) {
            for_each_event(p, shots, rng, |shot| flip(shot, k));
        }
        // Correlated pair flips (both qubits measured) flip both local bits
        // of the affected shots.
        for term in self.model.correlated_flips() {
            let (a, b) = term.qubits;
            let (Some(ka), Some(kb)) = (measured.position(a), measured.position(b)) else {
                continue;
            };
            for_each_event(term.prob, shots, rng, |shot| {
                flip(shot, ka);
                flip(shot, kb);
            });
        }
        let key = |shot: usize| &outcomes[shot * wpk..(shot + 1) * wpk];
        let mut order: Vec<usize> = (0..shots as usize).collect();
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        let (mut keys, mut values) = (Vec::new(), Vec::new());
        for run in order.chunk_by(|&a, &b| key(a) == key(b)) {
            keys.extend_from_slice(key(run[0]));
            values.push(run.len() as f64 / shots as f64);
        }
        let mut index = SupportIndex::new(m);
        index.assign_sorted(m, [(&keys[..], &values[..])]);
        index.into_dist()
    }

    /// The *exact* readout distribution of a fixed ideal state: enumerates
    /// flip patterns depth-first, abandoning branches whose probability falls
    /// below `prune` (pass `0.0` for a fully exact enumeration on small
    /// measured sets).
    pub fn exact_readout(
        &self,
        ideal_full: &BitString,
        measured: &QubitSet,
        prune: f64,
    ) -> ProbDist {
        let flip_probs = self.model.flip_probabilities(ideal_full, measured);
        let positions: Vec<usize> = measured.iter().collect();
        let ideal_sub = ideal_full.extract(&positions);
        let m = positions.len();

        // Correlated terms whose qubits are both measured: enumerate their
        // activation patterns exactly (each term is an independent Bernoulli
        // event flipping two bits together).
        let active_terms: Vec<(usize, usize, f64)> = self
            .model
            .correlated_flips()
            .iter()
            .filter_map(|t| {
                let ka = measured.position(t.qubits.0)?;
                let kb = measured.position(t.qubits.1)?;
                Some((ka, kb, t.prob))
            })
            .collect();
        assert!(
            active_terms.len() <= 16,
            "exact readout supports at most 16 applicable correlated terms"
        );

        let mut out = ProbDist::new(m);
        for pattern in 0..(1usize << active_terms.len()) {
            let mut base = ideal_sub.clone();
            let mut pattern_weight = 1.0;
            for (t, &(ka, kb, p)) in active_terms.iter().enumerate() {
                if (pattern >> t) & 1 == 1 {
                    base.flip(ka);
                    base.flip(kb);
                    pattern_weight *= p;
                } else {
                    pattern_weight *= 1.0 - p;
                }
            }
            if pattern_weight <= prune {
                continue;
            }
            // DFS over qubits: choose "faithful" (1-p) or "flipped" (p).
            let mut stack: Vec<(usize, BitString, f64)> = vec![(0, base, pattern_weight)];
            while let Some((level, outcome, weight)) = stack.pop() {
                if weight <= prune {
                    continue;
                }
                if level == m {
                    out.add(outcome, weight);
                    continue;
                }
                let p = flip_probs[level];
                stack.push((level + 1, outcome.clone(), weight * (1.0 - p)));
                let flipped = outcome.with_flipped(level);
                stack.push((level + 1, flipped, weight * p));
            }
        }
        out
    }

    /// Pushes an ideal output distribution of a quantum algorithm through the
    /// readout noise channel, sampling `shots` shots.
    ///
    /// `ideal` has one bit per *measured* qubit (ascending order of
    /// `measured`); unmeasured device qubits idle in `|0⟩`.
    ///
    /// Counts as one hardware circuit execution.
    ///
    /// # Panics
    ///
    /// Panics if widths disagree or the ideal distribution has no positive
    /// mass.
    pub fn measure_distribution<R: Rng + ?Sized>(
        &self,
        ideal: &ProbDist,
        measured: &QubitSet,
        shots: u64,
        rng: &mut R,
    ) -> ProbDist {
        assert_eq!(ideal.width(), measured.len(), "ideal width must match measured set");
        self.stats.record(shots);
        let positions: Vec<usize> = measured.iter().collect();
        // Sort before the per-outcome readout sampling: HashMap iteration
        // order would otherwise split the RNG stream differently from one
        // process to the next, breaking fixed-seed reproducibility.
        let mut outcome_shots: Vec<(BitString, u64)> =
            ideal.sample_counts(rng, shots).into_iter().collect();
        outcome_shots.sort_unstable();
        let mut combined = ProbDist::new(measured.len());
        for (outcome, n) in outcome_shots {
            let mut ideal_full = BitString::zeros(self.n_qubits());
            ideal_full.scatter(&positions, &outcome);
            let noisy = self.sample_readout(&ideal_full, measured, n, rng);
            for (k, v) in noisy.iter() {
                combined.add(k, v * (n as f64) / (shots as f64));
            }
        }
        combined
    }

    /// Exact (unsampled) version of [`Device::measure_distribution`]: the
    /// true noisy distribution, with per-branch pruning below `prune`.
    pub fn measure_distribution_exact(
        &self,
        ideal: &ProbDist,
        measured: &QubitSet,
        prune: f64,
    ) -> ProbDist {
        assert_eq!(ideal.width(), measured.len(), "ideal width must match measured set");
        let positions: Vec<usize> = measured.iter().collect();
        let mut combined = ProbDist::new(measured.len());
        for (outcome, p) in ideal.iter() {
            if p <= 0.0 {
                continue;
            }
            let mut ideal_full = BitString::zeros(self.n_qubits());
            ideal_full.scatter(&positions, &outcome);
            let noisy = self.exact_readout(&ideal_full, measured, prune);
            for (k, v) in noisy.iter() {
                combined.add(k, v * p);
            }
        }
        combined
    }

    /// The exact ("golden") noise matrix over a measured qubit subset, with
    /// the remaining qubits idling in `|0⟩`: entry `(x, y)` is
    /// `P(measure = x | prepare = y)` (paper Eq. 3). Indices are the integer
    /// values of sub-bit-strings over `measured` (bit 0 least significant).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResourceExhausted`] if `measured.len() > max_qubits`
    /// — the matrix is dense `2^m × 2^m`.
    pub fn golden_noise_matrix(&self, measured: &QubitSet, max_qubits: usize) -> Result<Matrix> {
        let m = measured.len();
        if m > max_qubits {
            return Err(Error::ResourceExhausted(format!(
                "golden noise matrix for {m} qubits exceeds the {max_qubits}-qubit bound"
            )));
        }
        let dim = 1usize << m;
        let positions: Vec<usize> = measured.iter().collect();
        let mut matrix = Matrix::zeros(dim, dim);
        for y in 0..dim {
            let sub = BitString::from_index(y, m).expect("index below 2^m");
            let mut ideal_full = BitString::zeros(self.n_qubits());
            ideal_full.scatter(&positions, &sub);
            let column = self.exact_readout(&ideal_full, measured, 0.0);
            for (outcome, p) in column.iter() {
                let x = outcome.to_index().expect("outcome width = m <= max_qubits");
                matrix.set(x, y, p);
            }
        }
        Ok(matrix)
    }

    /// Approximate heap usage in bytes (benchmark memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.model.heap_bytes()
    }

    /// The same device after `step` units of simulated calibration drift:
    /// every flip rate, crosstalk shift, and correlated-flip probability is
    /// scaled by `1 + 0.25·wave` where the wave is a pure integer-hash
    /// function of `(device name, parameter, step)` in `[-1, 1)`.
    ///
    /// Deterministic by construction — the same `(device, step)` pair
    /// yields a bit-identical noise model on every platform and in every
    /// process, so recalibration pressure is simulable in tests, benches,
    /// and the serve drift scenario without threading RNG state around.
    /// `step == 0` returns the rates unchanged. Drifted rates are clamped
    /// into valid ranges (`[1e-4, 0.45]` for base flips), and the returned
    /// device starts with fresh hardware-usage counters.
    pub fn drifted(&self, step: u64) -> Device {
        let base = fnv1a(self.name.as_bytes()) ^ mix64(step);
        // One wave per (parameter kind, parameter index); `tag` separates
        // kinds so e.g. eps0 and eps1 of the same qubit drift independently.
        let scale = |tag: u64, idx: u64| -> f64 {
            1.0 + DRIFT_AMPLITUDE * drift_wave(mix64(base ^ mix64((tag << 56) | idx)))
        };
        let drift = |value: f64, tag: u64, idx: u64, lo: f64, hi: f64| -> f64 {
            if step == 0 {
                value
            } else {
                (value * scale(tag, idx)).clamp(lo, hi)
            }
        };
        let n = self.n_qubits();
        let mut qubits = Vec::with_capacity(n);
        for q in 0..n {
            let noise = self.model.qubit_noise(q);
            let eps0 = drift(noise.eps0, 0, q as u64, 1e-4, 0.45);
            let eps1 = drift(noise.eps1, 1, q as u64, 1e-4, 0.45);
            qubits.push(QubitNoise::new(eps0, eps1).expect("drifted rates clamped into range"));
        }
        let mut model = ReadoutNoiseModel::new(qubits);
        for ((source, target), shifts) in self.model.crosstalk_terms() {
            let idx = ((source as u64) << 28) | target as u64;
            let drifted = CrosstalkShifts {
                on_zero: drift(shifts.on_zero, 2, idx, -0.45, 0.45),
                on_one: drift(shifts.on_one, 3, idx, -0.45, 0.45),
                on_unmeasured: drift(shifts.on_unmeasured, 4, idx, -0.45, 0.45),
            };
            model.add_crosstalk(source, target, drifted).expect("indices from a valid model");
        }
        for term in self.model.correlated_flips() {
            let (a, b) = term.qubits;
            let idx = ((a as u64) << 28) | b as u64;
            let prob = drift(term.prob, 5, idx, 1e-6, 0.45);
            model.add_correlated_flip(a, b, prob).expect("indices from a valid model");
        }
        Device::new(self.name.clone(), self.topology.clone(), model)
            .expect("topology and model widths match by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrosstalkShifts, QubitNoise};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn test_device() -> Device {
        let mut model = ReadoutNoiseModel::new(vec![
            QubitNoise::new(0.02, 0.05).unwrap(),
            QubitNoise::new(0.01, 0.04).unwrap(),
            QubitNoise::new(0.03, 0.06).unwrap(),
        ]);
        model.add_crosstalk(1, 0, CrosstalkShifts { on_one: 0.05, ..Default::default() }).unwrap();
        Device::new("test-3q", Topology::linear(3), model).unwrap()
    }

    #[test]
    fn new_checks_widths() {
        let model = ReadoutNoiseModel::new(vec![QubitNoise::new(0.01, 0.01).unwrap(); 2]);
        assert!(Device::new("bad", Topology::linear(3), model).is_err());
    }

    #[test]
    fn execute_counts_hardware_usage() {
        let d = test_device();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let c = BenchmarkCircuit::all_prepared(&BitString::zeros(3));
        let _ = d.execute(&c, 100, &mut rng);
        let _ = d.execute(&c, 50, &mut rng);
        assert_eq!(d.stats().circuits(), 2);
        assert_eq!(d.stats().shots(), 150);
        d.reset_stats();
        assert_eq!(d.stats().circuits(), 0);
    }

    #[test]
    fn exact_readout_mass_sums_to_one() {
        let d = test_device();
        let all = QubitSet::full(3);
        let dist = d.exact_readout(&BitString::zeros(3), &all, 0.0);
        assert!((dist.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(dist.support_len(), 8);
    }

    #[test]
    fn exact_readout_matches_hand_computation() {
        // Qubit 0 alone: prepared |1⟩, flip prob = eps1 = 0.05.
        let d = test_device();
        let only0: QubitSet = [0usize].into_iter().collect();
        let mut ideal = BitString::zeros(3);
        ideal.set(0, true);
        let dist = d.exact_readout(&ideal, &only0, 0.0);
        let one = BitString::from_binary_str("1").unwrap();
        let zero = BitString::from_binary_str("0").unwrap();
        assert!((dist.prob(&one) - 0.95).abs() < 1e-12);
        assert!((dist.prob(&zero) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn crosstalk_visible_in_exact_readout() {
        let d = test_device();
        let all = QubitSet::full(3);
        // q1 = |1⟩ raises q0's flip probability from 0.02 to 0.07.
        let mut ideal = BitString::zeros(3);
        ideal.set(1, true);
        let dist = d.exact_readout(&ideal, &all, 0.0);
        let keep: QubitSet = [0usize].into_iter().collect();
        let marg = dist.marginal(&keep);
        let one = BitString::from_binary_str("1").unwrap();
        assert!((marg.prob(&one) - 0.07).abs() < 1e-12);
    }

    #[test]
    fn sampled_readout_converges_to_exact() {
        let d = test_device();
        let all = QubitSet::full(3);
        let ideal = BitString::zeros(3);
        let exact = d.exact_readout(&ideal, &all, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let sampled = d.sample_readout(&ideal, &all, 100_000, &mut rng);
        let zero = BitString::zeros(3);
        assert!((sampled.prob(&zero) - exact.prob(&zero)).abs() < 0.01);
    }

    #[test]
    fn golden_noise_matrix_is_column_stochastic() {
        let d = test_device();
        let all = QubitSet::full(3);
        let m = d.golden_noise_matrix(&all, 12).unwrap();
        assert_eq!(m.rows(), 8);
        assert!(m.is_column_stochastic(1e-12));
    }

    #[test]
    fn golden_noise_matrix_reflects_crosstalk() {
        let d = test_device();
        let all = QubitSet::full(3);
        let m = d.golden_noise_matrix(&all, 12).unwrap();
        // Column y=0 (|000⟩): P(q0 flips) = 0.02 → entry (x=1, y=0) ≈ 0.02 · 0.99 · 0.97.
        let expect = 0.02 * 0.99 * 0.97;
        assert!((m.get(1, 0) - expect).abs() < 1e-12);
        // Column y=2 (q1=1): q0 flip prob becomes 0.07.
        let expect_ct = 0.07 * (1.0 - 0.04) * 0.97;
        assert!((m.get(1 + 2, 2) - expect_ct).abs() < 1e-12);
    }

    #[test]
    fn golden_noise_matrix_size_bound() {
        let d = test_device();
        let all = QubitSet::full(3);
        assert!(d.golden_noise_matrix(&all, 2).is_err());
    }

    #[test]
    fn measure_distribution_exact_ghz_shape() {
        let d = test_device();
        let all = QubitSet::full(3);
        let mut ghz = ProbDist::new(3);
        ghz.add(BitString::zeros(3), 0.5);
        ghz.add(BitString::ones(3), 0.5);
        let noisy = d.measure_distribution_exact(&ghz, &all, 0.0);
        assert!((noisy.total_mass() - 1.0).abs() < 1e-12);
        // Both GHZ peaks survive as the two largest outcomes.
        let zero_p = noisy.prob(&BitString::zeros(3));
        let ones_p = noisy.prob(&BitString::ones(3));
        assert!(zero_p > 0.4 && ones_p > 0.35, "peaks: {zero_p}, {ones_p}");
    }

    #[test]
    fn measure_distribution_is_seed_reproducible() {
        // Regression: the per-outcome RNG split used to follow HashMap
        // iteration order, so the same seed gave different samples from one
        // run to the next.
        let d = test_device();
        let all = QubitSet::full(3);
        let mut ghz = ProbDist::new(3);
        ghz.add(BitString::zeros(3), 0.5);
        ghz.add(BitString::ones(3), 0.5);
        let mut rng_a = ChaCha8Rng::seed_from_u64(9);
        let mut rng_b = ChaCha8Rng::seed_from_u64(9);
        let a = d.measure_distribution(&ghz, &all, 400, &mut rng_a);
        let b = d.measure_distribution(&ghz, &all, 400, &mut rng_b);
        assert_eq!(a.sorted_pairs(), b.sorted_pairs());
    }

    #[test]
    fn measure_distribution_partial_set() {
        let d = test_device();
        let subset: QubitSet = [0usize, 2].into_iter().collect();
        let ideal = ProbDist::point_mass(BitString::from_binary_str("10").unwrap());
        let noisy = d.measure_distribution_exact(&ideal, &subset, 0.0);
        assert_eq!(noisy.width(), 2);
        assert!((noisy.total_mass() - 1.0).abs() < 1e-12);
        // q1 unmeasured: q0 flip prob stays at base eps1 = 0.05.
        let keep: QubitSet = [0usize].into_iter().collect();
        let marg = noisy.marginal(&keep);
        assert!((marg.prob(&BitString::from_binary_str("0").unwrap()) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn correlated_flips_appear_in_exact_readout() {
        let mut model = ReadoutNoiseModel::new(vec![QubitNoise::new(0.01, 0.01).unwrap(); 2]);
        model.add_correlated_flip(0, 1, 0.1).unwrap();
        let d = Device::new("corr", Topology::linear(2), model).unwrap();
        let all = QubitSet::full(2);
        let dist = d.exact_readout(&BitString::zeros(2), &all, 0.0);
        assert!((dist.total_mass() - 1.0).abs() < 1e-12);
        // P(11 | 00): correlated flip (0.1) with both faithful afterwards
        // (0.99²) plus the tiny independent double-flip path.
        let p11 = dist.prob(&BitString::ones(2));
        let expect = 0.1 * 0.99 * 0.99 + 0.9 * 0.01 * 0.01;
        assert!((p11 - expect).abs() < 1e-12, "p11 = {p11}, expected {expect}");
        // The product of single-qubit marginals underestimates p11: the
        // noise is genuinely correlated.
        let m0 = dist.marginal(&[0usize].into_iter().collect());
        let m1 = dist.marginal(&[1usize].into_iter().collect());
        let one = BitString::from_binary_str("1").unwrap();
        assert!(p11 > 2.0 * m0.prob(&one) * m1.prob(&one));
    }

    #[test]
    fn correlated_flips_match_between_sampled_and_exact() {
        let mut model = ReadoutNoiseModel::new(vec![QubitNoise::new(0.02, 0.02).unwrap(); 3]);
        model.add_correlated_flip(0, 2, 0.08).unwrap();
        let d = Device::new("corr3", Topology::linear(3), model).unwrap();
        let all = QubitSet::full(3);
        let exact = d.exact_readout(&BitString::zeros(3), &all, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sampled = d.sample_readout(&BitString::zeros(3), &all, 100_000, &mut rng);
        let key = BitString::from_binary_str("101").unwrap();
        assert!(
            (sampled.prob(&key) - exact.prob(&key)).abs() < 0.01,
            "sampled {} vs exact {}",
            sampled.prob(&key),
            exact.prob(&key)
        );
    }

    #[test]
    fn correlated_flip_ignored_when_partner_unmeasured() {
        let mut model = ReadoutNoiseModel::new(vec![QubitNoise::new(0.01, 0.01).unwrap(); 2]);
        model.add_correlated_flip(0, 1, 0.2).unwrap();
        let d = Device::new("corr", Topology::linear(2), model).unwrap();
        let only0: QubitSet = [0usize].into_iter().collect();
        let dist = d.exact_readout(&BitString::zeros(2), &only0, 0.0);
        let one = BitString::from_binary_str("1").unwrap();
        assert!((dist.prob(&one) - 0.01).abs() < 1e-12, "term must not fire: {dist:?}");
    }

    #[test]
    fn correlated_flip_validation() {
        let mut model = ReadoutNoiseModel::new(vec![QubitNoise::new(0.01, 0.01).unwrap(); 2]);
        assert!(model.add_correlated_flip(0, 0, 0.1).is_err());
        assert!(model.add_correlated_flip(0, 5, 0.1).is_err());
        assert!(model.add_correlated_flip(0, 1, 0.6).is_err());
        assert!(model.add_correlated_flip(0, 1, 0.1).is_ok());
    }

    #[test]
    fn drifted_step_zero_is_identity() {
        let d = test_device();
        let same = d.drifted(0);
        assert_eq!(same.ground_truth(), d.ground_truth());
        assert_eq!(same.name(), d.name());
        assert_eq!(same.topology(), d.topology());
        assert_eq!(same.stats().circuits(), 0);
    }

    #[test]
    fn drifted_is_deterministic_and_step_dependent() {
        let d = test_device();
        assert_eq!(d.drifted(3).ground_truth(), d.drifted(3).ground_truth());
        assert_ne!(d.drifted(3).ground_truth(), d.ground_truth());
        assert_ne!(d.drifted(3).ground_truth(), d.drifted(5).ground_truth());
        // Drift composes from the original rates, not cumulatively: a step
        // is an absolute point in time.
        assert_eq!(d.drifted(3).ground_truth(), d.drifted(0).drifted(3).ground_truth());
    }

    #[test]
    fn drifted_depends_on_device_name() {
        let d = test_device();
        let renamed =
            Device::new("other-3q", d.topology().clone(), d.ground_truth().clone()).unwrap();
        assert_ne!(d.drifted(1).ground_truth(), renamed.drifted(1).ground_truth());
    }

    #[test]
    fn drifted_rates_stay_valid_and_bounded() {
        let mut model = ReadoutNoiseModel::new(vec![
            QubitNoise::new(0.0, 0.499).unwrap(),
            QubitNoise::new(0.02, 0.05).unwrap(),
        ]);
        model.add_crosstalk(1, 0, CrosstalkShifts { on_one: 0.05, ..Default::default() }).unwrap();
        model.add_correlated_flip(0, 1, 0.1).unwrap();
        let d = Device::new("bounds", Topology::linear(2), model).unwrap();
        for step in 1..20u64 {
            // Device::new re-validates; the construction not panicking is
            // the real assertion. Check drift stays within ±25% + clamps.
            let drifted = d.drifted(step);
            for q in 0..2 {
                let orig = d.ground_truth().qubit_noise(q);
                let got = drifted.ground_truth().qubit_noise(q);
                for (o, g) in [(orig.eps0, got.eps0), (orig.eps1, got.eps1)] {
                    assert!((1e-4..=0.45).contains(&g), "step {step}: {g}");
                    assert!(g >= (o * 0.75).min(1e-4) && g <= (o * 1.25).max(1e-4));
                }
            }
        }
    }

    #[test]
    fn exact_readout_pruning_drops_small_branches() {
        let d = test_device();
        let all = QubitSet::full(3);
        let full = d.exact_readout(&BitString::zeros(3), &all, 0.0);
        let pruned = d.exact_readout(&BitString::zeros(3), &all, 1e-3);
        assert!(pruned.support_len() < full.support_len());
        // Dominant outcome unchanged.
        let zero = BitString::zeros(3);
        assert!((pruned.prob(&zero) - full.prob(&zero)).abs() < 1e-12);
    }

    /// The sampler before outcomes were kept as per-shot words: a `HashMap`
    /// from shot to its flipped local qubits and one cloned `BitString` per
    /// flipped shot. Returns the distribution and the number of shots whose
    /// events all cancelled.
    fn hashmap_sample_readout<R: Rng + ?Sized>(
        device: &Device,
        ideal_full: &BitString,
        measured: &QubitSet,
        shots: u64,
        rng: &mut R,
    ) -> (ProbDist, u64) {
        let model = device.ground_truth();
        let flip_probs = model.flip_probabilities(ideal_full, measured);
        let ideal_sub = ideal_full.extract(&measured.iter().collect::<Vec<_>>());
        let m = measured.len();
        let mut flips: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        let mut sample = |p: f64, rng: &mut R, locals: &[usize]| {
            if p <= 0.0 {
                return;
            }
            let log1mp = (1.0 - p).ln();
            let mut shot = 0u64;
            loop {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let skip = ((1.0 - u).ln() / log1mp).floor();
                if !skip.is_finite() || skip >= (shots - shot) as f64 {
                    break;
                }
                shot += skip as u64;
                flips.entry(shot).or_default().extend_from_slice(locals);
                shot += 1;
                if shot >= shots {
                    break;
                }
            }
        };
        for (k, &p) in flip_probs.iter().enumerate().take(m) {
            sample(p, rng, &[k]);
        }
        for term in model.correlated_flips() {
            let (a, b) = term.qubits;
            if let (Some(ka), Some(kb)) = (measured.position(a), measured.position(b)) {
                sample(term.prob, rng, &[ka, kb]);
            }
        }
        let mut counts = std::collections::HashMap::new();
        let faithful_shots = shots - flips.len() as u64;
        if faithful_shots > 0 {
            counts.insert(ideal_sub.clone(), faithful_shots);
        }
        let mut cancelled = 0;
        for flipped in flips.into_values() {
            let mut outcome = ideal_sub.clone();
            for k in flipped {
                outcome.flip(k);
            }
            cancelled += u64::from(outcome == ideal_sub);
            *counts.entry(outcome).or_insert(0u64) += 1;
        }
        (ProbDist::from_counts(m, &counts, shots).unwrap(), cancelled)
    }

    /// A `width`-qubit measured set on a `width + 2`-qubit device whose
    /// qubits 0–2 flip often and in overlapping correlated pairs (so the
    /// events of one shot can cancel bit by bit and as a whole), with more
    /// pairs straddling the 64-bit word boundary and reaching the two
    /// unmeasured qubits.
    fn correlated_device(width: usize, rng: &mut ChaCha8Rng) -> (Device, QubitSet) {
        let n = width + 2;
        let qubits = (0..n)
            .map(|q| {
                let (lo, hi) = if q < 3 { (0.2, 0.45) } else { (0.0005, 0.02) };
                QubitNoise::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi)).unwrap()
            })
            .collect();
        let mut model = ReadoutNoiseModel::new(qubits);
        for (a, b, p) in [(0, 1, 0.4), (1, 2, 0.3), (0, 2, 0.3), (63, 64, 0.2), (64, 129, 0.2)] {
            if b < n {
                model.add_correlated_flip(a, b, p).unwrap();
            }
        }
        // Pairs with one end outside the measured set are never sampled.
        model.add_correlated_flip(n - 2, n - 1, 0.4).unwrap();
        model.add_correlated_flip(0, n - 1, 0.4).unwrap();
        let device = Device::new("correlated", Topology::linear(n), model).unwrap();
        (device, QubitSet::full(width))
    }

    #[test]
    fn sample_readout_matches_the_hashmap_sampler() {
        let mut setup = ChaCha8Rng::seed_from_u64(26);
        let mut cancelled = 0;
        for width in [1, 27, 64, 65, 130] {
            let (device, measured) = correlated_device(width, &mut setup);
            for shots in [1, 2, 3, 5, 17, 64, 255, 1000, 2000] {
                let mut ideal = BitString::zeros(width + 2);
                for q in 0..width + 2 {
                    ideal.set(q, setup.gen::<bool>());
                }
                let seed = setup.gen::<u64>();
                let (mut new_rng, mut old_rng) =
                    (ChaCha8Rng::seed_from_u64(seed), ChaCha8Rng::seed_from_u64(seed));
                let sampled = device.sample_readout(&ideal, &measured, shots, &mut new_rng);
                let (expected, c) =
                    hashmap_sample_readout(&device, &ideal, &measured, shots, &mut old_rng);
                cancelled += c;
                let bits = |d: &ProbDist| -> Vec<(BitString, u64)> {
                    d.sorted_pairs().into_iter().map(|(k, v)| (k, v.to_bits())).collect()
                };
                assert_eq!(bits(&sampled), bits(&expected), "width {width}, {shots} shots");
                assert_eq!(new_rng.gen::<u64>(), old_rng.gen::<u64>(), "width {width}, {shots}");
            }
        }
        assert!(cancelled > 0, "no shot had all its events cancel");
    }
}
