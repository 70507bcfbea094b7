//! Adaptive benchmarking-circuit generation (paper §4.1).
//!
//! QuFEM does not enumerate the exponential space of preparation circuits.
//! It seeds characterization with a handful of random circuits (4 per
//! qubit), quantifies every pairwise interaction, and then keeps executing
//! circuits that *pin* the hot interactions — those whose metric
//! `θ = interact / num` (Eq. 12) still exceeds the accuracy threshold `α` —
//! until every θ drops below α. Strong interactions therefore receive many
//! observations while negligible ones are never chased, yielding the linear
//! circuit counts of the paper's Table 3.

use crate::config::QuFemConfig;
use crate::interaction::{HotInteraction, InteractionTable};
use crate::parallel;
use crate::snapshot::{BenchmarkRecord, BenchmarkSnapshot, IdealCondition};
use qufem_device::{BenchmarkCircuit, Device, QubitOp};
use qufem_types::{Error, Result};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Summary of a benchmark-generation run (feeds Table 3 and Figure 12a).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BenchGenReport {
    /// Circuits in the initial random seed batch.
    pub initial_circuits: usize,
    /// Adaptive refinement rounds executed.
    pub rounds: usize,
    /// Total circuits executed (initial + adaptive).
    pub total_circuits: usize,
}

/// Generates one fully random benchmarking circuit: each qubit independently
/// takes one of the paper's three options (prepare-0-measure,
/// prepare-1-measure, random-state-unmeasured).
pub fn random_circuit<R: Rng + ?Sized>(n: usize, rng: &mut R) -> BenchmarkCircuit {
    let ops = (0..n)
        .map(|_| match rng.gen_range(0..3) {
            0 => QubitOp::Prepare0Measured,
            1 => QubitOp::Prepare1Measured,
            _ => {
                if rng.gen::<bool>() {
                    QubitOp::Idle1
                } else {
                    QubitOp::Idle0
                }
            }
        })
        .collect();
    let circuit = BenchmarkCircuit::new(ops);
    // Guarantee at least one measured qubit (devices reject empty readout).
    if circuit.measured_qubits().is_empty() {
        let mut ops = circuit.ops().to_vec();
        let q = rng.gen_range(0..n);
        ops[q] =
            if rng.gen::<bool>() { QubitOp::Prepare1Measured } else { QubitOp::Prepare0Measured };
        BenchmarkCircuit::new(ops)
    } else {
        circuit
    }
}

/// The per-qubit pin demanded by one hot interaction.
fn pins_of<R: Rng + ?Sized>(hot: &HotInteraction, rng: &mut R) -> [(usize, QubitOp); 2] {
    let source_op = match hot.source_state {
        IdealCondition::Zero => QubitOp::Prepare0Measured,
        IdealCondition::One => QubitOp::Prepare1Measured,
        IdealCondition::Unmeasured => {
            if rng.gen::<bool>() {
                QubitOp::Idle1
            } else {
                QubitOp::Idle0
            }
        }
    };
    let target_op =
        if hot.target_state { QubitOp::Prepare1Measured } else { QubitOp::Prepare0Measured };
    [(hot.source, source_op), (hot.target, target_op)]
}

/// Whether `op` satisfies the same [`IdealCondition`] as `pin` (unmeasured
/// pins accept either idle state).
fn compatible(pin: QubitOp, op: QubitOp) -> bool {
    match (pin.is_measured(), op.is_measured()) {
        (true, true) => pin == op,
        (false, false) => true,
        _ => false,
    }
}

/// Packs the round's hot interactions into as few circuits as possible:
/// each circuit is a partial pin map; an interaction goes into the first
/// circuit whose existing pins don't conflict.
fn pack_round<R: Rng + ?Sized>(
    n: usize,
    hot: &[HotInteraction],
    copies: usize,
    rng: &mut R,
) -> Vec<BenchmarkCircuit> {
    let mut pin_maps: Vec<Vec<Option<QubitOp>>> = Vec::new();
    for h in hot {
        for _ in 0..copies.max(1) {
            let pins = pins_of(h, rng);
            let slot = pin_maps.iter_mut().find(|map| {
                pins.iter().all(|&(q, op)| match map[q] {
                    None => true,
                    Some(existing) => compatible(existing, op),
                })
            });
            match slot {
                Some(map) => {
                    for &(q, op) in &pins {
                        if map[q].is_none() {
                            map[q] = Some(op);
                        }
                    }
                }
                None => {
                    let mut map = vec![None; n];
                    for &(q, op) in &pins {
                        map[q] = Some(op);
                    }
                    pin_maps.push(map);
                }
            }
        }
    }
    pin_maps
        .into_iter()
        .map(|map| {
            let ops: Vec<QubitOp> =
                map.into_iter().map(|pin| pin.unwrap_or_else(|| random_op(rng))).collect();
            let circuit = BenchmarkCircuit::new(ops);
            if circuit.measured_qubits().is_empty() {
                // Degenerate (all pins unmeasured on a tiny device): force one.
                let mut ops = circuit.ops().to_vec();
                ops[0] = QubitOp::Prepare0Measured;
                BenchmarkCircuit::new(ops)
            } else {
                circuit
            }
        })
        .collect()
}

fn random_op<R: Rng + ?Sized>(rng: &mut R) -> QubitOp {
    match rng.gen_range(0..3) {
        0 => QubitOp::Prepare0Measured,
        1 => QubitOp::Prepare1Measured,
        _ => {
            if rng.gen::<bool>() {
                QubitOp::Idle1
            } else {
                QubitOp::Idle0
            }
        }
    }
}

/// Executes a batch of benchmarking circuits against the device across up
/// to `threads` scoped workers, returning the records in submission order.
///
/// Determinism: one child RNG seed per circuit is drawn from the parent
/// `rng` *before* the fan-out, in submission order (the same seed-split
/// pattern as `Device::measure_distribution`). Each worker samples shots
/// from its own `ChaCha8Rng`, so every sampled distribution depends only
/// on the parent stream position of its circuit — never on the thread
/// count or the scheduling of the workers.
fn sample_batch<R: Rng + ?Sized>(
    device: &Device,
    circuits: Vec<BenchmarkCircuit>,
    shots: u64,
    rng: &mut R,
    threads: usize,
) -> Vec<BenchmarkRecord> {
    let jobs: Vec<(BenchmarkCircuit, u64)> =
        circuits.into_iter().map(|c| (c, rng.gen::<u64>())).collect();
    parallel::map_in_order(&jobs, threads, |_, (circuit, seed)| {
        let mut child = ChaCha8Rng::seed_from_u64(*seed);
        let dist = device.execute(circuit, shots, &mut child);
        BenchmarkRecord::new(circuit.clone(), dist)
    })
}

/// Runs QuFEM's adaptive benchmark generation against a device, returning
/// the initial snapshot `BP_1` (paper Algorithm 1, line 1).
///
/// With `config.random_benchmark_generation` set, the θ/α loop is replaced
/// by purely random circuits up to the same budget-shaped stopping rule
/// (ablation of paper Figure 13a): random generation keeps sampling until
/// the hot-interaction list is empty too, but its circuits pin nothing, so
/// convergence takes more executions.
///
/// # Errors
///
/// Returns [`Error::ResourceExhausted`] if `config.max_benchmark_circuits`
/// is reached before every interaction satisfies `θ ≤ α`.
pub fn generate<R: Rng + ?Sized>(
    device: &Device,
    config: &QuFemConfig,
    rng: &mut R,
) -> Result<(BenchmarkSnapshot, BenchGenReport)> {
    generate_with_threads(device, config, rng, parallel::configured_threads())
}

/// [`generate`] with an explicit worker count. The returned snapshot is
/// **bit-identical at any `threads`** (see `sample_batch`); `generate`
/// delegates here with [`parallel::configured_threads`].
///
/// # Errors
///
/// Returns [`Error::ResourceExhausted`] if `config.max_benchmark_circuits`
/// is reached before every interaction satisfies `θ ≤ α`.
pub fn generate_with_threads<R: Rng + ?Sized>(
    device: &Device,
    config: &QuFemConfig,
    rng: &mut R,
    threads: usize,
) -> Result<(BenchmarkSnapshot, BenchGenReport)> {
    let _span = qufem_telemetry::span!("benchgen");
    let n = device.n_qubits();
    let mut snapshot = BenchmarkSnapshot::new(n);
    let mut table = InteractionTable::new(n);
    let initial = config.initial_circuits_per_qubit * n;
    // Circuit construction stays on the caller's RNG stream; only the shot
    // sampling fans out.
    let seed_batch: Vec<BenchmarkCircuit> = (0..initial).map(|_| random_circuit(n, rng)).collect();
    for record in sample_batch(device, seed_batch, config.shots, rng, threads) {
        table.add_record(&record);
        snapshot.push(record);
    }

    let mut rounds = 0usize;
    loop {
        let hot = table.hot_interactions(config.alpha);
        if qufem_telemetry::enabled() {
            // Per-round adaptive-convergence trace: the largest remaining
            // θ = interact/num metric (Eq. 12) this round still has to push
            // below α. Unexplored pairs report θ = ∞ — skip them so the
            // manifest stays JSON-serializable.
            let max_theta =
                hot.iter().map(|h| h.theta).filter(|t| t.is_finite()).fold(0.0, f64::max);
            qufem_telemetry::histogram_record("benchgen.round_max_theta", max_theta);
        }
        if hot.is_empty() {
            break;
        }
        qufem_telemetry::counter_add("benchgen.rounds", 1);
        if snapshot.len() >= config.max_benchmark_circuits {
            return Err(Error::ResourceExhausted(format!(
                "benchmark generation hit the {}-circuit cap with {} hot interactions left",
                config.max_benchmark_circuits,
                hot.len()
            )));
        }
        rounds += 1;
        let circuits = if config.random_benchmark_generation {
            // Ablation: same budget pressure, no pinning.
            (0..hot.len().clamp(1, 4 * n)).map(|_| random_circuit(n, rng)).collect()
        } else {
            pack_round(n, &hot, config.circuits_per_round, rng)
        };
        let budget = config.max_benchmark_circuits - snapshot.len();
        let round: Vec<BenchmarkCircuit> = circuits.into_iter().take(budget).collect();
        for record in sample_batch(device, round, config.shots, rng, threads) {
            table.add_record(&record);
            snapshot.push(record);
        }
    }

    let total = snapshot.len();
    qufem_telemetry::counter_add("benchgen.circuits", total as u64);
    Ok((snapshot, BenchGenReport { initial_circuits: initial, rounds, total_circuits: total }))
}

/// Generates exactly `count` random benchmarking circuits (the paper's
/// Figure 13a random baseline at a fixed budget).
pub fn generate_random_budget<R: Rng + ?Sized>(
    device: &Device,
    count: usize,
    shots: u64,
    rng: &mut R,
) -> BenchmarkSnapshot {
    let n = device.n_qubits();
    let mut snapshot = BenchmarkSnapshot::new(n);
    let circuits: Vec<BenchmarkCircuit> = (0..count).map(|_| random_circuit(n, rng)).collect();
    for record in sample_batch(device, circuits, shots, rng, parallel::configured_threads()) {
        snapshot.push(record);
    }
    snapshot
}

/// Generates the `2 N_q` qubit-independent characterization circuits used by
/// the IBU/CTMP baselines (paper Table 3): for each qubit, one circuit
/// preparing it in `|0⟩` and one in `|1⟩`, with every other qubit prepared
/// uniformly at random and measured.
pub fn generate_qubit_independent<R: Rng + ?Sized>(
    device: &Device,
    shots: u64,
    rng: &mut R,
) -> BenchmarkSnapshot {
    let n = device.n_qubits();
    let mut snapshot = BenchmarkSnapshot::new(n);
    let mut circuits = Vec::with_capacity(2 * n);
    for q in 0..n {
        for bit in [false, true] {
            let ops: Vec<QubitOp> = (0..n)
                .map(|i| {
                    if i == q {
                        QubitOp::from_parts(bit, true)
                    } else {
                        QubitOp::from_parts(rng.gen::<bool>(), true)
                    }
                })
                .collect();
            circuits.push(BenchmarkCircuit::new(ops));
        }
    }
    for record in sample_batch(device, circuits, shots, rng, parallel::configured_threads()) {
        snapshot.push(record);
    }
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_device::presets;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_config() -> QuFemConfig {
        // A loose alpha so tests converge in few rounds.
        QuFemConfig::builder().characterization_threshold(5e-4).shots(300).build().unwrap()
    }

    #[test]
    fn random_circuit_always_measures_something() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..200 {
            let c = random_circuit(2, &mut rng);
            assert!(!c.measured_qubits().is_empty());
        }
    }

    #[test]
    fn pack_round_merges_compatible_pins() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let hot = vec![
            HotInteraction {
                source: 0,
                source_state: IdealCondition::One,
                target: 1,
                target_state: false,
                theta: 1.0,
            },
            HotInteraction {
                source: 2,
                source_state: IdealCondition::Zero,
                target: 3,
                target_state: true,
                theta: 0.5,
            },
        ];
        let circuits = pack_round(4, &hot, 1, &mut rng);
        // Disjoint qubits → both interactions share one circuit.
        assert_eq!(circuits.len(), 1);
        let c = &circuits[0];
        assert_eq!(c.op(0), QubitOp::Prepare1Measured);
        assert_eq!(c.op(1), QubitOp::Prepare0Measured);
        assert_eq!(c.op(2), QubitOp::Prepare0Measured);
        assert_eq!(c.op(3), QubitOp::Prepare1Measured);
    }

    #[test]
    fn pack_round_splits_conflicting_pins() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let hot = vec![
            HotInteraction {
                source: 0,
                source_state: IdealCondition::One,
                target: 1,
                target_state: false,
                theta: 1.0,
            },
            HotInteraction {
                source: 0,
                source_state: IdealCondition::Zero,
                target: 1,
                target_state: false,
                theta: 0.5,
            },
        ];
        let circuits = pack_round(4, &hot, 1, &mut rng);
        assert_eq!(circuits.len(), 2, "conflicting source pins need separate circuits");
    }

    #[test]
    fn generation_converges_on_small_device() {
        let device = presets::ibmq_7(1);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (snapshot, report) = generate(&device, &small_config(), &mut rng).unwrap();
        assert_eq!(report.initial_circuits, 28);
        assert_eq!(report.total_circuits, snapshot.len());
        assert!(report.total_circuits >= 28);
        // Converged: no hot interactions remain.
        let table = InteractionTable::build(&snapshot);
        assert!(table.hot_interactions(small_config().alpha).is_empty());
    }

    #[test]
    fn generation_respects_circuit_cap() {
        let device = presets::ibmq_7(1);
        let config = QuFemConfig::builder()
            .characterization_threshold(1e-12) // unreachable accuracy
            .max_benchmark_circuits(40)
            .shots(100)
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let err = generate(&device, &config, &mut rng).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
    }

    #[test]
    fn qubit_independent_layout() {
        let device = presets::ibmq_7(1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let snap = generate_qubit_independent(&device, 100, &mut rng);
        assert_eq!(snap.len(), 14); // 2 × 7
                                    // Every circuit measures all qubits.
        for r in snap.records() {
            assert_eq!(r.positions().len(), 7);
        }
    }

    #[test]
    fn random_budget_generates_exact_count() {
        let device = presets::ibmq_7(1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let snap = generate_random_budget(&device, 33, 50, &mut rng);
        assert_eq!(snap.len(), 33);
        assert_eq!(device.stats().circuits(), 33);
    }
}
