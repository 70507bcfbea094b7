//! Workload inputs: a pure function of the seed.
//!
//! The device is a fixed fixture (the 27-qubit preset with a fixed noise
//! seed), so set-up work is the same for every seed. The algorithm
//! instances and each workload's class mix (which algorithm, how many
//! qubits, which method) are fixed too, so a request class costs the same
//! under every seed and no percentile moves between classes when the seed
//! changes. `--seed` draws the shot noise of every input and the measured
//! subsets of `serve-binary-27q`.

use qufem_circuits::Algorithm;
use qufem_core::digest::{fold_prob_dist, Digest64};
use qufem_device::{presets, Device};
use qufem_types::{ProbDist, QubitSet};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Register width of every workload.
pub const N_QUBITS: usize = 27;
/// Noise-model seed of the device fixture.
pub const DEVICE_SEED: u64 = 7;
/// Seed of the algorithm instances (secrets, peak positions).
pub const INSTANCE_SEED: u64 = 7;
/// Shots behind each full-register offline input.
pub const OFFLINE_SHOTS: u64 = 2000;
/// Width of every `serve-binary-27q` measured subset.
pub const BINARY_SUBSET: usize = 7;
/// Distinct `serve-binary-27q` measured subsets; at most the server's plan
/// cache capacity, so every request hits once warmed.
pub const BINARY_SUBSETS: usize = 6;
/// Shots behind each subset input.
pub const SUBSET_SHOTS: u64 = 2000;
/// Distinct `(measured set, method)` keys in the `serve-churn-27q` pool.
pub const CHURN_KEYS: usize = 24;
/// Inputs (algorithm outputs) per churn key.
pub const CHURN_INPUTS_PER_KEY: usize = 3;
/// Shots behind each churn input; fewer than the binary workload keeps the
/// M3 baseline's quadratic subspace solve in the same cost range as QuFEM.
pub const CHURN_SHOTS: u64 = 1000;

/// The device fixture.
pub fn device() -> Device {
    presets::for_qubits(N_QUBITS, DEVICE_SEED)
}

/// One calibration request input.
#[derive(Debug, Clone)]
pub struct Input {
    /// Algorithm name.
    pub name: &'static str,
    /// Measured qubits (defines the bit order).
    pub measured: QubitSet,
    /// Method id the request names.
    pub method: &'static str,
    /// Noise-free output.
    pub ideal: ProbDist,
    /// What the device reported.
    pub noisy: ProbDist,
}

fn sample(
    device: &Device,
    alg: Algorithm,
    measured: &QubitSet,
    method: &'static str,
    shots: u64,
    rng: &mut ChaCha8Rng,
) -> Input {
    let ideal = alg.ideal_distribution(measured.len(), INSTANCE_SEED);
    let noisy = device.measure_distribution(&ideal, measured, shots, rng);
    Input { name: alg.name(), measured: measured.clone(), method, ideal, noisy }
}

fn random_subset(k: usize, rng: &mut ChaCha8Rng) -> QubitSet {
    let mut qubits: Vec<usize> = (0..N_QUBITS).collect();
    qubits.shuffle(rng);
    qubits.into_iter().take(k).collect()
}

/// `offline-27q`: the paper's seven algorithm outputs on the full register.
pub fn offline(device: &Device, seed: u64) -> Vec<Input> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0FF1_1E00);
    let full = QubitSet::full(N_QUBITS);
    Algorithm::ALL
        .iter()
        .map(|&alg| sample(device, alg, &full, "qufem", OFFLINE_SHOTS, &mut rng))
        .collect()
}

/// `serve-binary-27q`: the seven algorithms on each of a few fixed
/// 7-qubit subsets, subset-major.
pub fn serve_binary(device: &Device, seed: u64) -> Vec<Input> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB1_0A2F);
    let mut subsets: Vec<QubitSet> = Vec::new();
    while subsets.len() < BINARY_SUBSETS {
        let s = random_subset(BINARY_SUBSET, &mut rng);
        if !subsets.contains(&s) {
            subsets.push(s);
        }
    }
    let mut inputs = Vec::new();
    for s in &subsets {
        for &alg in &Algorithm::ALL {
            inputs.push(sample(device, alg, s, "qufem", SUBSET_SHOTS, &mut rng));
        }
    }
    inputs
}

/// One `serve-churn-27q` plan-cache key and its inputs.
#[derive(Debug, Clone)]
pub struct ChurnKey {
    /// Measured qubits (8 to 12).
    pub measured: QubitSet,
    /// `qufem` or `m3`.
    pub method: &'static str,
    /// Requests sent under this key.
    pub inputs: Vec<Input>,
}

/// Keys per plan-cache window of the churn pool (= plan-cache capacity).
pub const CHURN_WINDOW: usize = 8;

/// Seed of the fixed `serve-churn-27q` subset pool.
pub const CHURN_POOL_SEED: u64 = 0xC4_0A2E;

/// `serve-churn-27q`: a pool of [`CHURN_KEYS`] distinct
/// `(measured set, method)` keys, three windows of [`CHURN_WINDOW`], three
/// times the plan-cache capacity. A key's class depends only on its
/// position within its window: sizes cycle through 8..=12 qubits, methods
/// alternate QuFEM / M3, and each position has its own three algorithms,
/// so every window (and so every phase) carries the same class mix.
///
/// The subsets are fixed ([`CHURN_POOL_SEED`]) and `seed` draws only the
/// shot noise: which qubits a subset holds changes the output support, and
/// so the cost, of a request by several percent, which would put the seed
/// into this workload's latency figures.
pub fn serve_churn(device: &Device, seed: u64) -> Vec<ChurnKey> {
    let mut pool_rng = ChaCha8Rng::seed_from_u64(CHURN_POOL_SEED);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC4_0A2E);
    let mut keys: Vec<ChurnKey> = Vec::new();
    while keys.len() < CHURN_KEYS {
        let pos = keys.len() % CHURN_WINDOW;
        let measured = random_subset(8 + pos % 5, &mut pool_rng);
        if keys.iter().any(|k| k.measured == measured) {
            continue;
        }
        let method = if pos.is_multiple_of(2) { "qufem" } else { "m3" };
        let inputs = (0..CHURN_INPUTS_PER_KEY)
            .map(|j| {
                let alg = Algorithm::ALL[(pos * CHURN_INPUTS_PER_KEY + j) % Algorithm::ALL.len()];
                sample(device, alg, &measured, method, CHURN_SHOTS, &mut rng)
            })
            .collect();
        keys.push(ChurnKey { measured, method, inputs });
    }
    keys
}

/// Digest of a request sequence: every input's measured set, method and
/// noisy distribution, in order.
pub fn request_digest<'a>(inputs: impl IntoIterator<Item = &'a Input>) -> u64 {
    let mut d = Digest64::new();
    for input in inputs {
        for &q in input.measured.as_slice() {
            d.write_u64(q as u64);
        }
        d.write_str(input.method);
        fold_prob_dist(&mut d, &input.noisy);
    }
    d.finish()
}
