//! Device presets mirroring Table 2 of the QuFEM paper.
//!
//! Five evaluation platforms are modeled, plus synthetic interpolation sizes
//! (27q, 49q) and scale-out grids (200–500q) used by the paper's Tables 3–6.
//! All generation is deterministic in the provided seed.

use crate::{CrosstalkShifts, Device, QubitNoise, ReadoutNoiseModel, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Statistical profile from which a device's ground-truth noise is drawn.
///
/// The ranges follow the paper's observations: per-qubit readout error in the
/// 1%–10% band (§1), `|1⟩` read errors larger than `|0⟩` (relaxation),
/// crosstalk concentrated on topology edges with occasional long-range terms,
/// and strong mutual terms inside readout-resonator groups (Figure 5).
#[derive(Debug, Clone)]
pub struct NoiseProfile {
    /// Range for `P(read 1 | prepared 0)`.
    pub eps0_range: (f64, f64),
    /// Range for `P(read 0 | prepared 1)`.
    pub eps1_range: (f64, f64),
    /// Peak magnitude of state-dependent crosstalk along topology edges.
    pub edge_crosstalk: f64,
    /// Peak magnitude of the (negative) shift when a neighbor is unmeasured.
    pub unmeasured_relief: f64,
    /// Number of random long-range (non-edge) crosstalk pairs, as a fraction
    /// of the qubit count.
    pub long_range_fraction: f64,
    /// Peak magnitude of long-range crosstalk.
    pub long_range_strength: f64,
    /// Groups of qubits sharing a readout resonator.
    pub resonator_groups: Vec<Vec<usize>>,
    /// Peak magnitude of mutual crosstalk inside a resonator group.
    pub resonator_strength: f64,
}

impl Default for NoiseProfile {
    fn default() -> Self {
        NoiseProfile {
            eps0_range: (0.01, 0.03),
            eps1_range: (0.02, 0.05),
            edge_crosstalk: 0.02,
            unmeasured_relief: 0.004,
            long_range_fraction: 0.3,
            long_range_strength: 0.004,
            resonator_groups: Vec::new(),
            resonator_strength: 0.03,
        }
    }
}

fn uniform<R: Rng + ?Sized>(rng: &mut R, range: (f64, f64)) -> f64 {
    rng.gen_range(range.0..range.1)
}

/// Builds a device from a topology and a noise profile, deterministically in
/// `seed`.
///
/// # Panics
///
/// Panics if the profile produces invalid base error rates (ranges must stay
/// inside `[0, 0.5)`) or a resonator group references an out-of-range qubit.
pub fn build_device(
    name: impl Into<String>,
    topology: Topology,
    profile: &NoiseProfile,
    seed: u64,
) -> Device {
    let n = topology.n_qubits();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let qubits: Vec<QubitNoise> = (0..n)
        .map(|_| {
            QubitNoise::new(
                uniform(&mut rng, profile.eps0_range),
                uniform(&mut rng, profile.eps1_range),
            )
            .expect("profile ranges must be valid flip probabilities")
        })
        .collect();
    let mut model = ReadoutNoiseModel::new(qubits);

    // Crosstalk is *local and sparse*, the physical premise of QuFEM's
    // grouping (paper §3.3, Figure 5): most of a qubit's interaction comes
    // from one dominant partner (shared readout resonator, matched
    // frequency), with much weaker coupling to its other neighbours. Model
    // that by drawing a maximal matching on the topology — matched pairs get
    // strong bidirectional terms, remaining edges weak ones.
    let matching = {
        use rand::seq::SliceRandom;
        let mut edges: Vec<(usize, usize)> = topology.edges().to_vec();
        edges.shuffle(&mut rng);
        let mut taken = vec![false; n];
        let mut matched = Vec::new();
        for (a, b) in edges {
            if !taken[a] && !taken[b] {
                taken[a] = true;
                taken[b] = true;
                matched.push((a, b));
            }
        }
        matched
    };
    let matched_pairs: std::collections::HashSet<(usize, usize)> =
        matching.iter().copied().collect();
    for &(a, b) in topology.edges() {
        let dominant = matched_pairs.contains(&(a, b));
        for (src, dst) in [(a, b), (b, a)] {
            let scale = if dominant {
                uniform(&mut rng, (0.6, 1.0))
            } else {
                uniform(&mut rng, (0.05, 0.2))
            };
            let strength = scale * profile.edge_crosstalk;
            let shifts = CrosstalkShifts {
                on_one: strength,
                on_zero: strength * uniform(&mut rng, (0.0, 0.3)),
                on_unmeasured: -scale * uniform(&mut rng, (0.2, 1.0)) * profile.unmeasured_relief,
            };
            model.add_crosstalk(src, dst, shifts).expect("edge endpoints are valid");
        }
    }

    // Sparse long-range terms (frequency collisions between distant qubits).
    let long_range_count = ((n as f64) * profile.long_range_fraction) as usize;
    let mut placed = 0;
    while placed < long_range_count && n >= 2 {
        let src = rng.gen_range(0..n);
        let dst = rng.gen_range(0..n);
        if src == dst || topology.has_edge(src, dst) {
            continue;
        }
        let strength = uniform(&mut rng, (0.1, 0.5)) * profile.long_range_strength;
        let shifts = CrosstalkShifts {
            on_one: strength,
            on_zero: strength * 0.2,
            on_unmeasured: -strength * 0.3,
        };
        model.add_crosstalk(src, dst, shifts).expect("indices checked above");
        placed += 1;
    }

    // Strong mutual terms inside resonator groups.
    for group in &profile.resonator_groups {
        for &src in group {
            for &dst in group {
                if src == dst {
                    continue;
                }
                let strength = uniform(&mut rng, (0.5, 1.0)) * profile.resonator_strength;
                let shifts = CrosstalkShifts {
                    on_one: strength,
                    on_zero: strength * 0.4,
                    on_unmeasured: -strength * 0.5,
                };
                model.add_crosstalk(src, dst, shifts).expect("resonator group qubits must exist");
            }
        }
    }

    Device::new(name, topology, model).expect("topology and model sizes match by construction")
}

/// 7-qubit IBMQ-Perth-like device: Falcon "H" topology, low readout error
/// (Table 2: 99.9% 1q fidelity).
pub fn ibmq_7(seed: u64) -> Device {
    let profile = NoiseProfile {
        eps0_range: (0.008, 0.015),
        eps1_range: (0.015, 0.030),
        edge_crosstalk: 0.015,
        unmeasured_relief: 0.003,
        long_range_fraction: 0.3,
        long_range_strength: 0.003,
        resonator_groups: vec![],
        resonator_strength: 0.0,
    };
    build_device("ibmq-7", Topology::ibm_falcon_7(), &profile, seed)
}

/// 18-qubit Quafu-like device (Table 2: 95.9% fidelity — noisier than IBMQ),
/// with one four-qubit readout-resonator group as in paper Figure 5
/// (qubits 14–17 share a resonator).
pub fn quafu_18(seed: u64) -> Device {
    let profile = NoiseProfile {
        eps0_range: (0.015, 0.035),
        eps1_range: (0.030, 0.060),
        edge_crosstalk: 0.025,
        unmeasured_relief: 0.005,
        long_range_fraction: 0.4,
        long_range_strength: 0.006,
        resonator_groups: vec![vec![14, 15, 16, 17]],
        resonator_strength: 0.03,
    };
    build_device("quafu-18", Topology::grid(3, 6), &profile, seed)
}

/// 36-qubit self-developed-like device: 6×6 Xmon grid (Table 2), with the
/// highest readout noise of the presets — the paper's Figure 11(b) reports it
/// needs the largest group size (5), which it attributes to noise level.
pub fn custom_36(seed: u64) -> Device {
    let profile = NoiseProfile {
        eps0_range: (0.015, 0.040),
        eps1_range: (0.030, 0.060),
        edge_crosstalk: 0.030,
        unmeasured_relief: 0.006,
        long_range_fraction: 0.5,
        long_range_strength: 0.006,
        resonator_groups: vec![vec![0, 1, 2, 3], vec![18, 19, 20, 21]],
        resonator_strength: 0.028,
    };
    build_device("custom-36", Topology::grid(6, 6), &profile, seed)
}

/// 79-qubit Rigetti-like device (Table 2: 90.0% 2q fidelity — noisy
/// entangling layer, moderate readout), 8×10 lattice with one site removed.
pub fn rigetti_79(seed: u64) -> Device {
    let full = Topology::grid(8, 10);
    let edges: Vec<(usize, usize)> =
        full.edges().iter().copied().filter(|&(a, b)| a < 79 && b < 79).collect();
    let topology = Topology::from_edges(79, &edges).expect("trimmed grid edges are valid");
    let profile = NoiseProfile {
        eps0_range: (0.015, 0.040),
        eps1_range: (0.030, 0.070),
        edge_crosstalk: 0.030,
        unmeasured_relief: 0.006,
        long_range_fraction: 0.4,
        long_range_strength: 0.006,
        resonator_groups: vec![],
        resonator_strength: 0.0,
    };
    build_device("rigetti-79", topology, &profile, seed)
}

/// 136-qubit Quafu-like device: 8×17 grid with *low* readout noise — the
/// paper notes it needs smaller groups than the 36q device despite having the
/// most qubits.
pub fn quafu_136(seed: u64) -> Device {
    let profile = NoiseProfile {
        eps0_range: (0.005, 0.015),
        eps1_range: (0.010, 0.025),
        edge_crosstalk: 0.012,
        unmeasured_relief: 0.003,
        long_range_fraction: 0.3,
        long_range_strength: 0.003,
        resonator_groups: vec![],
        resonator_strength: 0.0,
    };
    build_device("quafu-136", Topology::grid(8, 17), &profile, seed)
}

/// Synthetic near-square grid with the 136q noise profile, for the 200–500
/// qubit scale-out experiment (paper Table 6: "levels of readout error and
/// crosstalk the same as the 136-qubit device").
pub fn scale_grid(n: usize, seed: u64) -> Device {
    let rows = (n as f64).sqrt().floor().max(1.0) as usize;
    let cols = n.div_ceil(rows);
    let full = Topology::grid(rows, cols);
    let edges: Vec<(usize, usize)> =
        full.edges().iter().copied().filter(|&(a, b)| a < n && b < n).collect();
    let topology = Topology::from_edges(n, &edges).expect("trimmed grid edges are valid");
    let profile = NoiseProfile {
        eps0_range: (0.005, 0.015),
        eps1_range: (0.010, 0.025),
        edge_crosstalk: 0.012,
        unmeasured_relief: 0.003,
        long_range_fraction: 0.3,
        long_range_strength: 0.003,
        resonator_groups: vec![],
        resonator_strength: 0.0,
    };
    build_device(format!("grid-{n}"), topology, &profile, seed)
}

/// The preset used by the paper's per-size sweeps (Tables 3–5 cover
/// 7/18/27/36/49/79/136 qubits). Sizes without a Table 2 platform are
/// synthetic grids with moderate noise, matching the paper's interpolation.
pub fn for_qubits(n: usize, seed: u64) -> Device {
    match n {
        7 => ibmq_7(seed),
        18 => quafu_18(seed),
        36 => custom_36(seed),
        79 => rigetti_79(seed),
        136 => quafu_136(seed),
        27 => {
            // IBM Falcon-class 27-qubit heavy-hex lattice.
            let profile = NoiseProfile::default();
            build_device("heavyhex-27", Topology::heavy_hex(2, 7), &profile, seed)
        }
        49 => {
            let profile = NoiseProfile::default();
            build_device("synthetic-49", Topology::grid(7, 7), &profile, seed)
        }
        _ => scale_grid(n, seed),
    }
}

/// A named preset: its name, register width and constructor.
type Named = (&'static str, usize, fn(u64) -> Device);

/// The Table 2 presets by name, in qubit-count order.
const NAMED: [Named; 5] = [
    ("ibmq-7", 7, ibmq_7),
    ("quafu-18", 18, quafu_18),
    ("custom-36", 36, custom_36),
    ("rigetti-79", 79, rigetti_79),
    ("quafu-136", 136, quafu_136),
];

/// Register width of a preset name: `ibmq-7`, `quafu-18`, `custom-36`,
/// `rigetti-79`, `quafu-136`, or `grid-N` ([`scale_grid`], 2 ≤ N ≤ 1000).
/// `None` for any other name.
pub fn width_by_name(name: &str) -> Option<usize> {
    match NAMED.iter().find(|(named, ..)| *named == name) {
        Some(&(_, width, _)) => Some(width),
        None => name
            .strip_prefix("grid-")
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|&n| (2..=1000).contains(&n)),
    }
}

/// The preset device a name selects (the names [`width_by_name`] accepts),
/// or `None` for an unknown name.
pub fn by_name(name: &str, seed: u64) -> Option<Device> {
    match NAMED.iter().find(|(named, ..)| *named == name) {
        Some((_, _, build)) => Some(build(seed)),
        None => width_by_name(name).map(|n| scale_grid(n, seed)),
    }
}

/// All Table 2 presets, in qubit-count order.
pub fn table2_devices(seed: u64) -> Vec<Device> {
    NAMED.iter().map(|(_, _, build)| build(seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_types::{BitString, QubitSet};

    #[test]
    fn presets_have_expected_sizes() {
        assert_eq!(ibmq_7(1).n_qubits(), 7);
        assert_eq!(quafu_18(1).n_qubits(), 18);
        assert_eq!(custom_36(1).n_qubits(), 36);
        assert_eq!(rigetti_79(1).n_qubits(), 79);
        assert_eq!(quafu_136(1).n_qubits(), 136);
    }

    #[test]
    fn preset_widths_match_the_cli_names() {
        for name in ["ibmq-7", "quafu-18", "custom-36", "rigetti-79", "quafu-136", "grid-12"] {
            let width = width_by_name(name).unwrap_or_else(|| panic!("{name} is a preset"));
            assert_eq!(by_name(name, 1).unwrap().n_qubits(), width, "{name}");
        }
        assert_eq!(width_by_name("grid-12"), Some(12));
        for unknown in ["grid-1", "grid-1001", "grid-x", "warp"] {
            assert_eq!(width_by_name(unknown), None, "{unknown}");
            assert!(by_name(unknown, 1).is_none(), "{unknown}");
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = ibmq_7(5);
        let b = ibmq_7(5);
        assert_eq!(a.ground_truth(), b.ground_truth());
        let c = ibmq_7(6);
        assert_ne!(a.ground_truth(), c.ground_truth());
    }

    #[test]
    fn for_qubits_covers_paper_sizes() {
        for &n in &[7usize, 18, 27, 36, 49, 79, 136, 200] {
            let d = for_qubits(n, 2);
            assert_eq!(d.n_qubits(), n, "preset for {n} qubits");
        }
    }

    #[test]
    fn scale_grid_produces_connected_device() {
        let d = scale_grid(200, 3);
        assert_eq!(d.n_qubits(), 200);
        // A grid remains connected after trimming the tail.
        assert!(d.topology().distance(0, 199).is_some());
    }

    #[test]
    fn resonator_group_creates_strong_crosstalk() {
        let d = quafu_18(1);
        let terms = d.ground_truth().crosstalk_terms();
        let in_group: Vec<_> = terms
            .iter()
            .filter(|((s, t), _)| (14..18).contains(s) && (14..18).contains(t))
            .collect();
        assert_eq!(in_group.len(), 12); // 4 qubits, all ordered pairs
        for (_, shifts) in &in_group {
            assert!(shifts.on_one >= 0.015, "resonator crosstalk should be strong");
        }
    }

    #[test]
    fn flip_rates_stay_in_declared_band() {
        let d = custom_36(4);
        let all = QubitSet::full(36);
        let ideal = BitString::zeros(36);
        for q in 0..36 {
            let p = d.ground_truth().flip_probability(q, &ideal, &all);
            assert!(p > 0.0 && p < 0.25, "qubit {q} flip probability {p} out of band");
        }
    }
}
