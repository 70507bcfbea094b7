//! One module per reproduced table/figure.
//!
//! Every module exposes `run(&RunOptions) -> Vec<Table>`; the `exp_all`
//! binary parses options, calls each selected `run`, and prints and
//! archives the tables under `results/`.

pub mod ext_adaption;
pub mod ext_apply;
pub mod ext_correlated;
pub mod ext_loadgen;
pub mod ext_parallel;
pub mod ext_projection;
pub mod ext_serve;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig8;
pub mod fig9;
pub mod fig9c;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table6;

use qufem_baselines::{standard_registry, Mitigator};
use qufem_core::{MethodOptions, QuFem, QuFemConfig};
use qufem_device::{presets, Device};
use std::sync::Arc;
use std::time::Instant;

/// Times a closure, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Shots per benchmarking circuit, scaled down on large devices so the
/// single-threaded harness stays tractable (the paper uses 2000 everywhere
/// on a 128-core server; the scaling is noted in each affected table).
pub fn shots_for(n_qubits: usize, quick: bool) -> u64 {
    let base = match n_qubits {
        0..=49 => 2000,
        50..=135 => 1000,
        _ => 500,
    };
    if quick {
        base / 4
    } else {
        base
    }
}

/// The QuFEM configuration used by the harness for a device of `n` qubits.
/// The characterization threshold is `1e-4` rather than the paper's
/// `2.5e-5`: the synthetic presets carry ~10x stronger crosstalk than the
/// paper's hardware (DESIGN.md, noise-scale note), so the θ = interact/num
/// rule reaches the same *relative* accuracy with proportionally fewer
/// circuits at a looser α.
pub fn qufem_config_for(n_qubits: usize, quick: bool, seed: u64) -> QuFemConfig {
    let alpha = if quick { 4e-4 } else { 1e-4 };
    QuFemConfig::builder()
        .characterization_threshold(alpha)
        .shots(shots_for(n_qubits, quick))
        .max_benchmark_circuits(60_000)
        .seed(seed)
        .build()
        .expect("harness defaults are valid")
}

/// Characterizes QuFEM on a device with the harness defaults.
///
/// # Panics
///
/// Panics if characterization fails (a harness bug, not an input error).
pub fn characterize_qufem(device: &Device, quick: bool, seed: u64) -> QuFem {
    let config = qufem_config_for(device.n_qubits(), quick, seed);
    QuFem::characterize(device, config).expect("characterization must converge")
}

/// The per-size device presets used by Tables 3–5.
pub fn table_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![7, 18, 27]
    } else {
        vec![7, 18, 27, 36, 49, 79, 136]
    }
}

/// Builds the preset device for a size (paper Table 2 platform or synthetic
/// interpolation size).
pub fn device_for(n: usize, seed: u64) -> Device {
    presets::for_qubits(n, seed)
}

/// Display label (paper citation form) for a standard-registry method id.
pub fn method_display(id: &str) -> &'static str {
    match id {
        "ibu" => "IBU [50]",
        "ctmp" => "CTMP [9]",
        "m3" => "M3 [37]",
        "qbeep" => "Q-BEEP [53]",
        "qufem" => "QuFEM",
        _ => "?",
    }
}

/// Largest device (qubits) at which a method still finishes in the
/// single-threaded harness, mirroring the paper's time-outs; `None` means
/// the method runs at every size.
pub fn method_max_qubits(id: &str) -> Option<usize> {
    match id {
        "qbeep" => Some(18), // exponential state-graph growth
        "ctmp" => Some(49),  // full tensor-product inversion
        _ => None,
    }
}

/// Per-method option overrides the sweeps use (the paper's evaluation
/// settings).
pub fn method_sweep_options(id: &str) -> MethodOptions {
    let mut options = MethodOptions::new();
    if id == "ibu" {
        options.insert("max_iterations".to_string(), 200.0);
    }
    options
}

/// One registry method instantiated for a sweep.
pub struct MethodRun {
    /// Registry id (`"qufem"`, `"ibu"`, …).
    pub id: String,
    /// Table-header label, in the paper's citation form.
    pub display: &'static str,
    /// The instantiated method.
    pub mitigator: Arc<dyn Mitigator>,
}

/// Instantiates every standard-registry method from one characterized
/// QuFEM, in registry (sorted-id) order. QuFEM serves itself; the
/// baselines are built from its first benchmarking snapshot (`BP_1`) with
/// [`method_sweep_options`] applied — the same snapshot-replay path the
/// serve daemon uses, so sweep numbers and served numbers agree. Methods
/// gated below `n_qubits` by [`method_max_qubits`] are skipped.
///
/// # Panics
///
/// Panics if `qufem` carries no iterations or a registry build fails
/// (harness bugs, not input errors).
pub fn registry_methods(qufem: &QuFem, n_qubits: usize) -> Vec<MethodRun> {
    let registry = standard_registry(qufem.config().clone());
    let snapshot = qufem.iterations().first().expect("characterized calibrator").snapshot();
    registry
        .ids()
        .into_iter()
        .filter(|id| method_max_qubits(id).is_none_or(|max| n_qubits <= max))
        .map(|id| {
            let mitigator: Arc<dyn Mitigator> = if id == "qufem" {
                Arc::new(qufem.clone())
            } else {
                registry
                    .build(&id, snapshot, &method_sweep_options(&id))
                    .expect("standard registry builds its own methods")
            };
            MethodRun { display: method_display(&id), mitigator, id }
        })
        .collect()
}

/// Builds the device used by the per-size cost sweeps (Tables 3-5): a grid
/// with one *uniform moderate* noise profile across all sizes. The platform
/// presets differ wildly in noise level (by design — Figure 11b), which
/// would otherwise dominate the circuit-count and time scaling the sweep is
/// meant to expose.
pub fn sweep_device_for(n: usize, seed: u64) -> Device {
    let rows = (n as f64).sqrt().floor().max(1.0) as usize;
    let cols = n.div_ceil(rows);
    let full = qufem_device::Topology::grid(rows, cols);
    let edges: Vec<(usize, usize)> =
        full.edges().iter().copied().filter(|&(a, b)| a < n && b < n).collect();
    let topology = qufem_device::Topology::from_edges(n, &edges).expect("trimmed grid");
    presets::build_device(
        format!("sweep-{n}"),
        topology,
        &qufem_device::presets::NoiseProfile::default(),
        seed,
    )
}
