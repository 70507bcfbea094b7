//! Experiment harness for the QuFEM reproduction.
//!
//! Each table and figure of the paper's evaluation (§6) has a corresponding
//! module under [`experiments`] and an artifact stem that the `exp_all`
//! binary writes (and selects with `--only STEM`):
//!
//! | Paper artifact | Module | Artifact stem |
//! |---|---|---|
//! | Table 1 | [`experiments::table1`] | `table1_comparison` |
//! | Table 2 | [`experiments::table2`] | `table2_devices` |
//! | Table 3 | [`experiments::table3`] | `table3_characterization_circuits` |
//! | Table 4 | [`experiments::table4`] | `table4_calibration_time` |
//! | Table 5 | [`experiments::table4`] | `table4_calibration_time_2` |
//! | Table 6 | [`experiments::table6`] | `table6_scale_out` |
//! | Figure 8 | [`experiments::fig8`] | `fig8_intermediate_values` |
//! | Figure 9a/9b | [`experiments::fig9`] | `fig9a_fidelity_7q`, `fig9b_fidelity_18q` |
//! | Figure 9c | [`experiments::fig9c`] | `fig9c_partial_measurement` |
//! | Figure 10 | [`experiments::fig10`] | `fig10_ghz_scaling` |
//! | Figure 11 | [`experiments::fig11`] | `fig11_parameter_sweep` |
//! | Figure 12 | [`experiments::fig12`] | `fig12_thresholds` |
//! | Figure 13 | [`experiments::fig13`] | `fig13_ablations` |
//!
//! Four extension experiments go beyond the paper:
//! `ext_projection_ablation`, `ext_adaption_ablation`,
//! `ext_correlated_noise` and `ext_parallel_scaling`. The serving layer and
//! the apply hot path are measured by perfbench (`perfbench/`), not here.
//!
//! `exp_all` runs everything (or the `--only` selection) and writes text +
//! JSON artifacts to `results/`; `--quick` runs reduced sizes. Each run's
//! `bench_summary.json` row records the step's peak heap bytes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod fit;
pub mod report;
pub mod workloads;

/// Options of the `exp_all` experiment driver.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Reduced sizes and shot counts for smoke-testing.
    pub quick: bool,
    /// Output directory for text/JSON artifacts (`results/` by default).
    pub out_dir: std::path::PathBuf,
    /// Base RNG seed.
    pub seed: u64,
    /// Experiment-name substrings to run (empty = all).
    pub only: Vec<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            quick: false,
            out_dir: std::path::PathBuf::from("results"),
            seed: 7,
            only: Vec::new(),
        }
    }
}

impl RunOptions {
    /// Whether an experiment named `stem` is selected by the `--only` filters.
    pub fn selects(&self, stem: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|f| stem.contains(f.as_str()))
    }

    /// Parses the driver's arguments (`--quick`, `--seed N`, `--out DIR`,
    /// `--only SUBSTR` repeatable). An unknown argument, a missing value or
    /// an unparseable seed is an error that names the argument.
    pub fn from_args() -> Result<Self, String> {
        let mut opts = RunOptions::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--quick" {
                opts.quick = true;
                continue;
            }
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--seed" => {
                    let v = value()?;
                    opts.seed = v.parse().map_err(|_| format!("--seed {v:?} is not an integer"))?;
                }
                "--out" => opts.out_dir = value()?.into(),
                "--only" => opts.only.push(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }
}
