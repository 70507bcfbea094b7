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
//! `exp_all` runs everything (or the `--only` selection) and writes text +
//! JSON artifacts to `results/`; `--quick` runs reduced sizes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod fit;
pub mod memwatch;
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

    /// Parses the common CLI arguments (`--quick`, `--seed N`, `--out DIR`,
    /// `--only SUBSTR` repeatable).
    pub fn from_args() -> Self {
        let mut opts = RunOptions::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--seed" => {
                    if let Some(v) = args.next() {
                        opts.seed = v.parse().unwrap_or(opts.seed);
                    }
                }
                "--out" => {
                    if let Some(v) = args.next() {
                        opts.out_dir = v.into();
                    }
                }
                "--only" => {
                    if let Some(v) = args.next() {
                        opts.only.push(v);
                    }
                }
                other => eprintln!("ignoring unknown argument {other:?}"),
            }
        }
        opts
    }
}
