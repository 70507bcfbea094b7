//! Table 3: number of benchmarking circuits used for readout
//! characterization, per method and device size.

use crate::fit;
use crate::report::{fmt_estimate, Table};
use crate::workloads;
use crate::RunOptions;
use qufem_core::benchgen;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Distinct bit strings observed across the seven algorithm workloads —
/// the size of M3's per-output characterization set. Measured on small
/// devices, estimated as `min(2^n, 7 · shots)` beyond.
fn m3_observed(n: usize, quick: bool, seed: u64) -> (f64, bool) {
    let shots = crate::experiments::shots_for(n, quick);
    if n <= 18 {
        let device = crate::experiments::sweep_device_for(n, seed);
        let ws = workloads::algorithm_workloads(&device, shots, seed);
        let mut distinct: HashSet<qufem_types::BitString> = HashSet::new();
        for w in &ws {
            for (k, p) in w.noisy.iter() {
                if p > 0.0 {
                    distinct.insert(k);
                }
            }
        }
        (distinct.len() as f64, false)
    } else {
        let cap = if n >= 60 { f64::INFINITY } else { (1u64 << n) as f64 };
        (((7 * shots) as f64).min(cap), true)
    }
}

/// Runs the Table 3 reproduction.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let sizes = crate::experiments::table_sizes(opts.quick);
    let mut table = Table::new(
        "Table 3: number of circuits used for readout characterization",
        &["#Qubits", "IBU [50]", "CTMP [9]", "M3 [37]", "Golden", "QuFEM"],
    );

    let mut qufem_counts: Vec<(f64, f64)> = Vec::new();
    for &n in &sizes {
        let device = crate::experiments::sweep_device_for(n, opts.seed);
        let config = crate::experiments::qufem_config_for(n, opts.quick, opts.seed);
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
        device.reset_stats();
        let (_, report) =
            benchgen::generate(&device, &config, &mut rng).expect("generation converges");
        qufem_counts.push((n as f64, report.total_circuits as f64));

        let golden =
            if n <= 20 { format!("{}", 1u64 << n) } else { fmt_estimate(2f64.powi(n as i32)) };
        let (m3_circuits, m3_is_estimate) = {
            let (observed, estimated) = m3_observed(n, opts.quick, opts.seed);
            (observed * n as f64, estimated)
        };
        table.push_row(vec![
            n.to_string(),
            (2 * n).to_string(),
            (2 * n).to_string(),
            if m3_is_estimate { fmt_estimate(m3_circuits) } else { format!("{m3_circuits:.0}") },
            golden,
            report.total_circuits.to_string(),
        ]);
    }

    // Complexity annotation row (the paper's final row).
    let (xs, ys): (Vec<f64>, Vec<f64>) = qufem_counts.iter().copied().unzip();
    let qufem_class = if xs.len() >= 2 { fit::classify(&xs, &ys).to_string() } else { "-".into() };
    table.push_row(vec![
        "N".into(),
        "O(2·N)".into(),
        "O(2·N)".into(),
        "O(shots·N)".into(),
        "O(2^N)".into(),
        qufem_class,
    ]);
    table.note(
        "M3 characterizes per circuit output: circuits ≈ distinct observed strings × N \
         (measured ≤ 18q, estimated beyond).",
    );
    table.note("QuFEM counts are measured via the adaptive θ/α generation (§4.1).");
    table.note("Size sweep uses a uniform moderate noise profile across sizes (see DESIGN.md).");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_linear_qufem_and_exponential_golden() {
        let opts = RunOptions { quick: true, ..RunOptions::default() };
        let tables = run(&opts);
        let t = &tables[0];
        // 3 sizes + complexity row.
        assert_eq!(t.rows.len(), 4);
        // IBU at 7 qubits = 14 circuits.
        assert_eq!(t.rows[0][1], "14");
        // Golden at 18 qubits = 2^18.
        assert_eq!(t.rows[1][4], (1u64 << 18).to_string());
        // QuFEM count grows far slower than golden.
        let qufem_27: f64 = t.rows[2][5].parse().unwrap();
        assert!(qufem_27 < 20_000.0, "QuFEM should stay near-linear, got {qufem_27}");
    }
}
