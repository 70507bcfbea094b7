//! Figure 8: number of intermediate tensor-product values exceeding the
//! pruning threshold, along the chain of tensor products.

use crate::report::Table;
use crate::workloads;
use crate::RunOptions;
use qufem_circuits::synthetic::Shape;
use qufem_core::{benchgen, EngineStats, PreparedMitigator, QuFem, QuFemConfig};
use qufem_telemetry::Snapshot;
use qufem_types::QubitSet;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Per-level survivor counts from the collector: the increase of each
/// `engine.kept_level.NNN` counter between two snapshots, in level order.
fn kept_level_diff(before: &Snapshot, after: &Snapshot) -> Vec<u64> {
    after
        .counters_with_prefix("engine.kept_level.")
        .into_iter()
        .map(|(name, v)| v - before.counter(name))
        .collect()
}

/// Runs the intermediate-value census: one group per qubit (`K = 1`) so the
/// tensor-product chain has one link per qubit, with the per-level survivor
/// counts recorded for several pruning thresholds.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let n = if opts.quick { 36 } else { 136 };
    let device = crate::experiments::device_for(n, opts.seed);
    let shots = crate::experiments::shots_for(n, opts.quick);

    // Characterize once; replay with different β from the same snapshot.
    let base_config = QuFemConfig::builder()
        .max_group_size(1)
        .iterations(1)
        .characterization_threshold(if opts.quick { 4e-4 } else { 1e-4 })
        .shots(shots)
        .max_benchmark_circuits(60_000)
        .seed(opts.seed)
        .build()
        .expect("valid config");
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let (snapshot, _) =
        benchgen::generate(&device, &base_config, &mut rng).expect("generation converges");

    let w = workloads::shaped_workload(&device, Shape::Uniform, 50, shots, opts.seed);
    let thresholds = [1e-3, 1e-4, 1e-5, 1e-6];

    // The per-level census comes from the telemetry collector: each β run
    // diffs the `engine.kept_level.NNN` counters around the calibration.
    qufem_telemetry::enable();
    let mut per_threshold: Vec<Vec<u64>> = Vec::new();
    for &beta in &thresholds {
        let config = QuFemConfig { beta, ..base_config.clone() };
        let qufem =
            QuFem::from_snapshot(snapshot.clone(), config).expect("flows succeed on snapshot");
        let mut stats = EngineStats::default();
        let before = qufem_telemetry::snapshot();
        let _ = qufem
            .prepare(&QubitSet::full(n))
            .and_then(|prepared| prepared.apply_with_stats(&w.noisy, &mut stats))
            .expect("calibration succeeds");
        let after = qufem_telemetry::snapshot();
        let kept = kept_level_diff(&before, &after);
        debug_assert_eq!(kept, stats.kept_per_level);
        per_threshold.push(kept);
    }

    let mut table = Table::new(
        format!(
            "Figure 8: intermediate values exceeding the threshold along the \
             tensor-product chain ({n}-qubit device, K = 1)"
        ),
        &["Chain position", "β=1e-3", "β=1e-4", "β=1e-5", "β=1e-6"],
    );
    let levels = per_threshold.iter().map(Vec::len).max().unwrap_or(0);
    let step = (levels / 16).max(1);
    for level in (0..levels).step_by(step) {
        let mut row = vec![(level + 1).to_string()];
        for counts in &per_threshold {
            row.push(counts.get(level).copied().unwrap_or(0).to_string());
        }
        table.push_row(row);
    }
    table.note("y-values are survivor counts per chain link for a 50-string uniform input.");
    table.note("Pruned chains stay polynomial; β=0 grows toward the exponential envelope.");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "multi-minute run; exercised by the exp_all binary"]
    fn quick_fig8_shows_pruning_benefit() {
        let opts = RunOptions { quick: true, ..RunOptions::default() };
        let tables = run(&opts);
        let t = &tables[0];
        // At the last sampled chain position, the strictest threshold keeps
        // at most as many intermediates as the loosest.
        let last = t.rows.last().unwrap();
        let strict: u64 = last[1].parse().unwrap();
        let loose: u64 = last[4].parse().unwrap();
        assert!(strict <= loose);
    }
}
