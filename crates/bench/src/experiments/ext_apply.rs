//! Extension experiment (beyond the paper): apply-path latency and heap
//! traffic on the 18-qubit preset, comparing the boxed `ProbDist` entry
//! point (pooled arena at the configured thread count, plus the boundary
//! conversions) against the caller-held arena path (sequential and on the
//! persistent shard pool).
//!
//! Latency is reported as p50/p99 over many repeat calls of the *same*
//! prepared calibration — the serving steady state. Allocations per call
//! are measured with the `qufem-testsupport` counting global allocator
//! (installed by the `exp_all` binary; without it the columns read n/a).
//! Telemetry is switched off during the measured loops so the numbers
//! reflect the engine alone, then restored so the published gauges land in
//! the run manifest.

use crate::report::Table;
use crate::RunOptions;
use qufem_core::{EngineStats, QuFem};
use qufem_types::{QubitSet, SupportIndex};
use std::time::Instant;

/// Shard-pool thread count for the pooled leg.
pub const POOLED_THREADS: usize = 4;

fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * pct / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One measured leg: repeated calls through `call`, timed individually,
/// with the process-wide allocation counter sampled around each call.
fn measure(rounds: usize, mut call: impl FnMut()) -> (Vec<f64>, f64) {
    // Warm-up outside the window: sizes arenas and pool scratch so the
    // measured calls are steady-state.
    for _ in 0..3.min(rounds) {
        call();
    }
    let mut secs = Vec::with_capacity(rounds);
    let allocs_before = qufem_testsupport::global_allocations();
    for _ in 0..rounds {
        let start = Instant::now();
        call();
        secs.push(start.elapsed().as_secs_f64());
    }
    let allocs = qufem_testsupport::global_allocations() - allocs_before;
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    (secs, allocs as f64 / rounds as f64)
}

/// Runs the apply-path latency/allocation comparison on the 18-qubit
/// preset.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let n = 18usize;
    let rounds = if opts.quick { 100 } else { 1000 };
    let device = crate::experiments::device_for(n, opts.seed);
    let config = crate::experiments::qufem_config_for(n, opts.quick, opts.seed);
    let qufem = QuFem::characterize(&device, config).expect("characterization converges");
    let measured = QubitSet::full(n);
    let prepared = qufem.prepare(&measured).expect("prepare");

    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(opts.seed ^ 0xA77C);
    let ideal = qufem_circuits::Algorithm::Qsvm.ideal_distribution(n, opts.seed);
    let noisy = device.measure_distribution(&ideal, &measured, 2000, &mut rng);
    let input = SupportIndex::from_dist(&noisy);

    // The counting allocator is installed by `exp_all`; when a different
    // binary links this experiment the latency columns still hold
    // but allocation counts cannot be attributed.
    let counting = qufem_testsupport::counting_allocator_installed();

    // Keep telemetry out of the measured loops: span/counter bookkeeping
    // both costs time and allocates, and this experiment isolates the
    // engine hot path itself.
    let telemetry_was_enabled = qufem_telemetry::enabled();
    qufem_telemetry::disable();

    let (boxed_secs, boxed_allocs) = measure(rounds, || {
        let _ = prepared.apply(&noisy).expect("apply");
    });

    let mut stats = EngineStats::default();
    let mut arena = prepared.new_arena();
    let (arena_secs, arena_allocs) = measure(rounds, || {
        stats.reset();
        let _ = prepared.apply_arena(&input, 1, &mut stats, &mut arena).expect("apply_arena");
    });

    let (pooled_secs, pooled_allocs) = measure(rounds, || {
        stats.reset();
        let _ = prepared
            .apply_arena(&input, POOLED_THREADS, &mut stats, &mut arena)
            .expect("apply_arena pooled");
    });

    if telemetry_was_enabled {
        qufem_telemetry::enable();
    }

    let legs = [
        ("boxed (ProbDist apply)", &boxed_secs, boxed_allocs, "boxed"),
        ("arena (apply_arena, 1 thread)", &arena_secs, arena_allocs, "arena"),
        ("pooled (apply_arena, 4 threads)", &pooled_secs, pooled_allocs, "pooled"),
    ];
    for (_, secs, allocs, key) in &legs {
        qufem_telemetry::gauge_set(&format!("apply_alloc.{key}_p50_secs"), percentile(secs, 50.0));
        qufem_telemetry::gauge_set(&format!("apply_alloc.{key}_p99_secs"), percentile(secs, 99.0));
        if counting {
            qufem_telemetry::gauge_set(&format!("apply_alloc.{key}_allocs_per_call"), *allocs);
        }
    }
    qufem_telemetry::gauge_set("apply_alloc.rounds", rounds as f64);
    qufem_telemetry::gauge_set("apply_alloc.counting_allocator", if counting { 1.0 } else { 0.0 });

    let mut table = Table::new(
        "Extension: apply hot-path latency and heap traffic (18-qubit preset)",
        &["Path", "p50 secs", "p99 secs", "Allocs/call"],
    );
    for (label, secs, allocs, _) in &legs {
        table.push_row(vec![
            label.to_string(),
            format!("{:.6}", percentile(secs, 50.0)),
            format!("{:.6}", percentile(secs, 99.0)),
            if counting { format!("{allocs:.1}") } else { "n/a".to_string() },
        ]);
    }
    table.note(format!(
        "{rounds} calls per path on one prepared calibration; telemetry disabled during \
         the measured loops. Arena paths are bit-identical to the boxed path \
         (crates/core/tests/shard_pool.rs) and allocation-free in steady state \
         (crates/core/tests/apply_zero_alloc.rs)."
    ));
    if !counting {
        table.note(
            "Counting allocator not installed in this binary; allocation columns unavailable."
                .to_string(),
        );
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_order_statistics() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 50.0), 51.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    #[ignore = "characterizes the 18-qubit preset; exercised by the exp_all binary"]
    fn apply_rows_cover_all_three_paths() {
        let opts = RunOptions { quick: true, ..RunOptions::default() };
        let tables = run(&opts);
        assert_eq!(tables[0].rows.len(), 3);
        for row in &tables[0].rows {
            assert!(row[1].parse::<f64>().unwrap() > 0.0);
            assert!(row[2].parse::<f64>().unwrap() > 0.0);
        }
    }
}
