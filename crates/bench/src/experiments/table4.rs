//! Tables 4 and 5: calibration (MVM-step) time and memory per method and
//! device size.
//!
//! Both tables come from the same sweep, so this module produces the two
//! together: `exp_all` writes Table 4 as `table4_calibration_time` and
//! Table 5 as `table4_calibration_time_2`.
//!
//! Methods whose cost is exponential are executed only up to the sizes
//! where they finish (mirroring the paper's time-outs) and *estimated*
//! beyond via an exponential fit — estimated cells carry the paper's `~`
//! marker.

use crate::experiments::MethodRun;
use crate::fit;
use crate::report::{fmt_estimate, fmt_mb, fmt_seconds, Table};
use crate::workloads::{self, Workload};
use crate::RunOptions;
use qufem_baselines::Ibu;
use qufem_core::EngineStats;

/// Per-method measurement at one size: `None` means the method was gated
/// (would time out) at this size.
#[derive(Debug, Clone, Copy)]
struct Cost {
    seconds: f64,
    bytes: f64,
}

/// Approximate bytes of one sparse-distribution entry at width `n`.
fn entry_bytes(n: usize) -> f64 {
    (n.div_ceil(64) * 8 + 48) as f64
}

/// Prepares a method once and applies it to every workload, returning
/// `(apply seconds, max output support, prepared heap, engine stats)`.
fn calibrate_all(run: &MethodRun, workloads: &[Workload]) -> (f64, usize, usize, EngineStats) {
    let prepared =
        run.mitigator.prepare(&workloads[0].measured).expect("prepare succeeds on supported sizes");
    let mut stats = EngineStats::default();
    let mut max_support = 0usize;
    // Timings come from the telemetry collector: every prepared mitigator
    // opens a "calibrate" span per apply, so the sum of spans completed
    // after `mark` is exactly this method's calibration time. The stopwatch
    // is only a fallback for a disabled collector.
    let mark = qufem_telemetry::mark();
    let (_, wall) = crate::experiments::timed(|| {
        for w in workloads {
            let out = prepared
                .apply_with_stats(&w.noisy, &mut stats)
                .expect("calibration must succeed on supported sizes");
            max_support = max_support.max(out.support_len());
        }
    });
    let spans = qufem_telemetry::span_secs_since(mark, "calibrate");
    let seconds = if spans > 0.0 { spans } else { wall };
    (seconds, max_support, prepared.heap_bytes(), stats)
}

/// Structure-size memory accounting for one method run (DESIGN.md §1):
/// the prepared structures plus the method-specific transient that
/// dominates its footprint.
fn account_bytes(
    run: &MethodRun,
    n: usize,
    workloads: &[Workload],
    max_support: usize,
    prepared_heap: usize,
    stats: &EngineStats,
) -> f64 {
    let observed = workloads.iter().map(|w| w.noisy.support_len()).max().unwrap_or(0);
    let extra = match run.id.as_str() {
        // Response matrix: observed support × restricted domain.
        "ibu" => {
            let domain = (observed * (n + 1)).min(Ibu::DEFAULT_MAX_DOMAIN);
            observed as f64 * domain as f64 * 8.0
        }
        // Reduced-matrix footprint: |S|² entries within the Hamming ball.
        "m3" => {
            let s = observed as f64;
            s * s * 16.0
        }
        // Peak intermediate support from the engine counters.
        "qufem" => stats.peak_output_support as f64 * entry_bytes(n),
        // Quasi-probability output support (CTMP, Q-BEEP).
        _ => max_support as f64 * entry_bytes(n),
    };
    prepared_heap as f64 + extra
}

/// Builds the workload set for a size: algorithm outputs up to 18 qubits,
/// the synthetic Gaussian/uniform/spike mix beyond (paper §6.1).
fn workload_set(n: usize, quick: bool, seed: u64) -> Vec<Workload> {
    let device = crate::experiments::sweep_device_for(n, seed);
    let shots = crate::experiments::shots_for(n, quick);
    if n <= 18 {
        workloads::algorithm_workloads(&device, shots, seed)
    } else {
        let count = if quick { 5 } else { 30 };
        workloads::synthetic_workloads(&device, count, 200, shots, seed)
    }
}

/// Runs the cost sweep, returning `[Table 4 (time), Table 5 (memory)]`.
///
/// Every standard-registry method is driven through the same loop:
/// characterize QuFEM once per size, instantiate the registry from its
/// first benchmarking snapshot, then prepare + apply each method on the
/// shared workload set. Methods gated by
/// [`crate::experiments::method_max_qubits`] are extrapolated via an
/// exponential fit over the sizes they did run at.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    qufem_telemetry::enable();
    let sizes = crate::experiments::table_sizes(opts.quick);
    let config = crate::experiments::qufem_config_for(sizes[0], opts.quick, opts.seed);
    let method_ids = qufem_baselines::standard_registry(config).ids();
    let method_names: Vec<&'static str> =
        method_ids.iter().map(|id| crate::experiments::method_display(id)).collect();
    // measured[method][size_index] = Some(cost) if executed.
    let mut measured: Vec<Vec<Option<Cost>>> = vec![vec![None; sizes.len()]; method_ids.len()];

    for (si, &n) in sizes.iter().enumerate() {
        let device = crate::experiments::sweep_device_for(n, opts.seed);
        let ws = workload_set(n, opts.quick, opts.seed);
        let qufem = crate::experiments::characterize_qufem(&device, opts.quick, opts.seed);
        for run in crate::experiments::registry_methods(&qufem, n) {
            let mi = method_ids.iter().position(|id| *id == run.id).expect("registry id");
            let (seconds, max_support, prepared_heap, stats) = calibrate_all(&run, &ws);
            let bytes = account_bytes(&run, n, &ws, max_support, prepared_heap, &stats);
            qufem_telemetry::gauge_set(&format!("method_apply.secs.{}", run.id), seconds);
            measured[mi][si] = Some(Cost { seconds, bytes });
        }
    }

    let headers: Vec<&str> =
        std::iter::once("#Qubits").chain(method_names.iter().copied()).collect();
    let mut time_table =
        Table::new("Table 4: calibration time on the classical computer (seconds)", &headers);
    let mut mem_table = Table::new("Table 5: memory consumption (MB)", &headers);

    for (si, &n) in sizes.iter().enumerate() {
        let mut time_row = vec![n.to_string()];
        let mut mem_row = vec![n.to_string()];
        for (mi, _) in method_names.iter().enumerate() {
            match measured[mi][si] {
                Some(cost) => {
                    time_row.push(fmt_seconds(cost.seconds));
                    mem_row.push(fmt_mb(cost.bytes));
                }
                None => {
                    // Extrapolate from the sizes this method did run at.
                    let pts: Vec<(f64, f64, f64)> = sizes
                        .iter()
                        .zip(&measured[mi])
                        .filter_map(|(&x, c)| c.map(|c| (x as f64, c.seconds, c.bytes)))
                        .collect();
                    if pts.len() >= 2 {
                        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
                        let ts: Vec<f64> = pts.iter().map(|p| p.1.max(1e-6)).collect();
                        let bs: Vec<f64> = pts.iter().map(|p| p.2.max(1.0)).collect();
                        let (ct, bt) = fit::fit_exponential(&xs, &ts);
                        let (cb, bb) = fit::fit_exponential(&xs, &bs);
                        time_row.push(fmt_estimate(ct * bt.powf(n as f64)));
                        mem_row.push(format!("~{}", fmt_mb(cb * bb.powf(n as f64))));
                    } else {
                        time_row.push("timeout".into());
                        mem_row.push("timeout".into());
                    }
                }
            }
        }
        time_table.push_row(time_row);
        mem_table.push_row(mem_row);
    }

    // Complexity annotation rows from the measured QuFEM points.
    let qufem_idx = method_ids.iter().position(|id| id == "qufem").expect("qufem is registered");
    let qufem_pts: Vec<(f64, f64, f64)> = sizes
        .iter()
        .zip(&measured[qufem_idx])
        .filter_map(|(&x, c)| c.map(|c| (x as f64, c.seconds, c.bytes)))
        .collect();
    if qufem_pts.len() >= 3 {
        let xs: Vec<f64> = qufem_pts.iter().map(|p| p.0).collect();
        let ts: Vec<f64> = qufem_pts.iter().map(|p| p.1.max(1e-6)).collect();
        let bs: Vec<f64> = qufem_pts.iter().map(|p| p.2).collect();
        time_table.note(format!("QuFEM time complexity fit: {}", fit::classify(&xs, &ts)));
        mem_table.note(format!("QuFEM memory complexity fit: {}", fit::classify(&xs, &bs)));
    }
    let workload_desc = if opts.quick {
        "workloads: 7 algorithms (≤18q) / 5 synthetic distributions (quick mode)"
    } else {
        "workloads: 7 algorithms (≤18q) / 30 synthetic distributions of 200 strings (>18q)"
    };
    for t in [&mut time_table, &mut mem_table] {
        t.note(workload_desc);
        t.note("`~` cells are exponential-fit estimates for configurations that would time out.");
        t.note("Memory is structure-size accounting, not RSS (DESIGN.md §1).");
        t.note("Size sweep uses a uniform moderate noise profile across sizes (see DESIGN.md).");
    }
    vec![time_table, mem_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cost_sweep_produces_both_tables() {
        let opts = RunOptions { quick: true, ..RunOptions::default() };
        let tables = run(&opts);
        assert_eq!(tables.len(), 2);
        let time = &tables[0];
        assert_eq!(time.rows.len(), 3); // 7, 18, 27
                                        // Q-BEEP column at 27 qubits must be an estimate.
        let qbeep_27 = &time.rows[2][4];
        assert!(qbeep_27.starts_with('~'), "expected estimate, got {qbeep_27}");
        // QuFEM measured everywhere.
        for row in &time.rows {
            assert!(!row[5].starts_with('~'), "QuFEM must be measured, got {}", row[5]);
        }
    }
}
