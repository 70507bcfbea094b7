//! Runs every table/figure reproduction in sequence and archives the
//! results under `results/`. Pass `--quick` for a smoke-test-sized run and
//! `--only SUBSTR` (repeatable) to select a subset of experiments by name.
//!
//! Each experiment runs under a fresh telemetry collector; its run
//! manifest lands in `results/telemetry/<stem>.json` and an aggregate
//! `results/telemetry/bench_summary.json` records per-experiment
//! wall-clock seconds, peak accounted bytes, and engine/plan-build
//! time from the telemetry spans. A run replaces only the summary rows of
//! the experiments it ran; the other rows stay while `--quick` and
//! `--seed` match the summary's.

use qufem_bench::report::{merge_summary, Table};
use qufem_bench::{experiments, RunOptions};
use serde::Value;

// Counting global allocator so the ext_apply_alloc experiment can attribute
// heap traffic per apply call; counting is a few relaxed atomic ops per
// allocation, negligible against the workloads measured here.
#[global_allocator]
static ALLOC: qufem_testsupport::CountingAlloc = qufem_testsupport::CountingAlloc;

/// An experiment entry point.
type Runner = fn(&RunOptions) -> Vec<Table>;

fn emit_all(tables: &[Table], stem: &str, opts: &RunOptions) {
    for (i, table) in tables.iter().enumerate() {
        let name = if i == 0 { stem.to_string() } else { format!("{stem}_{}", i + 1) };
        table.emit(&opts.out_dir, &name).expect("write results");
    }
}

fn main() {
    let opts = RunOptions::from_args();
    let start = std::time::Instant::now();
    let telemetry_dir = opts.out_dir.join("telemetry");

    let steps: Vec<(&str, Runner)> = vec![
        ("table2_devices", experiments::table2::run),
        ("table1_comparison", experiments::table1::run),
        ("table3_characterization_circuits", experiments::table3::run),
        ("table4_calibration_time", experiments::table4::run),
        ("table6_scale_out", experiments::table6::run),
        ("fig8_intermediate_values", experiments::fig8::run),
        ("fig9a_fidelity_7q", experiments::fig9::run_7q),
        ("fig9b_fidelity_18q", experiments::fig9::run_18q),
        ("fig9c_partial_measurement", experiments::fig9c::run),
        ("fig10_ghz_scaling", experiments::fig10::run),
        ("fig11_parameter_sweep", experiments::fig11::run),
        ("fig12_thresholds", experiments::fig12::run),
        ("fig13_ablations", experiments::fig13::run),
        ("ext_projection_ablation", experiments::ext_projection::run),
        ("ext_adaption_ablation", experiments::ext_adaption::run),
        ("ext_correlated_noise", experiments::ext_correlated::run),
        ("ext_serve_throughput", experiments::ext_serve::run),
        ("ext_apply_alloc", experiments::ext_apply::run),
        ("ext_loadgen", experiments::ext_loadgen::run),
        ("ext_parallel_scaling", experiments::ext_parallel::run),
    ];

    let mut summary: Vec<(String, Value)> = Vec::new();
    for (stem, runner) in steps {
        if !opts.selects(stem) {
            eprintln!("[exp_all] skipping {stem} (--only filter)");
            continue;
        }
        eprintln!("[exp_all] running {stem} …");
        qufem_telemetry::reset();
        qufem_telemetry::enable();
        qufem_telemetry::set_meta("experiment", Value::Str(stem.to_string()));
        qufem_telemetry::set_meta("seed", Value::UInt(opts.seed));
        qufem_telemetry::set_meta("quick", Value::Bool(opts.quick));
        let step_start = std::time::Instant::now();
        let tables = runner(&opts);
        emit_all(&tables, stem, &opts);
        let wall_secs = step_start.elapsed().as_secs_f64();

        let manifest_path = telemetry_dir.join(format!("{stem}.json"));
        qufem_telemetry::write_manifest(&manifest_path, &[]).expect("write telemetry manifest");
        let snapshot = qufem_telemetry::snapshot();
        let peak_bytes = snapshot.gauge("memwatch.peak_bytes").unwrap_or(0.0);
        let mut fields = vec![
            ("wall_secs".to_string(), Value::Float(wall_secs)),
            ("peak_bytes".to_string(), Value::Float(peak_bytes)),
            // Time inside the calibration engine proper ("engine" phase
            // spans) and in plan construction, separated from benchmark
            // generation and partitioning.
            ("engine_secs".to_string(), Value::Float(snapshot.span_total_secs("engine"))),
            ("plan_build_secs".to_string(), Value::Float(snapshot.span_total_secs("plan-build"))),
            // End-to-end characterization and prepare time (outer spans);
            // both stages fan out across QUFEM_THREADS workers.
            (
                "characterize_secs".to_string(),
                Value::Float(snapshot.span_total_secs("characterize")),
            ),
            ("prepare_secs".to_string(), Value::Float(snapshot.span_total_secs("prepare"))),
        ];
        // The parallel-scaling experiment publishes its measurements as
        // gauges; carry them into the aggregate summary when present.
        for gauge in [
            "parallel.characterize_seq_secs",
            "parallel.characterize_par_secs",
            "parallel.prepare_seq_secs",
            "parallel.prepare_par_secs",
            "parallel.characterize_speedup",
            "parallel.prepare_speedup",
            "parallel.pipeline_speedup",
            "parallel.threads",
            "parallel.host_cores",
        ] {
            if let Some(value) = snapshot.gauge(gauge) {
                fields
                    .push((gauge.trim_start_matches("parallel.").to_string(), Value::Float(value)));
            }
        }
        // Per-method apply latency from the registry sweeps (table4,
        // `method_apply.secs.<id>` gauges), serve-layer latency
        // quantiles from the throughput sweep (ext_serve,
        // `serve.w<workers>.*_secs` gauges), catalog/hot-swap
        // counters (`serve.catalog.*`), and the wire-dialect shoot-out
        // (`serve.binary.*`). Sorted for a stable summary.
        let mut extra: Vec<(String, f64)> = snapshot
            .gauges
            .iter()
            .filter(|(name, _)| {
                name.starts_with("method_apply.")
                    || name.starts_with("apply_alloc.")
                    || name.starts_with("serve.catalog.")
                    || name.starts_with("serve.binary.")
                    || (name.starts_with("serve.") && name.ends_with("_secs"))
                    || name.starts_with("loadgen.")
            })
            .map(|(name, &value)| (name.clone(), value))
            .collect();
        extra.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, value) in extra {
            fields.push((name, Value::Float(value)));
        }
        summary.push((stem.to_string(), Value::Map(fields)));
        eprintln!("[exp_all] {stem} finished in {wall_secs:.1}s");
    }
    qufem_telemetry::disable();

    let summary_path = telemetry_dir.join("bench_summary.json");
    let previous = std::fs::read_to_string(&summary_path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok());
    let total_secs = start.elapsed().as_secs_f64();
    let summary_value =
        merge_summary(previous.as_ref(), opts.quick, opts.seed, total_secs, summary);
    let text = serde_json::to_string_pretty(&summary_value).expect("summary serializes");
    std::fs::write(&summary_path, text).expect("write bench summary");

    eprintln!(
        "[exp_all] all experiments finished in {:.1}s; artifacts in {} \
         (telemetry manifests in {})",
        start.elapsed().as_secs_f64(),
        opts.out_dir.display(),
        telemetry_dir.display()
    );
}
