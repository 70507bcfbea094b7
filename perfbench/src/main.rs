//! Benchmark entry point:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline-27q --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Prints a human-readable report on standard error and, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and the end-to-end (`--trace 0`) or per-layer (`--trace 1`)
//! metrics. Exits 1 when any output fails verification or an exact count
//! drifts from an earlier run with the same seed, 2 on bad arguments.

use qufem_perfbench::report::{self, WORKLOADS};
use qufem_perfbench::{offline, serve_binary, serve_churn, stats, Opts};

fn parse_args() -> Result<(String, Opts), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let opts = Opts {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        out_dir: std::path::PathBuf::from("perfbench").join("out"),
    };
    Ok((workload, opts))
}

/// A run (or set-up probe) that takes longer than this has hung.
const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(170);

/// Makes every failure end the process promptly with a non-zero code: a
/// panic on any thread (a client connection, a server worker) exits at once
/// instead of leaving the others blocked at a barrier, and a watchdog ends a
/// run that hangs.
fn fail_fast() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::exit(101);
    }));
    // Detached on purpose: it either fires or ends with the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: run exceeded {WATCHDOG:?}");
        std::process::exit(3);
    });
}

fn main() {
    fail_fast();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload] = args.as_slice() {
        if flag == "--setup-probe" {
            let timing = match workload.as_str() {
                "offline-27q" => offline::setup_probe(),
                "serve-binary-27q" => serve_binary::setup_probe(),
                "serve-churn-27q" => serve_churn::setup_probe(),
                _ => panic!("unknown workload {workload}"),
            };
            println!("{}", timing.to_line());
            return;
        }
    }
    let (workload, opts) = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut outcome = match workload.as_str() {
        "offline-27q" => offline::run(&opts),
        "serve-binary-27q" => serve_binary::run(&opts),
        _ => serve_churn::run(&opts),
    };
    outcome.end_to_end.insert("peak_rss_mb", stats::peak_rss_mb());
    let attempted = outcome.attempted.max(1);
    outcome.end_to_end.insert(
        "success_rate",
        (attempted - outcome.failed.min(attempted)) as f64 / attempted as f64,
    );
    let record = format!("{workload}-seed{}-s{}", opts.seed, opts.seconds);
    let drifted = report::check_exact_counts(&opts.out_dir, &record, &outcome.exact)
        .expect("exact-count record");
    for d in drifted {
        outcome.mismatches.push(format!("exact count drifted since the last run: {d}"));
    }
    eprint!("{}", report::human_report(&workload, &outcome, opts.trace));
    println!("{}", report::result_line(&outcome, opts.trace));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
