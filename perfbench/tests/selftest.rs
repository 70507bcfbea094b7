//! Self-tests of the benchmark harness (not of the program it measures).
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use qufem_perfbench::inputs::{self, Input};
use qufem_perfbench::report::{self, Outcome, END_TO_END, LAYERS};
use qufem_perfbench::stats::{self, percentile, windowed_percentile};

fn all_inputs(seed: u64) -> Vec<u64> {
    let device = inputs::device();
    let churn = inputs::serve_churn(&device, seed);
    let churn_inputs: Vec<&Input> = churn.iter().flat_map(|k| &k.inputs).collect();
    vec![
        inputs::request_digest(&inputs::offline(&device, seed)),
        inputs::request_digest(&inputs::serve_binary(&device, seed)),
        inputs::request_digest(churn_inputs),
    ]
}

#[test]
fn workload_inputs_are_a_pure_function_of_the_seed() {
    let a = all_inputs(3);
    assert_eq!(a, all_inputs(3), "same seed, same requests");
    let b = all_inputs(4);
    for (x, y) in a.iter().zip(&b) {
        assert_ne!(x, y, "a different seed must change every workload's requests");
    }
}

#[test]
fn workload_shapes_match_their_description() {
    let device = inputs::device();
    let offline = inputs::offline(&device, 1);
    assert_eq!(offline.len(), 7);
    assert!(offline.iter().all(|i| i.measured.len() == inputs::N_QUBITS));
    let binary = inputs::serve_binary(&device, 1);
    let mut subsets: Vec<_> = binary.iter().map(|i| i.measured.clone()).collect();
    subsets.dedup();
    assert_eq!(subsets.len(), inputs::BINARY_SUBSETS);
    let churn = inputs::serve_churn(&device, 1);
    assert_eq!(churn.len(), inputs::CHURN_KEYS);
    for (i, k) in churn.iter().enumerate() {
        assert!((8..=12).contains(&k.measured.len()));
        assert!(churn[..i].iter().all(|o| o.measured != k.measured), "keys must be distinct");
    }
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
    assert_eq!(percentile(&hundred, 0.5), Ok(50.0));
    assert!(percentile(&hundred[..99], 0.9).is_err(), "p90 of 99 has 9 beyond");
    assert!(percentile(&hundred, 0.99).is_err(), "p99 of 100 has 1 beyond");
    assert!(percentile(&hundred[..19], 0.5).is_err(), "p50 of 19 has 9 beyond");
    assert_eq!(percentile(&hundred[..20], 0.5), Ok(10.0));
    let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    assert_eq!(percentile(&thousand, 0.99), Ok(990.0), "input order does not matter");
    assert!(percentile(&[], 0.5).is_err());
    assert!(percentile(&hundred, 1.0).is_err());
}

#[test]
fn windowed_percentile_is_the_median_of_window_percentiles() {
    let window = |offset: f64| (1..=100).map(|i| f64::from(i) + offset).collect::<Vec<_>>();
    // One stalled window moves its own p90, not the median over windows.
    let windows = vec![window(0.0), window(1000.0), window(2.0)];
    assert_eq!(windowed_percentile(&windows, 0.9), Ok(92.0));
    assert_eq!(windowed_percentile(&windows, 0.5), Ok(52.0));
    let short = vec![window(0.0), window(0.0)[..99].to_vec()];
    assert!(windowed_percentile(&short, 0.9).is_err(), "every window needs ten beyond");
    assert!(windowed_percentile(&[], 0.5).is_err());
}

#[test]
fn proc_readers_parse() {
    // The command name may hold spaces and parentheses.
    let stat = "4242 (a (b) c) S 1 4242 4242 0 -1 4194304 100 0 0 0 1234 56 0 0 20 0 3 0 \
                7 1000 200 18446744073709551615";
    assert_eq!(stats::parse_stat_cpu_ticks(stat), Some(1234 + 56));
    assert_eq!(stats::parse_stat_cpu_ticks("garbage"), None);
    let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
    assert_eq!(stats::parse_status_kb(status, "VmHWM"), Some(2048));
    assert_eq!(stats::parse_status_kb(status, "VmRSS"), Some(1024));
    assert_eq!(stats::parse_status_kb(status, "VmSwap"), None);
    // And the live readers work on this process.
    assert!(stats::process_cpu_s() >= 0.0);
    assert!(stats::peak_rss_mb() >= stats::rss_mb() * 0.5 && stats::rss_mb() > 0.0);
}

#[test]
fn result_line_carries_every_metric_by_name_and_unit() {
    let mut outcome = Outcome { attempted: 3, ..Outcome::default() };
    for (name, _) in END_TO_END {
        outcome.end_to_end.insert(name, 1.5);
    }
    let untraced: serde_json::Value =
        serde_json::from_str(&report::result_line(&outcome, false)).expect("valid JSON");
    let traced: serde_json::Value =
        serde_json::from_str(&report::result_line(&outcome, true)).expect("valid JSON");
    let text = format!("{untraced:?}{traced:?}");
    for (name, unit) in END_TO_END {
        assert!(text.contains(name) && text.contains(unit), "{name} missing");
    }
    for l in LAYERS {
        assert!(text.contains(l.name), "{} missing", l.name);
    }
    outcome.mismatch("x".into());
    assert!(report::result_line(&outcome, false).starts_with("{\"correct\": false"));
}
