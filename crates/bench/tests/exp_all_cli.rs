//! The `exp_all` driver end to end: a one-step run records the step's real
//! peak heap bytes in `bench_summary.json`, and a bad command line fails
//! with an error naming the argument instead of running nothing.

use serde::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

fn out_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qufem_exp_all_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn exp_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp_all")).args(args).output().expect("exp_all starts")
}

#[test]
fn a_step_records_its_peak_heap_bytes() {
    let dir = out_dir("peak");
    let output = exp_all(&["--quick", "--only", "table2_devices", "--out", dir.to_str().unwrap()]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));

    let text = std::fs::read_to_string(dir.join("telemetry/bench_summary.json")).unwrap();
    let summary: Value = serde_json::from_str(&text).unwrap();
    let row = summary.get("experiments").and_then(|e| e.get("table2_devices")).expect("row");
    let peak = row.get("peak_bytes").and_then(Value::as_f64).expect("peak_bytes");
    assert!(peak > 0.0, "table2_devices peak_bytes = {peak}");
    assert!(dir.join("table2_devices.txt").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_arguments_fail_naming_the_argument() {
    let dir = out_dir("bad");
    let out = dir.to_str().unwrap();
    for (args, message) in [
        (vec!["--quick", "--only", "no-such-step", "--out", out], "\"no-such-step\""),
        (vec!["--quick", "--seed", "x", "--out", out], "--seed \"x\""),
        (vec!["--quick", "--fast", "--out", out], "\"--fast\""),
        (vec!["--out", out, "--only"], "--only needs a value"),
    ] {
        let output = exp_all(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    assert!(!dir.exists(), "a rejected command line wrote {}", dir.display());
}
