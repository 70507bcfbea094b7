//! Set-up shared by every workload: characterization of the device fixture
//! through the public benchgen and self-calibration entry points, timed
//! from outside.

use crate::inputs;
use crate::report::Outcome;
use qufem_core::{benchgen, configured_threads, QuFem, QuFemConfig};
use qufem_device::Device;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// A set-up probe that runs longer than this has hung.
const PROBE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// Characterization seed (fixed: set-up work must not depend on `--seed`).
const CHARACTERIZATION_SEED: u64 = 7;

/// The experiment harness's full 27-qubit configuration (α = 10⁻⁴, 2000
/// shots). Its characterization takes over a second, long enough to time
/// steadily.
pub fn harness_config() -> QuFemConfig {
    QuFemConfig::builder()
        .characterization_threshold(1e-4)
        .shots(2000)
        .max_benchmark_circuits(60_000)
        .seed(CHARACTERIZATION_SEED)
        .build()
        .expect("harness configuration is valid")
}

/// The lighter configuration of the drifted snapshot `serve-churn-27q`
/// admits (the harness's quick setting: α = 4·10⁻⁴, 500 shots), which keeps
/// each admit payload near 9 MB of JSON.
pub fn fixture_config() -> QuFemConfig {
    QuFemConfig::builder()
        .characterization_threshold(4e-4)
        .shots(500)
        .max_benchmark_circuits(60_000)
        .seed(CHARACTERIZATION_SEED)
        .build()
        .expect("fixture configuration is valid")
}

/// A characterized calibrator with its per-layer set-up timings.
pub struct Characterized {
    /// The calibrator.
    pub qufem: QuFem,
    /// Wall time of benchmark generation (device sampling included).
    pub benchgen_s: f64,
    /// Wall time of the self-calibration iterations.
    pub characterize_s: f64,
    /// Benchmarking circuits executed.
    pub circuits: usize,
}

/// Runs benchmark generation and self-calibration (paper Algorithm 1).
///
/// # Panics
///
/// Panics if characterization fails: the fixture is fixed, so a failure is
/// a defect in the program under test.
pub fn characterize(device: &Device, config: &QuFemConfig) -> Characterized {
    let threads = configured_threads();
    let start = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let (snapshot, report) = benchgen::generate_with_threads(device, config, &mut rng, threads)
        .expect("benchmark generation converges on the fixture");
    let benchgen_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let qufem = QuFem::from_snapshot_with_threads(snapshot, config.clone(), threads)
        .expect("self-calibration succeeds on the fixture");
    let characterize_s = start.elapsed().as_secs_f64();
    Characterized { qufem, benchgen_s, characterize_s, circuits: report.total_circuits }
}

/// The main fixture: the 27-qubit device under [`harness_config`].
pub fn characterize_main() -> Characterized {
    characterize(&inputs::device(), &harness_config())
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTiming {
    /// Whole set-up, seconds.
    pub total_s: f64,
    /// Benchmark generation of the main fixture, seconds.
    pub benchgen_s: f64,
    /// Self-calibration of the main fixture, seconds.
    pub characterize_s: f64,
    /// Full-register prepare (offline only), milliseconds.
    pub prepare_ms: f64,
}

impl SetupTiming {
    /// The line a set-up probe prints.
    pub fn to_line(&self) -> String {
        format!(
            "setup-timing {:?} {:?} {:?} {:?}",
            self.total_s, self.benchgen_s, self.characterize_s, self.prepare_ms
        )
    }

    /// Parses [`SetupTiming::to_line`].
    pub fn parse(line: &str) -> Option<Self> {
        let mut fields = line.strip_prefix("setup-timing ")?.split(' ').map(str::parse::<f64>);
        let mut next = || fields.next()?.ok();
        Some(SetupTiming {
            total_s: next()?,
            benchgen_s: next()?,
            characterize_s: next()?,
            prepare_ms: next()?,
        })
    }
}

/// Runs a workload's set-up [`SETUP_REPEATS`] times and returns this
/// process's result with every repetition's timings.
///
/// All but one repetition run in child processes (this executable with
/// `--setup-probe <workload>`), one after another. Set-up allocates on many
/// short-lived threads, so a repetition in the same process would leave a
/// heap whose fragmentation, and so `peak_rss_mb`, differs from run to run.
///
/// # Panics
///
/// Panics if a probe process fails: its set-up is the same as this one's.
pub fn repeated<T>(
    workload: &str,
    set_up: impl FnOnce() -> (T, SetupTiming),
) -> (T, Vec<SetupTiming>) {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut timings: Vec<SetupTiming> = (1..SETUP_REPEATS)
        .map(|_| {
            let mut child = std::process::Command::new(&exe)
                .args(["--setup-probe", workload])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("start set-up probe");
            let started = Instant::now();
            let status = loop {
                if let Some(status) = child.try_wait().expect("poll set-up probe") {
                    break status;
                }
                if started.elapsed() > PROBE_TIMEOUT {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("set-up probe exceeded {PROBE_TIMEOUT:?}");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            };
            assert!(status.success(), "set-up probe failed: {status}");
            let mut stdout = String::new();
            std::io::Read::read_to_string(
                &mut child.stdout.take().expect("piped stdout"),
                &mut stdout,
            )
            .expect("read set-up probe output");
            stdout.lines().find_map(SetupTiming::parse).expect("set-up probe prints its timing")
        })
        .collect();
    let (artifacts, timing) = set_up();
    timings.push(timing);
    (artifacts, timings)
}

/// Median of one field over repetitions.
pub fn median_of(timings: &[SetupTiming], field: impl Fn(&SetupTiming) -> f64) -> f64 {
    crate::stats::median(&timings.iter().map(field).collect::<Vec<_>>())
}

/// Records `setup_s` and a report line on the repetitions.
pub fn report(outcome: &mut Outcome, timings: &[SetupTiming]) {
    outcome.end_to_end.insert("setup_s", median_of(timings, |t| t.total_s));
    let totals: Vec<String> = timings.iter().map(|t| format!("{:.3}", t.total_s)).collect();
    outcome.notes.push(format!(
        "set-up repetitions (s): {}; VmHWM after set-up {:.1} MB",
        totals.join(" "),
        crate::stats::peak_rss_mb()
    ));
}

/// The benchgen and self-calibration layer metrics.
pub fn insert_layers(
    layers: &mut std::collections::BTreeMap<&'static str, f64>,
    timings: &[SetupTiming],
    main: &Characterized,
) {
    layers.insert("benchgen.s", median_of(timings, |t| t.benchgen_s));
    layers.insert("benchgen.circuits", main.circuits as f64);
    layers.insert("characterize.s", median_of(timings, |t| t.characterize_s));
    layers.insert("characterize.iterations", main.qufem.iterations().len() as f64);
}
