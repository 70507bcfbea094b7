//! Sample statistics and `/proc` readers.

/// Samples that must lie strictly above a reported percentile. A tail
/// percentile read from fewer samples is one or two requests, not a
/// property of the system.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (need not be sorted), for
/// `q` in `(0, 1)`.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond the
/// percentile's rank, or when `q` is outside `(0, 1)`.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} is outside (0, 1)"));
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} samples beyond it; {MIN_SAMPLES_BEYOND} are needed",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median over fixed-count windows of each window's nearest-rank
/// percentile. A stall from another tenant of the machine moves the
/// percentile of the windows it falls in, not the reported figure.
///
/// # Errors
///
/// Refuses when there is no window, or when [`percentile`] refuses one.
pub fn windowed_percentile(windows: &[Vec<f64>], q: f64) -> Result<f64, String> {
    if windows.is_empty() {
        return Err("no windows".into());
    }
    let per_window = windows.iter().map(|w| percentile(w, q)).collect::<Result<Vec<_>, _>>()?;
    Ok(median(&per_window))
}

/// Median of a non-empty sample (mean of the two middle values when even).
/// Used for small fixed-count repetitions such as set-up, where no tail is
/// reported.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median, or 0 for an empty sample (a layer the workload does not load).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Wall time, CPU time and completed operations of each fixed-count window
/// of a measured phase. Throughput and CPU per operation are medians over
/// windows, so a transient stall from another tenant of the machine moves
/// one window instead of the whole figure.
#[derive(Debug, Default)]
pub struct Windows {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    ops: Vec<usize>,
}

impl Windows {
    /// Records one window.
    pub fn push(&mut self, wall_s: f64, cpu_s: f64, ops: usize) {
        self.wall_s.push(wall_s);
        self.cpu_s.push(cpu_s);
        self.ops.push(ops);
    }

    fn rates(&self) -> Vec<f64> {
        self.ops.iter().zip(&self.wall_s).map(|(&n, &w)| n as f64 / w).collect()
    }

    /// Median over windows of operations per wall second.
    pub fn throughput(&self) -> f64 {
        median(&self.rates())
    }

    /// One line listing every window's throughput, for the report.
    pub fn summary(&self) -> String {
        let rates: Vec<String> = self.rates().iter().map(|r| format!("{r:.1}")).collect();
        format!("per-window throughput (1/s): {}", rates.join(" "))
    }

    /// Median over windows of process CPU milliseconds per operation.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let per_op: Vec<f64> =
            self.ops.iter().zip(&self.cpu_s).map(|(&n, &c)| c * 1e3 / n as f64).collect();
        median(&per_op)
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every mainstream architecture).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/self/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field (e.g. `VmHWM`, `VmRSS`) from the text of
/// `/proc/self/status`, in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Process CPU time (all threads, user + system) in seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 / CLOCK_TICKS_PER_S
}

fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, key).unwrap_or_else(|| panic!("no {key} in /proc/self/status")) as f64
        / 1024.0
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set size (`VmRSS`) in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}
