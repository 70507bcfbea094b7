//! Structured telemetry for the QuFEM pipeline: hierarchical spans, named
//! counters/gauges/histograms, and run-manifest export.
//!
//! The collector is a process-global singleton, **disabled by default**.
//! Every recording entry point first checks one relaxed atomic and returns
//! immediately (no allocation, no lock, no clock read) when disabled, so
//! instrumented hot paths cost one predictable branch in normal library use.
//! Experiments and the CLI opt in with [`enable`].
//!
//! # Spans
//!
//! [`span!`] opens a wall-clock span that records itself when the returned
//! guard drops. Spans nest through a thread-local stack, so the manifest
//! reconstructs the call tree (`characterize → iteration → engine`) without
//! any explicit parent plumbing:
//!
//! ```
//! qufem_telemetry::enable();
//! {
//!     let _outer = qufem_telemetry::span!("characterize");
//!     for i in 0..2 {
//!         let _inner = qufem_telemetry::span!("iteration", i);
//!     }
//! }
//! let snap = qufem_telemetry::snapshot();
//! assert_eq!(snap.span_count("iteration"), 2);
//! # qufem_telemetry::disable();
//! # qufem_telemetry::reset();
//! ```
//!
//! Tight per-record loops use a [`PhaseSet`] instead of thousands of tiny
//! spans: each named phase accumulates elapsed time across loop passes and
//! [`PhaseSet::emit`] records one span per phase. Phase spans carry exact
//! *durations*; their start offsets are packed back-to-back from the set's
//! creation time so trace viewers render them nested cleanly.
//!
//! # Manifests
//!
//! [`write_manifest`] serializes everything to one JSON file that is
//! simultaneously a QuFEM run manifest (`meta`/`counters`/`gauges`/
//! `histograms`/`spans` keys) and a loadable Chrome trace: the same file's
//! `traceEvents` key follows the `chrome://tracing` / Perfetto trace-event
//! format, which ignores unknown top-level keys.
//!
//! The span and metric names used across the workspace form a stable
//! contract, documented in the README's "Telemetry & profiling" section.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Global on/off switch, checked (relaxed) before any recording work.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static STATE: Mutex<Option<State>> = Mutex::new(None);

thread_local! {
    /// Stack of open span ids on this thread (for parent attribution).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Small dense per-thread id (std's ThreadId is opaque).
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id within the process.
    pub id: u64,
    /// Id of the span this one was opened under (same thread), if any.
    pub parent: Option<u64>,
    /// Static span name (the taxonomy key, e.g. `"iteration"`).
    pub name: &'static str,
    /// Optional dynamic label (e.g. the iteration index or method name).
    pub label: Option<String>,
    /// Start offset from the collector epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Dense id of the recording thread.
    pub tid: u64,
}

/// Number of power-of-two buckets in a [`QuantileHistogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Bucket `i` covers magnitudes in `(2^(i-32), 2^(i-31)]`; its upper edge.
const BUCKET_EXP_OFFSET: i32 = 31;

/// Fixed-footprint streaming distribution: count/sum/min/max plus 64
/// power-of-two magnitude buckets, giving deterministic quantile estimates
/// without per-record allocation.
///
/// Bucket `i` holds values whose magnitude falls in `(2^(i-32), 2^(i-31)]`
/// (so bucket 31 tops out at `1.0`); the index is the value's IEEE-754
/// exponent shifted and clamped, which covers ~0.5 ns to ~136 years when
/// values are seconds. [`QuantileHistogram::quantile`] walks the cumulative
/// bucket counts and returns the covering bucket's upper edge clamped to the
/// observed `[min, max]`, so estimates are exact at the extremes, never
/// leave the observed range, and are monotone in `q` by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileHistogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
    /// Per-bucket counts (see the type docs for the edge convention).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

/// Bucket index for a finite value: IEEE-754 exponent, shifted and clamped.
/// Zero, negative, and subnormal values land in bucket 0.
#[inline]
fn bucket_index(value: f64) -> usize {
    if value <= 0.0 {
        return 0;
    }
    let bits = value.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mantissa = bits & ((1u64 << 52) - 1);
    // Exact powers of two are their bucket's upper edge; everything else in
    // (2^e, 2^(e+1)) rounds up to the next edge.
    let edge_exp = if mantissa == 0 { exp } else { exp + 1 };
    (edge_exp + i64::from(BUCKET_EXP_OFFSET)).clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
}

/// Upper edge of bucket `i`: `2^(i - 31)`.
#[inline]
fn bucket_edge(i: usize) -> f64 {
    f64::powi(2.0, i as i32 - BUCKET_EXP_OFFSET)
}

impl QuantileHistogram {
    /// Folds one value into the distribution. Non-finite values are the
    /// caller's responsibility ([`histogram_record`] filters them).
    #[inline]
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Deterministic estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`).
    ///
    /// Returns 0.0 for an empty histogram, `min` for `q ≤ 0`, `max` for
    /// `q ≥ 1`, and otherwise the upper edge of the bucket containing the
    /// rank-`⌈q·count⌉` value, clamped to `[min, max]`. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_edge(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram's contents into this one.
    pub fn merge(&mut self, other: &QuantileHistogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (slot, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += c;
        }
    }

    /// Renders this histogram as Prometheus-style summary lines. The metric
    /// name is sanitized (non-alphanumeric → `_`); output is stable:
    /// quantile lines for 0.5/0.9/0.99/0.999, then `_sum` and `_count`.
    pub fn render_text(&self, name: &str) -> String {
        let metric = sanitize_metric_name(name);
        let mut out = String::new();
        for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)] {
            let _ = writeln!(
                out,
                "{metric}{{quantile=\"{label}\"}} {}",
                fmt_text_value(self.quantile(q))
            );
        }
        let _ = writeln!(out, "{metric}_sum {}", fmt_text_value(self.sum));
        let _ = writeln!(out, "{metric}_count {}", self.count);
        out
    }
}

impl Default for QuantileHistogram {
    fn default() -> Self {
        QuantileHistogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

/// Maps a dotted metric name onto the Prometheus charset: ASCII alphanumerics
/// pass through, everything else becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Prometheus text-format float: integers print bare, other values in
/// shortest-roundtrip form.
fn fmt_text_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

struct State {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    counters: HashMap<String, u64>,
    gauges: HashMap<String, f64>,
    histograms: HashMap<String, QuantileHistogram>,
    meta: Vec<(String, serde::Value)>,
}

impl State {
    fn new() -> Self {
        State {
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: HashMap::new(),
            gauges: HashMap::new(),
            histograms: HashMap::new(),
            meta: Vec::new(),
        }
    }
}

fn with_state<T>(f: impl FnOnce(&mut State) -> T) -> T {
    let mut guard = STATE.lock();
    f(guard.get_or_insert_with(State::new))
}

/// Whether the collector is recording. One relaxed atomic load — callers may
/// use this to skip building labels or metric values entirely.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the collector on (idempotent). The epoch is set on first use.
pub fn enable() {
    with_state(|_| {});
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the collector off. Already-open span guards still record on drop;
/// new entry points become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all recorded data and restarts the epoch. The enabled flag is
/// left as-is, so experiment drivers can `reset()` between experiments.
pub fn reset() {
    let mut guard = STATE.lock();
    *guard = Some(State::new());
}

/// Attaches one metadata entry (config field, seed, command line, …) to the
/// run manifest. Later writes to the same key win.
pub fn set_meta(key: &str, value: serde::Value) {
    if !enabled() {
        return;
    }
    with_state(|s| {
        if let Some(slot) = s.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            s.meta.push((key.to_string(), value));
        }
    });
}

/// Adds `delta` to a named monotone counter. A zero `delta` still
/// registers the name, so a counter that stayed at 0 is in the manifest.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_state(|s| match s.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            s.counters.insert(name.to_string(), delta);
        }
    });
}

/// Sets a named gauge to `value`.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() || !value.is_finite() {
        return;
    }
    with_state(|s| {
        s.gauges.insert(name.to_string(), value);
    });
}

/// Raises a named gauge to `value` if it is below (high-water marks).
#[inline]
pub fn gauge_max(name: &str, value: f64) {
    if !enabled() || !value.is_finite() {
        return;
    }
    with_state(|s| match s.gauges.get_mut(name) {
        Some(v) => *v = v.max(value),
        None => {
            s.gauges.insert(name.to_string(), value);
        }
    });
}

/// Records one value into a named histogram.
#[inline]
pub fn histogram_record(name: &str, value: f64) {
    if !enabled() || !value.is_finite() {
        return;
    }
    with_state(|s| s.histograms.entry(name.to_string()).or_default().record(value));
}

/// Folds a whole histogram into a named one ([`QuantileHistogram::merge`]
/// is lossless) — how a component that keeps its own distributions exports
/// them once instead of recording every sample twice.
pub fn histogram_merge(name: &str, histogram: &QuantileHistogram) {
    if !enabled() || histogram.count == 0 {
        return;
    }
    with_state(|s| s.histograms.entry(name.to_string()).or_default().merge(histogram));
}

/// Opens a span; prefer the [`span!`] macro, which skips label construction
/// when the collector is disabled.
pub fn start_span(name: &'static str, label: Option<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    SpanGuard(Some(ActiveSpan { id, parent, name, label, start: Instant::now() }))
}

/// Opens a hierarchical wall-clock span: `span!("characterize")` or
/// `span!("iteration", i)` (the second argument becomes the span label via
/// `ToString`). The span records itself when the returned guard drops.
/// When the collector is disabled this is one atomic load and the label
/// expression is never evaluated.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::start_span($name, None)
    };
    ($name:expr, $label:expr) => {
        if $crate::enabled() {
            $crate::start_span($name, Some(($label).to_string()))
        } else {
            $crate::SpanGuard::inert()
        }
    };
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    label: Option<String>,
    start: Instant,
}

/// RAII guard returned by [`span!`]; records the span on drop.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// A guard that records nothing (the disabled path).
    pub fn inert() -> Self {
        SpanGuard(None)
    }

    /// The span id, if the collector was enabled when the span opened.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|a| a.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let end = Instant::now();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == active.id) {
                stack.remove(pos);
            }
        });
        let tid = THREAD_ID.with(|&t| t);
        with_state(|s| {
            let start_us = active.start.saturating_duration_since(s.epoch).as_micros() as u64;
            let dur_us = end.saturating_duration_since(active.start).as_micros() as u64;
            s.spans.push(SpanRecord {
                id: active.id,
                parent: active.parent,
                name: active.name,
                label: active.label,
                start_us,
                dur_us,
                tid,
            });
        });
    }
}

/// Accumulated timing phases for tight per-record loops.
///
/// Entering the same phase many times adds up; [`PhaseSet::emit`] records
/// one span per phase under the currently open span. See the module docs
/// for the start-offset packing convention.
pub struct PhaseSet {
    /// `None` when the collector was disabled at construction.
    inner: Option<PhaseInner>,
}

struct PhaseInner {
    created: Instant,
    /// Phase name → accumulated duration (µs) and enter count.
    phases: Vec<(&'static str, u64, u64)>,
}

impl PhaseSet {
    /// Creates an empty phase set (inert when the collector is disabled).
    pub fn new() -> Self {
        let inner = enabled().then(|| PhaseInner { created: Instant::now(), phases: Vec::new() });
        PhaseSet { inner }
    }

    /// Starts timing `name`; the elapsed time is added when the returned
    /// guard drops.
    pub fn enter<'a>(&'a mut self, name: &'static str) -> PhaseGuard<'a> {
        let start = self.inner.as_ref().map(|_| Instant::now());
        PhaseGuard { set: self, name, start }
    }

    /// Adds an externally measured duration to phase `name` (`count` enter
    /// equivalents). Parallel fan-outs use this to attribute per-worker
    /// wall time measured off-thread, so a phase's accumulated total still
    /// sums to what the sequential loop would have recorded. Inert when the
    /// collector was disabled at construction.
    pub fn add_micros(&mut self, name: &'static str, dur_us: u64, count: u64) {
        let Some(inner) = self.inner.as_mut() else { return };
        match inner.phases.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => {
                slot.1 += dur_us;
                slot.2 += count;
            }
            None => inner.phases.push((name, dur_us, count)),
        }
    }

    /// Records one span per accumulated phase and clears the set.
    pub fn emit(&mut self) {
        let Some(inner) = self.inner.as_mut() else { return };
        if inner.phases.is_empty() {
            return;
        }
        let parent = SPAN_STACK.with(|stack| stack.borrow().last().copied());
        let tid = THREAD_ID.with(|&t| t);
        with_state(|s| {
            let mut cursor = inner.created.saturating_duration_since(s.epoch).as_micros() as u64;
            for &(name, dur_us, count) in &inner.phases {
                let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
                s.spans.push(SpanRecord {
                    id,
                    parent,
                    name,
                    label: (count > 1).then(|| format!("{count} passes")),
                    start_us: cursor,
                    dur_us,
                    tid,
                });
                cursor += dur_us;
            }
        });
        inner.phases.clear();
        inner.created = Instant::now();
    }
}

impl Default for PhaseSet {
    fn default() -> Self {
        PhaseSet::new()
    }
}

impl Drop for PhaseSet {
    fn drop(&mut self) {
        self.emit();
    }
}

/// Guard returned by [`PhaseSet::enter`].
pub struct PhaseGuard<'a> {
    set: &'a mut PhaseSet,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.set.add_micros(self.name, start.elapsed().as_micros() as u64, 1);
        }
    }
}

/// Point-in-time copy of everything recorded so far.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, QuantileHistogram>,
}

impl Snapshot {
    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Counters whose name starts with `prefix`, in name order.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(&str, u64)> {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, &v)| (k.as_str(), v))
            .collect()
    }

    /// Number of completed spans with this name.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Total duration of all completed spans with this name, in seconds
    /// (`+0.0` when none match).
    pub fn span_total_secs(&self, name: &str) -> f64 {
        sum_secs(self.spans.iter().filter(|s| s.name == name))
    }
}

/// Copies the current collector contents (works even when disabled, so
/// post-run reporting can read what an enabled phase recorded).
pub fn snapshot() -> Snapshot {
    let guard = STATE.lock();
    let Some(s) = guard.as_ref() else { return Snapshot::default() };
    Snapshot {
        spans: s.spans.clone(),
        counters: s.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        gauges: s.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        histograms: s.histograms.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
    }
}

/// Watermark for [`span_secs_since`]: the number of spans completed so far.
pub fn mark() -> usize {
    STATE.lock().as_ref().map_or(0, |s| s.spans.len())
}

/// Total seconds of spans named `name` completed after `mark` was taken
/// (`+0.0` when none match).
/// This is how the experiment harness derives method timings from the
/// collector instead of stopwatching around calls.
pub fn span_secs_since(mark: usize, name: &str) -> f64 {
    let guard = STATE.lock();
    let Some(s) = guard.as_ref() else { return 0.0 };
    sum_secs(s.spans.iter().skip(mark).filter(|r| r.name == name))
}

/// Total duration of `spans` in seconds. Folds from `+0.0`: float
/// `Iterator::sum` starts at `-0.0`, which an empty selection would return.
fn sum_secs<'a>(spans: impl Iterator<Item = &'a SpanRecord>) -> f64 {
    spans.fold(0.0, |acc, s| acc + s.dur_us as f64 / 1e6)
}

fn fmt_us(us: u64) -> String {
    let secs = us as f64 / 1e6;
    if secs >= 1.0 {
        format!("{secs:.2} s")
    } else if secs >= 1e-3 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{us} µs")
    }
}

fn fmt_metric_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Renders a human-readable per-phase time table plus metric listings.
pub fn summary() -> String {
    let snap = snapshot();
    let mut out = String::new();
    // Aggregate spans by name, preserving first-seen order.
    let mut order: Vec<&'static str> = Vec::new();
    let mut agg: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for s in &snap.spans {
        let slot = agg.entry(s.name).or_insert_with(|| {
            order.push(s.name);
            (0, 0)
        });
        slot.0 += 1;
        slot.1 += s.dur_us;
    }
    if !order.is_empty() {
        out.push_str("spans (aggregated by name):\n");
        let width = order.iter().map(|n| n.len()).max().unwrap_or(0);
        for name in &order {
            let (count, total_us) = agg[name];
            let _ = writeln!(
                out,
                "  {name:<width$}  {:>10}  ({count} span{})",
                fmt_us(total_us),
                if count == 1 { "" } else { "s" },
            );
        }
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &snap.gauges {
            let _ = writeln!(out, "  {name} = {}", fmt_metric_value(*value));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &snap.histograms {
            if h.count == 0 {
                let _ = writeln!(out, "  {name}: n=0");
                continue;
            }
            let _ = writeln!(
                out,
                "  {name}: n={} mean={:.4e} p50={:.4e} p99={:.4e} min={:.4e} max={:.4e}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.min,
                h.max
            );
        }
    }
    if out.is_empty() {
        out.push_str("(telemetry empty)\n");
    }
    out
}

fn map(pairs: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Manifest JSON for one histogram. Empty histograms are `{"count": 0}` —
/// the sentinel `min`/`max` infinities would otherwise serialize as `null`.
/// Non-empty ones carry the summary stats, quantiles, and the non-zero
/// buckets as sparse `[index, count]` pairs.
fn histogram_value(h: &QuantileHistogram) -> serde::Value {
    use serde::Value;
    if h.count == 0 {
        return map(vec![("count", Value::UInt(0))]);
    }
    let buckets: Vec<Value> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| Value::Seq(vec![Value::UInt(i as u64), Value::UInt(c)]))
        .collect();
    map(vec![
        ("count", Value::UInt(h.count)),
        ("sum", Value::Float(h.sum)),
        ("min", Value::Float(h.min)),
        ("max", Value::Float(h.max)),
        ("mean", Value::Float(h.mean())),
        ("p50", Value::Float(h.quantile(0.5))),
        ("p90", Value::Float(h.quantile(0.9))),
        ("p99", Value::Float(h.quantile(0.99))),
        ("p999", Value::Float(h.quantile(0.999))),
        ("buckets", Value::Seq(buckets)),
    ])
}

/// Raw-span cap per distinct span name in the manifest. Aggregates
/// (counters, gauges, histogram quantiles) always cover every sample; the
/// raw span list exists for timeline inspection, and a handful of examples
/// per name is enough for that. Without the cap, benchmark manifests that
/// loop over thousands of requests checked in at tens of thousands of
/// lines of near-identical spans.
pub const MANIFEST_SPAN_CAP: usize = 48;

/// Builds the manifest JSON value: run metadata + metrics + spans + a
/// `traceEvents` array in Chrome trace-event format. The whole object loads
/// directly in `chrome://tracing` / Perfetto (extra keys are ignored).
///
/// Raw spans are capped at [`MANIFEST_SPAN_CAP`] per span name (earliest
/// kept, spillover dropped from both `spans` and `traceEvents`); the
/// `spans_total` / `spans_dropped` keys record how much was elided.
/// Counters, gauges, and histograms are never truncated.
pub fn manifest(extra_meta: &[(String, serde::Value)]) -> serde::Value {
    use serde::Value;
    let mut snap = snapshot();
    let spans_total = snap.spans.len();
    let mut per_name: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    snap.spans.retain(|s| {
        let seen = per_name.entry(s.name).or_insert(0);
        *seen += 1;
        *seen <= MANIFEST_SPAN_CAP
    });
    let spans_dropped = spans_total - snap.spans.len();
    let guard = STATE.lock();
    let mut meta: Vec<(String, Value)> = guard.as_ref().map(|s| s.meta.clone()).unwrap_or_default();
    drop(guard);
    for (k, v) in extra_meta {
        if let Some(slot) = meta.iter_mut().find(|(mk, _)| mk == k) {
            slot.1 = v.clone();
        } else {
            meta.push((k.clone(), v.clone()));
        }
    }

    let spans: Vec<Value> = snap
        .spans
        .iter()
        .map(|s| {
            let mut fields = vec![
                ("id", Value::UInt(s.id)),
                ("name", Value::Str(s.name.to_string())),
                ("start_us", Value::UInt(s.start_us)),
                ("dur_us", Value::UInt(s.dur_us)),
                ("tid", Value::UInt(s.tid)),
            ];
            if let Some(parent) = s.parent {
                fields.push(("parent", Value::UInt(parent)));
            }
            if let Some(label) = &s.label {
                fields.push(("label", Value::Str(label.clone())));
            }
            map(fields)
        })
        .collect();

    let end_us = snap.spans.iter().map(|s| s.start_us + s.dur_us).max().unwrap_or(0);
    let mut events: Vec<Value> = vec![map(vec![
        ("name", Value::Str("process_name".into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::UInt(1)),
        ("tid", Value::UInt(0)),
        ("args", map(vec![("name", Value::Str("qufem".into()))])),
    ])];
    for s in &snap.spans {
        let mut args = Vec::new();
        if let Some(label) = &s.label {
            args.push(("label".to_string(), Value::Str(label.clone())));
        }
        events.push(map(vec![
            ("name", Value::Str(s.name.to_string())),
            ("cat", Value::Str("qufem".into())),
            ("ph", Value::Str("X".into())),
            ("ts", Value::UInt(s.start_us)),
            ("dur", Value::UInt(s.dur_us)),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(s.tid)),
            ("args", Value::Map(args)),
        ]));
    }
    for (name, &value) in &snap.counters {
        events.push(map(vec![
            ("name", Value::Str(name.clone())),
            ("ph", Value::Str("C".into())),
            ("ts", Value::UInt(end_us)),
            ("pid", Value::UInt(1)),
            ("args", map(vec![("value", Value::UInt(value))])),
        ]));
    }
    for (name, h) in &snap.histograms {
        if h.count == 0 {
            continue;
        }
        events.push(map(vec![
            ("name", Value::Str(name.clone())),
            ("ph", Value::Str("C".into())),
            ("ts", Value::UInt(end_us)),
            ("pid", Value::UInt(1)),
            (
                "args",
                map(vec![
                    ("p50", Value::Float(h.quantile(0.5))),
                    ("p99", Value::Float(h.quantile(0.99))),
                ]),
            ),
        ]));
    }

    let counters: Vec<(String, Value)> =
        snap.counters.iter().map(|(k, &v)| (k.clone(), Value::UInt(v))).collect();
    let gauges: Vec<(String, Value)> =
        snap.gauges.iter().map(|(k, &v)| (k.clone(), Value::Float(v))).collect();
    let histograms: Vec<(String, Value)> =
        snap.histograms.iter().map(|(k, h)| (k.clone(), histogram_value(h))).collect();

    map(vec![
        ("qufem_telemetry_version", Value::UInt(1)),
        ("meta", Value::Map(meta)),
        ("counters", Value::Map(counters)),
        ("gauges", Value::Map(gauges)),
        ("histograms", Value::Map(histograms)),
        ("spans_total", Value::UInt(spans_total as u64)),
        ("spans_dropped", Value::UInt(spans_dropped as u64)),
        ("spans", Value::Seq(spans)),
        ("traceEvents", Value::Seq(events)),
    ])
}

/// Writes the run manifest (see [`manifest`]) to `path`, creating parent
/// directories as needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_manifest(path: &Path, extra_meta: &[(String, serde::Value)]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let value = manifest(extra_meta);
    let text = serde_json::to_string_pretty(&value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector is process-global, so tests share it; this lock keeps
    /// them from interleaving.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn fresh() -> parking_lot::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock();
        reset();
        enable();
        guard
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let _guard = fresh();
        disable();
        reset();
        {
            let _s = span!("never");
            counter_add("never.counter", 3);
            gauge_set("never.gauge", 1.0);
            histogram_record("never.hist", 1.0);
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        enable();
    }

    #[test]
    fn spans_nest_through_the_thread_local_stack() {
        let _guard = fresh();
        {
            let outer = span!("outer");
            let outer_id = outer.id().unwrap();
            {
                let _inner = span!("inner", 7);
            }
            let snap = snapshot();
            let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
            assert_eq!(inner.parent, Some(outer_id));
            assert_eq!(inner.label.as_deref(), Some("7"));
        }
        let snap = snapshot();
        assert_eq!(snap.span_count("outer"), 1);
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, None);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let _guard = fresh();
        counter_add("c", 2);
        counter_add("c", 3);
        gauge_set("g", 5.0);
        gauge_max("g", 3.0);
        gauge_max("g", 9.0);
        histogram_record("h", 1.0);
        histogram_record("h", 3.0);
        counter_add("zero", 0);
        let snap = snapshot();
        assert_eq!(snap.counter("c"), 5);
        assert_eq!(snap.counters.get("zero"), Some(&0), "a zero delta registers the counter");
        assert_eq!(snap.gauge("g"), Some(9.0));
        let h = snap.histograms.get("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn phase_set_accumulates_and_packs() {
        let _guard = fresh();
        let parent_id;
        {
            let parent = span!("loop");
            parent_id = parent.id().unwrap();
            let mut phases = PhaseSet::new();
            for _ in 0..3 {
                let _a = phases.enter("alpha");
            }
            {
                let _b = phases.enter("beta");
            }
            phases.emit();
        }
        let snap = snapshot();
        let alpha = snap.spans.iter().find(|s| s.name == "alpha").unwrap();
        let beta = snap.spans.iter().find(|s| s.name == "beta").unwrap();
        assert_eq!(alpha.parent, Some(parent_id));
        assert_eq!(beta.parent, Some(parent_id));
        assert_eq!(alpha.label.as_deref(), Some("3 passes"));
        // Packed placement: beta starts where alpha ends.
        assert_eq!(beta.start_us, alpha.start_us + alpha.dur_us);
    }

    #[test]
    fn phase_set_add_micros_merges_external_durations() {
        let _guard = fresh();
        {
            let _parent = span!("loop");
            let mut phases = PhaseSet::new();
            // Worker-measured time folds into the same slot `enter` uses.
            phases.add_micros("engine", 40, 2);
            phases.add_micros("engine", 60, 3);
            phases.add_micros("matrix-gen", 10, 1);
            phases.emit();
        }
        let snap = snapshot();
        let engine = snap.spans.iter().find(|s| s.name == "engine").unwrap();
        assert_eq!(engine.dur_us, 100);
        assert_eq!(engine.label.as_deref(), Some("5 passes"));
        let matrix = snap.spans.iter().find(|s| s.name == "matrix-gen").unwrap();
        assert_eq!(matrix.dur_us, 10);
    }

    #[test]
    fn phase_set_add_micros_is_inert_when_disabled() {
        let _guard = fresh();
        disable();
        reset();
        let mut phases = PhaseSet::new();
        phases.add_micros("engine", 40, 1);
        phases.emit();
        assert!(snapshot().spans.is_empty());
    }

    #[test]
    fn mark_and_span_secs_since_select_new_spans() {
        let _guard = fresh();
        {
            let _a = span!("work");
        }
        let m = mark();
        {
            let _b = span!("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let since = span_secs_since(m, "work");
        assert!(since >= 0.002, "expected only the post-mark span, got {since}");
        assert!(since < snapshot().span_total_secs("work") + 1e-9);
    }

    #[test]
    fn span_totals_of_an_empty_selection_are_positive_zero() {
        let _guard = fresh();
        {
            let _s = span!("work");
        }
        let total = snapshot().span_total_secs("never");
        assert_eq!(total, 0.0);
        assert!(total.is_sign_positive(), "span_total_secs returned {total:?}");
        let since = span_secs_since(mark(), "work");
        assert_eq!(since, 0.0);
        assert!(since.is_sign_positive(), "span_secs_since returned {since:?}");
        assert!(Snapshot::default().span_total_secs("work").is_sign_positive());
    }

    #[test]
    fn histogram_merge_folds_whole_distributions() {
        let _guard = fresh();
        let mut local = QuantileHistogram::default();
        local.record(0.5);
        local.record(0.25);
        histogram_merge("m", &local);
        histogram_merge("m", &local);
        histogram_merge("empty", &QuantileHistogram::default());
        let snap = snapshot();
        let merged = snap.histograms.get("m").unwrap();
        assert_eq!(merged.count, 4);
        assert_eq!(merged.sum, 1.5);
        assert_eq!((merged.min, merged.max), (0.25, 0.5));
        assert!(!snap.histograms.contains_key("empty"), "empty merges create nothing");
        disable();
        histogram_merge("off", &local);
        assert!(!snapshot().histograms.contains_key("off"), "disabled merges record nothing");
        enable();
    }

    #[test]
    fn manifest_is_valid_chrome_trace_and_roundtrips() {
        let _guard = fresh();
        set_meta("seed", serde::Value::UInt(7));
        counter_add("engine.products", 10);
        {
            let _s = span!("characterize");
            let _t = span!("iteration", 0);
        }
        let dir = std::env::temp_dir().join("qufem-telemetry-test");
        let path = dir.join("manifest.json");
        write_manifest(&path, &[("extra".to_string(), serde::Value::Bool(true))]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value: serde::Value = serde_json::from_str(&text).unwrap();
        let events = value.get("traceEvents").and_then(|v| v.as_seq()).unwrap();
        // Meta event + 2 spans + 1 counter.
        assert_eq!(events.len(), 4);
        for ev in events {
            let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap();
            assert!(matches!(ph, "M" | "X" | "C"));
        }
        assert_eq!(
            value.get("meta").unwrap().get("seed").and_then(|v| v.as_u64()),
            Some(7),
            "set_meta value must survive"
        );
        assert!(value.get("meta").unwrap().get("extra").is_some());
        assert_eq!(
            value.get("counters").unwrap().get("engine.products").and_then(|v| v.as_u64()),
            Some(10)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_caps_raw_spans_per_name_but_keeps_aggregates() {
        let _guard = fresh();
        for i in 0..(MANIFEST_SPAN_CAP + 25) {
            let _s = span!("iteration", i);
            histogram_record("iter.secs", 0.001);
        }
        {
            let _s = span!("characterize");
        }
        let value = manifest(&[]);
        let spans = value.get("spans").and_then(|v| v.as_seq()).unwrap();
        // Cap applies per name: the lone characterize span survives even
        // though iteration overflowed.
        assert_eq!(spans.len(), MANIFEST_SPAN_CAP + 1);
        let total = value.get("spans_total").and_then(|v| v.as_u64()).unwrap();
        let dropped = value.get("spans_dropped").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(total, (MANIFEST_SPAN_CAP + 26) as u64);
        assert_eq!(dropped, 25);
        // Earliest spans kept, so the retained list starts at iteration 0.
        assert_eq!(spans[0].get("label").and_then(|v| v.as_str()), Some("0"));
        // traceEvents mirror the capped list: process_name meta + spans +
        // the histogram counter sample.
        let events = value.get("traceEvents").and_then(|v| v.as_seq()).unwrap();
        assert_eq!(events.len(), 1 + MANIFEST_SPAN_CAP + 1 + 1);
        // Aggregates are never truncated: every sample is in the histogram.
        let count = value
            .get("histograms")
            .and_then(|v| v.get("iter.secs"))
            .and_then(|v| v.get("count"))
            .and_then(|v| v.as_u64())
            .unwrap();
        assert_eq!(count, (MANIFEST_SPAN_CAP + 25) as u64);
    }

    #[test]
    fn reset_clears_everything() {
        let _guard = fresh();
        counter_add("x", 1);
        {
            let _s = span!("x");
        }
        reset();
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.counter("x"), 0);
    }

    #[test]
    fn summary_lists_spans_and_metrics() {
        let _guard = fresh();
        {
            let _s = span!("characterize");
        }
        counter_add("device.circuits", 4);
        gauge_set("memwatch.peak_bytes", 1024.0);
        let text = summary();
        assert!(text.contains("characterize"));
        assert!(text.contains("device.circuits = 4"));
        assert!(text.contains("memwatch.peak_bytes = 1024"));
    }

    #[test]
    fn bucket_index_follows_powers_of_two() {
        // Bucket i covers (2^(i-32), 2^(i-31)]: exact powers sit at their
        // bucket's upper edge.
        assert_eq!(bucket_index(1.0), 31);
        assert_eq!(bucket_index(1.0 + 1e-12), 32);
        assert_eq!(bucket_index(0.5), 30);
        assert_eq!(bucket_index(2.0), 32);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 2.0), 0); // subnormal
        assert_eq!(bucket_index(1e300), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_edge(31), 1.0);
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = QuantileHistogram::default();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram quantile is 0");
        for i in 1..=1000u64 {
            h.record(i as f64 / 1000.0); // 1 ms .. 1 s
        }
        assert_eq!(h.quantile(0.0), h.min);
        assert_eq!(h.quantile(1.0), h.max);
        let qs = [0.1, 0.5, 0.9, 0.99, 0.999];
        let vals: Vec<f64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {vals:?}");
        }
        for v in &vals {
            assert!(*v >= h.min && *v <= h.max, "quantile left [min, max]: {v}");
        }
        // The median of a uniform 1ms..1s sample sits within a 2x bucket.
        let p50 = h.quantile(0.5);
        assert!((0.25..=1.0).contains(&p50), "p50 off by more than a bucket: {p50}");
    }

    #[test]
    fn single_value_histogram_pins_all_quantiles() {
        let mut h = QuantileHistogram::default();
        h.record(0.125);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.125);
        }
        assert_eq!(h.mean(), 0.125);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = QuantileHistogram::default();
        let mut b = QuantileHistogram::default();
        a.record(0.001);
        b.record(1.0);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 0.001);
        assert_eq!(a.max, 2.0);
        a.merge(&QuantileHistogram::default()); // empty merge is a no-op
        assert_eq!(a.count, 3);
    }

    #[test]
    fn empty_histogram_serializes_as_count_zero() {
        // Regression: min=+inf/max=-inf serialized as JSON null before.
        let empty = histogram_value(&QuantileHistogram::default());
        let text = serde_json::to_string(&empty).unwrap();
        assert_eq!(text, r#"{"count":0}"#);
        assert!(!text.contains("null"));
    }

    #[test]
    fn manifest_histograms_carry_quantiles_and_sparse_buckets() {
        let _guard = fresh();
        histogram_record("h.lat", 0.5);
        histogram_record("h.lat", 0.5);
        histogram_record("h.lat", 0.001);
        let value = manifest(&[]);
        let h = value.get("histograms").unwrap().get("h.lat").unwrap();
        assert_eq!(h.get("count").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(h.get("p50").and_then(|v| v.as_f64()), Some(0.5));
        let buckets = h.get("buckets").and_then(|v| v.as_seq()).unwrap();
        assert_eq!(buckets.len(), 2, "only non-zero buckets are exported");
        // Histograms also surface as Chrome-trace counter events.
        let events = value.get("traceEvents").and_then(|v| v.as_seq()).unwrap();
        assert!(events.iter().any(|ev| {
            ev.get("name").and_then(|v| v.as_str()) == Some("h.lat")
                && ev.get("args").and_then(|a| a.get("p50")).is_some()
        }));
    }

    #[test]
    fn render_text_is_stable_prometheus_summary_format() {
        let mut h = QuantileHistogram::default();
        for _ in 0..10 {
            h.record(0.25);
        }
        let text = h.render_text("serve.request_secs");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], "serve_request_secs{quantile=\"0.5\"} 0.25");
        assert_eq!(lines[4], "serve_request_secs_sum 2.5");
        assert_eq!(lines[5], "serve_request_secs_count 10");
    }

    #[test]
    fn counters_with_prefix_filters_and_sorts() {
        let _guard = fresh();
        counter_add("engine.kept_level.001", 5);
        counter_add("engine.kept_level.000", 9);
        counter_add("engine.products", 1);
        let snap = snapshot();
        let levels = snap.counters_with_prefix("engine.kept_level.");
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0], ("engine.kept_level.000", 9));
        assert_eq!(levels[1], ("engine.kept_level.001", 5));
    }
}
