//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer; nothing inside the program is instrumented. A disabled
//! recorder keeps no spans, so the untraced run pays only for the two clock
//! reads that time each request.

use std::io::Write;
use std::time::Instant;

/// Index of a span within one [`Recorder`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `wire.encode`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request identifier shared by every span of one request (0: none).
    pub request: u64,
    /// Recording thread (client connection or 0 for the main thread).
    pub thread: u32,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Per-thread span buffer. Each client thread owns one; they are merged
/// when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    thread: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool, thread: u32) -> Self {
        Recorder { epoch, enabled, thread, spans: Vec::new() }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, request, thread: self.thread });
        Some(self.spans.len() - 1)
    }
}

/// Merges per-thread recorders into one span list, renumbering parents.
pub fn merge(recorders: Vec<Recorder>) -> Vec<Span> {
    let mut all = Vec::new();
    for rec in recorders {
        let offset = all.len();
        all.extend(rec.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    all
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::us).collect()
}

/// Writes spans in the Chrome trace-event format (loadable in Perfetto).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}{}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.us(),
            s.request,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
