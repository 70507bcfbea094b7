//! The calibration server: TCP accept loop, a non-blocking readiness event
//! loop that owns every connection, and a bounded worker pool executing
//! decoded requests.
//!
//! ## Concurrency model
//!
//! One acceptor thread accepts connections and hands them to a single
//! **event-loop thread** (`qufem-serve-loop`); the loop owns each
//! connection's read/write buffers, extracts frames in either wire dialect
//! (NDJSON or the binary format of [`crate::wire`], negotiated by the
//! connection's first byte), and dispatches decoded frames to `workers`
//! threads over a bounded channel. The loop runs on non-blocking sockets
//! (`TcpStream::set_nonblocking`) with an adaptive park/unpark wake
//! protocol — no `libc`, no polling syscall wrappers — so one process holds
//! many connections without pinning a thread per connection.
//!
//! NDJSON connections are served **strictly in order**: one request is in
//! flight at a time, exactly like the historical thread-per-connection
//! loop, so every PR 3–8 client works unmodified. Binary connections may
//! **pipeline**: many frames in flight at once, responses tagged with the
//! request id from the frame header and written in completion order.
//!
//! Backpressure sheds load at the edge: the acceptor answers connections
//! beyond `workers + queue_depth` with a `server busy` error frame and
//! closes them immediately. A graceful shutdown (the `shutdown` command or
//! [`ServeHandle::shutdown`]) stops the acceptor, then lets the loop drain
//! every accepted connection: requests whose bytes reached the server are
//! answered, never dropped.
//!
//! ## Methods
//!
//! The server hosts a [`MethodRegistry`]: every registered method can be
//! selected per request via the optional `method` field (defaulting to
//! [`ServeConfig::default_method`]). The [`QuFem`] instance handed to
//! [`Server::start`] is always served under id `"qufem"` — exactly that
//! instance, so wire responses match its in-process `prepare` + `apply`
//! bit for bit. Other methods are built lazily, once per catalog version,
//! from that version's first benchmarking snapshot (`BP_1`); registry
//! constructors are deterministic functions of the snapshot, so a
//! server-side build is bit-identical to the same build done in process.
//! An unknown `method` (or a bad per-method option) fails only that
//! request with an error frame — the connection survives — and is counted
//! as `unknown_method` in the server's [`ServeMetrics`].
//!
//! ## Determinism
//!
//! Calibration goes through the exact library path
//! ([`qufem_core::PreparedMitigator::apply_with_stats`]), whose output is
//! bit-identical to the in-process result at any `QUFEM_THREADS` setting
//! for every method (the baselines are sequential by construction), and
//! preparations are cached per `(method, measured
//! set)` ([`PlanCache`]) — so a response is byte-for-byte reproducible no
//! matter which worker serves it, which dialect carried it, how many
//! clients are connected, or whether the preparation was cached.

use crate::catalog::{Catalog, VersionEntry};
use crate::observability::{CacheOutcome, RequestCmd, RequestOutcome, RequestRecord, ServeMetrics};
use crate::protocol::{
    HistogramSummary, MethodMetrics, MetricsInfo, Request, Response, StatusInfo, CMD_ADMIT,
    CMD_CALIBRATE, CMD_METRICS, CMD_SHUTDOWN, CMD_STATUS, CMD_TRACE,
};
use crate::wire;
use qufem_core::{EngineStats, MethodRegistry, QuFem, DEFAULT_DEVICE_ID};
use qufem_telemetry::QuantileHistogram;
use qufem_types::{Error, QubitSet};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing decoded requests concurrently.
    pub workers: usize,
    /// Connection budget beyond the worker count: up to
    /// `workers + queue_depth` connections are held open at once; beyond
    /// that the acceptor rejects with an error frame.
    pub queue_depth: usize,
    /// Maximum bytes in one request frame: an NDJSON line (without the
    /// newline) or a binary frame payload.
    pub max_request_bytes: usize,
    /// Idle time after which a connection with no request in flight is
    /// closed. A connection whose client leaves more than 4 MiB of answers
    /// unread (so it starts no new request) is closed after the same time
    /// without progress, even with requests still queued.
    pub read_timeout: Option<Duration>,
    /// Prepared-plan LRU capacity of each catalog version entry: the
    /// `(method, measured set)` plans one `(device, version)` keeps hot.
    /// Plans are the serving side's only prepared-state cache, so resident
    /// plan memory is bounded by retained versions × this capacity × plan
    /// size.
    pub plan_cache_capacity: usize,
    /// Build the default method's full-register preparation on a background
    /// thread at startup, so the first full-register request finds it
    /// cached instead of paying the cold `prepare` latency. Only the
    /// default method is warmed; others prepare lazily on first request.
    pub prewarm: bool,
    /// Methods servable by string id (e.g. `qufem_baselines::standard_registry`).
    /// The served [`QuFem`] instance is always available as `"qufem"` even
    /// when the registry is empty.
    pub registry: Arc<MethodRegistry>,
    /// Method used when a request omits the `method` field.
    pub default_method: String,
    /// Flight-recorder capacity: the last N [`RequestRecord`]s kept in
    /// memory for the `trace` command (0 disables recording).
    pub flight_recorder: usize,
    /// Requests whose end-to-end time reaches this threshold are counted as
    /// slow (and logged when [`ServeConfig::access_log`] is on). `None`
    /// disables slow-request detection.
    pub slow_threshold: Option<Duration>,
    /// Emit each slow request as one JSON line on stderr (schema:
    /// [`crate::RequestTrace`]). Off by default.
    pub access_log: bool,
    /// Device id the served [`QuFem`] instance is published under (version
    /// 0 of this device; empty ⇒ `"default"`). Requests that name no
    /// device resolve here.
    pub device_id: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            max_request_bytes: 8 << 20,
            read_timeout: Some(Duration::from_secs(30)),
            plan_cache_capacity: 8,
            prewarm: true,
            registry: Arc::new(MethodRegistry::new()),
            default_method: "qufem".to_string(),
            flight_recorder: 256,
            slow_threshold: None,
            access_log: false,
            device_id: DEFAULT_DEVICE_ID.to_string(),
        }
    }
}

/// Shared server state.
#[derive(Debug)]
struct Inner {
    /// Device catalog: every served device's version lineage, each
    /// version entry holding its method instances and prepared-plan
    /// cache. The startup [`QuFem`] is version 0 of
    /// [`ServeConfig::device_id`]; `admit` publishes new versions.
    catalog: Catalog,
    /// Request counts and histograms (per-device request counts live in
    /// the catalog, the live-connection count in [`LoopShared`]).
    metrics: ServeMetrics,
    config: ServeConfig,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    prewarmed: AtomicBool,
}

impl Inner {
    /// Flips the shutdown flag (once) and pokes the acceptor awake.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // The acceptor blocks in `accept`; a throwaway local connection
            // wakes it so it can observe the flag and stop.
            let _ = TcpStream::connect(self.local_addr);
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Sorted union of registered method ids and the always-seeded
    /// `"qufem"`.
    fn method_ids(&self) -> Vec<String> {
        let mut ids: BTreeSet<String> = self.config.registry.ids().into_iter().collect();
        ids.insert("qufem".to_string());
        ids.into_iter().collect()
    }
}

/// State shared between the acceptor, the event loop, and the workers.
#[derive(Debug)]
struct LoopShared {
    /// Accepted connections waiting for the loop to adopt them.
    registrations: Mutex<Vec<TcpStream>>,
    /// Finished work waiting for the loop to write it out.
    completions: Mutex<Vec<Completion>>,
    /// The event-loop thread, for `unpark` wakes.
    waker: OnceLock<std::thread::Thread>,
    /// Connections currently alive (claimed by the acceptor, released by
    /// the loop on close) — the backpressure budget.
    live_conns: AtomicUsize,
    /// Set when the acceptor has exited; the loop only stops once no
    /// further registrations can arrive.
    acceptor_done: AtomicBool,
}

impl LoopShared {
    fn new() -> Self {
        LoopShared {
            registrations: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker: OnceLock::new(),
            live_conns: AtomicUsize::new(0),
            acceptor_done: AtomicBool::new(false),
        }
    }

    /// Wakes the event loop (no-op until the loop registers itself).
    fn wake(&self) {
        if let Some(t) = self.waker.get() {
            t.unpark();
        }
    }
}

/// A running calibration server (see the module docs for the model).
#[derive(Debug)]
pub struct Server {
    inner: Arc<Inner>,
    acceptor: JoinHandle<()>,
    event_loop: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    prewarm: Mutex<Option<JoinHandle<()>>>,
}

/// Cloneable handle for stopping and observing a [`Server`] from another
/// thread (or from a worker, for the `shutdown` command).
#[derive(Debug, Clone)]
pub struct ServeHandle {
    inner: Arc<Inner>,
}

impl ServeHandle {
    /// Begins a graceful shutdown: stop accepting, drain queued and
    /// in-flight requests, then let every thread exit.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Requests begun so far (any command, including failures); every
    /// begun request is answered before the server stops.
    pub fn requests(&self) -> u64 {
        self.inner.metrics.requests()
    }

    /// Connections accepted so far (tests synchronize on this to know a
    /// written request will be drained by a shutdown).
    pub fn accepted(&self) -> u64 {
        self.inner.metrics.accepted()
    }

    /// Connections rejected by backpressure so far.
    pub fn rejected(&self) -> u64 {
        self.inner.metrics.rejected()
    }

    /// Whether the startup prewarm has finished (always `false` when
    /// [`ServeConfig::prewarm`] is off).
    pub fn prewarmed(&self) -> bool {
        self.inner.prewarmed.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// the acceptor, event-loop, and worker threads over a characterized
    /// calibrator.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn start(
        qufem: QuFem,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        // The startup instance becomes version 0 of the configured device,
        // pinned as method "qufem" — never a registry rebuild — so its wire
        // responses match its in-process prepare + apply bit for bit.
        let catalog = Catalog::new(
            qufem,
            &config.device_id,
            Arc::clone(&config.registry),
            config.plan_cache_capacity,
        );
        let inner = Arc::new(Inner {
            catalog,
            metrics: ServeMetrics::new(
                config.flight_recorder,
                config.slow_threshold.map(|d| d.as_micros() as u64),
                config.access_log,
            ),
            local_addr,
            shutdown: AtomicBool::new(false),
            prewarmed: AtomicBool::new(false),
            config,
        });

        // Build the default method's full-register preparation for the
        // default device's head off the startup path: the cache's
        // build-outside-the-lock discipline means a racing first request
        // either finds the prewarmed entry or builds an identical one.
        let prewarm_handle = inner.config.prewarm.then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("qufem-serve-prewarm".to_string())
                .spawn(move || {
                    let _span = qufem_telemetry::span!("serve.prewarm");
                    let id = inner.config.default_method.clone();
                    let Ok(entry) = inner.catalog.resolve(None, None) else { return };
                    if entry.prepared(&id, entry.full_register()).is_ok() {
                        inner.prewarmed.store(true, Ordering::SeqCst);
                    }
                })
                .expect("spawn prewarm thread")
        });

        let shared = Arc::new(LoopShared::new());
        let (work_tx, work_rx) =
            std::sync::mpsc::sync_channel::<Work>(workers + inner.config.queue_depth.max(1));
        let work_rx = Arc::new(Mutex::new(work_rx));
        let event_loop = {
            let inner = Arc::clone(&inner);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("qufem-serve-loop".to_string())
                .spawn(move || event_loop(&inner, &shared, work_tx))
                .expect("spawn event-loop thread")
        };
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&work_rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qufem-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &rx, &shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("qufem-serve-acceptor".to_string())
                .spawn(move || accept_loop(&inner, &listener, &shared))
                .expect("spawn acceptor thread")
        };

        Ok(Server {
            inner,
            acceptor,
            event_loop,
            workers: worker_handles,
            prewarm: Mutex::new(prewarm_handle),
        })
    }

    /// Blocks until the startup prewarm (if configured) has finished, so a
    /// subsequent full-register request is guaranteed a warm plan cache.
    pub fn wait_for_prewarm(&self) {
        if let Some(h) = self.prewarm.lock().expect("prewarm handle lock").take() {
            let _ = h.join();
        }
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// A handle for stopping/observing the server from elsewhere.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { inner: Arc::clone(&self.inner) }
    }

    /// Blocks until the server has fully stopped (acceptor, event loop, and
    /// workers exited), then exports its final totals into the global
    /// telemetry collector when that is enabled: every count and histogram
    /// the `metrics` text format renders, under the same names with a
    /// `serve.` prefix — so a run manifest written afterwards carries every
    /// `serve.*` count exactly once. Call
    /// [`ServeHandle::shutdown`] — or send the `shutdown` command — to make
    /// that happen.
    pub fn join(self) {
        self.wait_for_prewarm();
        let _ = self.acceptor.join();
        let _ = self.event_loop.join();
        for w in self.workers {
            let _ = w.join();
        }
        if qufem_telemetry::enabled() {
            for (name, kind, value) in serve_counts(&self.inner) {
                let name = format!("serve.{name}");
                match kind {
                    Kind::Counter => qufem_telemetry::counter_add(&name, value),
                    Kind::Gauge => qufem_telemetry::gauge_set(&name, value as f64),
                }
            }
            for (name, histogram) in serve_histograms(&self.inner.metrics) {
                qufem_telemetry::histogram_merge(&name, &histogram);
            }
        }
    }

    /// Convenience: begin a graceful shutdown and wait for it to finish.
    pub fn shutdown_and_join(self) {
        self.inner.begin_shutdown();
        self.join();
    }
}

/// Accept loop: claim a connection slot against the `workers +
/// queue_depth` budget and hand the stream to the event loop, or shed load
/// with an error frame when the budget is spent.
fn accept_loop(inner: &Inner, listener: &TcpListener, shared: &LoopShared) {
    let budget = inner.config.workers.max(1) + inner.config.queue_depth.max(1);
    for stream in listener.incoming() {
        if inner.shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Claim the slot *before* deciding: the loop may release other
        // slots concurrently, but a claim past the budget is always
        // detected and rolled back.
        let live = shared.live_conns.fetch_add(1, Ordering::SeqCst) + 1;
        if live > budget || inner.shutting_down() {
            shared.live_conns.fetch_sub(1, Ordering::SeqCst);
            inner.metrics.record_reject();
            let reason = if inner.shutting_down() {
                "server shutting down"
            } else {
                "server busy: connection queue full, retry later"
            };
            // Rejections are always one NDJSON error line: the client has
            // not sent its first byte yet, so no dialect was negotiated.
            let _ = stream.set_write_timeout(inner.config.read_timeout);
            let _ = (&stream).write_all(&encode_json_response(&Response::err(reason)));
            drop(stream);
        } else {
            inner.metrics.record_accept(live);
            shared.registrations.lock().expect("registrations lock").push(stream);
            shared.wake();
        }
    }
    shared.acceptor_done.store(true, Ordering::SeqCst);
    shared.wake();
}

/// Wire dialect a connection negotiated with its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dialect {
    /// No bytes received yet.
    Undecided,
    /// Newline-delimited JSON (anything whose first byte is not the binary
    /// magic — `{`, whitespace, a bare keep-alive newline).
    Json,
    /// Length-prefixed binary frames ([`crate::wire`]).
    Binary,
}

/// One decoded unit waiting in a connection's dispatch queue.
#[derive(Debug)]
enum Pending {
    /// One NDJSON request line (newline stripped).
    Line(String),
    /// One binary request frame.
    Frame(wire::Frame),
    /// A frame over the byte limit: answer once (echoing the declared id
    /// on binary connections), then close — an over-limit stream cannot be
    /// re-synchronized cheaply.
    Oversized { id: u64 },
    /// Binary framing lost (bad magic mid-stream): answer once, then
    /// close.
    Desync { message: String },
}

/// One connection owned by the event loop.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Guards completions against slot reuse: stale generations are
    /// discarded.
    gen: u64,
    dialect: Dialect,
    read_buf: Vec<u8>,
    /// Leading bytes of `read_buf` known to hold no newline (NDJSON), so a
    /// line arriving over many reads is searched once, not once per read.
    newline_free: usize,
    /// Bytes the NDJSON newline search has examined.
    #[cfg(test)]
    searched: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Decoded units, each stamped when it left the read buffer.
    pending: VecDeque<(Pending, Instant)>,
    /// Requests dispatched to workers and not yet completed.
    in_flight: usize,
    /// Responses written (or queued for write) on this connection.
    answered: u64,
    last_activity: Instant,
    /// No more bytes will be read (EOF, read error, or a poisoned frame).
    read_closed: bool,
    /// A terminal error frame was emitted: close once writes drain.
    closing: bool,
    /// The socket failed: drop the connection without further ceremony.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Conn {
        Conn {
            stream,
            gen,
            dialect: Dialect::Undecided,
            read_buf: Vec::new(),
            newline_free: 0,
            #[cfg(test)]
            searched: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            in_flight: 0,
            answered: 0,
            last_activity: Instant::now(),
            read_closed: false,
            closing: false,
            dead: false,
        }
    }

    /// Writes queued response bytes until the socket would block, then
    /// drops the written ones once all are out, or once they are many, so a
    /// slow reader does not keep them alive. Returns whether any byte went
    /// out; a failed socket marks the connection dead.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while !self.writes_drained() {
            match (&self.stream).write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return true;
                }
                Ok(n) => {
                    self.write_pos += n;
                    self.last_activity = Instant::now();
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
        if self.writes_drained() || self.write_pos >= WRITE_HIGH_WATER {
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
            release_if_grown(&mut self.write_buf);
        }
        progress
    }

    /// Whether every queued byte has been written to the socket.
    fn writes_drained(&self) -> bool {
        self.write_pos == self.write_buf.len()
    }

    /// Whether the unwritten output is at [`WRITE_HIGH_WATER`], so no new
    /// request starts until the client reads.
    fn write_blocked(&self) -> bool {
        self.write_buf.len() - self.write_pos >= WRITE_HIGH_WATER
    }

    /// Whether no request is queued or executing and writes are drained.
    fn idle(&self) -> bool {
        self.pending.is_empty() && self.in_flight == 0 && self.writes_drained()
    }
}

/// One finished request on its way back to the event loop.
#[derive(Debug)]
struct Completion {
    slot: usize,
    gen: u64,
    /// The encoded response (JSON line or binary frame).
    bytes: Vec<u8>,
    /// The request asked for a server shutdown.
    shutdown: bool,
}

/// One decoded request on its way to a worker.
#[derive(Debug)]
struct Work {
    slot: usize,
    gen: u64,
    dialect: Dialect,
    /// When the request left its connection's read buffer.
    read_at: Instant,
    item: Pending,
}

/// Frames a connection may queue before the loop stops reading from it
/// (per-connection decode backpressure; the bounded work channel is the
/// global one).
const PENDING_HIGH_WATER: usize = 128;
/// Unwritten response bytes past which a connection starts no new request
/// until its client drains them; its pending list then fills and
/// [`PENDING_HIGH_WATER`] stops reading it, so a client that never reads
/// cannot grow server memory without bound, and after
/// [`ServeConfig::read_timeout`] without progress it is closed.
const WRITE_HIGH_WATER: usize = 4 << 20;
/// Read granularity for the shared scratch buffer.
const READ_CHUNK: usize = 64 * 1024;
/// A connection buffer that grew past this many [`READ_CHUNK`]s (for one
/// large request or answer) shrinks back to one chunk once it drains, so
/// the growth is not kept for the life of the connection.
const RELEASE_CHUNKS: usize = 4;
/// Shortest idle park; doubles up to [`MAX_PARK`] while nothing happens.
const MIN_PARK: Duration = Duration::from_micros(20);
/// Longest idle park (wakes still arrive instantly via `unpark`).
const MAX_PARK: Duration = Duration::from_millis(1);
/// How long a drain waits for a silent connection to say something before
/// closing it (connections that answered at least once close as soon as
/// they go idle).
const DRAIN_GRACE: Duration = Duration::from_millis(1000);

/// The event loop: adopt registrations, write out completions, pump every
/// connection's socket, and dispatch decoded frames to the worker pool.
fn event_loop(inner: &Arc<Inner>, shared: &Arc<LoopShared>, work_tx: SyncSender<Work>) {
    let _ = shared.waker.set(std::thread::current());
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 0;
    let mut drain_since: Option<Instant> = None;
    let mut park = MIN_PARK;
    let mut chunk = vec![0u8; READ_CHUNK];
    // Swapped with the shared hand-back vectors each tick, so both sides
    // keep reusing the capacity they already hold.
    let mut regs: Vec<TcpStream> = Vec::new();
    let mut comps: Vec<Completion> = Vec::new();
    loop {
        let mut progress = false;

        // Adopt newly accepted connections.
        std::mem::swap(&mut regs, &mut *shared.registrations.lock().expect("registrations lock"));
        for stream in regs.drain(..) {
            progress = true;
            if stream.set_nonblocking(true).is_err() {
                shared.live_conns.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let _ = stream.set_nodelay(true);
            next_gen += 1;
            let conn = Conn::new(stream, next_gen);
            let slot = free.pop().unwrap_or_else(|| {
                conns.push(None);
                conns.len() - 1
            });
            conns[slot] = Some(conn);
        }

        // Fold in finished work.
        std::mem::swap(&mut comps, &mut *shared.completions.lock().expect("completions lock"));
        for completion in comps.drain(..) {
            progress = true;
            if completion.shutdown {
                inner.begin_shutdown();
            }
            if let Some(conn) = conns.get_mut(completion.slot).and_then(Option::as_mut) {
                if conn.gen == completion.gen {
                    conn.in_flight -= 1;
                    conn.answered += 1;
                    conn.write_buf.extend_from_slice(&completion.bytes);
                    conn.last_activity = Instant::now();
                }
            }
        }

        let shutting_down = inner.shutting_down();
        if shutting_down && drain_since.is_none() {
            drain_since = Some(Instant::now());
        }
        let grace_over = drain_since.is_some_and(|t| t.elapsed() >= DRAIN_GRACE);

        // Pump sockets, extract frames, dispatch, decide closes.
        let mut backlog = 0usize;
        for (slot, entry) in conns.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else { continue };
            progress |= service_conn(inner, conn, slot, &work_tx, &mut chunk);
            backlog += conn.pending.len() + conn.in_flight;
            // Idle, or held above the write high-water mark by a client that
            // does not read: either way nothing moved for the whole timeout.
            let timed_out = inner.config.read_timeout.is_some_and(|t| {
                (conn.pending.is_empty() || conn.write_blocked())
                    && conn.in_flight == 0
                    && conn.last_activity.elapsed() >= t
            });
            let close = conn.dead
                || (conn.closing && conn.in_flight == 0 && conn.writes_drained())
                || (conn.read_closed && conn.idle())
                || (shutting_down && conn.idle() && (conn.answered > 0 || grace_over))
                || timed_out;
            if close {
                progress = true;
                *entry = None;
                free.push(slot);
                shared.live_conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
        inner.metrics.record_backlog(backlog);

        // Exit once shut down and fully drained: the acceptor has stopped
        // (no new registrations can appear) and every connection closed.
        if shutting_down
            && shared.acceptor_done.load(Ordering::SeqCst)
            && conns.iter().all(Option::is_none)
            && shared.registrations.lock().expect("registrations lock").is_empty()
        {
            break;
        }

        if progress {
            park = MIN_PARK;
        } else {
            // `unpark` from the acceptor or a worker returns immediately,
            // including wakes that landed between the sweep and this park.
            std::thread::park_timeout(park);
            park = (park * 4).min(MAX_PARK);
        }
    }
    // Dropping `work_tx` closes the channel; workers exit once it drains.
}

/// Pumps one connection: flush queued writes, read available bytes,
/// extract frames, and dispatch them. Returns whether anything happened.
fn service_conn(
    inner: &Inner,
    conn: &mut Conn,
    slot: usize,
    work_tx: &SyncSender<Work>,
    chunk: &mut [u8],
) -> bool {
    let mut progress = conn.flush();
    if conn.dead {
        return true;
    }

    // Frames already buffered go first. Read only once none is left and
    // the connection has room for more, and stop at a read that completes
    // a frame: the buffer then holds about one read of whole frames, so
    // slicing off a capped batch never moves a large remainder. Reads that
    // end in `WouldBlock` completed no frame, so they need no extraction.
    extract_frames(inner.config.max_request_bytes, conn);
    let mut extract = false;
    if !conn.read_closed && !conn.closing && conn.pending.len() < PENDING_HIGH_WATER {
        extract = true;
        loop {
            if conn.read_buf.len() > inner.config.max_request_bytes + READ_CHUNK {
                break; // oversized detection below will deal with it
            }
            match (&conn.stream).read(chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    progress = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    progress = true;
                    if completes_frame(conn, n) {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    extract = false;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read_closed = true;
                    progress = true;
                    break;
                }
            }
        }
    }

    if extract {
        extract_frames(inner.config.max_request_bytes, conn);
    }
    progress |= dispatch_pending(inner, conn, slot, work_tx);
    progress
}

/// Gives back a drained buffer's capacity past [`RELEASE_CHUNKS`] chunks.
fn release_if_grown(buf: &mut Vec<u8>) {
    if buf.is_empty() && buf.capacity() > RELEASE_CHUNKS * READ_CHUNK {
        buf.shrink_to(READ_CHUNK);
    }
}

/// Whether the `fresh` bytes just read complete a frame in the read buffer,
/// which held no whole frame before them: a newline on an NDJSON
/// connection, the header's declared length on a binary one.
fn completes_frame(conn: &Conn, fresh: usize) -> bool {
    let buf = &conn.read_buf;
    let binary = match conn.dialect {
        Dialect::Undecided => buf[0] == wire::MAGIC[0],
        dialect => dialect == Dialect::Binary,
    };
    if !binary {
        return buf[buf.len() - fresh..].contains(&b'\n');
    }
    match wire::parse_header(buf) {
        Ok(Some(header)) => buf.len() - wire::HEADER_LEN >= header.len,
        Ok(None) => false,
        // Framing is lost: stop reading, extraction answers it.
        Err(_) => true,
    }
}

/// Negotiates the dialect on the first byte, then slices the read buffer
/// into [`Pending`] units until the connection holds
/// [`PENDING_HIGH_WATER`] of them; the rest stays in the read buffer.
/// Frames over `max` bytes are answered as oversized.
fn extract_frames(max: usize, conn: &mut Conn) {
    if conn.closing || conn.read_buf.is_empty() || conn.pending.len() >= PENDING_HIGH_WATER {
        return;
    }
    if conn.dialect == Dialect::Undecided {
        conn.dialect =
            if conn.read_buf[0] == wire::MAGIC[0] { Dialect::Binary } else { Dialect::Json };
    }
    let now = Instant::now();
    let mut consumed = 0usize;
    match conn.dialect {
        Dialect::Undecided => unreachable!("dialect decided above"),
        Dialect::Json => {
            let mut partial = false;
            while conn.pending.len() < PENDING_HIGH_WATER {
                let from = consumed + conn.newline_free;
                let hit = conn.read_buf[from..].iter().position(|&b| b == b'\n');
                #[cfg(test)]
                {
                    conn.searched += hit.map_or(conn.read_buf.len() - from, |i| i + 1);
                }
                let Some(found) = hit else {
                    conn.newline_free = conn.read_buf.len() - consumed;
                    partial = true;
                    break;
                };
                conn.newline_free = 0;
                let nl = from - consumed + found;
                let bytes = &conn.read_buf[consumed..consumed + nl];
                if bytes.len() > max {
                    conn.pending.push_back((Pending::Oversized { id: 0 }, now));
                    conn.read_closed = true;
                    consumed = conn.read_buf.len();
                    break;
                }
                let line = match std::str::from_utf8(bytes) {
                    Ok(s) => s.trim_end_matches('\r').to_string(),
                    // An undecodable line still fails as one malformed
                    // request downstream instead of killing the stream.
                    Err(_) => String::from("\u{FFFD}"),
                };
                consumed += nl + 1;
                if line.is_empty() {
                    continue; // tolerate blank keepalive lines
                }
                conn.pending.push_back((Pending::Line(line), now));
            }
            // A partial line past the limit can never complete validly; a
            // remainder left by the pending cap holds whole lines.
            if partial && !conn.read_closed && conn.read_buf.len() - consumed > max {
                conn.pending.push_back((Pending::Oversized { id: 0 }, now));
                conn.read_closed = true;
                consumed = conn.read_buf.len();
                conn.newline_free = 0;
            }
        }
        Dialect::Binary => {
            while conn.pending.len() < PENDING_HIGH_WATER {
                match wire::try_parse_frame(&conn.read_buf[consumed..], max) {
                    Ok(None) => break,
                    Ok(Some((frame, used))) => {
                        consumed += used;
                        conn.pending.push_back((Pending::Frame(frame), now));
                    }
                    Err(wire::WireError::Oversized { id, .. }) => {
                        conn.pending.push_back((Pending::Oversized { id }, now));
                        conn.read_closed = true;
                        consumed = conn.read_buf.len();
                        break;
                    }
                    Err(e) => {
                        conn.pending.push_back((Pending::Desync { message: e.to_string() }, now));
                        conn.read_closed = true;
                        consumed = conn.read_buf.len();
                        break;
                    }
                }
            }
        }
    }
    if consumed > 0 {
        conn.read_buf.drain(..consumed);
        release_if_grown(&mut conn.read_buf);
    }
}

/// Feeds a connection's pending queue to the worker channel under the
/// ordering policy: NDJSON strictly serial (one in flight), binary freely
/// pipelined. Terminal markers are answered inline once earlier work
/// drains, then the connection closes.
fn dispatch_pending(
    inner: &Inner,
    conn: &mut Conn,
    slot: usize,
    work_tx: &SyncSender<Work>,
) -> bool {
    let mut progress = false;
    while !conn.write_blocked() {
        match conn.pending.front().map(|(item, _)| item) {
            None => break,
            Some(Pending::Oversized { .. }) | Some(Pending::Desync { .. }) => {
                if conn.in_flight > 0 {
                    break; // answer strictly after everything before it
                }
                let (marker, _) = conn.pending.pop_front().expect("front checked");
                let (bytes, _) = serve_request(inner, conn.dialect, 0, marker);
                conn.write_buf.extend_from_slice(&bytes);
                conn.answered += 1;
                conn.closing = true;
                conn.read_closed = true;
                conn.pending.clear();
                return true;
            }
            Some(Pending::Line(_)) => {
                if conn.in_flight > 0 {
                    break; // NDJSON answers in request order
                }
            }
            Some(Pending::Frame(_)) => {}
        }
        let (item, read_at) = conn.pending.pop_front().expect("front checked");
        let work = Work { slot, gen: conn.gen, dialect: conn.dialect, read_at, item };
        match work_tx.try_send(work) {
            Ok(()) => {
                conn.in_flight += 1;
                progress = true;
            }
            Err(TrySendError::Full(w)) | Err(TrySendError::Disconnected(w)) => {
                conn.pending.push_front((w.item, w.read_at));
                break;
            }
        }
    }
    progress
}

/// Serializes a response as one JSON line (newline included).
fn encode_json_response(response: &Response) -> Vec<u8> {
    let mut line = serde_json::to_string(response)
        .unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":\"serialize failed: {e}\"}}"));
    line.push('\n');
    line.into_bytes()
}

/// Worker loop: serve decoded requests until the work channel closes.
fn worker_loop(inner: &Inner, rx: &Arc<Mutex<Receiver<Work>>>, shared: &LoopShared) {
    loop {
        // Holding the lock across the blocking `recv` is intentional: only
        // one idle worker waits on the channel at a time, the rest wait on
        // the mutex, and every worker executes with the lock released.
        let next = {
            let guard = rx.lock().expect("worker queue lock");
            guard.recv()
        };
        let Ok(work) = next else { break };
        let queue_us = work.read_at.elapsed().as_micros() as u64;
        let (bytes, shutdown) = serve_request(inner, work.dialect, queue_us, work.item);
        let completion = Completion { slot: work.slot, gen: work.gen, bytes, shutdown };
        shared.completions.lock().expect("completions lock").push(completion);
        shared.wake();
    }
}

/// The one request lifecycle, for both dialects: workers run it for NDJSON
/// lines and binary frames, the event loop for terminal markers (oversized
/// frame, lost framing). It begins the record and the `serve.request` span,
/// decodes, dispatches, encodes in the connection's dialect, and folds the
/// record into the metrics. Returns the encoded response and whether the
/// request asked for a server shutdown.
fn serve_request(inner: &Inner, dialect: Dialect, queue_us: u64, item: Pending) -> (Vec<u8>, bool) {
    let started = Instant::now();
    let mut rec = RequestRecord::new(inner.metrics.begin());
    let _span = qufem_telemetry::span!("serve.request");
    rec.queue_us = queue_us;
    // Binary responses echo the frame's id (an oversized frame's declared
    // one); NDJSON responses carry none.
    let mut reply_id = 0;
    let malformed =
        |e: &dyn std::fmt::Display| (RequestOutcome::Malformed, format!("malformed request: {e}"));
    let decoded = match item {
        Pending::Line(line) => {
            rec.request_bytes = line.len() as u64;
            serde_json::from_str::<Request>(&line).map_err(|e| malformed(&e))
        }
        Pending::Frame(frame) => {
            rec.request_bytes = (wire::HEADER_LEN + frame.payload.len()) as u64;
            inner.metrics.record_binary();
            reply_id = frame.id;
            wire::decode_request(&frame).map_err(|e| malformed(&e))
        }
        Pending::Desync { message } => Err(malformed(&message)),
        Pending::Oversized { id } => {
            reply_id = id;
            let limit = inner.config.max_request_bytes;
            Err((
                RequestOutcome::Oversized,
                format!("request exceeds the {limit} byte frame limit"),
            ))
        }
    };
    let (response, shutdown) = match decoded {
        Ok(request) => dispatch_request(inner, request, &mut rec),
        Err((outcome, message)) => {
            rec.outcome = outcome;
            (Response::err(message), false)
        }
    };
    let serialize_start = Instant::now();
    let bytes = match dialect {
        Dialect::Binary => wire::encode_response(&response, reply_id),
        Dialect::Json | Dialect::Undecided => encode_json_response(&response),
    };
    rec.serialize_us = serialize_start.elapsed().as_micros() as u64;
    rec.response_bytes = bytes.len() as u64;
    rec.total_us = started.elapsed().as_micros() as u64;
    inner.metrics.finish(rec);
    (bytes, shutdown)
}

/// Executes one decoded request — the shared dispatch for both wire
/// dialects, so binary and NDJSON answers are built by the exact same
/// code.
fn dispatch_request(inner: &Inner, request: Request, rec: &mut RequestRecord) -> (Response, bool) {
    match request.cmd.as_str() {
        CMD_CALIBRATE => {
            rec.cmd = RequestCmd::Calibrate;
            (calibrate(inner, request, rec), false)
        }
        CMD_ADMIT => {
            rec.cmd = RequestCmd::Admit;
            (admit(inner, request, rec), false)
        }
        CMD_STATUS => {
            rec.cmd = RequestCmd::Status;
            rec.outcome = RequestOutcome::Ok;
            // Head entry of the default device (always present: the catalog
            // is created with it and devices are never removed).
            let head = inner.catalog.resolve(None, None).expect("default device present");
            let (plan_cache_len, _, _) = inner.catalog.plan_cache_totals();
            let status = StatusInfo {
                n_qubits: head.snapshot().n_qubits(),
                iterations: head.iterations(),
                requests: inner.metrics.requests(),
                rejected: inner.metrics.rejected(),
                plan_cache_len,
                plan_cache_capacity: inner.catalog.plan_cache_capacity(),
                workers: inner.config.workers.max(1),
                methods: inner.method_ids(),
                default_method: inner.config.default_method.clone(),
                devices: inner.catalog.summaries(),
                default_device: inner.catalog.default_device().to_string(),
            };
            (Response::with_status(status), false)
        }
        CMD_METRICS => {
            rec.cmd = RequestCmd::Metrics;
            rec.outcome = RequestOutcome::Ok;
            let response = if request.format.as_deref() == Some("text") {
                Response::with_metrics_text(metrics_text(inner))
            } else {
                Response::with_metrics(metrics_info(inner))
            };
            (response, false)
        }
        CMD_TRACE => {
            rec.cmd = RequestCmd::Trace;
            rec.outcome = RequestOutcome::Ok;
            let trace = inner.metrics.flight_dump().iter().map(RequestRecord::to_trace).collect();
            (Response::with_trace(trace), false)
        }
        CMD_SHUTDOWN => {
            rec.cmd = RequestCmd::Shutdown;
            rec.outcome = RequestOutcome::Ok;
            (Response::ack(), true)
        }
        other => (Response::err(format!("unknown command {other:?}")), false),
    }
}

/// Resolves a request's `(device, version)` coordinate against the
/// catalog, doing the shared bookkeeping for a failure
/// ([`RequestOutcome::UnknownDevice`]).
fn resolve_entry(
    inner: &Inner,
    request: &Request,
    rec: &mut RequestRecord,
) -> std::result::Result<Arc<VersionEntry>, Box<Response>> {
    inner.catalog.resolve(request.device.as_deref(), request.version).map_err(|e| {
        rec.cache = CacheOutcome::NotApplicable;
        rec.outcome = RequestOutcome::UnknownDevice;
        Box::new(Response::err(e.message()))
    })
}

/// Executes a `calibrate` request through the library path of the
/// requested method on the resolved `(device, version)` entry, recording
/// method, device, cache interaction, and prepare/apply timings into
/// `rec`. Every successful response echoes the identity it was served
/// from, so clients observe hot-swaps as a version change.
fn calibrate(inner: &Inner, request: Request, rec: &mut RequestRecord) -> Response {
    let entry = match resolve_entry(inner, &request, rec) {
        Ok(entry) => entry,
        Err(response) => return *response,
    };
    entry.count_request();
    rec.device = Some(entry.snapshot().device_id_arc());
    rec.version = entry.version();
    let Some(dist) = request.dist else {
        return Response::err("calibrate requires a `dist` field");
    };
    let measured: QubitSet = match request.measured {
        Some(qubits) => qubits.into_iter().collect(),
        None => entry.full_register().clone(),
    };
    if measured.is_empty() {
        return Response::err("calibrate requires a non-empty measured set");
    }
    rec.measured = measured.len() as u32;
    let method_id = request.method.as_deref().unwrap_or(&inner.config.default_method);
    let prepare_start = Instant::now();
    let prepared = match request.options.filter(|o| !o.is_empty()) {
        // Per-request option overrides: rebuild the method for this request
        // alone, bypassing the entry's method instances and plan cache
        // (overridden builds must not shadow the defaults other clients
        // see).
        Some(options) => {
            rec.cache = CacheOutcome::Bypass;
            inner
                .config
                .registry
                .build(method_id, entry.snapshot().snapshot(), &options)
                .and_then(|m| m.prepare(&measured))
        }
        None => entry.prepared(method_id, &measured).map(|(plan, built)| {
            rec.cache = if built { CacheOutcome::Miss } else { CacheOutcome::Hit };
            plan
        }),
    };
    rec.prepare_us = prepare_start.elapsed().as_micros() as u64;
    let prepared = match prepared {
        Ok(p) => p,
        Err(e @ Error::InvalidConfig(_)) => {
            // Unknown method id or malformed per-method option: fail only
            // this request — the connection stays open. The unresolved id is
            // deliberately not interned into the metrics table.
            rec.cache = CacheOutcome::NotApplicable;
            rec.outcome = RequestOutcome::UnknownMethod;
            return Response::err(e.to_string());
        }
        Err(e) => {
            rec.cache = CacheOutcome::NotApplicable;
            return Response::err(e.to_string());
        }
    };
    rec.method = Some(inner.metrics.method_key(method_id));
    let mut stats = EngineStats::default();
    let apply_start = Instant::now();
    let applied = prepared.apply_with_stats(&dist, &mut stats);
    rec.apply_us = apply_start.elapsed().as_micros() as u64;
    match applied {
        Ok(out) => {
            rec.outcome = RequestOutcome::Ok;
            let response = if prepared.reports_engine_stats() {
                Response::calibrated(out, stats)
            } else {
                Response::calibrated_without_stats(out)
            };
            response.with_identity(entry.device_id().to_string(), entry.version())
        }
        Err(e) => Response::err(e.to_string()),
    }
}

/// Executes an `admit` request: imports the calibration parameters carried
/// in `params`, publishes them as the next version of their device (the
/// request's `device` field overrides the lineage stamp), and acknowledges
/// with the assigned `(device, version)`. In-flight and version-pinned
/// requests keep the entries they already resolved — the swap is atomic at
/// the catalog head.
fn admit(inner: &Inner, request: Request, rec: &mut RequestRecord) -> Response {
    let Some(params) = request.params else {
        return Response::err("admit requires a `params` field with exported calibration data");
    };
    let imported = match QuFem::import_versioned(params) {
        Ok(pair) => pair,
        Err(e) => return Response::err(format!("admit rejected: {e}")),
    };
    let (qufem, versioned) = imported;
    match inner.catalog.admit(qufem, &versioned, request.device.as_deref()) {
        Ok(entry) => {
            inner.metrics.record_swap();
            rec.device = Some(entry.snapshot().device_id_arc());
            rec.version = entry.version();
            rec.outcome = RequestOutcome::Ok;
            Response::admitted(entry.device_id().to_string(), entry.version())
        }
        Err(e) => Response::err(format!("admit rejected: {e}")),
    }
}

/// Composes the live metrics snapshot for the `metrics` command.
fn metrics_info(inner: &Inner) -> MetricsInfo {
    let (plan_cache_len, cache_hits, cache_misses) = inner.catalog.plan_cache_totals();
    let (flight_len, flight_capacity) = inner.metrics.flight_stats();
    let methods = inner
        .metrics
        .method_stats()
        .into_iter()
        .map(|(method, apply, prepare)| MethodMetrics {
            method,
            requests: apply.count,
            apply: HistogramSummary::from(&apply),
            prepare: HistogramSummary::from(&prepare),
        })
        .collect();
    MetricsInfo {
        uptime_us: inner.metrics.uptime_us(),
        requests: inner.metrics.requests(),
        accepted: inner.metrics.accepted(),
        rejected: inner.metrics.rejected(),
        malformed: inner.metrics.outcomes(RequestOutcome::Malformed),
        oversized: inner.metrics.outcomes(RequestOutcome::Oversized),
        unknown_method: inner.metrics.outcomes(RequestOutcome::UnknownMethod),
        slow: inner.metrics.slow(),
        binary_requests: inner.metrics.binary_requests(),
        queue_depth: inner.metrics.backlog(),
        plan_cache_len,
        plan_cache_capacity: inner.catalog.plan_cache_capacity(),
        plan_cache_hits: cache_hits,
        plan_cache_misses: cache_misses,
        flight_recorder_len: flight_len,
        flight_recorder_capacity: flight_capacity,
        request: HistogramSummary::from(&inner.metrics.request_histogram()),
        methods,
        swaps: inner.metrics.swaps(),
        unknown_device: inner.metrics.outcomes(RequestOutcome::UnknownDevice),
        devices: inner.catalog.summaries(),
    }
}

/// How one entry of [`serve_counts`] reaches the telemetry collector.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A running total (`counter_add`).
    Counter,
    /// A level at the time of export (`gauge_set`).
    Gauge,
}

/// Every serve counter and gauge, in text-format order: the totals the
/// `metrics` command composes, the live-connection high-water mark, and
/// each device's catalog state. Names omit the `serve.` prefix: the text
/// format prints each as `qufem_serve_<name> <value>`, and
/// [`Server::join`] exports each as `serve.<name>`.
fn serve_counts(inner: &Inner) -> Vec<(String, Kind, u64)> {
    use Kind::{Counter, Gauge};
    let info = metrics_info(inner);
    let mut counts: Vec<(String, Kind, u64)> = [
        ("uptime_us", Gauge, info.uptime_us),
        ("requests", Counter, info.requests),
        ("accepted", Counter, info.accepted),
        ("rejected", Counter, info.rejected),
        ("malformed", Counter, info.malformed),
        ("oversized", Counter, info.oversized),
        ("unknown_method", Counter, info.unknown_method),
        ("slow_requests", Counter, info.slow),
        ("binary_requests", Counter, info.binary_requests),
        ("queue_depth", Gauge, info.queue_depth),
        ("connections.peak", Gauge, inner.metrics.connections_peak()),
        ("plan_cache_len", Gauge, info.plan_cache_len as u64),
        ("plan_cache_hits", Counter, info.plan_cache_hits),
        ("plan_cache_misses", Counter, info.plan_cache_misses),
        ("swaps", Counter, info.swaps),
        ("unknown_device", Counter, info.unknown_device),
        ("devices", Gauge, info.devices.len() as u64),
    ]
    .into_iter()
    .map(|(name, kind, value)| (name.to_string(), kind, value))
    .collect();
    for d in &info.devices {
        let id = &d.device;
        counts.push((format!("device_head_version.{id}"), Gauge, d.head_version));
        counts.push((format!("device_versions.{id}"), Gauge, d.versions.len() as u64));
        counts.push((format!("device_plan_cache_len.{id}"), Gauge, d.plan_cache_len as u64));
        counts.push((format!("device_requests.{id}"), Counter, d.requests));
    }
    counts
}

/// Every serve histogram under its text and export name: end-to-end
/// latency, then each method's apply and prepare latency.
fn serve_histograms(metrics: &ServeMetrics) -> Vec<(String, QuantileHistogram)> {
    let mut out = vec![("serve.request_secs".to_string(), metrics.request_histogram())];
    for (method, apply, prepare) in metrics.method_stats() {
        out.push((format!("serve.apply_secs.{method}"), apply));
        out.push((format!("serve.prepare_secs.{method}"), prepare));
    }
    out
}

/// Renders the live metrics in the stable Prometheus-like text format:
/// [`serve_counts`] as single `name value` lines, then
/// [`serve_histograms`] as quantile summaries (see
/// `qufem_telemetry::QuantileHistogram::render_text`).
fn metrics_text(inner: &Inner) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, _, value) in serve_counts(inner) {
        let _ = writeln!(out, "qufem_serve_{name} {value}");
    }
    for (name, histogram) in serve_histograms(&inner.metrics) {
        out.push_str(&histogram.render_text(&name));
    }
    out
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// Most requests [`Client::pipeline`] leaves unanswered at once: below the
/// server's per-connection limit on undispatched frames, so the server never
/// stops reading a pipelining client that is waiting for it.
const PIPELINE_WINDOW: usize = 64;
const _: () = assert!(PIPELINE_WINDOW < PENDING_HIGH_WATER);

/// A blocking client connection speaking either wire dialect.
///
/// [`Client::connect`] negotiates NDJSON (the historical protocol);
/// [`Client::connect_binary`] negotiates the binary frame format of
/// [`crate::wire`]. Either way, [`Client::request`] does one lockstep
/// round-trip, and [`Client::send`] / [`Client::recv`] pipeline many
/// requests with explicit ids — on binary connections responses may
/// complete out of order and are paired by id. [`Client::pipeline`] runs a
/// whole burst that way.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    binary: bool,
    next_id: u64,
    /// Ids of pipelined NDJSON sends, answered strictly in order.
    json_inflight: VecDeque<u64>,
}

impl Client {
    /// Connects to a running server, speaking NDJSON.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::connect_with(addr, false)
    }

    /// Connects to a running server, speaking the binary frame dialect.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::connect_with(addr, true)
    }

    fn connect_with(addr: impl ToSocketAddrs, binary: bool) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader, binary, next_id: 1, json_inflight: VecDeque::new() })
    }

    /// Whether this connection negotiated the binary dialect.
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a closed connection surfaces as
    /// [`io::ErrorKind::UnexpectedEof`] and an unparseable response as
    /// [`io::ErrorKind::InvalidData`]. A `Response { ok: false, .. }` is
    /// returned as `Ok` — protocol-level failures are the caller's to
    /// inspect. Must not be interleaved with outstanding pipelined
    /// [`Client::send`]s: their responses arrive first.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let id = self.send(request)?;
        let (got, response) = self.recv()?;
        if got != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {got} does not match lockstep request id {id}"),
            ));
        }
        Ok(response)
    }

    /// Sends one request without waiting, returning the id its response
    /// will carry. Pair with [`Client::recv`]; responses on binary
    /// connections may arrive out of order.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn send(&mut self, request: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        if self.binary {
            self.stream.write_all(&wire::encode_request(request, id))?;
        } else {
            let mut line = serde_json::to_string(request)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            line.push('\n');
            self.stream.write_all(line.as_bytes())?;
            self.json_inflight.push_back(id);
        }
        self.stream.flush()?;
        Ok(id)
    }

    /// Receives the next response, tagged with the id of the request it
    /// answers (NDJSON responses arrive in send order).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        if self.binary {
            let frame = self.read_binary_frame()?;
            let response = wire::decode_response(&frame)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            Ok((frame.id, response))
        } else {
            let id = self.json_inflight.pop_front().unwrap_or(0);
            Ok((id, self.read_json_response()?))
        }
    }

    /// Pipelines `requests` on this connection and returns one result per
    /// request, in request order. The client reads while it sends, keeping
    /// at most 64 requests unanswered, so the server keeps reading it and a
    /// burst of any size completes. A transport error fails every request
    /// not yet answered with its message.
    pub fn pipeline(&mut self, requests: &[Request]) -> Vec<Result<Response, String>> {
        let mut ids = Vec::with_capacity(requests.len());
        let mut answers = HashMap::with_capacity(requests.len());
        let mut unsent = requests.iter();
        let failure = loop {
            let room = ids.len() - answers.len() < PIPELINE_WINDOW;
            let step = match room.then(|| unsent.next()).flatten() {
                Some(request) => self.send(request).map(|id| ids.push(id)),
                None if answers.len() < ids.len() => {
                    self.recv().map(|(id, response)| drop(answers.insert(id, response)))
                }
                None => break None,
            };
            if let Err(e) = step {
                break Some(e.to_string());
            }
        };
        let mut out: Vec<_> = ids
            .iter()
            .map(|id| {
                answers.remove(id).ok_or_else(|| {
                    failure.clone().unwrap_or_else(|| format!("no response for request id {id}"))
                })
            })
            .collect();
        out.resize(requests.len(), Err(failure.unwrap_or_default()));
        out
    }

    /// Sends raw bytes (tests use this for malformed/oversized frames).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads the next response, discarding its request id.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn read_response(&mut self) -> io::Result<Response> {
        if self.binary {
            return Ok(self.recv()?.1);
        }
        self.read_json_response()
    }

    fn read_json_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"));
        }
        serde_json::from_str(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    fn read_binary_frame(&mut self) -> io::Result<wire::Frame> {
        let mut header = [0u8; wire::HEADER_LEN];
        if let Err(e) = self.reader.read_exact(&mut header) {
            return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection")
            } else {
                e
            });
        }
        let header = wire::parse_header(&header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            .expect("a whole header was read");
        let mut payload = vec![0u8; header.len];
        self.reader.read_exact(&mut payload)?;
        Ok(wire::Frame { id: header.id, code: header.code, payload })
    }
}

/// One-shot convenience: connect, send a single request, return the
/// response.
///
/// # Errors
///
/// See [`Client::request`].
pub fn request_once(addr: impl ToSocketAddrs, request: &Request) -> io::Result<Response> {
    Client::connect(addr)?.request(request)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The server end of a loopback connection, and its client end.
    fn conn_pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        (Conn::new(stream, 1), client)
    }

    /// One NDJSON line arriving in many small reads: every extraction
    /// resumes its newline search where the previous one stopped, so each
    /// byte is searched once, and exactly the line comes out. A partial
    /// line that passes the limit is still rejected as oversized.
    #[test]
    fn a_line_arriving_in_small_chunks_is_scanned_once() {
        const CHUNK: usize = 7;
        let line: Vec<u8> = (0..10_000).map(|i| b'a' + (i % 26) as u8).collect();
        let (mut conn, _client) = conn_pair();
        let mut stream = line.clone();
        stream.push(b'\n');
        for chunk in stream.chunks(CHUNK) {
            conn.read_buf.extend_from_slice(chunk);
            extract_frames(1 << 20, &mut conn);
            if conn.pending.is_empty() {
                assert_eq!(conn.newline_free, conn.read_buf.len());
            }
        }
        assert_eq!(conn.searched, stream.len(), "every byte searched once");
        assert!(conn.read_buf.is_empty() && conn.newline_free == 0);
        assert_eq!(conn.pending.len(), 1);
        match &conn.pending[0].0 {
            Pending::Line(got) => assert!(got.as_bytes() == line.as_slice()),
            other => panic!("expected one line, got {other:?}"),
        }

        // Over the limit: rejected once the partial line passes it.
        let (mut conn, _client) = conn_pair();
        let max = 1000;
        for chunk in line.chunks(CHUNK) {
            conn.read_buf.extend_from_slice(chunk);
            extract_frames(max, &mut conn);
            if conn.read_closed {
                break;
            }
            assert!(conn.pending.is_empty());
        }
        assert!(matches!(conn.pending.front(), Some((Pending::Oversized { id: 0 }, _))));
        assert_eq!(conn.pending.len(), 1);
        assert!(conn.read_buf.is_empty() && conn.newline_free == 0);
    }

    /// A connection that carried one large request and one large answer
    /// gives both buffers' growth back once they drain.
    #[test]
    fn drained_buffers_give_back_their_growth() {
        const BIG: usize = 16 * READ_CHUNK;
        let (mut conn, mut client) = conn_pair();
        conn.read_buf.resize(BIG, b' ');
        conn.read_buf.extend_from_slice(b"{}\n");
        extract_frames(BIG * 2, &mut conn);
        assert_eq!(conn.pending.len(), 1);
        assert!(conn.read_buf.capacity() <= READ_CHUNK, "{}", conn.read_buf.capacity());

        conn.write_buf.resize(BIG, b'x');
        let mut sink = vec![0u8; READ_CHUNK];
        let mut read = 0;
        while read < BIG {
            conn.flush();
            assert!(!conn.dead);
            read += client.read(&mut sink).unwrap();
        }
        conn.flush();
        assert!(conn.writes_drained());
        assert!(conn.write_buf.capacity() <= READ_CHUNK, "{}", conn.write_buf.capacity());
    }

    /// A client that reads, but more slowly than the server answers, keeps
    /// the connection's output above the write high-water mark: the written
    /// prefix must still be dropped, or the buffer grows with every byte
    /// the client ever reads.
    #[test]
    fn a_slow_reader_keeps_the_write_buffer_bounded() {
        const RESPONSE: usize = 64 << 10;
        let (mut conn, mut reader) = conn_pair();
        let byte = |i: usize| (i % 251) as u8;
        let (mut queued, mut read) = (0, 0);
        let mut buf = vec![0u8; 16 << 10];
        while read < 4 * WRITE_HIGH_WATER {
            // Answer while the unwritten output is below the mark, as
            // `dispatch_pending` does, then let the reader take 16 KiB.
            while conn.write_buf.len() - conn.write_pos < WRITE_HIGH_WATER {
                conn.write_buf.extend((queued..queued + RESPONSE).map(byte));
                queued += RESPONSE;
            }
            conn.flush();
            assert!(!conn.dead);
            assert!(
                conn.write_buf.len() < 2 * WRITE_HIGH_WATER + RESPONSE,
                "{} bytes buffered after {read} read",
                conn.write_buf.len()
            );
            let n = reader.read(&mut buf).unwrap();
            assert!(buf[..n].iter().enumerate().all(|(k, &b)| b == byte(read + k)));
            read += n;
        }
    }
}
