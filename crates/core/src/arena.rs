//! Reusable execution state for the zero-allocation apply hot path.
//!
//! [`ExecArena`] owns every buffer one calibration apply needs — the staged
//! input index, per-shard recording slots, the output index, and the
//! sort/translate scratch — so a warmed arena runs an entire plan chain
//! without touching the heap (`crates/core/tests/apply_zero_alloc.rs` pins
//! this with a counting global allocator).
//!
//! The module also hosts the **persistent shard pool** behind
//! [`ExecArena::run_chain`]: `configured_threads()` long-lived workers drain
//! a process-wide bounded `WorkQueue`. A job carries an
//! `Arc` of the arena's shared state plus the plan, records one contiguous
//! shard of the staged input into its own slot, and signals a condvar; the
//! caller then replays the slots **serially in shard order** — the same
//! in-order replay merge as before, so output bits, id assignment, and
//! [`EngineStats`] stay identical to the sequential walk at any
//! `QUFEM_THREADS` *and* any pool size. Worker panics are caught, reported
//! to the waiting caller, and re-raised there; the workers themselves live
//! on.

use crate::engine::{run_range, DirectSink, EngineStats, IterationPlan, RecordSink};
use crate::parallel::{configured_threads, WorkQueue};
use qufem_types::SupportIndex;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

/// Locks a mutex, recovering from poisoning: every structure in this module
/// is left consistent on unwind (slots are fully rewritten per job), so a
/// panicked job must not wedge later iterations.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One shard's private recording state: the emission stream and local stats
/// of the half-open input range the shard covers.
///
/// Aligned to two cache lines so neighbouring slots never share one: each
/// worker rewrites its slot's vector lengths and counters per product, and
/// without the padding whether two workers contend for a line depended on
/// where the allocator happened to place the slot vector.
#[derive(Debug)]
#[repr(align(128))]
struct ShardSlot {
    sink: RecordSink,
    stats: EngineStats,
}

/// Completion tracking for the in-flight iteration: count of finished
/// shards, plus the payload of the first worker panic (if any), which the
/// waiting caller re-raises via `resume_unwind`.
#[derive(Default)]
struct Progress {
    done: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// The arena state pool workers share with the arena's owner. `input` is
/// written by the owner between iterations and read by the workers during
/// one; each worker locks only its own slot, so shard recording runs fully
/// in parallel.
struct ApplyShared {
    input: RwLock<SupportIndex>,
    slots: Vec<Mutex<ShardSlot>>,
    progress: Mutex<Progress>,
    done_cv: Condvar,
}

/// One unit of pool work: record shard `shard` (input entries `lo..hi`) of
/// `plan` into its slot of `shared`.
struct ShardJob {
    shared: Arc<ApplyShared>,
    plan: Arc<IterationPlan>,
    shard: usize,
    lo: usize,
    hi: usize,
}

/// Pending jobs the pool can hold; submissions beyond this block the
/// producer (callers submit at most `threads` jobs per iteration, so the
/// bound only matters under extreme caller fan-out).
const POOL_QUEUE_CAPACITY: usize = 1024;

static POOL: OnceLock<Arc<WorkQueue<ShardJob>>> = OnceLock::new();

/// The process-wide shard pool queue, spawning `configured_threads()`
/// workers on first use. Worker count does not affect results (each shard's
/// slot is its own, and the merge is serial), only how many shards record
/// concurrently.
fn pool() -> &'static Arc<WorkQueue<ShardJob>> {
    POOL.get_or_init(|| {
        let queue = Arc::new(WorkQueue::with_capacity(POOL_QUEUE_CAPACITY));
        for i in 0..configured_threads().max(1) {
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name(format!("qufem-shard-{i}"))
                .spawn(move || loop {
                    run_job(queue.pop());
                })
                .expect("spawn shard pool worker");
        }
        queue
    })
}

/// Records one shard. Runs inside `catch_unwind` so a panicking chain walk
/// (e.g. a width-mismatched input) reaches the waiting caller as a panic —
/// exactly like the sequential path — while the worker thread survives.
fn run_job(job: ShardJob) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let input = job.shared.input.read().unwrap_or_else(PoisonError::into_inner);
        let mut slot = lock(&job.shared.slots[job.shard]);
        let slot = &mut *slot;
        slot.stats.reset();
        slot.sink.clear(input.width());
        run_range(&job.plan, &input, job.lo, job.hi, &mut slot.stats, &mut slot.sink);
    }));
    let mut progress = lock(&job.shared.progress);
    progress.done += 1;
    if let Err(payload) = result {
        if progress.panic.is_none() {
            progress.panic = Some(payload);
        }
    }
    drop(progress);
    job.shared.done_cv.notify_all();
}

/// Reusable execution state for a calibration plan chain.
///
/// Create one per long-lived apply context (`PreparedCalibration` keeps a
/// checkout pool of them), run chains through it, and every buffer — staged
/// input, shard slots, output, scratch — is reused call over call. After a
/// warm-up call with a representative input, subsequent runs perform **zero
/// heap allocations** until some buffer outgrows its high-water mark.
pub struct ExecArena {
    shared: Arc<ApplyShared>,
    /// The accumulated output of the most recent iteration.
    out: SupportIndex,
    /// Sort-permutation scratch for between-iteration re-canonicalization.
    order: Vec<u32>,
    /// Local→global id translation scratch for the replay merge.
    translate: Vec<u32>,
    /// Stats accumulated across the chain run (all iterations).
    local_stats: EngineStats,
}

impl std::fmt::Debug for ExecArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecArena")
            .field("shards", &self.shared.slots.len())
            .field("out_support", &self.out.len())
            .finish_non_exhaustive()
    }
}

impl ExecArena {
    /// Creates an arena with room for `max_shards` concurrent shard slots.
    /// The arena grows itself if a later run asks for more.
    pub fn with_shards(max_shards: usize) -> Self {
        ExecArena {
            shared: Self::make_shared(max_shards),
            out: SupportIndex::default(),
            order: Vec::new(),
            translate: Vec::new(),
            local_stats: EngineStats::default(),
        }
    }

    fn make_shared(max_shards: usize) -> Arc<ApplyShared> {
        Arc::new(ApplyShared {
            input: RwLock::new(SupportIndex::default()),
            slots: (0..max_shards.max(1))
                .map(|_| {
                    Mutex::new(ShardSlot {
                        sink: RecordSink::new(0),
                        stats: EngineStats::default(),
                    })
                })
                .collect(),
            progress: Mutex::new(Progress::default()),
            done_cv: Condvar::new(),
        })
    }

    /// Grows the slot count to at least `shards` (discards warmed buffers;
    /// only happens when a run asks for more parallelism than any before).
    fn ensure_shards(&mut self, shards: usize) {
        if self.shared.slots.len() < shards {
            self.shared = Self::make_shared(shards);
        }
    }

    /// Re-canonicalizes the previous iteration's output into the staged
    /// input (the allocation-free equivalent of `SupportIndex::sort`).
    fn promote(&mut self) {
        let mut staged = self.shared.input.write().unwrap_or_else(PoisonError::into_inner);
        self.out.sorted_copy_into(&mut staged, &mut self.order);
    }

    /// The most recent run's output index.
    pub fn out(&self) -> &SupportIndex {
        &self.out
    }

    /// Engine stats accumulated by the most recent chain run.
    pub fn local_stats(&self) -> &EngineStats {
        &self.local_stats
    }

    /// Approximate heap footprint of every retained buffer, in bytes (the
    /// `engine.arena_bytes` telemetry gauge).
    pub fn heap_bytes(&self) -> usize {
        let word = std::mem::size_of::<u64>();
        let mut bytes =
            self.shared.input.read().unwrap_or_else(PoisonError::into_inner).heap_bytes()
                + self.out.heap_bytes()
                + (self.order.capacity() + self.translate.capacity()) * std::mem::size_of::<u32>()
                + self.local_stats.kept_per_level.capacity() * word;
        for slot in &self.shared.slots {
            let slot = lock(slot);
            bytes += slot.sink.heap_bytes() + slot.stats.kept_per_level.capacity() * word;
        }
        bytes
    }

    /// Runs a full plan chain over `input`, leaving the result in
    /// [`ExecArena::out`] and the accumulated stats in
    /// [`ExecArena::local_stats`].
    ///
    /// `input` must be in canonical sorted order (the contract shared with
    /// [`crate::execute`]); between iterations the arena re-canonicalizes
    /// in place. Iterations with `threads > 1` and at least two input
    /// entries run on the shard pool; the serial replay merge keeps every
    /// output bit and stats counter identical to the sequential walk.
    pub fn run_chain(
        &mut self,
        plans: &[Arc<IterationPlan>],
        input: &SupportIndex,
        threads: usize,
    ) {
        self.local_stats.reset();
        if plans.is_empty() {
            self.out.copy_from(input);
            return;
        }
        self.ensure_shards(threads.max(1));
        self.shared.input.write().unwrap_or_else(PoisonError::into_inner).copy_from(input);
        for (i, plan) in plans.iter().enumerate() {
            if i > 0 {
                self.promote();
            }
            let n = self.shared.input.read().unwrap_or_else(PoisonError::into_inner).len();
            if threads <= 1 || n < 2 {
                self.run_sequential(plan);
            } else {
                self.run_pooled(plan, threads.min(n));
            }
            self.local_stats.peak_output_support =
                self.local_stats.peak_output_support.max(self.out.len());
        }
    }

    /// One iteration on the caller's thread, accumulating directly into the
    /// output index.
    fn run_sequential(&mut self, plan: &IterationPlan) {
        let input = self.shared.input.read().unwrap_or_else(PoisonError::into_inner);
        self.out.reset(input.width());
        let mut sink = DirectSink { out: &mut self.out };
        run_range(plan, &input, 0, input.len(), &mut self.local_stats, &mut sink);
    }

    /// One iteration on the shard pool: submit one job per shard, wait for
    /// all completions (re-raising a worker panic if one occurred), then
    /// replay the recorded emission streams serially in shard order.
    fn run_pooled(&mut self, plan: &Arc<IterationPlan>, shards: usize) {
        debug_assert!(shards >= 1 && shards <= self.shared.slots.len());
        let queue = pool();
        let n = self.shared.input.read().unwrap_or_else(PoisonError::into_inner).len();
        let chunk = n.div_ceil(shards);
        for s in 0..shards {
            queue.push(ShardJob {
                shared: Arc::clone(&self.shared),
                plan: Arc::clone(plan),
                shard: s,
                lo: s * chunk,
                hi: ((s + 1) * chunk).min(n),
            });
        }
        // Wait for *all* shards — even after a panic — so no job is still
        // running against state a later iteration would restage.
        {
            let mut progress = lock(&self.shared.progress);
            while progress.done < shards {
                progress =
                    self.shared.done_cv.wait(progress).unwrap_or_else(PoisonError::into_inner);
            }
            progress.done = 0;
            if let Some(payload) = progress.panic.take() {
                drop(progress);
                resume_unwind(payload);
            }
        }
        qufem_telemetry::counter_add("engine.shards", shards as u64);
        let width = self.shared.input.read().unwrap_or_else(PoisonError::into_inner).width();
        self.out.reset(width);
        for s in 0..shards {
            let slot = lock(&self.shared.slots[s]);
            self.local_stats.merge(&slot.stats);
            self.translate.clear();
            self.translate.reserve(slot.sink.keys.len());
            for id in 0..slot.sink.keys.len() as u32 {
                self.translate.push(self.out.intern(slot.sink.keys.key_words(id)));
            }
            for &(local_id, value) in &slot.sink.emissions {
                self.out.accumulate_id(self.translate[local_id as usize], value);
            }
        }
    }
}

/// A checkout pool of warmed [`ExecArena`]s, shared (via `Arc`) by every
/// clone of a `PreparedCalibration` so concurrent `apply` calls each get
/// their own arena while sequential calls keep reusing the same warm one.
#[derive(Debug, Default)]
pub(crate) struct ArenaPool {
    arenas: Mutex<Vec<ExecArena>>,
}

impl ArenaPool {
    /// Takes a warmed arena (or creates one sized for `shards`).
    pub(crate) fn checkout(&self, shards: usize) -> ExecArena {
        let arena = lock(&self.arenas).pop();
        let mut arena = arena.unwrap_or_else(|| ExecArena::with_shards(shards));
        arena.ensure_shards(shards.max(1));
        arena
    }

    /// Returns an arena for reuse, publishing its retained footprint as the
    /// `engine.arena_bytes` gauge while the collector is on (measuring it
    /// takes every slot lock, so the disabled path skips it). Arenas beyond
    /// one per configured thread are dropped rather than hoarded.
    pub(crate) fn put_back(&self, arena: ExecArena) {
        if qufem_telemetry::enabled() {
            qufem_telemetry::gauge_max("engine.arena_bytes", arena.heap_bytes() as f64);
        }
        let mut arenas = lock(&self.arenas);
        if arenas.len() < configured_threads().max(1) {
            arenas.push(arena);
        }
    }
}
