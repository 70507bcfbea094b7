//! Reusable execution state for the engine: [`ExecArena::run_chain`] is the
//! one way an Eq. 7 iteration runs, for apply and characterization alike.
//!
//! [`ExecArena`] owns every buffer one calibration apply needs — per-shard
//! emission streams, per-partition fold runs and the output index — so a
//! warmed arena runs an entire plan chain without touching the heap
//! (`crates/core/tests/apply_zero_alloc.rs` pins this with a counting
//! global allocator).
//!
//! One iteration is **record → bucket → sort-fold**. The sorted input is
//! cut into contiguous shards; each shard records its raw emission stream
//! (key words and values, no hashing) and files it into fold buckets by the
//! leading key bits with a stable counting sort. The bucket range is then
//! cut into partitions balanced by emission count; each partition folds
//! every key of its buckets from `+0.0` in global emission order and writes
//! the keys in ascending order. The partitions' runs, in order, are the
//! iteration's output in canonical key order — and the next iteration's
//! input as they stand, with no re-sort and no copy; the last iteration's
//! runs are concatenated into the output index, whose ids are sorted ranks.
//! Because each key's fold order is global emission order whatever the
//! shard and partition cuts, output bits and [`EngineStats`] are identical
//! at any `QUFEM_THREADS` *and* any pool size.
//!
//! The module also hosts the **persistent shard pool** behind
//! [`ExecArena::run_chain`]: `configured_threads()` long-lived workers drain
//! a process-wide bounded `WorkQueue`. An iteration goes to the pool only
//! when every shard gets at least [`POOL_FLOOR`] input strings; smaller
//! ones run the same record and fold job bodies inline on the caller's
//! thread, as one shard and one partition. A pooled job carries an `Arc` of
//! the arena's shared state and either records one shard or folds one
//! partition, then signals a condvar. Worker panics are caught, reported to
//! the waiting caller, and re-raised there; the workers themselves live on.

use crate::engine::{record, EngineStats, FoldRun, IterationPlan, RecordSink};
use crate::parallel::{configured_threads, WorkQueue};
use qufem_types::{BitString, SupportIndex};
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};

/// Fewest input strings each shard of a pooled iteration gets. Below
/// `2 · POOL_FLOOR` strings an iteration records and folds inline: a pool
/// round trip (queue, wake, condvar) costs more than the few microseconds of
/// walk it would split, so every 7-qubit request (at most 128 strings) of
/// serve-binary-27q runs inline. On a 2-vCPU x86-64 VM at 2 threads,
/// offline-27q (seed 1, 4 alternating pairs) ran 24.2 calibrations/s with
/// this floor against 21.9/s with a floor of 256, which left its 397- and
/// 473-string inputs (BV, GHZ) on one thread.
pub const POOL_FLOOR: usize = 128;

/// Locks a mutex, recovering from poisoning: every structure in this module
/// is left consistent on unwind (slots are fully rewritten per job), so a
/// panicked job must not wedge later iterations.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// One shard's recording: its bucketed emission stream and the engine
/// stats of the input range it covered.
#[derive(Debug, Default)]
struct ShardSlot {
    sink: RecordSink,
    stats: EngineStats,
}

impl std::borrow::Borrow<RecordSink> for ShardSlot {
    fn borrow(&self) -> &RecordSink {
        &self.sink
    }
}

/// Completion tracking for the in-flight phase: count of finished jobs,
/// plus the payload of the first worker panic (if any), which the waiting
/// caller re-raises via `resume_unwind`.
#[derive(Default)]
struct Progress {
    done: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// The arena state pool workers share with the arena's owner.
///
/// `runs` holds the chain's working distribution as consecutive runs in
/// canonical key order: the staged input as run 0 before the first
/// iteration, afterwards the fold runs of the previous iteration, which are
/// the next iteration's input as they stand. Record jobs read the runs
/// through one shared lock; once every shard has recorded, fold jobs
/// overwrite them with the iteration's output. Each job takes its own slot
/// (shard or run) out of its vector for the duration of the job, so jobs
/// run fully in parallel.
struct ApplyShared {
    shards: RwLock<Vec<ShardSlot>>,
    runs: RwLock<Vec<FoldRun>>,
    progress: Mutex<Progress>,
    done_cv: Condvar,
}

/// What one job does, on the pool or inline.
enum Task {
    /// Record entries `lo..hi` of the first `runs` runs, concatenated, as
    /// `width`-bit keys under `plan`.
    Record { plan: Arc<IterationPlan>, width: usize, runs: usize, lo: usize, hi: usize },
    /// Fold `buckets` of the first `shards` recorded shards.
    Fold { shards: usize, buckets: Range<usize> },
}

/// One unit of pool work on slot `slot` (a shard slot for
/// [`Task::Record`], a run slot for [`Task::Fold`]) of `shared`.
struct PoolJob {
    shared: Arc<ApplyShared>,
    slot: usize,
    task: Task,
}

/// Pending jobs the pool can hold; submissions beyond this block the
/// producer (callers submit at most `threads` jobs per phase, so the bound
/// only matters under extreme caller fan-out).
const POOL_QUEUE_CAPACITY: usize = 1024;

static POOL: OnceLock<Arc<WorkQueue<PoolJob>>> = OnceLock::new();

/// The process-wide shard pool queue, spawning `configured_threads()`
/// workers on first use. Worker count does not affect results (each job
/// writes only its own slot, and the fold order is fixed by the emission
/// order), only how many jobs run concurrently.
fn pool() -> &'static Arc<WorkQueue<PoolJob>> {
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

/// Entries `lo..hi` of `runs` concatenated, as per-run `(flat key words,
/// values)` slices of `wpk`-word keys.
fn entries(
    runs: &[FoldRun],
    wpk: usize,
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = (&[u64], &[f64])> {
    let mut start = 0;
    runs.iter().filter_map(move |run| {
        let (a, b) = (start, start + run.values.len());
        start = b;
        let (lo, hi) = (lo.max(a) - a, hi.min(b).max(a) - a);
        (lo < hi).then(|| (&run.keys[lo * wpk..hi * wpk], &run.values[lo..hi]))
    })
}

/// Runs `task` on slot `slot` of `shared`. Pool workers and the caller's
/// thread (for an inline iteration) run the same job bodies.
fn run_task(shared: &ApplyShared, slot: usize, task: &Task) {
    match task {
        Task::Record { plan, width, runs, lo, hi } => {
            let input = read(&shared.runs);
            let mut shard = std::mem::take(&mut write(&shared.shards)[slot]);
            shard.stats.reset();
            let wpk = BitString::words_for_width(*width);
            let input = entries(&input[..*runs], wpk, *lo, *hi);
            record(plan, *width, input, &mut shard.stats, &mut shard.sink);
            write(&shared.shards)[slot] = shard;
        }
        Task::Fold { shards, buckets } => {
            let recorded = read(&shared.shards);
            let mut run = std::mem::take(&mut write(&shared.runs)[slot]);
            run.fold(&recorded[..*shards], buckets.clone());
            write(&shared.runs)[slot] = run;
        }
    }
}

/// Runs one job inside `catch_unwind` so a panicking chain walk (e.g. a
/// width-mismatched input) reaches the waiting caller as a panic — exactly
/// like the inline path — while the worker thread survives.
fn run_job(job: PoolJob) {
    let shared = &job.shared;
    let result = catch_unwind(AssertUnwindSafe(|| run_task(shared, job.slot, &job.task)));
    let mut progress = lock(&shared.progress);
    progress.done += 1;
    if let Err(payload) = result {
        if progress.panic.is_none() {
            progress.panic = Some(payload);
        }
    }
    drop(progress);
    shared.done_cv.notify_all();
}

/// Reusable execution state for a calibration plan chain.
///
/// Create one per long-lived apply context (`PreparedCalibration` keeps a
/// checkout pool of them), run chains through it, and every buffer — shard
/// streams, fold runs, output — is reused call over call. After a warm-up
/// call with a representative input, subsequent runs perform **zero heap
/// allocations** until some buffer outgrows its high-water mark.
pub struct ExecArena {
    shared: Arc<ApplyShared>,
    /// The output of the most recent run, in canonical key order.
    out: SupportIndex,
    /// Per-bucket emission counts summed over a pooled iteration's shards:
    /// the input of the partition cut.
    bucket_totals: Vec<usize>,
    /// Stats accumulated across the chain run (all iterations).
    local_stats: EngineStats,
    /// Shards of the most recent run's widest iteration.
    last_shards: usize,
}

impl std::fmt::Debug for ExecArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecArena")
            .field("out_support", &self.out.len())
            .field("last_shards", &self.last_shards)
            .finish_non_exhaustive()
    }
}

impl ExecArena {
    /// Creates an arena with room for `max_shards` concurrent shards (and as
    /// many fold partitions). The arena grows itself if a later run asks for
    /// more.
    pub fn with_shards(max_shards: usize) -> Self {
        ExecArena {
            shared: Self::make_shared(max_shards),
            out: SupportIndex::default(),
            bucket_totals: Vec::new(),
            local_stats: EngineStats::default(),
            last_shards: 1,
        }
    }

    fn make_shared(max_shards: usize) -> Arc<ApplyShared> {
        let slots = max_shards.max(1);
        Arc::new(ApplyShared {
            shards: RwLock::new((0..slots).map(|_| ShardSlot::default()).collect()),
            runs: RwLock::new((0..slots).map(|_| FoldRun::default()).collect()),
            progress: Mutex::new(Progress::default()),
            done_cv: Condvar::new(),
        })
    }

    /// Grows the slot count to at least `shards` (discards warmed buffers;
    /// only happens when a run asks for more parallelism than any before).
    fn ensure_shards(&mut self, shards: usize) {
        if read(&self.shared.shards).len() < shards {
            self.shared = Self::make_shared(shards);
        }
    }

    /// The most recent run's output index, in canonical key order: ids are
    /// sorted ranks, exactly as [`SupportIndex::from_dist`] assigns them.
    pub fn out(&self) -> &SupportIndex {
        &self.out
    }

    /// Engine stats accumulated by the most recent chain run.
    pub fn local_stats(&self) -> &EngineStats {
        &self.local_stats
    }

    /// Number of shards the most recent run's widest iteration was recorded
    /// in: `1` when every iteration ran inline on the caller's thread, more
    /// when one went to the shard pool.
    pub fn last_shards(&self) -> usize {
        self.last_shards
    }

    /// Approximate heap footprint of every retained buffer, in bytes (the
    /// `engine.arena_bytes` telemetry gauge).
    pub fn heap_bytes(&self) -> usize {
        let word = std::mem::size_of::<u64>();
        let mut bytes = self.out.heap_bytes()
            + self.bucket_totals.capacity() * std::mem::size_of::<usize>()
            + self.local_stats.kept_per_level.capacity() * word;
        for slot in read(&self.shared.shards).iter() {
            bytes += slot.sink.heap_bytes() + slot.stats.kept_per_level.capacity() * word;
        }
        bytes + read(&self.shared.runs).iter().map(FoldRun::heap_bytes).sum::<usize>()
    }

    /// Runs a full plan chain over `input`, leaving the result in
    /// [`ExecArena::out`] and the accumulated stats in
    /// [`ExecArena::local_stats`].
    ///
    /// `input` must be in canonical sorted order ([`SupportIndex::from_dist`]
    /// produces it): entry order fixes the float accumulation order. Every
    /// iteration's output comes out canonical and
    /// is the next iteration's input as it stands: nothing is re-sorted
    /// between iterations, and the output index is canonical too, with no
    /// probe table (its lookups bisect; the first `intern` builds one). An
    /// iteration goes to the shard pool when `threads > 1` and
    /// each of up to `threads` shards gets at least [`POOL_FLOOR`] input
    /// strings; otherwise its jobs run inline. Either way the bucketed
    /// sort-fold keeps every output bit and stats counter identical at any
    /// thread count, and to [`crate::engine::reference::apply_iteration`].
    pub fn run_chain(
        &mut self,
        plans: &[Arc<IterationPlan>],
        input: &SupportIndex,
        threads: usize,
    ) {
        self.run_chain_cut(plans, input, threads.max(1), |len| {
            let shards = threads.min(len / POOL_FLOOR);
            (shards, shards)
        });
    }

    /// [`ExecArena::run_chain`] with the per-iteration `(shards, partitions)`
    /// cut chosen by `cut` from the iteration's input length (at most
    /// `slots` of either); an iteration with both below 2 runs inline.
    fn run_chain_cut(
        &mut self,
        plans: &[Arc<IterationPlan>],
        input: &SupportIndex,
        slots: usize,
        cut: impl Fn(usize) -> (usize, usize),
    ) {
        self.local_stats.reset();
        self.last_shards = 1;
        if plans.is_empty() {
            self.out.copy_from(input);
            return;
        }
        self.ensure_shards(slots);
        let width = input.width();
        {
            let staged = &mut write(&self.shared.runs)[0];
            staged.keys.clear();
            staged.keys.extend_from_slice(input.flat_keys());
            staged.values.clear();
            staged.values.extend_from_slice(input.values());
        }
        let (mut runs, mut len) = (1, input.len());
        for plan in plans {
            let (shards, parts) = cut(len);
            (runs, len) = self.run_iteration(plan, width, runs, len, shards, parts);
            self.local_stats.peak_output_support = self.local_stats.peak_output_support.max(len);
        }
        let all = read(&self.shared.runs);
        let output = all[..runs].iter().map(|run| (&run.keys[..], &run.values[..]));
        self.out.assign_sorted(width, output);
    }

    /// One iteration over the first `runs` runs (`len` entries): record
    /// `shards` contiguous input ranges, cut the bucket range into at most
    /// `parts` partitions of about equal emission count, and fold them into
    /// consecutive runs. The jobs go to the shard pool when either count is
    /// at least 2, else they run inline on the caller's thread as one shard
    /// and one partition. Returns the output's run count and length.
    /// Re-raises a worker panic once every job of the phase has finished.
    fn run_iteration(
        &mut self,
        plan: &Arc<IterationPlan>,
        width: usize,
        runs: usize,
        len: usize,
        shards: usize,
        parts: usize,
    ) -> (usize, usize) {
        let pooled = shards.max(parts) >= 2;
        let (shards, parts) = (shards.max(1), parts.max(1));
        if pooled {
            self.last_shards = self.last_shards.max(shards);
        }
        for s in 0..shards {
            let (lo, hi) = (s * len / shards, (s + 1) * len / shards);
            self.submit(pooled, s, Task::Record { plan: Arc::clone(plan), width, runs, lo, hi });
        }
        if pooled {
            self.wait(shards);
            qufem_telemetry::counter_add("engine.shards", shards as u64);
        }

        let recorded = read(&self.shared.shards);
        let buckets = recorded[0].sink.bucket_count();
        self.bucket_totals.clear();
        self.bucket_totals.resize(buckets, 0);
        for slot in &recorded[..shards] {
            self.local_stats.merge(&slot.stats);
            for (b, total) in self.bucket_totals.iter_mut().enumerate() {
                *total += slot.sink.bucket_len(b);
            }
        }
        drop(recorded);
        let emissions: usize = self.bucket_totals.iter().sum();
        let (mut jobs, mut lo, mut folded) = (0, 0, 0);
        for p in 1..=parts {
            let (start, target) = (folded, emissions * p / parts);
            let mut hi = lo;
            // The last target is every emission: no non-empty bucket is left.
            while hi < buckets && folded < target {
                folded += self.bucket_totals[hi];
                hi += 1;
            }
            if folded > start {
                self.submit(pooled, jobs, Task::Fold { shards, buckets: lo..hi });
                jobs += 1;
            }
            lo = hi;
        }
        if pooled {
            self.wait(jobs);
        }
        let runs = read(&self.shared.runs);
        (jobs, runs[..jobs].iter().map(|run| run.values.len()).sum())
    }

    /// Runs `task` on slot `slot`: on the shard pool when `pooled`, else
    /// right away on the caller's thread.
    fn submit(&self, pooled: bool, slot: usize, task: Task) {
        if pooled {
            pool().push(PoolJob { shared: Arc::clone(&self.shared), slot, task });
        } else {
            run_task(&self.shared, slot, &task);
        }
    }

    /// Blocks until `jobs` pool jobs have finished — all of them, even after
    /// a panic, so no job still runs against state a later phase rewrites —
    /// then re-raises the first worker panic, if any.
    fn wait(&self, jobs: usize) {
        let mut progress = lock(&self.shared.progress);
        while progress.done < jobs {
            progress = self.shared.done_cv.wait(progress).unwrap_or_else(PoisonError::into_inner);
        }
        progress.done = 0;
        if let Some(payload) = progress.panic.take() {
            drop(progress);
            resume_unwind(payload);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::reference;
    use crate::noisematrix::{group_noise_matrix, GroupMatrix};
    use crate::snapshot::{BenchmarkRecord, BenchmarkSnapshot};
    use proptest::prelude::*;
    use qufem_device::BenchmarkCircuit;
    use qufem_types::{ProbDist, QubitSet};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A two-iteration chain over `n` qubits with independent random flip
    /// rates (each plan with its group matrices and β), plus a random input
    /// of up to `support` strings (bulk, sub-β dust, exact and negative
    /// zeros).
    fn workload(seed: u64, n: usize, support: usize) -> (Vec<Chained>, ProbDist) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let eps: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..0.2)).collect();
        let mut snap = BenchmarkSnapshot::new(n);
        for y in 0..1usize << n {
            let prep = BitString::from_index(y, n).unwrap();
            let mut dist = ProbDist::new(n);
            for x in 0..1usize << n {
                let out = BitString::from_index(x, n).unwrap();
                let p = (0..n)
                    .map(|k| if out.get(k) != prep.get(k) { eps[k] } else { 1.0 - eps[k] })
                    .product();
                dist.add(out, p);
            }
            snap.push(BenchmarkRecord::new(BenchmarkCircuit::all_prepared(&prep), dist));
        }
        let measured = QubitSet::full(n);
        let positions: Vec<usize> = (0..n).collect();
        let plans = [(0..n).step_by(2), (1..n).step_by(2)]
            .into_iter()
            .enumerate()
            .map(|(i, starts)| {
                let groups: Vec<_> = starts
                    .map(|q| {
                        let set: QubitSet = (q..(q + 2).min(n)).collect();
                        group_noise_matrix(&snap, &set, &measured).unwrap().unwrap()
                    })
                    .collect();
                let beta = [1e-5, 1e-3][i];
                (Arc::new(IterationPlan::build(&positions, &groups, beta)), groups, beta)
            })
            .collect();
        let mut dist = ProbDist::new(n);
        for _ in 0..support {
            let key = BitString::from_index(rng.gen_range(0..1usize << n), n).unwrap();
            let value = match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range(1e-9..1e-6),
                _ => rng.gen_range(-0.2..1.0),
            };
            dist.set(key, value);
        }
        (plans, dist)
    }

    /// One iteration of a test chain: the plan, and the group matrices and
    /// β it was built from.
    type Chained = (Arc<IterationPlan>, Vec<GroupMatrix>, f64);

    fn plans_of(chain: &[Chained]) -> Vec<Arc<IterationPlan>> {
        chain.iter().map(|(plan, _, _)| Arc::clone(plan)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Shard and partition cuts never change a bit: any cut of the
        /// input into 1–16 shards (more shards than strings included) and
        /// of the bucket range into 1–16 partitions reproduces the
        /// `engine::reference` chain, stats included.
        #[test]
        fn any_shard_and_partition_cut_is_bit_identical(
            seed in any::<u64>(),
            n in 3usize..=7,
            support in 1usize..=40,
            shards in 1usize..=16,
        ) {
            let (chain, dist) = workload(seed, n, support);
            let positions: Vec<usize> = (0..n).collect();
            let mut stats = EngineStats::default();
            let mut expected = dist.clone();
            for (_, groups, beta) in &chain {
                expected =
                    reference::apply_iteration(&expected, &positions, groups, *beta, &mut stats);
            }
            let expected = SupportIndex::from_dist(&expected);
            let (plans, input) = (plans_of(&chain), SupportIndex::from_dist(&dist));
            let mut arena = ExecArena::with_shards(1);
            for parts in 1..=16 {
                arena.run_chain_cut(&plans, &input, 16, |_| (shards, parts));
                prop_assert_eq!(arena.local_stats(), &stats);
                prop_assert_eq!(arena.out().len(), expected.len());
                for id in 0..expected.len() as u32 {
                    prop_assert_eq!(arena.out().key_words(id), expected.key_words(id));
                    prop_assert_eq!(arena.out().value(id).to_bits(), expected.value(id).to_bits());
                }
            }
        }
    }

    #[test]
    fn dispatch_respects_the_floor() {
        let (chain, small) = workload(5, 8, 2 * POOL_FLOOR - 100);
        let (plans, small) = (plans_of(&chain), SupportIndex::from_dist(&small));
        assert!(small.len() < 2 * POOL_FLOOR);
        let mut arena = ExecArena::with_shards(1);
        arena.run_chain(&plans[..1], &small, 4);
        assert_eq!(arena.last_shards(), 1, "below the floor the iteration runs inline");
        let (chain, large) = workload(6, 10, 4 * POOL_FLOOR);
        let (plans, large) = (plans_of(&chain), SupportIndex::from_dist(&large));
        let len = large.len();
        assert!(len >= 2 * POOL_FLOOR);
        arena.run_chain(&plans[..1], &large, 16);
        assert_eq!(arena.last_shards(), len / POOL_FLOOR, "every shard gets the floor");
        arena.run_chain(&plans[..1], &large, 1);
        assert_eq!(arena.last_shards(), 1);
    }
}
