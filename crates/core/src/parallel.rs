//! Deterministic fan-out helpers shared by the engine, the flows, and the
//! benchmark generator.
//!
//! Every parallel path in this codebase holds the same invariant:
//! **bit-identical output at any thread count**. The pattern behind the
//! helpers here is *record-and-replay*: the work list is cut into
//! contiguous chunks, each scoped worker computes its chunk's results
//! independently, and a serial merge consumes them in submission order. As
//! long as each item's result is a pure function of the item (no shared
//! mutable state, no worker-local RNG draws that depend on scheduling),
//! concatenating the chunks in chunk order reproduces the sequential result
//! stream exactly. The engine's shard pool behind
//! [`crate::ExecArena::run_chain`], the one way an Eq. 7 iteration runs,
//! holds the invariant without a serial merge: shards record raw emission
//! streams, and partitions of key buckets fold them in parallel, each key
//! in global emission order ([`crate::engine`] "Record → bucket →
//! sort-fold").
//!
//! [`map_in_order`] and [`try_map_in_order`] package that pattern for the
//! characterization pipeline: per-record Eq. 7 self-calibration (mapped
//! over contiguous chunks of records, each chunk running one-thread
//! `run_chain`s on its own arena), per-group matrix generation,
//! per-iteration plan building, and per-circuit device sampling all reduce
//! to "map a pure function over a slice, keep input order".

/// The pipeline's thread count: `QUFEM_THREADS` when set (values below 1 or
/// unparsable fall back to 1), otherwise the machine's available
/// parallelism. Resolved once per process and memoized — the environment
/// lookup and `available_parallelism` probe both allocate, and this is
/// called on the zero-allocation apply hot path.
pub fn configured_threads() -> usize {
    static CONFIGURED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CONFIGURED.get_or_init(|| match std::env::var("QUFEM_THREADS") {
        Ok(v) => v.trim().parse::<usize>().ok().filter(|&t| t >= 1).unwrap_or(1),
        Err(_) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    })
}

/// Splits `threads` over an outer fan-out of `outer_items` work items,
/// returning `(outer, inner)` thread counts whose product stays within
/// `threads`: `outer` workers run concurrently and each may fan out over
/// `inner` more. Keeps nested parallelism (iterations × groups, measured
/// sets × groups) from oversubscribing the pool.
pub fn split_threads(threads: usize, outer_items: usize) -> (usize, usize) {
    let threads = threads.max(1);
    let outer = threads.min(outer_items.max(1));
    (outer, (threads / outer).max(1))
}

/// Applies `f` to every item of `items` across up to `threads` scoped
/// workers and returns the results **in input order**.
///
/// `f` receives `(index, &item)` and must be a pure function of them — it
/// runs on an unspecified worker at an unspecified time. With `threads <= 1`
/// (or fewer than two items) the map runs inline on the caller's thread;
/// the result is identical either way.
pub fn map_in_order<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let Ok(out) =
        try_map_in_order(items, threads, |i, item| Ok::<R, std::convert::Infallible>(f(i, item)));
    out
}

/// [`map_in_order`] for fallible `f`: returns the results in input order, or
/// the error of the lowest-indexed failing item.
///
/// Each worker stops its own chunk at the chunk's first error; because the
/// chunks partition the input contiguously and are merged in chunk order,
/// the error that surfaces is exactly the one the sequential loop would
/// have returned first.
pub fn try_map_in_order<T, R, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let n = items.len();
    if threads <= 1 || n < 2 {
        return map_chunk(items, 0, &f);
    }
    let workers = threads.min(n);
    let chunk = n.div_ceil(workers);
    let chunks: Vec<Result<Vec<R>, E>> = crossbeam::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = (w * chunk).min(n);
                let hi = ((w + 1) * chunk).min(n);
                scope.spawn(move |_| map_chunk(&items[lo..hi], lo, f))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("parallel worker panicked")).collect()
    })
    .expect("parallel scope never panics");
    let mut out = Vec::with_capacity(n);
    for c in chunks {
        out.extend(c?);
    }
    Ok(out)
}

/// Maps `f` over one contiguous chunk whose first item has global index
/// `lo`, stopping at the first error. The result is allocated at its final
/// size up front (a `Result` collect cannot size it and would regrow it).
fn map_chunk<T, R, E>(
    items: &[T],
    lo: usize,
    f: &impl Fn(usize, &T) -> Result<R, E>,
) -> Result<Vec<R>, E> {
    let mut out = Vec::with_capacity(items.len());
    for (k, item) in items.iter().enumerate() {
        out.push(f(lo + k, item)?);
    }
    Ok(out)
}

/// A bounded multi-producer/multi-consumer job queue for long-lived worker
/// threads (the persistent shard pool in [`crate::arena`]).
///
/// Plain `Mutex<VecDeque>` + two condvars — the vendored `crossbeam` shim
/// carries no channels and the workspace forbids unsafe code, so a lock-free
/// ring is off the table; at shard-pool job granularity (one job per shard
/// per iteration) the lock is nowhere near contention. Neither `push` nor
/// `pop` allocates once the deque has reached its working capacity, and
/// poisoned locks are recovered rather than propagated so a panicking job
/// can never wedge the queue.
#[derive(Debug)]
pub(crate) struct WorkQueue<J> {
    jobs: std::sync::Mutex<std::collections::VecDeque<J>>,
    not_empty: std::sync::Condvar,
    not_full: std::sync::Condvar,
    capacity: usize,
}

impl<J> WorkQueue<J> {
    /// Creates a queue holding at most `capacity` pending jobs.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        WorkQueue {
            jobs: std::sync::Mutex::new(std::collections::VecDeque::with_capacity(capacity)),
            not_empty: std::sync::Condvar::new(),
            not_full: std::sync::Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `job`, blocking while the queue is at capacity.
    pub(crate) fn push(&self, job: J) {
        let mut jobs = self.jobs.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while jobs.len() >= self.capacity {
            jobs = self.not_full.wait(jobs).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        jobs.push_back(job);
        drop(jobs);
        self.not_empty.notify_one();
    }

    /// Dequeues the oldest job, blocking while the queue is empty.
    pub(crate) fn pop(&self) -> J {
        let mut jobs = self.jobs.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(job) = jobs.pop_front() {
                drop(jobs);
                self.not_full.notify_one();
                return job;
            }
            jobs = self.not_empty.wait(jobs).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_queue_is_fifo_across_threads() {
        let queue = std::sync::Arc::new(WorkQueue::with_capacity(4));
        let producer = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || {
                for i in 0..100u32 {
                    queue.push(i);
                }
            })
        };
        let got: Vec<u32> = (0..100).map(|_| queue.pop()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn map_preserves_input_order_at_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [0, 1, 2, 7, 16, 200] {
            assert_eq!(map_in_order(&items, threads, |_, &x| x * 3 + 1), expected);
        }
    }

    #[test]
    fn map_passes_global_indices() {
        let items = vec!["a"; 23];
        for threads in [1, 4] {
            let got = map_in_order(&items, threads, |i, _| i);
            assert_eq!(got, (0..23).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_in_order(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(map_in_order(&[5u8], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let items: Vec<usize> = (0..50).collect();
        for threads in [1, 3, 16] {
            let got: Result<Vec<usize>, usize> =
                try_map_in_order(&items, threads, |i, &x| if x % 9 == 4 { Err(i) } else { Ok(x) });
            // Items 4, 13, 22, … fail; the sequential loop stops at 4.
            assert_eq!(got.unwrap_err(), 4, "at {threads} threads");
        }
    }

    #[test]
    fn try_map_collects_all_on_success() {
        let items: Vec<usize> = (0..31).collect();
        for threads in [1, 5] {
            let got: Result<Vec<usize>, ()> = try_map_in_order(&items, threads, |_, &x| Ok(x * x));
            assert_eq!(got.unwrap(), items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn split_threads_bounds_the_product() {
        assert_eq!(split_threads(8, 2), (2, 4));
        assert_eq!(split_threads(8, 100), (8, 1));
        assert_eq!(split_threads(1, 5), (1, 1));
        assert_eq!(split_threads(7, 3), (3, 2));
        assert_eq!(split_threads(0, 0), (1, 1));
        for threads in 1..20 {
            for items in 0..20 {
                let (outer, inner) = split_threads(threads, items);
                assert!(outer * inner <= threads.max(1));
                assert!(outer >= 1 && inner >= 1);
            }
        }
    }

    #[test]
    fn configured_threads_is_at_least_one() {
        assert!(configured_threads() >= 1);
    }
}
