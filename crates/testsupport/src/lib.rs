//! Shared test instrumentation for the workspace's allocation proofs.
//!
//! Every library crate in this workspace carries `#![forbid(unsafe_code)]`,
//! but a counting `#[global_allocator]` necessarily implements the unsafe
//! [`GlobalAlloc`] trait — so the harness lives here, in a test-support
//! crate with a single, auditable `unsafe impl`, and the integration tests
//! install it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: qufem_testsupport::CountingAlloc = qufem_testsupport::CountingAlloc;
//! ```
//!
//! Two counters are maintained on every allocation-path entry (`alloc`,
//! `alloc_zeroed`, `realloc` — `dealloc` is free and not counted):
//!
//! * [`thread_allocations`] — a per-thread count. Right for single-threaded
//!   hot paths (e.g. the serve request accounting), where it keeps
//!   concurrent test-harness allocations from polluting the measured
//!   window.
//! * [`global_allocations`] — a process-wide count. Required when the
//!   measured path fans work out to other threads (the engine's persistent
//!   shard pool): an allocation on a pool worker must fail the proof even
//!   though it happens off the measuring thread.
//!
//! Live heap bytes are tracked process-wide as well ([`live_bytes`], with a
//! resettable high-water mark in [`peak_bytes`]), for proofs that bound
//! how much memory a path holds rather than how often it allocates. A
//! `realloc` counts as its size change.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static GLOBAL_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Allocation-path entries observed on the **current thread** since it
/// started. Subtract two readings to measure a window.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Allocation-path entries observed **process-wide** since startup.
/// Subtract two readings to measure a window; with worker threads quiescent
/// between the readings, the delta attributes every allocation in the
/// window, whichever thread performed it.
pub fn global_allocations() -> u64 {
    GLOBAL_ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap bytes currently allocated, process-wide.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most heap bytes allocated at once since the last
/// [`reset_peak_bytes`] (or since startup).
pub fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the current [`live_bytes`] and returns
/// that value, the baseline of a measured window.
pub fn reset_peak_bytes() -> usize {
    let live = live_bytes();
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Whether a [`CountingAlloc`] is actually installed as the global
/// allocator in this process: performs a probe allocation and checks the
/// counters moved. Tests should assert this once so a proof cannot
/// silently pass because the harness wasn't wired up.
pub fn counting_allocator_installed() -> bool {
    let before = global_allocations();
    // `black_box` keeps release builds from eliding the paired
    // allocation/free, which would fail the probe under optimization.
    let probe = std::hint::black_box(Box::new(0xA110Cu64));
    let moved = global_allocations() > before;
    assert_eq!(*std::hint::black_box(probe), 0xA110C);
    moved
}

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

fn count_one() {
    // `try_with` so late allocations during thread teardown stay safe.
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    GLOBAL_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

/// System allocator wrapper counting every allocation-path entry into the
/// per-thread and process-wide counters, and tracking live heap bytes. Install with
/// `#[global_allocator]` in the test binary that measures.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}
