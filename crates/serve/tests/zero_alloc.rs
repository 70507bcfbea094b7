//! Pins the "observability adds no per-request heap allocations" contract:
//! with the method key already interned, a steady-state `begin` → fill
//! record → `finish` cycle must not allocate — the histograms fold in place
//! and the flight-recorder ring reuses its preallocated slots — whether the
//! global telemetry collector is off or on (serve metrics reach the
//! collector once, at `Server::join`, never per request).
//!
//! The counting allocator lives in `qufem-testsupport` (the library crates
//! forbid unsafe code, a `#[global_allocator]` needs it); this test uses the
//! **per-thread** counter because the request path runs entirely on the
//! calling thread, which keeps concurrent test-harness allocations from
//! polluting the measured window.

use qufem_serve::{CacheOutcome, RequestCmd, RequestOutcome, RequestRecord, ServeMetrics};
use qufem_testsupport::{counting_allocator_installed, thread_allocations, CountingAlloc};
use std::sync::{Arc, Mutex, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn steady_state_request(metrics: &ServeMetrics, key: &Arc<str>, device: &Arc<str>, i: u64) {
    let mut rec = RequestRecord::new(metrics.begin());
    rec.cmd = RequestCmd::Calibrate;
    rec.method = Some(Arc::clone(key));
    rec.device = Some(Arc::clone(device));
    rec.version = 1 + (i % 3);
    rec.measured = 7;
    rec.cache = CacheOutcome::Hit;
    rec.queue_us = 3;
    rec.prepare_us = 12;
    rec.apply_us = 200 + (i % 97);
    rec.serialize_us = 40;
    rec.total_us = 300 + (i % 113);
    rec.request_bytes = 512;
    rec.response_bytes = 2048;
    rec.outcome = RequestOutcome::Ok;
    metrics.finish(rec);
}

/// The collector switch is process-global: the two legs must not overlap.
static COLLECTOR: Mutex<()> = Mutex::new(());

fn assert_steady_state_does_not_allocate() {
    assert!(counting_allocator_installed(), "counting allocator is live");
    let metrics = ServeMetrics::new(64, Some(1_000_000_000), false);
    // First sight of a method or device interns its key (one-time
    // allocations); the per-request path below reuses the interned
    // `Arc<str>`s — device attribution included.
    let key = metrics.method_key("qufem");
    let device = metrics.device_key("ibmq-7");
    // Warm the ring so the measured iterations only overwrite full slots.
    for i in 0..128u64 {
        steady_state_request(&metrics, &key, &device, i);
    }

    let before = thread_allocations();
    for i in 0..10_000u64 {
        steady_state_request(&metrics, &key, &device, i);
    }
    let after = thread_allocations();
    assert_eq!(after - before, 0, "request accounting must not touch the heap");

    // The loop really went through the full path.
    assert_eq!(metrics.requests(), 10_128);
    assert_eq!(metrics.request_histogram().count, 10_128);
    let methods = metrics.method_stats();
    assert_eq!(methods.len(), 1);
    assert_eq!(methods[0].1, 10_128);
    assert_eq!(metrics.device_stats(), vec![("ibmq-7".to_string(), 10_128)]);
    assert_eq!(metrics.flight_stats(), (64, 64));
}

#[test]
fn steady_state_request_accounting_does_not_allocate() {
    let _guard = COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner);
    qufem_telemetry::disable();
    assert_steady_state_does_not_allocate();
}

#[test]
fn steady_state_request_accounting_does_not_allocate_with_the_collector_on() {
    let _guard = COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner);
    qufem_telemetry::enable();
    assert_steady_state_does_not_allocate();
    qufem_telemetry::disable();
}
