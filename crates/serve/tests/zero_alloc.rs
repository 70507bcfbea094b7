//! Pins the "observability adds no per-request heap allocations" contract:
//! with the method key already interned, a steady-state calibrate's
//! accounting — the catalog entry's request count, then `begin` → fill
//! record → `finish` — must not allocate: the histograms fold in place and
//! the flight-recorder ring reuses its preallocated slots, whether the
//! global telemetry collector is off or on (serve metrics reach the
//! collector once, at `Server::join`, never per request).
//!
//! The counting allocator lives in `qufem-testsupport` (the library crates
//! forbid unsafe code, a `#[global_allocator]` needs it); this test uses the
//! **per-thread** counter because the request path runs entirely on the
//! calling thread, which keeps concurrent test-harness allocations from
//! polluting the measured window.

use qufem_core::{MethodRegistry, QuFem, QuFemConfig};
use qufem_serve::{
    CacheOutcome, Catalog, RequestCmd, RequestOutcome, RequestRecord, ServeMetrics, VersionEntry,
};
use qufem_testsupport::{counting_allocator_installed, thread_allocations, CountingAlloc};
use std::sync::{Arc, Mutex, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn steady_state_request(metrics: &ServeMetrics, key: &Arc<str>, entry: &VersionEntry, i: u64) {
    entry.count_request();
    let mut rec = RequestRecord::new(metrics.begin());
    rec.cmd = RequestCmd::Calibrate;
    rec.method = Some(Arc::clone(key));
    rec.device = Some(entry.snapshot().device_id_arc());
    rec.version = entry.version();
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
    let config = QuFemConfig::builder().shots(300).seed(1).build().unwrap();
    let qufem = QuFem::characterize(&qufem_device::presets::ibmq_7(1), config).unwrap();
    let catalog = Catalog::new(qufem, "ibmq-7", Arc::new(MethodRegistry::new()), 4);
    let entry = catalog.resolve(None, None).unwrap();
    let metrics = ServeMetrics::new(64, Some(1_000_000_000), false);
    // First sight of a method interns its key (a one-time allocation); the
    // per-request path below reuses it, and the device id is the lineage's
    // shared `Arc<str>`.
    let key = metrics.method_key("qufem");
    // Warm the ring so the measured iterations only overwrite full slots.
    for i in 0..128u64 {
        steady_state_request(&metrics, &key, &entry, i);
    }

    let before = thread_allocations();
    for i in 0..10_000u64 {
        steady_state_request(&metrics, &key, &entry, i);
    }
    let after = thread_allocations();
    assert_eq!(after - before, 0, "request accounting must not touch the heap");

    // The loop really went through the full path.
    assert_eq!(metrics.requests(), 10_128);
    assert_eq!(metrics.request_histogram().count, 10_128);
    let methods = metrics.method_stats();
    assert_eq!(methods.len(), 1);
    assert_eq!(methods[0].1.count, 10_128);
    assert_eq!(catalog.summaries()[0].requests, 10_128);
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
