//! Pins what the JSON codec holds in memory while it streams a calibration
//! export, the payload of a serve `admit`.
//!
//! Writing appends to the output text and nothing else, so the heap it
//! holds peaks at the output buffer's capacity: at most twice the text.
//! Reading builds the typed value straight from the text, so the heap it
//! holds above the input peaks at a small multiple of the value's own size
//! (its growing buffers), not at a copy of the document.
//!
//! Everything lives in ONE test function: the live-byte counter is
//! process-wide, and a single `#[test]` keeps the measured windows
//! exclusive.

use qufem_core::{IterationData, QuFemConfig, QuFemData, RecordData};
use qufem_device::BenchmarkCircuit;
use qufem_testsupport::{
    counting_allocator_installed, live_bytes, peak_bytes, reset_peak_bytes, CountingAlloc,
};
use qufem_types::{BitString, ProbDist, QubitSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const QUBITS: usize = 27;

/// A 27-qubit export shaped like a characterization's: two iterations of
/// benchmark records, each with a few thousand measured outcomes.
fn export() -> QuFemData {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let iterations = (0..2)
        .map(|_| IterationData {
            grouping: (0..QUBITS).step_by(3).map(|q| QubitSet::from_iter(q..q + 3)).collect(),
            records: (0..24)
                .map(|_| {
                    let prepared =
                        BitString::from_index(rng.gen_range(0..1usize << QUBITS), QUBITS).unwrap();
                    let mut dist = ProbDist::new(QUBITS);
                    for _ in 0..2000 {
                        let outcome =
                            BitString::from_index(rng.gen_range(0..1usize << QUBITS), QUBITS)
                                .unwrap();
                        dist.add(outcome, rng.gen::<f64>() * 1e-3);
                    }
                    RecordData { circuit: BenchmarkCircuit::all_prepared(&prepared), dist }
                })
                .collect(),
        })
        .collect();
    QuFemData {
        config: QuFemConfig::default(),
        n_qubits: QUBITS,
        iterations,
        benchgen_report: None,
        lineage: None,
    }
}

#[test]
fn streaming_an_export_holds_its_text_and_its_value_not_a_document() {
    qufem_telemetry::disable();
    assert!(counting_allocator_installed(), "counting allocator is live");
    let data = export();

    let base = reset_peak_bytes();
    let json = serde_json::to_string(&data).unwrap();
    let writing = peak_bytes() - base;
    assert!(json.len() >= 4 << 20, "export is {} bytes", json.len());
    assert!(writing <= 2 * json.len(), "writing {} bytes of JSON held {writing} bytes", json.len());
    drop(data);

    let base = reset_peak_bytes();
    let back: QuFemData = serde_json::from_str(&json).unwrap();
    let typed = live_bytes() - base;
    let reading = peak_bytes() - base;
    assert!(
        reading <= 3 * typed,
        "reading {} bytes of JSON into a {typed}-byte value held {reading} bytes",
        json.len()
    );

    assert_eq!(serde_json::to_string(&back).unwrap(), json, "the export round-trips");
}
