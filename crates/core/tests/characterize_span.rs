//! Both characterization entry points record their time under one
//! `characterize` telemetry span — the span `exp_all` sums into each
//! summary row's `characterize_secs` — and never under two nested ones,
//! which the sum would count twice.
//!
//! Inside it, each `iteration` holds exactly one `partition`, one
//! `matrix-gen` and one `engine` span: wall-clock stages on the
//! characterizing thread that lie within their iteration and sum to no
//! more than it, however many workers the stages fan out to.
//!
//! One test function: the telemetry collector is process-wide.

use qufem_core::{benchgen, QuFem, QuFemConfig};
use qufem_device::presets;
use qufem_telemetry::{Snapshot, SpanRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The stages of one characterization round.
const STAGES: [&str; 3] = ["partition", "matrix-gen", "engine"];

/// Span times are truncated to whole microseconds at both ends, so a child
/// that ends with its parent can read up to 1 µs past it.
const ROUNDING_US: u64 = 1;

fn end_us(span: &SpanRecord) -> u64 {
    span.start_us + span.dur_us
}

/// Checks every `iteration` of `snap` against its stage children.
fn check_stages(context: &str, snap: &Snapshot, iterations: usize) {
    let rounds: Vec<&SpanRecord> = snap.spans.iter().filter(|s| s.name == "iteration").collect();
    assert_eq!(rounds.len(), iterations, "{context}: iteration spans");
    for round in rounds {
        let round_ctx = format!("{context}, iteration {:?}", round.label);
        let mut stage_us = 0;
        for stage in STAGES {
            let children: Vec<&SpanRecord> = snap
                .spans
                .iter()
                .filter(|s| s.name == stage && s.parent == Some(round.id))
                .collect();
            assert_eq!(children.len(), 1, "{round_ctx}: {stage} children");
            let child = children[0];
            assert!(
                child.start_us >= round.start_us && end_us(child) <= end_us(round) + ROUNDING_US,
                "{round_ctx}: {stage} [{}, {}] µs outside the iteration [{}, {}] µs",
                child.start_us,
                end_us(child),
                round.start_us,
                end_us(round)
            );
            stage_us += child.dur_us;
        }
        assert!(
            stage_us <= round.dur_us,
            "{round_ctx}: stages sum to {stage_us} µs, past the iteration's {} µs",
            round.dur_us
        );
    }
}

#[test]
fn each_characterization_records_one_characterize_span_with_nested_stages() {
    let device = presets::ibmq_7(1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(400).seed(3).build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let (snapshot, _) = benchgen::generate_with_threads(&device, &config, &mut rng, 2).unwrap();

    for threads in [1, 8] {
        qufem_telemetry::reset();
        qufem_telemetry::enable();
        QuFem::from_snapshot_with_threads(snapshot.clone(), config.clone(), threads).unwrap();
        let from_snapshot = qufem_telemetry::snapshot();
        qufem_telemetry::reset();
        QuFem::characterize_with_threads(&device, config.clone(), threads).unwrap();
        let characterize = qufem_telemetry::snapshot();
        qufem_telemetry::disable();

        for (entry, snap) in [("from_snapshot", from_snapshot), ("characterize", characterize)] {
            let context = format!("{entry} at {threads} threads");
            assert_eq!(snap.span_count("characterize"), 1, "{context}");
            let (total, iterations) =
                (snap.span_total_secs("characterize"), snap.span_total_secs("iteration"));
            assert!(total > 0.0 && total >= iterations, "{context}: {total} s over {iterations} s");
            check_stages(&context, &snap, config.iterations);
        }
    }
}
