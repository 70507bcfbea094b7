//! Both characterization entry points record their time under one
//! `characterize` telemetry span — the span `exp_all` sums into each
//! summary row's `characterize_secs` — and never under two nested ones,
//! which the sum would count twice.
//!
//! One test function: the telemetry collector is process-wide.

use qufem_core::{benchgen, QuFem, QuFemConfig};
use qufem_device::presets;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn each_characterization_records_one_characterize_span() {
    let device = presets::ibmq_7(1);
    let config =
        QuFemConfig::builder().characterization_threshold(5e-4).shots(400).seed(3).build().unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let (snapshot, _) = benchgen::generate_with_threads(&device, &config, &mut rng, 2).unwrap();

    qufem_telemetry::reset();
    qufem_telemetry::enable();
    QuFem::from_snapshot_with_threads(snapshot, config.clone(), 2).unwrap();
    let from_snapshot = qufem_telemetry::snapshot();
    qufem_telemetry::reset();
    QuFem::characterize_with_threads(&device, config.clone(), 2).unwrap();
    let characterize = qufem_telemetry::snapshot();
    qufem_telemetry::disable();

    for (entry, snap) in [("from_snapshot", from_snapshot), ("characterize", characterize)] {
        assert_eq!(snap.span_count("characterize"), 1, "{entry}");
        assert_eq!(snap.span_count("iteration"), config.iterations as u64, "{entry}");
        let (total, iterations) =
            (snap.span_total_secs("characterize"), snap.span_total_secs("iteration"));
        assert!(total > 0.0 && total >= iterations, "{entry}: {total} s over {iterations} s");
    }
}
