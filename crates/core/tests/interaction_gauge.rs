//! The `interaction.table_entries` gauge counts the combinations a
//! snapshot observed, not the accumulator slots the table allocates.
//!
//! One test function: the telemetry collector is process-wide.

use qufem_core::{benchgen, InteractionTable};
use qufem_device::presets;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

#[test]
fn table_entries_gauge_counts_observed_combinations() {
    let device = presets::ibmq_7(2);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    // Three random circuits leave most of the 6·7² + 2·7 slots unobserved.
    let snapshot = benchgen::generate_random_budget(&device, 3, 200, &mut rng);

    let mut observed = HashSet::new();
    for record in snapshot.records() {
        let circuit = record.circuit();
        for &target in record.positions() {
            let y = circuit.op(target).ideal_bit();
            observed.insert((None, target, y));
            for source in (0..circuit.width()).filter(|&s| s != target) {
                let op = circuit.op(source);
                let x = op.is_measured().then(|| op.ideal_bit());
                observed.insert((Some((source, x)), target, y));
            }
        }
    }
    assert!(observed.len() < 6 * 49 + 2 * 7);

    qufem_telemetry::reset();
    qufem_telemetry::enable();
    InteractionTable::build(&snapshot);
    let gauge = qufem_telemetry::snapshot().gauge("interaction.table_entries");
    qufem_telemetry::disable();
    assert_eq!(gauge, Some(observed.len() as f64));
}
