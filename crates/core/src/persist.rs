//! Persistence of calibration parameters.
//!
//! The paper stresses that "for a target quantum device, the calibration
//! parameters are static" (§3.2): qubit interactions are fixed by the
//! hardware deployment, so the output of the (expensive) characterization
//! flow can be computed once and reused until the device is retuned. This
//! module provides a serde-friendly snapshot of a [`QuFem`] instance so the
//! parameters can be written to disk and reloaded without touching the
//! quantum device again.
//!
//! ```no_run
//! # use qufem_core::{QuFem, QuFemConfig};
//! # use qufem_device::presets;
//! let device = presets::ibmq_7(1);
//! let qufem = QuFem::characterize(&device, QuFemConfig::default())?;
//!
//! // Persist (any serde format works; JSON shown).
//! let data = qufem.export();
//! let json = serde_json::to_string(&data).unwrap();
//!
//! // …later, in another process…
//! let data: qufem_core::QuFemData = serde_json::from_str(&json).unwrap();
//! let restored = QuFem::import(data)?;
//! # Ok::<(), qufem_types::Error>(())
//! ```

use crate::benchgen::BenchGenReport;
use crate::config::QuFemConfig;
use crate::flows::{IterationParams, QuFem};
use crate::snapshot::{BenchmarkRecord, BenchmarkSnapshot};
use crate::version::{SnapshotLineage, VersionedSnapshot};
use qufem_device::BenchmarkCircuit;
use qufem_types::{Error, ProbDist, QubitSet, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One benchmarking record in portable form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecordData {
    /// The executed circuit.
    pub circuit: BenchmarkCircuit,
    /// Its (possibly partially calibrated) distribution.
    pub dist: ProbDist,
}

/// One iteration's calibration parameters in portable form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationData {
    /// The grouping scheme `G_i`.
    pub grouping: Vec<QubitSet>,
    /// The benchmarking distributions `BP_i`.
    pub records: Vec<RecordData>,
}

/// Portable snapshot of a characterized [`QuFem`] instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuFemData {
    /// Configuration the characterization ran with.
    pub config: QuFemConfig,
    /// Device qubit count.
    pub n_qubits: usize,
    /// Per-iteration parameters, iteration 1 first.
    pub iterations: Vec<IterationData>,
    /// Benchmark-generation accounting, if characterized against a device.
    /// Optional on disk: exports written by replay/ablation flows omit it.
    #[serde(default)]
    pub benchgen_report: Option<BenchGenReport>,
    /// Device/version identity of this calibration. Optional on disk:
    /// parameter files written before the versioned-snapshot layer omit it
    /// and load as version 0 of the default device (see
    /// [`QuFem::import_versioned`]).
    #[serde(default)]
    pub lineage: Option<SnapshotLineage>,
}

impl QuFem {
    /// Exports the calibration parameters in a serde-serializable form.
    pub fn export(&self) -> QuFemData {
        QuFemData {
            config: self.config().clone(),
            n_qubits: self.n_qubits(),
            iterations: self
                .iterations()
                .iter()
                .map(|params| IterationData {
                    grouping: params.grouping().clone(),
                    records: params
                        .snapshot()
                        .records()
                        .iter()
                        .map(|r| RecordData {
                            circuit: r.circuit().clone(),
                            dist: r.dist().clone(),
                        })
                        .collect(),
                })
                .collect(),
            benchgen_report: self.benchgen_report().cloned(),
            lineage: None,
        }
    }

    /// [`QuFem::export`] stamped with device/version identity, so the
    /// lineage survives the persist round-trip (and the serve catalog's
    /// `admit` wire command).
    pub fn export_versioned(&self, lineage: &SnapshotLineage) -> QuFemData {
        let mut data = self.export();
        data.lineage = Some(lineage.clone());
        data
    }

    /// Reconstructs a calibrator from exported parameters, without device
    /// access or re-running the flows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for inconsistent data (validated
    /// config, empty iteration list, width mismatches).
    pub fn import(data: QuFemData) -> Result<Self> {
        data.config.validate()?;
        if data.iterations.is_empty() {
            return Err(Error::InvalidConfig("exported data has no iterations".into()));
        }
        let mut iterations = Vec::with_capacity(data.iterations.len());
        for iter_data in data.iterations {
            // Grouping indices feed positional bit extraction later (plan
            // build, effective-matrix assembly); an out-of-range index from
            // a corrupted export must fail here, not panic downstream. The
            // size bound keeps every g∩ within the matrix table's mask.
            for group in &iter_data.grouping {
                if group.len() > data.config.max_group_size {
                    return Err(Error::InvalidConfig(format!(
                        "exported group of {} qubits exceeds max_group_size {}",
                        group.len(),
                        data.config.max_group_size
                    )));
                }
                if let Some(&max) = group.as_slice().last() {
                    if max >= data.n_qubits {
                        return Err(Error::QubitOutOfRange { index: max, width: data.n_qubits });
                    }
                }
            }
            let mut snapshot = BenchmarkSnapshot::new(data.n_qubits);
            for record in iter_data.records {
                if record.circuit.width() != data.n_qubits {
                    return Err(Error::WidthMismatch {
                        expected: data.n_qubits,
                        actual: record.circuit.width(),
                    });
                }
                if record.dist.width() != record.circuit.measured_qubits().len() {
                    return Err(Error::WidthMismatch {
                        expected: record.circuit.measured_qubits().len(),
                        actual: record.dist.width(),
                    });
                }
                snapshot.push(BenchmarkRecord::new(record.circuit, record.dist));
            }
            iterations.push(IterationParams::new(
                iter_data.grouping,
                Arc::new(snapshot),
                data.config.joint_group_estimation,
            ));
        }
        Ok(QuFem::from_parts(data.config, data.n_qubits, iterations, data.benchgen_report))
    }

    /// [`QuFem::import`] plus the calibration's device/version identity:
    /// returns the restored calibrator and its first benchmarking snapshot
    /// (`BP_1`) wrapped as a [`VersionedSnapshot`].
    ///
    /// Exports carrying a lineage stamp restore it verbatim; exports written
    /// by the pre-version format (no `lineage` field) load as **version 0 of
    /// the default device**, so old parameter files keep working.
    ///
    /// # Errors
    ///
    /// As for [`QuFem::import`].
    pub fn import_versioned(data: QuFemData) -> Result<(Self, VersionedSnapshot)> {
        let lineage = data.lineage.clone().unwrap_or_default();
        let qufem = QuFem::import(data)?;
        let snapshot = qufem
            .iterations()
            .first()
            .map(|it| it.snapshot_arc())
            .unwrap_or_else(|| Arc::new(BenchmarkSnapshot::new(qufem.n_qubits())));
        Ok((qufem, VersionedSnapshot::with_lineage(&lineage, snapshot)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_device::presets;
    use qufem_types::{BitString, QubitSet};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn characterized() -> (qufem_device::Device, QuFem) {
        let device = presets::ibmq_7(1);
        let config = QuFemConfig::builder()
            .characterization_threshold(5e-4)
            .shots(400)
            .seed(1)
            .build()
            .unwrap();
        let qufem = QuFem::characterize(&device, config).unwrap();
        (device, qufem)
    }

    #[test]
    fn export_import_roundtrip_preserves_calibration() {
        let (device, qufem) = characterized();
        let json = serde_json::to_string(&qufem.export()).unwrap();
        let restored = QuFem::import(serde_json::from_str(&json).unwrap()).unwrap();

        let measured = QubitSet::full(7);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ideal = qufem_circuits::ghz(7);
        let noisy = device.measure_distribution(&ideal, &measured, 500, &mut rng);
        let a = qufem.calibrate(&noisy, &measured).unwrap();
        let b = restored.calibrate(&noisy, &measured).unwrap();
        assert_eq!(a.sorted_pairs(), b.sorted_pairs());
    }

    #[test]
    fn export_preserves_benchgen_report() {
        let (_, qufem) = characterized();
        let data = qufem.export();
        assert_eq!(
            data.benchgen_report.as_ref().map(|r| r.total_circuits),
            qufem.benchgen_report().map(|r| r.total_circuits)
        );
        let restored = QuFem::import(data).unwrap();
        assert_eq!(
            restored.benchgen_report().map(|r| r.total_circuits),
            qufem.benchgen_report().map(|r| r.total_circuits)
        );
    }

    #[test]
    fn import_rejects_empty_iterations() {
        let (_, qufem) = characterized();
        let mut data = qufem.export();
        data.iterations.clear();
        assert!(matches!(QuFem::import(data), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn versioned_export_round_trips_lineage() {
        let (_, qufem) = characterized();
        let lineage = SnapshotLineage {
            device_id: "ibmq-7".to_string(),
            version: 3,
            parent_version: Some(2),
            created_seq: 11,
        };
        let json = serde_json::to_string(&qufem.export_versioned(&lineage)).unwrap();
        let (restored, versioned) =
            QuFem::import_versioned(serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(versioned.device_id(), "ibmq-7");
        assert_eq!(versioned.version(), 3);
        assert_eq!(versioned.parent_version(), Some(2));
        assert_eq!(versioned.created_seq(), 11);
        assert_eq!(versioned.n_qubits(), restored.n_qubits());
        // The versioned snapshot is the restored instance's own BP_1.
        assert!(Arc::ptr_eq(&versioned.snapshot_arc(), &restored.iterations()[0].snapshot_arc()));
    }

    #[test]
    fn pre_version_export_loads_as_default_device_version_zero() {
        let (_, qufem) = characterized();
        // `export()` writes no lineage — exactly the pre-version format.
        let json = serde_json::to_string(&qufem.export()).unwrap();
        assert!(!json.contains("lineage") || json.contains("\"lineage\":null"), "json: {json}");
        let (_, versioned) = QuFem::import_versioned(serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(versioned.device_id(), crate::version::DEFAULT_DEVICE_ID);
        assert_eq!(versioned.version(), 0);
        assert_eq!(versioned.parent_version(), None);
    }

    #[test]
    fn import_rejects_mismatched_widths() {
        let (_, qufem) = characterized();
        let mut data = qufem.export();
        // Corrupt one record: distribution width no longer matches the
        // circuit's measured set.
        let record = &mut data.iterations[0].records[0];
        record.dist =
            ProbDist::point_mass(BitString::zeros(record.circuit.measured_qubits().len() + 1));
        assert!(matches!(QuFem::import(data), Err(Error::WidthMismatch { .. })));
    }

    #[test]
    fn import_rejects_groups_above_max_group_size() {
        let (_, qufem) = characterized();
        let mut data = qufem.export();
        data.iterations[0].grouping[0] = QubitSet::full(data.config.max_group_size + 1);
        assert!(matches!(QuFem::import(data), Err(Error::InvalidConfig(_))));
    }
}
