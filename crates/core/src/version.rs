//! Versioned calibration snapshots: device/calibration identity threaded
//! through the snapshot layer.
//!
//! QuFEM's premise is that readout noise drifts, so a characterization is
//! only valid for a window of time: a fleet-scale serving layer has to track
//! *which device* a snapshot describes and *which recalibration* produced
//! it. [`VersionedSnapshot`] wraps a [`BenchmarkSnapshot`] with that
//! identity — a device id plus a monotonically increasing version number
//! with parent lineage — so a serving catalog can hold mitigators per
//! `(device, version)` instead of building them from one ambient snapshot.
//!
//! The lineage persists alongside the calibration parameters: exports carry
//! an optional [`SnapshotLineage`] stamp, and parameter files written before
//! this module existed load as **version 0 of the default device** — the
//! pre-version format stays readable forever.

use crate::snapshot::BenchmarkSnapshot;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Device id used when a snapshot (or a request) names no device: single
/// tenant deployments and pre-version parameter files resolve here.
pub const DEFAULT_DEVICE_ID: &str = "default";

/// The serializable identity stamp of one [`VersionedSnapshot`]: which
/// device it calibrates and where it sits in the device's recalibration
/// lineage. Travels inside [`crate::QuFemData`] (optional — older exports
/// omit it).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotLineage {
    /// Device this snapshot calibrates (empty string ⇒ the default device).
    #[serde(default)]
    pub device_id: String,
    /// Version number within the device's lineage (0 = the root
    /// characterization).
    #[serde(default)]
    pub version: u64,
    /// The version this one was recalibrated from (`None` for the root).
    #[serde(default)]
    pub parent_version: Option<u64>,
    /// Global admission sequence number: the order this snapshot was
    /// admitted into a catalog, across all devices.
    #[serde(default)]
    pub created_seq: u64,
}

impl Default for SnapshotLineage {
    fn default() -> Self {
        SnapshotLineage {
            device_id: DEFAULT_DEVICE_ID.to_string(),
            version: 0,
            parent_version: None,
            created_seq: 0,
        }
    }
}

/// A [`BenchmarkSnapshot`] wrapped with device/calibration identity:
/// `(device_id, version)` names exactly one calibration of one device, and
/// `parent_version` links recalibrations into a lineage.
///
/// The snapshot itself is held behind an [`Arc`] — clones share the records
/// — and the identity fields are immutable after construction, so a
/// `VersionedSnapshot` can be handed to concurrent consumers (a serving
/// catalog, a mitigator cache) without locking.
#[derive(Debug, Clone)]
pub struct VersionedSnapshot {
    device_id: Arc<str>,
    version: u64,
    parent_version: Option<u64>,
    created_seq: u64,
    snapshot: Arc<BenchmarkSnapshot>,
}

impl VersionedSnapshot {
    /// The root (version 0) snapshot of a device's lineage.
    pub fn root(device_id: impl AsRef<str>, snapshot: Arc<BenchmarkSnapshot>) -> Self {
        VersionedSnapshot {
            device_id: Arc::from(normalize_device_id(device_id.as_ref())),
            version: 0,
            parent_version: None,
            created_seq: 0,
            snapshot,
        }
    }

    /// A snapshot with fully explicit lineage (catalogs assign versions and
    /// sequence numbers themselves).
    pub fn with_lineage(lineage: &SnapshotLineage, snapshot: Arc<BenchmarkSnapshot>) -> Self {
        VersionedSnapshot {
            device_id: Arc::from(normalize_device_id(&lineage.device_id)),
            version: lineage.version,
            parent_version: lineage.parent_version,
            created_seq: lineage.created_seq,
            snapshot,
        }
    }

    /// The next version in this lineage: a recalibration of the same device
    /// whose parent is `self`.
    pub fn child(&self, snapshot: Arc<BenchmarkSnapshot>, created_seq: u64) -> Self {
        VersionedSnapshot {
            device_id: Arc::clone(&self.device_id),
            version: self.version + 1,
            parent_version: Some(self.version),
            created_seq,
            snapshot,
        }
    }

    /// The device this snapshot calibrates.
    pub fn device_id(&self) -> &str {
        &self.device_id
    }

    /// Shared handle to the device id (interned once per lineage).
    pub fn device_id_arc(&self) -> Arc<str> {
        Arc::clone(&self.device_id)
    }

    /// Version number within the device's lineage.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The version this one was recalibrated from (`None` for the root).
    pub fn parent_version(&self) -> Option<u64> {
        self.parent_version
    }

    /// Global admission sequence number.
    pub fn created_seq(&self) -> u64 {
        self.created_seq
    }

    /// The wrapped benchmarking snapshot.
    pub fn snapshot(&self) -> &BenchmarkSnapshot {
        &self.snapshot
    }

    /// Shared handle to the wrapped snapshot.
    pub fn snapshot_arc(&self) -> Arc<BenchmarkSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// Qubit count of the wrapped snapshot.
    pub fn n_qubits(&self) -> usize {
        self.snapshot.n_qubits()
    }

    /// The serializable identity stamp, for persistence.
    pub fn lineage(&self) -> SnapshotLineage {
        SnapshotLineage {
            device_id: self.device_id.to_string(),
            version: self.version,
            parent_version: self.parent_version,
            created_seq: self.created_seq,
        }
    }
}

/// Maps the empty device id (pre-version exports, `Default` lineage stamps
/// stripped down by field filters) onto [`DEFAULT_DEVICE_ID`].
fn normalize_device_id(id: &str) -> &str {
    if id.is_empty() {
        DEFAULT_DEVICE_ID
    } else {
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(n: usize) -> Arc<BenchmarkSnapshot> {
        Arc::new(BenchmarkSnapshot::new(n))
    }

    #[test]
    fn root_is_version_zero_without_parent() {
        let v = VersionedSnapshot::root("ibmq-7", snap(7));
        assert_eq!(v.device_id(), "ibmq-7");
        assert_eq!(v.version(), 0);
        assert_eq!(v.parent_version(), None);
        assert_eq!(v.created_seq(), 0);
        assert_eq!(v.n_qubits(), 7);
    }

    #[test]
    fn child_links_to_its_parent() {
        let root = VersionedSnapshot::root("ibmq-7", snap(7));
        let v1 = root.child(snap(7), 5);
        assert_eq!(v1.version(), 1);
        assert_eq!(v1.parent_version(), Some(0));
        assert_eq!(v1.created_seq(), 5);
        let v2 = v1.child(snap(7), 9);
        assert_eq!(v2.version(), 2);
        assert_eq!(v2.parent_version(), Some(1));
        assert!(Arc::ptr_eq(&root.device_id_arc(), &v2.device_id_arc()));
    }

    #[test]
    fn lineage_round_trips_through_serde() {
        let v = VersionedSnapshot::root("quafu-18", snap(18)).child(snap(18), 3);
        let lineage = v.lineage();
        let json = serde_json::to_string(&lineage).unwrap();
        let back: SnapshotLineage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, lineage);
        let restored = VersionedSnapshot::with_lineage(&back, snap(18));
        assert_eq!(restored.device_id(), "quafu-18");
        assert_eq!(restored.version(), 1);
        assert_eq!(restored.parent_version(), Some(0));
    }

    #[test]
    fn empty_device_id_normalizes_to_default() {
        let stripped: SnapshotLineage = serde_json::from_str("{}").unwrap();
        assert_eq!(stripped.device_id, "");
        let v = VersionedSnapshot::with_lineage(&stripped, snap(2));
        assert_eq!(v.device_id(), DEFAULT_DEVICE_ID);
        assert_eq!(VersionedSnapshot::root("", snap(2)).device_id(), DEFAULT_DEVICE_ID);
    }

    #[test]
    fn default_lineage_is_the_default_device_root() {
        let lineage = SnapshotLineage::default();
        assert_eq!(lineage.device_id, DEFAULT_DEVICE_ID);
        assert_eq!(lineage.version, 0);
        assert_eq!(lineage.parent_version, None);
    }
}
