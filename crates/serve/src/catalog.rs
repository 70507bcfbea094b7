//! Device catalog: device id → version lineage → per-version prepared
//! state, with atomic hot-swap of recalibrated snapshots under live
//! traffic.
//!
//! The paper treats a characterization as a device-level artifact with a
//! validity window — readout noise drifts, so a fleet recalibrates
//! continuously. The [`Catalog`] is the serving-side model of that: every
//! device carries a monotone version lineage of [`VersionedSnapshot`]s, and
//! **admitting** a recalibration publishes it as the device's new head
//! without pausing traffic. Resolution clones an `Arc` under a read lock,
//! so in-flight requests keep the entry (and every prepared plan hanging
//! off it) they resolved; superseded versions stay resolvable for
//! version-pinned clients and drain naturally once the last `Arc` drops.
//!
//! Determinism is preserved across swaps: a request pinned to
//! `(device, version)` is served from that exact snapshot's prepared plans
//! — bit-identical before, during, and after any number of admissions.

use crate::cache::PlanCache;
use crate::protocol::DeviceStatusInfo;
use qufem_core::{
    MethodOptions, MethodRegistry, Mitigator, PreparedMitigator, QuFem, VersionedSnapshot,
    DEFAULT_DEVICE_ID,
};
use qufem_types::{Error, QubitSet, Result};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One published calibration of one device: the versioned snapshot, the
/// method instances built from it, and the prepared-plan cache scoped to
/// it — the only place serving state is cached.
///
/// Entries are immutable once published (the method map and plan cache
/// fill lazily but their contents are deterministic functions of the
/// snapshot), so an `Arc` held across a hot-swap keeps serving exactly the
/// bits it resolved, and everything cached for a version drops with it.
#[derive(Debug)]
pub struct VersionEntry {
    snapshot: VersionedSnapshot,
    full_register: QubitSet,
    registry: Arc<MethodRegistry>,
    /// Method instances by id. Holds the served `"qufem"` instance from
    /// construction; other ids are built from the registry on first use.
    methods: Mutex<BTreeMap<String, Arc<dyn Mitigator>>>,
    /// Prepared plans for this `(device, version)`, keyed by
    /// `(method, measured set)`. Per-entry so a hot-swap starts cold
    /// without evicting the plans pinned clients still use.
    cache: PlanCache,
    /// Characterization iterations in the underlying calibrator (surfaced
    /// by the `status` command).
    iterations: usize,
    /// Calibrate requests that resolved to this entry.
    requests: AtomicU64,
}

impl VersionEntry {
    /// An entry serving `qufem` itself as method `"qufem"` — never a
    /// registry rebuild — so its responses match the instance's in-process
    /// prepare + apply bit for bit.
    fn new(
        snapshot: VersionedSnapshot,
        qufem: QuFem,
        registry: Arc<MethodRegistry>,
        plan_cache_capacity: usize,
    ) -> Self {
        let full_register = QubitSet::full(snapshot.n_qubits());
        let iterations = qufem.iterations().len();
        let mut methods: BTreeMap<String, Arc<dyn Mitigator>> = BTreeMap::new();
        methods.insert("qufem".to_string(), Arc::new(qufem));
        VersionEntry {
            snapshot,
            full_register,
            registry,
            methods: Mutex::new(methods),
            cache: PlanCache::new(plan_cache_capacity),
            iterations,
            requests: AtomicU64::new(0),
        }
    }

    /// The versioned snapshot this entry serves.
    pub fn snapshot(&self) -> &VersionedSnapshot {
        &self.snapshot
    }

    /// Device id of the snapshot.
    pub fn device_id(&self) -> &str {
        self.snapshot.device_id()
    }

    /// Version number of the snapshot within its device lineage.
    pub fn version(&self) -> u64 {
        self.snapshot.version()
    }

    /// Every qubit of the device (the default measured set).
    pub fn full_register(&self) -> &QubitSet {
        &self.full_register
    }

    /// The prepared-plan cache scoped to this entry.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The prepared plan for `(method, measured)`: from the plan cache, or
    /// prepared by the entry's instance of `method` (built from the
    /// registry with default options on first use). The flag is true when
    /// this call prepared the plan (a plan-cache miss).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a method id the registry does not know
    /// (counting no plan-cache miss), plus construction and preparation
    /// failures. Failures are not cached.
    pub fn prepared(
        &self,
        method: &str,
        measured: &QubitSet,
    ) -> Result<(Arc<dyn PreparedMitigator>, bool)> {
        let mitigator = self.mitigator(method)?;
        let mut built = false;
        let plan = self.cache.get_or_build(method, measured, || {
            built = true;
            mitigator.prepare(measured)
        })?;
        Ok((plan, built))
    }

    /// The entry's instance of `method`. Registry construction is
    /// deterministic, so racing first builds may both run outside the lock;
    /// the first insert wins and every caller shares it.
    fn mitigator(&self, method: &str) -> Result<Arc<dyn Mitigator>> {
        if let Some(hit) = self.methods.lock().expect("method map lock").get(method) {
            return Ok(Arc::clone(hit));
        }
        let fresh = self.registry.build(method, self.snapshot.snapshot(), &MethodOptions::new())?;
        let mut methods = self.methods.lock().expect("method map lock");
        Ok(Arc::clone(methods.entry(method.to_string()).or_insert(fresh)))
    }

    /// Number of method instances this entry holds.
    pub fn method_count(&self) -> usize {
        self.methods.lock().expect("method map lock").len()
    }

    /// Characterization iterations in the underlying calibrator.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Counts one calibrate request resolved to this entry.
    pub fn count_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Calibrate requests resolved to this entry so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

/// One device's lineage: the head (what unpinned requests resolve to) plus
/// every retained version, ascending.
#[derive(Debug)]
struct DeviceState {
    head: u64,
    versions: BTreeMap<u64, Arc<VersionEntry>>,
}

/// Why a `(device, version)` coordinate failed to resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No device with this id is in the catalog.
    UnknownDevice(String),
    /// The device exists but has no such version.
    UnknownVersion {
        /// The device that was found.
        device: String,
        /// The version that was not.
        version: u64,
    },
}

impl ResolveError {
    /// Human-readable error-frame message.
    pub fn message(&self) -> String {
        match self {
            ResolveError::UnknownDevice(d) => format!("unknown device {d:?}"),
            ResolveError::UnknownVersion { device, version } => {
                format!("device {device:?} has no version {version}")
            }
        }
    }
}

/// The serving catalog: every device's version lineage of
/// [`VersionEntry`]s, each holding its own method instances and plans.
///
/// Reads (request routing) take a shared lock and clone an `Arc`;
/// admissions take the exclusive lock only to assign a version number and
/// link the new entry. Version numbers within a device are therefore
/// strictly monotone: any observer who sees version `v` echoed can never
/// later resolve the head to a version below `v`.
#[derive(Debug)]
pub struct Catalog {
    devices: RwLock<BTreeMap<Arc<str>, DeviceState>>,
    registry: Arc<MethodRegistry>,
    default_device: Arc<str>,
    plan_cache_capacity: usize,
    /// Next global admission sequence number (the root entry takes 0).
    next_seq: AtomicU64,
    /// Serializes admissions end-to-end (version assignment + publish)
    /// without blocking readers longer than the `devices` write itself.
    admit_lock: Mutex<()>,
}

impl Catalog {
    /// A catalog whose only entry is `qufem` published as version 0 of
    /// `device_id` (empty ⇒ [`DEFAULT_DEVICE_ID`]). The instance itself is
    /// pinned as method `"qufem"` for that entry, so responses are
    /// bit-identical to calling it in process.
    pub fn new(
        qufem: QuFem,
        device_id: &str,
        registry: Arc<MethodRegistry>,
        plan_cache_capacity: usize,
    ) -> Self {
        let device_id = if device_id.is_empty() { DEFAULT_DEVICE_ID } else { device_id };
        let snapshot = qufem
            .iterations()
            .first()
            .map(|it| it.snapshot_arc())
            .unwrap_or_else(|| Arc::new(qufem_core::BenchmarkSnapshot::new(qufem.n_qubits())));
        let root = VersionedSnapshot::root(device_id, snapshot);
        let default_device = root.device_id_arc();
        let entry =
            Arc::new(VersionEntry::new(root, qufem, Arc::clone(&registry), plan_cache_capacity));
        let mut versions = BTreeMap::new();
        versions.insert(0, entry);
        let mut devices = BTreeMap::new();
        devices.insert(Arc::clone(&default_device), DeviceState { head: 0, versions });
        Catalog {
            devices: RwLock::new(devices),
            registry,
            default_device,
            plan_cache_capacity,
            next_seq: AtomicU64::new(1),
            admit_lock: Mutex::new(()),
        }
    }

    /// The device unaddressed requests resolve to.
    pub fn default_device(&self) -> Arc<str> {
        Arc::clone(&self.default_device)
    }

    /// Maximum prepared plans each version entry keeps hot.
    pub fn plan_cache_capacity(&self) -> usize {
        self.plan_cache_capacity
    }

    /// Resolves a request's `(device, version)` coordinate to the entry
    /// that serves it: `device` `None`/empty ⇒ the default device,
    /// `version` `None` ⇒ the device's head.
    ///
    /// # Errors
    ///
    /// [`ResolveError`] distinguishing an unknown device from an unretained
    /// version.
    pub fn resolve(
        &self,
        device: Option<&str>,
        version: Option<u64>,
    ) -> std::result::Result<Arc<VersionEntry>, ResolveError> {
        let id = match device {
            Some(d) if !d.is_empty() => d,
            _ => &self.default_device,
        };
        let devices = self.devices.read().expect("catalog read lock");
        let state = devices.get(id).ok_or_else(|| ResolveError::UnknownDevice(id.to_string()))?;
        let v = version.unwrap_or(state.head);
        state
            .versions
            .get(&v)
            .cloned()
            .ok_or_else(|| ResolveError::UnknownVersion { device: id.to_string(), version: v })
    }

    /// Admits a recalibrated instance: publishes it as the next version of
    /// its device (or version 0 of a device new to the catalog) and pins it
    /// as that entry's `"qufem"` method. `device_override` (non-empty)
    /// wins over the device id stamped in `imported`'s lineage.
    ///
    /// The new head is visible to unpinned requests the moment this
    /// returns; already-resolved entries are untouched, so concurrent
    /// traffic never observes a torn swap.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the admitted instance's qubit count
    /// does not match the device it targets.
    pub fn admit(
        &self,
        qufem: QuFem,
        imported: &VersionedSnapshot,
        device_override: Option<&str>,
    ) -> Result<Arc<VersionEntry>> {
        let target = match device_override {
            Some(d) if !d.is_empty() => d,
            _ => imported.device_id(),
        };
        let _admitting = self.admit_lock.lock().expect("catalog admit lock");
        // Width check against the existing lineage (under the admit lock so
        // a concurrent admit cannot invalidate it before we publish).
        let existing_head = {
            let devices = self.devices.read().expect("catalog read lock");
            devices.get(target).map(|state| {
                let head = state.versions.get(&state.head).expect("head version present").clone();
                head
            })
        };
        if let Some(head) = &existing_head {
            if head.snapshot().n_qubits() != qufem.n_qubits() {
                return Err(Error::InvalidConfig(format!(
                    "admitted snapshot has {} qubits but device {:?} has {}",
                    qufem.n_qubits(),
                    target,
                    head.snapshot().n_qubits()
                )));
            }
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let snapshot = qufem
            .iterations()
            .first()
            .map(|it| it.snapshot_arc())
            .unwrap_or_else(|| Arc::new(qufem_core::BenchmarkSnapshot::new(qufem.n_qubits())));
        let versioned = match &existing_head {
            Some(head) => head.snapshot().child(snapshot, seq),
            None => {
                let mut lineage = imported.lineage();
                lineage.device_id = target.to_string();
                lineage.version = 0;
                lineage.parent_version = None;
                lineage.created_seq = seq;
                VersionedSnapshot::with_lineage(&lineage, snapshot)
            }
        };
        let entry = Arc::new(VersionEntry::new(
            versioned,
            qufem,
            Arc::clone(&self.registry),
            self.plan_cache_capacity,
        ));
        let mut devices = self.devices.write().expect("catalog write lock");
        let state = devices
            .entry(entry.snapshot().device_id_arc())
            .or_insert_with(|| DeviceState { head: 0, versions: BTreeMap::new() });
        state.head = entry.version();
        state.versions.insert(entry.version(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Per-device state for `status` and `metrics`, sorted by device id;
    /// plan, method and request counts are summed over the device's
    /// retained versions.
    pub fn summaries(&self) -> Vec<DeviceStatusInfo> {
        let devices = self.devices.read().expect("catalog read lock");
        devices
            .iter()
            .map(|(id, state)| DeviceStatusInfo {
                device: id.to_string(),
                head_version: state.head,
                versions: state.versions.keys().copied().collect(),
                plan_cache_len: state.versions.values().map(|e| e.plan_cache().len()).sum(),
                method_cache_len: state.versions.values().map(|e| e.method_count()).sum(),
                requests: state.versions.values().map(|e| e.requests()).sum(),
            })
            .collect()
    }

    /// Number of devices in the catalog.
    pub fn device_count(&self) -> usize {
        self.devices.read().expect("catalog read lock").len()
    }

    /// Aggregate plan-cache `(len, hits, misses)` across every retained
    /// version of every device.
    pub fn plan_cache_totals(&self) -> (usize, u64, u64) {
        let devices = self.devices.read().expect("catalog read lock");
        let mut len = 0;
        let mut hits = 0;
        let mut misses = 0;
        for state in devices.values() {
            for entry in state.versions.values() {
                len += entry.plan_cache().len();
                let (h, m) = entry.plan_cache().stats();
                hits += h;
                misses += m;
            }
        }
        (len, hits, misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_core::QuFemConfig;
    use qufem_device::presets;
    use qufem_types::ProbDist;

    fn config(seed: u64) -> QuFemConfig {
        QuFemConfig::builder()
            .characterization_threshold(5e-4)
            .shots(300)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn characterized(seed: u64) -> QuFem {
        QuFem::characterize(&presets::ibmq_7(seed), config(seed)).unwrap()
    }

    /// A registry whose `"qufem"` and `"rebuilt"` ids rebuild QuFEM from
    /// the snapshot, counting every construction in `builds`.
    fn counting_registry(builds: &Arc<AtomicU64>) -> Arc<MethodRegistry> {
        let mut registry = MethodRegistry::new();
        for id in ["qufem", "rebuilt"] {
            let builds = Arc::clone(builds);
            registry.register(id, move |snapshot, _| {
                builds.fetch_add(1, Ordering::SeqCst);
                Ok(Arc::new(QuFem::from_snapshot(snapshot.clone(), config(1))?)
                    as Arc<dyn Mitigator>)
            });
        }
        Arc::new(registry)
    }

    fn admit_recalibration(catalog: &Catalog, seed: u64) -> Arc<VersionEntry> {
        let recal = characterized(seed);
        let imported = VersionedSnapshot::root("ibmq-7", recal.iterations()[0].snapshot_arc());
        catalog.admit(recal, &imported, None).unwrap()
    }

    #[test]
    fn new_catalog_serves_version_zero_of_the_named_device() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        assert_eq!(&*catalog.default_device(), "ibmq-7");
        let entry = catalog.resolve(None, None).unwrap();
        assert_eq!(entry.device_id(), "ibmq-7");
        assert_eq!(entry.version(), 0);
        assert_eq!(entry.full_register().len(), 7);
        // Explicit coordinates resolve to the same entry.
        let pinned = catalog.resolve(Some("ibmq-7"), Some(0)).unwrap();
        assert!(Arc::ptr_eq(&entry, &pinned));
        // Empty device id falls back to the default device.
        assert!(catalog.resolve(Some(""), None).is_ok());
    }

    #[test]
    fn resolve_distinguishes_unknown_device_from_unknown_version() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        assert_eq!(
            catalog.resolve(Some("nope"), None).unwrap_err(),
            ResolveError::UnknownDevice("nope".to_string())
        );
        assert_eq!(
            catalog.resolve(Some("ibmq-7"), Some(3)).unwrap_err(),
            ResolveError::UnknownVersion { device: "ibmq-7".to_string(), version: 3 }
        );
    }

    #[test]
    fn admit_advances_the_head_and_retains_old_versions() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        let v0 = catalog.resolve(None, None).unwrap();
        let recal = characterized(2);
        let imported = VersionedSnapshot::root("ibmq-7", recal.iterations()[0].snapshot_arc());
        let entry = catalog.admit(recal, &imported, None).unwrap();
        assert_eq!(entry.version(), 1);
        assert_eq!(entry.snapshot().parent_version(), Some(0));
        // Unpinned resolution now hits the new head …
        let head = catalog.resolve(Some("ibmq-7"), None).unwrap();
        assert!(Arc::ptr_eq(&head, &entry));
        // … while the old version stays pinned-resolvable, same entry.
        let pinned = catalog.resolve(Some("ibmq-7"), Some(0)).unwrap();
        assert!(Arc::ptr_eq(&pinned, &v0));
        let summary = &catalog.summaries()[0];
        assert_eq!(summary.head_version, 1);
        assert_eq!(summary.versions, vec![0, 1]);
    }

    #[test]
    fn admit_creates_new_devices_at_version_zero() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        let other = characterized(3);
        let imported = VersionedSnapshot::root("ibmq-7-b", other.iterations()[0].snapshot_arc());
        let entry = catalog.admit(other, &imported, None).unwrap();
        assert_eq!(entry.device_id(), "ibmq-7-b");
        assert_eq!(entry.version(), 0);
        assert_eq!(catalog.device_count(), 2);
        // Device override beats the lineage stamp.
        let third = characterized(4);
        let imported = VersionedSnapshot::root("ignored", third.iterations()[0].snapshot_arc());
        let entry = catalog.admit(third, &imported, Some("ibmq-7")).unwrap();
        assert_eq!(entry.device_id(), "ibmq-7");
        assert_eq!(entry.version(), 1);
    }

    #[test]
    fn admit_rejects_width_mismatch() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        let config = QuFemConfig::builder()
            .characterization_threshold(5e-4)
            .shots(300)
            .seed(9)
            .build()
            .unwrap();
        let narrow = QuFem::characterize(&presets::for_qubits(3, 9), config).unwrap();
        let imported = VersionedSnapshot::root("ibmq-7", narrow.iterations()[0].snapshot_arc());
        let err = catalog.admit(narrow, &imported, None).unwrap_err();
        assert!(err.to_string().contains("qubits"), "{err}");
        // Nothing was published.
        assert_eq!(catalog.summaries()[0].versions, vec![0]);
    }

    #[test]
    fn admitted_instance_is_pinned_as_the_qufem_method() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        let entry = admit_recalibration(&catalog, 2);
        // The registry is empty, so only the entry's own instance can
        // satisfy "qufem" — preparing must succeed rather than erroring.
        let m = entry.mitigator("qufem").unwrap();
        assert!(Arc::ptr_eq(&m, &entry.mitigator("qufem").unwrap()));
        assert!(entry.prepared("qufem", entry.full_register()).is_ok());
        assert_eq!(catalog.summaries()[0].method_cache_len, 2);
    }

    #[test]
    fn one_method_instance_per_version_entry() {
        let builds = Arc::new(AtomicU64::new(0));
        let catalog = Catalog::new(characterized(1), "ibmq-7", counting_registry(&builds), 4);
        let v0 = catalog.resolve(None, None).unwrap();
        let a = v0.mitigator("rebuilt").unwrap();
        assert!(Arc::ptr_eq(&a, &v0.mitigator("rebuilt").unwrap()));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(v0.method_count(), 2);
        // A new version builds and holds its own instance.
        let v1 = admit_recalibration(&catalog, 2);
        let b = v1.mitigator("rebuilt").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::SeqCst), 2);
        assert_eq!(catalog.summaries()[0].method_cache_len, 4);
    }

    #[test]
    fn the_pinned_qufem_instance_is_the_one_served() {
        let builds = Arc::new(AtomicU64::new(0));
        let qufem = characterized(1);
        let catalog = Catalog::new(qufem.clone(), "ibmq-7", counting_registry(&builds), 4);
        let v0 = catalog.resolve(None, None).unwrap();
        let full = v0.full_register().clone();
        let (plan, built) = v0.prepared("qufem", &full).unwrap();
        assert!(built);
        let (again, built) = v0.prepared("qufem", &full).unwrap();
        assert!(!built);
        assert!(Arc::ptr_eq(&plan, &again));
        let noisy = ProbDist::point_mass(qufem_types::BitString::zeros(7));
        let served = plan.apply(&noisy).unwrap().sorted_pairs();
        let in_process = qufem.prepare(&full).unwrap().apply(&noisy).unwrap().sorted_pairs();
        assert_eq!(served.len(), in_process.len());
        for ((ka, va), (kb, vb)) in served.iter().zip(&in_process) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
        // An admitted version serves its own instance too: the registry's
        // "qufem" constructor never runs.
        let v1 = admit_recalibration(&catalog, 2);
        assert!(v1.prepared("qufem", &full).is_ok());
        assert_eq!(builds.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn failed_method_builds_are_not_cached_and_count_no_plan_cache_miss() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        let entry = catalog.resolve(None, None).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                entry.prepared("nope", entry.full_register()),
                Err(Error::InvalidConfig(_))
            ));
        }
        assert_eq!(entry.method_count(), 1);
        assert_eq!(entry.plan_cache().stats(), (0, 0));
        assert_eq!(entry.plan_cache().len(), 0);
    }

    #[test]
    fn device_requests_sum_over_retained_versions() {
        let catalog = Catalog::new(characterized(1), "ibmq-7", Arc::new(MethodRegistry::new()), 4);
        let v0 = catalog.resolve(None, None).unwrap();
        v0.count_request();
        v0.count_request();
        let v1 = admit_recalibration(&catalog, 2);
        v1.count_request();
        let other = characterized(3);
        let imported = VersionedSnapshot::root("ibmq-7-b", other.iterations()[0].snapshot_arc());
        let b = catalog.admit(other, &imported, None).unwrap();
        for _ in 0..4 {
            b.count_request();
        }
        // Pinning the superseded version still counts toward its device.
        catalog.resolve(Some("ibmq-7"), Some(0)).unwrap().count_request();
        assert_eq!((v0.requests(), v1.requests(), b.requests()), (3, 1, 4));
        let requests: Vec<(String, u64)> =
            catalog.summaries().into_iter().map(|d| (d.device, d.requests)).collect();
        assert_eq!(requests, vec![("ibmq-7".to_string(), 4), ("ibmq-7-b".to_string(), 4)]);
    }
}
