//! Method-generic mitigation layer: the [`Mitigator`] trait (prepare/apply
//! split shared by QuFEM and every baseline) and the [`MethodRegistry`]
//! (string id → characterize-from-snapshot constructor).
//!
//! The trait lives in `qufem-core` — *upstream* of the individual methods —
//! so the serve daemon, the plan cache, and the bench drivers can host any
//! method behind one interface without depending on `qufem-baselines`.
//! Implementations for the five baselines are registered from above (see
//! `qufem_baselines::standard_registry`); this module only ships the QuFEM
//! [`Mitigator`] itself (its [`PreparedMitigator`] sits next to
//! `PreparedCalibration` in `flows.rs`).

use crate::config::QuFemConfig;
use crate::engine::EngineStats;
use crate::flows::QuFem;
use crate::snapshot::BenchmarkSnapshot;
use qufem_types::{Error, ProbDist, QubitSet, Result};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The output of [`Mitigator::prepare`]: a method's calibration data
/// pre-resolved for one measured qubit set, ready to apply to any number of
/// distributions over that set.
///
/// Implementations must be deterministic: applying the same prepared object
/// to the same distribution yields bit-identical output regardless of the
/// configured thread count.
pub trait PreparedMitigator: fmt::Debug + Send + Sync {
    /// Number of measured qubits this preparation covers (the required
    /// input distribution width).
    fn width(&self) -> usize;

    /// Calibrates one distribution over the prepared measured set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if the distribution width differs
    /// from [`PreparedMitigator::width`], plus method-specific failures.
    fn apply(&self, dist: &ProbDist) -> Result<ProbDist> {
        let mut stats = EngineStats::default();
        self.apply_with_stats(dist, &mut stats)
    }

    /// [`PreparedMitigator::apply`] with engine instrumentation. Methods
    /// without an engine (everything except QuFEM) leave `stats` untouched;
    /// see [`PreparedMitigator::reports_engine_stats`].
    ///
    /// # Errors
    ///
    /// As for [`PreparedMitigator::apply`].
    fn apply_with_stats(&self, dist: &ProbDist, stats: &mut EngineStats) -> Result<ProbDist>;

    /// Whether [`PreparedMitigator::apply_with_stats`] populates the
    /// [`EngineStats`] it is handed (true only for engine-backed methods);
    /// consumers use this to decide whether stats are worth forwarding.
    fn reports_engine_stats(&self) -> bool {
        false
    }

    /// Approximate heap usage of the prepared calibration data in bytes.
    fn heap_bytes(&self) -> usize;
}

/// A readout-error mitigation method with QuFEM's prepare/apply split:
/// [`Mitigator::prepare`] resolves the method's calibration data for one
/// measured qubit set, and the returned [`PreparedMitigator`] applies it to
/// arbitrarily many measured distributions.
///
/// Characterization (running benchmarking circuits against a device) stays
/// method-specific and happens in each implementation's constructor or via
/// a [`MethodRegistry`] entry.
pub trait Mitigator: fmt::Debug + Send + Sync {
    /// Short method name as used in the paper's tables ("QuFEM", "M3", …).
    fn name(&self) -> &'static str;

    /// Resolves the method's calibration data for `measured`.
    ///
    /// # Errors
    ///
    /// Implementations return errors on unsupported measured sets and
    /// resource-bound violations.
    fn prepare(&self, measured: &QubitSet) -> Result<Arc<dyn PreparedMitigator>>;

    /// Calibrates one measured distribution (prepare + apply).
    ///
    /// The result is a quasi-probability distribution in general; callers
    /// computing fidelities should apply
    /// [`ProbDist::project_to_probabilities`].
    ///
    /// # Errors
    ///
    /// Propagates [`Mitigator::prepare`] and apply failures.
    fn calibrate(&self, dist: &ProbDist, measured: &QubitSet) -> Result<ProbDist> {
        self.prepare(measured)?.apply(dist)
    }

    /// Number of benchmarking circuits the method executed during
    /// characterization (paper Table 3). Methods built from a shared
    /// snapshot report the snapshot's circuit count.
    fn n_benchmark_circuits(&self) -> u64;

    /// Approximate heap usage of the method's calibration data in bytes
    /// (paper Table 5).
    fn heap_bytes(&self) -> usize;
}

impl Mitigator for QuFem {
    fn name(&self) -> &'static str {
        "QuFEM"
    }

    fn prepare(&self, measured: &QubitSet) -> Result<Arc<dyn PreparedMitigator>> {
        Ok(Arc::new(QuFem::prepare(self, measured)?))
    }

    fn n_benchmark_circuits(&self) -> u64 {
        self.benchgen_report().map_or(0, |r| r.total_circuits as u64)
    }

    fn heap_bytes(&self) -> usize {
        QuFem::heap_bytes(self)
    }
}

/// Per-method numeric configuration passed through a [`MethodRegistry`]
/// build: flat `key → value` pairs (booleans as `0.0` / `1.0`). Kept
/// numeric-only so it survives the NDJSON wire format losslessly.
pub type MethodOptions = BTreeMap<String, f64>;

type MethodCtor =
    dyn Fn(&BenchmarkSnapshot, &MethodOptions) -> Result<Arc<dyn Mitigator>> + Send + Sync;

/// String-id registry of mitigation methods, each entry a constructor that
/// characterizes the method from a persisted [`BenchmarkSnapshot`] plus
/// per-method [`MethodOptions`].
///
/// One snapshot feeds every registered method: QuFEM's adaptive `BP_1`
/// already contains the conditional marginals the qubit-independent
/// baselines estimate their matrices from, so any consumer holding a
/// snapshot (the serve daemon, the bench drivers, a replay tool) can
/// instantiate any method by name. Constructors must be deterministic —
/// building the same id from the same snapshot and options twice yields
/// mitigators whose outputs are bit-identical.
#[derive(Clone, Default)]
pub struct MethodRegistry {
    entries: BTreeMap<String, Arc<MethodCtor>>,
}

impl MethodRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MethodRegistry::default()
    }

    /// A registry with only the QuFEM method registered (see
    /// [`MethodRegistry::register_qufem`]).
    pub fn with_qufem(base: QuFemConfig) -> Self {
        let mut registry = MethodRegistry::new();
        registry.register_qufem(base);
        registry
    }

    /// Registers (or replaces) a method constructor under `id`.
    pub fn register(
        &mut self,
        id: impl Into<String>,
        ctor: impl Fn(&BenchmarkSnapshot, &MethodOptions) -> Result<Arc<dyn Mitigator>>
            + Send
            + Sync
            + 'static,
    ) {
        self.entries.insert(id.into(), Arc::new(ctor));
    }

    /// Registers the QuFEM method under id `"qufem"`, rebuilt from a
    /// snapshot via [`QuFem::from_snapshot`] with `base` as the starting
    /// configuration. Recognized options (each overriding one `base`
    /// field): `iterations`, `max_group_size`, `alpha`, `beta`, `seed`,
    /// `regroup_penalty`, `joint_group_estimation` (0/1).
    pub fn register_qufem(&mut self, base: QuFemConfig) {
        self.register("qufem", move |snapshot, options| {
            let config = qufem_config_with(&base, options)?;
            let qufem = QuFem::from_snapshot(snapshot.clone(), config)?;
            Ok(Arc::new(qufem) as Arc<dyn Mitigator>)
        });
    }

    /// Instantiates the method registered under `id` from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an unknown id (listing the
    /// registered ids) and propagates constructor failures — including
    /// rejection of unrecognized option keys.
    pub fn build(
        &self,
        id: &str,
        snapshot: &BenchmarkSnapshot,
        options: &MethodOptions,
    ) -> Result<Arc<dyn Mitigator>> {
        let ctor = self.entries.get(id).ok_or_else(|| {
            Error::InvalidConfig(format!(
                "unknown method '{id}' (registered: {})",
                self.ids().join(", ")
            ))
        })?;
        ctor(snapshot, options)
    }

    /// Whether a method is registered under `id`.
    pub fn contains(&self, id: &str) -> bool {
        self.entries.contains_key(id)
    }

    /// The registered method ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of registered methods.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for MethodRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MethodRegistry").field("ids", &self.ids()).finish()
    }
}

/// Applies numeric option overrides onto a base [`QuFemConfig`].
fn qufem_config_with(base: &QuFemConfig, options: &MethodOptions) -> Result<QuFemConfig> {
    let mut config = base.clone();
    for (key, &value) in options {
        match key.as_str() {
            "iterations" => config.iterations = value as usize,
            "max_group_size" => config.max_group_size = value as usize,
            "alpha" => config.alpha = value,
            "beta" => config.beta = value,
            "seed" => config.seed = value as u64,
            "regroup_penalty" => config.regroup_penalty = value,
            "joint_group_estimation" => config.joint_group_estimation = value != 0.0,
            _ => return Err(Error::InvalidConfig(format!("unknown qufem option '{key}'"))),
        }
    }
    config.validate()?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_device::presets;

    fn fast_config() -> QuFemConfig {
        QuFemConfig::builder().characterization_threshold(5e-4).shots(400).seed(3).build().unwrap()
    }

    #[test]
    fn qufem_implements_mitigator() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let m: &dyn Mitigator = &qufem;
        assert_eq!(m.name(), "QuFEM");
        assert!(m.n_benchmark_circuits() >= 28);
        assert!(m.heap_bytes() > 0);
        let measured = QubitSet::full(7);
        let prepared = m.prepare(&measured).unwrap();
        assert_eq!(prepared.width(), 7);
        assert!(prepared.reports_engine_stats());
        let noisy = ProbDist::point_mass(qufem_types::BitString::zeros(7));
        let via_trait = prepared.apply(&noisy).unwrap();
        let via_inherent = qufem.calibrate(&noisy, &measured).unwrap();
        assert_eq!(via_trait.sorted_pairs(), via_inherent.sorted_pairs());
    }

    #[test]
    fn registry_builds_qufem_bit_identical_to_characterize() {
        let device = presets::ibmq_7(1);
        let config = fast_config();
        let qufem = QuFem::characterize(&device, config.clone()).unwrap();
        let snapshot = qufem.iterations()[0].snapshot().clone();
        let registry = MethodRegistry::with_qufem(config);
        assert!(registry.contains("qufem"));
        let rebuilt = registry.build("qufem", &snapshot, &MethodOptions::new()).unwrap();
        let measured = QubitSet::full(7);
        let noisy = ProbDist::point_mass(qufem_types::BitString::zeros(7));
        let a = qufem.calibrate(&noisy, &measured).unwrap();
        let b = rebuilt.calibrate(&noisy, &measured).unwrap();
        let (pa, pb) = (a.sorted_pairs(), b.sorted_pairs());
        assert_eq!(pa.len(), pb.len());
        for ((ka, va), (kb, vb)) in pa.iter().zip(&pb) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn registry_rejects_unknown_method_and_option() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let snapshot = qufem.iterations()[0].snapshot().clone();
        let registry = MethodRegistry::with_qufem(fast_config());
        assert!(matches!(
            registry.build("nope", &snapshot, &MethodOptions::new()),
            Err(Error::InvalidConfig(_))
        ));
        let mut options = MethodOptions::new();
        options.insert("bogus_knob".into(), 1.0);
        assert!(matches!(
            registry.build("qufem", &snapshot, &options),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn qufem_options_override_base_config() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let snapshot = qufem.iterations()[0].snapshot().clone();
        let registry = MethodRegistry::with_qufem(fast_config());
        let mut options = MethodOptions::new();
        options.insert("iterations".into(), 1.0);
        let built = registry.build("qufem", &snapshot, &options).unwrap();
        let prepared = built.prepare(&QubitSet::full(7)).unwrap();
        // One iteration → strictly less prepared state than the default two.
        let two = registry.build("qufem", &snapshot, &MethodOptions::new()).unwrap();
        assert!(prepared.heap_bytes() < two.prepare(&QubitSet::full(7)).unwrap().heap_bytes());
    }
}
