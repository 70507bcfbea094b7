//! The characterization flow (Algorithm 1) and calibration flow
//! (Algorithm 2) of the paper, packaged as the [`QuFem`] type.
//!
//! Every reader of group noise matrices here — the characterization loop's
//! per-measured-set plan builds, [`QuFem::prepare`] and
//! [`QuFem::effective_noise_matrix`] — goes through the iteration's
//! [`MatrixTable`], which builds each (group, `g∩`) matrix once. The free
//! [`build_group_matrices`] functions are the uncached reference.

use crate::arena::{ArenaPool, ExecArena};
use crate::benchgen::{self, BenchGenReport};
use crate::config::QuFemConfig;
use crate::engine::{EngineStats, IterationPlan};
use crate::interaction::InteractionTable;
use crate::mitigate::PreparedMitigator;
use crate::noisematrix::{group_noise_matrix_with, GroupMatrix, MatrixTable};
use crate::parallel;
use crate::partition::{self, grouped_pairs, Grouping};
use crate::snapshot::{BenchmarkRecord, BenchmarkSnapshot};
use qufem_device::Device;
use qufem_linalg::Matrix;
use qufem_types::{BitString, Error, ProbDist, QubitSet, Result, SupportIndex};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Pruning floor applied while self-calibrating the benchmarking
/// distributions inside the characterization flow (see
/// [`QuFem::from_snapshot`]). The self-calibration only needs the BP
/// marginals (mesh-adaption weights, residual matrices), for which
/// first-order flip corrections suffice; a β floor of `10⁻³` (relative, see
/// the engine's pruning convention) keeps characterization at `O(N)` work
/// per benchmark string even when the user requests an effectively unpruned
/// *calibration* flow.
const MIN_CHARACTERIZATION_BETA: f64 = 1e-3;

/// The static calibration parameters of one iteration: the grouping scheme
/// `G_i` and the benchmarking distributions `BP_i` (paper Algorithm 1's
/// output `CP`).
///
/// The snapshot sits behind an [`Arc`]: the characterization loop's working
/// snapshot and the recorded `BP_i` are the same allocation, and cloning a
/// [`QuFem`] shares every stored snapshot instead of deep-copying them. The
/// iteration's [`MatrixTable`] is shared the same way, so a matrix built
/// through one clone serves them all.
#[derive(Debug, Clone)]
pub struct IterationParams {
    grouping: Grouping,
    snapshot: Arc<BenchmarkSnapshot>,
    matrices: Arc<MatrixTable>,
}

impl IterationParams {
    /// Iteration parameters with an empty matrix table estimating as
    /// `joint` says (see [`QuFemConfig::joint_group_estimation`]).
    pub(crate) fn new(grouping: Grouping, snapshot: Arc<BenchmarkSnapshot>, joint: bool) -> Self {
        let matrices = Arc::new(MatrixTable::new(grouping.len(), joint));
        IterationParams { grouping, snapshot, matrices }
    }

    /// The grouping scheme `G_i`.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// The benchmarking snapshot `BP_i` this iteration draws conditional
    /// probabilities from.
    pub fn snapshot(&self) -> &BenchmarkSnapshot {
        &self.snapshot
    }

    /// A shared handle to the snapshot. Cheap to clone; memory-accounting
    /// tests use the pointer identity to verify that [`QuFem::clone`]
    /// shares rather than duplicates the stored `BP_i`.
    pub fn snapshot_arc(&self) -> Arc<BenchmarkSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// The iteration's group-matrix table, shared across clones.
    pub fn matrix_table(&self) -> &Arc<MatrixTable> {
        &self.matrices
    }

    /// The sub-noise matrices of every group intersecting `measured`, in
    /// group order, from the matrix table.
    fn group_matrices(&self, measured: &QubitSet) -> Result<Vec<Arc<GroupMatrix>>> {
        self.matrices.group_matrices(&self.snapshot, &self.grouping, measured)
    }
}

/// A calibrated QuFEM instance: the output of the characterization flow,
/// ready to calibrate arbitrarily many measured distributions.
///
/// # Example
///
/// ```no_run
/// use qufem_core::{QuFem, QuFemConfig};
/// use qufem_device::presets;
/// use qufem_types::QubitSet;
///
/// let device = presets::ibmq_7(1);
/// let qufem = QuFem::characterize(&device, QuFemConfig::default())?;
/// # let measured_dist = qufem_types::ProbDist::point_mass(qufem_types::BitString::zeros(7));
/// let calibrated = qufem.calibrate(&measured_dist, &QubitSet::full(7))?;
/// # Ok::<(), qufem_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuFem {
    config: QuFemConfig,
    n_qubits: usize,
    iterations: Vec<IterationParams>,
    benchgen_report: Option<BenchGenReport>,
    characterization_engine_stats: EngineStats,
}

impl QuFem {
    /// Reassembles a calibrator from previously exported parts (used by the
    /// persistence layer; see [`QuFem::import`]).
    pub(crate) fn from_parts(
        config: QuFemConfig,
        n_qubits: usize,
        iterations: Vec<IterationParams>,
        benchgen_report: Option<crate::benchgen::BenchGenReport>,
    ) -> Self {
        QuFem {
            config,
            n_qubits,
            iterations,
            benchgen_report,
            characterization_engine_stats: EngineStats::default(),
        }
    }

    /// Runs the full characterization flow (paper Algorithm 1) against a
    /// device: adaptive benchmark generation, then `L` rounds of
    /// interaction-graph partitioning and benchmark self-calibration.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation, benchmark-generation budget
    /// exhaustion, and matrix-generation failures.
    pub fn characterize(device: &Device, config: QuFemConfig) -> Result<Self> {
        Self::characterize_with_threads(device, config, parallel::configured_threads())
    }

    /// [`QuFem::characterize`] with an explicit worker count for both the
    /// benchmark sampling and the self-calibration fan-out. The result is
    /// **bit-identical at any `threads`**; `characterize` delegates here
    /// with [`parallel::configured_threads`].
    ///
    /// # Errors
    ///
    /// Propagates configuration validation, benchmark-generation budget
    /// exhaustion, and matrix-generation failures.
    pub fn characterize_with_threads(
        device: &Device,
        config: QuFemConfig,
        threads: usize,
    ) -> Result<Self> {
        let _span = qufem_telemetry::span!("characterize");
        config.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let (snapshot, report) =
            benchgen::generate_with_threads(device, &config, &mut rng, threads)?;
        let mut qufem = Self::self_calibrate(snapshot, config, threads)?;
        qufem.benchgen_report = Some(report);
        Ok(qufem)
    }

    /// Runs Algorithm 1 lines 2–13 on an already-collected benchmarking
    /// snapshot (`BP_1`). Useful for ablations that substitute their own
    /// benchmark generation (paper Figure 13a) and for replaying stored
    /// hardware data.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and matrix-generation failures.
    pub fn from_snapshot(snapshot: BenchmarkSnapshot, config: QuFemConfig) -> Result<Self> {
        Self::from_snapshot_with_threads(snapshot, config, parallel::configured_threads())
    }

    /// [`QuFem::from_snapshot`] with an explicit worker count.
    ///
    /// Each iteration fans out twice: the per-measured-set plan builds
    /// (all distinct sets up front, instead of lazily on first hit) and the
    /// per-record Eq. 7 self-calibration. Both are pure per-item maps whose
    /// results merge in submission order, and [`EngineStats::merge`] is a
    /// sum of integer counters — so the iterations, the merged stats, and
    /// the exported JSON are **bit-identical at any `threads`**, including
    /// the sequential path.
    ///
    /// Runs under one `characterize` telemetry span, as
    /// [`QuFem::characterize_with_threads`] does (whose span also covers
    /// benchmark generation, with no second one nested inside).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and matrix-generation failures.
    pub fn from_snapshot_with_threads(
        snapshot: BenchmarkSnapshot,
        config: QuFemConfig,
        threads: usize,
    ) -> Result<Self> {
        let _span = qufem_telemetry::span!("characterize");
        Self::self_calibrate(snapshot, config, threads)
    }

    /// [`QuFem::from_snapshot_with_threads`] without its span: the body
    /// both characterization entry points share.
    fn self_calibrate(
        snapshot: BenchmarkSnapshot,
        config: QuFemConfig,
        threads: usize,
    ) -> Result<Self> {
        config.validate()?;
        let threads = threads.max(1);
        let n = snapshot.n_qubits();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let mut iterations = Vec::with_capacity(config.iterations);
        let mut stats = EngineStats::default();
        let mut penalized: HashSet<(usize, usize)> = HashSet::new();
        let mut current = Arc::new(snapshot);

        for i in 0..config.iterations {
            let _iteration_span = qufem_telemetry::span!("iteration", i);
            let mut phases = qufem_telemetry::PhaseSet::new();
            let mut iter_stats = EngineStats::default();

            // Line 3: partition a weighted qubit graph based on BP_i.
            let grouping = {
                let _phase = phases.enter("partition");
                if config.random_grouping {
                    partition::partition_random(n, config.max_group_size, &mut rng)
                } else {
                    let table = InteractionTable::build(&current);
                    partition::partition_weighted(
                        n,
                        &|a, b| table.weight(a, b),
                        config.max_group_size,
                        &penalized,
                        config.regroup_penalty,
                    )
                }
            };
            penalized.extend(grouped_pairs(&grouping));

            // Line 4: record G_i and BP_i (shared, not deep-copied).
            let params =
                IterationParams::new(grouping, Arc::clone(&current), config.joint_group_estimation);

            // Lines 5–10: update every benchmarking distribution with Eq. 7.
            // Self-calibration always prunes at least at
            // MIN_CHARACTERIZATION_BETA: a literal β = 0 here would expand
            // every benchmarking distribution over the full product space
            // (4^groups outputs per string). The β under study still applies
            // unmodified in the calibration flow.
            let char_beta = config.beta.max(MIN_CHARACTERIZATION_BETA);

            // Records sharing a measured set (the common case: full-register
            // benchmark circuits) share one plan. All distinct sets are built
            // up front, concurrently; their group matrices come from the
            // iteration's table, which builds each (group, g∩) once.
            let mut set_index: HashMap<QubitSet, usize> = HashMap::new();
            let mut sets: Vec<QubitSet> = Vec::new();
            let record_set: Vec<usize> = current
                .records()
                .iter()
                .map(|record| {
                    let measured = record.measured_set();
                    *set_index.entry(measured.clone()).or_insert_with(|| {
                        sets.push(measured);
                        sets.len() - 1
                    })
                })
                .collect();
            let built: Vec<(IterationPlan, u64)> =
                parallel::try_map_in_order(&sets, threads, |_, measured| {
                    let start = phase_clock();
                    let groups = params.group_matrices(measured)?;
                    let positions: Vec<usize> = measured.iter().collect();
                    let plan = IterationPlan::build(&positions, &groups, char_beta);
                    Ok((plan, phase_micros(start)))
                })?;
            qufem_telemetry::counter_add("characterize.plan_builds", built.len() as u64);
            let plans: Vec<Arc<IterationPlan>> = {
                let mut plans = Vec::with_capacity(built.len());
                let mut matrix_gen_us = 0u64;
                for (plan, us) in built {
                    matrix_gen_us += us;
                    plans.push(Arc::new(plan));
                }
                phases.add_micros("matrix-gen", matrix_gen_us, plans.len() as u64);
                plans
            };

            // One arena per contiguous chunk of records, reused record over
            // record: a worker keeps one emission stream and one fold run,
            // and builds each next-iteration record (its marginals
            // included) itself, so the merge below only moves them.
            let records = current.records();
            let chunk = records.len().div_ceil(threads).max(1);
            let chunks: Vec<_> = records.chunks(chunk).collect();
            let record_results: Vec<Vec<(BenchmarkRecord, EngineStats, u64)>> =
                parallel::map_in_order(&chunks, threads, |c, chunk_records| {
                    let mut arena = ExecArena::with_shards(1);
                    let mut results = Vec::with_capacity(chunk_records.len());
                    for (k, record) in chunk_records.iter().enumerate() {
                        let start = phase_clock();
                        let plan = std::slice::from_ref(&plans[record_set[c * chunk + k]]);
                        arena.run_chain(plan, &SupportIndex::from_dist(record.dist()), 1);
                        let local = arena.local_stats().clone();
                        // `to_dist` copies into exactly sized buffers: the
                        // next snapshot keeps every record's output, so
                        // growth slack would stay resident.
                        let updated = arena.out().to_dist();
                        let us = phase_micros(start);
                        results.push((
                            BenchmarkRecord::new(record.circuit().clone(), updated),
                            local,
                            us,
                        ));
                    }
                    results
                });
            qufem_telemetry::counter_add("characterize.records", records.len() as u64);
            let mut next = BenchmarkSnapshot::new(n);
            let mut engine_us = 0u64;
            for (updated, local, us) in record_results.into_iter().flatten() {
                // Record-order merge: EngineStats::merge sums integer
                // counters, so this equals the sequential accumulation.
                iter_stats.merge(&local);
                engine_us += us;
                next.push(updated);
            }
            phases.add_micros("engine", engine_us, next.len() as u64);

            iter_stats.publish();
            stats.merge(&iter_stats);
            phases.emit();
            iterations.push(params);
            current = Arc::new(next);
        }

        Ok(QuFem {
            config,
            n_qubits: n,
            iterations,
            benchgen_report: None,
            characterization_engine_stats: stats,
        })
    }

    /// Number of device qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The configuration used for characterization.
    pub fn config(&self) -> &QuFemConfig {
        &self.config
    }

    /// Per-iteration calibration parameters `CP = [G_i], [BP_i]`.
    pub fn iterations(&self) -> &[IterationParams] {
        &self.iterations
    }

    /// The benchmark-generation report, if this instance was characterized
    /// against a device (absent for [`QuFem::from_snapshot`]).
    pub fn benchgen_report(&self) -> Option<&BenchGenReport> {
        self.benchgen_report.as_ref()
    }

    /// Engine counters accumulated while self-calibrating the benchmarking
    /// distributions during characterization.
    pub fn characterization_engine_stats(&self) -> &EngineStats {
        &self.characterization_engine_stats
    }

    /// Pre-generates the per-iteration sub-noise matrices for a measured
    /// qubit set and resolves them into execution plans (paper Algorithm 2,
    /// line 3). The result can calibrate any number of distributions over
    /// the same measured qubits without regenerating matrices or plans.
    ///
    /// # Errors
    ///
    /// Returns [`Error::QubitOutOfRange`] if `measured` references a qubit
    /// beyond the device and propagates matrix-generation failures.
    pub fn prepare(&self, measured: &QubitSet) -> Result<PreparedCalibration> {
        self.prepare_with_threads(measured, parallel::configured_threads())
    }

    /// [`QuFem::prepare`] with an explicit worker count: the `L` iterations
    /// fan out, each taking its group matrices from its table (building only
    /// intersections no earlier reader met) and building its plan. The
    /// prepared plans are **bit-identical at any `threads`**.
    ///
    /// # Errors
    ///
    /// Returns [`Error::QubitOutOfRange`] if `measured` references a qubit
    /// beyond the device and propagates matrix-generation failures.
    pub fn prepare_with_threads(
        &self,
        measured: &QubitSet,
        threads: usize,
    ) -> Result<PreparedCalibration> {
        let _span = qufem_telemetry::span!("prepare");
        if let Some(&max) = measured.as_slice().last() {
            if max >= self.n_qubits {
                return Err(Error::QubitOutOfRange { index: max, width: self.n_qubits });
            }
        }
        let positions: Vec<usize> = measured.iter().collect();
        let plans = parallel::try_map_in_order(&self.iterations, threads, |_, params| {
            let groups = params.group_matrices(measured)?;
            Ok(Arc::new(IterationPlan::build(&positions, &groups, self.config.beta)))
        })?;
        // Seed the arena pool at prepare time so the first apply starts from
        // a sized arena (and `engine.arena_bytes` lands in the prepare-phase
        // telemetry manifest, not mid-serving).
        let arenas = Arc::new(ArenaPool::default());
        arenas.put_back(ExecArena::with_shards(parallel::configured_threads()));
        Ok(PreparedCalibration { width: positions.len(), plans, arenas })
    }

    /// Calibrates one measured distribution (paper Algorithm 2).
    ///
    /// The result is a quasi-probability distribution; apply
    /// [`ProbDist::project_to_probabilities`] before fidelity computations.
    ///
    /// # Errors
    ///
    /// Propagates [`QuFem::prepare`] failures and width mismatches.
    pub fn calibrate(&self, dist: &ProbDist, measured: &QubitSet) -> Result<ProbDist> {
        self.prepare(measured)?.apply(dist)
    }

    /// The effective full noise matrix `M_eff = M_1 · M_2 · … · M_L` that
    /// this instance's calibration inverts, over a small measured set —
    /// used for the Hilbert–Schmidt accuracy comparison of paper Table 1.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResourceExhausted`] if `measured.len() > max_qubits`.
    pub fn effective_noise_matrix(&self, measured: &QubitSet, max_qubits: usize) -> Result<Matrix> {
        let m = measured.len();
        if m > max_qubits {
            return Err(Error::ResourceExhausted(format!(
                "effective noise matrix for {m} qubits exceeds the {max_qubits}-qubit bound"
            )));
        }
        let positions: Vec<usize> = measured.iter().collect();
        let dim = 1usize << m;
        let mut effective: Option<Matrix> = None;
        for params in &self.iterations {
            let groups = params.group_matrices(measured)?;
            let mut full = Matrix::zeros(dim, dim);
            for x in 0..dim {
                let xb = BitString::from_index(x, m).expect("x < 2^m");
                for y in 0..dim {
                    let yb = BitString::from_index(y, m).expect("y < 2^m");
                    let mut p = 1.0;
                    for g in &groups {
                        let (xg, yg) = sub_indices(g, &positions, &xb, &yb);
                        p *= g.matrix().get(xg, yg);
                        if p == 0.0 {
                            break;
                        }
                    }
                    full.set(x, y, p);
                }
            }
            effective = Some(match effective {
                None => full,
                Some(acc) => acc.matmul(&full)?,
            });
        }
        effective.ok_or_else(|| Error::InvalidConfig("no iterations configured".into()))
    }

    /// Approximate heap usage of the stored calibration parameters, in
    /// bytes (Table 5 memory accounting): snapshots, groupings and the
    /// matrix tables, which grow as new intersections are prepared.
    pub fn heap_bytes(&self) -> usize {
        self.iterations
            .iter()
            .map(|p| {
                p.snapshot.heap_bytes()
                    + p.matrices.heap_bytes()
                    + p.grouping
                        .iter()
                        .map(|g| g.len() * std::mem::size_of::<usize>())
                        .sum::<usize>()
            })
            .sum()
    }
}

fn sub_indices(
    group: &GroupMatrix,
    positions: &[usize],
    x: &BitString,
    y: &BitString,
) -> (usize, usize) {
    let mut xg = 0usize;
    let mut yg = 0usize;
    for (k, q) in group.qubits().iter().enumerate() {
        let pos = positions.binary_search(q).expect("group qubit must be measured");
        xg |= (x.get(pos) as usize) << k;
        yg |= (y.get(pos) as usize) << k;
    }
    (xg, yg)
}

/// Generates the sub-noise matrices of all groups intersecting `measured`
/// (paper Eq. 10–11), in deterministic group order.
pub fn build_group_matrices(
    snapshot: &BenchmarkSnapshot,
    grouping: &Grouping,
    measured: &QubitSet,
) -> Result<Vec<GroupMatrix>> {
    build_group_matrices_with(snapshot, grouping, measured, false)
}

/// [`build_group_matrices`] with selectable estimation (`joint = true`
/// additionally captures correlated readout inside each group).
///
/// Builds every matrix afresh: the uncached reference for the per-iteration
/// [`MatrixTable`] the flows read through.
pub fn build_group_matrices_with(
    snapshot: &BenchmarkSnapshot,
    grouping: &Grouping,
    measured: &QubitSet,
    joint: bool,
) -> Result<Vec<GroupMatrix>> {
    let mut groups = Vec::with_capacity(grouping.len());
    for group in grouping {
        groups.extend(group_noise_matrix_with(snapshot, group, measured, joint)?);
    }
    Ok(groups)
}

/// Starts a phase stopwatch on a parallel worker — `None` (free) when the
/// telemetry collector is disabled.
fn phase_clock() -> Option<Instant> {
    qufem_telemetry::enabled().then(Instant::now)
}

/// Elapsed microseconds of a [`phase_clock`] stopwatch.
fn phase_micros(start: Option<Instant>) -> u64 {
    start.map_or(0, |s| s.elapsed().as_micros() as u64)
}

/// Per-iteration execution plans pre-resolved for one measured qubit set
/// (see [`QuFem::prepare`]): group matrices, bit extraction masks, and
/// pruning thresholds, shared read-only across every distribution
/// calibrated against them.
///
/// Two apply entry points: the `ProbDist` path
/// ([`PreparedMitigator::apply_with_stats`] and its `apply` convenience)
/// runs through a pool of warmed [`ExecArena`]s (shared across clones), so
/// steady-state calibration performs no engine heap allocations — only the
/// `ProbDist` boundary conversions allocate. Callers that keep their data
/// indexed hold their own arena and use
/// [`PreparedCalibration::apply_arena`], skipping those too.
#[derive(Debug, Clone)]
pub struct PreparedCalibration {
    width: usize,
    plans: Vec<Arc<IterationPlan>>,
    arenas: Arc<ArenaPool>,
}

impl PreparedCalibration {
    /// Number of measured qubits the plans were prepared for (the required
    /// input distribution width).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Calibrates one distribution over the prepared measured set (the
    /// [`PreparedMitigator::apply`] convenience, callable without importing
    /// the trait).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if the distribution width differs
    /// from the measured set size.
    pub fn apply(&self, dist: &ProbDist) -> Result<ProbDist> {
        PreparedMitigator::apply(self, dist)
    }

    /// The fully zero-allocation apply path: calibrates an already-indexed
    /// support (canonical sorted order, as produced by
    /// [`SupportIndex::from_dist`]) through a caller-held [`ExecArena`],
    /// returning a borrow of the arena's output index. After a warm-up call
    /// with a representative input, repeat calls perform **zero heap
    /// allocations** — `crates/core/tests/apply_zero_alloc.rs` pins this.
    ///
    /// Output and stats are bit-identical at every `threads`, and to the
    /// `ProbDist` path ([`PreparedMitigator::apply_with_stats`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if the input width differs from the
    /// measured set size.
    pub fn apply_arena<'a>(
        &self,
        input: &SupportIndex,
        threads: usize,
        stats: &mut EngineStats,
        arena: &'a mut ExecArena,
    ) -> Result<&'a SupportIndex> {
        if input.width() != self.width {
            return Err(Error::WidthMismatch { expected: self.width, actual: input.width() });
        }
        let _span = qufem_telemetry::span!("calibrate", "QuFEM");
        arena.run_chain(&self.plans, input, threads);
        arena.local_stats().publish();
        stats.merge(arena.local_stats());
        Ok(arena.out())
    }

    /// An arena sized for this calibration's configured parallelism, for use
    /// with [`PreparedCalibration::apply_arena`]. It is taken from the pool
    /// behind the `ProbDist` path when one sits idle there (already warmed
    /// by earlier applies, and not duplicated in memory), else created.
    pub fn new_arena(&self) -> ExecArena {
        self.arenas.checkout(parallel::configured_threads())
    }

    /// Number of calibration iterations.
    pub fn n_iterations(&self) -> usize {
        self.plans.len()
    }

    /// Total number of group matrices across iterations.
    pub fn n_matrices(&self) -> usize {
        self.plans.iter().map(|p| p.n_groups()).sum()
    }

    /// Approximate heap usage in bytes (Table 5 memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.plans.iter().map(|p| p.heap_bytes()).sum()
    }
}

impl PreparedMitigator for PreparedCalibration {
    fn width(&self) -> usize {
        self.width
    }

    /// The one `ProbDist` path: index, run the plan chain on a pooled
    /// [`ExecArena`] at [`parallel::configured_threads`] (output is
    /// bit-identical at any thread count), convert back. Once the pooled
    /// arena is warm, only the boundary conversions allocate.
    fn apply_with_stats(&self, dist: &ProbDist, stats: &mut EngineStats) -> Result<ProbDist> {
        let threads = parallel::configured_threads();
        let mut arena = self.arenas.checkout(threads);
        let out = self
            .apply_arena(&SupportIndex::from_dist(dist), threads, stats, &mut arena)
            .map(SupportIndex::to_dist);
        self.arenas.put_back(arena);
        out
    }

    fn reports_engine_stats(&self) -> bool {
        true
    }

    fn heap_bytes(&self) -> usize {
        PreparedCalibration::heap_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_device::presets;
    use qufem_metrics::hellinger_fidelity;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fast_config() -> QuFemConfig {
        QuFemConfig::builder().characterization_threshold(5e-4).shots(500).seed(3).build().unwrap()
    }

    #[test]
    fn characterize_produces_requested_iterations() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        assert_eq!(qufem.iterations().len(), 2);
        assert_eq!(qufem.n_qubits(), 7);
        assert!(qufem.benchgen_report().is_some());
        for params in qufem.iterations() {
            assert!(partition::is_valid_partition(params.grouping(), 7, 2));
        }
    }

    #[test]
    fn calibration_improves_ghz_fidelity() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let ideal = qufem_circuits::ghz(7);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let noisy = device.measure_distribution(&ideal, &measured, 4000, &mut rng);
        let calibrated = qufem.calibrate(&noisy, &measured).unwrap().clip_to_probabilities();
        let before = hellinger_fidelity(&noisy, &ideal);
        let after = hellinger_fidelity(&calibrated, &ideal);
        assert!(
            after > before,
            "calibration should improve fidelity: before {before:.4}, after {after:.4}"
        );
    }

    #[test]
    fn calibration_approximately_preserves_mass() {
        let device = presets::ibmq_7(2);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let ideal = qufem_circuits::ghz(7);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let noisy = device.measure_distribution(&ideal, &measured, 2000, &mut rng);
        let calibrated = qufem.calibrate(&noisy, &measured).unwrap();
        assert!((calibrated.total_mass() - 1.0).abs() < 0.05);
    }

    #[test]
    fn apply_propagates_width_errors() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let prepared = qufem.prepare(&QubitSet::full(7)).unwrap();
        let wrong = ProbDist::point_mass(BitString::zeros(3));
        let mut stats = EngineStats::default();
        assert!(matches!(
            prepared.apply_with_stats(&wrong, &mut stats),
            Err(Error::WidthMismatch { expected: 7, actual: 3 })
        ));
        let mut arena = prepared.new_arena();
        let wrong = SupportIndex::from_dist(&wrong);
        assert!(prepared.apply_arena(&wrong, 2, &mut stats, &mut arena).is_err());
        assert_eq!(stats, EngineStats::default());
    }

    #[test]
    fn prepared_calibration_reusable_across_distributions() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let prepared = qufem.prepare(&measured).unwrap();
        assert_eq!(prepared.n_iterations(), 2);
        assert!(prepared.n_matrices() > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for seed in 0..3u64 {
            let ideal = qufem_circuits::Algorithm::Vqc.ideal_distribution(7, seed);
            let noisy = device.measure_distribution(&ideal, &measured, 1000, &mut rng);
            let a = prepared.apply(&noisy).unwrap();
            let b = qufem.calibrate(&noisy, &measured).unwrap();
            assert_eq!(a.sorted_pairs(), b.sorted_pairs());
        }
    }

    #[test]
    fn partial_measurement_calibration() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured: QubitSet = [1usize, 3, 5].into_iter().collect();
        let ideal = qufem_circuits::ghz(3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let noisy = device.measure_distribution(&ideal, &measured, 4000, &mut rng);
        let calibrated = qufem.calibrate(&noisy, &measured).unwrap().clip_to_probabilities();
        let before = hellinger_fidelity(&noisy, &ideal);
        let after = hellinger_fidelity(&calibrated, &ideal);
        assert!(after >= before - 1e-6, "partial calibration must not hurt: {before} → {after}");
    }

    #[test]
    fn width_mismatch_is_reported() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured = QubitSet::full(7);
        let wrong = ProbDist::point_mass(BitString::zeros(3));
        assert!(matches!(qufem.calibrate(&wrong, &measured), Err(Error::WidthMismatch { .. })));
    }

    #[test]
    fn out_of_range_measured_set_is_reported() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured: QubitSet = [0usize, 9].into_iter().collect();
        assert!(matches!(
            qufem.prepare(&measured),
            Err(Error::QubitOutOfRange { index: 9, width: 7 })
        ));
    }

    #[test]
    fn effective_matrix_close_to_golden() {
        let device = presets::ibmq_7(1);
        let qufem = QuFem::characterize(&device, fast_config()).unwrap();
        let measured: QubitSet = [0usize, 1, 2].into_iter().collect();
        let effective = qufem.effective_noise_matrix(&measured, 6).unwrap();
        let golden = device.golden_noise_matrix(&measured, 6).unwrap();
        let d = qufem_metrics::hilbert_schmidt_distance(&golden, &effective);
        assert!(d < 0.05, "HS distance to golden should be small, got {d}");
        assert!(effective.is_column_stochastic(0.05));
    }

    #[test]
    fn random_grouping_ablation_still_calibrates() {
        let device = presets::ibmq_7(4);
        let config = QuFemConfig::builder()
            .characterization_threshold(5e-4)
            .shots(500)
            .random_grouping(true)
            .seed(4)
            .build()
            .unwrap();
        let qufem = QuFem::characterize(&device, config).unwrap();
        let measured = QubitSet::full(7);
        let ideal = qufem_circuits::ghz(7);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let noisy = device.measure_distribution(&ideal, &measured, 4000, &mut rng);
        let calibrated = qufem.calibrate(&noisy, &measured).unwrap().clip_to_probabilities();
        assert!(hellinger_fidelity(&calibrated, &ideal) > 0.5);
    }

    #[test]
    fn characterization_is_deterministic_in_seed() {
        let device_a = presets::ibmq_7(1);
        let device_b = presets::ibmq_7(1);
        let a = QuFem::characterize(&device_a, fast_config()).unwrap();
        let b = QuFem::characterize(&device_b, fast_config()).unwrap();
        for (pa, pb) in a.iterations().iter().zip(b.iterations()) {
            assert_eq!(pa.grouping(), pb.grouping());
        }
    }
}
