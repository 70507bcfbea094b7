//! The sparse tensor-product engine (paper §4.2), split into a *plan* built
//! once per iteration and a pure *execute* step.
//!
//! One calibration iteration computes, for every nonzero input bit string
//! `x` with probability `p(x)`,
//!
//! ```text
//! p(x) · ( M_1⁻¹|x_1⟩ ⊗ M_2⁻¹|x_2⟩ ⊗ … ⊗ M_K⁻¹|x_K⟩ )
//! ```
//!
//! and accumulates the results (paper Eq. 7). The engine walks the chain of
//! tensor products depth-first, carrying the running partial product, and
//! **prunes any intermediate value whose magnitude falls below `β`** — the
//! paper's key acceleration: sparsity compounds along the chain, so the
//! number of surviving intermediates stays polynomial (Figure 8) instead of
//! exponential.
//!
//! Following the paper's Figure 6, the pruned quantities are the *unscaled*
//! tensor products of the per-group columns `M_j⁻¹|x_j⟩` — the input
//! probability `p(x)` multiplies the surviving products only at
//! accumulation time. Pruning on `p(x)`-scaled values instead would wipe
//! out the entire correction series of low-probability strings (every
//! sampled outcome at 2000 shots has `p ≈ 5·10⁻⁴`, so scaled second-order
//! terms sit below any useful β), biasing the calibrated distribution.
//!
//! A second, *scaled* cutoff at `β · 10⁻¹` guards the other direction:
//! across multiple iterations the output support would otherwise grow by
//! the full per-string expansion each round (an entry of magnitude `10⁻⁸`
//! re-expanding into thousands of `10⁻¹⁰` descendants). Branches whose
//! final contribution `|p(x) · v|` falls under the scaled floor carry no
//! statistical weight at realistic shot counts and are cut — this is what
//! keeps `NZ_i` "typically below the number of shots" across iterations
//! (paper §3.1).
//!
//! ## Plan / execute split
//!
//! Everything that depends only on the iteration — group-local bit
//! positions, word-level extraction shifts and scatter masks, the `M⁻¹`
//! columns — is resolved once into an [`IterationPlan`]. [`execute`] then
//! runs the chain walk over a [`SupportIndex`] with pure array arithmetic:
//! no hash lookups on `BitString`s, no per-bit `get`/`set` calls, no
//! re-deriving positions per string. The same plan is shared across every
//! distribution in a batch and every string in a distribution.
//!
//! [`crate::ExecArena::run_chain`] adds deterministic intra-distribution
//! parallelism: the sorted input support is cut into contiguous shards, each
//! worker *records* its (key, value) emission stream instead of
//! accumulating, and a serial merge replays the streams in shard order.
//! Because shard order concatenated equals the sequential emission order,
//! every per-key float fold associates identically — the sharded output is
//! **bit-identical** to the sequential one for any thread count.

use crate::noisematrix::GroupMatrix;
use qufem_types::{ProbDist, SupportIndex};
use serde::{Deserialize, Serialize};

/// Ratio between the relative threshold `β` and the absolute (scaled)
/// floor: a branch is also cut when `|p(x) · v| < β · ABS_FLOOR_RATIO`.
/// At the default `β = 10⁻⁵` the floor sits at `10⁻⁶` — well below the
/// `1/shots ≈ 5·10⁻⁴` resolution of the input data, so only statistically
/// meaningless branches are cut, while the per-string fan-out stays in the
/// hundreds instead of the tens of thousands.
const ABS_FLOOR_RATIO: f64 = 1e-1;

/// Instrumentation counters for the engine, feeding the paper's Figure 8
/// (intermediate-value counts along the chain) and Table 5 (memory
/// accounting). Serializable so calibration services can report the exact
/// per-request engine work over the wire.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Partial products evaluated (kept + pruned).
    pub products: u64,
    /// Partial products abandoned because `|value| < β`.
    pub pruned: u64,
    /// Completed products accumulated into the output.
    pub accumulated: u64,
    /// Input strings forwarded unchanged because their probability sits
    /// below the engine's resolution `β` (accumulated residue of earlier
    /// iterations).
    pub passthrough: u64,
    /// Surviving intermediate values per chain position (group index):
    /// `kept_per_level[j]` counts partial products that passed level `j`.
    pub kept_per_level: Vec<u64>,
    /// Largest output support observed across iterations.
    pub peak_output_support: usize,
}

impl EngineStats {
    /// Merges another stats object into this one (levels are summed
    /// element-wise, the peak is the maximum). All counters are integers,
    /// so merging shard-local stats in any order reproduces the sequential
    /// counts exactly.
    pub fn merge(&mut self, other: &EngineStats) {
        self.products += other.products;
        self.pruned += other.pruned;
        self.accumulated += other.accumulated;
        self.passthrough += other.passthrough;
        if self.kept_per_level.len() < other.kept_per_level.len() {
            self.kept_per_level.resize(other.kept_per_level.len(), 0);
        }
        for (a, b) in self.kept_per_level.iter_mut().zip(&other.kept_per_level) {
            *a += b;
        }
        self.peak_output_support = self.peak_output_support.max(other.peak_output_support);
    }

    /// Returns the stats to their freshly-constructed state (all counters
    /// zero, no per-level history) while keeping `kept_per_level`'s buffer
    /// capacity — the arena reuse primitive. A reset-then-merged stats
    /// object compares equal (`PartialEq`, length included) to one built
    /// from `EngineStats::default()`.
    pub fn reset(&mut self) {
        self.products = 0;
        self.pruned = 0;
        self.accumulated = 0;
        self.passthrough = 0;
        self.kept_per_level.clear();
        self.peak_output_support = 0;
    }

    /// Publishes these counters into the global telemetry collector under
    /// the `engine.` namespace; per-level survivor counts become
    /// `engine.kept_level.NNN` counters (zero-padded so prefix queries
    /// return them in chain order). A no-op while the collector is off.
    ///
    /// The flows call this with deltas (fresh per-section stats), so the
    /// collector's counters stay exact sums even across parallel workers.
    pub fn publish(&self) {
        if !qufem_telemetry::enabled() {
            return;
        }
        qufem_telemetry::counter_add("engine.products", self.products);
        qufem_telemetry::counter_add("engine.pruned", self.pruned);
        qufem_telemetry::counter_add("engine.accumulated", self.accumulated);
        qufem_telemetry::counter_add("engine.passthrough", self.passthrough);
        for (level, &kept) in self.kept_per_level.iter().enumerate() {
            qufem_telemetry::counter_add(&format!("engine.kept_level.{level:03}"), kept);
        }
        qufem_telemetry::gauge_max("engine.peak_output_support", self.peak_output_support as f64);
    }
}

/// One group's precomputed execution data inside an [`IterationPlan`].
#[derive(Debug, Clone)]
struct GroupPlan {
    /// `2^k` for a `k`-qubit group — the sub-matrix dimension.
    dim: usize,
    /// `(word, shift)` of each group bit inside a packed key: local bit `k`
    /// of the sub-index is `(words[word] >> shift) & 1`.
    extract: Vec<(u32, u32)>,
    /// Distinct key words this group touches, ascending.
    touched: Vec<u32>,
    /// Per touched word, the mask of this group's bits (to clear before
    /// scattering an outcome).
    clear: Vec<u64>,
    /// Flat `dim × touched.len()` table: row `z` holds the set-bit masks
    /// that write outcome `z` into the touched words.
    set_masks: Vec<u64>,
    /// All `M⁻¹` columns, flat row-major: column `M⁻¹|x⟩` occupies
    /// `[x · dim, (x + 1) · dim)`.
    columns: Vec<f64>,
}

impl GroupPlan {
    fn from_matrix(gm: &GroupMatrix, measured_positions: &[usize]) -> Self {
        let locals: Vec<usize> = gm
            .qubits()
            .iter()
            .map(|q| {
                measured_positions
                    .binary_search(q)
                    .unwrap_or_else(|_| panic!("group qubit {q} not in measured set"))
            })
            .collect();
        let dim = 1usize << locals.len();
        let extract: Vec<(u32, u32)> =
            locals.iter().map(|&p| ((p / 64) as u32, (p % 64) as u32)).collect();
        let mut touched: Vec<u32> = extract.iter().map(|&(w, _)| w).collect();
        touched.sort_unstable();
        touched.dedup();
        let clear: Vec<u64> = touched
            .iter()
            .map(|&w| {
                extract
                    .iter()
                    .filter(|&&(word, _)| word == w)
                    .fold(0u64, |acc, &(_, shift)| acc | (1u64 << shift))
            })
            .collect();
        let mut set_masks = vec![0u64; dim * touched.len()];
        for (z, row) in set_masks.chunks_exact_mut(touched.len()).enumerate() {
            for (k, &(w, shift)) in extract.iter().enumerate() {
                if (z >> k) & 1 == 1 {
                    let ti = touched.binary_search(&w).expect("extract words are in touched");
                    row[ti] |= 1u64 << shift;
                }
            }
        }
        GroupPlan {
            dim,
            extract,
            touched,
            clear,
            set_masks,
            columns: gm.inverse_columns().to_vec(),
        }
    }

    /// Reads this group's sub-index `x_j` out of a packed key.
    #[inline]
    fn sub_index(&self, words: &[u64]) -> usize {
        self.extract.iter().enumerate().fold(0usize, |acc, (k, &(w, s))| {
            acc | ((((words[w as usize] >> s) & 1) as usize) << k)
        })
    }

    /// Scatters outcome `z` into the scratch key words.
    #[inline]
    fn write_outcome(&self, z: usize, scratch: &mut [u64]) {
        let row = &self.set_masks[z * self.touched.len()..(z + 1) * self.touched.len()];
        for (i, &w) in self.touched.iter().enumerate() {
            let wi = w as usize;
            scratch[wi] = (scratch[wi] & !self.clear[i]) | row[i];
        }
    }

    fn heap_bytes(&self) -> usize {
        self.extract.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.touched.capacity() * std::mem::size_of::<u32>()
            + self.clear.capacity() * std::mem::size_of::<u64>()
            + self.set_masks.capacity() * std::mem::size_of::<u64>()
            + self.columns.capacity() * std::mem::size_of::<f64>()
    }
}

/// Everything one calibration iteration needs, resolved once: group-local
/// positions as word/shift pairs, per-outcome scatter masks, the dense
/// `M⁻¹` columns, and the pruning thresholds. Build with
/// [`IterationPlan::build`], run with [`execute`] or, chained and sharded,
/// [`crate::ExecArena::run_chain`].
/// One plan serves every distribution of a batch and every string of a
/// distribution.
#[derive(Debug, Clone)]
pub struct IterationPlan {
    width: usize,
    beta: f64,
    scaled_floor: f64,
    groups: Vec<GroupPlan>,
}

impl IterationPlan {
    /// Resolves `groups` against `measured_positions` (ascending global
    /// qubit indices, one per distribution bit) into an executable plan.
    ///
    /// # Panics
    ///
    /// Panics if a group references a qubit outside `measured_positions`.
    pub fn build(measured_positions: &[usize], groups: &[GroupMatrix], beta: f64) -> Self {
        let _span = qufem_telemetry::span!("plan-build");
        IterationPlan {
            width: measured_positions.len(),
            beta,
            scaled_floor: beta * ABS_FLOOR_RATIO,
            groups: groups
                .iter()
                .map(|gm| GroupPlan::from_matrix(gm, measured_positions))
                .collect(),
        }
    }

    /// Bit width of the distributions this plan applies to.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The pruning threshold the plan was built with.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Number of groups (chain length).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Approximate heap usage in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.groups.iter().map(GroupPlan::heap_bytes).sum::<usize>()
            + self.groups.capacity() * std::mem::size_of::<GroupPlan>()
    }
}

/// Where the chain walk deposits completed products. [`execute`] wires this
/// to a [`SupportIndex`] directly; the arena's shard pool records the
/// emission stream for an order-preserving replay at merge time.
pub(crate) trait EmitSink {
    fn emit(&mut self, words: &[u64], value: f64);
}

/// Accumulates straight into the output index (sequential path).
pub(crate) struct DirectSink<'a> {
    pub(crate) out: &'a mut SupportIndex,
}

impl EmitSink for DirectSink<'_> {
    #[inline]
    fn emit(&mut self, words: &[u64], value: f64) {
        self.out.accumulate(words, value);
    }
}

/// Records the uncombined emission stream: keys interned into a shard-local
/// index (ids in first-emission order), values kept per emission. The merge
/// replays them in shard order, reproducing the sequential fold exactly.
#[derive(Debug)]
pub(crate) struct RecordSink {
    pub(crate) keys: SupportIndex,
    pub(crate) emissions: Vec<(u32, f64)>,
}

impl RecordSink {
    pub(crate) fn new(width: usize) -> Self {
        RecordSink { keys: SupportIndex::new(width), emissions: Vec::new() }
    }

    /// Empties the sink for a new recording pass over `width`-bit keys,
    /// keeping both buffers' capacity (allocation-free reuse).
    pub(crate) fn clear(&mut self, width: usize) {
        self.keys.reset(width);
        self.emissions.clear();
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.keys.heap_bytes() + self.emissions.capacity() * std::mem::size_of::<(u32, f64)>()
    }
}

impl EmitSink for RecordSink {
    #[inline]
    fn emit(&mut self, words: &[u64], value: f64) {
        let id = self.keys.intern(words);
        self.emissions.push((id, value));
    }
}

/// Survivor buffer for one chain node. Groups are a handful of qubits
/// (`dim = 2^k`), so a small fixed stack array covers every realistic plan
/// (`k ≤ 3`); the cold spill path keeps correctness for wider groups.
const CHAIN_GATHER: usize = 8;

/// Walks one group level; returns the sum of the (unscaled) products that
/// reached the leaves, so the caller can compensate for pruned mass.
///
/// Each node runs a branch-light *gather* pass over the column first —
/// products and prune decisions only, no recursion, so `value`, the
/// thresholds, and the counters stay in registers — then descends into the
/// survivors in the same ascending-`z` order. Emission order, float
/// operations, and counter totals are identical to the naive interleaved
/// walk.
#[allow(clippy::too_many_arguments)]
fn chain<S: EmitSink>(
    plan: &IterationPlan,
    mut level: usize,
    mut value: f64,
    input_prob: f64,
    scratch: &mut [u64],
    sub_indices: &[usize],
    stats: &mut EngineStats,
    sink: &mut S,
) -> f64 {
    let beta = plan.beta;
    let scaled_floor = plan.scaled_floor;
    let mut vals = [0.0f64; CHAIN_GATHER];
    // Single-survivor levels (the diagonal-dominant common case) continue
    // this loop in place instead of recursing: `0.0 + x` is bit-exact `x`
    // for every reachable subtree sum, so dropping the one-term fold is
    // float-neutral while eliminating the call overhead along the chain.
    loop {
        if level == plan.groups.len() {
            sink.emit(scratch, input_prob * value);
            stats.accumulated += 1;
            return value;
        }
        let group = &plan.groups[level];
        if group.dim > CHAIN_GATHER {
            return chain_spill(plan, level, value, input_prob, scratch, sub_indices, stats, sink);
        }
        let x = sub_indices[level];
        let column = &group.columns[x * group.dim..(x + 1) * group.dim];
        // Survivors as a bitmask: stores are unconditional and the prune
        // outcome feeds a mask instead of a branch or a compaction cursor,
        // so the gather loop carries no data-dependent serialization.
        let mut mask = 0u32;
        for (z, &factor) in column.iter().enumerate() {
            let v = value * factor;
            let keep = !(v == 0.0 || v.abs() < beta || (input_prob * v).abs() < scaled_floor);
            vals[z] = v;
            mask |= (keep as u32) << z;
        }
        let n_kept = mask.count_ones() as usize;
        stats.products += column.len() as u64;
        stats.pruned += (column.len() - n_kept) as u64;
        stats.kept_per_level[level] += n_kept as u64;
        match n_kept {
            0 => return 0.0,
            1 => {
                let z = mask.trailing_zeros() as usize;
                group.write_outcome(z, scratch);
                value = vals[z];
                level += 1;
            }
            _ => {
                let mut kept_sum = 0.0;
                while mask != 0 {
                    let z = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    group.write_outcome(z, scratch);
                    kept_sum += chain(
                        plan,
                        level + 1,
                        vals[z],
                        input_prob,
                        scratch,
                        sub_indices,
                        stats,
                        sink,
                    );
                }
                return kept_sum;
            }
        }
    }
}

/// [`chain`] for groups wider than [`CHAIN_GATHER`] outcomes. Same order,
/// same floats, same counters.
///
/// The `M⁻¹` column is walked in [`CHAIN_GATHER`]-wide slabs — eight `f64`
/// factors, one 64-byte cache line. Each slab runs the same branch-light
/// gather pass as [`chain`] (unconditional stores, prune decisions folded
/// into a survivor bitmask), then descends into its survivors in ascending
/// `z` order before the next line is touched, so the factor loads for a
/// slab hit a single resident line instead of interleaving with the
/// deep-recursion working set. A `std::simd` gather/compare inner loop
/// would drop in here per slab, but portable SIMD is nightly-only and this
/// crate builds on stable — revisit if that changes.
#[cold]
#[allow(clippy::too_many_arguments)]
fn chain_spill<S: EmitSink>(
    plan: &IterationPlan,
    level: usize,
    value: f64,
    input_prob: f64,
    scratch: &mut [u64],
    sub_indices: &[usize],
    stats: &mut EngineStats,
    sink: &mut S,
) -> f64 {
    let group = &plan.groups[level];
    let x = sub_indices[level];
    let column = &group.columns[x * group.dim..(x + 1) * group.dim];
    let beta = plan.beta;
    let scaled_floor = plan.scaled_floor;
    let mut vals = [0.0f64; CHAIN_GATHER];
    let mut kept_sum = 0.0;
    for (slab, factors) in column.chunks(CHAIN_GATHER).enumerate() {
        let base = slab * CHAIN_GATHER;
        let mut mask = 0u32;
        for (k, &factor) in factors.iter().enumerate() {
            let v = value * factor;
            let keep = !(v == 0.0 || v.abs() < beta || (input_prob * v).abs() < scaled_floor);
            vals[k] = v;
            mask |= (keep as u32) << k;
        }
        let n_kept = mask.count_ones() as usize;
        stats.products += factors.len() as u64;
        stats.pruned += (factors.len() - n_kept) as u64;
        stats.kept_per_level[level] += n_kept as u64;
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            group.write_outcome(base + k, scratch);
            kept_sum +=
                chain(plan, level + 1, vals[k], input_prob, scratch, sub_indices, stats, sink);
        }
    }
    kept_sum
}

/// Runs the chain walk over the input entries `lo..hi` (id order), emitting
/// into `sink`. The per-entry float behaviour — skip exact zeros, forward
/// sub-β strings, expand the rest, compensate the pruned deficit — is the
/// engine's contract; both the sequential and the sharded path go through
/// here.
pub(crate) fn run_range<S: EmitSink>(
    plan: &IterationPlan,
    input: &SupportIndex,
    lo: usize,
    hi: usize,
    stats: &mut EngineStats,
    sink: &mut S,
) {
    // The key-scratch and sub-index buffers live in a thread-local arena:
    // caller threads and pool workers alike pay the allocation once per
    // thread (and once more per growth to a wider plan), never per call.
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        let ScratchBuf { scratch, sub_indices } = &mut *buf;
        scratch.clear();
        scratch.resize(input.words_per_key(), 0);
        sub_indices.clear();
        sub_indices.resize(plan.groups.len(), 0);
        run_entries(plan, input, lo, hi, stats, sink, scratch, sub_indices);
    });
}

/// Per-thread reusable buffers for [`run_range`]: the packed-key scratch the
/// chain walk scatters outcomes into, and the per-group input sub-indices.
struct ScratchBuf {
    scratch: Vec<u64>,
    sub_indices: Vec<usize>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<ScratchBuf> =
        const { std::cell::RefCell::new(ScratchBuf { scratch: Vec::new(), sub_indices: Vec::new() }) };
}

#[allow(clippy::too_many_arguments)]
fn run_entries<S: EmitSink>(
    plan: &IterationPlan,
    input: &SupportIndex,
    lo: usize,
    hi: usize,
    stats: &mut EngineStats,
    sink: &mut S,
    scratch: &mut [u64],
    sub_indices: &mut [usize],
) {
    if stats.kept_per_level.len() < plan.groups.len() {
        stats.kept_per_level.resize(plan.groups.len(), 0);
    }
    for id in lo..hi {
        let p = input.value(id as u32);
        if p == 0.0 {
            continue;
        }
        let words = input.key_words(id as u32);
        // Strings below the engine's resolution β — the residue earlier
        // iterations scattered across the output — are forwarded unchanged:
        // every correction the chain could apply to them is `< β · ε` and
        // walking the full group chain for each would dominate the runtime
        // of later iterations. This is what keeps the working support near
        // the shot count (the paper's `NZ_i` observation, §3.1).
        if p.abs() < plan.beta {
            sink.emit(words, p);
            stats.passthrough += 1;
            continue;
        }
        for (j, group) in plan.groups.iter().enumerate() {
            sub_indices[j] = group.sub_index(words);
        }
        scratch.copy_from_slice(words);
        let kept = chain(plan, 0, 1.0, p, scratch, sub_indices, stats, sink);
        // Mass compensation: every column of M⁻¹ sums to exactly 1, so the
        // pruned branches of this string carried `1 − kept` of its mass.
        // Return the deficit to the string's own image, keeping calibration
        // exactly mass-preserving at any pruning level.
        let deficit = 1.0 - kept;
        if deficit != 0.0 {
            sink.emit(words, p * deficit);
        }
    }
}

/// Applies one calibration iteration to an indexed support (paper Eq. 7).
///
/// The input must be in canonical sorted order ([`SupportIndex::from_dist`]
/// produces it; call [`SupportIndex::sort`] after a previous `execute`) —
/// entry order fixes the float accumulation order, and sorted order is the
/// reproducibility contract shared with [`crate::ExecArena::run_chain`].
pub fn execute(
    plan: &IterationPlan,
    input: &SupportIndex,
    stats: &mut EngineStats,
) -> SupportIndex {
    debug_assert_eq!(input.width(), plan.width, "input width must match the plan");
    let mut out = SupportIndex::with_capacity(plan.width, input.len());
    let mut sink = DirectSink { out: &mut out };
    run_range(plan, input, 0, input.len(), stats, &mut sink);
    stats.peak_output_support = stats.peak_output_support.max(out.len());
    out
}

pub use crate::parallel::configured_threads;

/// Applies one calibration iteration (paper Eq. 7) to a distribution.
///
/// Convenience wrapper over the plan/execute split: builds an
/// [`IterationPlan`], indexes the distribution, executes sequentially, and
/// converts back. Callers applying many distributions or chaining
/// iterations should build the plan once and call [`execute`] or run the
/// chain on a [`crate::ExecArena`] (see `PreparedCalibration`).
///
/// * `dist` — the current distribution `P_i`, one bit per measured qubit;
/// * `measured_positions` — global qubit index of each bit of `dist`
///   (ascending);
/// * `groups` — the per-group inverse noise matrices of this iteration,
///   whose `qubits()` are subsets of `measured_positions`;
/// * `beta` — the pruning threshold (`0.0` disables pruning);
/// * `stats` — instrumentation accumulator.
///
/// Bits of the output at positions covered by no group (possible only if
/// the grouping misses a measured qubit, which the flows never produce) are
/// passed through unchanged.
///
/// # Panics
///
/// Panics if a group references a qubit outside `measured_positions`.
pub fn apply_iteration(
    dist: &ProbDist,
    measured_positions: &[usize],
    groups: &[GroupMatrix],
    beta: f64,
    stats: &mut EngineStats,
) -> ProbDist {
    debug_assert_eq!(
        dist.width(),
        measured_positions.len(),
        "distribution width must match measured positions"
    );
    let plan = IterationPlan::build(measured_positions, groups, beta);
    let input = SupportIndex::from_dist(dist);
    execute(&plan, &input, stats).into_dist()
}

/// The pre-plan/execute engine, retained verbatim: the differential
/// property tests pin the refactored engine to this implementation
/// bit-for-bit, and the `kernels` benchmarks measure the speedup against
/// it. Not part of the supported API surface.
pub mod reference {
    use super::{EngineStats, ABS_FLOOR_RATIO};
    use crate::noisematrix::GroupMatrix;
    use qufem_types::{BitString, ProbDist};

    /// Pre-refactor [`super::apply_iteration`]: per-call position resolve,
    /// per-bit `BitString::get`/`set`, hash-map accumulation.
    ///
    /// # Panics
    ///
    /// Panics if a group references a qubit outside `measured_positions`.
    pub fn apply_iteration(
        dist: &ProbDist,
        measured_positions: &[usize],
        groups: &[GroupMatrix],
        beta: f64,
        stats: &mut EngineStats,
    ) -> ProbDist {
        let m = measured_positions.len();
        debug_assert_eq!(dist.width(), m, "distribution width must match measured positions");
        if stats.kept_per_level.len() < groups.len() {
            stats.kept_per_level.resize(groups.len(), 0);
        }

        // Local (bit-in-distribution) positions of each group's qubits.
        let local_positions: Vec<Vec<usize>> = groups
            .iter()
            .map(|g| {
                g.qubits()
                    .iter()
                    .map(|q| {
                        measured_positions
                            .binary_search(q)
                            .unwrap_or_else(|_| panic!("group qubit {q} not in measured set"))
                    })
                    .collect()
            })
            .collect();

        let mut out = ProbDist::new(m);
        // Deterministic iteration order for reproducible float accumulation.
        for (x, p) in dist.sorted_pairs() {
            if p == 0.0 {
                continue;
            }
            if p.abs() < beta {
                out.add(x, p);
                stats.passthrough += 1;
                continue;
            }
            // Per-group input sub-indices x_j.
            let sub_indices: Vec<usize> = local_positions
                .iter()
                .map(|locals| {
                    locals
                        .iter()
                        .enumerate()
                        .fold(0usize, |acc, (k, &pos)| acc | ((x.get(pos) as usize) << k))
                })
                .collect();
            let mut bits = x.clone();
            let kept = recurse(
                0,
                1.0,
                p,
                &mut bits,
                groups,
                &local_positions,
                &sub_indices,
                beta,
                stats,
                &mut out,
            );
            let deficit = 1.0 - kept;
            if deficit != 0.0 {
                out.add(x, p * deficit);
            }
        }
        stats.peak_output_support = stats.peak_output_support.max(out.support_len());
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        level: usize,
        value: f64,
        input_prob: f64,
        bits: &mut BitString,
        groups: &[GroupMatrix],
        local_positions: &[Vec<usize>],
        sub_indices: &[usize],
        beta: f64,
        stats: &mut EngineStats,
        out: &mut ProbDist,
    ) -> f64 {
        if level == groups.len() {
            out.add(bits.clone(), input_prob * value);
            stats.accumulated += 1;
            return value;
        }
        let column = groups[level].inverse_column(sub_indices[level]);
        let locals = &local_positions[level];
        let scaled_floor = beta * ABS_FLOOR_RATIO;
        let mut kept_sum = 0.0;
        for (z, &factor) in column.iter().enumerate() {
            let v = value * factor;
            stats.products += 1;
            if v == 0.0 || v.abs() < beta || (input_prob * v).abs() < scaled_floor {
                stats.pruned += 1;
                continue;
            }
            stats.kept_per_level[level] += 1;
            for (k, &pos) in locals.iter().enumerate() {
                bits.set(pos, (z >> k) & 1 == 1);
            }
            kept_sum += recurse(
                level + 1,
                v,
                input_prob,
                bits,
                groups,
                local_positions,
                sub_indices,
                beta,
                stats,
                out,
            );
        }
        kept_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noisematrix::group_noise_matrix;
    use crate::snapshot::{BenchmarkRecord, BenchmarkSnapshot};
    use qufem_device::BenchmarkCircuit;
    use qufem_types::{BitString, QubitSet};

    fn bs(s: &str) -> BitString {
        BitString::from_binary_str(s).unwrap()
    }

    /// Snapshot encoding independent 10% error on each of two qubits.
    fn snapshot_10pct(n: usize) -> BenchmarkSnapshot {
        let mut snap = BenchmarkSnapshot::new(n);
        for y in 0..(1usize << n) {
            let prep = BitString::from_index(y, n).unwrap();
            let circuit = BenchmarkCircuit::all_prepared(&prep);
            let mut dist = ProbDist::new(n);
            for x in 0..(1usize << n) {
                let out = BitString::from_index(x, n).unwrap();
                let mut p = 1.0;
                for k in 0..n {
                    p *= if out.get(k) != prep.get(k) { 0.1 } else { 0.9 };
                }
                dist.add(out, p);
            }
            snap.push(BenchmarkRecord::new(circuit, dist));
        }
        snap
    }

    fn matrices_for(
        snap: &BenchmarkSnapshot,
        groups: &[Vec<usize>],
        measured: &QubitSet,
    ) -> Vec<GroupMatrix> {
        groups
            .iter()
            .map(|g| {
                let set: QubitSet = g.iter().copied().collect();
                group_noise_matrix(snap, &set, measured).unwrap().unwrap()
            })
            .collect()
    }

    #[test]
    fn calibration_inverts_known_noise() {
        // Noisy distribution = M applied to a point mass; the engine applied
        // with M⁻¹ must recover the point mass.
        let snap = snapshot_10pct(2);
        let measured = QubitSet::full(2);
        let gms = matrices_for(&snap, &[vec![0], vec![1]], &measured);
        // Noisy observation of ideal |00⟩ under independent 10% flips.
        let noisy = ProbDist::from_pairs(
            2,
            [(bs("00"), 0.81), (bs("10"), 0.09), (bs("01"), 0.09), (bs("11"), 0.01)],
        )
        .unwrap();
        let mut stats = EngineStats::default();
        let calibrated = apply_iteration(&noisy, &[0, 1], &gms, 0.0, &mut stats);
        assert!((calibrated.prob(&bs("00")) - 1.0).abs() < 1e-9);
        assert!(calibrated.prob(&bs("10")).abs() < 1e-9);
        assert!(calibrated.prob(&bs("01")).abs() < 1e-9);
        assert!(calibrated.prob(&bs("11")).abs() < 1e-9);
    }

    #[test]
    fn grouped_matrix_equals_per_qubit_for_independent_noise() {
        let snap = snapshot_10pct(2);
        let measured = QubitSet::full(2);
        let single = matrices_for(&snap, &[vec![0], vec![1]], &measured);
        let joint = matrices_for(&snap, &[vec![0, 1]], &measured);
        let noisy = ProbDist::from_pairs(2, [(bs("00"), 0.9), (bs("11"), 0.1)]).unwrap();
        let mut s1 = EngineStats::default();
        let mut s2 = EngineStats::default();
        let a = apply_iteration(&noisy, &[0, 1], &single, 0.0, &mut s1);
        let b = apply_iteration(&noisy, &[0, 1], &joint, 0.0, &mut s2);
        for (k, v) in a.iter() {
            assert!((v - b.prob(&k)).abs() < 1e-9, "mismatch at {k}: {v} vs {}", b.prob(&k));
        }
    }

    #[test]
    fn total_mass_is_preserved() {
        // Each column of M⁻¹ sums to 1 (inverse of column-stochastic), so
        // calibration preserves total mass when nothing is pruned.
        let snap = snapshot_10pct(3);
        let measured = QubitSet::full(3);
        let gms = matrices_for(&snap, &[vec![0, 1], vec![2]], &measured);
        let noisy = ProbDist::from_pairs(3, [(bs("000"), 0.5), (bs("110"), 0.3), (bs("011"), 0.2)])
            .unwrap();
        let mut stats = EngineStats::default();
        let out = apply_iteration(&noisy, &[0, 1, 2], &gms, 0.0, &mut stats);
        assert!((out.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pruning_reduces_work_and_preserves_bulk() {
        let snap = snapshot_10pct(3);
        let measured = QubitSet::full(3);
        let gms = matrices_for(&snap, &[vec![0], vec![1], vec![2]], &measured);
        let noisy = ProbDist::from_pairs(
            3,
            [(bs("000"), 0.85), (bs("100"), 0.05), (bs("010"), 0.05), (bs("001"), 0.05)],
        )
        .unwrap();
        let mut s_full = EngineStats::default();
        let full = apply_iteration(&noisy, &[0, 1, 2], &gms, 0.0, &mut s_full);
        // Pruning applies to the unscaled per-string products: with 10%
        // flip rates, single off-diagonal factors are ~0.1, so a threshold
        // of 0.05 prunes every correction beyond first order.
        let mut s_pruned = EngineStats::default();
        let pruned = apply_iteration(&noisy, &[0, 1, 2], &gms, 0.05, &mut s_pruned);
        assert!(s_pruned.pruned > 0, "expected pruning to trigger");
        assert!(s_pruned.accumulated < s_full.accumulated);
        // The dominant outcome is barely affected.
        assert!((pruned.prob(&bs("000")) - full.prob(&bs("000"))).abs() < 0.05);
    }

    #[test]
    fn stats_level_counts_decrease_along_chain_with_pruning() {
        let snap = snapshot_10pct(3);
        let measured = QubitSet::full(3);
        let gms = matrices_for(&snap, &[vec![0], vec![1], vec![2]], &measured);
        let noisy = ProbDist::from_pairs(3, [(bs("000"), 1.0)]).unwrap();
        let mut stats = EngineStats::default();
        let _ = apply_iteration(&noisy, &[0, 1, 2], &gms, 0.05, &mut stats);
        assert_eq!(stats.kept_per_level.len(), 3);
        // With a 1e-2 threshold, deep branches die off: monotone non-increase
        // is not guaranteed in general, but survivors at the last level can
        // never exceed 2^3.
        assert!(stats.kept_per_level[2] <= 8);
        assert!(stats.products == stats.pruned + stats.kept_per_level.iter().sum::<u64>());
    }

    #[test]
    fn zero_probability_entries_are_skipped() {
        let snap = snapshot_10pct(2);
        let measured = QubitSet::full(2);
        let gms = matrices_for(&snap, &[vec![0], vec![1]], &measured);
        let mut dist = ProbDist::new(2);
        dist.set(bs("00"), 1.0);
        dist.set(bs("11"), 0.0); // explicit zero entry
        let mut stats = EngineStats::default();
        let out = apply_iteration(&dist, &[0, 1], &gms, 0.0, &mut stats);
        assert!((out.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sub_resolution_strings_pass_through_unchanged() {
        let snap = snapshot_10pct(2);
        let measured = QubitSet::full(2);
        let gms = matrices_for(&snap, &[vec![0], vec![1]], &measured);
        let mut with_tail = ProbDist::new(2);
        with_tail.set(bs("00"), 0.9999);
        with_tail.set(bs("11"), 1e-7); // below β = 1e-5: must pass through as-is
        let mut without_tail = ProbDist::new(2);
        without_tail.set(bs("00"), 0.9999);
        let mut s_with = EngineStats::default();
        let mut s_without = EngineStats::default();
        let out_with = apply_iteration(&with_tail, &[0, 1], &gms, 1e-5, &mut s_with);
        let out_without = apply_iteration(&without_tail, &[0, 1], &gms, 1e-5, &mut s_without);
        assert_eq!(s_with.passthrough, 1);
        assert_eq!(s_without.passthrough, 0);
        // "11" sorts after "00", so the tail is forwarded as one literal
        // `+= 1e-7` after the expansion of "00" lands: the two runs must
        // differ at "11" by exactly that final addition, bit for bit.
        assert_eq!(
            out_with.prob(&bs("11")).to_bits(),
            (out_without.prob(&bs("11")) + 1e-7).to_bits(),
            "passthrough must forward the sub-β entry verbatim"
        );
        // Every other entry is untouched by the tail.
        for key in ["00", "10", "01"] {
            assert_eq!(
                out_with.prob(&bs(key)).to_bits(),
                out_without.prob(&bs(key)).to_bits(),
                "entry {key} must not see the sub-β tail"
            );
        }
    }

    #[test]
    fn pruned_mass_is_compensated_exactly() {
        // Aggressive pruning: only the diagonal path survives, yet the total
        // mass must still be exactly preserved thanks to the per-string
        // deficit compensation.
        let snap = snapshot_10pct(3);
        let measured = QubitSet::full(3);
        let gms = matrices_for(&snap, &[vec![0], vec![1], vec![2]], &measured);
        let noisy = ProbDist::from_pairs(3, [(bs("000"), 0.7), (bs("111"), 0.2), (bs("010"), 0.1)])
            .unwrap();
        let mut stats = EngineStats::default();
        let out = apply_iteration(&noisy, &[0, 1, 2], &gms, 0.5, &mut stats);
        assert!(stats.pruned > 0, "the 0.5 threshold must prune off-diagonals");
        assert!(
            (out.total_mass() - 1.0).abs() < 1e-12,
            "compensation must preserve mass exactly, got {}",
            out.total_mass()
        );
    }

    #[test]
    fn compensation_is_inactive_without_pruning() {
        let snap = snapshot_10pct(2);
        let measured = QubitSet::full(2);
        let gms = matrices_for(&snap, &[vec![0], vec![1]], &measured);
        let noisy = ProbDist::from_pairs(2, [(bs("00"), 0.6), (bs("11"), 0.4)]).unwrap();
        let mut s0 = EngineStats::default();
        let exact = apply_iteration(&noisy, &[0, 1], &gms, 0.0, &mut s0);
        // Exact inversion: M (M⁻¹ p) = p round trip through forward matrices.
        let mut forward = ProbDist::new(2);
        for (k, v) in exact.iter() {
            let x = k.to_index().unwrap();
            for z in 0..4usize {
                let mut p = 1.0;
                for (qi, gm) in gms.iter().enumerate() {
                    p *= gm.matrix().get((z >> qi) & 1, (x >> qi) & 1);
                }
                forward.add(BitString::from_index(z, 2).unwrap(), v * p);
            }
        }
        for (k, v) in noisy.iter() {
            assert!((forward.prob(&k) - v).abs() < 1e-9, "round trip at {k}");
        }
    }

    #[test]
    fn stats_merge_combines_counters() {
        let mut a = EngineStats {
            products: 10,
            pruned: 2,
            accumulated: 8,
            passthrough: 0,
            kept_per_level: vec![5, 3],
            peak_output_support: 4,
        };
        let b = EngineStats {
            products: 1,
            pruned: 1,
            accumulated: 0,
            passthrough: 2,
            kept_per_level: vec![1, 1, 1],
            peak_output_support: 9,
        };
        a.merge(&b);
        assert_eq!(a.products, 11);
        assert_eq!(a.pruned, 3);
        assert_eq!(a.kept_per_level, vec![6, 4, 1]);
        assert_eq!(a.peak_output_support, 9);
    }

    #[test]
    fn partial_measurement_positions_map_correctly() {
        // Distribution over global qubits {1, 3} of a 4-qubit device.
        // Minimal data: an empty snapshot yields identity matrices.
        let snap = BenchmarkSnapshot::new(4);
        let group_a: QubitSet = [1usize].into_iter().collect();
        let group_b: QubitSet = [3usize].into_iter().collect();
        let measured: QubitSet = [1usize, 3].into_iter().collect();
        let gms = vec![
            group_noise_matrix(&snap, &group_a, &measured).unwrap().unwrap(),
            group_noise_matrix(&snap, &group_b, &measured).unwrap().unwrap(),
        ];
        let dist = ProbDist::from_pairs(2, [(bs("10"), 1.0)]).unwrap();
        let mut stats = EngineStats::default();
        let out = apply_iteration(&dist, &[1, 3], &gms, 0.0, &mut stats);
        // Identity matrices: distribution unchanged.
        assert!((out.prob(&bs("10")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plan_execute_matches_reference_bit_for_bit() {
        let snap = snapshot_10pct(3);
        let measured = QubitSet::full(3);
        let gms = matrices_for(&snap, &[vec![0, 1], vec![2]], &measured);
        let noisy = ProbDist::from_pairs(
            3,
            [(bs("000"), 0.6), (bs("110"), 0.25), (bs("011"), 0.15 - 1e-6), (bs("101"), 1e-6)],
        )
        .unwrap();
        for beta in [0.0, 1e-5, 5e-2, 0.5] {
            let mut s_new = EngineStats::default();
            let mut s_old = EngineStats::default();
            let new = apply_iteration(&noisy, &[0, 1, 2], &gms, beta, &mut s_new);
            let old = reference::apply_iteration(&noisy, &[0, 1, 2], &gms, beta, &mut s_old);
            assert_eq!(s_new, s_old, "stats diverge at β = {beta}");
            assert_eq!(new.support_len(), old.support_len(), "support diverges at β = {beta}");
            for (k, v) in old.iter() {
                assert_eq!(
                    new.prob(&k).to_bits(),
                    v.to_bits(),
                    "entry {k} diverges at β = {beta}: {} vs {v}",
                    new.prob(&k)
                );
            }
        }
    }

    #[test]
    fn sharded_execution_is_bit_identical_to_sequential() {
        let snap = snapshot_10pct(3);
        let measured = QubitSet::full(3);
        let gms = matrices_for(&snap, &[vec![0], vec![1, 2]], &measured);
        let noisy = ProbDist::from_pairs(
            3,
            [
                (bs("000"), 0.4),
                (bs("100"), 0.2),
                (bs("010"), 0.15),
                (bs("110"), 0.1),
                (bs("001"), 0.1),
                (bs("111"), 0.05 - 1e-7),
                (bs("011"), 1e-7), // sub-β passthrough inside a shard
            ],
        )
        .unwrap();
        let plan = std::sync::Arc::new(IterationPlan::build(&[0, 1, 2], &gms, 1e-4));
        let input = SupportIndex::from_dist(&noisy);
        let mut s_seq = EngineStats::default();
        let seq = execute(&plan, &input, &mut s_seq);
        let mut arena = crate::ExecArena::with_shards(1);
        for threads in [1, 2, 3, 4, 7, 16] {
            arena.run_chain(std::slice::from_ref(&plan), &input, threads);
            let par = arena.out();
            assert_eq!(arena.local_stats(), &s_seq, "stats diverge at {threads} threads");
            assert_eq!(par.len(), seq.len(), "support diverges at {threads} threads");
            for id in 0..seq.len() as u32 {
                assert_eq!(par.key_words(id), seq.key_words(id), "key order at {threads} threads");
                assert_eq!(
                    par.value(id).to_bits(),
                    seq.value(id).to_bits(),
                    "value {id} diverges at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn plan_reports_shape() {
        let snap = snapshot_10pct(3);
        let measured = QubitSet::full(3);
        let gms = matrices_for(&snap, &[vec![0, 1], vec![2]], &measured);
        let plan = IterationPlan::build(&[0, 1, 2], &gms, 1e-5);
        assert_eq!(plan.width(), 3);
        assert_eq!(plan.n_groups(), 2);
        assert_eq!(plan.beta(), 1e-5);
        assert!(plan.heap_bytes() > 0);
    }
}
