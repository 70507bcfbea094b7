//! The sparse tensor-product engine (paper §4.2), split into a *plan* built
//! once per iteration and a pure execute step that
//! [`crate::ExecArena::run_chain`] runs.
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
//! ## Diagonal runs
//!
//! Most nodes of the walk keep only their diagonal product: `M⁻¹` columns
//! are diagonal-dominant, and an off-diagonal factor times the running
//! product soon falls under `β` or the floor. The plan stores, per group
//! column `x`, the largest off-diagonal magnitude `off_max[x]`. A node
//! whose bound `vmax = |value| · off_max[x]` is below `β`, or whose
//! `|p(x)| · vmax` is below the floor, computes only the diagonal product:
//! round-to-nearest multiplication is monotone, so every off-diagonal
//! product is at most `vmax` in magnitude (and at most `|p(x)| · vmax`
//! once scaled) and the full keep test would prune each of them. The
//! diagonal outcome is the input's own bits, so a run of such levels
//! writes no outcome and restores the bits with one mask when it ends; the
//! counters add what the full gather would have counted. Output bits and
//! [`EngineStats`] are those of the full walk, which
//! [`reference::apply_iteration`] still runs.
//!
//! ## Plan / execute split
//!
//! Everything that depends only on the iteration — group-local bit
//! positions, word-level extraction shifts and scatter masks, the `M⁻¹`
//! columns — is resolved once into an [`IterationPlan`]. The arena then
//! runs the chain walk over a [`qufem_types::SupportIndex`] with pure array
//! arithmetic: no hash lookups on `BitString`s, no per-bit `get`/`set`
//! calls, no re-deriving positions per string. The same plan is shared across every
//! distribution in a batch and every string in a distribution.
//!
//! ## Record → bucket → sort-fold
//!
//! The walk never accumulates. It *records* its raw emission stream — key
//! words and values in emission order, no hashing — and files the stream
//! into fold buckets by the leading key bits with a stable counting sort
//! (`RecordSink`). A fold then takes a contiguous range of buckets and,
//! bucket by bucket, folds every key's emissions from `+0.0` in global
//! emission order, writing the keys in ascending order. Bucket order is key
//! order, so folded bucket ranges concatenate into a canonically sorted
//! output whose ids are sorted ranks — the next iteration's input as it
//! stands. [`crate::ExecArena::run_chain`] is the engine's only entry
//! point: it cuts the sorted input into contiguous shards and the bucket
//! range into partitions balanced by emission count, and runs the record
//! and fold jobs on a shard pool — or, for a small iteration, runs the same
//! jobs as one shard and one partition on the caller's thread. Because
//! every key's fold order is the global emission order (shard order, then
//! order within the shard) whatever the cuts, the output is
//! **bit-identical** to [`reference::apply_iteration`] for any thread
//! count.

use crate::noisematrix::GroupMatrix;
use qufem_types::BitString;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

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
    /// Partial products considered (kept + pruned): one per (node,
    /// outcome) pair of the walk, whether the engine multiplied it or a
    /// diagonal run's bound proved it pruned without multiplying.
    pub products: u64,
    /// Partial products abandoned because `|value| < β` or the scaled
    /// value fell under the floor, counted like `products`.
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
    /// Per column `x`, the largest off-diagonal magnitude
    /// `max_{z ≠ x} |M⁻¹[z][x]|` (NaN if any of them is NaN): the bound
    /// behind [`chain`]'s diagonal run.
    off_max: Vec<f64>,
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
        let columns = gm.inverse_columns().to_vec();
        let off_max = columns
            .chunks_exact(dim)
            .enumerate()
            .map(|(x, column)| {
                column.iter().enumerate().filter(|&(z, _)| z != x).fold(0.0f64, |m, (_, f)| {
                    // `f64::max` would drop a NaN; keep it, so the bound
                    // test compares false and the level takes the gather.
                    if m.is_nan() || f.is_nan() {
                        f64::NAN
                    } else {
                        m.max(f.abs())
                    }
                })
            })
            .collect();
        GroupPlan { dim, extract, touched, clear, set_masks, columns, off_max }
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
            + (self.columns.capacity() + self.off_max.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Everything one calibration iteration needs, resolved once: group-local
/// positions as word/shift pairs, per-outcome scatter masks, the dense
/// `M⁻¹` columns, and the pruning thresholds. Build with
/// [`IterationPlan::build`], run with [`crate::ExecArena::run_chain`].
/// One plan serves every distribution of a batch and every string of a
/// distribution.
#[derive(Debug, Clone)]
pub struct IterationPlan {
    width: usize,
    beta: f64,
    scaled_floor: f64,
    groups: Vec<GroupPlan>,
    /// Flat `n_groups × words` table: row `l` masks the key bits of groups
    /// `l..`, which a diagonal run starting at level `l` restores from the
    /// input key.
    suffix_masks: Vec<u64>,
}

impl IterationPlan {
    /// Resolves `groups` against `measured_positions` (ascending global
    /// qubit indices, one per distribution bit) into an executable plan.
    /// The matrices may be owned or shared (`Arc<GroupMatrix>` from an
    /// iteration's matrix table): the plan copies their columns either way.
    ///
    /// # Panics
    ///
    /// Panics if a group references a qubit outside `measured_positions`.
    pub fn build<G: Borrow<GroupMatrix>>(
        measured_positions: &[usize],
        groups: &[G],
        beta: f64,
    ) -> Self {
        let _span = qufem_telemetry::span!("plan-build");
        let width = measured_positions.len();
        let groups: Vec<GroupPlan> = groups
            .iter()
            .map(|gm| GroupPlan::from_matrix(gm.borrow(), measured_positions))
            .collect();
        let wpk = BitString::words_for_width(width);
        let mut suffix_masks = vec![0u64; groups.len() * wpk];
        let mut below = vec![0u64; wpk];
        for (level, group) in groups.iter().enumerate().rev() {
            for &(w, shift) in &group.extract {
                below[w as usize] |= 1u64 << shift;
            }
            suffix_masks[level * wpk..(level + 1) * wpk].copy_from_slice(&below);
        }
        IterationPlan { width, beta, scaled_floor: beta * ABS_FLOOR_RATIO, groups, suffix_masks }
    }

    /// The engine's keep test for a partial product `v` of an input string
    /// with probability `input_prob`.
    #[inline]
    fn keeps(&self, v: f64, input_prob: f64) -> bool {
        !(v == 0.0 || v.abs() < self.beta || (input_prob * v).abs() < self.scaled_floor)
    }

    /// Copies the key bits of groups `level..` from the input key `words`
    /// into `scratch`: the outcomes a diagonal run from `level` kept.
    #[inline]
    fn restore_suffix(&self, level: usize, words: &[u64], scratch: &mut [u64]) {
        let wpk = scratch.len();
        let masks = &self.suffix_masks[level * wpk..(level + 1) * wpk];
        for ((s, &w), &m) in scratch.iter_mut().zip(words).zip(masks) {
            *s = (*s & !m) | (w & m);
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
            + self.suffix_masks.capacity() * std::mem::size_of::<u64>()
    }
}

/// Leading key bits that pick an emission's fold bucket (fewer for keys
/// narrower than this). Buckets are the unit of the fold: each is folded on
/// its own, and the pooled path cuts the bucket range into partitions, so
/// 2¹¹ buckets leave enough cut points to balance up to sixteen partitions
/// by emission count. On offline-27q (2-vCPU x86-64 VM, 2 threads, seed 1,
/// 3 alternating pairs each) 9 bits ran 12% fewer calibrations per second
/// than 11 bits (21.3 against 24.3/s); 14 bits ran within the spread of
/// 11 bits (25.0 against 24.3/s, interquartile range 1.1–1.4).
pub(crate) const BUCKET_BITS: u32 = 11;

/// How a key maps to its fold bucket: the top `BUCKET_BITS` bits of the
/// first key word's used bits. The first word decides canonical order first
/// ([`qufem_types::SupportIndex::sorted_ids`] compares keys as word
/// slices), so bucket order is key order and sorted buckets concatenate
/// into a sorted support.
#[derive(Debug, Clone, Copy, Default)]
struct Buckets {
    shift: u32,
    count: usize,
}

impl Buckets {
    fn for_width(width: usize) -> Self {
        let lead = width.min(64) as u32;
        let bits = BUCKET_BITS.min(lead);
        Buckets { shift: lead - bits, count: 1 << bits }
    }

    #[inline]
    fn of(self, words: &[u64]) -> usize {
        // Width-0 keys have no words: one bucket. Otherwise `shift ≤ 63`.
        words.first().map_or(0, |&w| (w >> self.shift) as usize)
    }
}

/// One shard's emission stream, recorded raw: key words and values in
/// emission order, no hashing during the walk, plus a per-bucket emission
/// count. [`RecordSink::bucket`] then files the stream by fold bucket with
/// a stable counting sort that moves only `u32` emission indices, and
/// [`fold`] reads the recorded buffers through those indices.
#[derive(Debug, Default)]
pub(crate) struct RecordSink {
    words_per_key: usize,
    buckets: Buckets,
    keys: Vec<u64>,
    values: Vec<f64>,
    /// While recording: emissions per bucket. After [`RecordSink::bucket`]:
    /// `ends[b]` is one past the last position of bucket `b` in `order`.
    ends: Vec<u32>,
    /// After [`RecordSink::bucket`]: emission indices grouped by bucket,
    /// ascending (emission order) within each bucket.
    order: Vec<u32>,
}

impl RecordSink {
    /// Empties the sink for a new recording pass over `width`-bit keys,
    /// keeping every buffer's capacity (allocation-free reuse).
    pub(crate) fn clear(&mut self, width: usize) {
        let buckets = Buckets::for_width(width);
        self.words_per_key = BitString::words_for_width(width);
        self.buckets = buckets;
        self.keys.clear();
        self.values.clear();
        self.ends.clear();
        self.ends.resize(buckets.count, 0);
        self.order.clear();
    }

    #[inline]
    fn emit(&mut self, words: &[u64], value: f64) {
        self.ends[self.buckets.of(words)] += 1;
        self.keys.extend_from_slice(words);
        self.values.push(value);
    }

    #[inline]
    fn key(&self, emission: u32) -> &[u64] {
        let start = emission as usize * self.words_per_key;
        &self.keys[start..start + self.words_per_key]
    }

    /// Number of fold buckets of the recorded key width.
    pub(crate) fn bucket_count(&self) -> usize {
        self.ends.len()
    }

    /// Stable counting sort of the recorded stream into fold buckets.
    pub(crate) fn bucket(&mut self) {
        let buckets = self.buckets;
        let n = u32::try_from(self.values.len()).expect("shard emissions exceed u32 indices");
        // Exclusive prefix sums of the counts: `ends[b]` becomes bucket
        // `b`'s start, and the scatter below advances it to the bucket's end.
        let mut start = 0;
        for slot in &mut self.ends {
            let len = *slot;
            *slot = start;
            start += len;
        }
        self.order.clear();
        self.order.resize(n as usize, 0);
        for e in 0..n {
            let b = buckets.of(self.key(e));
            self.order[self.ends[b] as usize] = e;
            self.ends[b] += 1;
        }
    }

    /// Positions in `order` of bucket `b`'s emissions.
    #[inline]
    fn bucket_range(&self, b: usize) -> std::ops::Range<usize> {
        let lo = if b == 0 { 0 } else { self.ends[b - 1] as usize };
        lo..self.ends[b] as usize
    }

    /// Emissions recorded into bucket `b`.
    pub(crate) fn bucket_len(&self, b: usize) -> usize {
        self.bucket_range(b).len()
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        (self.keys.capacity() + self.values.capacity()) * std::mem::size_of::<u64>()
            + (self.ends.capacity() + self.order.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Widest key remainder below the bucket bits (`width − BUCKET_BITS` for
/// one-word keys) that [`fold`] accumulates through a direct-address slot
/// table of `2^DENSE_BITS` entries (256 KiB, L2-resident) instead of sorting
/// every emission. It covers registers up to 27 qubits, where the fold then
/// sorts only the distinct keys of a bucket: on offline-27q (2-vCPU x86-64
/// VM, 2 threads, seed 1, one 15-batch run each) the fold phases took
/// 1.03 s of wall time against 1.99 s when sorting every emission.
const DENSE_BITS: u32 = 16;

/// Marks a free entry of [`FoldScratch`]'s direct-address slot table.
const NO_SLOT: u32 = u32::MAX;

/// Bucket-sized working set of one [`fold`], reused bucket over bucket.
#[derive(Debug, Default)]
struct FoldScratch {
    /// Sorting fold: `(first key word, gather position)` per emission.
    /// Gathering walks the shards in order and each shard's bucket in
    /// emission order, so the position orders equal keys by global
    /// emission order.
    entries: Vec<(u64, u32)>,
    /// Sorting fold: gathered values. Dense fold: per-key sums.
    values: Vec<f64>,
    /// Sorting fold: gathered key words (keys wider than one word only).
    /// Dense fold: the distinct key remainders seen in the bucket.
    keys: Vec<u64>,
    /// Dense fold: key remainder → index into `values`, [`NO_SLOT`] when
    /// unseen. Every used entry is cleared again before the next bucket.
    slots: Vec<u32>,
}

impl FoldScratch {
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, u32)>()
            + (self.values.capacity() + self.keys.capacity()) * std::mem::size_of::<u64>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

/// One fold partition's output run in canonical key order (flat key words
/// and folded values), with the working set that produced it.
#[derive(Debug, Default)]
pub(crate) struct FoldRun {
    scratch: FoldScratch,
    pub(crate) keys: Vec<u64>,
    pub(crate) values: Vec<f64>,
}

impl FoldRun {
    /// Replaces the run with the [`fold`] of `buckets` of `shards`.
    pub(crate) fn fold<S: std::borrow::Borrow<RecordSink>>(
        &mut self,
        shards: &[S],
        buckets: std::ops::Range<usize>,
    ) {
        let FoldRun { scratch, keys, values } = self;
        keys.clear();
        values.clear();
        fold(shards, buckets, scratch, |words, value| {
            keys.extend_from_slice(words);
            values.push(value);
        });
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.scratch.heap_bytes()
            + (self.keys.capacity() + self.values.capacity()) * std::mem::size_of::<u64>()
    }
}

/// Folds buckets `buckets` of the bucketed shard streams `shards` (in shard
/// order) and hands each distinct key with its folded value to `emit`, in
/// ascending canonical key order.
///
/// A key's value is `0.0 + e₁ + e₂ + …` over its emissions in global
/// emission order (shard order, then order within the shard) — exactly
/// [`reference::apply_iteration`]'s `ProbDist::add` fold — so the result is
/// bit-identical for any cut of the input into shards and of the bucket
/// range into partitions. Every fold job of
/// [`crate::ExecArena::run_chain`] runs through here.
fn fold<S: std::borrow::Borrow<RecordSink>>(
    shards: &[S],
    buckets: std::ops::Range<usize>,
    scratch: &mut FoldScratch,
    emit: impl FnMut(&[u64], f64),
) {
    let Some(first) = shards.first().map(|s| s.borrow()) else {
        return;
    };
    if first.words_per_key == 1 && first.buckets.shift <= DENSE_BITS {
        fold_dense(shards, buckets, first.buckets.shift, scratch, emit);
    } else {
        fold_sorted(shards, buckets, first.words_per_key, scratch, emit);
    }
}

/// [`fold`] for one-word keys whose remainder below the bucket bits has at
/// most [`DENSE_BITS`] bits: sums each key's emissions in gather (= global
/// emission) order in a slot found by direct addressing, then sorts only
/// the bucket's distinct keys.
fn fold_dense<S: std::borrow::Borrow<RecordSink>>(
    shards: &[S],
    buckets: std::ops::Range<usize>,
    shift: u32,
    scratch: &mut FoldScratch,
    mut emit: impl FnMut(&[u64], f64),
) {
    let FoldScratch { values: sums, keys: lows, slots, .. } = scratch;
    let mask = (1u64 << shift) - 1;
    if slots.len() < 1 << shift {
        slots.resize(1 << shift, NO_SLOT);
    }
    for b in buckets {
        sums.clear();
        lows.clear();
        for shard in shards {
            let shard = shard.borrow();
            for &e in &shard.order[shard.bucket_range(b)] {
                let low = shard.keys[e as usize] & mask;
                let slot = &mut slots[low as usize];
                if *slot == NO_SLOT {
                    *slot = sums.len() as u32;
                    lows.push(low);
                    sums.push(0.0);
                }
                sums[*slot as usize] += shard.values[e as usize];
            }
        }
        lows.sort_unstable();
        let top = (b as u64) << shift;
        for &low in lows.iter() {
            let slot = std::mem::replace(&mut slots[low as usize], NO_SLOT);
            emit(&[top | low], sums[slot as usize]);
        }
    }
}

/// [`fold`] for any key width: gathers the bucket's emissions, sorts them
/// by (key, gather position) — a stable sort by key of the global emission
/// order — and folds each run of equal keys.
fn fold_sorted<S: std::borrow::Borrow<RecordSink>>(
    shards: &[S],
    buckets: std::ops::Range<usize>,
    wpk: usize,
    scratch: &mut FoldScratch,
    mut emit: impl FnMut(&[u64], f64),
) {
    let FoldScratch { entries, values, keys, .. } = scratch;
    for b in buckets {
        entries.clear();
        values.clear();
        keys.clear();
        for shard in shards {
            let shard = shard.borrow();
            for &e in &shard.order[shard.bucket_range(b)] {
                let key = shard.key(e);
                entries.push((key.first().copied().unwrap_or(0), values.len() as u32));
                values.push(shard.values[e as usize]);
                if wpk > 1 {
                    keys.extend_from_slice(key);
                }
            }
        }
        let full = |pos: u32| &keys[pos as usize * wpk..(pos as usize + 1) * wpk];
        if wpk > 1 {
            entries.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0).then_with(|| full(a.1).cmp(full(b.1))).then(a.1.cmp(&b.1))
            });
        } else {
            // The first word is the whole key: the tuple order is the
            // (key, emission order) order.
            entries.sort_unstable();
        }
        let mut i = 0;
        while i < entries.len() {
            let (first, pos) = entries[i];
            let same = |&(w, p): &(u64, u32)| w == first && (wpk <= 1 || full(p) == full(pos));
            let mut acc = 0.0;
            let mut j = i;
            while j < entries.len() && same(&entries[j]) {
                acc += values[entries[j].1 as usize];
                j += 1;
            }
            match wpk {
                0 => emit(&[], acc),
                1 => emit(std::slice::from_ref(&first), acc),
                _ => emit(full(pos), acc),
            }
            i = j;
        }
    }
}

/// Survivor buffer for one chain node. Groups are a handful of qubits
/// (`dim = 2^k`), so a small fixed stack array covers every realistic plan
/// (`k ≤ 3`); the cold spill path keeps correctness for wider groups.
const CHAIN_GATHER: usize = 8;

/// The read-only per-string inputs of one chain walk, resolved once per
/// input string by [`run_entries`].
struct Entry<'a> {
    /// The input key: the outcome bits every diagonal step keeps.
    words: &'a [u64],
    /// `p(x)`, which scales the floor test and the emitted values.
    prob: f64,
    /// Per level, the input's group sub-index `x_j`.
    sub_indices: &'a [usize],
    /// Per level, the diagonal factor `M⁻¹[x_j][x_j]`.
    diag: &'a [f64],
    /// Per level, the off-diagonal bound `max_{z ≠ x_j} |M⁻¹[z][x_j]|`.
    off: &'a [f64],
}

/// Walks one group level; returns the sum of the (unscaled) products that
/// reached the leaves, so the caller can compensate for pruned mass.
///
/// **Diagonal run.** A level whose off-diagonal products are all provably
/// pruned computes only the diagonal one. The bound is
/// `vmax = |value| · off[level]`: round-to-nearest multiplication is
/// monotone, so every off-diagonal factor `f` gives
/// `|value · f| = fl(|value| · |f|) ≤ vmax` and
/// `|p · (value · f)| ≤ fl(|p| · vmax)`; when `vmax < β` or
/// `|p| · vmax < floor`, each of them fails the keep test, exactly as the
/// full gather would find. A NaN bound compares false and takes the gather.
/// The diagonal outcome `z = x` writes the input's own bits, so a run of
/// such levels writes no outcome; when the run ends the walk copies those
/// levels' bits back from the input key with one suffix mask. The counters
/// count every product the gather would have made, so [`EngineStats`] do
/// not change.
///
/// Every other node runs a branch-light *gather* pass over the column —
/// products and prune decisions only, no recursion, so `value`, the
/// thresholds, and the counters stay in registers — then descends into the
/// survivors in the same ascending-`z` order. Emission order, float
/// operations, and counter totals are identical to the naive interleaved
/// walk.
fn chain(
    plan: &IterationPlan,
    mut level: usize,
    mut value: f64,
    entry: &Entry,
    scratch: &mut [u64],
    stats: &mut EngineStats,
    sink: &mut RecordSink,
) -> f64 {
    let (beta, scaled_floor, input_prob) = (plan.beta, plan.scaled_floor, entry.prob);
    let mut vals = [0.0f64; CHAIN_GATHER];
    // First level of the diagonal run in progress, whose outcome bits are
    // not yet written.
    let mut run_start = None;
    // Single-survivor levels (the diagonal-dominant common case) continue
    // this loop in place instead of recursing: `0.0 + x` is bit-exact `x`
    // for every reachable subtree sum, so dropping the one-term fold is
    // float-neutral while eliminating the call overhead along the chain.
    loop {
        if level == plan.groups.len() {
            if let Some(start) = run_start {
                plan.restore_suffix(start, entry.words, scratch);
            }
            sink.emit(scratch, input_prob * value);
            stats.accumulated += 1;
            return value;
        }
        let group = &plan.groups[level];
        let dim = group.dim as u64;
        let vmax = value.abs() * entry.off[level];
        if vmax < beta || input_prob.abs() * vmax < scaled_floor {
            stats.products += dim;
            let v = value * entry.diag[level];
            if !plan.keeps(v, input_prob) {
                stats.pruned += dim;
                return 0.0;
            }
            stats.pruned += dim - 1;
            stats.kept_per_level[level] += 1;
            run_start.get_or_insert(level);
            value = v;
            level += 1;
            continue;
        }
        if let Some(start) = run_start.take() {
            plan.restore_suffix(start, entry.words, scratch);
        }
        if group.dim > CHAIN_GATHER {
            return chain_spill(plan, level, value, entry, scratch, stats, sink);
        }
        let x = entry.sub_indices[level];
        let column = &group.columns[x * group.dim..(x + 1) * group.dim];
        // Survivors as a bitmask: stores are unconditional and the prune
        // outcome feeds a mask instead of a branch or a compaction cursor,
        // so the gather loop carries no data-dependent serialization.
        let mut mask = 0u32;
        for (z, &factor) in column.iter().enumerate() {
            let v = value * factor;
            vals[z] = v;
            mask |= (plan.keeps(v, input_prob) as u32) << z;
        }
        let n_kept = mask.count_ones() as usize;
        stats.products += dim;
        stats.pruned += dim - n_kept as u64;
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
                    kept_sum += chain(plan, level + 1, vals[z], entry, scratch, stats, sink);
                }
                return kept_sum;
            }
        }
    }
}

/// [`chain`]'s gather for groups wider than [`CHAIN_GATHER`] outcomes, at a
/// level the diagonal-run bound did not settle. Same order, same floats,
/// same counters.
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
fn chain_spill(
    plan: &IterationPlan,
    level: usize,
    value: f64,
    entry: &Entry,
    scratch: &mut [u64],
    stats: &mut EngineStats,
    sink: &mut RecordSink,
) -> f64 {
    let group = &plan.groups[level];
    let x = entry.sub_indices[level];
    let column = &group.columns[x * group.dim..(x + 1) * group.dim];
    let mut vals = [0.0f64; CHAIN_GATHER];
    let mut kept_sum = 0.0;
    for (slab, factors) in column.chunks(CHAIN_GATHER).enumerate() {
        let base = slab * CHAIN_GATHER;
        let mut mask = 0u32;
        for (k, &factor) in factors.iter().enumerate() {
            let v = value * factor;
            vals[k] = v;
            mask |= (plan.keeps(v, entry.prob) as u32) << k;
        }
        let n_kept = mask.count_ones() as usize;
        stats.products += factors.len() as u64;
        stats.pruned += (factors.len() - n_kept) as u64;
        stats.kept_per_level[level] += n_kept as u64;
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            group.write_outcome(base + k, scratch);
            kept_sum += chain(plan, level + 1, vals[k], entry, scratch, stats, sink);
        }
    }
    kept_sum
}

/// Records the chain walk over `input` — runs of entries in id order, each
/// as flat `width`-bit key words and values — into `sink` and files the
/// stream into fold buckets. The per-entry float behaviour — skip exact
/// zeros, forward sub-β strings, expand the rest, compensate the pruned
/// deficit — is the engine's contract; every record job of
/// [`crate::ExecArena::run_chain`] runs through here.
pub(crate) fn record<'a>(
    plan: &IterationPlan,
    width: usize,
    input: impl IntoIterator<Item = (&'a [u64], &'a [f64])>,
    stats: &mut EngineStats,
    sink: &mut RecordSink,
) {
    sink.clear(width);
    if stats.kept_per_level.len() < plan.groups.len() {
        stats.kept_per_level.resize(plan.groups.len(), 0);
    }
    // The per-string buffers live in a thread-local arena: caller threads
    // and pool workers alike pay the allocation once per thread (and once
    // more per growth to a wider plan), never per call.
    SCRATCH.with(|cell| {
        let buf = &mut *cell.borrow_mut();
        buf.scratch.clear();
        buf.scratch.resize(sink.words_per_key, 0);
        for per_level in [&mut buf.diag, &mut buf.off] {
            per_level.clear();
            per_level.resize(plan.groups.len(), 0.0);
        }
        buf.sub_indices.clear();
        buf.sub_indices.resize(plan.groups.len(), 0);
        for (keys, values) in input {
            run_entries(plan, keys, values, stats, sink, buf);
        }
    });
    sink.bucket();
}

/// Per-thread reusable buffers for [`record`]: the packed-key scratch the
/// chain walk scatters outcomes into, and the per-level sub-indices,
/// diagonal factors and off-diagonal bounds of the string being walked.
struct ScratchBuf {
    scratch: Vec<u64>,
    sub_indices: Vec<usize>,
    diag: Vec<f64>,
    off: Vec<f64>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<ScratchBuf> = const {
        std::cell::RefCell::new(ScratchBuf {
            scratch: Vec::new(),
            sub_indices: Vec::new(),
            diag: Vec::new(),
            off: Vec::new(),
        })
    };
}

fn run_entries(
    plan: &IterationPlan,
    keys: &[u64],
    values: &[f64],
    stats: &mut EngineStats,
    sink: &mut RecordSink,
    buf: &mut ScratchBuf,
) {
    let ScratchBuf { scratch, sub_indices, diag, off } = buf;
    let wpk = scratch.len();
    for (i, &p) in values.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let words = &keys[i * wpk..(i + 1) * wpk];
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
            let x = group.sub_index(words);
            sub_indices[j] = x;
            diag[j] = group.columns[x * group.dim + x];
            off[j] = group.off_max[x];
        }
        scratch.copy_from_slice(words);
        let entry = Entry { words, prob: p, sub_indices, diag, off };
        let kept = chain(plan, 0, 1.0, &entry, scratch, stats, sink);
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

pub use crate::parallel::configured_threads;

/// The pre-plan/execute engine, retained verbatim: it multiplies every
/// product, with no diagonal runs, and the differential property tests pin
/// [`crate::ExecArena::run_chain`] to it bit for bit and counter for
/// counter. Not part of the supported API surface.
pub mod reference {
    use super::{EngineStats, ABS_FLOOR_RATIO};
    use crate::noisematrix::GroupMatrix;
    use qufem_types::{BitString, ProbDist};

    /// One calibration iteration (paper Eq. 7) over a distribution:
    /// per-call position resolve, per-bit `BitString::get`/`set`, hash-map
    /// accumulation.
    ///
    /// * `dist` — the current distribution `P_i`, one bit per measured
    ///   qubit;
    /// * `measured_positions` — global qubit index of each bit of `dist`
    ///   (ascending);
    /// * `groups` — the per-group inverse noise matrices of this iteration,
    ///   whose `qubits()` are subsets of `measured_positions`;
    /// * `beta` — the pruning threshold (`0.0` disables pruning);
    /// * `stats` — instrumentation accumulator.
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
    use crate::ExecArena;
    use qufem_device::BenchmarkCircuit;
    use qufem_types::{BitString, ProbDist, QubitSet, SupportIndex};
    use std::sync::Arc;

    fn bs(s: &str) -> BitString {
        BitString::from_binary_str(s).unwrap()
    }

    /// One iteration over `dist` through a one-plan [`ExecArena::run_chain`]
    /// at one thread, with the same arguments as
    /// [`reference::apply_iteration`].
    fn apply_inline(
        dist: &ProbDist,
        measured_positions: &[usize],
        groups: &[GroupMatrix],
        beta: f64,
        stats: &mut EngineStats,
    ) -> ProbDist {
        let plan = Arc::new(IterationPlan::build(measured_positions, groups, beta));
        let mut arena = ExecArena::with_shards(1);
        arena.run_chain(std::slice::from_ref(&plan), &SupportIndex::from_dist(dist), 1);
        stats.merge(arena.local_stats());
        arena.out().to_dist()
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
        let calibrated = apply_inline(&noisy, &[0, 1], &gms, 0.0, &mut stats);
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
        let a = apply_inline(&noisy, &[0, 1], &single, 0.0, &mut s1);
        let b = apply_inline(&noisy, &[0, 1], &joint, 0.0, &mut s2);
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
        let out = apply_inline(&noisy, &[0, 1, 2], &gms, 0.0, &mut stats);
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
        let full = apply_inline(&noisy, &[0, 1, 2], &gms, 0.0, &mut s_full);
        // Pruning applies to the unscaled per-string products: with 10%
        // flip rates, single off-diagonal factors are ~0.1, so a threshold
        // of 0.05 prunes every correction beyond first order.
        let mut s_pruned = EngineStats::default();
        let pruned = apply_inline(&noisy, &[0, 1, 2], &gms, 0.05, &mut s_pruned);
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
        let _ = apply_inline(&noisy, &[0, 1, 2], &gms, 0.05, &mut stats);
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
        let out = apply_inline(&dist, &[0, 1], &gms, 0.0, &mut stats);
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
        let out_with = apply_inline(&with_tail, &[0, 1], &gms, 1e-5, &mut s_with);
        let out_without = apply_inline(&without_tail, &[0, 1], &gms, 1e-5, &mut s_without);
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
        let out = apply_inline(&noisy, &[0, 1, 2], &gms, 0.5, &mut stats);
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
        let exact = apply_inline(&noisy, &[0, 1], &gms, 0.0, &mut s0);
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
        let out = apply_inline(&dist, &[1, 3], &gms, 0.0, &mut stats);
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
            let new = apply_inline(&noisy, &[0, 1, 2], &gms, beta, &mut s_new);
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
        let plan = Arc::new(IterationPlan::build(&[0, 1, 2], &gms, 1e-4));
        let input = SupportIndex::from_dist(&noisy);
        let mut s_seq = EngineStats::default();
        let seq = reference::apply_iteration(&noisy, &[0, 1, 2], &gms, 1e-4, &mut s_seq);
        let seq = SupportIndex::from_dist(&seq);
        let mut arena = ExecArena::with_shards(1);
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
