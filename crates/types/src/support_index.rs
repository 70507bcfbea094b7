//! Indexed sparse vectors over bit strings — the one distribution layout.
//!
//! [`SupportIndex`] interns each distinct bit string **once**, assigning it a
//! dense `u32` id, and keeps the amplitudes in a parallel `Vec<f64>` — so the
//! engine's inner loop does array arithmetic (`values[id] += v`) instead of
//! hash-map scatter, and keys are compared/hashed as raw `u64` word slices
//! without constructing `BitString`s.
//!
//! [`ProbDist`] is a thin wrapper over the same layout that adds the
//! order-free, serializable interchange API. Converting between the two is a
//! buffer copy ([`SupportIndex::to_dist`], [`SupportIndex::into_dist`],
//! [`ProbDist::as_index`]) or one sort into canonical key order
//! ([`SupportIndex::from_dist`]). Conversions are lossless: support
//! (including exact-zero entries), width, and every `f64` bit pattern are
//! preserved.

use crate::{BitString, ProbDist};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// Sentinel marking an unoccupied slot of the open-addressing id table.
/// Ids are capped strictly below it by [`SupportIndex::intern`].
const EMPTY_SLOT: u32 = u32::MAX;

/// The probe-hash key shared by every index in this process: one random
/// `u64` drawn once from the standard library's randomly keyed hasher.
/// Keying keeps a client that controls the keys (the wire decoders intern
/// untrusted bit strings) from precomputing a set that clusters in the
/// linear-probing table and turns interning quadratic.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64))
}

/// SplitMix64 finisher: a bijection on `u64` whose output bits each depend
/// on every input bit.
#[inline]
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Keyed 64-bit hash of a packed key: every word is folded in through the
/// full finisher, so no word-level difference cancels independently of
/// `seed`. Purely a probe-start function: interning order — and therefore
/// every assigned id — is independent of it.
#[inline]
fn hash_words(seed: u64, words: &[u64]) -> u64 {
    words.iter().fold(seed, |h, &w| mix64(h ^ w))
}

/// Table length (a power of two) comfortably holding `entries` ids at a
/// load factor below 7/8.
fn table_len_for(entries: usize) -> usize {
    (entries.max(4) * 2).next_power_of_two()
}

/// A sparse (quasi-)probability vector with interned keys.
///
/// Entry `id` (a dense `u32`) has key [`SupportIndex::key_words`]`(id)` and
/// amplitude [`SupportIndex::value`]`(id)`. Ids are assigned in interning
/// order; [`SupportIndex::from_dist`] copies the distribution in sorted key
/// order, [`SupportIndex::sort`] restores that canonical order after
/// arbitrary interning, and [`SupportIndex::assign_sorted`] refills an
/// index from entries already in canonical order.
///
/// An index is in one of two forms, told apart by its probe table alone:
///
/// - **Canonical** (no table): keys are strictly ascending, so ids are
///   sorted ranks. [`SupportIndex::from_dist`], [`SupportIndex::sort`],
///   [`SupportIndex::assign_sorted`] and, on a canonical index, the
///   compaction behind [`ProbDist::truncate`] leave this form, and allocate
///   and fill no table.
///   [`SupportIndex::get`] bisects the flat keys and
///   [`SupportIndex::sorted_ids`] is the identity.
/// - **Hashed**: a flat open-addressing id table probes the flat key storage
///   directly, with no per-key boxing. The first [`SupportIndex::intern`]
///   builds it (ids do not change), and it then stays until the index is
///   made canonical again.
///
/// A cleared index ([`SupportIndex::clear`] / [`SupportIndex::reset`])
/// refills its retained buffers **without touching the heap** until it
/// outgrows a previous high-water mark. This is the allocation contract the
/// engine's steady-state `apply` path is built on.
///
/// # Example
///
/// ```
/// use qufem_types::{BitString, ProbDist, SupportIndex};
///
/// let mut p = ProbDist::new(2);
/// p.add(BitString::from_binary_str("01").unwrap(), 0.25);
/// p.add(BitString::from_binary_str("10").unwrap(), 0.75);
/// let idx = SupportIndex::from_dist(&p);
/// assert_eq!(idx.len(), 2);
/// assert_eq!(idx.to_dist(), p);
/// ```
#[derive(Debug, Clone)]
pub struct SupportIndex {
    width: usize,
    words_per_key: usize,
    /// Flat key storage: entry `id` occupies
    /// `keys[id * words_per_key .. (id + 1) * words_per_key]`.
    keys: Vec<u64>,
    values: Vec<f64>,
    /// Open-addressing id table: power-of-two length, [`EMPTY_SLOT`]-marked
    /// free slots, linear probing. Probes compare candidate ids' words in
    /// `keys` against the query slice, so lookups allocate nothing. Empty
    /// exactly when the index is canonical: its keys are then strictly
    /// ascending and lookups bisect them instead.
    table: Vec<u32>,
    /// [`process_seed`], copied in at construction so probing pays no
    /// atomic load. Every index in the process holds the same value, so a
    /// table cloned or copied between indexes stays valid.
    seed: u64,
}

impl Default for SupportIndex {
    fn default() -> Self {
        Self::new(0)
    }
}

impl SupportIndex {
    /// Creates an empty index over `width`-bit keys.
    pub fn new(width: usize) -> Self {
        Self::with_capacity(width, 0)
    }

    /// Creates an empty hashed index with room for `capacity` entries. A
    /// zero capacity allocates nothing and leaves the index canonical; the
    /// probe table is then sized on first intern.
    pub fn with_capacity(width: usize, capacity: usize) -> Self {
        let words_per_key = BitString::words_for_width(width);
        SupportIndex {
            width,
            words_per_key,
            keys: Vec::with_capacity(capacity * words_per_key),
            values: Vec::with_capacity(capacity),
            table: if capacity == 0 {
                Vec::new()
            } else {
                vec![EMPTY_SLOT; table_len_for(capacity)]
            },
            seed: process_seed(),
        }
    }

    /// Builds a canonical index from a distribution, with keys in sorted
    /// ([`BitString`]) order so ids equal sorted ranks: one
    /// [`SupportIndex::sorted_copy_into`] of the distribution's flat
    /// storage, with no probe table. Lossless: every stored entry is carried
    /// over bit-for-bit, including exact zeros.
    pub fn from_dist(dist: &ProbDist) -> Self {
        let mut index = Self::new(dist.width());
        dist.as_index().sorted_copy_into(&mut index, &mut Vec::new());
        index
    }

    /// [`SupportIndex::from_dist`] restricted to entries with `value > 0.0`
    /// — the "observed support" extraction shared by the subspace-restricted
    /// calibration methods (M3, IBU, QuFEM's sharded engine input).
    pub fn positive_from_dist(dist: &ProbDist) -> Self {
        let mut index = Self::from_dist(dist);
        index.retain(|v| v > 0.0);
        index
    }

    /// Converts to a distribution by copying the flat buffers (the key and
    /// value buffers of a canonical index, which has no table to copy).
    /// Lossless inverse of [`SupportIndex::from_dist`]: the result compares
    /// equal to the source distribution (same support, same `f64` bits).
    pub fn to_dist(&self) -> ProbDist {
        self.clone().into_dist()
    }

    /// Converts to a distribution without copying: the index becomes the
    /// distribution's storage, ids and all.
    pub fn into_dist(self) -> ProbDist {
        ProbDist::from_index(self)
    }

    /// Bit width of the keys.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of 64-bit words per key.
    pub fn words_per_key(&self) -> usize {
        self.words_per_key
    }

    /// Number of interned entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The packed key words of entry `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn key_words(&self, id: u32) -> &[u64] {
        let start = id as usize * self.words_per_key;
        &self.keys[start..start + self.words_per_key]
    }

    /// The key of entry `id` as a [`BitString`] (allocates).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn key(&self, id: u32) -> BitString {
        BitString::from_words(self.width, self.key_words(id).to_vec())
            .expect("interned words are always a valid key")
    }

    /// The amplitude of entry `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn value(&self, id: u32) -> f64 {
        self.values[id as usize]
    }

    /// All amplitudes, indexed by id.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// All key words back to back, [`SupportIndex::words_per_key`] per
    /// entry in id order: the flat storage behind
    /// [`SupportIndex::key_words`].
    pub fn flat_keys(&self) -> &[u64] {
        &self.keys
    }

    /// The id of `words`, if interned: a probe of the table of a hashed
    /// index, a bisection of the sorted keys of a canonical one.
    #[inline]
    pub fn get(&self, words: &[u64]) -> Option<u32> {
        if !self.table.is_empty() {
            return probe(self.seed, &self.table, &self.keys, self.words_per_key, words).1;
        }
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key_words(mid as u32).cmp(words) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }

    /// Interns `words`, returning its id. New entries start at amplitude
    /// `0.0`; the key is copied only on first insertion. The first intern
    /// into a canonical index builds its probe table in the retained table
    /// buffer; existing ids do not change. Allocation-free while the entry
    /// count stays within retained capacity.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from [`SupportIndex::words_per_key`].
    pub fn intern(&mut self, words: &[u64]) -> u32 {
        assert_eq!(words.len(), self.words_per_key, "key word count mismatch");
        // Keep the load factor below 7/8 so probe chains stay short and the
        // insert probe below always finds an empty slot (a rebuilt table
        // has room for at least one more entry).
        if self.table.is_empty() {
            self.rebuild_table();
        } else if (self.values.len() + 1) * 8 > self.table.len() * 7 {
            self.grow_table();
        }
        let (slot, found) = probe(self.seed, &self.table, &self.keys, self.words_per_key, words);
        if let Some(id) = found {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("support exceeds u32 ids");
        assert!(id != EMPTY_SLOT, "support exceeds u32 ids");
        self.keys.extend_from_slice(words);
        self.values.push(0.0);
        self.table[slot] = id;
        id
    }

    /// Adds `delta` to the amplitude of an already-interned entry (no
    /// hashing). After [`SupportIndex::intern`] of a new key this stores
    /// `0.0 + delta`, exactly as [`ProbDist::add`] does.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn accumulate_id(&mut self, id: u32, delta: f64) {
        self.values[id as usize] += delta;
    }

    /// Reorders entries into canonical [`BitString`] order (width-equal keys
    /// compare as word slices), reassigning ids to sorted ranks and dropping
    /// the probe table. Amplitudes travel with their keys unchanged. After
    /// sorting, the index is id-for-id identical to
    /// [`SupportIndex::from_dist`] of [`SupportIndex::to_dist`].
    pub fn sort(&mut self) {
        let mut sorted = SupportIndex::new(self.width);
        self.sorted_copy_into(&mut sorted, &mut Vec::new());
        *self = sorted;
    }

    /// Writes the canonically sorted copy of `self` into `dest`, reusing
    /// `dest`'s retained buffers and the caller-provided `order` scratch.
    /// Produces exactly the state [`SupportIndex::sort`] would leave `self`
    /// in, but allocation-free once `dest`/`order` capacity covers `self`.
    pub fn sorted_copy_into(&self, dest: &mut SupportIndex, order: &mut Vec<u32>) {
        dest.reset(self.width);
        self.sorted_ids(order);
        dest.keys.reserve(self.keys.len());
        dest.values.reserve(self.values.len());
        for &id in order.iter() {
            dest.keys.extend_from_slice(self.key_words(id));
            dest.values.push(self.values[id as usize]);
        }
        dest.table.clear();
    }

    /// Fills `order` with every id in canonical key order ([`BitString`]
    /// order, compared as word slices), reusing its buffer. On a canonical
    /// index that is the identity, with no sort.
    pub fn sorted_ids(&self, order: &mut Vec<u32>) {
        order.clear();
        order.extend(0..self.len() as u32);
        if self.table.is_empty() {
            return;
        }
        // Interned keys are distinct, so the comparator never returns
        // `Equal` and the unstable sort yields the one canonical permutation.
        order.sort_unstable_by(|&a, &b| self.key_words(a).cmp(self.key_words(b)));
    }

    /// Replaces the contents with `width`-bit entries supplied in strictly
    /// ascending canonical key order, as consecutive runs of flat key words
    /// (as [`SupportIndex::flat_keys`] stores them) and values. The result
    /// is canonical: ids come out as sorted ranks with no sort, no hashing
    /// and no probe table. Allocation-free once retained capacity covers
    /// the result.
    ///
    /// # Panics
    ///
    /// Panics if a run's key word count does not match its value count, the
    /// support would exceed `u32` ids, or the keys are not strictly
    /// ascending (one adjacent-key compare per entry, in every build: a
    /// canonical index's lookups depend on the order).
    pub fn assign_sorted<'a>(
        &mut self,
        width: usize,
        runs: impl IntoIterator<Item = (&'a [u64], &'a [f64])>,
    ) {
        self.reset(width);
        let wpk = self.words_per_key;
        for (words, values) in runs {
            assert_eq!(words.len(), values.len() * wpk, "key word count mismatch");
            assert!(
                self.values.len() + values.len() < EMPTY_SLOT as usize,
                "support exceeds u32 ids"
            );
            let mut prev = (!self.is_empty()).then(|| &self.keys[self.keys.len() - wpk..]);
            for i in 0..values.len() {
                let key = &words[i * wpk..(i + 1) * wpk];
                assert!(prev.is_none_or(|p| p < key), "sorted keys must be strictly ascending");
                prev = Some(key);
            }
            self.keys.extend_from_slice(words);
            self.values.extend_from_slice(values);
        }
        self.table.clear();
    }

    /// Adds `value` to the entry for `words` as [`ProbDist::add`] does (a
    /// new entry stores `0.0 + value`). While the index is canonical and
    /// each key sorts after every stored one, the key is appended and the
    /// index stays canonical with no table; the first key out of order or
    /// repeated builds the table and the rest are interned.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from [`SupportIndex::words_per_key`]
    /// or the support would exceed `u32` ids.
    pub fn add_in_order(&mut self, words: &[u64], value: f64) {
        assert_eq!(words.len(), self.words_per_key, "key word count mismatch");
        let ascends = || self.is_empty() || &self.keys[self.keys.len() - words.len()..] < words;
        if !self.table.is_empty() || !ascends() {
            let id = self.intern(words);
            self.accumulate_id(id, value);
            return;
        }
        assert!(self.values.len() + 1 < EMPTY_SLOT as usize, "support exceeds u32 ids");
        self.keys.extend_from_slice(words);
        self.values.push(0.0 + value);
    }

    /// Reserves flat key and value storage for `additional` more entries
    /// (the probe table, if any, is sized on demand).
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional * self.words_per_key);
        self.values.reserve(additional);
    }

    /// Mutable amplitudes, indexed by id.
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Keeps the entries whose amplitude satisfies `keep`, compacting the
    /// survivors in id order. A canonical index stays canonical (the order
    /// survives compaction); a hashed one rebuilds its probe table. Returns
    /// the number of removed entries.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(f64) -> bool) -> usize {
        let (before, wpk) = (self.len(), self.words_per_key);
        let mut kept = 0;
        for id in 0..before {
            let value = self.values[id];
            if keep(value) {
                self.keys.copy_within(id * wpk..(id + 1) * wpk, kept * wpk);
                self.values[kept] = value;
                kept += 1;
            }
        }
        self.keys.truncate(kept * wpk);
        self.values.truncate(kept);
        if kept < before && !self.table.is_empty() {
            self.rebuild_table();
        }
        before - kept
    }

    /// Removes every entry while keeping the key width and all retained
    /// buffer capacity — subsequent interning is allocation-free up to the
    /// previous high-water mark.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.table.fill(EMPTY_SLOT);
    }

    /// [`SupportIndex::clear`] plus a key-width change (capacity is still
    /// retained across widths).
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        self.words_per_key = BitString::words_for_width(width);
        self.clear();
    }

    /// Makes `self` an id-for-id copy of `other` (keys, amplitudes, and the
    /// probe table if `other` has one), reusing retained buffers —
    /// allocation-free once `self`'s capacity covers `other`.
    pub fn copy_from(&mut self, other: &SupportIndex) {
        self.width = other.width;
        self.words_per_key = other.words_per_key;
        self.keys.clear();
        self.keys.extend_from_slice(&other.keys);
        self.values.clear();
        self.values.extend_from_slice(&other.values);
        self.table.clear();
        self.table.extend_from_slice(&other.table);
    }

    /// Rebuilds the probe table for the current `keys`/`values`, reusing the
    /// existing table buffer when its **capacity** still covers the need —
    /// the current length may be smaller (e.g. a canonical index's cleared
    /// table) without forcing a reallocation.
    fn rebuild_table(&mut self) {
        let needed = table_len_for(self.values.len());
        if self.table.capacity() < needed {
            self.table = Vec::with_capacity(needed);
        }
        self.table.clear();
        self.table.resize(needed, EMPTY_SLOT);
        self.fill_table();
    }

    /// Doubles (at least) the probe table and re-inserts every id.
    #[cold]
    fn grow_table(&mut self) {
        let new_len = table_len_for(self.values.len() + 1).max(self.table.len() * 2);
        self.table = vec![EMPTY_SLOT; new_len];
        self.fill_table();
    }

    /// Inserts every current id into the (all-empty) probe table.
    fn fill_table(&mut self) {
        let (table, keys) = (&mut self.table, &self.keys);
        let mask = table.len() - 1;
        for id in 0..self.values.len() as u32 {
            let start = id as usize * self.words_per_key;
            let words = &keys[start..start + self.words_per_key];
            let mut slot = (hash_words(self.seed, words) as usize) & mask;
            while table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            table[slot] = id;
        }
    }

    /// Sum of all amplitudes.
    pub fn total_mass(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Iterator over `(id, key words, amplitude)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u64], f64)> {
        (0..self.len() as u32).map(|id| (id, self.key_words(id), self.values[id as usize]))
    }

    /// Approximate heap usage in bytes (benchmark memory accounting): the
    /// key and value buffers plus whatever probe-table buffer the index
    /// holds. A canonical index that was never hashed holds none.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.values.capacity() * std::mem::size_of::<f64>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }
}

/// Linear probe over the id table: returns the slot the probe ended on and,
/// if the key is present, its id. The table must be non-empty and below full
/// load (both invariants are maintained by `intern`).
#[inline]
fn probe(
    seed: u64,
    table: &[u32],
    keys: &[u64],
    words_per_key: usize,
    words: &[u64],
) -> (usize, Option<u32>) {
    debug_assert!(table.len().is_power_of_two());
    let mask = table.len() - 1;
    let mut slot = (hash_words(seed, words) as usize) & mask;
    loop {
        let id = table[slot];
        if id == EMPTY_SLOT {
            return (slot, None);
        }
        let start = id as usize * words_per_key;
        if &keys[start..start + words_per_key] == words {
            return (slot, Some(id));
        }
        slot = (slot + 1) & mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitString {
        BitString::from_binary_str(s).unwrap()
    }

    #[test]
    fn from_dist_assigns_sorted_ranks() {
        let p =
            ProbDist::from_pairs(2, [(bs("01"), 0.5), (bs("10"), 0.25), (bs("00"), 0.25)]).unwrap();
        let idx = SupportIndex::from_dist(&p);
        // BitString order is numeric with bit 0 least significant:
        // "00" (0) < "10" (1) < "01" (2).
        assert_eq!(idx.key(0), bs("00"));
        assert_eq!(idx.key(1), bs("10"));
        assert_eq!(idx.key(2), bs("01"));
        assert_eq!(idx.value(1), 0.25);
    }

    #[test]
    fn roundtrip_preserves_support_width_and_bits() {
        let mut p = ProbDist::new(3);
        p.set(bs("010"), 0.1 + 0.2); // deliberately non-representable sum
        p.set(bs("111"), -1e-300);
        p.set(bs("000"), 0.0); // exact zero must survive
        let idx = SupportIndex::from_dist(&p);
        let back = idx.to_dist();
        assert_eq!(back.width(), 3);
        assert_eq!(back.support_len(), 3);
        assert_eq!(back, p);
    }

    #[test]
    fn positive_from_dist_filters_nonpositive() {
        let p =
            ProbDist::from_pairs(2, [(bs("00"), 0.5), (bs("11"), -0.1), (bs("01"), 0.0)]).unwrap();
        let idx = SupportIndex::positive_from_dist(&p);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.key(0), bs("00"));
    }

    /// Adds `value` to `key`'s amplitude, interning it at `0.0` if absent.
    fn add(idx: &mut SupportIndex, key: &str, value: f64) {
        let id = idx.intern(bs(key).as_words());
        idx.accumulate_id(id, value);
    }

    #[test]
    fn intern_once_then_accumulate_sums() {
        let mut idx = SupportIndex::new(2);
        let k = bs("01");
        add(&mut idx, "01", 0.25);
        add(&mut idx, "01", 0.25);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.value(0), 0.5);
        assert_eq!(idx.get(k.as_words()), Some(0));
        assert_eq!(idx.get(bs("10").as_words()), None);
    }

    #[test]
    fn sort_matches_from_dist_ids() {
        let mut idx = SupportIndex::new(2);
        for key in ["11", "00", "01", "10"] {
            add(&mut idx, key, 1.0);
        }
        idx.sort();
        let canonical = SupportIndex::from_dist(&idx.to_dist());
        for id in 0..idx.len() as u32 {
            assert_eq!(idx.key(id), canonical.key(id));
            assert_eq!(idx.value(id), canonical.value(id));
            assert_eq!(idx.get(idx.key_words(id)), Some(id), "lookup must follow the sort");
        }
    }

    #[test]
    fn sorted_copy_into_matches_sort() {
        let mut idx = SupportIndex::new(3);
        for key in ["110", "001", "111", "000", "010"] {
            add(&mut idx, key, 0.125);
        }
        let mut dest = SupportIndex::new(0);
        let mut order = Vec::new();
        idx.sorted_copy_into(&mut dest, &mut order);
        let mut sorted = idx.clone();
        sorted.sort();
        assert_eq!(dest.width(), sorted.width());
        assert_eq!(dest.len(), sorted.len());
        for id in 0..sorted.len() as u32 {
            assert_eq!(dest.key(id), sorted.key(id));
            assert_eq!(dest.value(id).to_bits(), sorted.value(id).to_bits());
            assert_eq!(dest.get(dest.key_words(id)), Some(id));
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn assign_sorted_rejects_a_repeated_zero_width_key() {
        SupportIndex::new(0).assign_sorted(0, [(&[][..], &[0.5, 0.5][..])]);
    }

    #[test]
    fn assign_sorted_assigns_ranks_and_rebuilds_lookup() {
        let mut idx = SupportIndex::new(1);
        add(&mut idx, "1", 9.0); // a previous width and support are discarded
        let words = |keys: &[&str]| keys.iter().map(|k| bs(k).as_words()[0]).collect::<Vec<_>>();
        let (first, second) = (words(&["000", "100"]), words(&["110", "111"]));
        idx.assign_sorted(3, [(&first[..], &[-0.0, 0.5][..]), (&second[..], &[0.25, 1.0][..])]);
        assert_eq!(idx.width(), 3);
        let canonical = SupportIndex::from_dist(&idx.to_dist());
        assert_eq!(idx.len(), 4);
        for id in 0..idx.len() as u32 {
            assert_eq!(idx.key(id), canonical.key(id));
            assert_eq!(idx.value(id).to_bits(), canonical.value(id).to_bits());
            assert_eq!(idx.get(idx.key_words(id)), Some(id));
        }
        assert_eq!(idx.value(0).to_bits(), (-0.0f64).to_bits(), "values are stored verbatim");
        assert_eq!(idx.get(bs("010").as_words()), None);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn assign_sorted_rejects_out_of_order_keys() {
        let mut idx = SupportIndex::new(2);
        let (a, b) = ([bs("01").as_words()[0]], [bs("10").as_words()[0]]);
        idx.assign_sorted(2, [(&a[..], &[1.0][..]), (&b[..], &[1.0][..])]);
    }

    #[test]
    fn clear_reset_and_copy_from_reuse_buffers() {
        let mut idx = SupportIndex::new(2);
        for key in ["11", "00", "01"] {
            add(&mut idx, key, 1.0);
        }
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.get(bs("11").as_words()), None);
        add(&mut idx, "10", 2.0);
        assert_eq!(idx.get(bs("10").as_words()), Some(0));

        idx.reset(3);
        assert_eq!(idx.width(), 3);
        add(&mut idx, "101", 0.5);
        assert_eq!(idx.len(), 1);

        let src = SupportIndex::from_dist(
            &ProbDist::from_pairs(2, [(bs("01"), 0.25), (bs("10"), 0.75)]).unwrap(),
        );
        let mut copy = SupportIndex::new(0);
        copy.copy_from(&src);
        assert_eq!(copy.width(), 2);
        assert_eq!(copy.len(), 2);
        for id in 0..src.len() as u32 {
            assert_eq!(copy.key(id), src.key(id));
            assert_eq!(copy.value(id).to_bits(), src.value(id).to_bits());
            assert_eq!(copy.get(src.key_words(id)), Some(id));
        }
    }

    #[test]
    fn intern_survives_table_growth() {
        let mut idx = SupportIndex::new(10);
        let mut ids = Vec::new();
        for i in 0..300u64 {
            let mut key = BitString::zeros(10);
            for bit in 0..10 {
                key.set(bit, (i >> bit) & 1 == 1);
            }
            ids.push((key.clone(), idx.intern(key.as_words())));
        }
        for (key, id) in &ids {
            assert_eq!(idx.get(key.as_words()), Some(*id));
        }
        assert_eq!(idx.len(), 300);
    }

    /// The probe hash without a key (FNV-1a over the words, then the
    /// finisher): what an attacker can precompute collisions against.
    fn unkeyed_hash(words: &[u64]) -> u64 {
        let h = words
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3));
        mix64(h)
    }

    /// Probe distance of every entry from its home slot.
    fn displacements(idx: &SupportIndex, hash: impl Fn(&[u64]) -> u64) -> Vec<usize> {
        let mask = idx.table.len() - 1;
        (0..idx.table.len())
            .filter(|&slot| idx.table[slot] != EMPTY_SLOT)
            .map(|slot| slot.wrapping_sub(hash(idx.key_words(idx.table[slot])) as usize) & mask)
            .collect()
    }

    #[test]
    fn keyed_probe_hash_scatters_precomputed_collisions() {
        // 1000 27-bit keys that all share one home slot of a 2048-slot
        // table under the unkeyed hash: a single 1000-long probe run.
        const SLOTS: usize = 2048;
        let home = |w: u64| unkeyed_hash(&[w]) as usize & (SLOTS - 1);
        let keys: Vec<u64> = (0..1u64 << 27).filter(|&w| home(w) == home(0)).take(1000).collect();
        assert_eq!(keys.len(), 1000);

        let mut idx = SupportIndex::with_capacity(27, keys.len());
        for &w in &keys {
            idx.intern(&[w]);
        }
        assert_eq!(idx.table.len(), SLOTS, "the table never grew");
        let keyed = displacements(&idx, |words| hash_words(idx.seed, words));
        let longest = keyed.iter().copied().max().unwrap();
        let mean = keyed.iter().sum::<usize>() as f64 / keyed.len() as f64;
        assert!(longest < 128, "longest keyed probe run {longest}");
        assert!(mean < 4.0, "mean keyed probe distance {mean}");
        // Ids still follow interning order.
        for (id, &w) in keys.iter().enumerate() {
            assert_eq!(idx.get(&[w]), Some(id as u32));
        }

        // The same keys placed by the unkeyed hash cluster into one run.
        let mut unkeyed = vec![EMPTY_SLOT; SLOTS];
        for (id, &w) in keys.iter().enumerate() {
            let mut slot = home(w);
            while unkeyed[slot] != EMPTY_SLOT {
                slot = (slot + 1) & (SLOTS - 1);
            }
            unkeyed[slot] = id as u32;
        }
        let clustered = SupportIndex { table: unkeyed, ..idx.clone() };
        let longest_unkeyed = displacements(&clustered, unkeyed_hash).into_iter().max().unwrap();
        assert_eq!(longest_unkeyed, keys.len() - 1);
    }

    #[test]
    fn every_index_shares_the_process_seed() {
        let a = SupportIndex::new(3);
        let b = SupportIndex::with_capacity(70, 16);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.seed, SupportIndex::default().seed);
    }

    #[test]
    fn retain_compacts_in_order_and_rebuilds_lookup() {
        let mut idx = SupportIndex::new(3);
        for (i, key) in ["110", "001", "111", "000", "010"].into_iter().enumerate() {
            add(&mut idx, key, i as f64);
        }
        assert_eq!(idx.retain(|v| v != 1.0 && v != 3.0), 2);
        let kept: Vec<_> = (0..idx.len() as u32).map(|id| (idx.key(id), idx.value(id))).collect();
        assert_eq!(kept, [(bs("110"), 0.0), (bs("111"), 2.0), (bs("010"), 4.0)]);
        for id in 0..idx.len() as u32 {
            assert_eq!(idx.get(idx.key_words(id)), Some(id));
        }
        assert_eq!(idx.get(bs("001").as_words()), None);
    }

    #[test]
    fn zero_width_distribution_roundtrips() {
        let mut p = ProbDist::new(0);
        p.set(BitString::zeros(0), 1.0);
        let idx = SupportIndex::from_dist(&p);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.to_dist(), p);
    }

    #[test]
    fn wide_keys_cross_word_boundaries() {
        let mut key = BitString::zeros(130);
        key.set(0, true);
        key.set(129, true);
        let p = ProbDist::from_pairs(130, [(key.clone(), 0.7)]).unwrap();
        let idx = SupportIndex::from_dist(&p);
        assert_eq!(idx.words_per_key(), 3);
        assert_eq!(idx.key(0), key);
        assert_eq!(idx.to_dist(), p);
    }

    #[test]
    fn canonical_builds_carry_no_table_and_intern_builds_it() {
        let p = ProbDist::from_pairs(3, [(bs("110"), 0.5), (bs("001"), 0.25), (bs("011"), 0.25)])
            .unwrap();
        let mut idx = SupportIndex::from_dist(&p);
        assert!(idx.table.is_empty() && idx.table.capacity() == 0, "from_dist builds no table");
        assert_eq!(idx.to_dist().as_index().table.capacity(), 0, "to_dist copies no table");
        let mut order = Vec::new();
        idx.sorted_ids(&mut order);
        assert_eq!(order, [0, 1, 2], "a canonical index is its own sort order");

        // Interning a present key keeps its id; a new key is appended.
        let before: Vec<_> = idx.iter().map(|(id, words, _)| (id, words.to_vec())).collect();
        for (id, words) in &before {
            assert_eq!(idx.intern(words), *id);
        }
        assert!(!idx.table.is_empty(), "the first intern builds the table");
        assert_eq!(idx.intern(bs("000").as_words()), 3);
        assert_eq!(idx.key(3), bs("000"));
        for (id, words) in &before {
            assert_eq!(idx.get(words), Some(*id));
        }
        assert_eq!(idx.get(bs("000").as_words()), Some(3));
        idx.accumulate_id(3, 0.0);
        assert_ne!(idx.to_dist(), p, "the appended key is an entry");

        // Sorting makes it canonical again; `ProbDist ==` ignores the form.
        idx.sort();
        assert!(idx.table.is_empty());
        assert_eq!(idx.get(bs("000").as_words()), Some(0));
        let mut hashed = p.clone();
        hashed.set(bs("000"), 0.0);
        assert_eq!(idx.to_dist(), hashed);
        assert_eq!(hashed, idx.to_dist());
    }

    #[test]
    fn deserializing_ascending_keys_builds_no_table() {
        let text = |words: [u64; 3]| {
            let entry = |w: u64| format!(r#"[{{"width":3,"words":[{w}]}},0.25]"#);
            format!("[3,{},{},{}]", entry(words[0]), entry(words[1]), entry(words[2]))
        };
        let read: ProbDist = serde_json::from_str(&text([1, 4, 6])).unwrap();
        let index = read.as_index();
        assert_eq!(index.table.capacity(), 0, "keys that ascend build no table");
        for (id, w) in [1u64, 4, 6].into_iter().enumerate() {
            assert_eq!(index.get(&[w]), Some(id as u32), "lookups bisect");
        }

        // The first key out of order builds the table; ids keep input order.
        let read: ProbDist = serde_json::from_str(&text([1, 6, 4])).unwrap();
        let index = read.as_index();
        assert!(!index.table.is_empty());
        for (id, w) in [1u64, 6, 4].into_iter().enumerate() {
            assert_eq!(index.get(&[w]), Some(id as u32));
        }
    }

    #[test]
    fn a_cleared_table_is_reused_by_the_next_intern() {
        let mut idx = SupportIndex::new(10);
        for i in 0..100 {
            add(&mut idx, &format!("{i:010b}"), 1.0);
        }
        idx.sort();
        let (words, values) = (idx.flat_keys().to_vec(), idx.values().to_vec());
        idx.intern(&words[..1]);
        let capacity = idx.table.capacity();
        assert!(capacity > 0);
        idx.assign_sorted(10, [(&words[..], &values[..])]);
        assert!(idx.table.is_empty());
        assert_eq!(idx.table.capacity(), capacity, "the canonical form keeps the buffer");
        idx.intern(&words[..1]);
        assert_eq!(idx.table.capacity(), capacity, "and the next intern reuses it");
    }

    mod canonical_lookup {
        use super::super::*;
        use proptest::prelude::*;

        /// Widths covering the empty key, one bit, a word's edges, and
        /// multi-word keys with a partial tail.
        const WIDTHS: [usize; 6] = [0, 1, 63, 64, 65, 130];

        /// `seed` spread over a `width`-bit key's words, masked to the
        /// width. Seeds below 64 differ in one low bit so small keys
        /// collide often.
        fn key_words(width: usize, seed: u64) -> Vec<u64> {
            (0..BitString::words_for_width(width))
                .map(|w| {
                    let word = if seed < 64 { seed >> (w * 3) } else { mix64(seed ^ w as u64) };
                    let bits = (width - w * 64).min(64);
                    if bits == 64 {
                        word
                    } else {
                        word & ((1u64 << bits) - 1)
                    }
                })
                .collect()
        }

        /// A hashed index with `canonical`'s ids: every key interned in id
        /// order.
        fn hashed_copy(canonical: &SupportIndex) -> SupportIndex {
            let mut hashed = SupportIndex::new(canonical.width());
            for (id, words, value) in canonical.iter() {
                assert_eq!(hashed.intern(words), id);
                hashed.accumulate_id(id, value);
            }
            hashed
        }

        /// `canonical` has no table, and it and its hashed copy agree on
        /// every present key, on every probe, and as distributions.
        fn assert_agrees_with_hashed(canonical: &SupportIndex, probes: &[Vec<u64>]) {
            assert!(canonical.table.is_empty(), "a canonical build leaves no table");
            let hashed = hashed_copy(canonical);
            assert!(canonical.is_empty() || !hashed.table.is_empty());
            for (id, words, _) in canonical.iter() {
                assert_eq!(canonical.get(words), Some(id));
                assert_eq!(hashed.get(words), Some(id));
            }
            for words in probes {
                assert_eq!(canonical.get(words), hashed.get(words), "{words:?}");
            }
            assert_eq!(canonical.to_dist(), hashed.to_dist());
            assert_eq!(hashed.to_dist(), canonical.to_dist());
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn canonical_and_hashed_lookups_agree(
                w in 0..WIDTHS.len(),
                entries in collection::vec((0u64..200, -1.0f64..1.0), 0..80),
                probes in collection::vec(0u64..200, 0..40),
                cut in 0usize..80,
                threshold in -1.0f64..1.0,
            ) {
                let width = WIDTHS[w];
                let mut dist = SupportIndex::new(width);
                for &(seed, value) in &entries {
                    let id = dist.intern(&key_words(width, seed));
                    dist.accumulate_id(id, value);
                }
                let dist = dist.into_dist();
                let probes: Vec<_> = probes.iter().map(|&s| key_words(width, s)).collect();

                let canonical = SupportIndex::from_dist(&dist);
                assert_agrees_with_hashed(&canonical, &probes);
                prop_assert!(canonical.to_dist() == dist);

                // `assign_sorted` from two runs, into a previously hashed
                // index whose table buffer it keeps.
                let (keys, values, wpk) =
                    (canonical.flat_keys(), canonical.values(), canonical.words_per_key());
                let cut = cut.min(values.len());
                let mut assigned = hashed_copy(&canonical);
                assigned.assign_sorted(
                    width,
                    [(&keys[..cut * wpk], &values[..cut]), (&keys[cut * wpk..], &values[cut..])],
                );
                assert_agrees_with_hashed(&assigned, &probes);

                let mut retained = canonical.clone();
                retained.retain(|v| v > threshold);
                assert_agrees_with_hashed(&retained, &probes);
                for (_, words, value) in canonical.iter() {
                    prop_assert_eq!(retained.get(words).is_some(), value > threshold);
                }
            }
        }
    }
}
