//! Sparse (quasi-)probability distributions over bit strings.

use crate::{BitString, Error, QubitSet, Result, SupportIndex};
use rand::Rng;
use serde::de::Deserializer;
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A sparse probability distribution over fixed-width bit strings.
///
/// This is the central value type of readout calibration: device measurement
/// produces one, and calibration maps one to another. Entries are stored in
/// the calibration engine's own flat layout, a [`SupportIndex`] (packed key
/// words and a parallel value array), so the memory footprint is
/// proportional to the number of *stored* outcomes — essential on devices
/// with hundreds of qubits where `2^n` dense vectors are unrepresentable —
/// and handing a distribution to the engine or taking one back is a buffer
/// copy ([`ProbDist::as_index`], [`SupportIndex::to_dist`]). A distribution
/// built by adding entries keeps an open-addressing probe table for its
/// lookups; one taken back from the engine is in canonical key order and
/// has none (lookups bisect its keys) until an entry is added.
///
/// The API is order-free: equality ignores entry order, and every
/// order-sensitive output ([`ProbDist::sorted_pairs`], serialization,
/// sampling) runs in [`BitString`] order.
///
/// Values are allowed to be negative: applying an inverse noise matrix yields
/// a *quasi*-probability vector in general. Use
/// [`ProbDist::clip_to_probabilities`] to project back onto the simplex when
/// a proper distribution is required (e.g. before computing a fidelity).
///
/// # Example
///
/// ```
/// use qufem_types::{BitString, ProbDist};
///
/// let mut p = ProbDist::new(2);
/// p.add(BitString::from_binary_str("00").unwrap(), 0.9);
/// p.add(BitString::from_binary_str("11").unwrap(), 0.1);
/// assert_eq!(p.support_len(), 2);
/// let m = p.marginal(&[0].iter().copied().collect());
/// assert!((m.prob(&BitString::from_binary_str("0").unwrap()) - 0.9).abs() < 1e-12);
/// ```
#[derive(Clone)]
pub struct ProbDist {
    index: SupportIndex,
}

impl ProbDist {
    /// Creates an empty distribution over `width`-bit strings.
    pub fn new(width: usize) -> Self {
        ProbDist { index: SupportIndex::new(width) }
    }

    /// Wraps an index as a distribution (see [`SupportIndex::into_dist`]).
    pub(crate) fn from_index(index: SupportIndex) -> Self {
        ProbDist { index }
    }

    /// The flat storage, for callers that only read keys as packed words
    /// (codecs, digests, metrics). Ids run in insertion order; use
    /// [`SupportIndex::sorted_ids`] for canonical order.
    pub fn as_index(&self) -> &SupportIndex {
        &self.index
    }

    /// A point mass: probability 1 on `outcome`.
    pub fn point_mass(outcome: BitString) -> Self {
        let mut dist = Self::new(outcome.width());
        dist.set(outcome, 1.0);
        dist
    }

    /// Builds a distribution from `(bit string, value)` pairs, accumulating
    /// duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if any string has the wrong width and
    /// [`Error::InvalidProbability`] if any value is NaN or infinite.
    pub fn from_pairs<I>(width: usize, pairs: I) -> Result<Self>
    where
        I: IntoIterator<Item = (BitString, f64)>,
    {
        let mut dist = Self::new(width);
        for (key, value) in pairs {
            if key.width() != width {
                return Err(Error::WidthMismatch { expected: width, actual: key.width() });
            }
            if !value.is_finite() {
                return Err(Error::InvalidProbability(value));
            }
            dist.add(key, value);
        }
        Ok(dist)
    }

    /// Builds a distribution from measurement counts, dividing by `shots`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidProbability`] if `shots == 0` and
    /// [`Error::WidthMismatch`] on inconsistent widths.
    pub fn from_counts(width: usize, counts: &HashMap<BitString, u64>, shots: u64) -> Result<Self> {
        if shots == 0 {
            return Err(Error::InvalidProbability(f64::NAN));
        }
        Self::from_pairs(width, counts.iter().map(|(k, &c)| (k.clone(), c as f64 / shots as f64)))
    }

    /// Builds a distribution from textual counts, the interchange format of
    /// most quantum SDKs (keys are `'0'`/`'1'` strings with qubit 0
    /// leftmost, values are shot counts).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseBitString`] for malformed keys,
    /// [`Error::WidthMismatch`] for inconsistent key lengths, and
    /// [`Error::InvalidProbability`] if the counts sum to zero.
    ///
    /// ```
    /// use qufem_types::ProbDist;
    /// use std::collections::HashMap;
    ///
    /// let mut counts = HashMap::new();
    /// counts.insert("00".to_string(), 900u64);
    /// counts.insert("11".to_string(), 100u64);
    /// let p = ProbDist::from_text_counts(&counts)?;
    /// assert_eq!(p.width(), 2);
    /// assert!((p.total_mass() - 1.0).abs() < 1e-12);
    /// # Ok::<(), qufem_types::Error>(())
    /// ```
    pub fn from_text_counts(counts: &HashMap<String, u64>) -> Result<Self> {
        let shots: u64 = counts.values().sum();
        if shots == 0 {
            return Err(Error::InvalidProbability(f64::NAN));
        }
        let width = counts.keys().next().map_or(0, String::len);
        let mut dist = Self::new(width);
        for (text, &c) in counts {
            let key = BitString::from_binary_str(text)?;
            if key.width() != width {
                return Err(Error::WidthMismatch { expected: width, actual: key.width() });
            }
            dist.add(key, c as f64 / shots as f64);
        }
        Ok(dist)
    }

    /// Bit width of the outcome strings.
    pub fn width(&self) -> usize {
        self.index.width()
    }

    /// Validates that the distribution has the expected width — the common
    /// entry check of every calibration method.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if the widths differ.
    pub fn check_width(&self, expected: usize) -> Result<()> {
        if self.width() != expected {
            return Err(Error::WidthMismatch { expected, actual: self.width() });
        }
        Ok(())
    }

    /// Number of stored (nonzero) outcomes.
    pub fn support_len(&self) -> usize {
        self.index.len()
    }

    /// Whether the distribution has no stored outcomes.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The value assigned to `outcome` (0.0 if absent).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the width differs.
    pub fn prob(&self, outcome: &BitString) -> f64 {
        debug_assert_eq!(outcome.width(), self.width());
        self.index.get(outcome.as_words()).map_or(0.0, |id| self.index.value(id))
    }

    /// Adds `value` to the entry for `outcome`, creating it if needed.
    /// Entries whose accumulated value becomes exactly zero are retained;
    /// call [`ProbDist::truncate`] to drop near-zeros.
    ///
    /// # Panics
    ///
    /// Panics if `outcome.width() != self.width()`.
    pub fn add(&mut self, outcome: BitString, value: f64) {
        assert_eq!(
            outcome.width(),
            self.width(),
            "distribution width {} does not match outcome width {}",
            self.width(),
            outcome.width()
        );
        self.add_words(outcome.as_words(), value);
    }

    /// Overwrites the entry for `outcome`.
    ///
    /// # Panics
    ///
    /// Panics if the width differs.
    pub fn set(&mut self, outcome: BitString, value: f64) {
        assert_eq!(outcome.width(), self.width());
        self.set_words(outcome.as_words(), value);
    }

    /// [`ProbDist::add`] on packed words: a new entry starts at `0.0`, so an
    /// added `-0.0` is stored as `+0.0`, exactly as `0.0 + value` would be.
    fn add_words(&mut self, words: &[u64], value: f64) {
        let id = self.index.intern(words);
        self.index.accumulate_id(id, value);
    }

    /// [`ProbDist::set`] on packed words.
    fn set_words(&mut self, words: &[u64], value: f64) {
        let id = self.index.intern(words);
        self.index.values_mut()[id as usize] = value;
    }

    /// Ids in canonical ([`BitString`]) key order.
    fn sorted_ids(&self) -> Vec<u32> {
        let mut order = Vec::new();
        self.index.sorted_ids(&mut order);
        order
    }

    /// Sum of all stored values (1.0 for a normalized distribution).
    pub fn total_mass(&self) -> f64 {
        self.index.total_mass()
    }

    /// Sum of absolute values (L1 norm of the quasi-probability vector).
    pub fn l1_norm(&self) -> f64 {
        self.index.values().iter().map(|v| v.abs()).sum()
    }

    /// Scales every entry so the total mass becomes 1.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidProbability`] if the current total mass is
    /// zero or non-finite, in which case the distribution is left unchanged.
    pub fn normalize(&mut self) -> Result<()> {
        // Sum in sorted key order so the result does not depend on the
        // order entries were inserted in, down to the last ULP.
        let mass: f64 = self.sorted_ids().into_iter().map(|id| self.index.value(id)).sum();
        if !mass.is_finite() || mass.abs() < f64::MIN_POSITIVE {
            return Err(Error::InvalidProbability(mass));
        }
        for v in self.index.values_mut() {
            *v /= mass;
        }
        Ok(())
    }

    /// Projects a quasi-probability vector onto a proper distribution:
    /// negative entries are dropped and the remainder renormalized.
    ///
    /// If every entry is non-positive the result is empty.
    pub fn clip_to_probabilities(&self) -> Self {
        let mut out = Self::new(self.width());
        let mut mass = 0.0;
        for (_, words, v) in self.index.iter() {
            if v > 0.0 {
                out.set_words(words, v);
                mass += v;
            }
        }
        if mass > 0.0 {
            for v in out.index.values_mut() {
                *v /= mass;
            }
        }
        out
    }

    /// Projects a quasi-probability vector onto the probability simplex in
    /// the Euclidean sense (the Smolin–Gambetta–Smith construction):
    /// a uniform shift `t` is subtracted from every stored entry and the
    /// result clipped at zero, with `t` chosen so the surviving mass is 1.
    ///
    /// Unlike [`ProbDist::clip_to_probabilities`] — which *rescales* all
    /// positive entries and therefore dilutes genuine peaks when the vector
    /// carries a broad tail of small noise terms — the projection removes
    /// the noise floor additively and leaves dominant entries essentially
    /// untouched. Use it on calibration outputs before computing fidelities.
    ///
    /// The projection is restricted to the stored support (outcomes never
    /// observed stay at zero); an empty or non-finite input falls back to
    /// clipping and renormalizing.
    pub fn project_to_probabilities(&self) -> Self {
        let mut values = self.index.values().to_vec();
        let total: f64 = values.iter().sum();
        if values.is_empty() || !total.is_finite() {
            return self.clip_to_probabilities();
        }
        // Canonical Euclidean simplex projection: sort descending, find the
        // largest prefix k with v_k > (Σ_{i≤k} v_i − 1) / k; the shift t is
        // that prefix's threshold and the result is max(v − t, 0).
        values.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let mut cumulative = 0.0;
        let mut t = values[0] - 1.0; // k = 0 degenerate fallback
        for (k, &v) in values.iter().enumerate() {
            cumulative += v;
            let candidate = (cumulative - 1.0) / (k + 1) as f64;
            if v > candidate {
                t = candidate;
            }
        }
        let mut out = Self::new(self.width());
        for (_, words, v) in self.index.iter() {
            let shifted = v - t;
            if shifted > 0.0 {
                out.set_words(words, shifted);
            }
        }
        out
    }

    /// Removes entries with `|value| < threshold`, keeping the survivors in
    /// their current order. Returns the number of removed entries.
    pub fn truncate(&mut self, threshold: f64) -> usize {
        self.index.retain(|v| v.abs() >= threshold)
    }

    /// Marginal distribution over the qubits in `keep` (ascending order of
    /// member index defines the output bit order).
    ///
    /// # Panics
    ///
    /// Panics if `keep` references a qubit outside the width.
    pub fn marginal(&self, keep: &QubitSet) -> Self {
        let positions: Vec<usize> = keep.iter().collect();
        if let Some(&q) = positions.iter().max() {
            assert!(
                self.is_empty() || q < self.width(),
                "qubit {q} out of range for width {}",
                self.width()
            );
        }
        let mut out = Self::new(positions.len());
        let mut sub = vec![0u64; BitString::words_for_width(positions.len())];
        for (_, words, v) in self.index.iter() {
            sub.fill(0);
            for (k, &p) in positions.iter().enumerate() {
                sub[k / 64] |= ((words[p / 64] >> (p % 64)) & 1) << (k % 64);
            }
            out.add_words(&sub, v);
        }
        out
    }

    /// The most probable outcome, if any (ties broken by bit-string order so
    /// the result is deterministic).
    pub fn argmax(&self) -> Option<(BitString, f64)> {
        let ix = &self.index;
        (0..ix.len() as u32)
            .max_by(|&a, &b| {
                ix.value(a)
                    .partial_cmp(&ix.value(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ix.key_words(b).cmp(ix.key_words(a)))
            })
            .map(|id| (ix.key(id), ix.value(id)))
    }

    /// Draws `shots` independent samples, returning a counts map.
    ///
    /// Sampling uses the distribution of positive entries only (negative
    /// quasi-probability mass cannot be sampled), renormalized to 1.
    ///
    /// # Panics
    ///
    /// Panics if the distribution has no positive entries.
    pub fn sample_counts<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        shots: u64,
    ) -> HashMap<BitString, u64> {
        // Deterministic order for reproducibility under a fixed seed.
        let ix = &self.index;
        let mut order = self.sorted_ids();
        order.retain(|&id| ix.value(id) > 0.0);
        assert!(!order.is_empty(), "cannot sample from a distribution with no positive mass");
        let total: f64 = order.iter().map(|&id| ix.value(id)).sum();
        let mut hits = vec![0u64; order.len()];
        for _ in 0..shots {
            let mut u = rng.gen::<f64>() * total;
            let mut chosen = order.len() - 1;
            for (i, &id) in order.iter().enumerate() {
                let v = ix.value(id);
                if u < v {
                    chosen = i;
                    break;
                }
                u -= v;
            }
            hits[chosen] += 1;
        }
        order.iter().zip(hits).filter(|&(_, n)| n > 0).map(|(&id, n)| (ix.key(id), n)).collect()
    }

    /// Iterator over `(outcome, value)` entries in insertion order. Each
    /// outcome is materialized as an owned [`BitString`]; read
    /// [`ProbDist::as_index`] to walk packed words without allocating.
    pub fn iter(&self) -> impl Iterator<Item = (BitString, f64)> + '_ {
        self.index.iter().map(|(id, _, v)| (self.index.key(id), v))
    }

    /// Entries sorted by bit-string order — use when deterministic iteration
    /// matters (sampling, display, tests).
    pub fn sorted_pairs(&self) -> Vec<(BitString, f64)> {
        self.sorted_ids().into_iter().map(|id| (self.index.key(id), self.index.value(id))).collect()
    }

    /// Approximate heap usage in bytes (benchmark memory accounting): the
    /// flat key and value buffers, plus the probe table if the distribution
    /// holds one (see [`SupportIndex::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.index.heap_bytes()
    }
}

impl PartialEq for ProbDist {
    /// Order-free: equal width, equal support size, and every entry's value
    /// `==` the other's value for the same outcome (so `-0.0 == 0.0` and a
    /// NaN entry never compares equal).
    fn eq(&self, other: &Self) -> bool {
        let theirs = &other.index;
        self.width() == other.width()
            && self.support_len() == other.support_len()
            && self
                .index
                .iter()
                .all(|(_, words, v)| theirs.get(words).is_some_and(|id| theirs.value(id) == v))
    }
}

impl fmt::Debug for ProbDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProbDist(width={}, support={}) {{", self.width(), self.support_len())?;
        for (i, id) in self.sorted_ids().into_iter().take(8).enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, " {}: {:.4}", self.index.key(id), self.index.value(id))?;
        }
        if self.support_len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, " }}")
    }
}

impl Serialize for ProbDist {
    /// Serializes as `[width, [bitstring, value], …]` with entries in sorted
    /// order, so the representation is deterministic. Each key is written
    /// as a [`BitString`]'s derived `{"width", "words"}` object straight
    /// from the packed words.
    fn serialize(&self, s: &mut Serializer) -> std::result::Result<(), serde::Error> {
        let width = self.width();
        s.begin_seq();
        s.element(&width)?;
        for id in self.sorted_ids() {
            s.item();
            s.begin_seq();
            s.item();
            s.begin_map();
            s.field("width", &width)?;
            s.field("words", self.index.key_words(id))?;
            s.end_map();
            s.element(&self.index.value(id))?;
            s.end_seq();
        }
        s.end_seq();
        Ok(())
    }
}

impl Deserialize for ProbDist {
    /// Reads what [`ProbDist::serialize`] writes. Each key's words are read
    /// into one reused buffer, with a [`BitString`]'s field rules: unknown
    /// keys are skipped and the first of a repeated key wins.
    ///
    /// Entries are added as [`ProbDist::add`] would, in input order. While
    /// the keys arrive strictly ascending, as serialized, they are appended
    /// to a canonical index with no probe table; the first key out of order
    /// or repeated builds the table and the rest are interned.
    fn deserialize(de: &mut Deserializer<'_>) -> std::result::Result<Self, serde::Error> {
        let Some(mut seq) = de.seq()? else {
            return Err(de.reject(serde::Error::custom(
                "expected a sequence starting with the width followed by (bitstring, value) pairs",
            )));
        };
        if !seq.has_next(de)? {
            return Err(serde::Error::custom("missing width"));
        }
        let width = usize::deserialize(de)?;
        let mut dist = ProbDist::new(width);
        let mut words = Vec::new();
        while seq.has_next(de)? {
            let mut pair = de.tuple(2)?;
            pair.next(de)?;
            let key_width = read_key_words(de, &mut words)?;
            let value: f64 = pair.element(de)?;
            pair.end(de)?;
            if key_width != width {
                return Err(serde::Error::custom("bit-string width mismatch"));
            }
            BitString::check_words(width, &words)
                .map_err(|e| serde::Error::custom(format!("bad bit string: {e}")))?;
            // A new entry stores `0.0 + value`, as `add_words` does.
            if !dist.index.push_sorted(&words, 0.0 + value) {
                dist.add_words(&words, value);
            }
        }
        Ok(dist)
    }
}

/// Reads one serialized [`BitString`] (`{"width", "words"}`) into `words`,
/// returning its width.
fn read_key_words(
    de: &mut Deserializer<'_>,
    words: &mut Vec<u64>,
) -> std::result::Result<usize, serde::Error> {
    const TY: &str = "BitString";
    let Some(mut map) = de.map()? else {
        return Err(de.invalid_type("map for struct BitString"));
    };
    let (mut width, mut have_words) = (None, false);
    while let Some(key) = map.next_key(de)? {
        match &*key {
            "width" if width.is_none() => width = Some(serde::de::field(de, TY, "width")?),
            "words" if !have_words => {
                have_words = true;
                words.clear();
                serde::de::field_with(de, TY, "words", |de| serde::de::extend_seq(de, words))?;
            }
            _ => {
                de.skip()?;
            }
        }
    }
    let width = width.ok_or_else(|| serde::de::missing_field("width", TY))?;
    if !have_words {
        return Err(serde::de::missing_field("words", TY));
    }
    Ok(width)
}

impl FromIterator<(BitString, f64)> for ProbDist {
    /// Collects pairs into a distribution, inferring the width from the first
    /// element (empty input yields a width-0 distribution).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent widths.
    fn from_iter<I: IntoIterator<Item = (BitString, f64)>>(iter: I) -> Self {
        let mut it = iter.into_iter().peekable();
        let width = it.peek().map(|(k, _)| k.width()).unwrap_or(0);
        let mut dist = ProbDist::new(width);
        for (k, v) in it {
            dist.add(k, v);
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn bs(s: &str) -> BitString {
        BitString::from_binary_str(s).unwrap()
    }

    #[test]
    fn point_mass_has_unit_mass() {
        let p = ProbDist::point_mass(bs("010"));
        assert_eq!(p.width(), 3);
        assert_eq!(p.support_len(), 1);
        assert_eq!(p.prob(&bs("010")), 1.0);
        assert_eq!(p.prob(&bs("000")), 0.0);
    }

    #[test]
    fn add_accumulates() {
        let mut p = ProbDist::new(2);
        p.add(bs("01"), 0.25);
        p.add(bs("01"), 0.25);
        assert_eq!(p.prob(&bs("01")), 0.5);
        assert_eq!(p.support_len(), 1);
    }

    #[test]
    fn from_pairs_rejects_bad_width() {
        let err = ProbDist::from_pairs(3, [(bs("01"), 0.5)]).unwrap_err();
        assert!(matches!(err, Error::WidthMismatch { expected: 3, actual: 2 }));
    }

    #[test]
    fn from_pairs_rejects_nan() {
        let err = ProbDist::from_pairs(2, [(bs("01"), f64::NAN)]).unwrap_err();
        assert!(matches!(err, Error::InvalidProbability(_)));
    }

    #[test]
    fn from_counts_divides_by_shots() {
        let mut counts = HashMap::new();
        counts.insert(bs("0"), 750u64);
        counts.insert(bs("1"), 250u64);
        let p = ProbDist::from_counts(1, &counts, 1000).unwrap();
        assert!((p.prob(&bs("0")) - 0.75).abs() < 1e-12);
        assert!((p.prob(&bs("1")) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn from_counts_zero_shots_errors() {
        assert!(ProbDist::from_counts(1, &HashMap::new(), 0).is_err());
    }

    #[test]
    fn from_text_counts_parses_sdk_format() {
        let mut counts = HashMap::new();
        counts.insert("010".to_string(), 600u64);
        counts.insert("110".to_string(), 400u64);
        let p = ProbDist::from_text_counts(&counts).unwrap();
        assert_eq!(p.width(), 3);
        assert!((p.prob(&bs("010")) - 0.6).abs() < 1e-12);
        assert!((p.prob(&bs("110")) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn from_text_counts_rejects_bad_input() {
        let mut bad_key = HashMap::new();
        bad_key.insert("01x".to_string(), 10u64);
        assert!(ProbDist::from_text_counts(&bad_key).is_err());

        let mut ragged = HashMap::new();
        ragged.insert("01".to_string(), 10u64);
        ragged.insert("011".to_string(), 10u64);
        assert!(ProbDist::from_text_counts(&ragged).is_err());

        assert!(ProbDist::from_text_counts(&HashMap::new()).is_err());
    }

    #[test]
    fn normalize_scales_mass_to_one() {
        let mut p = ProbDist::from_pairs(1, [(bs("0"), 3.0), (bs("1"), 1.0)]).unwrap();
        p.normalize().unwrap();
        assert!((p.total_mass() - 1.0).abs() < 1e-12);
        assert!((p.prob(&bs("0")) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn normalize_empty_errors() {
        let mut p = ProbDist::new(1);
        assert!(p.normalize().is_err());
    }

    #[test]
    fn clip_drops_negative_quasi_probs() {
        let p = ProbDist::from_pairs(1, [(bs("0"), 1.1), (bs("1"), -0.1)]).unwrap();
        let q = p.clip_to_probabilities();
        assert_eq!(q.support_len(), 1);
        assert!((q.prob(&bs("0")) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_all_negative_gives_empty() {
        let p = ProbDist::from_pairs(1, [(bs("0"), -0.5)]).unwrap();
        assert!(p.clip_to_probabilities().is_empty());
    }

    #[test]
    fn projection_preserves_peaks_against_noise_tail() {
        // Two genuine peaks plus a broad ± noise tail summing to +0.3.
        let mut p = ProbDist::new(12);
        p.add(bs("000000000000"), 0.45);
        p.add(bs("111111111111"), 0.40);
        for i in 0..1000usize {
            let key = BitString::from_index(i + 1, 12).unwrap();
            p.add(key, if i % 2 == 0 { 8e-4 } else { -2e-4 });
        }
        let projected = p.project_to_probabilities();
        assert!((projected.total_mass() - 1.0).abs() < 1e-9);
        // The peaks survive nearly intact (shift is on the order of the
        // noise floor), unlike multiplicative renormalization.
        assert!(projected.prob(&bs("000000000000")) > 0.44);
        assert!(projected.prob(&bs("111111111111")) > 0.39);
        let clipped = p.clip_to_probabilities();
        assert!(
            projected.prob(&bs("000000000000")) > clipped.prob(&bs("000000000000")),
            "projection should beat clipping on peaks"
        );
    }

    #[test]
    fn projection_of_proper_distribution_is_identityish() {
        let p = ProbDist::from_pairs(2, [(bs("00"), 0.7), (bs("11"), 0.3)]).unwrap();
        let projected = p.project_to_probabilities();
        assert!((projected.prob(&bs("00")) - 0.7).abs() < 1e-9);
        assert!((projected.prob(&bs("11")) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn projection_distributes_mass_deficit_uniformly() {
        // Total mass 0.7: the projection shifts every entry up by the same
        // amount (restricted to the support) rather than rescaling.
        let p = ProbDist::from_pairs(1, [(bs("0"), 0.8), (bs("1"), -0.1)]).unwrap();
        let projected = p.project_to_probabilities();
        assert!((projected.total_mass() - 1.0).abs() < 1e-9);
        assert!((projected.prob(&bs("0")) - 0.95).abs() < 1e-9);
        assert!((projected.prob(&bs("1")) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn truncate_removes_small_entries() {
        let mut p =
            ProbDist::from_pairs(2, [(bs("00"), 0.999), (bs("11"), 1e-9), (bs("01"), -1e-9)])
                .unwrap();
        let removed = p.truncate(1e-6);
        assert_eq!(removed, 2);
        assert_eq!(p.support_len(), 1);
    }

    #[test]
    fn marginal_sums_out_other_qubits() {
        let p = ProbDist::from_pairs(
            3,
            [(bs("000"), 0.4), (bs("010"), 0.3), (bs("001"), 0.2), (bs("011"), 0.1)],
        )
        .unwrap();
        let keep: QubitSet = [1usize].into_iter().collect();
        let m = p.marginal(&keep);
        assert_eq!(m.width(), 1);
        assert!((m.prob(&bs("0")) - 0.6).abs() < 1e-12);
        assert!((m.prob(&bs("1")) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn argmax_is_deterministic() {
        let p = ProbDist::from_pairs(2, [(bs("00"), 0.5), (bs("11"), 0.5)]).unwrap();
        let (k, v) = p.argmax().unwrap();
        assert_eq!(k, bs("00"));
        assert_eq!(v, 0.5);
    }

    #[test]
    fn sampling_matches_distribution_statistically() {
        let p = ProbDist::from_pairs(1, [(bs("0"), 0.8), (bs("1"), 0.2)]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let counts = p.sample_counts(&mut rng, 20_000);
        let zeros = *counts.get(&bs("0")).unwrap() as f64 / 20_000.0;
        assert!((zeros - 0.8).abs() < 0.02, "sampled frequency {zeros} too far from 0.8");
    }

    #[test]
    fn sampling_skips_negative_mass() {
        let p = ProbDist::from_pairs(1, [(bs("0"), 1.0), (bs("1"), -0.5)]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let counts = p.sample_counts(&mut rng, 100);
        assert_eq!(counts.get(&bs("1")), None);
    }

    #[test]
    fn sorted_pairs_orders_by_bitstring_numeric_value() {
        // BitString order is numeric with bit 0 least significant, so
        // "10" (index 1) sorts before "01" (index 2).
        let p = ProbDist::from_pairs(2, [(bs("01"), 0.5), (bs("10"), 0.5)]).unwrap();
        let pairs = p.sorted_pairs();
        assert_eq!(pairs[0].0, bs("10"));
        assert_eq!(pairs[1].0, bs("01"));
    }

    #[test]
    fn collect_from_iterator() {
        let p: ProbDist = [(bs("00"), 0.5), (bs("01"), 0.5)].into_iter().collect();
        assert_eq!(p.width(), 2);
        assert_eq!(p.support_len(), 2);
    }

    #[test]
    fn deserialize_rejects_malformed_key_words() {
        // A bit set above the width, and a word count that does not match.
        for words in ["[8]", "[0,0]"] {
            let text = format!(r#"[3,[{{"width":3,"words":{words}}},0.5]]"#);
            assert!(serde_json::from_str::<ProbDist>(&text).is_err(), "{words}");
        }
    }

    /// `[width, [key, value], …]` with the entries in the given order.
    fn serialized(width: usize, entries: &[(BitString, f64)]) -> String {
        let mut text = width.to_string();
        for (key, value) in entries {
            let words: Vec<String> = key.as_words().iter().map(u64::to_string).collect();
            text += &format!(r#",[{{"width":{width},"words":[{}]}},{value:?}]"#, words.join(","));
        }
        format!("[{text}]")
    }

    #[test]
    fn deserialize_matches_adding_in_input_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for width in [0usize, 3, 70] {
            let mut keys: Vec<BitString> = (0..40)
                .map(|_| {
                    let mut key = BitString::zeros(width);
                    for b in 0..width {
                        key.set(b, rng.gen_bool(0.5));
                    }
                    key
                })
                .collect();
            keys.sort();
            keys.dedup();
            let ascending: Vec<(BitString, f64)> =
                keys.iter().map(|k| (k.clone(), rng.gen_range(-0.5..1.0))).collect();
            let mut shuffled = ascending.clone();
            shuffled.shuffle(&mut rng);
            // A repeat of the last key, then of an earlier one.
            let mut repeated = ascending.clone();
            repeated.push(ascending[ascending.len() - 1].clone());
            repeated.push((ascending[0].0.clone(), 0.125));
            // `-0.0` as a first entry reads back as `+0.0`; as a repeat it
            // leaves the sum as it is.
            let mut negative_zero = ascending.clone();
            negative_zero[0].1 = -0.0;
            negative_zero.push((ascending[0].0.clone(), -0.0));
            let last = negative_zero.len() - 2;
            negative_zero[last].1 = -0.0;
            for (case, entries) in [
                ("ascending", &ascending),
                ("shuffled", &shuffled),
                ("repeated", &repeated),
                ("negative zero", &negative_zero),
            ] {
                let read: ProbDist = serde_json::from_str(&serialized(width, entries)).unwrap();
                let mut added = ProbDist::new(width);
                for (key, value) in entries {
                    added.add(key.clone(), *value);
                }
                let context = format!("{case}, width {width}");
                assert_eq!(read.support_len(), added.support_len(), "{context}");
                for ((rk, rv), (ak, av)) in read.iter().zip(added.iter()) {
                    assert_eq!(rk, ak, "id order: {context}");
                    assert_eq!(rv.to_bits(), av.to_bits(), "value of {rk}: {context}");
                }
                for key in &keys {
                    assert_eq!(read.prob(key).to_bits(), added.prob(key).to_bits(), "{context}");
                }
            }
            assert_eq!(
                serde_json::from_str::<ProbDist>(&serialized(width, &negative_zero))
                    .unwrap()
                    .prob(&keys[0])
                    .to_bits(),
                0.0f64.to_bits(),
                "width {width}"
            );
        }
    }

    #[test]
    fn index_views_share_the_flat_layout() {
        let mut p = ProbDist::new(2);
        p.set(bs("11"), 0.75);
        p.set(bs("00"), 0.25);
        // Ids follow insertion order until `SupportIndex::from_dist` sorts.
        assert_eq!(p.as_index().key(0), bs("11"));
        let owned = p.as_index().clone().into_dist();
        assert_eq!(owned, p);
        assert_eq!(p.heap_bytes(), p.as_index().heap_bytes());
    }

    #[test]
    fn truncate_keeps_survivor_order() {
        let mut p = ProbDist::new(2);
        for (key, value) in [("11", 0.5), ("00", 1e-9), ("10", 0.25), ("01", -1e-9)] {
            p.set(bs(key), value);
        }
        assert_eq!(p.truncate(1e-6), 2);
        let order: Vec<_> = p.iter().collect();
        assert_eq!(order, [(bs("11"), 0.5), (bs("10"), 0.25)]);
        assert_eq!(p.prob(&bs("00")), 0.0);
        p.add(bs("00"), 0.125);
        assert_eq!(p.prob(&bs("00")), 0.125);
    }

    #[test]
    fn l1_norm_counts_negative_mass() {
        let p = ProbDist::from_pairs(1, [(bs("0"), 1.1), (bs("1"), -0.1)]).unwrap();
        assert!((p.l1_norm() - 1.2).abs() < 1e-12);
        assert!((p.total_mass() - 1.0).abs() < 1e-12);
    }
}
