//! Deterministic 64-bit digests for traces, reports, and regression gates.
//!
//! The loadgen harness (and any other replay tooling) needs to compare two
//! runs of the same scenario byte-for-byte without shipping whole request
//! traces around. [`Digest64`] is a streaming FNV-1a 64 fold: feed it the
//! canonical bytes of whatever must match and compare the resulting
//! 16-hex-digit digest. FNV-1a is not cryptographic — it is a cheap,
//! dependency-free, platform-stable checksum, which is exactly what a
//! determinism gate wants (a mismatch means the runs diverged; collisions
//! across *different* inputs are not an attack surface here).
//!
//! Floating-point values are folded via [`f64::to_bits`], so two digests are
//! equal iff the values are bit-identical — the same standard the engine's
//! determinism tests hold the calibration path to.

use qufem_types::ProbDist;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64 hasher with a stable, platform-independent fold
/// order for the workspace's scalar types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest64 {
    state: u64,
}

impl Default for Digest64 {
    fn default() -> Self {
        Digest64::new()
    }
}

impl Digest64 {
    /// A fresh digest at the FNV-1a offset basis.
    pub fn new() -> Self {
        Digest64 { state: FNV_OFFSET }
    }

    /// Folds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` as its 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds an `f64` via its IEEE-754 bit pattern, so equal digests mean
    /// bit-identical values.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string's UTF-8 bytes followed by its length (length-suffixed
    /// so `"ab" + "c"` and `"a" + "bc"` digest differently).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write_u64(s.len() as u64);
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// The current digest rendered as 16 lowercase hex digits (the form
    /// reports and CI diffs use).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.state)
    }
}

/// Digest of a byte slice.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = Digest64::new();
    d.write(bytes);
    d.finish()
}

/// Digest of a string's UTF-8 bytes.
pub fn digest_str(s: &str) -> u64 {
    digest_bytes(s.as_bytes())
}

/// Renders a digest as 16 lowercase hex digits.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Digest of a probability distribution: width, then every `(outcome,
/// probability)` pair in sorted outcome order, probabilities by bit pattern.
///
/// Two distributions digest equally iff they are bit-identical under
/// [`ProbDist::sorted_pairs`] — the same comparison the serving determinism
/// tests make explicitly.
pub fn digest_prob_dist(dist: &ProbDist) -> u64 {
    let mut d = Digest64::new();
    fold_prob_dist(&mut d, dist);
    d.finish()
}

/// Folds a distribution into an existing digest (for digests spanning many
/// responses).
pub fn fold_prob_dist(d: &mut Digest64, dist: &ProbDist) {
    let (index, width) = (dist.as_index(), dist.width());
    d.write_u64(width as u64);
    let mut order = Vec::new();
    index.sorted_ids(&mut order);
    for id in order {
        let words = index.key_words(id);
        for i in 0..width {
            d.write(&[((words[i / 64] >> (i % 64)) & 1) as u8]);
        }
        d.write_f64(index.value(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufem_types::BitString;

    #[test]
    fn known_fnv1a_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(digest_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest_str("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut d = Digest64::new();
        d.write(b"foo");
        d.write(b"bar");
        assert_eq!(d.finish(), digest_str("foobar"));
        assert_eq!(d.hex(), digest_hex(digest_str("foobar")));
    }

    #[test]
    fn length_suffix_separates_string_boundaries() {
        let mut a = Digest64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn prob_dist_digest_is_order_independent_and_value_sensitive() {
        let mut a = ProbDist::new(2);
        a.set(BitString::zeros(2), 0.25);
        a.set(BitString::ones(2), 0.75);
        let mut b = ProbDist::new(2);
        b.set(BitString::ones(2), 0.75);
        b.set(BitString::zeros(2), 0.25);
        assert_eq!(digest_prob_dist(&a), digest_prob_dist(&b), "insertion order must not matter");

        let mut c = ProbDist::new(2);
        c.set(BitString::zeros(2), 0.25 + 1e-16);
        c.set(BitString::ones(2), 0.75);
        assert_ne!(digest_prob_dist(&a), digest_prob_dist(&c), "ULP changes must be visible");
    }

    #[test]
    fn fold_matches_the_per_bit_walk_over_sorted_pairs() {
        // Multi-word keys inserted out of canonical order: the word-level
        // fold must hash exactly what a per-bit walk over `sorted_pairs` does.
        let mut dist = ProbDist::new(67);
        for (bits, value) in [(&[66usize, 3][..], 0.5), (&[0], 0.25), (&[], -0.125), (&[64], 0.0)] {
            let mut key = BitString::zeros(67);
            for &b in bits {
                key.set(b, true);
            }
            dist.set(key, value);
        }
        let mut expected = Digest64::new();
        expected.write_u64(67);
        for (outcome, p) in dist.sorted_pairs() {
            for i in 0..outcome.width() {
                expected.write(&[u8::from(outcome.get(i))]);
            }
            expected.write_f64(p);
        }
        assert_eq!(digest_prob_dist(&dist), expected.finish());
    }

    #[test]
    fn fold_composes_across_responses() {
        let mut dist = ProbDist::new(1);
        dist.set(BitString::zeros(1), 1.0);
        let mut combined = Digest64::new();
        fold_prob_dist(&mut combined, &dist);
        fold_prob_dist(&mut combined, &dist);
        let mut once = Digest64::new();
        fold_prob_dist(&mut once, &dist);
        assert_ne!(combined.finish(), once.finish());
    }
}
