//! Bit-packed, fixed-width classical bit strings.

use crate::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-width string of classical bits, one bit per qubit.
///
/// Bit `i` corresponds to qubit `i`. Internally the bits are packed into
/// 64-bit words so that strings for devices with hundreds of qubits hash
/// and compare in a handful of word operations.
///
/// The textual representation (see [`BitString::from_binary_str`] and the
/// [`fmt::Display`] impl) places qubit 0 leftmost, matching the circuit
/// diagrams in the QuFEM paper. The `Ord` impl compares widths first and then
/// the packed words, i.e. numerically with bit 0 as the least-significant
/// bit — a deterministic total order, but not the lexicographic order of the
/// display string.
///
/// # Example
///
/// ```
/// use qufem_types::BitString;
///
/// let s = BitString::from_binary_str("0110").unwrap();
/// assert_eq!(s.width(), 4);
/// assert!(!s.get(0));
/// assert!(s.get(1));
/// assert_eq!(s.count_ones(), 2);
/// assert_eq!(s.to_string(), "0110");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BitString {
    width: usize,
    words: Vec<u64>,
}

impl BitString {
    /// Creates an all-zero string of the given width.
    ///
    /// ```
    /// use qufem_types::BitString;
    /// let z = BitString::zeros(130);
    /// assert_eq!(z.width(), 130);
    /// assert_eq!(z.count_ones(), 0);
    /// ```
    pub fn zeros(width: usize) -> Self {
        BitString { width, words: vec![0; width.div_ceil(WORD_BITS)] }
    }

    /// Creates an all-one string of the given width.
    ///
    /// ```
    /// use qufem_types::BitString;
    /// let o = BitString::ones(70);
    /// assert_eq!(o.count_ones(), 70);
    /// ```
    pub fn ones(width: usize) -> Self {
        let mut s = Self::zeros(width);
        for i in 0..width {
            s.set(i, true);
        }
        s
    }

    /// Builds a string from a slice of booleans, `bits[i]` becoming bit `i`.
    ///
    /// ```
    /// use qufem_types::BitString;
    /// let s = BitString::from_bits(&[true, false, true]);
    /// assert_eq!(s.to_string(), "101");
    /// ```
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut s = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            s.set(i, b);
        }
        s
    }

    /// Builds a string of width `width` from the low bits of `value`,
    /// with bit 0 of the string taken from bit 0 of `value`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::QubitOutOfRange`] if `value` has a set bit at or
    /// above position `width`.
    ///
    /// ```
    /// use qufem_types::BitString;
    /// let s = BitString::from_index(0b101, 4).unwrap();
    /// assert_eq!(s.to_string(), "1010"); // bit 0 leftmost
    /// ```
    pub fn from_index(value: usize, width: usize) -> Result<Self> {
        if width < usize::BITS as usize && value >> width != 0 {
            return Err(Error::QubitOutOfRange { index: value.ilog2() as usize, width });
        }
        let mut s = Self::zeros(width);
        if !s.words.is_empty() {
            s.words[0] = value as u64;
        }
        Ok(s)
    }

    /// Parses a string of `'0'`/`'1'` characters; the leftmost character is
    /// bit 0.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseBitString`] if any character is not `'0'` or
    /// `'1'`.
    pub fn from_binary_str(text: &str) -> Result<Self> {
        let mut bits = Vec::with_capacity(text.len());
        for c in text.chars() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                _ => return Err(Error::ParseBitString(text.to_owned())),
            }
        }
        Ok(Self::from_bits(&bits))
    }

    /// The number of bits (qubits) in the string.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.width, "bit index {i} out of range for width {}", self.width);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.width, "bit index {i} out of range for width {}", self.width);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Flips bit `i`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn flip(&mut self, i: usize) -> bool {
        let old = self.get(i);
        self.set(i, !old);
        old
    }

    /// Returns a copy with bit `i` flipped.
    pub fn with_flipped(&self, i: usize) -> Self {
        let mut s = self.clone();
        s.flip(i);
        s
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another string of the same width.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if the widths differ.
    pub fn hamming_distance(&self, other: &Self) -> Result<usize> {
        if self.width != other.width {
            return Err(Error::WidthMismatch { expected: self.width, actual: other.width });
        }
        Ok(self.words.iter().zip(&other.words).map(|(a, b)| (a ^ b).count_ones() as usize).sum())
    }

    /// Interprets the string as an integer (bit `i` contributing `2^i`).
    ///
    /// Returns `None` if the width exceeds the bits of `usize` and any high
    /// bit is set, or if the width is larger than `usize::BITS` entirely and
    /// the value would not fit.
    pub fn to_index(&self) -> Option<usize> {
        let bits = usize::BITS as usize;
        for (w, word) in self.words.iter().enumerate() {
            if w > 0 && *word != 0 {
                return None;
            }
            if w == 0 && bits < WORD_BITS && *word >> bits != 0 {
                return None;
            }
        }
        Some(self.words.first().copied().unwrap_or(0) as usize)
    }

    /// Extracts the bits at `positions` (in the given order) into a new,
    /// narrower string.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    ///
    /// ```
    /// use qufem_types::BitString;
    /// let s = BitString::from_binary_str("0110").unwrap();
    /// let sub = s.extract(&[1, 3]);
    /// assert_eq!(sub.to_string(), "10");
    /// ```
    pub fn extract(&self, positions: &[usize]) -> Self {
        let mut out = Self::zeros(positions.len());
        for (k, &p) in positions.iter().enumerate() {
            out.set(k, self.get(p));
        }
        out
    }

    /// Writes the bits of `sub` into this string at `positions`
    /// (`sub` bit `k` goes to `positions[k]`).
    ///
    /// # Panics
    ///
    /// Panics if `sub.width() != positions.len()` or a position is out of
    /// range.
    pub fn scatter(&mut self, positions: &[usize], sub: &Self) {
        assert_eq!(
            sub.width(),
            positions.len(),
            "scatter: sub-string width must equal number of positions"
        );
        for (k, &p) in positions.iter().enumerate() {
            self.set(p, sub.get(k));
        }
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.width).filter(|&i| self.get(i))
    }

    /// Iterator over all bits as booleans, ascending index.
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(|i| self.get(i))
    }

    /// Concatenates two strings: `self` occupies the low indices.
    pub fn concat(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.width + other.width);
        for i in 0..self.width {
            out.set(i, self.get(i));
        }
        for i in 0..other.width {
            out.set(self.width + i, other.get(i));
        }
        out
    }

    /// Approximate heap size of the string, in bytes (used by the
    /// memory-accounting instrumentation in the benchmark harness).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of 64-bit words a string of `width` bits occupies.
    pub const fn words_for_width(width: usize) -> usize {
        width.div_ceil(WORD_BITS)
    }

    /// The packed 64-bit words backing the string: bit `i` lives at bit
    /// `i % 64` of word `i / 64`. Bits at or above [`BitString::width`] are
    /// always zero — the invariant that makes word-level comparison, hashing,
    /// and the engine's mask arithmetic valid.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a string from packed words (the inverse of
    /// [`BitString::as_words`]). This is the allocation path of the
    /// calibration hot loop: the engine manipulates raw word buffers and only
    /// materializes `BitString`s at the sparse-vector boundary.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if `words.len()` differs from
    /// [`BitString::words_for_width`]`(width)` and [`Error::QubitOutOfRange`]
    /// if any bit at or above `width` is set.
    pub fn from_words(width: usize, words: Vec<u64>) -> Result<Self> {
        Self::check_words(width, &words)?;
        Ok(BitString { width, words })
    }

    /// Checks that `words` is a valid packing of a `width`-bit string — the
    /// validation [`BitString::from_words`] applies, for callers that keep
    /// keys as raw words (the flat distribution layout, the wire decoder).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WidthMismatch`] if `words.len()` differs from
    /// [`BitString::words_for_width`]`(width)` and [`Error::QubitOutOfRange`]
    /// if any bit at or above `width` is set.
    pub fn check_words(width: usize, words: &[u64]) -> Result<()> {
        let expected = Self::words_for_width(width);
        if words.len() != expected {
            return Err(Error::WidthMismatch { expected, actual: words.len() });
        }
        let tail_bits = width % WORD_BITS;
        if tail_bits != 0 {
            let tail = words[expected - 1];
            if tail >> tail_bits != 0 {
                return Err(Error::QubitOutOfRange {
                    index: WORD_BITS * (expected - 1) + 63 - tail.leading_zeros() as usize,
                    width,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.width {
            f.write_str(if self.get(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString(\"{self}\")")
    }
}

impl std::str::FromStr for BitString {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        Self::from_binary_str(s)
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Self::from_bits(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitString::zeros(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.width(), 100);
        let o = BitString::ones(100);
        assert_eq!(o.count_ones(), 100);
    }

    #[test]
    fn zero_width_string() {
        let z = BitString::zeros(0);
        assert_eq!(z.width(), 0);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.to_string(), "");
        assert_eq!(z.to_index(), Some(0));
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut s = BitString::zeros(130);
        for &i in &[0usize, 63, 64, 65, 127, 128, 129] {
            s.set(i, true);
            assert!(s.get(i), "bit {i} should be set");
        }
        assert_eq!(s.count_ones(), 7);
        s.set(64, false);
        assert!(!s.get(64));
        assert_eq!(s.count_ones(), 6);
    }

    #[test]
    fn from_index_roundtrip() {
        for v in 0..64usize {
            let s = BitString::from_index(v, 6).unwrap();
            assert_eq!(s.to_index(), Some(v));
        }
    }

    #[test]
    fn from_index_rejects_oversized_value() {
        assert!(BitString::from_index(0b1000, 3).is_err());
        assert!(BitString::from_index(0b111, 3).is_ok());
    }

    #[test]
    fn display_puts_bit0_leftmost() {
        let s = BitString::from_index(1, 4).unwrap();
        assert_eq!(s.to_string(), "1000");
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let text = "011010011";
        let s: BitString = text.parse().unwrap();
        assert_eq!(s.to_string(), text);
    }

    #[test]
    fn parse_rejects_non_binary() {
        assert!(BitString::from_binary_str("01a").is_err());
    }

    #[test]
    fn hamming_distance_basic() {
        let a = BitString::from_binary_str("0000").unwrap();
        let b = BitString::from_binary_str("0110").unwrap();
        assert_eq!(a.hamming_distance(&b).unwrap(), 2);
        assert_eq!(a.hamming_distance(&a).unwrap(), 0);
    }

    #[test]
    fn hamming_distance_width_mismatch() {
        let a = BitString::zeros(3);
        let b = BitString::zeros(4);
        assert!(matches!(
            a.hamming_distance(&b),
            Err(Error::WidthMismatch { expected: 3, actual: 4 })
        ));
    }

    #[test]
    fn extract_scatter_roundtrip() {
        let s = BitString::from_binary_str("10110").unwrap();
        let pos = [0usize, 2, 4];
        let sub = s.extract(&pos);
        assert_eq!(sub.to_string(), "110");
        let mut t = BitString::zeros(5);
        t.scatter(&pos, &sub);
        assert_eq!(t.to_string(), "10100");
    }

    #[test]
    fn flip_returns_previous() {
        let mut s = BitString::zeros(2);
        assert!(!s.flip(1));
        assert!(s.get(1));
        assert!(s.flip(1));
        assert!(!s.get(1));
    }

    #[test]
    fn with_flipped_leaves_original() {
        let s = BitString::zeros(3);
        let t = s.with_flipped(2);
        assert_eq!(s.count_ones(), 0);
        assert_eq!(t.count_ones(), 1);
        assert!(t.get(2));
    }

    #[test]
    fn iter_ones_ascending() {
        let s = BitString::from_binary_str("01011").unwrap();
        let ones: Vec<usize> = s.iter_ones().collect();
        assert_eq!(ones, vec![1, 3, 4]);
    }

    #[test]
    fn concat_orders_low_then_high() {
        let a = BitString::from_binary_str("10").unwrap();
        let b = BitString::from_binary_str("01").unwrap();
        assert_eq!(a.concat(&b).to_string(), "1001");
    }

    #[test]
    fn to_index_none_for_wide_set_bits() {
        let mut s = BitString::zeros(70);
        s.set(69, true);
        assert_eq!(s.to_index(), None);
        let z = BitString::zeros(70);
        assert_eq!(z.to_index(), Some(0));
    }

    #[test]
    fn ordering_is_consistent_with_eq() {
        let a = BitString::from_binary_str("01").unwrap();
        let b = BitString::from_binary_str("01").unwrap();
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
    }

    #[test]
    fn from_iterator_of_bools() {
        let s: BitString = [true, false, true].into_iter().collect();
        assert_eq!(s.to_string(), "101");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let s = BitString::zeros(4);
        let _ = s.get(4);
    }

    #[test]
    fn words_roundtrip_across_boundary() {
        let mut s = BitString::zeros(130);
        for &i in &[0usize, 63, 64, 129] {
            s.set(i, true);
        }
        let words = s.as_words().to_vec();
        assert_eq!(words.len(), BitString::words_for_width(130));
        let back = BitString::from_words(130, words).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn from_words_rejects_bad_shapes() {
        // Wrong word count.
        assert!(matches!(
            BitString::from_words(70, vec![0]),
            Err(Error::WidthMismatch { expected: 2, actual: 1 })
        ));
        // Set bit above the width.
        assert!(matches!(
            BitString::from_words(3, vec![0b1000]),
            Err(Error::QubitOutOfRange { index: 3, width: 3 })
        ));
        // Exactly full words need no tail masking.
        assert!(BitString::from_words(64, vec![u64::MAX]).is_ok());
        assert!(BitString::from_words(0, vec![]).is_ok());
    }
}
