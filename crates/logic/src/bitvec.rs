//! A packed, growable vector of two-valued logic.

use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{BitAnd, BitOr, BitXor, Not};
use std::str::FromStr;

/// A packed vector of bits with value semantics.
///
/// `BitVec` stores logic values 64 per machine word. It is used throughout the
/// workspace for input patterns (one bit per primary input) and output
/// responses (one bit per observed output). Equality, hashing and Hamming
/// distance are the operations fault dictionaries are built from, so they are
/// all O(words) and allocation-free.
///
/// Bit `0` is the first bit pushed; string formatting prints bit `0` first,
/// so `"01"` parses to a vector whose bit 0 is `0` and bit 1 is `1` — the
/// same left-to-right order the paper uses for output vectors like `z = 01`.
///
/// # Example
///
/// ```
/// use sdd_logic::BitVec;
///
/// let mut v = BitVec::new();
/// v.push(false);
/// v.push(true);
/// assert_eq!(v.to_string(), "01");
/// assert_eq!(v, "01".parse()?);
/// # Ok::<(), sdd_logic::ParseBitVecError>(())
/// ```
#[derive(Clone, Default, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a vector of `len` bits, all `false`.
    ///
    /// # Example
    ///
    /// ```
    /// let v = sdd_logic::BitVec::zeros(70);
    /// assert_eq!(v.len(), 70);
    /// assert_eq!(v.count_ones(), 0);
    /// ```
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a vector with capacity for `len` bits without allocating per push.
    pub fn with_capacity(len: usize) -> Self {
        Self {
            words: Vec::with_capacity(len.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Returns the bit at `index`, or `None` when out of bounds.
    pub fn get(&self, index: usize) -> Option<bool> {
        (index < self.len).then(|| self.words[index / 64] >> (index % 64) & 1 == 1)
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn bit(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] >> (index % 64) & 1 == 1
    }

    /// Sets the bit at `index` to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1 << (index % 64);
        if bit {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Flips the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn toggle(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] ^= 1 << (index % 64);
    }

    /// Number of `true` bits.
    pub fn count_ones(&self) -> usize {
        self.masked_words().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if any bit is set.
    pub fn any(&self) -> bool {
        self.masked_words().any(|w| w != 0)
    }

    /// Number of positions at which `self` and `other` differ, or `None`
    /// when the lengths differ (vectors over different output sets are
    /// incomparable rather than maximally distant).
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_logic::BitVec;
    /// let a: BitVec = "0110".parse()?;
    /// let b: BitVec = "0011".parse()?;
    /// assert_eq!(a.hamming_distance(&b), Some(2));
    /// # Ok::<(), sdd_logic::ParseBitVecError>(())
    /// ```
    pub fn hamming_distance(&self, other: &Self) -> Option<usize> {
        (self.len == other.len).then(|| {
            self.masked_words()
                .zip(other.masked_words())
                .map(|(a, b)| (a ^ b).count_ones() as usize)
                .sum()
        })
    }

    /// Iterates over the bits in index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            vec: self,
            index: 0,
        }
    }

    /// Number of 64-bit storage words (`len().div_ceil(64)`).
    pub fn word_count(&self) -> usize {
        self.len.div_ceil(64)
    }

    /// Iterates over the packed storage words, least-significant bit first,
    /// with bits beyond `len` forced to zero — the canonical little-endian
    /// word image used by the binary dictionary store.
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_logic::BitVec;
    /// let v: BitVec = "101".parse()?;
    /// assert_eq!(v.as_words().collect::<Vec<u64>>(), vec![0b101]);
    /// # Ok::<(), sdd_logic::ParseBitVecError>(())
    /// ```
    pub fn as_words(&self) -> impl Iterator<Item = u64> + '_ {
        self.masked_words()
    }

    /// Reassembles a vector of `len` bits from its packed word image, as
    /// produced by [`as_words`](Self::as_words). The inverse of `as_words`:
    /// stale bits beyond `len` in the last word are cleared rather than
    /// trusted, so any 8-byte-aligned payload slice deserializes safely.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::CountMismatch`](crate::SddError::CountMismatch)
    /// when `words.len()` differs from `len.div_ceil(64)`.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Result<Self, crate::SddError> {
        if words.len() != len.div_ceil(64) {
            return Err(crate::SddError::CountMismatch {
                context: "bit vector storage words",
                expected: len.div_ceil(64),
                actual: words.len(),
            });
        }
        let tail_bits = len % 64;
        if tail_bits != 0 {
            if let Some(last) = words.last_mut() {
                *last &= u64::MAX >> (64 - tail_bits);
            }
        }
        Ok(Self { words, len })
    }

    /// Words with bits beyond `len` forced to zero, so that equality and
    /// hashing ignore stale storage.
    fn masked_words(&self) -> impl Iterator<Item = u64> + '_ {
        let full = self.len / 64;
        let tail_bits = self.len % 64;
        self.words.iter().enumerate().map(move |(i, &w)| {
            if i < full {
                w
            } else if tail_bits == 0 {
                0
            } else {
                w & (u64::MAX >> (64 - tail_bits))
            }
        })
    }
}

impl PartialEq for BitVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.masked_words().eq(other.masked_words())
    }
}

impl Hash for BitVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        for w in self.masked_words() {
            w.hash(state);
        }
    }
}

impl PartialOrd for BitVec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitVec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.len
            .cmp(&other.len)
            .then_with(|| self.masked_words().cmp(other.masked_words()))
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec(\"{self}\")")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in self.iter() {
            f.write_str(if bit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            self.push(bit);
        }
    }
}

impl From<&[bool]> for BitVec {
    fn from(bits: &[bool]) -> Self {
        bits.iter().copied().collect()
    }
}

impl<const N: usize> From<[bool; N]> for BitVec {
    fn from(bits: [bool; N]) -> Self {
        bits.into_iter().collect()
    }
}

/// Error returned when parsing a [`BitVec`] from a string containing a
/// character other than `0` or `1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBitVecError {
    offending: char,
    position: usize,
}

impl fmt::Display for ParseBitVecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid bit character {:?} at position {}",
            self.offending, self.position
        )
    }
}

impl Error for ParseBitVecError {}

impl FromStr for BitVec {
    type Err = ParseBitVecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.chars()
            .enumerate()
            .map(|(position, c)| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                offending => Err(ParseBitVecError {
                    offending,
                    position,
                }),
            })
            .collect()
    }
}

macro_rules! bitwise_op {
    ($trait:ident, $method:ident, $op:tt, $doc:literal) => {
        impl $trait for &BitVec {
            type Output = BitVec;

            #[doc = $doc]
            ///
            /// # Panics
            ///
            /// Panics if the operand lengths differ.
            fn $method(self, rhs: &BitVec) -> BitVec {
                assert_eq!(self.len, rhs.len, "bitwise op on unequal lengths");
                BitVec {
                    words: self
                        .words
                        .iter()
                        .zip(&rhs.words)
                        .map(|(a, b)| a $op b)
                        .collect(),
                    len: self.len,
                }
            }
        }
    };
}

bitwise_op!(BitAnd, bitand, &, "Bitwise AND of two equal-length vectors.");
bitwise_op!(BitOr, bitor, |, "Bitwise OR of two equal-length vectors.");
bitwise_op!(BitXor, bitxor, ^, "Bitwise XOR of two equal-length vectors (the error map between two responses).");

impl Not for &BitVec {
    type Output = BitVec;

    /// Bitwise complement (bits beyond `len` stay unobservable).
    fn not(self) -> BitVec {
        BitVec {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        }
    }
}

/// Iterator over the bits of a [`BitVec`], produced by [`BitVec::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    vec: &'a BitVec,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let bit = self.vec.get(self.index)?;
        self.index += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.vec.len - self.index;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &BitVec) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn push_and_get_round_trip() {
        let mut v = BitVec::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            v.push(b);
        }
        assert_eq!(v.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.bit(i), b, "bit {i}");
        }
        assert_eq!(v.get(200), None);
    }

    #[test]
    fn zeros_is_all_false() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert!(!v.any());
        assert!(v.iter().all(|b| !b));
    }

    #[test]
    fn set_and_toggle() {
        let mut v = BitVec::zeros(65);
        v.set(64, true);
        assert!(v.bit(64));
        v.toggle(64);
        assert!(!v.bit(64));
        v.toggle(0);
        assert!(v.bit(0));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        BitVec::zeros(3).bit(3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitVec::zeros(3).set(3, true);
    }

    #[test]
    fn parse_and_display_round_trip() {
        let s = "0110100111010";
        let v: BitVec = s.parse().unwrap();
        assert_eq!(v.to_string(), s);
    }

    #[test]
    fn parse_rejects_non_bits() {
        let err = "01x".parse::<BitVec>().unwrap_err();
        assert_eq!(err.position, 2);
        assert_eq!(err.offending, 'x');
        assert!(err.to_string().contains("position 2"));
    }

    #[test]
    fn equality_ignores_stale_storage_bits() {
        // Build "1" two ways: directly, and by clearing a longer vector's tail.
        let a: BitVec = "1".parse().unwrap();
        let mut b: BitVec = "11".parse().unwrap();
        // Shrink b by rebuilding from one bit; storage may differ internally.
        b = b.iter().take(1).collect();
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn not_then_equality_is_consistent() {
        let a: BitVec = "101".parse().unwrap();
        let na = !&a;
        assert_eq!(na.to_string(), "010");
        // Complement twice round-trips even though stale high bits flip.
        assert_eq!(!&na, a);
    }

    #[test]
    fn hamming_distance_basics() {
        let a: BitVec = "0000".parse().unwrap();
        let b: BitVec = "1010".parse().unwrap();
        assert_eq!(a.hamming_distance(&b), Some(2));
        assert_eq!(a.hamming_distance(&a), Some(0));
        let c: BitVec = "000".parse().unwrap();
        assert_eq!(a.hamming_distance(&c), None);
    }

    #[test]
    fn xor_is_error_map() {
        let good: BitVec = "0101".parse().unwrap();
        let bad: BitVec = "0111".parse().unwrap();
        let err = &good ^ &bad;
        assert_eq!(err.to_string(), "0010");
        assert_eq!(err.count_ones(), 1);
    }

    #[test]
    fn and_or_behave_bitwise() {
        let a: BitVec = "0011".parse().unwrap();
        let b: BitVec = "0101".parse().unwrap();
        assert_eq!((&a & &b).to_string(), "0001");
        assert_eq!((&a | &b).to_string(), "0111");
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn xor_unequal_lengths_panics() {
        let a: BitVec = "01".parse().unwrap();
        let b: BitVec = "011".parse().unwrap();
        let _ = &a ^ &b;
    }

    #[test]
    fn ordering_is_total_and_length_first() {
        let short: BitVec = "1".parse().unwrap();
        let long: BitVec = "00".parse().unwrap();
        assert!(short < long, "shorter sorts first regardless of content");
        let a: BitVec = "01".parse().unwrap();
        let b: BitVec = "10".parse().unwrap();
        assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
    }

    #[test]
    fn from_iterator_and_extend() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.to_string(), "101");
        let mut w = v.clone();
        w.extend([false, false]);
        assert_eq!(w.to_string(), "10100");
    }

    #[test]
    fn from_array_and_slice() {
        let v = BitVec::from([true, false]);
        assert_eq!(v.to_string(), "10");
        let s = [false, true];
        assert_eq!(BitVec::from(&s[..]).to_string(), "01");
    }

    #[test]
    fn exact_size_iterator() {
        let v: BitVec = "10110".parse().unwrap();
        let mut it = v.iter();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
        assert_eq!((&v).into_iter().count(), 5);
    }

    #[test]
    fn count_ones_across_word_boundary() {
        let mut v = BitVec::zeros(128);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(127, true);
        assert_eq!(v.count_ones(), 4);
    }

    #[test]
    fn debug_is_nonempty() {
        let v: BitVec = "01".parse().unwrap();
        assert_eq!(format!("{v:?}"), "BitVec(\"01\")");
    }

    #[test]
    fn words_round_trip_across_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 128, 130] {
            let v: BitVec = (0..len).map(|i| i % 3 == 0).collect();
            assert_eq!(v.word_count(), len.div_ceil(64));
            let words: Vec<u64> = v.as_words().collect();
            assert_eq!(words.len(), v.word_count());
            let back = BitVec::from_words(words, len).unwrap();
            assert_eq!(back, v, "len {len}");
        }
    }

    #[test]
    fn from_words_clears_stale_tail_bits() {
        // A word with garbage above bit 2 must still equal "101".
        let v = BitVec::from_words(vec![0b101 | (0xFF << 3)], 3).unwrap();
        assert_eq!(v, "101".parse().unwrap());
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn from_words_rejects_wrong_word_count() {
        assert!(BitVec::from_words(vec![0, 0], 64).is_err());
        assert!(BitVec::from_words(vec![], 1).is_err());
    }
}
