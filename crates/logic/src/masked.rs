//! Ternary observed vectors: per-bit known/unknown over [`BitVec`].
//!
//! A tester's datalog rarely pins down every observation. Fail memory
//! overflows truncate the log, masked scan cells read `X`, and flaky strobes
//! get discarded — so the vector diagnosis actually has in hand is ternary:
//! each bit is `0`, `1`, or *unknown*. [`MaskedBitVec`] pairs a value vector
//! with a known-mask and defines the masked comparisons the noise-tolerant
//! diagnosis flow is built on: mismatches are only counted where the
//! observation is known, and the known-bit count is reported alongside so
//! callers can turn the pair into a confidence score.

use std::fmt;
use std::str::FromStr;

use crate::{BitVec, SddError};

/// A bit vector in which each position is known-`0`, known-`1`, or unknown.
///
/// Displayed and parsed as a string of `0`, `1` and `X`.
///
/// # Example
///
/// ```
/// use sdd_logic::MaskedBitVec;
///
/// let observed: MaskedBitVec = "1X0".parse()?;
/// assert_eq!(observed.known_count(), 2);
/// let stored: sdd_logic::BitVec = "110".parse()?;
/// // One known mismatch (bit 1 is masked out of the comparison):
/// let d = observed.distance_to(&stored)?;
/// assert_eq!((d.mismatches, d.known), (0, 2));
/// # Ok::<(), sdd_logic::SddError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MaskedBitVec {
    bits: BitVec,
    known: BitVec,
}

/// The result of comparing a [`MaskedBitVec`] with a fully-known vector:
/// how many known bits disagree, out of how many known bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskedDistance {
    /// Known positions at which the vectors differ.
    pub mismatches: usize,
    /// Number of known positions compared.
    pub known: usize,
}

impl MaskedBitVec {
    /// Wraps a fully-known vector: every bit of `bits` is trusted.
    pub fn from_known(bits: BitVec) -> Self {
        let known = !&BitVec::zeros(bits.len());
        Self { bits, known }
    }

    /// A vector of `len` bits, all unknown.
    pub fn unknown(len: usize) -> Self {
        Self {
            bits: BitVec::zeros(len),
            known: BitVec::zeros(len),
        }
    }

    /// Assembles from a value vector and a known-mask of the same width.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::WidthMismatch`] when the widths differ.
    pub fn from_parts(bits: BitVec, known: BitVec) -> Result<Self, SddError> {
        if bits.len() != known.len() {
            return Err(SddError::WidthMismatch {
                context: "masked vector known-mask",
                expected: bits.len(),
                actual: known.len(),
            });
        }
        Ok(Self { bits, known })
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` when the vector has no positions.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of known positions.
    pub fn known_count(&self) -> usize {
        self.known.count_ones()
    }

    /// Number of unknown positions.
    pub fn unknown_count(&self) -> usize {
        self.len() - self.known_count()
    }

    /// Returns `true` when every position is known.
    pub fn is_fully_known(&self) -> bool {
        self.known_count() == self.len()
    }

    /// The bit at `index`: `Some(value)` when known, `None` when unknown.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn bit(&self, index: usize) -> Option<bool> {
        self.known.bit(index).then(|| self.bits.bit(index))
    }

    /// Sets the bit at `index` to a known value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set_known(&mut self, index: usize, value: bool) {
        self.bits.set(index, value);
        self.known.set(index, true);
    }

    /// Marks the bit at `index` unknown.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn mask(&mut self, index: usize) {
        self.known.set(index, false);
        self.bits.set(index, false);
    }

    /// Flips the bit at `index` if it is known; unknown bits stay unknown.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn flip(&mut self, index: usize) {
        if self.known.bit(index) {
            self.bits.toggle(index);
        }
    }

    /// The underlying value vector (unknown positions read `0`).
    pub fn values(&self) -> &BitVec {
        &self.bits
    }

    /// The known-mask (bit set ⇔ position known).
    pub fn known_mask(&self) -> &BitVec {
        &self.known
    }

    /// Counts disagreements with a fully-known vector over the known
    /// positions only.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::WidthMismatch`] when the widths differ: `other`
    /// (the stored vector) fixes the expected width, and this observation
    /// is the actual one.
    pub fn distance_to(&self, other: &BitVec) -> Result<MaskedDistance, SddError> {
        if self.len() != other.len() {
            return Err(SddError::WidthMismatch {
                context: "masked comparison",
                expected: other.len(),
                actual: self.len(),
            });
        }
        let diff = &self.bits ^ other;
        let mismatches = (&diff & &self.known).count_ones();
        Ok(MaskedDistance {
            mismatches,
            known: self.known_count(),
        })
    }

    /// Returns `true` when the two vectors agree at every position known in
    /// *both* — the consistency relation truncation must preserve.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::WidthMismatch`] when the widths differ.
    pub fn consistent_with(&self, other: &MaskedBitVec) -> Result<bool, SddError> {
        if self.len() != other.len() {
            return Err(SddError::WidthMismatch {
                context: "masked consistency check",
                expected: self.len(),
                actual: other.len(),
            });
        }
        let both = &self.known & &other.known;
        let diff = &self.bits ^ &other.bits;
        Ok(!(&diff & &both).any())
    }
}

impl From<BitVec> for MaskedBitVec {
    fn from(bits: BitVec) -> Self {
        Self::from_known(bits)
    }
}

impl fmt::Display for MaskedBitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len() {
            f.write_str(match self.bit(i) {
                None => "X",
                Some(true) => "1",
                Some(false) => "0",
            })?;
        }
        Ok(())
    }
}

impl fmt::Debug for MaskedBitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MaskedBitVec(\"{self}\")")
    }
}

/// `byte` repeated in each of the eight byte lanes of a word.
const fn lanes(byte: u8) -> u64 {
    u64::from_ne_bytes([byte; 8])
}

/// The high bit of each byte lane of `w` that is zero. Exact: the sum of
/// two 7-bit lanes never carries into the next lane.
fn zero_lanes(w: u64) -> u64 {
    !(((w & lanes(0x7F)) + lanes(0x7F)) | w) & lanes(0x80)
}

/// Gathers the high bit of each byte lane into bit `i` for lane `i`: the
/// multiply sends lane `i`'s bit to bit `56 + i` without any two partial
/// products meeting there.
fn lane_bits(high: u64) -> u8 {
    ((high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// Classifies eight characters at once, the first in lane 0, into bit
/// masks: `1`s, known (`0` or `1`) and valid (known or `x`/`X`/`-`).
fn classify(chunk: [u8; 8]) -> (u8, u8, u8) {
    let w = u64::from_le_bytes(chunk);
    let known = zero_lanes((w & lanes(0xFE)) ^ lanes(b'0'));
    // A known character's value is its low bit, shifted up to the lane's
    // high bit.
    let one = known & (w << 7);
    let unknown = zero_lanes((w | lanes(0x20)) ^ lanes(b'x')) | zero_lanes(w ^ lanes(b'-'));
    (lane_bits(one), lane_bits(known), lane_bits(known | unknown))
}

impl FromStr for MaskedBitVec {
    type Err = SddError;

    /// Parses eight characters per step into value and known words of
    /// exactly `s.len()` bits. Every accepted character is one ASCII byte,
    /// so the first rejected byte's offset is also its char position.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let len = s.len();
        let mut values = Vec::with_capacity(len.div_ceil(64));
        let mut known = Vec::with_capacity(len.div_ceil(64));
        for (word, bytes) in s.as_bytes().chunks(64).enumerate() {
            let (mut value_word, mut known_word) = (0u64, 0u64);
            for (lane, chunk) in bytes.chunks(8).enumerate() {
                let chunk = <[u8; 8]>::try_from(chunk).unwrap_or_else(|_| {
                    // The short tail, padded with unknowns.
                    let mut padded = [b'X'; 8];
                    padded[..chunk.len()].copy_from_slice(chunk);
                    padded
                });
                let (one, known_bits, valid) = classify(chunk);
                if valid != u8::MAX {
                    let position = word * 64 + lane * 8 + valid.trailing_ones() as usize;
                    let offending = s
                        .get(position..)
                        .and_then(|rest| rest.chars().next())
                        .unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(SddError::Parse {
                        line: 0,
                        message: format!(
                            "invalid masked bit character {offending:?} at position {position}"
                        ),
                    });
                }
                value_word |= u64::from(one) << (8 * lane);
                known_word |= u64::from(known_bits) << (8 * lane);
            }
            values.push(value_word);
            known.push(known_word);
        }
        Ok(Self {
            bits: BitVec::from_words(values, len)?,
            known: BitVec::from_words(known, len)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(s: &str) -> BitVec {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_round_trip() {
        for s in ["", "0", "1", "X", "01X10", "XXXX"] {
            let v: MaskedBitVec = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        let lower: MaskedBitVec = "0x1-".parse().unwrap();
        assert_eq!(lower.to_string(), "0X1X", "x and - normalize to X");
        assert!("01?".parse::<MaskedBitVec>().is_err());
    }

    #[test]
    fn classify_agrees_with_a_byte_match_in_every_lane() {
        for filler in [b'0', b'1', b'X', 0x00, 0x80, 0xFF] {
            for lane in 0..8 {
                for byte in 0..=u8::MAX {
                    let mut chunk = [filler; 8];
                    chunk[lane] = byte;
                    let expected = |f: fn(u8) -> bool| {
                        chunk
                            .iter()
                            .enumerate()
                            .fold(0u8, |bits, (i, &b)| bits | u8::from(f(b)) << i)
                    };
                    assert_eq!(
                        classify(chunk),
                        (
                            expected(|b| b == b'1'),
                            expected(|b| matches!(b, b'0' | b'1')),
                            expected(|b| matches!(b, b'0' | b'1' | b'x' | b'X' | b'-')),
                        ),
                        "{chunk:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_known_knows_everything() {
        let v = MaskedBitVec::from_known(bv("0110"));
        assert!(v.is_fully_known());
        assert_eq!(v.unknown_count(), 0);
        assert_eq!(v.bit(1), Some(true));
        assert_eq!(v.to_string(), "0110");
    }

    #[test]
    fn unknown_knows_nothing() {
        let v = MaskedBitVec::unknown(3);
        assert_eq!(v.known_count(), 0);
        assert_eq!(v.bit(0), None);
        assert_eq!(v.to_string(), "XXX");
    }

    #[test]
    fn mask_and_set_and_flip() {
        let mut v = MaskedBitVec::from_known(bv("101"));
        v.mask(0);
        assert_eq!(v.bit(0), None);
        assert_eq!(v.known_count(), 2);
        v.flip(0); // unknown stays unknown
        assert_eq!(v.bit(0), None);
        v.flip(1);
        assert_eq!(v.bit(1), Some(true));
        v.set_known(0, true);
        assert_eq!(v.to_string(), "111");
    }

    #[test]
    fn distance_ignores_unknowns() {
        let v: MaskedBitVec = "1X0X".parse().unwrap();
        let d = v.distance_to(&bv("0100")).unwrap();
        assert_eq!(
            d,
            MaskedDistance {
                mismatches: 1,
                known: 2
            }
        );
        let d = v.distance_to(&bv("1100")).unwrap();
        assert_eq!(
            d,
            MaskedDistance {
                mismatches: 0,
                known: 2
            }
        );
    }

    #[test]
    fn distance_width_mismatch_is_error() {
        let v: MaskedBitVec = "10".parse().unwrap();
        let e = v.distance_to(&bv("100")).unwrap_err();
        assert!(matches!(
            e,
            SddError::WidthMismatch {
                expected: 3,
                actual: 2,
                ..
            }
        ));
    }

    #[test]
    fn fully_known_distance_matches_hamming() {
        let a = bv("0110100111");
        let b = bv("1110001111");
        let d = MaskedBitVec::from_known(a.clone()).distance_to(&b).unwrap();
        assert_eq!(Some(d.mismatches), a.hamming_distance(&b));
        assert_eq!(d.known, a.len());
    }

    #[test]
    fn consistency_is_about_shared_known_bits() {
        let a: MaskedBitVec = "1X0".parse().unwrap();
        let b: MaskedBitVec = "1XX".parse().unwrap();
        assert!(a.consistent_with(&b).unwrap());
        assert!(b.consistent_with(&a).unwrap());
        let c: MaskedBitVec = "0X0".parse().unwrap();
        assert!(!a.consistent_with(&c).unwrap());
        assert!(a.consistent_with(&"1X".parse().unwrap()).is_err());
    }

    #[test]
    fn from_parts_checks_widths() {
        assert!(MaskedBitVec::from_parts(bv("10"), bv("11")).is_ok());
        assert!(matches!(
            MaskedBitVec::from_parts(bv("10"), bv("1")),
            Err(SddError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn debug_shows_ternary_string() {
        let v: MaskedBitVec = "1X".parse().unwrap();
        assert_eq!(format!("{v:?}"), "MaskedBitVec(\"1X\")");
    }
}
