//! The `.sddb` wire format: header layout, checksums, and byte-level
//! primitives shared by the writer and the reader.
//!
//! All multi-byte integers are little-endian. Bit rows are packed 64 bits
//! per `u64` word exactly as [`BitVec::as_words`] emits them, so a payload
//! slice drops straight into an `sdd-logic` bit vector without per-bit work.
//!
//! ```text
//! Header (64 bytes):
//!   off  size  field
//!     0     4  magic "SDDB"
//!     4     2  format version (currently 1)
//!     6     2  dictionary kind (1 pass/fail, 2 same/different, 3 full)
//!     8     8  tests k
//!    16     8  faults n
//!    24     8  outputs m
//!    32     8  payload length in bytes
//!    40     8  payload checksum (FNV-1a 64 over the payload bytes)
//!    48     4  patch generation (0 = built from scratch, incremented by
//!              every ECO patch that rewrites the file; provenance only,
//!              never validated)
//!    52     4  reserved (written as 0)
//!    56     8  header checksum (FNV-1a 64 over header bytes 0..56)
//! ```

use sdd_logic::{BitVec, SddError};

use crate::DictionaryKind;

/// The four magic bytes every binary dictionary file starts with.
pub const MAGIC: [u8; 4] = *b"SDDB";

/// The newest format version this build reads and the only one it writes.
pub const VERSION: u16 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 64;

/// FNV-1a 64-bit checksum — dependency-free, byte-order independent, and
/// strong enough to catch the truncation/bit-rot failures a dictionary
/// artifact meets in practice (it is an integrity check, not a MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.iter().fold(OFFSET, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(PRIME)
    })
}

/// The decoded fixed-size header of a `.sddb` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Which dictionary kind the payload encodes.
    pub kind: DictionaryKind,
    /// Number of tests `k`.
    pub tests: usize,
    /// Number of faults `n`.
    pub faults: usize,
    /// Number of observed outputs `m`.
    pub outputs: usize,
    /// Payload length in bytes (everything after the header).
    pub payload_len: usize,
    /// FNV-1a 64 checksum of the payload bytes.
    pub payload_checksum: u64,
    /// Patch generation: 0 for an artifact built from scratch, incremented
    /// by every ECO patch that rewrites the file. Provenance only — readers
    /// never gate on it, and files written before the field existed decode
    /// as 0.
    pub patched: u32,
}

impl Header {
    /// Serializes the header, computing both checksums.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..6].copy_from_slice(&VERSION.to_le_bytes());
        out[6..8].copy_from_slice(&(self.kind as u16).to_le_bytes());
        out[8..16].copy_from_slice(&(self.tests as u64).to_le_bytes());
        out[16..24].copy_from_slice(&(self.faults as u64).to_le_bytes());
        out[24..32].copy_from_slice(&(self.outputs as u64).to_le_bytes());
        out[32..40].copy_from_slice(&(self.payload_len as u64).to_le_bytes());
        out[40..48].copy_from_slice(&self.payload_checksum.to_le_bytes());
        out[48..52].copy_from_slice(&self.patched.to_le_bytes());
        // Bytes 52..56 reserved.
        let checksum = fnv1a64(&out[..56]);
        out[56..64].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses and fully validates a header: magic, header checksum, version,
    /// kind, and that every `u64` dimension fits in `usize`.
    ///
    /// # Errors
    ///
    /// [`SddError::Truncated`] when fewer than [`HEADER_LEN`] bytes are
    /// available, [`SddError::Invalid`] for a bad magic or kind,
    /// [`SddError::ChecksumMismatch`] for a corrupted header, and
    /// [`SddError::UnsupportedVersion`] for a newer format.
    pub fn decode(bytes: &[u8]) -> Result<Self, SddError> {
        if bytes.len() < HEADER_LEN {
            return Err(SddError::Truncated {
                context: "store header",
                expected: HEADER_LEN,
                actual: bytes.len(),
            });
        }
        if bytes[0..4] != MAGIC {
            return Err(SddError::invalid(format!(
                "bad magic {:?}: not a binary dictionary file",
                &bytes[0..4]
            )));
        }
        let stored = u64::from_le_bytes(bytes[56..64].try_into().unwrap());
        let computed = fnv1a64(&bytes[..56]);
        if stored != computed {
            return Err(SddError::ChecksumMismatch {
                context: "store header",
                stored,
                computed,
            });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != VERSION {
            return Err(SddError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let kind = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
        let kind = DictionaryKind::from_tag(kind)
            .ok_or_else(|| SddError::invalid(format!("unknown dictionary kind tag {kind}")))?;
        let dim = |range: std::ops::Range<usize>, what: &str| -> Result<usize, SddError> {
            let v = u64::from_le_bytes(bytes[range].try_into().unwrap());
            usize::try_from(v)
                .map_err(|_| SddError::invalid(format!("{what} {v} exceeds this platform's usize")))
        };
        Ok(Self {
            kind,
            tests: dim(8..16, "test count")?,
            faults: dim(16..24, "fault count")?,
            outputs: dim(24..32, "output count")?,
            payload_len: dim(32..40, "payload length")?,
            payload_checksum: u64::from_le_bytes(bytes[40..48].try_into().unwrap()),
            patched: u32::from_le_bytes(bytes[48..52].try_into().unwrap()),
        })
    }
}

/// Byte range of the patch-generation counter within the header.
pub const PATCHED_RANGE: std::ops::Range<usize> = 48..52;
/// Byte range of the header checksum within the header.
pub const HEADER_CHECKSUM_RANGE: std::ops::Range<usize> = 56..64;

/// Returns a copy of a `.sddb` image with the patch-generation counter
/// zeroed and the header checksum recomputed: the canonical form used to
/// compare a patched artifact against a from-scratch rebuild bit-for-bit.
///
/// # Errors
///
/// [`SddError::Truncated`] when the image is shorter than a header.
pub fn strip_patch_provenance(image: &[u8]) -> Result<Vec<u8>, SddError> {
    let mut out = image.to_vec();
    set_patch_generation(&mut out, 0)?;
    Ok(out)
}

/// Records `generation` as a `.sddb` image's patch generation and
/// recomputes its header checksum in place.
///
/// # Errors
///
/// [`SddError::Truncated`] when the image is shorter than a header.
pub(crate) fn set_patch_generation(image: &mut [u8], generation: u32) -> Result<(), SddError> {
    if image.len() < HEADER_LEN {
        return Err(SddError::Truncated {
            context: "store header",
            expected: HEADER_LEN,
            actual: image.len(),
        });
    }
    image[PATCHED_RANGE].copy_from_slice(&generation.to_le_bytes());
    let checksum = fnv1a64(&image[..56]);
    image[HEADER_CHECKSUM_RANGE].copy_from_slice(&checksum.to_le_bytes());
    Ok(())
}

/// `a * b` with overflow reported as [`SddError::Invalid`] — every offset
/// computed from header-declared dimensions goes through this (or
/// [`checked_add`]) so a crafted header cannot wrap an offset in release
/// builds or panic in debug builds.
pub(crate) fn checked_mul(a: usize, b: usize, what: &'static str) -> Result<usize, SddError> {
    a.checked_mul(b)
        .ok_or_else(|| SddError::invalid(format!("{what}: {a} * {b} overflows usize")))
}

/// `a + b` with overflow reported as [`SddError::Invalid`].
pub(crate) fn checked_add(a: usize, b: usize, what: &'static str) -> Result<usize, SddError> {
    a.checked_add(b)
        .ok_or_else(|| SddError::invalid(format!("{what}: {a} + {b} overflows usize")))
}

/// A little-endian reading cursor over a payload slice that turns every
/// out-of-bounds read into a typed [`SddError::Truncated`].
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Self {
            bytes,
            pos: 0,
            context,
        }
    }

    pub(crate) fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// Bytes left between the cursor and the end of the slice — the upper
    /// bound for any count-driven allocation.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], SddError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(SddError::Truncated {
                context: self.context,
                expected: self.pos.saturating_add(len),
                actual: self.bytes.len(),
            }),
        }
    }

    /// Reads exactly `len` raw bytes.
    pub(crate) fn bytes_exact(&mut self, len: usize) -> Result<&'a [u8], SddError> {
        self.take(len)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SddError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SddError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a bit row of `bits` logical bits stored as packed words.
    pub(crate) fn bit_row(&mut self, bits: usize) -> Result<BitVec, SddError> {
        let words: Vec<u64> = self
            .row_bytes(bits)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        BitVec::from_words(words, bits)
    }

    /// Steps over a bit row with [`bit_row`](Self::bit_row)'s bounds check,
    /// reading and allocating nothing.
    pub(crate) fn skip_bit_row(&mut self, bits: usize) -> Result<(), SddError> {
        self.row_bytes(bits).map(drop)
    }

    /// The packed words of a `bits`-bit row.
    fn row_bytes(&mut self, bits: usize) -> Result<&'a [u8], SddError> {
        self.take(checked_mul(bits.div_ceil(64), 8, "bit row length")?)
    }
}

/// Little-endian writing helpers for payload assembly.
pub(crate) fn push_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn push_bit_row(out: &mut Vec<u8>, row: &BitVec) {
    for word in row.as_words() {
        push_u64(out, word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn header_round_trips() {
        let h = Header {
            kind: DictionaryKind::SameDifferent,
            tests: 12,
            faults: 345,
            outputs: 7,
            payload_len: 999,
            payload_checksum: 0xdead_beef,
            patched: 3,
        };
        let bytes = h.encode();
        assert_eq!(Header::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn patch_generation_is_backward_compatible_and_strippable() {
        let h = Header {
            kind: DictionaryKind::SameDifferent,
            tests: 2,
            faults: 3,
            outputs: 4,
            payload_len: 0,
            payload_checksum: 0,
            patched: 0,
        };
        // A pre-field file (reserved bytes all zero) decodes as patched = 0.
        assert_eq!(Header::decode(&h.encode()).unwrap().patched, 0);
        // Stripping provenance from a patched image recovers the unpatched
        // bytes exactly, header checksum included.
        let patched = Header { patched: 7, ..h };
        assert_eq!(
            strip_patch_provenance(&patched.encode()).unwrap(),
            h.encode().to_vec()
        );
        assert!(matches!(
            strip_patch_provenance(&[0u8; 10]),
            Err(SddError::Truncated { .. })
        ));
    }

    #[test]
    fn header_rejects_each_failure_mode_with_a_typed_error() {
        let h = Header {
            kind: DictionaryKind::PassFail,
            tests: 1,
            faults: 1,
            outputs: 1,
            payload_len: 8,
            payload_checksum: 0,
            patched: 0,
        };
        let good = h.encode();
        // Truncation.
        assert!(matches!(
            Header::decode(&good[..10]),
            Err(SddError::Truncated { .. })
        ));
        // Bad magic.
        let mut bad = good;
        bad[0] = b'X';
        assert!(matches!(
            Header::decode(&bad),
            Err(SddError::Invalid { .. })
        ));
        // Flipped interior byte: header checksum catches it.
        let mut bad = h.encode();
        bad[9] ^= 0xFF;
        assert!(matches!(
            Header::decode(&bad),
            Err(SddError::ChecksumMismatch { .. })
        ));
        // Future version (with a recomputed header checksum).
        let mut bad = h.encode();
        bad[4..6].copy_from_slice(&2u16.to_le_bytes());
        let checksum = fnv1a64(&bad[..56]);
        bad[56..64].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            Header::decode(&bad),
            Err(SddError::UnsupportedVersion {
                found: 2,
                supported: VERSION
            })
        ));
        // Unknown kind tag (with a recomputed header checksum).
        let mut bad = h.encode();
        bad[6..8].copy_from_slice(&9u16.to_le_bytes());
        let checksum = fnv1a64(&bad[..56]);
        bad[56..64].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            Header::decode(&bad),
            Err(SddError::Invalid { .. })
        ));
    }

    #[test]
    fn cursor_reports_truncation_with_context() {
        let mut c = Cursor::new(&[1, 2, 3], "row index");
        assert!(c.u32().is_err());
        let e = Cursor::new(&[], "row index").u64().unwrap_err();
        assert!(matches!(
            e,
            SddError::Truncated {
                context: "row index",
                ..
            }
        ));
    }
}
