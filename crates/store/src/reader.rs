//! Validated, lazily-indexed access to a `.sddb` byte image.

use sdd_core::{FullDictionary, PassFailDictionary, SameDifferentDictionary};
use sdd_logic::{BitVec, SddError};
use sdd_sim::ResponseMatrix;

use crate::format::{self, checked_add, checked_mul, Cursor, Header, HEADER_LEN};
use crate::{DictionaryKind, StoredDictionary};

/// A reader over a complete `.sddb` byte image, generic over where the
/// bytes live: a borrowed slice, an owned `Vec<u8>`, or a
/// [`DictBytes`](crate::DictBytes) mapping whose pages are faulted in only
/// as rows are touched.
///
/// Opening validates the header and the payload checksum once; after that,
/// [`signature`](Self::signature) loads single fault rows through the row
/// index without decoding the rest of the payload, and
/// [`dictionary`](Self::dictionary) decodes the whole artifact.
///
/// # Example
///
/// ```
/// use sdd_core::PassFailDictionary;
/// use sdd_store::{encode, SddbReader, StoredDictionary};
///
/// let d = PassFailDictionary::build(&sdd_core::example::paper_example());
/// let bytes = encode(&StoredDictionary::PassFail(d.clone())).unwrap();
/// let reader = SddbReader::open(&bytes)?;
/// assert_eq!(reader.faults(), 4);
/// assert_eq!(reader.signature(2)?, *d.signature(2)); // lazy row load
/// # Ok::<(), sdd_logic::SddError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SddbReader<B> {
    bytes: B,
    header: Header,
}

impl<B: AsRef<[u8]>> SddbReader<B> {
    /// Opens a byte image: decodes the header and verifies the payload
    /// length and checksum. (Checksumming touches every payload byte, so
    /// for a mapped image this faults in the whole file once — corruption
    /// surfaces here, identically to the owned path, never later.)
    ///
    /// # Errors
    ///
    /// Every corruption mode maps to a typed [`SddError`]:
    /// [`SddError::Truncated`] when bytes are missing,
    /// [`SddError::Invalid`] for bad magic / kind / trailing garbage,
    /// [`SddError::ChecksumMismatch`] for flipped bits, and
    /// [`SddError::UnsupportedVersion`] for newer formats.
    pub fn open(bytes: B) -> Result<Self, SddError> {
        let image = bytes.as_ref();
        let header = Header::decode(image)?;
        let payload_len = image.len() - HEADER_LEN;
        if payload_len < header.payload_len {
            return Err(SddError::Truncated {
                context: "store payload",
                expected: HEADER_LEN + header.payload_len,
                actual: image.len(),
            });
        }
        if payload_len > header.payload_len {
            return Err(SddError::invalid(format!(
                "{} trailing bytes after the payload",
                payload_len - header.payload_len
            )));
        }
        let reader = Self { bytes, header };
        reader.verify_checksum()?;
        Ok(reader)
    }

    /// Verifies the payload checksum recorded in the header.
    ///
    /// # Errors
    ///
    /// [`SddError::ChecksumMismatch`] when any payload bit flipped.
    pub fn verify_checksum(&self) -> Result<(), SddError> {
        let computed = format::fnv1a64(self.payload());
        if computed != self.header.payload_checksum {
            return Err(SddError::ChecksumMismatch {
                context: "store payload",
                stored: self.header.payload_checksum,
                computed,
            });
        }
        Ok(())
    }

    /// The payload bytes after the 64-byte header.
    fn payload(&self) -> &[u8] {
        &self.bytes.as_ref()[HEADER_LEN..]
    }

    /// Consumes the reader and returns the backing bytes — how a registry
    /// keeps the validated image (e.g. a mapping) after the header has
    /// been inspected.
    pub fn into_bytes(self) -> B {
        self.bytes
    }

    /// The decoded header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Which dictionary kind the payload encodes.
    pub fn kind(&self) -> DictionaryKind {
        self.header.kind
    }

    /// Number of tests `k`.
    pub fn tests(&self) -> usize {
        self.header.tests
    }

    /// Number of faults `n`.
    pub fn faults(&self) -> usize {
        self.header.faults
    }

    /// Number of observed outputs `m`.
    pub fn outputs(&self) -> usize {
        self.header.outputs
    }

    /// Byte offset (within the payload) of the per-fault row index, for the
    /// kinds that store signature rows.
    fn row_index_start(&self) -> Result<usize, SddError> {
        let h = &self.header;
        match h.kind {
            DictionaryKind::PassFail => Ok(0),
            DictionaryKind::SameDifferent => {
                // classes (tests × u32) + baselines (tests × ⌈m/64⌉ words),
                // every step checked: the dimensions come from the header.
                let classes = checked_mul(h.tests, 4, "baseline class table")?;
                let row = checked_mul(h.outputs.div_ceil(64), 8, "baseline row length")?;
                let baselines = checked_mul(h.tests, row, "baseline table")?;
                checked_add(classes, baselines, "signature index offset")
            }
            DictionaryKind::Full => Err(SddError::invalid(
                "full dictionaries store response classes, not signature rows",
            )),
        }
    }

    /// Loads the signature row of one fault through the row index, without
    /// decoding any other row — the partial-load path a tester-floor service
    /// uses when it only needs a handful of candidates re-checked. Over a
    /// mapped image this touches only the index entry's page and the row's
    /// pages.
    ///
    /// # Errors
    ///
    /// [`SddError::Invalid`] for an out-of-range fault or a full-dictionary
    /// payload, [`SddError::Truncated`] when the indexed row runs off the
    /// payload.
    pub fn signature(&self, fault: usize) -> Result<BitVec, SddError> {
        if fault >= self.header.faults {
            return Err(SddError::invalid(format!(
                "fault {fault} out of range ({} faults)",
                self.header.faults
            )));
        }
        let index_start = self.row_index_start()?;
        let mut cursor = Cursor::new(self.payload(), "signature row index");
        cursor.seek(checked_add(
            index_start,
            checked_mul(fault, 8, "signature index entry")?,
            "signature index entry",
        )?);
        let offset = self.offset(cursor.u64()?)?;
        let mut cursor = Cursor::new(self.payload(), "signature row");
        cursor.seek(offset);
        cursor.bit_row(self.header.tests)
    }

    /// Loads the baseline output vector of one test (same/different
    /// payloads only).
    ///
    /// # Errors
    ///
    /// [`SddError::Invalid`] for an out-of-range test or a non-
    /// same/different payload, [`SddError::Truncated`] on short payloads.
    pub fn baseline(&self, test: usize) -> Result<BitVec, SddError> {
        if self.header.kind != DictionaryKind::SameDifferent {
            return Err(SddError::invalid(
                "baselines are only stored for same/different dictionaries",
            ));
        }
        if test >= self.header.tests {
            return Err(SddError::invalid(format!(
                "test {test} out of range ({} tests)",
                self.header.tests
            )));
        }
        let baseline_bytes = checked_mul(self.header.outputs.div_ceil(64), 8, "baseline row")?;
        let mut cursor = Cursor::new(self.payload(), "baseline row");
        cursor.seek(checked_add(
            checked_mul(self.header.tests, 4, "baseline class table")?,
            checked_mul(test, baseline_bytes, "baseline row offset")?,
            "baseline row offset",
        )?);
        cursor.bit_row(self.header.outputs)
    }

    fn offset(&self, raw: u64) -> Result<usize, SddError> {
        usize::try_from(raw)
            .map_err(|_| SddError::invalid(format!("row offset {raw} exceeds usize")))
    }

    /// Decodes the whole payload into an in-memory dictionary.
    ///
    /// # Errors
    ///
    /// Typed [`SddError`]s for truncated sections, out-of-range offsets, or
    /// structurally inconsistent parts.
    pub fn dictionary(&self) -> Result<StoredDictionary, SddError> {
        let h = &self.header;
        match h.kind {
            DictionaryKind::PassFail => {
                let signatures = self.signature_rows()?;
                Ok(StoredDictionary::PassFail(PassFailDictionary::from_parts(
                    signatures, h.tests, h.outputs,
                )?))
            }
            DictionaryKind::SameDifferent => {
                let mut cursor = Cursor::new(self.payload(), "baseline classes");
                let mut classes = Vec::with_capacity(guarded_count(h.tests, 4, &cursor)?);
                for _ in 0..h.tests {
                    classes.push(cursor.u32()?);
                }
                let mut cursor = Cursor::new(self.payload(), "baseline rows");
                cursor.seek(checked_mul(h.tests, 4, "baseline class table")?);
                let mut baselines = Vec::with_capacity(guarded_count(h.tests, 8, &cursor)?);
                for _ in 0..h.tests {
                    baselines.push(cursor.bit_row(h.outputs)?);
                }
                let signatures = self.signature_rows()?;
                Ok(StoredDictionary::SameDifferent(
                    SameDifferentDictionary::from_parts(signatures, baselines, classes, h.outputs)?,
                ))
            }
            DictionaryKind::Full => self.full_dictionary(),
        }
    }

    /// Walks the payload's entire structure — every index entry, row, and
    /// table — with the same bounds checks as
    /// [`dictionary`](Self::dictionary), but materializes no row. This is
    /// how `sdd verify` and the artifact opener
    /// ([`ShardedReader::open_with`](crate::ShardedReader::open_with)) prove
    /// a mapped multi-gigabyte file sound without decoding it: the walk
    /// allocates nothing proportional to the file.
    ///
    /// # Errors
    ///
    /// The same structural [`SddError`]s [`dictionary`](Self::dictionary)
    /// raises for truncated sections or out-of-range offsets.
    pub fn validate_structure(&self) -> Result<(), SddError> {
        let h = &self.header;
        match h.kind {
            DictionaryKind::PassFail => self.walk_signature_rows(),
            DictionaryKind::SameDifferent => {
                let mut cursor = Cursor::new(self.payload(), "baseline classes");
                for _ in 0..h.tests {
                    cursor.u32()?;
                }
                for _ in 0..h.tests {
                    cursor.skip_bit_row(h.outputs)?;
                }
                self.walk_signature_rows()
            }
            DictionaryKind::Full => {
                let good_bytes = checked_mul(
                    h.tests,
                    checked_mul(h.outputs.div_ceil(64), 8, "fault-free row length")?,
                    "fault-free response table",
                )?;
                let class_entries = checked_mul(h.tests, h.faults, "response class matrix")?;
                let class_bytes = checked_mul(class_entries, 4, "response class matrix")?;
                let mut cursor = Cursor::new(self.payload(), "fault-free responses");
                for _ in 0..h.tests {
                    cursor.skip_bit_row(h.outputs)?;
                }
                let mut cursor = Cursor::new(self.payload(), "response class matrix");
                cursor.seek(good_bytes);
                for _ in 0..class_entries {
                    cursor.u32()?;
                }
                let mut index = Cursor::new(self.payload(), "distinct-table index");
                index.seek(checked_add(
                    good_bytes,
                    class_bytes,
                    "distinct-table index",
                )?);
                for _ in 0..h.tests {
                    let offset = self.offset(index.u64()?)?;
                    let mut table = Cursor::new(self.payload(), "distinct-vector table");
                    table.seek(offset);
                    let class_count = table.u32()? as usize;
                    guarded_count(class_count, 4, &table)?;
                    for _ in 0..class_count {
                        let len = table.u32()? as usize;
                        guarded_count(len, 4, &table)?;
                        for _ in 0..len {
                            table.u32()?;
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Bounds-walks every signature row through the row index without
    /// reading any of them.
    fn walk_signature_rows(&self) -> Result<(), SddError> {
        let index_start = self.row_index_start()?;
        let mut index = Cursor::new(self.payload(), "signature row index");
        index.seek(index_start);
        guarded_count(self.header.faults, 8, &index)?;
        for _ in 0..self.header.faults {
            let offset = self.offset(index.u64()?)?;
            let mut row = Cursor::new(self.payload(), "signature row");
            row.seek(offset);
            row.skip_bit_row(self.header.tests)?;
        }
        Ok(())
    }

    /// Reads every signature row through the row index.
    fn signature_rows(&self) -> Result<Vec<BitVec>, SddError> {
        let index_start = self.row_index_start()?;
        let mut index = Cursor::new(self.payload(), "signature row index");
        index.seek(index_start);
        let mut rows = Vec::with_capacity(guarded_count(self.header.faults, 8, &index)?);
        for _ in 0..self.header.faults {
            let offset = self.offset(index.u64()?)?;
            let mut row = Cursor::new(self.payload(), "signature row");
            row.seek(offset);
            rows.push(row.bit_row(self.header.tests)?);
        }
        Ok(rows)
    }

    fn full_dictionary(&self) -> Result<StoredDictionary, SddError> {
        let h = &self.header;
        let good_bytes = checked_mul(
            h.tests,
            checked_mul(h.outputs.div_ceil(64), 8, "fault-free row length")?,
            "fault-free response table",
        )?;
        let class_entries = checked_mul(h.tests, h.faults, "response class matrix")?;
        let class_bytes = checked_mul(class_entries, 4, "response class matrix")?;
        let mut cursor = Cursor::new(self.payload(), "fault-free responses");
        let mut good = Vec::with_capacity(guarded_count(h.tests, 8, &cursor)?);
        for _ in 0..h.tests {
            good.push(cursor.bit_row(h.outputs)?);
        }
        let mut cursor = Cursor::new(self.payload(), "response class matrix");
        cursor.seek(good_bytes);
        let mut class = Vec::with_capacity(guarded_count(class_entries, 4, &cursor)?);
        for _ in 0..class_entries {
            class.push(cursor.u32()?);
        }
        let mut index = Cursor::new(self.payload(), "distinct-table index");
        index.seek(checked_add(
            good_bytes,
            class_bytes,
            "distinct-table index",
        )?);
        let mut distinct = Vec::with_capacity(guarded_count(h.tests, 8, &index)?);
        for _ in 0..h.tests {
            let offset = self.offset(index.u64()?)?;
            let mut table = Cursor::new(self.payload(), "distinct-vector table");
            table.seek(offset);
            let class_count = table.u32()? as usize;
            let mut classes = Vec::with_capacity(guarded_count(class_count, 4, &table)?);
            for _ in 0..class_count {
                let len = table.u32()? as usize;
                let mut diffs = Vec::with_capacity(guarded_count(len, 4, &table)?);
                for _ in 0..len {
                    diffs.push(table.u32()?);
                }
                classes.push(diffs);
            }
            distinct.push(classes);
        }
        let matrix = ResponseMatrix::from_class_parts(good, h.faults, h.outputs, class, distinct)?;
        Ok(StoredDictionary::Full(FullDictionary::new(matrix)))
    }
}

/// Refuses a count-driven allocation whose entries could not all fit in the
/// bytes left after the cursor — the guard that keeps a crafted header or
/// table prefix from requesting a multi-gigabyte `Vec` before the first
/// truncated read is even attempted. `bytes_each` is the *minimum* encoded
/// size of one entry.
fn guarded_count(count: usize, bytes_each: usize, cursor: &Cursor<'_>) -> Result<usize, SddError> {
    let need = checked_mul(count, bytes_each, "table allocation")?;
    if need > cursor.remaining() {
        return Err(SddError::invalid(format!(
            "declared count {count} needs {need} bytes but only {} remain",
            cursor.remaining()
        )));
    }
    Ok(count)
}
