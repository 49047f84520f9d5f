//! Binary on-disk store for fault dictionaries — the persistence layer a
//! diagnosis *service* loads from, as opposed to the diffable text format
//! (`sdd_core::io`) the offline flow writes next to version control.
//!
//! A `.sddb` file is a 64-byte checksummed header followed by a bit-packed
//! little-endian payload (see [`format`](mod@format)) covering all three
//! dictionary kinds. Signature rows are stored word-for-word as `sdd-logic` bit
//! vectors, so loading is a bounds-checked copy rather than a parse, and a
//! per-fault row index lets [`SddbReader`] serve single-row loads without
//! decoding the rest of the file. Every failure mode — truncation, version
//! skew, bit rot — surfaces as a typed [`SddError`], never a panic.
//!
//! Every `.sddb` image this crate writes comes from one encoder, [`encode`]:
//! [`save`] and [`write_sharded`] build artifacts with it, and an ECO patch
//! ([`commit_patch`]) re-encodes the patched dictionary and rewrites only
//! the files whose bytes change.
//!
//! ```
//! use sdd_core::SameDifferentDictionary;
//! use sdd_store::{decode, encode, StoredDictionary};
//!
//! let matrix = sdd_core::example::paper_example();
//! let d = SameDifferentDictionary::build(&matrix, &[2, 1]);
//! let bytes = encode(&StoredDictionary::SameDifferent(d.clone()))?;
//! match decode(&bytes)? {
//!     StoredDictionary::SameDifferent(back) => assert_eq!(back, d),
//!     _ => unreachable!("kind is recorded in the header"),
//! }
//! # Ok::<(), sdd_logic::SddError>(())
//! ```

// `deny`, not `forbid`: the [`mmap`] module scopes an `allow` for its
// `mmap`/`munmap` FFI — the crate's only unsafe code, mirroring the
// reactor's discipline in the serve layer.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod atomic;
pub mod format;
mod manifest;
pub mod mmap;
mod patch;
mod reader;
mod verify;
mod writer;

use std::fs;
use std::path::Path;

use sdd_core::{FullDictionary, PassFailDictionary, SameDifferentDictionary};
use sdd_logic::SddError;

pub use atomic::{atomic_write, is_temp, temp_sibling, AtomicFile};
pub use format::{strip_patch_provenance, Header, HEADER_LEN, MAGIC, VERSION};
pub use manifest::{
    slice_dictionary, write_sharded, ShardManifest, ShardRecord, ShardedReader,
    MANIFEST_HEADER_LEN, MANIFEST_MAGIC, MANIFEST_VERSION,
};
pub use mmap::{mmap_supported, read_dictionary_bytes, DictBytes, MappedFile, MmapMode};
pub use patch::{commit_patch, PatchStats};
pub use reader::SddbReader;
pub use verify::{
    quarantine_bad_shards, verify_file, verify_file_with, ShardHealth, VerifyReport,
    QUARANTINE_SUFFIX,
};
pub use writer::encode;

/// Which dictionary type a `.sddb` payload encodes, as recorded in the
/// header's kind tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum DictionaryKind {
    /// Pass/fail dictionary: one detection bit per fault and test.
    PassFail = 1,
    /// Same/different dictionary: signature bits plus per-test baselines.
    SameDifferent = 2,
    /// Full dictionary: response classes and distinct output vectors.
    Full = 3,
}

impl DictionaryKind {
    /// Decodes a header kind tag.
    pub fn from_tag(tag: u16) -> Option<Self> {
        match tag {
            1 => Some(Self::PassFail),
            2 => Some(Self::SameDifferent),
            3 => Some(Self::Full),
            _ => None,
        }
    }

    /// The lower-case name used in protocol replies and logs.
    pub fn name(self) -> &'static str {
        match self {
            Self::PassFail => "pass-fail",
            Self::SameDifferent => "same-different",
            Self::Full => "full",
        }
    }
}

/// Any of the three dictionary types, as stored and loaded by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredDictionary {
    /// A pass/fail dictionary.
    PassFail(PassFailDictionary),
    /// A same/different dictionary.
    SameDifferent(SameDifferentDictionary),
    /// A full dictionary.
    Full(FullDictionary),
}

impl StoredDictionary {
    /// This dictionary's kind tag.
    pub fn kind(&self) -> DictionaryKind {
        match self {
            Self::PassFail(_) => DictionaryKind::PassFail,
            Self::SameDifferent(_) => DictionaryKind::SameDifferent,
            Self::Full(_) => DictionaryKind::Full,
        }
    }

    /// Number of tests `k`.
    pub fn test_count(&self) -> usize {
        match self {
            Self::PassFail(d) => d.test_count(),
            Self::SameDifferent(d) => d.test_count(),
            Self::Full(d) => d.test_count(),
        }
    }

    /// Number of faults `n`.
    pub fn fault_count(&self) -> usize {
        match self {
            Self::PassFail(d) => d.fault_count(),
            Self::SameDifferent(d) => d.fault_count(),
            Self::Full(d) => d.fault_count(),
        }
    }

    /// Number of observed outputs `m`.
    pub fn output_count(&self) -> usize {
        match self {
            Self::PassFail(d) => d.sizes().outputs as usize,
            Self::SameDifferent(d) => d.sizes().outputs as usize,
            Self::Full(d) => d.matrix().output_count(),
        }
    }

    /// Approximate resident memory of the decoded dictionary in bytes —
    /// the accounting unit a serving registry's memory cap is enforced in.
    /// (Computed from the same word/entry counts the store serializes, so
    /// it tracks the real footprint to within allocator overhead.)
    pub fn approx_bytes(&self) -> usize {
        let k = self.test_count();
        let n = self.fault_count();
        match self {
            Self::PassFail(_) => n * k.div_ceil(64) * 8,
            Self::SameDifferent(d) => {
                let m = d.sizes().outputs as usize;
                n * k.div_ceil(64) * 8 + k * (m.div_ceil(64) * 8 + 4)
            }
            Self::Full(d) => {
                let m = d.matrix();
                let diffs: usize = (0..k)
                    .map(|t| {
                        (0..m.class_count(t) as u32)
                            .map(|c| m.class_diffs(t, c).len() * 4 + 4)
                            .sum::<usize>()
                    })
                    .sum();
                k * m.output_count().div_ceil(64) * 8 + k * n * 4 + diffs
            }
        }
    }
}

/// Decodes a complete `.sddb` byte image into an in-memory dictionary.
///
/// # Errors
///
/// Typed [`SddError`]s for every corruption mode; see [`SddbReader::open`].
pub fn decode(bytes: &[u8]) -> Result<StoredDictionary, SddError> {
    SddbReader::open(bytes)?.dictionary()
}

/// Writes a dictionary to `path` in the binary format, crash-safely: the
/// image is staged in a temp sibling, fsynced, and atomically renamed into
/// place (see [`atomic_write`]), so an interrupted save never leaves a
/// torn file under the target name.
///
/// # Errors
///
/// [`SddError::Io`] when the file cannot be written.
pub fn save(path: impl AsRef<Path>, dictionary: &StoredDictionary) -> Result<(), SddError> {
    atomic_write(path, &encode(dictionary)?)
}

/// Reads a dictionary file into memory with a pre-buffering sanity check:
/// for binary `.sddb` images the 64-byte header is read and validated
/// first, and a header-declared payload length that disagrees with the
/// actual file length is rejected *before* the body is buffered — a torn
/// or hostile file costs one header read, not a full-file allocation.
/// Non-binary files (manifests, v1 text) are read whole; their own decode
/// validates them.
///
/// # Errors
///
/// [`SddError::Io`] when the file cannot be opened or read,
/// [`SddError::Truncated`] when the file is shorter than its header
/// declares, [`SddError::Invalid`] for trailing bytes, plus every
/// [`Header::decode`] error.
pub fn read_dictionary_file(path: impl AsRef<Path>) -> Result<Vec<u8>, SddError> {
    use std::io::Read;
    let path = path.as_ref();
    let (mut file, file_len, mut bytes) = open_checked(path)?;
    // The capacity is now trusted: for binary files it equals the
    // validated header + payload; otherwise it is the real on-disk size.
    bytes.reserve_exact(file_len.saturating_sub(bytes.len()));
    file.read_to_end(&mut bytes)
        .map_err(|e| SddError::io(path.display().to_string(), &e))?;
    Ok(bytes)
}

/// Opens a dictionary file and reads its first [`HEADER_LEN`] bytes (fewer
/// for a shorter file). When they start a binary image, the header is
/// decoded and its declared length compared with the file's length before
/// any body byte is read or mapped — the one guard that the owned read and
/// the mapped read ([`read_dictionary_bytes`]) share, so both refuse a file
/// with the same error. Returns the file, its length and the bytes read.
fn open_checked(path: &Path) -> Result<(fs::File, usize, Vec<u8>), SddError> {
    use std::io::Read;
    let context = || path.display().to_string();
    let mut file = fs::File::open(path).map_err(|e| SddError::io(context(), &e))?;
    let file_len = file
        .metadata()
        .map_err(|e| SddError::io(context(), &e))?
        .len();
    let file_len = usize::try_from(file_len)
        .map_err(|_| SddError::invalid(format!("{}: file length exceeds usize", path.display())))?;
    let mut head = vec![0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match file.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(SddError::io(context(), &e)),
        }
    }
    head.truncate(filled);
    if head.starts_with(&MAGIC) {
        // Header::decode validates magic, checksum, and version, and a
        // partial header surfaces as Truncated — all before any body read.
        let header = Header::decode(&head)?;
        let declared = HEADER_LEN
            .checked_add(header.payload_len)
            .ok_or_else(|| SddError::invalid("header-declared file length overflows usize"))?;
        if declared > file_len {
            return Err(SddError::Truncated {
                context: "store file",
                expected: declared,
                actual: file_len,
            });
        }
        if declared < file_len {
            return Err(SddError::invalid(format!(
                "{} trailing bytes after the declared payload",
                file_len - declared
            )));
        }
    }
    Ok((file, file_len, head))
}

/// Reads a dictionary from a `.sddb` file.
///
/// # Errors
///
/// [`SddError::Io`] when the file cannot be read, otherwise the typed
/// decode errors of [`SddbReader::open`].
pub fn load(path: impl AsRef<Path>) -> Result<StoredDictionary, SddError> {
    let bytes = read_dictionary_file(path)?;
    decode(&bytes)
}

/// Returns `true` when `bytes` starts with the binary magic number —
/// the sniff that lets every caller accept both formats from one path.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.starts_with(&MAGIC)
}

/// Reads a same/different dictionary from either format, sniffing the magic
/// number: binary `.sddb` images decode through the store, anything else is
/// parsed as the v1 text format.
///
/// # Errors
///
/// The store's typed errors for binary input (including
/// [`SddError::Invalid`] when the file holds a different dictionary kind);
/// [`SddError::Parse`] for malformed text.
pub fn read_same_different_auto(
    bytes: impl AsRef<[u8]>,
) -> Result<SameDifferentDictionary, SddError> {
    let bytes = bytes.as_ref();
    if is_binary(bytes) {
        match decode(bytes)? {
            StoredDictionary::SameDifferent(d) => Ok(d),
            other => Err(SddError::invalid(format!(
                "expected a same-different dictionary, found a {} dictionary",
                other.kind().name()
            ))),
        }
    } else {
        parse_text(bytes)
    }
}

/// Parses the v1 text form of a same/different dictionary.
fn parse_text(bytes: &[u8]) -> Result<SameDifferentDictionary, SddError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| SddError::invalid("dictionary file is neither .sddb nor UTF-8 text"))?;
    sdd_core::io::read_same_different(text).map_err(SddError::from)
}

/// Loads a same/different dictionary from any artifact: a whole `.sddb`, a
/// v1 text file, or a `.sddm` shard set, whose shards are reassembled in
/// global fault order. Every artifact opens through [`ShardedReader::open`].
///
/// # Errors
///
/// [`SddError::Io`] when a file cannot be read, [`SddError::Invalid`] when
/// the artifact holds another dictionary kind, otherwise the opener's and
/// the shard loads' typed errors.
pub fn load_same_different(path: impl AsRef<Path>) -> Result<SameDifferentDictionary, SddError> {
    let mut reader = ShardedReader::open(path)?;
    let manifest = reader.manifest();
    if manifest.kind != DictionaryKind::SameDifferent {
        return Err(SddError::invalid(format!(
            "expected a same-different dictionary, found a {} dictionary",
            manifest.kind.name()
        )));
    }
    let outputs = manifest.outputs;
    let mut parsed = reader.take_parsed();
    let mut load =
        |index: usize| match parsed.take().map_or_else(|| reader.load_shard(index), Ok)? {
            StoredDictionary::SameDifferent(shard) => Ok(shard),
            _ => Err(SddError::invalid(format!(
                "shard {index}: kind disagrees with the manifest"
            ))),
        };
    // One shard is the dictionary itself: no reassembly.
    let first = load(0)?;
    if reader.shard_count() == 1 {
        return Ok(first);
    }
    // Each shard's rows are moved, not copied, so one copy of the
    // signatures is live however many shards there are.
    let (mut signatures, baselines, classes) = first.into_parts();
    for index in 1..reader.shard_count() {
        signatures.extend(load(index)?.into_parts().0);
    }
    SameDifferentDictionary::from_parts(signatures, baselines, classes, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sd() -> SameDifferentDictionary {
        SameDifferentDictionary::build(&sdd_core::example::paper_example(), &[2, 1])
    }

    #[test]
    fn all_three_kinds_round_trip() {
        let matrix = sdd_core::example::paper_example();
        let dictionaries = [
            StoredDictionary::PassFail(PassFailDictionary::build(&matrix)),
            StoredDictionary::SameDifferent(sample_sd()),
            StoredDictionary::Full(FullDictionary::new(matrix)),
        ];
        for d in dictionaries {
            let bytes = encode(&d).unwrap();
            assert!(is_binary(&bytes));
            let back = decode(&bytes).unwrap();
            assert_eq!(back, d, "{:?}", d.kind());
            assert_eq!(back.kind(), d.kind());
        }
    }

    #[test]
    fn lazy_rows_match_decoded_rows() {
        let d = sample_sd();
        let bytes = encode(&StoredDictionary::SameDifferent(d.clone())).unwrap();
        let reader = SddbReader::open(&bytes).unwrap();
        assert_eq!(reader.kind(), DictionaryKind::SameDifferent);
        for fault in 0..d.fault_count() {
            assert_eq!(reader.signature(fault).unwrap(), *d.signature(fault));
        }
        for test in 0..d.test_count() {
            assert_eq!(reader.baseline(test).unwrap(), *d.baseline(test));
        }
        assert!(reader.signature(d.fault_count()).is_err());
    }

    #[test]
    fn payload_corruption_is_a_checksum_error() {
        let mut bytes = encode(&StoredDictionary::SameDifferent(sample_sd())).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode(&bytes),
            Err(SddError::ChecksumMismatch {
                context: "store payload",
                ..
            })
        ));
    }

    #[test]
    fn truncated_payload_is_a_truncation_error() {
        let bytes = encode(&StoredDictionary::SameDifferent(sample_sd())).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(
            decode(cut),
            Err(SddError::Truncated {
                context: "store payload",
                ..
            })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&StoredDictionary::SameDifferent(sample_sd())).unwrap();
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(SddError::Invalid { .. })));
    }

    #[test]
    fn auto_reader_accepts_both_formats() {
        let d = sample_sd();
        let binary = encode(&StoredDictionary::SameDifferent(d.clone())).unwrap();
        assert_eq!(read_same_different_auto(&binary).unwrap(), d);
        let text = sdd_core::io::write_same_different(&d);
        assert_eq!(read_same_different_auto(text.as_bytes()).unwrap(), d);
        // Kind mismatch through the auto path is a typed error.
        let matrix = sdd_core::example::paper_example();
        let pf = encode(&StoredDictionary::PassFail(PassFailDictionary::build(
            &matrix,
        )))
        .unwrap();
        assert!(matches!(
            read_same_different_auto(&pf),
            Err(SddError::Invalid { .. })
        ));
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let dir = std::env::temp_dir().join(format!("sdd-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dict.sddb");
        let d = StoredDictionary::SameDifferent(sample_sd());
        save(&path, &d).unwrap();
        assert_eq!(load(&path).unwrap(), d);
        assert!(matches!(
            load(dir.join("missing.sddb")),
            Err(SddError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn approx_bytes_tracks_dimensions() {
        let d = StoredDictionary::SameDifferent(sample_sd());
        // 4 faults × 1 word + 2 tests × (1 word + class u32).
        assert_eq!(d.approx_bytes(), 4 * 8 + 2 * (8 + 4));
        let matrix = sdd_core::example::paper_example();
        assert!(StoredDictionary::Full(FullDictionary::new(matrix)).approx_bytes() > 0);
    }
}
