//! The `.sddm` shard manifest: a versioned, checksummed index over a set of
//! `.sddb` shard files that together cover one collapsed fault list.
//!
//! A sharded dictionary is the unsharded artifact cut into contiguous
//! fault ranges — shard `s` holds faults `fault_start .. fault_start +
//! fault_count` of the *original* collapsed order, so a candidate reported
//! by a shard maps back to its global index by adding `fault_start`, and a
//! cross-shard merge can reproduce the unsharded ranking bit for bit. The
//! manifest records, per shard, the file name, the fault range, the
//! payload checksum the shard's own header must carry, and the union
//! output cone of the shard's faults (which failing outputs could
//! implicate it — used to prioritize lazy loads, never to skip scoring).
//!
//! [`ShardedReader::open_with`] is the one opener for every artifact form:
//! a whole `.sddb` or v1 text dictionary opens as a set of one shard (the
//! file itself, covering every fault, with no recorded cone), so each
//! consumer reads a whole file and a shard set through the same reader.
//!
//! All integers are little-endian, mirroring the `.sddb` format:
//!
//! ```text
//! Manifest header (64 bytes):
//!   off  size  field
//!     0     4  magic "SDDM"
//!     4     2  manifest version (currently 1)
//!     6     2  dictionary kind (1 pass/fail, 2 same/different, 3 full)
//!     8     2  shard .sddb format version (must equal format::VERSION)
//!    10     6  reserved (written as 0)
//!    16     8  tests k
//!    24     8  total faults n
//!    32     8  outputs m
//!    40     8  shard count
//!    48     8  body checksum (FNV-1a 64 over the body bytes)
//!    56     8  header checksum (FNV-1a 64 over header bytes 0..56)
//!
//! Body: shard count records, each
//!   file-name length u32, file-name bytes (UTF-8, no path separators),
//!   fault_start u64, fault_count u64,
//!   payload_len u64, payload_checksum u64,
//!   cone row: ⌈m/64⌉ × u64 (bit o set when the shard can affect output o)
//! ```

use std::ops::Range;
use std::path::{Path, PathBuf};

use sdd_logic::{BitVec, SddError};

use crate::format::{self, Cursor};
use crate::mmap::{read_dictionary_bytes, DictBytes, MmapMode};
use crate::{DictionaryKind, SddbReader, StoredDictionary};

/// The four magic bytes every shard manifest starts with.
pub const MANIFEST_MAGIC: [u8; 4] = *b"SDDM";

/// The newest manifest version this build reads and the only one it writes.
pub const MANIFEST_VERSION: u16 = 1;

/// Fixed manifest header size in bytes.
pub const MANIFEST_HEADER_LEN: usize = 64;

/// True when `bytes` starts with the manifest magic — the sniff
/// [`ShardedReader::open_with`] routes whole files and shard sets by.
fn is_manifest(bytes: &[u8]) -> bool {
    bytes.starts_with(&MANIFEST_MAGIC)
}

/// One shard's entry in a [`ShardManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// Shard file name, relative to the manifest's directory (no path
    /// separators allowed).
    pub file: String,
    /// First global fault index the shard covers.
    pub fault_start: usize,
    /// Number of faults in the shard (always nonzero).
    pub fault_count: usize,
    /// Expected shard payload length in bytes.
    pub payload_len: usize,
    /// Expected shard payload checksum (must match the shard's own header).
    pub payload_checksum: u64,
    /// Union output cone of the shard's faults (`m` bits). All-ones when no
    /// cone information was available at build time.
    pub cone: BitVec,
}

impl ShardRecord {
    /// The global fault range this shard covers.
    pub fn fault_range(&self) -> Range<usize> {
        self.fault_start..self.fault_start + self.fault_count
    }
}

/// A decoded, fully validated `.sddm` manifest.
///
/// # Example
///
/// ```no_run
/// use sdd_store::{ShardedReader};
///
/// let reader = ShardedReader::open("dict.sddm")?;
/// for (i, shard) in reader.manifest().shards.iter().enumerate() {
///     println!("shard {i}: faults {:?} in {}", shard.fault_range(), shard.file);
/// }
/// # Ok::<(), sdd_logic::SddError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Dictionary kind every shard must encode.
    pub kind: DictionaryKind,
    /// Number of tests `k` (identical in every shard).
    pub tests: usize,
    /// Total faults `n` across all shards.
    pub faults: usize,
    /// Number of observed outputs `m`.
    pub outputs: usize,
    /// Per-shard records, in fault order.
    pub shards: Vec<ShardRecord>,
}

impl ShardManifest {
    /// The shard that owns global fault `fault`: shards tile the fault list
    /// in ascending order, so it is the last one starting at or before
    /// `fault`. `None` past the last fault.
    pub fn shard_of(&self, fault: usize) -> Option<usize> {
        if fault >= self.faults {
            return None;
        }
        self.shards
            .partition_point(|s| s.fault_start <= fault)
            .checked_sub(1)
    }

    /// Serializes the manifest, computing both checksums.
    ///
    /// # Errors
    ///
    /// [`SddError::TooLarge`] when a shard file name exceeds the u32
    /// length field.
    pub fn encode(&self) -> Result<Vec<u8>, SddError> {
        let mut body = Vec::new();
        for shard in &self.shards {
            format::push_u32(
                &mut body,
                crate::writer::checked_u32(shard.file.len(), "shard file name length")?,
            );
            body.extend_from_slice(shard.file.as_bytes());
            format::push_u64(&mut body, shard.fault_start as u64);
            format::push_u64(&mut body, shard.fault_count as u64);
            format::push_u64(&mut body, shard.payload_len as u64);
            format::push_u64(&mut body, shard.payload_checksum);
            format::push_bit_row(&mut body, &shard.cone);
        }
        let mut out = vec![0u8; MANIFEST_HEADER_LEN];
        out[0..4].copy_from_slice(&MANIFEST_MAGIC);
        out[4..6].copy_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out[6..8].copy_from_slice(&(self.kind as u16).to_le_bytes());
        out[8..10].copy_from_slice(&format::VERSION.to_le_bytes());
        // Bytes 10..16 reserved.
        out[16..24].copy_from_slice(&(self.tests as u64).to_le_bytes());
        out[24..32].copy_from_slice(&(self.faults as u64).to_le_bytes());
        out[32..40].copy_from_slice(&(self.outputs as u64).to_le_bytes());
        out[40..48].copy_from_slice(&(self.shards.len() as u64).to_le_bytes());
        out[48..56].copy_from_slice(&format::fnv1a64(&body).to_le_bytes());
        let checksum = format::fnv1a64(&out[..56]);
        out[56..64].copy_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(&body);
        Ok(out)
    }

    /// Parses and fully validates a manifest image.
    ///
    /// # Errors
    ///
    /// Every corruption mode maps to a distinct typed [`SddError`]:
    /// [`SddError::Truncated`] for missing header or record bytes,
    /// [`SddError::Invalid`] for bad magic / kind / file names / fault
    /// ranges, [`SddError::ChecksumMismatch`] for flipped header or body
    /// bits, [`SddError::UnsupportedVersion`] for a newer manifest *or* a
    /// shard-format version this build cannot read, and
    /// [`SddError::Empty`] for a shard count of zero.
    pub fn decode(bytes: &[u8]) -> Result<Self, SddError> {
        if bytes.len() < MANIFEST_HEADER_LEN {
            return Err(SddError::Truncated {
                context: "shard manifest header",
                expected: MANIFEST_HEADER_LEN,
                actual: bytes.len(),
            });
        }
        if bytes[0..4] != MANIFEST_MAGIC {
            return Err(SddError::invalid(format!(
                "bad magic {:?}: not a shard manifest",
                &bytes[0..4]
            )));
        }
        let stored = u64::from_le_bytes(bytes[56..64].try_into().unwrap());
        let computed = format::fnv1a64(&bytes[..56]);
        if stored != computed {
            return Err(SddError::ChecksumMismatch {
                context: "shard manifest header",
                stored,
                computed,
            });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != MANIFEST_VERSION {
            return Err(SddError::UnsupportedVersion {
                found: version,
                supported: MANIFEST_VERSION,
            });
        }
        let shard_version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
        if shard_version != format::VERSION {
            return Err(SddError::UnsupportedVersion {
                found: shard_version,
                supported: format::VERSION,
            });
        }
        let kind = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
        let kind = DictionaryKind::from_tag(kind)
            .ok_or_else(|| SddError::invalid(format!("unknown dictionary kind tag {kind}")))?;
        let dim = |range: Range<usize>, what: &str| -> Result<usize, SddError> {
            let v = u64::from_le_bytes(bytes[range].try_into().unwrap());
            usize::try_from(v)
                .map_err(|_| SddError::invalid(format!("{what} {v} exceeds this platform's usize")))
        };
        let tests = dim(16..24, "test count")?;
        let faults = dim(24..32, "fault count")?;
        let outputs = dim(32..40, "output count")?;
        let shard_count = dim(40..48, "shard count")?;
        if shard_count == 0 {
            return Err(SddError::Empty {
                context: "shard manifest",
            });
        }
        let body = &bytes[MANIFEST_HEADER_LEN..];
        let stored = u64::from_le_bytes(bytes[48..56].try_into().unwrap());
        let computed = format::fnv1a64(body);
        if stored != computed {
            return Err(SddError::ChecksumMismatch {
                context: "shard manifest body",
                stored,
                computed,
            });
        }
        let mut cursor = Cursor::new(body, "shard manifest record");
        // Each record is ≥ 36 bytes (4 + 4×8 + cone words), so the count is
        // bounded before any allocation.
        let mut shards = Vec::with_capacity(shard_count.min(body.len() / 36 + 1));
        let mut next_start = 0usize;
        for index in 0..shard_count {
            let name_len = cursor.u32()? as usize;
            let name = cursor.bytes_exact(name_len)?;
            let file = String::from_utf8(name.to_vec())
                .map_err(|_| SddError::invalid(format!("shard {index}: non-UTF-8 file name")))?;
            if file.is_empty() || file.contains(['/', '\\']) {
                return Err(SddError::invalid(format!(
                    "shard {index}: file name {file:?} must be a bare file name"
                )));
            }
            let fault_start = usize::try_from(cursor.u64()?)
                .map_err(|_| SddError::invalid("shard fault start exceeds usize"))?;
            let fault_count = usize::try_from(cursor.u64()?)
                .map_err(|_| SddError::invalid("shard fault count exceeds usize"))?;
            let payload_len = usize::try_from(cursor.u64()?)
                .map_err(|_| SddError::invalid("shard payload length exceeds usize"))?;
            let payload_checksum = cursor.u64()?;
            let cone = cursor.bit_row(outputs)?;
            if fault_start != next_start {
                return Err(SddError::invalid(format!(
                    "shard {index} starts at fault {fault_start}, expected {next_start}: \
                     shards must tile the fault list contiguously"
                )));
            }
            if fault_count == 0 {
                return Err(SddError::invalid(format!("shard {index} covers no faults")));
            }
            next_start = fault_start
                .checked_add(fault_count)
                .ok_or_else(|| SddError::invalid("shard fault range overflows usize"))?;
            shards.push(ShardRecord {
                file,
                fault_start,
                fault_count,
                payload_len,
                payload_checksum,
                cone,
            });
        }
        if next_start != faults {
            return Err(SddError::invalid(format!(
                "shards cover {next_start} faults, manifest declares {faults}"
            )));
        }
        if cursor.remaining() != 0 {
            return Err(SddError::invalid(format!(
                "{} trailing bytes after the last shard record",
                cursor.remaining()
            )));
        }
        Ok(Self {
            kind,
            tests,
            faults,
            outputs,
            shards,
        })
    }
}

/// Cuts one dictionary down to a contiguous fault range, preserving per-test
/// structure: signatures are sliced, baselines are shared unchanged, and a
/// full dictionary's response classes are re-interned in first-use order
/// over the range (class 0 stays the fault-free class). Per-fault diagnosis
/// scores over the slice equal the corresponding scores over the whole
/// dictionary, which is what makes cross-shard merging exact.
///
/// # Errors
///
/// [`SddError::Invalid`] when `range` is out of bounds or empty.
pub fn slice_dictionary(
    dictionary: &StoredDictionary,
    range: Range<usize>,
) -> Result<StoredDictionary, SddError> {
    if range.is_empty() || range.end > dictionary.fault_count() {
        return Err(SddError::invalid(format!(
            "shard range {range:?} invalid for {} faults",
            dictionary.fault_count()
        )));
    }
    match dictionary {
        StoredDictionary::PassFail(d) => Ok(StoredDictionary::PassFail(
            sdd_core::PassFailDictionary::from_parts(
                d.signatures()[range].to_vec(),
                d.test_count(),
                d.sizes().outputs as usize,
            )?,
        )),
        StoredDictionary::SameDifferent(d) => Ok(StoredDictionary::SameDifferent(
            sdd_core::SameDifferentDictionary::from_parts(
                d.signatures()[range].to_vec(),
                (0..d.test_count()).map(|t| d.baseline(t).clone()).collect(),
                d.baseline_classes().to_vec(),
                d.sizes().outputs as usize,
            )?,
        )),
        StoredDictionary::Full(d) => {
            let matrix = d.matrix();
            let k = matrix.test_count();
            let good: Vec<BitVec> = (0..k).map(|t| matrix.good_response(t).clone()).collect();
            let mut class = Vec::with_capacity(k * range.len());
            let mut distinct = Vec::with_capacity(k);
            for test in 0..k {
                // Re-intern the labels used inside the range, first-use
                // order, keeping class 0 as the (possibly unused)
                // fault-free class with its empty diff list.
                let mut remap = vec![u32::MAX; matrix.class_count(test)];
                remap[0] = 0;
                let mut tables: Vec<Vec<u32>> = vec![Vec::new()];
                for fault in range.clone() {
                    let old = matrix.class(test, fault);
                    if remap[old as usize] == u32::MAX {
                        remap[old as usize] = tables.len() as u32;
                        tables.push(matrix.class_diffs(test, old).to_vec());
                    }
                    class.push(remap[old as usize]);
                }
                distinct.push(tables);
            }
            let matrix = sdd_sim::ResponseMatrix::from_class_parts(
                good,
                range.len(),
                matrix.output_count(),
                class,
                distinct,
            )?;
            Ok(StoredDictionary::Full(sdd_core::FullDictionary::new(
                matrix,
            )))
        }
    }
}

/// Writes a sharded dictionary set: one `.sddb` per range plus the `.sddm`
/// manifest at `manifest_path`. Shard files are named
/// `<stem>.<index:03>.sddb` next to the manifest. `cones` supplies one
/// union output cone per range (from `sdd_sim::OutputCones::shard_cone`);
/// pass `None` to record all-ones cones (every shard may affect every
/// output — the contiguous-chunk fallback).
///
/// Returns the manifest that was written.
///
/// # Errors
///
/// [`SddError::Invalid`] when the ranges do not tile `0..fault_count`
/// contiguously or the cone count mismatches; [`SddError::Io`] on write
/// failures.
pub fn write_sharded(
    manifest_path: impl AsRef<Path>,
    dictionary: &StoredDictionary,
    ranges: &[Range<usize>],
    cones: Option<&[BitVec]>,
) -> Result<ShardManifest, SddError> {
    let manifest_path = manifest_path.as_ref();
    let outputs = dictionary.output_count();
    if let Some(cones) = cones {
        if cones.len() != ranges.len() {
            return Err(SddError::CountMismatch {
                context: "shard cones",
                expected: ranges.len(),
                actual: cones.len(),
            });
        }
    }
    let stem = manifest_path
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| SddError::invalid("manifest path has no usable file stem"))?
        .to_string();
    let dir = manifest_path
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();
    let mut shards = Vec::with_capacity(ranges.len());
    for (index, range) in ranges.iter().enumerate() {
        let shard = slice_dictionary(dictionary, range.clone())?;
        let bytes = crate::encode(&shard)?;
        let file = format!("{stem}.{index:03}.sddb");
        let path = dir.join(&file);
        crate::atomic_write(&path, &bytes)?;
        let header = *SddbReader::open(&bytes)?.header();
        let cone = match cones {
            Some(cones) => cones[index].clone(),
            None => all_outputs(outputs),
        };
        if cone.len() != outputs {
            return Err(SddError::WidthMismatch {
                context: "shard cone width",
                expected: outputs,
                actual: cone.len(),
            });
        }
        shards.push(ShardRecord {
            file,
            fault_start: range.start,
            fault_count: range.len(),
            payload_len: header.payload_len,
            payload_checksum: header.payload_checksum,
            cone,
        });
    }
    let manifest = ShardManifest {
        kind: dictionary.kind(),
        tests: dictionary.test_count(),
        faults: dictionary.fault_count(),
        outputs,
        shards,
    };
    // Encoding validates nothing the decoder would reject: round-trip once
    // so a just-written manifest is guaranteed readable.
    let encoded = manifest.encode()?;
    ShardManifest::decode(&encoded)?;
    // Every shard above was atomically committed (and fsynced) before this
    // point, so the manifest — written last, also atomically — can never
    // name a shard that is not fully durable: a crash anywhere in the
    // sequence leaves either the old set or a complete new one.
    crate::atomic_write(manifest_path, &encoded)?;
    Ok(manifest)
}

/// The all-ones cone of `outputs` bits: a shard that may affect every
/// output, recorded when no cone information is available.
fn all_outputs(outputs: usize) -> BitVec {
    std::iter::repeat_n(true, outputs).collect()
}

/// The file layout behind a [`ShardedReader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// A `.sddm` manifest naming `.sddb` shard files.
    Manifest,
    /// One whole `.sddb` file, the set's only shard.
    Binary,
    /// One whole v1 text file, the set's only shard.
    Text,
}

/// Access to a dictionary artifact on disk as a set of shards.
///
/// A `.sddm` manifest names its shard files; a whole `.sddb` or v1 text
/// file is a set of one shard, the file itself (see
/// [`open_with`](Self::open_with)). The reader holds only the decoded
/// manifest; [`load_shard`](Self::load_shard) reads, verifies, and decodes
/// one shard on demand, so a service can keep cold shards off the heap
/// entirely and a diagnosis driver can load them in cone-priority order.
#[derive(Debug, Clone)]
pub struct ShardedReader {
    manifest: ShardManifest,
    dir: PathBuf,
    mode: MmapMode,
    layout: Layout,
    /// A v1 text file's parse from opening, until
    /// [`take_parsed`](Self::take_parsed) hands it out.
    parsed: Option<StoredDictionary>,
}

impl ShardedReader {
    /// Opens the artifact at `path` with shard files read into owned
    /// buffers (see [`open_with`](Self::open_with) for the zero-copy
    /// mapped mode).
    ///
    /// # Errors
    ///
    /// As [`open_with`](Self::open_with).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SddError> {
        Self::open_with(path, MmapMode::Off)
    }

    /// Opens the artifact at `path`, checking its magic bytes once, with an
    /// explicit shard byte-ownership mode: under
    /// [`MmapMode::Auto`]/[`MmapMode::On`] every shard load maps the shard
    /// file instead of copying it to the heap.
    ///
    /// * A `.sddm` manifest is decoded and validated; no shard is read.
    /// * A whole `.sddb` is validated (header, length, payload checksum and
    ///   [`SddbReader::validate_structure`]'s allocation-free bounds walk)
    ///   but not decoded. It opens as one record covering faults `0..n`,
    ///   with the header's payload length and checksum and no recorded
    ///   cone: the record carries the all-ones cone, and
    ///   [`fault_cone`](Self::fault_cone) answers `None`.
    /// * Anything else is parsed as a v1 text same/different dictionary,
    ///   which carries no checksum to validate against. It opens as one
    ///   record whose checksum is the FNV-1a 64 of the file, and the parse
    ///   is kept for [`take_parsed`](Self::take_parsed). Later loads read
    ///   the text unmapped: its parse is heap data in every mode.
    ///
    /// So a whole file that opens is a sound file, and `sdd verify`
    /// ([`crate::verify_file_with`]) needs no other check of it.
    ///
    /// # Errors
    ///
    /// [`SddError::Io`] when the file cannot be read, plus every
    /// [`ShardManifest::decode`], [`SddbReader::open`],
    /// [`SddbReader::validate_structure`] or text parse error.
    pub fn open_with(path: impl AsRef<Path>, mode: MmapMode) -> Result<Self, SddError> {
        let path = path.as_ref();
        let bytes = read_dictionary_bytes(path, mode)?;
        let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
        if is_manifest(&bytes) {
            return Ok(Self {
                manifest: ShardManifest::decode(&bytes)?,
                dir,
                mode,
                layout: Layout::Manifest,
                parsed: None,
            });
        }
        let file = path
            .file_name()
            .and_then(|name| name.to_str())
            .ok_or_else(|| SddError::invalid(format!("{}: no UTF-8 file name", path.display())))?
            .to_owned();
        let (layout, header, parsed) = if crate::is_binary(&bytes) {
            let reader = SddbReader::open(&bytes[..])?;
            reader.validate_structure()?;
            (Layout::Binary, *reader.header(), None)
        } else {
            let d = crate::parse_text(&bytes)?;
            let header = format::Header {
                kind: DictionaryKind::SameDifferent,
                tests: d.test_count(),
                faults: d.fault_count(),
                outputs: d.sizes().outputs as usize,
                payload_len: bytes.len(),
                payload_checksum: format::fnv1a64(&bytes),
                patched: 0,
            };
            (
                Layout::Text,
                header,
                Some(StoredDictionary::SameDifferent(d)),
            )
        };
        let record = ShardRecord {
            file,
            fault_start: 0,
            fault_count: header.faults,
            payload_len: header.payload_len,
            payload_checksum: header.payload_checksum,
            cone: all_outputs(header.outputs),
        };
        Ok(Self {
            manifest: ShardManifest {
                kind: header.kind,
                tests: header.tests,
                faults: header.faults,
                outputs: header.outputs,
                shards: vec![record],
            },
            dir,
            mode: if layout == Layout::Text {
                MmapMode::Off
            } else {
                mode
            },
            layout,
            parsed,
        })
    }

    /// How shard files are brought into memory.
    pub fn mode(&self) -> MmapMode {
        self.mode
    }

    /// The decoded manifest (for a whole file, its one-record stand-in).
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.manifest.shards.len()
    }

    /// The directory shard files are resolved against.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True when the set is one whole `.sddb` or v1 text file rather than
    /// a `.sddm` manifest.
    pub fn is_whole(&self) -> bool {
        self.layout != Layout::Manifest
    }

    /// True when the set is one whole v1 text file.
    pub(crate) fn is_text(&self) -> bool {
        self.layout == Layout::Text
    }

    /// The recorded output cone of the shard owning global fault `fault`;
    /// `None` for a whole file, which records no cone, and past the last
    /// fault.
    pub fn fault_cone(&self, fault: usize) -> Option<&BitVec> {
        if self.is_whole() {
            return None;
        }
        let index = self.manifest.shard_of(fault)?;
        Some(&self.manifest.shards[index].cone)
    }

    /// Hands out, once, the dictionary a v1 text file was parsed into when
    /// it was opened, so its first load need not parse it again; `None`
    /// for every other layout and after the first call.
    pub fn take_parsed(&mut self) -> Option<StoredDictionary> {
        self.parsed.take()
    }

    /// Reads shard `index` from disk, cross-checks it against its record
    /// (payload length and checksum, dictionary kind, test/output counts,
    /// fault count), and decodes it.
    ///
    /// # Errors
    ///
    /// [`SddError::Invalid`] for an out-of-range index or dimension
    /// mismatches, [`SddError::ChecksumMismatch`] when the shard's payload
    /// checksum disagrees with its record (for a whole file: the file
    /// changed since it was opened), [`SddError::Io`] on read failures,
    /// plus every `.sddb` decode or text parse error.
    pub fn load_shard(&self, index: usize) -> Result<StoredDictionary, SddError> {
        self.load_shard_with_image(index)
            .map(|(_, dictionary)| dictionary)
    }

    /// [`load_shard`](Self::load_shard), but also hands back the verified
    /// byte image the decode ran over — under a mapped mode, the live
    /// mapping a serving registry keeps beside the decoded shard to report
    /// its mapped bytes. The image and the decoded dictionary are views of
    /// the same validated bytes.
    ///
    /// # Errors
    ///
    /// As [`load_shard`](Self::load_shard).
    pub fn load_shard_with_image(
        &self,
        index: usize,
    ) -> Result<(DictBytes, StoredDictionary), SddError> {
        if self.layout == Layout::Text {
            let record = self.record(index)?;
            let bytes = read_dictionary_bytes(self.dir.join(&record.file), self.mode)?;
            let computed = format::fnv1a64(&bytes);
            if computed != record.payload_checksum {
                return Err(SddError::ChecksumMismatch {
                    context: "text dictionary vs its open",
                    stored: record.payload_checksum,
                    computed,
                });
            }
            let dictionary = StoredDictionary::SameDifferent(crate::parse_text(&bytes)?);
            return Ok((bytes, dictionary));
        }
        let reader = self.shard_reader(index)?;
        let dictionary = reader.dictionary()?;
        Ok((reader.into_bytes(), dictionary))
    }

    /// Verifies `.sddb` shard `index` end to end — read or map, header +
    /// payload checksum, manifest cross-checks, full structural walk —
    /// without decoding it into the heap or allocating per row. This is
    /// the `sdd verify` path for dictionaries larger than RAM.
    ///
    /// # Errors
    ///
    /// As [`load_shard`](Self::load_shard).
    pub fn check_shard(&self, index: usize) -> Result<(), SddError> {
        self.shard_reader(index)?.validate_structure()
    }

    /// Shard `index`'s record, or a typed out-of-range error.
    fn record(&self, index: usize) -> Result<&ShardRecord, SddError> {
        self.manifest.shards.get(index).ok_or_else(|| {
            SddError::invalid(format!(
                "shard {index} out of range ({} shards)",
                self.manifest.shards.len()
            ))
        })
    }

    /// Opens `.sddb` shard `index` and cross-checks it against its record
    /// (payload length and checksum, dictionary kind, test/output counts,
    /// fault count).
    pub(crate) fn shard_reader(&self, index: usize) -> Result<SddbReader<DictBytes>, SddError> {
        let record = self.record(index)?;
        let path = self.dir.join(&record.file);
        let bytes = read_dictionary_bytes(&path, self.mode)?;
        let reader = SddbReader::open(bytes)?;
        let header = reader.header();
        if header.payload_checksum != record.payload_checksum {
            return Err(SddError::ChecksumMismatch {
                context: "shard payload vs manifest",
                stored: record.payload_checksum,
                computed: header.payload_checksum,
            });
        }
        if header.payload_len != record.payload_len {
            return Err(SddError::invalid(format!(
                "shard {index}: payload is {} bytes, manifest records {}",
                header.payload_len, record.payload_len
            )));
        }
        if header.kind != self.manifest.kind
            || header.tests != self.manifest.tests
            || header.outputs != self.manifest.outputs
            || header.faults != record.fault_count
        {
            return Err(SddError::invalid(format!(
                "shard {index}: dimensions ({:?}, k={}, n={}, m={}) disagree with the manifest \
                 ({:?}, k={}, n={}, m={})",
                header.kind,
                header.tests,
                header.faults,
                header.outputs,
                self.manifest.kind,
                self.manifest.tests,
                record.fault_count,
                self.manifest.outputs,
            )));
        }
        Ok(reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::PassFailDictionary;

    fn fixture() -> StoredDictionary {
        StoredDictionary::PassFail(PassFailDictionary::build(
            &sdd_core::example::paper_example(),
        ))
    }

    #[test]
    fn manifest_round_trips() {
        let d = fixture();
        let dir = std::env::temp_dir().join("sddm_round_trip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("paper.sddm");
        let ranges = [0..2, 2..4];
        let written = write_sharded(&path, &d, &ranges, None).unwrap();
        let reader = ShardedReader::open(&path).unwrap();
        assert_eq!(*reader.manifest(), written);
        assert_eq!(reader.shard_count(), 2);
        let s0 = reader.load_shard(0).unwrap();
        let s1 = reader.load_shard(1).unwrap();
        assert_eq!(s0.fault_count() + s1.fault_count(), d.fault_count());
        assert!(reader.load_shard(2).is_err());
    }

    #[test]
    fn the_owning_shard_is_the_last_starting_at_or_before_a_fault() {
        let dir = std::env::temp_dir().join(format!("sddm_shard_of_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let written = write_sharded(dir.join("paper.sddm"), &fixture(), &[0..1, 1..4], None);
        let manifest = written.unwrap();
        let owners: Vec<Option<usize>> = (0..5).map(|f| manifest.shard_of(f)).collect();
        assert_eq!(owners, [Some(0), Some(1), Some(1), Some(1), None]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_whole_file_opens_as_a_set_of_one_shard() {
        let dir = std::env::temp_dir().join(format!("sddm_whole_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = fixture();
        let path = dir.join("paper.sddb");
        crate::save(&path, &d).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header = *SddbReader::open(&bytes[..]).unwrap().header();
        for mode in [MmapMode::Off, MmapMode::Auto] {
            let mut reader = ShardedReader::open_with(&path, mode).unwrap();
            assert!(reader.is_whole());
            assert_eq!(reader.mode(), mode);
            let record = &reader.manifest().shards[0];
            assert_eq!(
                (reader.shard_count(), record.file.as_str()),
                (1, "paper.sddb")
            );
            assert_eq!(record.fault_range(), 0..d.fault_count());
            assert_eq!(record.payload_checksum, header.payload_checksum);
            assert_eq!(reader.manifest().kind, d.kind());
            assert!(
                reader.fault_cone(0).is_none(),
                "a whole file records no cone"
            );
            assert!(
                reader.take_parsed().is_none(),
                "a binary file is not decoded"
            );
            assert_eq!(reader.load_shard(0).unwrap(), d);
        }
        // A checksum-bad file fails at open, with the decoder's error.
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(
            ShardedReader::open(&path).unwrap_err(),
            crate::decode(&bad).unwrap_err()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_text_file_opens_parsed_and_reloads_only_while_unchanged() {
        let dir = std::env::temp_dir().join(format!("sddm_text_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let matrix = sdd_core::example::paper_example();
        let sd = sdd_core::SameDifferentDictionary::build(&matrix, &[2, 1]);
        let text = sdd_core::io::write_same_different(&sd);
        let path = dir.join("paper.txt");
        std::fs::write(&path, &text).unwrap();
        let mut reader = ShardedReader::open_with(&path, MmapMode::Auto).unwrap();
        assert!(reader.is_whole());
        assert_eq!(reader.mode(), MmapMode::Off, "text is parsed, never mapped");
        let record = &reader.manifest().shards[0];
        assert_eq!(record.payload_checksum, format::fnv1a64(text.as_bytes()));
        let parsed = StoredDictionary::SameDifferent(sd);
        assert_eq!(reader.take_parsed(), Some(parsed.clone()));
        assert_eq!(reader.take_parsed(), None, "handed out once");
        assert_eq!(reader.load_shard(0).unwrap(), parsed);
        // A rewritten file no longer matches what was opened.
        std::fs::write(&path, text.replace("tests", "tests ")).unwrap();
        assert!(matches!(
            reader.load_shard(0),
            Err(SddError::ChecksumMismatch { .. })
        ));
        // Malformed text fails at open.
        std::fs::write(&path, "not a dictionary").unwrap();
        assert!(matches!(
            ShardedReader::open(&path),
            Err(SddError::Parse { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sliced_signatures_match_the_original() {
        let d = fixture();
        let sliced = slice_dictionary(&d, 1..3).unwrap();
        let (StoredDictionary::PassFail(whole), StoredDictionary::PassFail(part)) = (&d, &sliced)
        else {
            panic!("kind preserved");
        };
        assert_eq!(part.fault_count(), 2);
        assert_eq!(part.signature(0), whole.signature(1));
        assert_eq!(part.signature(1), whole.signature(2));
        assert!(slice_dictionary(&d, 2..2).is_err());
        assert!(slice_dictionary(&d, 3..9).is_err());
    }

    #[test]
    fn decode_rejects_non_tiling_ranges() {
        let d = fixture();
        let dir = std::env::temp_dir().join("sddm_bad_ranges");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("paper.sddm");
        let written = write_sharded(&path, &d, &[0..2, 2..4], None).unwrap();
        let mut gapped = written.clone();
        gapped.shards[1].fault_start = 3;
        assert!(matches!(
            ShardManifest::decode(&gapped.encode().unwrap()),
            Err(SddError::Invalid { .. })
        ));
        let mut short = written;
        short.shards.pop();
        assert!(matches!(
            ShardManifest::decode(&short.encode().unwrap()),
            Err(SddError::Invalid { .. })
        ));
    }
}
