//! Integrity verification and repair for on-disk dictionary artifacts —
//! the `sdd verify` entry point.
//!
//! A sharded dictionary set rots one file at a time: a shard payload flips
//! a bit, a shard file is deleted, a stale `*.tmp` from an interrupted
//! build lingers next to the manifest. [`verify_file`] scans an artifact
//! (whole `.sddb`, `.sddm` manifest, or v1 text) and reports per-shard
//! health without loading anything into a registry;
//! [`quarantine_bad_shards`] renames corrupt shard files aside (suffix
//! [`QUARANTINE_SUFFIX`]) so a serving box degrades to a clean
//! `PARTIAL`-verdict state — a missing shard is honest, a half-corrupt one
//! is a liability — instead of failing every diagnosis that touches the
//! bad file.

use std::path::{Path, PathBuf};

use sdd_logic::SddError;

use crate::atomic::temp_sibling;
use crate::mmap::MmapMode;
use crate::{DictionaryKind, ShardedReader};

/// Suffix appended to a shard file when [`quarantine_bad_shards`] moves it
/// out of the serving path.
pub const QUARANTINE_SUFFIX: &str = ".quarantined";

/// Health of one shard file as seen by [`verify_file`].
#[derive(Debug)]
pub struct ShardHealth {
    /// Shard index within the manifest.
    pub index: usize,
    /// Shard file name, as recorded in the manifest.
    pub file: String,
    /// Full path the shard resolves to.
    pub path: PathBuf,
    /// Faults the shard covers.
    pub faults: usize,
    /// `None` when the shard read, checksummed, and decoded cleanly;
    /// otherwise the typed failure (missing file, checksum mismatch,
    /// truncation, dimension skew, ...).
    pub error: Option<SddError>,
}

/// What [`verify_file`] found.
#[derive(Debug)]
pub struct VerifyReport {
    /// The artifact that was scanned.
    pub path: PathBuf,
    /// Dictionary kind recorded in the artifact.
    pub kind: DictionaryKind,
    /// Total faults the artifact declares.
    pub faults: usize,
    /// Per-shard health, manifest order. Empty for whole-file artifacts.
    pub shards: Vec<ShardHealth>,
    /// Stale `*.tmp` staging files from interrupted crash-safe writes,
    /// found next to the artifact or its shards. Inert (they never shadow
    /// a target) but worth surfacing: each one marks a write that died.
    pub stale_temps: Vec<PathBuf>,
}

impl VerifyReport {
    /// True when every shard (and the artifact itself) verified cleanly.
    pub fn healthy(&self) -> bool {
        self.shards.iter().all(|s| s.error.is_none())
    }

    /// Faults covered by healthy shards (equals [`faults`](Self::faults)
    /// for a healthy set or a whole file).
    pub fn covered_faults(&self) -> usize {
        if self.shards.is_empty() {
            return self.faults;
        }
        self.shards
            .iter()
            .filter(|s| s.error.is_none())
            .map(|s| s.faults)
            .sum()
    }

    /// The shards that failed verification.
    pub fn bad_shards(&self) -> impl Iterator<Item = &ShardHealth> {
        self.shards.iter().filter(|s| s.error.is_some())
    }
}

/// Scans a dictionary artifact and reports its health.
///
/// * `.sddm` manifest: the manifest itself must decode (its own checksums
///   gate that); every shard is then read, cross-checked against the
///   manifest record (payload length + checksum, dimensions), checksummed
///   and structure-walked. Per-shard failures land in the report, not in
///   `Err` — a half-rotten set is a *degraded* artifact, not an unreadable
///   one.
/// * whole `.sddb` (or v1 text): the file must be checksummed and
///   structure-walked (or parse) end to end; any corruption is the
///   returned error.
///
/// # Errors
///
/// [`SddError::Io`] when the artifact cannot be read, plus every decode
/// error of the artifact itself (shard failures are reported, not raised).
pub fn verify_file(path: impl AsRef<Path>) -> Result<VerifyReport, SddError> {
    verify_file_with(path, MmapMode::Auto)
}

/// [`verify_file`] with an explicit byte-ownership mode. The artifact opens
/// through [`ShardedReader::open_with`], which reads it once: opening a
/// whole file verifies it, and a manifest's shards are then read one at a
/// time. Under a mapped mode (the [`MmapMode::Auto`] default on Linux)
/// binary files are never buffered *or* decoded: the payload is
/// checksummed straight out of the page cache and its structure
/// bounds-walked without allocating
/// ([`crate::SddbReader::validate_structure`]), so a dictionary larger
/// than RAM verifies fine. The typed error for each corruption mode is
/// identical in every mode.
///
/// # Errors
///
/// As [`verify_file`].
pub fn verify_file_with(path: impl AsRef<Path>, mode: MmapMode) -> Result<VerifyReport, SddError> {
    let path = path.as_ref();
    let reader = ShardedReader::open_with(path, mode)?;
    let manifest = reader.manifest();
    let mut stale_temps = Vec::new();
    let mut note_temp = |candidate: PathBuf| {
        if candidate.exists() {
            stale_temps.push(candidate);
        }
    };
    note_temp(temp_sibling(path));
    let mut shards = Vec::new();
    if !reader.is_whole() {
        for (index, record) in manifest.shards.iter().enumerate() {
            let shard_path = reader.dir().join(&record.file);
            note_temp(temp_sibling(&shard_path));
            shards.push(ShardHealth {
                index,
                file: record.file.clone(),
                path: shard_path,
                faults: record.fault_count,
                error: reader.check_shard(index).err(),
            });
        }
    }
    Ok(VerifyReport {
        path: path.to_path_buf(),
        kind: manifest.kind,
        faults: manifest.faults,
        shards,
        stale_temps,
    })
}

/// Renames every failed shard in `report` aside by appending
/// [`QUARANTINE_SUFFIX`], so later loads see a clean *missing* shard (an
/// honest `Io` failure the serving layer degrades over) instead of
/// re-reading corrupt bytes on every request. Shards whose failure is that
/// the file is already gone are skipped. Returns the quarantined paths.
///
/// # Errors
///
/// [`SddError::Io`] when a rename fails; earlier renames stay in effect.
pub fn quarantine_bad_shards(report: &VerifyReport) -> Result<Vec<PathBuf>, SddError> {
    let mut moved = Vec::new();
    for shard in report.bad_shards() {
        if !shard.path.exists() {
            continue; // already missing: nothing to move aside
        }
        let mut name = shard.path.file_name().unwrap_or_default().to_os_string();
        name.push(QUARANTINE_SUFFIX);
        let quarantined = shard.path.with_file_name(name);
        std::fs::rename(&shard.path, &quarantined).map_err(|e| {
            SddError::io(
                format!(
                    "quarantine {} -> {}",
                    shard.path.display(),
                    quarantined.display()
                ),
                &e,
            )
        })?;
        moved.push(quarantined);
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_sharded, StoredDictionary};
    use sdd_core::PassFailDictionary;

    fn fixture() -> StoredDictionary {
        StoredDictionary::PassFail(PassFailDictionary::build(
            &sdd_core::example::paper_example(),
        ))
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdd-verify-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn healthy_set_verifies_clean() {
        let dir = scratch_dir("clean");
        let manifest = dir.join("paper.sddm");
        write_sharded(&manifest, &fixture(), &[0..2, 2..4], None).unwrap();
        let report = verify_file(&manifest).unwrap();
        assert!(report.healthy());
        assert_eq!(report.covered_faults(), 4);
        assert_eq!(report.shards.len(), 2);
        assert!(report.stale_temps.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_missing_shards_are_reported_then_quarantined() {
        let dir = scratch_dir("rot");
        let manifest = dir.join("paper.sddm");
        let written = write_sharded(&manifest, &fixture(), &[0..2, 2..4], None).unwrap();
        // Flip a payload bit in shard 0, delete shard 1 entirely.
        let shard0 = dir.join(&written.shards[0].file);
        let mut bytes = std::fs::read(&shard0).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&shard0, &bytes).unwrap();
        std::fs::remove_file(dir.join(&written.shards[1].file)).unwrap();
        // And drop a stale staging file next to the manifest.
        std::fs::write(temp_sibling(&manifest), b"torn").unwrap();

        let report = verify_file(&manifest).unwrap();
        assert!(!report.healthy());
        assert_eq!(report.covered_faults(), 0);
        assert!(matches!(
            report.shards[0].error,
            Some(SddError::ChecksumMismatch { .. })
        ));
        assert!(matches!(report.shards[1].error, Some(SddError::Io { .. })));
        assert_eq!(report.stale_temps.len(), 1);

        // Quarantine moves the corrupt file aside, skips the missing one.
        let moved = quarantine_bad_shards(&report).unwrap();
        assert_eq!(moved.len(), 1);
        assert!(!shard0.exists());
        assert!(moved[0].to_string_lossy().ends_with(QUARANTINE_SUFFIX));
        // A re-verify now sees both as missing (honest Io), not corrupt.
        let report = verify_file(&manifest).unwrap();
        assert!(report
            .bad_shards()
            .all(|s| matches!(s.error, Some(SddError::Io { .. }))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn whole_file_verifies_or_errors() {
        let dir = scratch_dir("whole");
        let path = dir.join("paper.sddb");
        crate::save(&path, &fixture()).unwrap();
        let report = verify_file(&path).unwrap();
        assert!(report.healthy());
        assert_eq!(report.faults, 4);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            verify_file(&path),
            Err(SddError::ChecksumMismatch { .. })
        ));
        // A row index entry pointing past the payload, under valid
        // checksums, is caught by the opener's structure walk.
        let mut bytes = crate::encode(&fixture()).unwrap();
        let first_index_entry = crate::HEADER_LEN..crate::HEADER_LEN + 8;
        bytes[first_index_entry].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut header = crate::Header::decode(&bytes).unwrap();
        header.payload_checksum = crate::format::fnv1a64(&bytes[crate::HEADER_LEN..]);
        bytes[..crate::HEADER_LEN].copy_from_slice(&header.encode());
        std::fs::write(&path, &bytes).unwrap();
        for mode in [MmapMode::Off, MmapMode::Auto] {
            assert!(matches!(
                verify_file_with(&path, mode),
                Err(SddError::Truncated {
                    context: "signature row",
                    ..
                })
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
