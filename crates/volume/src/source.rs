//! Where device diagnoses get their dictionary shards from.
//!
//! The volume engine is surfaced twice — the `sdd volume` CLI and the
//! serve `VOLUME` verb — and both must produce bit-identical reports. The
//! [`ShardSource`] trait is the seam that makes that hold: the engine's
//! per-device diagnosis, degradation accounting, and report formatting are
//! written once against this trait, and only shard *residency* differs
//! between surfaces (the CLI preloads every shard up front; the server
//! fetches lazily through its LRU registry).

use std::sync::Arc;

use sdd_logic::{BitVec, SddError};
use sdd_store::{DictionaryKind, MmapMode, ShardedReader, StoredDictionary};

use crate::corpus::Shape;

/// A shard that could not be fetched, reduced to the stable one-word
/// reason token that appears in `degraded=` lists and report records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchError {
    /// The [`error_token`] classification.
    pub token: &'static str,
}

impl From<&SddError> for FetchError {
    fn from(error: &SddError) -> Self {
        Self {
            token: error_token(error),
        }
    }
}

/// One-word reason token for a typed error — the shared vocabulary of
/// `degraded=` lists, `ERR` replies, and volume report records.
pub fn error_token(error: &SddError) -> &'static str {
    match error {
        SddError::Io { .. } => "io",
        SddError::ChecksumMismatch { .. } => "checksum",
        SddError::Truncated { .. } => "truncated",
        SddError::UnsupportedVersion { .. } => "version",
        SddError::Invalid { .. } => "invalid",
        SddError::Empty { .. } => "empty",
        SddError::Parse { .. } => "parse",
        SddError::WidthMismatch { .. } => "width",
        SddError::CountMismatch { .. } => "count",
        // `SddError` is non-exhaustive; any future variant is still an error.
        _ => "error",
    }
}

/// A provider of dictionary shards for per-device diagnosis.
///
/// Implementations must be cheap to query repeatedly:
/// [`fetch`](ShardSource::fetch) is called once per shard per device, and a
/// warm shard should cost a clone of an [`Arc`], not I/O.
pub trait ShardSource: Sync {
    /// Dictionary kind (fixes the observation shape).
    fn kind(&self) -> DictionaryKind;
    /// Number of tests `k`.
    fn tests(&self) -> usize;
    /// Observed outputs `m` per response (0 for pass/fail).
    fn outputs(&self) -> usize;
    /// Total faults `n` across all shards.
    fn fault_count(&self) -> usize;
    /// Number of shards (1 for a whole dictionary).
    fn shard_count(&self) -> usize;
    /// First global fault index shard `shard` covers.
    fn fault_start(&self, shard: usize) -> usize;
    /// Fetches shard `shard`, loading it if necessary.
    ///
    /// # Errors
    ///
    /// The tokenized reason; the engine records it as degraded coverage.
    fn fetch(&self, shard: usize) -> Result<Arc<StoredDictionary>, FetchError>;
    /// Shard `shard` *only if already resident* — what a device whose
    /// budget has expired is still allowed to use (a registry hit is a
    /// clone, not I/O).
    fn resident(&self, shard: usize) -> Option<Arc<StoredDictionary>>;
    /// The output cone of global fault `fault`, when cone information is
    /// available (recorded per shard by `sdd build --shards`, or supplied
    /// per fault). `None` disables cone clustering.
    fn fault_cone(&self, fault: usize) -> Option<&BitVec>;

    /// The corpus shape observations must conform to.
    fn shape(&self) -> Shape {
        Shape {
            kind: self.kind(),
            tests: self.tests(),
            outputs: self.outputs(),
        }
    }
}

/// A single unsharded dictionary, optionally with per-fault output cones.
#[derive(Debug, Clone)]
pub struct WholeSource {
    dictionary: Arc<StoredDictionary>,
    outputs: usize,
    cones: Option<Vec<BitVec>>,
}

impl WholeSource {
    /// Wraps a loaded dictionary.
    pub fn new(dictionary: StoredDictionary) -> Self {
        Self::from_arc(Arc::new(dictionary))
    }

    /// Wraps an already-shared dictionary — what the serve registry hands
    /// out — without cloning the payload.
    pub fn from_arc(dictionary: Arc<StoredDictionary>) -> Self {
        let outputs = match dictionary.as_ref() {
            StoredDictionary::PassFail(_) => 0,
            StoredDictionary::SameDifferent(d) => d.sizes().outputs as usize,
            StoredDictionary::Full(d) => d.matrix().output_count(),
        };
        Self {
            dictionary,
            outputs,
            cones: None,
        }
    }

    /// Attaches per-fault output cones (index-aligned with the
    /// dictionary's fault list), enabling cone clustering.
    ///
    /// # Errors
    ///
    /// [`SddError::CountMismatch`] when `cones` does not cover every fault.
    pub fn with_cones(mut self, cones: Vec<BitVec>) -> Result<Self, SddError> {
        if cones.len() != self.dictionary.fault_count() {
            return Err(SddError::CountMismatch {
                context: "per-fault cones",
                expected: self.dictionary.fault_count(),
                actual: cones.len(),
            });
        }
        self.cones = Some(cones);
        Ok(self)
    }
}

impl ShardSource for WholeSource {
    fn kind(&self) -> DictionaryKind {
        self.dictionary.kind()
    }
    fn tests(&self) -> usize {
        self.dictionary.test_count()
    }
    fn outputs(&self) -> usize {
        self.outputs
    }
    fn fault_count(&self) -> usize {
        self.dictionary.fault_count()
    }
    fn shard_count(&self) -> usize {
        1
    }
    fn fault_start(&self, _shard: usize) -> usize {
        0
    }
    fn fetch(&self, _shard: usize) -> Result<Arc<StoredDictionary>, FetchError> {
        Ok(Arc::clone(&self.dictionary))
    }
    fn resident(&self, _shard: usize) -> Option<Arc<StoredDictionary>> {
        Some(Arc::clone(&self.dictionary))
    }
    fn fault_cone(&self, fault: usize) -> Option<&BitVec> {
        self.cones.as_ref().and_then(|cones| cones.get(fault))
    }
}

struct PreloadedShard {
    start: usize,
    cone: BitVec,
    dictionary: Result<Arc<StoredDictionary>, FetchError>,
}

/// A sharded set with every shard loaded up front — the `sdd volume` CLI
/// source. A shard that fails to load is remembered by reason and yields
/// degraded (`PARTIAL`) device records for the whole run, matching the
/// degraded-serving contract.
pub struct PreloadedShards {
    kind: DictionaryKind,
    tests: usize,
    outputs: usize,
    faults: usize,
    shards: Vec<PreloadedShard>,
}

impl PreloadedShards {
    /// Opens a `.sddm` manifest and loads every shard it names.
    ///
    /// # Errors
    ///
    /// Only manifest-level failures (unreadable or corrupt `.sddm`) are
    /// fatal; per-shard failures degrade instead.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, SddError> {
        Self::open_with(path, MmapMode::Off)
    }

    /// [`open`](Self::open) with an explicit byte-ownership mode: under a
    /// mapped mode each shard's bytes come straight from the page cache
    /// during decode — a run over a shard set larger than RAM never holds
    /// more than one shard's encoded bytes mapped at a time. The decoded
    /// shards (and every device record) are byte-identical in every mode.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_with(path: impl AsRef<std::path::Path>, mode: MmapMode) -> Result<Self, SddError> {
        let reader = ShardedReader::open_with(path, mode)?;
        let manifest = reader.manifest();
        let shards = manifest
            .shards
            .iter()
            .enumerate()
            .map(|(index, record)| PreloadedShard {
                start: record.fault_start,
                cone: record.cone.clone(),
                dictionary: reader
                    .load_shard(index)
                    .map(Arc::new)
                    .map_err(|e| FetchError::from(&e)),
            })
            .collect();
        Ok(Self {
            kind: manifest.kind,
            tests: manifest.tests,
            outputs: manifest.outputs,
            faults: manifest.faults,
            shards,
        })
    }
}

impl ShardSource for PreloadedShards {
    fn kind(&self) -> DictionaryKind {
        self.kind
    }
    fn tests(&self) -> usize {
        self.tests
    }
    fn outputs(&self) -> usize {
        self.outputs
    }
    fn fault_count(&self) -> usize {
        self.faults
    }
    fn shard_count(&self) -> usize {
        self.shards.len()
    }
    fn fault_start(&self, shard: usize) -> usize {
        self.shards[shard].start
    }
    fn fetch(&self, shard: usize) -> Result<Arc<StoredDictionary>, FetchError> {
        self.shards[shard].dictionary.clone()
    }
    fn resident(&self, shard: usize) -> Option<Arc<StoredDictionary>> {
        self.shards[shard].dictionary.clone().ok()
    }
    fn fault_cone(&self, fault: usize) -> Option<&BitVec> {
        // Shards tile the fault list in ascending order: the owning shard
        // is the last one starting at or before `fault`.
        let index = self
            .shards
            .partition_point(|shard| shard.start <= fault)
            .checked_sub(1)?;
        Some(&self.shards[index].cone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::SameDifferentDictionary;

    fn sd() -> StoredDictionary {
        StoredDictionary::SameDifferent(SameDifferentDictionary::with_fault_free_baselines(
            &sdd_core::example::paper_example(),
        ))
    }

    #[test]
    fn whole_source_exposes_the_dictionary_dimensions() {
        let source = WholeSource::new(sd());
        assert_eq!(source.kind(), DictionaryKind::SameDifferent);
        assert_eq!(source.shard_count(), 1);
        assert_eq!(source.fault_count(), 4);
        assert!(source.outputs() > 0);
        assert!(source.fetch(0).is_ok());
        assert!(source.resident(0).is_some());
        assert!(source.fault_cone(0).is_none());
    }

    #[test]
    fn whole_source_cones_must_cover_every_fault() {
        let source = WholeSource::new(sd());
        assert!(matches!(
            source.clone().with_cones(vec![BitVec::zeros(2)]),
            Err(SddError::CountMismatch { .. })
        ));
        let cones = vec![BitVec::zeros(2); 4];
        let source = source.with_cones(cones).unwrap();
        assert!(source.fault_cone(3).is_some());
        assert!(source.fault_cone(4).is_none());
    }
}
