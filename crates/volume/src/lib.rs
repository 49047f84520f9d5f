//! # sdd-volume — volume diagnosis
//!
//! Production test floors do not fail one device at a time: they emit
//! millions of failing-die datalogs whose value is in the *aggregate*. A
//! systematic defect shows up as the same fault — or the same output cone
//! — recurring across die; random defects scatter. This crate turns a
//! corpus of per-device masked observations into one clustered verdict:
//!
//! 1. **Ingest** ([`corpus`]) — line-oriented text/JSONL records over the
//!    [`sdd_logic::MaskedBitVec`] ternary alphabet; malformed lines are
//!    counted and skipped, never fatal.
//! 2. **Diagnose** ([`engine`]) — every device runs the masked-diagnosis
//!    ladder against a whole or sharded dictionary ([`shard`]) through
//!    [`diagnose_source`], across a `jobs` worker pool, honoring a
//!    per-device [`sdd_core::Budget`]; output order and bytes are identical
//!    for every job count.
//! 3. **Aggregate** ([`cluster`]) — verdicts cluster by candidate fault
//!    and by output cone, with recurrence counts, confidence-weighted
//!    scores, and a systematic-vs-random threshold classification.
//! 4. **Report** — a streaming JSON report (one record per device plus a
//!    final summary block), so corpora never buffer in RAM.
//!
//! The engine is surfaced twice — the `sdd volume` CLI subcommand and the
//! serve `VOLUME` verb — through the [`ShardSource`] seam; both emit
//! bit-identical JSON payloads by construction. The serve `DIAG` and
//! `BATCH` verbs diagnose through the same [`diagnose_source`] loop.
//! [`synth`] generates the seeded corpora the benches and examples drive it
//! with.
//!
//! # Example
//!
//! ```
//! use sdd_core::SameDifferentDictionary;
//! use sdd_store::StoredDictionary;
//! use sdd_volume::{run, JsonlSink, VolumeOptions, WholeSource};
//!
//! let matrix = sdd_core::example::paper_example();
//! let sd = SameDifferentDictionary::with_fault_free_baselines(&matrix);
//! let source = WholeSource::new(StoredDictionary::SameDifferent(sd));
//! // Three devices with the fault-1 signature, one noise device, one
//! // corrupt line that is skipped, not fatal.
//! let corpus = "\
//! dev-0 10/11
//! dev-1 10/1X
//! dev-2 10/11
//! dev-3 01/00
//! dev-4 truncated-garbage!!
//! ";
//! let mut lines = corpus.lines().map(|l| Ok(l.to_owned()));
//! let mut report = Vec::new();
//! let summary = run(
//!     &source,
//!     &mut lines,
//!     &mut JsonlSink(&mut report),
//!     &VolumeOptions::default(),
//! )?;
//! assert_eq!(summary.devices, 4);
//! assert_eq!(summary.skipped, 1);
//! assert!(summary.clusters.faults[0].systematic);
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod corpus;
pub mod engine;
pub mod shard;
pub mod source;
pub mod synth;

pub use cluster::{Aggregator, Clusters, ConeCluster, FaultCluster};
pub use corpus::{Observation, Parsed, Shape, SkipReason};
pub use engine::{
    quality_name, run, JsonlSink, RecordSink, Verdict, VolumeOptions, VolumeSummary, WireSink,
};
pub use source::{
    diagnose_source, error_token, PreloadedShards, ShardSource, SourceDiagnosis, Unserved,
    WholeSource,
};
pub use synth::{device_name, synthesize, SynthSpec};
