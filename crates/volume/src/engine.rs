//! The streaming volume-diagnosis engine.
//!
//! [`run`] pulls corpus lines from an iterator, diagnoses each device
//! against a [`ShardSource`] across a `jobs`-thread worker pool, emits one
//! JSON record per device to a [`RecordSink`] *in corpus order*, and
//! finishes with a single summary record carrying the defect clusters.
//! Input and output both stream: memory stays bounded by one work batch
//! regardless of corpus size, so a million-device corpus never buffers in
//! RAM.
//!
//! Determinism is a hard contract: for a fixed corpus and source, the
//! emitted bytes are identical for every `jobs` value (lines are batched
//! identically, workers only fill an index-addressed slot, and emission +
//! cluster accumulation replay serially in line order), and identical
//! across the two surfaces (`sdd volume` and the serve `VOLUME` verb)
//! because both call this function — only the sink's framing differs.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sdd_core::diagnose::{MatchQuality, ScoredCandidate};
use sdd_core::Budget;

use crate::cluster::{Aggregator, Clusters};
use crate::corpus::{parse_line, Observation, Parsed, Shape, SkipReason};
use crate::shard::ShardObservation;
use crate::source::{diagnose_source, ShardSource, SourceDiagnosis};

/// Candidates shown per device record (matching the serve `top=` field).
pub const TOP_CANDIDATES: usize = 5;
/// Best-set entries shown per device record; the full tie count is always
/// reported as `nbest`.
pub const BEST_SHOWN: usize = 8;

/// Tuning for one volume run.
#[derive(Debug, Clone)]
pub struct VolumeOptions {
    /// Worker threads for per-device diagnosis (output is identical for
    /// every value).
    pub jobs: usize,
    /// Per-device budget: shard loads stop when it expires, degrading that
    /// device's coverage instead of stalling the corpus.
    pub budget: Budget,
    /// Systematic-classification threshold, as a fraction of diagnosed
    /// devices (see [`crate::cluster::systematic_at`]).
    pub threshold: f64,
    /// Provenance seed stamped into the summary (diagnosis itself is
    /// deterministic; this traces which synthesized corpus a report came
    /// from).
    pub seed: u64,
}

impl Default for VolumeOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            budget: Budget::unlimited(),
            threshold: 0.05,
            seed: 0,
        }
    }
}

/// Per-record verdict, mirroring the serve reply contract: `OK` for a
/// fully-covered diagnosis, `PARTIAL` when degraded shards reduced
/// coverage, `ERR` for a record that produced no ranking (skipped or
/// failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Full-coverage diagnosis.
    Ok,
    /// Diagnosis over a shard subset (degraded coverage).
    Partial,
    /// No ranking: the record was skipped or every shard failed.
    Err,
}

impl Verdict {
    /// The wire token.
    pub fn token(self) -> &'static str {
        match self {
            Verdict::Ok => "OK",
            Verdict::Partial => "PARTIAL",
            Verdict::Err => "ERR",
        }
    }
}

/// Where report lines go. The JSON payloads are identical across sinks;
/// only the framing differs.
pub trait RecordSink {
    /// One device record.
    ///
    /// # Errors
    ///
    /// Transport errors abort the run.
    fn record(&mut self, verdict: Verdict, json: &str) -> io::Result<()>;
    /// The final summary record.
    ///
    /// # Errors
    ///
    /// Transport errors abort the run.
    fn summary(&mut self, json: &str) -> io::Result<()>;
}

/// Plain JSONL framing — one JSON object per line — for files and stdout.
pub struct JsonlSink<W: Write>(pub W);

impl<W: Write> RecordSink for JsonlSink<W> {
    fn record(&mut self, _verdict: Verdict, json: &str) -> io::Result<()> {
        writeln!(self.0, "{json}")
    }
    fn summary(&mut self, json: &str) -> io::Result<()> {
        writeln!(self.0, "{json}")
    }
}

/// Line-protocol framing for the serve `VOLUME` verb: each record line is
/// prefixed with its verdict token, and the summary closes the stream as
/// `OK SUMMARY <json>` — stripping the frame tokens recovers the exact
/// JSONL report.
pub struct WireSink<W: Write>(pub W);

impl<W: Write> RecordSink for WireSink<W> {
    fn record(&mut self, verdict: Verdict, json: &str) -> io::Result<()> {
        writeln!(self.0, "{} {json}", verdict.token())
    }
    fn summary(&mut self, json: &str) -> io::Result<()> {
        writeln!(self.0, "OK SUMMARY {json}")
    }
}

/// Corpus-level counters and clusters, as returned by [`run`] (the same
/// numbers the summary record carries).
#[derive(Debug, Clone)]
pub struct VolumeSummary {
    /// Corpus lines consumed.
    pub records: usize,
    /// Blank / comment lines (not records).
    pub ignored: usize,
    /// Device records attempted (`ok + partial + error`).
    pub devices: usize,
    /// Fully-covered diagnoses.
    pub ok: usize,
    /// Degraded-coverage diagnoses.
    pub partial: usize,
    /// Devices where every shard failed.
    pub error: usize,
    /// Malformed records skipped.
    pub skipped: usize,
    /// Skip counts by reason token.
    pub skip_reasons: BTreeMap<&'static str, usize>,
    /// The ranked, classified defect clusters.
    pub clusters: Clusters,
}

/// One line's processed outcome (worker output, emitted serially).
enum Work {
    Ignored,
    Skipped {
        device: Option<String>,
        reason: SkipReason,
    },
    Failed {
        device: String,
        reason: &'static str,
    },
    Diagnosed(Box<Diagnosed>),
}

struct Diagnosed {
    device: String,
    quality: MatchQuality,
    known: usize,
    distance: usize,
    nbest: usize,
    best: Vec<usize>,
    top: Vec<ScoredCandidate>,
    top_fault: usize,
    top_confidence: f64,
    covered: usize,
    degraded: Vec<(usize, &'static str)>,
}

/// Runs a whole corpus through ingestion → diagnosis → aggregation,
/// streaming records to `sink`.
///
/// Malformed corpus lines never abort (they become `ERR` records); only
/// transport failures — the line iterator or the sink — do.
///
/// # Errors
///
/// The first transport error, after which the run stops where it was.
///
/// # Example
///
/// ```
/// use sdd_core::SameDifferentDictionary;
/// use sdd_store::StoredDictionary;
/// use sdd_volume::{run, JsonlSink, VolumeOptions, WholeSource};
///
/// let matrix = sdd_core::example::paper_example();
/// let sd = SameDifferentDictionary::with_fault_free_baselines(&matrix);
/// let source = WholeSource::new(StoredDictionary::SameDifferent(sd));
/// let corpus = "dev-0 10/11\ndev-1 1X/11\nbad line !!\n";
/// let mut lines = corpus.lines().map(|l| Ok(l.to_owned()));
/// let mut out = Vec::new();
/// let summary = run(
///     &source,
///     &mut lines,
///     &mut JsonlSink(&mut out),
///     &VolumeOptions::default(),
/// )?;
/// assert_eq!(summary.devices, 2);
/// assert_eq!(summary.skipped, 1);
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn run<S: ShardSource + ?Sized>(
    source: &S,
    lines: &mut dyn Iterator<Item = io::Result<String>>,
    sink: &mut dyn RecordSink,
    options: &VolumeOptions,
) -> io::Result<VolumeSummary> {
    let shape = source.shape();
    let jobs = options.jobs.max(1);
    let batch_cap = jobs * 32;
    let mut line_no = 0usize; // 1-based in records
    let mut ignored = 0usize;
    let mut ok = 0usize;
    let mut partial = 0usize;
    let mut error = 0usize;
    let mut skip_reasons: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut aggregator = Aggregator::new();
    let mut json = String::new();
    let mut batch: Vec<(usize, String)> = Vec::with_capacity(batch_cap);
    loop {
        batch.clear();
        while batch.len() < batch_cap {
            match lines.next() {
                Some(line) => {
                    line_no += 1;
                    batch.push((line_no, line?));
                }
                None => break,
            }
        }
        if batch.is_empty() {
            break;
        }
        let outcomes = process_batch(source, &shape, &batch, jobs, &options.budget);
        for ((line, _), work) in batch.iter().zip(&outcomes) {
            let verdict = match work {
                Work::Ignored => {
                    ignored += 1;
                    continue;
                }
                Work::Skipped { reason, .. } => {
                    *skip_reasons.entry(reason.token()).or_insert(0) += 1;
                    Verdict::Err
                }
                Work::Failed { .. } => {
                    error += 1;
                    Verdict::Err
                }
                Work::Diagnosed(d) => {
                    // Partial verdicts still carry a legitimate ranking
                    // over the covered shards, so they join the clusters.
                    aggregator.add(
                        d.top_fault,
                        d.top_confidence,
                        source.fault_cone(d.top_fault),
                    );
                    if d.degraded.is_empty() {
                        ok += 1;
                        Verdict::Ok
                    } else {
                        partial += 1;
                        Verdict::Partial
                    }
                }
            };
            json.clear();
            push_record_json(&mut json, *line, work, source.fault_count());
            sink.record(verdict, &json)?;
        }
    }
    let skipped: usize = skip_reasons.values().sum();
    let clusters = aggregator.finish(options.threshold, ok + partial);
    let summary = VolumeSummary {
        records: line_no,
        ignored,
        devices: ok + partial + error,
        ok,
        partial,
        error,
        skipped,
        skip_reasons,
        clusters,
    };
    json.clear();
    push_summary_json(&mut json, &summary, options);
    sink.summary(&json)?;
    Ok(summary)
}

/// Processes one batch, serially or across scoped workers; either path
/// fills the same index-addressed slots, so the merged order — and every
/// downstream byte — is independent of `jobs`.
fn process_batch<S: ShardSource + ?Sized>(
    source: &S,
    shape: &Shape,
    batch: &[(usize, String)],
    jobs: usize,
    budget: &Budget,
) -> Vec<Work> {
    if jobs <= 1 || batch.len() <= 1 {
        return batch
            .iter()
            .map(|(_, line)| process_line(source, shape, line, budget))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Work>> = Vec::with_capacity(batch.len());
    slots.resize_with(batch.len(), || None);
    let collected: Vec<Vec<(usize, Work)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.min(batch.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::SeqCst);
                        let Some((_, line)) = batch.get(index) else {
                            break;
                        };
                        local.push((index, process_line(source, shape, line, budget)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("volume worker panicked"))
            .collect()
    });
    for (index, work) in collected.into_iter().flatten() {
        slots[index] = Some(work);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every batch slot processed"))
        .collect()
}

fn process_line<S: ShardSource + ?Sized>(
    source: &S,
    shape: &Shape,
    line: &str,
    budget: &Budget,
) -> Work {
    match parse_line(line, shape) {
        Parsed::Ignored => Work::Ignored,
        Parsed::Skip { device, reason } => Work::Skipped { device, reason },
        Parsed::Record {
            device,
            observation,
        } => match diagnose_device(source, &observation, budget) {
            Ok(mut diagnosed) => {
                diagnosed.device = device;
                Work::Diagnosed(diagnosed)
            }
            Err(reason) => Work::Failed { device, reason },
        },
    }
}

/// Diagnoses one device through [`diagnose_source`] under the per-device
/// budget: resident shards always join, loads the budget refuses and shards
/// that fail become degraded coverage, and only a device with *nothing*
/// joined fails.
fn diagnose_device<S: ShardSource + ?Sized>(
    source: &S,
    observation: &Observation,
    budget: &Budget,
) -> Result<Box<Diagnosed>, &'static str> {
    let observation = match observation {
        Observation::Signature(signature) => ShardObservation::Signature(signature),
        Observation::Responses(responses) => ShardObservation::Responses(responses),
    };
    let SourceDiagnosis {
        report,
        covered,
        degraded,
    } = diagnose_source(source, observation, budget, Instant::now()).map_err(|e| e.reason)?;
    Ok(Box::new(Diagnosed {
        device: String::new(),
        quality: report.quality,
        known: report.known,
        distance: report.distance(),
        nbest: report.best.len(),
        best: report.best.iter().copied().take(BEST_SHOWN).collect(),
        top: report
            .ranking
            .iter()
            .take(TOP_CANDIDATES)
            .cloned()
            .collect(),
        top_fault: report.best.first().copied().unwrap_or(0),
        top_confidence: report.ranking.first().map_or(0.0, |c| c.confidence),
        covered,
        degraded,
    }))
}

/// Ladder-rung name, matching the serve protocol's `quality=` values.
pub fn quality_name(quality: MatchQuality) -> &'static str {
    match quality {
        MatchQuality::Exact => "exact",
        MatchQuality::ConsistentUnderMask => "consistent",
        MatchQuality::Ranked => "ranked",
    }
}

fn push_record_json(out: &mut String, line: usize, work: &Work, total_faults: usize) {
    use std::fmt::Write as _;
    match work {
        Work::Ignored => unreachable!("ignored lines emit no record"),
        Work::Skipped { device, reason } => {
            let _ = write!(out, "{{\"line\":{line}");
            if let Some(device) = device {
                let _ = write!(out, ",\"device\":\"{device}\"");
            }
            let _ = write!(
                out,
                ",\"status\":\"skipped\",\"reason\":\"{}\"}}",
                reason.token()
            );
        }
        Work::Failed { device, reason } => {
            let _ = write!(
                out,
                "{{\"line\":{line},\"device\":\"{device}\",\"status\":\"error\",\"reason\":\"{reason}\"}}"
            );
        }
        Work::Diagnosed(d) => {
            let status = if d.degraded.is_empty() {
                "ok"
            } else {
                "partial"
            };
            let _ = write!(
                out,
                "{{\"line\":{line},\"device\":\"{}\",\"status\":\"{status}\",\"quality\":\"{}\",\"known\":{},\"distance\":{},\"nbest\":{},\"best\":[",
                d.device,
                quality_name(d.quality),
                d.known,
                d.distance,
                d.nbest,
            );
            push_joined(out, d.best.iter(), |out, fault| {
                let _ = write!(out, "{fault}");
            });
            out.push_str("],\"top\":[");
            push_joined(out, d.top.iter(), |out, c| {
                let _ = write!(out, "\"{}:{}:{:.4}\"", c.fault, c.mismatches, c.confidence);
            });
            out.push(']');
            if !d.degraded.is_empty() {
                let _ = write!(
                    out,
                    ",\"covered\":\"{}/{total_faults}\",\"degraded\":[",
                    d.covered
                );
                push_joined(out, d.degraded.iter(), |out, (shard, token)| {
                    let _ = write!(out, "\"{shard}:{token}\"");
                });
                out.push(']');
            }
            out.push('}');
        }
    }
}

fn push_summary_json(out: &mut String, summary: &VolumeSummary, options: &VolumeOptions) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"summary\":{{\"records\":{},\"ignored\":{},\"devices\":{},\"ok\":{},\"partial\":{},\"error\":{},\"skipped\":{},\"skip_reasons\":{{",
        summary.records,
        summary.ignored,
        summary.devices,
        summary.ok,
        summary.partial,
        summary.error,
        summary.skipped,
    );
    push_joined(out, summary.skip_reasons.iter(), |out, (token, count)| {
        let _ = write!(out, "\"{token}\":{count}");
    });
    let _ = write!(
        out,
        "}},\"seed\":{},\"threshold\":{:.4},\"systematic_at\":{},\"fault_clusters\":[",
        options.seed, options.threshold, summary.clusters.systematic_at,
    );
    push_joined(out, summary.clusters.faults.iter(), |out, c| {
        let _ = write!(
            out,
            "{{\"fault\":{},\"count\":{},\"score\":{:.4},\"class\":\"{}\"}}",
            c.fault,
            c.count,
            c.score,
            class_name(c.systematic),
        );
    });
    out.push_str("],\"cone_clusters\":[");
    push_joined(out, summary.clusters.cones.iter(), |out, c| {
        let _ = write!(
            out,
            "{{\"cone\":\"{}\",\"count\":{},\"score\":{:.4},\"nfaults\":{},\"faults\":[",
            c.cone,
            c.count,
            c.score,
            c.faults.len(),
        );
        push_joined(out, c.faults.iter().take(BEST_SHOWN), |out, fault| {
            let _ = write!(out, "{fault}");
        });
        let _ = write!(out, "],\"class\":\"{}\"}}", class_name(c.systematic));
    });
    out.push_str("]}}");
}

fn class_name(systematic: bool) -> &'static str {
    if systematic {
        "systematic"
    } else {
        "random"
    }
}

fn push_joined<T>(
    out: &mut String,
    items: impl Iterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::tests::{FakeSource, Residency};
    use crate::source::WholeSource;
    use crate::synth::{synthesize, SynthSpec};
    use sdd_core::SameDifferentDictionary;
    use sdd_logic::{BitVec, Prng};
    use sdd_sim::ResponseMatrix;
    use sdd_store::StoredDictionary;
    use std::time::Duration;

    fn source() -> WholeSource {
        let matrix = sdd_core::example::paper_example();
        WholeSource::new(StoredDictionary::SameDifferent(
            SameDifferentDictionary::with_fault_free_baselines(&matrix),
        ))
    }

    fn run_corpus(
        source: &WholeSource,
        corpus: &str,
        options: &VolumeOptions,
    ) -> (Vec<u8>, VolumeSummary) {
        let mut lines = corpus.lines().map(|l| Ok(l.to_owned()));
        let mut out = Vec::new();
        let summary = run(source, &mut lines, &mut JsonlSink(&mut out), options).unwrap();
        (out, summary)
    }

    /// A seeded random response matrix and each fault's cone: the outputs
    /// any test observes it on. It is big enough (400 faults, 32 tests of
    /// 24 outputs) that a batch's lines usually spread over several
    /// workers.
    fn random_matrix(seed: u64) -> (ResponseMatrix, Vec<BitVec>) {
        let (faults, tests, outputs) = (400, 32, 24);
        let mut rng = Prng::seed_from_u64(seed);
        let good: Vec<BitVec> = (0..tests)
            .map(|_| (0..outputs).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let mut cones = vec![BitVec::zeros(outputs); faults];
        let mut responses = vec![Vec::with_capacity(faults); tests];
        for (good, row) in good.iter().zip(&mut responses) {
            for cone in &mut cones {
                let mut response = BitVec::zeros(outputs);
                for output in 0..outputs {
                    let flip = rng.gen_bool(0.15);
                    response.set(output, (good.get(output) == Some(true)) ^ flip);
                    if flip {
                        cone.set(output, true);
                    }
                }
                row.push(response);
            }
        }
        (ResponseMatrix::from_responses(good, &responses), cones)
    }

    #[test]
    fn report_bytes_are_jobs_invariant() {
        let corpus = "\
# synthetic corpus
dev-0 10/11
dev-1 1X/11

dev-2 01/0X
garbage !! line
dev-3 10/11
{\"device\":\"dev-4\",\"obs\":\"10/11\"}
";
        let serial = run_corpus(&source(), corpus, &VolumeOptions::default());
        let parallel = run_corpus(
            &source(),
            corpus,
            &VolumeOptions {
                jobs: 4,
                ..Default::default()
            },
        );
        assert_eq!(serial.0, parallel.0, "jobs must not change a byte");
        assert_eq!(serial.1.devices, 5);
        assert_eq!(serial.1.ignored, 2);
        assert_eq!(serial.1.skipped, 1);

        // A synthesized corpus with masked and flipped bits: its 300
        // devices span ten batches of `jobs × 32` lines at jobs 1 and three
        // at jobs 4.
        let (matrix, cones) = random_matrix(3);
        let source = WholeSource::new(StoredDictionary::SameDifferent(
            SameDifferentDictionary::with_fault_free_baselines(&matrix),
        ))
        .with_cones(cones)
        .unwrap();
        let spec = SynthSpec {
            devices: 300,
            systematic: vec![(11, 0.2), (42, 0.2)],
            mask_rate: 0.02,
            flip_rate: 0.01,
            jsonl_every: 5,
            seed: 1,
        };
        let mut corpus = Vec::new();
        synthesize(&matrix, &spec, &mut corpus).unwrap();
        let corpus = String::from_utf8(corpus).unwrap();
        let at = |jobs| {
            let options = VolumeOptions {
                jobs,
                ..Default::default()
            };
            run_corpus(&source, &corpus, &options)
        };
        let (serial, summary) = at(1);
        assert_eq!(serial, at(4).0, "jobs must not change a byte");
        assert_eq!(summary.ok, 300);
        assert!(!summary.clusters.cones.is_empty());
    }

    #[test]
    fn wire_frames_strip_back_to_the_jsonl_report() {
        let corpus = "dev-0 10/11\nbad !! line\n";
        let options = VolumeOptions::default();
        let source = source();
        let (jsonl, _) = run_corpus(&source, corpus, &options);
        let mut lines = corpus.lines().map(|l| Ok(l.to_owned()));
        let mut wire = Vec::new();
        run(&source, &mut lines, &mut WireSink(&mut wire), &options).unwrap();
        let stripped: String = String::from_utf8(wire)
            .unwrap()
            .lines()
            .map(|l| {
                let l = l.strip_prefix("OK SUMMARY ").unwrap_or(l);
                let l = l
                    .strip_prefix("OK ")
                    .or_else(|| l.strip_prefix("PARTIAL "))
                    .or_else(|| l.strip_prefix("ERR "))
                    .unwrap_or(l);
                format!("{l}\n")
            })
            .collect();
        assert_eq!(stripped.into_bytes(), jsonl);
    }

    #[test]
    fn summary_counts_and_clusters_line_up() {
        // Three devices agree on one fault signature; one is noise.
        let corpus = "\
dev-0 10/11
dev-1 10/11
dev-2 10/11
dev-3 01/00
";
        let (out, summary) = run_corpus(&source(), corpus, &VolumeOptions::default());
        assert_eq!(summary.ok, 4);
        assert_eq!(summary.clusters.systematic_at, 2);
        let top = &summary.clusters.faults[0];
        assert_eq!(top.count, 3);
        assert!(top.systematic);
        assert!(!summary.clusters.faults.last().unwrap().systematic);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"class\":\"systematic\""));
        assert!(text.ends_with("]}}\n"));
    }

    #[test]
    fn a_zero_budget_degrades_to_an_error_record_not_an_abort() {
        // A source with nothing resident, so the budget refuses every load.
        let whole = StoredDictionary::SameDifferent(
            SameDifferentDictionary::with_fault_free_baselines(&sdd_core::example::paper_example()),
        );
        let cold = FakeSource::new(&whole, &[(0, BitVec::zeros(2), Residency::Cold)]);
        let mut lines = "dev-0 10/11\n".lines().map(|l| Ok(l.to_owned()));
        let mut out = Vec::new();
        let options = VolumeOptions {
            budget: Budget::max_calls(0).and_deadline(Duration::ZERO),
            ..Default::default()
        };
        let summary = run(&cold, &mut lines, &mut JsonlSink(&mut out), &options).unwrap();
        assert_eq!(summary.error, 1);
        assert_eq!(summary.ok, 0);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"status\":\"error\",\"reason\":\"deadline\""));
    }

    #[test]
    fn transport_errors_abort_the_run() {
        let source = source();
        let mut lines = [
            Ok("dev-0 10/11".to_owned()),
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, "gone")),
        ]
        .into_iter();
        let mut out = Vec::new();
        let result = run(
            &source,
            &mut lines,
            &mut JsonlSink(&mut out),
            &VolumeOptions::default(),
        );
        assert!(result.is_err());
    }
}
