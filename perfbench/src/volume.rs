//! `volume` workload: `sdd_volume::run` in process over the s953-profile
//! 10-detection dictionary, written as four cone shards and opened mapped.
//! The corpus is a set of seeded lot files streamed from disk: `synthesize`
//! devices with noisy observations (see [`crate::FLIP_RATE`]), two
//! systematic faults, and 1 % malformed lines mixed in. One operation is
//! one lot: a `run` over one lot file, which is what a user of batch
//! triage waits for.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use same_different::atpg::AtpgOptions;
use same_different::dict::diagnose::{
    match_signatures_masked, match_signatures_masked_into, merge_shard_rankings,
};
use same_different::dict::{
    replace_baselines, select_baselines, Procedure1Options, SameDifferentDictionary,
};
use same_different::logic::{MaskedBitVec, Prng};
use same_different::sim::{CorruptionModel, OutputCones};
use same_different::store::{self, MmapMode, StoredDictionary};
use same_different::volume::cluster::Aggregator;
use same_different::volume::corpus::{self, Observation, Parsed};
use same_different::volume::shard::{diagnose_sharded, ShardObservation};
use same_different::volume::{
    synthesize, JsonlSink, PreloadedShards, ShardSource, SynthSpec, VolumeOptions, VolumeSummary,
};
use same_different::Experiment;

use crate::measure::{self, Summary};
use crate::trace::Tracer;
use crate::{Outcome, FLIP_RATE, MASK_RATE};

/// ISCAS'89 profile of the dictionary's netlist.
const PROFILE: &str = "s953";
/// Generator, ATPG and Procedure 1 seed of the dictionary.
const PROFILE_SEED: u64 = 1;
/// Cone shards the dictionary is written as.
const SHARDS: usize = 4;
/// Lot files, and devices per lot.
const LOTS: usize = 8;
const DEVICES: usize = 100;
/// Lot latency percentiles are medians over slices of this many
/// consecutive lots (ten lots beyond each slice's p90).
const LOT_SLICE: usize = 100;
/// `rate_per_s` is the median over slices of this many consecutive lots of
/// each slice's devices per second, so a stall confined to a few slices
/// does not move it, as it does not move the sliced latency.
const RATE_SLICE: usize = 25;
/// Malformed lines mixed into each lot (1 %, rounded up).
const MALFORMED: usize = DEVICES.div_ceil(100);
/// Share of devices each systematic fault owns.
const SYSTEMATIC_SHARE: f64 = 0.2;

/// One lot file with its ground truth.
struct Lot {
    path: PathBuf,
    /// `plan[d]` is the fault device `d` carries.
    plan: Vec<usize>,
    bytes: usize,
}

/// Generated inputs.
pub struct Inputs {
    manifest: PathBuf,
    lots: Vec<Lot>,
    systematic: [usize; 2],
    seed: u64,
    shape: String,
}

/// Noisy copies of its responses a systematic fault is screened under.
const SCREEN_COPIES: u64 = 8;

/// The fault's own clean responses diagnose to it alone, and in each of
/// [`SCREEN_COPIES`] copies corrupted as the corpus is, it is still the
/// lowest-index fault of the best set: a recurrence of it clusters under
/// its own index, not under a tied lower-index neighbour's. Masking ties
/// some faults with such a neighbour often enough that they missed the
/// systematic threshold in some lots (fault 706 of seed 803 tied with
/// fault 71 in three of eight copies).
fn uniquely_diagnosable(
    dictionary: &SameDifferentDictionary,
    matrix: &same_different::sim::ResponseMatrix,
    fault: usize,
) -> bool {
    let clean: Vec<MaskedBitVec> = (0..matrix.test_count())
        .map(|t| MaskedBitVec::from_known(matrix.response(t, matrix.class(t, fault))))
        .collect();
    let best = |responses: &[MaskedBitVec]| {
        dictionary
            .encode_observed_masked(responses)
            .and_then(|encoded| match_signatures_masked(dictionary.signatures(), &encoded))
            .map(|report| report.best)
    };
    best(&clean).is_ok_and(|best| best == [fault])
        && (0..SCREEN_COPIES).all(|copy| {
            let mut noisy = clean.clone();
            CorruptionModel::clean()
                .with_mask_rate(MASK_RATE)
                .with_flip_rate(FLIP_RATE)
                .with_seed(measure::mix(fault as u64, copy))
                .degrade(&mut noisy);
            best(&noisy).is_ok_and(|best| best.iter().min() == Some(&fault))
        })
}

/// One malformed corpus line of a seeded kind; each is a line the corpus
/// parser skips with a typed reason.
fn malformed(rng: &mut Prng, lot: usize, k: usize, good: &str) -> String {
    match rng.gen_range(0..4) {
        // Too few per-test responses.
        0 => format!("bad-{lot}-{k} 0101/1100"),
        // Truncated JSON.
        1 => format!("{{\"device\":\"bad-{lot}-{k}\",\"obs\":\"01"),
        // Device id with characters outside the id alphabet.
        2 => format!("bad!{lot}?{k} 0101"),
        // A real record with one response a bit short.
        _ => {
            let cut = good.find('/').map_or(good.len(), |slash| slash - 1);
            format!("{}{}", &good[..cut], &good[cut + 1..])
        }
    }
}

/// Builds the sharded dictionary and writes the seeded lot files.
pub fn prepare(seed: u64, dir: &Path) -> Inputs {
    let jobs = measure::jobs();
    let exp = Experiment::iscas89(PROFILE, PROFILE_SEED).expect("known profile");
    let tests = exp.detection_tests(
        10,
        &AtpgOptions {
            seed: PROFILE_SEED,
            ..AtpgOptions::default()
        },
    );
    let matrix = exp.simulate_jobs(&tests.tests, jobs);
    let mut selection = select_baselines(
        &matrix,
        &Procedure1Options {
            seed: PROFILE_SEED,
            jobs,
            ..Procedure1Options::default()
        },
    );
    replace_baselines(&matrix, &mut selection.baselines);
    let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);
    let cones = OutputCones::compute(exp.circuit(), exp.view());
    let ranges = cones.shard_ranges(exp.universe(), exp.faults(), SHARDS);
    let shard_cones: Vec<_> = ranges
        .iter()
        .map(|r| cones.shard_cone(exp.universe(), exp.faults(), r.clone()))
        .collect();
    let manifest = dir.join("volume.sddm");
    store::write_sharded(
        &manifest,
        &StoredDictionary::SameDifferent(dictionary.clone()),
        &ranges,
        Some(&shard_cones),
    )
    .expect("write the sharded dictionary");

    // Two uniquely diagnosable systematic faults, drawn by the seed. Every
    // fault is screened, so preparation does the same work for every seed.
    let faults = matrix.fault_count();
    let candidates: Vec<usize> = (0..faults)
        .filter(|&f| uniquely_diagnosable(&dictionary, &matrix, f))
        .collect();
    let mut rng = Prng::seed_from_u64(measure::mix(seed, 5));
    let first = rng.gen_range(0..candidates.len());
    let second = (first + 1 + rng.gen_range(0..candidates.len() - 1)) % candidates.len();
    let systematic = [candidates[first], candidates[second]];

    // Lot files are written line by line from one reused buffer, so what
    // preparation leaves on the heap does not depend on the seed.
    let mut corpus_bytes = 0;
    let mut text = Vec::new();
    let lots = (0..LOTS)
        .map(|lot| {
            let spec = SynthSpec {
                devices: DEVICES,
                systematic: systematic.iter().map(|&f| (f, SYSTEMATIC_SHARE)).collect(),
                mask_rate: MASK_RATE,
                flip_rate: FLIP_RATE,
                jsonl_every: 5,
                seed: measure::mix(seed, 10 + lot as u64),
            };
            text.clear();
            let plan = synthesize(&matrix, &spec, &mut text).expect("synthesize into memory");
            let lines: Vec<&str> = std::str::from_utf8(&text)
                .expect("synthesized corpus is UTF-8")
                .lines()
                .collect();
            let mut bad: Vec<(usize, String)> = (0..MALFORMED)
                .map(|k| {
                    let good = lines[rng.gen_range(0..lines.len())];
                    let line = malformed(&mut rng, lot, k, good);
                    (rng.gen_range(0..lines.len() + 1), line)
                })
                .collect();
            bad.sort_by_key(|(at, _)| *at);
            let path = dir.join(format!("lot-{lot}.txt"));
            let mut file =
                std::io::BufWriter::new(std::fs::File::create(&path).expect("create lot file"));
            let mut bad = bad.into_iter().peekable();
            for (index, line) in lines.iter().enumerate() {
                while let Some((_, b)) = bad.next_if(|(at, _)| *at == index) {
                    writeln!(file, "{b}").expect("write lot file");
                }
                writeln!(file, "{line}").expect("write lot file");
            }
            for (_, b) in bad {
                writeln!(file, "{b}").expect("write lot file");
            }
            file.flush().expect("write lot file");
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len() as usize);
            corpus_bytes += bytes;
            Lot { path, plan, bytes }
        })
        .collect();
    Inputs {
        manifest,
        lots,
        systematic,
        seed,
        shape: format!(
            "input profile={PROFILE} faults={faults} tests={} outputs={} shards={SHARDS} lots={LOTS} devices_per_lot={DEVICES} malformed_per_lot={MALFORMED} corpus_bytes={corpus_bytes} systematic={systematic:?}",
            matrix.test_count(),
            matrix.output_count()
        ),
    }
}

/// Streams one lot file through `run`.
fn run_lot(
    source: &PreloadedShards,
    lot: &Lot,
    options: &VolumeOptions,
) -> std::io::Result<(VolumeSummary, Vec<u8>, f64)> {
    let file = std::fs::File::open(&lot.path)?;
    let mut lines = std::io::BufReader::new(file).lines();
    let mut report = Vec::new();
    let start = Instant::now();
    let summary =
        same_different::volume::run(source, &mut lines, &mut JsonlSink(&mut report), options)?;
    Ok((summary, report, start.elapsed().as_secs_f64()))
}

/// Checks one lot's summary and report; returns (top hits, diagnosed).
fn check_lot(
    out: &mut Outcome,
    inputs: &Inputs,
    lot: &Lot,
    summary: &VolumeSummary,
    report: &[u8],
) -> (usize, usize) {
    let mut problems = Vec::new();
    if summary.skipped != MALFORMED {
        problems.push(format!(
            "skipped {} of {MALFORMED} malformed lines",
            summary.skipped
        ));
    }
    if summary.devices != DEVICES {
        problems.push(format!("{} devices of {DEVICES}", summary.devices));
    }
    for fault in inputs.systematic {
        let classified = summary
            .clusters
            .faults
            .iter()
            .any(|c| c.fault == fault && c.systematic);
        if !classified {
            problems.push(format!(
                "systematic fault {fault} not classified systematic"
            ));
        }
    }
    let (mut hits, mut diagnosed) = (0, 0);
    for record in String::from_utf8_lossy(report).lines() {
        let Some(index) = json_str(record, "device")
            .and_then(|d| d.strip_prefix("dev-"))
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        if json_str(record, "status") != Some("ok") {
            continue;
        }
        diagnosed += 1;
        let best = json_list(record, "best");
        hits += usize::from(best.contains(&lot.plan[index]));
    }
    // Verdicts that are not explained by an injected malformed line.
    let unexplained = summary.error + summary.partial + summary.skipped.abs_diff(MALFORMED);
    out.failed += unexplained as u64;
    out.attempted += (summary.devices + summary.skipped) as u64;
    if !problems.is_empty() {
        out.failed += 1;
        out.check(
            format!("{}: {}", lot.path.display(), problems.join("; ")),
            false,
        );
    }
    (hits, diagnosed)
}

/// The string value of `"key":"..."` in a flat JSON record.
fn json_str<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = record.find(&needle)? + needle.len();
    let len = record[start..].find('"')?;
    Some(&record[start..start + len])
}

/// The integers of `"key":[...]` in a flat JSON record.
fn json_list(record: &str, key: &str) -> Vec<usize> {
    let needle = format!("\"{key}\":[");
    let Some(start) = record.find(&needle).map(|i| i + needle.len()) else {
        return Vec::new();
    };
    let end = record[start..]
        .find(']')
        .map_or(record.len(), |e| start + e);
    record[start..end]
        .split(',')
        .filter_map(|n| n.trim().parse().ok())
        .collect()
}

/// Runs the workload once.
pub fn run(inputs: &Inputs, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    out.line(inputs.shape.clone());

    // Set-up: open the manifest and preload every shard, mapped.
    let mut setups = Vec::with_capacity(measure::SETUP_REPEATS);
    let mut source = None;
    for repeat in 0..measure::SETUP_REPEATS {
        std::thread::sleep(measure::SETUP_GAP);
        let (opened, seconds) = tracer.time("store.shard_open", repeat as u64, || {
            PreloadedShards::open_with(&inputs.manifest, MmapMode::Auto)
        });
        setups.push(seconds);
        match opened {
            Ok(opened) => source = Some(opened),
            Err(e) => out.check(format!("open {}: {e}", inputs.manifest.display()), false),
        }
    }
    let Some(source) = source else {
        out.failed += 1;
        return out;
    };

    // Timed phase: lots back to back for `seconds`, at least one pass.
    let options = VolumeOptions {
        jobs: measure::jobs(),
        seed: inputs.seed,
        ..VolumeOptions::default()
    };
    // One untimed lot first, so worker threads and their allocations are
    // warm before memory and time are measured.
    if let Err(e) = run_lot(&source, &inputs.lots[LOTS - 1], &options) {
        out.check(format!("warm-up lot: {e}"), false);
    }
    let rss_reset = measure::reset_peak_rss();
    let started = Instant::now();
    let mut lot_seconds = Vec::new();
    let mut lot_devices = Vec::new();
    let (mut devices, mut hits, mut diagnosed, mut report_bytes) = (0, 0, 0, 0);
    let mut index = 0;
    while index < LOTS || started.elapsed().as_secs_f64() < seconds {
        let lot = &inputs.lots[index % LOTS];
        index += 1;
        let id = tracer.enter("volume.run", index as u64);
        let result = run_lot(&source, lot, &options);
        tracer.exit(id);
        match result {
            Ok((summary, report, seconds)) => {
                lot_seconds.push(seconds);
                lot_devices.push(summary.devices as f64);
                devices += summary.devices;
                report_bytes = report.len();
                let (h, d) = check_lot(&mut out, inputs, lot, &summary, &report);
                hits += h;
                diagnosed += d;
            }
            Err(e) => {
                lot_seconds.push(f64::INFINITY);
                lot_devices.push(0.0);
                out.attempted += 1;
                out.failed += 1;
                out.check(format!("{}: {e}", lot.path.display()), false);
            }
        }
    }
    let peak_rss = measure::peak_rss_mb();
    let busy: f64 = lot_seconds.iter().sum();
    let lots = Summary::sliced(&lot_seconds, LOT_SLICE);
    let devices_per_s = devices as f64 / busy;
    if out.checks.is_empty() {
        out.check(
            format!(
                "{} lot runs: skipped lines are the injected malformed ones, every other line is a device, both systematic faults classify systematic",
                lot_seconds.len()
            ),
            true,
        );
    }
    let lot_bytes: usize = inputs.lots.iter().map(|l| l.bytes).sum();
    out.line(format!(
        "lots={} devices={devices} busy={busy:.3} s corpus_bytes_per_pass={lot_bytes}",
        lot_seconds.len()
    ));

    out.e2e("setup_s", measure::median(&setups));
    out.e2e("peak_rss_mb", peak_rss);
    out.e2e("p50_ms", lots.p50 * 1e3);
    out.e2e(
        "rate_per_s",
        measure::sliced_rate(&lot_devices, &lot_seconds, RATE_SLICE),
    );
    out.line(format!(
        "p50_ms and tail_ms ({}) are per-lot latency ({DEVICES} devices + {MALFORMED} malformed lines), medians over slices of {LOT_SLICE} lots; rate_per_s is devices diagnosed per second, the median over slices of {RATE_SLICE} lots; devices_per_s is the whole run's",
        lots.tail_label()
    ));
    if !rss_reset {
        out.line("note peak_rss_mb covers the whole process: the peak mark could not be reset");
    }
    out.detail("tail_ms", lots.tail * 1e3, "ms", "lower");
    out.detail("devices_per_s", devices_per_s, "devices/s", "higher");
    out.detail(
        "top_hit_ratio",
        hits as f64 / diagnosed.max(1) as f64,
        "ratio",
        "higher, exact",
    );

    if tracer.on() {
        layers(&mut out, inputs, &source, tracer, report_bytes);
        out.layer("store.shard_open_s", measure::median(&setups));
    }
    out
}

/// Per-layer numbers: one lot replayed through the calls `run` is made
/// of — ingest, sharded diagnosis (encode, per-shard score, merge) and
/// clustering — plus the shard decode.
fn layers(
    out: &mut Outcome,
    inputs: &Inputs,
    source: &PreloadedShards,
    tracer: &mut Tracer,
    report_bytes: usize,
) {
    let shards: Vec<(usize, std::sync::Arc<StoredDictionary>)> = (0..source.shard_count())
        .filter_map(|i| Some((source.fault_start(i), source.fetch(i).ok()?)))
        .collect();
    let refs: Vec<(usize, &StoredDictionary)> = shards
        .iter()
        .map(|(start, d)| (*start, d.as_ref()))
        .collect();
    let shape = source.shape();
    let lot = &inputs.lots[0];
    let text = std::fs::read_to_string(&lot.path).unwrap_or_default();
    let (mut ingest, mut parse, mut diagnose, mut encode, mut score, mut merge) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut tops = Vec::new();
    let mut skipped = 0;
    let mut scratch = Vec::new();
    for (k, line) in text.lines().enumerate() {
        let request = k as u64;
        let (parsed, s) = tracer.time("volume.ingest", request, || {
            corpus::parse_line(line, &shape)
        });
        ingest.push(s);
        let responses = match parsed {
            Parsed::Record {
                observation: Observation::Responses(responses),
                ..
            } => responses,
            Parsed::Skip { .. } => {
                skipped += 1;
                continue;
            }
            _ => continue,
        };
        // The observation tokens alone, parsed as the logic layer does.
        let obs = if line.starts_with('{') {
            json_str(line, "obs")
        } else {
            line.split_once(' ').map(|(_, obs)| obs.trim())
        };
        let (_, s) = tracer.time("logic.parse", request, || {
            obs.unwrap_or_default()
                .split('/')
                .map(str::parse::<MaskedBitVec>)
                .collect::<Result<Vec<_>, _>>()
        });
        parse.push(s);
        let (report, s) = tracer.time("volume.diagnose", request, || {
            diagnose_sharded(&refs, ShardObservation::Responses(&responses))
        });
        diagnose.push(s);
        if let Ok(report) = report {
            if let Some(top) = report.ranking.first() {
                tops.push((top.fault, top.confidence));
            }
        }
        // The same diagnosis, split into the core calls it is made of.
        let StoredDictionary::SameDifferent(first) = refs[0].1 else {
            continue;
        };
        let (encoded, s) = tracer.time("core.encode", request, || {
            first.encode_observed_masked(&responses)
        });
        encode.push(s);
        let Ok(encoded) = encoded else { continue };
        let mut rankings = Vec::with_capacity(refs.len());
        for &(start, shard) in &refs {
            let StoredDictionary::SameDifferent(d) = shard else {
                continue;
            };
            let (_, s) = tracer.time("core.score", request, || {
                match_signatures_masked_into(d.signatures(), &encoded, &mut scratch)
            });
            score.push(s);
            rankings.push((start, std::mem::take(&mut scratch)));
        }
        let slices: Vec<(usize, &[_])> = rankings.iter().map(|(s, r)| (*s, r.as_slice())).collect();
        let (_, s) = tracer.time("core.merge", request, || {
            merge_shard_rankings(&slices, encoded.is_fully_known())
        });
        merge.push(s);
    }
    let (_, cluster_s) = tracer.time("volume.cluster", 0, || {
        let mut aggregator = Aggregator::new();
        for &(fault, confidence) in &tops {
            aggregator.add(fault, confidence, source.fault_cone(fault));
        }
        aggregator.finish(VolumeOptions::default().threshold, tops.len())
    });
    let decode: Vec<f64> = std::fs::read_dir(inputs.manifest.parent().unwrap_or(Path::new(".")))
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|e| e == "sddb"))
        .filter_map(|p| std::fs::read(p).ok())
        .enumerate()
        .map(|(k, bytes)| {
            tracer
                .time("store.decode", k as u64, || store::decode(&bytes))
                .1
        })
        .collect();
    let us = |samples: &[f64]| measure::median(samples) * 1e6;
    out.layer("volume.ingest_us", us(&ingest));
    out.layer("volume.diagnose_us", us(&diagnose));
    out.layer("core.encode_us", us(&encode));
    out.layer("core.score_us", us(&score));
    out.layer("core.merge_us", us(&merge));
    out.layer("logic.parse_us", us(&parse));
    out.layer("volume.cluster_s", cluster_s);
    out.layer("volume.report_bytes", report_bytes as f64);
    out.layer("volume.skipped", skipped as f64);
    if !decode.is_empty() {
        out.layer("store.decode_us", us(&decode));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_lines_are_skipped_not_ignored() {
        let shape = corpus::Shape {
            kind: same_different::store::DictionaryKind::SameDifferent,
            tests: 3,
            outputs: 4,
        };
        let good = "dev-000001 0101/1100/0011";
        assert!(matches!(
            corpus::parse_line(good, &shape),
            Parsed::Record { .. }
        ));
        let mut rng = Prng::seed_from_u64(3);
        for k in 0..64 {
            let bad = malformed(&mut rng, 0, k, good);
            assert!(
                matches!(corpus::parse_line(&bad, &shape), Parsed::Skip { .. }),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn json_fields_parse() {
        let record =
            r#"{"line":3,"device":"dev-000002","status":"ok","best":[4,17],"top":["4:0:1.0"]}"#;
        assert_eq!(json_str(record, "device"), Some("dev-000002"));
        assert_eq!(json_str(record, "status"), Some("ok"));
        assert_eq!(json_list(record, "best"), vec![4, 17]);
        assert!(json_list(record, "missing").is_empty());
    }
}
