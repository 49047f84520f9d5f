//! Volume-diagnosis smoke over a sharded s298 fixture: the in-process
//! engine, the `sdd volume` CLI, and the served `VOLUME` verb must produce
//! byte-identical reports for the same seeded corpus; `--jobs` must not
//! change a byte; and the injected systematic faults must come out as the
//! top-ranked clusters, above every random-noise cluster. The same
//! dictionary saved whole, as `.sddb` and as v1 text, must report through
//! the CLI and the served verb exactly what the engine reports over it in
//! memory.

use std::path::PathBuf;
use std::process::Command;

use same_different::dict::Procedure1Options;
use same_different::serve::{serve, Client, ServeConfig};
use same_different::store::{self, StoredDictionary};
use same_different::volume::{
    self, JsonlSink, PreloadedShards, SynthSpec, VolumeOptions, VolumeSummary, WholeSource,
};
use same_different::Experiment;
use sdd_logic::BitVec;

/// Diagnoses `fault`'s own clean responses; `(fault, 1)` means the fault is
/// uniquely diagnosable — the right ground truth to inject, because every
/// clean recurrence clusters under its own index.
fn representative(
    stored: &StoredDictionary,
    matrix: &same_different::sim::ResponseMatrix,
    fault: usize,
) -> (usize, usize) {
    use same_different::volume::shard::{diagnose_sharded, ShardObservation};
    let responses: Vec<sdd_logic::MaskedBitVec> = (0..matrix.test_count())
        .map(|t| sdd_logic::MaskedBitVec::from_known(matrix.response(t, matrix.class(t, fault))))
        .collect();
    let report = diagnose_sharded(&[(0, stored)], ShardObservation::Responses(&responses)).unwrap();
    (report.best.first().copied().unwrap_or(0), report.best.len())
}

/// Strips the serve `VOLUME` wire framing back to plain JSONL.
fn strip_frames(lines: &[String]) -> String {
    lines
        .iter()
        .map(|line| {
            let line = line
                .strip_prefix("OK SUMMARY ")
                .or_else(|| line.strip_prefix("OK "))
                .or_else(|| line.strip_prefix("PARTIAL "))
                .or_else(|| line.strip_prefix("ERR "))
                .unwrap_or(line);
            format!("{line}\n")
        })
        .collect()
}

#[test]
fn cli_serve_and_engine_agree_and_rank_systematic_faults_first() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sdd-volume-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Sharded s298 fixture: 3 cone shards behind one manifest.
    let exp = Experiment::iscas89("s298", 1).unwrap();
    let tests = exp.diagnostic_tests(&Default::default());
    let suite = exp.build_dictionaries(
        &tests.tests,
        &Procedure1Options {
            calls1: 2,
            ..Default::default()
        },
    );
    let dictionary = StoredDictionary::SameDifferent(suite.same_different);
    let cones = same_different::sim::OutputCones::compute(exp.circuit(), exp.view());
    let ranges = cones.shard_ranges(exp.universe(), exp.faults(), 3);
    let shard_cones: Vec<BitVec> = ranges
        .iter()
        .map(|r| cones.shard_cone(exp.universe(), exp.faults(), r.clone()))
        .collect();
    let manifest_path = dir.join("s298.sddm");
    store::write_sharded(&manifest_path, &dictionary, &ranges, Some(&shard_cones)).unwrap();

    // An 80-device corpus: two uniquely-diagnosable systematic faults at
    // 25% each, the rest uniform random noise, clean observations.
    let matrix = exp.simulate(&tests.tests);
    let faults = matrix.fault_count();
    let pick = |from: usize, taken: Option<usize>| -> usize {
        (from..faults)
            .chain(0..from)
            .find(|&f| Some(f) != taken && representative(&dictionary, &matrix, f) == (f, 1))
            .expect("s298 has uniquely diagnosable faults")
    };
    let first = pick(faults / 3, None);
    let injected = [first, pick((2 * faults) / 3, Some(first))];
    let spec = SynthSpec {
        devices: 80,
        systematic: injected.iter().map(|&f| (f, 0.25)).collect(),
        mask_rate: 0.0,
        flip_rate: 0.0,
        jsonl_every: 4,
        seed: 11,
    };
    let mut corpus = Vec::new();
    volume::synthesize(&matrix, &spec, &mut corpus).unwrap();
    let corpus_path = dir.join("corpus.txt");
    std::fs::write(&corpus_path, &corpus).unwrap();
    let corpus = String::from_utf8(corpus).unwrap();

    // Surface 1: the in-process engine over the preloaded manifest.
    let source = PreloadedShards::open(&manifest_path).unwrap();
    let options = VolumeOptions {
        seed: 11,
        ..VolumeOptions::default()
    };
    let mut lines = corpus.lines().map(|l| Ok(l.to_owned()));
    let mut engine_report = Vec::new();
    let summary = volume::run(
        &source,
        &mut lines,
        &mut JsonlSink(&mut engine_report),
        &options,
    )
    .unwrap();
    assert_eq!(summary.ok, 80);

    // Surface 2: the real CLI binary, at jobs=1 and jobs=4.
    let cli_report = |dict: &PathBuf, jobs: &str, out: &str| -> Vec<u8> {
        let out_path = dir.join(out);
        let status = Command::new(env!("CARGO_BIN_EXE_sdd"))
            .arg("volume")
            .arg(dict)
            .arg("--corpus")
            .arg(&corpus_path)
            .args(["--jobs", jobs, "--seed", "11"])
            .arg("--report")
            .arg(&out_path)
            .status()
            .expect("run sdd volume");
        assert!(status.success(), "sdd volume --jobs {jobs} failed");
        std::fs::read(&out_path).unwrap()
    };
    let jobs1 = cli_report(&manifest_path, "1", "report-jobs1.jsonl");
    let jobs4 = cli_report(&manifest_path, "4", "report-jobs4.jsonl");
    assert_eq!(jobs1, jobs4, "--jobs must not change a report byte");
    assert_eq!(jobs1, engine_report, "CLI and engine reports must agree");

    // Surface 3: the served VOLUME verb, frames stripped.
    let handle = serve(&ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client
        .request(&format!("LOAD vol {}", manifest_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED"), "{reply}");
    let corpus_lines: Vec<&str> = corpus.lines().collect();
    let served = client.volume("vol", &corpus_lines, "seed=11").unwrap();
    assert_eq!(
        strip_frames(&served).into_bytes(),
        engine_report,
        "served VOLUME must equal the CLI report after frame stripping"
    );

    // The whole dictionary, as `.sddb` and as v1 text: each opens as a set
    // of one shard with no recorded cone, so the CLI report and the served
    // VOLUME reply both equal the engine's run over the in-memory
    // dictionary (which has no cone clusters either).
    let whole_path = dir.join("s298.sddb");
    store::save(&whole_path, &dictionary).unwrap();
    let text_path = dir.join("s298.txt");
    let StoredDictionary::SameDifferent(sd) = &dictionary else {
        unreachable!("built as same/different")
    };
    std::fs::write(
        &text_path,
        same_different::dict::io::write_same_different(sd),
    )
    .unwrap();
    let mut lines = corpus.lines().map(|l| Ok(l.to_owned()));
    let mut whole_report = Vec::new();
    volume::run(
        &WholeSource::new(dictionary.clone()),
        &mut lines,
        &mut JsonlSink(&mut whole_report),
        &options,
    )
    .unwrap();
    for (name, path) in [("sddb", &whole_path), ("text", &text_path)] {
        let report = cli_report(path, "1", &format!("report-{name}.jsonl"));
        assert_eq!(report, whole_report, "sdd volume over the {name} file");
        let reply = client
            .request(&format!("LOAD {name} {}", path.display()))
            .unwrap();
        assert!(reply.starts_with("OK LOADED"), "{reply}");
        let served = client.volume(name, &corpus_lines, "seed=11").unwrap();
        assert_eq!(
            strip_frames(&served).into_bytes(),
            whole_report,
            "served VOLUME over the {name} file"
        );
    }
    assert_eq!(client.request("SHUTDOWN").unwrap(), "OK BYE");
    handle.wait();

    assert_injected_rank_first(&summary, &injected);
    std::fs::remove_dir_all(&dir).ok();
}

/// The diagnostic claim: both injected faults classify systematic, they are
/// the two top-ranked clusters, and every other cluster sits below them.
fn assert_injected_rank_first(summary: &VolumeSummary, injected: &[usize; 2]) {
    let clusters = &summary.clusters.faults;
    assert!(clusters.len() >= 2, "expected injected + noise clusters");
    let mut top: Vec<usize> = clusters[..2].iter().map(|c| c.fault).collect();
    top.sort_unstable();
    let mut expected = injected.to_vec();
    expected.sort_unstable();
    assert_eq!(
        top, expected,
        "top two clusters must be the injected faults"
    );
    assert!(clusters[0].systematic && clusters[1].systematic);
    for noise in &clusters[2..] {
        assert!(
            noise.count <= clusters[1].count,
            "noise cluster {noise:?} outranks an injected fault"
        );
    }
}
