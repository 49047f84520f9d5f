//! Degraded-mode serving: a cone-sharded dictionary with a quarantined
//! shard must answer `PARTIAL` verdicts whose ranking is **bit-identical**
//! to diagnosing against the explicit sub-dictionary of the shards that
//! remain — a missing shard is just another form of masked evidence — and
//! whose `covered=` field reports exact fault coverage. The request
//! deadline bounds every shard load, the first one included, and a
//! malformed observation is refused before any shard loads.

use same_different::serve::{serve, Client, ServeConfig};
use same_different::store::{self, ShardManifest, ShardedReader, StoredDictionary};
use same_different::volume::shard::{self, ShardObservation};
use same_different::Experiment;
use sdd_core::diagnose::{MatchQuality, ScoredCandidate};
use sdd_core::Procedure1Options;
use sdd_logic::{BitVec, MaskedBitVec};
use std::path::PathBuf;
use std::time::Duration;

/// Mirrors the server's reply-field formatting (`quality= known= distance=
/// best= top=`), so the test can reconstruct the exact line the server must
/// produce from an in-process diagnosis of the resident shard subset.
fn reply_fields(quality: MatchQuality, known: usize, ranking: &[ScoredCandidate]) -> String {
    let quality = match quality {
        MatchQuality::Exact => "exact",
        MatchQuality::ConsistentUnderMask => "consistent",
        MatchQuality::Ranked => "ranked",
    };
    let distance = ranking.first().map_or(0, |c| c.mismatches);
    let best: Vec<String> = ranking
        .iter()
        .take_while(|c| c.mismatches == distance)
        .map(|c| c.fault.to_string())
        .collect();
    let top: Vec<String> = ranking
        .iter()
        .take(5)
        .map(|c| format!("{}:{}:{:.4}", c.fault, c.mismatches, c.confidence))
        .collect();
    format!(
        "quality={quality} known={known} distance={distance} best={} top={}",
        best.join(","),
        top.join(","),
    )
}

/// An s298-shaped same/different dictionary cut into 3 cone shards under
/// `dir`, with the observations of three injected faults, one per shard
/// region.
struct Fixture {
    dir: PathBuf,
    dictionary: StoredDictionary,
    manifest_path: PathBuf,
    manifest: ShardManifest,
    observations: Vec<Vec<BitVec>>,
}

fn s298_shards(tag: &str) -> Fixture {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sdd-degraded-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

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
    let manifest =
        store::write_sharded(&manifest_path, &dictionary, &ranges, Some(&shard_cones)).unwrap();
    assert_eq!(manifest.shards.len(), 3);

    // Observations from three injected faults, one per shard region.
    let observations: Vec<Vec<BitVec>> = [0usize, 1, 2]
        .iter()
        .map(|&shard| {
            let position = manifest.shards[shard].fault_start;
            let fault = exp.universe().fault(exp.faults()[position]);
            tests
                .tests
                .iter()
                .map(|t| {
                    same_different::sim::reference::faulty_response(
                        exp.circuit(),
                        exp.view(),
                        fault,
                        t,
                    )
                })
                .collect()
        })
        .collect();
    Fixture {
        dir,
        dictionary,
        manifest_path,
        manifest,
        observations,
    }
}

/// Starts a server and loads the fixture's (cold) manifest as `s298`.
fn serve_cold(
    fixture: &Fixture,
    config: ServeConfig,
) -> (same_different::serve::ServerHandle, Client) {
    let handle = serve(&config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client
        .request(&format!("LOAD s298 {}", fixture.manifest_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED"), "{reply}");
    (handle, client)
}

/// The `shards=<resident>/<total>` field of a `STATS` reply.
fn shard_residency(client: &mut Client) -> String {
    let stats = client.request("STATS").unwrap();
    stats
        .split_whitespace()
        .find(|t| t.starts_with("shards="))
        .unwrap_or_else(|| panic!("no shards= in {stats}"))
        .to_owned()
}

fn wire(responses: &[BitVec]) -> String {
    let obs: Vec<String> = responses.iter().map(ToString::to_string).collect();
    obs.join("/")
}

#[test]
fn quarantined_shard_yields_bit_identical_partial_verdicts() {
    let Fixture {
        dir,
        dictionary,
        manifest_path,
        manifest,
        observations,
    } = s298_shards("quarantine");
    let total_faults = dictionary.fault_count();

    // Corrupt the middle shard, verify, quarantine: the serving directory
    // now holds a clean two-shard degraded set.
    let victim = 1usize;
    let victim_path = dir.join(&manifest.shards[victim].file);
    let mut bytes = std::fs::read(&victim_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 1;
    std::fs::write(&victim_path, &bytes).unwrap();
    let report = store::verify_file(&manifest_path).unwrap();
    assert!(!report.healthy());
    assert_eq!(report.bad_shards().count(), 1);
    assert_eq!(
        report.covered_faults(),
        total_faults - manifest.shards[victim].fault_count
    );
    let moved = store::quarantine_bad_shards(&report).unwrap();
    assert_eq!(moved.len(), 1);
    assert!(!victim_path.exists(), "corrupt shard moved aside");

    // The explicit sub-dictionary of resident shards, diagnosed in-process:
    // the ground truth every degraded server reply must match bit-for-bit.
    let reader = ShardedReader::open(&manifest_path).unwrap();
    let resident: Vec<(usize, StoredDictionary)> = (0..reader.shard_count())
        .filter(|&i| i != victim)
        .map(|i| {
            (
                manifest.shards[i].fault_start,
                reader.load_shard(i).unwrap(),
            )
        })
        .collect();
    let resident_refs: Vec<(usize, &StoredDictionary)> =
        resident.iter().map(|(s, d)| (*s, d)).collect();

    let handle = serve(&ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client
        .request(&format!("LOAD s298 {}", manifest_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED"), "{reply}");

    let covered = total_faults - manifest.shards[victim].fault_count;
    for (index, responses) in observations.iter().enumerate() {
        let obs: Vec<String> = responses.iter().map(ToString::to_string).collect();
        let reply = client
            .request(&format!("DIAG s298 {}", obs.join("/")))
            .unwrap();

        let masked: Vec<MaskedBitVec> = obs.iter().map(|t| t.parse().unwrap()).collect();
        let expected_report =
            shard::diagnose_sharded(&resident_refs, ShardObservation::Responses(&masked)).unwrap();
        let expected = format!(
            "PARTIAL DIAG {} covered={covered}/{total_faults} degraded={victim}:io",
            reply_fields(
                expected_report.quality,
                expected_report.known,
                &expected_report.ranking
            ),
        );
        assert_eq!(reply, expected, "observation {index}");
    }

    // BATCH result lines carry the same degraded verdicts.
    let obs: Vec<String> = observations[0].iter().map(ToString::to_string).collect();
    let joined = obs.join("/");
    let results = client.batch("s298", &[&joined, &joined]).unwrap();
    assert_eq!(results.len(), 2);
    for line in &results {
        let (_, verdict) = line.split_once(' ').unwrap();
        assert!(verdict.starts_with("PARTIAL DIAG"), "{line}");
        assert!(
            verdict.contains(&format!("covered={covered}/{total_faults}")),
            "{line}"
        );
    }

    // STATS counts the degraded diagnoses.
    let stats = client.request("STATS").unwrap();
    let partial: u64 = stats
        .split_whitespace()
        .find_map(|t| t.strip_prefix("partial="))
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert_eq!(partial, 5, "{stats}");

    client.request("SHUTDOWN").unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_request_deadline_bounds_the_first_shard_load() {
    let fixture = s298_shards("deadline");
    let (handle, mut client) = serve_cold(
        &fixture,
        ServeConfig {
            workers: 1,
            request_deadline: Some(Duration::ZERO),
            ..ServeConfig::default()
        },
    );
    // Nothing is resident and no time is left: not even the shard that
    // would find the failing outputs may load.
    let reply = client
        .request(&format!("DIAG s298 {}", wire(&fixture.observations[0])))
        .unwrap();
    assert_eq!(
        reply,
        "ERR invalid input: request deadline exceeded before any of 3 shards loaded"
    );
    assert_eq!(shard_residency(&mut client), "shards=0/3");
    client.request("SHUTDOWN").unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&fixture.dir);
}

#[test]
fn a_malformed_observation_loads_no_shard() {
    let fixture = s298_shards("malformed");
    let (handle, mut client) = serve_cold(&fixture, ServeConfig::default());
    let responses = &fixture.observations[0];
    let short = wire(&responses[..responses.len() - 1]);
    let reply = client.request(&format!("DIAG s298 {short}")).unwrap();
    assert_eq!(
        reply,
        format!(
            "ERR responses per test: got {}, expected {}",
            responses.len() - 1,
            responses.len()
        )
    );
    assert_eq!(shard_residency(&mut client), "shards=0/3");
    client.request("SHUTDOWN").unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&fixture.dir);
}
