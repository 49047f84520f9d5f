//! The sharding contract: diagnosing against a sharded dictionary —
//! single-shard or cross-shard, with or without masked bits — returns
//! candidate rankings bit-identical to the unsharded dictionary, both
//! in-process and over the serve protocol, and `STATS` reports per-shard
//! residency.

use same_different::dict::{PassFailDictionary, Procedure1Options};
use same_different::logic::{BitVec, MaskedBitVec};
use same_different::serve::{serve, Client, ServeConfig};
use same_different::sim::{contiguous_ranges, reference, OutputCones};
use same_different::store::{save, slice_dictionary, write_sharded, StoredDictionary};
use same_different::volume::shard::{diagnose_sharded, ShardObservation};
use same_different::{DictionarySuite, Experiment};

fn build(exp: &Experiment) -> (Vec<BitVec>, DictionarySuite) {
    let tests = exp.diagnostic_tests(&Default::default()).tests;
    let suite = exp.build_dictionaries(
        &tests,
        &Procedure1Options {
            calls1: 2,
            ..Default::default()
        },
    );
    (tests, suite)
}

/// The masked observation of `fault`: its simulated responses with the
/// first output bit of every third test lost.
fn masked_responses(
    exp: &Experiment,
    tests: &[BitVec],
    fault_position: usize,
    masked: bool,
) -> Vec<MaskedBitVec> {
    let fault = exp.universe().fault(exp.faults()[fault_position]);
    tests
        .iter()
        .enumerate()
        .map(|(t, test)| {
            let response = reference::faulty_response(exp.circuit(), exp.view(), fault, test);
            let mut observed = MaskedBitVec::from_known(response);
            if masked && t % 3 == 0 {
                observed.mask(0);
            }
            observed
        })
        .collect()
}

/// Asserts that every sharding of `whole` into `ranges` diagnoses
/// identically to the unsharded dictionary for `observation`.
fn assert_identical(
    whole: &StoredDictionary,
    ranges: &[std::ops::Range<usize>],
    observation: ShardObservation<'_>,
) {
    let unsharded = diagnose_sharded(&[(0, whole)], observation).unwrap();
    let shards: Vec<StoredDictionary> = ranges
        .iter()
        .map(|r| slice_dictionary(whole, r.clone()).unwrap())
        .collect();
    let refs: Vec<(usize, &StoredDictionary)> = ranges
        .iter()
        .zip(&shards)
        .map(|(r, d)| (r.start, d))
        .collect();
    let merged = diagnose_sharded(&refs, observation).unwrap();
    assert_eq!(
        merged,
        unsharded,
        "{} shard(s) over {ranges:?}",
        ranges.len()
    );
}

#[test]
fn paper_example_shards_diagnose_identically() {
    // Contiguous chunks (no netlist, so no cones): every cut count from a
    // single shard to one fault per shard, pass/fail and full kinds.
    let matrix = same_different::dict::example::paper_example();
    let pf = StoredDictionary::PassFail(PassFailDictionary::build(&matrix));
    let full = StoredDictionary::Full(same_different::dict::FullDictionary::new(matrix.clone()));
    let signatures = ["01", "10", "11", "1X", "X1", "XX", "0X"];
    for shards in 1..=4 {
        let ranges = contiguous_ranges(4, shards);
        for sig in signatures {
            let observed: MaskedBitVec = sig.parse().unwrap();
            assert_identical(&pf, &ranges, ShardObservation::Signature(&observed));
        }
        // Full-kind responses: each fault's own row, clean and masked.
        for fault in 0..4 {
            for masked in [false, true] {
                let responses: Vec<MaskedBitVec> = (0..matrix.test_count())
                    .map(|t| {
                        let row = matrix.response(t, matrix.class(t, fault));
                        let mut observed = MaskedBitVec::from_known(row);
                        if masked && t == 0 {
                            observed.mask(0);
                        }
                        observed
                    })
                    .collect();
                assert_identical(&full, &ranges, ShardObservation::Responses(&responses));
            }
        }
    }
}

#[test]
fn cone_partitioned_shards_diagnose_identically() {
    // A generated circuit, partitioned along output-cone boundaries the way
    // `sdd build --shards` does.
    let exp = Experiment::iscas89("s298", 0).unwrap();
    let (tests, suite) = build(&exp);
    let whole = StoredDictionary::SameDifferent(suite.same_different.clone());
    let cones = OutputCones::compute(exp.circuit(), exp.view());
    for shards in [1, 3] {
        let ranges = cones.shard_ranges(exp.universe(), exp.faults(), shards);
        assert_eq!(ranges.len(), shards);
        for fault in 0..exp.faults().len() {
            for masked in [false, true] {
                let responses = masked_responses(&exp, &tests, fault, masked);
                assert_identical(&whole, &ranges, ShardObservation::Responses(&responses));
            }
        }
    }
}

#[test]
fn served_sharded_diagnosis_matches_the_whole_dictionary() {
    let dir = std::env::temp_dir().join(format!("sdd-shard-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let exp = Experiment::new(same_different::netlist::library::c17());
    let (tests, suite) = build(&exp);
    let whole = StoredDictionary::SameDifferent(suite.same_different.clone());

    let whole_path = dir.join("c17.sddb");
    save(&whole_path, &whole).unwrap();
    let manifest_path = dir.join("c17.sddm");
    let cones = OutputCones::compute(exp.circuit(), exp.view());
    let ranges = cones.shard_ranges(exp.universe(), exp.faults(), 2);
    let shard_cones: Vec<BitVec> = ranges
        .iter()
        .map(|r| cones.shard_cone(exp.universe(), exp.faults(), r.clone()))
        .collect();
    write_sharded(&manifest_path, &whole, &ranges, Some(&shard_cones)).unwrap();

    let handle = serve(&ServeConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client
        .request(&format!("LOAD whole {}", whole_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED whole "), "{reply}");
    let reply = client
        .request(&format!("LOAD sharded {}", manifest_path.display()))
        .unwrap();
    assert!(
        reply.starts_with("OK LOADED sharded kind=same-different"),
        "{reply}"
    );
    assert!(reply.ends_with(" shards=2"), "{reply}");

    // Before any DIAG, the manifest is registered but every shard is cold.
    let stats = client.request("STATS").unwrap();
    assert!(stats.contains(" shards=0/2"), "{stats}");
    assert!(stats.contains(" shard=sharded.0:cold:0"), "{stats}");
    assert!(stats.contains(" shard=sharded.1:cold:0"), "{stats}");

    // Byte-identical DIAG replies, clean and masked, for every fault.
    for fault in 0..exp.faults().len() {
        for masked in [false, true] {
            let obs = masked_responses(&exp, &tests, fault, masked)
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("/");
            let from_whole = client.request(&format!("DIAG whole {obs}")).unwrap();
            let from_shards = client.request(&format!("DIAG sharded {obs}")).unwrap();
            assert!(from_whole.starts_with("OK DIAG "), "{from_whole}");
            assert_eq!(from_shards, from_whole, "fault {fault} masked={masked}");
        }
    }

    // Every shard was scored, so both are now resident.
    let stats = client.request("STATS").unwrap();
    assert!(stats.contains(" shards=2/2"), "{stats}");
    assert!(stats.contains(" shard=sharded.0:resident:"), "{stats}");
    assert!(stats.contains(" shard=sharded.1:resident:"), "{stats}");

    handle.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
