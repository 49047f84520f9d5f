//! The ECO patching contract: `patch_dictionary` applied to a built
//! artifact yields files **bit-identical** (modulo the patch-generation
//! provenance counter) to a from-scratch rebuild of the modified netlist
//! with the same baselines — for whole `.sddb` files, sharded `.sddm`
//! sets, and memory-mapped reads — and a patch interrupted between the
//! shard commits and the manifest commit is invisible to readers.

use same_different::dict::{
    replace_baselines, select_baselines, Procedure1Options, SameDifferentDictionary,
};
use same_different::logic::BitVec;
use same_different::netlist::{library, Circuit, Driver};
use same_different::patch::{patch_dictionary, PatchOptions, PatchReport};
use same_different::serve::{serve, Client, ServeConfig};
use same_different::sim::{reference, OutputCones};
use same_different::store::{self, MmapMode, ShardedReader, StoredDictionary};
use same_different::Experiment;
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdd-eco-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Rewires `gate`'s pin `pin` to `source`, keeping the gate kind.
fn rewire(
    circuit: &Circuit,
    gate: same_different::netlist::NetId,
    pin: usize,
    source: same_different::netlist::NetId,
) -> Circuit {
    let Driver::Gate { kind, inputs } = circuit.driver(gate) else {
        panic!("not a gate");
    };
    let mut inputs = inputs.clone();
    inputs[pin] = source;
    circuit
        .with_driver(
            gate,
            Driver::Gate {
                kind: *kind,
                inputs,
            },
        )
        .unwrap()
}

/// A patch-compatible ECO on c17: swap which of N11/N16 feeds N19 and
/// N23. Both nets keep fan-out 2, so the branch-fault universe and the
/// structural collapsing are unchanged while the function moves.
fn rewired_c17(old: &Circuit) -> Circuit {
    let step = rewire(old, old.net("N19").unwrap(), 0, old.net("N16").unwrap());
    rewire(&step, old.net("N23").unwrap(), 0, old.net("N11").unwrap())
}

/// Finds a patch-compatible rewire ECO on an arbitrary circuit: a gate
/// pin fed by a fan-out-≥3 net, rewired to a different fan-out-≥2
/// input/flip-flop net. Both nets keep fan-out > 1 on every sink, so the
/// branch-fault universe — and with unchanged gate kinds, the structural
/// collapsing — is preserved while the function changes.
fn find_rewire(circuit: &Circuit) -> Circuit {
    let fanout = circuit.fanout_counts();
    let sources: Vec<_> = circuit
        .nets()
        .filter(|&net| {
            fanout[net.index()] >= 2
                && matches!(circuit.driver(net), Driver::Input | Driver::Dff { .. })
        })
        .collect();
    for gate in circuit.nets() {
        let Driver::Gate { inputs, .. } = circuit.driver(gate) else {
            continue;
        };
        for (pin, &old_source) in inputs.iter().enumerate() {
            if fanout[old_source.index()] < 3 {
                continue;
            }
            if let Some(&new_source) = sources
                .iter()
                .find(|&&s| s != old_source && !inputs.contains(&s))
            {
                return rewire(circuit, gate, pin, new_source);
            }
        }
    }
    panic!("no patch-compatible rewire found");
}

/// The build flow's baseline policy, as `sdd dictionary` runs it.
fn build_sd(exp: &Experiment, tests: &[BitVec]) -> SameDifferentDictionary {
    let matrix = exp.simulate(tests);
    let mut selection = select_baselines(
        &matrix,
        &Procedure1Options {
            calls1: 2,
            ..Default::default()
        },
    );
    replace_baselines(&matrix, &mut selection.baselines);
    SameDifferentDictionary::build(&matrix, &selection.baselines)
}

/// Reads the same/different dictionary back out of a whole artifact.
fn load_sd(path: &Path, mode: MmapMode) -> SameDifferentDictionary {
    let bytes = store::read_dictionary_bytes(path, mode).unwrap();
    store::read_same_different_auto(&bytes).unwrap()
}

/// Reassembles a sharded artifact into one dictionary, global fault order.
fn load_sharded_sd(manifest: &Path, mode: MmapMode) -> SameDifferentDictionary {
    let reader = ShardedReader::open_with(manifest, mode).unwrap();
    let mut signatures = Vec::new();
    let mut baselines = Vec::new();
    let mut classes = Vec::new();
    for index in 0..reader.shard_count() {
        let StoredDictionary::SameDifferent(shard) = reader.load_shard(index).unwrap() else {
            panic!("wrong shard kind");
        };
        if index == 0 {
            baselines = (0..shard.test_count())
                .map(|t| shard.baseline(t).clone())
                .collect();
            classes = shard.baseline_classes().to_vec();
        }
        for fault in 0..shard.fault_count() {
            signatures.push(shard.signature(fault).clone());
        }
    }
    let outputs = reader.manifest().outputs;
    SameDifferentDictionary::from_parts(signatures, baselines, classes, outputs).unwrap()
}

/// The rebuild the patch claims to match: the new circuit's full matrix
/// under the *patched* artifact's baselines. (Untouched tests keep their
/// original class labels — valid because their columns are invariant —
/// and touched tests carry the labels the budgeted refresh picked.)
fn rebuild_target(
    new: &Circuit,
    tests: &[BitVec],
    patched: &SameDifferentDictionary,
) -> SameDifferentDictionary {
    let matrix = Experiment::new(new.clone()).simulate(tests);
    SameDifferentDictionary::build(&matrix, patched.baseline_classes())
}

fn assert_identical_bytes(patched_path: &Path, target: &SameDifferentDictionary) {
    let patched_bytes = std::fs::read(patched_path).unwrap();
    let rebuilt_bytes = store::encode(&StoredDictionary::SameDifferent(target.clone())).unwrap();
    assert_eq!(
        store::strip_patch_provenance(&patched_bytes).unwrap(),
        store::strip_patch_provenance(&rebuilt_bytes).unwrap(),
        "patched artifact bytes differ from a from-scratch rebuild"
    );
}

fn patch(old: &Circuit, new: &Circuit, tests: &[BitVec], artifact: &Path) -> PatchReport {
    patch_dictionary(old, new, tests, artifact, &PatchOptions::default()).unwrap()
}

#[test]
fn whole_artifact_patch_is_bit_identical_to_a_rebuild() {
    let dir = scratch_dir("whole");
    let old = library::c17();
    let new = rewired_c17(&old);
    let exp = Experiment::new(old.clone());
    let tests = exp.diagnostic_tests(&Default::default()).tests;
    let path = dir.join("c17.sddb");
    store::save(
        &path,
        &StoredDictionary::SameDifferent(build_sd(&exp, &tests)),
    )
    .unwrap();

    let report = patch(&old, &new, &tests, &path);
    assert!(report.touched_tests > 0, "ECO must move the function");
    assert!(report.stats.changed());
    assert_eq!(report.stats.generation, 1);

    let patched = load_sd(&path, MmapMode::Off);
    let target = rebuild_target(&new, &tests, &patched);
    assert_eq!(patched, target);
    assert_eq!(
        report.indistinguished_pairs,
        Some(target.indistinguished_pairs())
    );
    assert_identical_bytes(&path, &target);
    // The mmap read path sees the same dictionary.
    assert_eq!(load_sd(&path, MmapMode::On), target);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_patch_matches_the_whole_patch_on_s298() {
    let dir = scratch_dir("sharded");
    let exp = Experiment::iscas89("s298", 0).unwrap();
    let old = exp.circuit().clone();
    let new = find_rewire(&old);
    let tests = exp.diagnostic_tests(&Default::default()).tests;
    let dictionary = build_sd(&exp, &tests);
    let whole = StoredDictionary::SameDifferent(dictionary);

    let whole_path = dir.join("s298.sddb");
    store::save(&whole_path, &whole).unwrap();
    let manifest_path = dir.join("s298.sddm");
    let cones = OutputCones::compute(&old, exp.view());
    let ranges = cones.shard_ranges(exp.universe(), exp.faults(), 3);
    let shard_cones: Vec<BitVec> = ranges
        .iter()
        .map(|r| cones.shard_cone(exp.universe(), exp.faults(), r.clone()))
        .collect();
    store::write_sharded(&manifest_path, &whole, &ranges, Some(&shard_cones)).unwrap();

    let whole_report = patch(&old, &new, &tests, &whole_path);
    let sharded_report = patch(&old, &new, &tests, &manifest_path);
    assert!(whole_report.touched_tests > 0);
    assert_eq!(sharded_report.touched_tests, whole_report.touched_tests);
    assert_eq!(
        sharded_report.indistinguished_pairs,
        whole_report.indistinguished_pairs
    );

    // Identical dictionaries through every read path, and both equal the
    // from-scratch rebuild.
    let patched = load_sd(&whole_path, MmapMode::Off);
    let target = rebuild_target(&new, &tests, &patched);
    assert_eq!(patched, target);
    assert_identical_bytes(&whole_path, &target);
    for mode in [MmapMode::Off, MmapMode::On] {
        assert_eq!(load_sharded_sd(&manifest_path, mode), target);
    }
    assert!(store::verify_file(&manifest_path).unwrap().healthy());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_reload_after_patch_keeps_clean_shards_and_reranks() {
    let dir = scratch_dir("serve");
    let old = library::c17();
    let new = rewired_c17(&old);
    let exp = Experiment::new(old.clone());
    let tests = exp.diagnostic_tests(&Default::default()).tests;
    let dictionary = build_sd(&exp, &tests);
    let whole = StoredDictionary::SameDifferent(dictionary);

    let manifest_path = dir.join("c17.sddm");
    let cones = OutputCones::compute(&old, exp.view());
    let ranges = cones.shard_ranges(exp.universe(), exp.faults(), 2);
    store::write_sharded(&manifest_path, &whole, &ranges, None).unwrap();
    let whole_path = dir.join("c17.sddb");
    store::save(&whole_path, &whole).unwrap();

    let handle = serve(&ServeConfig {
        workers: 2,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client
        .request(&format!("LOAD eco {}", manifest_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED eco "), "{reply}");
    let reply = client
        .request(&format!("LOAD flat {}", whole_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED flat "), "{reply}");

    // Warm every shard so RELOAD has resident state to carry over.
    let exp_new = Experiment::new(new.clone());
    let observations: Vec<String> = (0..exp.faults().len())
        .map(|position| {
            let fault = exp_new.universe().fault(exp_new.faults()[position]);
            tests
                .iter()
                .map(|t| {
                    reference::faulty_response(exp_new.circuit(), exp_new.view(), fault, t)
                        .to_string()
                })
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    client
        .request(&format!("DIAG eco {}", observations[0]))
        .unwrap();
    let stale: Vec<String> = observations
        .iter()
        .map(|observation| client.request(&format!("DIAG flat {observation}")).unwrap())
        .collect();

    // Patch both artifacts on disk behind the server's back.
    let before: Vec<String> = ShardedReader::open(&manifest_path)
        .unwrap()
        .manifest()
        .shards
        .iter()
        .map(|s| s.file.clone())
        .collect();
    patch(&old, &new, &tests, &manifest_path);
    patch(&old, &new, &tests, &whole_path);
    let after: Vec<String> = ShardedReader::open(&manifest_path)
        .unwrap()
        .manifest()
        .shards
        .iter()
        .map(|s| s.file.clone())
        .collect();
    let unchanged = before.iter().zip(&after).filter(|(b, a)| b == a).count();

    // RELOAD picks up the patched manifest, keeping exactly the shards
    // whose files the patch left alone.
    let reply = client.request("RELOAD eco").unwrap();
    assert!(reply.starts_with("OK RELOADED eco "), "{reply}");
    assert!(reply.contains(" shards=2 "), "{reply}");
    assert!(reply.contains(&format!(" kept={unchanged} ")), "{reply}");

    // A whole artifact has no shards to keep: RELOAD swaps in the patched
    // image outright.
    let reply = client.request("RELOAD flat").unwrap();
    assert!(reply.starts_with("OK RELOADED flat "), "{reply}");
    assert!(reply.ends_with(" kept=0"), "{reply}");

    // After the reloads, DIAG against the patched shards and against the
    // reloaded whole artifact is byte-identical to DIAG against a fresh
    // LOAD of the patched whole artifact.
    let reply = client
        .request(&format!("LOAD patched {}", whole_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED patched "), "{reply}");
    let mut reranked = false;
    for (observation, stale) in observations.iter().zip(&stale) {
        let sharded = client.request(&format!("DIAG eco {observation}")).unwrap();
        let whole = client
            .request(&format!("DIAG patched {observation}"))
            .unwrap();
        let reloaded = client.request(&format!("DIAG flat {observation}")).unwrap();
        assert!(sharded.starts_with("OK DIAG "), "{sharded}");
        assert_eq!(sharded, whole);
        assert_eq!(reloaded, whole);
        reranked |= reloaded != *stale;
    }

    assert!(
        reranked,
        "the patch changed no verdict, so RELOAD went untested"
    );

    // RELOAD of a never-loaded name is a one-line error, not a hang.
    let reply = client.request("RELOAD ghost").unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");

    handle.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_before_the_manifest_commit_is_invisible_to_readers() {
    let dir = scratch_dir("crash");
    let old = library::c17();
    let new = rewired_c17(&old);
    let exp = Experiment::new(old.clone());
    let tests = exp.diagnostic_tests(&Default::default()).tests;
    let whole = StoredDictionary::SameDifferent(build_sd(&exp, &tests));

    let manifest_path = dir.join("c17.sddm");
    store::write_sharded(&manifest_path, &whole, &[0..10, 10..22], None).unwrap();
    let original = load_sharded_sd(&manifest_path, MmapMode::Off);

    // Run the same patch to completion in a sibling directory to learn
    // what the commit will write.
    let done = dir.join("done");
    std::fs::create_dir_all(&done).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            std::fs::copy(&path, done.join(path.file_name().unwrap())).unwrap();
        }
    }
    let report = patch(&old, &new, &tests, &done.join("c17.sddm"));
    assert!(report.stats.files_rewritten > 0);
    let patched = load_sharded_sd(&done.join("c17.sddm"), MmapMode::Off);

    // Crash state A: new-generation shards landed, manifest commit never
    // happened. The old manifest still names the old files — readers see
    // the original artifact; the `.p1` files are inert orphans.
    for entry in std::fs::read_dir(&done).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if name.contains(".p1.") {
            std::fs::copy(&path, dir.join(&name)).unwrap();
        }
    }
    assert_eq!(load_sharded_sd(&manifest_path, MmapMode::Off), original);
    assert!(store::verify_file(&manifest_path).unwrap().healthy());

    // Crash state B: on top of that, the manifest rewrite tore at any
    // boundary of its staging sibling. Still the original artifact.
    let new_manifest = std::fs::read(done.join("c17.sddm")).unwrap();
    let mut cuts: Vec<usize> = (0..new_manifest.len()).step_by(64).collect();
    cuts.push(new_manifest.len().saturating_sub(1));
    for cut in cuts {
        std::fs::write(store::temp_sibling(&manifest_path), &new_manifest[..cut]).unwrap();
        assert_eq!(
            load_sharded_sd(&manifest_path, MmapMode::Off),
            original,
            "torn manifest temp at {cut} leaked into readers"
        );
    }
    std::fs::remove_file(store::temp_sibling(&manifest_path)).unwrap();

    // Re-running the interrupted patch converges to the committed result.
    patch(&old, &new, &tests, &manifest_path);
    assert_eq!(load_sharded_sd(&manifest_path, MmapMode::Off), patched);
    let _ = std::fs::remove_dir_all(&dir);
}
