//! A seeded ECO oracle. Generator circuits × seeded ECOs × `jobs` ∈ {1, 2,
//! 4}: the cone delta's dirty set, the lockstep pass's touched set,
//! "differs from baseline" rows and touched columns, and
//! `patch_dictionary`'s committed artifact, are each checked against a full
//! simulation of every fault on both circuits — not against the dirty-fault
//! pass they come from.
//!
//! The ECO kinds: a gate-pin rewire drawn as perfbench `build` draws its
//! chain, a two-net rewire (two such pins on different gates), a flip-flop
//! data-net rewire, and the identity. Draws that would reshape the fault
//! list are skipped, as `patch_dictionary` refuses them.

use same_different::dict::{select_baselines, Procedure1Options, SameDifferentDictionary};
use same_different::logic::{BitVec, Prng};
use same_different::netlist::{Circuit, CombView, Driver, NetId};
use same_different::patch::{patch_dictionary, PatchOptions};
use same_different::sim::{EcoCircuits, EcoDelta, OutputCones, ResponseMatrix};
use same_different::store::{self, StoredDictionary};
use same_different::Experiment;
use std::path::{Path, PathBuf};

const PROFILES: [&str; 3] = ["s298", "s344", "s386"];
const JOBS: [usize; 3] = [1, 2, 4];
/// Two pattern blocks, the second partial.
const TESTS: usize = 100;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdd-eco-oracle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn random_tests(width: usize, rng: &mut Prng) -> Vec<BitVec> {
    (0..TESTS)
        .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
        .collect()
}

/// perfbench's rewire rule: a gate pin fed by a net of fan-out ≥ 3 moves to
/// another primary-input or flip-flop net of fan-out ≥ 2 the gate does not
/// already read.
fn pin_rewires(circuit: &Circuit) -> Vec<(NetId, usize, NetId)> {
    let fanout = circuit.fanout_counts();
    let sources: Vec<NetId> = circuit
        .nets()
        .filter(|&net| {
            fanout[net.index()] >= 2
                && matches!(circuit.driver(net), Driver::Input | Driver::Dff { .. })
        })
        .collect();
    let mut out = Vec::new();
    for gate in circuit.nets() {
        let Driver::Gate { inputs, .. } = circuit.driver(gate) else {
            continue;
        };
        for (pin, &old) in inputs.iter().enumerate() {
            if fanout[old.index()] >= 3 {
                out.extend(
                    sources
                        .iter()
                        .filter(|&&s| s != old && !inputs.contains(&s))
                        .map(|&source| (gate, pin, source)),
                );
            }
        }
    }
    out
}

fn apply_pin(circuit: &Circuit, (gate, pin, source): (NetId, usize, NetId)) -> Circuit {
    let Driver::Gate { kind, inputs } = circuit.driver(gate) else {
        panic!("pin rewires are gate pins");
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

/// A flip-flop's data pin moves to another net of fan-out ≥ 2, which keeps
/// that net's branch faults. (Whether the old data net keeps its own is
/// left to [`draw`]'s fault-list check.) Where the profile has them, only
/// the moves a cone-only delta misses are kept: the flip-flop's output `q`
/// reaches neither its pseudo-output nor the new data net, and some net
/// reaches the pseudo-output and nothing else `q` reaches, so that net's
/// faults change response only at an output no changed net's cone holds.
fn flip_flop_rewires(circuit: &Circuit) -> Vec<(NetId, NetId)> {
    let fanout = circuit.fanout_counts();
    let cones = OutputCones::compute(circuit, &CombView::new(circuit));
    // Bits of `a` that `b` lacks.
    let beyond = |a: &BitVec, b: &BitVec| a.as_words().zip(b.as_words()).any(|(x, y)| x & !y != 0);
    let mut all = Vec::new();
    let mut telling = Vec::new();
    for (i, &q) in circuit.dffs().iter().enumerate() {
        let pseudo = circuit.outputs().len() + i;
        let data = circuit.driver(q).fanin()[0];
        let reach = cones.net_cone(q);
        let observed_apart = !reach.bit(pseudo)
            && circuit.nets().any(|net| {
                let mut cone = cones.net_cone(net);
                let observes = cone.bit(pseudo);
                cone.set(pseudo, false);
                observes
                    && !cone
                        .as_words()
                        .zip(reach.as_words())
                        .any(|(x, y)| x & y != 0)
            });
        for y in circuit
            .nets()
            .filter(|&y| y != data && fanout[y.index()] >= 2)
        {
            all.push((q, y));
            // `q` cannot reach `y` when `y` reaches an output `q` does not.
            if observed_apart && beyond(&cones.net_cone(y), &reach) {
                telling.push((q, y));
            }
        }
    }
    if telling.is_empty() {
        all
    } else {
        telling
    }
}

#[derive(Debug, Clone, Copy)]
enum EcoKind {
    Pin,
    TwoNets,
    FlipFlop,
    Identity,
}

/// Draws one ECO of `kind` that keeps the fault list and its collapsing.
fn draw(exp: &Experiment, kind: EcoKind, rng: &mut Prng) -> Circuit {
    let old = exp.circuit();
    let pins = pin_rewires(old);
    let flops = flip_flop_rewires(old);
    for _ in 0..200 {
        let new = match kind {
            EcoKind::Identity => return old.clone(),
            EcoKind::Pin => apply_pin(old, pins[rng.gen_range(0..pins.len())]),
            EcoKind::TwoNets => {
                let (a, b) = (
                    pins[rng.gen_range(0..pins.len())],
                    pins[rng.gen_range(0..pins.len())],
                );
                if a.0 == b.0 {
                    continue;
                }
                apply_pin(&apply_pin(old, a), b)
            }
            EcoKind::FlipFlop => {
                let (q, y) = flops[rng.gen_range(0..flops.len())];
                old.with_driver(q, Driver::Dff { data: y }).unwrap()
            }
        };
        let edited = Experiment::new(new.clone());
        if edited.universe().faults() == exp.universe().faults() && edited.faults() == exp.faults()
        {
            return new;
        }
    }
    panic!("no patch-compatible {kind:?} ECO on {}", old.name());
}

fn built_artifact(exp: &Experiment, tests: &[BitVec], seed: u64) -> SameDifferentDictionary {
    let matrix = exp.simulate(tests);
    let selection = select_baselines(
        &matrix,
        &Procedure1Options {
            calls1: 2,
            seed,
            ..Default::default()
        },
    );
    SameDifferentDictionary::build(&matrix, &selection.baselines)
}

/// Tests where the fault-free response or any fault's diff set moved,
/// from full matrices of every fault on both circuits.
fn oracle_touched(old: &ResponseMatrix, new: &ResponseMatrix) -> Vec<usize> {
    (0..old.test_count())
        .filter(|&t| {
            old.good_response(t) != new.good_response(t)
                || (0..old.fault_count()).any(|f| {
                    old.class_diffs(t, old.class(t, f)) != new.class_diffs(t, new.class(t, f))
                })
        })
        .collect()
}

/// Faults whose diff set moved under some test.
fn oracle_moved(old: &ResponseMatrix, new: &ResponseMatrix) -> Vec<usize> {
    (0..old.fault_count())
        .filter(|&f| {
            (0..old.test_count())
                .any(|t| old.class_diffs(t, old.class(t, f)) != new.class_diffs(t, new.class(t, f)))
        })
        .collect()
}

fn stripped(bytes: &[u8]) -> Vec<u8> {
    store::strip_patch_provenance(bytes).unwrap()
}

fn patched_bytes(
    old: &Circuit,
    new: &Circuit,
    tests: &[BitVec],
    original: &[u8],
    path: &Path,
    jobs: usize,
) -> Vec<u8> {
    std::fs::write(path, original).unwrap();
    let options = PatchOptions {
        jobs,
        ..PatchOptions::default()
    };
    patch_dictionary(old, new, tests, path, &options).unwrap();
    std::fs::read(path).unwrap()
}

#[test]
fn lockstep_pass_and_patch_agree_with_full_simulation() {
    let dir = scratch_dir("seeded");
    let mut rng = Prng::seed_from_u64(0x05ee_dec0);
    for (p, profile) in PROFILES.into_iter().enumerate() {
        let exp = Experiment::iscas89(profile, 1).unwrap();
        let old = exp.circuit();
        let tests = random_tests(exp.view().inputs().len(), &mut rng);
        let dictionary = built_artifact(&exp, &tests, p as u64);
        let original = store::encode(&StoredDictionary::SameDifferent(dictionary.clone())).unwrap();
        let old_full = exp.simulate(&tests);
        let baselines: Vec<BitVec> = (0..tests.len())
            .map(|t| dictionary.baseline(t).clone())
            .collect();
        for kind in [
            EcoKind::Pin,
            EcoKind::TwoNets,
            EcoKind::FlipFlop,
            EcoKind::Identity,
        ] {
            let new = draw(&exp, kind, &mut rng);
            let new_exp = Experiment::new(new.clone());
            let new_full = new_exp.simulate(&tests);
            let touched = oracle_touched(&old_full, &new_full);
            let context = format!("{profile} {kind:?}");
            if matches!(kind, EcoKind::Identity) {
                assert!(touched.is_empty(), "{context}");
            } else {
                assert!(!touched.is_empty(), "{context}: the draw moves no column");
            }

            let delta = EcoDelta::compute(old, &new, exp.universe(), exp.faults()).unwrap();
            // The delta is sound: every fault whose response moved is dirty.
            for fault in oracle_moved(&old_full, &new_full) {
                assert!(
                    delta.dirty_faults().binary_search(&fault).is_ok(),
                    "{context}: fault {fault} moved but is clean"
                );
            }
            let eco = EcoCircuits {
                old,
                old_view: exp.view(),
                new: &new,
                new_view: new_exp.view(),
                universe: exp.universe(),
                faults: exp.faults(),
            };
            let touched_patterns: Vec<BitVec> = touched.iter().map(|&t| tests[t].clone()).collect();
            let columns = ResponseMatrix::simulate(
                &new,
                new_exp.view(),
                exp.universe(),
                exp.faults(),
                &touched_patterns,
            );
            let mut artifacts = Vec::new();
            for jobs in JOBS {
                let pass = delta.lockstep(&eco, &tests, &baselines, jobs);
                assert_eq!(pass.touched(), touched, "{context} jobs {jobs}");
                for (i, &fault) in delta.dirty_faults().iter().enumerate() {
                    for (t, baseline) in baselines.iter().enumerate() {
                        let response = old_full.response(t, old_full.class(t, fault));
                        assert_eq!(
                            pass.differs(i).bit(t),
                            response != *baseline,
                            "{context} jobs {jobs}: fault {fault} test {t}"
                        );
                    }
                }
                assert_eq!(
                    pass.touched_columns(&eco, &tests, jobs),
                    columns,
                    "{context} jobs {jobs}"
                );

                let path = dir.join(format!("{profile}-{kind:?}-{jobs}.sddb"));
                let bytes = patched_bytes(old, &new, &tests, &original, &path, jobs);
                let patched = store::read_same_different_auto(&bytes).unwrap();
                let rebuilt = SameDifferentDictionary::build(&new_full, patched.baseline_classes());
                let rebuilt_bytes =
                    store::encode(&StoredDictionary::SameDifferent(rebuilt)).unwrap();
                assert_eq!(
                    stripped(&bytes),
                    stripped(&rebuilt_bytes),
                    "{context} jobs {jobs}: the patch is not the rebuild"
                );
                artifacts.push(bytes);
            }
            assert!(
                artifacts.windows(2).all(|pair| pair[0] == pair[1]),
                "{context}: jobs changed the artifact bytes"
            );
            if matches!(kind, EcoKind::Identity) {
                assert_eq!(
                    artifacts[0], original,
                    "{context}: the identity rewrote the file"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_artifact_names_the_first_disagreement_in_test_major_order() {
    let dir = scratch_dir("stale");
    let mut rng = Prng::seed_from_u64(0x57a1e);
    let exp = Experiment::iscas89("s298", 1).unwrap();
    let old = exp.circuit();
    let tests = random_tests(exp.view().inputs().len(), &mut rng);
    let new = draw(&exp, EcoKind::Pin, &mut rng);
    let delta = EcoDelta::compute(old, &new, exp.universe(), exp.faults()).unwrap();
    let dirty = delta.dirty_faults();
    assert!(dirty.len() >= 2);
    // Flip (early test, later fault) and (later test, earlier fault): the
    // test-major scan meets the first, a fault-major one the second.
    let (early, late) = (dirty[0], dirty[dirty.len() - 1]);
    let (first_test, second_test) = (3, 70);
    let dictionary = built_artifact(&exp, &tests, 0);
    let mut signatures = dictionary.signatures().to_vec();
    signatures[late].toggle(first_test);
    signatures[early].toggle(second_test);
    let stale = SameDifferentDictionary::from_parts(
        signatures,
        (0..tests.len())
            .map(|t| dictionary.baseline(t).clone())
            .collect(),
        dictionary.baseline_classes().to_vec(),
        dictionary.sizes().outputs as usize,
    )
    .unwrap();
    let bytes = store::encode(&StoredDictionary::SameDifferent(stale)).unwrap();
    for jobs in JOBS {
        let path = dir.join(format!("stale-{jobs}.sddb"));
        std::fs::write(&path, &bytes).unwrap();
        let options = PatchOptions {
            jobs,
            ..PatchOptions::default()
        };
        let err = patch_dictionary(old, &new, &tests, &path, &options).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "invalid input: artifact disagrees with the old netlist at test {first_test}, fault {late}: \
                 it was not built from this circuit and test set — rebuild instead"
            ),
            "jobs {jobs}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "a refused patch writes nothing"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
