//! Incremental (ECO) dictionary patching: `sdd patch`'s engine.
//!
//! Given a built same/different artifact, the netlist it was built from,
//! and a *modified* netlist, this module re-simulates only what the edit
//! can have changed and patches the artifact in place, producing files
//! **bit-identical** (modulo the patch-generation provenance counter) to a
//! from-scratch rebuild of the modified netlist that keeps the same
//! baseline policy. The pipeline:
//!
//! 1. **Cone delta** ([`sdd_sim::EcoDelta`]): which outputs and faults the
//!    changed drivers can reach, consulting both circuits' cones, plus
//!    every output whose observed net differs between the two views (a
//!    moved flip-flop data net).
//! 2. **Lockstep pass** ([`EcoDelta::lockstep`]) — the dirty faults under
//!    **all** tests, each 64-test block loaded into an old-circuit and a
//!    new-circuit engine and every dirty fault run on both. Word operations
//!    on the two engines' output-diff words give the *touched tests* (the
//!    fault-free response or a dirty fault's diff set moved) and each
//!    dirty fault's old "differs from the stored baseline" bits, which
//!    cross-check the artifact: a stale or mismatched dictionary is a typed
//!    error, not a silent corruption. Nothing is interned here.
//! 3. **Touched columns** ([`EcoPass::touched_columns`](sdd_sim::EcoPass::touched_columns))
//!    — **all** faults under only the touched tests on the new circuit,
//!    interned once in fault order: dirty faults from the new diff words
//!    the pass kept, clean faults from one new-circuit run over the blocks
//!    that hold touched tests. Response-class interning is per test, so
//!    these columns are exactly the columns a full rebuild would produce.
//! 4. **Baseline refresh** — touched tests get a [`Budget`]-bounded
//!    Procedure 2 pass ([`sdd_core::refresh_baselines_budgeted`]) whose
//!    replacement decisions are evaluated against the *full* dictionary:
//!    untouched tests contribute their (invariant) signature columns as a
//!    fixed partition. Untouched baselines are never moved — skipping the
//!    fresh Procedure 1 restarts is the documented policy that makes
//!    patching cheap, and the refresh can only improve on the inherited
//!    baselines.
//! 5. **Column patch** ([`sdd_store::patch_artifact`]): the touched
//!    columns are written through the store's row index — whole files
//!    atomically, sharded sets shard-by-shard with the manifest committed
//!    last.
//!
//! Why this is exact: an output is *dirty* when a changed net's cone (old
//! or new) contains it, or when it observes another net in the new circuit;
//! a clean output observes the same net, whose fan-in cone holds no
//! changed driver, so it computes the same function before and after and
//! every fault's value there is unchanged. A fault is *dirty* when its
//! cone meets a dirty output; a clean fault's diff set (faulty vs
//! fault-free positions) is therefore invariant under every test, which
//! means per-test response partitions can only change through dirty
//! faults — and those are exactly what the lockstep pass watches.

use std::path::Path;

use sdd_core::{refresh_baselines_budgeted, Budget, SameDifferentDictionary};
use sdd_logic::{BitVec, SddError};
use sdd_netlist::{Circuit, NetId};
use sdd_sim::{EcoCircuits, EcoDelta, Partition};
use sdd_store::{DictionaryKind, PatchStats, SdColumnPatch, ShardedReader, StoredDictionary};

use crate::Experiment;

/// Tuning knobs for [`patch_dictionary`].
#[derive(Debug, Clone)]
pub struct PatchOptions {
    /// Worker threads for the lockstep pass over the dirty faults and for
    /// the clean faults' touched-column runs (output is identical for every
    /// value).
    pub jobs: usize,
    /// Budget for the touched-test baseline refresh (Procedure 2 passes).
    /// An exhausted budget keeps the best baselines found so far — the
    /// patch is correct either way, the budget only trades diagnostic
    /// resolution for time.
    pub budget: Budget,
}

impl Default for PatchOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            budget: Budget::unlimited(),
        }
    }
}

/// What [`patch_dictionary`] did, for reporting and benchmarks.
#[derive(Debug, Clone)]
pub struct PatchReport {
    /// Nets whose drivers the ECO changed.
    pub changed_nets: Vec<NetId>,
    /// View outputs the change can reach.
    pub dirty_outputs: usize,
    /// Collapsed faults whose signatures may have changed.
    pub dirty_faults: usize,
    /// Total collapsed faults.
    pub total_faults: usize,
    /// Tests whose dictionary column actually changed.
    pub touched_tests: usize,
    /// Total tests.
    pub total_tests: usize,
    /// Indistinguished fault pairs of the patched dictionary (`None` when
    /// no test was touched — the artifact's resolution is unchanged).
    pub indistinguished_pairs: Option<u64>,
    /// Baseline-refresh passes run, and whether the refresh converged
    /// before the budget ran out.
    pub refresh_passes: usize,
    /// `false` when the budget stopped the refresh mid-improvement.
    pub refresh_completed: bool,
    /// What the store layer rewrote.
    pub stats: PatchStats,
}

/// Reads the same/different dictionary out of an artifact: a whole file is
/// its one shard, and a sharded `.sddm` set is reassembled in global fault
/// order.
fn load_artifact(path: &Path) -> Result<SameDifferentDictionary, SddError> {
    let mut reader = ShardedReader::open(path)?;
    let manifest = reader.manifest();
    if manifest.kind != DictionaryKind::SameDifferent {
        return Err(SddError::invalid(format!(
            "expected a same-different dictionary, found a {} dictionary",
            manifest.kind.name()
        )));
    }
    let outputs = manifest.outputs;
    let mut parsed = reader.take_parsed();
    let mut shards = Vec::with_capacity(reader.shard_count());
    for index in 0..reader.shard_count() {
        let loaded = parsed.take().map_or_else(|| reader.load_shard(index), Ok)?;
        let StoredDictionary::SameDifferent(shard) = loaded else {
            return Err(SddError::invalid(format!(
                "shard {index}: kind disagrees with the manifest"
            )));
        };
        shards.push(shard);
    }
    // One shard is the dictionary itself: no reassembly copy.
    let shards = match <[SameDifferentDictionary; 1]>::try_from(shards) {
        Ok([whole]) => return Ok(whole),
        Err(shards) => shards,
    };
    let first = &shards[0];
    let baselines = (0..first.test_count())
        .map(|t| first.baseline(t).clone())
        .collect();
    let signatures = shards
        .iter()
        .flat_map(|shard| shard.signatures())
        .cloned()
        .collect();
    SameDifferentDictionary::from_parts(
        signatures,
        baselines,
        first.baseline_classes().to_vec(),
        outputs,
    )
}

/// The lowest bit position where two equal-length vectors differ.
fn first_difference(a: &BitVec, b: &BitVec) -> Option<usize> {
    a.as_words()
        .zip(b.as_words())
        .enumerate()
        .find_map(|(w, (x, y))| (x != y).then(|| w * 64 + (x ^ y).trailing_zeros() as usize))
}

/// Checks the preconditions that make patching (rather than rebuilding)
/// sound: the two circuits enumerate and collapse to the *identical* fault
/// list, so fault indices in the artifact keep their meaning.
fn check_fault_lists(old: &Experiment, new: &Experiment) -> Result<(), SddError> {
    if old.universe().faults() != new.universe().faults() {
        return Err(SddError::invalid(
            "ECO changed the fault universe (gate fanins differ): fault indices \
             would shift — not patchable, rebuild the dictionary",
        ));
    }
    if old.faults() != new.faults() {
        return Err(SddError::invalid(
            "ECO changed fault collapsing: fault indices would shift — \
             not patchable, rebuild the dictionary",
        ));
    }
    Ok(())
}

/// Patches the same/different artifact at `artifact` — built from `old`
/// over `tests` — so it describes `new` instead, re-simulating only the
/// cone-affected region. See the module docs for the algorithm and the
/// exactness argument.
///
/// # Errors
///
/// [`SddError::Invalid`] when the circuits are not patch-compatible (net
/// interface, fault universe, or collapsing changed — rebuild instead),
/// when the artifact's dimensions disagree with the circuit and test set,
/// or when the artifact's stored signatures disagree with an old-circuit
/// re-simulation of the dirty faults (a stale or foreign dictionary).
/// Store and I/O errors pass through typed.
pub fn patch_dictionary(
    old: &Circuit,
    new: &Circuit,
    tests: &[BitVec],
    artifact: impl AsRef<Path>,
    options: &PatchOptions,
) -> Result<PatchReport, SddError> {
    let artifact = artifact.as_ref();
    let old_exp = Experiment::new(old.clone());
    let new_exp = Experiment::new(new.clone());
    // `EcoDelta::compute` validates the net interface; these validate the
    // fault side of the contract.
    let delta = EcoDelta::compute(old, new, old_exp.universe(), old_exp.faults())?;
    check_fault_lists(&old_exp, &new_exp)?;
    let faults = old_exp.faults();
    let (n, k, m) = (faults.len(), tests.len(), old_exp.view().outputs().len());

    let dictionary = load_artifact(artifact)?;
    if dictionary.fault_count() != n {
        return Err(SddError::CountMismatch {
            context: "artifact fault count",
            expected: n,
            actual: dictionary.fault_count(),
        });
    }
    if dictionary.test_count() != k {
        return Err(SddError::CountMismatch {
            context: "artifact test count",
            expected: k,
            actual: dictionary.test_count(),
        });
    }
    if dictionary.sizes().outputs as usize != m {
        return Err(SddError::CountMismatch {
            context: "artifact output count",
            expected: m,
            actual: dictionary.sizes().outputs as usize,
        });
    }

    let mut report = PatchReport {
        changed_nets: delta.changed_nets().to_vec(),
        dirty_outputs: delta.dirty_outputs().count_ones(),
        dirty_faults: delta.dirty_faults().len(),
        total_faults: n,
        touched_tests: 0,
        total_tests: k,
        indistinguished_pairs: None,
        refresh_passes: 0,
        refresh_completed: true,
        stats: PatchStats::default(),
    };
    if report.changed_nets.is_empty() {
        return Ok(report);
    }

    // One lockstep pass of the dirty faults over both circuits finds the
    // touched tests and each dirty fault's old "differs from the stored
    // baseline" row.
    let eco = EcoCircuits {
        old,
        old_view: old_exp.view(),
        new,
        new_view: new_exp.view(),
        universe: old_exp.universe(),
        faults,
    };
    let stored: Vec<BitVec> = (0..k).map(|t| dictionary.baseline(t).clone()).collect();
    let pass = delta.lockstep(&eco, tests, &stored, options.jobs);

    // Cross-check the artifact against the old circuit where they must
    // agree: a dirty fault's stored signature bit says whether its old
    // response differs from the stored baseline vector. The error names
    // the first disagreement in test-major order.
    let disagreement = delta
        .dirty_faults()
        .iter()
        .enumerate()
        .filter_map(|(i, &fault)| {
            first_difference(pass.differs(i), dictionary.signature(fault)).map(|t| (t, fault))
        })
        .min();
    if let Some((test, fault)) = disagreement {
        return Err(SddError::invalid(format!(
            "artifact disagrees with the old netlist at test {test}, fault {fault}: \
             it was not built from this circuit and test set — rebuild instead",
        )));
    }

    let touched = pass.touched();
    report.touched_tests = touched.len();
    if touched.is_empty() {
        return Ok(report);
    }

    // All faults × touched tests on the new circuit: exactly the rebuilt
    // dictionary's columns.
    let matrix = pass.touched_columns(&eco, tests, options.jobs);

    // Inherited baselines: the class whose new response equals the stored
    // baseline vector, falling back to the fault-free class when the ECO
    // removed that response entirely.
    let mut baselines: Vec<u32> = touched
        .iter()
        .enumerate()
        .map(|(j, &t)| {
            let stored = dictionary.baseline(t);
            (0..matrix.class_count(j) as u32)
                .find(|&c| matrix.response(j, c) == *stored)
                .unwrap_or(0)
        })
        .collect();

    // Untouched columns are invariant, so their stored signature bits are
    // the fixed partition the refresh's decisions are evaluated against.
    let mut fixed = Partition::unit(n);
    let touched_set: Vec<bool> = {
        let mut set = vec![false; k];
        for &t in &touched {
            set[t] = true;
        }
        set
    };
    for test in (0..k).filter(|&t| !touched_set[t]) {
        fixed.refine_bits(|fault| dictionary.signature(fault).bit(test));
    }
    let outcome = refresh_baselines_budgeted(&matrix, &fixed, &mut baselines, &options.budget);
    report.indistinguished_pairs = Some(outcome.indistinguished_pairs);
    report.refresh_passes = outcome.passes;
    report.refresh_completed = outcome.completed;

    let patches: Vec<SdColumnPatch> = touched
        .iter()
        .enumerate()
        .map(|(j, &t)| {
            let baseline_class = baselines[j];
            let mut column = BitVec::zeros(n);
            for (fault, &class) in matrix.classes(j).iter().enumerate() {
                column.set(fault, class != baseline_class);
            }
            SdColumnPatch {
                test: t,
                baseline_class,
                baseline: matrix.response(j, baseline_class),
                column,
            }
        })
        .collect();
    report.stats = sdd_store::patch_artifact(artifact, &patches)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_netlist::{library, Driver, GateKind};

    fn rewire(circuit: &Circuit, gate: &str, pin: usize, source: &str) -> Circuit {
        let gate = circuit.net(gate).unwrap();
        let mut inputs = circuit.driver(gate).fanin().to_vec();
        inputs[pin] = circuit.net(source).unwrap();
        let kind = match circuit.driver(gate) {
            Driver::Gate { kind, .. } => *kind,
            _ => panic!("not a gate"),
        };
        circuit
            .with_driver(gate, Driver::Gate { kind, inputs })
            .unwrap()
    }

    /// A patch-compatible ECO on c17: swap which of N11/N16 feeds N19 and
    /// N23. Both nets keep fan-out 2, so the branch-fault universe and the
    /// structural collapsing are unchanged while the function moves.
    fn rewired_c17(old: &Circuit) -> Circuit {
        rewire(&rewire(old, "N19", 0, "N16"), "N23", 0, "N11")
    }

    /// End-to-end on c17: patching the artifact of the old circuit yields
    /// byte-for-byte the encoding of a dictionary rebuilt from the new
    /// matrix with the same baseline policy (modulo provenance).
    #[test]
    fn patched_c17_equals_the_rebuilt_dictionary() {
        let old = library::c17();
        let new = rewired_c17(&old);
        let exp = Experiment::new(old.clone());
        let tests = exp.diagnostic_tests(&Default::default()).tests;
        let matrix = exp.simulate(&tests);
        let mut selection = sdd_core::select_baselines(
            &matrix,
            &sdd_core::Procedure1Options {
                calls1: 3,
                ..Default::default()
            },
        );
        sdd_core::replace_baselines(&matrix, &mut selection.baselines);
        let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);

        let dir = std::env::temp_dir().join(format!("sdd-patch-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c17.sddb");
        sdd_store::save(&path, &StoredDictionary::SameDifferent(dictionary)).unwrap();

        let report = patch_dictionary(&old, &new, &tests, &path, &PatchOptions::default()).unwrap();
        assert!(report.touched_tests > 0);
        assert!(report.stats.changed());

        // Rebuild target: new matrix, untouched baselines inherited (as
        // class labels, valid because untouched columns are invariant),
        // touched baselines as the patch refreshed them.
        let new_matrix = Experiment::new(new.clone()).simulate(&tests);
        let patched = load_artifact(&path).unwrap();
        let rebuilt = SameDifferentDictionary::build(&new_matrix, patched.baseline_classes());
        assert_eq!(patched, rebuilt);
        assert_eq!(
            report.indistinguished_pairs,
            Some(rebuilt.indistinguished_pairs())
        );
        let patched_bytes = std::fs::read(&path).unwrap();
        let rebuilt_bytes = sdd_store::encode(&StoredDictionary::SameDifferent(rebuilt)).unwrap();
        assert_eq!(
            sdd_store::strip_patch_provenance(&patched_bytes).unwrap(),
            sdd_store::strip_patch_provenance(&rebuilt_bytes).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_circuits_patch_to_a_no_op() {
        let old = library::c17();
        let exp = Experiment::new(old.clone());
        let tests = exp.diagnostic_tests(&Default::default()).tests;
        let matrix = exp.simulate(&tests);
        let selection = sdd_core::select_baselines(
            &matrix,
            &sdd_core::Procedure1Options {
                calls1: 2,
                ..Default::default()
            },
        );
        let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);
        let dir = std::env::temp_dir().join(format!("sdd-patch-noop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c17.sddb");
        sdd_store::save(&path, &StoredDictionary::SameDifferent(dictionary)).unwrap();
        let before = std::fs::read(&path).unwrap();
        let report = patch_dictionary(&old, &old, &tests, &path, &PatchOptions::default()).unwrap();
        assert!(report.changed_nets.is_empty());
        assert_eq!(report.touched_tests, 0);
        assert!(!report.stats.changed());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_artifact_is_a_typed_error() {
        let old = library::c17();
        let new = rewired_c17(&old);
        let exp = Experiment::new(old.clone());
        let tests = exp.diagnostic_tests(&Default::default()).tests;
        // Build the artifact from the NEW circuit, then claim it describes
        // the old one: the old-circuit cross-check must reject it.
        let matrix = Experiment::new(new.clone()).simulate(&tests);
        let selection = sdd_core::select_baselines(
            &matrix,
            &sdd_core::Procedure1Options {
                calls1: 2,
                ..Default::default()
            },
        );
        let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);
        let dir = std::env::temp_dir().join(format!("sdd-patch-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c17.sddb");
        sdd_store::save(&path, &StoredDictionary::SameDifferent(dictionary)).unwrap();
        let err =
            patch_dictionary(&old, &new, &tests, &path, &PatchOptions::default()).unwrap_err();
        assert!(err.to_string().contains("rebuild"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `q = DFF(x)` becomes `q = DFF(y)`. `x` and `y` keep fan-out above
    /// one, so the fault list and its collapsing stay the same, but `q`'s
    /// pseudo-output now observes `y`: an output that no changed net's cone
    /// holds, since `q`'s cone covers only what `q` feeds.
    fn flip_flop_rewire() -> (Circuit, Circuit) {
        let old = sdd_netlist::bench::parse(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\n\
             OUTPUT(o1)\nOUTPUT(o2)\nOUTPUT(o3)\nOUTPUT(o4)\nOUTPUT(o5)\n\
             x = NAND(a, b)\ny = NOR(b, c)\nq = DFF(x)\n\
             o1 = AND(x, a)\no2 = OR(x, c)\no3 = AND(y, a)\no4 = OR(y, c)\no5 = NOT(q)\n",
        )
        .unwrap();
        let q = old.net("q").unwrap();
        let y = old.net("y").unwrap();
        let new = old.with_driver(q, Driver::Dff { data: y }).unwrap();
        (old, new)
    }

    #[test]
    fn a_flip_flop_data_net_rewire_patches_to_the_rebuild() {
        let (old, new) = flip_flop_rewire();
        let exp = Experiment::new(old.clone());
        let width = exp.view().inputs().len();
        let tests: Vec<BitVec> = (0u32..1 << width)
            .map(|w| (0..width).map(|i| w >> i & 1 == 1).collect())
            .collect();
        let matrix = exp.simulate(&tests);
        let new_matrix = Experiment::new(new.clone()).simulate(&tests);
        let dir = std::env::temp_dir().join(format!("sdd-patch-dff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for seed in 0..8 {
            let selection = sdd_core::select_baselines(
                &matrix,
                &sdd_core::Procedure1Options {
                    calls1: 2,
                    seed,
                    ..Default::default()
                },
            );
            let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);
            let path = dir.join(format!("dff-{seed}.sddb"));
            sdd_store::save(&path, &StoredDictionary::SameDifferent(dictionary)).unwrap();
            let report =
                patch_dictionary(&old, &new, &tests, &path, &PatchOptions::default()).unwrap();
            // The pseudo-output (o5 and it) and every fault reaching it in
            // either circuit are dirty.
            assert_eq!(report.dirty_outputs, 2, "seed {seed}");
            assert_eq!(report.dirty_faults, 24, "seed {seed}");
            let patched = load_artifact(&path).unwrap();
            let rebuilt = SameDifferentDictionary::build(&new_matrix, patched.baseline_classes());
            assert_eq!(patched, rebuilt, "seed {seed}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fanin_changing_eco_demands_a_rebuild() {
        let old = library::c17();
        // Drop one fanin of N22: the branch-fault universe changes shape.
        let net = old.net("N22").unwrap();
        let inputs = old.driver(net).fanin().to_vec();
        let new = old
            .with_driver(
                net,
                Driver::Gate {
                    kind: GateKind::Not,
                    inputs: inputs[..1].to_vec(),
                },
            )
            .unwrap();
        let exp = Experiment::new(old.clone());
        let tests = exp.diagnostic_tests(&Default::default()).tests;
        let err = patch_dictionary(&old, &new, &tests, "unused.sddb", &PatchOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("rebuild"), "{err}");
    }
}
