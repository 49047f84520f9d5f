//! Incremental (ECO) dictionary patching: `sdd patch`'s engine.
//!
//! Given a built same/different artifact, the netlist it was built from,
//! and a *modified* netlist, this module re-simulates only what the edit
//! can have changed and rewrites the artifact's changed files, producing
//! files **bit-identical** (modulo the patch-generation provenance
//! counter) to a from-scratch rebuild of the modified netlist that keeps
//! the same baseline policy. The pipeline:
//!
//! 1. **Cone delta** ([`sdd_sim::EcoDelta`]): which outputs and faults the
//!    changed drivers can reach, consulting both circuits' cones, plus
//!    every output whose observed net differs between the two views (a
//!    moved flip-flop data net).
//! 2. **Lockstep pass** ([`EcoDelta::lockstep`]) — one pass over the
//!    64-test blocks. Per block, an old-circuit and a new-circuit engine
//!    load the same patterns and every dirty fault runs on both. Word
//!    operations on the two engines' output-diff words give the *touched
//!    tests* (the fault-free response or a dirty fault's diff set moved)
//!    and each dirty fault's old "differs from the stored baseline" bits,
//!    which cross-check the artifact: a stale or mismatched dictionary is
//!    a typed error, not a silent corruption.
//! 3. **Touched columns** ([`EcoPass::columns`](sdd_sim::EcoPass::columns))
//!    — in the same pass, a block that holds a touched test runs the clean
//!    faults once on new-circuit engines, and **all** faults' columns
//!    under its touched tests are interned there, in fault order; no diff
//!    word outlives its block. Response-class interning is per test, so
//!    these columns are exactly the columns a full rebuild would produce.
//! 4. **Baseline refresh** — touched tests get a [`Budget`]-bounded
//!    Procedure 2 pass ([`sdd_core::refresh_baselines_budgeted`]) whose
//!    replacement decisions are evaluated against the *full* dictionary:
//!    untouched tests contribute their (invariant) signature columns as a
//!    fixed partition. Untouched baselines are never moved — skipping the
//!    fresh Procedure 1 restarts is the documented policy that makes
//!    patching cheap, and the refresh can only improve on the inherited
//!    baselines.
//! 5. **Commit** ([`sdd_store::commit_patch`]): the stored dictionary
//!    with the touched columns and baselines replaced is encoded file by
//!    file; files whose bytes would not change are left alone, a whole
//!    file is replaced atomically, and changed shards are written under
//!    new names with the manifest committed last.
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
use sdd_sim::{EcoCircuits, EcoDelta, Partition, ResponseMatrix};
use sdd_store::{PatchStats, StoredDictionary};

use crate::Experiment;

/// Tuning knobs for [`patch_dictionary`].
#[derive(Debug, Clone)]
pub struct PatchOptions {
    /// Worker threads for the lockstep pass's dirty-fault runs and its
    /// clean faults' touched-column runs (output is identical for every
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
    /// Signature bits whose stored value the patch flipped.
    pub bits_flipped: u64,
    /// Touched tests whose baseline class or vector changed.
    pub baseline_changes: usize,
    /// What the commit rewrote; all zero when no test was touched, since
    /// nothing is committed then.
    pub stats: PatchStats,
}

/// `dictionary` with each touched test's column, baseline class and
/// baseline vector replaced — `touched[j]` takes column `j` of `matrix`
/// and baseline class `baselines[j]` — and what that changed: the
/// signature bits that flipped and the tests whose baseline class or
/// vector moved. The dictionary is consumed, so its rows are edited rather
/// than copied.
fn replace_columns(
    dictionary: SameDifferentDictionary,
    touched: &[usize],
    matrix: &ResponseMatrix,
    baselines: &[u32],
) -> Result<(SameDifferentDictionary, u64, usize), SddError> {
    let outputs = dictionary.sizes().outputs as usize;
    let (mut signatures, mut vectors, mut classes) = dictionary.into_parts();
    let (mut bits_flipped, mut baseline_changes) = (0, 0);
    for (j, &t) in touched.iter().enumerate() {
        let class = baselines[j];
        let vector = matrix.response(j, class);
        if class != classes[t] || vector != vectors[t] {
            baseline_changes += 1;
        }
        (classes[t], vectors[t]) = (class, vector);
        for (signature, &fault_class) in signatures.iter_mut().zip(matrix.classes(j)) {
            let differs = fault_class != class;
            if signature.bit(t) != differs {
                signature.set(t, differs);
                bits_flipped += 1;
            }
        }
    }
    let patched = SameDifferentDictionary::from_parts(signatures, vectors, classes, outputs)?;
    Ok((patched, bits_flipped, baseline_changes))
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
    // The new netlist's nets take the old one's ids by name, so a file that
    // lists its nets in another order patches like one edited in place.
    let new_exp = Experiment::new(new.renumbered_like(old).unwrap_or_else(|| new.clone()));
    let new = new_exp.circuit();
    // `EcoDelta::compute` validates the net interface; these validate the
    // fault side of the contract.
    let delta = EcoDelta::compute(old, new, old_exp.universe(), old_exp.faults())?;
    check_fault_lists(&old_exp, &new_exp)?;
    let faults = old_exp.faults();
    let (n, k, m) = (faults.len(), tests.len(), old_exp.view().outputs().len());

    let dictionary = sdd_store::load_same_different(artifact)?;
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
        bits_flipped: 0,
        baseline_changes: 0,
        stats: PatchStats::default(),
    };
    if report.changed_nets.is_empty() {
        return Ok(report);
    }

    // One lockstep pass of the dirty faults over both circuits finds the
    // touched tests and each dirty fault's old "differs from the stored
    // baseline" row, and interns all faults × touched tests on the new
    // circuit: exactly the rebuilt dictionary's columns.
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

    let matrix = pass.columns();

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
        for &t in touched {
            set[t] = true;
        }
        set
    };
    for test in (0..k).filter(|&t| !touched_set[t]) {
        fixed.refine_bits(|fault| dictionary.signature(fault).bit(test));
    }
    let outcome = refresh_baselines_budgeted(matrix, &fixed, &mut baselines, &options.budget);
    report.indistinguished_pairs = Some(outcome.indistinguished_pairs);
    report.refresh_passes = outcome.passes;
    report.refresh_completed = outcome.completed;

    // The stored dictionary with the touched columns and baselines replaced,
    // committed file by file.
    let (patched, bits_flipped, baseline_changes) =
        replace_columns(dictionary, touched, matrix, &baselines)?;
    report.bits_flipped = bits_flipped;
    report.baseline_changes = baseline_changes;
    report.stats = sdd_store::commit_patch(artifact, &StoredDictionary::SameDifferent(patched))?;
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

    /// Signature bits that differ between two dictionaries of one shape,
    /// and the tests whose baseline class or vector differs.
    fn differences(a: &SameDifferentDictionary, b: &SameDifferentDictionary) -> (u64, usize) {
        let bits = a
            .signatures()
            .iter()
            .zip(b.signatures())
            .flat_map(|(x, y)| x.as_words().zip(y.as_words()))
            .map(|(x, y)| u64::from((x ^ y).count_ones()))
            .sum();
        let baselines = (0..a.test_count())
            .filter(|&t| {
                a.baseline_classes()[t] != b.baseline_classes()[t] || a.baseline(t) != b.baseline(t)
            })
            .count();
        (bits, baselines)
    }

    /// End-to-end on c17: patching the artifact of the old circuit yields
    /// byte-for-byte the encoding of a dictionary rebuilt from the new
    /// matrix with the same baseline policy (modulo provenance), and the
    /// report counts exactly what changed between the saved and the
    /// rebuilt dictionary, for a whole file and for a shard set alike.
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
        let saved = StoredDictionary::SameDifferent(dictionary.clone());
        sdd_store::save(&path, &saved).unwrap();
        let sharded = dir.join("c17.sddm");
        let n = dictionary.fault_count();
        sdd_store::write_sharded(&sharded, &saved, &[0..n / 2, n / 2..n], None).unwrap();

        let report = patch_dictionary(&old, &new, &tests, &path, &PatchOptions::default()).unwrap();
        assert!(report.touched_tests > 0);
        assert!(report.stats.changed());

        // Rebuild target: new matrix, untouched baselines inherited (as
        // class labels, valid because untouched columns are invariant),
        // touched baselines as the patch refreshed them.
        let new_matrix = Experiment::new(new.clone()).simulate(&tests);
        let patched = sdd_store::load_same_different(&path).unwrap();
        let rebuilt = SameDifferentDictionary::build(&new_matrix, patched.baseline_classes());
        assert_eq!(patched, rebuilt);
        assert_eq!(
            report.indistinguished_pairs,
            Some(rebuilt.indistinguished_pairs())
        );
        let (bits, baselines) = differences(&dictionary, &rebuilt);
        assert!(bits > 0);
        assert_eq!(
            (report.bits_flipped, report.baseline_changes),
            (bits, baselines)
        );
        // A shard set reports the same counts: baselines are counted once,
        // not once per shard, and its shards reassemble to the same patch.
        let shard_report =
            patch_dictionary(&old, &new, &tests, &sharded, &PatchOptions::default()).unwrap();
        assert_eq!(
            (
                shard_report.touched_tests,
                shard_report.bits_flipped,
                shard_report.baseline_changes
            ),
            (report.touched_tests, bits, baselines)
        );
        assert_eq!(sdd_store::load_same_different(&sharded).unwrap(), patched);
        let patched_bytes = std::fs::read(&path).unwrap();
        let rebuilt_bytes = sdd_store::encode(&StoredDictionary::SameDifferent(rebuilt)).unwrap();
        assert_eq!(
            sdd_store::strip_patch_provenance(&patched_bytes).unwrap(),
            sdd_store::strip_patch_provenance(&rebuilt_bytes).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replacing the paper example's `t0` column, where the new circuit
    /// moves only `f3`'s response (`01` → `11`), counts against the stored
    /// dictionary.
    #[test]
    fn replacing_columns_counts_flipped_bits_and_changed_baselines() {
        let bv = |s: &str| s.parse::<BitVec>().unwrap();
        let stored = SameDifferentDictionary::build(&sdd_core::example::paper_example(), &[2, 1]);
        // Per test, the responses of f0..f3; t0 is the one that moved.
        let columns = [
            vec![bv("00"), bv("10"), bv("01"), bv("11")],
            vec![bv("10"), bv("11"), bv("10"), bv("01")],
        ];
        let touched = ResponseMatrix::from_responses(vec![bv("00")], &columns[..1]);
        let full = ResponseMatrix::from_responses(vec![bv("00"), bv("11")], &columns);
        for (baseline, counts) in [
            // `t0` keeps its baseline (class 2, `01`): a cone-local change
            // flips `f3`'s bit alone.
            (2, (1, 0)),
            // Moving the baseline to class 1 (`10`) changes one baseline
            // and flips the bits of `f1`, `f2` and `f3`.
            (1, (3, 1)),
        ] {
            let (patched, bits, baselines) =
                replace_columns(stored.clone(), &[0], &touched, &[baseline]).unwrap();
            assert_eq!((bits, baselines), counts, "baseline class {baseline}");
            assert_eq!(
                patched,
                SameDifferentDictionary::build(&full, &[baseline, 1])
            );
            assert_eq!(differences(&stored, &patched), counts);
        }
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
            let patched = sdd_store::load_same_different(&path).unwrap();
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
