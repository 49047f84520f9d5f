//! Diagnostic test-set generation.
//!
//! A diagnostic test set is built to *distinguish fault pairs*, not merely
//! detect faults: its figure of merit is the number of fault pairs left
//! indistinguished by a full dictionary over the set. Generation proceeds in
//! three phases:
//!
//! 1. a compact 1-detection set (detection is a prerequisite for
//!    distinction);
//! 2. greedy augmentation: blocks of random candidates are fault-simulated
//!    and each candidate that refines the current full-dictionary partition
//!    is admitted;
//! 3. targeted pair splitting: for the largest surviving groups, PODEM
//!    (randomized search, random fill) generates tests for member faults,
//!    keeping tests that split their group.
//!
//! For scalability, candidate evaluation only fault-simulates the *active*
//! faults — members of groups that still contain an undistinguished pair.
//! Singleton groups can never split again, so skipping them is lossless,
//! and on large circuits the active set collapses quickly.

use sdd_logic::Prng;

use sdd_fault::{FaultId, FaultUniverse};
use sdd_logic::{BitVec, LANES};
use sdd_netlist::{Circuit, CombView};
use sdd_sim::{Partition, ResponseMatrix};

use crate::{
    generate_detection, random_patterns, AtpgOptions, FillMode, GeneratedTestSet, Podem,
    PodemOutcome,
};

/// How many of the largest indistinguished groups the targeted phase works
/// on. Bounds deterministic effort on very large circuits; random
/// augmentation has usually shrunk the group structure well before this
/// matters.
const MAX_TARGETED_GROUPS: usize = 400;

/// Generates a diagnostic test set for `faults`.
///
/// The returned set detects every testable fault at least once and has been
/// greedily extended until random and targeted candidates stopped improving
/// full-dictionary resolution.
///
/// # Example
///
/// ```
/// use sdd_atpg::{generate_diagnostic, AtpgOptions};
/// use sdd_fault::FaultUniverse;
/// use sdd_netlist::{library, CombView};
///
/// let c17 = library::c17();
/// let view = CombView::new(&c17);
/// let universe = FaultUniverse::enumerate(&c17);
/// let collapsed = universe.collapse_on(&c17);
/// let set = generate_diagnostic(
///     &c17, &view, &universe, collapsed.representatives(), &AtpgOptions::default(),
/// );
/// assert!(!set.tests.is_empty());
/// ```
pub fn generate_diagnostic(
    circuit: &Circuit,
    view: &CombView,
    universe: &FaultUniverse,
    faults: &[FaultId],
    options: &AtpgOptions,
) -> GeneratedTestSet {
    let width = view.inputs().len();
    let mut rng = Prng::seed_from_u64(options.seed ^ 0xD1A6);

    let base = generate_detection(circuit, view, universe, faults, 1, options);
    let mut tests = base.tests;
    let matrix = ResponseMatrix::simulate(circuit, view, universe, faults, &tests);
    let mut partition = matrix.full_partition();

    // ---- Phase 2: greedy random augmentation. ----
    let mut stale = 0;
    for _ in 0..options.max_random_blocks {
        if partition.indistinguished_pairs() == 0 || stale >= options.stale_random_blocks {
            break;
        }
        let candidates = random_patterns(width, LANES, &mut rng);
        let added = admit_refining(
            circuit,
            view,
            universe,
            faults,
            &candidates,
            &mut tests,
            &mut partition,
        );
        if added == 0 {
            stale += 1;
        } else {
            stale = 0;
        }
    }

    // ---- Phase 3: targeted pair splitting on the largest groups. ----
    if partition.indistinguished_pairs() > 0 {
        let mut podem = Podem::new(circuit, view)
            .with_backtrack_limit(options.backtrack_limit)
            .with_fill(FillMode::Random)
            .with_randomized_search(true);
        let mut groups: Vec<Vec<usize>> = partition
            .groups()
            .into_iter()
            .filter(|g| g.len() >= 2)
            .collect();
        groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
        groups.truncate(MAX_TARGETED_GROUPS);
        let mut candidates: Vec<BitVec> = Vec::new();
        for group in groups {
            // Try to split the group via tests for its first two members.
            for &member in group.iter().take(2) {
                let fault = universe.fault(faults[member]);
                for _ in 0..options.attempts_per_deficit {
                    if let PodemOutcome::Test(test) = podem.generate(fault, &mut rng) {
                        candidates.push(test);
                    }
                }
            }
            if candidates.len() >= LANES {
                admit_refining(
                    circuit,
                    view,
                    universe,
                    faults,
                    &candidates,
                    &mut tests,
                    &mut partition,
                );
                candidates.clear();
            }
        }
        if !candidates.is_empty() {
            admit_refining(
                circuit,
                view,
                universe,
                faults,
                &candidates,
                &mut tests,
                &mut partition,
            );
        }
    }

    GeneratedTestSet {
        tests,
        untestable: base.untestable,
        aborted: base.aborted,
    }
}

/// Simulates candidate tests over the currently-active faults and admits
/// each candidate that strictly refines the partition (i.e. newly
/// distinguishes at least one fault pair). Returns the number admitted.
fn admit_refining(
    circuit: &Circuit,
    view: &CombView,
    universe: &FaultUniverse,
    faults: &[FaultId],
    candidates: &[BitVec],
    tests: &mut Vec<BitVec>,
    partition: &mut Partition,
) -> usize {
    if candidates.is_empty() {
        return 0;
    }
    // Active faults: members of groups that can still split.
    let sizes = partition.group_sizes();
    let active: Vec<usize> = (0..faults.len())
        .filter(|&f| sizes[partition.group_of(f) as usize] >= 2)
        .collect();
    if active.is_empty() {
        return 0;
    }
    let active_ids: Vec<FaultId> = active.iter().map(|&f| faults[f]).collect();
    let matrix = ResponseMatrix::simulate(circuit, view, universe, &active_ids, candidates);

    let mut added = 0;
    let mut row = vec![0u32; faults.len()];
    for (lane, candidate) in candidates.iter().enumerate() {
        // Expand the active-fault classes into a full-width label row;
        // inactive faults are singletons, for which any label is a no-op.
        row.iter_mut().for_each(|slot| *slot = 0);
        for (pos, &fault) in active.iter().enumerate() {
            row[fault] = matrix.class(lane, pos);
        }
        // Labels are numbered by first appearance, so a refine that splits
        // nothing leaves the partition as it was.
        let before = partition.group_count();
        partition.refine(&row);
        if partition.group_count() > before {
            tests.push(candidate.clone());
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_netlist::{generator, library};

    #[test]
    fn diagnostic_set_reaches_exhaustive_resolution_on_c17() {
        let c = library::c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let faults = collapsed.representatives();
        let set = generate_diagnostic(&c, &view, &universe, faults, &AtpgOptions::default());

        // Exhaustive bound: what 32 patterns can distinguish.
        let all: Vec<BitVec> = (0u32..32)
            .map(|w| (0..5).map(|i| w >> i & 1 == 1).collect())
            .collect();
        let bound = ResponseMatrix::simulate(&c, &view, &universe, faults, &all)
            .full_partition()
            .indistinguished_pairs();
        let achieved = ResponseMatrix::simulate(&c, &view, &universe, faults, &set.tests)
            .full_partition()
            .indistinguished_pairs();
        assert_eq!(
            achieved, bound,
            "diagnostic set must reach the exhaustive bound on c17"
        );
    }

    #[test]
    fn diagnostic_resolution_beats_plain_detection() {
        let c = generator::iscas89("s344", 3).unwrap();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let faults = collapsed.representatives();
        let opts = AtpgOptions::default();
        let detect = generate_detection(&c, &view, &universe, faults, 1, &opts);
        let diag = generate_diagnostic(&c, &view, &universe, faults, &opts);
        let pairs = |tests: &[BitVec]| {
            ResponseMatrix::simulate(&c, &view, &universe, faults, tests)
                .full_partition()
                .indistinguished_pairs()
        };
        assert!(
            pairs(&diag.tests) <= pairs(&detect.tests),
            "diagnostic set can only improve resolution"
        );
        assert!(
            pairs(&diag.tests) < pairs(&detect.tests),
            "on a 300-gate circuit augmentation should find something to split"
        );
    }

    #[test]
    fn still_detects_every_testable_fault() {
        let c = generator::iscas89("s208", 6).unwrap();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let faults = collapsed.representatives();
        let set = generate_diagnostic(&c, &view, &universe, faults, &AtpgOptions::default());
        let matrix = ResponseMatrix::simulate(&c, &view, &universe, faults, &set.tests);
        let counts = matrix.detection_counts();
        for (pos, &id) in faults.iter().enumerate() {
            if set.untestable.contains(&id) || set.aborted.contains(&id) {
                continue;
            }
            assert!(counts[pos] > 0, "{}", universe.fault(id).describe(&c));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let c = library::c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let faults = collapsed.representatives();
        let opts = AtpgOptions::default();
        let a = generate_diagnostic(&c, &view, &universe, faults, &opts);
        let b = generate_diagnostic(&c, &view, &universe, faults, &opts);
        assert_eq!(a, b);
    }
}
