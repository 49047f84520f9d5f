//! Detection and n-detection test-set generation with compaction.

use std::collections::HashSet;

use sdd_logic::Prng;

use sdd_fault::{FaultId, FaultUniverse};
use sdd_logic::{BitVec, PatternBlock, LANES};
use sdd_netlist::{Circuit, CombView};
use sdd_sim::{Engine, ResponseMatrix};

use crate::{random_patterns, FillMode, Podem, PodemOutcome};

/// Knobs for test-set generation. The defaults reproduce the workspace's
/// experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtpgOptions {
    /// Seed for every random choice (patterns, PODEM randomization, fill).
    pub seed: u64,
    /// PODEM backtrack budget per fault attempt.
    pub backtrack_limit: usize,
    /// Maximum number of 64-pattern random blocks in the random phase.
    pub max_random_blocks: usize,
    /// Random phase stops after this many consecutive unproductive blocks.
    pub stale_random_blocks: usize,
    /// Deterministic attempts per missing detection of a fault.
    pub attempts_per_deficit: usize,
    /// Run reverse-order compaction on the final set.
    pub compact: bool,
}

impl Default for AtpgOptions {
    fn default() -> Self {
        Self {
            seed: 1,
            backtrack_limit: 4096,
            max_random_blocks: 64,
            stale_random_blocks: 2,
            attempts_per_deficit: 3,
            compact: true,
        }
    }
}

/// A generated test set together with the faults that could not be covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedTestSet {
    /// The tests, one [`BitVec`] per view input vector.
    pub tests: Vec<BitVec>,
    /// Faults proven untestable (redundant) by PODEM or the SAT fallback.
    pub untestable: Vec<FaultId>,
    /// Faults abandoned with no test found: PODEM reached its backtrack
    /// limit and the SAT fallback exhausted its conflict budget.
    pub aborted: Vec<FaultId>,
}

impl GeneratedTestSet {
    /// Number of tests (the paper's `|T|`).
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Returns `true` when no tests were generated.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }
}

/// Generates an `n`-detection test set: every testable fault in `faults`
/// is detected by at least `n` distinct tests (fewer only if PODEM gives up
/// or the fault has fewer than `n` distinguishable detections).
///
/// `n = 1` yields a plain detection test set; the paper's second test-set
/// type is `n = 10`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn generate_detection(
    circuit: &Circuit,
    view: &CombView,
    universe: &FaultUniverse,
    faults: &[FaultId],
    n: u32,
    options: &AtpgOptions,
) -> GeneratedTestSet {
    assert!(n > 0, "n-detection requires n >= 1");
    let width = view.inputs().len();
    let mut rng = Prng::seed_from_u64(options.seed);
    let mut deficit: Vec<u32> = vec![n; faults.len()];
    let mut tests: Vec<BitVec> = Vec::new();
    let mut seen: HashSet<BitVec> = HashSet::new();
    let mut engine = Engine::new(circuit, view);

    // ---- Random phase: cheap detections first. ----
    let mut stale = 0;
    for _ in 0..options.max_random_blocks {
        if deficit.iter().all(|&d| d == 0) || stale >= options.stale_random_blocks {
            break;
        }
        let block_tests = random_patterns(width, LANES, &mut rng);
        let kept = absorb_block(
            view,
            universe,
            faults,
            &mut engine,
            &block_tests,
            &mut deficit,
            &mut tests,
            &mut seen,
        );
        if kept == 0 {
            stale += 1;
        } else {
            stale = 0;
        }
    }

    // ---- Deterministic phase: PODEM per remaining deficit. ----
    let mut podem = Podem::new(circuit, view)
        .with_backtrack_limit(options.backtrack_limit)
        .with_fill(if n > 1 {
            FillMode::Random
        } else {
            FillMode::Zero
        })
        .with_randomized_search(n > 1);
    let mut untestable = Vec::new();
    let mut aborted = Vec::new();
    let mut pending: Vec<BitVec> = Vec::new();

    for (pos, &fault_id) in faults.iter().enumerate() {
        if deficit[pos] == 0 {
            continue;
        }
        // Flush pending tests so dropping is up to date before spending
        // deterministic effort on this fault.
        if !pending.is_empty() {
            let batch = std::mem::take(&mut pending);
            absorb_block(
                view,
                universe,
                faults,
                &mut engine,
                &batch,
                &mut deficit,
                &mut tests,
                &mut seen,
            );
            if deficit[pos] == 0 {
                continue;
            }
        }
        let fault = universe.fault(fault_id);
        let budget = options.attempts_per_deficit * deficit[pos] as usize + 1;
        let mut produced = 0u32;
        let mut gave_up = None;
        for _ in 0..budget {
            if produced >= deficit[pos] {
                break;
            }
            match podem.generate(fault, &mut rng) {
                PodemOutcome::Test(test) => {
                    if seen.contains(&test) || pending.contains(&test) {
                        continue; // already have this vector; try again
                    }
                    pending.push(test);
                    produced += 1;
                }
                PodemOutcome::Untestable => {
                    gave_up = Some(false);
                    break;
                }
                PodemOutcome::Aborted => {
                    gave_up = Some(true);
                    break;
                }
            }
        }
        match gave_up {
            Some(false) => untestable.push(fault_id),
            Some(true) if produced == 0 && deficit[pos] == n => {
                // PODEM ran out of budget with nothing to show, so the
                // complete SAT engine settles the fault: a test or a
                // redundancy proof, usually in milliseconds. It runs with
                // its own (generous) conflict budget so a pathological
                // miter cannot stall the whole flow.
                let settled = crate::sat::generate_sat_bounded(
                    circuit,
                    view,
                    fault,
                    Some((options.backtrack_limit * 8).max(20_000)),
                );
                match settled {
                    Some(crate::sat::SatOutcome::Test(test)) => {
                        if !seen.contains(&test) && !pending.contains(&test) {
                            pending.push(test);
                        }
                    }
                    Some(crate::sat::SatOutcome::Untestable) => untestable.push(fault_id),
                    None => aborted.push(fault_id),
                }
            }
            _ => {}
        }
    }
    if !pending.is_empty() {
        absorb_block(
            view,
            universe,
            faults,
            &mut engine,
            &pending,
            &mut deficit,
            &mut tests,
            &mut seen,
        );
    }

    if options.compact {
        tests = reverse_compact(circuit, view, universe, faults, &tests, n);
    }

    GeneratedTestSet {
        tests,
        untestable,
        aborted,
    }
}

/// Simulates a batch of candidate tests and keeps each test that supplies at
/// least one missing detection. Returns how many tests were kept.
#[allow(clippy::too_many_arguments)]
fn absorb_block(
    view: &CombView,
    universe: &FaultUniverse,
    faults: &[FaultId],
    engine: &mut Engine<'_>,
    candidates: &[BitVec],
    deficit: &mut [u32],
    tests: &mut Vec<BitVec>,
    seen: &mut HashSet<BitVec>,
) -> usize {
    let width = view.inputs().len();
    let mut kept = 0;
    for chunk in candidates.chunks(LANES) {
        engine.load_block(&PatternBlock::from_patterns(width, chunk));
        // Detection words for faults that still need detections.
        let mut words: Vec<(usize, u64)> = Vec::new();
        for (pos, &fault_id) in faults.iter().enumerate() {
            if deficit[pos] > 0 {
                let w = engine.detect_lanes(universe.fault(fault_id));
                if w != 0 {
                    words.push((pos, w));
                }
            }
        }
        for (lane, test) in chunk.iter().enumerate() {
            if seen.contains(test) {
                continue;
            }
            let helped: Vec<usize> = words
                .iter()
                .filter(|&&(pos, w)| deficit[pos] > 0 && w >> lane & 1 == 1)
                .map(|&(pos, _)| pos)
                .collect();
            if helped.is_empty() {
                continue;
            }
            for pos in helped {
                deficit[pos] -= 1;
            }
            seen.insert(test.clone());
            tests.push(test.clone());
            kept += 1;
        }
    }
    kept
}

/// Reverse-order test-set compaction for `n`-detection sets.
///
/// Processes tests from last to first and drops a test when every fault it
/// detects keeps at least `min(n, total detections of that fault)`
/// detections without it. For `n = 1` this is the classic reverse-order
/// compaction pass.
///
/// # Example
///
/// ```
/// use sdd_atpg::reverse_compact;
/// use sdd_fault::FaultUniverse;
/// use sdd_netlist::{library, CombView};
/// use sdd_logic::BitVec;
///
/// let c17 = library::c17();
/// let view = CombView::new(&c17);
/// let u = FaultUniverse::enumerate(&c17);
/// let collapsed = u.collapse_on(&c17);
/// // Duplicated tests compact away:
/// let t: BitVec = "10111".parse()?;
/// let tests = vec![t.clone(), t.clone(), t];
/// let compacted = reverse_compact(&c17, &view, &u, collapsed.representatives(), &tests, 1);
/// assert_eq!(compacted.len(), 1);
/// # Ok::<(), sdd_logic::ParseBitVecError>(())
/// ```
pub fn reverse_compact(
    circuit: &Circuit,
    view: &CombView,
    universe: &FaultUniverse,
    faults: &[FaultId],
    tests: &[BitVec],
    n: u32,
) -> Vec<BitVec> {
    if tests.is_empty() {
        return Vec::new();
    }
    let matrix = ResponseMatrix::simulate(circuit, view, universe, faults, tests);
    let totals = matrix.detection_counts();
    let required: Vec<u32> = totals.iter().map(|&t| t.min(n)).collect();
    let mut live = totals;
    let mut keep = vec![true; tests.len()];
    for test in (0..tests.len()).rev() {
        let row = matrix.classes(test);
        let droppable = row
            .iter()
            .enumerate()
            .all(|(fault, &class)| class == 0 || live[fault] > required[fault]);
        if droppable {
            keep[test] = false;
            for (fault, &class) in row.iter().enumerate() {
                if class != 0 {
                    live[fault] -= 1;
                }
            }
        }
    }
    tests
        .iter()
        .zip(&keep)
        .filter(|&(_, &k)| k)
        .map(|(t, _)| t.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_netlist::{generator, library};

    fn coverage_check(
        circuit: &Circuit,
        set: &GeneratedTestSet,
        universe: &FaultUniverse,
        faults: &[FaultId],
        n: u32,
    ) {
        let view = CombView::new(circuit);
        let matrix = ResponseMatrix::simulate(circuit, &view, universe, faults, &set.tests);
        let counts = matrix.detection_counts();
        for (pos, &fault_id) in faults.iter().enumerate() {
            if set.untestable.contains(&fault_id) || set.aborted.contains(&fault_id) {
                continue;
            }
            assert!(
                counts[pos] >= n.min(counts[pos].max(1)),
                "{} detected {} < {n} times",
                universe.fault(fault_id).describe(circuit),
                counts[pos]
            );
            assert!(
                counts[pos] >= 1,
                "{} undetected",
                universe.fault(fault_id).describe(circuit)
            );
        }
    }

    #[test]
    fn one_detect_covers_all_c17_faults() {
        let c = library::c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let set = generate_detection(
            &c,
            &view,
            &universe,
            collapsed.representatives(),
            1,
            &AtpgOptions::default(),
        );
        assert!(set.untestable.is_empty());
        assert!(set.aborted.is_empty());
        coverage_check(&c, &set, &universe, collapsed.representatives(), 1);
        // c17 is fully testable with very few tests.
        assert!(set.len() <= 10, "{} tests is not compact", set.len());
    }

    #[test]
    fn ten_detect_is_larger_than_one_detect() {
        let c = generator::iscas89("s298", 11).unwrap();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let faults = collapsed.representatives();
        let one = generate_detection(&c, &view, &universe, faults, 1, &AtpgOptions::default());
        let ten = generate_detection(&c, &view, &universe, faults, 10, &AtpgOptions::default());
        assert!(
            ten.len() > one.len(),
            "10-detect ({}) should exceed 1-detect ({})",
            ten.len(),
            one.len()
        );
        coverage_check(&c, &ten, &universe, faults, 10);
    }

    #[test]
    fn ten_detect_counts_verified_exactly() {
        let c = library::c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let faults = collapsed.representatives();
        let set = generate_detection(&c, &view, &universe, faults, 10, &AtpgOptions::default());
        let matrix = ResponseMatrix::simulate(&c, &view, &universe, faults, &set.tests);
        let counts = matrix.detection_counts();
        // c17 with 5 inputs has at most 32 distinct tests; each fault is
        // detected by however many exist, at least min(10, possible).
        for (pos, &id) in faults.iter().enumerate() {
            let fault = universe.fault(id);
            let possible = (0u32..32)
                .filter(|&w| {
                    let pattern: BitVec = (0..5).map(|i| w >> i & 1 == 1).collect();
                    sdd_sim::reference::faulty_response(&c, &view, fault, &pattern)
                        != sdd_sim::reference::good_response(&c, &view, &pattern)
                })
                .count() as u32;
            assert!(
                counts[pos] >= possible.min(10),
                "{}: {} < min(10, {possible})",
                fault.describe(&c),
                counts[pos]
            );
        }
    }

    #[test]
    fn compaction_preserves_coverage() {
        let c = generator::iscas89("s208", 4).unwrap();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let faults = collapsed.representatives();
        let loose = generate_detection(
            &c,
            &view,
            &universe,
            faults,
            1,
            &AtpgOptions {
                compact: false,
                ..AtpgOptions::default()
            },
        );
        let tight = reverse_compact(&c, &view, &universe, faults, &loose.tests, 1);
        assert!(tight.len() <= loose.tests.len());
        let before = ResponseMatrix::simulate(&c, &view, &universe, faults, &loose.tests);
        let after = ResponseMatrix::simulate(&c, &view, &universe, faults, &tight);
        for fault in 0..faults.len() {
            let covered_before = before.detection_counts()[fault] > 0;
            let covered_after = after.detection_counts()[fault] > 0;
            assert_eq!(covered_before, covered_after, "fault {fault}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let c = library::c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let opts = AtpgOptions::default();
        let a = generate_detection(&c, &view, &universe, collapsed.representatives(), 1, &opts);
        let b = generate_detection(&c, &view, &universe, collapsed.representatives(), 1, &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn sat_fallback_eliminates_aborts() {
        // With a zero backtrack budget PODEM aborts on anything nontrivial;
        // the SAT fallback must still settle every fault definitively.
        let c = generator::iscas89("s208", 4).unwrap();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let faults = collapsed.representatives();
        let opts = AtpgOptions {
            backtrack_limit: 0,
            max_random_blocks: 0, // force the deterministic phase to work
            ..AtpgOptions::default()
        };
        let set = generate_detection(&c, &view, &universe, faults, 1, &opts);
        assert!(set.aborted.is_empty(), "SAT settles everything");
        let matrix = ResponseMatrix::simulate(&c, &view, &universe, faults, &set.tests);
        let counts = matrix.detection_counts();
        for (pos, &id) in faults.iter().enumerate() {
            if !set.untestable.contains(&id) {
                assert!(counts[pos] > 0, "{}", universe.fault(id).describe(&c));
            }
        }
    }

    #[test]
    #[should_panic(expected = "n >= 1")]
    fn zero_detection_panics() {
        let c = library::c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        generate_detection(
            &c,
            &view,
            &universe,
            collapsed.representatives(),
            0,
            &AtpgOptions::default(),
        );
    }

    #[test]
    fn empty_test_list_compacts_to_empty() {
        let c = library::c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        assert!(
            reverse_compact(&c, &view, &universe, collapsed.representatives(), &[], 1).is_empty()
        );
    }
}
