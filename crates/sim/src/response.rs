//! Response-class matrices: the distilled fault-simulation result that
//! fault dictionaries are built from.

use std::collections::HashMap;

use sdd_fault::{FaultId, FaultUniverse};
use sdd_logic::{BitVec, PatternBlock, LANES};
use sdd_netlist::{Circuit, CombView};

use crate::parallel::{fan_out, worker_chunks};
use crate::Engine;

/// For every test and every fault, *which* output vector the faulty circuit
/// produces — encoded as a small per-test class label rather than the vector
/// itself.
///
/// Class `0` is always the fault-free response `z_ff,j`; faults sharing a
/// class under a test produce identical output vectors there. The paper's
/// candidate set `Z_j` is exactly the set of classes of test `j`, and every
/// dictionary question (pass/fail bits, same/different bits with any
/// baseline, full-dictionary resolution) reduces to label comparisons.
///
/// # Example
///
/// ```
/// use sdd_fault::FaultUniverse;
/// use sdd_netlist::{library, CombView};
/// use sdd_sim::ResponseMatrix;
/// use sdd_logic::BitVec;
///
/// let c17 = library::c17();
/// let view = CombView::new(&c17);
/// let universe = FaultUniverse::enumerate(&c17);
/// let collapsed = universe.collapse_on(&c17);
/// let tests: Vec<BitVec> = vec!["10111".parse()?, "01101".parse()?];
/// let m = ResponseMatrix::simulate(&c17, &view, &universe, collapsed.representatives(), &tests);
/// // The response of class 0 is the fault-free response:
/// assert_eq!(m.response(0, 0), *m.good_response(0));
/// # Ok::<(), sdd_logic::ParseBitVecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseMatrix {
    fault_count: usize,
    output_count: usize,
    /// Row-major `class[test * fault_count + fault]`.
    class: Vec<u32>,
    /// Per test: class id → sorted list of flipped output positions
    /// (class 0 = empty).
    distinct: Vec<Vec<Vec<u32>>>,
    good: Vec<BitVec>,
}

impl ResponseMatrix {
    /// Fault-simulates `faults` (given as ids into `universe`) against
    /// `tests` and builds the class matrix: [`simulate_jobs`](Self::simulate_jobs)
    /// on one thread.
    ///
    /// # Panics
    ///
    /// Panics if any test's width differs from the view's input count.
    pub fn simulate(
        circuit: &Circuit,
        view: &CombView,
        universe: &FaultUniverse,
        faults: &[FaultId],
        tests: &[BitVec],
    ) -> Self {
        Self::simulate_jobs(circuit, view, universe, faults, tests, 1)
    }

    /// Fault-simulates `faults` against `tests` on at most `jobs` worker
    /// threads and builds the class matrix.
    ///
    /// The fault list is cut into contiguous chunks, one per worker (at
    /// most one per 32 faults), and each worker keeps one [`Engine`] across
    /// the 64-test blocks. Per block every worker loads the block and runs
    /// its chunk; the block's columns are then interned in fault order,
    /// the order of a serial scan. Class labels therefore never depend on
    /// scheduling, and the matrix is identical (`==`, and byte-identical
    /// once stored) for every `jobs`.
    ///
    /// # Panics
    ///
    /// Panics if any test's width differs from the view's input count.
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_fault::FaultUniverse;
    /// use sdd_netlist::{library, CombView};
    /// use sdd_sim::ResponseMatrix;
    /// use sdd_logic::BitVec;
    ///
    /// let c17 = library::c17();
    /// let view = CombView::new(&c17);
    /// let universe = FaultUniverse::enumerate(&c17);
    /// let collapsed = universe.collapse_on(&c17);
    /// let tests: Vec<BitVec> = vec!["10111".parse()?, "01101".parse()?];
    /// let serial = ResponseMatrix::simulate(&c17, &view, &universe, collapsed.representatives(), &tests);
    /// let parallel = ResponseMatrix::simulate_jobs(&c17, &view, &universe, collapsed.representatives(), &tests, 4);
    /// assert_eq!(serial, parallel);
    /// # Ok::<(), sdd_logic::ParseBitVecError>(())
    /// ```
    pub fn simulate_jobs(
        circuit: &Circuit,
        view: &CombView,
        universe: &FaultUniverse,
        faults: &[FaultId],
        tests: &[BitVec],
        jobs: usize,
    ) -> Self {
        let width = view.inputs().len();
        let mut table = ClassTable::new(faults.len(), tests.len());
        let mut good = Vec::with_capacity(tests.len());
        let mut workers: Vec<_> = worker_chunks(faults, jobs)
            .into_iter()
            .map(|chunk| (Engine::new(circuit, view), chunk))
            .collect();
        for patterns in tests.chunks(LANES) {
            let block = PatternBlock::from_patterns(width, patterns);
            let diffs = fan_out(&mut workers, |(engine, chunk)| {
                engine.load_block(&block);
                chunk
                    .iter()
                    .map(|&id| engine.run_fault(universe.fault(id)).output_diffs)
                    .collect::<Vec<_>>()
            });
            good.extend((0..patterns.len()).map(|lane| workers[0].0.good_response(lane)));
            table.push_block(block.lane_mask(), diffs.iter().flatten().map(Vec::as_slice));
        }
        table.into_matrix(good, view.outputs().len())
    }

    /// Builds a matrix from explicit responses instead of simulation: one
    /// fault-free response and one faulty response per fault, for each test.
    /// Useful for worked examples and tests.
    ///
    /// Class labels follow the same convention as simulation: class 0 is the
    /// fault-free response, further classes in first-occurrence order
    /// scanning faults in index order.
    ///
    /// # Panics
    ///
    /// Panics if row lengths are inconsistent or response widths differ.
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_logic::BitVec;
    /// use sdd_sim::ResponseMatrix;
    ///
    /// let bv = |s: &str| s.parse::<BitVec>().unwrap();
    /// // One test, fault-free response 00; two faults responding 00 and 10.
    /// let m = ResponseMatrix::from_responses(
    ///     vec![bv("00")],
    ///     &[vec![bv("00"), bv("10")]],
    /// );
    /// assert!(!m.detects(0, 0));
    /// assert!(m.detects(0, 1));
    /// ```
    pub fn from_responses(good: Vec<BitVec>, responses: &[Vec<BitVec>]) -> Self {
        assert_eq!(good.len(), responses.len(), "one response row per test");
        let fault_count = responses.first().map_or(0, Vec::len);
        let output_count = good.first().map_or(0, BitVec::len);
        let mut table = ClassTable::new(fault_count, good.len());
        for (test, row) in responses.iter().enumerate() {
            assert_eq!(row.len(), fault_count, "ragged fault row in test {test}");
            // Each test is a block of one lane: an output differs in lane 0
            // where the fault's response leaves the fault-free one.
            let diffs: Vec<Vec<(u32, u64)>> = row
                .iter()
                .map(|response| {
                    assert_eq!(response.len(), output_count, "response width mismatch");
                    (0..output_count)
                        .filter(|&o| response.bit(o) != good[test].bit(o))
                        .map(|o| (o as u32, 1))
                        .collect()
                })
                .collect();
            table.push_block(1, diffs.iter().map(Vec::as_slice));
        }
        table.into_matrix(good, output_count)
    }

    /// Reassembles a matrix from its stored parts — the exact inverse of
    /// the accessors, used by the binary dictionary store (`sdd-store`) so a
    /// deserialized full dictionary is structurally identical to the
    /// simulated one (same class labels, same distinct-vector tables).
    ///
    /// # Errors
    ///
    /// Returns [`SddError`](sdd_logic::SddError) when the parts are
    /// inconsistent: ragged class rows, class labels out of range, response
    /// widths exceeding `output_count`, or a non-empty class-0 diff list.
    pub fn from_class_parts(
        good: Vec<BitVec>,
        fault_count: usize,
        output_count: usize,
        class: Vec<u32>,
        distinct: Vec<Vec<Vec<u32>>>,
    ) -> Result<Self, sdd_logic::SddError> {
        use sdd_logic::SddError;
        if class.len() != good.len() * fault_count {
            return Err(SddError::CountMismatch {
                context: "response class matrix entries",
                expected: good.len() * fault_count,
                actual: class.len(),
            });
        }
        if distinct.len() != good.len() {
            return Err(SddError::CountMismatch {
                context: "distinct-vector tables per test",
                expected: good.len(),
                actual: distinct.len(),
            });
        }
        for (test, g) in good.iter().enumerate() {
            if g.len() != output_count {
                return Err(SddError::WidthMismatch {
                    context: "fault-free response width",
                    expected: output_count,
                    actual: g.len(),
                });
            }
            let table = &distinct[test];
            if table.first().is_none_or(|c0| !c0.is_empty()) {
                return Err(SddError::invalid(format!(
                    "test {test}: class 0 must be present with an empty diff list"
                )));
            }
            for diffs in table {
                if diffs.iter().any(|&pos| pos as usize >= output_count) {
                    return Err(SddError::invalid(format!(
                        "test {test}: diff position out of range ({output_count} outputs)"
                    )));
                }
            }
            let classes = &class[test * fault_count..(test + 1) * fault_count];
            if let Some(&bad) = classes.iter().find(|&&c| c as usize >= table.len()) {
                return Err(SddError::invalid(format!(
                    "test {test}: class label {bad} out of range ({} classes)",
                    table.len()
                )));
            }
        }
        Ok(Self {
            fault_count,
            output_count,
            class,
            distinct,
            good,
        })
    }

    /// The sorted flipped-output positions of response class `class` under
    /// `test` relative to the fault-free response (class 0 is empty) — the
    /// raw stored form behind [`response`](Self::response).
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a class of `test`.
    pub fn class_diffs(&self, test: usize, class: u32) -> &[u32] {
        &self.distinct[test][class as usize]
    }

    /// Number of tests.
    pub fn test_count(&self) -> usize {
        self.good.len()
    }

    /// Number of faults (rows are indexed by position in the fault list
    /// passed to [`simulate`](Self::simulate), not by [`FaultId`]).
    pub fn fault_count(&self) -> usize {
        self.fault_count
    }

    /// Number of observed outputs (`m` in the paper's size formulas).
    pub fn output_count(&self) -> usize {
        self.output_count
    }

    /// The response class of fault `fault` under test `test`; `0` means the
    /// fault-free response (the test does not detect the fault).
    pub fn class(&self, test: usize, fault: usize) -> u32 {
        self.class[test * self.fault_count + fault]
    }

    /// All fault classes of one test, indexed by fault position.
    pub fn classes(&self, test: usize) -> &[u32] {
        &self.class[test * self.fault_count..(test + 1) * self.fault_count]
    }

    /// Number of distinct output vectors that occur under `test` (the size
    /// of the paper's candidate set `Z_j`, counting the fault-free vector).
    pub fn class_count(&self, test: usize) -> usize {
        self.distinct[test].len()
    }

    /// Returns `true` when `test` detects `fault`.
    pub fn detects(&self, test: usize, fault: usize) -> bool {
        self.class(test, fault) != 0
    }

    /// The fault-free response of `test`.
    pub fn good_response(&self, test: usize) -> &BitVec {
        &self.good[test]
    }

    /// Materializes the output vector of response class `class` under
    /// `test`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a class of `test`.
    pub fn response(&self, test: usize, class: u32) -> BitVec {
        let mut response = self.good[test].clone();
        for &pos in &self.distinct[test][class as usize] {
            response.toggle(pos as usize);
        }
        response
    }

    /// How many tests detect each fault.
    pub fn detection_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.fault_count];
        for test in 0..self.test_count() {
            for (fault, &c) in self.classes(test).iter().enumerate() {
                if c != 0 {
                    counts[fault] += 1;
                }
            }
        }
        counts
    }

    /// Positions of faults never detected by any test (undetectable by this
    /// test set — possibly redundant faults).
    pub fn undetected_faults(&self) -> Vec<usize> {
        self.detection_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == 0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The one response-class interner behind every [`ResponseMatrix`]
/// constructor and the ECO pass's columns: a class matrix under
/// construction, appended block by block, numbering each test's distinct
/// diff lists (sorted flipped-output positions) by first appearance, with
/// class 0 the empty list. Each diff list is held once, as its map key; a
/// lookup borrows it, and only a new class copies it.
pub(crate) struct ClassTable {
    fault_count: usize,
    /// Row-major `class[test * fault_count + fault]`, as in the matrix.
    class: Vec<u32>,
    /// Per test: non-empty diff list → class id, numbered from 1 in order
    /// of first appearance.
    index: Vec<HashMap<Vec<u32>, u32>>,
    /// Per-lane diff-list scratch for [`push_block`](Self::push_block).
    lane_diffs: Vec<Vec<u32>>,
}

impl ClassTable {
    /// An empty table over `fault_count` faults, with room for `tests`
    /// columns.
    pub(crate) fn new(fault_count: usize, tests: usize) -> Self {
        Self {
            fault_count,
            class: Vec::with_capacity(tests * fault_count),
            index: Vec::with_capacity(tests),
            lane_diffs: vec![Vec::new(); LANES],
        }
    }

    /// Appends one column per set lane of `lanes` — the `i`-th set lane,
    /// counting up from lane 0, is the `i`-th new column — and interns every
    /// fault's class there. `diffs` holds each fault's output-diff words in
    /// fault order, in the [`FaultEffect::output_diffs`](crate::FaultEffect)
    /// form: ascending output positions, bit `p` set when the output
    /// differs under lane `p`. A lane without a difference is class 0.
    pub(crate) fn push_block<'d>(
        &mut self,
        lanes: u64,
        diffs: impl IntoIterator<Item = &'d [(u32, u64)]>,
    ) {
        let first_test = self.index.len();
        let columns = lanes.count_ones() as usize;
        self.class
            .resize(self.class.len() + columns * self.fault_count, 0);
        self.index.resize_with(first_test + columns, HashMap::new);
        let mut faults = 0;
        for (fault, output_diffs) in diffs.into_iter().enumerate() {
            self.record_lanes(fault, output_diffs, lanes, first_test);
            faults += 1;
        }
        debug_assert_eq!(faults, self.fault_count, "one diff list per fault");
    }

    /// Records `fault`'s class in every lane of `lanes` (see
    /// [`push_block`](Self::push_block)), the first lane being column
    /// `first_test`.
    fn record_lanes(
        &mut self,
        fault: usize,
        output_diffs: &[(u32, u64)],
        lanes: u64,
        first_test: usize,
    ) {
        let detected = output_diffs.iter().fold(0, |acc, &(_, word)| acc | word) & lanes;
        for lane in set_lanes(detected) {
            self.lane_diffs[lane].clear();
        }
        for &(pos, word) in output_diffs {
            for lane in set_lanes(word & lanes) {
                self.lane_diffs[lane].push(pos);
            }
        }
        for lane in set_lanes(detected) {
            let test = first_test + (lanes & ((1u64 << lane) - 1)).count_ones() as usize;
            let index = &mut self.index[test];
            let diffs = &self.lane_diffs[lane];
            let label = match index.get(diffs) {
                Some(&class) => class,
                None => {
                    let class = index.len() as u32 + 1;
                    index.insert(diffs.clone(), class);
                    class
                }
            };
            self.class[test * self.fault_count + fault] = label;
        }
    }

    /// The finished matrix, given each column's fault-free response. Each
    /// test's distinct-vector table is built from its map, the keys moved
    /// into place by class id.
    pub(crate) fn into_matrix(self, good: Vec<BitVec>, output_count: usize) -> ResponseMatrix {
        debug_assert_eq!(good.len(), self.index.len(), "one response per test");
        let distinct = self
            .index
            .into_iter()
            .map(|index| {
                let mut distinct = vec![Vec::new(); index.len() + 1];
                for (diffs, class) in index {
                    distinct[class as usize] = diffs;
                }
                distinct
            })
            .collect();
        ResponseMatrix {
            fault_count: self.fault_count,
            output_count,
            class: self.class,
            distinct,
            good,
        }
    }
}

/// The set lanes of `word`, lowest first.
pub(crate) fn set_lanes(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let lane = word.trailing_zeros() as usize;
            word &= word - 1;
            lane
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sdd_netlist::library::c17;

    fn setup(
        tests: &[&str],
    ) -> (
        Circuit,
        CombView,
        FaultUniverse,
        Vec<FaultId>,
        ResponseMatrix,
    ) {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let patterns: Vec<BitVec> = tests.iter().map(|s| s.parse().unwrap()).collect();
        let ids = collapsed.representatives().to_vec();
        let m = ResponseMatrix::simulate(&c, &view, &universe, &ids, &patterns);
        (c, view, universe, ids, m)
    }

    fn setup_exhaustive() -> (
        Circuit,
        CombView,
        FaultUniverse,
        Vec<FaultId>,
        ResponseMatrix,
        Vec<BitVec>,
    ) {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let patterns: Vec<BitVec> = (0u32..32)
            .map(|w| (0..5).map(|i| w >> i & 1 == 1).collect())
            .collect();
        let ids = collapsed.representatives().to_vec();
        let m = ResponseMatrix::simulate(&c, &view, &universe, &ids, &patterns);
        (c, view, universe, ids, m, patterns)
    }

    #[test]
    fn shape_is_consistent() {
        let (_, _, _, ids, m) = setup(&["10111", "01101", "00000"]);
        assert_eq!(m.test_count(), 3);
        assert_eq!(m.fault_count(), ids.len());
        assert_eq!(m.output_count(), 2);
        for t in 0..3 {
            assert_eq!(m.classes(t).len(), ids.len());
            assert!(m.class_count(t) >= 1);
        }
    }

    #[test]
    fn classes_agree_with_reference_responses() {
        let (c, view, universe, ids, m, patterns) = setup_exhaustive();
        for (t, pattern) in patterns.iter().enumerate() {
            let good = reference::good_response(&c, &view, pattern);
            assert_eq!(*m.good_response(t), good);
            let responses: Vec<BitVec> = ids
                .iter()
                .map(|&id| reference::faulty_response(&c, &view, universe.fault(id), pattern))
                .collect();
            for (a, ra) in responses.iter().enumerate() {
                // Class 0 ⇔ equals fault-free.
                assert_eq!(m.class(t, a) == 0, *ra == good, "test {t} fault {a}");
                // Materialized response matches the reference.
                assert_eq!(m.response(t, m.class(t, a)), *ra);
                for (b, rb) in responses.iter().enumerate().skip(a + 1) {
                    assert_eq!(
                        m.class(t, a) == m.class(t, b),
                        ra == rb,
                        "test {t} faults {a},{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn class_count_counts_distinct_vectors() {
        let (c, view, universe, ids, m, patterns) = setup_exhaustive();
        for (t, pattern) in patterns.iter().enumerate() {
            let mut vectors: Vec<BitVec> = ids
                .iter()
                .map(|&id| reference::faulty_response(&c, &view, universe.fault(id), pattern))
                .collect();
            vectors.push(reference::good_response(&c, &view, pattern));
            vectors.sort();
            vectors.dedup();
            assert_eq!(m.class_count(t), vectors.len(), "test {t}");
        }
    }

    #[test]
    fn detection_counts_match_manual_count() {
        let (_, _, _, _, m, _) = setup_exhaustive();
        let counts = m.detection_counts();
        for (fault, &count) in counts.iter().enumerate() {
            let manual = (0..m.test_count()).filter(|&t| m.detects(t, fault)).count() as u32;
            assert_eq!(count, manual);
        }
        // Every collapsed c17 fault is detectable by exhaustive patterns.
        assert!(m.undetected_faults().is_empty());
    }

    #[test]
    fn class_parts_round_trip_exactly() {
        let (_, _, _, _, m) = setup(&["10111", "01101", "00000"]);
        let good: Vec<BitVec> = (0..m.test_count())
            .map(|t| m.good_response(t).clone())
            .collect();
        let class: Vec<u32> = (0..m.test_count())
            .flat_map(|t| m.classes(t).to_vec())
            .collect();
        let distinct: Vec<Vec<Vec<u32>>> = (0..m.test_count())
            .map(|t| {
                (0..m.class_count(t))
                    .map(|c| m.class_diffs(t, c as u32).to_vec())
                    .collect()
            })
            .collect();
        let back = ResponseMatrix::from_class_parts(
            good,
            m.fault_count(),
            m.output_count(),
            class,
            distinct,
        )
        .unwrap();
        assert_eq!(back, m, "parts reassemble the identical matrix");
    }

    #[test]
    fn from_class_parts_rejects_inconsistent_parts() {
        let (_, _, _, _, m) = setup(&["10111"]);
        let good = vec![m.good_response(0).clone()];
        let classes = m.classes(0).to_vec();
        let distinct: Vec<Vec<Vec<u32>>> = vec![(0..m.class_count(0))
            .map(|c| m.class_diffs(0, c as u32).to_vec())
            .collect()];
        // Wrong class-entry count.
        assert!(ResponseMatrix::from_class_parts(
            good.clone(),
            m.fault_count() + 1,
            m.output_count(),
            classes.clone(),
            distinct.clone(),
        )
        .is_err());
        // Class label out of range.
        let mut bad_classes = classes.clone();
        bad_classes[0] = 99;
        assert!(ResponseMatrix::from_class_parts(
            good.clone(),
            m.fault_count(),
            m.output_count(),
            bad_classes,
            distinct.clone(),
        )
        .is_err());
        // Diff position beyond the output count.
        let mut bad_distinct = distinct.clone();
        bad_distinct[0].last_mut().unwrap().push(99);
        assert!(ResponseMatrix::from_class_parts(
            good.clone(),
            m.fault_count(),
            m.output_count(),
            classes.clone(),
            bad_distinct,
        )
        .is_err());
        // Class 0 must stay the fault-free (empty-diff) class.
        let mut bad_distinct = distinct;
        bad_distinct[0][0].push(0);
        assert!(ResponseMatrix::from_class_parts(
            good,
            m.fault_count(),
            m.output_count(),
            classes,
            bad_distinct,
        )
        .is_err());
    }

    #[test]
    fn simulation_equals_the_reference_oracle_for_any_jobs() {
        // 130 tests on s298 make three blocks, the last one partial. Its
        // collapsed faults split into chunks at jobs 2 and 3, and jobs 16
        // asks for more workers than one per 32 faults allows.
        let c = generator_circuit();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let ids = collapsed.representatives();
        let width = view.inputs().len();
        let mut rng = sdd_logic::Prng::seed_from_u64(7);
        let patterns: Vec<BitVec> = (0..130)
            .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        // The scalar reference's responses, numbered by `from_responses`
        // as the driver numbers classes: first appearance in fault order.
        let oracle = |faults: &[FaultId]| {
            let good = patterns
                .iter()
                .map(|test| reference::good_response(&c, &view, test))
                .collect();
            let responses: Vec<Vec<BitVec>> = patterns
                .iter()
                .map(|test| {
                    faults
                        .iter()
                        .map(|&id| reference::faulty_response(&c, &view, universe.fault(id), test))
                        .collect()
                })
                .collect();
            ResponseMatrix::from_responses(good, &responses)
        };
        let expected = oracle(ids);
        let no_faults = oracle(&[]);
        for jobs in [1, 2, 3, 16] {
            let simulate = |faults: &[FaultId], tests: &[BitVec]| {
                ResponseMatrix::simulate_jobs(&c, &view, &universe, faults, tests, jobs)
            };
            assert_eq!(simulate(ids, &patterns), expected, "jobs = {jobs}");
            assert_eq!(simulate(&[], &patterns), no_faults, "jobs = {jobs}");
            let no_tests = simulate(ids, &[]);
            assert_eq!(
                (no_tests.test_count(), no_tests.fault_count()),
                (0, ids.len())
            );
            assert_eq!(no_tests.output_count(), view.outputs().len());
        }
    }

    fn generator_circuit() -> Circuit {
        sdd_netlist::generator::iscas89("s298", 1).expect("known profile")
    }

    #[test]
    fn more_than_64_tests_cross_block_boundary() {
        let c = c17();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        // 96 tests: the 32 exhaustive patterns three times.
        let patterns: Vec<BitVec> = (0u32..96)
            .map(|w| (0..5).map(|i| (w % 32) >> i & 1 == 1).collect())
            .collect();
        let ids = collapsed.representatives().to_vec();
        let m = ResponseMatrix::simulate(&c, &view, &universe, &ids, &patterns);
        assert_eq!(m.test_count(), 96);
        // Repetition: test t and t+32 have identical structure.
        for t in 0..32 {
            assert_eq!(m.good_response(t), m.good_response(t + 32));
            assert_eq!(m.class_count(t), m.class_count(t + 32));
            for f in 0..m.fault_count() {
                assert_eq!(
                    m.response(t, m.class(t, f)),
                    m.response(t + 32, m.class(t + 32, f))
                );
            }
        }
    }
}
