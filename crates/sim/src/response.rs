//! Response-class matrices: the distilled fault-simulation result that
//! fault dictionaries are built from.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sdd_fault::{FaultId, FaultUniverse};
use sdd_logic::{BitVec, PatternBlock, LANES};
use sdd_netlist::{Circuit, CombView};

use crate::Engine;

/// Smallest fault chunk worth shipping to a worker thread: below this the
/// per-chunk fixed costs (a fresh [`Engine`], a redundant fault-free pass
/// per pattern block, the label remap on merge) rival the fault simulation
/// itself.
pub(crate) const MIN_CHUNK_FAULTS: usize = 32;

/// Chunks per worker. More than one lets fast workers steal the slack of
/// slow chunks (fault cost varies wildly with cone size) without shrinking
/// chunks so far the fixed costs dominate.
const CHUNKS_PER_JOB: usize = 4;

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
    /// `tests` and builds the class matrix.
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
        let width = view.inputs().len();
        let mut table = ClassTable::new(tests.len(), faults.len());
        let mut good = Vec::with_capacity(tests.len());
        let mut engine = Engine::new(circuit, view);
        for (block_index, chunk) in tests.chunks(LANES).enumerate() {
            let block = PatternBlock::from_patterns(width, chunk);
            engine.load_block(&block);
            for lane in 0..chunk.len() {
                good.push(engine.good_response(lane));
            }
            for (fault_pos, &fault_id) in faults.iter().enumerate() {
                let effect = engine.run_fault(universe.fault(fault_id));
                table.record_lanes(
                    fault_pos,
                    &effect.output_diffs,
                    block.lane_mask(),
                    block_index * LANES,
                );
            }
        }
        table.into_matrix(good, view.outputs().len())
    }

    /// [`simulate`](Self::simulate) fanned out over `jobs` worker threads.
    ///
    /// The fault list is split into contiguous chunks; each worker owns a
    /// private [`Engine`] (and its pattern-block scratch) and simulates whole
    /// chunks, pulling the next chunk index from a shared counter. Chunk
    /// results are then merged **in fault order**, re-interning each test's
    /// distinct output vectors in the order the serial scan would first meet
    /// them — so the result is identical (`==`, and byte-identical once
    /// stored) to the serial matrix for any `jobs`, and scheduling order
    /// cannot leak into class labels.
    ///
    /// `jobs == 1`, an empty fault list, or a fault list too small to cover
    /// two chunks all fall back to the serial path.
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
        let jobs = jobs.max(1);
        let chunk = faults
            .len()
            .div_ceil(jobs * CHUNKS_PER_JOB)
            .max(MIN_CHUNK_FAULTS);
        if jobs == 1 || faults.len() <= chunk {
            return Self::simulate(circuit, view, universe, faults, tests);
        }

        let chunks: Vec<&[FaultId]> = faults.chunks(chunk).collect();
        let next = AtomicUsize::new(0);
        let parts: Mutex<Vec<(usize, Self)>> = Mutex::new(Vec::with_capacity(chunks.len()));
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(chunks.len()) {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(chunk_faults) = chunks.get(index) else {
                        break;
                    };
                    let part = Self::simulate(circuit, view, universe, chunk_faults, tests);
                    parts.lock().expect("chunk result lock").push((index, part));
                });
            }
        });
        let mut parts = parts.into_inner().expect("chunk result lock");
        parts.sort_unstable_by_key(|&(index, _)| index);
        let parts = parts.into_iter().map(|(_, part)| part).collect();
        Self::merge_fault_chunks(parts, view, tests.len())
    }

    /// Concatenates per-chunk matrices (contiguous fault ranges of one fault
    /// list, same tests, in fault order) back into one matrix, re-interning
    /// class labels per test in chunk-then-fault order — exactly the
    /// first-occurrence order of the serial scan.
    fn merge_fault_chunks(parts: Vec<Self>, view: &CombView, tests: usize) -> Self {
        let fault_count = parts.iter().map(|part| part.fault_count).sum();
        let mut table = ClassTable::new(tests, fault_count);
        let mut remap: Vec<u32> = Vec::new();
        let mut offset = 0;
        for part in &parts {
            debug_assert_eq!(part.test_count(), tests, "chunks share one test set");
            for test in 0..tests {
                remap.clear();
                remap.push(0); // class 0 is fault-free in every chunk
                for diffs in &part.distinct[test][1..] {
                    remap.push(table.intern(test, diffs));
                }
                for (fault, &label) in part.classes(test).iter().enumerate() {
                    table.set(test, offset + fault, remap[label as usize]);
                }
            }
            offset += part.fault_count;
        }
        // Every chunk simulated the same fault-free responses; keep the
        // first copy.
        let good = parts.into_iter().next().map(|part| part.good);
        table.into_matrix(good.unwrap_or_default(), view.outputs().len())
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
        let mut table = ClassTable::new(good.len(), fault_count);
        let mut diff: Vec<u32> = Vec::new();
        for (test, row) in responses.iter().enumerate() {
            assert_eq!(row.len(), fault_count, "ragged fault row in test {test}");
            for (fault, response) in row.iter().enumerate() {
                assert_eq!(response.len(), output_count, "response width mismatch");
                diff.clear();
                diff.extend(
                    (0..output_count)
                        .filter(|&o| response.bit(o) != good[test].bit(o))
                        .map(|o| o as u32),
                );
                let label = table.intern(test, &diff);
                table.set(test, fault, label);
            }
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
/// constructor: a class matrix under construction, numbering each test's
/// distinct diff lists (sorted flipped-output positions) by first
/// appearance, with class 0 the empty list. A lookup borrows its diff list;
/// only a new class copies it.
pub(crate) struct ClassTable {
    fault_count: usize,
    /// Row-major `class[test * fault_count + fault]`, as in the matrix.
    class: Vec<u32>,
    /// Per test: class id → diff list.
    distinct: Vec<Vec<Vec<u32>>>,
    /// Per test: diff list → class id.
    index: Vec<HashMap<Vec<u32>, u32>>,
    /// Per-lane diff-list scratch for [`record_lanes`](Self::record_lanes).
    lane_diffs: Vec<Vec<u32>>,
}

impl ClassTable {
    /// An empty table of `tests` columns over `fault_count` faults, every
    /// entry class 0.
    pub(crate) fn new(tests: usize, fault_count: usize) -> Self {
        Self {
            fault_count,
            class: vec![0; tests * fault_count],
            distinct: vec![vec![Vec::new()]; tests],
            index: (0..tests).map(|_| HashMap::new()).collect(),
            lane_diffs: (0..LANES).map(|_| Vec::new()).collect(),
        }
    }

    /// The class of `diffs` under `test`, numbering it on first appearance.
    fn intern(&mut self, test: usize, diffs: &[u32]) -> u32 {
        intern(&mut self.index[test], &mut self.distinct[test], diffs)
    }

    /// Sets `fault`'s class under `test`.
    fn set(&mut self, test: usize, fault: usize, class: u32) {
        self.class[test * self.fault_count + fault] = class;
    }

    /// Records `fault`'s class in every lane of `lanes` from its output-diff
    /// words (the [`FaultEffect::output_diffs`](crate::FaultEffect) form: ascending
    /// output positions, bit `p` set when the output differs under lane
    /// `p`). The `i`-th set lane of `lanes`, counting up from lane 0, is test
    /// `first_test + i`; lanes without a difference stay class 0.
    pub(crate) fn record_lanes(
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
            let label = intern(
                &mut self.index[test],
                &mut self.distinct[test],
                &self.lane_diffs[lane],
            );
            self.class[test * self.fault_count + fault] = label;
        }
    }

    /// The finished matrix, given each test's fault-free response.
    pub(crate) fn into_matrix(self, good: Vec<BitVec>, output_count: usize) -> ResponseMatrix {
        debug_assert_eq!(good.len(), self.distinct.len(), "one response per test");
        ResponseMatrix {
            fault_count: self.fault_count,
            output_count,
            class: self.class,
            distinct: self.distinct,
            good,
        }
    }
}

/// One test's interning step: the class of `diffs`, appended to `distinct`
/// on first appearance. The empty list is class 0.
fn intern(index: &mut HashMap<Vec<u32>, u32>, distinct: &mut Vec<Vec<u32>>, diffs: &[u32]) -> u32 {
    if diffs.is_empty() {
        return 0;
    }
    if let Some(&class) = index.get(diffs) {
        return class;
    }
    let class = distinct.len() as u32;
    distinct.push(diffs.to_vec());
    index.insert(diffs.to_vec(), class);
    class
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
    fn parallel_simulation_equals_serial_for_any_jobs() {
        // s298 has enough collapsed faults to split into several chunks, so
        // the merge path (not the small-work fallback) is what's tested.
        let c = generator_circuit();
        let view = CombView::new(&c);
        let universe = FaultUniverse::enumerate(&c);
        let collapsed = universe.collapse_on(&c);
        let ids = collapsed.representatives();
        let width = view.inputs().len();
        let mut rng = sdd_logic::Prng::seed_from_u64(7);
        let patterns: Vec<BitVec> = (0..70)
            .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let serial = ResponseMatrix::simulate(&c, &view, &universe, ids, &patterns);
        for jobs in [2, 3, 4, 16] {
            let parallel =
                ResponseMatrix::simulate_jobs(&c, &view, &universe, ids, &patterns, jobs);
            assert_eq!(serial, parallel, "jobs = {jobs}");
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
