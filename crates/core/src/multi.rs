//! Multiple baselines per test — the generalization the paper points at
//! ("One can select more than one baseline vector for a test vector. In
//! this work we select only one per test vector.").
//!
//! With `B` baselines per test the dictionary stores `B` bits per
//! (fault, test) — one equality comparison per baseline — at a cost of
//! `Σ_j B_j·(n + m)` bits. Each extra baseline refines the partition
//! induced by its test, so resolution improves monotonically in `B` and
//! reaches full-dictionary resolution once every response class of a test
//! is distinguishable by the chosen baselines.

use sdd_logic::BitVec;
use sdd_sim::{Partition, ResponseMatrix};

use crate::{score_candidates_into, ScoreScratch};

/// A same/different dictionary with (up to) several baseline vectors per
/// test.
///
/// # Example
///
/// ```
/// use sdd_core::multi::MultiBaselineDictionary;
///
/// let matrix = sdd_core::example::paper_example();
/// // Two baselines for t0, none extra for t1.
/// let d = MultiBaselineDictionary::build(&matrix, &[vec![2, 0], vec![1]]);
/// assert_eq!(d.baseline_count(), 3);
/// assert_eq!(d.indistinguished_pairs(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiBaselineDictionary {
    signatures: Vec<BitVec>,
    baselines: Vec<Vec<BitVec>>,
    baseline_classes: Vec<Vec<u32>>,
    faults: usize,
    outputs: usize,
}

impl MultiBaselineDictionary {
    /// Builds the dictionary from one *list* of baseline classes per test.
    ///
    /// # Panics
    ///
    /// Panics if the outer length differs from the test count or any class
    /// is out of range for its test.
    pub fn build(matrix: &ResponseMatrix, baselines: &[Vec<u32>]) -> Self {
        assert_eq!(
            baselines.len(),
            matrix.test_count(),
            "one baseline list per test"
        );
        let baseline_vectors: Vec<Vec<BitVec>> = baselines
            .iter()
            .enumerate()
            .map(|(test, classes)| classes.iter().map(|&c| matrix.response(test, c)).collect())
            .collect();
        let signatures = (0..matrix.fault_count())
            .map(|fault| {
                let mut bits = BitVec::new();
                for (test, classes) in baselines.iter().enumerate() {
                    let class = matrix.class(test, fault);
                    bits.extend(classes.iter().map(|&b| class != b));
                }
                bits
            })
            .collect();
        Self {
            signatures,
            baselines: baseline_vectors,
            baseline_classes: baselines.to_vec(),
            faults: matrix.fault_count(),
            outputs: matrix.output_count(),
        }
    }

    /// Total number of baselines across all tests (`Σ_j B_j`).
    pub fn baseline_count(&self) -> usize {
        self.baselines.iter().map(Vec::len).sum()
    }

    /// The baselines of test `j`.
    pub fn baselines(&self, test: usize) -> &[BitVec] {
        &self.baselines[test]
    }

    /// The signature of fault `i`: `Σ_j B_j` bits, tests concatenated in
    /// order.
    pub fn signature(&self, fault: usize) -> &BitVec {
        &self.signatures[fault]
    }

    /// Dictionary size in bits: `Σ_j B_j·(n + m)` — each baseline costs a
    /// bit column plus its stored vector.
    pub fn size_bits(&self) -> u64 {
        self.baseline_count() as u64 * (self.faults as u64 + self.outputs as u64)
    }

    /// The partition of faults by signature equality.
    pub fn partition(&self) -> Partition {
        let width = self.signatures.first().map_or(0, BitVec::len);
        let mut p = Partition::unit(self.signatures.len());
        for bit in 0..width {
            p.refine_bits(|i| self.signatures[i].bit(bit));
        }
        p
    }

    /// Fault pairs the dictionary cannot distinguish.
    pub fn indistinguished_pairs(&self) -> u64 {
        self.partition().indistinguished_pairs()
    }
}

/// Greedily selects up to `per_test` baselines for every test: each test
/// repeatedly takes the candidate with the largest `dist` gain against the
/// current partition, stopping early when no candidate helps.
///
/// `per_test = 1` coincides with one Procedure 1 pass in natural order.
///
/// # Example
///
/// ```
/// use sdd_core::multi::{select_multi_baselines, MultiBaselineDictionary};
///
/// let matrix = sdd_core::example::paper_example();
/// let baselines = select_multi_baselines(&matrix, 2);
/// let d = MultiBaselineDictionary::build(&matrix, &baselines);
/// assert_eq!(d.indistinguished_pairs(), 0);
/// ```
pub fn select_multi_baselines(matrix: &ResponseMatrix, per_test: usize) -> Vec<Vec<u32>> {
    let mut pairs = Partition::unit(matrix.fault_count());
    let mut scratch = ScoreScratch::default();
    let mut baselines: Vec<Vec<u32>> = vec![Vec::new(); matrix.test_count()];
    for (test, chosen) in baselines.iter_mut().enumerate() {
        for _ in 0..per_test {
            let gains = score_candidates_into(matrix, test, &pairs, &mut scratch);
            let (best, &gain) = gains
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .expect("at least the fault-free class");
            if gain == 0 {
                break;
            }
            chosen.push(best as u32);
            let classes = matrix.classes(test);
            pairs.refine_bits(|i| classes[i] == best as u32);
        }
        // Every test contributes at least one baseline so the dictionary
        // stays a strict generalization of the single-baseline one.
        if chosen.is_empty() {
            chosen.push(0);
        }
    }
    baselines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::paper_example;
    use crate::{select_baselines_once, SameDifferentDictionary};

    #[test]
    fn single_baseline_matches_same_different() {
        let m = paper_example();
        let multi = select_multi_baselines(&m, 1);
        let flat: Vec<u32> = multi.iter().map(|b| b[0]).collect();
        let (single, _) = select_baselines_once(&m, &[0, 1], None);
        assert_eq!(flat, single);
        let md = MultiBaselineDictionary::build(&m, &multi);
        let sd = SameDifferentDictionary::build(&m, &single);
        assert_eq!(md.indistinguished_pairs(), sd.indistinguished_pairs());
        assert_eq!(md.size_bits(), sd.size_bits());
    }

    #[test]
    fn more_baselines_never_hurt() {
        let m = paper_example();
        let mut last = u64::MAX;
        for per_test in 1..=3 {
            let baselines = select_multi_baselines(&m, per_test);
            let d = MultiBaselineDictionary::build(&m, &baselines);
            assert!(d.indistinguished_pairs() <= last);
            last = d.indistinguished_pairs();
        }
        assert_eq!(last, 0);
    }

    #[test]
    fn greedy_stops_when_nothing_helps() {
        let m = paper_example();
        let baselines = select_multi_baselines(&m, 10);
        // The example resolves fully with a handful of baselines; greedy
        // must not pile on useless ones.
        let total: usize = baselines.iter().map(Vec::len).sum();
        assert!(total <= 4, "greedy kept {total} baselines");
    }

    #[test]
    fn size_formula() {
        let m = paper_example();
        let d = MultiBaselineDictionary::build(&m, &[vec![0, 1], vec![2]]);
        // 3 baselines × (4 faults + 2 outputs) = 18 bits.
        assert_eq!(d.size_bits(), 18);
        assert_eq!(d.baseline_count(), 3);
        assert_eq!(d.baselines(0).len(), 2);
        assert_eq!(d.signature(0).len(), 3);
    }

    #[test]
    #[should_panic(expected = "one baseline list per test")]
    fn wrong_outer_length_panics() {
        MultiBaselineDictionary::build(&paper_example(), &[vec![0]]);
    }
}
