//! Dictionary column pruning: dropping tests that add no resolution.
//!
//! Classic small-dictionary work (the paper's refs [2], [9], [12]) shrinks
//! dictionaries by removing redundant information. For a same/different
//! dictionary a test's *column* is redundant when the partition induced by
//! all other kept columns already refines everything this column would
//! split. Pruning the matrix columns shrinks the stored dictionary below
//! `k·(n+m)` without losing a single distinguished pair.

use sdd_sim::{Partition, ResponseMatrix};

use crate::{score_candidates_into, ScoreScratch};

/// Returns the tests whose columns carry resolution, preserving exactly the
/// partition of the unpruned dictionary with these `baselines`.
///
/// The scan is sequential, so mutually redundant duplicate columns keep one
/// representative.
///
/// # Panics
///
/// Panics if `baselines.len()` differs from the test count.
///
/// # Example
///
/// ```
/// use sdd_core::prune_tests;
///
/// let m = sdd_core::example::paper_example();
/// // Both of the example's tests carry resolution with the paper baselines:
/// assert_eq!(prune_tests(&m, &[2, 1]), vec![0, 1]);
/// ```
pub fn prune_tests(matrix: &ResponseMatrix, baselines: &[u32]) -> Vec<usize> {
    let k = matrix.test_count();
    let n = matrix.fault_count();
    assert_eq!(baselines.len(), k, "one baseline class per test");

    // suffix[j] = partition of tests j..k (all still candidates).
    let mut suffix: Vec<Partition> = Vec::with_capacity(k + 1);
    suffix.push(Partition::unit(n));
    for j in (0..k).rev() {
        let mut p = suffix.last().expect("nonempty").clone();
        let classes = matrix.classes(j);
        let baseline = baselines[j];
        p.refine_bits(|i| classes[i] == baseline);
        suffix.push(p);
    }
    suffix.reverse();

    let mut kept = Vec::new();
    let mut prefix = Partition::unit(n);
    let mut scratch = ScoreScratch::default();
    for j in 0..k {
        let without_j = prefix.intersect(&suffix[j + 1]);
        let gains = score_candidates_into(matrix, j, &without_j, &mut scratch);
        if gains[baselines[j] as usize] > 0 {
            kept.push(j);
            let classes = matrix.classes(j);
            let baseline = baselines[j];
            prefix.refine_bits(|i| classes[i] == baseline);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::paper_example;
    use crate::procedure2::indistinguished_with;

    fn partition_of(matrix: &ResponseMatrix, baselines: &[u32], tests: &[usize]) -> Partition {
        let mut p = Partition::unit(matrix.fault_count());
        for &j in tests {
            let classes = matrix.classes(j);
            let baseline = baselines[j];
            p.refine_bits(|i| classes[i] == baseline);
        }
        p
    }

    #[test]
    fn pruning_preserves_resolution_on_example() {
        let m = paper_example();
        for baselines in [[0u32, 0], [2, 1], [1, 2], [2, 0]] {
            let kept = prune_tests(&m, &baselines);
            let full = indistinguished_with(&m, &baselines);
            let pruned = partition_of(&m, &baselines, &kept).indistinguished_pairs();
            assert_eq!(full, pruned, "baselines {baselines:?}");
        }
    }

    #[test]
    fn duplicate_columns_keep_one_representative() {
        // Build a matrix with two identical tests: one must go.
        use sdd_logic::BitVec;
        let bv = |s: &str| s.parse::<BitVec>().unwrap();
        let m = sdd_sim::ResponseMatrix::from_responses(
            vec![bv("00"), bv("00"), bv("11")],
            &[
                vec![bv("00"), bv("10")],
                vec![bv("00"), bv("10")], // identical to test 0
                vec![bv("11"), bv("11")], // detects nothing extra
            ],
        );
        let kept = prune_tests(&m, &[0, 0, 0]);
        // The forward scan sees test 0's information still present in the
        // suffix, so the *last* duplicate survives; either way exactly one
        // informative column remains.
        assert_eq!(kept, vec![1]);
        let full = indistinguished_with(&m, &[0, 0, 0]);
        assert_eq!(
            partition_of(&m, &[0, 0, 0], &kept).indistinguished_pairs(),
            full
        );
    }

    #[test]
    fn useless_dictionary_prunes_to_nothing() {
        use sdd_logic::BitVec;
        let bv = |s: &str| s.parse::<BitVec>().unwrap();
        // One test where every fault responds identically: no resolution.
        let m = sdd_sim::ResponseMatrix::from_responses(
            vec![bv("0")],
            &[vec![bv("1"), bv("1"), bv("1")]],
        );
        assert!(prune_tests(&m, &[0]).is_empty());
    }
}
