//! Test-pattern ordering for early diagnosis.
//!
//! The paper's reference [13] (Bernardi et al., VTS 2006) orders patterns
//! so that dictionaries shrink/diagnose faster. This module implements the
//! diagnosis-oriented variant: reorder the tests so that the partition of
//! faults refines as early as possible, letting an on-tester flow stop
//! applying patterns once the observed signature is already unique.
//!
//! The greedy objective at each step is the same `dist` quantity Procedure
//! 1 maximizes, so the machinery is shared.

use sdd_sim::{Partition, ResponseMatrix};

use crate::{score_candidates_into, ScoreScratch};

/// Greedily orders tests so each next test distinguishes the most remaining
/// fault pairs under the given same/different `baselines` (use all zeros
/// for a pass/fail dictionary).
///
/// Returns the test order; tests contributing nothing come last, in their
/// original relative order.
///
/// # Panics
///
/// Panics if `baselines.len()` differs from the test count.
///
/// # Example
///
/// ```
/// use sdd_core::order_tests_for_resolution;
///
/// let m = sdd_core::example::paper_example();
/// let order = order_tests_for_resolution(&m, &[2, 1]);
/// assert_eq!(order.len(), 2);
/// assert_eq!(order[0], 0, "t0 distinguishes 4 pairs, t1 only 2");
/// ```
pub fn order_tests_for_resolution(matrix: &ResponseMatrix, baselines: &[u32]) -> Vec<usize> {
    let k = matrix.test_count();
    assert_eq!(baselines.len(), k, "one baseline class per test");
    let mut remaining: Vec<usize> = (0..k).collect();
    let mut order = Vec::with_capacity(k);
    let mut pairs = Partition::unit(matrix.fault_count());
    let mut scratch = ScoreScratch::default();

    while !remaining.is_empty() {
        let mut best_pos = 0;
        let mut best_gain = 0u64;
        for (pos, &test) in remaining.iter().enumerate() {
            // The gain of a test's own baseline is the pairs it would split.
            let gain =
                score_candidates_into(matrix, test, &pairs, &mut scratch)[baselines[test] as usize];
            if gain > best_gain {
                best_gain = gain;
                best_pos = pos;
            }
        }
        if best_gain == 0 {
            // Nothing left to distinguish: append the rest in original order.
            order.append(&mut remaining);
            break;
        }
        let test = remaining.remove(best_pos);
        let classes = matrix.classes(test);
        let baseline = baselines[test];
        pairs.refine_bits(|i| classes[i] == baseline);
        order.push(test);
    }
    order
}

/// The *resolution profile* of a test order: after each prefix of tests,
/// how many fault pairs remain indistinguished. A good order drops fast.
///
/// # Example
///
/// ```
/// use sdd_core::{order_tests_for_resolution, resolution_profile};
///
/// let m = sdd_core::example::paper_example();
/// let profile = resolution_profile(&m, &[2, 1], &[0, 1]);
/// assert_eq!(profile, vec![6, 2, 0]); // C(4,2) → after t0 → after t1
/// ```
pub fn resolution_profile(matrix: &ResponseMatrix, baselines: &[u32], order: &[usize]) -> Vec<u64> {
    let mut pairs = Partition::unit(matrix.fault_count());
    let mut profile = vec![pairs.indistinguished_pairs()];
    for &test in order {
        let classes = matrix.classes(test);
        let baseline = baselines[test];
        pairs.refine_bits(|i| classes[i] == baseline);
        profile.push(pairs.indistinguished_pairs());
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::paper_example;

    #[test]
    fn ordering_is_a_permutation() {
        let m = paper_example();
        let order = order_tests_for_resolution(&m, &[0, 0]);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn greedy_order_dominates_reverse_order_early() {
        let m = paper_example();
        let baselines = [2u32, 1];
        let greedy = order_tests_for_resolution(&m, &baselines);
        let reversed: Vec<usize> = greedy.iter().rev().copied().collect();
        let pg = resolution_profile(&m, &baselines, &greedy);
        let pr = resolution_profile(&m, &baselines, &reversed);
        // Same final resolution…
        assert_eq!(pg.last(), pr.last());
        // …but the greedy prefix is never behind.
        for (a, b) in pg.iter().zip(&pr) {
            assert!(a <= b, "greedy {pg:?} vs reversed {pr:?}");
        }
    }

    #[test]
    fn profile_is_monotone_nonincreasing() {
        let m = paper_example();
        for baselines in [[0u32, 0], [2, 1]] {
            let profile = resolution_profile(&m, &baselines, &[0, 1]);
            for pair in profile.windows(2) {
                assert!(pair[1] <= pair[0]);
            }
        }
    }

    #[test]
    fn useless_tests_sink_to_the_end() {
        use sdd_logic::BitVec;
        let bv = |s: &str| s.parse::<BitVec>().unwrap();
        // Test 0 is useless (all faults alike); test 1 splits.
        let m = sdd_sim::ResponseMatrix::from_responses(
            vec![bv("0"), bv("0")],
            &[vec![bv("1"), bv("1")], vec![bv("1"), bv("0")]],
        );
        let order = order_tests_for_resolution(&m, &[0, 0]);
        assert_eq!(order, vec![1, 0]);
    }
}
