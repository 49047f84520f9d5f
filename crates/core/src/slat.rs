//! SLAT diagnosis — the Single Location At-a-Time paradigm (Bartenstein et
//! al., ITC 2001; the paper's reference \[23\]).
//!
//! Nearest-match diagnosis ranks whole-signature distances, which degrades
//! when a defect involves *several* locations. SLAT instead works per test:
//! a failing test is a *SLAT pattern* when its observed output vector
//! exactly equals the stored response of at least one single fault — on
//! that test, the defect behaved like that single fault. A *multiplet* is a
//! small set of faults that explains (covers) every SLAT pattern. Greedy
//! set cover recovers the components of multiple-fault defects that
//! confuse single-fault matching.

use sdd_sim::ResponseMatrix;

use sdd_logic::BitVec;

/// The result of SLAT analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlatDiagnosis {
    /// Failing tests whose observed response matches no single fault —
    /// evidence of behaviour outside the dictionary's model even per-test.
    pub unexplained_tests: Vec<usize>,
    /// Failing tests explained by at least one fault, with the matching
    /// fault positions.
    pub slat_patterns: Vec<(usize, Vec<usize>)>,
    /// A small fault set covering all SLAT patterns (greedy cover), ordered
    /// by how many patterns each fault newly explained.
    pub multiplet: Vec<usize>,
}

impl SlatDiagnosis {
    /// `true` when every failing test is explained by the multiplet.
    pub fn is_complete(&self) -> bool {
        self.unexplained_tests.is_empty()
    }
}

/// Runs SLAT analysis of `observed` responses against the stored responses
/// in `matrix`.
///
/// # Panics
///
/// Panics if `observed` has the wrong length or widths.
///
/// # Example
///
/// ```
/// use sdd_core::slat::slat_diagnose;
///
/// let m = sdd_core::example::paper_example();
/// // Chip behaves exactly like f2:
/// let observed: Vec<_> = (0..2).map(|t| m.response(t, m.class(t, 2))).collect();
/// let d = slat_diagnose(&m, &observed);
/// assert!(d.is_complete());
/// assert_eq!(d.multiplet, vec![2]);
/// ```
pub fn slat_diagnose(matrix: &ResponseMatrix, observed: &[BitVec]) -> SlatDiagnosis {
    assert_eq!(
        observed.len(),
        matrix.test_count(),
        "one observed response per test"
    );
    let mut slat_patterns: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut unexplained_tests = Vec::new();
    for (test, seen) in observed.iter().enumerate() {
        if seen == matrix.good_response(test) {
            continue; // passing test: no information for SLAT
        }
        // Which response class (if any) equals the observation?
        let matching_class = (1..matrix.class_count(test) as u32)
            .find(|&class| matrix.response(test, class) == *seen);
        match matching_class {
            None => unexplained_tests.push(test),
            Some(class) => {
                let faults: Vec<usize> = (0..matrix.fault_count())
                    .filter(|&f| matrix.class(test, f) == class)
                    .collect();
                slat_patterns.push((test, faults));
            }
        }
    }

    // Greedy cover: repeatedly take the fault explaining the most
    // still-uncovered SLAT patterns.
    let mut uncovered: Vec<usize> = (0..slat_patterns.len()).collect();
    let mut multiplet = Vec::new();
    while !uncovered.is_empty() {
        let mut counts = std::collections::HashMap::new();
        for &p in &uncovered {
            for &fault in &slat_patterns[p].1 {
                *counts.entry(fault).or_insert(0usize) += 1;
            }
        }
        let (&best, _) = counts
            .iter()
            .max_by_key(|&(&fault, &count)| (count, std::cmp::Reverse(fault)))
            .expect("uncovered SLAT patterns always have candidate faults");
        multiplet.push(best);
        uncovered.retain(|&p| !slat_patterns[p].1.contains(&best));
    }

    SlatDiagnosis {
        unexplained_tests,
        slat_patterns,
        multiplet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::paper_example;

    #[test]
    fn single_fault_behaviour_yields_singleton_multiplet() {
        let m = paper_example();
        for fault in 0..m.fault_count() {
            let observed: Vec<BitVec> = (0..m.test_count())
                .map(|t| m.response(t, m.class(t, fault)))
                .collect();
            let d = slat_diagnose(&m, &observed);
            assert!(d.is_complete());
            assert!(!d.multiplet.is_empty());
            // The true fault explains every SLAT pattern, so the greedy
            // cover is a single fault whose patterns include the truth.
            for (_, candidates) in &d.slat_patterns {
                assert!(candidates.contains(&fault));
            }
        }
    }

    #[test]
    fn composite_behaviour_recovers_both_components() {
        let m = paper_example();
        // A chip that behaves like f0 on t0's... f0 is undetected by t0, so
        // compose: f1's response on t0, f3's response on t1.
        let observed = vec![m.response(0, m.class(0, 1)), m.response(1, m.class(1, 3))];
        let d = slat_diagnose(&m, &observed);
        assert!(d.is_complete());
        assert!(d.multiplet.contains(&1) || d.multiplet.contains(&3));
        assert!(d.multiplet.len() <= 2);
        // Both patterns are SLAT patterns.
        assert_eq!(d.slat_patterns.len(), 2);
    }

    #[test]
    fn out_of_model_response_is_flagged() {
        let m = paper_example();
        // t0 shows 11, which no fault produces under t0 (Z_0 = {00,10,01}).
        let observed = vec!["11".parse().unwrap(), m.good_response(1).clone()];
        let d = slat_diagnose(&m, &observed);
        assert_eq!(d.unexplained_tests, vec![0]);
        assert!(!d.is_complete());
        assert!(d.multiplet.is_empty());
    }

    #[test]
    fn passing_chip_has_empty_diagnosis() {
        let m = paper_example();
        let observed: Vec<BitVec> = (0..m.test_count())
            .map(|t| m.good_response(t).clone())
            .collect();
        let d = slat_diagnose(&m, &observed);
        assert!(d.slat_patterns.is_empty());
        assert!(d.multiplet.is_empty());
        assert!(d.is_complete());
    }

    #[test]
    #[should_panic(expected = "one observed response per test")]
    fn wrong_length_panics() {
        slat_diagnose(&paper_example(), &[]);
    }
}
