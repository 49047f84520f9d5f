//! The same/different fault dictionary — the paper's contribution.

use sdd_logic::{BitVec, MaskedBitVec, SddError};
use sdd_sim::{Partition, ResponseMatrix};

use crate::DictionarySizes;

/// A same/different fault dictionary: bit `b[i][j]` is `0` when fault
/// `f_i`'s output vector under test `t_j` equals that test's *baseline*
/// output vector `z_bl,j`, and `1` otherwise.
///
/// The baseline of each test is chosen from the vectors the modeled faults
/// can actually produce (the set `Z_j`, which always contains the fault-free
/// vector); choosing well is the whole game — see
/// [`select_baselines`](crate::select_baselines) (Procedure 1) and
/// [`replace_baselines`](crate::replace_baselines) (Procedure 2).
///
/// With every baseline set to the fault-free response (class 0), the
/// dictionary degenerates to exactly a pass/fail dictionary.
///
/// # Example
///
/// ```
/// use sdd_core::SameDifferentDictionary;
///
/// let matrix = sdd_core::example::paper_example();
/// // Table 3 of the paper: baselines z_bl,0 = 01, z_bl,1 = 10.
/// let d = SameDifferentDictionary::build(&matrix, &[2, 1]);
/// assert_eq!(d.baseline(0).to_string(), "01");
/// assert_eq!(d.baseline(1).to_string(), "10");
/// assert_eq!(d.indistinguished_pairs(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SameDifferentDictionary {
    signatures: Vec<BitVec>,
    baselines: Vec<BitVec>,
    baseline_classes: Vec<u32>,
    outputs: usize,
}

impl SameDifferentDictionary {
    /// Builds the dictionary from simulated responses and one baseline
    /// response class per test (as produced by the selection procedures).
    ///
    /// # Panics
    ///
    /// Panics if `baselines.len()` differs from the matrix's test count, or
    /// a class id is not a class of its test.
    pub fn build(matrix: &ResponseMatrix, baselines: &[u32]) -> Self {
        assert_eq!(
            baselines.len(),
            matrix.test_count(),
            "one baseline class per test"
        );
        let baseline_vectors: Vec<BitVec> = baselines
            .iter()
            .enumerate()
            .map(|(test, &class)| matrix.response(test, class))
            .collect();
        let signatures = (0..matrix.fault_count())
            .map(|fault| {
                (0..matrix.test_count())
                    .map(|test| matrix.class(test, fault) != baselines[test])
                    .collect()
            })
            .collect();
        Self {
            signatures,
            baselines: baseline_vectors,
            baseline_classes: baselines.to_vec(),
            outputs: matrix.output_count(),
        }
    }

    /// Reassembles a dictionary from stored parts, as the text format
    /// ([`crate::io`]) and the binary store read them back.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::CountMismatch`] when `baselines` and
    /// `baseline_classes` disagree in length, and [`SddError::WidthMismatch`]
    /// when a signature's width differs from the test count or a baseline's
    /// width differs from `outputs`.
    pub fn from_parts(
        signatures: Vec<BitVec>,
        baselines: Vec<BitVec>,
        baseline_classes: Vec<u32>,
        outputs: usize,
    ) -> Result<Self, SddError> {
        if baselines.len() != baseline_classes.len() {
            return Err(SddError::CountMismatch {
                context: "baseline classes per baseline vector",
                expected: baselines.len(),
                actual: baseline_classes.len(),
            });
        }
        if let Some(bad) = baselines.iter().find(|b| b.len() != outputs) {
            return Err(SddError::WidthMismatch {
                context: "stored baseline width",
                expected: outputs,
                actual: bad.len(),
            });
        }
        if let Some(bad) = signatures.iter().find(|s| s.len() != baselines.len()) {
            return Err(SddError::WidthMismatch {
                context: "stored same/different signature width",
                expected: baselines.len(),
                actual: bad.len(),
            });
        }
        Ok(Self {
            signatures,
            baselines,
            baseline_classes,
            outputs,
        })
    }

    /// The inverse of [`from_parts`](Self::from_parts): the signatures,
    /// baseline vectors and baseline classes, moved out rather than copied.
    pub fn into_parts(self) -> (Vec<BitVec>, Vec<BitVec>, Vec<u32>) {
        (self.signatures, self.baselines, self.baseline_classes)
    }

    /// Builds the degenerate dictionary whose baselines are all the
    /// fault-free responses — bit-identical to a pass/fail dictionary.
    pub fn with_fault_free_baselines(matrix: &ResponseMatrix) -> Self {
        Self::build(matrix, &vec![0; matrix.test_count()])
    }

    /// Number of faults `n`.
    pub fn fault_count(&self) -> usize {
        self.signatures.len()
    }

    /// Number of tests `k`.
    pub fn test_count(&self) -> usize {
        self.baselines.len()
    }

    /// The same/different signature of fault `i`: one bit per test.
    pub fn signature(&self, fault: usize) -> &BitVec {
        &self.signatures[fault]
    }

    /// All signatures, indexed by fault.
    pub fn signatures(&self) -> &[BitVec] {
        &self.signatures
    }

    /// The baseline output vector of test `j`.
    pub fn baseline(&self, test: usize) -> &BitVec {
        &self.baselines[test]
    }

    /// The baseline response classes this dictionary was built from.
    pub fn baseline_classes(&self) -> &[u32] {
        &self.baseline_classes
    }

    /// Number of tests whose baseline is *not* the fault-free response —
    /// the tests that actually pay the `m`-bit baseline storage (the paper
    /// notes the fault-free vector can serve for the rest).
    pub fn non_trivial_baselines(&self) -> usize {
        self.baseline_classes.iter().filter(|&&c| c != 0).count()
    }

    /// Storage accounting per the paper.
    pub fn sizes(&self) -> DictionarySizes {
        DictionarySizes::new(
            self.baselines.len() as u64,
            self.signatures.len() as u64,
            self.outputs as u64,
        )
    }

    /// This dictionary's size in bits (`k·(n+m)`).
    pub fn size_bits(&self) -> u64 {
        self.sizes().same_different
    }

    /// Encodes (possibly partial) per-test observations into a signature
    /// comparable against the stored ones — what a tester computes on-line
    /// during diagnosis. The bit for test `j` is:
    ///
    /// * known `1` (*different*) when any known observed bit disagrees with
    ///   the baseline — one surviving failing bit is proof enough;
    /// * known `0` (*same*) when the response is fully known and equals the
    ///   baseline — only complete data can prove sameness;
    /// * unknown otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::CountMismatch`] when the number of responses
    /// differs from the test count, and [`SddError::WidthMismatch`] when a
    /// response's width differs from its baseline's.
    pub fn encode_observed_masked(
        &self,
        responses: &[MaskedBitVec],
    ) -> Result<MaskedBitVec, SddError> {
        if responses.len() != self.baselines.len() {
            return Err(SddError::CountMismatch {
                context: "responses per test",
                expected: self.baselines.len(),
                actual: responses.len(),
            });
        }
        let mut signature = MaskedBitVec::unknown(self.baselines.len());
        for (test, (observed, baseline)) in responses.iter().zip(&self.baselines).enumerate() {
            let d = observed.distance_to(baseline)?;
            if d.mismatches > 0 {
                signature.set_known(test, true);
            } else if observed.is_fully_known() {
                signature.set_known(test, false);
            }
        }
        Ok(signature)
    }

    /// The partition of faults into signature-equal groups.
    pub fn partition(&self) -> Partition {
        let mut p = Partition::unit(self.signatures.len());
        for test in 0..self.baselines.len() {
            p.refine_bits(|i| self.signatures[i].bit(test));
        }
        p
    }

    /// Fault pairs the dictionary cannot distinguish.
    pub fn indistinguished_pairs(&self) -> u64 {
        self.partition().indistinguished_pairs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::paper_example;
    use crate::PassFailDictionary;

    #[test]
    fn example_signatures_match_table3() {
        let d = SameDifferentDictionary::build(&paper_example(), &[2, 1]);
        let rows: Vec<String> = d.signatures().iter().map(|s| s.to_string()).collect();
        // Table 3: f0=10, f1=11, f2=00, f3=01.
        assert_eq!(rows, ["10", "11", "00", "01"]);
        assert_eq!(d.indistinguished_pairs(), 0);
        assert_eq!(d.non_trivial_baselines(), 2);
    }

    #[test]
    fn fault_free_baselines_degenerate_to_pass_fail() {
        let matrix = paper_example();
        let sd = SameDifferentDictionary::with_fault_free_baselines(&matrix);
        let pf = PassFailDictionary::build(&matrix);
        assert_eq!(sd.signatures(), pf.signatures());
        assert_eq!(sd.indistinguished_pairs(), pf.indistinguished_pairs());
        assert_eq!(sd.non_trivial_baselines(), 0);
    }

    #[test]
    fn baselines_are_materialized_output_vectors() {
        let matrix = paper_example();
        let d = SameDifferentDictionary::build(&matrix, &[2, 1]);
        assert_eq!(*d.baseline(0), matrix.response(0, 2));
        assert_eq!(*d.baseline(1), matrix.response(1, 1));
        assert_eq!(d.baseline_classes(), &[2, 1]);
    }

    #[test]
    fn sizes_match_formula() {
        let d = SameDifferentDictionary::build(&paper_example(), &[2, 1]);
        assert_eq!(d.size_bits(), 12); // 2·(4+2)
        assert_eq!(d.sizes().baseline_overhead(), 4);
    }

    #[test]
    fn encode_observed_matches_stored_signature() {
        let matrix = paper_example();
        let d = SameDifferentDictionary::build(&matrix, &[2, 1]);
        for fault in 0..matrix.fault_count() {
            let responses: Vec<MaskedBitVec> = (0..matrix.test_count())
                .map(|t| MaskedBitVec::from_known(matrix.response(t, matrix.class(t, fault))))
                .collect();
            let encoded = d.encode_observed_masked(&responses).unwrap();
            assert!(encoded.is_fully_known(), "clean data encodes fully");
            assert_eq!(*encoded.values(), *d.signature(fault));
        }
    }

    #[test]
    fn encode_observed_rejects_misshapen_input() {
        let matrix = paper_example();
        let d = SameDifferentDictionary::build(&matrix, &[2, 1]);
        let known = |s: &str| MaskedBitVec::from_known(s.parse().unwrap());
        assert!(matches!(
            d.encode_observed_masked(&[known("01")]),
            Err(SddError::CountMismatch { .. })
        ));
        // The baseline fixes the expected width.
        assert!(matches!(
            d.encode_observed_masked(&[known("0"), known("10")]),
            Err(SddError::WidthMismatch {
                expected: 2,
                actual: 1,
                ..
            })
        ));
    }

    #[test]
    fn encode_observed_masked_three_way_semantics() {
        let matrix = paper_example();
        let d = SameDifferentDictionary::build(&matrix, &[2, 1]); // baselines 01, 10
                                                                  // Test 0: known bit disagrees with baseline 01 -> different (1).
                                                                  // Test 1: partially known, agrees so far -> unknown.
        let partial: Vec<MaskedBitVec> = vec!["1X".parse().unwrap(), "1X".parse().unwrap()];
        assert_eq!(
            d.encode_observed_masked(&partial).unwrap().to_string(),
            "1X"
        );
        // Fully known and equal to the baseline -> same (0).
        let same: Vec<MaskedBitVec> = vec!["01".parse().unwrap(), "10".parse().unwrap()];
        assert_eq!(d.encode_observed_masked(&same).unwrap().to_string(), "00");
    }

    #[test]
    #[should_panic(expected = "one baseline class per test")]
    fn wrong_baseline_count_panics() {
        SameDifferentDictionary::build(&paper_example(), &[0]);
    }
}
