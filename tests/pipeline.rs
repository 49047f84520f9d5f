//! End-to-end pipeline tests on the embedded c17 benchmark: netlist →
//! faults → ATPG → simulation → dictionaries → diagnosis.

use same_different::atpg::AtpgOptions;
use same_different::dict::diagnose::{observed_responses, two_phase_diagnose_masked, MatchQuality};
use same_different::dict::{
    replace_baselines, select_baselines, FullDictionary, PassFailDictionary, Procedure1Options,
    SameDifferentDictionary,
};
use same_different::logic::{BitVec, MaskedBitVec};
use same_different::Experiment;

/// Simulated responses as clean observations: every bit known.
fn clean(responses: Vec<BitVec>) -> Vec<MaskedBitVec> {
    responses.into_iter().map(MaskedBitVec::from).collect()
}

fn exhaustive_tests() -> Vec<BitVec> {
    (0u32..32)
        .map(|w| (0..5).map(|i| w >> i & 1 == 1).collect())
        .collect()
}

#[test]
fn c17_dictionaries_on_exhaustive_tests() {
    let exp = Experiment::new(same_different::netlist::library::c17());
    let matrix = exp.simulate(&exhaustive_tests());

    let full = FullDictionary::new(matrix.clone());
    assert_eq!(
        full.indistinguished_pairs(),
        0,
        "collapsed c17 faults are pairwise distinguishable"
    );

    let pf = PassFailDictionary::build(&matrix);
    let selection = select_baselines(
        &matrix,
        &Procedure1Options {
            calls1: 10,
            ..Procedure1Options::default()
        },
    );
    let sd = SameDifferentDictionary::build(&matrix, &selection.baselines);
    assert!(sd.indistinguished_pairs() <= pf.indistinguished_pairs());
    assert_eq!(
        sd.indistinguished_pairs(),
        0,
        "32 tests give the s/d dictionary room to reach full resolution"
    );
}

#[test]
fn c17_diagnostic_set_pipeline() {
    let exp = Experiment::new(same_different::netlist::library::c17());
    let tests = exp.diagnostic_tests(&AtpgOptions::default());
    let matrix = exp.simulate(&tests.tests);

    // The diagnostic set reaches the exhaustive full-dictionary bound.
    assert_eq!(matrix.full_partition().indistinguished_pairs(), 0);

    // Sizes obey the paper's formulas and ordering.
    let pf = PassFailDictionary::build(&matrix);
    let sd = SameDifferentDictionary::with_fault_free_baselines(&matrix);
    let full = FullDictionary::new(matrix.clone());
    assert!(pf.size_bits() < sd.size_bits());
    assert!(sd.size_bits() < full.size_bits());
    assert_eq!(
        sd.size_bits() - pf.size_bits(),
        matrix.test_count() as u64 * matrix.output_count() as u64
    );
}

#[test]
fn every_injected_fault_is_diagnosed_by_every_dictionary() {
    let exp = Experiment::new(same_different::netlist::library::c17());
    let tests = exhaustive_tests();
    let matrix = exp.simulate(&tests);

    let pf = PassFailDictionary::build(&matrix);
    let mut selection = select_baselines(
        &matrix,
        &Procedure1Options {
            calls1: 5,
            ..Procedure1Options::default()
        },
    );
    replace_baselines(&matrix, &mut selection.baselines);
    let sd = SameDifferentDictionary::build(&matrix, &selection.baselines);
    let full = FullDictionary::new(matrix.clone());

    for (pos, &id) in exp.faults().iter().enumerate() {
        let fault = exp.universe().fault(id);
        let responses = observed_responses(exp.circuit(), exp.view(), fault, &tests);
        let observed_pf = MaskedBitVec::from_known(
            responses
                .iter()
                .enumerate()
                .map(|(t, r)| r != matrix.good_response(t))
                .collect(),
        );
        let observed = clean(responses);

        assert!(
            pf.diagnose_masked(&observed_pf)
                .unwrap()
                .candidates()
                .contains(&pos),
            "pass/fail misses {}",
            fault.describe(exp.circuit())
        );
        assert!(
            sd.diagnose_masked(&observed)
                .unwrap()
                .candidates()
                .contains(&pos),
            "same/different misses {}",
            fault.describe(exp.circuit())
        );
        let report = full.diagnose_masked(&observed).unwrap();
        assert_eq!(report.quality, MatchQuality::Exact);
        assert_eq!(report.best, vec![pos], "full dictionary is exact on c17");

        let ranked = two_phase_diagnose_masked(
            exp.circuit(),
            exp.view(),
            exp.universe(),
            exp.faults(),
            &tests,
            &observed,
            &sd,
        )
        .unwrap();
        assert_eq!(ranked[0].0, id, "two-phase ranks the culprit first");
        assert_eq!(ranked[0].1, 0);
    }
}

#[test]
fn same_different_diagnosis_is_never_coarser_than_its_partition() {
    // Any fault's diagnosis candidate set under the s/d dictionary is
    // exactly its signature-equality class.
    let exp = Experiment::new(same_different::netlist::library::c17());
    let tests = exhaustive_tests();
    let matrix = exp.simulate(&tests);
    let selection = select_baselines(
        &matrix,
        &Procedure1Options {
            calls1: 5,
            ..Procedure1Options::default()
        },
    );
    let sd = SameDifferentDictionary::build(&matrix, &selection.baselines);
    let partition = sd.partition();
    for pos in 0..exp.faults().len() {
        let fault = exp.universe().fault(exp.faults()[pos]);
        let observed = clean(observed_responses(exp.circuit(), exp.view(), fault, &tests));
        let report = sd.diagnose_masked(&observed).unwrap();
        let expected: Vec<usize> = (0..exp.faults().len())
            .filter(|&other| partition.group_of(other) == partition.group_of(pos))
            .collect();
        assert_eq!(report.quality, MatchQuality::Exact, "fault position {pos}");
        assert_eq!(report.best, expected, "fault position {pos}");
    }
}
