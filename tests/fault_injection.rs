//! Fault injection for the diagnosis pipeline itself: corrupted tester
//! datalogs must degrade diagnosis gracefully, never crash it.
//!
//! The sweep covers mask rates {0%, 1%, 5%, 20%} on the real c17 benchmark
//! and a generated ISCAS'89-shaped circuit. Because the corruption model
//! draws one uniform per known bit from a fixed seed, the masked bit sets at
//! increasing rates are *nested* — which turns "diagnosis degrades
//! monotonically" from a statistical hope into a deterministic assertion:
//!
//! * the true fault never leaves the candidate set under pure masking or
//!   truncation (lost bits cannot create false mismatches);
//! * the evidence (`known`) never grows as the rate rises;
//! * the candidate set never shrinks as the rate rises.

use std::time::Duration;

use same_different::dict::diagnose::{observed_responses, MatchQuality};
use same_different::dict::{
    replace_baselines, select_baselines, select_baselines_budgeted, Budget, FullDictionary,
    PassFailDictionary, Procedure1Options, SameDifferentDictionary,
};
use same_different::logic::{BitVec, MaskedBitVec};
use same_different::sim::{CorruptionModel, ScanChains};
use same_different::Experiment;

const MASK_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

struct Rig {
    exp: Experiment,
    chains: ScanChains,
    tests: Vec<BitVec>,
    expected: Vec<BitVec>,
    sd: SameDifferentDictionary,
    sd_ff: SameDifferentDictionary,
    pf: PassFailDictionary,
    full: FullDictionary,
}

fn rig(exp: Experiment) -> Rig {
    let chains = ScanChains::balanced(exp.circuit(), 2);
    let tests = exp.diagnostic_tests(&Default::default()).tests;
    let matrix = exp.simulate(&tests);
    let expected: Vec<BitVec> = (0..matrix.test_count())
        .map(|t| matrix.good_response(t).clone())
        .collect();
    let mut selection = select_baselines(
        &matrix,
        &Procedure1Options {
            calls1: 10,
            ..Procedure1Options::default()
        },
    );
    replace_baselines(&matrix, &mut selection.baselines);
    let sd = SameDifferentDictionary::build(&matrix, &selection.baselines);
    let sd_ff = SameDifferentDictionary::with_fault_free_baselines(&matrix);
    let pf = PassFailDictionary::build(&matrix);
    let full = FullDictionary::new(matrix);
    Rig {
        exp,
        chains,
        tests,
        expected,
        sd,
        sd_ff,
        pf,
        full,
    }
}

fn rigs() -> Vec<Rig> {
    vec![
        rig(Experiment::new(same_different::netlist::library::c17())),
        rig(Experiment::iscas89("s298", 1).expect("known circuit")),
    ]
}

/// A few culprit positions spread over the collapsed fault list.
fn culprits(r: &Rig) -> Vec<usize> {
    let n = r.exp.faults().len();
    vec![0, n / 3, n / 2, n - 1]
}

fn observe(r: &Rig, culprit_pos: usize) -> Vec<BitVec> {
    let fault = r.exp.universe().fault(r.exp.faults()[culprit_pos]);
    observed_responses(r.exp.circuit(), r.exp.view(), fault, &r.tests)
}

/// The ISSUE's core sweep: all three dictionaries, every mask rate, never a
/// panic, the true fault always in the candidate list, monotone degradation.
#[test]
fn masking_sweep_degrades_monotonically_and_keeps_the_culprit() {
    for r in rigs() {
        for culprit_pos in culprits(&r) {
            let observed = observe(&r, culprit_pos);
            let mut prev_sd_best: Vec<usize> = Vec::new();
            let mut prev_sd_known = usize::MAX;
            let mut prev_full_known = usize::MAX;
            let mut prev_full_best: Vec<usize> = Vec::new();
            for rate in MASK_RATES {
                let model = CorruptionModel::clean().with_mask_rate(rate).with_seed(7);
                let masked = model
                    .observe(r.exp.circuit(), &r.chains, &observed, &r.expected)
                    .expect("well-formed inputs");

                // Same/different dictionary.
                let sd_report = r.sd.diagnose_masked(&masked).expect("valid observation");
                assert!(
                    sd_report.candidates().contains(&culprit_pos),
                    "{}: s/d lost the culprit at mask rate {rate}",
                    r.exp.circuit().name()
                );
                assert!(sd_report.known <= prev_sd_known, "evidence grew with noise");
                assert!(
                    prev_sd_best
                        .iter()
                        .all(|c| sd_report.candidates().contains(c)),
                    "candidate set shrank as noise rose"
                );
                prev_sd_known = sd_report.known;
                prev_sd_best = sd_report.candidates().to_vec();

                // Pass/fail dictionary, via the fault-free-baseline encoding.
                let pf_sig = r.sd_ff.encode_observed_masked(&masked).expect("valid");
                let pf_report = r.pf.diagnose_masked(&pf_sig).expect("valid observation");
                assert!(
                    pf_report.candidates().contains(&culprit_pos),
                    "{}: pass/fail lost the culprit at mask rate {rate}",
                    r.exp.circuit().name()
                );

                // Full dictionary.
                let full_report = r.full.diagnose_masked(&masked).expect("valid observation");
                assert!(
                    full_report.candidates().contains(&culprit_pos),
                    "{}: full lost the culprit at mask rate {rate}",
                    r.exp.circuit().name()
                );
                assert!(full_report.known <= prev_full_known);
                assert!(prev_full_best
                    .iter()
                    .all(|c| full_report.candidates().contains(c)));
                prev_full_known = full_report.known;
                prev_full_best = full_report.candidates().to_vec();

                if rate == 0.0 {
                    // Clean data: exact match, distance 0, ranked list led by
                    // the true fault's equivalence class.
                    assert_eq!(sd_report.quality, MatchQuality::Exact);
                    assert_eq!(sd_report.distance(), 0);
                    assert_eq!(full_report.quality, MatchQuality::Exact);
                    assert_eq!(full_report.distance(), 0);
                    assert!(
                        sd_report
                            .ranking
                            .iter()
                            .any(|c| c.fault == culprit_pos && c.mismatches == 0),
                        "true fault missing from the ranked list at 0% noise"
                    );
                }
            }
        }
    }
}

/// Truncated fail memories lose whole tests; what survives is still
/// accurate, so the culprit must stay among the candidates at every cut.
#[test]
fn truncation_sweep_never_evicts_the_culprit() {
    for r in rigs() {
        for culprit_pos in culprits(&r) {
            let observed = observe(&r, culprit_pos);
            let full_len = same_different::sim::FailLog::from_responses(
                r.exp.circuit(),
                &r.chains,
                &observed,
                &r.expected,
            )
            .len();
            for keep in [0, 1, full_len / 2, full_len] {
                let model = CorruptionModel::clean().with_truncation(keep);
                let masked = model
                    .observe(r.exp.circuit(), &r.chains, &observed, &r.expected)
                    .expect("well-formed inputs");
                let report = r.sd.diagnose_masked(&masked).expect("valid observation");
                assert!(
                    report.candidates().contains(&culprit_pos),
                    "{}: culprit lost keeping {keep}/{full_len} fail entries",
                    r.exp.circuit().name()
                );
                let report = r.full.diagnose_masked(&masked).expect("valid observation");
                assert!(report.candidates().contains(&culprit_pos));
            }
        }
    }
}

/// Bit flips can point diagnosis at the wrong fault — but must never crash
/// it, and the report must stay structurally sound.
#[test]
fn flip_sweep_never_panics_and_reports_are_well_formed() {
    for r in rigs() {
        let n = r.exp.faults().len();
        for culprit_pos in culprits(&r) {
            let observed = observe(&r, culprit_pos);
            for rate in MASK_RATES {
                for seed in 0..3 {
                    let model = CorruptionModel::clean()
                        .with_mask_rate(rate / 2.0)
                        .with_flip_rate(rate)
                        .with_truncation(200)
                        .with_seed(seed);
                    let masked = model
                        .observe(r.exp.circuit(), &r.chains, &observed, &r.expected)
                        .expect("well-formed inputs");
                    for report in [
                        r.sd.diagnose_masked(&masked).expect("valid"),
                        r.full.diagnose_masked(&masked).expect("valid"),
                    ] {
                        assert_eq!(report.ranking.len(), n, "ranking covers every fault");
                        assert!(!report.candidates().is_empty());
                        let min = report.distance();
                        assert!(report.ranking.iter().all(|c| c.mismatches >= min));
                        assert!(report
                            .ranking
                            .windows(2)
                            .all(|w| w[0].mismatches <= w[1].mismatches));
                        for c in &report.ranking {
                            assert!(c.confidence > 0.0 && c.confidence < 1.0);
                            assert!(c.mismatches <= c.known);
                        }
                    }
                }
            }
        }
    }
}

/// Malformed observations are errors, not panics, across all entry points.
#[test]
fn misshapen_observations_are_errors_everywhere() {
    let r = rig(Experiment::new(same_different::netlist::library::c17()));
    let wrong_count = vec![MaskedBitVec::unknown(r.expected[0].len())];
    assert!(r.sd.diagnose_masked(&wrong_count).is_err());
    assert!(r.full.diagnose_masked(&wrong_count).is_err());
    let wrong_width: Vec<MaskedBitVec> = r
        .expected
        .iter()
        .map(|e| MaskedBitVec::unknown(e.len() + 1))
        .collect();
    assert!(r.sd.diagnose_masked(&wrong_width).is_err());
    assert!(r.full.diagnose_masked(&wrong_width).is_err());
    let narrow = MaskedBitVec::from_known("0".parse().unwrap());
    assert!(r.pf.diagnose_masked(&narrow).is_err());
}

/// The ISSUE's budget acceptance test: Procedure 1 under a zero-duration
/// budget returns a *valid* dictionary — the fault-free-baseline fallback —
/// flagged incomplete.
#[test]
fn zero_budget_procedure1_yields_fault_free_baseline_dictionary() {
    let exp = Experiment::iscas89("s298", 1).expect("known circuit");
    let tests = exp.diagnostic_tests(&Default::default());
    let matrix = exp.simulate(&tests.tests);
    let s = select_baselines_budgeted(
        &matrix,
        &Procedure1Options::default(),
        &Budget::deadline(Duration::ZERO),
    );
    assert!(!s.completed, "a zero budget cannot converge");
    assert_eq!(s.calls, 0);
    assert!(s.baselines.iter().all(|&b| b == 0), "fault-free fallback");
    let sd = SameDifferentDictionary::build(&matrix, &s.baselines);
    let pf = PassFailDictionary::build(&matrix);
    assert_eq!(sd.signatures(), pf.signatures(), "degenerates to pass/fail");
    assert_eq!(s.indistinguished_pairs, pf.indistinguished_pairs());
}

/// Budgets are monotone: more budget never yields a worse dictionary, and
/// an unlimited budget reproduces the unbudgeted procedure exactly.
#[test]
fn budgets_are_monotone_and_unlimited_matches_unbudgeted() {
    let exp = Experiment::iscas89("s298", 1).expect("known circuit");
    let tests = exp.diagnostic_tests(&Default::default());
    let matrix = exp.simulate(&tests.tests);
    let opts = Procedure1Options {
        calls1: 5,
        ..Procedure1Options::default()
    };
    let mut prev = u64::MAX;
    for cap in [0usize, 1, 2, 8] {
        let s = select_baselines_budgeted(&matrix, &opts, &Budget::max_calls(cap));
        assert!(s.calls <= cap);
        assert!(
            s.indistinguished_pairs <= prev,
            "budget {cap} worsened the result"
        );
        prev = s.indistinguished_pairs;
    }
    let unbudgeted = select_baselines(&matrix, &opts);
    let unlimited = select_baselines_budgeted(&matrix, &opts, &Budget::unlimited());
    assert_eq!(unbudgeted, unlimited);
    assert!(unlimited.completed);
}
