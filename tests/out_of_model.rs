//! Failure-injection tests: diagnosis behaviour when the defect is outside
//! the single stuck-at model the dictionaries were built from.

use same_different::dict::{
    select_baselines, FullDictionary, Procedure1Options, SameDifferentDictionary,
};
use same_different::fault::{BridgeKind, Defect, FaultSite};
use same_different::logic::{BitVec, MaskedBitVec};
use same_different::sim::reference;
use same_different::Experiment;

fn exhaustive_tests() -> Vec<BitVec> {
    (0u32..32)
        .map(|w| (0..5).map(|i| w >> i & 1 == 1).collect())
        .collect()
}

fn observed(exp: &Experiment, defect: &Defect, tests: &[BitVec]) -> Vec<BitVec> {
    tests
        .iter()
        .map(|t| reference::defect_response(exp.circuit(), exp.view(), defect, t))
        .collect()
}

/// Observed responses as clean observations: every bit known.
fn clean(responses: &[BitVec]) -> Vec<MaskedBitVec> {
    responses.iter().cloned().map(MaskedBitVec::from).collect()
}

fn site_of(exp: &Experiment, pos: usize) -> same_different::netlist::NetId {
    match exp.universe().fault(exp.faults()[pos]).site {
        FaultSite::Stem(net) => net,
        FaultSite::Branch { gate, .. } => gate,
    }
}

#[test]
fn bridges_on_c17_are_localized_by_nearest_match() {
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
    let full = FullDictionary::new(matrix.clone());

    let mut injected = 0;
    let mut sd_hits = 0;
    let mut full_hits = 0;
    let nets: Vec<_> = exp.circuit().nets().collect();
    for (i, &a) in nets.iter().enumerate() {
        for &b in &nets[i + 1..] {
            for kind in [BridgeKind::And, BridgeKind::Or] {
                let defect = Defect::Bridge { a, b, kind };
                let responses = observed(&exp, &defect, &tests);
                if responses
                    .iter()
                    .enumerate()
                    .all(|(t, r)| r == matrix.good_response(t))
                {
                    continue; // benign bridge, nothing to diagnose
                }
                injected += 1;
                let plausible = defect.plausible_sites();
                let hit = |candidates: &[usize]| {
                    candidates
                        .iter()
                        .any(|&pos| plausible.contains(&site_of(&exp, pos)))
                };
                let responses = clean(&responses);
                if hit(sd.diagnose_masked(&responses).unwrap().candidates()) {
                    sd_hits += 1;
                }
                if hit(full.diagnose_masked(&responses).unwrap().candidates()) {
                    full_hits += 1;
                }
            }
        }
    }
    assert!(injected > 50, "enough non-benign bridges to be meaningful");
    // Nearest-match localization rates: the full dictionary sees the most
    // information and should localize a solid majority of bridges; the
    // same/different dictionary should be useful too.
    assert!(
        full_hits * 10 >= injected * 6,
        "full dictionary localized only {full_hits}/{injected}"
    );
    assert!(
        sd_hits * 10 >= injected * 4,
        "same/different localized only {sd_hits}/{injected}"
    );
}

#[test]
fn double_faults_diagnose_to_one_component_often() {
    let exp = Experiment::new(same_different::netlist::library::c17());
    let tests = exhaustive_tests();
    let matrix = exp.simulate(&tests);
    let full = FullDictionary::new(matrix.clone());

    let n = exp.faults().len();
    let mut injected = 0;
    let mut located = 0;
    for i in (0..n).step_by(3) {
        for j in (i + 1..n).step_by(5) {
            let fa = exp.universe().fault(exp.faults()[i]);
            let fb = exp.universe().fault(exp.faults()[j]);
            let defect = Defect::MultipleStuckAt(vec![fa, fb]);
            let responses = observed(&exp, &defect, &tests);
            if responses
                .iter()
                .enumerate()
                .all(|(t, r)| r == matrix.good_response(t))
            {
                continue;
            }
            injected += 1;
            let plausible = defect.plausible_sites();
            let report = full.diagnose_masked(&clean(&responses)).unwrap();
            if report
                .candidates()
                .iter()
                .any(|&pos| plausible.contains(&site_of(&exp, pos)))
            {
                located += 1;
            }
        }
    }
    assert!(injected >= 20);
    assert!(
        located * 10 >= injected * 5,
        "located {located}/{injected} double faults"
    );
}

#[test]
fn slat_recovers_double_fault_components() {
    let exp = Experiment::new(same_different::netlist::library::c17());
    let tests = exhaustive_tests();
    let matrix = exp.simulate(&tests);

    let n = exp.faults().len();
    let mut injected = 0;
    let mut component_found = 0;
    let mut complete = 0;
    for i in (0..n).step_by(2) {
        for j in (i + 1..n).step_by(3) {
            let fa = exp.universe().fault(exp.faults()[i]);
            let fb = exp.universe().fault(exp.faults()[j]);
            let defect = Defect::MultipleStuckAt(vec![fa, fb]);
            let responses = observed(&exp, &defect, &tests);
            if responses
                .iter()
                .enumerate()
                .all(|(t, r)| r == matrix.good_response(t))
            {
                continue;
            }
            injected += 1;
            let d = same_different::dict::slat::slat_diagnose(&matrix, &responses);
            if d.multiplet.contains(&i) || d.multiplet.contains(&j) {
                component_found += 1;
            }
            if d.is_complete() {
                complete += 1;
            }
        }
    }
    assert!(injected >= 30);
    // SLAT's per-test matching is designed for exactly this: on a strong
    // test set, most double faults have at least one component recovered.
    assert!(
        component_found * 10 >= injected * 7,
        "SLAT found a true component in only {component_found}/{injected}"
    );
    assert!(complete > 0, "some double faults are fully SLAT-explained");
}

#[test]
fn masked_double_fault_is_silent() {
    // A fault combined with itself at the opposite polarity downstream may
    // mask; at minimum, injecting a fault twice equals injecting it once.
    let exp = Experiment::new(same_different::netlist::library::c17());
    let tests = exhaustive_tests();
    for pos in 0..exp.faults().len() {
        let f = exp.universe().fault(exp.faults()[pos]);
        let single = observed(&exp, &Defect::StuckAt(f), &tests);
        let double = observed(&exp, &Defect::MultipleStuckAt(vec![f, f]), &tests);
        assert_eq!(single, double);
    }
}
