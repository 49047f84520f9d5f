//! Diagnose an injected defect with each dictionary type.
//!
//! A "defective chip" is simulated by injecting a randomly chosen stuck-at
//! fault (the tester does not know which); its observed responses are then
//! matched against a pass/fail dictionary, a same/different dictionary, and
//! a full dictionary, and finally run through two-phase
//! dictionary-plus-simulation diagnosis.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example diagnose_defect [circuit] [seed]
//! ```

use same_different::atpg::AtpgOptions;
use same_different::dict::diagnose::{observed_responses, two_phase_diagnose_masked};
use same_different::dict::{
    replace_baselines, select_baselines, FullDictionary, PassFailDictionary, Procedure1Options,
    SameDifferentDictionary,
};
use same_different::Experiment;
use sdd_logic::{MaskedBitVec, Prng};

fn main() {
    let mut args = std::env::args().skip(1);
    let circuit = args.next().unwrap_or_else(|| "s344".to_owned());
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(7);
    let mut rng = Prng::seed_from_u64(seed);

    let exp = Experiment::iscas89(&circuit, 1).expect("known circuit");
    let tests = exp.diagnostic_tests(&AtpgOptions::default());
    let matrix = exp.simulate(&tests.tests);

    // Build the dictionaries once, offline.
    let pass_fail = PassFailDictionary::build(&matrix);
    let mut selection = select_baselines(
        &matrix,
        &Procedure1Options {
            calls1: 20,
            ..Procedure1Options::default()
        },
    );
    replace_baselines(&matrix, &mut selection.baselines);
    let sd = SameDifferentDictionary::build(&matrix, &selection.baselines);
    let full = FullDictionary::new(matrix.clone());

    // The "defect": a fault the tester does not know.
    let culprit_pos = rng.gen_range(0..exp.faults().len());
    let culprit_id = exp.faults()[culprit_pos];
    let culprit = exp.universe().fault(culprit_id);
    println!(
        "injected defect: {} (kept secret from the dictionaries)",
        culprit.describe(exp.circuit())
    );

    // What the tester sees: clean data, every bit known.
    let responses = observed_responses(exp.circuit(), exp.view(), culprit, &tests.tests);
    let observed_pf = MaskedBitVec::from_known(
        responses
            .iter()
            .zip(0..matrix.test_count())
            .map(|(r, t)| r != matrix.good_response(t))
            .collect(),
    );
    let observed: Vec<MaskedBitVec> = responses.into_iter().map(MaskedBitVec::from).collect();

    let name = |pos: usize| {
        exp.universe()
            .fault(exp.faults()[pos])
            .describe(exp.circuit())
    };

    let r = pass_fail
        .diagnose_masked(&observed_pf)
        .expect("well-formed observation");
    println!(
        "\npass/fail dictionary:      {} candidate(s): {}",
        r.candidates().len(),
        r.candidates()
            .iter()
            .map(|&p| name(p))
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert!(r.candidates().contains(&culprit_pos));

    let r = sd
        .diagnose_masked(&observed)
        .expect("well-formed observation");
    println!(
        "same/different dictionary: {} candidate(s): {}",
        r.candidates().len(),
        r.candidates()
            .iter()
            .map(|&p| name(p))
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert!(r.candidates().contains(&culprit_pos));

    let r = full
        .diagnose_masked(&observed)
        .expect("well-formed observation");
    println!(
        "full dictionary:           {} candidate(s): {}",
        r.candidates().len(),
        r.candidates()
            .iter()
            .map(|&p| name(p))
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert!(r.candidates().contains(&culprit_pos));

    // Two-phase: dictionary screen + exact simulation of survivors.
    let ranked = two_phase_diagnose_masked(
        exp.circuit(),
        exp.view(),
        exp.universe(),
        exp.faults(),
        &tests.tests,
        &observed,
        &sd,
    )
    .expect("well-formed observation");
    println!("\ntwo-phase (same/different screen + simulation):");
    for (id, distance) in &ranked {
        println!(
            "  {:<24} total output-bit distance {distance}",
            exp.universe().fault(*id).describe(exp.circuit())
        );
    }
    assert_eq!(
        ranked[0].1, 0,
        "the culprit's own behaviour matches exactly"
    );
    println!("\ninjected defect is ranked first: diagnosis succeeded");
}
