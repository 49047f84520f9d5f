//! The full production flow: ATPG → dictionary → tester datalog →
//! diagnosis.
//!
//! A defective chip is "tested" on a modeled tester with two scan chains;
//! the tester emits a fail log (failing test / chain / cell entries), and
//! diagnosis reconstructs the observed responses from the log before
//! matching them against a same/different dictionary.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example tester_datalog [circuit] [seed]
//! ```

use same_different::atpg::AtpgOptions;
use same_different::dict::diagnose::observed_responses;
use same_different::dict::{select_baselines, Procedure1Options, SameDifferentDictionary};
use same_different::logic::{BitVec, MaskedBitVec};
use same_different::sim::{FailLog, ScanChains};
use same_different::Experiment;
use sdd_logic::Prng;

fn main() {
    let mut args = std::env::args().skip(1);
    let circuit = args.next().unwrap_or_else(|| "s298".to_owned());
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);
    let mut rng = Prng::seed_from_u64(seed);

    let exp = Experiment::iscas89(&circuit, 1).expect("known circuit");
    let chains = ScanChains::balanced(exp.circuit(), 2);
    println!(
        "circuit {}: {} scan cells on {} chains, {} primary outputs",
        exp.circuit().name(),
        chains.cell_count(),
        chains.chain_count(),
        exp.circuit().output_count()
    );

    // Offline: tests, expected responses, dictionary.
    let tests = exp.diagnostic_tests(&AtpgOptions::default());
    let matrix = exp.simulate(&tests.tests);
    let expected: Vec<BitVec> = (0..matrix.test_count())
        .map(|t| matrix.good_response(t).clone())
        .collect();
    let selection = select_baselines(
        &matrix,
        &Procedure1Options {
            calls1: 20,
            ..Procedure1Options::default()
        },
    );
    let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);

    // On the tester: a defective chip fails some observations.
    let culprit_pos = rng.gen_range(0..exp.faults().len());
    let culprit = exp.universe().fault(exp.faults()[culprit_pos]);
    let observed = observed_responses(exp.circuit(), exp.view(), culprit, &tests.tests);
    let log = FailLog::from_responses(exp.circuit(), &chains, &observed, &expected);
    println!(
        "\ndefect {} produced {} failing observations over {} failing tests:",
        culprit.describe(exp.circuit()),
        log.len(),
        log.failing_tests().len()
    );
    for entry in log.entries.iter().take(8) {
        println!("  test {:>3} @ {}", entry.test, entry.observation);
    }
    if log.len() > 8 {
        println!("  … {} more", log.len() - 8);
    }

    // In the diagnosis tool: datalog → responses → dictionary match.
    let reconstructed = log.to_responses(exp.circuit(), &chains, &expected);
    assert_eq!(reconstructed, observed, "datalog is lossless");
    let reconstructed: Vec<MaskedBitVec> =
        reconstructed.into_iter().map(MaskedBitVec::from).collect();
    let report = dictionary
        .diagnose_masked(&reconstructed)
        .expect("well-formed observation");
    println!("\ndiagnosis candidates (distance {}):", report.distance());
    for &pos in report.candidates() {
        println!(
            "  {}",
            exp.universe()
                .fault(exp.faults()[pos])
                .describe(exp.circuit())
        );
    }
    assert!(report.candidates().contains(&culprit_pos));
    println!("\nthe injected defect is among the candidates: flow verified");
}
