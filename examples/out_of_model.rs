//! Diagnosis robustness against defects *outside* the single stuck-at
//! model: two-net bridges and multiple simultaneous stuck-at lines.
//!
//! Dictionaries only store modeled (stuck-at) behaviour; a real defect
//! rarely matches any entry exactly. The classic success criterion (the
//! paper's reference [7]) is that the nearest-match candidates point at the
//! defect's physical location. This example injects bridges and double
//! faults, diagnoses with a same/different dictionary, and scores locality.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example out_of_model [circuit] [seed]
//! ```

use same_different::atpg::AtpgOptions;
use same_different::dict::{select_baselines, Procedure1Options, SameDifferentDictionary};
use same_different::fault::{BridgeKind, Defect, FaultSite};
use same_different::logic::{BitVec, MaskedBitVec};
use same_different::sim::reference;
use same_different::Experiment;
use sdd_logic::Prng;

fn main() {
    let mut args = std::env::args().skip(1);
    let circuit = args.next().unwrap_or_else(|| "s344".to_owned());
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(11);
    let mut rng = Prng::seed_from_u64(seed);

    let exp = Experiment::iscas89(&circuit, 1).expect("known circuit");
    let tests = exp.diagnostic_tests(&AtpgOptions::default());
    let matrix = exp.simulate(&tests.tests);
    let selection = select_baselines(
        &matrix,
        &Procedure1Options {
            calls1: 20,
            ..Procedure1Options::default()
        },
    );
    let sd = SameDifferentDictionary::build(&matrix, &selection.baselines);

    let nets: Vec<_> = exp.circuit().nets().collect();
    let mut trials = 0;
    let mut located = 0;
    let mut exactish = 0;

    for trial in 0..20 {
        // Alternate bridge and double-fault defects.
        let defect = if trial % 2 == 0 {
            let a = nets[rng.gen_range(0..nets.len())];
            let b = nets[rng.gen_range(0..nets.len())];
            if a == b {
                continue;
            }
            let kind = match rng.gen_range(0..4) {
                0 => BridgeKind::And,
                1 => BridgeKind::Or,
                2 => BridgeKind::ADominates,
                _ => BridgeKind::BDominates,
            };
            Defect::Bridge { a, b, kind }
        } else {
            let f1 = exp
                .universe()
                .fault(exp.faults()[rng.gen_range(0..exp.faults().len())]);
            let f2 = exp
                .universe()
                .fault(exp.faults()[rng.gen_range(0..exp.faults().len())]);
            Defect::MultipleStuckAt(vec![f1, f2])
        };

        // What the tester observes.
        let observed: Vec<BitVec> = tests
            .tests
            .iter()
            .map(|t| reference::defect_response(exp.circuit(), exp.view(), &defect, t))
            .collect();
        // Skip defects that never fail a test (nothing to diagnose).
        if observed
            .iter()
            .enumerate()
            .all(|(t, r)| r == matrix.good_response(t))
        {
            continue;
        }
        trials += 1;

        let observed: Vec<MaskedBitVec> = observed.into_iter().map(MaskedBitVec::from).collect();
        let report = sd
            .diagnose_masked(&observed)
            .expect("well-formed observation");
        let plausible = defect.plausible_sites();
        let hit = report.candidates().iter().any(|&pos| {
            let fault = exp.universe().fault(exp.faults()[pos]);
            let site = match fault.site {
                FaultSite::Stem(net) => net,
                FaultSite::Branch { gate, .. } => gate,
            };
            plausible.contains(&site)
        });
        if hit {
            located += 1;
        }
        if report.distance() == 0 {
            exactish += 1;
        }
        println!(
            "{:<44} {} candidates, distance {:>3}, located: {}",
            defect.describe(exp.circuit()),
            report.candidates().len(),
            report.distance(),
            if hit { "yes" } else { "no" }
        );
    }

    println!(
        "\n{located}/{trials} out-of-model defects localized to a plausible site \
         ({exactish} behaved exactly like a modeled fault)"
    );
}
