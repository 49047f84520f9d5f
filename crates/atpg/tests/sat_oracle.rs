//! The SAT engine's verdicts on the s953 profile against independent
//! simulation: every test it returns is checked with `sim::reference`, and
//! every untestability proof against seeded random patterns through the
//! packed simulator.

use sdd_atpg::random_patterns;
use sdd_atpg::sat::{generate_sat_bounded, SatOutcome};
use sdd_fault::FaultUniverse;
use sdd_logic::{PatternBlock, Prng, LANES};
use sdd_netlist::{generator, CombView};
use sdd_sim::{reference, Engine};

/// The conflict budget test-set generation gives the SAT fallback.
const FALLBACK_BUDGET: usize = 32_768;

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run in release")]
fn s953_verdicts_agree_with_simulation() {
    let circuit = generator::iscas89("s953", 1).expect("known profile");
    let view = CombView::new(&circuit);
    let universe = FaultUniverse::enumerate(&circuit);
    let collapsed = universe.collapse_on(&circuit);
    let mut untestable = Vec::new();
    for &id in collapsed.representatives() {
        let fault = universe.fault(id);
        match generate_sat_bounded(&circuit, &view, fault, Some(FALLBACK_BUDGET)) {
            Some(SatOutcome::Test(test)) => assert_ne!(
                reference::good_response(&circuit, &view, &test),
                reference::faulty_response(&circuit, &view, fault, &test),
                "{}: the SAT test does not detect it",
                fault.describe(&circuit)
            ),
            Some(SatOutcome::Untestable) => untestable.push(fault),
            None => panic!("{}: budget exhausted", fault.describe(&circuit)),
        }
    }
    let width = view.inputs().len();
    let mut rng = Prng::seed_from_u64(953);
    let mut engine = Engine::new(&circuit, &view);
    for block in random_patterns(width, 64 * LANES, &mut rng).chunks(LANES) {
        engine.load_block(&PatternBlock::from_patterns(width, block));
        for &fault in &untestable {
            assert_eq!(
                engine.run_fault(fault).detect,
                0,
                "{} is proven untestable but a random pattern detects it",
                fault.describe(&circuit)
            );
        }
    }
    // Both of the profile's test sets report the same 27 redundant faults.
    assert_eq!(untestable.len(), 27);
}
