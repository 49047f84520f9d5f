//! Pinned ATPG results: digests of the exact tests, in order, and of the
//! untestable and aborted fault lists that the engines return on fixed
//! generated circuits.
//!
//! PODEM's decisions, its random draws and its backtrack counts, and the
//! CDCL solver's search (its branching, learned clauses and restarts), are
//! all part of the result: a change to either engine that alters any of
//! them changes a test set, and with it every dictionary built downstream.
//! Optimizations must keep these digests. A deliberate change of search
//! behaviour updates them here, in the same commit, with the reason.
//!
//! `backtrack_limit: 2` sends most hard faults from PODEM to the bounded
//! SAT fallback. At a budget of 2 conflicts the solver returns all three
//! of its outcomes (a test, an untestability proof, budget exhaustion) on
//! both profiles. The s953 case keeps the default limits, where PODEM
//! abandons eight faults per set and the fallback settles all of them.
//!
//! The SAT-dependent pins were re-recorded when the DPLL fallback gave way
//! to the CDCL solver with path-sensitization clauses; the PODEM-only pins
//! (`s298_default_options`, `podem_outcome_of_every_collapsed_fault`)
//! never reach SAT and kept their values. The DPLL fallback exhausted its
//! budget on all eight s953 aborts per set; they are redundant, so settling
//! them adds no test, and the tests-only s953 digests are the DPLL-era ones.

use sdd_atpg::sat::{generate_sat_bounded, SatOutcome};
use sdd_atpg::{
    generate_detection, generate_diagnostic, AtpgOptions, CubeOutcome, FillMode, GeneratedTestSet,
    Podem, PodemOutcome,
};
use sdd_fault::FaultUniverse;
use sdd_logic::Prng;
use sdd_netlist::{generator, CombView};

/// FNV-1a 64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Each test's bit string in order.
fn digest_tests(set: &GeneratedTestSet) -> Fnv {
    let mut h = Fnv::new();
    for test in &set.tests {
        h.bytes(test.to_string().as_bytes());
        h.bytes(b"\n");
    }
    h
}

/// [`digest_tests`], then the untestable and aborted ids.
fn digest_set(set: &GeneratedTestSet) -> u64 {
    let mut h = digest_tests(set);
    for (tag, ids) in [(b"U", &set.untestable), (b"A", &set.aborted)] {
        h.bytes(tag);
        for id in ids {
            h.bytes(&id.0.to_le_bytes());
        }
    }
    h.0
}

/// Generates the diagnostic and the 10-detection set and checks their
/// digests, reporting their sizes on mismatch to make a failure readable.
fn check_sets(
    name: &str,
    seed: u64,
    options: &AtpgOptions,
    expected: [u64; 2],
) -> [GeneratedTestSet; 2] {
    let circuit = generator::iscas89(name, seed).expect("known profile");
    let view = CombView::new(&circuit);
    let universe = FaultUniverse::enumerate(&circuit);
    let collapsed = universe.collapse_on(&circuit);
    let faults = collapsed.representatives();
    let sets = [
        generate_diagnostic(&circuit, &view, &universe, faults, options),
        generate_detection(&circuit, &view, &universe, faults, 10, options),
    ];
    let digests = sets.each_ref().map(digest_set);
    let sizes = sets
        .each_ref()
        .map(|set| [set.tests.len(), set.untestable.len(), set.aborted.len()]);
    assert_eq!(
        digests, expected,
        "{name} seed {seed}: [diag, 10det] digests {digests:x?}, pinned {expected:x?} \
         ((tests, untestable, aborted) = {sizes:?})"
    );
    sets
}

/// The bounded SAT outcome of every collapsed fault, in order: the test
/// bits, `U` for a proof, `N` for budget exhaustion. Also returns how many
/// of each outcome occurred.
fn digest_sat(name: &str, seed: u64, budget: usize) -> (u64, [usize; 3]) {
    let circuit = generator::iscas89(name, seed).expect("known profile");
    let view = CombView::new(&circuit);
    let universe = FaultUniverse::enumerate(&circuit);
    let collapsed = universe.collapse_on(&circuit);
    let mut h = Fnv::new();
    let mut counts = [0usize; 3];
    for &id in collapsed.representatives() {
        match generate_sat_bounded(&circuit, &view, universe.fault(id), Some(budget)) {
            Some(SatOutcome::Test(test)) => {
                counts[0] += 1;
                h.bytes(b"T");
                h.bytes(test.to_string().as_bytes());
            }
            Some(SatOutcome::Untestable) => {
                counts[1] += 1;
                h.bytes(b"U");
            }
            None => {
                counts[2] += 1;
                h.bytes(b"N");
            }
        }
    }
    (h.0, counts)
}

/// PODEM on every collapsed fault, in order: the deterministic search's
/// cube (`-` for a don't-care), then, unless that search aborted, the
/// randomized search's randomly filled test, both drawing from one seeded
/// rng; `U` marks an untestability proof and `A` an abort.
fn digest_podem(name: &str, seed: u64) -> (u64, [usize; 3]) {
    let circuit = generator::iscas89(name, seed).expect("known profile");
    let view = CombView::new(&circuit);
    let universe = FaultUniverse::enumerate(&circuit);
    let collapsed = universe.collapse_on(&circuit);
    let mut plain = Podem::new(&circuit, &view);
    let mut randomized = Podem::new(&circuit, &view)
        .with_fill(FillMode::Random)
        .with_randomized_search(true);
    let mut rng = Prng::seed_from_u64(seed);
    let mut h = Fnv::new();
    let mut counts = [0usize; 3];
    for &id in collapsed.representatives() {
        let fault = universe.fault(id);
        match plain.generate_cube(fault, &mut rng) {
            CubeOutcome::Cube(cube) => {
                counts[0] += 1;
                let text: String = cube
                    .0
                    .iter()
                    .map(|bit| match bit {
                        Some(true) => '1',
                        Some(false) => '0',
                        None => '-',
                    })
                    .collect();
                h.bytes(text.as_bytes());
            }
            CubeOutcome::Untestable => {
                counts[1] += 1;
                h.bytes(b"U");
            }
            CubeOutcome::Aborted => {
                // A second full-budget search would only slow the test.
                counts[2] += 1;
                h.bytes(b"A");
                continue;
            }
        }
        match randomized.generate(fault, &mut rng) {
            PodemOutcome::Test(test) => h.bytes(test.to_string().as_bytes()),
            PodemOutcome::Untestable => h.bytes(b"U"),
            PodemOutcome::Aborted => h.bytes(b"A"),
        }
    }
    (h.0, counts)
}

/// Tests-only digests of the s953 sets, recorded under the DPLL fallback,
/// which left eight faults per set aborted.
const TESTS_ONLY_DIAG: u64 = 0xacd9_1c10_e45f_b0de;
const TESTS_ONLY_10DET: u64 = 0xa000_44a0_2abd_5656;

fn tight() -> AtpgOptions {
    AtpgOptions {
        backtrack_limit: 2,
        ..AtpgOptions::default()
    }
}

#[test]
fn s298_default_options() {
    check_sets(
        "s298",
        5,
        &AtpgOptions::default(),
        [0xa9e6_bb00_cb48_58c6, 0xee33_e728_9b6d_93b6],
    );
}

#[test]
fn s298_tight_backtrack_limit_exercises_the_sat_fallback() {
    check_sets(
        "s298",
        5,
        &tight(),
        [0xf1c2_b6b3_e300_fdc3, 0x340d_65e2_d319_d394],
    );
}

#[test]
fn s344_tight_backtrack_limit_exercises_the_sat_fallback() {
    check_sets(
        "s344",
        3,
        &tight(),
        [0xb75f_35cb_43f9_72b2, 0xd1fd_c775_2ad0_852f],
    );
}

#[test]
fn bounded_sat_outcome_of_every_collapsed_fault() {
    let got = [("s298", 5), ("s344", 3)].map(|(name, seed)| digest_sat(name, seed, 2));
    let digests = got.map(|(digest, _)| digest);
    let counts = got.map(|(_, counts)| counts);
    assert_eq!(
        (digests, counts),
        (
            [0x0b89_4a6e_5836_64c7, 0x4af2_8d6c_e2a5_819b],
            [[320, 9, 58], [368, 11, 103]]
        ),
        "[s298 seed 5, s344 seed 3] digests and (test, untestable, exhausted) counts"
    );
}

#[test]
fn podem_outcome_of_every_collapsed_fault() {
    let got = [("s298", 5), ("s344", 3)].map(|(name, seed)| digest_podem(name, seed));
    let digests = got.map(|(digest, _)| digest);
    let counts = got.map(|(_, counts)| counts);
    assert_eq!(
        digests,
        [0x4005_f0eb_ec97_474e, 0x6ffe_5e33_d53a_873c],
        "[s298 seed 5, s344 seed 3] digests {digests:x?} \
         ((cube, untestable, aborted) = {counts:?})"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run in release")]
fn s953_default_options_settle_every_fault() {
    let sets = check_sets(
        "s953",
        1,
        &AtpgOptions::default(),
        [0xc7e2_d4bd_ec0f_bfd9, 0xd029_d023_2d6c_7541],
    );
    for set in &sets {
        assert!(set.aborted.is_empty(), "aborted {:?}", set.aborted);
    }
    let tests_only = sets.each_ref().map(|set| digest_tests(set).0);
    assert_eq!(
        tests_only,
        [TESTS_ONLY_DIAG, TESTS_ONLY_10DET],
        "s953 seed 1: the settled aborts are redundant, so the tests must not move"
    );
}
