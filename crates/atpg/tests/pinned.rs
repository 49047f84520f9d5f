//! Pinned ATPG results: digests of the exact tests, in order, and of the
//! untestable and aborted fault lists that the engines return on fixed
//! generated circuits.
//!
//! PODEM's decisions, its random draws and its backtrack counts, and the
//! DPLL solver's branching order, are all part of the result: a change to
//! either engine that alters any of them changes a test set, and with it
//! every dictionary built downstream. Optimizations must keep these
//! digests. A deliberate change of search behaviour updates them here, in
//! the same commit, with the reason.
//!
//! `backtrack_limit: 2` sends most hard faults from PODEM to the bounded
//! SAT fallback; on the s344 profile it then returns all three of its
//! outcomes (a test, an untestability proof, budget exhaustion). The s953
//! case keeps the default limit, where eight faults per set abort
//! naturally after both engines give up.

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

/// Each test's bit string in order, then the untestable and aborted ids.
fn digest_set(set: &GeneratedTestSet) -> u64 {
    let mut h = Fnv::new();
    for test in &set.tests {
        h.bytes(test.to_string().as_bytes());
        h.bytes(b"\n");
    }
    for (tag, ids) in [(b"U", &set.untestable), (b"A", &set.aborted)] {
        h.bytes(tag);
        for id in ids {
            h.bytes(&id.0.to_le_bytes());
        }
    }
    h.0
}

/// Digests of the diagnostic and the 10-detection set, plus their sizes
/// (reported on mismatch to make a failure readable).
fn pinned_sets(name: &str, seed: u64, options: &AtpgOptions) -> [(u64, [usize; 3]); 2] {
    let circuit = generator::iscas89(name, seed).expect("known profile");
    let view = CombView::new(&circuit);
    let universe = FaultUniverse::enumerate(&circuit);
    let collapsed = universe.collapse_on(&circuit);
    let faults = collapsed.representatives();
    let diag = generate_diagnostic(&circuit, &view, &universe, faults, options);
    let ten = generate_detection(&circuit, &view, &universe, faults, 10, options);
    [&diag, &ten].map(|set| {
        (
            digest_set(set),
            [set.tests.len(), set.untestable.len(), set.aborted.len()],
        )
    })
}

fn check_sets(name: &str, seed: u64, options: &AtpgOptions, expected: [u64; 2]) {
    let got = pinned_sets(name, seed, options);
    let digests = got.map(|(digest, _)| digest);
    let sizes = got.map(|(_, sizes)| sizes);
    assert_eq!(
        digests, expected,
        "{name} seed {seed}: [diag, 10det] digests {digests:x?}, pinned {expected:x?} \
         ((tests, untestable, aborted) = {sizes:?})"
    );
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
        [0x5f55_6632_4824_520e, 0x340d_65e2_d319_d394],
    );
}

#[test]
fn s344_tight_backtrack_limit_exercises_the_sat_fallback() {
    check_sets(
        "s344",
        3,
        &tight(),
        [0x9365_ecbe_9797_7b70, 0x59cd_9560_f0cb_6199],
    );
}

#[test]
fn bounded_sat_outcome_of_every_collapsed_fault() {
    let got = [("s298", 5), ("s344", 3)].map(|(name, seed)| digest_sat(name, seed, 2));
    let digests = got.map(|(digest, _)| digest);
    let counts = got.map(|(_, counts)| counts);
    assert_eq!(
        digests,
        [0x7d9f_4d17_3829_3dc8, 0xa908_3e2d_a2cd_d01b],
        "[s298 seed 5, s344 seed 3] digests {digests:x?} \
         ((test, untestable, exhausted) = {counts:?})"
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
fn s953_default_options_with_natural_aborts() {
    check_sets(
        "s953",
        1,
        &AtpgOptions::default(),
        [0x4ff7_467d_1d40_1389, 0xf0b4_9e54_2cf5_8171],
    );
}
