//! The partition and scoring kernels against the hash-map code they
//! replaced, kept here as the oracle, on seeded random response matrices.
//!
//! Every comparison is exact: candidate gains, the group labels after
//! `refine`, `refine_bits` and `intersect` (first-appearance numbering is
//! observable through `labels()`), Procedure 1's baselines and pair counts,
//! and the baselines one Procedure 2 pass leaves.

use std::collections::HashMap;

use sdd_core::{
    replace_baselines_pass, score_candidates, score_candidates_into, select_baselines_once,
    ScoreScratch,
};
use sdd_logic::{BitVec, Prng};
use sdd_sim::{Partition, ResponseMatrix};

/// Fault counts covered: the empty, one- and two-fault edge cases up to a
/// few thousand faults.
const FAULT_COUNTS: [usize; 11] = [0, 1, 2, 3, 5, 17, 64, 250, 1_000, 2_000, 3_000];

/// The partition refinement the dense kernels replaced: one hash-map entry
/// per `(group, label)` pair, numbered by first appearance.
#[derive(Debug, Clone)]
struct OraclePartition {
    group_of: Vec<u32>,
    group_count: u32,
}

impl OraclePartition {
    fn unit(n: usize) -> Self {
        Self {
            group_of: vec![0; n],
            group_count: u32::from(n > 0),
        }
    }

    fn refine(&mut self, labels: &[u32]) {
        assert_eq!(labels.len(), self.group_of.len());
        let mut renumber: HashMap<(u32, u32), u32> = HashMap::new();
        let mut next = 0u32;
        for (slot, &label) in self.group_of.iter_mut().zip(labels) {
            *slot = *renumber.entry((*slot, label)).or_insert_with(|| {
                next += 1;
                next - 1
            });
        }
        self.group_count = next;
    }

    fn refine_bits(&mut self, bit: impl Fn(usize) -> bool) {
        let labels: Vec<u32> = (0..self.group_of.len())
            .map(|i| u32::from(bit(i)))
            .collect();
        self.refine(&labels);
    }

    fn intersect(&self, other: &Self) -> Self {
        let mut merged = self.clone();
        merged.refine(&other.group_of);
        merged
    }

    fn sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.group_count as usize];
        for &g in &self.group_of {
            sizes[g as usize] += 1;
        }
        sizes
    }

    fn pairs(&self) -> u64 {
        self.sizes()
            .iter()
            .map(|&s| s * s.saturating_sub(1) / 2)
            .sum()
    }
}

/// The hash-map `score_candidates_into`: `(group, class)` occurrence counts.
fn oracle_scores(matrix: &ResponseMatrix, test: usize, pairs: &OraclePartition) -> Vec<u64> {
    let sizes = pairs.sizes();
    let mut counts: HashMap<(u32, u32), u64> = HashMap::new();
    for (fault, &class) in matrix.classes(test).iter().enumerate() {
        let group = pairs.group_of[fault];
        if sizes[group as usize] >= 2 {
            *counts.entry((group, class)).or_insert(0) += 1;
        }
    }
    let mut gains = vec![0u64; matrix.class_count(test)];
    for (&(group, class), &count) in &counts {
        gains[class as usize] += count * (sizes[group as usize] - count);
    }
    gains
}

/// The paper's `LOWER` rule, as Procedure 1 applies it.
fn oracle_pick(gains: &[u64], lower: Option<usize>) -> u32 {
    let mut best = 0usize;
    let mut below = 0usize;
    for (candidate, &gain) in gains.iter().enumerate() {
        if gain > gains[best] {
            best = candidate;
            below = 0;
        } else if gain < gains[best] {
            below += 1;
            if Some(below) == lower {
                break;
            }
        }
    }
    best as u32
}

/// The partition-based Procedure 1 pass.
fn oracle_select_once(
    matrix: &ResponseMatrix,
    order: &[usize],
    lower: Option<usize>,
) -> (Vec<u32>, u64) {
    let mut pairs = OraclePartition::unit(matrix.fault_count());
    let mut baselines = vec![0u32; matrix.test_count()];
    for &test in order {
        let best = oracle_pick(&oracle_scores(matrix, test, &pairs), lower);
        baselines[test] = best;
        let classes = matrix.classes(test);
        pairs.refine_bits(|i| classes[i] == best);
    }
    (baselines, pairs.pairs())
}

/// One Procedure 2 pass over prefix and suffix partitions.
fn oracle_replace_pass(matrix: &ResponseMatrix, baselines: &mut [u32]) -> bool {
    let k = matrix.test_count();
    let n = matrix.fault_count();
    let mut suffix = vec![OraclePartition::unit(n)];
    for j in (0..k).rev() {
        let mut p = suffix.last().expect("nonempty").clone();
        let classes = matrix.classes(j);
        let baseline = baselines[j];
        p.refine_bits(|i| classes[i] == baseline);
        suffix.push(p);
    }
    suffix.reverse();
    let mut improved = false;
    let mut prefix = OraclePartition::unit(n);
    for j in 0..k {
        let gains = oracle_scores(matrix, j, &prefix.intersect(&suffix[j + 1]));
        let current = gains[baselines[j] as usize];
        let (best_class, best_gain) = gains
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("every test has the fault-free class");
        if best_gain > current {
            baselines[j] = best_class as u32;
            improved = true;
        }
        let classes = matrix.classes(j);
        let baseline = baselines[j];
        prefix.refine_bits(|i| classes[i] == baseline);
    }
    improved
}

/// A random class row: class 0 (the fault-free response) with probability
/// `quiet`, otherwise uniform over `1..classes`; classes may go unused.
fn random_classes(rng: &mut Prng, faults: usize, classes: usize, quiet: f64) -> Vec<u32> {
    (0..faults)
        .map(|_| {
            if classes == 1 || rng.gen_bool(quiet) {
                0
            } else {
                rng.gen_range(1..classes) as u32
            }
        })
        .collect()
}

/// A random matrix: each test draws its own class count and skew, from one
/// class (no test splits anything) up to about one class per fault.
fn random_matrix(rng: &mut Prng, faults: usize, tests: usize) -> ResponseMatrix {
    const OUTPUTS: usize = 32;
    let mut class = Vec::with_capacity(tests * faults);
    let mut distinct = Vec::with_capacity(tests);
    for _ in 0..tests {
        let cap = [1, 2, 3, 8, 40, faults + 1][rng.gen_range(0..6)].max(1);
        let classes = rng.gen_range(1..=cap);
        let quiet = [0.0, 0.3, 0.8, 0.97][rng.gen_range(0..4)];
        class.extend(random_classes(rng, faults, classes, quiet));
        // Class c's flipped outputs are the set bits of c: distinct, in range.
        distinct.push(
            (0..classes as u32)
                .map(|c| (0..OUTPUTS as u32).filter(|b| c >> b & 1 == 1).collect())
                .collect(),
        );
    }
    ResponseMatrix::from_class_parts(
        vec![BitVec::zeros(OUTPUTS); tests],
        faults,
        OUTPUTS,
        class,
        distinct,
    )
    .expect("consistent parts")
}

/// A random label row for `refine`: few labels (large groups), many
/// (singletons), or labels near `u32::MAX` that no table may be sized by.
fn random_labels(rng: &mut Prng, faults: usize) -> Vec<u32> {
    let span = [1, 2, 5, 50, faults.max(1)][rng.gen_range(0..5)];
    let huge = rng.gen_bool(0.25);
    (0..faults)
        .map(|_| {
            let label = rng.gen_range(0..span) as u32;
            if huge {
                u32::MAX - label * 7
            } else {
                label
            }
        })
        .collect()
}

/// Refines a kernel partition and the oracle with the same random rows and
/// checks their labels after every step.
fn random_partitions(rng: &mut Prng, faults: usize) -> (Partition, OraclePartition) {
    let mut p = Partition::unit(faults);
    let mut oracle = OraclePartition::unit(faults);
    for _ in 0..rng.gen_range(0..4) {
        if rng.gen_bool(0.5) {
            let labels = random_labels(rng, faults);
            p.refine(&labels);
            oracle.refine(&labels);
        } else {
            let bits = random_classes(rng, faults, 2, 0.5);
            p.refine_bits(|i| bits[i] == 1);
            oracle.refine_bits(|i| bits[i] == 1);
        }
        assert_eq!(p.labels(), oracle.group_of, "{faults} faults");
        assert_eq!(p.group_count(), oracle.group_count as usize);
    }
    (p, oracle)
}

#[test]
fn refine_refine_bits_and_intersect_match_the_oracle_labels() {
    let mut rng = Prng::seed_from_u64(0x5DD_0001);
    for &faults in &FAULT_COUNTS {
        for round in 0..6 {
            let (a, oracle_a) = random_partitions(&mut rng, faults);
            let (b, oracle_b) = random_partitions(&mut rng, faults);
            let merged = a.intersect(&b);
            let oracle_merged = oracle_a.intersect(&oracle_b);
            assert_eq!(
                merged.labels(),
                oracle_merged.group_of,
                "intersect, {faults} faults, round {round}"
            );
            assert_eq!(merged.indistinguished_pairs(), oracle_merged.pairs());
            assert_eq!(
                Partition::from_labels(&random_labels(&mut rng, faults)).len(),
                faults
            );
        }
    }
}

#[test]
fn candidate_gains_match_the_oracle() {
    let mut rng = Prng::seed_from_u64(0x5DD_0002);
    // One scratch across every matrix size and shape: a table left sized
    // or dirty by an earlier call must not leak into a later one.
    let mut scratch = ScoreScratch::default();
    for &faults in &FAULT_COUNTS {
        for _ in 0..4 {
            let tests = rng.gen_range(1..10);
            let m = random_matrix(&mut rng, faults, tests);
            let (p, oracle) = random_partitions(&mut rng, faults);
            for test in 0..tests {
                let expected = oracle_scores(&m, test, &oracle);
                assert_eq!(
                    score_candidates_into(&m, test, &p, &mut scratch),
                    expected,
                    "{faults} faults, test {test}"
                );
                assert_eq!(score_candidates(&m, test, &p), expected);
                // A gain is the pair count one same/different bit removes.
                let baseline = rng.gen_range(0..m.class_count(test)) as u32;
                let mut refined = p.clone();
                refined.refine_bits(|i| m.class(test, i) == baseline);
                assert_eq!(
                    p.indistinguished_pairs() - refined.indistinguished_pairs(),
                    expected[baseline as usize]
                );
            }
        }
    }
}

#[test]
fn procedure1_pass_matches_the_oracle() {
    let mut rng = Prng::seed_from_u64(0x5DD_0003);
    for &faults in &FAULT_COUNTS {
        for _ in 0..4 {
            let tests = rng.gen_range(1..16);
            let m = random_matrix(&mut rng, faults, tests);
            let mut order: Vec<usize> = (0..tests).collect();
            for lower in [Some(10), Some(1), None] {
                rng.shuffle(&mut order);
                assert_eq!(
                    select_baselines_once(&m, &order, lower),
                    oracle_select_once(&m, &order, lower),
                    "{faults} faults, {tests} tests, lower {lower:?}"
                );
            }
        }
    }
}

#[test]
fn procedure2_pass_matches_the_oracle() {
    let mut rng = Prng::seed_from_u64(0x5DD_0004);
    for &faults in &FAULT_COUNTS {
        for _ in 0..4 {
            let tests = rng.gen_range(1..16);
            let m = random_matrix(&mut rng, faults, tests);
            let start: Vec<u32> = (0..tests)
                .map(|t| rng.gen_range(0..m.class_count(t)) as u32)
                .collect();
            let mut fast = start.clone();
            let mut slow = start;
            assert_eq!(
                replace_baselines_pass(&m, &mut fast),
                oracle_replace_pass(&m, &mut slow),
                "{faults} faults, {tests} tests"
            );
            assert_eq!(fast, slow, "{faults} faults, {tests} tests");
        }
    }
}
