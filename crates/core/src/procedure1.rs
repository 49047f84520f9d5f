//! Procedure 1: greedy selection of baseline output vectors.
//!
//! For each test `t_j` (in a given order), every candidate baseline
//! `z ∈ Z_j` is scored by `dist(z)` — the number of still-undistinguished
//! fault pairs the test would distinguish with that baseline — and the best
//! candidate is selected. The paper's `LOWER` cutoff stops scanning
//! candidates after `LOWER` consecutive non-improving ones; the procedure is
//! restarted with random test orders until `CALLS_1` consecutive restarts
//! bring no improvement.
//!
//! This implementation keeps the set `P` of target pairs as a *partition*
//! of faults into undistinguished groups, so scoring all candidates of one
//! test costs a single sweep over the faults still sharing a group (see
//! `DESIGN.md` §3) while computing exactly the paper's `dist` values — the
//! worked-example tests reproduce Tables 4 and 5 digit for digit.
//!
//! Restarts are embarrassingly parallel, and this module exploits that:
//! restart `i`'s test order is derived *independently* from `(seed, i)`
//! (restart 0 is the natural order) rather than from one evolving generator,
//! so any worker can evaluate any restart. With
//! [`jobs`](Procedure1Options::jobs) > 1 restarts are evaluated in waves of
//! `jobs` scoped threads and reduced in restart-index order under the serial
//! stopping rule, with ties broken toward the lowest restart index — making
//! the selection **bit-identical for every `jobs` value** at a fixed seed.
//! Restarts a serial run would never have reached (the tail of a wave after
//! the stopping rule fires) are computed speculatively and discarded.

use std::time::Instant;

use sdd_logic::Prng;

use sdd_sim::{Partition, ResponseMatrix};

use crate::Budget;

/// Knobs for [`select_baselines`]. Defaults are the paper's experimental
/// settings: `LOWER = 10`, `CALLS_1 = 100`, and serial evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Procedure1Options {
    /// The `LOWER` cutoff: stop scanning a test's candidates after this many
    /// consecutive candidates score strictly below the best so far.
    /// `None` scores every candidate (exhaustive ablation).
    pub lower: Option<usize>,
    /// Stop restarting after this many consecutive non-improving calls
    /// (the paper's `CALLS_1`).
    pub calls1: usize,
    /// Hard cap on total calls, guarding pathological cases.
    pub max_calls: usize,
    /// Seed for the random test orders.
    pub seed: u64,
    /// Worker threads evaluating restarts concurrently. The result is
    /// identical for every value (see the module docs); more jobs only buy
    /// wall-clock time. `0` is treated as 1; callers wanting "all the
    /// hardware" pass [`sdd_sim::available_jobs`].
    pub jobs: usize,
}

impl Default for Procedure1Options {
    fn default() -> Self {
        Self {
            lower: Some(10),
            calls1: 100,
            max_calls: 5_000,
            seed: 1,
            jobs: 1,
        }
    }
}

/// Reusable buffers for [`score_candidates_into`] and the Procedure 1 pass:
/// the faults of every group that still holds a pair, stored as contiguous
/// segments, a dense per-class count table and the output gains. One
/// scratch per worker thread amortizes all scoring allocations across an
/// entire Procedure 1 restart (or Procedure 2 pass), where scoring runs
/// once per test.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// Fault indices, one segment per group of two or more faults.
    members: Vec<u32>,
    /// The end offset in `members` of each segment.
    ends: Vec<u32>,
    /// Spare `ends` for [`split`](Self::split) to write into.
    spare_ends: Vec<u32>,
    /// Per-class member count of the segment being scored; all zero
    /// between segments.
    counts: Vec<u32>,
    /// The classes with a nonzero count in the segment being scored.
    touched: Vec<u32>,
    gains: Vec<u64>,
}

/// A group of one fault, which no test can split, while bucketing.
const SINGLETON: u32 = u32::MAX;

impl ScoreScratch {
    /// Loads one segment per group of `pairs` holding two or more faults,
    /// each in ascending fault order.
    fn load(&mut self, pairs: &Partition) {
        // `ends` first holds each group's size, then its next write offset.
        let cursor = &mut self.ends;
        cursor.clear();
        cursor.resize(pairs.group_count(), 0);
        for &g in pairs.labels() {
            cursor[g as usize] += 1;
        }
        let mut offset = 0u32;
        self.spare_ends.clear();
        for slot in cursor.iter_mut() {
            if *slot >= 2 {
                let size = *slot;
                *slot = offset;
                offset += size;
                self.spare_ends.push(offset);
            } else {
                *slot = SINGLETON;
            }
        }
        self.members.clear();
        self.members.resize(offset as usize, 0);
        for (fault, &g) in pairs.labels().iter().enumerate() {
            let slot = &mut cursor[g as usize];
            if *slot != SINGLETON {
                self.members[*slot as usize] = fault as u32;
                *slot += 1;
            }
        }
        std::mem::swap(&mut self.ends, &mut self.spare_ends);
    }

    /// Loads the unit partition of `faults` faults.
    fn load_unit(&mut self, faults: usize) {
        self.members.clear();
        self.ends.clear();
        if faults >= 2 {
            self.members.extend(0..faults as u32);
            self.ends.push(faults as u32);
        }
    }

    /// `dist(z)` for every class `z` of `test` over the loaded segments: a
    /// segment of `s` faults, `c` of them in class `z`, adds `c·(s − c)`.
    fn score(&mut self, matrix: &ResponseMatrix, test: usize) -> &[u64] {
        let classes = matrix.classes(test);
        let class_count = matrix.class_count(test);
        self.gains.clear();
        self.gains.resize(class_count, 0);
        if self.counts.len() < class_count {
            self.counts.resize(class_count, 0);
        }
        let mut start = 0;
        for &end in &self.ends {
            let segment = &self.members[start..end as usize];
            for &fault in segment {
                let class = classes[fault as usize];
                let count = &mut self.counts[class as usize];
                if *count == 0 {
                    self.touched.push(class);
                }
                *count += 1;
            }
            let size = segment.len() as u64;
            for &class in &self.touched {
                let count = u64::from(std::mem::take(&mut self.counts[class as usize]));
                self.gains[class as usize] += count * (size - count);
            }
            self.touched.clear();
            start = end as usize;
        }
        &self.gains
    }

    /// Refines the loaded segments by one same/different bit: each splits
    /// into its faults of class `baseline` and the rest, and parts of fewer
    /// than two faults are dropped.
    fn split(&mut self, classes: &[u32], baseline: u32) {
        self.spare_ends.clear();
        let mut write = 0usize;
        let mut start = 0usize;
        for &end in &self.ends {
            let end = end as usize;
            let segment = &mut self.members[start..end];
            let mut same = 0;
            for i in 0..segment.len() {
                if classes[segment[i] as usize] == baseline {
                    segment.swap(i, same);
                    same += 1;
                }
            }
            // Parts move down to `write`, which never passes their start.
            for part in [start..start + same, start + same..end] {
                if part.len() >= 2 {
                    let len = part.len();
                    self.members.copy_within(part, write);
                    write += len;
                    self.spare_ends.push(write as u32);
                }
            }
            start = end;
        }
        self.members.truncate(write);
        std::mem::swap(&mut self.ends, &mut self.spare_ends);
    }

    /// Fault pairs left in the loaded segments.
    fn pairs(&self) -> u64 {
        let mut start = 0u64;
        self.ends
            .iter()
            .map(|&end| {
                let size = u64::from(end) - start;
                start = u64::from(end);
                size * (size - 1) / 2
            })
            .sum()
    }
}

/// The result of baseline selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineSelection {
    /// The selected baseline response class per test (index into each
    /// test's `Z_j`; class 0 is the fault-free vector).
    pub baselines: Vec<u32>,
    /// Fault pairs left indistinguished by the resulting dictionary.
    pub indistinguished_pairs: u64,
    /// Number of Procedure 1 calls performed.
    pub calls: usize,
    /// `true` when the procedure stopped on its own convergence criteria;
    /// `false` when a [`Budget`] cut the search short. The baselines are a
    /// valid (best-so-far) assignment either way.
    pub completed: bool,
}

/// Scores every candidate baseline of `test` against the current target
/// pairs: `dist(z)` for each response class `z` of the test, indexed by
/// class id (which is `Z_j` in the paper's column order).
///
/// # Example
///
/// ```
/// use sdd_core::score_candidates;
/// use sdd_sim::Partition;
///
/// let m = sdd_core::example::paper_example();
/// // Table 4: dist over Z_0 = {00, 10, 01} is 3, 3, 4.
/// assert_eq!(score_candidates(&m, 0, &Partition::unit(4)), vec![3, 3, 4]);
/// ```
pub fn score_candidates(matrix: &ResponseMatrix, test: usize, pairs: &Partition) -> Vec<u64> {
    score_candidates_into(matrix, test, pairs, &mut ScoreScratch::default()).to_vec()
}

/// [`score_candidates`] into a caller-owned [`ScoreScratch`], allocating
/// nothing once the scratch has warmed up. Returns the gains indexed by
/// class id, borrowed from the scratch.
pub fn score_candidates_into<'s>(
    matrix: &ResponseMatrix,
    test: usize,
    pairs: &Partition,
    scratch: &'s mut ScoreScratch,
) -> &'s [u64] {
    scratch.load(pairs);
    scratch.score(matrix, test)
}

/// One Procedure 1 pass over the tests in `order`, with the `LOWER` cutoff
/// (or exhaustive candidate scoring when `lower` is `None`).
///
/// Returns the baseline class per test (indexed by test id, not order
/// position) and the number of fault pairs left indistinguished.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..matrix.test_count()`.
pub fn select_baselines_once(
    matrix: &ResponseMatrix,
    order: &[usize],
    lower: Option<usize>,
) -> (Vec<u32>, u64) {
    select_baselines_once_with(matrix, order, lower, &mut ScoreScratch::default())
}

/// [`select_baselines_once`] reusing a caller-owned scoring scratch — the
/// form the restart workers drive. The target pairs live in the scratch's
/// segments, so each test sweeps only the faults still sharing a group.
fn select_baselines_once_with(
    matrix: &ResponseMatrix,
    order: &[usize],
    lower: Option<usize>,
    scratch: &mut ScoreScratch,
) -> (Vec<u32>, u64) {
    assert_eq!(
        order.len(),
        matrix.test_count(),
        "order must cover all tests"
    );
    scratch.load_unit(matrix.fault_count());
    let mut baselines = vec![0u32; matrix.test_count()];
    for &test in order {
        let best = pick_with_lower(scratch.score(matrix, test), lower);
        baselines[test] = best;
        scratch.split(matrix.classes(test), best);
    }
    (baselines, scratch.pairs())
}

/// Walks candidates in `Z_j` order applying the paper's `LOWER` rule:
/// stop after `lower` consecutive candidates scoring strictly below the
/// best seen, and return the first best among those scored.
fn pick_with_lower(gains: &[u64], lower: Option<usize>) -> u32 {
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

/// Procedure 1 with random restarts: repeats [`select_baselines_once`] with
/// shuffled test orders until `CALLS_1` consecutive calls fail to improve
/// the number of distinguished pairs (or a full-dictionary-optimal result
/// is reached, which no further call can beat).
///
/// # Example
///
/// ```
/// use sdd_core::{select_baselines, Procedure1Options};
///
/// let m = sdd_core::example::paper_example();
/// let s = select_baselines(&m, &Procedure1Options::default());
/// assert_eq!(s.indistinguished_pairs, 0);
/// ```
pub fn select_baselines(matrix: &ResponseMatrix, options: &Procedure1Options) -> BaselineSelection {
    select_baselines_budgeted(matrix, options, &Budget::unlimited())
}

/// [`select_baselines`] under an explicit [`Budget`].
///
/// The budget is checked before each Procedure 1 call; when it runs out the
/// best assignment found so far is returned with
/// [`completed`](BaselineSelection::completed) set to `false`. Because the
/// all-fault-free guard candidate is scored before any call, even a
/// zero-duration budget yields a valid selection — the pass/fail-equivalent
/// dictionary — rather than an error.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use sdd_core::{select_baselines_budgeted, Budget, Procedure1Options};
///
/// let m = sdd_core::example::paper_example();
/// let s = select_baselines_budgeted(
///     &m,
///     &Procedure1Options::default(),
///     &Budget::deadline(Duration::ZERO),
/// );
/// assert!(!s.completed);
/// assert!(s.baselines.iter().all(|&b| b == 0)); // fault-free fallback
/// ```
pub fn select_baselines_budgeted(
    matrix: &ResponseMatrix,
    options: &Procedure1Options,
    budget: &Budget,
) -> BaselineSelection {
    let start = Instant::now();
    let jobs = options.jobs.max(1);
    let bound = matrix.full_partition().indistinguished_pairs();

    // Guard candidate: the all-fault-free assignment (a pass/fail
    // dictionary). Greedy selection beats it in practice, but keeping it in
    // the pool makes "a same/different dictionary never resolves worse than
    // a pass/fail dictionary of the same tests" a guarantee, not a trend —
    // and gives budgeted construction a valid zero-cost fallback.
    let fault_free = vec![0u32; matrix.test_count()];
    let mut best_pairs = crate::procedure2::indistinguished_with(matrix, &fault_free);
    let mut best_baselines = fault_free;

    let mut calls = 0;
    let mut stale = 0;
    let mut completed = true;
    let mut scratches: Vec<ScoreScratch> = (0..jobs).map(|_| ScoreScratch::default()).collect();

    // Waves of up to `jobs` restarts; the reduce below walks each wave in
    // restart-index order applying exactly the serial stopping rule, so a
    // wave's speculative tail (evaluated after the rule would have stopped)
    // is discarded and the outcome is independent of `jobs`.
    'search: while stale < options.calls1 && calls < options.max_calls && best_pairs > bound {
        let wave = jobs.min(options.max_calls - calls);
        let results = evaluate_wave(matrix, options, budget, start, calls, wave, &mut scratches);
        for result in results {
            let Some((baselines, pairs)) = result else {
                completed = false; // budget ran out before this restart
                break 'search;
            };
            calls += 1;
            if pairs < best_pairs {
                best_pairs = pairs;
                best_baselines = baselines;
                stale = 0;
            } else {
                stale += 1;
            }
            if stale >= options.calls1 || calls >= options.max_calls || best_pairs <= bound {
                break 'search;
            }
        }
    }

    BaselineSelection {
        baselines: best_baselines,
        indistinguished_pairs: best_pairs,
        calls,
        completed,
    }
}

/// Evaluates restarts `first..first + wave` — on scoped worker threads when
/// the wave has more than one member — returning their results in restart
/// order. `None` marks a restart the [`Budget`] refused.
fn evaluate_wave(
    matrix: &ResponseMatrix,
    options: &Procedure1Options,
    budget: &Budget,
    start: Instant,
    first: usize,
    wave: usize,
    scratches: &mut [ScoreScratch],
) -> Vec<Option<(Vec<u32>, u64)>> {
    let mut results: Vec<Option<(Vec<u32>, u64)>> = (0..wave).map(|_| None).collect();
    if wave == 1 {
        results[0] = evaluate_restart(matrix, options, budget, start, first, &mut scratches[0]);
        return results;
    }
    std::thread::scope(|scope| {
        for ((offset, slot), scratch) in results.iter_mut().enumerate().zip(scratches) {
            scope.spawn(move || {
                *slot = evaluate_restart(matrix, options, budget, start, first + offset, scratch);
            });
        }
    });
    results
}

/// One restart: check the budget (each worker honors the shared deadline and
/// call cap), derive the restart's own test order, run one pass.
fn evaluate_restart(
    matrix: &ResponseMatrix,
    options: &Procedure1Options,
    budget: &Budget,
    start: Instant,
    restart: usize,
    scratch: &mut ScoreScratch,
) -> Option<(Vec<u32>, u64)> {
    if !budget.allows(restart, start.elapsed()) {
        return None;
    }
    let order = restart_order(matrix.test_count(), options.seed, restart);
    Some(select_baselines_once_with(
        matrix,
        &order,
        options.lower,
        scratch,
    ))
}

/// The test order of restart `restart`: the natural order for restart 0 (the
/// paper's first call), then an independent seeded shuffle per restart —
/// derivable by any worker without replaying earlier restarts, which is what
/// makes concurrent evaluation bit-compatible with serial.
fn restart_order(test_count: usize, seed: u64, restart: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..test_count).collect();
    if restart > 0 {
        // Golden-ratio mixing keeps per-restart streams disjoint even for
        // adjacent seeds.
        let stream = seed ^ (restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Prng::seed_from_u64(stream).shuffle(&mut order);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::paper_example;
    use crate::{PassFailDictionary, SameDifferentDictionary};

    #[test]
    fn lower_rule_matches_paper_semantics() {
        // best=5 at index 1; then 4,4,4: equal-to-lower values count,
        // ties with best do not.
        assert_eq!(pick_with_lower(&[3, 5, 4, 4, 4], Some(3)), 1);
        // Cutoff can hide a later maximum:
        assert_eq!(pick_with_lower(&[5, 1, 1, 9], Some(2)), 0);
        // Exhaustive scan finds it:
        assert_eq!(pick_with_lower(&[5, 1, 1, 9], None), 3);
        // Ties keep the first best:
        assert_eq!(pick_with_lower(&[7, 7, 7], Some(1)), 0);
        // Empty gains (no candidates) defaults to class 0:
        assert_eq!(pick_with_lower(&[], Some(10)), 0);
    }

    #[test]
    fn restarts_never_worsen_the_result() {
        let m = paper_example();
        let single = select_baselines_once(&m, &[0, 1], Some(10)).1;
        let restarted = select_baselines(&m, &Procedure1Options::default());
        assert!(restarted.indistinguished_pairs <= single);
        assert_eq!(restarted.indistinguished_pairs, 0);
    }

    #[test]
    fn early_exit_at_full_dictionary_bound() {
        let m = paper_example();
        let s = select_baselines(&m, &Procedure1Options::default());
        // The first (natural-order) call already reaches the bound of 0, so
        // no restarts are spent.
        assert_eq!(s.calls, 1);
    }

    #[test]
    fn selection_beats_pass_fail_on_the_example() {
        let m = paper_example();
        let s = select_baselines(&m, &Procedure1Options::default());
        let sd = SameDifferentDictionary::build(&m, &s.baselines);
        let pf = PassFailDictionary::build(&m);
        assert!(sd.indistinguished_pairs() < pf.indistinguished_pairs());
        assert_eq!(
            sd.indistinguished_pairs(),
            s.indistinguished_pairs,
            "selection's count must match the built dictionary"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = paper_example();
        let opts = Procedure1Options::default();
        assert_eq!(select_baselines(&m, &opts), select_baselines(&m, &opts));
    }

    #[test]
    fn parallel_restarts_match_serial_exactly() {
        let m = paper_example();
        for seed in 0..8 {
            // calls1 = 0 forces the wave/reduce machinery to stop on the
            // guard candidate; larger values exercise real restart waves.
            for calls1 in [1usize, 3, 25] {
                let base = Procedure1Options {
                    calls1,
                    seed,
                    ..Procedure1Options::default()
                };
                let serial = select_baselines(&m, &base);
                for jobs in [2usize, 4, 9] {
                    let parallel = select_baselines(
                        &m,
                        &Procedure1Options {
                            jobs,
                            ..base.clone()
                        },
                    );
                    assert_eq!(serial, parallel, "seed {seed} calls1 {calls1} jobs {jobs}");
                }
            }
        }
    }

    #[test]
    fn restart_orders_are_permutations_and_independent() {
        let natural: Vec<usize> = (0..20).collect();
        assert_eq!(restart_order(20, 42, 0), natural, "restart 0 is natural");
        for restart in 1..10 {
            let order = restart_order(20, 42, restart);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, natural, "restart {restart} permutes all tests");
            assert_eq!(
                order,
                restart_order(20, 42, restart),
                "derivation is a pure function of (seed, restart)"
            );
        }
    }

    #[test]
    fn call_cap_budget_is_jobs_invariant() {
        // A call-cap budget is deterministic (unlike a wall-clock deadline),
        // so capped parallel runs must equal capped serial runs bit for bit.
        let m = paper_example();
        for cap in [0usize, 1, 2, 5] {
            let serial = select_baselines_budgeted(
                &m,
                &Procedure1Options::default(),
                &Budget::max_calls(cap),
            );
            let parallel = select_baselines_budgeted(
                &m,
                &Procedure1Options {
                    jobs: 4,
                    ..Procedure1Options::default()
                },
                &Budget::max_calls(cap),
            );
            assert_eq!(serial, parallel, "cap {cap}");
        }
    }

    #[test]
    #[should_panic(expected = "cover all tests")]
    fn bad_order_panics() {
        select_baselines_once(&paper_example(), &[0], Some(10));
    }

    #[test]
    fn zero_budget_returns_fault_free_fallback() {
        let m = paper_example();
        let s = select_baselines_budgeted(
            &m,
            &Procedure1Options::default(),
            &Budget::deadline(std::time::Duration::ZERO),
        );
        assert!(!s.completed);
        assert_eq!(s.calls, 0);
        assert_eq!(s.baselines, vec![0, 0], "pass/fail-equivalent fallback");
        let pf = PassFailDictionary::build(&m);
        assert_eq!(s.indistinguished_pairs, pf.indistinguished_pairs());
        // The fallback is a real dictionary, not a stub.
        let sd = SameDifferentDictionary::build(&m, &s.baselines);
        assert_eq!(sd.indistinguished_pairs(), s.indistinguished_pairs);
    }

    #[test]
    fn call_capped_budget_reports_incomplete() {
        let m = paper_example();
        // Force a situation where convergence needs more than 0 calls but
        // the budget allows exactly 1.
        let s = select_baselines_budgeted(&m, &Procedure1Options::default(), &Budget::max_calls(1));
        assert_eq!(s.calls, 1);
        // On the example one call reaches the bound, so the stop is natural.
        assert!(s.completed);
        assert_eq!(s.indistinguished_pairs, 0);
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted() {
        let m = paper_example();
        let opts = Procedure1Options::default();
        let a = select_baselines(&m, &opts);
        let b = select_baselines_budgeted(&m, &opts, &Budget::unlimited());
        assert_eq!(a, b);
        assert!(a.completed);
    }
}
