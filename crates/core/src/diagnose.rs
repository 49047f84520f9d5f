//! Cause-effect diagnosis: matching observed tester responses against a
//! dictionary to produce candidate faults.
//!
//! All three dictionary types diagnose the same way — compare the observed
//! behaviour with each stored fault and return the best matches — but they
//! compare different amounts of information:
//!
//! * [`FullDictionary::diagnose_masked`] compares complete output vectors;
//! * [`PassFailDictionary::diagnose_masked`] compares pass/fail signatures;
//! * [`SameDifferentDictionary::diagnose_masked`] compares same/different
//!   signatures computed against the stored baselines.
//!
//! Observations are ternary [`MaskedBitVec`]s — the shape corrupted tester
//! datalogs actually produce (see `sdd_sim::CorruptionModel`). Clean data
//! is the fully known case ([`MaskedBitVec::from_known`]): the best set is
//! the exact matches when there are any, else the nearest faults, and an
//! exact match lands on the [`MatchQuality::Exact`] rung. Unknown bits are
//! excluded from the comparison instead of failing it, and the report says
//! how much evidence supported it. Every ranking derives its rung and best
//! set through [`NoisyDiagnosisReport::from_ranking`].
//!
//! [`two_phase_diagnose_masked`] combines a cheap dictionary screen with
//! exact fault simulation of the surviving candidates (the hybrid of the
//! paper's references 8, 12 and 14).

use sdd_fault::{FaultId, FaultUniverse};
use sdd_logic::{BitVec, MaskedBitVec, SddError};
use sdd_netlist::{Circuit, CombView};
use sdd_sim::reference;

use crate::{FullDictionary, PassFailDictionary, SameDifferentDictionary};

/// How much of the observation supported a diagnosis — the degradation
/// ladder matching walks down as data gets worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatchQuality {
    /// Every bit was known and the best candidates match all of them: an
    /// exact match on clean data.
    Exact,
    /// Some bits were unknown, but the best candidates agree with every
    /// known bit: consistent under the mask.
    ConsistentUnderMask,
    /// No candidate explains all known bits; the report is a best-effort
    /// ranking by known-bit mismatches (on clean data: the nearest match).
    Ranked,
}

/// One candidate fault in a diagnosis, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredCandidate {
    /// Position in the dictionary's fault list.
    pub fault: usize,
    /// Known observation bits at which the stored behaviour disagrees.
    pub mismatches: usize,
    /// Known observation bits compared.
    pub known: usize,
    /// Smoothed agreement fraction in `(0, 1)`: `(known - mismatches + 1) /
    /// (known + 2)`. A fully-unknown observation scores every fault `0.5`
    /// (no evidence), and confidence grows with both agreement and the
    /// amount of data that survived corruption.
    pub confidence: f64,
}

impl ScoredCandidate {
    fn new(fault: usize, mismatches: usize, known: usize) -> Self {
        Self {
            fault,
            mismatches,
            known,
            confidence: (known - mismatches + 1) as f64 / (known + 2) as f64,
        }
    }
}

/// The outcome of matching an observation against a dictionary: a full
/// ranking instead of a bare candidate set, because with missing data the
/// caller needs to see how steeply confidence falls off.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyDiagnosisReport {
    /// Every fault, ranked by known-bit mismatches (ties in fault order).
    pub ranking: Vec<ScoredCandidate>,
    /// Faults tied at the minimum mismatch count (positions into the
    /// dictionary's fault list): the exact matches, or else the nearest.
    pub best: Vec<usize>,
    /// Where the result landed on the degradation ladder.
    pub quality: MatchQuality,
    /// Known observation bits compared (identical for every candidate:
    /// the mask is a property of the observation).
    pub known: usize,
}

impl NoisyDiagnosisReport {
    /// The best candidate set.
    pub fn candidates(&self) -> &[usize] {
        &self.best
    }

    /// The minimum known-bit mismatch count.
    pub fn distance(&self) -> usize {
        self.ranking.first().map_or(0, |c| c.mismatches)
    }

    /// Builds the report for a ranking already sorted by `(mismatches,
    /// fault)`: the best set is the run tied at the minimum, and the rung
    /// follows from that minimum and whether the observation was fully
    /// known. Every diagnosis entry point ends here.
    pub fn from_ranking(ranking: Vec<ScoredCandidate>, fully_known: bool) -> Self {
        let (quality, known) = ladder(&ranking, fully_known);
        let min = ranking.first().map_or(0, |c| c.mismatches);
        let best = ranking
            .iter()
            .take_while(|c| c.mismatches == min)
            .map(|c| c.fault)
            .collect();
        Self {
            ranking,
            best,
            quality,
            known,
        }
    }
}

/// The rung and known-bit count of a sorted ranking: a minimum of zero
/// mismatches is [`MatchQuality::Exact`] on fully known data and
/// [`MatchQuality::ConsistentUnderMask`] under a mask; anything else is
/// [`MatchQuality::Ranked`].
fn ladder(ranking: &[ScoredCandidate], fully_known: bool) -> (MatchQuality, usize) {
    let (min, known) = ranking.first().map_or((0, 0), |c| (c.mismatches, c.known));
    let quality = match (min, fully_known) {
        (0, true) => MatchQuality::Exact,
        (0, false) => MatchQuality::ConsistentUnderMask,
        _ => MatchQuality::Ranked,
    };
    (quality, known)
}

/// Matches a (possibly partial) observed signature against stored
/// per-fault signatures by masked Hamming distance: only known observation
/// bits count.
///
/// # Errors
///
/// Returns [`SddError::Empty`] when there are no signatures to match, and
/// [`SddError::WidthMismatch`] (expecting the signatures' width) when
/// `observed`'s width differs from the signatures'.
pub fn match_signatures_masked(
    signatures: &[BitVec],
    observed: &MaskedBitVec,
) -> Result<NoisyDiagnosisReport, SddError> {
    let mut ranking = Vec::new();
    match_signatures_masked_into(signatures, observed, &mut ranking)?;
    Ok(NoisyDiagnosisReport::from_ranking(
        ranking,
        observed.is_fully_known(),
    ))
}

/// [`match_signatures_masked`] with a caller-owned scratch buffer: `scratch`
/// is cleared, filled with every fault's score, and sorted by mismatch count
/// (ties in fault order). Returns the match quality and the known-bit count.
///
/// Long-running services handle thousands of diagnosis queries per loaded
/// dictionary; reusing one ranking buffer per worker keeps the hot path free
/// of per-request allocation (beyond what the report itself would need).
///
/// # Errors
///
/// As [`match_signatures_masked`].
pub fn match_signatures_masked_into(
    signatures: &[BitVec],
    observed: &MaskedBitVec,
    scratch: &mut Vec<ScoredCandidate>,
) -> Result<(MatchQuality, usize), SddError> {
    if signatures.is_empty() {
        return Err(SddError::Empty {
            context: "signature dictionary",
        });
    }
    scratch.clear();
    scratch.reserve(signatures.len());
    for (fault, signature) in signatures.iter().enumerate() {
        let d = observed.distance_to(signature)?;
        scratch.push(ScoredCandidate::new(fault, d.mismatches, d.known));
    }
    scratch.sort_by_key(|c| (c.mismatches, c.fault));
    Ok(ladder(scratch, observed.is_fully_known()))
}

impl PassFailDictionary {
    /// Diagnoses from a (possibly partial) pass/fail signature: bit `j` is
    /// whether test `t_j` failed on the tester, and tests whose outcome was
    /// lost to datalog corruption are unknown bits that do not count
    /// against any candidate.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::WidthMismatch`] when the signature width is wrong
    /// and [`SddError::Empty`] for an empty dictionary.
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_core::PassFailDictionary;
    /// let d = PassFailDictionary::build(&sdd_core::example::paper_example());
    /// let report = d.diagnose_masked(&"01".parse()?)?;
    /// assert_eq!(report.candidates(), &[0]); // f0 fails only t1
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn diagnose_masked(
        &self,
        observed: &MaskedBitVec,
    ) -> Result<NoisyDiagnosisReport, SddError> {
        match_signatures_masked(self.signatures(), observed)
    }
}

impl SameDifferentDictionary {
    /// Diagnoses from (possibly partial) per-test observations: each
    /// response is compared against the test's stored baseline to form the
    /// observed same/different signature, then matched. A test's signature
    /// bit is *different* as soon as any known bit disagrees with the
    /// baseline, *same* only when the whole response is known and equal,
    /// and unknown otherwise — so lost data can only widen, never corrupt,
    /// the match.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::CountMismatch`] / [`SddError::WidthMismatch`]
    /// when the responses do not line up with the dictionary and
    /// [`SddError::Empty`] for an empty dictionary.
    pub fn diagnose_masked(
        &self,
        responses: &[MaskedBitVec],
    ) -> Result<NoisyDiagnosisReport, SddError> {
        let observed = self.encode_observed_masked(responses)?;
        match_signatures_masked(self.signatures(), &observed)
    }
}

impl FullDictionary {
    /// Diagnoses from (possibly partial) per-test observations by masked
    /// Hamming distance: each fault is scored by how many *known* observed
    /// output bits its stored responses contradict.
    ///
    /// # Errors
    ///
    /// Returns [`SddError::CountMismatch`] / [`SddError::WidthMismatch`]
    /// when the responses do not line up with the dictionary.
    pub fn diagnose_masked(
        &self,
        responses: &[MaskedBitVec],
    ) -> Result<NoisyDiagnosisReport, SddError> {
        let matrix = self.matrix();
        if responses.len() != matrix.test_count() {
            return Err(SddError::CountMismatch {
                context: "responses per test",
                expected: matrix.test_count(),
                actual: responses.len(),
            });
        }
        // Distance from the observation to each response class, per test.
        let mut per_test: Vec<Vec<usize>> = Vec::with_capacity(matrix.test_count());
        let mut known_total = 0usize;
        for (test, observed) in responses.iter().enumerate() {
            let mut classes = Vec::with_capacity(matrix.class_count(test));
            for class in 0..matrix.class_count(test) as u32 {
                let d = observed.distance_to(&matrix.response(test, class))?;
                classes.push(d.mismatches);
            }
            known_total += observed.known_count();
            per_test.push(classes);
        }
        let mut ranking: Vec<ScoredCandidate> = (0..matrix.fault_count())
            .map(|fault| {
                let mismatches: usize = (0..matrix.test_count())
                    .map(|test| per_test[test][matrix.class(test, fault) as usize])
                    .sum();
                ScoredCandidate::new(fault, mismatches, known_total)
            })
            .collect();
        ranking.sort_by_key(|c| (c.mismatches, c.fault));
        Ok(NoisyDiagnosisReport::from_ranking(
            ranking,
            responses.iter().all(MaskedBitVec::is_fully_known),
        ))
    }
}

/// Simulates the per-test responses a tester would observe for a defect
/// modeled by `fault` — a convenience for examples and tests.
pub fn observed_responses(
    circuit: &Circuit,
    view: &CombView,
    fault: sdd_fault::Fault,
    tests: &[BitVec],
) -> Vec<BitVec> {
    tests
        .iter()
        .map(|t| reference::faulty_response(circuit, view, fault, t))
        .collect()
}

/// Two-phase diagnosis: the masked same/different screen picks the best
/// candidates, then exact fault simulation of only those candidates ranks
/// them by masked full-response distance (mismatches over known bits).
///
/// Returns `(fault id, full-response distance)` sorted by distance — on
/// clean data, the same answer a full dictionary would give for the
/// screened candidates, at a fraction of the storage.
///
/// # Errors
///
/// Returns [`SddError::CountMismatch`] / [`SddError::WidthMismatch`] when
/// the observation does not line up with the dictionary or tests.
pub fn two_phase_diagnose_masked(
    circuit: &Circuit,
    view: &CombView,
    universe: &FaultUniverse,
    faults: &[FaultId],
    tests: &[BitVec],
    observed: &[MaskedBitVec],
    dictionary: &SameDifferentDictionary,
) -> Result<Vec<(FaultId, usize)>, SddError> {
    let screened = dictionary.diagnose_masked(observed)?;
    let mut ranked = Vec::with_capacity(screened.candidates().len());
    for &pos in screened.candidates() {
        let id = faults[pos];
        let mut distance = 0usize;
        for (test, seen) in tests.iter().zip(observed) {
            let simulated = reference::faulty_response(circuit, view, universe.fault(id), test);
            distance += seen.distance_to(&simulated)?.mismatches;
        }
        ranked.push((id, distance));
    }
    ranked.sort_by_key(|&(id, d)| (d, id));
    Ok(ranked)
}

/// Merges per-shard masked rankings into one global [`NoisyDiagnosisReport`]
/// that is bit-identical to diagnosing against the unsharded dictionary.
///
/// Each entry pairs a shard's first global fault index with its *sorted*
/// local ranking (as produced by [`match_signatures_masked_into`] or any
/// `diagnose_masked`); local fault positions are rebased by the offset.
/// The merge orders the shards by offset and places every candidate with a
/// stable counting sort on `mismatches`, so within one mismatch count the
/// candidates keep shard order and, inside a shard, local fault order. As
/// shard ranges do not overlap, that is `(mismatches, global fault)` order
/// — exactly the unsharded sort key, so for shards that tile the fault list
/// the merged order equals the global stable sort. In particular,
/// candidates from *different* shards with equal mismatches tie-break on
/// global fault index, whatever order the shards appear in `shards`. The
/// cost is linear in the candidates plus their largest mismatch count. A
/// shard with an empty ranking (it matched nothing — e.g. it was
/// filtered out upstream) contributes nothing and is otherwise ignored;
/// only *all* shards being empty is an error. `fully_known` is whether the
/// observation had no masked bits (a property of the observation, identical
/// for every shard); the merged ranking then gets its rung and best set from
/// [`NoisyDiagnosisReport::from_ranking`], as a single-dictionary diagnosis
/// does.
///
/// # Errors
///
/// Returns [`SddError::Empty`] when no shard contributed any candidate,
/// [`SddError::Invalid`] when two shards' fault ranges overlap (a shard
/// spans its offset through its highest rebased fault), and
/// [`SddError::CountMismatch`] when shards disagree on the known-bit count
/// (they scored different observations).
///
/// # Example
///
/// ```
/// use sdd_core::diagnose::{match_signatures_masked, merge_shard_rankings};
/// use sdd_core::PassFailDictionary;
/// use sdd_logic::MaskedBitVec;
///
/// let d = PassFailDictionary::build(&sdd_core::example::paper_example());
/// let observed = MaskedBitVec::from_known("01".parse()?);
/// let whole = d.diagnose_masked(&observed)?;
/// // Split the 4 faults into two shards and diagnose each independently.
/// let lo = match_signatures_masked(&d.signatures()[..2], &observed)?;
/// let hi = match_signatures_masked(&d.signatures()[2..], &observed)?;
/// let merged = merge_shard_rankings(
///     &[(0, &lo.ranking[..]), (2, &hi.ranking[..])],
///     observed.is_fully_known(),
/// )?;
/// assert_eq!(merged, whole);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn merge_shard_rankings(
    shards: &[(usize, &[ScoredCandidate])],
    fully_known: bool,
) -> Result<NoisyDiagnosisReport, SddError> {
    let mut order: Vec<(usize, &[ScoredCandidate])> = shards
        .iter()
        .copied()
        .filter(|(_, ranking)| !ranking.is_empty())
        .collect();
    order.sort_unstable_by_key(|&(offset, _)| offset);
    let Some(&(_, first)) = order.first() else {
        return Err(SddError::Empty {
            context: "shard rankings",
        });
    };
    let known = order.iter().map(|(_, r)| r[0].known).max().unwrap_or(0);
    // One pass checks the shards and counts the candidates at each
    // mismatch count.
    let mut next: Vec<usize> = Vec::new();
    let mut end = 0; // one past the previous shard's highest global fault
    for &(offset, ranking) in &order {
        debug_assert!(
            ranking
                .windows(2)
                .all(|w| (w[0].mismatches, w[0].fault) < (w[1].mismatches, w[1].fault)),
            "shard rankings must be sorted by (mismatches, fault)"
        );
        if offset < end {
            return Err(SddError::invalid(format!(
                "shard rankings overlap at global fault {offset}"
            )));
        }
        let mut last = 0;
        for c in ranking {
            if c.known != known {
                return Err(SddError::CountMismatch {
                    context: "known bits across shard rankings",
                    expected: known,
                    actual: c.known,
                });
            }
            if next.len() <= c.mismatches {
                next.resize(c.mismatches + 1, 0);
            }
            next[c.mismatches] += 1;
            last = last.max(c.fault);
        }
        end = offset + last + 1;
    }
    // Each count becomes the first slot of its run; filling the runs in
    // shard order keeps every run in global fault order.
    let mut slot = 0;
    for start in &mut next {
        let count = *start;
        *start = slot;
        slot += count;
    }
    let mut ranking = vec![first[0]; slot];
    for &(offset, shard) in &order {
        for c in shard {
            let at = &mut next[c.mismatches];
            ranking[*at] = ScoredCandidate {
                fault: offset + c.fault,
                ..*c
            };
            *at += 1;
        }
    }
    Ok(NoisyDiagnosisReport::from_ranking(ranking, fully_known))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::paper_example;
    use crate::{select_baselines, Procedure1Options};

    fn bv(s: &str) -> BitVec {
        s.parse().unwrap()
    }

    fn mv(s: &str) -> MaskedBitVec {
        s.parse().unwrap()
    }

    /// A fully known observation: clean data.
    fn clean(s: &str) -> MaskedBitVec {
        MaskedBitVec::from_known(bv(s))
    }

    #[test]
    fn clean_observations_match_the_hamming_oracle() {
        // Clean data lands where plain exact-and-nearest matching would:
        // the best set is every fault at the minimum Hamming distance, the
        // rung is Exact exactly when that minimum is zero, and the ranking
        // orders by (distance, fault).
        let mut rng = sdd_logic::Prng::seed_from_u64(0xC1EA);
        for case in 0..300 {
            let width = [1, 3, 8, 70][case % 4];
            let faults = rng.gen_range(1..=30);
            let signatures: Vec<BitVec> = (0..faults)
                .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
                .collect();
            let observed: BitVec = if rng.gen_bool(0.3) {
                signatures[rng.gen_range(0..faults)].clone()
            } else {
                (0..width).map(|_| rng.gen_bool(0.5)).collect()
            };
            let distances: Vec<usize> = signatures
                .iter()
                .map(|s| s.hamming_distance(&observed).unwrap())
                .collect();
            let min = *distances.iter().min().unwrap();
            let nearest: Vec<usize> = (0..faults).filter(|&f| distances[f] == min).collect();
            let mut order: Vec<usize> = (0..faults).collect();
            order.sort_by_key(|&f| (distances[f], f));

            let r =
                match_signatures_masked(&signatures, &MaskedBitVec::from_known(observed)).unwrap();
            assert_eq!(r.candidates(), nearest, "case {case}");
            assert_eq!(r.distance(), min, "case {case}");
            let quality = if min == 0 {
                MatchQuality::Exact
            } else {
                MatchQuality::Ranked
            };
            assert_eq!(r.quality, quality, "case {case}");
            assert_eq!(r.known, width, "case {case}");
            let ranked: Vec<usize> = r.ranking.iter().map(|c| c.fault).collect();
            assert_eq!(ranked, order, "case {case}");
        }
    }

    #[test]
    fn width_mismatch_is_an_error_not_a_panic() {
        let sigs = vec![bv("00")];
        let e = match_signatures_masked(&sigs, &clean("000")).unwrap_err();
        assert!(matches!(
            e,
            SddError::WidthMismatch {
                expected: 2,
                actual: 3,
                ..
            }
        ));
        let e = match_signatures_masked(&sigs, &mv("0X0")).unwrap_err();
        assert!(matches!(e, SddError::WidthMismatch { .. }));
    }

    #[test]
    fn empty_dictionary_is_an_error() {
        assert!(matches!(
            match_signatures_masked(&[], &mv("01")),
            Err(SddError::Empty { .. })
        ));
    }

    #[test]
    fn masked_match_walks_the_degradation_ladder() {
        let sigs = vec![bv("00"), bv("01"), bv("11")];
        // Fully known, exact.
        let r = match_signatures_masked(&sigs, &mv("01")).unwrap();
        assert_eq!(r.quality, MatchQuality::Exact);
        assert_eq!(r.candidates(), &[1]);
        assert_eq!(r.distance(), 0);
        // Unknown bit: both consistent candidates surface.
        let r = match_signatures_masked(&sigs, &mv("0X")).unwrap();
        assert_eq!(r.quality, MatchQuality::ConsistentUnderMask);
        assert_eq!(r.candidates(), &[0, 1]);
        // Nothing consistent: ranked.
        let r = match_signatures_masked(&sigs, &mv("10")).unwrap();
        assert_eq!(r.quality, MatchQuality::Ranked);
        assert_eq!(r.candidates(), &[0, 2]); // one mismatch each
        assert_eq!(r.ranking.len(), 3);
        assert!(r.ranking[0].confidence > r.ranking[2].confidence);
    }

    #[test]
    fn scratch_variant_agrees_and_reuses_the_buffer() {
        let sigs = vec![bv("00"), bv("01"), bv("11")];
        let mut scratch = Vec::new();
        for obs in ["01", "0X", "10", "XX"] {
            let observed = mv(obs);
            let report = match_signatures_masked(&sigs, &observed).unwrap();
            let (quality, known) =
                match_signatures_masked_into(&sigs, &observed, &mut scratch).unwrap();
            assert_eq!(quality, report.quality, "obs {obs}");
            assert_eq!(known, report.known, "obs {obs}");
            assert_eq!(scratch, report.ranking, "obs {obs}");
        }
        let capacity = scratch.capacity();
        let _ = match_signatures_masked_into(&sigs, &mv("11"), &mut scratch).unwrap();
        assert_eq!(scratch.capacity(), capacity, "no reallocation on reuse");
    }

    #[test]
    fn fully_unknown_observation_is_uninformative_not_fatal() {
        let sigs = vec![bv("00"), bv("01")];
        let r = match_signatures_masked(&sigs, &mv("XX")).unwrap();
        assert_eq!(r.candidates(), &[0, 1], "no evidence, all candidates");
        assert_eq!(r.known, 0);
        for c in &r.ranking {
            assert!((c.confidence - 0.5).abs() < 1e-12, "no-evidence prior");
        }
    }

    #[test]
    fn confidence_grows_with_supporting_evidence() {
        let a = ScoredCandidate::new(0, 0, 2);
        let b = ScoredCandidate::new(0, 0, 40);
        assert!(
            b.confidence > a.confidence,
            "more agreeing bits, more confidence"
        );
        let c = ScoredCandidate::new(0, 10, 40);
        assert!(c.confidence < b.confidence, "mismatches cost confidence");
    }

    #[test]
    fn pass_fail_diagnosis_cannot_split_f2_f3() {
        let d = PassFailDictionary::build(&paper_example());
        let r = d.diagnose_masked(&clean("11")).unwrap();
        assert_eq!(r.quality, MatchQuality::Exact);
        assert_eq!(r.best, vec![2, 3], "pass/fail sees f2 and f3 identically");
    }

    /// Fault `fault`'s own responses in the paper example, fully known.
    fn clean_responses(m: &sdd_sim::ResponseMatrix, fault: usize) -> Vec<MaskedBitVec> {
        (0..m.test_count())
            .map(|t| MaskedBitVec::from_known(m.response(t, m.class(t, fault))))
            .collect()
    }

    #[test]
    fn same_different_diagnosis_splits_f2_f3() {
        let m = paper_example();
        let s = select_baselines(&m, &Procedure1Options::default());
        let d = SameDifferentDictionary::build(&m, &s.baselines);
        // Simulate the tester observing fault f2's actual responses.
        let r = d.diagnose_masked(&clean_responses(&m, 2)).unwrap();
        assert_eq!(r.quality, MatchQuality::Exact);
        assert_eq!(r.best, vec![2], "same/different pinpoints f2");
    }

    #[test]
    fn clean_same_different_data_lands_on_the_exact_rung() {
        let m = paper_example();
        let s = select_baselines(&m, &Procedure1Options::default());
        let d = SameDifferentDictionary::build(&m, &s.baselines);
        for fault in 0..m.fault_count() {
            let r = d.diagnose_masked(&clean_responses(&m, fault)).unwrap();
            let twins: Vec<usize> = (0..m.fault_count())
                .filter(|&f| d.signature(f) == d.signature(fault))
                .collect();
            assert_eq!(r.candidates(), twins, "fault {fault}");
            assert_eq!(r.quality, MatchQuality::Exact);
        }
    }

    #[test]
    fn masked_same_different_degrades_to_superset() {
        let m = paper_example();
        let s = select_baselines(&m, &Procedure1Options::default());
        let d = SameDifferentDictionary::build(&m, &s.baselines);
        // Mask the whole first response: candidates can only widen, and the
        // true fault must stay in them.
        let mut masked = clean_responses(&m, 2);
        masked[0] = MaskedBitVec::unknown(masked[0].len());
        let noisy = d.diagnose_masked(&masked).unwrap();
        assert!(
            noisy.candidates().contains(&2),
            "true fault survives masking"
        );
        assert!(noisy.quality <= MatchQuality::ConsistentUnderMask);
    }

    #[test]
    fn full_diagnosis_is_exact_for_stored_faults() {
        let m = paper_example();
        let d = FullDictionary::new(m);
        for fault in 0..4 {
            let responses: Vec<MaskedBitVec> = (0..2)
                .map(|t| MaskedBitVec::from_known(d.response(fault, t)))
                .collect();
            let r = d.diagnose_masked(&responses).unwrap();
            assert!(r.candidates().contains(&fault), "fault {fault}");
            assert_eq!(r.distance(), 0);
            assert_eq!(r.quality, MatchQuality::Exact);
        }
    }

    #[test]
    fn full_diagnosis_nearest_for_out_of_model_behaviour() {
        let m = paper_example();
        let d = FullDictionary::new(m);
        // A behaviour no modeled fault produces: 11 under both tests.
        let r = d.diagnose_masked(&[clean("11"), clean("11")]).unwrap();
        assert_eq!(r.quality, MatchQuality::Ranked, "no exact match");
        assert!(!r.candidates().is_empty());
        assert!(r.distance() > 0);
    }

    #[test]
    fn full_masked_diagnosis_survives_masking() {
        let m = paper_example();
        let d = FullDictionary::new(m);
        for fault in 0..4usize {
            let masked: Vec<MaskedBitVec> = (0..2)
                .map(|t| MaskedBitVec::from_known(d.response(fault, t)))
                .collect();
            // Drop one whole test: the true fault must still be among the
            // best candidates.
            let mut partial = masked.clone();
            partial[1] = MaskedBitVec::unknown(partial[1].len());
            let degraded = d.diagnose_masked(&partial).unwrap();
            assert!(degraded.candidates().contains(&fault), "fault {fault}");
        }
    }

    #[test]
    fn full_masked_count_mismatch_is_an_error() {
        let d = FullDictionary::new(paper_example());
        assert!(matches!(
            d.diagnose_masked(&[MaskedBitVec::unknown(2)]),
            Err(SddError::CountMismatch { .. })
        ));
    }

    #[test]
    fn merged_shards_reproduce_the_whole_ranking() {
        let d = PassFailDictionary::build(&paper_example());
        // With and without masked bits, over every possible cut point.
        for observed in [mv("01"), mv("1X"), mv("XX")] {
            let whole = d.diagnose_masked(&observed).unwrap();
            for cut in 1..d.fault_count() {
                let lo = match_signatures_masked(&d.signatures()[..cut], &observed).unwrap();
                let hi = match_signatures_masked(&d.signatures()[cut..], &observed).unwrap();
                let merged = merge_shard_rankings(
                    &[(0, &lo.ranking[..]), (cut, &hi.ranking[..])],
                    observed.is_fully_known(),
                )
                .unwrap();
                assert_eq!(merged, whole, "cut at {cut}, observed {observed:?}");
            }
        }
    }

    #[test]
    fn merge_tolerates_an_empty_shard_among_nonempty_ones() {
        let d = PassFailDictionary::build(&paper_example());
        let observed = mv("0X");
        let whole = d.diagnose_masked(&observed).unwrap();
        let lo = match_signatures_masked(&d.signatures()[..2], &observed).unwrap();
        let hi = match_signatures_masked(&d.signatures()[2..], &observed).unwrap();
        // An empty middle shard (matched nothing) must not perturb the merge
        // or trip the known-bits consistency check.
        let merged = merge_shard_rankings(
            &[(0, &lo.ranking[..]), (2, &[][..]), (2, &hi.ranking[..])],
            observed.is_fully_known(),
        )
        .unwrap();
        assert_eq!(merged, whole);
    }

    #[test]
    fn cross_shard_ties_order_by_global_fault_index() {
        // Two shards whose candidates all tie on mismatches; the merged
        // ranking must interleave them in global fault order even when the
        // shards are passed high-offset first.
        let c = |fault, mismatches| ScoredCandidate::new(fault, mismatches, 4);
        let lo = [c(0, 1), c(1, 1)];
        let hi = [c(0, 1), c(1, 1)];
        for shards in [
            [(0usize, &lo[..]), (2, &hi[..])],
            [(2, &hi[..]), (0, &lo[..])],
        ] {
            let merged = merge_shard_rankings(&shards, true).unwrap();
            let order: Vec<usize> = merged.ranking.iter().map(|s| s.fault).collect();
            assert_eq!(order, vec![0, 1, 2, 3]);
            assert_eq!(merged.best, vec![0, 1, 2, 3]);
            assert_eq!(merged.quality, MatchQuality::Ranked);
        }
    }

    #[test]
    fn merge_rejects_empty_and_inconsistent_shards() {
        assert!(matches!(
            merge_shard_rankings(&[], true),
            Err(SddError::Empty { .. })
        ));
        assert!(matches!(
            merge_shard_rankings(&[(0, &[][..])], true),
            Err(SddError::Empty { .. })
        ));
        let d = PassFailDictionary::build(&paper_example());
        let full = match_signatures_masked(d.signatures(), &mv("01")).unwrap();
        let masked = match_signatures_masked(d.signatures(), &mv("0X")).unwrap();
        assert!(matches!(
            merge_shard_rankings(&[(0, &full.ranking[..]), (4, &masked.ranking[..])], false),
            Err(SddError::CountMismatch { .. })
        ));
    }

    #[test]
    fn merge_of_shuffled_random_tilings_equals_the_unsharded_report() {
        let mut rng = sdd_logic::Prng::seed_from_u64(0x5EED);
        let mut overlaps = 0;
        for case in 0..400 {
            // Narrow signatures give many ties, wide ones cross words.
            let width = [1, 3, 8, 70][case % 4];
            let faults = rng.gen_range(1..=40);
            let signatures: Vec<BitVec> = (0..faults)
                .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
                .collect();
            let mut observed = MaskedBitVec::unknown(width);
            for bit in 0..width {
                if rng.gen_bool(0.7) {
                    observed.set_known(bit, rng.gen_bool(0.5));
                }
            }
            let whole = match_signatures_masked(&signatures, &observed).unwrap();
            // A random tiling into 1-6 shards; repeated cuts leave empty ones.
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..=5))
                .map(|_| rng.gen_range(0..=faults))
                .collect();
            cuts.extend([0, faults]);
            cuts.sort_unstable();
            let rankings: Vec<(usize, Vec<ScoredCandidate>)> = cuts
                .windows(2)
                .map(|w| {
                    let ranking = match_signatures_masked(&signatures[w[0]..w[1]], &observed)
                        .map_or_else(|_| Vec::new(), |r| r.ranking);
                    (w[0], ranking)
                })
                .collect();
            let mut shards: Vec<(usize, &[ScoredCandidate])> = rankings
                .iter()
                .map(|(offset, ranking)| (*offset, ranking.as_slice()))
                .collect();
            rng.shuffle(&mut shards);
            let merged = merge_shard_rankings(&shards, observed.is_fully_known()).unwrap();
            assert_eq!(merged, whole, "case {case}, cuts {cuts:?}");
            // A copy of a non-empty shard moved less than its length
            // overlaps the original.
            let &(offset, ranking) = shards.iter().find(|(_, r)| !r.is_empty()).unwrap();
            let shift = rng.gen_range(0..2 * ranking.len() - 1);
            let Some(moved) = (offset + shift).checked_sub(ranking.len() - 1) else {
                continue;
            };
            let at = rng.gen_range(0..=shards.len());
            shards.insert(at, (moved, ranking));
            assert!(
                matches!(
                    merge_shard_rankings(&shards, observed.is_fully_known()),
                    Err(SddError::Invalid { .. })
                ),
                "case {case}: shard at {offset} copied to {moved}"
            );
            overlaps += 1;
        }
        assert!(overlaps > 200, "{overlaps} overlap cases");
    }
}
