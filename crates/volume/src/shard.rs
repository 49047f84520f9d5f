//! Diagnosis across sharded dictionaries.
//!
//! A sharded set (see [`sdd_store::write_sharded`]) cuts one dictionary
//! into contiguous fault ranges; this module runs the masked-diagnosis
//! ladder over every shard and merges the per-shard rankings into one
//! report that is bit-identical to diagnosing against the unsharded
//! dictionary. All shards must be scored: signatures compare against
//! shard-global baselines, so a fault outside the failing outputs' cones
//! can still be a zero-mismatch candidate — cones prioritize *load order*
//! (see [`crate::source::diagnose_source`]), never skip scoring.
//!
//! # Example
//!
//! ```
//! use sdd_core::PassFailDictionary;
//! use sdd_logic::MaskedBitVec;
//! use sdd_store::{slice_dictionary, StoredDictionary};
//! use sdd_volume::shard::{diagnose_sharded, ShardObservation};
//!
//! let whole = StoredDictionary::PassFail(PassFailDictionary::build(
//!     &sdd_core::example::paper_example(),
//! ));
//! let lo = slice_dictionary(&whole, 0..2)?;
//! let hi = slice_dictionary(&whole, 2..4)?;
//! let observed = MaskedBitVec::from_known("01".parse()?);
//! let merged = diagnose_sharded(
//!     &[(0, &lo), (2, &hi)],
//!     ShardObservation::Signature(&observed),
//! )?;
//! let unsharded =
//!     diagnose_sharded(&[(0, &whole)], ShardObservation::Signature(&observed))?;
//! assert_eq!(merged, unsharded);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use sdd_core::diagnose::{
    match_signatures_masked_into, merge_shard_rankings, NoisyDiagnosisReport, ScoredCandidate,
};
use sdd_logic::{MaskedBitVec, SddError};
use sdd_store::StoredDictionary;

/// One parsed observation, in the shape the dictionary kind expects —
/// mirroring the serve protocol: pass/fail dictionaries take one `k`-bit
/// signature, same/different and full dictionaries take `k` per-test
/// `m`-bit output responses.
#[derive(Debug, Clone, Copy)]
pub enum ShardObservation<'a> {
    /// A `k`-bit (possibly partial) pass/fail signature.
    Signature(&'a MaskedBitVec),
    /// Per-test output responses, one per test.
    Responses(&'a [MaskedBitVec]),
}

/// Diagnoses one observation against a set of dictionary shards, each given
/// as `(first global fault index, slice)`, and merges the per-shard
/// rankings into a single globally-ranked [`NoisyDiagnosisReport`] whose
/// candidate indices are global fault positions.
///
/// For shards produced by slicing one dictionary into ranges that tile the
/// fault list, the result is bit-identical to diagnosing the unsharded
/// dictionary (same ranking, same best set, same quality ladder rung). A
/// single shard at offset 0 is its own merge: its ranking is the report,
/// with no merge pass.
///
/// # Errors
///
/// [`SddError::Invalid`] when the observation shape does not fit the shard
/// kind or the shards mix kinds; [`SddError::Empty`] for no shards; plus
/// every per-kind `diagnose_masked` error.
pub fn diagnose_sharded(
    shards: &[(usize, &StoredDictionary)],
    observation: ShardObservation<'_>,
) -> Result<NoisyDiagnosisReport, SddError> {
    let Some(&(_, first)) = shards.first() else {
        return Err(SddError::Empty {
            context: "dictionary shards",
        });
    };
    let mut rankings: Vec<(usize, Vec<ScoredCandidate>)> = Vec::with_capacity(shards.len());
    let fully_known = match (observation, first) {
        (ShardObservation::Signature(observed), StoredDictionary::PassFail(_)) => {
            for &(offset, shard) in shards {
                let StoredDictionary::PassFail(d) = shard else {
                    return Err(SddError::invalid("shards mix dictionary kinds"));
                };
                let mut ranking = Vec::new();
                match_signatures_masked_into(d.signatures(), observed, &mut ranking)?;
                rankings.push((offset, ranking));
            }
            observed.is_fully_known()
        }
        (ShardObservation::Responses(responses), StoredDictionary::SameDifferent(first)) => {
            // Baselines are shard-global (each shard carries the full set),
            // so the observation encodes identically through any shard.
            let encoded = first.encode_observed_masked(responses)?;
            for &(offset, shard) in shards {
                let StoredDictionary::SameDifferent(d) = shard else {
                    return Err(SddError::invalid("shards mix dictionary kinds"));
                };
                let mut ranking = Vec::new();
                match_signatures_masked_into(d.signatures(), &encoded, &mut ranking)?;
                rankings.push((offset, ranking));
            }
            encoded.is_fully_known()
        }
        (ShardObservation::Responses(responses), StoredDictionary::Full(_)) => {
            for &(offset, shard) in shards {
                let StoredDictionary::Full(d) = shard else {
                    return Err(SddError::invalid("shards mix dictionary kinds"));
                };
                rankings.push((offset, d.diagnose_masked(responses)?.ranking));
            }
            responses.iter().all(MaskedBitVec::is_fully_known)
        }
        (observation, _) => return Err(misfit(observation)),
    };
    if let [(0, ranking)] = rankings.as_mut_slice() {
        let ranking = std::mem::take(ranking);
        return Ok(NoisyDiagnosisReport::from_ranking(ranking, fully_known));
    }
    let slices: Vec<(usize, &[ScoredCandidate])> = rankings
        .iter()
        .map(|(offset, ranking)| (*offset, ranking.as_slice()))
        .collect();
    merge_shard_rankings(&slices, fully_known)
}

/// The error for an observation whose shape belongs to the other kind of
/// dictionary: a signature offered to a response-keyed dictionary, or
/// per-test responses offered to a pass/fail one.
pub(crate) fn misfit(observation: ShardObservation<'_>) -> SddError {
    SddError::invalid(match observation {
        ShardObservation::Signature(_) => {
            "signature observations fit pass/fail dictionaries; \
             this kind takes per-test responses"
        }
        ShardObservation::Responses(_) => {
            "pass/fail dictionaries take a signature observation, not per-test responses"
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::{PassFailDictionary, SameDifferentDictionary};

    fn sd() -> StoredDictionary {
        let matrix = sdd_core::example::paper_example();
        StoredDictionary::SameDifferent(SameDifferentDictionary::with_fault_free_baselines(&matrix))
    }

    #[test]
    fn sharded_same_different_matches_unsharded() {
        let whole = sd();
        let lo = sdd_store::slice_dictionary(&whole, 0..1).unwrap();
        let hi = sdd_store::slice_dictionary(&whole, 1..4).unwrap();
        let StoredDictionary::SameDifferent(d) = &whole else {
            unreachable!()
        };
        // Observed responses of fault 2 with one masked bit.
        let mut responses: Vec<MaskedBitVec> = (0..d.test_count())
            .map(|t| {
                let mut r = MaskedBitVec::from_known(d.baseline(t).clone());
                if d.signature(2).bit(t) {
                    r.flip(0);
                }
                r
            })
            .collect();
        responses[0].mask(0);
        let unsharded =
            diagnose_sharded(&[(0, &whole)], ShardObservation::Responses(&responses)).unwrap();
        let merged = diagnose_sharded(
            &[(0, &lo), (1, &hi)],
            ShardObservation::Responses(&responses),
        )
        .unwrap();
        assert_eq!(merged, unsharded);
    }

    #[test]
    fn observation_shape_must_fit_the_kind() {
        let pf = StoredDictionary::PassFail(PassFailDictionary::build(
            &sdd_core::example::paper_example(),
        ));
        let sig = MaskedBitVec::unknown(2);
        assert!(matches!(
            diagnose_sharded(&[(0, &sd())], ShardObservation::Signature(&sig)),
            Err(SddError::Invalid { .. })
        ));
        assert!(matches!(
            diagnose_sharded(&[(0, &pf)], ShardObservation::Responses(&[])),
            Err(SddError::Invalid { .. })
        ));
        assert!(matches!(
            diagnose_sharded(&[], ShardObservation::Signature(&sig)),
            Err(SddError::Empty { .. })
        ));
        assert!(matches!(
            diagnose_sharded(&[(0, &pf), (2, &sd())], ShardObservation::Signature(&sig)),
            Err(SddError::Invalid { .. })
        ));
    }
}
