//! Where diagnoses get their dictionary shards from, and the one loop that
//! diagnoses an observation over them.
//!
//! Every serving surface diagnoses through [`diagnose_source`]: the `sdd
//! volume` CLI, and the serve `DIAG`, `BATCH` and `VOLUME` verbs. They
//! differ only in the [`ShardSource`] they hand it, that is, in shard
//! *residency*: the CLI's [`PreloadedShards`] loads every shard up front,
//! the server's registry source fetches lazily through its LRU registry,
//! and a [`WholeSource`] is one in-memory dictionary. The first two open
//! any artifact, a whole `.sddb` or text file being a set of one shard
//! ([`ShardedReader::open_with`]). Budgets,
//! cone-priority load order, degradation accounting and the merge are
//! written once, here, so the surfaces answer byte-identically.

use std::sync::Arc;
use std::time::Instant;

use sdd_core::diagnose::NoisyDiagnosisReport;
use sdd_core::Budget;
use sdd_logic::{BitVec, MaskedBitVec, SddError};
use sdd_store::{DictionaryKind, MmapMode, ShardManifest, ShardedReader, StoredDictionary};

use crate::corpus::Shape;
use crate::shard::{diagnose_sharded, misfit, ShardObservation};

/// One-word reason token for a typed error — the shared vocabulary of
/// `degraded=` lists, `ERR` replies, and volume report records.
pub fn error_token(error: &SddError) -> &'static str {
    match error {
        SddError::Io { .. } => "io",
        SddError::ChecksumMismatch { .. } => "checksum",
        SddError::Truncated { .. } => "truncated",
        SddError::UnsupportedVersion { .. } => "version",
        SddError::Invalid { .. } => "invalid",
        SddError::Empty { .. } => "empty",
        SddError::Parse { .. } => "parse",
        SddError::WidthMismatch { .. } => "width",
        SddError::CountMismatch { .. } => "count",
        // `SddError` is non-exhaustive; any future variant is still an error.
        _ => "error",
    }
}

/// A provider of dictionary shards for per-device diagnosis.
///
/// Implementations must be cheap to query repeatedly:
/// [`resident`](ShardSource::resident) is asked once per shard per
/// diagnosis, and [`fetch`](ShardSource::fetch) once per shard that was not
/// resident; a warm shard should cost a clone of an [`Arc`], not I/O.
pub trait ShardSource: Sync {
    /// The shape observations must conform to: the dictionary kind, `k`
    /// tests and `m` observed outputs per response (0 for pass/fail).
    fn shape(&self) -> Shape;
    /// Total faults `n` across all shards.
    fn fault_count(&self) -> usize;
    /// Number of shards (1 for a whole dictionary).
    fn shard_count(&self) -> usize;
    /// First global fault index shard `shard` covers.
    fn fault_start(&self, shard: usize) -> usize;
    /// Fetches shard `shard`, loading it if necessary.
    ///
    /// # Errors
    ///
    /// Why the shard could not load; [`diagnose_source`] records its
    /// [`error_token`] as degraded coverage.
    fn fetch(&self, shard: usize) -> Result<Arc<StoredDictionary>, SddError>;
    /// Shard `shard` *only if already resident* — what a diagnosis joins
    /// whatever its budget (a registry hit is a clone, not I/O).
    fn resident(&self, shard: usize) -> Option<Arc<StoredDictionary>>;
    /// The output cone of global fault `fault`, when cone information is
    /// available (recorded per shard by `sdd build --shards`, or supplied
    /// per fault). `None` disables cone clustering; a shard's cone is its
    /// first fault's, and orders its load.
    fn fault_cone(&self, fault: usize) -> Option<&BitVec>;
}

impl From<&ShardManifest> for Shape {
    fn from(manifest: &ShardManifest) -> Self {
        Self {
            kind: manifest.kind,
            tests: manifest.tests,
            outputs: manifest.outputs,
        }
    }
}

/// A single in-memory dictionary, optionally with per-fault output cones.
#[derive(Debug, Clone)]
pub struct WholeSource {
    dictionary: Arc<StoredDictionary>,
    shape: Shape,
    cones: Option<Vec<BitVec>>,
}

impl WholeSource {
    /// Wraps a loaded dictionary.
    pub fn new(dictionary: StoredDictionary) -> Self {
        let outputs = match &dictionary {
            StoredDictionary::PassFail(_) => 0,
            StoredDictionary::SameDifferent(d) => d.sizes().outputs as usize,
            StoredDictionary::Full(d) => d.matrix().output_count(),
        };
        let shape = Shape {
            kind: dictionary.kind(),
            tests: dictionary.test_count(),
            outputs,
        };
        Self {
            dictionary: Arc::new(dictionary),
            shape,
            cones: None,
        }
    }

    /// Attaches per-fault output cones (index-aligned with the
    /// dictionary's fault list), enabling cone clustering.
    ///
    /// # Errors
    ///
    /// [`SddError::CountMismatch`] when `cones` does not cover every fault.
    pub fn with_cones(mut self, cones: Vec<BitVec>) -> Result<Self, SddError> {
        if cones.len() != self.dictionary.fault_count() {
            return Err(SddError::CountMismatch {
                context: "per-fault cones",
                expected: self.dictionary.fault_count(),
                actual: cones.len(),
            });
        }
        self.cones = Some(cones);
        Ok(self)
    }
}

impl ShardSource for WholeSource {
    fn shape(&self) -> Shape {
        self.shape
    }
    fn fault_count(&self) -> usize {
        self.dictionary.fault_count()
    }
    fn shard_count(&self) -> usize {
        1
    }
    fn fault_start(&self, _shard: usize) -> usize {
        0
    }
    fn fetch(&self, _shard: usize) -> Result<Arc<StoredDictionary>, SddError> {
        Ok(Arc::clone(&self.dictionary))
    }
    fn resident(&self, _shard: usize) -> Option<Arc<StoredDictionary>> {
        Some(Arc::clone(&self.dictionary))
    }
    fn fault_cone(&self, fault: usize) -> Option<&BitVec> {
        self.cones.as_ref().and_then(|cones| cones.get(fault))
    }
}

/// An artifact with every shard loaded up front — the `sdd volume` CLI
/// source. A shard of a `.sddm` set that fails to load is remembered by
/// reason and yields degraded (`PARTIAL`) device records for the whole
/// run, matching the degraded-serving contract.
pub struct PreloadedShards {
    reader: ShardedReader,
    shards: Vec<Result<Arc<StoredDictionary>, SddError>>,
}

impl PreloadedShards {
    /// Opens the artifact at `path` (a `.sddm` manifest, a whole `.sddb`,
    /// or a v1 text dictionary; see [`ShardedReader::open_with`]) and
    /// loads every shard it names.
    ///
    /// # Errors
    ///
    /// Only artifact-level failures are fatal: an unreadable or corrupt
    /// `.sddm`, or a whole file that does not open or load (it has no
    /// manifest to degrade against). A failing shard of a `.sddm` set
    /// degrades instead.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, SddError> {
        Self::open_with(path, MmapMode::Off)
    }

    /// [`open`](Self::open) with an explicit byte-ownership mode: under a
    /// mapped mode each shard's bytes come straight from the page cache
    /// during decode — a run over a shard set larger than RAM never holds
    /// more than one shard's encoded bytes mapped at a time. The decoded
    /// shards (and every device record) are byte-identical in every mode.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_with(path: impl AsRef<std::path::Path>, mode: MmapMode) -> Result<Self, SddError> {
        let mut reader = ShardedReader::open_with(path, mode)?;
        let mut parsed = reader.take_parsed();
        let shards = (0..reader.shard_count())
            .map(|index| {
                let loaded = parsed.take().map_or_else(|| reader.load_shard(index), Ok);
                // A whole file is its own manifest: its one shard failing
                // fails the open, as a corrupt manifest does.
                match loaded {
                    Err(e) if reader.is_whole() => Err(e),
                    loaded => Ok(loaded.map(Arc::new)),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { reader, shards })
    }
}

impl ShardSource for PreloadedShards {
    fn shape(&self) -> Shape {
        self.reader.manifest().into()
    }
    fn fault_count(&self) -> usize {
        self.reader.manifest().faults
    }
    fn shard_count(&self) -> usize {
        self.shards.len()
    }
    fn fault_start(&self, shard: usize) -> usize {
        self.reader.manifest().shards[shard].fault_start
    }
    fn fetch(&self, shard: usize) -> Result<Arc<StoredDictionary>, SddError> {
        self.shards[shard].clone()
    }
    fn resident(&self, shard: usize) -> Option<Arc<StoredDictionary>> {
        self.shards[shard].clone().ok()
    }
    fn fault_cone(&self, fault: usize) -> Option<&BitVec> {
        self.reader.fault_cone(fault)
    }
}

/// One observation diagnosed over a [`ShardSource`]: the merged ranking of
/// the shards that joined, and why the others did not.
#[derive(Debug)]
pub struct SourceDiagnosis {
    /// The ranking over the joined shards, by global fault position.
    pub report: NoisyDiagnosisReport,
    /// Faults the joined shards cover.
    pub covered: usize,
    /// Every shard that did not join, with its reason token, in shard
    /// order: an [`error_token`], or `deadline` for a load the budget
    /// refused.
    pub degraded: Vec<(usize, &'static str)>,
}

/// Why [`diagnose_source`] produced no ranking, as each surface reports it.
#[derive(Debug)]
pub struct Unserved {
    /// The typed error a serve reply carries.
    pub error: SddError,
    /// The token a volume device record carries: the error's
    /// [`error_token`] or, when no shard joined, the first shard reason in
    /// shard order that is not `deadline` (else `deadline`).
    pub reason: &'static str,
}

impl From<SddError> for Unserved {
    fn from(error: SddError) -> Self {
        let reason = error_token(&error);
        Self { error, reason }
    }
}

/// Diagnoses one observation over `source` — the loop behind `sdd volume`
/// and the serve `DIAG`, `BATCH` and `VOLUME` verbs.
///
/// 1. The observation is checked against [`ShardSource::shape`] first, so a
///    malformed one costs no shard I/O.
/// 2. Every resident shard joins, whatever the budget.
/// 3. Cold shards load while `budget` allows, counting cold loads against
///    its call cap and time from `start` against its deadline. Per-test
///    responses load them in cone-priority order: shards whose cone meets
///    the observation's failing outputs first, then shard order. Failing
///    outputs need a reference dictionary, the first joined shard; when
///    none is resident, cold shards load in shard order until one joins,
///    and that reference load is budgeted like any other. Signatures carry
///    no per-output information and load in shard order.
/// 4. A shard that fails is fetched once and listed once, in shard order;
///    a load the budget refuses is listed as `deadline`.
/// 5. The joined shards merge through [`diagnose_sharded`], so the ranking
///    is bit-identical to diagnosing the sub-dictionary they cover.
///
/// # Errors
///
/// An observation that does not fit the source, or no shard joined.
pub fn diagnose_source<S: ShardSource + ?Sized>(
    source: &S,
    observation: ShardObservation<'_>,
    budget: &Budget,
    start: Instant,
) -> Result<SourceDiagnosis, Unserved> {
    check_shape(&source.shape(), observation)?;
    let count = source.shard_count();
    let mut slots: Vec<Slot> = (0..count).map(|i| source.resident(i).ok_or(None)).collect();
    let (mut loads, mut last) = (0, None);
    let mut load = |index: usize, slot: &mut Slot| {
        if !budget.allows(loads, start.elapsed()) {
            *slot = Err(Some("deadline"));
            return;
        }
        loads += 1;
        *slot = source.fetch(index).map_err(|e| {
            let token = error_token(&e);
            last = Some(e);
            Some(token)
        });
    };
    let mut cold: Vec<usize> = (0..count)
        .filter(|&i| matches!(slots[i], Err(None)))
        .collect();
    if let (ShardObservation::Responses(responses), false) = (observation, cold.is_empty()) {
        let mut reference = slots.iter().find_map(|slot| slot.clone().ok());
        for &index in &cold {
            if reference.is_some() {
                break;
            }
            load(index, &mut slots[index]);
            reference = slots[index].clone().ok();
        }
        if let Some(reference) = reference {
            let failing = failing_outputs(&reference, responses);
            if failing.iter().any(|&word| word != 0) {
                let meets = |index: usize| {
                    source
                        .fault_cone(source.fault_start(index))
                        .is_some_and(|cone| cone.as_words().zip(&failing).any(|(c, &f)| c & f != 0))
                };
                cold.sort_by_key(|&index| (!meets(index), index));
            }
        }
    }
    for index in cold {
        if matches!(slots[index], Err(None)) {
            load(index, &mut slots[index]);
        }
    }
    let mut joined = Vec::with_capacity(count);
    let mut degraded = Vec::new();
    for (index, slot) in slots.iter().enumerate() {
        match slot {
            Ok(dictionary) => joined.push((source.fault_start(index), dictionary.as_ref())),
            Err(reason) => degraded.push((index, reason.unwrap_or("deadline"))),
        }
    }
    if joined.is_empty() {
        let error = SddError::invalid(match last {
            Some(e) => format!("all {count} shards unavailable; last error: {e}"),
            None => format!("request deadline exceeded before any of {count} shards loaded"),
        });
        let reason = degraded
            .iter()
            .map(|&(_, token)| token)
            .find(|&token| token != "deadline")
            .unwrap_or("deadline");
        return Err(Unserved { error, reason });
    }
    let report = diagnose_sharded(&joined, observation)?;
    let covered = joined.iter().map(|(_, d)| d.fault_count()).sum();
    Ok(SourceDiagnosis {
        report,
        covered,
        degraded,
    })
}

/// One shard's fate in [`diagnose_source`]: joined, or the reason it did
/// not (`None` while it is cold and untried).
type Slot = Result<Arc<StoredDictionary>, Option<&'static str>>;

/// Checks an observation against the shape its source fixes.
fn check_shape(shape: &Shape, observation: ShardObservation<'_>) -> Result<(), SddError> {
    let width = |context, actual: usize, expected| {
        if actual == expected {
            Ok(())
        } else {
            Err(SddError::WidthMismatch {
                context,
                expected,
                actual,
            })
        }
    };
    match (shape.kind, observation) {
        (DictionaryKind::PassFail, ShardObservation::Signature(signature)) => {
            width("observed signature", signature.len(), shape.tests)
        }
        (DictionaryKind::SameDifferent | DictionaryKind::Full, ShardObservation::Responses(r)) => {
            if r.len() != shape.tests {
                return Err(SddError::CountMismatch {
                    context: "responses per test",
                    expected: shape.tests,
                    actual: r.len(),
                });
            }
            r.iter().try_for_each(|response| {
                width("observed response width", response.len(), shape.outputs)
            })
        }
        _ => Err(misfit(observation)),
    }
}

/// The observation's failing outputs, as bit-packed words: output `o` fails
/// when some test's known observed bit `o` disagrees with the reference
/// response (the baseline for same/different, the fault-free response for
/// full dictionaries). This is what shard cones are matched against.
fn failing_outputs(reference: &StoredDictionary, responses: &[MaskedBitVec]) -> Vec<u64> {
    let outputs = responses.first().map_or(0, MaskedBitVec::len);
    let mut failing = vec![0; outputs.div_ceil(64)];
    for (test, observed) in responses.iter().enumerate() {
        let expected = match reference {
            StoredDictionary::SameDifferent(d) => d.baseline(test),
            StoredDictionary::Full(d) => d.matrix().good_response(test),
            StoredDictionary::PassFail(_) => break,
        };
        let words = observed
            .values()
            .as_words()
            .zip(observed.known_mask().as_words())
            .zip(expected.as_words());
        for (fail, ((value, known), expected)) in failing.iter_mut().zip(words) {
            *fail |= (value ^ expected) & known;
        }
    }
    failing
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sdd_core::{PassFailDictionary, SameDifferentDictionary};
    use sdd_logic::Prng;
    use sdd_sim::ResponseMatrix;
    use std::sync::Mutex;
    use std::time::Duration;

    fn sd() -> StoredDictionary {
        StoredDictionary::SameDifferent(SameDifferentDictionary::with_fault_free_baselines(
            &sdd_core::example::paper_example(),
        ))
    }

    #[test]
    fn whole_source_exposes_the_dictionary_dimensions() {
        let source = WholeSource::new(sd());
        assert_eq!(source.shape().kind, DictionaryKind::SameDifferent);
        assert_eq!(source.shard_count(), 1);
        assert_eq!(source.fault_count(), 4);
        assert!(source.shape().outputs > 0);
        assert!(source.fetch(0).is_ok());
        assert!(source.resident(0).is_some());
        assert!(source.fault_cone(0).is_none());
    }

    #[test]
    fn whole_source_cones_must_cover_every_fault() {
        let source = WholeSource::new(sd());
        assert!(matches!(
            source.clone().with_cones(vec![BitVec::zeros(2)]),
            Err(SddError::CountMismatch { .. })
        ));
        let cones = vec![BitVec::zeros(2); 4];
        let source = source.with_cones(cones).unwrap();
        assert!(source.fault_cone(3).is_some());
        assert!(source.fault_cone(4).is_none());
    }

    /// How a [`FakeSource`] shard behaves: resident, cold, or failing
    /// every load with a checksum error.
    #[derive(Clone, Copy, PartialEq)]
    pub(crate) enum Residency {
        Resident,
        Cold,
        Failing,
    }
    use Residency::{Cold, Failing, Resident};

    /// A source over slices of one dictionary, each shard `(first fault,
    /// cone, residency)`, that logs every fetch.
    pub(crate) struct FakeSource {
        whole: WholeSource,
        shards: Vec<(usize, Arc<StoredDictionary>, BitVec, Residency)>,
        fetches: Mutex<Vec<usize>>,
    }

    impl FakeSource {
        pub(crate) fn new(whole: &StoredDictionary, shards: &[(usize, BitVec, Residency)]) -> Self {
            let ends = shards
                .iter()
                .skip(1)
                .map(|s| s.0)
                .chain([whole.fault_count()]);
            let shards = shards
                .iter()
                .zip(ends)
                .map(|((start, cone, residency), end)| {
                    let slice = sdd_store::slice_dictionary(whole, *start..end).unwrap();
                    (*start, Arc::new(slice), cone.clone(), *residency)
                })
                .collect();
            Self {
                whole: WholeSource::new(whole.clone()),
                shards,
                fetches: Mutex::default(),
            }
        }

        /// Diagnoses `observation` under `budget`, with the shards fetched.
        fn run(
            &self,
            observation: ShardObservation<'_>,
            budget: Budget,
        ) -> (Result<SourceDiagnosis, Unserved>, Vec<usize>) {
            let result = diagnose_source(self, observation, &budget, Instant::now());
            (result, std::mem::take(&mut *self.fetches.lock().unwrap()))
        }

        /// The report of diagnosing the shards `joined` directly.
        fn expected(
            &self,
            joined: &[usize],
            observation: ShardObservation<'_>,
        ) -> NoisyDiagnosisReport {
            let shards: Vec<(usize, &StoredDictionary)> = joined
                .iter()
                .map(|&i| (self.shards[i].0, self.shards[i].1.as_ref()))
                .collect();
            diagnose_sharded(&shards, observation).unwrap()
        }
    }

    impl ShardSource for FakeSource {
        fn shape(&self) -> Shape {
            self.whole.shape()
        }
        fn fault_count(&self) -> usize {
            self.whole.fault_count()
        }
        fn shard_count(&self) -> usize {
            self.shards.len()
        }
        fn fault_start(&self, shard: usize) -> usize {
            self.shards[shard].0
        }
        fn fetch(&self, shard: usize) -> Result<Arc<StoredDictionary>, SddError> {
            self.fetches.lock().unwrap().push(shard);
            match self.shards[shard].3 {
                Failing => Err(SddError::ChecksumMismatch {
                    context: "shard payload",
                    stored: 1,
                    computed: 2,
                }),
                _ => Ok(Arc::clone(&self.shards[shard].1)),
            }
        }
        fn resident(&self, shard: usize) -> Option<Arc<StoredDictionary>> {
            let (_, dictionary, _, residency) = &self.shards[shard];
            (*residency == Resident).then(|| Arc::clone(dictionary))
        }
        fn fault_cone(&self, fault: usize) -> Option<&BitVec> {
            let index = self
                .shards
                .partition_point(|s| s.0 <= fault)
                .checked_sub(1)?;
            Some(&self.shards[index].2)
        }
    }

    /// A seeded random same/different dictionary (60 faults, 12 tests of
    /// 16 outputs, fault-free baselines) and fault 7's clean responses.
    fn random_dictionary() -> (StoredDictionary, Vec<MaskedBitVec>) {
        let mut rng = Prng::seed_from_u64(0x1009);
        let mut word = |flip: f64| -> BitVec { (0..16).map(|_| rng.gen_bool(flip)).collect() };
        let good: Vec<BitVec> = (0..12).map(|_| word(0.5)).collect();
        let responses: Vec<Vec<BitVec>> = good
            .iter()
            .map(|g| (0..60).map(|_| g ^ &word(0.2)).collect())
            .collect();
        let matrix = ResponseMatrix::from_responses(good, &responses);
        let observed = (0..12)
            .map(|t| MaskedBitVec::from_known(matrix.response(t, matrix.class(t, 7))))
            .collect();
        let sd = SameDifferentDictionary::with_fault_free_baselines(&matrix);
        (StoredDictionary::SameDifferent(sd), observed)
    }

    #[test]
    fn the_loop_joins_resident_shards_and_loads_cold_ones_in_cone_order() {
        let (whole, observed) = random_dictionary();
        let obs = ShardObservation::Responses(&observed);
        let (miss, hit) = (BitVec::zeros(16), !&BitVec::zeros(16));
        let shards = [
            (0, &miss, Cold),
            (10, &miss, Resident),
            (20, &miss, Failing),
        ];
        let more = [(30, &miss, Cold), (40, &hit, Cold), (50, &hit, Failing)];
        let shards: Vec<_> = shards
            .into_iter()
            .chain(more)
            .map(|(s, c, r)| (s, c.clone(), r))
            .collect();
        let source = FakeSource::new(&whole, &shards);

        // A zero budget still joins the resident shard, and fetches nothing.
        let (d, fetched) = source.run(obs, Budget::deadline(Duration::ZERO));
        let d = d.unwrap();
        assert_eq!(fetched, Vec::<usize>::new());
        assert_eq!((d.report, d.covered), (source.expected(&[1], obs), 10));
        assert_eq!(d.degraded, [0, 2, 3, 4, 5].map(|i| (i, "deadline")));

        // Unbounded: shards whose cone meets a failing output load first,
        // then the rest in shard order; a failing shard is fetched once and
        // listed once, in shard order.
        let (d, fetched) = source.run(obs, Budget::unlimited());
        let d = d.unwrap();
        assert_eq!(fetched, [4, 5, 0, 2, 3]);
        assert_eq!(d.degraded, [(2, "checksum"), (5, "checksum")]);
        assert_eq!(
            (d.report, d.covered),
            (source.expected(&[0, 1, 3, 4], obs), 40)
        );

        // A call cap counts cold loads, not shard indices.
        let (d, fetched) = source.run(obs, Budget::max_calls(2));
        let d = d.unwrap();
        assert_eq!(fetched, [4, 5]);
        let deadline = |i| (i, "deadline");
        assert_eq!(
            d.degraded,
            [deadline(0), deadline(2), deadline(3), (5, "checksum")]
        );
        assert_eq!(d.report, source.expected(&[1, 4], obs));

        // A malformed observation costs no fetch.
        let (e, fetched) = source.run(
            ShardObservation::Responses(&observed[1..]),
            Budget::unlimited(),
        );
        assert_eq!(fetched, Vec::<usize>::new());
        let e = e.unwrap_err().error;
        assert!(matches!(e, SddError::CountMismatch { actual: 11, .. }));

        // With nothing resident, cold shards load in shard order until one
        // joins: the reference for the failing outputs. Shard 0 fails that
        // load and is not retried; cone order then puts shard 3 first.
        let shards = [
            (0, &hit, Failing),
            (20, &miss, Cold),
            (40, &miss, Cold),
            (50, &hit, Cold),
        ];
        let shards: Vec<_> = shards
            .into_iter()
            .map(|(s, c, r)| (s, c.clone(), r))
            .collect();
        let source = FakeSource::new(&whole, &shards);
        let (d, fetched) = source.run(obs, Budget::unlimited());
        let d = d.unwrap();
        assert_eq!(fetched, [0, 1, 3, 2]);
        assert_eq!(d.degraded, [(0, "checksum")]);
        assert_eq!(d.report, source.expected(&[1, 2, 3], obs));
        // The budget bounds that reference load too.
        let (e, fetched) = source.run(obs, Budget::max_calls(1));
        assert_eq!(fetched, [0]);
        let e = e.unwrap_err();
        assert_eq!(e.reason, "checksum");
        assert_eq!(
            e.error.to_string(),
            "invalid input: all 4 shards unavailable; last error: shard payload checksum \
             mismatch: stored 0x0000000000000001, computed 0x0000000000000002"
        );
    }

    #[test]
    fn failing_outputs_reflect_known_disagreements() {
        let whole = sd();
        let StoredDictionary::SameDifferent(d) = &whole else {
            unreachable!()
        };
        let mut responses: Vec<MaskedBitVec> = (0..d.test_count())
            .map(|t| MaskedBitVec::from_known(d.baseline(t).clone()))
            .collect();
        assert_eq!(
            failing_outputs(&whole, &responses),
            [0],
            "agreement fails nothing"
        );
        responses[1].flip(1);
        assert_eq!(failing_outputs(&whole, &responses), [0b10]);
        // Masking the flipped bit removes the evidence.
        responses[1].mask(1);
        assert_eq!(failing_outputs(&whole, &responses), [0]);
    }

    #[test]
    fn signatures_load_in_shard_order_and_nothing_joined_is_each_surfaces_error() {
        let matrix = sdd_core::example::paper_example();
        let whole = StoredDictionary::PassFail(PassFailDictionary::build(&matrix));
        let observed = MaskedBitVec::from_known("11".parse().unwrap());
        let obs = ShardObservation::Signature(&observed);
        let cone = || BitVec::zeros(2);
        let source = FakeSource::new(
            &whole,
            &[(0, cone(), Cold), (1, cone(), Failing), (2, cone(), Cold)],
        );
        let (d, fetched) = source.run(obs, Budget::unlimited());
        let d = d.unwrap();
        assert_eq!(fetched, [0, 1, 2]);
        assert_eq!(d.degraded, [(1, "checksum")]);
        assert_eq!(d.report, source.expected(&[0, 2], obs));

        // Nothing joined in time: a volume record says `deadline`, a serve
        // reply names the request deadline.
        let (e, fetched) = source.run(obs, Budget::deadline(Duration::ZERO));
        assert_eq!(fetched, Vec::<usize>::new());
        let e = e.unwrap_err();
        assert_eq!(e.reason, "deadline");
        assert_eq!(
            e.error.to_string(),
            "invalid input: request deadline exceeded before any of 3 shards loaded"
        );

        // A malformed signature is rejected before any fetch, expecting the
        // dictionary's width.
        let wide = MaskedBitVec::from_known("111".parse().unwrap());
        let (e, fetched) = source.run(ShardObservation::Signature(&wide), Budget::unlimited());
        assert_eq!(fetched, Vec::<usize>::new());
        let e = e.unwrap_err();
        assert_eq!(e.reason, "width");
        let width = SddError::WidthMismatch {
            context: "observed signature",
            expected: 2,
            actual: 3,
        };
        assert_eq!(e.error, width);
    }
}
