//! Committing a patched dictionary — the store half of ECO (`sdd patch`)
//! support.
//!
//! An ECO leaves most of a dictionary untouched, and often whole shards of
//! it. [`commit_patch`] makes an artifact hold a patched dictionary through
//! the one `.sddb` encoder: it encodes every file of the artifact from the
//! dictionary, leaves each file whose bytes would not change, and commits
//! the rest at the next patch generation:
//!
//! * a whole `.sddb` file is atomically replaced;
//! * a sharded set rewrites **only the shards whose bytes change**, under
//!   generation-suffixed names (`<base>.p<N>.sddb`), then commits the
//!   manifest last — a crash at any point leaves either the old complete
//!   set or the new complete set loadable, never a mix.
//!
//! Every rewritten header carries its patch generation, so provenance
//! survives in the file itself (see [`crate::strip_patch_provenance`] for
//! the canonical form used in patched-vs-rebuilt equivalence checks).

use std::fs;
use std::path::Path;

use sdd_logic::SddError;

use crate::format::{set_patch_generation, Header};
use crate::manifest::{slice_dictionary, ShardManifest, ShardRecord, ShardedReader};
use crate::{atomic_write, encode, DictionaryKind, StoredDictionary};

/// What [`commit_patch`] rewrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Files rewritten (1 for a whole `.sddb`, per-shard otherwise).
    pub files_rewritten: usize,
    /// Total data files in the artifact (1 for a whole `.sddb`).
    pub files_total: usize,
    /// Highest patch generation recorded in the artifact's files after the
    /// commit: the existing generation when nothing changed.
    pub generation: u32,
}

impl PatchStats {
    /// `true` when the commit changed any stored byte.
    pub fn changed(&self) -> bool {
        self.files_rewritten > 0
    }
}

/// The generation-suffixed shard name a rewrite commits under: the base
/// name with any existing `.p<N>` generation suffix replaced by the new
/// one, e.g. `dict.000.sddb → dict.000.p1.sddb → dict.000.p2.sddb`.
fn generation_name(file: &str, generation: u32) -> String {
    let base = file.strip_suffix(".sddb").unwrap_or(file);
    let base = match base.rfind(".p") {
        Some(pos)
            if pos + 2 < base.len() && base[pos + 2..].chars().all(|c| c.is_ascii_digit()) =>
        {
            &base[..pos]
        }
        _ => base,
    };
    format!("{base}.p{generation}.sddb")
}

/// Makes the artifact at `path` — a whole `.sddb` or a `.sddm` shard set,
/// opened through [`ShardedReader`] — hold `dictionary`.
///
/// Each file is encoded with [`encode`] (a shard over [`slice_dictionary`]
/// of its fault range) and compared with its current image at its current
/// patch generation. A file whose bytes are equal is left alone; any other
/// is committed at its generation + 1 as soon as it is encoded, so only
/// one file's images are held at a time. A whole file is replaced with
/// [`atomic_write`]. A shard is written under a fresh generation-suffixed
/// name, the manifest is committed **last** (atomically), and only then
/// are the replaced shard files best-effort deleted: a crash or error
/// before the manifest commit leaves the old set fully loadable
/// (new-generation files are invisible to it), and a crash after leaves
/// the new set fully loadable.
///
/// # Errors
///
/// Every [`ShardedReader::open`] error and shard read error,
/// [`SddError::Invalid`] for a v1 text artifact (the store writes only
/// `.sddb`) or a dictionary whose kind or dimensions differ from the
/// artifact's, both before any write, and [`SddError::Io`] on write
/// failure.
pub fn commit_patch(
    path: impl AsRef<Path>,
    dictionary: &StoredDictionary,
) -> Result<PatchStats, SddError> {
    let path = path.as_ref();
    let reader = ShardedReader::open(path)?;
    if reader.is_text() {
        return Err(SddError::invalid(format!(
            "{} is a v1 text dictionary: only a .sddb or .sddm artifact can be patched",
            path.display()
        )));
    }
    let manifest = reader.manifest();
    let describe = |(kind, k, n, m): (DictionaryKind, usize, usize, usize)| {
        format!("a {} dictionary (k={k}, n={n}, m={m})", kind.name())
    };
    let held = (
        manifest.kind,
        manifest.tests,
        manifest.faults,
        manifest.outputs,
    );
    let given = (
        dictionary.kind(),
        dictionary.test_count(),
        dictionary.fault_count(),
        dictionary.output_count(),
    );
    if held != given {
        return Err(SddError::invalid(format!(
            "{} holds {}, not {}",
            path.display(),
            describe(held),
            describe(given)
        )));
    }
    let mut stats = PatchStats {
        files_total: manifest.shards.len(),
        ..PatchStats::default()
    };
    let mut records = Vec::with_capacity(manifest.shards.len());
    for (index, record) in manifest.shards.iter().enumerate() {
        let current = reader.shard_reader(index)?;
        let generation = current.header().patched;
        let mut image = if reader.is_whole() {
            encode(dictionary)?
        } else {
            encode(&slice_dictionary(dictionary, record.fault_range())?)?
        };
        set_patch_generation(&mut image, generation)?;
        if image[..] == current.into_bytes()[..] {
            stats.generation = stats.generation.max(generation);
            records.push(record.clone());
            continue;
        }
        let generation = generation.saturating_add(1);
        set_patch_generation(&mut image, generation)?;
        stats.generation = stats.generation.max(generation);
        let header = Header::decode(&image)?;
        let file = if reader.is_whole() {
            record.file.clone()
        } else {
            generation_name(&record.file, generation)
        };
        atomic_write(reader.dir().join(&file), &image)?;
        stats.files_rewritten += 1;
        records.push(ShardRecord {
            file,
            payload_len: header.payload_len,
            payload_checksum: header.payload_checksum,
            ..record.clone()
        });
    }
    if reader.is_whole() || !stats.changed() {
        return Ok(stats);
    }
    // Round-trip before commit so a just-patched manifest is guaranteed
    // readable, exactly like `write_sharded`.
    let encoded = ShardManifest {
        shards: records,
        ..manifest.clone()
    }
    .encode()?;
    let committed = ShardManifest::decode(&encoded)?;
    atomic_write(path, &encoded)?;
    for (old, new) in manifest.shards.iter().zip(&committed.shards) {
        if old.file != new.file {
            let _ = fs::remove_file(reader.dir().join(&old.file));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{load, save, strip_patch_provenance, write_sharded};
    use sdd_core::SameDifferentDictionary;

    fn dictionaries() -> (SameDifferentDictionary, SameDifferentDictionary) {
        let matrix = sdd_core::example::paper_example();
        (
            SameDifferentDictionary::build(&matrix, &[2, 1]),
            SameDifferentDictionary::build(&matrix, &[2, 0]),
        )
    }

    /// `d` with one signature bit flipped: a change local to one fault.
    fn flipped(d: &SameDifferentDictionary, fault: usize, test: usize) -> SameDifferentDictionary {
        let mut signatures = d.signatures().to_vec();
        let bit = signatures[fault].bit(test);
        signatures[fault].set(test, !bit);
        SameDifferentDictionary::from_parts(
            signatures,
            (0..d.test_count()).map(|t| d.baseline(t).clone()).collect(),
            d.baseline_classes().to_vec(),
            d.sizes().outputs as usize,
        )
        .unwrap()
    }

    fn sd(d: &SameDifferentDictionary) -> StoredDictionary {
        StoredDictionary::SameDifferent(d.clone())
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sdd-patch-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Shard files named by the manifest, and each one's patch generation.
    fn shard_generations(path: &Path) -> Vec<(String, u32)> {
        let reader = ShardedReader::open(path).unwrap();
        reader
            .manifest()
            .shards
            .iter()
            .map(|record| {
                let bytes = std::fs::read(reader.dir().join(&record.file)).unwrap();
                (record.file.clone(), Header::decode(&bytes).unwrap().patched)
            })
            .collect()
    }

    #[test]
    fn a_whole_file_commit_equals_encode_modulo_provenance() {
        let (old, new) = dictionaries();
        let dir = temp_dir("whole");
        let path = dir.join("dict.sddb");
        save(&path, &sd(&old)).unwrap();
        let stats = commit_patch(&path, &sd(&new)).unwrap();
        assert_eq!(
            (stats.files_rewritten, stats.files_total, stats.generation),
            (1, 1, 1)
        );
        let patched = std::fs::read(&path).unwrap();
        assert_eq!(Header::decode(&patched).unwrap().patched, 1);
        let rebuilt = encode(&sd(&new)).unwrap();
        assert_eq!(
            strip_patch_provenance(&patched).unwrap(),
            strip_patch_provenance(&rebuilt).unwrap()
        );
        assert_eq!(load(&path).unwrap(), sd(&new));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_no_op_leaves_the_file_and_its_generation_untouched() {
        let (old, new) = dictionaries();
        let dir = temp_dir("noop");
        let path = dir.join("dict.sddb");
        save(&path, &sd(&old)).unwrap();
        let before = std::fs::read(&path).unwrap();
        let stats = commit_patch(&path, &sd(&old)).unwrap();
        assert!(!stats.changed());
        assert_eq!(stats.generation, 0);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        // At generation 1, a no-op reports generation 1.
        commit_patch(&path, &sd(&new)).unwrap();
        let before = std::fs::read(&path).unwrap();
        let stats = commit_patch(&path, &sd(&new)).unwrap();
        assert_eq!((stats.files_rewritten, stats.generation), (0, 1));
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shards_get_generation_names_and_the_replaced_files_go() {
        let (old, new) = dictionaries();
        let dir = temp_dir("sharded");
        let path = dir.join("dict.sddm");
        write_sharded(&path, &sd(&old), &[0..2, 2..4], None).unwrap();
        // The baseline changed, so *every* shard is rewritten.
        let stats = commit_patch(&path, &sd(&new)).unwrap();
        assert_eq!(
            (stats.files_rewritten, stats.files_total, stats.generation),
            (2, 2, 1)
        );
        assert_eq!(
            shard_generations(&path),
            [
                ("dict.000.p1.sddb".to_owned(), 1),
                ("dict.001.p1.sddb".to_owned(), 1)
            ]
        );
        assert!(!dir.join("dict.000.sddb").exists(), "old shard deleted");
        assert!(!dir.join("dict.001.sddb").exists(), "old shard deleted");
        // Reassembling the shards yields exactly the target dictionary.
        let reader = ShardedReader::open(&path).unwrap();
        let (StoredDictionary::SameDifferent(s0), StoredDictionary::SameDifferent(s1)) =
            (reader.load_shard(0).unwrap(), reader.load_shard(1).unwrap())
        else {
            panic!("kind preserved");
        };
        let signatures = s0.signatures().iter().chain(s1.signatures()).cloned();
        let reassembled = SameDifferentDictionary::from_parts(
            signatures.collect(),
            (0..2).map(|t| s0.baseline(t).clone()).collect(),
            s0.baseline_classes().to_vec(),
            new.sizes().outputs as usize,
        )
        .unwrap();
        assert_eq!(reassembled, new);
        // A second patch back to the original advances the generation.
        let stats = commit_patch(&path, &sd(&old)).unwrap();
        assert_eq!(stats.generation, 2);
        assert_eq!(
            shard_generations(&path),
            [
                ("dict.000.p2.sddb".to_owned(), 2),
                ("dict.001.p2.sddb".to_owned(), 2)
            ]
        );
        assert!(!dir.join("dict.000.p1.sddb").exists());
        // A no-op reports the set's generation and writes nothing.
        let manifest = std::fs::read(&path).unwrap();
        let stats = commit_patch(&path, &sd(&old)).unwrap();
        assert_eq!((stats.files_rewritten, stats.generation), (0, 2));
        assert_eq!(std::fs::read(&path).unwrap(), manifest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cone_local_change_keeps_the_other_shards_file() {
        // Fault 3 lives in shard 1 (faults 2..4): shard 0 has no byte to
        // change and keeps its file, name and all.
        let (old, _) = dictionaries();
        let dir = temp_dir("skip");
        let path = dir.join("dict.sddm");
        write_sharded(&path, &sd(&old), &[0..2, 2..4], None).unwrap();
        let shard0 = std::fs::read(dir.join("dict.000.sddb")).unwrap();
        let stats = commit_patch(&path, &sd(&flipped(&old, 3, 0))).unwrap();
        assert_eq!((stats.files_rewritten, stats.generation), (1, 1));
        assert_eq!(
            shard_generations(&path),
            [
                ("dict.000.sddb".to_owned(), 0),
                ("dict.001.p1.sddb".to_owned(), 1)
            ]
        );
        assert_eq!(std::fs::read(dir.join("dict.000.sddb")).unwrap(), shard0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shards_at_different_generations_each_advance_by_one() {
        let (old, new) = dictionaries();
        let dir = temp_dir("generations");
        let path = dir.join("dict.sddm");
        write_sharded(&path, &sd(&old), &[0..2, 2..4], None).unwrap();
        commit_patch(&path, &sd(&flipped(&old, 3, 0))).unwrap();
        // Shard 0 is at generation 0, shard 1 at 1; a baseline change
        // rewrites both.
        let stats = commit_patch(&path, &sd(&new)).unwrap();
        assert_eq!((stats.files_rewritten, stats.generation), (2, 2));
        assert_eq!(
            shard_generations(&path),
            [
                ("dict.000.p1.sddb".to_owned(), 1),
                ("dict.001.p2.sddb".to_owned(), 2)
            ]
        );
        assert!(!dir.join("dict.001.p1.sddb").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_kinds_shapes_and_text_artifacts_are_typed_errors() {
        let (old, _) = dictionaries();
        let dir = temp_dir("errors");
        let matrix = sdd_core::example::paper_example();
        let pf = dir.join("pf.sddb");
        save(
            &pf,
            &StoredDictionary::PassFail(sdd_core::PassFailDictionary::build(&matrix)),
        )
        .unwrap();
        let sd_path = dir.join("sd.sddb");
        save(&sd_path, &sd(&old)).unwrap();
        let text = dir.join("sd.txt");
        std::fs::write(&text, sdd_core::io::write_same_different(&old)).unwrap();
        let fewer_faults = SameDifferentDictionary::from_parts(
            old.signatures()[..3].to_vec(),
            (0..old.test_count())
                .map(|t| old.baseline(t).clone())
                .collect(),
            old.baseline_classes().to_vec(),
            old.sizes().outputs as usize,
        )
        .unwrap();
        for (path, dictionary, needle) in [
            (&pf, sd(&old), "pass-fail"),
            (&sd_path, sd(&fewer_faults), "n=3"),
            (&text, sd(&old), "v1 text"),
        ] {
            let before = std::fs::read(path).unwrap();
            let err = commit_patch(path, &dictionary).unwrap_err();
            assert!(matches!(err, SddError::Invalid { .. }), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
            assert_eq!(std::fs::read(path).unwrap(), before, "file untouched");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_names_replace_rather_than_stack() {
        assert_eq!(generation_name("d.000.sddb", 1), "d.000.p1.sddb");
        assert_eq!(generation_name("d.000.p1.sddb", 2), "d.000.p2.sddb");
        assert_eq!(generation_name("d.000.p12.sddb", 13), "d.000.p13.sddb");
        // A non-numeric ".p" suffix is part of the base name, not a
        // generation marker.
        assert_eq!(generation_name("d.px.sddb", 1), "d.px.p1.sddb");
    }
}
