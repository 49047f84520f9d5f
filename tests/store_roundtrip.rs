//! End-to-end persistence tests on real c17 dictionaries: every kind
//! round-trips text ↔ binary ↔ memory exactly, and every corruption mode
//! of the binary store surfaces as its typed error.

use same_different::dict::{io as dict_io, Procedure1Options, SameDifferentDictionary};
use same_different::logic::SddError;
use same_different::store::{
    self, decode, encode, DictionaryKind, SddbReader, StoredDictionary, HEADER_LEN,
};
use same_different::{DictionarySuite, Experiment};

fn c17_suite() -> DictionarySuite {
    let exp = Experiment::new(same_different::netlist::library::c17());
    let tests = exp.diagnostic_tests(&Default::default());
    exp.build_dictionaries(
        &tests.tests,
        &Procedure1Options {
            calls1: 3,
            ..Default::default()
        },
    )
}

fn kinds(suite: &DictionarySuite) -> [StoredDictionary; 3] {
    [
        StoredDictionary::PassFail(suite.pass_fail.clone()),
        StoredDictionary::SameDifferent(suite.same_different.clone()),
        StoredDictionary::Full(suite.full.clone()),
    ]
}

#[test]
fn every_kind_round_trips_through_the_binary_store() {
    let suite = c17_suite();
    for dictionary in kinds(&suite) {
        let bytes = encode(&dictionary).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, dictionary, "{:?}", dictionary.kind());
    }
}

#[test]
fn same_different_round_trips_text_to_binary_to_memory() {
    let suite = c17_suite();
    let d = &suite.same_different;

    // memory -> text -> memory
    let text = dict_io::write_same_different(d);
    let from_text = dict_io::read_same_different(&text).unwrap();
    assert_eq!(&from_text, d);

    // memory -> binary -> memory, through the parsed-from-text copy so the
    // whole chain text -> binary -> memory is exercised.
    let bytes = encode(&StoredDictionary::SameDifferent(from_text)).unwrap();
    let from_binary = store::read_same_different_auto(&bytes).unwrap();
    assert_eq!(&from_binary, d);

    // ...and back out to text: the binary store loses nothing the text
    // format records.
    assert_eq!(dict_io::write_same_different(&from_binary), text);

    // The sniffing reader accepts the text bytes unchanged too.
    assert_eq!(
        store::read_same_different_auto(text.as_bytes()).unwrap(),
        *d
    );
}

/// Every signature and baseline row `reader` loads lazily equals the
/// full decode's.
fn assert_lazy_rows_match(reader: &SddbReader<impl AsRef<[u8]>>, full: &SameDifferentDictionary) {
    assert_eq!(reader.kind(), DictionaryKind::SameDifferent);
    for fault in 0..full.fault_count() {
        assert_eq!(reader.signature(fault).unwrap(), *full.signature(fault));
    }
    for test in 0..full.test_count() {
        assert_eq!(reader.baseline(test).unwrap(), *full.baseline(test));
    }
}

#[test]
fn lazy_row_loads_agree_with_full_decodes() {
    use store::MmapMode;

    let suite = c17_suite();
    let stored = StoredDictionary::SameDifferent(suite.same_different.clone());
    let bytes = encode(&stored).unwrap();
    assert_lazy_rows_match(&SddbReader::open(&bytes).unwrap(), &suite.same_different);

    // The same artifact on disk, read owned and (where the target can)
    // mapped: the lazy reader then walks the file's bytes, not a `Vec`
    // built in memory.
    let dir = std::env::temp_dir().join(format!("sdd-roundtrip-lazy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dict.sddb");
    store::save(&path, &stored).unwrap();
    let mut modes = vec![MmapMode::Off];
    if store::mmap_supported() {
        modes.push(MmapMode::On);
    }
    for mode in modes {
        let image = store::read_dictionary_bytes(&path, mode).unwrap();
        assert_eq!(image.is_mapped(), mode == MmapMode::On);
        let reader = SddbReader::open(image).unwrap();
        let StoredDictionary::SameDifferent(full) = reader.dictionary().unwrap() else {
            panic!("{}: decoded the wrong kind", mode.name());
        };
        assert_eq!(full, suite.same_different, "{}", mode.name());
        assert_lazy_rows_match(&reader, &full);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_file_is_a_typed_truncation_error() {
    let suite = c17_suite();
    for dictionary in kinds(&suite) {
        let bytes = encode(&dictionary).unwrap();
        // Cut mid-payload.
        assert!(
            matches!(
                decode(&bytes[..bytes.len() - 5]),
                Err(SddError::Truncated { .. })
            ),
            "{:?}",
            dictionary.kind()
        );
        // Cut mid-header.
        assert!(matches!(
            decode(&bytes[..HEADER_LEN / 2]),
            Err(SddError::Truncated { .. })
        ));
    }
}

#[test]
fn flipped_header_byte_is_a_checksum_error() {
    let suite = c17_suite();
    let mut bytes = encode(&StoredDictionary::PassFail(suite.pass_fail.clone())).unwrap();
    bytes[9] ^= 0x40; // inside the header, outside the magic
    assert!(matches!(
        decode(&bytes),
        Err(SddError::ChecksumMismatch {
            context: "store header",
            ..
        })
    ));
}

#[test]
fn flipped_payload_byte_is_a_checksum_error() {
    let suite = c17_suite();
    let mut bytes = encode(&StoredDictionary::Full(suite.full.clone())).unwrap();
    let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
    bytes[mid] ^= 0x01;
    assert!(matches!(
        decode(&bytes),
        Err(SddError::ChecksumMismatch {
            context: "store payload",
            ..
        })
    ));
}

/// The typed failure a corrupt on-disk `.sddb` yields under one byte
/// ownership mode — at the pre-validated read if the header is bad, else
/// at decode.
fn load_error(path: &std::path::Path, mode: store::MmapMode) -> SddError {
    match store::read_dictionary_bytes(path, mode) {
        Err(e) => e,
        Ok(bytes) => decode(bytes.as_slice()).expect_err("corrupt bytes decoded cleanly"),
    }
}

/// One labeled way to damage an encoded dictionary image.
type Damage = (&'static str, Box<dyn Fn(&mut Vec<u8>)>);

#[test]
fn corruption_surfaces_identically_under_mmap() {
    use store::MmapMode;

    let suite = c17_suite();
    let pristine = encode(&StoredDictionary::SameDifferent(
        suite.same_different.clone(),
    ))
    .unwrap();
    let dir = std::env::temp_dir().join(format!("sdd-roundtrip-mmap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dict.sddb");

    // Each damage mode, written to disk, must yield the *same* typed error
    // whether the file is mapped or read — the SIGBUS-avoidance guarantee:
    // a truncated file is refused before mapping, never faulted on.
    let damages: [Damage; 4] = [
        (
            "truncated payload",
            Box::new(|b: &mut Vec<u8>| {
                b.truncate(b.len() - 5);
            }),
        ),
        (
            "truncated header",
            Box::new(|b: &mut Vec<u8>| {
                b.truncate(HEADER_LEN / 2);
            }),
        ),
        (
            "flipped header byte",
            Box::new(|b: &mut Vec<u8>| b[9] ^= 0x40),
        ),
        (
            "version bump",
            Box::new(|b: &mut Vec<u8>| {
                b[4..6].copy_from_slice(&(store::VERSION + 1).to_le_bytes());
                let checksum = store::format::fnv1a64(&b[..56]);
                b[56..64].copy_from_slice(&checksum.to_le_bytes());
            }),
        ),
    ];
    for (label, damage) in damages {
        let mut bytes = pristine.clone();
        damage(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let owned = load_error(&path, MmapMode::Off);
        let mapped = load_error(&path, MmapMode::On);
        if !store::mmap_supported() {
            assert!(matches!(mapped, SddError::Io { .. }), "{label}: {mapped}");
            continue;
        }
        assert_eq!(
            owned.to_string(),
            mapped.to_string(),
            "{label}: owned and mapped reads disagree"
        );
        match label {
            "truncated payload" | "truncated header" => {
                assert!(
                    matches!(owned, SddError::Truncated { .. }),
                    "{label}: {owned}"
                );
            }
            "flipped header byte" => {
                assert!(
                    matches!(owned, SddError::ChecksumMismatch { .. }),
                    "{label}: {owned}"
                );
            }
            "version bump" => {
                assert!(
                    matches!(owned, SddError::UnsupportedVersion { .. }),
                    "{label}: {owned}"
                );
            }
            _ => unreachable!(),
        }
    }

    // A payload flip passes the pre-validation in both modes and fails the
    // payload checksum at decode, identically.
    let mut bytes = pristine.clone();
    let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let owned = load_error(&path, MmapMode::Off);
    assert!(matches!(
        owned,
        SddError::ChecksumMismatch {
            context: "store payload",
            ..
        }
    ));
    if store::mmap_supported() {
        assert_eq!(
            owned.to_string(),
            load_error(&path, MmapMode::On).to_string()
        );
    }

    // And the pristine file decodes identically through both modes.
    std::fs::write(&path, &pristine).unwrap();
    let owned = decode(
        store::read_dictionary_bytes(&path, MmapMode::Off)
            .unwrap()
            .as_slice(),
    );
    let mapped = decode(
        store::read_dictionary_bytes(&path, MmapMode::Auto)
            .unwrap()
            .as_slice(),
    );
    assert_eq!(owned.unwrap(), mapped.unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_and_load_round_trip_on_disk() {
    let suite = c17_suite();
    let dir = std::env::temp_dir().join(format!("sdd-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for dictionary in kinds(&suite) {
        let path = dir.join(format!("{}.sddb", dictionary.kind().name()));
        store::save(&path, &dictionary).unwrap();
        assert_eq!(store::load(&path).unwrap(), dictionary);
    }
    // The sniffing loader reads both spellings from disk.
    let text_path = dir.join("dict.txt");
    std::fs::write(
        &text_path,
        dict_io::write_same_different(&suite.same_different),
    )
    .unwrap();
    assert_eq!(
        store::load_same_different(&text_path).unwrap(),
        suite.same_different
    );
    let binary_path = dir.join("same-different.sddb");
    assert_eq!(
        store::load_same_different(&binary_path).unwrap(),
        suite.same_different
    );
    let _ = std::fs::remove_dir_all(&dir);
}
