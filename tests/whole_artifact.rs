//! A whole dictionary file is served as a shard set of one: the served
//! `.sddb` and its v1 text twin answer byte for byte alike in both byte
//! modes, and a whole file's one shard lives by the shard rules — it loads
//! cold, under the request deadline, evicts to cold without being
//! forgotten, and survives a `RELOAD` that leaves the file unchanged.

use std::path::{Path, PathBuf};

use same_different::dict::{Procedure1Options, SameDifferentDictionary};
use same_different::serve::{serve, Client, ServeConfig, ServerHandle};
use same_different::sim::reference;
use same_different::store::{self, MmapMode, StoredDictionary};
use same_different::Experiment;

struct Fixture {
    dir: PathBuf,
    dictionary: SameDifferentDictionary,
    /// The same faults and tests under fault-free baselines.
    fault_free: SameDifferentDictionary,
    binary: PathBuf,
    text: PathBuf,
    observations: Vec<String>,
}

/// The c17 same/different dictionary saved as `.sddb` and as v1 text, and
/// every fault's observation with every third test's first bit masked.
fn fixture(tag: &str) -> Fixture {
    let dir = std::env::temp_dir().join(format!("sdd-whole-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let exp = Experiment::new(same_different::netlist::library::c17());
    let tests = exp.diagnostic_tests(&Default::default()).tests;
    let options = Procedure1Options {
        calls1: 3,
        ..Default::default()
    };
    let dictionary = exp.build_dictionaries(&tests, &options).same_different;
    let fault_free = SameDifferentDictionary::with_fault_free_baselines(&exp.simulate(&tests));
    let binary = dir.join("c17.sddb");
    store::save(
        &binary,
        &StoredDictionary::SameDifferent(dictionary.clone()),
    )
    .unwrap();
    let text = dir.join("c17.txt");
    std::fs::write(
        &text,
        same_different::dict::io::write_same_different(&dictionary),
    )
    .unwrap();
    let observations = (0..exp.faults().len())
        .map(|position| {
            let fault = exp.universe().fault(exp.faults()[position]);
            let tokens: Vec<String> = tests
                .iter()
                .enumerate()
                .map(|(t, test)| {
                    let response =
                        reference::faulty_response(exp.circuit(), exp.view(), fault, test);
                    let mut token = response.to_string();
                    if t % 3 == 0 {
                        token.replace_range(0..1, "X");
                    }
                    token
                })
                .collect();
            tokens.join("/")
        })
        .collect();
    Fixture {
        dir,
        dictionary,
        fault_free,
        binary,
        text,
        observations,
    }
}

fn start(config: ServeConfig) -> (ServerHandle, Client) {
    let handle = serve(&ServeConfig {
        workers: 2,
        ..config
    })
    .unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    (handle, client)
}

fn load(client: &mut Client, name: &str, path: &Path) -> String {
    let reply = client
        .request(&format!("LOAD {name} {}", path.display()))
        .unwrap();
    assert!(reply.starts_with(&format!("OK LOADED {name} ")), "{reply}");
    reply
}

/// The value of the `key=` token in a reply line.
fn field<'a>(reply: &'a str, key: &str) -> &'a str {
    reply
        .split(' ')
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {reply}"))
}

fn stop(handle: ServerHandle, mut client: Client) {
    assert_eq!(client.request("SHUTDOWN").unwrap(), "OK BYE");
    handle.wait();
}

#[test]
fn a_text_dictionary_serves_the_bytes_of_its_binary_twin() {
    let f = fixture("text");
    let modes = [MmapMode::Off, MmapMode::Auto];
    for mmap in modes {
        let (handle, mut client) = start(ServeConfig {
            mmap,
            ..ServeConfig::default()
        });
        load(&mut client, "bin", &f.binary);
        // A text file has no checksum to defer behind: it is parsed, and
        // resident, at LOAD.
        let reply = load(&mut client, "txt", &f.text);
        let resident = StoredDictionary::SameDifferent(f.dictionary.clone()).approx_bytes();
        assert_eq!(field(&reply, "bytes"), resident.to_string(), "{reply}");
        for obs in &f.observations {
            let binary = client.request(&format!("DIAG bin {obs}")).unwrap();
            assert!(binary.starts_with("OK DIAG "), "{binary}");
            let text = client.request(&format!("DIAG txt {obs}")).unwrap();
            assert_eq!(text, binary, "{mmap:?}");
        }
        let batch: Vec<&str> = f.observations.iter().map(String::as_str).collect();
        assert_eq!(
            client.batch("txt", &batch).unwrap(),
            client.batch("bin", &batch).unwrap(),
            "{mmap:?}"
        );
        stop(handle, client);
    }
    std::fs::remove_dir_all(&f.dir).ok();
}

#[test]
fn a_whole_load_validates_and_decodes_nothing() {
    let f = fixture("cold");
    for mmap in [MmapMode::Off, MmapMode::Auto] {
        let (handle, mut client) = start(ServeConfig {
            mmap,
            ..ServeConfig::default()
        });
        let reply = load(&mut client, "c17", &f.binary);
        assert_eq!(field(&reply, "bytes"), "0", "{mmap:?}: {reply}");
        let stats = client.request("STATS").unwrap();
        assert!(stats.contains(" bytes=0 "), "{stats}");
        let reply = client
            .request(&format!("DIAG c17 {}", f.observations[0]))
            .unwrap();
        assert!(reply.starts_with("OK DIAG "), "{reply}");
        let stats = client.request("STATS").unwrap();
        assert!(!stats.contains(" bytes=0 "), "the DIAG decoded: {stats}");
        stop(handle, client);
    }
    // Corruption still surfaces at LOAD, not at the first request.
    let mut bytes = std::fs::read(&f.binary).unwrap();
    *bytes.last_mut().unwrap() ^= 1;
    std::fs::write(&f.binary, &bytes).unwrap();
    let (handle, mut client) = start(ServeConfig::default());
    let reply = client
        .request(&format!("LOAD c17 {}", f.binary.display()))
        .unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");
    assert!(reply.contains("checksum"), "{reply}");
    stop(handle, client);
    std::fs::remove_dir_all(&f.dir).ok();
}

#[test]
fn the_request_deadline_bounds_a_whole_cold_load() {
    let f = fixture("deadline");
    let (handle, mut client) = start(ServeConfig {
        mmap: MmapMode::Off,
        request_deadline: Some(std::time::Duration::ZERO),
        ..ServeConfig::default()
    });
    load(&mut client, "c17", &f.binary);
    let reply = client
        .request(&format!("DIAG c17 {}", f.observations[0]))
        .unwrap();
    assert_eq!(
        reply,
        "ERR invalid input: request deadline exceeded before any of 1 shards loaded"
    );
    stop(handle, client);
    std::fs::remove_dir_all(&f.dir).ok();
}

#[test]
fn an_evicted_whole_dictionary_stays_registered_and_reloads() {
    let f = fixture("evict");
    let copy = f.dir.join("copy.sddb");
    std::fs::copy(&f.binary, &copy).unwrap();
    let one = StoredDictionary::SameDifferent(f.dictionary.clone()).approx_bytes();
    // The cap holds one decoded dictionary, not two.
    let (handle, mut client) = start(ServeConfig {
        mmap: MmapMode::Off,
        memory_cap: one + one / 2,
        ..ServeConfig::default()
    });
    load(&mut client, "a", &f.binary);
    load(&mut client, "b", &copy);
    let diag = |client: &mut Client, name: &str| {
        client
            .request(&format!("DIAG {name} {}", f.observations[1]))
            .unwrap()
    };
    let first = diag(&mut client, "a");
    assert!(first.starts_with("OK DIAG "), "{first}");
    assert_eq!(diag(&mut client, "b"), first, "b warms and evicts a");
    let stats = client.request("STATS").unwrap();
    assert_eq!(field(&stats, "evictions"), "1", "{stats}");
    assert_eq!(field(&stats, "dicts"), "2", "a is evicted, not forgotten");
    assert!(stats.contains(" dict=a:0:"), "a is cold: {stats}");
    // The next request loads a again from its recorded path.
    assert_eq!(diag(&mut client, "a"), first);
    let stats = client.request("STATS").unwrap();
    assert_eq!(field(&stats, "evictions"), "2", "{stats}");
    stop(handle, client);
    std::fs::remove_dir_all(&f.dir).ok();
}

#[test]
fn a_reload_keeps_an_unchanged_whole_file_resident() {
    let f = fixture("reload");
    let (handle, mut client) = start(ServeConfig::default());
    load(&mut client, "c17", &f.binary);
    let before = client
        .request(&format!("DIAG c17 {}", f.observations[2]))
        .unwrap();
    let reply = client.request("RELOAD c17").unwrap();
    assert!(reply.starts_with("OK RELOADED c17 "), "{reply}");
    assert!(reply.ends_with(" kept=1"), "{reply}");
    assert_ne!(field(&reply, "bytes"), "0", "still resident: {reply}");
    assert_eq!(
        client
            .request(&format!("DIAG c17 {}", f.observations[2]))
            .unwrap(),
        before
    );
    // A rewritten file (other baselines, so another checksum) goes cold,
    // and what serves is the new content.
    let rewritten = StoredDictionary::SameDifferent(f.fault_free.clone());
    assert_ne!(
        rewritten,
        StoredDictionary::SameDifferent(f.dictionary.clone())
    );
    store::save(&f.binary, &rewritten).unwrap();
    let reply = client.request("RELOAD c17").unwrap();
    assert!(reply.ends_with(" kept=0"), "{reply}");
    assert_eq!(field(&reply, "bytes"), "0", "{reply}");
    let fresh = f.dir.join("fresh.sddb");
    store::save(&fresh, &rewritten).unwrap();
    load(&mut client, "fresh", &fresh);
    for obs in &f.observations {
        let reloaded = client.request(&format!("DIAG c17 {obs}")).unwrap();
        assert!(reloaded.starts_with("OK DIAG "), "{reloaded}");
        let expected = client.request(&format!("DIAG fresh {obs}")).unwrap();
        assert_eq!(reloaded, expected);
    }
    stop(handle, client);
    std::fs::remove_dir_all(&f.dir).ok();
}
