//! Pipelining byte-identity: a client that writes a whole burst of
//! requests in one TCP send must read back exactly the bytes a client
//! issuing the same requests one-at-a-time reads — across `DIAG`,
//! `BATCH`, `VOLUME` (with its inline corpus), a degraded `PARTIAL`
//! diagnosis, and an error reply.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use same_different::dict::Procedure1Options;
use same_different::serve::{serve, Client, ServeConfig};
use same_different::store::{self, save, StoredDictionary};
use same_different::volume::{self, SynthSpec};
use same_different::Experiment;
use sdd_logic::BitVec;

/// How many reply lines a request owns on the wire.
enum Frame {
    /// One reply line (`DIAG`, errors, `QUIT`).
    Single,
    /// `OK BATCH <n>` header plus `n` result lines.
    Batch(usize),
    /// `OK VOLUME <n>` header plus records until `OK SUMMARY`, or a
    /// single `ERR` line when the header is rejected.
    Volume,
}

/// One scripted request: the exact bytes to send (request line plus any
/// inline corpus) and the reply frame to read back.
struct Step {
    payload: String,
    frame: Frame,
}

impl Step {
    fn line(request: &str, frame: Frame) -> Self {
        Self {
            payload: format!("{request}\n"),
            frame,
        }
    }
}

/// Reads one framed reply off `reader`, returning its raw bytes
/// (newlines included) so runs can be compared byte-for-byte.
fn read_frame(reader: &mut BufReader<TcpStream>, frame: &Frame) -> Vec<u8> {
    let mut take_line = |out: &mut Vec<u8>| -> String {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        out.extend_from_slice(line.as_bytes());
        line.trim_end().to_owned()
    };
    let mut out = Vec::new();
    match frame {
        Frame::Single => {
            take_line(&mut out);
        }
        Frame::Batch(n) => {
            let head = take_line(&mut out);
            assert!(head.starts_with("OK BATCH "), "{head}");
            for _ in 0..*n {
                take_line(&mut out);
            }
        }
        Frame::Volume => {
            let head = take_line(&mut out);
            if head.starts_with("OK VOLUME ") {
                while !take_line(&mut out).starts_with("OK SUMMARY ") {}
            } else {
                assert!(head.starts_with("ERR "), "{head}");
            }
        }
    }
    out
}

/// Runs the script over one connection. Sequential mode writes a request
/// and reads its reply before the next; pipelined mode writes the entire
/// burst in one `write_all`, then reads every reply in order.
fn run_script(addr: std::net::SocketAddr, steps: &[Step], pipelined: bool) -> Vec<u8> {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut replies = Vec::new();
    if pipelined {
        let burst: Vec<u8> = steps.iter().flat_map(|s| s.payload.bytes()).collect();
        (&stream).write_all(&burst).unwrap();
        (&stream).flush().unwrap();
        for step in steps {
            replies.extend_from_slice(&read_frame(&mut reader, &step.frame));
        }
    } else {
        for step in steps {
            (&stream).write_all(step.payload.as_bytes()).unwrap();
            (&stream).flush().unwrap();
            replies.extend_from_slice(&read_frame(&mut reader, &step.frame));
        }
    }
    // Both runs end with QUIT, so the server closes: EOF, no stray bytes.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after QUIT: {rest:?}");
    replies
}

/// The shared fixture: a c17 `.sddb` for the happy-path verbs, a
/// synthesized c17 volume corpus, and a 3-shard s298 manifest with the
/// middle shard quarantined for the degraded `PARTIAL` case.
struct Fixture {
    dir: PathBuf,
    c17_path: PathBuf,
    c17_obs: String,
    corpus: Vec<String>,
    manifest_path: PathBuf,
    degraded_obs: String,
}

fn fixture() -> Fixture {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sdd-serve-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let exp = Experiment::new(same_different::netlist::library::c17());
    let tests = exp.diagnostic_tests(&Default::default()).tests;
    let suite = exp.build_dictionaries(
        &tests,
        &Procedure1Options {
            calls1: 2,
            ..Default::default()
        },
    );
    let matrix = exp.simulate(&tests);
    let c17_path = dir.join("c17.sddb");
    save(
        &c17_path,
        &StoredDictionary::SameDifferent(suite.same_different),
    )
    .unwrap();
    let fault = exp.universe().fault(exp.faults()[3]);
    let c17_obs: Vec<String> = tests
        .iter()
        .map(|t| {
            same_different::sim::reference::faulty_response(exp.circuit(), exp.view(), fault, t)
                .to_string()
        })
        .collect();
    let c17_obs = c17_obs.join("/");
    let spec = SynthSpec {
        devices: 6,
        systematic: vec![(3, 0.5)],
        mask_rate: 0.0,
        flip_rate: 0.0,
        jsonl_every: 2,
        seed: 7,
    };
    let mut corpus_bytes = Vec::new();
    volume::synthesize(&matrix, &spec, &mut corpus_bytes).unwrap();
    let corpus: Vec<String> = String::from_utf8(corpus_bytes)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();

    // Degraded s298: 3 cone shards, middle one corrupted and quarantined.
    let s298 = Experiment::iscas89("s298", 1).unwrap();
    let s298_tests = s298.diagnostic_tests(&Default::default());
    let s298_suite = s298.build_dictionaries(
        &s298_tests.tests,
        &Procedure1Options {
            calls1: 2,
            ..Default::default()
        },
    );
    let dictionary = StoredDictionary::SameDifferent(s298_suite.same_different);
    let cones = same_different::sim::OutputCones::compute(s298.circuit(), s298.view());
    let ranges = cones.shard_ranges(s298.universe(), s298.faults(), 3);
    let shard_cones: Vec<BitVec> = ranges
        .iter()
        .map(|r| cones.shard_cone(s298.universe(), s298.faults(), r.clone()))
        .collect();
    let manifest_path = dir.join("s298.sddm");
    let manifest =
        store::write_sharded(&manifest_path, &dictionary, &ranges, Some(&shard_cones)).unwrap();
    let position = manifest.shards[0].fault_start;
    let s298_fault = s298.universe().fault(s298.faults()[position]);
    let degraded_obs: Vec<String> = s298_tests
        .tests
        .iter()
        .map(|t| {
            same_different::sim::reference::faulty_response(
                s298.circuit(),
                s298.view(),
                s298_fault,
                t,
            )
            .to_string()
        })
        .collect();
    let degraded_obs = degraded_obs.join("/");
    let victim_path = dir.join(&manifest.shards[1].file);
    let mut bytes = std::fs::read(&victim_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 1;
    std::fs::write(&victim_path, &bytes).unwrap();
    let report = store::verify_file(&manifest_path).unwrap();
    assert!(!report.healthy());
    store::quarantine_bad_shards(&report).unwrap();

    Fixture {
        dir,
        c17_path,
        c17_obs,
        corpus,
        manifest_path,
        degraded_obs,
    }
}

/// Builds the request script: every verb family the server frames, plus
/// a degraded `PARTIAL` diagnosis and a guaranteed error reply.
fn script(fx: &Fixture) -> Vec<Step> {
    let corpus_refs: Vec<&str> = fx.corpus.iter().map(String::as_str).collect();
    let mut volume = format!("VOLUME c17 {} seed=7\n", corpus_refs.len());
    for line in &corpus_refs {
        volume.push_str(line);
        volume.push('\n');
    }
    vec![
        Step::line(&format!("DIAG c17 {}", fx.c17_obs), Frame::Single),
        Step::line(
            &format!("BATCH c17 {} {} {}", fx.c17_obs, fx.c17_obs, fx.c17_obs),
            Frame::Batch(3),
        ),
        Step {
            payload: volume,
            frame: Frame::Volume,
        },
        Step::line(&format!("DIAG s298 {}", fx.degraded_obs), Frame::Single),
        Step::line("FROB c17", Frame::Single),
        // A bad option still consumes the declared corpus lines before
        // the single ERR reply — the two dummies ride in the payload.
        Step {
            payload: "VOLUME c17 2 seed=banana\ndummy\ndummy\n".to_owned(),
            frame: Frame::Volume,
        },
        Step::line(&format!("DIAG c17 {}", fx.c17_obs), Frame::Single),
        Step::line("QUIT", Frame::Single),
    ]
}

#[test]
fn pipelined_bursts_match_sequential_bytes() {
    let fx = fixture();
    let handle = serve(&ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut setup = Client::connect(handle.addr()).unwrap();
    let reply = setup
        .request(&format!("LOAD c17 {}", fx.c17_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED"), "{reply}");
    let reply = setup
        .request(&format!("LOAD s298 {}", fx.manifest_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK LOADED"), "{reply}");

    let steps = script(&fx);
    let sequential = run_script(handle.addr(), &steps, false);
    let pipelined = run_script(handle.addr(), &steps, true);
    assert_eq!(
        String::from_utf8_lossy(&sequential),
        String::from_utf8_lossy(&pipelined),
        "pipelined replies must be byte-identical to sequential"
    );
    let text = String::from_utf8(sequential).unwrap();
    assert!(text.contains("OK DIAG "), "{text}");
    assert!(text.contains("OK BATCH 3"), "{text}");
    assert!(text.contains("OK VOLUME "), "{text}");
    assert!(text.contains("OK SUMMARY "), "{text}");
    assert!(text.contains("PARTIAL DIAG "), "{text}");
    assert!(text.contains("ERR unknown command \"FROB\""), "{text}");
    assert!(text.contains("ERR bad option \"seed=banana\""), "{text}");
    assert!(text.ends_with("OK BYE\n"), "{text}");

    let stats = setup.request("STATS").unwrap();
    assert!(stats.contains(" backend=reactor "), "{stats}");
    assert!(stats.contains(" pipelined="), "{stats}");
    assert_eq!(setup.request("SHUTDOWN").unwrap(), "OK BYE");
    handle.wait();
    let _ = std::fs::remove_dir_all(&fx.dir);
}
