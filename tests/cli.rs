//! Integration tests driving the `sdd` binary end to end through its
//! public command-line interface, exactly as a user would.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sdd(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdd"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("sdd binary runs")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdd-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn full_flow_generate_atpg_dictionary_inject_diagnose() {
    let dir = workdir("flow");

    let out = sdd(&dir, &["generate", "s208", "--seed", "3", "-o", "c.bench"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = sdd(&dir, &["info", "c.bench"]);
    assert!(out.status.success());
    let info = String::from_utf8_lossy(&out.stdout);
    assert!(info.contains("circuit:          s208"), "{info}");
    assert!(info.contains("collapsed"), "{info}");

    let out = sdd(
        &dir,
        &["atpg", "c.bench", "--ttype", "diag", "-o", "tests.txt"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = sdd(
        &dir,
        &[
            "dictionary",
            "c.bench",
            "--tests",
            "tests.txt",
            "--calls1",
            "3",
            "-o",
            "dict.txt",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dict = std::fs::read_to_string(dir.join("dict.txt")).unwrap();
    assert!(dict.starts_with("same-different-dictionary v1"));

    let out = sdd(
        &dir,
        &[
            "inject",
            "c.bench",
            "--tests",
            "tests.txt",
            "--fault",
            "5",
            "-o",
            "obs.txt",
        ],
    );
    assert!(out.status.success());
    let injected = String::from_utf8_lossy(&out.stderr);
    let fault_name = injected
        .trim()
        .split(": ")
        .nth(1)
        .expect("inject reports the fault")
        .to_owned();

    let out = sdd(
        &dir,
        &[
            "diagnose",
            "c.bench",
            "--tests",
            "tests.txt",
            "--dict",
            "dict.txt",
            "--observed",
            "obs.txt",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let verdict = String::from_utf8_lossy(&out.stdout);
    assert!(
        verdict.contains(&fault_name),
        "diagnosis {verdict:?} must include the injected fault {fault_name:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_are_reported_not_panicked() {
    let dir = workdir("errors");

    let out = sdd(&dir, &["bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let out = sdd(&dir, &["info", "missing.bench"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing.bench"));

    let out = sdd(&dir, &["generate", "b17"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown circuit"));

    let out = sdd(&dir, &["dictionary", "x.bench"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tests"));

    // Malformed test file.
    std::fs::write(dir.join("c.bench"), "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
    std::fs::write(dir.join("bad.txt"), "01x\n").unwrap();
    let out = sdd(&dir, &["dictionary", "c.bench", "--tests", "bad.txt"]);
    assert!(!out.status.success());

    // Wrong pattern width.
    std::fs::write(dir.join("wide.txt"), "0101\n").unwrap();
    let out = sdd(&dir, &["dictionary", "c.bench", "--tests", "wide.txt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected 1"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generate_is_deterministic_and_parseable() {
    let dir = workdir("gen");
    for _ in 0..2 {
        let out = sdd(&dir, &["generate", "s344", "--seed", "42"]);
        assert!(out.status.success());
    }
    let a = sdd(&dir, &["generate", "s344", "--seed", "42"]).stdout;
    let b = sdd(&dir, &["generate", "s344", "--seed", "42"]).stdout;
    assert_eq!(a, b);
    let text = String::from_utf8(a).unwrap();
    let circuit = same_different::netlist::bench::parse(&text).unwrap();
    assert_eq!(circuit.name(), "s344");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Edits one gate line of `old_text` the way perfbench draws its ECOs: a
/// pin fed by a net of fan-out ≥ 3 moves to another fan-out-≥ 2 primary
/// input or flip-flop. Of those edits, the first whose text parses with
/// every net at its old id (first mentions decide ids), so `sdd patch` can
/// line the two netlists up.
fn rewired_bench(old_text: &str) -> String {
    use same_different::netlist::bench;
    let old = bench::parse(old_text).unwrap();
    let fanout = old.fanout_counts();
    let sources: Vec<&str> = old
        .inputs()
        .iter()
        .chain(old.dffs())
        .filter(|net| fanout[net.index()] >= 2)
        .map(|&net| old.net_name(net))
        .collect();
    let lines: Vec<&str> = old_text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let Some((target, call)) = line.split_once(" = ") else {
            continue;
        };
        let (kind, args) = call.trim_end_matches(')').split_once('(').unwrap();
        if kind == "DFF" {
            continue;
        }
        let args: Vec<&str> = args.split(", ").collect();
        for pin in 0..args.len() {
            if fanout[old.net(args[pin]).unwrap().index()] < 3 {
                continue;
            }
            for &source in sources.iter().filter(|s| !args.contains(s)) {
                let mut edited = args.clone();
                edited[pin] = source;
                let edited = format!("{target} = {kind}({})", edited.join(", "));
                let mut text_lines = lines.clone();
                text_lines[i] = &edited;
                let text = text_lines.join("\n") + "\n";
                let new = bench::parse(&text).unwrap();
                if old.nets().all(|net| old.net_name(net) == new.net_name(net)) {
                    return text;
                }
            }
        }
    }
    panic!("no rewire keeps the net ids");
}

#[test]
fn patch_rewrites_a_saved_artifact_identically_for_every_jobs() {
    let dir = workdir("patch");
    let run = |dir: &std::path::Path, args: &[&str]| {
        let out = sdd(dir, args);
        assert!(
            out.status.success(),
            "sdd {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    run(
        &dir,
        &["generate", "s298", "--seed", "1", "-o", "old.bench"],
    );
    run(
        &dir,
        &["atpg", "old.bench", "--ttype", "diag", "-o", "tests.txt"],
    );
    run(
        &dir,
        &[
            "dictionary",
            "old.bench",
            "--tests",
            "tests.txt",
            "--calls1",
            "2",
            "--out",
            "dict.sddb",
        ],
    );
    let old_text = std::fs::read_to_string(dir.join("old.bench")).unwrap();
    std::fs::write(dir.join("new.bench"), rewired_bench(&old_text)).unwrap();
    let saved = std::fs::read(dir.join("dict.sddb")).unwrap();

    // The same relative paths from two directories, so stdout can match.
    let mut outputs = Vec::new();
    for jobs in ["1", "4"] {
        let sub = dir.join(format!("jobs{jobs}"));
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(sub.join("dict.sddb"), &saved).unwrap();
        let out = run(
            &sub,
            &[
                "patch",
                "../old.bench",
                "../new.bench",
                "dict.sddb",
                "--tests",
                "../tests.txt",
                "--jobs",
                jobs,
            ],
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        for line in [
            "changed nets: 1 (",
            "dirty: ",
            "touched tests: ",
            "indistinguished pairs: ",
            "patched dict.sddb: ",
        ] {
            assert!(stdout.contains(line), "missing {line:?} in:\n{stdout}");
        }
        let bytes = std::fs::read(sub.join("dict.sddb")).unwrap();
        assert_ne!(bytes, saved, "the patch rewrote nothing");
        outputs.push((stdout, bytes));
    }
    assert_eq!(outputs[0], outputs[1], "--jobs 1 and --jobs 4 differ");

    let refused = |args: &[&str], needle: &str| {
        let out = sdd(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("sdd: "), "{stderr}");
        assert!(stderr.contains(needle), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    };
    // An incompatible ECO: one gate loses an input, so the fault universe
    // changes shape.
    let shrunk = old_text
        .lines()
        .map(|line| match line.split_once(" = ") {
            Some((net, call)) if call.contains(", ") && !call.starts_with("DFF") => {
                let (head, args) = call.split_once('(').unwrap();
                let first = args.split(", ").next().unwrap().trim_end_matches(')');
                format!("{net} = {head}({first})")
            }
            _ => line.to_owned(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write(dir.join("shrunk.bench"), shrunk).unwrap();
    std::fs::write(dir.join("dict.sddb"), &saved).unwrap();
    refused(
        &[
            "patch",
            "old.bench",
            "shrunk.bench",
            "dict.sddb",
            "--tests",
            "tests.txt",
        ],
        "rebuild",
    );
    assert_eq!(std::fs::read(dir.join("dict.sddb")).unwrap(), saved);
    // A stale artifact: the patched file describes new.bench, not old.bench.
    let stale = dir.join("jobs1").join("dict.sddb");
    let stale_bytes = std::fs::read(&stale).unwrap();
    refused(
        &[
            "patch",
            "old.bench",
            "new.bench",
            stale.to_str().unwrap(),
            "--tests",
            "tests.txt",
        ],
        "artifact disagrees with the old netlist",
    );
    assert_eq!(std::fs::read(&stale).unwrap(), stale_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
