//! `sdd` — command-line front end for the same-different workspace.
//!
//! ```text
//! sdd generate <circuit> [--seed N] [-o out.bench]      emit a synthetic benchmark
//! sdd info <file.bench>                                 circuit and fault statistics
//! sdd atpg <file.bench> [--ttype diag|<n>det] [--seed N] [-o tests.txt]
//! sdd dictionary <file.bench> --tests tests.txt [--calls1 N] [--jobs N]
//!                [--shards K] [--out dict.txt|dict.sddb|dict.sddm]
//! sdd build ...                                         alias of `dictionary`
//! sdd inject <file.bench> --tests tests.txt [--fault K|random] [--seed N] [-o obs.txt]
//! sdd diagnose <file.bench> --tests tests.txt --dict dict.txt|dict.sddb --observed obs.txt
//! sdd patch <old.bench> <new.bench> <dict.sddb|dict.sddm> --tests tests.txt
//!           [--jobs N] [--budget-passes N] [--budget-ms MS]
//! sdd verify <dict.sddb|dict.sddm> [--quarantine] [--mmap auto|on|off]
//! sdd volume <dict.sddb|dict.sddm> [--corpus file|-] [--jobs N] [--seed N]
//!            [--budget-ms MS] [--threshold F] [--report out.jsonl] [--mmap auto|on|off]
//! sdd serve [--addr HOST:PORT] [--workers N] [--mem-cap BYTES]
//!           [--max-conns N] [--deadline-ms MS] [--idle-ms MS]
//!           [--mmap auto|on|off] [name=dict ...]
//! ```
//!
//! `volume` streams a datalog corpus (one device observation per line, text
//! or JSONL — see `sdd_volume::corpus`) through per-device diagnosis and
//! defect clustering, writing a JSONL report (one record per device plus a
//! final summary). The report bytes are identical for every `--jobs` value
//! and identical to what the serve `VOLUME` verb streams for the same
//! corpus.
//!
//! `patch` updates a built binary artifact in place after an engineering
//! change order: it computes which outputs and faults the netlist edit can
//! reach, re-simulates only those, refreshes baselines of the touched
//! tests under the given budget, and rewrites only the touched shards
//! through the crash-safe store path. The result is bit-identical (modulo
//! the patch-generation counter in the header) to rebuilding the modified
//! netlist from scratch with the same baselines.
//!
//! Test files hold one input pattern per line (`0`/`1` characters, one per
//! view input: primary inputs then flip-flop pseudo-inputs). Observation
//! files hold one output response per line (primary outputs then flip-flop
//! pseudo-outputs), in test order.
//!
//! Dictionary files are accepted in both formats everywhere, sniffed by
//! magic number: the diffable v1 text format and the binary `.sddb` store.
//! `--out` picks the output format from the extension (`.sddb` → binary,
//! anything else → text, streamed record-by-record) and `-o` remains the
//! text-only spelling older scripts use. With `--shards K` the dictionary
//! is cut into `K` fault-range shards along output-cone boundaries and
//! written as `<out>.sddm` (a checksummed shard manifest) plus one
//! `<stem>.NNN.sddb` per shard — `sdd serve` then loads shards lazily.

use std::fs;
use std::process::ExitCode;

use same_different::atpg::AtpgOptions;
use same_different::dict::diagnose::MatchQuality;
use same_different::dict::{
    io as dict_io, replace_baselines, select_baselines, Procedure1Options, SameDifferentDictionary,
};
use same_different::logic::{BitVec, MaskedBitVec};
use same_different::netlist::{bench, generator};
use same_different::Experiment;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("atpg") => cmd_atpg(&args[1..]),
        Some("dictionary") | Some("build") => cmd_dictionary(&args[1..]),
        Some("inject") => cmd_inject(&args[1..]),
        Some("diagnose") => cmd_diagnose(&args[1..]),
        Some("patch") => cmd_patch(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("volume") => cmd_volume(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!(
                "usage: sdd <generate|info|atpg|dictionary|build|inject|diagnose|patch|verify|volume|serve> ..."
            );
            eprintln!("see the crate docs or README for details");
            return ExitCode::from(if args.is_empty() { 2 } else { 0 });
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sdd: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls `--flag value` out of an argument list; returns remaining
/// positional arguments.
fn parse_flags(
    args: &[String],
    flags: &mut [(&str, &mut Option<String>)],
) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    let mut iter = args.iter();
    'outer: while let Some(arg) = iter.next() {
        for (name, slot) in flags.iter_mut() {
            if arg == name {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{name} requires a value"))?;
                **slot = Some(value.clone());
                continue 'outer;
            }
        }
        if arg.starts_with('-') {
            return Err(format!("unknown option {arg:?}"));
        }
        positional.push(arg.clone());
    }
    Ok(positional)
}

fn load_circuit(path: &str) -> Result<same_different::netlist::Circuit, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    bench::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_patterns(path: &str, width: usize, what: &str) -> Result<Vec<BitVec>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut patterns = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let p: BitVec = line.parse().map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if p.len() != width {
            return Err(format!(
                "{path}:{}: {what} has {} bits, expected {width}",
                i + 1,
                p.len()
            ));
        }
        patterns.push(p);
    }
    if patterns.is_empty() {
        return Err(format!("{path}: no {what}s found"));
    }
    Ok(patterns)
}

fn emit(output: Option<String>, content: &str) -> Result<(), String> {
    match output {
        Some(path) => fs::write(&path, content).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let mut seed = None;
    let mut output = None;
    let positional = parse_flags(args, &mut [("--seed", &mut seed), ("-o", &mut output)])?;
    let [name] = positional.as_slice() else {
        return Err("usage: sdd generate <circuit> [--seed N] [-o out.bench]".into());
    };
    let seed: u64 = seed.map_or(Ok(1), |s| s.parse().map_err(|_| "bad --seed"))?;
    // The embedded library circuits come first; everything else is drawn
    // from the synthetic benchmark generator.
    let circuit = match name.as_str() {
        "c17" => same_different::netlist::library::c17(),
        "demo_seq" => same_different::netlist::library::demo_seq(),
        _ => {
            let profile = generator::profile(name).ok_or_else(|| {
                format!(
                    "unknown circuit {name:?}; known: c17, demo_seq, {}",
                    generator::ISCAS89_PROFILES
                        .iter()
                        .chain(&generator::ISCAS85_PROFILES)
                        .map(|p| p.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?;
            generator::generate(profile, seed)
        }
    };
    emit(output, &bench::write(&circuit))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let positional = parse_flags(args, &mut [])?;
    let [path] = positional.as_slice() else {
        return Err("usage: sdd info <file.bench>".into());
    };
    let exp = Experiment::new(load_circuit(path)?);
    let c = exp.circuit();
    println!("circuit:          {}", c.name());
    println!("primary inputs:   {}", c.input_count());
    println!("primary outputs:  {}", c.output_count());
    println!("flip-flops:       {}", c.dff_count());
    println!("gates:            {}", c.gate_count());
    println!("nets:             {}", c.net_count());
    println!("view inputs:      {} (PI + PPI)", exp.view().inputs().len());
    println!(
        "view outputs:     {} (PO + PPO = m)",
        exp.view().outputs().len()
    );
    println!("logic depth:      {}", exp.view().depth());
    println!(
        "faults:           {} ({} collapsed)",
        exp.universe().len(),
        exp.faults().len()
    );
    Ok(())
}

fn cmd_atpg(args: &[String]) -> Result<(), String> {
    let mut ttype = None;
    let mut seed = None;
    let mut output = None;
    let positional = parse_flags(
        args,
        &mut [
            ("--ttype", &mut ttype),
            ("--seed", &mut seed),
            ("-o", &mut output),
        ],
    )?;
    let [path] = positional.as_slice() else {
        return Err(
            "usage: sdd atpg <file.bench> [--ttype diag|<n>det] [--seed N] [-o tests.txt]".into(),
        );
    };
    let seed: u64 = seed.map_or(Ok(1), |s| s.parse().map_err(|_| "bad --seed"))?;
    let exp = Experiment::new(load_circuit(path)?);
    let options = AtpgOptions {
        seed,
        ..AtpgOptions::default()
    };
    let ttype = ttype.unwrap_or_else(|| "diag".to_owned());
    let set = if ttype == "diag" {
        exp.diagnostic_tests(&options)
    } else if let Some(n) = ttype
        .strip_suffix("det")
        .and_then(|n| n.parse::<u32>().ok())
        .filter(|&n| n > 0)
    {
        exp.detection_tests(n, &options)
    } else {
        return Err(format!(
            "unknown --ttype {ttype:?} (diag or <n>det, e.g. 1det, 10det)"
        ));
    };
    let report = same_different::atpg::CoverageReport::measure(
        exp.circuit(),
        exp.view(),
        exp.universe(),
        exp.faults(),
        &set,
    );
    eprintln!("{report}");
    let mut content = String::new();
    for test in &set.tests {
        content.push_str(&test.to_string());
        content.push('\n');
    }
    emit(output, &content)
}

fn cmd_dictionary(args: &[String]) -> Result<(), String> {
    let mut tests_path = None;
    let mut calls1 = None;
    let mut jobs = None;
    let mut shards = None;
    let mut output = None;
    let mut out = None;
    let positional = parse_flags(
        args,
        &mut [
            ("--tests", &mut tests_path),
            ("--calls1", &mut calls1),
            ("--jobs", &mut jobs),
            ("--shards", &mut shards),
            ("-o", &mut output),
            ("--out", &mut out),
        ],
    )?;
    let [path] = positional.as_slice() else {
        return Err(
            "usage: sdd dictionary <file.bench> --tests tests.txt [--calls1 N] [--jobs N] \
             [--shards K] [--out dict.txt|dict.sddb|dict.sddm]"
                .into(),
        );
    };
    let tests_path = tests_path.ok_or("missing --tests")?;
    let calls1: usize = calls1.map_or(Ok(20), |s| s.parse().map_err(|_| "bad --calls1"))?;
    let shards: Option<usize> = match shards {
        None => None,
        Some(s) => match s.parse() {
            Ok(0) | Err(_) => return Err("bad --shards (want a positive count)".into()),
            Ok(k) => Some(k),
        },
    };
    // Construction output is identical for every --jobs value; the flag only
    // decides how many threads build it.
    let jobs: usize = jobs.map_or(Ok(same_different::sim::available_jobs()), |s| {
        s.parse().map_err(|_| "bad --jobs")
    })?;

    let exp = Experiment::new(load_circuit(path)?);
    let tests = load_patterns(&tests_path, exp.view().inputs().len(), "test pattern")?;
    let matrix = exp.simulate_jobs(&tests, jobs);
    let mut selection = select_baselines(
        &matrix,
        &Procedure1Options {
            calls1,
            jobs,
            ..Procedure1Options::default()
        },
    );
    let indistinguished = replace_baselines(&matrix, &mut selection.baselines);
    let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);
    eprintln!(
        "same/different dictionary: {} bits, {} of {} fault pairs indistinguished \
         (pass/fail would leave {})",
        dictionary.size_bits(),
        indistinguished,
        exp.faults().len() * (exp.faults().len() - 1) / 2,
        matrix.pass_fail_partition().indistinguished_pairs(),
    );
    if let Some(k) = shards {
        let manifest_path = out.ok_or("--shards requires --out <base>.sddm")?;
        if !manifest_path.ends_with(".sddm") {
            return Err(format!(
                "--shards writes a shard manifest; --out {manifest_path:?} must end in .sddm"
            ));
        }
        // Partition the collapsed fault list along output-cone boundaries
        // (contiguous fallback when the cut windows find none), and record
        // each shard's cone so `sdd serve` can prioritize lazy loads.
        let cones = same_different::sim::OutputCones::compute(exp.circuit(), exp.view());
        let ranges = cones.shard_ranges(exp.universe(), exp.faults(), k);
        let shard_cones: Vec<BitVec> = ranges
            .iter()
            .map(|r| cones.shard_cone(exp.universe(), exp.faults(), r.clone()))
            .collect();
        let manifest = same_different::store::write_sharded(
            &manifest_path,
            &same_different::store::StoredDictionary::SameDifferent(dictionary),
            &ranges,
            Some(&shard_cones),
        )
        .map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {} shard(s) beside {manifest_path}: {}",
            manifest.shards.len(),
            manifest
                .shards
                .iter()
                .map(|s| format!("{} ({} faults)", s.file, s.fault_count))
                .collect::<Vec<_>>()
                .join(", "),
        );
        return Ok(());
    }
    match out {
        Some(path) if path.ends_with(".sddb") => same_different::store::save(
            &path,
            &same_different::store::StoredDictionary::SameDifferent(dictionary),
        )
        .map_err(|e| e.to_string()),
        Some(path) => {
            // Stream record-by-record (for large designs the text blob is
            // bigger than the dictionary itself) through a crash-safe
            // staged write: a build killed mid-write leaves the previous
            // dictionary intact, never a torn one.
            let staged =
                same_different::store::AtomicFile::create(&path).map_err(|e| e.to_string())?;
            let mut writer = std::io::BufWriter::new(staged);
            dict_io::write_same_different_to(&dictionary, &mut writer)
                .and_then(|()| std::io::Write::flush(&mut writer))
                .map_err(|e| format!("{path}: {e}"))?;
            writer
                .into_inner()
                .map_err(|e| format!("{path}: {e}"))?
                .commit()
                .map_err(|e| e.to_string())
        }
        None => match output {
            Some(_) => emit(output, &dict_io::write_same_different(&dictionary)),
            None => {
                let stdout = std::io::stdout();
                dict_io::write_same_different_to(&dictionary, &mut stdout.lock())
                    .map_err(|e| format!("stdout: {e}"))
            }
        },
    }
}

fn cmd_inject(args: &[String]) -> Result<(), String> {
    let mut tests_path = None;
    let mut fault_sel = None;
    let mut seed = None;
    let mut output = None;
    let positional = parse_flags(
        args,
        &mut [
            ("--tests", &mut tests_path),
            ("--fault", &mut fault_sel),
            ("--seed", &mut seed),
            ("-o", &mut output),
        ],
    )?;
    let [path] = positional.as_slice() else {
        return Err(
            "usage: sdd inject <file.bench> --tests tests.txt [--fault K|random] [--seed N] [-o obs.txt]"
                .into(),
        );
    };
    let seed: u64 = seed.map_or(Ok(0), |s| s.parse().map_err(|_| "bad --seed"))?;
    let exp = Experiment::new(load_circuit(path)?);
    let tests = load_patterns(
        &tests_path.ok_or("missing --tests")?,
        exp.view().inputs().len(),
        "test pattern",
    )?;
    let position = match fault_sel.as_deref() {
        None | Some("random") => {
            // Splitmix-style hash keeps this dependency-free and stable.
            let mixed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0x1234_5678);
            (mixed % exp.faults().len() as u64) as usize
        }
        Some(k) => {
            let k: usize = k.parse().map_err(|_| "bad --fault (index or `random`)")?;
            if k >= exp.faults().len() {
                return Err(format!(
                    "fault index {k} out of range ({} collapsed faults)",
                    exp.faults().len()
                ));
            }
            k
        }
    };
    let fault = exp.universe().fault(exp.faults()[position]);
    eprintln!(
        "injected fault #{position}: {}",
        fault.describe(exp.circuit())
    );
    let mut content = String::new();
    for test in &tests {
        let response =
            same_different::sim::reference::faulty_response(exp.circuit(), exp.view(), fault, test);
        content.push_str(&response.to_string());
        content.push('\n');
    }
    emit(output, &content)
}

fn cmd_diagnose(args: &[String]) -> Result<(), String> {
    let mut tests_path = None;
    let mut dict_path = None;
    let mut observed_path = None;
    let positional = parse_flags(
        args,
        &mut [
            ("--tests", &mut tests_path),
            ("--dict", &mut dict_path),
            ("--observed", &mut observed_path),
        ],
    )?;
    let [path] = positional.as_slice() else {
        return Err(
            "usage: sdd diagnose <file.bench> --tests tests.txt --dict dict.txt --observed obs.txt"
                .into(),
        );
    };
    let exp = Experiment::new(load_circuit(path)?);
    let tests = load_patterns(
        &tests_path.ok_or("missing --tests")?,
        exp.view().inputs().len(),
        "test pattern",
    )?;
    // Sniffed by magic number: binary .sddb and v1 text both load here.
    let dictionary = same_different::store::load_same_different(dict_path.ok_or("missing --dict")?)
        .map_err(|e| e.to_string())?;
    let observed = load_patterns(
        &observed_path.ok_or("missing --observed")?,
        exp.view().outputs().len(),
        "observed response",
    )?;
    if observed.len() != tests.len() {
        return Err(format!(
            "{} observed responses for {} tests",
            observed.len(),
            tests.len()
        ));
    }
    if dictionary.fault_count() != exp.faults().len() {
        return Err(format!(
            "dictionary covers {} faults but the circuit has {} collapsed faults",
            dictionary.fault_count(),
            exp.faults().len()
        ));
    }

    // The responses are clean data: the fully known case of the ladder.
    let observed: Vec<MaskedBitVec> = observed.into_iter().map(MaskedBitVec::from).collect();
    let report = dictionary
        .diagnose_masked(&observed)
        .map_err(|e| e.to_string())?;
    if report.quality == MatchQuality::Exact {
        println!("{} exact candidate(s):", report.best.len());
    } else {
        println!(
            "no exact match; {} nearest candidate(s) at signature distance {}:",
            report.best.len(),
            report.distance()
        );
    }
    for &pos in report.candidates() {
        let fault = exp.universe().fault(exp.faults()[pos]);
        println!("  {}", fault.describe(exp.circuit()));
    }
    Ok(())
}

fn cmd_patch(args: &[String]) -> Result<(), String> {
    use same_different::patch::{patch_dictionary, PatchOptions};

    let mut tests_path = None;
    let mut jobs = None;
    let mut budget_passes = None;
    let mut budget_ms = None;
    let positional = parse_flags(
        args,
        &mut [
            ("--tests", &mut tests_path),
            ("--jobs", &mut jobs),
            ("--budget-passes", &mut budget_passes),
            ("--budget-ms", &mut budget_ms),
        ],
    )?;
    let [old_path, new_path, artifact] = positional.as_slice() else {
        return Err(
            "usage: sdd patch <old.bench> <new.bench> <dict.sddb|dict.sddm> --tests tests.txt \
             [--jobs N] [--budget-passes N] [--budget-ms MS]"
                .into(),
        );
    };
    let tests_path = tests_path.ok_or("patch requires --tests")?;
    let old = load_circuit(old_path)?;
    let new = load_circuit(new_path)?;
    let width = same_different::netlist::CombView::new(&old).inputs().len();
    let tests = load_patterns(&tests_path, width, "test pattern")?;
    let jobs = match jobs {
        Some(v) => v.parse().map_err(|e| format!("--jobs: {e}"))?,
        None => 1,
    };
    let mut budget = same_different::dict::Budget::unlimited();
    if let Some(v) = budget_passes {
        let passes: usize = v.parse().map_err(|e| format!("--budget-passes: {e}"))?;
        budget = budget.and_max_calls(passes);
    }
    if let Some(v) = budget_ms {
        let ms: u64 = v.parse().map_err(|e| format!("--budget-ms: {e}"))?;
        budget = budget.and_deadline(std::time::Duration::from_millis(ms));
    }

    let report = patch_dictionary(&old, &new, &tests, artifact, &PatchOptions { jobs, budget })
        .map_err(|e| e.to_string())?;
    println!(
        "changed nets: {} ({})",
        report.changed_nets.len(),
        report
            .changed_nets
            .iter()
            .map(|&n| old.net_name(n).to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    println!(
        "dirty: {} of {} faults, {} outputs",
        report.dirty_faults, report.total_faults, report.dirty_outputs
    );
    println!(
        "touched tests: {} of {}",
        report.touched_tests, report.total_tests
    );
    if let Some(pairs) = report.indistinguished_pairs {
        println!(
            "indistinguished pairs: {pairs} (refresh: {} passes, {})",
            report.refresh_passes,
            if report.refresh_completed {
                "converged"
            } else {
                "budget exhausted"
            },
        );
    }
    let stats = &report.stats;
    if stats.changed() {
        println!(
            "patched {artifact}: {} tests, {} signature bits, {} baselines, \
             {}/{} files rewritten, generation {}",
            stats.tests_patched,
            stats.bits_flipped,
            stats.baseline_changes,
            stats.files_rewritten,
            stats.files_total,
            stats.generation,
        );
    } else {
        println!("no changes: {artifact} left untouched");
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let mut quarantine = false;
    let mut mmap = same_different::store::MmapMode::Auto;
    let mut paths = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quarantine" => quarantine = true,
            "--mmap" => {
                let value = iter.next().ok_or("--mmap needs a value (auto|on|off)")?;
                mmap = parse_mmap(value)?;
            }
            a if a.starts_with('-') => return Err(format!("unknown option {a:?}")),
            _ => paths.push(arg.clone()),
        }
    }
    let [path] = paths.as_slice() else {
        return Err(
            "usage: sdd verify <dict.sddb|dict.sddm> [--quarantine] [--mmap auto|on|off]".into(),
        );
    };
    let report = same_different::store::verify_file_with(path, mmap).map_err(|e| e.to_string())?;
    println!(
        "{}: kind={} faults={} shards={}",
        report.path.display(),
        report.kind.name(),
        report.faults,
        report.shards.len(),
    );
    for shard in &report.shards {
        match &shard.error {
            None => println!(
                "  shard {} {}: ok ({} faults)",
                shard.index, shard.file, shard.faults
            ),
            Some(e) => println!(
                "  shard {} {}: BAD ({} faults lost): {e}",
                shard.index, shard.file, shard.faults
            ),
        }
    }
    for temp in &report.stale_temps {
        println!("  stale temp {} (interrupted write; inert)", temp.display());
    }
    println!(
        "coverage: {}/{} faults",
        report.covered_faults(),
        report.faults
    );
    if report.healthy() {
        println!("healthy");
        return Ok(());
    }
    if quarantine {
        let moved =
            same_different::store::quarantine_bad_shards(&report).map_err(|e| e.to_string())?;
        for moved_path in &moved {
            println!("quarantined: {}", moved_path.display());
        }
    }
    Err(format!(
        "{} of {} shards unhealthy",
        report.bad_shards().count(),
        report.shards.len(),
    ))
}

fn cmd_volume(args: &[String]) -> Result<(), String> {
    use same_different::volume;
    use std::io::BufRead;

    let mut corpus = None;
    let mut jobs = None;
    let mut seed = None;
    let mut budget_ms = None;
    let mut threshold = None;
    let mut report = None;
    let mut mmap = None;
    let positional = parse_flags(
        args,
        &mut [
            ("--corpus", &mut corpus),
            ("--jobs", &mut jobs),
            ("--seed", &mut seed),
            ("--budget-ms", &mut budget_ms),
            ("--threshold", &mut threshold),
            ("--report", &mut report),
            ("--mmap", &mut mmap),
        ],
    )?;
    let [dict_path] = positional.as_slice() else {
        return Err(
            "usage: sdd volume <dict.sddb|dict.sddm> [--corpus file|-] [--jobs N] [--seed N] \
             [--budget-ms MS] [--threshold F] [--report out.jsonl] [--mmap auto|on|off]"
                .into(),
        );
    };
    let mmap = mmap.map_or(Ok(same_different::store::MmapMode::Auto), |v| {
        parse_mmap(&v)
    })?;
    let mut options = volume::VolumeOptions {
        jobs: jobs.map_or(Ok(same_different::sim::available_jobs()), |s| {
            s.parse().map_err(|_| "bad --jobs")
        })?,
        ..volume::VolumeOptions::default()
    };
    if let Some(seed) = seed {
        options.seed = seed.parse().map_err(|_| "bad --seed")?;
    }
    if let Some(ms) = budget_ms {
        let ms: u64 = ms.parse().map_err(|_| "bad --budget-ms")?;
        options.budget =
            same_different::dict::Budget::deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(t) = threshold {
        options.threshold = t.parse().map_err(|_| "bad --threshold")?;
    }

    // Every shard is preloaded: a failing shard of a manifest degrades
    // device records; a bad manifest or a bad whole file is fatal.
    let source = volume::PreloadedShards::open_with(dict_path, mmap).map_err(|e| e.to_string())?;

    let corpus = corpus.unwrap_or_else(|| "-".to_owned());
    let reader: Box<dyn BufRead> = if corpus == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        Box::new(std::io::BufReader::new(
            fs::File::open(&corpus).map_err(|e| format!("{corpus}: {e}"))?,
        ))
    };
    let mut lines = reader.lines();

    let summary = match report {
        Some(path) => {
            // The report commits atomically: a run killed mid-corpus leaves
            // any previous report intact, never a torn one.
            let staged =
                same_different::store::AtomicFile::create(&path).map_err(|e| e.to_string())?;
            let mut writer = std::io::BufWriter::new(staged);
            let summary = volume::run(
                &source,
                &mut lines,
                &mut volume::JsonlSink(&mut writer),
                &options,
            )
            .map_err(|e| format!("{path}: {e}"))?;
            std::io::Write::flush(&mut writer).map_err(|e| format!("{path}: {e}"))?;
            writer
                .into_inner()
                .map_err(|e| format!("{path}: {e}"))?
                .commit()
                .map_err(|e| e.to_string())?;
            summary
        }
        None => {
            let stdout = std::io::stdout();
            volume::run(
                &source,
                &mut lines,
                &mut volume::JsonlSink(&mut stdout.lock()),
                &options,
            )
            .map_err(|e| format!("stdout: {e}"))?
        }
    };
    let systematic = summary
        .clusters
        .faults
        .iter()
        .filter(|c| c.systematic)
        .count();
    eprintln!(
        "volume: {} devices ({} ok, {} partial, {} error), {} skipped; \
         {systematic} systematic fault cluster(s) at floor {}",
        summary.devices,
        summary.ok,
        summary.partial,
        summary.error,
        summary.skipped,
        summary.clusters.systematic_at,
    );
    Ok(())
}

/// Parses a `--mmap` flag value into a byte-ownership mode.
fn parse_mmap(value: &str) -> Result<same_different::store::MmapMode, String> {
    same_different::store::MmapMode::parse(value)
        .ok_or_else(|| format!("bad --mmap {value:?} (want auto|on|off)"))
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of 1024).
fn parse_bytes(s: &str) -> Result<usize, String> {
    let (digits, shift) = match s.trim_end_matches(['k', 'K', 'm', 'M', 'g', 'G']) {
        d if d.len() == s.len() => (d, 0u32),
        d => (
            d,
            match s.as_bytes()[s.len() - 1].to_ascii_lowercase() {
                b'k' => 10,
                b'm' => 20,
                _ => 30,
            },
        ),
    };
    let base: usize = digits
        .parse()
        .map_err(|_| format!("bad byte count {s:?} (try 512m, 2g, 1048576)"))?;
    base.checked_shl(shift)
        .filter(|v| v >> shift == base)
        .ok_or_else(|| format!("byte count {s:?} overflows"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut addr = None;
    let mut workers = None;
    let mut mem_cap = None;
    let mut max_conns = None;
    let mut deadline_ms = None;
    let mut idle_ms = None;
    let mut mmap = None;
    let positional = parse_flags(
        args,
        &mut [
            ("--addr", &mut addr),
            ("--workers", &mut workers),
            ("--mem-cap", &mut mem_cap),
            ("--max-conns", &mut max_conns),
            ("--deadline-ms", &mut deadline_ms),
            ("--idle-ms", &mut idle_ms),
            ("--mmap", &mut mmap),
        ],
    )?;
    let mut config = same_different::serve::ServeConfig::default();
    if let Some(addr) = addr {
        config.addr = addr;
    }
    if let Some(workers) = workers {
        config.workers = workers.parse().map_err(|_| "bad --workers")?;
    }
    if let Some(cap) = mem_cap {
        config.memory_cap = parse_bytes(&cap)?;
    }
    if let Some(n) = max_conns {
        config.max_connections = match n.parse() {
            Ok(0) | Err(_) => return Err("bad --max-conns (want a positive count)".into()),
            Ok(n) => n,
        };
    }
    if let Some(ms) = deadline_ms {
        let ms: u64 = ms.parse().map_err(|_| "bad --deadline-ms")?;
        config.request_deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(ms) = idle_ms {
        let ms: u64 = ms.parse().map_err(|_| "bad --idle-ms")?;
        config.idle_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(token) = mmap {
        config.mmap = parse_mmap(&token)?;
    }
    let handle = same_different::serve::serve(&config).map_err(|e| e.to_string())?;
    // Preload `name=path` dictionaries through the protocol itself, so the
    // CLI exercises exactly what a remote client would.
    if !positional.is_empty() {
        let mut client = same_different::serve::Client::connect(handle.addr())
            .map_err(|e| format!("preload connection: {e}"))?;
        for spec in &positional {
            let (name, path) = spec
                .split_once('=')
                .ok_or_else(|| format!("bad dictionary spec {spec:?} (want name=path)"))?;
            let reply = client
                .request(&format!("LOAD {name} {path}"))
                .map_err(|e| format!("{spec}: {e}"))?;
            if let Some(message) = reply.strip_prefix("ERR ") {
                return Err(format!("{path}: {message}"));
            }
            eprintln!("{reply}");
        }
    }
    println!("listening on {}", handle.addr());
    handle.wait();
    eprintln!("server drained; bye");
    Ok(())
}
