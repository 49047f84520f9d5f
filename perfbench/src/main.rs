//! The workspace benchmark: three workloads generated from a seed, timed
//! end to end with tracing off, or broken down per layer with tracing on.
//! See `README.md` beside this package for why each workload exists and
//! which layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload build|serve|volume --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root; scratch files go to `.bench_work/`.
//! Every line but the last is a human-readable report; the last line is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//! A failed correctness check makes `correct` false and the exit code 1.

mod build;
mod measure;
mod serve;
mod trace;
mod volume;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use trace::Tracer;

/// Per-bit probability that an observed response bit is masked (`X`).
const MASK_RATE: f64 = 0.02;
/// Per-bit probability that an observed response bit is flipped. At 1 %
/// the true fault is almost never in the best set of either s953
/// dictionary (top-hit ratio 0.017 and 0.007), so no systematic fault
/// could classify; at 0.1 % the ratio is about 0.8 and 0.96.
const FLIP_RATE: f64 = 0.001;

/// End-to-end metrics: `(name, unit, better)`. Every workload reports each
/// (see README.md for what each means per workload).
const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("p50_ms", "ms", "lower"),
    ("rate_per_s", "1/s", "higher"),
];

/// Layers whose self time the traced run reports.
const LAYERS: &[&str] = &[
    "netlist", "fault", "atpg", "sim", "core", "store", "patch", "logic", "serve", "volume",
    "bench",
];

/// Per-layer metrics: `(name, unit)`. A workload that does not reach a
/// layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_s", "s"),
    ("fault.collapse_s", "s"),
    ("atpg.diag_s", "s"),
    ("atpg.10det_s", "s"),
    ("atpg.tests.diag", "count"),
    ("atpg.tests.10det", "count"),
    ("atpg.aborted", "count"),
    ("atpg.untestable", "count"),
    ("sim.simulate_s.diag", "s"),
    ("sim.simulate_s.10det", "s"),
    ("sim.classes.diag", "count"),
    ("sim.classes.10det", "count"),
    ("core.p1_s.diag", "s"),
    ("core.p1_s.10det", "s"),
    ("core.p1_calls.diag", "count"),
    ("core.p1_calls.10det", "count"),
    ("core.p2_s.diag", "s"),
    ("core.p2_s.10det", "s"),
    ("core.p2_recovered.diag", "pairs"),
    ("core.p2_recovered.10det", "pairs"),
    ("store.encode_s", "s"),
    ("store.commit_s", "s"),
    ("store.bytes", "bytes"),
    ("patch.eco_s", "s"),
    ("patch.dirty_faults", "count"),
    ("patch.touched_tests", "count"),
    ("patch.refresh_passes", "count"),
    ("patch.bytes_rewritten", "bytes"),
    ("logic.parse_us", "us"),
    ("core.encode_us", "us"),
    ("core.score_us", "us"),
    ("core.merge_us", "us"),
    ("store.load_us", "us"),
    ("store.decode_us", "us"),
    ("store.shard_open_s", "s"),
    ("serve.rtt_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.wakeups_per_req", "ratio"),
    ("serve.pipelined_ratio", "ratio"),
    ("serve.backpressure_stalls", "count"),
    ("serve.busy", "count"),
    ("volume.ingest_us", "us"),
    ("volume.diagnose_us", "us"),
    ("volume.cluster_s", "s"),
    ("volume.report_bytes", "bytes"),
    ("volume.skipped", "count"),
    ("self_s.netlist", "s"),
    ("self_s.fault", "s"),
    ("self_s.atpg", "s"),
    ("self_s.sim", "s"),
    ("self_s.core", "s"),
    ("self_s.store", "s"),
    ("self_s.patch", "s"),
    ("self_s.logic", "s"),
    ("self_s.serve", "s"),
    ("self_s.volume", "s"),
    ("self_s.bench", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.peak_rss_mb", "MiB"),
    ("trace.overhead.p50_ms", "ms"),
    ("trace.overhead.rate_per_s", "1/s"),
];

/// What one pass of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or failed their check.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    lines: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    details: Vec<(&'static str, f64, &'static str, &'static str)>,
    layers: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a named correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Adds a report line (host facts, input shape, digests).
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Sets an end-to-end metric (one of [`END_TO_END`]).
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _, _)| *n == name));
        self.e2e.insert(name, value);
    }

    /// Adds a workload-specific metric to the printed report.
    pub fn detail(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        better: &'static str,
    ) {
        self.details.push((name, value, unit, better));
    }

    /// Sets a per-layer metric (one of [`PER_LAYER`]).
    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name.to_owned(), value);
    }

    /// Self time per layer, and the share of the `roots` spans' wall time
    /// that program layers (everything but `bench`) account for.
    pub fn coverage(&mut self, tracer: &Tracer, roots: &[&str]) {
        let spans = tracer.spans();
        let own = tracer.self_times();
        let root_of = |mut index: usize| {
            while let Some(parent) = spans[index].parent {
                index = parent;
            }
            index
        };
        let wall: f64 = roots.iter().map(|r| tracer.total(r)).sum();
        let covered: f64 = (0..spans.len())
            .filter(|&i| spans[i].layer() != "bench" && roots.contains(&spans[root_of(i)].name))
            .map(|i| own[i])
            .sum();
        self.layer("trace.coverage", covered / wall);
        self.line(format!(
            "trace coverage: program layers account for {:.2}% of {wall:.3} s traced wall time",
            100.0 * covered / wall
        ));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds takes a number in (0, 600]")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["build", "serve", "volume"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (build, serve, volume)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

/// End-to-end values and operation counts of an untraced run, read from
/// the last line of a fresh `--trace 0` run of this binary on the same
/// arguments: the overhead baseline for a traced run, measured in a
/// process of its own so neither pass inherits the other's heap.
struct Baseline {
    e2e: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn untraced_baseline(args: &Args) -> Result<Baseline, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .output()
        .map_err(|e| format!("run the untraced pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let number = |key: &str| -> Option<f64> {
        let at = last.find(key)? + key.len();
        let rest = &last[at..];
        rest[..rest.find([',', '}'])?].trim().parse().ok()
    };
    let e2e = END_TO_END
        .iter()
        .filter_map(|&(name, _, _)| Some((name, number(&format!("\"{name}\": {{\"value\":"))?)))
        .collect::<Vec<_>>();
    if e2e.len() != END_TO_END.len() {
        return Err(format!("untraced pass printed no result: {last:?}"));
    }
    Ok(Baseline {
        e2e,
        attempted: number("\"attempted\":").unwrap_or(0.0) as u64,
        failed: number("\"failed\":").unwrap_or(0.0) as u64,
        correct: last.contains("\"correct\": true") && output.status.success(),
    })
}

/// Adds the traced run's self times, the tracing overhead against
/// `baseline`, and writes the spans out.
fn finish_trace(
    out: &mut Outcome,
    tracer: &Tracer,
    baseline: Result<Baseline, String>,
    spans_path: &Path,
) {
    for (layer, seconds) in tracer.layer_self_seconds() {
        if LAYERS.contains(&layer) {
            out.layer(&format!("self_s.{layer}"), seconds);
        }
    }
    match baseline {
        Ok(baseline) => {
            for (&(name, unit, _), &(_, u)) in END_TO_END.iter().zip(&baseline.e2e) {
                let Some(&t) = out.e2e.get(name) else {
                    continue;
                };
                out.layer(&format!("trace.overhead.{name}"), t - u);
                out.line(format!(
                    "trace overhead {name}: traced {t:.6} {unit} vs untraced {u:.6} {unit} ({:+.2}%)",
                    100.0 * (t - u) / u
                ));
            }
            out.attempted += baseline.attempted;
            out.failed += baseline.failed;
            out.check("untraced pass correct", baseline.correct);
        }
        Err(e) => out.check(e, false),
    }
    match tracer.write_jsonl(spans_path) {
        Ok(()) => out.line(format!(
            "trace {} spans written to {}",
            tracer.spans().len(),
            spans_path.display()
        )),
        Err(e) => out.line(format!("trace spans not written: {e}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload build|serve|volume --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // A wedged run exits non-zero without a result instead of hanging.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(170));
        eprintln!("perfbench: 170 s deadline exceeded");
        std::process::exit(3);
    });

    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let spans_path = root.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let host = measure::host_line();
    let baseline = args.trace.then(|| untraced_baseline(&args));
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "build" => build::run(&build::prepare(args.seed), &work, &mut tracer),
        "serve" => serve::run(&serve::prepare(args.seed, &work), args.seconds, &mut tracer),
        _ => volume::run(
            &volume::prepare(args.seed, &work),
            args.seconds,
            &mut tracer,
        ),
    };
    if let Some(baseline) = baseline {
        finish_trace(&mut outcome, &tracer, baseline, &spans_path);
    }
    let _ = std::fs::remove_dir_all(&work);

    println!("{host}");
    println!(
        "workload {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &outcome.lines {
        println!("{line}");
    }
    for (name, ok) in &outcome.checks {
        println!("check {} {name}", if *ok { "ok  " } else { "FAIL" });
    }
    for (name, value, unit, better) in &outcome.details {
        println!("metric {name} = {value} {unit} ({better} is better)");
    }
    let mut metrics = Vec::new();
    if args.trace {
        for &(name, unit) in PER_LAYER {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            println!("layer {name} = {value} {unit}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
    } else {
        for &(name, unit, better) in END_TO_END {
            let value = outcome.e2e.get(name).copied().unwrap_or(f64::NAN);
            println!("metric {name} = {value} {unit} ({better} is better)");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
    }
    let correct = outcome.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// JSON has no NaN or infinity; a value that is not finite becomes `null`,
/// which the reader rejects as a measurement.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json name the same metrics
    /// with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for &(name, unit, better) in END_TO_END {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for &(name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in ["build", "serve", "volume"] {
            assert!(spec.contains(&format!("{{\"name\": \"{workload}\"")));
        }
        let listed = spec.matches("\"name\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + 3);
    }
}
