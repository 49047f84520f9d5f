//! `build` workload: `.bench` text → ATPG → fault simulation → Procedures
//! 1 and 2 → committed artifact, for the diagnostic and the 10-detection
//! test set, then chains of single-pin rewire ECOs patched into the
//! committed diagnostic-set artifact.
//!
//! The netlist, ATPG, Procedure 1 and timed ECO chain seeds are fixed at
//! the profile's seed: on this profile ATPG time moves by about ±15 %
//! between seeds, Procedure 1 calls between 101 and 237 (diagnostic set) or
//! 1 and 101 (10-detection set), and the median ECO of a 40-ECO chain by
//! about ±10 %, so a seed-driven build would not repeat within any useful
//! bound. The workload seed draws a second, untimed chain that goes
//! through the same correctness checks.

use std::path::Path;

use same_different::atpg::{AtpgOptions, GeneratedTestSet};
use same_different::dict::{
    replace_baselines, select_baselines, FullDictionary, PassFailDictionary, Procedure1Options,
    SameDifferentDictionary,
};
use same_different::logic::{BitVec, Prng};
use same_different::netlist::{bench, generator, Circuit, CombView, Driver, NetId};
use same_different::patch::{patch_dictionary, PatchOptions, PatchReport};
use same_different::store::{self, StoredDictionary};
use same_different::Experiment;

use crate::measure::{self, Summary};
use crate::trace::Tracer;
use crate::Outcome;

/// ISCAS'89 profile of the generated netlist.
const PROFILE: &str = "s1423";
/// Generator, ATPG and Procedure 1 seed (see the module docs).
const PROFILE_SEED: u64 = 1;
/// ECOs in the timed chain.
const ECOS: usize = 24;
/// Passes over the timed chain, each from the committed diagnostic-set
/// artifact. An ECO's time is its fastest pass: the passes are seconds
/// apart, so a host stall rarely covers all of one ECO's samples.
const PASSES: usize = 4;
/// ECOs in the seeded chain, patched once and checked, untimed.
const SEEDED_ECOS: usize = 6;

/// Names of the spans of one test set's build, so each set reports apart.
struct SetSpans {
    label: &'static str,
    /// `None` for the diagnostic set, `Some(n)` for an n-detection set.
    detections: Option<u32>,
    atpg: &'static str,
    pipeline: &'static str,
    simulate: &'static str,
    p1: &'static str,
    p2: &'static str,
}

const DIAG: SetSpans = SetSpans {
    label: "diag",
    detections: None,
    atpg: "atpg.diag",
    pipeline: "bench.pipeline.diag",
    simulate: "sim.simulate.diag",
    p1: "core.p1.diag",
    p2: "core.p2.diag",
};

const TEN_DETECT: SetSpans = SetSpans {
    label: "10det",
    detections: Some(10),
    atpg: "atpg.10det",
    pipeline: "bench.pipeline.10det",
    simulate: "sim.simulate.10det",
    p1: "core.p1.10det",
    p2: "core.p2.10det",
};

/// Generated inputs: the netlist as `.bench` text and the ECO chains, where
/// `chain[0]` is the parsed netlist and `chain[i]` applies ECO `i`.
pub struct Inputs {
    bench_text: String,
    /// The timed chain, the same for every workload seed.
    chain: Vec<Circuit>,
    /// The chain the workload seed draws.
    seeded: Vec<Circuit>,
}

/// One rewire: gate `gate`'s input pin `pin` moves to net `source`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rewire {
    gate: NetId,
    pin: usize,
    source: NetId,
}

/// Every rewire that keeps `patch_dictionary`'s preconditions: a gate pin
/// fed by a net of fan-out ≥ 3 moves to a different primary-input or
/// flip-flop net of fan-out ≥ 2 that the gate does not already read. Both
/// nets keep fan-out > 1, and no gate kind changes, so the fault universe
/// and its collapsing stay the same; a source net cannot close a cycle.
pub fn rewire_candidates(circuit: &Circuit) -> Vec<Rewire> {
    let fanout = circuit.fanout_counts();
    let sources: Vec<NetId> = circuit
        .nets()
        .filter(|&net| {
            fanout[net.index()] >= 2
                && matches!(circuit.driver(net), Driver::Input | Driver::Dff { .. })
        })
        .collect();
    let mut out = Vec::new();
    for gate in circuit.nets() {
        let Driver::Gate { inputs, .. } = circuit.driver(gate) else {
            continue;
        };
        for (pin, &old) in inputs.iter().enumerate() {
            if fanout[old.index()] < 3 {
                continue;
            }
            out.extend(
                sources
                    .iter()
                    .filter(|&&s| s != old && !inputs.contains(&s))
                    .map(|&source| Rewire { gate, pin, source }),
            );
        }
    }
    out
}

/// Applies `rewire` to `circuit`.
pub fn apply(circuit: &Circuit, rewire: Rewire) -> Circuit {
    let Driver::Gate { kind, inputs } = circuit.driver(rewire.gate) else {
        panic!("rewire candidates are gate pins");
    };
    let mut inputs = inputs.clone();
    inputs[rewire.pin] = rewire.source;
    circuit
        .with_driver(
            rewire.gate,
            Driver::Gate {
                kind: *kind,
                inputs,
            },
        )
        .expect("rewiring a pin to a source net cannot form a cycle")
}

/// A seeded chain of `count` rewires, each drawn from the candidates of the
/// circuit the previous one produced, and each checked to keep the fault
/// list and its collapsing identical to `base`'s.
pub fn eco_chain(base: &Experiment, seed: u64, count: usize) -> Vec<Circuit> {
    let mut rng = Prng::seed_from_u64(measure::mix(seed, 0xec0));
    let mut chain = vec![base.circuit().clone()];
    while chain.len() <= count {
        let current = chain.last().expect("chain starts with the base");
        let candidates = rewire_candidates(current);
        let rewire = *rng
            .choose(&candidates)
            .expect("the profile netlist has rewire candidates");
        let next = apply(current, rewire);
        let exp = Experiment::new(next.clone());
        if exp.universe().faults() == base.universe().faults() && exp.faults() == base.faults() {
            chain.push(next);
        }
    }
    chain
}

/// Generates the workload's inputs from `seed`.
pub fn prepare(seed: u64) -> Inputs {
    let circuit = generator::iscas89(PROFILE, PROFILE_SEED).expect("known profile");
    let bench_text = bench::write(&circuit);
    let base = Experiment::new(bench::parse(&bench_text).expect("generated netlist parses"));
    let chain = eco_chain(&base, PROFILE_SEED, ECOS);
    let seeded = eco_chain(&base, measure::mix(seed, 0x5eed), SEEDED_ECOS);
    Inputs {
        bench_text,
        chain,
        seeded,
    }
}

/// One test set's committed build.
struct Built {
    tests: GeneratedTestSet,
    matrix: same_different::sim::ResponseMatrix,
    stored: StoredDictionary,
    bytes: Vec<u8>,
    p1_calls: usize,
    p1_pairs: u64,
    sd_pairs: u64,
    atpg_s: f64,
    build_s: f64,
}

/// ATPG plus tests → committed artifact for one test set.
fn build_set(
    exp: &Experiment,
    spans: &SetSpans,
    path: &Path,
    tracer: &mut Tracer,
) -> Result<Built, String> {
    let jobs = measure::jobs();
    let atpg_options = AtpgOptions {
        seed: PROFILE_SEED,
        ..AtpgOptions::default()
    };
    let (tests, atpg_s) = tracer.time(spans.atpg, 0, || match spans.detections {
        None => exp.diagnostic_tests(&atpg_options),
        Some(n) => exp.detection_tests(n, &atpg_options),
    });
    let pipeline = tracer.enter(spans.pipeline, 0);
    let (matrix, sim_s) = tracer.time(spans.simulate, 0, || exp.simulate_jobs(&tests.tests, jobs));
    let options = Procedure1Options {
        seed: PROFILE_SEED,
        jobs,
        ..Procedure1Options::default()
    };
    let (mut selection, p1_s) = tracer.time(spans.p1, 0, || select_baselines(&matrix, &options));
    let (sd_pairs, p2_s) = tracer.time(spans.p2, 0, || {
        replace_baselines(&matrix, &mut selection.baselines)
    });
    let (dictionary, dict_s) = tracer.time("core.build", 0, || {
        SameDifferentDictionary::build(&matrix, &selection.baselines)
    });
    let stored = StoredDictionary::SameDifferent(dictionary);
    let (bytes, encode_s) = tracer.time("store.encode", 0, || store::encode(&stored));
    let bytes = bytes.map_err(|e| format!("encode: {e}"))?;
    let (commit, commit_s) = tracer.time("store.commit", 0, || store::atomic_write(path, &bytes));
    tracer.exit(pipeline);
    commit.map_err(|e| format!("commit: {e}"))?;
    Ok(Built {
        tests,
        matrix,
        stored,
        bytes,
        p1_calls: selection.calls,
        p1_pairs: selection.indistinguished_pairs,
        sd_pairs,
        atpg_s,
        build_s: sim_s + p1_s + p2_s + dict_s + encode_s + commit_s,
    })
}

/// The paper's relation and the store round trip for one committed set.
/// Returns the checks and the committed dictionary's indistinguished
/// pairs (`None` when the artifact does not decode to a same/different
/// dictionary).
fn check_set(built: &Built, path: &Path) -> (Vec<(String, bool)>, Option<u64>) {
    let full = FullDictionary::new(built.matrix.clone()).indistinguished_pairs();
    let pass_fail = PassFailDictionary::build(&built.matrix).indistinguished_pairs();
    let committed = std::fs::read(path)
        .ok()
        .and_then(|bytes| store::decode(&bytes).ok());
    // The resolution is read from the committed dictionary's own
    // signatures, so a faulty build or encode cannot pass on the count
    // Procedure 2 computed from the matrix.
    let pairs = match &committed {
        Some(StoredDictionary::SameDifferent(sd)) => Some(sd.indistinguished_pairs()),
        _ => None,
    };
    let shown = pairs.map_or_else(|| "none".to_owned(), |p| p.to_string());
    let checks = vec![
        (
            format!("full={full} <= committed s/d={shown} <= p/f={pass_fail}"),
            pairs.is_some_and(|p| full <= p && p <= pass_fail),
        ),
        (
            format!(
                "committed s/d={shown} equals Procedure 2's count {}",
                built.sd_pairs
            ),
            pairs == Some(built.sd_pairs),
        ),
        (
            "committed artifact decodes to the built dictionary".to_owned(),
            committed.as_ref() == Some(&built.stored),
        ),
    ];
    (checks, pairs)
}

/// The patched artifact equals a build of the modified netlist under the
/// patched baselines, ignoring the patch-provenance header field.
fn patched_matches_rebuild(circuit: &Circuit, tests: &[BitVec], patched: &[u8]) -> bool {
    let Ok(decoded) = store::read_same_different_auto(patched) else {
        return false;
    };
    let matrix = Experiment::new(circuit.clone()).simulate_jobs(tests, measure::jobs());
    let rebuilt = SameDifferentDictionary::build(&matrix, decoded.baseline_classes());
    let Ok(rebuilt) = store::encode(&StoredDictionary::SameDifferent(rebuilt)) else {
        return false;
    };
    matches!(
        (store::strip_patch_provenance(patched), store::strip_patch_provenance(&rebuilt)),
        (Ok(a), Ok(b)) if a == b
    )
}

/// Checks every committed artifact of `chain` (`patched`, by ECO index)
/// against a rebuild, and reports the last artifact's and the chain's
/// digests.
fn check_chain(
    out: &mut Outcome,
    name: &str,
    chain: &[Circuit],
    tests: &[BitVec],
    patched: &[(usize, Vec<u8>)],
) {
    let mismatched: Vec<usize> = patched
        .iter()
        .filter(|(i, bytes)| !patched_matches_rebuild(&chain[i + 1], tests, bytes))
        .map(|(i, _)| *i)
        .collect();
    out.failed += mismatched.len() as u64;
    out.check(
        format!(
            "{} {name}-chain patched artifacts equal a rebuild under the patched baselines{}",
            patched.len(),
            if mismatched.is_empty() {
                String::new()
            } else {
                format!(" (mismatched ECOs {mismatched:?})")
            }
        ),
        mismatched.is_empty(),
    );
    let chain_digest = patched.iter().fold(0u64, |acc, (_, bytes)| {
        measure::mix(acc, store::format::fnv1a64(bytes))
    });
    if let Some((_, last)) = patched.last() {
        out.line(format!(
            "artifact {name}-eco-{} fnv1a64={:016x} bytes={} chain_digest={chain_digest:016x}",
            patched.len(),
            store::format::fnv1a64(last),
            last.len()
        ));
    }
}

/// Runs the workload once over `inputs`.
pub fn run(inputs: &Inputs, dir: &Path, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: parse the `.bench` text and prepare the experiment.
    let mut setups = Vec::with_capacity(measure::SETUP_REPEATS);
    let mut exp = None;
    for _ in 0..measure::SETUP_REPEATS {
        std::thread::sleep(measure::SETUP_GAP);
        let (experiment, seconds) = measure::timed(|| {
            Experiment::new(bench::parse(&inputs.bench_text).expect("generated netlist parses"))
        });
        setups.push(seconds);
        exp = Some(experiment);
    }
    let exp = exp.expect("at least one set-up");
    if tracer.on() {
        // Per-layer split of the set-up, through the calls it is made of.
        let (circuit, _) = tracer.time("netlist.parse", 0, || bench::parse(&inputs.bench_text));
        let circuit = circuit.expect("generated netlist parses");
        tracer.time("netlist.view", 0, || CombView::new(&circuit));
        tracer.time("fault.collapse", 0, || {
            same_different::fault::FaultUniverse::enumerate(&circuit).collapse_on(&circuit)
        });
    }
    let faults = exp.faults().len();

    // Timed phase 1: both test sets, from ATPG to committed artifact.
    let rss_reset = measure::reset_peak_rss();
    let diag_path = dir.join("diag.sddb");
    let det_path = dir.join("10det.sddb");
    let root = tracer.enter("bench.build", 0);
    let diag = build_set(&exp, &DIAG, &diag_path, tracer);
    let det = build_set(&exp, &TEN_DETECT, &det_path, tracer);
    tracer.exit(root);
    let phase1_rss = measure::peak_rss_mb();
    out.attempted += 4;
    let (diag, det) = match (diag, det) {
        (Ok(diag), Ok(det)) => (diag, det),
        (diag, det) => {
            for err in [diag.err(), det.err()].into_iter().flatten() {
                out.check(format!("build: {err}"), false);
            }
            out.failed += 4;
            return out;
        }
    };
    let mut pairs_sd = 0u64;
    for (built, path) in [(&diag, &diag_path), (&det, &det_path)] {
        let (checks, pairs) = check_set(built, path);
        for (name, ok) in checks {
            out.failed += u64::from(!ok);
            out.check(name, ok);
        }
        pairs_sd += pairs.unwrap_or(0);
        out.line(format!(
            "artifact {} fnv1a64={:016x} bytes={}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
            store::format::fnv1a64(&built.bytes),
            built.bytes.len()
        ));
    }

    // Timed phase 2: the ECO chain, each ECO ending in a committed artifact.
    let eco_path = dir.join("eco.sddb");
    if let Err(e) = std::fs::write(&eco_path, &diag.bytes) {
        out.check(
            format!("copy diagnostic artifact for the ECO chain: {e}"),
            false,
        );
        out.failed += 1;
        return out;
    }
    let patch_options = PatchOptions {
        jobs: measure::jobs(),
        ..PatchOptions::default()
    };
    // Each ECO's fastest pass; `INFINITY` once any of its passes failed.
    let mut eco_seconds = vec![f64::INFINITY; ECOS];
    let mut eco_failed = vec![false; ECOS];
    // The first pass's reports and committed artifacts, by ECO index.
    let mut reports: Vec<PatchReport> = Vec::with_capacity(ECOS);
    let mut patched: Vec<(usize, Vec<u8>)> = Vec::with_capacity(ECOS);
    // ECOs whose later pass committed other bytes than the first.
    let mut unrepeated = Vec::new();
    // Every ECO time, pass by pass, for the report of the passes' medians.
    let mut by_pass: Vec<Vec<f64>> = (0..PASSES).map(|_| Vec::with_capacity(ECOS)).collect();
    // The checks above are not part of the measured phases.
    measure::reset_peak_rss();
    let root = tracer.enter("bench.eco", 0);
    for (pass, times) in by_pass.iter_mut().enumerate() {
        if let Err(e) = std::fs::write(&eco_path, &diag.bytes) {
            out.check(format!("restore the ECO chain's start: {e}"), false);
            out.failed += 1;
            eco_failed.fill(true);
            break;
        }
        for (index, pair) in inputs.chain.windows(2).enumerate() {
            let (report, seconds) = tracer.time("patch.eco", index as u64, || {
                patch_dictionary(
                    &pair[0],
                    &pair[1],
                    &diag.tests.tests,
                    &eco_path,
                    &patch_options,
                )
            });
            out.attempted += 1;
            match report.map_err(|e| e.to_string()).and_then(|report| {
                std::fs::read(&eco_path)
                    .map(|bytes| (report, bytes))
                    .map_err(|e| e.to_string())
            }) {
                Ok((report, bytes)) => {
                    eco_seconds[index] = eco_seconds[index].min(seconds);
                    times.push(seconds);
                    if pass == 0 {
                        reports.push(report);
                        patched.push((index, bytes));
                    } else if !patched
                        .iter()
                        .any(|(i, first)| *i == index && *first == bytes)
                    {
                        unrepeated.push(index);
                    }
                }
                Err(e) => {
                    times.push(f64::INFINITY);
                    eco_failed[index] = true;
                    out.failed += 1;
                    out.check(format!("ECO {index} pass {pass}: {e}"), false);
                }
            }
        }
    }
    tracer.exit(root);
    let peak_rss = phase1_rss.max(measure::peak_rss_mb());
    for (seconds, failed) in eco_seconds.iter_mut().zip(&eco_failed) {
        if *failed {
            *seconds = f64::INFINITY;
        }
    }
    out.failed += unrepeated.len() as u64;
    out.check(
        format!(
            "passes 2..{PASSES} commit the first pass's artifacts{}",
            if unrepeated.is_empty() {
                String::new()
            } else {
                format!(" (differing ECOs {unrepeated:?})")
            }
        ),
        unrepeated.is_empty(),
    );

    // The seeded chain: patched once from the committed diagnostic-set
    // artifact, untimed, and checked as the timed chain is.
    let seeded_path = dir.join("seeded.sddb");
    let mut seeded: Vec<(usize, Vec<u8>)> = Vec::with_capacity(SEEDED_ECOS);
    if let Err(e) = std::fs::write(&seeded_path, &diag.bytes) {
        out.failed += 1;
        out.check(
            format!("copy diagnostic artifact for the seeded chain: {e}"),
            false,
        );
    } else {
        for (index, pair) in inputs.seeded.windows(2).enumerate() {
            out.attempted += 1;
            match patch_dictionary(
                &pair[0],
                &pair[1],
                &diag.tests.tests,
                &seeded_path,
                &patch_options,
            )
            .map_err(|e| e.to_string())
            .and_then(|_| std::fs::read(&seeded_path).map_err(|e| e.to_string()))
            {
                Ok(bytes) => seeded.push((index, bytes)),
                Err(e) => {
                    out.failed += 1;
                    out.check(format!("seeded ECO {index}: {e}"), false);
                }
            }
        }
    }
    check_chain(
        &mut out,
        "timed",
        &inputs.chain,
        &diag.tests.tests,
        &patched,
    );
    check_chain(
        &mut out,
        "seeded",
        &inputs.seeded,
        &diag.tests.tests,
        &seeded,
    );

    // End-to-end metrics.
    let atpg_s = diag.atpg_s + det.atpg_s;
    let build_s = diag.build_s + det.build_s;
    // The chain once, each ECO at its fastest pass.
    let patch_s: f64 = eco_seconds.iter().sum();
    let pass_medians: Vec<String> = by_pass
        .iter()
        .map(|times| format!("{:.3}", measure::median(times) * 1e3))
        .collect();
    out.line(format!("ECO pass medians {} ms", pass_medians.join(" / ")));
    let eco = Summary::of(&eco_seconds);
    let all = Summary::of(&by_pass.concat());
    out.line(format!(
        "input profile={PROFILE} faults={faults} outputs={} tests.diag={} tests.10det={} eco_k={ECOS} eco_passes={PASSES} seeded_eco_k={SEEDED_ECOS}",
        exp.view().outputs().len(),
        diag.tests.len(),
        det.tests.len()
    ));
    if !rss_reset {
        out.line("note peak_rss_mb covers the whole process: the peak mark could not be reset");
    }
    out.e2e("setup_s", measure::median(&setups));
    out.e2e("peak_rss_mb", peak_rss);
    out.e2e("p50_ms", eco.p50 * 1e3);
    out.e2e("rate_per_s", (2 * faults) as f64 / (atpg_s + build_s));
    out.line(format!(
        "p50_ms is the median over {} ECOs of each ECO's fastest of {PASSES} passes; tail_ms is the {} over all {} timed patches; rate_per_s is collapsed faults carried from the parsed netlist through ATPG to committed artifact per second, both sets",
        eco.n,
        all.tail_label(),
        all.n
    ));
    out.detail("tail_ms", all.tail * 1e3, "ms", "lower");
    out.detail("atpg_s", atpg_s, "s", "lower");
    out.detail("build_s", build_s, "s", "lower");
    out.detail("patch_s", patch_s, "s", "lower");
    out.detail("pairs_sd", pairs_sd as f64, "pairs", "lower, exact");
    out.detail(
        "artifact_bytes",
        (diag.bytes.len() + det.bytes.len()) as f64,
        "bytes",
        "lower, exact",
    );

    if tracer.on() {
        layers(&mut out, tracer, &diag, &det, &reports);
    }
    out
}

/// Per-layer metrics from the spans and the patch reports.
fn layers(out: &mut Outcome, tracer: &Tracer, diag: &Built, det: &Built, reports: &[PatchReport]) {
    out.layer("netlist.parse_s", tracer.total("netlist.parse"));
    out.layer("fault.collapse_s", tracer.total("fault.collapse"));
    out.layer("atpg.diag_s", tracer.total("atpg.diag"));
    out.layer("atpg.10det_s", tracer.total("atpg.10det"));
    out.layer("atpg.tests.diag", diag.tests.len() as f64);
    out.layer("atpg.tests.10det", det.tests.len() as f64);
    out.layer(
        "atpg.aborted",
        (diag.tests.aborted.len() + det.tests.aborted.len()) as f64,
    );
    out.layer(
        "atpg.untestable",
        (diag.tests.untestable.len() + det.tests.untestable.len()) as f64,
    );
    for (built, spans) in [(diag, &DIAG), (det, &TEN_DETECT)] {
        let classes: usize = (0..built.matrix.test_count())
            .map(|t| built.matrix.class_count(t))
            .sum();
        let set = spans.label;
        out.layer(
            &format!("sim.simulate_s.{set}"),
            tracer.total(spans.simulate),
        );
        out.layer(&format!("sim.classes.{set}"), classes as f64);
        out.layer(&format!("core.p1_s.{set}"), tracer.total(spans.p1));
        out.layer(&format!("core.p1_calls.{set}"), built.p1_calls as f64);
        out.layer(&format!("core.p2_s.{set}"), tracer.total(spans.p2));
        out.layer(
            &format!("core.p2_recovered.{set}"),
            built.p1_pairs.saturating_sub(built.sd_pairs) as f64,
        );
    }
    out.layer("store.encode_s", tracer.total("store.encode"));
    out.layer("store.commit_s", tracer.total("store.commit"));
    out.layer("store.bytes", (diag.bytes.len() + det.bytes.len()) as f64);
    out.layer(
        "patch.eco_s",
        measure::median(&tracer.durations("patch.eco")),
    );
    let sum = |f: fn(&PatchReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;
    out.layer("patch.dirty_faults", sum(|r| r.dirty_faults));
    out.layer("patch.touched_tests", sum(|r| r.touched_tests));
    out.layer("patch.refresh_passes", sum(|r| r.refresh_passes));
    out.layer(
        "patch.bytes_rewritten",
        sum(|r| r.stats.files_rewritten) * diag.bytes.len() as f64,
    );
    out.coverage(tracer, &["bench.build", "bench.eco"]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate_inputs(circuit: &Circuit, gate: NetId) -> Vec<NetId> {
        match circuit.driver(gate) {
            Driver::Gate { inputs, .. } => inputs.clone(),
            _ => panic!("not a gate"),
        }
    }

    #[test]
    fn candidates_keep_fanout_and_pin_preconditions() {
        let circuit = generator::iscas89("s298", 1).expect("known profile");
        let fanout = circuit.fanout_counts();
        let candidates = rewire_candidates(&circuit);
        assert!(!candidates.is_empty());
        for rewire in &candidates {
            let inputs = gate_inputs(&circuit, rewire.gate);
            assert!(fanout[inputs[rewire.pin].index()] >= 3);
            assert!(fanout[rewire.source.index()] >= 2);
            assert!(!inputs.contains(&rewire.source));
            assert!(matches!(
                circuit.driver(rewire.source),
                Driver::Input | Driver::Dff { .. }
            ));
        }
        // The filter is not vacuous: some gate pins are fed by nets of
        // fan-out below three and are never offered.
        let excluded = circuit.nets().any(|gate| match circuit.driver(gate) {
            Driver::Gate { inputs, .. } => inputs.iter().enumerate().any(|(pin, net)| {
                fanout[net.index()] < 3
                    && !candidates.iter().any(|r| r.gate == gate && r.pin == pin)
            }),
            _ => false,
        });
        assert!(excluded);
    }

    #[test]
    fn eco_chain_is_seeded_and_patchable() {
        let base = Experiment::iscas89("s298", 1).expect("known profile");
        let a = eco_chain(&base, 7, 5);
        assert_eq!(a.len(), 6);
        assert_eq!(a, eco_chain(&base, 7, 5));
        assert_ne!(a, eco_chain(&base, 8, 5));
        for circuit in &a[1..] {
            let exp = Experiment::new(circuit.clone());
            assert_eq!(exp.universe().faults(), base.universe().faults());
            assert_eq!(exp.faults(), base.faults());
        }
        assert!(a.windows(2).all(|pair| pair[0] != pair[1]));
    }
}
