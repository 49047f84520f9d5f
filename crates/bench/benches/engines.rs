//! Micro-benchmarks for the engines behind Table 6: fault simulation
//! throughput, baseline selection (Procedures 1 and 2), dictionary
//! construction, and diagnosis lookups — plus one ECO patch (`eco`).
//!
//! These quantify the cost model the paper argues from: dictionary
//! construction is a one-time offline cost, lookups are cheap, and the
//! same/different dictionary's extra cost over pass/fail is baseline
//! selection only.
//!
//! The harness is dependency-free (`harness = false`): each scenario is
//! timed with [`std::time::Instant`] over a fixed number of iterations and
//! reported as mean wall-clock time per iteration. A trailing argument
//! runs only the groups whose name contains it, e.g.
//! `cargo bench -p sdd-bench --bench engines -- hard_faults`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use same_different::patch::{patch_dictionary, PatchOptions};
use same_different::store::{encode, StoredDictionary};
use same_different::Experiment;
use sdd_atpg::sat::{generate_sat_bounded, SatOutcome};
use sdd_atpg::{random_patterns, AtpgOptions, Podem, PodemOutcome};
use sdd_core::{
    replace_baselines_pass, select_baselines_once, PassFailDictionary, SameDifferentDictionary,
};
use sdd_fault::Fault;
use sdd_logic::{MaskedBitVec, PatternBlock, Prng};
use sdd_netlist::{Circuit, Driver};
use sdd_sim::{Engine, Partition};

/// Times `iters` runs of `f` and prints the mean per-iteration time.
fn bench<T>(name: &str, iters: u32, f: impl FnMut() -> T) {
    bench_with(name, iters, f, |_| String::new());
}

/// Like [`bench`], and prints `describe` of the last run's result beside
/// the time.
fn bench_with<T>(
    name: &str,
    iters: u32,
    mut f: impl FnMut() -> T,
    describe: impl Fn(&T) -> String,
) {
    // One warm-up iteration keeps first-touch page faults out of the timing.
    black_box(f());
    let start = Instant::now();
    let mut last = None;
    for _ in 0..iters {
        last = Some(black_box(f()));
    }
    let total = start.elapsed();
    println!(
        "{name:<40} {:>12.3} ms/iter  ({iters} iters){}",
        total.as_secs_f64() * 1e3 / f64::from(iters),
        last.map_or_else(String::new, |last| describe(&last))
    );
}

fn fixture(name: &str) -> (Experiment, Vec<sdd_logic::BitVec>) {
    let exp = Experiment::iscas89(name, 1).expect("known circuit");
    let mut rng = Prng::seed_from_u64(7);
    let width = exp.view().inputs().len();
    let tests = random_patterns(width, 128, &mut rng);
    (exp, tests)
}

fn bench_fault_simulation() {
    for name in ["s298", "s641", "s1423"] {
        let (exp, tests) = fixture(name);
        let width = exp.view().inputs().len();
        let mut engine = Engine::new(exp.circuit(), exp.view());
        engine.load_block(&PatternBlock::from_patterns(width, &tests[..64]));
        let faults: Vec<_> = exp
            .faults()
            .iter()
            .map(|&id| exp.universe().fault(id))
            .collect();
        bench(&format!("ppsfp_block_{name}"), 10, || {
            let mut detected = 0u32;
            for &fault in &faults {
                if engine.run_fault(fault).detect != 0 {
                    detected += 1;
                }
            }
            detected
        });
        bench(&format!("response_matrix_{name}"), 10, || {
            exp.simulate(&tests)
        });
    }
}

fn bench_baseline_selection() {
    for name in ["s298", "s641"] {
        let (exp, tests) = fixture(name);
        let matrix = exp.simulate(&tests);
        let order: Vec<usize> = (0..matrix.test_count()).collect();
        bench(&format!("procedure1_pass_{name}"), 20, || {
            select_baselines_once(&matrix, &order, Some(10))
        });
        bench(&format!("procedure1_exhaustive_{name}"), 20, || {
            select_baselines_once(&matrix, &order, None)
        });
        let (baselines, _) = select_baselines_once(&matrix, &order, Some(10));
        bench(&format!("procedure2_pass_{name}"), 20, || {
            let mut baselines = baselines.clone();
            replace_baselines_pass(&matrix, &mut baselines)
        });
    }
}

fn bench_dictionaries() {
    let (exp, tests) = fixture("s641");
    let matrix = exp.simulate(&tests);
    let order: Vec<usize> = (0..matrix.test_count()).collect();
    let (baselines, _) = select_baselines_once(&matrix, &order, Some(10));

    bench("build_pass_fail_s641", 20, || {
        PassFailDictionary::build(&matrix)
    });
    bench("build_same_different_s641", 20, || {
        SameDifferentDictionary::build(&matrix, &baselines)
    });

    let sd = SameDifferentDictionary::build(&matrix, &baselines);
    let pf = PassFailDictionary::build(&matrix);
    let observed = MaskedBitVec::from_known(pf.signature(3).clone());
    bench("diagnose_pass_fail_s641", 20, || {
        pf.diagnose_masked(&observed)
    });
    let responses: Vec<_> = (0..matrix.test_count())
        .map(|t| MaskedBitVec::from_known(matrix.response(t, matrix.class(t, 3))))
        .collect();
    bench("diagnose_same_different_s641", 20, || {
        sd.diagnose_masked(&responses)
    });
}

fn bench_partition() {
    let labels: Vec<u32> = (0..10_000u32).map(|i| i % 97).collect();
    bench("partition_refine_10k", 50, || {
        let mut p = Partition::unit(10_000);
        p.refine(&labels);
        p
    });
    // 97 groups of about 103 faults, split by one bit: Procedure 2's
    // suffix and prefix step.
    let grouped = Partition::from_labels(&labels);
    bench("partition_refine_bits_10k", 50, || {
        let mut p = grouped.clone();
        p.refine_bits(|i| i % 7 < 3);
        p
    });
    // 97 × 89 coprime residues leave 8,633 groups: Procedure 2's
    // without-test-j partition.
    let other = Partition::from_labels(&(0..10_000u32).map(|i| i % 89).collect::<Vec<_>>());
    bench("partition_intersect_10k", 50, || grouped.intersect(&other));
}

fn bench_atpg() {
    let (exp, _) = fixture("s298");
    bench("podem_all_faults_s298", 10, || {
        let mut podem = Podem::new(exp.circuit(), exp.view());
        let mut rng = Prng::seed_from_u64(3);
        let mut found = 0u32;
        for &id in exp.faults() {
            if podem
                .generate(exp.universe().fault(id), &mut rng)
                .test()
                .is_some()
            {
                found += 1;
            }
        }
        found
    });
    let s208 = Experiment::iscas89("s208", 1).expect("known circuit");
    bench("diagnostic_testset_s208", 10, || {
        s208.diagnostic_tests(&AtpgOptions::default())
    });
}

fn bench_alternative_engines() {
    // The three fault-simulation strategies and the two ATPG engines,
    // head to head on the same circuit.
    let (exp, tests) = fixture("s298");
    let width = exp.view().inputs().len();

    bench("deductive_block_s298", 10, || {
        let mut detected = 0usize;
        for test in &tests[..64] {
            detected += sdd_sim::deductive::deduce(exp.circuit(), exp.view(), exp.universe(), test)
                .detected()
                .len();
        }
        detected
    });
    let mut engine = Engine::new(exp.circuit(), exp.view());
    engine.load_block(&PatternBlock::from_patterns(width, &tests[..64]));
    let all_faults: Vec<_> = exp.universe().iter().map(|(_, fault)| fault).collect();
    bench("ppsfp_block_equivalent_s298", 10, || {
        let mut detections = 0u32;
        for &fault in &all_faults {
            detections += engine.run_fault(fault).detect.count_ones();
        }
        detections
    });
    let targets: Vec<_> = exp
        .faults()
        .iter()
        .take(20)
        .map(|&id| exp.universe().fault(id))
        .collect();
    bench("sat_atpg_20_faults_s298", 10, || {
        let mut found = 0u32;
        for &fault in &targets {
            if sdd_atpg::sat::generate_sat(exp.circuit(), exp.view(), fault)
                .test()
                .is_some()
            {
                found += 1;
            }
        }
        found
    });
    bench("podem_20_faults_s298", 10, || {
        let mut podem = Podem::new(exp.circuit(), exp.view());
        let mut rng = Prng::seed_from_u64(5);
        let mut found = 0u32;
        for &fault in &targets {
            if podem.generate(fault, &mut rng).test().is_some() {
                found += 1;
            }
        }
        found
    });
}

fn bench_hard_faults() {
    // The faults deterministic PODEM abandons at its default 4,096-backtrack
    // limit, then the bounded SAT fallback at the 32,768-conflict budget
    // test-set generation gives it. PODEM is timed on the s953 profile's
    // hard faults; SAT also on the s1196 profile's, where a solver without
    // path-sensitization clauses is slower than PODEM's whole budget.
    let hard_faults = |exp: &Experiment| {
        let mut podem = Podem::new(exp.circuit(), exp.view());
        let mut rng = Prng::seed_from_u64(5);
        let hard: Vec<Fault> = exp
            .faults()
            .iter()
            .map(|&id| exp.universe().fault(id))
            .filter(|&fault| podem.generate(fault, &mut rng) == PodemOutcome::Aborted)
            .collect();
        println!(
            "hard faults ({}): {} of {}",
            exp.circuit().name(),
            hard.len(),
            exp.faults().len()
        );
        hard
    };
    let s953 = Experiment::iscas89("s953", 1).expect("known circuit");
    let s1196 = Experiment::iscas89("s1196", 1).expect("known circuit");
    let hard = [(&s953, hard_faults(&s953)), (&s1196, hard_faults(&s1196))];
    let outcomes = |counts: &[usize; 3]| {
        format!(
            "  test {} / untestable {} / exhausted {}",
            counts[0], counts[1], counts[2]
        )
    };
    let (s953_exp, s953_hard) = &hard[0];
    bench_with(
        "podem_hard_faults_s953",
        3,
        || {
            let mut podem = Podem::new(s953_exp.circuit(), s953_exp.view());
            let mut rng = Prng::seed_from_u64(5);
            let mut counts = [0usize; 3];
            for &fault in s953_hard {
                counts[match podem.generate(fault, &mut rng) {
                    PodemOutcome::Test(_) => 0,
                    PodemOutcome::Untestable => 1,
                    PodemOutcome::Aborted => 2,
                }] += 1;
            }
            counts
        },
        outcomes,
    );
    bench_with(
        "sat_bounded_hard_faults_s953_s1196",
        3,
        || {
            let mut counts = [0usize; 3];
            for (exp, faults) in &hard {
                for &fault in faults {
                    counts[match generate_sat_bounded(
                        exp.circuit(),
                        exp.view(),
                        fault,
                        Some(32_768),
                    ) {
                        Some(SatOutcome::Test(_)) => 0,
                        Some(SatOutcome::Untestable) => 1,
                        None => 2,
                    }] += 1;
                }
            }
            counts
        },
        outcomes,
    );
}

fn bench_response_matrix_simulate() {
    // The cost of the whole Table 6 inner loop on one mid-size circuit.
    let (exp, tests) = fixture("s953");
    bench("simulate_and_select_s953", 10, || {
        let matrix = exp.simulate(&tests);
        let order: Vec<usize> = (0..matrix.test_count()).collect();
        select_baselines_once(&matrix, &order, Some(10))
    });
}

/// perfbench's rewire rule, first candidate in net order: a gate pin fed
/// by a net of fan-out ≥ 3 moves to another primary input or flip-flop of
/// fan-out ≥ 2 that the gate does not read, which keeps the fault list.
fn first_rewire(circuit: &Circuit) -> Circuit {
    let fanout = circuit.fanout_counts();
    for gate in circuit.nets() {
        let Driver::Gate { kind, inputs } = circuit.driver(gate) else {
            continue;
        };
        for (pin, &old) in inputs.iter().enumerate() {
            let source = circuit
                .inputs()
                .iter()
                .chain(circuit.dffs())
                .find(|&&s| s != old && fanout[s.index()] >= 2 && !inputs.contains(&s));
            if let (true, Some(&source)) = (fanout[old.index()] >= 3, source) {
                let mut inputs = inputs.clone();
                inputs[pin] = source;
                let driver = Driver::Gate {
                    kind: *kind,
                    inputs,
                };
                return circuit.with_driver(gate, driver).expect("acyclic rewire");
            }
        }
    }
    panic!("no rewire candidate");
}

fn bench_eco() {
    // One ECO patch of a saved s953-profile artifact; the artifact is
    // restored, untimed, before each iteration.
    let (exp, tests) = fixture("s953");
    let matrix = exp.simulate(&tests);
    let order: Vec<usize> = (0..matrix.test_count()).collect();
    let (baselines, _) = select_baselines_once(&matrix, &order, Some(10));
    let dictionary = SameDifferentDictionary::build(&matrix, &baselines);
    let bytes = encode(&StoredDictionary::SameDifferent(dictionary)).expect("encodes");
    let dir = std::env::temp_dir().join(format!("sdd-bench-eco-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("s953.sddb");
    let old = exp.circuit();
    let new = first_rewire(old);
    let iters = 20u32;
    let mut timed = Duration::ZERO;
    let mut report = None;
    for iter in 0..=iters {
        std::fs::write(&path, &bytes).expect("restore the artifact");
        let start = Instant::now();
        let patched = patch_dictionary(old, &new, &tests, &path, &PatchOptions::default());
        // Iteration 0 is the warm-up.
        if iter > 0 {
            timed += start.elapsed();
        }
        report = Some(black_box(patched.expect("patch-compatible rewire")));
    }
    let report = report.expect("at least one iteration");
    println!(
        "{:<40} {:>12.3} ms/iter  ({iters} iters)  dirty {}/{} faults, touched {}/{} tests",
        "patch_rewire_s953",
        timed.as_secs_f64() * 1e3 / f64::from(iters),
        report.dirty_faults,
        report.total_faults,
        report.touched_tests,
        report.total_tests,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let groups: [(&str, fn()); 9] = [
        ("fault_simulation", bench_fault_simulation),
        ("baseline_selection", bench_baseline_selection),
        ("dictionaries", bench_dictionaries),
        ("partition", bench_partition),
        ("atpg", bench_atpg),
        ("alternative_engines", bench_alternative_engines),
        ("hard_faults", bench_hard_faults),
        ("response_matrix_simulate", bench_response_matrix_simulate),
        ("eco", bench_eco),
    ];
    // `cargo bench` passes flags such as `--bench`; the first other
    // argument, if any, filters groups by name.
    let filter = std::env::args().skip(1).find(|arg| !arg.starts_with('-'));
    for (name, group) in groups {
        if filter.as_deref().is_none_or(|f| name.contains(f)) {
            group();
        }
    }
}
