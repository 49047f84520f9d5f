//! Seeded corpus synthesis — the workload generator behind perfbench's
//! `volume` workload, the examples, and the volume tests.
//!
//! A synthetic corpus injects a few *systematic* faults (each owning a
//! configured share of the devices) into a background of uniformly random
//! faults, then pushes every device's responses through a seeded
//! [`CorruptionModel`] sweep so the corpus looks like real tester datalogs:
//! masked bits, flipped bits, and a mix of the text and JSONL line shapes.
//! Everything is a pure function of the seed.

use std::io::{self, Write};

use sdd_logic::{MaskedBitVec, Prng};
use sdd_sim::{CorruptionModel, ResponseMatrix};

/// What to synthesize.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Devices (corpus records) to emit.
    pub devices: usize,
    /// Injected systematic faults as `(fault index, share of devices)`;
    /// the rest get uniformly random faults.
    pub systematic: Vec<(usize, f64)>,
    /// Corruption sweep: per-bit masking probability.
    pub mask_rate: f64,
    /// Corruption sweep: per-bit flip probability.
    pub flip_rate: f64,
    /// Emit every `n`-th record in the JSONL shape (0 = text only).
    pub jsonl_every: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for SynthSpec {
    fn default() -> Self {
        Self {
            devices: 100,
            systematic: Vec::new(),
            mask_rate: 0.02,
            flip_rate: 0.01,
            jsonl_every: 5,
            seed: 1,
        }
    }
}

/// The deterministic device id of record `index`.
pub fn device_name(index: usize) -> String {
    format!("dev-{index:06}")
}

/// Synthesizes a same/different- or full-dictionary-shaped corpus (per-test
/// responses) from `matrix`, writing one line per device to `out`.
///
/// Returns the injected fault plan: `plan[d]` is the fault device `d`
/// actually carries (before corruption), for ground-truth assertions.
///
/// # Errors
///
/// Propagates write errors.
pub fn synthesize(
    matrix: &ResponseMatrix,
    spec: &SynthSpec,
    out: &mut dyn Write,
) -> io::Result<Vec<usize>> {
    let mut rng = Prng::seed_from_u64(spec.seed);
    let faults = matrix.fault_count();
    let mut plan: Vec<usize> = Vec::with_capacity(spec.devices);
    for &(fault, share) in &spec.systematic {
        let quota = ((share * spec.devices as f64).round() as usize)
            .min(spec.devices.saturating_sub(plan.len()));
        plan.extend(std::iter::repeat_n(fault, quota));
    }
    while plan.len() < spec.devices {
        plan.push(rng.gen_range(0..faults));
    }
    // Fisher–Yates so systematic devices interleave with the noise.
    for i in (1..plan.len()).rev() {
        plan.swap(i, rng.gen_range(0..i + 1));
    }
    let mut responses: Vec<MaskedBitVec> = Vec::with_capacity(matrix.test_count());
    for (device, &fault) in plan.iter().enumerate() {
        responses.clear();
        for test in 0..matrix.test_count() {
            let response = matrix.response(test, matrix.class(test, fault));
            responses.push(MaskedBitVec::from_known(response));
        }
        let model = CorruptionModel::clean()
            .with_mask_rate(spec.mask_rate)
            .with_flip_rate(spec.flip_rate)
            .with_seed(spec.seed ^ (device as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        model.degrade(&mut responses);
        let obs: Vec<String> = responses.iter().map(MaskedBitVec::to_string).collect();
        let obs = obs.join("/");
        let name = device_name(device);
        if spec.jsonl_every > 0 && (device + 1) % spec.jsonl_every == 0 {
            writeln!(out, "{{\"device\":\"{name}\",\"obs\":\"{obs}\"}}")?;
        } else {
            writeln!(out, "{name} {obs}")?;
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_seed_deterministic_and_honors_shares() {
        let matrix = sdd_core::example::paper_example();
        let spec = SynthSpec {
            devices: 40,
            systematic: vec![(2, 0.5), (0, 0.25)],
            seed: 7,
            ..Default::default()
        };
        let mut a = Vec::new();
        let plan_a = synthesize(&matrix, &spec, &mut a).unwrap();
        let mut b = Vec::new();
        let plan_b = synthesize(&matrix, &spec, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(plan_a, plan_b);
        assert_eq!(plan_a.len(), 40);
        assert!(plan_a.iter().filter(|&&f| f == 2).count() >= 20);
        // Both line shapes appear.
        let text = String::from_utf8(a).unwrap();
        assert!(text.lines().any(|l| l.starts_with('{')));
        assert!(text.lines().any(|l| l.starts_with("dev-")));
        assert_eq!(text.lines().count(), 40);
    }

    #[test]
    fn different_seeds_differ() {
        let matrix = sdd_core::example::paper_example();
        let mut a = Vec::new();
        let mut b = Vec::new();
        let spec = SynthSpec {
            devices: 30,
            ..Default::default()
        };
        synthesize(&matrix, &spec, &mut a).unwrap();
        synthesize(
            &matrix,
            &SynthSpec {
                seed: spec.seed + 1,
                ..spec
            },
            &mut b,
        )
        .unwrap();
        assert_ne!(a, b);
    }
}
