//! Sample statistics, memory and host facts shared by the workloads.

use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 51;

/// Pause before each set-up, so a run's set-ups sample the host over about
/// a second instead of one instant, and each starts as cold as a real one.
pub const SETUP_GAP: Duration = Duration::from_millis(20);

/// Tail percentiles a run may report, in tenths of a percent, highest
/// first. A run reports the highest one that still has at least
/// [`TAIL_BEYOND`] samples above it.
const TAIL_CANDIDATES: [u32; 5] = [990, 950, 900, 750, 500];

/// Samples a reported tail percentile must have beyond it.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank index (1-based) of the `tenths`/1000 quantile among `n`
/// samples, computed in integers so `p99` of 1000 samples is rank 990.
fn rank(tenths: u32, n: usize) -> usize {
    (tenths as usize * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest tail percentile (in tenths of a percent) with at least ten
/// samples beyond it among `n` samples; the median when `n < 20`.
pub fn tail_tenths(n: usize) -> u32 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n >= TAIL_BEYOND && n - rank(p, n) >= TAIL_BEYOND)
        .unwrap_or(500)
}

/// Nearest-rank percentile of an ascending, non-empty slice.
pub fn percentile(sorted: &[f64], tenths: u32) -> f64 {
    sorted[rank(tenths, sorted.len()) - 1]
}

/// Median, tail and count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Which percentile [`Summary::tail`] is, in tenths of a percent.
    pub tail_tenths: u32,
    /// The tail value.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). Missing results count as
    /// `f64::INFINITY`, so they miss every latency limit.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return Self {
                n: 0,
                p50: f64::NAN,
                tail_tenths: 500,
                tail: f64::NAN,
            };
        }
        let tail_tenths = tail_tenths(sorted.len());
        Self {
            n: sorted.len(),
            p50: percentile(&sorted, 500),
            tail_tenths,
            tail: percentile(&sorted, tail_tenths),
        }
    }

    /// The median over consecutive slices of `slice` samples of each
    /// slice's p50 and tail, so a stall confined to a few slices moves
    /// neither. The last slice takes the remainder, so every sample counts;
    /// every slice is read at the tail percentile of a full slice. Fewer
    /// than two slices' worth of samples make one slice.
    pub fn sliced(samples: &[f64], slice: usize) -> Self {
        let slice = slice.max(1);
        let count = samples.len() / slice;
        if count < 2 {
            return Self::of(samples);
        }
        let tail_tenths = tail_tenths(slice);
        let mut p50s = Vec::with_capacity(count);
        let mut tails = Vec::with_capacity(count);
        for k in 0..count {
            let end = if k + 1 == count {
                samples.len()
            } else {
                (k + 1) * slice
            };
            let mut part = samples[k * slice..end].to_vec();
            part.sort_by(f64::total_cmp);
            p50s.push(percentile(&part, 500));
            tails.push(percentile(&part, tail_tenths));
        }
        Self {
            n: samples.len(),
            p50: median(&p50s),
            tail_tenths,
            tail: median(&tails),
        }
    }

    /// `p99`, `p95`, ... — the label of the tail percentile.
    pub fn tail_label(&self) -> String {
        if self.tail_tenths.is_multiple_of(10) {
            format!("p{}", self.tail_tenths / 10)
        } else {
            format!("p{}", self.tail_tenths as f64 / 10.0)
        }
    }
}

/// Median over the consecutive windows of `window` seconds that end by
/// `until` of each window's completions per second, where `done` holds
/// each completion's offset in seconds; a stall confined to a few windows
/// does not move it. A span shorter than one window makes one window.
pub fn windowed_rate(done: &[f64], window: f64, until: f64) -> f64 {
    let windows = (until / window) as usize;
    if windows == 0 {
        return done.iter().filter(|&&t| t <= until).count() as f64 / until;
    }
    let mut counts = vec![0.0; windows];
    for &t in done {
        if let Some(count) = counts.get_mut((t / window) as usize) {
            *count += 1.0;
        }
    }
    median(&counts) / window
}

/// Median over `n / slice` consecutive slices of `n` entries, as equal in
/// length as `n` allows, of each slice's work per second, where entry `i`
/// did `work[i]` units in `seconds[i]`; a stall confined to a few slices
/// does not move it. Fewer than two slices' worth make one slice.
pub fn sliced_rate(work: &[f64], seconds: &[f64], slice: usize) -> f64 {
    let n = work.len().min(seconds.len());
    let count = (n / slice.max(1)).max(1);
    let rates: Vec<f64> = (0..count)
        .map(|k| {
            let range = k * n / count..(k + 1) * n / count;
            work[range.clone()].iter().sum::<f64>() / seconds[range].iter().sum::<f64>()
        })
        .collect();
    median(&rates)
}

/// Median of a sample set: the middle value, or the mean of the two
/// middle values for an even count; `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Resets the kernel's peak-resident-set mark for this process, so a later
/// [`peak_rss_mb`] covers only what ran after this call. Returns `false`
/// where the kernel does not allow it; the peak then covers the whole run.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size in MiB (`VmHWM`), or `NaN` where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Worker threads for every parallel stage: all of the host's cores.
pub fn jobs() -> usize {
    same_different::sim::available_jobs()
}

/// One line of host facts: cores, jobs, transport and mmap support, and the
/// compiler that built the program.
pub fn host_line() -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        );
    format!(
        "host available_parallelism={} jobs={} workers={} reactor={} mmap={} rustc=\"{rustc}\"",
        jobs(),
        jobs(),
        jobs(),
        same_different::reactor::supported(),
        same_different::store::mmap_supported(),
    )
}

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(tail_tenths(1000), 990);
        // 999 samples: p99 is rank 990, leaving 9 — fall to p95.
        assert_eq!(tail_tenths(999), 950);
        assert_eq!(tail_tenths(200), 950);
        assert_eq!(tail_tenths(100), 900);
        assert_eq!(tail_tenths(40), 750);
        assert_eq!(tail_tenths(20), 500);
        // Too few samples for any tail: the median.
        assert_eq!(tail_tenths(19), 500);
        assert_eq!(tail_tenths(0), 500);
    }

    #[test]
    fn summary_reads_nearest_rank_values() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(s.tail, 990.0);
        // A missing result is infinitely late and lands in the tail.
        let mut with_missing = vec![1.0; 30];
        with_missing.extend([f64::INFINITY; 10]);
        let s = Summary::of(&with_missing);
        assert_eq!(s.tail_label(), "p75");
        assert_eq!(s.tail, 1.0);
        assert_eq!(Summary::of(&[f64::INFINITY; 40]).tail, f64::INFINITY);
    }

    #[test]
    fn sliced_summary_ignores_a_stall_in_one_slice() {
        // Five slices of 100; the third holds a stall.
        let mut samples: Vec<f64> = (0..500).map(|i| f64::from(i % 100)).collect();
        samples[200..300].iter_mut().for_each(|s| *s += 1000.0);
        let s = Summary::sliced(&samples, 100);
        assert_eq!(s.n, 500);
        assert_eq!(s.tail_label(), "p90");
        assert_eq!(s.p50, 49.0);
        assert_eq!(s.tail, 89.0);
        // Too few samples for two slices: one slice, as `Summary::of`.
        assert_eq!(
            Summary::sliced(&samples[..150], 100),
            Summary::of(&samples[..150])
        );
    }

    #[test]
    fn sliced_summary_counts_the_remainder() {
        // Two slices of 100 with 50 left over. The remainder joins the
        // second slice and moves its p50 and p90 from 2 to 10; the median
        // of the two slices is the mean of their values.
        let mut samples = vec![1.0; 100];
        samples.extend([2.0; 60]);
        samples.extend([10.0; 90]);
        let s = Summary::sliced(&samples, 100);
        assert_eq!(s.n, 250);
        assert_eq!(s.tail_label(), "p90");
        assert_eq!(s.p50, 5.5);
        assert_eq!(s.tail, 5.5);
    }

    #[test]
    fn windowed_rate_ignores_a_stalled_window() {
        // Four 0.5 s windows of 10 completions each, then a stalled window
        // with one, and completions past `until` that do not count.
        let mut done: Vec<f64> = (0..40).map(|i| 0.01 + f64::from(i) * 0.05).collect();
        done.extend([2.2, 2.6, 2.7]);
        assert_eq!(windowed_rate(&done, 0.5, 2.5), 20.0);
        // Shorter than one window: completions per second of the span.
        assert_eq!(windowed_rate(&[0.1, 0.2, 0.3], 0.5, 0.25), 8.0);
    }

    #[test]
    fn sliced_rate_takes_the_median_slice() {
        // Three slices of seven entries: 10/s, a stalled 1/s, and 10/s
        // with the odd entry.
        let work = [5.0, 5.0, 1.0, 1.0, 5.0, 5.0, 10.0];
        let seconds = [0.5, 0.5, 1.0, 1.0, 0.5, 0.5, 1.0];
        assert_eq!(sliced_rate(&work, &seconds, 2), 10.0);
        // A failed entry (infinite time) makes its slice's rate zero.
        assert_eq!(sliced_rate(&[1.0, 1.0], &[1.0, f64::INFINITY], 1), 0.5);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
