//! Worker counts, and the one chunk split and per-worker fan-out behind
//! both simulation loops ([`ResponseMatrix::simulate_jobs`] and
//! [`EcoDelta::lockstep`]).
//!
//! Every parallel entry point in the workspace takes an explicit `jobs`
//! count rather than consulting the machine itself, so library results are
//! reproducible by construction and the caller (CLI flag, benchmark, test)
//! decides how much hardware to use. [`available_jobs`] is the conventional
//! default for those callers: the number of hardware threads the OS grants
//! this process, clamped to at least 1.
//!
//! [`ResponseMatrix::simulate_jobs`]: crate::ResponseMatrix::simulate_jobs
//! [`EcoDelta::lockstep`]: crate::EcoDelta::lockstep

/// Faults per worker thread, rounded up: fewer would let a worker's fixed
/// costs (its engines, a fault-free pass per 64-test block) rival its
/// fault simulation.
pub(crate) const MIN_CHUNK_FAULTS: usize = 32;

/// The number of worker threads to use when the caller asked for "all the
/// hardware": `std::thread::available_parallelism()`, or 1 when the OS
/// cannot say (the conservative choice — serial construction is always
/// correct, just slower).
///
/// # Example
///
/// ```
/// assert!(sdd_sim::available_jobs() >= 1);
/// ```
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Cuts `items` into contiguous chunks of near-equal length, one per
/// worker: `min(jobs, ⌈items / MIN_CHUNK_FAULTS⌉)` of them, and always at
/// least one, so an empty `items` is one empty chunk.
pub(crate) fn worker_chunks<T>(items: &[T], jobs: usize) -> Vec<&[T]> {
    let count = jobs.min(items.len().div_ceil(MIN_CHUNK_FAULTS)).max(1);
    if count == 1 {
        return vec![items];
    }
    items.chunks(items.len().div_ceil(count)).collect()
}

/// Runs `work` on every worker at once — the first on the calling thread,
/// each other on a scoped thread of its own — and returns the results in
/// worker order. A worker's panic resumes on the calling thread.
pub(crate) fn fan_out<W: Send, R: Send>(
    workers: &mut [W],
    work: impl Fn(&mut W) -> R + Sync,
) -> Vec<R> {
    let Some((first, rest)) = workers.split_first_mut() else {
        return Vec::new();
    };
    let work = &work;
    std::thread::scope(|scope| {
        let others: Vec<_> = rest
            .iter_mut()
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        let mut results = Vec::with_capacity(others.len() + 1);
        results.push(work(first));
        results.extend(others.into_iter().map(|other| {
            other
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e))
        }));
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_one_job() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn chunks_are_contiguous_and_one_per_started_32_items() {
        let items: Vec<usize> = (0..100).collect();
        for (jobs, sizes) in [
            (0, vec![100]),
            (1, vec![100]),
            (2, vec![50, 50]),
            (3, vec![34, 34, 32]),
            (16, vec![25, 25, 25, 25]),
        ] {
            let chunks = worker_chunks(&items, jobs);
            assert_eq!(chunks.iter().map(|c| c.len()).collect::<Vec<_>>(), sizes);
            assert_eq!(chunks.concat(), items, "jobs {jobs}");
        }
        assert_eq!(worker_chunks::<usize>(&[], 4), vec![&[] as &[usize]]);
        assert_eq!(worker_chunks(&items[..32], 4).len(), 1);
        assert_eq!(worker_chunks(&items[..33], 4).len(), 2);
    }

    #[test]
    fn fan_out_keeps_worker_order() {
        let mut workers: Vec<usize> = (0..5).collect();
        let results = fan_out(&mut workers, |w| {
            *w *= 10;
            *w + 1
        });
        assert_eq!(results, [1, 11, 21, 31, 41]);
        assert_eq!(workers, [0, 10, 20, 30, 40]);
        assert!(fan_out(&mut Vec::<usize>::new(), |w| *w).is_empty());
    }
}
