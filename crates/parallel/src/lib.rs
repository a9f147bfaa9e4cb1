//! Compute-budget plumbing and thread fan-out for the analysis engine.
//!
//! The detection pipeline has a handful of embarrassingly parallel hot
//! loops (candidate expansion, column screening, all-pairs digest
//! correlation). Rather than pull in a work-stealing runtime, this crate
//! wraps [`std::thread::scope`] in a few deterministic helpers: callers
//! describe *how much* parallelism to use via [`ComputeBudget`] and get
//! back per-worker results in worker-index order, so reductions are
//! reproducible regardless of scheduling.
//!
//! Everything degrades gracefully to a plain inline loop when the budget
//! is one thread (the helpers never spawn in that case), which keeps
//! single-threaded runs free of thread overhead and easy to profile.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// How much compute an analysis call may use.
///
/// Threaded through [`SearchConfig`](../dcs_aligned) and the unaligned
/// pipeline so every layer splits work the same way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComputeBudget {
    /// Worker threads for parallel sections. `0` means "use all
    /// available CPUs" (resolved by [`ComputeBudget::effective_threads`]).
    pub threads: usize,
}

impl ComputeBudget {
    /// Budget pinned to a single thread (fully sequential).
    pub fn sequential() -> Self {
        ComputeBudget { threads: 1 }
    }

    /// Budget pinned to exactly `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ComputeBudget { threads }
    }

    /// Resolves `threads == 0` to the machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// This budget with `threads == 0` replaced by the machine's
    /// available parallelism as of now, so that no later
    /// [`workers_for`](Self::workers_for) consults the OS (the query
    /// re-reads the affinity mask and the cgroup quota on every call).
    /// An explicit count is returned unchanged.
    pub fn resolved(self) -> Self {
        ComputeBudget {
            threads: self.effective_threads(),
        }
    }

    /// Workers to actually spawn for `items` units of work — and the
    /// number of pieces a parallel section cuts that work into: never
    /// more threads than items, never zero.
    pub fn workers_for(&self, items: usize) -> usize {
        self.effective_threads().min(items).max(1)
    }
}

/// Runs `jobs` across at most `workers` scoped threads, assigning each
/// worker a contiguous block of jobs (the [`split_range`] split) and
/// consuming every job exactly once. Jobs carry their own inputs and
/// output slots (e.g. pre-split `&mut` shard slices), so which worker ran
/// a job can never influence the result — the parallel driver for
/// sharded stages that write disjoint outputs in place.
///
/// Worker 0 runs on the calling thread; `workers == 1` is an inline loop
/// with no spawn. Panics in a worker propagate to the caller.
pub fn run_jobs<J, F>(jobs: Vec<J>, workers: usize, f: F)
where
    J: Send,
    F: Fn(J) + Sync,
{
    let batches = {
        let ranges = split_range(jobs.len(), workers.max(1));
        let mut jobs = jobs.into_iter();
        ranges
            .into_iter()
            .map(|r| jobs.by_ref().take(r.len()).collect::<Vec<J>>())
            .collect::<Vec<_>>()
    };
    if batches.len() <= 1 {
        for job in batches.into_iter().flatten() {
            f(job);
        }
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut iter = batches.into_iter();
        let first = iter.next().expect("at least one batch");
        let handles: Vec<_> = iter
            .map(|batch| {
                scope.spawn(move || {
                    for job in batch {
                        f(job);
                    }
                })
            })
            .collect();
        for job in first {
            f(job);
        }
        for h in handles {
            h.join().expect("dcs-parallel worker panicked");
        }
    });
}

/// Runs `f(0..workers)` on `workers` scoped threads and returns the
/// results in worker-index order.
///
/// Worker 0 runs on the calling thread, so `workers == 1` is exactly an
/// inline call with no spawn. Results are collected positionally, which
/// makes any fold over them independent of completion order — the
/// foundation for the pipeline's thread-count-invariant output.
///
/// Panics in a worker propagate to the caller.
pub fn map_workers<T, F>(workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1);
    if workers == 1 {
        return vec![f(0)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (1..workers).map(|w| scope.spawn(move || f(w))).collect();
        let mut out = Vec::with_capacity(workers);
        out.push(f(0));
        for h in handles {
            out.push(h.join().expect("dcs-parallel worker panicked"));
        }
        out
    })
}

/// Splits `0..len` into `parts` contiguous ranges whose lengths differ by
/// at most one (the first `len % parts` ranges get the extra element).
///
/// Returns fewer than `parts` ranges when `len < parts`; never returns an
/// empty range.
pub fn split_range(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let span = base + usize::from(p < extra);
        out.push(start..start + span);
        start += span;
    }
    out
}

/// Maps `f` over `0..len` split across at most `workers` contiguous
/// chunks, returning one `T` per chunk in chunk order.
///
/// Each worker sees its own `Range<usize>` of indices, so `f` can iterate
/// slices directly without per-item locking.
pub fn map_chunks<T, F>(len: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = split_range(len, workers);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(&f).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut iter = ranges.into_iter();
        let first = iter.next().expect("at least one range");
        let handles: Vec<_> = iter.map(|r| scope.spawn(move || f(r))).collect();
        let mut out = vec![f(first)];
        for h in handles {
            out.push(h.join().expect("dcs-parallel worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn split_range_never_returns_empty_ranges(
            len in 0usize..10_000,
            parts in 1usize..2_000_000,
        ) {
            let ranges = split_range(len, parts);
            let mut next = 0;
            for r in &ranges {
                prop_assert_eq!(r.start, next);
                prop_assert!(!r.is_empty());
                next = r.end;
            }
            prop_assert_eq!(next, len);
            prop_assert!(ranges.len() <= parts.min(len.max(1)));
        }

        // workers_for never resolves to zero, whatever the budget says.
        #[test]
        fn budget_resolution_never_yields_zero(
            threads in 0usize..10_000,
            items in 0usize..10_000,
        ) {
            let b = ComputeBudget { threads };
            prop_assert!(b.effective_threads() >= 1);
            let w = b.workers_for(items);
            prop_assert!(w >= 1);
            prop_assert!(w <= items.max(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_resolves() {
        let b = ComputeBudget::default();
        assert!(b.effective_threads() >= 1);
        assert_eq!(ComputeBudget::with_threads(3).effective_threads(), 3);
        assert_eq!(ComputeBudget::sequential().effective_threads(), 1);
    }

    #[test]
    fn workers_for_clamps_to_items() {
        let b = ComputeBudget::with_threads(8);
        assert_eq!(b.workers_for(3), 3);
        assert_eq!(b.workers_for(100), 8);
        assert_eq!(b.workers_for(0), 1);
    }

    #[test]
    fn split_range_covers_exactly() {
        for len in [0usize, 1, 7, 64, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_range(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len);
                if len > 0 {
                    assert!(ranges.len() <= parts);
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn map_workers_ordered_and_parallel_agree() {
        let seq = map_workers(1, |w| w * 10);
        assert_eq!(seq, vec![0]);
        let par = map_workers(4, |w| w * 10);
        assert_eq!(par, vec![0, 10, 20, 30]);
    }

    #[test]
    fn map_chunks_sums_match() {
        let data: Vec<u64> = (0..1000).collect();
        let expect: u64 = data.iter().sum();
        for workers in [1usize, 2, 3, 8] {
            let partials = map_chunks(data.len(), workers, |r| data[r].iter().sum::<u64>());
            assert_eq!(partials.iter().sum::<u64>(), expect, "workers={workers}");
        }
    }

    #[test]
    fn budget_serde_round_trip() {
        let b = ComputeBudget { threads: 4 };
        let v = serde::Serialize::to_value(&b);
        let back: ComputeBudget = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn resolved_budget_never_consults_the_os() {
        // `effective_threads` asks the OS only when `threads == 0`, so a
        // non-zero count after `resolved()` is the whole property.
        let r = ComputeBudget::default().resolved();
        assert!(r.threads > 0);
        assert_eq!(r.workers_for(usize::MAX), r.threads);
        for threads in [1usize, 3, 64] {
            let b = ComputeBudget::with_threads(threads);
            assert_eq!(b.resolved(), b, "explicit count must be the identity");
        }
    }

    #[test]
    fn run_jobs_consumes_every_job_once() {
        for workers in [1usize, 2, 3, 8] {
            let mut outputs = vec![0u64; 10];
            let jobs: Vec<(usize, &mut u64)> = outputs.iter_mut().enumerate().collect();
            run_jobs(jobs, workers, |(i, slot)| *slot = (i as u64 + 1) * 7);
            let expect: Vec<u64> = (0..10).map(|i| (i + 1) * 7).collect();
            assert_eq!(outputs, expect, "workers={workers}");
        }
    }
}
