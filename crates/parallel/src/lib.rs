//! Scoped-thread fan-out for `dcs-sim`'s independent Monte-Carlo trials.
//!
//! The analysis centre spawns nothing: Section IV-D's "distribute the
//! load to a large number of CPUs" is not taken, because no benchmark
//! host has shown a second worker paying for the pair loop (DESIGN §2).
//! Rather than pull in a work-stealing runtime, [`map_workers`] wraps
//! [`std::thread::scope`] and hands back per-worker results in
//! worker-index order, so reductions are reproducible regardless of
//! scheduling. One worker is a plain inline call with no spawn.

#![forbid(unsafe_code)]

/// Runs `f(0..workers)` on `workers` scoped threads and returns the
/// results in worker-index order.
///
/// Worker 0 runs on the calling thread, so `workers == 1` is exactly an
/// inline call with no spawn. Results are collected positionally, which
/// makes any fold over them independent of completion order.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_workers_ordered_and_parallel_agree() {
        let seq = map_workers(1, |w| w * 10);
        assert_eq!(seq, vec![0]);
        let par = map_workers(4, |w| w * 10);
        assert_eq!(par, vec![0, 10, 20, 30]);
    }
}
