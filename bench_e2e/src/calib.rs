//! How fast the host is right now.
//!
//! On a shared host the same instructions take 20–40 % longer for seconds
//! or minutes at a time while a neighbour is busy, with no steal time
//! reported; ten runs of one commit then spread wider than any bound worth
//! setting. So the harness runs a fixed calibration kernel before and after
//! everything it times and divides the timing by the kernel's slowdown
//! against [`NOMINAL_MS`]: every time the benchmark reports is a time *at
//! nominal host speed*. On a quiet host the slowdown is 1 and the numbers
//! are plain wall time.
//!
//! The kernel is the benchmark's own code and touches nothing of the system
//! under test, so a change to the system moves a reported time by exactly
//! the share it moves the wall time. Its two halves mirror what the system
//! spends its time in — a streaming popcount over words that fit the
//! second-level cache (bitmap kernels), and sorting pseudo-random keys
//! (branchy, data-dependent code: search, graph, session bookkeeping) —
//! because a busy neighbour slows the second kind about twice as much as
//! the first, and a kernel of one kind alone under- or over-corrects.

use std::cell::RefCell;
use std::time::Instant;

/// What one pass of the kernel takes on the quiet host the benchmark was
/// defined on (Xeon @ 2.1 GHz, AVX-512 popcount): the speed every reported
/// time is scaled to.
pub const NOMINAL_MS: f64 = 1.8;

/// 256 KiB of words, popcounted `POP_PASSES` times.
const POP_WORDS: usize = 32 * 1024;
const POP_PASSES: usize = 40;

/// 16 Ki keys, sorted in runs of `SORT_RUN`, `SORT_ROUNDS` times.
const SORT_KEYS: usize = 16 * 1024;
const SORT_RUN: usize = 4096;
const SORT_ROUNDS: usize = 4;

struct Kernel {
    words: Vec<u64>,
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

impl Kernel {
    fn new() -> Self {
        let noise = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Kernel {
            words: (0..POP_WORDS as u64).map(noise).collect(),
            keys: (0..SORT_KEYS as u64)
                .map(|i| noise(i) ^ (i << 40))
                .collect(),
            scratch: vec![0; SORT_KEYS],
        }
    }

    fn run_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..POP_PASSES {
            let ones: u64 = std::hint::black_box(&self.words)
                .iter()
                .map(|w| u64::from((w ^ acc).count_ones()))
                .sum();
            acc = acc.wrapping_add(ones);
        }
        for _ in 0..SORT_ROUNDS {
            self.scratch.copy_from_slice(&self.keys);
            for run in self.scratch.chunks_mut(SORT_RUN) {
                run.sort_unstable();
            }
            acc ^= std::hint::black_box(&self.scratch)[SORT_RUN / 2];
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::new());
}

/// Runs the kernel once on the calling thread and returns how many times
/// longer than nominal it took.
pub fn slowdown() -> f64 {
    KERNEL.with(|k| k.borrow_mut().run_ms()) / NOMINAL_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let mut k = Kernel::new();
        k.run_ms();
        let first = k.scratch.clone();
        k.run_ms();
        assert_eq!(k.scratch, first);
        assert!(first.chunks(SORT_RUN).all(|run| run.is_sorted()));
        assert!(slowdown() > 0.0);
    }
}
