//! Shared experiment presets for the `repro_*` binaries and Criterion
//! benches.
//!
//! Every binary accepts the environment variables
//! `DCS_REPS` (Monte-Carlo repetitions), `DCS_THREADS` (worker threads)
//! and `DCS_SCALE` (`paper` or `quick`), so the same code regenerates a
//! quick sanity pass or the full paper-scale figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcs_aligned::SearchConfig;

/// Paper constants for the aligned case (Section V-A).
pub mod aligned_paper {
    /// Routers monitored.
    pub const M: usize = 1_000;
    /// Bitmap width (4 Mbit).
    pub const N: usize = 4 * 1024 * 1024;
    /// Screening budget.
    pub const N_PRIME: usize = 4_000;
    /// The showcase pattern (Figures 7 and 11): 100 routers × 30 packets.
    pub const SHOWCASE: (usize, usize) = (100, 30);
}

/// Paper constants for the unaligned case (Section V-B).
pub mod unaligned_paper {
    /// Group-vertices (800 links × 128 groups).
    pub const N: usize = 102_400;
    /// Statistical-test edge probability (below 1/n ≈ 0.98e-5).
    pub const TEST_P1: f64 = 0.65e-5;
    /// Detection-graph edge probability used by the paper's Table I.
    pub const DETECT_P1_PAPER: f64 = 0.8e-4;
    /// Largest-component alarm threshold (Figure 13).
    pub const COMPONENT_THRESHOLD: usize = 100;
}

/// Run-scale knobs read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct RunScale {
    /// Monte-Carlo repetitions.
    pub reps: usize,
    /// Worker threads.
    pub threads: usize,
    /// Full paper scale or a quick pass.
    pub quick: bool,
}

impl RunScale {
    /// Reads `DCS_REPS`, `DCS_THREADS`, `DCS_SCALE` with the given default
    /// repetitions.
    pub fn from_env(default_reps: usize) -> Self {
        let reps = std::env::var("DCS_REPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_reps);
        let threads = std::env::var("DCS_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get().min(16)));
        let quick = std::env::var("DCS_SCALE").is_ok_and(|v| v == "quick");
        RunScale {
            reps: reps.max(1),
            threads: threads.clamp(1, 64),
            quick,
        }
    }
}

/// The search configuration used by the aligned reproduction runs: paper
/// geometry, hopefuls list sized for tractable wall-clock.
pub fn repro_search_config() -> SearchConfig {
    SearchConfig {
        hopefuls: 800,
        max_iterations: 40,
        n_prime: aligned_paper::N_PRIME,
        gamma: 2,
        epsilon: 1e-3,
        termination: Default::default(),
        compute: Default::default(),
    }
}

/// Prints the standard experiment banner.
pub fn banner(what: &str, paper_ref: &str) {
    println!("== DCS reproduction: {what}");
    println!("   paper reference: {paper_ref}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_scale_defaults() {
        // Not manipulating the environment (tests run concurrently);
        // just sanity-check the default path.
        let s = RunScale::from_env(42);
        assert!(s.reps >= 1);
        assert!((1..=64).contains(&s.threads));
    }

    #[test]
    fn paper_constants_consistent() {
        assert!(unaligned_paper::TEST_P1 < 1.0 / unaligned_paper::N as f64);
        assert!(unaligned_paper::DETECT_P1_PAPER > 1.0 / unaligned_paper::N as f64);
        assert_eq!(aligned_paper::N, 4_194_304);
    }
}
