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
use dcs_core::Stage;
use dcs_obs::MetricsSnapshot;
use std::fmt;

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

/// A typed failure of a bench generator's output path — serialising the
/// report or writing the BENCH JSON file. The `repro_*` binaries map
/// this to a non-zero exit code instead of panicking.
#[derive(Debug)]
pub enum BenchError {
    /// The report failed to serialise to JSON.
    Serialize(serde_json::Error),
    /// Writing the report file failed.
    Write {
        /// Destination path of the report.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A measured quantity failed its acceptance gate.
    Gate(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Serialize(e) => write!(f, "serialising report: {e}"),
            BenchError::Write { path, source } => write!(f, "writing {path}: {source}"),
            BenchError::Gate(msg) => write!(f, "acceptance gate: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Serialize(e) => Some(e),
            BenchError::Write { source, .. } => Some(source),
            BenchError::Gate(_) => None,
        }
    }
}

/// Serialises `report` as pretty JSON and writes it to `path` with a
/// trailing newline.
pub fn write_report<T: serde::Serialize>(path: &str, report: &T) -> Result<(), BenchError> {
    let json = serde_json::to_string_pretty(report).map_err(BenchError::Serialize)?;
    std::fs::write(path, json + "\n").map_err(|source| BenchError::Write {
        path: path.to_string(),
        source,
    })
}

/// Per-stage wall-clock gauges (`epoch_stage_ns{pipeline,stage}`) of the
/// centre's most recently analysed epoch — one named field per stage of
/// both detection pipelines, the flat breakdown the BENCH JSON embeds.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct StageGauges {
    /// Aligned `fuse`: digest fusion into the m×n column matrix.
    pub fuse_ns: u64,
    /// Aligned `sketch_fuse`: sidecar-sketch merge and top-k read-out.
    pub sketch_fuse_ns: u64,
    /// Aligned `screen`: rank columns, materialise the n′ heaviest.
    pub screen_ns: u64,
    /// Aligned `core_find`: product search plus the stop-point read.
    pub core_find_ns: u64,
    /// Aligned `sweep`: expansion sweep of the core row vector.
    pub sweep_ns: u64,
    /// Aligned `terminate`: natural-occurrence verdict.
    pub terminate_ns: u64,
    /// Unaligned `stack_rows`: array stacking and group-owner mapping.
    pub stack_rows_ns: u64,
    /// Unaligned `graph_build`: incremental match-graph construction.
    pub graph_build_ns: u64,
    /// Unaligned `er_test`: Erdős–Rényi giant-component test.
    pub er_test_ns: u64,
    /// Unaligned `peel`: detection-graph core peeling.
    pub peel_ns: u64,
}

impl StageGauges {
    /// Reads the ten stage gauges out of a snapshot (zero for stages
    /// the snapshot has never seen).
    pub fn from_snapshot(snap: &MetricsSnapshot) -> StageGauges {
        let g = |s: Stage| snap.gauge(&s.gauge_key()).unwrap_or(0);
        StageGauges {
            fuse_ns: g(Stage::Fuse),
            sketch_fuse_ns: g(Stage::SketchFuse),
            screen_ns: g(Stage::Screen),
            core_find_ns: g(Stage::CoreFind),
            sweep_ns: g(Stage::Sweep),
            terminate_ns: g(Stage::Terminate),
            stack_rows_ns: g(Stage::StackRows),
            graph_build_ns: g(Stage::GraphBuild),
            er_test_ns: g(Stage::ErTest),
            peel_ns: g(Stage::Peel),
        }
    }

    /// True when every stage of both pipelines recorded a non-zero span.
    pub fn all_nonzero(&self) -> bool {
        [
            self.fuse_ns,
            self.sketch_fuse_ns,
            self.screen_ns,
            self.core_find_ns,
            self.sweep_ns,
            self.terminate_ns,
            self.stack_rows_ns,
            self.graph_build_ns,
            self.er_test_ns,
            self.peel_ns,
        ]
        .iter()
        .all(|&ns| ns > 0)
    }
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
    fn stage_gauges_read_all_ten_stages() {
        let reg = dcs_obs::MetricsRegistry::new();
        let rec = dcs_core::StageRecorder::new(&reg);
        let empty = StageGauges::from_snapshot(&reg.snapshot());
        assert!(!empty.all_nonzero(), "unrecorded stages must read zero");
        for (i, s) in Stage::ALIGNED
            .iter()
            .chain(Stage::UNALIGNED.iter())
            .enumerate()
        {
            rec.record(*s, (i as u64 + 1) * 10);
        }
        let gauges = StageGauges::from_snapshot(&reg.snapshot());
        assert!(gauges.all_nonzero());
        assert_eq!(gauges.fuse_ns, 10);
        assert_eq!(gauges.sketch_fuse_ns, 20);
        assert_eq!(gauges.graph_build_ns, 80);
        assert_eq!(gauges.peel_ns, 100);
    }

    #[test]
    fn write_report_surfaces_io_failure() {
        #[derive(serde::Serialize)]
        struct Tiny {
            v: u64,
        }
        let err = write_report("/nonexistent-dir/x/y.json", &Tiny { v: 1 })
            .expect_err("writing into a missing directory must fail");
        let msg = err.to_string();
        assert!(msg.contains("/nonexistent-dir/x/y.json"), "{msg}");
    }

    #[test]
    fn paper_constants_consistent() {
        assert!(unaligned_paper::TEST_P1 < 1.0 / unaligned_paper::N as f64);
        assert!(unaligned_paper::DETECT_P1_PAPER > 1.0 / unaligned_paper::N as f64);
        assert_eq!(aligned_paper::N, 4_194_304);
    }
}
