//! Named pipeline stages and the instrumented stage recorder.
//!
//! Both detection pipelines of the [`AnalysisCenter`] run as a fixed
//! sequence of named [`Stage`]s driven through one [`StageRecorder`]:
//! the aligned pipeline as `fuse → screen → core_find → sweep →
//! terminate`, the unaligned pipeline as `stack_rows → graph_build →
//! er_test → peel`. Every stage span lands in three metric
//! families of the centre's [`MetricsRegistry`]:
//!
//! * gauge `epoch_stage_ns{pipeline,stage}` — the last epoch's span;
//! * histogram `stage_ns{pipeline,stage}` — every span ever recorded;
//! * counter `stage_runs_total{pipeline,stage}` — how often the stage ran.
//!
//! Spans are floored at 1 ns so a stage that ran is never
//! indistinguishable from one that never did, even when the measured
//! body is below clock resolution (e.g. the peel stage of a quiet epoch).
//!
//! [`AnalysisCenter`]: crate::center::AnalysisCenter

use dcs_obs::MetricsRegistry;
use std::time::Instant;

/// One named stage of a detection pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Aligned: count every column's weight across the per-router
    /// bitmaps, where they lie in the frames, into bit-sliced counters.
    Fuse,
    /// Aligned: find the cut weight over the counters, rank the n′
    /// heaviest columns and gather them from the rows.
    Screen,
    /// Aligned: greedy product search for the core, including the
    /// termination-procedure read of the weight curve.
    CoreFind,
    /// Aligned: expansion sweep — count the core's rows in every column
    /// and keep the columns within γ of the core's weight.
    Sweep,
    /// Aligned: natural-occurrence verdict and report assembly.
    Terminate,
    /// Unaligned: stack per-router arrays vertically and map group
    /// ownership.
    StackRows,
    /// Unaligned: pairwise λ-similarity graph construction.
    GraphBuild,
    /// Unaligned: Erdős–Rényi giant-component statistical test.
    ErTest,
    /// Unaligned: detection-graph core peeling (trivial span when no
    /// alarm was raised).
    Peel,
}

impl Stage {
    /// The aligned pipeline's stages, in execution order.
    pub const ALIGNED: [Stage; 5] = [
        Stage::Fuse,
        Stage::Screen,
        Stage::CoreFind,
        Stage::Sweep,
        Stage::Terminate,
    ];

    /// The unaligned pipeline's stages, in execution order.
    pub const UNALIGNED: [Stage; 4] = [
        Stage::StackRows,
        Stage::GraphBuild,
        Stage::ErTest,
        Stage::Peel,
    ];

    /// The `stage` label value.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Fuse => "fuse",
            Stage::Screen => "screen",
            Stage::CoreFind => "core_find",
            Stage::Sweep => "sweep",
            Stage::Terminate => "terminate",
            Stage::StackRows => "stack_rows",
            Stage::GraphBuild => "graph_build",
            Stage::ErTest => "er_test",
            Stage::Peel => "peel",
        }
    }

    /// The `pipeline` label value.
    pub fn pipeline(self) -> &'static str {
        match self {
            Stage::Fuse | Stage::Screen | Stage::CoreFind | Stage::Sweep | Stage::Terminate => {
                "aligned"
            }
            Stage::StackRows | Stage::GraphBuild | Stage::ErTest | Stage::Peel => "unaligned",
        }
    }

    /// Canonical gauge key of this stage's last-epoch span —
    /// `epoch_stage_ns{pipeline=…,stage=…}`.
    pub fn gauge_key(self) -> String {
        dcs_obs::metric_key(
            "epoch_stage_ns",
            &[("pipeline", self.pipeline()), ("stage", self.name())],
        )
    }
}

/// Drives pipeline stages over one registry, recording each span into
/// the three conventional metric families (see the module docs).
#[derive(Debug)]
pub struct StageRecorder<'a> {
    registry: &'a MetricsRegistry,
}

impl<'a> StageRecorder<'a> {
    /// A recorder reporting into `registry`.
    pub fn new(registry: &'a MetricsRegistry) -> Self {
        StageRecorder { registry }
    }

    /// Runs `body` as one `stage` span, returning its output and the
    /// recorded nanoseconds (floored at 1).
    pub fn run<T>(&self, stage: Stage, body: impl FnOnce() -> T) -> (T, u64) {
        let t0 = Instant::now();
        let out = body();
        let ns = self.record(stage, t0.elapsed().as_nanos() as u64);
        (out, ns)
    }

    /// Records an externally measured `stage` span of `ns` nanoseconds
    /// (floored at 1 — see the module docs), returning the recorded
    /// value. Used for stages whose bodies are timed inside a lower
    /// layer (the aligned search returns its own
    /// [`SearchTimings`](dcs_aligned::SearchTimings)).
    pub fn record(&self, stage: Stage, ns: u64) -> u64 {
        let ns = ns.max(1);
        let labels = [("pipeline", stage.pipeline()), ("stage", stage.name())];
        self.registry.gauge("epoch_stage_ns", &labels).set(ns);
        self.registry.histogram("stage_ns", &labels).observe(ns);
        self.registry.counter("stage_runs_total", &labels).inc();
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_labels_cover_both_pipelines() {
        for s in Stage::ALIGNED {
            assert_eq!(s.pipeline(), "aligned");
        }
        for s in Stage::UNALIGNED {
            assert_eq!(s.pipeline(), "unaligned");
        }
        let mut names: Vec<&str> = Stage::ALIGNED
            .iter()
            .chain(Stage::UNALIGNED.iter())
            .map(|s| s.name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9, "stage names must be distinct");
    }

    #[test]
    fn recorder_feeds_all_three_families() {
        let reg = MetricsRegistry::new();
        let rec = StageRecorder::new(&reg);
        let (out, ns) = rec.run(Stage::Fuse, || 7);
        assert_eq!(out, 7);
        assert!(ns >= 1);
        let zero_floored = rec.record(Stage::Peel, 0);
        assert_eq!(zero_floored, 1, "zero spans floor to 1 ns");
        let snap = reg.snapshot();
        assert_eq!(snap.gauge(&Stage::Fuse.gauge_key()), Some(ns));
        assert_eq!(
            snap.gauge("epoch_stage_ns{pipeline=unaligned,stage=peel}"),
            Some(1)
        );
        assert_eq!(
            snap.counter("stage_runs_total{pipeline=aligned,stage=fuse}"),
            Some(1)
        );
        let h = snap
            .histogram("stage_ns{pipeline=aligned,stage=fuse}")
            .expect("histogram registered");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, ns);
    }
}
