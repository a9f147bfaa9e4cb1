//! Continuous pipelined epoch runtime: overlaps epoch N's analysis with
//! epoch N+1's collection.
//!
//! The sequential driver (`collect → transport → analyze`, one epoch at
//! a time) leaves the analysis centre idle while the next epoch's chunks
//! trickle in, and leaves the collector idle while the centre crunches.
//! [`EpochPipeline`] decouples the two: callers [`submit`] finished
//! epochs and keep collecting; a dedicated analysis worker drains the
//! queue in submission order and parks each report in the result queue
//! for [`try_recv`]/[`recv`].
//!
//! Scratch moves by *ownership handoff*, not locking: the centre's
//! scratch pool grows one warm [`EpochScratch`] per in-flight epoch
//! (double-buffering at the default bound of 2), and the analysis body
//! never holds a lock — see `AnalysisCenter::take_scratch`.
//!
//! Backpressure is bounded and observable: at most
//! [`PipelineConfig::max_in_flight`] epochs may be queued or analyzing;
//! a [`submit`] beyond that blocks, recording the wait in the
//! `pipeline_stall_ns` histogram of the centre's registry. The
//! `epochs_in_flight` gauge tracks the live count, and
//! `epochs_in_flight_peak` its high-water mark.
//!
//! Determinism: a single worker analyses strictly in submission order
//! through the same two doors as the sequential driver
//! ([`EpochInput::analyze`]), so pipelining changes *when* an epoch is
//! analysed, never its result — reports are byte-identical to the
//! sequential path, and per-epoch stage timings stay per-epoch (they
//! time the analysis body, which never overlaps another analysis).
//!
//! [`submit`]: EpochPipeline::submit
//! [`try_recv`]: EpochPipeline::try_recv
//! [`recv`]: EpochPipeline::recv
//! [`EpochScratch`]: crate::center::AnalysisCenter

use crate::center::AnalysisCenter;
use crate::ingest::IngestError;
use crate::report::EpochReport;
use crate::session::CollectedEpoch;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning of the pipelined runtime.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct PipelineConfig {
    /// Upper bound on epochs queued or analyzing at once. `2` is classic
    /// double-buffering: analysis of epoch N overlaps collection and
    /// submission of epoch N+1. Clamped to at least 1.
    pub max_in_flight: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { max_in_flight: 2 }
    }
}

/// One epoch's worth of input: a [`CollectedEpoch`], tagged with what its
/// frames are.
#[derive(Debug)]
pub enum EpochInput {
    /// The frames are DCSR leaf bundles
    /// (`AnalysisCenter::analyze_epoch_collected`).
    Collected(CollectedEpoch),
    /// The frames are DCSG aggregate bundles from a regional aggregation
    /// tier (`AnalysisCenter::analyze_epoch_aggregated_collected`).
    AggregatedCollected(CollectedEpoch),
    /// Test-only: panics inside the analysis body, exercising the
    /// worker's panic containment (the public ingest paths validate
    /// malformed batches into typed exclusions before anything can
    /// panic).
    #[cfg(test)]
    #[doc(hidden)]
    PanicForTest,
}

impl EpochInput {
    /// Analyses the epoch inline through the door its variant names — what
    /// the pipeline's worker does with it, for callers without a pipeline.
    pub fn analyze(&self, center: &AnalysisCenter) -> Result<EpochReport, IngestError> {
        match self {
            EpochInput::Collected(epoch) => center.analyze_epoch_collected(epoch),
            EpochInput::AggregatedCollected(epoch) => {
                center.analyze_epoch_aggregated_collected(epoch)
            }
            #[cfg(test)]
            EpochInput::PanicForTest => panic!("injected pipeline panic"),
        }
    }
}

/// Why a submitted epoch produced no report.
#[derive(Debug)]
pub enum PipelineError {
    /// The batch failed validation or quorum (the sequential paths'
    /// [`IngestError`], verbatim).
    Ingest(IngestError),
    /// The analysis body panicked; the epoch's scratch was dropped and
    /// the worker kept running. Carries the panic payload when it was a
    /// string.
    Panicked(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Ingest(e) => write!(f, "ingest: {e}"),
            PipelineError::Panicked(msg) => write!(f, "analysis panicked: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A completed submission: the sequence number handed out by
/// [`EpochPipeline::submit`] plus the epoch's outcome.
pub type PipelineResult = (u64, Result<EpochReport, PipelineError>);

#[derive(Debug)]
struct State {
    /// Epochs awaiting analysis, in submission order.
    queue: VecDeque<(u64, EpochInput)>,
    /// Finished epochs awaiting retrieval, in submission order (the
    /// single worker preserves FIFO).
    results: VecDeque<PipelineResult>,
    /// Queued + analyzing. Decremented when analysis *completes*, not
    /// when the result is retrieved — retrieval-gated admission would
    /// deadlock a submit-only loop against a full pipeline.
    in_flight: usize,
    /// High-water mark of `in_flight`.
    peak_in_flight: usize,
    /// Worker gate: while set, queued epochs are not started (used to
    /// hold epochs in flight deterministically; analysis already underway
    /// is unaffected).
    paused: bool,
    /// Set once by [`EpochPipeline::drop`]; the worker drains the queue
    /// and exits.
    shutdown: bool,
    next_seq: u64,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Wakes the worker: new work, unpause, shutdown.
    work: Condvar,
    /// Wakes submitters (room freed) and receivers (result ready).
    room: Condvar,
    max_in_flight: usize,
}

/// The continuously running epoch pipeline — owns an [`AnalysisCenter`]
/// and a dedicated analysis worker thread.
#[derive(Debug)]
pub struct EpochPipeline {
    center: Arc<AnalysisCenter>,
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl EpochPipeline {
    /// Spawns the analysis worker around `center`.
    pub fn new(center: AnalysisCenter, cfg: PipelineConfig) -> Self {
        let center = Arc::new(center);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                results: VecDeque::new(),
                in_flight: 0,
                peak_in_flight: 0,
                paused: false,
                shutdown: false,
                next_seq: 0,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            max_in_flight: cfg.max_in_flight.max(1),
        });
        let worker = {
            let center = Arc::clone(&center);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dcs-epoch-pipeline".into())
                .spawn(move || worker_loop(&center, &shared))
                .expect("spawn pipeline worker")
        };
        EpochPipeline {
            center,
            shared,
            worker: Some(worker),
        }
    }

    /// The analysis centre driving this pipeline (metrics, config).
    pub fn center(&self) -> &AnalysisCenter {
        &self.center
    }

    /// Submits one epoch for analysis, returning its sequence number.
    /// Results come back in submission order through
    /// [`Self::try_recv`]/[`Self::recv`].
    ///
    /// Blocks while [`PipelineConfig::max_in_flight`] epochs are already
    /// in flight; the wait (if any) is recorded in the centre's
    /// `pipeline_stall_ns` histogram.
    pub fn submit(&self, input: EpochInput) -> u64 {
        let mut st = lock(&self.shared.state);
        if st.in_flight >= self.shared.max_in_flight {
            let t0 = Instant::now();
            while st.in_flight >= self.shared.max_in_flight {
                st = self
                    .shared
                    .room
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            self.center
                .metrics_registry()
                .histogram("pipeline_stall_ns", &[])
                .observe((t0.elapsed().as_nanos() as u64).max(1));
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue.push_back((seq, input));
        st.in_flight += 1;
        self.publish_in_flight(&mut st);
        drop(st);
        self.shared.work.notify_one();
        seq
    }

    /// Pops the next finished epoch, if one is ready. Never blocks.
    pub fn try_recv(&self) -> Option<PipelineResult> {
        lock(&self.shared.state).results.pop_front()
    }

    /// Waits for the next finished epoch. Returns `None` once no epoch
    /// is in flight and no result is queued — the pipeline is idle.
    pub fn recv(&self) -> Option<PipelineResult> {
        let mut st = lock(&self.shared.state);
        loop {
            if let Some(r) = st.results.pop_front() {
                return Some(r);
            }
            if st.in_flight == 0 {
                return None;
            }
            st = self
                .shared
                .room
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Blocks until every submitted epoch has finished, returning their
    /// results in submission order.
    pub fn drain(&self) -> Vec<PipelineResult> {
        let mut out = Vec::new();
        while let Some(r) = self.recv() {
            out.push(r);
        }
        out
    }

    /// Holds the worker before its *next* epoch (analysis already
    /// underway completes). Submissions still enqueue — and still count
    /// against, and block on, the in-flight bound — so a paused pipeline
    /// deterministically accumulates in-flight epochs; see the transport
    /// soak's pipelined warm-up.
    pub fn pause(&self) {
        lock(&self.shared.state).paused = true;
    }

    /// Releases a [`Self::pause`], waking the worker.
    pub fn resume(&self) {
        lock(&self.shared.state).paused = false;
        self.shared.work.notify_one();
    }

    /// Epochs currently queued or analyzing.
    pub fn in_flight(&self) -> usize {
        lock(&self.shared.state).in_flight
    }

    fn publish_in_flight(&self, st: &mut State) {
        publish_in_flight(&self.center, st);
    }
}

impl Drop for EpochPipeline {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            // A paused pipeline must still wind down.
            st.paused = false;
        }
        self.shared.work.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Locks `m`, bypassing poison: every critical section in this module is
/// a plain queue/counter update that cannot be left half-done by the
/// panics we guard against (which happen *outside* the lock, inside
/// `catch_unwind`).
fn lock(m: &Mutex<State>) -> std::sync::MutexGuard<'_, State> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn publish_in_flight(center: &AnalysisCenter, st: &mut State) {
    st.peak_in_flight = st.peak_in_flight.max(st.in_flight);
    let reg = center.metrics_registry();
    reg.gauge("epochs_in_flight", &[]).set(st.in_flight as u64);
    reg.gauge("epochs_in_flight_peak", &[])
        .set(st.peak_in_flight as u64);
}

fn worker_loop(center: &AnalysisCenter, shared: &Shared) {
    loop {
        let (seq, input) = {
            let mut st = lock(&shared.state);
            loop {
                if !st.paused {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    if st.shutdown {
                        return;
                    }
                }
                st = shared
                    .work
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Analysis runs without any pipeline lock held; a panic drops the
        // checked-out scratch and surfaces as a typed per-epoch error.
        let outcome = catch_unwind(AssertUnwindSafe(|| input.analyze(center)))
            .map_err(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                PipelineError::Panicked(msg)
            })
            .and_then(|r| r.map_err(PipelineError::Ingest));
        let mut st = lock(&shared.state);
        st.results.push_back((seq, outcome));
        st.in_flight -= 1;
        publish_in_flight(center, &mut st);
        center
            .metrics_registry()
            .counter("pipeline_epochs_total", &[])
            .inc();
        drop(st);
        shared.room.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateBundle;
    use crate::center::AnalysisConfig;
    use crate::monitor::{MonitorConfig, MonitoringPoint};
    use dcs_traffic::{gen, BackgroundConfig, SizeMix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One epoch of `routers` clean leaf bundles, as bare frames.
    fn make_epoch(seed: u64, routers: usize) -> CollectedEpoch {
        let mut r = StdRng::seed_from_u64(seed);
        let mcfg = MonitorConfig::small(7, 1 << 12, 4);
        let bg = BackgroundConfig {
            packets: 250,
            flows: 60,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        };
        let digests: Vec<_> = (0..routers)
            .map(|id| {
                let traffic = gen::generate_epoch(&mut r, &bg);
                let mut mp = MonitoringPoint::new(id, &mcfg);
                mp.observe_all(&traffic);
                mp.finish_epoch()
            })
            .collect();
        CollectedEpoch::from_digests(&digests)
    }

    /// The same leaves behind one regional aggregator, as a bare bundle.
    fn aggregated(epoch: &CollectedEpoch) -> CollectedEpoch {
        let children = epoch
            .frames
            .iter()
            .map(|(i, f)| (*i as u64, f.clone()))
            .collect();
        let bundle = AggregateBundle::assemble(900, 0, 1, children, Vec::new());
        CollectedEpoch::from_frames([bundle.encode_wire()])
    }

    fn center() -> AnalysisCenter {
        AnalysisCenter::new(AnalysisConfig::for_groups(16))
    }

    /// Both input variants round-trip: the pipeline's reports match the
    /// door each variant names, in submission order.
    #[test]
    fn pipelined_reports_match_the_sequential_path() {
        let reference = center();
        let mut expected: Vec<EpochReport> = Vec::new();
        let pipe = EpochPipeline::new(center(), PipelineConfig::default());
        for e in 0..3u64 {
            let flat = make_epoch(60 + e, 4);
            let tiered = aggregated(&flat);
            expected.push(reference.analyze_epoch_collected(&flat).unwrap());
            expected.push(
                reference
                    .analyze_epoch_aggregated_collected(&tiered)
                    .unwrap(),
            );
            pipe.submit(EpochInput::Collected(flat));
            pipe.submit(EpochInput::AggregatedCollected(tiered));
        }
        let results = pipe.drain();
        assert_eq!(results.len(), 6);
        for ((seq, got), (e, want)) in results.into_iter().zip(expected.iter().enumerate()) {
            assert_eq!(seq, e as u64, "results must come back in submission order");
            let got = got.expect("clean epoch");
            assert_eq!(got.aligned.found, want.aligned.found);
            assert_eq!(
                got.aligned.signature_indices,
                want.aligned.signature_indices
            );
            assert_eq!(got.unaligned.alarm, want.unaligned.alarm);
            assert_eq!(
                got.unaligned.suspected_routers,
                want.unaligned.suspected_routers
            );
            assert_eq!(got.ingest, want.ingest);
        }
    }

    #[test]
    fn paused_pipeline_admits_the_in_flight_bound_and_records_backpressure() {
        let pipe = EpochPipeline::new(center(), PipelineConfig { max_in_flight: 2 });
        pipe.pause();
        pipe.submit(EpochInput::Collected(make_epoch(70, 4)));
        pipe.submit(EpochInput::Collected(make_epoch(71, 4)));
        assert_eq!(pipe.in_flight(), 2, "both epochs must be admitted");

        // A third submission from another thread must stall until the
        // worker resumes and frees a slot.
        std::thread::scope(|scope| {
            let submitter = scope.spawn(|| {
                pipe.submit(EpochInput::Collected(make_epoch(72, 4)));
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(
                !submitter.is_finished(),
                "third submit must block at the bound"
            );
            pipe.resume();
            submitter.join().expect("submitter survives");
        });
        let results = pipe.drain();
        assert_eq!(results.len(), 3);

        let snap = pipe.center().metrics();
        assert_eq!(snap.gauge("epochs_in_flight"), Some(0));
        assert_eq!(snap.gauge("epochs_in_flight_peak"), Some(2));
        assert_eq!(snap.counter("pipeline_epochs_total"), Some(3));
        let stall = snap.histogram("pipeline_stall_ns").expect("stall recorded");
        assert!(stall.count >= 1, "blocked submit must record a stall");
    }

    #[test]
    fn ingest_errors_come_back_as_typed_results() {
        let pipe = EpochPipeline::new(center(), PipelineConfig::default());
        pipe.submit(EpochInput::Collected(CollectedEpoch::from_frames([])));
        let (seq, outcome) = pipe.recv().expect("one result");
        assert_eq!(seq, 0);
        match outcome {
            Err(PipelineError::Ingest(IngestError::NoDigests)) => {}
            other => panic!("expected NoDigests, got {other:?}"),
        }
        assert!(pipe.recv().is_none(), "idle pipeline yields None");
    }

    #[test]
    fn panicked_epoch_is_contained_and_the_worker_keeps_going() {
        let pipe = EpochPipeline::new(center(), PipelineConfig::default());
        pipe.submit(EpochInput::PanicForTest);
        pipe.submit(EpochInput::Collected(make_epoch(74, 4)));
        let results = pipe.drain();
        assert_eq!(results.len(), 2);
        match &results[0].1 {
            Err(PipelineError::Panicked(msg)) => {
                assert!(msg.contains("injected"), "payload carried: {msg}");
            }
            other => panic!("first epoch must surface the panic: {other:?}"),
        }
        assert!(results[1].1.is_ok(), "worker must survive the panic");
    }
}
