//! The central analysis module: fuses digests, runs both detection
//! pipelines, emits reports.

use crate::ingest::{self, Exclusion, IngestError, IngestReport, RouterFault};
use crate::monitor::{RouterDigest, RouterDigestView};
use crate::report::{AlignedReport, EpochReport, TransportStats, UnalignedReport};
use crate::session::CollectedEpoch;
use crate::stages::{Stage, StageRecorder};
use dcs_aligned::{refined_detect_cached, SearchConfig, SearchScratch};
use dcs_bitmap::{BitmapView, RowMatrix};
use dcs_obs::{MetricsRegistry, MetricsSnapshot};
use dcs_parallel::ComputeBudget;
use dcs_unaligned::{
    build_group_graph_parallel, er_test, find_pattern, CoreFindConfig, ErTestConfig, GroupLayout,
    IncrementalConfig, IncrementalCorrelator, LambdaStore,
};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Configuration of the analysis centre.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AnalysisConfig {
    /// Aligned-case greedy search settings.
    pub search: SearchConfig,
    /// Edge probability of the *statistical-test* graph (must stay below
    /// the 1/n phase transition; the paper uses 0.65/n).
    pub test_p1: f64,
    /// Edge probability of the *detection* graph (deliberately above 1/n;
    /// the paper uses ~8/n).
    pub detect_p1: f64,
    /// Largest-component alarm threshold; `None` derives it from
    /// [`ErTestConfig::scaled`].
    pub component_threshold: Option<usize>,
    /// Core-finding settings (β and d).
    pub corefind: CoreFindConfig,
    /// Minimum number of validated digest bundles required to analyse an
    /// epoch (the graceful-degradation floor): with fewer survivors,
    /// [`AnalysisCenter::analyze_epoch`] returns
    /// [`IngestError::QuorumTooSmall`] instead of running the pipelines
    /// on a sliver of the deployment. 1 = run on whatever survives.
    pub min_quorum: usize,
    /// Unaligned test-graph engine settings: the graph is maintained
    /// incrementally across epochs (delta re-test of changed groups
    /// only) and audited against a full all-pairs rebuild at this
    /// cadence. The detection graph raised on an alarm always uses the
    /// all-pairs build ([`dcs_unaligned::build_group_graph_parallel`]).
    pub ugraph: IncrementalConfig,
}

fn default_min_quorum() -> usize {
    1
}

impl AnalysisConfig {
    /// A configuration tuned for a deployment with `n_groups` total
    /// flow-split groups across all routers.
    ///
    /// # Panics
    /// Panics if `n_groups < 2`.
    pub fn for_groups(n_groups: usize) -> Self {
        assert!(n_groups >= 2, "need at least two groups");
        let n = n_groups as f64;
        AnalysisConfig {
            search: SearchConfig::default(),
            test_p1: 0.65 / n,
            detect_p1: 8.0 / n,
            component_threshold: None,
            corefind: CoreFindConfig::default(),
            min_quorum: default_min_quorum(),
            ugraph: IncrementalConfig::default(),
        }
    }

    /// Sets the minimum surviving-bundle count required to analyse.
    pub fn with_min_quorum(mut self, min_quorum: usize) -> Self {
        self.min_quorum = min_quorum;
        self
    }
}

/// Reusable per-epoch buffers, owned by the centre and recycled across
/// epochs: after the first epoch of a given deployment shape, counting
/// and stacking an epoch allocates nothing — digests are read where they
/// lie in the wire frames, and only what is derived from them lands in
/// these buffers.
#[derive(Debug)]
struct EpochScratch {
    /// Aligned-search scratch (column-count planes, screen order, work
    /// matrix, fan-out buffers).
    search: SearchScratch,
    /// The vertically stacked unaligned arrays.
    urows: RowMatrix,
    /// Owner router of each global flow-split group.
    group_owner: Vec<usize>,
}

impl EpochScratch {
    fn new() -> Self {
        EpochScratch {
            search: SearchScratch::new(),
            urows: RowMatrix::new(0),
            group_owner: Vec::new(),
        }
    }
}

/// The analysis centre.
#[derive(Debug)]
pub struct AnalysisCenter {
    cfg: AnalysisConfig,
    /// Pool of reusable epoch scratches. Analysis *checks a scratch out*
    /// (taking ownership) and returns it when the epoch completes, so the
    /// lock is held only for the pop/push — never across an analysis —
    /// and a panicking epoch simply drops its scratch instead of
    /// poisoning a lock: the next epoch pays one warm-up regrowth and the
    /// centre keeps serving. Callers that analyse epochs concurrently
    /// (the entry points take `&self`) grow the pool to one warm scratch
    /// per epoch in flight.
    scratch: Mutex<Vec<EpochScratch>>,
    /// Pool of incremental test-graph correlators, checked out per epoch
    /// like the scratches. Kept separate from [`EpochScratch`]: scratch
    /// contents are per-epoch throwaway, correlator state must persist
    /// *across* epochs to be worth anything. One epoch at a time, one
    /// correlator sees every epoch in order; if epochs run concurrently
    /// each checkout still produces a correct (merely colder) graph,
    /// because a correlator re-tests exactly what differs from the last
    /// epoch *it* saw.
    correlators: Mutex<Vec<IncrementalCorrelator>>,
    /// The Λ/Λ′ threshold tables, kept across epochs (a quantile costs
    /// about a thousand of the popcounts it gates) and shared with every
    /// in-flight epoch; replaced only when the array width, the arrays
    /// per group or an edge probability changes.
    lambda: LambdaStore,
    metrics: MetricsRegistry,
}

impl AnalysisCenter {
    /// Creates the centre.
    pub fn new(cfg: AnalysisConfig) -> Self {
        let correlator = IncrementalCorrelator::new(cfg.ugraph);
        AnalysisCenter {
            cfg,
            scratch: Mutex::new(vec![EpochScratch::new()]),
            correlators: Mutex::new(vec![correlator]),
            lambda: LambdaStore::default(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// A deterministic snapshot of every metric the centre (and the
    /// layers below it) has reported: per-stage timings of both
    /// pipelines, ingest and transport accounting, kernel dispatch — see
    /// [`crate::stages`] for the naming conventions.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The live registry the centre reports into (to share with
    /// co-located layers or to take delta-based rate views).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Checks a warm scratch out of the pool (or allocates a cold one if
    /// the pool is empty — first use, every scratch currently in flight,
    /// or a previous epoch panicked and dropped its checkout). The pool
    /// lock guards only the `Vec` pop, which cannot panic mid-update, so
    /// a [`PoisonError`] here can safely be bypassed.
    fn take_scratch(&self) -> EpochScratch {
        self.scratch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_else(EpochScratch::new)
    }

    /// Returns a scratch to the pool after a completed epoch. Panicking
    /// epochs never get here — their scratch (whose contents are suspect)
    /// unwinds out of existence instead of being recycled.
    fn return_scratch(&self, scratch: EpochScratch) {
        self.scratch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(scratch);
    }

    /// Checks an incremental correlator out of the pool (a cold one if
    /// every warm correlator is in flight — correct, just a full build).
    fn take_correlator(&self) -> IncrementalCorrelator {
        self.correlators
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| IncrementalCorrelator::new(self.cfg.ugraph))
    }

    /// Returns a correlator (with its warm cross-epoch state) to the
    /// pool. Like scratches, a panicking epoch drops its checkout.
    fn return_correlator(&self, corr: IncrementalCorrelator) {
        self.correlators
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(corr);
    }

    /// Runs both pipelines over one epoch of in-process digests: the
    /// convenience door for callers that hold [`RouterDigest`]s rather
    /// than frames. The digests are encoded to the wire
    /// ([`CollectedEpoch::from_digests`]) and take the same path as
    /// everything a transport delivered, so a hand-built digest the wire
    /// parser rejects is a typed [`RouterFault::Wire`] exclusion.
    pub fn analyze_epoch(&self, digests: &[RouterDigest]) -> Result<EpochReport, IngestError> {
        self.analyze_epoch_collected(&CollectedEpoch::from_digests(digests))
    }

    /// Runs both pipelines over one epoch of DCSR leaf frames, as
    /// finalized by an
    /// [`EpochCollector`](crate::session::EpochCollector) or built by
    /// [`CollectedEpoch::from_frames`]. Each frame is validated in place
    /// and viewed through [`RouterDigestView`]; accepted digests are
    /// counted and stacked into the centre's reusable scratch straight
    /// from the frame bytes, with no intermediate owned digest.
    ///
    /// The epoch's transport exclusions (timed-out, checksum-dead or
    /// incomplete sessions) enter the ingest accounting ahead of the
    /// frames that fail to parse ([`RouterFault::Wire`]) and the
    /// shape/consensus validation (see [`crate::ingest`]); its delivery
    /// stats are stamped onto the report. Quorum is judged over *all*
    /// exclusions, so a transport-degraded epoch degrades exactly like a
    /// content-degraded one, and an empty epoch or one below the
    /// configured [`min_quorum`](AnalysisConfig::min_quorum) is a typed
    /// [`IngestError`], never a panic.
    pub fn analyze_epoch_collected(
        &self,
        epoch: &CollectedEpoch,
    ) -> Result<EpochReport, IngestError> {
        let t0 = Instant::now();
        self.analyze_frames(
            epoch.frames.iter().map(|(i, b)| (*i, b.as_slice())),
            epoch.exclusions.clone(),
            epoch.submitted,
            &epoch.stats,
            t0,
        )
    }

    /// Runs both pipelines over an epoch delivered through an
    /// aggregation tier (see [`crate::aggregate`]): each frame of `epoch`
    /// is one encoded
    /// [`AggregateBundle`](crate::aggregate::AggregateBundle) from a
    /// regional aggregator. The embedded child frames — the same DCSR
    /// bytes a flat deployment would have shipped — are parsed and
    /// validated globally, so the detection output is byte-identical to
    /// [`Self::analyze_epoch_collected`] over the union of the delivered
    /// child frames.
    ///
    /// Cross-level accounting: every child the aggregators excluded
    /// surfaces in the report's ingest section wrapped in
    /// [`RouterFault::AtLevel`] (keeping its original fault kind and the
    /// level it was lost at); a bundle that fails to decode counts as one
    /// excluded submission with an `AtLevel`-wrapped wire fault; and an
    /// aggregator the upstream hop lost becomes a single excluded
    /// submission wrapped in `AtLevel` with the aggregator's id (its whole
    /// subtree is unreachable, but its leaf count is unknown here —
    /// quorum degrades by at least one). `submitted` — and therefore
    /// [`min_quorum`](AnalysisConfig::min_quorum) — counts reachable
    /// *leaves*, never bundles.
    pub fn analyze_epoch_aggregated_collected(
        &self,
        epoch: &CollectedEpoch,
    ) -> Result<EpochReport, IngestError> {
        use crate::aggregate::{level_label, AggregateBundle};
        let t0 = Instant::now();
        let at_level_1 = |aggregator_id: Option<u64>, fault: RouterFault| RouterFault::AtLevel {
            level: 1,
            aggregator_id,
            fault: Box::new(fault),
        };
        let mut decoded: Vec<AggregateBundle> = Vec::new();
        let mut rejected: Vec<RouterFault> = Vec::new();
        let mut received_bytes = 0u64;
        for (_, bytes) in &epoch.frames {
            received_bytes += bytes.len() as u64;
            match AggregateBundle::decode_wire(bytes) {
                Ok((bundle, _)) => decoded.push(bundle),
                Err(e) => rejected.push(at_level_1(None, RouterFault::Wire(e.to_string()))),
            }
        }

        // Flatten: every embedded child frame joins one global batch
        // (per-bundle order preserved), every below-centre exclusion is
        // wrapped with the level it was recorded at. Validation — shape,
        // duplicates, epoch consensus, quorum — then runs ONCE over the
        // global batch, exactly as flat ingest would.
        let mut leaves: Vec<(usize, &[u8])> = Vec::new();
        let mut excluded: Vec<Exclusion> = Vec::new();
        let mut index = 0usize;
        for bundle in &decoded {
            for frame in &bundle.frames {
                leaves.push((index, frame));
                index += 1;
            }
            for excl in &bundle.exclusions {
                excluded.push(Exclusion {
                    index,
                    router_id: Some(excl.router_id as usize),
                    fault: RouterFault::AtLevel {
                        level: bundle.level,
                        aggregator_id: Some(bundle.aggregator_id),
                        fault: Box::new(excl.fault.clone()),
                    },
                });
                index += 1;
            }
        }
        let reachable_leaves = index;
        let rejected_bundles = rejected.len() as u64;
        let lost = epoch.exclusions.iter().map(|e| {
            let agg = e.router_id.map(|r| r as u64);
            (e.router_id, at_level_1(agg, e.fault.clone()))
        });
        for (router_id, fault) in rejected.into_iter().map(|f| (None, f)).chain(lost) {
            excluded.push(Exclusion {
                index,
                router_id,
                fault,
            });
            index += 1;
        }

        self.metrics
            .counter("aggregate_bundles_total", &[])
            .add(decoded.len() as u64);
        self.metrics
            .counter("aggregate_bundles_rejected_total", &[])
            .add(rejected_bundles);
        self.metrics
            .counter("aggregate_received_bytes_total", &[])
            .add(received_bytes);
        if !decoded.is_empty() {
            self.metrics
                .gauge("aggregate_children_per_bundle", &[("level", "0")])
                .set((reachable_leaves / decoded.len()) as u64);
        }
        self.metrics
            .gauge("aggregate_fuse_ns", &[("level", level_label(0))])
            .set((t0.elapsed().as_nanos() as u64).max(1));

        self.analyze_frames(leaves.into_iter(), excluded, index, &epoch.stats, t0)
    }

    /// The one way in: parses `(batch index, DCSR frame)` pairs into
    /// views, validates them against each other on top of the exclusions
    /// recorded below the centre, and runs both pipelines on the quorum.
    /// `submitted` counts every leaf that was expected, `stats` is the
    /// last hop's delivery accounting, `t0` the start of the public call.
    fn analyze_frames<'a>(
        &self,
        frames: impl Iterator<Item = (usize, &'a [u8])>,
        mut excluded: Vec<Exclusion>,
        submitted: usize,
        stats: &TransportStats,
        t0: Instant,
    ) -> Result<EpochReport, IngestError> {
        let mut views: Vec<(usize, RouterDigestView<'a>)> = Vec::new();
        for (index, frame) in frames {
            match RouterDigestView::parse(frame) {
                Ok((view, _)) => views.push((index, view)),
                Err(e) => excluded.push(Exclusion {
                    index,
                    router_id: None,
                    fault: RouterFault::Wire(e.to_string()),
                }),
            }
        }
        let (accepted, report) =
            ingest::validate_batch(submitted, views, excluded, self.cfg.min_quorum)?;
        let mut out = self.analyze_validated(&accepted, report, t0);
        out.transport = *stats;
        self.record_transport(stats);
        Ok(out)
    }

    /// Both pipelines over an already-validated batch of zero-copy views,
    /// through the centre's reusable epoch scratch.
    ///
    /// This is the staged pipeline driver: every aligned stage
    /// ([`Stage::ALIGNED`]) and unaligned stage ([`Stage::UNALIGNED`])
    /// runs as one recorded span of the centre's metrics registry —
    /// instrumentation observes the pipelines, it never changes their
    /// results.
    fn analyze_validated(
        &self,
        digests: &[RouterDigestView<'_>],
        ingest: IngestReport,
        t0: Instant,
    ) -> EpochReport {
        let raw_bytes: u64 = digests.iter().map(|d| d.raw_bytes()).sum();
        let digest_bytes: u64 = digests.iter().map(|d| d.encoded_len() as u64).sum();
        self.record_ingest(&ingest);
        let rec = StageRecorder::new(&self.metrics);
        let mut scratch = self.take_scratch();
        let s = &mut scratch;
        // `threads: 0` asks the OS for the CPU count on every
        // `workers_for`; ask once per epoch. Not once per process: a
        // caller may re-pin its thread between epochs, and a count taken
        // before the pin would spawn workers the pin cannot run.
        let search = SearchConfig {
            compute: self.cfg.search.compute.resolved(),
            ..self.cfg.search.clone()
        };
        let budget = search.compute;
        let threads = budget.effective_threads();

        // Unaligned pipeline, stage 1: stack arrays and map ownership.
        // Validation left only non-empty digests of one array width.
        let k = digests.first().map_or(1, |d| d.unaligned.arrays_per_group);
        rec.run(Stage::StackRows, || {
            let ncols = digests.first().map_or(0, |d| d.unaligned.array(0).len());
            let flat: Vec<BitmapView<'_>> = digests
                .iter()
                .flat_map(|d| (0..d.unaligned.array_count()).map(move |i| d.unaligned.array(i)))
                .collect();
            s.urows.fill_rows_sharded(ncols, &flat, threads);
            s.group_owner.clear();
            for d in digests {
                s.group_owner
                    .extend(std::iter::repeat_n(d.router_id, d.unaligned.groups()));
            }
        });

        // The aligned stages run on the router bitmaps where they lie in
        // the frames and are timed inside the search layer; record its
        // per-stage split under the stage names.
        let rows: Vec<BitmapView<'_>> = digests.iter().map(|d| d.aligned.bitmap).collect();
        let (det, search_t, work) = refined_detect_cached(&rows, &search, &mut s.search);
        // Scan-work accounting. The scanned/pruned split depends on the
        // worker partition, so those land in last-epoch gauges; their sum
        // covers the same candidate set under any partition and is safe
        // to count.
        self.metrics
            .counter("search_candidates_total", &[])
            .add(work.candidates());
        let g = |name: &str, v: u64| self.metrics.gauge(name, &[]).set(v);
        g("search_pairs_scanned", work.pairs_scanned);
        g("search_pairs_pruned", work.pairs_pruned);
        rec.record(Stage::Fuse, search_t.count_ns);
        rec.record(Stage::Screen, search_t.screen_ns);
        rec.record(Stage::CoreFind, search_t.core_ns);
        rec.record(Stage::Sweep, search_t.expand_ns);
        rec.record(Stage::Terminate, search_t.verdict_ns);
        let aligned = AlignedReport {
            found: det.found,
            routers: det
                .rows
                .iter()
                .map(|&r| digests[r as usize].router_id)
                .collect(),
            content_packets: det.cols.len(),
            signature_indices: det.cols,
        };
        let unaligned = self.unaligned_from_rows(&s.urows, &s.group_owner, k, budget, &rec);

        self.return_scratch(scratch);
        self.record_kernels();
        let total_ns = (t0.elapsed().as_nanos() as u64).max(1);
        self.metrics.gauge("epoch_total_ns", &[]).set(total_ns);
        self.metrics.histogram("epoch_ns", &[]).observe(total_ns);
        self.metrics.counter("epochs_analyzed_total", &[]).inc();

        EpochReport {
            routers: digests.len(),
            raw_bytes,
            digest_bytes,
            aligned,
            unaligned,
            ingest,
            transport: TransportStats::default(),
        }
    }

    /// Feeds one epoch's ingest accounting into the counter families.
    fn record_ingest(&self, ingest: &IngestReport) {
        self.metrics
            .counter("ingest_submitted_total", &[])
            .add(ingest.submitted as u64);
        self.metrics
            .counter("ingest_accepted_total", &[])
            .add(ingest.accepted.len() as u64);
        for e in &ingest.excluded {
            self.metrics
                .counter("ingest_excluded_total", &[("fault", e.fault.kind())])
                .inc();
        }
    }

    /// Feeds one epoch's transport delivery accounting into counters.
    fn record_transport(&self, t: &TransportStats) {
        let add = |name: &str, v: u64| self.metrics.counter(name, &[]).add(v);
        add("transport_chunks_received_total", t.chunks_received);
        add("transport_retransmits_total", t.retransmits);
        add("transport_late_chunks_total", t.late_chunks);
        add("transport_duplicate_chunks_total", t.duplicate_chunks);
        add("transport_corrupt_chunks_total", t.corrupt_chunks);
        add("transport_checkpoint_resumes_total", t.checkpoint_resumes);
    }

    /// Mirrors which popcount kernel the bitmap layer dispatches to into
    /// gauges (`kernel_active{kernel}` ∈ {0, 1}).
    fn record_kernels(&self) {
        use dcs_bitmap::Kernel;
        let active = dcs_bitmap::active_kernel();
        for k in [Kernel::Scalar, Kernel::Blocked, Kernel::Avx2] {
            self.metrics
                .gauge("kernel_active", &[("kernel", k.name())])
                .set(u64::from(k == active));
        }
    }

    /// Capacities of the most recently recycled epoch scratch: stacked
    /// unaligned words, group-owner slots, then the aligned search's
    /// [`SearchScratch::capacities`] (count-plane words first).
    /// Steady-state epochs of one deployment shape must not grow any of
    /// these — the no-allocation invariant the zero-copy ingest path is
    /// built around.
    pub fn scratch_capacities(&self) -> [usize; 6] {
        let s = self.take_scratch();
        let [planes, order, work, fanouts] = s.search.capacities();
        let caps = [
            s.urows.word_capacity(),
            s.group_owner.capacity(),
            planes,
            order,
            work,
            fanouts,
        ];
        self.return_scratch(s);
        caps
    }

    /// Panics the way a pipeline bug would: mid-epoch, holding a scratch
    /// and a correlator checked out of their pools.
    #[cfg(test)]
    fn panic_mid_epoch(&self) {
        let _scratch = self.take_scratch();
        let _correlator = self.take_correlator();
        panic!("injected mid-epoch panic");
    }

    /// ER test + core finding over an already-stacked row matrix, staged
    /// as `graph_build → er_test → peel` through `rec`. `rows` holds
    /// every accepted router's arrays vertically concatenated;
    /// `group_owner[g]` is the router owning global group `g`.
    ///
    /// The test graph is maintained incrementally across epochs and is
    /// bit-identical to the all-pairs oracle. Per-epoch engine
    /// accounting lands in the `pairs_exact_total` /
    /// `graph_full_rebuilds_total` / `graph_audit_runs_total` counters
    /// and the `graph_edges_live` / `graph_groups_changed` gauges; the λ
    /// tables report `lambda_quantiles_computed_total` (cells this epoch
    /// had to compute — zero once the tables are warm) and
    /// `lambda_cells_filled` (cells the current pair holds). All are
    /// registered every epoch, so the keys exist even at zero.
    fn unaligned_from_rows(
        &self,
        rows: &RowMatrix,
        group_owner: &[usize],
        k: usize,
        budget: ComputeBudget,
        rec: &StageRecorder<'_>,
    ) -> UnalignedReport {
        let ncols = rows.ncols();
        let layout = GroupLayout { rows_per_group: k };
        let n_groups = group_owner.len();
        let workers = budget.workers_for(n_groups);
        let er_cfg = match self.cfg.component_threshold {
            Some(t) => ErTestConfig {
                component_threshold: t,
            },
            None => ErTestConfig::scaled(n_groups, self.cfg.test_p1),
        };

        let tables = self
            .lambda
            .for_shape(ncols, k, self.cfg.test_p1, self.cfg.detect_p1);

        // Statistical-test graph through the incremental engine.
        let ((test_graph, gstats), _) = rec.run(Stage::GraphBuild, || {
            let mut corr = self.take_correlator();
            let out = corr.epoch(rows, layout, &tables.test, workers);
            self.return_correlator(corr);
            out
        });
        let c = |name: &str, v: u64| self.metrics.counter(name, &[]).add(v);
        c("pairs_exact_total", gstats.pairs_exact);
        c("graph_full_rebuilds_total", u64::from(gstats.full_rebuild));
        c("graph_audit_runs_total", u64::from(gstats.audited));
        let g = |name: &str, v: u64| self.metrics.gauge(name, &[]).set(v);
        g("graph_edges_live", gstats.edges_live as u64);
        g("graph_groups_changed", gstats.groups_changed as u64);
        let (test, _) = rec.run(Stage::ErTest, || er_test(&test_graph, er_cfg));

        // Peel always runs as a recorded span — a quiet epoch records a
        // trivial one — so the stage is present in every snapshot.
        let ((suspected_groups, suspected_routers), _) = rec.run(Stage::Peel, || {
            if test.alarm {
                // Detection graph with the laxer λ′ table — built all-pairs:
                // alarms are rare, and this keeps localisation independent
                // of the incremental engine's cross-epoch state.
                let (det_graph, _) =
                    build_group_graph_parallel(rows, layout, &tables.detect, workers);
                let pattern = find_pattern(&det_graph, self.cfg.corefind);
                let groups: Vec<usize> = pattern.vertices().iter().map(|&g| g as usize).collect();
                let mut routers: Vec<usize> = groups.iter().map(|&g| group_owner[g]).collect();
                routers.sort_unstable();
                routers.dedup();
                (groups, routers)
            } else {
                (Vec::new(), Vec::new())
            }
        });

        c(
            "lambda_quantiles_computed_total",
            tables.test.take_new_fills() + tables.detect.take_new_fills(),
        );
        g(
            "lambda_cells_filled",
            (tables.test.memo_len() + tables.detect.memo_len()) as u64,
        );

        UnalignedReport {
            alarm: test.alarm,
            largest_component: test.largest_component,
            component_threshold: er_cfg.component_threshold,
            suspected_routers,
            suspected_groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{MonitorConfig, MonitoringPoint};
    use dcs_traffic::{gen, BackgroundConfig, ContentObject, Planting, SizeMix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One small epoch of digests: `routers` routers, the first `infected`
    /// of which carry a common content of `g` packets.
    fn planted_digests(
        seed: u64,
        routers: usize,
        infected: usize,
        g: usize,
        unaligned_plant: bool,
    ) -> Vec<RouterDigest> {
        let mut r = StdRng::seed_from_u64(seed);
        let mcfg = MonitorConfig::small(7, 1 << 14, 4);
        let obj = ContentObject::random_with_packets(&mut r, g, 536);
        let plant = if unaligned_plant {
            Planting::unaligned(obj, 536)
        } else {
            Planting::aligned(obj, 536)
        };
        let bg = BackgroundConfig {
            packets: 800,
            flows: 200,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        };
        let mut digests = Vec::new();
        for id in 0..routers {
            let mut traffic = gen::generate_epoch(&mut r, &bg);
            if id < infected {
                plant.plant_into(&mut r, &mut traffic);
            }
            let mut mp = MonitoringPoint::new(id, &mcfg);
            mp.observe_all(&traffic);
            digests.push(mp.finish_epoch());
        }
        digests
    }

    /// A centre for `routers` routers of [`planted_digests`].
    fn search_center(routers: usize) -> AnalysisCenter {
        let mut acfg = AnalysisConfig::for_groups(routers * 4);
        acfg.search.n_prime = 400;
        acfg.search.hopefuls = 300;
        AnalysisCenter::new(acfg)
    }

    /// Runs a small end-to-end epoch of [`planted_digests`].
    fn run_epoch(
        seed: u64,
        routers: usize,
        infected: usize,
        g: usize,
        unaligned_plant: bool,
    ) -> EpochReport {
        search_center(routers)
            .analyze_epoch(&planted_digests(
                seed,
                routers,
                infected,
                g,
                unaligned_plant,
            ))
            .expect("clean digests form a quorum")
    }

    #[test]
    fn aligned_end_to_end_detects_infected_routers() {
        let report = run_epoch(1, 24, 20, 30, false);
        assert!(report.aligned.found, "aligned pipeline missed the content");
        // The infected routers are 0..20; most must be reported.
        let hits = report.aligned.routers.iter().filter(|&&r| r < 20).count();
        assert!(hits >= 15, "only {hits}/20 infected routers reported");
        let fps = report.aligned.routers.len() - hits;
        assert!(fps <= 2, "{fps} clean routers falsely reported");
        assert!(report.aligned.content_packets >= 10);
    }

    #[test]
    fn clean_epoch_reports_nothing() {
        let report = run_epoch(2, 16, 0, 30, false);
        assert!(!report.aligned.found, "aligned false positive");
        assert!(!report.unaligned.alarm, "unaligned false positive");
        assert!(report.unaligned.suspected_routers.is_empty());
    }

    #[test]
    fn compression_is_substantial() {
        let report = run_epoch(3, 8, 0, 30, false);
        assert!(
            report.compression_ratio() > 5.0,
            "compression {} too small even at toy scale",
            report.compression_ratio()
        );
    }

    #[test]
    fn empty_digests_are_a_typed_error_not_a_panic() {
        let err = AnalysisCenter::new(AnalysisConfig::for_groups(4))
            .analyze_epoch(&[])
            .unwrap_err();
        assert_eq!(err, IngestError::NoDigests);
        assert_eq!(err.to_string(), "no digests to analyse");
    }

    /// A quarter of the routers ship malformed bundles; the pipelines
    /// must still run on the surviving quorum and find the content, with
    /// the exclusions accounted for.
    #[test]
    fn degraded_epoch_still_detects_on_the_quorum() {
        let mut digests = planted_digests(6, 24, 20, 30, false);
        // Fault 6 of 24: wrong aligned width, desync, empty arrays — and
        // a duplicate of router 1 appended on top.
        digests[0].aligned.bitmap = dcs_bitmap::Bitmap::new(1 << 10);
        digests[5].epoch_id = 99;
        digests[10].unaligned.arrays.clear();
        digests[15].unaligned.arrays_per_group = 3;
        digests[20].aligned.bitmap = dcs_bitmap::Bitmap::new(1 << 10);
        let dup = digests[1].clone();
        digests.push(dup);

        let report = search_center(24)
            .analyze_epoch(&digests)
            .expect("19 surviving routers are a quorum");
        assert_eq!(report.ingest.submitted, 25);
        assert_eq!(report.ingest.excluded.len(), 6);
        assert_eq!(report.routers, 19);
        assert!(report.ingest.is_degraded());
        assert!(
            report.aligned.found,
            "aligned pipeline missed the content on the quorum"
        );
        let hits = report
            .aligned
            .routers
            .iter()
            .filter(|&&r| r < 20 && !matches!(r, 0 | 5 | 10 | 15))
            .count();
        assert!(hits >= 12, "only {hits}/16 surviving infected reported");
    }

    #[test]
    fn quorum_floor_is_enforced() {
        let mut digests = clean_digests(5, 4);
        for d in digests.iter_mut().take(3) {
            d.unaligned.arrays.clear();
        }
        let cfg = AnalysisConfig::for_groups(16).with_min_quorum(3);
        let err = AnalysisCenter::new(cfg)
            .analyze_epoch(&digests)
            .unwrap_err();
        match err {
            IngestError::QuorumTooSmall { required, report } => {
                assert_eq!(required, 3);
                assert_eq!(report.accepted.len(), 1);
            }
            other => panic!("expected QuorumTooSmall, got {other:?}"),
        }
    }

    /// One epoch of clean digests from small monitoring points.
    fn clean_digests(seed: u64, routers: usize) -> Vec<RouterDigest> {
        let mut r = StdRng::seed_from_u64(seed);
        let mcfg = MonitorConfig::small(7, 1 << 12, 4);
        let bg = BackgroundConfig {
            packets: 300,
            flows: 80,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        };
        (0..routers)
            .map(|id| {
                let traffic = gen::generate_epoch(&mut r, &bg);
                let mut mp = MonitoringPoint::new(id, &mcfg);
                mp.observe_all(&traffic);
                mp.finish_epoch()
            })
            .collect()
    }

    /// [`clean_digests`] as encoded wire frames.
    fn wire_frames(seed: u64, routers: usize) -> Vec<Vec<u8>> {
        CollectedEpoch::from_digests(&clean_digests(seed, routers))
            .frames
            .into_iter()
            .map(|(_, frame)| frame)
            .collect()
    }

    /// `frames` as routers `first..` behind level-1 aggregator `agg`, as
    /// one encoded bundle.
    fn bundle(
        agg: u64,
        first: u64,
        frames: &[Vec<u8>],
        exclusions: Vec<crate::aggregate::ChildExclusion>,
    ) -> Vec<u8> {
        let children = (first..).zip(frames.iter().cloned()).collect();
        crate::aggregate::AggregateBundle::assemble(agg, 0, 1, children, exclusions).encode_wire()
    }

    /// Analyses bare leaf frames that crossed no transport hop.
    fn analyze_bare(
        center: &AnalysisCenter,
        frames: &[Vec<u8>],
    ) -> Result<EpochReport, IngestError> {
        center.analyze_epoch_collected(&CollectedEpoch::from_frames(frames.iter().cloned()))
    }

    /// `from_digests(d)` is `from_frames(d.map(encode_wire))`: in-process
    /// digests reach the centre as exactly the epoch their frames would.
    #[test]
    fn digests_enter_as_their_wire_frames() {
        let digests = clean_digests(8, 8);
        let frames = digests
            .iter()
            .map(|d| d.encode_wire().expect("clean digest").to_vec());
        let (a, b) = (
            CollectedEpoch::from_digests(&digests),
            CollectedEpoch::from_frames(frames),
        );
        assert_eq!(a.submitted, 8);
        assert_eq!((a.submitted, &a.frames), (b.submitted, &b.frames));
        assert!(a.exclusions.is_empty() && b.exclusions.is_empty());
        assert_eq!((a.stats, a.epoch_id), (b.stats, b.epoch_id));
    }

    /// After warm-up the scratch must hold steady: re-analysing epochs
    /// of the same shape regrows no internal buffer (the zero
    /// per-epoch-allocation invariant of the ingest path).
    #[test]
    fn epoch_scratch_holds_steady_across_epochs() {
        let center = AnalysisCenter::new(AnalysisConfig::for_groups(32));
        analyze_bare(&center, &wire_frames(9, 8)).expect("quorum");
        let warm = center.scratch_capacities();
        assert!(warm[0] > 0, "unaligned rows never materialised");
        assert!(warm[2] > 0, "column-count planes never materialised");
        for epoch in 0..3 {
            let frames = wire_frames(10 + epoch, 8);
            analyze_bare(&center, &frames).expect("quorum");
            assert_eq!(
                center.scratch_capacities(),
                warm,
                "scratch regrew on steady-state epoch {epoch}"
            );
        }
    }

    /// Every stage records a span, and the spans fit inside the epoch.
    #[test]
    fn timings_are_populated() {
        let center = AnalysisCenter::new(AnalysisConfig::for_groups(32));
        analyze_bare(&center, &wire_frames(11, 8)).expect("quorum");
        let snap = center.metrics();
        let total = snap.gauge("epoch_total_ns").expect("epoch_total_ns");
        let stages: u64 = Stage::ALIGNED
            .iter()
            .chain(&Stage::UNALIGNED)
            .map(|s| {
                let ns = snap.gauge(&s.gauge_key()).unwrap_or(0);
                assert!(ns > 0, "stage {} recorded no span", s.name());
                ns
            })
            .sum();
        assert!(
            stages <= total,
            "stages {stages} ns exceed the {total} ns epoch"
        );
    }

    /// The wire ingest path: one truncated frame and one garbage frame
    /// are excluded as wire faults; the rest analyse normally.
    #[test]
    fn wire_ingest_excludes_undecodable_frames() {
        let mut frames = wire_frames(6, 6);
        let cut = frames[2].len() / 2;
        frames[2].truncate(cut);
        frames[4] = vec![0xAB; 40];

        let center = AnalysisCenter::new(AnalysisConfig::for_groups(24));
        let report = analyze_bare(&center, &frames).expect("four surviving frames are a quorum");
        assert_eq!(report.routers, 4);
        assert_eq!(report.ingest.accepted, vec![0, 1, 3, 5]);
        assert_eq!(report.ingest.excluded.len(), 2);
        for e in &report.ingest.excluded {
            assert_eq!(e.router_id, None);
            assert!(matches!(e.fault, RouterFault::Wire(_)), "{:?}", e.fault);
        }
        // Bare frames crossed no transport hop: the transport counters
        // are registered, at zero.
        assert_eq!(report.transport, TransportStats::default());
        assert_eq!(
            center.metrics().counter("transport_chunks_received_total"),
            Some(0)
        );
    }

    /// A hand-built digest whose layout the wire parser rejects — zero
    /// arrays per group, or arrays of mixed widths — is a typed wire
    /// exclusion, and still counts against the quorum.
    #[test]
    fn digests_the_wire_rejects_are_typed_exclusions() {
        let mut digests = clean_digests(14, 4);
        digests[1].unaligned.arrays_per_group = 0;
        digests[3].unaligned.arrays[2] = dcs_bitmap::Bitmap::new(64);

        let report = AnalysisCenter::new(AnalysisConfig::for_groups(16))
            .analyze_epoch(&digests)
            .expect("two survivors are a quorum of one");
        assert_eq!(report.ingest.submitted, 4);
        assert_eq!(report.ingest.accepted, vec![0, 2]);
        let faults: Vec<(usize, &RouterFault)> = report
            .ingest
            .excluded
            .iter()
            .map(|e| (e.index, &e.fault))
            .collect();
        let wire = |msg: &str| RouterFault::Wire(format!("malformed digest frame: {msg}"));
        assert_eq!(
            faults,
            vec![
                (1, &wire("arrays_per_group = 0")),
                (3, &wire("mixed array widths"))
            ]
        );

        let strict = AnalysisCenter::new(AnalysisConfig::for_groups(16).with_min_quorum(3));
        match strict.analyze_epoch(&digests) {
            Err(IngestError::QuorumTooSmall { required, report }) => {
                assert_eq!(required, 3);
                assert_eq!(report.submitted, 4);
                assert_eq!(report.accepted.len(), 2);
            }
            other => panic!("expected QuorumTooSmall, got {other:?}"),
        }
    }

    /// A panic inside a pipeline unwinds with the checked-out scratch and
    /// correlator, dropping them instead of poisoning any lock. The
    /// centre must keep analysing — the next epoch simply checks fresh
    /// ones out of the pools.
    #[test]
    fn panicked_epoch_drops_its_scratch_and_the_centre_keeps_serving() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let center = AnalysisCenter::new(AnalysisConfig::for_groups(8));
        let panicked = catch_unwind(AssertUnwindSafe(|| center.panic_mid_epoch())).is_err();
        assert!(panicked, "the injected panic never fired");

        // The panicking epoch's scratch is gone; every entry point must
        // still work on a freshly pooled scratch. (Two routers × 4
        // groups matches the centre's for_groups(8).)
        let report = center
            .analyze_epoch(&clean_digests(13, 2))
            .expect("centre must keep serving after a panicked epoch");
        assert_eq!(report.routers, 2);
        let _ = center.scratch_capacities();
    }

    /// Chunked transport delivery over a perfect channel must agree
    /// verdict-for-verdict with `from_frames` over the same frames.
    #[test]
    fn collected_and_wire_paths_agree() {
        use crate::session::{CollectorConfig, EpochCollector};
        use crate::transport::chunk_bundle;

        let frames = wire_frames(21, 6);
        let center = AnalysisCenter::new(AnalysisConfig::for_groups(24));
        let via_wire = analyze_bare(&center, &frames).expect("quorum");

        // Transport epoch 1 (the chunk envelopes' id); the bundles' own
        // epoch ids only need to agree among themselves.
        let mut coll = EpochCollector::new(
            1,
            (0..6).map(|r| r as u64),
            CollectorConfig::default(),
            3,
            0,
        );
        for (router, frame) in frames.iter().enumerate() {
            for chunk in chunk_bundle(router as u64, 1, frame, 512) {
                coll.offer(&chunk, 0);
            }
        }
        assert!(coll.ready(0));
        let epoch = coll.finalize(0);
        let via_transport = center.analyze_epoch_collected(&epoch).expect("quorum");

        assert_eq!(via_transport.routers, via_wire.routers);
        assert_eq!(via_transport.ingest, via_wire.ingest);
        assert_eq!(via_transport.aligned.found, via_wire.aligned.found);
        assert_eq!(
            via_transport.aligned.signature_indices,
            via_wire.aligned.signature_indices
        );
        assert_eq!(via_transport.unaligned.alarm, via_wire.unaligned.alarm);
        assert_eq!(
            via_transport.unaligned.largest_component,
            via_wire.unaligned.largest_component
        );
        assert_eq!(
            via_transport.transport.chunks_received,
            epoch.stats.chunks_received
        );
        assert!(via_transport.transport.chunks_received > frames.len() as u64);
        assert_eq!(via_wire.transport, Default::default());
    }

    /// Transport exclusions flow into the ingest accounting and count
    /// against quorum exactly like content exclusions.
    #[test]
    fn transport_exclusions_join_ingest_accounting() {
        use crate::session::{CollectorConfig, EpochCollector, StragglerPolicy};
        use crate::transport::chunk_bundle;

        let frames = wire_frames(22, 6);
        let ccfg = CollectorConfig {
            straggler: StragglerPolicy::Deadline,
            ..Default::default()
        };
        let mut coll = EpochCollector::new(1, (0..6).map(|r| r as u64), ccfg, 3, 0);
        // Router 4 never completes: only its first chunk arrives.
        for (router, frame) in frames.iter().enumerate() {
            let chunks = chunk_bundle(router as u64, 1, frame, 512);
            let keep = if router == 4 { 1 } else { chunks.len() };
            for chunk in &chunks[..keep] {
                coll.offer(chunk, 0);
            }
        }
        let deadline = coll.deadline();
        let epoch = coll.finalize(deadline);
        let center = AnalysisCenter::new(AnalysisConfig::for_groups(24));
        let report = center.analyze_epoch_collected(&epoch).expect("quorum of 5");
        assert_eq!(report.routers, 5);
        assert_eq!(report.ingest.submitted, 6);
        assert_eq!(report.ingest.excluded.len(), 1);
        let e = &report.ingest.excluded[0];
        assert_eq!(e.router_id, Some(4));
        assert!(
            matches!(e.fault, RouterFault::TimedOut { received: 1, .. }),
            "{:?}",
            e.fault
        );
        assert!(report.ingest.is_degraded());

        // With min_quorum 6 the same epoch is a typed error.
        let strict = AnalysisCenter::new(AnalysisConfig::for_groups(24).with_min_quorum(6));
        match strict.analyze_epoch_collected(&epoch) {
            Err(IngestError::QuorumTooSmall { required, report }) => {
                assert_eq!(required, 6);
                assert_eq!(report.accepted.len(), 5);
            }
            other => panic!("expected QuorumTooSmall, got {other:?}"),
        }
    }

    /// Aggregated ingest is detection-equivalent to flat ingest: the
    /// same leaf frames routed through three aggregate bundles must give
    /// byte-identical aligned and unaligned verdicts.
    #[test]
    fn aggregated_and_flat_ingest_agree_byte_for_byte() {
        let frames = wire_frames(31, 12);
        let center = AnalysisCenter::new(AnalysisConfig::for_groups(48));
        let flat = analyze_bare(&center, &frames).expect("12 clean frames form a quorum");

        let bundles = (0u64..)
            .zip(frames.chunks(4))
            .map(|(agg, chunk)| bundle(900 + agg, agg * 4, chunk, Vec::new()));
        let tiered = center
            .analyze_epoch_aggregated_collected(&CollectedEpoch::from_frames(bundles))
            .expect("same 12 leaves through 3 bundles");

        assert_eq!(tiered.routers, 12);
        assert_eq!(tiered.ingest.submitted, 12, "quorum counts leaves");
        assert_eq!(tiered.aligned.found, flat.aligned.found);
        assert_eq!(tiered.aligned.routers, flat.aligned.routers);
        assert_eq!(
            tiered.aligned.signature_indices,
            flat.aligned.signature_indices
        );
        assert_eq!(tiered.aligned.content_packets, flat.aligned.content_packets);
        assert_eq!(tiered.unaligned.alarm, flat.unaligned.alarm);
        assert_eq!(
            tiered.unaligned.largest_component,
            flat.unaligned.largest_component
        );
        assert_eq!(
            tiered.unaligned.suspected_routers,
            flat.unaligned.suspected_routers
        );
        assert_eq!(
            tiered.unaligned.suspected_groups,
            flat.unaligned.suspected_groups
        );
    }

    /// Cross-level accounting: a child excluded at an aggregator and an
    /// undecodable bundle both surface at the centre as `AtLevel` faults
    /// with the right level and aggregator, and quorum is judged over
    /// reachable leaves, not bundles.
    #[test]
    fn aggregated_ingest_composes_exclusions_across_levels() {
        let timed_out = crate::aggregate::ChildExclusion {
            router_id: 4,
            fault: RouterFault::TimedOut {
                received: 2,
                total: 5,
            },
        };
        let good = bundle(1000, 0, &wire_frames(32, 4), vec![timed_out]);
        let garbage = vec![0x55u8; 80];

        let center = AnalysisCenter::new(AnalysisConfig::for_groups(24));
        let epoch = CollectedEpoch::from_frames([good, garbage]);
        let report = center
            .analyze_epoch_aggregated_collected(&epoch)
            .expect("four surviving leaves are a quorum");
        // 4 delivered leaves + 1 child exclusion + 1 dead bundle.
        assert_eq!(report.ingest.submitted, 6);
        assert_eq!(report.routers, 4);
        assert_eq!(report.ingest.excluded.len(), 2);
        let timed = &report.ingest.excluded[0];
        assert_eq!(timed.router_id, Some(4));
        assert_eq!(timed.fault.kind(), "timed_out", "kind survives the wrap");
        assert_eq!(timed.fault.level(), 1);
        match &timed.fault {
            RouterFault::AtLevel {
                level: 1,
                aggregator_id: Some(1000),
                fault,
            } => assert!(matches!(
                **fault,
                RouterFault::TimedOut {
                    received: 2,
                    total: 5
                }
            )),
            other => panic!("expected AtLevel wrap, got {other:?}"),
        }
        let dead = &report.ingest.excluded[1];
        assert_eq!(dead.router_id, None);
        assert_eq!(dead.fault.kind(), "wire");
        assert!(
            matches!(
                dead.fault,
                RouterFault::AtLevel {
                    level: 1,
                    aggregator_id: None,
                    ..
                }
            ),
            "{:?}",
            dead.fault
        );

        // Leaf-based quorum: 5 reachable leaves is not enough when the
        // floor is 5 delivered... the 4 survivors miss a floor of 5.
        let strict = AnalysisCenter::new(AnalysisConfig::for_groups(24).with_min_quorum(5));
        match strict.analyze_epoch_aggregated_collected(&epoch) {
            Err(IngestError::QuorumTooSmall { required, report }) => {
                assert_eq!(required, 5);
                assert_eq!(report.accepted.len(), 4);
                assert_eq!(report.submitted, 6);
            }
            other => panic!("expected QuorumTooSmall, got {other:?}"),
        }
    }

    /// The collected aggregated path: an aggregator the upstream hop
    /// lost entirely becomes one `AtLevel` exclusion carrying its id.
    #[test]
    fn lost_aggregator_surfaces_with_its_id() {
        use crate::session::{CollectorConfig, EpochCollector};
        use crate::transport::chunk_bundle;

        let bundle = bundle(700, 0, &wire_frames(33, 4), Vec::new());

        // Upstream hop expects aggregators 700 and 701; only 700 ships.
        let mut coll = EpochCollector::new(0, [700u64, 701], CollectorConfig::default(), 9, 0);
        for chunk in chunk_bundle(700, 0, &bundle, 4096) {
            coll.offer(&chunk, 0);
        }
        let deadline = coll.deadline();
        let epoch = coll.finalize(deadline);

        let center = AnalysisCenter::new(AnalysisConfig::for_groups(16));
        let report = center
            .analyze_epoch_aggregated_collected(&epoch)
            .expect("four leaves from the surviving aggregator");
        assert_eq!(report.routers, 4);
        assert_eq!(report.ingest.submitted, 5);
        assert_eq!(report.ingest.excluded.len(), 1);
        let e = &report.ingest.excluded[0];
        assert_eq!(e.router_id, Some(701));
        match &e.fault {
            RouterFault::AtLevel {
                level: 1,
                aggregator_id: Some(701),
                fault,
            } => assert!(matches!(**fault, RouterFault::TimedOut { .. }), "{fault:?}"),
            other => panic!("expected AtLevel timeout, got {other:?}"),
        }
        assert!(report.transport.chunks_received > 0, "stats not stamped");
    }

    /// Detection never reads the artifact section: one epoch shipped as
    /// v2 frames carrying each monitor's `heavy_content` sketch, as the
    /// same digests' v1 frames, and as v2 frames whose `DCSS` payload is
    /// CRC-valid garbage gives one report and one deterministic metric
    /// view (counters plus the key sets of every family), with no frame
    /// excluded.
    #[test]
    fn detection_ignores_the_artifact_section() {
        use crate::monitor::SketchSpec;
        use dcs_collect::Artifact;

        let mut r = StdRng::seed_from_u64(71);
        let mcfg = MonitorConfig::small(7, 1 << 14, 4).with_sketch(SketchSpec::heavy_content(32));
        let plant = Planting::aligned(ContentObject::random_with_packets(&mut r, 30, 536), 536);
        let bg = BackgroundConfig {
            packets: 800,
            flows: 200,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        };
        let routers = 24;
        let sketched: Vec<RouterDigest> = (0..routers)
            .map(|id| {
                let mut traffic = gen::generate_epoch(&mut r, &bg);
                if id < 20 {
                    plant.plant_into(&mut r, &mut traffic);
                }
                let mut mp = MonitoringPoint::new(id, &mcfg);
                mp.observe_all(&traffic);
                mp.finish_epoch()
            })
            .collect();
        let with_artifacts = |artifacts: fn(&RouterDigest) -> Vec<Artifact>| {
            let digests: Vec<RouterDigest> = (sketched.iter())
                .map(|d| RouterDigest {
                    artifacts: artifacts(d),
                    ..d.clone()
                })
                .collect();
            CollectedEpoch::from_digests(&digests)
        };
        let epochs = [
            (with_artifacts(|d| d.artifacts.clone()), 2),
            (with_artifacts(|_| Vec::new()), 1),
            (
                with_artifacts(|d| vec![Artifact::sketch(vec![0xA5; 19 + d.router_id])]),
                2,
            ),
        ];
        let run = |epoch: &CollectedEpoch| {
            let center = search_center(routers);
            let report = center.analyze_epoch_collected(epoch).expect("quorum");
            let snap = center.metrics();
            let counters: Vec<(String, u64)> = snap
                .counters
                .iter()
                .map(|c| (c.key.clone(), c.value))
                .collect();
            let gauges: Vec<String> = snap.gauges.iter().map(|g| g.key.clone()).collect();
            let hists: Vec<String> = snap.histograms.iter().map(|h| h.key.clone()).collect();
            (report, (counters, gauges, hists))
        };
        let (want, want_metrics) = run(&epochs[0].0);
        assert!(want.aligned.found, "planted content missed");
        for (epoch, version) in &epochs {
            assert!(epoch.frames.iter().all(|(_, f)| f[4] == *version));
            let (got, metrics) = run(epoch);
            assert!(got.ingest.excluded.is_empty(), "{:?}", got.ingest.excluded);
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(&want).unwrap(),
                "v{version} frames"
            );
            assert_eq!(metrics, want_metrics, "v{version} frames");
        }
    }

    /// The incremental test-graph engine must be invisible in the
    /// results: across epochs of persisting traffic with partial churn,
    /// a long-lived centre and a fresh one per epoch (whose cold
    /// correlator pays the full all-pairs build) produce byte-identical
    /// unaligned reports, while the long-lived centre pays the full build
    /// only once.
    #[test]
    fn incremental_and_rebuild_centres_agree_across_epochs() {
        let mut r = StdRng::seed_from_u64(41);
        let mcfg = MonitorConfig::small(7, 1 << 12, 4);
        let bg = BackgroundConfig {
            packets: 300,
            flows: 80,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        };
        let routers = 8;
        let mut digests: Vec<RouterDigest> = (0..routers)
            .map(|id| {
                let traffic = gen::generate_epoch(&mut r, &bg);
                let mut mp = MonitoringPoint::new(id, &mcfg);
                mp.observe_all(&traffic);
                mp.finish_epoch()
            })
            .collect();

        let mut inc_cfg = AnalysisConfig::for_groups(routers * 4);
        inc_cfg.ugraph.audit_every = 2;
        let inc = AnalysisCenter::new(inc_cfg.clone());
        let mut full_pairs = 0;

        for epoch in 0..5u64 {
            // Churn one router per epoch; the rest persist verbatim.
            let id = epoch as usize % routers;
            let traffic = gen::generate_epoch(&mut r, &bg);
            let mut mp = MonitoringPoint::new(id, &mcfg);
            mp.observe_all(&traffic);
            digests[id] = mp.finish_epoch();
            for d in &mut digests {
                d.epoch_id = epoch;
            }
            let a = inc.analyze_epoch(&digests).expect("quorum").unaligned;
            let cold = AnalysisCenter::new(inc_cfg.clone());
            let b = cold.analyze_epoch(&digests).expect("quorum").unaligned;
            let cold_snap = cold.metrics();
            assert_eq!(cold_snap.counter("graph_full_rebuilds_total"), Some(1));
            full_pairs += cold_snap.counter("pairs_exact_total").unwrap();
            assert_eq!(a.alarm, b.alarm, "epoch {epoch}");
            assert_eq!(a.largest_component, b.largest_component, "epoch {epoch}");
            assert_eq!(a.suspected_groups, b.suspected_groups, "epoch {epoch}");
            assert_eq!(a.suspected_routers, b.suspected_routers, "epoch {epoch}");
        }

        let snap = inc.metrics();
        assert_eq!(
            snap.counter("graph_full_rebuilds_total"),
            Some(1),
            "only the cold epoch may rebuild from scratch"
        );
        assert_eq!(
            snap.counter("graph_audit_runs_total"),
            Some(2),
            "audit cadence 2 over 5 epochs"
        );
        assert!(snap.counter("pairs_exact_total").unwrap_or(0) > 0);
        assert!(snap.gauge("graph_edges_live").is_some());
        assert!(snap.gauge("graph_groups_changed").is_some());
        // The delta epochs re-tested far fewer pairs than the cold
        // centres paid for the same traffic.
        let inc_pairs = snap.counter("pairs_exact_total").unwrap();
        assert!(
            inc_pairs * 2 < full_pairs,
            "incremental engine did {inc_pairs} pair tests vs {full_pairs} for full rebuilds"
        );
    }
    /// The λ tables outlive the epoch and follow the deployment shape: a
    /// repeated epoch computes no quantile, and an epoch whose array
    /// width, arrays per group or test edge probability differs gets
    /// fresh tables and the report a fresh centre returns. The component
    /// threshold of 0 alarms every epoch, so the λ′ table is on the path
    /// throughout.
    #[test]
    fn lambda_tables_persist_across_epochs_and_follow_the_shape() {
        let bg = BackgroundConfig {
            packets: 300,
            flows: 80,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        };
        let routers = 4;
        let digests = |mcfg: &MonitorConfig| -> Vec<RouterDigest> {
            let mut r = StdRng::seed_from_u64(43);
            (0..routers)
                .map(|id| {
                    let traffic = gen::generate_epoch(&mut r, &bg);
                    let mut mp = MonitoringPoint::new(id, mcfg);
                    mp.observe_all(&traffic);
                    mp.finish_epoch()
                })
                .collect()
        };
        let base_mcfg = MonitorConfig::small(7, 1 << 12, 2);
        let mut base_cfg = AnalysisConfig::for_groups(routers * 2);
        base_cfg.component_threshold = Some(0);
        // The aligned search is not under test; keep it short.
        base_cfg.search.n_prime = 100;
        base_cfg.search.hopefuls = 50;
        let computed = |c: &AnalysisCenter| {
            c.metrics()
                .counter("lambda_quantiles_computed_total")
                .expect("registered every epoch")
        };
        let filled = |c: &AnalysisCenter| {
            c.metrics()
                .gauge("lambda_cells_filled")
                .expect("registered every epoch")
        };
        let verdict = |r: &EpochReport| format!("{:?} {:?}", r.aligned, r.unaligned);

        let mut narrow = base_mcfg.clone();
        narrow.unaligned.array_bits = 512;
        let mut fewer_arrays = base_mcfg.clone();
        fewer_arrays.unaligned.arrays_per_group = 5;
        for (what, next_mcfg, test_p1_factor) in [
            ("ncols", &narrow, 1.0),
            ("rows_per_group", &fewer_arrays, 1.0),
            ("test_p1", &base_mcfg, 0.5),
        ] {
            let mut center = AnalysisCenter::new(base_cfg.clone());
            let base = digests(&base_mcfg);
            let first = center.analyze_epoch(&base).expect("quorum");
            assert!(first.unaligned.alarm, "{what}: threshold 0 must alarm");
            let cold = computed(&center);
            assert!(cold > 0, "{what}: a cold table computes quantiles");
            assert_eq!(filled(&center), cold, "{what}: every fill is still held");
            let again = center.analyze_epoch(&base).expect("quorum");
            assert_eq!(verdict(&again), verdict(&first), "{what}: repeat epoch");
            assert_eq!(
                computed(&center),
                cold,
                "{what}: a repeated epoch must compute no quantile"
            );

            center.cfg.test_p1 *= test_p1_factor;
            let next = digests(next_mcfg);
            let got = center.analyze_epoch(&next).expect("quorum");
            let fresh = AnalysisCenter::new(center.cfg.clone());
            let want = fresh.analyze_epoch(&next).expect("quorum");
            assert_eq!(verdict(&got), verdict(&want), "{what}: changed shape");
            assert_eq!(
                filled(&center),
                filled(&fresh),
                "{what}: the tables were not replaced"
            );
            assert_eq!(
                computed(&center),
                cold + computed(&fresh),
                "{what}: the replaced tables start cold"
            );
        }
    }
}
