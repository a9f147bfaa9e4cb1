//! The central analysis module: fuses digests, runs both detection
//! pipelines, emits reports.

use crate::ingest::{self, Exclusion, IngestError, IngestReport, RouterFault};
use crate::monitor::{RouterDigest, RouterDigestView};
use crate::report::{AlignedReport, EpochReport, TransportStats, UnalignedReport};
use crate::session::CollectedEpoch;
use crate::stages::{Stage, StageRecorder};
use dcs_aligned::{refined_detect_cached, SearchConfig, SearchScratch, EPSILON};
use dcs_bitmap::{BitmapView, RowMatrix};
use dcs_obs::{MetricsRegistry, MetricsSnapshot};
use dcs_unaligned::{
    er_test, find_pattern, CoreFindConfig, GroupLayout, IncrementalCorrelator, LambdaTables,
};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Columns the deployed centre's aligned search screens (n′).
const DEPLOYED_N_PRIME: usize = 400;
/// Screened columns the deployed centre's aligned search expands (H).
const DEPLOYED_HOPEFULS: usize = 300;

/// Configuration of the analysis centre.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Aligned-case greedy search settings.
    pub search: SearchConfig,
    /// The group count the configuration was made for, which sets both
    /// edge probabilities ([`AnalysisConfig::edge_probabilities`]).
    groups: usize,
    /// The unaligned verdict alarms when the test graph's largest
    /// component is larger than this. `None` derives it from the number
    /// of groups n, the test graph's p₁ and [`dcs_aligned::EPSILON`]
    /// (the ε the aligned verdict reads): the size a null graph's largest
    /// component exceeds with probability at most ε
    /// ([`dcs_stats::component_threshold`]), derived every epoch from
    /// that epoch's n (a few hundred progeny terms, tens of
    /// microseconds). It is n, so the verdict never alarms, when
    /// n·p₁ ≥ 1. `Some` is an operator's override.
    pub component_threshold: Option<usize>,
    /// Core-finding settings (β and d).
    pub corefind: CoreFindConfig,
    /// Minimum number of validated digest bundles required to analyse an
    /// epoch (the graceful-degradation floor): with fewer survivors,
    /// [`AnalysisCenter::analyze_epoch`] returns
    /// [`IngestError::QuorumTooSmall`] instead of running the pipelines
    /// on a sliver of the deployment. 1 = run on whatever survives.
    pub min_quorum: usize,
}

impl AnalysisConfig {
    /// A configuration tuned for a deployment with `n_groups` total
    /// flow-split groups across all routers.
    ///
    /// # Panics
    /// Panics if `n_groups < 2`.
    pub fn for_groups(n_groups: usize) -> Self {
        assert!(n_groups >= 2, "need at least two groups");
        AnalysisConfig {
            search: SearchConfig::default(),
            groups: n_groups,
            component_threshold: None,
            corefind: CoreFindConfig::default(),
            min_quorum: 1,
        }
    }

    /// The deployed centre over `n_groups` flow-split groups in all, on
    /// aligned bitmaps `aligned_bits` wide: [`AnalysisConfig::for_groups`]
    /// with the search budget n′ = 400 and H = 300, each capped at the
    /// width.
    ///
    /// # Panics
    /// Panics if `n_groups < 2`.
    pub fn deployed(n_groups: usize, aligned_bits: usize) -> Self {
        let mut cfg = Self::for_groups(n_groups);
        cfg.search.n_prime = DEPLOYED_N_PRIME.min(aligned_bits);
        cfg.search.hopefuls = DEPLOYED_HOPEFULS.min(aligned_bits);
        cfg
    }

    /// The group-edge probabilities `(p₁, p₁′)` of the two unaligned
    /// graphs, from the group count n the configuration was made for:
    /// the statistical-test graph's p₁ = 0.65/n sits below the 1/n phase
    /// transition, the detection graph's p₁′ = 8/n above it (the paper's
    /// values, Section IV).
    pub fn edge_probabilities(&self) -> (f64, f64) {
        let n = self.groups as f64;
        (0.65 / n, 8.0 / n)
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
    /// matrix, fan-out buffer).
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

/// What the centre carries from one epoch to the next.
#[derive(Debug)]
struct CenterState {
    scratch: EpochScratch,
    /// The incremental engine of the test and detection graphs; its
    /// state must see every epoch in order to be worth anything.
    correlator: IncrementalCorrelator,
    /// The Λ/Λ′ threshold tables (a quantile costs about a hundred of
    /// the popcounts it gates); replaced only when the array width, the
    /// arrays per group or an edge probability changes.
    lambda: Option<LambdaTables>,
}

/// The analysis centre.
#[derive(Debug)]
pub struct AnalysisCenter {
    cfg: AnalysisConfig,
    /// Locked once per epoch, for the whole analysis. The lock is what
    /// lets callers share a centre: the analysis itself is one thread,
    /// and the λ tables inside are not `Sync`.
    state: Mutex<CenterState>,
    metrics: MetricsRegistry,
}

// Callers share a centre across threads; the λ tables alone would not let them.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<AnalysisCenter>();
};

impl AnalysisCenter {
    /// Creates the centre.
    pub fn new(cfg: AnalysisConfig) -> Self {
        AnalysisCenter {
            cfg,
            state: Mutex::new(CenterState {
                scratch: EpochScratch::new(),
                correlator: IncrementalCorrelator::new(),
                lambda: None,
            }),
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

    /// Locks the cross-epoch state. A poisoned lock means an epoch
    /// panicked mid-analysis: its scratch and correlator are suspect, so
    /// both restart cold (the next epoch pays one warm-up and the centre
    /// keeps serving). The λ tables are kept — every cell is a pure
    /// function of the shape, and a half-replaced pair is never stored.
    fn lock_state(&self) -> MutexGuard<'_, CenterState> {
        self.state.lock().unwrap_or_else(|poisoned| {
            let mut state = poisoned.into_inner();
            state.scratch = EpochScratch::new();
            state.correlator = IncrementalCorrelator::new();
            self.state.clear_poison();
            state
        })
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
                Err(e) => rejected.push(at_level_1(
                    None,
                    RouterFault::Wire(format!("aggregate bundle: {e}")),
                )),
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
        let mut guard = self.lock_state();
        let state = &mut *guard;
        let s = &mut state.scratch;

        // Unaligned pipeline, stage 1: stack arrays and map ownership.
        // Validation left only non-empty digests of one array width.
        let k = digests.first().map_or(1, |d| d.unaligned.arrays_per_group);
        rec.run(Stage::StackRows, || {
            s.urows
                .reset(digests.first().map_or(0, |d| d.unaligned.array_bits()));
            for d in digests {
                for array in d.unaligned.arrays() {
                    s.urows.push_row_from(&array);
                }
            }
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
        let (det, search_t, work) = refined_detect_cached(&rows, &self.cfg.search, &mut s.search);
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
        let unaligned = self.unaligned_from_rows(state, k, &rec);

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
        for k in Kernel::ALL {
            self.metrics
                .gauge("kernel_active", &[("kernel", k.name())])
                .set(u64::from(k == active));
        }
    }

    /// Capacities of the epoch scratch: stacked unaligned words,
    /// group-owner slots, then the aligned search's
    /// [`SearchScratch::capacities`] (count-plane words first).
    /// Steady-state epochs of one deployment shape must not grow any of
    /// these — the no-allocation invariant the zero-copy ingest path is
    /// built around.
    pub fn scratch_capacities(&self) -> Vec<usize> {
        let state = self.lock_state();
        let s = &state.scratch;
        let unaligned = [s.urows.word_capacity(), s.group_owner.capacity()];
        unaligned.into_iter().chain(s.search.capacities()).collect()
    }

    /// Panics the way a pipeline bug would: mid-epoch, holding the
    /// centre's state.
    #[cfg(test)]
    fn panic_mid_epoch(&self) {
        let _state = self.lock_state();
        panic!("injected mid-epoch panic");
    }

    /// ER test + core finding over the stacked row matrix in
    /// `state.scratch`, staged as `graph_build → er_test → peel` through
    /// `rec`. The scratch's `urows` holds every accepted router's arrays
    /// vertically concatenated; `group_owner[g]` is the router owning
    /// global group `g`.
    ///
    /// The test and detection graphs are maintained incrementally across
    /// epochs and are bit-identical to their all-pairs oracles. Per-epoch
    /// engine accounting lands in the `pairs_exact_total` /
    /// `graph_full_rebuilds_total` counters and the `graph_edges_live` /
    /// `graph_groups_changed` gauges; the λ tables report
    /// `lambda_quantiles_computed_total` (cells this epoch had to
    /// compute: those its re-tested row pairs read that no earlier epoch
    /// did) and `lambda_cells_filled` (cells the current pair holds).
    /// All are registered every epoch, so the keys exist even at zero.
    fn unaligned_from_rows(
        &self,
        state: &mut CenterState,
        k: usize,
        rec: &StageRecorder<'_>,
    ) -> UnalignedReport {
        let rows = &state.scratch.urows;
        let group_owner = &state.scratch.group_owner;
        let ncols = rows.ncols();
        let layout = GroupLayout { rows_per_group: k };
        let n_groups = group_owner.len();

        let (test_p1, detect_p1) = self.cfg.edge_probabilities();
        let tables = LambdaTables::for_shape(&mut state.lambda, ncols, k, test_p1, detect_p1);

        // Statistical-test and detection graphs through the incremental
        // engine, in one pass.
        let correlator = &mut state.correlator;
        let ((test_graph, gstats), _) =
            rec.run(Stage::GraphBuild, || correlator.epoch(rows, layout, tables));
        let correlator = &state.correlator;
        let c = |name: &str, v: u64| self.metrics.counter(name, &[]).add(v);
        c("pairs_exact_total", gstats.pairs_exact);
        c("graph_full_rebuilds_total", u64::from(gstats.full_rebuild));
        let g = |name: &str, v: u64| self.metrics.gauge(name, &[]).set(v);
        g("graph_edges_live", gstats.edges_live as u64);
        g("graph_groups_changed", gstats.groups_changed as u64);
        // The derived threshold is timed with the test it sets.
        let ((threshold, test), _) = rec.run(Stage::ErTest, || {
            let threshold = self
                .cfg
                .component_threshold
                .unwrap_or_else(|| dcs_stats::component_threshold(n_groups, test_p1, EPSILON));
            (threshold, er_test(&test_graph, threshold))
        });

        // Peel always runs as a recorded span — a quiet epoch records a
        // trivial one — so the stage is present in every snapshot.
        let ((suspected_groups, suspected_routers), _) = rec.run(Stage::Peel, || {
            if test.alarm {
                // The detection graph under the laxer Λ′, kept by the
                // correlator beside the test graph: no row pair is
                // counted again.
                let pattern = find_pattern(&correlator.detection_graph(), self.cfg.corefind);
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
            component_threshold: threshold,
            suspected_routers,
            suspected_groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{MonitorConfig, MonitoringPoint};
    use dcs_collect::wire::UNALIGNED_HEADER;
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
        AnalysisCenter::new(AnalysisConfig::deployed(routers * 4, 1 << 14))
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
        assert!(!report.ingest.excluded.is_empty());
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
            .map(|d| d.encode_wire().expect("clean digest"));
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
        assert!(
            warm[5..].iter().all(|&c| c > 0),
            "a product-search buffer never materialised: {warm:?}"
        );
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
        let wire = |msg: &str| RouterFault::Wire(format!("malformed frame: {msg}"));
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

    /// The λ table holds rows 1 to 65,534 bits wide (a cell is 16 bits).
    /// Frames whose unaligned arrays are 0 bits, or 65,535 bits and more,
    /// are typed wire exclusions that count against the quorum — even
    /// when every router sends one — and 65,534-bit arrays still analyse.
    #[test]
    fn array_widths_a_lambda_cell_cannot_hold_are_typed_exclusions() {
        let digests = clean_digests(15, 3);
        let frames = |bits: usize| -> Vec<Vec<u8>> {
            digests
                .iter()
                .map(|d| {
                    // The bundle with its unaligned digest replaced by two
                    // one-array groups (zero counters, 1 array a group).
                    let mut frame = d.encode_wire().expect("clean digest");
                    frame.truncate(frame.len() - d.unaligned.encoded_len() - UNALIGNED_HEADER);
                    frame.extend_from_slice(b"DCSU\x01");
                    frame.extend_from_slice(&[0; 24]);
                    frame.extend_from_slice(&[1, 0, 0, 0, 2, 0, 0, 0]);
                    for _ in 0..2 {
                        frame.extend_from_slice(&dcs_bitmap::Bitmap::new(bits).encode());
                    }
                    frame
                })
                .collect()
        };
        let center = AnalysisCenter::new(AnalysisConfig::for_groups(6));
        let widest = analyze_bare(&center, &frames(65_534)).expect("65,534 bits analyse");
        assert_eq!(widest.ingest.accepted, vec![0, 1, 2]);
        for bits in [0, 65_535, 100_000] {
            match analyze_bare(&center, &frames(bits)) {
                Err(IngestError::QuorumTooSmall { report, .. }) => {
                    assert_eq!(report.submitted, 3);
                    assert!(report.accepted.is_empty(), "{bits} bits accepted");
                    assert_eq!(report.accepted.len() + report.excluded.len(), 3);
                    for e in &report.excluded {
                        assert!(matches!(e.fault, RouterFault::Wire(_)), "{:?}", e.fault);
                    }
                }
                other => panic!("{bits} bits: expected QuorumTooSmall, got {other:?}"),
            }
        }
    }

    /// A panic inside a pipeline poisons the state lock. The centre must
    /// keep analysing — the next epoch resets the scratch and the
    /// correlator to cold and carries on.
    #[test]
    fn panicked_epoch_drops_its_scratch_and_the_centre_keeps_serving() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let center = AnalysisCenter::new(AnalysisConfig::for_groups(8));
        let panicked = catch_unwind(AssertUnwindSafe(|| center.panic_mid_epoch())).is_err();
        assert!(panicked, "the injected panic never fired");

        // The panicking epoch's scratch is gone; every entry point must
        // still work on a fresh one. (Two routers × 4 groups matches the
        // centre's for_groups(8).)
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
        assert!(!report.ingest.excluded.is_empty());

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

        let cfg = AnalysisConfig::for_groups(routers * 4);
        let inc = AnalysisCenter::new(cfg.clone());
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
            let cold = AnalysisCenter::new(cfg.clone());
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
    /// width, arrays per group or edge probabilities differ gets
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
        for (what, next_mcfg, groups_factor) in [
            ("ncols", &narrow, 1),
            ("rows_per_group", &fewer_arrays, 1),
            ("edge probabilities", &base_mcfg, 2),
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

            center.cfg.groups *= groups_factor;
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

    /// `serve`'s default centre, `for_groups(96)` (24 routers × 4
    /// groups), fed 24 monitors that ship 8 groups each: 192 groups at an
    /// edge probability set for 96 puts the test graph above the phase
    /// transition. The derived threshold is then every group, so the
    /// epoch's unaligned verdict is quiet rather than a panic.
    #[test]
    fn more_groups_than_configured_is_a_quiet_verdict_not_a_panic() {
        let mut r = StdRng::seed_from_u64(45);
        let mcfg = MonitorConfig::small(7, 1 << 14, 8);
        let bg = BackgroundConfig {
            packets: 300,
            flows: 80,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        };
        let digests: Vec<RouterDigest> = (0..24)
            .map(|id| {
                let mut mp = MonitoringPoint::new(id, &mcfg);
                mp.observe_all(&gen::generate_epoch(&mut r, &bg));
                mp.finish_epoch()
            })
            .collect();
        let report = AnalysisCenter::new(AnalysisConfig::for_groups(96))
            .analyze_epoch(&digests)
            .expect("clean digests form a quorum");
        assert_eq!(report.unaligned.component_threshold, 192);
        assert!(!report.unaligned.alarm);
    }

    /// The derived threshold follows each epoch's group count: one centre
    /// fed epochs of 48, then 96, then 48 groups again reports
    /// `component_threshold(n, p₁, EPSILON)` for each count, with the p₁
    /// of the count the configuration was made for.
    #[test]
    fn the_derived_threshold_follows_the_group_count() {
        let cfg = AnalysisConfig::for_groups(48);
        let center = AnalysisCenter::new(cfg.clone());
        for routers in [12, 24, 12] {
            let n = routers * 4;
            let report = center
                .analyze_epoch(&clean_digests(routers as u64, routers))
                .expect("clean digests form a quorum");
            assert_eq!(
                report.unaligned.component_threshold,
                dcs_stats::component_threshold(n, cfg.edge_probabilities().0, EPSILON),
                "{n} groups"
            );
        }
    }

    /// The bound's null model through the deployed Λ and pair loop.
    /// Edges that share a group are not independent, so the bound's
    /// premise, that the branching process dominates the Λ graph's
    /// components, is an assumption. This checks it at `tiered-chan`'s
    /// shape, 48 groups ×
    /// 10 rows × 1,024 bits, on uniformly random rows of fill 7/16 (≈ 448
    /// ones a row against the digests' ≈ 446), built by
    /// `build_group_graph` under the centre's test table. A loose
    /// ε′ = 0.2 makes exceedances common enough to count: if the bound
    /// holds, the epochs over the threshold are at most Bin(N, ε′), and
    /// the count stays under that law's upper 10⁻⁶ quantile.
    #[test]
    fn null_component_tail_stays_under_the_bound() {
        use dcs_unaligned::build_group_graph;
        use rand::Rng;
        const EPOCHS: u64 = 1_000;
        const EPS: f64 = 0.2;
        let (groups, rows_per_group, bits) = (48, 10, 1_024);
        let (test_p1, detect_p1) = AnalysisConfig::for_groups(groups).edge_probabilities();
        let threshold = dcs_stats::component_threshold(groups, test_p1, EPS);
        let mut slot = None;
        let tables = LambdaTables::for_shape(&mut slot, bits, rows_per_group, test_p1, detect_p1);
        let layout = GroupLayout { rows_per_group };
        let mut r = StdRng::seed_from_u64(0x4E55_0045);
        let mut rows = RowMatrix::new(bits);
        let mut words = vec![0u64; bits / 64];
        let mut over = 0;
        for _ in 0..EPOCHS {
            rows.reset(bits);
            for _ in 0..groups * rows_per_group {
                // Each bit is set with probability ½·(1 − ⅛) = 7/16.
                for w in &mut words {
                    *w = r.gen::<u64>() & (r.gen::<u64>() | r.gen::<u64>() | r.gen::<u64>());
                }
                rows.push_words(&words);
            }
            let (graph, _) = build_group_graph(&rows, layout, &tables.test);
            over += u64::from(er_test(&graph, threshold).alarm);
        }
        let limit = dcs_stats::binomial::binomial_quantile(1.0 - 1e-6, EPOCHS, EPS);
        eprintln!("null tail: {over} of {EPOCHS} epochs over {threshold} (limit {limit})");
        assert!(
            over <= limit,
            "{over} of {EPOCHS} null epochs had a component over {threshold}, \
             above the Bin({EPOCHS}, {EPS}) 1e-6 quantile {limit}"
        );
    }
}
