//! Integration tests of the unified observability layer: every stage of
//! both pipelines reports into the centre's metrics registry, stage
//! timer sums stay within the epoch total, and the deterministic
//! parts of a snapshot are identical across thread counts.

use dcs::core::stages::Stage;
use dcs::prelude::*;
use dcs_parallel::ComputeBudget;
use dcs_traffic::gen::{self, SizeMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUTERS: usize = 8;

/// One epoch of seeded digests, the first `infected` routers carrying an
/// aligned common content.
fn make_digests(seed: u64, infected: usize) -> Vec<RouterDigest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let monitor_cfg = MonitorConfig::small(5, 1 << 13, 4);
    let object = ContentObject::random_with_packets(&mut rng, 24, 536);
    let plant = Planting::aligned(object, 536);
    let bg = BackgroundConfig {
        packets: 500,
        flows: 120,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };
    (0..ROUTERS)
        .map(|router| {
            let mut traffic = gen::generate_epoch(&mut rng, &bg);
            if router < infected {
                plant.plant_into(&mut rng, &mut traffic);
            }
            let mut point = MonitoringPoint::new(router, &monitor_cfg);
            point.observe_all(&traffic);
            point.finish_epoch()
        })
        .collect()
}

fn center_with_budget(budget: ComputeBudget) -> AnalysisCenter {
    let mut cfg = AnalysisConfig::for_groups(ROUTERS * 4).with_compute(budget);
    cfg.search.n_prime = 300;
    cfg.search.hopefuls = 200;
    AnalysisCenter::new(cfg)
}

fn center_with_threads(threads: usize) -> AnalysisCenter {
    center_with_budget(ComputeBudget::with_threads(threads))
}

#[test]
fn every_stage_of_both_pipelines_records_nonzero() {
    let center = center_with_threads(2);
    let report = center
        .analyze_epoch(&make_digests(31, 0))
        .expect("clean quorum");
    assert!(!report.aligned.found);
    let snap = center.metrics();
    for stage in Stage::ALIGNED.iter().chain(Stage::UNALIGNED.iter()) {
        let gauge = snap
            .gauge(&stage.gauge_key())
            .unwrap_or_else(|| panic!("stage {} missing from snapshot", stage.name()));
        assert!(gauge > 0, "stage {} recorded zero ns", stage.name());
        let runs = snap
            .counter(&dcs::obs::metric_key(
                "stage_runs_total",
                &[("pipeline", stage.pipeline()), ("stage", stage.name())],
            ))
            .unwrap_or(0);
        assert_eq!(runs, 1, "stage {} should have run once", stage.name());
    }
    assert_eq!(snap.counter("epochs_analyzed_total"), Some(1));
    assert_eq!(snap.counter("ingest_submitted_total"), Some(ROUTERS as u64));
    assert_eq!(snap.counter("ingest_accepted_total"), Some(ROUTERS as u64));
    assert!(snap.gauge("epoch_total_ns").unwrap_or(0) > 0);
}

#[test]
fn stage_timer_sums_stay_within_epoch_total() {
    let center = center_with_threads(2);
    center.analyze_epoch(&make_digests(33, 6)).expect("quorum");
    let snap = center.metrics();
    let total = snap.gauge("epoch_total_ns").expect("total gauge");
    let staged: u64 = Stage::ALIGNED
        .iter()
        .chain(Stage::UNALIGNED.iter())
        .map(|s| snap.gauge(&s.gauge_key()).unwrap_or(0))
        .sum();
    assert!(
        staged <= total,
        "per-stage sum {staged} ns exceeds epoch total {total} ns"
    );
    // The stages cover the bulk of the epoch: fuse through peel is the
    // whole analysis body, only validation and report assembly sit
    // outside them.
    assert!(staged > 0);
}

#[test]
fn real_epoch_snapshot_roundtrips_through_json() {
    let center = center_with_threads(1);
    center.analyze_epoch(&make_digests(34, 4)).expect("quorum");
    let snap = center.metrics();
    let back = MetricsSnapshot::from_json(&snap.to_json_pretty()).expect("parse back");
    assert_eq!(back, snap);
}

/// Strips the wall-clock values from a snapshot, leaving only its
/// deterministic content: counters plus the sorted key sets of every
/// family.
fn deterministic_view(snap: &MetricsSnapshot) -> (Vec<(String, u64)>, Vec<String>, Vec<String>) {
    let counters = snap
        .counters
        .iter()
        .map(|c| (c.key.clone(), c.value))
        .collect();
    let gauge_keys = snap.gauges.iter().map(|g| g.key.clone()).collect();
    let hist_keys = snap.histograms.iter().map(|h| h.key.clone()).collect();
    (counters, gauge_keys, hist_keys)
}

#[test]
fn deterministic_metrics_are_identical_across_thread_counts() {
    let digests = make_digests(35, 6);
    let run = |threads: usize| {
        let center = center_with_threads(threads);
        let report = center.analyze_epoch(&digests).expect("quorum");
        (report, center.metrics())
    };
    let (seq_report, seq_snap) = run(1);
    let seq_view = deterministic_view(&seq_snap);
    // A popcount keeps no call tally: the only kernel metric is which
    // one is live.
    let kernel_keys: Vec<&String> = (seq_view.1.iter())
        .filter(|k| k.starts_with("kernel_"))
        .collect();
    assert_eq!(kernel_keys.len(), 3, "{kernel_keys:?}");
    assert!(kernel_keys.iter().all(|k| k.starts_with("kernel_active{")));
    for threads in [2, 8] {
        let (report, snap) = run(threads);
        // Detection results are thread-count-invariant…
        assert_eq!(report.aligned.found, seq_report.aligned.found);
        assert_eq!(report.aligned.routers, seq_report.aligned.routers);
        assert_eq!(
            report.aligned.signature_indices,
            seq_report.aligned.signature_indices
        );
        assert_eq!(report.unaligned.alarm, seq_report.unaligned.alarm);
        assert_eq!(
            report.unaligned.suspected_routers,
            seq_report.unaligned.suspected_routers
        );
        // …and so is every deterministic metric: same counters with the
        // same values, same instrument key sets. (Wall-clock gauges
        // legitimately vary.)
        assert_eq!(
            deterministic_view(&snap),
            seq_view,
            "threads={threads}: deterministic metrics diverged"
        );
    }
}

#[test]
fn deterministic_metrics_are_identical_across_shard_counts() {
    let digests = make_digests(37, 6);
    let run = |shards: usize| {
        let center = center_with_budget(
            ComputeBudget::with_threads(2.min(shards.max(1))).with_shards(shards),
        );
        let report = center.analyze_epoch(&digests).expect("quorum");
        (report, center.metrics())
    };
    let (base_report, base_snap) = run(1);
    let base_view = deterministic_view(&base_snap);
    for shards in [2, 8] {
        let (report, snap) = run(shards);
        // Detection results — aligned and unaligned — are
        // shard-count-invariant: fusion writes disjoint column ranges and
        // every reduction merges through total-ordered bounded heaps.
        assert_eq!(report.aligned.found, base_report.aligned.found);
        assert_eq!(report.aligned.routers, base_report.aligned.routers);
        assert_eq!(
            report.aligned.signature_indices,
            base_report.aligned.signature_indices
        );
        assert_eq!(report.unaligned.alarm, base_report.unaligned.alarm);
        assert_eq!(
            report.unaligned.suspected_routers,
            base_report.unaligned.suspected_routers
        );
        assert_eq!(
            deterministic_view(&snap),
            base_view,
            "shards={shards}: deterministic metrics diverged"
        );
    }
}

#[test]
fn pipelined_epochs_report_per_epoch_stage_times() {
    let center = center_with_threads(2);
    let pipe = EpochPipeline::new(center, PipelineConfig { max_in_flight: 3 });
    // Queue all three epochs behind a paused worker so their analyses run
    // back-to-back — if stage timers leaked across overlapped epochs the
    // accumulated values would betray it below.
    pipe.pause();
    for seed in [40, 41, 42] {
        let epoch = CollectedEpoch::from_digests(&make_digests(seed, 4));
        pipe.submit(EpochInput::Collected(epoch));
    }
    pipe.resume();
    let mut reports = Vec::new();
    for (seq, result) in pipe.drain() {
        reports.push((seq, result.expect("clean epoch")));
    }
    assert_eq!(reports.len(), 3);
    // The stage gauges hold the most recent epoch, not a sum over the
    // batch: every stage ran, and the per-stage sum fits inside the last
    // epoch's own total, which an overlap-aggregated view would exceed.
    let snap = pipe.center().metrics();
    let staged: u64 = Stage::ALIGNED
        .iter()
        .chain(Stage::UNALIGNED.iter())
        .map(|s| snap.gauge(&s.gauge_key()).unwrap_or(0))
        .sum();
    assert!(staged > 0);
    assert!(staged <= snap.gauge("epoch_total_ns").expect("total gauge"));
    assert_eq!(snap.counter("epochs_analyzed_total"), Some(3));
}

#[test]
fn excluded_bundles_feed_fault_labeled_counters() {
    let mut digests = make_digests(36, 0);
    digests[1].epoch_id = 99;
    digests[3].unaligned.arrays.clear();
    let center = center_with_threads(1);
    let report = center.analyze_epoch(&digests).expect("quorum of 6");
    assert_eq!(report.ingest.excluded.len(), 2);
    let snap = center.metrics();
    assert_eq!(
        snap.counter("ingest_excluded_total{fault=epoch_desync}"),
        Some(1)
    );
    assert_eq!(
        snap.counter("ingest_excluded_total{fault=empty_unaligned}"),
        Some(1)
    );
    assert_eq!(snap.counter("ingest_accepted_total"), Some(6));
}
