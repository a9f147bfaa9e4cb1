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

fn center_with_threads(threads: usize) -> AnalysisCenter {
    let mut cfg = AnalysisConfig::for_groups(ROUTERS * 4);
    cfg.search.compute = ComputeBudget::with_threads(threads);
    cfg.search.n_prime = 300;
    cfg.search.hopefuls = 200;
    AnalysisCenter::new(cfg)
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
    // Three epochs back to back: the stage gauges hold the most recent
    // epoch, not a sum over the batch, so their sum still fits inside
    // the last epoch's own total.
    for seed in [33, 40, 41] {
        center
            .analyze_epoch(&make_digests(seed, 6))
            .expect("quorum");
    }
    let snap = center.metrics();
    assert_eq!(snap.counter("epochs_analyzed_total"), Some(3));
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

/// `family` is the documented `name`, or `name` holds one `*`
/// (`transport_*_total`) and `family` matches it by prefix and suffix.
fn names_family(name: &str, family: &str) -> bool {
    match name.split_once('*') {
        Some((prefix, suffix)) => {
            !prefix.is_empty()
                && family.len() >= prefix.len() + suffix.len()
                && family.starts_with(prefix)
                && family.ends_with(suffix)
        }
        None => name == family,
    }
}

/// The metric catalogue both ways. Every metric family the centre emits
/// — through either door — and every family an aggregator emits is named
/// in backticks somewhere in DESIGN.md; and every family a row of
/// DESIGN §8's metric table names is emitted by one of those registries.
#[test]
fn every_emitted_metric_family_is_documented() {
    let epoch = CollectedEpoch::from_digests(&make_digests(38, 6));
    let center = center_with_threads(1);
    // One undecodable frame beside the good ones, so the exclusion
    // family is emitted too.
    let frames = epoch.frames.iter().map(|(_, frame)| frame.clone());
    center
        .analyze_epoch_collected(&CollectedEpoch::from_frames(frames.chain([vec![0xAB; 40]])))
        .expect("quorum");
    // One real aggregator over the same frames, finalizing into its own
    // registry, feeds the aggregated door.
    let children = 0..ROUTERS as u64;
    let mut aggregator = Aggregator::new(0, 1, 0, children, CollectorConfig::default(), 1, 0);
    for (index, frame) in &epoch.frames {
        for chunk in chunk_bundle(*index as u64, 0, frame, DATAGRAM_SAFE_PAYLOAD) {
            aggregator.offer(&chunk, 0);
        }
    }
    let aggregator_metrics = MetricsRegistry::new();
    let bundle = aggregator.finalize(0, &aggregator_metrics);
    assert_eq!(bundle.frames.len(), ROUTERS, "every child delivered");
    center
        .analyze_epoch_aggregated_collected(&CollectedEpoch::from_frames(
            vec![bundle.encode_wire()],
        ))
        .expect("quorum");

    let design = include_str!("../DESIGN.md");
    let family = |code: &'static str| code.split('{').next().unwrap_or(code);
    let documented: Vec<&str> = design.split('`').skip(1).step_by(2).map(family).collect();
    let snaps = [center.metrics(), aggregator_metrics.snapshot()];
    let keys = snaps.iter().flat_map(|snap| {
        (snap.counters.iter().map(|c| &c.key))
            .chain(snap.gauges.iter().map(|g| &g.key))
            .chain(snap.histograms.iter().map(|h| &h.key))
    });
    let mut emitted: Vec<&str> = keys
        .map(|key| key.split('{').next().unwrap_or(key))
        .collect();
    emitted.sort_unstable();
    emitted.dedup();
    let undocumented: Vec<&str> = (emitted.iter().copied())
        .filter(|f| !documented.iter().any(|doc| names_family(doc, f)))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metric families emitted but not named in DESIGN.md: {undocumented:?}"
    );

    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("8. "))
        .expect("DESIGN.md has a §8");
    let table: Vec<&str> = (section.lines())
        .filter_map(|line| line.strip_prefix("| ").filter(|row| row.starts_with('`')))
        .flat_map(|row| {
            let metric = row.split('|').next().unwrap_or(row);
            metric.split('`').skip(1).step_by(2).map(family)
        })
        .collect();
    assert!(table.len() > 10, "§8's metric table not found: {table:?}");
    let unemitted: Vec<&str> = (table.iter().copied())
        .filter(|name| !emitted.iter().any(|f| names_family(name, f)))
        .collect();
    assert!(
        unemitted.is_empty(),
        "DESIGN §8 documents metric families nothing emits: {unemitted:?}"
    );
}
