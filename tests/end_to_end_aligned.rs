//! End-to-end integration: traffic generation → aligned collectors →
//! digest shipping (through the wire encoding) → fused matrix → refined
//! detection → report.

use dcs_core::{AnalysisCenter, AnalysisConfig, MonitorConfig, MonitoringPoint};
use dcs_traffic::gen::{self, SizeMix};
use dcs_traffic::{BackgroundConfig, ContentObject, Planting};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUTERS: usize = 24;

fn run_epoch(seed: u64, infected: usize, content_packets: usize) -> dcs_core::EpochReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let monitor_cfg = MonitorConfig::small(5, 1 << 14, 4);
    let object = ContentObject::random_with_packets(&mut rng, content_packets, 536);
    let plant = Planting::aligned(object, 536);
    let bg = BackgroundConfig {
        packets: 800,
        flows: 200,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };
    let mut digests = Vec::new();
    for router in 0..ROUTERS {
        let mut traffic = gen::generate_epoch(&mut rng, &bg);
        if router < infected {
            plant.plant_into(&mut rng, &mut traffic);
        }
        let mut point = MonitoringPoint::new(router, &monitor_cfg);
        point.observe_all(&traffic);
        digests.push(point.finish_epoch());
    }
    // `analyze_epoch` ships each digest as its DCSR frame, as a real
    // deployment would, and analyses the parsed views.
    AnalysisCenter::new(AnalysisConfig::deployed(ROUTERS * 4, 1 << 14))
        .analyze_epoch(&digests)
        .expect("freshly collected digests form a quorum")
}

#[test]
fn detects_infection_above_threshold() {
    let report = run_epoch(1, 18, 30);
    assert!(report.aligned.found);
    let hits = report.aligned.routers.iter().filter(|&&r| r < 18).count();
    assert!(hits >= 14, "recovered only {hits}/18 infected routers");
    let false_routers = report.aligned.routers.len() - hits;
    assert!(
        false_routers <= 2,
        "{false_routers} clean routers implicated"
    );
    // The signature should be close to the planted content size.
    assert!(
        (20..=40).contains(&report.aligned.content_packets),
        "signature of {} packets for 30 planted",
        report.aligned.content_packets
    );
}

#[test]
fn clean_epoch_stays_quiet() {
    let report = run_epoch(2, 0, 30);
    assert!(!report.aligned.found, "aligned false positive");
}

#[test]
fn small_infection_below_threshold_stays_quiet() {
    // 5 of 24 routers: far below the detectable threshold for this
    // deployment; the verdict must hold back even though the planted
    // columns exist.
    let report = run_epoch(3, 5, 30);
    assert!(
        !report.aligned.found,
        "sub-threshold pattern falsely reported"
    );
}

#[test]
fn compression_accounting_consistent() {
    let report = run_epoch(4, 0, 30);
    assert_eq!(report.routers, ROUTERS);
    assert!(report.raw_bytes > report.digest_bytes);
    assert!(report.compression_ratio() > 10.0);
}
