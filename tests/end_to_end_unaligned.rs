//! End-to-end integration for the unaligned case: variable-prefix content
//! through offset-sampling collectors, ER test calibration, alarm and
//! localisation.

use dcs_core::{AnalysisCenter, AnalysisConfig, MonitorConfig, MonitoringPoint, RouterDigest};
use dcs_traffic::gen::{self, SizeMix};
use dcs_traffic::{BackgroundConfig, ContentObject, Planting};
use dcs_unaligned::CoreFindConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUTERS: usize = 30;
const GROUPS: usize = 8;

fn epoch(seed: u64, infected: &[usize], instances: usize, g: usize) -> Vec<RouterDigest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let monitor_cfg = MonitorConfig::small(5, 1 << 14, GROUPS);
    let object = ContentObject::random(&mut rng, g * 536);
    let plant = Planting::unaligned(object, 536);
    let bg = BackgroundConfig {
        packets: 1_000,
        flows: 250,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };
    (0..ROUTERS)
        .map(|router| {
            let mut traffic = gen::generate_epoch(&mut rng, &bg);
            if infected.contains(&router) {
                for _ in 0..instances {
                    plant.plant_into(&mut rng, &mut traffic);
                }
            }
            let mut point = MonitoringPoint::new(router, &monitor_cfg);
            point.observe_all(&traffic);
            point.finish_epoch()
        })
        .collect()
}

fn center(threshold: Option<usize>) -> AnalysisCenter {
    let mut cfg = AnalysisConfig::for_groups(ROUTERS * GROUPS);
    cfg.search.n_prime = 300;
    cfg.search.hopefuls = 200;
    cfg.corefind = CoreFindConfig { beta: 12, d: 2 };
    if let Some(t) = threshold {
        cfg.component_threshold = Some(t);
    }
    AnalysisCenter::new(cfg)
}

/// Calibrate the alarm threshold on a clean epoch, as an operator would.
fn calibrated_threshold() -> usize {
    let clean = epoch(900, &[], 0, 150);
    let report = center(Some(usize::MAX))
        .analyze_epoch(&clean)
        .expect("freshly collected digests form a quorum");
    ((report.unaligned.largest_component * 3) / 2).max(8)
}

#[test]
fn worm_is_caught_and_localised() {
    let threshold = calibrated_threshold();
    let infected: Vec<usize> = (0..18).collect();
    let digests = epoch(10, &infected, 2, 150);
    let report = center(Some(threshold))
        .analyze_epoch(&digests)
        .expect("freshly collected digests form a quorum");
    assert!(
        report.unaligned.alarm,
        "largest {} under threshold {threshold}",
        report.unaligned.largest_component
    );
    let hits = report
        .unaligned
        .suspected_routers
        .iter()
        .filter(|r| infected.contains(r))
        .count();
    assert!(hits >= 8, "only {hits} infected routers localised");
    let fps = report.unaligned.suspected_routers.len() - hits;
    assert!(fps <= 4, "{fps} clean routers implicated");
}

#[test]
fn clean_epoch_does_not_alarm() {
    let threshold = calibrated_threshold();
    let digests = epoch(11, &[], 0, 150);
    let report = center(Some(threshold))
        .analyze_epoch(&digests)
        .expect("freshly collected digests form a quorum");
    assert!(!report.unaligned.alarm);
    assert!(report.unaligned.suspected_routers.is_empty());
    assert!(report.unaligned.suspected_groups.is_empty());
}

#[test]
fn tiny_infection_stays_below_threshold() {
    let threshold = calibrated_threshold();
    let digests = epoch(12, &[0, 1], 1, 150);
    let report = center(Some(threshold))
        .analyze_epoch(&digests)
        .expect("freshly collected digests form a quorum");
    assert!(
        !report.unaligned.alarm,
        "2 infected routers should sit below the detectable threshold \
         (largest {})",
        report.unaligned.largest_component
    );
}

#[test]
fn aligned_pipeline_ignores_unaligned_content() {
    // Variable prefixes break packet identity, so the *aligned* search
    // must not fire on unaligned-planted content.
    let infected: Vec<usize> = (0..18).collect();
    let digests = epoch(13, &infected, 1, 150);
    let report = center(Some(8))
        .analyze_epoch(&digests)
        .expect("freshly collected digests form a quorum");
    assert!(
        !report.aligned.found,
        "aligned search fired on shifted content"
    );
}
