//! Early warning for a propagating email worm — the *unaligned* case.
//!
//! An email worm (Nimda/Sircam-style) carries a fixed attachment behind a
//! variable-length SMTP header, so every instance packetises at a
//! different offset and no two routers see identical packets. Offset
//! sampling + flow splitting still expose the correlation.
//!
//! The example simulates four epochs of an outbreak doubling each epoch,
//! calibrates the ER-test threshold on a known-clean epoch (the paper
//! tunes its thresholds by Monte-Carlo the same way), and shows the alarm
//! firing as the infection crosses the detectable threshold.
//!
//! Run with: `cargo run --release --example worm_outbreak`

use dcs_core::{AnalysisCenter, AnalysisConfig, MonitorConfig, MonitoringPoint, RouterDigest};
use dcs_traffic::gen::{self, SizeMix};
use dcs_traffic::{BackgroundConfig, ContentObject, Planting};
use dcs_unaligned::CoreFindConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUTERS: usize = 36;
const GROUPS: usize = 8;

fn epoch_digests(
    rng: &mut StdRng,
    monitor_cfg: &MonitorConfig,
    worm: &Planting,
    infected: &[usize],
    instances_per_router: usize,
) -> Vec<RouterDigest> {
    let background = BackgroundConfig {
        packets: 1_200,
        flows: 300,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };
    (0..ROUTERS)
        .map(|router| {
            let mut traffic = gen::generate_epoch(rng, &background);
            if infected.contains(&router) {
                for _ in 0..instances_per_router {
                    worm.plant_into(rng, &mut traffic);
                }
            }
            let mut point = MonitoringPoint::new(router, monitor_cfg);
            point.observe_all(&traffic);
            point.finish_epoch()
        })
        .collect()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1337);
    let monitor_cfg = MonitorConfig::small(9, 1 << 14, GROUPS);

    // The worm: a 150-packet attachment; every instance gets a fresh
    // random SMTP prefix (Planting::unaligned draws one per instance).
    let attachment = ContentObject::random(&mut rng, 150 * 536);
    let worm = Planting::unaligned(attachment, 536);

    let mut analysis_cfg = AnalysisConfig::deployed(ROUTERS * GROUPS, 1 << 14);
    // β sized for this deployment: the infected flow groups number in the
    // tens, not the default 50 (which would pad the core with noise).
    analysis_cfg.corefind = CoreFindConfig { beta: 12, d: 2 };

    // Calibration epoch: measure the clean largest component, set the
    // alarm threshold with 1.5x headroom (clamped to a sane floor).
    let clean = epoch_digests(&mut rng, &monitor_cfg, &worm, &[], 0);
    let center = AnalysisCenter::new(analysis_cfg.clone());
    let clean_report = center
        .analyze_epoch(&clean)
        .expect("freshly collected digests form a quorum");
    let threshold =
        ((clean_report.unaligned.largest_component as f64 * 1.5).ceil() as usize).max(8);
    println!(
        "calibration: clean largest component = {}, alarm threshold set to {}",
        clean_report.unaligned.largest_component, threshold
    );
    analysis_cfg.component_threshold = Some(threshold);
    let center = AnalysisCenter::new(analysis_cfg);

    // The outbreak: infections double every epoch.
    let mut infected: Vec<usize> = Vec::new();
    for epoch in 0..4 {
        let new_count = ((3usize) << epoch).min(ROUTERS - infected.len());
        let start = infected.len();
        infected.extend(start..start + new_count);

        let digests = epoch_digests(&mut rng, &monitor_cfg, &worm, &infected, 2);
        let report = center
            .analyze_epoch(&digests)
            .expect("freshly collected digests form a quorum");
        println!(
            "\nepoch {epoch}: {} routers infected ({} total)",
            new_count,
            infected.len()
        );
        println!(
            "  ER test: largest component {} vs threshold {} -> alarm = {}",
            report.unaligned.largest_component,
            report.unaligned.component_threshold,
            report.unaligned.alarm
        );
        if report.unaligned.alarm {
            let mut hits = 0;
            for r in &report.unaligned.suspected_routers {
                if infected.contains(r) {
                    hits += 1;
                }
            }
            println!(
                "  suspected routers: {:?}",
                report.unaligned.suspected_routers
            );
            println!(
                "  {} of {} suspects are truly infected; {} of {} infections localised",
                hits,
                report.unaligned.suspected_routers.len(),
                hits,
                infected.len()
            );
            println!(
                "  -> hand the suspects' flow groups to packet logging for signature extraction"
            );
        } else {
            println!("  infection still below the detectable threshold");
        }
    }
}
