//! Flash-crowd detection: a hot Web/P2P object fanned out to many
//! destinations (the *aligned* case), detected across epochs.
//!
//! Demonstrates the detection-across-epochs behaviour the paper leans on
//! ("even if the pattern is missed in one second, it may be caught in the
//! following seconds"): the object's popularity ramps up, and per-epoch
//! verdicts aggregate into a stable alarm with the recovered hash
//! signature tracked across epochs.
//!
//! Run with: `cargo run --release --example hot_object`

use dcs_core::{AnalysisCenter, AnalysisConfig, MonitorConfig, MonitoringPoint};
use dcs_traffic::gen::{self, SizeMix};
use dcs_traffic::{BackgroundConfig, ContentObject, Planting};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const ROUTERS: usize = 24;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let monitor_cfg = MonitorConfig::small(11, 1 << 14, 4);

    // A 40-packet "newly released movie chunk" served to growing crowds.
    let object = ContentObject::random_with_packets(&mut rng, 40, 536);
    let hot = Planting::aligned(object, 536);

    let center = AnalysisCenter::new(AnalysisConfig::deployed(ROUTERS * 4, 1 << 14));

    // Popularity ramp: fraction of routers serving the object per epoch.
    // With 24 monitoring points the detectable threshold sits around 16
    // routers (the greedy plateau must clear the max-selection noise
    // floor), so the crowd crosses it between epochs 1 and 2.
    let ramp = [0.25f64, 0.5, 0.75, 1.0];
    let mut epoch_alarms = 0usize;
    let mut signature_votes: HashMap<usize, usize> = HashMap::new();

    for (epoch, &popularity) in ramp.iter().enumerate() {
        let serving = (ROUTERS as f64 * popularity).round() as usize;
        let mut digests = Vec::new();
        for router in 0..ROUTERS {
            let mut traffic = gen::generate_epoch(
                &mut rng,
                &BackgroundConfig {
                    packets: 900,
                    flows: 250,
                    zipf_exponent: 1.1,
                    size_mix: SizeMix::constant(536),
                },
            );
            if router < serving {
                // Busy mirrors push several copies per epoch.
                let copies = 1 + rng.gen_range(0..2);
                for _ in 0..copies {
                    hot.plant_into(&mut rng, &mut traffic);
                }
            }
            let mut point = MonitoringPoint::new(router, &monitor_cfg);
            point.observe_all(&traffic);
            digests.push(point.finish_epoch());
        }
        let report = center
            .analyze_epoch(&digests)
            .expect("freshly collected digests form a quorum");
        println!(
            "epoch {epoch}: {serving}/{ROUTERS} routers serving; found = {}; {} routers flagged; \
             {} signature indices; compression {:.0}x",
            report.aligned.found,
            report.aligned.routers.len(),
            report.aligned.content_packets,
            report.compression_ratio()
        );
        if report.aligned.found {
            epoch_alarms += 1;
            for &idx in &report.aligned.signature_indices {
                *signature_votes.entry(idx).or_default() += 1;
            }
        }
    }

    // Signature indices recovered in 2+ epochs are (with this epoch seed)
    // stable content packets — ready to prime a packet logger.
    let stable: Vec<usize> = signature_votes
        .iter()
        .filter(|&(_, &votes)| votes >= 2)
        .map(|(&idx, _)| idx)
        .collect();
    println!(
        "\n{epoch_alarms}/{} epochs alarmed; {} signature indices stable across epochs",
        ramp.len(),
        stable.len()
    );
    assert!(
        epoch_alarms >= 2,
        "the flash crowd should be caught in the later epochs"
    );
}
