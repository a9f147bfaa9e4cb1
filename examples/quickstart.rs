//! Quickstart: detect common content spreading across a small deployment.
//!
//! Sets up 24 monitoring points, pushes one epoch of background traffic
//! through each, plants an identical "hot object" at 18 of them (the
//! aligned case — think a popular file download), ships the digests to
//! the analysis centre and prints the verdict.
//!
//! Run with: `cargo run --release --example quickstart`

use dcs_core::{AnalysisCenter, AnalysisConfig, MonitorConfig, MonitoringPoint};
use dcs_traffic::gen::{self, SizeMix};
use dcs_traffic::{BackgroundConfig, ContentObject, Planting};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    const ROUTERS: usize = 24;
    const INFECTED: usize = 18;

    // The deployed collector settings: every router shares the digest
    // hash seed (so identical payloads hash identically everywhere), on a
    // 16-Kbit aligned bitmap scaled to this toy epoch and 4 groups.
    let monitor_cfg = MonitorConfig::deployed(1 << 14, /*groups=*/ 4);

    // The common content: a 30-packet object carried on 536-byte payloads.
    let object = ContentObject::random_with_packets(&mut rng, 30, 536);
    let hot_object = Planting::aligned(object, 536);

    let background = BackgroundConfig {
        packets: 800,
        flows: 200,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };

    println!("collecting one epoch at {ROUTERS} monitoring points …");
    let mut digests = Vec::new();
    for router in 0..ROUTERS {
        let mut traffic = gen::generate_epoch(&mut rng, &background);
        if router < INFECTED {
            hot_object.plant_into(&mut rng, &mut traffic);
        }
        let mut point = MonitoringPoint::new(router, &monitor_cfg);
        point.observe_all(&traffic);
        digests.push(point.finish_epoch());
    }

    let center = AnalysisCenter::new(AnalysisConfig::deployed(ROUTERS * 4, 1 << 14));
    let report = center
        .analyze_epoch(&digests)
        .expect("freshly collected digests form a quorum");

    println!(
        "digests: {} bytes summarising {} bytes of traffic ({:.0}x compression)",
        report.digest_bytes,
        report.raw_bytes,
        report.compression_ratio()
    );
    if report.aligned.found {
        println!(
            "ALIGNED ALERT: common content of ~{} packets seen by routers {:?}",
            report.aligned.content_packets, report.aligned.routers
        );
        println!(
            "hashed signature (first few indices): {:?}",
            &report.aligned.signature_indices[..report.aligned.signature_indices.len().min(5)]
        );
    } else {
        println!("no aligned common content found");
    }
    println!(
        "unaligned ER test: largest component {} (threshold {}) -> alarm = {}",
        report.unaligned.largest_component,
        report.unaligned.component_threshold,
        report.unaligned.alarm
    );

    // Machine-readable output for downstream tooling.
    println!(
        "\nJSON report:\n{}",
        serde_json::to_string_pretty(&report).expect("report serialises")
    );
}
