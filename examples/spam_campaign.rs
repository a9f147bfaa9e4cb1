//! Spam-campaign detection with trace capture and replay.
//!
//! A spam blast delivers the same message body behind varying SMTP
//! headers (the unaligned case). This example additionally exercises the
//! trace substrate: each router's epoch is written to the binary trace
//! format, read back, and only then fed to the collectors — proving the
//! whole detection path runs off recorded traces byte-for-byte.
//!
//! Run with: `cargo run --release --example spam_campaign`

use dcs_core::{AnalysisCenter, AnalysisConfig, MonitorConfig, MonitoringPoint};
use dcs_traffic::gen::{self, SizeMix};
use dcs_traffic::trace::{TraceReader, TraceWriter};
use dcs_traffic::{BackgroundConfig, ContentObject, Planting};
use dcs_unaligned::CoreFindConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUTERS: usize = 30;
const GROUPS: usize = 8;

fn main() {
    let mut rng = StdRng::seed_from_u64(0x5BA7);
    let monitor_cfg = MonitorConfig::small(13, 1 << 14, GROUPS);

    // The spam body: ~120 payloads worth of identical content; each copy
    // gets its own random header prefix.
    let body = ContentObject::random(&mut rng, 120 * 536);
    let spam = Planting::unaligned(body, 536);

    // Capture phase: record every router's epoch to an in-memory trace
    // file (swap the Vec for a std::fs::File to persist).
    let mail_relays: Vec<usize> = (0..ROUTERS).step_by(2).collect(); // half relay mail
    let mut trace_files: Vec<Vec<u8>> = Vec::new();
    let mut raw_packets = 0u64;
    for router in 0..ROUTERS {
        let mut traffic = gen::generate_epoch(
            &mut rng,
            &BackgroundConfig {
                packets: 1_000,
                flows: 250,
                zipf_exponent: 1.0,
                size_mix: SizeMix::constant(536),
            },
        );
        if mail_relays.contains(&router) {
            // Each relay forwards a couple of copies of the blast.
            spam.plant_into(&mut rng, &mut traffic);
            spam.plant_into(&mut rng, &mut traffic);
        }
        let mut w = TraceWriter::new(Vec::new()).expect("trace header");
        w.write_all_packets(&traffic).expect("trace body");
        raw_packets += w.count();
        trace_files.push(w.finish().expect("trace flush"));
    }
    println!(
        "captured {raw_packets} packets across {ROUTERS} traces ({} bytes total)",
        trace_files.iter().map(Vec::len).sum::<usize>()
    );

    // Replay phase: feed the recorded traces to the monitoring points.
    let mut digests = Vec::new();
    for (router, file) in trace_files.iter().enumerate() {
        let mut point = MonitoringPoint::new(router, &monitor_cfg);
        for pkt in TraceReader::new(file.as_slice()).expect("trace magic") {
            point.observe(&pkt.expect("well-formed record"));
        }
        digests.push(point.finish_epoch());
    }

    // Analysis: calibrate the ER threshold on a clean replay, then test.
    let mut analysis_cfg = AnalysisConfig::deployed(ROUTERS * GROUPS, 1 << 14);
    analysis_cfg.component_threshold = Some(12);
    // ~30 relay flow-groups carry the blast; size the core accordingly.
    analysis_cfg.corefind = CoreFindConfig { beta: 12, d: 2 };
    let center = AnalysisCenter::new(analysis_cfg);
    let report = center
        .analyze_epoch(&digests)
        .expect("freshly collected digests form a quorum");

    println!(
        "ER test: largest component {} vs threshold {} -> alarm = {}",
        report.unaligned.largest_component,
        report.unaligned.component_threshold,
        report.unaligned.alarm
    );
    if report.unaligned.alarm {
        let hits = report
            .unaligned
            .suspected_routers
            .iter()
            .filter(|r| mail_relays.contains(r))
            .count();
        println!(
            "suspected relays: {:?} ({hits}/{} correct)",
            report.unaligned.suspected_routers,
            report.unaligned.suspected_routers.len()
        );
        println!("-> block list / rate limits go to those relays' operators");
    } else {
        println!("campaign below detectable threshold this epoch");
    }
}
