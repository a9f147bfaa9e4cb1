//! Baseline comparison (paper Sections I, II-B, VI): DCS digests vs raw
//! aggregation vs shipped fingerprints vs a single-vantage prevalence
//! detector, on the same planted epoch.
//!
//! The paper's argument, quantified on an implemented system:
//! * raw aggregation detects perfectly but ships the whole network
//!   ("would require doubling the network capacity");
//! * per-packet fingerprints cut shipping ~70× but the centre holds
//!   per-packet state (2.4 M entries per second per OC-48 link);
//! * a local detector holds tiny state but is *blind* to content spread
//!   one instance per link;
//! * DCS digests hold per-bit state and still find the content and the
//!   routers carrying it. On this epoch they ship 62× less than raw
//!   (184,824 digest bytes against 11,370,240): each digest carries both
//!   collectors' bitmaps over only 800 background packets. The aligned
//!   digest alone at Section III-A's sizing ships over 1,000× less
//!   (`aligned_digest_is_a_thousandth_of_the_traffic` in
//!   `tests/thresholds_vs_detection.rs`).

use dcs_bench::{banner, RunScale};
use dcs_core::{AnalysisCenter, AnalysisConfig, MonitorConfig, MonitoringPoint};
use dcs_sim::baseline::{LocalPrevalenceDetector, RawAggregationDetector};
use dcs_sim::table::render_table;
use dcs_traffic::gen::{self, SizeMix};
use dcs_traffic::{BackgroundConfig, ContentObject, Planting};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUTERS: usize = 24;
const INFECTED: usize = 18;
const CONTENT_PACKETS: usize = 30;

fn main() {
    let _scale = RunScale::from_env(1);
    banner(
        "Baselines — raw aggregation, fingerprints, local prevalence vs DCS",
        "Sections I / II-B / VI; one epoch, 18 of 24 routers infected",
    );
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    let monitor_cfg = MonitorConfig::deployed(1 << 14, 4);
    let object = ContentObject::random_with_packets(&mut rng, CONTENT_PACKETS, 536);
    let plant = Planting::aligned(object, 536);
    let bg = BackgroundConfig {
        packets: 800,
        flows: 200,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };

    // Shared epoch of traffic.
    let traffic: Vec<Vec<dcs_traffic::Packet>> = (0..ROUTERS)
        .map(|r| {
            let mut t = gen::generate_epoch(&mut rng, &bg);
            if r < INFECTED {
                plant.plant_into(&mut rng, &mut t);
            }
            t
        })
        .collect();

    // --- DCS ---
    let mut digests = Vec::new();
    for (r, t) in traffic.iter().enumerate() {
        let mut point = MonitoringPoint::new(r, &monitor_cfg);
        point.observe_all(t);
        digests.push(point.finish_epoch());
    }
    let report = AnalysisCenter::new(AnalysisConfig::deployed(ROUTERS * 4, 1 << 14))
        .analyze_epoch(&digests)
        .expect("freshly collected digests form a quorum");
    let dcs_hits = report
        .aligned
        .routers
        .iter()
        .filter(|&&r| r < INFECTED)
        .count();

    // --- raw aggregation / fingerprints ---
    let mut raw = RawAggregationDetector::new(7);
    for (r, t) in traffic.iter().enumerate() {
        raw.ingest(r as u32, t);
    }
    let exact = raw.detect(INFECTED / 2, CONTENT_PACKETS / 2);
    let raw_found = !exact.is_empty();
    let raw_hits = exact
        .first()
        .map(|c| {
            c.routers
                .iter()
                .filter(|&&r| (r as usize) < INFECTED)
                .count()
        })
        .unwrap_or(0);

    // --- local prevalence, per router ---
    let mut local_alarms = 0usize;
    for t in &traffic {
        let mut local = LocalPrevalenceDetector::new(7);
        for p in t {
            local.observe(p);
        }
        if local.alarm(2) {
            local_alarms += 1;
        }
    }

    let rows = vec![
        vec![
            "raw aggregation".into(),
            format!("{}", raw.raw_bytes()),
            "per-packet".into(),
            format!("{raw_found} ({raw_hits}/{INFECTED} routers)"),
        ],
        vec![
            "fingerprint ship".into(),
            format!("{}", raw.fingerprint_bytes()),
            format!("{} entries", raw.table_entries()),
            format!("{raw_found} ({raw_hits}/{INFECTED} routers)"),
        ],
        vec![
            "local prevalence".into(),
            "0 (local only)".into(),
            "per-payload/link".into(),
            format!("{} of {ROUTERS} links alarmed", local_alarms),
        ],
        vec![
            "DCS digests".into(),
            format!("{}", report.digest_bytes),
            "fixed bitmaps".into(),
            format!("{} ({dcs_hits}/{INFECTED} routers)", report.aligned.found),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "method",
                "bytes shipped",
                "centre state",
                "detects the content?"
            ],
            &rows
        )
    );
    println!(
        "shipping ratios vs raw: fingerprints {:.0}x, DCS {:.0}x",
        raw.raw_bytes() as f64 / raw.fingerprint_bytes() as f64,
        raw.raw_bytes() as f64 / report.digest_bytes as f64,
    );
    println!(
        "(the local detector sees max prevalence 1 for one-instance-per-link \
         content — the paper's motivating blind spot)"
    );
    // Digest size is *fixed per epoch* while fingerprints scale with the
    // packet rate; extrapolate both to a full OC-48 second per link.
    let oc48_pkts = 2_400_000f64;
    let fp_oc48 = oc48_pkts * 8.0;
    let dcs_oc48 = (4 * 1024 * 1024) as f64 / 8.0 // 4-Mbit aligned bitmap
        + (128 * 10 * 1024) as f64 / 8.0; // 128 groups × 10 arrays × 1024 b
    println!(
        "at OC-48 line rate the gap opens: fingerprints {:.1} MB/s/link vs \
         DCS {:.2} MB/s/link ({:.0}x smaller, and independent of packet rate)",
        fp_oc48 / 1e6,
        dcs_oc48 / 1e6,
        fp_oc48 / dcs_oc48
    );
}
