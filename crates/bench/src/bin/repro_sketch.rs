//! Sidecar-sketch measurements: heavy-hitter recall and wire overhead on
//! one deterministic deployment. Emits `BENCH_sketch.json`.
//!
//! Each epoch plants a 30-packet content object at 20 of 24 routers and
//! has every infected router replay it heavily, so the deployment has a
//! known set of true heavy columns. Every bundle ships a content-index
//! Space-Saving artifact; the centre fuses them, lists the top-k in its
//! report, and the run reports:
//!
//! * **recall** — fraction of the fused sketch's top-k that are true
//!   heavy columns (exact counts over the generated traffic are the
//!   ground truth);
//! * **bytes ratio** — sketch artifact bytes ÷ digest bytes (the
//!   sidecar must stay a rounding error next to the bitmaps).
//!
//! Honours `DCS_SCALE=quick` (128-Kbit digests) and `DCS_REPS` as the
//! epoch count of the full paper-scale (4-Mbit) run.

use dcs_bench::{banner, write_report, BenchError, RunScale, StageGauges};
use dcs_core::monitor::{MonitorConfig, MonitoringPoint, RouterDigest, SketchSpec};
use dcs_core::{AnalysisCenter, AnalysisConfig, MetricsSnapshot};
use dcs_traffic::{gen, BackgroundConfig, ContentObject, Packet, Planting, SizeMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::process::ExitCode;

const ROUTERS: usize = 24;
const INFECTED: usize = 20;
const CONTENT_PACKETS: usize = 30;
// 41 copies of each content column per infected leaf against 800
// background singletons: with cap 64 the Space-Saving retention
// guarantee (count > total/cap ≈ 32) pins every column in every leaf
// sketch, independent of offer order.
const REPLAYS: usize = 40;
const SKETCH_CAP: usize = 64;

#[derive(serde::Serialize)]
struct EpochRow {
    epoch: usize,
    found: bool,
    recall: f64,
    top_columns: usize,
}

#[derive(serde::Serialize)]
struct Report {
    generator: String,
    cpus_available: usize,
    scale: String,
    note: String,
    routers: usize,
    infected: usize,
    bits: usize,
    sketch_cap: usize,
    epochs: Vec<EpochRow>,
    /// Mean fused-sketch top-k recall against exact heavy columns.
    recall_mean: f64,
    /// Sketch artifact bytes ÷ digest bytes, whole run.
    sketch_bytes_ratio: f64,
    digest_bytes: u64,
    sketch_bytes: u64,
    /// Per-stage breakdown of the final epoch (includes
    /// `sketch_fuse_ns`).
    center_stage_ns: StageGauges,
    /// The centre's cumulative metrics snapshot.
    metrics: MetricsSnapshot,
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), BenchError> {
    banner(
        "sidecar sketch: heavy-hitter recall, wire overhead",
        "dcs-sketch reporting artifact at 24×4 Mbit",
    );
    let scale = RunScale::from_env(3);
    let (bits, epochs) = if scale.quick {
        (1 << 17, 2)
    } else {
        (4 * 1024 * 1024, scale.reps)
    };
    let seed = 0x5EE7_C4B0_u64;

    let mcfg = MonitorConfig::small(7, bits, 4).with_sketch(SketchSpec::heavy_content(SKETCH_CAP));
    let mut acfg = AnalysisConfig::for_groups(ROUTERS * 4);
    acfg.search.n_prime = 400.min(bits);
    acfg.search.hopefuls = 300.min(bits);
    let center = AnalysisCenter::new(acfg);
    // Probe collector for exact ground-truth column counts.
    let probe = dcs_collect::AlignedCollector::new(mcfg.aligned.clone());

    let bg = BackgroundConfig {
        packets: 800,
        flows: 200,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };

    let mut rows = Vec::new();
    let mut digest_bytes = 0u64;
    let mut sketch_bytes = 0u64;
    println!(
        "\n{:<6} {:>6} {:>7} {:>6}",
        "epoch", "found", "recall", "top_k"
    );
    for e in 0..epochs {
        let epoch_seed = seed.wrapping_add(e as u64 * 0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(epoch_seed);
        let object = ContentObject::random_with_packets(&mut rng, CONTENT_PACKETS, 536);
        let plant = Planting::aligned(object.clone(), 536);
        let heavy_payloads = object.packetize(&[], 536);

        let mut true_counts: HashMap<usize, u64> = HashMap::new();
        let digests: Vec<RouterDigest> = (0..ROUTERS)
            .map(|id| {
                let mut traffic = gen::generate_epoch(&mut rng, &bg);
                if id < INFECTED {
                    plant.plant_into(&mut rng, &mut traffic);
                    // Heavy replay: the object circulates REPLAYS times
                    // on fresh flows, making its columns the epoch's
                    // true heavy hitters.
                    for _ in 0..REPLAYS {
                        let flow = dcs_traffic::FlowLabel::random(&mut rng);
                        let at = rng.gen_range(0..=traffic.len());
                        let burst: Vec<Packet> = heavy_payloads
                            .iter()
                            .map(|p| Packet::new(flow, p.clone()))
                            .collect();
                        traffic.splice(at..at, burst);
                    }
                }
                for pkt in &traffic {
                    if let Some(c) = probe.index_of(pkt) {
                        *true_counts.entry(c).or_insert(0) += 1;
                    }
                }
                let mut mp = MonitoringPoint::new(id, &mcfg);
                mp.observe_all(&traffic);
                mp.finish_epoch()
            })
            .collect();
        for d in &digests {
            digest_bytes += d.encoded_len() as u64;
            sketch_bytes += d.artifact_bytes() as u64;
        }

        let report = center.analyze_epoch(&digests).expect("full quorum");
        let top = &report.sketch.top_columns;

        // Ground truth: the heavy set is every column whose exact count
        // reaches the k-th largest (ties included), so recall is
        // well-defined when the replayed columns tie.
        let k = top.len().max(1);
        let mut counts: Vec<u64> = true_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let kth = counts.get(k - 1).copied().unwrap_or(0);
        let hits = top
            .iter()
            .filter(|c| true_counts.get(c).copied().unwrap_or(0) >= kth)
            .count();
        let recall = hits as f64 / k as f64;

        let row = EpochRow {
            epoch: e,
            found: report.aligned.found,
            recall,
            top_columns: top.len(),
        };
        println!(
            "{:<6} {:>6} {:>7.3} {:>6}",
            e, row.found, row.recall, row.top_columns
        );
        rows.push(row);
    }

    let recall_mean = rows.iter().map(|r| r.recall).sum::<f64>() / rows.len().max(1) as f64;
    let sketch_bytes_ratio = sketch_bytes as f64 / digest_bytes.max(1) as f64;
    println!(
        "\nmean top-k recall {recall_mean:.3}, sketch overhead {:.2}% of digest bytes",
        sketch_bytes_ratio * 100.0
    );
    if recall_mean < 0.9 {
        return Err(BenchError::Gate(format!(
            "fused sketch recall {recall_mean:.3} below the 0.9 gate"
        )));
    }
    if sketch_bytes_ratio > 0.05 {
        return Err(BenchError::Gate(format!(
            "sketch bytes are {:.2}% of digest bytes (gate: 5%)",
            sketch_bytes_ratio * 100.0
        )));
    }

    let report = Report {
        generator: "repro_sketch".to_string(),
        cpus_available: std::thread::available_parallelism().map_or(1, |p| p.get()),
        scale: if scale.quick { "quick" } else { "full" }.to_string(),
        note: "content-index Space-Saving sidecar at every monitoring point: the \
               centre fuses 24 leaf sketches per epoch and lists the top-k in its \
               report (the sketch never feeds detection); recall is measured \
               against exact column counts of the generated traffic"
            .to_string(),
        routers: ROUTERS,
        infected: INFECTED,
        bits,
        sketch_cap: SKETCH_CAP,
        epochs: rows,
        recall_mean,
        sketch_bytes_ratio,
        digest_bytes,
        sketch_bytes,
        center_stage_ns: StageGauges::from_snapshot(&center.metrics()),
        metrics: center.metrics(),
    };
    write_report("BENCH_sketch.json", &report)?;
    println!("wrote BENCH_sketch.json");
    Ok(())
}
