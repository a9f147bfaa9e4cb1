//! The Section V-B.4 stress test: bursty synthetic trace through the real
//! collector → matrix → graph → detection path.
//!
//! The paper cut a tier-1 ISP trace into one-second segments, treated each
//! segment as one interface's epoch (32 groups × 10 offset arrays × 1,024
//! bits), planted content instances, and measured how trace burstiness
//! moves the detectable threshold relative to the uniform Monte-Carlo
//! model. We reproduce the pipeline with the synthetic bursty trace
//! substrate standing in for the ISP trace.

use dcs_bitmap::RowMatrix;
use dcs_collect::{UnalignedCollector, UnalignedConfig};
use dcs_traffic::burst::{coefficient_of_variation, BurstModel};
use dcs_traffic::{gen, BackgroundConfig, ContentObject, Planting, SizeMix};
use dcs_unaligned::corefind::precision_recall;
use dcs_unaligned::lambda::{p_star_for_edge_prob, LambdaTable};
use dcs_unaligned::{build_group_graph, find_pattern, CoreFindConfig, GroupLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one stress-test run.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Trace segments (each plays the role of one interface-epoch).
    pub segments: usize,
    /// Flow-split groups per segment (paper: 32).
    pub groups_per_segment: usize,
    /// Base payload-carrying packets per segment before burst modulation
    /// (sets the array fill; ~586 per group-row reproduces the paper's
    /// ≈ 44 % fill).
    pub packets_per_segment: usize,
    /// Number of segments that carry one planted content instance.
    pub n1: usize,
    /// Content length in packets.
    pub content_packets: usize,
    /// Payload size carrying the content (and the background), bytes.
    pub payload_size: usize,
    /// Burst model for per-segment load modulation.
    pub burst: BurstModel,
    /// Detection-graph edge probability (sets λ′ through p*).
    pub detect_p1: f64,
    /// Core-finding parameters.
    pub corefind: CoreFindConfig,
    /// Master seed.
    pub seed: u64,
}

impl StressConfig {
    /// A reduced-scale default that runs in seconds.
    pub fn small() -> Self {
        let n_groups = 40 * 16;
        StressConfig {
            segments: 40,
            groups_per_segment: 16,
            packets_per_segment: 16 * 586,
            n1: 25,
            content_packets: 150,
            payload_size: 536,
            burst: BurstModel::default(),
            detect_p1: 2.0 / n_groups as f64,
            corefind: CoreFindConfig { beta: 30, d: 2 },
            seed: 0xD05,
        }
    }
}

/// Outcome of a stress-test run.
#[derive(Debug, Clone)]
pub struct StressOutcome {
    /// Total group-vertices in the fused matrix.
    pub groups: usize,
    /// Ground-truth groups that received a content instance.
    pub truth_groups: Vec<u32>,
    /// Groups reported by the detector.
    pub reported_groups: Vec<u32>,
    /// Fraction of reported groups that are true (1 − per-router FP).
    pub precision: f64,
    /// Fraction of truth groups recovered (1 − per-router FN).
    pub recall: f64,
    /// Coefficient of variation of row weights — the burstiness the test
    /// is about.
    pub row_weight_cv: f64,
    /// Mean row weight (for calibrating the uniform-model comparison).
    pub mean_row_weight: f64,
}

/// Runs the full stress pipeline.
pub fn run_stress(cfg: &StressConfig) -> StressOutcome {
    assert!(
        cfg.n1 <= cfg.segments,
        "cannot infect more segments than exist"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let k = 10usize; // arrays per group, paper geometry

    // One shared content object; each infected segment gets an instance
    // with its own random prefix (the unaligned case).
    let object = ContentObject::random(&mut rng, cfg.content_packets * cfg.payload_size);
    let planting = Planting::unaligned(object, cfg.payload_size);

    // Choose infected segments.
    use rand::seq::SliceRandom;
    let mut seg_ids: Vec<usize> = (0..cfg.segments).collect();
    seg_ids.shuffle(&mut rng);
    let infected: std::collections::HashSet<usize> = seg_ids.into_iter().take(cfg.n1).collect();

    let mut rows = RowMatrix::new(1024);
    let mut truth_groups: Vec<u32> = Vec::new();
    for seg in 0..cfg.segments {
        // Bursty load: scale this segment's packet count.
        let mult = cfg.burst.epoch_multiplier(&mut rng);
        let packets = ((cfg.packets_per_segment as f64 * mult) as usize)
            .clamp(cfg.packets_per_segment / 10, cfg.packets_per_segment * 4);
        let mut traffic = gen::generate_epoch(
            &mut rng,
            &BackgroundConfig {
                packets,
                flows: (packets / 12).max(8),
                zipf_exponent: 1.0,
                size_mix: SizeMix::constant(cfg.payload_size),
            },
        );
        let ucfg = UnalignedConfig {
            groups: cfg.groups_per_segment,
            arrays_per_group: k,
            array_bits: 1024,
            payload_modulus: cfg.payload_size,
            min_payload: 500.min(cfg.payload_size),
            large_payload: 1000,
            fragment_len: 16,
            seed: cfg.seed ^ 0xC0DE, // shared content-hash seed
            router_seed: seg as u64, // per-interface offsets
        };
        let mut collector = UnalignedCollector::new(ucfg);
        if infected.contains(&seg) {
            let instance = planting.instantiate(&mut rng);
            let g = collector.group_of(&instance[0]);
            truth_groups.push((seg * cfg.groups_per_segment + g) as u32);
            let at = rng.gen_range(0..=traffic.len());
            traffic.splice(at..at, instance);
        }
        for p in &traffic {
            collector.observe(p);
        }
        rows.vstack(&collector.finish_epoch().to_rows());
    }
    truth_groups.sort_unstable();

    // Burstiness diagnostics.
    let weights = rows.row_weights();
    let counts: Vec<usize> = weights.iter().map(|&w| w as usize).collect();
    let row_weight_cv = coefficient_of_variation(&counts);
    let mean_row_weight = weights.iter().map(|&w| f64::from(w)).sum::<f64>() / weights.len() as f64;

    // Detection-graph construction and core finding.
    let layout = GroupLayout { rows_per_group: k };
    let p_star = p_star_for_edge_prob(cfg.detect_p1, k * k);
    let table = LambdaTable::new(1024, p_star);
    let (graph, _) = build_group_graph(&rows, layout, &table);
    let result = find_pattern(&graph, cfg.corefind);
    let reported_groups = result.vertices();
    let (precision, recall) = precision_recall(&reported_groups, &truth_groups);

    StressOutcome {
        groups: cfg.segments * cfg.groups_per_segment,
        truth_groups,
        reported_groups,
        precision,
        recall,
        row_weight_cv,
        mean_row_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_pipeline_end_to_end() {
        let mut cfg = StressConfig::small();
        cfg.segments = 24;
        cfg.n1 = 18;
        cfg.packets_per_segment = 16 * 500;
        cfg.detect_p1 = 2.0 / (24.0 * 16.0);
        cfg.corefind = CoreFindConfig { beta: 14, d: 2 };
        let out = run_stress(&cfg);
        assert_eq!(out.groups, 24 * 16);
        assert_eq!(out.truth_groups.len(), 18);
        // Burstiness must actually be present.
        assert!(
            out.row_weight_cv > 0.1,
            "cv {} too smooth",
            out.row_weight_cv
        );
        // The detector should find a meaningful part of the pattern with
        // decent precision (exact numbers are the bench's business).
        assert!(out.recall > 0.2, "recall {}", out.recall);
        assert!(out.precision > 0.5, "precision {}", out.precision);
    }

    #[test]
    fn clean_trace_reports_incoherent_core() {
        let mut cfg = StressConfig::small();
        cfg.segments = 16;
        cfg.n1 = 0;
        cfg.packets_per_segment = 16 * 400;
        cfg.detect_p1 = 2.0 / (16.0 * 16.0);
        cfg.corefind = CoreFindConfig { beta: 10, d: 2 };
        let out = run_stress(&cfg);
        assert!(out.truth_groups.is_empty());
        // Precision against an empty truth set is 0 by definition when
        // anything is reported; the meaningful check is recall = 1 (no
        // truth to miss) — and that the pipeline does not crash.
        assert!(out.recall >= 1.0 - f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "cannot infect")]
    fn overfull_infection_rejected() {
        let mut cfg = StressConfig::small();
        cfg.segments = 4;
        cfg.n1 = 5;
        run_stress(&cfg);
    }
}
