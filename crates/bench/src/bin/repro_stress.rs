//! Section V-B.4: the bursty-trace stress test.
//!
//! Replays the paper's methodology on the synthetic bursty trace: cut the
//! trace into segments, flow-split each into 32 groups × 10 arrays of
//! 1,024 bits, plant unaligned content instances into n₁ segments, run
//! the full matrix → graph → detection path, and compare against the
//! uniform graph-model Monte-Carlo at the same (n, n₁).
//!
//! Paper finding: burstiness *helps* slightly — 121 vertices sufficed
//! where the uniform model needed 125 (Zipf elephants concentrate in a
//! few rows, leaving the majority of rows lighter and their signal
//! stronger).

use dcs_bench::{banner, RunScale};
use dcs_sim::stress::{run_stress, StressConfig};
use dcs_sim::table::render_table;
use dcs_sim::unaligned::core_finding_stats;
use dcs_traffic::burst::BurstModel;
use dcs_unaligned::lambda::p_star_for_edge_prob;
use dcs_unaligned::{CoreFindConfig, LambdaTable, MatchModel};

fn main() {
    let scale = RunScale::from_env(3);
    banner(
        "Stress test — bursty trace vs uniform Monte-Carlo",
        "Section V-B.4: 32 groups × 10 arrays × 1024 bits per segment",
    );
    let segments = if scale.quick { 30 } else { 100 };
    let groups_per_segment = if scale.quick { 16 } else { 32 };
    let n_groups = segments * groups_per_segment;
    // Fix the per-row-pair exceedance level p* at the paper's operating
    // point (≈2e-7, the level its 102,400-vertex detection graph uses)
    // instead of scaling λ′ with our smaller group count: at a lax λ′ the
    // matched-pair exceedance saturates at 1 for *any* fill and the
    // burstiness effect the experiment measures disappears.
    let p_star: f64 = 2.0e-7;
    let detect_p1 = 1.0 - (1.0 - p_star).powi(100);
    // g = 100 keeps the matched-pair exceedance q well below 1 at the design
    // fill — the unsaturated regime where burstiness can matter (the paper's
    // own stress content is 100 packets).
    let content_packets = 100;
    let n1 = if scale.quick { 24 } else { 80 };
    let cfg = StressConfig {
        segments,
        groups_per_segment,
        packets_per_segment: groups_per_segment * 586,
        n1,
        content_packets,
        payload_size: 536,
        burst: BurstModel::default(),
        detect_p1,
        corefind: CoreFindConfig {
            beta: (n1 / 2).max(10),
            d: 2,
        },
        seed: 0x57E55,
    };

    let mut rows = Vec::new();
    let mut mean_weight_acc = 0.0;
    let mut bursty_recall_acc = 0.0;
    for rep in 0..scale.reps {
        let mut c = cfg.clone();
        c.seed ^= (rep as u64) << 16;
        let out = run_stress(&c);
        mean_weight_acc += out.mean_row_weight;
        bursty_recall_acc += out.recall;
        rows.push(vec![
            format!("bursty #{rep}"),
            out.groups.to_string(),
            out.truth_groups.len().to_string(),
            out.reported_groups.len().to_string(),
            format!("{:.3}", out.recall),
            format!("{:.3}", out.precision),
            format!("{:.2}", out.row_weight_cv),
        ]);
    }
    let mean_weight = mean_weight_acc / scale.reps as f64;

    // Uniform comparison: the same total traffic spread evenly — every
    // row carries the *design* weight 1024·(1 − e^(−pkts_per_row/1024)).
    // (Burstiness pushes the measured mean weight below this because
    // overloaded elephant rows lose distinct bits to collisions while the
    // majority of rows run light — exactly the effect the paper observed
    // to help detection.)
    let pkts_per_row = cfg.packets_per_segment as f64 / groups_per_segment as f64;
    let design_weight = 1024.0 * (1.0 - (-pkts_per_row / 1024.0).exp());
    let mut model = MatchModel::paper_default(content_packets);
    model.row_weight = design_weight.round() as usize;
    let p_star = p_star_for_edge_prob(detect_p1, model.k * model.k);
    let table = LambdaTable::new(model.n_bits, p_star);
    let lam = table.lambda(model.row_weight as u32, model.row_weight as u32);
    let p2 = model.pattern_edge_prob(lam, p_star);
    let uni = core_finding_stats(
        0x57E55,
        n_groups,
        detect_p1,
        n1,
        p2,
        cfg.corefind,
        scale.reps.max(5),
    );
    rows.push(vec![
        "uniform MC".into(),
        n_groups.to_string(),
        n1.to_string(),
        format!("{:.1}", uni.avg_core_size),
        format!("{:.3}", 1.0 - uni.avg_false_negative),
        format!("{:.3}", 1.0 - uni.avg_false_positive),
        "0.00".into(),
    ]);
    println!(
        "{}",
        render_table(
            &[
                "run",
                "groups",
                "n1",
                "reported",
                "recall",
                "precision",
                "weight CV"
            ],
            &rows
        )
    );
    let bursty_recall = bursty_recall_acc / scale.reps as f64;
    println!(
        "bursty mean recall {:.3} vs uniform-model recall {:.3}",
        bursty_recall,
        1.0 - uni.avg_false_negative,
    );
    println!(
        "(design row weight {:.0}, measured bursty mean weight {:.0}, uniform-model p2 = {:.4})",
        design_weight, mean_weight, p2
    );
    println!("(paper: burstiness slightly lowers the detectable threshold — 121 vs 125 vertices)");
}
