//! Accuracy ablations of four design choices (DESIGN.md §10):
//!
//! 1. offset-sampling k — the k² match-probability amplification (§IV-A);
//! 2. flow-split group count — signal magnification from narrower arrays
//!    (§IV-A "magnifying signal strength");
//! 3. screening budget n′ in the refined aligned algorithm (§III-B);
//! 4. core-expansion slack γ (§III-B, Figure 6).

use dcs_bench::{banner, repro_search_config, RunScale};
use dcs_sim::aligned::{detection_ratio, planted_matrix};
use dcs_sim::table::render_table;
use dcs_stats::hypergeom_tail_quantile;
use dcs_unaligned::lambda::{p_star_for_edge_prob, LambdaTable};
use dcs_unaligned::matchmodel::{offset_match_prob, MatchModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ablate_offsets() {
    println!("--- ablation 1: offset-sampling k (match probability ~ 1 - e^(-k^2/536)) ---");
    let p1 = 2.0 / 102_400.0;
    let mut rows = Vec::new();
    for k in [1usize, 5, 10, 20] {
        let mut model = MatchModel::paper_default(100);
        model.k = k;
        let pairs = k * k;
        let p_star = p_star_for_edge_prob(p1, pairs);
        let table = LambdaTable::new(model.n_bits, p_star);
        let lam = table.lambda(model.row_weight as u32, model.row_weight as u32);
        let p2 = model.pattern_edge_prob(lam, p_star);
        rows.push(vec![
            k.to_string(),
            format!("{:.4}", offset_match_prob(k, 536)),
            format!("{:.4}", p2),
            format!("{:.0}", 1.0 / p2),
        ]);
    }
    println!(
        "{}",
        render_table(&["k", "match prob", "p2", "~n1 needed (1/p2)"], &rows)
    );
}

fn ablate_flow_split() {
    println!("--- ablation 2: flow-split group count (131,072 bits, 75,000 pkts/link) ---");
    let mut rows = Vec::new();
    for groups in [1usize, 32, 128, 512] {
        let n_bits = 131_072 / groups;
        let pkts_per_group = 75_000.0 / groups as f64;
        let fill = 1.0 - (-pkts_per_group / n_bits as f64).exp();
        let weight = (n_bits as f64 * fill).round() as usize;
        let mut model = MatchModel::paper_default(100);
        model.n_bits = n_bits;
        model.row_weight = weight;
        let p_star = p_star_for_edge_prob(2.0 / 102_400.0, 100);
        // One λ a row, the quantile a `LambdaTable` cell caches; the
        // one-group row is too wide for a table's 16-bit cells.
        let (n, w) = (n_bits as u64, weight as u64);
        let lam = hypergeom_tail_quantile(p_star, n, w, w) as u32;
        let q = model.matched_exceed_prob(lam);
        rows.push(vec![
            groups.to_string(),
            n_bits.to_string(),
            format!("{:.2}", fill),
            format!("{:.3}", q),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["groups", "array bits", "fill", "matched exceedance q"],
            &rows
        )
    );
    println!("(narrower arrays concentrate the 100-packet signal: q -> 1 as width shrinks)\n");
}

fn ablate_screening(scale: &RunScale) {
    println!("--- ablation 3: screening budget n' (aligned refined algorithm) ---");
    // 60×30 in 500×1M straddles the detectable threshold across the n'
    // range: pattern columns survive the w(n') cut with probability ~0.2
    // at n'=500 but ~0.55 at n'=8000.
    let (m, n, a, b) = (500usize, 1_000_000usize, 60usize, 30usize);
    let cfg = repro_search_config();
    let mut rows = Vec::new();
    for n_prime in [500usize, 2_000, 8_000] {
        let r = detection_ratio(
            0xAB1A ^ (n_prime as u64) << 24,
            m,
            n,
            a,
            b,
            n_prime,
            &cfg,
            scale.reps,
            scale.threads,
        );
        rows.push(vec![n_prime.to_string(), format!("{r:.2}")]);
    }
    println!(
        "{}",
        render_table(&["n'", "detection ratio (60x30 in 500x1M)"], &rows)
    );
}

fn ablate_gamma() {
    println!("--- ablation 4: core-expansion slack gamma ---");
    let mut rng = StdRng::seed_from_u64(0xAB1B);
    let p = planted_matrix(&mut rng, 96, 800, 30, 14);
    let mut rows = Vec::new();
    for gamma in [0u32, 2, 5, 10] {
        let mut cfg = repro_search_config();
        cfg.n_prime = 120;
        cfg.hopefuls = 200;
        cfg.gamma = gamma;
        let det = dcs_aligned::refined_detect(&p.matrix, &cfg);
        let hits = det.cols.iter().filter(|c| p.cols.contains(c)).count();
        let fps = det.cols.len() - hits;
        rows.push(vec![gamma.to_string(), hits.to_string(), fps.to_string()]);
    }
    println!(
        "{}",
        render_table(
            &["gamma", "pattern cols recovered (of 14)", "false cols"],
            &rows
        )
    );
    println!("(small gamma misses shaded pattern columns; huge gamma admits noise)");
}

fn main() {
    let scale = RunScale::from_env(8);
    banner(
        "Ablations — design choices of DESIGN.md",
        "offset k; flow-split groups; screening n'; expansion gamma",
    );
    ablate_offsets();
    ablate_flow_split();
    ablate_screening(&scale);
    ablate_gamma();
}
