//! Table III: the *detectable* thresholds achievable by the greedy
//! algorithm — the minimum pattern size m at which detection is reliable,
//! with the average core size found there.
//!
//! Paper values: (g, m, avg core) = (100, 150, 56), (125, 80, 50),
//! (150, 50, 30). Detectability here means the reported set is mostly
//! correct (precision ≥ 0.9) and recovers a meaningful share of the
//! pattern (recall ≥ 0.3) — the operational test of Section IV-C.

use dcs_bench::{banner, unaligned_paper, RunScale};
use dcs_sim::table::render_table;
use dcs_sim::unaligned::{core_finding_stats, p2_for};
use dcs_unaligned::CoreFindConfig;

fn main() {
    let scale = RunScale::from_env(10);
    banner(
        "Table III — detectable thresholds of the greedy algorithm",
        "n = 102,400; g = 100/125/150; reliability: precision ≥ 0.9, recall ≥ 0.3",
    );
    let n = if scale.quick {
        20_000
    } else {
        unaligned_paper::N
    };
    let p1 = 2.0 / n as f64;
    println!("detection graph p1' = {p1:.2e}, reps = {}", scale.reps);

    let reliable = |seed: u64, n1: usize, p2: f64| {
        let cfg = CoreFindConfig {
            beta: (n1 / 2).max(15),
            d: 2,
        };
        let s = core_finding_stats(seed, n, p1, n1, p2, cfg, scale.reps);
        (
            s,
            s.avg_false_positive <= 0.1 && 1.0 - s.avg_false_negative >= 0.3,
        )
    };

    let mut rows = Vec::new();
    for g in [100usize, 125, 150] {
        let p2 = p2_for(g, p1);
        // Scan n1 upward until reliability holds, then report the stats.
        let seed = 0x7AB3 ^ ((g as u64) << 32);
        let mut found = None;
        let mut n1 = 20;
        while n1 <= 1_200 {
            let (stats, ok) = reliable(seed ^ n1 as u64, n1, p2);
            if ok {
                found = Some((n1, stats));
                break;
            }
            n1 += (n1 / 5).max(10);
        }
        match found {
            Some((n1, stats)) => rows.push(vec![
                g.to_string(),
                n1.to_string(),
                format!("{:.1}", stats.avg_core_size),
                format!("{:.3}", stats.avg_false_negative),
                format!("{:.3}", stats.avg_false_positive),
            ]),
            None => rows.push(vec![
                g.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    println!(
        "{}",
        render_table(
            &["g (pkts)", "detectable m", "avg core", "avg FN", "avg FP"],
            &rows
        )
    );
    println!("(paper: (100, 150, 56), (125, 80, 50), (150, 50, 30))");
}
