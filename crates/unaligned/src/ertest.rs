//! The Erdős–Rényi statistical test (paper Section IV-B).
//!
//! Null hypothesis: the group graph is an instance of G(n, p₁) with p₁
//! held below the 1/n phase transition, so its largest connected component
//! is O(log n). Alternative: some subset of vertices attaches
//! preferentially (edge probability p₂ ≫ p₁), merging the small components
//! into a giant one. The test statistic is simply the size of the largest
//! connected component.

use dcs_graph::{component_sizes, Graph};

/// Configuration of the ER test.
#[derive(Debug, Clone, Copy)]
pub struct ErTestConfig {
    /// Alarm threshold on the largest-component size (the paper sets 100
    /// for n = 102,400 — comfortably above the O(log n) null range and
    /// below the pattern-merged giant).
    pub component_threshold: usize,
}

impl ErTestConfig {
    /// The paper's Figure-13 threshold.
    pub fn paper_default() -> Self {
        ErTestConfig {
            component_threshold: 100,
        }
    }

    /// A threshold scaled for a graph of `n` vertices at null edge
    /// probability `p1`.
    ///
    /// The asymptotic subcritical bound `ln n / (c − 1 − ln c)` (c = n·p₁)
    /// overshoots the empirical null maximum by ~3× at these sizes, so the
    /// constant here is calibrated against measurement: at the paper's
    /// operating point c = 0.65 the null largest component tops out near
    /// 6·ln n, and 9·ln n gives the same ~1.5× headroom the paper's fixed
    /// threshold of 100 has at n = 102,400. Other c values scale by the
    /// subcritical rate ratio.
    ///
    /// # Panics
    /// Panics if `n == 0` or p₁ is not in `(0, 1)`.
    pub fn scaled(n: usize, p1: f64) -> Self {
        assert!(n > 0, "empty graph");
        assert!(p1 > 0.0 && p1 < 1.0, "p1 must be in (0,1)");
        let c = n as f64 * p1; // mean degree; < 1 below the transition
        assert!(c < 1.0, "p1 = {p1} is at or above the phase transition 1/n");
        let rate_ref = 0.65_f64 - 1.0 - 0.65_f64.ln(); // ≈ 0.0808
        let rate = c - 1.0 - c.ln();
        let threshold = 9.0 * (n as f64).ln() * rate_ref / rate;
        ErTestConfig {
            component_threshold: threshold.ceil() as usize,
        }
    }
}

/// Outcome of the ER test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErTestResult {
    /// Size of the largest connected component.
    pub largest_component: usize,
    /// Size of the second-largest component (diagnostic: under the
    /// alternative the gap between first and second is large).
    pub second_component: usize,
    /// Whether the alarm fired (largest > threshold).
    pub alarm: bool,
}

/// Runs the test on a group graph.
pub fn er_test(graph: &Graph, cfg: ErTestConfig) -> ErTestResult {
    let sizes = component_sizes(graph);
    let largest = sizes.first().copied().unwrap_or(0);
    let second = sizes.get(1).copied().unwrap_or(0);
    ErTestResult {
        largest_component: largest,
        second_component: second,
        alarm: largest > cfg.component_threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::er::{gnp, gnp_planted, PlantedConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn null_graph_stays_quiet() {
        let mut r = StdRng::seed_from_u64(1);
        let n = 50_000;
        let p1 = 0.65 / n as f64; // same margin below 1/n as the paper
        let cfg = ErTestConfig::scaled(n, p1);
        for _ in 0..5 {
            let g = gnp(&mut r, n, p1);
            let res = er_test(&g, cfg);
            assert!(
                !res.alarm,
                "false alarm: largest {} vs threshold {}",
                res.largest_component, cfg.component_threshold
            );
        }
    }

    #[test]
    fn planted_pattern_fires_alarm() {
        let mut r = StdRng::seed_from_u64(2);
        let n = 50_000;
        let p1 = 0.65 / n as f64;
        let cfg = ErTestConfig::scaled(n, p1);
        let (g, _) = gnp_planted(
            &mut r,
            PlantedConfig {
                n,
                p1,
                n1: 140,
                p2: 0.17,
            },
        );
        let res = er_test(&g, cfg);
        assert!(
            res.alarm,
            "missed pattern: largest {} vs threshold {}",
            res.largest_component, cfg.component_threshold
        );
        // The giant dwarfs the runner-up.
        assert!(res.largest_component > 3 * res.second_component.max(1));
    }

    #[test]
    fn alarm_threshold_is_strict_inequality() {
        let mut b = dcs_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let res = er_test(
            &g,
            ErTestConfig {
                component_threshold: 3,
            },
        );
        assert_eq!(res.largest_component, 3);
        assert!(!res.alarm, "component == threshold must not alarm");
    }

    #[test]
    fn empty_graph() {
        let g = dcs_graph::GraphBuilder::new(0).build();
        let res = er_test(&g, ErTestConfig::paper_default());
        assert_eq!(res.largest_component, 0);
        assert!(!res.alarm);
    }

    #[test]
    #[should_panic(expected = "phase transition")]
    fn supercritical_p1_rejected() {
        ErTestConfig::scaled(100, 0.02);
    }

    #[test]
    fn paper_threshold_value() {
        assert_eq!(ErTestConfig::paper_default().component_threshold, 100);
    }
}
