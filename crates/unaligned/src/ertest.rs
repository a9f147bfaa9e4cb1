//! The Erdős–Rényi statistical test (paper Section IV-B).
//!
//! Null hypothesis: the group graph is an instance of G(n, p₁) with p₁
//! held below the 1/n phase transition, so its largest connected component
//! is O(log n). Alternative: some subset of vertices attaches
//! preferentially (edge probability p₂ ≫ p₁), merging the small components
//! into a giant one. The test statistic is simply the size of the largest
//! connected component, and the alarm threshold on it is
//! [`dcs_stats::component_threshold`]: the size the null graph's largest
//! component exceeds with probability at most ε.

use dcs_graph::{component_sizes, Graph};

/// Outcome of the ER test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErTestResult {
    /// Size of the largest connected component.
    pub largest_component: usize,
    /// Whether the alarm fired (largest > threshold).
    pub alarm: bool,
}

/// Runs the test on a group graph: alarm when the largest component is
/// larger than `threshold`.
pub fn er_test(graph: &Graph, threshold: usize) -> ErTestResult {
    let largest = component_sizes(graph).first().copied().unwrap_or(0);
    ErTestResult {
        largest_component: largest,
        alarm: largest > threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::er::{gnp, gnp_planted, PlantedConfig};
    use dcs_stats::component_threshold;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn null_graph_stays_quiet() {
        let mut r = StdRng::seed_from_u64(1);
        let n = 50_000;
        let p1 = 0.65 / n as f64; // same margin below 1/n as the paper
        let threshold = component_threshold(n, p1, 1e-3);
        for _ in 0..5 {
            let g = gnp(&mut r, n, p1);
            let res = er_test(&g, threshold);
            assert!(
                !res.alarm,
                "false alarm: largest {} vs threshold {threshold}",
                res.largest_component
            );
        }
    }

    #[test]
    fn planted_pattern_fires_alarm() {
        let mut r = StdRng::seed_from_u64(2);
        let n = 50_000;
        let p1 = 0.65 / n as f64;
        let threshold = component_threshold(n, p1, 1e-3);
        let (g, _) = gnp_planted(
            &mut r,
            PlantedConfig {
                n,
                p1,
                n1: 140,
                p2: 0.17,
            },
        );
        let res = er_test(&g, threshold);
        assert!(
            res.alarm,
            "missed pattern: largest {} vs threshold {threshold}",
            res.largest_component
        );
        // The giant dwarfs the runner-up.
        let second = component_sizes(&g).get(1).copied().unwrap_or(0);
        assert!(res.largest_component > 3 * second.max(1));
    }

    #[test]
    fn alarm_threshold_is_strict_inequality() {
        let mut b = dcs_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let res = er_test(&g, 3);
        assert_eq!(res.largest_component, 3);
        assert!(!res.alarm, "component == threshold must not alarm");
    }

    #[test]
    fn empty_graph() {
        let g = dcs_graph::GraphBuilder::new(0).build();
        let res = er_test(&g, component_threshold(0, 0.5, 1e-3));
        assert_eq!(res.largest_component, 0);
        assert!(!res.alarm);
    }
}
