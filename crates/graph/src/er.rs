//! Erdős–Rényi G(n, p) sampling and planted-pattern models.
//!
//! The sampler uses geometric skipping over the C(n,2) linearised pair
//! index, so generating a 102,400-vertex null graph with p ≈ 0.65×10⁻⁵
//! (the paper's Figure-13 configuration, ~34k edges out of 5.2 billion
//! pairs) costs time proportional to the edge count, not the pair count.

use crate::{Graph, GraphBuilder};
use dcs_stats::sample::sample_geometric;
use rand::seq::SliceRandom;
use rand::Rng;

/// Maps a linear pair index `t ∈ [0, C(n,2))` to the pair `(i, j)`, `i < j`,
/// in lexicographic order.
fn unrank_pair(t: u64, n: u64) -> (u32, u32) {
    // Row i owns indices [S(i), S(i) + (n-1-i)) where S(i) = i·n − i(i+1)/2.
    // Solve for i with a float guess then fix up.
    let tn = t as f64;
    let nf = n as f64;
    // Invert S(i) ≈ i·n − i²/2: i ≈ n − 0.5 − sqrt((n−0.5)² − 2t).
    let disc = (nf - 0.5) * (nf - 0.5) - 2.0 * tn;
    let mut i = if disc <= 0.0 {
        n - 2
    } else {
        (nf - 0.5 - disc.sqrt()).floor().max(0.0) as u64
    };
    let row_start = |i: u64| i * n - i * (i + 1) / 2;
    // Fix up float error: walk to the correct row.
    while i + 1 < n && row_start(i + 1) <= t {
        i += 1;
    }
    while i > 0 && row_start(i) > t {
        i -= 1;
    }
    let j = i + 1 + (t - row_start(i));
    debug_assert!(j < n, "unrank produced out-of-range column");
    (i as u32, j as u32)
}

/// Appends G(n, p) edges to `builder` using geometric skips: expected cost
/// O(p·C(n,2)).
///
/// # Panics
/// Panics unless `0 ≤ p ≤ 1` and the builder has at least `n` vertices.
pub fn add_gnp_edges<R: Rng + ?Sized>(rng: &mut R, builder: &mut GraphBuilder, n: usize, p: f64) {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    if n < 2 || p == 0.0 {
        return;
    }
    let total = n as u64 * (n as u64 - 1) / 2;
    let mut t = sample_geometric(rng, p);
    while t < total {
        let (i, j) = unrank_pair(t, n as u64);
        builder.add_edge(i, j);
        t += 1 + sample_geometric(rng, p);
    }
}

/// Samples an Erdős–Rényi graph G(n, p).
pub fn gnp<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64) -> Graph {
    let expected = (p * n as f64 * (n as f64 - 1.0) / 2.0) as usize;
    let mut b = GraphBuilder::with_capacity(n, expected + expected / 4 + 16);
    add_gnp_edges(rng, &mut b, n, p);
    b.build()
}

/// A planted-pattern graph: the union of a G(n, p₁) background and extra
/// G(n₁, p₂) edges among a random subset of `n₁` *pattern* vertices — the
/// unaligned case's model of groups that all saw the common content.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantedConfig {
    /// Total vertices (flow groups across all routers).
    pub n: usize,
    /// Background edge probability (below the 1/n phase transition for the
    /// ER test to work).
    pub p1: f64,
    /// Number of pattern vertices that saw the common content.
    pub n1: usize,
    /// Pairwise edge probability among pattern vertices (the amplified
    /// match probability, ≈ 1 − e^(−k²/536) in the paper's model).
    pub p2: f64,
}

/// Samples a planted-pattern graph; returns the graph and the sorted list
/// of pattern vertices.
///
/// # Panics
/// Panics if `n1 > n` or the probabilities are out of range.
pub fn gnp_planted<R: Rng + ?Sized>(rng: &mut R, cfg: PlantedConfig) -> (Graph, Vec<u32>) {
    assert!(cfg.n1 <= cfg.n, "pattern larger than graph");
    assert!((0.0..=1.0).contains(&cfg.p2), "p2 must be a probability");
    let mut b = GraphBuilder::new(cfg.n);
    add_gnp_edges(rng, &mut b, cfg.n, cfg.p1);

    // Choose the pattern vertices uniformly at random.
    let mut all: Vec<u32> = (0..cfg.n as u32).collect();
    all.shuffle(rng);
    let mut pattern: Vec<u32> = all.into_iter().take(cfg.n1).collect();
    pattern.sort_unstable();

    // Plant G(n1, p2) among them, mapped through the pattern vertex list.
    if cfg.n1 >= 2 && cfg.p2 > 0.0 {
        let total = cfg.n1 as u64 * (cfg.n1 as u64 - 1) / 2;
        let mut t = sample_geometric(rng, cfg.p2);
        while t < total {
            let (i, j) = unrank_pair(t, cfg.n1 as u64);
            b.add_edge(pattern[i as usize], pattern[j as usize]);
            t += 1 + sample_geometric(rng, cfg.p2);
        }
    }
    (b.build(), pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{component_sizes, largest_component};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn unrank_pair_is_bijective_small() {
        let n = 13u64;
        let mut seen = std::collections::HashSet::new();
        let total = n * (n - 1) / 2;
        for t in 0..total {
            let (i, j) = unrank_pair(t, n);
            assert!(i < j && (j as u64) < n, "bad pair ({i},{j}) at t={t}");
            assert!(seen.insert((i, j)), "duplicate pair at t={t}");
        }
        assert_eq!(seen.len() as u64, total);
    }

    #[test]
    fn unrank_pair_extremes() {
        assert_eq!(unrank_pair(0, 100), (0, 1));
        assert_eq!(unrank_pair(98, 100), (0, 99));
        assert_eq!(unrank_pair(99, 100), (1, 2));
        assert_eq!(unrank_pair(100 * 99 / 2 - 1, 100), (98, 99));
    }

    #[test]
    fn unrank_pair_large_n_no_float_break() {
        // Exercise the float fix-up at the paper's 102,400-vertex scale.
        let n = 102_400u64;
        let total = n * (n - 1) / 2;
        for &t in &[0, 1, total / 3, total / 2, total - 2, total - 1] {
            let (i, j) = unrank_pair(t, n);
            assert!(i < j && (j as u64) < n);
            // Re-rank and compare.
            let rank = u64::from(i) * n - u64::from(i) * (u64::from(i) + 1) / 2
                + (u64::from(j) - u64::from(i) - 1);
            assert_eq!(rank, t, "rank mismatch at t={t}");
        }
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let mut r = rng(1);
        let (n, p) = (2000usize, 0.002);
        let g = gnp(&mut r, n, p);
        let expected = p * (n * (n - 1) / 2) as f64; // ≈ 3998
        let got = g.m() as f64;
        assert!(
            (got - expected).abs() < 6.0 * expected.sqrt(),
            "edge count {got} too far from {expected}"
        );
    }

    #[test]
    fn gnp_p_zero_and_one() {
        let mut r = rng(2);
        assert_eq!(gnp(&mut r, 50, 0.0).m(), 0);
        assert_eq!(gnp(&mut r, 20, 1.0).m(), 190);
    }

    #[test]
    fn phase_transition_subcritical_components_are_small() {
        let mut r = rng(3);
        let n = 20_000;
        let g = gnp(&mut r, n, 0.5 / n as f64);
        let largest = component_sizes(&g)[0];
        // Subcritical: O(log n); allow a wide margin.
        assert!(largest < 60, "subcritical largest component {largest}");
    }

    #[test]
    fn phase_transition_supercritical_giant_emerges() {
        let mut r = rng(4);
        let n = 20_000;
        let g = gnp(&mut r, n, 2.0 / n as f64);
        let largest = component_sizes(&g)[0];
        // Supercritical at c=2: giant ≈ 0.797·n.
        assert!(
            largest > n / 2,
            "supercritical largest component only {largest}"
        );
    }

    #[test]
    fn planted_pattern_connects() {
        let mut r = rng(5);
        let cfg = PlantedConfig {
            n: 10_000,
            p1: 0.3 / 10_000.0,
            n1: 100,
            p2: 0.2,
        };
        let (g, pattern) = gnp_planted(&mut r, cfg);
        assert_eq!(pattern.len(), 100);
        // Pattern vertices have expected internal degree ~ 20 >> background.
        let (size, members) = largest_component(&g);
        assert!(size >= 90, "giant from planted pattern missing: {size}");
        let in_pattern = members
            .iter()
            .filter(|v| pattern.binary_search(v).is_ok())
            .count();
        assert!(
            in_pattern * 2 > members.len(),
            "largest component not dominated by the pattern"
        );
    }

    #[test]
    fn planted_with_zero_pattern_is_plain_er() {
        let mut r = rng(6);
        let cfg = PlantedConfig {
            n: 500,
            p1: 0.001,
            n1: 0,
            p2: 0.9,
        };
        let (g, pattern) = gnp_planted(&mut r, cfg);
        assert!(pattern.is_empty());
        assert!(g.n() == 500);
    }
}
