//! The 3-step greedy detection algorithm (paper Figure 10 + Section IV-B).
//!
//! 1. build the detection graph with a *laxer* λ′ table (p₁′ well above
//!    the phase transition — the statistical-test graph is too sparse to
//!    localise the pattern);
//! 2. `FindCore`: peel minimum-degree vertices until β remain — the
//!    stochastically optimal strategy under the paper's degree-oracle
//!    model (Appendix);
//! 3. keep non-core vertices with at least `d` edges into the core, peel
//!    the graph they induce again for a second core, and report
//!    `V_core ∪ V_2nd_core`.

use dcs_graph::peel::peel_to_size;
use dcs_graph::{Graph, GraphBuilder};

/// Tuning of the 3-step detection.
#[derive(Debug, Clone, Copy)]
pub struct CoreFindConfig {
    /// Peel target β: the size of the first core. Configured by
    /// Monte-Carlo so that, above the detectable threshold, the core is
    /// mostly pattern vertices.
    pub beta: usize,
    /// Minimum edges into the core for a non-core vertex to survive
    /// step 3.
    pub d: usize,
}

impl Default for CoreFindConfig {
    fn default() -> Self {
        CoreFindConfig { beta: 50, d: 2 }
    }
}

/// Result of the 3-step detection.
#[derive(Debug, Clone)]
pub struct PatternResult {
    /// The first core `V_core` (sorted).
    pub core: Vec<u32>,
    /// The second core `V_2nd_core` (sorted, disjoint from `core`).
    pub second_core: Vec<u32>,
}

impl PatternResult {
    /// The reported vertex set `V_core ∪ V_2nd_core`, sorted.
    pub fn vertices(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.core.iter().chain(&self.second_core).copied().collect();
        v.sort_unstable();
        v
    }
}

/// Runs steps 2–3 on an already-built detection graph.
pub fn find_pattern(graph: &Graph, cfg: CoreFindConfig) -> PatternResult {
    // Step 2: FindCore.
    let core = peel_to_size(graph, cfg.beta);
    let core_set: std::collections::HashSet<u32> = core.iter().copied().collect();

    // Step 3: survivors = non-core vertices with >= d edges into the core.
    let survivors: Vec<u32> = (0..graph.n() as u32)
        .filter(|v| !core_set.contains(v))
        .filter(|&v| {
            graph
                .neighbors(v)
                .iter()
                .filter(|u| core_set.contains(u))
                .count()
                >= cfg.d
        })
        .collect();

    // Induce H on the survivors and FindCore again.
    let index_of: std::collections::HashMap<u32, u32> = survivors
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let mut hb = GraphBuilder::new(survivors.len());
    for &v in &survivors {
        for &u in graph.neighbors(v) {
            if u > v {
                if let Some((&iv, &iu)) = index_of.get(&v).zip(index_of.get(&u)) {
                    hb.add_edge(iv, iu);
                }
            }
        }
    }
    let h = hb.build();
    let beta2 = cfg.beta.min(h.n());
    let second_core: Vec<u32> = peel_to_size(&h, beta2)
        .into_iter()
        .map(|i| survivors[i as usize])
        .collect();

    let mut core = core;
    core.sort_unstable();
    let mut second_core = second_core;
    second_core.sort_unstable();
    PatternResult { core, second_core }
}

/// Precision/recall of a reported vertex set against the ground-truth
/// pattern — the paper's per-router false positive (reported but never saw
/// the content) and false negative (saw the content but missed) rates.
pub fn precision_recall(reported: &[u32], truth: &[u32]) -> (f64, f64) {
    let truth_set: std::collections::HashSet<u32> = truth.iter().copied().collect();
    let hits = reported.iter().filter(|v| truth_set.contains(v)).count();
    let precision = if reported.is_empty() {
        1.0
    } else {
        hits as f64 / reported.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        hits as f64 / truth.len() as f64
    };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::er::{gnp_planted, PlantedConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_planted_pattern() {
        let mut r = StdRng::seed_from_u64(1);
        let n = 20_000;
        let (g, pattern) = gnp_planted(
            &mut r,
            PlantedConfig {
                n,
                p1: 0.8 / n as f64,
                n1: 120,
                p2: 0.17,
            },
        );
        let res = find_pattern(&g, CoreFindConfig { beta: 60, d: 2 });
        let reported = res.vertices();
        let (precision, recall) = precision_recall(&reported, &pattern);
        assert!(
            precision > 0.8,
            "precision {precision} too low ({} reported)",
            reported.len()
        );
        assert!(recall > 0.3, "recall {recall} too low");
    }

    #[test]
    fn second_core_adds_vertices() {
        let mut r = StdRng::seed_from_u64(2);
        let n = 20_000;
        let (g, pattern) = gnp_planted(
            &mut r,
            PlantedConfig {
                n,
                p1: 0.8 / n as f64,
                n1: 150,
                p2: 0.2,
            },
        );
        let res = find_pattern(&g, CoreFindConfig { beta: 60, d: 2 });
        assert!(
            !res.second_core.is_empty(),
            "step 3 should recover more pattern vertices"
        );
        // Second core should also be mostly pattern.
        let (p2nd, _) = precision_recall(&res.second_core, &pattern);
        assert!(p2nd > 0.6, "second-core precision {p2nd}");
        // Cores are disjoint.
        for v in &res.second_core {
            assert!(!res.core.contains(v));
        }
    }

    #[test]
    fn null_graph_core_is_incoherent() {
        // Without a pattern the core exists (β survivors always remain)
        // but has almost no internal edges.
        let mut r = StdRng::seed_from_u64(3);
        let n = 20_000;
        let (g, _) = gnp_planted(
            &mut r,
            PlantedConfig {
                n,
                p1: 0.8 / n as f64,
                n1: 0,
                p2: 0.0,
            },
        );
        let res = find_pattern(&g, CoreFindConfig { beta: 60, d: 2 });
        let degs = dcs_graph::peel::induced_degrees(&g, &res.core);
        let internal_edges: usize = degs.iter().sum::<usize>() / 2;
        // A pattern core of 60 vertices at p2 = 0.17 would carry ~300
        // internal edges; a null core carries a handful.
        assert!(
            internal_edges < 60,
            "null core has {internal_edges} internal edges"
        );
    }

    #[test]
    fn beta_larger_than_graph() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1);
        let g = b.build();
        let res = find_pattern(&g, CoreFindConfig { beta: 50, d: 1 });
        assert_eq!(res.core.len(), 5);
        assert!(res.second_core.is_empty());
    }

    #[test]
    fn precision_recall_edges() {
        assert_eq!(precision_recall(&[], &[]), (1.0, 1.0));
        assert_eq!(precision_recall(&[1, 2], &[]), (0.0, 1.0));
        assert_eq!(precision_recall(&[], &[1]), (1.0, 0.0));
        let (p, r) = precision_recall(&[1, 2, 3, 4], &[3, 4, 5, 6]);
        assert_eq!((p, r), (0.5, 0.5));
    }
}
