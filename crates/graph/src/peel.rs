//! Min-degree peeling: the kernel of the paper's `FindCore` (Figure 10).
//!
//! "We keep deleting the nodes with the smallest degree and their
//! associated edges from the graph, until the number of vertices in this
//! graph becomes β. The remaining vertices are the core."
//!
//! [`peel_to_size`] implements this with a bucket queue and lazy entries —
//! O(V + E) amortised; its tests cross-check it against an O(V²) rescan.

use crate::Graph;

/// Peels minimum-degree vertices until `beta` remain; returns the
/// survivors sorted ascending.
///
/// Ties are broken deterministically (the vertex that most recently
/// reached the minimum degree is removed first; for the initial buckets
/// that is the highest-numbered vertex). Determinism matters for
/// reproducible experiments; *which* tie-break is used does not affect the
/// stochastic-optimality argument, which only constrains the degree chosen.
///
/// If `beta >= n`, all vertices survive.
pub fn peel_to_size(g: &Graph, beta: usize) -> Vec<u32> {
    let n = g.n();
    if beta >= n {
        return (0..n as u32).collect();
    }
    let mut degree: Vec<u32> = (0..n as u32).map(|v| g.degree(v) as u32).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;
    // bucket[d] holds candidate vertices whose degree was d when pushed;
    // entries can be stale and are validated on pop.
    let mut bucket: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 1];
    for (v, &d) in degree.iter().enumerate() {
        bucket[d as usize].push(v as u32);
    }
    let mut removed = vec![false; n];
    let mut remaining = n;
    let mut cur = 0usize;
    while remaining > beta {
        // Find the lowest non-empty bucket with a live, non-stale entry.
        let v = loop {
            while cur <= max_deg && bucket[cur].is_empty() {
                cur += 1;
            }
            assert!(cur <= max_deg, "ran out of vertices before reaching beta");
            let cand = bucket[cur].pop().expect("bucket non-empty");
            if !removed[cand as usize] && degree[cand as usize] as usize == cur {
                break cand;
            }
            // Stale entry: drop it and retry.
        };
        removed[v as usize] = true;
        remaining -= 1;
        for &u in g.neighbors(v) {
            if !removed[u as usize] {
                let d = &mut degree[u as usize];
                *d -= 1;
                let nd = *d as usize;
                bucket[nd].push(u);
                if nd < cur {
                    cur = nd;
                }
            }
        }
    }
    (0..n as u32).filter(|&v| !removed[v as usize]).collect()
}

/// Degrees of `vertices` counted inside the sub-graph they induce in `g`.
pub fn induced_degrees(g: &Graph, vertices: &[u32]) -> Vec<usize> {
    let set: std::collections::HashSet<u32> = vertices.iter().copied().collect();
    vertices
        .iter()
        .map(|&v| g.neighbors(v).iter().filter(|u| set.contains(u)).count())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er::{gnp_planted, PlantedConfig};
    use crate::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference implementation: rescan for the minimum degree at every step.
    /// O(V²); used to validate [`peel_to_size`].
    fn peel_to_size_naive(g: &Graph, beta: usize) -> Vec<u32> {
        let n = g.n();
        if beta >= n {
            return (0..n as u32).collect();
        }
        let mut degree: Vec<u32> = (0..n as u32).map(|v| g.degree(v) as u32).collect();
        let mut removed = vec![false; n];
        let mut remaining = n;
        while remaining > beta {
            // Highest-numbered vertex among those with minimum degree, matching
            // the bucket implementation's initial tie-break.
            let mut best: Option<u32> = None;
            for v in 0..n as u32 {
                if removed[v as usize] {
                    continue;
                }
                best = match best {
                    None => Some(v),
                    Some(b) => {
                        if degree[v as usize] <= degree[b as usize] {
                            Some(v)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            let v = best.expect("graph still has vertices");
            removed[v as usize] = true;
            remaining -= 1;
            for &u in g.neighbors(v) {
                if !removed[u as usize] {
                    degree[u as usize] -= 1;
                }
            }
        }
        (0..n as u32).filter(|&v| !removed[v as usize]).collect()
    }

    /// A 4-clique {0,1,2,3} with pendant paths hanging off it.
    fn clique_with_tails() -> Graph {
        let mut b = GraphBuilder::new(10);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_edge(i, j);
            }
        }
        b.add_edge(3, 4);
        b.add_edge(4, 5);
        b.add_edge(0, 6);
        b.add_edge(6, 7);
        b.add_edge(7, 8);
        b.add_edge(8, 9);
        b.build()
    }

    #[test]
    fn peel_finds_the_clique() {
        let g = clique_with_tails();
        let core = peel_to_size(&g, 4);
        assert_eq!(core, vec![0, 1, 2, 3]);
    }

    #[test]
    fn beta_at_least_n_keeps_everything() {
        let g = clique_with_tails();
        assert_eq!(peel_to_size(&g, 10).len(), 10);
        assert_eq!(peel_to_size(&g, 99).len(), 10);
    }

    #[test]
    fn beta_zero_empties_graph() {
        let g = clique_with_tails();
        assert!(peel_to_size(&g, 0).is_empty());
    }

    #[test]
    fn bucket_and_naive_recover_the_pattern_equally() {
        // Survivor sets may differ under degree ties, so compare the two
        // implementations on the quantity that matters: how much of a
        // planted dense pattern each recovers.
        let mut r = StdRng::seed_from_u64(11);
        let (g, pattern) = gnp_planted(
            &mut r,
            PlantedConfig {
                n: 400,
                p1: 1.0 / 400.0,
                n1: 30,
                p2: 0.8,
            },
        );
        let hits = |core: &[u32]| {
            core.iter()
                .filter(|v| pattern.binary_search(v).is_ok())
                .count()
        };
        let a = peel_to_size(&g, 30);
        let b = peel_to_size_naive(&g, 30);
        assert_eq!(a.len(), 30);
        assert_eq!(b.len(), 30);
        assert!(hits(&a) >= 28, "bucket peel missed pattern: {}", hits(&a));
        assert!(hits(&b) >= 28, "naive peel missed pattern: {}", hits(&b));
    }

    #[test]
    fn peel_recovers_planted_pattern() {
        let mut r = StdRng::seed_from_u64(7);
        let cfg = PlantedConfig {
            n: 5_000,
            p1: 0.5 / 5_000.0,
            n1: 60,
            p2: 0.5,
        };
        let (g, pattern) = gnp_planted(&mut r, cfg);
        let core = peel_to_size(&g, 40);
        let hits = core
            .iter()
            .filter(|v| pattern.binary_search(v).is_ok())
            .count();
        assert!(
            hits >= 35,
            "core should be dominated by pattern vertices, got {hits}/40"
        );
    }

    #[test]
    fn induced_degrees_counts_inside_only() {
        let g = clique_with_tails();
        let d = induced_degrees(&g, &[0, 1, 2, 3]);
        assert_eq!(d, vec![3, 3, 3, 3]);
        let d2 = induced_degrees(&g, &[4, 5, 9]);
        assert_eq!(d2, vec![1, 1, 0]);
    }

    #[test]
    fn empty_graph_peel() {
        let g = GraphBuilder::new(0).build();
        assert!(peel_to_size(&g, 0).is_empty());
    }
}
