//! Property-based tests for the graph substrate.

use crate::components::{component_sizes, largest_component, UnionFind};
use crate::peel::peel_to_size;
use crate::{Graph, GraphBuilder};
use proptest::prelude::*;

/// An arbitrary small simple graph from an edge list.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..80).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build()
        })
    })
}

/// Reference reachability via DFS from each vertex.
fn brute_components(g: &Graph) -> Vec<usize> {
    let mut seen = vec![false; g.n()];
    let mut sizes = Vec::new();
    for start in 0..g.n() as u32 {
        if seen[start as usize] {
            continue;
        }
        let mut stack = vec![start];
        seen[start as usize] = true;
        let mut size = 0usize;
        while let Some(v) = stack.pop() {
            size += 1;
            for &u in g.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        sizes.push(size);
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_is_simple_and_symmetric(g in arb_graph()) {
        for v in 0..g.n() as u32 {
            let nbrs = g.neighbors(v);
            // Sorted, no duplicates, no self-loops.
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!nbrs.contains(&v));
            for &u in nbrs {
                prop_assert!(g.has_edge(u, v), "asymmetric edge {u}-{v}");
            }
        }
        // Handshake lemma.
        let degree_sum: usize = (0..g.n() as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.m());
    }

    #[test]
    fn components_match_brute_force(g in arb_graph()) {
        prop_assert_eq!(component_sizes(&g), brute_components(&g));
    }

    #[test]
    fn largest_component_is_connected_and_maximal(g in arb_graph()) {
        let (size, members) = largest_component(&g);
        prop_assert_eq!(size, members.len());
        prop_assert_eq!(size, component_sizes(&g)[0]);
        // Connectivity: union-find over induced edges joins all members.
        if !members.is_empty() {
            let index: std::collections::HashMap<u32, u32> = members
                .iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
            let mut uf = UnionFind::new(members.len());
            for &v in &members {
                for &u in g.neighbors(v) {
                    if let Some((&iv, &iu)) = index.get(&v).zip(index.get(&u)) {
                        uf.union(iv, iu);
                    }
                }
            }
            let root = uf.find(0);
            for i in 1..members.len() as u32 {
                prop_assert_eq!(uf.find(i), root, "largest component not connected");
            }
        }
    }

    #[test]
    fn peel_returns_exactly_beta(g in arb_graph(), beta in 0usize..50) {
        let core = peel_to_size(&g, beta);
        prop_assert_eq!(core.len(), beta.min(g.n()));
        // Sorted unique vertex ids in range.
        prop_assert!(core.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(core.iter().all(|&v| (v as usize) < g.n()));
    }
}
