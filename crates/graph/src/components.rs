//! Connected components: union-find and size statistics.
//!
//! The ER statistical test (paper Section IV-B) reduces to one number —
//! the size of the largest connected component — so these routines are the
//! measurement half of the detector.

use crate::Graph;

/// Union-find (disjoint-set forest) with path halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            // Path halving.
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `false` if already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }

    /// Size of `x`'s set.
    pub fn set_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }
}

/// Sizes of all connected components, in descending order.
pub fn component_sizes(g: &Graph) -> Vec<usize> {
    let mut uf = UnionFind::new(g.n());
    for (u, v) in g.edges() {
        uf.union(u, v);
    }
    let mut counts = std::collections::HashMap::new();
    for v in 0..g.n() as u32 {
        *counts.entry(uf.find(v)).or_insert(0usize) += 1;
    }
    let mut sizes: Vec<usize> = counts.into_values().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

/// Size and members of the largest connected component (ties broken by the
/// smallest representative).
pub fn largest_component(g: &Graph) -> (usize, Vec<u32>) {
    if g.n() == 0 {
        return (0, Vec::new());
    }
    let mut uf = UnionFind::new(g.n());
    for (u, v) in g.edges() {
        uf.union(u, v);
    }
    // Find the representative with the biggest set.
    let mut best_rep = 0u32;
    let mut best = 0u32;
    for v in 0..g.n() as u32 {
        let s = uf.set_size(v);
        if s > best {
            best = s;
            best_rep = uf.find(v);
        }
    }
    let members: Vec<u32> = (0..g.n() as u32)
        .filter(|&v| uf.find(v) == best_rep)
        .collect();
    (best as usize, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_components() -> Graph {
        // {0,1,2,3} path and {4,5} edge, plus isolated 6.
        let mut b = GraphBuilder::new(7);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(4, 5);
        b.build()
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert_ne!(uf.find(0), uf.find(1));
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0), "repeat union reports already joined");
        assert_eq!(uf.find(0), uf.find(1));
        assert_eq!(uf.set_size(0), 2);
        uf.union(2, 3);
        uf.union(0, 3);
        assert_eq!(uf.set_size(1), 4);
    }

    #[test]
    fn sizes_descending() {
        let g = two_components();
        assert_eq!(component_sizes(&g), vec![4, 2, 1]);
    }

    #[test]
    fn largest_component_members() {
        let g = two_components();
        let (size, members) = largest_component(&g);
        assert_eq!(size, 4);
        assert_eq!(members, vec![0, 1, 2, 3]);
    }

    #[test]
    fn singleton_graph() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(component_sizes(&g), vec![1, 1, 1]);
        let (size, members) = largest_component(&g);
        assert_eq!(size, 1);
        assert_eq!(members.len(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert!(component_sizes(&g).is_empty());
        assert_eq!(largest_component(&g).0, 0);
    }
}
