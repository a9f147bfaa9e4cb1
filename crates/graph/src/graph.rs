//! Compact undirected simple graph.

/// An immutable undirected simple graph in adjacency-list form.
///
/// Vertices are `0..n` as `u32` (the unaligned analysis never needs more
/// than a few hundred thousand group-vertices). Built through
/// [`GraphBuilder`], which normalises, sorts and deduplicates edges so the
/// graph is always simple — matching the paper's construction ("we put at
/// most one edge between any two vertices … the resulting graph is a
/// simple graph").
#[derive(Debug, Clone)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
    n_edges: usize,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.n_edges
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// Neighbours of `v`, sorted ascending.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Whether the edge `{u, v}` exists (binary search over the sorted
    /// neighbour list).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Iterator over all edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as u32;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }
}

/// Accumulates edges and produces a normalised [`Graph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Starts a builder over `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 range");
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        b.edges.reserve(m);
        b
    }

    /// Adds an undirected edge. Duplicates are tolerated (removed at
    /// build); self-loops are rejected.
    ///
    /// # Panics
    /// Panics on a self-loop or out-of-range endpoint.
    #[inline]
    pub fn add_edge(&mut self, u: u32, v: u32) {
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Builds the simple graph: sort, dedup, materialise adjacency lists.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut adj: Vec<Vec<u32>> = deg.iter().map(|&d| Vec::with_capacity(d)).collect();
        for &(u, v) in &self.edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        // Each list was filled in sorted order of (u,v) pairs, which keeps
        // the "forward" halves sorted but interleaves the "backward" halves;
        // sort to restore the invariant.
        for list in &mut adj {
            list.sort_unstable();
        }
        Graph {
            adj,
            n_edges: self.edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_isolated() -> Graph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(3, 4);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_isolated();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn has_edge_and_edges_iterator() {
        let g = triangle_plus_isolated();
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 3));
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2), (3, 4)]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        GraphBuilder::new(2).add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        GraphBuilder::new(2).add_edge(0, 2);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
