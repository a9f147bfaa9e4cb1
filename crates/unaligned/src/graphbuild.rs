//! Matrix → group-graph conversion: the pairwise row-correlation kernel.
//!
//! "The vast majority of the computational complexity … comes from
//! computing, for any two rows in the matrix, the number of indices in
//! which both rows have value 1" (Section IV-D). The paper lists coping
//! strategies; this module implements two of them beside the serial
//! reference:
//!
//! * [`build_group_graph`] — the straight serial sweep (the test oracle);
//! * `edges_touching` — possibility 3, "distribute the load to a large
//!   number of CPUs": the one parallel pair loop (scoped worker threads
//!   via `dcs-parallel`, and the only section of the analysis centre
//!   that spawns any), over every group pair with a touched end, with
//!   the count of exact row-pair tests it ran. It tests each row pair's
//!   one popcount against one λ table or several, so the incremental
//!   correlator decides the test graph (Λ) and the detection graph (Λ′)
//!   of the changed groups in one pass; [`build_group_graph_parallel`] is
//!   the loop over every group under one table, the oracle both graphs
//!   are audited against;
//! * [`build_group_graph_sampled`] — possibility 2, "sample 10 % of the
//!   vertices and find a core only in this subset".
//!
//! The pair loop strides the touched groups with
//! [`balanced_outer_indices`] (zigzag pairing), which keeps per-worker
//! pair counts of an all-pairs build within `threads − 1` of each other
//! for every `n` — the triangular loop's heavy low indices and light high
//! indices cancel.

use crate::lambda::LambdaTable;
use dcs_bitmap::RowMatrix;
use dcs_graph::{Graph, GraphBuilder};
use dcs_parallel::map_workers;

/// How rows map to group-vertices: rows are stored group-major, group `g`
/// owning rows `g*rows_per_group .. (g+1)*rows_per_group`.
#[derive(Debug, Clone, Copy)]
pub struct GroupLayout {
    /// Rows (offset arrays) per group.
    pub rows_per_group: usize,
}

impl GroupLayout {
    /// Number of groups for a given matrix.
    ///
    /// # Panics
    /// Panics if the row count is not a multiple of `rows_per_group`.
    pub fn groups(&self, rows: &RowMatrix) -> usize {
        assert!(self.rows_per_group > 0, "rows_per_group must be positive");
        assert_eq!(
            rows.nrows() % self.rows_per_group,
            0,
            "row count {} not a multiple of rows_per_group {}",
            rows.nrows(),
            self.rows_per_group
        );
        rows.nrows() / self.rows_per_group
    }
}

/// Outer indices owned by worker `t` of `threads` under zigzag striding:
/// each block of `2 × threads` consecutive outer indices gives worker
/// `t` the pair `base + t` and `base + 2·threads − 1 − t`. In the
/// triangular pair loop outer index `i` costs `n − 1 − i` inner
/// iterations, so the two indices of a full block sum to the same pair
/// count for every worker; only the final partial block differs, by at
/// most `threads − 1` pairs total (proptested below). The plain
/// `t, t + threads, …` stride this replaces skewed by
/// `Θ(n · (threads − 1) / threads)` pairs whenever `n % threads != 0`.
///
/// # Panics
/// Panics if `threads == 0` or `t >= threads`.
pub fn balanced_outer_indices(n: usize, threads: usize, t: usize) -> Vec<usize> {
    assert!(threads > 0, "need at least one thread");
    assert!(t < threads, "worker {t} out of range for {threads} threads");
    let span = 2 * threads;
    let mut out = Vec::with_capacity(n / threads + 2);
    let mut base = 0;
    while base < n {
        let lo = base + t;
        if lo < n {
            out.push(lo);
        }
        let hi = base + span - 1 - t;
        if hi != lo && hi < n {
            out.push(hi);
        }
        base += span;
    }
    out
}

/// Which of the graphs of `tables` connect groups `ga` and `gb`: does
/// any row pair exceed its λ threshold in that table? The tables are
/// taken laxest (largest p\*) first. λ is non-increasing in p\* cell by
/// cell — a larger p\* admits every `t` a smaller one does — so a count
/// over one table's λ is over every laxer table's, and the edges found
/// are always a prefix of that order. One AND-popcount a row pair is
/// compared with the laxest table whose edge is still open, and with the
/// next only when it exceeds that one: most row pairs read, and fill,
/// one cell. The scan stops once every edge is found — with Λ and a
/// laxer Λ′ that is the first Λ exceedance, where a Λ-only scan stops
/// too. Every row pair that pays the popcount is tallied into
/// `pairs_exact`; zero-weight rows share no ones and are skipped
/// untallied, as are pairs after the stop (the stop point is a pure
/// function of the row data, so the tally is the same under any thread
/// partition).
fn group_edges<const T: usize>(
    rows: &RowMatrix,
    weights: &[u32],
    layout: GroupLayout,
    tables: [&LambdaTable; T],
    ga: usize,
    gb: usize,
    pairs_exact: &mut u64,
) -> [bool; T] {
    let k = layout.rows_per_group;
    let mut laxest_first: [usize; T] = std::array::from_fn(|t| t);
    laxest_first.sort_by(|&a, &b| tables[b].p_star().total_cmp(&tables[a].p_star()));
    // Edges found so far: those of `laxest_first[..found]`.
    let mut found = 0;
    'scan: for ra in ga * k..(ga + 1) * k {
        let wa = weights[ra];
        if wa == 0 {
            continue;
        }
        let lambda_wa = laxest_first.map(|t| tables[t].row(wa));
        for (rb, &wb) in weights.iter().enumerate().take((gb + 1) * k).skip(gb * k) {
            if wb == 0 {
                continue;
            }
            *pairs_exact += 1;
            let common = rows.common_ones(ra, rb);
            for lambda in &lambda_wa[found..] {
                if common <= lambda.get(wb) {
                    break;
                }
                found += 1;
            }
            if found == T {
                break 'scan;
            }
        }
    }
    let mut edge = [false; T];
    for &t in &laxest_first[..found] {
        edge[t] = true;
    }
    edge
}

/// Serial conversion of the fused row matrix into the group graph.
pub fn build_group_graph(rows: &RowMatrix, layout: GroupLayout, table: &LambdaTable) -> Graph {
    let n = layout.groups(rows);
    let weights = rows.row_weights();
    let mut b = GraphBuilder::new(n);
    for ga in 0..n {
        for gb in (ga + 1)..n {
            if group_edges(rows, &weights, layout, [table], ga, gb, &mut 0) == [true] {
                b.add_edge(ga as u32, gb as u32);
            }
        }
    }
    b.build()
}

/// The parallel group-pair loop: λ-tests every group pair with at least
/// one `touched` end exactly once, by its smaller touched end, against
/// every table of `tables` at once, and returns each table's connected
/// pairs as `(u, v)` with `u < v` plus the count of exact row-pair tests.
/// The touched groups are the outer index, split across at most
/// `threads` scoped workers — never more than there are touched groups —
/// by [`balanced_outer_indices`] (with every group touched that balances
/// the triangular loop to within `workers − 1` pairs per worker); each
/// worker collects private edge lists and the lists are concatenated in
/// worker order, so the edges and the tally are identical for any
/// thread count.
///
/// # Panics
/// Panics if `threads == 0` or `touched` does not have one flag per group.
pub(crate) fn edges_touching<const T: usize>(
    rows: &RowMatrix,
    layout: GroupLayout,
    tables: [&LambdaTable; T],
    touched: &[bool],
    threads: usize,
) -> ([Vec<(u32, u32)>; T], u64) {
    assert!(threads > 0, "need at least one thread");
    assert_eq!(touched.len(), layout.groups(rows), "one flag per group");
    let outer: Vec<usize> = (0..touched.len()).filter(|&g| touched[g]).collect();
    let workers = threads.min(outer.len()).max(1);
    let weights = rows.row_weights();
    let per_worker = map_workers(workers, |t| {
        let mut local: [Vec<(u32, u32)>; T] = std::array::from_fn(|_| Vec::new());
        let mut pairs_exact = 0;
        for i in balanced_outer_indices(outer.len(), workers, t) {
            let ga = outer[i];
            for (gb, &gb_touched) in touched.iter().enumerate() {
                if gb == ga || (gb_touched && gb < ga) {
                    continue;
                }
                let (lo, hi) = (ga.min(gb), ga.max(gb));
                let edge = group_edges(rows, &weights, layout, tables, lo, hi, &mut pairs_exact);
                for (list, _) in local.iter_mut().zip(edge).filter(|(_, e)| *e) {
                    list.push((lo as u32, hi as u32));
                }
            }
        }
        (local, pairs_exact)
    });
    let mut edges: [Vec<(u32, u32)>; T] = std::array::from_fn(|_| Vec::new());
    let mut pairs_exact = 0;
    for (local, pairs) in per_worker {
        for (list, part) in edges.iter_mut().zip(local) {
            list.extend(part);
        }
        pairs_exact += pairs;
    }
    (edges, pairs_exact)
}

/// The graph over `n` vertices with exactly `edges`.
pub(crate) fn graph_of(n: usize, edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// Parallel all-pairs conversion: `edges_touching` with every group
/// touched. Returns the graph and the count of exact row-pair tests,
/// both identical for any thread count.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn build_group_graph_parallel(
    rows: &RowMatrix,
    layout: GroupLayout,
    table: &LambdaTable,
    threads: usize,
) -> (Graph, u64) {
    let n = layout.groups(rows);
    let ([edges], pairs_exact) = edges_touching(rows, layout, [table], &vec![true; n], threads);
    (graph_of(n, &edges), pairs_exact)
}

/// Vertex-sampled conversion (paper's possibility 2): keep every
/// `1/sample_div`-th group, build the graph only among the sample.
/// Returns the graph over sampled groups and the mapping from sampled
/// vertex id to original group id.
///
/// # Panics
/// Panics if `sample_div == 0`.
pub fn build_group_graph_sampled(
    rows: &RowMatrix,
    layout: GroupLayout,
    table: &LambdaTable,
    sample_div: usize,
) -> (Graph, Vec<u32>) {
    assert!(sample_div > 0, "sample divisor must be positive");
    let n = layout.groups(rows);
    let sampled: Vec<u32> = (0..n as u32).step_by(sample_div).collect();
    let weights = rows.row_weights();
    let mut b = GraphBuilder::new(sampled.len());
    for (ia, &ga) in sampled.iter().enumerate() {
        for (ib, &gb) in sampled.iter().enumerate().skip(ia + 1) {
            let (ga, gb) = (ga as usize, gb as usize);
            if group_edges(rows, &weights, layout, [table], ga, gb, &mut 0) == [true] {
                b.add_edge(ia as u32, ib as u32);
            }
        }
    }
    (b.build(), sampled)
}

/// Expands a core over *all* groups: for every group outside `core`,
/// count how many core groups it connects to (λ-exceeding row pair) and
/// keep those with at least `d` connections.
///
/// This is the paper's recipe for making vertex sampling viable: "this
/// core will be used to find other vertices in the pattern, which has
/// O(n) complexity since the core is relatively small" — the sweep costs
/// `O(n_groups · |core| · k²)` row comparisons instead of the full
/// quadratic correlation.
pub fn expand_core_over_groups(
    rows: &RowMatrix,
    layout: GroupLayout,
    table: &LambdaTable,
    core: &[u32],
    d: usize,
) -> Vec<u32> {
    let n = layout.groups(rows);
    let weights = rows.row_weights();
    let core_set: std::collections::HashSet<u32> = core.iter().copied().collect();
    let mut out = Vec::new();
    for g in 0..n as u32 {
        if core_set.contains(&g) {
            continue;
        }
        let mut links = 0usize;
        for &c in core {
            let (g, c) = (g as usize, c as usize);
            if group_edges(rows, &weights, layout, [table], g, c, &mut 0) == [true] {
                links += 1;
                if links >= d {
                    break;
                }
            }
        }
        if links >= d {
            out.push(g);
        }
    }
    out
}

/// End-to-end sampled detection (paper §IV-D possibility 2): build the
/// detection graph over every `sample_div`-th group only, run the 3-step
/// core finding there, then expand the found core across all groups.
/// Returns the sorted union of the (re-mapped) sampled cores and the
/// expansion survivors.
pub fn sampled_find_pattern(
    rows: &RowMatrix,
    layout: GroupLayout,
    table: &LambdaTable,
    sample_div: usize,
    cfg: crate::corefind::CoreFindConfig,
    expand_d: usize,
) -> Vec<u32> {
    let (graph, mapping) = build_group_graph_sampled(rows, layout, table, sample_div);
    let result = crate::corefind::find_pattern(&graph, cfg);
    let mut core: Vec<u32> = result
        .vertices()
        .into_iter()
        .map(|v| mapping[v as usize])
        .collect();
    let expanded = expand_core_over_groups(rows, layout, table, &core, expand_d);
    core.extend(expanded);
    core.sort_unstable();
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_bitmap::Bitmap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const NBITS: usize = 1024;
    const K: usize = 4; // rows per group in tests

    /// Builds a matrix of `groups` groups whose rows are random with
    /// ~`weight` ones; groups listed in `correlated` additionally share a
    /// common set of `signal` indices in their first row.
    fn test_matrix(
        rng: &mut StdRng,
        groups: usize,
        weight: usize,
        correlated: &[usize],
        signal: usize,
    ) -> RowMatrix {
        let common: Vec<usize> = (0..signal).map(|_| rng.gen_range(0..NBITS)).collect();
        let mut m = RowMatrix::new(NBITS);
        for g in 0..groups {
            for r in 0..K {
                let mut bm = Bitmap::new(NBITS);
                if r == 0 && correlated.contains(&g) {
                    for &c in &common {
                        bm.set(c);
                    }
                }
                while (bm.weight() as usize) < weight {
                    bm.set(rng.gen_range(0..NBITS));
                }
                m.push_bitmap(&bm);
            }
        }
        m
    }

    fn table() -> LambdaTable {
        // p* chosen so the 16-row-pair group comparison stays quiet under
        // the null but fires on a 200-index shared signal.
        LambdaTable::new(NBITS, 1e-6)
    }

    #[test]
    fn correlated_groups_get_edges_others_do_not() {
        let mut r = StdRng::seed_from_u64(2);
        let m = test_matrix(&mut r, 10, 512, &[2, 7], 200);
        let g = build_group_graph(&m, GroupLayout { rows_per_group: K }, &table());
        assert!(g.has_edge(2, 7), "correlated pair must connect");
        assert!(
            g.m() <= 2,
            "background produced {} edges (expected ~0 beyond the signal)",
            g.m()
        );
    }

    #[test]
    fn null_matrix_is_sparse() {
        let mut r = StdRng::seed_from_u64(2);
        let m = test_matrix(&mut r, 16, 512, &[], 0);
        let g = build_group_graph(&m, GroupLayout { rows_per_group: K }, &table());
        assert!(g.m() <= 1, "null graph has {} edges", g.m());
    }

    /// A lock-free table has no warm-up step, so a build must not depend
    /// on one: from a cold table each, every thread count — more threads
    /// than groups too — produces the serial graph and tally and fills
    /// exactly the serial build's cells.
    #[test]
    fn cold_table_builds_agree_at_any_thread_count() {
        let mut r = StdRng::seed_from_u64(7);
        let layout = GroupLayout { rows_per_group: K };
        // Spread row weights so the builds touch many distinct cells.
        let mut m = RowMatrix::new(NBITS);
        for g in 0..12 {
            for row in 0..K {
                let mut bm = Bitmap::new(NBITS);
                let shared = if row == 0 && g % 5 == 1 { 220 } else { 0 };
                for c in 0..shared {
                    bm.set(c * 3);
                }
                while (bm.weight() as usize) < 380 + 13 * g + 5 * row {
                    bm.set(r.gen_range(0..NBITS));
                }
                m.push_bitmap(&bm);
            }
        }
        let serial_table = table();
        let serial = build_group_graph(&m, layout, &serial_table);
        assert!(serial.m() > 0, "the matrix must grow an edge");
        let filled = serial_table.filled_pairs();
        assert!(filled.len() > 100, "only {} cells touched", filled.len());
        let mut want: Vec<_> = serial.edges().collect();
        want.sort_unstable();
        let mut tallies = Vec::new();
        for threads in [1usize, 2, 8, 64] {
            let cold = table();
            let (g, pairs) = build_group_graph_parallel(&m, layout, &cold, threads);
            let mut got: Vec<_> = g.edges().collect();
            got.sort_unstable();
            assert_eq!(got, want, "edge sets differ at {threads} threads");
            assert_eq!(
                cold.filled_pairs(),
                filled,
                "filled cells differ at {threads} threads"
            );
            assert_eq!(cold.memo_len(), filled.len());
            tallies.push(pairs);
        }
        assert!(tallies[0] > 0 && tallies.iter().all(|&p| p == tallies[0]));
    }

    #[test]
    fn sampled_build_keeps_every_divth_group() {
        let mut r = StdRng::seed_from_u64(4);
        // Correlate groups 0 and 2 (both survive div-2 sampling).
        let m = test_matrix(&mut r, 10, 512, &[0, 2], 220);
        let layout = GroupLayout { rows_per_group: K };
        let t = table();
        let (g, mapping) = build_group_graph_sampled(&m, layout, &t, 2);
        assert_eq!(mapping, vec![0, 2, 4, 6, 8]);
        assert_eq!(g.n(), 5);
        assert!(g.has_edge(0, 1), "sampled graph keeps the 0–2 edge");
    }

    #[test]
    fn expansion_recovers_unsampled_pattern_groups() {
        let mut r = StdRng::seed_from_u64(5);
        // Groups 0..8 all share a strong signal; sample every 2nd group so
        // odd pattern groups are invisible to the sampled graph.
        let correlated: Vec<usize> = (0..8).collect();
        let m = test_matrix(&mut r, 24, 512, &correlated, 220);
        let layout = GroupLayout { rows_per_group: K };
        let t = table();
        let core: Vec<u32> = vec![0, 2, 4, 6]; // the sampled half
        let expanded = expand_core_over_groups(&m, layout, &t, &core, 2);
        for odd in [1u32, 3, 5, 7] {
            assert!(
                expanded.contains(&odd),
                "unsampled pattern group {odd} not recovered: {expanded:?}"
            );
        }
        // Background groups stay out.
        assert!(
            expanded.iter().all(|&g| g < 8),
            "background leaked into the expansion: {expanded:?}"
        );
    }

    #[test]
    fn sampled_find_pattern_end_to_end() {
        let mut r = StdRng::seed_from_u64(6);
        let correlated: Vec<usize> = (0..10).collect();
        let m = test_matrix(&mut r, 30, 512, &correlated, 220);
        let layout = GroupLayout { rows_per_group: K };
        let t = table();
        let found = sampled_find_pattern(
            &m,
            layout,
            &t,
            2,
            crate::corefind::CoreFindConfig { beta: 5, d: 1 },
            2,
        );
        let hits = found.iter().filter(|&&g| g < 10).count();
        assert!(
            hits >= 8,
            "recovered only {hits}/10 pattern groups: {found:?}"
        );
        let fps = found.len() - hits;
        assert!(fps <= 2, "{fps} background groups reported");
    }

    #[test]
    fn zero_weight_rows_never_connect() {
        let mut m = RowMatrix::new(NBITS);
        for _ in 0..(2 * K) {
            m.push_bitmap(&Bitmap::new(NBITS));
        }
        let g = build_group_graph(&m, GroupLayout { rows_per_group: K }, &table());
        assert_eq!(g.m(), 0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_layout_rejected() {
        let mut m = RowMatrix::new(NBITS);
        m.push_bitmap(&Bitmap::new(NBITS));
        GroupLayout { rows_per_group: 4 }.groups(&m);
    }

    #[test]
    fn balanced_indices_cover_disjointly() {
        for n in [0usize, 1, 2, 5, 7, 8, 16, 31] {
            for threads in 1..=6usize {
                let mut seen = vec![false; n];
                for t in 0..threads {
                    for i in balanced_outer_indices(n, threads, t) {
                        assert!(!seen[i], "index {i} assigned twice (n={n}, T={threads})");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "gap in cover (n={n}, T={threads})");
            }
        }
    }
}

#[cfg(test)]
mod striding_proptests {
    use super::balanced_outer_indices;
    use proptest::prelude::*;

    proptest! {
        /// Satellite balance pin: under zigzag striding the per-worker
        /// *pair* counts of the triangular loop (outer index `i` costs
        /// `n − 1 − i` inner iterations) differ by at most `threads − 1`
        /// — far under the one-outer-stride (`n − 1`) skew the old
        /// `t, t + threads, …` striding allowed to accumulate.
        #[test]
        fn zigzag_pair_counts_balanced(n in 0usize..200, threads in 1usize..9) {
            let counts: Vec<u64> = (0..threads)
                .map(|t| {
                    balanced_outer_indices(n, threads, t)
                        .into_iter()
                        .map(|i| (n - 1 - i) as u64)
                        .sum()
                })
                .collect();
            let max = counts.iter().copied().max().unwrap_or(0);
            let min = counts.iter().copied().min().unwrap_or(0);
            prop_assert!(
                max - min <= (threads - 1) as u64,
                "pair counts {counts:?} spread {} > threads − 1 (n={n})",
                max - min
            );
            let total: u64 = counts.iter().sum();
            let expect = if n == 0 { 0 } else { (n as u64) * (n as u64 - 1) / 2 };
            prop_assert_eq!(total, expect, "triangle pair total mismatch");
        }
    }
}
