//! Matrix → group-graph conversion: the pairwise row-correlation kernel.
//!
//! "The vast majority of the computational complexity … comes from
//! computing, for any two rows in the matrix, the number of indices in
//! which both rows have value 1" (Section IV-D). The paper lists coping
//! strategies; this module implements two of them beside the serial
//! reference:
//!
//! * [`build_group_graph`] — the straight serial sweep (the test oracle);
//! * [`build_group_graph_parallel`] — possibility 3, "distribute the load
//!   to a large number of CPUs" (scoped worker threads via
//!   `dcs-parallel`, embarrassingly parallel over group pairs), with the
//!   count of exact row-pair tests it ran;
//! * [`build_group_graph_sampled`] — possibility 2, "sample 10 % of the
//!   vertices and find a core only in this subset".
//!
//! The parallel build strides the outer index with
//! [`balanced_outer_indices`] (zigzag pairing), which keeps per-worker
//! pair counts within `threads − 1` of each other for every `n` — the
//! triangular loop's heavy low indices and light high indices cancel.

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

/// Whether groups `ga` and `gb` are connected: does any row pair exceed
/// its λ threshold? Every row pair that pays the AND-popcount is tallied
/// into `pairs_exact`; zero-weight rows share no ones and are skipped
/// untallied, as are pairs after an early edge hit (the cut-off point is
/// a pure function of the row data, so the tally is the same under any
/// thread partition).
pub(crate) fn groups_connected(
    rows: &RowMatrix,
    weights: &[u32],
    layout: GroupLayout,
    table: &LambdaTable,
    ga: usize,
    gb: usize,
    pairs_exact: &mut u64,
) -> bool {
    let k = layout.rows_per_group;
    for ra in ga * k..(ga + 1) * k {
        let wa = weights[ra];
        if wa == 0 {
            continue;
        }
        let lambda_wa = table.row(wa);
        for (rb, &wb) in weights.iter().enumerate().take((gb + 1) * k).skip(gb * k) {
            if wb == 0 {
                continue;
            }
            *pairs_exact += 1;
            if rows.common_ones(ra, rb) > lambda_wa.get(wb) {
                return true;
            }
        }
    }
    false
}

/// Serial conversion of the fused row matrix into the group graph.
pub fn build_group_graph(rows: &RowMatrix, layout: GroupLayout, table: &LambdaTable) -> Graph {
    let n = layout.groups(rows);
    let weights = rows.row_weights();
    let mut b = GraphBuilder::new(n);
    for ga in 0..n {
        for gb in (ga + 1)..n {
            if groups_connected(rows, &weights, layout, table, ga, gb, &mut 0) {
                b.add_edge(ga as u32, gb as u32);
            }
        }
    }
    b.build()
}

/// Parallel conversion using `threads` scoped worker threads. Group
/// pairs are split by zigzag-striding the outer index
/// ([`balanced_outer_indices`]), which balances the triangular loop to
/// within `threads − 1` pairs per worker; each worker collects a private
/// edge list and the lists are concatenated in worker order, so the
/// resulting graph — and the returned count of exact row-pair tests — is
/// identical for any thread count.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn build_group_graph_parallel(
    rows: &RowMatrix,
    layout: GroupLayout,
    table: &LambdaTable,
    threads: usize,
) -> (Graph, u64) {
    assert!(threads > 0, "need at least one thread");
    let n = layout.groups(rows);
    let weights = rows.row_weights();
    let results: Vec<(Vec<(u32, u32)>, u64)> = map_workers(threads, |t| {
        let mut local = Vec::new();
        let mut pairs_exact = 0;
        for ga in balanced_outer_indices(n, threads, t) {
            for gb in (ga + 1)..n {
                if groups_connected(rows, &weights, layout, table, ga, gb, &mut pairs_exact) {
                    local.push((ga as u32, gb as u32));
                }
            }
        }
        (local, pairs_exact)
    });
    let mut pairs_exact = 0;
    let mut b = GraphBuilder::with_capacity(n, results.iter().map(|(l, _)| l.len()).sum());
    for (list, pairs) in results {
        pairs_exact += pairs;
        for (u, v) in list {
            b.add_edge(u, v);
        }
    }
    (b.build(), pairs_exact)
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
            if groups_connected(
                rows,
                &weights,
                layout,
                table,
                ga as usize,
                gb as usize,
                &mut 0,
            ) {
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
            if groups_connected(
                rows, &weights, layout, table, g as usize, c as usize, &mut 0,
            ) {
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

    #[test]
    fn parallel_matches_serial() {
        let mut r = StdRng::seed_from_u64(3);
        let m = test_matrix(&mut r, 12, 512, &[1, 4, 9], 220);
        let layout = GroupLayout { rows_per_group: K };
        let t = table();
        let gs = build_group_graph(&m, layout, &t);
        let (_, pairs_1) = build_group_graph_parallel(&m, layout, &t, 1);
        assert!(pairs_1 > 0, "no row pair was tested");
        for threads in [1usize, 2, 4, 8] {
            let (gp, pairs) = build_group_graph_parallel(&m, layout, &t, threads);
            assert_eq!(gs.m(), gp.m(), "edge count differs at {threads} threads");
            assert_eq!(
                pairs, pairs_1,
                "exact-pair tally drifted at {threads} threads"
            );
            let mut es: Vec<_> = gs.edges().collect();
            let mut ep: Vec<_> = gp.edges().collect();
            es.sort_unstable();
            ep.sort_unstable();
            assert_eq!(es, ep, "edge sets differ at {threads} threads");
        }
    }

    /// A lock-free table has no warm-up step, so a build must not depend
    /// on one: from a cold table each, every thread count produces the
    /// serial graph and tally and fills exactly the serial build's cells.
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
        for threads in [1usize, 2, 8] {
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
