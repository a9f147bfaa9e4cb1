//! Matrix → group-graph conversion: the pairwise row-correlation kernel.
//!
//! "The vast majority of the computational complexity … comes from
//! computing, for any two rows in the matrix, the number of indices in
//! which both rows have value 1" (Section IV-D). Of the paper's ways to
//! pay for that, this module does not take "distribute the load to a
//! large number of CPUs": no benchmark host has shown a second worker
//! paying, so the loop runs on the caller's thread. It pays instead by
//! re-testing only the groups that changed (`incremental`) and by ruling
//! most pairs out on a shared λ cell.
//!
//! `edges_touching` is the one pair loop, over every group pair with a
//! touched end, with the count of exact row-pair tests it ran. It
//! popcounts one row against the other group's rows in one batched
//! kernel call and tests each count against one λ table or several, so
//! the incremental correlator decides the test graph (Λ) and the
//! detection graph (Λ′) of the changed groups in one pass;
//! [`build_group_graph`] is the loop over every group under one table,
//! the all-pairs reference the tests hold both graphs to. A count is
//! compared with a coarse-grid λ cell first (`GRID`), so the λ quantiles
//! the loop computes are mostly the grid's, shared by every pair whose
//! weights round to it.

use crate::lambda::LambdaTable;
use dcs_bitmap::words::and_weight_each_into;
use dcs_bitmap::RowMatrix;
use dcs_graph::{Graph, GraphBuilder};

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

/// Step of the coarse weight grid a row pair is first compared on. λ is
/// non-decreasing in each weight (hypergeometric stochastic order), so
/// `common ≤ λ(⌊wa⌋, ⌊wb⌋)`, weights rounded down to a multiple of the
/// step, proves `common ≤ λ(wa, wb)`. A larger step means fewer grid
/// cells but a looser bound, so more pairs read their exact cell too.
/// Chosen on twelve fresh `tiered-chan`-shaped epochs (48 groups of 10
/// rows, weights 240–870, the Λ and Λ′ of `for_groups(48)`, one thread
/// of an Intel Xeon): after the first epoch, steps 1 (no grid), 2, 4, 8
/// and 16 took 17.1, 6.4, 2.5, 4.2 and 6.8 ms an epoch; by the twelfth,
/// step 4 filled ≈ 420 cells an epoch and step 8, whose looser grid
/// sends more pairs to their exact cells, ≈ 1,050.
const GRID: u32 = 4;

/// `w` rounded down to a multiple of [`GRID`].
#[inline]
fn grid_floor(w: u32) -> u32 {
    w - w % GRID
}

/// The rows of a matrix cut into groups of `k` contiguous rows, beside
/// the row weights.
struct Groups<'a> {
    rows: &'a RowMatrix,
    weights: Vec<u32>,
    k: usize,
}

impl<'a> Groups<'a> {
    fn new(rows: &'a RowMatrix, layout: GroupLayout) -> Self {
        Groups {
            rows,
            weights: rows.row_weights(),
            k: layout.rows_per_group,
        }
    }

    /// Group `g`'s rows, their words back to back, and their weights.
    fn get(&self, g: usize) -> (&[u64], &[u32]) {
        let (k, wpr) = (self.k, self.rows.words_per_row());
        (
            &self.rows.as_words()[g * k * wpr..(g + 1) * k * wpr],
            &self.weights[g * k..(g + 1) * k],
        )
    }
}

/// How many of the graphs of `laxest_first` connect groups `ga` and
/// `gb`: does any row pair exceed its λ threshold in that table? The
/// tables come laxest (largest p\*) first. λ is non-increasing in p\*
/// cell by cell — a larger p\* admits every `t` a smaller one does — so
/// a count over one table's λ is over every laxer table's, and the edges
/// found are always a prefix of that order. Each row of `ga` is
/// AND-popcounted against `gb`'s contiguous rows in one kernel call
/// (into `common`, one slot a row of `gb`), and each count is compared
/// with the laxest table whose edge is still open, and with the next only
/// when it exceeds that one. Against one table a pair reads the grid
/// cell λ(⌊wa⌋, ⌊wb⌋) (see [`GRID`]), and the exact cell λ(wa, wb) only
/// when the count exceeds the grid cell; both are ordinary table cells,
/// filled on first read. The scan stops once every edge is found — with
/// Λ and a laxer Λ′ that is the first Λ exceedance, where a Λ-only scan
/// stops too. Every nonzero-weight row pair up to the stop is tallied
/// into `pairs_exact`; zero-weight rows share no ones and are skipped
/// untallied.
fn group_edges<const T: usize>(
    groups: &Groups,
    laxest_first: [&LambdaTable; T],
    ga: usize,
    gb: usize,
    common: &mut [u32],
    pairs_exact: &mut u64,
) -> usize {
    let (a_words, a_weights) = groups.get(ga);
    let (b_words, b_weights) = groups.get(gb);
    let mut found = 0;
    for (a_row, &wa) in a_words
        .chunks_exact(groups.rows.words_per_row())
        .zip(a_weights)
    {
        if wa == 0 {
            continue;
        }
        and_weight_each_into(a_row, b_words, common);
        let grid = laxest_first.map(|t| t.row(grid_floor(wa)));
        for (&wb, &c) in b_weights.iter().zip(&*common) {
            if wb == 0 {
                continue;
            }
            *pairs_exact += 1;
            while found < T
                && c > grid[found].get(grid_floor(wb))
                && c > laxest_first[found].lambda(wa, wb)
            {
                found += 1;
            }
            if found == T {
                return T;
            }
        }
    }
    found
}

/// The group-pair loop: λ-tests every group pair with at least one
/// `touched` end exactly once, by its smaller touched end, against every
/// table of `tables` at once, and returns each table's connected pairs
/// as `(u, v)` with `u < v` plus the count of exact row-pair tests.
///
/// # Panics
/// Panics if `touched` does not have one flag per group.
pub(crate) fn edges_touching<const T: usize>(
    rows: &RowMatrix,
    layout: GroupLayout,
    tables: [&LambdaTable; T],
    touched: &[bool],
) -> ([Vec<(u32, u32)>; T], u64) {
    assert_eq!(touched.len(), layout.groups(rows), "one flag per group");
    let groups = Groups::new(rows, layout);
    let mut order: [usize; T] = std::array::from_fn(|t| t);
    order.sort_by(|&a, &b| tables[b].p_star().total_cmp(&tables[a].p_star()));
    let laxest_first = order.map(|t| tables[t]);
    let mut edges: [Vec<(u32, u32)>; T] = std::array::from_fn(|_| Vec::new());
    let mut pairs_exact = 0;
    let mut common = vec![0; layout.rows_per_group];
    for ga in (0..touched.len()).filter(|&g| touched[g]) {
        for (gb, &gb_touched) in touched.iter().enumerate() {
            if gb == ga || (gb_touched && gb < ga) {
                continue;
            }
            let (lo, hi) = (ga.min(gb), ga.max(gb));
            let found = group_edges(&groups, laxest_first, lo, hi, &mut common, &mut pairs_exact);
            for &t in &order[..found] {
                edges[t].push((lo as u32, hi as u32));
            }
        }
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

/// All-pairs conversion: `edges_touching` with every group touched.
/// Returns the graph and the count of exact row-pair tests.
pub fn build_group_graph(
    rows: &RowMatrix,
    layout: GroupLayout,
    table: &LambdaTable,
) -> (Graph, u64) {
    let n = layout.groups(rows);
    let ([edges], pairs_exact) = edges_touching(rows, layout, [table], &vec![true; n]);
    (graph_of(n, &edges), pairs_exact)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::lambda::p_star_for_edge_prob;
    use dcs_bitmap::Bitmap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The group graph straight from its definition, sharing no code with
    /// the pair loop: groups connect iff some row pair's common ones
    /// exceed `table.lambda` of the pair's two weights. Weights and
    /// common ones are `u64::count_ones` over the rows' words, never the
    /// dispatched popcount kernel the loop runs. Every build is checked
    /// against it.
    pub(crate) fn oracle_group_graph(
        rows: &RowMatrix,
        layout: GroupLayout,
        table: &LambdaTable,
    ) -> Graph {
        let n = layout.groups(rows);
        let k = layout.rows_per_group;
        let ones = |r: usize| rows.row(r).iter().map(|w| w.count_ones()).sum::<u32>();
        let common = |ra: usize, rb: usize| {
            let pairs = rows.row(ra).iter().zip(rows.row(rb));
            pairs.map(|(x, y)| (x & y).count_ones()).sum::<u32>()
        };
        let mut b = GraphBuilder::new(n);
        for ga in 0..n {
            for gb in (ga + 1)..n {
                let edge = (ga * k..(ga + 1) * k).any(|ra| {
                    (gb * k..(gb + 1) * k)
                        .any(|rb| common(ra, rb) > table.lambda(ones(ra), ones(rb)))
                });
                if edge {
                    b.add_edge(ga as u32, gb as u32);
                }
            }
        }
        b.build()
    }

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
        let (g, _) = build_group_graph(&m, GroupLayout { rows_per_group: K }, &table());
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
        let (g, _) = build_group_graph(&m, GroupLayout { rows_per_group: K }, &table());
        assert!(g.m() <= 1, "null graph has {} edges", g.m());
    }

    /// The grid cells take the λ fills off the pair loop: a cold
    /// all-pairs build over 48 groups of 10 rows, weights spread over
    /// 240–870 (the band a `tiered-chan` epoch spans) at the Λ level
    /// `AnalysisConfig::for_groups(48)` derives, fills at most a quarter
    /// of the cells the oracle's pair-by-pair reads fill, for the same
    /// edges. Exact counts, no clock.
    #[test]
    fn grid_cells_cut_the_fills_of_a_cold_build() {
        const ROWS: usize = 10;
        let mut r = StdRng::seed_from_u64(38);
        let layout = GroupLayout {
            rows_per_group: ROWS,
        };
        let mut m = RowMatrix::new(NBITS);
        for _ in 0..48 * ROWS {
            let weight = r.gen_range(240..=870);
            let mut bm = Bitmap::new(NBITS);
            while (bm.weight() as usize) < weight {
                bm.set(r.gen_range(0..NBITS));
            }
            m.push_bitmap(&bm);
        }
        let table = || LambdaTable::new(NBITS, p_star_for_edge_prob(0.65 / 48.0, ROWS * ROWS));
        let (bracketed, oracle) = (table(), table());
        let (g, _) = build_group_graph(&m, layout, &bracketed);
        let want = oracle_group_graph(&m, layout, &oracle);
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            want.edges().collect::<Vec<_>>()
        );
        assert!(want.m() > 0, "the matrix must grow an edge");
        assert_eq!((bracketed.memo_len(), oracle.memo_len()), (11_199, 57_812));
        assert!(bracketed.memo_len() * 4 <= oracle.memo_len());
    }

    /// A row of `NBITS` bits with exactly `weight` random ones.
    fn row_of_weight(rng: &mut StdRng, n_bits: usize, weight: u32) -> Bitmap {
        let mut bm = Bitmap::new(n_bits);
        while bm.weight() < weight {
            bm.set(rng.gen_range(0..n_bits));
        }
        bm
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The bracketed pair loop decides both graphs as the oracle
        /// does: row weights from up to three bands anywhere in 0..=N
        /// (empty and full rows included), optionally snapped onto a grid
        /// point or one above it, with Λ′ laxer than, equal to or
        /// stricter than Λ. The oracle reads
        /// tables of its own, so no cell the loop filled is reused.
        #[test]
        fn bracketed_loop_matches_the_oracle(
            seed in proptest::prelude::any::<u64>(),
            groups in 2usize..10,
            bands in proptest::collection::vec((0u32..=256, 0u32..=40), 1..4),
            snap in 0u8..3,
            test_exp in 1.0f64..4.0,
            relation in 0u8..3,
        ) {
            const N: usize = 256;
            let mut r = StdRng::seed_from_u64(seed);
            let layout = GroupLayout { rows_per_group: K };
            let mut m = RowMatrix::new(N);
            for _ in 0..groups * K {
                let (start, width) = bands[r.gen_range(0..bands.len())];
                let w = r.gen_range(start..=start + width).min(N as u32);
                let w = match snap {
                    0 => w,
                    1 => grid_floor(w),
                    _ => (grid_floor(w) + 1).min(N as u32),
                };
                m.push_bitmap(&row_of_weight(&mut r, N, w));
            }
            let test_p = 10f64.powf(-test_exp);
            let detect_p = test_p * [10.0, 1.0, 0.1][usize::from(relation)];
            let tables = || (LambdaTable::new(N, test_p), LambdaTable::new(N, detect_p));
            let (test, detect) = tables();
            let (edges, _) = edges_touching(&m, layout, [&test, &detect], &vec![true; groups]);
            let (oracle_test, oracle_detect) = tables();
            for (name, got, table) in [
                ("Λ", &edges[0], &oracle_test),
                ("Λ′", &edges[1], &oracle_detect),
            ] {
                let mut got = got.clone();
                got.sort_unstable();
                let mut want: Vec<_> = oracle_group_graph(&m, layout, table).edges().collect();
                want.sort_unstable();
                proptest::prop_assert_eq!(got, want, "{} edges", name);
            }
        }
    }

    #[test]
    fn zero_weight_rows_never_connect() {
        let mut m = RowMatrix::new(NBITS);
        for _ in 0..(2 * K) {
            m.push_bitmap(&Bitmap::new(NBITS));
        }
        let (g, _) = build_group_graph(&m, GroupLayout { rows_per_group: K }, &table());
        assert_eq!(g.m(), 0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_layout_rejected() {
        let mut m = RowMatrix::new(NBITS);
        m.push_bitmap(&Bitmap::new(NBITS));
        GroupLayout { rows_per_group: 4 }.groups(&m);
    }
}
