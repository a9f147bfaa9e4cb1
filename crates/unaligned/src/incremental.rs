//! Cross-epoch delta maintenance of the unaligned group graph.
//!
//! The λ edge test is a pure function of the two rows it compares, so
//! when a group's rows did not change between epochs every edge decision
//! involving only such groups is already known — rebuilding the graph
//! from scratch each epoch repeats `n²/2` group tests to rediscover it.
//! [`IncrementalCorrelator`] keeps both graphs the centre reads — the
//! statistical-test graph under Λ and the detection graph under Λ′ — as
//! two sorted edge lists and, each epoch:
//!
//! 1. diffs the incoming matrix against the previous epoch's rows
//!    (exact word comparison — a row hash is never trusted for
//!    equality, a collision would silently break the identity
//!    guarantee) to find the **changed groups** — every group on a cold
//!    start or a deployment-shape change;
//! 2. keeps the edges whose two ends are both unchanged, and re-tests
//!    every pair with a changed end through the one pair loop,
//!    `graphbuild::edges_touching`, which decides the pair's Λ and Λ′
//!    edges from one popcount a row pair.
//!
//! Steady-state work is `O(c · n)` group tests for churn fraction `c`
//! instead of `O(n²/2)` — the headline subquadratic win on persisting
//! traffic — and an alarm epoch, which reads the detection graph, costs
//! no more. Equality with the all-pairs
//! [`build_group_graph`](crate::build_group_graph) of each graph is
//! proved offline, on every epoch of seeded and randomised churn (this
//! module's tests and the workspace's group-graph pins); the verdict
//! path runs no second build.

use crate::graphbuild::{edges_touching, graph_of, GroupLayout};
use crate::lambda::LambdaTables;
use dcs_bitmap::RowMatrix;
use dcs_graph::Graph;

/// What one incremental epoch did — the source for the engine's
/// per-epoch metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Row pairs that ran the exact AND-popcount test.
    pub pairs_exact: u64,
    /// Rows that differed from the previous epoch.
    pub rows_changed: usize,
    /// Groups owning at least one changed row.
    pub groups_changed: usize,
    /// Live test-graph edges after the epoch.
    pub edges_live: usize,
    /// Whether this epoch paid a full from-scratch build (cold start or
    /// deployment-shape change).
    pub full_rebuild: bool,
}

/// The deployment shape an incremental state is valid for; any change
/// forces a full rebuild (λ tables and group identity are shape-bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    nrows: usize,
    ncols: usize,
    rows_per_group: usize,
    /// Row width and p\* of Λ, then of Λ′.
    tables: [(usize, u64); 2],
}

/// Epoch-incremental group-graph correlator. Owns the previous epoch's
/// rows and the live edge lists of the test and the detection graph;
/// feed it one matrix per epoch and it returns the same [`Graph`]s the
/// from-scratch all-pairs builds would produce, for delta cost on
/// persisting traffic.
#[derive(Debug)]
pub struct IncrementalCorrelator {
    shape: Option<Shape>,
    prev_rows: RowMatrix,
    /// The live edges under Λ, then under Λ′: `(u, v)` with `u < v`,
    /// sorted ascending.
    edges: [Vec<(u32, u32)>; 2],
}

impl Default for IncrementalCorrelator {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalCorrelator {
    /// A cold correlator: the first epoch is a full build.
    pub fn new() -> Self {
        IncrementalCorrelator {
            shape: None,
            prev_rows: RowMatrix::new(64),
            edges: [Vec::new(), Vec::new()],
        }
    }

    /// Processes one epoch: returns the test graph for `rows` —
    /// bit-identical to the all-pairs
    /// [`build_group_graph`](crate::build_group_graph)
    /// under `tables.test` — and the epoch's work accounting. The same
    /// pass brings the detection graph under `tables.detect` up to date for
    /// [`detection_graph`](Self::detection_graph).
    pub fn epoch(
        &mut self,
        rows: &RowMatrix,
        layout: GroupLayout,
        tables: &LambdaTables,
    ) -> (Graph, EpochStats) {
        let n = layout.groups(rows);
        let both = [&tables.test, &tables.detect];
        let shape = Shape {
            nrows: rows.nrows(),
            ncols: rows.ncols(),
            rows_per_group: layout.rows_per_group,
            tables: both.map(|t| (t.n_bits(), t.p_star().to_bits())),
        };
        let full_rebuild = self.shape != Some(shape);

        // Changed rows: all of them after a cold start or shape change,
        // else an exact word-diff against the stored previous rows.
        let changed_rows: Vec<usize> = if full_rebuild {
            self.shape = Some(shape);
            self.edges.iter_mut().for_each(Vec::clear);
            (0..rows.nrows()).collect()
        } else {
            let wpr = rows.words_per_row();
            let (cur, prev) = (rows.as_words(), self.prev_rows.as_words());
            (0..rows.nrows())
                .filter(|&r| cur[r * wpr..(r + 1) * wpr] != prev[r * wpr..(r + 1) * wpr])
                .collect()
        };
        let mut changed = vec![false; n];
        for &r in &changed_rows {
            changed[r / layout.rows_per_group] = true;
        }
        let mut stats = EpochStats {
            rows_changed: changed_rows.len(),
            groups_changed: changed.iter().filter(|&&c| c).count(),
            full_rebuild,
            ..EpochStats::default()
        };

        if !changed_rows.is_empty() {
            let (fresh, pairs_exact) = edges_touching(rows, layout, both, &changed);
            for (edges, fresh) in self.edges.iter_mut().zip(fresh) {
                edges.retain(|&(u, v)| !changed[u as usize] && !changed[v as usize]);
                edges.extend(fresh);
                edges.sort_unstable();
            }
            self.prev_rows.clone_from(rows);
            stats.pairs_exact = pairs_exact;
        }
        stats.edges_live = self.edges[0].len();
        (graph_of(n, &self.edges[0]), stats)
    }

    /// The detection graph under Λ′ as of the last [`epoch`](Self::epoch)
    /// — bit-identical to the all-pairs
    /// [`build_group_graph`](crate::build_group_graph)
    /// under `tables.detect` of that epoch; empty before the first.
    pub fn detection_graph(&self) -> Graph {
        let n = self.shape.map_or(0, |s| s.nrows / s.rows_per_group);
        graph_of(n, &self.edges[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphbuild::build_group_graph;
    use crate::graphbuild::tests::oracle_group_graph;
    use crate::lambda::LambdaTable;
    use dcs_bitmap::Bitmap;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const NBITS: usize = 1024;
    const K: usize = 2;

    /// Λ at `test` and Λ′ at `detect` (per-row-pair p\*).
    fn tables(test: f64, detect: f64) -> LambdaTables {
        LambdaTables {
            test: LambdaTable::new(NBITS, test),
            detect: LambdaTable::new(NBITS, detect),
        }
    }

    fn random_row(rng: &mut StdRng, weight: usize) -> Bitmap {
        let mut bm = Bitmap::new(NBITS);
        while (bm.weight() as usize) < weight {
            bm.set(rng.gen_range(0..NBITS));
        }
        bm
    }

    /// Row weight of row `r` of group `g` under a regime: `Some(w)` is
    /// the paper's near-uniform fill; `None` cycles the groups through
    /// empty rows, 5–8-bit sparse rows, 120–137-bit rows and
    /// 480–530-bit rows, all in one matrix.
    fn row_weight(uniform: Option<usize>, g: usize, r: usize) -> usize {
        uniform.unwrap_or(match g % 4 {
            0 => 0,
            1 => 5 + 3 * r,
            2 => 120 + 17 * r,
            _ => 480 + 50 * r,
        })
    }

    fn random_matrix(rng: &mut StdRng, groups: usize, uniform: Option<usize>) -> RowMatrix {
        let mut m = RowMatrix::new(NBITS);
        for g in 0..groups {
            for r in 0..K {
                m.push_bitmap(&random_row(rng, row_weight(uniform, g, r)));
            }
        }
        m
    }

    /// Mutates `frac`-worth of groups in place (rewrites their rows).
    fn churn(rng: &mut StdRng, m: &RowMatrix, frac: f64, uniform: Option<usize>) -> RowMatrix {
        let mut out = RowMatrix::new(NBITS);
        let groups = m.nrows() / K;
        for g in 0..groups {
            let mutate = rng.gen_bool(frac);
            for r in 0..K {
                if mutate {
                    out.push_bitmap(&random_row(rng, row_weight(uniform, g, r)));
                } else {
                    out.push_words(m.row(g * K + r));
                }
            }
        }
        out
    }

    /// Sorted edges of `g`.
    fn edge_list(g: &Graph) -> Vec<(u32, u32)> {
        let mut e: Vec<_> = g.edges().collect();
        e.sort_unstable();
        e
    }

    fn assert_same_edges(a: &Graph, b: &Graph, what: &str) {
        assert_eq!(edge_list(a), edge_list(b), "{what}");
    }

    /// Eight epochs of 30 % group churn. The p\* of both tables sits high
    /// enough that each graph holds edges on every epoch and that every
    /// delta epoch drops at least one edge the last epoch carried: a
    /// correlator that kept a changed group's old edges, or missed its
    /// new ones, differs from the oracle.
    #[test]
    fn incremental_tracks_oracle_over_epochs() {
        let mut rng = StdRng::seed_from_u64(31);
        let layout = GroupLayout { rows_per_group: K };
        let t = tables(2e-2, 1e-1);
        let mut corr = IncrementalCorrelator::new();
        let mut m = random_matrix(&mut rng, 14, Some(460));
        let mut last: Option<[Vec<(u32, u32)>; 2]> = None;
        for epoch in 0..8u64 {
            let (g, stats) = corr.epoch(&m, layout, &t);
            let oracle = oracle_group_graph(&m, layout, &t.test);
            assert_same_edges(&g, &oracle, &format!("epoch {epoch}"));
            let detect = oracle_group_graph(&m, layout, &t.detect);
            assert_same_edges(
                &corr.detection_graph(),
                &detect,
                &format!("Λ′ epoch {epoch}"),
            );
            assert_eq!(stats.full_rebuild, epoch == 0);
            assert_eq!(stats.edges_live, oracle.m());
            let now = [edge_list(&oracle), edge_list(&detect)];
            for (i, graph) in ["Λ", "Λ′"].into_iter().enumerate() {
                assert!(!now[i].is_empty(), "{graph} epoch {epoch} has no edge");
                if let Some(before) = &last {
                    let dropped = before[i].iter().any(|e| now[i].binary_search(e).is_err());
                    assert!(dropped, "{graph} epoch {epoch} dropped no edge of the last");
                }
            }
            if epoch > 0 {
                assert!(
                    stats.pairs_exact <= (stats.groups_changed * 14) as u64 * (K * K) as u64,
                    "delta epoch did more than changed × all work: {stats:?}"
                );
            }
            last = Some(now);
            m = churn(&mut rng, &m, 0.3, Some(460));
        }
    }

    #[test]
    fn unchanged_epoch_is_free() {
        let mut rng = StdRng::seed_from_u64(33);
        let layout = GroupLayout { rows_per_group: K };
        let t = tables(1e-4, 1e-3);
        let mut corr = IncrementalCorrelator::new();
        let m = random_matrix(&mut rng, 10, Some(460));
        let (g0, s0) = corr.epoch(&m, layout, &t);
        assert!(s0.full_rebuild);
        let d0 = corr.detection_graph();
        let (g1, s1) = corr.epoch(&m, layout, &t);
        assert_eq!(s1.rows_changed, 0);
        assert_eq!(s1.pairs_exact, 0, "no work on no churn");
        assert_same_edges(&g0, &g1, "unchanged epoch altered the graph");
        assert_same_edges(&d0, &corr.detection_graph(), "unchanged epoch altered Λ′");
    }

    /// A new group count, and a new p\* for either table, each rebuild
    /// both graphs from scratch.
    #[test]
    fn shape_change_forces_full_rebuild() {
        let mut rng = StdRng::seed_from_u64(34);
        let layout = GroupLayout { rows_per_group: K };
        let mut corr = IncrementalCorrelator::new();
        let m = random_matrix(&mut rng, 8, Some(460));
        corr.epoch(&m, layout, &tables(1e-4, 1e-3));
        let bigger = random_matrix(&mut rng, 12, Some(460));
        for (what, t) in [
            ("group count", tables(1e-4, 1e-3)),
            ("Λ′ p*", tables(1e-4, 1e-2)),
            ("Λ p*", tables(1e-3, 1e-2)),
        ] {
            let (g, s) = corr.epoch(&bigger, layout, &t);
            assert!(s.full_rebuild, "{what} change must rebuild");
            let want = oracle_group_graph(&bigger, layout, &t.test);
            assert_same_edges(&g, &want, what);
            let want = oracle_group_graph(&bigger, layout, &t.detect);
            assert_same_edges(&corr.detection_graph(), &want, what);
        }
    }

    /// 64 groups × 10 rows of null traffic at the design fill, 8 % of the
    /// groups rewritten an epoch: a delta epoch's exact row pairs sit
    /// ≥ 5× below the all-pairs tally of the same matrix (changed × all
    /// is ≈ 2·churn of the triangle; exact counts, no clock).
    #[test]
    fn steady_state_exact_pairs_are_5x_below_all_pairs() {
        const GROUPS: usize = 64;
        const ROWS: usize = 10;
        let mut rng = StdRng::seed_from_u64(36);
        let layout = GroupLayout {
            rows_per_group: ROWS,
        };
        let t = tables(2e-7, 2e-5);
        let mut rows: Vec<Bitmap> = (0..GROUPS * ROWS)
            .map(|_| random_row(&mut rng, 446))
            .collect();
        let stack = |rows: &[Bitmap]| {
            let mut m = RowMatrix::new(NBITS);
            rows.iter().for_each(|r| m.push_bitmap(r));
            m
        };
        let mut corr = IncrementalCorrelator::new();
        corr.epoch(&stack(&rows), layout, &t);
        for epoch in 0..4 {
            for g in (0..5).map(|i| (epoch * 5 + i) % GROUPS) {
                rows[g * ROWS..(g + 1) * ROWS].fill_with(|| random_row(&mut rng, 446));
            }
            let m = stack(&rows);
            let (_, stats) = corr.epoch(&m, layout, &t);
            let (_, all_pairs) = build_group_graph(&m, layout, &t.test);
            assert!(!stats.full_rebuild, "steady state must not rebuild");
            assert!(
                stats.pairs_exact * 5 <= all_pairs,
                "epoch {epoch}: {} exact pairs vs {all_pairs} all-pairs",
                stats.pairs_exact
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Rows churn across epochs; both incremental edge lists must
        /// equal the from-scratch builds every epoch, including after
        /// heavy churn that drops most carried edges — on uniform dense
        /// rows and on a matrix mixing empty, sparse, medium and dense
        /// rows, with Λ′ laxer than, equal to or stricter than Λ (where a
        /// Λ edge no longer implies a Λ′ edge and the pair loop scans on
        /// past the first Λ hit).
        #[test]
        fn churned_epochs_match_from_scratch(
            seed in any::<u64>(),
            groups in 6usize..14,
            mixed in any::<bool>(),
            detect_exp in 1i32..=3,
            fracs in proptest::collection::vec(0.0f64..1.0, 1..5),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let layout = GroupLayout { rows_per_group: K };
            let uniform = (!mixed).then_some(470);
            // p* high enough that random matrices grow real edges, so
            // churn has edges to drop.
            let t = tables(1e-2, 10f64.powi(-detect_exp));
            let mut corr = IncrementalCorrelator::new();
            let mut m = random_matrix(&mut rng, groups, uniform);
            for (i, &frac) in fracs.iter().enumerate() {
                let (g, _) = corr.epoch(&m, layout, &t);
                for (name, got, table) in [("Λ", g, &t.test), ("Λ′", corr.detection_graph(), &t.detect)] {
                    let oracle = oracle_group_graph(&m, layout, table);
                    let mut ea: Vec<_> = got.edges().collect();
                    let mut eb: Vec<_> = oracle.edges().collect();
                    ea.sort_unstable();
                    eb.sort_unstable();
                    prop_assert_eq!(ea, eb, "{} epoch {} diverged", name, i);
                }
                m = churn(&mut rng, &m, frac, uniform);
            }
        }
    }
}
