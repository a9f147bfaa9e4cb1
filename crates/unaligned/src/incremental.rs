//! Cross-epoch delta maintenance of the unaligned group graph.
//!
//! The λ edge test is a pure function of the two rows it compares, so
//! when a group's rows did not change between epochs every edge decision
//! involving only such groups is already known — rebuilding the graph
//! from scratch each epoch repeats `n²/2` group tests to rediscover it.
//! [`IncrementalCorrelator`] instead:
//!
//! 1. diffs the incoming matrix against the previous epoch's rows
//!    (exact word comparison — a row hash is never trusted for
//!    equality, a collision would silently break the identity
//!    guarantee) to find the **changed groups**;
//! 2. re-tests only `changed × all` group pairs (deduplicating
//!    changed–changed pairs), confirming surviving edges into an
//!    [`IncrementalGraph`] with the current epoch stamp;
//! 3. expires incident edges that were *not* re-confirmed
//!    ([`IncrementalGraph::expire_incident_before`]) — edges between
//!    untouched groups keep their old stamps and never re-pay the test.
//!
//! Steady-state work is `O(c · n)` group tests for churn fraction `c`
//! instead of `O(n²/2)` — the headline subquadratic win on persisting
//! traffic. Correctness does not rest on trust: every
//! [`IncrementalConfig::audit_every`]-th epoch the engine runs the full
//! all-pairs build anyway and asserts the edge sets are identical
//! (audit work is kept out of the pair tally so the metrics keep
//! describing the incremental path).

use crate::graphbuild::{
    balanced_outer_indices, build_group_graph_parallel, groups_connected, GroupLayout,
};
use crate::lambda::LambdaTable;
use dcs_bitmap::RowMatrix;
use dcs_graph::{Graph, IncrementalGraph};
use dcs_parallel::{map_chunks, map_workers};

/// Knobs for the incremental engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IncrementalConfig {
    /// Run the full-rebuild equality audit every this many epochs
    /// (`0` disables the audit; `1` audits every epoch).
    pub audit_every: u64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig { audit_every: 16 }
    }
}

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
    /// Live edges after the epoch.
    pub edges_live: usize,
    /// Whether this epoch paid a full from-scratch build (cold start or
    /// deployment-shape change).
    pub full_rebuild: bool,
    /// Whether the full-rebuild equality audit ran this epoch.
    pub audited: bool,
}

/// The deployment shape an incremental state is valid for; any change
/// forces a full rebuild (λ tables and group identity are shape-bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    nrows: usize,
    ncols: usize,
    rows_per_group: usize,
    n_bits: usize,
    p_star_bits: u64,
}

/// Epoch-incremental group-graph correlator. Owns the previous epoch's
/// rows and the live stamped graph; feed it one matrix per epoch and it
/// returns the same [`Graph`] the from-scratch all-pairs build would
/// produce, for delta cost on persisting traffic.
#[derive(Debug)]
pub struct IncrementalCorrelator {
    cfg: IncrementalConfig,
    epochs_seen: u64,
    shape: Option<Shape>,
    prev_rows: RowMatrix,
    graph: IncrementalGraph,
    changed_groups: Vec<bool>,
}

impl IncrementalCorrelator {
    /// A cold correlator: the first epoch is a full build.
    pub fn new(cfg: IncrementalConfig) -> Self {
        IncrementalCorrelator {
            cfg,
            epochs_seen: 0,
            shape: None,
            prev_rows: RowMatrix::new(64),
            graph: IncrementalGraph::new(0),
            changed_groups: Vec::new(),
        }
    }

    /// Epochs processed since construction (or the last shape change —
    /// the counter keeps running across rebuilds).
    pub fn epochs_seen(&self) -> u64 {
        self.epochs_seen
    }

    /// Live edges in the maintained graph.
    pub fn edges_live(&self) -> usize {
        self.graph.live_edges()
    }

    /// Drops all state; the next epoch is a full rebuild.
    pub fn invalidate(&mut self) {
        self.shape = None;
    }

    /// Processes one epoch: returns the group graph for `rows` —
    /// bit-identical to `build_group_graph(rows, layout, table)` — and
    /// the epoch's work accounting.
    ///
    /// # Panics
    /// Panics if `threads == 0` or if the equality audit detects
    /// divergence (an engine bug by definition — the audit exists to turn
    /// silent wrongness loud).
    pub fn epoch(
        &mut self,
        rows: &RowMatrix,
        layout: GroupLayout,
        table: &LambdaTable,
        threads: usize,
    ) -> (Graph, EpochStats) {
        assert!(threads > 0, "need at least one thread");
        let n = layout.groups(rows);
        let shape = Shape {
            nrows: rows.nrows(),
            ncols: rows.ncols(),
            rows_per_group: layout.rows_per_group,
            n_bits: table.n_bits(),
            p_star_bits: table.p_star().to_bits(),
        };
        self.epochs_seen += 1;
        let stamp = self.epochs_seen;

        let mut stats = EpochStats::default();
        if self.shape != Some(shape) {
            // Cold start or shape change: one full all-pairs build,
            // loaded into the incremental graph as the new baseline.
            self.shape = Some(shape);
            self.graph.reset(n);
            self.graph.begin_epoch(stamp);
            let (full, pairs_exact) = build_group_graph_parallel(rows, layout, table, threads);
            for (u, v) in full.edges() {
                self.graph.add_edge(u, v);
            }
            self.prev_rows.clone_from(rows);
            stats.pairs_exact = pairs_exact;
            stats.rows_changed = rows.nrows();
            stats.groups_changed = n;
            stats.full_rebuild = true;
            stats.edges_live = self.graph.live_edges();
            return (full, stats);
        }

        // Delta epoch: exact word-diff against the stored previous rows.
        let k = layout.rows_per_group;
        let wpr = rows.words_per_row();
        let cur = rows.as_words();
        let prev = self.prev_rows.as_words();
        let changed_rows: Vec<usize> = map_chunks(rows.nrows(), threads, |range| {
            range
                .filter(|&r| cur[r * wpr..(r + 1) * wpr] != prev[r * wpr..(r + 1) * wpr])
                .collect::<Vec<usize>>()
        })
        .into_iter()
        .flatten()
        .collect();
        self.changed_groups.clear();
        self.changed_groups.resize(n, false);
        for &r in &changed_rows {
            self.changed_groups[r / k] = true;
        }
        // Ascending, so the dedup skip below forms a triangle over it.
        let changed_list: Vec<usize> = (0..n).filter(|&g| self.changed_groups[g]).collect();
        stats.rows_changed = changed_rows.len();
        stats.groups_changed = changed_list.len();

        self.graph.begin_epoch(stamp);
        if !changed_list.is_empty() {
            let changed = &self.changed_groups;
            let list = &changed_list;
            let weights = rows.row_weights();
            // changed × all, deduplicating changed–changed pairs: the
            // pair {gc, g} with both changed is tested only by the
            // larger side. Outer cost is triangular over the changed
            // list, so zigzag-stride it like the full build.
            let results: Vec<(Vec<(u32, u32)>, u64)> = map_workers(threads, |t| {
                let mut local = Vec::new();
                let mut pairs_exact = 0;
                for li in balanced_outer_indices(list.len(), threads, t) {
                    let gc = list[li];
                    for (g, &g_changed) in changed.iter().enumerate() {
                        if g == gc || (g_changed && g < gc) {
                            continue;
                        }
                        let (ga, gb) = (gc.min(g), gc.max(g));
                        if groups_connected(rows, &weights, layout, table, ga, gb, &mut pairs_exact)
                        {
                            local.push((ga as u32, gb as u32));
                        }
                    }
                }
                (local, pairs_exact)
            });
            for (list, pairs_exact) in results {
                stats.pairs_exact += pairs_exact;
                for (u, v) in list {
                    self.graph.add_edge(u, v);
                }
            }
            self.graph
                .expire_incident_before(&self.changed_groups, stamp);
            self.prev_rows.clone_from(rows);
        }
        stats.edges_live = self.graph.live_edges();

        if self.cfg.audit_every > 0 && self.epochs_seen.is_multiple_of(self.cfg.audit_every) {
            // Full-rebuild audit: recompute from scratch and demand edge
            // equality. Deliberately outside the pair tally — metrics
            // describe the incremental path, not the safety net.
            let (full, _) = build_group_graph_parallel(rows, layout, table, threads);
            let mut want: Vec<(u32, u32)> = full.edges().collect();
            want.sort_unstable();
            let got = self.graph.sorted_edges();
            assert_eq!(
                got, want,
                "incremental graph diverged from full rebuild at epoch {stamp}"
            );
            stats.audited = true;
        }

        (self.graph.to_graph(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphbuild::build_group_graph;
    use dcs_bitmap::Bitmap;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const NBITS: usize = 1024;
    const K: usize = 2;

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

    fn assert_same_edges(a: &Graph, b: &Graph, what: &str) {
        let mut ea: Vec<_> = a.edges().collect();
        let mut eb: Vec<_> = b.edges().collect();
        ea.sort_unstable();
        eb.sort_unstable();
        assert_eq!(ea, eb, "{what}");
    }

    #[test]
    fn incremental_tracks_oracle_over_epochs() {
        let mut rng = StdRng::seed_from_u64(31);
        let layout = GroupLayout { rows_per_group: K };
        let table = LambdaTable::new(NBITS, 1e-4);
        let cfg = IncrementalConfig { audit_every: 3 };
        let mut corr = IncrementalCorrelator::new(cfg);
        let mut m = random_matrix(&mut rng, 14, Some(460));
        for epoch in 0..8u64 {
            let (g, stats) = corr.epoch(&m, layout, &table, 2);
            let oracle = build_group_graph(&m, layout, &table);
            assert_same_edges(&g, &oracle, &format!("epoch {epoch}"));
            assert_eq!(stats.full_rebuild, epoch == 0);
            assert_eq!(stats.edges_live, oracle.m());
            if epoch > 0 {
                assert!(
                    stats.pairs_exact <= (stats.groups_changed * 14) as u64 * (K * K) as u64,
                    "delta epoch did more than changed × all work: {stats:?}"
                );
            }
            m = churn(&mut rng, &m, 0.3, Some(460));
        }
    }

    #[test]
    fn unchanged_epoch_is_free() {
        let mut rng = StdRng::seed_from_u64(33);
        let layout = GroupLayout { rows_per_group: K };
        let table = LambdaTable::new(NBITS, 1e-4);
        let mut corr = IncrementalCorrelator::new(IncrementalConfig { audit_every: 0 });
        let m = random_matrix(&mut rng, 10, Some(460));
        let (g0, s0) = corr.epoch(&m, layout, &table, 1);
        assert!(s0.full_rebuild);
        let (g1, s1) = corr.epoch(&m, layout, &table, 1);
        assert_eq!(s1.rows_changed, 0);
        assert_eq!(s1.pairs_exact, 0, "no work on no churn");
        assert_same_edges(&g0, &g1, "unchanged epoch altered the graph");
    }

    #[test]
    fn shape_change_forces_full_rebuild() {
        let mut rng = StdRng::seed_from_u64(34);
        let layout = GroupLayout { rows_per_group: K };
        let table = LambdaTable::new(NBITS, 1e-4);
        let mut corr = IncrementalCorrelator::new(IncrementalConfig::default());
        let m = random_matrix(&mut rng, 8, Some(460));
        corr.epoch(&m, layout, &table, 1);
        let bigger = random_matrix(&mut rng, 12, Some(460));
        let (g, s) = corr.epoch(&bigger, layout, &table, 1);
        assert!(s.full_rebuild, "group-count change must rebuild");
        assert_same_edges(&g, &build_group_graph(&bigger, layout, &table), "rebuild");
    }

    /// Edges and the exact-pair tally are the same for 1, 2 and 8
    /// threads, on the paper's uniform fill and on mixed weight regimes.
    #[test]
    fn thread_count_invariance() {
        let mut rng = StdRng::seed_from_u64(35);
        let layout = GroupLayout { rows_per_group: K };
        let table = LambdaTable::new(NBITS, 1e-4);
        for uniform in [Some(460), None] {
            let m0 = random_matrix(&mut rng, 12, uniform);
            let m1 = churn(&mut rng, &m0, 0.25, uniform);
            let mut runs = Vec::new();
            for threads in [1usize, 2, 8] {
                let mut corr = IncrementalCorrelator::new(IncrementalConfig { audit_every: 1 });
                let mut out = Vec::new();
                for m in [&m0, &m1] {
                    let (g, s) = corr.epoch(m, layout, &table, threads);
                    let mut es: Vec<_> = g.edges().collect();
                    es.sort_unstable();
                    out.push((es, s.pairs_exact));
                }
                runs.push((threads, out));
            }
            assert!(runs[0].1[0].1 > 0, "cold epoch tested no pair");
            for (threads, out) in &runs[1..] {
                assert_eq!(out, &runs[0].1, "divergence at {threads} threads");
            }
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
        let table = LambdaTable::new(NBITS, 2e-7);
        let mut rows: Vec<Bitmap> = (0..GROUPS * ROWS)
            .map(|_| random_row(&mut rng, 446))
            .collect();
        let stack = |rows: &[Bitmap]| {
            let mut m = RowMatrix::new(NBITS);
            rows.iter().for_each(|r| m.push_bitmap(r));
            m
        };
        let mut corr = IncrementalCorrelator::new(IncrementalConfig { audit_every: 0 });
        corr.epoch(&stack(&rows), layout, &table, 2);
        for epoch in 0..4 {
            for g in (0..5).map(|i| (epoch * 5 + i) % GROUPS) {
                rows[g * ROWS..(g + 1) * ROWS].fill_with(|| random_row(&mut rng, 446));
            }
            let m = stack(&rows);
            let (_, stats) = corr.epoch(&m, layout, &table, 2);
            let (_, all_pairs) = build_group_graph_parallel(&m, layout, &table, 2);
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

        /// Satellite pin: rows churn (add/expire/mutate) across epochs;
        /// the incremental components must equal the from-scratch build
        /// every epoch, including after heavy churn that exercises the
        /// expiry-watermark rebuild path — on uniform dense rows and on a
        /// matrix mixing empty, sparse, medium and dense rows.
        #[test]
        fn churned_epochs_match_from_scratch(
            seed in any::<u64>(),
            groups in 6usize..14,
            mixed in any::<bool>(),
            fracs in proptest::collection::vec(0.0f64..1.0, 1..5),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let layout = GroupLayout { rows_per_group: K };
            let uniform = (!mixed).then_some(470);
            // p* high enough that random matrices grow real edges, so
            // expiry has something to chew on.
            let table = LambdaTable::new(NBITS, 1e-2);
            let mut corr = IncrementalCorrelator::new(IncrementalConfig { audit_every: 2 });
            let mut m = random_matrix(&mut rng, groups, uniform);
            for (i, &frac) in fracs.iter().enumerate() {
                let (g, _) = corr.epoch(&m, layout, &table, 2);
                let oracle = build_group_graph(&m, layout, &table);
                let mut ea: Vec<_> = g.edges().collect();
                let mut eb: Vec<_> = oracle.edges().collect();
                ea.sort_unstable();
                eb.sort_unstable();
                prop_assert_eq!(ea, eb, "epoch {} diverged", i);
                m = churn(&mut rng, &m, frac, uniform);
            }
        }
    }
}
