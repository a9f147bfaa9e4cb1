//! The Λ threshold tables (paper Section IV-B).
//!
//! Two rows containing `i` and `j` ones share, under the null,
//! `X(i,j) ~ Hypergeometric(N, i, j)` common ones. To make the group graph
//! Erdős–Rényi with a *uniform* per-row-pair exceedance probability p\*,
//! the threshold must depend on the weights: `λᵢⱼ` is the smallest `t`
//! with `P[X(i,j) > t] ≤ p*`.
//!
//! **Owner and lifetime.** The paper compares against a *precomputed*
//! table, and a quantile costs a few hundred nanoseconds where the
//! AND-popcount it gates costs a few, so a table must outlive the epoch.
//! The analysis centre holds one [`LambdaTables`] pair — Λ for the
//! statistical-test graph, Λ′ for the detection graph — and
//! [`LambdaTables::for_shape`] replaces it only when the row width, the
//! rows per group or an edge probability changes. A table is still
//! filled lazily, but off the pair loop's common path: the loop rules a
//! row pair out on a coarse grid cell most pairs share and reads the
//! pair's own cell only when the count exceeds it (`graphbuild`'s
//! `GRID`).
//!
//! **Seeded fills.** A fill walks from `mean + z·sd` of its null law,
//! `z` the standardised quantile of the table's last fill, one
//! [`hypergeom_sf_le`](dcs_stats::hypergeom_sf_le) decision a step; only a
//! table's first fill bisects. DESIGN §3.4 has the measured cost.
//!
//! **Layout and memory bound.** A [`LambdaTable`] is a directory of
//! `N + 1` rows indexed by the first weight; row `i` is allocated the
//! first time weight `i` is looked up and holds `N + 1` 16-bit cells
//! indexed by the second weight. A hit is one indexed load. Memory is
//! (distinct weights seen) × (N + 1) × 2 bytes, at most (N + 1)² cells —
//! 2 MiB at the 1,024-bit rows every deployment uses — so there is no
//! capacity and no eviction.
//!
//! **One thread at a time.** Cells are plain [`Cell`]s filled through a
//! shared reference, so a table is `Send` but not `Sync`: the pair loop
//! runs on the caller's thread, and the centre shares its tables only
//! behind the lock that guards the rest of its cross-epoch state.

use dcs_stats::{hypergeom_tail_quantile, hypergeom_tail_quantile_near};
use std::cell::{Cell, OnceCell};

/// Cell value meaning "not computed yet". λ never exceeds the row width,
/// and [`LambdaTable::new`] keeps the row width below this.
const UNSET: u16 = u16::MAX;

/// One row of λ cells, allocated the first time its weight is looked up.
type Row = OnceCell<Box<[Cell<u16>]>>;

/// Lazily-filled λ table for a fixed row width and p\*.
#[derive(Debug)]
pub struct LambdaTable {
    n_bits: usize,
    p_star: f64,
    /// `rows[i][j]` is `λ(i, j)` or [`UNSET`]; both `(i, j)` and `(j, i)`
    /// are written on a fill.
    rows: Box<[Row]>,
    /// `(λ − mean)/sd` of the last fill whose null law has a spread: the
    /// seed of the next fill's walk.
    z: Cell<Option<f64>>,
    /// Distinct unordered weight pairs filled so far.
    filled: Cell<u64>,
    /// Fills not yet handed out by [`take_new_fills`](Self::take_new_fills).
    unreported: Cell<u64>,
}

/// Row `i` of a [`LambdaTable`]: resolves `λ(i, ·)` with one indexed load
/// per hit, so a sweep looks the row up once per outer row.
pub struct LambdaRow<'a> {
    table: &'a LambdaTable,
    i: u32,
    cells: &'a [Cell<u16>],
}

impl LambdaRow<'_> {
    /// λ for the row pair with weights `(i, j)`.
    ///
    /// # Panics
    /// Panics if `j` exceeds the row width.
    #[inline]
    pub fn get(&self, j: u32) -> u32 {
        let cell = self
            .cells
            .get(j as usize)
            .expect("weights exceed row width");
        match cell.get() {
            UNSET => self.table.fill(self.i, j),
            v => u32::from(v),
        }
    }
}

impl LambdaTable {
    /// Creates a table for rows of `n_bits` bits at exceedance level
    /// `p_star`.
    ///
    /// # Panics
    /// Panics unless `0 < p_star < 1` and `0 < n_bits < 65 535` (a cell
    /// is 16 bits wide and its largest value marks "unset"). The digest
    /// wire refuses any other array width (`dcs_collect::MAX_ARRAY_BITS`),
    /// so no frame reaches this panic.
    pub fn new(n_bits: usize, p_star: f64) -> Self {
        assert!(n_bits > 0, "rows must be non-empty");
        assert!(
            n_bits < usize::from(UNSET),
            "row width {n_bits} does not fit a 16-bit λ cell"
        );
        assert!(p_star > 0.0 && p_star < 1.0, "p* must be in (0,1)");
        LambdaTable {
            n_bits,
            p_star,
            rows: (0..=n_bits).map(|_| OnceCell::new()).collect(),
            z: Cell::new(None),
            filled: Cell::new(0),
            unreported: Cell::new(0),
        }
    }

    /// Row width in bits.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// The per-row-pair exceedance probability p\*.
    pub fn p_star(&self) -> f64 {
        self.p_star
    }

    fn cells(&self, i: u32) -> &[Cell<u16>] {
        self.rows
            .get(i as usize)
            .expect("weights exceed row width")
            .get_or_init(|| (0..=self.n_bits).map(|_| Cell::new(UNSET)).collect())
    }

    /// The λ row for first weight `i` (allocated on first use).
    ///
    /// # Panics
    /// Panics if `i` exceeds the row width.
    pub fn row(&self, i: u32) -> LambdaRow<'_> {
        LambdaRow {
            table: self,
            i,
            cells: self.cells(i),
        }
    }

    /// λ for a row pair with weights `i` and `j` (symmetric).
    ///
    /// # Panics
    /// Panics if a weight exceeds the row width.
    pub fn lambda(&self, i: u32, j: u32) -> u32 {
        self.row(i).get(j)
    }

    /// The miss path: computes `λ(i, j)` and stores it under both
    /// argument orders, which are only ever unset together. The quantile
    /// is walked from `mean + z·sd` of the pair's null law, `z` the
    /// standardised quantile of the table's last fill (see
    /// [`hypergeom_tail_quantile_near`]: exact from any start, so the fill
    /// order changes only the cost), and bisected only before any fill
    /// has set `z`.
    #[cold]
    fn fill(&self, i: u32, j: u32) -> u32 {
        let (lo, hi) = (i.min(j), i.max(j));
        let (n, wlo, whi) = (self.n_bits as u64, u64::from(lo), u64::from(hi));
        let (nf, fi, fj) = (n as f64, f64::from(lo), f64::from(hi));
        let mean = fi * fj / nf;
        let sd = (mean * (nf - fi) * (nf - fj) / (nf * (nf - 1.0).max(1.0))).sqrt();
        // Rounded down: a guess one low costs the walk no more than an
        // exact one, one high costs one more evaluation. A negative guess
        // saturates to 0, and the walk clamps it to the support.
        let lam = match self.z.get().map(|z| (mean + z * sd) as u64) {
            Some(guess) => hypergeom_tail_quantile_near(self.p_star, n, wlo, whi, guess),
            None => hypergeom_tail_quantile(self.p_star, n, wlo, whi),
        };
        if sd > 0.0 {
            self.z.set(Some((lam as f64 - mean) / sd));
        }
        let v = u16::try_from(lam).expect("λ is at most the row width");
        let (lo_row, hi_row) = (self.cells(lo), self.cells(hi));
        lo_row[hi as usize].set(v);
        hi_row[lo as usize].set(v);
        self.filled.set(self.filled.get() + 1);
        self.unreported.set(self.unreported.get() + 1);
        u32::from(v)
    }

    /// Number of distinct unordered weight pairs filled so far.
    pub fn memo_len(&self) -> usize {
        self.filled.get() as usize
    }

    /// The filled `(i ≤ j)` weight pairs in ascending order.
    #[cfg(test)]
    pub(crate) fn filled_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            let Some(cells) = row.get() else { continue };
            for (j, cell) in cells.iter().enumerate().skip(i) {
                if cell.get() != UNSET {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// Fills since the previous call — each fill is returned by exactly
    /// one call, so every epoch on the table can feed one counter without
    /// double counting.
    pub fn take_new_fills(&self) -> u64 {
        self.unreported.replace(0)
    }
}

/// The table pair one deployment shape needs: Λ at the statistical-test
/// level and Λ′ at the laxer detection level.
#[derive(Debug)]
pub struct LambdaTables {
    /// Λ — thresholds of the statistical-test graph.
    pub test: LambdaTable,
    /// Λ′ — thresholds of the detection graph raised on an alarm.
    pub detect: LambdaTable,
}

impl LambdaTables {
    /// The tables for rows of `n_bits` bits compared `rows_per_group²`
    /// row pairs per group pair, at group-edge probabilities `test_p1`
    /// (test graph) and `detect_p1` (detection graph, capped at 0.999).
    /// Keeps the pair `slot` holds when it was built for the same values,
    /// so the quantiles one epoch computed serve every later epoch, and
    /// replaces it otherwise.
    ///
    /// # Panics
    /// Panics on a shape [`LambdaTable::new`] or
    /// [`p_star_for_edge_prob`] rejects, leaving `slot` empty.
    pub fn for_shape(
        slot: &mut Option<LambdaTables>,
        n_bits: usize,
        rows_per_group: usize,
        test_p1: f64,
        detect_p1: f64,
    ) -> &LambdaTables {
        let pairs = rows_per_group * rows_per_group;
        let p_star_test = p_star_for_edge_prob(test_p1, pairs);
        let p_star_detect = p_star_for_edge_prob(detect_p1.min(0.999), pairs);
        let fits = |t: &LambdaTables| {
            t.test.n_bits == n_bits
                && t.test.p_star == p_star_test
                && t.detect.p_star == p_star_detect
        };
        if !slot.as_ref().is_some_and(fits) {
            *slot = None;
        }
        slot.get_or_insert_with(|| LambdaTables {
            test: LambdaTable::new(n_bits, p_star_test),
            detect: LambdaTable::new(n_bits, p_star_detect),
        })
    }
}

/// Derives the per-row-pair level p\* that yields a target group-edge
/// probability `p1` when each group pair compares `pairs` row pairs:
/// `p1 = 1 − (1 − p*)^pairs  ⇒  p* = 1 − (1 − p1)^(1/pairs)`.
///
/// # Panics
/// Panics unless `0 < p1 < 1` and `pairs > 0`.
pub fn p_star_for_edge_prob(p1: f64, pairs: usize) -> f64 {
    assert!(p1 > 0.0 && p1 < 1.0, "p1 must be in (0,1)");
    assert!(pairs > 0, "need at least one row pair");
    1.0 - (1.0 - p1).powf(1.0 / pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_stats::hypergeom_sf;

    #[test]
    fn lambda_is_tight_quantile() {
        let t = LambdaTable::new(1024, 1e-5);
        let lam = t.lambda(512, 512);
        assert!(hypergeom_sf(i64::from(lam), 1024, 512, 512) <= 1e-5);
        assert!(hypergeom_sf(i64::from(lam) - 1, 1024, 512, 512) > 1e-5);
    }

    #[test]
    fn lambda_symmetric_and_memoised() {
        let t = LambdaTable::new(1024, 1e-4);
        let a = t.lambda(400, 600);
        let b = t.lambda(600, 400);
        assert_eq!(a, b);
        assert_eq!(t.memo_len(), 1, "symmetric pair shares one memo entry");
    }

    #[test]
    fn lambda_monotone_in_weights() {
        let t = LambdaTable::new(1024, 1e-5);
        // Heavier rows share more ones by chance, so λ must grow.
        let l1 = t.lambda(300, 300);
        let l2 = t.lambda(500, 500);
        let l3 = t.lambda(700, 700);
        assert!(l1 < l2 && l2 < l3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// λ must be monotone non-decreasing in *each* weight separately
        /// (hypergeometric stochastic dominance), off the diagonal too.
        #[test]
        fn lambda_monotone_off_diagonal(i in 0u32..=256, j in 0u32..=256, di in 0u32..=16) {
            let t = LambdaTable::new(256, 1e-4);
            proptest::prop_assert!(
                t.lambda(i.min(256 - di) + di, j) >= t.lambda(i.min(256 - di), j),
                "λ decreased when raising one weight ({i},{j})+{di}"
            );
        }

        /// λ is non-increasing in p\* cell by cell: the pair loop's
        /// laxest-table-first compare is exact only because of this.
        #[test]
        fn lambda_non_increasing_in_p_star(
            i in 0u32..=256,
            j in 0u32..=256,
            lax_exp in 0.301f64..8.0,
            gap in 0.0f64..4.0,
        ) {
            let lax = LambdaTable::new(256, 10f64.powf(-lax_exp));
            let strict = LambdaTable::new(256, 10f64.powf(-lax_exp - gap));
            proptest::prop_assert!(lax.lambda(i, j) <= strict.lambda(i, j), "({}, {})", i, j);
        }
    }

    #[test]
    fn uniformity_across_weight_pairs() {
        // The whole point of Λ: exceedance stays ≈ p* (never above; can be
        // below because the distribution is discrete).
        let p_star = 1e-4;
        let t = LambdaTable::new(1024, p_star);
        for &(i, j) in &[(300u32, 700u32), (450, 512), (512, 512), (600, 650)] {
            let lam = t.lambda(i, j);
            let sf = hypergeom_sf(i64::from(lam), 1024, u64::from(i), u64::from(j));
            assert!(sf <= p_star, "({i},{j}): sf {sf} above p*");
            assert!(
                sf >= p_star / 50.0,
                "({i},{j}): sf {sf} needlessly far below p* (too coarse?)"
            );
        }
    }

    #[test]
    fn degenerate_weights() {
        let t = LambdaTable::new(64, 0.01);
        assert_eq!(t.lambda(0, 30), 0);
        // Full row: shares exactly j ones; λ = j (sf beyond support = 0).
        let lam = t.lambda(64, 30);
        assert_eq!(lam, 30);
    }

    #[test]
    fn p_star_inversion() {
        let p1 = 0.65e-5;
        let p_star = p_star_for_edge_prob(p1, 100);
        let back = 1.0 - (1.0 - p_star).powi(100);
        assert!((back - p1).abs() < 1e-12);
        // For tiny p1, p* ≈ p1/100.
        assert!((p_star - p1 / 100.0).abs() < p1 * 1e-3);
    }

    #[test]
    #[should_panic(expected = "p* must be in")]
    fn invalid_p_star_rejected() {
        LambdaTable::new(10, 0.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every cell equals the quantile it stands for, in both argument
        /// orders, weights 0 and N included, cold and on the repeat hit.
        #[test]
        fn table_equals_quantile(
            n in 1usize..=300,
            p_exp in 1i32..=8,
            i_frac in 0.0f64..=1.0,
            j_frac in 0.0f64..=1.0,
            edge_i in 0u8..4,
            edge_j in 0u8..4,
        ) {
            let pick = |frac: f64, edge: u8| match edge {
                0 => 0,
                1 => n as u32,
                _ => (frac * n as f64) as u32,
            };
            let (i, j) = (pick(i_frac, edge_i), pick(j_frac, edge_j));
            let p_star = 10f64.powi(-p_exp);
            let want = hypergeom_tail_quantile(p_star, n as u64, u64::from(i), u64::from(j)) as u32;
            let t = LambdaTable::new(n, p_star);
            proptest::prop_assert_eq!(t.lambda(i, j), want, "cold ({}, {})", i, j);
            proptest::prop_assert_eq!(t.lambda(j, i), want, "swapped ({}, {})", j, i);
            proptest::prop_assert_eq!(t.row(i).get(j), want, "hit ({}, {})", i, j);
            proptest::prop_assert_eq!(t.memo_len(), 1);
        }

        /// A band of up to 20 weights — starting at 0, ending at N, or
        /// anywhere between — filled in a random order, so each fill
        /// walks from a seed (the last fill's standardised quantile)
        /// another order would not give it: every cell equals the
        /// bisected quantile, and each weight pair counts as one fill,
        /// once.
        #[test]
        fn random_fill_order_equals_quantile(
            n in 1usize..=300,
            p_exp in 0.301f64..8.0,
            at in 0.0f64..=1.0,
            edge in 0u8..3,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let n32 = n as u32;
            let start = match edge {
                0 => 0,
                1 => n32.saturating_sub(19),
                _ => ((at * f64::from(n32)) as u32).min(n32.saturating_sub(19)),
            };
            let band = start..=(start + 19).min(n32);
            let mut cells: Vec<(u32, u32)> = band
                .clone()
                .flat_map(|i| band.clone().map(move |j| (i, j)))
                .collect();
            cells.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            let p_star = 10f64.powf(-p_exp);
            let t = LambdaTable::new(n, p_star);
            for &(i, j) in &cells {
                let want = hypergeom_tail_quantile(p_star, n as u64, u64::from(i), u64::from(j));
                proptest::prop_assert_eq!(u64::from(t.lambda(i, j)), want, "({}, {})", i, j);
            }
            let width = band.count();
            let pairs = (width * (width + 1) / 2) as u64;
            proptest::prop_assert_eq!(t.memo_len() as u64, pairs);
            proptest::prop_assert_eq!(t.take_new_fills(), pairs);
            for &(i, j) in &cells {
                t.lambda(i, j);
            }
            proptest::prop_assert_eq!(t.take_new_fills(), 0, "a hit is not a fill");
        }
    }

    #[test]
    #[should_panic(expected = "weights exceed row width")]
    fn first_weight_out_of_range_panics() {
        LambdaTable::new(64, 0.01).lambda(65, 3);
    }

    #[test]
    #[should_panic(expected = "weights exceed row width")]
    fn second_weight_out_of_range_panics() {
        LambdaTable::new(64, 0.01).lambda(3, 65);
    }

    #[test]
    fn widest_row_a_cell_can_hold() {
        // λ(N, N) = N is the largest value a table stores; it must not
        // collide with the "unset" mark.
        let n = usize::from(UNSET) - 1;
        let t = LambdaTable::new(n, 0.5);
        assert_eq!(t.lambda(n as u32, n as u32), n as u32);
        assert_eq!(t.lambda(n as u32, n as u32), n as u32, "repeat is a hit");
        assert_eq!(t.memo_len(), 1);
    }

    #[test]
    #[should_panic(expected = "does not fit a 16-bit")]
    fn row_width_beyond_the_cell_type_rejected() {
        LambdaTable::new(usize::from(UNSET), 0.5);
    }

    #[test]
    fn new_fills_are_handed_out_once() {
        let t = LambdaTable::new(256, 1e-3);
        t.lambda(100, 120);
        t.lambda(120, 100);
        t.lambda(90, 90);
        assert_eq!(t.take_new_fills(), 2);
        t.lambda(100, 120);
        assert_eq!(t.take_new_fills(), 0, "a hit is not a fill");
        assert_eq!(t.memo_len(), 2);
        assert_eq!(t.filled_pairs(), vec![(90, 90), (100, 120)]);
    }

    #[test]
    fn for_shape_keeps_the_pair_until_the_shape_changes() {
        let mut slot = None;
        let a = LambdaTables::for_shape(&mut slot, 1024, 10, 1e-4, 1e-2);
        assert_eq!(a.test.p_star(), p_star_for_edge_prob(1e-4, 100));
        assert_eq!(a.detect.p_star(), p_star_for_edge_prob(1e-2, 100));
        a.test.lambda(500, 510);
        let b = LambdaTables::for_shape(&mut slot, 1024, 10, 1e-4, 1e-2);
        assert_eq!(b.test.memo_len(), 1, "same shape must keep the pair");
        for (n_bits, k, test_p1, detect_p1) in [
            (512, 10, 1e-4, 1e-2),
            (1024, 4, 1e-4, 1e-2),
            (1024, 10, 2e-4, 1e-2),
            (1024, 10, 1e-4, 2e-2),
        ] {
            LambdaTables::for_shape(&mut slot, 1024, 10, 1e-4, 1e-2)
                .test
                .lambda(500, 510);
            let c = LambdaTables::for_shape(&mut slot, n_bits, k, test_p1, detect_p1);
            assert_eq!(c.test.n_bits(), n_bits);
            assert_eq!(
                c.test.memo_len(),
                0,
                "({n_bits}, {k}, {test_p1}, {detect_p1}): a replaced pair starts cold"
            );
        }
    }
}
