//! The Λ threshold tables (paper Section IV-B).
//!
//! Two rows containing `i` and `j` ones share, under the null,
//! `X(i,j) ~ Hypergeometric(N, i, j)` common ones. To make the group graph
//! Erdős–Rényi with a *uniform* per-row-pair exceedance probability p\*,
//! the threshold must depend on the weights: `λᵢⱼ` is the smallest `t`
//! with `P[X(i,j) > t] ≤ p*`.
//!
//! **Owner and lifetime.** The paper compares against a *precomputed*
//! table, and a quantile costs microseconds where the AND-popcount it
//! gates costs nanoseconds, so a table must outlive the epoch. A
//! [`LambdaStore`] (one per analysis centre) owns the current
//! [`LambdaTables`] pair — Λ for the statistical-test graph, Λ′ for the
//! detection graph — hands it to every epoch as an `Arc`, and replaces it
//! only when the row width, the rows per group or an edge probability
//! changes. A table is still filled lazily: real digests exercise a
//! narrow weight band around the target fill.
//!
//! **Layout and memory bound.** A [`LambdaTable`] is a directory of
//! `N + 1` rows indexed by the first weight; row `i` is allocated the
//! first time weight `i` is looked up and holds `N + 1` 16-bit cells
//! indexed by the second weight. A hit is one indexed load. Memory is
//! (distinct weights seen) × (N + 1) × 2 bytes, at most (N + 1)² cells —
//! 2 MiB at the 1,024-bit rows every deployment uses — so there is no
//! capacity and no eviction.
//!
//! **Why relaxed atomics are sound.** A cell is either `UNSET` or
//! `λ(i, j)`, and `λ` is a pure function of the table's `(N, p*)` and the
//! cell's `(i, j)`: every writer of a cell stores the same value, a
//! reader that sees `UNSET` computes that value itself, and a cell
//! publishes no other memory. No ordering between cells is needed.
//! (Row allocation goes through `OnceLock`, which does publish the row
//! with acquire/release.)

use dcs_stats::hypergeom_tail_quantile;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Cell value meaning "not computed yet". λ never exceeds the row width,
/// and [`LambdaTable::new`] keeps the row width below this.
const UNSET: u16 = u16::MAX;

/// Lazily-filled, lock-free λ table for a fixed row width and p\*.
#[derive(Debug)]
pub struct LambdaTable {
    n_bits: usize,
    p_star: f64,
    /// `rows[i][j]` is `λ(i, j)` or [`UNSET`]; both `(i, j)` and `(j, i)`
    /// are written on a fill.
    rows: Box<[OnceLock<Box<[AtomicU16]>>]>,
    /// Distinct unordered weight pairs filled so far.
    filled: AtomicU64,
    /// Fills not yet handed out by [`take_new_fills`](Self::take_new_fills).
    unreported: AtomicU64,
}

/// Row `i` of a [`LambdaTable`]: resolves `λ(i, ·)` with one indexed load
/// per hit, so a sweep looks the row up once per outer row.
pub struct LambdaRow<'a> {
    table: &'a LambdaTable,
    i: u32,
    cells: &'a [AtomicU16],
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
        match cell.load(Relaxed) {
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
    /// is 16 bits wide and its largest value marks "unset").
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
            rows: (0..=n_bits).map(|_| OnceLock::new()).collect(),
            filled: AtomicU64::new(0),
            unreported: AtomicU64::new(0),
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

    fn cells(&self, i: u32) -> &[AtomicU16] {
        self.rows
            .get(i as usize)
            .expect("weights exceed row width")
            .get_or_init(|| (0..=self.n_bits).map(|_| AtomicU16::new(UNSET)).collect())
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
    /// argument orders. Racing fills of one pair store equal values; the
    /// swap on the `(min, max)` cell picks the one that counts.
    #[cold]
    fn fill(&self, i: u32, j: u32) -> u32 {
        let (lo, hi) = (i.min(j), i.max(j));
        let lam = hypergeom_tail_quantile(
            self.p_star,
            self.n_bits as u64,
            u64::from(lo),
            u64::from(hi),
        );
        let v = u16::try_from(lam).expect("λ is at most the row width");
        if self.cells(lo)[hi as usize].swap(v, Relaxed) == UNSET {
            self.filled.fetch_add(1, Relaxed);
            self.unreported.fetch_add(1, Relaxed);
        }
        self.cells(hi)[lo as usize].store(v, Relaxed);
        u32::from(v)
    }

    /// Number of distinct unordered weight pairs filled so far.
    pub fn memo_len(&self) -> usize {
        self.filled.load(Relaxed) as usize
    }

    /// The filled `(i ≤ j)` weight pairs in ascending order.
    #[cfg(test)]
    pub(crate) fn filled_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            let Some(cells) = row.get() else { continue };
            for (j, cell) in cells.iter().enumerate().skip(i) {
                if cell.load(Relaxed) != UNSET {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// Fills since the previous call — each fill is returned by exactly
    /// one call, so concurrent epochs sharing the table can feed one
    /// counter without double counting.
    pub fn take_new_fills(&self) -> u64 {
        self.unreported.swap(0, Relaxed)
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

/// Owner of the current [`LambdaTables`] pair. Tables are built for the
/// shape asked for and kept until a different shape is asked for, so the
/// quantiles one epoch computed serve every later epoch. Starts empty;
/// the first [`for_shape`](Self::for_shape) builds.
#[derive(Debug, Default)]
pub struct LambdaStore {
    current: Mutex<Option<Arc<LambdaTables>>>,
}

impl LambdaStore {
    /// The tables for rows of `n_bits` bits compared `rows_per_group²`
    /// row pairs per group pair, at group-edge probabilities `test_p1`
    /// (test graph) and `detect_p1` (detection graph, capped at 0.999).
    /// Returns the pair already held when it was built for the same
    /// values, and replaces it otherwise.
    ///
    /// # Panics
    /// Panics on a shape [`LambdaTable::new`] or
    /// [`p_star_for_edge_prob`] rejects.
    pub fn for_shape(
        &self,
        n_bits: usize,
        rows_per_group: usize,
        test_p1: f64,
        detect_p1: f64,
    ) -> Arc<LambdaTables> {
        let pairs = rows_per_group * rows_per_group;
        let p_star_test = p_star_for_edge_prob(test_p1, pairs);
        let p_star_detect = p_star_for_edge_prob(detect_p1.min(0.999), pairs);
        // The slot only ever holds a complete pair, so a panic while it
        // was locked (a rejected shape) leaves it valid.
        let mut current = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        match &*current {
            Some(t)
                if t.test.n_bits == n_bits
                    && t.test.p_star == p_star_test
                    && t.detect.p_star == p_star_detect =>
            {
                Arc::clone(t)
            }
            _ => {
                let fresh = Arc::new(LambdaTables {
                    test: LambdaTable::new(n_bits, p_star_test),
                    detect: LambdaTable::new(n_bits, p_star_detect),
                });
                *current = Some(Arc::clone(&fresh));
                fresh
            }
        }
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
    fn store_keeps_the_pair_until_the_shape_changes() {
        let store = LambdaStore::default();
        let a = store.for_shape(1024, 10, 1e-4, 1e-2);
        assert_eq!(a.test.p_star(), p_star_for_edge_prob(1e-4, 100));
        assert_eq!(a.detect.p_star(), p_star_for_edge_prob(1e-2, 100));
        a.test.lambda(500, 510);
        let b = store.for_shape(1024, 10, 1e-4, 1e-2);
        assert!(Arc::ptr_eq(&a, &b), "same shape must share one pair");
        assert_eq!(b.test.memo_len(), 1, "the fill outlived the first handle");
        for (n_bits, k, test_p1, detect_p1) in [
            (512, 10, 1e-4, 1e-2),
            (1024, 4, 1e-4, 1e-2),
            (1024, 10, 2e-4, 1e-2),
            (1024, 10, 1e-4, 2e-2),
        ] {
            let before = store.for_shape(1024, 10, 1e-4, 1e-2);
            let c = store.for_shape(n_bits, k, test_p1, detect_p1);
            assert!(
                !Arc::ptr_eq(&before, &c),
                "({n_bits}, {k}, {test_p1}, {detect_p1})"
            );
            assert_eq!(c.test.n_bits(), n_bits);
            assert_eq!(c.test.memo_len(), 0, "a replaced pair starts cold");
        }
    }
}
