//! The Λ threshold tables (paper Section IV-B).
//!
//! Two rows containing `i` and `j` ones share, under the null,
//! `X(i,j) ~ Hypergeometric(N, i, j)` common ones. To make the group graph
//! Erdős–Rényi with a *uniform* per-row-pair exceedance probability p\*,
//! the threshold must depend on the weights: `λᵢⱼ` is the smallest `t`
//! with `P[X(i,j) > t] ≤ p*`. The table is computed lazily and memoised —
//! real digests only exercise a narrow weight band around the target fill.

use dcs_stats::hypergeom_tail_quantile;
use parking_lot::RwLock;
use std::collections::HashMap;

/// Lazily-memoised λ table for a fixed row width and p\*.
#[derive(Debug)]
pub struct LambdaTable {
    n_bits: u64,
    p_star: f64,
    memo: RwLock<HashMap<(u32, u32), u32>>,
}

impl LambdaTable {
    /// Creates a table for rows of `n_bits` bits at exceedance level
    /// `p_star`.
    ///
    /// # Panics
    /// Panics unless `0 < p_star < 1` and `n_bits > 0`.
    pub fn new(n_bits: usize, p_star: f64) -> Self {
        assert!(n_bits > 0, "rows must be non-empty");
        assert!(p_star > 0.0 && p_star < 1.0, "p* must be in (0,1)");
        LambdaTable {
            n_bits: n_bits as u64,
            p_star,
            memo: RwLock::new(HashMap::new()),
        }
    }

    /// Row width in bits.
    pub fn n_bits(&self) -> usize {
        self.n_bits as usize
    }

    /// The per-row-pair exceedance probability p\*.
    pub fn p_star(&self) -> f64 {
        self.p_star
    }

    /// λ for a row pair with weights `i` and `j` (symmetric).
    ///
    /// # Panics
    /// Panics if a weight exceeds the row width.
    pub fn lambda(&self, i: u32, j: u32) -> u32 {
        let key = if i <= j { (i, j) } else { (j, i) };
        if let Some(&v) = self.memo.read().get(&key) {
            return v;
        }
        let v =
            hypergeom_tail_quantile(self.p_star, self.n_bits, u64::from(key.0), u64::from(key.1))
                as u32;
        self.memo.write().insert(key, v);
        v
    }

    /// Number of memoised entries (for tests / diagnostics).
    pub fn memo_len(&self) -> usize {
        self.memo.read().len()
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
}
