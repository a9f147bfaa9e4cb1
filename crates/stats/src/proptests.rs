//! Property-based tests for the statistics substrate.

use crate::binomial::{binocdf, binomial_quantile, binomial_sf, ln_binomial_pmf};
use crate::hypergeom::{
    hypergeom_pmf, hypergeom_sf, hypergeom_sf_le, hypergeom_support, hypergeom_tail_quantile,
    hypergeom_tail_quantile_near,
};
use crate::special::ln_choose;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn binocdf_matches_direct_sum(n in 1u64..40, p in 0.0f64..1.0, x in -2i64..42) {
        let direct: f64 = (0..=n)
            .filter(|&k| (k as i64) <= x)
            .map(|k| ln_binomial_pmf(k, n, p).exp())
            .sum();
        let cdf = binocdf(x, n, p);
        prop_assert!((cdf - direct).abs() < 1e-9, "cdf {cdf} vs direct {direct}");
    }

    #[test]
    fn binomial_sf_complements(n in 1u64..200, p in 0.001f64..0.999, x in 0i64..200) {
        let total = binocdf(x, n, p) + binomial_sf(x, n, p);
        prop_assert!((total - 1.0).abs() < 1e-9, "cdf+sf = {total}");
    }

    #[test]
    fn binomial_quantile_inverts(n in 1u64..500, p in 0.01f64..0.99, q in 0.001f64..0.999) {
        let w = binomial_quantile(q, n, p);
        prop_assert!(binocdf(w as i64, n, p) >= q - 1e-12);
        if w > 0 {
            prop_assert!(binocdf(w as i64 - 1, n, p) < q + 1e-12);
        }
    }

    #[test]
    fn ln_choose_recurrence(n in 1u64..300, k in 0u64..300) {
        prop_assume!(k < n);
        // C(n, k+1) / C(n, k) = (n - k) / (k + 1)
        let lhs = ln_choose(n, k + 1) - ln_choose(n, k);
        let rhs = ((n - k) as f64 / (k + 1) as f64).ln();
        prop_assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn ln_choose_small_k_matches_the_exact_binomial(
        bits in 0u32..=32,
        low in any::<u64>(),
        k in 0u64..=3,
    ) {
        // Every magnitude up to 2³² alike: `n` has `bits` significant bits.
        let n = ((1u64 << bits) | (low & ((1u64 << bits) - 1))).min(1 << 32);
        prop_assume!(k <= n);
        let exact = (0..k).fold(1u128, |c, i| c * u128::from(n - i) / u128::from(i + 1));
        let want = (exact as f64).ln();
        let got = ln_choose(n, k);
        prop_assert!((got - want).abs() <= 1e-12 * want.abs(), "C({n}, {k}): {got} vs {want}");
    }

    #[test]
    fn hypergeom_pmf_normalised(n in 2u64..120, i in 0u64..120, j in 0u64..120) {
        prop_assume!(i <= n && j <= n);
        let (lo, hi) = hypergeom_support(n, i, j);
        let total: f64 = (lo..=hi).map(|k| hypergeom_pmf(k, n, i, j)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "mass = {total}");
    }

    #[test]
    fn hypergeom_sf_monotone_and_bounded(
        n in 2u64..=1024,
        i_frac in 0.0f64..=1.0,
        j_frac in 0.0f64..=1.0,
    ) {
        let (i, j) = (((i_frac * n as f64) as u64).max(1), ((j_frac * n as f64) as u64).max(1));
        let (lo, hi) = hypergeom_support(n, i, j);
        let mut prev = 1.0f64;
        for t in (lo as i64 - 1)..=(hi as i64) {
            let s = hypergeom_sf(t, n, i, j);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!(s <= prev + 1e-12, "sf increased at t={t}");
            prev = s;
        }
    }

    #[test]
    fn hypergeom_quantile_is_tight(
        n in 16u64..512,
        w_frac in 0.1f64..0.9,
        p_exp in 1.0f64..8.0,
    ) {
        let w = ((n as f64) * w_frac) as u64;
        prop_assume!(w >= 1 && w <= n);
        let p_star = 10f64.powf(-p_exp);
        let lam = hypergeom_tail_quantile(p_star, n, w, w);
        prop_assert!(hypergeom_sf(lam as i64, n, w, w) <= p_star);
        let (lo, _) = hypergeom_support(n, w, w);
        if lam > lo {
            prop_assert!(hypergeom_sf(lam as i64 - 1, n, w, w) > p_star);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one(n in 1usize..200, s in 0.0f64..3.0) {
        let z = crate::sample::Zipf::new(n, s);
        let total: f64 = (1..=n).map(|r| z.pmf(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binomial_sampler_in_support(n in 0u64..10_000, p in 0.0f64..1.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = crate::sample::sample_binomial(&mut rng, n, p);
        prop_assert!(k <= n);
    }
}

/// A weight `frac` of the way across `0..=n`, or pinned to an end: 0, N,
/// or within 4 of either (where λ often sits at the support's low end).
fn pick_weight(n: u64, frac: f64, edge: u8) -> u64 {
    match edge {
        0 => 0,
        1 => n,
        2 => ((frac * 4.0) as u64).min(n),
        3 => n - ((frac * 4.0) as u64).min(n),
        _ => (frac * n as f64) as u64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The walk from any guess, in or out of the support, lands where
    /// the bisection does: weights 0 and N included, weights within 4 of
    /// either end, p* from 1e-8 to 0.5.
    #[test]
    fn quantile_walk_equals_bisection(
        n in 1u64..=1024,
        i_frac in 0.0f64..=1.0,
        j_frac in 0.0f64..=1.0,
        edge_i in 0u8..6,
        edge_j in 0u8..6,
        p_exp in 0.301f64..8.0,
        guess_frac in 0.0f64..=1.1,
    ) {
        let (i, j) = (pick_weight(n, i_frac, edge_i), pick_weight(n, j_frac, edge_j));
        let p_star = 10f64.powf(-p_exp);
        let guess = (guess_frac * n as f64) as u64;
        prop_assert_eq!(
            hypergeom_tail_quantile_near(p_star, n, i, j, guess),
            hypergeom_tail_quantile(p_star, n, i, j),
            "N={} ({}, {}) p*={} guess {}", n, i, j, p_star, guess
        );
    }

    /// The early-exit decision equals the full sum's comparison at every
    /// `t` from below the support to above it, with p\* exactly at
    /// sf(t), one float either side of it, a relative 1e-10 either side
    /// (inside the early "yes" margin), a random relative step of 1e-12
    /// to 1e-2 either side, and anywhere from 1e-12 to 1.
    #[test]
    fn sf_le_equals_the_full_sum(
        n in 1u64..=1024,
        i_frac in 0.0f64..=1.0,
        j_frac in 0.0f64..=1.0,
        edge_i in 0u8..6,
        edge_j in 0u8..6,
        t_frac in -0.1f64..=1.1,
        step_exp in 2.0f64..12.0,
        p_exp in 0.0f64..12.0,
    ) {
        let (i, j) = (pick_weight(n, i_frac, edge_i), pick_weight(n, j_frac, edge_j));
        let (lo, hi) = hypergeom_support(n, i, j);
        let span = (hi - lo) as f64 + 2.0;
        let t = lo as i64 - 1 + (t_frac * span).round() as i64;
        let sf = hypergeom_sf(t, n, i, j);
        let step = 10f64.powf(-step_exp);
        for p_star in [
            sf,
            sf.next_down(),
            sf.next_up(),
            sf * (1.0 + 1e-10),
            sf * (1.0 - 1e-10),
            sf * (1.0 + step),
            sf * (1.0 - step),
            10f64.powf(-p_exp),
        ] {
            prop_assert_eq!(
                hypergeom_sf_le(t, n, i, j, p_star),
                sf <= p_star,
                "N={} ({}, {}) t={} sf={:e} p*={:e}", n, i, j, t, sf, p_star
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same two equalities near the widest row a λ cell holds
    /// (65,534 bits), at the weights a table there would see, around the
    /// quantile where the walk tests the decision.
    #[test]
    fn widest_rows_walk_and_decide_like_the_full_sum(
        n in 65_000u64..=65_534,
        i_frac in 0.0f64..=1.0,
        j_frac in 0.0f64..=1.0,
        edge_i in 0u8..6,
        edge_j in 0u8..6,
        p_exp in 0.301f64..8.0,
        offset in -3i64..=3,
    ) {
        let (i, j) = (pick_weight(n, i_frac, edge_i), pick_weight(n, j_frac, edge_j));
        let p_star = 10f64.powf(-p_exp);
        let lam = hypergeom_tail_quantile(p_star, n, i, j);
        prop_assert_eq!(hypergeom_tail_quantile_near(p_star, n, i, j, lam.saturating_sub(3)), lam);
        prop_assert_eq!(hypergeom_tail_quantile_near(p_star, n, i, j, lam + 3), lam);
        let t = lam as i64 + offset;
        let sf = hypergeom_sf(t, n, i, j);
        for p in [p_star, sf, sf.next_down(), sf.next_up(), sf * (1.0 + 1e-10), sf * (1.0 - 1e-10)] {
            prop_assert_eq!(
                hypergeom_sf_le(t, n, i, j, p),
                sf <= p,
                "N={} ({}, {}) t={} sf={:e} p*={:e}", n, i, j, t, sf, p
            );
        }
    }
}
