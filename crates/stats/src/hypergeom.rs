//! Hypergeometric distribution: the null law of "common 1's between two
//! rows".
//!
//! Section IV-B of the paper: given two rows of an N-bit matrix containing
//! `i` and `j` ones, the number of positions where both are 1 follows (under
//! the no-common-content null, conditioning on the weights)
//!
//! ```text
//! P[X = k] = C(i,k) · C(N−i, j−k) / C(N,j)
//! ```
//!
//! The Λ threshold tables are the upper-tail quantiles of this law:
//! `λ_{i,j}` is the smallest `t` with `P[X > t] ≤ p*`. The quantile
//! searches decide each `t` with [`hypergeom_sf_le`]: the full sum's
//! comparison, cut short (often after a term or two) once it is certain.

use crate::special::ln_choose;

/// Support bounds of the hypergeometric distribution: `k` ranges over
/// `[max(0, i+j−N), min(i, j)]`.
pub fn hypergeom_support(n_total: u64, i: u64, j: u64) -> (u64, u64) {
    assert!(i <= n_total && j <= n_total, "weights exceed row width");
    let lo = (i + j).saturating_sub(n_total);
    let hi = i.min(j);
    (lo, hi)
}

/// Natural log of the hypergeometric pmf.
pub fn ln_hypergeom_pmf(k: u64, n_total: u64, i: u64, j: u64) -> f64 {
    let (lo, hi) = hypergeom_support(n_total, i, j);
    if k < lo || k > hi {
        return f64::NEG_INFINITY;
    }
    ln_choose(i, k) + ln_choose(n_total - i, j - k) - ln_choose(n_total, j)
}

/// Hypergeometric pmf `P[X = k]`.
pub fn hypergeom_pmf(k: u64, n_total: u64, i: u64, j: u64) -> f64 {
    ln_hypergeom_pmf(k, n_total, i, j).exp()
}

/// Upper tail `P[X > t]`.
///
/// The sum always starts at its largest term and recurses toward smaller
/// ones, so it never begins with an underflowed pmf: for `t` at or above
/// the mode the terms `t+1 … hi` are summed upward (decreasing); for `t`
/// below the mode the lower mass `lo … t` is summed downward from `t`
/// (also decreasing) and complemented.
pub fn hypergeom_sf(t: i64, n_total: u64, i: u64, j: u64) -> f64 {
    let (lo, hi) = hypergeom_support(n_total, i, j);
    if t < lo as i64 {
        return 1.0;
    }
    if t >= hi as i64 {
        return 0.0;
    }
    let t = t as u64;
    let nf = n_total as f64;
    let (fi, fj) = (i as f64, j as f64);
    // Mode of the hypergeometric: floor((i+1)(j+1)/(N+2)).
    let mode = ((i + 1) as f64 * (j + 1) as f64 / (nf + 2.0)).floor() as u64;
    if t + 1 >= mode {
        // Upper-tail sum from t+1 upward; terms decrease.
        let first = t + 1;
        let mut p = ln_hypergeom_pmf(first, n_total, i, j).exp();
        let mut acc = p;
        let mut k = first as f64;
        while (k as u64) < hi {
            // P[k+1] = P[k] · (i−k)(j−k) / ((k+1)(N−i−j+k+1)).
            let ratio = (fi - k) * (fj - k) / ((k + 1.0) * (nf - fi - fj + k + 1.0));
            p *= ratio;
            acc += p;
            k += 1.0;
            if p < acc * 1e-18 {
                break; // remaining terms cannot move the sum
            }
        }
        acc.min(1.0)
    } else {
        // Lower-mass sum from t downward; terms decrease. sf = 1 − cdf.
        let mut p = ln_hypergeom_pmf(t, n_total, i, j).exp();
        let mut acc = p;
        let mut k = t as f64;
        while (k as u64) > lo {
            // P[k−1] = P[k] · k (N−i−j+k) / ((i−k+1)(j−k+1)).
            let ratio = k * (nf - fi - fj + k) / ((fi - k + 1.0) * (fj - k + 1.0));
            p *= ratio;
            acc += p;
            k -= 1.0;
            if p < acc * 1e-18 {
                break;
            }
        }
        (1.0 - acc).clamp(0.0, 1.0)
    }
}

/// How far below `p_star` (relative) an early "yes" must sit: the rounding
/// of the bound and of the ≤ ~4,200 terms left before the 1e-18 cut is
/// under 1e-12.
const SF_LE_MARGIN: f64 = 1e-9;

/// Below this `p_star` the full sum decides: a subnormal term rounds by up
/// to 2⁻¹⁰⁷⁴ absolute, which the relative margin would not cover.
const SF_LE_FLOOR: f64 = 1e-290;

/// `hypergeom_sf(t, n_total, i, j) <= p_star`, for every input, often
/// without finishing the sum.
///
/// At or above the mode it runs [`hypergeom_sf`]'s float operations in
/// the same order and returns once the answer is certain:
/// - "no" once the running sum passes `p_star` (below 1): the terms are
///   non-negative, so the rounded sum never falls;
/// - "yes" once the sum plus `p·r/(1−r)` sits a relative 1e-9 below
///   `p_star`, where `p` is the last term and `r < 0.99` the next ratio.
///   The ratio falls as `k` rises, and so does its rounded value (each
///   rounding is monotone), so every later term is at most `p·rᵐ`, up to
///   one rounding a term.
///
/// Below the mode, and whenever neither exit fires, the full sum decides.
pub fn hypergeom_sf_le(t: i64, n_total: u64, i: u64, j: u64, p_star: f64) -> bool {
    let (lo, hi) = hypergeom_support(n_total, i, j);
    let nf = n_total as f64;
    let (fi, fj) = (i as f64, j as f64);
    let mode = ((i + 1) as f64 * (j + 1) as f64 / (nf + 2.0)).floor() as u64;
    let early = (SF_LE_FLOOR..1.0).contains(&p_star);
    if !early || t < lo as i64 || t >= hi as i64 || (t as u64) + 1 < mode {
        return hypergeom_sf(t, n_total, i, j) <= p_star;
    }
    let yes_below = p_star * (1.0 - SF_LE_MARGIN);
    let first = t as u64 + 1;
    let mut p = ln_hypergeom_pmf(first, n_total, i, j).exp();
    let mut acc = p;
    let mut k = first as f64;
    while (k as u64) < hi {
        if acc > p_star {
            return false;
        }
        let ratio = (fi - k) * (fj - k) / ((k + 1.0) * (nf - fi - fj + k + 1.0));
        if ratio < 0.99 && acc + p * ratio / (1.0 - ratio) <= yes_below {
            return true;
        }
        p *= ratio;
        acc += p;
        k += 1.0;
        if p < acc * 1e-18 {
            break;
        }
    }
    acc.min(1.0) <= p_star
}

/// Smallest `t` with `P[X > t] ≤ p_star` — the paper's `λ_{i,j}`.
///
/// Binary search over the support using the monotone survival function,
/// each step one [`hypergeom_sf_le`] decision.
pub fn hypergeom_tail_quantile(p_star: f64, n_total: u64, i: u64, j: u64) -> u64 {
    assert!(p_star > 0.0 && p_star < 1.0, "p* must be in (0,1)");
    let (lo, hi) = hypergeom_support(n_total, i, j);
    if hypergeom_sf_le(lo as i64, n_total, i, j, p_star) {
        return lo;
    }
    let (mut a, mut b) = (lo, hi); // sf(a) > p*, sf(b) = 0 <= p*
    while b - a > 1 {
        let mid = a + (b - a) / 2;
        if hypergeom_sf_le(mid as i64, n_total, i, j, p_star) {
            b = mid;
        } else {
            a = mid;
        }
    }
    b
}

/// [`hypergeom_tail_quantile`] found by walking from `guess` (clamped to
/// the support) instead of bisecting: the same `t` for any guess, at
/// `|t − guess| + 2` survival evaluations at most. One more one in either
/// row moves the overlap by at most 1, so the quantiles of weight pairs
/// `d` apart differ by at most `d`: seeded from a close guess (the λ
/// tables use the last fill's standardised quantile), the walk costs
/// about two evaluations against the bisection's log₂ of the support.
pub fn hypergeom_tail_quantile_near(p_star: f64, n_total: u64, i: u64, j: u64, guess: u64) -> u64 {
    assert!(p_star > 0.0 && p_star < 1.0, "p* must be in (0,1)");
    let (lo, hi) = hypergeom_support(n_total, i, j);
    let within = |t: u64| hypergeom_sf_le(t as i64, n_total, i, j, p_star);
    let mut t = guess.clamp(lo, hi);
    if within(t) {
        while t > lo && within(t - 1) {
            t -= 1;
        }
    } else {
        // sf(hi) = 0 ends the walk.
        while !within(t) {
            t += 1;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1e-300),
            "{a} != {b} (tol {tol})"
        );
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, i, j) in &[(20u64, 5u64, 8u64), (50, 25, 25), (10, 10, 3), (30, 0, 7)] {
            let (lo, hi) = hypergeom_support(n, i, j);
            let total: f64 = (lo..=hi).map(|k| hypergeom_pmf(k, n, i, j)).sum();
            assert_close(total, 1.0, 1e-10);
        }
    }

    #[test]
    fn support_bounds() {
        assert_eq!(hypergeom_support(10, 7, 8), (5, 7));
        assert_eq!(hypergeom_support(10, 2, 3), (0, 2));
        assert_eq!(hypergeom_support(10, 0, 5), (0, 0));
    }

    #[test]
    fn pmf_small_case_by_hand() {
        // N=5, i=2, j=2: P[X=0] = C(2,0)C(3,2)/C(5,2) = 3/10.
        assert_close(hypergeom_pmf(0, 5, 2, 2), 0.3, 1e-12);
        assert_close(hypergeom_pmf(1, 5, 2, 2), 0.6, 1e-12);
        assert_close(hypergeom_pmf(2, 5, 2, 2), 0.1, 1e-12);
    }

    #[test]
    fn sf_matches_direct_sum() {
        let (n, i, j) = (40u64, 18u64, 22u64);
        let (lo, hi) = hypergeom_support(n, i, j);
        for t in (lo as i64 - 1)..=(hi as i64 + 1) {
            let direct: f64 = (lo..=hi)
                .filter(|&k| k as i64 > t)
                .map(|k| hypergeom_pmf(k, n, i, j))
                .sum();
            assert_close(hypergeom_sf(t, n, i, j), direct, 1e-9);
        }
    }

    #[test]
    fn symmetry_in_i_j() {
        for t in 0..10i64 {
            assert_close(
                hypergeom_sf(t, 30, 12, 17),
                hypergeom_sf(t, 30, 17, 12),
                1e-10,
            );
        }
    }

    #[test]
    fn tail_quantile_is_tight() {
        let (n, i, j) = (1024u64, 512u64, 512u64);
        for &p_star in &[1e-3, 1e-5, 1e-7] {
            let lam = hypergeom_tail_quantile(p_star, n, i, j);
            assert!(hypergeom_sf(lam as i64, n, i, j) <= p_star);
            assert!(hypergeom_sf(lam as i64 - 1, n, i, j) > p_star);
        }
    }

    #[test]
    fn paper_scale_lambda_location() {
        // For two half-full 1024-bit rows the null mean of common ones is
        // i*j/N = 256 with σ ≈ 8; λ at p* = 1e-7 should sit ~5σ above.
        let lam = hypergeom_tail_quantile(1e-7, 1024, 512, 512);
        assert!(
            (285..=305).contains(&lam),
            "λ = {lam} outside the expected band around 256 + 5σ"
        );
    }

    #[test]
    fn huge_support_no_underflow() {
        // Regression: at 131,072-bit rows with weight 57,105 the old
        // implementation started its sum below the mode with an
        // underflowed pmf and returned sf = 0 for every t. The lower tail
        // must be ≈1 and the quantile must sit ~5σ above the mean
        // (≈24,880, σ≈88).
        let (n, w) = (131_072u64, 57_105u64);
        assert!(hypergeom_sf(0, n, w, w) > 0.999999);
        assert!(hypergeom_sf(20_000, n, w, w) > 0.999999);
        let lam = hypergeom_tail_quantile(2e-7, n, w, w);
        assert!(
            (25_200..25_500).contains(&lam),
            "λ = {lam} not ~5σ above the mean"
        );
        let sf = hypergeom_sf(lam as i64, n, w, w);
        assert!(sf <= 2e-7 && sf > 1e-9, "sf at λ = {sf}");
    }

    #[test]
    fn sf_monotone_across_the_mode() {
        // The two summation branches must join monotonically.
        let (n, i, j) = (1_000u64, 400u64, 500u64);
        let mut prev = 1.0f64;
        for t in 0..=400i64 {
            let s = hypergeom_sf(t, n, i, j);
            assert!(s <= prev + 1e-12, "sf not monotone at t={t}: {s} > {prev}");
            prev = s;
        }
    }

    #[test]
    fn degenerate_rows() {
        // A zero-weight row shares no ones with anything.
        assert_eq!(hypergeom_sf(0, 100, 0, 50), 0.0);
        assert_eq!(hypergeom_tail_quantile(0.5, 100, 0, 50), 0);
        // Full rows share exactly j ones.
        assert_close(hypergeom_pmf(50, 100, 100, 50), 1.0, 1e-10);
    }
}
