//! Non-naturally-occurring and detectable thresholds (paper Sections III-C
//! and V-A.2, Figure 12).

use dcs_stats::{binocdf, binomial_sf, ln_choose};

/// Natural log of the paper's equation (1): the Markov bound on the
/// probability that some a×b all-1 submatrix occurs naturally in an m×n
/// Bernoulli(½) matrix,
///
/// ```text
/// P ≤ C(m, a) · C(n, b) · 2^(−ab)
/// ```
///
/// (`a` rows are chosen among the m routers and `b` columns among the n
/// hash indices).
pub fn ln_natural_occurrence(m: u64, n: u64, a: u64, b: u64) -> f64 {
    ln_choose(m, a) + ln_choose(n, b) - a as f64 * b as f64 * std::f64::consts::LN_2
}

/// Smallest `b` such that an a×b pattern is non-naturally-occurring at
/// level `epsilon`, or `None` if even `b = b_max` is still natural.
pub fn non_natural_min_b(m: u64, n: u64, a: u64, epsilon: f64, b_max: u64) -> Option<u64> {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
    if a == 0 || a > m {
        return None;
    }
    let ln_eps = epsilon.ln();
    // ln_natural_occurrence is eventually decreasing in b (each extra
    // column multiplies the bound by n_eff·2^(−a) < 1 in the useful
    // regime), but not monotone from b = 1; scan.
    (1..=b_max).find(|&b| ln_natural_occurrence(m, n, a, b) <= ln_eps)
}

/// Parameters of the detectable-threshold estimate (the Theorem-2 /
/// Section V-A.2 procedure).
#[derive(Debug, Clone, Copy)]
pub struct DetectableParams {
    /// Rows (routers) in the full matrix.
    pub m: u64,
    /// Columns in the full matrix.
    pub n: u64,
    /// Screening budget n′ — how many heaviest columns the refined
    /// algorithm keeps (paper: 4,000 out of 4 M).
    pub n_prime: u64,
    /// Non-natural level ε used inside the screened submatrix.
    pub epsilon: f64,
}

impl DetectableParams {
    /// The paper's Figure-12 configuration.
    pub fn paper_default() -> Self {
        DetectableParams {
            m: 1_000,
            n: 4 * 1024 * 1024,
            n_prime: 4_000,
            epsilon: 1e-3,
        }
    }
}

/// Chooses the screening weight threshold `w`: the smallest `w` whose
/// expected number of *null* survivors `n · P[Binom(m,½) > w]` fits within
/// `margin · n_prime` (the paper keeps ~2,900 expected null survivors
/// against a 4,000-column budget, margin ≈ 0.75).
pub fn screening_weight(m: u64, n: u64, n_prime: u64, margin: f64) -> u64 {
    assert!(margin > 0.0 && margin <= 1.0, "margin must be in (0,1]");
    let budget = margin * n_prime as f64;
    // Binary search: expected survivors are decreasing in w.
    let (mut lo, mut hi) = (0u64, m);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let survivors = n as f64 * binomial_sf(mid as i64, m, 0.5);
        if survivors <= budget {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Probability that one *pattern* column survives weight screening at `w`:
/// its weight is `a + Binom(m−a, ½)`, so survival is
/// `P[Binom(m−a, ½) > w − a]`.
pub fn pattern_column_survival(m: u64, a: u64, w: u64) -> f64 {
    assert!(a <= m, "pattern cannot have more rows than the matrix");
    binomial_sf(w as i64 - a as i64, m - a, 0.5)
}

/// Probability that an a×b pattern is *detected* by the refined algorithm:
/// at least `l*` of its `b` columns must survive screening, where `l*` is
/// the smallest core width that is non-natural inside the m×n′ screened
/// submatrix (Section V-A.2's worked example: a=100, b=30 ⇒ w=550,
/// survival≈0.55, l*=8, probability ≈ 0.99).
pub fn detection_probability(p: DetectableParams, a: u64, b: u64) -> f64 {
    if a == 0 || b == 0 {
        return 0.0;
    }
    let w = screening_weight(p.m, p.n, p.n_prime, 0.75);
    let surv = pattern_column_survival(p.m, a, w);
    let Some(l_star) = non_natural_min_b(p.m, p.n_prime, a, p.epsilon, b) else {
        return 0.0; // even b surviving columns would look natural
    };
    // P[at least l* of b pattern columns survive].
    1.0 - binocdf(l_star as i64 - 1, b, surv)
}

/// Smallest `b` whose detection probability reaches `target` (the upper
/// curve of Figure 12, e.g. target = 0.95), or `None` within `b_max`.
///
/// The result is clamped from below by the full-matrix non-natural bound:
/// the final verdict of the detection algorithm rejects any found pattern
/// that could occur naturally in the m×n matrix, so a pattern can never be
/// detectable before it is non-natural (the paper: "the detectable
/// threshold curve always lies above the non-naturally-occurring
/// threshold curve").
pub fn detectable_min_b(p: DetectableParams, a: u64, target: f64, b_max: u64) -> Option<u64> {
    assert!(target > 0.0 && target < 1.0, "target must be in (0,1)");
    let nn_floor = non_natural_min_b(p.m, p.n, a, p.epsilon, b_max)?;
    // Detection probability is monotone non-decreasing in b (more pattern
    // columns can only help): binary search after bracketing.
    if detection_probability(p, a, b_max) < target {
        return None;
    }
    let (mut lo, mut hi) = (0u64, b_max); // lo fails, hi succeeds
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if detection_probability(p, a, mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi.max(nn_floor))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_natural_occurrence_hand_check() {
        // 1×1 pattern in a 1×1 matrix: C(1,1)C(1,1)2^-1 = 0.5.
        let v = ln_natural_occurrence(1, 1, 1, 1);
        assert!((v - 0.5f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn paper_anchor_a28_b21() {
        // Section III-C: at a=28 routers, b must be ≥ 21 for the pattern
        // to be non-natural in the 1000×4M matrix. The bound at (28, 21)
        // should be small and at (28, 18) should be large.
        let at = |b| ln_natural_occurrence(1_000, 4_000_000, 28, b);
        assert!(at(21) < 0.0_f64.min(at(18) - 5.0), "no sharp transition");
        let b = non_natural_min_b(1_000, 4_000_000, 28, 0.05, 100).unwrap();
        assert!(
            (19..=23).contains(&b),
            "min b = {b}, paper says 21 (ε-dependent)"
        );
    }

    #[test]
    fn paper_anchor_a70_b10() {
        let b = non_natural_min_b(1_000, 4_000_000, 70, 0.05, 100).unwrap();
        assert!((8..=11).contains(&b), "min b = {b}, paper says 10");
    }

    #[test]
    fn screening_weight_paper_anchor() {
        // Paper: w = 550 keeps ≈ 2,900 of 4M null columns.
        let w = screening_weight(1_000, 4_000_000, 4_000, 0.75);
        assert!(
            (545..=555).contains(&w),
            "screening weight {w}, paper uses 550"
        );
        let survivors = 4_000_000.0 * dcs_stats::binomial_sf(w as i64, 1_000, 0.5);
        assert!(survivors <= 3_000.0, "survivors {survivors}");
    }

    #[test]
    fn pattern_survival_increases_with_a() {
        let w = 550;
        let s50 = pattern_column_survival(1_000, 50, w);
        let s100 = pattern_column_survival(1_000, 100, w);
        let s200 = pattern_column_survival(1_000, 200, w);
        assert!(s50 < s100 && s100 < s200);
        // a=100 anchor: survival ≈ 0.49–0.56 (paper quotes 0.55).
        assert!((0.4..0.6).contains(&s100), "survival {s100}");
    }

    #[test]
    fn detection_probability_paper_anchor_100x30() {
        // Section V-A.2: (a=100, b=30) detected with probability ≈ 0.988.
        let p = DetectableParams::paper_default();
        let prob = detection_probability(p, 100, 30);
        assert!(
            (0.95..=1.0).contains(&prob),
            "detection probability {prob}, paper says ≈0.988"
        );
    }

    #[test]
    fn detectable_ordering_matches_paper() {
        // a=70 needs b ≈ 99 (two-digit); a=25 needs thousands; a=100 ≈ 30.
        let p = DetectableParams::paper_default();
        let b100 = detectable_min_b(p, 100, 0.95, 10_000).unwrap();
        let b70 = detectable_min_b(p, 70, 0.95, 10_000).unwrap();
        let b25 = detectable_min_b(p, 25, 0.95, 10_000).unwrap();
        assert!(
            b100 < b70 && b70 < b25,
            "ordering broken: {b100} {b70} {b25}"
        );
        assert!(b100 <= 60, "a=100 needs b={b100}, paper says ≈30");
        assert!((50..=400).contains(&b70), "a=70 needs b={b70}, paper ≈99");
        assert!(b25 >= 1_000, "a=25 needs b={b25}, paper ≈3029");
    }

    /// Figure 12's anchors at the paper's geometry (1,000 routers ×
    /// 4 Mbit, n′ = 4,000, ε = 1e-3, a 95 % detection target), exactly:
    /// the values `repro_fig12` prints (it steps a by 5; a = 28 is the
    /// paper's own anchor, where it says b ≈ 21). Over that sweep, a = 20
    /// to 200, the detectable curve lies strictly above the non-natural
    /// one up to a = 165 and meets it at b = 5 from a = 170 on: there a
    /// pattern that is non-natural at all is found 95 % of the time. It
    /// can never lie below, because a detection must be non-natural.
    #[test]
    fn figure_12_anchors_are_pinned() {
        let p = DetectableParams::paper_default();
        for (a, b) in [(25, 28), (28, 21), (30, 19), (70, 8)] {
            let nn = non_natural_min_b(p.m, p.n, a, p.epsilon, 10_000);
            assert_eq!(nn, Some(b), "non-natural min b at a = {a}");
        }
        for (a, b) in [(25, 2_442), (70, 74), (100, 19)] {
            let det = detectable_min_b(p, a, 0.95, 10_000);
            assert_eq!(det, Some(b), "detectable min b at a = {a}");
        }
        for a in (20..=200).step_by(5) {
            let nn = non_natural_min_b(p.m, p.n, a, p.epsilon, 10_000);
            let nn = nn.unwrap_or_else(|| panic!("a = {a}: no non-natural b under 10,000"));
            let det = detectable_min_b(p, a, 0.95, 10_000);
            let det = det.unwrap_or_else(|| panic!("a = {a}: no detectable b under 10,000"));
            if a < 170 {
                assert!(
                    det > nn,
                    "a = {a}: detectable {det} is not above non-natural {nn}"
                );
            } else {
                assert_eq!((det, nn), (5, 5), "a = {a}: the curves meet");
            }
        }
    }

    #[test]
    fn detectable_always_above_non_natural() {
        // "The detectable threshold curve always lies above the
        // non-naturally-occurring threshold curve."
        let p = DetectableParams::paper_default();
        for a in [40u64, 70, 100, 200] {
            let nn = non_natural_min_b(p.m, p.n, a, p.epsilon, 10_000).unwrap();
            let det = detectable_min_b(p, a, 0.95, 10_000).unwrap();
            assert!(det >= nn, "a={a}: detectable {det} < non-natural {nn}");
        }
    }

    #[test]
    fn no_detection_with_zero_pattern() {
        let p = DetectableParams::paper_default();
        assert_eq!(detection_probability(p, 0, 10), 0.0);
        assert_eq!(detection_probability(p, 10, 0), 0.0);
    }
}
