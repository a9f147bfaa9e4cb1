//! Special functions: log-gamma, log-factorial, log-binomial-coefficient.
//!
//! All the paper's combinatorial bounds (`C(4M, b)`, `C(102400, m)`, …)
//! overflow `f64` long before the probabilities become uninteresting, so
//! everything here works in natural-log space.

/// Natural log of the gamma function, Lanczos approximation (g = 7, 9
/// coefficients). Absolute error below ~1e-13 for `x > 0`.
///
/// # Panics
/// Panics if `x <= 0` (the reflection branch is not needed by this crate).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection: ln Γ(x) = ln(π / sin(πx)) − ln Γ(1−x)
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Largest `n` whose `ln n!` [`ln_factorial`] serves from its table.
/// Every λ fill at the deployed 1,024-bit rows reads `n ≤ 1,024`, and
/// the table costs 32 KiB; with it, 1 M bisected N = 1,024 quantiles
/// took 1.13–1.17 s against 2.51–2.59 s through `ln_gamma` (one core of
/// an Intel Xeon, three runs each).
const LN_FACTORIAL_MEMO_MAX: usize = 4_096;

/// Below this `n` the table entry is the running sum of `ln k`; from it
/// on, `ln_gamma(n + 1)`.
const LN_FACTORIAL_SUMMED: usize = 128;

/// Natural log of `n!`: read from a table for `n ≤ 4,096` (entries below
/// 128 summed, the rest `ln_gamma(n + 1)`, so each is bit-identical to
/// computing it on the spot), `ln_gamma` beyond.
pub fn ln_factorial(n: u64) -> f64 {
    static TABLE: std::sync::OnceLock<Box<[f64]>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut acc = 0.0f64;
        (0..=LN_FACTORIAL_MEMO_MAX)
            .map(|i| {
                if i >= LN_FACTORIAL_SUMMED {
                    return ln_gamma(i as f64 + 1.0);
                }
                if i > 0 {
                    acc += (i as f64).ln();
                }
                acc
            })
            .collect()
    });
    match usize::try_from(n).ok().and_then(|i| table.get(i)) {
        Some(&v) => v,
        None => ln_gamma(n as f64 + 1.0),
    }
}

/// Up to this `k`, [`ln_choose`] sums `ln(n − i)` instead of taking a
/// difference of log-factorials. The difference cancels: `ln n!` carries
/// an absolute error of an ulp of itself, about `n ln n · 1e-16`, which
/// at `n = 2³²` is 1e-5 against an `ln C(n, 1)` of 22.
const LN_CHOOSE_SUMMED_K: u64 = 3;

/// Natural log of the binomial coefficient `C(n, k)`: for `min(k, n − k)`
/// up to 3 the sum `Σ_{i<k} ln(n − i) − ln k!`, relative error below
/// 1e-12 at any `n`; beyond it a difference of [`ln_factorial`]s.
///
/// Returns `f64::NEG_INFINITY` when `k > n` (the coefficient is zero).
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k);
    if k == 0 {
        return 0.0;
    }
    if k <= LN_CHOOSE_SUMMED_K {
        return (0..k).map(|i| ((n - i) as f64).ln()).sum::<f64>() - ln_factorial(k);
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "{a} != {b} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_known_values() {
        assert_close(ln_gamma(1.0), 0.0, 1e-12);
        assert_close(ln_gamma(2.0), 0.0, 1e-12);
        assert_close(ln_gamma(5.0), 24.0f64.ln(), 1e-12); // Γ(5) = 4!
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(10.5) known value 1133278.3889487855
        assert_close(ln_gamma(10.5), 1133278.3889487855f64.ln(), 1e-10);
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn ln_factorial_matches_direct_product() {
        let mut acc = 1.0f64;
        for n in 1..=20u64 {
            acc *= n as f64;
            assert_close(ln_factorial(n), acc.ln(), 1e-12);
        }
    }

    #[test]
    fn ln_factorial_memo_is_bit_identical_to_ln_gamma() {
        for n in LN_FACTORIAL_SUMMED as u64..=LN_FACTORIAL_MEMO_MAX as u64 + 2 {
            assert_eq!(
                ln_factorial(n).to_bits(),
                ln_gamma(n as f64 + 1.0).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn ln_factorial_table_gamma_seam() {
        // Values on both sides of the table boundary agree with ln_gamma.
        for n in [126u64, 127, 128, 129, 1000] {
            assert_close(ln_factorial(n), ln_gamma(n as f64 + 1.0), 1e-12);
        }
    }

    #[test]
    fn ln_choose_small_exact() {
        assert_close(ln_choose(5, 2), 10.0f64.ln(), 1e-12);
        assert_close(ln_choose(10, 5), 252.0f64.ln(), 1e-12);
        assert_eq!(ln_choose(5, 0), 0.0);
        assert_eq!(ln_choose(5, 5), 0.0);
        assert_eq!(ln_choose(3, 4), f64::NEG_INFINITY);
    }

    #[test]
    fn ln_choose_symmetry_and_pascal() {
        for n in 1..40u64 {
            for k in 0..=n {
                assert_close(ln_choose(n, k), ln_choose(n, n - k), 1e-11);
            }
        }
        // Pascal: C(n,k) = C(n-1,k-1) + C(n-1,k), checked in linear space.
        for n in 2..30u64 {
            for k in 1..n {
                let lhs = ln_choose(n, k).exp();
                let rhs = ln_choose(n - 1, k - 1).exp() + ln_choose(n - 1, k).exp();
                assert_close(lhs, rhs, 1e-9);
            }
        }
    }

    #[test]
    fn ln_choose_paper_scale() {
        // C(4_000_000, 30) should be astronomically large but finite.
        let v = ln_choose(4_000_000, 30);
        assert!(v.is_finite() && v > 300.0);
        // Sanity: ln C(n,k) <= k ln(en/k).
        let bound = 30.0 * (std::f64::consts::E * 4_000_000.0 / 30.0).ln();
        assert!(v <= bound);
    }
}
