//! The total progeny T of a branching process with Bin(n, p) offspring,
//! which dominates a component of G(n, p), and the largest-component
//! threshold it proves (paper §IV-B, DESIGN §3.4). Tails are summed term
//! by term, never as 1 minus the head. Past the last term, T > J needs J
//! children among the first J individuals: P(Bin(nJ, p) ≥ J) ≤ e^(−J·r)
//! by Chernoff, r = c − 1 − ln c > 0 below the phase transition c = n·p = 1.

use crate::binomial::ln_binomial_pmf;

/// Most terms a tail sums; the Chernoff remainder covers the rest (only
/// within about 1 % of the phase transition does it stay large).
const MAX_TERMS: u64 = 1 << 20;

/// `ln P(T = j)`, `j ≥ 1`.
fn ln_progeny_pmf(j: u64, n: u64, p: f64) -> f64 {
    ln_binomial_pmf(j - 1, n.saturating_mul(j), p) - (j as f64).ln()
}

/// The Chernoff rate r; 0 where there is none (c ≥ 1, or p is not a
/// probability).
fn progeny_rate(n: u64, p: f64) -> f64 {
    let c = n as f64 * p;
    if (0.0..=1.0).contains(&p) && c < 1.0 {
        c - 1.0 - c.ln()
    } else {
        0.0
    }
}

/// `P(T ≥ k)`, summed from j = k until the Chernoff remainder is below
/// 10⁻¹² of the sum: up to rounding an upper bound, and that close to
/// exact. At or above the phase transition, or for a p that is not a
/// probability, it is 1.
pub fn progeny_sf(k: u64, n: u64, p: f64) -> f64 {
    let rate = progeny_rate(n, p);
    if k <= 1 || rate <= 0.0 {
        return 1.0;
    }
    let (mut sum, mut rest) = (0.0, 1.0);
    for j in k..=k.saturating_add(MAX_TERMS) {
        sum += ln_progeny_pmf(j, n, p).exp();
        rest = (-(j as f64) * rate).exp();
        if rest <= 1e-12 * sum {
            break;
        }
    }
    (sum + rest).min(1.0)
}

/// The largest-component alarm threshold of G(n, p) at false-alarm bound
/// ε: k\* − 1 for the smallest k\* ≤ n with (n/k\*)·P(T ≥ k\*) ≤ ε, so
/// "largest > threshold" fires on a null graph with probability ≤ ε.
/// Returns `n` when there is no such k\*: at or above the phase
/// transition, on a graph too small to reach ε, or for a p or ε out of
/// range. Never panics.
pub fn component_threshold(n: usize, p: f64, epsilon: f64) -> usize {
    let rate = progeny_rate(n as u64, p);
    if rate <= 0.0 || epsilon.is_nan() || epsilon <= 0.0 {
        return n;
    }
    // Summed from the top down, so each k reads its whole tail. Past
    // `top − 1` the remainder is below 10⁻⁹·ε/n, so k* ≤ top unless
    // `top` was clamped.
    let horizon = ((n as f64 / epsilon).ln() + 9.0 * std::f64::consts::LN_10) / rate;
    let top = (horizon.ceil() + 1.0).clamp(2.0, MAX_TERMS as f64) as u64;
    let mut tail = (-(top as f64) * rate).exp();
    for k in (1..=top).rev() {
        tail += ln_progeny_pmf(k, n as u64, p).exp();
        // The bound falls as k rises: the first k that misses ε is k* − 1.
        if k <= n as u64 && n as f64 / k as f64 * tail > epsilon {
            return if k == top { n } else { k as usize };
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact `P(largest component ≥ k)` of G(n, p), k = 0..=n, by
    /// enumerating every graph on n vertices.
    fn exact_largest_tail(n: usize, p: f64) -> Vec<f64> {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect();
        let mut at_least = vec![0.0; n + 1];
        for mask in 0u32..1 << pairs.len() {
            let mut root: Vec<usize> = (0..n).collect();
            fn find(root: &mut [usize], v: usize) -> usize {
                if root[v] != v {
                    root[v] = find(root, root[v]);
                }
                root[v]
            }
            for (e, &(a, b)) in pairs.iter().enumerate() {
                if mask >> e & 1 == 1 {
                    let (ra, rb) = (find(&mut root, a), find(&mut root, b));
                    root[ra] = rb;
                }
            }
            let mut size = vec![0usize; n];
            for v in 0..n {
                size[find(&mut root, v)] += 1;
            }
            let largest = size.into_iter().max().unwrap_or(0);
            let edges = mask.count_ones() as i32;
            let prob = p.powi(edges) * (1.0 - p).powi(pairs.len() as i32 - edges);
            for slot in &mut at_least[..=largest] {
                *slot += prob;
            }
        }
        at_least
    }

    #[test]
    fn bound_holds_on_every_graph_up_to_six_vertices() {
        for n in 1..=6usize {
            for p in [0.01, 0.05, 0.1, 0.16, 0.5] {
                let exact = exact_largest_tail(n, p);
                for (k, &exact) in exact.iter().enumerate().skip(1) {
                    let bound = n as f64 / k as f64 * progeny_sf(k as u64, n as u64, p);
                    assert!(
                        exact <= bound * (1.0 + 1e-12),
                        "n {n}, p {p}, k {k}: exact {exact} above bound {bound}"
                    );
                }
            }
        }
    }

    /// The closed form sums to 1 below the phase transition, where T is
    /// finite; the Poisson limit is Borel's law.
    #[test]
    fn progeny_law_is_a_distribution() {
        for (n, p) in [(10u64, 0.05), (1_000, 0.0005), (102_400, 0.65 / 102_400.0)] {
            let total: f64 = (1..5_000).map(|j| ln_progeny_pmf(j, n, p).exp()).sum();
            assert!((total - 1.0).abs() < 1e-9, "n {n}, p {p}: {total}");
        }
        // Borel(c): P(T = j) = e^(−cj)(cj)^(j−1)/j!.
        let (c, n) = (0.65f64, 1u64 << 24);
        for j in [1u64, 2, 5, 20] {
            let jf = j as f64;
            let borel = -c * jf + (jf - 1.0) * (c * jf).ln() - crate::ln_factorial(j);
            let got = ln_progeny_pmf(j, n, c / n as f64);
            assert!((got - borel).abs() < 1e-5, "j {j}: {got} vs {borel}");
        }
    }

    #[test]
    fn tail_sum_matches_the_head_complement() {
        for (n, p) in [(20u64, 0.02), (144, 0.65 / 144.0), (3_072, 0.65 / 3_072.0)] {
            let mut head = 0.0;
            for k in 1..60u64 {
                let sf = progeny_sf(k, n, p);
                assert!(
                    (sf - (1.0 - head)).abs() < 1e-9,
                    "n {n}, k {k}: {sf} vs {}",
                    1.0 - head
                );
                head += ln_progeny_pmf(k, n, p).exp();
            }
        }
    }

    /// Pins the thresholds at c = n·p = 0.65 and ε = 10⁻³, from the
    /// smallest test graph a deployment runs to the paper's n = 102,400.
    #[test]
    fn thresholds_are_pinned() {
        let at = |n: usize| component_threshold(n, 0.65 / n as f64, 1e-3);
        assert_eq!(
            [48, 144, 3_072, 30_720, 102_400].map(at),
            [40, 48, 74, 95, 107]
        );
    }

    /// The paper's Figure-13 operating point: n = 102,400 and
    /// p₁ = 0.65·10⁻⁵ (c = 0.67). Its hand-set threshold of 100 sits
    /// below the one the bound proves at ε = 10⁻³.
    #[test]
    fn paper_threshold_is_a_conformance_case() {
        let t = component_threshold(102_400, 0.65e-5, 1e-3);
        assert_eq!(t, 117);
        assert!(t >= 100);
    }

    /// The threshold is k* − 1 for the first k* whose bound meets ε.
    #[test]
    fn threshold_is_the_first_k_under_epsilon() {
        for (n, c, eps) in [(48usize, 0.65, 1e-3), (500, 0.3, 1e-6), (10_000, 0.9, 0.05)] {
            let p = c / n as f64;
            let bound = |k: usize| n as f64 / k as f64 * progeny_sf(k as u64, n as u64, p);
            let t = component_threshold(n, p, eps);
            assert!(t < n, "n {n}: no threshold");
            assert!(
                bound(t + 1) <= eps,
                "n {n}: bound at {} is {}",
                t + 1,
                bound(t + 1)
            );
            assert!(
                t == 0 || bound(t) > eps,
                "n {n}: bound at {t} is {}",
                bound(t)
            );
        }
        // A looser ε never raises it.
        let at = |eps: f64| component_threshold(3_072, 0.65 / 3_072.0, eps);
        assert!(at(0.2) <= at(1e-3) && at(1e-3) <= at(1e-9));
    }

    #[test]
    fn no_threshold_at_or_above_the_phase_transition_or_below_reach() {
        assert_eq!(component_threshold(192, 0.65 / 96.0, 1e-3), 192);
        assert_eq!(component_threshold(100, 0.01, 1e-3), 100);
        // Eight and four groups cannot reach 10⁻³ at c = 0.65.
        assert_eq!(component_threshold(8, 0.65 / 8.0, 1e-3), 8);
        assert_eq!(component_threshold(4, 0.65 / 4.0, 1e-3), 4);
        // No edges: every component is one vertex.
        assert_eq!(component_threshold(50, 0.0, 1e-3), 1);
        assert_eq!(progeny_sf(5, 100, 0.02), 1.0);
    }

    #[test]
    fn never_panics_on_any_input() {
        let ns = [0usize, 1, 2, 7, 1 << 40, usize::MAX];
        let ps = [f64::NAN, -1.0, 0.0, 1e-300, 0.5, 1.0, 2.0, f64::INFINITY];
        let epss = [f64::NAN, -1.0, 0.0, 1e-300, 1e-3, 1.0, 1e300, f64::INFINITY];
        for &n in &ns {
            for &p in &ps {
                for &eps in &epss {
                    assert!(component_threshold(n, p, eps) <= n);
                }
                assert!(progeny_sf(3, n as u64, p) <= 1.0);
            }
        }
        assert_eq!(component_threshold(0, 0.5, 1e-3), 0);
    }
}
