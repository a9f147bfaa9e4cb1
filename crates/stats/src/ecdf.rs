//! Empirical CDFs and summary statistics for Monte-Carlo output.
//!
//! Figure 13 of the paper plots the empirical CDF of the largest connected
//! component over repeated trials; [`Ecdf`] is that object, plus the
//! quantile and threshold-exceedance queries the false-positive /
//! false-negative analysis needs.

/// An empirical distribution over `f64` samples.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples (NaNs are rejected).
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "ECDF needs at least one sample");
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "ECDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction rejects empty sample sets).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `F(x) = P[X ≤ x]` under the empirical measure.
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// `P[X > x]` under the empirical measure — e.g. the fraction of trials
    /// whose largest component exceeded the alarm threshold.
    pub fn exceed(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// The `q`-quantile (nearest-rank).
    ///
    /// # Panics
    /// Panics unless `0 ≤ q ≤ 1`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile level out of range");
        if q == 0.0 {
            return self.sorted[0];
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Unbiased sample variance (0 for a single sample).
    pub fn variance(&self) -> f64 {
        let n = self.sorted.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        self.sorted.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1) as f64
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// The sorted samples (for plotting the CDF as a step function).
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Ecdf {
        /// Kolmogorov–Smirnov statistic against a *discrete* (right-continuous
        /// step) reference CDF: compares the two right-continuous functions at
        /// the distinct sample points only. Under H₀ this statistic is
        /// stochastically no larger than the continuous-case statistic, so
        /// [`ks_critical`] stays valid (conservatively).
        fn ks_statistic_discrete(&self, cdf: impl Fn(f64) -> f64) -> f64 {
            let n = self.sorted.len() as f64;
            let mut d = 0.0f64;
            let mut i = 0usize;
            while i < self.sorted.len() {
                let x = self.sorted[i];
                let mut j = i;
                while j < self.sorted.len() && self.sorted[j] == x {
                    j += 1;
                }
                d = d.max((cdf(x) - j as f64 / n).abs());
                i = j;
            }
            d
        }
    }

    /// Approximate Kolmogorov–Smirnov critical value at level `alpha` for `n`
    /// samples: `sqrt(−ln(α/2) / 2n)` (the asymptotic one-sample bound; for a
    /// *discrete* reference distribution the test is conservative, i.e. the
    /// true rejection rate is below α).
    fn ks_critical(n: usize, alpha: f64) -> f64 {
        (-(alpha / 2.0).ln() / (2.0 * n as f64)).sqrt()
    }

    #[test]
    fn cdf_step_function() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.0), 0.75);
        assert_eq!(e.cdf(3.0), 1.0);
        assert_eq!(e.cdf(99.0), 1.0);
    }

    #[test]
    fn exceed_complements() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert!((e.exceed(20.0) - 0.5).abs() < 1e-12);
        assert_eq!(e.exceed(40.0), 0.0);
        assert_eq!(e.exceed(0.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new((1..=100).map(f64::from).collect());
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.quantile(0.01), 1.0);
    }

    #[test]
    fn moments() {
        let e = Ecdf::new(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((e.mean() - 5.0).abs() < 1e-12);
        assert!((e.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(e.min(), 2.0);
        assert_eq!(e.max(), 9.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_rejected() {
        Ecdf::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn single_sample() {
        let e = Ecdf::new(vec![42.0]);
        assert_eq!(e.variance(), 0.0);
        assert_eq!(e.quantile(0.5), 42.0);
    }

    #[test]
    fn ks_validates_binomial_sampler() {
        // Goodness-of-fit of the from-scratch sampler against binocdf —
        // conservative for a discrete law, so a pass is meaningful.
        use crate::binomial::binocdf;
        use crate::sample::sample_binomial;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (n_trials, p) = (60u64, 0.3);
        let samples: Vec<f64> = (0..800)
            .map(|_| sample_binomial(&mut rng, n_trials, p) as f64)
            .collect();
        let e = Ecdf::new(samples);
        let d = e.ks_statistic_discrete(|x| binocdf(x.floor() as i64, n_trials, p));
        assert!(
            d < ks_critical(800, 0.001),
            "binomial sampler fails KS: d = {d}"
        );
    }
}
