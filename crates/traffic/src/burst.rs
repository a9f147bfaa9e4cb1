//! Bursty load modulation.
//!
//! The stress test of Section V-B.4 exists because real traffic is bursty:
//! "due to the burstiness of the traffic, some groups will have more
//! packets hashed to it and some will have less". Two mechanisms produce
//! that effect here:
//!
//! * **epoch-level** ON/OFF modulation — per-epoch load multipliers drawn
//!   from a heavy-tailed (Pareto) law, so consecutive measurement epochs
//!   carry very different packet counts;
//! * **flow-level** elephants — already provided by the Zipf flow draw in
//!   [`crate::gen`]; combining both reproduces the "a small number of rows
//!   absorb a large percentage of traffic" behaviour the paper observed.

use dcs_stats::sample::sample_pareto;
use rand::Rng;

/// Heavy-tailed per-epoch load multiplier generator.
#[derive(Debug, Clone)]
pub struct BurstModel {
    /// Pareto shape; smaller = burstier. Must be > 1 so the mean exists.
    pub alpha: f64,
    /// Probability an epoch is OFF (near-idle).
    pub off_prob: f64,
    /// Load multiplier applied during OFF epochs.
    pub off_scale: f64,
}

impl Default for BurstModel {
    fn default() -> Self {
        BurstModel {
            alpha: 1.5,
            off_prob: 0.2,
            off_scale: 0.05,
        }
    }
}

impl BurstModel {
    /// Draws the load multiplier for one epoch; normalised so the ON-state
    /// mean multiplier is 1.
    pub fn epoch_multiplier<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        assert!(self.alpha > 1.0, "alpha must exceed 1 for a finite mean");
        if rng.gen::<f64>() < self.off_prob {
            return self.off_scale;
        }
        // Pareto(xm, alpha) has mean alpha·xm/(alpha−1); choose xm so the
        // mean is 1.
        let xm = (self.alpha - 1.0) / self.alpha;
        sample_pareto(rng, xm, self.alpha)
    }
}

/// Coefficient of variation (σ/μ) of a count sequence — the burstiness
/// measure used in tests and experiment reports.
pub fn coefficient_of_variation(counts: &[usize]) -> f64 {
    assert!(!counts.is_empty(), "need at least one count");
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<usize>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xB0057)
    }

    #[test]
    fn multipliers_positive() {
        let m = BurstModel::default();
        let mut r = rng();
        for _ in 0..1000 {
            assert!(m.epoch_multiplier(&mut r) > 0.0);
        }
    }

    #[test]
    fn bursty_counts_have_high_cv() {
        let m = BurstModel {
            alpha: 1.2,
            off_prob: 0.3,
            off_scale: 0.02,
        };
        let mut r = rng();
        let bursty: Vec<usize> = (0..400)
            .map(|_| (10_000.0 * m.epoch_multiplier(&mut r)).round() as usize)
            .collect();
        let smooth: Vec<usize> = vec![10_000; 400];
        assert!(
            coefficient_of_variation(&bursty) > 0.8,
            "cv {} not bursty",
            coefficient_of_variation(&bursty)
        );
        assert_eq!(coefficient_of_variation(&smooth), 0.0);
    }

    #[test]
    fn off_epochs_occur() {
        let m = BurstModel {
            alpha: 2.0,
            off_prob: 0.5,
            off_scale: 0.01,
        };
        let mut r = rng();
        let off = (0..200)
            .filter(|_| m.epoch_multiplier(&mut r) <= 0.02)
            .count();
        assert!(off > 50, "expected many OFF epochs, saw {off}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let m = BurstModel {
            alpha: 0.9,
            off_prob: 0.0,
            off_scale: 1.0,
        };
        m.epoch_multiplier(&mut rng());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn cv_empty_panics() {
        coefficient_of_variation(&[]);
    }
}
