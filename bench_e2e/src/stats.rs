//! Order statistics and the verdict digest.

/// Samples a percentile needs beyond it before it is reported
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const TAIL_SAMPLES: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub have: usize,
    pub need: usize,
}

/// Nearest-rank percentile `q` in (0, 1) of `samples`. Refuses when fewer
/// than [`TAIL_SAMPLES`] samples lie at or beyond the rank, so `p90`
/// needs 100 samples and `p50` needs 20.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "percentile rank must be inside (0, 1)");
    // The epsilon keeps 10 / (1 − 0.9) from rounding up to 101.
    let need = (TAIL_SAMPLES as f64 / (1.0 - q) - 1e-9).ceil() as usize;
    if samples.len() < need {
        return Err(TooFewSamples {
            have: samples.len(),
            need,
        });
    }
    Ok(nearest_rank(samples, q))
}

/// Nearest-rank percentile without the sample-count rule: `--smoke` runs
/// three epochs and still has to fill the same output schema.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same cut points
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance check computes. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// FNV-1a over 64 bits, used for the verdict digest and the input hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed list, so `[1], [2, 3]` and `[1, 2], [3]` differ.
    pub fn list(&mut self, items: &[usize]) {
        self.u64(items.len() as u64);
        for &i in items {
            self.u64(i as u64);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_is_refused_below_100_samples() {
        assert_eq!(
            percentile(&ramp(99), 0.9),
            Err(TooFewSamples {
                have: 99,
                need: 100
            })
        );
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        // Ten samples (91..=100) lie beyond the reported rank.
        assert_eq!(ramp(100).iter().filter(|&&v| v > 90.0).count(), 10);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
    }

    #[test]
    fn nearest_rank_ignores_order() {
        let mut v = ramp(100);
        v.reverse();
        assert_eq!(nearest_rank(&v, 0.9), 90.0);
        assert_eq!(nearest_rank(&[7.0, 3.0, 5.0], 0.9), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10));
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&ramp(10)), 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn digest_separates_list_boundaries() {
        let mut a = Fnv::default();
        a.list(&[1]);
        a.list(&[2, 3]);
        let mut b = Fnv::default();
        b.list(&[1, 2]);
        b.list(&[3]);
        assert_ne!(a.finish(), b.finish());
    }
}
