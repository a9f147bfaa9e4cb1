//! Termination procedure: reading the weight-loss curve (paper Figure 7).
//!
//! Each iteration of the greedy product search reports the weight of the
//! heaviest product. Under pure noise every absorbed column halves the
//! weight — but because the search keeps the *maximum* over a large
//! candidate pool, the observed null decay is `w → w/2 + Θ(√w)` (the
//! maximum of ~Binomial(w, ½) over many candidates), not a clean halving.
//! When a pattern is present the dive flattens into a plateau — products
//! absorb pattern columns, which cost almost no weight — and once the
//! pattern is exhausted the dive resumes. "Our program should terminate
//! right before the second exponentially decreasing trend starts."
//!
//! The classifier therefore calls a step a **dive** when
//! `w_{k+1} < w_k/2 + c·√w_k`; with `c` a little above the max-selection
//! bias (≈1.5), noise steps classify as dives while plateaus (weight ≈
//! pattern height `a`) stay at or above the bound whenever `a/2 ≥ c·√a`,
//! i.e. patterns at least as tall as the noise floor `a = (2c)²`. The
//! comparison is strict so a perfectly flat step sitting exactly on the
//! bound (a pattern of height exactly `(2c)²` — 16 rows at the default
//! `c = 2`) reads as plateau, not dive.

/// Tuning knobs of the curve reader.
#[derive(Debug, Clone, Copy)]
pub struct TerminationConfig {
    /// Coefficient `c` of the dive bound `w/2 + c·√w`. Default 2.0: noise
    /// steps (bias ≈ 1.5·√w) fall under the bound, plateaus of patterns
    /// with a ≳ 16 rows stay above it.
    pub dive_coeff: f64,
    /// Minimum ratio `w_{k+1}/w_k` for a step to count as *plateau*. Steps
    /// that are neither dives nor plateaus (the ambiguous band between the
    /// two bounds) are neutral: they end a plateau run without marking a
    /// stop, so a marginally-slow second dive cannot drag the stop point
    /// past the true plateau.
    pub plateau_ratio: f64,
    /// Minimum number of consecutive plateau steps to call a plateau (a
    /// single flat step can be luck).
    pub min_plateau_len: usize,
}

impl Default for TerminationConfig {
    fn default() -> Self {
        TerminationConfig {
            dive_coeff: 2.0,
            plateau_ratio: 0.85,
            min_plateau_len: 2,
        }
    }
}

/// Analyses a weight-loss curve and returns the index (into `weights`) at
/// which to stop — the last point of the final plateau — or `None` when
/// the curve never plateaus (no pattern: a single uninterrupted dive).
///
/// `weights[k]` is the heaviest (k+2)-product weight after iteration k.
pub fn stop_point(weights: &[u32], cfg: TerminationConfig) -> Option<usize> {
    assert!(
        cfg.dive_coeff >= 0.0,
        "dive coefficient must be non-negative"
    );
    assert!(
        cfg.plateau_ratio > 0.0 && cfg.plateau_ratio <= 1.0,
        "plateau ratio must be in (0,1]"
    );
    if weights.len() < 2 {
        return None;
    }
    #[derive(PartialEq)]
    enum Step {
        Dive,
        Plateau,
        Neutral,
    }
    let steps: Vec<Step> = weights
        .windows(2)
        .map(|w| {
            let (prev, next) = (f64::from(w[0]), f64::from(w[1]));
            // A dead curve (weight zero) is never a plateau, even though
            // the strict bound below cannot classify a 0 → 0 step.
            if next == 0.0 || next < prev / 2.0 + cfg.dive_coeff * prev.sqrt() {
                Step::Dive
            } else if next >= cfg.plateau_ratio * prev {
                Step::Plateau
            } else {
                Step::Neutral
            }
        })
        .collect();
    // Find the last run of >= min_plateau_len consecutive plateau steps.
    let mut best_end: Option<usize> = None;
    let mut run = 0usize;
    for (i, step) in steps.iter().enumerate() {
        if *step == Step::Plateau {
            run += 1;
            if run >= cfg.min_plateau_len {
                best_end = Some(i + 1); // weights index at the end of the run
            }
        } else {
            run = 0;
        }
    }
    best_end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TerminationConfig {
        TerminationConfig::default()
    }

    #[test]
    fn pure_noise_has_no_stop() {
        // Halving (plus max-selection bias) every step: all dives.
        let w = [500u32, 290, 170, 105, 66, 45, 30, 22, 15, 11];
        assert_eq!(stop_point(&w, cfg()), None);
    }

    #[test]
    fn dive_plateau_dive_stops_at_plateau_end() {
        // Figure-7 shape: dive to ~100, plateau while absorbing pattern
        // columns, second dive after exhaustion at index 7.
        let w = [800u32, 400, 200, 105, 101, 100, 99, 98, 48, 23, 11];
        let stop = stop_point(&w, cfg()).expect("plateau must be found");
        assert_eq!(stop, 7, "stop right before the second dive");
    }

    #[test]
    fn plateau_at_start_detected() {
        let w = [100u32, 99, 97, 96, 40, 20];
        assert_eq!(stop_point(&w, cfg()), Some(3));
    }

    #[test]
    fn single_flat_step_is_not_a_plateau() {
        let w = [512u32, 256, 250, 125, 62, 30];
        assert_eq!(stop_point(&w, cfg()), None, "one flat step is luck");
    }

    #[test]
    fn trailing_plateau_without_second_dive() {
        // Pattern big enough that iterations ran out before the second
        // dive: stop at the last plateau point.
        let w = [800u32, 400, 200, 100, 99, 98, 97];
        assert_eq!(stop_point(&w, cfg()), Some(6));
    }

    #[test]
    fn short_curves() {
        assert_eq!(stop_point(&[], cfg()), None);
        assert_eq!(stop_point(&[100], cfg()), None);
        assert_eq!(stop_point(&[100, 99], cfg()), None); // needs 2 steps
        assert_eq!(stop_point(&[100, 99, 98], cfg()), Some(2));
    }

    #[test]
    fn tiny_plateaus_sink_below_the_noise_floor() {
        // At weight ~9 the dive bound w/2 + 2√w ≈ 10.5 swallows even a
        // perfectly flat step: patterns this small are indistinguishable
        // from max-selection noise and are deliberately not reported.
        assert_eq!(stop_point(&[10, 9, 9], cfg()), None);
    }

    #[test]
    fn plateau_at_exactly_the_noise_floor_is_detected() {
        // Height 16 sits exactly on the dive bound (16 = 16/2 + 2√16):
        // the strict comparison must read flat steps there as plateau.
        // Regression: a 20-row pattern degraded to 16 surviving rows was
        // invisible with a non-strict bound.
        let w = [17u32, 16, 16, 16, 16, 6, 4, 3];
        assert_eq!(stop_point(&w, cfg()), Some(4));
    }

    #[test]
    fn zero_weights_terminate() {
        let w = [8u32, 4, 0, 0, 0];
        assert_eq!(stop_point(&w, cfg()), None);
    }

    #[test]
    fn ambiguous_second_dive_does_not_extend_plateau() {
        // After the plateau at ~100, steps to 73 and 54 fall in the
        // ambiguous band (neither < w/2 + 2√w nor ≥ 0.85w at first);
        // the stop must stay at the true plateau end.
        let w = [
            363u32, 242, 178, 147, 131, 119, 110, 106, 103, 101, 100, 73, 54, 41, 33,
        ];
        assert_eq!(stop_point(&w, cfg()), Some(10));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn invalid_coeff_rejected() {
        stop_point(
            &[1, 2],
            TerminationConfig {
                dive_coeff: -1.0,
                plateau_ratio: 0.85,
                min_plateau_len: 1,
            },
        );
    }
}
