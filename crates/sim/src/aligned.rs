//! Aligned-case Monte-Carlo: planted matrices and detection-ratio
//! estimation (paper Section V-A, Figures 7, 11, 12).

use dcs_aligned::thresholds::screening_weight;
use dcs_aligned::{refined_detect, AlignedDetection, SearchConfig};
use dcs_bitmap::ColMatrix;
use dcs_stats::binomial::ln_binomial_pmf;
use dcs_stats::binomial_sf;
use dcs_stats::sample::sample_binomial;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A fully materialised planted matrix (for moderate n — tests and the
/// reduced-scale paths).
#[derive(Debug)]
pub struct PlantedMatrix {
    /// The m×n matrix.
    pub matrix: ColMatrix,
    /// Ground-truth pattern rows.
    pub rows: Vec<u32>,
    /// Ground-truth pattern columns.
    pub cols: Vec<usize>,
}

/// Generates an m×n Bernoulli(½) matrix with an a×b all-1 pattern planted
/// on random rows and columns (the paper's Section V-A methodology).
pub fn planted_matrix(rng: &mut StdRng, m: usize, n: usize, a: usize, b: usize) -> PlantedMatrix {
    assert!(a <= m && b <= n, "pattern exceeds matrix");
    let mut matrix = ColMatrix::new(m, n);
    for c in 0..n {
        for r in 0..m {
            if rng.gen::<bool>() {
                matrix.set(r, c);
            }
        }
    }
    let mut all_rows: Vec<u32> = (0..m as u32).collect();
    all_rows.shuffle(rng);
    let mut rows: Vec<u32> = all_rows.into_iter().take(a).collect();
    rows.sort_unstable();
    let mut all_cols: Vec<usize> = (0..n).collect();
    all_cols.shuffle(rng);
    let mut cols: Vec<usize> = all_cols.into_iter().take(b).collect();
    cols.sort_unstable();
    for &c in &cols {
        for &r in &rows {
            matrix.set(r as usize, c);
        }
    }
    PlantedMatrix { matrix, rows, cols }
}

/// The refined algorithm's input reproduced at paper scale by
/// *conditioning*: screening-by-weight only consumes column weights, so we
/// sample survivor counts and weights from their exact distributions and
/// materialise only the n′ surviving columns.
#[derive(Debug)]
pub struct ScreenedMatrix {
    /// The m×n′ screened matrix (columns shuffled).
    pub matrix: ColMatrix,
    /// Ground-truth pattern rows (always `0..a` in this construction; row
    /// identity is exchangeable).
    pub rows: Vec<u32>,
    /// Indices (into `matrix`) of the pattern columns that survived
    /// screening.
    pub surviving_pattern_cols: Vec<usize>,
    /// The screening weight used.
    pub w: u64,
}

/// Samples `Binomial(n, ½)` conditioned on exceeding `w` by walking the
/// pmf ratio upward from `w+1` (the tail is short — a few dozen steps).
fn sample_binomial_tail_half(rng: &mut StdRng, n: u64, w: u64) -> u64 {
    let sf = binomial_sf(w as i64, n, 0.5);
    assert!(sf > 0.0, "empty tail");
    let mut u: f64 = rng.gen::<f64>() * sf;
    let mut k = w + 1;
    let mut pmf = ln_binomial_pmf(k, n, 0.5).exp();
    loop {
        if u <= pmf || k >= n {
            return k;
        }
        u -= pmf;
        // pmf(k+1)/pmf(k) = (n-k)/(k+1) at p = 1/2.
        pmf *= (n - k) as f64 / (k + 1) as f64;
        k += 1;
    }
}

/// Builds the screened planted matrix for the configuration
/// `(m, n, a, b, n′)`: expected null survivors fill ~75 % of n′ (the
/// paper's 2,900-of-4,000 margin), pattern columns survive by their own
/// weight, and the list is padded to n′ with weight-w null columns (the
/// columns the real algorithm would take just below the cut).
pub fn screened_planted_matrix(
    rng: &mut StdRng,
    m: usize,
    n: usize,
    a: usize,
    b: usize,
    n_prime: usize,
) -> ScreenedMatrix {
    assert!(a <= m, "pattern taller than matrix");
    let w = screening_weight(m as u64, n as u64, n_prime as u64, 0.75);
    let p_null = binomial_sf(w as i64, m as u64, 0.5);

    struct Col {
        weight_extra_rows: u64, // rows beyond the pattern block
        is_pattern: bool,
    }
    let mut cols: Vec<Col> = Vec::new();

    // Null survivors above the cut.
    let null_count = sample_binomial(rng, (n - b) as u64, p_null) as usize;
    for _ in 0..null_count.min(n_prime) {
        let weight = sample_binomial_tail_half(rng, m as u64, w);
        cols.push(Col {
            weight_extra_rows: weight,
            is_pattern: false,
        });
    }
    // Pattern survivors: weight = a + Binom(m−a, ½) must exceed w.
    for _ in 0..b {
        let extra = sample_binomial(rng, (m - a) as u64, 0.5);
        if a as u64 + extra > w {
            cols.push(Col {
                weight_extra_rows: extra,
                is_pattern: true,
            });
        }
    }
    // Pad to n′ with columns right at the cut (what the top-n′ selection
    // would pick next).
    while cols.len() < n_prime {
        cols.push(Col {
            weight_extra_rows: w,
            is_pattern: false,
        });
    }
    // If oversubscribed, drop random null columns (the real selection
    // would drop the lightest; survivor weights are exchangeable enough
    // that random dropping preserves the distribution of the kept set).
    while cols.len() > n_prime {
        let victim = rng.gen_range(0..cols.len());
        if !cols[victim].is_pattern {
            cols.swap_remove(victim);
        }
    }
    cols.shuffle(rng);

    let mut matrix = ColMatrix::new(m, cols.len());
    let mut surviving_pattern_cols = Vec::new();
    // Separate pools: shuffling permutes contents, so the pattern-extra
    // pool must only ever contain rows outside the pattern block.
    let mut null_pool: Vec<u32> = (0..m as u32).collect();
    let mut extra_pool: Vec<u32> = (a as u32..m as u32).collect();
    for (ci, col) in cols.iter().enumerate() {
        if col.is_pattern {
            surviving_pattern_cols.push(ci);
            for r in 0..a {
                matrix.set(r, ci);
            }
            let extra = col.weight_extra_rows as usize;
            let (pool, _) = extra_pool.partial_shuffle(rng, extra);
            for &r in pool.iter() {
                matrix.set(r as usize, ci);
            }
        } else {
            let weight = col.weight_extra_rows as usize;
            let (pool, _) = null_pool.partial_shuffle(rng, weight);
            for &r in pool.iter() {
                matrix.set(r as usize, ci);
            }
        }
    }
    ScreenedMatrix {
        matrix,
        rows: (0..a as u32).collect(),
        surviving_pattern_cols,
        w,
    }
}

/// Did a detection run actually find the planted pattern (and not a
/// mirage)? Requires the verdict plus a majority of reported rows being
/// true pattern rows.
pub fn detection_hits_pattern(det: &AlignedDetection, truth_rows: &[u32]) -> bool {
    if !det.found || det.rows.is_empty() {
        return false;
    }
    let hits = det.rows.iter().filter(|r| truth_rows.contains(r)).count();
    2 * hits >= det.rows.len()
}

/// One Figure-11-style trial at paper scale: screened sampler + refined
/// search over the screened columns.
pub fn paper_scale_trial(
    seed: u64,
    m: usize,
    n: usize,
    a: usize,
    b: usize,
    n_prime: usize,
    cfg: &SearchConfig,
) -> (AlignedDetection, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sm = screened_planted_matrix(&mut rng, m, n, a, b, n_prime);
    let mut search = cfg.clone();
    search.n_prime = sm.matrix.ncols();
    // The refined search over the m × n′ screened matrix; its own n′
    // screen keeps every column. The verdict's non-natural bound is
    // judged at these dimensions, (m, n′), not the full matrix's (m, n).
    let det = refined_detect(&sm.matrix, &search);
    (det, sm.rows)
}

/// Detection ratio over `reps` trials, parallelised with scoped worker
/// threads (each trial is seeded independently by its index, so the
/// estimate is identical for any thread count).
#[allow(clippy::too_many_arguments)] // flat args mirror the experiment factors
pub fn detection_ratio(
    base_seed: u64,
    m: usize,
    n: usize,
    a: usize,
    b: usize,
    n_prime: usize,
    cfg: &SearchConfig,
    reps: usize,
    threads: usize,
) -> f64 {
    assert!(reps > 0 && threads > 0, "need work and workers");
    let counter = std::sync::atomic::AtomicUsize::new(0);
    let hit_counts = dcs_parallel::map_workers(threads.min(reps), |_| {
        let mut local = 0usize;
        loop {
            let i = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= reps {
                break;
            }
            let (det, truth) =
                paper_scale_trial(base_seed ^ (i as u64) << 20, m, n, a, b, n_prime, cfg);
            if detection_hits_pattern(&det, &truth) {
                local += 1;
            }
        }
        local
    });
    hit_counts.into_iter().sum::<usize>() as f64 / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn planted_matrix_ground_truth_is_all_ones() {
        let mut r = rng(1);
        let p = planted_matrix(&mut r, 40, 100, 8, 5);
        for &c in &p.cols {
            for &row in &p.rows {
                assert!(p.matrix.get(row as usize, c));
            }
        }
        assert_eq!(p.rows.len(), 8);
        assert_eq!(p.cols.len(), 5);
    }

    #[test]
    fn planted_matrix_background_is_half_full() {
        let mut r = rng(2);
        let p = planted_matrix(&mut r, 100, 200, 0, 0);
        let total: u64 = p.matrix.col_weights().iter().map(|&w| u64::from(w)).sum();
        let fill = total as f64 / (100.0 * 200.0);
        assert!((fill - 0.5).abs() < 0.02, "fill {fill}");
    }

    #[test]
    fn tail_sampler_stays_in_tail_and_matches_mean() {
        let mut r = rng(3);
        let (n, w) = (1000u64, 550u64);
        let mut acc = 0u64;
        let reps = 2000;
        for _ in 0..reps {
            let k = sample_binomial_tail_half(&mut r, n, w);
            assert!(k > w && k <= n);
            acc += k;
        }
        let mean = acc as f64 / reps as f64;
        // Conditional mean of Binom(1000,1/2) | >550: ≈ 554.5.
        assert!((mean - 554.5).abs() < 1.5, "tail mean {mean}");
    }

    #[test]
    fn screened_matrix_shape_and_truth() {
        let mut r = rng(8);
        let sm = screened_planted_matrix(&mut r, 200, 100_000, 40, 20, 300);
        assert_eq!(sm.matrix.ncols(), 300);
        assert_eq!(sm.matrix.nrows(), 200);
        // Every surviving pattern column has all pattern rows set and
        // weight above w.
        for &c in &sm.surviving_pattern_cols {
            for r0 in 0..40 {
                assert!(sm.matrix.get(r0, c), "pattern row missing in col {c}");
            }
            assert!(u64::from(sm.matrix.col_weight(c)) > sm.w);
        }
        // With a=40 of m=200, survival prob is high: most of b survives.
        assert!(sm.surviving_pattern_cols.len() >= 10);
    }

    #[test]
    fn screened_null_columns_exceed_cut() {
        let mut r = rng(5);
        let sm = screened_planted_matrix(&mut r, 200, 100_000, 0, 0, 300);
        for c in 0..sm.matrix.ncols() {
            assert!(u64::from(sm.matrix.col_weight(c)) >= sm.w);
        }
        assert!(sm.surviving_pattern_cols.is_empty());
    }

    #[test]
    fn paper_scale_trial_detects_strong_pattern() {
        let cfg = SearchConfig {
            hopefuls: 300,
            max_iterations: 30,
            n_prime: 0, // overridden inside
            gamma: 2,
            termination: Default::default(),
        };
        let (det, truth) = paper_scale_trial(99, 200, 100_000, 40, 20, 300, &cfg);
        assert!(
            detection_hits_pattern(&det, &truth),
            "strong pattern missed; curve {:?}",
            det.weight_curve
        );
    }

    #[test]
    fn detection_ratio_separates_signal_from_noise() {
        let cfg = SearchConfig {
            hopefuls: 200,
            max_iterations: 25,
            n_prime: 0,
            gamma: 2,
            termination: Default::default(),
        };
        let strong = detection_ratio(7, 200, 100_000, 40, 20, 250, &cfg, 6, 3);
        let none = detection_ratio(8, 200, 100_000, 0, 0, 250, &cfg, 6, 3);
        assert!(strong >= 0.8, "strong-pattern ratio {strong}");
        assert!(none <= 0.2, "false-positive ratio {none}");
    }
}
