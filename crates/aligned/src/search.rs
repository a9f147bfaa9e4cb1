//! Greedy product search: the naive (Figure 5) and refined (Figure 6)
//! detection algorithms.
//!
//! Both search for a set of columns whose bitwise-AND ("k-product") stays
//! heavy. The naive algorithm works on the whole matrix; the refined one
//! first screens the `n′` heaviest columns (heavier columns are likelier
//! to be pattern columns, Theorem 2), finds a *core* there, and then uses
//! the core's row vector to sweep every remaining column at O(n) cost.
//!
//! Implementation notes:
//! * products are extended only by columns *after* their largest member
//!   (canonical combinatorial order), which enumerates every column set at
//!   most once — the paper's `w ∉ A_v` rule plus duplicate suppression;
//! * the per-iteration "hopefuls" list keeps the H heaviest candidates —
//!   the paper's priority queue of size O(n) — as a bucket queue: a
//!   product weight takes one of `nrows + 1` values, so candidates are
//!   grouped by weight (one FIFO each) and neither an offer nor an
//!   eviction compares two of them, however many tie at the bar;
//! * the refined search works on the rows it is given (owned bitmaps or
//!   borrowed wire views) and never transposes them: one pass counts
//!   every column's weight into bit-sliced counters
//!   ([`ColumnCounts`]: plane k = bit k of 64 columns' counts a word);
//! * the heaviest-column screen compares no two columns until the n′
//!   survivors are sorted: a weight takes one of `nrows + 1` values, so
//!   a binary search over the threshold — each probe one bit-sliced
//!   comparator pass over the planes — finds the cut weight, and only
//!   the n′ columns at or above it are decoded and gathered, bit by bit
//!   from the rows, into the column-major working matrix;
//! * the expansion sweep is the same count over only the core's rows,
//!   thresholded at `weight(core) − γ`;
//! * the per-iteration fan-out of each hopeful over the screened columns
//!   after it (iteration 1 fans out the single columns, i.e. all
//!   2-products) goes through one batched AND-popcount kernel over the
//!   working matrix's contiguous column store ([`and_weight_each_into`]);
//! * the whole search runs on the caller's thread. One candidate queue
//!   sees every offer in ascending `(parent, column)` order, so each
//!   weight class already holds its candidates sorted, and the top-H
//!   list is read off the classes from the heaviest down: the canonical
//!   order of the full `(weight, parent, column)` tuple. The queue's bar
//!   rises with every offer it keeps, so the weight-bound break prunes
//!   against one bar and the scanned/pruned split is a function of the
//!   input.

use crate::termination::{stop_point, TerminationConfig};
use crate::thresholds::ln_natural_occurrence;
use dcs_bitmap::words::{and_assign, and_weight_each_into, iter_ones, WORD_BITS};
use dcs_bitmap::{ColMatrix, ColumnCounts, WordSource};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::time::Instant;

/// Reusable buffers for repeated refined detections (one per epoch).
///
/// Holds everything [`refined_detect_cached`] needs between the row
/// stack and the detection report: the column-count planes, the screened
/// column order, the screened working matrix, and the popcount buffer
/// of the product search's fan-outs. All of it is allocated on the
/// first epoch and reused — steady-state detection performs no per-epoch
/// counting or screening allocations beyond what the candidate products
/// themselves need.
#[derive(Debug)]
pub struct SearchScratch {
    /// Per-column counts: over every row for the screen, then over the
    /// core's rows for the expansion sweep.
    counts: ColumnCounts,
    /// Column indices ranked by descending weight (truncated to n′).
    order: Vec<usize>,
    /// The screened working matrix (the n′ heaviest columns).
    work: ColMatrix,
    /// Popcount buffer of the product search's fan-outs.
    fanout: Vec<u32>,
}

impl Default for SearchScratch {
    fn default() -> Self {
        SearchScratch {
            counts: ColumnCounts::default(),
            order: Vec::new(),
            work: ColMatrix::new(0, 0),
            fanout: Vec::new(),
        }
    }
}

impl SearchScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Capacities of the internal buffers (count-plane words, column
    /// order, screened matrix words, fan-out slots) — diagnostic
    /// hook for steady-state reuse tests: across epochs of equal shape
    /// these must not grow.
    pub fn capacities(&self) -> [usize; 4] {
        [
            self.counts.word_capacity(),
            self.order.capacity(),
            self.work.word_capacity(),
            self.fanout.capacity(),
        ]
    }
}

/// Wall-clock nanoseconds of the stages behind
/// [`refined_detect_cached`], one field per pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchTimings {
    /// Counting every column's weight across the row stack.
    pub count_ns: u64,
    /// Finding the cut weight, ranking the n′ heaviest columns and
    /// gathering them from the rows (screening).
    pub screen_ns: u64,
    /// Greedy product search plus the termination-procedure read
    /// (core-finding).
    pub core_ns: u64,
    /// Expansion sweep: counting the core's rows in every column and
    /// thresholding.
    pub expand_ns: u64,
    /// Natural-occurrence verdict and report assembly.
    pub verdict_ns: u64,
}

/// Work accounting of one product search: how many candidate products
/// were actually AND-popcounted and how many the conservative weight-bound
/// break discarded without computing.
///
/// These are *effort* numbers, not detection inputs: the pruned
/// candidates are exactly those that provably cannot enter the hopefuls
/// list (their weight upper bound sits strictly below the lightest
/// candidate a full list holds), so the detection set never depends on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchWork {
    /// Candidate products AND-popcounted.
    pub pairs_scanned: u64,
    /// Candidates discarded by the conservative weight-bound break.
    pub pairs_pruned: u64,
}

impl SearchWork {
    /// Total candidates considered (scanned + pruned).
    pub fn candidates(&self) -> u64 {
        self.pairs_scanned + self.pairs_pruned
    }
}

/// Tuning parameters of the greedy search.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SearchConfig {
    /// Size of the per-iteration hopefuls list (the paper's O(n)).
    pub hopefuls: usize,
    /// Upper bound on product order (the paper's `num_iterations`,
    /// ≈ b + c).
    pub max_iterations: usize,
    /// Screening budget n′ for the refined algorithm.
    pub n_prime: usize,
    /// Core-expansion slack γ: columns within γ of the core weight join
    /// the witness set (paper: "setting γ to 2 or 3 will work very well").
    pub gamma: u32,
    /// Non-natural level ε for the final verdict.
    pub epsilon: f64,
    /// Weight-curve reader configuration.
    pub termination: TerminationConfig,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            hopefuls: 1_000,
            max_iterations: 40,
            n_prime: 4_000,
            gamma: 2,
            epsilon: 1e-3,
            termination: TerminationConfig::default(),
        }
    }
}

/// Result of an aligned-case detection run.
#[derive(Debug, Clone)]
pub struct AlignedDetection {
    /// Whether a non-naturally-occurring pattern was found.
    pub found: bool,
    /// Routers (row indices) of the detected pattern — the 1-bits of the
    /// final core product.
    pub rows: Vec<u32>,
    /// Columns of the full witness set (original matrix indices).
    pub cols: Vec<usize>,
    /// Columns of the core alone (original matrix indices).
    pub core_cols: Vec<usize>,
    /// Heaviest-product weight after each iteration (the Figure-7 curve);
    /// `weight_curve[k]` is the best (k+2)-product weight.
    pub weight_curve: Vec<u32>,
    /// Index into `weight_curve` where the termination procedure stopped.
    pub stopped_at: Option<usize>,
}

impl AlignedDetection {
    fn not_found(weight_curve: Vec<u32>) -> Self {
        AlignedDetection {
            found: false,
            rows: Vec::new(),
            cols: Vec::new(),
            core_cols: Vec::new(),
            weight_curve,
            stopped_at: None,
        }
    }
}

/// A k-product under construction.
#[derive(Debug, Clone)]
struct Product {
    words: Vec<u64>,
    weight: u32,
    /// Member columns, ascending (indices into the *working* matrix).
    members: Vec<u32>,
}

/// A candidate product: `(weight, parent, column)`, compared as a tuple.
type Candidate = (u32, u32, u32);

/// The `cap` greatest candidates offered so far, as a bucket queue: a
/// product weight takes one of `nrows + 1` values, so candidates are
/// grouped by weight — one FIFO each — instead of compared.
///
/// Offers must arrive in ascending `(parent, column)` order (the fan-out
/// walks its parents, and each parent's columns, upwards). Every FIFO
/// is then sorted, the front of the lightest non-empty one is the least
/// candidate held, and evicting it costs no comparison however many
/// candidates tie at the bar.
struct CandidateQueue {
    cap: usize,
    len: usize,
    /// Lightest non-empty weight class (`classes.len()` while empty).
    floor: usize,
    /// `classes[w]`: the `(parent, column)` of the held candidates of
    /// weight `w`, oldest first.
    classes: Vec<VecDeque<(u32, u32)>>,
}

impl CandidateQueue {
    fn new(nrows: usize, cap: usize) -> Self {
        CandidateQueue {
            cap,
            len: 0,
            floor: nrows + 1,
            classes: vec![VecDeque::new(); nrows + 1],
        }
    }

    /// The weight below which no candidate can enter: once the queue is
    /// full, a weight *strictly* below the lightest one held loses to it
    /// for any tie-break — while an equal weight may still win.
    fn bar(&self) -> u32 {
        if self.len == self.cap && self.cap > 0 {
            self.floor as u32
        } else {
            0
        }
    }

    /// Offers a candidate; the queue keeps the `cap` greatest.
    #[inline]
    fn offer(&mut self, weight: u32, parent: u32, column: u32) {
        if weight < self.bar() || self.cap == 0 {
            return;
        }
        let class = &mut self.classes[weight as usize];
        debug_assert!(
            class.back().is_none_or(|&held| held < (parent, column)),
            "offers must ascend in (parent, column)"
        );
        class.push_back((parent, column));
        self.floor = self.floor.min(weight as usize);
        if self.len < self.cap {
            self.len += 1;
            return;
        }
        self.classes[self.floor].pop_front();
        while self.classes[self.floor].is_empty() {
            self.floor += 1;
        }
    }

    /// The candidates held, greatest first: the weight classes from the
    /// heaviest down, each already in `(parent, column)` order.
    fn ranked(&self) -> Vec<Candidate> {
        let classes = self.classes.iter().enumerate().rev();
        classes
            .flat_map(|(w, class)| class.iter().rev().map(move |&(p, c)| (w as u32, p, c)))
            .collect()
    }
}

/// One iteration of the product search: every parent is ANDed with every
/// column after its largest member, and the `cfg.hopefuls` heaviest
/// `(weight, parent index, column)` come back ranked.
///
/// The [`CandidateQueue`] retains its top-H for any offer order, so the
/// conservative weight-bound break is lossless: a candidate whose
/// `min(parent weight, max w_remaining)` upper bound sits strictly below
/// a full queue's bar can never enter and is skipped unscanned.
/// `work_stats` accumulates the scanned/pruned candidate counts.
fn fan_out(
    work: &ColMatrix,
    cfg: &SearchConfig,
    suffix_max: &[u32],
    parents: &[Product],
    fanout: &mut Vec<u32>,
    work_stats: &mut SearchWork,
) -> Vec<Candidate> {
    let n = work.ncols();
    let mut queue = CandidateQueue::new(work.nrows(), cfg.hopefuls);
    for (pi, p) in parents.iter().enumerate() {
        let start = p.members.last().map_or(0, |&j| j as usize + 1);
        if start >= n {
            continue;
        }
        let bar = queue.bar();
        if p.weight < bar {
            work_stats.pairs_pruned += (n - start) as u64;
            continue;
        }
        let end = start + suffix_max[start..].partition_point(|&sm| sm >= bar);
        work_stats.pairs_pruned += (n - end) as u64;
        fanout.resize(fanout.len().max(end - start), 0);
        let weights = &mut fanout[..end - start];
        and_weight_each_into(&p.words, work.column_range(start..end), weights);
        for (j, &w) in (start..end).zip(weights.iter()) {
            queue.offer(w, pi as u32, j as u32);
        }
        work_stats.pairs_scanned += (end - start) as u64;
    }
    queue.ranked()
}

/// Runs the greedy core search on `work` (a column subset of the original
/// matrix). Returns the best product per iteration. `fanout` is the
/// fan-out buffer, reused across iterations and calls.
fn product_search(
    work: &ColMatrix,
    cfg: &SearchConfig,
    fanout: &mut Vec<u32>,
    work_stats: &mut SearchWork,
) -> (Vec<u32>, Vec<Product>) {
    let n = work.ncols();
    let mut curve = Vec::new();
    let mut best_per_iter: Vec<Product> = Vec::new();
    if n < 2 || cfg.hopefuls == 0 {
        return (curve, best_per_iter);
    }
    // Per-column weight upper bounds for the conservative break: a
    // product with column j weighs at most w[j], and any candidate
    // drawn from columns ≥ j weighs at most suffix_max[j]. (On the
    // refined path the columns arrive weight-sorted so suffix_max[j]
    // == w[j]; the naive path is unsorted and needs the real suffix.)
    let w = work.col_weights();
    let mut suffix_max = w.clone();
    for j in (0..n - 1).rev() {
        suffix_max[j] = suffix_max[j].max(suffix_max[j + 1]);
    }

    // The search starts from the single columns, so its first iteration
    // ranks all 2-products; each later one extends the hopefuls the last
    // one kept.
    let mut hopefuls: Vec<Product> = (0..n)
        .map(|j| Product {
            words: work.column(j).to_vec(),
            weight: w[j],
            members: vec![j as u32],
        })
        .collect();
    for _ in 0..cfg.max_iterations.max(1) {
        hopefuls = fan_out(work, cfg, &suffix_max, &hopefuls, fanout, work_stats)
            .into_iter()
            .map(|(weight, pi, j)| {
                let mut next = hopefuls[pi as usize].clone();
                and_assign(&mut next.words, work.column(j as usize));
                next.weight = weight;
                next.members.push(j);
                next
            })
            .collect();
        let Some(best) = hopefuls.first() else {
            break;
        };
        curve.push(best.weight);
        best_per_iter.push(best.clone());
        // Early exit: once the curve shows a plateau followed by a dive we
        // already have everything the termination procedure needs.
        let dived = stop_point(&curve, cfg.termination).is_some_and(|stop| curve.len() - stop > 3);
        if best.weight == 0 || dived {
            break;
        }
    }
    (curve, best_per_iter)
}

/// Iterated multi-pattern detection (the Section II-D layering for the
/// aligned case): run the refined search, remove the witness columns of
/// each found pattern, and repeat on the remaining columns until nothing
/// non-natural is left or `max_patterns` are found.
///
/// Distinct contents occupy distinct column sets (two different payload
/// streams hash to different indices with overwhelming probability), so
/// column removal cleanly peels one content at a time — including weaker
/// patterns initially shadowed by a dominant one.
pub fn refined_detect_multi(
    matrix: &ColMatrix,
    cfg: &SearchConfig,
    max_patterns: usize,
) -> Vec<AlignedDetection> {
    let mut remaining: Vec<usize> = (0..matrix.ncols()).collect();
    let mut found = Vec::new();
    for _ in 0..max_patterns {
        if remaining.len() < 2 {
            break;
        }
        let work = matrix.select_columns(&remaining);
        let mut det = refined_detect(&work, cfg);
        if !det.found {
            break;
        }
        // Map work-matrix column ids back to the original matrix.
        det.cols = det.cols.iter().map(|&c| remaining[c]).collect();
        det.core_cols = det.core_cols.iter().map(|&c| remaining[c]).collect();
        let taken: std::collections::HashSet<usize> = det.cols.iter().copied().collect();
        remaining.retain(|c| !taken.contains(c));
        found.push(det);
    }
    found
}

/// The naive algorithm (Figure 5): product search over the whole matrix,
/// no screening, no expansion sweep.
pub fn naive_detect(matrix: &ColMatrix, cfg: &SearchConfig) -> AlignedDetection {
    let (curve, core) = find_core(matrix, cfg, &mut Vec::new(), &mut SearchWork::default());
    let Some((stop, core)) = core else {
        return AlignedDetection::not_found(curve);
    };
    let cols: Vec<usize> = core.members.iter().map(|&k| k as usize).collect();
    let shape = (matrix.nrows(), matrix.ncols());
    conclude(shape, &core, cols.clone(), cols, curve, stop, cfg)
}

/// The refined algorithm (Figure 6) on a column-major matrix: the
/// offline door of experiments and tests, which hands the matrix's rows
/// to [`refined_detect_cached`].
pub fn refined_detect(matrix: &ColMatrix, cfg: &SearchConfig) -> AlignedDetection {
    let rows = matrix.row_bitmaps();
    refined_detect_cached(&rows, cfg, &mut SearchScratch::new()).0
}

/// The refined algorithm (Figure 6) on the stacked router bitmaps, one
/// row each, with every buffer drawn from `scratch` — the steady-state
/// epoch path: count every column's weight, screen the n′ heaviest, find
/// a core there, then sweep all columns with the core row vector.
/// Returns the detection, per-stage timings and the product search's
/// work accounting.
///
/// # Panics
/// Panics if the rows do not all share the same bit length.
pub fn refined_detect_cached<S: WordSource>(
    rows: &[S],
    cfg: &SearchConfig,
    scratch: &mut SearchScratch,
) -> (AlignedDetection, SearchTimings, SearchWork) {
    let SearchScratch {
        counts,
        order,
        work,
        fanout,
    } = scratch;
    let mut timings = SearchTimings::default();
    let mut work_stats = SearchWork::default();
    let mut lap = Instant::now();
    let mut split = || {
        std::mem::replace(&mut lap, Instant::now())
            .elapsed()
            .as_nanos() as u64
    };

    counts.count(rows, |_| true);
    timings.count_ns = split();
    screen(counts, cfg.n_prime, order);
    work.gather_from_rows(rows, order);
    timings.screen_ns = split();
    let (curve, core) = find_core(work, cfg, fanout, &mut work_stats);
    timings.core_ns = split();
    let Some((stop, core)) = core else {
        return (AlignedDetection::not_found(curve), timings, work_stats);
    };

    // Witness set: every column sharing ≥ weight(core) − γ ones with the
    // core row vector — a count over the core's rows alone. Each core
    // column holds all of them, so the core is among the survivors, and
    // they come out in ascending column order.
    let in_core = |r: usize| core.words[r / WORD_BITS] >> (r % WORD_BITS) & 1 == 1;
    counts.count(rows, in_core);
    let thresh = core.weight.saturating_sub(cfg.gamma);
    let cols: Vec<usize> = counts.iter_ge(thresh).collect();
    timings.expand_ns = split();

    let core_cols: Vec<usize> = core.members.iter().map(|&k| order[k as usize]).collect();
    let shape = (rows.len(), counts.ncols());
    let det = conclude(shape, &core, core_cols, cols, curve, stop, cfg);
    timings.verdict_ns = split();
    (det, timings, work_stats)
}

/// Fills `order` with the `n_prime` heaviest columns of `counts` (all of
/// them if there are fewer), sorted by `(weight desc, index asc)`.
///
/// A weight is at most `counts.rows()`, so ranking needs no comparisons
/// between columns: a binary search finds the cut weight w* — the
/// greatest t with `count_ge(t) ≥ n′` — every column heavier than w* is
/// kept, and of those that weigh exactly w* the first
/// `n′ − count(w > w*)`: the lowest indices, as the tie-break asks. Only
/// the survivors' weights are read, and only they are sorted.
pub fn screen(counts: &ColumnCounts, n_prime: usize, order: &mut Vec<usize>) {
    let n_prime = n_prime.min(counts.ncols());
    let (mut cut, mut hi) = (0, counts.rows() as u32);
    while cut < hi {
        let mid = cut + (hi - cut).div_ceil(2);
        if counts.count_ge(mid) >= n_prime {
            cut = mid;
        } else {
            hi = mid - 1;
        }
    }
    order.clear();
    order.extend(counts.iter_ge(cut + 1));
    let ties = counts.iter_ge(cut).filter(|&j| counts.at(j) == cut);
    order.extend(ties.take(n_prime - order.len()));
    // Both runs ascend in index and the ties weigh least, so a stable
    // sort by weight alone leaves equal weights in index order.
    order.sort_by_cached_key(|&j| Reverse(counts.at(j)));
}

/// Runs the product search on `work` and reads its curve: the weight
/// curve, and where the termination procedure stops the best product
/// (the core) of that iteration.
fn find_core(
    work: &ColMatrix,
    cfg: &SearchConfig,
    fanout: &mut Vec<u32>,
    work_stats: &mut SearchWork,
) -> (Vec<u32>, Option<(usize, Product)>) {
    let (curve, mut best) = product_search(work, cfg, fanout, work_stats);
    let core = stop_point(&curve, cfg.termination).map(|stop| (stop, best.swap_remove(stop)));
    (curve, core)
}

/// Verdict: is the `weight(core) × |cols|` witness non-naturally-occurring
/// in a matrix of `shape` = (rows, columns)?
fn conclude(
    shape: (usize, usize),
    core: &Product,
    core_cols: Vec<usize>,
    cols: Vec<usize>,
    weight_curve: Vec<u32>,
    stop: usize,
    cfg: &SearchConfig,
) -> AlignedDetection {
    let ln_p = ln_natural_occurrence(
        shape.0 as u64,
        shape.1 as u64,
        u64::from(core.weight),
        cols.len() as u64,
    );
    let found = ln_p <= cfg.epsilon.ln();
    let rows = iter_ones(&core.words).map(|r| r as u32);
    AlignedDetection {
        found,
        rows: if found { rows.collect() } else { Vec::new() },
        cols: if found { cols } else { Vec::new() },
        core_cols,
        weight_curve,
        stopped_at: Some(stop),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_bitmap::Bitmap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BinaryHeap;

    /// m×n Bernoulli(1/2) matrix with an optional planted a×b pattern.
    /// Returns (matrix, pattern_rows, pattern_cols).
    fn planted_matrix(
        rng: &mut StdRng,
        m: usize,
        n: usize,
        a: usize,
        b: usize,
    ) -> (ColMatrix, Vec<u32>, Vec<usize>) {
        let mut mat = ColMatrix::new(m, n);
        for r in 0..m {
            for c in 0..n {
                if rng.gen::<bool>() {
                    mat.set(r, c);
                }
            }
        }
        // Plant: first `a` rows × a random set of `b` columns (random rows
        // would be equivalent; fixed rows simplify assertions).
        let mut cols: Vec<usize> = (0..n).collect();
        use rand::seq::SliceRandom;
        cols.shuffle(rng);
        let pattern_cols: Vec<usize> = {
            let mut v = cols.into_iter().take(b).collect::<Vec<_>>();
            v.sort_unstable();
            v
        };
        for &c in &pattern_cols {
            for r in 0..a {
                mat.set(r, c);
            }
        }
        (mat, (0..a as u32).collect(), pattern_cols)
    }

    fn small_cfg() -> SearchConfig {
        SearchConfig {
            hopefuls: 200,
            max_iterations: 25,
            n_prime: 120,
            gamma: 2,
            epsilon: 1e-3,
            termination: TerminationConfig::default(),
        }
    }

    #[test]
    fn refined_finds_planted_pattern() {
        let mut r = StdRng::seed_from_u64(42);
        let (mat, rows, cols) = planted_matrix(&mut r, 96, 800, 30, 12);
        let det = refined_detect(&mat, &small_cfg());
        assert!(det.found, "pattern not found; curve {:?}", det.weight_curve);
        // Most detected rows are true pattern rows.
        let row_hits = det.rows.iter().filter(|r| rows.contains(r)).count();
        assert!(
            row_hits * 10 >= det.rows.len() * 8,
            "row precision too low: {row_hits}/{}",
            det.rows.len()
        );
        // The witness set recovers a good share of the pattern columns.
        let col_hits = det.cols.iter().filter(|c| cols.contains(c)).count();
        assert!(
            col_hits >= cols.len() / 2,
            "recovered only {col_hits}/{} pattern columns",
            cols.len()
        );
    }

    #[test]
    fn refined_rejects_pure_noise() {
        let mut r = StdRng::seed_from_u64(43);
        let (mat, _, _) = planted_matrix(&mut r, 96, 800, 0, 0);
        let det = refined_detect(&mat, &small_cfg());
        assert!(!det.found, "false positive on pure noise");
    }

    #[test]
    fn naive_finds_planted_pattern_small() {
        let mut r = StdRng::seed_from_u64(44);
        let (mat, _, cols) = planted_matrix(&mut r, 64, 150, 24, 10);
        let cfg = SearchConfig {
            hopefuls: 150,
            ..small_cfg()
        };
        let det = naive_detect(&mat, &cfg);
        assert!(
            det.found,
            "naive missed pattern; curve {:?}",
            det.weight_curve
        );
        let hits = det.cols.iter().filter(|c| cols.contains(c)).count();
        assert!(hits >= 5, "naive recovered {hits} pattern columns");
    }

    #[test]
    fn naive_rejects_pure_noise_small() {
        let mut r = StdRng::seed_from_u64(45);
        let (mat, _, _) = planted_matrix(&mut r, 64, 150, 0, 0);
        let det = naive_detect(&mat, &small_cfg());
        assert!(!det.found);
    }

    #[test]
    fn weight_curve_shape_dive_plateau() {
        // With a planted pattern the curve must contain a plateau.
        let mut r = StdRng::seed_from_u64(46);
        let (mat, _, _) = planted_matrix(&mut r, 96, 800, 30, 12);
        let det = refined_detect(&mat, &small_cfg());
        assert!(det.stopped_at.is_some());
        let stop = det.stopped_at.unwrap();
        assert!(stop >= 1, "plateau should take a few iterations");
        // First step is a dive: from ~m/4 two-product to deeper products.
        assert!(det.weight_curve[0] > det.weight_curve[stop]);
    }

    #[test]
    fn tiny_matrices_do_not_panic() {
        let cfg = small_cfg();
        let det = naive_detect(&ColMatrix::new(8, 0), &cfg);
        assert!(!det.found);
        let det = naive_detect(&ColMatrix::new(8, 1), &cfg);
        assert!(!det.found);
        let mut m = ColMatrix::new(2, 2);
        m.set(0, 0);
        m.set(0, 1);
        let det = naive_detect(&m, &cfg);
        assert!(!det.found, "a 1x2 'pattern' is naturally occurring");
    }

    #[test]
    fn multi_detection_separates_two_contents() {
        let mut r = StdRng::seed_from_u64(48);
        // Two disjoint patterns: rows 0..30 x 12 cols, rows 40..70 x 12
        // other cols.
        let m = 96;
        let n = 800;
        let mut mat = ColMatrix::new(m, n);
        for c in 0..n {
            for row in 0..m {
                if r.gen::<bool>() {
                    mat.set(row, c);
                }
            }
        }
        use rand::seq::SliceRandom;
        let mut cols: Vec<usize> = (0..n).collect();
        cols.shuffle(&mut r);
        let cols_a: Vec<usize> = cols[..12].to_vec();
        let cols_b: Vec<usize> = cols[12..24].to_vec();
        for &c in &cols_a {
            for row in 0..30 {
                mat.set(row, c);
            }
        }
        for &c in &cols_b {
            for row in 40..70 {
                mat.set(row, c);
            }
        }
        let dets = refined_detect_multi(&mat, &small_cfg(), 4);
        assert!(dets.len() >= 2, "found {} patterns, wanted 2", dets.len());
        // Each truth pattern should be the best match of some detection.
        let row_match = |det: &AlignedDetection, lo: u32, hi: u32| {
            let hits = det.rows.iter().filter(|&&x| x >= lo && x < hi).count();
            hits * 10 >= det.rows.len() * 8 && hits >= 20
        };
        assert!(
            dets.iter().any(|d| row_match(d, 0, 30)),
            "pattern A (rows 0..30) not separated"
        );
        assert!(
            dets.iter().any(|d| row_match(d, 40, 70)),
            "pattern B (rows 40..70) not separated"
        );
        // Witness columns must not overlap across the two reports.
        let all: Vec<usize> = dets.iter().flat_map(|d| d.cols.iter().copied()).collect();
        let distinct: std::collections::HashSet<usize> = all.iter().copied().collect();
        assert_eq!(all.len(), distinct.len(), "column sets overlap");
    }

    #[test]
    fn multi_detection_on_noise_is_empty() {
        let mut r = StdRng::seed_from_u64(49);
        let (mat, _, _) = planted_matrix(&mut r, 96, 600, 0, 0);
        assert!(refined_detect_multi(&mat, &small_cfg(), 3).is_empty());
    }

    #[test]
    fn expansion_recovers_out_of_core_columns() {
        // Plant a pattern wide enough that the screening keeps only part
        // of it; expansion must pull in the rest.
        let mut r = StdRng::seed_from_u64(47);
        let (mat, _, cols) = planted_matrix(&mut r, 96, 600, 32, 20);
        let cfg = SearchConfig {
            n_prime: 60, // tight screening: most pattern columns excluded
            ..small_cfg()
        };
        let det = refined_detect(&mat, &cfg);
        assert!(det.found);
        assert!(
            det.cols.len() > det.core_cols.len(),
            "expansion added nothing"
        );
        let hits = det.cols.iter().filter(|c| cols.contains(c)).count();
        assert!(
            hits >= 15,
            "expansion recovered only {hits}/{} columns",
            cols.len()
        );
    }

    #[test]
    fn cached_detect_matches_uncached_and_reuses_scratch() {
        let mut r = StdRng::seed_from_u64(52);
        let (mat, _, _) = planted_matrix(&mut r, 96, 800, 30, 12);
        let cfg = small_cfg();
        let plain = refined_detect(&mat, &cfg);
        let rows = mat.row_bitmaps();
        let mut scratch = SearchScratch::new();
        let (cached, timings, _) = refined_detect_cached(&rows, &cfg, &mut scratch);
        assert_same_detection(&cached, &plain, "cached");
        assert!(timings.count_ns > 0, "the count pass must be timed");
        assert!(timings.core_ns > 0, "core search must be timed");
        // A second epoch through the same scratch must not regrow the
        // counting or screening buffers.
        let warm = scratch.capacities();
        assert!(warm[0] > 0, "the count planes never materialised");
        let (again, _, _) = refined_detect_cached(&rows, &cfg, &mut scratch);
        assert_eq!(again.cols, plain.cols);
        assert_eq!(scratch.capacities(), warm);
    }

    /// The screen this crate ran before it counted: partition the n′
    /// smallest keys of `(weight desc, index asc)` to the front, sort them.
    fn screen_reference(weights: &[u32], n_prime: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        let n_prime = n_prime.min(order.len());
        if n_prime < order.len() {
            order.select_nth_unstable_by_key(n_prime, |&j| (Reverse(weights[j]), j));
            order.truncate(n_prime);
        }
        order.sort_unstable_by_key(|&j| (Reverse(weights[j]), j));
        order
    }

    /// `nrows` rows of `weights.len()` bits whose column `j` holds
    /// `weights[j]` ones, on randomly chosen rows.
    fn rows_with_weights(r: &mut StdRng, nrows: usize, weights: &[u32]) -> Vec<Bitmap> {
        use rand::seq::SliceRandom;
        let mut rows = vec![Bitmap::new(weights.len()); nrows];
        let mut pick: Vec<usize> = (0..nrows).collect();
        for (j, &w) in weights.iter().enumerate() {
            pick.shuffle(r);
            for &row in &pick[..w as usize] {
                rows[row].set(j);
            }
        }
        rows
    }

    #[test]
    fn counting_screen_equals_select_nth_reference() {
        let mut r = StdRng::seed_from_u64(54);
        let mut counts = ColumnCounts::default();
        let mut order = Vec::new();
        for nrows in [1usize, 2, 24, 64, 130] {
            // 8,300 columns: more than one counting block.
            for n in [1usize, 2, 7, 300, 1_001, 8_300] {
                // Few distinct weights, so the cut always lands inside a
                // run of ties; every third matrix also piles most columns
                // onto one weight, the sparse-epoch shape, and the last
                // round makes all weights equal — ties decide every pick.
                for round in 0..7 {
                    let span = r.gen_range(1..=nrows.min(4)) as u32;
                    let base = r.gen_range(0..=nrows as u32 - span);
                    let weights: Vec<u32> = (0..n)
                        .map(|_| {
                            if round == 6 || round % 3 == 0 && r.gen_range(0..10) > 0 {
                                base
                            } else {
                                base + r.gen_range(0..=span)
                            }
                        })
                        .collect();
                    counts.count(&rows_with_weights(&mut r, nrows, &weights), |_| true);
                    for n_prime in [0, 1, n - 1, n, n + 5] {
                        screen(&counts, n_prime, &mut order);
                        assert_eq!(
                            order,
                            screen_reference(&weights, n_prime),
                            "nrows {nrows}, n {n}, n_prime {n_prime}, weights {weights:?}"
                        );
                    }
                }
            }
        }
    }

    /// The sweep's survivors are the columns whose AND with the core
    /// weighs at least the threshold — every real column at threshold 0,
    /// and never a phantom past a ragged tail.
    #[test]
    fn sweep_survivors_equal_per_column_and_weights() {
        use dcs_bitmap::words::and_weight;
        let mut r = StdRng::seed_from_u64(58);
        let mut counts = ColumnCounts::default();
        for (m, n) in [(1usize, 1usize), (24, 200), (70, 513), (130, 8_300)] {
            let (mat, _, _) = planted_matrix(&mut r, m, n, 0, 0);
            let rows = mat.row_bitmaps();
            let core = Bitmap::from_indices(m, (0..m).filter(|_| r.gen_range(0..3) > 0));
            counts.count(&rows, |row| core.get(row));
            for thresh in 0..=core.weight() + 1 {
                let want: Vec<usize> = (0..n)
                    .filter(|&j| and_weight(core.words(), mat.column(j)) >= thresh)
                    .collect();
                let got: Vec<usize> = counts.iter_ge(thresh).collect();
                assert_eq!(got, want, "{m} x {n}, thresh {thresh}");
            }
        }
    }

    /// The hopefuls list this crate kept before it bucketed by weight: a
    /// bounded min-heap comparing the full `(weight, parent, column)`
    /// tuple, whose retained set is a canonical function of the candidate
    /// multiset for any offer order.
    type CandidateHeap = BinaryHeap<Reverse<Candidate>>;

    fn heap_bar(heap: &CandidateHeap, cap: usize) -> u32 {
        if heap.len() == cap {
            heap.peek().map_or(0, |Reverse((w, _, _))| *w)
        } else {
            0
        }
    }

    fn push_bounded(heap: &mut CandidateHeap, cap: usize, item: Candidate) {
        if cap == 0 {
            return;
        }
        if heap.len() < cap {
            heap.push(Reverse(item));
        } else if let Some(Reverse(min)) = heap.peek() {
            if item > *min {
                heap.pop();
                heap.push(Reverse(item));
            }
        }
    }

    fn heap_ranked(heap: CandidateHeap) -> Vec<Candidate> {
        let mut ranked: Vec<Candidate> = heap
            .into_sorted_vec()
            .into_iter()
            .map(|Reverse(c)| c)
            .collect();
        ranked.sort_by_key(|&(w, _, _)| Reverse(w));
        ranked
    }

    /// Offers in ascending `(parent, column)` order whose weights take at
    /// most four values in `0..=nrows`, so most of them tie at the bar.
    fn offer_stream(r: &mut StdRng, nrows: usize) -> Vec<Candidate> {
        let span = r.gen_range(0..=nrows.min(3)) as u32;
        let base = r.gen_range(0..=nrows as u32 - span);
        let mut offers = Vec::new();
        for parent in 0..r.gen_range(1..40u32) {
            for column in parent + 1..parent + 1 + r.gen_range(0..40u32) {
                if r.gen_range(0..4) > 0 {
                    offers.push((base + r.gen_range(0..=span), parent, column));
                }
            }
        }
        offers
    }

    #[test]
    fn bucket_queue_equals_bounded_heap_after_every_offer() {
        let mut r = StdRng::seed_from_u64(55);
        for nrows in [1usize, 2, 12, 24, 130] {
            for cap in [0usize, 1, 2, 7, 250] {
                for _ in 0..8 {
                    let mut queue = CandidateQueue::new(nrows, cap);
                    let mut heap = CandidateHeap::new();
                    for (w, parent, column) in offer_stream(&mut r, nrows) {
                        queue.offer(w, parent, column);
                        push_bounded(&mut heap, cap, (w, parent, column));
                        assert_eq!(
                            queue.bar(),
                            heap_bar(&heap, cap),
                            "nrows {nrows}, cap {cap}, after {:?}",
                            (w, parent, column)
                        );
                    }
                    assert_eq!(
                        queue.ranked(),
                        heap_ranked(heap),
                        "nrows {nrows}, cap {cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_hopefuls_list_of_zero_or_one_does_not_panic() {
        let mut r = StdRng::seed_from_u64(57);
        let (mat, _, _) = planted_matrix(&mut r, 64, 150, 24, 10);
        for detect in [refined_detect, naive_detect] {
            let none = detect(
                &mat,
                &SearchConfig {
                    hopefuls: 0,
                    ..small_cfg()
                },
            );
            assert!(!none.found && none.weight_curve.is_empty() && none.stopped_at.is_none());
            let one = detect(
                &mat,
                &SearchConfig {
                    hopefuls: 1,
                    ..small_cfg()
                },
            );
            // One hopeful is a pure greedy walk from the heaviest pair.
            assert!(one.weight_curve.len() > 1, "{:?}", one.weight_curve);
            assert!(one.weight_curve.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    fn assert_same_detection(got: &AlignedDetection, want: &AlignedDetection, what: &str) {
        assert_eq!(got.found, want.found, "{what}: found differs");
        assert_eq!(got.rows, want.rows, "{what}: rows differ");
        assert_eq!(got.cols, want.cols, "{what}: cols differ");
        assert_eq!(got.core_cols, want.core_cols, "{what}: core differs");
        assert_eq!(
            got.weight_curve, want.weight_curve,
            "{what}: weight curve differs"
        );
        assert_eq!(
            got.stopped_at, want.stopped_at,
            "{what}: termination differs"
        );
    }
}
