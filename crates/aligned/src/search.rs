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
//!   the paper's priority queue of size O(n) — by a top-H selection
//!   that compares no two of them: a product weight takes one of
//!   `nrows + 1` values, so the selector takes a parent's whole fan-out
//!   run at once, logs the weights at or above the bar (16 at a time,
//!   branch-free), counts them into a histogram that raises the bar
//!   between runs, and ranks the survivors by a counting sort;
//! * the hopefuls live in two flat generations — row words, weights and
//!   members, one stride each — which swap every iteration, so an
//!   iteration allocates nothing but its best product;
//! * the refined search works on the rows it is given (owned bitmaps or
//!   borrowed wire views) and never transposes them: one pass counts
//!   every column's weight into bit-sliced counters
//!   ([`ColumnCounts`]: plane k = bit k of 64 columns' counts a word);
//! * the heaviest-column screen compares no two columns until the n′
//!   survivors are sorted: a weight takes one of `nrows + 1` values, so
//!   a binary search over the threshold — each probe a sum of the
//!   counts' per-block table, no plane read — finds the cut weight, and
//!   only the n′ columns at or above it are decoded (the comparator
//!   runs only on blocks that hold one) and gathered, bit by bit from
//!   the rows, into the column-major working matrix;
//! * the expansion sweep is the same count over only the core's rows,
//!   thresholded at `weight(core) − γ`;
//! * the per-iteration fan-out of each hopeful over the screened columns
//!   after it (iteration 1 fans out the single columns, i.e. all
//!   2-products) goes through one batched AND-popcount kernel over the
//!   working matrix's contiguous column store ([`and_weight_each_into`]);
//! * the whole search runs on the caller's thread. The selector sees
//!   the runs in ascending `(parent, column)` order, so its log stays
//!   sorted, ties at the bar resolve to the last logged, and the ranked
//!   list is the canonical order of the full `(weight, parent, column)`
//!   tuple. Each parent's run is pruned against the bar the runs before
//!   it left — the bar of a bounded heap fed the same candidates — so
//!   the scanned/pruned split is a function of the input.

use crate::termination::{stop_point, TerminationConfig};
use crate::thresholds::ln_natural_occurrence;
use dcs_bitmap::words::{and_weight_each_into, iter_ones, words_for, WORD_BITS};
use dcs_bitmap::{ColMatrix, ColumnCounts, WordSource};
use std::cmp::Reverse;
use std::time::Instant;

/// Reusable buffers for repeated refined detections (one per epoch).
///
/// Holds everything [`refined_detect_cached`] needs between the row
/// stack and the detection report: the column-count planes, the screened
/// column order, the screened working matrix, and the product search's
/// hopefuls, fan-out and top-H buffers. All of it is allocated on the
/// first epoch and reused — steady-state detection allocates only the
/// weight curve and each iteration's best product.
#[derive(Debug)]
pub struct SearchScratch {
    /// Per-column counts: over every row for the screen, then over the
    /// core's rows for the expansion sweep.
    counts: ColumnCounts,
    /// Column indices ranked by descending weight (truncated to n′).
    order: Vec<usize>,
    /// The screened working matrix (the n′ heaviest columns).
    work: ColMatrix,
    /// The product search's buffers.
    hopefuls: Hopefuls,
}

impl Default for SearchScratch {
    fn default() -> Self {
        SearchScratch {
            counts: ColumnCounts::default(),
            order: Vec::new(),
            work: ColMatrix::new(0, 0),
            hopefuls: Hopefuls::default(),
        }
    }
}

impl SearchScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Capacities of the internal buffers (count-plane words, column
    /// order, screened matrix words, then the product search's: both
    /// generations' words, weights and members, suffix maxima, fan-out,
    /// top-H log, histogram and ranked slots) — diagnostic hook for
    /// steady-state reuse tests: across epochs of equal shape these must
    /// not grow.
    pub fn capacities(&self) -> [usize; 11] {
        let [words, weights, members, suffix, fanout, log, hist, ranked] =
            self.hopefuls.capacities();
        [
            self.counts.word_capacity(),
            self.order.capacity(),
            self.work.word_capacity(),
            words,
            weights,
            members,
            suffix,
            fanout,
            log,
            hist,
            ranked,
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

/// The non-natural level ε of both verdicts: the aligned witness, and
/// the unaligned test graph's largest component, each alarms on what a
/// background matrix produces with probability at most ε (the paper's
/// 10⁻³, Sections III–V).
pub const EPSILON: f64 = 1e-3;

/// Tuning parameters of the greedy search.
#[derive(Debug, Clone)]
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

/// A k-product: the best of one iteration, which the termination
/// procedure and the verdict read.
#[derive(Debug, Clone)]
struct Product {
    words: Vec<u64>,
    weight: u32,
    /// Member columns, ascending (indices into the *working* matrix).
    members: Vec<u32>,
}

/// A candidate product: `(weight, parent, column)`, compared as a tuple.
type Candidate = (u32, u32, u32);

/// Weights [`TopH::offer_run`] filters against the bar at a time.
const LANES: usize = 16;

/// The `cap` greatest candidates of one fan-out, taken one parent's
/// whole run at a time.
///
/// Runs must arrive in ascending `(parent, column)` order (the fan-out
/// walks its parents upwards, and each run's columns are consecutive).
/// A run's keepers — every weight at or above the bar — are appended to
/// a log, which therefore stays in that order, and counted into a
/// histogram of weights. Between runs the bar rises to the greatest `w`
/// with `count(≥ w) ≥ cap`: the weight of the `cap`-th greatest
/// candidate, the bar a bounded heap of the candidates offered so far
/// would show. A log past `2·cap` is cut back to the `cap` greatest:
/// every weight above the bar and the *last* ties at it, the greatest in
/// `(parent, column)`.
#[derive(Debug, Default)]
struct TopH {
    cap: usize,
    /// The weight below which no candidate can enter: once `cap` are
    /// held, a weight *strictly* below the lightest loses to it for any
    /// tie-break — while an equal weight may still win.
    bar: u32,
    /// Candidates offered at or above the bar.
    above: usize,
    /// `hist[w]`: candidates of weight `w` logged; after [`TopH::ranked`],
    /// the counting sort's slots.
    hist: Vec<usize>,
    /// `2·cap` slots plus one run's, of which the first `len` are live.
    log: Vec<Candidate>,
    len: usize,
    /// The kept candidates, greatest first.
    ranked: Vec<Candidate>,
}

impl TopH {
    /// Empties the selector for a fan-out over products of `nrows` rows
    /// whose runs are shorter than `max_run`.
    fn reset(&mut self, nrows: usize, cap: usize, max_run: usize) {
        self.cap = cap;
        self.bar = 0;
        self.above = 0;
        self.hist.clear();
        self.hist.resize(nrows + 1, 0);
        self.log.resize(2 * cap + max_run, (0, 0, 0));
        self.len = 0;
        self.ranked.clear();
        self.ranked.reserve_exact(cap);
    }

    /// Offers candidate `(weights[k], parent, start + k)` for every `k`.
    fn offer_run(&mut self, parent: u32, start: u32, weights: &[u32]) {
        if self.cap == 0 {
            return;
        }
        debug_assert!(
            self.log[..self.len]
                .last()
                .is_none_or(|&(_, p, c)| (p, c) < (parent, start)),
            "runs must ascend in (parent, column)"
        );
        let fresh = self.len;
        let mut chunks = weights.chunks_exact(LANES);
        let mut column = start;
        for chunk in chunks.by_ref() {
            self.log_chunk(parent, column, chunk);
            column += LANES as u32;
        }
        self.log_chunk(parent, column, chunks.remainder());
        for &(w, ..) in &self.log[fresh..self.len] {
            self.hist[w as usize] += 1;
        }
        self.above += self.len - fresh;
        while self.above - self.hist[self.bar as usize] >= self.cap {
            self.above -= self.hist[self.bar as usize];
            self.bar += 1;
        }
        if self.len > 2 * self.cap {
            self.compact();
        }
    }

    /// Logs the weights of `chunk` at or above the bar. A chunk with none
    /// costs one OR-reduce; one with some writes every slot, branch-free,
    /// and advances the log only past a keeper.
    #[inline(always)]
    fn log_chunk(&mut self, parent: u32, start: u32, chunk: &[u32]) {
        let bar = self.bar;
        if !chunk.iter().fold(false, |any, &w| any | (w >= bar)) {
            return;
        }
        let mut len = self.len;
        for (&w, column) in chunk.iter().zip(start..) {
            self.log[len] = (w, parent, column);
            len += usize::from(w >= bar);
        }
        self.len = len;
    }

    /// Cuts the log back to the `cap` greatest candidates, in order.
    fn compact(&mut self) {
        let bar = self.bar;
        let heavier = self.above - self.hist[bar as usize];
        let ties = self.log[..self.len].iter().filter(|c| c.0 == bar).count();
        let mut drop = ties - (self.cap - heavier);
        let mut kept = 0;
        for i in 0..self.len {
            let (w, ..) = self.log[i];
            if w < bar || w == bar && drop > 0 {
                drop -= usize::from(w == bar);
                continue;
            }
            self.log[kept] = self.log[i];
            kept += 1;
        }
        debug_assert_eq!(kept, self.cap);
        self.len = kept;
    }

    /// The kept candidates, greatest first, by a counting sort: heaviest
    /// weight first and, within one, the log read backwards.
    fn ranked(&mut self) -> &[Candidate] {
        self.ranked.clear();
        if self.cap == 0 {
            return &self.ranked;
        }
        let bar = self.bar as usize;
        let heavier = self.above - self.hist[bar];
        let end = heavier + self.hist[bar].min(self.cap - heavier);
        let mut slot = 0;
        for w in (bar + 1..self.hist.len()).rev() {
            slot += std::mem::replace(&mut self.hist[w], slot);
        }
        self.hist[bar] = heavier;
        self.ranked.resize(end, (0, 0, 0));
        for &candidate in self.log[..self.len].iter().rev() {
            let w = candidate.0 as usize;
            if w < bar || w == bar && self.hist[bar] == end {
                continue;
            }
            self.ranked[self.hist[w]] = candidate;
            self.hist[w] += 1;
        }
        &self.ranked
    }
}

/// One iteration's hopefuls, laid out flat: product `i` has the row
/// words `words[i·wpc..][..wpc]`, the weight `weights[i]` and the
/// ascending member columns `members[i·order..][..order]`.
#[derive(Debug, Default)]
struct Generation {
    /// Words per product (per working-matrix column).
    wpc: usize,
    /// Columns a product ANDs together.
    order: usize,
    words: Vec<u64>,
    weights: Vec<u32>,
    members: Vec<u32>,
}

impl Generation {
    fn reset(&mut self, wpc: usize, order: usize) {
        self.wpc = wpc;
        self.order = order;
        self.words.clear();
        self.weights.clear();
        self.members.clear();
    }

    fn len(&self) -> usize {
        self.weights.len()
    }

    fn words(&self, i: usize) -> &[u64] {
        &self.words[i * self.wpc..(i + 1) * self.wpc]
    }

    fn members(&self, i: usize) -> &[u32] {
        &self.members[i * self.order..(i + 1) * self.order]
    }

    /// Appends product `i` of `parents` ANDed with column `j` (`column`
    /// its words), of weight `weight`.
    fn push_child(&mut self, parents: &Generation, i: usize, j: u32, column: &[u64], weight: u32) {
        let words = parents.words(i).iter().zip(column);
        self.words.extend(words.map(|(a, b)| a & b));
        self.weights.push(weight);
        self.members.extend_from_slice(parents.members(i));
        self.members.push(j);
    }

    fn product(&self, i: usize) -> Product {
        Product {
            words: self.words(i).to_vec(),
            weight: self.weights[i],
            members: self.members(i).to_vec(),
        }
    }
}

/// The product search's buffers, reserved from the search's shape — the
/// screened columns, their words, H and the iteration budget — so that
/// their capacities never depend on the data.
#[derive(Debug, Default)]
struct Hopefuls {
    /// The generation an iteration fans out, and the one it fills; they
    /// swap each iteration. The first holds the single columns.
    parents: Generation,
    children: Generation,
    /// `suffix_max[j]`: the heaviest column from `j` on.
    suffix_max: Vec<u32>,
    /// Popcounts of one parent's fan-out run.
    fanout: Vec<u32>,
    top: TopH,
}

impl Hopefuls {
    /// Capacities: generation words, weights and members (both
    /// generations together), suffix maxima, fan-out slots, log slots,
    /// histogram slots and ranked slots.
    fn capacities(&self) -> [usize; 8] {
        let (a, b) = (&self.parents, &self.children);
        [
            a.words.capacity() + b.words.capacity(),
            a.weights.capacity() + b.weights.capacity(),
            a.members.capacity() + b.members.capacity(),
            self.suffix_max.capacity(),
            self.fanout.capacity(),
            self.top.log.capacity(),
            self.top.hist.capacity(),
            self.top.ranked.capacity(),
        ]
    }

    /// One iteration of the product search: every parent is ANDed with
    /// every column after its largest member, and the `cfg.hopefuls`
    /// heaviest `(weight, parent index, column)` are left in `top`.
    ///
    /// Each parent's run is cut short by the conservative weight-bound
    /// break: a candidate whose `min(parent weight, max w_remaining)`
    /// upper bound sits strictly below the bar the runs before it left
    /// can never enter and is skipped unscanned. `work_stats` accumulates
    /// the scanned/pruned candidate counts.
    fn fan_out(&mut self, work: &ColMatrix, cfg: &SearchConfig, work_stats: &mut SearchWork) {
        let n = work.ncols();
        let parents = &self.parents;
        self.top.reset(work.nrows(), cfg.hopefuls, n);
        for pi in 0..parents.len() {
            let start = parents.members(pi).last().map_or(0, |&j| j as usize + 1);
            if start >= n {
                continue;
            }
            let bar = self.top.bar;
            if parents.weights[pi] < bar {
                work_stats.pairs_pruned += (n - start) as u64;
                continue;
            }
            let end = start + self.suffix_max[start..].partition_point(|&sm| sm >= bar);
            work_stats.pairs_pruned += (n - end) as u64;
            let weights = &mut self.fanout[..end - start];
            and_weight_each_into(parents.words(pi), work.column_range(start..end), weights);
            self.top.offer_run(pi as u32, start as u32, weights);
            work_stats.pairs_scanned += (end - start) as u64;
        }
    }
}

/// Runs the greedy core search on `work` (a column subset of the original
/// matrix) in the buffers of `hs`. Returns the best product per iteration.
fn product_search(
    work: &ColMatrix,
    cfg: &SearchConfig,
    hs: &mut Hopefuls,
    work_stats: &mut SearchWork,
) -> (Vec<u32>, Vec<Product>) {
    let n = work.ncols();
    let mut curve = Vec::new();
    let mut best_per_iter: Vec<Product> = Vec::new();
    if n < 2 || cfg.hopefuls == 0 {
        return (curve, best_per_iter);
    }
    let (h, wpc) = (cfg.hopefuls, words_for(work.nrows()));
    let iterations = cfg.max_iterations.max(1);
    for g in [&mut hs.parents, &mut hs.children] {
        g.reset(wpc, 1);
        g.words.reserve_exact(n.max(h) * wpc);
        g.weights.reserve_exact(n.max(h));
        g.members.reserve_exact(n.max(h * (iterations + 1)));
    }
    hs.fanout.resize(n, 0);

    // The search starts from the single columns, so its first iteration
    // ranks all 2-products; each later one extends the hopefuls the last
    // one kept.
    let singles = &mut hs.parents;
    singles.words.extend_from_slice(work.column_range(0..n));
    singles.weights.extend((0..n).map(|j| work.col_weight(j)));
    singles.members.extend(0..n as u32);

    // Per-column weight upper bounds for the conservative break: a
    // product with column j weighs at most w[j], and any candidate
    // drawn from columns ≥ j weighs at most suffix_max[j]. (On the
    // refined path the columns arrive weight-sorted so suffix_max[j]
    // == w[j]; the naive path is unsorted and needs the real suffix.)
    hs.suffix_max.clear();
    hs.suffix_max.extend_from_slice(&singles.weights);
    for j in (0..n - 1).rev() {
        hs.suffix_max[j] = hs.suffix_max[j].max(hs.suffix_max[j + 1]);
    }

    for _ in 0..iterations {
        hs.fan_out(work, cfg, work_stats);
        let Hopefuls {
            parents,
            children,
            top,
            ..
        } = &mut *hs;
        children.reset(wpc, parents.order + 1);
        for &(weight, pi, j) in top.ranked() {
            let column = work.column(j as usize);
            children.push_child(parents, pi as usize, j, column, weight);
        }
        std::mem::swap(parents, children);
        if parents.len() == 0 {
            break;
        }
        let best = parents.product(0);
        curve.push(best.weight);
        // Early exit: once the curve shows a plateau followed by a dive we
        // already have everything the termination procedure needs.
        let dived = stop_point(&curve, cfg.termination).is_some_and(|stop| curve.len() - stop > 3);
        let done = best.weight == 0 || dived;
        best_per_iter.push(best);
        if done {
            break;
        }
    }
    (curve, best_per_iter)
}

/// The naive algorithm (Figure 5): product search over the whole matrix,
/// no screening, no expansion sweep.
pub fn naive_detect(matrix: &ColMatrix, cfg: &SearchConfig) -> AlignedDetection {
    let mut hopefuls = Hopefuls::default();
    let (curve, core) = find_core(matrix, cfg, &mut hopefuls, &mut SearchWork::default());
    let Some((stop, core)) = core else {
        return AlignedDetection::not_found(curve);
    };
    let cols: Vec<usize> = core.members.iter().map(|&k| k as usize).collect();
    let shape = (matrix.nrows(), matrix.ncols());
    conclude(shape, &core, cols.clone(), cols, curve, stop)
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
        hopefuls,
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
    let (curve, core) = find_core(work, cfg, hopefuls, &mut work_stats);
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
    let det = conclude(shape, &core, core_cols, cols, curve, stop);
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
/// `n′ − count(w > w*)`: the lowest indices, as the tie-break asks. The
/// search reads only the counts' per-block table, the survivors are
/// found on the blocks that hold one, and only they are sorted.
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
    order.extend(counts.iter_eq(cut).take(n_prime - order.len()));
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
    hopefuls: &mut Hopefuls,
    work_stats: &mut SearchWork,
) -> (Vec<u32>, Option<(usize, Product)>) {
    let (curve, mut best) = product_search(work, cfg, hopefuls, work_stats);
    let core = stop_point(&curve, cfg.termination).map(|stop| (stop, best.swap_remove(stop)));
    (curve, core)
}

/// Verdict: is the `weight(core) × |cols|` witness non-naturally-occurring
/// at level [`EPSILON`] in a matrix of `shape` = (rows, columns)?
fn conclude(
    shape: (usize, usize),
    core: &Product,
    core_cols: Vec<usize>,
    cols: Vec<usize>,
    weight_curve: Vec<u32>,
    stop: usize,
) -> AlignedDetection {
    let ln_p = ln_natural_occurrence(
        shape.0 as u64,
        shape.1 as u64,
        u64::from(core.weight),
        cols.len() as u64,
    );
    let found = ln_p <= EPSILON.ln();
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
        // counting, screening or search buffers.
        let warm = scratch.capacities();
        assert!(warm.iter().all(|&c| c > 0), "a buffer never materialised");
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
        // Wide, sparse stacks — `collect-mix`'s 2 rows × 4 Mbit at ≈ 0.07 %
        // fill with 30 columns common to both rows among them — where
        // whole 8,192-column counting blocks hold no column above the
        // cut, and an n′ past the nonzero columns, which ends in
        // zero-weight ties.
        for (nrows, n, ones) in [
            (2usize, 4 << 20, 2_900),
            (3, 70_000, 40),
            (24, 600_000, 900),
        ] {
            let mut rows = vec![Bitmap::new(n); nrows];
            let common: Vec<usize> = (0..30).map(|_| r.gen_range(0..n)).collect();
            for row in &mut rows {
                (0..ones).for_each(|_| _ = row.set(r.gen_range(0..n)));
                common.iter().for_each(|&j| _ = row.set(j));
            }
            let mut weights = vec![0u32; n];
            rows.iter()
                .flat_map(Bitmap::iter_ones)
                .for_each(|j| weights[j] += 1);
            let nonzero = weights.iter().filter(|&&w| w > 0).count();
            counts.count(&rows, |_| true);
            for n_prime in [1, 200, nonzero, nonzero + 5] {
                screen(&counts, n_prime, &mut order);
                let want = screen_reference(&weights, n_prime);
                assert_eq!(order, want, "nrows {nrows}, n {n}, n_prime {n_prime}");
                let cut = weights[*want.last().unwrap()];
                let empty_blocks = weights
                    .chunks(8_192)
                    .filter(|b| b.iter().all(|&w| w <= cut))
                    .count();
                assert!(
                    n_prime >= nonzero || empty_blocks > 0,
                    "nrows {nrows}, n {n}, n_prime {n_prime}: no block to skip"
                );
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

    /// The hopefuls list this crate kept before it selected by weight: a
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

    /// Fan-out runs in ascending `(parent, column)` order whose weights
    /// take at most four values in `0..=nrows`, so most of them tie at
    /// the bar. Some runs are all ties, some are marked `u32::MAX` for
    /// the caller to draw wholly below the bar it has reached, and some
    /// are longer than `2·cap`, so the log compacts inside them.
    fn offer_runs(r: &mut StdRng, nrows: usize, cap: usize) -> Vec<(u32, u32, Vec<u32>)> {
        let span = r.gen_range(0..=nrows.min(3)) as u32;
        let base = r.gen_range(0..=nrows as u32 - span);
        let mut runs = Vec::new();
        let mut parent = 0;
        for _ in 0..r.gen_range(1..40) {
            parent += r.gen_range(1..3u32);
            let start = parent + r.gen_range(1..4u32);
            let len = match r.gen_range(0..6) {
                0 => 2 * cap + r.gen_range(1..40usize),
                _ => r.gen_range(0..40),
            };
            let weights = match r.gen_range(0..4) {
                0 => vec![base + r.gen_range(0..=span); len],
                1 => vec![u32::MAX; len],
                _ => (0..len).map(|_| base + r.gen_range(0..=span)).collect(),
            };
            runs.push((parent, start, weights));
        }
        runs
    }

    #[test]
    fn top_h_equals_bounded_heap_after_every_run() {
        let mut r = StdRng::seed_from_u64(55);
        let mut top = TopH::default();
        for nrows in [1usize, 2, 3, 12, 24, 64, 130] {
            for cap in [0usize, 1, 2, 7, 250] {
                for _ in 0..8 {
                    top.reset(nrows, cap, 2 * cap + 40);
                    let mut heap = CandidateHeap::new();
                    for (parent, start, mut weights) in offer_runs(&mut r, nrows, cap) {
                        // `u32::MAX` marks a run drawn wholly below the bar.
                        let bar = heap_bar(&heap, cap);
                        for w in weights.iter_mut().filter(|w| **w == u32::MAX) {
                            *w = r.gen_range(0..bar.max(1));
                        }
                        top.offer_run(parent, start, &weights);
                        for (&w, column) in weights.iter().zip(start..) {
                            push_bounded(&mut heap, cap, (w, parent, column));
                        }
                        assert_eq!(
                            top.bar,
                            heap_bar(&heap, cap),
                            "nrows {nrows}, cap {cap}, after parent {parent}'s run {weights:?}"
                        );
                    }
                    assert_eq!(top.ranked(), heap_ranked(heap), "nrows {nrows}, cap {cap}");
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
