//! Column-major 0-1 matrix: the fused digest store of the aligned case.
//!
//! In the aligned case (Section III) the analysis centre stacks one n-bit
//! bitmap per router into an m×n matrix and then operates on *columns*:
//! the detection algorithms repeatedly AND column vectors (k-products) and
//! rank them by weight. Storing the matrix column-major makes a column a
//! contiguous `&[u64]` of `ceil(m/64)` words, so a product step over
//! thousands of columns is a linear scan.

use crate::words::{self, words_for, WORD_BITS};
use crate::{Bitmap, WordSource};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// In-place transpose of a 64×64 bit block.
///
/// On entry `a[r]` holds row `r` with column `c` at bit position `c`
/// (LSB-first, the crate's bit order); on exit `a[c]` holds column `c`
/// with row `r` at bit position `r`. Classic recursive block-swap
/// butterfly (Hacker's Delight §7-3, adapted to LSB-first): at block
/// size `j`, bits of the low rows' high-column halves swap with the
/// high rows' low-column halves.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    // Mask with bit p set iff p & j == 0 (the low-column half of each
    // 2j-wide block); recomputed as j halves.
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            // Skip k values with the j bit set: those are high rows,
            // already handled as partners.
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// A column-major bit matrix with `nrows` (routers) and `ncols` (hash
/// indices) — the aligned-case fused digest.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColMatrix {
    nrows: usize,
    ncols: usize,
    words_per_col: usize,
    data: Vec<u64>,
}

impl ColMatrix {
    /// Creates an all-zero matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        let words_per_col = words_for(nrows);
        ColMatrix {
            nrows,
            ncols,
            words_per_col,
            data: vec![0; words_per_col * ncols],
        }
    }

    /// Fuses one n-bit digest per router into an m×n column-major matrix.
    ///
    /// Row r of the result is router r's bitmap; the transpose runs at
    /// word level through [`ColMatrix::fuse_rows_into`].
    ///
    /// # Panics
    /// Panics if the bitmaps do not all share the same length.
    pub fn from_router_bitmaps(bitmaps: &[Bitmap]) -> Self {
        let mut m = ColMatrix::new(0, 0);
        let mut weights = Vec::new();
        m.fuse_rows_into(bitmaps, &mut weights);
        m
    }

    /// Reference implementation of [`ColMatrix::from_router_bitmaps`]:
    /// the original per-bit `iter_ones`/`set` transpose, kept only as
    /// the oracle the word-level path is tested against.
    #[cfg(test)]
    pub(crate) fn from_router_bitmaps_per_bit(bitmaps: &[Bitmap]) -> Self {
        let nrows = bitmaps.len();
        let ncols = bitmaps.first().map_or(0, Bitmap::len);
        let mut m = ColMatrix::new(nrows, ncols);
        for (r, bm) in bitmaps.iter().enumerate() {
            assert_eq!(bm.len(), ncols, "router digests must have equal width");
            for j in bm.iter_ones() {
                m.set(r, j);
            }
        }
        m
    }

    /// Reshapes to an all-zero `nrows × ncols` matrix, reusing the
    /// backing allocation when its capacity allows.
    fn reset(&mut self, nrows: usize, ncols: usize) {
        self.nrows = nrows;
        self.ncols = ncols;
        self.words_per_col = words_for(nrows);
        self.data.clear();
        self.data.resize(self.words_per_col * ncols, 0);
    }

    /// Fuses `rows` (one n-bit digest per router, owned bitmaps or
    /// borrowed wire views — anything [`WordSource`]) into this matrix,
    /// replacing its previous contents and reusing its allocation.
    ///
    /// The transpose runs on 64-row × 64-column word tiles: gather one
    /// word from each of 64 rows, `transpose64` the block in
    /// registers, scatter the 64 resulting row-words into their
    /// columns. Column weights are accumulated into `weights` during
    /// the scatter (`weights[c]` = number of 1s in column `c`), so
    /// callers get the screening pass's input for free — no separate
    /// whole-matrix popcount sweep.
    ///
    /// # Panics
    /// Panics if the rows do not all share the same bit length.
    pub fn fuse_rows_into<S: WordSource>(&mut self, rows: &[S], weights: &mut Vec<u32>) {
        let ncols = self.prepare_fuse(rows, weights);
        fuse_column_range(
            rows,
            ncols,
            self.words_per_col,
            0..ncols,
            &mut self.data,
            weights,
        );
    }

    /// [`ColMatrix::fuse_rows_into`] over independent column ranges,
    /// one per worker thread.
    ///
    /// The column space is cut into at most `workers` contiguous ranges
    /// aligned to 64-column word tiles ([`dcs_parallel::shard_columns`]),
    /// so a transpose tile never straddles two ranges and each worker
    /// writes a disjoint contiguous slice of the column-major store —
    /// the result is bit-identical to the sequential fuse for any worker
    /// count.
    ///
    /// # Panics
    /// Panics if the rows do not all share the same bit length.
    pub fn fuse_rows_into_sharded<S: WordSource + Sync>(
        &mut self,
        rows: &[S],
        weights: &mut Vec<u32>,
        workers: usize,
    ) {
        let ncols = self.prepare_fuse(rows, weights);
        let ranges = dcs_parallel::shard_columns(ncols, workers, WORD_BITS);
        if ranges.len() <= 1 {
            fuse_column_range(
                rows,
                ncols,
                self.words_per_col,
                0..ncols,
                &mut self.data,
                weights,
            );
            return;
        }
        let wpc = self.words_per_col;
        // Carve the backing store and the weight vector into per-shard
        // disjoint slices: column j's words are contiguous at
        // `j * wpc`, so shard [lo, hi) owns `data[lo*wpc..hi*wpc]`.
        let mut jobs = Vec::with_capacity(ranges.len());
        let mut data_rest: &mut [u64] = &mut self.data;
        let mut weights_rest: &mut [u32] = weights;
        for range in ranges {
            let cols = range.end - range.start;
            let (shard_data, rest) = data_rest.split_at_mut(cols * wpc);
            data_rest = rest;
            let (shard_weights, rest) = weights_rest.split_at_mut(cols);
            weights_rest = rest;
            jobs.push((range, shard_data, shard_weights));
        }
        dcs_parallel::run_jobs(jobs, workers, |(range, shard_data, shard_weights)| {
            fuse_column_range(rows, ncols, wpc, range, shard_data, shard_weights);
        });
    }

    /// Shared validation/reset prologue of the fuse entry points:
    /// checks row widths, reshapes the matrix, and zeroes `weights` to
    /// `ncols` entries. Returns `ncols`.
    fn prepare_fuse<S: WordSource>(&mut self, rows: &[S], weights: &mut Vec<u32>) -> usize {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, WordSource::bit_len);
        for r in rows {
            assert_eq!(r.bit_len(), ncols, "router digests must have equal width");
        }
        self.reset(nrows, ncols);
        weights.clear();
        weights.resize(ncols, 0);
        ncols
    }

    /// Number of rows (routers).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (hash indices).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Words per column in the backing store.
    #[inline]
    pub fn words_per_col(&self) -> usize {
        self.words_per_col
    }

    /// Sets the bit at (`row`, `col`).
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize) {
        assert!(row < self.nrows, "row {row} out of range {}", self.nrows);
        assert!(col < self.ncols, "col {col} out of range {}", self.ncols);
        self.data[col * self.words_per_col + row / WORD_BITS] |= 1u64 << (row % WORD_BITS);
    }

    /// Reads the bit at (`row`, `col`).
    ///
    /// # Panics
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.nrows, "row {row} out of range {}", self.nrows);
        self.column(col)[row / WORD_BITS] >> (row % WORD_BITS) & 1 == 1
    }

    /// Word slice of column `j` (an m-bit vector).
    ///
    /// # Panics
    /// Panics if `j >= ncols`.
    #[inline]
    pub fn column(&self, j: usize) -> &[u64] {
        assert!(j < self.ncols, "col {j} out of range {}", self.ncols);
        &self.data[j * self.words_per_col..(j + 1) * self.words_per_col]
    }

    /// Words of the contiguous columns `cols`, `words_per_col` apiece —
    /// for linear sweeps that would otherwise slice one column at a time.
    ///
    /// # Panics
    /// Panics if the range reaches past `ncols`.
    #[inline]
    pub fn column_range(&self, cols: Range<usize>) -> &[u64] {
        assert!(
            cols.end <= self.ncols,
            "cols {cols:?} out of range {}",
            self.ncols
        );
        &self.data[cols.start * self.words_per_col..cols.end * self.words_per_col]
    }

    /// Weight (number of 1's) of column `j` — how many routers saw a packet
    /// hashing to index `j`.
    #[inline]
    pub fn col_weight(&self, j: usize) -> u32 {
        words::weight(self.column(j))
    }

    /// Weights of all columns in one pass.
    pub fn col_weights(&self) -> Vec<u32> {
        (0..self.ncols).map(|j| self.col_weight(j)).collect()
    }

    /// Extracts the listed columns into a new matrix (used by the refined
    /// algorithm to materialise the n′ heaviest columns).
    ///
    /// Column `k` of the result is column `cols[k]` of `self`.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn select_columns(&self, cols: &[usize]) -> ColMatrix {
        let mut out = ColMatrix::new(0, 0);
        self.select_columns_into(cols, &mut out);
        out
    }

    /// [`ColMatrix::select_columns`] into a caller-provided matrix,
    /// reusing its allocation (the epoch scratch path).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn select_columns_into(&self, cols: &[usize], out: &mut ColMatrix) {
        out.nrows = self.nrows;
        out.ncols = cols.len();
        out.words_per_col = self.words_per_col;
        out.data.clear();
        out.data.reserve(self.words_per_col * cols.len());
        for &j in cols {
            out.data.extend_from_slice(self.column(j));
        }
    }

    /// Number of rows where columns `i` and `j` are both 1 (weight of the
    /// 2-product).
    #[inline]
    pub fn col_and_weight(&self, i: usize, j: usize) -> u32 {
        words::and_weight(self.column(i), self.column(j))
    }

    /// Approximate heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.data.len() * 8
    }

    /// Capacity of the backing word store — diagnostic hook for
    /// steady-state reuse tests (a reused matrix must not regrow).
    pub fn word_capacity(&self) -> usize {
        self.data.capacity()
    }
}

/// The word-tile transpose body of the fuse, restricted to columns
/// `col_range` of the full matrix.
///
/// `data` and `weights` are the *shard-local* slices: `data` holds
/// `(col_range.len()) * wpc` words starting at global column
/// `col_range.start`, `weights` one entry per shard column. The
/// transpose runs on 64-row × 64-column tiles: gather one word from
/// each of 64 rows, [`transpose64`] the block in registers, scatter the
/// 64 resulting column-words. Column weights accumulate during the
/// scatter, so callers get the screening pass's input for free.
///
/// `col_range.start` must be a multiple of 64 (shard boundaries align
/// to word tiles) so no tile straddles the shard edge.
fn fuse_column_range<S: WordSource>(
    rows: &[S],
    ncols: usize,
    wpc: usize,
    col_range: Range<usize>,
    data: &mut [u64],
    weights: &mut [u32],
) {
    debug_assert_eq!(col_range.start % WORD_BITS, 0);
    debug_assert!(col_range.end <= ncols);
    let nrows = rows.len();
    let cw_lo = col_range.start / WORD_BITS;
    let cw_hi = col_range.end.div_ceil(WORD_BITS);
    for rb in 0..wpc {
        let row0 = rb * WORD_BITS;
        let band = &rows[row0..(row0 + WORD_BITS).min(nrows)];
        for cw in cw_lo..cw_hi {
            let mut block = [0u64; WORD_BITS];
            let mut any = 0u64;
            for (i, r) in band.iter().enumerate() {
                let w = r.word(cw);
                block[i] = w;
                any |= w;
            }
            if any == 0 {
                // The matrix was reset to zero: nothing to scatter,
                // and the weights gain nothing.
                continue;
            }
            transpose64(&mut block);
            let c0 = cw * WORD_BITS;
            let cols_here = (col_range.end - c0).min(WORD_BITS);
            for (c, &w) in block[..cols_here].iter().enumerate() {
                let local = c0 + c - col_range.start;
                data[local * wpc + rb] = w;
                weights[local] += w.count_ones();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = ColMatrix::new(70, 5);
        m.set(69, 4);
        m.set(0, 0);
        assert!(m.get(69, 4));
        assert!(m.get(0, 0));
        assert!(!m.get(1, 0));
        assert_eq!(m.col_weight(4), 1);
        assert_eq!(m.col_weight(1), 0);
    }

    #[test]
    fn from_router_bitmaps_transposes() {
        let r0 = Bitmap::from_indices(10, [0, 3]);
        let r1 = Bitmap::from_indices(10, [3, 9]);
        let m = ColMatrix::from_router_bitmaps(&[r0, r1]);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 10);
        assert!(m.get(0, 0));
        assert!(!m.get(1, 0));
        assert!(m.get(0, 3) && m.get(1, 3));
        assert_eq!(m.col_weight(3), 2);
        assert_eq!(m.col_weights(), vec![1, 0, 0, 2, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn select_columns_preserves_content() {
        let r0 = Bitmap::from_indices(6, [0, 2, 4]);
        let r1 = Bitmap::from_indices(6, [2, 5]);
        let m = ColMatrix::from_router_bitmaps(&[r0, r1]);
        let s = m.select_columns(&[2, 5]);
        assert_eq!(s.ncols(), 2);
        assert_eq!(s.col_weight(0), 2);
        assert_eq!(s.col_weight(1), 1);
        assert!(s.get(0, 0) && s.get(1, 0));
        assert!(!s.get(0, 1) && s.get(1, 1));
    }

    #[test]
    fn col_and_weight_counts_shared_rows() {
        let r0 = Bitmap::from_indices(4, [0, 1]);
        let r1 = Bitmap::from_indices(4, [0, 1]);
        let r2 = Bitmap::from_indices(4, [1, 2]);
        let m = ColMatrix::from_router_bitmaps(&[r0, r1, r2]);
        // column 0: rows {0,1}; column 1: rows {0,1,2}; column 2: rows {2}
        assert_eq!(m.col_and_weight(0, 1), 2);
        assert_eq!(m.col_and_weight(0, 2), 0);
        assert_eq!(m.col_and_weight(1, 2), 1);
        assert_eq!(m.col_and_weight(0, 3), 0);
    }

    #[test]
    #[should_panic(expected = "equal width")]
    fn mismatched_digests_panic() {
        let r0 = Bitmap::new(8);
        let r1 = Bitmap::new(9);
        ColMatrix::from_router_bitmaps(&[r0, r1]);
    }

    /// Deterministic pseudo-random bitmaps (no RNG dependency here).
    fn splitmix_bitmaps(nrows: usize, bits: usize, mut seed: u64) -> Vec<Bitmap> {
        (0..nrows)
            .map(|_| {
                let words = (0..words_for(bits))
                    .map(|_| {
                        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        let mut z = seed;
                        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                        z ^ (z >> 31)
                    })
                    .enumerate()
                    .map(|(i, w)| {
                        if i + 1 == words_for(bits) {
                            w & words::tail_mask(bits)
                        } else {
                            w
                        }
                    })
                    .collect();
                Bitmap::from_words(bits, words)
            })
            .collect()
    }

    #[test]
    fn transpose64_matches_per_bit_definition() {
        let mut block = [0u64; 64];
        let mut seed = 42u64;
        for w in &mut block {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            *w = seed;
        }
        let original = block;
        transpose64(&mut block);
        for (r, &orig_row) in original.iter().enumerate() {
            for (c, &new_row) in block.iter().enumerate() {
                assert_eq!(
                    new_row >> r & 1,
                    orig_row >> c & 1,
                    "transpose mismatch at ({r}, {c})"
                );
            }
        }
        // The transpose is an involution.
        transpose64(&mut block);
        assert_eq!(block, original);
    }

    #[test]
    fn word_level_fusion_matches_per_bit_oracle() {
        // Shapes straddling every boundary: row counts around the 64-row
        // band edge, widths around the 64-column word edge.
        for &(nrows, bits) in &[
            (1usize, 1usize),
            (3, 64),
            (63, 65),
            (64, 64),
            (65, 127),
            (70, 200),
            (130, 300),
        ] {
            let bitmaps = splitmix_bitmaps(nrows, bits, (nrows * bits) as u64);
            let fused = ColMatrix::from_router_bitmaps(&bitmaps);
            let oracle = ColMatrix::from_router_bitmaps_per_bit(&bitmaps);
            assert_eq!(fused, oracle, "shape {nrows}x{bits}");
        }
    }

    #[test]
    fn fuse_rows_into_weights_match_col_weights() {
        let bitmaps = splitmix_bitmaps(70, 500, 7);
        let mut m = ColMatrix::new(0, 0);
        let mut weights = Vec::new();
        m.fuse_rows_into(&bitmaps, &mut weights);
        assert_eq!(weights, m.col_weights());
    }

    #[test]
    fn sharded_fusion_is_bit_identical_for_any_worker_count() {
        // Widths around word-tile boundaries so range edges land both
        // on and off the final partial tile.
        for &(nrows, bits) in &[(3usize, 64usize), (65, 127), (70, 200), (130, 513)] {
            let bitmaps = splitmix_bitmaps(nrows, bits, (nrows * bits + 1) as u64);
            let single = ColMatrix::from_router_bitmaps(&bitmaps);
            let expect_w = single.col_weights();
            // Worker counts far beyond ncols/64 exercise the degenerate
            // plans: shard_columns must collapse to at most one range per
            // word tile (never an empty range — the split_at_mut carving
            // below would still be sound, but every worker must own
            // columns for the plan to cover the matrix).
            for workers in [1usize, 2, 3, 8, 10_000, 1 << 20] {
                let mut m = ColMatrix::new(0, 0);
                let mut weights = Vec::new();
                m.fuse_rows_into_sharded(&bitmaps, &mut weights, workers);
                assert_eq!(m, single, "shape {nrows}x{bits} workers {workers}");
                assert_eq!(weights, expect_w, "shape {nrows}x{bits} workers {workers}");
            }
        }
    }

    #[test]
    fn fuse_rows_into_reuses_capacity_across_epochs() {
        let mut m = ColMatrix::new(0, 0);
        let mut weights = Vec::new();
        m.fuse_rows_into(&splitmix_bitmaps(70, 500, 1), &mut weights);
        let data_cap = m.data.capacity();
        let w_cap = weights.capacity();
        // A same-shape refuse must not grow either allocation.
        m.fuse_rows_into(&splitmix_bitmaps(70, 500, 2), &mut weights);
        assert_eq!(m.data.capacity(), data_cap);
        assert_eq!(weights.capacity(), w_cap);
        assert_eq!(
            ColMatrix::from_router_bitmaps_per_bit(&splitmix_bitmaps(70, 500, 2)),
            m
        );
    }

    #[test]
    fn select_columns_into_reuses_allocation() {
        let m = ColMatrix::from_router_bitmaps(&splitmix_bitmaps(10, 100, 3));
        let mut out = ColMatrix::new(0, 0);
        m.select_columns_into(&[1, 5, 99], &mut out);
        let cap = out.data.capacity();
        m.select_columns_into(&[0, 2, 98], &mut out);
        assert_eq!(out.data.capacity(), cap);
        assert_eq!(out.column(0), m.column(0));
        assert_eq!(out.column(1), m.column(2));
        assert_eq!(out.column(2), m.column(98));
    }
}
