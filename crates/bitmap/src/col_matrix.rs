//! Column-major 0-1 matrix: the working store of the aligned search.
//!
//! In the aligned case (Section III) the analysis centre stacks one n-bit
//! bitmap per router into an m×n matrix and then operates on *columns*:
//! the detection algorithms repeatedly AND column vectors (k-products) and
//! rank them by weight. Storing the matrix column-major makes a column a
//! contiguous `&[u64]` of `ceil(m/64)` words, so a product step over
//! thousands of columns is a linear scan.
//!
//! Only the n′ screened columns are ever held this way on the ingest
//! path ([`ColMatrix::gather_from_rows`]; the other n − n′ are counted
//! where they lie, see [`ColumnCounts`](crate::ColumnCounts)). The
//! whole-stack transpose ([`ColMatrix::from_router_bitmaps`]) is the
//! offline constructor of experiments and tests.

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

    /// Stacks one n-bit digest per router into an m×n column-major
    /// matrix: row r of the result is router r's bitmap.
    ///
    /// The transpose runs on 64-row × 64-column word tiles: gather one
    /// word from each of 64 rows, `transpose64` the block in registers,
    /// scatter the 64 resulting column-words.
    ///
    /// # Panics
    /// Panics if the bitmaps do not all share the same length.
    pub fn from_router_bitmaps(bitmaps: &[Bitmap]) -> Self {
        let ncols = bitmaps.first().map_or(0, Bitmap::len);
        for bm in bitmaps {
            assert_eq!(bm.len(), ncols, "router digests must have equal width");
        }
        let mut m = ColMatrix::new(bitmaps.len(), ncols);
        let wpc = m.words_per_col;
        for (rb, band) in bitmaps.chunks(WORD_BITS).enumerate() {
            for cw in 0..words_for(ncols) {
                let mut block = [0u64; WORD_BITS];
                for (slot, bm) in block.iter_mut().zip(band) {
                    *slot = bm.words()[cw];
                }
                transpose64(&mut block);
                let columns = m.data[cw * WORD_BITS * wpc..].chunks_exact_mut(wpc);
                for (col, w) in columns.zip(block) {
                    col[rb] = w;
                }
            }
        }
        m
    }

    /// The matrix as its rows — one `ncols`-bit bitmap per router, the
    /// inverse of [`ColMatrix::from_router_bitmaps`] and by the same
    /// tiles. The refined search reads its input as rows.
    pub fn row_bitmaps(&self) -> Vec<Bitmap> {
        let wpc = self.words_per_col;
        let mut rows = vec![vec![0u64; words_for(self.ncols)]; self.nrows];
        for (rb, band) in rows.chunks_mut(WORD_BITS).enumerate() {
            for cw in 0..words_for(self.ncols) {
                let mut block = [0u64; WORD_BITS];
                let columns = self.data[cw * WORD_BITS * wpc..].chunks_exact(wpc);
                for (slot, col) in block.iter_mut().zip(columns) {
                    *slot = col[rb];
                }
                transpose64(&mut block);
                for (row, w) in band.iter_mut().zip(block) {
                    row[cw] = w;
                }
            }
        }
        let rows = rows.into_iter();
        rows.map(|words| Bitmap::from_words(self.ncols, words))
            .collect()
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

    /// Reshapes this matrix to `rows.len()` rows and fills column `k`
    /// with column `cols[k]` of the row stack, read bit by bit where the
    /// rows lie (owned bitmaps or borrowed wire views) and reusing this
    /// matrix's allocation: how the refined search materialises the n′
    /// heaviest columns without transposing the other n − n′.
    ///
    /// # Panics
    /// Panics if the rows do not all share the same bit length or a
    /// column index reaches past it.
    pub fn gather_from_rows<S: WordSource>(&mut self, rows: &[S], cols: &[usize]) {
        let width = rows.first().map_or(0, WordSource::bit_len);
        assert!(
            cols.iter().all(|&j| j < width),
            "a gathered column is out of range {width}"
        );
        self.reset(rows.len(), cols.len());
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.bit_len(), width, "router digests must have equal width");
            let words = self
                .data
                .iter_mut()
                .skip(r / WORD_BITS)
                .step_by(self.words_per_col);
            for (word, &j) in words.zip(cols) {
                *word |= (row.word(j / WORD_BITS) >> (j % WORD_BITS) & 1) << (r % WORD_BITS);
            }
        }
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
        let mut out = ColMatrix::new(self.nrows, 0);
        out.ncols = cols.len();
        for &j in cols {
            out.data.extend_from_slice(self.column(j));
        }
        out
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
    fn row_bitmaps_inverts_the_transpose() {
        for &(nrows, bits) in &[
            (0usize, 0usize),
            (1, 1),
            (3, 64),
            (63, 65),
            (65, 127),
            (130, 513),
        ] {
            let bitmaps = splitmix_bitmaps(nrows, bits, (nrows * bits + 2) as u64);
            let rows = ColMatrix::from_router_bitmaps(&bitmaps).row_bitmaps();
            assert_eq!(rows, bitmaps, "shape {nrows}x{bits}");
        }
    }

    #[test]
    fn gather_from_rows_is_select_columns_and_reuses_allocation() {
        let bitmaps = splitmix_bitmaps(70, 200, 3);
        let m = ColMatrix::from_router_bitmaps(&bitmaps);
        let mut out = ColMatrix::new(0, 0);
        out.gather_from_rows(&bitmaps, &[1, 5, 199, 64, 5]);
        assert_eq!(out, m.select_columns(&[1, 5, 199, 64, 5]));
        let cap = out.data.capacity();
        out.gather_from_rows(&bitmaps, &[0, 2, 198]);
        assert_eq!(out.data.capacity(), cap);
        assert_eq!(out, m.select_columns(&[0, 2, 198]));
        out.gather_from_rows(&bitmaps, &[]);
        assert_eq!((out.nrows(), out.ncols()), (70, 0));
    }

    #[test]
    #[should_panic(expected = "out of range 200")]
    fn gather_rejects_a_column_past_the_width() {
        ColMatrix::new(0, 0).gather_from_rows(&splitmix_bitmaps(2, 200, 4), &[200]);
    }
}
