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
//! where they lie, see [`ColumnCounts`](crate::ColumnCounts)).

use crate::words::{self, words_for, WORD_BITS};
use crate::{Bitmap, WordSource};
use std::ops::Range;

/// A column-major bit matrix with `nrows` (routers) and `ncols` (hash
/// indices) — the aligned-case fused digest.
#[derive(Clone, Debug, PartialEq, Eq)]
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

    /// The matrix as its rows — one `ncols`-bit bitmap per router. The
    /// refined search reads its input as rows.
    pub fn row_bitmaps(&self) -> Vec<Bitmap> {
        let mut rows = vec![Bitmap::new(self.ncols); self.nrows];
        for j in 0..self.ncols {
            for r in words::iter_ones(self.column(j)) {
                rows[r].set(j);
            }
        }
        rows
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

    /// Capacity of the backing word store — diagnostic hook for
    /// steady-state reuse tests (a reused matrix must not regrow).
    pub fn word_capacity(&self) -> usize {
        self.data.capacity()
    }
}

/// Test oracles: whole-matrix constructors the ingest path never uses.
#[cfg(test)]
impl ColMatrix {
    /// Stacks one n-bit digest per router into an m×n column-major
    /// matrix: row r of the result is router r's bitmap. This is
    /// [`ColMatrix::gather_from_rows`] over every column.
    ///
    /// # Panics
    /// Panics if the bitmaps do not all share the same length.
    pub(crate) fn from_router_bitmaps(bitmaps: &[Bitmap]) -> Self {
        let ncols = bitmaps.first().map_or(0, Bitmap::len);
        let mut m = ColMatrix::new(0, 0);
        m.gather_from_rows(bitmaps, &(0..ncols).collect::<Vec<_>>());
        m
    }

    /// Extracts the listed columns into a new matrix: column `k` of the
    /// result is column `cols[k]` of `self`.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub(crate) fn select_columns(&self, cols: &[usize]) -> ColMatrix {
        let mut out = ColMatrix::new(self.nrows, 0);
        out.ncols = cols.len();
        for &j in cols {
            out.data.extend_from_slice(self.column(j));
        }
        out
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
    fn row_bitmaps_inverts_from_router_bitmaps() {
        // Row counts around the 64-row word edge, widths around the
        // 64-column word edge.
        for &(nrows, bits) in &[
            (0usize, 0usize),
            (1, 1),
            (3, 64),
            (63, 65),
            (64, 64),
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
