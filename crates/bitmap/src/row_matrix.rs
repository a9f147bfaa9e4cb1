//! Row-major 0-1 matrix: the fused digest store of the unaligned case.
//!
//! After flow splitting, every monitoring point ships a stack of short
//! arrays (1,024 bits each in the paper's configuration). The analysis
//! centre merges them *vertically* into one giant matrix whose rows it then
//! correlates pairwise (Section IV-B). Rows are stored contiguously so a
//! pairwise sweep walks memory linearly.

use crate::words::{self, tail_mask, words_for};
use crate::{Bitmap, WordSource};
use serde::{Deserialize, Serialize};

/// A row-major bit matrix with fixed row width.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowMatrix {
    ncols: usize,
    words_per_row: usize,
    nrows: usize,
    data: Vec<u64>,
}

impl RowMatrix {
    /// Creates an empty matrix whose rows are `ncols` bits wide.
    pub fn new(ncols: usize) -> Self {
        RowMatrix {
            ncols,
            words_per_row: words_for(ncols),
            nrows: 0,
            data: Vec::new(),
        }
    }

    /// Creates an empty matrix with capacity reserved for `rows` rows.
    pub fn with_capacity(ncols: usize, rows: usize) -> Self {
        let words_per_row = words_for(ncols);
        RowMatrix {
            ncols,
            words_per_row,
            nrows: 0,
            data: Vec::with_capacity(rows * words_per_row),
        }
    }

    /// Builds a matrix by stacking equal-length bitmaps as rows.
    ///
    /// # Panics
    /// Panics if the bitmaps do not all have length `ncols`.
    pub fn from_bitmaps<'a>(ncols: usize, rows: impl IntoIterator<Item = &'a Bitmap>) -> Self {
        let mut m = RowMatrix::new(ncols);
        for r in rows {
            m.push_bitmap(r);
        }
        m
    }

    /// Row width in bits.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Words per row in the backing store.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Drops all rows and re-targets the matrix to `ncols`-bit rows,
    /// keeping the backing allocation. The epoch-scratch reuse hook: an
    /// analysis centre resets one matrix per epoch instead of building a
    /// fresh one, so steady-state fusion allocates nothing.
    pub fn reset(&mut self, ncols: usize) {
        self.ncols = ncols;
        self.words_per_row = words_for(ncols);
        self.nrows = 0;
        self.data.clear();
    }

    /// Appends one row read from any word source — an owned [`Bitmap`] or
    /// a borrowed [`BitmapView`](crate::BitmapView) straight off the wire.
    ///
    /// # Panics
    /// Panics if `row.bit_len() != ncols`.
    pub fn push_row_from<S: WordSource>(&mut self, row: &S) {
        assert_eq!(row.bit_len(), self.ncols, "push_row_from: width mismatch");
        self.data.reserve(self.words_per_row);
        for w in 0..self.words_per_row {
            self.data.push(row.word(w));
        }
        self.nrows += 1;
    }

    /// Replaces the matrix contents with `rows`, copying one contiguous
    /// row range on each of up to `workers` threads.
    ///
    /// Stacking is pure data movement — row `i` of the result is
    /// `rows[i]` regardless of the partition — so the result is
    /// bit-identical to pushing each row with
    /// [`RowMatrix::push_row_from`] in order. The backing allocation is
    /// reused as in [`RowMatrix::reset`].
    ///
    /// # Panics
    /// Panics if any row's bit length differs from `ncols`.
    pub fn fill_rows_sharded<S: WordSource + Sync>(
        &mut self,
        ncols: usize,
        rows: &[S],
        workers: usize,
    ) {
        self.reset(ncols);
        for r in rows {
            assert_eq!(r.bit_len(), ncols, "fill_rows_sharded: width mismatch");
        }
        let wpr = self.words_per_row;
        self.nrows = rows.len();
        self.data.resize(rows.len() * wpr, 0);
        if workers <= 1 || rows.len() <= 1 {
            for (r, row) in rows.iter().enumerate() {
                for w in 0..wpr {
                    self.data[r * wpr + w] = row.word(w);
                }
            }
            return;
        }
        let ranges = dcs_parallel::split_range(rows.len(), workers);
        let mut jobs = Vec::with_capacity(ranges.len());
        let mut rest: &mut [u64] = &mut self.data;
        for range in ranges {
            let (shard, tail) = rest.split_at_mut((range.end - range.start) * wpr);
            rest = tail;
            jobs.push((range, shard));
        }
        dcs_parallel::run_jobs(jobs, workers, |(range, shard)| {
            for (local, r) in range.enumerate() {
                for w in 0..wpr {
                    shard[local * wpr + w] = rows[r].word(w);
                }
            }
        });
    }

    /// Appends one row given as a bitmap.
    ///
    /// # Panics
    /// Panics if `row.len() != ncols`.
    pub fn push_bitmap(&mut self, row: &Bitmap) {
        assert_eq!(row.len(), self.ncols, "push_bitmap: width mismatch");
        self.data.extend_from_slice(row.words());
        self.nrows += 1;
    }

    /// Appends one row given as raw words.
    ///
    /// # Panics
    /// Panics if the word count is wrong or bits past `ncols` are set.
    pub fn push_words(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.words_per_row, "push_words: word count");
        if let Some(last) = row.last() {
            assert_eq!(
                last & !tail_mask(self.ncols),
                0,
                "push_words: bits set past row width"
            );
        }
        self.data.extend_from_slice(row);
        self.nrows += 1;
    }

    /// Appends all rows of `other` below the rows of `self` — the paper's
    /// "merged vertically" step when digests arrive from many routers.
    ///
    /// # Panics
    /// Panics if the widths differ.
    pub fn vstack(&mut self, other: &RowMatrix) {
        assert_eq!(self.ncols, other.ncols, "vstack: width mismatch");
        self.data.extend_from_slice(&other.data);
        self.nrows += other.nrows;
    }

    /// Word slice of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        assert!(i < self.nrows, "row {i} out of range {}", self.nrows);
        &self.data[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Number of 1's in row `i`.
    #[inline]
    pub fn row_weight(&self, i: usize) -> u32 {
        words::weight(self.row(i))
    }

    /// Weights of all rows.
    pub fn row_weights(&self) -> Vec<u32> {
        (0..self.nrows).map(|i| self.row_weight(i)).collect()
    }

    /// Number of columns where rows `i` and `j` are both 1.
    #[inline]
    pub fn common_ones(&self, i: usize, j: usize) -> u32 {
        words::and_weight(self.row(i), self.row(j))
    }

    /// Reads the bit at (`row`, `col`).
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(col < self.ncols, "col {col} out of range {}", self.ncols);
        self.row(row)[col / 64] >> (col % 64) & 1 == 1
    }

    /// The packed backing words, row-major (`words_per_row` words per
    /// row). Exposed for callers that stream several rows at once, such
    /// as the incremental correlator's row diff.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.data
    }

    /// Approximate heap footprint in bytes (digest-size accounting).
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

    fn sample() -> RowMatrix {
        let a = Bitmap::from_indices(100, [0, 1, 2, 99]);
        let b = Bitmap::from_indices(100, [1, 2, 3]);
        let c = Bitmap::from_indices(100, [99]);
        RowMatrix::from_bitmaps(100, [&a, &b, &c])
    }

    #[test]
    fn dimensions() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 100);
        assert_eq!(m.words_per_row(), 2);
    }

    #[test]
    fn row_weights_and_common_ones() {
        let m = sample();
        assert_eq!(m.row_weights(), vec![4, 3, 1]);
        assert_eq!(m.common_ones(0, 1), 2);
        assert_eq!(m.common_ones(0, 2), 1);
        assert_eq!(m.common_ones(1, 2), 0);
    }

    #[test]
    fn get_reads_bits() {
        let m = sample();
        assert!(m.get(0, 99));
        assert!(!m.get(1, 0));
        assert!(m.get(1, 3));
    }

    #[test]
    fn vstack_appends() {
        let mut m = sample();
        let n = sample();
        m.vstack(&n);
        assert_eq!(m.nrows(), 6);
        assert_eq!(m.row(3), n.row(0));
        assert_eq!(m.common_ones(0, 3), 4);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn vstack_width_mismatch_panics() {
        let mut m = RowMatrix::new(64);
        m.vstack(&RowMatrix::new(65));
    }

    #[test]
    fn push_words_validates_tail() {
        let mut m = RowMatrix::new(4);
        m.push_words(&[0b1010]);
        assert_eq!(m.row_weight(0), 2);
    }

    #[test]
    #[should_panic(expected = "past row width")]
    fn push_words_dirty_tail_panics() {
        let mut m = RowMatrix::new(4);
        m.push_words(&[0b10000]);
    }

    #[test]
    fn byte_size_tracks_rows() {
        let m = sample();
        assert_eq!(m.byte_size(), 3 * 2 * 8);
    }

    #[test]
    fn push_row_from_matches_push_bitmap() {
        let rows = [
            Bitmap::from_indices(100, [0, 1, 2, 99]),
            Bitmap::from_indices(100, [63, 64]),
        ];
        let mut a = RowMatrix::new(100);
        let mut b = RowMatrix::new(100);
        for r in &rows {
            a.push_bitmap(r);
            b.push_row_from(r);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn fill_rows_sharded_matches_sequential_push_for_any_worker_count() {
        let rows: Vec<Bitmap> = (0..13)
            .map(|i| Bitmap::from_indices(130, [i, i + 7, 129 - i]))
            .collect();
        let mut expect = RowMatrix::new(130);
        for r in &rows {
            expect.push_bitmap(r);
        }
        // 32, 10_000 and 1<<20 workers over 13 rows: the plan must
        // degrade to one row a worker, never hand one an empty
        // (zero-width split_at_mut) slice.
        for workers in [1usize, 2, 3, 8, 32, 10_000, 1 << 20] {
            let mut m = RowMatrix::new(0);
            m.fill_rows_sharded(130, &rows, workers);
            assert_eq!(m, expect, "workers {workers}");
        }
    }

    #[test]
    fn reset_keeps_capacity_across_epochs() {
        let mut m = sample();
        let cap = m.word_capacity();
        assert!(cap >= 6);
        m.reset(100);
        assert_eq!(m.nrows(), 0);
        assert_eq!(m.word_capacity(), cap);
        m.push_bitmap(&Bitmap::from_indices(100, [7]));
        assert_eq!(m.word_capacity(), cap, "refill within capacity regrew");
        // Re-targeting to a narrower width also keeps the allocation.
        m.reset(64);
        assert_eq!(m.words_per_row(), 1);
        assert_eq!(m.word_capacity(), cap);
    }
}
