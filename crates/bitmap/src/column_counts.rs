//! Per-column counts of a stack of bit-vector rows, bit-sliced.
//!
//! The aligned search asks three things of the m × n stack of router
//! bitmaps: every column's weight (to find the n′ heaviest), those n′
//! columns, and how many of the *core's* rows hold a 1 in each column.
//! None of them needs all n columns in column-major form, so the centre
//! counts the rows where they lie instead of transposing them: plane k
//! of a [`ColumnCounts`] holds bit k of every column's count, 64 columns
//! a word, and adding a row is a ripple-carry add one bit wide per
//! column — a carry-save popcount turned vertical. "Which columns count
//! at least t" is then a bit-sliced comparator over ⌈log₂(m + 1)⌉ planes
//! of n/8 bytes each, and only the few columns a caller asks for are
//! ever decoded into integers.

use crate::words::{tail_mask, words_for, OnesInWord, WORD_BITS};
use crate::WordSource;

/// Words of each plane held side by side: one block's planes (at most
/// 32 KiB, for 2³² rows) stay in L1 while every row's block streams
/// through them once.
const BLOCK_WORDS: usize = 128;

/// Bit planes needed to hold a count of at most `rows`: ⌈log₂(rows + 1)⌉.
fn planes_for(rows: usize) -> usize {
    (usize::BITS - rows.leading_zeros()) as usize
}

/// How many of the picked rows of a stack hold a 1 in each column, as
/// bit planes (see the module docs). Reused across [`count`](Self::count)
/// calls without reallocating.
#[derive(Debug, Default)]
pub struct ColumnCounts {
    ncols: usize,
    /// Rows counted: no count exceeds it, and `planes_for(rows)` planes
    /// hold them all.
    rows: usize,
    planes: usize,
    /// Block-major: block `b` covers words `BLOCK_WORDS·b..` of the rows
    /// and stores its `planes` planes back to back, `BLOCK_WORDS` words
    /// each. The last block is zero-padded.
    store: Vec<u64>,
}

impl ColumnCounts {
    /// Counts, for every column, the rows `r` of `rows` with `pick(r)`
    /// that hold a 1 there, replacing the previous counts.
    ///
    /// # Panics
    /// Panics if the rows do not all share the same bit length.
    pub fn count<S: WordSource>(&mut self, rows: &[S], pick: impl Fn(usize) -> bool) {
        self.ncols = rows.first().map_or(0, WordSource::bit_len);
        for r in rows {
            assert_eq!(
                r.bit_len(),
                self.ncols,
                "router digests must have equal width"
            );
        }
        let words = words_for(self.ncols);
        self.rows = (0..rows.len()).filter(|&r| pick(r)).count();
        self.planes = planes_for(self.rows);
        let block_len = self.planes * BLOCK_WORDS;
        self.store.clear();
        self.store
            .resize(words.div_ceil(BLOCK_WORDS) * block_len, 0);
        if self.store.is_empty() {
            return;
        }
        for (b, block) in self.store.chunks_exact_mut(block_len).enumerate() {
            let first = b * BLOCK_WORDS;
            let len = BLOCK_WORDS.min(words - first);
            let mut carry = [0u64; BLOCK_WORDS];
            let mut counted = 0;
            for (_, row) in rows.iter().enumerate().filter(|(r, _)| pick(*r)) {
                for (i, c) in carry[..len].iter_mut().enumerate() {
                    *c = row.word(first + i);
                }
                // A count of at most `counted` fits `planes_for(counted)`
                // planes: no carry reaches past them.
                counted += 1;
                for plane in block
                    .chunks_exact_mut(BLOCK_WORDS)
                    .take(planes_for(counted))
                {
                    for (p, c) in plane.iter_mut().zip(&mut carry) {
                        let sum = *p ^ *c;
                        *c &= *p;
                        *p = sum;
                    }
                }
            }
        }
    }

    /// Number of columns counted.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of rows counted — the greatest count a column can hold.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column `j`'s count.
    ///
    /// # Panics
    /// Panics if `j >= ncols`.
    pub fn at(&self, j: usize) -> u32 {
        assert!(j < self.ncols, "col {j} out of range {}", self.ncols);
        let word = j / WORD_BITS;
        let block = &self.store[word / BLOCK_WORDS * self.planes * BLOCK_WORDS..];
        (0..self.planes)
            .map(|k| {
                ((block[k * BLOCK_WORDS + word % BLOCK_WORDS] >> (j % WORD_BITS) & 1) as u32) << k
            })
            .sum()
    }

    /// Block `b`'s columns that count at least `t`, one mask bit a column:
    /// the MSB-first comparator, `gt` collecting the columns already
    /// decided greater and `eq` those still equal to `t`'s prefix.
    /// Columns past `ncols` (tail bits, block padding) are never set.
    fn ge_mask(&self, b: usize, t: u32) -> [u64; BLOCK_WORDS] {
        let mut gt = [0u64; BLOCK_WORDS];
        if u64::from(t) >> self.planes != 0 {
            return gt;
        }
        let mut eq = [u64::MAX; BLOCK_WORDS];
        let block = &self.store[b * self.planes * BLOCK_WORDS..][..self.planes * BLOCK_WORDS];
        for (k, plane) in block.chunks_exact(BLOCK_WORDS).enumerate().rev() {
            if t >> k & 1 == 1 {
                eq.iter_mut().zip(plane).for_each(|(e, p)| *e &= p);
            } else {
                for ((g, e), p) in gt.iter_mut().zip(&mut eq).zip(plane) {
                    *g |= *e & p;
                    *e &= !p;
                }
            }
        }
        gt.iter_mut().zip(&eq).for_each(|(g, e)| *g |= e);
        // Padding and tail bits count 0, which is ≥ t when t is 0.
        let words = (words_for(self.ncols) - b * BLOCK_WORDS).min(BLOCK_WORDS);
        gt[words..].fill(0);
        if b + 1 == self.blocks() {
            gt[words - 1] &= tail_mask(self.ncols);
        }
        gt
    }

    fn blocks(&self) -> usize {
        words_for(self.ncols).div_ceil(BLOCK_WORDS)
    }

    /// How many columns count at least `t`.
    pub fn count_ge(&self, t: u32) -> usize {
        (0..self.blocks())
            .flat_map(|b| self.ge_mask(b, t))
            .map(|m| m.count_ones() as usize)
            .sum()
    }

    /// The columns that count at least `t`, ascending.
    pub fn iter_ge(&self, t: u32) -> impl Iterator<Item = usize> + '_ {
        (0..self.blocks()).flat_map(move |b| {
            let base = b * BLOCK_WORDS * WORD_BITS;
            let words = self.ge_mask(b, t).into_iter().enumerate();
            words.flat_map(move |(i, m)| OnesInWord(m).map(move |c| base + i * WORD_BITS + c))
        })
    }

    /// Capacity of the plane store — diagnostic hook for steady-state
    /// reuse tests (a reused store must not regrow).
    pub fn word_capacity(&self) -> usize {
        self.store.capacity()
    }
}
