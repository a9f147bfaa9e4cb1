//! Per-column counts of a stack of bit-vector rows, bit-sliced.
//!
//! The aligned search asks three things of the m × n stack of router
//! bitmaps: every column's weight (to find the n′ heaviest), those n′
//! columns, and how many of the *core's* rows hold a 1 in each column.
//! None of them needs all n columns in column-major form, so the centre
//! counts the rows where they lie instead of transposing them: plane k
//! of a [`ColumnCounts`] holds bit k of every column's count, 64 columns
//! a word — a carry-save popcount turned vertical.
//!
//! The count runs one block of 128 words (8,192 columns) at a time, so
//! the block's ⌈log₂(m + 1)⌉ planes stay in L1 while every picked row's
//! words stream through them once, read in bulk
//! ([`WordSource::read_words`]). Rows go in two at a time: one full adder
//! folds both into plane 0, and its carry ripples up from plane 1, past
//! no plane a count of the rows so far cannot reach.
//!
//! While a block's planes are still in L1, a trie over them (split on
//! the top plane, then the next, pruned where a side is empty) tallies
//! how many of the block's columns take each count, kept as suffix sums:
//! entry t of the block's table is how many count at least t. So
//! [`count_ge`](ColumnCounts::count_ge) adds one entry a block and reads
//! no plane, and [`iter_ge`](ColumnCounts::iter_ge) /
//! [`iter_eq`](ColumnCounts::iter_eq) run the MSB-first bit-sliced
//! comparator only on the blocks that hold a column they return. Every
//! popcount goes through the dispatched [`words`](crate::words) kernels,
//! and only the few columns a caller asks for are ever decoded into
//! integers.

use crate::words::{and_weight, tail_mask, words_for, OnesInWord, WORD_BITS};
use crate::WordSource;

/// Words of each plane held side by side: one block's planes (at most
/// 32 KiB, for 2³² rows) stay in L1 while every row's block streams
/// through them once. A block's 8,192 columns fit a `u16` tally.
const BLOCK_WORDS: usize = 128;

/// Bit planes needed to hold a count of at most `rows`: ⌈log₂(rows + 1)⌉.
fn planes_for(rows: usize) -> usize {
    (usize::BITS - rows.leading_zeros()) as usize
}

/// How many of the picked rows of a stack hold a 1 in each column, as
/// bit planes with a per-block table of suffix counts (see the module
/// docs). Reused across [`count`](Self::count) calls without
/// reallocating.
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
    /// Block-major, `rows + 1` entries a block: entry `t` of block `b` is
    /// how many of its columns count at least `t`.
    ge: Vec<u16>,
    /// Indices of the picked rows.
    picked: Vec<usize>,
    /// The tally's trie masks, one block-wide mask a level below the top.
    masks: Vec<u64>,
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
        let blocks = words.div_ceil(BLOCK_WORDS);
        self.picked.clear();
        self.picked.extend((0..rows.len()).filter(|&r| pick(r)));
        self.rows = self.picked.len();
        self.planes = planes_for(self.rows);
        let block_len = self.planes * BLOCK_WORDS;
        // Each block is zeroed just before its rows go in, while it is
        // about to be in L1 anyway.
        self.store.resize(blocks * block_len, 0);
        self.ge.clear();
        self.ge.resize(blocks * (self.rows + 1), 0);
        self.masks.clear();
        self.masks
            .resize(self.planes.saturating_sub(1) * BLOCK_WORDS, 0);
        for b in 0..blocks {
            let first = b * BLOCK_WORDS;
            let len = BLOCK_WORDS.min(words - first);
            let block = &mut self.store[b * block_len..][..block_len];
            block.fill(0);
            add_rows(block, rows, &self.picked, first, len);
            let mut valid = [0; BLOCK_WORDS];
            valid[..len].fill(u64::MAX);
            if b + 1 == blocks {
                valid[len - 1] = tail_mask(self.ncols);
            }
            let cols = (self.ncols - first * WORD_BITS).min(BLOCK_WORDS * WORD_BITS);
            let ge = &mut self.ge[b * (self.rows + 1)..][..self.rows + 1];
            tally(
                block,
                self.planes,
                &valid,
                cols as u16,
                0,
                ge,
                &mut self.masks,
            );
            for t in (0..self.rows).rev() {
                ge[t] += ge[t + 1];
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

    fn blocks(&self) -> usize {
        words_for(self.ncols).div_ceil(BLOCK_WORDS)
    }

    /// How many of block `b`'s columns count at least `t`, from its table.
    fn ge_in(&self, b: usize, t: u32) -> usize {
        let t = t as usize;
        if t > self.rows {
            return 0;
        }
        usize::from(self.ge[b * (self.rows + 1) + t])
    }

    /// How many columns count at least `t`: one table entry a block, no
    /// plane read.
    pub fn count_ge(&self, t: u32) -> usize {
        (0..self.blocks()).map(|b| self.ge_in(b, t)).sum()
    }

    /// The columns that count at least `t`, ascending.
    pub fn iter_ge(&self, t: u32) -> impl Iterator<Item = usize> + '_ {
        self.columns(t, false)
    }

    /// The columns that count exactly `t`, ascending.
    pub fn iter_eq(&self, t: u32) -> impl Iterator<Item = usize> + '_ {
        self.columns(t, true)
    }

    /// The columns that count exactly `t` (`exact`) or at least `t`,
    /// ascending: the comparator runs on the blocks whose table entries
    /// say they hold one, and skips the rest.
    fn columns(&self, t: u32, exact: bool) -> impl Iterator<Item = usize> + '_ {
        // No count reaches `u32::MAX`: its entry in every table is 0.
        let above = if exact { t.saturating_add(1) } else { u32::MAX };
        (0..self.blocks())
            .filter(move |&b| self.ge_in(b, t) > self.ge_in(b, above))
            .flat_map(move |b| {
                let (gt, eq) = self.compare(b, t);
                let base = b * BLOCK_WORDS * WORD_BITS;
                (0..BLOCK_WORDS).flat_map(move |i| {
                    let mask = if exact { eq[i] } else { gt[i] | eq[i] };
                    OnesInWord(mask).map(move |c| base + i * WORD_BITS + c)
                })
            })
    }

    /// Block `b`'s columns that count more than `t` and those that count
    /// exactly `t`, one mask bit a column: the MSB-first comparator, `gt`
    /// collecting the columns already decided greater and `eq` those still
    /// equal to `t`'s prefix. `t` must fit the planes. Columns past
    /// `ncols` (tail bits, block padding) are never set.
    fn compare(&self, b: usize, t: u32) -> ([u64; BLOCK_WORDS], [u64; BLOCK_WORDS]) {
        let mut gt = [0u64; BLOCK_WORDS];
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
        // Padding and tail bits count 0, which equals t when t is 0.
        let words = (words_for(self.ncols) - b * BLOCK_WORDS).min(BLOCK_WORDS);
        eq[words..].fill(0);
        if b + 1 == self.blocks() {
            eq[words - 1] &= tail_mask(self.ncols);
        }
        (gt, eq)
    }

    /// Capacity of the plane store — diagnostic hook for steady-state
    /// reuse tests (a reused store must not regrow).
    pub fn word_capacity(&self) -> usize {
        self.store.capacity()
    }

    /// Capacity of the per-block table of suffix counts — the same hook
    /// for the table.
    pub fn table_capacity(&self) -> usize {
        self.ge.capacity()
    }
}

/// Adds the picked rows' words `first..first + len` into one block's
/// planes. Two rows go in at a time: a full adder folds both into plane
/// 0, and its carry ripples up from plane 1; an odd last row ripples in
/// from plane 0. A count of at most `counted` fits `planes_for(counted)`
/// planes, so no carry is carried past them.
fn add_rows<S: WordSource>(
    block: &mut [u64],
    rows: &[S],
    picked: &[usize],
    first: usize,
    len: usize,
) {
    // Words past `len` stay zero in both, and so add nothing.
    let mut carry = [0u64; BLOCK_WORDS];
    let mut second = [0u64; BLOCK_WORDS];
    let mut counted = 0;
    for pair in picked.chunks(2) {
        rows[pair[0]].read_words(first, &mut carry[..len]);
        counted += pair.len();
        let mut planes = block
            .chunks_exact_mut(BLOCK_WORDS)
            .take(planes_for(counted));
        if let &[_, r] = pair {
            rows[r].read_words(first, &mut second[..len]);
            let plane = planes.next().expect("two rows fill two planes");
            for ((p, c), s) in plane.iter_mut().zip(&mut carry).zip(&second) {
                let half = *p ^ *c;
                *c = *p & *c | half & s;
                *p = half ^ s;
            }
        }
        for plane in planes {
            half_add(plane, &mut carry);
        }
    }
}

/// Adds `carry` into `plane` and leaves the carry out in `carry`.
#[inline]
fn half_add(plane: &mut [u64], carry: &mut [u64; BLOCK_WORDS]) {
    for (p, c) in plane.iter_mut().zip(carry) {
        let sum = *p ^ *c;
        *c &= *p;
        *p = sum;
    }
}

/// Adds to `hist[v]` how many of the `n` columns of `mask` count exactly
/// `v`, where every one of their counts holds `prefix` in the bits from
/// plane `k` up: the set splits on plane `k − 1` into the columns with a
/// 1 there and the rest, and each nonempty side goes down to the next
/// plane. A side that is the whole set reuses `mask`; the last plane
/// needs the sizes of its two sides only. `n` is at least 1.
fn tally(
    block: &[u64],
    k: usize,
    mask: &[u64],
    n: u16,
    prefix: usize,
    hist: &mut [u16],
    spare: &mut [u64],
) {
    if k == 0 {
        hist[prefix] += n;
        return;
    }
    let plane = &block[(k - 1) * BLOCK_WORDS..][..BLOCK_WORDS];
    let ones = and_weight(mask, plane) as u16;
    let high = prefix | 1 << (k - 1);
    if ones == 0 || ones == n {
        let prefix = if ones == 0 { prefix } else { high };
        return tally(block, k - 1, mask, n, prefix, hist, spare);
    }
    if k == 1 {
        hist[high] += ones;
        hist[prefix] += n - ones;
        return;
    }
    let (side, spare) = spare.split_at_mut(BLOCK_WORDS);
    for ((s, m), p) in side.iter_mut().zip(mask).zip(plane) {
        *s = m & p;
    }
    tally(block, k - 1, side, ones, high, hist, spare);
    for (s, m) in side.iter_mut().zip(mask) {
        *s ^= m;
    }
    tally(block, k - 1, side, n - ones, prefix, hist, spare);
}
