//! Fixed-width bit vector used as the per-epoch digest of one monitoring
//! point (Section III-A of the paper).

use crate::words::{self, tail_mask, words_for, WORD_BITS};
use std::fmt;

/// A fixed-length bit vector packed into `u64` words.
///
/// This is the paper's "hashed bitmap": the data-collection module hashes
/// each packet payload into an index and sets the corresponding bit. A
/// 4-Mbit instance holds roughly one second of OC-48 traffic at 50 % fill.
///
/// Invariant: bits at positions `>= len` are always zero.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// Creates an all-zero bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        Bitmap {
            len,
            words: vec![0; words_for(len)],
        }
    }

    /// Creates a bitmap of `len` bits with the given bit positions set.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut bm = Bitmap::new(len);
        for i in indices {
            bm.set(i);
        }
        bm
    }

    /// Reconstructs a bitmap from raw words.
    ///
    /// # Panics
    /// Panics if `words` is not exactly `words_for(len)` long or if any bit
    /// beyond `len` is set (which would break the crate invariant).
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), words_for(len), "from_words: wrong word count");
        assert!(
            words.last().is_none_or(|w| w & !tail_mask(len) == 0),
            "from_words: bits set past logical length"
        );
        Bitmap { len, words }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Backing word slice.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Sets bit `i` to 1. Returns `true` if the bit was previously 0.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Resets every bit to 0 (start of a new measurement epoch).
    pub fn reset(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits — the paper's `weight`.
    #[inline]
    pub fn weight(&self) -> u32 {
        words::weight(&self.words)
    }

    /// Fraction of bits set, in `[0, 1]`. The collection module closes an
    /// epoch when this reaches ~0.5 (the Bloom-filter sweet spot).
    pub fn fill_ratio(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            f64::from(self.weight()) / self.len as f64
        }
    }

    /// Number of positions where both bitmaps have a 1.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn common_ones(&self, other: &Bitmap) -> u32 {
        assert_eq!(self.len, other.len, "common_ones: length mismatch");
        words::and_weight(&self.words, &other.words)
    }

    /// In-place intersection.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "and_assign: length mismatch");
        words::and_assign(&mut self.words, &other.words);
    }

    /// In-place union.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "or_assign: length mismatch");
        words::or_assign(&mut self.words, &other.words);
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        words::iter_ones(&self.words)
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Bitmap {{ len: {}, weight: {} ({:.1}%) }}",
            self.len,
            self.weight(),
            self.fill_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_is_all_zero() {
        let bm = Bitmap::new(130);
        assert_eq!(bm.len(), 130);
        assert_eq!(bm.weight(), 0);
        assert!(!bm.get(0));
        assert!(!bm.get(129));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::new(100);
        assert!(bm.set(63));
        assert!(bm.set(64));
        assert!(!bm.set(64), "second set reports bit already present");
        assert!(bm.get(63));
        assert!(bm.get(64));
        assert!(!bm.get(65));
        assert_eq!(bm.weight(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitmap::new(10).set(10);
    }

    #[test]
    fn from_indices_builds_expected() {
        let bm = Bitmap::from_indices(70, [0, 1, 69]);
        assert_eq!(bm.weight(), 3);
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![0, 1, 69]);
    }

    #[test]
    #[should_panic(expected = "past logical length")]
    fn from_words_rejects_dirty_tail() {
        Bitmap::from_words(4, vec![0b10000]);
    }

    #[test]
    fn fill_ratio_half() {
        let bm = Bitmap::from_indices(8, [0, 2, 4, 6]);
        assert!((bm.fill_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn common_ones_and_boolean_ops() {
        let a = Bitmap::from_indices(128, [1, 2, 3, 100]);
        let b = Bitmap::from_indices(128, [2, 3, 4, 127]);
        assert_eq!(a.common_ones(&b), 2);
        let mut u = a.clone();
        u.or_assign(&b);
        assert_eq!(u.weight(), 6);
        let mut i = a.clone();
        i.and_assign(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn reset_zeroes() {
        let mut bm = Bitmap::from_indices(65, [0, 64]);
        bm.reset();
        assert_eq!(bm.weight(), 0);
    }

    proptest! {
        #[test]
        fn prop_set_then_get(len in 1usize..512, idxs in proptest::collection::vec(0usize..512, 0..32)) {
            let idxs: Vec<usize> = idxs.into_iter().map(|i| i % len).collect();
            let bm = Bitmap::from_indices(len, idxs.iter().copied());
            for &i in &idxs {
                prop_assert!(bm.get(i));
            }
            let mut sorted: Vec<usize> = idxs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(bm.weight() as usize, sorted.len());
            prop_assert_eq!(bm.iter_ones().collect::<Vec<_>>(), sorted);
        }

        #[test]
        fn prop_common_ones_is_intersection_size(
            len in 1usize..300,
            a in proptest::collection::vec(0usize..300, 0..64),
            b in proptest::collection::vec(0usize..300, 0..64),
        ) {
            use std::collections::BTreeSet;
            let a: BTreeSet<usize> = a.into_iter().map(|i| i % len).collect();
            let b: BTreeSet<usize> = b.into_iter().map(|i| i % len).collect();
            let ba = Bitmap::from_indices(len, a.iter().copied());
            let bb = Bitmap::from_indices(len, b.iter().copied());
            prop_assert_eq!(ba.common_ones(&bb) as usize, a.intersection(&b).count());
        }

        #[test]
        fn prop_or_assign_inclusion_exclusion(
            len in 1usize..300,
            a in proptest::collection::vec(0usize..300, 0..64),
            b in proptest::collection::vec(0usize..300, 0..64),
        ) {
            let a: Vec<usize> = a.into_iter().map(|i| i % len).collect();
            let b: Vec<usize> = b.into_iter().map(|i| i % len).collect();
            let ba = Bitmap::from_indices(len, a);
            let bb = Bitmap::from_indices(len, b);
            let mut or = ba.clone();
            or.or_assign(&bb);
            prop_assert_eq!(
                or.weight(),
                ba.weight() + bb.weight() - ba.common_ones(&bb)
            );
        }
    }
}
