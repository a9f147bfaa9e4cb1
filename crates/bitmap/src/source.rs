//! Read-only word-level access to bit-vector rows.
//!
//! The centre's aligned path works on the rows it receives: the column
//! counts ([`ColumnCounts::count`]), the gather of the n′ screened
//! columns ([`ColMatrix::gather_from_rows`]) and the unaligned row
//! stacking ([`RowMatrix::fill_rows_sharded`]) read rows word by word
//! and do not care whether they are owned [`Bitmap`]s or borrowed wire
//! views ([`BitmapView`]); this trait is the one seam between the two,
//! so the zero-copy ingest path and the owned path share every kernel.
//!
//! [`ColumnCounts::count`]: crate::ColumnCounts::count
//! [`ColMatrix::gather_from_rows`]: crate::ColMatrix::gather_from_rows
//! [`RowMatrix::fill_rows_sharded`]: crate::RowMatrix::fill_rows_sharded
//! [`BitmapView`]: crate::BitmapView

use crate::words::words_for;
use crate::Bitmap;

/// A packed bit vector readable as little-endian 64-bit words.
///
/// Implementations must uphold the crate-wide invariant: bits at
/// positions `>= bit_len()` in the final word are zero. Both
/// implementations in this crate validate that at their boundary
/// ([`Bitmap::from_words`] and `BitmapView::parse`).
pub trait WordSource {
    /// Logical length in bits.
    fn bit_len(&self) -> usize;

    /// The `i`-th word: bit `b` of word `i` is vector position
    /// `64 * i + b`.
    ///
    /// # Panics
    /// Panics if `i >= word_len()`.
    fn word(&self, i: usize) -> u64;

    /// Number of words (`ceil(bit_len / 64)`).
    #[inline]
    fn word_len(&self) -> usize {
        words_for(self.bit_len())
    }
}

impl WordSource for Bitmap {
    #[inline]
    fn bit_len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn word(&self, i: usize) -> u64 {
        self.words()[i]
    }
}

impl<S: WordSource + ?Sized> WordSource for &S {
    #[inline]
    fn bit_len(&self) -> usize {
        (**self).bit_len()
    }

    #[inline]
    fn word(&self, i: usize) -> u64 {
        (**self).word(i)
    }
}
