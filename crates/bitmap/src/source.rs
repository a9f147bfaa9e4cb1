//! Read-only word-level access to bit-vector rows.
//!
//! The centre's aligned path works on the rows it receives: the column
//! counts ([`ColumnCounts::count`]), the gather of the n′ screened
//! columns ([`ColMatrix::gather_from_rows`]) and the unaligned row
//! stacking ([`RowMatrix::push_row_from`]) read rows word by word
//! and do not care whether they are owned [`Bitmap`]s or borrowed wire
//! views ([`BitmapView`]); this trait is the one seam between the two,
//! so the zero-copy ingest path and the owned path share every kernel.
//!
//! A kernel that streams a run of words asks for them in bulk
//! ([`WordSource::read_words`]): an owned bitmap copies its slice, and a
//! view decodes its little-endian bytes eight at a time, which compiles
//! to plain loads with no bounds check a word. Single-word reads
//! ([`WordSource::word`]) serve the kernels that pick scattered bits.
//!
//! [`ColumnCounts::count`]: crate::ColumnCounts::count
//! [`ColMatrix::gather_from_rows`]: crate::ColMatrix::gather_from_rows
//! [`RowMatrix::push_row_from`]: crate::RowMatrix::push_row_from
//! [`BitmapView`]: crate::BitmapView

use crate::words::words_for;
use crate::Bitmap;

/// A packed bit vector readable as little-endian 64-bit words.
///
/// Implementations must uphold the crate-wide invariant: bits at
/// positions `>= bit_len()` in the final word are zero. Both
/// implementations in this crate validate that at their boundary
/// ([`Bitmap::from_words`] and [`BitmapView::new`](crate::BitmapView::new)).
pub trait WordSource {
    /// Logical length in bits.
    fn bit_len(&self) -> usize;

    /// The `i`-th word: bit `b` of word `i` is vector position
    /// `64 * i + b`.
    ///
    /// # Panics
    /// Panics if `i >= word_len()`.
    fn word(&self, i: usize) -> u64;

    /// Fills `out` with words `first..first + out.len()`: what a loop of
    /// [`word`](Self::word) returns, read in one run.
    ///
    /// # Panics
    /// Panics if the run reaches past `word_len()`.
    #[inline]
    fn read_words(&self, first: usize, out: &mut [u64]) {
        for (i, w) in out.iter_mut().enumerate() {
            *w = self.word(first + i);
        }
    }

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

    #[inline]
    fn read_words(&self, first: usize, out: &mut [u64]) {
        out.copy_from_slice(&self.words()[first..first + out.len()]);
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

    #[inline]
    fn read_words(&self, first: usize, out: &mut [u64]) {
        (**self).read_words(first, out);
    }
}
