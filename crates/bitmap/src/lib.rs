//! Bit-vector and bit-matrix substrate for the DCS system.
//!
//! The data structures in this crate back both sides of the Distributed
//! Collaborative Streaming architecture:
//!
//! * the **data-collection modules** fill a [`Bitmap`] per measurement epoch
//!   (one hashed bit per packet payload, Section III-A of the paper) or a
//!   bank of small bitmaps (offset sampling + flow splitting, Section IV-A);
//! * the **analysis module** stacks shipped digests into a [`RowMatrix`]
//!   (unaligned case: thousands of 1,024-bit rows) or, in the aligned
//!   case, counts the m router bitmaps column by column where they lie
//!   ([`ColumnCounts`]: bit-sliced counters, 64 columns a word) and
//!   gathers only the n′ heaviest columns into a [`ColMatrix`]; both run
//!   word-level AND/popcount kernels.
//!
//! The popcount kernels ([`words`]) dispatch once per process to one
//! kernel per host: AVX-512 `vpopcntq` where the CPU has AVX512-VPOPCNTDQ,
//! else AVX2 where it has that, the scalar `count_ones` loop everywhere
//! else.
//!
//! Everything is stored as packed `u64` words. The crate-wide invariant is
//! that **bits past the logical length are always zero**, so `count_ones`
//! and the AND/popcount kernels never need trailing masks.

// `unsafe` is denied everywhere except the SIMD module, which needs it
// for the AVX2 and AVX-512 intrinsics and carries the crate's only
// `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod col_matrix;
mod column_counts;
mod digest;
mod row_matrix;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd;
mod source;
pub mod words;

#[cfg(test)]
mod proptests;

pub use bitmap::Bitmap;
pub use col_matrix::ColMatrix;
pub use column_counts::ColumnCounts;
pub use digest::{BitmapView, DIGEST_HEADER, DIGEST_MAGIC, DIGEST_VERSION};
pub use row_matrix::RowMatrix;
pub use source::WordSource;
pub use words::{active_kernel, Kernel};
