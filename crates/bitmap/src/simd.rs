//! x86-64 vector popcount kernels: AVX-512 `vpopcntq` and AVX2
//! nibble lookup.
//!
//! [`Kernel::Avx512`](crate::Kernel::Avx512) ANDs and popcounts eight
//! words a 512-bit vector with `_mm512_popcnt_epi64`, whose per-lane
//! counts add into eight `u64` lanes that cannot overflow. A length that
//! is not a multiple of 8 ends in one masked load
//! (`_mm512_maskz_loadu_epi64`), which reads only the words the mask
//! keeps and zeroes the rest, so no word past the slice is touched.
//!
//! [`Kernel::Avx2`](crate::Kernel::Avx2) uses Mula's nibble-lookup
//! algorithm: each 256-bit lane is split into nibbles, every nibble is
//! mapped through a 16-entry popcount table with `_mm256_shuffle_epi8`,
//! and the per-byte counts are folded into four `u64` lanes with
//! `_mm256_sad_epu8`. The byte accumulator is flushed every
//! [`SAD_EVERY`] vectors — each vector adds at most 8 to a byte lane, so
//! 31 × 8 = 248 stays under the `u8` ceiling.
//!
//! [`and_weight_each_into_avx512`] holds a base of exactly 16 words (a
//! 1,024-bit row, every deployment's unaligned row) in two registers
//! across its run of columns, so a column costs two loads, ANDs and
//! `vpopcntq`s and one horizontal add.
//!
//! Slices below [`VECTOR_MIN_WORDS`] never reach either vector body:
//! single calls fall back to the scalar loop in [`crate::words`], and the
//! batched `and_weight_each_into*` — one base against a run of short
//! columns, the aligned search's shape at a few dozen routers — runs a
//! `popcnt` per word instead (one path for both kernels), compiled here
//! because the instruction needs its `#[target_feature]` just as the
//! vector ones do.
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! intrinsics require it. Every public entry point re-checks at runtime
//! that the features its body enables are there (a cached atomic load
//! inside `std`), so the functions exposed to the dispatcher are safe — the
//! `#[target_feature]` bodies are unreachable on hosts without the
//! features, even if a test forces a vector kernel where it cannot run.
//!
//! Loads are unaligned (`_mm256_loadu_si256`, `_mm512_loadu_si512`):
//! callers hand in ordinary `&[u64]` slices with no alignment promise
//! beyond 8.

use core::arch::x86_64::*;

/// Vectors accumulated into byte counters between `sad` flushes.
const SAD_EVERY: usize = 31;

/// Below this many words the straight-line scalar kernel wins; the
/// dispatcher in [`crate::words`] short-circuits before calling either
/// vector body.
pub(crate) const VECTOR_MIN_WORDS: usize = 8;

macro_rules! assert_avx2 {
    () => {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 kernel invoked on a host without AVX2 (force_kernel misuse?)"
        )
    };
}

/// Population count of a word slice.
pub(crate) fn weight(words: &[u64]) -> u32 {
    assert_avx2!();
    // SAFETY: AVX2 availability verified above.
    unsafe { weight_impl(words) }
}

/// Population count of `a & b` (equal-length slices).
pub(crate) fn and_weight(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "and_weight: length mismatch");
    assert_avx2!();
    let n = a.len().min(b.len());
    // SAFETY: AVX2 availability verified above; the body reads `a.len()`
    // words of each slice, both cut to the shorter one's length (what the
    // scalar `zip` counts when release builds skip the length check).
    unsafe { and_weight_impl(&a[..n], &b[..n]) }
}

/// `out[k]` = population count of `base &` column `k`, the columns lying
/// back to back in `words` (the caller has checked
/// `words.len() == base.len() * out.len()` and `base` non-empty).
pub(crate) fn and_weight_each_into(base: &[u64], words: &[u64], out: &mut [u32]) {
    assert_avx2!();
    assert!(
        std::arch::is_x86_feature_detected!("popcnt"),
        "AVX2 kernel invoked on a host without POPCNT (force_kernel misuse?)"
    );
    // SAFETY: AVX2 and POPCNT availability verified above.
    unsafe { and_weight_each_impl(base, words, out) }
}

macro_rules! assert_avx512 {
    () => {
        assert!(
            crate::words::runs_here(crate::Kernel::Avx512),
            "AVX-512 kernel invoked on a host without AVX512-VPOPCNTDQ (force_kernel misuse?)"
        )
    };
}

/// [`crate::words::weight`] on the AVX-512 kernel.
pub(crate) fn weight_avx512(words: &[u64]) -> u32 {
    assert_avx512!();
    // SAFETY: AVX-512F and AVX512-VPOPCNTDQ availability verified above;
    // both operands are `words`, whose AND with itself is itself.
    unsafe { and_weight_avx512_impl(words, words) }
}

/// [`crate::words::and_weight`] on the AVX-512 kernel.
pub(crate) fn and_weight_avx512(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "and_weight: length mismatch");
    assert_avx512!();
    let n = a.len().min(b.len());
    // SAFETY: AVX-512F and AVX512-VPOPCNTDQ availability verified above;
    // both slices are cut to the shorter one's length, as in
    // [`and_weight`].
    unsafe { and_weight_avx512_impl(&a[..n], &b[..n]) }
}

/// [`crate::words::and_weight_each_into`] on the AVX-512 kernel; the
/// dispatcher has checked that `words` is whole columns of `base.len()`.
pub(crate) fn and_weight_each_into_avx512(base: &[u64], words: &[u64], out: &mut [u32]) {
    assert_avx512!();
    // SAFETY: AVX-512F, AVX512-VPOPCNTDQ, AVX2 and POPCNT availability
    // verified above (`runs_here(Avx512)` checks all four).
    unsafe { and_weight_each_avx512_impl(base, words, out) }
}

/// Per-byte popcount of a 256-bit vector: nibble-split + table shuffle.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn popcount_epi8(v: __m256i) -> __m256i {
    let table = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // low 128-bit lane
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, // high 128-bit lane
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
    _mm256_add_epi8(
        _mm256_shuffle_epi8(table, lo),
        _mm256_shuffle_epi8(table, hi),
    )
}

/// Sum of the four `u64` lanes of an accumulator.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi64(acc: __m256i) -> u64 {
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
    lanes.iter().sum()
}

#[target_feature(enable = "avx2")]
unsafe fn weight_impl(words: &[u64]) -> u32 {
    let ptr = words.as_ptr().cast::<__m256i>();
    let nvec = words.len() / 4;
    let zero = _mm256_setzero_si256();
    let mut acc = zero;
    let mut i = 0;
    while i < nvec {
        let run = (nvec - i).min(SAD_EVERY);
        let mut bytes = zero;
        for k in 0..run {
            let v = _mm256_loadu_si256(ptr.add(i + k));
            bytes = _mm256_add_epi8(bytes, popcount_epi8(v));
        }
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, zero));
        i += run;
    }
    let mut total = hsum_epi64(acc) as u32;
    for &w in &words[4 * nvec..] {
        total += w.count_ones();
    }
    total
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn and_weight_impl(a: &[u64], b: &[u64]) -> u32 {
    let pa = a.as_ptr().cast::<__m256i>();
    let pb = b.as_ptr().cast::<__m256i>();
    let nvec = a.len() / 4;
    let zero = _mm256_setzero_si256();
    let mut acc = zero;
    let mut i = 0;
    while i < nvec {
        let run = (nvec - i).min(SAD_EVERY);
        let mut bytes = zero;
        for k in 0..run {
            let x = _mm256_loadu_si256(pa.add(i + k));
            let y = _mm256_loadu_si256(pb.add(i + k));
            bytes = _mm256_add_epi8(bytes, popcount_epi8(_mm256_and_si256(x, y)));
        }
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, zero));
        i += run;
    }
    let mut total = hsum_epi64(acc) as u32;
    for (&x, &y) in a[4 * nvec..].iter().zip(&b[4 * nvec..]) {
        total += (x & y).count_ones();
    }
    total
}

/// One column at a time: at or above [`VECTOR_MIN_WORDS`] the vector body
/// (inlined here, so a run of columns pays one call), below it a
/// straight-line loop whose `count_ones` compiles to one `popcnt` a word
/// because this function enables the feature — the same loop built for
/// baseline x86-64 is a twelve-operation bit-twiddle.
///
/// # Safety
/// The host must support AVX2 and POPCNT.
#[target_feature(enable = "avx2,popcnt")]
unsafe fn and_weight_each_impl(base: &[u64], words: &[u64], out: &mut [u32]) {
    match base.len() {
        1 => each_short::<1>(base, words, out),
        2 => each_short::<2>(base, words, out),
        3 => each_short::<3>(base, words, out),
        4 => each_short::<4>(base, words, out),
        5 => each_short::<5>(base, words, out),
        6 => each_short::<6>(base, words, out),
        7 => each_short::<7>(base, words, out),
        _ => {
            for (o, col) in out.iter_mut().zip(words.chunks_exact(base.len())) {
                *o = and_weight_impl(base, col);
            }
        }
    }
}

/// [`and_weight_each_impl`] for columns of exactly `W` words, `W` below
/// [`VECTOR_MIN_WORDS`]: the trip count is a constant, so the per-column
/// loop unrolls into `W` `popcnt`s.
///
/// # Safety
/// The host must support AVX2 and POPCNT.
#[inline]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn each_short<const W: usize>(base: &[u64], words: &[u64], out: &mut [u32]) {
    let base: [u64; W] = core::array::from_fn(|i| base[i]);
    for (o, col) in out.iter_mut().zip(words.chunks_exact(W)) {
        *o = (0..W).map(|i| (base[i] & col[i]).count_ones()).sum();
    }
}

/// Mask of the words a slice of `len` words has past its last whole
/// 8-word vector: the low `len % 8` lanes (none when `len` is a multiple
/// of 8).
#[inline]
fn tail_lanes(len: usize) -> __mmask8 {
    (1u8 << (len % 8)) - 1
}

/// # Safety
/// The host must support AVX-512F and AVX512-VPOPCNTDQ, and `b` must
/// hold at least `a.len()` words.
#[inline]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn and_weight_avx512_impl(a: &[u64], b: &[u64]) -> u32 {
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let full = a.len() / 8;
    let mut acc = _mm512_setzero_si512();
    for i in 0..full {
        let x = _mm512_loadu_si512(pa.add(8 * i).cast());
        let y = _mm512_loadu_si512(pb.add(8 * i).cast());
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(x, y)));
    }
    let tail = tail_lanes(a.len());
    if tail != 0 {
        let x = _mm512_maskz_loadu_epi64(tail, pa.add(8 * full).cast());
        let y = _mm512_maskz_loadu_epi64(tail, pb.add(8 * full).cast());
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(x, y)));
    }
    _mm512_reduce_add_epi64(acc) as u32
}

/// The AVX-512 [`and_weight_each_impl`]. Below [`VECTOR_MIN_WORDS`] it
/// runs the same `popcnt`-per-word columns the AVX2 kernel runs
/// (AVX-512F implies AVX2, so that body may run here). Columns of exactly
/// 16 words hold the base in registers ([`each_row16`]); other lengths
/// take the 512-bit body a column at a time.
///
/// # Safety
/// The host must support AVX-512F, AVX512-VPOPCNTDQ, AVX2 and POPCNT.
#[target_feature(enable = "avx512f,avx512vpopcntdq,avx2,popcnt")]
unsafe fn and_weight_each_avx512_impl(base: &[u64], words: &[u64], out: &mut [u32]) {
    match base.len() {
        0..VECTOR_MIN_WORDS => and_weight_each_impl(base, words, out),
        16 => each_row16(base, words, out),
        _ => {
            for (o, col) in out.iter_mut().zip(words.chunks_exact(base.len())) {
                *o = and_weight_avx512_impl(base, col);
            }
        }
    }
}

/// [`and_weight_each_avx512_impl`] for 16-word columns: the base is
/// loaded once into two registers, and a column costs two loads, ANDs and
/// `vpopcntq`s and one horizontal add. Against the column-at-a-time arm,
/// which reloads the base from L1 for every column, this took a 16-word
/// pair from 6.2–7.0 to 2.8–4.7 ns and `center-paper`'s traced
/// `graph_build` from 5.4–6.0 to 4.1–4.5 ms (2-vCPU Xeon with
/// AVX512-VPOPCNTDQ, `nproc` 2).
///
/// # Safety
/// The host must support AVX-512F and AVX512-VPOPCNTDQ, and `base` must
/// be 16 words.
#[inline]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn each_row16(base: &[u64], words: &[u64], out: &mut [u32]) {
    debug_assert_eq!(base.len(), 16);
    let b0 = _mm512_loadu_si512(base.as_ptr().cast());
    let b1 = _mm512_loadu_si512(base.as_ptr().add(8).cast());
    for (o, col) in out.iter_mut().zip(words.chunks_exact(16)) {
        let c0 = _mm512_loadu_si512(col.as_ptr().cast());
        let c1 = _mm512_loadu_si512(col.as_ptr().add(8).cast());
        let acc = _mm512_add_epi64(
            _mm512_popcnt_epi64(_mm512_and_si512(b0, c0)),
            _mm512_popcnt_epi64(_mm512_and_si512(b1, c1)),
        );
        *o = _mm512_reduce_add_epi64(acc) as u32;
    }
}
