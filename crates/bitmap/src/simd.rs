//! AVX2 vector popcount kernels (Mula's nibble-lookup algorithm).
//!
//! Each 256-bit lane is split into nibbles, every nibble is mapped
//! through a 16-entry popcount table with `_mm256_shuffle_epi8`, and the
//! per-byte counts are folded into four `u64` lanes with
//! `_mm256_sad_epu8`. The byte accumulator is flushed every
//! [`SAD_EVERY`] vectors — each vector adds at most 8 to a byte lane, so
//! 31 × 8 = 248 stays under the `u8` ceiling.
//!
//! Slices below [`AVX2_MIN_WORDS`] never reach the vector bodies: single
//! calls fall back to the scalar loop in [`crate::words`], and the batched
//! [`and_weight_each_into`] — one base against a run of short columns,
//! the aligned search's shape at a few dozen routers — runs a `popcnt`
//! per word instead, compiled here because the instruction needs its
//! `#[target_feature]` just as the vector ones do.
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! intrinsics require it. Every public entry point re-checks at runtime
//! that the features its body enables are there (a cached atomic load
//! inside `std`), so the functions exposed to the dispatcher are safe — the
//! `#[target_feature]` bodies are unreachable on hosts without the
//! feature, even if a test forces the AVX2 kernel where it cannot run.
//!
//! Loads are `_mm256_loadu_si256` (no alignment requirement): callers
//! hand in ordinary `&[u64]` slices with no alignment promise beyond 8.

use core::arch::x86_64::*;

/// Vectors accumulated into byte counters between `sad` flushes.
const SAD_EVERY: usize = 31;

/// Below this many words the straight-line scalar kernel wins; the
/// dispatcher in [`crate::words`] short-circuits before calling here.
pub(crate) const AVX2_MIN_WORDS: usize = 8;

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
    // SAFETY: AVX2 availability verified above.
    unsafe { and_weight_impl(a, b) }
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

/// One column at a time: at or above [`AVX2_MIN_WORDS`] the vector body
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
/// [`AVX2_MIN_WORDS`]: the trip count is a constant, so the per-column
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
