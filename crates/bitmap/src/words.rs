//! Low-level kernels over packed `u64` word slices.
//!
//! These free functions are the hot path of the whole analysis module: the
//! aligned-case product iterations and the unaligned-case pairwise row
//! correlation both reduce to "AND two word slices and count the ones".
//!
//! The popcount reductions ([`weight`], [`and_weight`]) dispatch at
//! runtime to one kernel per platform (see [`Kernel`]): an AVX2
//! nibble-lookup vector popcount on x86-64 CPUs with AVX2 and POPCNT,
//! otherwise the straight-line `count_ones` loops [`weight_scalar`] /
//! [`and_weight_scalar`], which the optimiser auto-vectorises. The
//! vector kernel, too, hands slices shorter than `AVX2_MIN_WORDS` to the
//! scalar loop. Every AND-popcount of the pipeline is 16 words or
//! shorter — a 1,024-bit unaligned array, an aligned column of m ≤ 1,000
//! routers — so the shapes that matter are short ones. The scalar loops
//! are the reference: the property tests assert the vector kernel is
//! bit-identical to them.
//!
//! [`and_weight_each_into`] is the batched form — one base slice against
//! a run of equal-length columns stored back to back, as a
//! [`ColMatrix`](crate::ColMatrix) stores them — and is what the aligned
//! search calls: it dispatches once per run, and on the AVX2 target its
//! columns shorter than `AVX2_MIN_WORDS` cost one hardware `popcnt` per
//! word (a matrix of 24 routers has one-word columns, which no vector
//! body helps).
//!
//! The dispatch decision is made once and cached in an atomic
//! ([`active_kernel`]). `DCS_FORCE_SCALAR=1` in the environment pins the
//! scalar kernel, the one a host without AVX2 runs (CI uses this to run
//! that fallback on AVX2 hosts). The explicit-kernel forms (`*_with`)
//! and the cache override are crate-internal: the dispatcher and the
//! crate's own bit-identity tests are their only callers.
//!
//! # Length invariant
//!
//! Binary kernels require equal-length slices. Lengths are checked with
//! `debug_assert_eq!` only: every caller in this workspace takes both
//! operands from the same [`ColMatrix`](crate::ColMatrix) /
//! [`RowMatrix`](crate::RowMatrix), whose constructors and `push_*`
//! methods validate word counts (including tail-bit hygiene via
//! [`tail_mask`]) once at the boundary, making per-call re-validation in
//! the innermost loop pure overhead. Release builds feed mismatched
//! lengths to `zip`, which silently truncates — so keep the invariant at
//! the boundary.

use std::sync::atomic::{AtomicU8, Ordering};

/// Number of bits in one storage word.
pub const WORD_BITS: usize = 64;

/// A popcount kernel implementation the runtime dispatcher can select.
///
/// Both produce bit-identical results (asserted by the property tests);
/// they differ only in speed and portability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kernel {
    /// Straight-line portable loop (`*_scalar`): the reference semantics
    /// and the kernel of every host without AVX2.
    Scalar = 1,
    /// AVX2 nibble-lookup vector popcount (x86-64 with AVX2 only).
    Avx2 = 2,
}

impl Kernel {
    /// Lowercase label for metric families (`kernel=scalar` etc.).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// Cached dispatch decision: 0 = unresolved, else a `Kernel` discriminant.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The kernel the dispatcher currently routes [`weight`] /
/// [`and_weight`] / [`and_weight_each_into`] to. Resolved once via
/// feature detection on first use, then served from an atomic.
#[inline]
pub fn active_kernel() -> Kernel {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Kernel::Scalar,
        2 => Kernel::Avx2,
        _ => resolve_and_cache(),
    }
}

#[cold]
fn resolve_and_cache() -> Kernel {
    let k = detect_kernel();
    ACTIVE.store(k as u8, Ordering::Relaxed);
    k
}

/// The best kernel this host supports, honouring the
/// `DCS_FORCE_SCALAR` environment override (any value other than `0`
/// pins [`Kernel::Scalar`]).
pub(crate) fn detect_kernel() -> Kernel {
    let forced = std::env::var_os("DCS_FORCE_SCALAR").is_some_and(|v| v != "0");
    if has_avx2() && !forced {
        Kernel::Avx2
    } else {
        Kernel::Scalar
    }
}

/// Whether [`Kernel::Avx2`] may run here: AVX2 for the vector bodies and
/// POPCNT for [`and_weight_each_into`]'s short columns.
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("popcnt");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Number of `u64` words needed to store `bits` bits.
#[inline]
pub const fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Mask keeping only the valid bits of the final word of a `bits`-bit vector.
///
/// Returns `u64::MAX` when `bits` is a multiple of 64 (every bit of the last
/// word is valid).
#[inline]
pub const fn tail_mask(bits: usize) -> u64 {
    let rem = bits % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// Population count of a word slice (runtime-dispatched kernel).
#[inline]
pub fn weight(words: &[u64]) -> u32 {
    weight_with(active_kernel(), words)
}

/// [`weight`] through an explicitly chosen kernel.
#[inline]
pub(crate) fn weight_with(kernel: Kernel, words: &[u64]) -> u32 {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if words.len() >= crate::simd::AVX2_MIN_WORDS => crate::simd::weight(words),
        _ => weight_scalar(words),
    }
}

/// Straight-line reference implementation of [`weight`].
#[inline]
pub fn weight_scalar(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Population count of the bitwise AND of two equal-length slices, without
/// materialising the AND ("number of common 1's" in the paper's terms).
/// Runtime-dispatched kernel; see the module docs for the length invariant.
#[inline]
pub fn and_weight(a: &[u64], b: &[u64]) -> u32 {
    and_weight_with(active_kernel(), a, b)
}

/// [`and_weight`] through an explicitly chosen kernel.
#[inline]
pub(crate) fn and_weight_with(kernel: Kernel, a: &[u64], b: &[u64]) -> u32 {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if a.len() >= crate::simd::AVX2_MIN_WORDS => crate::simd::and_weight(a, b),
        _ => and_weight_scalar(a, b),
    }
}

/// Straight-line reference implementation of [`and_weight`].
///
/// # Panics
/// Panics if the slices have different lengths (debug builds only).
#[inline]
pub fn and_weight_scalar(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "and_weight_scalar: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

/// AND-weight of one base slice against a run of contiguous columns:
/// `out[k] = and_weight(base, column k)`, where column `k` is the
/// `base.len()` words of `words` starting at `k * base.len()` — the
/// layout of [`ColMatrix::column_range`](crate::ColMatrix::column_range).
///
/// This is the kernel under the aligned search's candidate fan-outs and
/// its expansion sweep, where one product is intersected with every
/// remaining column. The dispatch is paid once per run, not per column,
/// and on [`Kernel::Avx2`] a column shorter than the vector threshold
/// costs one hardware `popcnt` per word.
///
/// # Panics
/// Panics if `words` is not exactly `out.len()` columns of `base.len()`
/// words.
#[inline]
pub fn and_weight_each_into(base: &[u64], words: &[u64], out: &mut [u32]) {
    and_weight_each_with(active_kernel(), base, words, out);
}

/// [`and_weight_each_into`] through an explicitly chosen kernel.
pub(crate) fn and_weight_each_with(kernel: Kernel, base: &[u64], words: &[u64], out: &mut [u32]) {
    assert_eq!(
        words.len(),
        base.len() * out.len(),
        "and_weight_each_into: `words` must hold out.len() columns of base.len() words"
    );
    if base.is_empty() {
        return out.fill(0);
    }
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Avx2 {
        return crate::simd::and_weight_each_into(base, words, out);
    }
    for (o, col) in out.iter_mut().zip(words.chunks_exact(base.len())) {
        *o = and_weight_with(kernel, base, col);
    }
}

/// In-place bitwise AND: `dst &= src`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "and_assign: length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= *s;
    }
}

/// In-place bitwise OR: `dst |= src`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "or_assign: length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= *s;
    }
}

/// Iterator over the indices of set bits in a word slice.
pub fn iter_ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let base = wi * WORD_BITS;
        OnesInWord(w).map(move |b| base + b)
    })
}

/// Iterator over set-bit positions inside a single word.
pub(crate) struct OnesInWord(pub(crate) u64);

impl Iterator for OnesInWord {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Kernels usable on this host: always [`Kernel::Scalar`];
    /// [`Kernel::Avx2`] too when the CPU has it. Tests iterate this list to
    /// assert bit-identity across dispatch targets.
    pub(crate) fn available_kernels() -> &'static [Kernel] {
        if has_avx2() {
            &[Kernel::Scalar, Kernel::Avx2]
        } else {
            &[Kernel::Scalar]
        }
    }

    /// Overrides the dispatch cache; `None` clears the override so the
    /// next call re-detects. The effect is process-global.
    ///
    /// # Panics
    /// Panics if `Kernel::Avx2` is forced on a host without AVX2 — the
    /// vector kernels would be unsound to execute there.
    pub(crate) fn force_kernel(kernel: Option<Kernel>) {
        if kernel == Some(Kernel::Avx2) {
            assert!(has_avx2(), "cannot force the AVX2 kernel: host lacks AVX2");
        }
        ACTIVE.store(kernel.map_or(0, |k| k as u8), Ordering::Relaxed);
    }

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(1024), 16);
    }

    #[test]
    fn tail_mask_edges() {
        assert_eq!(tail_mask(64), u64::MAX);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(63), u64::MAX >> 1);
        assert_eq!(tail_mask(128), u64::MAX);
    }

    #[test]
    fn and_weight_counts_intersection() {
        let a = [0b1011u64, u64::MAX];
        let b = [0b0011u64, 0b1];
        assert_eq!(and_weight(&a, &b), 2 + 1);
    }

    #[test]
    fn iter_ones_positions() {
        let words = [1u64 << 3 | 1 << 63, 1u64];
        let ones: Vec<usize> = iter_ones(&words).collect();
        assert_eq!(ones, vec![3, 63, 64]);
    }

    #[test]
    fn iter_ones_empty() {
        let words = [0u64, 0];
        assert_eq!(iter_ones(&words).count(), 0);
    }

    /// Deterministic pseudo-random fill so these tests need no RNG dep.
    fn splitmix_fill(len: usize, mut seed: u64) -> Vec<u64> {
        (0..len)
            .map(|_| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn every_kernel_matches_scalar_across_lane_remainders() {
        // Lengths from 0 to five times the vector threshold exercise the
        // short-slice fallback, the dispatch threshold, the vector body
        // and every remainder past a whole 4-word vector.
        for &k in available_kernels() {
            for len in 0..=40 {
                let a = splitmix_fill(len, 1);
                let b = splitmix_fill(len, 2);
                assert_eq!(
                    weight_with(k, &a),
                    weight_scalar(&a),
                    "{k:?} weight len={len}"
                );
                assert_eq!(
                    and_weight_with(k, &a, &b),
                    and_weight_scalar(&a, &b),
                    "{k:?} and_weight len={len}"
                );
            }
        }
    }

    #[test]
    fn forced_kernel_redirects_dispatch() {
        let a = splitmix_fill(100, 9);
        let expect = weight_scalar(&a);
        for &k in available_kernels() {
            force_kernel(Some(k));
            assert_eq!(active_kernel(), k);
            assert_eq!(weight(&a), expect, "{k:?}");
        }
        force_kernel(None);
        assert_eq!(active_kernel(), detect_kernel());
    }
}
