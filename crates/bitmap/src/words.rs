//! Low-level kernels over packed `u64` word slices.
//!
//! These free functions are the hot path of the whole analysis module: the
//! aligned-case product iterations and the unaligned-case pairwise row
//! correlation both reduce to "AND two word slices and count the ones".
//!
//! The popcount reductions ([`weight`], [`and_weight`], [`or_weight`])
//! dispatch at runtime to the best kernel the host supports (see
//! [`Kernel`]): an AVX2 nibble-lookup vector popcount on x86-64 CPUs
//! that have it, otherwise the portable *blocked* kernels
//! ([`weight_blocked`] and friends), which walk the slices in
//! [`LANES`]-word chunks and merge each chunk through a Harley–Seal
//! carry-save adder tree, so eight words cost two `count_ones` calls
//! (plus cheap bitwise ops) instead of eight. The carry registers
//! (`ones`, `twos`) are independent accumulators carried across chunks
//! and flushed once at the end. Slices shorter than [`CSA_MIN_WORDS`]
//! (blocked) or `AVX2_MIN_WORDS` (vector) take the straight-line path,
//! which the optimiser auto-vectorises well and which wins below each
//! kernel's fixed overhead. The straight-line reference versions are
//! kept as [`weight_scalar`] / [`and_weight_scalar`] /
//! [`or_weight_scalar`]; the property tests assert every dispatch
//! target is bit-identical to them.
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
//! scalar reference path (CI uses this to keep the portable fallback
//! green on AVX2 hosts); [`force_kernel`] overrides the cache from
//! tests and benches.
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
/// All three produce bit-identical results (asserted by the property
/// tests); they differ only in speed and portability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kernel {
    /// Straight-line portable loop (`*_scalar`): the reference semantics.
    Scalar = 1,
    /// Harley–Seal carry-save blocked kernels: the portable default.
    Blocked = 2,
    /// AVX2 nibble-lookup vector popcount (x86-64 with AVX2 only).
    Avx2 = 3,
}

impl Kernel {
    /// Lowercase label for metric families (`kernel=scalar` etc.).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Blocked => "blocked",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// Cached dispatch decision: 0 = unresolved, else a `Kernel` discriminant.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The kernel the dispatcher currently routes [`weight`] /
/// [`and_weight`] / [`or_weight`] / [`and_weight_each_into`] to. Resolved
/// once via feature detection on first use, then served from an atomic.
#[inline]
pub fn active_kernel() -> Kernel {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Kernel::Scalar,
        2 => Kernel::Blocked,
        3 => Kernel::Avx2,
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
pub fn detect_kernel() -> Kernel {
    if std::env::var_os("DCS_FORCE_SCALAR").is_some_and(|v| v != "0") {
        return Kernel::Scalar;
    }
    if has_avx2() {
        return Kernel::Avx2;
    }
    Kernel::Blocked
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

/// Kernels usable on this host: always [`Kernel::Scalar`] and
/// [`Kernel::Blocked`]; [`Kernel::Avx2`] when the CPU has it. Tests
/// iterate this list to assert bit-identity across dispatch targets.
pub fn available_kernels() -> &'static [Kernel] {
    if has_avx2() {
        return &[Kernel::Scalar, Kernel::Blocked, Kernel::Avx2];
    }
    &[Kernel::Scalar, Kernel::Blocked]
}

/// Overrides the dispatch cache (tests and benches); `None` clears the
/// override so the next call re-detects. The effect is process-global.
///
/// # Panics
/// Panics if `Kernel::Avx2` is forced on a host without AVX2 — the
/// vector kernels would be unsound to execute there.
pub fn force_kernel(kernel: Option<Kernel>) {
    if kernel == Some(Kernel::Avx2) {
        assert!(
            available_kernels().contains(&Kernel::Avx2),
            "cannot force the AVX2 kernel: host lacks AVX2"
        );
    }
    ACTIVE.store(kernel.map_or(0, |k| k as u8), Ordering::Relaxed);
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

/// Words per unrolled chunk of the blocked popcount kernels; one chunk is
/// merged through the carry-save tree in a single loop iteration.
pub const LANES: usize = 8;

/// Minimum slice length (in words) for the carry-save path; shorter
/// slices use the straight-line kernels, which win below the tree's
/// fixed setup/flush overhead (measured crossover ≈ 3 chunks).
pub const CSA_MIN_WORDS: usize = 4 * LANES;

/// Carry-save adder: adds three bit-columns, returning (sum, carry).
#[inline(always)]
fn csa(x: u64, y: u64, z: u64) -> (u64, u64) {
    let u = x ^ y;
    (u ^ z, (x & y) | (u & z))
}

/// Harley–Seal reduction: total population count of all words produced by
/// `chunks`, using two `count_ones` per [`LANES`]-word chunk.
///
/// Each chunk's eight words are compressed through a CSA tree: four CSAs
/// at the ones level, two at the twos level; the resulting "fours" carries
/// are popcounted immediately (weight 4) while `ones`/`twos` ride across
/// chunks and are flushed once at the end.
#[inline(always)]
fn csa_reduce(chunks: impl Iterator<Item = [u64; LANES]>) -> u64 {
    let mut total = 0u64;
    let mut ones = 0u64;
    let mut twos = 0u64;
    for w in chunks {
        let (o1, t1) = csa(ones, w[0], w[1]);
        let (o2, t2) = csa(o1, w[2], w[3]);
        let (o3, t3) = csa(o2, w[4], w[5]);
        let (o4, t4) = csa(o3, w[6], w[7]);
        ones = o4;
        let (tw1, f1) = csa(twos, t1, t2);
        let (tw2, f2) = csa(tw1, t3, t4);
        twos = tw2;
        // popcount(f1) + popcount(f2) via two disjoint popcounts.
        total += 4 * u64::from((f1 | f2).count_ones()) + 4 * u64::from((f1 & f2).count_ones());
    }
    total + 2 * u64::from(twos.count_ones()) + u64::from(ones.count_ones())
}

/// Population count of a word slice (runtime-dispatched kernel).
#[inline]
pub fn weight(words: &[u64]) -> u32 {
    weight_with(active_kernel(), words)
}

/// [`weight`] through an explicitly chosen kernel (tests and benches).
#[inline]
pub fn weight_with(kernel: Kernel, words: &[u64]) -> u32 {
    match kernel {
        Kernel::Scalar => weight_scalar(words),
        Kernel::Blocked => weight_blocked(words),
        Kernel::Avx2 => weight_avx2(words),
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn weight_avx2(words: &[u64]) -> u32 {
    if words.len() < crate::simd::AVX2_MIN_WORDS {
        weight_scalar(words)
    } else {
        crate::simd::weight(words)
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn weight_avx2(words: &[u64]) -> u32 {
    weight_blocked(words)
}

/// Population count of a word slice (portable blocked kernel).
#[inline]
pub fn weight_blocked(words: &[u64]) -> u32 {
    if words.len() < CSA_MIN_WORDS {
        return weight_scalar(words);
    }
    let chunks = words.chunks_exact(LANES);
    let tail = chunks.remainder();
    let main = csa_reduce(chunks.map(|c| core::array::from_fn(|l| c[l])));
    main as u32 + weight_scalar(tail)
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

/// [`and_weight`] through an explicitly chosen kernel (tests and benches).
#[inline]
pub fn and_weight_with(kernel: Kernel, a: &[u64], b: &[u64]) -> u32 {
    match kernel {
        Kernel::Scalar => and_weight_scalar(a, b),
        Kernel::Blocked => and_weight_blocked(a, b),
        Kernel::Avx2 => and_weight_avx2(a, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn and_weight_avx2(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "and_weight: length mismatch");
    if a.len() < crate::simd::AVX2_MIN_WORDS {
        and_weight_scalar(a, b)
    } else {
        crate::simd::and_weight(a, b)
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn and_weight_avx2(a: &[u64], b: &[u64]) -> u32 {
    and_weight_blocked(a, b)
}

/// Portable blocked implementation of [`and_weight`].
#[inline]
pub fn and_weight_blocked(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "and_weight: length mismatch");
    if a.len() < CSA_MIN_WORDS {
        return and_weight_scalar(a, b);
    }
    let ca = a.chunks_exact(LANES);
    let cb = b.chunks_exact(LANES);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    let main = csa_reduce(
        ca.zip(cb)
            .map(|(x, y)| core::array::from_fn(|l| x[l] & y[l])),
    );
    main as u32 + and_weight_scalar(ta, tb)
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

/// Population count of the bitwise OR of two equal-length slices.
/// Runtime-dispatched kernel; see the module docs for the length invariant.
#[inline]
pub fn or_weight(a: &[u64], b: &[u64]) -> u32 {
    or_weight_with(active_kernel(), a, b)
}

/// [`or_weight`] through an explicitly chosen kernel (tests and benches).
#[inline]
pub fn or_weight_with(kernel: Kernel, a: &[u64], b: &[u64]) -> u32 {
    match kernel {
        Kernel::Scalar => or_weight_scalar(a, b),
        Kernel::Blocked => or_weight_blocked(a, b),
        Kernel::Avx2 => or_weight_avx2(a, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn or_weight_avx2(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "or_weight: length mismatch");
    if a.len() < crate::simd::AVX2_MIN_WORDS {
        or_weight_scalar(a, b)
    } else {
        crate::simd::or_weight(a, b)
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn or_weight_avx2(a: &[u64], b: &[u64]) -> u32 {
    or_weight_blocked(a, b)
}

/// Portable blocked implementation of [`or_weight`].
#[inline]
pub fn or_weight_blocked(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "or_weight: length mismatch");
    if a.len() < CSA_MIN_WORDS {
        return or_weight_scalar(a, b);
    }
    let ca = a.chunks_exact(LANES);
    let cb = b.chunks_exact(LANES);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    let main = csa_reduce(
        ca.zip(cb)
            .map(|(x, y)| core::array::from_fn(|l| x[l] | y[l])),
    );
    main as u32 + or_weight_scalar(ta, tb)
}

/// Straight-line reference implementation of [`or_weight`].
#[inline]
pub fn or_weight_scalar(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "or_weight_scalar: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x | y).count_ones()).sum()
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

/// [`and_weight_each_into`] through an explicitly chosen kernel (tests
/// and benches).
pub fn and_weight_each_with(kernel: Kernel, base: &[u64], words: &[u64], out: &mut [u32]) {
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

/// Write `a & b` into `dst` and return the weight of the result in one pass.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn and_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "and_into: length mismatch");
    assert_eq!(dst.len(), a.len(), "and_into: dst length mismatch");
    let mut weight = 0;
    for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
        let v = x & y;
        weight += v.count_ones();
        *d = v;
    }
    weight
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
mod tests {
    use super::*;

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
    fn or_weight_counts_union() {
        let a = [0b1010u64];
        let b = [0b0110u64];
        assert_eq!(or_weight(&a, &b), 3);
    }

    #[test]
    fn and_into_matches_and_assign() {
        let a = [0xDEAD_BEEF_u64, 0x1234];
        let b = [0xF0F0_F0F0_u64, 0xFFFF];
        let mut dst = [0u64; 2];
        let w = and_into(&mut dst, &a, &b);
        let mut manual = a;
        and_assign(&mut manual, &b);
        assert_eq!(dst, manual);
        assert_eq!(w, weight(&manual));
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
        // Lengths from 0 to well past CSA_MIN_WORDS exercise each
        // kernel's short-slice fallback, its dispatch threshold, its
        // main body, and all possible remainder sizes.
        for &k in available_kernels() {
            for len in 0..=CSA_MIN_WORDS + 3 * LANES {
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
                assert_eq!(
                    or_weight_with(k, &a, &b),
                    or_weight_scalar(&a, &b),
                    "{k:?} or_weight len={len}"
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
