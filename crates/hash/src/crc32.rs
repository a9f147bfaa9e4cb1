//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`), implemented
//! in-repo so the transport layer needs no external dependency.
//!
//! The digest transport envelope (`dcs-core::transport`) trails every
//! chunk frame and every collector checkpoint with this checksum, so
//! truncation and bit-flips on the measurement plane are *detectable*
//! rather than silently decoded into garbage. CRC-32 is an
//! error-detection code, not a MAC: it defends against line noise, not
//! adversaries — the structural validation in `dcs-collect::wire` and
//! `dcs-core::ingest` remains the backstop either way.
//!
//! Two kernels compute the same checksum. [`Crc32::update`] picks one
//! once per process:
//!
//! * **Carry-less folding** (x86-64 with PCLMULQDQ and SSE4.1), after
//!   Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ" (Intel). Four 128-bit lanes each fold 16 bytes forward
//!   by 64 bytes a step with two carry-less multiplies; the lanes merge
//!   into one, a 16-byte loop folds what is left, and a Barrett
//!   reduction brings the 128-bit remainder down to 32 bits. The
//!   x^k mod P constants are derived from [`POLY`] at compile time.
//!   Inputs shorter than 64 bytes and the last < 16 bytes of a longer
//!   one go through the sliced kernel.
//! * **Slicing-by-16**: sixteen 256-entry tables computed at compile time
//!   (16 KiB), where `TABLES[k][b]` is the remainder of byte `b` followed
//!   by `k` zero bytes. A 16-byte block is two `u64` loads and sixteen
//!   lookups that do not depend on one another. It runs on every other
//!   host, everywhere when `DCS_FORCE_SCALAR` is set (to anything but
//!   `0`), and is the oracle the folding kernel is tested against; the
//!   byte-at-a-time loop over `TABLES[0]` is its own oracle.
//!
//! Both compute the IEEE polynomial, so the choice never changes a wire
//! byte. (SSE4.2's `crc32` instruction computes CRC-32C, a different
//! polynomial, and is not used.) [`Crc32`] streams over split buffers,
//! [`crc32`] is the one-shot convenience.

use std::sync::OnceLock;

/// The reflected IEEE 802.3 generator polynomial.
pub const POLY: u32 = 0xEDB8_8320;

/// Remainder tables for [`POLY`], built at compile time: `TABLES[0]` is
/// the classic byte-indexed table, `TABLES[k][b]` advances `TABLES[k - 1][b]`
/// past one more zero byte.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut byte = 0usize;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut byte = 0usize;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `bytes` into the raw (pre-inversion) state one byte at a time.
fn fold_bytes(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Folds `bytes` into the raw state sixteen bytes a step (slicing-by-16).
fn sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    for block in blocks {
        let lo = (u64::from_le_bytes(block[..8].try_into().expect("8-byte half")) ^ u64::from(crc))
            .to_le_bytes();
        crc = 0;
        for i in 0..8 {
            crc ^= TABLES[15 - i][usize::from(lo[i])] ^ TABLES[7 - i][usize::from(block[8 + i])];
        }
    }
    fold_bytes(crc, tail)
}

/// Folds `bytes` into the raw state by carry-less multiply where the host
/// has it and the input is long enough; the sliced kernel takes the rest.
fn folded(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        let (blocks, tail) = bytes.as_chunks::<16>();
        return sliced(clmul::fold(crc, blocks), tail);
    }
    sliced(crc, bytes)
}

/// Whether `DCS_FORCE_SCALAR` (any value but `0`) pins the sliced
/// kernel, read once per process.
fn sliced_pinned() -> bool {
    static PINNED: OnceLock<bool> = OnceLock::new();
    *PINNED.get_or_init(|| std::env::var_os("DCS_FORCE_SCALAR").is_some_and(|v| v != "0"))
}

/// x^`k` mod P in the reflected domain (x^0 is bit 31).
const fn xpow_mod(k: u32) -> u32 {
    let mut r = 1u32 << 31;
    let mut i = 0;
    while i < k {
        r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
        i += 1;
    }
    r
}

/// A folding constant: x^`k` mod P, reflected and shifted into the
/// 33-bit form the carry-less products expect.
const fn fold_key(k: u32) -> u64 {
    (xpow_mod(k) as u64) << 1
}

/// The full 33-bit generator, reflected (x^32 is bit 0).
const P_REFLECTED: u64 = ((POLY as u64) << 1) | 1;

/// ⌊x^64 / P⌋, the Barrett constant, reflected over its 33 bits.
const MU_REFLECTED: u64 = {
    // Long division in the normal (unreflected) domain.
    let p = (1u128 << 32) | POLY.reverse_bits() as u128;
    let mut rem = 1u128 << 64;
    let mut quotient = 0u64;
    let mut bit = 64;
    while bit >= 32 {
        if rem >> bit & 1 == 1 {
            quotient |= 1 << (bit - 32);
            rem ^= p << (bit - 32);
        }
        bit -= 1;
    }
    quotient.reverse_bits() >> 31
};

/// The folding kernel. This is the only module in the crate allowed to
/// use `unsafe`, for one block: the call into the `#[target_feature]`
/// body, made right after checking that the host has the features it
/// enables. Inside the body the intrinsics are safe calls, and every
/// lane is loaded with `u128::from_le_bytes`, never through a pointer.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use super::{fold_key, MU_REFLECTED, P_REFLECTED};
    use core::arch::x86_64::*;

    /// Shortest input folded: the four lanes' first loads.
    pub(super) const MIN_LEN: usize = 64;

    /// Fold four lanes forward by 512 bits: (x^(512+32), x^(512−32)).
    const FOLD_BY_4: (u64, u64) = (fold_key(4 * 128 + 32), fold_key(4 * 128 - 32));
    /// Fold one lane forward by 128 bits: (x^(128+32), x^(128−32)).
    const FOLD_BY_1: (u64, u64) = (fold_key(128 + 32), fold_key(128 - 32));
    /// Reduce 96 bits to 64: x^64.
    const FOLD_64: u64 = fold_key(64);

    /// Whether the host has both features the folding body enables.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Folds `blocks` (at least four) into the raw state `crc`.
    ///
    /// # Panics
    /// Panics on fewer than four blocks, or on a host without the
    /// features (callers check [`available`] first).
    pub(super) fn fold(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        assert!(blocks.len() >= MIN_LEN / 16, "fold: fewer than four blocks");
        assert!(available(), "carry-less CRC kernel on a host without it");
        // SAFETY: PCLMULQDQ and SSE4.1, all `fold_blocks` enables, were
        // detected on this host just above.
        unsafe { fold_blocks(crc, blocks) }
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn keys((lo, hi): (u64, u64)) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `lane` carried forward past the keys' distance, added to `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold16(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_blocks(crc: u32, blocks: &[[u8; 16]]) -> u32 {
        let (head, rest) = blocks.split_at(4);
        let mut lanes: [__m128i; 4] = core::array::from_fn(|i| load(&head[i]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let by4 = keys(FOLD_BY_4);
        let (steps, singles) = rest.as_chunks::<4>();
        for step in steps {
            for (lane, block) in lanes.iter_mut().zip(step) {
                *lane = fold16(*lane, load(block), by4);
            }
        }
        let by1 = keys(FOLD_BY_1);
        let mut x = fold16(lanes[0], lanes[1], by1);
        x = fold16(x, lanes[2], by1);
        x = fold16(x, lanes[3], by1);
        for block in singles {
            x = fold16(x, load(block), by1);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, by1), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), keys((FOLD_64, 0))),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, 64 → 32 bits, in the reflected domain.
        let pu = keys((P_REFLECTED, MU_REFLECTED));
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }
}

/// Streaming CRC-32 over arbitrarily split input.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum; chainable.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        self.state = if sliced_pinned() {
            sliced(self.state, bytes)
        } else {
            folded(self.state, bytes)
        };
        self
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time reference both kernels must equal.
    fn oracle(bytes: &[u8]) -> u32 {
        !fold_bytes(!0, bytes)
    }

    /// `kernel` over `pieces` in order, from a fresh state, finished.
    fn streamed(kernel: fn(u32, &[u8]) -> u32, pieces: &[&[u8]]) -> u32 {
        !pieces.iter().fold(!0, |crc, piece| kernel(crc, piece))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both kernels, directly, against the bytewise oracle: whole,
        /// and streamed in two and in three pieces.
        #[test]
        fn folded_and_sliced_kernels_equal_bytewise_oracle(
            buf in proptest::collection::vec(any::<u8>(), 8_208..8_209),
            misalign in 0usize..16,
            len in 0usize..=8_192,
            cut_a in any::<usize>(),
            cut_b in any::<usize>(),
        ) {
            let data = &buf[misalign..misalign + len];
            let want = oracle(data);
            let (a, b) = (cut_a % (data.len() + 1), cut_b % (data.len() + 1));
            let (a, b) = (a.min(b), a.max(b));
            for (name, kernel) in [("folded", folded as fn(u32, &[u8]) -> u32), ("sliced", sliced)] {
                prop_assert_eq!(streamed(kernel, &[data]), want, "{} whole", name);
                prop_assert_eq!(
                    streamed(kernel, &[&data[..a], &data[a..]]),
                    want,
                    "{} split at {}", name, a
                );
                prop_assert_eq!(
                    streamed(kernel, &[&data[..a], &data[a..b], &data[b..]]),
                    want,
                    "{} splits at {} and {}", name, a, b
                );
            }
            let mut three = Crc32::new();
            three.update(&data[..a]).update(&data[a..b]).update(&data[b..]);
            prop_assert_eq!(three.finish(), want, "dispatched, splits at {} and {}", a, b);
        }
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE, and vectors long
        // enough to reach the folding body.
        let long = [0x5Au8; 200];
        let cases: [(&[u8], u32); 5] = [
            (b"123456789", 0xCBF4_3926),
            (b"", 0),
            (b"a", 0xE8B7_BE43),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&long, oracle(&long)),
        ];
        for (bytes, want) in cases {
            assert_eq!(crc32(bytes), want);
            assert_eq!(!folded(!0, bytes), want, "folded");
            assert_eq!(!sliced(!0, bytes), want, "sliced");
        }
    }

    /// The compile-time constants equal the ones published with the
    /// algorithm (Intel's white paper, as used by Linux's crc32-pclmul).
    #[test]
    fn derived_constants_match_published_values() {
        assert_eq!(fold_key(4 * 128 + 32), 0x1_5444_2bd4);
        assert_eq!(fold_key(4 * 128 - 32), 0x1_c6e4_1596);
        assert_eq!(fold_key(128 + 32), 0x1_7519_97d0);
        assert_eq!(fold_key(128 - 32), 0x0_ccaa_009e);
        assert_eq!(fold_key(64), 0x1_63cd_6124);
        assert_eq!(P_REFLECTED, 0x1_db71_0641);
        assert_eq!(MU_REFLECTED, 0x1_f701_1641);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let whole = crc32(&data);
        for split in [0usize, 1, 7, 255, 4095, 4096] {
            let mut c = Crc32::new();
            c.update(&data[..split]).update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split} diverged");
        }
    }

    #[test]
    fn single_bit_flips_always_detected() {
        // CRC-32 detects every single-bit error within its span.
        let data = b"epoch digest chunk payload".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut mangled = data.clone();
                mangled[byte] ^= 1 << bit;
                assert_ne!(crc32(&mangled), reference, "flip {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let data = b"some frame body with a checksum appended".to_vec();
        let reference = crc32(&data);
        for cut in 0..data.len() {
            assert_ne!(
                crc32(&data[..cut]),
                reference,
                "truncation at {cut} undetected"
            );
        }
    }
}
