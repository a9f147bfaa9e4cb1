//! Rabin fingerprints over GF(2), folded with shifts and XORs.
//!
//! A message `b_0 b_1 … b_{k-1}` is interpreted as a polynomial over GF(2)
//! and reduced modulo a fixed irreducible degree-64 polynomial. Fingerprints
//! are linear, so equal byte strings always collide and distinct strings
//! collide with probability ~`k/2^64` — exactly the property the paper's
//! content-signature bitmaps rely on.

use crate::gf2::is_irreducible64;

/// The modulus `x^64 + x^4 + x^3 + x + 1`. Every monitoring point must
/// fingerprint a payload to the same residue, so it is one constant.
pub const POLY: u64 = 0x1B;

// A reducible modulus gives structured collisions, silently ruining
// detection accuracy.
const _: () = assert!(
    is_irreducible64(POLY),
    "the Rabin modulus x^64 + POLY is not irreducible"
);

/// `t · POLY` for `t` of degree below 60, where the product cannot
/// overflow 64 bits: one shift a term of `POLY`, which has four.
#[inline(always)]
const fn times_poly(t: u64) -> u64 {
    t ^ t << 1 ^ t << 3 ^ t << 4
}

// The shifts above are POLY's terms.
const _: () = assert!(
    times_poly(1) == POLY,
    "times_poly does not multiply by POLY"
);

/// `f · x^64` modulo `x^64 + POLY`, which is `f · POLY`. The product's
/// low 64 bits are `times_poly(f)` with the shifted-out bits dropped; the
/// dropped bits, `f >> (64 − s)` for each shift `s`, are a residue of
/// degree below 4, whose own `· x^64` is one more `times_poly` that no
/// longer overflows.
#[inline(always)]
const fn times_x64(f: u64) -> u64 {
    let over = f >> 63 ^ f >> 61 ^ f >> 60;
    times_poly(f) ^ times_poly(over)
}

/// Appends one byte to a fingerprint state: `f · x^8 + byte`, where the
/// top byte of `f` that the shift pushes past `x^63` comes back as
/// `(f >> 56) · POLY`.
#[inline]
pub(crate) fn append_byte(f: u64, byte: u8) -> u64 {
    (f << 8 | u64::from(byte)) ^ times_poly(f >> 56)
}

/// Appends `bytes` to the state `f`, a 64-bit word at a time: eight
/// bytes take `f` to `f·x^64 + B` (`B` = the bytes as a big-endian word),
/// the same residue as eight [`append_byte`] steps.
#[inline]
fn fold(mut f: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let b = u64::from_be_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        f = times_x64(f) ^ b;
    }
    for &b in words.remainder() {
        f = append_byte(f, b);
    }
    f
}

/// Fingerprint of a whole message.
///
/// The state starts at 1 so messages differing only in leading zero
/// bytes do not collide.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    fold(1, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_messages_equal_fingerprints() {
        assert_eq!(fingerprint(b"hello world"), fingerprint(b"hello world"));
    }

    #[test]
    fn distinct_messages_differ() {
        assert_ne!(fingerprint(b"hello"), fingerprint(b"hellp"));
        assert_ne!(fingerprint(b""), fingerprint(b"\0"));
        assert_ne!(fingerprint(b"\0a"), fingerprint(b"a"));
    }

    #[test]
    fn append_is_linear_in_message_xor() {
        // Rabin fingerprints with the same length are affine: for equal
        // lengths, fp(a) ^ fp(b) == fp0(a ^ b) where fp0 is the
        // zero-state fold of the bytewise XOR.
        let a = b"abcdefgh";
        let b = b"12345678";
        let x: Vec<u8> = a.iter().zip(b).map(|(p, q)| p ^ q).collect();
        assert_eq!(fingerprint(a) ^ fingerprint(b), fold(0, &x));
    }

    #[test]
    fn collision_rate_is_tiny() {
        // 20k random-ish short messages: no collisions expected at 64 bits.
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..20_000u64 {
            let msg = i.wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes();
            assert!(seen.insert(fingerprint(&msg)), "collision at {i}");
        }
    }
}
