//! Rabin fingerprints over GF(2) with table-driven updates.
//!
//! A message `b_0 b_1 … b_{k-1}` is interpreted as a polynomial over GF(2)
//! and reduced modulo a fixed irreducible degree-64 polynomial. Fingerprints
//! are linear, so equal byte strings always collide and distinct strings
//! collide with probability ~`k/2^64` — exactly the property the paper's
//! content-signature bitmaps rely on.

use crate::gf2::{is_irreducible64, mulmod, x_pow_mod};

/// The modulus `x^64 + x^4 + x^3 + x + 1`. Every monitoring point must
/// fingerprint a payload to the same residue, so it is one constant.
pub const POLY: u64 = 0x1B;

// A reducible modulus gives structured collisions, silently ruining
// detection accuracy.
const _: () = assert!(
    is_irreducible64(POLY),
    "the Rabin modulus x^64 + POLY is not irreducible"
);

/// `TABLES[k][v]` = residue of `v(x) · x^(64+8k)` modulo `x^64 + POLY`:
/// where byte `k` of the state lands after the state is shifted up by one
/// 64-bit word. `TABLES[0]` alone folds the 8 bits that overflow on a
/// single byte shift. Built at compile time, as `crc32`'s tables are; the
/// 16 KiB exist once per process.
static TABLES: [[u64; 256]; 8] = {
    let mut tables = [[0u64; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let shift = x_pow_mod(64 + 8 * k as u64, POLY);
        let mut v = 0;
        while v < 256 {
            tables[k][v] = mulmod(v as u64, shift, POLY);
            v += 1;
        }
        k += 1;
    }
    tables
};

/// Appends one byte to a fingerprint state.
#[inline]
pub(crate) fn append_byte(f: u64, byte: u8) -> u64 {
    (f << 8 | u64::from(byte)) ^ TABLES[0][(f >> 56) as usize]
}

/// Appends `bytes` to the state `f`, a 64-bit word at a time.
///
/// Appending eight bytes takes `f` to `f·x^64 + B` (`B` = the bytes as
/// a big-endian word). Splitting `f` into its bytes `f_k`,
/// `f·x^64 = Σ f_k·x^(64+8k)`, and each term is one look-up in
/// `TABLES[k]` — eight independent loads where the byte-serial fold
/// chains eight dependent ones, for the identical residue.
#[inline]
fn fold(mut f: u64, bytes: &[u8]) -> u64 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let b = u64::from_be_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        f = b
            ^ t[0][usize::from(f as u8)]
            ^ t[1][usize::from((f >> 8) as u8)]
            ^ t[2][usize::from((f >> 16) as u8)]
            ^ t[3][usize::from((f >> 24) as u8)]
            ^ t[4][usize::from((f >> 32) as u8)]
            ^ t[5][usize::from((f >> 40) as u8)]
            ^ t[6][usize::from((f >> 48) as u8)]
            ^ t[7][usize::from((f >> 56) as u8)];
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
