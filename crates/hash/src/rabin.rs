//! Rabin fingerprints over GF(2) with table-driven updates.
//!
//! A message `b_0 b_1 … b_{k-1}` is interpreted as a polynomial over GF(2)
//! and reduced modulo a fixed irreducible degree-64 polynomial. Fingerprints
//! are linear, so equal byte strings always collide and distinct strings
//! collide with probability ~`k/2^64` — exactly the property the paper's
//! content-signature bitmaps rely on.

use crate::gf2::{is_irreducible64, mulmod, x_pow_mod};

/// Default modulus: `x^64 + x^4 + x^3 + x + 1`, irreducible over GF(2)
/// (validated by `gf2::is_irreducible64` in tests).
pub const DEFAULT_POLY: u64 = 0x1B;

/// Table-driven Rabin fingerprinter for whole byte strings.
///
/// Holds eight 256-entry fold tables — 16 KiB on the heap — so a message
/// is folded eight bytes at a time. Build one per modulus and share it:
/// [`IndexHasher`](crate::IndexHasher) borrows a single process-wide
/// instance for [`DEFAULT_POLY`].
#[derive(Clone)]
pub struct RabinFingerprinter {
    poly: u64,
    /// `tables[k][v]` = residue of `v(x) · x^(64+8k)` modulo the modulus:
    /// where byte `k` of the state lands after the state is shifted up by
    /// one 64-bit word. `tables[0]` alone folds the 8 bits that overflow
    /// on a single byte shift.
    tables: Box<[[u64; 256]; 8]>,
}

impl std::fmt::Debug for RabinFingerprinter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RabinFingerprinter {{ poly: {:#x} }}", self.poly)
    }
}

impl RabinFingerprinter {
    /// Creates a fingerprinter for the modulus `x^64 + poly`.
    ///
    /// # Panics
    /// Panics if the modulus is not irreducible (a reducible modulus gives
    /// structured collisions, silently ruining detection accuracy).
    pub fn new(poly: u64) -> Self {
        assert!(
            is_irreducible64(poly),
            "Rabin modulus x^64 + {poly:#x} is not irreducible"
        );
        let mut tables = Box::new([[0u64; 256]; 8]);
        for (k, table) in tables.iter_mut().enumerate() {
            let shift = x_pow_mod(64 + 8 * k as u64, poly);
            for (v, slot) in table.iter_mut().enumerate() {
                *slot = mulmod(v as u64, shift, poly);
            }
        }
        RabinFingerprinter { poly, tables }
    }

    /// Appends one byte to a fingerprint state.
    #[inline]
    pub(crate) fn append_byte(&self, f: u64, byte: u8) -> u64 {
        (f << 8 | u64::from(byte)) ^ self.tables[0][(f >> 56) as usize]
    }

    /// Appends `bytes` to the state `f`, a 64-bit word at a time.
    ///
    /// Appending eight bytes takes `f` to `f·x^64 + B` (`B` = the bytes as
    /// a big-endian word). Splitting `f` into its bytes `f_k`,
    /// `f·x^64 = Σ f_k·x^(64+8k)`, and each term is one look-up in
    /// `tables[k]` — eight independent loads where the byte-serial fold
    /// chains eight dependent ones, for the identical residue.
    #[inline]
    fn fold(&self, mut f: u64, bytes: &[u8]) -> u64 {
        let t = &*self.tables;
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
            f = self.append_byte(f, b);
        }
        f
    }

    /// Fingerprint of a whole message.
    ///
    /// The state starts at 1 so messages differing only in leading zero
    /// bytes do not collide.
    pub fn fingerprint(&self, bytes: &[u8]) -> u64 {
        self.fold(1, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_messages_equal_fingerprints() {
        let fp = RabinFingerprinter::new(DEFAULT_POLY);
        assert_eq!(
            fp.fingerprint(b"hello world"),
            fp.fingerprint(b"hello world")
        );
    }

    #[test]
    fn distinct_messages_differ() {
        let fp = RabinFingerprinter::new(DEFAULT_POLY);
        assert_ne!(fp.fingerprint(b"hello"), fp.fingerprint(b"hellp"));
        assert_ne!(fp.fingerprint(b""), fp.fingerprint(b"\0"));
        assert_ne!(fp.fingerprint(b"\0a"), fp.fingerprint(b"a"));
    }

    #[test]
    fn append_is_linear_in_message_xor() {
        // Rabin fingerprints with the same length are affine: for equal
        // lengths, fp(a) ^ fp(b) == fp0(a ^ b) where fp0 is the
        // zero-state fold of the bytewise XOR.
        let fp = RabinFingerprinter::new(DEFAULT_POLY);
        let a = b"abcdefgh";
        let b = b"12345678";
        let x: Vec<u8> = a.iter().zip(b).map(|(p, q)| p ^ q).collect();
        assert_eq!(fp.fingerprint(a) ^ fp.fingerprint(b), fp.fold(0, &x));
    }

    #[test]
    #[should_panic(expected = "not irreducible")]
    fn reducible_modulus_rejected() {
        RabinFingerprinter::new(0);
    }

    #[test]
    fn collision_rate_is_tiny() {
        // 20k random-ish short messages: no collisions expected at 64 bits.
        use std::collections::HashSet;
        let fp = RabinFingerprinter::new(DEFAULT_POLY);
        let mut seen = HashSet::new();
        for i in 0..20_000u64 {
            let msg = i.wrapping_mul(0x9E3779B97F4A7C15).to_le_bytes();
            assert!(seen.insert(fp.fingerprint(&msg)), "collision at {i}");
        }
    }

    #[test]
    fn custom_irreducible_modulus_works() {
        let poly = crate::gf2::find_irreducible64(12345);
        let fp = RabinFingerprinter::new(poly);
        assert_ne!(fp.fingerprint(b"a"), fp.fingerprint(b"b"));
    }
}
