//! Rabin fingerprints over GF(2) with table-driven updates and rolling
//! windows.
//!
//! A message `b_0 b_1 … b_{k-1}` is interpreted as a polynomial over GF(2)
//! and reduced modulo a fixed irreducible degree-64 polynomial. Fingerprints
//! are linear, so equal byte strings always collide and distinct strings
//! collide with probability ~`k/2^64` — exactly the property the paper's
//! content-signature bitmaps rely on. The rolling variant supports the
//! future-work direction of similar-content detection (shingling every
//! window of a payload, Section VI).

use crate::gf2::{is_irreducible64, mulmod, x_pow_mod};
use std::collections::VecDeque;

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

    /// The low bits of the modulus.
    pub fn poly(&self) -> u64 {
        self.poly
    }

    /// Appends one byte to a fingerprint state.
    #[inline]
    pub fn append_byte(&self, f: u64, byte: u8) -> u64 {
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

    /// Fingerprint of a fixed-length window, with zero initial state (the
    /// convention of [`RollingRabin`], where the window length is fixed and
    /// the leading-zero ambiguity cannot arise). Use this to compare against
    /// rolling fingerprints.
    pub fn window_fingerprint(&self, bytes: &[u8]) -> u64 {
        self.fold(0, bytes)
    }
}

/// O(1)-per-byte rolling Rabin fingerprint over a fixed-size window.
pub struct RollingRabin {
    fp: RabinFingerprinter,
    window: usize,
    /// `out_table[b]` = residue of `b(x) · x^(8·window)`: the contribution of
    /// the byte about to leave the window.
    out_table: Box<[u64; 256]>,
    buf: VecDeque<u8>,
    f: u64,
}

impl std::fmt::Debug for RollingRabin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RollingRabin {{ poly: {:#x}, window: {}, filled: {} }}",
            self.fp.poly,
            self.window,
            self.buf.len()
        )
    }
}

impl RollingRabin {
    /// Creates a rolling fingerprinter over windows of `window` bytes.
    ///
    /// # Panics
    /// Panics if `window == 0` or the modulus is not irreducible.
    pub fn new(poly: u64, window: usize) -> Self {
        assert!(window > 0, "rolling window must be non-empty");
        let fp = RabinFingerprinter::new(poly);
        let xw = x_pow_mod(8 * window as u64, poly);
        let mut out_table = Box::new([0u64; 256]);
        for b in 0u64..256 {
            out_table[b as usize] = mulmod(b, xw, poly);
        }
        RollingRabin {
            fp,
            window,
            out_table,
            buf: VecDeque::with_capacity(window),
            f: 0,
        }
    }

    /// Window length in bytes.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Pushes a byte; returns the fingerprint of the current window once at
    /// least `window` bytes have been seen, `None` while filling.
    #[inline]
    pub fn push(&mut self, byte: u8) -> Option<u64> {
        self.f = self.fp.append_byte(self.f, byte);
        self.buf.push_back(byte);
        if self.buf.len() > self.window {
            let old = self.buf.pop_front().expect("buffer longer than window");
            self.f ^= self.out_table[old as usize];
        }
        (self.buf.len() == self.window).then_some(self.f)
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.f = 0;
    }

    /// Fingerprints of every full window of `bytes`, from scratch.
    pub fn windows_of(poly: u64, window: usize, bytes: &[u8]) -> Vec<u64> {
        let mut roll = RollingRabin::new(poly, window);
        bytes.iter().filter_map(|&b| roll.push(b)).collect()
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
        // lengths, fp(a) ^ fp(b) == fp0(a ^ b) where fp0 is the zero-init
        // window fingerprint of the bytewise XOR.
        let fp = RabinFingerprinter::new(DEFAULT_POLY);
        let a = b"abcdefgh";
        let b = b"12345678";
        let x: Vec<u8> = a.iter().zip(b).map(|(p, q)| p ^ q).collect();
        assert_eq!(
            fp.fingerprint(a) ^ fp.fingerprint(b),
            fp.window_fingerprint(&x)
        );
    }

    #[test]
    #[should_panic(expected = "not irreducible")]
    fn reducible_modulus_rejected() {
        RabinFingerprinter::new(0);
    }

    #[test]
    fn rolling_matches_from_scratch() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let fp = RabinFingerprinter::new(DEFAULT_POLY);
        let w = 8;
        let rolled = RollingRabin::windows_of(DEFAULT_POLY, w, data);
        assert_eq!(rolled.len(), data.len() - w + 1);
        for (i, &r) in rolled.iter().enumerate() {
            assert_eq!(
                r,
                fp.window_fingerprint(&data[i..i + w]),
                "window {i} mismatch"
            );
        }
    }

    #[test]
    fn rolling_detects_shared_window() {
        // Two messages sharing a 16-byte substring at different offsets
        // produce at least one identical window fingerprint — the unaligned
        // case's core mechanism.
        let common = b"COMMON-CONTENT!!";
        let mut m1 = b"prefix-A-".to_vec();
        m1.extend_from_slice(common);
        let mut m2 = b"other-longer-prefix-".to_vec();
        m2.extend_from_slice(common);
        let f1 = RollingRabin::windows_of(DEFAULT_POLY, 16, &m1);
        let f2 = RollingRabin::windows_of(DEFAULT_POLY, 16, &m2);
        assert!(
            f1.iter().any(|f| f2.contains(f)),
            "shared window not detected"
        );
    }

    #[test]
    fn rolling_none_while_filling() {
        let mut r = RollingRabin::new(DEFAULT_POLY, 4);
        assert_eq!(r.push(1), None);
        assert_eq!(r.push(2), None);
        assert_eq!(r.push(3), None);
        assert!(r.push(4).is_some());
        assert!(r.push(5).is_some());
        r.reset();
        assert_eq!(r.push(6), None);
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
