//! Property-based tests for the hashing substrate.

use crate::gf2::{mulmod, sqrmod, x_pow_mod};
use crate::rabin::{RabinFingerprinter, RollingRabin, DEFAULT_POLY};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gf2_mul_commutative_associative(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let m = DEFAULT_POLY;
        prop_assert_eq!(mulmod(a, b, m), mulmod(b, a, m));
        prop_assert_eq!(
            mulmod(mulmod(a, b, m), c, m),
            mulmod(a, mulmod(b, c, m), m)
        );
    }

    #[test]
    fn gf2_distributive(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let m = DEFAULT_POLY;
        prop_assert_eq!(
            mulmod(a, b ^ c, m),
            mulmod(a, b, m) ^ mulmod(a, c, m)
        );
    }

    #[test]
    fn gf2_square_matches_mul(a in any::<u64>()) {
        prop_assert_eq!(sqrmod(a, DEFAULT_POLY), mulmod(a, a, DEFAULT_POLY));
    }

    #[test]
    fn x_pow_additive(e1 in 0u64..10_000, e2 in 0u64..10_000) {
        // x^(e1+e2) = x^e1 · x^e2 in the field.
        let m = DEFAULT_POLY;
        prop_assert_eq!(
            x_pow_mod(e1 + e2, m),
            mulmod(x_pow_mod(e1, m), x_pow_mod(e2, m), m)
        );
    }

    #[test]
    fn rolling_equals_scratch(
        data in proptest::collection::vec(any::<u8>(), 1..200),
        window in 1usize..32,
    ) {
        prop_assume!(window <= data.len());
        let fp = RabinFingerprinter::new(DEFAULT_POLY);
        let rolled = RollingRabin::windows_of(DEFAULT_POLY, window, &data);
        prop_assert_eq!(rolled.len(), data.len() - window + 1);
        for (i, &r) in rolled.iter().enumerate() {
            prop_assert_eq!(r, fp.window_fingerprint(&data[i..i + window]));
        }
    }

    #[test]
    fn fingerprint_prefix_extension_is_consistent(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        b in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // fp(a ++ b) must equal continuing fp(a) with b's bytes.
        let fp = RabinFingerprinter::new(DEFAULT_POLY);
        let mut state = fp.fingerprint(&a);
        for &byte in &b {
            state = fp.append_byte(state, byte);
        }
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        prop_assert_eq!(state, fp.fingerprint(&ab));
    }

    #[test]
    fn word_fold_equals_byte_fold(
        data in proptest::collection::vec(any::<u8>(), 303..304),
        poly_seed in any::<u64>(),
    ) {
        // Every length 0..=300 at start offsets 0, 1 and 3, so the 8-byte
        // words fall on every alignment of the buffer; `append_byte` is
        // the byte-serial reference.
        let default = RabinFingerprinter::new(DEFAULT_POLY);
        let custom = RabinFingerprinter::new(crate::gf2::find_irreducible64(poly_seed));
        for fp in [&default, &custom] {
            for start in [0usize, 1, 3] {
                for len in 0..=300 {
                    let b = &data[start..start + len];
                    let serial = |init: u64| b.iter().fold(init, |f, &x| fp.append_byte(f, x));
                    prop_assert_eq!(fp.fingerprint(b), serial(1), "start {} len {}", start, len);
                    prop_assert_eq!(fp.window_fingerprint(b), serial(0), "start {} len {}", start, len);
                }
            }
        }
    }

    #[test]
    fn index_hasher_range(bytes in proptest::collection::vec(any::<u8>(), 0..64), n in 1usize..1_000_000) {
        let h = crate::IndexHasher::new(5);
        prop_assert!(h.index(&bytes, n) < n);
    }
}
