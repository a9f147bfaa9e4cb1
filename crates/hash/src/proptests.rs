//! Property-based tests for the hashing substrate.

use crate::gf2::{mulmod, sqrmod, x_pow_mod};
use crate::rabin::{append_byte, fingerprint, POLY};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gf2_mul_commutative_associative(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let m = POLY;
        prop_assert_eq!(mulmod(a, b, m), mulmod(b, a, m));
        prop_assert_eq!(
            mulmod(mulmod(a, b, m), c, m),
            mulmod(a, mulmod(b, c, m), m)
        );
    }

    #[test]
    fn gf2_distributive(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let m = POLY;
        prop_assert_eq!(
            mulmod(a, b ^ c, m),
            mulmod(a, b, m) ^ mulmod(a, c, m)
        );
    }

    #[test]
    fn gf2_square_matches_mul(a in any::<u64>()) {
        prop_assert_eq!(sqrmod(a, POLY), mulmod(a, a, POLY));
    }

    #[test]
    fn x_pow_additive(e1 in 0u64..10_000, e2 in 0u64..10_000) {
        // x^(e1+e2) = x^e1 · x^e2 in the field.
        let m = POLY;
        prop_assert_eq!(
            x_pow_mod(e1 + e2, m),
            mulmod(x_pow_mod(e1, m), x_pow_mod(e2, m), m)
        );
    }

    #[test]
    fn fingerprint_prefix_extension_is_consistent(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        b in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // fp(a ++ b) must equal continuing fp(a) with b's bytes.
        let mut state = fingerprint(&a);
        for &byte in &b {
            state = append_byte(state, byte);
        }
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        prop_assert_eq!(state, fingerprint(&ab));
    }

    #[test]
    fn word_fold_equals_byte_fold(
        data in proptest::collection::vec(any::<u8>(), 303..304),
    ) {
        // Every length 0..=300 at start offsets 0, 1 and 3, so the 8-byte
        // words fall on every alignment of the buffer; `append_byte` is
        // the byte-serial reference.
        for start in [0usize, 1, 3] {
            for len in 0..=300 {
                let b = &data[start..start + len];
                let serial = b.iter().fold(1, |f, &x| append_byte(f, x));
                prop_assert_eq!(fingerprint(b), serial, "start {} len {}", start, len);
            }
        }
    }

    #[test]
    fn fold_equals_the_definition(
        data in proptest::collection::vec(any::<u8>(), 303..304),
    ) {
        // The fold's shifts against what they compute: each 8-byte word
        // takes f to f·x^64 + word and each tail byte f to f·x^8 + byte,
        // multiplied out by `mulmod`, which shares no shift with the
        // fold. Every length 0..=300 at start offsets 0, 1 and 3.
        let x64 = x_pow_mod(64, POLY);
        let x8 = x_pow_mod(8, POLY);
        for start in [0usize, 1, 3] {
            for len in 0..=300 {
                let b = &data[start..start + len];
                let (words, tail) = b.split_at(len / 8 * 8);
                let mut f = 1;
                for w in words.chunks_exact(8) {
                    let word = u64::from_be_bytes(w.try_into().expect("8 bytes"));
                    f = mulmod(f, x64, POLY) ^ word;
                }
                for &byte in tail {
                    f = mulmod(f, x8, POLY) ^ u64::from(byte);
                }
                prop_assert_eq!(fingerprint(b), f, "start {} len {}", start, len);
            }
        }
    }

    #[test]
    fn append_byte_is_times_x8_plus_byte(f in any::<u64>(), byte in any::<u8>()) {
        prop_assert_eq!(
            append_byte(f, byte),
            mulmod(f, x_pow_mod(8, POLY), POLY) ^ u64::from(byte)
        );
    }

    #[test]
    fn index_hasher_range(bytes in proptest::collection::vec(any::<u8>(), 0..64), n in 1usize..1_000_000) {
        let h = crate::IndexHasher::new(5);
        prop_assert!(h.index(&bytes, n) < n);
    }
}
