//! Polynomial arithmetic over GF(2) for Rabin fingerprinting.
//!
//! A degree-64 modulus is represented by its low 64 coefficient bits with
//! the `x^64` term implicit; residues are full `u64` values (degree < 64).
//! Rabin's irreducibility test checks the fingerprint modulus at compile
//! time ([`rabin`](crate::rabin)), so these are `const fn`s. The fold
//! itself needs no table; the tests multiply residues with [`mulmod`] as
//! its definition.

/// Multiplies two residues modulo the degree-64 polynomial `x^64 + modulus`.
///
/// Shift-and-xor schoolbook multiplication with reduction folded into every
/// doubling step; constant 64 iterations.
#[inline]
pub const fn mulmod(mut a: u64, b: u64, modulus: u64) -> u64 {
    let mut acc = 0u64;
    let mut i = 0;
    while i < 64 {
        if b >> i & 1 == 1 {
            acc ^= a;
        }
        let carry = a >> 63;
        a <<= 1;
        if carry == 1 {
            a ^= modulus;
        }
        i += 1;
    }
    acc
}

/// Squares a residue modulo `x^64 + modulus`.
#[inline]
pub const fn sqrmod(a: u64, modulus: u64) -> u64 {
    mulmod(a, a, modulus)
}

/// GCD of two polynomials over GF(2), represented with all coefficient bits
/// explicit (so inputs must have degree < 64, or be encoded in `u128`).
const fn poly_gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = poly_rem(a, b);
        a = b;
        b = r;
    }
    a
}

/// Remainder of polynomial division over GF(2) (explicit representation).
const fn poly_rem(mut a: u128, b: u128) -> u128 {
    debug_assert!(b != 0);
    let db = 127 - b.leading_zeros() as i32;
    loop {
        if a == 0 {
            return 0;
        }
        let da = 127 - a.leading_zeros() as i32;
        if da < db {
            return a;
        }
        a ^= b << (da - db);
    }
}

/// Degree-64 polynomial `x^64 + low` in explicit `u128` form.
#[inline]
const fn explicit64(low: u64) -> u128 {
    (1u128 << 64) | low as u128
}

/// Rabin's irreducibility test for the degree-64 polynomial `x^64 + low`.
///
/// `f` of degree `n` is irreducible over GF(2) iff
/// `x^(2^n) ≡ x (mod f)` and `gcd(x^(2^(n/q)) − x, f) = 1` for every prime
/// divisor `q` of `n`. For n = 64 the only prime divisor is 2, so we check
/// the chain of repeated squarings at step 32.
pub const fn is_irreducible64(low: u64) -> bool {
    // t_k = x^(2^k) mod f, computed by repeated squaring of the residue.
    let mut t = 2u64; // x^(2^0) = x
    let mut t32 = 0u64;
    let mut k = 1;
    while k <= 64 {
        t = sqrmod(t, low);
        if k == 32 {
            t32 = t;
        }
        k += 1;
    }
    if t != 2 {
        return false; // x^(2^64) != x  =>  reducible
    }
    // gcd(x^(2^32) - x, f) must be 1.
    let diff = (t32 ^ 2) as u128;
    if diff == 0 {
        return false; // f divides x^(2^32) - x: factors of degree <= 32
    }
    poly_gcd(explicit64(low), diff) == 1
}

/// Computes `x^e mod (x^64 + modulus)` where `e` counts in *bit* positions,
/// i.e. the residue of the monomial of degree `e`: the tests' reference
/// for the shifts the Rabin fold takes.
#[cfg(test)]
pub(crate) const fn x_pow_mod(e: u64, modulus: u64) -> u64 {
    // Square-and-multiply on the monomial x (residue 0b10).
    let mut result = 1u64; // x^0
    let mut base = 2u64; // x^1
    let mut e = e;
    while e > 0 {
        if e & 1 == 1 {
            result = mulmod(result, base, modulus);
        }
        base = sqrmod(base, modulus);
        e >>= 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generic irreducibility test for small-degree polynomials (explicit
    /// representation, degree <= 63), by trial division: the ground truth the
    /// fast test is checked against.
    fn is_irreducible_explicit(f: u128) -> bool {
        let deg = 127 - f.leading_zeros() as i32;
        if deg <= 0 {
            return false;
        }
        if deg == 1 {
            return true;
        }
        if f & 1 == 0 {
            return false; // divisible by x
        }
        // Trial divide by all polynomials of degree 1..=deg/2.
        for d in 1..=(deg / 2) {
            for g in (1u128 << d)..(1u128 << (d + 1)) {
                if poly_rem(f, g) == 0 {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn mulmod_identity_and_commutativity() {
        let m = 0x1Bu64;
        assert_eq!(mulmod(1, 0xDEADBEEF, m), 0xDEADBEEF);
        assert_eq!(mulmod(0xDEADBEEF, 1, m), 0xDEADBEEF);
        assert_eq!(mulmod(5, 9, m), mulmod(9, 5, m));
        assert_eq!(mulmod(0, 0xFFFF, m), 0);
    }

    #[test]
    fn mulmod_small_case_by_hand() {
        // (x+1)(x+1) = x^2 + 1 over GF(2); no reduction needed.
        assert_eq!(mulmod(0b11, 0b11, 0x1B), 0b101);
        // x^63 * x = x^64 = modulus (mod x^64 + modulus).
        assert_eq!(mulmod(1 << 63, 2, 0x1B), 0x1B);
    }

    #[test]
    fn mulmod_distributes_over_xor() {
        let m = 0x247F43CB7u64 | 1;
        let (a, b, c) = (0x1234_5678_9ABC_DEF0u64, 0x0F0F, 0xFEDC_BA98);
        assert_eq!(
            mulmod(a, b ^ c, m),
            mulmod(a, b, m) ^ mulmod(a, c, m),
            "GF(2)[x] multiplication must be linear"
        );
    }

    #[test]
    fn x_pow_mod_matches_repeated_multiplication() {
        let m = 0x1Bu64;
        let mut acc = 1u64;
        for e in 0..200u64 {
            assert_eq!(x_pow_mod(e, m), acc, "mismatch at exponent {e}");
            acc = mulmod(acc, 2, m);
        }
    }

    #[test]
    fn default_poly_is_irreducible() {
        // x^64 + x^4 + x^3 + x + 1
        assert!(is_irreducible64(0x1B));
    }

    #[test]
    fn reducible_polys_rejected() {
        // x^64 is divisible by x (constant term 0).
        assert!(!is_irreducible64(0));
        // x^64 + 1 = (x+1)^64 over GF(2).
        assert!(!is_irreducible64(1));
        // x^64 + x^2 = x^2 (x^62 + 1): constant term 0.
        assert!(!is_irreducible64(0b100));
    }

    #[test]
    fn explicit_test_agrees_on_small_degrees() {
        // Count irreducibles of each degree and compare with the known
        // necklace counts: degree 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18.
        let expected = [1usize, 2, 3, 6, 9, 18];
        for (i, &want) in expected.iter().enumerate() {
            let d = i as i32 + 2;
            let mut count = 0;
            for f in (1u128 << d)..(1u128 << (d + 1)) {
                if is_irreducible_explicit(f) {
                    count += 1;
                }
            }
            assert_eq!(count, want, "wrong irreducible count at degree {d}");
        }
    }

    #[test]
    fn poly_rem_examples() {
        // (x^3 + x + 1) mod (x + 1): evaluate at x=1 -> 1+1+1 = 1.
        assert_eq!(poly_rem(0b1011, 0b11), 1);
        // x^2 mod x = 0.
        assert_eq!(poly_rem(0b100, 0b10), 0);
    }
}
