//! Integer finalisers and range reduction.
//!
//! [`splitmix64`] is the finaliser from Vigna's SplitMix64 generator: a
//! bijective avalanche mix used to decorrelate fingerprints from seeds.
//! [`reduce`] maps a 64-bit hash onto `[0, n)` with the multiply-high trick
//! (Lemire), avoiding both modulo cost and modulo bias.

/// SplitMix64 avalanche finaliser (bijective on `u64`).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Maps a uniform 64-bit value to `[0, n)` without modulo bias
/// (multiply-high / fixed-point multiply).
#[inline]
pub fn reduce(hash: u64, n: u64) -> u64 {
    ((u128::from(hash) * u128::from(n)) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_injective_on_sample() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn reduce_stays_in_range_and_covers() {
        let n = 10u64;
        let mut hit = [false; 10];
        for i in 0..1_000u64 {
            let r = reduce(splitmix64(i), n);
            assert!(r < n);
            hit[r as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "not all buckets reachable");
    }

    #[test]
    fn reduce_edge_values() {
        assert_eq!(reduce(0, 100), 0);
        assert_eq!(reduce(u64::MAX, 100), 99);
        assert_eq!(reduce(12345, 1), 0);
    }
}
