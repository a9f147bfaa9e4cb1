//! Hashing substrate for the DCS system.
//!
//! The data-collection modules (paper Sections III-A and IV-A) hash packet
//! payload fragments into bitmap indices and flow labels into group indices.
//! The analysis only requires the indices to look uniform and independent,
//! so any good 64-bit hash works; we provide, from scratch:
//!
//! * [`rabin`] — Rabin fingerprints over GF(2) (the paper's citation \[22\]),
//!   folded a word at a time with shifts and XORs, over one modulus whose
//!   irreducibility [`gf2`] checks at compile time;
//! * [`fnv`] — FNV-1a, a minimal seedable byte hash;
//! * [`crc32()`] — CRC-32/IEEE for wire-frame integrity trailers;
//! * [`mix`] — SplitMix64 finalisation and unbiased range reduction;
//! * [`IndexHasher`] — the composition used by the collectors: fingerprint
//!   a payload fragment, finalise with a per-epoch seed, and reduce to a
//!   bitmap index without modulo bias;
//! * [`prefetch`] — a cache hint for memory a caller will read soon.
//!
//! `unsafe` is denied crate-wide. Two places are allowed it, one block
//! each: the carry-less CRC-32 folding kernel inside
//! [`crc32`](mod@crc32), for the call into its `#[target_feature]` body
//! after the runtime check that the host has those features; and
//! [`prefetch`], for the prefetch instruction.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod fnv;
pub mod gf2;
pub mod mix;
pub mod rabin;

#[cfg(test)]
mod proptests;

pub use crc32::{crc32, Crc32};
pub use fnv::Fnv1a;

use mix::{reduce, splitmix64};

/// Hashes byte strings to bitmap indices: the collectors' `hash(...)` in
/// Figures 3, 8 and 9 of the paper.
///
/// A Rabin fingerprint of the bytes is finalised with a seeded SplitMix64
/// step (so different monitoring epochs and different arrays use
/// independent-looking hash functions) and reduced to `[0, n)` using the
/// unbiased multiply-high trick.
#[derive(Debug, Clone)]
pub struct IndexHasher {
    seed: u64,
}

impl IndexHasher {
    /// Creates a hasher with the given seed.
    pub fn new(seed: u64) -> Self {
        IndexHasher { seed }
    }

    /// 64-bit hash of `bytes`.
    pub fn hash64(&self, bytes: &[u8]) -> u64 {
        splitmix64(rabin::fingerprint(bytes) ^ self.seed)
    }

    /// Index of `bytes` in a table of `n` slots.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&self, bytes: &[u8], n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        reduce(self.hash64(bytes), n as u64) as usize
    }
}

/// Asks the CPU to start loading every cache line `items` spans, so that
/// a read of them a little later does not wait on memory. Only a hint: it
/// changes nothing a program can observe, and off x86-64 it does nothing.
#[inline]
pub fn prefetch<T>(items: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let start = items.as_ptr().cast::<i8>();
        let bytes = core::mem::size_of_val(items);
        let skew = start.addr() % LINE;
        // None for an empty slice, whose pointer may dangle.
        let lines = if bytes == 0 {
            0
        } else {
            (skew + bytes).div_ceil(LINE)
        };
        for line in 0..lines {
            let at = start.wrapping_sub(skew).wrapping_add(line * LINE);
            // SAFETY: a prefetch never faults and dereferences nothing: it
            // is a hint, on any address, and `at` lies on a line of `items`.
            #[allow(unsafe_code)]
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(at)
            };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = items;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_seeds_decorrelate() {
        let a = IndexHasher::new(1);
        let b = IndexHasher::new(2);
        let data = b"GET /index.html HTTP/1.1";
        assert_ne!(a.hash64(data), b.hash64(data));
    }

    #[test]
    fn index_in_range_and_deterministic() {
        let h = IndexHasher::new(42);
        for n in [1usize, 2, 7, 1024, 4_000_000] {
            let i = h.index(b"payload bytes", n);
            assert!(i < n);
            assert_eq!(i, h.index(b"payload bytes", n));
        }
    }

    #[test]
    fn index_distribution_roughly_uniform() {
        // 10,000 distinct payloads into 16 buckets: each bucket should get
        // 625 +- a generous slack.
        let h = IndexHasher::new(7);
        let mut counts = [0usize; 16];
        for i in 0..10_000u32 {
            counts[h.index(&i.to_le_bytes(), 16)] += 1;
        }
        for &c in &counts {
            assert!((425..=825).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_range_panics() {
        IndexHasher::new(0).index(b"x", 0);
    }
}
