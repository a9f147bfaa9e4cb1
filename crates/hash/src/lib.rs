//! Hashing substrate for the DCS system.
//!
//! The data-collection modules (paper Sections III-A and IV-A) hash packet
//! payload fragments into bitmap indices and flow labels into group indices.
//! The analysis only requires the indices to look uniform and independent,
//! so any good 64-bit hash works; we provide, from scratch:
//!
//! * [`rabin`] — Rabin fingerprints over GF(2) (the paper's citation \[22\])
//!   with table-driven byte updates and O(1) rolling windows, plus the
//!   polynomial arithmetic and irreducibility testing needed to pick safe
//!   moduli;
//! * [`fnv`] — FNV-1a, a minimal seedable byte hash;
//! * [`crc32()`] — CRC-32/IEEE for wire-frame integrity trailers;
//! * [`mix`] — SplitMix64 finalisation and multiply-shift universal hashing;
//! * [`IndexHasher`] — the composition used by the collectors: fingerprint
//!   a payload fragment, finalise with a per-epoch seed, and reduce to a
//!   bitmap index without modulo bias.

#![forbid(unsafe_code)]
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
pub use rabin::{RabinFingerprinter, RollingRabin, DEFAULT_POLY};

use mix::{reduce, splitmix64};
use std::sync::OnceLock;

/// The process-wide [`DEFAULT_POLY`] fingerprinter. Every [`IndexHasher`]
/// borrows this one, so its 16 KiB of fold tables exist once however many
/// hashers a deployment builds (a monitoring point alone builds three, and
/// three private copies would compete for the same L1 lines).
fn default_fingerprinter() -> &'static RabinFingerprinter {
    static FP: OnceLock<RabinFingerprinter> = OnceLock::new();
    FP.get_or_init(|| RabinFingerprinter::new(DEFAULT_POLY))
}

/// Hashes byte strings to bitmap indices: the collectors' `hash(...)` in
/// Figures 3, 8 and 9 of the paper.
///
/// A Rabin fingerprint of the bytes is finalised with a seeded SplitMix64
/// step (so different monitoring epochs and different arrays use
/// independent-looking hash functions) and reduced to `[0, n)` using the
/// unbiased multiply-high trick.
#[derive(Debug, Clone)]
pub struct IndexHasher {
    fp: &'static RabinFingerprinter,
    seed: u64,
}

impl IndexHasher {
    /// Creates a hasher with the default irreducible polynomial and the
    /// given seed.
    pub fn new(seed: u64) -> Self {
        IndexHasher {
            fp: default_fingerprinter(),
            seed,
        }
    }

    /// 64-bit hash of `bytes`.
    pub fn hash64(&self, bytes: &[u8]) -> u64 {
        splitmix64(self.fp.fingerprint(bytes) ^ self.seed)
    }

    /// Index of `bytes` in a table of `n` slots.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&self, bytes: &[u8], n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        reduce(self.hash64(bytes), n as u64) as usize
    }

    /// The seed this hasher was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }
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
