//! Weighted Space-Saving heavy hitters with an explicit deficit.
//!
//! State is a weighted Misra–Gries summary: at most `cap` keys, each
//! holding a **lower bound** on its true weight, plus one global
//! `deficit` — the total mass every surviving counter may undercount
//! by. Two invariants hold after every update and are pinned by the
//! tests:
//!
//! 1. `lower(x) ≤ true(x) ≤ lower(x) + deficit` for tracked keys, and
//!    `true(x) ≤ deficit` for untracked keys;
//! 2. `(cap + 1) · deficit ≤ total − Σ lower ≤ total`, i.e.
//!    `deficit ≤ total / (cap + 1)` — the Space-Saving error bound.
//!
//! *Stream update.* A tracked key just adds its weight. A new key is
//! inserted; if the table overflows, the minimum value `δ` among the
//! `cap + 1` counters is subtracted from **all** of them and zeroed
//! counters drop (at least the argmin, so one round restores the cap).
//! Each unit of deficit removes `cap + 1` units of counter mass, which
//! is exactly invariant 2.
//!
//! Determinism: values live in a `BTreeMap` and subtraction is uniform,
//! so equal input streams yield byte-equal state.

use std::collections::BTreeMap;

/// Deterministic weighted Space-Saving summary (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSaving {
    cap: usize,
    entries: BTreeMap<u64, u64>,
    deficit: u64,
    total: u64,
}

impl SpaceSaving {
    /// An empty sketch tracking at most `cap` keys.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "SpaceSaving needs at least one counter");
        SpaceSaving {
            cap,
            entries: BTreeMap::new(),
            deficit: 0,
            total: 0,
        }
    }

    /// Counter budget.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total weight observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The current deficit: every key's true weight exceeds its stored
    /// lower bound by at most this much, and no untracked key's true
    /// weight exceeds it.
    pub fn error_bound(&self) -> u64 {
        self.deficit
    }

    /// Tracked entries in key order (`key → lower bound`).
    pub fn entries(&self) -> &BTreeMap<u64, u64> {
        &self.entries
    }

    /// Observes `weight` units of `key`. Zero weights are no-ops.
    pub fn offer(&mut self, key: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        *self.entries.entry(key).or_insert(0) += weight;
        if self.entries.len() > self.cap {
            let delta = *self.entries.values().min().expect("non-empty table");
            self.deficit += delta;
            self.entries.retain(|_, v| {
                *v -= delta.min(*v);
                *v > 0
            });
        }
    }

    /// Two-sided bound `(lower, upper)` for `key`; untracked keys are
    /// bounded by `(0, deficit)`.
    pub fn estimate(&self, key: u64) -> (u64, u64) {
        match self.entries.get(&key) {
            Some(&v) => (v, v + self.deficit),
            None => (0, self.deficit),
        }
    }

    /// Resets to empty, keeping the cap (per-epoch reuse).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.deficit = 0;
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(pairs: &[(u64, u64)]) -> BTreeMap<u64, u64> {
        let mut m = BTreeMap::new();
        for &(k, w) in pairs {
            *m.entry(k).or_insert(0) += w;
        }
        m
    }

    fn check_invariants(s: &SpaceSaving, truth: &BTreeMap<u64, u64>) {
        let sum: u64 = s.entries().values().sum();
        let total: u64 = truth.values().sum();
        assert_eq!(s.total(), total);
        assert!(
            (s.cap() as u64 + 1) * s.error_bound() <= total - sum,
            "deficit invariant violated: cap={} D={} total={total} sum={sum}",
            s.cap(),
            s.error_bound()
        );
        for (&k, &t) in truth {
            let (lo, hi) = s.estimate(k);
            assert!(lo <= t && t <= hi, "key {k}: true {t} outside [{lo},{hi}]");
        }
        for (&k, &v) in s.entries() {
            assert!(v > 0, "zero counter retained");
            assert!(truth.contains_key(&k), "phantom key {k}");
        }
    }

    #[test]
    fn exact_below_cap() {
        let mut s = SpaceSaving::new(8);
        let stream = [(1u64, 5u64), (2, 3), (1, 2), (3, 1)];
        for &(k, w) in &stream {
            s.offer(k, w);
        }
        assert_eq!(s.error_bound(), 0);
        assert_eq!(s.estimate(1), (7, 7));
        assert_eq!(s.estimate(9), (0, 0));
        check_invariants(&s, &exact(&stream));
    }

    #[test]
    fn eviction_keeps_bounds() {
        let stream: Vec<(u64, u64)> = (0..40).map(|i| (i % 7, 1 + i % 3)).collect();
        // Invariants hold after every prefix, not just at the end.
        for n in 1..=stream.len() {
            let mut s = SpaceSaving::new(2);
            for &(k, w) in &stream[..n] {
                s.offer(k, w);
            }
            check_invariants(&s, &exact(&stream[..n]));
            assert!(s.len() <= 2);
        }
        let mut s = SpaceSaving::new(2);
        for &(k, w) in &stream {
            s.offer(k, w);
        }
        assert!(s.error_bound() > 0);
    }

    #[test]
    fn heavy_key_always_tracked() {
        // A key with true weight > 2·total/(cap+1) must survive as the
        // heaviest tracked counter.
        let mut s = SpaceSaving::new(4);
        for i in 0..200u64 {
            s.offer(i % 40, 1);
            s.offer(7, 3);
        }
        let (lo, _) = s.estimate(7);
        assert!(lo > 0, "heavy key evicted");
        assert!(s.entries().values().all(|&v| v <= lo));
    }
}
