//! Background-traffic generation.
//!
//! Background packets carry pseudorandom payloads — matching the paper's
//! observation that real payloads hash like random data ("our randomness
//! test for the input traffic shows that the traffic has almost random
//! value of the contents"). Flow structure is what matters: packets are
//! attributed to flows by Zipf rank draws, so a few elephant flows carry a
//! large share of packets (paper \[10\]) and flow splitting experiences
//! realistic imbalance.

use crate::packet::{FlowLabel, Packet};
use bytes::Bytes;
use dcs_stats::sample::Zipf;
use rand::Rng;

/// A discrete payload-size distribution.
#[derive(Debug, Clone)]
pub struct SizeMix {
    entries: Vec<(usize, f64)>, // (payload bytes, cumulative probability)
}

impl SizeMix {
    /// Builds a mix from `(payload_size, weight)` pairs.
    ///
    /// # Panics
    /// Panics if empty or all weights are zero/negative.
    pub fn new(pairs: &[(usize, f64)]) -> Self {
        assert!(!pairs.is_empty(), "size mix needs at least one entry");
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        assert!(total > 0.0, "size mix needs positive total weight");
        let mut acc = 0.0;
        let entries = pairs
            .iter()
            .map(|&(s, w)| {
                assert!(w >= 0.0, "negative weight");
                acc += w / total;
                (s, acc)
            })
            .collect();
        SizeMix { entries }
    }

    /// The empirical Internet mix of paper \[3\]: header-only packets
    /// (40-byte wire size, empty payload), 576-byte packets (536-byte
    /// payload) and 1500-byte packets (1460-byte payload).
    pub fn internet_default() -> Self {
        SizeMix::new(&[(0, 0.35), (536, 0.45), (1460, 0.20)])
    }

    /// A mix where every payload is `size` bytes (for controlled
    /// experiments).
    pub fn constant(size: usize) -> Self {
        SizeMix::new(&[(size, 1.0)])
    }

    /// Draws a payload size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.entries
            .iter()
            .find(|&&(_, c)| u <= c)
            .map(|&(s, _)| s)
            .unwrap_or_else(|| self.entries.last().expect("non-empty").0)
    }
}

/// Configuration of one router's background traffic for one epoch.
#[derive(Debug, Clone)]
pub struct BackgroundConfig {
    /// Number of packets to generate.
    pub packets: usize,
    /// Number of distinct candidate flows.
    pub flows: usize,
    /// Zipf exponent of the per-packet flow-rank draw (1.0 ≈ Internet-like;
    /// 0.0 = uniform flows, no elephants).
    pub zipf_exponent: f64,
    /// Payload-size distribution.
    pub size_mix: SizeMix,
}

impl Default for BackgroundConfig {
    fn default() -> Self {
        BackgroundConfig {
            packets: 10_000,
            flows: 2_000,
            zipf_exponent: 1.0,
            size_mix: SizeMix::internet_default(),
        }
    }
}

/// Generates one epoch of background traffic for one router.
///
/// Each packet's flow is chosen by a Zipf draw over a fixed per-epoch flow
/// table; payloads are filled with RNG bytes, so every background packet is
/// (with overwhelming probability) unique content.
pub fn generate_epoch<R: Rng + ?Sized>(rng: &mut R, cfg: &BackgroundConfig) -> Vec<Packet> {
    let flow_table: Vec<FlowLabel> = (0..cfg.flows).map(|_| FlowLabel::random(rng)).collect();
    let zipf = Zipf::new(cfg.flows.max(1), cfg.zipf_exponent);
    let mut out = Vec::with_capacity(cfg.packets);
    for _ in 0..cfg.packets {
        let rank = zipf.sample(rng);
        let flow = flow_table[rank - 1];
        let size = cfg.size_mix.sample(rng);
        let mut payload = vec![0u8; size];
        rng.fill(payload.as_mut_slice());
        out.push(Packet::new(flow, Bytes::from(payload)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBEEF)
    }

    #[test]
    fn size_mix_respects_weights() {
        let mix = SizeMix::new(&[(100, 1.0), (200, 3.0)]);
        let mut r = rng();
        let mut small = 0;
        let n = 10_000;
        for _ in 0..n {
            if mix.sample(&mut r) == 100 {
                small += 1;
            }
        }
        let frac = small as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "fraction {frac} far from 0.25");
    }

    #[test]
    fn size_mix_constant() {
        let mix = SizeMix::constant(536);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut r), 536);
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_mix_rejected() {
        SizeMix::new(&[]);
    }

    #[test]
    fn epoch_has_requested_packets() {
        let mut r = rng();
        let cfg = BackgroundConfig {
            packets: 500,
            flows: 50,
            ..BackgroundConfig::default()
        };
        let pkts = generate_epoch(&mut r, &cfg);
        assert_eq!(pkts.len(), 500);
    }

    #[test]
    fn flow_sizes_are_skewed() {
        let mut r = rng();
        let cfg = BackgroundConfig {
            packets: 20_000,
            flows: 1_000,
            zipf_exponent: 1.1,
            size_mix: SizeMix::constant(536),
        };
        let pkts = generate_epoch(&mut r, &cfg);
        let mut counts: HashMap<FlowLabel, usize> = HashMap::new();
        for p in &pkts {
            *counts.entry(p.flow).or_default() += 1;
        }
        let mut sizes: Vec<usize> = counts.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        // Elephant check: the largest flow should dwarf the median flow.
        let median = sizes[sizes.len() / 2];
        assert!(
            sizes[0] > 10 * median.max(1),
            "largest {} vs median {median}: not Zipfian",
            sizes[0]
        );
    }

    #[test]
    fn payloads_are_unique_content() {
        let mut r = rng();
        let cfg = BackgroundConfig {
            packets: 2_000,
            flows: 100,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(64),
        };
        let pkts = generate_epoch(&mut r, &cfg);
        let distinct: std::collections::HashSet<&[u8]> =
            pkts.iter().map(|p| p.payload.as_ref()).collect();
        assert_eq!(distinct.len(), 2_000, "background payloads must be unique");
    }
}
