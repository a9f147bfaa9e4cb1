//! Aligned-case collector (paper Figure 3).

use dcs_bitmap::words::WORD_BITS;
use dcs_bitmap::Bitmap;
use dcs_hash::IndexHasher;
use dcs_traffic::Packet;

/// How many leading payload bytes are hashed — the `len` of
/// `hash(range(pkt.content, 0, len))` in Figure 3.
pub const HASH_PREFIX_LEN: usize = 64;

/// Fill ratio at which the epoch closes (paper: "once about half of the n
/// bits become 1's, the measurement epoch ends").
pub const TARGET_FILL: f64 = 0.5;

/// Configuration of an aligned-case collector.
#[derive(Debug, Clone)]
pub struct AlignedConfig {
    /// Bitmap width in bits. The paper uses 4 Mbit for an OC-48 link
    /// (≈2.4 M packets per one-second epoch at 50 % fill).
    pub bitmap_bits: usize,
    /// Epoch-wide hash seed. **Must be identical across all monitoring
    /// points** in a deployment: the analysis centre correlates bit
    /// *positions*, so the same payload must map to the same index
    /// everywhere.
    pub seed: u64,
}

impl Default for AlignedConfig {
    fn default() -> Self {
        AlignedConfig {
            bitmap_bits: 4 * 1024 * 1024,
            seed: 0,
        }
    }
}

impl AlignedConfig {
    /// A small-scale configuration for tests and examples.
    pub fn small(bitmap_bits: usize, seed: u64) -> Self {
        AlignedConfig { bitmap_bits, seed }
    }
}

/// The digest shipped to the analysis centre at the end of an epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignedDigest {
    /// The hashed bitmap.
    pub bitmap: Bitmap,
    /// Packets observed during the epoch (with or without payload).
    pub packets_seen: u64,
    /// Payload-carrying packets actually hashed.
    pub packets_hashed: u64,
    /// Raw traffic volume summarised, in wire bytes.
    pub raw_bytes: u64,
}

impl AlignedDigest {
    /// Raw-traffic bytes divided by encoded digest bytes — the paper's
    /// compression figure of merit (three orders of magnitude expected).
    pub fn compression_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.bitmap.encoded_len() as f64
    }
}

/// Streaming collector for the aligned case.
#[derive(Debug)]
pub struct AlignedCollector {
    cfg: AlignedConfig,
    hasher: IndexHasher,
    /// The epoch so far, in the form it ships.
    live: AlignedDigest,
    /// Ones in the live bitmap, counted as bits turn on, so the
    /// per-packet epoch-close check does not popcount the whole bitmap.
    ones: u32,
}

impl AlignedCollector {
    /// Creates a collector.
    ///
    /// # Panics
    /// Panics on an empty bitmap.
    pub fn new(cfg: AlignedConfig) -> Self {
        assert!(
            cfg.bitmap_bits > 0,
            "aligned.bitmap_bits: bitmap must be non-empty"
        );
        AlignedCollector {
            hasher: IndexHasher::new(cfg.seed),
            live: empty_digest(cfg.bitmap_bits),
            cfg,
            ones: 0,
        }
    }

    /// Processes one packet (Figure 3 update algorithm). Returns `true`
    /// when the epoch has reached its target fill and should be shipped.
    pub fn observe(&mut self, pkt: &Packet) -> bool {
        let idx = self.index_of(pkt);
        self.observe_at(pkt, idx)
    }

    /// [`observe`](Self::observe) for a caller that already holds
    /// `idx = self.index_of(pkt)`, so a packet whose column also keys a
    /// sidecar sketch is hashed once.
    pub fn observe_at(&mut self, pkt: &Packet, idx: Option<usize>) -> bool {
        self.live.packets_seen += 1;
        self.live.raw_bytes += pkt.wire_len() as u64;
        if let Some(idx) = idx {
            self.ones += u32::from(self.live.bitmap.set(idx));
            self.live.packets_hashed += 1;
        }
        self.epoch_full()
    }

    /// Starts loading the bitmap word that [`observe_at`](Self::observe_at)
    /// sets for `idx`, so a caller that learns the index a packet ahead
    /// does not wait on it. Changes nothing.
    ///
    /// # Panics
    /// Panics if `idx` lies past the bitmap's last word.
    pub fn prefetch_index(&self, idx: usize) {
        dcs_hash::prefetch(std::slice::from_ref(
            &self.live.bitmap.words()[idx / WORD_BITS],
        ));
    }

    /// The bitmap index this packet's payload hashes to — the index
    /// [`observe`](Self::observe) sets — or `None` for a header-only
    /// packet. Lets a sidecar summary (the heavy-hitter sketch) key on the
    /// exact column the analysis centre correlates, without re-deriving
    /// the hashing rule.
    pub fn index_of(&self, pkt: &Packet) -> Option<usize> {
        if !pkt.has_payload() {
            return None;
        }
        let len = HASH_PREFIX_LEN.min(pkt.payload.len());
        Some(self.hasher.index(&pkt.payload[..len], self.cfg.bitmap_bits))
    }

    /// Whether the bitmap has reached [`TARGET_FILL`].
    pub fn epoch_full(&self) -> bool {
        self.fill_ratio() >= TARGET_FILL
    }

    /// Current fill ratio: the expression of [`Bitmap::fill_ratio`] on the
    /// running count, so the epoch closes on the packet it always did.
    pub fn fill_ratio(&self) -> f64 {
        f64::from(self.ones) / self.cfg.bitmap_bits as f64
    }

    /// Closes the epoch: returns the digest and starts the next epoch on
    /// a freshly allocated bitmap.
    pub fn finish_epoch(&mut self) -> AlignedDigest {
        debug_assert_eq!(
            self.ones,
            self.live.bitmap.weight(),
            "running fill count drifted"
        );
        self.ones = 0;
        std::mem::replace(&mut self.live, empty_digest(self.cfg.bitmap_bits))
    }

    /// Closes the epoch without reallocating: lends its digest to `ship`
    /// (which encodes it), then zeroes the bitmap and the counters in
    /// place for the next epoch. The next epoch starts as it does after
    /// [`finish_epoch`](Self::finish_epoch).
    pub fn finish_epoch_with<R>(&mut self, ship: impl FnOnce(&AlignedDigest) -> R) -> R {
        debug_assert_eq!(
            self.ones,
            self.live.bitmap.weight(),
            "running fill count drifted"
        );
        let shipped = ship(&self.live);
        self.live.bitmap.reset();
        self.live.packets_seen = 0;
        self.live.packets_hashed = 0;
        self.live.raw_bytes = 0;
        self.ones = 0;
        shipped
    }
}

/// The digest of an epoch that has seen nothing.
fn empty_digest(bitmap_bits: usize) -> AlignedDigest {
    AlignedDigest {
        bitmap: Bitmap::new(bitmap_bits),
        packets_seen: 0,
        packets_hashed: 0,
        raw_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_traffic::{FlowLabel, Packet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn packet(rng: &mut StdRng, len: usize) -> Packet {
        let mut payload = vec![0u8; len];
        rng.fill(payload.as_mut_slice());
        Packet::new(FlowLabel::random(rng), payload)
    }

    #[test]
    fn identical_payloads_set_identical_bits() {
        let mut r = StdRng::seed_from_u64(1);
        let mut c1 = AlignedCollector::new(AlignedConfig::small(1 << 16, 7));
        let mut c2 = AlignedCollector::new(AlignedConfig::small(1 << 16, 7));
        let p = packet(&mut r, 536);
        // Same payload on different flows at different routers.
        let p2 = Packet::new(FlowLabel::random(&mut r), p.payload.clone());
        c1.observe(&p);
        c2.observe(&p2);
        let d1 = c1.finish_epoch();
        let d2 = c2.finish_epoch();
        assert_eq!(d1.bitmap.common_ones(&d2.bitmap), 1);
        assert_eq!(d1.bitmap.iter_ones().next(), d2.bitmap.iter_ones().next());
    }

    #[test]
    fn different_seeds_break_correlation() {
        let mut r = StdRng::seed_from_u64(2);
        let mut c1 = AlignedCollector::new(AlignedConfig::small(1 << 16, 7));
        let mut c2 = AlignedCollector::new(AlignedConfig::small(1 << 16, 8));
        let p = packet(&mut r, 536);
        c1.observe(&p);
        c2.observe(&p);
        let (d1, d2) = (c1.finish_epoch(), c2.finish_epoch());
        let i1 = d1.bitmap.iter_ones().next();
        let i2 = d2.bitmap.iter_ones().next();
        assert_ne!(i1, i2, "different seeds should give different indices");
    }

    #[test]
    fn header_only_packets_not_hashed() {
        let mut r = StdRng::seed_from_u64(3);
        let mut c = AlignedCollector::new(AlignedConfig::small(1024, 1));
        c.observe(&packet(&mut r, 0));
        let d = c.finish_epoch();
        assert_eq!(d.packets_seen, 1);
        assert_eq!(d.packets_hashed, 0);
        assert_eq!(d.bitmap.weight(), 0);
        assert_eq!(d.raw_bytes, 40);
    }

    #[test]
    fn epoch_closes_at_half_fill() {
        let mut r = StdRng::seed_from_u64(4);
        let mut c = AlignedCollector::new(AlignedConfig::small(256, 1));
        let mut closed = false;
        for _ in 0..2000 {
            if c.observe(&packet(&mut r, 100)) {
                closed = true;
                break;
            }
        }
        assert!(closed, "epoch never reached half fill");
        assert!(c.fill_ratio() >= 0.5);
        let d = c.finish_epoch();
        assert!(d.bitmap.fill_ratio() >= 0.5);
        assert_eq!(c.fill_ratio(), 0.0, "collector reset after epoch");
    }

    #[test]
    fn epoch_closes_on_the_packet_the_popcount_rule_names() {
        // ~30 % repeated payloads (a set bit must not be counted twice)
        // and interleaved header-only packets, across two epochs (the
        // second catches a count that `finish_epoch` failed to reset).
        for bits in [256usize, 1_000, 65_536] {
            let mut r = StdRng::seed_from_u64(9);
            let mut c = AlignedCollector::new(AlignedConfig::small(bits, 3));
            let mut seen: Vec<Packet> = Vec::new();
            for epoch in 0..2 {
                let mut closed = false;
                for n in 0..2 * bits {
                    let pkt = match r.gen_range(0..10) {
                        0 => packet(&mut r, 0),
                        1..=3 if !seen.is_empty() => seen[r.gen_range(0..seen.len())].clone(),
                        _ => packet(&mut r, 80),
                    };
                    let got = c.observe(&pkt);
                    let want = f64::from(c.live.bitmap.weight()) / c.live.bitmap.len() as f64
                        >= TARGET_FILL;
                    assert_eq!(got, want, "{bits} bits, epoch {epoch}, packet {n}");
                    assert_eq!(c.fill_ratio(), c.live.bitmap.fill_ratio());
                    closed |= got;
                    seen.push(pkt);
                }
                assert!(closed, "{bits} bits: epoch {epoch} never closed");
                c.finish_epoch();
                seen.truncate(64);
            }
        }
    }

    /// `observe` must not cost more on a wide bitmap: a popcount of the
    /// bitmap per packet makes 4 Mbit ~70× slower than 4 Kbit, a running
    /// count leaves them within cache effects of each other. The ratio is
    /// taken inside one process, so runner speed cancels.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing guard; runs with the release tests")]
    fn observe_cost_is_independent_of_bitmap_width() {
        let mut r = StdRng::seed_from_u64(10);
        let pkts: Vec<Packet> = (0..20_000).map(|_| packet(&mut r, 64)).collect();
        let best_of_three = |bits: usize| {
            (0..3)
                .map(|_| {
                    let mut c = AlignedCollector::new(AlignedConfig::small(bits, 1));
                    let t0 = std::time::Instant::now();
                    for p in &pkts {
                        std::hint::black_box(c.observe(std::hint::black_box(p)));
                    }
                    t0.elapsed()
                })
                .min()
                .expect("three runs")
        };
        let narrow = best_of_three(4 * 1024);
        let wide = best_of_three(4 * 1024 * 1024);
        let ratio = wide.as_secs_f64() / narrow.as_secs_f64();
        assert!(
            ratio < 8.0,
            "observe at 4 Mbit took {wide:?} against {narrow:?} at 4 Kbit ({ratio:.1}x)"
        );
    }

    #[test]
    fn fill_matches_bloom_expectation() {
        // Hashing q distinct payloads into n bits should leave about
        // n(1 − (1−1/n)^q) ones.
        let mut r = StdRng::seed_from_u64(5);
        let n = 1 << 14;
        let q = 8_000usize;
        let mut c = AlignedCollector::new(AlignedConfig::small(n, 1));
        for _ in 0..q {
            c.observe(&packet(&mut r, 64));
        }
        let expect = n as f64 * (1.0 - (1.0 - 1.0 / n as f64).powi(q as i32));
        let got = f64::from(c.finish_epoch().bitmap.weight());
        assert!(
            (got - expect).abs() < 4.0 * expect.sqrt(),
            "weight {got} far from Bloom expectation {expect}"
        );
    }

    #[test]
    fn compression_ratio_reported() {
        let mut r = StdRng::seed_from_u64(6);
        let mut c = AlignedCollector::new(AlignedConfig::small(1 << 10, 1));
        for _ in 0..100 {
            c.observe(&packet(&mut r, 1460));
        }
        let d = c.finish_epoch();
        assert_eq!(d.raw_bytes, 100 * 1500);
        assert!(d.compression_ratio() > 1000.0);
    }

    #[test]
    fn index_of_matches_observe() {
        let mut r = StdRng::seed_from_u64(8);
        let mut c = AlignedCollector::new(AlignedConfig::small(1 << 12, 7));
        for len in [0usize, 1, 63, 64, 65, 536] {
            let p = packet(&mut r, len);
            let predicted = c.index_of(&p);
            let before: Vec<usize> = {
                let d = c.live.bitmap.clone();
                d.iter_ones().collect()
            };
            c.observe(&p);
            let after: Vec<usize> = c.live.bitmap.iter_ones().collect();
            match predicted {
                None => assert_eq!(before, after, "header-only packet set a bit"),
                Some(idx) => assert!(after.contains(&idx), "len {len}: predicted {idx} unset"),
            }
        }
    }

    #[test]
    fn long_prefix_len_clamped_to_payload() {
        let mut r = StdRng::seed_from_u64(7);
        let mut c = AlignedCollector::new(AlignedConfig::small(1024, 1));
        c.observe(&packet(&mut r, 40)); // shorter than HASH_PREFIX_LEN: no panic
        assert_eq!(c.finish_epoch().packets_hashed, 1);
    }
}
