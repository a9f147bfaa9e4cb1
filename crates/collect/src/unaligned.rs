//! Unaligned-case collector (paper Figures 8 and 9): offset sampling plus
//! flow splitting.

use dcs_bitmap::{Bitmap, RowMatrix};
use dcs_hash::mix::{reduce, splitmix64};
use dcs_hash::{Fnv1a, IndexHasher};
use dcs_traffic::Packet;

/// Offset modulus: the payload size the deployment targets (paper:
/// 536-byte MSS).
pub const PAYLOAD_MODULUS: usize = 536;

/// Packets with payloads shorter than this are skipped (paper: 500).
pub const MIN_PAYLOAD: usize = 500;

/// Packets with payloads at least this long use the secondary offset set
/// too — "for packets 1000 bytes and above, we will use 20 different
/// offsets, two offsets per array".
pub const LARGE_PAYLOAD: usize = 1000;

/// Bytes hashed per sampled fragment.
pub const FRAGMENT_LEN: usize = 16;

// A fragment must be non-empty and fit inside both the offset modulus and
// the smallest sampled payload.
const _: () =
    assert!(0 < FRAGMENT_LEN && FRAGMENT_LEN <= MIN_PAYLOAD && MIN_PAYLOAD <= PAYLOAD_MODULUS);

/// Largest usable offset + 1: offsets are drawn in `[0, MIN_PAYLOAD −
/// FRAGMENT_LEN]` so a fragment never runs past the smallest payload the
/// collector samples, primary and secondary alike (the paper draws offsets
/// mod 536 while admitting 500-byte payloads; restricting the range
/// preserves the matching semantics — offsets still live in the mod-536
/// residue space — while staying in bounds).
const OFFSET_SPAN: usize = MIN_PAYLOAD - FRAGMENT_LEN + 1;

/// Configuration of an unaligned-case collector.
#[derive(Debug, Clone)]
pub struct UnalignedConfig {
    /// Number of flow-split groups (paper: 128 per OC-48 collector).
    pub groups: usize,
    /// Arrays (offsets) per group — the paper's k = 10.
    pub arrays_per_group: usize,
    /// Bits per array (paper: 1,024).
    pub array_bits: usize,
    /// Epoch-wide *content-hash* seed; must match across monitoring points
    /// (same fragment ⇒ same index everywhere).
    pub seed: u64,
    /// Per-router seed for offset choice and flow splitting; should differ
    /// across routers ("each router picks a set of k random offsets").
    pub router_seed: u64,
}

impl Default for UnalignedConfig {
    fn default() -> Self {
        UnalignedConfig {
            groups: 128,
            arrays_per_group: 10,
            array_bits: 1024,
            seed: 0,
            router_seed: 0,
        }
    }
}

impl UnalignedConfig {
    /// A scaled-down configuration for tests.
    pub fn small(groups: usize, seed: u64, router_seed: u64) -> Self {
        UnalignedConfig {
            groups,
            seed,
            router_seed,
            ..UnalignedConfig::default()
        }
    }
}

/// The digest shipped at the end of an epoch: `groups × arrays_per_group`
/// small bitmaps plus accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnalignedDigest {
    /// Arrays in group-major order: group `g`, offset-array `a` lives at
    /// `g * arrays_per_group + a`.
    pub arrays: Vec<Bitmap>,
    /// Arrays per group (rows per group when fused into a matrix).
    pub arrays_per_group: usize,
    /// Packets observed.
    pub packets_seen: u64,
    /// Packets sampled (payload ≥ [`MIN_PAYLOAD`]).
    pub packets_sampled: u64,
    /// Raw traffic volume summarised, in wire bytes.
    pub raw_bytes: u64,
}

impl UnalignedDigest {
    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.arrays.len() / self.arrays_per_group
    }

    /// Encoded size of all arrays in bytes.
    pub fn encoded_len(&self) -> usize {
        self.arrays.iter().map(Bitmap::encoded_len).sum()
    }

    /// Raw bytes per digest byte.
    pub fn compression_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.encoded_len() as f64
    }

    /// Stacks the arrays into a row matrix (rows in group-major order),
    /// the format the analysis centre fuses vertically across routers.
    pub fn to_rows(&self) -> RowMatrix {
        let ncols = self.arrays.first().map_or(0, Bitmap::len);
        RowMatrix::from_bitmaps(ncols, self.arrays.iter())
    }
}

/// The flow-splitting hash (Figure 9): which of `groups` groups a flow
/// lands in at the router salted with `router_seed`. Exposed so follow-up
/// tooling (e.g. capture filters primed from a detection report) can
/// reproduce a collector's flow→group mapping without the collector.
///
/// # Panics
/// Panics if `groups == 0`.
pub fn flow_group(router_seed: u64, groups: usize, flow: &dcs_traffic::FlowLabel) -> usize {
    assert!(groups > 0, "need at least one group");
    let h = Fnv1a::hash_seeded(router_seed, &flow.to_bytes());
    reduce(h, groups as u64) as usize
}

/// Streaming collector for the unaligned case.
#[derive(Debug)]
pub struct UnalignedCollector {
    cfg: UnalignedConfig,
    hasher: IndexHasher,
    /// Primary offset for each array (used for every sampled packet).
    offsets_primary: Vec<usize>,
    /// Secondary offset for each array (added for large packets).
    offsets_secondary: Vec<usize>,
    /// The epoch so far, in the form it ships.
    live: UnalignedDigest,
}

impl UnalignedCollector {
    /// Creates a collector; offsets are fixed for the epoch from
    /// `router_seed` ("chosen beforehand and fixed for a measurement
    /// epoch").
    ///
    /// # Panics
    /// Panics on zero groups or arrays, or an array width outside
    /// 1..=[`MAX_ARRAY_BITS`](crate::MAX_ARRAY_BITS).
    pub fn new(cfg: UnalignedConfig) -> Self {
        assert!(cfg.groups > 0, "unaligned.groups: need at least one group");
        assert!(
            cfg.arrays_per_group > 0,
            "unaligned.arrays_per_group: need at least one array"
        );
        assert!(
            (1..=crate::MAX_ARRAY_BITS).contains(&cfg.array_bits),
            "unaligned.array_bits: array width must be 1 to MAX_ARRAY_BITS bits"
        );
        let hasher = IndexHasher::new(cfg.seed);
        let k = cfg.arrays_per_group;
        let offset_at = |i: u64| -> usize {
            reduce(
                splitmix64(cfg.router_seed ^ (0xA11CE + i)),
                OFFSET_SPAN as u64,
            ) as usize
        };
        let offsets_primary: Vec<usize> = (0..k as u64).map(offset_at).collect();
        let offsets_secondary: Vec<usize> = (k as u64..2 * k as u64).map(offset_at).collect();
        UnalignedCollector {
            live: empty_digest(&cfg),
            cfg,
            hasher,
            offsets_primary,
            offsets_secondary,
        }
    }

    /// The offsets in use (primary set), for inspection and tests.
    pub fn offsets(&self) -> (&[usize], &[usize]) {
        (&self.offsets_primary, &self.offsets_secondary)
    }

    /// Flow-split group of a flow label (Figure 9's
    /// `hash(pkt.flow_label)`), salted with the router seed.
    pub fn group_of(&self, pkt: &Packet) -> usize {
        flow_group(self.cfg.router_seed, self.cfg.groups, &pkt.flow)
    }

    /// Processes one packet (Figures 8 + 9 update algorithm).
    pub fn observe(&mut self, pkt: &Packet) {
        self.live.packets_seen += 1;
        self.live.raw_bytes += pkt.wire_len() as u64;
        let payload = &pkt.payload;
        if payload.len() < MIN_PAYLOAD {
            return;
        }
        self.live.packets_sampled += 1;
        let group = self.group_of(pkt);
        let k = self.cfg.arrays_per_group;
        let base = group * k;
        let large = payload.len() >= LARGE_PAYLOAD;
        for a in 0..k {
            let row = &mut self.live.arrays[base + a];
            let off = self.offsets_primary[a];
            let frag = &payload[off..off + FRAGMENT_LEN];
            let idx = self.hasher.index(frag, self.cfg.array_bits);
            row.set(idx);
            if large {
                let off2 = self.offsets_secondary[a];
                let frag2 = &payload[off2..off2 + FRAGMENT_LEN];
                let idx2 = self.hasher.index(frag2, self.cfg.array_bits);
                row.set(idx2);
            }
        }
    }

    /// Closes the epoch: returns the digest and starts the next epoch on
    /// freshly allocated arrays.
    pub fn finish_epoch(&mut self) -> UnalignedDigest {
        std::mem::replace(&mut self.live, empty_digest(&self.cfg))
    }

    /// Closes the epoch without reallocating: lends its digest to `ship`
    /// (which encodes it), then zeroes the arrays and the counters in
    /// place for the next epoch. The next epoch starts as it does after
    /// [`finish_epoch`](Self::finish_epoch).
    pub fn finish_epoch_with<R>(&mut self, ship: impl FnOnce(&UnalignedDigest) -> R) -> R {
        let shipped = ship(&self.live);
        self.live.arrays.iter_mut().for_each(Bitmap::reset);
        self.live.packets_seen = 0;
        self.live.packets_sampled = 0;
        self.live.raw_bytes = 0;
        shipped
    }

    /// The configuration in use.
    pub fn config(&self) -> &UnalignedConfig {
        &self.cfg
    }
}

/// The digest of an epoch that has seen nothing.
fn empty_digest(cfg: &UnalignedConfig) -> UnalignedDigest {
    UnalignedDigest {
        arrays: vec![Bitmap::new(cfg.array_bits); cfg.groups * cfg.arrays_per_group],
        arrays_per_group: cfg.arrays_per_group,
        packets_seen: 0,
        packets_sampled: 0,
        raw_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_traffic::{ContentObject, FlowLabel, Planting};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn packet(rng: &mut StdRng, len: usize) -> Packet {
        let mut payload = vec![0u8; len];
        rng.fill(payload.as_mut_slice());
        Packet::new(FlowLabel::random(rng), payload)
    }

    #[test]
    fn small_packets_skipped() {
        let mut r = StdRng::seed_from_u64(1);
        let mut c = UnalignedCollector::new(UnalignedConfig::small(4, 1, 1));
        c.observe(&packet(&mut r, 200));
        c.observe(&packet(&mut r, 499));
        let d = c.finish_epoch();
        assert_eq!(d.packets_seen, 2);
        assert_eq!(d.packets_sampled, 0);
        assert!(d.arrays.iter().all(|a| a.weight() == 0));
    }

    #[test]
    fn sampled_packet_touches_every_array_of_its_group_only() {
        let mut r = StdRng::seed_from_u64(2);
        let mut c = UnalignedCollector::new(UnalignedConfig::small(8, 1, 1));
        let p = packet(&mut r, 536);
        let g = c.group_of(&p);
        c.observe(&p);
        let d = c.finish_epoch();
        let k = d.arrays_per_group;
        for (i, a) in d.arrays.iter().enumerate() {
            if i / k == g {
                assert_eq!(a.weight(), 1, "array {i} in the packet's group");
            } else {
                assert_eq!(a.weight(), 0, "array {i} outside the group");
            }
        }
    }

    #[test]
    fn large_packets_use_second_offset() {
        let mut r = StdRng::seed_from_u64(3);
        let mut c = UnalignedCollector::new(UnalignedConfig::small(1, 1, 1));
        let p = packet(&mut r, 1460);
        c.observe(&p);
        let d = c.finish_epoch();
        // With 1 group, each array should have up to 2 bits (collisions
        // possible but unlikely across all 10 arrays).
        let twos = d.arrays.iter().filter(|a| a.weight() == 2).count();
        assert!(twos >= 8, "most arrays should carry two bits, got {twos}");
    }

    #[test]
    fn same_flow_same_group() {
        let mut r = StdRng::seed_from_u64(4);
        let c = UnalignedCollector::new(UnalignedConfig::small(16, 1, 99));
        let flow = FlowLabel::random(&mut r);
        let p1 = Packet::new(flow, vec![1u8; 536]);
        let p2 = Packet::new(flow, vec![2u8; 536]);
        assert_eq!(c.group_of(&p1), c.group_of(&p2));
    }

    #[test]
    fn router_seeds_give_different_offsets() {
        let c1 = UnalignedCollector::new(UnalignedConfig::small(1, 1, 100));
        let c2 = UnalignedCollector::new(UnalignedConfig::small(1, 1, 200));
        assert_ne!(c1.offsets().0, c2.offsets().0);
        // And offsets never let a fragment overrun a minimum-size payload.
        for &o in c1.offsets().0.iter().chain(c1.offsets().1) {
            assert!(o + FRAGMENT_LEN <= MIN_PAYLOAD);
        }
    }

    #[test]
    fn matching_offsets_produce_matching_bits() {
        // Two routers observe the same content with prefixes l1, l2. If
        // some (primary) offset pair satisfies a − b ≡ l1 − l2 (mod 536),
        // the corresponding arrays share ~content-length common ones.
        // Engineer the match: same router_seed ⇒ same offsets, and equal
        // prefixes ⇒ the match happens at i == j.
        let mut r = StdRng::seed_from_u64(5);
        let obj = ContentObject::random(&mut r, 536 * 40);
        let mut prefix = vec![0u8; 123];
        r.fill(prefix.as_mut_slice());

        let mk_packets = |rng: &mut StdRng, prefix: &[u8]| {
            let flow = FlowLabel::random(rng);
            obj.packetize(prefix, 536)
                .into_iter()
                .map(|pl| Packet::new(flow, pl))
                .collect::<Vec<_>>()
        };
        let pk1 = mk_packets(&mut r, &prefix);
        let pk2 = mk_packets(&mut r, &prefix);

        let mut c1 = UnalignedCollector::new(UnalignedConfig::small(1, 7, 42));
        let mut c2 = UnalignedCollector::new(UnalignedConfig::small(1, 7, 42));
        for p in &pk1 {
            c1.observe(p);
        }
        for p in &pk2 {
            c2.observe(p);
        }
        let (d1, d2) = (c1.finish_epoch(), c2.finish_epoch());
        // Array a of router 1 vs array a of router 2: same offset, same
        // prefix ⇒ identical fragments ⇒ identical indices.
        for a in 0..d1.arrays_per_group {
            let common = d1.arrays[a].common_ones(&d2.arrays[a]);
            assert!(
                common as usize >= 35,
                "array {a}: only {common} common ones for 40 matching packets"
            );
        }
    }

    #[test]
    fn mismatched_prefixes_rarely_match() {
        // Different prefixes and different offsets: expected common ones
        // per array pair is the hypergeometric background (~w²/1024).
        let mut r = StdRng::seed_from_u64(6);
        let obj = ContentObject::random(&mut r, 536 * 40);
        let plant = Planting::unaligned(obj, 536);
        let mut c1 = UnalignedCollector::new(UnalignedConfig::small(1, 7, 1));
        let mut c2 = UnalignedCollector::new(UnalignedConfig::small(1, 7, 2));
        for p in plant.instantiate(&mut r) {
            c1.observe(&p);
        }
        for p in plant.instantiate(&mut r) {
            c2.observe(&p);
        }
        let (d1, d2) = (c1.finish_epoch(), c2.finish_epoch());
        // Count array pairs with near-total overlap; with 100 pairs and a
        // ~17% per-pair match probability, 0 matches happen often — just
        // assert the *typical* pair shares few ones.
        let mut matched_pairs = 0;
        for a in &d1.arrays {
            for b in &d2.arrays {
                if a.common_ones(b) as usize >= 35 {
                    matched_pairs += 1;
                }
            }
        }
        assert!(
            matched_pairs <= 30,
            "too many matched pairs: {matched_pairs}"
        );
    }

    #[test]
    fn digest_rows_and_compression() {
        let mut r = StdRng::seed_from_u64(7);
        let mut c = UnalignedCollector::new(UnalignedConfig::small(4, 1, 1));
        for _ in 0..200 {
            c.observe(&packet(&mut r, 536));
        }
        let d = c.finish_epoch();
        assert_eq!(d.groups(), 4);
        let rows = d.to_rows();
        assert_eq!(rows.nrows(), 40);
        assert_eq!(rows.ncols(), 1024);
        assert!(d.compression_ratio() > 1.0);
        assert_eq!(d.raw_bytes, 200 * 576);
    }
}
