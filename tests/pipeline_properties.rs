//! Property-based integration tests across crates: invariants of the
//! collector → digest → matrix path under arbitrary traffic.

use dcs_bitmap::{Bitmap, WordSource};
use dcs_collect::unaligned::MIN_PAYLOAD;
use dcs_collect::wire::parse_bitmap;
use dcs_collect::{AlignedCollector, AlignedConfig, UnalignedCollector, UnalignedConfig};
use dcs_traffic::{FlowLabel, Packet};
use proptest::prelude::*;

/// Arbitrary packet with payload in the interesting size band.
fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        proptest::collection::vec(any::<u8>(), 0..1600),
    )
        .prop_map(|(s, d, sp, dp, payload)| {
            Packet::new(
                FlowLabel {
                    src_ip: s,
                    dst_ip: d,
                    src_port: sp,
                    dst_port: dp,
                    proto: 6,
                },
                payload,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn aligned_digest_weight_bounded_by_hashed_packets(
        pkts in proptest::collection::vec(arb_packet(), 0..200)
    ) {
        let mut c = AlignedCollector::new(AlignedConfig::small(1 << 12, 1));
        for p in &pkts {
            c.observe(p);
        }
        let d = c.finish_epoch();
        prop_assert!(u64::from(d.bitmap.weight()) <= d.packets_hashed);
        prop_assert_eq!(d.packets_seen, pkts.len() as u64);
        prop_assert_eq!(
            d.packets_hashed,
            pkts.iter().filter(|p| p.has_payload()).count() as u64
        );
        prop_assert_eq!(
            d.raw_bytes,
            pkts.iter().map(|p| p.wire_len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn aligned_collector_is_order_insensitive(
        pkts in proptest::collection::vec(arb_packet(), 0..100),
        seed in any::<u64>(),
    ) {
        // The digest is a set of bits: permuting the packet stream must
        // not change it.
        let digest_of = |pkts: &[Packet]| {
            let mut c = AlignedCollector::new(AlignedConfig::small(1 << 12, seed));
            for p in pkts {
                c.observe(p);
            }
            c.finish_epoch().bitmap
        };
        let forward = digest_of(&pkts);
        let mut reversed = pkts.clone();
        reversed.reverse();
        prop_assert_eq!(forward, digest_of(&reversed));
    }

    #[test]
    fn aligned_digest_monotone_under_union(
        a in proptest::collection::vec(arb_packet(), 0..60),
        b in proptest::collection::vec(arb_packet(), 0..60),
    ) {
        // Observing a superset of traffic sets a superset of bits.
        let digest_of = |pkts: &[Packet]| {
            let mut c = AlignedCollector::new(AlignedConfig::small(1 << 12, 3));
            for p in pkts {
                c.observe(p);
            }
            c.finish_epoch().bitmap
        };
        let da = digest_of(&a);
        let mut all = a.clone();
        all.extend(b.iter().cloned());
        let dall = digest_of(&all);
        // Every bit of da appears in dall.
        prop_assert_eq!(da.common_ones(&dall), da.weight());
    }

    #[test]
    fn unaligned_rows_respect_group_structure(
        pkts in proptest::collection::vec(arb_packet(), 0..150)
    ) {
        let groups = 8;
        let mut c = UnalignedCollector::new(UnalignedConfig::small(groups, 1, 7));
        let k = c.config().arrays_per_group;
        // Track which groups received sampled packets.
        let mut touched = vec![false; groups];
        for p in &pkts {
            if p.payload.len() >= MIN_PAYLOAD {
                touched[c.group_of(p)] = true;
            }
            c.observe(p);
        }
        let d = c.finish_epoch();
        prop_assert_eq!(d.arrays.len(), groups * k);
        for (gi, &was_touched) in touched.iter().enumerate() {
            let weight: u32 = d.arrays[gi * k..(gi + 1) * k]
                .iter()
                .map(Bitmap::weight)
                .sum();
            if !was_touched {
                prop_assert_eq!(weight, 0, "untouched group {} has bits", gi);
            } else {
                prop_assert!(weight > 0, "touched group {} is empty", gi);
            }
        }
    }

    #[test]
    fn wire_roundtrip_any_bitmap(
        len in 1usize..5000,
        idxs in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        let bm = Bitmap::from_indices(len, idxs.into_iter().map(|i| i % len));
        let frame = bm.encode();
        let (view, used) = parse_bitmap(&frame).expect("roundtrip");
        prop_assert_eq!((used, view.len()), (frame.len(), len));
        for (i, &w) in bm.words().iter().enumerate() {
            prop_assert_eq!(view.word(i), w, "word {}", i);
        }
    }
}
