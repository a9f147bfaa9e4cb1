//! Property-based tests for the traffic substrate.

use crate::packet::{FlowLabel, Packet};
use crate::plant::{ContentObject, Planting};
use crate::trace::{TraceReader, TraceWriter};
use bytes::Bytes;
use proptest::prelude::*;

fn arb_flow() -> impl Strategy<Value = FlowLabel> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
    )
        .prop_map(|(src_ip, dst_ip, src_port, dst_port, proto)| FlowLabel {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        })
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (arb_flow(), proptest::collection::vec(any::<u8>(), 0..256))
        .prop_map(|(flow, payload)| Packet::new(flow, payload))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flow_label_bytes_roundtrip(f in arb_flow()) {
        prop_assert_eq!(FlowLabel::from_bytes(&f.to_bytes()), f);
    }

    #[test]
    fn trace_roundtrip_arbitrary_packets(pkts in proptest::collection::vec(arb_packet(), 0..50)) {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.write_all_packets(&pkts).unwrap();
        let buf = w.finish().unwrap();
        let back: Vec<Packet> = TraceReader::new(&buf[..])
            .unwrap()
            .collect::<std::io::Result<_>>()
            .unwrap();
        prop_assert_eq!(back, pkts);
    }

    #[test]
    fn packetize_reassembles_to_prefix_plus_object(
        object in proptest::collection::vec(any::<u8>(), 1..400),
        prefix in proptest::collection::vec(any::<u8>(), 0..100),
        payload_size in 1usize..64,
    ) {
        let obj = ContentObject::new(object.clone());
        let chunks = obj.packetize(&prefix, payload_size);
        // All but the last chunk are full; concatenation reproduces the
        // stream exactly.
        for c in chunks.iter().rev().skip(1) {
            prop_assert_eq!(c.len(), payload_size);
        }
        let reassembled: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        let mut stream = prefix.clone();
        stream.extend_from_slice(&object);
        prop_assert_eq!(reassembled, stream);
    }

    #[test]
    fn planted_instance_packet_count(
        obj_len in 1usize..2_000,
        payload_size in 8usize..256,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let obj = ContentObject::new(vec![7u8; obj_len]);
        // Aligned: exactly ceil(len / size) packets.
        let plant = Planting::aligned(obj.clone(), payload_size);
        let inst = plant.instantiate(&mut rng);
        prop_assert_eq!(inst.len(), obj_len.div_ceil(payload_size));
        // Unaligned: prefix < payload_size adds at most one packet.
        let plant = Planting::unaligned(obj, payload_size);
        let inst = plant.instantiate(&mut rng);
        let base = obj_len.div_ceil(payload_size);
        prop_assert!(inst.len() >= base && inst.len() <= base + 1);
        // All packets of one instance share a flow.
        prop_assert!(inst.iter().all(|p| p.flow == inst[0].flow));
    }

    #[test]
    fn wire_len_is_header_plus_payload(payload in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let p = Packet::new(
            FlowLabel { src_ip: 1, dst_ip: 2, src_port: 3, dst_port: 4, proto: 6 },
            Bytes::from(payload.clone()),
        );
        prop_assert_eq!(p.wire_len(), 40 + payload.len());
        prop_assert_eq!(p.has_payload(), !payload.is_empty());
    }
}
