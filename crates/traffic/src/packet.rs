//! Packets and flow labels.

use bytes::Bytes;
use rand::Rng;

/// The classic 5-tuple flow label (paper Figure 9 hashes this to pick a
/// flow-split group, so all packets of one flow land in the same group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowLabel {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub proto: u8,
}

impl FlowLabel {
    /// Canonical 13-byte wire encoding, used as hash input.
    pub fn to_bytes(self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.src_ip.to_be_bytes());
        b[4..8].copy_from_slice(&self.dst_ip.to_be_bytes());
        b[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        b[12] = self.proto;
        b
    }

    /// Decodes the 13-byte wire encoding.
    pub fn from_bytes(b: &[u8; 13]) -> Self {
        FlowLabel {
            src_ip: u32::from_be_bytes(b[0..4].try_into().expect("4 bytes")),
            dst_ip: u32::from_be_bytes(b[4..8].try_into().expect("4 bytes")),
            src_port: u16::from_be_bytes(b[8..10].try_into().expect("2 bytes")),
            dst_port: u16::from_be_bytes(b[10..12].try_into().expect("2 bytes")),
            proto: b[12],
        }
    }

    /// A uniformly random TCP flow label.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        FlowLabel {
            src_ip: rng.gen(),
            dst_ip: rng.gen(),
            src_port: rng.gen_range(1024..=u16::MAX),
            dst_port: *[80u16, 443, 25, 8080, 6881]
                .get(rng.gen_range(0..5usize))
                .expect("index in range"),
            proto: 6,
        }
    }
}

/// One observed packet: flow label plus application-layer payload.
///
/// Network/transport headers are modelled only by their combined length
/// (40 bytes, IPv4+TCP without options) — the collectors strip them anyway
/// ("we strip the network and transport layer headers to obtain the
/// application layer data", Section III-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Flow the packet belongs to.
    pub flow: FlowLabel,
    /// Application-layer payload (shared, cheap to clone).
    pub payload: Bytes,
}

/// Combined IPv4 + TCP header length assumed for wire-size accounting.
pub const HEADER_LEN: usize = 40;

impl Packet {
    /// Creates a packet.
    pub fn new(flow: FlowLabel, payload: impl Into<Bytes>) -> Self {
        Packet {
            flow,
            payload: payload.into(),
        }
    }

    /// Total on-the-wire size (headers + payload) in bytes.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Whether the packet carries application data (the collectors skip
    /// header-only packets: "We hash only packets which actually contain
    /// payloads").
    pub fn has_payload(&self) -> bool {
        !self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flow_label_roundtrip() {
        let f = FlowLabel {
            src_ip: 0x0A000001,
            dst_ip: 0xC0A80102,
            src_port: 54321,
            dst_port: 80,
            proto: 6,
        };
        assert_eq!(FlowLabel::from_bytes(&f.to_bytes()), f);
    }

    #[test]
    fn flow_label_bytes_are_canonical() {
        let f = FlowLabel {
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
            proto: 17,
        };
        assert_eq!(f.to_bytes(), [0, 0, 0, 1, 0, 0, 0, 2, 0, 3, 0, 4, 17]);
    }

    #[test]
    fn random_flows_differ() {
        let mut r = StdRng::seed_from_u64(1);
        let a = FlowLabel::random(&mut r);
        let b = FlowLabel::random(&mut r);
        assert_ne!(a, b);
        assert_eq!(a.proto, 6);
    }

    #[test]
    fn packet_accounting() {
        let mut r = StdRng::seed_from_u64(2);
        let p = Packet::new(FlowLabel::random(&mut r), vec![0u8; 536]);
        assert_eq!(p.wire_len(), 576);
        assert!(p.has_payload());
        let ack = Packet::new(FlowLabel::random(&mut r), Vec::new());
        assert_eq!(ack.wire_len(), 40);
        assert!(!ack.has_payload());
    }
}
