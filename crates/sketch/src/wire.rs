//! `DCSS` — the sketch artifact payload format.
//!
//! A sketch rides inside the generic artifact section of a DCSR bundle
//! (`dcs-collect::artifact` frames it with a length cap and a CRC-32
//! trailer); this module only writes the payload itself:
//!
//! ```text
//! magic "DCSS" | version u8 = 1 | kind u8 = 0 | domain u8 = 0 | reserved u8 = 0
//!   cap u32 | deficit u64 | total u64 | n u32 | n × (key u64, lower u64)
//! ```
//!
//! All integers little-endian; entries in ascending key order. Kind `0`
//! is Space-Saving and domain `0` is the content index, the aligned
//! bitmap column each payload hashes to — the only kind and domain a
//! monitoring point writes.

use crate::SpaceSaving;

/// Payload magic.
pub const DCSS_MAGIC: [u8; 4] = *b"DCSS";
const DCSS_VERSION: u8 = 1;
/// Bytes of a payload before its first entry.
pub const HEADER_LEN: usize = 32;
/// Bytes of one `(key, lower)` entry.
pub const ENTRY_LEN: usize = 16;

const KIND_SPACE_SAVING: u8 = 0;
const DOMAIN_CONTENT_INDEX: u8 = 0;

/// Encodes a content-index Space-Saving sketch into a fresh `DCSS`
/// payload of `HEADER_LEN + ENTRY_LEN · sketch.len()` bytes.
pub fn encode_space_saving(sketch: &SpaceSaving) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + sketch.len() * ENTRY_LEN);
    out.extend_from_slice(&DCSS_MAGIC);
    out.extend_from_slice(&[DCSS_VERSION, KIND_SPACE_SAVING, DOMAIN_CONTENT_INDEX, 0]);
    out.extend_from_slice(&(sketch.cap() as u32).to_le_bytes());
    out.extend_from_slice(&sketch.error_bound().to_le_bytes());
    out.extend_from_slice(&sketch.total().to_le_bytes());
    out.extend_from_slice(&(sketch.len() as u32).to_le_bytes());
    for (&k, &v) in sketch.entries() {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_layout() {
        let mut s = SpaceSaving::new(4);
        s.offer(9, 2);
        s.offer(3, 5);
        let bytes = encode_space_saving(&s);
        assert_eq!(bytes.len(), HEADER_LEN + 2 * ENTRY_LEN);
        assert_eq!(&bytes[..8], b"DCSS\x01\x00\x00\x00");
        assert_eq!(bytes[8..12], 4u32.to_le_bytes(), "cap");
        assert_eq!(bytes[12..20], 0u64.to_le_bytes(), "deficit");
        assert_eq!(bytes[20..28], 7u64.to_le_bytes(), "total");
        assert_eq!(bytes[28..32], 2u32.to_le_bytes(), "entries");
        let entry = |k: u64, v: u64| [k.to_le_bytes(), v.to_le_bytes()].concat();
        assert_eq!(
            bytes[32..],
            [entry(3, 5), entry(9, 2)].concat(),
            "key order"
        );
    }
}
