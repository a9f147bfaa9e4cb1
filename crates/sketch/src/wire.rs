//! `DCSS` — the sketch artifact payload format.
//!
//! A sketch rides inside the generic artifact section of a DCSR
//! bundle (`dcs-collect::artifact` frames it with a length cap and a
//! CRC-32 trailer); this codec only defines the payload itself:
//!
//! ```text
//! magic "DCSS" | version u8 | kind u8 | domain u8 | reserved u8 = 0
//! kind 0 (Space-Saving):
//!   cap u32 | deficit u64 | total u64 | n u32 | n × (key u64, lower u64)
//! kind 1 (distinct KMV):
//!   cap u32 | s u32 | floor u64 | n u32 |
//!     n × (key u64, m u32, m × hash u64)
//! ```
//!
//! All integers little-endian. The decoder follows the workspace's
//! cap-before-allocation discipline: every count is bounded by
//! [`MAX_SKETCH_CAP`] **and** cross-checked against the remaining
//! buffer length before any `Vec`/map reserves memory, so a hostile
//! length field can waste at most the bytes it actually shipped.

use crate::{DistinctSketch, SketchDomain, SpaceSaving};
use std::collections::{BTreeMap, BTreeSet};

/// Payload magic.
pub const DCSS_MAGIC: [u8; 4] = *b"DCSS";
/// Codec version.
pub const DCSS_VERSION: u8 = 1;
/// Upper bound on `cap`, `s`, and every entry count a decoder will
/// honour (a monitoring point ships tens to hundreds of counters; four
/// orders of magnitude of headroom).
pub const MAX_SKETCH_CAP: usize = 1 << 16;

const KIND_SPACE_SAVING: u8 = 0;
const KIND_DISTINCT: u8 = 1;

/// Typed decode failures (mirrors `dcs-collect`'s `WireError` shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// Buffer shorter than a declared field.
    Truncated,
    /// Magic bytes are not `DCSS`.
    BadMagic,
    /// Unknown codec version.
    BadVersion(u8),
    /// Unknown sketch kind tag.
    BadKind(u8),
    /// A count or cap exceeds [`MAX_SKETCH_CAP`] or its container.
    CapExceeded,
    /// Structural violation (duplicate key, oversized KMV set, zero
    /// cap).
    Malformed,
}

impl std::fmt::Display for SketchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchError::Truncated => write!(f, "sketch payload truncated"),
            SketchError::BadMagic => write!(f, "bad sketch magic"),
            SketchError::BadVersion(v) => write!(f, "unsupported sketch version {v}"),
            SketchError::BadKind(k) => write!(f, "unknown sketch kind {k}"),
            SketchError::CapExceeded => write!(f, "sketch count exceeds cap"),
            SketchError::Malformed => write!(f, "malformed sketch payload"),
        }
    }
}

impl std::error::Error for SketchError {}

/// A decoded sketch payload with its domain tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchWire {
    /// Weighted Space-Saving counters.
    SpaceSaving {
        /// Key-domain tag (raw; see [`SketchDomain::from_u8`]).
        domain: u8,
        /// The sketch.
        sketch: SpaceSaving,
    },
    /// Distinct-count KMV heavy hitters.
    Distinct {
        /// Key-domain tag (raw; see [`SketchDomain::from_u8`]).
        domain: u8,
        /// The sketch.
        sketch: DistinctSketch,
    },
}

impl SketchWire {
    /// The raw domain tag.
    pub fn domain(&self) -> u8 {
        match self {
            SketchWire::SpaceSaving { domain, .. } | SketchWire::Distinct { domain, .. } => *domain,
        }
    }

    /// The typed domain, if the tag is known.
    pub fn typed_domain(&self) -> Option<SketchDomain> {
        SketchDomain::from_u8(self.domain())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], off: &mut usize) -> Result<u32, SketchError> {
    let end = off.checked_add(4).ok_or(SketchError::Truncated)?;
    let bytes = buf.get(*off..end).ok_or(SketchError::Truncated)?;
    *off = end;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

fn get_u64(buf: &[u8], off: &mut usize) -> Result<u64, SketchError> {
    let end = off.checked_add(8).ok_or(SketchError::Truncated)?;
    let bytes = buf.get(*off..end).ok_or(SketchError::Truncated)?;
    *off = end;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

/// Encodes a Space-Saving sketch into a fresh `DCSS` payload.
pub fn encode_space_saving(sketch: &SpaceSaving, domain: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(36 + sketch.len() * 16);
    out.extend_from_slice(&DCSS_MAGIC);
    out.push(DCSS_VERSION);
    out.push(KIND_SPACE_SAVING);
    out.push(domain);
    out.push(0);
    put_u32(&mut out, sketch.cap() as u32);
    put_u64(&mut out, sketch.error_bound());
    put_u64(&mut out, sketch.total());
    put_u32(&mut out, sketch.len() as u32);
    for (&k, &v) in sketch.entries() {
        put_u64(&mut out, k);
        put_u64(&mut out, v);
    }
    out
}

/// Encodes a distinct sketch into a fresh `DCSS` payload.
pub fn encode_distinct(sketch: &DistinctSketch, domain: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + sketch.len() * (12 + sketch.kmv_size() * 8));
    out.extend_from_slice(&DCSS_MAGIC);
    out.push(DCSS_VERSION);
    out.push(KIND_DISTINCT);
    out.push(domain);
    out.push(0);
    put_u32(&mut out, sketch.cap() as u32);
    put_u32(&mut out, sketch.kmv_size() as u32);
    put_u64(&mut out, sketch.floor());
    put_u32(&mut out, sketch.len() as u32);
    for (&k, set) in sketch.keys() {
        put_u64(&mut out, k);
        put_u32(&mut out, set.len() as u32);
        for &h in set {
            put_u64(&mut out, h);
        }
    }
    out
}

/// Decodes a `DCSS` payload.
pub fn decode_sketch(buf: &[u8]) -> Result<SketchWire, SketchError> {
    if buf.len() < 8 {
        return Err(SketchError::Truncated);
    }
    if buf[..4] != DCSS_MAGIC {
        return Err(SketchError::BadMagic);
    }
    if buf[4] != DCSS_VERSION {
        return Err(SketchError::BadVersion(buf[4]));
    }
    let kind = buf[5];
    let domain = buf[6];
    let mut off = 8usize;
    match kind {
        KIND_SPACE_SAVING => {
            let cap = get_u32(buf, &mut off)? as usize;
            let deficit = get_u64(buf, &mut off)?;
            let total = get_u64(buf, &mut off)?;
            let n = get_u32(buf, &mut off)? as usize;
            if cap == 0 || cap > MAX_SKETCH_CAP || n > cap {
                return Err(SketchError::CapExceeded);
            }
            // Each entry is 16 bytes: the count must fit the remainder
            // before any allocation happens.
            if n.saturating_mul(16) > buf.len() - off {
                return Err(SketchError::Truncated);
            }
            let mut entries = BTreeMap::new();
            for _ in 0..n {
                let k = get_u64(buf, &mut off)?;
                let v = get_u64(buf, &mut off)?;
                if v == 0 || entries.insert(k, v).is_some() {
                    return Err(SketchError::Malformed);
                }
            }
            Ok(SketchWire::SpaceSaving {
                domain,
                sketch: SpaceSaving::from_parts(cap, entries, deficit, total),
            })
        }
        KIND_DISTINCT => {
            let cap = get_u32(buf, &mut off)? as usize;
            let s = get_u32(buf, &mut off)? as usize;
            let floor = get_u64(buf, &mut off)?;
            let n = get_u32(buf, &mut off)? as usize;
            if cap == 0 || cap > MAX_SKETCH_CAP || !(2..=MAX_SKETCH_CAP).contains(&s) || n > cap {
                return Err(SketchError::CapExceeded);
            }
            // Every key costs at least 12 bytes even with an empty set.
            if n.saturating_mul(12) > buf.len() - off {
                return Err(SketchError::Truncated);
            }
            let mut keys = BTreeMap::new();
            for _ in 0..n {
                let k = get_u64(buf, &mut off)?;
                let m = get_u32(buf, &mut off)? as usize;
                if m > s {
                    return Err(SketchError::CapExceeded);
                }
                if m.saturating_mul(8) > buf.len() - off {
                    return Err(SketchError::Truncated);
                }
                let mut set = BTreeSet::new();
                for _ in 0..m {
                    if !set.insert(get_u64(buf, &mut off)?) {
                        return Err(SketchError::Malformed);
                    }
                }
                if set.is_empty() || keys.insert(k, set).is_some() {
                    return Err(SketchError::Malformed);
                }
            }
            Ok(SketchWire::Distinct {
                domain,
                sketch: DistinctSketch::from_parts(cap, s, keys, floor),
            })
        }
        other => Err(SketchError::BadKind(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_saving_round_trip() {
        let mut s = SpaceSaving::new(4);
        for i in 0..50u64 {
            s.offer(i % 9, 1 + i % 3);
        }
        let bytes = encode_space_saving(&s, SketchDomain::ContentIndex.to_u8());
        match decode_sketch(&bytes).expect("round trip") {
            SketchWire::SpaceSaving { domain, sketch } => {
                assert_eq!(domain, 0);
                assert_eq!(sketch, s);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn distinct_round_trip() {
        let mut d = DistinctSketch::new(4, 8);
        for i in 0..40u64 {
            d.offer(i % 6, i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let bytes = encode_distinct(&d, SketchDomain::SrcPortDstAs.to_u8());
        match decode_sketch(&bytes).expect("round trip") {
            SketchWire::Distinct { domain, sketch } => {
                assert_eq!(domain, 1);
                assert_eq!(sketch, d);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn hostile_count_is_rejected_before_allocation() {
        let mut s = SpaceSaving::new(4);
        s.offer(1, 5);
        let mut bytes = encode_space_saving(&s, 0);
        // Claim 2^32-1 entries in a tiny buffer: must be CapExceeded /
        // Truncated, never an allocation attempt.
        let n_off = bytes.len() - 16 - 4;
        bytes[n_off..n_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_sketch(&bytes).is_err());
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let mut s = SpaceSaving::new(4);
        s.offer(1, 5);
        let bytes = encode_space_saving(&s, 0);
        for cut in 0..bytes.len() {
            assert!(decode_sketch(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(
            decode_sketch(b"DCSX....").unwrap_err(),
            SketchError::BadMagic
        );
        assert_eq!(
            decode_sketch(&[b'D', b'C', b'S', b'S', 9, 0, 0, 0]).unwrap_err(),
            SketchError::BadVersion(9)
        );
    }
}
