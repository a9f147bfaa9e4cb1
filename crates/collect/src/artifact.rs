//! Typed, capped, CRC-covered **sidecar artifacts**.
//!
//! The epoch refactor that lets a bundle carry more than one summary:
//! a DCSR bundle ends in an optional *artifact section* —
//! a short list of `(kind, payload)` pairs, each individually
//! CRC-guarded — so companion summaries (the `dcs-sketch` heavy-hitter
//! sketch today, anything else tomorrow) ride beside the bitmap digest
//! without another wire-format revision. Design rules:
//!
//! * **Typed** — `kind` is a FourCC (`b"DCSS"` for sketches); decoders
//!   skip kinds they don't understand but keep them opaque, so an old
//!   centre forwards a new monitor's artifacts unharmed.
//! * **Capped** — at most [`MAX_ARTIFACTS`] per section and
//!   [`MAX_ARTIFACT_PAYLOAD`] bytes per payload, and every declared
//!   length is checked against the remaining buffer *before* any
//!   allocation (the same discipline as the digest decoders).
//! * **CRC-covered** — each artifact carries a CRC-32 over
//!   `kind ‖ len ‖ payload`; a flipped bit in one artifact drops that
//!   bundle at the ingest boundary as a typed wire fault.
//!
//! ```text
//! count u16 | count × ( kind u32 | len u32 | payload | crc32 u32 )
//! ```
//!
//! An empty section encodes as **zero bytes** (the bundle encoder emits
//! the pre-artifact frame version), so bundles without artifacts are
//! byte-identical to the previous format — the compatibility invariant
//! the existing transport and checkpoint byte-identity tests pin.

use crate::wire::WireError;
use bytes::{Buf, BufMut, BytesMut};
use dcs_hash::Crc32;

/// Maximum artifacts per section.
pub const MAX_ARTIFACTS: usize = 8;
/// Maximum payload bytes per artifact (the monitoring point's sketch cap
/// is derived from it; digests themselves run far larger).
pub const MAX_ARTIFACT_PAYLOAD: usize = 1 << 20;
/// FourCC of the `dcs-sketch` heavy-hitter sketch payload.
pub const ARTIFACT_KIND_SKETCH: u32 = u32::from_le_bytes(*b"DCSS");

/// Bytes each artifact costs beyond its payload (kind + len + crc).
const PER_ARTIFACT_OVERHEAD: usize = 12;

/// One typed sidecar artifact.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Artifact {
    /// FourCC describing the payload (e.g. [`ARTIFACT_KIND_SKETCH`]).
    pub kind: u32,
    /// Opaque payload bytes (the kind's own codec applies).
    pub payload: Vec<u8>,
}

impl Artifact {
    /// A sketch artifact around an encoded `DCSS` payload.
    pub fn sketch(payload: Vec<u8>) -> Self {
        Artifact {
            kind: ARTIFACT_KIND_SKETCH,
            payload,
        }
    }

    /// Wire bytes this artifact adds to a section.
    pub fn encoded_len(&self) -> usize {
        PER_ARTIFACT_OVERHEAD + self.payload.len()
    }
}

/// Wire bytes of a whole artifact section (0 when `artifacts` is empty
/// — empty sections are elided entirely).
pub fn section_len(artifacts: &[Artifact]) -> usize {
    if artifacts.is_empty() {
        0
    } else {
        2 + artifacts.iter().map(Artifact::encoded_len).sum::<usize>()
    }
}

// The vendored `bytes` stand-in has no u16 accessors; the count field
// stays u16 on the wire via these local helpers.
fn put_u16_le(buf: &mut BytesMut, v: u16) {
    buf.put_slice(&v.to_le_bytes());
}

fn get_u16_le(buf: &mut &[u8]) -> u16 {
    let v = u16::from_le_bytes([buf[0], buf[1]]);
    buf.advance(2);
    v
}

fn artifact_crc(kind: u32, payload: &[u8]) -> u32 {
    Crc32::new()
        .update(&kind.to_le_bytes())
        .update(&(payload.len() as u32).to_le_bytes())
        .update(payload)
        .finish()
}

/// Appends an artifact section to `buf`. Empty sections emit nothing.
///
/// # Errors
/// [`WireError::TooLarge`] when a cap is exceeded — a frame must never
/// ship a section its own decoder would reject.
pub fn encode_section(artifacts: &[Artifact], buf: &mut BytesMut) -> Result<(), WireError> {
    if artifacts.is_empty() {
        return Ok(());
    }
    if artifacts.len() > MAX_ARTIFACTS {
        return Err(WireError::TooLarge("too many artifacts"));
    }
    put_u16_le(buf, artifacts.len() as u16);
    for a in artifacts {
        if a.payload.len() > MAX_ARTIFACT_PAYLOAD {
            return Err(WireError::TooLarge("artifact payload"));
        }
        buf.put_u32_le(a.kind);
        buf.put_u32_le(a.payload.len() as u32);
        buf.put_slice(&a.payload);
        buf.put_u32_le(artifact_crc(a.kind, &a.payload));
    }
    Ok(())
}

/// Decodes an artifact section from the front of `buf`, advancing it:
/// owned copies of what [`decode_section_views`] validates.
pub fn decode_section(buf: &mut &[u8]) -> Result<Vec<Artifact>, WireError> {
    let views = decode_section_views(buf)?;
    Ok(views
        .into_iter()
        .map(|(kind, payload)| Artifact {
            kind,
            payload: payload.to_vec(),
        })
        .collect())
}

/// Validates an artifact section at the front of `buf`, advancing it;
/// payloads stay slices into the frame. Call only when the containing
/// frame says a section is present; an empty `buf` is a missing count,
/// i.e. [`WireError::Truncated`].
pub fn decode_section_views<'a>(buf: &mut &'a [u8]) -> Result<Vec<(u32, &'a [u8])>, WireError> {
    if buf.len() < 2 {
        return Err(WireError::Truncated);
    }
    let count = get_u16_le(buf) as usize;
    if count == 0 || count > MAX_ARTIFACTS {
        return Err(WireError::Malformed("artifact count"));
    }
    // Caps are tiny, but keep the discipline: the declared count must
    // fit the remaining bytes before reserving the output vector.
    if count.saturating_mul(PER_ARTIFACT_OVERHEAD) > buf.len() {
        return Err(WireError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.len() < 8 {
            return Err(WireError::Truncated);
        }
        let kind = buf.get_u32_le();
        let len = buf.get_u32_le() as usize;
        if len > MAX_ARTIFACT_PAYLOAD {
            return Err(WireError::Malformed("artifact payload length"));
        }
        if buf.len() < len + 4 {
            return Err(WireError::Truncated);
        }
        let payload = &buf[..len];
        buf.advance(len);
        let crc = buf.get_u32_le();
        if crc != artifact_crc(kind, payload) {
            return Err(WireError::Malformed("artifact checksum"));
        }
        out.push((kind, payload));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Artifact> {
        vec![
            Artifact::sketch(vec![1, 2, 3, 4, 5]),
            Artifact {
                kind: u32::from_le_bytes(*b"XOPQ"),
                payload: Vec::new(),
            },
        ]
    }

    #[test]
    fn round_trip_owned_and_view() {
        let arts = sample();
        let mut buf = BytesMut::new();
        encode_section(&arts, &mut buf).expect("encodes");
        assert_eq!(buf.len(), section_len(&arts));

        let mut rd: &[u8] = &buf;
        let got = decode_section(&mut rd).expect("decodes");
        assert_eq!(got, arts);
        assert!(rd.is_empty(), "decoder must consume the whole section");

        let mut rd: &[u8] = &buf;
        let views = decode_section_views(&mut rd).expect("view decodes");
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].0, ARTIFACT_KIND_SKETCH);
        assert_eq!(views[0].1, &arts[0].payload[..]);
    }

    #[test]
    fn empty_section_is_zero_bytes() {
        let mut buf = BytesMut::new();
        encode_section(&[], &mut buf).expect("empty encodes");
        assert!(buf.is_empty());
        assert_eq!(section_len(&[]), 0);
    }

    #[test]
    fn unknown_kinds_survive_round_trips_opaquely() {
        let arts = vec![Artifact {
            kind: 0xDEAD_BEEF,
            payload: vec![9; 100],
        }];
        let mut buf = BytesMut::new();
        encode_section(&arts, &mut buf).expect("encodes");
        let mut rd: &[u8] = &buf;
        assert_eq!(decode_section(&mut rd).expect("decodes"), arts);
    }

    #[test]
    fn corruption_is_caught_by_the_per_artifact_crc() {
        let arts = sample();
        let mut buf = BytesMut::new();
        encode_section(&arts, &mut buf).expect("encodes");
        for pos in 2..buf.len() {
            let mut bad = buf.to_vec();
            bad[pos] ^= 0x40;
            let mut rd: &[u8] = &bad;
            assert!(
                decode_section(&mut rd).is_err(),
                "flip at {pos} went unnoticed"
            );
        }
    }

    #[test]
    fn caps_are_enforced_on_both_sides() {
        let many: Vec<Artifact> = (0..MAX_ARTIFACTS + 1)
            .map(|i| Artifact {
                kind: i as u32,
                payload: Vec::new(),
            })
            .collect();
        let mut buf = BytesMut::new();
        assert_eq!(
            encode_section(&many, &mut buf),
            Err(WireError::TooLarge("too many artifacts"))
        );

        let huge = vec![Artifact {
            kind: 1,
            payload: vec![0; MAX_ARTIFACT_PAYLOAD + 1],
        }];
        let mut buf = BytesMut::new();
        assert_eq!(
            encode_section(&huge, &mut buf),
            Err(WireError::TooLarge("artifact payload"))
        );

        // Decoder: a hostile count dies on the remaining-length
        // pre-check, not on allocation.
        let mut rd: &[u8] = &[0xFF, 0xFF];
        assert!(decode_section(&mut rd).is_err());
        // A hostile payload length likewise.
        let mut frame = BytesMut::new();
        put_u16_le(&mut frame, 1);
        frame.put_u32_le(7);
        frame.put_u32_le(u32::MAX);
        let mut rd: &[u8] = &frame;
        assert!(decode_section(&mut rd).is_err());
    }
}
