//! Chunked transport envelope for digest bundles — the DCSR wire format's
//! delivery layer.
//!
//! A paper-scale digest bundle is ~4 Mbit; no real measurement plane
//! ships that as one indivisible datagram. This module splits an encoded
//! [`RouterDigest`](crate::monitor::RouterDigest) bundle into bounded
//! **chunk frames**, each self-describing and independently checkable:
//!
//! ```text
//!  ┌───────┬───┬───────────┬──────────┬─────┬───────┬─────────────┬─────────┬───────┐
//!  │ magic │ v │ router id │ epoch id │ seq │ total │ payload len │ payload │ CRC32 │
//!  │ DCSC  │ 1 │    u64    │   u64    │ u32 │  u32  │     u32     │  bytes  │  u32  │
//!  └───────┴───┴───────────┴──────────┴─────┴───────┴─────────────┴─────────┴───────┘
//! ```
//!
//! All integers are little-endian. The CRC-32 trailer
//! ([`dcs_hash::crc32()`]) covers header *and* payload, so truncation,
//! reordering corruption and bit-flips are detected before a single
//! payload byte reaches the reassembly buffer. Every declared length is
//! checked against the remaining buffer and against hard caps
//! ([`MAX_CHUNK_PAYLOAD`], [`MAX_CHUNKS`]) before any allocation, through
//! the one [`Reader`] every wire decoder shares.
//!
//! Reassembly, acknowledgement and retransmission live one layer up, in
//! [`crate::session`].

use bytes::BufMut;
use dcs_collect::frame::{seal, FrameError, Reader};

/// Magic for chunk frames (`b"DCSC"`).
pub const CHUNK_MAGIC: [u8; 4] = *b"DCSC";

/// Chunk envelope version.
pub const CHUNK_VERSION: u8 = 1;

/// Fixed header bytes before the payload: magic + version + router id +
/// epoch id + seq + total + payload length.
pub const CHUNK_HEADER: usize = 4 + 1 + 8 + 8 + 4 + 4 + 4;

/// Trailer bytes after the payload (the CRC-32).
pub const CHUNK_TRAILER: usize = 4;

/// Hard cap on one chunk's payload. A declared length above this is
/// rejected before allocation, whatever the buffer claims.
pub const MAX_CHUNK_PAYLOAD: usize = 64 * 1024;

/// Hard cap on `total` — the declared chunk count of one bundle. Caps
/// reassembly-buffer allocation at the session layer: a hostile `total`
/// cannot reserve more than this many slots.
pub const MAX_CHUNKS: u32 = 1 << 16;

/// Datagram-safe payload size: the whole encoded frame (header +
/// payload + CRC trailer) fits in 1400 bytes, clearing the common
/// 1500-byte Ethernet MTU with room for IP/UDP headers and tunnel
/// overhead. The socket path defaults to this; in-memory and TCP paths
/// may still use payloads up to [`MAX_CHUNK_PAYLOAD`].
pub const DATAGRAM_SAFE_PAYLOAD: usize = 1400 - CHUNK_HEADER - CHUNK_TRAILER;

/// One decoded chunk frame, payload borrowed from the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkFrame<'a> {
    /// The shipping router's index.
    pub router_id: u64,
    /// The epoch the chunked bundle belongs to.
    pub epoch_id: u64,
    /// This chunk's position, `0 ≤ seq < total`.
    pub seq: u32,
    /// Total chunks in the bundle.
    pub total: u32,
    /// This chunk's slice of the encoded bundle.
    pub payload: &'a [u8],
}

impl<'a> ChunkFrame<'a> {
    /// Encodes one chunk frame (header, payload, CRC-32 trailer).
    ///
    /// # Panics
    /// Panics if `payload` exceeds [`MAX_CHUNK_PAYLOAD`], `total` exceeds
    /// [`MAX_CHUNKS`], `total` is zero or `seq ≥ total` — the encoder is
    /// only fed by [`chunk_bundle`] and the resend path, which never
    /// construct such frames.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.payload.len() <= MAX_CHUNK_PAYLOAD,
            "chunk payload over cap"
        );
        assert!(
            self.total >= 1 && self.total <= MAX_CHUNKS,
            "chunk total out of range"
        );
        assert!(self.seq < self.total, "chunk seq beyond total");
        let mut buf = Vec::with_capacity(CHUNK_HEADER + self.payload.len() + CHUNK_TRAILER);
        buf.put_slice(&CHUNK_MAGIC);
        buf.put_u8(CHUNK_VERSION);
        buf.put_u64_le(self.router_id);
        buf.put_u64_le(self.epoch_id);
        buf.put_u32_le(self.seq);
        buf.put_u32_le(self.total);
        buf.put_u32_le(self.payload.len() as u32);
        buf.put_slice(self.payload);
        seal(&mut buf);
        buf
    }

    /// Decodes the chunk frame at the front of `buf`, returning the frame
    /// (payload borrowed) and the bytes consumed. Never panics on
    /// arbitrary input, and rejects every declared length against the
    /// remaining buffer and the hard caps *before* touching the payload.
    pub fn decode(buf: &'a [u8]) -> Result<(ChunkFrame<'a>, usize), FrameError> {
        let mut r = Reader::new(buf);
        r.magic_version(CHUNK_MAGIC, &[CHUNK_VERSION])?;
        let router_id = r.u64()?;
        let epoch_id = r.u64()?;
        let seq = r.u32()?;
        let total = r.u32()?;
        let payload_len = r.count(MAX_CHUNK_PAYLOAD, 1, "payload length over cap")?;
        let payload = r.bytes(payload_len)?;
        r.crc_trailer()?;
        if total == 0 {
            return Err(FrameError::Malformed("total = 0"));
        }
        if total > MAX_CHUNKS {
            return Err(FrameError::Malformed("total over cap"));
        }
        if seq >= total {
            return Err(FrameError::Malformed("seq beyond total"));
        }
        Ok((
            ChunkFrame {
                router_id,
                epoch_id,
                seq,
                total,
                payload,
            },
            r.used(),
        ))
    }

    /// Best-effort header salvage of a frame whose CRC failed: if the
    /// magic and version still parse, returns the (untrusted) router id,
    /// epoch id and seq, letting the session layer NACK the chunk early
    /// instead of waiting out a full retransmit timer. Corruption in
    /// these very fields routes the NACK nowhere — which is exactly the
    /// timer fallback's job.
    pub fn salvage_header(buf: &[u8]) -> Option<(u64, u64, u32)> {
        let mut r = Reader::new(buf.get(..CHUNK_HEADER)?);
        r.magic_version(CHUNK_MAGIC, &[CHUNK_VERSION]).ok()?;
        Some((r.u64().ok()?, r.u64().ok()?, r.u32().ok()?))
    }
}

/// Splits an encoded bundle into chunk frames of at most `max_payload`
/// payload bytes each, ready to ship. An empty bundle still produces one
/// (empty) chunk so the receiver can distinguish "shipped nothing" from
/// "nothing arrived".
///
/// # Panics
/// Panics if `max_payload` is zero or exceeds [`MAX_CHUNK_PAYLOAD`], or
/// if the bundle needs more than [`MAX_CHUNKS`] chunks.
pub fn chunk_bundle(
    router_id: u64,
    epoch_id: u64,
    bundle: &[u8],
    max_payload: usize,
) -> Vec<Vec<u8>> {
    assert!(
        (1..=MAX_CHUNK_PAYLOAD).contains(&max_payload),
        "chunk payload size out of range"
    );
    let total = bundle.len().div_ceil(max_payload).max(1);
    assert!(total <= MAX_CHUNKS as usize, "bundle needs too many chunks");
    (0..total as u32)
        .map(|seq| cut_chunk(router_id, epoch_id, bundle, max_payload, seq))
        .collect()
}

/// Frame `seq` of [`chunk_bundle`]`(router_id, epoch_id, bundle,
/// max_payload)`, cut on its own: how a monitoring point re-encodes a
/// resent chunk from the bundle it keeps.
///
/// # Panics
/// Panics where [`chunk_bundle`] does, and if `seq` is not one of its
/// frames.
pub(crate) fn cut_chunk(
    router_id: u64,
    epoch_id: u64,
    bundle: &[u8],
    max_payload: usize,
    seq: u32,
) -> Vec<u8> {
    let total = bundle.len().div_ceil(max_payload).max(1);
    let start = seq as usize * max_payload;
    ChunkFrame {
        router_id,
        epoch_id,
        seq,
        total: total as u32,
        payload: &bundle[start..(start + max_payload).min(bundle.len())],
    }
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_chunk() {
        let payload = b"digest bundle bytes";
        let frames = chunk_bundle(7, 3, payload, 1024);
        assert_eq!(frames.len(), 1);
        let (f, used) = ChunkFrame::decode(&frames[0]).unwrap();
        assert_eq!(used, frames[0].len());
        assert_eq!(f.router_id, 7);
        assert_eq!(f.epoch_id, 3);
        assert_eq!(f.seq, 0);
        assert_eq!(f.total, 1);
        assert_eq!(f.payload, payload);
    }

    #[test]
    fn chunking_covers_the_bundle_exactly() {
        let bundle: Vec<u8> = (0..2_500u32).map(|i| i as u8).collect();
        let frames = chunk_bundle(1, 9, &bundle, 512);
        assert_eq!(frames.len(), 5);
        let mut reassembled = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            let (f, _) = ChunkFrame::decode(frame).unwrap();
            assert_eq!(f.seq as usize, i);
            assert_eq!(f.total, 5);
            reassembled.extend_from_slice(f.payload);
        }
        assert_eq!(reassembled, bundle);
    }

    #[test]
    fn empty_bundle_still_ships_one_chunk() {
        let frames = chunk_bundle(0, 0, &[], 512);
        assert_eq!(frames.len(), 1);
        let (f, _) = ChunkFrame::decode(&frames[0]).unwrap();
        assert_eq!(f.total, 1);
        assert!(f.payload.is_empty());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frames = chunk_bundle(3, 1, b"sensitive digest data", 64);
        let wire = &frames[0];
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut mangled = wire.clone();
                mangled[byte] ^= 1 << bit;
                // A flip anywhere (header, payload, trailer) must be a
                // typed error; a flip in the trailer itself mismatches
                // against the recomputed CRC.
                assert!(
                    ChunkFrame::decode(&mangled).is_err(),
                    "flip {byte}:{bit} decoded"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let frames = chunk_bundle(3, 1, &[0xAA; 300], 128);
        for frame in &frames {
            for cut in 0..frame.len() {
                assert!(
                    ChunkFrame::decode(&frame[..cut]).is_err(),
                    "cut {cut} decoded"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut stream = Vec::new();
        for frame in chunk_bundle(2, 4, &[7u8; 700], 256) {
            stream.extend_from_slice(&frame);
        }
        let mut off = 0;
        let mut seqs = Vec::new();
        while off < stream.len() {
            let (f, used) = ChunkFrame::decode(&stream[off..]).unwrap();
            seqs.push(f.seq);
            off += used;
        }
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn hostile_lengths_rejected_before_allocation() {
        let mut frame = chunk_bundle(1, 1, &[1u8; 100], 64)[0].clone();
        // Declare a payload far beyond the cap.
        frame[29..33].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            ChunkFrame::decode(&frame),
            Err(FrameError::Malformed("payload length over cap"))
        );
        // Declare a payload inside the cap but beyond the buffer.
        let mut frame = chunk_bundle(1, 1, &[1u8; 100], 64)[0].clone();
        frame[29..33].copy_from_slice(&(MAX_CHUNK_PAYLOAD as u32).to_le_bytes());
        assert_eq!(ChunkFrame::decode(&frame), Err(FrameError::Truncated));
    }

    #[test]
    fn hostile_total_rejected() {
        // Build a frame with total over the cap by hand (encode asserts).
        let mut frame = chunk_bundle(1, 1, b"x", 64)[0].clone();
        frame[25..29].copy_from_slice(&(MAX_CHUNKS + 1).to_le_bytes());
        // Fix the CRC so the structural check is what fires.
        let body_len = frame.len() - CHUNK_TRAILER;
        let crc = dcs_hash::crc32::crc32(&frame[..body_len]);
        frame[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ChunkFrame::decode(&frame),
            Err(FrameError::Malformed("total over cap"))
        );
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let frame = chunk_bundle(1, 1, b"x", 64)[0].clone();
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(
            ChunkFrame::decode(&bad),
            Err(FrameError::BadMagic(_))
        ));
        let mut bad = frame;
        bad[4] = 9;
        assert!(matches!(
            ChunkFrame::decode(&bad),
            Err(FrameError::BadVersion(9))
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Chunking round-trips bundles at both regimes: the in-memory
        /// default (≤64 KiB payloads) and the datagram-safe socket
        /// default. On the socket path every encoded frame must also fit
        /// a 1400-byte datagram budget.
        #[test]
        fn chunking_roundtrips_at_both_payload_sizes(
            router_id in proptest::prelude::any::<u64>(),
            epoch_id in proptest::prelude::any::<u64>(),
            len in 0usize..200_000,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let bundle: Vec<u8> = (0..len)
                .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 32) as u8)
                .collect();
            for max_payload in [MAX_CHUNK_PAYLOAD, DATAGRAM_SAFE_PAYLOAD] {
                let frames = chunk_bundle(router_id, epoch_id, &bundle, max_payload);
                proptest::prop_assert_eq!(
                    frames.len(),
                    bundle.len().div_ceil(max_payload).max(1)
                );
                let mut reassembled = Vec::new();
                for (i, frame) in frames.iter().enumerate() {
                    if max_payload == DATAGRAM_SAFE_PAYLOAD {
                        proptest::prop_assert!(
                            frame.len() <= 1400,
                            "frame {} is {} bytes — over the datagram budget",
                            i, frame.len()
                        );
                    }
                    let (f, used) = ChunkFrame::decode(frame).unwrap();
                    proptest::prop_assert_eq!(used, frame.len());
                    proptest::prop_assert_eq!(f.router_id, router_id);
                    proptest::prop_assert_eq!(f.epoch_id, epoch_id);
                    proptest::prop_assert_eq!(f.seq as usize, i);
                    proptest::prop_assert_eq!(f.total as usize, frames.len());
                    reassembled.extend_from_slice(f.payload);
                }
                proptest::prop_assert_eq!(&reassembled, &bundle);
            }
        }
    }

    #[test]
    fn datagram_safe_frames_fit_the_mtu_budget() {
        const { assert!(DATAGRAM_SAFE_PAYLOAD + CHUNK_HEADER + CHUNK_TRAILER <= 1400) };
        const {
            assert!(
                DATAGRAM_SAFE_PAYLOAD >= 1300,
                "payload should stay efficient"
            )
        };
    }

    #[test]
    fn salvage_recovers_routing_fields_from_payload_corruption() {
        let frames = chunk_bundle(42, 7, &[0u8; 200], 64);
        let mut mangled = frames[1].clone();
        let p = CHUNK_HEADER + 3;
        mangled[p] ^= 0x40; // corrupt payload only
        assert!(matches!(
            ChunkFrame::decode(&mangled),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        assert_eq!(ChunkFrame::salvage_header(&mangled), Some((42, 7, 1)));
        // Corrupted magic is unsalvageable.
        let mut dead = frames[1].clone();
        dead[0] ^= 0xFF;
        assert_eq!(ChunkFrame::salvage_header(&dead), None);
    }
}
