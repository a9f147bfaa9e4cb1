//! Binary wire framing for whole digest bundles.
//!
//! JSON (via serde) is convenient for tooling, but a real deployment ships
//! digests on the measurement plane where every byte counts — the whole
//! point of DCS is the digest-size budget. This module frames
//! [`AlignedDigest`] and [`UnalignedDigest`] in the same dense
//! little-endian style as [`dcs_bitmap`]'s bitmap frames, with magic and
//! version bytes so streams are self-describing.

use crate::{AlignedDigest, AlignedDigestView, UnalignedDigest, UnalignedDigestView};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dcs_bitmap::{Bitmap, DecodeError as BitmapError};
use std::fmt;

/// Magic for aligned digest frames (`b"DCSA"`).
pub const ALIGNED_MAGIC: [u8; 4] = *b"DCSA";
/// Magic for unaligned digest frames (`b"DCSU"`).
pub const UNALIGNED_MAGIC: [u8; 4] = *b"DCSU";

const VERSION: u8 = 1;

/// Errors from decoding digest frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short for the fixed header or declared body.
    Truncated,
    /// Unexpected magic bytes.
    BadMagic([u8; 4]),
    /// Unsupported version.
    BadVersion(u8),
    /// A contained bitmap failed to decode.
    Bitmap(BitmapError),
    /// Structurally impossible field (e.g. zero arrays-per-group).
    Malformed(&'static str),
    /// Encode-side failure: a field exceeds what the frame format can
    /// carry (a frame must never be emitted with silently truncated
    /// counts — it would decode to the wrong group layout).
    TooLarge(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "digest frame truncated"),
            WireError::BadMagic(m) => write!(f, "bad digest magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported digest version {v}"),
            WireError::Bitmap(e) => write!(f, "embedded bitmap: {e}"),
            WireError::Malformed(what) => write!(f, "malformed digest frame: {what}"),
            WireError::TooLarge(what) => {
                write!(f, "digest does not fit the wire format: {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<BitmapError> for WireError {
    fn from(e: BitmapError) -> Self {
        WireError::Bitmap(e)
    }
}

pub(crate) fn check_header(buf: &mut &[u8], magic: [u8; 4]) -> Result<(), WireError> {
    if buf.len() < 5 {
        return Err(WireError::Truncated);
    }
    let mut m = [0u8; 4];
    buf.copy_to_slice(&mut m);
    if m != magic {
        return Err(WireError::BadMagic(m));
    }
    let v = buf.get_u8();
    if v != VERSION {
        return Err(WireError::BadVersion(v));
    }
    Ok(())
}

pub(crate) fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    if buf.len() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u64_le())
}

pub(crate) fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u32_le())
}

impl AlignedDigest {
    /// Encodes the digest into a binary frame.
    pub fn encode_wire(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(29 + self.bitmap.encoded_len());
        buf.put_slice(&ALIGNED_MAGIC);
        buf.put_u8(VERSION);
        buf.put_u64_le(self.packets_seen);
        buf.put_u64_le(self.packets_hashed);
        buf.put_u64_le(self.raw_bytes);
        buf.put_slice(&self.bitmap.encode());
        buf.freeze()
    }

    /// Decodes a frame produced by [`AlignedDigest::encode_wire`],
    /// returning the digest and the bytes consumed: an owned copy of what
    /// [`AlignedDigestView::parse`] validates.
    pub fn decode_wire(buf: &[u8]) -> Result<(AlignedDigest, usize), WireError> {
        AlignedDigestView::parse(buf).map(|(view, used)| (view.to_owned(), used))
    }
}

impl UnalignedDigest {
    /// Encodes the digest into a binary frame.
    ///
    /// Fails with [`WireError::TooLarge`] when `arrays_per_group` or the
    /// array count exceeds the format's `u32` fields — emitting a frame
    /// with truncated counts would decode to the wrong group layout.
    pub fn encode_wire(&self) -> Result<Bytes, WireError> {
        let arrays_per_group = u32::try_from(self.arrays_per_group)
            .map_err(|_| WireError::TooLarge("arrays_per_group exceeds u32"))?;
        let count = u32::try_from(self.arrays.len())
            .map_err(|_| WireError::TooLarge("array count exceeds u32"))?;
        let body: usize = self.arrays.iter().map(Bitmap::encoded_len).sum();
        let mut buf = BytesMut::with_capacity(37 + body);
        buf.put_slice(&UNALIGNED_MAGIC);
        buf.put_u8(VERSION);
        buf.put_u64_le(self.packets_seen);
        buf.put_u64_le(self.packets_sampled);
        buf.put_u64_le(self.raw_bytes);
        buf.put_u32_le(arrays_per_group);
        buf.put_u32_le(count);
        for a in &self.arrays {
            buf.put_slice(&a.encode());
        }
        Ok(buf.freeze())
    }

    /// Decodes a frame produced by [`UnalignedDigest::encode_wire`],
    /// returning the digest and the bytes consumed: an owned copy of what
    /// [`UnalignedDigestView::parse`] validates.
    pub fn decode_wire(buf: &[u8]) -> Result<(UnalignedDigest, usize), WireError> {
        UnalignedDigestView::parse(buf).map(|(view, used)| (view.to_owned(), used))
    }
}

/// One digest of each kind from real collectors fed `packets` random
/// 536-byte payloads.
#[cfg(test)]
pub(crate) fn sample_digests(
    seed: u64,
    aligned_bits: usize,
    groups: usize,
    packets: usize,
) -> (AlignedDigest, UnalignedDigest) {
    use rand::{Rng as _, SeedableRng as _};
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let mut a = crate::AlignedCollector::new(crate::AlignedConfig::small(aligned_bits, 3));
    let mut u = crate::UnalignedCollector::new(crate::UnalignedConfig::small(groups, 3, 5));
    for _ in 0..packets {
        let mut payload = vec![0u8; 536];
        r.fill(payload.as_mut_slice());
        let p = dcs_traffic::Packet::new(dcs_traffic::FlowLabel::random(&mut r), payload);
        a.observe(&p);
        u.observe(&p);
    }
    (a.finish_epoch(), u.finish_epoch())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests() -> (AlignedDigest, UnalignedDigest) {
        sample_digests(1, 1 << 12, 4, 2000)
    }

    #[test]
    fn aligned_roundtrip() {
        let (a, _) = digests();
        let wire = a.encode_wire();
        let (back, used) = AlignedDigest::decode_wire(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(back.bitmap, a.bitmap);
        assert_eq!(back.packets_seen, a.packets_seen);
        assert_eq!(back.packets_hashed, a.packets_hashed);
        assert_eq!(back.raw_bytes, a.raw_bytes);
    }

    #[test]
    fn unaligned_roundtrip() {
        let (_, u) = digests();
        let wire = u.encode_wire().unwrap();
        let (back, used) = UnalignedDigest::decode_wire(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(back.arrays, u.arrays);
        assert_eq!(back.arrays_per_group, u.arrays_per_group);
        assert_eq!(back.packets_sampled, u.packets_sampled);
    }

    #[test]
    fn concatenated_frames_decode_in_sequence() {
        let (a, u) = digests();
        let mut stream = Vec::new();
        stream.extend_from_slice(&a.encode_wire());
        stream.extend_from_slice(&u.encode_wire().unwrap());
        let (a2, used) = AlignedDigest::decode_wire(&stream).unwrap();
        let (u2, used2) = UnalignedDigest::decode_wire(&stream[used..]).unwrap();
        assert_eq!(used + used2, stream.len());
        assert_eq!(a2.bitmap, a.bitmap);
        assert_eq!(u2.arrays.len(), u.arrays.len());
    }

    #[test]
    fn wrong_magic_rejected() {
        let (a, u) = digests();
        assert!(matches!(
            UnalignedDigest::decode_wire(&a.encode_wire()),
            Err(WireError::BadMagic(_))
        ));
        assert!(matches!(
            AlignedDigest::decode_wire(&u.encode_wire().unwrap()),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn truncations_rejected_everywhere() {
        let (a, u) = digests();
        for wire in [a.encode_wire(), u.encode_wire().unwrap()] {
            for cut in [0usize, 3, 5, 12, 29, wire.len() - 1] {
                let a_res = AlignedDigest::decode_wire(&wire[..cut]);
                let u_res = UnalignedDigest::decode_wire(&wire[..cut]);
                assert!(
                    a_res.is_err() && u_res.is_err(),
                    "cut at {cut} of {} decoded",
                    wire.len()
                );
            }
        }
    }

    #[test]
    fn malformed_group_count_rejected() {
        let (_, u) = digests();
        let mut wire = u.encode_wire().unwrap().to_vec();
        // arrays_per_group lives at offset 29; set it to 3 (count is 40,
        // not a multiple of 3).
        wire[29] = 3;
        assert!(matches!(
            UnalignedDigest::decode_wire(&wire),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_counts_refused_at_encode() {
        let (_, u) = digests();
        // A structurally impossible arrays_per_group must not be silently
        // truncated into a frame that decodes to a different group layout.
        let bad = UnalignedDigest {
            arrays_per_group: (u32::MAX as usize) + 1,
            ..u.clone()
        };
        assert!(matches!(bad.encode_wire(), Err(WireError::TooLarge(_))));
        assert!(u.encode_wire().is_ok(), "well-formed digest still encodes");
    }

    #[test]
    fn inflated_array_count_rejected_before_allocation() {
        let (_, u) = digests();
        let mut wire = u.encode_wire().unwrap().to_vec();
        // The count field lives at offset 33; declare u32::MAX arrays
        // (a multiple of arrays_per_group is not even needed — make it
        // one so the count check itself is what fires).
        wire[29..33].copy_from_slice(&1u32.to_le_bytes());
        wire[33..37].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            UnalignedDigest::decode_wire(&wire),
            Err(WireError::Truncated),
            "declared count far beyond the buffer must be refused"
        );
    }

    #[test]
    fn mixed_widths_rejected_incrementally() {
        // Hand-build a frame whose two arrays disagree on width; the
        // decoder must reject at the second array, not after decoding all.
        let a = Bitmap::from_indices(64, [1]);
        let b = Bitmap::from_indices(128, [2]);
        let mut wire = Vec::new();
        wire.extend_from_slice(&UNALIGNED_MAGIC);
        wire.push(1); // version
        wire.extend_from_slice(&[0u8; 24]); // packets_seen/sampled, raw_bytes
        wire.extend_from_slice(&2u32.to_le_bytes()); // arrays_per_group
        wire.extend_from_slice(&2u32.to_le_bytes()); // count
        wire.extend_from_slice(&a.encode());
        wire.extend_from_slice(&b.encode());
        assert_eq!(
            UnalignedDigest::decode_wire(&wire),
            Err(WireError::Malformed("mixed array widths"))
        );
    }

    #[test]
    fn wire_is_compact() {
        // The binary frame must beat JSON by a wide margin (JSON encodes
        // words as decimal numbers in arrays).
        let (a, _) = digests();
        let wire_len = a.encode_wire().len();
        let json_len = serde_json::to_string(&a).unwrap().len();
        assert!(
            wire_len * 2 < json_len,
            "wire {wire_len} not much smaller than JSON {json_len}"
        );
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    /// One valid frame of each kind, built from real collectors.
    fn valid_frames() -> (Vec<u8>, Vec<u8>) {
        let (a, u) = sample_digests(11, 1 << 10, 2, 80);
        (a.encode_wire().to_vec(), u.encode_wire().unwrap().to_vec())
    }

    /// A decoded unaligned digest, however the bytes were mangled, must be
    /// structurally sound: consistent group layout, uniform widths, and a
    /// consumed length inside the buffer (no wrap-around).
    fn assert_sound_unaligned(res: Result<(UnalignedDigest, usize), WireError>, len: usize) {
        if let Ok((d, used)) = res {
            assert!(used <= len, "consumed {used} of a {len}-byte buffer");
            assert!(d.arrays_per_group > 0);
            assert!(d.arrays.len().is_multiple_of(d.arrays_per_group));
            if let Some(first) = d.arrays.first() {
                assert!(d.arrays.iter().all(|a| a.len() == first.len()));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite coverage: every mutation of a valid frame —
        /// truncation, multi-bit flips, spliced header bytes (magic,
        /// version, counts) — decodes to a `WireError` or to a digest
        /// whose structure is consistent; never a panic or wrap-around.
        #[test]
        fn mutated_frames_error_or_stay_sound(
            cut_ppm in 0u32..1_000_000,
            flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..6),
            splice_at in any::<usize>(),
            splice in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            let (aligned, unaligned) = valid_frames();
            for wire in [aligned, unaligned] {
                // Strict-prefix truncation must always be an error.
                let cut = (wire.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
                prop_assert!(AlignedDigest::decode_wire(&wire[..cut]).is_err());
                prop_assert!(UnalignedDigest::decode_wire(&wire[..cut]).is_err());

                // Bit flips + a spliced run anywhere (this covers bad
                // magic, bad version and inconsistent count fields).
                let mut mangled = wire.clone();
                for &(pos, mask) in &flips {
                    let p = pos % mangled.len();
                    mangled[p] ^= mask;
                }
                for (i, &b) in splice.iter().enumerate() {
                    let p = (splice_at.wrapping_add(i)) % mangled.len();
                    mangled[p] = b;
                }
                let _ = AlignedDigest::decode_wire(&mangled);
                assert_sound_unaligned(
                    UnalignedDigest::decode_wire(&mangled),
                    mangled.len(),
                );
            }
        }

        #[test]
        fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = AlignedDigest::decode_wire(&bytes);
            let _ = UnalignedDigest::decode_wire(&bytes);
        }

        /// Big-soup variant: up to 64 KiB of arbitrary bytes. Anything
        /// that is not a byte-exact valid frame must return `Err` without
        /// panicking, and a declared-but-absurd element count must never
        /// drive an allocation (the decoders cap counts against the
        /// remaining buffer before reserving).
        #[test]
        fn decoders_never_panic_on_64k_soup(
            bytes in proptest::collection::vec(any::<u8>(), 0..(64 * 1024)),
            stamp_magic in any::<bool>(),
        ) {
            let mut soup = bytes;
            if stamp_magic && soup.len() >= 4 {
                // Half the cases get a valid magic, forcing the decoders
                // past the first check into the length/count fields.
                let magic = if soup[0] & 1 == 0 { *b"DCSA" } else { *b"DCSU" };
                soup[..4].copy_from_slice(&magic);
            }
            let _ = AlignedDigest::decode_wire(&soup);
            let _ = UnalignedDigest::decode_wire(&soup);
        }

        /// DCSS arm of the byte-soup fuzz: the sidecar-artifact section
        /// decoder faces the same 64 KiB soup — never a panic, and a
        /// hostile count/length field dies on the pre-allocation length
        /// check.
        #[test]
        fn artifact_section_never_panics_on_64k_soup(
            bytes in proptest::collection::vec(any::<u8>(), 0..(64 * 1024)),
            stamp_sketch in any::<bool>(),
        ) {
            let mut soup = bytes;
            if stamp_sketch && soup.len() >= 10 {
                // Half the cases claim one DCSS-kind artifact, pushing
                // the decoder into the length/CRC fields.
                soup[..2].copy_from_slice(&1u16.to_le_bytes());
                soup[2..6].copy_from_slice(&crate::artifact::ARTIFACT_KIND_SKETCH.to_le_bytes());
            }
            let mut rest: &[u8] = &soup;
            if let Ok(artifacts) = crate::artifact::decode_section(&mut rest) {
                let used = crate::artifact::section_len(&artifacts);
                assert_eq!(soup.len() - rest.len(), used, "consumed length");
            }
        }

        #[test]
        fn decoders_never_panic_on_bitflips(pos in 0usize..200, val in any::<u8>()) {
            let (_, u) = sample_digests(1, 1 << 10, 2, 50);
            let mut wire = u.encode_wire().unwrap().to_vec();
            if pos < wire.len() {
                wire[pos] ^= val;
            }
            let _ = UnalignedDigest::decode_wire(&wire);
        }
    }
}
