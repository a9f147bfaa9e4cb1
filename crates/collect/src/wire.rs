//! Binary wire framing for digests: the `DCSB` bitmap, `DCSA` aligned
//! and `DCSU` unaligned frames.
//!
//! A deployment ships digests on the measurement plane, where every
//! byte counts — the whole point of DCS is the digest-size budget. This
//! module frames [`AlignedDigest`] and [`UnalignedDigest`] in the same
//! dense little-endian style as [`dcs_bitmap`]'s bitmap frames, with magic
//! and version bytes so streams are self-describing, and holds the bitmap
//! frame's parser ([`parse_bitmap`]) beside the digest parsers of
//! [`crate::view`]. Every parser reads through [`Reader`] and fails with a
//! [`FrameError`].

use crate::frame::{FrameError, Reader};
use crate::{AlignedDigest, UnalignedDigest};
use bytes::{BufMut, Bytes, BytesMut};
use dcs_bitmap::words::words_for;
use dcs_bitmap::{BitmapView, DIGEST_MAGIC, DIGEST_VERSION};

/// Magic for aligned digest frames (`b"DCSA"`).
pub const ALIGNED_MAGIC: [u8; 4] = *b"DCSA";
/// Magic for unaligned digest frames (`b"DCSU"`).
pub const UNALIGNED_MAGIC: [u8; 4] = *b"DCSU";

pub(crate) const VERSION: u8 = 1;

/// Widest unaligned array the wire carries. The centre λ-tests array
/// pairs against a table of 16-bit cells whose largest value marks
/// "unset", so an array is 1 to `u16::MAX − 1` bits wide; the encoder
/// refuses and the parser rejects any other width.
pub const MAX_ARRAY_BITS: usize = u16::MAX as usize - 1;

/// [`FrameError::Malformed`] unless `bits` is a width an unaligned array
/// may have on the wire (see [`MAX_ARRAY_BITS`]).
pub(crate) fn check_array_width(bits: usize) -> Result<(), FrameError> {
    match bits {
        1..=MAX_ARRAY_BITS => Ok(()),
        _ => Err(FrameError::Malformed(
            "array width outside 1..=MAX_ARRAY_BITS",
        )),
    }
}

/// Reads one `DCSB` bitmap frame (magic, version, `u64` bit length,
/// words) at the reader's position and views its words in place.
pub(crate) fn read_bitmap<'a>(r: &mut Reader<'a>) -> Result<BitmapView<'a>, FrameError> {
    r.magic_version(DIGEST_MAGIC, &[DIGEST_VERSION])?;
    let len = usize::try_from(r.u64()?)
        .map_err(|_| FrameError::Malformed("bitmap length exceeds usize"))?;
    let body = r.bytes(words_for(len) * 8)?;
    BitmapView::new(len, body).map_err(FrameError::Malformed)
}

/// Validates the `DCSB` frame [`dcs_bitmap::Bitmap::encode`] writes at
/// the front of `buf`, returning a view of its words and the bytes the
/// frame covers. Trailing bytes are ignored.
pub fn parse_bitmap(buf: &[u8]) -> Result<(BitmapView<'_>, usize), FrameError> {
    let mut r = Reader::new(buf);
    let view = read_bitmap(&mut r)?;
    Ok((view, r.used()))
}

/// Bytes an aligned digest frame holds before its bitmap: magic, version
/// and three `u64` counters.
pub const ALIGNED_HEADER: usize = 4 + 1 + 3 * 8;

/// Bytes an unaligned digest frame holds before its arrays: magic,
/// version, three `u64` counters, arrays per group and array count.
pub const UNALIGNED_HEADER: usize = 4 + 1 + 3 * 8 + 2 * 4;

impl AlignedDigest {
    /// Encodes the digest into a binary frame.
    pub fn encode_wire(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(ALIGNED_HEADER + self.bitmap.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the frame [`AlignedDigest::encode_wire`] returns to `buf`:
    /// [`ALIGNED_HEADER`] bytes, then the bitmap frame.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_slice(&ALIGNED_MAGIC);
        buf.put_u8(VERSION);
        buf.put_u64_le(self.packets_seen);
        buf.put_u64_le(self.packets_hashed);
        buf.put_u64_le(self.raw_bytes);
        self.bitmap.encode_into(buf);
    }
}

impl UnalignedDigest {
    /// Encodes the digest into a binary frame.
    ///
    /// Fails with [`FrameError::TooLarge`] when `arrays_per_group` or the
    /// array count exceeds the format's `u32` fields — emitting a frame
    /// with truncated counts would decode to the wrong group layout — and
    /// with [`FrameError::Malformed`] on an array width the parser rejects
    /// ([`MAX_ARRAY_BITS`]).
    pub fn encode_wire(&self) -> Result<Bytes, FrameError> {
        let mut buf = BytesMut::with_capacity(UNALIGNED_HEADER + self.encoded_len());
        self.encode_into(&mut buf)?;
        Ok(buf.freeze())
    }

    /// Appends the frame [`UnalignedDigest::encode_wire`] returns to
    /// `buf`: [`UNALIGNED_HEADER`] bytes, then each array's bitmap frame.
    /// Every check runs before the first byte is written, so on an error
    /// `buf` is left as it was.
    pub fn encode_into(&self, buf: &mut impl BufMut) -> Result<(), FrameError> {
        let arrays_per_group = u32::try_from(self.arrays_per_group)
            .map_err(|_| FrameError::TooLarge("arrays_per_group exceeds u32"))?;
        let count = u32::try_from(self.arrays.len())
            .map_err(|_| FrameError::TooLarge("array count exceeds u32"))?;
        for a in &self.arrays {
            check_array_width(a.len())?;
        }
        buf.put_slice(&UNALIGNED_MAGIC);
        buf.put_u8(VERSION);
        buf.put_u64_le(self.packets_seen);
        buf.put_u64_le(self.packets_sampled);
        buf.put_u64_le(self.raw_bytes);
        buf.put_u32_le(arrays_per_group);
        buf.put_u32_le(count);
        for a in &self.arrays {
            a.encode_into(buf);
        }
        Ok(())
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

/// Whether `view` holds exactly the bits of `bm`.
#[cfg(test)]
pub(crate) fn same_bits(view: BitmapView<'_>, bm: &dcs_bitmap::Bitmap) -> bool {
    use dcs_bitmap::WordSource as _;
    view.len() == bm.len() && (0..view.word_len()).all(|i| view.word(i) == bm.words()[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlignedDigestView, UnalignedDigestView};
    use dcs_bitmap::Bitmap;

    fn digests() -> (AlignedDigest, UnalignedDigest) {
        sample_digests(1, 1 << 12, 4, 2000)
    }

    /// Whether `view` carries exactly the fields and bits of `d`.
    fn aligned_is(view: &AlignedDigestView<'_>, d: &AlignedDigest) -> bool {
        same_bits(view.bitmap, &d.bitmap)
            && (view.packets_seen, view.packets_hashed, view.raw_bytes)
                == (d.packets_seen, d.packets_hashed, d.raw_bytes)
    }

    /// Whether `view` carries exactly the fields and arrays of `d`.
    fn unaligned_is(view: &UnalignedDigestView<'_>, d: &UnalignedDigest) -> bool {
        view.array_count() == d.arrays.len()
            && view.arrays().zip(&d.arrays).all(|(v, a)| same_bits(v, a))
            && (
                view.arrays_per_group,
                view.packets_seen,
                view.packets_sampled,
                view.raw_bytes,
            ) == (
                d.arrays_per_group,
                d.packets_seen,
                d.packets_sampled,
                d.raw_bytes,
            )
    }

    #[test]
    fn bitmap_roundtrip() {
        for bm in [Bitmap::from_indices(1000, [0, 512, 999]), Bitmap::new(0)] {
            let bytes = bm.encode();
            let (view, used) = parse_bitmap(&bytes).unwrap();
            assert_eq!((used, view.encoded_len()), (bytes.len(), bm.encoded_len()));
            assert!(same_bits(view, &bm));
        }
    }

    #[test]
    fn bitmap_frames_ignore_trailing_bytes() {
        let bm = Bitmap::from_indices(128, [7]);
        let mut bytes = bm.encode().to_vec();
        bytes.extend_from_slice(&[0xAB; 9]);
        let (view, used) = parse_bitmap(&bytes).unwrap();
        assert_eq!(used, bm.encoded_len());
        assert!(same_bits(view, &bm));
    }

    #[test]
    fn bad_bitmap_frames_are_typed_errors() {
        let bytes = Bitmap::from_indices(128, [5]).encode();
        for cut in [0, 4, 12, bytes.len() - 1] {
            assert_eq!(
                parse_bitmap(&bytes[..cut]).unwrap_err(),
                FrameError::Truncated
            );
        }
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(matches!(parse_bitmap(&bad), Err(FrameError::BadMagic(_))));
        let mut bad = bytes.to_vec();
        bad[4] = 9;
        assert_eq!(parse_bitmap(&bad).unwrap_err(), FrameError::BadVersion(9));
        // Dirty tail: declare 4 bits but set bit 10.
        let mut dirty = DIGEST_MAGIC.to_vec();
        dirty.push(DIGEST_VERSION);
        dirty.extend_from_slice(&4u64.to_le_bytes());
        dirty.extend_from_slice(&(1u64 << 10).to_le_bytes());
        assert_eq!(
            parse_bitmap(&dirty).unwrap_err(),
            FrameError::Malformed("bits set past logical length")
        );
    }

    #[test]
    fn aligned_roundtrip() {
        let (a, _) = digests();
        let wire = a.encode_wire();
        let (view, used) = AlignedDigestView::parse(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert!(aligned_is(&view, &a));
    }

    #[test]
    fn unaligned_roundtrip() {
        let (_, u) = digests();
        let wire = u.encode_wire().unwrap();
        let (view, used) = UnalignedDigestView::parse(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert!(unaligned_is(&view, &u));
    }

    /// Each `encode_into` appends its header and its bitmap frames,
    /// nothing else, after what the buffer already holds.
    #[test]
    fn encode_into_appends_header_and_bitmaps_exactly() {
        let (a, u) = digests();
        assert_eq!((ALIGNED_HEADER, UNALIGNED_HEADER), (29, 37));
        let mut buf = b"prefix".to_vec();
        a.encode_into(&mut buf);
        assert_eq!(buf.len(), 6 + 29 + a.bitmap.encoded_len());
        let mid = buf.len();
        u.encode_into(&mut buf).unwrap();
        assert_eq!(buf.len() - mid, 37 + u.encoded_len());
        assert_eq!(&buf[..6], b"prefix");
        assert!(aligned_is(
            &AlignedDigestView::parse(&buf[6..]).unwrap().0,
            &a
        ));
        assert!(unaligned_is(
            &UnalignedDigestView::parse(&buf[mid..]).unwrap().0,
            &u
        ));
    }

    /// A digest the encoder refuses, for its width or for either count,
    /// writes nothing.
    #[test]
    fn refused_unaligned_digest_leaves_the_buffer_untouched() {
        let (_, u) = digests();
        let mut wide = u.clone();
        wide.arrays.push(Bitmap::new(MAX_ARRAY_BITS + 1));
        let bad_group = UnalignedDigest {
            arrays_per_group: (u32::MAX as usize) + 1,
            ..u.clone()
        };
        let zero_width = UnalignedDigest {
            arrays: vec![Bitmap::new(0)],
            arrays_per_group: 1,
            ..u
        };
        for bad in [wide, bad_group, zero_width] {
            let mut buf = b"prefix".to_vec();
            assert!(bad.encode_into(&mut buf).is_err());
            assert_eq!(buf, b"prefix");
        }
    }

    #[test]
    fn concatenated_frames_decode_in_sequence() {
        let (a, u) = digests();
        let mut stream = Vec::new();
        stream.extend_from_slice(&a.encode_wire());
        stream.extend_from_slice(&u.encode_wire().unwrap());
        let (a2, used) = AlignedDigestView::parse(&stream).unwrap();
        let (u2, used2) = UnalignedDigestView::parse(&stream[used..]).unwrap();
        assert_eq!(used + used2, stream.len());
        assert!(aligned_is(&a2, &a));
        assert!(unaligned_is(&u2, &u));
    }

    #[test]
    fn wrong_magic_rejected() {
        let (a, u) = digests();
        assert!(matches!(
            UnalignedDigestView::parse(&a.encode_wire()),
            Err(FrameError::BadMagic(_))
        ));
        assert!(matches!(
            AlignedDigestView::parse(&u.encode_wire().unwrap()),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn truncations_rejected_everywhere() {
        let (a, u) = digests();
        for wire in [a.encode_wire(), u.encode_wire().unwrap()] {
            for cut in [0usize, 3, 5, 12, 29, wire.len() - 1] {
                let a_res = AlignedDigestView::parse(&wire[..cut]);
                let u_res = UnalignedDigestView::parse(&wire[..cut]);
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
            UnalignedDigestView::parse(&wire),
            Err(FrameError::Malformed(_))
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
        assert!(matches!(bad.encode_wire(), Err(FrameError::TooLarge(_))));
        assert!(u.encode_wire().is_ok(), "well-formed digest still encodes");
    }

    /// Arrays 0 bits wide or wider than [`MAX_ARRAY_BITS`] are refused
    /// by the encoder and rejected by the parser; the widest allowed
    /// round-trips.
    #[test]
    fn array_widths_outside_the_bound_are_refused_both_ways() {
        let digest = |bits: usize| UnalignedDigest {
            arrays: vec![Bitmap::new(bits); 2],
            arrays_per_group: 1,
            packets_seen: 0,
            packets_sampled: 0,
            raw_bytes: 0,
        };
        let widest = digest(MAX_ARRAY_BITS);
        let wire = widest.encode_wire().unwrap();
        assert!(unaligned_is(
            &UnalignedDigestView::parse(&wire).unwrap().0,
            &widest
        ));
        let bad = FrameError::Malformed("array width outside 1..=MAX_ARRAY_BITS");
        for bits in [0, MAX_ARRAY_BITS + 1, 1 << 20] {
            assert_eq!(digest(bits).encode_wire().unwrap_err(), bad, "{bits}");
            // The 37-byte header of a two-array frame, then the arrays.
            let mut hand = wire[..37].to_vec();
            for _ in 0..2 {
                hand.extend_from_slice(&Bitmap::new(bits).encode());
            }
            assert_eq!(
                UnalignedDigestView::parse(&hand).unwrap_err(),
                bad,
                "{bits}"
            );
        }
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
            UnalignedDigestView::parse(&wire).unwrap_err(),
            FrameError::Truncated,
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
            UnalignedDigestView::parse(&wire).unwrap_err(),
            FrameError::Malformed("mixed array widths")
        );
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use crate::{AlignedDigestView, UnalignedDigestView};
    use dcs_bitmap::Bitmap;
    use proptest::prelude::*;

    /// One valid frame of each kind, built from real collectors.
    fn valid_frames() -> (Vec<u8>, Vec<u8>) {
        let (a, u) = sample_digests(11, 1 << 10, 2, 80);
        (a.encode_wire().to_vec(), u.encode_wire().unwrap().to_vec())
    }

    /// A parsed unaligned view, however the bytes were mangled, must be
    /// structurally sound: consistent group layout, uniform widths, and a
    /// consumed length inside the buffer (no wrap-around).
    fn assert_sound_unaligned(
        res: Result<(UnalignedDigestView<'_>, usize), FrameError>,
        len: usize,
    ) {
        if let Ok((v, used)) = res {
            assert!(used <= len, "consumed {used} of a {len}-byte buffer");
            assert!(v.arrays_per_group > 0);
            assert!(v.array_count().is_multiple_of(v.arrays_per_group));
            assert_eq!(v.arrays().count(), v.array_count());
            assert!(v.arrays().all(|a| a.len() == v.array_bits()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every mutation of a valid frame — truncation, multi-bit flips,
        /// spliced header bytes (magic, version, counts) — parses to a
        /// `FrameError` or to a view whose structure is consistent; never
        /// a panic or wrap-around.
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
                prop_assert!(AlignedDigestView::parse(&wire[..cut]).is_err());
                prop_assert!(UnalignedDigestView::parse(&wire[..cut]).is_err());

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
                let _ = AlignedDigestView::parse(&mangled);
                assert_sound_unaligned(
                    UnalignedDigestView::parse(&mangled),
                    mangled.len(),
                );
            }
        }

        #[test]
        fn decoders_never_panic_on_bitflips(pos in 0usize..200, val in any::<u8>()) {
            let (_, u) = sample_digests(1, 1 << 10, 2, 50);
            let mut wire = u.encode_wire().unwrap().to_vec();
            if pos < wire.len() {
                wire[pos] ^= val;
            }
            let _ = UnalignedDigestView::parse(&wire);
        }

        /// The bitmap parser faces the network too: a mutated or
        /// truncated frame is a view of a clean bitmap inside the buffer
        /// or a typed error.
        #[test]
        fn bitmap_frames_error_or_stay_clean(
            idxs in proptest::collection::vec(0usize..512, 0..16),
            pos in 0usize..64,
            val in any::<u8>(),
            cut_ppm in 0u32..=1_000_000,
        ) {
            let bm = Bitmap::from_indices(512, idxs);
            let mut bytes = bm.encode().to_vec();
            if pos < bytes.len() {
                bytes[pos] ^= val;
            }
            let cut = (bytes.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
            if let Ok((view, used)) = parse_bitmap(&bytes[..cut]) {
                prop_assert!(used <= cut);
                prop_assert_eq!(used, view.encoded_len());
            }
        }
    }
}
