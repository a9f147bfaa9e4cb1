//! Borrowed, validated views over digest wire frames.
//!
//! [`AlignedDigestView::parse`] and [`UnalignedDigestView::parse`] are
//! the parsers of the `DCSA` and `DCSU` frames — magic, version,
//! truncation, group-layout and width checks — and keep the bitmap word
//! bytes borrowed in place instead of copying them into owned
//! `Vec<u64>`s. The analysis centre fuses digests straight out of the
//! received frame bytes through these views (validate-then-view), so the
//! steady-state ingest path allocates nothing per digest.

use crate::frame::{FrameError, Reader};
use crate::wire::{check_array_width, read_bitmap, ALIGNED_MAGIC, UNALIGNED_MAGIC, VERSION};
use dcs_bitmap::words::words_for;
use dcs_bitmap::{BitmapView, DIGEST_HEADER};

/// Borrowed view of one aligned-digest frame (`b"DCSA"`).
///
/// Field-for-field mirror of [`AlignedDigest`](crate::AlignedDigest),
/// with the bitmap left on the wire as a [`BitmapView`].
#[derive(Clone, Copy, Debug)]
pub struct AlignedDigestView<'a> {
    /// The epoch's n-bit bitmap, borrowed from the frame.
    pub bitmap: BitmapView<'a>,
    /// Packets observed.
    pub packets_seen: u64,
    /// Packets hashed into the bitmap.
    pub packets_hashed: u64,
    /// Raw traffic volume summarised, in wire bytes.
    pub raw_bytes: u64,
}

impl<'a> AlignedDigestView<'a> {
    /// Validates the frame at the front of `buf`, returning the view and
    /// the bytes it covers.
    pub fn parse(buf: &'a [u8]) -> Result<(AlignedDigestView<'a>, usize), FrameError> {
        let mut r = Reader::new(buf);
        r.magic_version(ALIGNED_MAGIC, &[VERSION])?;
        let packets_seen = r.u64()?;
        let packets_hashed = r.u64()?;
        let raw_bytes = r.u64()?;
        let bitmap = read_bitmap(&mut r)?;
        Ok((
            AlignedDigestView {
                bitmap,
                packets_seen,
                packets_hashed,
                raw_bytes,
            },
            r.used(),
        ))
    }
}

/// Borrowed view of one unaligned-digest frame (`b"DCSU"`).
///
/// Because `parse` enforces uniform array widths, every embedded bitmap
/// frame has the same encoded length; arrays are cut from the borrowed
/// body at that stride, with no per-array bookkeeping.
#[derive(Clone, Copy, Debug)]
pub struct UnalignedDigestView<'a> {
    /// Arrays per group (rows per group when fused into a matrix).
    pub arrays_per_group: usize,
    /// Packets observed.
    pub packets_seen: u64,
    /// Packets sampled (payload ≥ [`MIN_PAYLOAD`](crate::unaligned::MIN_PAYLOAD)).
    pub packets_sampled: u64,
    /// Raw traffic volume summarised, in wire bytes.
    pub raw_bytes: u64,
    /// Total number of arrays.
    count: usize,
    /// Width in bits of every array (0 when the digest ships none).
    array_bits: usize,
    /// `count` concatenated bitmap frames of `array_bits` bits each.
    body: &'a [u8],
}

impl<'a> UnalignedDigestView<'a> {
    /// Validates the frame at the front of `buf`, returning the view and
    /// the bytes it covers. Width agreement is checked as arrays are
    /// parsed, so a frame mixing widths is rejected without parsing the
    /// rest; so is a first array outside `1..=`[`MAX_ARRAY_BITS`].
    ///
    /// [`MAX_ARRAY_BITS`]: crate::MAX_ARRAY_BITS
    pub fn parse(buf: &'a [u8]) -> Result<(UnalignedDigestView<'a>, usize), FrameError> {
        let mut r = Reader::new(buf);
        r.magic_version(UNALIGNED_MAGIC, &[VERSION])?;
        let packets_seen = r.u64()?;
        let packets_sampled = r.u64()?;
        let raw_bytes = r.u64()?;
        let arrays_per_group = r.u32()? as usize;
        let count = r.count(usize::MAX, DIGEST_HEADER, "array count")?;
        if arrays_per_group == 0 {
            return Err(FrameError::Malformed("arrays_per_group = 0"));
        }
        if !count.is_multiple_of(arrays_per_group) {
            return Err(FrameError::Malformed("array count not a group multiple"));
        }
        let (rest, start) = (r.rest(), r.used());
        let mut array_bits = 0;
        for i in 0..count {
            let bm = read_bitmap(&mut r)?;
            if i == 0 {
                check_array_width(bm.len())?;
                array_bits = bm.len();
            } else if bm.len() != array_bits {
                return Err(FrameError::Malformed("mixed array widths"));
            }
        }
        Ok((
            UnalignedDigestView {
                arrays_per_group,
                array_bits,
                packets_seen,
                packets_sampled,
                raw_bytes,
                count,
                body: &rest[..r.used() - start],
            },
            r.used(),
        ))
    }

    /// Total number of arrays.
    #[inline]
    pub fn array_count(&self) -> usize {
        self.count
    }

    /// Width in bits of every array (0 when the digest ships none).
    #[inline]
    pub fn array_bits(&self) -> usize {
        self.array_bits
    }

    /// Total encoded bytes of the array bitmaps, as counted by
    /// [`UnalignedDigest::encoded_len`](crate::UnalignedDigest::encoded_len).
    #[inline]
    pub fn encoded_len(&self) -> usize {
        self.body.len()
    }

    /// Number of groups.
    #[inline]
    pub fn groups(&self) -> usize {
        self.count / self.arrays_per_group
    }

    /// Views of the arrays in group-major order, as in
    /// [`UnalignedDigest::arrays`](crate::UnalignedDigest::arrays): each
    /// one's words, cut from the body at the stride `parse` checked, each
    /// exactly the bytes `parse` accepted as that array.
    pub fn arrays(&self) -> impl Iterator<Item = BitmapView<'a>> + 'a {
        let bits = self.array_bits;
        self.body
            .chunks_exact(DIGEST_HEADER + words_for(bits) * 8)
            .map(move |frame| BitmapView::from_checked(bits, &frame[DIGEST_HEADER..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::same_bits;

    #[test]
    fn unaligned_view_round_trips_the_digest() {
        let (_, u) = crate::wire::sample_digests(5, 1 << 12, 4, 1500);
        let wire = u.encode_wire().unwrap();
        let (view, used) = UnalignedDigestView::parse(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(view.array_count(), u.arrays.len());
        assert_eq!(view.groups(), u.groups());
        assert_eq!(view.encoded_len(), u.encoded_len());
        assert_eq!(view.arrays().count(), u.arrays.len());
        for (i, (v, bm)) in view.arrays().zip(&u.arrays).enumerate() {
            assert!(same_bits(v, bm), "array {i}");
        }
    }
}
