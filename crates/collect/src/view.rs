//! Borrowed, validated views over digest wire frames.
//!
//! [`AlignedDigestView::parse`] and [`UnalignedDigestView::parse`] are
//! the parsers of the `DCSA` and `DCSU` frames — magic, version,
//! truncation, group-layout and width checks — and keep the bitmap word
//! bytes borrowed in place instead of copying them into owned
//! `Vec<u64>`s. The analysis centre fuses digests straight out of the
//! received frame bytes through these views (validate-then-view), so the
//! steady-state ingest path allocates nothing per digest; the owned
//! `decode_wire`s are `parse` followed by `to_owned`.

use crate::frame::Reader;
use crate::wire::{check_array_width, ALIGNED_MAGIC, UNALIGNED_MAGIC, VERSION};
use crate::{AlignedDigest, UnalignedDigest, WireError};
use dcs_bitmap::{Bitmap, BitmapView};

/// Borrowed view of one aligned-digest frame (`b"DCSA"`).
///
/// Field-for-field mirror of [`AlignedDigest`], with the bitmap left on
/// the wire as a [`BitmapView`].
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
    pub fn parse(buf: &'a [u8]) -> Result<(AlignedDigestView<'a>, usize), WireError> {
        let mut r = Reader::new(buf);
        r.magic_version(ALIGNED_MAGIC, &[VERSION])?;
        let packets_seen = r.u64()?;
        let packets_hashed = r.u64()?;
        let raw_bytes = r.u64()?;
        let bitmap = BitmapView::parse(r.rest())?;
        r.bytes(bitmap.encoded_len())?;
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

    /// Copies the view into an owned [`AlignedDigest`].
    pub fn to_owned(&self) -> AlignedDigest {
        AlignedDigest {
            bitmap: self.bitmap.to_bitmap(),
            packets_seen: self.packets_seen,
            packets_hashed: self.packets_hashed,
            raw_bytes: self.raw_bytes,
        }
    }
}

/// Borrowed view of one unaligned-digest frame (`b"DCSU"`).
///
/// Because `parse` enforces uniform array widths, every embedded bitmap
/// frame has the same encoded length; arrays are
/// addressed by computed offset into the borrowed body, with no
/// per-array bookkeeping.
#[derive(Clone, Copy, Debug)]
pub struct UnalignedDigestView<'a> {
    /// Arrays per group (rows per group when fused into a matrix).
    pub arrays_per_group: usize,
    /// Packets observed.
    pub packets_seen: u64,
    /// Packets sampled (payload ≥ min_payload).
    pub packets_sampled: u64,
    /// Raw traffic volume summarised, in wire bytes.
    pub raw_bytes: u64,
    /// Total number of arrays.
    count: usize,
    /// Encoded bytes of each array frame (uniform — widths agree).
    frame_len: usize,
    /// `count * frame_len` bytes of concatenated array frames.
    body: &'a [u8],
}

impl<'a> UnalignedDigestView<'a> {
    /// Validates the frame at the front of `buf`, returning the view and
    /// the bytes it covers. Width agreement is checked as arrays are
    /// parsed, so a frame mixing widths is rejected without parsing the
    /// rest; so is a first array outside `1..=`[`MAX_ARRAY_BITS`].
    ///
    /// [`MAX_ARRAY_BITS`]: crate::MAX_ARRAY_BITS
    pub fn parse(buf: &'a [u8]) -> Result<(UnalignedDigestView<'a>, usize), WireError> {
        let mut r = Reader::new(buf);
        r.magic_version(UNALIGNED_MAGIC, &[VERSION])?;
        let packets_seen = r.u64()?;
        let packets_sampled = r.u64()?;
        let raw_bytes = r.u64()?;
        let arrays_per_group = r.u32()? as usize;
        // Every bitmap frame costs at least its 13-byte header.
        let count = r.count(usize::MAX, 13, "array count")?;
        if arrays_per_group == 0 {
            return Err(WireError::Malformed("arrays_per_group = 0"));
        }
        if !count.is_multiple_of(arrays_per_group) {
            return Err(WireError::Malformed("array count not a group multiple"));
        }
        let rest = r.rest();
        let mut frame_len = 0;
        let mut width = 0;
        let mut offset = 0;
        for i in 0..count {
            let bm = BitmapView::parse(&rest[offset..])?;
            if i == 0 {
                check_array_width(bm.len())?;
                frame_len = bm.encoded_len();
                width = bm.len();
            } else if bm.len() != width {
                return Err(WireError::Malformed("mixed array widths"));
            }
            offset += bm.encoded_len();
        }
        let body = r.bytes(offset)?;
        Ok((
            UnalignedDigestView {
                arrays_per_group,
                packets_seen,
                packets_sampled,
                raw_bytes,
                count,
                frame_len,
                body,
            },
            r.used(),
        ))
    }

    /// Total number of arrays.
    #[inline]
    pub fn array_count(&self) -> usize {
        self.count
    }

    /// Total encoded bytes of the array bitmaps, as counted by
    /// [`UnalignedDigest::encoded_len`].
    #[inline]
    pub fn encoded_len(&self) -> usize {
        self.count * self.frame_len
    }

    /// Number of groups.
    #[inline]
    pub fn groups(&self) -> usize {
        self.count / self.arrays_per_group
    }

    /// View of array `i` (group-major order, as in
    /// [`UnalignedDigest::arrays`]).
    ///
    /// # Panics
    /// Panics if `i >= array_count()`.
    #[inline]
    pub fn array(&self, i: usize) -> BitmapView<'a> {
        assert!(i < self.count, "array {i} out of range {}", self.count);
        let frame = &self.body[i * self.frame_len..(i + 1) * self.frame_len];
        BitmapView::parse(frame).expect("frames validated by UnalignedDigestView::parse")
    }

    /// Copies the view into an owned [`UnalignedDigest`].
    pub fn to_owned(&self) -> UnalignedDigest {
        let arrays: Vec<Bitmap> = (0..self.count).map(|i| self.array(i).to_bitmap()).collect();
        UnalignedDigest {
            arrays,
            arrays_per_group: self.arrays_per_group,
            packets_seen: self.packets_seen,
            packets_sampled: self.packets_sampled,
            raw_bytes: self.raw_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unaligned_view_round_trips_the_digest() {
        let (_, u) = crate::wire::sample_digests(5, 1 << 12, 4, 1500);
        let wire = u.encode_wire().unwrap();
        let (view, used) = UnalignedDigestView::parse(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(view.array_count(), u.arrays.len());
        assert_eq!(view.groups(), u.groups());
        assert_eq!(view.encoded_len(), u.encoded_len());
        for (i, bm) in u.arrays.iter().enumerate() {
            assert_eq!(&view.array(i).to_bitmap(), bm, "array {i}");
        }
        assert_eq!(view.to_owned(), u);
    }
}
