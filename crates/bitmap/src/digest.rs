//! Compact wire encoding for shipped digests.
//!
//! The whole point of the DCS architecture is that only digests — not raw
//! traffic — cross the network to the analysis centre. This module gives
//! [`Bitmap`] a dense little-endian binary framing (magic, version, length,
//! words) so the compression ratio the paper advertises (three orders of
//! magnitude versus raw traffic) can be measured on actual bytes.

use crate::words::{tail_mask, words_for};
use crate::{Bitmap, WordSource};
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// Magic bytes prefixed to every encoded digest (`b"DCSB"`).
pub const DIGEST_MAGIC: [u8; 4] = *b"DCSB";

const VERSION: u8 = 1;

/// Errors produced when decoding a digest frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than the fixed header or declared body.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The frame does not start with [`DIGEST_MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown format version.
    BadVersion(u8),
    /// Bits were set past the declared bitmap length.
    DirtyTail,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, got } => {
                write!(f, "digest truncated: need {needed} bytes, got {got}")
            }
            DecodeError::BadMagic(m) => write!(f, "bad digest magic {m:02x?}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported digest version {v}"),
            DecodeError::DirtyTail => write!(f, "bits set past declared bitmap length"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Words converted to little-endian bytes per `put_slice` by
/// [`Bitmap::encode_into`].
const ENCODE_BLOCK_WORDS: usize = 64;

impl Bitmap {
    /// Encodes the bitmap into a self-describing binary frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the frame [`Bitmap::encode`] returns to `buf`: exactly
    /// [`encoded_len`](Self::encoded_len) bytes, the words written a
    /// block at a time.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_slice(&DIGEST_MAGIC);
        buf.put_u8(VERSION);
        buf.put_u64_le(self.len() as u64);
        let mut block = [[0u8; 8]; ENCODE_BLOCK_WORDS];
        for words in self.words().chunks(ENCODE_BLOCK_WORDS) {
            for (bytes, w) in block.iter_mut().zip(words) {
                *bytes = w.to_le_bytes();
            }
            buf.put_slice(block[..words.len()].as_flattened());
        }
    }

    /// Size in bytes of the encoded frame (header + body).
    pub fn encoded_len(&self) -> usize {
        13 + self.words().len() * 8
    }

    /// Decodes a frame produced by [`Bitmap::encode`]: an owned copy of
    /// what [`BitmapView::parse`] validates.
    pub fn decode(buf: &[u8]) -> Result<Bitmap, DecodeError> {
        BitmapView::parse(buf).map(|v| v.to_bitmap())
    }
}

/// A validated, borrowed view over one encoded bitmap frame.
///
/// [`BitmapView::parse`] is the one parser of the frame — magic, version,
/// truncation, tail hygiene — and borrows the word bytes in place;
/// [`Bitmap::decode`] copies them into an owned `Vec<u64>`. Words are
/// read with unaligned little-endian loads
/// ([`u64::from_le_bytes`]): wire frames carry variable-length headers,
/// so the word region has no alignment guarantee.
///
/// This is the zero-copy leaf of the streaming ingest path: the centre
/// counts and stacks router digests straight out of the received frame
/// bytes through the [`WordSource`] impl, with no intermediate digest
/// allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitmapView<'a> {
    len: usize,
    /// Exactly `words_for(len) * 8` bytes of little-endian words.
    body: &'a [u8],
}

impl<'a> BitmapView<'a> {
    /// Validates the frame at the front of `buf` and returns a view over
    /// it. Trailing bytes beyond the frame are ignored; use
    /// [`BitmapView::encoded_len`] to advance.
    pub fn parse(buf: &'a [u8]) -> Result<BitmapView<'a>, DecodeError> {
        if buf.len() < 13 {
            return Err(DecodeError::Truncated {
                needed: 13,
                got: buf.len(),
            });
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&buf[..4]);
        if magic != DIGEST_MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        let version = buf[4];
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let len = u64::from_le_bytes(buf[5..13].try_into().expect("8-byte slice")) as usize;
        let nwords = words_for(len);
        let Some(body) = buf[13..].get(..nwords * 8) else {
            return Err(DecodeError::Truncated {
                needed: 13 + nwords * 8,
                got: buf.len(),
            });
        };
        let view = BitmapView { len, body };
        if nwords > 0 && view.word(nwords - 1) & !tail_mask(len) != 0 {
            return Err(DecodeError::DirtyTail);
        }
        Ok(view)
    }

    /// Logical length in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes of the frame this view covers (header + body).
    #[inline]
    pub fn encoded_len(&self) -> usize {
        13 + self.body.len()
    }

    /// Copies the view into an owned [`Bitmap`].
    pub fn to_bitmap(&self) -> Bitmap {
        let words = (0..self.word_len()).map(|i| self.word(i)).collect();
        Bitmap::from_words(self.len, words)
    }
}

impl WordSource for BitmapView<'_> {
    #[inline]
    fn bit_len(&self) -> usize {
        self.len
    }

    #[inline]
    fn word(&self, i: usize) -> u64 {
        u64::from_le_bytes(
            self.body[i * 8..i * 8 + 8]
                .try_into()
                .expect("8-byte slice"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let bm = Bitmap::from_indices(1000, [0, 512, 999]);
        let bytes = bm.encode();
        assert_eq!(bytes.len(), bm.encoded_len());
        let back = Bitmap::decode(&bytes).unwrap();
        assert_eq!(bm, back);
    }

    /// `encode_into` appends exactly `encoded_len()` bytes after what the
    /// buffer already holds — the header, then each word little-endian —
    /// at word counts on and around the block size.
    #[test]
    fn encode_into_appends_exactly_the_frame() {
        for bits in [
            0,
            1,
            64,
            65,
            64 * ENCODE_BLOCK_WORDS,
            64 * ENCODE_BLOCK_WORDS + 1,
            10_000,
        ] {
            let bm = Bitmap::from_indices(bits, (0..bits).step_by(3));
            let mut want = b"prefix".to_vec();
            want.extend_from_slice(&DIGEST_MAGIC);
            want.push(VERSION);
            want.extend_from_slice(&(bits as u64).to_le_bytes());
            want.extend(bm.words().iter().flat_map(|w| w.to_le_bytes()));
            let mut buf = b"prefix".to_vec();
            bm.encode_into(&mut buf);
            assert_eq!(buf.len(), 6 + bm.encoded_len(), "{bits} bits");
            assert_eq!(buf, want, "{bits} bits");
        }
    }

    #[test]
    fn roundtrip_empty() {
        let bm = Bitmap::new(0);
        let back = Bitmap::decode(&bm.encode()).unwrap();
        assert_eq!(bm, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let bm = Bitmap::new(64);
        let mut bytes = bm.encode().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            Bitmap::decode(&bytes),
            Err(DecodeError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let bm = Bitmap::new(64);
        let mut bytes = bm.encode().to_vec();
        bytes[4] = 99;
        assert_eq!(Bitmap::decode(&bytes), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncation() {
        let bm = Bitmap::from_indices(128, [5]);
        let bytes = bm.encode();
        assert!(matches!(
            Bitmap::decode(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            Bitmap::decode(&bytes[..4]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_dirty_tail() {
        // len = 4 bits but a word with bit 10 set.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&DIGEST_MAGIC);
        bytes.push(1);
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 10).to_le_bytes());
        assert_eq!(Bitmap::decode(&bytes), Err(DecodeError::DirtyTail));
    }

    #[test]
    fn header_overhead_is_small() {
        // A 4-Mbit digest must stay ~1000x smaller than 1 second of OC-48
        // traffic (2.4 Gbit): 4 Mbit / 8 + 13 bytes is ~0.52 MB vs 300 MB.
        let bm = Bitmap::new(4 * 1024 * 1024);
        let raw_epoch_bytes = 2_400_000_000u64 / 8;
        let ratio = raw_epoch_bytes as f64 / bm.encoded_len() as f64;
        assert!(ratio > 500.0, "compression ratio {ratio} too small");
    }

    #[test]
    fn view_agrees_with_owned_decode() {
        let bm = Bitmap::from_indices(1000, [0, 63, 64, 512, 999]);
        let bytes = bm.encode();
        let view = BitmapView::parse(&bytes).unwrap();
        assert_eq!(view.len(), bm.len());
        assert_eq!(view.encoded_len(), bm.encoded_len());
        for (i, &w) in bm.words().iter().enumerate() {
            assert_eq!(view.word(i), w, "word {i}");
        }
        assert_eq!(view.to_bitmap(), bm);
    }

    #[test]
    fn view_ignores_trailing_bytes_like_decode() {
        let bm = Bitmap::from_indices(128, [7]);
        let mut bytes = bm.encode().to_vec();
        bytes.extend_from_slice(&[0xAB; 9]);
        let view = BitmapView::parse(&bytes).unwrap();
        assert_eq!(view.encoded_len(), bm.encoded_len());
        assert_eq!(view.to_bitmap(), bm);
    }

    #[test]
    fn view_rejects_what_decode_rejects() {
        let bm = Bitmap::from_indices(128, [5]);
        let bytes = bm.encode();
        for cut in [0, 4, 12, bytes.len() - 1] {
            assert!(matches!(
                BitmapView::parse(&bytes[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(matches!(
            BitmapView::parse(&bad),
            Err(DecodeError::BadMagic(_))
        ));
        let mut bad = bytes.to_vec();
        bad[4] = 9;
        assert_eq!(BitmapView::parse(&bad), Err(DecodeError::BadVersion(9)));
        // Dirty tail: declare 4 bits but set bit 10.
        let mut dirty = Vec::new();
        dirty.extend_from_slice(&DIGEST_MAGIC);
        dirty.push(1);
        dirty.extend_from_slice(&4u64.to_le_bytes());
        dirty.extend_from_slice(&(1u64 << 10).to_le_bytes());
        assert_eq!(BitmapView::parse(&dirty), Err(DecodeError::DirtyTail));
    }
}
