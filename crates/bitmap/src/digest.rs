//! Compact wire encoding for shipped digests.
//!
//! The whole point of the DCS architecture is that only digests — not raw
//! traffic — cross the network to the analysis centre. This module gives
//! [`Bitmap`] a dense little-endian binary framing (magic, version, length,
//! words) so the compression ratio the paper advertises (three orders of
//! magnitude versus raw traffic) can be measured on actual bytes. The
//! frame's parser lives with the other wire decoders in `dcs-collect`;
//! what it hands on is a [`BitmapView`] over the word bytes.

use crate::words::{tail_mask, words_for};
use crate::{Bitmap, WordSource};
use bytes::{BufMut, Bytes, BytesMut};

/// Magic bytes prefixed to every encoded digest (`b"DCSB"`).
pub const DIGEST_MAGIC: [u8; 4] = *b"DCSB";

/// Version byte of the frame [`Bitmap::encode`] writes.
pub const DIGEST_VERSION: u8 = 1;

/// Bytes of the frame before the words: magic, version and the `u64`
/// bit length.
pub const DIGEST_HEADER: usize = 4 + 1 + 8;

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
        buf.put_u8(DIGEST_VERSION);
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
        DIGEST_HEADER + self.words().len() * 8
    }
}

/// A validated, borrowed view over the words of one encoded bitmap.
///
/// [`BitmapView::new`] keeps the crate invariant on bytes from outside,
/// and the words stay where they lie. Words are read with unaligned
/// little-endian loads ([`u64::from_le_bytes`]): wire frames carry
/// variable-length headers, so the word region has no alignment
/// guarantee.
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
    /// A view of the `len`-bit vector whose little-endian words are
    /// `body`. `Err` names the broken rule unless `body` holds exactly
    /// `words_for(len)` words and no bit at or past `len` is set.
    pub fn new(len: usize, body: &'a [u8]) -> Result<BitmapView<'a>, &'static str> {
        if Some(body.len()) != words_for(len).checked_mul(8) {
            return Err("wrong word count");
        }
        let view = BitmapView { len, body };
        match view.word_len().checked_sub(1) {
            Some(last) if view.word(last) & !tail_mask(len) != 0 => {
                Err("bits set past logical length")
            }
            _ => Ok(view),
        }
    }

    /// A view of `(len, body)` that a [`new`](Self::new) call has already
    /// accepted — how a parsed frame cuts its checked bytes again without
    /// a second check. Debug builds re-run the check. Words are still read
    /// through bounds-checked slices, so a caller that breaks the rule gets
    /// wrong bits or a panic, never unsound memory access.
    #[inline]
    pub fn from_checked(len: usize, body: &'a [u8]) -> BitmapView<'a> {
        debug_assert_eq!(Self::new(len, body).err(), None);
        BitmapView { len, body }
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

    /// Size in bytes of the frame [`Bitmap::encode`] writes for these
    /// words (header + body).
    #[inline]
    pub fn encoded_len(&self) -> usize {
        DIGEST_HEADER + self.body.len()
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

    #[inline]
    fn read_words(&self, first: usize, out: &mut [u64]) {
        let bytes = &self.body[first * 8..(first + out.len()) * 8];
        for (w, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *w = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            want.push(DIGEST_VERSION);
            want.extend_from_slice(&(bits as u64).to_le_bytes());
            want.extend(bm.words().iter().flat_map(|w| w.to_le_bytes()));
            let mut buf = b"prefix".to_vec();
            bm.encode_into(&mut buf);
            assert_eq!(buf.len(), 6 + bm.encoded_len(), "{bits} bits");
            assert_eq!(buf, want, "{bits} bits");
        }
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

    /// A view over a bitmap's encoded words reads them back; the
    /// constructor refuses a body of the wrong size and a dirty tail.
    #[test]
    fn view_reads_the_words_it_was_checked_on() {
        for bits in [0, 1, 63, 64, 65, 1000] {
            let bm = Bitmap::from_indices(bits, (0..bits).step_by(7));
            let frame = bm.encode();
            let view = BitmapView::new(bits, &frame[DIGEST_HEADER..]).unwrap();
            assert_eq!((view.len(), view.is_empty()), (bits, bits == 0));
            assert_eq!(view.encoded_len(), bm.encoded_len());
            assert_eq!(
                BitmapView::from_checked(bits, &frame[DIGEST_HEADER..]),
                view
            );
            for (i, &w) in bm.words().iter().enumerate() {
                assert_eq!(view.word(i), w, "{bits} bits, word {i}");
            }
            let long = [&frame[DIGEST_HEADER..], &[0; 8]].concat();
            assert_eq!(BitmapView::new(bits, &long), Err("wrong word count"));
        }
        let dirty = (1u64 << 10).to_le_bytes();
        assert_eq!(
            BitmapView::new(4, &dirty),
            Err("bits set past logical length")
        );
        assert!(BitmapView::new(11, &dirty).is_ok());
    }
}
