//! The one bounds-checked reader every wire decoder parses through.
//!
//! Every frame the centre, an aggregator or a resuming process parses is
//! outside input. [`Reader`] owns the checks each decoder needs: the
//! magic and version, every fixed-width field, each declared count or
//! length against its cap and the bytes left, and the CRC-32 trailer.
//! A decoder built on it never slices the buffer itself, so it fails
//! with a [`FrameError`], never a panic. Encoders write with
//! `bytes::BufMut` and close a CRC-covered frame with [`seal`].

use dcs_hash::crc32::crc32;
use std::fmt;

/// Errors from decoding a wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer too short for the fixed header or a declared body.
    Truncated,
    /// Unexpected magic bytes.
    BadMagic([u8; 4]),
    /// Unsupported version.
    BadVersion(u8),
    /// The CRC-32 trailer disagrees with the bytes it covers.
    ChecksumMismatch {
        /// Checksum carried in the trailer.
        declared: u32,
        /// Checksum of the bytes as received.
        computed: u32,
    },
    /// Structurally impossible field (a count or length over its cap, an
    /// unknown tag, bytes left over).
    Malformed(&'static str),
    /// Encode-side failure: a field exceeds what the frame format can
    /// carry. A frame is never emitted with a silently truncated count.
    TooLarge(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FrameError::ChecksumMismatch { declared, computed } => write!(
                f,
                "checksum mismatch: trailer {declared:#010x}, computed {computed:#010x}"
            ),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::TooLarge(what) => write!(f, "does not fit the wire format: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends the CRC-32 of everything in `buf` as a little-endian trailer.
pub fn seal(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// A little-endian cursor over one received buffer. Every read checks
/// the bytes left first and fails with [`FrameError::Truncated`].
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes read so far.
    pub fn used(&self) -> usize {
        self.pos
    }

    /// The bytes not read yet, without consuming them: for an embedded
    /// frame another parser validates before [`bytes`](Self::bytes)
    /// skips it.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Reads the 4-byte magic and the version byte, returning the
    /// version. [`FrameError::BadMagic`] unless the magic is `magic`,
    /// [`FrameError::BadVersion`] unless the version is one of `versions`.
    pub fn magic_version(&mut self, magic: [u8; 4], versions: &[u8]) -> Result<u8, FrameError> {
        let head: [u8; 5] = self.array()?;
        let found = [head[0], head[1], head[2], head[3]];
        if found != magic {
            return Err(FrameError::BadMagic(found));
        }
        if !versions.contains(&head[4]) {
            return Err(FrameError::BadVersion(head[4]));
        }
        Ok(head[4])
    }

    /// The next `n` bytes, borrowed from the buffer.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let out = self.rest().get(..n).ok_or(FrameError::Truncated)?;
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        self.array().map(|[b]| b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a `u32` count or length that the frame declares for what
    /// follows. [`FrameError::Malformed`]`(over_cap)` above `cap`, and
    /// [`FrameError::Truncated`] when `count × min_item_bytes` is more
    /// than the bytes left — so a caller may allocate for the count.
    pub fn count(
        &mut self,
        cap: usize,
        min_item_bytes: usize,
        over_cap: &'static str,
    ) -> Result<usize, FrameError> {
        let n = self.u32()? as usize;
        if n > cap {
            return Err(FrameError::Malformed(over_cap));
        }
        if n.saturating_mul(min_item_bytes) > self.buf.len() - self.pos {
            return Err(FrameError::Truncated);
        }
        Ok(n)
    }

    /// Reads a CRC-32 trailer and checks it against every byte read
    /// before it.
    pub fn crc_trailer(&mut self) -> Result<(), FrameError> {
        let covered = &self.buf[..self.pos];
        let declared = self.u32()?;
        let computed = crc32(covered);
        if declared != computed {
            return Err(FrameError::ChecksumMismatch { declared, computed });
        }
        Ok(())
    }

    /// For a frame whose CRC is checked before any field is trusted: the
    /// frame is the first `len` bytes of the buffer and ends in a CRC-32
    /// trailer over the rest. Checks the trailer and returns a reader at
    /// this one's position that stops before it.
    pub fn sealed(self, len: usize) -> Result<Reader<'a>, FrameError> {
        let frame = self.buf.get(..len).ok_or(FrameError::Truncated)?;
        let body = len
            .checked_sub(4)
            .filter(|&body| body >= self.pos)
            .ok_or(FrameError::Truncated)?;
        Reader {
            buf: frame,
            pos: body,
        }
        .crc_trailer()?;
        Ok(Reader {
            buf: &frame[..body],
            pos: self.pos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_in_order_and_refuses_past_the_end() {
        let mut buf = b"DCSX\x02".to_vec();
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.push(9);
        let mut r = Reader::new(&buf);
        assert_eq!(r.magic_version(*b"DCSX", &[1, 2]), Ok(2));
        assert_eq!(r.u64(), Ok(7));
        assert_eq!(r.u32(), Ok(3));
        assert_eq!(r.used(), 17);
        assert_eq!(r.u32(), Err(FrameError::Truncated), "one byte left");
        assert_eq!(r.u8(), Ok(9), "a failed read consumes nothing");
        assert!(r.rest().is_empty());
        assert_eq!(r.bytes(1), Err(FrameError::Truncated));

        let mut r = Reader::new(&buf);
        assert_eq!(
            r.magic_version(*b"DCSY", &[2]),
            Err(FrameError::BadMagic(*b"DCSX"))
        );
        let mut r = Reader::new(&buf);
        assert_eq!(
            r.magic_version(*b"DCSX", &[1]),
            Err(FrameError::BadVersion(2))
        );
        assert_eq!(
            Reader::new(b"DCSX").magic_version(*b"DCSX", &[1]),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn counts_are_capped_and_bounded_by_the_bytes_left() {
        let frame = |n: u32, tail: usize| {
            let mut buf = n.to_le_bytes().to_vec();
            buf.resize(4 + tail, 0);
            buf
        };
        let over = FrameError::Malformed("over");
        assert_eq!(Reader::new(&frame(3, 12)).count(3, 4, "over"), Ok(3));
        assert_eq!(Reader::new(&frame(4, 16)).count(3, 4, "over"), Err(over));
        assert_eq!(
            Reader::new(&frame(3, 11)).count(3, 4, "over"),
            Err(FrameError::Truncated)
        );
        assert_eq!(
            Reader::new(&frame(u32::MAX, 0)).count(usize::MAX, usize::MAX, "over"),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn trailers_cover_what_was_read() {
        let mut buf = b"payload".to_vec();
        seal(&mut buf);
        let mut r = Reader::new(&buf);
        r.bytes(7).unwrap();
        assert_eq!(r.crc_trailer(), Ok(()));
        assert_eq!(r.used(), buf.len());

        let sealed = Reader::new(&buf).sealed(buf.len()).unwrap();
        assert_eq!(sealed.rest(), b"payload");
        buf.push(0xAA);
        let mut r = Reader::new(&buf);
        r.bytes(2).unwrap();
        let r = r.sealed(buf.len() - 1).unwrap();
        assert_eq!((r.used(), r.rest()), (2, &b"yload"[..]));

        buf[0] ^= 1;
        assert!(matches!(
            Reader::new(&buf).sealed(buf.len() - 1),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        assert_eq!(
            Reader::new(&buf).sealed(buf.len() + 1).unwrap_err(),
            FrameError::Truncated
        );
        assert_eq!(
            Reader::new(&buf[..3]).sealed(3).unwrap_err(),
            FrameError::Truncated
        );
    }
}
