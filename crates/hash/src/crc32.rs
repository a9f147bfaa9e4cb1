//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`), implemented
//! in-repo so the transport layer needs no external dependency.
//!
//! The digest transport envelope (`dcs-core::transport`) trails every
//! chunk frame and every collector checkpoint with this checksum, so
//! truncation and bit-flips on the measurement plane are *detectable*
//! rather than silently decoded into garbage. CRC-32 is an
//! error-detection code, not a MAC: it defends against line noise, not
//! adversaries — the structural validation in `dcs-collect::wire` and
//! `dcs-core::ingest` remains the backstop either way.
//!
//! The kernel is slicing-by-16: sixteen 256-entry tables computed at
//! compile time (16 KiB), where `TABLES[k][b]` is the remainder of byte
//! `b` followed by `k` zero bytes. A 16-byte block is two `u64` loads and
//! sixteen lookups that do not depend on one another, so the serial
//! chain is one XOR tree per block instead of one lookup per byte. The
//! byte-at-a-time loop over `TABLES[0]` handles the < 16-byte tail (and
//! is the oracle the tests compare against). [`Crc32`] streams over split
//! buffers, [`crc32`] is the one-shot convenience.

/// The reflected IEEE 802.3 generator polynomial.
pub const POLY: u32 = 0xEDB8_8320;

/// Remainder tables for [`POLY`], built at compile time: `TABLES[0]` is
/// the classic byte-indexed table, `TABLES[k][b]` advances `TABLES[k - 1][b]`
/// past one more zero byte.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut byte = 0usize;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut byte = 0usize;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `bytes` into the raw (pre-inversion) state one byte at a time.
fn fold_bytes(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Streaming CRC-32 over arbitrarily split input.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum; chainable.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            let word = |half: &[u8]| u64::from_le_bytes(half.try_into().expect("8-byte half"));
            let lo = (word(&block[..8]) ^ u64::from(crc)).to_le_bytes();
            let hi = word(&block[8..]).to_le_bytes();
            crc = 0;
            for i in 0..8 {
                crc ^= TABLES[15 - i][usize::from(lo[i])] ^ TABLES[7 - i][usize::from(hi[i])];
            }
        }
        self.state = fold_bytes(crc, blocks.remainder());
        self
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time reference the sliced kernel must equal.
    fn oracle(bytes: &[u8]) -> u32 {
        !fold_bytes(!0, bytes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sliced_kernel_equals_bytewise_oracle(
            buf in proptest::collection::vec(any::<u8>(), 4_112..4_113),
            misalign in 0usize..16,
            len in 0usize..=4_096,
            cut_a in any::<usize>(),
            cut_b in any::<usize>(),
        ) {
            let data = &buf[misalign..misalign + len];
            let want = oracle(data);
            prop_assert_eq!(crc32(data), want);
            let (a, b) = (cut_a % (data.len() + 1), cut_b % (data.len() + 1));
            let (a, b) = (a.min(b), a.max(b));
            let mut two = Crc32::new();
            two.update(&data[..a]).update(&data[a..]);
            prop_assert_eq!(two.finish(), want, "split at {}", a);
            let mut three = Crc32::new();
            three.update(&data[..a]).update(&data[a..b]).update(&data[b..]);
            prop_assert_eq!(three.finish(), want, "splits at {} and {}", a, b);
        }
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let whole = crc32(&data);
        for split in [0usize, 1, 7, 255, 4095, 4096] {
            let mut c = Crc32::new();
            c.update(&data[..split]).update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split} diverged");
        }
    }

    #[test]
    fn single_bit_flips_always_detected() {
        // CRC-32 detects every single-bit error within its span.
        let data = b"epoch digest chunk payload".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut mangled = data.clone();
                mangled[byte] ^= 1 << bit;
                assert_ne!(crc32(&mangled), reference, "flip {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let data = b"some frame body with a checksum appended".to_vec();
        let reference = crc32(&data);
        for cut in 0..data.len() {
            assert_ne!(
                crc32(&data[..cut]),
                reference,
                "truncation at {cut} undetected"
            );
        }
    }
}
