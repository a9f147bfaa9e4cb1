//! Pin of the verdict path's two linear-pass kernels.
//!
//! `dcs_hash::crc32` trails every chunk frame, checkpoint, aggregate
//! bundle and artifact on the wire, and the n′ screen of
//! `refined_detect_cached` decides which columns the product search ever
//! sees. Both were rewritten for speed (sixteen bytes a step; counting
//! instead of selecting); these constants were captured before either
//! was touched, in debug, release and under `DCS_FORCE_SCALAR=1`. They
//! change only when a checksum, a shipped frame byte or a screened
//! column does.

use dcs_aligned::{refined_detect_cached, SearchConfig, SearchScratch};
use dcs_bitmap::ColMatrix;
use dcs_core::transport::{chunk_bundle, DATAGRAM_SAFE_PAYLOAD};
use dcs_hash::crc32::crc32;
use dcs_hash::Fnv1a;
use dcs_parallel::ComputeBudget;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

/// Every length a kernel with a 16-byte stride can treat differently
/// (0..=80 covers head, five strides and every tail), plus a
/// datagram-sized chunk, a stream-sized chunk and a whole digest, each
/// from every start misalignment 0..16. The buffer is 1 MiB + 16 so the longest slice fits
/// at every offset.
#[test]
fn crc32_values_are_pinned() {
    const MIB: usize = 1 << 20;
    let buf = seeded_bytes(21, MIB + 16);
    let mut h = Fnv1a::new();
    for off in 0..16 {
        for len in (0..=80).chain([1_367, 16_384, MIB]) {
            h.update(&crc32(&buf[off..off + len]).to_le_bytes());
        }
    }
    let got = h.finish();
    assert_eq!(got, CRC_PIN, "got {got:#018x}");
}

#[test]
fn chunk_frames_are_pinned() {
    let bundle = seeded_bytes(22, 200_000);
    for (max_payload, want) in [
        (DATAGRAM_SAFE_PAYLOAD, DATAGRAM_FRAMES_PIN),
        (16 * 1024, STREAM_FRAMES_PIN),
    ] {
        let mut h = Fnv1a::new();
        for frame in chunk_bundle(9, 412, &bundle, max_payload) {
            h.update(&frame);
        }
        let got = h.finish();
        assert_eq!(got, want, "max_payload {max_payload}: got {got:#018x}");
    }
}

/// 24 × 65,536 at half fill: column weights take 25 values, so the cut
/// at n′ = 1,000 falls inside the weight-17 tier (≈ 740 columns weigh
/// 18 or more, ≈ 2,100 weigh 17 or more) and the `index asc` tie-break
/// decides several hundred of the screened columns.
#[test]
fn screened_detection_is_pinned() {
    let (nrows, ncols) = (24, 65_536);
    let mut rng = StdRng::seed_from_u64(23);
    let mut mat = ColMatrix::new(nrows, ncols);
    for c in 0..ncols {
        let bits: u32 = rng.gen();
        for r in 0..nrows {
            if bits >> r & 1 == 1 {
                mat.set(r, c);
            }
        }
    }
    let mut cols: Vec<usize> = (0..ncols).collect();
    cols.shuffle(&mut rng);
    for &c in &cols[..30] {
        for r in 0..20 {
            mat.set(r, c);
        }
    }
    let weights = mat.col_weights();
    for threads in [1, 2] {
        let cfg = SearchConfig {
            n_prime: 1_000,
            hopefuls: 250,
            compute: ComputeBudget::with_threads(threads),
            ..SearchConfig::default()
        };
        let mut scratch = SearchScratch::new();
        let (det, _, _) = refined_detect_cached(&mat, &weights, &cfg, &mut scratch);
        assert!(det.found, "planted 20 x 30 pattern not found");
        let mut h = Fnv1a::new();
        for list in [&det.core_cols, &det.cols] {
            h.update(&(list.len() as u64).to_le_bytes());
            for &c in list {
                h.update(&(c as u64).to_le_bytes());
            }
        }
        for &w in &det.weight_curve {
            h.update(&w.to_le_bytes());
        }
        h.update(&det.stopped_at.map_or(u64::MAX, |s| s as u64).to_le_bytes());
        let got = h.finish();
        assert_eq!(got, SCREEN_PIN, "threads {threads}: got {got:#018x}");
    }
}

const CRC_PIN: u64 = 0xbee2_6e3d_9349_d6f7;
const DATAGRAM_FRAMES_PIN: u64 = 0x6459_89b9_c362_2c58;
const STREAM_FRAMES_PIN: u64 = 0x392d_129e_a8f2_80a1;
const SCREEN_PIN: u64 = 0xa70d_f29f_5071_8d5a;
