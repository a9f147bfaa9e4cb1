//! Pin of the verdict path's kernels.
//!
//! `dcs_hash::crc32` trails every chunk frame, checkpoint, aggregate
//! bundle and artifact on the wire; the n′ screen of
//! `refined_detect_cached` decides which columns the product search ever
//! sees; the search's hopefuls list and AND-popcount fan-outs decide the
//! core, and the expansion sweep the witness set. All were rewritten for
//! speed (sixteen bytes a step; counting instead of selecting; buckets
//! instead of a heap, one batched popcount kernel); each constant was
//! captured before its code was touched, in debug, release and under
//! `DCS_FORCE_SCALAR=1`. They change only when a checksum, a shipped
//! frame byte, a screened column, a candidate or a search count does.

use dcs_aligned::{
    naive_detect, refined_detect_cached, AlignedDetection, SearchConfig, SearchScratch,
};
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

/// Feeds everything a detection reports about *where* the pattern is —
/// both column lists, the weight curve, the stop index — into `h`.
fn hash_detection(det: &AlignedDetection, h: &mut Fnv1a) {
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
    let rows = mat.row_bitmaps();
    for threads in [1, 2] {
        let cfg = SearchConfig {
            n_prime: 1_000,
            hopefuls: 250,
            compute: ComputeBudget::with_threads(threads),
            ..SearchConfig::default()
        };
        let mut scratch = SearchScratch::new();
        let (det, _, _) = refined_detect_cached(&rows, &cfg, &mut scratch);
        assert!(det.found, "planted 20 x 30 pattern not found");
        let mut h = Fnv1a::new();
        hash_detection(&det, &mut h);
        let got = h.finish();
        assert_eq!(got, SCREEN_PIN, "threads {threads}: got {got:#018x}");
    }
}

/// `nrows × ncols` seeded matrix, each bit set with probability
/// 1 / `one_in`, then rows `0..a` set across `b` randomly chosen columns.
fn seeded_matrix(
    seed: u64,
    nrows: usize,
    ncols: usize,
    one_in: u32,
    (a, b): (usize, usize),
) -> ColMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mat = ColMatrix::new(nrows, ncols);
    for c in 0..ncols {
        for r in 0..nrows {
            if rng.gen_range(0..one_in) == 0 {
                mat.set(r, c);
            }
        }
    }
    let mut cols: Vec<usize> = (0..ncols).collect();
    cols.shuffle(&mut rng);
    for &c in &cols[..b] {
        for r in 0..a {
            mat.set(r, c);
        }
    }
    mat
}

fn detection_pin(det: &AlignedDetection) -> u64 {
    let mut h = Fnv1a::new();
    hash_detection(det, &mut h);
    h.update(&[u8::from(det.found)]);
    h.finish()
}

/// The product search and the expansion sweep on the shapes that stress
/// their inner loops differently: every candidate tying at the hopefuls
/// bar (12 rows, and the sparse 24 rows whose products weigh 0–3), the
/// half-full 24-row null, and columns of 2 and 16 words. The detection
/// must not depend on the thread count; the scanned / pruned split is
/// pinned where it is defined, at one thread.
#[test]
fn search_results_are_pinned() {
    // (shape, matrix, detection pin, (pairs_scanned, pairs_pruned)).
    let cases = [
        (
            "12 x 65,536 half-full",
            seeded_matrix(31, 12, 65_536, 2, (0, 0)),
            0xce51_f475_ee26_4914_u64,
            (1_270_505_u64, 3_430_788_u64),
        ),
        (
            "24 x 65,536 at 0.4 % with 20 x 30",
            seeded_matrix(32, 24, 65_536, 250, (20, 30)),
            0xe14e_a3c2_11a1_b122,
            (689_341, 3_508_571),
        ),
        (
            "24 x 65,536 half-full null",
            seeded_matrix(33, 24, 65_536, 2, (0, 0)),
            0x2ee9_a137_0a2d_8e80,
            (1_851_298, 301_099),
        ),
        (
            "100 x 16,384 with 40 x 20",
            seeded_matrix(34, 100, 16_384, 2, (40, 20)),
            0x2cf6_4ddb_abe6_4423,
            (3_919_292, 0),
        ),
        (
            "1,000 x 8,192 with 100 x 30",
            seeded_matrix(35, 1_000, 8_192, 2, (100, 30)),
            0x4a30_142a_fd62_1c29,
            (4_880_547, 0),
        ),
    ];
    for (name, mat, want, want_work) in &cases {
        let rows = mat.row_bitmaps();
        for threads in [1, 2, 8] {
            let cfg = SearchConfig {
                n_prime: 1_000,
                hopefuls: 250,
                compute: ComputeBudget::with_threads(threads),
                ..SearchConfig::default()
            };
            let mut scratch = SearchScratch::new();
            let (det, _, work) = refined_detect_cached(&rows, &cfg, &mut scratch);
            let got = detection_pin(&det);
            assert_eq!(got, *want, "{name}, threads {threads}: got {got:#018x}");
            if threads == 1 {
                let got_work = (work.pairs_scanned, work.pairs_pruned);
                assert_eq!(got_work, *want_work, "{name}");
            }
        }
    }

    // The naive search sees the columns unsorted, so its weight-bound
    // break runs on a real suffix maximum.
    let mat = seeded_matrix(36, 64, 150, 2, (24, 10));
    let cfg = SearchConfig {
        hopefuls: 150,
        max_iterations: 25,
        compute: ComputeBudget::sequential(),
        ..SearchConfig::default()
    };
    let got = detection_pin(&naive_detect(&mat, &cfg));
    assert_eq!(got, NAIVE_PIN, "naive 64 x 150: got {got:#018x}");
}

const CRC_PIN: u64 = 0xbee2_6e3d_9349_d6f7;
const DATAGRAM_FRAMES_PIN: u64 = 0x6459_89b9_c362_2c58;
const STREAM_FRAMES_PIN: u64 = 0x392d_129e_a8f2_80a1;
const SCREEN_PIN: u64 = 0xa70d_f29f_5071_8d5a;
const NAIVE_PIN: u64 = 0x4ef5_137b_0ae3_809b;
