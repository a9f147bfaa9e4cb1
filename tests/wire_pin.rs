//! Pin of the verdict path's kernels.
//!
//! `dcs_hash::crc32` trails every chunk frame, checkpoint, aggregate
//! bundle and artifact on the wire; the n′ screen of
//! `refined_detect_cached` decides which columns the product search ever
//! sees; the search's hopefuls list and AND-popcount fan-outs decide the
//! core, and the expansion sweep the witness set; the unaligned pair
//! loop decides the test and detection group graphs from λ cells. All
//! were rewritten for speed (sixteen bytes a step, then 64 bytes a step
//! by carry-less multiply; counting instead of
//! selecting; a histogram-cut top-H over whole fan-out runs instead of
//! a heap, one batched popcount kernel;
//! one popcount for both graphs, fills walked from the last fill's
//! standardised quantile through an early-exit tail decision);
//! each constant was captured before its code was touched, in debug,
//! release and under `DCS_FORCE_SCALAR=1`. They change only when a
//! checksum, a shipped frame byte, a screened column, a candidate, a
//! search count, a group edge, a row-pair tally or a λ cell does.
//! `group_graph_is_pinned`'s four were re-captured once, with no edge or
//! tally moved, when the hash dropped the flag of a run-time self-check
//! the engine no longer runs.
//! `group_graph_is_pinned` writes one `kernel pins: <kernel>` line to
//! stderr, past the harness's capture, naming the popcount kernel the
//! run dispatched to.

use dcs_aligned::{
    naive_detect, refined_detect_cached, AlignedDetection, SearchConfig, SearchScratch,
};
use dcs_bitmap::{Bitmap, ColMatrix, RowMatrix};
use dcs_core::aggregate::{AggregateBundle, ChildExclusion};
use dcs_core::center::AnalysisConfig;
use dcs_core::ingest::RouterFault;
use dcs_core::monitor::{MonitorConfig, MonitoringPoint};
use dcs_core::net::ControlFrame;
use dcs_core::session::{CollectorConfig, EpochCollector};
use dcs_core::transport::{chunk_bundle, CHUNK_HEADER, DATAGRAM_SAFE_PAYLOAD};
use dcs_graph::Graph;
use dcs_hash::crc32::{crc32, Crc32};
use dcs_hash::Fnv1a;
use dcs_traffic::{gen, BackgroundConfig, SizeMix};
use dcs_unaligned::{
    build_group_graph, GroupLayout, IncrementalCorrelator, LambdaTable, LambdaTables,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::Write;

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

/// The CRC-32 streams a folding kernel can treat differently: every
/// length 0..=320 (the 64-byte entry, the 16-byte loop and every tail)
/// from every start offset 0..16, then a seeded 4 KiB buffer streamed
/// through `Crc32::update` in two and in three pieces, cut at every
/// 16-byte boundary ± 1.
#[test]
fn crc32_streams_are_pinned() {
    const LEN: usize = 4_096;
    let short = seeded_bytes(25, 320 + 16);
    let mut h = Fnv1a::new();
    for off in 0..16 {
        for len in 0..=320 {
            h.update(&crc32(&short[off..off + len]).to_le_bytes());
        }
    }
    let buf = seeded_bytes(26, LEN);
    let mut cuts: Vec<usize> = (0..=LEN / 16)
        .flat_map(|k| [16 * k - usize::from(k > 0), 16 * k, 16 * k + 1])
        .filter(|&c| c <= LEN)
        .collect();
    cuts.dedup();
    for &a in &cuts {
        let mut two = Crc32::new();
        two.update(&buf[..a]).update(&buf[a..]);
        h.update(&two.finish().to_le_bytes());
        for &b in cuts.iter().filter(|&&b| b >= a) {
            let mut three = Crc32::new();
            three.update(&buf[..a]).update(&buf[a..b]).update(&buf[b..]);
            h.update(&three.finish().to_le_bytes());
        }
    }
    let got = h.finish();
    assert_eq!(got, CRC_STREAM_PIN, "got {got:#018x}");
}

/// One seeded leaf's DCSR frame.
fn leaf_frame(seed: u64, router_id: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pkts = gen::generate_epoch(
        &mut rng,
        &BackgroundConfig {
            packets: 200,
            flows: 50,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        },
    );
    let mut mp = MonitoringPoint::new(router_id, &MonitorConfig::small(7, 1 << 10, 2));
    mp.observe_all(&pkts);
    mp.finish_epoch()
        .encode_wire()
        .expect("a small digest fits the wire")
}

/// The DCSG, DCSK and control encoders' bytes: (a) a level-1 bundle of
/// seeded leaf frames and one exclusion of every `RouterFault` variant
/// (a two-deep `AtLevel`, with and without an aggregator id); (b) a
/// checkpoint holding one complete session, one partial session with a
/// CRC-failed seq and one that never sent; (c) every control frame kind.
#[test]
fn frames_are_pinned() {
    let excluded = |router_id, fault| ChildExclusion { router_id, fault };
    let timed_out = RouterFault::TimedOut {
        received: 1,
        total: 4,
    };
    let faults = vec![
        RouterFault::Wire("digest frame truncated".into()),
        RouterFault::DuplicateRouter { first_index: 3 },
        RouterFault::EmptyUnaligned,
        RouterFault::AlignedWidth {
            expected: 1024,
            got: 2048,
        },
        RouterFault::ArraysPerGroup {
            expected: 5,
            got: 4,
        },
        RouterFault::ArrayWidth {
            expected: 64,
            got: 128,
        },
        RouterFault::EpochDesync {
            expected: 9,
            got: 8,
        },
        timed_out.clone(),
        RouterFault::ChecksumMismatch { seq: 2 },
        RouterFault::Incomplete {
            received: 3,
            total: 7,
        },
        RouterFault::AtLevel {
            level: 2,
            aggregator_id: None,
            fault: Box::new(RouterFault::AtLevel {
                level: 1,
                aggregator_id: Some(77),
                fault: Box::new(timed_out),
            }),
        },
    ];
    let bundle = AggregateBundle::assemble(
        400,
        5,
        1,
        vec![
            (1, leaf_frame(33, 1)),
            (10, leaf_frame(31, 10)),
            (11, leaf_frame(32, 11)),
        ],
        (20..).zip(faults).map(|(r, f)| excluded(r, f)).collect(),
    );
    let aggregate = bundle.encode_wire();

    let mut collector = EpochCollector::new(4, [1, 2, 3], CollectorConfig::default(), 5, 0);
    for chunk in chunk_bundle(1, 4, &leaf_frame(34, 1), 256) {
        collector.offer(&chunk, 0);
    }
    let partial = chunk_bundle(2, 4, &leaf_frame(35, 2), 256);
    let mut corrupt = partial[1].clone();
    corrupt[CHUNK_HEADER + 3] ^= 0x40;
    for chunk in [&partial[0], &corrupt, &partial[2]] {
        collector.offer(chunk, 1);
    }
    let checkpoint = collector.checkpoint();

    let control: Vec<u8> = [
        ControlFrame::Ack {
            router_id: 1,
            epoch_id: 9,
            cumulative_ack: 42,
        },
        ControlFrame::NackAll {
            router_id: 2,
            epoch_id: 9,
        },
        ControlFrame::NackSeqs {
            router_id: 3,
            epoch_id: 9,
            seqs: vec![0, 5, 17, 65_535],
        },
        ControlFrame::Advance {
            router_id: u64::MAX,
            epoch_id: 10,
        },
        ControlFrame::Shutdown { router_id: 4 },
    ]
    .iter()
    .flat_map(ControlFrame::encode)
    .collect();

    for (name, bytes, want) in [
        ("DCSG", aggregate, AGGREGATE_PIN),
        ("DCSK", checkpoint, CHECKPOINT_PIN),
        ("control", control, CONTROL_PIN),
    ] {
        let mut h = Fnv1a::new();
        h.update(&bytes);
        let got = h.finish();
        assert_eq!(got, want, "{name}: got {got:#018x}");
    }
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
    let cfg = SearchConfig {
        n_prime: 1_000,
        hopefuls: 250,
        ..SearchConfig::default()
    };
    let mut scratch = SearchScratch::new();
    let (det, _, _) = refined_detect_cached(&mat.row_bitmaps(), &cfg, &mut scratch);
    assert!(det.found, "planted 20 x 30 pattern not found");
    let mut h = Fnv1a::new();
    hash_detection(&det, &mut h);
    let got = h.finish();
    assert_eq!(got, SCREEN_PIN, "got {got:#018x}");
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

/// `nrows` rows of `nbits` bits, each with `ones` random ones, and `b`
/// random columns set on the first `a` rows: a live monitor's sparse
/// digest, built as rows because its column store would not fit.
fn sparse_rows(
    seed: u64,
    nrows: usize,
    nbits: usize,
    ones: usize,
    (a, b): (usize, usize),
) -> Vec<Bitmap> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = vec![Bitmap::new(nbits); nrows];
    for row in &mut rows {
        (0..ones).for_each(|_| _ = row.set(rng.gen_range(0..nbits)));
    }
    for _ in 0..b {
        let c = rng.gen_range(0..nbits);
        rows[..a].iter_mut().for_each(|row| _ = row.set(c));
    }
    rows
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
/// half-full 24-row null, columns of 2 and 16 words, and the wide sparse
/// 2- and 4-row stacks of live monitors, where almost every offer ties
/// at the bar: each detection, and the exact scanned / pruned split of
/// its search.
#[test]
fn search_results_are_pinned() {
    let check = |name: &str, rows: &[Bitmap], cfg: &SearchConfig, want: u64, want_work| {
        let mut scratch = SearchScratch::new();
        let (det, _, work) = refined_detect_cached(rows, cfg, &mut scratch);
        let got = detection_pin(&det);
        assert_eq!(got, want, "{name}: got {got:#018x}");
        assert_eq!((work.pairs_scanned, work.pairs_pruned), want_work, "{name}");
    };
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
    let cfg = SearchConfig {
        n_prime: 1_000,
        hopefuls: 250,
        ..SearchConfig::default()
    };
    for (name, mat, want, want_work) in cases {
        check(name, &mat.row_bitmaps(), &cfg, want, want_work);
    }

    // `collect-mix`'s and `wire-udp-lossy`'s stacks at their (n′, H).
    let wide = [
        (
            "2 x 4 Mbit at 0.07 % with 2 x 30",
            sparse_rows(37, 2, 4 << 20, 2_900, (2, 30)),
            0x37d0_9341_f654_1ca7,
            (93_022, 52_615),
        ),
        (
            "4 x 2 Mbit at 0.01 % with 3 x 30",
            sparse_rows(38, 4, 2 << 20, 250, (3, 30)),
            0x87ce_888a_41f9_2937,
            (93_774, 52_615),
        ),
    ];
    let cfg = SearchConfig {
        n_prime: 200,
        hopefuls: 100,
        ..SearchConfig::default()
    };
    for (name, rows, want, want_work) in wide {
        check(name, &rows, &cfg, want, want_work);
    }

    // The naive search sees the columns unsorted, so its weight-bound
    // break runs on a real suffix maximum.
    let mat = seeded_matrix(36, 64, 150, 2, (24, 10));
    let cfg = SearchConfig {
        hopefuls: 150,
        max_iterations: 25,
        ..SearchConfig::default()
    };
    let got = detection_pin(&naive_detect(&mat, &cfg));
    assert_eq!(got, NAIVE_PIN, "naive 64 x 150: got {got:#018x}");
}

/// `groups` groups of `GRAPH_K` 1,024-bit rows. A row weighs 446 (the
/// paper's fill) when `uniform`, else its group cycles through empty,
/// sparse, medium and dense rows; a group of `prev` survives verbatim
/// unless a `churn` coin rewrites all of its rows.
fn churned_matrix(
    rng: &mut StdRng,
    prev: Option<&RowMatrix>,
    groups: usize,
    uniform: bool,
    churn: f64,
) -> RowMatrix {
    let mut m = RowMatrix::new(GRAPH_BITS);
    for g in 0..groups {
        let keep = prev.filter(|_| !rng.gen_bool(churn));
        for r in 0..GRAPH_K {
            if let Some(p) = keep {
                m.push_words(p.row(g * GRAPH_K + r));
                continue;
            }
            let weight = match (uniform, g % 4) {
                (true, _) => 446,
                (false, 0) => 0,
                (false, 1) => 5 + 3 * r,
                (false, 2) => 120 + 17 * r,
                _ => 480 + 50 * r,
            };
            let mut row = Bitmap::new(GRAPH_BITS);
            while (row.weight() as usize) < weight {
                row.set(rng.gen_range(0..GRAPH_BITS));
            }
            m.push_bitmap(&row);
        }
    }
    m
}

fn hash_edges(graph: &Graph, h: &mut Fnv1a) {
    h.update(&(graph.m() as u64).to_le_bytes());
    for (u, v) in graph.edges() {
        h.update(&u.to_le_bytes());
        h.update(&v.to_le_bytes());
    }
}

/// The nine seeded epochs of one group-graph case: six at 48 groups, then
/// three at 44 (a shape change), each churned from the one before.
fn graph_epochs(seed: u64, uniform: bool, churn: f64) -> Vec<RowMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut epochs = Vec::new();
    for groups in [48, 48, 48, 48, 48, 48, 44, 44, 44] {
        let next = churned_matrix(&mut rng, epochs.last(), groups, uniform, churn);
        epochs.push(next);
    }
    epochs
}

/// Λ and the laxer Λ′ of the group-graph pins (p* = 1e-3 and 1e-2).
fn graph_tables() -> LambdaTables {
    LambdaTables {
        test: LambdaTable::new(GRAPH_BITS, 1e-3),
        detect: LambdaTable::new(GRAPH_BITS, 1e-2),
    }
}

/// The group-graph cases: (name, uniform weights, churn), seeded 41….
const GRAPH_CASES: [(&str, bool, f64); 4] = [
    ("uniform, 8 % churn", true, 0.08),
    ("uniform, 100 % churn", true, 1.0),
    ("mixed, 8 % churn", false, 0.08),
    ("mixed, 100 % churn", false, 1.0),
];

/// The unaligned group graph, epoch by epoch: an `IncrementalCorrelator`
/// over the nine epochs of [`graph_epochs`] at 8 % and 100 % group
/// churn, on the uniform and the mixed weight regime. Each epoch feeds
/// the sorted edge list and every `EpochStats` field, then the all-pairs
/// `build_group_graph` edges and `pairs_exact` of the same matrix, into
/// one hash per case; the correlator's Λ edges must equal that build's
/// on every epoch.
#[test]
fn group_graph_is_pinned() {
    // One line past the harness's capture naming the popcount kernel the
    // pins ran on: a host without AVX512-VPOPCNTDQ runs no `Avx512` body.
    let kernel = dcs_bitmap::active_kernel().name();
    let _ = writeln!(std::io::stderr(), "kernel pins: {kernel}");
    let layout = GroupLayout {
        rows_per_group: GRAPH_K,
    };
    let pins = [
        0x8091_b707_1ab9_3fbb_u64,
        0x075f_2317_c59f_58c7,
        0xbfdd_d142_931e_2d6d,
        0x7489_5149_022d_9884,
    ];
    for (seed, ((name, uniform, churn), want)) in (41..).zip(GRAPH_CASES.into_iter().zip(pins)) {
        let epochs = graph_epochs(seed, uniform, churn);
        let tables = graph_tables();
        let mut corr = IncrementalCorrelator::new();
        let mut h = Fnv1a::new();
        for (epoch, m) in epochs.iter().enumerate() {
            let (graph, s) = corr.epoch(m, layout, &tables);
            hash_edges(&graph, &mut h);
            for v in [
                s.pairs_exact,
                s.rows_changed as u64,
                s.groups_changed as u64,
            ] {
                h.update(&v.to_le_bytes());
            }
            h.update(&(s.edges_live as u64).to_le_bytes());
            h.update(&[u8::from(s.full_rebuild)]);
            let (full, pairs_exact) = build_group_graph(m, layout, &tables.test);
            assert_eq!(
                graph.edges().collect::<Vec<_>>(),
                full.edges().collect::<Vec<_>>(),
                "{name}: epoch {epoch}"
            );
            hash_edges(&full, &mut h);
            h.update(&pairs_exact.to_le_bytes());
        }
        let got = h.finish();
        assert_eq!(got, want, "{name}: got {got:#018x}");
    }
}

/// The detection graph of the same epochs: `build_group_graph` under the
/// Λ′ of [`graph_tables`] — each epoch's edges and `pairs_exact` in one
/// hash per case — and the correlator's Λ′ edge list, kept beside its test graph, equal to that
/// build on every epoch.
#[test]
fn detection_graph_is_pinned() {
    let layout = GroupLayout {
        rows_per_group: GRAPH_K,
    };
    let pins = [
        0xc228_a1a9_8b95_ae42_u64,
        0xe29e_6243_c3db_5e34,
        0x7d54_db8d_8747_425a,
        0x1636_b620_1998_55c9,
    ];
    for (seed, ((name, uniform, churn), want)) in (41..).zip(GRAPH_CASES.into_iter().zip(pins)) {
        let epochs = graph_epochs(seed, uniform, churn);
        let tables = graph_tables();
        let mut corr = IncrementalCorrelator::new();
        let mut h = Fnv1a::new();
        for (epoch, m) in epochs.iter().enumerate() {
            corr.epoch(m, layout, &tables);
            let (full, pairs_exact) = build_group_graph(m, layout, &tables.detect);
            let kept: Vec<_> = corr.detection_graph().edges().collect();
            assert_eq!(
                kept,
                full.edges().collect::<Vec<_>>(),
                "{name}: epoch {epoch}"
            );
            hash_edges(&full, &mut h);
            h.update(&pairs_exact.to_le_bytes());
        }
        let got = h.finish();
        assert_eq!(got, want, "{name}: got {got:#018x}");
    }
}

/// λ(i, j) at N = 1,024 for every weight pair in 64..=320, at the Λ and
/// Λ′ levels `AnalysisConfig::for_groups(144)` derives for 10 arrays a
/// group. The cells are filled in a seeded shuffled order, so each fill
/// walks from a different seed (the standardised quantile of the fill
/// before it) than a row-by-row sweep would give it, and read back row
/// by row into the hash.
#[test]
fn lambda_table_is_pinned() {
    let (test_p1, detect_p1) = AnalysisConfig::for_groups(144).edge_probabilities();
    let mut slot = None;
    let tables = LambdaTables::for_shape(&mut slot, GRAPH_BITS, 10, test_p1, detect_p1);
    let weights = 64..=320u32;
    let mut cells: Vec<(u32, u32)> = weights
        .clone()
        .flat_map(|i| weights.clone().map(move |j| (i, j)))
        .collect();
    cells.shuffle(&mut StdRng::seed_from_u64(24));
    for (name, table, want) in [
        ("Λ", &tables.test, 0xb3e9_cd1e_8d7d_7374_u64),
        ("Λ′", &tables.detect, 0x4c1c_c827_3a88_6497),
    ] {
        for &(i, j) in &cells {
            table.lambda(i, j);
        }
        assert_eq!(table.memo_len(), 257 * 258 / 2, "{name}");
        let mut h = Fnv1a::new();
        for i in weights.clone() {
            for j in weights.clone() {
                h.update(&table.lambda(i, j).to_le_bytes());
            }
        }
        let got = h.finish();
        assert_eq!(got, want, "{name}: got {got:#018x}");
    }
}

/// λ is non-decreasing in each weight at N = 1,024, checked on every
/// cell: λ(i, j) ≥ λ(i − 1, j) and λ(i, j) ≥ λ(i, j − 1) at the Λ and Λ′
/// levels `AnalysisConfig::for_groups(48)` and `for_groups(144)` derive
/// for 10 arrays a group. The pair loop rules a row pair out on the
/// coarse grid cell λ(⌊wa⌋, ⌊wb⌋) alone, which is exact only because of
/// this order. Fills all 525,825 cells of four tables, so it runs with
/// the release tests.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "fills four full tables; runs with the release tests"
)]
fn lambda_is_monotone_in_each_weight() {
    let n = GRAPH_BITS as u32;
    for groups in [48, 144] {
        let (test_p1, detect_p1) = AnalysisConfig::for_groups(groups).edge_probabilities();
        let mut slot = None;
        let tables = LambdaTables::for_shape(&mut slot, GRAPH_BITS, 10, test_p1, detect_p1);
        for (name, table) in [("Λ", &tables.test), ("Λ′", &tables.detect)] {
            let cells: Vec<Vec<u32>> = (0..=n)
                .map(|i| {
                    let row = table.row(i);
                    (0..=n).map(|j| row.get(j)).collect()
                })
                .collect();
            // λ(i, j) < λ(i − 1, j), and λ(i, j) < λ(i, j − 1).
            let down_i: usize = cells
                .windows(2)
                .map(|w| w[0].iter().zip(&w[1]).filter(|(lo, hi)| hi < lo).count())
                .sum();
            let down_j: usize = cells
                .iter()
                .map(|row| row.windows(2).filter(|w| w[1] < w[0]).count())
                .sum();
            assert_eq!(
                (down_i, down_j),
                (0, 0),
                "for_groups({groups}) {name}: cells where λ falls as a weight rises"
            );
        }
    }
}

const GRAPH_BITS: usize = 1_024;
const GRAPH_K: usize = 4;
const CRC_PIN: u64 = 0xbee2_6e3d_9349_d6f7;
/// Captured on the slicing-by-16 kernel alone, before the carry-less
/// folding kernel existed.
const CRC_STREAM_PIN: u64 = 0xcae3_a990_04b5_6dde;
const DATAGRAM_FRAMES_PIN: u64 = 0x6459_89b9_c362_2c58;
const STREAM_FRAMES_PIN: u64 = 0x392d_129e_a8f2_80a1;
const SCREEN_PIN: u64 = 0xa70d_f29f_5071_8d5a;
const NAIVE_PIN: u64 = 0x4ef5_137b_0ae3_809b;
/// Re-captured once, before the nested-bundle splice was deleted, on
/// the level-1 input `frames_are_pinned` builds now: the level-2 bundle
/// it replaced spliced a level-1 child and carried a `GroupLayout`
/// exclusion, neither of which any code builds any more.
const AGGREGATE_PIN: u64 = 0x92a7_81e8_b053_4675;
const CHECKPOINT_PIN: u64 = 0x55a6_5332_9a5c_a473;
/// Re-captured twice. When control frames moved from the `DCSA` magic
/// they shared with aligned digests to `DCSN`, the magic and the CRC-32
/// trailer over it changed and every other byte did not. When the
/// `Hello` kind was deleted, its frame left the list: the other five
/// frames hash to this value on the encoder from before the deletion.
const CONTROL_PIN: u64 = 0x2f43_7b08_c0f9_7bb3;
