//! Property-based tests for the matrix types, wire format, the blocked
//! popcount kernels (which must be bit-identical to their `*_scalar`
//! references for every slice length — unrolled body, lane remainder,
//! and masked tails alike) and the bit-sliced column counts (against
//! the transpose they replace on the ingest path).

use crate::words::{
    and_weight_each_into, and_weight_each_with, and_weight_scalar, and_weight_with,
    available_kernels, or_weight_scalar, or_weight_with, tail_mask, weight_scalar, weight_with,
    words_for,
};
use crate::{Bitmap, BitmapView, ColMatrix, ColumnCounts, RowMatrix, WordSource};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_bitmaps(max_rows: usize, width: usize) -> impl Strategy<Value = Vec<Bitmap>> {
    proptest::collection::vec(
        proptest::collection::vec(0usize..width, 0..width.min(64)),
        1..max_rows,
    )
    .prop_map(move |rows| {
        rows.into_iter()
            .map(|idxs| Bitmap::from_indices(width, idxs))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn col_matrix_transpose_agrees_with_bitmaps(bitmaps in arb_bitmaps(12, 80)) {
        let m = ColMatrix::from_router_bitmaps(&bitmaps);
        prop_assert_eq!(m.nrows(), bitmaps.len());
        prop_assert_eq!(m.ncols(), 80);
        for (r, bm) in bitmaps.iter().enumerate() {
            for c in 0..80 {
                prop_assert_eq!(m.get(r, c), bm.get(c), "mismatch at ({}, {})", r, c);
            }
        }
        // Column weights equal per-index counts across bitmaps.
        for c in 0..80 {
            let count = bitmaps.iter().filter(|b| b.get(c)).count();
            prop_assert_eq!(m.col_weight(c) as usize, count);
        }
    }

    #[test]
    fn select_columns_is_projection(bitmaps in arb_bitmaps(8, 60), picks in proptest::collection::vec(0usize..60, 0..30)) {
        let m = ColMatrix::from_router_bitmaps(&bitmaps);
        let s = m.select_columns(&picks);
        prop_assert_eq!(s.ncols(), picks.len());
        for (k, &j) in picks.iter().enumerate() {
            prop_assert_eq!(s.column(k), m.column(j), "column {} != source {}", k, j);
        }
    }

    #[test]
    fn row_matrix_vstack_preserves_rows(
        a in arb_bitmaps(6, 64),
        b in arb_bitmaps(6, 64),
    ) {
        let ma = RowMatrix::from_bitmaps(64, a.iter());
        let mb = RowMatrix::from_bitmaps(64, b.iter());
        let mut stacked = ma.clone();
        stacked.vstack(&mb);
        prop_assert_eq!(stacked.nrows(), a.len() + b.len());
        for (i, bm) in a.iter().chain(b.iter()).enumerate() {
            prop_assert_eq!(stacked.row(i), bm.words(), "row {} corrupted", i);
        }
    }

    #[test]
    fn common_ones_symmetric_and_bounded(
        a in proptest::collection::vec(0usize..128, 0..64),
        b in proptest::collection::vec(0usize..128, 0..64),
    ) {
        let ba = Bitmap::from_indices(128, a);
        let bb = Bitmap::from_indices(128, b);
        let m = RowMatrix::from_bitmaps(128, [&ba, &bb]);
        let c = m.common_ones(0, 1);
        prop_assert_eq!(c, m.common_ones(1, 0));
        prop_assert!(c <= m.row_weight(0).min(m.row_weight(1)));
        prop_assert_eq!(c, ba.common_ones(&bb));
    }

    #[test]
    fn encode_len_matches_actual(len in 0usize..4_000, idxs in proptest::collection::vec(any::<usize>(), 0..32)) {
        prop_assume!(len > 0);
        let bm = Bitmap::from_indices(len, idxs.into_iter().map(|i| i % len));
        prop_assert_eq!(bm.encode().len(), bm.encoded_len());
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Arbitrary input must produce Ok or Err, never a panic — the
        // decoder faces the network.
        let _ = Bitmap::decode(&bytes);
    }

    #[test]
    fn decode_never_panics_on_corrupted_frames(
        idxs in proptest::collection::vec(0usize..512, 0..16),
        pos in 0usize..64,
        val in any::<u8>(),
    ) {
        let bm = Bitmap::from_indices(512, idxs);
        let mut bytes = bm.encode().to_vec();
        if pos < bytes.len() {
            bytes[pos] ^= val;
        }
        let _ = Bitmap::decode(&bytes);
    }

    #[test]
    fn every_kernel_weight_matches_scalar(words in proptest::collection::vec(any::<u64>(), 0..80)) {
        for &k in available_kernels() {
            prop_assert_eq!(weight_with(k, &words), weight_scalar(&words), "{:?}", k);
        }
    }

    #[test]
    fn every_kernel_and_or_match_scalar(
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..80),
    ) {
        // Lengths 0..80 cover each kernel's short-slice fallback, the
        // carry-save body, the lane/vector remainder, and the empty slice.
        let (a, b): (Vec<u64>, Vec<u64>) = pairs.into_iter().unzip();
        for &k in available_kernels() {
            prop_assert_eq!(and_weight_with(k, &a, &b), and_weight_scalar(&a, &b), "{:?}", k);
            prop_assert_eq!(or_weight_with(k, &a, &b), or_weight_scalar(&a, &b), "{:?}", k);
        }
    }

    #[test]
    fn masked_tail_kernels_match_scalar(
        bits in 1usize..3800,
        raw_a in proptest::collection::vec(any::<u64>(), 60..61),
        raw_b in proptest::collection::vec(any::<u64>(), 60..61),
    ) {
        // Slices shaped exactly like `bits`-bit vectors: `words_for(bits)`
        // words with the final word masked by `tail_mask(bits)` — the
        // invariant the matrix types maintain at their boundary. Every
        // dispatch target must agree on them.
        let nw = words_for(bits);
        let mut a = raw_a[..nw].to_vec();
        let mut b = raw_b[..nw].to_vec();
        a[nw - 1] &= tail_mask(bits);
        b[nw - 1] &= tail_mask(bits);
        for &k in available_kernels() {
            prop_assert_eq!(weight_with(k, &a), weight_scalar(&a), "{:?}", k);
            prop_assert_eq!(and_weight_with(k, &a, &b), and_weight_scalar(&a, &b), "{:?}", k);
            prop_assert_eq!(or_weight_with(k, &a, &b), or_weight_scalar(&a, &b), "{:?}", k);
        }
    }

    #[test]
    fn word_level_fusion_matches_per_bit_oracle(bitmaps in arb_bitmaps(130, 300)) {
        let fused = ColMatrix::from_router_bitmaps(&bitmaps);
        let oracle = ColMatrix::from_router_bitmaps_per_bit(&bitmaps);
        prop_assert_eq!(&fused, &oracle);
    }

    #[test]
    fn bitmap_view_agrees_with_owned_decode(
        len in 0usize..4_000,
        idxs in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        let bm = Bitmap::from_indices(len.max(1), idxs.into_iter().map(|i| i % len.max(1)));
        let bytes = bm.encode();
        let owned = Bitmap::decode(&bytes).unwrap();
        let view = BitmapView::parse(&bytes).unwrap();
        prop_assert_eq!(view.len(), owned.len());
        prop_assert_eq!(view.encoded_len(), owned.encoded_len());
        prop_assert_eq!(&view.to_bitmap(), &owned);
        for (i, &w) in owned.words().iter().enumerate() {
            prop_assert_eq!(view.word(i), w, "word {}", i);
        }
    }

    #[test]
    fn bitmap_view_errors_match_owned_decode_on_mutations(
        idxs in proptest::collection::vec(0usize..512, 0..16),
        pos in 0usize..64,
        val in any::<u8>(),
        cut_ppm in 0u32..=1_000_000,
    ) {
        // View parsing and owned decoding face the same wire: on any
        // mutated frame they must agree exactly — both Ok with equal
        // content, or the same typed error. Neither may panic.
        let bm = Bitmap::from_indices(512, idxs);
        let mut bytes = bm.encode().to_vec();
        if pos < bytes.len() {
            bytes[pos] ^= val;
        }
        let cut = (bytes.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
        let mangled = &bytes[..cut];
        match (Bitmap::decode(mangled), BitmapView::parse(mangled)) {
            (Ok(owned), Ok(view)) => prop_assert_eq!(view.to_bitmap(), owned),
            (Err(e_owned), Err(e_view)) => prop_assert_eq!(e_owned, e_view),
            (owned, view) => prop_assert!(false, "decode {:?} but view {:?}", owned.is_ok(), view.is_ok()),
        }
    }

    #[test]
    fn and_weight_each_matches_pairwise_scalar(
        ncols in 0usize..=70,
        tail_bits in 1usize..=64,
        fill in proptest::collection::vec(any::<u64>(), 71 * 40..71 * 40 + 1),
    ) {
        // Columns of 1..=40 words sit on both sides of the vector
        // threshold; the base is the first column of `fill`, and every
        // column's last word is masked like a
        // `(64 * (wpc - 1) + tail_bits)`-row matrix's.
        let mut fill = fill;
        for wpc in 1..=40 {
            let tails = fill.iter_mut().skip(wpc - 1).step_by(wpc);
            tails.for_each(|w| *w &= tail_mask(tail_bits));
            let (base, words) = fill[..(1 + ncols) * wpc].split_at(wpc);
            let want: Vec<u32> = words
                .chunks_exact(wpc)
                .map(|col| and_weight_scalar(base, col))
                .collect();
            for &k in available_kernels() {
                let mut out = vec![u32::MAX; ncols];
                and_weight_each_with(k, base, words, &mut out);
                prop_assert_eq!(&out, &want, "{:?}, {} words a column", k, wpc);
            }
        }
    }
}

#[test]
#[should_panic(expected = "`words` must hold out.len() columns of base.len() words")]
fn and_weight_each_rejects_a_ragged_run() {
    and_weight_each_into(&[1, 2], &[0; 5], &mut [0; 2]);
}

/// `nrows` seeded bitmaps of `bits` bits, each bit set with probability
/// `fill`.
fn seeded_rows(rng: &mut StdRng, nrows: usize, bits: usize, fill: f64) -> Vec<Bitmap> {
    let row = |rng: &mut StdRng| (0..bits).filter(|_| rng.gen_bool(fill)).collect::<Vec<_>>();
    (0..nrows)
        .map(|_| Bitmap::from_indices(bits, row(rng)))
        .collect()
}

/// Row counts on both sides of every plane boundary and of the 64-row
/// band, widths on both sides of every word edge (ragged tails) and one
/// past a counting block; all rows and random subsets of them.
#[test]
fn column_counts_match_the_transpose_they_replace() {
    let mut rng = StdRng::seed_from_u64(61);
    let mut counts = ColumnCounts::default();
    for nrows in [0usize, 1, 2, 3, 7, 8, 63, 64, 65, 130] {
        for bits in [1usize, 63, 64, 65, 127, 200, 513, 128 * 64 + 1] {
            let fill = [0.03, 0.5, 0.97][(nrows + bits) % 3];
            let rows = seeded_rows(&mut rng, nrows, bits, fill);
            for subset in [false, true] {
                let picks: Vec<bool> = (0..nrows).map(|_| !subset || rng.gen()).collect();
                let picked: Vec<Bitmap> = rows
                    .iter()
                    .zip(&picks)
                    .filter(|(_, &p)| p)
                    .map(|(r, _)| r.clone())
                    .collect();
                let want = if picked.is_empty() {
                    vec![0; if nrows == 0 { 0 } else { bits }]
                } else {
                    ColMatrix::from_router_bitmaps(&picked).col_weights()
                };
                counts.count(&rows, |r| picks[r], 1);
                let what = format!("{nrows} x {bits}, {} picked", picked.len());
                assert_eq!(counts.ncols(), want.len(), "{what}");
                let got: Vec<u32> = (0..want.len()).map(|j| counts.at(j)).collect();
                assert_eq!(got, want, "{what}");
                // t = 0 on a ragged tail reports every real column and no
                // phantom; t past what the planes can hold reports none.
                for t in 0..=nrows as u32 + 2 {
                    let ge: Vec<usize> = (0..want.len()).filter(|&j| want[j] >= t).collect();
                    assert_eq!(counts.count_ge(t), ge.len(), "{what}, t {t}");
                    assert_eq!(counts.iter_ge(t).collect::<Vec<_>>(), ge, "{what}, t {t}");
                }
                assert_eq!(counts.count_ge(u32::MAX), 0, "{what}");
            }
        }
    }
}

#[test]
fn column_counts_are_identical_for_any_worker_count() {
    let mut rng = StdRng::seed_from_u64(62);
    // Widths around the counting block, so block edges land both on and
    // off the final partial block.
    for (nrows, bits) in [
        (3usize, 64usize),
        (65, 127),
        (70, 128 * 64 * 3),
        (130, 128 * 64 * 5 + 513),
    ] {
        let rows = seeded_rows(&mut rng, nrows, bits, 0.5);
        let want = ColMatrix::from_router_bitmaps(&rows).col_weights();
        let mut counts = ColumnCounts::default();
        for workers in [1usize, 2, 3, 8, 10_000] {
            counts.count(&rows, |_| true, workers);
            let got: Vec<u32> = (0..bits).map(|j| counts.at(j)).collect();
            assert_eq!(got, want, "shape {nrows}x{bits} workers {workers}");
        }
    }
}

#[test]
#[should_panic(expected = "router digests must have equal width")]
fn column_counts_reject_a_mismatched_row() {
    ColumnCounts::default().count(&[Bitmap::new(8), Bitmap::new(9)], |_| true, 1);
}

#[test]
fn column_counts_reuse_their_store() {
    let mut rng = StdRng::seed_from_u64(63);
    let mut counts = ColumnCounts::default();
    counts.count(&seeded_rows(&mut rng, 24, 20_000, 0.5), |_| true, 1);
    let cap = counts.word_capacity();
    assert!(cap > 0);
    // Same shape, then fewer rows picked (fewer planes): nothing regrows.
    counts.count(&seeded_rows(&mut rng, 24, 20_000, 0.5), |_| true, 1);
    counts.count(&seeded_rows(&mut rng, 24, 20_000, 0.5), |r| r % 3 == 0, 1);
    assert_eq!(counts.word_capacity(), cap);
}
