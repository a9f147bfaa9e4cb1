//! Property-based tests for the matrix types, wire format, the vector
//! popcount kernels (which must be bit-identical to their `*_scalar`
//! references for every slice length — vector body, vector remainder,
//! and masked tails alike — and count saturated slices exactly) and the
//! bit-sliced column counts (against the weights of the gathered
//! columns, from owned rows and from wire views), and the bulk word
//! reads of both row sources.

use crate::words::tests::available_kernels;
use crate::words::{
    and_weight_each_into, and_weight_each_with, and_weight_scalar, and_weight_with, tail_mask,
    weight_scalar, weight_with, words_for,
};
use crate::{Bitmap, BitmapView, ColMatrix, ColumnCounts, RowMatrix, WordSource, DIGEST_HEADER};
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
    fn every_kernel_weight_matches_scalar(words in proptest::collection::vec(any::<u64>(), 0..80)) {
        for &k in available_kernels() {
            prop_assert_eq!(weight_with(k, &words), weight_scalar(&words), "{:?}", k);
        }
    }

    #[test]
    fn every_kernel_and_weight_matches_scalar(
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..80),
    ) {
        // Lengths 0..80 cover the short-slice fallback, the vector body,
        // the vector remainder, and the empty slice.
        let (a, b): (Vec<u64>, Vec<u64>) = pairs.into_iter().unzip();
        for &k in available_kernels() {
            prop_assert_eq!(and_weight_with(k, &a, &b), and_weight_scalar(&a, &b), "{:?}", k);
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

/// All-ones slices of 0..=300 words, the last word tail-masked, through
/// every kernel and entry point. Dense words fill each byte lane of the
/// AVX2 body to 8 a vector, so the 31-vector `sad` flush is crossed at
/// its limit (248 a lane), up to two times — random words never get
/// near that. The expected count is arithmetic, not another kernel's.
#[test]
fn saturated_slices_count_every_one() {
    const COLS: usize = 3;
    for len in 0..=300usize {
        let tail_bits = 1 + len % 64;
        let mut ones = vec![u64::MAX; len];
        if let Some(last) = ones.last_mut() {
            *last &= tail_mask(tail_bits);
        }
        let want = match len {
            0 => 0,
            _ => (64 * (len - 1) + tail_bits) as u32,
        };
        let run = ones.repeat(COLS);
        for &k in available_kernels() {
            assert_eq!(weight_with(k, &ones), want, "{k:?} weight, {len} words");
            let both = and_weight_with(k, &ones, &ones);
            assert_eq!(both, want, "{k:?} and_weight, {len} words");
            let mut out = [u32::MAX; COLS];
            and_weight_each_with(k, &ones, &run, &mut out);
            assert_eq!(out, [want; COLS], "{k:?} and_weight_each_into, {len} words");
        }
    }
}

/// `nrows` seeded bitmaps of `bits` bits, each bit set with probability
/// `fill`.
fn seeded_rows(rng: &mut StdRng, nrows: usize, bits: usize, fill: f64) -> Vec<Bitmap> {
    let row = |rng: &mut StdRng| (0..bits).filter(|_| rng.gen_bool(fill)).collect::<Vec<_>>();
    (0..nrows)
        .map(|_| Bitmap::from_indices(bits, row(rng)))
        .collect()
}

/// Each row's encoded frame behind a 4-byte prefix and before a 3-byte
/// suffix: the words start at an odd byte offset of a larger buffer, as
/// they do inside a DCSR frame.
fn framed(rows: &[Bitmap]) -> Vec<Vec<u8>> {
    rows.iter()
        .map(|r| [&[0xA5; 4][..], &r.encode(), &[0x5A; 3]].concat())
        .collect()
}

/// The views over the words of [`framed`] rows of `bits` bits.
fn views(frames: &[Vec<u8>], bits: usize) -> Vec<BitmapView<'_>> {
    frames
        .iter()
        .map(|f| BitmapView::new(bits, &f[4 + DIGEST_HEADER..f.len() - 3]).unwrap())
        .collect()
}

/// Checks `counts` against the column weights `want`: every count, and
/// the columns at or above and at exactly each threshold. t = 0 on a
/// ragged tail reports every real column and no phantom; t past what the
/// planes can hold reports none.
fn assert_counts(counts: &ColumnCounts, want: &[u32], what: &str) {
    assert_eq!(counts.ncols(), want.len(), "{what}");
    let got: Vec<u32> = (0..want.len()).map(|j| counts.at(j)).collect();
    assert_eq!(got, want, "{what}");
    for t in 0..=counts.rows() as u32 + 2 {
        let ge: Vec<usize> = (0..want.len()).filter(|&j| want[j] >= t).collect();
        let eq: Vec<usize> = (0..want.len()).filter(|&j| want[j] == t).collect();
        assert_eq!(counts.count_ge(t), ge.len(), "{what}, t {t}");
        assert_eq!(counts.iter_ge(t).collect::<Vec<_>>(), ge, "{what}, t {t}");
        assert_eq!(counts.iter_eq(t).collect::<Vec<_>>(), eq, "{what}, t {t}");
    }
    assert_eq!(counts.count_ge(u32::MAX), 0, "{what}");
    assert_eq!(counts.iter_eq(u32::MAX).count(), 0, "{what}");
}

/// Row counts on both sides of every plane boundary and of the 64-row
/// band, widths on both sides of every word edge (ragged tails) and one
/// past a counting block, plus two multi-block widths whose last block
/// is whole and partial; all rows and random subsets of them, counted
/// from owned bitmaps and from views at an odd byte offset.
#[test]
fn column_counts_match_the_gathered_column_weights() {
    let mut rng = StdRng::seed_from_u64(61);
    let mut counts = ColumnCounts::default();
    let grid = [0usize, 1, 2, 3, 7, 8, 63, 64, 65, 130]
        .into_iter()
        .flat_map(|nrows| {
            [1usize, 63, 64, 65, 127, 200, 513, 128 * 64 + 1].map(|bits| (nrows, bits))
        });
    let multi_block = [(70, 128 * 64 * 3), (130, 128 * 64 * 5 + 513)];
    for (nrows, bits) in grid.chain(multi_block) {
        let fill = [0.03, 0.5, 0.97][(nrows + bits) % 3];
        let rows = seeded_rows(&mut rng, nrows, bits, fill);
        let frames = framed(&rows);
        let views = views(&frames, bits);
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
            let what = format!("{nrows} x {bits}, {} picked", picked.len());
            counts.count(&rows, |r| picks[r]);
            assert_counts(&counts, &want, &what);
            counts.count(&views, |r| picks[r]);
            assert_counts(&counts, &want, &format!("{what}, views"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A bulk read returns what a loop of `word` returns, on owned
    /// bitmaps and on views at an odd byte offset, over any run.
    #[test]
    fn read_words_equals_a_loop_of_word(
        bits in 0usize..3_000,
        idxs in proptest::collection::vec(any::<usize>(), 0..200),
        run in (any::<usize>(), any::<usize>()),
    ) {
        let bm = Bitmap::from_indices(bits, idxs.into_iter().filter(|_| bits > 0).map(|i| i % bits));
        let frames = framed(std::slice::from_ref(&bm));
        let view = views(&frames, bits)[0];
        let words = words_for(bits);
        let first = run.0 % (words + 1);
        let len = run.1 % (words - first + 1);
        let want: Vec<u64> = (first..first + len).map(|i| bm.word(i)).collect();
        let mut out = vec![u64::MAX; len];
        bm.read_words(first, &mut out);
        prop_assert_eq!(&out, &want, "owned, words {}..{}", first, first + len);
        out.fill(u64::MAX);
        view.read_words(first, &mut out);
        prop_assert_eq!(&out, &want, "view, words {}..{}", first, first + len);
        let loop_of_word: Vec<u64> = (first..first + len).map(|i| view.word(i)).collect();
        prop_assert_eq!(&loop_of_word, &want, "view words");
    }
}

#[test]
#[should_panic(expected = "router digests must have equal width")]
fn column_counts_reject_a_mismatched_row() {
    ColumnCounts::default().count(&[Bitmap::new(8), Bitmap::new(9)], |_| true);
}

#[test]
fn column_counts_reuse_their_store() {
    let mut rng = StdRng::seed_from_u64(63);
    let mut counts = ColumnCounts::default();
    counts.count(&seeded_rows(&mut rng, 24, 20_000, 0.5), |_| true);
    let cap = (counts.word_capacity(), counts.table_capacity());
    assert!(cap.0 > 0 && cap.1 > 0);
    // Same shape, then fewer rows picked (fewer planes, a shorter table
    // a block): nothing regrows, and the table of a refill is the
    // refill's.
    for pick in [|_| true, |r| r % 3 == 0] {
        let rows = seeded_rows(&mut rng, 24, 20_000, 0.5);
        counts.count(&rows, pick);
        let picked: Vec<Bitmap> = (0..rows.len())
            .filter(|&r| pick(r))
            .map(|r| rows[r].clone())
            .collect();
        let want = ColMatrix::from_router_bitmaps(&picked).col_weights();
        assert_counts(&counts, &want, &format!("refill of {} rows", picked.len()));
        assert_eq!((counts.word_capacity(), counts.table_capacity()), cap);
    }
}
