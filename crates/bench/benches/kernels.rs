//! Microbenchmarks of the hot kernels: word AND/popcount, row
//! correlation, collectors at line rate, Rabin fingerprinting, the
//! transport CRC, the bit-sliced column counts and the n′ screen over
//! them, the aligned product search, ER generation and peeling.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dcs_aligned::search::screen;
use dcs_aligned::{refined_detect_cached, SearchConfig, SearchScratch};
use dcs_bitmap::{words, Bitmap, ColumnCounts, RowMatrix};
use dcs_collect::{AlignedCollector, AlignedConfig, UnalignedCollector, UnalignedConfig};
use dcs_graph::er::gnp;
use dcs_graph::peel::peel_to_size;
use dcs_hash::{crc32, IndexHasher, RabinFingerprinter, RollingRabin, DEFAULT_POLY};
use dcs_traffic::{gen, BackgroundConfig, SizeMix};
use dcs_unaligned::LambdaTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_words(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    // Scalar vs runtime-dispatched kernels at the aligned column size
    // (16 words = 1000 routers) and at a size where blocking matters
    // (4096 words).
    for nw in [16usize, 4096] {
        let a: Vec<u64> = (0..nw).map(|_| rng.gen()).collect();
        let b: Vec<u64> = (0..nw).map(|_| rng.gen()).collect();
        let mut g = c.benchmark_group("words");
        g.throughput(Throughput::Bytes((nw * 8) as u64));
        g.bench_function(format!("weight_scalar_{nw}w"), |bch| {
            bch.iter(|| words::weight_scalar(black_box(&a)))
        });
        g.bench_function(format!("weight_dispatched_{nw}w"), |bch| {
            bch.iter(|| words::weight(black_box(&a)))
        });
        g.bench_function(format!("and_weight_scalar_{nw}w"), |bch| {
            bch.iter(|| words::and_weight_scalar(black_box(&a), black_box(&b)))
        });
        g.bench_function(format!("and_weight_dispatched_{nw}w"), |bch| {
            bch.iter(|| words::and_weight(black_box(&a), black_box(&b)))
        });
        g.finish();
    }

    // One base against a run of contiguous columns — the access pattern of
    // the aligned search's fan-outs (a thousand screened columns) and of
    // its expansion sweep (every column) — at 24, 100 and 1,000 routers,
    // batched kernel against a pairwise scalar loop.
    for (wpc, ncols) in [
        (1usize, 1_000usize),
        (1, 1 << 20),
        (2, 1_000),
        (2, 1 << 20),
        (16, 1_000),
        (16, 1 << 16),
    ] {
        let base: Vec<u64> = (0..wpc).map(|_| rng.gen()).collect();
        let cols: Vec<u64> = (0..wpc * ncols).map(|_| rng.gen()).collect();
        let mut out = vec![0u32; ncols];
        let mut g = c.benchmark_group("and_weight_each");
        g.throughput(Throughput::Bytes((wpc * 8 * ncols) as u64));
        g.bench_function(format!("pairwise_scalar_{wpc}w_x{ncols}"), |bch| {
            bch.iter(|| {
                for (o, col) in out.iter_mut().zip(cols.chunks_exact(wpc)) {
                    *o = words::and_weight_scalar(black_box(&base), col);
                }
                out[ncols - 1]
            })
        });
        g.bench_function(format!("batched_{wpc}w_x{ncols}"), |bch| {
            bch.iter(|| {
                words::and_weight_each_into(black_box(&base), black_box(&cols), &mut out);
                out[ncols - 1]
            })
        });
        g.finish();
    }

    // 1024-bit rows — the unaligned case's unit of work.
    let r1 = Bitmap::from_indices(1024, (0..512).map(|i| i * 2));
    let r2 = Bitmap::from_indices(1024, (0..512).map(|i| i * 2 + 1));
    c.bench_function("words/common_ones_1024b", |bch| {
        bch.iter(|| black_box(&r1).common_ones(black_box(&r2)))
    });

    // The λ threshold that popcount is compared against: an indexed load
    // once the cell is filled, a hypergeometric quantile the first time.
    // Both walk `i` in 384..512 against `j` in 512..640 — 16,384 distinct
    // unordered pairs around the half-full row.
    const BAND: u32 = 128;
    let pair = |n: u32| (384 + n / BAND % BAND, 512 + n % BAND);
    let warm = LambdaTable::new(1024, 1e-7);
    for n in 0..BAND * BAND {
        let (i, j) = pair(n);
        warm.lambda(i, j);
    }
    let mut n = 0u32;
    c.bench_function("words/lambda_hit", |bch| {
        bch.iter(|| {
            n = n.wrapping_add(1);
            let (i, j) = pair(n);
            warm.row(black_box(i)).get(black_box(j))
        })
    });
    // A fresh table every 16,384 lookups keeps every lookup a miss; its
    // construction is amortised to under a nanosecond a lookup.
    let mut cold = LambdaTable::new(1024, 1e-7);
    let mut n = 0u32;
    c.bench_function("words/lambda_miss", |bch| {
        bch.iter(|| {
            if n == BAND * BAND {
                cold = LambdaTable::new(1024, 1e-7);
                n = 0;
            }
            let (i, j) = pair(n);
            n += 1;
            cold.lambda(black_box(i), black_box(j))
        })
    });
}

fn bench_row_sweep(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut m = RowMatrix::new(1024);
    for _ in 0..400 {
        let bm = Bitmap::from_indices(1024, (0..450).map(|_| rng.gen_range(0..1024)));
        m.push_bitmap(&bm);
    }
    c.bench_function("analysis/pairwise_400rows", |bch| {
        bch.iter(|| {
            let mut acc = 0u64;
            for i in 0..m.nrows() {
                for j in (i + 1)..m.nrows() {
                    acc += u64::from(m.common_ones(i, j));
                }
            }
            acc
        })
    });
}

fn bench_collectors(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let epoch = gen::generate_epoch(
        &mut rng,
        &BackgroundConfig {
            packets: 2_000,
            flows: 400,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        },
    );
    let bytes: usize = epoch.iter().map(|p| p.wire_len()).sum();
    let mut g = c.benchmark_group("collectors");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("aligned_observe_2k_pkts", |bch| {
        bch.iter(|| {
            let mut col = AlignedCollector::new(AlignedConfig::small(1 << 20, 1));
            for p in &epoch {
                col.observe(p);
            }
            col.finish_epoch().bitmap.weight()
        })
    });
    g.bench_function("unaligned_observe_2k_pkts", |bch| {
        bch.iter(|| {
            let mut col = UnalignedCollector::new(UnalignedConfig::small(128, 1, 2));
            for p in &epoch {
                col.observe(p);
            }
            col.finish_epoch().packets_sampled
        })
    });
    g.finish();
}

fn bench_hashing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut payload = vec![0u8; 536];
    rng.fill(payload.as_mut_slice());
    let fp = RabinFingerprinter::new(DEFAULT_POLY);
    let idx = IndexHasher::new(7);
    let mut g = c.benchmark_group("hashing");
    g.throughput(Throughput::Bytes(536));
    g.bench_function("rabin_536B", |bch| {
        bch.iter(|| fp.fingerprint(black_box(&payload)))
    });
    g.bench_function("index_hash_536B", |bch| {
        bch.iter(|| idx.index(black_box(&payload), 1 << 22))
    });
    g.bench_function("rolling_rabin_536B_w16", |bch| {
        bch.iter(|| RollingRabin::windows_of(DEFAULT_POLY, 16, black_box(&payload)).len())
    });
    g.finish();
}

/// CRC-32 at the sizes the transport checksums: a datagram chunk, a
/// stream chunk and a whole digest (checkpoints, aggregate bundles).
fn bench_crc32(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut buf = vec![0u8; 1 << 20];
    rng.fill(buf.as_mut_slice());
    for (name, len) in [("1367B", 1_367), ("16KiB", 16 << 10), ("1MiB", 1 << 20)] {
        let mut g = c.benchmark_group("crc32");
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(name, |bch| bch.iter(|| crc32(black_box(&buf[..len]))));
        g.finish();
    }
}

/// `nrows` seeded router bitmaps of `bits` bits (a multiple of 64), each
/// bit set with probability 2^-`halvings`.
fn row_stack(rng: &mut StdRng, nrows: usize, bits: usize, halvings: u32) -> Vec<Bitmap> {
    let word = |rng: &mut StdRng| (0..halvings).fold(u64::MAX, |w, _| w & rng.gen::<u64>());
    (0..nrows)
        .map(|_| Bitmap::from_words(bits, (0..bits / 64).map(|_| word(rng)).collect()))
        .collect()
}

/// What the centre does to every epoch's row stack before the product
/// search: the count pass (the `fuse` stage; the expansion sweep is the
/// same pass over the core's rows) and the n′ screen over the counts —
/// on a sparse two-router epoch (almost every column weighs 0), the
/// paper's half-full 24 routers (25 weights, the cut inside a tie of
/// tens of thousands), and stacks of 2 and 16 words a column.
fn bench_column_counts(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut g = c.benchmark_group("column_counts");
    for (name, nrows, bits, halvings) in [
        ("2x4Mi_sparse", 2, 4 << 20, 4),
        ("24x1Mi_half_full", 24, 1 << 20, 1),
        ("100x256Ki", 100, 1 << 18, 1),
        ("1000x64Ki", 1_000, 1 << 16, 1),
    ] {
        let rows = row_stack(&mut rng, nrows, bits, halvings);
        let mut counts = ColumnCounts::default();
        g.bench_function(format!("{name}_count"), |bch| {
            bch.iter(|| counts.count(black_box(&rows), |_| true))
        });
        let mut order = Vec::new();
        g.bench_function(format!("{name}_screen_n1000"), |bch| {
            bch.iter(|| {
                screen(black_box(&counts), 1_000, &mut order);
                order.len()
            })
        });
    }
    g.finish();
}

/// The whole refined detection (count, screen, product search, expansion
/// sweep) where the search's inner loops dominate: the paper's half-full
/// 24 routers at a quarter of and at its full width, 12 routers where
/// every candidate ties at the hopefuls bar, and a sparse epoch whose
/// products weigh 0–3.
fn bench_product_search(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let mut g = c.benchmark_group("product_search");
    for (name, nrows, bits, halvings, n_prime, hopefuls) in [
        ("24x1Mi_half_full", 24, 1 << 20, 1, 1_000, 250),
        ("24x4Mi_half_full_n4000", 24, 4 << 20, 1, 4_000, 1_000),
        ("12x1Mi_half_full", 12, 1 << 20, 1, 1_000, 250),
        ("24x256Ki_sparse", 24, 1 << 18, 8, 400, 300),
    ] {
        let rows = row_stack(&mut rng, nrows, bits, halvings);
        let cfg = SearchConfig {
            n_prime,
            hopefuls,
            ..SearchConfig::default()
        };
        let mut scratch = SearchScratch::new();
        g.bench_function(name, |bch| {
            bch.iter(|| {
                refined_detect_cached(black_box(&rows), &cfg, &mut scratch)
                    .0
                    .weight_curve
                    .len()
            })
        });
    }
    g.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    c.bench_function("graph/gnp_100k_subcritical", |bch| {
        bch.iter(|| gnp(&mut rng, 102_400, 0.65e-5).m())
    });
    let g = gnp(&mut rng, 102_400, 2.0 / 102_400.0);
    c.bench_function("graph/peel_100k_to_50", |bch| {
        bch.iter(|| peel_to_size(black_box(&g), 50).len())
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_words, bench_row_sweep, bench_collectors, bench_hashing, bench_crc32,
        bench_column_counts, bench_product_search, bench_graph
}
criterion_main!(benches);
