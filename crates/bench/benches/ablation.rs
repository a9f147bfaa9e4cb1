//! Performance ablations: the complexity-management options of paper
//! Section IV-D (serial vs parallel vs sampled correlation), bucket-queue
//! vs naive peeling, and hopefuls-list sizing in the aligned search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcs_aligned::{refined_detect, SearchConfig};
use dcs_bitmap::{Bitmap, RowMatrix};
use dcs_graph::er::{gnp_planted, PlantedConfig};
use dcs_graph::peel::{peel_to_size, peel_to_size_naive};
use dcs_sim::aligned::planted_matrix;
use dcs_unaligned::graphbuild::build_group_graph_sampled;
use dcs_unaligned::{build_group_graph, build_group_graph_parallel, GroupLayout, LambdaTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn correlation_variants(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    // 200 groups x 10 rows of 1024 bits at ~44% fill.
    let mut m = RowMatrix::new(1024);
    for _ in 0..2_000 {
        let bm = Bitmap::from_indices(1024, (0..450).map(|_| rng.gen_range(0..1024)));
        m.push_bitmap(&bm);
    }
    let layout = GroupLayout { rows_per_group: 10 };
    let table = LambdaTable::new(1024, 1e-6);
    // Fill the λ table so all variants measure the sweep, not quantiles.
    build_group_graph(&m, layout, &table);

    let mut g = c.benchmark_group("correlation_200groups");
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter(|| build_group_graph(&m, layout, &table).m())
    });
    for threads in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &t| {
            b.iter(|| build_group_graph_parallel(&m, layout, &table, t).0.m())
        });
    }
    g.bench_function("sampled_div10", |b| {
        b.iter(|| build_group_graph_sampled(&m, layout, &table, 10).0.m())
    });
    g.finish();
}

fn peeling_variants(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let (g, _) = gnp_planted(
        &mut rng,
        PlantedConfig {
            n: 5_000,
            p1: 2.0 / 5_000.0,
            n1: 80,
            p2: 0.2,
        },
    );
    let mut grp = c.benchmark_group("peeling_5k");
    grp.sample_size(10);
    grp.bench_function("bucket_queue", |b| b.iter(|| peel_to_size(&g, 50).len()));
    grp.bench_function("naive_rescan", |b| {
        b.iter(|| peel_to_size_naive(&g, 50).len())
    });
    grp.finish();
}

fn hopefuls_sizing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let p = planted_matrix(&mut rng, 96, 800, 30, 12);
    let mut grp = c.benchmark_group("aligned_hopefuls");
    grp.sample_size(10);
    for hopefuls in [100usize, 400, 1600] {
        grp.bench_with_input(BenchmarkId::from_parameter(hopefuls), &hopefuls, |b, &h| {
            let cfg = SearchConfig {
                hopefuls: h,
                max_iterations: 25,
                n_prime: 120,
                gamma: 2,
                epsilon: 1e-3,
                termination: Default::default(),
            };
            b.iter(|| refined_detect(&p.matrix, &cfg).found)
        });
    }
    grp.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = correlation_variants, peeling_variants, hopefuls_sizing
}
criterion_main!(benches);
