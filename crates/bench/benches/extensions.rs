//! Benches for the extension layers: multi-pattern detection, wire
//! codecs and the baseline comparators.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dcs_aligned::{refined_detect_multi, SearchConfig};
use dcs_collect::UnalignedConfig;
use dcs_sim::aligned::planted_matrix;
use dcs_sim::baseline::{LocalPrevalenceDetector, RawAggregationDetector};
use dcs_traffic::gen::{generate_epoch, BackgroundConfig, SizeMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn multi_pattern(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let p = planted_matrix(&mut rng, 96, 600, 30, 12);
    let cfg = SearchConfig {
        hopefuls: 200,
        max_iterations: 25,
        n_prime: 120,
        gamma: 2,
        epsilon: 1e-3,
        termination: Default::default(),
    };
    c.bench_function("multi/aligned_detect_multi", |b| {
        b.iter(|| refined_detect_multi(&p.matrix, &cfg, 3).len())
    });
}

fn baselines(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let epoch = generate_epoch(
        &mut rng,
        &BackgroundConfig {
            packets: 2_000,
            flows: 400,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        },
    );
    let bytes: usize = epoch.iter().map(|p| p.wire_len()).sum();
    let mut g = c.benchmark_group("baseline");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("raw_aggregation_ingest_2k", |b| {
        b.iter(|| {
            let mut det = RawAggregationDetector::new(7);
            det.ingest(0, &epoch);
            det.table_entries()
        })
    });
    g.bench_function("local_prevalence_2k", |b| {
        b.iter(|| {
            let mut det = LocalPrevalenceDetector::new(7);
            for p in &epoch {
                det.observe(p);
            }
            det.max_prevalence()
        })
    });
    g.finish();
}

fn wire_codec(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut col = dcs_collect::UnalignedCollector::new(UnalignedConfig::small(32, 1, 2));
    for p in generate_epoch(
        &mut rng,
        &BackgroundConfig {
            packets: 4_000,
            flows: 800,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        },
    ) {
        col.observe(&p);
    }
    let digest = col.finish_epoch();
    let wire = digest.encode_wire().expect("digest fits wire format");
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("unaligned_encode", |b| {
        b.iter(|| digest.encode_wire().expect("digest fits wire format").len())
    });
    g.bench_function("unaligned_decode", |b| {
        b.iter(|| {
            dcs_collect::UnalignedDigest::decode_wire(black_box(&wire))
                .expect("roundtrip")
                .1
        })
    });
    g.finish();
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
    targets = multi_pattern, baselines, wire_codec
}
criterion_main!(benches);
