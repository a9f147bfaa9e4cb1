//! One Criterion bench per paper table/figure: times the computation each
//! `repro_*` binary performs (at a reduced scale where a single trial at
//! paper scale would dominate `cargo bench` wall-clock). The accuracy
//! numbers themselves come from the binaries; these benches track the
//! cost of regenerating them.

use criterion::{criterion_group, criterion_main, Criterion};
use dcs_aligned::thresholds::{detectable_min_b, non_natural_min_b, DetectableParams};
use dcs_aligned::{refined_detect, SearchConfig};
use dcs_sim::aligned::screened_planted_matrix;
use dcs_sim::stress::{run_stress, StressConfig};
use dcs_sim::unaligned::{core_finding_stats, largest_component_samples, p2_for};
use dcs_unaligned::thresholds::{cluster_threshold_cotuned, default_p1_grid};
use dcs_unaligned::CoreFindConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn search_cfg() -> SearchConfig {
    SearchConfig {
        hopefuls: 300,
        max_iterations: 30,
        n_prime: 0,
        gamma: 2,
        epsilon: 1e-3,
        termination: Default::default(),
    }
}

fn fig07_weight_curve(c: &mut Criterion) {
    c.bench_function("fig07/weight_curve_trial", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let sm = screened_planted_matrix(&mut rng, 500, 1_000_000, 60, 30, 1_000);
            let mut cfg = search_cfg();
            cfg.n_prime = sm.matrix.ncols();
            refined_detect(&sm.matrix, &cfg).weight_curve.len()
        })
    });
}

fn fig11_detection_trial(c: &mut Criterion) {
    c.bench_function("fig11/detection_trial", |b| {
        let mut seed = 100u64;
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            let sm = screened_planted_matrix(&mut rng, 500, 1_000_000, 50, 25, 1_000);
            let mut cfg = search_cfg();
            cfg.n_prime = sm.matrix.ncols();
            refined_detect(&sm.matrix, &cfg).found
        })
    });
}

fn fig12_threshold_curves(c: &mut Criterion) {
    c.bench_function("fig12/both_curves_10pts", |b| {
        let p = DetectableParams::paper_default();
        b.iter(|| {
            let mut acc = 0u64;
            for a in (20..=110).step_by(10) {
                acc += non_natural_min_b(p.m, p.n, a, p.epsilon, 10_000).unwrap_or(0);
                acc += detectable_min_b(p, a, 0.95, 10_000).unwrap_or(0);
            }
            acc
        })
    });
}

fn fig13_er_trial(c: &mut Criterion) {
    c.bench_function("fig13/er_trial_paper_n", |b| {
        let p1 = 0.65e-5;
        let p2 = p2_for(100, p1);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            largest_component_samples(seed, 102_400, p1, 130, p2, 1).max()
        })
    });
}

fn table1_core_trial(c: &mut Criterion) {
    c.bench_function("table1/core_trial_paper_n", |b| {
        let n = 102_400;
        let p1 = 2.0 / n as f64;
        let p2 = p2_for(100, p1);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            core_finding_stats(seed, n, p1, 300, p2, CoreFindConfig { beta: 50, d: 2 }, 1)
                .avg_core_size
        })
    });
}

fn table2_cotuning(c: &mut Criterion) {
    c.bench_function("table2/cotuned_threshold_g100", |b| {
        let grid = default_p1_grid(102_400);
        b.iter(|| {
            cluster_threshold_cotuned(102_400, 100, 100, &grid, 1e-10, 0.95, 2_000).map(|t| t.m)
        })
    });
}

fn table3_detectable_probe(c: &mut Criterion) {
    c.bench_function("table3/reliability_probe", |b| {
        let n = 102_400;
        let p1 = 2.0 / n as f64;
        let p2 = p2_for(125, p1);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            core_finding_stats(seed, n, p1, 200, p2, CoreFindConfig { beta: 40, d: 2 }, 1)
                .avg_false_positive
        })
    });
}

fn stress_pipeline(c: &mut Criterion) {
    c.bench_function("stress/pipeline_small", |b| {
        let mut cfg = StressConfig::small();
        cfg.segments = 16;
        cfg.n1 = 10;
        cfg.packets_per_segment = 16 * 400;
        cfg.detect_p1 = 2.0 / (16.0 * 16.0);
        cfg.corefind = CoreFindConfig { beta: 8, d: 2 };
        cfg.threads = 4;
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut c2 = cfg.clone();
            c2.seed = seed;
            run_stress(&c2).recall
        })
    });
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
    targets = fig07_weight_curve, fig11_detection_trial, fig12_threshold_curves,
              fig13_er_trial, table1_core_trial, table2_cotuning,
              table3_detectable_probe, stress_pipeline
}
criterion_main!(benches);
