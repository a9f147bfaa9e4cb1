//! Streaming epoch-pipeline measurements: the retained baseline (owned
//! wire decode + per-bit fusion + uncached search, what the centre ran
//! before the zero-copy path landed) against the fused pipeline
//! (validate-then-view frames, word-level transpose fusion with
//! incremental column weights, scratch-cached search) — under the
//! dispatched kernel and under `DCS_FORCE_SCALAR`-equivalent forcing, and
//! cold versus steady-state scratch. Emits `BENCH_pipeline.json` so the
//! numbers (and the hardware they came from) are versioned alongside the
//! code.
//!
//! Honours `DCS_SCALE=quick` for a fast smoke pass.

use dcs_aligned::{refined_detect, refined_detect_cached, SearchScratch};
use dcs_bench::{banner, repro_search_config, write_report, BenchError, RunScale, StageGauges};
use dcs_bitmap::words::{active_kernel, force_kernel};
use dcs_bitmap::{Bitmap, ColMatrix, Kernel};
use dcs_collect::{AlignedDigest, UnalignedDigest};
use dcs_core::center::{AnalysisCenter, AnalysisConfig};
use dcs_core::ingest;
use dcs_core::{
    CollectedEpoch, EpochInput, EpochPipeline, MetricsSnapshot, PipelineConfig, RouterDigest,
    RouterDigestView,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::time::Instant;

/// Deployment shape of one synthetic epoch.
#[derive(Clone, Copy, serde::Serialize)]
struct Shape {
    routers: usize,
    infected: usize,
    aligned_bits: usize,
    common_packets: usize,
    groups_per_router: usize,
    arrays_per_group: usize,
    array_bits: usize,
}

/// Stage breakdown of one aligned ingest-to-verdict pass, ns per epoch.
#[derive(Clone, Copy, serde::Serialize)]
struct StageNs {
    /// Wire decode (or parse) + batch validation.
    ingest_ns: f64,
    /// Digest fusion into the m×n column matrix.
    fuse_ns: f64,
    /// Column weights + screening + product search + verdict.
    search_ns: f64,
    total_ns: f64,
}

#[derive(serde::Serialize)]
struct Variant {
    name: String,
    kernel: String,
    /// Worker threads the variant's compute budget was allowed.
    threads: usize,
    /// Column-range shards the fusion/search stages were split into.
    shards: usize,
    stages: StageNs,
    speedup_vs_baseline: f64,
}

#[derive(serde::Serialize)]
struct Report {
    generator: String,
    cpus_available: usize,
    cpu_model: String,
    kernel_detected: String,
    scale: String,
    note: String,
    shape: Shape,
    variants: Vec<Variant>,
    /// The centre's stage gauges after a full epoch of bare frames on a
    /// fresh centre (first epoch allocates the scratch)…
    epoch_timings_cold: EpochNs,
    /// …and on the same centre at steady state (scratch reused).
    epoch_timings_steady: EpochNs,
    /// Per-stage breakdown of the centre's final sampled epoch — all
    /// ten stages of both pipelines, from the metrics registry.
    center_stage_ns: StageGauges,
    /// The centre's full metrics snapshot after the sampled epochs
    /// (cumulative histograms/counters; gauges hold the last epoch).
    metrics: MetricsSnapshot,
    headline_speedup: f64,
}

/// One analysed epoch as the centre's registry timed it.
#[derive(Clone, Copy, serde::Serialize)]
struct EpochNs {
    total_ns: u64,
    stages: StageGauges,
}

/// Analyses `frames` as one epoch of bare leaf frames and reads back the
/// registry's timings of it.
fn timed_epoch(center: &AnalysisCenter, frames: &[Vec<u8>]) -> EpochNs {
    center
        .analyze_epoch_collected(&CollectedEpoch::from_frames(frames.iter().cloned()))
        .expect("clean frames form a quorum");
    let snap = center.metrics();
    EpochNs {
        total_ns: snap.gauge("epoch_total_ns").unwrap_or(0),
        stages: StageGauges::from_snapshot(&snap),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A random bitmap with P(bit) = 2^-fill_shift, planted with `common`.
fn random_bitmap(rng: &mut StdRng, bits: usize, fill_shift: u32, common: &[usize]) -> Bitmap {
    let words = bits.div_ceil(64);
    let mut data: Vec<u64> = (0..words)
        .map(|_| (0..fill_shift).fold(u64::MAX, |acc, _| acc & rng.gen::<u64>()))
        .collect();
    if let Some(last) = data.last_mut() {
        *last &= dcs_bitmap::words::tail_mask(bits);
    }
    let mut bm = Bitmap::from_words(bits, data);
    for &i in common {
        bm.set(i);
    }
    bm
}

/// One epoch of synthetic digest bundles at paper-like fill: the first
/// `infected` routers share `common_packets` aligned columns on a ~50%
/// random background.
fn synth_epoch(rng: &mut StdRng, shape: &Shape) -> Vec<RouterDigest> {
    let common: Vec<usize> = (0..shape.common_packets)
        .map(|_| rng.gen_range(0..shape.aligned_bits))
        .collect();
    (0..shape.routers)
        .map(|id| {
            let planted = if id < shape.infected {
                &common[..]
            } else {
                &[]
            };
            let aligned = AlignedDigest {
                bitmap: random_bitmap(rng, shape.aligned_bits, 1, planted),
                packets_seen: 1_000_000,
                packets_hashed: 1_000_000,
                raw_bytes: 1_000_000_000,
            };
            let arrays = (0..shape.groups_per_router * shape.arrays_per_group)
                .map(|_| random_bitmap(rng, shape.array_bits, 3, &[]))
                .collect();
            RouterDigest {
                router_id: id,
                epoch_id: 0,
                aligned,
                artifacts: Vec::new(),
                unaligned: UnalignedDigest {
                    arrays,
                    arrays_per_group: shape.arrays_per_group,
                    packets_seen: 1_000_000,
                    packets_sampled: 500_000,
                    raw_bytes: 1_000_000_000,
                },
            }
        })
        .collect()
}

/// The retained baseline: what the centre's aligned half did before the
/// zero-copy pipeline — owned decode of every frame, owned
/// validation, per-bit fusion of cloned bitmaps, and the uncached search
/// (fresh screen + weight pass + allocations every epoch).
fn baseline_epoch(
    frames: &[Vec<u8>],
    cfg: &dcs_aligned::SearchConfig,
) -> (dcs_aligned::AlignedDetection, StageNs) {
    let t0 = Instant::now();
    let accepted: Vec<RouterDigest> = frames
        .iter()
        .map(|f| RouterDigest::decode_wire(f).expect("clean frame").0)
        .collect();
    let views = frames
        .iter()
        .map(|f| RouterDigestView::parse(f).expect("clean frame").0)
        .enumerate()
        .collect();
    let (validated, _) =
        ingest::validate_batch(frames.len(), views, Vec::new(), 1).expect("quorum");
    assert_eq!(validated.len(), accepted.len(), "clean frames all validate");
    let ingest_ns = t0.elapsed().as_nanos() as f64;

    let t1 = Instant::now();
    let nrows = accepted.len();
    let ncols = accepted[0].aligned.bitmap.len();
    let mut matrix = ColMatrix::new(nrows, ncols);
    for (r, d) in accepted.iter().enumerate() {
        for j in d.aligned.bitmap.iter_ones() {
            matrix.set(r, j);
        }
    }
    let fuse_ns = t1.elapsed().as_nanos() as f64;

    let t2 = Instant::now();
    let det = refined_detect(&matrix, cfg);
    let search_ns = t2.elapsed().as_nanos() as f64;
    let stages = StageNs {
        ingest_ns,
        fuse_ns,
        search_ns,
        total_ns: t0.elapsed().as_nanos() as f64,
    };
    (det, stages)
}

/// The fused pipeline: validate-then-view every frame, transpose-fuse the
/// borrowed bitmaps straight into the reused matrix (incremental column
/// weights), run the scratch-cached search.
fn fused_epoch(
    frames: &[Vec<u8>],
    cfg: &dcs_aligned::SearchConfig,
    matrix: &mut ColMatrix,
    weights: &mut Vec<u32>,
    scratch: &mut SearchScratch,
) -> (dcs_aligned::AlignedDetection, StageNs) {
    let t0 = Instant::now();
    let views: Vec<(usize, RouterDigestView<'_>)> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| (i, RouterDigestView::parse(f).expect("clean frame").0))
        .collect();
    let (accepted, _) = ingest::validate_batch(frames.len(), views, Vec::new(), 1).expect("quorum");
    let ingest_ns = t0.elapsed().as_nanos() as f64;

    let t1 = Instant::now();
    let rows: Vec<_> = accepted.iter().map(|v| v.aligned.bitmap).collect();
    let shards = cfg.compute.effective_shards();
    matrix.fuse_rows_into_sharded(&rows, weights, shards, cfg.compute.workers_for(shards));
    let fuse_ns = t1.elapsed().as_nanos() as f64;

    let t2 = Instant::now();
    let (det, _, _) = refined_detect_cached(matrix, weights, cfg, scratch);
    let search_ns = t2.elapsed().as_nanos() as f64;
    let stages = StageNs {
        ingest_ns,
        fuse_ns,
        search_ns,
        total_ns: t0.elapsed().as_nanos() as f64,
    };
    (det, stages)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), BenchError> {
    let scale = RunScale::from_env(1);
    banner(
        "streaming epoch-pipeline measurements",
        "implementation study (no paper figure): zero-copy wire fusion vs owned decode + per-bit fusion",
    );
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut rng = StdRng::seed_from_u64(0xD1DE57);

    let shape = if scale.quick {
        Shape {
            routers: 16,
            infected: 12,
            aligned_bits: 1 << 18,
            common_packets: 120,
            groups_per_router: 4,
            arrays_per_group: 4,
            array_bits: 1024,
        }
    } else {
        // The paper's analysis-centre scale: 4 Mbit digests from two
        // dozen monitored links.
        Shape {
            routers: 24,
            infected: 16,
            aligned_bits: 4 << 20,
            common_packets: 200,
            groups_per_router: 4,
            arrays_per_group: 4,
            array_bits: 1024,
        }
    };
    let digests = synth_epoch(&mut rng, &shape);
    let frames: Vec<Vec<u8>> = digests
        .iter()
        .map(|d| d.encode_wire().expect("frame fits").to_vec())
        .collect();
    let mut cfg = repro_search_config();
    cfg.n_prime = 1_000.min(shape.aligned_bits);
    cfg.compute = dcs_parallel::ComputeBudget::sequential();

    let samples = if scale.quick { 3 } else { 5 };
    let kernel_detected = format!("{:?}", active_kernel());
    let mut variants: Vec<Variant> = Vec::new();
    let mut baseline_total = f64::NAN;

    for (name, kernel) in [
        ("dispatched", None),
        ("forced_scalar", Some(Kernel::Scalar)),
    ] {
        force_kernel(kernel);
        let kernel_name = format!("{:?}", active_kernel());

        // Baseline: fresh matrices and uncached search every epoch. First
        // call warms the page cache; stage minima over the sampled runs.
        let (base_det, _) = baseline_epoch(&frames, &cfg);
        let mut base_stages = StageNs {
            ingest_ns: f64::INFINITY,
            fuse_ns: f64::INFINITY,
            search_ns: f64::INFINITY,
            total_ns: f64::INFINITY,
        };
        for _ in 0..samples {
            let (det, st) = baseline_epoch(&frames, &cfg);
            std::hint::black_box(det.found);
            base_stages.ingest_ns = base_stages.ingest_ns.min(st.ingest_ns);
            base_stages.fuse_ns = base_stages.fuse_ns.min(st.fuse_ns);
            base_stages.search_ns = base_stages.search_ns.min(st.search_ns);
            base_stages.total_ns = base_stages.total_ns.min(st.total_ns);
        }
        if name == "dispatched" {
            baseline_total = base_stages.total_ns;
        }
        variants.push(Variant {
            name: format!("baseline_owned_perbit_{name}"),
            kernel: kernel_name.clone(),
            threads: 1,
            shards: 1,
            stages: base_stages,
            speedup_vs_baseline: baseline_total / base_stages.total_ns,
        });

        // Fused: warm the scratch once (cold epoch), then steady state.
        let mut matrix = ColMatrix::new(0, 0);
        let mut weights = Vec::new();
        let mut scratch = SearchScratch::new();
        let cold = Instant::now();
        let (fused_det, _) = fused_epoch(&frames, &cfg, &mut matrix, &mut weights, &mut scratch);
        let cold_ns = cold.elapsed().as_nanos() as f64;
        assert_eq!(
            fused_det.rows, base_det.rows,
            "{name}: fused pipeline diverged from baseline (rows)"
        );
        assert_eq!(
            fused_det.cols, base_det.cols,
            "{name}: fused pipeline diverged from baseline (cols)"
        );
        let mut steady_stages = StageNs {
            ingest_ns: f64::INFINITY,
            fuse_ns: f64::INFINITY,
            search_ns: f64::INFINITY,
            total_ns: f64::INFINITY,
        };
        for _ in 0..samples {
            let (_, st) = fused_epoch(&frames, &cfg, &mut matrix, &mut weights, &mut scratch);
            steady_stages.ingest_ns = steady_stages.ingest_ns.min(st.ingest_ns);
            steady_stages.fuse_ns = steady_stages.fuse_ns.min(st.fuse_ns);
            steady_stages.search_ns = steady_stages.search_ns.min(st.search_ns);
            steady_stages.total_ns = steady_stages.total_ns.min(st.total_ns);
        }
        variants.push(Variant {
            name: format!("zero_copy_fused_cold_{name}"),
            kernel: kernel_name.clone(),
            threads: 1,
            shards: 1,
            stages: StageNs {
                ingest_ns: 0.0,
                fuse_ns: 0.0,
                search_ns: 0.0,
                total_ns: cold_ns,
            },
            speedup_vs_baseline: baseline_total / cold_ns,
        });
        variants.push(Variant {
            name: format!("zero_copy_fused_steady_{name}"),
            kernel: kernel_name.clone(),
            threads: 1,
            shards: 1,
            stages: steady_stages,
            speedup_vs_baseline: baseline_total / steady_stages.total_ns,
        });

        // Column-range-sharded steady state: fusion and search split into
        // `s` shards driven by up to `s` worker threads (clamped to the
        // host's CPUs so a 1-CPU runner measures pure shard-partition
        // overhead, not thread contention). Detection is asserted
        // identical to the baseline for every shard count; on a 1-CPU
        // host the times should sit within noise of the s1 row.
        for shards in [1usize, 2, 4] {
            let threads = shards.min(cpus);
            let mut scfg = cfg.clone();
            scfg.compute = dcs_parallel::ComputeBudget::with_threads(threads).with_shards(shards);
            let mut matrix = ColMatrix::new(0, 0);
            let mut weights = Vec::new();
            let mut scratch = SearchScratch::new();
            let (det, _) = fused_epoch(&frames, &scfg, &mut matrix, &mut weights, &mut scratch);
            assert_eq!(
                det.rows, base_det.rows,
                "{name}: sharded pipeline (s={shards}) diverged from baseline (rows)"
            );
            assert_eq!(
                det.cols, base_det.cols,
                "{name}: sharded pipeline (s={shards}) diverged from baseline (cols)"
            );
            let mut stages = StageNs {
                ingest_ns: f64::INFINITY,
                fuse_ns: f64::INFINITY,
                search_ns: f64::INFINITY,
                total_ns: f64::INFINITY,
            };
            for _ in 0..samples {
                let (_, st) = fused_epoch(&frames, &scfg, &mut matrix, &mut weights, &mut scratch);
                stages.ingest_ns = stages.ingest_ns.min(st.ingest_ns);
                stages.fuse_ns = stages.fuse_ns.min(st.fuse_ns);
                stages.search_ns = stages.search_ns.min(st.search_ns);
                stages.total_ns = stages.total_ns.min(st.total_ns);
            }
            variants.push(Variant {
                name: format!("sharded_fused_steady_s{shards}_{name}"),
                kernel: kernel_name.clone(),
                threads,
                shards,
                stages,
                speedup_vs_baseline: baseline_total / stages.total_ns,
            });
        }
    }
    force_kernel(None);

    // Full-centre stage timings over the same frames (includes the
    // unaligned graph pipelines), cold and steady.
    let mut acfg = AnalysisConfig::for_groups(shape.routers * shape.groups_per_router);
    acfg.search = cfg.clone();
    let center = AnalysisCenter::new(acfg);
    let epoch_timings_cold = timed_epoch(&center, &frames);
    let mut epoch_timings_steady = epoch_timings_cold;
    for _ in 0..samples {
        let t = timed_epoch(&center, &frames);
        if t.total_ns < epoch_timings_steady.total_ns {
            epoch_timings_steady = t;
        }
    }
    let metrics = center.metrics();
    let center_stage_ns = StageGauges::from_snapshot(&metrics);

    // Pipelined runtime: the double-buffered epoch scheduler driving the
    // same full centre (both pipelines). One warm-up epoch fills the
    // scratch pool, then `samples` epochs stream through submit/drain;
    // the figure is steady per-epoch wall time seen by the submitter.
    let mut pcfg = AnalysisConfig::for_groups(shape.routers * shape.groups_per_router);
    pcfg.search = cfg.clone();
    let pipe = EpochPipeline::new(AnalysisCenter::new(pcfg), PipelineConfig::default());
    pipe.submit(EpochInput::Collected(CollectedEpoch::from_frames(
        frames.iter().cloned(),
    )));
    for (_, r) in pipe.drain() {
        r.expect("clean frames form a quorum");
    }
    let t = Instant::now();
    for _ in 0..samples {
        pipe.submit(EpochInput::Collected(CollectedEpoch::from_frames(
            frames.iter().cloned(),
        )));
    }
    let mut analyzed = 0usize;
    for (_, r) in pipe.drain() {
        r.expect("clean frames form a quorum");
        analyzed += 1;
    }
    let pipelined_ns = t.elapsed().as_nanos() as f64 / analyzed as f64;
    variants.push(Variant {
        name: "pipelined_center_steady_dispatched".to_string(),
        kernel: format!("{:?}", active_kernel()),
        threads: 2,
        shards: 1,
        stages: StageNs {
            ingest_ns: 0.0,
            fuse_ns: 0.0,
            search_ns: 0.0,
            total_ns: pipelined_ns,
        },
        speedup_vs_baseline: baseline_total / pipelined_ns,
    });

    println!(
        "{:<38} {:>9} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "variant", "kernel", "ingest_ms", "fuse_ms", "search_ms", "total_ms", "speedup"
    );
    for v in &variants {
        println!(
            "{:<38} {:>9} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>8.2}",
            v.name,
            v.kernel,
            v.stages.ingest_ns / 1e6,
            v.stages.fuse_ns / 1e6,
            v.stages.search_ns / 1e6,
            v.stages.total_ns / 1e6,
            v.speedup_vs_baseline
        );
    }
    println!(
        "\nfull centre epoch (incl. unaligned graphs): cold {:.2} ms, steady {:.2} ms \
         (fuse {:.2} ms, screen {:.2} ms, sweep {:.2} ms)",
        epoch_timings_cold.total_ns as f64 / 1e6,
        epoch_timings_steady.total_ns as f64 / 1e6,
        epoch_timings_steady.stages.fuse_ns as f64 / 1e6,
        epoch_timings_steady.stages.screen_ns as f64 / 1e6,
        epoch_timings_steady.stages.sweep_ns as f64 / 1e6,
    );
    println!(
        "per-stage (last epoch): aligned fuse {:.2} / screen {:.2} / core_find {:.2} / \
         sweep {:.2} / terminate {:.2} ms; unaligned stack_rows {:.2} / \
         graph_build {:.2} / er_test {:.2} / peel {:.2} ms",
        center_stage_ns.fuse_ns as f64 / 1e6,
        center_stage_ns.screen_ns as f64 / 1e6,
        center_stage_ns.core_find_ns as f64 / 1e6,
        center_stage_ns.sweep_ns as f64 / 1e6,
        center_stage_ns.terminate_ns as f64 / 1e6,
        center_stage_ns.stack_rows_ns as f64 / 1e6,
        center_stage_ns.graph_build_ns as f64 / 1e6,
        center_stage_ns.er_test_ns as f64 / 1e6,
        center_stage_ns.peel_ns as f64 / 1e6,
    );
    assert!(
        center_stage_ns.all_nonzero(),
        "every stage of both pipelines must record a span"
    );

    let headline_speedup = variants
        .iter()
        .find(|v| v.name == "zero_copy_fused_steady_dispatched")
        .map_or(f64::NAN, |v| v.speedup_vs_baseline);
    let report = Report {
        generator: "repro_pipeline".to_string(),
        cpus_available: cpus,
        cpu_model: cpu_model(),
        kernel_detected,
        scale: if scale.quick { "quick" } else { "paper" }.to_string(),
        note: "baseline is the pre-zero-copy centre: owned wire decode, per-bit \
               fusion, uncached search; fused variants view frames in place and \
               recycle the epoch scratch. Every variant records its threads/shards \
               budget; sharded rows split fusion and search into column-range \
               shards (detection asserted identical), and the pipelined row runs \
               the double-buffered epoch scheduler. On a 1-CPU host sharded and \
               pipelined rows sit within noise of their single-shard peers"
            .to_string(),
        shape,
        variants,
        epoch_timings_cold,
        epoch_timings_steady,
        center_stage_ns,
        metrics,
        headline_speedup,
    };
    write_report("BENCH_pipeline.json", &report)?;
    println!("\nheadline steady-state speedup {headline_speedup:.2}x; wrote BENCH_pipeline.json");
    Ok(())
}
