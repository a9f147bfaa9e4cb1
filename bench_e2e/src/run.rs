//! One run of one workload: set-up, warm-up, the timed closed loop, the
//! output check, and the metrics.

use crate::adapter::{Probe, Verdict};
use crate::calib;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::stats::{median, nearest_rank, percentile, Fnv};
use crate::trace::{totals_by_name, NameTotals};
use crate::workloads::{self, Pool, Spec, World, ALARM_EVERY, SIZE_CLASSES, WARMUP_EPOCHS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The seed whose verdict digests are checked in under `golden/`.
pub const DEFAULT_SEED: u64 = 1;

/// Timed epochs whose exact counts and verdicts are kept: the first 100,
/// however many more the run has time for, so that counts and digests
/// depend on the seed and not on the machine's speed.
const WINDOW_EPOCHS: u64 = 100;

/// Epochs a `--smoke` run times.
const SMOKE_EPOCHS: u64 = 3;

/// Timed epochs a world serves before the next one is set up. Which
/// processor is the quiet one changes by the minute on a shared host, so
/// the placement probe is repeated every few seconds rather than once; a
/// run therefore measures several worlds (five make the window), and
/// `setup_s` is the median of their set-up times.
const SEGMENT_EPOCHS: u64 = 20;

/// A run that has not reached its sample floor by now stops anyway, short
/// of the 180 s a single run may take.
const HARD_STOP: Duration = Duration::from_secs(150);

pub struct Options {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the traced run writes `trace.<workload>.jsonl`.
    pub out_dir: std::path::PathBuf,
    pub process_start: Instant,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// FNV-1a over the verdict fields of the window's epochs.
    pub digest: u64,
    pub golden: Golden,
    /// Latency samples behind `verdict_ms_p50` / `verdict_ms_p90`.
    pub samples: usize,
    /// Median over the timed epochs of the host's slowdown, which the
    /// end-to-end timings are scaled by.
    pub slowdown: f64,
    pub failures: Vec<String>,
    pub metrics: Vec<(Def, f64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Golden {
    Match,
    Mismatch,
    /// Another seed, or a smoke run: the digest is printed, not checked.
    NotChecked,
}

fn golden_digest(workload: &str) -> u64 {
    let text = match workload {
        "collect-mix" => include_str!("../golden/collect-mix.digest"),
        "center-paper" => include_str!("../golden/center-paper.digest"),
        "wire-udp-lossy" => include_str!("../golden/wire-udp-lossy.digest"),
        "tiered-chan" => include_str!("../golden/tiered-chan.digest"),
        other => panic!("no golden digest for workload {other}"),
    };
    u64::from_str_radix(text.trim(), 16).expect("golden digest is 16 hex digits")
}

/// Among traced epochs, every fourth block of `ALARM_EVERY` runs
/// untraced: the control group `bench.trace_overhead_share` compares
/// against. A block holds one alarm epoch and the null ones around it, so
/// both groups have the same mix.
fn is_control(timed_index: u64) -> bool {
    (timed_index / ALARM_EVERY) % 4 == 3
}

fn digest_verdict(h: &mut Fnv, v: &Verdict) {
    h.u64(u64::from(v.found));
    h.list(&v.aligned_routers);
    h.u64(u64::from(v.alarm));
    h.list(&v.suspected_routers);
    h.u64(v.routers_analyzed as u64);
    h.u64(v.routers_excluded as u64);
}

/// Why an epoch's verdict fails the output check, if it does.
fn check(spec: &Spec, alarm: bool, verdict: &Result<Verdict, String>) -> Option<String> {
    let v = match verdict {
        Ok(v) => v,
        Err(e) => return Some(e.clone()),
    };
    if v.routers_excluded > 0 || v.routers_analyzed != spec.monitors {
        return Some(format!(
            "{} of {} routers analysed, {} excluded",
            v.routers_analyzed, spec.monitors, v.routers_excluded
        ));
    }
    if alarm && spec.expect_detection {
        let hit = v
            .aligned_routers
            .iter()
            .filter(|&&r| r < spec.infected)
            .count();
        // At the seed commit the search reports 15 to 20 of `center-paper`'s
        // 20 infected routers (19 as a rule, 15 once in some 400 planted
        // epochs) whatever the size of the planted object: a floor of 80 %
        // sits inside that range and fails a run in fifteen. 60 % is below
        // everything seen in 1 100 planted epochs and far above what a
        // broken search reports.
        if !v.found || hit * 5 < spec.infected * 3 {
            return Some(format!(
                "planted epoch reported {hit} of {} infected routers",
                spec.infected
            ));
        }
    }
    None
}

/// Picks the processor to measure on, builds a world there and warms it up
/// on the `WARMUP_EPOCHS` epochs before `first_epoch`. Also returns the
/// host's slowdown over the set-up.
fn set_up(spec: Spec, seed: u64, pool: Pool, first_epoch: u64) -> Result<(World, f64), String> {
    crate::placement::settle_on_fastest();
    let slowdown_before = calib::slowdown();
    let mut world = World::new(spec, seed, pool)?;
    let mut probe = Probe::new(false);
    for epoch in first_epoch - WARMUP_EPOCHS..first_epoch {
        if let Err(e) = world.epoch(&mut probe, epoch).verdict {
            return Err(format!("warm-up epoch {epoch}: {e}"));
        }
    }
    Ok((world, (slowdown_before + calib::slowdown()) / 2.0))
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = opts.spec;
    let (floor, segment) = if opts.smoke {
        (SMOKE_EPOCHS, SMOKE_EPOCHS)
    } else {
        (WINDOW_EPOCHS, SEGMENT_EPOCHS)
    };
    // The packet pool is drawn once; only the first set-up, which starts at
    // process start, includes it.
    let pool = workloads::pool(&spec, opts.seed);
    let mut p = Probe::new(opts.trace);
    let mut digest = Fnv::default();
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let mut setup_s = Vec::new();
    let mut verdict_ms = Vec::new();
    let (mut wall_traced_ms, mut wall_control_ms) = (Vec::new(), Vec::new());
    let mut observe_ns_per_pkt = Vec::new();
    let mut slowdowns = Vec::new();
    let mut input_gen = Duration::ZERO;
    let mut traced_epochs = 0u64;
    let mut timed = 0u64;
    let mut started = None;
    let done = |timed: u64, started: Option<Instant>| {
        let enough = opts.smoke
            || started.is_some_and(|s: Instant| s.elapsed().as_secs_f64() >= opts.seconds);
        (timed >= floor && enough) || opts.process_start.elapsed() >= HARD_STOP
    };
    while !done(timed, started) {
        // One segment: a world of its own, then `segment` timed epochs.
        // The previous world is gone before the set-up clock starts.
        let t0 = if setup_s.is_empty() {
            opts.process_start
        } else {
            Instant::now()
        };
        let (mut world, slowdown) = set_up(spec, opts.seed, pool.clone(), WARMUP_EPOCHS + timed)?;
        setup_s.push(t0.elapsed().as_secs_f64() / slowdown);
        started.get_or_insert_with(Instant::now);
        for _ in 0..segment {
            if done(timed, started) {
                break;
            }
            let epoch = WARMUP_EPOCHS + timed;
            p.counting = timed < floor;
            p.tr.enabled = opts.trace && !is_control(timed);
            p.tr.set_epoch(epoch);
            let out = world.epoch(&mut p, epoch);
            p.count("collect.packets", out.packets);
            p.count("collect.payload_bytes", out.payload_bytes);

            if let Some(why) = check(&spec, out.alarm, &out.verdict) {
                failed += 1;
                if failures.len() < 5 {
                    failures.push(format!("epoch {epoch}: {why}"));
                }
            }
            if p.counting {
                match &out.verdict {
                    Ok(v) => digest_verdict(&mut digest, v),
                    Err(_) => digest.u64(u64::MAX),
                }
            }
            // End-to-end timings are scaled to nominal host speed; the
            // trace and everything derived from it stay wall time.
            slowdowns.push(out.slowdown);
            verdict_ms.push(out.verdict_latency.as_secs_f64() * 1e3 / out.slowdown);
            let wall_ms = out.wall.as_secs_f64() * 1e3;
            if p.tr.enabled {
                traced_epochs += 1;
                wall_traced_ms.push(wall_ms);
            } else {
                wall_control_ms.push(wall_ms);
            }
            observe_ns_per_pkt
                .push(out.observe.as_nanos() as f64 / out.packets as f64 / out.slowdown);
            input_gen += out.input_gen;
            timed += 1;
        }
    }

    let digest = digest.finish();
    let golden = if opts.seed != DEFAULT_SEED || opts.smoke || timed < floor {
        Golden::NotChecked
    } else if digest == golden_digest(spec.name) {
        Golden::Match
    } else {
        Golden::Mismatch
    };
    if golden == Golden::Mismatch {
        // The verdicts differ from the checked-in ones somewhere in the
        // window; no epoch of this run can be trusted.
        failed = timed;
        failures.push(format!(
            "verdict digest {digest:016x} differs from golden {:016x}",
            golden_digest(spec.name)
        ));
    }

    // A percentile the sample is too small for is still printed, so the
    // output keeps its schema, but the epochs that were not reached in
    // time count as failed.
    let mut pct = |q: f64| match percentile(&verdict_ms, q) {
        Ok(v) => v,
        Err(short) => {
            if !opts.smoke {
                failed = failed.max(timed.max(1));
                failures.push(format!(
                    "p{:.0} needs {} samples, the run has {}",
                    q * 100.0,
                    short.need,
                    short.have
                ));
            }
            nearest_rank(&verdict_ms, q)
        }
    };
    let (p50, p90) = (pct(0.5), pct(0.9));

    let window = timed.min(floor).max(1) as f64;
    let metrics = if opts.trace {
        let path = opts.out_dir.join(format!("trace.{}.jsonl", spec.name));
        std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| p.tr.write_jsonl(&path))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let bench = [
            ("bench.epochs_attempted", timed as f64),
            ("bench.epochs_failed", failed as f64),
            (
                "bench.input_gen_ms",
                input_gen.as_secs_f64() * 1e3 / timed as f64,
            ),
            ("bench.host_slowdown", median(&slowdowns)),
        ];
        per_layer(
            &p,
            window,
            traced_epochs,
            &wall_traced_ms,
            &wall_control_ms,
            &bench,
        )
    } else {
        let value = |name: &str| match name {
            "setup_s" => median(&setup_s),
            // The rate of the median epoch among the faster half. On a
            // shared host a neighbour's burst slows some epochs
            // severalfold and none gets faster, so a mean — or, in a
            // bad minute, the median — reports the neighbour.
            "observe_mpps" => 1e3 / nearest_rank(&observe_ns_per_pkt, 0.25),
            "verdict_ms_p50" => p50,
            "verdict_ms_p90" => p90,
            "wire_bytes_per_epoch" => p.counted("transport.frame_bytes") as f64 / window,
            "peak_rss_mib" => crate::host::peak_rss_mib(),
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        END_TO_END.iter().map(|&def| (def, value(def.0))).collect()
    };

    Ok(Outcome {
        attempted: timed,
        failed,
        correct: failed == 0 && golden != Golden::Mismatch,
        digest,
        golden,
        samples: verdict_ms.len(),
        slowdown: median(&slowdowns),
        failures,
        metrics,
    })
}

/// The per-layer metrics of a traced run.
fn per_layer(
    p: &Probe,
    window: f64,
    traced_epochs: u64,
    wall_traced_ms: &[f64],
    wall_control_ms: &[f64],
    bench: &[(&str, f64)],
) -> Vec<(Def, f64)> {
    let totals: BTreeMap<&str, NameTotals> = totals_by_name(p.tr.spans());
    let traced = traced_epochs.max(1) as f64;
    let total_ns = |span: &str| totals.get(span).map_or(0, |t| t.total_ns) as f64;
    // Milliseconds per traced epoch inside a span.
    let ms = |span: &str| total_ns(span) / traced / 1e6;
    // An exact count per epoch of the count window.
    let cnt = |name: &str| p.counted(name) as f64 / window;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let timed_ratio = |ns: &str, n: &str| ratio(p.timed(ns) as f64, p.timed(n) as f64);

    let observed_pkts: u64 = SIZE_CLASSES.iter().map(|(_, n)| p.timed(n)).sum();
    let epoch = totals.get("epoch").copied().unwrap_or_default();
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    // The overhead compares the two groups' faster halves: with 25 control
    // epochs a neighbour's burst in either group would swamp a medians'
    // difference of a few per cent.
    let quiet = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            nearest_rank(v, 0.25)
        }
    };

    let value = |name: &str| -> f64 {
        if let Some((_, v)) = bench.iter().find(|(n, _)| *n == name) {
            return *v;
        }
        if let Some(stage) = name
            .strip_prefix("center.stage.")
            .and_then(|s| s.strip_suffix("_ms"))
        {
            return ms(&format!("center.stage.{stage}"));
        }
        match name {
            "collect.observe_ns_per_pkt" => {
                ratio(total_ns("collect.observe"), observed_pkts as f64)
            }
            "collect.observe_ns_per_pkt_40" => timed_ratio(SIZE_CLASSES[0].0, SIZE_CLASSES[0].1),
            "collect.observe_ns_per_pkt_576" => timed_ratio(SIZE_CLASSES[1].0, SIZE_CLASSES[1].1),
            "collect.observe_ns_per_pkt_1500" => timed_ratio(SIZE_CLASSES[2].0, SIZE_CLASSES[2].1),
            "collect.aligned_ns_per_pkt" => {
                timed_ratio("collect.sub.aligned_ns", "collect.sub.packets")
            }
            "collect.unaligned_ns_per_pkt" => {
                timed_ratio("collect.sub.unaligned_ns", "collect.sub.packets")
            }
            "collect.sketch_ns_per_pkt" => {
                timed_ratio("collect.sub.sketch_ns", "collect.sub.packets")
            }
            "collect.aligned_fill" => cnt("collect.aligned_fill_ppm") / 1e6,
            "monitor.finish_ms" => ms("monitor.finish"),
            "monitor.encode_ms" => ms("monitor.encode"),
            "transport.chunk_ms" => ms("transport.chunk"),
            "monitor.resend_ms" => ms("monitor.resend"),
            "net.ship_ms" => ms("net.ship"),
            "net.goodput_mbps" => ratio(cnt("transport.frame_bytes") * 8.0, ms("net.ship") * 1e3),
            "net.send_amplification" => {
                ratio(cnt("net.frames_sent_monitor"), cnt("transport.chunks"))
            }
            "net.send_stalls" => cnt("net.send_stalls_monitor") + cnt("net.send_stalls_center"),
            "session.ship_ms" => ms("session.ship"),
            "session.offer_ns_per_chunk" => {
                ratio(ms("session.offer") * 1e6, cnt("session.chunks_offered"))
            }
            "session.poll_ms" => ms("session.poll"),
            "session.finalize_ms" => ms("session.finalize"),
            "session.useful_ratio" => ratio(
                cnt("session.chunks_accepted"),
                cnt("session.chunks_offered"),
            ),
            "aggregate.offer_ns_per_chunk" => {
                ratio(ms("aggregate.offer") * 1e6, cnt("aggregate.chunks_offered"))
            }
            "aggregate.finalize_ms" => ms("aggregate.finalize"),
            "aggregate.encode_ms" => ms("aggregate.encode"),
            "center.analyze_ms" => ms("center.analyze"),
            "center.unattributed_ms" => {
                totals.get("center.analyze").map_or(0, |t| t.self_ns) as f64 / traced / 1e6
            }
            "bench.epoch_wall_ms_p50" => median_or_zero(wall_traced_ms),
            "bench.unattributed_share" => ratio(epoch.self_ns as f64, epoch.total_ns as f64),
            "bench.trace_overhead_share" => ratio(
                quiet(wall_traced_ms) - quiet(wall_control_ms),
                quiet(wall_control_ms),
            ),
            // Everything else is an exact count under its own name.
            count => cnt(count),
        }
    };
    PER_LAYER.iter().map(|&def| (def, value(def.0))).collect()
}
