//! `dcs-cli serve` / `dcs-cli monitor`: the analysis centre and
//! monitoring points as real processes over localhost (or LAN) sockets.
//!
//! ```text
//! dcs-cli serve   [--bind 127.0.0.1:7400] [--routers N] [--epochs N]
//!                 [--wait-all true|false] [--quorum N]
//!                 [--checkpoint ckpt.dcsk] [--metrics-json path]
//!                 [--report report.jsonl] [--resume ckpt.dcsk]
//! dcs-cli monitor [--center 127.0.0.1:7400] [--router N] [--epochs N]
//!                 [--infected]
//! ```
//!
//! Everything else is a deployment constant below, written once for
//! every role: the digest shape ([`ALIGNED_BITS`], [`GROUPS_PER_ROUTER`]),
//! the tick and every timer. The digest seed and the centre's search
//! budget are `dcs-core`'s deployment rule ([`MonitorConfig::deployed`],
//! [`AnalysisConfig::deployed`]), which the soak driver builds from too.
//! The file roles build from the same two rules: `collect` makes the
//! digest `monitor` ships ([`monitor_config`]), and `analyze` judges with
//! the centre `serve` runs.
//!
//! The centre runs one [`EpochCollector`] epoch at a time over a
//! [`CenterSocket`], analyses each collected epoch, appends a JSONL
//! outcome line to the `--report` file, and snapshots metrics + a DCSK
//! checkpoint on a periodic tick. SIGINT/SIGTERM flush a final
//! checkpoint and metrics snapshot before exit; a later `--resume`
//! continues the interrupted epoch from that checkpoint, with the
//! monitors re-sending the missing chunks over the socket.
//!
//! Monitors generate deterministic synthetic traffic per epoch (same
//! scheme as the soak harnesses: traffic seeded by the router id, planted
//! content from the shared [`CONTENT_SEED`]), so two runs with the same
//! flags produce byte-identical digests — the property the restart tests
//! pin.

use crate::{flag, positive, CliResult};
use dcs_core::clock::{Clock, TickClock};
use dcs_core::net::{
    run_center_epoch, run_monitor_epoch, CenterEpochEnd, CenterSocket, MonitorEpochConfig,
    MonitorEpochEnd, MonitorSocket, Transport,
};
use dcs_core::session::{
    CollectedEpoch, CollectorConfig, EpochCollector, SessionConfig, StragglerPolicy,
};
use dcs_core::transport::DATAGRAM_SAFE_PAYLOAD;
use dcs_core::{
    AnalysisCenter, AnalysisConfig, IngestError, MetricsRegistry, MonitorConfig, MonitoringPoint,
};
use dcs_traffic::gen::{generate_epoch, BackgroundConfig, SizeMix};
use dcs_traffic::{ContentObject, Planting};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::io::Write as _;
use std::time::Duration;

// ---------------------------------------------------------------------
// Deployment constants
// ---------------------------------------------------------------------

/// Aligned bitmap width of every monitor's digest. The centre correlates
/// bit positions, so one width (and one digest seed) holds for the
/// whole deployment.
const ALIGNED_BITS: usize = 1 << 14;
/// Flow-split groups per monitor; the centre analyses
/// `routers × GROUPS_PER_ROUTER` groups.
const GROUPS_PER_ROUTER: usize = 4;
/// Real duration of one tick, the unit of every timer below.
const TICK: Duration = Duration::from_micros(1_000);

/// Straggler deadline in ticks, unless `--wait-all true`.
const DEADLINE_TICKS: u64 = 512;
/// Ticks between periodic checkpoint + metrics snapshots.
const SNAPSHOT_EVERY_TICKS: u64 = 64;
/// Ticks before a session's first retransmit NACK fires.
const NACK_BASE_TICKS: u64 = 8;
/// Cap on the exponential NACK backoff, in ticks.
const NACK_CAP_TICKS: u64 = 512;
/// NACK rounds before a session gives up. Under `--wait-all true` this
/// is the centre's whole patience budget — it must cover monitor
/// restarts and the centre's own checkpoint-resume gaps, so it is
/// deliberately generous (the deadline policy cuts at the deadline
/// regardless).
const NACK_RETRIES: u32 = 1_000;
/// Collector retransmit seed.
const COLLECTOR_SEED: u64 = 42;

/// The digest every monitoring point builds. The centre correlates bit
/// positions, so one width, one group count and one seed hold for the
/// whole deployment: `monitor` ships this digest and `collect` writes it.
pub(crate) fn monitor_config() -> MonitorConfig {
    MonitorConfig::deployed(ALIGNED_BITS, GROUPS_PER_ROUTER)
}

/// Background packets per monitor epoch.
const PACKETS: usize = 800;
/// Background flows per monitor epoch.
const FLOWS: usize = 200;
/// Payload bytes of every generated packet, planted ones included.
const PAYLOAD: usize = 536;
/// Seed of the planted content, shared so every `--infected` monitor
/// carries the *same* object.
const CONTENT_SEED: u64 = 1;
/// Packets of planted content in an `--infected` monitor's epoch.
const CONTENT_PACKETS: usize = 30;
/// Per-epoch step of a monitor's traffic seed (the soak harnesses use
/// the same step).
const EPOCH_SEED_STEP: u64 = 0x9E37_79B9_7F4A_7C15;
/// Ticks without ack progress before a monitor re-pushes unacked chunks.
const RESEND_AFTER: u64 = 64;
/// The monitor's resend backoff cap, in ticks.
const MAX_BACKOFF: u64 = 1_024;
/// Ticks of no ack progress before a monitor abandons an epoch.
const GIVE_UP: u64 = 60_000;

// ---------------------------------------------------------------------
// Signal handling (serve-side graceful shutdown)
// ---------------------------------------------------------------------

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn handle(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Routes SIGINT (2) and SIGTERM (15) to a shutdown flag the serve
    /// loop polls, so both signals flush state instead of killing the
    /// process mid-write.
    #[allow(clippy::fn_to_numeric_cast, clippy::fn_to_numeric_cast_any)]
    pub fn install() {
        unsafe extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        unsafe {
            signal(2, handle as extern "C" fn(i32) as usize);
            signal(15, handle as extern "C" fn(i32) as usize);
        }
    }

    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------

/// `dcs-cli serve` flags.
#[derive(Debug)]
struct ServeFlags {
    /// Bind address, e.g. `127.0.0.1:7400` (port 0 picks one).
    bind: String,
    /// Router ids `0..routers` are expected each epoch.
    routers: usize,
    /// Epochs to serve; 0 = until SIGINT/SIGTERM.
    epochs: usize,
    /// Wait for every router instead of cutting at the deadline.
    wait_all: bool,
    /// Minimum surviving-router quorum at analysis (0 = no floor).
    min_quorum: usize,
    /// DCSK checkpoint file; rewritten periodically and on shutdown.
    checkpoint: Option<String>,
    /// Metrics JSON snapshot file; rewritten with the checkpoint.
    metrics: Option<String>,
    /// JSONL epoch-outcome log (appended).
    report: Option<String>,
    /// DCSK checkpoint to resume an interrupted epoch from.
    resume: Option<String>,
}

/// `dcs-cli monitor` flags.
struct MonitorFlags {
    /// The centre's address, e.g. `127.0.0.1:7400`.
    center: String,
    /// This monitoring point's router id; it also seeds the traffic.
    router_id: u64,
    /// Epochs to ship; 0 = until the centre says shutdown.
    epochs: usize,
    /// Plant the shared content object into every epoch.
    infected: bool,
}

/// One line of the serve report JSONL.
#[derive(Debug, Serialize)]
struct ReportLine {
    epoch: u64,
    outcome: String,
    detection: String,
    accepted: usize,
}

fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

/// Reads the `serve` flags; anything else in `args` is refused. A
/// centre expecting no routers would find every epoch ready at once and
/// spin through empty ones, so zero routers is refused too.
fn serve_flags(args: &[String]) -> Result<ServeFlags, Box<dyn std::error::Error>> {
    let mut args = args.to_vec();
    let flags = ServeFlags {
        bind: flag(&mut args, "--bind")?.unwrap_or_else(|| "127.0.0.1:7400".into()),
        routers: flag(&mut args, "--routers")?.unwrap_or(24),
        epochs: flag(&mut args, "--epochs")?.unwrap_or(0),
        wait_all: flag(&mut args, "--wait-all")?.unwrap_or(false),
        min_quorum: flag(&mut args, "--quorum")?.unwrap_or(0),
        checkpoint: flag(&mut args, "--checkpoint")?,
        metrics: flag(&mut args, "--metrics-json")?,
        report: flag(&mut args, "--report")?,
        resume: flag(&mut args, "--resume")?,
    };
    if !args.is_empty() {
        return Err(format!("serve: unrecognised arguments {args:?}").into());
    }
    positive("routers", flags.routers)?;
    Ok(flags)
}

/// Runs the analysis centre as a socket process.
pub fn serve(args: &[String]) -> CliResult {
    let flags = serve_flags(args)?;

    sig::install();
    let clock = TickClock::new(TICK);
    let metrics = MetricsRegistry::new();
    let mut sock = CenterSocket::bind(flags.bind.as_str(), Transport::Udp)?;
    // Port 0 callers (tests) learn the actual address from this line.
    println!("serve: listening on {} (udp)", sock.local_addr()?);

    let collector_cfg = collector_config(flags.wait_all);
    let center = serve_center(&flags);

    // Resume an interrupted epoch from its DCSK checkpoint, or start
    // fresh at epoch 0.
    let mut collector = match &flags.resume {
        Some(path) => {
            let bytes = std::fs::read(path)?;
            let c = EpochCollector::resume(&bytes, collector_cfg, COLLECTOR_SEED, clock.now())?;
            println!(
                "serve: resumed epoch {} from {path} ({} sessions complete)",
                c.epoch_id(),
                c.complete_sessions()
            );
            c
        }
        None => EpochCollector::new(
            0,
            (0..flags.routers as u64).collect::<Vec<_>>(),
            collector_cfg,
            COLLECTOR_SEED,
            clock.now(),
        ),
    };
    let mut served = 0usize;

    loop {
        let epoch_id = collector.epoch_id();
        let mut last_snapshot = clock.now();
        let end = run_center_epoch(&mut sock, &mut collector, &clock, &metrics, |c| {
            if sig::requested() {
                return true;
            }
            let now = clock.now();
            if now.saturating_sub(last_snapshot) >= SNAPSHOT_EVERY_TICKS {
                last_snapshot = now;
                snapshot_state(&flags, c, &metrics, &center);
            }
            false
        });
        match end {
            CenterEpochEnd::Aborted => {
                // Graceful shutdown: flush the final checkpoint and
                // metrics snapshot before exiting.
                snapshot_state(&flags, &collector, &metrics, &center);
                println!(
                    "serve: shutdown at epoch {epoch_id} ({} sessions complete); state flushed",
                    collector.complete_sessions()
                );
                return Ok(());
            }
            CenterEpochEnd::Collected(epoch) => {
                let line = analyse_epoch(&center, &epoch);
                println!(
                    "serve: epoch {epoch_id} -> {} (accepted {})",
                    line.outcome, line.accepted
                );
                if let Some(path) = &flags.report {
                    append_line(path, &serde_json::to_string(&line)?)?;
                }
                snapshot_state(&flags, &collector, &metrics, &center);
                served += 1;
                if flags.epochs > 0 && served >= flags.epochs {
                    sock.broadcast(
                        |router_id| dcs_core::net::ControlFrame::Shutdown { router_id },
                        &metrics,
                    );
                    println!("serve: {served} epochs served, exiting");
                    return Ok(());
                }
                collector = EpochCollector::new(
                    epoch_id + 1,
                    (0..flags.routers as u64).collect::<Vec<_>>(),
                    collector_cfg,
                    COLLECTOR_SEED,
                    clock.now(),
                );
            }
        }
        if sig::requested() {
            snapshot_state(&flags, &collector, &metrics, &center);
            println!("serve: shutdown between epochs; state flushed");
            return Ok(());
        }
    }
}

/// The collector settings of every `serve` epoch.
fn collector_config(wait_all: bool) -> CollectorConfig {
    CollectorConfig {
        deadline: DEADLINE_TICKS,
        straggler: if wait_all {
            StragglerPolicy::WaitAll
        } else {
            StragglerPolicy::Deadline
        },
        session: SessionConfig {
            base_backoff: NACK_BASE_TICKS,
            max_backoff: NACK_CAP_TICKS,
            max_retries: NACK_RETRIES,
            ..SessionConfig::default()
        },
    }
}

/// The centre `serve` judges its epochs with: the deployed centre
/// ([`AnalysisConfig::deployed`]) over routers × [`GROUPS_PER_ROUTER`]
/// groups at [`ALIGNED_BITS`], with the `--quorum` floor.
fn serve_center(flags: &ServeFlags) -> AnalysisCenter {
    let acfg = AnalysisConfig::deployed(flags.routers * GROUPS_PER_ROUTER, ALIGNED_BITS);
    AnalysisCenter::new(if flags.min_quorum > 0 {
        acfg.with_min_quorum(flags.min_quorum)
    } else {
        acfg
    })
}

fn analyse_epoch(center: &AnalysisCenter, epoch: &CollectedEpoch) -> ReportLine {
    match center.analyze_epoch_collected(epoch) {
        Ok(report) => ReportLine {
            epoch: epoch.epoch_id,
            outcome: "report".into(),
            detection: report.detection_fingerprint(),
            accepted: report.ingest.accepted.len(),
        },
        Err(IngestError::QuorumTooSmall { required, report }) => ReportLine {
            epoch: epoch.epoch_id,
            outcome: format!("quorum_too_small(required {required})"),
            detection: String::new(),
            accepted: report.accepted.len(),
        },
        Err(IngestError::NoDigests) => ReportLine {
            epoch: epoch.epoch_id,
            outcome: "no_digests".into(),
            detection: String::new(),
            accepted: 0,
        },
    }
}

/// Writes the DCSK checkpoint and a combined socket + centre metrics
/// snapshot (both atomically; both optional).
fn snapshot_state(
    flags: &ServeFlags,
    collector: &EpochCollector,
    metrics: &MetricsRegistry,
    center: &AnalysisCenter,
) {
    if let Some(path) = &flags.checkpoint {
        if let Err(e) = write_atomic(path, &collector.checkpoint()) {
            eprintln!("serve: checkpoint write failed: {e}");
        }
    }
    if let Some(path) = &flags.metrics {
        let combined = format!(
            "{{\"socket\":{},\"center\":{}}}\n",
            metrics.snapshot().to_json_pretty(),
            center.metrics().to_json_pretty()
        );
        if let Err(e) = write_atomic(path, combined.as_bytes()) {
            eprintln!("serve: metrics write failed: {e}");
        }
    }
}

// ---------------------------------------------------------------------
// monitor
// ---------------------------------------------------------------------

/// Reads the `monitor` flags; anything else in `args` is refused.
fn monitor_flags(args: &[String]) -> Result<MonitorFlags, Box<dyn std::error::Error>> {
    let mut args = args.to_vec();
    let mut flags = MonitorFlags {
        center: flag(&mut args, "--center")?.unwrap_or_else(|| "127.0.0.1:7400".into()),
        router_id: flag(&mut args, "--router")?.unwrap_or(0),
        epochs: flag(&mut args, "--epochs")?.unwrap_or(0),
        infected: false,
    };
    if let Some(pos) = args.iter().position(|a| a == "--infected") {
        args.remove(pos);
        flags.infected = true;
    }
    if !args.is_empty() {
        return Err(format!("monitor: unrecognised arguments {args:?}").into());
    }
    Ok(flags)
}

/// Runs one monitoring point as a socket process.
pub fn monitor(args: &[String]) -> CliResult {
    let flags = monitor_flags(args)?;

    sig::install();
    let clock = TickClock::new(TICK);
    let metrics = MetricsRegistry::new();
    let mut sock = MonitorSocket::connect(flags.center.as_str(), Transport::Udp)?;
    let mut mp = MonitoringPoint::new(flags.router_id as usize, &monitor_config());
    println!("monitor {}: shipping to {}", flags.router_id, flags.center);

    loop {
        if sig::requested() {
            return Ok(());
        }
        let epoch_id = mp.epochs_finished();
        if flags.epochs > 0 && epoch_id as usize >= flags.epochs {
            println!(
                "monitor {}: {} epochs shipped, exiting",
                flags.router_id, epoch_id
            );
            return Ok(());
        }
        let epoch_seed = flags
            .router_id
            .wrapping_add(epoch_id.wrapping_mul(EPOCH_SEED_STEP));
        let mut rng = StdRng::seed_from_u64(epoch_seed);
        let mut traffic = generate_epoch(
            &mut rng,
            &BackgroundConfig {
                packets: PACKETS,
                flows: FLOWS,
                zipf_exponent: 1.0,
                size_mix: SizeMix::constant(PAYLOAD),
            },
        );
        if flags.infected {
            // The content object derives only from (CONTENT_SEED, epoch),
            // so every infected monitor plants the same bytes.
            let mut content_rng = StdRng::seed_from_u64(CONTENT_SEED.wrapping_add(epoch_id));
            let object =
                ContentObject::random_with_packets(&mut content_rng, CONTENT_PACKETS, PAYLOAD);
            Planting::aligned(object, PAYLOAD).plant_into(&mut rng, &mut traffic);
        }
        mp.observe_all(&traffic);
        let chunks = mp.finish_epoch_chunks(DATAGRAM_SAFE_PAYLOAD)?;
        let end = run_monitor_epoch(
            &mut sock,
            &chunks,
            &MonitorEpochConfig {
                router_id: flags.router_id,
                epoch_id,
                resend_after: RESEND_AFTER,
                max_backoff: MAX_BACKOFF,
                give_up: GIVE_UP,
            },
            &clock,
            &metrics,
        );
        match end {
            MonitorEpochEnd::Delivered => {
                println!(
                    "monitor {}: epoch {epoch_id} delivered ({} chunks)",
                    flags.router_id,
                    chunks.len()
                );
            }
            MonitorEpochEnd::TimedOut => {
                eprintln!(
                    "monitor {}: epoch {epoch_id} abandoned after {GIVE_UP} silent ticks",
                    flags.router_id
                );
            }
            MonitorEpochEnd::Shutdown => {
                println!("monitor {}: centre sent shutdown", flags.router_id);
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZeroShape;
    use dcs_core::transport::chunk_bundle;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn serve_rejects_zero_routers() {
        let result = serve_flags(&args(&["--routers", "0"]));
        assert_eq!(
            *result.unwrap_err().downcast::<ZeroShape>().unwrap(),
            ZeroShape("routers")
        );
    }

    /// `analyze` judges a deployment's digests as `serve` does. One
    /// planted epoch of deployment-shaped bundles: 48 monitors, each
    /// hashing 8,000 background packets (fill ≈ 0.39, under the 0.5
    /// target), the first 16 also the same 30-packet content object. The
    /// epoch reads the same detection fingerprint through `serve`'s path
    /// (the chunks through its collector, its centre) as through
    /// `analyze`'s (the whole DCSR frames, the centre sized from them).
    #[test]
    fn analyze_judges_an_epoch_as_serve_does() {
        const ROUTERS: u64 = 48;
        const INFECTED: u64 = 16;
        let background = BackgroundConfig {
            packets: 8_000,
            flows: 2_000,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(PAYLOAD),
        };
        let frames: Vec<Vec<u8>> = (0..ROUTERS)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(r);
                let mut traffic = generate_epoch(&mut rng, &background);
                if r < INFECTED {
                    let mut content_rng = StdRng::seed_from_u64(CONTENT_SEED);
                    let object = ContentObject::random_with_packets(
                        &mut content_rng,
                        CONTENT_PACKETS,
                        PAYLOAD,
                    );
                    Planting::aligned(object, PAYLOAD).plant_into(&mut rng, &mut traffic);
                }
                let mut mp = MonitoringPoint::new(r as usize, &monitor_config());
                mp.observe_all(&traffic);
                mp.finish_epoch().encode_wire().unwrap()
            })
            .collect();

        let flags = serve_flags(&args(&["--routers", &ROUTERS.to_string()])).unwrap();
        let cfg = collector_config(flags.wait_all);
        let mut collector = EpochCollector::new(0, 0..ROUTERS, cfg, COLLECTOR_SEED, 0);
        for (r, frame) in (0..).zip(&frames) {
            collector.answer(&chunk_bundle(r, 0, frame, DATAGRAM_SAFE_PAYLOAD), 0);
        }
        let served = analyse_epoch(&serve_center(&flags), &collector.finalize(0));
        assert_eq!(served.outcome, "report");

        let paths: Vec<String> = (0..ROUTERS).map(|r| format!("digest{r}.dcsr")).collect();
        let (_, report) = crate::judge_files(&paths, frames).unwrap();
        assert_eq!(served.detection, report.detection_fingerprint());
    }

    #[test]
    fn serve_names_the_flag_it_cannot_parse() {
        let err = serve_flags(&args(&["--wait-all", "yes"])).unwrap_err();
        assert_eq!(err.to_string(), r#"--wait-all: cannot parse "yes""#);
    }
}
