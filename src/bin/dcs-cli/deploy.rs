//! `dcs-cli serve` / `dcs-cli monitor`: the analysis centre and
//! monitoring points as real processes over localhost (or LAN) sockets.
//!
//! ```text
//! dcs-cli serve   --print-config              # JSON config template
//! dcs-cli serve   [--config serve.json] [--bind 127.0.0.1:7400]
//!                 [--routers N] [--epochs N] [--resume ckpt.dcsk]
//! dcs-cli monitor [--config monitor.json] [--center 127.0.0.1:7400]
//!                 [--router N] [--epochs N] [--infected]
//! ```
//!
//! The centre runs one [`EpochCollector`] epoch at a time over a
//! [`CenterSocket`], analyses each collected epoch, appends a JSONL
//! outcome line to `report_path`, and snapshots metrics + a DCSK
//! checkpoint on a periodic tick. SIGINT/SIGTERM flush a final
//! checkpoint and metrics snapshot before exit; a later `--resume`
//! continues the interrupted epoch from that checkpoint, with the
//! monitors re-sending the missing chunks over the socket.
//!
//! Monitors generate deterministic synthetic traffic per epoch (same
//! scheme as the soak harnesses: traffic from `seed`, planted content
//! from the shared `content_seed`), so two runs with the same configs
//! produce byte-identical digests — the property the restart tests pin.

use crate::{parse_or, positive, take_flag, CliResult};
use dcs::core::clock::{Clock, TickClock};
use dcs::core::net::{
    run_center_epoch, run_monitor_epoch, CenterEpochEnd, CenterSocket, ImpairmentConfig,
    ImpairmentShim, MonitorEpochConfig, MonitorEpochEnd, MonitorSocket, Transport,
};
use dcs::core::prelude::*;
use dcs::core::transport::DATAGRAM_SAFE_PAYLOAD;
use dcs::traffic::gen::{generate_epoch, BackgroundConfig, SizeMix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::time::Duration;

/// Per-epoch seed derivation shared by `serve`'s reference docs and
/// `monitor`'s traffic generator (the soak harnesses use the same step).
const EPOCH_SEED_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

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
// Configs (JSON files via --config; flags override the loaded values)
// ---------------------------------------------------------------------

/// `dcs-cli serve` settings. Empty string paths disable that output.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7400` (port 0 picks one).
    pub bind: String,
    /// Router ids `0..routers` are expected each epoch.
    pub routers: usize,
    /// Epochs to serve; 0 = until SIGINT/SIGTERM.
    pub epochs: usize,
    /// Straggler deadline in ticks.
    pub deadline_ticks: u64,
    /// Wait for every router instead of cutting at the deadline.
    pub wait_all: bool,
    /// Minimum surviving-router quorum at analysis (0 = no floor).
    pub min_quorum: usize,
    /// Real duration of one tick, in microseconds.
    pub tick_micros: u64,
    /// Aligned bitmap width the monitors use (analysis shape).
    pub aligned_bits: usize,
    /// Flow-split groups per router (analysis shape).
    pub groups_per_router: usize,
    /// DCSK checkpoint file; rewritten periodically and on shutdown.
    pub checkpoint_path: String,
    /// Metrics JSON snapshot file; rewritten with the checkpoint.
    pub metrics_path: String,
    /// JSONL epoch-outcome log (appended).
    pub report_path: String,
    /// Ticks between periodic checkpoint + metrics snapshots.
    pub snapshot_every_ticks: u64,
    /// Ticks before a session's first retransmit NACK fires.
    pub nack_base_ticks: u64,
    /// Cap on the exponential NACK backoff, in ticks.
    pub nack_cap_ticks: u64,
    /// NACK rounds before a session gives up. Under `wait_all` this is
    /// the centre's whole patience budget — it must cover monitor
    /// restarts and our own checkpoint-resume gaps, so the default is
    /// deliberately generous (the `deadline` policy cuts at the deadline
    /// regardless).
    pub nack_retries: u32,
    /// Collector retransmit seed.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: "127.0.0.1:7400".into(),
            routers: 24,
            epochs: 0,
            deadline_ticks: 512,
            wait_all: false,
            min_quorum: 0,
            tick_micros: 1_000,
            aligned_bits: 1 << 14,
            groups_per_router: 4,
            checkpoint_path: String::new(),
            metrics_path: String::new(),
            report_path: String::new(),
            snapshot_every_ticks: 64,
            nack_base_ticks: 8,
            nack_cap_ticks: 512,
            nack_retries: 1_000,
            seed: 42,
        }
    }
}

/// `dcs-cli monitor` settings.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MonitorCliConfig {
    /// The centre's address, e.g. `127.0.0.1:7400`.
    pub center: String,
    /// This monitoring point's router id.
    pub router_id: u64,
    /// Epochs to ship; 0 = until the centre says shutdown.
    pub epochs: usize,
    /// Background packets per epoch.
    pub packets: usize,
    /// Background flows per epoch.
    pub flows: usize,
    /// Packets of planted common content (0 = clean traffic).
    pub content_packets: usize,
    /// Seed of the planted content — share it across infected monitors
    /// so they all carry the *same* object.
    pub content_seed: u64,
    /// Background traffic seed (vary per router); `null` = the router id.
    pub seed: Option<u64>,
    /// Digest hash-salt seed — must match every other monitor.
    pub digest_seed: u64,
    /// Aligned bitmap width.
    pub aligned_bits: usize,
    /// Flow-split groups.
    pub groups: usize,
    /// Chunk payload bound; the default stays datagram-safe.
    pub max_payload: usize,
    /// Real duration of one tick, in microseconds.
    pub tick_micros: u64,
    /// Ticks without ack progress before re-pushing unacked chunks.
    pub resend_after: u64,
    /// Resend backoff cap, in ticks.
    pub max_backoff: u64,
    /// Ticks of no ack progress before abandoning an epoch.
    pub give_up: u64,
    /// Outgoing impairment ‰ (testing): drop.
    pub impair_drop: u16,
    /// Outgoing impairment ‰: duplicate.
    pub impair_duplicate: u16,
    /// Outgoing impairment ‰: reorder.
    pub impair_reorder: u16,
    /// Outgoing impairment ‰: corrupt.
    pub impair_corrupt: u16,
    /// Impairment decision seed.
    pub impair_seed: u64,
}

impl MonitorCliConfig {
    /// The background traffic seed: `seed`, else the router id.
    fn traffic_seed(&self) -> u64 {
        self.seed.unwrap_or(self.router_id)
    }
}

impl Default for MonitorCliConfig {
    fn default() -> Self {
        MonitorCliConfig {
            center: "127.0.0.1:7400".into(),
            router_id: 0,
            epochs: 0,
            packets: 800,
            flows: 200,
            content_packets: 0,
            content_seed: 1,
            seed: None,
            digest_seed: 7,
            aligned_bits: 1 << 14,
            groups: 4,
            max_payload: DATAGRAM_SAFE_PAYLOAD,
            tick_micros: 1_000,
            resend_after: 64,
            max_backoff: 1_024,
            give_up: 60_000,
            impair_drop: 0,
            impair_duplicate: 0,
            impair_reorder: 0,
            impair_corrupt: 0,
            impair_seed: 0,
        }
    }
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

/// The centre settings: `--config` (or the defaults) under the flags
/// that override it, which are taken out of `args`. A centre expecting
/// no routers would find every epoch ready at once and spin through
/// empty ones, so zero routers is refused with the analysis shape.
fn serve_config(args: &mut Vec<String>) -> Result<ServeConfig, Box<dyn std::error::Error>> {
    let mut cfg: ServeConfig = match take_flag(args, "--config") {
        Some(path) => serde_json::from_str(&std::fs::read_to_string(path)?)?,
        None => ServeConfig::default(),
    };
    if let Some(v) = take_flag(args, "--bind") {
        cfg.bind = v;
    }
    cfg.routers = parse_or(take_flag(args, "--routers"), cfg.routers)?;
    cfg.epochs = parse_or(take_flag(args, "--epochs"), cfg.epochs)?;
    cfg.min_quorum = parse_or(take_flag(args, "--quorum"), cfg.min_quorum)?;
    cfg.wait_all = parse_or(take_flag(args, "--wait-all"), cfg.wait_all)?;
    if let Some(v) = take_flag(args, "--checkpoint") {
        cfg.checkpoint_path = v;
    }
    if let Some(v) = take_flag(args, "--metrics-json") {
        cfg.metrics_path = v;
    }
    if let Some(v) = take_flag(args, "--report") {
        cfg.report_path = v;
    }
    positive("routers", cfg.routers)?;
    positive("groups_per_router", cfg.groups_per_router)?;
    positive("aligned_bits", cfg.aligned_bits)?;
    Ok(cfg)
}

/// Runs the analysis centre as a socket process.
pub fn serve(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    if args.iter().any(|a| a == "--print-config") {
        println!("{}", serde_json::to_string_pretty(&ServeConfig::default())?);
        return Ok(());
    }
    let cfg = serve_config(&mut args)?;
    let resume_path = take_flag(&mut args, "--resume");
    if !args.is_empty() {
        return Err(format!("serve: unrecognised arguments {args:?}").into());
    }

    sig::install();
    let clock = TickClock::new(Duration::from_micros(cfg.tick_micros.max(1)));
    let metrics = MetricsRegistry::new();
    let mut sock = CenterSocket::bind(cfg.bind.as_str(), Transport::Udp)?;
    // Port 0 callers (tests) learn the actual address from this line.
    println!("serve: listening on {} (udp)", sock.local_addr()?);

    let collector_cfg = CollectorConfig {
        deadline: cfg.deadline_ticks,
        straggler: if cfg.wait_all {
            StragglerPolicy::WaitAll
        } else {
            StragglerPolicy::Deadline
        },
        session: SessionConfig {
            base_backoff: cfg.nack_base_ticks,
            max_backoff: cfg.nack_cap_ticks.max(cfg.nack_base_ticks),
            max_retries: cfg.nack_retries,
            ..SessionConfig::default()
        },
    };
    let mut acfg = AnalysisConfig::for_groups((cfg.routers * cfg.groups_per_router).max(2));
    if cfg.min_quorum > 0 {
        acfg = acfg.with_min_quorum(cfg.min_quorum);
    }
    acfg.search.n_prime = 400.min(cfg.aligned_bits);
    acfg.search.hopefuls = 300.min(cfg.aligned_bits);
    let center = AnalysisCenter::new(acfg);

    // Resume an interrupted epoch from its DCSK checkpoint, or start
    // fresh at epoch 0.
    let mut collector = match &resume_path {
        Some(path) => {
            let bytes = std::fs::read(path)?;
            let c = EpochCollector::resume(&bytes, collector_cfg, cfg.seed, clock.now())?;
            println!(
                "serve: resumed epoch {} from {path} ({} sessions complete)",
                c.epoch_id(),
                c.complete_sessions()
            );
            c
        }
        None => EpochCollector::new(
            0,
            (0..cfg.routers as u64).collect::<Vec<_>>(),
            collector_cfg,
            cfg.seed,
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
            if cfg.snapshot_every_ticks > 0
                && now.saturating_sub(last_snapshot) >= cfg.snapshot_every_ticks
            {
                last_snapshot = now;
                snapshot_state(&cfg, c, &metrics, &center);
            }
            false
        });
        match end {
            CenterEpochEnd::Aborted => {
                // Graceful shutdown: flush the final checkpoint and
                // metrics snapshot before exiting.
                snapshot_state(&cfg, &collector, &metrics, &center);
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
                if !cfg.report_path.is_empty() {
                    append_line(&cfg.report_path, &serde_json::to_string(&line)?)?;
                }
                snapshot_state(&cfg, &collector, &metrics, &center);
                served += 1;
                if cfg.epochs > 0 && served >= cfg.epochs {
                    sock.broadcast(
                        |router_id| dcs::core::net::ControlFrame::Shutdown { router_id },
                        &metrics,
                    );
                    println!("serve: {served} epochs served, exiting");
                    return Ok(());
                }
                collector = EpochCollector::new(
                    epoch_id + 1,
                    (0..cfg.routers as u64).collect::<Vec<_>>(),
                    collector_cfg,
                    cfg.seed,
                    clock.now(),
                );
            }
        }
        if sig::requested() {
            snapshot_state(&cfg, &collector, &metrics, &center);
            println!("serve: shutdown between epochs; state flushed");
            return Ok(());
        }
    }
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
    cfg: &ServeConfig,
    collector: &EpochCollector,
    metrics: &MetricsRegistry,
    center: &AnalysisCenter,
) {
    if !cfg.checkpoint_path.is_empty() {
        if let Err(e) = write_atomic(&cfg.checkpoint_path, &collector.checkpoint()) {
            eprintln!("serve: checkpoint write failed: {e}");
        }
    }
    if !cfg.metrics_path.is_empty() {
        let combined = format!(
            "{{\"socket\":{},\"center\":{}}}\n",
            metrics.snapshot().to_json_pretty(),
            center.metrics().to_json_pretty()
        );
        if let Err(e) = write_atomic(&cfg.metrics_path, combined.as_bytes()) {
            eprintln!("serve: metrics write failed: {e}");
        }
    }
}

// ---------------------------------------------------------------------
// monitor
// ---------------------------------------------------------------------

/// The monitor settings: `--config` (or the defaults) under the flags
/// that override it, which are taken out of `args`.
fn monitor_config(args: &mut Vec<String>) -> Result<MonitorCliConfig, Box<dyn std::error::Error>> {
    let mut cfg: MonitorCliConfig = match take_flag(args, "--config") {
        Some(path) => serde_json::from_str(&std::fs::read_to_string(path)?)?,
        None => MonitorCliConfig::default(),
    };
    if let Some(v) = take_flag(args, "--center") {
        cfg.center = v;
    }
    cfg.router_id = parse_or(take_flag(args, "--router"), cfg.router_id)?;
    cfg.epochs = parse_or(take_flag(args, "--epochs"), cfg.epochs)?;
    cfg.seed = Some(parse_or(take_flag(args, "--seed"), cfg.traffic_seed())?);
    // `--infected` plants the shared content object into this monitor's
    // traffic at the soak's standard 30 packets.
    if let Some(pos) = args.iter().position(|a| a == "--infected") {
        args.remove(pos);
        cfg.content_packets = 30;
    }
    positive("aligned_bits", cfg.aligned_bits)?;
    positive("groups", cfg.groups)?;
    // A zero budget abandons every epoch at its first check.
    positive("give_up", cfg.give_up)?;
    Ok(cfg)
}

/// Runs one monitoring point as a socket process.
pub fn monitor(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    if args.iter().any(|a| a == "--print-config") {
        println!(
            "{}",
            serde_json::to_string_pretty(&MonitorCliConfig::default())?
        );
        return Ok(());
    }
    let cfg = monitor_config(&mut args)?;
    if !args.is_empty() {
        return Err(format!("monitor: unrecognised arguments {args:?}").into());
    }
    let seed = cfg.traffic_seed();

    sig::install();
    let clock = TickClock::new(Duration::from_micros(cfg.tick_micros.max(1)));
    let metrics = MetricsRegistry::new();
    let mut sock = MonitorSocket::connect(cfg.center.as_str(), Transport::Udp)?;
    let impair = ImpairmentConfig {
        drop_per_mille: cfg.impair_drop,
        duplicate_per_mille: cfg.impair_duplicate,
        reorder_per_mille: cfg.impair_reorder,
        corrupt_per_mille: cfg.impair_corrupt,
    };
    if impair != ImpairmentConfig::perfect() {
        sock.set_shim(ImpairmentShim::new(impair, cfg.impair_seed));
    }

    let mcfg = MonitorConfig::small(cfg.digest_seed, cfg.aligned_bits, cfg.groups);
    let mut mp = MonitoringPoint::new(cfg.router_id as usize, &mcfg);
    println!("monitor {}: shipping to {}", cfg.router_id, cfg.center);

    loop {
        if sig::requested() {
            return Ok(());
        }
        let epoch_id = mp.epochs_finished();
        if cfg.epochs > 0 && epoch_id as usize >= cfg.epochs {
            println!(
                "monitor {}: {} epochs shipped, exiting",
                cfg.router_id, epoch_id
            );
            return Ok(());
        }
        let epoch_seed = seed.wrapping_add(epoch_id.wrapping_mul(EPOCH_SEED_STEP));
        let mut rng = StdRng::seed_from_u64(epoch_seed);
        let mut traffic = generate_epoch(
            &mut rng,
            &BackgroundConfig {
                packets: cfg.packets,
                flows: cfg.flows.max(1),
                zipf_exponent: 1.0,
                size_mix: SizeMix::constant(536),
            },
        );
        if cfg.content_packets > 0 {
            // The content object derives only from (content_seed, epoch),
            // so every infected monitor plants the same bytes.
            let mut content_rng = StdRng::seed_from_u64(cfg.content_seed.wrapping_add(epoch_id));
            let object =
                ContentObject::random_with_packets(&mut content_rng, cfg.content_packets, 536);
            Planting::aligned(object, 536).plant_into(&mut rng, &mut traffic);
        }
        mp.observe_all(&traffic);
        let chunks = mp.finish_epoch_chunks(cfg.max_payload)?;
        let end = run_monitor_epoch(
            &mut sock,
            &chunks,
            &MonitorEpochConfig {
                router_id: cfg.router_id,
                epoch_id,
                resend_after: cfg.resend_after,
                max_backoff: cfg.max_backoff,
                give_up: cfg.give_up,
            },
            &clock,
            &metrics,
        );
        match end {
            MonitorEpochEnd::Delivered => {
                println!(
                    "monitor {}: epoch {epoch_id} delivered ({} chunks)",
                    cfg.router_id,
                    chunks.len()
                );
            }
            MonitorEpochEnd::TimedOut => {
                eprintln!(
                    "monitor {}: epoch {epoch_id} abandoned after {} silent ticks",
                    cfg.router_id, cfg.give_up
                );
            }
            MonitorEpochEnd::Shutdown => {
                println!("monitor {}: centre sent shutdown", cfg.router_id);
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZeroShape;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn monitor_seed_comes_from_the_flag_then_the_config_then_the_router_id() {
        let path =
            std::env::temp_dir().join(format!("dcs-monitor-seed-{}.json", std::process::id()));
        let file = MonitorCliConfig {
            seed: Some(99),
            ..MonitorCliConfig::default()
        };
        std::fs::write(&path, serde_json::to_string(&file).unwrap()).unwrap();
        let path = path.to_str().unwrap();

        let configured = monitor_config(&mut args(&["--config", path, "--router", "5"])).unwrap();
        let flagged = monitor_config(&mut args(&["--config", path, "--seed", "3"])).unwrap();
        let plain = monitor_config(&mut args(&["--router", "5"])).unwrap();
        std::fs::remove_file(path).unwrap();

        assert_eq!(configured.traffic_seed(), 99);
        assert_eq!(flagged.traffic_seed(), 3);
        assert_eq!(plain.traffic_seed(), 5);
    }

    type Parse<C> = fn(&mut Vec<String>) -> Result<C, Box<dyn std::error::Error>>;

    /// What `parse` makes of a `--config` file holding `json`.
    fn parse_file<C>(
        name: &str,
        json: &str,
        parse: Parse<C>,
    ) -> Result<C, Box<dyn std::error::Error>> {
        let path = std::env::temp_dir().join(format!("dcs-{name}-{}.json", std::process::id()));
        std::fs::write(&path, json).unwrap();
        let result = parse(&mut args(&["--config", path.to_str().unwrap()]));
        std::fs::remove_file(&path).unwrap();
        result
    }

    /// The [`ZeroShape`] `parse` fails with on a `--config` file holding
    /// the default config with `edit` applied.
    fn config_zero_shape<C: Default + Serialize + std::fmt::Debug>(
        name: &str,
        edit: impl FnOnce(&mut C),
        parse: Parse<C>,
    ) -> ZeroShape {
        let mut file = C::default();
        edit(&mut file);
        let result = parse_file(name, &serde_json::to_string(&file).unwrap(), parse);
        *result.unwrap_err().downcast::<ZeroShape>().unwrap()
    }

    /// The error `parse` refuses the default config with `entry` (a
    /// `"key":value` pair) added in front of its fields.
    fn refused_with<C: Default + Serialize + std::fmt::Debug>(
        name: &str,
        entry: &str,
        parse: Parse<C>,
    ) -> String {
        let json = serde_json::to_string(&C::default()).unwrap();
        let json = json.replacen('{', &format!("{{{entry},"), 1);
        parse_file(name, &json, parse).unwrap_err().to_string()
    }

    #[test]
    fn a_config_that_names_a_transport_is_refused_by_each_role() {
        let entry = r#""transport":"tcp""#;
        for err in [
            refused_with("serve-transport", entry, serve_config),
            refused_with("monitor-transport", entry, monitor_config),
        ] {
            assert!(err.contains("unknown field `transport`"), "{err}");
        }
    }

    #[test]
    fn a_misspelt_config_key_is_refused_not_ignored() {
        let err = refused_with("monitor-seeds", r#""seeds":3"#, monitor_config);
        assert!(err.contains("unknown field `seeds`"), "{err}");
    }

    /// `--print-config` prints the pretty default; `--config` reads it
    /// back as the same settings.
    #[test]
    fn each_role_reads_back_the_config_it_prints() {
        let printed = serde_json::to_string_pretty(&ServeConfig::default()).unwrap();
        let serve = parse_file("serve-printed", &printed, serve_config).unwrap();
        assert_eq!(serde_json::to_string_pretty(&serve).unwrap(), printed);
        let printed = serde_json::to_string_pretty(&MonitorCliConfig::default()).unwrap();
        let monitor = parse_file("monitor-printed", &printed, monitor_config).unwrap();
        // The parser resolves the traffic seed; nothing else moves.
        let resolved = MonitorCliConfig {
            seed: Some(0),
            ..MonitorCliConfig::default()
        };
        assert_eq!(
            serde_json::to_string_pretty(&monitor).unwrap(),
            serde_json::to_string_pretty(&resolved).unwrap()
        );
    }

    fn monitor_zero_shape(name: &str, edit: impl FnOnce(&mut MonitorCliConfig)) -> ZeroShape {
        config_zero_shape(name, edit, monitor_config)
    }

    #[test]
    fn monitor_rejects_a_config_with_zero_aligned_bits() {
        let shape = monitor_zero_shape("monitor-zero-bits", |c| c.aligned_bits = 0);
        assert_eq!(shape, ZeroShape("aligned_bits"));
    }

    #[test]
    fn monitor_rejects_a_config_with_zero_groups() {
        let shape = monitor_zero_shape("monitor-zero-groups", |c| c.groups = 0);
        assert_eq!(shape, ZeroShape("groups"));
    }

    #[test]
    fn monitor_rejects_a_config_with_zero_give_up() {
        let shape = monitor_zero_shape("monitor-zero-give-up", |c| c.give_up = 0);
        assert_eq!(shape, ZeroShape("give_up"));
    }

    #[test]
    fn serve_rejects_zero_routers() {
        let result = serve_config(&mut args(&["--routers", "0"]));
        assert_eq!(
            *result.unwrap_err().downcast::<ZeroShape>().unwrap(),
            ZeroShape("routers")
        );
    }

    #[test]
    fn serve_rejects_a_config_with_a_zero_shape_field() {
        let rejects = |field: &'static str, edit: fn(&mut ServeConfig)| {
            let shape = config_zero_shape(&format!("serve-zero-{field}"), edit, serve_config);
            assert_eq!(shape, ZeroShape(field));
        };
        rejects("routers", |c| c.routers = 0);
        rejects("groups_per_router", |c| c.groups_per_router = 0);
        rejects("aligned_bits", |c| c.aligned_bits = 0);
    }
}
