//! Wire-speed socket soak (PR 9 acceptance): the paper's 24-router ×
//! 4-Mbit scale pushed through REAL localhost sockets with ≥10% injected
//! impairment at the socket boundary.
//!
//! * every epoch reaches quorum (or yields a typed `QuorumTooSmall` —
//!   never a panic), and the detection set is byte-identical to the
//!   in-memory `LossyChannel` path fed the same digests;
//! * a mid-soak centre kill/restart rebinds the same port, resumes from a
//!   DCSK checkpoint, and the monitors' resend buffers replay the missing
//!   chunks over the socket with no detection divergence;
//! * an undersubscribed epoch (22 of 24 monitors dead) degrades to the
//!   typed quorum error through the same socket machinery;
//! * the `dcs-cli serve`/`monitor` processes produce byte-identical
//!   report lines across a SIGTERM + `--resume` restart (satellite:
//!   graceful-shutdown flush).
//!
//! Scale knobs: `DCS_SOCKET_BITS` (default 4 Mbit) and
//! `DCS_SOCKET_EPOCHS` (default 2) trade runtime for coverage.

use dcs_core::clock::{Clock, TickClock};
use dcs_core::net::{
    run_center_epoch, run_monitor_epoch, CenterEpochEnd, CenterSocket, ImpairmentConfig,
    ImpairmentShim, MonitorEpochConfig, MonitorEpochEnd, MonitorSocket, Transport,
};
use dcs_core::session::{CollectorConfig, EpochCollector, StragglerPolicy};
use dcs_core::transport::{chunk_bundle, DATAGRAM_SAFE_PAYLOAD};
use dcs_core::{AnalysisCenter, IngestError, MetricsRegistry, MetricsSnapshot};
use dcs_sim::channel::{ChannelConfig, LossyChannel};
use dcs_sim::hop::{drive_hop, Sender};
use dcs_sim::soak::SoakConfig;
use std::io::Write;
use std::net::SocketAddr;
use std::time::Duration;

const ROUTERS: usize = 24;
/// One wall-clock tick of the real-socket tests.
const TICK: Duration = Duration::from_micros(200);
/// Harness cap: a socket epoch that has not converged after this many
/// ticks (2 minutes) is a bug, not a slow network.
const TICK_CAP: u64 = 600_000;

fn socket_bits() -> usize {
    match std::env::var("DCS_SOCKET_BITS") {
        Ok(v) => v.parse().expect("DCS_SOCKET_BITS must be an integer"),
        // The paper's aligned-bitmap width for one OC-48 link.
        Err(_) => 4 * 1024 * 1024,
    }
}

fn socket_epochs() -> usize {
    match std::env::var("DCS_SOCKET_EPOCHS") {
        Ok(v) => v.parse().expect("DCS_SOCKET_EPOCHS must be an integer"),
        Err(_) => 2,
    }
}

/// The standard soak regime — `ROUTERS` monitoring points, the planted
/// content on the first 20 — with aligned bitmaps `bits` wide.
fn regime(bits: usize) -> SoakConfig {
    SoakConfig {
        aligned_bits: bits,
        ..SoakConfig::standard(1, 0)
    }
}

/// WaitAll with an effectively-infinite deadline and retransmit budget:
/// a 4-Mbit bundle is ~385 datagrams, and 24 monitors each sending a
/// full window ahead of their acks still overfill one default kernel
/// receive buffer, so recovery takes several NACK rounds (the default
/// 10-retry session would give up and finalize an empty epoch).
/// Completeness comes from the monitors' delivery guarantee, liveness
/// from [`TICK_CAP`].
fn collector_cfg() -> CollectorConfig {
    CollectorConfig {
        deadline: 1 << 40,
        straggler: StragglerPolicy::WaitAll,
        session: dcs_core::session::SessionConfig {
            base_backoff: 50,
            max_backoff: 2_000,
            max_retries: 100_000,
            jitter: 4,
        },
    }
}

fn all_ids() -> Vec<u64> {
    (0..ROUTERS as u64).collect()
}

/// The in-memory reference: the same frames through the virtual-tick
/// `LossyChannel` under the soak impairment regime, shipped by the
/// deployed sender and answered by the deployed receiver, analysed by
/// the same centre shape.
fn reference_fingerprint(frames: &[Vec<u8>], seed: u64, cfg: &SoakConfig) -> String {
    const HOP_CAP: u64 = 1_000_000;
    let chunks: Vec<Vec<Vec<u8>>> = frames
        .iter()
        .enumerate()
        .map(|(id, f)| chunk_bundle(id as u64, 0, f, DATAGRAM_SAFE_PAYLOAD))
        .collect();
    let timers = collector_cfg().session;
    let mut senders: Vec<Sender> = (chunks.iter().enumerate())
        .map(|(id, chunks)| {
            let cfg = MonitorEpochConfig {
                router_id: id as u64,
                epoch_id: 0,
                resend_after: timers.base_backoff,
                max_backoff: timers.max_backoff,
                give_up: HOP_CAP,
            };
            Sender::new(0, chunks, &cfg, 0)
        })
        .collect();
    let mut channel = [LossyChannel::new(ChannelConfig::soak(), seed ^ 0x10CA)];
    let mut coll = [EpochCollector::new(0, all_ids(), collector_cfg(), seed, 0)];
    let mut now = 0u64;
    let converged = drive_hop(
        &mut channel,
        &mut coll,
        &mut senders,
        &mut now,
        HOP_CAP,
        |_, _, _| {},
    );
    assert!(converged, "in-memory reference failed to converge");
    let epoch = coll[0].finalize(now);
    assert!(epoch.exclusions.is_empty());
    let report = AnalysisCenter::new(cfg.analysis_config())
        .analyze_epoch_collected(&epoch)
        .expect("reference epoch reaches quorum");
    report.detection_fingerprint()
}

/// Spawns one monitoring-point thread: connect, impair ≥10% of outgoing
/// frames, deliver the bundle with session-layer resends, return the
/// thread's socket metrics.
fn spawn_monitor(
    id: usize,
    frame: Vec<u8>,
    addr: SocketAddr,
    impair: ImpairmentConfig,
    seed: u64,
) -> std::thread::JoinHandle<MetricsSnapshot> {
    std::thread::spawn(move || {
        // Stagger the starts a little so 24 threads do not land their
        // first send windows in the same kernel buffer instant.
        std::thread::sleep(Duration::from_millis(id as u64));
        let metrics = MetricsRegistry::new();
        let clock = TickClock::new(TICK);
        let mut sock = MonitorSocket::connect(addr, Transport::Udp).expect("connect to centre");
        if impair != ImpairmentConfig::perfect() {
            sock.set_shim(ImpairmentShim::new(
                impair,
                seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
        }
        let chunks = chunk_bundle(id as u64, 0, &frame, DATAGRAM_SAFE_PAYLOAD);
        let end = run_monitor_epoch(
            &mut sock,
            &chunks,
            &MonitorEpochConfig {
                router_id: id as u64,
                epoch_id: 0,
                resend_after: 50,
                max_backoff: 2_000,
                give_up: TICK_CAP,
            },
            &clock,
            &metrics,
        );
        assert!(
            matches!(end, MonitorEpochEnd::Delivered),
            "router {id} failed to deliver: {end:?}"
        );
        metrics.snapshot()
    })
}

/// Collects one epoch over a real socket. `kill_at` simulates a centre
/// crash once that many sessions are complete: checkpoint, drop the
/// socket (the port actually closes — monitors see refused datagrams),
/// rebind the SAME address, resume from the checkpoint bytes.
fn socket_epoch(
    frames: &[Vec<u8>],
    seed: u64,
    cfg: &SoakConfig,
    impair: ImpairmentConfig,
    kill_at: Option<usize>,
) -> (String, MetricsSnapshot, Vec<MetricsSnapshot>) {
    let metrics = MetricsRegistry::new();
    let clock = TickClock::new(TICK);
    let mut sock = CenterSocket::bind("127.0.0.1:0", Transport::Udp).expect("bind centre");
    let addr = sock.local_addr().expect("local addr");

    let handles: Vec<_> = frames
        .iter()
        .enumerate()
        .map(|(id, f)| spawn_monitor(id, f.clone(), addr, impair, seed))
        .collect();

    let mut coll = EpochCollector::new(0, all_ids(), collector_cfg(), seed, clock.now());
    let mut resumes = 0usize;
    if let Some(threshold) = kill_at {
        let end = run_center_epoch(&mut sock, &mut coll, &clock, &metrics, |c| {
            assert!(clock.now() < TICK_CAP, "socket epoch failed to converge");
            c.complete_sessions() >= threshold
        });
        assert!(
            matches!(end, CenterEpochEnd::Aborted),
            "collection outran the planned crash — lower the threshold"
        );
        // The crash: only the DCSK bytes survive. The port closes with
        // the socket; in-flight datagrams bounce until the rebind.
        let ckpt = coll.checkpoint();
        drop(sock);
        drop(coll);
        std::thread::sleep(Duration::from_millis(5));
        sock = CenterSocket::bind(addr, Transport::Udp).expect("rebind after crash");
        coll = EpochCollector::resume(&ckpt, collector_cfg(), seed, clock.now())
            .expect("own checkpoint must resume");
        resumes += 1;
    }
    let end = run_center_epoch(&mut sock, &mut coll, &clock, &metrics, |_| {
        assert!(clock.now() < TICK_CAP, "socket epoch failed to converge");
        false
    });
    let CenterEpochEnd::Collected(epoch) = end else {
        unreachable!("abort hook never fires here");
    };
    assert_eq!(epoch.exclusions.len(), 0);
    assert_eq!(resumes, usize::from(kill_at.is_some()));

    let report = AnalysisCenter::new(cfg.analysis_config())
        .analyze_epoch_collected(&epoch)
        .expect("socket epoch reaches quorum");
    let fp = report.detection_fingerprint();
    let monitor_snaps: Vec<MetricsSnapshot> = handles
        .into_iter()
        .map(|h| h.join().expect("monitor thread panicked"))
        .collect();
    (fp, metrics.snapshot(), monitor_snaps)
}

fn sum_counter(snaps: &[MetricsSnapshot], key: &str) -> u64 {
    snaps.iter().filter_map(|s| s.counter(key)).sum()
}

/// The headline soak: paper scale through real UDP sockets, every epoch's
/// detection set byte-identical to the in-memory LossyChannel path, with
/// the impairment shim provably biting ≥10% of outgoing frames.
#[test]
fn wire_soak_at_paper_scale_matches_the_in_memory_path() {
    let cfg = regime(socket_bits());
    let epochs = socket_epochs();
    let mut sent = 0u64;
    let mut impaired = 0u64;
    let (mut chunks, mut center_sent, mut center_stalls) = (0u64, 0u64, 0u64);
    for e in 0..epochs {
        let seed = 0x0050_C4E7_u64.wrapping_add(e as u64 * 0x9E37_79B9_7F4A_7C15);
        let frames = cfg.leaf_frames(seed);
        let reference = reference_fingerprint(&frames, seed, &cfg);
        let (fp, center_snap, monitor_snaps) =
            socket_epoch(&frames, seed, &cfg, ImpairmentConfig::soak(), None);
        assert_eq!(
            fp, reference,
            "epoch {e}: socket detection set diverged from the in-memory path"
        );
        assert!(
            fp.contains("\"found\":true"),
            "epoch {e}: the comparison must not be vacuous — planted content undetected"
        );
        // The socket-path metrics fed dcs-obs: frames moved, the
        // reassembly-backlog gauge settled back to zero.
        assert!(
            center_snap
                .counter("socket_frames_received_total{role=center}")
                .unwrap_or(0)
                > 0
        );
        assert_eq!(center_snap.gauge("socket_reassembly_backlog"), Some(0));
        sent += sum_counter(&monitor_snaps, "socket_frames_sent_total{role=monitor}");
        chunks += (frames.iter().enumerate())
            .map(|(id, f)| chunk_bundle(id as u64, 0, f, DATAGRAM_SAFE_PAYLOAD).len() as u64)
            .sum::<u64>();
        let center = |name: &str| center_snap.counter(name).unwrap_or(0);
        center_sent += center("socket_frames_sent_total{role=center}");
        center_stalls += center("socket_send_stalls_total{role=center}");
        for kind in ["drop", "duplicate", "reorder", "corrupt"] {
            impaired += sum_counter(
                &monitor_snaps,
                &format!("socket_impaired_total{{kind={kind}}}"),
            );
        }
    }
    // Written past the test harness's capture, which holds back
    // `println!` of a passing test, so every run's log carries the trend
    // of what the gates below bound.
    let _ = writeln!(
        std::io::stderr(),
        "socket soak: {epochs} epochs, {chunks} unique chunks, {sent} monitor frames \
         (send amplification {:.2}x), {center_sent} centre frames, {center_stalls} centre stalls",
        sent as f64 / chunks as f64
    );
    // ≥10% of the monitors' outgoing frames were impaired at the socket
    // boundary (the configured regime is 10% drop + 3/5/2% dup/reo/corr;
    // `sent` already excludes the dropped frames, so the ratio holds).
    assert!(
        impaired * 10 >= (sent + impaired),
        "only {impaired} impairments across {sent} sent frames"
    );
    // Send amplification (monitor frames sent ÷ unique chunks) measured
    // 1.85–2.02× over ten runs at this scale on a 2-vCPU Xeon, and
    // 2.08–2.37× with both threads on one CPU: each monitor keeps at
    // most one send window ahead of its acks, but 24 windows together
    // still overfill the kernel receive buffer, and the drops come back
    // as gap NACKs and tail probes. The worst run is under 75 % of the
    // 3.5× gate, and a monitor that sends its whole bundle at once
    // (≈ 8×) fails it.
    assert!(
        2 * sent <= 7 * chunks,
        "{sent} monitor frames for {chunks} unique chunks"
    );
    // The centre's WouldBlock stalls ÷ frames it sent measures 0.0; 0.25
    // trips only if its send path starts genuinely thrashing.
    assert!(
        center_sent > 0 && 4 * center_stalls <= center_sent,
        "{center_stalls} stalls across {center_sent} centre frames"
    );
}

/// Mid-soak centre crash at paper scale: the rebound socket resumes from
/// the DCSK checkpoint, the monitors replay their unacked chunks over the
/// wire, and detection is byte-identical to the in-memory reference.
#[test]
fn mid_soak_centre_kill_restart_recovers_over_the_socket() {
    let cfg = regime(socket_bits());
    let seed = 0x0C4A_54ED_u64;
    let frames = cfg.leaf_frames(seed);
    let reference = reference_fingerprint(&frames, seed, &cfg);
    let (fp, _, _) = socket_epoch(
        &frames,
        seed,
        &cfg,
        ImpairmentConfig::soak(),
        Some(ROUTERS / 4),
    );
    assert_eq!(
        fp, reference,
        "detection diverged across the kill/restart recovery"
    );
    assert!(fp.contains("\"found\":true"));
}

/// Graceful degradation end to end: 22 of 24 monitors never start, the
/// deadline trips on the real clock, and the analysis comes back as a
/// typed `QuorumTooSmall` — no panic anywhere on the socket path.
#[test]
fn undersubscribed_epoch_yields_typed_quorum_too_small_over_the_socket() {
    let cfg = regime(1 << 14);
    let seed = 0x0DD;
    let frames = cfg.leaf_frames(seed);
    let metrics = MetricsRegistry::new();
    let clock = TickClock::new(TICK);
    let mut sock = CenterSocket::bind("127.0.0.1:0", Transport::Udp).expect("bind centre");
    let addr = sock.local_addr().expect("local addr");

    let handles: Vec<_> = frames
        .iter()
        .take(2)
        .enumerate()
        .map(|(id, f)| spawn_monitor(id, f.clone(), addr, ImpairmentConfig::perfect(), seed))
        .collect();

    let ccfg = CollectorConfig {
        deadline: 2_500, // half a second of 200µs ticks
        straggler: StragglerPolicy::Deadline,
        ..Default::default()
    };
    let mut coll = EpochCollector::new(0, all_ids(), ccfg, seed, clock.now());
    let end = run_center_epoch(&mut sock, &mut coll, &clock, &metrics, |_| {
        assert!(clock.now() < TICK_CAP);
        false
    });
    let CenterEpochEnd::Collected(epoch) = end else {
        unreachable!()
    };
    assert_eq!(epoch.exclusions.len(), ROUTERS - 2, "22 typed exclusions");

    match AnalysisCenter::new(cfg.analysis_config()).analyze_epoch_collected(&epoch) {
        Err(IngestError::QuorumTooSmall { required, report }) => {
            assert_eq!(required, 16);
            assert_eq!(report.accepted.len(), 2);
        }
        other => panic!("expected the typed quorum error, got {other:?}"),
    }
    for h in handles {
        h.join().expect("monitor thread panicked");
    }
}

// ---------------------------------------------------------------------
// Process-level: dcs-cli serve / monitor across a SIGTERM restart
// ---------------------------------------------------------------------

mod cli {
    use std::collections::BTreeMap;
    use std::path::Path;
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    const BIN: &str = env!("CARGO_BIN_EXE_dcs-cli");
    // Detection power needs the paper's infected majority; smaller
    // deployments still transport fine but report `found:false`.
    const CLI_ROUTERS: usize = 24;
    const CLI_INFECTED: usize = 20;

    fn spawn_serve(dir: &Path, port: u16, epochs: usize, resume: bool) -> Child {
        let mut cmd = Command::new(BIN);
        cmd.current_dir(dir)
            .args(["serve", "--bind"])
            .arg(format!("127.0.0.1:{port}"))
            .args(["--routers", &CLI_ROUTERS.to_string()])
            .args(["--epochs", &epochs.to_string()])
            .args(["--wait-all", "true"])
            .args(["--checkpoint", "ckpt.dcsk"])
            .args(["--metrics-json", "metrics.json"])
            .args(["--report", "report.jsonl"])
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if resume {
            cmd.args(["--resume", "ckpt.dcsk"]);
        }
        cmd.spawn().expect("spawn dcs-cli serve")
    }

    fn spawn_monitors(dir: &Path, port: u16, epochs: usize) -> Vec<Child> {
        (0..CLI_ROUTERS)
            .map(|r| {
                let mut cmd = Command::new(BIN);
                cmd.current_dir(dir)
                    .args(["monitor", "--center"])
                    .arg(format!("127.0.0.1:{port}"))
                    .args(["--router", &r.to_string()])
                    .args(["--epochs", &epochs.to_string()]);
                if r < CLI_INFECTED {
                    cmd.arg("--infected");
                }
                cmd.stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("spawn dcs-cli monitor")
            })
            .collect()
    }

    fn wait_for_report_lines(dir: &Path, n: usize) -> Vec<String> {
        let path = dir.join("report.jsonl");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let lines: Vec<String> = std::fs::read_to_string(&path)
                .unwrap_or_default()
                .lines()
                .map(str::to_owned)
                .collect();
            if lines.len() >= n {
                return lines;
            }
            assert!(
                Instant::now() < deadline,
                "report.jsonl never reached {n} lines"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// epoch -> full report line, keyed so runs can be compared even if
    /// one run analysed extra epochs.
    fn by_epoch(lines: &[String]) -> BTreeMap<u64, String> {
        lines
            .iter()
            .map(|l| {
                let epoch = l
                    .split("\"epoch\":")
                    .nth(1)
                    .and_then(|t| t.split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|d| d.parse().ok())
                    .expect("report line carries an epoch id");
                (epoch, l.clone())
            })
            .collect()
    }

    fn reap(mut children: Vec<Child>) {
        for c in &mut children {
            let status = c.wait().expect("wait for child");
            assert!(status.success(), "child exited with {status}");
        }
    }

    /// Satellite: SIGTERM mid-run flushes a final DCSK checkpoint, and a
    /// `--resume` restart produces byte-identical report lines to an
    /// uninterrupted run fed the same monitor processes.
    #[test]
    fn serve_sigterm_resume_is_report_identical() {
        let base = std::env::temp_dir().join(format!("dcs-socket-cli-{}", std::process::id()));

        // Uninterrupted run: 2 epochs straight through.
        let dir_a = base.join("a");
        std::fs::create_dir_all(&dir_a).expect("mkdir");
        let serve_a = spawn_serve(&dir_a, 47431, 2, false);
        let mons_a = spawn_monitors(&dir_a, 47431, 2);
        let lines_a = wait_for_report_lines(&dir_a, 2);
        reap(vec![serve_a]);
        reap(mons_a);

        // Interrupted run: SIGTERM after epoch 0's line appears, then a
        // --resume restart picks epoch 1 back up mid-collection while
        // the monitor processes keep retrying on backoff.
        let dir_b = base.join("b");
        std::fs::create_dir_all(&dir_b).expect("mkdir");
        let mut serve_b = spawn_serve(&dir_b, 47432, 2, false);
        let mons_b = spawn_monitors(&dir_b, 47432, 2);
        wait_for_report_lines(&dir_b, 1);
        let kill = Command::new("kill")
            .args(["-TERM", &serve_b.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(kill.success());
        let status = serve_b.wait().expect("serve exits on SIGTERM");
        assert!(status.success(), "SIGTERM exit must be graceful");
        assert!(
            dir_b.join("ckpt.dcsk").exists() && dir_b.join("metrics.json").exists(),
            "shutdown must flush the checkpoint and metrics snapshot"
        );

        let serve_b2 = spawn_serve(&dir_b, 47432, 1, true);
        let lines_b = wait_for_report_lines(&dir_b, 2);
        reap(vec![serve_b2]);
        reap(mons_b);

        let a = by_epoch(&lines_a);
        let b = by_epoch(&lines_b);
        for epoch in a.keys() {
            assert_eq!(
                a.get(epoch),
                b.get(epoch),
                "epoch {epoch} report diverged across the SIGTERM restart"
            );
        }
        assert!(
            a.values().any(|l| l.contains("\\\"found\\\":true")),
            "the comparison must not be vacuous"
        );
        std::fs::remove_dir_all(&base).ok();
    }
}
