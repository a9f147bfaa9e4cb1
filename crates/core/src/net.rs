//! Real-socket transport: the UDP binding of the delivery protocol, plus
//! the in-process impairment shim the wire-speed soak injects faults
//! with.
//!
//! The protocol itself lives in [`crate::session`], as two state machines
//! that do no IO: the sender ([`SendSession`]) and the receiver
//! ([`EpochCollector::answer`]). Frames and ticks go in; frames and seqs
//! come out. This module only moves their frames. [`run_monitor_epoch`]
//! and [`run_center_epoch`] read time from a [`Clock`], put what the
//! machines decide on a UDP socket, and feed back what arrives. The
//! virtual-time hop in `dcs-sim` drives the same two machines over a
//! simulated channel, so the seeded soaks test the sender that ships
//! here.
//!
//! Centre → monitor traffic is the **DCSN control frame**
//! ([`ControlFrame`]: acks, retransmit requests, epoch advance,
//! shutdown), one per datagram:
//!
//! ```text
//!  ┌───────┬───┬──────┬───────────┬──────────┬─────┬───────┬────────┬───────┐
//!  │ magic │ v │ kind │ router id │ epoch id │ arg │ nseqs │ seqs…  │ CRC32 │
//!  │ DCSN  │ 1 │  u8  │    u64    │   u64    │ u32 │  u32  │ u32×n  │  u32  │
//!  └───────┴───┴──────┴───────────┴──────────┴─────┴───────┴────────┴───────┘
//! ```
//!
//! Every chunk frame travels in one datagram too: chunk payloads must
//! stay datagram-safe ([`crate::transport::DATAGRAM_SAFE_PAYLOAD`]). The
//! centre learns each router's address from the headers of the frames it
//! receives, so a centre restart needs no reconfiguration.
//!
//! Graceful degradation is the design rule: every socket error becomes a
//! metric and a typed outcome (a dropped frame, an exclusion, a
//! `QuorumTooSmall`), never a panic. A dead monitor is indistinguishable
//! from a lossy link, which is exactly what the session layer's
//! deadline/backoff machinery already handles; a dead *centre* is
//! handled by monitors re-pushing unacked chunks on capped backoff until
//! the resumed centre (restored from a DCSK checkpoint) NACKs or acks
//! them over the new socket. An idle driver waits on its socket until a
//! datagram is readable or a 200 µs tick passes.

use crate::clock::Clock;
use crate::session::{CollectedEpoch, EpochCollector, SendSession, SendStep, MAX_DATAGRAM};
use crate::transport::ChunkFrame;
use dcs_obs::MetricsRegistry;
use std::collections::{BTreeMap, VecDeque};
use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

pub use crate::session::{
    ControlFrame, MonitorEpochConfig, MonitorEpochEnd, CONTROL_HEADER, CONTROL_MAGIC,
    CONTROL_VERSION, MAX_NACK_SEQS, SEND_WINDOW,
};

/// The longest an idle driver waits for a frame before it looks at its
/// timers again.
const WAIT_TICK: Duration = Duration::from_micros(200);

// ---------------------------------------------------------------------
// Impairment shim
// ---------------------------------------------------------------------

/// Impairment probabilities, in per-mille, applied to outgoing frames
/// *before* they reach the socket. The shim is how the soak makes a real
/// localhost link behave like a lossy WAN while staying deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImpairmentConfig {
    /// Frame silently dropped (‰).
    pub drop_per_mille: u16,
    /// Frame sent twice (‰).
    pub duplicate_per_mille: u16,
    /// Frame held back and released after the next send (‰).
    pub reorder_per_mille: u16,
    /// One bit of the frame flipped (‰) — the CRC layer must catch it.
    pub corrupt_per_mille: u16,
}

impl ImpairmentConfig {
    /// No impairment.
    pub fn perfect() -> Self {
        ImpairmentConfig {
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            reorder_per_mille: 0,
            corrupt_per_mille: 0,
        }
    }

    /// The soak regime: 10% drop, 5% reorder, 3% duplicate, 2% corrupt —
    /// ≥10% of frames impaired, matching the simulated
    /// `ChannelConfig::soak()` severity.
    pub fn soak() -> Self {
        ImpairmentConfig {
            drop_per_mille: 100,
            duplicate_per_mille: 30,
            reorder_per_mille: 50,
            corrupt_per_mille: 20,
        }
    }
}

/// Deterministic fault injector at the socket boundary (SplitMix64
/// driven, so a seeded soak replays bit-identically).
#[derive(Debug)]
pub struct ImpairmentShim {
    cfg: ImpairmentConfig,
    state: u64,
    held: Option<Vec<u8>>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ImpairmentShim {
    /// A shim applying `cfg` with deterministic decisions from `seed`.
    pub fn new(cfg: ImpairmentConfig, seed: u64) -> Self {
        ImpairmentShim {
            cfg,
            state: seed ^ 0x5EED_50CC_E75B_0B0B,
            held: None,
        }
    }

    fn chance(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && splitmix64(&mut self.state) % 1000 < per_mille as u64
    }

    /// Applies the impairment schedule to one outgoing frame, returning
    /// the frames to actually put on the wire (possibly none, possibly
    /// several, possibly corrupted). Each impairment increments
    /// `socket_impaired_total{kind}` in `metrics`.
    pub fn outgoing(&mut self, frame: &[u8], metrics: &MetricsRegistry) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(2);
        if self.chance(self.cfg.drop_per_mille) {
            metrics
                .counter("socket_impaired_total", &[("kind", "drop")])
                .inc();
            // A drop still releases any held frame: the link stays live.
            out.extend(self.held.take());
            return out;
        }
        let mut frame = frame.to_vec();
        if self.chance(self.cfg.corrupt_per_mille) && !frame.is_empty() {
            let bit = splitmix64(&mut self.state) as usize % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            metrics
                .counter("socket_impaired_total", &[("kind", "corrupt")])
                .inc();
        }
        let duplicate = self.chance(self.cfg.duplicate_per_mille);
        if self.chance(self.cfg.reorder_per_mille) {
            metrics
                .counter("socket_impaired_total", &[("kind", "reorder")])
                .inc();
            // Hold this frame back; release the previously held one (if
            // any) in its place.
            out.extend(self.held.replace(frame.clone()));
        } else {
            out.push(frame.clone());
            out.extend(self.held.take());
        }
        if duplicate {
            metrics
                .counter("socket_impaired_total", &[("kind", "duplicate")])
                .inc();
            out.push(frame);
        }
        out
    }

    /// Releases a held reordered frame, if any. Call when a send burst
    /// ends so nothing is withheld forever.
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        self.held.take()
    }
}

// ---------------------------------------------------------------------
// Sockets
// ---------------------------------------------------------------------

/// Which transport a socket endpoint runs on: UDP, one frame per
/// datagram, is the only one. The enum keeps its one variant because the
/// end-to-end benchmark's frozen adapter names `Transport::Udp`; it goes
/// when that adapter is re-baselined (ROADMAP item 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One frame per datagram.
    Udp,
}

/// Extracts the routing identity of a received frame: DCSC chunk headers
/// and DCSN control frames both carry the router id up front.
fn frame_router_id(frame: &[u8]) -> Option<u64> {
    if frame.starts_with(&CONTROL_MAGIC) {
        return ControlFrame::decode(frame).ok().map(|c| c.router_id());
    }
    ChunkFrame::salvage_header(frame).map(|(router_id, _, _)| router_id)
}

/// Opens a nonblocking UDP socket on `addr` whose blocking reads time out
/// after [`WAIT_TICK`] (see [`wait_readable`]).
fn open_udp(addr: impl ToSocketAddrs) -> std::io::Result<UdpSocket> {
    let udp = UdpSocket::bind(addr)?;
    udp.set_nonblocking(true)?;
    udp.set_read_timeout(Some(WAIT_TICK))?;
    Ok(udp)
}

/// Waits until a datagram is readable on `udp` or [`WAIT_TICK`] passes,
/// leaving the datagram queued (`peek`) and the socket nonblocking. The
/// socket's read timeout is `WAIT_TICK` (set when it is opened). An error
/// that returns at once, such as a refusal reported back from a dead
/// peer, sleeps out the rest of the tick, so a dead peer cannot spin a
/// driver.
fn wait_readable(udp: &UdpSocket) {
    let started = Instant::now();
    let waited = udp.set_nonblocking(false).is_ok()
        && match udp.peek_from(&mut [0u8; 1]) {
            Ok(_) => true,
            Err(e) => matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        };
    // A socket left blocking would still return from every read within
    // the read timeout, so a failure here slows a driver, never hangs it.
    let _ = udp.set_nonblocking(true);
    if !waited {
        std::thread::sleep(WAIT_TICK.saturating_sub(started.elapsed()));
    }
}

/// The analysis centre's socket endpoint: binds UDP, learns peer
/// addresses from received frames, and queues outgoing control frames
/// with stall-aware nonblocking sends.
#[derive(Debug)]
pub struct CenterSocket {
    udp: UdpSocket,
    peers: BTreeMap<u64, SocketAddr>,
    outq: VecDeque<(SocketAddr, Vec<u8>)>,
    scratch: Vec<u8>,
    shim: Option<ImpairmentShim>,
}

const ROLE_CENTER: [(&str, &str); 1] = [("role", "center")];
const ROLE_MONITOR: [(&str, &str); 1] = [("role", "monitor")];

/// The counter families both ends count under their `role` label.
const ROLE_COUNTERS: [&str; 5] = [
    "socket_frames_sent_total",
    "socket_frames_received_total",
    "socket_send_stalls_total",
    "socket_send_errors_total",
    "socket_recv_errors_total",
];

/// Registers `names` under `role` at zero: a driver does this when it
/// starts an epoch, so a snapshot names every family it can count before
/// the first event, as the centre's registry does (DESIGN §8).
fn register_counters(metrics: &MetricsRegistry, role: &[(&str, &str)], names: &[&str]) {
    for name in names {
        metrics.counter(name, role);
    }
}

/// Puts one queued frame on the wire through `send` and counts the
/// outcome. Returns false on a full socket buffer (a stall), and the
/// caller keeps the frame queued; any other error drops the frame.
fn send_counted(
    frame: &[u8],
    send: impl FnOnce(&[u8]) -> std::io::Result<usize>,
    role: &[(&str, &str)],
    metrics: &MetricsRegistry,
) -> bool {
    match send(frame) {
        Ok(_) => metrics.counter("socket_frames_sent_total", role).inc(),
        Err(e) if e.kind() == ErrorKind::WouldBlock => {
            metrics.counter("socket_send_stalls_total", role).inc();
            return false;
        }
        // A dead peer refuses datagrams; nothing is lost that the
        // protocol's timers do not recover.
        Err(_) => metrics.counter("socket_send_errors_total", role).inc(),
    }
    true
}

impl CenterSocket {
    /// Binds the centre endpoint on `addr` (e.g. `127.0.0.1:0`).
    pub fn bind(addr: impl ToSocketAddrs, transport: Transport) -> std::io::Result<CenterSocket> {
        let Transport::Udp = transport;
        Ok(CenterSocket {
            udp: open_udp(addr)?,
            peers: BTreeMap::new(),
            outq: VecDeque::new(),
            scratch: vec![0u8; MAX_DATAGRAM],
            shim: None,
        })
    }

    /// Injects an impairment shim on the centre's outgoing frames.
    pub fn set_shim(&mut self, shim: ImpairmentShim) {
        self.shim = Some(shim);
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.udp.local_addr()
    }

    /// Drains every readable datagram, learns peer addresses from frame
    /// headers, flushes the outgoing queue, and updates the socket
    /// gauges.
    pub fn poll(&mut self, metrics: &MetricsRegistry) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        loop {
            match self.udp.recv_from(&mut self.scratch) {
                Ok((n, src)) => {
                    let frame = self.scratch[..n].to_vec();
                    if let Some(router_id) = frame_router_id(&frame) {
                        self.peers.insert(router_id, src);
                    }
                    frames.push(frame);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Spurious ICMP-derived errors on Linux; typed count,
                    // keep serving.
                    metrics
                        .counter("socket_recv_errors_total", &ROLE_CENTER)
                        .inc();
                    break;
                }
            }
        }
        metrics
            .counter("socket_frames_received_total", &ROLE_CENTER)
            .add(frames.len() as u64);
        self.flush(metrics);
        frames
    }

    /// Queues a control frame to `router_id`'s learned address. Returns
    /// false (and counts `socket_unknown_peer_total`) when the router has
    /// never been heard from — the caller's timers cover that monitor.
    pub fn send_control(&mut self, control: &ControlFrame, metrics: &MetricsRegistry) -> bool {
        let Some(&peer) = self.peers.get(&control.router_id()) else {
            metrics.counter("socket_unknown_peer_total", &[]).inc();
            return false;
        };
        let encoded = control.encode();
        match &mut self.shim {
            Some(shim) => {
                for frame in shim.outgoing(&encoded, metrics) {
                    self.outq.push_back((peer, frame));
                }
            }
            None => self.outq.push_back((peer, encoded)),
        }
        self.flush(metrics);
        true
    }

    /// Sends `control` to every known peer.
    pub fn broadcast(&mut self, make: impl Fn(u64) -> ControlFrame, metrics: &MetricsRegistry) {
        let routers: Vec<u64> = self.peers.keys().copied().collect();
        for router_id in routers {
            self.send_control(&make(router_id), metrics);
        }
    }

    fn flush(&mut self, metrics: &MetricsRegistry) {
        while let Some((peer, frame)) = self.outq.front() {
            if !send_counted(frame, |f| self.udp.send_to(f, peer), &ROLE_CENTER, metrics) {
                break;
            }
            self.outq.pop_front();
        }
        metrics
            .gauge("socket_send_queue_depth", &ROLE_CENTER)
            .set(self.outq.len() as u64);
    }
}

/// A monitoring point's socket endpoint: a UDP socket connected to the
/// centre, with the impairment shim (if any) on the outgoing data path.
#[derive(Debug)]
pub struct MonitorSocket {
    udp: UdpSocket,
    outq: VecDeque<Vec<u8>>,
    scratch: Vec<u8>,
    shim: Option<ImpairmentShim>,
}

impl MonitorSocket {
    /// Connects to the centre at the first address `center` resolves to.
    pub fn connect(
        center: impl ToSocketAddrs,
        transport: Transport,
    ) -> std::io::Result<MonitorSocket> {
        let Transport::Udp = transport;
        let addr = (center.to_socket_addrs()?.next())
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no addr"))?;
        // The unspecified address of the centre's family: the kernel
        // picks the source address that routes to it.
        let local: SocketAddr = if addr.is_ipv4() {
            (Ipv4Addr::UNSPECIFIED, 0).into()
        } else {
            (Ipv6Addr::UNSPECIFIED, 0).into()
        };
        let udp = open_udp(local)?;
        udp.connect(addr)?;
        Ok(MonitorSocket {
            udp,
            outq: VecDeque::new(),
            scratch: vec![0u8; MAX_DATAGRAM],
            shim: None,
        })
    }

    /// Injects an impairment shim on this monitor's outgoing frames.
    pub fn set_shim(&mut self, shim: ImpairmentShim) {
        self.shim = Some(shim);
    }

    /// Queues one frame (data chunk or Hello) through the shim and
    /// flushes what the socket will take.
    pub fn send(&mut self, frame: &[u8], metrics: &MetricsRegistry) {
        match &mut self.shim {
            Some(shim) => {
                let impaired = shim.outgoing(frame, metrics);
                self.outq.extend(impaired);
            }
            None => self.outq.push_back(frame.to_vec()),
        }
        self.flush(metrics);
    }

    /// Releases any frame the shim is holding back (end of a burst).
    pub fn flush_shim(&mut self, metrics: &MetricsRegistry) {
        if let Some(frame) = self.shim.as_mut().and_then(|s| s.flush()) {
            self.outq.push_back(frame);
        }
        self.flush(metrics);
    }

    /// Drains readable control frames from the centre (and flushes the
    /// outgoing queue).
    pub fn poll(&mut self, metrics: &MetricsRegistry) -> Vec<ControlFrame> {
        let mut controls = Vec::new();
        loop {
            let n = match self.udp.recv(&mut self.scratch) {
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // ECONNREFUSED from a dead centre: typed count; the
                    // backoff machinery keeps retrying.
                    metrics
                        .counter("socket_recv_errors_total", &ROLE_MONITOR)
                        .inc();
                    break;
                }
            };
            metrics
                .counter("socket_frames_received_total", &ROLE_MONITOR)
                .inc();
            match ControlFrame::decode(&self.scratch[..n]) {
                Ok(c) => controls.push(c),
                Err(_) => {
                    metrics
                        .counter("socket_control_corrupt_total", &ROLE_MONITOR)
                        .inc();
                }
            }
        }
        self.flush(metrics);
        controls
    }

    fn flush(&mut self, metrics: &MetricsRegistry) {
        while let Some(frame) = self.outq.front() {
            if !send_counted(frame, |f| self.udp.send(f), &ROLE_MONITOR, metrics) {
                break;
            }
            self.outq.pop_front();
        }
        metrics
            .gauge("socket_send_queue_depth", &ROLE_MONITOR)
            .set(self.outq.len() as u64);
    }
}

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

/// How one centre-side epoch collection over the socket ended.
#[derive(Debug)]
pub enum CenterEpochEnd {
    /// The straggler policy was satisfied; here is the epoch.
    Collected(Box<CollectedEpoch>),
    /// The abort hook fired (shutdown signal, simulated crash) before the
    /// epoch completed.
    Aborted,
}

/// Drives one epoch of the centre's collector over `sock` until the
/// straggler policy is satisfied or `should_abort` returns true.
///
/// Each iteration drains a batch of datagrams (a `Hello` only teaches the
/// socket its sender's address) and sends back what
/// [`EpochCollector::answer`] decides about it: acks, `Advance` for late
/// chunks, gap NACKs and timer NACKs. Then it updates the
/// `socket_reassembly_backlog` gauge. An idle iteration waits on the
/// socket until a datagram arrives or a 200 µs tick passes.
/// `should_abort` is called once per iteration — the serve CLI uses it
/// for periodic checkpoints and signal-triggered shutdown. A collected
/// epoch ends with `Advance` to every monitor heard from; one that
/// misses it learns it from the reply to its next late chunk.
pub fn run_center_epoch(
    sock: &mut CenterSocket,
    collector: &mut EpochCollector,
    clock: &dyn Clock,
    metrics: &MetricsRegistry,
    mut should_abort: impl FnMut(&EpochCollector) -> bool,
) -> CenterEpochEnd {
    register_counters(metrics, &ROLE_CENTER, &ROLE_COUNTERS);
    register_counters(metrics, &[], &["socket_unknown_peer_total"]);
    loop {
        let frames = sock.poll(metrics);
        for control in collector.answer(&frames, clock.now()) {
            sock.send_control(&control, metrics);
        }
        let backlog: u64 = collector
            .sessions()
            .filter(|s| !s.is_complete())
            .map(|s| s.received() as u64)
            .sum();
        metrics.gauge("socket_reassembly_backlog", &[]).set(backlog);
        if should_abort(collector) {
            return CenterEpochEnd::Aborted;
        }
        if collector.ready(clock.now()) {
            let epoch = collector.finalize(clock.now());
            sock.broadcast(
                |router_id| ControlFrame::Advance {
                    router_id,
                    epoch_id: epoch.epoch_id + 1,
                },
                metrics,
            );
            return CenterEpochEnd::Collected(Box::new(epoch));
        }
        if frames.is_empty() {
            wait_readable(&sock.udp);
        }
    }
}

/// Ships one epoch's chunk frames to the centre and drives the ack /
/// NACK / advance dialogue until delivery, shutdown or give-up.
///
/// The decisions are [`SendSession`]'s: which chunks the window opens,
/// which a NACK asks for, when the resend timer fires and when to give
/// up. This loop sends a `Hello`, then repeatedly drains the centre's
/// control frames into the session, steps it, and sends the chunks it
/// names, releasing the shim's held frame after any step that sent. A
/// step is silent when the wait for the centre's next frame (on arrival
/// or after a 200 µs tick) ended with none.
pub fn run_monitor_epoch(
    sock: &mut MonitorSocket,
    chunks: &[Vec<u8>],
    cfg: &MonitorEpochConfig,
    clock: &dyn Clock,
    metrics: &MetricsRegistry,
) -> MonitorEpochEnd {
    register_counters(metrics, &ROLE_MONITOR, &ROLE_COUNTERS);
    register_counters(
        metrics,
        &ROLE_MONITOR,
        &[
            "socket_control_corrupt_total",
            "socket_resend_bursts_total",
            "socket_epochs_abandoned_total",
        ],
    );
    let hello = ControlFrame::Hello {
        router_id: cfg.router_id,
    };
    sock.send(&hello.encode(), metrics);
    let mut session = SendSession::new(cfg, chunks.len(), clock.now());
    let mut seqs = Vec::new();
    let mut waited = false;
    loop {
        let controls = sock.poll(metrics);
        let now = clock.now();
        for control in &controls {
            session.take(control, now, &mut seqs);
        }
        match session.step(waited && controls.is_empty(), now, &mut seqs) {
            SendStep::End(end) => {
                if end == MonitorEpochEnd::TimedOut {
                    metrics
                        .counter("socket_epochs_abandoned_total", &ROLE_MONITOR)
                        .inc();
                }
                return end;
            }
            SendStep::Send { resend_burst } => {
                if resend_burst {
                    metrics
                        .counter("socket_resend_bursts_total", &ROLE_MONITOR)
                        .inc();
                }
            }
        }
        if !seqs.is_empty() {
            for seq in seqs.drain(..) {
                sock.send(&chunks[seq as usize], metrics);
            }
            sock.flush_shim(metrics);
        }
        waited = true;
        wait_readable(&sock.udp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ManualClock, TickClock};
    use crate::session::{CollectorConfig, SessionConfig, StragglerPolicy};
    use crate::transport::chunk_bundle;
    use std::time::Duration;

    #[test]
    fn control_frames_roundtrip() {
        let frames = [
            ControlFrame::Hello { router_id: 7 },
            ControlFrame::Ack {
                router_id: 1,
                epoch_id: 9,
                cumulative_ack: 42,
            },
            ControlFrame::NackAll {
                router_id: 2,
                epoch_id: 9,
            },
            ControlFrame::NackSeqs {
                router_id: 3,
                epoch_id: 9,
                seqs: vec![0, 5, 17],
            },
            ControlFrame::Advance {
                router_id: u64::MAX,
                epoch_id: 10,
            },
            ControlFrame::Shutdown { router_id: 4 },
        ];
        for f in frames {
            let wire = f.encode();
            assert_eq!(ControlFrame::decode(&wire).unwrap(), f);
        }
    }

    #[test]
    fn control_frame_bit_flips_are_rejected() {
        let wire = ControlFrame::NackSeqs {
            router_id: 3,
            epoch_id: 1,
            seqs: vec![2, 4],
        }
        .encode();
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut mangled = wire.clone();
                mangled[byte] ^= 1 << bit;
                assert!(
                    ControlFrame::decode(&mangled).is_err(),
                    "flip {byte}:{bit} decoded"
                );
            }
        }
    }

    #[test]
    fn shim_is_deterministic_and_impairs_at_the_configured_rate() {
        let metrics = MetricsRegistry::new();
        let run = |seed: u64| {
            let mut shim = ImpairmentShim::new(ImpairmentConfig::soak(), seed);
            let mut sent = Vec::new();
            for i in 0..1000u32 {
                let frame = i.to_le_bytes().to_vec();
                sent.extend(shim.outgoing(&frame, &metrics));
            }
            sent.extend(shim.flush());
            sent
        };
        assert_eq!(run(11), run(11), "same seed must replay identically");
        assert_ne!(run(11), run(12), "different seeds must differ");
        let out = run(11);
        // 10% drop / 3% duplicate: the output count reflects both.
        assert!(out.len() < 1000, "drops must remove frames");
        let snapshot = metrics.snapshot();
        assert!(
            snapshot
                .counter("socket_impaired_total{kind=drop}")
                .unwrap()
                > 0
        );
        assert!(
            snapshot
                .counter("socket_impaired_total{kind=reorder}")
                .unwrap()
                > 0
        );
    }

    #[test]
    fn perfect_shim_is_a_passthrough() {
        let metrics = MetricsRegistry::new();
        let mut shim = ImpairmentShim::new(ImpairmentConfig::perfect(), 0);
        for i in 0..100u32 {
            let frame = i.to_le_bytes().to_vec();
            assert_eq!(shim.outgoing(&frame, &metrics), vec![frame]);
        }
        assert_eq!(shim.flush(), None);
    }

    fn quick_collector(epoch: u64, routers: &[u64], now: u64) -> EpochCollector {
        EpochCollector::new(
            epoch,
            routers.iter().copied(),
            CollectorConfig {
                deadline: 5_000,
                straggler: StragglerPolicy::WaitAll,
                session: SessionConfig {
                    base_backoff: 8,
                    max_backoff: 64,
                    max_retries: 40,
                    jitter: 3,
                },
            },
            42,
            now,
        )
    }

    /// One epoch, one router, real sockets on localhost: the monitor
    /// ships a bundle through the shim to a centre bound on
    /// `center_addr`, the centre reassembles it byte-identically.
    fn socket_roundtrip_on(center_addr: &str, transport: Transport, impair: ImpairmentConfig) {
        let bundle: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let chunks = chunk_bundle(3, 0, &bundle, 1200);
        let metrics = MetricsRegistry::new();
        let clock = TickClock::new(Duration::from_micros(500));

        let mut center = CenterSocket::bind(center_addr, transport).unwrap();
        let addr = center.local_addr().unwrap();
        let center_metrics = MetricsRegistry::new();
        let center_clock = clock.clone();
        let handle = std::thread::spawn(move || {
            let mut collector = quick_collector(0, &[3], center_clock.now());
            let end = run_center_epoch(
                &mut center,
                &mut collector,
                &center_clock,
                &center_metrics,
                |_| false,
            );
            match end {
                CenterEpochEnd::Collected(epoch) => (*epoch, center_metrics.snapshot()),
                CenterEpochEnd::Aborted => unreachable!(),
            }
        });

        let mut sock = MonitorSocket::connect(addr, transport).unwrap();
        sock.set_shim(ImpairmentShim::new(impair, 7));
        let end = run_monitor_epoch(
            &mut sock,
            &chunks,
            &MonitorEpochConfig {
                router_id: 3,
                epoch_id: 0,
                resend_after: 32,
                max_backoff: 256,
                give_up: 4_000,
            },
            &clock,
            &metrics,
        );
        assert_eq!(end, MonitorEpochEnd::Delivered);
        let (epoch, center_snapshot) = handle.join().unwrap();
        assert_eq!(epoch.frames.len(), 1);
        assert_eq!(epoch.frames[0].1, bundle, "reassembly must be exact");
        assert!(
            center_snapshot
                .counter("socket_frames_received_total{role=center}")
                .unwrap()
                > 0
        );
    }

    fn socket_roundtrip(transport: Transport, impair: ImpairmentConfig) {
        socket_roundtrip_on("127.0.0.1:0", transport, impair);
    }

    #[test]
    fn udp_roundtrip_perfect() {
        socket_roundtrip(Transport::Udp, ImpairmentConfig::perfect());
    }

    /// A centre on IPv6 loopback is reachable: the monitor binds the
    /// unspecified address of the centre's family, not IPv4 loopback.
    #[test]
    fn udp_roundtrip_to_an_ipv6_center() {
        if UdpSocket::bind("[::1]:0").is_err() {
            return; // no IPv6 loopback on this host
        }
        socket_roundtrip_on("[::1]:0", Transport::Udp, ImpairmentConfig::perfect());
    }

    #[test]
    fn udp_roundtrip_impaired() {
        socket_roundtrip(Transport::Udp, ImpairmentConfig::soak());
    }

    /// The 0 % gate: over a perfect link one monitor puts each chunk on
    /// the wire about once — at most 1.5 frames a chunk, the Hello
    /// counted — and its resend timer never fires. Four windows of chunks
    /// make the window open three times on acks. Both ends' timers are a
    /// second long, so the frames counted are the window's and the tail
    /// probes', not a backstop's.
    #[test]
    fn a_perfect_link_sends_each_chunk_about_once() {
        let bundle: Vec<u8> = (0..4 * SEND_WINDOW as u32 * 1000)
            .map(|i| (i % 251) as u8)
            .collect();
        let chunks = chunk_bundle(3, 0, &bundle, 1000);
        assert!(chunks.len() >= 3 * SEND_WINDOW);
        let metrics = MetricsRegistry::new();
        let clock = TickClock::new(Duration::from_micros(500));
        let mut center = CenterSocket::bind("127.0.0.1:0", Transport::Udp).unwrap();
        let mut sock =
            MonitorSocket::connect(center.local_addr().unwrap(), Transport::Udp).unwrap();
        sock.set_shim(ImpairmentShim::new(ImpairmentConfig::perfect(), 7));
        let (end, epoch) = std::thread::scope(|s| {
            let centre = s.spawn(|| {
                let session = SessionConfig {
                    base_backoff: 2_000,
                    max_backoff: 2_000,
                    ..SessionConfig::default()
                };
                let cfg = CollectorConfig {
                    deadline: 1 << 40,
                    straggler: StragglerPolicy::WaitAll,
                    session,
                };
                let mut collector = EpochCollector::new(0, [3], cfg, 42, clock.now());
                let center_metrics = MetricsRegistry::new();
                run_center_epoch(&mut center, &mut collector, &clock, &center_metrics, |_| {
                    false
                })
            });
            let end = run_monitor_epoch(
                &mut sock,
                &chunks,
                &MonitorEpochConfig {
                    router_id: 3,
                    epoch_id: 0,
                    resend_after: 2_000,
                    max_backoff: 2_000,
                    give_up: 20_000,
                },
                &clock,
                &metrics,
            );
            (end, centre.join().unwrap())
        });
        assert_eq!(end, MonitorEpochEnd::Delivered);
        let CenterEpochEnd::Collected(epoch) = epoch else {
            unreachable!("the abort hook never fires");
        };
        assert_eq!(epoch.frames[0].1, bundle);
        let snapshot = metrics.snapshot();
        let sent = snapshot
            .counter("socket_frames_sent_total{role=monitor}")
            .unwrap();
        assert!(
            2 * sent <= 3 * (chunks.len() as u64 + 1),
            "{sent} frames for {} chunks",
            chunks.len()
        );
        assert_eq!(
            snapshot.counter("socket_resend_bursts_total{role=monitor}"),
            Some(0)
        );
    }

    /// The resend timer counts ticks without progress: a centre whose
    /// acks advance one chunk a tick for three `resend_after` periods
    /// never sees a resend burst. A plain `UdpSocket` plays the centre,
    /// and a manual clock ticks once per ack.
    #[test]
    fn advancing_acks_hold_off_the_resend_timer() {
        const RESEND_AFTER: u64 = 8;
        let bundle: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let chunks = chunk_bundle(5, 0, &bundle, 400);
        assert!(chunks.len() as u64 > 3 * RESEND_AFTER);
        let metrics = MetricsRegistry::new();
        let clock = ManualClock::new(0);
        let center = UdpSocket::bind("127.0.0.1:0").unwrap();
        center
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut sock =
            MonitorSocket::connect(center.local_addr().unwrap(), Transport::Udp).unwrap();
        let end = std::thread::scope(|s| {
            let monitor = s.spawn(|| {
                run_monitor_epoch(
                    &mut sock,
                    &chunks,
                    &MonitorEpochConfig {
                        router_id: 5,
                        epoch_id: 0,
                        resend_after: RESEND_AFTER,
                        max_backoff: 64,
                        give_up: 1_000,
                    },
                    &clock,
                    &metrics,
                )
            });
            // The monitor's first frame, its Hello, gives its address.
            let mut buf = vec![0u8; MAX_DATAGRAM];
            let (_, monitor_addr) = center.recv_from(&mut buf).unwrap();
            let ack = |cumulative_ack: u32| {
                let frame = ControlFrame::Ack {
                    router_id: 5,
                    epoch_id: 0,
                    cumulative_ack,
                };
                center.send_to(&frame.encode(), monitor_addr).unwrap();
            };
            for tick in 1..=3 * RESEND_AFTER {
                clock.set(tick);
                ack(tick as u32);
                std::thread::sleep(Duration::from_millis(2));
            }
            ack(chunks.len() as u32);
            monitor.join().unwrap()
        });
        assert_eq!(end, MonitorEpochEnd::Delivered);
        let bursts = metrics
            .snapshot()
            .counter("socket_resend_bursts_total{role=monitor}");
        assert_eq!(bursts.unwrap_or(0), 0, "acks were advancing every tick");
    }

    /// A monitor restarted mid-epoch re-ships the epoch from seq 0 to a
    /// centre that already holds a prefix longer than one window. The
    /// centre's first ack covers that prefix, and the window opens at the
    /// ack: no seq below it goes out again. A plain `UdpSocket` plays the
    /// centre, and the manual clock never moves, so no resend timer fires.
    #[test]
    fn an_ack_past_the_window_sends_nothing_below_it() {
        let bundle: Vec<u8> = (0..4 * SEND_WINDOW as u32 * 100)
            .map(|i| (i % 251) as u8)
            .collect();
        let chunks = chunk_bundle(6, 0, &bundle, 100);
        let held = 2 * SEND_WINDOW as u32 + 7;
        assert!(chunks.len() > held as usize + SEND_WINDOW);
        let metrics = MetricsRegistry::new();
        let clock = ManualClock::new(0);
        let center = UdpSocket::bind("127.0.0.1:0").unwrap();
        center
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut sock =
            MonitorSocket::connect(center.local_addr().unwrap(), Transport::Udp).unwrap();
        let seq_of = |frame: &[u8]| ChunkFrame::decode(frame).ok().map(|(c, _)| c.seq);
        let (end, after_ack) = std::thread::scope(|s| {
            let monitor = s.spawn(|| {
                let cfg = MonitorEpochConfig {
                    router_id: 6,
                    epoch_id: 0,
                    resend_after: 1_000,
                    max_backoff: 1_000,
                    give_up: 1_000,
                };
                run_monitor_epoch(&mut sock, &chunks, &cfg, &clock, &metrics)
            });
            // Hello, then the first window: a restarted monitor starts at 0.
            let mut buf = vec![0u8; MAX_DATAGRAM];
            let (mut n, monitor_addr) = center.recv_from(&mut buf).unwrap();
            while seq_of(&buf[..n]).is_none_or(|seq| seq + 1 < SEND_WINDOW as u32) {
                n = center.recv_from(&mut buf).unwrap().0;
            }
            let ack = |cumulative_ack: u32| {
                let frame = ControlFrame::Ack {
                    router_id: 6,
                    epoch_id: 0,
                    cumulative_ack,
                };
                center.send_to(&frame.encode(), monitor_addr).unwrap();
            };
            ack(held);
            // The window past the ack: `held..held + SEND_WINDOW`.
            let mut after_ack = Vec::new();
            while !after_ack.contains(&(held + SEND_WINDOW as u32 - 1)) {
                let (n, _) = center.recv_from(&mut buf).unwrap();
                after_ack.extend(seq_of(&buf[..n]));
            }
            ack(chunks.len() as u32);
            (monitor.join().unwrap(), after_ack)
        });
        assert_eq!(end, MonitorEpochEnd::Delivered);
        // Seq 0 is the tail probe a monitor may send before the ack
        // reaches it; every other seq below the ack is already held.
        let below: Vec<u32> = (after_ack.iter().copied())
            .filter(|&seq| seq != 0 && seq < held)
            .collect();
        assert!(below.is_empty(), "re-sent acked seqs {below:?}");
    }

    /// A session missing more chunks than one datagram can name still
    /// reaches its monitor: the NACK arrives clipped to the first
    /// `MAX_NACK_SEQS` missing seqs.
    #[test]
    fn an_oversized_nack_is_clipped_to_fit_the_transport() {
        let transport = Transport::Udp;
        let clock = ManualClock::new(0);
        let mut center = CenterSocket::bind("127.0.0.1:0", transport).unwrap();
        let mut monitor = MonitorSocket::connect(center.local_addr().unwrap(), transport).unwrap();
        // Seq 0 of a 20,000-chunk bundle: the centre learns the total
        // and misses 19,999 chunks, 80 KB of seqs.
        let first = ChunkFrame {
            router_id: 1,
            epoch_id: 0,
            seq: 0,
            total: 20_000,
            payload: b"x",
        };
        monitor.send(&first.encode(), &MetricsRegistry::new());
        let mut collector = quick_collector(0, &[1], clock.now());
        let done = std::sync::atomic::AtomicBool::new(false);
        let nack = std::thread::scope(|s| {
            s.spawn(|| {
                run_center_epoch(
                    &mut center,
                    &mut collector,
                    &clock,
                    &MetricsRegistry::new(),
                    |_| {
                        clock.advance(10);
                        done.load(std::sync::atomic::Ordering::Relaxed)
                    },
                )
            });
            let metrics = MetricsRegistry::new();
            let give_up = std::time::Instant::now() + Duration::from_secs(5);
            let nack = loop {
                let seqs = monitor.poll(&metrics).into_iter().find_map(|c| match c {
                    ControlFrame::NackSeqs { seqs, .. } => Some(seqs),
                    _ => None,
                });
                if seqs.is_some() || std::time::Instant::now() > give_up {
                    break seqs;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            nack
        });
        let want: Vec<u32> = (1..=MAX_NACK_SEQS as u32).collect();
        assert!(
            nack.as_ref() == Some(&want),
            "{transport:?}: NACK of {:?} seqs",
            nack.map(|s| s.len())
        );
    }

    #[test]
    fn dead_monitor_trips_the_real_clock_deadline_with_typed_timeout() {
        let metrics = MetricsRegistry::new();
        let clock = TickClock::new(Duration::from_micros(200));
        let mut center = CenterSocket::bind("127.0.0.1:0", Transport::Udp).unwrap();
        let mut collector = EpochCollector::new(
            0,
            [1, 2],
            CollectorConfig {
                deadline: 100,
                straggler: StragglerPolicy::Deadline,
                session: SessionConfig::default(),
            },
            1,
            clock.now(),
        );
        // Router 1 delivers; router 2 is dead and never connects.
        let addr = center.local_addr().unwrap();
        let clock2 = clock.clone();
        let sender = std::thread::spawn(move || {
            let m = MetricsRegistry::new();
            let mut sock = MonitorSocket::connect(addr, Transport::Udp).unwrap();
            let chunks = chunk_bundle(1, 0, b"present router", 64);
            run_monitor_epoch(
                &mut sock,
                &chunks,
                &MonitorEpochConfig {
                    router_id: 1,
                    epoch_id: 0,
                    resend_after: 16,
                    max_backoff: 64,
                    give_up: 2_000,
                },
                &clock2,
                &m,
            )
        });
        let end = run_center_epoch(&mut center, &mut collector, &clock, &metrics, |_| false);
        let CenterEpochEnd::Collected(epoch) = end else {
            panic!("epoch must finalize at the deadline");
        };
        assert_eq!(epoch.frames.len(), 1);
        assert_eq!(epoch.exclusions.len(), 1);
        assert!(matches!(
            epoch.exclusions[0].fault,
            crate::ingest::RouterFault::TimedOut { .. }
        ));
        assert_eq!(sender.join().unwrap(), MonitorEpochEnd::Delivered);
    }

    #[test]
    fn manual_clock_freeze_never_times_out_the_driver() {
        // With a frozen clock the deadline can never pass: the abort hook
        // is the only way out, proving the driver takes time exclusively
        // from the Clock trait.
        let metrics = MetricsRegistry::new();
        let clock = ManualClock::new(0);
        let mut center = CenterSocket::bind("127.0.0.1:0", Transport::Udp).unwrap();
        let mut collector = EpochCollector::new(
            0,
            [9],
            CollectorConfig {
                deadline: 1,
                straggler: StragglerPolicy::Deadline,
                session: SessionConfig::default(),
            },
            1,
            clock.now(),
        );
        let mut polls = 0;
        let end = run_center_epoch(&mut center, &mut collector, &clock, &metrics, |_| {
            polls += 1;
            polls > 50
        });
        assert!(matches!(end, CenterEpochEnd::Aborted));
    }
}
