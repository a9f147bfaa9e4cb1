//! Real-socket transport: the UDP binding of the delivery protocol, plus
//! the in-process impairment shim the wire-speed soak injects faults
//! with on a monitor's outgoing frames.
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
//! centre learns each router's address from the frames it receives, so a
//! centre restart needs no reconfiguration; only a frame that verifies
//! may move an address.
//!
//! Each driver resolves its `socket_*` instruments once per call (DESIGN
//! §6.2, §8), so sending, receiving and impairing a datagram only add to
//! atomics. A [`MonitorSocket`] moves frames only inside
//! [`run_monitor_epoch`]. The three public [`CenterSocket`] methods the
//! `serve` loop and the benchmark adapter call between epochs (`poll`,
//! `send_control`, `broadcast`) take the registry and resolve the
//! instruments on every call.
//!
//! Graceful degradation is the design rule: every socket error becomes a
//! metric and a typed outcome (a dropped frame, an exclusion, a
//! `QuorumTooSmall`), never a panic. A dead monitor is indistinguishable
//! from a lossy link, which is exactly what the session layer's
//! deadline/backoff machinery already handles; a dead *centre* is
//! handled by monitors re-pushing unacked chunks on capped backoff until
//! the resumed centre (restored from a DCSK checkpoint) NACKs or acks
//! them over the new socket.
//!
//! The two drivers wait differently, because their timers differ. A
//! monitor's tail probe is due about one round trip after its last send,
//! so [`run_monitor_epoch`] naps in short sleeps between nonblocking
//! peeks and wakes at an arrival or at [`SendSession::next_deadline`],
//! whichever comes first, a sleep's overshoot late (≈ 60 µs on Linux).
//! The centre's timers are at least `base_backoff` ticks long and only a
//! backstop, so [`run_center_epoch`] blocks on its socket with a 200 µs
//! read timeout: it wakes at an arrival at once, but an idle wait can
//! last about two kernel jiffies (8 ms at `CONFIG_HZ=250`), since Linux
//! rounds a socket read timeout up to whole jiffies.

use crate::clock::Clock;
use crate::session::{CollectedEpoch, EpochCollector, SendSession, SendStep, MAX_DATAGRAM};
use crate::transport::ChunkFrame;
use dcs_hash::mix::splitmix64;
use dcs_obs::{Counter, Gauge, MetricsRegistry};
use std::cell::OnceCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

pub use crate::session::{
    ControlFrame, MonitorEpochConfig, MonitorEpochEnd, CONTROL_HEADER, CONTROL_MAGIC,
    CONTROL_VERSION, MAX_NACK_SEQS, SEND_WINDOW,
};

/// The read timeout an idle centre waits on its socket with (see
/// [`wait_readable`]). Linux rounds it up to whole jiffies, so the wait
/// lasts up to about two jiffies: over 30 waits on a 2-vCPU Xeon it took
/// 6.4–8.1 ms (median 8.0 ms), where a 200 µs `thread::sleep` took
/// 265–332 µs. It bounds how late a centre's timer fires, not how late a
/// frame is handled.
const CENTER_WAIT: Duration = Duration::from_micros(200);

/// A waiting monitor's first sleep between two peeks at its socket, after
/// a send or an arrival. Linux sleeps at least ≈ 60 µs however short the
/// request (its default timer slack is 50 µs).
const FIRST_NAP: Duration = Duration::from_micros(10);

/// The longest sleep between two peeks: a monitor's sleeps double from
/// [`FIRST_NAP`] up to this, so a quiet wait costs about one wake-up a
/// millisecond.
const MAX_NAP: Duration = Duration::from_millis(1);

// ---------------------------------------------------------------------
// Impairment shim
// ---------------------------------------------------------------------

/// Impairment probabilities, in per-mille, applied to a monitor's
/// outgoing frames *before* they reach the socket. The shim is how the
/// soak makes a real localhost link behave like a lossy WAN while staying
/// deterministic. There are two presets, [`Self::perfect`] and
/// [`Self::soak`]; the rates are not settable one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImpairmentConfig {
    /// Frame silently dropped (‰).
    drop_per_mille: u16,
    /// Frame sent twice (‰).
    duplicate_per_mille: u16,
    /// Frame held back and released after the next send (‰).
    reorder_per_mille: u16,
    /// One bit of the frame flipped (‰) — the CRC layer must catch it.
    corrupt_per_mille: u16,
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

impl ImpairmentShim {
    /// A shim applying `cfg` with deterministic decisions from `seed`.
    pub fn new(cfg: ImpairmentConfig, seed: u64) -> Self {
        ImpairmentShim {
            cfg,
            state: seed ^ 0x5EED_50CC_E75B_0B0B,
            held: None,
        }
    }

    /// The generator's next output: the SplitMix64 finaliser of the
    /// state, which then steps by the golden-ratio increment.
    fn next(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    fn chance(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.next() % 1000 < per_mille as u64
    }

    /// Applies the impairment schedule to one outgoing frame, returning
    /// the frames to actually put on the wire (possibly none, possibly
    /// several, possibly corrupted). Each impairment increments its
    /// `socket_impaired_total{kind}` handle in `counts`.
    fn impair(&mut self, frame: &[u8], counts: &ImpairedCounters) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(2);
        if self.chance(self.cfg.drop_per_mille) {
            counts.inc(Impairment::Drop);
            // A drop still releases any held frame: the link stays live.
            out.extend(self.held.take());
            return out;
        }
        let mut frame = frame.to_vec();
        if self.chance(self.cfg.corrupt_per_mille) && !frame.is_empty() {
            let bit = self.next() as usize % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            counts.inc(Impairment::Corrupt);
        }
        let duplicate = self.chance(self.cfg.duplicate_per_mille);
        if self.chance(self.cfg.reorder_per_mille) {
            counts.inc(Impairment::Reorder);
            // Hold this frame back; release the previously held one (if
            // any) in its place.
            out.extend(self.held.replace(frame.clone()));
        } else {
            out.push(frame.clone());
            out.extend(self.held.take());
        }
        if duplicate {
            counts.inc(Impairment::Duplicate);
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
// Metric handles
// ---------------------------------------------------------------------

/// What the shim did to a frame: the `kind` of `socket_impaired_total`.
#[derive(Clone, Copy)]
enum Impairment {
    Drop,
    Corrupt,
    Reorder,
    Duplicate,
}

impl Impairment {
    fn label(self) -> &'static str {
        match self {
            Impairment::Drop => "drop",
            Impairment::Corrupt => "corrupt",
            Impairment::Reorder => "reorder",
            Impairment::Duplicate => "duplicate",
        }
    }
}

/// The `socket_impaired_total{kind}` handles of one registry, each
/// resolved on the first impairment of its kind, so a kind the shim never
/// applied stays out of the snapshot (DESIGN §8).
struct ImpairedCounters<'a> {
    registry: &'a MetricsRegistry,
    kinds: [OnceCell<Counter>; 4],
}

impl<'a> ImpairedCounters<'a> {
    fn new(registry: &'a MetricsRegistry) -> Self {
        ImpairedCounters {
            registry,
            kinds: Default::default(),
        }
    }

    fn inc(&self, kind: Impairment) {
        let labels = [("kind", kind.label())];
        self.kinds[kind as usize]
            .get_or_init(|| self.registry.counter("socket_impaired_total", &labels))
            .inc();
    }
}

/// The instruments both ends count under their `role` label. Resolving
/// them registers each family at zero, so a snapshot names every family a
/// role can count before the first event, as the centre's registry does
/// (DESIGN §8).
struct SocketMetrics {
    frames_sent: Counter,
    frames_received: Counter,
    send_stalls: Counter,
    send_errors: Counter,
    recv_errors: Counter,
    queue_depth: Gauge,
}

impl SocketMetrics {
    fn new(registry: &MetricsRegistry, role: &str) -> Self {
        let role = [("role", role)];
        SocketMetrics {
            frames_sent: registry.counter("socket_frames_sent_total", &role),
            frames_received: registry.counter("socket_frames_received_total", &role),
            send_stalls: registry.counter("socket_send_stalls_total", &role),
            send_errors: registry.counter("socket_send_errors_total", &role),
            recv_errors: registry.counter("socket_recv_errors_total", &role),
            queue_depth: registry.gauge("socket_send_queue_depth", &role),
        }
    }
}

/// The centre's instruments, resolved once per [`run_center_epoch`] call
/// (or per call of a public [`CenterSocket`] method), so the per-datagram
/// path only adds to atomics.
struct CenterMetrics {
    io: SocketMetrics,
    unknown_peer: Counter,
    backlog: Gauge,
}

impl CenterMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        CenterMetrics {
            io: SocketMetrics::new(registry, "center"),
            unknown_peer: registry.counter("socket_unknown_peer_total", &[]),
            backlog: registry.gauge("socket_reassembly_backlog", &[]),
        }
    }
}

/// A monitor's instruments, resolved once per [`run_monitor_epoch`] call
/// (or per call of a public [`MonitorSocket`] method). The impairment
/// shim sits on the monitor's side only, so only a monitor counts what
/// it did.
struct MonitorMetrics<'a> {
    io: SocketMetrics,
    impaired: ImpairedCounters<'a>,
    control_corrupt: Counter,
    resend_bursts: Counter,
    epochs_abandoned: Counter,
}

impl<'a> MonitorMetrics<'a> {
    fn new(registry: &'a MetricsRegistry) -> Self {
        let role = [("role", "monitor")];
        MonitorMetrics {
            io: SocketMetrics::new(registry, "monitor"),
            impaired: ImpairedCounters::new(registry),
            control_corrupt: registry.counter("socket_control_corrupt_total", &role),
            resend_bursts: registry.counter("socket_resend_bursts_total", &role),
            epochs_abandoned: registry.counter("socket_epochs_abandoned_total", &role),
        }
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

/// The router whose address `src` a received frame may teach the centre:
/// the id of a DCSC chunk whose CRC checks. A chunk from the address
/// `peers` already holds for its router would move nothing and is not
/// decoded. A bit flip in a chunk's router id must not send another
/// router's acks to this sender.
fn peer_update(frame: &[u8], src: SocketAddr, peers: &BTreeMap<u64, SocketAddr>) -> Option<u64> {
    let (router_id, _, _) = ChunkFrame::salvage_header(frame)?;
    if peers.get(&router_id) == Some(&src) {
        return None;
    }
    ChunkFrame::decode(frame)
        .ok()
        .map(|(chunk, _)| chunk.router_id)
}

/// Opens a nonblocking UDP socket on `addr`.
fn open_udp(addr: impl ToSocketAddrs) -> std::io::Result<UdpSocket> {
    let udp = UdpSocket::bind(addr)?;
    udp.set_nonblocking(true)?;
    Ok(udp)
}

/// The centre's wait: blocks until a datagram is readable on `udp` or
/// the socket's read timeout, [`CENTER_WAIT`] (set at bind), runs out,
/// leaving the datagram queued (`peek`) and the socket nonblocking. An
/// arrival ends the wait at once; a timeout ends it up to about two
/// jiffies later (≈ 8 ms at `CONFIG_HZ=250`), as the kernel rounds the
/// timeout up. An error that returns at once, such as a refusal reported
/// back from a dead peer, sleeps out the rest of `CENTER_WAIT`, so a dead
/// peer cannot spin the centre.
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
        std::thread::sleep(CENTER_WAIT.saturating_sub(started.elapsed()));
    }
}

/// A monitor's wait: nonblocking peeks at `udp` between sleeps, until a
/// datagram is readable or `clock` reaches `deadline`. The sleeps start
/// at [`FIRST_NAP`] and double up to [`MAX_NAP`], and none is asked to
/// run past the deadline, so the wait ends within one sleep's overshoot
/// of either event. A socket error, such as a refusal reported back from
/// a dead centre, is no arrival: the wait sleeps on. A clock that cannot
/// say how far the deadline is ([`Clock::until`]) is read again after
/// every sleep, so a test's [`crate::clock::ManualClock`] that moves past
/// the deadline ends the wait within [`MAX_NAP`].
fn wait_until(udp: &UdpSocket, clock: &dyn Clock, deadline: u64) {
    let mut nap = FIRST_NAP;
    while udp.peek(&mut [0u8; 1]).is_err() {
        let left = clock.until(deadline);
        if left.is_zero() {
            return;
        }
        std::thread::sleep(nap.min(left));
        nap = (nap * 2).min(MAX_NAP);
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
}

/// Puts one queued frame on the wire through `send` and counts the
/// outcome. Returns false on a full socket buffer (a stall), and the
/// caller keeps the frame queued; any other error drops the frame.
fn send_counted(
    frame: &[u8],
    send: impl FnOnce(&[u8]) -> std::io::Result<usize>,
    m: &SocketMetrics,
) -> bool {
    match send(frame) {
        Ok(_) => m.frames_sent.inc(),
        Err(e) if e.kind() == ErrorKind::WouldBlock => {
            m.send_stalls.inc();
            return false;
        }
        // A dead peer refuses datagrams; nothing is lost that the
        // protocol's timers do not recover.
        Err(_) => m.send_errors.inc(),
    }
    true
}

impl CenterSocket {
    /// Binds the centre endpoint on `addr` (e.g. `127.0.0.1:0`).
    pub fn bind(addr: impl ToSocketAddrs, transport: Transport) -> std::io::Result<CenterSocket> {
        let Transport::Udp = transport;
        let udp = open_udp(addr)?;
        udp.set_read_timeout(Some(CENTER_WAIT))?;
        Ok(CenterSocket {
            udp,
            peers: BTreeMap::new(),
            outq: VecDeque::new(),
            scratch: vec![0u8; MAX_DATAGRAM],
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.udp.local_addr()
    }

    /// Drains every readable datagram, learns peer addresses from the
    /// frames that verify, flushes the outgoing queue, and updates the
    /// socket gauges.
    pub fn poll(&mut self, metrics: &MetricsRegistry) -> Vec<Vec<u8>> {
        self.poll_with(&CenterMetrics::new(metrics))
    }

    fn poll_with(&mut self, m: &CenterMetrics) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        loop {
            match self.udp.recv_from(&mut self.scratch) {
                Ok((n, src)) => {
                    let frame = self.scratch[..n].to_vec();
                    if let Some(router_id) = peer_update(&frame, src, &self.peers) {
                        self.peers.insert(router_id, src);
                    }
                    frames.push(frame);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Spurious ICMP-derived errors on Linux; typed count,
                    // keep serving.
                    m.io.recv_errors.inc();
                    break;
                }
            }
        }
        m.io.frames_received.add(frames.len() as u64);
        self.flush(&m.io);
        frames
    }

    /// Queues a control frame to `router_id`'s learned address. Returns
    /// false (and counts `socket_unknown_peer_total`) when the router has
    /// never been heard from — the caller's timers cover that monitor.
    pub fn send_control(&mut self, control: &ControlFrame, metrics: &MetricsRegistry) -> bool {
        self.send_control_with(control, &CenterMetrics::new(metrics))
    }

    fn send_control_with(&mut self, control: &ControlFrame, m: &CenterMetrics) -> bool {
        let Some(&peer) = self.peers.get(&control.router_id()) else {
            m.unknown_peer.inc();
            return false;
        };
        self.outq.push_back((peer, control.encode()));
        self.flush(&m.io);
        true
    }

    /// Sends `control` to every known peer.
    pub fn broadcast(&mut self, make: impl Fn(u64) -> ControlFrame, metrics: &MetricsRegistry) {
        self.broadcast_with(make, &CenterMetrics::new(metrics));
    }

    fn broadcast_with(&mut self, make: impl Fn(u64) -> ControlFrame, m: &CenterMetrics) {
        let routers: Vec<u64> = self.peers.keys().copied().collect();
        for router_id in routers {
            self.send_control_with(&make(router_id), m);
        }
    }

    fn flush(&mut self, m: &SocketMetrics) {
        while let Some((peer, frame)) = self.outq.front() {
            if !send_counted(frame, |f| self.udp.send_to(f, peer), m) {
                break;
            }
            self.outq.pop_front();
        }
        m.queue_depth.set(self.outq.len() as u64);
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

    /// Queues one chunk frame through the shim and
    /// flushes what the socket will take.
    fn send(&mut self, frame: &[u8], m: &MonitorMetrics) {
        match &mut self.shim {
            Some(shim) => {
                let impaired = shim.impair(frame, &m.impaired);
                self.outq.extend(impaired);
            }
            None => self.outq.push_back(frame.to_vec()),
        }
        self.flush(&m.io);
    }

    /// Releases any frame the shim is holding back (end of a burst).
    fn flush_shim(&mut self, m: &MonitorMetrics) {
        if let Some(frame) = self.shim.as_mut().and_then(|s| s.flush()) {
            self.outq.push_back(frame);
        }
        self.flush(&m.io);
    }

    /// Drains readable control frames from the centre (and flushes the
    /// outgoing queue).
    fn poll(&mut self, m: &MonitorMetrics) -> Vec<ControlFrame> {
        let mut controls = Vec::new();
        loop {
            let n = match self.udp.recv(&mut self.scratch) {
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // ECONNREFUSED from a dead centre: typed count; the
                    // backoff machinery keeps retrying.
                    m.io.recv_errors.inc();
                    break;
                }
            };
            m.io.frames_received.inc();
            match ControlFrame::decode(&self.scratch[..n]) {
                Ok(c) => controls.push(c),
                Err(_) => m.control_corrupt.inc(),
            }
        }
        self.flush(&m.io);
        controls
    }

    fn flush(&mut self, m: &SocketMetrics) {
        while let Some(frame) = self.outq.front() {
            if !send_counted(frame, |f| self.udp.send(f), m) {
                break;
            }
            self.outq.pop_front();
        }
        m.queue_depth.set(self.outq.len() as u64);
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
/// Each iteration drains a batch of datagrams and sends back what
/// [`EpochCollector::answer`] decides about it: acks, `Advance` for late
/// chunks, gap NACKs and timer NACKs. Then it updates the
/// `socket_reassembly_backlog` gauge. An idle iteration blocks on the
/// socket until a datagram arrives, or for at most about two jiffies
/// (≈ 8 ms at `CONFIG_HZ=250`): the collector's timers are at least
/// `base_backoff` ticks long and only a backstop, and a wait that woke
/// sooner would split the arrivals into more, smaller batches.
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
    let m = CenterMetrics::new(metrics);
    loop {
        let frames = sock.poll_with(&m);
        for control in collector.answer(&frames, clock.now()) {
            sock.send_control_with(&control, &m);
        }
        let backlog: u64 = collector
            .sessions()
            .filter(|s| !s.is_complete())
            .map(|s| s.received() as u64)
            .sum();
        m.backlog.set(backlog);
        if should_abort(collector) {
            return CenterEpochEnd::Aborted;
        }
        if collector.ready(clock.now()) {
            let epoch = collector.finalize(clock.now());
            sock.broadcast_with(
                |router_id| ControlFrame::Advance {
                    router_id,
                    epoch_id: epoch.epoch_id + 1,
                },
                &m,
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
/// up. This loop repeatedly drains the centre's control frames into the
/// session, steps it, and sends the chunks it names (the first step
/// sends the first window, whose chunks teach the centre this monitor's
/// address), releasing the shim's held frame after any step that sent. It
/// then waits for the centre's next frame, but no later than the
/// session's [`SendSession::next_deadline`] (the tail probe, the resend
/// timer or give-up): short sleeps between nonblocking peeks, starting
/// at 10 µs and doubling up to 1 ms, none past the deadline.
pub fn run_monitor_epoch(
    sock: &mut MonitorSocket,
    chunks: &[Vec<u8>],
    cfg: &MonitorEpochConfig,
    clock: &dyn Clock,
    metrics: &MetricsRegistry,
) -> MonitorEpochEnd {
    let m = MonitorMetrics::new(metrics);
    let mut session = SendSession::new(cfg, chunks.len(), clock.now());
    let mut seqs = Vec::new();
    loop {
        let controls = sock.poll(&m);
        let now = clock.now();
        for control in &controls {
            session.take(control, now, &mut seqs);
        }
        match session.step(now, &mut seqs) {
            SendStep::End(end) => {
                if end == MonitorEpochEnd::TimedOut {
                    m.epochs_abandoned.inc();
                }
                return end;
            }
            SendStep::Send { resend_burst } => {
                if resend_burst {
                    m.resend_bursts.inc();
                }
            }
        }
        if !seqs.is_empty() {
            for seq in seqs.drain(..) {
                sock.send(&chunks[seq as usize], &m);
            }
            sock.flush_shim(&m);
        }
        wait_until(&sock.udp, clock, session.next_deadline());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ManualClock, TickClock};
    use crate::session::{CollectorConfig, SessionConfig, StragglerPolicy};
    use crate::transport::chunk_bundle;
    use dcs_obs::MetricsSnapshot;
    use std::time::Duration;

    #[test]
    fn control_frames_roundtrip() {
        let frames = [
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
        let counts = ImpairedCounters::new(&metrics);
        let run = |seed: u64| {
            let mut shim = ImpairmentShim::new(ImpairmentConfig::soak(), seed);
            let mut sent = Vec::new();
            for i in 0..1000u32 {
                let frame = i.to_le_bytes().to_vec();
                sent.extend(shim.impair(&frame, &counts));
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

    /// The soak shim's first 256 decisions at two seeds, exactly: which
    /// frames it drops, which bit it flips, which it holds back and
    /// which it duplicates. Each frame's decision is read from the
    /// counters it bumped; the frames it released, in order, carry the
    /// flipped bits and the reordering. Both are hashed, with the count
    /// of each kind beside the hash.
    #[test]
    fn shim_decisions_are_pinned() {
        let run = |seed: u64| {
            let metrics = MetricsRegistry::new();
            let counts = ImpairedCounters::new(&metrics);
            let kinds = ["drop", "corrupt", "reorder", "duplicate"];
            let tally = || {
                let snapshot = metrics.snapshot();
                kinds.map(|k| {
                    let key = format!("socket_impaired_total{{kind={k}}}");
                    snapshot.counter(&key).unwrap_or(0)
                })
            };
            let mut shim = ImpairmentShim::new(ImpairmentConfig::soak(), seed);
            let mut digest = dcs_hash::Fnv1a::new();
            for i in 0..256u64 {
                let before = tally();
                let released = shim.impair(&i.to_le_bytes(), &counts);
                let after = tally();
                let decision = (0..4).fold(0u8, |d, k| d | u8::from(after[k] > before[k]) << k);
                digest.update(&[decision, released.len() as u8]);
                for frame in &released {
                    digest.update(frame);
                }
            }
            (tally(), digest.finish())
        };
        assert_eq!(run(7), ([20, 6, 12, 5], 199_369_286_839_211_506), "seed 7");
        assert_eq!(
            run(0xD15C),
            ([21, 6, 8, 10], 10_615_272_934_699_602_287),
            "seed 0xD15C"
        );
    }

    #[test]
    fn perfect_shim_is_a_passthrough() {
        let metrics = MetricsRegistry::new();
        let counts = ImpairedCounters::new(&metrics);
        let mut shim = ImpairmentShim::new(ImpairmentConfig::perfect(), 0);
        for i in 0..100u32 {
            let frame = i.to_le_bytes().to_vec();
            assert_eq!(shim.impair(&frame, &counts), vec![frame]);
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
    /// `center_addr`, the centre reassembles it byte-identically. Returns
    /// the monitor's and the centre's metric snapshots.
    fn socket_roundtrip_on(
        center_addr: &str,
        transport: Transport,
        impair: ImpairmentConfig,
    ) -> [MetricsSnapshot; 2] {
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
        [metrics.snapshot(), center_snapshot]
    }

    fn socket_roundtrip(transport: Transport, impair: ImpairmentConfig) -> [MetricsSnapshot; 2] {
        socket_roundtrip_on("127.0.0.1:0", transport, impair)
    }

    /// Every key of a snapshot, counters, gauges and histograms, sorted.
    fn keys(snapshot: &MetricsSnapshot) -> Vec<&str> {
        let counters = snapshot.counters.iter().map(|e| e.key.as_str());
        let gauges = snapshot.gauges.iter().map(|e| e.key.as_str());
        let histograms = snapshot.histograms.iter().map(|e| e.key.as_str());
        let mut keys: Vec<&str> = counters.chain(gauges).chain(histograms).collect();
        keys.sort_unstable();
        keys
    }

    /// The key sets both drivers leave in their registries (DESIGN §8):
    /// every family a role can count is registered at zero when its
    /// driver starts, and `socket_impaired_total` gains a `kind` with the
    /// first impairment of that kind. The soak shim's first pass over
    /// the 34 chunks impairs every kind at seed 7, so the impaired run's
    /// key set does not hang on how many resends it took.
    #[test]
    fn socket_drivers_register_a_fixed_key_set() {
        const CENTER: [&str; 8] = [
            "socket_frames_received_total{role=center}",
            "socket_frames_sent_total{role=center}",
            "socket_reassembly_backlog",
            "socket_recv_errors_total{role=center}",
            "socket_send_errors_total{role=center}",
            "socket_send_queue_depth{role=center}",
            "socket_send_stalls_total{role=center}",
            "socket_unknown_peer_total",
        ];
        const MONITOR: [&str; 9] = [
            "socket_control_corrupt_total{role=monitor}",
            "socket_epochs_abandoned_total{role=monitor}",
            "socket_frames_received_total{role=monitor}",
            "socket_frames_sent_total{role=monitor}",
            "socket_recv_errors_total{role=monitor}",
            "socket_resend_bursts_total{role=monitor}",
            "socket_send_errors_total{role=monitor}",
            "socket_send_queue_depth{role=monitor}",
            "socket_send_stalls_total{role=monitor}",
        ];
        const IMPAIRED: [&str; 4] = [
            "socket_impaired_total{kind=corrupt}",
            "socket_impaired_total{kind=drop}",
            "socket_impaired_total{kind=duplicate}",
            "socket_impaired_total{kind=reorder}",
        ];
        let first_pass = MetricsRegistry::new();
        let counts = ImpairedCounters::new(&first_pass);
        let mut shim = ImpairmentShim::new(ImpairmentConfig::soak(), 7);
        for _ in 0..34 {
            shim.impair(&[0; 8], &counts);
        }
        assert_eq!(keys(&first_pass.snapshot()), IMPAIRED);
        let [monitor, center] = socket_roundtrip(Transport::Udp, ImpairmentConfig::perfect());
        assert_eq!(keys(&center), CENTER);
        assert_eq!(keys(&monitor), MONITOR);
        let [monitor, center] = socket_roundtrip(Transport::Udp, ImpairmentConfig::soak());
        assert_eq!(keys(&center), CENTER);
        let mut want: Vec<&str> = MONITOR.iter().chain(&IMPAIRED).copied().collect();
        want.sort_unstable();
        assert_eq!(keys(&monitor), want);
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
    /// the wire about once — at most 1.5 frames a chunk — and its resend
    /// timer never fires. Four windows of chunks make the window open
    /// three times on acks. Both ends' timers are a second long, so the
    /// frames counted are the window's and the tail probes', not a
    /// backstop's.
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
            2 * sent <= 3 * chunks.len() as u64,
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
            // The monitor's first frame, its first chunk, gives its
            // address.
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

    /// A lost last chunk comes back as the monitor's tail probe, not in
    /// a resend burst. A plain `UdpSocket` plays the centre: it acks
    /// every chunk it holds and drops the first copy of the final chunk.
    /// A manual clock stands at tick 1 while the acks go out, then steps
    /// one tick at a time until the probe comes, and never reaches the
    /// resend timer (1,000 ticks past the last ack), so the probe alone
    /// can recover the chunk. How many ticks the probe takes is
    /// `dcs_sim::hop`'s `a_lost_tail_is_probed_a_pto_after_the_short_ack`.
    #[test]
    fn a_lost_tail_is_recovered_by_the_probe() {
        const RESEND_AFTER: u64 = 1_000;
        let bundle: Vec<u8> = (0..8_000u32).map(|i| (i % 251) as u8).collect();
        let chunks = chunk_bundle(8, 0, &bundle, 1000);
        let last = chunks.len() as u32 - 1;
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
                let cfg = MonitorEpochConfig {
                    router_id: 8,
                    epoch_id: 0,
                    resend_after: RESEND_AFTER,
                    max_backoff: RESEND_AFTER,
                    give_up: 10 * RESEND_AFTER,
                };
                run_monitor_epoch(&mut sock, &chunks, &cfg, &clock, &metrics)
            });
            let mut buf = vec![0u8; MAX_DATAGRAM];
            let (_, monitor_addr) = center.recv_from(&mut buf).unwrap();
            let ack = |cumulative_ack: u32| {
                let frame = ControlFrame::Ack {
                    router_id: 8,
                    epoch_id: 0,
                    cumulative_ack,
                };
                center.send_to(&frame.encode(), monitor_addr).unwrap();
            };
            // The seq of the next frame to arrive, if it is a chunk.
            let mut next_seq = || -> std::io::Result<Option<u32>> {
                let n = center.recv(&mut buf)?;
                Ok(ChunkFrame::decode(&buf[..n]).ok().map(|(c, _)| c.seq))
            };
            clock.set(1);
            let mut held = 0;
            while held < last {
                if let Some(seq) = next_seq().unwrap() {
                    held = held.max(seq + 1);
                    ack(held);
                }
            }
            // The tail itself: this copy is lost.
            while next_seq().unwrap() != Some(last) {}
            center
                .set_read_timeout(Some(Duration::from_millis(5)))
                .unwrap();
            let probe = (2..RESEND_AFTER).find_map(|tick| {
                clock.set(tick);
                next_seq().ok().flatten()
            });
            assert_eq!(probe, Some(last), "the probe re-sends the lost tail");
            ack(last + 1);
            monitor.join().unwrap()
        });
        assert_eq!(end, MonitorEpochEnd::Delivered);
        let bursts = metrics
            .snapshot()
            .counter("socket_resend_bursts_total{role=monitor}");
        assert_eq!(bursts.unwrap_or(0), 0, "the resend timer never fired");
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
            // The first window: a restarted monitor starts at 0.
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
        monitor.send(
            &first.encode(),
            &MonitorMetrics::new(&MetricsRegistry::new()),
        );
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
            let m = MonitorMetrics::new(&metrics);
            let give_up = std::time::Instant::now() + Duration::from_secs(5);
            let nack = loop {
                let seqs = monitor.poll(&m).into_iter().find_map(|c| match c {
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

    /// A chunk whose CRC fails cannot re-point a router's address: router
    /// 0 sends a chunk from socket A, then socket B sends router 1's chunk
    /// with bit 0 of its router id flipped, so its header names router 0.
    /// The centre's next control frame to router 0 still goes to A.
    #[test]
    fn a_corrupt_chunk_does_not_re_point_a_router() {
        let metrics = MetricsRegistry::new();
        let mut center = CenterSocket::bind("127.0.0.1:0", Transport::Udp).unwrap();
        let addr = center.local_addr().unwrap();
        let poll_one = |center: &mut CenterSocket| {
            let give_up = Instant::now() + Duration::from_secs(5);
            while center.poll(&metrics).is_empty() {
                assert!(Instant::now() < give_up, "the centre received nothing");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let chunk = |router_id| {
            ChunkFrame {
                router_id,
                epoch_id: 0,
                seq: 0,
                total: 1,
                payload: b"x",
            }
            .encode()
        };
        a.send_to(&chunk(0), addr).unwrap();
        poll_one(&mut center);
        let mut chunk = chunk(1);
        // The router id is the u64 after the magic and the version byte.
        chunk[5] ^= 1;
        assert_eq!(ChunkFrame::salvage_header(&chunk).map(|h| h.0), Some(0));
        assert!(ChunkFrame::decode(&chunk).is_err());
        b.send_to(&chunk, addr).unwrap();
        poll_one(&mut center);
        let ack = ControlFrame::Ack {
            router_id: 0,
            epoch_id: 0,
            cumulative_ack: 1,
        };
        assert!(center.send_control(&ack, &metrics));
        a.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let n = a
            .recv(&mut buf)
            .expect("router 0's ack went to another socket");
        assert_eq!(ControlFrame::decode(&buf[..n]), Ok(ack));
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
