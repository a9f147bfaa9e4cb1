//! Real-socket transport: UDP (primary) and TCP (fallback) bindings for
//! the chunk/session layer, plus the in-process impairment shim the
//! wire-speed soak injects faults with.
//!
//! Everything above this module is unchanged: the same
//! [`EpochCollector`] state machine collects DCSC chunks, emits
//! retransmit requests and trips straggler deadlines — it just reads
//! time from a [`Clock`] and exchanges frames over
//! real sockets instead of a simulated channel. The module adds one new
//! wire format, the **DCSN control frame**, for the centre→monitor
//! direction (acks, retransmit requests, epoch advance, shutdown):
//!
//! ```text
//!  ┌───────┬───┬──────┬───────────┬──────────┬─────┬───────┬────────┬───────┐
//!  │ magic │ v │ kind │ router id │ epoch id │ arg │ nseqs │ seqs…  │ CRC32 │
//!  │ DCSN  │ 1 │  u8  │    u64    │   u64    │ u32 │  u32  │ u32×n  │  u32  │
//!  └───────┴───┴──────┴───────────┴──────────┴─────┴───────┴────────┴───────┘
//! ```
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
//! ## Delivery
//!
//! Sends are clocked by acks, so a monitor never puts more datagrams in
//! flight than the centre's receive buffer holds:
//!
//! * a chunk goes out for the first time only while its seq is below the
//!   centre's cumulative ack plus [`SEND_WINDOW`];
//! * after each batch it drains, the centre NACKs the holes below each
//!   router's highest delivered seq, for the routers whose highest seq
//!   rose ([`EpochCollector::gap_requests`]), and the session timers stay
//!   the backstop;
//! * a monitor whose wait ends with no control frame re-sends the chunk
//!   at its cumulative ack as a tail probe, and its resend timer counts
//!   ticks without ack progress;
//! * an idle driver waits on its UDP socket until a datagram is readable
//!   or a 200 µs tick passes (TCP endpoints sleep the tick).
//!
//! ## Transports
//!
//! * **UDP** — one frame per datagram. Chunk payloads must stay
//!   datagram-safe ([`crate::transport::DATAGRAM_SAFE_PAYLOAD`]); the
//!   peer address table is learned from received frame headers, so a
//!   centre restart needs no reconfiguration.
//! * **TCP** — a length-prefixed frame stream (`u32` LE length, then the
//!   frame bytes) for deployments that cannot pass UDP. Reordering and
//!   loss disappear, but the chunk/ack machinery still bounds memory and
//!   survives connection resets.

use crate::clock::Clock;
use crate::session::{
    ChunkDisposition, CollectedEpoch, EpochCollector, Missing, RetransmitRequest,
};
use crate::transport::{ChunkFrame, MAX_CHUNK_PAYLOAD};
use bytes::BufMut;
use dcs_collect::frame::{seal, FrameError, Reader};
use dcs_obs::MetricsRegistry;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// Magic for control frames (`b"DCSN"`).
pub const CONTROL_MAGIC: [u8; 4] = *b"DCSN";

/// Control frame version.
pub const CONTROL_VERSION: u8 = 1;

/// Fixed control-frame bytes before the seq list: magic + version +
/// kind + router id + epoch id + arg + seq count.
pub const CONTROL_HEADER: usize = 4 + 1 + 1 + 8 + 8 + 4 + 4;

/// Largest frame a TCP stream may declare: a max-payload chunk frame
/// plus envelope. Anything larger is a protocol violation and resets
/// the connection.
pub const MAX_STREAM_FRAME: usize = MAX_CHUNK_PAYLOAD + 128;

/// Largest UDP payload over IPv4: 65,535 bytes less the 20-byte IP and
/// 8-byte UDP headers.
const MAX_DATAGRAM: usize = 65_507;

/// Most seqs one [`ControlFrame::NackSeqs`] carries (16,368), so that the
/// largest control frame fits one UDP datagram and one TCP stream frame.
/// The centre clips a longer NACK to its first `MAX_NACK_SEQS` missing
/// seqs; the session's next timer asks for the rest.
pub const MAX_NACK_SEQS: usize = (MAX_DATAGRAM - CONTROL_HEADER - 4) / 4;

const _: () = assert!(
    CONTROL_HEADER + 4 * MAX_NACK_SEQS + 4 <= MAX_DATAGRAM
        && CONTROL_HEADER + 4 * MAX_NACK_SEQS + 4 <= MAX_STREAM_FRAME
);

/// Chunks a monitor sends ahead of the centre's cumulative ack: a chunk
/// goes out for the first time only while its seq is below
/// `cumulative_ack + SEND_WINDOW`. 64 datagrams of up to 1.4 KB sit well
/// inside one default Linux receive buffer (212,992 B, about 92 such
/// datagrams by the kernel's accounting), so a window the centre has not
/// drained yet is queued, not dropped.
pub const SEND_WINDOW: usize = 64;

/// The longest an idle driver waits for a frame before it looks at its
/// timers again.
const WAIT_TICK: Duration = Duration::from_micros(200);

const KIND_HELLO: u8 = 0;
const KIND_ACK: u8 = 1;
const KIND_NACK_ALL: u8 = 2;
const KIND_NACK_SEQS: u8 = 3;
const KIND_ADVANCE: u8 = 4;
const KIND_SHUTDOWN: u8 = 5;

/// A decoded DCSN control frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlFrame {
    /// Monitor → centre: register this router's address before (or
    /// without) sending data.
    Hello {
        /// The registering router.
        router_id: u64,
    },
    /// Centre → monitor: the session's cumulative ack for `epoch_id`.
    Ack {
        /// The acked router.
        router_id: u64,
        /// The epoch being collected.
        epoch_id: u64,
        /// Leading contiguous chunks now held.
        cumulative_ack: u32,
    },
    /// Centre → monitor: resend every chunk of the epoch.
    NackAll {
        /// The router whose chunks are missing.
        router_id: u64,
        /// The epoch being collected.
        epoch_id: u64,
    },
    /// Centre → monitor: resend these chunk seqs.
    NackSeqs {
        /// The router whose chunks are missing.
        router_id: u64,
        /// The epoch being collected.
        epoch_id: u64,
        /// The missing seqs.
        seqs: Vec<u32>,
    },
    /// Centre → monitor: the centre is now collecting `epoch_id`; stop
    /// sending older epochs.
    Advance {
        /// The addressed router (or `u64::MAX` for broadcast).
        router_id: u64,
        /// The epoch the centre collects now.
        epoch_id: u64,
    },
    /// Centre → monitor: stop cleanly.
    Shutdown {
        /// The addressed router (or `u64::MAX` for broadcast).
        router_id: u64,
    },
}

impl ControlFrame {
    /// The addressed router.
    pub fn router_id(&self) -> u64 {
        match *self {
            ControlFrame::Hello { router_id }
            | ControlFrame::Ack { router_id, .. }
            | ControlFrame::NackAll { router_id, .. }
            | ControlFrame::NackSeqs { router_id, .. }
            | ControlFrame::Advance { router_id, .. }
            | ControlFrame::Shutdown { router_id } => router_id,
        }
    }

    /// Encodes the frame with its CRC-32 trailer.
    ///
    /// # Panics
    /// Panics if a `NackSeqs` list is longer than [`MAX_NACK_SEQS`].
    pub fn encode(&self) -> Vec<u8> {
        let (kind, router_id, epoch_id, arg, seqs): (u8, u64, u64, u32, &[u32]) = match self {
            ControlFrame::Hello { router_id } => (KIND_HELLO, *router_id, 0, 0, &[]),
            ControlFrame::Ack {
                router_id,
                epoch_id,
                cumulative_ack,
            } => (KIND_ACK, *router_id, *epoch_id, *cumulative_ack, &[]),
            ControlFrame::NackAll {
                router_id,
                epoch_id,
            } => (KIND_NACK_ALL, *router_id, *epoch_id, 0, &[]),
            ControlFrame::NackSeqs {
                router_id,
                epoch_id,
                seqs,
            } => (KIND_NACK_SEQS, *router_id, *epoch_id, 0, seqs),
            ControlFrame::Advance {
                router_id,
                epoch_id,
            } => (KIND_ADVANCE, *router_id, *epoch_id, 0, &[]),
            ControlFrame::Shutdown { router_id } => (KIND_SHUTDOWN, *router_id, 0, 0, &[]),
        };
        assert!(seqs.len() <= MAX_NACK_SEQS, "seq list over cap");
        let mut buf = Vec::with_capacity(CONTROL_HEADER + seqs.len() * 4 + 4);
        buf.put_slice(&CONTROL_MAGIC);
        buf.put_u8(CONTROL_VERSION);
        buf.put_u8(kind);
        buf.put_u64_le(router_id);
        buf.put_u64_le(epoch_id);
        buf.put_u32_le(arg);
        buf.put_u32_le(seqs.len() as u32);
        for &s in seqs {
            buf.put_u32_le(s);
        }
        seal(&mut buf);
        buf
    }

    /// Decodes a control frame. Never panics on arbitrary input; the seq
    /// count is capped before allocation and the CRC-32 trailer is
    /// verified before the kind is trusted.
    pub fn decode(buf: &[u8]) -> Result<ControlFrame, FrameError> {
        let mut r = Reader::new(buf);
        r.magic_version(CONTROL_MAGIC, &[CONTROL_VERSION])?;
        let kind = r.u8()?;
        let router_id = r.u64()?;
        let epoch_id = r.u64()?;
        let arg = r.u32()?;
        let nseqs = r.count(MAX_NACK_SEQS, 4, "seq count over cap")?;
        let seqs = (0..nseqs).map(|_| r.u32()).collect::<Result<Vec<_>, _>>()?;
        r.crc_trailer()?;
        Ok(match kind {
            KIND_HELLO => ControlFrame::Hello { router_id },
            KIND_ACK => ControlFrame::Ack {
                router_id,
                epoch_id,
                cumulative_ack: arg,
            },
            KIND_NACK_ALL => ControlFrame::NackAll {
                router_id,
                epoch_id,
            },
            KIND_NACK_SEQS => ControlFrame::NackSeqs {
                router_id,
                epoch_id,
                seqs,
            },
            KIND_ADVANCE => ControlFrame::Advance {
                router_id,
                epoch_id,
            },
            KIND_SHUTDOWN => ControlFrame::Shutdown { router_id },
            _ => return Err(FrameError::Malformed("unknown control kind")),
        })
    }
}

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

/// Which transport a socket endpoint runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One frame per datagram (primary).
    Udp,
    /// Length-prefixed frame stream (fallback).
    Tcp,
}

impl std::str::FromStr for Transport {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "udp" => Ok(Transport::Udp),
            "tcp" => Ok(Transport::Tcp),
            other => Err(format!("unknown transport {other:?} (udp|tcp)")),
        }
    }
}

/// Where a peer can be reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Peer {
    Udp(SocketAddr),
    Tcp(usize),
}

#[derive(Debug)]
struct TcpConn {
    stream: TcpStream,
    rdbuf: Vec<u8>,
    dead: bool,
}

impl TcpConn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(TcpConn {
            stream,
            rdbuf: Vec::new(),
            dead: false,
        })
    }

    /// Drains readable bytes and parses complete length-prefixed frames.
    fn poll_frames(&mut self, scratch: &mut [u8]) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.rdbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        let mut r = Reader::new(&self.rdbuf);
        loop {
            let mut next = r;
            match next
                .count(MAX_STREAM_FRAME, 1, "stream frame over cap")
                .and_then(|len| next.bytes(len))
            {
                Ok(frame) => {
                    frames.push(frame.to_vec());
                    r = next;
                }
                // Wait for the rest of the frame.
                Err(FrameError::Truncated) => break,
                // Protocol violation: drop the connection, typed.
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        let used = r.used();
        self.rdbuf.drain(..used);
        frames
    }

    /// Writes one length-prefixed frame; returns false when the
    /// connection died. A short nonblocking write blocks briefly rather
    /// than splitting frame state across calls — frames are small
    /// (≤ [`MAX_STREAM_FRAME`]) and localhost TCP buffers absorb them.
    fn send_frame(&mut self, frame: &[u8]) -> bool {
        if self.dead {
            return false;
        }
        let mut buf = Vec::with_capacity(4 + frame.len());
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(frame);
        let mut off = 0;
        while off < buf.len() {
            match self.stream.write(&buf[off..]) {
                Ok(0) => {
                    self.dead = true;
                    return false;
                }
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return false;
                }
            }
        }
        true
    }
}

/// Extracts the routing identity of a received frame: DCSC chunk headers
/// and DCSN control frames both carry the router id up front.
fn frame_router_id(frame: &[u8]) -> Option<u64> {
    if frame.starts_with(&CONTROL_MAGIC) {
        return ControlFrame::decode(frame).ok().map(|c| c.router_id());
    }
    ChunkFrame::salvage_header(frame).map(|(router_id, _, _)| router_id)
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

/// The analysis centre's socket endpoint: binds UDP (and, for
/// [`Transport::Tcp`], a listener on the same port), learns peer
/// addresses from received frames, and queues outgoing control frames
/// with stall-aware nonblocking sends.
#[derive(Debug)]
pub struct CenterSocket {
    udp: UdpSocket,
    listener: Option<TcpListener>,
    conns: Vec<TcpConn>,
    peers: BTreeMap<u64, Peer>,
    outq: VecDeque<(Peer, Vec<u8>)>,
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

impl CenterSocket {
    /// Binds the centre endpoint on `addr` (e.g. `127.0.0.1:0`). With
    /// [`Transport::Tcp`] a listener is opened on the same port as the
    /// UDP socket; UDP remains live so mixed deployments work.
    pub fn bind(addr: impl ToSocketAddrs, transport: Transport) -> std::io::Result<CenterSocket> {
        let udp = UdpSocket::bind(addr)?;
        udp.set_nonblocking(true)?;
        udp.set_read_timeout(Some(WAIT_TICK))?;
        let listener = match transport {
            Transport::Udp => None,
            Transport::Tcp => {
                let l = TcpListener::bind(udp.local_addr()?)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
        };
        Ok(CenterSocket {
            udp,
            listener,
            conns: Vec::new(),
            peers: BTreeMap::new(),
            outq: VecDeque::new(),
            scratch: vec![0u8; MAX_STREAM_FRAME + 64],
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

    /// Drains every readable frame (UDP datagrams, TCP streams, new TCP
    /// connections), learns peer addresses from frame headers, flushes
    /// the outgoing queue, and updates the socket gauges.
    pub fn poll(&mut self, metrics: &MetricsRegistry) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        // New TCP connections.
        if let Some(listener) = &self.listener {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => match TcpConn::new(stream) {
                        Ok(conn) => self.conns.push(conn),
                        Err(_) => {
                            metrics
                                .counter("socket_send_errors_total", &ROLE_CENTER)
                                .inc();
                        }
                    },
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        // UDP datagrams.
        loop {
            match self.udp.recv_from(&mut self.scratch) {
                Ok((n, src)) => {
                    let frame = self.scratch[..n].to_vec();
                    if let Some(router_id) = frame_router_id(&frame) {
                        self.peers.insert(router_id, Peer::Udp(src));
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
        // TCP frame streams.
        for i in 0..self.conns.len() {
            let polled = self.conns[i].poll_frames(&mut self.scratch);
            for frame in polled {
                if let Some(router_id) = frame_router_id(&frame) {
                    self.peers.insert(router_id, Peer::Tcp(i));
                }
                frames.push(frame);
            }
        }
        metrics
            .counter("socket_frames_received_total", &ROLE_CENTER)
            .add(frames.len() as u64);
        self.flush(metrics);
        frames
    }

    /// Waits for the next frame: until a datagram is readable or
    /// [`WAIT_TICK`] passes over UDP, the whole tick when a TCP listener
    /// is open (its streams are polled, not waited on).
    fn wait(&self) {
        match self.listener {
            None => wait_readable(&self.udp),
            Some(_) => std::thread::sleep(WAIT_TICK),
        }
    }

    /// Queues a control frame to `router_id`'s learned address. Returns
    /// false (and counts `socket_unknown_peer_total`) when the router has
    /// never been heard from — the caller's timers cover that monitor.
    pub fn send_control(&mut self, control: &ControlFrame, metrics: &MetricsRegistry) -> bool {
        let router_id = control.router_id();
        let Some(&peer) = self.peers.get(&router_id) else {
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
        while let Some((peer, frame)) = self.outq.pop_front() {
            match peer {
                Peer::Udp(addr) => match self.udp.send_to(&frame, addr) {
                    Ok(_) => {
                        metrics
                            .counter("socket_frames_sent_total", &ROLE_CENTER)
                            .inc();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        metrics
                            .counter("socket_send_stalls_total", &ROLE_CENTER)
                            .inc();
                        self.outq.push_front((peer, frame));
                        break;
                    }
                    Err(_) => {
                        metrics
                            .counter("socket_send_errors_total", &ROLE_CENTER)
                            .inc();
                    }
                },
                Peer::Tcp(i) => {
                    if self.conns.get_mut(i).is_some_and(|c| c.send_frame(&frame)) {
                        metrics
                            .counter("socket_frames_sent_total", &ROLE_CENTER)
                            .inc();
                    } else {
                        metrics
                            .counter("socket_send_errors_total", &ROLE_CENTER)
                            .inc();
                    }
                }
            }
        }
        metrics
            .gauge("socket_send_queue_depth", &ROLE_CENTER)
            .set(self.outq.len() as u64);
    }
}

/// A monitoring point's socket endpoint: a connected UDP socket or a TCP
/// stream to the centre, with the impairment shim (if any) on the
/// outgoing data path.
#[derive(Debug)]
pub struct MonitorSocket {
    inner: MonitorInner,
    outq: VecDeque<Vec<u8>>,
    scratch: Vec<u8>,
    shim: Option<ImpairmentShim>,
}

#[derive(Debug)]
enum MonitorInner {
    Udp(UdpSocket),
    Tcp(TcpConn),
}

impl MonitorSocket {
    /// Connects to the centre at the first address `center` resolves to,
    /// over `transport`.
    pub fn connect(
        center: impl ToSocketAddrs,
        transport: Transport,
    ) -> std::io::Result<MonitorSocket> {
        let addr = center
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no addr"))?;
        let inner = match transport {
            Transport::Udp => {
                // The unspecified address of the centre's family: the
                // kernel picks the source address that routes to it.
                let local: SocketAddr = if addr.is_ipv4() {
                    (Ipv4Addr::UNSPECIFIED, 0).into()
                } else {
                    (Ipv6Addr::UNSPECIFIED, 0).into()
                };
                let udp = UdpSocket::bind(local)?;
                udp.connect(addr)?;
                udp.set_nonblocking(true)?;
                udp.set_read_timeout(Some(WAIT_TICK))?;
                MonitorInner::Udp(udp)
            }
            Transport::Tcp => MonitorInner::Tcp(TcpConn::new(TcpStream::connect(addr)?)?),
        };
        Ok(MonitorSocket {
            inner,
            outq: VecDeque::new(),
            scratch: vec![0u8; MAX_STREAM_FRAME + 64],
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
        let mut raw = Vec::new();
        match &mut self.inner {
            MonitorInner::Udp(udp) => loop {
                match udp.recv(&mut self.scratch) {
                    Ok(n) => raw.push(self.scratch[..n].to_vec()),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // ECONNREFUSED from a dead centre: typed count;
                        // the backoff machinery keeps retrying.
                        metrics
                            .counter("socket_recv_errors_total", &ROLE_MONITOR)
                            .inc();
                        break;
                    }
                }
            },
            MonitorInner::Tcp(conn) => raw = conn.poll_frames(&mut self.scratch),
        }
        for frame in raw {
            metrics
                .counter("socket_frames_received_total", &ROLE_MONITOR)
                .inc();
            match ControlFrame::decode(&frame) {
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

    /// Waits for the centre's next frame: until a datagram is readable or
    /// [`WAIT_TICK`] passes over UDP, the whole tick over TCP.
    fn wait(&self) {
        match &self.inner {
            MonitorInner::Udp(udp) => wait_readable(udp),
            MonitorInner::Tcp(_) => std::thread::sleep(WAIT_TICK),
        }
    }

    fn flush(&mut self, metrics: &MetricsRegistry) {
        while let Some(frame) = self.outq.pop_front() {
            match &mut self.inner {
                MonitorInner::Udp(udp) => match udp.send(&frame) {
                    Ok(_) => {
                        metrics
                            .counter("socket_frames_sent_total", &ROLE_MONITOR)
                            .inc();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        metrics
                            .counter("socket_send_stalls_total", &ROLE_MONITOR)
                            .inc();
                        self.outq.push_front(frame);
                        break;
                    }
                    Err(_) => {
                        // A dead centre refuses datagrams; the chunk is
                        // not lost — the resend schedule re-pushes it.
                        metrics
                            .counter("socket_send_errors_total", &ROLE_MONITOR)
                            .inc();
                    }
                },
                MonitorInner::Tcp(conn) => {
                    if conn.send_frame(&frame) {
                        metrics
                            .counter("socket_frames_sent_total", &ROLE_MONITOR)
                            .inc();
                    } else {
                        metrics
                            .counter("socket_send_errors_total", &ROLE_MONITOR)
                            .inc();
                    }
                }
            }
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
/// Each iteration drains a batch of frames: chunks are offered to the
/// collector and acked (a duplicate repeats the ack, since ours may have
/// been lost), `Hello` registers a peer, and a late chunk of an older
/// epoch is answered with `Advance`. After the batch, each router whose
/// highest delivered seq rose is sent one `NackSeqs` naming the holes
/// below it ([`EpochCollector::gap_requests`]); then the collector's due
/// retransmit timers fire as NACKs, the backstop for silent routers and
/// lost tails, and the `socket_reassembly_backlog` gauge is updated.
/// An idle iteration waits on the UDP socket until a datagram arrives
/// or a 200 µs tick passes (a TCP centre sleeps the tick).
/// `should_abort` is called once per iteration — the serve CLI uses it
/// for periodic checkpoints and signal-triggered shutdown.
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
        let idle = frames.is_empty();
        let marks = if idle {
            Vec::new()
        } else {
            collector.high_marks()
        };
        for frame in frames {
            if frame.starts_with(&CONTROL_MAGIC) {
                // Monitors only send Hello; anything else is ignored.
                continue;
            }
            let now = clock.now();
            match collector.offer(&frame, now) {
                ChunkDisposition::Accepted {
                    router_id,
                    cumulative_ack,
                } => {
                    sock.send_control(
                        &ControlFrame::Ack {
                            router_id,
                            epoch_id: collector.epoch_id(),
                            cumulative_ack,
                        },
                        metrics,
                    );
                }
                ChunkDisposition::Duplicate { router_id } => {
                    // Our ack may have been lost; repeat it.
                    let cumulative_ack = collector
                        .session(router_id)
                        .map_or(0, |s| s.cumulative_ack());
                    sock.send_control(
                        &ControlFrame::Ack {
                            router_id,
                            epoch_id: collector.epoch_id(),
                            cumulative_ack,
                        },
                        metrics,
                    );
                }
                ChunkDisposition::Late => {
                    // A monitor is still pushing an older epoch: tell it
                    // where the centre is now.
                    if let Some((router_id, _, _)) = ChunkFrame::salvage_header(&frame) {
                        sock.send_control(
                            &ControlFrame::Advance {
                                router_id,
                                epoch_id: collector.epoch_id(),
                            },
                            metrics,
                        );
                    }
                }
                ChunkDisposition::Corrupt
                | ChunkDisposition::UnknownRouter { .. }
                | ChunkDisposition::Inconsistent { .. } => {}
            }
        }
        let gaps = if idle {
            Vec::new()
        } else {
            collector.gap_requests(&marks, MAX_NACK_SEQS)
        };
        for req in gaps.into_iter().chain(collector.poll(clock.now())) {
            sock.send_control(&nack(req), metrics);
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
            // Tell every monitor we heard from to move on; monitors that
            // miss this learn it from the Late→Advance reply instead.
            sock.broadcast(
                |router_id| ControlFrame::Advance {
                    router_id,
                    epoch_id: epoch.epoch_id + 1,
                },
                metrics,
            );
            return CenterEpochEnd::Collected(Box::new(epoch));
        }
        if idle {
            sock.wait();
        }
    }
}

/// The control frame that carries a retransmit request, its seq list
/// clipped to [`MAX_NACK_SEQS`] (the session's next timer asks for the
/// rest).
fn nack(req: RetransmitRequest) -> ControlFrame {
    match req.missing {
        Missing::All => ControlFrame::NackAll {
            router_id: req.router_id,
            epoch_id: req.epoch_id,
        },
        Missing::Seqs(mut seqs) => {
            seqs.truncate(MAX_NACK_SEQS);
            ControlFrame::NackSeqs {
                router_id: req.router_id,
                epoch_id: req.epoch_id,
                seqs,
            }
        }
    }
}

/// How one monitor-side epoch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorEpochEnd {
    /// Every chunk was cumulatively acked, or the centre advanced past
    /// this epoch.
    Delivered,
    /// The centre told us to shut down.
    Shutdown,
    /// No delivery progress within the give-up horizon.
    TimedOut,
}

/// Resend/backoff parameters of the monitor-side epoch driver.
#[derive(Debug, Clone, Copy)]
pub struct MonitorEpochConfig {
    /// This monitor's router id.
    pub router_id: u64,
    /// The epoch being shipped.
    pub epoch_id: u64,
    /// Ticks of no progress before re-pushing unacked chunks.
    pub resend_after: u64,
    /// Cap on the resend backoff (doubles from `resend_after`).
    pub max_backoff: u64,
    /// Ticks without ack progress before the epoch is abandoned.
    pub give_up: u64,
}

/// Ships one epoch's chunk frames to the centre and drives the ack /
/// NACK / advance dialogue until delivery, shutdown or give-up.
///
/// Sends are clocked by the centre's cumulative acks. A chunk goes out
/// for the first time only while its seq is below `cumulative_ack +`
/// [`SEND_WINDOW`], so the monitor never has more unacked datagrams in
/// flight than the centre's receive buffer holds. A `NackSeqs` is
/// answered for the seqs already sent, a `NackAll` with the sent prefix.
/// When the wait for the centre's next frame (on arrival or after a
/// 200 µs tick) ends with no control frame, the monitor re-sends the
/// chunk at its cumulative ack as a tail probe: one datagram a silent
/// tick, which recovers a lost tail or a lost ack in one round trip.
///
/// The resend timer restarts whenever an ack advances or a NACK is
/// answered. When it fires, after `resend_after` ticks without either
/// and doubling up to `max_backoff`, the monitor re-pushes every chunk it
/// has sent past the cumulative ack. That is the client half of crash
/// recovery: when a restarted centre resumes from its checkpoint, these
/// re-pushed frames re-teach it the monitor's address and fill the holes
/// its NACKs ask for.
pub fn run_monitor_epoch(
    sock: &mut MonitorSocket,
    chunks: &[Vec<u8>],
    cfg: &MonitorEpochConfig,
    clock: &dyn Clock,
    metrics: &MetricsRegistry,
) -> MonitorEpochEnd {
    let resend_after = cfg.resend_after.max(1);
    let mut cumulative: u32 = 0;
    // `chunks[..sent]` have gone out at least once.
    let mut sent = 0usize;
    let mut backoff = resend_after;
    let mut last_progress = clock.now();
    let mut next_resend = last_progress.saturating_add(backoff);
    let mut waited = false;
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

    sock.send(
        &ControlFrame::Hello {
            router_id: cfg.router_id,
        }
        .encode(),
        metrics,
    );

    loop {
        // Controls queued before the first send (a NACK fired before this
        // monitor started) are answered with what has been sent: nothing.
        let controls = sock.poll(metrics);
        let silent = waited && controls.is_empty();
        let mut resent = false;
        for control in controls {
            match control {
                ControlFrame::Ack {
                    router_id,
                    epoch_id,
                    cumulative_ack,
                } if router_id == cfg.router_id
                    && epoch_id == cfg.epoch_id
                    && cumulative_ack > cumulative =>
                {
                    cumulative = cumulative_ack;
                    last_progress = clock.now();
                    backoff = resend_after;
                    next_resend = last_progress.saturating_add(backoff);
                }
                ControlFrame::NackAll {
                    router_id,
                    epoch_id,
                } if router_id == cfg.router_id && epoch_id == cfg.epoch_id => {
                    for chunk in &chunks[..sent] {
                        sock.send(chunk, metrics);
                    }
                    resent |= sent > 0;
                }
                ControlFrame::NackSeqs {
                    router_id,
                    epoch_id,
                    seqs,
                } if router_id == cfg.router_id && epoch_id == cfg.epoch_id => {
                    for &seq in &seqs {
                        if let Some(chunk) = chunks[..sent].get(seq as usize) {
                            sock.send(chunk, metrics);
                            resent = true;
                        }
                    }
                }
                ControlFrame::Advance { epoch_id, .. } if epoch_id > cfg.epoch_id => {
                    return MonitorEpochEnd::Delivered;
                }
                ControlFrame::Shutdown { .. } => return MonitorEpochEnd::Shutdown,
                _ => {}
            }
        }
        let acked = cumulative as usize;
        if acked >= chunks.len() {
            return MonitorEpochEnd::Delivered;
        }
        let window_end = acked.saturating_add(SEND_WINDOW).min(chunks.len());
        let opened = sent < window_end;
        if opened {
            for chunk in &chunks[sent..window_end] {
                sock.send(chunk, metrics);
            }
            sent = window_end;
        }
        let now = clock.now();
        if now.saturating_sub(last_progress) >= cfg.give_up {
            metrics
                .counter("socket_epochs_abandoned_total", &ROLE_MONITOR)
                .inc();
            return MonitorEpochEnd::TimedOut;
        }
        let timer = now >= next_resend;
        if timer && !resent {
            // No ack progress and no NACK: re-push everything sent past
            // the cumulative ack (the centre may have died and restarted).
            for chunk in &chunks[acked..sent] {
                sock.send(chunk, metrics);
            }
            metrics
                .counter("socket_resend_bursts_total", &ROLE_MONITOR)
                .inc();
            backoff = (backoff * 2).min(cfg.max_backoff.max(1));
        } else if silent && !resent {
            // Tail probe: the chunk the centre's cumulative ack waits for.
            sock.send(&chunks[acked], metrics);
        }
        if resent || timer {
            next_resend = now.saturating_add(backoff);
        }
        if resent || timer || opened || silent {
            sock.flush_shim(metrics);
        }
        waited = true;
        sock.wait();
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

    #[test]
    fn tcp_roundtrip_perfect() {
        socket_roundtrip(Transport::Tcp, ImpairmentConfig::perfect());
    }

    #[test]
    fn tcp_roundtrip_impaired() {
        // Impairing the shim on a TCP link loses frames before the
        // stream, so retransmits still matter.
        socket_roundtrip(Transport::Tcp, ImpairmentConfig::soak());
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

    /// A session missing more chunks than one datagram or one stream
    /// frame can name still reaches its monitor: the NACK arrives clipped
    /// to the first `MAX_NACK_SEQS` missing seqs, over UDP and over TCP.
    #[test]
    fn an_oversized_nack_is_clipped_to_fit_the_transport() {
        for transport in [Transport::Udp, Transport::Tcp] {
            let clock = ManualClock::new(0);
            let mut center = CenterSocket::bind("127.0.0.1:0", transport).unwrap();
            let mut monitor =
                MonitorSocket::connect(center.local_addr().unwrap(), transport).unwrap();
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
