//! The one module that calls into the system under test.
//!
//! Every `dcs-*` path the benchmark depends on is named here and nowhere
//! else, so a refactor of the system's API is answered by editing this
//! file (README.md lists the surface). Each function wraps one call into a
//! layer — timed from outside, with a span when tracing is on — or builds
//! an input from the repository's traffic generator.

use crate::trace::{SpanId, Tracer};
use dcs_collect::{AlignedCollector, UnalignedCollector};
use dcs_core::aggregate::Aggregator;
use dcs_core::clock::{Clock, TickClock};
use dcs_core::monitor::{
    MonitorConfig, MonitoringPoint, RouterDigest, SketchCollector, SketchSpec,
};
use dcs_core::net::{
    run_center_epoch, run_monitor_epoch, CenterEpochEnd, CenterSocket, ControlFrame,
    ImpairmentConfig, ImpairmentShim, MonitorEpochConfig, MonitorEpochEnd, MonitorSocket,
    Transport,
};
use dcs_core::session::{
    ChunkDisposition, CollectedEpoch, CollectorConfig, EpochCollector, Missing, RetransmitRequest,
    SessionConfig, StragglerPolicy,
};
use dcs_core::transport::{chunk_bundle, ChunkFrame, CHUNK_HEADER, CHUNK_TRAILER};
use dcs_core::{
    AnalysisCenter, AnalysisConfig, EpochReport, MetricsRegistry, Stage, TransportStats,
};
use dcs_obs::MetricsSnapshot;
use dcs_sim::channel::{ChannelConfig, LossyChannel};
use dcs_traffic::{gen, BackgroundConfig, ContentObject, Planting, SizeMix};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use dcs_bitmap::Bitmap;
pub use dcs_core::transport::DATAGRAM_SAFE_PAYLOAD;
pub use dcs_traffic::Packet;

/// Hash seed shared by every monitoring point of a deployment.
const DEPLOYMENT_HASH_SEED: u64 = 7;

/// Aggregator ids sit far above any leaf id, as in `dcs-sim::tiered`.
const AGGREGATOR_ID_BASE: u64 = 1 << 20;

/// What the harness carries through an epoch: the tracer, the exact
/// counts and the timings that are not spans.
pub struct Probe {
    pub tr: Tracer,
    /// Whether this run reads the per-layer counters at all (`--trace 1`).
    pub detail: bool,
    /// Whether the current epoch lies inside the count window.
    pub counting: bool,
    counts: BTreeMap<&'static str, u64>,
    times_ns: BTreeMap<&'static str, u64>,
    /// The last `center.analyze` span, so the stage gauges read after the
    /// epoch can be attached to it as children.
    analyze_span: SpanId,
}

impl Probe {
    pub fn new(detail: bool) -> Self {
        Probe {
            tr: Tracer::new(),
            detail,
            counting: false,
            counts: BTreeMap::new(),
            times_ns: BTreeMap::new(),
            analyze_span: None,
        }
    }

    /// Adds to an exact count, inside the count window only.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.counting {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Adds to a timing (or its denominator) kept beside the spans, on
    /// traced epochs only.
    pub fn time(&mut self, name: &'static str, ns: u64) {
        if self.tr.enabled {
            *self.times_ns.entry(name).or_default() += ns;
        }
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn timed(&self, name: &str) -> u64 {
        self.times_ns.get(name).copied().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// Inputs: packets, planted content, synthetic background
// ---------------------------------------------------------------------

/// Payload-size mix of a packet pool.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// The 40/576/1500 B `SizeMix::internet_default()`.
    Internet,
    /// Every payload this many bytes.
    Constant(usize),
}

/// A pool of `slots` × `per_slot` background packets. Each slot is one
/// router's epoch from the repository's generator, with a flow table of
/// its own and Zipf-1.0 flow sizes. One table for the whole pool would put
/// the same elephant flows in every slot and tilt every monitor's groups
/// the same way for the whole run: on `tiered-chan` that made one seed's
/// verdicts a third slower than another's.
pub fn packet_pool(rng: &mut StdRng, slots: usize, per_slot: usize, mix: Mix) -> Vec<Packet> {
    let cfg = BackgroundConfig {
        packets: per_slot,
        flows: (per_slot / 4).max(1),
        zipf_exponent: 1.0,
        size_mix: match mix {
            Mix::Internet => SizeMix::internet_default(),
            Mix::Constant(size) => SizeMix::constant(size),
        },
    };
    (0..slots)
        .flat_map(|_| gen::generate_epoch(rng, &cfg))
        .collect()
}

/// The common content of one alarm epoch.
pub struct Plant {
    aligned: Planting,
    unaligned: Planting,
}

impl Plant {
    /// An aligned object of `aligned_packets` and an unaligned object of
    /// `unaligned_packets` 536-byte payloads.
    pub fn new(rng: &mut StdRng, aligned_packets: usize, unaligned_packets: usize) -> Self {
        Plant {
            aligned: Planting::aligned(
                ContentObject::random_with_packets(rng, aligned_packets, 536),
                536,
            ),
            unaligned: Planting::unaligned(
                ContentObject::random_with_packets(rng, unaligned_packets, 536),
                536,
            ),
        }
    }

    /// One router's share: one aligned instance and two unaligned ones,
    /// each on its own flow.
    pub fn instances(&self, rng: &mut StdRng) -> Vec<Packet> {
        let mut out = self.aligned.instantiate(rng);
        out.extend(self.unaligned.instantiate(rng));
        out.extend(self.unaligned.instantiate(rng));
        out
    }
}

/// A bitmap whose bits are set independently with probability
/// 2^-`and_shift`.
pub fn random_bitmap(rng: &mut StdRng, bits: usize, and_shift: u32) -> Bitmap {
    let mut words: Vec<u64> = (0..bits.div_ceil(64))
        .map(|_| (0..and_shift).fold(u64::MAX, |acc, _| acc & rng.gen::<u64>()))
        .collect();
    if !bits.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (bits % 64)) - 1;
        }
    }
    Bitmap::from_words(bits, words)
}

#[cfg(test)]
pub fn bitmap_words(bitmap: &Bitmap) -> &[u64] {
    bitmap.words()
}

/// ORs a synthetic background under a live digest: the stand-in for the
/// tens of millions of packets a real epoch at 50 % fill would carry.
pub fn overlay_background(digest: &mut RouterDigest, aligned: &Bitmap, arrays: &[Bitmap]) {
    digest.aligned.bitmap.or_assign(aligned);
    for (live, background) in digest.unaligned.arrays.iter_mut().zip(arrays) {
        live.or_assign(background);
    }
}

// ---------------------------------------------------------------------
// collect: dcs-collect, dcs-sketch, dcs-bitmap through MonitoringPoint
// ---------------------------------------------------------------------

/// Digest geometry of one monitoring point.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub aligned_bits: usize,
    pub groups: usize,
    /// Keys of the `heavy_content` sidecar sketch; 0 turns it off.
    pub sketch_cap: usize,
}

fn monitor_config(g: &Geometry) -> MonitorConfig {
    let cfg = MonitorConfig::small(DEPLOYMENT_HASH_SEED, g.aligned_bits, g.groups);
    if g.sketch_cap > 0 {
        cfg.with_sketch(SketchSpec::heavy_content(g.sketch_cap))
    } else {
        cfg
    }
}

pub type Monitor = MonitoringPoint;
pub type Digest = RouterDigest;

pub fn monitor(router_id: usize, g: &Geometry) -> Monitor {
    MonitoringPoint::new(router_id, &monitor_config(g))
}

/// `MonitoringPoint::observe_all`, returning the time spent inside it.
pub fn observe<'a>(
    p: &mut Probe,
    mp: &mut Monitor,
    packets: impl IntoIterator<Item = &'a Packet>,
) -> Duration {
    let span = p.tr.begin("collect.observe");
    let t0 = Instant::now();
    mp.observe_all(packets);
    let spent = t0.elapsed();
    p.tr.end(span);
    spent
}

pub fn aligned_fill(mp: &Monitor) -> f64 {
    mp.aligned().fill_ratio()
}

/// The id the monitoring point's next bundle will carry.
pub fn next_epoch_id(mp: &Monitor) -> u64 {
    mp.epochs_finished()
}

/// The three collectors on their own, for the traced run's sub-layer
/// split. They see the same packets as a monitoring point but ship
/// nothing.
pub struct SubCollectors {
    aligned: AlignedCollector,
    unaligned: UnalignedCollector,
    sketch: Option<SketchCollector>,
}

impl SubCollectors {
    pub fn new(g: &Geometry) -> Self {
        let cfg = monitor_config(g);
        SubCollectors {
            sketch: cfg
                .sketch
                .enabled()
                .then(|| SketchCollector::new(&cfg.sketch, cfg.aligned.seed)),
            aligned: AlignedCollector::new(cfg.aligned),
            unaligned: UnalignedCollector::new(cfg.unaligned),
        }
    }

    /// Times each collector's `observe` over `packets`, outside the epoch.
    pub fn split(&mut self, p: &mut Probe, packets: &[&Packet]) {
        p.time("collect.sub.packets", packets.len() as u64);
        if let Some(sketch) = self.sketch.as_mut() {
            let t0 = Instant::now();
            for pkt in packets {
                sketch.observe(pkt, &self.aligned);
            }
            p.time("collect.sub.sketch_ns", t0.elapsed().as_nanos() as u64);
            sketch.finish_epoch();
        }
        let t0 = Instant::now();
        for pkt in packets {
            self.aligned.observe(pkt);
        }
        p.time("collect.sub.aligned_ns", t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        for pkt in packets {
            self.unaligned.observe(pkt);
        }
        p.time("collect.sub.unaligned_ns", t0.elapsed().as_nanos() as u64);
        self.aligned.finish_epoch();
        self.unaligned.finish_epoch();
    }
}

// ---------------------------------------------------------------------
// monitor + transport: closing an epoch into chunk frames
// ---------------------------------------------------------------------

/// Counts unique frames put on a hop; returns their total size.
fn count_frames(p: &mut Probe, frames: &[Vec<u8>]) -> usize {
    let bytes: usize = frames.iter().map(Vec::len).sum();
    p.count("transport.chunks", frames.len() as u64);
    p.count("transport.frame_bytes", bytes as u64);
    bytes
}

/// `MonitoringPoint::finish_epoch_chunks`: close, encode, chunk, and keep
/// the chunks for resends.
pub fn finish_chunks(
    p: &mut Probe,
    mp: &mut Monitor,
    max_payload: usize,
) -> Result<Vec<Vec<u8>>, String> {
    let span = p.tr.begin("monitor.finish");
    let chunks = mp.finish_epoch_chunks(max_payload);
    p.tr.end(span);
    let chunks = chunks.map_err(|e| format!("finish_epoch_chunks: {e}"))?;
    let bytes = count_frames(p, &chunks);
    let overhead = chunks.len() * (CHUNK_HEADER + CHUNK_TRAILER);
    p.count("monitor.bundle_bytes", (bytes - overhead) as u64);
    Ok(chunks)
}

/// `MonitoringPoint::finish_epoch`, for the replay path that edits the
/// digest before it is encoded.
pub fn finish_digest(p: &mut Probe, mp: &mut Monitor) -> Digest {
    p.tr.span("monitor.finish", || mp.finish_epoch())
}

/// `RouterDigest::encode_wire` then `chunk_bundle`.
pub fn encode_and_chunk(
    p: &mut Probe,
    digest: &Digest,
    max_payload: usize,
) -> Result<Vec<Vec<u8>>, String> {
    let span = p.tr.begin("monitor.encode");
    let wire = digest.encode_wire();
    p.tr.end(span);
    let wire = wire.map_err(|e| format!("encode_wire: {e}"))?;
    p.count("monitor.bundle_bytes", wire.len() as u64);
    let chunks = p.tr.span("transport.chunk", || {
        chunk_bundle(digest.router_id as u64, digest.epoch_id, &wire, max_payload)
    });
    count_frames(p, &chunks);
    Ok(chunks)
}

// ---------------------------------------------------------------------
// channel + session + aggregate: in-memory hops under a virtual clock
// ---------------------------------------------------------------------

/// Which in-memory channel a hop runs over.
#[derive(Debug, Clone, Copy)]
pub enum Channel {
    /// `ChannelConfig::perfect()`: instant, loss-free, in order.
    Perfect,
    /// `ChannelConfig::soak()`: 10 % drop, 5 % reorder, 2 % dup, 2 % corrupt.
    Soak,
}

/// The receiving end of a hop: an `EpochCollector` at the centre or an
/// `Aggregator` in the tier below it. Both run the same session machine;
/// the span names keep their time apart.
pub trait Receiver {
    const OFFER: &'static str;
    const POLL: &'static str;
    fn offer(&mut self, frame: &[u8], now: u64) -> ChunkDisposition;
    fn poll(&mut self, now: u64) -> Vec<RetransmitRequest>;
    fn ready(&self, now: u64) -> bool;
}

impl Receiver for EpochCollector {
    const OFFER: &'static str = "session.offer";
    const POLL: &'static str = "session.poll";
    fn offer(&mut self, frame: &[u8], now: u64) -> ChunkDisposition {
        EpochCollector::offer(self, frame, now)
    }
    fn poll(&mut self, now: u64) -> Vec<RetransmitRequest> {
        EpochCollector::poll(self, now)
    }
    fn ready(&self, now: u64) -> bool {
        EpochCollector::ready(self, now)
    }
}

impl Receiver for Aggregator {
    const OFFER: &'static str = "aggregate.offer";
    const POLL: &'static str = "aggregate.poll";
    fn offer(&mut self, frame: &[u8], now: u64) -> ChunkDisposition {
        Aggregator::offer(self, frame, now)
    }
    fn poll(&mut self, now: u64) -> Vec<RetransmitRequest> {
        Aggregator::poll(self, now)
    }
    fn ready(&self, now: u64) -> bool {
        Aggregator::ready(self, now)
    }
}

/// One channel and the receiver behind it.
pub struct Link<'a, R> {
    channel: &'a mut LossyChannel,
    pub receiver: R,
}

/// The channels of a hop outlive its per-epoch receivers: frames still in
/// flight when an epoch closes arrive in the next one, late.
pub struct Channels(Vec<LossyChannel>);

impl Channels {
    pub fn new(kind: Channel, count: usize, seed: u64) -> Self {
        let cfg = match kind {
            Channel::Perfect => ChannelConfig::perfect(),
            Channel::Soak => ChannelConfig::soak(),
        };
        Channels(
            (0..count)
                .map(|i| LossyChannel::new(cfg, seed ^ i as u64))
                .collect(),
        )
    }

    /// Pairs each channel, reseeded for the epoch, with a fresh receiver.
    pub fn open<R>(&mut self, epoch_seed: u64, receivers: Vec<R>) -> Vec<Link<'_, R>> {
        assert_eq!(self.0.len(), receivers.len());
        self.0
            .iter_mut()
            .zip(receivers)
            .enumerate()
            .map(|(i, (channel, receiver))| {
                channel.reseed(epoch_seed ^ (i as u64).wrapping_mul(0x517C_C1B7_2722_0A95));
                Link { channel, receiver }
            })
            .collect()
    }
}

/// A collector that waits for every router, retransmitting on the stock
/// backoff schedule; the deadline only caps a hop that never converges.
fn channel_collector_config() -> CollectorConfig {
    CollectorConfig {
        deadline: 4096,
        straggler: StragglerPolicy::WaitAll,
        session: SessionConfig {
            max_retries: 64,
            ..SessionConfig::default()
        },
    }
}

pub fn collector(
    epoch_id: u64,
    routers: impl Iterator<Item = u64>,
    seed: u64,
    now: u64,
) -> EpochCollector {
    EpochCollector::new(epoch_id, routers, channel_collector_config(), seed, now)
}

pub fn aggregator_id(index: usize) -> u64 {
    AGGREGATOR_ID_BASE + index as u64
}

pub fn aggregator(
    index: usize,
    epoch_id: u64,
    children: impl Iterator<Item = u64>,
    seed: u64,
    now: u64,
) -> Aggregator {
    Aggregator::new(
        aggregator_id(index),
        1,
        epoch_id,
        children,
        channel_collector_config(),
        seed,
        now,
    )
}

/// Puts frames on a link's channel.
pub fn send<R>(p: &mut Probe, link: &mut Link<'_, R>, frames: &[Vec<u8>], now: u64) {
    let span = p.tr.begin("channel.send");
    for frame in frames {
        link.channel.send(frame, now);
    }
    p.tr.end(span);
    p.count("channel.frames_sent", frames.len() as u64);
}

/// The sending side of a hop, as the session layer sees it: something
/// that takes cumulative acks and answers retransmit requests.
pub trait Senders {
    fn ack(&mut self, p: &mut Probe, router_id: u64, cumulative_ack: u32);
    fn resend(&mut self, p: &mut Probe, request: &RetransmitRequest) -> Vec<Vec<u8>>;
}

/// Live monitoring points serving `MonitoringPoint::ack` / `resend` from
/// their one-epoch resend buffers.
pub struct LiveSenders<'a> {
    pub monitors: &'a mut [Monitor],
    pub epoch_id: u64,
}

impl Senders for LiveSenders<'_> {
    fn ack(&mut self, p: &mut Probe, router_id: u64, cumulative_ack: u32) {
        let mp = &mut self.monitors[router_id as usize];
        let epoch_id = self.epoch_id;
        p.tr.span("monitor.ack", || mp.ack(epoch_id, cumulative_ack));
        p.count("monitor.ack_calls", 1);
    }

    fn resend(&mut self, p: &mut Probe, request: &RetransmitRequest) -> Vec<Vec<u8>> {
        let mp = &self.monitors[request.router_id as usize];
        let frames = p.tr.span("monitor.resend", || {
            mp.resend(request.epoch_id, &request.missing)
        });
        p.count("monitor.resend_calls", 1);
        p.count("monitor.resend_chunks", frames.len() as u64);
        frames
    }
}

/// Senders whose chunks the harness holds: replayed digests, and
/// aggregators on the upstream hop. `first_id` is the router id of
/// `chunks[0]`.
pub struct StoredSenders<'a> {
    pub chunks: &'a [Vec<Vec<u8>>],
    pub first_id: u64,
}

impl Senders for StoredSenders<'_> {
    fn ack(&mut self, _: &mut Probe, _: u64, _: u32) {}

    fn resend(&mut self, _: &mut Probe, request: &RetransmitRequest) -> Vec<Vec<u8>> {
        let chunks = &self.chunks[(request.router_id - self.first_id) as usize];
        match &request.missing {
            Missing::All => chunks.clone(),
            Missing::Seqs(seqs) => seqs
                .iter()
                .filter_map(|&s| chunks.get(s as usize).cloned())
                .collect(),
        }
    }
}

/// Drives one hop tick by tick until every receiver is ready: deliver
/// what is due, offer it, apply the highest cumulative ack per router,
/// fire retransmit timers and have `senders` answer each request.
/// Returns false if the hop has not converged after `max_ticks`.
pub fn drive_hop<R: Receiver>(
    p: &mut Probe,
    links: &mut [Link<'_, R>],
    now: &mut u64,
    max_ticks: u64,
    senders: &mut dyn Senders,
) -> bool {
    let started = *now;
    loop {
        for link in links.iter_mut() {
            let span = p.tr.begin("channel.deliver");
            let frames = link.channel.deliver_due(*now);
            p.tr.end(span);
            if !frames.is_empty() {
                p.count("channel.frames_delivered", frames.len() as u64);
                let mut acks: BTreeMap<u64, u32> = BTreeMap::new();
                let span = p.tr.begin(R::OFFER);
                for frame in &frames {
                    if let ChunkDisposition::Accepted {
                        router_id,
                        cumulative_ack,
                    } = link.receiver.offer(frame, *now)
                    {
                        acks.insert(router_id, cumulative_ack);
                    }
                }
                p.tr.end(span);
                for (router_id, cumulative_ack) in acks {
                    senders.ack(p, router_id, cumulative_ack);
                }
            }
            let span = p.tr.begin(R::POLL);
            let requests = link.receiver.poll(*now);
            p.tr.end(span);
            for request in &requests {
                let frames = senders.resend(p, request);
                send(p, link, &frames, *now);
            }
        }
        if links.iter().all(|l| l.receiver.ready(*now)) {
            p.count("channel.ticks_to_ready", *now - started);
            return true;
        }
        if *now - started >= max_ticks {
            return false;
        }
        *now += 1;
    }
}

/// Frames a session machine was offered: each offer ends in exactly one of
/// these four counts.
fn offered(s: &TransportStats) -> u64 {
    s.chunks_received + s.corrupt_chunks + s.duplicate_chunks + s.late_chunks
}

fn count_session(p: &mut Probe, epoch: &CollectedEpoch) {
    let s = &epoch.stats;
    p.count("session.chunks_accepted", s.chunks_received);
    p.count("session.retransmit_requests", s.retransmits);
    p.count("session.corrupt_chunks", s.corrupt_chunks);
    p.count("session.duplicate_chunks", s.duplicate_chunks);
    p.count("session.late_chunks", s.late_chunks);
    p.count("session.chunks_offered", offered(s));
}

/// `EpochCollector::finalize`.
pub fn finalize_collector(
    p: &mut Probe,
    collector: &mut EpochCollector,
    now: u64,
) -> CollectedEpoch {
    let epoch = p.tr.span("session.finalize", || collector.finalize(now));
    count_session(p, &epoch);
    epoch
}

/// The aggregation tier's registry (`Aggregator::finalize` reports into one).
pub struct Tier {
    metrics: MetricsRegistry,
}

impl Tier {
    pub fn new() -> Self {
        Tier {
            metrics: MetricsRegistry::new(),
        }
    }

    /// `Aggregator::finalize`, `AggregateBundle::encode_wire`, then
    /// `chunk_bundle` for the upstream hop.
    pub fn finalize(
        &self,
        p: &mut Probe,
        aggregator: &mut Aggregator,
        epoch_id: u64,
        max_payload: usize,
        now: u64,
    ) -> Vec<Vec<u8>> {
        p.count("aggregate.chunks_offered", offered(&aggregator.stats()));
        let bundle = p.tr.span("aggregate.finalize", || {
            aggregator.finalize(now, &self.metrics)
        });
        p.count(
            "aggregate.children_excluded",
            bundle.exclusions.len() as u64,
        );
        let wire = p.tr.span("aggregate.encode", || bundle.encode_wire());
        p.count("aggregate.bundle_bytes", wire.len() as u64);
        let chunks = p.tr.span("transport.chunk", || {
            chunk_bundle(aggregator.id(), epoch_id, &wire, max_payload)
        });
        p.count("aggregate.upstream_chunks", chunks.len() as u64);
        count_frames(p, &chunks);
        chunks
    }
}

// ---------------------------------------------------------------------
// net: loopback UDP through MonitorSocket / CenterSocket
// ---------------------------------------------------------------------

/// Real time per session tick on the socket path.
const NET_TICK: Duration = Duration::from_micros(200);
/// Ticks (5 ms) without progress before either side retransmits, doubling
/// up to four times that. The timers are long next to a wake-up on a busy
/// host, so delivery time is retransmit rounds × protocol constants and
/// not a measure of how promptly the host schedules a sleeping thread.
const NET_RESEND_AFTER: u64 = 25;
const NET_MAX_BACKOFF: u64 = NET_RESEND_AFTER * 4;
/// Ticks (60 s) after which a socket epoch counts as never ready.
const NET_GIVE_UP: u64 = 300_000;

struct ShipJob {
    epoch_id: u64,
    /// Chunk frames per monitor, in router-id order.
    chunks: Vec<Vec<Vec<u8>>>,
}

/// The centre's socket plus one sender thread that owns every monitor's
/// socket and drives their `run_monitor_epoch` one after another, so the
/// workload runs on two threads however many monitors it has.
pub struct UdpRig {
    center: CenterSocket,
    clock: TickClock,
    metrics: Arc<MetricsRegistry>,
    jobs: Option<mpsc::Sender<ShipJob>>,
    done: mpsc::Receiver<Result<(), String>>,
    sender: Option<std::thread::JoinHandle<()>>,
    /// Whether the sender thread holds an epoch it has not reported on.
    in_flight: bool,
    last: Vec<u64>,
}

const NET_COUNTERS: [(&str, &str); 9] = [
    (
        "net.frames_sent_monitor",
        "socket_frames_sent_total{role=monitor}",
    ),
    (
        "net.frames_sent_center",
        "socket_frames_sent_total{role=center}",
    ),
    (
        "net.frames_recv_center",
        "socket_frames_received_total{role=center}",
    ),
    (
        "net.send_stalls_monitor",
        "socket_send_stalls_total{role=monitor}",
    ),
    (
        "net.send_stalls_center",
        "socket_send_stalls_total{role=center}",
    ),
    ("net.impaired_drop", "socket_impaired_total{kind=drop}"),
    ("net.impaired_dup", "socket_impaired_total{kind=duplicate}"),
    (
        "net.impaired_reorder",
        "socket_impaired_total{kind=reorder}",
    ),
    (
        "net.impaired_corrupt",
        "socket_impaired_total{kind=corrupt}",
    ),
];

impl UdpRig {
    /// Binds the centre on an ephemeral loopback port and starts the
    /// sender thread with `monitors` sockets, each behind an
    /// `ImpairmentConfig::soak()` shim.
    pub fn new(monitors: usize, seed: u64) -> Result<UdpRig, String> {
        let center = CenterSocket::bind("127.0.0.1:0", Transport::Udp)
            .map_err(|e| format!("bind centre socket: {e}"))?;
        let addr = center
            .local_addr()
            .map_err(|e| format!("centre socket address: {e}"))?;
        let mut sockets = Vec::with_capacity(monitors);
        for id in 0..monitors {
            let mut sock = MonitorSocket::connect(addr, Transport::Udp)
                .map_err(|e| format!("connect monitor {id}: {e}"))?;
            sock.set_shim(ImpairmentShim::new(
                ImpairmentConfig::soak(),
                seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
            sockets.push(sock);
        }
        let metrics = Arc::new(MetricsRegistry::new());
        let (jobs, job_rx) = mpsc::channel::<ShipJob>();
        let (done_tx, done) = mpsc::channel();
        let sender_metrics = Arc::clone(&metrics);
        let sender = std::thread::Builder::new()
            .name("bench-sender".into())
            .spawn(move || {
                let clock = TickClock::new(NET_TICK);
                for job in job_rx {
                    let mut outcome = Ok(());
                    for (id, (sock, chunks)) in sockets.iter_mut().zip(&job.chunks).enumerate() {
                        let end = run_monitor_epoch(
                            sock,
                            chunks,
                            &MonitorEpochConfig {
                                router_id: id as u64,
                                epoch_id: job.epoch_id,
                                resend_after: NET_RESEND_AFTER,
                                max_backoff: NET_MAX_BACKOFF,
                                give_up: NET_GIVE_UP,
                            },
                            &clock,
                            &sender_metrics,
                        );
                        if end != MonitorEpochEnd::Delivered {
                            outcome = Err(format!("monitor {id} ended {end:?}"));
                        }
                    }
                    if done_tx.send(outcome).is_err() {
                        return;
                    }
                }
            })
            .map_err(|e| format!("spawn sender thread: {e}"))?;
        Ok(UdpRig {
            center,
            clock: TickClock::new(NET_TICK),
            metrics,
            jobs: Some(jobs),
            done,
            sender: Some(sender),
            in_flight: false,
            last: vec![0; NET_COUNTERS.len()],
        })
    }

    /// Ships one epoch: hands the chunks to the sender thread and runs
    /// `run_center_epoch` until the collector has every router.
    pub fn ship(
        &mut self,
        p: &mut Probe,
        epoch_id: u64,
        chunks: Vec<Vec<Vec<u8>>>,
        seed: u64,
    ) -> Result<CollectedEpoch, String> {
        let routers = chunks.len() as u64;
        let span = p.tr.begin("net.ship");
        self.jobs
            .as_ref()
            .expect("sender thread runs until drop")
            .send(ShipJob { epoch_id, chunks })
            .map_err(|_| "sender thread has stopped".to_string())?;
        self.in_flight = true;
        let cfg = CollectorConfig {
            deadline: 1 << 40,
            straggler: StragglerPolicy::WaitAll,
            session: SessionConfig {
                base_backoff: NET_RESEND_AFTER,
                max_backoff: NET_MAX_BACKOFF,
                max_retries: 100_000,
                jitter: 4,
            },
        };
        let started = self.clock.now();
        let mut collector = EpochCollector::new(epoch_id, 0..routers, cfg, seed, started);
        let clock = &self.clock;
        let end = run_center_epoch(
            &mut self.center,
            &mut collector,
            clock,
            &self.metrics,
            |_| clock.now() - started > NET_GIVE_UP,
        );
        p.tr.end(span);
        let CenterEpochEnd::Collected(epoch) = end else {
            return Err("socket epoch never became ready".to_string());
        };
        count_session(p, &epoch);
        Ok(*epoch)
    }

    /// Waits for the sender thread to finish `epoch_id`. The last monitor
    /// may have lost its final ack to a full receive buffer; a serving
    /// centre would by now be collecting the next epoch and answer its
    /// re-pushed chunks with `Advance`, so the harness does the same
    /// until the sender reports in.
    pub fn join_sender(&mut self, p: &mut Probe, epoch_id: u64) -> Result<(), String> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(());
        }
        let span = p.tr.begin("net.sender_join");
        let outcome = loop {
            match self.done.try_recv() {
                Ok(outcome) => break outcome,
                Err(mpsc::TryRecvError::Disconnected) => {
                    break Err("sender thread has stopped".to_string())
                }
                Err(mpsc::TryRecvError::Empty) => {}
            }
            for frame in self.center.poll(&self.metrics) {
                if let Some((router_id, _, _)) = ChunkFrame::salvage_header(&frame) {
                    let advance = ControlFrame::Advance {
                        router_id,
                        epoch_id: epoch_id + 1,
                    };
                    self.center.send_control(&advance, &self.metrics);
                }
            }
            std::thread::sleep(NET_TICK);
        };
        p.tr.end(span);
        outcome
    }

    /// Folds the socket counters' growth since the last call into the
    /// probe's counts.
    pub fn drain_counters(&mut self, p: &mut Probe) {
        let snap = self.metrics.snapshot();
        drain(p, &snap, &NET_COUNTERS, &mut self.last);
    }
}

impl Drop for UdpRig {
    fn drop(&mut self) {
        // Closing the job queue ends the sender's loop; join it so no
        // thread outlives the run.
        self.jobs = None;
        if let Some(handle) = self.sender.take() {
            let _ = handle.join();
        }
    }
}

/// Adds each counter's growth since `last` to the probe and remembers the
/// new value.
fn drain(p: &mut Probe, snap: &MetricsSnapshot, keys: &[(&'static str, &str)], last: &mut [u64]) {
    for ((name, key), last) in keys.iter().zip(last.iter_mut()) {
        let now = snap.counter(key).unwrap_or(0);
        p.count(name, now - *last);
        *last = now;
    }
}

// ---------------------------------------------------------------------
// center: core::center, core::ingest, dcs-aligned, dcs-unaligned, dcs-graph
// ---------------------------------------------------------------------

/// The fields of an `EpochReport` the output check reads. Signature
/// indices, edge sets and timings are left out on purpose: a change to
/// candidate generation that keeps the detection set must still pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub found: bool,
    pub aligned_routers: Vec<usize>,
    pub alarm: bool,
    pub suspected_routers: Vec<usize>,
    pub routers_analyzed: usize,
    pub routers_excluded: usize,
}

impl From<EpochReport> for Verdict {
    fn from(r: EpochReport) -> Self {
        Verdict {
            found: r.aligned.found,
            aligned_routers: r.aligned.routers,
            alarm: r.unaligned.alarm,
            suspected_routers: r.unaligned.suspected_routers,
            routers_analyzed: r.routers,
            routers_excluded: r.ingest.excluded.len(),
        }
    }
}

const CENTER_COUNTERS: [(&str, &str); 4] = [
    ("center.pairs_exact", "pairs_exact_total"),
    ("center.pairs_screened", "pairs_screened_total"),
    ("center.search_candidates", "search_candidates_total"),
    ("center.graph_full_rebuilds", "graph_full_rebuilds_total"),
];

/// The analysis centre, with the counter values last read from it.
pub struct Center {
    inner: AnalysisCenter,
    last: Vec<u64>,
}

impl Center {
    /// `AnalysisConfig::for_groups(total_groups)` with the default compute
    /// budget; `search` overrides (n′, hopefuls) where a workload scales
    /// the aligned search with its bitmap.
    pub fn new(total_groups: usize, search: Option<(usize, usize)>) -> Self {
        let mut cfg = AnalysisConfig::for_groups(total_groups);
        if let Some((n_prime, hopefuls)) = search {
            cfg.search.n_prime = n_prime;
            cfg.search.hopefuls = hopefuls;
        }
        Center {
            inner: AnalysisCenter::new(cfg),
            last: vec![0; CENTER_COUNTERS.len()],
        }
    }

    fn analyzed(
        p: &mut Probe,
        span: SpanId,
        report: Result<EpochReport, dcs_core::IngestError>,
    ) -> Result<Verdict, String> {
        p.tr.end(span);
        p.analyze_span = span;
        let verdict = Verdict::from(report.map_err(|e| format!("analyze: {e}"))?);
        p.count("center.routers_analyzed", verdict.routers_analyzed as u64);
        p.count("center.routers_excluded", verdict.routers_excluded as u64);
        Ok(verdict)
    }

    /// `AnalysisCenter::analyze_epoch_collected`.
    pub fn analyze(&self, p: &mut Probe, epoch: &CollectedEpoch) -> Result<Verdict, String> {
        let span = p.tr.begin("center.analyze");
        let report = self.inner.analyze_epoch_collected(epoch);
        Self::analyzed(p, span, report)
    }

    /// `AnalysisCenter::analyze_epoch_aggregated_collected`.
    pub fn analyze_aggregated(
        &self,
        p: &mut Probe,
        epoch: &CollectedEpoch,
    ) -> Result<Verdict, String> {
        let span = p.tr.begin("center.analyze");
        let report = self.inner.analyze_epoch_aggregated_collected(epoch);
        Self::analyzed(p, span, report)
    }

    /// Reads `metrics()` after an epoch, outside its wall time: the stage
    /// gauges become child spans of the epoch's `center.analyze` span,
    /// and the counters' growth goes to the probe.
    pub fn read_metrics(&mut self, p: &mut Probe) {
        let snap = self.inner.metrics();
        let stages: Vec<(&'static str, u64)> = stage_spans()
            .iter()
            .map(|(name, key)| (*name, snap.gauge(key).unwrap_or(0)))
            .collect();
        let parent = p.analyze_span.take();
        p.tr.attach_children(parent, &stages);
        p.count(
            "center.search_pairs_scanned",
            snap.gauge("search_pairs_scanned").unwrap_or(0),
        );
        drain(p, &snap, &CENTER_COUNTERS, &mut self.last);
    }
}

/// Span name and gauge key of every centre stage, enumerated through
/// `Stage::ALIGNED`/`Stage::UNALIGNED` rather than a list of today's
/// stages, so a stage added later shows up as a span without a change
/// here. The names are built once and leaked so spans can hold
/// `&'static str`.
fn stage_spans() -> &'static [(&'static str, String)] {
    static SPANS: std::sync::OnceLock<Vec<(&'static str, String)>> = std::sync::OnceLock::new();
    SPANS.get_or_init(|| {
        Stage::ALIGNED
            .iter()
            .chain(Stage::UNALIGNED.iter())
            .map(|s| {
                let name: &'static str =
                    Box::leak(format!("center.stage.{}", s.name()).into_boxed_str());
                (name, s.gauge_key())
            })
            .collect()
    })
}

// ---------------------------------------------------------------------
// host
// ---------------------------------------------------------------------

/// The popcount kernel the bitmap layer dispatched to on this host.
pub fn active_kernel() -> String {
    format!("{:?}", dcs_bitmap::words::active_kernel())
}
