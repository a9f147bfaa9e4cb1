//! The delivery protocol: sequenced, acked, deadline-bounded delivery of
//! chunked digest bundles, with crash-recoverable progress. Both of its
//! state machines live here, and neither does IO: frames and ticks go
//! in, frames and seqs come out. The socket drivers of [`crate::net`]
//! and the virtual-time hop of `dcs-sim` are thin adapters over the same
//! two, so a seeded simulation runs the sender and receiver a deployment
//! ships.
//!
//! The paper ships one digest per router per epoch over a real network.
//! On the receiving side each router's chunks go through a session:
//!
//! ```text
//!                 chunk ok                     all chunks held
//!   ┌───────┐  ───────────►  ┌───────────┐  ─────────────────►  ┌──────────┐
//!   │ Empty │                │ Receiving │                      │ Complete │
//!   └───────┘                └───────────┘                      └──────────┘
//!       │    timer fires → RetransmitRequest, attempts+1,  │
//!       │    backoff = min(base·2^attempts, max) + jitter   │
//!       │                                                   ▼
//!       │     retries exhausted / deadline expired     ┌─────────┐
//!       └─────────────────────────────────────────────►│ Failed  │
//!              (TimedOut | ChecksumMismatch |          └─────────┘
//!               Incomplete at finalize)
//! ```
//!
//! * [`RouterSession`] reassembles one router's chunk frames
//!   (duplicate/overlap-safe), exposes a cumulative ack and the holes
//!   below its highest held seq, and drives a
//!   capped-exponential-backoff retransmit timer with deterministic
//!   seeded jitter.
//! * [`EpochCollector`] owns one session per expected router, routes
//!   incoming frames (CRC-failed frames get a salvage-NACK when their
//!   header survives), applies the epoch deadline and
//!   [`StragglerPolicy`], and finalizes into a [`CollectedEpoch`] whose
//!   exclusions ([`RouterFault::TimedOut`] /
//!   [`RouterFault::ChecksumMismatch`] / [`RouterFault::Incomplete`])
//!   join the regular ingest accounting.
//! * [`EpochCollector::checkpoint`] serializes collector progress (epoch
//!   id, config fingerprint, per-router chunk bitmap + held payloads,
//!   CRC-32 trailer); [`EpochCollector::resume`] restores it after a
//!   centre restart, so an interrupted epoch continues instead of
//!   starting over — a sender keeps its epoch's chunks until the epoch
//!   ends precisely so post-restart retransmit requests succeed.
//! * [`EpochCollector::answer`] is the receiver's whole reply to a batch
//!   of arrivals: an ack for each chunk accepted or duplicated, `Advance`
//!   for a late one, then gap NACKs and timer NACKs, as DCSN
//!   [`ControlFrame`]s.
//! * [`SendSession`] is the sender: a window of [`SEND_WINDOW`] chunks
//!   ahead of the cumulative ack, NACK answers, tail probes on silent
//!   steps, a resend timer with capped doubling, and a give-up horizon.
//!
//! Time is a caller-supplied virtual tick (`u64`): the state machine
//! never reads a wall clock, so every test and simulation is exactly
//! reproducible.

use crate::ingest::{Exclusion, RouterFault};
use crate::monitor::RouterDigest;
use crate::report::TransportStats;
use crate::transport::{ChunkFrame, MAX_CHUNKS, MAX_CHUNK_PAYLOAD};
use bytes::BufMut;
use dcs_collect::frame::{seal, FrameError, Reader};
use dcs_hash::Fnv1a;
use std::collections::BTreeMap;
use std::fmt;

/// Retransmit/backoff parameters of one router session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Ticks before the first retransmit request fires.
    pub base_backoff: u64,
    /// Cap on the exponential backoff between requests.
    pub max_backoff: u64,
    /// Retransmit rounds before the session gives up.
    pub max_retries: u32,
    /// Upper bound (exclusive) on the deterministic per-request jitter;
    /// 0 disables jitter.
    pub jitter: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            base_backoff: 8,
            max_backoff: 64,
            max_retries: 10,
            jitter: 4,
        }
    }
}

/// When the collector stops waiting for stragglers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StragglerPolicy {
    /// Wait until every session completes or gives up; the deadline is
    /// advisory only.
    WaitAll,
    /// Finalize at the deadline with whatever completed (early if
    /// everything did). The deadline is a hard arrival cutoff: a chunk
    /// offered at or after the deadline tick is late, whether or not
    /// `finalize` has run yet — acceptance at the boundary must not
    /// depend on the caller's offer/finalize ordering within the tick.
    Deadline,
}

/// Configuration of one epoch's collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorConfig {
    /// The epoch deadline, in ticks since the collector started.
    pub deadline: u64,
    /// What to do about routers still incomplete at the deadline.
    pub straggler: StragglerPolicy,
    /// Per-router retransmit/backoff parameters.
    pub session: SessionConfig,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            deadline: 512,
            straggler: StragglerPolicy::Deadline,
            session: SessionConfig::default(),
        }
    }
}

impl CollectorConfig {
    /// FNV-1a fingerprint of the configuration, stored in checkpoints so
    /// a collector is never resumed under different delivery rules.
    fn fingerprint(&self, epoch_id: u64, routers: &[u64]) -> u64 {
        let mut h = Fnv1a::with_seed(0x1D_C5C0);
        h.update(&epoch_id.to_le_bytes());
        h.update(&self.deadline.to_le_bytes());
        // Tag 1 and the u64 after the tag belonged to a quorum-size
        // policy; both stay in the hash so existing checkpoints resume.
        let tag = match self.straggler {
            StragglerPolicy::WaitAll => 0u8,
            StragglerPolicy::Deadline => 2,
        };
        h.update(&[tag]);
        h.update(&0u64.to_le_bytes());
        h.update(&self.session.base_backoff.to_le_bytes());
        h.update(&self.session.max_backoff.to_le_bytes());
        h.update(&self.session.max_retries.to_le_bytes());
        h.update(&self.session.jitter.to_le_bytes());
        for r in routers {
            h.update(&r.to_le_bytes());
        }
        h.finish()
    }
}

/// Which chunks a retransmit request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Missing {
    /// Everything — no chunk of the bundle has arrived yet, so the total
    /// is unknown.
    All,
    /// Specific chunk sequence numbers.
    Seqs(Vec<u32>),
}

impl Missing {
    /// The entries of `chunks` (indexed by chunk sequence number) this
    /// request asks for, in request order. A request is outside input: a
    /// sequence number beyond `chunks` selects nothing, and a repeated one
    /// selects its chunk again.
    pub fn select<'a, T>(&'a self, chunks: &'a [T]) -> impl Iterator<Item = &'a T> {
        let (all, seqs): (&[T], &[u32]) = match self {
            Missing::All => (chunks, &[]),
            Missing::Seqs(seqs) => (&[], seqs),
        };
        all.iter()
            .chain(seqs.iter().filter_map(move |&s| chunks.get(s as usize)))
    }
}

/// One retransmit request, addressed to a monitoring point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetransmitRequest {
    /// The router whose chunks are missing.
    pub router_id: u64,
    /// The epoch being collected.
    pub epoch_id: u64,
    /// Which chunks to resend.
    pub missing: Missing,
}

/// What the collector did with one offered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkDisposition {
    /// Accepted into the session's reassembly buffer. Carries the
    /// session's cumulative ack: every chunk below this seq is held.
    Accepted {
        /// The receiving router session.
        router_id: u64,
        /// Leading contiguous chunks now held.
        cumulative_ack: u32,
    },
    /// The session already held this chunk; absorbed.
    Duplicate {
        /// The receiving router session.
        router_id: u64,
    },
    /// CRC or envelope decode failed; dropped (and NACKed when the
    /// header salvaged).
    Corrupt,
    /// Decoded fine but for a different epoch, or after finalize.
    Late,
    /// Decoded fine but no session exists for that router this epoch.
    UnknownRouter {
        /// The unexpected router id.
        router_id: u64,
    },
    /// A declared `total` disagreed with what the session already
    /// learned, or exceeds the allocation cap; dropped.
    Inconsistent {
        /// The offending router session.
        router_id: u64,
    },
}

/// One router's reassembly state.
#[derive(Debug, Clone)]
pub struct RouterSession {
    router_id: u64,
    /// Declared chunk count, learned from the first accepted chunk.
    total: Option<u32>,
    /// Held payloads, indexed by seq; `None` = missing.
    chunks: Vec<Option<Vec<u8>>>,
    /// Held chunk count (= number of `Some` entries).
    received: usize,
    /// Length of the held prefix: `chunks[..acked]` are all `Some`, and
    /// `chunks[acked]` (if any) is `None`.
    acked: usize,
    /// One past the highest held seq (0 when nothing is held).
    high: usize,
    /// Retransmit rounds fired so far.
    attempts: u32,
    /// Next tick the retransmit timer fires.
    next_request_at: u64,
    /// No retransmit budget left; the session will never request again.
    gave_up: bool,
    /// Seqs whose frames failed CRC at least once (via salvage), still
    /// missing or since recovered.
    crc_failed_seqs: Vec<u32>,
}

impl RouterSession {
    fn new(router_id: u64, cfg: &SessionConfig, seed: u64, now: u64) -> Self {
        let mut s = RouterSession {
            router_id,
            total: None,
            chunks: Vec::new(),
            received: 0,
            acked: 0,
            high: 0,
            attempts: 0,
            next_request_at: 0,
            gave_up: false,
            crc_failed_seqs: Vec::new(),
        };
        s.next_request_at = now
            .saturating_add(cfg.base_backoff)
            .saturating_add(s.jitter(cfg, seed, 0));
        s
    }

    /// Deterministic per-(router, attempt) jitter in `[0, cfg.jitter)`.
    fn jitter(&self, cfg: &SessionConfig, seed: u64, attempt: u32) -> u64 {
        if cfg.jitter == 0 {
            return 0;
        }
        let mut h = Fnv1a::with_seed(seed);
        h.update(&self.router_id.to_le_bytes());
        h.update(&attempt.to_le_bytes());
        h.finish() % cfg.jitter
    }

    /// The router this session reassembles.
    pub fn router_id(&self) -> u64 {
        self.router_id
    }

    /// Whether every chunk is held.
    pub fn is_complete(&self) -> bool {
        self.total.is_some_and(|t| self.received == t as usize)
    }

    /// Chunks held so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Declared total, once learned.
    pub fn total(&self) -> Option<u32> {
        self.total
    }

    /// Whether the retransmit budget is exhausted.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Cumulative ack: every chunk with seq below this is held. The
    /// receiver-side counterpart of TCP's cumulative acknowledgement —
    /// a sender may prune its resend buffer below this point.
    pub fn cumulative_ack(&self) -> u32 {
        self.acked
            .try_into()
            .expect("chunk count bounded by MAX_CHUNKS")
    }

    /// Moves the ack cursor past every held chunk it now reaches: each
    /// slot is passed once a session, so acking costs O(1) amortised
    /// instead of a scan of the held prefix per chunk.
    fn advance_ack(&mut self) {
        while self.chunks.get(self.acked).is_some_and(Option::is_some) {
            self.acked += 1;
        }
    }

    /// One past the highest seq held so far (0 before the first chunk).
    pub fn high_mark(&self) -> u32 {
        self.high
            .try_into()
            .expect("chunk count bounded by MAX_CHUNKS")
    }

    /// The missing seqs below [`Self::high_mark`], lowest first, at most
    /// `limit` of them: the chunks a later-sent chunk has overtaken. A
    /// hole above the highest held seq is not named, since its chunk may
    /// still be in flight. Empty for a complete session.
    pub fn gaps(&self, limit: usize) -> Vec<u32> {
        (self.acked..self.high)
            .filter(|&seq| self.chunks[seq].is_none())
            .take(limit)
            .map(|seq| seq as u32)
            .collect()
    }

    /// Still-missing chunk seqs (empty when complete or total unknown).
    pub fn missing(&self) -> Vec<u32> {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.is_none().then_some(i as u32))
            .collect()
    }

    /// Accepts one decoded chunk. Duplicates are absorbed; a `total`
    /// disagreeing with the learned one (or over the cap) is rejected.
    fn accept(&mut self, frame: &ChunkFrame<'_>) -> ChunkDisposition {
        match self.total {
            None => {
                if frame.total > MAX_CHUNKS {
                    return ChunkDisposition::Inconsistent {
                        router_id: self.router_id,
                    };
                }
                self.total = Some(frame.total);
                self.chunks.resize(frame.total as usize, None);
            }
            Some(t) if t != frame.total => {
                return ChunkDisposition::Inconsistent {
                    router_id: self.router_id,
                }
            }
            Some(_) => {}
        }
        let slot = &mut self.chunks[frame.seq as usize];
        if slot.is_some() {
            return ChunkDisposition::Duplicate {
                router_id: self.router_id,
            };
        }
        *slot = Some(frame.payload.to_vec());
        self.received += 1;
        self.high = self.high.max(frame.seq as usize + 1);
        self.advance_ack();
        self.crc_failed_seqs.retain(|&s| s != frame.seq);
        ChunkDisposition::Accepted {
            router_id: self.router_id,
            cumulative_ack: self.cumulative_ack(),
        }
    }

    /// Reassembles the full bundle; `None` unless complete.
    fn reassemble(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let mut bundle = Vec::with_capacity(
            self.chunks
                .iter()
                .map(|c| c.as_ref().map_or(0, Vec::len))
                .sum(),
        );
        for c in &self.chunks {
            bundle.extend_from_slice(c.as_ref().expect("complete session holds every chunk"));
        }
        Some(bundle)
    }

    /// Fires the retransmit timer if due, returning the request and
    /// scheduling the next firing with capped exponential backoff plus
    /// deterministic jitter.
    fn poll(&mut self, cfg: &SessionConfig, seed: u64, now: u64) -> Option<RetransmitRequest> {
        if self.is_complete() || self.gave_up || now < self.next_request_at {
            return None;
        }
        if self.attempts >= cfg.max_retries {
            self.gave_up = true;
            return None;
        }
        self.attempts += 1;
        let backoff = cfg
            .base_backoff
            .saturating_mul(1u64 << self.attempts.min(32))
            .min(cfg.max_backoff);
        self.next_request_at =
            now.saturating_add(backoff)
                .saturating_add(self.jitter(cfg, seed, self.attempts));
        let missing = match self.total {
            None => Missing::All,
            Some(_) => Missing::Seqs(self.missing()),
        };
        Some(RetransmitRequest {
            router_id: self.router_id,
            epoch_id: 0, // stamped by the collector
            missing,
        })
    }

    /// The exclusion fault for an incomplete session at finalize time.
    fn failure(&self, past_deadline: bool) -> RouterFault {
        let total = self.total.map_or(0, |t| t as usize);
        let unrecovered: Option<u32> = self
            .crc_failed_seqs
            .iter()
            .copied()
            .filter(|&s| self.chunks.get(s as usize).is_none_or(|c| c.is_none()))
            .min();
        if let Some(seq) = unrecovered {
            if self.gave_up || past_deadline {
                return RouterFault::ChecksumMismatch { seq };
            }
        }
        if past_deadline {
            RouterFault::TimedOut {
                received: self.received,
                total,
            }
        } else {
            RouterFault::Incomplete {
                received: self.received,
                total,
            }
        }
    }
}

/// One finalized epoch of transport: reassembled bundles in router order,
/// transport-level exclusions, and the delivery stats — the analysis
/// centre's one input type
/// ([`AnalysisCenter::analyze_epoch_collected`](crate::center::AnalysisCenter::analyze_epoch_collected)
/// when the frames are leaf bundles,
/// [`analyze_epoch_aggregated_collected`](crate::center::AnalysisCenter::analyze_epoch_aggregated_collected)
/// when they are aggregate bundles). An [`EpochCollector`] finalizes into
/// one; [`CollectedEpoch::from_frames`] and
/// [`CollectedEpoch::from_digests`] build one for frames that crossed no
/// transport hop.
#[derive(Debug, Clone)]
pub struct CollectedEpoch {
    /// The collected epoch's id.
    pub epoch_id: u64,
    /// Sessions opened (= expected routers); the ingest `submitted`.
    pub submitted: usize,
    /// `(batch index, reassembled bundle bytes)` for every complete
    /// session, in router-id order. Batch index is the router's position
    /// in that order, so exclusions interleave coherently.
    pub frames: Vec<(usize, Vec<u8>)>,
    /// Transport-level exclusions (timed out, checksum-dead, incomplete).
    pub exclusions: Vec<Exclusion>,
    /// Delivery accounting for the epoch.
    pub stats: TransportStats,
}

impl CollectedEpoch {
    /// An epoch of whole frames that crossed no transport hop: batch
    /// indices `0..n`, every frame submitted, nothing excluded, zero
    /// delivery stats (and transport epoch id 0).
    pub fn from_frames(frames: impl IntoIterator<Item = Vec<u8>>) -> Self {
        let frames: Vec<(usize, Vec<u8>)> = frames.into_iter().enumerate().collect();
        CollectedEpoch {
            epoch_id: 0,
            submitted: frames.len(),
            frames,
            exclusions: Vec::new(),
            stats: TransportStats::default(),
        }
    }

    /// [`CollectedEpoch::from_frames`] over the wire encoding of
    /// in-process digests. A digest the wire format cannot carry is
    /// excluded as a [`RouterFault::Wire`] and still counts as submitted.
    pub fn from_digests(digests: &[RouterDigest]) -> Self {
        let mut frames = Vec::with_capacity(digests.len());
        let mut exclusions = Vec::new();
        for (index, d) in digests.iter().enumerate() {
            match d.encode_wire() {
                Ok(frame) => frames.push((index, frame.to_vec())),
                Err(e) => exclusions.push(Exclusion {
                    index,
                    router_id: Some(d.router_id),
                    fault: RouterFault::Wire(e.to_string()),
                }),
            }
        }
        CollectedEpoch {
            epoch_id: 0,
            submitted: digests.len(),
            frames,
            exclusions,
            stats: TransportStats::default(),
        }
    }
}

/// Errors from decoding a collector checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Buffer too short for the declared structure.
    Truncated,
    /// Unexpected magic bytes.
    BadMagic([u8; 4]),
    /// Unsupported checkpoint version.
    BadVersion(u8),
    /// The CRC-32 trailer disagrees with the checkpoint bytes.
    ChecksumMismatch,
    /// Structurally impossible field.
    Malformed(&'static str),
    /// The checkpoint was written under a different collector
    /// configuration or router set.
    ConfigMismatch {
        /// Fingerprint stored in the checkpoint.
        stored: u64,
        /// Fingerprint of the configuration passed to `resume`.
        expected: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic(m) => write!(f, "bad checkpoint magic {m:02x?}"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::ConfigMismatch { stored, expected } => write!(
                f,
                "checkpoint config fingerprint {stored:#018x} does not match {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<FrameError> for CheckpointError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Truncated => CheckpointError::Truncated,
            FrameError::BadMagic(m) => CheckpointError::BadMagic(m),
            FrameError::BadVersion(v) => CheckpointError::BadVersion(v),
            FrameError::ChecksumMismatch { .. } => CheckpointError::ChecksumMismatch,
            FrameError::Malformed(what) => CheckpointError::Malformed(what),
        }
    }
}

/// Magic for collector checkpoints (`b"DCSK"`).
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"DCSK";
const CHECKPOINT_VERSION: u8 = 1;

/// Collects one epoch's chunk frames across every expected router.
#[derive(Debug)]
pub struct EpochCollector {
    epoch_id: u64,
    cfg: CollectorConfig,
    seed: u64,
    started_at: u64,
    sessions: BTreeMap<u64, RouterSession>,
    stats: TransportStats,
    finalized: bool,
}

impl EpochCollector {
    /// Opens a collector for `epoch_id` expecting one bundle from each of
    /// `routers`. `seed` drives the deterministic retransmit jitter;
    /// `now` is the current virtual tick (timers and the deadline are
    /// relative to it).
    pub fn new(
        epoch_id: u64,
        routers: impl IntoIterator<Item = u64>,
        cfg: CollectorConfig,
        seed: u64,
        now: u64,
    ) -> Self {
        let sessions: BTreeMap<u64, RouterSession> = routers
            .into_iter()
            .map(|r| (r, RouterSession::new(r, &cfg.session, seed, now)))
            .collect();
        EpochCollector {
            epoch_id,
            cfg,
            seed,
            started_at: now,
            sessions,
            stats: TransportStats::default(),
            finalized: false,
        }
    }

    /// The epoch being collected.
    pub fn epoch_id(&self) -> u64 {
        self.epoch_id
    }

    /// The absolute tick of the epoch deadline (saturating: a deadline
    /// near `u64::MAX` pins to "never expires" instead of wrapping into
    /// the past).
    pub fn deadline(&self) -> u64 {
        self.started_at.saturating_add(self.cfg.deadline)
    }

    /// The tick this collector started (or resumed) at.
    pub fn started_at(&self) -> u64 {
        self.started_at
    }

    /// Sessions that hold their complete bundle.
    pub fn complete_sessions(&self) -> usize {
        self.sessions.values().filter(|s| s.is_complete()).count()
    }

    /// Read access to one router's session.
    pub fn session(&self, router_id: u64) -> Option<&RouterSession> {
        self.sessions.get(&router_id)
    }

    /// Iterates every router session in router-id order (socket drivers
    /// use this to gauge the reassembly backlog).
    pub fn sessions(&self) -> impl Iterator<Item = &RouterSession> {
        self.sessions.values()
    }

    /// Delivery accounting so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Offers one frame as it arrives off the channel. CRC-failed frames
    /// are dropped (counted; salvage-NACKed into the session's fast
    /// retransmit when the header survived); wrong-epoch and
    /// post-finalize frames count as late.
    pub fn offer(&mut self, frame: &[u8], now: u64) -> ChunkDisposition {
        match ChunkFrame::decode(frame) {
            Err(e) => {
                self.stats.corrupt_chunks += 1;
                if matches!(e, FrameError::ChecksumMismatch { .. }) {
                    if let Some((router_id, epoch_id, seq)) = ChunkFrame::salvage_header(frame) {
                        if epoch_id == self.epoch_id && !self.finalized {
                            if let Some(s) = self.sessions.get_mut(&router_id) {
                                // Fast NACK: pull the timer forward so the
                                // next poll re-requests immediately, and
                                // remember the seq for fault attribution.
                                if !s.crc_failed_seqs.contains(&seq) {
                                    s.crc_failed_seqs.push(seq);
                                }
                                if !s.is_complete() && !s.gave_up {
                                    s.next_request_at = s.next_request_at.min(now);
                                }
                            }
                        }
                    }
                }
                ChunkDisposition::Corrupt
            }
            Ok((chunk, _)) => {
                if self.finalized || chunk.epoch_id != self.epoch_id {
                    self.stats.late_chunks += 1;
                    return ChunkDisposition::Late;
                }
                // Under the Deadline policy the deadline is a hard arrival
                // cutoff: `ready()` and `finalize()` both treat
                // `now >= deadline` as expired, so accepting a chunk at the
                // boundary tick would make the outcome depend on whether
                // the driver finalized before or after offering it.
                // WaitAll keeps the advisory-deadline semantics (it
                // legitimately accepts past-deadline stragglers).
                if matches!(self.cfg.straggler, StragglerPolicy::Deadline) && now >= self.deadline()
                {
                    self.stats.late_chunks += 1;
                    return ChunkDisposition::Late;
                }
                let Some(session) = self.sessions.get_mut(&chunk.router_id) else {
                    self.stats.late_chunks += 1;
                    return ChunkDisposition::UnknownRouter {
                        router_id: chunk.router_id,
                    };
                };
                let disposition = session.accept(&chunk);
                match disposition {
                    ChunkDisposition::Accepted { .. } => self.stats.chunks_received += 1,
                    ChunkDisposition::Duplicate { .. } => self.stats.duplicate_chunks += 1,
                    ChunkDisposition::Inconsistent { .. } => self.stats.corrupt_chunks += 1,
                    _ => {}
                }
                disposition
            }
        }
    }

    /// Fires due retransmit timers, returning the requests to route back
    /// to the monitoring points. Call once per tick (or after a batch of
    /// arrivals).
    pub fn poll(&mut self, now: u64) -> Vec<RetransmitRequest> {
        if self.finalized {
            return Vec::new();
        }
        let mut out = Vec::new();
        for s in self.sessions.values_mut() {
            if let Some(mut req) = s.poll(&self.cfg.session, self.seed, now) {
                req.epoch_id = self.epoch_id;
                self.stats.retransmits += 1;
                out.push(req);
            }
        }
        out
    }

    /// Every session's [`RouterSession::high_mark`], in router-id order:
    /// the snapshot [`Self::gap_requests`] compares a batch against.
    pub fn high_marks(&self) -> Vec<u32> {
        self.sessions
            .values()
            .map(RouterSession::high_mark)
            .collect()
    }

    /// The gap NACKs a batch of arrivals calls for: one request for each
    /// session whose high mark rose above `before` (taken with
    /// [`Self::high_marks`] ahead of the batch) and that still misses a
    /// seq below it, naming at most `limit` of those holes
    /// ([`RouterSession::gaps`]). A chunk that a later-sent one overtook
    /// is taken as lost, with the batch as the reorder window, so a frame
    /// reordered inside one batch is never named. A hole that a batch of
    /// resends alone leaves open is not named again, since its resend may
    /// still be in flight. Reads no timer and counts nothing: the
    /// retransmit timers of [`Self::poll`] stay the backstop for silent
    /// routers and lost tails.
    pub fn gap_requests(&self, before: &[u32], limit: usize) -> Vec<RetransmitRequest> {
        (self.sessions.values().zip(before))
            .filter(|(s, &was)| s.high_mark() > was)
            .filter_map(|(s, _)| {
                let seqs = s.gaps(limit);
                (!seqs.is_empty()).then_some(RetransmitRequest {
                    router_id: s.router_id,
                    epoch_id: self.epoch_id,
                    missing: Missing::Seqs(seqs),
                })
            })
            .collect()
    }

    /// Everything the receiving end of a hop decides about one batch of
    /// frames that arrived by tick `now`, as the control frames to send
    /// back. Each chunk is offered ([`Self::offer`]): an accepted one is
    /// acked with its session's cumulative ack, a duplicate re-acked (the
    /// first ack may have been lost), and a late one answered with
    /// `Advance` to the epoch collected now, since its sender is still
    /// pushing an older epoch. Control frames in the batch (a sender's
    /// `Hello`) are skipped. Then come the gap NACKs the batch calls for
    /// ([`Self::gap_requests`]), and then the due retransmit timers
    /// ([`Self::poll`]), the backstop for silent senders and lost tails;
    /// every NACK is clipped to [`MAX_NACK_SEQS`] seqs.
    pub fn answer(&mut self, frames: &[Vec<u8>], now: u64) -> Vec<ControlFrame> {
        let marks = self.high_marks();
        let mut answers = Vec::new();
        for frame in frames.iter().filter(|f| !f.starts_with(&CONTROL_MAGIC)) {
            match self.offer(frame, now) {
                ChunkDisposition::Accepted { router_id, .. }
                | ChunkDisposition::Duplicate { router_id } => answers.push(ControlFrame::Ack {
                    router_id,
                    epoch_id: self.epoch_id,
                    cumulative_ack: self.sessions[&router_id].cumulative_ack(),
                }),
                ChunkDisposition::Late => {
                    answers.extend(ChunkFrame::salvage_header(frame).map(|(router_id, _, _)| {
                        ControlFrame::Advance {
                            router_id,
                            epoch_id: self.epoch_id,
                        }
                    }));
                }
                ChunkDisposition::Corrupt
                | ChunkDisposition::UnknownRouter { .. }
                | ChunkDisposition::Inconsistent { .. } => {}
            }
        }
        let gaps = self.gap_requests(&marks, MAX_NACK_SEQS);
        answers.extend(gaps.into_iter().chain(self.poll(now)).map(nack));
        answers
    }

    /// Whether the straggler policy says to stop waiting at `now`.
    pub fn ready(&self, now: u64) -> bool {
        if self.complete_sessions() == self.sessions.len() {
            return true;
        }
        match self.cfg.straggler {
            StragglerPolicy::WaitAll => {
                self.sessions.values().all(|s| s.is_complete() || s.gave_up)
            }
            StragglerPolicy::Deadline => now >= self.deadline(),
        }
    }

    /// Finalizes the epoch: complete sessions yield their reassembled
    /// bundles (in router-id order), incomplete ones become typed
    /// transport exclusions. Frames offered afterwards count as late.
    pub fn finalize(&mut self, now: u64) -> CollectedEpoch {
        self.finalized = true;
        let past_deadline = now >= self.deadline();
        let mut frames = Vec::new();
        let mut exclusions = Vec::new();
        for (index, s) in self.sessions.values().enumerate() {
            match s.reassemble() {
                Some(bundle) => frames.push((index, bundle)),
                None => exclusions.push(Exclusion {
                    index,
                    router_id: Some(s.router_id as usize),
                    fault: s.failure(past_deadline),
                }),
            }
        }
        CollectedEpoch {
            epoch_id: self.epoch_id,
            submitted: self.sessions.len(),
            frames,
            exclusions,
            stats: self.stats,
        }
    }

    /// Serializes collector progress — epoch id, config fingerprint, and
    /// each session's received-chunk bitmap plus held payloads — into a
    /// compact CRC-trailed checkpoint. Retransmit timers are *not*
    /// persisted: a resumed collector restarts its retry schedule, which
    /// is exactly what a rebooted centre should do.
    pub fn checkpoint(&self) -> Vec<u8> {
        let routers: Vec<u64> = self.sessions.keys().copied().collect();
        let mut buf = Vec::new();
        buf.put_slice(&CHECKPOINT_MAGIC);
        buf.put_u8(CHECKPOINT_VERSION);
        buf.put_u64_le(self.epoch_id);
        buf.put_u64_le(self.cfg.fingerprint(self.epoch_id, &routers));
        let stats = [
            self.stats.chunks_received,
            self.stats.retransmits,
            self.stats.late_chunks,
            self.stats.duplicate_chunks,
            self.stats.corrupt_chunks,
            self.stats.checkpoint_resumes,
        ];
        for s in stats {
            buf.put_u64_le(s);
        }
        buf.put_u32_le(self.sessions.len() as u32);
        for s in self.sessions.values() {
            buf.put_u64_le(s.router_id);
            buf.put_u32_le(s.total.unwrap_or(0));
            buf.put_u32_le(s.crc_failed_seqs.len() as u32);
            for &seq in &s.crc_failed_seqs {
                buf.put_u32_le(seq);
            }
            if let Some(total) = s.total {
                // Received-chunk bitmap, then each held payload in seq
                // order (length-prefixed).
                let nbytes = (total as usize).div_ceil(8);
                let mut bitmap = vec![0u8; nbytes];
                for (i, c) in s.chunks.iter().enumerate() {
                    if c.is_some() {
                        bitmap[i / 8] |= 1 << (i % 8);
                    }
                }
                buf.put_slice(&bitmap);
                for c in s.chunks.iter().flatten() {
                    buf.put_u32_le(c.len() as u32);
                    buf.put_slice(c);
                }
            }
        }
        seal(&mut buf);
        buf
    }

    /// Restores a collector from [`Self::checkpoint`] bytes. `cfg` and
    /// the implied router set must fingerprint-match the checkpoint;
    /// retransmit timers restart at `now`, and `checkpoint_resumes` is
    /// incremented so the recovery is visible in the epoch's stats.
    pub fn resume(
        bytes: &[u8],
        cfg: CollectorConfig,
        seed: u64,
        now: u64,
    ) -> Result<EpochCollector, CheckpointError> {
        let mut r = Reader::new(bytes);
        r.magic_version(CHECKPOINT_MAGIC, &[CHECKPOINT_VERSION])?;
        let mut r = r.sealed(bytes.len())?;
        let epoch_id = r.u64()?;
        let stored_fingerprint = r.u64()?;
        let mut stats = TransportStats {
            chunks_received: r.u64()?,
            retransmits: r.u64()?,
            late_chunks: r.u64()?,
            duplicate_chunks: r.u64()?,
            corrupt_chunks: r.u64()?,
            checkpoint_resumes: r.u64()?,
        };
        // Every session costs at least its 16 bytes of fixed fields.
        let n_sessions = r.count(usize::MAX, 16, "session count")?;
        let mut sessions = BTreeMap::new();
        for _ in 0..n_sessions {
            let router_id = r.u64()?;
            let total = r.count(MAX_CHUNKS as usize, 0, "total over cap")?;
            let n_failed = r.count(usize::MAX, 4, "failed-seq count")?;
            let mut session = RouterSession::new(router_id, &cfg.session, seed, now);
            session.crc_failed_seqs = (0..n_failed).map(|_| r.u32()).collect::<Result<_, _>>()?;
            if total > 0 {
                let bitmap = r.bytes(total.div_ceil(8))?;
                session.total = Some(total as u32);
                session.chunks = vec![None; total];
                for seq in 0..total {
                    if bitmap[seq / 8] & (1 << (seq % 8)) != 0 {
                        let len = r.count(MAX_CHUNK_PAYLOAD, 1, "payload length over cap")?;
                        session.chunks[seq] = Some(r.bytes(len)?.to_vec());
                        session.received += 1;
                        session.high = seq + 1;
                    }
                }
                session.advance_ack();
            }
            if sessions.insert(router_id, session).is_some() {
                return Err(CheckpointError::Malformed("duplicate router session"));
            }
        }
        if !r.rest().is_empty() {
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        let routers: Vec<u64> = sessions.keys().copied().collect();
        let expected = cfg.fingerprint(epoch_id, &routers);
        if expected != stored_fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                stored: stored_fingerprint,
                expected,
            });
        }
        stats.checkpoint_resumes += 1;
        Ok(EpochCollector {
            epoch_id,
            cfg,
            seed,
            started_at: now,
            sessions,
            stats,
            finalized: false,
        })
    }
}

// ---------------------------------------------------------------------
// Control frames
// ---------------------------------------------------------------------

/// Magic for control frames (`b"DCSN"`).
pub const CONTROL_MAGIC: [u8; 4] = *b"DCSN";

/// Control frame version.
pub const CONTROL_VERSION: u8 = 1;

/// Fixed control-frame bytes before the seq list: magic + version +
/// kind + router id + epoch id + arg + seq count.
pub const CONTROL_HEADER: usize = 4 + 1 + 1 + 8 + 8 + 4 + 4;

/// Largest UDP payload over IPv4: 65,535 bytes less the 20-byte IP and
/// 8-byte UDP headers.
pub(crate) const MAX_DATAGRAM: usize = 65_507;

/// Most seqs one [`ControlFrame::NackSeqs`] carries (16,368), so that the
/// largest control frame fits one UDP datagram. The receiver clips a
/// longer NACK to its first `MAX_NACK_SEQS` missing seqs; the session's
/// next timer asks for the rest.
pub const MAX_NACK_SEQS: usize = (MAX_DATAGRAM - CONTROL_HEADER - 4) / 4;

const _: () = assert!(CONTROL_HEADER + 4 * MAX_NACK_SEQS + 4 <= MAX_DATAGRAM);

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

// ---------------------------------------------------------------------
// The sender
// ---------------------------------------------------------------------

/// Chunks a sender puts on the wire ahead of the receiver's cumulative
/// ack: a chunk goes out for the first time only while its seq is below
/// `cumulative_ack + SEND_WINDOW`. 64 datagrams of up to 1.4 KB sit well
/// inside one default Linux receive buffer (212,992 B, about 92 such
/// datagrams by the kernel's accounting), so a window the centre has not
/// drained yet is queued, not dropped.
pub const SEND_WINDOW: usize = 64;

/// How one sender's epoch ended.
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

/// Resend/backoff parameters of one sender's epoch.
#[derive(Debug, Clone, Copy)]
pub struct MonitorEpochConfig {
    /// This sender's router id.
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

/// What one [`SendSession::step`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendStep {
    /// Put the seqs the step left in the buffer on the wire.
    Send {
        /// The resend timer fired and re-pushed every chunk sent past
        /// the cumulative ack.
        resend_burst: bool,
    },
    /// The epoch is over; nothing more goes out.
    End(MonitorEpochEnd),
}

/// The sending half of the delivery protocol: one sender shipping one
/// epoch of `chunks` chunk frames. It holds no frame and does no IO. The
/// receiver's control frames go in through [`Self::take`] and the clock
/// through [`Self::step`]; out come the seqs of the chunks to put on the
/// wire, which the caller sends from its own `chunks[seq]`.
///
/// * A chunk goes out for the first time only while its seq is below the
///   cumulative ack plus [`SEND_WINDOW`]. The window opens at the ack:
///   a chunk the ack already covers is never sent again.
/// * A `NackSeqs` is answered for the seqs already sent, a `NackAll` with
///   the sent prefix.
/// * A silent step (one after which no control frame came) re-sends the
///   chunk at the cumulative ack as a tail probe, which recovers a lost
///   tail or a lost ack in one round trip.
/// * The resend timer restarts whenever an ack advances or a NACK is
///   answered. When it fires, after `resend_after` ticks without either
///   and doubling up to `max_backoff`, every chunk sent past the
///   cumulative ack is re-pushed. That is the client half of crash
///   recovery: a receiver resumed from its checkpoint re-learns the
///   sender from these frames and NACKs what it still misses.
/// * `give_up` ticks after the last ack progress the epoch is abandoned.
/// * `Advance` to a later epoch, or every chunk acked, ends the epoch
///   delivered; `Shutdown` ends it at once.
#[derive(Debug, Clone)]
pub struct SendSession {
    cfg: MonitorEpochConfig,
    chunks: usize,
    /// The receiver's cumulative ack: it holds every chunk below it.
    acked: usize,
    /// `chunks[..sent]` have gone out at least once.
    sent: usize,
    backoff: u64,
    last_progress: u64,
    next_resend: u64,
    /// A NACK was answered since the last step.
    answered: bool,
    /// Set by `Advance` or `Shutdown`.
    end: Option<MonitorEpochEnd>,
}

impl SendSession {
    /// A sender about to ship `chunks` chunk frames under `cfg`, at tick
    /// `now`. Nothing has been sent yet.
    pub fn new(cfg: &MonitorEpochConfig, chunks: usize, now: u64) -> Self {
        let backoff = cfg.resend_after.max(1);
        SendSession {
            cfg: *cfg,
            chunks,
            acked: 0,
            sent: 0,
            backoff,
            last_progress: now,
            next_resend: now.saturating_add(backoff),
            answered: false,
            end: None,
        }
    }

    /// Takes one control frame that reached this sender at tick `now`,
    /// appending the seqs a NACK asks for to `seqs`. An ack or NACK for
    /// another router or epoch, an ack that does not advance, an
    /// `Advance` to this or an earlier epoch, and anything after the
    /// epoch ended change nothing.
    pub fn take(&mut self, control: &ControlFrame, now: u64, seqs: &mut Vec<u32>) {
        if self.end.is_some() {
            return;
        }
        let ours =
            |router_id, epoch_id| router_id == self.cfg.router_id && epoch_id == self.cfg.epoch_id;
        match control {
            &ControlFrame::Ack {
                router_id,
                epoch_id,
                cumulative_ack,
            } if ours(router_id, epoch_id) && cumulative_ack as usize > self.acked => {
                self.acked = cumulative_ack as usize;
                self.last_progress = now;
                self.backoff = self.cfg.resend_after.max(1);
                self.next_resend = now.saturating_add(self.backoff);
            }
            &ControlFrame::NackAll {
                router_id,
                epoch_id,
            } if ours(router_id, epoch_id) => {
                seqs.extend(0..self.sent as u32);
                self.answered |= self.sent > 0;
            }
            ControlFrame::NackSeqs {
                router_id,
                epoch_id,
                seqs: missing,
            } if ours(*router_id, *epoch_id) => {
                let before = seqs.len();
                seqs.extend(missing.iter().filter(|&&seq| (seq as usize) < self.sent));
                self.answered |= seqs.len() > before;
            }
            &ControlFrame::Advance { epoch_id, .. } if epoch_id > self.cfg.epoch_id => {
                self.end = Some(MonitorEpochEnd::Delivered);
            }
            ControlFrame::Shutdown { .. } => self.end = Some(MonitorEpochEnd::Shutdown),
            _ => {}
        }
    }

    /// One step of the sender at tick `now`, after the control frames
    /// that came since the last step were taken. `silent` says none came
    /// although the sender waited for them. Appends the seqs to put on
    /// the wire to `seqs`: the window's new chunks, then either a resend
    /// burst (the timer fired) or a tail probe (a silent step), unless a
    /// NACK was answered.
    pub fn step(&mut self, silent: bool, now: u64, seqs: &mut Vec<u32>) -> SendStep {
        if let Some(end) = self.end {
            return SendStep::End(end);
        }
        if self.acked >= self.chunks {
            return SendStep::End(MonitorEpochEnd::Delivered);
        }
        if now.saturating_sub(self.last_progress) >= self.cfg.give_up {
            return SendStep::End(MonitorEpochEnd::TimedOut);
        }
        let window_end = (self.acked + SEND_WINDOW).min(self.chunks);
        if self.sent < window_end {
            seqs.extend(self.sent.max(self.acked) as u32..window_end as u32);
            self.sent = window_end;
        }
        let timer = now >= self.next_resend;
        let answered = std::mem::take(&mut self.answered);
        let resend_burst = timer && !answered;
        if resend_burst {
            seqs.extend(self.acked as u32..self.sent as u32);
            self.backoff = (self.backoff.saturating_mul(2)).min(self.cfg.max_backoff.max(1));
        } else if silent && !answered {
            seqs.push(self.acked as u32);
        }
        if answered || timer {
            self.next_resend = now.saturating_add(self.backoff);
        }
        SendStep::Send { resend_burst }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::chunk_bundle;

    fn cfg() -> CollectorConfig {
        CollectorConfig {
            deadline: 100,
            straggler: StragglerPolicy::Deadline,
            session: SessionConfig {
                base_backoff: 4,
                max_backoff: 32,
                max_retries: 6,
                jitter: 0,
            },
        }
    }

    fn bundle_bytes(router: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8) ^ (router as u8)).collect()
    }

    #[test]
    fn missing_select_is_bounds_checked() {
        let chunks = ["c0", "c1", "c2"];
        assert_eq!(
            Missing::All.select(&chunks).collect::<Vec<_>>(),
            [&"c0", &"c1", &"c2"]
        );
        // An out-of-range seq (a NACK is outside input) selects nothing;
        // a duplicate selects its chunk again, in request order.
        let nack = Missing::Seqs(vec![2, 7, 0, 2, u32::MAX]);
        assert_eq!(
            nack.select(&chunks).collect::<Vec<_>>(),
            [&"c2", &"c0", &"c2"]
        );
        assert_eq!(Missing::Seqs(vec![0]).select::<u8>(&[]).count(), 0);
    }

    #[test]
    fn in_order_delivery_completes_and_acks_cumulatively() {
        let mut coll = EpochCollector::new(3, [7], cfg(), 1, 0);
        let bundle = bundle_bytes(7, 1000);
        let chunks = chunk_bundle(7, 3, &bundle, 256);
        assert_eq!(chunks.len(), 4);
        for (i, c) in chunks.iter().enumerate() {
            let d = coll.offer(c, i as u64);
            assert_eq!(
                d,
                ChunkDisposition::Accepted {
                    router_id: 7,
                    cumulative_ack: i as u32 + 1
                }
            );
        }
        assert!(coll.ready(4));
        let epoch = coll.finalize(4);
        assert_eq!(epoch.frames.len(), 1);
        assert_eq!(epoch.frames[0].1, bundle);
        assert!(epoch.exclusions.is_empty());
        assert_eq!(epoch.stats.chunks_received, 4);
    }

    #[test]
    fn out_of_order_duplicate_and_overlapping_chunks_reassemble_exactly() {
        let mut coll = EpochCollector::new(1, [2], cfg(), 1, 0);
        let bundle = bundle_bytes(2, 700);
        let chunks = chunk_bundle(2, 1, &bundle, 128);
        assert_eq!(chunks.len(), 6);
        // Deliver in reverse, then replay everything twice more.
        for c in chunks.iter().rev() {
            assert!(matches!(
                coll.offer(c, 0),
                ChunkDisposition::Accepted { .. }
            ));
        }
        for c in chunks.iter().chain(chunks.iter()) {
            assert_eq!(
                coll.offer(c, 1),
                ChunkDisposition::Duplicate { router_id: 2 }
            );
        }
        let epoch = coll.finalize(2);
        assert_eq!(epoch.frames[0].1, bundle, "reassembly must be byte-exact");
        assert_eq!(epoch.stats.duplicate_chunks, 12);
        assert_eq!(epoch.stats.chunks_received, 6);
    }

    #[test]
    fn cumulative_ack_tracks_the_contiguous_prefix() {
        let mut coll = EpochCollector::new(1, [5], cfg(), 1, 0);
        let chunks = chunk_bundle(5, 1, &bundle_bytes(5, 600), 128);
        // Chunks 2 and 4 first: ack stays 0 (nothing contiguous from 0).
        coll.offer(&chunks[2], 0);
        match coll.offer(&chunks[4], 0) {
            ChunkDisposition::Accepted { cumulative_ack, .. } => assert_eq!(cumulative_ack, 0),
            d => panic!("{d:?}"),
        }
        coll.offer(&chunks[0], 1);
        match coll.offer(&chunks[1], 1) {
            // 0,1,2 held → ack 3; 3 missing blocks 4.
            ChunkDisposition::Accepted { cumulative_ack, .. } => assert_eq!(cumulative_ack, 3),
            d => panic!("{d:?}"),
        }
        assert_eq!(coll.session(5).unwrap().missing(), vec![3]);
    }

    /// The ack cursor equals a scan of the held prefix after every offer,
    /// over random arrival orders with duplicates and a checkpoint resume
    /// at a random point of the session.
    #[test]
    fn cumulative_ack_cursor_matches_a_prefix_scan() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let scan = |s: &RouterSession| s.chunks.iter().take_while(|c| c.is_some()).count() as u32;
        let chunks = chunk_bundle(3, 1, &bundle_bytes(3, 2_000), 64);
        for seed in 0..40u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..chunks.len()).chain(0..chunks.len() / 4).collect();
            order.shuffle(&mut rng);
            let resume_at = rng.gen_range(0..order.len());
            let mut coll = EpochCollector::new(1, [3], cfg(), 1, 0);
            for (step, &i) in order.iter().enumerate() {
                if step == resume_at {
                    coll = EpochCollector::resume(&coll.checkpoint(), cfg(), 1, 0)
                        .expect("a collector's own checkpoint resumes");
                    let s = coll.session(3).unwrap();
                    assert_eq!(s.cumulative_ack(), scan(s), "seed {seed}: resumed");
                }
                let d = coll.offer(&chunks[i], step as u64);
                let s = coll.session(3).unwrap();
                assert_eq!(s.cumulative_ack(), scan(s), "seed {seed}, step {step}");
                if let ChunkDisposition::Accepted { cumulative_ack, .. } = d {
                    assert_eq!(cumulative_ack, scan(s), "seed {seed}, step {step}");
                }
            }
            let done = coll.session(3).unwrap().cumulative_ack();
            assert_eq!(done as usize, chunks.len(), "seed {seed}");
        }
    }

    #[test]
    fn backoff_doubles_and_caps_with_deterministic_jitter() {
        let scfg = SessionConfig {
            base_backoff: 4,
            max_backoff: 16,
            max_retries: 5,
            jitter: 3,
        };
        let ccfg = CollectorConfig {
            deadline: 1000,
            straggler: StragglerPolicy::WaitAll,
            session: scfg,
        };
        let run = || {
            let mut coll = EpochCollector::new(1, [9], ccfg, 42, 0);
            let mut fires = Vec::new();
            for now in 0..400 {
                for req in coll.poll(now) {
                    assert_eq!(req.router_id, 9);
                    assert_eq!(req.epoch_id, 1);
                    assert_eq!(req.missing, Missing::All);
                    fires.push(now);
                }
            }
            fires
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce the schedule exactly");
        assert_eq!(a.len(), 5, "max_retries bounds the request count");
        // Gaps grow then cap at max_backoff (+ jitter < 3).
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        for w in gaps.windows(2) {
            assert!(w[1] >= w[0].min(16), "backoff shrank: {gaps:?}");
        }
        assert!(gaps.iter().all(|&g| g <= 16 + 3), "gap over cap: {gaps:?}");
        // A different seed jitters differently (same count though).
        let mut coll = EpochCollector::new(1, [9], ccfg, 43, 0);
        let mut c = Vec::new();
        for now in 0..400 {
            if !coll.poll(now).is_empty() {
                c.push(now);
            }
        }
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn corrupt_chunk_salvage_nacks_and_recovery_succeeds() {
        let mut coll = EpochCollector::new(2, [4], cfg(), 7, 0);
        let bundle = bundle_bytes(4, 500);
        let chunks = chunk_bundle(4, 2, &bundle, 128);
        coll.offer(&chunks[0], 0);
        // Chunk 1 arrives corrupted in the payload: CRC fails, header
        // salvages, fast NACK primes the timer.
        let mut bad = chunks[1].clone();
        bad[crate::transport::CHUNK_HEADER + 5] ^= 0x10;
        assert_eq!(coll.offer(&bad, 1), ChunkDisposition::Corrupt);
        assert_eq!(coll.stats().corrupt_chunks, 1);
        let reqs = coll.poll(1);
        assert_eq!(reqs.len(), 1, "fast NACK must fire immediately");
        match &reqs[0].missing {
            Missing::Seqs(s) => assert_eq!(s, &vec![1, 2, 3]),
            m => panic!("{m:?}"),
        }
        // The retransmit arrives clean; the session recovers fully.
        for c in &chunks[1..] {
            coll.offer(c, 2);
        }
        let epoch = coll.finalize(3);
        assert_eq!(epoch.frames[0].1, bundle);
        assert!(
            epoch.exclusions.is_empty(),
            "recovered session must not be excluded"
        );
    }

    #[test]
    fn deadline_excludes_stragglers_as_timed_out() {
        let mut coll = EpochCollector::new(1, [1, 2], cfg(), 1, 0);
        let chunks = chunk_bundle(1, 1, &bundle_bytes(1, 300), 128);
        for c in &chunks {
            coll.offer(c, 0);
        }
        // Router 2 ships only its first chunk.
        let partial = chunk_bundle(2, 1, &bundle_bytes(2, 300), 128);
        coll.offer(&partial[0], 0);
        assert!(!coll.ready(50));
        assert!(coll.ready(100));
        let epoch = coll.finalize(100);
        assert_eq!(epoch.frames.len(), 1);
        assert_eq!(epoch.exclusions.len(), 1);
        assert_eq!(epoch.exclusions[0].router_id, Some(2));
        assert_eq!(
            epoch.exclusions[0].fault,
            RouterFault::TimedOut {
                received: 1,
                total: 3
            }
        );
    }

    #[test]
    fn deadline_tick_chunk_is_late_regardless_of_call_order() {
        // A chunk arriving exactly at the deadline tick (deadline 100,
        // now == 100) must be treated identically whether the driver
        // offers it before or after calling finalize — the historical bug
        // accepted it in the offer-first ordering only.
        let chunks = chunk_bundle(1, 1, &bundle_bytes(1, 100), 128);
        assert_eq!(chunks.len(), 1);

        // Ordering A: offer at the deadline tick, then finalize.
        let mut offer_first = EpochCollector::new(1, [1], cfg(), 1, 0);
        assert_eq!(offer_first.offer(&chunks[0], 100), ChunkDisposition::Late);
        let a = offer_first.finalize(100);

        // Ordering B: finalize at the deadline tick, then offer.
        let mut finalize_first = EpochCollector::new(1, [1], cfg(), 1, 0);
        let b = finalize_first.finalize(100);
        assert_eq!(
            finalize_first.offer(&chunks[0], 100),
            ChunkDisposition::Late
        );

        for epoch in [&a, &b] {
            assert!(epoch.frames.is_empty());
            assert_eq!(epoch.exclusions.len(), 1);
            assert_eq!(
                epoch.exclusions[0].fault,
                RouterFault::TimedOut {
                    received: 0,
                    total: 0
                }
            );
        }
        // Both orderings end with the same accounting: one late chunk.
        assert_eq!(offer_first.stats().late_chunks, 1);
        assert_eq!(finalize_first.stats().late_chunks, 1);

        // One tick earlier the chunk is squarely in time.
        let mut in_time = EpochCollector::new(1, [1], cfg(), 1, 0);
        assert!(matches!(
            in_time.offer(&chunks[0], 99),
            ChunkDisposition::Accepted { .. }
        ));
        assert!(in_time.finalize(100).exclusions.is_empty());
    }

    #[test]
    fn wait_all_still_accepts_past_deadline_chunks() {
        // WaitAll holds epochs open past the deadline by design; the hard
        // cutoff must apply to the Deadline policy only.
        let ccfg = CollectorConfig {
            deadline: 10,
            straggler: StragglerPolicy::WaitAll,
            session: cfg().session,
        };
        let mut coll = EpochCollector::new(1, [1], ccfg, 1, 0);
        let chunks = chunk_bundle(1, 1, &bundle_bytes(1, 100), 128);
        assert!(
            matches!(
                coll.offer(&chunks[0], 10),
                ChunkDisposition::Accepted { .. }
            ),
            "WaitAll must accept at the (advisory) deadline"
        );
    }

    /// The config fingerprint a DCSK checkpoint carries: values captured
    /// while a third, quorum-size policy still shared the tag byte, so
    /// checkpoints written then still resume.
    #[test]
    fn config_fingerprints_are_pinned() {
        for (straggler, want) in [
            (StragglerPolicy::WaitAll, 0x8046_1ce6_f6b8_9162),
            (StragglerPolicy::Deadline, 0xea72_774f_2b68_2c2c),
        ] {
            let ccfg = CollectorConfig {
                straggler,
                ..CollectorConfig::default()
            };
            assert_eq!(ccfg.fingerprint(7, &[1, 2, 3]), want, "{straggler:?}");
        }
    }

    #[test]
    fn extreme_backoff_configs_never_overflow_the_timer_arithmetic() {
        // Timer scheduling is `now + backoff + jitter`; with hostile
        // configs or a clock near u64::MAX every term must saturate
        // instead of wrapping (a wrapped timer fires constantly, spamming
        // retransmits forever).
        let scfg = SessionConfig {
            base_backoff: u64::MAX / 2,
            max_backoff: u64::MAX,
            max_retries: u32::MAX,
            jitter: u64::MAX,
        };
        let ccfg = CollectorConfig {
            deadline: u64::MAX,
            straggler: StragglerPolicy::WaitAll,
            session: scfg,
        };
        // Session opened near the end of time: construction saturates.
        let mut coll = EpochCollector::new(1, [9], ccfg, 42, u64::MAX - 1);
        assert_eq!(coll.deadline(), u64::MAX, "deadline must saturate");
        coll.poll(u64::MAX); // must not panic
                             // High attempt counts: drive a zero-jitter session through many
                             // retransmit rounds with the timer forced due each tick; the
                             // shifted backoff saturates at max_backoff and the schedule stays
                             // monotone (no wrap into the past).
        let scfg = SessionConfig {
            base_backoff: u64::MAX / 2,
            max_backoff: u64::MAX,
            max_retries: 100,
            jitter: 0,
        };
        let mut s = RouterSession::new(9, &scfg, 1, 0);
        for _ in 0..100 {
            s.next_request_at = 0; // force the timer due
            assert!(
                s.poll(&scfg, 1, u64::MAX - 3).is_some(),
                "retries left, timer due"
            );
            assert!(
                s.next_request_at >= u64::MAX - 3,
                "timer wrapped into the past: {}",
                s.next_request_at
            );
        }
        s.next_request_at = 0;
        assert!(s.poll(&scfg, 1, u64::MAX).is_none(), "retries exhausted");
        assert!(s.gave_up());
    }

    #[test]
    fn silent_router_times_out_with_unknown_total() {
        let mut coll = EpochCollector::new(1, [6], cfg(), 1, 0);
        let epoch = coll.finalize(200);
        assert_eq!(
            epoch.exclusions[0].fault,
            RouterFault::TimedOut {
                received: 0,
                total: 0
            }
        );
    }

    #[test]
    fn unrecovered_checksum_failure_is_attributed() {
        let scfg = SessionConfig {
            base_backoff: 2,
            max_backoff: 4,
            max_retries: 2,
            jitter: 0,
        };
        let mut coll = EpochCollector::new(
            1,
            [3],
            CollectorConfig {
                deadline: 100,
                straggler: StragglerPolicy::Deadline,
                session: scfg,
            },
            1,
            0,
        );
        let chunks = chunk_bundle(3, 1, &bundle_bytes(3, 300), 128);
        coll.offer(&chunks[0], 0);
        coll.offer(&chunks[2], 0);
        let mut bad = chunks[1].clone();
        bad[crate::transport::CHUNK_HEADER] ^= 0xFF;
        coll.offer(&bad, 1);
        for now in 1..=100 {
            coll.poll(now);
        }
        let epoch = coll.finalize(101);
        assert_eq!(
            epoch.exclusions[0].fault,
            RouterFault::ChecksumMismatch { seq: 1 }
        );
    }

    /// Offers `seqs` of `chunks` as one batch and returns the gap NACKs
    /// the batch calls for, as seq lists.
    fn gap_batch(coll: &mut EpochCollector, chunks: &[Vec<u8>], seqs: &[usize]) -> Vec<Vec<u32>> {
        let marks = coll.high_marks();
        for &seq in seqs {
            coll.offer(&chunks[seq], 0);
        }
        (coll.gap_requests(&marks, usize::MAX).into_iter())
            .map(|req| match req.missing {
                Missing::Seqs(seqs) => seqs,
                Missing::All => panic!("a gap NACK names its seqs"),
            })
            .collect()
    }

    #[test]
    fn gap_nacks_name_the_holes_below_the_highest_delivered_seq() {
        let mut coll = EpochCollector::new(0, [4], cfg(), 1, 0);
        let chunks = chunk_bundle(4, 0, &bundle_bytes(4, 1000), 100);
        assert_eq!(chunks.len(), 10);
        // 2 and 5 were overtaken; 7, 8 and 9, above the highest seq held,
        // may still be in flight and are not named.
        assert_eq!(gap_batch(&mut coll, &chunks, &[0, 1, 3, 4, 6]), [[2, 5]]);
        assert_eq!(coll.session(4).unwrap().high_mark(), 7);
        // A batch that only fills a hole raises nothing: the other
        // hole's resend may still be in flight.
        assert!(gap_batch(&mut coll, &chunks, &[2]).is_empty());
        // The next batch above the highest seq names what is still open.
        assert_eq!(gap_batch(&mut coll, &chunks, &[8]), [[5, 7]]);
        // The tail below the highest seq filled in: nothing is named, and
        // 9 is still above it.
        assert!(gap_batch(&mut coll, &chunks, &[7, 5]).is_empty());
        assert_eq!(coll.session(4).unwrap().missing(), [9]);
    }

    #[test]
    fn a_chunk_reordered_inside_its_batch_is_not_nacked() {
        let mut coll = EpochCollector::new(0, [4, 5], cfg(), 1, 0);
        let chunks = chunk_bundle(4, 0, &bundle_bytes(4, 1000), 100);
        assert!(gap_batch(&mut coll, &chunks, &[0, 2, 1, 3]).is_empty());
        assert!(gap_batch(&mut coll, &chunks, &[5, 4, 6]).is_empty());
    }

    #[test]
    fn a_complete_session_is_never_gap_nacked() {
        let mut coll = EpochCollector::new(0, [4], cfg(), 1, 0);
        let chunks = chunk_bundle(4, 0, &bundle_bytes(4, 1000), 100);
        let all: Vec<usize> = (0..chunks.len()).rev().collect();
        assert!(gap_batch(&mut coll, &chunks, &all).is_empty());
        assert!(coll.session(4).unwrap().is_complete());
        assert!(coll.session(4).unwrap().gaps(usize::MAX).is_empty());
    }

    #[test]
    fn a_gap_nack_is_clipped_to_one_control_frame() {
        let mut coll = EpochCollector::new(0, [1], cfg(), 1, 0);
        let marks = coll.high_marks();
        for seq in [0, 19_999] {
            let chunk = ChunkFrame {
                router_id: 1,
                epoch_id: 0,
                seq,
                total: 20_000,
                payload: b"x",
            };
            coll.offer(&chunk.encode(), 0);
        }
        let reqs = coll.gap_requests(&marks, MAX_NACK_SEQS);
        let want: Vec<u32> = (1..=MAX_NACK_SEQS as u32).collect();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].missing, Missing::Seqs(want));
        assert_eq!((reqs[0].router_id, reqs[0].epoch_id), (1, 0));
    }

    #[test]
    fn wrong_epoch_and_post_finalize_chunks_count_late() {
        let mut coll = EpochCollector::new(5, [1], cfg(), 1, 0);
        let stale = chunk_bundle(1, 4, b"old epoch", 64);
        assert_eq!(coll.offer(&stale[0], 0), ChunkDisposition::Late);
        let unknown = chunk_bundle(99, 5, b"who", 64);
        assert!(matches!(
            coll.offer(&unknown[0], 0),
            ChunkDisposition::UnknownRouter { router_id: 99 }
        ));
        let fresh = chunk_bundle(1, 5, b"current", 64);
        coll.offer(&fresh[0], 0);
        coll.finalize(1);
        assert_eq!(coll.offer(&fresh[0], 2), ChunkDisposition::Late);
        assert_eq!(coll.stats().late_chunks, 3);
    }

    #[test]
    fn inconsistent_total_is_rejected() {
        let mut coll = EpochCollector::new(1, [1], cfg(), 1, 0);
        let a = chunk_bundle(1, 1, &bundle_bytes(1, 300), 128); // total 3
        let b = chunk_bundle(1, 1, &bundle_bytes(1, 600), 128); // total 5
        coll.offer(&a[0], 0);
        assert_eq!(
            coll.offer(&b[1], 0),
            ChunkDisposition::Inconsistent { router_id: 1 }
        );
    }

    #[test]
    fn checkpoint_roundtrips_and_resume_continues_the_epoch() {
        let mut coll = EpochCollector::new(9, [1, 2], cfg(), 5, 0);
        let b1 = bundle_bytes(1, 900);
        let b2 = bundle_bytes(2, 900);
        let c1 = chunk_bundle(1, 9, &b1, 128);
        let c2 = chunk_bundle(2, 9, &b2, 128);
        // Router 1 fully delivered, router 2 partially (chunks 0, 3, 5).
        for c in &c1 {
            coll.offer(c, 0);
        }
        for i in [0usize, 3, 5] {
            coll.offer(&c2[i], 0);
        }
        let stats_before = coll.stats();
        let ckpt = coll.checkpoint();
        drop(coll); // the centre dies

        let mut resumed = EpochCollector::resume(&ckpt, cfg(), 5, 10).unwrap();
        assert_eq!(resumed.epoch_id(), 9);
        assert_eq!(resumed.complete_sessions(), 1);
        let s2 = resumed.session(2).unwrap();
        assert_eq!(s2.received(), 3);
        assert_eq!(s2.missing(), vec![1, 2, 4, 6, 7]);
        // The gap rule picks up where it was: holes below seq 5 only.
        assert_eq!((s2.high_mark(), s2.gaps(usize::MAX)), (6, vec![1, 2, 4]));
        assert_eq!(
            resumed.stats().checkpoint_resumes,
            stats_before.checkpoint_resumes + 1
        );
        assert_eq!(
            resumed.stats().chunks_received,
            stats_before.chunks_received
        );
        // Retransmits refill the holes; the reassembled bundles are
        // byte-identical to the originals.
        let reqs = resumed.poll(resumed.deadline());
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].router_id, 2);
        for i in [1usize, 2, 4, 6, 7] {
            resumed.offer(&c2[i], 20);
        }
        let epoch = resumed.finalize(21);
        assert_eq!(epoch.frames.len(), 2);
        assert_eq!(epoch.frames[0].1, b1);
        assert_eq!(epoch.frames[1].1, b2);
        assert!(epoch.exclusions.is_empty());
    }

    #[test]
    fn checkpoint_rejects_mangling_and_config_mismatch() {
        let mut coll = EpochCollector::new(1, [1, 2, 3], cfg(), 5, 0);
        let c1 = chunk_bundle(2, 1, &bundle_bytes(2, 500), 128);
        coll.offer(&c1[0], 0);
        let ckpt = coll.checkpoint();

        // Every strict prefix fails typed.
        for cut in 0..ckpt.len() {
            assert!(
                EpochCollector::resume(&ckpt[..cut], cfg(), 5, 0).is_err(),
                "prefix {cut} resumed"
            );
        }
        // Any single bit flip fails typed (CRC trailer).
        for byte in (0..ckpt.len()).step_by(7) {
            let mut bad = ckpt.clone();
            bad[byte] ^= 0x04;
            assert!(EpochCollector::resume(&bad, cfg(), 5, 0).is_err());
        }
        // A different config must be refused.
        let mut other = cfg();
        other.deadline += 1;
        assert!(matches!(
            EpochCollector::resume(&ckpt, other, 5, 0),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    // -----------------------------------------------------------------
    // The protocol's rules, on virtual ticks
    // -----------------------------------------------------------------

    const ROUTER: u64 = 1;

    /// A sender of `chunks` chunks at tick 0: resend timer 4 ticks,
    /// doubling to 16, giving up after 100 ticks without progress.
    fn sender(chunks: usize) -> SendSession {
        let cfg = MonitorEpochConfig {
            router_id: ROUTER,
            epoch_id: 0,
            resend_after: 4,
            max_backoff: 16,
            give_up: 100,
        };
        SendSession::new(&cfg, chunks, 0)
    }

    fn ack(cumulative_ack: u32) -> ControlFrame {
        ControlFrame::Ack {
            router_id: ROUTER,
            epoch_id: 0,
            cumulative_ack,
        }
    }

    fn nack(seqs: &[u32]) -> ControlFrame {
        ControlFrame::NackSeqs {
            router_id: ROUTER,
            epoch_id: 0,
            seqs: seqs.to_vec(),
        }
    }

    /// One step of `s` after `controls`: the seqs it sends, or its end.
    fn step(
        s: &mut SendSession,
        controls: &[ControlFrame],
        silent: bool,
        now: u64,
    ) -> Result<Vec<u32>, MonitorEpochEnd> {
        let mut seqs = Vec::new();
        for control in controls {
            s.take(control, now, &mut seqs);
        }
        match s.step(silent, now, &mut seqs) {
            SendStep::Send { .. } => Ok(seqs),
            SendStep::End(end) => Err(end),
        }
    }

    fn seqs(range: std::ops::Range<usize>) -> Vec<u32> {
        range.map(|s| s as u32).collect()
    }

    #[test]
    fn the_window_bounds_what_is_sent_ahead_of_the_ack() {
        let mut s = sender(3 * SEND_WINDOW);
        assert_eq!(step(&mut s, &[], false, 0), Ok(seqs(0..SEND_WINDOW)));
        // Acks inside the window open it by as much as they advance.
        assert_eq!(
            step(&mut s, &[ack(5)], false, 1),
            Ok(seqs(SEND_WINDOW..SEND_WINDOW + 5))
        );
        assert_eq!(step(&mut s, &[ack(5)], false, 2), Ok(vec![]));
        // An ack at the window's end opens a whole new window.
        let sent = SEND_WINDOW + 5;
        let window = step(&mut s, &[ack(sent as u32)], false, 3);
        assert_eq!(window, Ok(seqs(sent..sent + SEND_WINDOW)));
        let end = 3 * SEND_WINDOW;
        assert_eq!(
            step(&mut s, &[ack(end as u32)], false, 4),
            Err(MonitorEpochEnd::Delivered)
        );
    }

    #[test]
    fn an_ack_past_what_was_sent_opens_the_window_at_the_ack() {
        let mut s = sender(4 * SEND_WINDOW);
        assert_eq!(step(&mut s, &[], false, 0), Ok(seqs(0..SEND_WINDOW)));
        // A restarted sender meets a receiver that already holds more
        // than one window: nothing below its ack goes out again.
        let held = 2 * SEND_WINDOW + 7;
        let sent = step(&mut s, &[ack(held as u32)], false, 1);
        assert_eq!(sent, Ok(seqs(held..held + SEND_WINDOW)));
    }

    #[test]
    fn nacks_are_answered_for_sent_seqs_only() {
        let mut s = sender(2 * SEND_WINDOW);
        // A NACK before the first send is answered with nothing.
        let all = ControlFrame::NackAll {
            router_id: ROUTER,
            epoch_id: 0,
        };
        assert_eq!(
            step(&mut s, &[all.clone(), nack(&[0, 3])], false, 0),
            Ok(seqs(0..SEND_WINDOW))
        );
        // Seq 70 lies past the window, u32::MAX past the bundle.
        let answered = step(&mut s, &[nack(&[3, 70, 1, u32::MAX])], false, 1);
        assert_eq!(answered, Ok(vec![3, 1]));
        // NackAll re-sends the sent prefix, not the unsent tail.
        assert_eq!(step(&mut s, &[all], false, 2), Ok(seqs(0..SEND_WINDOW)));
    }

    #[test]
    fn a_silent_step_probes_the_chunk_at_the_ack() {
        let mut s = sender(10);
        assert_eq!(step(&mut s, &[], false, 0), Ok(seqs(0..10)));
        assert_eq!(step(&mut s, &[], true, 1), Ok(vec![0]));
        assert_eq!(step(&mut s, &[ack(6)], false, 2), Ok(vec![]));
        assert_eq!(step(&mut s, &[], true, 3), Ok(vec![6]));
        // A step that heard only a NACK answers it and sends no probe.
        assert_eq!(step(&mut s, &[nack(&[8])], false, 3), Ok(vec![8]));
    }

    #[test]
    fn the_resend_timer_restarts_on_progress_and_doubles_to_its_cap() {
        let mut s = sender(10);
        assert_eq!(step(&mut s, &[], false, 0), Ok(seqs(0..10)));
        // An ack at tick 3 moves the timer from tick 4 to tick 7.
        assert_eq!(step(&mut s, &[ack(2)], false, 3), Ok(vec![]));
        assert_eq!(step(&mut s, &[], false, 6), Ok(vec![]));
        // It fires at 7 and re-pushes everything sent past the ack; then
        // it waits 8, 16 and 16 ticks.
        assert_eq!(step(&mut s, &[], false, 7), Ok(seqs(2..10)));
        for (quiet, fires) in [(14, 15), (30, 31), (46, 47)] {
            assert_eq!(step(&mut s, &[], false, quiet), Ok(vec![]));
            assert_eq!(step(&mut s, &[], false, fires), Ok(seqs(2..10)));
        }
        // An answered NACK restarts it at the current backoff, without
        // a burst.
        assert_eq!(step(&mut s, &[nack(&[5])], false, 50), Ok(vec![5]));
        assert_eq!(step(&mut s, &[], false, 65), Ok(vec![]));
        assert_eq!(step(&mut s, &[], false, 66), Ok(seqs(2..10)));
        // An advancing ack resets the backoff to `resend_after`.
        assert_eq!(step(&mut s, &[ack(4)], false, 70), Ok(vec![]));
        assert_eq!(step(&mut s, &[], false, 74), Ok(seqs(4..10)));
    }

    #[test]
    fn a_resend_burst_is_reported() {
        let mut s = sender(3);
        let mut seqs = Vec::new();
        assert_eq!(
            s.step(false, 0, &mut seqs),
            SendStep::Send {
                resend_burst: false
            }
        );
        assert_eq!(
            s.step(false, 4, &mut seqs),
            SendStep::Send { resend_burst: true }
        );
        assert_eq!(seqs, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn give_up_counts_from_the_last_progress() {
        let mut s = sender(10);
        assert!(step(&mut s, &[], false, 0).is_ok());
        assert!(step(&mut s, &[ack(1)], false, 60).is_ok());
        // A duplicate ack or a NACK is not progress.
        assert!(step(&mut s, &[ack(1), nack(&[2])], false, 159).is_ok());
        assert_eq!(
            step(&mut s, &[], false, 160),
            Err(MonitorEpochEnd::TimedOut)
        );
    }

    #[test]
    fn advance_and_shutdown_end_the_epoch_and_strays_are_ignored() {
        let mut s = sender(10);
        assert!(step(&mut s, &[], false, 0).is_ok());
        let strays = [
            ControlFrame::Ack {
                router_id: ROUTER + 1,
                epoch_id: 0,
                cumulative_ack: 10,
            },
            ControlFrame::Ack {
                router_id: ROUTER,
                epoch_id: 1,
                cumulative_ack: 10,
            },
            ControlFrame::NackAll {
                router_id: ROUTER + 1,
                epoch_id: 0,
            },
            ControlFrame::NackSeqs {
                router_id: ROUTER,
                epoch_id: 1,
                seqs: vec![0],
            },
            ControlFrame::Advance {
                router_id: ROUTER,
                epoch_id: 0,
            },
            ControlFrame::Hello { router_id: ROUTER },
        ];
        assert_eq!(step(&mut s, &strays, false, 1), Ok(vec![]));
        let advance = ControlFrame::Advance {
            router_id: ROUTER,
            epoch_id: 1,
        };
        // Nothing a NACK asked for goes out once the epoch has ended.
        let ended = step(&mut s, &[advance, nack(&[0])], false, 2);
        assert_eq!(ended, Err(MonitorEpochEnd::Delivered));
        let mut s = sender(10);
        let shutdown = ControlFrame::Shutdown { router_id: ROUTER };
        assert_eq!(
            step(&mut s, &[shutdown], false, 0),
            Err(MonitorEpochEnd::Shutdown)
        );
    }

    #[test]
    fn the_receiver_acks_re_acks_and_advances_late_senders() {
        let mut coll = EpochCollector::new(1, [4], cfg(), 1, 0);
        let chunks = chunk_bundle(4, 1, &bundle_bytes(4, 500), 128);
        let stale = chunk_bundle(4, 0, &bundle_bytes(4, 500), 128);
        let hello = ControlFrame::Hello { router_id: 4 }.encode();
        let batch = [
            hello,
            chunks[0].clone(),
            chunks[0].clone(),
            stale[2].clone(),
        ];
        let ack = |cumulative_ack| ControlFrame::Ack {
            router_id: 4,
            epoch_id: 1,
            cumulative_ack,
        };
        let advance = ControlFrame::Advance {
            router_id: 4,
            epoch_id: 1,
        };
        assert_eq!(coll.answer(&batch, 0), [ack(1), ack(1), advance]);
        assert_eq!(coll.stats().corrupt_chunks, 0, "a Hello is no chunk");
    }

    #[test]
    fn the_receiver_sends_gap_nacks_before_timer_nacks() {
        let mut coll = EpochCollector::new(0, [4, 5], cfg(), 1, 0);
        let chunks = chunk_bundle(4, 0, &bundle_bytes(4, 500), 128);
        // Both timers fire at tick 4: router 5 is silent, and router 4
        // still misses seqs 1 and 3. The same batch overtakes its seq 1.
        let batch = [chunks[0].clone(), chunks[2].clone()];
        let answers = coll.answer(&batch, 4);
        let gap = ControlFrame::NackSeqs {
            router_id: 4,
            epoch_id: 0,
            seqs: vec![1],
        };
        let timers = [
            ControlFrame::NackSeqs {
                router_id: 4,
                epoch_id: 0,
                seqs: vec![1, 3],
            },
            ControlFrame::NackAll {
                router_id: 5,
                epoch_id: 0,
            },
        ];
        assert_eq!(answers[2], gap);
        assert_eq!(answers[3..], timers);
    }
}
