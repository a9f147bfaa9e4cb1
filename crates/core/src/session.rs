//! Per-router transport sessions and the epoch collector — sequenced,
//! acked, deadline-bounded delivery of chunked digest bundles, with
//! crash-recoverable progress.
//!
//! The paper ships one digest per router per epoch over a real network;
//! PR 2/3 validated digest *content* while delivery stayed a perfect
//! in-memory batch. This module models delivery:
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
//!   (duplicate/overlap-safe), exposes a cumulative ack, and drives a
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
//!   starting over — monitoring points keep a bounded resend buffer of
//!   their last epoch precisely so post-restart retransmit requests
//!   succeed.
//!
//! Time is a caller-supplied virtual tick (`u64`): the state machine
//! never reads a wall clock, so every test and simulation is exactly
//! reproducible.

use crate::ingest::{Exclusion, RouterFault};
use crate::monitor::RouterDigest;
use crate::report::TransportStats;
use crate::transport::{ChunkError, ChunkFrame, MAX_CHUNKS};
use dcs_hash::crc32::crc32;
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
    /// Hold the epoch open until the deadline; finalize then if at least
    /// this many sessions completed, otherwise keep waiting until every
    /// session completes or gives up.
    Quorum(usize),
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
        let (tag, q) = match self.straggler {
            StragglerPolicy::WaitAll => (0u8, 0u64),
            StragglerPolicy::Quorum(q) => (1, q as u64),
            StragglerPolicy::Deadline => (2, 0),
        };
        h.update(&[tag]);
        h.update(&q.to_le_bytes());
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
        self.chunks
            .iter()
            .take_while(|c| c.is_some())
            .count()
            .try_into()
            .expect("chunk count bounded by MAX_CHUNKS")
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
                if matches!(e, ChunkError::ChecksumMismatch { .. }) {
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
                // WaitAll/Quorum keep the advisory-deadline semantics
                // (they legitimately accept past-deadline stragglers).
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

    /// Whether the straggler policy says to stop waiting at `now`.
    pub fn ready(&self, now: u64) -> bool {
        let complete = self.complete_sessions();
        if complete == self.sessions.len() {
            return true;
        }
        let decided = self.sessions.values().all(|s| s.is_complete() || s.gave_up);
        match self.cfg.straggler {
            StragglerPolicy::WaitAll => decided,
            StragglerPolicy::Quorum(q) => {
                (now >= self.deadline() && complete >= q) || (decided && now >= self.deadline())
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
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.push(CHECKPOINT_VERSION);
        buf.extend_from_slice(&self.epoch_id.to_le_bytes());
        buf.extend_from_slice(&self.cfg.fingerprint(self.epoch_id, &routers).to_le_bytes());
        let stats = [
            self.stats.chunks_received,
            self.stats.retransmits,
            self.stats.late_chunks,
            self.stats.duplicate_chunks,
            self.stats.corrupt_chunks,
            self.stats.checkpoint_resumes,
        ];
        for s in stats {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        buf.extend_from_slice(&(self.sessions.len() as u32).to_le_bytes());
        for s in self.sessions.values() {
            buf.extend_from_slice(&s.router_id.to_le_bytes());
            buf.extend_from_slice(&s.total.unwrap_or(0).to_le_bytes());
            buf.extend_from_slice(&(s.crc_failed_seqs.len() as u32).to_le_bytes());
            for &seq in &s.crc_failed_seqs {
                buf.extend_from_slice(&seq.to_le_bytes());
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
                buf.extend_from_slice(&bitmap);
                for c in s.chunks.iter().flatten() {
                    buf.extend_from_slice(&(c.len() as u32).to_le_bytes());
                    buf.extend_from_slice(c);
                }
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
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
        if bytes.len() < 4 {
            return Err(CheckpointError::Truncated);
        }
        if bytes[..4] != CHECKPOINT_MAGIC {
            let mut m = [0u8; 4];
            m.copy_from_slice(&bytes[..4]);
            return Err(CheckpointError::BadMagic(m));
        }
        if bytes.len() < 5 + 8 + 8 + 48 + 4 + 4 {
            return Err(CheckpointError::Truncated);
        }
        if bytes[4] != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion(bytes[4]));
        }
        let body = &bytes[..bytes.len() - 4];
        let declared =
            u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4-byte slice"));
        if crc32(body) != declared {
            return Err(CheckpointError::ChecksumMismatch);
        }

        let mut off = 5usize;
        fn take<'b>(
            body: &'b [u8],
            off: &mut usize,
            n: usize,
        ) -> Result<&'b [u8], CheckpointError> {
            if *off + n > body.len() {
                return Err(CheckpointError::Truncated);
            }
            let s = &body[*off..*off + n];
            *off += n;
            Ok(s)
        }
        let get_u64 = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8-byte slice"));
        let get_u32 = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4-byte slice"));

        let epoch_id = get_u64(take(body, &mut off, 8)?);
        let stored_fingerprint = get_u64(take(body, &mut off, 8)?);
        let mut stats = TransportStats {
            chunks_received: get_u64(take(body, &mut off, 8)?),
            retransmits: get_u64(take(body, &mut off, 8)?),
            late_chunks: get_u64(take(body, &mut off, 8)?),
            duplicate_chunks: get_u64(take(body, &mut off, 8)?),
            corrupt_chunks: get_u64(take(body, &mut off, 8)?),
            checkpoint_resumes: get_u64(take(body, &mut off, 8)?),
        };
        let n_sessions = get_u32(take(body, &mut off, 4)?) as usize;
        // Every session costs at least its fixed fields; reject a count
        // the remaining bytes cannot hold before allocating.
        if n_sessions.saturating_mul(16) > body.len() - off {
            return Err(CheckpointError::Malformed("session count beyond buffer"));
        }

        let mut sessions = BTreeMap::new();
        for _ in 0..n_sessions {
            let router_id = get_u64(take(body, &mut off, 8)?);
            let total_raw = get_u32(take(body, &mut off, 4)?);
            let n_failed = get_u32(take(body, &mut off, 4)?) as usize;
            if n_failed.saturating_mul(4) > body.len() - off {
                return Err(CheckpointError::Malformed("failed-seq count beyond buffer"));
            }
            let mut crc_failed_seqs = Vec::with_capacity(n_failed);
            for _ in 0..n_failed {
                crc_failed_seqs.push(get_u32(take(body, &mut off, 4)?));
            }
            let mut session = RouterSession::new(router_id, &cfg.session, seed, now);
            session.crc_failed_seqs = crc_failed_seqs;
            if total_raw > 0 {
                if total_raw > MAX_CHUNKS {
                    return Err(CheckpointError::Malformed("total over cap"));
                }
                let total = total_raw as usize;
                let bitmap = take(body, &mut off, total.div_ceil(8))?.to_vec();
                session.total = Some(total_raw);
                session.chunks = vec![None; total];
                for seq in 0..total {
                    if bitmap[seq / 8] & (1 << (seq % 8)) != 0 {
                        let len = get_u32(take(body, &mut off, 4)?) as usize;
                        if len > crate::transport::MAX_CHUNK_PAYLOAD {
                            return Err(CheckpointError::Malformed("payload length over cap"));
                        }
                        session.chunks[seq] = Some(take(body, &mut off, len)?.to_vec());
                        session.received += 1;
                    }
                }
            }
            if sessions.insert(router_id, session).is_some() {
                return Err(CheckpointError::Malformed("duplicate router session"));
            }
        }
        if off != body.len() {
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
    fn advisory_deadline_policies_still_accept_past_deadline_chunks() {
        // WaitAll and Quorum hold epochs open past the deadline by
        // design; the hard cutoff must apply to the Deadline policy only.
        for straggler in [StragglerPolicy::WaitAll, StragglerPolicy::Quorum(1)] {
            let ccfg = CollectorConfig {
                deadline: 10,
                straggler,
                session: cfg().session,
            };
            let mut coll = EpochCollector::new(1, [1], ccfg, 1, 0);
            let chunks = chunk_bundle(1, 1, &bundle_bytes(1, 100), 128);
            assert!(
                matches!(
                    coll.offer(&chunks[0], 10),
                    ChunkDisposition::Accepted { .. }
                ),
                "{straggler:?} must accept at the (advisory) deadline"
            );
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
    fn quorum_policy_waits_past_deadline_for_quorum() {
        let ccfg = CollectorConfig {
            deadline: 10,
            straggler: StragglerPolicy::Quorum(1),
            session: SessionConfig {
                base_backoff: 2,
                max_backoff: 4,
                max_retries: 2,
                jitter: 0,
            },
        };
        let mut coll = EpochCollector::new(1, [1, 2], ccfg, 1, 0);
        // Nothing at the deadline → quorum 1 not met → not ready.
        assert!(!coll.ready(10));
        let chunks = chunk_bundle(1, 1, &bundle_bytes(1, 100), 128);
        coll.offer(&chunks[0], 11);
        // Quorum met, but only past the deadline.
        assert!(coll.ready(11));
        assert!(!coll.ready(5));
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
}
