//! Regional aggregation tier: fan-in between the monitoring points and
//! the analysis centre.
//!
//! A flat deployment — every router shipping its chunked digest bundle
//! straight to the centre — stops scaling at a few dozen routers: the
//! centre holds one retransmit session per router and its ingest work
//! grows with the *leaf* count. This module inserts regional
//! [`Aggregator`]s between the two:
//!
//! ```text
//!   leaf 1 ──┐
//!   leaf 2 ──┤ DCSC chunks   ┌────────────┐  one AggregateBundle
//!      …     ├──────────────►│ aggregator │─────────────────────┐
//!   leaf c ──┘   (hop 1)     └────────────┘   as DCSC chunks    │
//!                                                (hop 2)        ▼
//!   leaf c+1 ─┐              ┌────────────┐              ┌──────────┐
//!      …      ├─────────────►│ aggregator │─────────────►│  centre  │
//!   leaf 2c ──┘              └────────────┘              └──────────┘
//! ```
//!
//! An aggregator runs an ordinary [`EpochCollector`] over its children,
//! then **forwards** what arrived: the parseable child DCSR frames are
//! embedded **verbatim** in one [`AggregateBundle`], and the aggregator
//! adds nothing but the accounting. It fuses nothing — the paper's
//! refined search needs every router's row, and an OR of a region's
//! bitmaps would lose which router held which bit. Verbatim embedding is
//! the detection-equivalence guarantee: the centre parses exactly the
//! bytes a flat deployment would have shipped it, so every detection
//! verdict is byte-identical to flat ingest by construction (see
//! DESIGN.md §7.1).
//!
//! Children the aggregator could not deliver (timed out, checksum-dead,
//! unparseable) ride along as typed [`ChildExclusion`]s; the centre
//! wraps them in [`RouterFault::AtLevel`] so every leaf lost anywhere in
//! the tree surfaces in the final
//! [`IngestReport`](crate::ingest::IngestReport) with its fault kind and
//! level, and quorum stays a *leaf* count, never a bundle count.
//!
//! The bundle's wire format follows the DCSC/DCSR discipline: magic +
//! version header, every declared length checked against the remaining
//! buffer and a hard cap before allocation, CRC-32 trailer over the
//! whole frame. Bundles ship upstream as ordinary
//! [`chunk_bundle`](crate::transport::chunk_bundle) chunks.

use crate::ingest::RouterFault;
use crate::monitor::RouterDigestView;
use crate::report::TransportStats;
use crate::session::{
    ChunkDisposition, CollectorConfig, ControlFrame, EpochCollector, RetransmitRequest,
};
use bytes::BufMut;
use dcs_collect::frame::{seal, FrameError, Reader};
use dcs_obs::MetricsRegistry;
use std::time::Instant;

/// Magic for aggregate bundle frames (`b"DCSG"`).
pub const AGGREGATE_MAGIC: [u8; 4] = *b"DCSG";

/// The one aggregate bundle version decoders accept. Versions 1 and 2
/// carried an OR-fused bitmap, a weight sidecar and a merged sketch;
/// a frame in that layout fails as [`FrameError::BadVersion`].
pub const AGGREGATE_VERSION: u8 = 3;

/// Fixed header bytes: magic + version + aggregator id + epoch id +
/// level + total frame length.
pub const AGGREGATE_HEADER: usize = 4 + 1 + 8 + 8 + 1 + 4;

/// Hard cap on children per bundle (embedded frames and exclusions
/// each): a hostile count cannot reserve more slots.
pub const MAX_AGGREGATE_CHILDREN: u32 = 4096;

/// Hard cap on one embedded child frame's length.
pub const MAX_CHILD_FRAME: usize = 1 << 26;

/// Cap on an encoded fault's embedded string (wire-error text).
const MAX_FAULT_STRING: usize = 1024;

/// Cap on [`RouterFault::AtLevel`] nesting in the fault encoding.
const MAX_FAULT_DEPTH: usize = 4;

/// One child excluded at the aggregator, with the transport- or
/// wire-level reason. The centre wraps the fault in
/// [`RouterFault::AtLevel`] when it folds the bundle into the epoch's
/// ingest accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildExclusion {
    /// The lost child router.
    pub router_id: u64,
    /// Why the aggregator could not deliver it.
    pub fault: RouterFault,
}

/// One aggregator's epoch: the accepted children's DCSR frames
/// (verbatim) and the children lost below this level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateBundle {
    /// The shipping aggregator.
    pub aggregator_id: u64,
    /// The epoch this bundle covers.
    pub epoch_id: u64,
    /// Aggregation tier (first tier above the leaves = 1).
    pub level: u8,
    /// The accepted children's DCSR wire frames, verbatim.
    pub frames: Vec<Vec<u8>>,
    /// Children this aggregator could not deliver.
    pub exclusions: Vec<ChildExclusion>,
}

impl AggregateBundle {
    /// Leaves this bundle accounts for: embedded frames plus exclusions.
    pub fn leaves(&self) -> usize {
        self.frames.len() + self.exclusions.len()
    }

    /// Builds a bundle from reassembled child frames (`(child router id,
    /// DCSR frame bytes)`) plus the children already excluded by
    /// transport. This is [`Aggregator::finalize`]'s core, exposed so
    /// tests and simulations can assemble bundles without driving a
    /// chunk session.
    ///
    /// Parseable leaf frames are embedded verbatim, whatever their
    /// shape (the centre's consensus vote decides). Frames that fail
    /// [`RouterDigestView::parse`] become [`RouterFault::Wire`]
    /// exclusions and are **not** forwarded (they cannot parse at the
    /// centre either — dropping them here is the bandwidth the tier
    /// saves). A child frame that is itself a DCSG bundle (a
    /// lower-level aggregator) is flattened: its leaf frames splice in
    /// verbatim and its exclusions are re-wrapped one level deeper in
    /// [`RouterFault::AtLevel`]. A nested bundle that would take the
    /// frames or exclusions past [`MAX_AGGREGATE_CHILDREN`] — counting
    /// one slot for each child still to come — is not spliced: like a
    /// lost aggregator at the centre, it becomes one exclusion with an
    /// `AtLevel`-wrapped wire fault.
    ///
    /// # Panics
    /// Panics if `child_frames` and `exclusions` together exceed
    /// [`MAX_AGGREGATE_CHILDREN`], like [`Aggregator::new`].
    pub fn assemble(
        aggregator_id: u64,
        epoch_id: u64,
        level: u8,
        child_frames: Vec<(u64, Vec<u8>)>,
        mut exclusions: Vec<ChildExclusion>,
    ) -> AggregateBundle {
        let cap = MAX_AGGREGATE_CHILDREN as usize;
        assert!(
            child_frames.len() + exclusions.len() <= cap,
            "aggregate children over cap"
        );
        let mut frames = Vec::with_capacity(child_frames.len());
        let mut pending = child_frames.len();
        for (router_id, bytes) in child_frames {
            // Every child not yet placed keeps one slot of each list in
            // reserve, so a splice can never squeeze a later child out.
            pending -= 1;
            if !bytes.starts_with(&AGGREGATE_MAGIC) {
                match RouterDigestView::parse(&bytes) {
                    Ok(_) => frames.push(bytes),
                    Err(e) => exclusions.push(ChildExclusion {
                        router_id,
                        fault: RouterFault::Wire(e.to_string()),
                    }),
                }
                continue;
            }
            // A child that is itself an aggregator ships a nested DCSG
            // bundle; flatten it so the upstream tier (and ultimately the
            // centre) keeps accounting in *leaves*, each exclusion
            // re-wrapped so the fault's full path through the tree
            // survives the hop.
            let nested = match AggregateBundle::decode_wire(&bytes) {
                Ok((nested, _)) => nested,
                Err(e) => {
                    exclusions.push(ChildExclusion {
                        router_id,
                        fault: RouterFault::Wire(format!("aggregate bundle: {e}")),
                    });
                    continue;
                }
            };
            let wrap = |fault| RouterFault::AtLevel {
                level: nested.level,
                aggregator_id: Some(nested.aggregator_id),
                fault: Box::new(fault),
            };
            if frames.len() + nested.frames.len() + pending > cap
                || exclusions.len() + nested.exclusions.len() + pending > cap
            {
                exclusions.push(ChildExclusion {
                    router_id,
                    fault: wrap(RouterFault::Wire(
                        "nested aggregate bundle over the child cap".into(),
                    )),
                });
                continue;
            }
            frames.extend(nested.frames);
            exclusions.extend(nested.exclusions.into_iter().map(|e| ChildExclusion {
                router_id: e.router_id,
                fault: wrap(e.fault),
            }));
        }
        AggregateBundle {
            aggregator_id,
            epoch_id,
            level,
            frames,
            exclusions,
        }
    }

    /// Exact length [`Self::encode_wire`] will produce, in bytes.
    pub fn encoded_len(&self) -> usize {
        AGGREGATE_HEADER
            + 4
            + self.frames.iter().map(|f| 4 + f.len()).sum::<usize>()
            + 4
            + self
                .exclusions
                .iter()
                .map(|e| 8 + fault_encoded_len(&e.fault))
                .sum::<usize>()
            + 4
    }

    /// Encodes the bundle as one CRC-trailed wire frame.
    ///
    /// # Panics
    /// Panics if a count or length exceeds its hard cap
    /// ([`MAX_AGGREGATE_CHILDREN`], [`MAX_CHILD_FRAME`]) —
    /// [`Self::assemble`] never builds such a bundle from in-cap inputs.
    pub fn encode_wire(&self) -> Vec<u8> {
        assert!(
            self.frames.len() <= MAX_AGGREGATE_CHILDREN as usize
                && self.exclusions.len() <= MAX_AGGREGATE_CHILDREN as usize,
            "aggregate child count over cap"
        );
        let total = self.encoded_len();
        let mut buf = Vec::with_capacity(total);
        buf.put_slice(&AGGREGATE_MAGIC);
        buf.put_u8(AGGREGATE_VERSION);
        buf.put_u64_le(self.aggregator_id);
        buf.put_u64_le(self.epoch_id);
        buf.put_u8(self.level);
        buf.put_u32_le(total as u32);
        buf.put_u32_le(self.frames.len() as u32);
        for f in &self.frames {
            assert!(f.len() <= MAX_CHILD_FRAME, "child frame over cap");
            buf.put_u32_le(f.len() as u32);
            buf.put_slice(f);
        }
        buf.put_u32_le(self.exclusions.len() as u32);
        for e in &self.exclusions {
            buf.put_u64_le(e.router_id);
            encode_fault(&mut buf, &e.fault, 0);
        }
        seal(&mut buf);
        debug_assert_eq!(buf.len(), total, "encoded_len out of sync");
        buf
    }

    /// Decodes a frame produced by [`Self::encode_wire`] from the front
    /// of `buf`, returning the bundle and the bytes consumed. Never
    /// panics on arbitrary input — every declared count and length is
    /// checked against its cap and the remaining buffer before any
    /// allocation, and the CRC-32 trailer is verified before the body is
    /// parsed.
    pub fn decode_wire(buf: &[u8]) -> Result<(AggregateBundle, usize), FrameError> {
        let mut r = Reader::new(buf);
        r.magic_version(AGGREGATE_MAGIC, &[AGGREGATE_VERSION])?;
        let aggregator_id = r.u64()?;
        let epoch_id = r.u64()?;
        let level = r.u8()?;
        let total = r.u32()? as usize;
        if total < AGGREGATE_HEADER + 2 * 4 + 4 {
            return Err(FrameError::Malformed("declared length below minimum"));
        }
        let mut r = r.sealed(total)?;
        let cap = MAX_AGGREGATE_CHILDREN as usize;
        let n_frames = r.count(cap, 4, "frame count over cap")?;
        let mut frames = Vec::with_capacity(n_frames);
        for _ in 0..n_frames {
            let len = r.count(MAX_CHILD_FRAME, 1, "child frame over cap")?;
            frames.push(r.bytes(len)?.to_vec());
        }
        let n_excl = r.count(cap, 9, "exclusion count over cap")?;
        let mut exclusions = Vec::with_capacity(n_excl);
        for _ in 0..n_excl {
            let router_id = r.u64()?;
            let fault = decode_fault(&mut r, 0)?;
            exclusions.push(ChildExclusion { router_id, fault });
        }
        if !r.rest().is_empty() {
            return Err(FrameError::Malformed("trailing bytes"));
        }
        Ok((
            AggregateBundle {
                aggregator_id,
                epoch_id,
                level,
                frames,
                exclusions,
            },
            total,
        ))
    }
}

// Compact tagged binary encoding of RouterFault for the exclusion
// records — the wire counterpart of the JSON serde impl in
// `crate::ingest` (which reports use), kept binary here to match the
// CRC'd frame discipline.
const FT_WIRE: u8 = 0;
const FT_DUPLICATE: u8 = 1;
const FT_EMPTY_UNALIGNED: u8 = 2;
const FT_GROUP_LAYOUT: u8 = 3;
const FT_ALIGNED_WIDTH: u8 = 4;
const FT_ARRAYS_PER_GROUP: u8 = 5;
const FT_ARRAY_WIDTH: u8 = 6;
const FT_EPOCH_DESYNC: u8 = 7;
const FT_TIMED_OUT: u8 = 8;
const FT_CHECKSUM: u8 = 9;
const FT_INCOMPLETE: u8 = 10;
const FT_AT_LEVEL: u8 = 11;

/// Clips `s` to at most [`MAX_FAULT_STRING`] bytes on a char boundary.
fn clip_fault_string(s: &str) -> &str {
    if s.len() <= MAX_FAULT_STRING {
        return s;
    }
    let mut end = MAX_FAULT_STRING;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn fault_encoded_len(fault: &RouterFault) -> usize {
    1 + match fault {
        RouterFault::Wire(e) => 4 + clip_fault_string(e).len(),
        RouterFault::DuplicateRouter { .. } => 8,
        RouterFault::EmptyUnaligned => 0,
        RouterFault::GroupLayout { .. }
        | RouterFault::AlignedWidth { .. }
        | RouterFault::ArraysPerGroup { .. }
        | RouterFault::ArrayWidth { .. }
        | RouterFault::EpochDesync { .. }
        | RouterFault::TimedOut { .. }
        | RouterFault::Incomplete { .. } => 16,
        RouterFault::ChecksumMismatch { .. } => 4,
        RouterFault::AtLevel {
            aggregator_id,
            fault,
            ..
        } => 2 + if aggregator_id.is_some() { 8 } else { 0 } + fault_encoded_len(fault),
    }
}

fn encode_fault(buf: &mut Vec<u8>, fault: &RouterFault, depth: usize) {
    assert!(depth < MAX_FAULT_DEPTH, "fault nesting over cap");
    let two = |buf: &mut Vec<u8>, tag: u8, a: u64, b: u64| {
        buf.put_u8(tag);
        buf.put_u64_le(a);
        buf.put_u64_le(b);
    };
    match fault {
        RouterFault::Wire(e) => {
            let s = clip_fault_string(e);
            buf.put_u8(FT_WIRE);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        RouterFault::DuplicateRouter { first_index } => {
            buf.put_u8(FT_DUPLICATE);
            buf.put_u64_le(*first_index as u64);
        }
        RouterFault::EmptyUnaligned => buf.put_u8(FT_EMPTY_UNALIGNED),
        RouterFault::GroupLayout {
            arrays,
            arrays_per_group,
        } => two(
            buf,
            FT_GROUP_LAYOUT,
            *arrays as u64,
            *arrays_per_group as u64,
        ),
        RouterFault::AlignedWidth { expected, got } => {
            two(buf, FT_ALIGNED_WIDTH, *expected as u64, *got as u64)
        }
        RouterFault::ArraysPerGroup { expected, got } => {
            two(buf, FT_ARRAYS_PER_GROUP, *expected as u64, *got as u64)
        }
        RouterFault::ArrayWidth { expected, got } => {
            two(buf, FT_ARRAY_WIDTH, *expected as u64, *got as u64)
        }
        RouterFault::EpochDesync { expected, got } => two(buf, FT_EPOCH_DESYNC, *expected, *got),
        RouterFault::TimedOut { received, total } => {
            two(buf, FT_TIMED_OUT, *received as u64, *total as u64)
        }
        RouterFault::ChecksumMismatch { seq } => {
            buf.put_u8(FT_CHECKSUM);
            buf.put_u32_le(*seq);
        }
        RouterFault::Incomplete { received, total } => {
            two(buf, FT_INCOMPLETE, *received as u64, *total as u64)
        }
        RouterFault::AtLevel {
            level,
            aggregator_id,
            fault,
        } => {
            buf.put_u8(FT_AT_LEVEL);
            buf.put_u8(*level);
            match aggregator_id {
                Some(agg) => {
                    buf.put_u8(1);
                    buf.put_u64_le(*agg);
                }
                None => buf.put_u8(0),
            }
            encode_fault(buf, fault, depth + 1);
        }
    }
}

fn decode_fault(r: &mut Reader<'_>, depth: usize) -> Result<RouterFault, FrameError> {
    if depth >= MAX_FAULT_DEPTH {
        return Err(FrameError::Malformed("fault nesting over cap"));
    }
    let as_usize =
        |v: u64| usize::try_from(v).map_err(|_| FrameError::Malformed("fault field exceeds usize"));
    let two = |r: &mut Reader<'_>| -> Result<(usize, usize), FrameError> {
        Ok((as_usize(r.u64()?)?, as_usize(r.u64()?)?))
    };
    Ok(match r.u8()? {
        FT_WIRE => {
            let len = r.count(MAX_FAULT_STRING, 1, "fault string over cap")?;
            let s = std::str::from_utf8(r.bytes(len)?)
                .map_err(|_| FrameError::Malformed("fault string not UTF-8"))?;
            RouterFault::Wire(s.to_string())
        }
        FT_DUPLICATE => RouterFault::DuplicateRouter {
            first_index: as_usize(r.u64()?)?,
        },
        FT_EMPTY_UNALIGNED => RouterFault::EmptyUnaligned,
        FT_GROUP_LAYOUT => {
            let (arrays, arrays_per_group) = two(r)?;
            RouterFault::GroupLayout {
                arrays,
                arrays_per_group,
            }
        }
        FT_ALIGNED_WIDTH => {
            let (expected, got) = two(r)?;
            RouterFault::AlignedWidth { expected, got }
        }
        FT_ARRAYS_PER_GROUP => {
            let (expected, got) = two(r)?;
            RouterFault::ArraysPerGroup { expected, got }
        }
        FT_ARRAY_WIDTH => {
            let (expected, got) = two(r)?;
            RouterFault::ArrayWidth { expected, got }
        }
        FT_EPOCH_DESYNC => RouterFault::EpochDesync {
            expected: r.u64()?,
            got: r.u64()?,
        },
        FT_TIMED_OUT => {
            let (received, total) = two(r)?;
            RouterFault::TimedOut { received, total }
        }
        FT_CHECKSUM => RouterFault::ChecksumMismatch { seq: r.u32()? },
        FT_INCOMPLETE => {
            let (received, total) = two(r)?;
            RouterFault::Incomplete { received, total }
        }
        FT_AT_LEVEL => {
            let level = r.u8()?;
            let aggregator_id = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(FrameError::Malformed("bad aggregator-id presence byte")),
            };
            RouterFault::AtLevel {
                level,
                aggregator_id,
                fault: Box::new(decode_fault(r, depth + 1)?),
            }
        }
        _ => return Err(FrameError::Malformed("unknown fault tag")),
    })
}

/// A regional aggregator for one epoch: an [`EpochCollector`] over its
/// child routers whose collected epoch ships up as one
/// [`AggregateBundle`] for the tier above.
///
/// Like the collector it wraps, an aggregator is per-epoch: open one per
/// epoch with [`Aggregator::new`], drive it with
/// [`offer`](Aggregator::offer)/[`poll`](Aggregator::poll) like a
/// collector, and [`finalize`](Aggregator::finalize) at
/// [`ready`](Aggregator::ready).
#[derive(Debug)]
pub struct Aggregator {
    id: u64,
    level: u8,
    /// Children in router-id order — the collector's session order, so
    /// `children[exclusion.index]` is the excluded child.
    children: Vec<u64>,
    collector: EpochCollector,
}

impl Aggregator {
    /// Opens an aggregator for `epoch_id` expecting one digest bundle
    /// from each of `children`. `level` is this tier's height above the
    /// leaves (the first aggregation tier is 1); `cfg`, `seed` and `now`
    /// are the wrapped collector's.
    pub fn new(
        id: u64,
        level: u8,
        epoch_id: u64,
        children: impl IntoIterator<Item = u64>,
        cfg: CollectorConfig,
        seed: u64,
        now: u64,
    ) -> Self {
        let mut children: Vec<u64> = children.into_iter().collect();
        children.sort_unstable();
        children.dedup();
        assert!(
            children.len() <= MAX_AGGREGATE_CHILDREN as usize,
            "aggregator children over cap"
        );
        let collector = EpochCollector::new(epoch_id, children.iter().copied(), cfg, seed, now);
        Aggregator {
            id,
            level,
            children,
            collector,
        }
    }

    /// This aggregator's id (its router id on the hop above).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This tier's height above the leaves.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The expected children, in router-id order.
    pub fn children(&self) -> &[u64] {
        &self.children
    }

    /// Offers one child chunk frame (see [`EpochCollector::offer`]).
    pub fn offer(&mut self, frame: &[u8], now: u64) -> ChunkDisposition {
        self.collector.offer(frame, now)
    }

    /// Fires due retransmit timers (see [`EpochCollector::poll`]).
    pub fn poll(&mut self, now: u64) -> Vec<RetransmitRequest> {
        self.collector.poll(now)
    }

    /// Answers one batch of child frames (see [`EpochCollector::answer`]).
    pub fn answer(&mut self, frames: &[Vec<u8>], now: u64) -> Vec<ControlFrame> {
        self.collector.answer(frames, now)
    }

    /// Whether the straggler policy says to stop waiting.
    pub fn ready(&self, now: u64) -> bool {
        self.collector.ready(now)
    }

    /// The wrapped collector's absolute deadline tick.
    pub fn deadline(&self) -> u64 {
        self.collector.deadline()
    }

    /// Child-hop delivery accounting so far.
    pub fn stats(&self) -> TransportStats {
        self.collector.stats()
    }

    /// Finalizes the child hop and assembles the epoch into one
    /// [`AggregateBundle`] (see [`AggregateBundle::assemble`]):
    /// transport-lost children become typed exclusions, reassembled
    /// frames embed verbatim. Records `aggregate_fuse_ns{level}` (the
    /// span of this call), `aggregate_children_per_bundle`,
    /// `aggregate_forwarded_bytes_total` and
    /// `aggregate_children_excluded_total{fault}` into `metrics`.
    pub fn finalize(&mut self, now: u64, metrics: &MetricsRegistry) -> AggregateBundle {
        let t0 = Instant::now();
        let epoch = self.collector.finalize(now);
        let frames: Vec<(u64, Vec<u8>)> = epoch
            .frames
            .into_iter()
            .map(|(index, bytes)| (self.children[index], bytes))
            .collect();
        let exclusions: Vec<ChildExclusion> = epoch
            .exclusions
            .into_iter()
            .map(|e| ChildExclusion {
                router_id: e.router_id.map_or(self.children[e.index], |r| r as u64),
                fault: e.fault,
            })
            .collect();
        let bundle = AggregateBundle::assemble(
            self.id,
            self.collector.epoch_id(),
            self.level,
            frames,
            exclusions,
        );
        let level = [("level", level_label(self.level))];
        metrics
            .gauge("aggregate_fuse_ns", &level)
            .set((t0.elapsed().as_nanos() as u64).max(1));
        metrics
            .gauge("aggregate_children_per_bundle", &level)
            .set(bundle.leaves() as u64);
        metrics
            .counter("aggregate_forwarded_bytes_total", &level)
            .add(bundle.encoded_len() as u64);
        for e in &bundle.exclusions {
            metrics
                .counter(
                    "aggregate_children_excluded_total",
                    &[("fault", e.fault.kind())],
                )
                .inc();
        }
        bundle
    }
}

/// Stable label for an aggregation level (bounded cardinality).
pub(crate) fn level_label(level: u8) -> &'static str {
    match level {
        0 => "0",
        1 => "1",
        2 => "2",
        3 => "3",
        _ => "4+",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{MonitorConfig, MonitoringPoint};
    use crate::session::StragglerPolicy;
    use crate::transport::chunk_bundle;
    use dcs_hash::crc32::crc32;
    use dcs_traffic::{gen, BackgroundConfig, SizeMix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn leaf_frame(seed: u64, id: usize, bits: usize) -> Vec<u8> {
        let mut r = StdRng::seed_from_u64(seed);
        let cfg = MonitorConfig::small(7, bits, 4);
        let mut mp = MonitoringPoint::new(id, &cfg);
        let pkts = gen::generate_epoch(
            &mut r,
            &BackgroundConfig {
                packets: 200,
                flows: 50,
                zipf_exponent: 1.0,
                size_mix: SizeMix::constant(536),
            },
        );
        mp.observe_all(&pkts);
        mp.finish_epoch()
            .encode_wire()
            .expect("bundle fits the wire format")
            .to_vec()
    }

    fn timed_out(router_id: u64) -> ChildExclusion {
        ChildExclusion {
            router_id,
            fault: RouterFault::TimedOut {
                received: 1,
                total: 4,
            },
        }
    }

    fn sample_bundle() -> AggregateBundle {
        let frames: Vec<(u64, Vec<u8>)> = (0..3)
            .map(|id| (id, leaf_frame(40 + id, id as usize, 1 << 10)))
            .collect();
        AggregateBundle::assemble(77, 5, 1, frames, vec![timed_out(9)])
    }

    /// Encodes `bundle`, checks `encoded_len` and the round trip, and
    /// returns the wire bytes.
    fn roundtrip(bundle: &AggregateBundle) -> Vec<u8> {
        let wire = bundle.encode_wire();
        assert_eq!(wire.len(), bundle.encoded_len());
        let (back, used) = AggregateBundle::decode_wire(&wire).expect("roundtrip");
        assert_eq!(used, wire.len());
        assert_eq!(&back, bundle);
        wire
    }

    #[test]
    fn assemble_flattens_nested_bundles_into_leaf_accounting() {
        // Two level-1 aggregators over disjoint leaf sets, one with a
        // timed-out leaf, feed a level-2 aggregator alongside one direct
        // leaf. The level-2 bundle must account in leaves, not bundles.
        let leaves_a: Vec<(u64, Vec<u8>)> = (0..3)
            .map(|id| (id, leaf_frame(40 + id, id as usize, 1 << 10)))
            .collect();
        let leaves_b: Vec<(u64, Vec<u8>)> = (3..5)
            .map(|id| (id, leaf_frame(40 + id, id as usize, 1 << 10)))
            .collect();
        let mut expected_frames: Vec<Vec<u8>> = leaves_a.iter().map(|(_, f)| f.clone()).collect();
        expected_frames.extend(leaves_b.iter().map(|(_, f)| f.clone()));
        let direct = leaf_frame(99, 6, 1 << 10);
        expected_frames.push(direct.clone());

        let l1_a = AggregateBundle::assemble(100, 5, 1, leaves_a, Vec::new());
        let l1_b = AggregateBundle::assemble(101, 5, 1, leaves_b, vec![timed_out(5)]);
        let l2 = AggregateBundle::assemble(
            200,
            5,
            2,
            vec![
                (100, roundtrip(&l1_a)),
                (101, roundtrip(&l1_b)),
                (6, direct),
            ],
            Vec::new(),
        );

        assert_eq!(l2.frames, expected_frames, "leaf frames splice verbatim");
        assert_eq!(l2.leaves(), 7, "6 delivered leaves + 1 exclusion");
        // The excluded leaf's fault gained one AtLevel wrapper recording
        // which aggregator lost it.
        assert_eq!(l2.exclusions.len(), 1);
        assert_eq!(l2.exclusions[0].router_id, 5);
        match &l2.exclusions[0].fault {
            RouterFault::AtLevel {
                level,
                aggregator_id,
                fault,
            } => {
                assert_eq!(*level, 1);
                assert_eq!(*aggregator_id, Some(101));
                assert!(matches!(**fault, RouterFault::TimedOut { .. }));
            }
            other => panic!("expected AtLevel wrapper, got {other:?}"),
        }
        // And the flattened bundle still round-trips the wire format.
        roundtrip(&l2);
    }

    #[test]
    fn nested_bundles_past_the_child_cap_become_one_exclusion() {
        // Two level-1 bundles of 2,100 lost leaves each are within the
        // cap apiece, but splicing both would carry 4,200 exclusions.
        let lost = |agg: u64| {
            let excl = (0..2100).map(|r| timed_out(agg * 10_000 + r)).collect();
            AggregateBundle::assemble(agg, 0, 1, Vec::new(), excl).encode_wire()
        };
        let l2 = AggregateBundle::assemble(200, 0, 2, vec![(1, lost(1)), (2, lost(2))], Vec::new());
        assert_eq!(l2.exclusions.len(), 2101, "first spliced, second one slot");
        assert_eq!(l2.leaves(), 2101);
        let last = l2.exclusions.last().unwrap();
        assert_eq!(last.router_id, 2);
        assert!(matches!(
            &last.fault,
            RouterFault::AtLevel {
                level: 1,
                aggregator_id: Some(2),
                fault,
            } if matches!(**fault, RouterFault::Wire(_))
        ));
        roundtrip(&l2);

        // The same pair reaches `encode_wire` through a real aggregator.
        let ccfg = CollectorConfig {
            deadline: 100,
            straggler: StragglerPolicy::Deadline,
            ..Default::default()
        };
        let mut agg = Aggregator::new(200, 2, 0, [1, 2], ccfg, 1, 0);
        for child in [1u64, 2] {
            for chunk in chunk_bundle(child, 0, &lost(child), 4096) {
                agg.offer(&chunk, 0);
            }
        }
        let bundle = agg.finalize(100, &MetricsRegistry::new());
        assert_eq!(bundle.leaves(), 2101);
        roundtrip(&bundle);
    }

    #[test]
    fn assemble_excludes_unparseable_and_forwards_every_width() {
        let good = leaf_frame(50, 0, 1 << 10);
        let wide = leaf_frame(51, 1, 1 << 12);
        let garbage = vec![0xEE; 64];
        let bundle = AggregateBundle::assemble(
            3,
            0,
            1,
            vec![(0, good.clone()), (1, wide.clone()), (2, garbage)],
            Vec::new(),
        );
        // The garbage frame is dropped with a wire fault; the
        // mismatched-width frame is forwarded for the centre's vote.
        assert_eq!(bundle.frames, vec![good, wide]);
        assert_eq!(bundle.exclusions.len(), 1);
        assert_eq!(bundle.exclusions[0].router_id, 2);
        assert!(matches!(bundle.exclusions[0].fault, RouterFault::Wire(_)));
        assert_eq!(bundle.leaves(), 3);
        roundtrip(&bundle);
    }

    #[test]
    fn bundle_wire_roundtrip() {
        let bundle = sample_bundle();
        roundtrip(&bundle);
        // A nested AtLevel fault survives the fault codec too.
        let mut nested = bundle.clone();
        nested.exclusions.push(ChildExclusion {
            router_id: 11,
            fault: RouterFault::AtLevel {
                level: 2,
                aggregator_id: None,
                fault: Box::new(RouterFault::Wire("труба".into())),
            },
        });
        roundtrip(&nested);
    }

    #[test]
    fn minimum_bundle_roundtrips_and_one_byte_less_is_rejected() {
        let empty = AggregateBundle::assemble(1, 2, 1, Vec::new(), Vec::new());
        let wire = roundtrip(&empty);
        assert_eq!(wire.len(), AGGREGATE_HEADER + 2 * 4 + 4);
        assert_eq!(
            AggregateBundle::decode_wire(&wire[..wire.len() - 1]),
            Err(FrameError::Truncated)
        );
        // The same frame re-sealed one byte shorter: a CRC-valid frame
        // whose declared length cannot hold both counts.
        let mut short = wire[..wire.len() - 5].to_vec();
        short[22..26].copy_from_slice(&(wire.len() as u32 - 1).to_le_bytes());
        let crc = crc32(&short);
        short.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            AggregateBundle::decode_wire(&short),
            Err(FrameError::Malformed("declared length below minimum"))
        );
    }

    #[test]
    fn bundle_wire_rejects_corruption_without_panicking() {
        let wire = sample_bundle().encode_wire();
        for cut in 0..wire.len() {
            assert!(
                AggregateBundle::decode_wire(&wire[..cut]).is_err(),
                "strict prefix of {cut} bytes decoded"
            );
        }
        for byte in (0..wire.len()).step_by(11) {
            let mut bad = wire.clone();
            bad[byte] ^= 0x20;
            assert!(
                AggregateBundle::decode_wire(&bad).is_err(),
                "bit flip at {byte} decoded"
            );
        }
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(matches!(
            AggregateBundle::decode_wire(&bad),
            Err(FrameError::BadMagic(_))
        ));
        // The fused layouts of versions 1 and 2 fail typed, as does any
        // other version byte.
        for version in [1, 2, 9] {
            let mut bad = wire.clone();
            bad[4] = version;
            assert_eq!(
                AggregateBundle::decode_wire(&bad),
                Err(FrameError::BadVersion(version))
            );
        }
    }

    #[test]
    fn aggregator_collects_children_and_reports_losses() {
        let ccfg = CollectorConfig {
            deadline: 100,
            straggler: StragglerPolicy::Deadline,
            ..Default::default()
        };
        let metrics = MetricsRegistry::new();
        let mut agg = Aggregator::new(500, 1, 0, [10, 11, 12], ccfg, 1, 0);
        assert_eq!(agg.children(), &[10, 11, 12]);
        for child in [10u64, 11] {
            let frame = leaf_frame(60 + child, child as usize, 1 << 10);
            for chunk in chunk_bundle(child, 0, &frame, 256) {
                assert!(matches!(
                    agg.offer(&chunk, 0),
                    ChunkDisposition::Accepted { .. }
                ));
            }
        }
        // Child 12 stays silent; the deadline expires.
        assert!(!agg.ready(50));
        assert!(agg.ready(100));
        let bundle = agg.finalize(100, &metrics);
        assert_eq!(bundle.aggregator_id, 500);
        assert_eq!(bundle.level, 1);
        assert_eq!(bundle.frames.len(), 2);
        assert_eq!(bundle.exclusions.len(), 1);
        assert_eq!(bundle.exclusions[0].router_id, 12);
        assert!(matches!(
            bundle.exclusions[0].fault,
            RouterFault::TimedOut { .. }
        ));
        roundtrip(&bundle);
        let snap = metrics.snapshot();
        assert!(snap.gauge("aggregate_fuse_ns{level=1}") >= Some(1));
        assert_eq!(
            snap.gauge("aggregate_children_per_bundle{level=1}"),
            Some(3)
        );
        assert_eq!(
            snap.counter("aggregate_children_excluded_total{fault=timed_out}"),
            Some(1)
        );
        assert_eq!(
            snap.counter("aggregate_forwarded_bytes_total{level=1}"),
            Some(bundle.encoded_len() as u64)
        );
    }
}
