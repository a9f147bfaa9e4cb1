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
//! then **pre-fuses** what arrived: the accepted children's aligned
//! bitmaps are OR-fused into one bitmap with a per-child popcount
//! *weight sidecar* (the occupancy evidence a two-tier screen needs),
//! while the child DCSR frames themselves are embedded **verbatim** in
//! the [`AggregateBundle`]. Verbatim embedding is the detection-
//! equivalence guarantee: the centre parses exactly the bytes a flat
//! deployment would have shipped it, so the fused matrices — and
//! therefore every detection verdict — are byte-identical to flat
//! ingest by construction (see DESIGN.md §10).
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
use crate::session::{ChunkDisposition, CollectorConfig, EpochCollector, RetransmitRequest};
use dcs_bitmap::{Bitmap, WordSource};
use dcs_collect::{artifact, Artifact, MAX_ARTIFACT_PAYLOAD};
use dcs_hash::crc32::crc32;
use dcs_obs::MetricsRegistry;
use dcs_sketch::{decode_sketch, SketchWire};
use std::fmt;
use std::time::Instant;

/// Magic for aggregate bundle frames (`b"DCSG"`).
pub const AGGREGATE_MAGIC: [u8; 4] = *b"DCSG";

/// Pre-artifact aggregate bundle version.
pub const AGGREGATE_VERSION: u8 = 1;

/// Artifact-bearing aggregate bundles: v1 layout plus a sidecar
/// artifact section between the exclusions and the CRC trailer.
/// Emitted only when the section is non-empty, so artifact-free
/// bundles stay byte-identical to v1.
pub const AGGREGATE_VERSION_V2: u8 = 2;

/// Fixed header bytes: magic + version + aggregator id + epoch id +
/// level + total frame length.
pub const AGGREGATE_HEADER: usize = 4 + 1 + 8 + 8 + 1 + 4;

/// Hard cap on children per bundle (weights, embedded frames and
/// exclusions each): a hostile count cannot reserve more slots.
pub const MAX_AGGREGATE_CHILDREN: u32 = 4096;

/// Hard cap on the fused bitmap width in bits.
pub const MAX_FUSED_BITS: u32 = 1 << 27;

/// Hard cap on one embedded child frame's length.
pub const MAX_CHILD_FRAME: usize = 1 << 26;

/// Cap on an encoded fault's embedded string (wire-error text).
const MAX_FAULT_STRING: usize = 1024;

/// Cap on [`RouterFault::AtLevel`] nesting in the fault encoding.
const MAX_FAULT_DEPTH: usize = 4;

/// Errors from decoding aggregate bundle frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateError {
    /// Buffer too short for the declared structure.
    Truncated,
    /// Unexpected magic bytes.
    BadMagic([u8; 4]),
    /// Unsupported bundle version.
    BadVersion(u8),
    /// The CRC-32 trailer disagrees with the frame bytes.
    ChecksumMismatch {
        /// Checksum carried in the trailer.
        declared: u32,
        /// Checksum of the bytes as received.
        computed: u32,
    },
    /// Structurally impossible field (count or length beyond its cap or
    /// the remaining buffer).
    Malformed(&'static str),
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateError::Truncated => write!(f, "aggregate bundle truncated"),
            AggregateError::BadMagic(m) => write!(f, "bad aggregate magic {m:02x?}"),
            AggregateError::BadVersion(v) => write!(f, "unsupported aggregate version {v}"),
            AggregateError::ChecksumMismatch { declared, computed } => write!(
                f,
                "aggregate checksum mismatch: trailer {declared:#010x}, computed {computed:#010x}"
            ),
            AggregateError::Malformed(what) => write!(f, "malformed aggregate bundle: {what}"),
        }
    }
}

impl std::error::Error for AggregateError {}

/// One fused child's aligned popcount — the weight sidecar entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildWeight {
    /// The child router.
    pub router_id: u64,
    /// Number of 1's the child contributed to the OR-fused bitmap.
    pub weight: u32,
}

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

/// One aggregator's pre-fused epoch: embedded child DCSR frames
/// (verbatim), the OR-fused aligned bitmap with its per-child weight
/// sidecar, and the children lost below this level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateBundle {
    /// The shipping aggregator.
    pub aggregator_id: u64,
    /// The epoch this bundle covers.
    pub epoch_id: u64,
    /// Aggregation tier (first tier above the leaves = 1).
    pub level: u8,
    /// OR of the parseable children's aligned bitmaps. Width is the
    /// first parseable child's; children of another width are still
    /// forwarded but not fused (the centre's consensus vote decides).
    /// Empty when no child parsed.
    pub fused: Bitmap,
    /// Per fused child: its aligned popcount, in embed order.
    pub child_weights: Vec<ChildWeight>,
    /// The accepted children's DCSR wire frames, verbatim.
    pub frames: Vec<Vec<u8>>,
    /// Children this aggregator could not deliver.
    pub exclusions: Vec<ChildExclusion>,
    /// Sidecar artifacts at this tier — one merged `DCSS` sketch when
    /// any fused child shipped one (empty on pre-artifact bundles).
    pub artifacts: Vec<Artifact>,
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
    /// Frames that fail [`RouterDigestView::parse`] become
    /// [`RouterFault::Wire`] exclusions and are **not** forwarded (they
    /// cannot parse at the centre either — dropping them here is the
    /// bandwidth the tier saves). A child frame that is itself a DCSG
    /// bundle (a lower-level aggregator) is flattened: its leaf frames,
    /// weights and fused bitmap merge into this bundle, and its
    /// exclusions are re-wrapped one level deeper in
    /// [`RouterFault::AtLevel`]. Parseable leaf frames are embedded
    /// verbatim; those matching the first child's aligned width are
    /// OR-fused into [`AggregateBundle::fused`] with a weight-sidecar
    /// entry each.
    pub fn assemble(
        aggregator_id: u64,
        epoch_id: u64,
        level: u8,
        child_frames: Vec<(u64, Vec<u8>)>,
        mut exclusions: Vec<ChildExclusion>,
    ) -> AggregateBundle {
        let mut fused = Bitmap::new(0);
        let mut child_weights: Vec<ChildWeight> = Vec::new();
        let mut frames = Vec::with_capacity(child_frames.len());
        let mut sketch_payloads: Vec<Vec<u8>> = Vec::new();
        for (router_id, bytes) in child_frames {
            // A child that is itself an aggregator ships a nested DCSG
            // bundle; flatten it so the upstream tier (and ultimately the
            // centre) keeps accounting in *leaves*. The nested bundle's
            // leaf frames are spliced in verbatim, its pre-fused bitmap
            // is OR-merged, its leaf weights carry over, and each of its
            // exclusions is re-wrapped in [`RouterFault::AtLevel`] so
            // the fault's full path through the tree survives the hop.
            if bytes.len() >= 4 && bytes[..4] == AGGREGATE_MAGIC {
                match AggregateBundle::decode_wire(&bytes) {
                    Err(e) => exclusions.push(ChildExclusion {
                        router_id,
                        fault: RouterFault::Wire(e.to_string()),
                    }),
                    Ok((nested, _)) => {
                        if let Some(p) = nested.sketch_payload() {
                            sketch_payloads.push(p.to_vec());
                        }
                        if !nested.child_weights.is_empty() {
                            if child_weights.is_empty() {
                                fused = nested.fused;
                                child_weights = nested.child_weights;
                            } else if nested.fused.len() == fused.len() {
                                fused.or_assign(&nested.fused);
                                child_weights.extend(nested.child_weights);
                            }
                            // Width mismatch: leaf frames still forward;
                            // the centre's consensus vote decides.
                        }
                        frames.extend(nested.frames);
                        exclusions.extend(nested.exclusions.into_iter().map(|e| ChildExclusion {
                            router_id: e.router_id,
                            fault: RouterFault::AtLevel {
                                level: nested.level,
                                aggregator_id: Some(nested.aggregator_id),
                                fault: Box::new(e.fault),
                            },
                        }));
                    }
                }
                continue;
            }
            match RouterDigestView::parse(&bytes) {
                Err(e) => exclusions.push(ChildExclusion {
                    router_id,
                    fault: RouterFault::Wire(e.to_string()),
                }),
                Ok((view, _)) => {
                    let bm = view.aligned.bitmap;
                    if child_weights.is_empty() || bm.bit_len() == fused.len() {
                        let child = bm.to_bitmap();
                        let weight = child.weight();
                        if child_weights.is_empty() {
                            fused = child;
                        } else {
                            fused.or_assign(&child);
                        }
                        child_weights.push(ChildWeight { router_id, weight });
                    }
                    if let Some(p) = view.sketch_payload() {
                        sketch_payloads.push(p.to_vec());
                    }
                    frames.push(bytes);
                }
            }
        }
        let artifacts = merge_sketch_payloads(&sketch_payloads)
            .map(|payload| vec![Artifact::sketch(payload)])
            .unwrap_or_default();
        AggregateBundle {
            aggregator_id,
            epoch_id,
            level,
            fused,
            child_weights,
            frames,
            exclusions,
            artifacts,
        }
    }

    /// The first `DCSS` sketch artifact payload, if any.
    pub fn sketch_payload(&self) -> Option<&[u8]> {
        self.artifacts
            .iter()
            .find(|a| a.kind == dcs_collect::ARTIFACT_KIND_SKETCH)
            .map(|a| &a.payload[..])
    }

    /// Exact length [`Self::encode_wire`] will produce, in bytes.
    pub fn encoded_len(&self) -> usize {
        AGGREGATE_HEADER
            + 4
            + self.fused.words().len() * 8
            + 4
            + self.child_weights.len() * 12
            + 4
            + self.frames.iter().map(|f| 4 + f.len()).sum::<usize>()
            + 4
            + self
                .exclusions
                .iter()
                .map(|e| 8 + fault_encoded_len(&e.fault))
                .sum::<usize>()
            + artifact::section_len(&self.artifacts)
            + 4
    }

    /// Encodes the bundle as one CRC-trailed wire frame.
    ///
    /// # Panics
    /// Panics if a count or length exceeds its hard cap
    /// ([`MAX_AGGREGATE_CHILDREN`], [`MAX_FUSED_BITS`],
    /// [`MAX_CHILD_FRAME`]) — [`Self::assemble`] never builds such a
    /// bundle from in-cap inputs.
    pub fn encode_wire(&self) -> Vec<u8> {
        assert!(
            self.child_weights.len() <= MAX_AGGREGATE_CHILDREN as usize
                && self.frames.len() <= MAX_AGGREGATE_CHILDREN as usize
                && self.exclusions.len() <= MAX_AGGREGATE_CHILDREN as usize,
            "aggregate child count over cap"
        );
        assert!(
            self.fused.len() <= MAX_FUSED_BITS as usize,
            "fused bitmap over cap"
        );
        let total = self.encoded_len();
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(&AGGREGATE_MAGIC);
        buf.push(if self.artifacts.is_empty() {
            AGGREGATE_VERSION
        } else {
            AGGREGATE_VERSION_V2
        });
        buf.extend_from_slice(&self.aggregator_id.to_le_bytes());
        buf.extend_from_slice(&self.epoch_id.to_le_bytes());
        buf.push(self.level);
        buf.extend_from_slice(&(total as u32).to_le_bytes());
        buf.extend_from_slice(&(self.fused.len() as u32).to_le_bytes());
        for w in self.fused.words() {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf.extend_from_slice(&(self.child_weights.len() as u32).to_le_bytes());
        for cw in &self.child_weights {
            buf.extend_from_slice(&cw.router_id.to_le_bytes());
            buf.extend_from_slice(&cw.weight.to_le_bytes());
        }
        buf.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        for f in &self.frames {
            assert!(f.len() <= MAX_CHILD_FRAME, "child frame over cap");
            buf.extend_from_slice(&(f.len() as u32).to_le_bytes());
            buf.extend_from_slice(f);
        }
        buf.extend_from_slice(&(self.exclusions.len() as u32).to_le_bytes());
        for e in &self.exclusions {
            buf.extend_from_slice(&e.router_id.to_le_bytes());
            encode_fault(&mut buf, &e.fault, 0);
        }
        if !self.artifacts.is_empty() {
            let mut section =
                bytes::BytesMut::with_capacity(artifact::section_len(&self.artifacts));
            artifact::encode_section(&self.artifacts, &mut section)
                .expect("assemble never builds an over-cap artifact section");
            buf.extend_from_slice(&section);
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(buf.len(), total, "encoded_len out of sync");
        buf
    }

    /// Decodes a frame produced by [`Self::encode_wire`] from the front
    /// of `buf`, returning the bundle and the bytes consumed. Never
    /// panics on arbitrary input — every declared count and length is
    /// checked against its cap and the remaining buffer before any
    /// allocation, and the CRC-32 trailer is verified before the body is
    /// parsed.
    pub fn decode_wire(buf: &[u8]) -> Result<(AggregateBundle, usize), AggregateError> {
        if buf.len() < AGGREGATE_HEADER {
            return Err(AggregateError::Truncated);
        }
        if buf[..4] != AGGREGATE_MAGIC {
            let mut m = [0u8; 4];
            m.copy_from_slice(&buf[..4]);
            return Err(AggregateError::BadMagic(m));
        }
        let version = buf[4];
        if version != AGGREGATE_VERSION && version != AGGREGATE_VERSION_V2 {
            return Err(AggregateError::BadVersion(version));
        }
        let aggregator_id = u64::from_le_bytes(buf[5..13].try_into().expect("8-byte slice"));
        let epoch_id = u64::from_le_bytes(buf[13..21].try_into().expect("8-byte slice"));
        let level = buf[21];
        let total = u32::from_le_bytes(buf[22..26].try_into().expect("4-byte slice")) as usize;
        if total < AGGREGATE_HEADER + 4 * 4 + 4 {
            return Err(AggregateError::Malformed("declared length below minimum"));
        }
        if total > buf.len() {
            return Err(AggregateError::Truncated);
        }
        let body = &buf[..total - 4];
        let declared = u32::from_le_bytes(buf[total - 4..total].try_into().expect("4-byte slice"));
        let computed = crc32(body);
        if declared != computed {
            return Err(AggregateError::ChecksumMismatch { declared, computed });
        }

        let mut off = AGGREGATE_HEADER;
        let get_u32 = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4-byte slice"));
        let get_u64 = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8-byte slice"));

        let fused_bits = get_u32(take(body, &mut off, 4)?);
        if fused_bits > MAX_FUSED_BITS {
            return Err(AggregateError::Malformed("fused bitmap over cap"));
        }
        let fused_bits = fused_bits as usize;
        let nwords = fused_bits.div_ceil(64);
        let word_bytes = take(body, &mut off, nwords * 8)?;
        let words: Vec<u64> = word_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte slice")))
            .collect();
        // `Bitmap::from_words` asserts a clean tail; pre-check so hostile
        // input fails typed instead of panicking.
        if !fused_bits.is_multiple_of(64) {
            let tail_mask = (1u64 << (fused_bits % 64)) - 1;
            if words.last().is_some_and(|w| w & !tail_mask != 0) {
                return Err(AggregateError::Malformed("bits set past fused width"));
            }
        }
        let fused = Bitmap::from_words(fused_bits, words);

        let n_weights = get_u32(take(body, &mut off, 4)?);
        if n_weights > MAX_AGGREGATE_CHILDREN {
            return Err(AggregateError::Malformed("weight count over cap"));
        }
        if (n_weights as usize).saturating_mul(12) > body.len() - off {
            return Err(AggregateError::Malformed("weight count beyond buffer"));
        }
        let mut child_weights = Vec::with_capacity(n_weights as usize);
        for _ in 0..n_weights {
            child_weights.push(ChildWeight {
                router_id: get_u64(take(body, &mut off, 8)?),
                weight: get_u32(take(body, &mut off, 4)?),
            });
        }

        let n_frames = get_u32(take(body, &mut off, 4)?);
        if n_frames > MAX_AGGREGATE_CHILDREN {
            return Err(AggregateError::Malformed("frame count over cap"));
        }
        if (n_frames as usize).saturating_mul(4) > body.len() - off {
            return Err(AggregateError::Malformed("frame count beyond buffer"));
        }
        let mut frames = Vec::with_capacity(n_frames as usize);
        for _ in 0..n_frames {
            let len = get_u32(take(body, &mut off, 4)?) as usize;
            if len > MAX_CHILD_FRAME {
                return Err(AggregateError::Malformed("child frame over cap"));
            }
            frames.push(take(body, &mut off, len)?.to_vec());
        }

        let n_excl = get_u32(take(body, &mut off, 4)?);
        if n_excl > MAX_AGGREGATE_CHILDREN {
            return Err(AggregateError::Malformed("exclusion count over cap"));
        }
        if (n_excl as usize).saturating_mul(9) > body.len() - off {
            return Err(AggregateError::Malformed("exclusion count beyond buffer"));
        }
        let mut exclusions = Vec::with_capacity(n_excl as usize);
        for _ in 0..n_excl {
            let router_id = get_u64(take(body, &mut off, 8)?);
            let fault = decode_fault(body, &mut off, 0)?;
            exclusions.push(ChildExclusion { router_id, fault });
        }
        let mut artifacts = Vec::new();
        if version == AGGREGATE_VERSION_V2 {
            let mut cursor = &body[off..];
            let before = cursor.len();
            artifacts = artifact::decode_section(&mut cursor)
                .map_err(|_| AggregateError::Malformed("bad artifact section"))?;
            off += before - cursor.len();
        }
        if off != body.len() {
            return Err(AggregateError::Malformed("trailing bytes"));
        }
        Ok((
            AggregateBundle {
                aggregator_id,
                epoch_id,
                level,
                fused,
                child_weights,
                frames,
                exclusions,
                artifacts,
            },
            total,
        ))
    }
}

/// Merges the child `DCSS` payloads that agree with the first
/// decodable one's kind, domain and shape into one re-encoded payload.
/// Children with no sketch, an undecodable payload, or an incompatible
/// shape are skipped — their digests still forward verbatim, so
/// skipping only widens the sketch's error bound, never the detection
/// set. Returns `None` when nothing merged or the merged payload would
/// not fit an artifact slot.
fn merge_sketch_payloads(payloads: &[Vec<u8>]) -> Option<Vec<u8>> {
    let mut acc: Option<SketchWire> = None;
    for p in payloads {
        let Ok(wire) = decode_sketch(p) else { continue };
        match (&mut acc, wire) {
            (None, wire) => acc = Some(wire),
            (
                Some(SketchWire::SpaceSaving { domain, sketch }),
                SketchWire::SpaceSaving {
                    domain: d2,
                    sketch: s2,
                },
            ) if *domain == d2 && sketch.cap() == s2.cap() => sketch.merge(&s2),
            (
                Some(SketchWire::Distinct { domain, sketch }),
                SketchWire::Distinct {
                    domain: d2,
                    sketch: s2,
                },
            ) if *domain == d2
                && sketch.cap() == s2.cap()
                && sketch.kmv_size() == s2.kmv_size() =>
            {
                sketch.merge(&s2)
            }
            _ => {}
        }
    }
    let encoded = match acc? {
        SketchWire::SpaceSaving { domain, sketch } => {
            dcs_sketch::wire::encode_space_saving(&sketch, domain)
        }
        SketchWire::Distinct { domain, sketch } => {
            dcs_sketch::wire::encode_distinct(&sketch, domain)
        }
    };
    (encoded.len() <= MAX_ARTIFACT_PAYLOAD).then_some(encoded)
}

fn take<'b>(body: &'b [u8], off: &mut usize, n: usize) -> Result<&'b [u8], AggregateError> {
    if n > body.len() - *off {
        return Err(AggregateError::Truncated);
    }
    let s = &body[*off..*off + n];
    *off += n;
    Ok(s)
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
        buf.push(tag);
        buf.extend_from_slice(&a.to_le_bytes());
        buf.extend_from_slice(&b.to_le_bytes());
    };
    match fault {
        RouterFault::Wire(e) => {
            let s = clip_fault_string(e);
            buf.push(FT_WIRE);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        RouterFault::DuplicateRouter { first_index } => {
            buf.push(FT_DUPLICATE);
            buf.extend_from_slice(&(*first_index as u64).to_le_bytes());
        }
        RouterFault::EmptyUnaligned => buf.push(FT_EMPTY_UNALIGNED),
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
            buf.push(FT_CHECKSUM);
            buf.extend_from_slice(&seq.to_le_bytes());
        }
        RouterFault::Incomplete { received, total } => {
            two(buf, FT_INCOMPLETE, *received as u64, *total as u64)
        }
        RouterFault::AtLevel {
            level,
            aggregator_id,
            fault,
        } => {
            buf.push(FT_AT_LEVEL);
            buf.push(*level);
            match aggregator_id {
                Some(agg) => {
                    buf.push(1);
                    buf.extend_from_slice(&agg.to_le_bytes());
                }
                None => buf.push(0),
            }
            encode_fault(buf, fault, depth + 1);
        }
    }
}

fn decode_fault(body: &[u8], off: &mut usize, depth: usize) -> Result<RouterFault, AggregateError> {
    if depth >= MAX_FAULT_DEPTH {
        return Err(AggregateError::Malformed("fault nesting over cap"));
    }
    let get_u32 = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4-byte slice"));
    let get_u64 = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8-byte slice"));
    let tag = take(body, off, 1)?[0];
    let two = |off: &mut usize| -> Result<(u64, u64), AggregateError> {
        let a = get_u64(take(body, off, 8)?);
        let b = get_u64(take(body, off, 8)?);
        Ok((a, b))
    };
    let as_usize = |v: u64| {
        usize::try_from(v).map_err(|_| AggregateError::Malformed("fault field exceeds usize"))
    };
    Ok(match tag {
        FT_WIRE => {
            let len = get_u32(take(body, off, 4)?) as usize;
            if len > MAX_FAULT_STRING {
                return Err(AggregateError::Malformed("fault string over cap"));
            }
            let s = std::str::from_utf8(take(body, off, len)?)
                .map_err(|_| AggregateError::Malformed("fault string not UTF-8"))?;
            RouterFault::Wire(s.to_string())
        }
        FT_DUPLICATE => RouterFault::DuplicateRouter {
            first_index: as_usize(get_u64(take(body, off, 8)?))?,
        },
        FT_EMPTY_UNALIGNED => RouterFault::EmptyUnaligned,
        FT_GROUP_LAYOUT => {
            let (a, b) = two(off)?;
            RouterFault::GroupLayout {
                arrays: as_usize(a)?,
                arrays_per_group: as_usize(b)?,
            }
        }
        FT_ALIGNED_WIDTH => {
            let (a, b) = two(off)?;
            RouterFault::AlignedWidth {
                expected: as_usize(a)?,
                got: as_usize(b)?,
            }
        }
        FT_ARRAYS_PER_GROUP => {
            let (a, b) = two(off)?;
            RouterFault::ArraysPerGroup {
                expected: as_usize(a)?,
                got: as_usize(b)?,
            }
        }
        FT_ARRAY_WIDTH => {
            let (a, b) = two(off)?;
            RouterFault::ArrayWidth {
                expected: as_usize(a)?,
                got: as_usize(b)?,
            }
        }
        FT_EPOCH_DESYNC => {
            let (expected, got) = two(off)?;
            RouterFault::EpochDesync { expected, got }
        }
        FT_TIMED_OUT => {
            let (a, b) = two(off)?;
            RouterFault::TimedOut {
                received: as_usize(a)?,
                total: as_usize(b)?,
            }
        }
        FT_CHECKSUM => RouterFault::ChecksumMismatch {
            seq: get_u32(take(body, off, 4)?),
        },
        FT_INCOMPLETE => {
            let (a, b) = two(off)?;
            RouterFault::Incomplete {
                received: as_usize(a)?,
                total: as_usize(b)?,
            }
        }
        FT_AT_LEVEL => {
            let level = take(body, off, 1)?[0];
            let aggregator_id = match take(body, off, 1)?[0] {
                0 => None,
                1 => Some(get_u64(take(body, off, 8)?)),
                _ => return Err(AggregateError::Malformed("bad aggregator-id presence byte")),
            };
            RouterFault::AtLevel {
                level,
                aggregator_id,
                fault: Box::new(decode_fault(body, off, depth + 1)?),
            }
        }
        _ => return Err(AggregateError::Malformed("unknown fault tag")),
    })
}

/// A regional aggregator for one epoch: an [`EpochCollector`] over its
/// child routers plus the pre-fusion that turns the collected epoch into
/// one [`AggregateBundle`] for the tier above.
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

    /// Finalizes the child hop and pre-fuses the epoch into one
    /// [`AggregateBundle`]: transport-lost children become typed
    /// exclusions, reassembled frames embed verbatim, parseable aligned
    /// bitmaps OR-fuse with per-child weights. Records
    /// `aggregate_fuse_ns{level}`, `aggregate_children_per_bundle`,
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
        if let Some(p) = bundle.sketch_payload() {
            metrics
                .counter("aggregate_sketch_bytes_total", &level)
                .add(p.len() as u64);
            metrics
                .counter("aggregate_sketches_merged_total", &level)
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

    fn sample_bundle() -> AggregateBundle {
        let frames: Vec<(u64, Vec<u8>)> = (0..3)
            .map(|id| (id, leaf_frame(40 + id, id as usize, 1 << 10)))
            .collect();
        AggregateBundle::assemble(
            77,
            5,
            1,
            frames,
            vec![ChildExclusion {
                router_id: 9,
                fault: RouterFault::TimedOut {
                    received: 1,
                    total: 4,
                },
            }],
        )
    }

    #[test]
    fn assemble_fuses_weights_and_embeds_frames_verbatim() {
        let frames: Vec<(u64, Vec<u8>)> = (0..3)
            .map(|id| (id, leaf_frame(40 + id, id as usize, 1 << 10)))
            .collect();
        let originals: Vec<Vec<u8>> = frames.iter().map(|(_, f)| f.clone()).collect();
        let bundle = AggregateBundle::assemble(77, 5, 1, frames, Vec::new());
        assert_eq!(bundle.frames, originals, "frames must embed verbatim");
        assert_eq!(bundle.child_weights.len(), 3);
        assert_eq!(bundle.fused.len(), 1 << 10);
        // The fused bitmap is the OR of the children: each child's bits
        // are a subset, and the fused weight is bounded by the sum.
        let sum: u64 = bundle.child_weights.iter().map(|w| w.weight as u64).sum();
        let max = bundle.child_weights.iter().map(|w| w.weight).max().unwrap();
        assert!(u64::from(bundle.fused.weight()) <= sum);
        assert!(bundle.fused.weight() >= max);
        for (i, f) in originals.iter().enumerate() {
            let (view, _) = RouterDigestView::parse(f).unwrap();
            let child = view.aligned.bitmap.to_bitmap();
            for (w, (fw, cw)) in bundle
                .fused
                .words()
                .iter()
                .zip(child.words().iter())
                .enumerate()
            {
                assert_eq!(cw & !fw, 0, "child {i} word {w} has bits the fuse lost");
            }
        }
        assert_eq!(bundle.leaves(), 3);
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
        let l1_b = AggregateBundle::assemble(
            101,
            5,
            1,
            leaves_b,
            vec![ChildExclusion {
                router_id: 5,
                fault: RouterFault::TimedOut {
                    received: 1,
                    total: 4,
                },
            }],
        );
        let l2 = AggregateBundle::assemble(
            200,
            5,
            2,
            vec![
                (100, l1_a.encode_wire()),
                (101, l1_b.encode_wire()),
                (6, direct),
            ],
            Vec::new(),
        );

        assert_eq!(l2.frames, expected_frames, "leaf frames splice verbatim");
        assert_eq!(l2.child_weights.len(), 6, "leaf weights carry over");
        assert_eq!(
            l2.child_weights
                .iter()
                .map(|w| w.router_id)
                .collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 6]
        );
        assert_eq!(l2.fused.len(), 1 << 10);
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
        let (decoded, _) = AggregateBundle::decode_wire(&l2.encode_wire()).unwrap();
        assert_eq!(decoded, l2);
    }

    #[test]
    fn assemble_excludes_unparseable_and_skips_mismatched_widths() {
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
        // mismatched-width frame is forwarded but not fused.
        assert_eq!(bundle.frames, vec![good, wide]);
        assert_eq!(bundle.child_weights.len(), 1);
        assert_eq!(bundle.child_weights[0].router_id, 0);
        assert_eq!(bundle.fused.len(), 1 << 10);
        assert_eq!(bundle.exclusions.len(), 1);
        assert_eq!(bundle.exclusions[0].router_id, 2);
        assert!(matches!(bundle.exclusions[0].fault, RouterFault::Wire(_)));
        assert_eq!(bundle.leaves(), 3);
    }

    #[test]
    fn bundle_wire_roundtrip() {
        let bundle = sample_bundle();
        let wire = bundle.encode_wire();
        assert_eq!(wire.len(), bundle.encoded_len());
        let (back, used) = AggregateBundle::decode_wire(&wire).expect("roundtrip");
        assert_eq!(used, wire.len());
        assert_eq!(back, bundle);
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
        let wire = nested.encode_wire();
        let (back, _) = AggregateBundle::decode_wire(&wire).expect("nested roundtrip");
        assert_eq!(back, nested);
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
            Err(AggregateError::BadMagic(_))
        ));
        let mut bad = wire.clone();
        bad[4] = 9;
        assert!(matches!(
            AggregateBundle::decode_wire(&bad),
            Err(AggregateError::BadVersion(9))
        ));
    }

    #[test]
    fn assemble_merges_child_sketches_into_one_v2_artifact() {
        use crate::monitor::SketchSpec;
        // Three leaves with sketches enabled; each observes a distinct
        // Zipf epoch, so their Space-Saving tables differ.
        let frames: Vec<(u64, Vec<u8>)> = (0..3u64)
            .map(|id| {
                let mut r = StdRng::seed_from_u64(70 + id);
                let cfg =
                    MonitorConfig::small(7, 1 << 10, 4).with_sketch(SketchSpec::heavy_content(16));
                let mut mp = MonitoringPoint::new(id as usize, &cfg);
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
                (id, mp.finish_epoch().encode_wire().unwrap().to_vec())
            })
            .collect();

        // Reference merge straight from the child payloads.
        let mut expect: Option<dcs_sketch::SpaceSaving> = None;
        for (_, f) in &frames {
            let (view, _) = RouterDigestView::parse(f).unwrap();
            let decoded = decode_sketch(view.sketch_payload().unwrap()).unwrap();
            let SketchWire::SpaceSaving { sketch, .. } = decoded else {
                panic!("expected a Space-Saving sketch");
            };
            match &mut expect {
                None => expect = Some(sketch),
                Some(acc) => acc.merge(&sketch),
            }
        }
        let expect = expect.unwrap();

        let bundle = AggregateBundle::assemble(77, 5, 1, frames, Vec::new());
        let payload = bundle.sketch_payload().expect("merged sketch rides along");
        let SketchWire::SpaceSaving { domain, sketch } = decode_sketch(payload).unwrap() else {
            panic!("expected a Space-Saving sketch");
        };
        assert_eq!(domain, dcs_sketch::SketchDomain::ContentIndex.to_u8());
        assert_eq!(sketch, expect, "tier merge == direct child merge");
        assert_eq!(sketch.total(), 600, "all three children's mass merged");

        // v2 wire round trip carries the artifact; sketchless stays v1.
        let wire = bundle.encode_wire();
        assert_eq!(wire[4], AGGREGATE_VERSION_V2);
        assert_eq!(wire.len(), bundle.encoded_len());
        let (back, used) = AggregateBundle::decode_wire(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(back, bundle);
        let plain = sample_bundle();
        assert!(plain.artifacts.is_empty());
        assert_eq!(plain.encode_wire()[4], AGGREGATE_VERSION);

        // Nested flattening merges the lower tier's sketch too.
        let nested =
            AggregateBundle::assemble(200, 5, 2, vec![(77, bundle.encode_wire())], Vec::new());
        let SketchWire::SpaceSaving { sketch: s2, .. } =
            decode_sketch(nested.sketch_payload().unwrap()).unwrap()
        else {
            panic!("expected a Space-Saving sketch");
        };
        assert_eq!(s2, expect, "nested tier forwards the merged sketch");
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
        assert_eq!(bundle.child_weights.len(), 2);
        assert_eq!(bundle.exclusions.len(), 1);
        assert_eq!(bundle.exclusions[0].router_id, 12);
        assert!(matches!(
            bundle.exclusions[0].fault,
            RouterFault::TimedOut { .. }
        ));
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
        assert!(
            snap.counter("aggregate_forwarded_bytes_total{level=1}")
                >= Some(bundle.encoded_len() as u64)
        );
    }
}
