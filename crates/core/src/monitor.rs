//! One monitoring point: both collectors wired to a router's traffic.

use crate::session::Missing;
use crate::transport::{chunk_bundle, cut_chunk, MAX_CHUNKS, MAX_CHUNK_PAYLOAD};
use bytes::BufMut;
use dcs_collect::aligned::HASH_PREFIX_LEN;
use dcs_collect::frame::{FrameError, Reader};
use dcs_collect::unaligned::MIN_PAYLOAD;
use dcs_collect::wire::{ALIGNED_HEADER, UNALIGNED_HEADER};
use dcs_collect::{
    artifact, AlignedCollector, AlignedConfig, AlignedDigest, AlignedDigestView, Artifact,
    UnalignedCollector, UnalignedConfig, UnalignedDigest, UnalignedDigestView,
};
use dcs_sketch::{wire, SpaceSaving};
use dcs_traffic::Packet;

/// Sidecar sketch settings for a monitoring point: a Space-Saving
/// summary of the aligned bitmap columns its payloads hash to, shipped as
/// a `DCSS` artifact in the same bundle.
///
/// `cap == 0` disables the sketch entirely — the bundle then encodes
/// byte-identically to the pre-artifact wire format.
#[derive(Debug, Clone)]
pub struct SketchSpec {
    /// Tracked keys (0 disables the sketch).
    pub cap: usize,
}

impl SketchSpec {
    /// No sketch: the bundle stays on the pre-artifact wire format.
    pub fn disabled() -> Self {
        SketchSpec { cap: 0 }
    }

    /// Heavy *content*: Space-Saving over the aligned bitmap column each
    /// payload hashes to.
    pub fn heavy_content(cap: usize) -> Self {
        SketchSpec { cap }
    }

    /// Whether a sketch is collected at all.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }
}

/// How many packets ahead of hashing a packet's aligned prefix
/// [`MonitoringPoint::observe_all`] starts loading its payload: the size
/// of its ring of packet references. Lookaheads of 1 to 16 ran alike on
/// the `collect-mix` benchmark workload.
pub const LOOKAHEAD: usize = 4;

// The payload prefetch, `..MIN_PAYLOAD`, covers the aligned prefix too.
const _: () = assert!(HASH_PREFIX_LEN <= MIN_PAYLOAD);

/// The largest sketch cap whose full payload still fits one artifact
/// (`MAX_ARTIFACT_PAYLOAD`), so every epoch's bundle encodes.
const MAX_SKETCH_CAP: usize = (artifact::MAX_ARTIFACT_PAYLOAD - wire::HEADER_LEN) / wire::ENTRY_LEN;

/// The digest hash seed every deployed monitoring point shares: the
/// centre correlates bit positions, so one seed holds deployment-wide.
const DIGEST_SEED: u64 = 7;

/// Configuration of a monitoring point.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Aligned-case collector settings (shared hash seed across routers).
    pub aligned: AlignedConfig,
    /// Unaligned-case collector settings (shared content-hash seed; the
    /// router seed is overridden per router).
    pub unaligned: UnalignedConfig,
    /// Sidecar heavy-hitter sketch (disabled by default).
    pub sketch: SketchSpec,
}

impl MonitorConfig {
    /// A deployment-wide configuration scaled for tests/examples: both
    /// collectors share the epoch seed; each router gets distinct offsets.
    pub fn small(epoch_seed: u64, aligned_bits: usize, groups: usize) -> Self {
        MonitorConfig {
            aligned: AlignedConfig::small(aligned_bits, epoch_seed),
            unaligned: UnalignedConfig::small(groups, epoch_seed, 0),
            sketch: SketchSpec::disabled(),
        }
    }

    /// The deployed digest, `aligned_bits` wide with `groups` flow-split
    /// groups: [`MonitorConfig::small`] under the one seed every
    /// monitoring point shares.
    pub fn deployed(aligned_bits: usize, groups: usize) -> Self {
        Self::small(DIGEST_SEED, aligned_bits, groups)
    }

    /// The same configuration with a sidecar sketch enabled.
    pub fn with_sketch(mut self, spec: SketchSpec) -> Self {
        self.sketch = spec;
        self
    }
}

/// Streaming heavy-hitter sketch beside the bitmap collectors, keyed by
/// the aligned bitmap column each payload packet hashes to.
#[derive(Debug)]
pub struct SketchCollector {
    sketch: SpaceSaving,
}

impl SketchCollector {
    /// Builds the collector for `spec`. Keys are the aligned collector's
    /// columns, already hashed under the deployment-wide seed, so `_seed`
    /// is not read.
    ///
    /// # Panics
    /// Panics when `spec` is disabled (`cap == 0`), or when its cap
    /// exceeds 65,534: a full sketch of a larger cap would not fit one
    /// artifact payload, and the epoch's bundle would fail to encode.
    pub fn new(spec: &SketchSpec, _seed: u64) -> Self {
        assert!(spec.enabled(), "sketch spec is disabled");
        assert!(
            spec.cap <= MAX_SKETCH_CAP,
            "sketch cap {} exceeds {MAX_SKETCH_CAP}, the most one artifact holds",
            spec.cap
        );
        SketchCollector {
            sketch: SpaceSaving::new(spec.cap),
        }
    }

    /// Feeds one packet, keyed by the aligned collector's hashing rule.
    pub fn observe(&mut self, pkt: &Packet, aligned: &AlignedCollector) {
        self.observe_at(aligned.index_of(pkt));
    }

    /// [`observe`](Self::observe) for a caller that already holds the
    /// packet's aligned bitmap column (`AlignedCollector::index_of`).
    pub fn observe_at(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.sketch.offer(idx as u64, 1);
        }
    }

    /// Closes the epoch: encodes the `DCSS` payload and resets.
    pub fn finish_epoch(&mut self) -> Vec<u8> {
        let bytes = wire::encode_space_saving(&self.sketch);
        self.sketch.clear();
        bytes
    }
}

/// The digest bundle one router ships per epoch. Its one external form
/// is the `DCSR` frame [`RouterDigest::encode_wire`] writes, and its one
/// decoder is [`RouterDigestView::parse`].
#[derive(Debug, Clone)]
pub struct RouterDigest {
    /// The shipping router's index.
    pub router_id: usize,
    /// The epoch this bundle summarises (0-based per monitoring point);
    /// the ingest layer rejects bundles that desync from the epoch's
    /// consensus id.
    pub epoch_id: u64,
    /// Aligned-case digest.
    pub aligned: AlignedDigest,
    /// Unaligned-case digest.
    pub unaligned: UnalignedDigest,
    /// Sidecar artifacts riding beside the digests (empty on the
    /// pre-artifact wire format).
    pub artifacts: Vec<Artifact>,
}

/// Magic for whole-bundle wire frames (`b"DCSR"`).
pub const BUNDLE_MAGIC: [u8; 4] = *b"DCSR";

/// Pre-artifact frames: header + aligned + unaligned digest.
const BUNDLE_VERSION_V1: u8 = 1;
/// Artifact-bearing frames: v1 layout + an artifact section at the end.
/// Emitted only when the section is non-empty, so artifact-free bundles
/// stay byte-identical to v1.
const BUNDLE_VERSION_V2: u8 = 2;
const BUNDLE_HEADER: usize = 21; // magic + version + router_id + epoch_id

impl RouterDigest {
    /// Total encoded digest bytes (both cases; excludes sidecar
    /// artifacts).
    pub fn encoded_len(&self) -> usize {
        self.aligned.bitmap.encoded_len() + self.unaligned.encoded_len()
    }

    /// Bytes [`encode_wire`](Self::encode_wire) returns: the bundle
    /// header, both digest frames and the artifact section.
    pub fn wire_len(&self) -> usize {
        bundle_len(&self.aligned, &self.unaligned, &self.artifacts)
    }

    /// Encodes the whole bundle as one wire frame: bundle header (magic,
    /// version, router id, epoch id), the aligned and unaligned digest
    /// frames, then — v2 only — the artifact section. This is what the
    /// measurement plane ships. Bundles without artifacts encode as v1,
    /// byte-identical to the pre-artifact format. Everything is written
    /// once, by [`encode_into`](Self::encode_into), into one buffer of
    /// exactly [`wire_len`](Self::wire_len) bytes.
    pub fn encode_wire(&self) -> Result<Vec<u8>, FrameError> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Appends the frame [`encode_wire`](Self::encode_wire) returns to
    /// `buf`. [`MonitoringPoint::finish_epoch_chunks`] writes its bundles
    /// through the same encoder, straight from the live collectors.
    pub fn encode_into(&self, buf: &mut impl BufMut) -> Result<(), FrameError> {
        encode_bundle(
            buf,
            self.router_id,
            self.epoch_id,
            &self.aligned,
            &self.unaligned,
            &self.artifacts,
        )
    }
}

/// Bytes [`encode_bundle`] writes for these parts.
fn bundle_len(
    aligned: &AlignedDigest,
    unaligned: &UnalignedDigest,
    artifacts: &[Artifact],
) -> usize {
    BUNDLE_HEADER
        + ALIGNED_HEADER
        + aligned.bitmap.encoded_len()
        + UNALIGNED_HEADER
        + unaligned.encoded_len()
        + artifact::section_len(artifacts)
}

/// The `DCSR` encoder: the body of [`RouterDigest::encode_into`], over
/// borrowed parts so a monitoring point can encode its collectors' live
/// digests without moving them into a [`RouterDigest`].
fn encode_bundle(
    buf: &mut impl BufMut,
    router_id: usize,
    epoch_id: u64,
    aligned: &AlignedDigest,
    unaligned: &UnalignedDigest,
    artifacts: &[Artifact],
) -> Result<(), FrameError> {
    buf.put_slice(&BUNDLE_MAGIC);
    buf.put_u8(if artifacts.is_empty() {
        BUNDLE_VERSION_V1
    } else {
        BUNDLE_VERSION_V2
    });
    buf.put_u64_le(router_id as u64);
    buf.put_u64_le(epoch_id);
    aligned.encode_into(buf);
    unaligned.encode_into(buf)?;
    artifact::encode_section(artifacts, buf)
}

/// Borrowed, validated view of one [`RouterDigest`] wire frame.
///
/// [`RouterDigestView::parse`] is the parser of the `DCSR` frame — bundle
/// header (pre-artifact v1 and artifact-bearing v2), both digest frames,
/// every embedded bitmap, the artifact section — and leaves the bitmap
/// bytes on the wire instead of copying them into owned buffers. The
/// analysis centre fuses digests straight out of the received frames
/// through these views, so its steady-state ingest path allocates nothing
/// per digest.
#[derive(Clone, Copy, Debug)]
pub struct RouterDigestView<'a> {
    /// The shipping router's index.
    pub router_id: usize,
    /// The epoch this bundle summarises.
    pub epoch_id: u64,
    /// Aligned-case digest view.
    pub aligned: AlignedDigestView<'a>,
    /// Unaligned-case digest view.
    pub unaligned: UnalignedDigestView<'a>,
    /// Wire bytes of the artifact section (0 on v1 frames), validated
    /// during [`RouterDigestView::parse`]; detection reads nothing in it.
    artifact_bytes: usize,
}

impl<'a> RouterDigestView<'a> {
    /// Validates the frame at the front of `buf`, returning the view and
    /// the bytes it covers. Never panics on arbitrary input — every
    /// failure is a typed [`FrameError`].
    pub fn parse(buf: &'a [u8]) -> Result<(RouterDigestView<'a>, usize), FrameError> {
        let mut r = Reader::new(buf);
        let version = r.magic_version(BUNDLE_MAGIC, &[BUNDLE_VERSION_V1, BUNDLE_VERSION_V2])?;
        let router_id = usize::try_from(r.u64()?)
            .map_err(|_| FrameError::Malformed("router id exceeds usize"))?;
        let epoch_id = r.u64()?;
        let (aligned, used) = AlignedDigestView::parse(r.rest())?;
        r.bytes(used)?;
        let (unaligned, used) = UnalignedDigestView::parse(r.rest())?;
        r.bytes(used)?;
        let mut artifact_bytes = 0;
        if version == BUNDLE_VERSION_V2 {
            let mut cursor = r.rest();
            artifact::decode_section_views(&mut cursor)?;
            artifact_bytes = r.bytes(r.rest().len() - cursor.len())?.len();
        }
        Ok((
            RouterDigestView {
                router_id,
                epoch_id,
                aligned,
                unaligned,
                artifact_bytes,
            },
            r.used(),
        ))
    }

    /// Total encoded digest bytes (both cases), as counted by
    /// [`RouterDigest::encoded_len`].
    pub fn encoded_len(&self) -> usize {
        self.aligned.bitmap.encoded_len() + self.unaligned.encoded_len()
    }

    /// Wire bytes of the sidecar artifact section (0 on v1 frames).
    pub fn artifact_bytes(&self) -> usize {
        self.artifact_bytes
    }

    /// Raw traffic bytes summarised.
    pub fn raw_bytes(&self) -> u64 {
        self.aligned.raw_bytes
    }
}

/// What a monitoring point needs, beside the bundle it keeps, to re-cut
/// the chunk frames of the epoch it shipped last: the epoch, the chunk
/// size it was cut at, and the cumulative ack below which no chunk is
/// resent. It lasts until the next epoch closes.
#[derive(Debug)]
struct ResendBuffer {
    epoch_id: u64,
    max_payload: usize,
    acked: u32,
}

/// A monitoring point running both streaming modules over one router's
/// traffic.
#[derive(Debug)]
pub struct MonitoringPoint {
    router_id: usize,
    epoch: u64,
    aligned: AlignedCollector,
    unaligned: UnalignedCollector,
    sketch: Option<SketchCollector>,
    /// The `DCSR` bundle [`finish_epoch_chunks`](Self::finish_epoch_chunks)
    /// encoded last. Kept across epochs, so a close reuses its pages, and
    /// the source every resend is re-cut from.
    bundle: Vec<u8>,
    resend: Option<ResendBuffer>,
}

impl MonitoringPoint {
    /// Creates the monitoring point for `router_id`, salting the
    /// unaligned collector's offsets and flow split with the router id.
    pub fn new(router_id: usize, cfg: &MonitorConfig) -> Self {
        let mut ucfg = cfg.unaligned.clone();
        ucfg.router_seed = ucfg
            .router_seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(router_id as u64 + 1));
        let sketch = cfg
            .sketch
            .enabled()
            .then(|| SketchCollector::new(&cfg.sketch, cfg.aligned.seed));
        MonitoringPoint {
            router_id,
            epoch: 0,
            aligned: AlignedCollector::new(cfg.aligned.clone()),
            unaligned: UnalignedCollector::new(ucfg),
            sketch,
            bundle: Vec::new(),
            resend: None,
        }
    }

    /// Epochs this point has finished (= the next bundle's epoch id).
    pub fn epochs_finished(&self) -> u64 {
        self.epoch
    }

    /// The router this point monitors.
    pub fn router_id(&self) -> usize {
        self.router_id
    }

    /// Feeds one packet through both streaming modules (and the sidecar
    /// sketch when enabled), hashing its aligned prefix once for both.
    /// Returns `true` when the aligned bitmap has reached its target fill
    /// — the paper's signal to close the epoch.
    pub fn observe(&mut self, pkt: &Packet) -> bool {
        let idx = self.aligned.index_of(pkt);
        self.observe_at(pkt, idx)
    }

    /// [`observe`](Self::observe) with the packet's aligned index
    /// (`AlignedCollector::index_of`) already in hand.
    fn observe_at(&mut self, pkt: &Packet, idx: Option<usize>) -> bool {
        if let Some(s) = self.sketch.as_mut() {
            s.observe_at(idx);
        }
        let full = self.aligned.observe_at(pkt, idx);
        self.unaligned.observe(pkt);
        full
    }

    /// Feeds a whole epoch of packets; returns whether the aligned bitmap
    /// reached its target fill. Every packet is observed regardless —
    /// callers cut their epochs beforehand — so a `true` means the digest
    /// about to ship is at or past the fill the analysis thresholds
    /// assume.
    ///
    /// The same bits, sketch and counters as [`observe`](Self::observe) on
    /// each packet in turn, with the loads started early. The payload
    /// bytes the collectors read are prefetched [`LOOKAHEAD`] packets
    /// before the aligned index is computed; that happens one packet
    /// before the packet is observed, and prefetches the bitmap word the
    /// index sets. Packets are still observed one at a time in arrival
    /// order, which the order-sensitive sketch needs.
    pub fn observe_all<'a>(&mut self, pkts: impl IntoIterator<Item = &'a Packet>) -> bool {
        // Packets whose payload is loading; the oldest leaves next.
        let mut ring: [Option<&Packet>; LOOKAHEAD] = [None; LOOKAHEAD];
        // The next packet to observe, with its index, its bitmap word loading.
        let mut staged: Option<(&Packet, Option<usize>)> = None;
        // `LOOKAHEAD + 1` trailing `None`s flush the ring and the staged packet.
        let padded = pkts
            .into_iter()
            .map(Some)
            .chain(std::iter::repeat_n(None, LOOKAHEAD + 1));
        for (i, incoming) in padded.enumerate() {
            if let Some(p) = incoming {
                dcs_hash::prefetch(&p.payload[..p.payload.len().min(MIN_PAYLOAD)]);
            }
            let oldest = std::mem::replace(&mut ring[i % LOOKAHEAD], incoming);
            let indexed = oldest.map(|p| {
                let idx = self.aligned.index_of(p);
                if let Some(bit) = idx {
                    self.aligned.prefetch_index(bit);
                }
                (p, idx)
            });
            if let Some((p, idx)) = std::mem::replace(&mut staged, indexed) {
                self.observe_at(p, idx);
            }
        }
        self.aligned.epoch_full()
    }

    /// Read access to the aligned collector (diagnostics).
    pub fn aligned(&self) -> &AlignedCollector {
        &self.aligned
    }

    /// Read access to the unaligned collector (diagnostics).
    pub fn unaligned(&self) -> &UnalignedCollector {
        &self.unaligned
    }

    /// Closes the epoch and ships the digest bundle (with the sketch
    /// artifact attached when a sketch is configured). The collectors
    /// start the next epoch on freshly allocated bitmaps.
    pub fn finish_epoch(&mut self) -> RouterDigest {
        let epoch_id = self.epoch;
        self.epoch += 1;
        RouterDigest {
            router_id: self.router_id,
            epoch_id,
            artifacts: self.finish_sketch(),
            aligned: self.aligned.finish_epoch(),
            unaligned: self.unaligned.finish_epoch(),
        }
    }

    /// The closing epoch's sketch artifact, if a sketch is configured; the
    /// sketch restarts empty.
    fn finish_sketch(&mut self) -> Vec<Artifact> {
        match self.sketch.as_mut() {
            Some(s) => vec![Artifact::sketch(s.finish_epoch())],
            None => Vec::new(),
        }
    }

    /// Closes the epoch and ships it as chunk frames (see
    /// [`crate::transport`]): the bundle [`finish_epoch`](Self::finish_epoch)
    /// would return, encoded, split into CRC-trailed chunks of at most
    /// `max_payload` digest bytes each — byte for byte what
    /// [`chunk_bundle`] cuts from [`RouterDigest::encode_wire`].
    ///
    /// Nothing is reallocated: the collectors encode their live state
    /// straight into a bundle buffer the point keeps across epochs, then
    /// zero their bitmaps and counters in place. That buffer is the resend
    /// buffer — exactly one epoch deep, overwritten by the next close — so
    /// the analysis centre can have lost or corrupted chunks
    /// [`resend`](Self::resend) until the next epoch closes.
    ///
    /// # Errors
    /// [`FrameError::Malformed`] when `max_payload` is outside
    /// `1..=MAX_CHUNK_PAYLOAD`, checked before the epoch closes, so the
    /// epoch stays open. Once it has closed, any error of
    /// [`RouterDigest::encode_wire`], and [`FrameError::TooLarge`] for a
    /// bundle that needs more than `MAX_CHUNKS` chunks. A close that fails
    /// still closes the epoch, and leaves nothing to resend: the previous
    /// epoch's bundle is gone.
    pub fn finish_epoch_chunks(&mut self, max_payload: usize) -> Result<Vec<Vec<u8>>, FrameError> {
        if !(1..=MAX_CHUNK_PAYLOAD).contains(&max_payload) {
            return Err(FrameError::Malformed(
                "chunk payload size outside 1..=MAX_CHUNK_PAYLOAD",
            ));
        }
        let (router_id, epoch_id) = (self.router_id, self.epoch);
        self.epoch += 1;
        self.resend = None;
        let artifacts = self.finish_sketch();
        let (bundle, unaligned) = (&mut self.bundle, &mut self.unaligned);
        bundle.clear();
        self.aligned.finish_epoch_with(|a| {
            unaligned.finish_epoch_with(|u| {
                // Exact, so a kept buffer holds no growth slack.
                bundle.reserve_exact(bundle_len(a, u, &artifacts));
                encode_bundle(bundle, router_id, epoch_id, a, u, &artifacts)
            })
        })?;
        if self.bundle.len().div_ceil(max_payload) > MAX_CHUNKS as usize {
            return Err(FrameError::TooLarge(
                "bundle needs more than MAX_CHUNKS chunks",
            ));
        }
        self.resend = Some(ResendBuffer {
            epoch_id,
            max_payload,
            acked: 0,
        });
        Ok(chunk_bundle(
            router_id as u64,
            epoch_id,
            &self.bundle,
            max_payload,
        ))
    }

    /// Serves a retransmit request from the resend buffer: the chunk
    /// frames of `epoch_id` that `missing` names, re-cut from the kept
    /// bundle — byte for byte the frames
    /// [`finish_epoch_chunks`](Self::finish_epoch_chunks) returned — in
    /// request order. A repeated seq is served again; a seq past the
    /// bundle's last chunk, or below the cumulative [`ack`](Self::ack),
    /// is skipped. Empty when the buffer holds a different epoch (the
    /// request outlived the buffer's one-epoch retention) or the last
    /// close failed.
    ///
    /// No driver of the workspace calls this or [`ack`](Self::ack): a
    /// sender answers from its own chunks (`session::SendSession`). Both
    /// stay for the end-to-end benchmark's frozen adapter until it is
    /// re-baselined (ROADMAP item 6).
    pub fn resend(&self, epoch_id: u64, missing: &Missing) -> Vec<Vec<u8>> {
        let Some(buf) = self.resend.as_ref().filter(|b| b.epoch_id == epoch_id) else {
            return Vec::new();
        };
        let total = self.bundle.len().div_ceil(buf.max_payload) as u32;
        missing
            .seqs(total)
            .filter(|&seq| seq >= buf.acked)
            .map(|seq| {
                cut_chunk(
                    self.router_id as u64,
                    epoch_id,
                    &self.bundle,
                    buf.max_payload,
                    seq,
                )
            })
            .collect()
    }

    /// Applies a cumulative ack from the collector: no chunk of
    /// `epoch_id` below `cumulative_ack` is resent from now on. The ack
    /// only raises a watermark; an ack for another epoch is ignored.
    pub fn ack(&mut self, epoch_id: u64, cumulative_ack: u32) {
        if let Some(buf) = self.resend.as_mut().filter(|b| b.epoch_id == epoch_id) {
            buf.acked = buf.acked.max(cumulative_ack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_bitmap::WordSource;
    use dcs_traffic::{gen, BackgroundConfig, SizeMix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One epoch of 536-byte background traffic.
    fn background(r: &mut StdRng, packets: usize, flows: usize) -> Vec<Packet> {
        gen::generate_epoch(
            r,
            &BackgroundConfig {
                packets,
                flows,
                zipf_exponent: 1.0,
                size_mix: SizeMix::constant(536),
            },
        )
    }

    #[test]
    fn monitoring_point_round() {
        let mut r = StdRng::seed_from_u64(1);
        let cfg = MonitorConfig::small(7, 1 << 14, 8);
        let mut mp = MonitoringPoint::new(3, &cfg);
        let pkts = background(&mut r, 500, 100);
        mp.observe_all(&pkts);
        let d = mp.finish_epoch();
        assert_eq!(d.router_id, 3);
        assert_eq!(d.epoch_id, 0);
        assert_eq!(d.aligned.packets_seen, 500);
        assert_eq!(d.unaligned.packets_sampled, 500);
        assert!(d.aligned.raw_bytes > 0);
        assert!(d.encoded_len() > 0);
        // The next epoch's bundle carries the next id.
        assert_eq!(mp.epochs_finished(), 1);
        assert_eq!(mp.finish_epoch().epoch_id, 1);
    }

    #[test]
    fn observe_reports_target_fill() {
        let mut r = StdRng::seed_from_u64(14);
        let cfg = MonitorConfig::small(7, 256, 1);
        let mut mp = MonitoringPoint::new(0, &cfg);
        let pkts = background(&mut r, 400, 50);
        // A short epoch stays under half fill …
        assert!(!mp.observe_all(&pkts[..40]));
        // … the signal rises with the fill and, once up, stays up.
        let mut closed = false;
        for p in &pkts[40..] {
            let full = mp.observe(p);
            assert_eq!(full, mp.aligned().fill_ratio() >= 0.5);
            assert!(full || !closed, "close signal dropped again");
            closed = full;
        }
        assert!(closed, "400 packets fill 256 bits past half");
        // An empty batch still reports the fill already reached.
        assert!(mp.observe_all(std::iter::empty()));
        assert!(mp.finish_epoch().aligned.bitmap.fill_ratio() >= 0.5);
        // The next epoch starts empty.
        assert!(!mp.observe_all(&pkts[..40]));
    }

    #[test]
    fn bundle_wire_roundtrip() {
        let mut r = StdRng::seed_from_u64(2);
        let cfg = MonitorConfig::small(7, 1 << 12, 4);
        let mut mp = MonitoringPoint::new(9, &cfg);
        let pkts = background(&mut r, 300, 60);
        mp.observe_all(&pkts);
        mp.finish_epoch(); // burn epoch 0
        mp.observe_all(&pkts);
        let d = mp.finish_epoch();
        let wire = d.encode_wire().expect("bundle fits the wire format");
        let (view, used) = RouterDigestView::parse(&wire).expect("roundtrip");
        assert_eq!(used, wire.len());
        assert_eq!(view.router_id, 9);
        assert_eq!(view.epoch_id, 1);
        assert_eq!(view.encoded_len(), d.encoded_len());
        assert_eq!(view.raw_bytes(), d.aligned.raw_bytes);
        let (a, u) = (&view.aligned, &view.unaligned);
        assert_eq!(
            (a.packets_seen, a.packets_hashed, a.raw_bytes),
            (
                d.aligned.packets_seen,
                d.aligned.packets_hashed,
                d.aligned.raw_bytes
            )
        );
        assert_eq!(a.bitmap.len(), d.aligned.bitmap.len());
        for (i, &w) in d.aligned.bitmap.words().iter().enumerate() {
            assert_eq!(a.bitmap.word(i), w, "aligned word {i}");
        }
        assert_eq!(
            (u.packets_seen, u.packets_sampled, u.raw_bytes),
            (
                d.unaligned.packets_seen,
                d.unaligned.packets_sampled,
                d.unaligned.raw_bytes
            )
        );
        assert_eq!(u.arrays_per_group, d.unaligned.arrays_per_group);
        assert_eq!(u.array_count(), d.unaligned.arrays.len());
        assert_eq!(u.arrays().count(), d.unaligned.arrays.len());
        for (j, (v, bm)) in u.arrays().zip(&d.unaligned.arrays).enumerate() {
            assert_eq!(v.len(), bm.len(), "array {j}");
            for (i, &w) in bm.words().iter().enumerate() {
                assert_eq!(v.word(i), w, "array {j} word {i}");
            }
        }
    }

    /// `encode_wire` fills exactly the buffer it sized up front, with and
    /// without an artifact section, so a bundle is one allocation and
    /// one copy.
    #[test]
    fn bundle_is_encoded_into_one_buffer_sized_up_front() {
        let mut r = StdRng::seed_from_u64(3);
        let pkts = background(&mut r, 300, 60);
        for cfg in [
            MonitorConfig::small(7, 1 << 12, 4),
            MonitorConfig::small(7, 1 << 12, 4).with_sketch(SketchSpec::heavy_content(16)),
        ] {
            let mut mp = MonitoringPoint::new(4, &cfg);
            mp.observe_all(&pkts);
            let d = mp.finish_epoch();
            let wire = d.encode_wire().expect("bundle fits the wire format");
            assert_eq!(wire.len(), d.wire_len());
            assert_eq!(wire.capacity(), d.wire_len(), "the buffer grew");
            let (view, used) = RouterDigestView::parse(&wire).expect("parses");
            assert_eq!(used, wire.len());
            assert_eq!(view.artifact_bytes(), artifact::section_len(&d.artifacts));
        }
    }

    /// A chunk size the wire cannot carry is refused before the epoch
    /// closes; a bundle that needs more than `MAX_CHUNKS` chunks is a
    /// typed error, not a panic.
    #[test]
    fn unshippable_chunking_is_a_typed_error() {
        let mut mp = MonitoringPoint::new(5, &MonitorConfig::small(7, 1 << 20, 1));
        for bad in [0, MAX_CHUNK_PAYLOAD + 1] {
            assert!(matches!(
                mp.finish_epoch_chunks(bad),
                Err(FrameError::Malformed(_))
            ));
            assert_eq!(
                mp.epochs_finished(),
                0,
                "max_payload {bad} closed the epoch"
            );
        }
        // A 1 Mbit bitmap is over 128 KiB: more than 65,536 one-byte chunks.
        assert_eq!(
            mp.finish_epoch_chunks(1).unwrap_err(),
            FrameError::TooLarge("bundle needs more than MAX_CHUNKS chunks")
        );
        assert_eq!(mp.epochs_finished(), 1);
        let chunks = mp.finish_epoch_chunks(MAX_CHUNK_PAYLOAD).expect("fits");
        assert_eq!(chunks.len(), 3);
        assert_eq!(mp.resend(1, &Missing::All), chunks);
    }

    #[test]
    fn bundle_wire_rejects_corruption_without_panicking() {
        let cfg = MonitorConfig::small(7, 1 << 10, 2);
        let mut mp = MonitoringPoint::new(1, &cfg);
        let wire = mp
            .finish_epoch()
            .encode_wire()
            .expect("bundle fits the wire format");
        for cut in 0..wire.len() {
            assert!(
                RouterDigestView::parse(&wire[..cut]).is_err(),
                "strict prefix of {cut} bytes decoded"
            );
        }
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(matches!(
            RouterDigestView::parse(&bad),
            Err(FrameError::BadMagic(_))
        ));
        let mut bad = wire.clone();
        bad[4] = 9;
        assert!(matches!(
            RouterDigestView::parse(&bad),
            Err(FrameError::BadVersion(9))
        ));
    }

    /// Resends are re-cut from the kept bundle: byte for byte the frames
    /// the close returned, for one epoch, above the ack watermark.
    #[test]
    fn resend_buffer_serves_one_epoch_and_prunes_on_ack() {
        // 64 KiB of aligned bitmap: over `MAX_CHUNKS` one-byte chunks.
        let cfg = MonitorConfig::small(7, 1 << 19, 4);
        let mut mp = MonitoringPoint::new(6, &cfg);
        let mut r = StdRng::seed_from_u64(8);
        let pkts = background(&mut r, 300, 60);
        mp.observe_all(&pkts);
        let chunks = mp.finish_epoch_chunks(256).expect("bundle fits the wire");
        let total = chunks.len() as u32;
        assert!(total > 4, "bundle should need several chunks");

        // Reassembling the resent chunks reproduces the original wire
        // bundle exactly.
        let all = mp.resend(0, &Missing::All);
        assert_eq!(all, chunks);
        let some = mp.resend(0, &Missing::Seqs(vec![1, 3]));
        assert_eq!(some, vec![chunks[1].clone(), chunks[3].clone()]);
        // A repeated seq is served again, in request order; seqs past the
        // last chunk are skipped.
        let odd = Missing::Seqs(vec![3, total, 1, 3, u32::MAX, total - 1]);
        assert_eq!(
            mp.resend(0, &odd),
            [3, 1, 3, total - 1].map(|s| chunks[s as usize].clone())
        );
        // Wrong epoch: nothing.
        assert!(mp.resend(9, &Missing::All).is_empty());

        // Acks raise a watermark; chunks below it are no longer resent.
        mp.ack(0, 2);
        assert_eq!(mp.resend(0, &Missing::All), chunks[2..]);
        assert_eq!(
            mp.resend(0, &Missing::Seqs(vec![0, 1, 2])),
            vec![chunks[2].clone()]
        );
        // A lower ack does not lower it; an ack for another epoch is
        // ignored.
        mp.ack(0, 1);
        mp.ack(1, total);
        assert_eq!(mp.resend(0, &Missing::All), chunks[2..]);
        // An ack past the last chunk leaves nothing to resend.
        mp.ack(0, total + 5);
        assert!(mp.resend(0, &Missing::All).is_empty());
        assert!(mp.resend(0, &Missing::Seqs(vec![0, total - 1])).is_empty());

        // The next epoch evicts the buffer entirely (one epoch deep).
        mp.observe_all(&pkts);
        let next = mp.finish_epoch_chunks(256).expect("bundle fits the wire");
        assert!(mp.resend(0, &Missing::All).is_empty());
        assert_eq!(mp.resend(1, &Missing::All), next);

        // A close that fails still closes the epoch, and leaves nothing to
        // resend: neither the failed epoch nor the one before it.
        assert_eq!(
            mp.finish_epoch_chunks(1).unwrap_err(),
            FrameError::TooLarge("bundle needs more than MAX_CHUNKS chunks")
        );
        assert!(mp.resend(1, &Missing::All).is_empty());
        assert!(mp.resend(2, &Missing::All).is_empty());
        mp.ack(2, 1);
        assert!(mp.resend(2, &Missing::Seqs(vec![1])).is_empty());
        // The epoch after it ships and resends as usual.
        let after = mp.finish_epoch_chunks(256).expect("bundle fits the wire");
        assert_eq!(mp.resend(3, &Missing::All), after);
    }

    #[test]
    fn sketch_artifact_rides_the_bundle_and_survives_the_wire() {
        let mut r = StdRng::seed_from_u64(11);
        let cfg = MonitorConfig::small(7, 1 << 12, 4).with_sketch(SketchSpec::heavy_content(16));
        let mut mp = MonitoringPoint::new(2, &cfg);
        let pkts = background(&mut r, 400, 80);
        mp.observe_all(&pkts);
        let d = mp.finish_epoch();
        assert_eq!(d.artifacts.len(), 1);
        assert_eq!(d.artifacts[0].kind, dcs_collect::ARTIFACT_KIND_SKETCH);
        assert!(d.artifacts[0].payload.starts_with(&dcs_sketch::DCSS_MAGIC));

        // v2 wire round trip; prefixes die.
        let wire = d.encode_wire().expect("encodes");
        assert_eq!(wire[4], 2, "artifact-bearing bundles are v2");
        let (view, used) = RouterDigestView::parse(&wire).expect("parses");
        assert_eq!(used, wire.len());
        assert_eq!(view.artifact_bytes(), artifact::section_len(&d.artifacts));
        let mut section = &wire[wire.len() - view.artifact_bytes()..];
        let payloads: Vec<(u32, &[u8])> = d
            .artifacts
            .iter()
            .map(|a| (a.kind, &a.payload[..]))
            .collect();
        assert_eq!(artifact::decode_section_views(&mut section), Ok(payloads));
        for cut in 0..wire.len() {
            assert!(
                RouterDigestView::parse(&wire[..cut]).is_err(),
                "strict v2 prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn sketchless_bundles_stay_byte_identical_to_v1() {
        let mut r = StdRng::seed_from_u64(12);
        let pkts = background(&mut r, 200, 40);
        let cfg = MonitorConfig::small(7, 1 << 12, 4);
        let mut plain = MonitoringPoint::new(2, &cfg);
        plain.observe_all(&pkts);
        let d = plain.finish_epoch();
        let wire = d.encode_wire().expect("encodes");
        assert_eq!(wire[4], 1, "artifact-free bundles stay on v1");

        // A hand-built v1 frame of the same digests matches byte for byte.
        let mut v1 = BUNDLE_MAGIC.to_vec();
        v1.push(BUNDLE_VERSION_V1);
        v1.extend_from_slice(&(d.router_id as u64).to_le_bytes());
        v1.extend_from_slice(&d.epoch_id.to_le_bytes());
        v1.extend_from_slice(&d.aligned.encode_wire());
        v1.extend_from_slice(&d.unaligned.encode_wire().expect("fits"));
        assert_eq!(wire, v1);
        assert_eq!(
            RouterDigestView::parse(&wire)
                .expect("parses")
                .0
                .artifact_bytes(),
            0
        );
    }

    /// The cap bound is tight: a sketch at `MAX_SKETCH_CAP` holding a key
    /// in every counter still encodes, and one more entry would not fit.
    #[test]
    fn a_full_sketch_at_the_cap_bound_encodes() {
        let mut sketch = SketchCollector::new(&SketchSpec::heavy_content(MAX_SKETCH_CAP), 7);
        for idx in 0..MAX_SKETCH_CAP {
            sketch.observe_at(Some(idx));
        }
        let payload = sketch.finish_epoch();
        assert_eq!(
            payload.len(),
            wire::HEADER_LEN + MAX_SKETCH_CAP * wire::ENTRY_LEN
        );
        assert!(payload.len() + wire::ENTRY_LEN > artifact::MAX_ARTIFACT_PAYLOAD);
        let mut d = MonitoringPoint::new(0, &MonitorConfig::small(7, 1 << 10, 1)).finish_epoch();
        d.artifacts = vec![Artifact::sketch(payload)];
        d.encode_wire()
            .expect("a full sketch at the cap bound fits the wire");
    }

    #[test]
    #[should_panic(expected = "exceeds 65534")]
    fn a_cap_past_the_bound_is_rejected_at_construction() {
        SketchCollector::new(&SketchSpec::heavy_content(65_535), 7);
    }

    #[test]
    fn distinct_routers_get_distinct_offsets() {
        let cfg = MonitorConfig::small(7, 1 << 10, 4);
        let a = MonitoringPoint::new(0, &cfg);
        let b = MonitoringPoint::new(1, &cfg);
        assert_ne!(
            a.unaligned().offsets(),
            b.unaligned().offsets(),
            "routers must sample different offsets"
        );
    }
}
