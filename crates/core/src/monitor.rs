//! One monitoring point: both collectors wired to a router's traffic.

use bytes::{BufMut, Bytes, BytesMut};
use dcs_collect::{
    artifact, AlignedCollector, AlignedConfig, AlignedDigest, AlignedDigestView, Artifact,
    UnalignedCollector, UnalignedConfig, UnalignedDigest, UnalignedDigestView, WireError,
};
use dcs_sketch::{wire, SpaceSaving};
use dcs_traffic::Packet;

/// Sidecar sketch settings for a monitoring point: a Space-Saving
/// summary of the aligned bitmap columns its payloads hash to, shipped as
/// a `DCSS` artifact in the same bundle.
///
/// `cap == 0` disables the sketch entirely — the bundle then encodes
/// byte-identically to the pre-artifact wire format.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
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

/// The largest sketch cap whose full payload still fits one artifact
/// (`MAX_ARTIFACT_PAYLOAD`), so every epoch's bundle encodes.
const MAX_SKETCH_CAP: usize = (artifact::MAX_ARTIFACT_PAYLOAD - wire::HEADER_LEN) / wire::ENTRY_LEN;

/// Configuration of a monitoring point.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
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

/// The digest bundle one router ships per epoch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
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
    /// artifacts — see [`RouterDigest::artifact_bytes`]).
    pub fn encoded_len(&self) -> usize {
        self.aligned.bitmap.encoded_len() + self.unaligned.encoded_len()
    }

    /// Wire bytes of the sidecar artifact section (0 when empty).
    pub fn artifact_bytes(&self) -> usize {
        artifact::section_len(&self.artifacts)
    }

    /// Raw traffic bytes summarised.
    pub fn raw_bytes(&self) -> u64 {
        self.aligned.raw_bytes
    }

    /// Encodes the whole bundle as one wire frame: bundle header (magic,
    /// version, router id, epoch id), the aligned and unaligned digest
    /// frames, then — v2 only — the artifact section. This is what the
    /// measurement plane ships. Bundles without artifacts encode as v1,
    /// byte-identical to the pre-artifact format.
    pub fn encode_wire(&self) -> Result<Bytes, WireError> {
        let aligned = self.aligned.encode_wire();
        let unaligned = self.unaligned.encode_wire()?;
        let section = artifact::section_len(&self.artifacts);
        let mut buf =
            BytesMut::with_capacity(BUNDLE_HEADER + aligned.len() + unaligned.len() + section);
        buf.put_slice(&BUNDLE_MAGIC);
        buf.put_u8(if self.artifacts.is_empty() {
            BUNDLE_VERSION_V1
        } else {
            BUNDLE_VERSION_V2
        });
        buf.put_u64_le(self.router_id as u64);
        buf.put_u64_le(self.epoch_id);
        buf.put_slice(&aligned);
        buf.put_slice(&unaligned);
        artifact::encode_section(&self.artifacts, &mut buf)?;
        Ok(buf.freeze())
    }

    /// Decodes a frame produced by [`RouterDigest::encode_wire`],
    /// returning the bundle and the bytes consumed: an owned copy of what
    /// [`RouterDigestView::parse`] validates. Never panics on arbitrary
    /// input — every failure is a typed [`WireError`].
    pub fn decode_wire(buf: &[u8]) -> Result<(RouterDigest, usize), WireError> {
        RouterDigestView::parse(buf).map(|(view, used)| (view.to_owned(), used))
    }
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
    /// Raw wire bytes of the artifact section (empty on v1 frames);
    /// validated during [`RouterDigestView::parse`], decoded on demand
    /// by [`RouterDigestView::artifacts`] so the view stays `Copy`.
    artifact_section: &'a [u8],
}

impl<'a> RouterDigestView<'a> {
    /// Validates the frame at the front of `buf`, returning the view and
    /// the bytes it covers. Never panics on arbitrary input — every
    /// failure is a typed [`WireError`].
    pub fn parse(buf: &'a [u8]) -> Result<(RouterDigestView<'a>, usize), WireError> {
        if buf.len() < BUNDLE_HEADER {
            return Err(WireError::Truncated);
        }
        if buf[..4] != BUNDLE_MAGIC {
            let mut m = [0u8; 4];
            m.copy_from_slice(&buf[..4]);
            return Err(WireError::BadMagic(m));
        }
        let version = buf[4];
        if version != BUNDLE_VERSION_V1 && version != BUNDLE_VERSION_V2 {
            return Err(WireError::BadVersion(version));
        }
        let router_id = u64::from_le_bytes(buf[5..13].try_into().expect("8-byte slice"));
        let router_id = usize::try_from(router_id)
            .map_err(|_| WireError::Malformed("router id exceeds usize"))?;
        let epoch_id = u64::from_le_bytes(buf[13..21].try_into().expect("8-byte slice"));
        let rest = &buf[BUNDLE_HEADER..];
        let (aligned, used_a) = AlignedDigestView::parse(rest)?;
        let (unaligned, used_u) = UnalignedDigestView::parse(&rest[used_a..])?;
        let mut artifact_section: &[u8] = &[];
        let mut used = BUNDLE_HEADER + used_a + used_u;
        if version == BUNDLE_VERSION_V2 {
            let tail = &rest[used_a + used_u..];
            let mut cursor = tail;
            artifact::decode_section_views(&mut cursor)?;
            let consumed = tail.len() - cursor.len();
            artifact_section = &tail[..consumed];
            used += consumed;
        }
        Ok((
            RouterDigestView {
                router_id,
                epoch_id,
                aligned,
                unaligned,
                artifact_section,
            },
            used,
        ))
    }

    /// Total encoded digest bytes (both cases), as counted by
    /// [`RouterDigest::encoded_len`].
    pub fn encoded_len(&self) -> usize {
        self.aligned.bitmap.encoded_len() + self.unaligned.encoded_len()
    }

    /// Wire bytes of the sidecar artifact section (0 on v1 frames).
    pub fn artifact_bytes(&self) -> usize {
        self.artifact_section.len()
    }

    /// Raw traffic bytes summarised.
    pub fn raw_bytes(&self) -> u64 {
        self.aligned.raw_bytes
    }

    /// Zero-copy `(kind, payload)` views of the sidecar artifacts
    /// (empty on v1 frames). The section was validated by `parse`, so
    /// this re-decode cannot fail.
    pub fn artifacts(&self) -> Vec<(u32, &'a [u8])> {
        if self.artifact_section.is_empty() {
            return Vec::new();
        }
        let mut cursor = self.artifact_section;
        artifact::decode_section_views(&mut cursor).expect("section validated at parse")
    }

    /// Copies the view into an owned [`RouterDigest`].
    pub fn to_owned(&self) -> RouterDigest {
        RouterDigest {
            router_id: self.router_id,
            epoch_id: self.epoch_id,
            aligned: self.aligned.to_owned(),
            unaligned: self.unaligned.to_owned(),
            artifacts: self
                .artifacts()
                .into_iter()
                .map(|(kind, payload)| Artifact {
                    kind,
                    payload: payload.to_vec(),
                })
                .collect(),
        }
    }
}

/// Bounded resend buffer: the chunk frames of one shipped epoch, kept
/// until the next epoch closes so the analysis centre's retransmit
/// requests (and post-restart recovery) can be served. Acked chunks are
/// pruned to bound memory further.
#[derive(Debug)]
struct ResendBuffer {
    epoch_id: u64,
    chunks: Vec<Option<Vec<u8>>>,
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
    pub fn observe_all<'a>(&mut self, pkts: impl IntoIterator<Item = &'a Packet>) -> bool {
        for p in pkts {
            self.observe(p);
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
    /// artifact attached when a sketch is configured).
    pub fn finish_epoch(&mut self) -> RouterDigest {
        let epoch_id = self.epoch;
        self.epoch += 1;
        let artifacts = match self.sketch.as_mut() {
            Some(s) => vec![Artifact::sketch(s.finish_epoch())],
            None => Vec::new(),
        };
        RouterDigest {
            router_id: self.router_id,
            epoch_id,
            aligned: self.aligned.finish_epoch(),
            unaligned: self.unaligned.finish_epoch(),
            artifacts,
        }
    }

    /// Closes the epoch and ships it as chunk frames (see
    /// [`crate::transport`]): the wire bundle split into CRC-trailed
    /// chunks of at most `max_payload` digest bytes each. The chunks are
    /// also retained in a bounded resend buffer — exactly one epoch deep,
    /// replacing the previous epoch's — so the analysis centre can
    /// [`resend`](Self::resend) lost or corrupted chunks until the next
    /// epoch closes.
    pub fn finish_epoch_chunks(&mut self, max_payload: usize) -> Result<Vec<Vec<u8>>, WireError> {
        let digest = self.finish_epoch();
        let wire = digest.encode_wire()?;
        let chunks = crate::transport::chunk_bundle(
            self.router_id as u64,
            digest.epoch_id,
            &wire,
            max_payload,
        );
        self.resend = Some(ResendBuffer {
            epoch_id: digest.epoch_id,
            chunks: chunks.iter().cloned().map(Some).collect(),
        });
        Ok(chunks)
    }

    /// Serves a retransmit request from the resend buffer: the still-held
    /// chunk frames of `epoch_id` selected by `missing`. Empty when the
    /// buffer holds a different epoch (the request outlived the buffer's
    /// one-epoch retention) or the requested chunks were pruned by
    /// [`ack`](Self::ack).
    pub fn resend(&self, epoch_id: u64, missing: &crate::session::Missing) -> Vec<Vec<u8>> {
        let Some(buf) = self.resend.as_ref().filter(|b| b.epoch_id == epoch_id) else {
            return Vec::new();
        };
        missing.select(&buf.chunks).flatten().cloned().collect()
    }

    /// Applies a cumulative ack from the collector: every chunk of
    /// `epoch_id` below `cumulative_ack` is pruned from the resend
    /// buffer, releasing its memory.
    pub fn ack(&mut self, epoch_id: u64, cumulative_ack: u32) {
        if let Some(buf) = self.resend.as_mut().filter(|b| b.epoch_id == epoch_id) {
            for c in buf.chunks.iter_mut().take(cumulative_ack as usize) {
                *c = None;
            }
        }
    }

    /// Chunk frames still held in the resend buffer (diagnostics; bounds
    /// the buffer's memory in tests).
    pub fn resend_buffered(&self) -> usize {
        self.resend
            .as_ref()
            .map_or(0, |b| b.chunks.iter().flatten().count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(d.raw_bytes() > 0);
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
        assert_eq!(view.raw_bytes(), d.raw_bytes());
        let (back, _) = RouterDigest::decode_wire(&wire).expect("roundtrip");
        assert_eq!(back.aligned, d.aligned);
        assert_eq!(back.unaligned, d.unaligned);
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
                RouterDigest::decode_wire(&wire[..cut]).is_err(),
                "strict prefix of {cut} bytes decoded"
            );
        }
        let mut bad = wire.to_vec();
        bad[0] = b'X';
        assert!(matches!(
            RouterDigest::decode_wire(&bad),
            Err(dcs_collect::WireError::BadMagic(_))
        ));
        let mut bad = wire.to_vec();
        bad[4] = 9;
        assert!(matches!(
            RouterDigest::decode_wire(&bad),
            Err(dcs_collect::WireError::BadVersion(9))
        ));
    }

    #[test]
    fn resend_buffer_serves_one_epoch_and_prunes_on_ack() {
        use crate::session::Missing;

        let cfg = MonitorConfig::small(7, 1 << 12, 4);
        let mut mp = MonitoringPoint::new(6, &cfg);
        let mut r = StdRng::seed_from_u64(8);
        let pkts = background(&mut r, 300, 60);
        mp.observe_all(&pkts);
        let chunks = mp.finish_epoch_chunks(256).expect("bundle fits the wire");
        assert!(chunks.len() > 1, "bundle should need several chunks");
        assert_eq!(mp.resend_buffered(), chunks.len());

        // Reassembling the resent chunks reproduces the original wire
        // bundle exactly.
        let all = mp.resend(0, &Missing::All);
        assert_eq!(all, chunks);
        let some = mp.resend(0, &Missing::Seqs(vec![1, 3]));
        assert_eq!(some, vec![chunks[1].clone(), chunks[3].clone()]);
        // Wrong epoch: nothing.
        assert!(mp.resend(9, &Missing::All).is_empty());

        // Acks prune; pruned chunks are no longer resendable.
        mp.ack(0, 2);
        assert_eq!(mp.resend_buffered(), chunks.len() - 2);
        assert_eq!(
            mp.resend(0, &Missing::Seqs(vec![0, 1, 2])),
            vec![chunks[2].clone()]
        );

        // The next epoch evicts the buffer entirely (one epoch deep).
        mp.observe_all(&pkts);
        let next = mp.finish_epoch_chunks(256).expect("bundle fits the wire");
        assert!(mp.resend(0, &Missing::All).is_empty());
        assert_eq!(mp.resend(1, &Missing::All), next);
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
        assert_eq!(view.artifact_bytes(), d.artifact_bytes());
        assert_eq!(view.to_owned().artifacts, d.artifacts);
        for cut in 0..wire.len() {
            assert!(
                RouterDigest::decode_wire(&wire[..cut]).is_err(),
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
        let wire = plain.finish_epoch().encode_wire().expect("encodes");
        assert_eq!(wire[4], 1, "artifact-free bundles stay on v1");

        // A hand-built v1 frame of the same digests matches byte for byte.
        let (owned, _) = RouterDigest::decode_wire(&wire).expect("decodes");
        assert!(owned.artifacts.is_empty());
        assert_eq!(owned.encode_wire().expect("re-encodes"), wire);
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The bundle decoder never panics on 64 KiB of byte soup, with
        /// the DCSR magic (and half the time the v2 version byte)
        /// stamped so the artifact-section path is exercised too.
        #[test]
        fn bundle_decoder_never_panics_on_64k_soup(
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..(64 * 1024)),
            stamp in proptest::prelude::any::<bool>(),
        ) {
            let mut soup = raw;
            if stamp && soup.len() >= 5 {
                soup[..4].copy_from_slice(&BUNDLE_MAGIC);
                soup[4] = 1 + (soup[4] % 2);
            }
            if let Ok((_, used)) = RouterDigest::decode_wire(&soup) {
                proptest::prop_assert!(used <= soup.len());
            }
        }
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
