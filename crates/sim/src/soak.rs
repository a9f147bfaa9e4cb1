//! The soak driver: many epochs of the full digest path, under loss, over
//! any topology. Each epoch every leaf monitoring point observes its
//! traffic, chunks its digest bundle and ships it up the topology's
//! tiers (see [`crate::hop`]) over
//! [`LossyChannel`](crate::channel::LossyChannel)s:
//! straight to the centre's [`EpochCollector`] ([`Topology::Flat`]), or
//! through one row of [`Aggregator`](dcs_core::aggregate::Aggregator)s
//! that forward the epoch as DCSG bundles ([`Topology::Tiered`]). The
//! centre analyses what arrived. An optional [`KillPlan`] crashes the
//! centre mid-epoch and resumes it from its checkpoint.
//!
//! An aggregated epoch also replays *flat*: the leaf frames inside the
//! bundles the centre collected are fed to a second centre as bare
//! frames, and both [`outcome_fingerprint`]s are recorded side by side.
//! The tier forwards leaf frames verbatim and validates once, at the
//! centre, so the pair must be byte-identical (DESIGN §7.1).
//!
//! Everything runs on virtual ticks from one seed: a run is a pure
//! function of its [`SoakConfig`], so two runs that differ only in
//! whether the centre crashed can be compared epoch by epoch.

use crate::channel::ChannelConfig;
use crate::hop::{epoch_seed, Tier, TierDriver};
use dcs_core::aggregate::AggregateBundle;
use dcs_core::center::{AnalysisCenter, AnalysisConfig};
use dcs_core::ingest::IngestError;
use dcs_core::monitor::{MonitorConfig, MonitoringPoint, RouterDigest};
use dcs_core::report::{EpochReport, TransportStats};
use dcs_core::session::{CollectedEpoch, CollectorConfig, EpochCollector};
use dcs_traffic::{gen, BackgroundConfig, ContentObject, FlowLabel, Packet, Planting, SizeMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Payload bytes of every generated packet.
const PAYLOAD: usize = 536;

/// Kill the centre mid-epoch: checkpoint the collector at the given tick
/// offset of the given epoch, lose everything in flight, resume from the
/// checkpoint.
///
/// The checkpoint is taken at the instant the centre dies. That is the
/// state `dcs-cli serve` writes only on SIGTERM, so a soak with a
/// `KillPlan` covers a graceful restart. No test covers a SIGKILL
/// between `serve`'s periodic (64-tick) snapshots, where the resumed
/// centre starts from an older checkpoint than the one it died with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Which soak epoch (0-based) the crash hits.
    pub epoch: usize,
    /// Tick offset within that epoch at which the centre dies.
    pub tick: u64,
}

/// Where the leaves' bundles go. Leaves are partitioned contiguously among
/// the regional aggregators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Leaves → centre: the leaf hop is the only hop.
    Flat,
    /// Leaves → `aggregators` regional aggregators → centre.
    Tiered {
        /// Regional aggregators.
        aggregators: usize,
    },
}

/// What the leaves observe each epoch, on top of their background.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// One aligned content object (none when `content_packets` is 0)
    /// planted at leaves `0..infected`.
    Plant,
    /// A DNS-amplification attack (after Afek et al.): amplified DNS
    /// responses replayed to spoofed victims, spliced into the traffic of
    /// leaves `0..infected`.
    Attack {
        /// Times each attacked leaf replays the object per epoch.
        intensity: usize,
    },
}

/// Parameters of one soak run.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Where the leaves' bundles go.
    pub topology: Topology,
    /// What the infected leaves carry.
    pub traffic: Traffic,
    /// Leaf monitoring points.
    pub leaves: usize,
    /// Leaves `0..infected` carry the plant or the attack each epoch.
    pub infected: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Master seed; every epoch derives its own traffic, channel and
    /// jitter seeds from it.
    pub seed: u64,
    /// Packets of the content object.
    pub content_packets: usize,
    /// Background packets per leaf per epoch.
    pub bg_packets: usize,
    /// Background flows per leaf per epoch.
    pub bg_flows: usize,
    /// Impairments of the leaf hop (each link reseeded per epoch).
    pub leaf_channel: ChannelConfig,
    /// Impairments of every hop above the aggregators.
    pub up_channel: ChannelConfig,
    /// Chunk payload bound on every hop.
    pub max_payload: usize,
    /// The centre's minimum surviving-leaf quorum.
    pub min_quorum: usize,
    /// Optional mid-soak centre crash.
    pub kill: Option<KillPlan>,
    /// Aligned bitmap width per leaf.
    pub aligned_bits: usize,
    /// Flow-split groups per leaf.
    pub groups_per_leaf: usize,
    /// Unaligned arrays per group (paper: 10).
    pub arrays_per_group: usize,
    /// Bits per unaligned array (paper: 1,024).
    pub array_bits: usize,
}

impl SoakConfig {
    /// The flat soak regime: 24 leaves, 20 infected, every hop lossy per
    /// [`ChannelConfig::soak`], quorum-16 floor, no crash.
    pub fn standard(epochs: usize, seed: u64) -> Self {
        SoakConfig {
            topology: Topology::Flat,
            traffic: Traffic::Plant,
            leaves: 24,
            infected: 20,
            epochs,
            seed,
            content_packets: 30,
            bg_packets: 800,
            bg_flows: 200,
            leaf_channel: ChannelConfig::soak(),
            up_channel: ChannelConfig::soak(),
            max_payload: 1024,
            min_quorum: 16,
            kill: None,
            aligned_bits: 1 << 14,
            groups_per_leaf: 4,
            arrays_per_group: 10,
            array_bits: 1024,
        }
    }

    /// The standard regime behind 3 regional aggregators.
    pub fn tiered(epochs: usize, seed: u64) -> Self {
        SoakConfig {
            topology: Topology::Tiered { aggregators: 3 },
            ..Self::standard(epochs, seed)
        }
    }

    /// A wide deployment: `leaves` (1,000+) tiny-digest leaves behind
    /// `aggregators` regions, nothing planted. Digests shrink to one group
    /// of two paper-width 1,024-bit arrays per leaf: a wide run is about
    /// topology accounting, not detection power.
    pub fn wide(leaves: usize, aggregators: usize, epochs: usize, seed: u64) -> Self {
        SoakConfig {
            topology: Topology::Tiered { aggregators },
            leaves,
            infected: 0,
            max_payload: 4096,
            min_quorum: leaves / 2,
            content_packets: 0,
            bg_packets: 40,
            bg_flows: 16,
            aligned_bits: 1 << 10,
            groups_per_leaf: 1,
            arrays_per_group: 2,
            ..Self::standard(epochs, seed)
        }
    }

    /// The DNS-amplification attack at 20 of 24 leaves behind 3
    /// aggregators, the object replayed 20 times over a lighter background.
    pub fn attack(epochs: usize, seed: u64) -> Self {
        SoakConfig {
            traffic: Traffic::Attack { intensity: 20 },
            bg_packets: 400,
            bg_flows: 120,
            ..Self::tiered(epochs, seed)
        }
    }

    /// Every leaf's monitoring-point configuration.
    pub fn monitor_config(&self) -> MonitorConfig {
        let mut mcfg = MonitorConfig::deployed(self.aligned_bits, self.groups_per_leaf);
        mcfg.unaligned.arrays_per_group = self.arrays_per_group;
        mcfg.unaligned.array_bits = self.array_bits;
        mcfg
    }

    /// The centre's configuration.
    pub fn analysis_config(&self) -> AnalysisConfig {
        AnalysisConfig::deployed(self.leaves * self.groups_per_leaf, self.aligned_bits)
            .with_min_quorum(self.min_quorum)
    }

    /// One epoch's traffic at every leaf, drawn from `rng`: the content
    /// (the plant's object, or the whole attack) first, then per leaf its
    /// background followed by what is planted or spliced into it.
    pub fn leaf_traffic(&self, rng: &mut StdRng) -> Vec<Vec<Packet>> {
        let bg = BackgroundConfig {
            packets: self.bg_packets,
            flows: self.bg_flows,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(PAYLOAD),
        };
        match self.traffic {
            Traffic::Plant => {
                let plant = (self.content_packets > 0).then(|| {
                    let object =
                        ContentObject::random_with_packets(rng, self.content_packets, PAYLOAD);
                    Planting::aligned(object, PAYLOAD)
                });
                (0..self.leaves)
                    .map(|id| {
                        let mut traffic = gen::generate_epoch(rng, &bg);
                        if let Some(plant) = plant.as_ref().filter(|_| id < self.infected) {
                            plant.plant_into(rng, &mut traffic);
                        }
                        traffic
                    })
                    .collect()
            }
            Traffic::Attack { intensity } => {
                let injections = self.plan_attack(intensity, rng);
                (0..self.leaves)
                    .map(|id| {
                        let mut traffic = gen::generate_epoch(rng, &bg);
                        if id < self.infected {
                            let at = if traffic.is_empty() {
                                0
                            } else {
                                rng.gen_range(0..=traffic.len())
                            };
                            traffic.splice(at..at, injections[id].iter().cloned());
                        }
                        traffic
                    })
                    .collect()
            }
        }
    }

    /// One epoch at every leaf, outside the driver: [`Self::leaf_traffic`]
    /// drawn from `seed`, observed by fresh monitoring points (so every
    /// digest is epoch 0).
    pub fn leaf_digests(&self, seed: u64) -> Vec<RouterDigest> {
        let mcfg = self.monitor_config();
        (self.leaf_traffic(&mut StdRng::seed_from_u64(seed)).iter())
            .enumerate()
            .map(|(id, traffic)| {
                let mut mp = MonitoringPoint::new(id, &mcfg);
                mp.observe_all(traffic);
                mp.finish_epoch()
            })
            .collect()
    }

    /// The DCSR frames of [`Self::leaf_digests`], in leaf order.
    pub fn leaf_frames(&self, seed: u64) -> Vec<Vec<u8>> {
        (self.leaf_digests(seed).iter())
            .map(|d| d.encode_wire().expect("leaf digests fit the wire"))
            .collect()
    }

    /// One epoch's DNS-amplification packets: `injections[l]` goes into
    /// leaf `l`'s traffic. The resolver replays the amplified response to
    /// a fresh spoofed victim per repetition; src port 53/UDP marks the
    /// reflector.
    fn plan_attack(&self, intensity: usize, rng: &mut StdRng) -> Vec<Vec<Packet>> {
        let object = ContentObject::random_with_packets(rng, self.content_packets, PAYLOAD);
        let payloads = object.packetize(&[], PAYLOAD);
        (0..self.infected)
            .map(|_| {
                let mut pkts = Vec::with_capacity(intensity * payloads.len());
                for _ in 0..intensity {
                    let flow = FlowLabel {
                        src_ip: rng.gen(),
                        dst_ip: rng.gen(),
                        src_port: 53,
                        dst_port: rng.gen_range(1024..=u16::MAX),
                        proto: 17,
                    };
                    pkts.extend(payloads.iter().map(|p| Packet::new(flow, p.clone())));
                }
                pkts
            })
            .collect()
    }

    /// The tiers of the topology, leaves first. A flat run's one tier
    /// carries salts 0/0.
    fn tiers(&self) -> Vec<Tier> {
        let tier = |fan_in, channel, channel_salt, collector_salt| Tier {
            fan_in,
            collector: CollectorConfig::default(),
            channel,
            channel_salt,
            collector_salt,
        };
        let centre = tier(1, self.up_channel, 0xA55A, 0x5A5A);
        match self.topology {
            Topology::Flat => vec![tier(1, self.leaf_channel, 0, 0)],
            Topology::Tiered { aggregators } => {
                vec![tier(aggregators, self.leaf_channel, 0, 0), centre]
            }
        }
    }
}

/// What one soak epoch produced.
#[derive(Debug, Clone)]
pub enum EpochOutcome {
    /// The epoch reached quorum and was analysed.
    Report(Box<EpochReport>),
    /// Too few leaves survived transport + validation; the typed
    /// degradation outcome, never a panic.
    QuorumTooSmall {
        /// The configured floor.
        required: usize,
        /// Leaves that did survive.
        accepted: usize,
    },
}

impl EpochOutcome {
    /// Maps one analysed epoch's result onto the typed outcome; an empty
    /// epoch counts as zero survivors against the `min_quorum` floor.
    fn from(min_quorum: usize, result: Result<EpochReport, IngestError>) -> Self {
        match result {
            Ok(report) => EpochOutcome::Report(Box::new(report)),
            Err(IngestError::QuorumTooSmall { required, report }) => EpochOutcome::QuorumTooSmall {
                required,
                accepted: report.accepted.len(),
            },
            Err(IngestError::NoDigests) => EpochOutcome::QuorumTooSmall {
                required: min_quorum,
                accepted: 0,
            },
        }
    }
}

/// Fingerprint of a typed epoch outcome: the report's
/// [`EpochReport::detection_fingerprint`], a compact quorum marker
/// otherwise.
pub fn outcome_fingerprint(o: &EpochOutcome) -> String {
    match o {
        EpochOutcome::Report(r) => r.detection_fingerprint(),
        EpochOutcome::QuorumTooSmall { accepted, .. } => {
            format!("{{\"quorum_too_small\":{accepted}}}")
        }
    }
}

/// The full soak record.
#[derive(Debug)]
pub struct SoakResult {
    /// One outcome per epoch, in order.
    pub outcomes: Vec<EpochOutcome>,
    /// Per-epoch `(aggregated, flat replay)` outcome fingerprints of an
    /// aggregated topology; empty on a flat one. Equal strings = detection
    /// equivalence held.
    pub detection_pairs: Vec<(String, String)>,
    /// Leaf-hop delivery stats, summed over its links and every epoch. On
    /// a flat topology these are the centre's own.
    pub leaf_totals: TransportStats,
    /// Delivery stats of every hop above the aggregators, summed; zero on
    /// a flat topology.
    pub up_totals: TransportStats,
    /// Ticks the virtual clock advanced over the whole run.
    pub ticks: u64,
    /// The aggregation tiers' metrics (per-level finalize spans,
    /// forwarded bytes, per-fault child exclusions).
    pub agg_metrics: dcs_core::MetricsSnapshot,
    /// The centre's final metrics snapshot: cumulative per-stage timings,
    /// ingest/transport counters and kernel dispatch across every analysed
    /// epoch of the run.
    pub metrics: dcs_core::MetricsSnapshot,
}

impl SoakResult {
    /// Epochs that reached quorum.
    pub fn quorum_epochs(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, EpochOutcome::Report(_)))
            .count()
    }

    /// Whether every epoch's aggregated and flat-replay fingerprints
    /// matched.
    pub fn detection_equivalent(&self) -> bool {
        self.detection_pairs.iter().all(|(t, f)| t == f)
    }
}

/// Runs the soak. Deterministic in `cfg`; panics only on harness bugs —
/// every transport or quorum failure is a typed [`EpochOutcome`].
pub fn run_soak(cfg: &SoakConfig) -> SoakResult {
    assert!(cfg.infected <= cfg.leaves);
    if let Topology::Tiered { aggregators } = cfg.topology {
        assert!(aggregators >= 1 && cfg.leaves >= aggregators);
    }
    let mcfg = cfg.monitor_config();
    let mut monitors: Vec<MonitoringPoint> = (0..cfg.leaves)
        .map(|id| MonitoringPoint::new(id, &mcfg))
        .collect();
    let center = AnalysisCenter::new(cfg.analysis_config());
    // The flat-replay centre: identical configuration, fed the same
    // delivered leaf frames without the tier in between.
    let replay =
        (cfg.topology != Topology::Flat).then(|| AnalysisCenter::new(cfg.analysis_config()));
    let tiers = cfg.tiers();
    let centre = *tiers.last().expect("every topology ends at the centre");
    let mut driver = TierDriver::new(&tiers, cfg.max_payload);

    let mut outcomes = Vec::with_capacity(cfg.epochs);
    let mut detection_pairs = Vec::new();
    let mut leaf_totals = TransportStats::default();
    let mut up_totals = TransportStats::default();
    let mut now: u64 = 0;
    let mut crashed = false;

    for e in 0..cfg.epochs {
        let epoch_seed = epoch_seed(cfg.seed, e);
        let traffic = cfg.leaf_traffic(&mut StdRng::seed_from_u64(epoch_seed));
        for (mp, traffic) in monitors.iter_mut().zip(&traffic) {
            mp.observe_all(traffic);
        }

        let kill = cfg.kill.filter(|k| k.epoch == e);
        let (epoch, stats) = driver.ship_epoch(
            &mut monitors,
            epoch_seed,
            &mut now,
            |channel, collector, now| {
                if kill.is_some_and(|k| !crashed && now >= collector.started_at() + k.tick) {
                    crashed = true;
                    // The centre dies: progress survives only through the
                    // checkpoint; frames addressed to it are lost.
                    let ckpt = collector.checkpoint();
                    channel.clear();
                    let seed = epoch_seed ^ centre.collector_salt;
                    *collector = EpochCollector::resume(&ckpt, centre.collector, seed, now)
                        .expect("own checkpoint must resume");
                }
            },
        );
        leaf_totals += stats[0];
        for s in &stats[1..] {
            up_totals += *s;
        }

        let typed = |result| EpochOutcome::from(cfg.min_quorum, result);
        let outcome = match &replay {
            None => typed(center.analyze_epoch_collected(&epoch)),
            Some(flat_center) => {
                // The leaf frames inside the bundles the centre collected:
                // what a flat deployment would have delivered.
                let delivered = (epoch.frames.iter())
                    .filter_map(|(_, bytes)| AggregateBundle::decode_wire(bytes).ok())
                    .flat_map(|(bundle, _)| bundle.frames);
                let flat = CollectedEpoch::from_frames(delivered);
                let flat = typed(flat_center.analyze_epoch_collected(&flat));
                let outcome = typed(center.analyze_epoch_aggregated_collected(&epoch));
                detection_pairs.push((outcome_fingerprint(&outcome), outcome_fingerprint(&flat)));
                outcome
            }
        };
        outcomes.push(outcome);
        now += 1;
    }

    SoakResult {
        outcomes,
        detection_pairs,
        leaf_totals,
        up_totals,
        ticks: now,
        agg_metrics: driver.agg_metrics.snapshot(),
        metrics: center.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_every_epoch_found(result: &SoakResult) {
        for o in &result.outcomes {
            let EpochOutcome::Report(r) = o else {
                panic!("epoch missed quorum: {:?}", result.detection_pairs)
            };
            assert!(r.aligned.found, "planted content missed");
        }
    }

    #[test]
    fn perfect_channel_soak_detects_every_epoch() {
        let mut cfg = SoakConfig::standard(2, 11);
        cfg.leaf_channel = ChannelConfig::perfect();
        let result = run_soak(&cfg);
        assert_eq!(result.quorum_epochs(), 2);
        assert_every_epoch_found(&result);
        for o in &result.outcomes {
            let EpochOutcome::Report(r) = o else {
                unreachable!()
            };
            assert_eq!(r.routers, 24);
            assert_eq!(r.transport.retransmits, 0);
            assert_eq!(r.transport.corrupt_chunks, 0);
        }
        assert!(result.leaf_totals.chunks_received > 0);
        assert_eq!(result.up_totals, TransportStats::default());
        assert!(
            result.detection_pairs.is_empty(),
            "a flat run replays nothing"
        );
        assert_eq!(
            result.metrics.counter("epochs_analyzed_total"),
            Some(2),
            "soak metrics must cover every analysed epoch"
        );
        assert_eq!(
            result.metrics.counter("transport_chunks_received_total"),
            Some(result.leaf_totals.chunks_received),
        );
    }

    #[test]
    fn lossy_soak_recovers_via_retransmits() {
        let result = run_soak(&SoakConfig::standard(2, 12));
        assert_eq!(result.quorum_epochs(), 2);
        assert!(
            result.leaf_totals.retransmits > 0,
            "a 10% loss regime must trigger retransmits"
        );
        assert_every_epoch_found(&result);
    }

    #[test]
    fn tiered_soak_detects_and_matches_flat_ingest() {
        let result = run_soak(&SoakConfig::tiered(2, 21));
        assert_eq!(result.quorum_epochs(), 2, "{:?}", result.detection_pairs);
        assert!(
            result.detection_equivalent(),
            "tiered and flat detection diverged: {:?}",
            result.detection_pairs
        );
        assert_eq!(result.detection_pairs.len(), 2);
        assert_every_epoch_found(&result);
        assert!(
            result.leaf_totals.retransmits > 0,
            "lossy child hop must retransmit"
        );
        assert!(
            result
                .agg_metrics
                .gauge("aggregate_fuse_ns{level=1}")
                .is_some(),
            "aggregator tier must record its finalize span"
        );
        // The centre's unaligned graph engine ran: the pair-accounting
        // counter exists and work happened.
        assert!(
            result.metrics.counter("pairs_exact_total").unwrap_or(0) > 0,
            "tiered soak tested no unaligned row pairs"
        );
    }

    #[test]
    fn perfect_channels_account_every_leaf_through_the_tiers() {
        let mut cfg = SoakConfig::tiered(1, 22);
        cfg.leaf_channel = ChannelConfig::perfect();
        cfg.up_channel = ChannelConfig::perfect();
        let result = run_soak(&cfg);
        assert_eq!(result.quorum_epochs(), 1);
        assert!(result.detection_equivalent());
        assert_eq!(result.leaf_totals.retransmits, 0);
        assert_eq!(result.up_totals.retransmits, 0);
        let EpochOutcome::Report(r) = &result.outcomes[0] else {
            unreachable!()
        };
        assert_eq!(r.routers, 24);
        assert_eq!(r.ingest.submitted, 24, "quorum counts leaves");
    }

    #[test]
    fn centre_kill_under_the_tier_resumes_once_and_detects_identically() {
        let baseline = run_soak(&SoakConfig::tiered(3, 23));
        let killed = run_soak(&SoakConfig {
            kill: Some(KillPlan { epoch: 1, tick: 4 }),
            ..SoakConfig::tiered(3, 23)
        });
        assert_eq!(baseline.up_totals.checkpoint_resumes, 0);
        assert_eq!(
            killed.up_totals.checkpoint_resumes, 1,
            "the crash must recover through exactly one checkpoint resume"
        );
        assert_eq!(killed.leaf_totals.checkpoint_resumes, 0);
        assert_eq!(baseline.quorum_epochs(), 3);
        assert!(baseline.detection_equivalent() && killed.detection_equivalent());
        for (e, (a, b)) in baseline.outcomes.iter().zip(&killed.outcomes).enumerate() {
            let (EpochOutcome::Report(a), EpochOutcome::Report(b)) = (a, b) else {
                panic!("epoch {e} missed quorum")
            };
            assert!(a.aligned.found, "epoch {e}: nothing to compare");
            assert_eq!(
                a.detection_fingerprint(),
                b.detection_fingerprint(),
                "epoch {e} diverged after kill/restart"
            );
            assert_eq!(a.ingest.accepted, b.ingest.accepted, "epoch {e}");
        }
    }

    #[test]
    fn dns_amplification_attack_is_detected() {
        let result = run_soak(&SoakConfig::attack(2, 41));
        assert_eq!(result.quorum_epochs(), 2);
        assert_every_epoch_found(&result);
        assert!(
            result.detection_equivalent(),
            "{:?}",
            result.detection_pairs
        );
        assert!(
            result.leaf_totals.retransmits > 0,
            "lossy child hop must retransmit"
        );
    }

    #[test]
    fn attack_quorum_collapse_is_a_typed_outcome() {
        let mut cfg = SoakConfig::attack(1, 53);
        // Nothing survives a hop that drops everything; the soak must
        // still terminate with a typed quorum failure, not a panic.
        cfg.up_channel = ChannelConfig {
            drop_prob: 1.0,
            ..ChannelConfig::perfect()
        };
        let result = run_soak(&cfg);
        assert_eq!(result.quorum_epochs(), 0);
        assert!(matches!(
            result.outcomes[0],
            EpochOutcome::QuorumTooSmall { accepted: 0, .. }
        ));
        assert!(
            result.detection_equivalent(),
            "{:?}",
            result.detection_pairs
        );
    }
}
