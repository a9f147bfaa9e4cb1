//! Two-level topology soak: leaves → regional aggregators → centre.
//!
//! The flat [`soak`](crate::soak) harness stops being a realistic model
//! past a few dozen routers — every leaf would hold a retransmit session
//! straight to the centre. This harness drives the aggregation tier
//! instead: each epoch, every leaf chunks its digest bundle onto its
//! region's [`LossyChannel`](crate::channel::LossyChannel); a per-region
//! [`Aggregator`](dcs_core::aggregate::Aggregator) reassembles the child
//! hop, forwards the epoch as one [`AggregateBundle`] and ships it —
//! as ordinary DCSC chunks — over a second lossy hop to the centre's
//! [`EpochCollector`](dcs_core::session::EpochCollector), which feeds
//! `analyze_epoch_aggregated_collected`. The hops are tiers of the
//! shared driver in [`crate::hop`]; the deep variant inserts one more.
//!
//! Every epoch also replays *flat*: the child frames that actually
//! survived to the centre are fed straight to a second analysis centre
//! as bare frames (`CollectedEpoch::from_frames`), and both detection
//! fingerprints are recorded side by side. The tiered path forwards
//! child frames verbatim and validates globally, so the pair must be
//! byte-identical — the harness's central acceptance check.

use crate::channel::ChannelConfig;
use crate::hop::{epoch_seed, Tier, TierDriver};
use crate::soak::EpochOutcome;
use dcs_core::aggregate::AggregateBundle;
use dcs_core::center::{AnalysisCenter, AnalysisConfig};
use dcs_core::monitor::{MonitorConfig, MonitoringPoint};
use dcs_core::report::{EpochReport, TransportStats};
use dcs_core::session::{CollectedEpoch, CollectorConfig};
use dcs_traffic::{gen, BackgroundConfig, ContentObject, Planting, SizeMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of one two-level soak run.
#[derive(Debug, Clone, Copy)]
pub struct TieredSoakConfig {
    /// Leaf monitoring points.
    pub leaves: usize,
    /// Regional aggregators; leaves are partitioned contiguously.
    pub aggregators: usize,
    /// Leaves `0..infected` carry the planted content each epoch.
    pub infected: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Master seed (per-epoch seeds derive from it as in the flat soak).
    pub seed: u64,
    /// Impairments of the leaf → aggregator hop (each region gets its
    /// own channel, reseeded per epoch).
    pub leaf_channel: ChannelConfig,
    /// Impairments of the aggregator → centre hop.
    pub up_channel: ChannelConfig,
    /// Collector settings of each aggregator (child hop).
    pub leaf_collector: CollectorConfig,
    /// Collector settings of the centre (upstream hop).
    pub up_collector: CollectorConfig,
    /// Chunk payload bound on both hops.
    pub max_payload: usize,
    /// The centre's minimum surviving-*leaf* quorum.
    pub min_quorum: usize,
    /// Packets of the planted content object (0 = no plant).
    pub content_packets: usize,
    /// Background packets per leaf per epoch.
    pub bg_packets: usize,
    /// Background flows per leaf per epoch.
    pub bg_flows: usize,
    /// Aligned bitmap width per leaf.
    pub aligned_bits: usize,
    /// Flow-split groups per leaf.
    pub groups_per_leaf: usize,
    /// Unaligned arrays per group (paper: 10; shrink for wide runs).
    pub arrays_per_group: usize,
    /// Bits per unaligned array (paper: 1,024; shrink for wide runs).
    pub array_bits: usize,
}

impl TieredSoakConfig {
    /// The issue's baseline regime at paper shapes: 24 leaves behind 3
    /// aggregators, lossy on both hops, quorum-16 floor.
    pub fn standard(epochs: usize, seed: u64) -> Self {
        TieredSoakConfig {
            leaves: 24,
            aggregators: 3,
            infected: 20,
            epochs,
            seed,
            leaf_channel: ChannelConfig::soak(),
            up_channel: ChannelConfig::soak(),
            leaf_collector: CollectorConfig::default(),
            up_collector: CollectorConfig::default(),
            max_payload: 1024,
            min_quorum: 16,
            content_packets: 30,
            bg_packets: 800,
            bg_flows: 200,
            aligned_bits: 1 << 14,
            groups_per_leaf: 4,
            arrays_per_group: 10,
            array_bits: 1024,
        }
    }

    /// A wide-deployment regime: `leaves` (1,000+) tiny-digest leaves
    /// behind `aggregators` regions. Digest shapes are reduced from the
    /// paper's (one group of two paper-width 1,024-bit arrays per
    /// leaf). The point of a wide run is topology accounting, not
    /// detection power.
    pub fn wide(leaves: usize, aggregators: usize, epochs: usize, seed: u64) -> Self {
        TieredSoakConfig {
            leaves,
            aggregators,
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
}

/// The full tiered-soak record.
#[derive(Debug)]
pub struct TieredSoakResult {
    /// One outcome per epoch, in order.
    pub outcomes: Vec<EpochOutcome>,
    /// Per-epoch `(tiered, flat)` detection fingerprints: the tiered
    /// path's verdicts next to a flat run over the same delivered child
    /// frames. Equal strings = detection equivalence held.
    pub detection_pairs: Vec<(String, String)>,
    /// Child-hop delivery stats summed over all aggregators and epochs.
    pub leaf_totals: TransportStats,
    /// Upstream-hop delivery stats summed over all epochs.
    pub up_totals: TransportStats,
    /// Ticks the virtual clock advanced.
    pub ticks: u64,
    /// The aggregation tier's metrics (per-level finalize spans,
    /// forwarded bytes, per-fault child exclusions).
    pub agg_metrics: dcs_core::MetricsSnapshot,
    /// The centre's metrics.
    pub metrics: dcs_core::MetricsSnapshot,
}

impl TieredSoakResult {
    /// Epochs that reached quorum.
    pub fn quorum_epochs(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, EpochOutcome::Report(_)))
            .count()
    }

    /// Whether every epoch's tiered and flat fingerprints matched.
    pub fn detection_equivalent(&self) -> bool {
        self.detection_pairs.iter().all(|(t, f)| t == f)
    }
}

/// Detection-only fingerprint of an analysed epoch: exactly the fields
/// that must agree between the tiered and flat ingest paths. Ingest
/// indices and transport stats are deliberately excluded — the two
/// paths account those differently by design.
pub fn detection_fingerprint(r: &EpochReport) -> String {
    format!(
        "{{\"found\":{},\"routers\":{:?},\"packets\":{},\"signature\":{:?},\"alarm\":{},\"component\":{},\"suspected\":{:?},\"groups\":{:?}}}",
        r.aligned.found,
        r.aligned.routers,
        r.aligned.content_packets,
        r.aligned.signature_indices,
        r.unaligned.alarm,
        r.unaligned.largest_component,
        r.unaligned.suspected_routers,
        r.unaligned.suspected_groups,
    )
}

/// Fingerprint of a typed epoch outcome: the detection fingerprint for
/// a report, a compact quorum marker otherwise.
pub fn outcome_fingerprint(o: &EpochOutcome) -> String {
    match o {
        EpochOutcome::Report(r) => detection_fingerprint(r),
        EpochOutcome::QuorumTooSmall { accepted, .. } => {
            format!("{{\"quorum_too_small\":{accepted}}}")
        }
    }
}

/// The leaf frames inside the aggregate bundles the centre collected —
/// what a flat deployment would have delivered.
pub(crate) fn delivered_leaf_frames(epoch: &CollectedEpoch) -> Vec<Vec<u8>> {
    epoch
        .frames
        .iter()
        .filter_map(|(_, bytes)| AggregateBundle::decode_wire(bytes).ok())
        .flat_map(|(bundle, _)| bundle.frames)
        .collect()
}

/// The tiers of an aggregated topology: `aggregators` regional
/// aggregators over the leaf hop, one more super-aggregator tier when
/// `deep`, then the centre.
pub(crate) fn aggregated_tiers(
    aggregators: usize,
    leaf: (CollectorConfig, ChannelConfig),
    up: (CollectorConfig, ChannelConfig),
    deep: bool,
) -> Vec<Tier> {
    let tier = |fan_in, (collector, channel), channel_salt, collector_salt| Tier {
        fan_in,
        collector,
        channel,
        channel_salt,
        collector_salt,
    };
    let mut tiers = vec![tier(aggregators, leaf, 0, 0)];
    if deep {
        tiers.push(tier(1, up, 0xB44B, 0x2222));
    }
    tiers.push(tier(1, up, 0xA55A, 0x5A5A));
    tiers
}

/// Runs the two-level soak. Deterministic in `cfg`; every transport or
/// quorum failure is a typed outcome, never a panic.
pub fn run_tiered_soak(cfg: &TieredSoakConfig) -> TieredSoakResult {
    run(cfg, false)
}

/// Runs the *deep* soak: leaves → level-1 regional aggregators → one
/// level-2 super-aggregator → centre, with an independent lossy hop
/// between every tier. The level-2 aggregator receives whole DCSG
/// bundles as its child frames and flattens them (leaf frames spliced
/// verbatim, exclusions re-wrapped one
/// [`dcs_core::ingest::RouterFault::AtLevel`] deeper), so the centre
/// still counts quorum in *leaves* after three aggregation levels.
pub fn run_tiered_soak_deep(cfg: &TieredSoakConfig) -> TieredSoakResult {
    run(cfg, true)
}

fn run(cfg: &TieredSoakConfig, deep: bool) -> TieredSoakResult {
    assert!(cfg.aggregators >= 1 && cfg.leaves >= cfg.aggregators);
    assert!(cfg.infected <= cfg.leaves);
    let mut mcfg = MonitorConfig::small(7, cfg.aligned_bits, cfg.groups_per_leaf);
    mcfg.unaligned.arrays_per_group = cfg.arrays_per_group;
    mcfg.unaligned.array_bits = cfg.array_bits;
    let mut monitors: Vec<MonitoringPoint> = (0..cfg.leaves)
        .map(|id| MonitoringPoint::new(id, &mcfg))
        .collect();

    let make_center = || {
        let mut acfg = AnalysisConfig::for_groups(cfg.leaves * cfg.groups_per_leaf)
            .with_min_quorum(cfg.min_quorum);
        acfg.search.n_prime = 400.min(cfg.aligned_bits);
        acfg.search.hopefuls = 300.min(cfg.aligned_bits);
        AnalysisCenter::new(acfg)
    };
    let center = make_center();
    // The flat-replay centre: identical configuration, fed the same
    // delivered child frames without the tier in between.
    let flat_center = make_center();
    let mut tiers = TierDriver::new(
        &aggregated_tiers(
            cfg.aggregators,
            (cfg.leaf_collector, cfg.leaf_channel),
            (cfg.up_collector, cfg.up_channel),
            deep,
        ),
        cfg.max_payload,
    );

    let bg = BackgroundConfig {
        packets: cfg.bg_packets,
        flows: cfg.bg_flows,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };

    let mut outcomes: Vec<EpochOutcome> = Vec::with_capacity(cfg.epochs);
    let mut flat_fingerprints: Vec<String> = Vec::with_capacity(cfg.epochs);
    let mut leaf_totals = TransportStats::default();
    let mut up_totals = TransportStats::default();
    let mut now: u64 = 0;

    for e in 0..cfg.epochs {
        let epoch_seed = epoch_seed(cfg.seed, e);
        let mut rng = StdRng::seed_from_u64(epoch_seed);
        let plant = (cfg.content_packets > 0).then(|| {
            Planting::aligned(
                ContentObject::random_with_packets(&mut rng, cfg.content_packets, 536),
                536,
            )
        });
        for (id, mp) in monitors.iter_mut().enumerate() {
            let mut traffic = gen::generate_epoch(&mut rng, &bg);
            if let Some(plant) = plant.as_ref().filter(|_| id < cfg.infected) {
                plant.plant_into(&mut rng, &mut traffic);
            }
            mp.observe_all(&traffic);
        }

        let (epoch, stats) = tiers.ship_epoch(&mut monitors, epoch_seed, &mut now, |_, _, _| {});
        leaf_totals += stats[0];
        for s in &stats[1..] {
            up_totals += *s;
        }

        // Flat replay: the leaf frames that actually reached the centre,
        // straight into a flat run.
        let flat = CollectedEpoch::from_frames(delivered_leaf_frames(&epoch));
        flat_fingerprints.push(outcome_fingerprint(&EpochOutcome::from(
            cfg.min_quorum,
            flat_center.analyze_epoch_collected(&flat),
        )));

        outcomes.push(EpochOutcome::from(
            cfg.min_quorum,
            center.analyze_epoch_aggregated_collected(&epoch),
        ));
        now += 1;
    }

    let detection_pairs = outcomes
        .iter()
        .map(outcome_fingerprint)
        .zip(flat_fingerprints)
        .collect();
    TieredSoakResult {
        outcomes,
        detection_pairs,
        leaf_totals,
        up_totals,
        ticks: now,
        agg_metrics: tiers.agg_metrics.snapshot(),
        metrics: center.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelConfig;

    #[test]
    fn tiered_soak_detects_and_matches_flat_ingest() {
        let cfg = TieredSoakConfig::standard(2, 21);
        let result = run_tiered_soak(&cfg);
        assert_eq!(result.quorum_epochs(), 2, "{:?}", result.detection_pairs);
        assert!(
            result.detection_equivalent(),
            "tiered and flat detection diverged: {:?}",
            result.detection_pairs
        );
        for o in &result.outcomes {
            let EpochOutcome::Report(r) = o else {
                unreachable!()
            };
            assert!(r.aligned.found, "planted content missed through the tier");
        }
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
    fn deep_soak_three_levels_detects_and_matches_flat_ingest() {
        let cfg = TieredSoakConfig::standard(2, 31);
        let result = run_tiered_soak_deep(&cfg);
        assert_eq!(result.quorum_epochs(), 2, "{:?}", result.detection_pairs);
        assert!(
            result.detection_equivalent(),
            "deep and flat detection diverged: {:?}",
            result.detection_pairs
        );
        for o in &result.outcomes {
            let EpochOutcome::Report(r) = o else {
                unreachable!()
            };
            assert!(r.aligned.found, "planted content missed through 3 levels");
            // Leaf-based quorum accounting composes through the extra
            // hop: everything the centre counts is a leaf, never an
            // aggregator bundle.
            assert!(r.ingest.submitted <= cfg.leaves);
            assert!(r.ingest.accepted.len() >= cfg.min_quorum);
        }
        // Both aggregation levels recorded finalize spans.
        assert!(
            result
                .agg_metrics
                .gauge("aggregate_fuse_ns{level=1}")
                .is_some(),
            "level-1 finalize span missing"
        );
        assert!(
            result
                .agg_metrics
                .gauge("aggregate_fuse_ns{level=2}")
                .is_some(),
            "level-2 finalize span missing"
        );
    }

    #[test]
    fn deep_soak_perfect_channels_account_every_leaf() {
        let mut cfg = TieredSoakConfig::standard(1, 32);
        cfg.leaf_channel = ChannelConfig::perfect();
        cfg.up_channel = ChannelConfig::perfect();
        let result = run_tiered_soak_deep(&cfg);
        assert_eq!(result.quorum_epochs(), 1);
        assert!(result.detection_equivalent());
        assert_eq!(result.leaf_totals.retransmits, 0);
        assert_eq!(result.up_totals.retransmits, 0);
        let EpochOutcome::Report(r) = &result.outcomes[0] else {
            unreachable!()
        };
        assert_eq!(r.routers, 24);
        assert_eq!(
            r.ingest.submitted, 24,
            "quorum counts leaves through all three levels"
        );
    }

    #[test]
    fn tiered_soak_perfect_channels_are_loss_free() {
        let mut cfg = TieredSoakConfig::standard(1, 22);
        cfg.leaf_channel = ChannelConfig::perfect();
        cfg.up_channel = ChannelConfig::perfect();
        let result = run_tiered_soak(&cfg);
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
}
