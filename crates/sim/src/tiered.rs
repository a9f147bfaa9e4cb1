//! Two-level topology soak: leaves → regional aggregators → centre.
//!
//! The flat [`soak`](crate::soak) harness stops being a realistic model
//! past a few dozen routers — every leaf would hold a retransmit session
//! straight to the centre. This harness drives the aggregation tier
//! instead: each epoch, every leaf chunks its digest bundle onto its
//! region's [`LossyChannel`]; a per-region [`Aggregator`] reassembles
//! the child hop, pre-fuses the epoch into one
//! [`AggregateBundle`] and ships
//! it — as ordinary DCSC chunks — over a second lossy hop to the
//! centre's [`EpochCollector`], which feeds
//! `analyze_epoch_aggregated_collected`.
//!
//! Every epoch also replays *flat*: the child frames that actually
//! survived to the centre are fed straight to a second analysis centre
//! through `analyze_epoch_wire`, and both detection fingerprints are
//! recorded side by side. The tiered path forwards child frames
//! verbatim and validates globally, so the pair must be byte-identical
//! — the harness's central acceptance check.

use crate::channel::{ChannelConfig, LossyChannel};
use crate::soak::EpochOutcome;
use dcs_core::aggregate::{AggregateBundle, Aggregator};
use dcs_core::center::{AnalysisCenter, AnalysisConfig};
use dcs_core::monitor::{MonitorConfig, MonitoringPoint};
use dcs_core::report::{EpochReport, TransportStats};
use dcs_core::runtime::{EpochInput, EpochPipeline, PipelineConfig};
use dcs_core::session::{
    ChunkDisposition, CollectorConfig, EpochCollector, Missing, RetransmitRequest,
};
use dcs_core::transport::chunk_bundle;
use dcs_core::MetricsRegistry;
use dcs_traffic::{gen, BackgroundConfig, ContentObject, Planting, SizeMix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Aggregator router ids live far above any leaf id.
const AGG_ID_BASE: u64 = 1 << 20;

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
    /// Drive the centre through [`EpochPipeline`] with
    /// `EpochInput::AggregatedCollected` instead of analysing inline.
    pub pipelined: bool,
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
            pipelined: false,
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
            epochs,
            seed,
            leaf_channel: ChannelConfig::soak(),
            up_channel: ChannelConfig::soak(),
            leaf_collector: CollectorConfig::default(),
            up_collector: CollectorConfig::default(),
            max_payload: 4096,
            min_quorum: leaves / 2,
            content_packets: 0,
            bg_packets: 40,
            bg_flows: 16,
            aligned_bits: 1 << 10,
            groups_per_leaf: 1,
            arrays_per_group: 2,
            array_bits: 1024,
            pipelined: false,
        }
    }

    /// The contiguous child range of aggregator `a`.
    fn region(&self, a: usize) -> std::ops::Range<usize> {
        let per = self.leaves / self.aggregators;
        let start = a * per;
        let end = if a + 1 == self.aggregators {
            self.leaves
        } else {
            start + per
        };
        start..end
    }
}

/// The full tiered-soak record.
#[derive(Debug)]
pub struct TieredSoakResult {
    /// One outcome per epoch, in order.
    pub outcomes: Vec<EpochOutcome>,
    /// Per-epoch `(tiered, flat)` detection fingerprints: the tiered
    /// path's verdicts next to a flat `analyze_epoch_wire` run over the
    /// same delivered child frames. Equal strings = detection
    /// equivalence held.
    pub detection_pairs: Vec<(String, String)>,
    /// Child-hop delivery stats summed over all aggregators and epochs.
    pub leaf_totals: TransportStats,
    /// Upstream-hop delivery stats summed over all epochs.
    pub up_totals: TransportStats,
    /// Ticks the virtual clock advanced.
    pub ticks: u64,
    /// The aggregation tier's metrics (per-level fuse spans, forwarded
    /// bytes, per-fault child exclusions).
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

enum Driver {
    Sequential(Box<AnalysisCenter>),
    Pipelined(EpochPipeline),
}

/// Runs the two-level soak. Deterministic in `cfg`; every transport or
/// quorum failure is a typed outcome, never a panic.
pub fn run_tiered_soak(cfg: &TieredSoakConfig) -> TieredSoakResult {
    assert!(cfg.aggregators >= 1 && cfg.leaves >= cfg.aggregators);
    assert!(cfg.infected <= cfg.leaves);
    let mut mcfg = MonitorConfig::small(7, cfg.aligned_bits, cfg.groups_per_leaf);
    mcfg.unaligned.arrays_per_group = cfg.arrays_per_group;
    mcfg.unaligned.array_bits = cfg.array_bits;
    let mut monitors: Vec<MonitoringPoint> = (0..cfg.leaves)
        .map(|id| MonitoringPoint::new(id, &mcfg))
        .collect();

    let make_acfg = || {
        let mut acfg = AnalysisConfig::for_groups(cfg.leaves * cfg.groups_per_leaf)
            .with_min_quorum(cfg.min_quorum);
        acfg.search.n_prime = 400.min(cfg.aligned_bits);
        acfg.search.hopefuls = 300.min(cfg.aligned_bits);
        acfg
    };
    let driver = if cfg.pipelined {
        Driver::Pipelined(EpochPipeline::new(
            AnalysisCenter::new(make_acfg()),
            PipelineConfig::default(),
        ))
    } else {
        Driver::Sequential(Box::new(AnalysisCenter::new(make_acfg())))
    };
    // The flat-replay centre: identical configuration, fed the same
    // delivered child frames without the tier in between.
    let flat_center = AnalysisCenter::new(make_acfg());
    let agg_metrics = MetricsRegistry::new();

    let mut leaf_channels: Vec<LossyChannel> = (0..cfg.aggregators)
        .map(|a| LossyChannel::new(cfg.leaf_channel, cfg.seed ^ (a as u64)))
        .collect();
    let mut up_channel = LossyChannel::new(cfg.up_channel, cfg.seed ^ 0xA55A);

    let bg = BackgroundConfig {
        packets: cfg.bg_packets,
        flows: cfg.bg_flows,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };

    let mut outcomes: Vec<EpochOutcome> = Vec::with_capacity(cfg.epochs);
    let mut detection_pairs: Vec<(String, String)> = Vec::new();
    let mut flat_queue: VecDeque<String> = VecDeque::new();
    let mut leaf_totals = TransportStats::default();
    let mut up_totals = TransportStats::default();
    let mut now: u64 = 0;

    for e in 0..cfg.epochs {
        let epoch_seed = cfg
            .seed
            .wrapping_add((e as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for (a, ch) in leaf_channels.iter_mut().enumerate() {
            ch.reseed(epoch_seed ^ (a as u64).wrapping_mul(0x517C_C1B7_2722_0A95));
        }
        up_channel.reseed(epoch_seed ^ 0xA55A);
        let mut rng = StdRng::seed_from_u64(epoch_seed);

        let plant = (cfg.content_packets > 0).then(|| {
            Planting::aligned(
                ContentObject::random_with_packets(&mut rng, cfg.content_packets, 536),
                536,
            )
        });
        let epoch_id = monitors[0].epochs_finished();

        let mut aggs: Vec<Aggregator> = (0..cfg.aggregators)
            .map(|a| {
                Aggregator::new(
                    AGG_ID_BASE + a as u64,
                    1,
                    epoch_id,
                    cfg.region(a).map(|l| l as u64),
                    cfg.leaf_collector,
                    epoch_seed ^ (a as u64),
                    now,
                )
            })
            .collect();

        for (id, mp) in monitors.iter_mut().enumerate() {
            let mut traffic = gen::generate_epoch(&mut rng, &bg);
            if let Some(plant) = plant.as_ref().filter(|_| id < cfg.infected) {
                plant.plant_into(&mut rng, &mut traffic);
            }
            mp.observe_all(&traffic);
            let chunks = mp
                .finish_epoch_chunks(cfg.max_payload)
                .expect("leaf bundles fit the wire format");
            let owner = (0..cfg.aggregators)
                .find(|&a| cfg.region(a).contains(&id))
                .expect("regions partition the leaves");
            for chunk in chunks {
                leaf_channels[owner].send(&chunk, now);
            }
        }

        // Hop 1: drive every region until its straggler policy is
        // satisfied (hard-capped so a pathological regime terminates).
        let cap = now + cfg.leaf_collector.deadline * 4;
        loop {
            for (a, agg) in aggs.iter_mut().enumerate() {
                for frame in leaf_channels[a].deliver_due(now) {
                    if let ChunkDisposition::Accepted {
                        router_id,
                        cumulative_ack,
                    } = agg.offer(&frame, now)
                    {
                        monitors[router_id as usize].ack(epoch_id, cumulative_ack);
                    }
                }
                for req in agg.poll(now) {
                    for frame in monitors[req.router_id as usize].resend(req.epoch_id, &req.missing)
                    {
                        leaf_channels[a].send(&frame, now);
                    }
                }
            }
            if aggs.iter().all(|a| a.ready(now)) || now >= cap {
                break;
            }
            now += 1;
        }

        // Each aggregator finalizes its region, pre-fuses, and ships the
        // bundle upstream as ordinary chunks (kept for retransmits).
        let mut resend_store: Vec<Vec<Vec<u8>>> = Vec::with_capacity(cfg.aggregators);
        let mut up_collector = EpochCollector::new(
            epoch_id,
            (0..cfg.aggregators).map(|a| AGG_ID_BASE + a as u64),
            cfg.up_collector,
            epoch_seed ^ 0x5A5A,
            now,
        );
        for agg in &mut aggs {
            leaf_totals += agg.stats();
            let bundle = agg.finalize(now, &agg_metrics);
            let wire = bundle.encode_wire();
            let chunks = chunk_bundle(agg.id(), epoch_id, &wire, cfg.max_payload);
            for chunk in &chunks {
                up_channel.send(chunk, now);
            }
            resend_store.push(chunks);
        }

        // Hop 2: aggregators → centre.
        let cap = now + cfg.up_collector.deadline * 4;
        loop {
            for frame in up_channel.deliver_due(now) {
                up_collector.offer(&frame, now);
            }
            for RetransmitRequest {
                router_id, missing, ..
            } in up_collector.poll(now)
            {
                let a = (router_id - AGG_ID_BASE) as usize;
                let chunks = &resend_store[a];
                let frames: Vec<&Vec<u8>> = match &missing {
                    Missing::All => chunks.iter().collect(),
                    Missing::Seqs(seqs) => seqs
                        .iter()
                        .filter_map(|&s| chunks.get(s as usize))
                        .collect(),
                };
                for frame in frames {
                    up_channel.send(frame, now);
                }
            }
            if up_collector.ready(now) || now >= cap {
                break;
            }
            now += 1;
        }

        let epoch = up_collector.finalize(now);
        up_totals += epoch.stats;

        // Flat replay: the child frames that actually reached the centre,
        // straight into a flat wire-ingest run.
        let flat_frames: Vec<Vec<u8>> = epoch
            .frames
            .iter()
            .filter_map(|(_, bytes)| AggregateBundle::decode_wire(bytes).ok())
            .flat_map(|(bundle, _)| bundle.frames)
            .collect();
        let flat = flat_center.analyze_epoch_wire(&flat_frames);
        flat_queue.push_back(outcome_fingerprint(&EpochOutcome::from(
            cfg.min_quorum,
            flat,
        )));

        match &driver {
            Driver::Sequential(center) => {
                let result = center.analyze_epoch_aggregated_collected(&epoch);
                outcomes.push(EpochOutcome::from(cfg.min_quorum, result));
            }
            Driver::Pipelined(pipe) => {
                pipe.submit(EpochInput::AggregatedCollected(epoch));
                while let Some((_, result)) = pipe.try_recv() {
                    outcomes.push(EpochOutcome::from_pipeline(cfg.min_quorum, result));
                }
            }
        }
        while detection_pairs.len() < outcomes.len() {
            let flat_fp = flat_queue.pop_front().expect("one flat run per epoch");
            let tiered_fp = outcome_fingerprint(&outcomes[detection_pairs.len()]);
            detection_pairs.push((tiered_fp, flat_fp));
        }
        now += 1;
    }

    let metrics = match driver {
        Driver::Sequential(center) => center.metrics(),
        Driver::Pipelined(pipe) => {
            for (_, result) in pipe.drain() {
                outcomes.push(EpochOutcome::from_pipeline(cfg.min_quorum, result));
            }
            while detection_pairs.len() < outcomes.len() {
                let flat_fp = flat_queue.pop_front().expect("one flat run per epoch");
                let tiered_fp = outcome_fingerprint(&outcomes[detection_pairs.len()]);
                detection_pairs.push((tiered_fp, flat_fp));
            }
            pipe.center().metrics()
        }
    };

    TieredSoakResult {
        outcomes,
        detection_pairs,
        leaf_totals,
        up_totals,
        ticks: now,
        agg_metrics: agg_metrics.snapshot(),
        metrics,
    }
}

/// The level-2 super-aggregator's router id in deep runs.
const AGG2_ID: u64 = AGG_ID_BASE * 2;

/// Runs the *deep* soak: leaves → level-1 regional aggregators → one
/// level-2 super-aggregator → centre, with an independent lossy hop
/// between every tier. The level-2 aggregator receives whole DCSG
/// bundles as its child frames and flattens them (leaf frames spliced,
/// fused bitmaps OR-merged, exclusions re-wrapped one
/// [`dcs_core::ingest::RouterFault::AtLevel`] deeper), so the centre
/// still counts quorum in *leaves* after three aggregation levels.
///
/// Analysis is sequential (`cfg.pipelined` is ignored); every transport
/// or quorum failure is a typed outcome, never a panic.
pub fn run_tiered_soak_deep(cfg: &TieredSoakConfig) -> TieredSoakResult {
    assert!(cfg.aggregators >= 1 && cfg.leaves >= cfg.aggregators);
    assert!(cfg.infected <= cfg.leaves);
    let mut mcfg = MonitorConfig::small(7, cfg.aligned_bits, cfg.groups_per_leaf);
    mcfg.unaligned.arrays_per_group = cfg.arrays_per_group;
    mcfg.unaligned.array_bits = cfg.array_bits;
    let mut monitors: Vec<MonitoringPoint> = (0..cfg.leaves)
        .map(|id| MonitoringPoint::new(id, &mcfg))
        .collect();

    let make_acfg = || {
        let mut acfg = AnalysisConfig::for_groups(cfg.leaves * cfg.groups_per_leaf)
            .with_min_quorum(cfg.min_quorum);
        acfg.search.n_prime = 400.min(cfg.aligned_bits);
        acfg.search.hopefuls = 300.min(cfg.aligned_bits);
        acfg
    };
    let center = AnalysisCenter::new(make_acfg());
    let flat_center = AnalysisCenter::new(make_acfg());
    let agg_metrics = MetricsRegistry::new();

    let mut leaf_channels: Vec<LossyChannel> = (0..cfg.aggregators)
        .map(|a| LossyChannel::new(cfg.leaf_channel, cfg.seed ^ (a as u64)))
        .collect();
    let mut mid_channel = LossyChannel::new(cfg.up_channel, cfg.seed ^ 0xB44B);
    let mut up_channel = LossyChannel::new(cfg.up_channel, cfg.seed ^ 0xA55A);

    let bg = BackgroundConfig {
        packets: cfg.bg_packets,
        flows: cfg.bg_flows,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };

    let mut outcomes: Vec<EpochOutcome> = Vec::with_capacity(cfg.epochs);
    let mut detection_pairs: Vec<(String, String)> = Vec::new();
    let mut leaf_totals = TransportStats::default();
    let mut up_totals = TransportStats::default();
    let mut now: u64 = 0;

    for e in 0..cfg.epochs {
        let epoch_seed = cfg
            .seed
            .wrapping_add((e as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for (a, ch) in leaf_channels.iter_mut().enumerate() {
            ch.reseed(epoch_seed ^ (a as u64).wrapping_mul(0x517C_C1B7_2722_0A95));
        }
        mid_channel.reseed(epoch_seed ^ 0xB44B);
        up_channel.reseed(epoch_seed ^ 0xA55A);
        let mut rng = StdRng::seed_from_u64(epoch_seed);

        let plant = (cfg.content_packets > 0).then(|| {
            Planting::aligned(
                ContentObject::random_with_packets(&mut rng, cfg.content_packets, 536),
                536,
            )
        });
        let epoch_id = monitors[0].epochs_finished();

        let mut aggs: Vec<Aggregator> = (0..cfg.aggregators)
            .map(|a| {
                Aggregator::new(
                    AGG_ID_BASE + a as u64,
                    1,
                    epoch_id,
                    cfg.region(a).map(|l| l as u64),
                    cfg.leaf_collector,
                    epoch_seed ^ (a as u64),
                    now,
                )
            })
            .collect();

        for (id, mp) in monitors.iter_mut().enumerate() {
            let mut traffic = gen::generate_epoch(&mut rng, &bg);
            if let Some(plant) = plant.as_ref().filter(|_| id < cfg.infected) {
                plant.plant_into(&mut rng, &mut traffic);
            }
            mp.observe_all(&traffic);
            let chunks = mp
                .finish_epoch_chunks(cfg.max_payload)
                .expect("leaf bundles fit the wire format");
            let owner = (0..cfg.aggregators)
                .find(|&a| cfg.region(a).contains(&id))
                .expect("regions partition the leaves");
            for chunk in chunks {
                leaf_channels[owner].send(&chunk, now);
            }
        }

        // Hop 1: leaves → level-1 aggregators.
        let cap = now + cfg.leaf_collector.deadline * 4;
        loop {
            for (a, agg) in aggs.iter_mut().enumerate() {
                for frame in leaf_channels[a].deliver_due(now) {
                    if let ChunkDisposition::Accepted {
                        router_id,
                        cumulative_ack,
                    } = agg.offer(&frame, now)
                    {
                        monitors[router_id as usize].ack(epoch_id, cumulative_ack);
                    }
                }
                for req in agg.poll(now) {
                    for frame in monitors[req.router_id as usize].resend(req.epoch_id, &req.missing)
                    {
                        leaf_channels[a].send(&frame, now);
                    }
                }
            }
            if aggs.iter().all(|a| a.ready(now)) || now >= cap {
                break;
            }
            now += 1;
        }

        // Hop 2: level-1 bundles → the level-2 super-aggregator, again
        // as ordinary chunks over a lossy channel.
        let mut agg2 = Aggregator::new(
            AGG2_ID,
            2,
            epoch_id,
            (0..cfg.aggregators).map(|a| AGG_ID_BASE + a as u64),
            cfg.up_collector,
            epoch_seed ^ 0x2222,
            now,
        );
        let mut mid_store: Vec<Vec<Vec<u8>>> = Vec::with_capacity(cfg.aggregators);
        for agg in &mut aggs {
            leaf_totals += agg.stats();
            let bundle = agg.finalize(now, &agg_metrics);
            let chunks = chunk_bundle(agg.id(), epoch_id, &bundle.encode_wire(), cfg.max_payload);
            for chunk in &chunks {
                mid_channel.send(chunk, now);
            }
            mid_store.push(chunks);
        }
        let cap = now + cfg.up_collector.deadline * 4;
        loop {
            for frame in mid_channel.deliver_due(now) {
                agg2.offer(&frame, now);
            }
            for req in agg2.poll(now) {
                let a = (req.router_id - AGG_ID_BASE) as usize;
                let chunks = &mid_store[a];
                let frames: Vec<&Vec<u8>> = match &req.missing {
                    Missing::All => chunks.iter().collect(),
                    Missing::Seqs(seqs) => seqs
                        .iter()
                        .filter_map(|&s| chunks.get(s as usize))
                        .collect(),
                };
                for frame in frames {
                    mid_channel.send(frame, now);
                }
            }
            if agg2.ready(now) || now >= cap {
                break;
            }
            now += 1;
        }

        // Hop 3: the flattened super-bundle → centre.
        up_totals += agg2.stats();
        let bundle2 = agg2.finalize(now, &agg_metrics);
        let up_chunks = chunk_bundle(AGG2_ID, epoch_id, &bundle2.encode_wire(), cfg.max_payload);
        let mut up_collector = EpochCollector::new(
            epoch_id,
            [AGG2_ID],
            cfg.up_collector,
            epoch_seed ^ 0x5A5A,
            now,
        );
        for chunk in &up_chunks {
            up_channel.send(chunk, now);
        }
        let cap = now + cfg.up_collector.deadline * 4;
        loop {
            for frame in up_channel.deliver_due(now) {
                up_collector.offer(&frame, now);
            }
            for req in up_collector.poll(now) {
                let frames: Vec<&Vec<u8>> = match &req.missing {
                    Missing::All => up_chunks.iter().collect(),
                    Missing::Seqs(seqs) => seqs
                        .iter()
                        .filter_map(|&s| up_chunks.get(s as usize))
                        .collect(),
                };
                for frame in frames {
                    up_channel.send(frame, now);
                }
            }
            if up_collector.ready(now) || now >= cap {
                break;
            }
            now += 1;
        }

        let epoch = up_collector.finalize(now);
        up_totals += epoch.stats;

        // Flat replay: the leaf frames that actually survived all three
        // hops, straight into a flat wire-ingest run.
        let flat_frames: Vec<Vec<u8>> = epoch
            .frames
            .iter()
            .filter_map(|(_, bytes)| AggregateBundle::decode_wire(bytes).ok())
            .flat_map(|(bundle, _)| bundle.frames)
            .collect();
        let flat = flat_center.analyze_epoch_wire(&flat_frames);
        let flat_fp = outcome_fingerprint(&EpochOutcome::from(cfg.min_quorum, flat));

        let result = center.analyze_epoch_aggregated_collected(&epoch);
        let outcome = EpochOutcome::from(cfg.min_quorum, result);
        detection_pairs.push((outcome_fingerprint(&outcome), flat_fp));
        outcomes.push(outcome);
        now += 1;
    }

    TieredSoakResult {
        outcomes,
        detection_pairs,
        leaf_totals,
        up_totals,
        ticks: now,
        agg_metrics: agg_metrics.snapshot(),
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
            "aggregator tier must record its fuse span"
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
        // Both aggregation levels recorded fuse spans.
        assert!(
            result
                .agg_metrics
                .gauge("aggregate_fuse_ns{level=1}")
                .is_some(),
            "level-1 fuse span missing"
        );
        assert!(
            result
                .agg_metrics
                .gauge("aggregate_fuse_ns{level=2}")
                .is_some(),
            "level-2 fuse span missing"
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
