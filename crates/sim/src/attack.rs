//! Attack-scenario suite: three canonical heavy-content attacks driven
//! end-to-end through the two-level aggregation topology with sidecar
//! sketches enabled at every leaf.
//!
//! Each scenario pairs a traffic generator with the
//! [`SketchSpec`] domain built to spot it:
//!
//! * **DNS amplification** — every attacked leaf forwards the same
//!   amplified multi-packet response to spoofed victims, many times per
//!   epoch. The content-index Space-Saving sketch surfaces exactly the
//!   bitmap columns the response hashes to, which the epoch report
//!   lists beside the aligned verdict.
//! * **DRDoS reflection** — thousands of spoofed *sources* bounce one
//!   reflector payload at a single victim AS. The distinct-HH sketch
//!   keyed on (src-port, dst-AS) counts distinct sources per key, so
//!   the reflection fan-in towers over any benign key.
//! * **Elephant flows** — each attacked leaf carries one huge flow
//!   moving the same content object. The flow-bytes Space-Saving
//!   sketch, weighted by payload length, ranks those flows first.
//!
//! The harness replays the tiered soak's topology — leaves chunk their
//! bundles over a lossy channel to regional aggregators, which forward
//! them verbatim in DCSG bundles over a second lossy hop to the centre
//! (the same tiers as [`crate::tiered`]) — and checks that the planted
//! keys rank in the sketch merged from the artifacts that survived both
//! hops.
//! Transport faults never panic: a failed quorum is a typed
//! [`EpochOutcome`].

use crate::channel::ChannelConfig;
use crate::hop::{epoch_seed, TierDriver};
use crate::soak::EpochOutcome;
use crate::tiered::{aggregated_tiers, delivered_leaf_frames};
use dcs_collect::AlignedCollector;
use dcs_core::center::{AnalysisCenter, AnalysisConfig};
use dcs_core::monitor::{
    src_port_dst_as_key, MonitorConfig, MonitoringPoint, RouterDigestView, SketchSpec,
};
use dcs_core::report::TransportStats;
use dcs_core::session::CollectorConfig;
use dcs_hash::IndexHasher;
use dcs_sketch::{decode_sketch, DistinctSketch, SketchWire, SpaceSaving};
use dcs_traffic::{gen, BackgroundConfig, ContentObject, FlowLabel, Packet, SizeMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three attack scenarios of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackScenario {
    /// Amplified DNS responses replayed to spoofed victims.
    DnsAmplification,
    /// One reflector payload bounced off many spoofed sources at one
    /// victim AS.
    DrdosReflection,
    /// One very large flow per attacked leaf, all moving the same
    /// object.
    ElephantFlows,
}

impl AttackScenario {
    /// The sketch domain built to spot this scenario.
    pub fn sketch_spec(self, cap: usize) -> SketchSpec {
        match self {
            AttackScenario::DnsAmplification => SketchSpec::heavy_content(cap),
            AttackScenario::DrdosReflection => SketchSpec::drdos(cap),
            AttackScenario::ElephantFlows => SketchSpec::elephant_flows(cap),
        }
    }

    /// Human-readable scenario slug (used by the repro binaries).
    pub fn name(self) -> &'static str {
        match self {
            AttackScenario::DnsAmplification => "dns_amplification",
            AttackScenario::DrdosReflection => "drdos_reflection",
            AttackScenario::ElephantFlows => "elephant_flows",
        }
    }
}

/// Parameters of one attack-scenario soak.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Which attack is running.
    pub scenario: AttackScenario,
    /// Leaf monitoring points.
    pub leaves: usize,
    /// Regional aggregators; leaves are partitioned contiguously.
    pub aggregators: usize,
    /// Leaves `0..attacked` observe the attack each epoch.
    pub attacked: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
    /// Sidecar sketch capacity at every leaf.
    pub sketch_cap: usize,
    /// Packets of the attack content object (536-byte payloads).
    pub content_packets: usize,
    /// Times each attacked leaf replays the object per epoch (DNS),
    /// spoofed sources (DRDoS), or object repetitions on the elephant
    /// flow.
    pub intensity: usize,
    /// Background packets per leaf per epoch.
    pub bg_packets: usize,
    /// Background flows per leaf per epoch.
    pub bg_flows: usize,
    /// Impairments of the leaf → aggregator hop.
    pub leaf_channel: ChannelConfig,
    /// Impairments of the aggregator → centre hop.
    pub up_channel: ChannelConfig,
    /// Collector settings of each aggregator (child hop).
    pub leaf_collector: CollectorConfig,
    /// Collector settings of the centre (upstream hop).
    pub up_collector: CollectorConfig,
    /// Chunk payload bound on both hops.
    pub max_payload: usize,
    /// The centre's minimum surviving-leaf quorum.
    pub min_quorum: usize,
}

impl AttackConfig {
    /// The suite's standard regime: 24 leaves behind 3 aggregators,
    /// lossy on both hops, background light enough that the
    /// Space-Saving guarantee (`count > total/cap`) pins every attack
    /// key in the sketch.
    pub fn standard(scenario: AttackScenario, epochs: usize, seed: u64) -> Self {
        AttackConfig {
            scenario,
            leaves: 24,
            aggregators: 3,
            attacked: 20,
            epochs,
            seed,
            sketch_cap: 64,
            content_packets: 30,
            intensity: 20,
            bg_packets: 400,
            bg_flows: 120,
            leaf_channel: ChannelConfig::soak(),
            up_channel: ChannelConfig::soak(),
            leaf_collector: CollectorConfig::default(),
            up_collector: CollectorConfig::default(),
            max_payload: 1024,
            min_quorum: 16,
        }
    }
}

/// One epoch's record in the attack soak.
#[derive(Debug)]
pub struct AttackEpoch {
    /// The centre's outcome.
    pub outcome: EpochOutcome,
    /// Ranks (0 = heaviest) of the expected attack keys in the
    /// reference sketch merged from the leaf artifacts that survived
    /// both hops. One entry per expected key; `None` = key fell out.
    pub attack_key_ranks: Vec<Option<usize>>,
    /// How many surviving leaf bundles carried a decodable sketch.
    pub artifacts_delivered: usize,
}

/// The full attack-soak record.
#[derive(Debug)]
pub struct AttackResult {
    /// One record per epoch, in order.
    pub epochs: Vec<AttackEpoch>,
    /// Child-hop delivery stats summed over all aggregators and epochs.
    pub leaf_totals: TransportStats,
    /// Upstream-hop delivery stats summed over all epochs.
    pub up_totals: TransportStats,
    /// The centre's metrics.
    pub metrics: dcs_core::MetricsSnapshot,
}

impl AttackResult {
    /// Epochs that reached quorum.
    pub fn quorum_epochs(&self) -> usize {
        self.epochs
            .iter()
            .filter(|e| matches!(e.outcome, EpochOutcome::Report(_)))
            .count()
    }

    /// Whether the planted content was found in every quorum epoch.
    pub fn attack_detected_in_all_quorum_epochs(&self) -> bool {
        self.epochs.iter().all(|e| match &e.outcome {
            EpochOutcome::Report(r) => r.aligned.found,
            EpochOutcome::QuorumTooSmall { .. } => true,
        })
    }
}

/// The per-epoch attack plan: packets to inject at each attacked leaf
/// plus the sketch keys the attack is expected to dominate.
struct AttackPlan {
    /// `injections[l]` is appended to leaf `l`'s background traffic.
    injections: Vec<Vec<Packet>>,
    /// Expected heavy keys in the scenario's sketch domain.
    expected_keys: Vec<u64>,
}

/// Builds one epoch's attack plan. Deterministic in `rng`.
fn plan_attack(cfg: &AttackConfig, mcfg: &MonitorConfig, rng: &mut StdRng) -> AttackPlan {
    let object = ContentObject::random_with_packets(rng, cfg.content_packets, 536);
    let payloads = object.packetize(&[], 536);
    match cfg.scenario {
        AttackScenario::DnsAmplification => {
            // Resolver replays the amplified response to a fresh spoofed
            // victim per repetition; src port 53/UDP marks the reflector.
            let injections = (0..cfg.attacked)
                .map(|_| {
                    let mut pkts = Vec::with_capacity(cfg.intensity * payloads.len());
                    for _ in 0..cfg.intensity {
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
                .collect();
            // Expected heavy keys: the bitmap columns the response's
            // packets hash to (the same at every leaf — shared seed).
            let probe = AlignedCollector::new(mcfg.aligned.clone());
            let f = FlowLabel::random(rng);
            let expected_keys = payloads
                .iter()
                .filter_map(|p| probe.index_of(&Packet::new(f, p.clone())))
                .map(|c| c as u64)
                .collect();
            AttackPlan {
                injections,
                expected_keys,
            }
        }
        AttackScenario::DrdosReflection => {
            // One victim AS; `intensity` spoofed sources each bounce the
            // whole reflector payload off src port 123 (NTP).
            let victim_ip: u32 = rng.gen();
            let injections = (0..cfg.attacked)
                .map(|_| {
                    let mut pkts = Vec::with_capacity(cfg.intensity * payloads.len());
                    for _ in 0..cfg.intensity {
                        let flow = FlowLabel {
                            src_ip: rng.gen(),
                            dst_ip: victim_ip,
                            src_port: 123,
                            dst_port: rng.gen_range(1024..=u16::MAX),
                            proto: 17,
                        };
                        pkts.extend(payloads.iter().map(|p| Packet::new(flow, p.clone())));
                    }
                    pkts
                })
                .collect();
            let key_flow = FlowLabel {
                src_ip: 0,
                dst_ip: victim_ip,
                src_port: 123,
                dst_port: 0,
                proto: 17,
            };
            AttackPlan {
                injections,
                expected_keys: vec![src_port_dst_as_key(&key_flow)],
            }
        }
        AttackScenario::ElephantFlows => {
            // One elephant flow per attacked leaf, all hauling the same
            // object `intensity` times. Keys are the flow-label hashes
            // under the sketch hasher (aligned seed, fixed tweak).
            let hasher = IndexHasher::new(mcfg.aligned.seed ^ 0x5C5C_5C5C_5C5C_5C5Cu64);
            let mut expected_keys = Vec::with_capacity(cfg.attacked);
            let injections = (0..cfg.attacked)
                .map(|_| {
                    let flow = FlowLabel::random(rng);
                    expected_keys.push(hasher.hash64(&flow.to_bytes()));
                    let mut pkts = Vec::with_capacity(cfg.intensity * payloads.len());
                    for _ in 0..cfg.intensity {
                        pkts.extend(payloads.iter().map(|p| Packet::new(flow, p.clone())));
                    }
                    pkts
                })
                .collect();
            AttackPlan {
                injections,
                expected_keys,
            }
        }
    }
}

/// The leaves' monitoring configuration: the suite's 16-Kbit bitmaps
/// with the scenario's sidecar sketch.
fn monitor_config(cfg: &AttackConfig) -> MonitorConfig {
    MonitorConfig::small(7, 1 << 14, 4).with_sketch(cfg.scenario.sketch_spec(cfg.sketch_cap))
}

/// Epoch `e`'s traffic at every leaf — background with the attack
/// spliced in at leaves `0..attacked` — plus the sketch keys the attack
/// is expected to dominate. Deterministic in `(cfg, e)`.
fn epoch_traffic(
    cfg: &AttackConfig,
    mcfg: &MonitorConfig,
    e: usize,
) -> (Vec<Vec<Packet>>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(epoch_seed(cfg.seed, e));
    let plan = plan_attack(cfg, mcfg, &mut rng);
    let bg = BackgroundConfig {
        packets: cfg.bg_packets,
        flows: cfg.bg_flows,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };
    let traffic = (0..cfg.leaves)
        .map(|id| {
            let mut traffic = gen::generate_epoch(&mut rng, &bg);
            if id < cfg.attacked {
                let at = if traffic.is_empty() {
                    0
                } else {
                    rng.gen_range(0..=traffic.len())
                };
                traffic.splice(at..at, plan.injections[id].iter().cloned());
            }
            traffic
        })
        .collect();
    (traffic, plan.expected_keys)
}

/// Reference merge of the leaf sketches that survived both hops, in the
/// scenario's own kernel. Returns per-expected-key ranks plus how many
/// bundles carried a decodable sketch.
fn rank_attack_keys(
    scenario: AttackScenario,
    cap: usize,
    leaf_frames: &[Vec<u8>],
    expected: &[u64],
) -> (Vec<Option<usize>>, usize) {
    let mut heavy: Option<SpaceSaving> = None;
    let mut distinct: Option<DistinctSketch> = None;
    let mut delivered = 0usize;
    for frame in leaf_frames {
        let Ok((digest, _)) = RouterDigestView::parse(frame) else {
            continue;
        };
        let Some(Ok(wire)) = digest.sketch_payload().map(decode_sketch) else {
            continue;
        };
        delivered += 1;
        match wire {
            SketchWire::SpaceSaving { sketch, .. } => {
                heavy
                    .get_or_insert_with(|| SpaceSaving::new(cap))
                    .merge(&sketch);
            }
            SketchWire::Distinct { sketch, .. } => {
                distinct
                    .get_or_insert_with(|| DistinctSketch::new(cap, sketch.kmv_size()))
                    .merge(&sketch);
            }
        }
    }
    let ranked: Vec<u64> = match scenario {
        AttackScenario::DnsAmplification | AttackScenario::ElephantFlows => heavy
            .map(|s| s.top_k(cap).into_iter().map(|h| h.key).collect())
            .unwrap_or_default(),
        AttackScenario::DrdosReflection => distinct
            .map(|s| s.top_k(cap).into_iter().map(|(k, _)| k).collect())
            .unwrap_or_default(),
    };
    let ranks = expected
        .iter()
        .map(|k| ranked.iter().position(|r| r == k))
        .collect();
    (ranks, delivered)
}

/// Runs the attack soak: scenario traffic at the leaves, sketches in
/// every bundle, two lossy hops through the aggregation tier, then the
/// delivered epoch analysed at the centre.
/// Deterministic in `cfg`; transport and quorum failures are typed
/// outcomes, never panics.
pub fn run_attack_soak(cfg: &AttackConfig) -> AttackResult {
    assert!(cfg.aggregators >= 1 && cfg.leaves >= cfg.aggregators);
    assert!(cfg.attacked <= cfg.leaves);
    let mcfg = monitor_config(cfg);
    let mut monitors: Vec<MonitoringPoint> = (0..cfg.leaves)
        .map(|id| MonitoringPoint::new(id, &mcfg))
        .collect();

    let mut acfg = AnalysisConfig::for_groups(cfg.leaves * 4).with_min_quorum(cfg.min_quorum);
    acfg.search.n_prime = 400;
    acfg.search.hopefuls = 300;
    let center = AnalysisCenter::new(acfg);
    let mut tiers = TierDriver::new(
        &aggregated_tiers(
            cfg.aggregators,
            (cfg.leaf_collector, cfg.leaf_channel),
            (cfg.up_collector, cfg.up_channel),
            false,
        ),
        cfg.max_payload,
    );

    let mut epochs: Vec<AttackEpoch> = Vec::with_capacity(cfg.epochs);
    let mut leaf_totals = TransportStats::default();
    let mut up_totals = TransportStats::default();
    let mut now: u64 = 0;

    for e in 0..cfg.epochs {
        let epoch_seed = epoch_seed(cfg.seed, e);
        let (traffic, expected_keys) = epoch_traffic(cfg, &mcfg, e);
        for (mp, traffic) in monitors.iter_mut().zip(&traffic) {
            mp.observe_all(traffic);
        }

        let (epoch, stats) = tiers.ship_epoch(&mut monitors, epoch_seed, &mut now, |_, _, _| {});
        leaf_totals += stats[0];
        up_totals += stats[1];

        // Reference sketch merge over the leaf frames that survived.
        let (attack_key_ranks, artifacts_delivered) = rank_attack_keys(
            cfg.scenario,
            cfg.sketch_cap,
            &delivered_leaf_frames(&epoch),
            &expected_keys,
        );

        let result = center.analyze_epoch_aggregated_collected(&epoch);
        epochs.push(AttackEpoch {
            outcome: EpochOutcome::from(cfg.min_quorum, result),
            attack_key_ranks,
            artifacts_delivered,
        });
        now += 1;
    }

    AttackResult {
        epochs,
        leaf_totals,
        up_totals,
        metrics: center.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn assert_suite_invariants(result: &AttackResult, cfg: &AttackConfig) {
        assert_eq!(
            result.quorum_epochs(),
            cfg.epochs,
            "standard regime reaches quorum every epoch"
        );
        assert!(
            result.attack_detected_in_all_quorum_epochs(),
            "planted heavy content missed"
        );
        assert!(
            result.leaf_totals.retransmits > 0,
            "lossy child hop must retransmit"
        );
        for e in &result.epochs {
            assert!(
                e.artifacts_delivered >= cfg.min_quorum,
                "sketch artifacts lost in the tier: {} < {}",
                e.artifacts_delivered,
                cfg.min_quorum
            );
        }
    }

    #[test]
    fn dns_amplification_detected_and_top_columns_reported() {
        let cfg = AttackConfig::standard(AttackScenario::DnsAmplification, 2, 41);
        let result = run_attack_soak(&cfg);
        assert_suite_invariants(&result, &cfg);
        for e in &result.epochs {
            // Every response column survives the merged content sketch.
            assert!(
                e.attack_key_ranks.iter().all(|r| r.is_some()),
                "amplified-response column fell out of the sketch: {:?}",
                e.attack_key_ranks
            );
            let EpochOutcome::Report(r) = &e.outcome else {
                unreachable!()
            };
            assert_eq!(r.sketch.artifacts, r.ingest.accepted.len());
            assert_eq!(r.sketch.merged, r.sketch.artifacts);
            assert_eq!(r.sketch.skipped, 0);
            assert!(
                !r.sketch.top_columns.is_empty(),
                "content-index sketch must report its top columns"
            );
            // The reported columns are real heavy columns: every one is
            // part of the detected signature.
            for c in &r.sketch.top_columns {
                assert!(
                    r.aligned.signature_indices.contains(c),
                    "top column {c} not in the detected signature"
                );
            }
        }
        assert!(
            result.metrics.counter("sketch_merged_total").unwrap_or(0) > 0,
            "centre never merged a sketch"
        );

        // Recall against exact column counts of epoch 0's traffic: the
        // heavy set is every column whose count reaches the k-th largest
        // (ties included), and ≥ 90 % of the fused top-k must be in it.
        let mcfg = monitor_config(&cfg);
        let probe = AlignedCollector::new(mcfg.aligned.clone());
        let mut exact: HashMap<usize, u64> = HashMap::new();
        for pkt in epoch_traffic(&cfg, &mcfg, 0).0.iter().flatten() {
            if let Some(c) = probe.index_of(pkt) {
                *exact.entry(c).or_default() += 1;
            }
        }
        let EpochOutcome::Report(r) = &result.epochs[0].outcome else {
            unreachable!()
        };
        let top = &r.sketch.top_columns;
        let mut counts: Vec<u64> = exact.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let kth = counts[top.len() - 1];
        let hits = top
            .iter()
            .filter(|c| exact.get(c).is_some_and(|&n| n >= kth));
        let recall = hits.count() as f64 / top.len() as f64;
        assert!(recall >= 0.9, "fused top-k recall {recall:.2} < 0.9");
        // Sketch bytes follow the cap, not the bitmap width: a leaf's
        // sidecar must fit in 5 % of a 128-Kbit bitmap, the narrowest
        // width that ceiling was calibrated at (this suite's 16-Kbit
        // bitmaps are too small for a ratio to their digest to mean
        // anything; at the paper's 4 Mbit the sidecar is 0.14 %).
        let per_leaf = r.sketch.payload_bytes as f64 / r.sketch.artifacts as f64;
        let ratio = per_leaf / f64::from((1u32 << 17) / 8);
        assert!(ratio <= 0.05, "sketch is {ratio:.3} of a 128-Kbit bitmap");
    }

    #[test]
    fn drdos_reflection_fan_in_tops_the_distinct_sketch() {
        let cfg = AttackConfig::standard(AttackScenario::DrdosReflection, 2, 43);
        let result = run_attack_soak(&cfg);
        assert_suite_invariants(&result, &cfg);
        for e in &result.epochs {
            // The (src-port 123, victim-AS) key has `attacked *
            // intensity` distinct sources behind it — no benign key
            // comes close, so it ranks first.
            assert_eq!(
                e.attack_key_ranks,
                vec![Some(0)],
                "reflection key must dominate the distinct sketch"
            );
            let EpochOutcome::Report(r) = &e.outcome else {
                unreachable!()
            };
            // Non-content domains still ship and merge, but their keys
            // are not bitmap columns.
            assert_eq!(r.sketch.merged, r.sketch.artifacts);
            assert!(
                r.sketch.top_columns.is_empty(),
                "a distinct sketch has no content-index columns to report"
            );
        }
    }

    #[test]
    fn elephant_flows_dominate_the_byte_weighted_sketch() {
        let cfg = AttackConfig::standard(AttackScenario::ElephantFlows, 2, 47);
        let result = run_attack_soak(&cfg);
        assert_suite_invariants(&result, &cfg);
        for e in &result.epochs {
            assert_eq!(e.attack_key_ranks.len(), cfg.attacked);
            let present = e.attack_key_ranks.iter().filter(|r| r.is_some()).count();
            // Elephants on leaves whose bundles were lost to the channel
            // cannot appear; everything delivered must rank.
            assert!(
                present >= cfg.min_quorum.min(cfg.attacked),
                "only {present} of {} elephant flows ranked",
                cfg.attacked
            );
            let EpochOutcome::Report(r) = &e.outcome else {
                unreachable!()
            };
            assert_eq!(r.sketch.merged, r.sketch.artifacts);
            assert!(r.sketch.top_columns.is_empty());
        }
    }

    #[test]
    fn quorum_collapse_is_a_typed_outcome() {
        let mut cfg = AttackConfig::standard(AttackScenario::DnsAmplification, 1, 53);
        // Nothing survives a hop that drops everything; the soak must
        // still terminate with a typed quorum failure, not a panic.
        cfg.up_channel = ChannelConfig {
            drop_prob: 1.0,
            ..ChannelConfig::perfect()
        };
        let result = run_attack_soak(&cfg);
        assert_eq!(result.quorum_epochs(), 0);
        assert!(matches!(
            result.epochs[0].outcome,
            EpochOutcome::QuorumTooSmall { accepted: 0, .. }
        ));
    }
}
