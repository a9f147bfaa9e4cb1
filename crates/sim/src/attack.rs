//! Attack-scenario suite: two canonical heavy-content attacks driven
//! end-to-end through the two-level aggregation topology.
//!
//! * **DNS amplification** — every attacked leaf forwards the same
//!   amplified multi-packet response to spoofed victims, many times per
//!   epoch.
//! * **Elephant flows** — each attacked leaf carries one huge flow
//!   moving the same content object.
//!
//! The harness replays the tiered soak's topology — leaves chunk their
//! bundles over a lossy channel to regional aggregators, which forward
//! them verbatim in DCSG bundles over a second lossy hop to the centre
//! (the same tiers as [`crate::tiered`]) — and records the centre's
//! verdict on what survived both hops. Transport faults never panic: a
//! failed quorum is a typed [`EpochOutcome`].

use crate::channel::ChannelConfig;
use crate::hop::{epoch_seed, TierDriver};
use crate::soak::EpochOutcome;
use crate::tiered::aggregated_tiers;
use dcs_core::center::{AnalysisCenter, AnalysisConfig};
use dcs_core::monitor::{MonitorConfig, MonitoringPoint};
use dcs_core::report::TransportStats;
use dcs_core::session::CollectorConfig;
use dcs_traffic::{gen, BackgroundConfig, ContentObject, FlowLabel, Packet, SizeMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The attack scenarios of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackScenario {
    /// Amplified DNS responses replayed to spoofed victims.
    DnsAmplification,
    /// One very large flow per attacked leaf, all moving the same
    /// object.
    ElephantFlows,
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
    /// Packets of the attack content object (536-byte payloads).
    pub content_packets: usize,
    /// Times each attacked leaf replays the object per epoch (DNS) or
    /// object repetitions on the elephant flow.
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
    /// lossy on both hops.
    pub fn standard(scenario: AttackScenario, epochs: usize, seed: u64) -> Self {
        AttackConfig {
            scenario,
            leaves: 24,
            aggregators: 3,
            attacked: 20,
            epochs,
            seed,
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

/// The full attack-soak record.
#[derive(Debug)]
pub struct AttackResult {
    /// The centre's outcome of every epoch, in order.
    pub outcomes: Vec<EpochOutcome>,
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
        self.outcomes
            .iter()
            .filter(|o| matches!(o, EpochOutcome::Report(_)))
            .count()
    }

    /// Whether the planted content was found in every quorum epoch.
    pub fn attack_detected_in_all_quorum_epochs(&self) -> bool {
        self.outcomes.iter().all(|o| match o {
            EpochOutcome::Report(r) => r.aligned.found,
            EpochOutcome::QuorumTooSmall { .. } => true,
        })
    }
}

/// One epoch's attack packets: `injections[l]` is appended to leaf
/// `l`'s background traffic. Deterministic in `rng`.
fn plan_attack(cfg: &AttackConfig, rng: &mut StdRng) -> Vec<Vec<Packet>> {
    let object = ContentObject::random_with_packets(rng, cfg.content_packets, 536);
    let payloads = object.packetize(&[], 536);
    (0..cfg.attacked)
        .map(|_| {
            let mut pkts = Vec::with_capacity(cfg.intensity * payloads.len());
            match cfg.scenario {
                AttackScenario::DnsAmplification => {
                    // The resolver replays the amplified response to a
                    // fresh spoofed victim per repetition; src port 53/UDP
                    // marks the reflector.
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
                }
                AttackScenario::ElephantFlows => {
                    // One elephant flow hauling the object `intensity`
                    // times.
                    let flow = FlowLabel::random(rng);
                    for _ in 0..cfg.intensity {
                        pkts.extend(payloads.iter().map(|p| Packet::new(flow, p.clone())));
                    }
                }
            }
            pkts
        })
        .collect()
}

/// Epoch `e`'s traffic at every leaf — background with the attack
/// spliced in at leaves `0..attacked`. Deterministic in `(cfg, e)`.
fn epoch_traffic(cfg: &AttackConfig, e: usize) -> Vec<Vec<Packet>> {
    let mut rng = StdRng::seed_from_u64(epoch_seed(cfg.seed, e));
    let injections = plan_attack(cfg, &mut rng);
    let bg = BackgroundConfig {
        packets: cfg.bg_packets,
        flows: cfg.bg_flows,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };
    (0..cfg.leaves)
        .map(|id| {
            let mut traffic = gen::generate_epoch(&mut rng, &bg);
            if id < cfg.attacked {
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

/// Runs the attack soak: scenario traffic at the leaves, two lossy hops
/// through the aggregation tier, then the delivered epoch analysed at the
/// centre.
/// Deterministic in `cfg`; transport and quorum failures are typed
/// outcomes, never panics.
pub fn run_attack_soak(cfg: &AttackConfig) -> AttackResult {
    assert!(cfg.aggregators >= 1 && cfg.leaves >= cfg.aggregators);
    assert!(cfg.attacked <= cfg.leaves);
    // The suite's 16-Kbit bitmaps at every leaf.
    let mcfg = MonitorConfig::small(7, 1 << 14, 4);
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

    let mut outcomes = Vec::with_capacity(cfg.epochs);
    let mut leaf_totals = TransportStats::default();
    let mut up_totals = TransportStats::default();
    let mut now: u64 = 0;

    for e in 0..cfg.epochs {
        let epoch_seed = epoch_seed(cfg.seed, e);
        for (mp, traffic) in monitors.iter_mut().zip(&epoch_traffic(cfg, e)) {
            mp.observe_all(traffic);
        }

        let (epoch, stats) = tiers.ship_epoch(&mut monitors, epoch_seed, &mut now, |_, _, _| {});
        leaf_totals += stats[0];
        up_totals += stats[1];

        let result = center.analyze_epoch_aggregated_collected(&epoch);
        outcomes.push(EpochOutcome::from(cfg.min_quorum, result));
        now += 1;
    }

    AttackResult {
        outcomes,
        leaf_totals,
        up_totals,
        metrics: center.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn dns_amplification_is_detected() {
        let cfg = AttackConfig::standard(AttackScenario::DnsAmplification, 2, 41);
        assert_suite_invariants(&run_attack_soak(&cfg), &cfg);
    }

    #[test]
    fn elephant_flows_are_detected() {
        let cfg = AttackConfig::standard(AttackScenario::ElephantFlows, 2, 47);
        assert_suite_invariants(&run_attack_soak(&cfg), &cfg);
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
            result.outcomes[0],
            EpochOutcome::QuorumTooSmall { accepted: 0, .. }
        ));
    }
}
