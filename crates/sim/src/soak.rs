//! Transport soak harness: many epochs of the full digest path —
//! monitoring points chunking their bundles, a
//! [`LossyChannel`](crate::channel::LossyChannel) impairing delivery, the
//! [`EpochCollector`] reassembling, acking and re-requesting, the analysis centre detecting — under configurable
//! fault regimes, with an optional mid-soak centre kill/restart that
//! exercises checkpoint recovery.
//!
//! Everything runs on virtual ticks from one seed: a soak run is a pure
//! function of its [`SoakConfig`], so two runs that differ only in
//! whether the centre crashed can be compared detection-set for
//! detection-set.

use crate::channel::ChannelConfig;
use crate::hop::{epoch_seed, Tier, TierDriver};
use dcs_core::center::{AnalysisCenter, AnalysisConfig};
use dcs_core::ingest::IngestError;
use dcs_core::monitor::{MonitorConfig, MonitoringPoint};
use dcs_core::report::{EpochReport, TransportStats};
use dcs_core::session::{CollectorConfig, EpochCollector};
use dcs_traffic::{gen, BackgroundConfig, ContentObject, Planting, SizeMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Kill the centre mid-epoch: checkpoint the collector at the given tick
/// offset of the given epoch, lose everything in flight, resume from the
/// checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Which soak epoch (0-based) the crash hits.
    pub epoch: usize,
    /// Tick offset within that epoch at which the centre dies.
    pub tick: u64,
}

/// Parameters of one soak run.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Monitoring points / expected digest bundles per epoch.
    pub routers: usize,
    /// Routers `0..infected` carry the planted content each epoch.
    pub infected: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Master seed; every epoch derives its own traffic/channel/jitter
    /// seeds from it.
    pub seed: u64,
    /// Channel impairment model.
    pub channel: ChannelConfig,
    /// Collector deadline/straggler/backoff settings.
    pub collector: CollectorConfig,
    /// Chunk payload bound handed to
    /// [`MonitoringPoint::finish_epoch_chunks`].
    pub max_payload: usize,
    /// The centre's minimum surviving-bundle quorum.
    pub min_quorum: usize,
    /// Packets of the planted content object.
    pub content_packets: usize,
    /// Background packets per router per epoch.
    pub bg_packets: usize,
    /// Background flows per router per epoch.
    pub bg_flows: usize,
    /// Optional mid-soak centre crash.
    pub kill: Option<KillPlan>,
}

impl SoakConfig {
    /// The issue's soak regime: 24 routers, 20 infected, lossy channel
    /// per [`ChannelConfig::soak`], quorum-16 floor, no crash.
    pub fn standard(epochs: usize, seed: u64) -> Self {
        SoakConfig {
            routers: 24,
            infected: 20,
            epochs,
            seed,
            channel: ChannelConfig::soak(),
            collector: CollectorConfig::default(),
            max_payload: 1024,
            min_quorum: 16,
            content_packets: 30,
            bg_packets: 800,
            bg_flows: 200,
            kill: None,
        }
    }
}

/// What one soak epoch produced.
#[derive(Debug, Clone)]
pub enum EpochOutcome {
    /// The epoch reached quorum and was analysed.
    Report(Box<EpochReport>),
    /// Too few bundles survived transport + validation; the typed
    /// degradation outcome, never a panic.
    QuorumTooSmall {
        /// The configured floor.
        required: usize,
        /// Bundles that did survive.
        accepted: usize,
    },
}

impl EpochOutcome {
    /// Maps one analysed epoch's result onto the typed outcome; an empty
    /// epoch counts as zero survivors against the `min_quorum` floor.
    pub(crate) fn from(min_quorum: usize, result: Result<EpochReport, IngestError>) -> Self {
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

    /// The detection verdicts of this epoch, serialized to a canonical
    /// JSON string — the unit of the kill/restart byte-identity check.
    /// Transport stats and timings are deliberately excluded: a crashed
    /// run legitimately retransmits more; it must *detect* identically.
    pub fn detection_set(&self) -> String {
        match self {
            EpochOutcome::Report(r) => format!(
                "{{\"found\":{},\"routers\":{:?},\"packets\":{},\"signature\":{:?},\"alarm\":{},\"suspected\":{:?},\"accepted\":{:?}}}",
                r.aligned.found,
                r.aligned.routers,
                r.aligned.content_packets,
                r.aligned.signature_indices,
                r.unaligned.alarm,
                r.unaligned.suspected_routers,
                r.ingest.accepted,
            ),
            EpochOutcome::QuorumTooSmall { required, accepted } => {
                format!("{{\"quorum_too_small\":[{required},{accepted}]}}")
            }
        }
    }
}

/// The full soak record.
#[derive(Debug)]
pub struct SoakResult {
    /// One outcome per epoch, in order.
    pub outcomes: Vec<EpochOutcome>,
    /// Transport stats summed across every epoch.
    pub totals: TransportStats,
    /// Ticks the virtual clock advanced over the whole run.
    pub ticks: u64,
    /// The centre's final metrics snapshot: cumulative per-stage
    /// timings, ingest/transport counters and kernel dispatch across
    /// every analysed epoch of the run.
    pub metrics: dcs_core::MetricsSnapshot,
}

impl SoakResult {
    /// Per-epoch detection sets (see [`EpochOutcome::detection_set`]).
    pub fn detection_sets(&self) -> Vec<String> {
        self.outcomes
            .iter()
            .map(EpochOutcome::detection_set)
            .collect()
    }

    /// Epochs that reached quorum.
    pub fn quorum_epochs(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, EpochOutcome::Report(_)))
            .count()
    }
}

/// Runs the soak. Deterministic in `cfg`; panics only on harness bugs —
/// every transport or quorum failure is a typed [`EpochOutcome`].
pub fn run_soak(cfg: &SoakConfig) -> SoakResult {
    assert!(cfg.infected <= cfg.routers);
    let mcfg = MonitorConfig::small(7, 1 << 14, 4);
    let mut monitors: Vec<MonitoringPoint> = (0..cfg.routers)
        .map(|id| MonitoringPoint::new(id, &mcfg))
        .collect();
    let mut acfg = AnalysisConfig::for_groups(cfg.routers * 4).with_min_quorum(cfg.min_quorum);
    acfg.search.n_prime = 400;
    acfg.search.hopefuls = 300;
    let center = AnalysisCenter::new(acfg);
    // Flat: the monitors' link to the centre is the only tier.
    let mut tiers = TierDriver::new(
        &[Tier {
            fan_in: 1,
            collector: cfg.collector,
            channel: cfg.channel,
            channel_salt: 0,
            collector_salt: 0,
        }],
        cfg.max_payload,
    );

    let bg = BackgroundConfig {
        packets: cfg.bg_packets,
        flows: cfg.bg_flows,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };

    let mut outcomes = Vec::with_capacity(cfg.epochs);
    let mut totals = TransportStats::default();
    let mut now: u64 = 0;
    let mut crashed = false;

    for e in 0..cfg.epochs {
        let epoch_seed = epoch_seed(cfg.seed, e);
        let mut rng = StdRng::seed_from_u64(epoch_seed);
        let obj = ContentObject::random_with_packets(&mut rng, cfg.content_packets, 536);
        let plant = Planting::aligned(obj, 536);
        for (id, mp) in monitors.iter_mut().enumerate() {
            let mut traffic = gen::generate_epoch(&mut rng, &bg);
            if id < cfg.infected {
                plant.plant_into(&mut rng, &mut traffic);
            }
            mp.observe_all(&traffic);
        }

        let kill = cfg.kill.filter(|k| k.epoch == e);
        let (epoch, _) = tiers.ship_epoch(
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
                    *collector = EpochCollector::resume(&ckpt, cfg.collector, epoch_seed, now)
                        .expect("own checkpoint must resume");
                }
            },
        );
        totals += epoch.stats;
        outcomes.push(EpochOutcome::from(
            cfg.min_quorum,
            center.analyze_epoch_collected(&epoch),
        ));
        now += 1;
    }

    SoakResult {
        outcomes,
        totals,
        ticks: now,
        metrics: center.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelConfig;

    #[test]
    fn perfect_channel_soak_detects_every_epoch() {
        let mut cfg = SoakConfig::standard(2, 11);
        cfg.channel = ChannelConfig::perfect();
        let result = run_soak(&cfg);
        assert_eq!(result.quorum_epochs(), 2);
        for o in &result.outcomes {
            let EpochOutcome::Report(r) = o else {
                panic!("perfect channel must reach quorum")
            };
            assert_eq!(r.routers, 24);
            assert!(r.aligned.found, "planted content missed");
            assert_eq!(r.transport.retransmits, 0);
            assert_eq!(r.transport.corrupt_chunks, 0);
        }
        assert!(result.totals.chunks_received > 0);
        assert_eq!(
            result.metrics.counter("epochs_analyzed_total"),
            Some(2),
            "soak metrics must cover every analysed epoch"
        );
        assert_eq!(
            result.metrics.counter("transport_chunks_received_total"),
            Some(result.totals.chunks_received),
        );
    }

    #[test]
    fn lossy_soak_recovers_via_retransmits() {
        let cfg = SoakConfig::standard(2, 12);
        let result = run_soak(&cfg);
        assert_eq!(result.quorum_epochs(), 2, "{:?}", result.detection_sets());
        assert!(
            result.totals.retransmits > 0,
            "a 10% loss regime must trigger retransmits"
        );
        for o in &result.outcomes {
            let EpochOutcome::Report(r) = o else {
                unreachable!()
            };
            assert!(r.aligned.found, "planted content missed under loss");
        }
    }
}
