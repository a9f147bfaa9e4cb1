//! Whole-deployment orchestration: the multi-epoch loop the examples
//! hand-roll, packaged for downstream users.
//!
//! A [`Deployment`] owns one [`MonitoringPoint`] per router, the
//! [`AnalysisCenter`], an [`EpochSampler`] (paper §IV-D possibility 5) and
//! per-pipeline [`AlarmTracker`]s (§V-B.1's detection-across-epochs).
//! Feed it one epoch of per-router traffic at a time; it returns a
//! verdict whenever the sampler lets an epoch through.

use crate::capture::{GroupCapture, SignatureCapture};
use crate::center::{AnalysisCenter, AnalysisConfig};
use crate::epochs::{AlarmTracker, EpochSampler};
use crate::monitor::{MonitorConfig, MonitoringPoint};
use crate::report::EpochReport;
use dcs_traffic::Packet;

/// A running DCS deployment.
#[derive(Debug)]
pub struct Deployment {
    monitor_cfg: MonitorConfig,
    points: Vec<MonitoringPoint>,
    center: AnalysisCenter,
    sampler: EpochSampler,
    aligned_tracker: AlarmTracker,
    unaligned_tracker: AlarmTracker,
    epoch: usize,
}

/// The outcome of one analysed epoch.
#[derive(Debug, Clone)]
pub struct DeploymentVerdict {
    /// Epoch index (counting every epoch, analysed or not).
    pub epoch: usize,
    /// The full per-epoch report.
    pub report: EpochReport,
    /// Smoothed (windowed) aligned alarm.
    pub stable_aligned: bool,
    /// Smoothed (windowed) unaligned alarm.
    pub stable_unaligned: bool,
}

impl Deployment {
    /// Creates a deployment of `routers` monitoring points. Analyses every
    /// epoch and fires alarms 1-of-1 by default; see
    /// [`Deployment::with_sampling`] and [`Deployment::with_alarm_window`].
    pub fn new(routers: usize, monitor_cfg: MonitorConfig, analysis_cfg: AnalysisConfig) -> Self {
        assert!(routers > 0, "a deployment needs at least one router");
        let points = (0..routers)
            .map(|r| MonitoringPoint::new(r, &monitor_cfg))
            .collect();
        Deployment {
            monitor_cfg,
            points,
            center: AnalysisCenter::new(analysis_cfg),
            sampler: EpochSampler::new(1),
            aligned_tracker: AlarmTracker::new(1, 1),
            unaligned_tracker: AlarmTracker::new(1, 1),
            epoch: 0,
        }
    }

    /// Analyse only one epoch in `every`.
    pub fn with_sampling(mut self, every: usize) -> Self {
        self.sampler = EpochSampler::new(every);
        self
    }

    /// Smooth both alarms over `min_alarms`-of-`window` analysed epochs.
    pub fn with_alarm_window(mut self, window: usize, min_alarms: usize) -> Self {
        self.aligned_tracker = AlarmTracker::new(window, min_alarms);
        self.unaligned_tracker = AlarmTracker::new(window, min_alarms);
        self
    }

    /// Number of monitoring points.
    pub fn routers(&self) -> usize {
        self.points.len()
    }

    /// Epochs processed so far.
    pub fn epochs_seen(&self) -> usize {
        self.epoch
    }

    /// Processes one epoch: `traffic[r]` is router r's packet stream.
    /// Returns `None` when the sampler skipped the epoch (collectors are
    /// still reset so epochs stay aligned), otherwise the verdict.
    ///
    /// # Panics
    /// Panics if `traffic.len() != routers()`.
    pub fn run_epoch(&mut self, traffic: &[Vec<Packet>]) -> Option<DeploymentVerdict> {
        assert_eq!(
            traffic.len(),
            self.points.len(),
            "one traffic stream per router required"
        );
        let epoch = self.epoch;
        self.epoch += 1;
        let analyse = self.sampler.tick();
        if !analyse {
            // Skipped epochs are not even collected (that is the point of
            // sampling: the collectors idle); reset state to stay aligned.
            return None;
        }
        let digests: Vec<_> = self
            .points
            .iter_mut()
            .zip(traffic)
            .map(|(point, pkts)| {
                point.observe_all(pkts);
                point.finish_epoch()
            })
            .collect();
        // The deployment collects from its own points, so the batch is
        // self-consistent and always forms a quorum.
        let report = self
            .center
            .analyze_epoch(&digests)
            .expect("self-collected digests always form a quorum");
        let stable_aligned = self.aligned_tracker.record(report.aligned.found);
        let stable_unaligned = self.unaligned_tracker.record(report.unaligned.alarm);
        Some(DeploymentVerdict {
            epoch,
            report,
            stable_aligned,
            stable_unaligned,
        })
    }

    /// Primes an aligned-case capture filter from a verdict's signature
    /// (valid while the deployment keeps its epoch hash seed).
    pub fn signature_capture(&self, verdict: &DeploymentVerdict) -> SignatureCapture {
        SignatureCapture::new(
            &self.monitor_cfg.aligned,
            &verdict.report.aligned.signature_indices,
        )
    }

    /// Primes a per-router unaligned capture filter from a verdict's
    /// suspected groups: global group ids are translated into router-local
    /// ids for `router`.
    pub fn group_capture(&self, verdict: &DeploymentVerdict, router: usize) -> GroupCapture {
        let groups = self.monitor_cfg.unaligned.groups;
        let local: Vec<usize> = verdict
            .report
            .unaligned
            .suspected_groups
            .iter()
            .filter(|&&g| g / groups == router)
            .map(|&g| g % groups)
            .collect();
        // Reconstruct the router's collector config (same derivation as
        // MonitoringPoint::new).
        let mut ucfg = self.monitor_cfg.unaligned.clone();
        ucfg.router_seed = ucfg
            .router_seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(router as u64 + 1));
        GroupCapture::new(&ucfg, &local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_traffic::gen::{generate_epoch, BackgroundConfig, SizeMix};
    use dcs_traffic::{ContentObject, Planting};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ROUTERS: usize = 24;

    fn traffic_epoch(rng: &mut StdRng, infected: usize, plant: &Planting) -> Vec<Vec<Packet>> {
        let bg = BackgroundConfig {
            packets: 700,
            flows: 180,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        };
        (0..ROUTERS)
            .map(|r| {
                let mut t = generate_epoch(rng, &bg);
                if r < infected {
                    plant.plant_into(rng, &mut t);
                }
                t
            })
            .collect()
    }

    fn deployment() -> Deployment {
        let mcfg = MonitorConfig::small(21, 1 << 14, 4);
        let mut acfg = AnalysisConfig::for_groups(ROUTERS * 4);
        acfg.search.n_prime = 300;
        acfg.search.hopefuls = 200;
        Deployment::new(ROUTERS, mcfg, acfg)
    }

    #[test]
    fn multi_epoch_loop_with_sampling_and_smoothing() {
        let mut rng = StdRng::seed_from_u64(1);
        let object = ContentObject::random_with_packets(&mut rng, 30, 536);
        let plant = Planting::aligned(object, 536);
        let mut dep = deployment().with_sampling(2).with_alarm_window(2, 2);

        let mut verdicts = Vec::new();
        for _ in 0..6 {
            let traffic = traffic_epoch(&mut rng, 18, &plant);
            if let Some(v) = dep.run_epoch(&traffic) {
                verdicts.push(v);
            }
        }
        assert_eq!(dep.epochs_seen(), 6);
        assert_eq!(verdicts.len(), 3, "1-in-2 sampling analyses 3 of 6");
        assert!(verdicts.iter().all(|v| v.report.aligned.found));
        assert!(
            !verdicts[0].stable_aligned,
            "2-of-2 smoothing needs a second epoch"
        );
        assert!(verdicts[1].stable_aligned);
        assert!(verdicts[2].stable_aligned);
    }

    #[test]
    fn verdict_primes_working_signature_capture() {
        let mut rng = StdRng::seed_from_u64(2);
        let object = ContentObject::random_with_packets(&mut rng, 30, 536);
        let plant = Planting::aligned(object, 536);
        let mut dep = deployment();
        let traffic = traffic_epoch(&mut rng, 18, &plant);
        let v = dep.run_epoch(&traffic).expect("analysed");
        assert!(v.report.aligned.found);

        let filter = dep.signature_capture(&v);
        assert!(!filter.is_empty());
        // A fresh content instance from the next epoch must be captured.
        let instance = plant.instantiate(&mut rng);
        let captured = filter.capture(&instance);
        assert!(
            captured.len() * 10 >= instance.len() * 8,
            "captured only {}/{} content packets",
            captured.len(),
            instance.len()
        );
    }

    #[test]
    fn group_capture_translates_global_ids() {
        let dep = deployment();
        let verdict = DeploymentVerdict {
            epoch: 0,
            report: crate::report::EpochReport {
                routers: ROUTERS,
                raw_bytes: 0,
                digest_bytes: 0,
                aligned: crate::report::AlignedReport {
                    found: false,
                    routers: vec![],
                    content_packets: 0,
                    signature_indices: vec![],
                },
                unaligned: crate::report::UnalignedReport {
                    alarm: true,
                    largest_component: 50,
                    component_threshold: 10,
                    suspected_routers: vec![2],
                    // Global groups 8..12 belong to router 2 (4 per router).
                    suspected_groups: vec![9, 11],
                },
                ingest: Default::default(),
                transport: Default::default(),
            },
            stable_aligned: false,
            stable_unaligned: true,
        };
        let filter = dep.group_capture(&verdict, 2);
        assert!((filter.expected_capture_fraction() - 0.5).abs() < 1e-12);
        let other = dep.group_capture(&verdict, 3);
        assert_eq!(other.expected_capture_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "one traffic stream per router")]
    fn mismatched_traffic_rejected() {
        let mut dep = deployment();
        dep.run_epoch(&[Vec::new()]);
    }
}
