//! One way across: how chunk frames get from senders to receivers over
//! [`LossyChannel`]s on the virtual clock.
//!
//! A *hop* is a set of links — a channel with the receiver behind it —
//! driven in lock-step, one tick at a time: deliver what is due, offer it,
//! route cumulative acks back, fire retransmit timers, put the resent
//! chunks back on the channel. [`drive_hop`] is that loop, for any
//! [`Receiver`]: an [`EpochCollector`] at the centre or an [`Aggregator`]
//! in between. Every topology the soak driver runs, flat, two-level or
//! three-level, is a list of `Tier`s handed to one `TierDriver`: an
//! aggregator is a receiver whose `finalize` emits a bundle onto the next
//! tier's links.

use crate::channel::{ChannelConfig, LossyChannel};
use dcs_core::aggregate::Aggregator;
use dcs_core::monitor::MonitoringPoint;
use dcs_core::report::TransportStats;
use dcs_core::session::{
    ChunkDisposition, CollectedEpoch, CollectorConfig, EpochCollector, RetransmitRequest,
};
use dcs_core::transport::chunk_bundle;
use dcs_core::MetricsRegistry;
use std::ops::Range;

/// The receiving end of a link, as [`drive_hop`] sees it. The trait exists
/// so one loop serves the centre's collector and an aggregator alike.
pub trait Receiver {
    /// Offers one frame as it arrives off the channel.
    fn offer(&mut self, frame: &[u8], now: u64) -> ChunkDisposition;
    /// Fires due retransmit timers.
    fn poll(&mut self, now: u64) -> Vec<RetransmitRequest>;
    /// Whether the straggler policy says to stop waiting at `now`.
    fn ready(&self, now: u64) -> bool;
}

impl Receiver for EpochCollector {
    fn offer(&mut self, frame: &[u8], now: u64) -> ChunkDisposition {
        EpochCollector::offer(self, frame, now)
    }
    fn poll(&mut self, now: u64) -> Vec<RetransmitRequest> {
        EpochCollector::poll(self, now)
    }
    fn ready(&self, now: u64) -> bool {
        EpochCollector::ready(self, now)
    }
}

impl Receiver for Aggregator {
    fn offer(&mut self, frame: &[u8], now: u64) -> ChunkDisposition {
        Aggregator::offer(self, frame, now)
    }
    fn poll(&mut self, now: u64) -> Vec<RetransmitRequest> {
        Aggregator::poll(self, now)
    }
    fn ready(&self, now: u64) -> bool {
        Aggregator::ready(self, now)
    }
}

/// The sending side of a hop: who takes the cumulative acks and answers
/// the retransmit requests.
#[derive(Debug)]
pub enum Senders<'a> {
    /// Live monitoring points, indexed by router id, serving acks and
    /// resends from their one-epoch resend buffers.
    Monitors {
        /// The monitoring points.
        points: &'a mut [MonitoringPoint],
        /// The epoch being shipped (acks carry no epoch id of their own).
        epoch_id: u64,
    },
    /// Chunk frames the driver holds — replayed bundles, or aggregators
    /// on an upstream hop: `chunks[router_id - first_id]`. Acks are
    /// ignored.
    Stored {
        /// Router id of `chunks[0]`.
        first_id: u64,
        /// Every sender's chunk frames, in sequence order.
        chunks: &'a [Vec<Vec<u8>>],
    },
}

impl Senders<'_> {
    fn ack(&mut self, router_id: u64, cumulative_ack: u32) {
        if let Senders::Monitors { points, epoch_id } = self {
            points[router_id as usize].ack(*epoch_id, cumulative_ack);
        }
    }

    /// Answers `req` by putting the requested chunks back on `channel`.
    fn resend(&self, req: &RetransmitRequest, channel: &mut LossyChannel, now: u64) {
        match self {
            Senders::Monitors { points, .. } => {
                for frame in points[req.router_id as usize].resend(req.epoch_id, &req.missing) {
                    channel.send(&frame, now);
                }
            }
            Senders::Stored { first_id, chunks } => {
                let held = req
                    .router_id
                    .checked_sub(*first_id)
                    .and_then(|i| chunks.get(usize::try_from(i).ok()?));
                for frame in held.into_iter().flat_map(|c| req.missing.select(c)) {
                    channel.send(frame, now);
                }
            }
        }
    }
}

/// Drives one hop — link `i` is `channels[i]` feeding `receivers[i]` —
/// tick by tick until every receiver is ready or `max_ticks` have passed,
/// advancing `now`. Per tick and link: deliver what is due, offer it and
/// ack the senders, run `hook`, then poll and have `senders` answer each
/// retransmit request. `hook` sees the link between offer and poll — where
/// a centre that dies mid-epoch checkpoints and resumes.
///
/// Returns whether the hop converged. A hop that ran into the cap still
/// finalizes: its incomplete sessions become typed exclusions.
///
/// # Panics
/// Panics if `channels` and `receivers` differ in length.
pub fn drive_hop<R: Receiver>(
    channels: &mut [LossyChannel],
    receivers: &mut [R],
    mut senders: Senders<'_>,
    now: &mut u64,
    max_ticks: u64,
    mut hook: impl FnMut(&mut LossyChannel, &mut R, u64),
) -> bool {
    assert_eq!(channels.len(), receivers.len(), "one channel per receiver");
    let cap = now.saturating_add(max_ticks);
    loop {
        for (channel, receiver) in channels.iter_mut().zip(receivers.iter_mut()) {
            for frame in channel.deliver_due(*now) {
                if let ChunkDisposition::Accepted {
                    router_id,
                    cumulative_ack,
                } = receiver.offer(&frame, *now)
                {
                    senders.ack(router_id, cumulative_ack);
                }
            }
            hook(channel, receiver, *now);
            for req in receiver.poll(*now) {
                senders.resend(&req, channel, *now);
            }
        }
        if receivers.iter().all(|r| r.ready(*now)) {
            return true;
        }
        if *now >= cap {
            return false;
        }
        *now += 1;
    }
}

/// Aggregator router ids live far above any leaf id: receiver `a` of
/// aggregation level `l` is `AGG_ID_BASE * l + a`.
const AGG_ID_BASE: u64 = 1 << 20;

/// Decorrelates the channel seeds of one tier's links.
const LINK_SALT: u64 = 0x517C_C1B7_2722_0A95;

/// The seed every RNG of soak epoch `e` derives from: traffic, channel
/// impairments and retransmit jitter all replay from it, so a divergence
/// in one epoch (e.g. a centre crash) cannot cascade into the next
/// epoch's fault pattern.
pub(crate) fn epoch_seed(seed: u64, e: usize) -> u64 {
    seed.wrapping_add((e as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The contiguous share of `n` senders that receiver `a` of `parts` owns
/// (the last receiver takes the remainder).
fn region(n: usize, parts: usize, a: usize) -> Range<usize> {
    let per = n / parts;
    let end = if a + 1 == parts { n } else { (a + 1) * per };
    a * per..end
}

/// One tier of a topology: its receivers and the lossy links feeding
/// them. Topologies differ in this data, not in code.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tier {
    /// Receivers at this tier, one link each; the senders below are
    /// split contiguously among them.
    pub fan_in: usize,
    /// Collector settings of each receiver.
    pub collector: CollectorConfig,
    /// Impairments of each link.
    pub channel: ChannelConfig,
    /// Mixed into the per-epoch seed of this tier's channels.
    pub channel_salt: u64,
    /// Mixed into the per-epoch seed of this tier's retransmit jitter.
    pub collector_salt: u64,
}

/// Carries epochs up a list of tiers. The last tier is the centre's
/// [`EpochCollector`]; every tier before it is a row of [`Aggregator`]s
/// (level 1, 2, …) that bundle what they collected and ship it up as
/// ordinary chunks. Channels outlive the epoch: frames still in flight
/// when an epoch closes arrive in the next one, late.
#[derive(Debug)]
pub(crate) struct TierDriver {
    tiers: Vec<(Tier, Vec<LossyChannel>)>,
    max_payload: usize,
    /// What the aggregation tiers report (finalize spans, forwarded
    /// bytes, per-fault child exclusions).
    pub agg_metrics: MetricsRegistry,
}

impl TierDriver {
    /// `tiers` from the leaves up; chunks carry at most `max_payload`
    /// digest bytes on every hop.
    pub fn new(tiers: &[Tier], max_payload: usize) -> Self {
        assert_eq!(tiers.last().map(|t| t.fan_in), Some(1), "one centre");
        TierDriver {
            tiers: tiers
                .iter()
                // Seeded for real by the per-epoch reseed, before any send.
                .map(|t| {
                    let links = (0..t.fan_in).map(|_| LossyChannel::new(t.channel, 0));
                    (*t, links.collect())
                })
                .collect(),
            max_payload,
            agg_metrics: MetricsRegistry::new(),
        }
    }

    /// Closes the epoch at every monitoring point and carries the bundles
    /// up the tiers on the virtual clock `now`. Each hop is capped at 4×
    /// its collector deadline, so a pathological regime still terminates
    /// and finalizes with typed exclusions. `hook` is [`drive_hop`]'s, on
    /// the centre's link.
    ///
    /// Returns what the centre collected and each tier's delivery stats,
    /// leaves first.
    pub fn ship_epoch(
        &mut self,
        monitors: &mut [MonitoringPoint],
        epoch_seed: u64,
        now: &mut u64,
        mut hook: impl FnMut(&mut LossyChannel, &mut EpochCollector, u64),
    ) -> (CollectedEpoch, Vec<TransportStats>) {
        let epoch_id = monitors[0].epochs_finished();
        let mut ids: Vec<u64> = (0..monitors.len() as u64).collect();
        let mut chunks: Vec<Vec<Vec<u8>>> = monitors
            .iter_mut()
            .map(|mp| {
                mp.finish_epoch_chunks(self.max_payload)
                    .expect("monitor bundles fit the wire format")
            })
            .collect();
        let mut stats = Vec::with_capacity(self.tiers.len());
        let centre = self.tiers.len() - 1;

        for (below, (tier, channels)) in self.tiers.iter_mut().enumerate() {
            for (a, channel) in channels.iter_mut().enumerate() {
                channel.reseed(epoch_seed ^ tier.channel_salt ^ (a as u64).wrapping_mul(LINK_SALT));
                for chunk in chunks[region(ids.len(), tier.fan_in, a)].iter().flatten() {
                    channel.send(chunk, *now);
                }
            }
            let senders = if below == 0 {
                Senders::Monitors {
                    points: &mut *monitors,
                    epoch_id,
                }
            } else {
                Senders::Stored {
                    first_id: ids[0],
                    chunks: &chunks,
                }
            };
            let max_ticks = tier.collector.deadline * 4;
            let seed = epoch_seed ^ tier.collector_salt;

            if below == centre {
                let mut collector = [EpochCollector::new(
                    epoch_id,
                    ids,
                    tier.collector,
                    seed,
                    *now,
                )];
                drive_hop(channels, &mut collector, senders, now, max_ticks, &mut hook);
                let epoch = collector[0].finalize(*now);
                stats.push(epoch.stats);
                return (epoch, stats);
            }

            let level = below as u8 + 1;
            let mut aggs: Vec<Aggregator> = (0..tier.fan_in)
                .map(|a| {
                    Aggregator::new(
                        AGG_ID_BASE * u64::from(level) + a as u64,
                        level,
                        epoch_id,
                        ids[region(ids.len(), tier.fan_in, a)].iter().copied(),
                        tier.collector,
                        seed ^ a as u64,
                        *now,
                    )
                })
                .collect();
            drive_hop(channels, &mut aggs, senders, now, max_ticks, |_, _, _| {});

            let mut tier_stats = TransportStats::default();
            ids = aggs.iter().map(Aggregator::id).collect();
            chunks = aggs
                .iter_mut()
                .map(|agg| {
                    tier_stats += agg.stats();
                    let bundle = agg.finalize(*now, &self.agg_metrics);
                    chunk_bundle(agg.id(), epoch_id, &bundle.encode_wire(), self.max_payload)
                })
                .collect();
            stats.push(tier_stats);
        }
        unreachable!("the last tier returns the centre's epoch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::ingest::RouterFault;
    use dcs_core::session::Missing;
    use std::cell::RefCell;

    fn stored_chunks(routers: u64) -> Vec<Vec<Vec<u8>>> {
        (0..routers)
            .map(|r| chunk_bundle(r, 0, &vec![r as u8; 700], 256))
            .collect()
    }

    fn send_all(channel: &mut LossyChannel, chunks: &[Vec<Vec<u8>>]) {
        for chunk in chunks.iter().flatten() {
            channel.send(chunk, 0);
        }
    }

    #[test]
    fn all_links_ready_ends_the_hop() {
        // Two links; the second is slower, and the hop ends with it.
        let chunks = stored_chunks(4);
        let slow = ChannelConfig {
            base_delay: 5,
            ..ChannelConfig::perfect()
        };
        let mut channels = [
            LossyChannel::new(ChannelConfig::perfect(), 1),
            LossyChannel::new(slow, 2),
        ];
        send_all(&mut channels[0], &chunks[..2]);
        send_all(&mut channels[1], &chunks[2..]);
        let mut collectors = [
            EpochCollector::new(0, [0, 1], CollectorConfig::default(), 1, 0),
            EpochCollector::new(0, [2, 3], CollectorConfig::default(), 2, 0),
        ];
        let mut now = 0;
        let senders = Senders::Stored {
            first_id: 0,
            chunks: &chunks,
        };
        let converged = drive_hop(
            &mut channels,
            &mut collectors,
            senders,
            &mut now,
            100,
            |_, _, _| {},
        );
        assert!(converged);
        assert_eq!(now, 5, "the hop ends the tick its slowest link is ready");
        for c in &mut collectors {
            let epoch = c.finalize(now);
            assert_eq!(epoch.frames.len(), 2);
            assert!(epoch.exclusions.is_empty());
        }
    }

    #[test]
    fn cap_ends_the_hop_with_typed_exclusions() {
        // Router 1's chunks never arrive and nobody can resend them.
        let chunks = stored_chunks(1);
        let mut channels = [LossyChannel::new(ChannelConfig::perfect(), 1)];
        send_all(&mut channels[0], &chunks);
        let cfg = CollectorConfig {
            deadline: 1 << 20,
            ..CollectorConfig::default()
        };
        let mut collector = [EpochCollector::new(0, [0, 1], cfg, 1, 0)];
        let mut now = 3;
        let senders = Senders::Stored {
            first_id: 0,
            chunks: &chunks,
        };
        let converged = drive_hop(
            &mut channels,
            &mut collector,
            senders,
            &mut now,
            40,
            |_, _, _| {},
        );
        assert!(!converged);
        assert_eq!(now, 43, "the cap counts from the tick the hop started");
        let epoch = collector[0].finalize(now);
        assert_eq!(epoch.frames.len(), 1);
        assert_eq!(epoch.exclusions.len(), 1);
        assert_eq!(epoch.exclusions[0].router_id, Some(1));
        assert!(matches!(
            epoch.exclusions[0].fault,
            RouterFault::Incomplete { received: 0, .. }
        ));
    }

    /// A receiver that only logs what the loop does to it.
    struct Logged<'a>(&'a RefCell<Vec<&'static str>>);

    impl Receiver for Logged<'_> {
        fn offer(&mut self, _: &[u8], _: u64) -> ChunkDisposition {
            self.0.borrow_mut().push("offer");
            ChunkDisposition::Late
        }
        fn poll(&mut self, _: u64) -> Vec<RetransmitRequest> {
            self.0.borrow_mut().push("poll");
            vec![RetransmitRequest {
                router_id: 0,
                epoch_id: 0,
                missing: Missing::Seqs(vec![0, 9]),
            }]
        }
        fn ready(&self, now: u64) -> bool {
            now >= 1
        }
    }

    #[test]
    fn hook_runs_between_offer_and_poll() {
        let log = RefCell::new(Vec::new());
        let chunks = vec![vec![vec![7u8; 8]]];
        let mut channels = [LossyChannel::new(ChannelConfig::perfect(), 1)];
        channels[0].send(&[1], 0);
        let mut now = 0;
        let senders = Senders::Stored {
            first_id: 0,
            chunks: &chunks,
        };
        drive_hop(
            &mut channels,
            &mut [Logged(&log)],
            senders,
            &mut now,
            10,
            |_, _, _| log.borrow_mut().push("hook"),
        );
        // Tick 0 delivers the frame sent before the hop; tick 1 delivers
        // the chunk tick 0's poll had resent (seq 9 selects nothing).
        assert_eq!(
            *log.borrow(),
            ["offer", "hook", "poll", "offer", "hook", "poll"]
        );
        assert_eq!(now, 1);
    }
}
