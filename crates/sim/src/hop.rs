//! One way across: how chunk frames get from senders to receivers over
//! [`LossyChannel`]s on the virtual clock.
//!
//! A *hop* is a set of links — a channel with the receiver behind it —
//! driven in lock-step, one tick at a time. Both ends run the deployed
//! protocol's state machines from `dcs_core::session`, the same ones the
//! socket drivers of `dcs_core::net` run: each [`Sender`] is a
//! [`SendSession`] over the chunk frames it ships, and each receiver
//! answers what arrives with [`EpochCollector::answer`]. Control frames
//! go back unimpaired and on the same tick. [`drive_hop`] is that loop,
//! for any [`Receiver`]: an [`EpochCollector`] at the centre or an
//! [`Aggregator`] in between. Both topologies the soak driver runs, flat
//! and two-level, are a list of `Tier`s handed to one `TierDriver`: an
//! aggregator is a receiver whose `finalize` emits a bundle its own
//! sender ships onto the centre's links.

use crate::channel::{ChannelConfig, LossyChannel};
use dcs_core::aggregate::Aggregator;
use dcs_core::monitor::MonitoringPoint;
use dcs_core::report::TransportStats;
use dcs_core::session::{
    CollectedEpoch, CollectorConfig, ControlFrame, EpochCollector, MonitorEpochConfig, SendSession,
    SendStep,
};
use dcs_core::transport::chunk_bundle;
use dcs_core::MetricsRegistry;
use std::collections::BTreeMap;
use std::ops::Range;

/// The receiving end of a link, as [`drive_hop`] sees it. The trait exists
/// so one loop serves the centre's collector and an aggregator alike.
pub trait Receiver {
    /// Answers one batch of arrivals (see [`EpochCollector::answer`]).
    fn answer(&mut self, frames: &[Vec<u8>], now: u64) -> Vec<ControlFrame>;
    /// Whether the straggler policy says to stop waiting at `now`.
    fn ready(&self, now: u64) -> bool;
}

impl Receiver for EpochCollector {
    fn answer(&mut self, frames: &[Vec<u8>], now: u64) -> Vec<ControlFrame> {
        EpochCollector::answer(self, frames, now)
    }
    fn ready(&self, now: u64) -> bool {
        EpochCollector::ready(self, now)
    }
}

impl Receiver for Aggregator {
    fn answer(&mut self, frames: &[Vec<u8>], now: u64) -> Vec<ControlFrame> {
        Aggregator::answer(self, frames, now)
    }
    fn ready(&self, now: u64) -> bool {
        Aggregator::ready(self, now)
    }
}

/// One sender of a hop: a [`SendSession`] over the chunk frames it ships
/// on one link.
#[derive(Debug)]
pub struct Sender<'a> {
    router_id: u64,
    link: usize,
    chunks: &'a [Vec<u8>],
    session: SendSession,
    /// Seqs to put on the wire at the next step.
    seqs: Vec<u32>,
}

impl<'a> Sender<'a> {
    /// A sender shipping `chunks` under `cfg` onto link `link` (an index
    /// into [`drive_hop`]'s channels), starting at tick `now`. Its first
    /// step puts the first window on the wire.
    pub fn new(link: usize, chunks: &'a [Vec<u8>], cfg: &MonitorEpochConfig, now: u64) -> Self {
        Sender {
            router_id: cfg.router_id,
            link,
            chunks,
            session: SendSession::new(cfg, chunks.len(), now),
            seqs: Vec::new(),
        }
    }

    fn take(&mut self, control: &ControlFrame, now: u64) {
        self.session.take(control, now, &mut self.seqs);
    }

    /// One step: the chunks the session names go on the channel.
    fn step(&mut self, channel: &mut LossyChannel, now: u64) {
        if let SendStep::Send { .. } = self.session.step(now, &mut self.seqs) {
            for &seq in &self.seqs {
                channel.send(&self.chunks[seq as usize], now);
            }
        }
        self.seqs.clear();
    }
}

/// Drives one hop — link `i` is `channels[i]` feeding `receivers[i]` —
/// tick by tick until every receiver is ready or `max_ticks` have passed,
/// advancing `now`. Per tick and link: deliver what is due as one batch,
/// have the receiver answer it, hand each control frame to the sender it
/// names, run `hook`, then step every sender of the link and put the
/// chunks it names on the channel. `hook` sees the link between the
/// answer and the senders' step — where a centre that dies mid-epoch
/// checkpoints and resumes.
///
/// Returns whether the hop converged. A hop that ran into the cap still
/// finalizes: its incomplete sessions become typed exclusions.
///
/// # Panics
/// Panics if `channels` and `receivers` differ in length, or a sender's
/// link is not one of them.
pub fn drive_hop<R: Receiver>(
    channels: &mut [LossyChannel],
    receivers: &mut [R],
    senders: &mut [Sender<'_>],
    now: &mut u64,
    max_ticks: u64,
    mut hook: impl FnMut(&mut LossyChannel, &mut R, u64),
) -> bool {
    assert_eq!(channels.len(), receivers.len(), "one channel per receiver");
    assert!(
        senders.iter().all(|s| s.link < channels.len()),
        "no such link"
    );
    let by_id: BTreeMap<u64, usize> = (senders.iter().enumerate())
        .map(|(i, s)| (s.router_id, i))
        .collect();
    let cap = now.saturating_add(max_ticks);
    loop {
        for (link, (channel, receiver)) in channels.iter_mut().zip(receivers.iter_mut()).enumerate()
        {
            let frames = channel.deliver_due(*now);
            for control in receiver.answer(&frames, *now) {
                if let Some(&i) = by_id.get(&control.router_id()) {
                    senders[i].take(&control, *now);
                }
            }
            hook(channel, receiver, *now);
            for sender in senders.iter_mut().filter(|s| s.link == link) {
                sender.step(channel, *now);
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

/// Aggregator router ids live far above any leaf id: aggregator `a` is
/// `AGG_ID_BASE + a`.
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
/// [`EpochCollector`]; the one tier that may come before it is a row of
/// level-1 [`Aggregator`]s that bundle what they collected and ship it
/// up as ordinary chunks. Channels outlive the epoch: frames still in
/// flight when an epoch closes arrive in the next one, late.
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
        assert!(tiers.len() <= 2, "one aggregation level");
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
    /// up the tiers on the virtual clock `now`. Every sender, a leaf or an
    /// aggregator, runs a [`SendSession`] with its tier's collector
    /// timers: `resend_after` is the session's `base_backoff`,
    /// `max_backoff` its `max_backoff`. Each hop is capped at 4× its
    /// collector deadline, and a sender gives up after as many ticks
    /// without progress, so a pathological regime still terminates and
    /// finalizes with typed exclusions. `hook` is [`drive_hop`]'s, on the
    /// centre's link.
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
            let max_ticks = tier.collector.deadline * 4;
            let mut senders = Vec::with_capacity(ids.len());
            for (a, channel) in channels.iter_mut().enumerate() {
                channel.reseed(epoch_seed ^ tier.channel_salt ^ (a as u64).wrapping_mul(LINK_SALT));
                let region = region(ids.len(), tier.fan_in, a);
                for (&router_id, chunks) in ids[region.clone()].iter().zip(&chunks[region]) {
                    let cfg = MonitorEpochConfig {
                        router_id,
                        epoch_id,
                        resend_after: tier.collector.session.base_backoff,
                        max_backoff: tier.collector.session.max_backoff,
                        give_up: max_ticks,
                    };
                    senders.push(Sender::new(a, chunks, &cfg, *now));
                }
            }
            let seed = epoch_seed ^ tier.collector_salt;

            if below == centre {
                let mut collector = [EpochCollector::new(
                    epoch_id,
                    ids,
                    tier.collector,
                    seed,
                    *now,
                )];
                drive_hop(
                    channels,
                    &mut collector,
                    &mut senders,
                    now,
                    max_ticks,
                    &mut hook,
                );
                let epoch = collector[0].finalize(*now);
                stats.push(epoch.stats);
                return (epoch, stats);
            }

            let mut aggs: Vec<Aggregator> = (0..tier.fan_in)
                .map(|a| {
                    Aggregator::new(
                        AGG_ID_BASE + a as u64,
                        1,
                        epoch_id,
                        ids[region(ids.len(), tier.fan_in, a)].iter().copied(),
                        tier.collector,
                        seed ^ a as u64,
                        *now,
                    )
                })
                .collect();
            drive_hop(
                channels,
                &mut aggs,
                &mut senders,
                now,
                max_ticks,
                |_, _, _| {},
            );

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
    use crate::soak::SoakConfig;
    use dcs_core::ingest::RouterFault;
    use dcs_core::session::{SessionConfig, StragglerPolicy, SEND_WINDOW};
    use dcs_core::transport::{ChunkFrame, DATAGRAM_SAFE_PAYLOAD};
    use std::cell::RefCell;
    use std::io::Write;

    fn stored_chunks(routers: u64, len: usize) -> Vec<Vec<Vec<u8>>> {
        (0..routers)
            .map(|r| chunk_bundle(r, 0, &vec![r as u8; len], 256))
            .collect()
    }

    /// One sender a router, router `r` on link `links[r]`.
    fn senders<'a>(chunks: &'a [Vec<Vec<u8>>], links: &[usize]) -> Vec<Sender<'a>> {
        (chunks.iter().zip(links).enumerate())
            .map(|(r, (chunks, &link))| {
                let cfg = MonitorEpochConfig {
                    router_id: r as u64,
                    epoch_id: 0,
                    resend_after: 8,
                    max_backoff: 64,
                    give_up: 1_000,
                };
                Sender::new(link, chunks, &cfg, 0)
            })
            .collect()
    }

    #[test]
    fn all_links_ready_ends_the_hop() {
        // Two links; the second is slower, and the hop ends with it.
        let chunks = stored_chunks(4, 700);
        let slow = ChannelConfig {
            base_delay: 5,
            ..ChannelConfig::perfect()
        };
        let mut channels = [
            LossyChannel::new(ChannelConfig::perfect(), 1),
            LossyChannel::new(slow, 2),
        ];
        let mut collectors = [
            EpochCollector::new(0, [0, 1], CollectorConfig::default(), 1, 0),
            EpochCollector::new(0, [2, 3], CollectorConfig::default(), 2, 0),
        ];
        let mut now = 0;
        let mut senders = senders(&chunks, &[0, 0, 1, 1]);
        let converged = drive_hop(
            &mut channels,
            &mut collectors,
            &mut senders,
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
        // Router 1 has no sender: nobody answers its NACKs.
        let chunks = stored_chunks(1, 700);
        let mut channels = [LossyChannel::new(ChannelConfig::perfect(), 1)];
        let cfg = CollectorConfig {
            deadline: 1 << 20,
            ..CollectorConfig::default()
        };
        let mut collector = [EpochCollector::new(0, [0, 1], cfg, 1, 0)];
        let mut now = 3;
        let converged = drive_hop(
            &mut channels,
            &mut collector,
            &mut senders(&chunks, &[0]),
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

    /// A sender puts one window on the channel up front and opens the
    /// rest as the acks come back, as a socket sender does: over a link
    /// one tick long, three windows take three ticks.
    #[test]
    fn a_sender_ships_one_window_ahead_of_its_acks() {
        let chunks = stored_chunks(1, 3 * SEND_WINDOW * 256);
        assert_eq!(chunks[0].len(), 3 * SEND_WINDOW);
        let one_tick = ChannelConfig {
            base_delay: 1,
            ..ChannelConfig::perfect()
        };
        let mut channels = [LossyChannel::new(one_tick, 1)];
        let cfg = CollectorConfig::default();
        let mut collector = [EpochCollector::new(0, [0], cfg, 1, 0)];
        let mut now = 0;
        let converged = drive_hop(
            &mut channels,
            &mut collector,
            &mut senders(&chunks, &[0]),
            &mut now,
            100,
            |_, _, _| {},
        );
        assert!(converged);
        assert_eq!(now, 3, "one window a tick");
        // An ack came back every tick, so no probe timeout passed.
        let epoch = collector[0].finalize(now);
        assert_eq!(epoch.stats.chunks_received, 3 * SEND_WINDOW as u64);
        assert_eq!(epoch.stats.duplicate_chunks, 0);
    }

    /// A collector that loses the first copy of router 0's chunk `last`
    /// on its way in.
    struct LosesTheTail {
        collector: EpochCollector,
        last: u32,
        lost: bool,
    }

    impl Receiver for LosesTheTail {
        fn answer(&mut self, frames: &[Vec<u8>], now: u64) -> Vec<ControlFrame> {
            let mut kept = frames.to_vec();
            kept.retain(|f| {
                let tail = ChunkFrame::decode(f).is_ok_and(|(c, _)| c.seq == self.last);
                let lose = tail && !self.lost;
                self.lost |= lose;
                !lose
            });
            self.collector.answer(&kept, now)
        }
        fn ready(&self, now: u64) -> bool {
            self.collector.ready(now)
        }
    }

    /// A lost last chunk is re-sent as the tail probe one probe timeout
    /// after the ack that stops short of it, on a link one tick long:
    /// long before the sender's resend timer or the collector's
    /// retransmit timer (1,000 ticks each) could act.
    #[test]
    fn a_lost_tail_is_probed_a_pto_after_the_short_ack() {
        let chunks = stored_chunks(1, 8 * 256);
        let last = chunks[0].len() as u32 - 1;
        let one_tick = ChannelConfig {
            base_delay: 1,
            ..ChannelConfig::perfect()
        };
        let mut channels = [LossyChannel::new(one_tick, 1)];
        let patient = CollectorConfig {
            deadline: 1 << 20,
            session: SessionConfig {
                base_backoff: 1_000,
                ..SessionConfig::default()
            },
            ..CollectorConfig::default()
        };
        let mut receiver = [LosesTheTail {
            collector: EpochCollector::new(0, [0], patient, 1, 0),
            last,
            lost: false,
        }];
        let cfg = MonitorEpochConfig {
            router_id: 0,
            epoch_id: 0,
            resend_after: 1_000,
            max_backoff: 1_000,
            give_up: 10_000,
        };
        let mut now = 0;
        let converged = drive_hop(
            &mut channels,
            &mut receiver,
            &mut [Sender::new(0, &chunks[0], &cfg, 0)],
            &mut now,
            100,
            |_, _, _| {},
        );
        assert!(converged && receiver[0].lost);
        // Tick 0 sends every chunk, and tick 1 acks all but the last: a
        // one-tick round trip (SRTT 1, RTTVAR ½), so the probe timeout
        // is 1 + 4·½ = 3 ticks. The probe goes at tick 4 and lands at 5.
        assert_eq!(now, 5);
        let epoch = receiver[0].collector.finalize(now);
        assert!(epoch.exclusions.is_empty());
        assert_eq!(epoch.stats.chunks_received, chunks[0].len() as u64);
        assert_eq!(epoch.stats.duplicate_chunks, 0);
    }

    /// A collector that counts the frames its link delivers.
    struct Counted {
        collector: EpochCollector,
        delivered: u64,
    }

    impl Receiver for Counted {
        fn answer(&mut self, frames: &[Vec<u8>], now: u64) -> Vec<ControlFrame> {
            self.delivered += frames.len() as u64;
            self.collector.answer(frames, now)
        }
        fn ready(&self, now: u64) -> bool {
            self.collector.ready(now)
        }
    }

    /// The socket soak's send amplification in virtual time: the 24
    /// leaves of `SoakConfig::standard` at the socket soak's 4 Mbit
    /// bitmaps ship one seeded epoch, cut at `DATAGRAM_SAFE_PAYLOAD`, over
    /// one `ChannelConfig::soak()` link into one patient WaitAll
    /// collector, as `tests/socket_soak.rs` does over loopback UDP. The
    /// frames the links carry after their losses and duplicates — what the
    /// socket monitors count after their impairment shim — divided by the
    /// unique chunks must stay under that soak's 3.5× gate.
    #[test]
    fn soak_send_amplification_stays_under_the_socket_gate() {
        let soak = SoakConfig {
            aligned_bits: 4 << 20,
            ..SoakConfig::standard(1, 0)
        };
        let chunks: Vec<Vec<Vec<u8>>> = (soak.leaf_frames(0x5EED).iter().enumerate())
            .map(|(id, f)| chunk_bundle(id as u64, 0, f, DATAGRAM_SAFE_PAYLOAD))
            .collect();
        let unique: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let patient = CollectorConfig {
            deadline: 1 << 40,
            straggler: StragglerPolicy::WaitAll,
            session: SessionConfig {
                base_backoff: 50,
                max_backoff: 2_000,
                max_retries: 100_000,
                jitter: 4,
            },
        };
        let mut channels = [LossyChannel::new(soak.leaf_channel, 0x5EED)];
        let mut receivers = [Counted {
            collector: EpochCollector::new(0, 0..soak.leaves as u64, patient, 0x5EED, 0),
            delivered: 0,
        }];
        let mut senders: Vec<Sender<'_>> = (chunks.iter().enumerate())
            .map(|(l, chunks)| {
                let cfg = MonitorEpochConfig {
                    router_id: l as u64,
                    epoch_id: 0,
                    resend_after: patient.session.base_backoff,
                    max_backoff: patient.session.max_backoff,
                    give_up: 1 << 20,
                };
                Sender::new(0, chunks, &cfg, 0)
            })
            .collect();
        let mut now = 0;
        let converged = drive_hop(
            &mut channels,
            &mut receivers,
            &mut senders,
            &mut now,
            100_000,
            |_, _, _| {},
        );
        assert!(converged, "the hop ran into its cap at tick {now}");
        let sent = receivers[0].delivered + channels[0].in_flight() as u64;
        let epoch = receivers[0].collector.finalize(now);
        assert!(epoch.exclusions.is_empty(), "{:?}", epoch.exclusions);
        let amplification = sent as f64 / unique as f64;
        // Past the harness's capture, like the socket soak's own line.
        let _ = writeln!(
            std::io::stderr(),
            "virtual soak: {unique} unique chunks, {sent} frames sent \
             (send amplification {amplification:.2}x), {now} ticks"
        );
        assert!(
            2 * sent <= 7 * unique,
            "{sent} frames for {unique} unique chunks"
        );
    }

    /// A receiver that only logs what the loop does to it.
    struct Logged<'a>(&'a RefCell<Vec<String>>);

    impl Receiver for Logged<'_> {
        fn answer(&mut self, frames: &[Vec<u8>], _: u64) -> Vec<ControlFrame> {
            self.0.borrow_mut().push(format!("answer {}", frames.len()));
            vec![ControlFrame::NackSeqs {
                router_id: 0,
                epoch_id: 0,
                seqs: vec![0, 9],
            }]
        }
        fn ready(&self, now: u64) -> bool {
            now >= 2
        }
    }

    #[test]
    fn hook_runs_between_answer_and_the_senders_step() {
        let log = RefCell::new(Vec::new());
        let chunks = vec![vec![vec![7u8; 8]]];
        let mut channels = [LossyChannel::new(ChannelConfig::perfect(), 1)];
        let mut now = 0;
        drive_hop(
            &mut channels,
            &mut [Logged(&log)],
            &mut senders(&chunks, &[0]),
            &mut now,
            10,
            |channel, _, _| {
                log.borrow_mut()
                    .push(format!("hook {}", channel.in_flight()))
            },
        );
        // Tick 0's NACK comes before the first send and is answered with
        // nothing; the step then sends the chunk. Each later tick delivers
        // the chunk the last step re-sent for the NACK (seq 9 was never
        // sent), and the hook sees the channel before this tick's step.
        assert_eq!(
            *log.borrow(),
            ["answer 0", "hook 0", "answer 1", "hook 0", "answer 1", "hook 0"]
        );
        assert_eq!(now, 2);
    }
}
