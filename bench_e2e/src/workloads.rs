//! The four workloads: what each feeds the system, and one epoch of the
//! packet → verdict path for each delivery path.

use crate::adapter::{
    self, Center, Channel, Channels, Geometry, LiveSenders, Mix, Monitor, Packet, Plant, Probe,
    StoredSenders, SubCollectors, Tier, UdpRig, Verdict,
};
use crate::calib;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Warm-up epochs before the first timed one, so scratch pools, the
/// incremental correlator and lazily chosen kernels are hot.
pub const WARMUP_EPOCHS: u64 = 5;

/// Every fifth epoch carries planted common content; the other four are
/// null. `p50` then sits inside the null-path cluster and `p90` at the
/// middle of the alarm-path cluster (the slowest fifth), instead of a
/// median flipping between two modes or a tail percentile sitting on the
/// cluster's edge.
pub const ALARM_EVERY: u64 = 5;

/// Virtual ticks after which an in-memory hop counts as never ready.
const MAX_HOP_TICKS: u64 = 20_000;

pub fn is_alarm_epoch(epoch: u64) -> bool {
    epoch % ALARM_EVERY == ALARM_EVERY - 1
}

/// How an epoch's chunk frames reach the centre.
#[derive(Debug, Clone, Copy)]
pub enum Path {
    /// One in-memory hop into the centre's `EpochCollector`.
    Flat(Channel),
    /// Loopback UDP under `ImpairmentConfig::soak()`.
    Udp,
    /// Leaves → `aggregators` regional `Aggregator`s → centre, both hops
    /// over `ChannelConfig::soak()` under virtual ticks.
    Tiered { aggregators: usize },
}

/// Synthetic fill ORed under each live digest (see `center-paper`).
#[derive(Debug, Clone, Copy)]
pub struct Background {
    /// Aligned bitmap bits are set with probability 2^-`aligned_shift`.
    pub aligned_shift: u32,
    /// Unaligned array bits are set with probability 2^-`array_shift`.
    pub array_shift: u32,
    /// Share of groups whose arrays are redrawn each epoch, per mille.
    pub churn_per_mille: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub monitors: usize,
    /// Monitors `0..infected` carry the planted content on alarm epochs.
    pub infected: usize,
    pub geometry: Geometry,
    pub mix: Mix,
    /// Background packets each monitor observes per epoch: one slot of
    /// the pool, rotated so no packet is seen twice in an epoch.
    pub packets_per_monitor: usize,
    pub pool_slots: usize,
    /// Packets of the aligned and of the unaligned planted object.
    pub plant: (usize, usize),
    /// Whether a planted epoch must report most of the infected routers
    /// (`run::check` has the share).
    pub expect_detection: bool,
    pub background: Option<Background>,
    pub path: Path,
    /// (n′, hopefuls) of the aligned search where it is scaled with the
    /// bitmap; `None` keeps `SearchConfig::default()`.
    pub search: Option<(usize, usize)>,
    pub max_payload: usize,
}

impl Spec {
    /// Threads the workload runs: the socket path needs a sender beside
    /// the centre.
    pub fn threads(&self) -> usize {
        match self.path {
            Path::Udp => 2,
            Path::Flat(_) | Path::Tiered { .. } => 1,
        }
    }
}

pub const NAMES: [&str; 4] = [
    "collect-mix",
    "center-paper",
    "wire-udp-lossy",
    "tiered-chan",
];

const MBIT: usize = 1 << 20;
const KBIT: usize = 1 << 10;

/// The workload called `name`; `smoke` shrinks every aligned bitmap to
/// 64 Kbit and leaves the code path alone.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let mut spec = match name {
        // Collection dominates: two live monitors at the paper's 4 Mbit on
        // the Internet size mix, a perfect channel and a two-router centre
        // whose search is cut down so that it stays a small share.
        "collect-mix" => Spec {
            name: "collect-mix",
            monitors: 2,
            infected: 2,
            geometry: Geometry {
                aligned_bits: 4 * MBIT,
                groups: 4,
                sketch_cap: 0,
            },
            mix: Mix::Internet,
            packets_per_monitor: 4_500,
            pool_slots: 22,
            plant: (30, 150),
            expect_detection: false,
            background: None,
            path: Path::Flat(Channel::Perfect),
            search: Some((200, 100)),
            max_payload: adapter::DATAGRAM_SAFE_PAYLOAD,
        },
        // The centre dominates: 24 digests at the paper's 50 % design fill
        // (synthetic background under a thin live slice that carries the
        // planted content), a quarter of the paper's bitmap with n′ and
        // hopefuls scaled by the same quarter, low group churn so the
        // incremental correlator stays warm.
        "center-paper" => Spec {
            name: "center-paper",
            monitors: 24,
            infected: 20,
            geometry: Geometry {
                aligned_bits: MBIT,
                groups: 6,
                sketch_cap: 0,
            },
            mix: Mix::Constant(256),
            packets_per_monitor: 40,
            pool_slots: 96,
            plant: (30, 150),
            expect_detection: true,
            background: Some(Background {
                aligned_shift: 1,
                array_shift: 3,
                churn_per_mille: 80,
            }),
            path: Path::Flat(Channel::Perfect),
            search: Some((1_000, 250)),
            max_payload: 16 * KBIT,
        },
        // Delivery dominates: full-size bundles (bundle size is bound by
        // geometry, not fill) over real loopback UDP with 10 % drop, 5 %
        // reorder, 3 % duplication and 2 % corruption on every sender.
        "wire-udp-lossy" => Spec {
            name: "wire-udp-lossy",
            monitors: 4,
            infected: 3,
            geometry: Geometry {
                aligned_bits: 2 * MBIT,
                groups: 1,
                sketch_cap: 0,
            },
            mix: Mix::Constant(536),
            packets_per_monitor: 250,
            pool_slots: 64,
            plant: (30, 150),
            expect_detection: false,
            background: None,
            path: Path::Udp,
            search: Some((200, 100)),
            max_payload: adapter::DATAGRAM_SAFE_PAYLOAD,
        },
        // The same layers used differently: many small leaves with the
        // sidecar sketch on, 1500-byte packets (both unaligned offset sets
        // fire), an aggregation tier, lossy virtual-tick channels on both
        // hops with the harness answering every retransmit request, and
        // fresh traffic every epoch so the unaligned graph churns fully.
        "tiered-chan" => Spec {
            name: "tiered-chan",
            monitors: 24,
            infected: 20,
            geometry: Geometry {
                aligned_bits: 256 * KBIT,
                groups: 2,
                sketch_cap: 256,
            },
            mix: Mix::Constant(1460),
            packets_per_monitor: 1_000,
            pool_slots: 40,
            plant: (30, 150),
            expect_detection: true,
            background: None,
            path: Path::Tiered { aggregators: 3 },
            search: Some((400, 300)),
            max_payload: 8 * KBIT,
        },
        _ => return None,
    };
    if smoke {
        spec.geometry.aligned_bits = spec.geometry.aligned_bits.min(64 * KBIT);
    }
    Some(spec)
}

fn mix64(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A run's background packets: generated once from the seed and shared by
/// the worlds of all its segments. (A pool a world, freed and drawn again
/// every segment, left the allocator holding two at once in one run of five:
/// `peak_rss_mib` was bimodal.)
pub type Pool = Rc<Vec<Packet>>;

pub fn pool(spec: &Spec, seed: u64) -> Pool {
    assert!(
        spec.pool_slots >= spec.monitors,
        "one pool slot per monitor"
    );
    let mut rng = StdRng::seed_from_u64(mix64(seed, u64::MAX));
    Rc::new(adapter::packet_pool(
        &mut rng,
        spec.pool_slots,
        spec.packets_per_monitor,
        spec.mix,
    ))
}

/// Everything a workload feeds the system, generated from the seed alone.
pub struct Inputs {
    spec: Spec,
    seed: u64,
    pool: Pool,
    /// Per router: the synthetic unaligned arrays, churned epoch to epoch.
    arrays: Vec<Vec<adapter::Bitmap>>,
}

/// What one monitor is fed in one epoch.
pub struct MonitorInput<'a> {
    pub slice: &'a [Packet],
    pub planted: Vec<Packet>,
    /// Synthetic aligned bitmap and unaligned arrays to OR under the
    /// monitor's digest.
    pub background: Option<(adapter::Bitmap, &'a [adapter::Bitmap])>,
}

pub struct EpochInput<'a> {
    pub alarm: bool,
    pub monitors: Vec<MonitorInput<'a>>,
}

impl Inputs {
    pub fn new(spec: Spec, seed: u64, pool: Pool) -> Self {
        let mut rng = StdRng::seed_from_u64(mix64(seed, u64::MAX - 1));
        let arrays = match spec.background {
            Some(bg) => (0..spec.monitors)
                .map(|_| {
                    (0..spec.geometry.groups * ARRAYS_PER_GROUP)
                        .map(|_| adapter::random_bitmap(&mut rng, ARRAY_BITS, bg.array_shift))
                        .collect()
                })
                .collect(),
            None => Vec::new(),
        };
        Inputs {
            spec,
            seed,
            pool,
            arrays,
        }
    }

    /// The inputs of `epoch`, a function of the seed and the epoch number
    /// (and, for the churned arrays, of the epochs before it).
    pub fn epoch(&mut self, epoch: u64) -> EpochInput<'_> {
        let spec = self.spec;
        let mut rng = StdRng::seed_from_u64(mix64(self.seed, epoch));
        let alarm = is_alarm_epoch(epoch);
        let plant = alarm.then(|| Plant::new(&mut rng, spec.plant.0, spec.plant.1));
        let planted: Vec<Vec<Packet>> = (0..spec.monitors)
            .map(|i| match &plant {
                Some(plant) if i < spec.infected => plant.instances(&mut rng),
                _ => Vec::new(),
            })
            .collect();
        let mut fills = Vec::new();
        if let Some(bg) = spec.background {
            for arrays in &mut self.arrays {
                for group in arrays.chunks_mut(ARRAYS_PER_GROUP) {
                    if rng.gen_range(0..1000u32) < bg.churn_per_mille {
                        for array in group {
                            *array = adapter::random_bitmap(&mut rng, ARRAY_BITS, bg.array_shift);
                        }
                    }
                }
                fills.push(adapter::random_bitmap(
                    &mut rng,
                    spec.geometry.aligned_bits,
                    bg.aligned_shift,
                ));
            }
        }
        let mut fills = fills.into_iter();
        let per = spec.packets_per_monitor;
        let monitors = planted
            .into_iter()
            .enumerate()
            .map(|(i, planted)| {
                let slot = (epoch as usize * spec.monitors + i) % spec.pool_slots;
                MonitorInput {
                    slice: &self.pool[slot * per..(slot + 1) * per],
                    planted,
                    background: fills.next().map(|fill| (fill, self.arrays[i].as_slice())),
                }
            })
            .collect();
        EpochInput { alarm, monitors }
    }
}

/// Timing keys of the traced run's per-size split: (ns, packets) for the
/// 40-, 576- and 1500-byte wire sizes of the Internet mix.
pub const SIZE_CLASSES: [(&str, &str); 3] = [
    ("collect.size.40.ns", "collect.size.40.pkts"),
    ("collect.size.576.ns", "collect.size.576.pkts"),
    ("collect.size.1500.ns", "collect.size.1500.pkts"),
];

/// The unaligned collector's defaults (`UnalignedConfig::small` keeps the
/// paper's 10 arrays of 1,024 bits per group).
const ARRAYS_PER_GROUP: usize = 10;
const ARRAY_BITS: usize = 1024;

impl MonitorInput<'_> {
    pub fn packets(&self) -> impl Iterator<Item = &Packet> + Clone {
        self.slice.iter().chain(self.planted.iter())
    }

    /// The packets as one batch, or — for the traced run's per-size
    /// timing — one batch per wire-size class of [`SIZE_CLASSES`].
    fn batches(&self, by_size: bool) -> Vec<(usize, Vec<&Packet>)> {
        if !by_size {
            return vec![(0, self.packets().collect())];
        }
        let mut batches: Vec<(usize, Vec<&Packet>)> =
            (0..SIZE_CLASSES.len()).map(|c| (c, Vec::new())).collect();
        for pkt in self.packets() {
            let class = match pkt.payload.len() {
                0 => 0,
                1..=999 => 1,
                _ => 2,
            };
            batches[class].1.push(pkt);
        }
        batches.retain(|(_, b)| !b.is_empty());
        batches
    }
}

#[cfg(test)]
impl EpochInput<'_> {
    /// Hash of everything the system will be fed this epoch.
    pub fn hash(&self) -> u64 {
        let mut h = crate::stats::Fnv::default();
        h.u64(u64::from(self.alarm));
        for m in &self.monitors {
            for pkt in m.packets() {
                h.bytes(&pkt.flow.to_bytes());
                h.bytes(&pkt.payload);
            }
            if let Some((fill, arrays)) = &m.background {
                for bitmap in std::iter::once(fill).chain(arrays.iter()) {
                    for &w in adapter::bitmap_words(bitmap) {
                        h.u64(w);
                    }
                }
            }
        }
        h.finish()
    }
}

enum Delivery {
    Flat(Channels),
    Udp(UdpRig),
    Tiered {
        leaf: Channels,
        up: Channels,
        tier: Tier,
        aggregators: usize,
    },
}

/// One constructed system plus its inputs.
pub struct World {
    inputs: Inputs,
    system: System,
}

struct System {
    spec: Spec,
    seed: u64,
    monitors: Vec<Monitor>,
    sub: SubCollectors,
    center: Center,
    delivery: Delivery,
    /// Virtual tick of the in-memory channels.
    now: u64,
}

/// What one epoch measured. The durations are wall time as it passed;
/// `slowdown` is what scales them to nominal host speed.
pub struct EpochOutcome {
    pub alarm: bool,
    pub packets: u64,
    pub payload_bytes: u64,
    pub input_gen: Duration,
    /// Time inside `MonitoringPoint::observe_all`.
    pub observe: Duration,
    /// Epoch close → verdict.
    pub verdict_latency: Duration,
    /// Collection plus verdict latency.
    pub wall: Duration,
    /// The host's slowdown over the epoch: the mean of a calibration pass
    /// right before collection and one right after the verdict.
    pub slowdown: f64,
    pub verdict: Result<Verdict, String>,
}

impl World {
    pub fn new(spec: Spec, seed: u64, pool: Pool) -> Result<World, String> {
        let delivery = match spec.path {
            Path::Flat(kind) => Delivery::Flat(Channels::new(kind, 1, seed)),
            Path::Udp => Delivery::Udp(UdpRig::new(spec.monitors, seed)?),
            Path::Tiered { aggregators } => {
                assert_eq!(spec.monitors % aggregators, 0, "equal regions");
                Delivery::Tiered {
                    leaf: Channels::new(Channel::Soak, aggregators, seed),
                    up: Channels::new(Channel::Soak, 1, seed ^ 0xA55A),
                    tier: Tier::new(),
                    aggregators,
                }
            }
        };
        let bits = spec.geometry.aligned_bits;
        let system = System {
            spec,
            seed,
            monitors: (0..spec.monitors)
                .map(|id| adapter::monitor(id, &spec.geometry))
                .collect(),
            sub: SubCollectors::new(&spec.geometry),
            center: Center::new(
                spec.monitors * spec.geometry.groups,
                spec.search.map(|(n, h)| (n.min(bits), h.min(bits))),
            ),
            delivery,
            now: 0,
        };
        Ok(World {
            inputs: Inputs::new(spec, seed, pool),
            system,
        })
    }

    /// Runs one epoch of the packet → verdict path. Inputs are generated
    /// first, untimed.
    pub fn epoch(&mut self, p: &mut Probe, epoch: u64) -> EpochOutcome {
        let t0 = Instant::now();
        let World { inputs, system } = self;
        let spec = system.spec;
        let input = inputs.epoch(epoch);
        let batches: Vec<_> = input
            .monitors
            .iter()
            .map(|m| m.batches(p.tr.enabled))
            .collect();
        let packets: u64 = input
            .monitors
            .iter()
            .map(|m| m.packets().count() as u64)
            .sum();
        let payload_bytes: u64 = input
            .monitors
            .iter()
            .flat_map(|m| m.packets())
            .map(|pkt| pkt.payload.len() as u64)
            .sum();
        let input_gen = t0.elapsed();

        let slowdown_before = calib::slowdown();
        let root = p.tr.begin("epoch");
        let wall0 = Instant::now();
        let mut observe = Duration::ZERO;
        for (mp, batches) in system.monitors.iter_mut().zip(&batches) {
            for (class, batch) in batches {
                let spent = adapter::observe(p, mp, batch.iter().copied());
                p.time(SIZE_CLASSES[*class].0, spent.as_nanos() as u64);
                p.time(SIZE_CLASSES[*class].1, batch.len() as u64);
                observe += spent;
            }
        }
        if p.counting && p.detail {
            let fill = adapter::aligned_fill(&system.monitors[0]);
            p.count("collect.aligned_fill_ppm", (fill * 1e6) as u64);
        }
        let epoch_id = adapter::next_epoch_id(&system.monitors[0]);
        let epoch_seed = mix64(system.seed, epoch) ^ 0x5E55;

        // On replay the digests are closed and the synthetic background
        // laid under them before the verdict clock starts: the overlay is
        // input synthesis, not the system's work.
        let replayed: Option<Vec<adapter::Digest>> = spec.background.map(|_| {
            system
                .monitors
                .iter_mut()
                .zip(&input.monitors)
                .map(|(mp, m)| {
                    let mut digest = adapter::finish_digest(p, mp);
                    if let Some((fill, arrays)) = &m.background {
                        p.tr.span("bench.overlay", || {
                            adapter::overlay_background(&mut digest, fill, arrays)
                        });
                    }
                    digest
                })
                .collect()
        });

        let verdict0 = Instant::now();
        let verdict = system.deliver_and_analyze(p, replayed, epoch_id, epoch_seed);
        let verdict_latency = verdict0.elapsed();
        // The verdict does not wait for the socket senders to hear that
        // they are done; the next epoch does.
        let verdict = match &mut system.delivery {
            Delivery::Udp(rig) => rig.join_sender(p, epoch_id).and(verdict),
            _ => verdict,
        };
        let wall = wall0.elapsed();
        p.tr.end(root);
        let slowdown = (slowdown_before + calib::slowdown()) / 2.0;

        if p.tr.enabled {
            // Sub-layer split over a sample of the same packets, outside
            // the epoch's wall time.
            let sample: Vec<&Packet> = input.monitors[0].packets().take(500).collect();
            system.sub.split(p, &sample);
        }
        if p.detail {
            system.center.read_metrics(p);
            if let Delivery::Udp(rig) = &mut system.delivery {
                rig.drain_counters(p);
            }
        }
        EpochOutcome {
            alarm: input.alarm,
            packets,
            payload_bytes,
            input_gen,
            observe,
            verdict_latency,
            wall,
            slowdown,
            verdict,
        }
    }
}

impl System {
    fn deliver_and_analyze(
        &mut self,
        p: &mut Probe,
        replayed: Option<Vec<adapter::Digest>>,
        epoch_id: u64,
        epoch_seed: u64,
    ) -> Result<Verdict, String> {
        let spec = self.spec;
        let chunks: Vec<Vec<Vec<u8>>> = match &replayed {
            Some(digests) => digests
                .iter()
                .map(|d| adapter::encode_and_chunk(p, d, spec.max_payload))
                .collect::<Result<_, _>>()?,
            None => self
                .monitors
                .iter_mut()
                .map(|mp| adapter::finish_chunks(p, mp, spec.max_payload))
                .collect::<Result<_, _>>()?,
        };
        let routers = 0..spec.monitors as u64;
        match &mut self.delivery {
            Delivery::Flat(channels) => {
                let collector = adapter::collector(epoch_id, routers, epoch_seed, self.now);
                let mut links = channels.open(epoch_seed, vec![collector]);
                let ship = p.tr.begin("session.ship");
                for frames in &chunks {
                    adapter::send(p, &mut links[0], frames, self.now);
                }
                let ready = if replayed.is_some() {
                    let mut senders = StoredSenders {
                        chunks: &chunks,
                        first_id: 0,
                    };
                    adapter::drive_hop(p, &mut links, &mut self.now, MAX_HOP_TICKS, &mut senders)
                } else {
                    let mut senders = LiveSenders {
                        monitors: &mut self.monitors,
                        epoch_id,
                    };
                    adapter::drive_hop(p, &mut links, &mut self.now, MAX_HOP_TICKS, &mut senders)
                };
                p.tr.end(ship);
                let collected = adapter::finalize_collector(p, &mut links[0].receiver, self.now);
                self.now += 1;
                if !ready {
                    return Err("collector never became ready".into());
                }
                self.center.analyze(p, &collected)
            }
            Delivery::Udp(rig) => {
                let collected = rig.ship(p, epoch_id, chunks, epoch_seed)?;
                self.center.analyze(p, &collected)
            }
            Delivery::Tiered {
                leaf,
                up,
                tier,
                aggregators,
            } => {
                let per_region = spec.monitors / *aggregators;
                let receivers = (0..*aggregators)
                    .map(|a| {
                        let children = (a * per_region) as u64..((a + 1) * per_region) as u64;
                        adapter::aggregator(a, epoch_id, children, epoch_seed ^ a as u64, self.now)
                    })
                    .collect();
                let mut links = leaf.open(epoch_seed, receivers);
                let ship = p.tr.begin("aggregate.ship");
                for (leaf_id, frames) in chunks.iter().enumerate() {
                    adapter::send(p, &mut links[leaf_id / per_region], frames, self.now);
                }
                let mut senders = LiveSenders {
                    monitors: &mut self.monitors,
                    epoch_id,
                };
                let leaves_ready =
                    adapter::drive_hop(p, &mut links, &mut self.now, MAX_HOP_TICKS, &mut senders);
                p.tr.end(ship);

                let upstream: Vec<Vec<Vec<u8>>> = links
                    .iter_mut()
                    .map(|l| {
                        tier.finalize(p, &mut l.receiver, epoch_id, spec.max_payload, self.now)
                    })
                    .collect();
                let collector = adapter::collector(
                    epoch_id,
                    (0..*aggregators).map(adapter::aggregator_id),
                    epoch_seed ^ 0x5A5A,
                    self.now,
                );
                let mut uplinks = up.open(epoch_seed ^ 0xA55A, vec![collector]);
                let ship = p.tr.begin("session.ship");
                for frames in &upstream {
                    adapter::send(p, &mut uplinks[0], frames, self.now);
                }
                let mut senders = StoredSenders {
                    chunks: &upstream,
                    first_id: adapter::aggregator_id(0),
                };
                let centre_ready =
                    adapter::drive_hop(p, &mut uplinks, &mut self.now, MAX_HOP_TICKS, &mut senders);
                p.tr.end(ship);
                let collected = adapter::finalize_collector(p, &mut uplinks[0].receiver, self.now);
                self.now += 1;
                if !(leaves_ready && centre_ready) {
                    return Err("a hop never became ready".into());
                }
                self.center.analyze_aggregated(p, &collected)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(name: &str, seed: u64) -> Vec<u64> {
        let spec = spec(name, true).expect("known workload");
        let mut inputs = Inputs::new(spec, seed, pool(&spec, seed));
        (0..6).map(|e| inputs.epoch(e).hash()).collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_does_not() {
        for name in NAMES {
            assert_eq!(hashes(name, 11), hashes(name, 11), "{name}");
            assert_ne!(hashes(name, 11), hashes(name, 12), "{name}");
        }
    }

    #[test]
    fn epochs_differ_and_every_fifth_is_planted() {
        let h = hashes("center-paper", 3);
        let mut distinct = h.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), h.len());

        let tiered = spec("tiered-chan", true).expect("known workload");
        let mut inputs = Inputs::new(tiered, 3, pool(&tiered, 3));
        for e in 0..10 {
            let input = inputs.epoch(e);
            assert_eq!(input.alarm, e % 5 == 4);
            let planted = input
                .monitors
                .iter()
                .filter(|m| !m.planted.is_empty())
                .count();
            assert_eq!(planted, if input.alarm { 20 } else { 0 });
        }
    }

    #[test]
    fn no_packet_is_fed_to_two_monitors_in_one_epoch() {
        let spec = spec("collect-mix", true).expect("known workload");
        let mut inputs = Inputs::new(spec, 5, pool(&spec, 5));
        for e in 0..30 {
            let input = inputs.epoch(e);
            let starts: Vec<*const Packet> =
                input.monitors.iter().map(|m| m.slice.as_ptr()).collect();
            assert_ne!(starts[0], starts[1], "epoch {e}");
        }
    }
}
