//! Seeded fault injection on the digest shipping path.
//!
//! The analysis centre's ingest layer (`dcs_core::ingest`) promises
//! graceful degradation: malformed bundles are excluded with a typed
//! account and the pipelines run on the surviving quorum. This module is
//! the adversary that promise is tested against. It takes one epoch of
//! clean [`RouterDigest`]s and ships them through a lossy measurement
//! plane, applying a per-router [`FaultKind`] chosen by a [`FaultPlan`]:
//!
//! * [`FaultKind::Drop`] — the frame never arrives;
//! * [`FaultKind::Truncate`] — the frame is cut short mid-flight;
//! * [`FaultKind::BitFlip`] — 1–8 random bits are flipped in the frame;
//! * [`FaultKind::Duplicate`] — the router double-ships after a retransmit;
//! * [`FaultKind::Desync`] — a rebooted router ships a stale epoch id.
//!
//! Everything is driven by a caller-supplied seeded RNG, so a failing
//! matrix entry reproduces exactly.

use dcs_core::monitor::RouterDigest;
use rand::Rng;

/// One way a router's digest shipment can go wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The frame is lost entirely.
    Drop,
    /// The frame arrives cut short at a random byte offset.
    Truncate,
    /// The frame arrives with 1–8 random bits flipped.
    BitFlip,
    /// The frame arrives twice.
    Duplicate,
    /// The bundle carries a stale (decremented) epoch id.
    Desync,
}

/// Every fault kind, for building exhaustive test matrices.
pub const ALL_FAULTS: [FaultKind; 5] = [
    FaultKind::Drop,
    FaultKind::Truncate,
    FaultKind::BitFlip,
    FaultKind::Duplicate,
    FaultKind::Desync,
];

/// Which routers are faulted this epoch, and how.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<(usize, FaultKind)>,
}

impl FaultPlan {
    /// No faults: every frame ships clean.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The same fault for every listed victim (one row of a test matrix).
    pub fn uniform(victims: &[usize], kind: FaultKind) -> Self {
        FaultPlan {
            faults: victims.iter().map(|&v| (v, kind)).collect(),
        }
    }

    /// `count` distinct victims drawn from `0..routers`, each with a
    /// fault kind cycled from [`ALL_FAULTS`] starting at a random offset.
    ///
    /// # Panics
    /// Panics if `count > routers`.
    pub fn random<R: Rng>(rng: &mut R, routers: usize, count: usize) -> Self {
        assert!(count <= routers, "cannot fault more routers than exist");
        let mut ids: Vec<usize> = (0..routers).collect();
        // Partial Fisher–Yates: the first `count` entries end up random.
        for i in 0..count {
            let j = rng.gen_range(i..routers);
            ids.swap(i, j);
        }
        let start = rng.gen_range(0..ALL_FAULTS.len());
        let faults = ids[..count]
            .iter()
            .enumerate()
            .map(|(k, &v)| (v, ALL_FAULTS[(start + k) % ALL_FAULTS.len()]))
            .collect();
        FaultPlan { faults }
    }

    /// The fault assigned to batch position `index`, if any.
    pub fn fault_for(&self, index: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|&&(v, _)| v == index)
            .map(|&(_, k)| k)
    }

    /// Batch positions with a fault assigned.
    pub fn victims(&self) -> Vec<usize> {
        self.faults.iter().map(|&(v, _)| v).collect()
    }

    /// Number of faulted routers.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan faults nobody.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Ships one epoch of digests through the faulty measurement plane,
/// returning the wire frames as they arrive at the analysis centre.
///
/// Clean digests encode via [`RouterDigest::encode_wire`]. Faulted ones
/// are mangled per their [`FaultKind`]; dropped frames are simply absent,
/// so the returned batch can be shorter (drops) or longer (duplicates)
/// than `digests`.
///
/// # Panics
/// Panics if a digest does not fit the wire format — clean collector
/// output always does.
pub fn ship_with_faults<R: Rng>(
    rng: &mut R,
    digests: &[RouterDigest],
    plan: &FaultPlan,
) -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(digests.len());
    for (index, digest) in digests.iter().enumerate() {
        let encode = |d: &RouterDigest| -> Vec<u8> {
            d.encode_wire()
                .expect("collector digests fit the wire format")
        };
        match plan.fault_for(index) {
            None => frames.push(encode(digest)),
            Some(FaultKind::Drop) => {}
            Some(FaultKind::Truncate) => {
                let mut frame = encode(digest);
                frame.truncate(rng.gen_range(0..frame.len()));
                frames.push(frame);
            }
            Some(FaultKind::BitFlip) => {
                let mut frame = encode(digest);
                let flips = rng.gen_range(1..=8usize);
                for _ in 0..flips {
                    let byte = rng.gen_range(0..frame.len());
                    let bit = rng.gen_range(0..8usize);
                    frame[byte] ^= 1u8 << bit;
                }
                frames.push(frame);
            }
            Some(FaultKind::Duplicate) => {
                let frame = encode(digest);
                frames.push(frame.clone());
                frames.push(frame);
            }
            Some(FaultKind::Desync) => {
                let mut stale = digest.clone();
                stale.epoch_id = stale.epoch_id.wrapping_sub(1);
                frames.push(encode(&stale));
            }
        }
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_bitmap::Bitmap;
    use dcs_collect::{AlignedDigest, UnalignedDigest};
    use dcs_core::monitor::RouterDigestView;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn digest(router_id: usize) -> RouterDigest {
        RouterDigest {
            router_id,
            epoch_id: 5,
            aligned: AlignedDigest {
                bitmap: Bitmap::from_indices(64, [router_id % 64]),
                packets_seen: 10,
                packets_hashed: 10,
                raw_bytes: 1000,
            },
            unaligned: UnalignedDigest {
                arrays: vec![Bitmap::from_indices(32, [1]); 4],
                arrays_per_group: 2,
                packets_seen: 10,
                packets_sampled: 10,
                raw_bytes: 1000,
            },
            artifacts: Vec::new(),
        }
    }

    #[test]
    fn clean_plan_ships_every_frame_intact() {
        let digests: Vec<_> = (0..4).map(digest).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let frames = ship_with_faults(&mut rng, &digests, &FaultPlan::none());
        assert_eq!(frames.len(), 4);
        for (i, frame) in frames.iter().enumerate() {
            let (back, used) = RouterDigestView::parse(frame).unwrap();
            assert_eq!(used, frame.len());
            assert_eq!(back.router_id, i);
            assert_eq!(back.epoch_id, 5);
        }
    }

    #[test]
    fn drop_removes_and_duplicate_doubles() {
        let digests: Vec<_> = (0..4).map(digest).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let plan = FaultPlan {
            faults: vec![(0, FaultKind::Drop), (2, FaultKind::Duplicate)],
        };
        let frames = ship_with_faults(&mut rng, &digests, &plan);
        // 4 - 1 dropped + 1 duplicate = 4 frames.
        assert_eq!(frames.len(), 4);
        let ids: Vec<usize> = frames
            .iter()
            .map(|f| RouterDigestView::parse(f).unwrap().0.router_id)
            .collect();
        assert_eq!(ids, vec![1, 2, 2, 3]);
    }

    #[test]
    fn truncate_always_fails_decode_and_desync_decodes_stale() {
        let digests: Vec<_> = (0..2).map(digest).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let plan = FaultPlan {
            faults: vec![(0, FaultKind::Truncate), (1, FaultKind::Desync)],
        };
        for _ in 0..50 {
            let frames = ship_with_faults(&mut rng, &digests, &plan);
            assert!(RouterDigestView::parse(&frames[0]).is_err());
            let (stale, _) = RouterDigestView::parse(&frames[1]).unwrap();
            assert_eq!(stale.epoch_id, 4);
        }
    }

    #[test]
    fn bit_flips_never_panic_the_decoder() {
        let digests: Vec<_> = (0..3).map(digest).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let plan = FaultPlan::uniform(&[0, 1, 2], FaultKind::BitFlip);
        for _ in 0..200 {
            for frame in ship_with_faults(&mut rng, &digests, &plan) {
                // Either outcome is fine; panicking is not.
                let _ = RouterDigestView::parse(&frame);
            }
        }
    }

    #[test]
    fn random_plan_picks_distinct_victims_and_all_kinds_cycle() {
        let mut rng = StdRng::seed_from_u64(5);
        let plan = FaultPlan::random(&mut rng, 20, 10);
        assert_eq!(plan.len(), 10);
        let mut victims = plan.victims();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 10, "victims must be distinct");
        assert!(victims.iter().all(|&v| v < 20));
        // 10 victims cycling through 5 kinds hit every kind twice.
        for kind in ALL_FAULTS {
            let n = (0..20).filter(|&i| plan.fault_for(i) == Some(kind)).count();
            assert_eq!(n, 2, "{kind:?} assigned {n} times");
        }
    }
}
