//! Transport-layer soak and recovery tests (PR 4 acceptance):
//!
//! * a long soak under the issue's fault regime — 10% chunk loss, 5%
//!   reordering, 2% corruption across 24 routers — where every epoch
//!   either reaches quorum and reports the planted content or returns a
//!   typed `QuorumTooSmall`, with zero panics;
//! * a mid-soak centre kill/restart that resumes from the collector
//!   checkpoint and produces byte-identical detection sets vs the
//!   uninterrupted run;
//! * straggler-policy coverage: a digest delayed past the deadline is
//!   excluded as `TimedOut` under `Quorum`, and detection matches the
//!   survivor-only baseline;
//! * arbitrary-bytes fuzz over the bundle decoder, the chunk decoder and
//!   the checkpoint decoder — up to 64 KiB of soup, always a typed
//!   error, never a panic.

use dcs_core::ingest::RouterFault;
use dcs_core::monitor::{MonitorConfig, MonitoringPoint, RouterDigest};
use dcs_core::session::{
    ChunkDisposition, CollectedEpoch, CollectorConfig, EpochCollector, StragglerPolicy,
};
use dcs_core::transport::{chunk_bundle, ChunkFrame};
use dcs_core::{AnalysisCenter, AnalysisConfig};
use dcs_sim::soak::{run_soak, EpochOutcome, KillPlan, SoakConfig};
use dcs_traffic::{gen, BackgroundConfig, ContentObject, Planting, SizeMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn soak_epochs() -> usize {
    match std::env::var("DCS_SOAK_EPOCHS") {
        Ok(v) => v.parse().expect("DCS_SOAK_EPOCHS must be an integer"),
        Err(_) => 50,
    }
}

/// The headline soak: ≥50 epochs (override with DCS_SOAK_EPOCHS), 24
/// routers, the issue's loss/reorder/corruption regime. Every epoch must
/// either reach quorum and report the planted content or come back as a
/// typed QuorumTooSmall. Any panic fails the test by construction.
#[test]
fn soak_survives_the_fault_regime() {
    let cfg = SoakConfig::standard(soak_epochs(), 0xD15C_0DE5);
    let result = run_soak(&cfg);
    assert_eq!(result.outcomes.len(), cfg.epochs);

    let mut detected = 0usize;
    for (e, outcome) in result.outcomes.iter().enumerate() {
        match outcome {
            EpochOutcome::Report(r) => {
                assert!(
                    r.routers >= cfg.min_quorum,
                    "epoch {e} analysed below quorum"
                );
                if r.aligned.found {
                    detected += 1;
                    let hits = r
                        .aligned
                        .routers
                        .iter()
                        .filter(|&&id| id < cfg.infected)
                        .count();
                    assert!(
                        hits * 2 > cfg.infected,
                        "epoch {e}: only {hits}/{} infected routers reported",
                        cfg.infected
                    );
                }
            }
            EpochOutcome::QuorumTooSmall { required, accepted } => {
                assert!(
                    accepted < required,
                    "epoch {e}: typed quorum failure with {accepted} >= {required}"
                );
            }
        }
    }
    // The regime is survivable: the overwhelming majority of epochs must
    // reach quorum AND find the planted content.
    assert!(
        detected * 10 >= cfg.epochs * 9,
        "only {detected}/{} epochs detected the planted content",
        cfg.epochs
    );
    // The fault regime actually bit: losses forced retransmits and the
    // CRC trailer caught in-flight corruption.
    assert!(
        result.totals.retransmits > 0,
        "no retransmits under 10% loss"
    );
    assert!(
        result.totals.corrupt_chunks > 0,
        "no corruption detected at 2%"
    );
    assert_eq!(result.totals.checkpoint_resumes, 0);
}

/// Kill the centre mid-epoch; the resumed run's detection sets must be
/// byte-identical to the uninterrupted run's, epoch for epoch.
#[test]
fn mid_soak_kill_restart_is_detection_identical() {
    let epochs = 5;
    let seed = 0xFEED_F00D;
    let baseline = run_soak(&SoakConfig::standard(epochs, seed));

    let mut killed_cfg = SoakConfig::standard(epochs, seed);
    killed_cfg.kill = Some(KillPlan { epoch: 2, tick: 4 });
    let killed = run_soak(&killed_cfg);

    assert_eq!(
        killed.totals.checkpoint_resumes, 1,
        "the crash must recover through exactly one checkpoint resume"
    );
    let a = baseline.detection_sets();
    let b = killed.detection_sets();
    assert_eq!(a.len(), b.len());
    for (e, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "epoch {e} detection set diverged after kill/restart");
    }
    // Both runs actually detected things (the comparison is not
    // vacuously over empty reports).
    assert!(baseline.quorum_epochs() == epochs && killed.quorum_epochs() == epochs);
    assert!(a.iter().any(|s| s.contains("\"found\":true")));
}

/// One epoch of real wire frames for `routers` monitoring points, with
/// the planted content on the first `infected`.
fn epoch_frames(seed: u64, routers: usize, infected: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mcfg = MonitorConfig::small(7, 1 << 14, 4);
    let obj = ContentObject::random_with_packets(&mut rng, 30, 536);
    let plant = Planting::aligned(obj, 536);
    let bg = BackgroundConfig {
        packets: 800,
        flows: 200,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };
    (0..routers)
        .map(|id| {
            let mut traffic = gen::generate_epoch(&mut rng, &bg);
            if id < infected {
                plant.plant_into(&mut rng, &mut traffic);
            }
            let mut mp = MonitoringPoint::new(id, &mcfg);
            mp.observe_all(&traffic);
            mp.finish_epoch()
                .encode_wire()
                .expect("bundle fits the wire format")
                .to_vec()
        })
        .collect()
}

fn center(routers: usize) -> AnalysisCenter {
    let mut acfg = AnalysisConfig::for_groups(routers * 4);
    acfg.search.n_prime = 400;
    acfg.search.hopefuls = 300;
    AnalysisCenter::new(acfg)
}

/// Satellite (c), part 1: duplicate and overlapping chunk deliveries —
/// every chunk sent three times, interleaved across routers, out of
/// order — reassemble byte-exactly and detect identically to a clean
/// single-copy delivery.
#[test]
fn duplicate_and_overlapping_delivery_detects_identically() {
    let routers = 24;
    let frames = epoch_frames(31, routers, 20);
    let center = center(routers);
    let clean = center
        .analyze_epoch_collected(&CollectedEpoch::from_frames(frames.clone()))
        .expect("quorum");

    let mut coll = EpochCollector::new(
        0,
        (0..routers as u64).collect::<Vec<_>>(),
        CollectorConfig::default(),
        9,
        0,
    );
    // Interleave all routers' chunks: reversed order first, then two
    // full forward replays (pure duplicates), round-robin by router.
    let per_router: Vec<Vec<Vec<u8>>> = frames
        .iter()
        .enumerate()
        .map(|(id, f)| chunk_bundle(id as u64, 0, f, 700))
        .collect();
    let max_chunks = per_router.iter().map(Vec::len).max().unwrap();
    for i in 0..max_chunks {
        for chunks in &per_router {
            if let Some(c) = chunks.get(chunks.len() - 1 - i.min(chunks.len() - 1)) {
                coll.offer(c, 0);
            }
        }
    }
    for _ in 0..2 {
        for chunks in &per_router {
            for c in chunks {
                let d = coll.offer(c, 1);
                assert!(
                    matches!(
                        d,
                        ChunkDisposition::Duplicate { .. } | ChunkDisposition::Accepted { .. }
                    ),
                    "{d:?}"
                );
            }
        }
    }
    // Reversed round-robin may have skipped some seqs for short bundles;
    // by now every chunk has been offered at least twice.
    assert_eq!(coll.complete_sessions(), routers);
    assert!(coll.stats().duplicate_chunks > 0);
    let epoch = coll.finalize(2);
    assert!(epoch.exclusions.is_empty());
    let via_chunks = center.analyze_epoch_collected(&epoch).expect("quorum");

    assert_eq!(via_chunks.aligned.found, clean.aligned.found);
    assert_eq!(via_chunks.aligned.routers, clean.aligned.routers);
    assert_eq!(
        via_chunks.aligned.signature_indices,
        clean.aligned.signature_indices
    );
    assert_eq!(via_chunks.unaligned.alarm, clean.unaligned.alarm);
    assert_eq!(via_chunks.ingest.accepted, clean.ingest.accepted);
}

/// Satellite (c), part 2: under `Quorum`, a digest whose chunks arrive
/// past the deadline is excluded as `TimedOut`, and detection matches
/// the survivor-only baseline (the same epoch analysed without the
/// straggler at all).
#[test]
fn late_digest_is_timed_out_and_detection_matches_survivor_baseline() {
    let routers = 24;
    let straggler = 21usize; // an uninfected router, so detection sets align
    let frames = epoch_frames(32, routers, 20);

    // Survivor-only baseline: the same frames minus the straggler.
    let survivors: Vec<Vec<u8>> = frames
        .iter()
        .enumerate()
        .filter(|(id, _)| *id != straggler)
        .map(|(_, f)| f.clone())
        .collect();
    let center_a = center(routers);
    let baseline = center_a
        .analyze_epoch_collected(&CollectedEpoch::from_frames(survivors))
        .expect("quorum");

    let ccfg = CollectorConfig {
        deadline: 50,
        straggler: StragglerPolicy::Quorum(16),
        ..Default::default()
    };
    let mut coll = EpochCollector::new(0, (0..routers as u64).collect::<Vec<_>>(), ccfg, 9, 0);
    for (id, f) in frames.iter().enumerate() {
        if id == straggler {
            continue;
        }
        for c in chunk_bundle(id as u64, 0, f, 1024) {
            coll.offer(&c, 1);
        }
    }
    assert!(
        !coll.ready(10),
        "quorum policy must hold until the deadline"
    );
    assert!(coll.ready(50), "23 complete sessions beat the quorum of 16");

    let epoch = coll.finalize(50);
    // The straggler's chunks show up only now — past finalize they are
    // late, not accepted.
    for c in chunk_bundle(straggler as u64, 0, &frames[straggler], 1024) {
        assert_eq!(coll.offer(&c, 51), ChunkDisposition::Late);
    }
    assert_eq!(epoch.exclusions.len(), 1);
    assert_eq!(epoch.exclusions[0].router_id, Some(straggler));
    assert!(
        matches!(
            epoch.exclusions[0].fault,
            RouterFault::TimedOut {
                received: 0,
                total: 0
            }
        ),
        "{:?}",
        epoch.exclusions[0].fault
    );
    // The post-finalize offers counted as late on the collector (the
    // CollectedEpoch's stats snapshot predates them by construction).
    assert!(coll.stats().late_chunks > 0);

    let report = center(routers)
        .analyze_epoch_collected(&epoch)
        .expect("quorum");
    assert_eq!(report.routers, routers - 1);
    assert_eq!(report.aligned.found, baseline.aligned.found);
    assert_eq!(report.aligned.routers, baseline.aligned.routers);
    assert_eq!(
        report.aligned.signature_indices,
        baseline.aligned.signature_indices
    );
    assert_eq!(report.unaligned.alarm, baseline.unaligned.alarm);
    assert_eq!(
        report.unaligned.suspected_routers,
        baseline.unaligned.suspected_routers
    );
}

/// Satellite (b): byte-soup fuzz over every transport-facing decoder —
/// the whole-bundle wire decoder, the chunk-envelope decoder and the
/// checkpoint decoder. Up to 64 KiB of arbitrary bytes: typed errors
/// only, no panic, and the declared-count caps keep allocation bounded.
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn bundle_chunk_and_checkpoint_decoders_never_panic_on_64k_soup(
            bytes in proptest::collection::vec(any::<u8>(), 0..(64 * 1024)),
            magic_kind in 0u8..5,
        ) {
            let mut soup = bytes;
            if soup.len() >= 5 {
                // Steer some cases past the magic/version checks so the
                // count/length fields get fuzzed too.
                match magic_kind {
                    0 => {}
                    1 => soup[..4].copy_from_slice(b"DCSR"),
                    2 => {
                        soup[..4].copy_from_slice(b"DCSC");
                        soup[4] = 1;
                    }
                    3 => {
                        soup[..4].copy_from_slice(b"DCSG");
                        soup[4] = dcs_core::aggregate::AGGREGATE_VERSION;
                    }
                    _ => {
                        soup[..4].copy_from_slice(b"DCSK");
                        soup[4] = 1;
                    }
                }
            }
            let _ = RouterDigest::decode_wire(&soup);
            let _ = ChunkFrame::decode(&soup);
            let _ = ChunkFrame::salvage_header(&soup);
            let _ = dcs_core::aggregate::AggregateBundle::decode_wire(&soup);
            let _ = EpochCollector::resume(&soup, CollectorConfig::default(), 1, 0);
        }

        /// Any mutation of a valid chunk frame is rejected by the CRC (or
        /// decodes to the identical frame if the mutation was a no-op —
        /// impossible for single-byte XOR, asserted below).
        #[test]
        fn mutated_chunk_frames_are_rejected(pos_ppm in 0u32..1_000_000, mask in 1u8..=255) {
            let frame = chunk_bundle(7, 3, &[0xABu8; 900], 256)[1].clone();
            let pos = (frame.len() as u64 * u64::from(pos_ppm) / 1_000_000) as usize;
            let mut bad = frame.clone();
            bad[pos.min(frame.len() - 1)] ^= mask;
            prop_assert!(ChunkFrame::decode(&bad).is_err());
        }

        /// Any mutation of a valid checkpoint is rejected typed.
        #[test]
        fn mutated_checkpoints_are_rejected(pos_ppm in 0u32..1_000_000, mask in 1u8..=255) {
            let mut coll = EpochCollector::new(
                4,
                [1u64, 2, 3],
                CollectorConfig::default(),
                5,
                0,
            );
            for c in chunk_bundle(2, 4, &[0x5Au8; 500], 128) {
                coll.offer(&c, 0);
            }
            let ckpt = coll.checkpoint();
            let pos = (ckpt.len() as u64 * u64::from(pos_ppm) / 1_000_000) as usize;
            let mut bad = ckpt.clone();
            bad[pos.min(ckpt.len() - 1)] ^= mask;
            prop_assert!(EpochCollector::resume(&bad, CollectorConfig::default(), 5, 0).is_err());
            // And the clean checkpoint still resumes.
            prop_assert!(EpochCollector::resume(&ckpt, CollectorConfig::default(), 5, 0).is_ok());
        }
    }
}
