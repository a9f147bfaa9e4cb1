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
//!   excluded as `TimedOut` under `Deadline`, and detection matches the
//!   survivor-only baseline;
//! * mutations of valid chunk frames and checkpoints, always a typed
//!   error (`tests/frame_soup.rs` feeds every decoder byte soup).

use dcs_core::ingest::RouterFault;
use dcs_core::session::{
    ChunkDisposition, CollectedEpoch, CollectorConfig, EpochCollector, StragglerPolicy,
};
use dcs_core::transport::{chunk_bundle, ChunkFrame};
use dcs_core::AnalysisCenter;
use dcs_sim::soak::{
    outcome_fingerprint, run_soak, EpochOutcome, KillPlan, SoakConfig, SoakResult,
};

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
        result.leaf_totals.retransmits > 0,
        "no retransmits under 10% loss"
    );
    assert!(
        result.leaf_totals.corrupt_chunks > 0,
        "no corruption detected at 2%"
    );
    assert_eq!(result.leaf_totals.checkpoint_resumes, 0);
}

/// Each epoch's outcome fingerprint with the leaves it accepted:
/// everything a centre restart must leave unchanged.
fn detection_sets(r: &SoakResult) -> Vec<(String, Vec<usize>)> {
    r.outcomes
        .iter()
        .map(|o| {
            let accepted = match o {
                EpochOutcome::Report(r) => r.ingest.accepted.clone(),
                EpochOutcome::QuorumTooSmall { .. } => Vec::new(),
            };
            (outcome_fingerprint(o), accepted)
        })
        .collect()
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
        killed.leaf_totals.checkpoint_resumes, 1,
        "the crash must recover through exactly one checkpoint resume"
    );
    let a = detection_sets(&baseline);
    let b = detection_sets(&killed);
    assert_eq!(a.len(), b.len());
    for (e, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "epoch {e} detection set diverged after kill/restart");
    }
    // Both runs actually detected things (the comparison is not
    // vacuously over empty reports).
    assert!(baseline.quorum_epochs() == epochs && killed.quorum_epochs() == epochs);
    assert!(a.iter().any(|(s, _)| s.contains("\"found\":true")));
}

/// Satellite (c), part 1: duplicate and overlapping chunk deliveries —
/// every chunk sent three times, interleaved across routers, out of
/// order — reassemble byte-exactly and detect identically to a clean
/// single-copy delivery.
#[test]
fn duplicate_and_overlapping_delivery_detects_identically() {
    let cfg = SoakConfig::standard(1, 0);
    let routers = cfg.leaves;
    let frames = cfg.leaf_frames(31);
    let center = AnalysisCenter::new(cfg.analysis_config());
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

/// Under `Deadline`, a digest whose chunks arrive past the deadline is
/// excluded as `TimedOut`, and detection matches the survivor-only
/// baseline (the same epoch analysed without the straggler at all).
#[test]
fn late_digest_is_timed_out_and_detection_matches_survivor_baseline() {
    let cfg = SoakConfig::standard(1, 0);
    let routers = cfg.leaves;
    let straggler = 21usize; // an uninfected router, so detection sets align
    let frames = cfg.leaf_frames(32);

    // Survivor-only baseline: the same frames minus the straggler.
    let survivors: Vec<Vec<u8>> = frames
        .iter()
        .enumerate()
        .filter(|(id, _)| *id != straggler)
        .map(|(_, f)| f.clone())
        .collect();
    let center_a = AnalysisCenter::new(cfg.analysis_config());
    let baseline = center_a
        .analyze_epoch_collected(&CollectedEpoch::from_frames(survivors))
        .expect("quorum");

    let ccfg = CollectorConfig {
        deadline: 50,
        straggler: StragglerPolicy::Deadline,
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
        "a missing session holds the epoch until the deadline"
    );
    assert!(coll.ready(50), "the deadline cuts the straggler off");

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

    let report = AnalysisCenter::new(cfg.analysis_config())
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

/// Bit flips in valid chunk frames and checkpoints: typed errors only.
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

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
