//! Two-level topology soak (PR 7 acceptance): 1,000+ leaf routers
//! behind regional aggregators, both hops lossy.
//!
//! * every epoch reaches quorum or returns a typed `QuorumTooSmall` —
//!   zero panics by construction;
//! * the tiered path's detection set is byte-identical to a flat
//!   `CollectedEpoch::from_frames` run over the same delivered child frames
//!   (the verbatim-forwarding equivalence argument of DESIGN.md §7.1);
//! * cross-level accounting: every leaf the aggregation tier lost
//!   surfaces at the centre as an `AtLevel`-wrapped fault.

use dcs_sim::channel::ChannelConfig;
use dcs_sim::soak::{run_soak, EpochOutcome, SoakConfig};

fn wide_epochs() -> usize {
    match std::env::var("DCS_WIDE_EPOCHS") {
        Ok(v) => v.parse().expect("DCS_WIDE_EPOCHS must be an integer"),
        Err(_) => 2,
    }
}

/// The headline wide soak: 1,040 leaves behind 16 aggregators, the
/// usual loss/reorder/corruption regime on both hops. Every epoch must
/// finish quorum-or-typed-error, and tiered detection must match flat
/// ingest of the delivered frames byte for byte.
#[test]
fn wide_tiered_soak_survives_at_thousand_plus_leaves() {
    let aggregators = 16;
    let cfg = SoakConfig::wide(1040, aggregators, wide_epochs(), 0x7EAF_50AC);
    let result = run_soak(&cfg);
    assert_eq!(result.outcomes.len(), cfg.epochs);
    assert!(
        result.detection_equivalent(),
        "tiered and flat detection diverged: {:?}",
        result.detection_pairs.iter().find(|(t, f)| t != f)
    );
    for (e, o) in result.outcomes.iter().enumerate() {
        match o {
            EpochOutcome::Report(r) => {
                assert!(
                    r.ingest.accepted.len() >= cfg.min_quorum,
                    "epoch {e}: report below quorum"
                );
                // Leaf-based submission accounting: every reachable leaf
                // counts once; a whole lost (or undecodable) bundle
                // removes its region's leaves and counts once itself.
                let lost_bundles = r
                    .ingest
                    .excluded
                    .iter()
                    .filter(|x| match x.router_id {
                        None => x.fault.level() > 0,
                        Some(id) => id >= (1 << 20),
                    })
                    .count();
                let per_region = cfg.leaves / aggregators;
                assert_eq!(
                    r.ingest.submitted,
                    cfg.leaves - lost_bundles * per_region + lost_bundles,
                    "epoch {e}: leaf accounting off ({lost_bundles} lost bundles)"
                );
                assert_eq!(
                    r.ingest.submitted,
                    r.ingest.accepted.len() + r.ingest.excluded.len(),
                    "epoch {e}: every submission must be accepted or excluded"
                );
                // Transport loss on this path always happens below the
                // centre, so transport faults must carry their level.
                for x in &r.ingest.excluded {
                    if matches!(
                        x.fault.kind(),
                        "timed_out" | "checksum_mismatch" | "incomplete"
                    ) {
                        assert_eq!(
                            x.fault.level(),
                            1,
                            "epoch {e}: tier loss without level: {:?}",
                            x.fault
                        );
                    }
                }
            }
            EpochOutcome::QuorumTooSmall { required, accepted } => {
                assert!(
                    accepted < required,
                    "epoch {e}: typed quorum error with enough leaves"
                );
            }
        }
    }
    // The lossy child hop across 1,000+ leaves must actually have
    // exercised the retransmit machinery.
    assert!(
        result.leaf_totals.retransmits > 0,
        "1,000-leaf lossy hop produced no retransmits"
    );
    // The aggregation tier's own instrumentation ran.
    assert!(result
        .agg_metrics
        .gauge("aggregate_fuse_ns{level=1}")
        .is_some());
    assert!(result
        .metrics
        .counter("aggregate_bundles_total")
        .is_some_and(|v| v >= aggregators as u64));
    // The unaligned graph engine ran at this width.
    let exact = result
        .metrics
        .counter("pairs_exact_total")
        .expect("pairs_exact_total missing from wide-soak snapshot");
    assert!(exact > 0, "wide soak tested no unaligned row pairs");
}

/// Losing every aggregate bundle upstream must degrade to a typed
/// quorum error, never a panic: a channel that drops everything on the
/// second hop starves the centre of all leaves.
#[test]
fn all_bundles_lost_is_a_typed_quorum_error() {
    let mut cfg = SoakConfig::tiered(1, 0x00DE_AD11);
    cfg.leaf_channel = ChannelConfig::perfect();
    cfg.up_channel = ChannelConfig {
        drop_prob: 1.0,
        ..ChannelConfig::perfect()
    };
    let result = run_soak(&cfg);
    assert_eq!(result.outcomes.len(), 1);
    match &result.outcomes[0] {
        EpochOutcome::QuorumTooSmall { accepted, .. } => assert_eq!(*accepted, 0),
        other => panic!("expected a typed quorum error, got {other:?}"),
    }
}
