//! Replay pin of the `dcs-sim` soak driver on its flat, killed, two-level,
//! three-level and attack regimes.
//!
//! Every run is a pure function of its config: channel impairments,
//! retransmit jitter and traffic all draw from seeded RNGs on a virtual
//! clock. Wall-clock metrics are left out.
//!
//! Every pin comes in two halves:
//!
//! * [`Pin::outcomes`] hashes each epoch's [`outcome_fingerprint`]: what
//!   was detected, and which leaves reached the centre. No change to how
//!   frames are delivered may move it. A moved `outcomes` half is a
//!   delivery bug to fix, never a pin to re-capture.
//! * [`Pin::delivery`] hashes the leaf-hop stats, the upstream-hop stats
//!   and the ticks the run took. It moves whenever a hop sends different
//!   frames: a sender that windows, probes or times out differently, or
//!   a bundle of a different size (a different number of chunks through
//!   the seeded channel). It is re-captured with the cause named here.
//!
//! The `outcomes` halves were captured before the simulated hop ran the
//! deployed protocol, and held when it began to. The `delivery` halves
//! were re-captured then: simulated senders now window, probe and time
//! out as a socket sender does, and receivers gap-NACK, so each hop
//! sends different frames through its seeded channel. A change to what a
//! leaf ships (its traffic or its digest) moves both halves.

use dcs_core::report::TransportStats;
use dcs_hash::Fnv1a;
use dcs_sim::soak::{
    outcome_fingerprint, run_soak, AttackScenario, KillPlan, SoakConfig, Topology,
};

/// The two halves of a driver's pin.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// Every epoch's outcome fingerprint.
    outcomes: u64,
    /// Leaf-hop stats, upstream-hop stats and ticks.
    delivery: u64,
}

fn pin_stats(h: &mut Fnv1a, s: &TransportStats) {
    for v in [
        s.chunks_received,
        s.retransmits,
        s.late_chunks,
        s.duplicate_chunks,
        s.corrupt_chunks,
        s.checkpoint_resumes,
    ] {
        h.update(&v.to_le_bytes());
    }
}

fn pin(cfg: &SoakConfig) -> Pin {
    let r = run_soak(cfg);
    let mut outcomes = Fnv1a::new();
    for o in &r.outcomes {
        outcomes.update(outcome_fingerprint(o).as_bytes());
    }
    let mut delivery = Fnv1a::new();
    pin_stats(&mut delivery, &r.leaf_totals);
    pin_stats(&mut delivery, &r.up_totals);
    delivery.update(&r.ticks.to_le_bytes());
    Pin {
        outcomes: outcomes.finish(),
        delivery: delivery.finish(),
    }
}

#[test]
fn soak_drivers_replay_their_pinned_runs() {
    let sequential = SoakConfig::standard(6, 7);
    let mut killed = sequential;
    killed.kill = Some(KillPlan { epoch: 2, tick: 4 });
    assert_eq!(pin(&sequential), SOAK_PIN, "sequential soak");
    assert_eq!(pin(&killed), KILLED_SOAK_PIN, "killed soak");
}

#[test]
fn tiered_drivers_replay_their_pinned_runs() {
    let cfg = SoakConfig::tiered(4, 7);
    let deep = SoakConfig {
        topology: Topology::Deep { aggregators: 3 },
        ..cfg
    };
    assert_eq!(pin(&cfg), TIERED_PIN, "two-level");
    assert_eq!(pin(&deep), DEEP_PIN, "three-level");
}

#[test]
fn attack_driver_replays_its_pinned_run() {
    let cfg = SoakConfig::attack(AttackScenario::DnsAmplification, 3, 7);
    assert_eq!(pin(&cfg), ATTACK_PIN);
}

const SOAK_PIN: Pin = Pin {
    outcomes: 0x27b6_7e1b_71b4_483f,
    delivery: 0x78e0_2e37_0e5b_7010,
};
const KILLED_SOAK_PIN: Pin = Pin {
    outcomes: 0x27b6_7e1b_71b4_483f,
    delivery: 0x135b_d8b6_340f_e927,
};
const TIERED_PIN: Pin = Pin {
    outcomes: 0xe170_698b_e4e3_3485,
    delivery: 0x8dc1_eaf2_589f_f5e4,
};
const DEEP_PIN: Pin = Pin {
    outcomes: 0xe170_698b_e4e3_3485,
    delivery: 0x16ce_99f1_a5f7_676d,
};
const ATTACK_PIN: Pin = Pin {
    outcomes: 0x1252_11a9_fc40_527a,
    delivery: 0x07a6_a211_a593_2b8b,
};
