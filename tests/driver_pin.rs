//! Replay pin of the `dcs-sim` soak driver on its flat, killed, two-level
//! and attack regimes.
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
//!
//! The `delivery` halves were re-captured again, and every `outcomes`
//! half held, when the sender's tail probe moved from "every step that
//! heard nothing" to one probe timeout (SRTT + 4·RTTVAR from its acks,
//! at least a tick) after its last send or ack progress, and receivers
//! began to answer a batch with one ack a router. A sender now probes
//! less often and later, and not at all before its first round-trip
//! sample, so more tails wait for a timer: the flat pin soak went from
//! 52 to 79 virtual ticks, its timer NACKs from 20 to 37, duplicate
//! chunks from 560 to 553; the two-level one from 62 to 97 ticks.
//!
//! The killed pin's [`KillPlan`] checkpoints the collector at the
//! instant the centre dies, which is the state `dcs-cli serve` writes
//! only on SIGTERM: `KILLED_SOAK_PIN` (like `transport_soak`'s
//! `mid_soak_kill_restart_is_detection_identical`) covers a graceful
//! restart. No test covers a SIGKILL between `serve`'s 64-tick
//! snapshots.

use dcs_core::report::TransportStats;
use dcs_hash::Fnv1a;
use dcs_sim::soak::{outcome_fingerprint, run_soak, KillPlan, SoakConfig};

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
    assert_eq!(pin(&SoakConfig::tiered(4, 7)), TIERED_PIN);
}

#[test]
fn attack_driver_replays_its_pinned_run() {
    let cfg = SoakConfig::attack(3, 7);
    assert_eq!(pin(&cfg), ATTACK_PIN);
}

const SOAK_PIN: Pin = Pin {
    outcomes: 0x27b6_7e1b_71b4_483f,
    delivery: 0xd312_e1e5_3372_ef84,
};
const KILLED_SOAK_PIN: Pin = Pin {
    outcomes: 0x27b6_7e1b_71b4_483f,
    delivery: 0x60b7_720e_3c4e_8cbf,
};
const TIERED_PIN: Pin = Pin {
    outcomes: 0xe170_698b_e4e3_3485,
    delivery: 0x2b77_73e0_33cd_b7b0,
};
const ATTACK_PIN: Pin = Pin {
    outcomes: 0x1252_11a9_fc40_527a,
    delivery: 0x8c86_58ee_85e1_ceac,
};
