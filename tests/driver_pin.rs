//! Replay pin of the `dcs-sim` soak driver on its flat, killed, two-level,
//! three-level and attack regimes.
//!
//! Every run is a pure function of its config: channel impairments,
//! retransmit jitter and traffic all draw from seeded RNGs on a virtual
//! clock. A change to how a hop is driven — the order of deliver, offer,
//! ack, poll and resend within a tick, or when the clock advances — moves
//! a channel RNG's draw sequence and with it the delivered frames. These
//! constants were captured before the drivers shared one hop loop; they
//! change only when a driver's behaviour does. Wall-clock metrics are
//! left out.
//!
//! A tiered pin comes in two halves. [`Pin::verdicts`] hashes what the
//! aggregation tier must never move: the epoch outcomes and the child-hop
//! stats.
//! [`Pin::upstream`] hashes the upstream-hop stats (and ticks), which
//! move whenever a bundle's size does: a bundle of a different length is
//! a different number of chunks through the seeded upstream channel.
//! The upstream halves were last re-captured when bundles stopped
//! carrying the OR-fused bitmap, the weight sidecar and the merged
//! sketch; the verdict halves are the parent's, byte for byte.
//!
//! `ATTACK_PIN` was re-captured, both halves, when attack leaves stopped
//! carrying a sketch: their bundles are smaller, so fewer chunks draw the
//! seeded channel RNGs and different frames are lost and resent. The DNS
//! plan also stopped drawing the probe flow that located the expected
//! sketch keys, which shifts the background traffic drawn after it.

use dcs_core::report::TransportStats;
use dcs_hash::Fnv1a;
use dcs_sim::soak::{
    outcome_fingerprint, run_soak, AttackScenario, KillPlan, SoakConfig, SoakResult, Topology,
};

fn pin_outcomes(h: &mut Fnv1a, r: &SoakResult) {
    for o in &r.outcomes {
        h.update(outcome_fingerprint(o).as_bytes());
    }
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

fn soak_pin(cfg: &SoakConfig) -> u64 {
    let r = run_soak(cfg);
    let mut h = Fnv1a::new();
    pin_outcomes(&mut h, &r);
    pin_stats(&mut h, &r.leaf_totals);
    h.update(&r.ticks.to_le_bytes());
    h.finish()
}

/// The two halves of a tiered driver's pin.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// Outcomes and child-hop stats.
    verdicts: u64,
    /// Upstream-hop stats (and ticks).
    upstream: u64,
}

/// `ticks`: whether the upstream half also hashes the run's ticks (the
/// attack pin was captured without them).
fn tiered_pin(r: &SoakResult, ticks: bool) -> Pin {
    let mut verdicts = Fnv1a::new();
    pin_outcomes(&mut verdicts, r);
    pin_stats(&mut verdicts, &r.leaf_totals);
    let mut upstream = Fnv1a::new();
    pin_stats(&mut upstream, &r.up_totals);
    if ticks {
        upstream.update(&r.ticks.to_le_bytes());
    }
    Pin {
        verdicts: verdicts.finish(),
        upstream: upstream.finish(),
    }
}

#[test]
fn soak_drivers_replay_their_pinned_runs() {
    let sequential = SoakConfig::standard(6, 7);
    let mut killed = sequential;
    killed.kill = Some(KillPlan { epoch: 2, tick: 4 });
    assert_eq!(soak_pin(&sequential), SOAK_PIN, "sequential soak");
    assert_eq!(soak_pin(&killed), KILLED_SOAK_PIN, "killed soak");
}

#[test]
fn tiered_drivers_replay_their_pinned_runs() {
    let cfg = SoakConfig::tiered(4, 7);
    let deep = SoakConfig {
        topology: Topology::Deep { aggregators: 3 },
        ..cfg
    };
    assert_eq!(tiered_pin(&run_soak(&cfg), true), TIERED_PIN, "two-level");
    assert_eq!(tiered_pin(&run_soak(&deep), true), DEEP_PIN, "three-level");
}

#[test]
fn attack_driver_replays_its_pinned_run() {
    let cfg = SoakConfig::attack(AttackScenario::DnsAmplification, 3, 7);
    assert_eq!(tiered_pin(&run_soak(&cfg), false), ATTACK_PIN);
}

const SOAK_PIN: u64 = 0x1e0f_8618_ac30_ab76;
const KILLED_SOAK_PIN: u64 = 0x794c_1191_31df_c546;
const TIERED_PIN: Pin = Pin {
    verdicts: 0x42fa_e671_9563_98a1,
    upstream: 0x9d6f_a63d_6b3e_b7f5,
};
const DEEP_PIN: Pin = Pin {
    verdicts: 0x42fa_e671_9563_98a1,
    upstream: 0x3009_c9d6_8cee_2298,
};
const ATTACK_PIN: Pin = Pin {
    verdicts: 0xeb76_e5fa_b76a_f1a0,
    upstream: 0x6226_1a32_811b_e9dc,
};
