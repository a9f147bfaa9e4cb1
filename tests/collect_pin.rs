//! Wire-byte pin of the collection path.
//!
//! `bench_e2e`'s golden digests hash *verdicts*. This pins the bytes a
//! monitoring point ships: same payload ⇒ same bit at every router is what
//! lets monitors of different builds feed one analysis centre, so a change
//! to how a packet is hashed, or to when a collector resets, must show up
//! here. The constants were captured before the per-packet path was
//! rewritten (running fill count, word-at-a-time Rabin fold, one hash per
//! packet); they change only when a shipped bit does. The 1,000-bit case,
//! there for its partial last bitmap word, shipped an elephant-flow sketch
//! until that sketch domain was deleted; it was re-pinned without a sketch
//! on the code that still had the domain.

use dcs_core::monitor::{MonitorConfig, MonitoringPoint, SketchSpec};
use dcs_hash::{Fnv1a, IndexHasher};
use dcs_traffic::{gen, BackgroundConfig, SizeMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the wire bundles of two consecutive epochs of seeded
/// background traffic (the second epoch catches state that `finish_epoch`
/// failed to reset).
fn wire_pin(cfg: &MonitorConfig, size_mix: &SizeMix, packets: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(17);
    let mut mp = MonitoringPoint::new(3, cfg);
    let mut h = Fnv1a::new();
    for _ in 0..2 {
        let pkts = gen::generate_epoch(
            &mut rng,
            &BackgroundConfig {
                packets,
                flows: 200,
                zipf_exponent: 1.0,
                size_mix: size_mix.clone(),
            },
        );
        mp.observe_all(&pkts);
        let wire = mp
            .finish_epoch()
            .encode_wire()
            .expect("bundle fits the wire format");
        h.update(&wire);
    }
    h.finish()
}

fn assert_pins(what: &str, cfg: &MonitorConfig, packets: usize, want: [u64; 2]) {
    let mixes = [SizeMix::internet_default(), SizeMix::constant(1460)];
    for (mix, want) in mixes.iter().zip(want) {
        let got = wire_pin(cfg, mix, packets);
        assert_eq!(got, want, "{what}, {mix:?}: got {got:#018x}");
    }
}

#[test]
fn shipped_wire_bytes_are_pinned() {
    assert_pins(
        "4096 bits x 2 groups, no sketch",
        &MonitorConfig::small(7, 4096, 2),
        3_000,
        [0x48fc_b738_df04_5632, 0x0fa9_9c69_3cb4_0356],
    );
    assert_pins(
        "65536 bits x 4 groups, heavy-content sketch",
        &MonitorConfig::small(7, 65_536, 4).with_sketch(SketchSpec::heavy_content(64)),
        40_000,
        [0x0deb_82ba_8aed_e14a, 0x3e1b_d3a1_662d_aa4e],
    );
    // A width that is not a multiple of 64: the last bitmap word is partial.
    assert_pins(
        "1000 bits x 1 group, no sketch",
        &MonitorConfig::small(7, 1_000, 1),
        700,
        [0x3c67_fc63_b902_7a3c, 0x30db_81ea_c699_7bdc],
    );
}

/// `IndexHasher::new(7).hash64` on `[7, 38, 69, …]` prefixes whose lengths
/// straddle every 8-byte word boundary the fold cares about.
#[test]
fn index_hasher_known_answers() {
    const KAT: [(usize, u64); 12] = [
        (0, 0xbd64_a5d9_adef_e000),
        (1, 0x6602_d201_e324_653f),
        (7, 0xeb9b_38d2_6fea_5f98),
        (8, 0x19bd_1625_a060_ab90),
        (9, 0xf0aa_2414_1705_7881),
        (15, 0x32a0_6667_f180_869c),
        (16, 0x3fbf_df42_547b_fde3),
        (17, 0x9176_fe2e_6bc9_b1cb),
        (63, 0x6046_6e6b_407e_f130),
        (64, 0xcef4_8bc7_33d0_bfb8),
        (65, 0x7984_dc28_9f16_cd19),
        (536, 0x99be_7d0e_abe3_55d0),
    ];
    let h = IndexHasher::new(7);
    let bytes: Vec<u8> = (0..536u32).map(|i| (i * 31 + 7) as u8).collect();
    for (len, want) in KAT {
        let got = h.hash64(&bytes[..len]);
        assert_eq!(got, want, "len {len}: got {got:#018x}");
    }
}
