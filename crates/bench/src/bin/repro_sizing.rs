//! Sizing claims of Sections III-A and IV-A: digest widths, fill levels
//! and compression ratios.
//!
//! * aligned: a 4-Mbit bitmap holds one OC-48 second (~2.4 M packets) at
//!   ~50 % fill; digests are ≥3 orders of magnitude smaller than traffic;
//! * unaligned: 131,072 bits per link split into 128 groups × 10 arrays ×
//!   1,024 bits; update cost 10 bits per 536-byte packet.

use dcs_bench::{banner, RunScale};
use dcs_collect::{AlignedCollector, AlignedConfig, UnalignedCollector, UnalignedConfig};
use dcs_sim::table::render_table;
use dcs_traffic::{gen, BackgroundConfig, SizeMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = RunScale::from_env(1);
    banner(
        "Sizing — digest widths, fill and compression",
        "Sections III-A and IV-A",
    );
    let mut rng = StdRng::seed_from_u64(0x512E);

    // Scaled-down epoch: the 2.4M-packet OC-48 epoch shrinks by `div` but
    // keeps the packets-to-bits proportion, so the fill matches the paper.
    let div = if scale.quick { 512 } else { 64 };
    let bitmap_bits = 4 * 1024 * 1024 / div;
    let packets = 2_400_000 / div;
    let mut aligned = AlignedCollector::new(AlignedConfig::small(bitmap_bits, 1));
    let mut unaligned = UnalignedCollector::new(UnalignedConfig {
        groups: 128 / (div / 16).max(1),
        seed: 1,
        router_seed: 2,
        ..UnalignedConfig::default()
    });
    let epoch = gen::generate_epoch(
        &mut rng,
        &BackgroundConfig {
            packets,
            flows: packets / 10,
            zipf_exponent: 1.0,
            size_mix: SizeMix::internet_default(),
        },
    );
    for p in &epoch {
        aligned.observe(p);
        unaligned.observe(p);
    }
    let ad = aligned.finish_epoch();
    let ud = unaligned.finish_epoch();

    let rows = vec![
        vec![
            "aligned".into(),
            format!("{} bits", bitmap_bits),
            format!("{:.1}%", ad.bitmap.fill_ratio() * 100.0),
            format!("{}", ad.raw_bytes),
            format!("{}", ad.bitmap.encoded_len()),
            format!("{:.0}x", ad.compression_ratio()),
        ],
        vec![
            "unaligned".into(),
            format!("{} arrays x 1024 bits", ud.arrays.len()),
            format!(
                "{:.1}%",
                ud.arrays.iter().map(|a| a.fill_ratio()).sum::<f64>() / ud.arrays.len() as f64
                    * 100.0
            ),
            format!("{}", ud.raw_bytes),
            format!("{}", ud.encoded_len()),
            format!("{:.0}x", ud.compression_ratio()),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "collector",
                "digest shape",
                "fill",
                "raw bytes",
                "digest bytes",
                "ratio"
            ],
            &rows
        )
    );
    println!(
        "aligned packets hashed: {} of {} seen (payload-carrying only)",
        ad.packets_hashed, ad.packets_seen
    );
    println!(
        "unaligned packets sampled: {} of {} (>= 500-byte payloads only; 10 bits per packet)",
        ud.packets_sampled, ud.packets_seen
    );
    println!(
        "(paper: digests ~1000x smaller than raw traffic; bitmap ends the epoch at ~50% fill)"
    );
}
