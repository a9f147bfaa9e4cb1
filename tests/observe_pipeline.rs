//! Two checks that the monitoring point's fast paths ship what its plain
//! paths ship.
//!
//! `MonitoringPoint::observe_all` starts each packet's loads early, over
//! a ring of the next `LOOKAHEAD` packets. It must ship exactly what a
//! loop of `observe` ships: the same bundle bytes and the same fill
//! signal, for every batch length around the ring's size, with the
//! order-sensitive heavy-content sketch on, across consecutive epochs.
//! A ring that drops, duplicates or reorders a packet changes a counter,
//! a bit or the sketch's survivors, and fails here.
//!
//! `MonitoringPoint::finish_epoch_chunks` encodes the collectors' live
//! state into a buffer it keeps and zeroes the collectors in place. Its
//! frames must be, byte for byte, what `chunk_bundle` cuts from
//! `finish_epoch().encode_wire()`, which starts each epoch on fresh
//! bitmaps, over consecutive epochs that include an empty one after a
//! full one. A bitmap, counter or fill count left over from the previous
//! epoch changes a frame or the fill signal, and fails here.

use dcs_core::monitor::{MonitorConfig, MonitoringPoint, SketchSpec, LOOKAHEAD};
use dcs_core::session::Missing;
use dcs_core::transport::{chunk_bundle, DATAGRAM_SAFE_PAYLOAD, MAX_CHUNK_PAYLOAD};
use dcs_traffic::{gen, BackgroundConfig, Packet, SizeMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What one side ships: each call's returned fill signal, and each
/// epoch's wire bundle.
#[derive(Debug, PartialEq, Eq)]
struct Shipped {
    full: Vec<bool>,
    bundles: Vec<Vec<u8>>,
}

/// Two consecutive epochs, each of `batch` packets from `pkts`, fed by
/// `feed`.
fn ship(
    cfg: &MonitorConfig,
    pkts: &[Packet],
    batch: usize,
    feed: impl Fn(&mut MonitoringPoint, &[Packet]) -> bool,
) -> Shipped {
    let mut mp = MonitoringPoint::new(5, cfg);
    let mut shipped = Shipped {
        full: Vec::new(),
        bundles: Vec::new(),
    };
    for epoch in 0..2 {
        shipped
            .full
            .push(feed(&mut mp, &pkts[epoch * batch..(epoch + 1) * batch]));
        let wire = mp
            .finish_epoch()
            .encode_wire()
            .expect("bundle fits the wire format");
        shipped.bundles.push(wire);
    }
    shipped
}

fn per_packet(mp: &mut MonitoringPoint, batch: &[Packet]) -> bool {
    batch
        .iter()
        .fold(mp.aligned().epoch_full(), |_, p| mp.observe(p))
}

fn pipelined(mp: &mut MonitoringPoint, batch: &[Packet]) -> bool {
    mp.observe_all(batch)
}

#[test]
fn observe_all_ships_what_a_loop_of_observe_ships() {
    let configs = [
        // Fills past half within a few hundred packets: `true` returns.
        ("256 bits, no sketch", MonitorConfig::small(7, 256, 2)),
        // Columns repeat: the sketch keeps counts above one.
        (
            "256 bits, heavy-content sketch of 4",
            MonitorConfig::small(7, 256, 2).with_sketch(SketchSpec::heavy_content(4)),
        ),
        (
            "4096 bits, heavy-content sketch of 16",
            MonitorConfig::small(7, 4096, 3).with_sketch(SketchSpec::heavy_content(16)),
        ),
        (
            "1000 bits, heavy-content sketch of 64",
            MonitorConfig::small(7, 1_000, 1).with_sketch(SketchSpec::heavy_content(64)),
        ),
    ];
    let mixes = [SizeMix::internet_default(), SizeMix::constant(1460)];
    // Every length up to a few rings (and past the 17-key cycle of the
    // 16-key sketch, whose survivors change when two packets swap across
    // it), and two long batches.
    let mut lengths: Vec<usize> = (0..=(8 * LOOKAHEAD).max(40)).collect();
    lengths.extend([300, 777]);
    let mut saw_full = false;
    for mix in &mixes {
        let pkts = gen::generate_epoch(
            &mut StdRng::seed_from_u64(23),
            &BackgroundConfig {
                packets: 2 * 777,
                flows: 50,
                zipf_exponent: 1.0,
                size_mix: mix.clone(),
            },
        );
        for (what, cfg) in &configs {
            for &batch in &lengths {
                let want = ship(cfg, &pkts, batch, per_packet);
                let got = ship(cfg, &pkts, batch, pipelined);
                assert_eq!(got, want, "{what}, {mix:?}, batches of {batch}");
                saw_full |= want.full.contains(&true);
            }
        }
    }
    assert!(
        saw_full,
        "no batch filled its bitmap: the signal went untested"
    );
}

#[test]
fn closing_in_place_ships_what_closing_onto_fresh_bitmaps_ships() {
    let pkts = gen::generate_epoch(
        &mut StdRng::seed_from_u64(29),
        &BackgroundConfig {
            packets: 3_000,
            flows: 80,
            zipf_exponent: 1.0,
            size_mix: SizeMix::internet_default(),
        },
    );
    // Full, empty after full, partial, full: packet ranges per epoch.
    let epochs = [0..1_200, 0..0, 1_200..1_500, 1_500..3_000];
    let configs = [
        // Fills past half: the fill signal rises and must fall again.
        ("256 bits", MonitorConfig::small(7, 256, 2)),
        (
            "256 bits, heavy-content sketch of 8",
            MonitorConfig::small(7, 256, 2).with_sketch(SketchSpec::heavy_content(8)),
        ),
        // 64 KiB of aligned bitmap: several chunks at every payload size.
        ("512 Kbit", MonitorConfig::small(7, 1 << 19, 4)),
        (
            "512 Kbit, heavy-content sketch of 16",
            MonitorConfig::small(7, 1 << 19, 4).with_sketch(SketchSpec::heavy_content(16)),
        ),
    ];
    let mut saw_full = false;
    for (what, cfg) in &configs {
        for max_payload in [97, DATAGRAM_SAFE_PAYLOAD, 16 * 1024, MAX_CHUNK_PAYLOAD] {
            let mut in_place = MonitoringPoint::new(3, cfg);
            let mut fresh = MonitoringPoint::new(3, cfg);
            for (epoch, range) in epochs.iter().enumerate() {
                let case = format!("{what}, {max_payload}-byte chunks, epoch {epoch}");
                let full = in_place.observe_all(&pkts[range.clone()]);
                assert_eq!(full, fresh.observe_all(&pkts[range.clone()]), "{case}");
                saw_full |= full;
                let got = in_place
                    .finish_epoch_chunks(max_payload)
                    .expect("bundle fits the wire format");
                let digest = fresh.finish_epoch();
                let wire = digest.encode_wire().expect("bundle fits the wire format");
                let want = chunk_bundle(3, digest.epoch_id, &wire, max_payload);
                assert_eq!(got, want, "{case}");
                assert_eq!(in_place.resend(epoch as u64, &Missing::All), want, "{case}");
                assert_eq!(in_place.aligned().fill_ratio(), 0.0, "{case}");
                assert!(!in_place.observe_all(std::iter::empty()), "{case}");
            }
        }
    }
    assert!(
        saw_full,
        "no epoch filled its bitmap: the signal went untested"
    );
}
