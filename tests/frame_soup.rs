//! One byte-soup table over every wire decoder.
//!
//! Each row of [`rows`] is one decoder: DCSB, DCSA, DCSU, DCSR, DCSC
//! (with `salvage_header`), DCSN control, DCSG, DCSK and the DCSR
//! artifact section. Every frame the centre, an aggregator or a resuming
//! `serve` parses is outside input, so each decoder must return a typed
//! error or a frame inside the buffer on any bytes, never panic. The soup
//! stamps a row's magic and version on half the cases, so the count and
//! length fields behind them are fuzzed too. `every_magic_has_one_row`
//! fails when a `*_MAGIC` constant of a frame-owning crate has no row (or
//! shares its FourCC), so a new format cannot skip the soup.

use dcs_bitmap::{Bitmap, BitmapView, DecodeError, DIGEST_MAGIC};
use dcs_collect::artifact::{decode_section, section_len};
use dcs_collect::wire::{ALIGNED_MAGIC, UNALIGNED_MAGIC};
use dcs_collect::{AlignedDigest, UnalignedDigest, WireError};
use dcs_core::aggregate::{AggregateBundle, AGGREGATE_MAGIC, AGGREGATE_VERSION};
use dcs_core::monitor::{
    MonitorConfig, MonitoringPoint, RouterDigest, RouterDigestView, SketchSpec, BUNDLE_MAGIC,
};
use dcs_core::net::{CenterSocket, ControlFrame, Transport, CONTROL_MAGIC, CONTROL_VERSION};
use dcs_core::session::{CheckpointError, CollectorConfig, EpochCollector, CHECKPOINT_MAGIC};
use dcs_core::transport::{chunk_bundle, ChunkFrame, CHUNK_MAGIC, CHUNK_VERSION};
use dcs_core::{FrameError, MetricsRegistry};
use dcs_traffic::{gen, BackgroundConfig, SizeMix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::UdpSocket;
use std::path::Path;
use std::time::Duration;

/// What one decoder made of a buffer.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// Accepted a frame of this many bytes.
    Frame(usize),
    /// Refused the magic.
    BadMagic,
    /// Refused for any other reason.
    Refused,
}

/// One decoder of the table.
struct Row {
    name: &'static str,
    /// The FourCC the format starts with; the artifact section has none.
    magic: Option<[u8; 4]>,
    /// A version the decoder accepts.
    version: u8,
    decode: fn(&[u8]) -> Outcome,
    /// One valid frame of the format.
    valid: fn() -> Vec<u8>,
}

fn judge<T, E>(res: Result<(T, usize), E>, bad_magic: fn(&E) -> bool) -> Outcome {
    match res {
        Ok((_, used)) => Outcome::Frame(used),
        Err(e) if bad_magic(&e) => Outcome::BadMagic,
        Err(_) => Outcome::Refused,
    }
}

fn wire_magic(e: &WireError) -> bool {
    matches!(e, WireError::BadMagic(_))
}

fn frame_magic(e: &FrameError) -> bool {
    matches!(e, FrameError::BadMagic(_))
}

fn dcsb(b: &[u8]) -> Outcome {
    judge(BitmapView::parse(b).map(|v| (v, v.encoded_len())), |e| {
        matches!(e, DecodeError::BadMagic(_))
    })
}

/// A decoded unaligned digest, however the bytes were mangled, has whole
/// groups of equal-width arrays.
fn dcsu(b: &[u8]) -> Outcome {
    let res = UnalignedDigest::decode_wire(b);
    if let Ok((d, _)) = &res {
        assert!(d.arrays_per_group > 0);
        assert!(d.arrays.len().is_multiple_of(d.arrays_per_group));
        assert!(d.arrays.iter().all(|a| a.len() == d.arrays[0].len()));
    }
    judge(res, wire_magic)
}

fn dcsc(b: &[u8]) -> Outcome {
    let outcome = judge(ChunkFrame::decode(b), frame_magic);
    if ChunkFrame::salvage_header(b).is_some() {
        assert_ne!(outcome, Outcome::BadMagic, "salvaged a foreign frame");
    }
    outcome
}

fn control(b: &[u8]) -> Outcome {
    judge(
        ControlFrame::decode(b).map(|c| {
            let used = c.encode().len();
            (c, used)
        }),
        frame_magic,
    )
}

fn checkpoint(b: &[u8]) -> Outcome {
    judge(
        EpochCollector::resume(b, CollectorConfig::default(), 1, 0).map(|c| (c, b.len())),
        |e| matches!(e, CheckpointError::BadMagic(_)),
    )
}

/// A decoded artifact section covers exactly the bytes it re-encodes to.
fn artifact_section(b: &[u8]) -> Outcome {
    let mut rest = b;
    match decode_section(&mut rest) {
        Ok(artifacts) => {
            let used = b.len() - rest.len();
            assert_eq!(used, section_len(&artifacts), "consumed length");
            Outcome::Frame(used)
        }
        Err(_) => Outcome::Refused,
    }
}

/// One seeded monitor epoch, with a sketch so its bundle is a v2 DCSR
/// frame carrying an artifact section.
fn digest() -> RouterDigest {
    let cfg = MonitorConfig::small(7, 1 << 10, 2).with_sketch(SketchSpec::heavy_content(8));
    let mut mp = MonitoringPoint::new(1, &cfg);
    let mut rng = StdRng::seed_from_u64(3);
    mp.observe_all(&gen::generate_epoch(
        &mut rng,
        &BackgroundConfig {
            packets: 200,
            flows: 50,
            zipf_exponent: 1.0,
            size_mix: SizeMix::constant(536),
        },
    ));
    mp.finish_epoch()
}

fn bundle() -> Vec<u8> {
    digest()
        .encode_wire()
        .expect("a small digest fits")
        .to_vec()
}

fn rows() -> Vec<Row> {
    vec![
        Row {
            name: "DCSB",
            magic: Some(DIGEST_MAGIC),
            version: 1,
            decode: dcsb,
            valid: || Bitmap::from_indices(200, [3, 150]).encode().to_vec(),
        },
        Row {
            name: "DCSA",
            magic: Some(ALIGNED_MAGIC),
            version: 1,
            decode: |b| judge(AlignedDigest::decode_wire(b), wire_magic),
            valid: || digest().aligned.encode_wire().to_vec(),
        },
        Row {
            name: "DCSU",
            magic: Some(UNALIGNED_MAGIC),
            version: 1,
            decode: dcsu,
            valid: || digest().unaligned.encode_wire().expect("fits").to_vec(),
        },
        Row {
            name: "DCSR",
            magic: Some(BUNDLE_MAGIC),
            version: 2,
            decode: |b| judge(RouterDigest::decode_wire(b), wire_magic),
            valid: bundle,
        },
        Row {
            name: "DCSC",
            magic: Some(CHUNK_MAGIC),
            version: CHUNK_VERSION,
            decode: dcsc,
            valid: || chunk_bundle(1, 0, &bundle(), 512).swap_remove(0),
        },
        Row {
            name: "control",
            magic: Some(CONTROL_MAGIC),
            version: CONTROL_VERSION,
            decode: control,
            valid: || {
                ControlFrame::NackSeqs {
                    router_id: 1,
                    epoch_id: 0,
                    seqs: vec![2, 3],
                }
                .encode()
            },
        },
        Row {
            name: "DCSG",
            magic: Some(AGGREGATE_MAGIC),
            version: AGGREGATE_VERSION,
            decode: |b| judge(AggregateBundle::decode_wire(b), frame_magic),
            valid: || AggregateBundle::assemble(9, 0, 1, vec![(1, bundle())], vec![]).encode_wire(),
        },
        Row {
            name: "DCSK",
            magic: Some(CHECKPOINT_MAGIC),
            version: 1,
            decode: checkpoint,
            valid: || {
                let mut c = EpochCollector::new(0, [1, 2], CollectorConfig::default(), 1, 0);
                c.offer(&chunk_bundle(1, 0, &bundle(), 512)[0], 0);
                c.checkpoint()
            },
        },
        Row {
            name: "artifact section",
            magic: None,
            version: 0,
            decode: artifact_section,
            valid: || {
                let frame = bundle();
                let (view, _) = RouterDigestView::parse(&frame).expect("valid bundle");
                frame[frame.len() - view.artifact_bytes()..].to_vec()
            },
        },
    ]
}

/// Writes the row's magic and version over the front of `soup`; for the
/// artifact section, which has no magic, a count of one `DCSS` artifact.
fn stamp(row: &Row, soup: &mut [u8]) {
    let head: Vec<u8> = match row.magic {
        Some(magic) => magic.into_iter().chain([row.version]).collect(),
        None => [1, 0].into_iter().chain(*b"DCSS").collect(),
    };
    if let Some(front) = soup.get_mut(..head.len()) {
        front.copy_from_slice(&head);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Up to 64 KiB of arbitrary bytes, and its first `cut` bytes, into
    /// every decoder: a typed error or a frame inside the buffer, and a
    /// declared-but-absurd count never drives an allocation.
    #[test]
    fn every_decoder_survives_64k_soup(
        bytes in proptest::collection::vec(any::<u8>(), 0..(64 * 1024)),
        stamped in any::<bool>(),
        cut in 0usize..96,
    ) {
        for row in rows() {
            let mut soup = bytes.clone();
            if stamped {
                stamp(&row, &mut soup);
            }
            for soup in [&soup[..], &soup[..cut.min(soup.len())]] {
                if let Outcome::Frame(used) = (row.decode)(soup) {
                    prop_assert!(used <= soup.len(), "{}: used {used} of {}", row.name, soup.len());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Soup as one UDP datagram into a bound centre socket; whatever
    /// `poll` returns an `EpochCollector` answers.
    #[test]
    fn the_centre_socket_survives_soup(
        bytes in proptest::collection::vec(any::<u8>(), 0..65_507),
        row in any::<usize>(),
        stamped in any::<bool>(),
    ) {
        let mut soup = bytes;
        if stamped {
            let rows = rows();
            stamp(&rows[row % rows.len()], &mut soup);
        }
        let metrics = MetricsRegistry::new();
        let mut center = CenterSocket::bind("127.0.0.1:0", Transport::Udp).expect("bind");
        let addr = center.local_addr().expect("bound");
        UdpSocket::bind("127.0.0.1:0")
            .and_then(|udp| udp.send_to(&soup, addr))
            .expect("loopback takes one datagram");
        let mut collector = EpochCollector::new(0, [1], CollectorConfig::default(), 1, 0);
        let mut polled = 0;
        for _ in 0..50 {
            let frames = center.poll(&metrics);
            collector.answer(&frames, 0);
            polled += frames.len();
            if polled > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        prop_assert!(polled >= 1, "the datagram never arrived");
    }
}

/// A valid frame of each format, fed to every other decoder that has a
/// magic, is refused for its magic; its own decoder takes all of it.
#[test]
fn every_decoder_refuses_every_other_format_by_magic() {
    let rows = rows();
    for row in &rows {
        let frame = (row.valid)();
        assert_eq!(
            (row.decode)(&frame),
            Outcome::Frame(frame.len()),
            "{}",
            row.name
        );
        for other in rows
            .iter()
            .filter(|o| o.name != row.name && o.magic.is_some())
        {
            assert_eq!(
                (other.decode)(&frame),
                Outcome::BadMagic,
                "{} frame into the {} decoder",
                row.name,
                other.name
            );
        }
    }
}

/// Every `*_MAGIC: [u8; 4]` constant in the crates that own a wire
/// format names a FourCC no other constant uses, and the table has a row
/// for it.
#[test]
fn every_magic_has_one_row() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<_> = ["bitmap", "collect", "core"]
        .iter()
        .map(|c| root.join(c).join("src"))
        .collect();
    let mut magics: Vec<(String, [u8; 4])> = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source");
            for line in text.lines() {
                let Some((name, rest)) = line.split_once("_MAGIC: [u8; 4] = *b\"") else {
                    continue;
                };
                let fourcc = rest.as_bytes()[..4].try_into().expect("a 4-byte FourCC");
                let name = format!("{}_MAGIC", name.rsplit(' ').next().unwrap_or(name));
                magics.push((name, fourcc));
            }
        }
    }
    assert!(magics.len() >= 8, "scan found {magics:?}");
    let rows = rows();
    for (name, fourcc) in &magics {
        let text = String::from_utf8_lossy(fourcc);
        let sharing: Vec<_> = magics.iter().filter(|(_, f)| f == fourcc).collect();
        assert_eq!(sharing.len(), 1, "{text} is the magic of {sharing:?}");
        assert!(
            rows.iter().any(|r| r.magic == Some(*fourcc)),
            "{name} ({text}) has no byte-soup row"
        );
    }
}
