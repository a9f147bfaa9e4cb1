//! Integration tests of the unified observability layer: every stage of
//! both pipelines reports into the centre's metrics registry, stage
//! timer sums stay within the epoch total, and the deterministic
//! parts of a snapshot are identical from run to run.

use dcs::bitmap::{active_kernel, Kernel};
use dcs::core::stages::Stage;
use dcs::prelude::*;
use dcs_traffic::gen::{self, SizeMix};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUTERS: usize = 8;

/// One epoch of seeded digests, the first `infected` routers carrying an
/// aligned common content.
fn make_digests(seed: u64, infected: usize) -> Vec<RouterDigest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let monitor_cfg = MonitorConfig::small(5, 1 << 13, 4);
    let object = ContentObject::random_with_packets(&mut rng, 24, 536);
    let plant = Planting::aligned(object, 536);
    let bg = BackgroundConfig {
        packets: 500,
        flows: 120,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };
    (0..ROUTERS)
        .map(|router| {
            let mut traffic = gen::generate_epoch(&mut rng, &bg);
            if router < infected {
                plant.plant_into(&mut rng, &mut traffic);
            }
            let mut point = MonitoringPoint::new(router, &monitor_cfg);
            point.observe_all(&traffic);
            point.finish_epoch()
        })
        .collect()
}

fn center() -> AnalysisCenter {
    let mut cfg = AnalysisConfig::for_groups(ROUTERS * 4);
    cfg.search.n_prime = 300;
    cfg.search.hopefuls = 200;
    AnalysisCenter::new(cfg)
}

#[test]
fn every_stage_of_both_pipelines_records_nonzero() {
    let center = center();
    let report = center
        .analyze_epoch(&make_digests(31, 0))
        .expect("clean quorum");
    assert!(!report.aligned.found);
    let snap = center.metrics();
    for stage in Stage::ALIGNED.iter().chain(Stage::UNALIGNED.iter()) {
        let gauge = snap
            .gauge(&stage.gauge_key())
            .unwrap_or_else(|| panic!("stage {} missing from snapshot", stage.name()));
        assert!(gauge > 0, "stage {} recorded zero ns", stage.name());
        let runs = snap
            .counter(&dcs::obs::metric_key(
                "stage_runs_total",
                &[("pipeline", stage.pipeline()), ("stage", stage.name())],
            ))
            .unwrap_or(0);
        assert_eq!(runs, 1, "stage {} should have run once", stage.name());
    }
    assert_eq!(snap.counter("epochs_analyzed_total"), Some(1));
    assert_eq!(snap.counter("ingest_submitted_total"), Some(ROUTERS as u64));
    assert_eq!(snap.counter("ingest_accepted_total"), Some(ROUTERS as u64));
    assert!(snap.gauge("epoch_total_ns").unwrap_or(0) > 0);
}

#[test]
fn stage_timer_sums_stay_within_epoch_total() {
    let center = center();
    // Three epochs back to back: the stage gauges hold the most recent
    // epoch, not a sum over the batch, so their sum still fits inside
    // the last epoch's own total.
    for seed in [33, 40, 41] {
        center
            .analyze_epoch(&make_digests(seed, 6))
            .expect("quorum");
    }
    let snap = center.metrics();
    assert_eq!(snap.counter("epochs_analyzed_total"), Some(3));
    let total = snap.gauge("epoch_total_ns").expect("total gauge");
    let staged: u64 = Stage::ALIGNED
        .iter()
        .chain(Stage::UNALIGNED.iter())
        .map(|s| snap.gauge(&s.gauge_key()).unwrap_or(0))
        .sum();
    assert!(
        staged <= total,
        "per-stage sum {staged} ns exceeds epoch total {total} ns"
    );
    // The stages cover the bulk of the epoch: fuse through peel is the
    // whole analysis body, only validation and report assembly sit
    // outside them.
    assert!(staged > 0);
}

#[test]
fn real_epoch_snapshot_roundtrips_through_json() {
    let center = center();
    center.analyze_epoch(&make_digests(34, 4)).expect("quorum");
    let snap = center.metrics();
    let back = MetricsSnapshot::from_json(&snap.to_json_pretty()).expect("parse back");
    assert_eq!(back, snap);
}

/// The deterministic content of a snapshot.
#[derive(Debug, PartialEq)]
struct DeterministicView {
    counters: Vec<(String, u64)>,
    /// The product search's scanned / pruned split: one candidate queue
    /// makes both a function of the input.
    search_work: [Option<u64>; 2],
    gauge_keys: Vec<String>,
    hist_keys: Vec<String>,
}

/// Strips the wall-clock values from a snapshot, leaving only its
/// deterministic content: counters, the search-work gauges and the
/// sorted key sets of every family.
fn deterministic_view(snap: &MetricsSnapshot) -> DeterministicView {
    DeterministicView {
        counters: (snap.counters.iter())
            .map(|c| (c.key.clone(), c.value))
            .collect(),
        search_work: ["search_pairs_scanned", "search_pairs_pruned"].map(|k| snap.gauge(k)),
        gauge_keys: snap.gauges.iter().map(|g| g.key.clone()).collect(),
        hist_keys: snap.histograms.iter().map(|h| h.key.clone()).collect(),
    }
}

#[test]
fn deterministic_metrics_are_identical_across_runs() {
    let digests = make_digests(35, 6);
    let run = || {
        let center = center();
        let report = center.analyze_epoch(&digests).expect("quorum");
        (report, center.metrics())
    };
    let (seq_report, seq_snap) = run();
    let seq_view = deterministic_view(&seq_snap);
    assert!(seq_view.search_work.iter().all(Option::is_some));
    // A popcount keeps no call tally: the only kernel metric is which
    // one is live, one `kernel_active` gauge per `Kernel` variant.
    let variants = [Kernel::Scalar, Kernel::Avx2];
    let key = |k: Kernel| {
        // Irrefutable only while it names every variant: a new one stops
        // this compiling until it joins `variants`.
        let (Kernel::Scalar | Kernel::Avx2) = k;
        dcs::obs::metric_key("kernel_active", &[("kernel", k.name())])
    };
    let mut kernel_keys: Vec<String> = (seq_view.gauge_keys.iter())
        .filter(|k| k.starts_with("kernel_"))
        .cloned()
        .collect();
    kernel_keys.sort();
    let mut want = variants.map(key).to_vec();
    want.sort();
    assert_eq!(kernel_keys, want);
    let live: Vec<Kernel> = (variants.into_iter())
        .filter(|&k| seq_snap.gauge(&key(k)) == Some(1))
        .collect();
    assert_eq!(
        live,
        [active_kernel()],
        "exactly the dispatched kernel reads 1"
    );
    // A second fresh centre on the same digests detects the same…
    let (report, snap) = run();
    assert_eq!(report.aligned.found, seq_report.aligned.found);
    assert_eq!(report.aligned.routers, seq_report.aligned.routers);
    assert_eq!(
        report.aligned.signature_indices,
        seq_report.aligned.signature_indices
    );
    assert_eq!(report.unaligned.alarm, seq_report.unaligned.alarm);
    assert_eq!(
        report.unaligned.suspected_routers,
        seq_report.unaligned.suspected_routers
    );
    // …and reports every deterministic metric the same: same counters
    // with the same values, same search-work gauges, same instrument key
    // sets. (Wall-clock gauges legitimately vary.)
    assert_eq!(
        deterministic_view(&snap),
        seq_view,
        "deterministic metrics diverged"
    );
}

#[test]
fn excluded_bundles_feed_fault_labeled_counters() {
    let mut digests = make_digests(36, 0);
    digests[1].epoch_id = 99;
    digests[3].unaligned.arrays.clear();
    let center = center();
    let report = center.analyze_epoch(&digests).expect("quorum of 6");
    assert_eq!(report.ingest.excluded.len(), 2);
    let snap = center.metrics();
    assert_eq!(
        snap.counter("ingest_excluded_total{fault=epoch_desync}"),
        Some(1)
    );
    assert_eq!(
        snap.counter("ingest_excluded_total{fault=empty_unaligned}"),
        Some(1)
    );
    assert_eq!(snap.counter("ingest_accepted_total"), Some(6));
}

/// `family` is the documented `name`, or `name` holds one `*`
/// (`transport_*_total`) and `family` matches it by prefix and suffix.
fn names_family(name: &str, family: &str) -> bool {
    match name.split_once('*') {
        Some((prefix, suffix)) => {
            !prefix.is_empty()
                && family.len() >= prefix.len() + suffix.len()
                && family.starts_with(prefix)
                && family.ends_with(suffix)
        }
        None => name == family,
    }
}

/// The centre's and the monitor's socket registries after one loopback
/// UDP epoch: one router's bundle through a soak-impaired monitor socket.
fn socket_epoch_snapshots(frame: &[u8]) -> [MetricsSnapshot; 2] {
    let chunks = chunk_bundle(0, 0, frame, DATAGRAM_SAFE_PAYLOAD);
    let clock = TickClock::new(std::time::Duration::from_micros(500));
    let mut center = CenterSocket::bind("127.0.0.1:0", Transport::Udp).expect("bind centre");
    let addr = center.local_addr().expect("centre address");
    let center_metrics = MetricsRegistry::new();
    let monitor_metrics = MetricsRegistry::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut collector =
                EpochCollector::new(0, [0], CollectorConfig::default(), 1, clock.now());
            let end =
                run_center_epoch(&mut center, &mut collector, &clock, &center_metrics, |_| {
                    false
                });
            assert!(matches!(end, CenterEpochEnd::Collected(_)));
        });
        let mut sock = MonitorSocket::connect(addr, Transport::Udp).expect("connect");
        sock.set_shim(ImpairmentShim::new(ImpairmentConfig::soak(), 3));
        let cfg = MonitorEpochConfig {
            router_id: 0,
            epoch_id: 0,
            resend_after: 32,
            max_backoff: 256,
            give_up: 4_000,
        };
        let end = run_monitor_epoch(&mut sock, &chunks, &cfg, &clock, &monitor_metrics);
        assert_eq!(end, MonitorEpochEnd::Delivered);
    });
    [center_metrics.snapshot(), monitor_metrics.snapshot()]
}

/// The metric catalogue both ways. Every metric family the centre emits
/// — through either door — every family an aggregator emits, and every
/// family both ends of a socket epoch emit, is named in backticks
/// somewhere in DESIGN.md; and every family a row of DESIGN §8's metric
/// table names is emitted by one of those registries.
#[test]
fn every_emitted_metric_family_is_documented() {
    let epoch = CollectedEpoch::from_digests(&make_digests(38, 6));
    let center = center();
    // One undecodable frame beside the good ones, so the exclusion
    // family is emitted too.
    let frames = epoch.frames.iter().map(|(_, frame)| frame.clone());
    center
        .analyze_epoch_collected(&CollectedEpoch::from_frames(frames.chain([vec![0xAB; 40]])))
        .expect("quorum");
    // One real aggregator over the same frames, finalizing into its own
    // registry, feeds the aggregated door.
    let children = 0..ROUTERS as u64;
    let mut aggregator = Aggregator::new(0, 1, 0, children, CollectorConfig::default(), 1, 0);
    for (index, frame) in &epoch.frames {
        for chunk in chunk_bundle(*index as u64, 0, frame, DATAGRAM_SAFE_PAYLOAD) {
            aggregator.offer(&chunk, 0);
        }
    }
    let aggregator_metrics = MetricsRegistry::new();
    let bundle = aggregator.finalize(0, &aggregator_metrics);
    assert_eq!(bundle.frames.len(), ROUTERS, "every child delivered");
    center
        .analyze_epoch_aggregated_collected(&CollectedEpoch::from_frames(
            vec![bundle.encode_wire()],
        ))
        .expect("quorum");

    let design = include_str!("../DESIGN.md");
    let family = |code: &'static str| code.split('{').next().unwrap_or(code);
    let documented: Vec<&str> = design.split('`').skip(1).step_by(2).map(family).collect();
    let [socket_center, socket_monitor] = socket_epoch_snapshots(&epoch.frames[0].1);
    let snaps = [
        center.metrics(),
        aggregator_metrics.snapshot(),
        socket_center,
        socket_monitor,
    ];
    let keys = snaps.iter().flat_map(|snap| {
        (snap.counters.iter().map(|c| &c.key))
            .chain(snap.gauges.iter().map(|g| &g.key))
            .chain(snap.histograms.iter().map(|h| &h.key))
    });
    let mut emitted: Vec<&str> = keys
        .map(|key| key.split('{').next().unwrap_or(key))
        .collect();
    emitted.sort_unstable();
    emitted.dedup();
    let undocumented: Vec<&str> = (emitted.iter().copied())
        .filter(|f| !documented.iter().any(|doc| names_family(doc, f)))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metric families emitted but not named in DESIGN.md: {undocumented:?}"
    );

    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("8. "))
        .expect("DESIGN.md has a §8");
    let table: Vec<&str> = (section.lines())
        .filter_map(|line| line.strip_prefix("| ").filter(|row| row.starts_with('`')))
        .flat_map(|row| {
            let metric = row.split('|').next().unwrap_or(row);
            metric.split('`').skip(1).step_by(2).map(family)
        })
        .collect();
    assert!(table.len() > 10, "§8's metric table not found: {table:?}");
    let unemitted: Vec<&str> = (table.iter().copied())
        .filter(|name| !emitted.iter().any(|f| names_family(name, f)))
        .collect();
    assert!(
        unemitted.is_empty(),
        "DESIGN §8 documents metric families nothing emits: {unemitted:?}"
    );
}

/// The section number `N` or `N.M` at the start of `text`, if any.
fn section_number(text: &str) -> Option<&str> {
    let digits = |s: &str| s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let mut len = digits(text);
    if len > 0 && text[len..].starts_with('.') {
        let sub = digits(&text[len + 1..]);
        if sub > 0 {
            len += 1 + sub;
        }
    }
    (len > 0).then(|| &text[..len])
}

/// The sections of every `DESIGN §N[.M]` / `DESIGN.md §N[.M]` in `text`.
/// Whitespace and comment markers may sit before the `§`, so a reference
/// wrapped across comment lines still counts.
fn design_refs(text: &str) -> Vec<&str> {
    (text.match_indices("DESIGN"))
        .filter_map(|(at, _)| {
            let rest = &text[at + "DESIGN".len()..];
            let rest = rest.strip_prefix(".md").unwrap_or(rest);
            let rest = rest.trim_start_matches(|c: char| c.is_whitespace() || "/!#".contains(c));
            section_number(rest.strip_prefix('§')?)
        })
        .collect()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every `DESIGN §N[.M]` / `DESIGN.md §N[.M]` in the code, the README,
/// the verify skill and the CI workflow — and every `§N[.M]` DESIGN.md
/// makes to itself — names one of its headings; every relative Markdown
/// link in README.md and DESIGN.md names a file in the repository.
#[test]
fn doc_cross_references_resolve() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = include_str!("../DESIGN.md");
    let readme = include_str!("../README.md");
    let headings: Vec<&str> = (design.lines())
        .filter_map(|line| line.strip_prefix("## ").or(line.strip_prefix("### ")))
        .filter_map(|heading| heading.split(' ').next())
        .map(|number| number.trim_end_matches('.'))
        .collect();

    let mut files = vec![
        root.join("README.md"),
        root.join(".claude/skills/verify/SKILL.md"),
        root.join(".github/workflows/ci.yml"),
    ];
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    // DESIGN.md cites the paper's sections in roman numerals, so every
    // `§` and a digit in it is a reference to itself.
    let mut refs: Vec<(String, String)> = (design.split('§').skip(1))
        .filter_map(section_number)
        .map(|section| ("DESIGN.md".to_string(), section.to_string()))
        .collect();
    for path in &files {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let name = path
            .strip_prefix(root)
            .unwrap_or(path)
            .display()
            .to_string();
        for section in design_refs(&text) {
            refs.push((name.clone(), section.to_string()));
        }
    }
    assert!(
        refs.iter().filter(|(file, _)| file != "DESIGN.md").count() > 5,
        "cross-references not found: {refs:?}"
    );
    let dangling: Vec<_> = (refs.iter())
        .filter(|(_, section)| !headings.contains(&section.as_str()))
        .collect();
    assert!(
        dangling.is_empty(),
        "references to sections DESIGN.md does not have (headings {headings:?}): {dangling:?}"
    );

    let mut missing = Vec::new();
    for (name, text) in [("README.md", readme), ("DESIGN.md", design)] {
        for (at, _) in text.match_indices("](") {
            let target = &text[at + 2..];
            let target = &target[..target.find(')').unwrap_or(target.len())];
            let file = target.split('#').next().unwrap_or(target);
            if file.is_empty() || file.contains("://") || file.starts_with("mailto:") {
                continue;
            }
            if !root.join(file).exists() {
                missing.push(format!("{name}: {target}"));
            }
        }
    }
    assert!(missing.is_empty(), "links to missing files: {missing:?}");
}
