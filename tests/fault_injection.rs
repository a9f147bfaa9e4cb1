//! Fault-injection matrix: every [`FaultKind`] against the analysis
//! centre's wire ingest path, proving graceful degradation — the epoch
//! still analyses on the surviving quorum, the planted content is still
//! detected with ≤ 25% of routers faulted, and every exclusion is
//! accounted for. No fault may panic the centre, and no hostile digest
//! file may panic `dcs-cli analyze`. The `cli_` tests run `dcs-cli` as a
//! process.

use dcs_core::{
    AggregateBundle, AnalysisCenter, ChildExclusion, CollectedEpoch, EpochReport, IngestError,
    MonitorConfig, MonitoringPoint, RouterFault,
};
use dcs_sim::faults::{ship_with_faults, FaultKind, FaultPlan, ALL_FAULTS};
use dcs_sim::soak::SoakConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUTERS: usize = 24;
const INFECTED: usize = 20;
/// 6 of 24 = 25% of the deployment faulted.
const VICTIMS: [usize; 6] = [0, 5, 10, 15, 20, 23];

/// The soak's standard regime — `ROUTERS` routers, the first `INFECTED`
/// carrying a common aligned content object on top of distinct
/// background traffic — analysed with the default one-digest quorum.
fn regime() -> SoakConfig {
    SoakConfig {
        min_quorum: 1,
        ..SoakConfig::standard(1, 0)
    }
}

/// Analyses an epoch of bare frames — leaf bundles, or aggregate bundles
/// when `aggregated` — on a fresh centre.
fn analyze(frames: &[Vec<u8>], aggregated: bool) -> Result<EpochReport, IngestError> {
    let epoch = CollectedEpoch::from_frames(frames.iter().cloned());
    let center = AnalysisCenter::new(regime().analysis_config());
    if aggregated {
        center.analyze_epoch_aggregated_collected(&epoch)
    } else {
        center.analyze_epoch_collected(&epoch)
    }
}

/// Runs one matrix entry and applies the invariants every fault kind must
/// satisfy: the epoch analyses, accounting balances, and the content is
/// still found on the quorum.
fn run_entry(seed: u64, kind: FaultKind) -> EpochReport {
    let digests = regime().leaf_digests(seed);
    let plan = FaultPlan::uniform(&VICTIMS, kind);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA01);
    let frames = ship_with_faults(&mut rng, &digests, &plan);
    let report = analyze(&frames, false)
        .unwrap_or_else(|e| panic!("{kind:?}: quorum of 18+ must analyse, got {e}"));
    assert_eq!(report.ingest.submitted, frames.len(), "{kind:?}");
    assert_eq!(
        report.ingest.accepted.len() + report.ingest.excluded.len(),
        report.ingest.submitted,
        "{kind:?}: accounting must balance"
    );
    assert_eq!(report.routers, report.ingest.accepted.len(), "{kind:?}");
    assert!(
        report.aligned.found,
        "{kind:?}: content lost with only 25% of routers faulted"
    );
    // At least 12 of the 16 surviving infected routers must be named
    // (victims 0, 5, 10, 15 are infected; 20 and 23 are clean).
    let hits = report
        .aligned
        .routers
        .iter()
        .filter(|&&r| r < INFECTED && !VICTIMS.contains(&r))
        .count();
    assert!(
        hits >= 12,
        "{kind:?}: only {hits}/16 surviving infected hit"
    );
    report
}

#[test]
fn fault_matrix_drop() {
    let report = run_entry(21, FaultKind::Drop);
    // Dropped frames never arrive: a smaller, clean batch.
    assert_eq!(report.ingest.submitted, ROUTERS - VICTIMS.len());
    assert!(report.ingest.excluded.is_empty());
}

#[test]
fn fault_matrix_truncate() {
    let report = run_entry(22, FaultKind::Truncate);
    assert_eq!(report.ingest.excluded.len(), VICTIMS.len());
    for e in &report.ingest.excluded {
        assert!(VICTIMS.contains(&e.index));
        assert_eq!(e.router_id, None, "undecodable frames have no id");
        assert!(matches!(e.fault, RouterFault::Wire(_)));
    }
}

#[test]
fn fault_matrix_bit_flip() {
    // A flipped bit may land in a bitmap payload (frame still decodes,
    // noise only) or in framing metadata (frame excluded); both are
    // acceptable — the invariants of `run_entry` are what matter. Sweep
    // several seeds so both regimes are exercised.
    for seed in [23, 123, 223, 323] {
        let report = run_entry(seed, FaultKind::BitFlip);
        for e in &report.ingest.excluded {
            assert!(VICTIMS.contains(&e.index), "only victims may be excluded");
        }
    }
}

#[test]
fn fault_matrix_duplicate() {
    let report = run_entry(24, FaultKind::Duplicate);
    assert_eq!(report.ingest.submitted, ROUTERS + VICTIMS.len());
    assert_eq!(report.ingest.accepted.len(), ROUTERS);
    assert_eq!(report.ingest.excluded.len(), VICTIMS.len());
    for e in &report.ingest.excluded {
        assert!(matches!(e.fault, RouterFault::DuplicateRouter { .. }));
    }
}

#[test]
fn fault_matrix_desync() {
    let report = run_entry(25, FaultKind::Desync);
    assert_eq!(report.ingest.excluded.len(), VICTIMS.len());
    for e in &report.ingest.excluded {
        assert!(matches!(
            e.fault,
            RouterFault::EpochDesync { expected: 0, .. }
        ));
    }
}

#[test]
fn fault_matrix_mixed_random_plan() {
    let digests = regime().leaf_digests(26);
    let mut rng = StdRng::seed_from_u64(26 ^ 0xFA01);
    let plan = FaultPlan::random(&mut rng, ROUTERS, 6);
    let frames = ship_with_faults(&mut rng, &digests, &plan);
    let report =
        analyze(&frames, false).expect("mixed faults on 25% of routers must still analyse");
    assert!(report.aligned.found);
    assert!(report.ingest.accepted.len() >= ROUTERS - 6);
}

#[test]
fn all_routers_truncated_is_a_typed_quorum_failure() {
    let digests = regime().leaf_digests(27);
    let victims: Vec<usize> = (0..ROUTERS).collect();
    let plan = FaultPlan::uniform(&victims, FaultKind::Truncate);
    let mut rng = StdRng::seed_from_u64(27);
    let frames = ship_with_faults(&mut rng, &digests, &plan);
    let err = analyze(&frames, false).unwrap_err();
    match err {
        IngestError::QuorumTooSmall { required, report } => {
            assert_eq!(required, 1);
            assert!(report.accepted.is_empty());
            assert_eq!(report.excluded.len(), ROUTERS);
        }
        other => panic!("expected QuorumTooSmall, got {other:?}"),
    }
}

/// Excluded frames leave zero trace in the fused matrices: a faulted
/// batch yields bit-for-bit the verdicts of shipping only its surviving
/// frames. Corrupt frames mid-stream cannot poison neighbouring rows.
#[test]
fn corrupt_frames_leave_no_trace_in_fusion() {
    for kind in [FaultKind::Truncate, FaultKind::BitFlip, FaultKind::Desync] {
        let digests = regime().leaf_digests(41);
        let plan = FaultPlan::uniform(&VICTIMS, kind);
        let mut rng = StdRng::seed_from_u64(41 ^ 0xFA01);
        let frames = ship_with_faults(&mut rng, &digests, &plan);
        let full = analyze(&frames, false).expect("quorum survives 25% faults");
        let excluded: std::collections::HashSet<usize> =
            full.ingest.excluded.iter().map(|e| e.index).collect();
        let survivors: Vec<Vec<u8>> = frames
            .iter()
            .enumerate()
            .filter(|(i, _)| !excluded.contains(i))
            .map(|(_, f)| f.clone())
            .collect();
        let clean = analyze(&survivors, false).expect("survivors are a quorum");
        assert_eq!(full.routers, clean.routers, "{kind:?}");
        assert_eq!(full.aligned.found, clean.aligned.found, "{kind:?}");
        assert_eq!(full.aligned.routers, clean.aligned.routers, "{kind:?}");
        assert_eq!(
            full.aligned.signature_indices, clean.aligned.signature_indices,
            "{kind:?}"
        );
        assert_eq!(full.unaligned.alarm, clean.unaligned.alarm, "{kind:?}");
        assert_eq!(
            full.unaligned.suspected_routers, clean.unaligned.suspected_routers,
            "{kind:?}"
        );
    }
}

/// A partially faulted aggregator — half its region's leaves never
/// reported before its deadline — must surface at the centre as typed
/// exclusions for *exactly its subtree*, and detection must match flat
/// ingest of the frames that did make it through.
#[test]
fn faulted_aggregator_children_surface_as_its_subtree_exclusions() {
    let frames: Vec<(u64, Vec<u8>)> = (0..).zip(regime().leaf_frames(77)).collect();

    // Three regions of 8 leaves behind aggregators 1000..1003.
    // Aggregator 1001 (leaves 8..16) loses leaves 12..16 to timeouts.
    let lost: Vec<u64> = (12..16).collect();
    let mut bundles = Vec::new();
    for (a, region) in [(1000u64, 0..8usize), (1001, 8..16), (1002, 16..24)] {
        let children: Vec<(u64, Vec<u8>)> = frames[region]
            .iter()
            .filter(|(id, _)| a != 1001 || !lost.contains(id))
            .cloned()
            .collect();
        let exclusions = if a == 1001 {
            lost.iter()
                .map(|&id| ChildExclusion {
                    router_id: id,
                    fault: RouterFault::TimedOut {
                        received: 0,
                        total: 0,
                    },
                })
                .collect()
        } else {
            Vec::new()
        };
        let bundle = AggregateBundle::assemble(a, 9, 1, children, exclusions);
        bundles.push(bundle.encode_wire());
    }

    let report = analyze(&bundles, true).expect("20 of 24 leaves is a quorum");
    assert_eq!(report.ingest.submitted, ROUTERS);
    assert_eq!(report.ingest.accepted.len(), ROUTERS - lost.len());
    let excluded: Vec<u64> = report
        .ingest
        .excluded
        .iter()
        .map(|e| e.router_id.expect("aggregator knew the leaf's id") as u64)
        .collect();
    assert_eq!(excluded, lost, "exclusions must be exactly the subtree");
    for e in &report.ingest.excluded {
        assert_eq!(e.fault.level(), 1, "fault must carry its tier");
        match &e.fault {
            RouterFault::AtLevel {
                aggregator_id,
                fault,
                ..
            } => {
                assert_eq!(*aggregator_id, Some(1001));
                assert_eq!(fault.kind(), "timed_out");
            }
            other => panic!("expected AtLevel, got {other:?}"),
        }
    }

    // Detection equivalence with flat ingest of the delivered frames.
    let delivered: Vec<Vec<u8>> = frames
        .iter()
        .filter(|(id, _)| !lost.contains(id))
        .map(|(_, f)| f.clone())
        .collect();
    let flat = analyze(&delivered, false).expect("same quorum flat");
    assert_eq!(report.aligned.found, flat.aligned.found);
    assert_eq!(report.aligned.routers, flat.aligned.routers);
    assert_eq!(
        report.aligned.signature_indices,
        flat.aligned.signature_indices
    );
    assert_eq!(report.unaligned.alarm, flat.unaligned.alarm);
    assert_eq!(
        report.unaligned.suspected_routers,
        flat.unaligned.suspected_routers
    );
}

/// Every aggregator faulted — all bundles undecodable, or none at all —
/// must be a typed quorum error, never a panic, with every rejected
/// bundle accounted as a level-1 exclusion.
#[test]
fn all_aggregators_faulted_is_quorum_too_small_never_panic() {
    let garbage: Vec<Vec<u8>> = (0..3)
        .map(|i| vec![0xA5u8 ^ i as u8; 80 + i * 13])
        .collect();
    match analyze(&garbage, true) {
        Err(IngestError::QuorumTooSmall { report, .. }) => {
            assert_eq!(report.accepted.len(), 0);
            assert_eq!(report.submitted, garbage.len());
            assert_eq!(report.excluded.len(), garbage.len());
            for e in &report.excluded {
                assert_eq!(e.router_id, None, "undecodable bundles have no id");
                assert_eq!(e.fault.level(), 1);
                match &e.fault {
                    RouterFault::AtLevel {
                        aggregator_id,
                        fault,
                        ..
                    } => {
                        assert_eq!(*aggregator_id, None);
                        assert_eq!(fault.kind(), "wire");
                    }
                    other => panic!("expected AtLevel, got {other:?}"),
                }
            }
        }
        other => panic!("expected typed quorum error, got {other:?}"),
    }

    // Zero bundles is the same typed failure, not a panic.
    match analyze(&[], true) {
        Err(IngestError::NoDigests) => {}
        Err(IngestError::QuorumTooSmall { report, .. }) => {
            assert_eq!(report.accepted.len(), 0)
        }
        Ok(_) => panic!("empty bundle set must not analyse"),
    }
}

/// A DCSR file with zero arrays per group is a typed `dcs-cli analyze`
/// error naming the file, not a panic: the CLI sizes the centre from the
/// group count, which divides by that field, and the frame parser
/// refuses it first.
#[test]
fn cli_analyze_rejects_zero_arrays_per_group() {
    let mut point = MonitoringPoint::new(0, &MonitorConfig::small(1, 1 << 12, 4));
    let mut digest = point.finish_epoch();
    digest.unaligned.arrays_per_group = 0;
    let path = std::env::temp_dir().join(format!("dcs-apg0-{}.dcsr", std::process::id()));
    std::fs::write(&path, digest.encode_wire().expect("the encoder writes it")).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dcs-cli"))
        .arg("analyze")
        .arg(&path)
        .output()
        .expect("run dcs-cli analyze");
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&*path.to_string_lossy()), "{stderr}");
    assert!(stderr.contains("arrays_per_group = 0"), "{stderr}");
}

/// `dcs-cli demo` runs the staged flow end to end — traces, `collect` to
/// DCSR files, `analyze` — and finds the content it planted.
#[test]
fn cli_demo_finds_the_planted_content() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dcs-cli"))
        .arg("demo")
        .output()
        .expect("run dcs-cli demo");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("\"found\": true"), "{stdout}");
}

/// `dcs-cli` reads no config file: `serve` and `monitor` refuse the
/// flags that loaded or printed one (and `monitor --seed`, now the router
/// id) before they bind a socket, and `config` is no subcommand.
#[test]
fn cli_refuses_the_removed_config_flags() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};
    // A `serve` past its flags would fail to bind this address, and a
    // `monitor` past its flags would send its chunks to it.
    let held = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = held.local_addr().unwrap().to_string();
    for (role, address_flag, removed) in [
        ("serve", "--bind", ["--config", "x"].as_slice()),
        ("serve", "--bind", &["--print-config"]),
        ("monitor", "--center", &["--seed", "3"]),
        ("monitor", "--center", &["--config", "x"]),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dcs-cli"))
            .args([role, address_flag, &addr, "--epochs", "1"])
            .args(removed)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run dcs-cli");
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait().unwrap().is_none() {
            if Instant::now() > deadline {
                child.kill().unwrap();
                panic!("{role} {removed:?} was accepted");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{role} {removed:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{role}: unrecognised arguments")),
            "{role} {removed:?}: {stderr}"
        );
    }
    held.set_nonblocking(true).unwrap();
    assert!(held.recv(&mut [0; 64]).is_err(), "a monitor sent a frame");

    let out = Command::new(env!("CARGO_BIN_EXE_dcs-cli"))
        .arg("config")
        .output()
        .expect("run dcs-cli config");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage: dcs-cli"), "{stderr}");
}

/// Every role runs the deployment's one digest shape and centre:
/// `collect`, `analyze` and `gen-trace` refuse the flags that set them
/// (or that nothing passed) with exit code 1, before they read or write
/// a file.
#[test]
fn cli_file_roles_refuse_the_removed_flags() {
    let path = std::env::temp_dir().join(format!("dcs-removed-{}", std::process::id()));
    for (role, removed) in [
        ("collect", ["--seed", "7"]),
        ("collect", ["--bits", "16384"]),
        ("collect", ["--groups", "4"]),
        ("analyze", ["--threshold", "5"]),
        ("gen-trace", ["--flows", "100"]),
        ("gen-trace", ["--zipf", "1.0"]),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dcs-cli"))
            .arg(role)
            .arg(&path)
            .args(removed)
            .output()
            .expect("run dcs-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{role} {removed:?}: {stderr}");
        let want = format!("{role}: unrecognised arguments [\"{}\"]", removed[0]);
        assert!(stderr.contains(&want), "{role} {removed:?}: {stderr}");
        assert!(!path.exists(), "{role} {removed:?} wrote {path:?}");
    }
}

#[test]
fn every_fault_kind_is_covered_by_the_matrix() {
    // Keep this test in sync with the matrix above: if a kind is added to
    // ALL_FAULTS without a matrix entry, fail loudly.
    assert_eq!(ALL_FAULTS.len(), 5);
}
