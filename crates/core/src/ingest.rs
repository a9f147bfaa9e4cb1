//! Validation of shipped digest bundles before fusion — the ingest layer.
//!
//! The paper assumes the analysis centre receives one clean digest per
//! monitored link per epoch. A production centre does not: frames arrive
//! truncated or bit-flipped off the measurement plane, routers double-ship
//! after a retransmit, a rebooted router lags an epoch behind, and a
//! misconfigured one ships digests of the wrong shape. This module turns
//! that mess into
//!
//! * the largest internally consistent subset of digests — the **quorum**
//!   both detection pipelines then run on — and
//! * a typed, per-bundle account of everything excluded and why
//!   ([`IngestReport`]), surfaced in every
//!   [`EpochReport`](crate::report::EpochReport) so degraded epochs are
//!   visible rather than silent.
//!
//! The epoch's reference shape (aligned bitmap width, arrays per group,
//! unaligned array width, epoch id) is chosen by **majority vote** among
//! the internally coherent bundles, so a single corrupt digest at the
//! front of the batch cannot poison the epoch. Only when fewer than the
//! configured quorum of bundles survive does ingest fail as a whole, with
//! a typed [`IngestError`] instead of a panic.

use crate::monitor::RouterDigestView;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Why one submitted digest bundle was excluded from an epoch's fusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterFault {
    /// The wire frame failed to decode (rendered
    /// [`WireError`](dcs_collect::WireError)).
    Wire(String),
    /// A bundle for the same router id was already accepted this epoch.
    DuplicateRouter {
        /// Batch index of the bundle that was accepted first.
        first_index: usize,
    },
    /// The unaligned digest ships no arrays at all.
    EmptyUnaligned,
    /// `arrays_per_group` is zero or does not divide the array count.
    /// The wire parser rejects such a frame, so the centre reports it as
    /// [`RouterFault::Wire`]; the variant stays for aggregate bundles in
    /// flight that carry it.
    GroupLayout {
        /// Arrays shipped.
        arrays: usize,
        /// Claimed arrays per group.
        arrays_per_group: usize,
    },
    /// The aligned bitmap width disagrees with the epoch consensus.
    AlignedWidth {
        /// Consensus width in bits.
        expected: usize,
        /// This bundle's width.
        got: usize,
    },
    /// `arrays_per_group` disagrees with the epoch consensus.
    ArraysPerGroup {
        /// Consensus arrays per group.
        expected: usize,
        /// This bundle's value.
        got: usize,
    },
    /// An unaligned array width disagrees — internally (mixed widths in
    /// one digest) or with the epoch consensus.
    ArrayWidth {
        /// Expected width in bits.
        expected: usize,
        /// Offending width.
        got: usize,
    },
    /// The bundle's epoch id disagrees with the epoch consensus.
    EpochDesync {
        /// Consensus epoch id.
        expected: u64,
        /// This bundle's epoch id.
        got: u64,
    },
    /// The router's session was still incomplete when the epoch deadline
    /// expired (transport layer).
    TimedOut {
        /// Chunks received before the deadline.
        received: usize,
        /// Declared total chunks (0 when no chunk ever arrived, so the
        /// total was never learned).
        total: usize,
    },
    /// A chunk of the router's bundle repeatedly failed its CRC-32
    /// trailer and the retransmit budget ran out (transport layer).
    ChecksumMismatch {
        /// Lowest still-missing chunk that failed its checksum.
        seq: u32,
    },
    /// The session was finalized before the deadline with chunks still
    /// missing — e.g. the channel closed or retransmits were exhausted
    /// (transport layer).
    Incomplete {
        /// Chunks received.
        received: usize,
        /// Declared total chunks (0 when never learned).
        total: usize,
    },
    /// The fault was recorded below the centre, at an aggregation tier
    /// (see [`crate::aggregate`]): a child router excluded while its
    /// regional aggregator assembled the epoch's bundle, or a whole
    /// aggregator lost on the way up. Wraps the underlying fault so
    /// cross-level accounting keeps the original reason.
    AtLevel {
        /// Aggregation tier the fault was recorded at (the centre is
        /// level 0, the first aggregation tier above the leaves 1).
        level: u8,
        /// The aggregator that recorded (or *was*) the fault, when
        /// known — an aggregate bundle that failed to decode at the
        /// centre has none.
        aggregator_id: Option<u64>,
        /// The underlying fault.
        fault: Box<RouterFault>,
    },
}

impl RouterFault {
    /// Stable lowercase tag of the fault variant — the wire-format "kind"
    /// discriminant, also used as the `fault` label of the
    /// `ingest_excluded_total` metric family. [`RouterFault::AtLevel`]
    /// delegates to the wrapped fault (its own serde tag is `at_level`),
    /// so a child timing out at an aggregator counts under the same
    /// `timed_out` label as one timing out at the centre.
    pub fn kind(&self) -> &'static str {
        match self {
            RouterFault::Wire(_) => "wire",
            RouterFault::DuplicateRouter { .. } => "duplicate_router",
            RouterFault::EmptyUnaligned => "empty_unaligned",
            RouterFault::GroupLayout { .. } => "group_layout",
            RouterFault::AlignedWidth { .. } => "aligned_width",
            RouterFault::ArraysPerGroup { .. } => "arrays_per_group",
            RouterFault::ArrayWidth { .. } => "array_width",
            RouterFault::EpochDesync { .. } => "epoch_desync",
            RouterFault::TimedOut { .. } => "timed_out",
            RouterFault::ChecksumMismatch { .. } => "checksum_mismatch",
            RouterFault::Incomplete { .. } => "incomplete",
            RouterFault::AtLevel { fault, .. } => fault.kind(),
        }
    }

    /// The aggregation tier the fault was recorded at: the wrapped level
    /// for [`RouterFault::AtLevel`], 0 (the centre) for everything else.
    pub fn level(&self) -> u8 {
        match self {
            RouterFault::AtLevel { level, .. } => *level,
            _ => 0,
        }
    }
}

impl fmt::Display for RouterFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterFault::Wire(e) => write!(f, "wire frame rejected: {e}"),
            RouterFault::DuplicateRouter { first_index } => {
                write!(f, "duplicate router id (first seen at index {first_index})")
            }
            RouterFault::EmptyUnaligned => write!(f, "unaligned digest ships no arrays"),
            RouterFault::GroupLayout {
                arrays,
                arrays_per_group,
            } => write!(
                f,
                "{arrays} arrays do not form whole groups of {arrays_per_group}"
            ),
            RouterFault::AlignedWidth { expected, got } => {
                write!(f, "aligned bitmap width {got}, epoch consensus {expected}")
            }
            RouterFault::ArraysPerGroup { expected, got } => {
                write!(f, "arrays per group {got}, epoch consensus {expected}")
            }
            RouterFault::ArrayWidth { expected, got } => {
                write!(f, "array width {got}, expected {expected}")
            }
            RouterFault::EpochDesync { expected, got } => {
                write!(f, "epoch id {got}, epoch consensus {expected}")
            }
            RouterFault::TimedOut { received, total } => {
                write!(
                    f,
                    "deadline expired with {received}/{total} chunks received"
                )
            }
            RouterFault::ChecksumMismatch { seq } => {
                write!(
                    f,
                    "chunk {seq} failed its checksum past the retransmit budget"
                )
            }
            RouterFault::Incomplete { received, total } => {
                write!(
                    f,
                    "session finalized with {received}/{total} chunks received"
                )
            }
            RouterFault::AtLevel {
                level,
                aggregator_id,
                fault,
            } => {
                write!(f, "at level {level}")?;
                if let Some(agg) = aggregator_id {
                    write!(f, " (aggregator {agg})")?;
                }
                write!(f, ": {fault}")
            }
        }
    }
}

// The vendored serde derive handles named-field structs and unit enums
// only, so the data-carrying fault enums serialize by hand as tagged
// objects: {"kind": <variant>, ...fields}.
impl serde::Serialize for RouterFault {
    fn to_value(&self) -> serde::Value {
        let tag = |kind: &str| ("kind".to_string(), serde::Value::Str(kind.to_string()));
        let uint = |name: &str, v: usize| (name.to_string(), serde::Value::UInt(v as u64));
        serde::Value::Object(match self {
            RouterFault::Wire(e) => vec![
                tag("wire"),
                ("error".to_string(), serde::Value::Str(e.clone())),
            ],
            RouterFault::DuplicateRouter { first_index } => {
                vec![tag("duplicate_router"), uint("first_index", *first_index)]
            }
            RouterFault::EmptyUnaligned => vec![tag("empty_unaligned")],
            RouterFault::GroupLayout {
                arrays,
                arrays_per_group,
            } => vec![
                tag("group_layout"),
                uint("arrays", *arrays),
                uint("arrays_per_group", *arrays_per_group),
            ],
            RouterFault::AlignedWidth { expected, got } => vec![
                tag("aligned_width"),
                uint("expected", *expected),
                uint("got", *got),
            ],
            RouterFault::ArraysPerGroup { expected, got } => vec![
                tag("arrays_per_group"),
                uint("expected", *expected),
                uint("got", *got),
            ],
            RouterFault::ArrayWidth { expected, got } => vec![
                tag("array_width"),
                uint("expected", *expected),
                uint("got", *got),
            ],
            RouterFault::EpochDesync { expected, got } => vec![
                tag("epoch_desync"),
                ("expected".to_string(), serde::Value::UInt(*expected)),
                ("got".to_string(), serde::Value::UInt(*got)),
            ],
            RouterFault::TimedOut { received, total } => vec![
                tag("timed_out"),
                uint("received", *received),
                uint("total", *total),
            ],
            RouterFault::ChecksumMismatch { seq } => {
                vec![tag("checksum_mismatch"), uint("seq", *seq as usize)]
            }
            RouterFault::Incomplete { received, total } => vec![
                tag("incomplete"),
                uint("received", *received),
                uint("total", *total),
            ],
            RouterFault::AtLevel {
                level,
                aggregator_id,
                fault,
            } => {
                let mut fields = vec![tag("at_level"), uint("level", *level as usize)];
                if let Some(agg) = aggregator_id {
                    fields.push(("aggregator_id".to_string(), serde::Value::UInt(*agg)));
                }
                fields.push(("fault".to_string(), fault.to_value()));
                fields
            }
        })
    }
}

impl serde::Deserialize for RouterFault {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let kind = String::from_value(v.field("kind")?)?;
        let uint =
            |name: &str| -> Result<usize, serde::Error> { usize::from_value(v.field(name)?) };
        Ok(match kind.as_str() {
            "wire" => RouterFault::Wire(String::from_value(v.field("error")?)?),
            "duplicate_router" => RouterFault::DuplicateRouter {
                first_index: uint("first_index")?,
            },
            "empty_unaligned" => RouterFault::EmptyUnaligned,
            "group_layout" => RouterFault::GroupLayout {
                arrays: uint("arrays")?,
                arrays_per_group: uint("arrays_per_group")?,
            },
            "aligned_width" => RouterFault::AlignedWidth {
                expected: uint("expected")?,
                got: uint("got")?,
            },
            "arrays_per_group" => RouterFault::ArraysPerGroup {
                expected: uint("expected")?,
                got: uint("got")?,
            },
            "array_width" => RouterFault::ArrayWidth {
                expected: uint("expected")?,
                got: uint("got")?,
            },
            "epoch_desync" => RouterFault::EpochDesync {
                expected: u64::from_value(v.field("expected")?)?,
                got: u64::from_value(v.field("got")?)?,
            },
            "timed_out" => RouterFault::TimedOut {
                received: uint("received")?,
                total: uint("total")?,
            },
            "checksum_mismatch" => RouterFault::ChecksumMismatch {
                seq: uint("seq")? as u32,
            },
            "incomplete" => RouterFault::Incomplete {
                received: uint("received")?,
                total: uint("total")?,
            },
            "at_level" => RouterFault::AtLevel {
                level: u8::try_from(uint("level")?)
                    .map_err(|_| serde::Error::new("aggregation level exceeds u8"))?,
                // The field is omitted (not null) when unknown.
                aggregator_id: match v.field("aggregator_id") {
                    Ok(f) => Some(u64::from_value(f)?),
                    Err(_) => None,
                },
                fault: Box::new(RouterFault::from_value(v.field("fault")?)?),
            },
            other => {
                return Err(serde::Error::new(format!(
                    "unknown router fault kind `{other}`"
                )))
            }
        })
    }
}

/// One excluded bundle: its position in the submitted batch, the router id
/// when the bundle decoded far enough to know it, and the fault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Exclusion {
    /// Position of the bundle in the submitted batch.
    pub index: usize,
    /// Router id, when recoverable (wire-level rejects have none).
    pub router_id: Option<usize>,
    /// Why the bundle was excluded.
    pub fault: RouterFault,
}

/// Per-epoch ingest accounting: what was fused, what was excluded and why.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Bundles submitted for the epoch (wire frames or digests).
    pub submitted: usize,
    /// Router ids fused into the epoch, in acceptance order.
    pub accepted: Vec<usize>,
    /// Everything excluded, with batch position and reason.
    pub excluded: Vec<Exclusion>,
}

impl IngestReport {
    /// Whether any bundle was excluded this epoch.
    pub fn is_degraded(&self) -> bool {
        !self.excluded.is_empty()
    }

    /// Fraction of submitted bundles that survived validation.
    pub fn accepted_fraction(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.accepted.len() as f64 / self.submitted as f64
        }
    }
}

/// Fatal ingest failures: nothing (or not enough) left to analyse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The epoch contained no digests at all.
    NoDigests,
    /// Fewer than the configured quorum of bundles survived validation;
    /// the report records every exclusion.
    QuorumTooSmall {
        /// Minimum accepted bundles required to analyse.
        required: usize,
        /// The full ingest accounting for the failed epoch.
        report: IngestReport,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::NoDigests => write!(f, "no digests to analyse"),
            IngestError::QuorumTooSmall { required, report } => {
                write!(
                    f,
                    "only {} of {} digest bundles usable, quorum requires {required}",
                    report.accepted.len(),
                    report.submitted
                )?;
                if let Some(e) = report.excluded.first() {
                    write!(f, " (first fault, bundle {}: {})", e.index, e.fault)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl serde::Serialize for IngestError {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(match self {
            IngestError::NoDigests => {
                vec![("kind".to_string(), serde::Value::Str("no_digests".into()))]
            }
            IngestError::QuorumTooSmall { required, report } => vec![
                (
                    "kind".to_string(),
                    serde::Value::Str("quorum_too_small".into()),
                ),
                ("required".to_string(), serde::Value::UInt(*required as u64)),
                ("report".to_string(), report.to_value()),
            ],
        })
    }
}

impl serde::Deserialize for IngestError {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match String::from_value(v.field("kind")?)?.as_str() {
            "no_digests" => Ok(IngestError::NoDigests),
            "quorum_too_small" => Ok(IngestError::QuorumTooSmall {
                required: usize::from_value(v.field("required")?)?,
                report: IngestReport::from_value(v.field("report")?)?,
            }),
            other => Err(serde::Error::new(format!(
                "unknown ingest error kind `{other}`"
            ))),
        }
    }
}

/// The reference shape a digest bundle must match to be fused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    aligned_bits: usize,
    arrays_per_group: usize,
    array_bits: usize,
    epoch_id: u64,
}

impl Shape {
    fn of(d: &RouterDigestView<'_>) -> Shape {
        Shape {
            aligned_bits: d.aligned.bitmap.len(),
            arrays_per_group: d.unaligned.arrays_per_group,
            array_bits: if d.unaligned.array_count() > 0 {
                d.unaligned.array(0).len()
            } else {
                0
            },
            epoch_id: d.epoch_id,
        }
    }
}

/// Checks one bundle in isolation; `None` means internally coherent. A
/// parsed view already has whole groups of uniform-width arrays — the
/// wire parser rejects anything else — so an empty digest is the one
/// incoherence left to catch here.
fn internal_fault(d: &RouterDigestView<'_>) -> Option<RouterFault> {
    (d.unaligned.array_count() == 0).then_some(RouterFault::EmptyUnaligned)
}

/// Validates candidate digests (batch index, parsed frame) against each
/// other and the quorum floor, on top of the exclusions already recorded
/// upstream (frames the transport lost or that failed to parse).
/// `submitted` is the original batch size including those prior rejects.
///
/// Returns the accepted digests (in batch order) and the full accounting,
/// or a typed error when the batch is empty or the quorum is missed.
pub fn validate_batch<'a>(
    submitted: usize,
    candidates: Vec<(usize, RouterDigestView<'a>)>,
    prior_exclusions: Vec<Exclusion>,
    min_quorum: usize,
) -> Result<(Vec<RouterDigestView<'a>>, IngestReport), IngestError> {
    if submitted == 0 {
        return Err(IngestError::NoDigests);
    }
    let mut excluded = prior_exclusions;

    // Majority vote over the shape of every internally coherent bundle;
    // ties break towards the earliest-seen shape.
    let mut votes: HashMap<Shape, (usize, usize)> = HashMap::new();
    for (order, (_, d)) in candidates.iter().enumerate() {
        if internal_fault(d).is_none() {
            let entry = votes.entry(Shape::of(d)).or_insert((0, order));
            entry.0 += 1;
        }
    }
    let consensus = votes
        .iter()
        .max_by(|(_, (ca, fa)), (_, (cb, fb))| ca.cmp(cb).then(fb.cmp(fa)))
        .map(|(shape, _)| *shape);

    let mut accepted: Vec<RouterDigestView<'a>> = Vec::new();
    let mut accepted_ids: Vec<usize> = Vec::new();
    let mut first_seen: HashMap<usize, usize> = HashMap::new();
    for (index, d) in candidates {
        let fault = internal_fault(&d).or_else(|| {
            let shape = Shape::of(&d);
            // `consensus` exists whenever at least one bundle passed the
            // internal checks — which this one did.
            let c = consensus.expect("coherent bundle implies a consensus shape");
            if shape.aligned_bits != c.aligned_bits {
                Some(RouterFault::AlignedWidth {
                    expected: c.aligned_bits,
                    got: shape.aligned_bits,
                })
            } else if shape.arrays_per_group != c.arrays_per_group {
                Some(RouterFault::ArraysPerGroup {
                    expected: c.arrays_per_group,
                    got: shape.arrays_per_group,
                })
            } else if shape.array_bits != c.array_bits {
                Some(RouterFault::ArrayWidth {
                    expected: c.array_bits,
                    got: shape.array_bits,
                })
            } else if shape.epoch_id != c.epoch_id {
                Some(RouterFault::EpochDesync {
                    expected: c.epoch_id,
                    got: shape.epoch_id,
                })
            } else {
                first_seen
                    .get(&d.router_id)
                    .map(|&first_index| RouterFault::DuplicateRouter { first_index })
            }
        });
        match fault {
            Some(fault) => excluded.push(Exclusion {
                index,
                router_id: Some(d.router_id),
                fault,
            }),
            None => {
                first_seen.insert(d.router_id, index);
                accepted_ids.push(d.router_id);
                accepted.push(d);
            }
        }
    }

    excluded.sort_by_key(|e| e.index);
    let report = IngestReport {
        submitted,
        accepted: accepted_ids,
        excluded,
    };
    let required = min_quorum.max(1);
    if report.accepted.len() < required {
        return Err(IngestError::QuorumTooSmall { required, report });
    }
    Ok((accepted, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::RouterDigest;
    use dcs_bitmap::Bitmap;
    use dcs_collect::{AlignedDigest, UnalignedDigest};

    /// A minimal coherent bundle: one 64-bit aligned bitmap, 2×2 arrays
    /// of 32 bits.
    fn bundle(router_id: usize, epoch_id: u64) -> RouterDigest {
        RouterDigest {
            router_id,
            epoch_id,
            aligned: AlignedDigest {
                bitmap: Bitmap::from_indices(64, [router_id % 64]),
                packets_seen: 10,
                packets_hashed: 10,
                raw_bytes: 1000,
            },
            unaligned: UnalignedDigest {
                arrays: vec![Bitmap::from_indices(32, [1]); 4],
                arrays_per_group: 2,
                packets_seen: 10,
                packets_sampled: 10,
                raw_bytes: 1000,
            },
            artifacts: Vec::new(),
        }
    }

    /// Validates the wire frames of `digests` (each must parse).
    fn validate(digests: &[RouterDigest], min_quorum: usize) -> Result<IngestReport, IngestError> {
        let frames: Vec<_> = digests
            .iter()
            .map(|d| d.encode_wire().expect("test bundles encode"))
            .collect();
        let views = frames
            .iter()
            .map(|f| RouterDigestView::parse(f).expect("test bundles parse").0)
            .enumerate()
            .collect();
        validate_batch(digests.len(), views, Vec::new(), min_quorum).map(|(_, report)| report)
    }

    #[test]
    fn clean_batch_accepts_everything() {
        let digests: Vec<_> = (0..5).map(|r| bundle(r, 3)).collect();
        let report = validate(&digests, 1).unwrap();
        assert_eq!(report.accepted, vec![0, 1, 2, 3, 4]);
        assert!(!report.is_degraded());
        assert_eq!(report.accepted_fraction(), 1.0);
    }

    #[test]
    fn empty_batch_is_a_typed_error() {
        assert_eq!(validate(&[], 1).unwrap_err(), IngestError::NoDigests);
    }

    #[test]
    fn corrupt_first_bundle_cannot_poison_the_consensus() {
        // The first digest has a wrong aligned width; majority wins.
        let mut digests: Vec<_> = (0..4).map(|r| bundle(r, 0)).collect();
        digests[0].aligned.bitmap = Bitmap::new(128);
        let report = validate(&digests, 1).unwrap();
        assert_eq!(report.accepted, vec![1, 2, 3]);
        assert_eq!(report.excluded.len(), 1);
        assert_eq!(report.excluded[0].index, 0);
        assert_eq!(report.excluded[0].router_id, Some(0));
        assert_eq!(
            report.excluded[0].fault,
            RouterFault::AlignedWidth {
                expected: 64,
                got: 128
            }
        );
    }

    #[test]
    fn duplicate_router_keeps_the_first_copy() {
        let mut digests: Vec<_> = (0..3).map(|r| bundle(r, 0)).collect();
        digests.push(bundle(1, 0));
        let report = validate(&digests, 1).unwrap();
        assert_eq!(report.accepted, vec![0, 1, 2]);
        assert_eq!(
            report.excluded[0].fault,
            RouterFault::DuplicateRouter { first_index: 1 }
        );
    }

    #[test]
    fn desynced_epoch_is_excluded() {
        let mut digests: Vec<_> = (0..4).map(|r| bundle(r, 7)).collect();
        digests[2].epoch_id = 6;
        let report = validate(&digests, 1).unwrap();
        assert_eq!(report.accepted, vec![0, 1, 3]);
        assert_eq!(
            report.excluded[0].fault,
            RouterFault::EpochDesync {
                expected: 7,
                got: 6
            }
        );
    }

    #[test]
    fn off_consensus_layouts_and_empty_arrays_are_flagged() {
        let mut digests: Vec<_> = (0..5).map(|r| bundle(r, 0)).collect();
        digests[1].unaligned.arrays_per_group = 4; // one group of four
        digests[3].unaligned.arrays.clear();
        digests[4].unaligned.arrays = vec![Bitmap::from_indices(64, [1]); 4];
        let report = validate(&digests, 1).unwrap();
        assert_eq!(report.accepted, vec![0, 2]);
        assert_eq!(
            report.excluded[0].fault,
            RouterFault::ArraysPerGroup {
                expected: 2,
                got: 4
            }
        );
        assert_eq!(report.excluded[1].fault, RouterFault::EmptyUnaligned);
        assert_eq!(
            report.excluded[2].fault,
            RouterFault::ArrayWidth {
                expected: 32,
                got: 64
            }
        );
    }

    #[test]
    fn quorum_floor_fails_typed() {
        let mut digests: Vec<_> = (0..4).map(|r| bundle(r, 0)).collect();
        for d in digests.iter_mut().take(3) {
            d.unaligned.arrays.clear();
        }
        let err = validate(&digests, 2).unwrap_err();
        match err {
            IngestError::QuorumTooSmall { required, report } => {
                assert_eq!(required, 2);
                assert_eq!(report.accepted, vec![3]);
                assert_eq!(report.excluded.len(), 3);
            }
            other => panic!("expected QuorumTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn all_incoherent_batch_fails_without_panicking() {
        let mut digests: Vec<_> = (0..2).map(|r| bundle(r, 0)).collect();
        for d in &mut digests {
            d.unaligned.arrays.clear();
        }
        assert!(matches!(
            validate(&digests, 1),
            Err(IngestError::QuorumTooSmall { .. })
        ));
    }

    #[test]
    fn at_level_fault_wraps_kind_and_roundtrips() {
        let inner = RouterFault::TimedOut {
            received: 2,
            total: 5,
        };
        let wrapped = RouterFault::AtLevel {
            level: 1,
            aggregator_id: Some(42),
            fault: Box::new(inner.clone()),
        };
        // The metric label stays the inner fault's; the level is exposed
        // separately.
        assert_eq!(wrapped.kind(), "timed_out");
        assert_eq!(wrapped.level(), 1);
        assert_eq!(inner.level(), 0);
        assert!(wrapped.to_string().contains("at level 1"));
        assert!(wrapped.to_string().contains("aggregator 42"));

        for fault in [
            wrapped,
            RouterFault::AtLevel {
                level: 2,
                aggregator_id: None,
                fault: Box::new(RouterFault::Wire("bad magic".into())),
            },
        ] {
            let json = serde_json::to_string(&fault).unwrap();
            let back: RouterFault = serde_json::from_str(&json).unwrap();
            assert_eq!(back, fault);
        }
    }

    #[test]
    fn report_serde_roundtrip() {
        let mut digests: Vec<_> = (0..3).map(|r| bundle(r, 0)).collect();
        digests[1].epoch_id = 9;
        let report = validate(&digests, 1).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: IngestReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
