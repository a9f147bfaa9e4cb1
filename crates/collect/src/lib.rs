//! Online data-collection (streaming) modules.
//!
//! These run "at each monitored link or node … at line speeds" (paper
//! Section II-B) and compress an epoch of traffic into bitmap digests:
//!
//! * [`aligned::AlignedCollector`] — Figure 3: hash the first `len` bytes
//!   of every payload into one bit of an n-bit bitmap; close the epoch when
//!   the bitmap is half full (the Bloom-filter sweet spot);
//! * [`unaligned::UnalignedCollector`] — Figures 8–9: *offset sampling*
//!   (k random in-payload offsets, one small array per offset, match
//!   probability amplified ≈ k²) combined with *flow splitting* (hash the
//!   flow label into one of `groups` groups so each array stays narrow and
//!   the per-array signal strong).
//!
//! Both produce digests that record how many raw bytes they summarise, so
//! the paper's three-orders-of-magnitude compression claim is measurable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aligned;
pub mod artifact;
pub mod frame;
pub mod unaligned;
pub mod view;
pub mod wire;

pub use aligned::{AlignedCollector, AlignedConfig, AlignedDigest};
pub use artifact::{Artifact, ARTIFACT_KIND_SKETCH, MAX_ARTIFACTS, MAX_ARTIFACT_PAYLOAD};
pub use unaligned::{UnalignedCollector, UnalignedConfig, UnalignedDigest};
pub use view::{AlignedDigestView, UnalignedDigestView};
pub use wire::MAX_ARRAY_BITS;
