//! Deterministic, mergeable heavy-hitter sketches — the first epoch
//! **sidecar artifact** of the DCS system.
//!
//! The paper's digests answer "is some content repeated?"; the related
//! heavy-hitter literature (Hashing Pursuit, Space-Saving hierarchical
//! HH, distinct heavy hitters for DNS DDoS — PAPERS.md) answers the
//! complementary question "*which* keys are hot?" first, and uses those
//! keys to focus the expensive analysis. This crate provides the two
//! summaries that ride beside the bitmap digest in every epoch bundle:
//!
//! * [`SpaceSaving`] — weighted heavy hitters over a `u64` key domain.
//!   Internally a weighted Misra–Gries summary with an explicit global
//!   *deficit* `D` (the total mass deducted from surviving counters), so
//!   every tracked key carries a hard two-sided bound
//!   `lower ≤ true ≤ lower + D`, and `D ≤ total / (cap + 1)` at all
//!   times — the classic Space-Saving guarantee in its mergeable form.
//!   Merging uses the subtract-merge of Agarwal et al.'s *Mergeable
//!   Summaries*: sum lower bounds over the key union, subtract the
//!   `(cap+1)`-th largest value `t`, drop non-positive counters, and set
//!   `D' = D_a + D_b + t`; the deficit invariant survives, so an
//!   aggregation tier can fold thousands of leaf sketches and still
//!   bound every counter. Merge is exactly commutative, and exactly
//!   associative whenever no trim fires.
//! * [`DistinctSketch`] — distinct-count heavy hitters per the DNS-DDoS
//!   paper: per key, a bounded KMV (k-minimum-values) set of item
//!   hashes estimates how many *distinct* items the key saw (reflectors
//!   per victim, subdomains per zone). Per-key merge is KMV union —
//!   exactly associative and commutative — and the key table trims by
//!   smallest estimate.
//!
//! Everything here is deterministic: state is canonical (ordered maps,
//! total-ordered eviction by `(value, key)`), so equal input multisets
//! produce byte-equal sketches regardless of arrival order interleaving
//! across merges of the same partition. The wire codec ([`wire`])
//! serialises either sketch into the `DCSS` artifact payload carried by
//! DCSR bundles, with every count capped and pre-checked before
//! allocation, mirroring `dcs-collect`'s decoder discipline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distinct;
pub mod space_saving;
pub mod wire;

pub use distinct::DistinctSketch;
pub use space_saving::{HeavyKey, SpaceSaving};
pub use wire::{decode_sketch, SketchError, SketchWire, DCSS_MAGIC, MAX_SKETCH_CAP};

/// Key-domain tag carried on the wire so the centre knows what a
/// sketch's `u64` keys mean before fusing them. Unknown tags pass
/// through opaquely — fusion only combines sketches of equal domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SketchDomain {
    /// Aligned-bitmap column index of the packet's hashed payload
    /// prefix — the domain the centre can map straight onto fused
    /// matrix columns to seed the aligned core search.
    ContentIndex,
    /// `src_port << 32 | dst_as` of the packet — the DRDoS reflection
    /// aggregation key (per-epoch source-port/destination-AS pairs).
    SrcPortDstAs,
    /// Flow-label hash weighted by payload bytes — elephant-flow
    /// tracking.
    FlowBytes,
}

impl SketchDomain {
    /// Wire tag.
    pub fn to_u8(self) -> u8 {
        match self {
            SketchDomain::ContentIndex => 0,
            SketchDomain::SrcPortDstAs => 1,
            SketchDomain::FlowBytes => 2,
        }
    }

    /// Parses a wire tag.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(SketchDomain::ContentIndex),
            1 => Some(SketchDomain::SrcPortDstAs),
            2 => Some(SketchDomain::FlowBytes),
            _ => None,
        }
    }
}

#[cfg(test)]
mod proptests;
