//! The heavy-hitter sketch a monitoring point can ship beside its
//! bitmap digest as a `DCSS` **sidecar artifact**.
//!
//! [`SpaceSaving`] is a weighted heavy-hitter summary over a `u64` key
//! domain: a weighted Misra–Gries summary with an explicit global
//! *deficit* `D` (the total mass deducted from surviving counters), so
//! every tracked key carries a hard two-sided bound
//! `lower ≤ true ≤ lower + D`, and `D ≤ total / (cap + 1)` at all times —
//! the classic Space-Saving guarantee.
//!
//! State is canonical (an ordered map, uniform subtraction), so equal
//! input streams produce byte-equal sketches. [`encode_space_saving`]
//! serialises one into the `DCSS` payload a DCSR bundle carries. Nothing
//! in the workspace decodes that payload: the analysis centre validates
//! the artifact section's framing and CRC and otherwise treats it as
//! opaque bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod space_saving;
pub mod wire;

pub use space_saving::SpaceSaving;
pub use wire::{encode_space_saving, DCSS_MAGIC};
