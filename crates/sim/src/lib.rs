//! Monte-Carlo experiment harness: everything needed to regenerate the
//! paper's evaluation (Section V).
//!
//! * [`aligned`] — planted m×n Bernoulli matrices, a *conditioned screened
//!   sampler* that reproduces the refined algorithm's input at the
//!   1000×4M paper scale without materialising four million columns, and
//!   detection-ratio runners (Figures 7, 11, 12);
//! * [`unaligned`] — graph-model trials (planted G(n,p₁)+G(n₁,p₂), exactly
//!   the model the paper's own Monte-Carlo uses) for the ER test and core
//!   finding (Figure 13, Tables I–III);
//! * [`baseline`] — the comparators the paper argues against: exact
//!   raw-aggregation detection (the infeasible strawman of §II-B) and a
//!   single-vantage prevalence detector (EarlyBird-style, §VI);
//! * [`stress`] — the Section V-B.4 stress test: a bursty synthetic trace
//!   pushed through the real collector → matrix → graph → detection path;
//! * [`faults`] — seeded fault injection on the digest shipping path
//!   (drops, truncation, bit flips, duplicates, epoch desync), for
//!   exercising the analysis centre's ingest layer;
//! * [`channel`] — a seeded lossy-channel model (drop, delay, reorder,
//!   duplicate, corrupt) for the chunked digest transport;
//! * [`hop`] — the one loop that drives frames across a lossy hop to a
//!   collector or an aggregator, and the tier driver that carries an
//!   epoch up a topology;
//! * [`soak`] — the soak driver: many epochs of monitors → lossy hops →
//!   (flat, or through one aggregation tier) → analysis centre, carrying
//!   the aligned plant or a DNS-amplification attack, with an optional
//!   mid-soak centre kill/restart through the checkpoint path and,
//!   through the tier, per-epoch flat-replay detection equivalence;
//! * [`table`] — plain-text row/series formatting for the `repro_*`
//!   binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aligned;
pub mod baseline;
pub mod channel;
pub mod faults;
pub mod hop;
pub mod soak;
pub mod stress;
pub mod table;
pub mod unaligned;
