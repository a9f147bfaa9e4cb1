//! Aligned-case analysis (paper Section III).
//!
//! The analysis centre stacks one n-bit digest per router into an m×n 0-1
//! matrix; common content seen by `a` routers as `b` identical packets is
//! an a×b all-1 submatrix. Finding it in general (the ASID problem) is
//! NP-hard — Theorem 1 reduces Maximum Edge Biclique to it — but the
//! Bernoulli(½) background makes a greedy product search work with high
//! probability:
//!
//! * [`search`] — the naive O(n² log n) and refined O(n log n) greedy
//!   algorithms (Figures 5 and 6): iterate bounded lists of heaviest
//!   k-products, detect the stopping point from the weight-loss curve,
//!   then (refined) expand the found core across all columns;
//! * [`termination`] — the weight-loss-curve reader (Figure 7): first
//!   exponential dive → plateau → second dive, stop right before the
//!   second dive;
//! * [`thresholds`] — the non-naturally-occurring bound
//!   `C(m,a)·C(n,b)·2^(−ab)` (eq. 1) and the Theorem-2 detectable
//!   threshold chain, which generate both curves of Figure 12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod search;
pub mod termination;
pub mod thresholds;

pub use search::{
    naive_detect, refined_detect, refined_detect_cached, AlignedDetection, SearchConfig,
    SearchScratch, SearchTimings, SearchWork, EPSILON,
};
pub use termination::{stop_point, TerminationConfig};
pub use thresholds::{detectable_min_b, ln_natural_occurrence, non_natural_min_b};
