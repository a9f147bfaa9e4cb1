//! Unaligned-case analysis (paper Section IV).
//!
//! Digests arrive as stacks of short rows (1,024 bits) grouped by
//! flow-split group. The analysis converts the row matrix into a graph on
//! groups and reads the graph:
//!
//! * [`lambda`] — the weight-aware hypergeometric threshold tables
//!   Λ = {λᵢⱼ} that make the null graph Erdős–Rényi with a uniform edge
//!   probability, filled lazily and kept across epochs
//!   ([`LambdaTables::for_shape`]);
//! * [`graphbuild`] — pairwise row correlation (the dominant cost the
//!   paper analyses in Section IV-D): the one pair loop every centre
//!   graph goes through, on the caller's thread;
//! * [`ertest`] — the phase-transition statistical test: alarm when the
//!   largest connected component outgrows what G(n, p₁) can produce;
//! * [`corefind`] — the 3-step greedy detection (Figure 10): peel to a
//!   core, keep outsiders with ≥ d edges into the core, peel again, report
//!   the union;
//! * [`incremental`] — the cross-epoch delta engine: sorted edge lists of
//!   the test graph (Λ) and the detection graph (Λ′) whose edges between
//!   unchanged groups carry over, while pairs with a changed end are
//!   re-tested for both at once;
//! * [`matchmodel`] — the offset-sampling match-probability model
//!   (`1 − e^(−k²/536)`) and the resulting pattern edge probability p₂;
//! * [`thresholds`] — the non-naturally-occurring cluster bound of
//!   eqs. (2)–(3) with brute-force co-tuning of (p₁, d).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corefind;
pub mod ertest;
pub mod graphbuild;
pub mod incremental;
pub mod lambda;
pub mod matchmodel;
pub mod thresholds;

pub use corefind::{find_pattern, CoreFindConfig, PatternResult};
pub use ertest::{er_test, ErTestResult};
pub use graphbuild::{build_group_graph, GroupLayout};
pub use incremental::{EpochStats, IncrementalCorrelator};
pub use lambda::{LambdaTable, LambdaTables};
pub use matchmodel::{offset_match_prob, pattern_edge_prob, MatchModel};
pub use thresholds::{cluster_threshold, ClusterThreshold};
