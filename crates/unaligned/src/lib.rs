//! Unaligned-case analysis (paper Section IV).
//!
//! Digests arrive as stacks of short rows (1,024 bits) grouped by
//! flow-split group. The analysis converts the row matrix into a graph on
//! groups and reads the graph:
//!
//! * [`lambda`] — the weight-aware hypergeometric threshold tables
//!   Λ = {λᵢⱼ} that make the null graph Erdős–Rényi with a uniform edge
//!   probability, lock-free and kept across epochs by a
//!   [`LambdaStore`];
//! * [`graphbuild`] — pairwise row correlation (the dominant cost the
//!   paper analyses in Section IV-D) in serial, crossbeam-parallel and
//!   vertex-sampled variants;
//! * [`ertest`] — the phase-transition statistical test: alarm when the
//!   largest connected component outgrows what G(n, p₁) can produce;
//! * [`corefind`] — the 3-step greedy detection (Figure 10): peel to a
//!   core, keep outsiders with ≥ d edges into the core, peel again, report
//!   the union;
//! * [`incremental`] — the cross-epoch delta engine: persisting rows
//!   keep their previous edge results, only changed groups are
//!   re-tested, with a periodic full-rebuild equality audit;
//! * [`matchmodel`] — the offset-sampling match-probability model
//!   (`1 − e^(−k²/536)`) and the resulting pattern edge probability p₂;
//! * [`thresholds`] — the non-naturally-occurring cluster bound of
//!   eqs. (2)–(3) with brute-force co-tuning of (p₁, d);
//! * [`multi`] — sub-cluster separation on top of the single-cluster
//!   detector (the layered technique Section II-D assumes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corefind;
pub mod ertest;
pub mod graphbuild;
pub mod incremental;
pub mod lambda;
pub mod matchmodel;
pub mod multi;
pub mod thresholds;

pub use corefind::{find_pattern, CoreFindConfig, PatternResult};
pub use ertest::{er_test, ErTestConfig, ErTestResult};
pub use graphbuild::{
    build_group_graph, build_group_graph_parallel, build_group_graph_sampled,
    expand_core_over_groups, sampled_find_pattern, GroupLayout,
};
pub use incremental::{EpochStats, IncrementalConfig, IncrementalCorrelator};
pub use lambda::{LambdaStore, LambdaTable, LambdaTables};
pub use matchmodel::{offset_match_prob, pattern_edge_prob, MatchModel};
pub use multi::{find_patterns_multi, split_clusters, SeparatedPattern};
pub use thresholds::{cluster_threshold, ClusterThreshold};
