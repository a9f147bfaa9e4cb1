//! Statistical numerics substrate for the DCS system.
//!
//! Every threshold in the paper is a tail probability:
//!
//! * the aligned-case *non-naturally-occurring* bound is
//!   `C(m,a)·C(n,b)·2^(−ab)` (paper eq. 1) — computed in log space by
//!   [`special::ln_choose`];
//! * the aligned-case *detectable* threshold chains four `binocdf` calls
//!   (Theorem 2) — [`binomial::binocdf`];
//! * the unaligned-case Λ threshold tables are hypergeometric quantiles
//!   (Section IV-B) — [`hypergeom`];
//! * the unaligned-case cluster bounds co-tune `binocdf` expressions
//!   (eqs. 2–3);
//! * the unaligned-case ER alarm threshold is a branching process's
//!   progeny tail (Section IV-B) — [`progeny`].
//!
//! [`sample`] provides the random-variate generators the Monte-Carlo
//! harness and the synthetic-traffic substrate need (binomial, geometric,
//! Zipf, Pareto), built on `rand`'s uniform source only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod ecdf;
pub mod hypergeom;
pub mod progeny;
pub mod sample;
pub mod special;

#[cfg(test)]
mod proptests;

pub use binomial::{binocdf, binomial_sf, ln_binomial_pmf};
pub use ecdf::Ecdf;
pub use hypergeom::{
    hypergeom_pmf, hypergeom_sf, hypergeom_sf_le, hypergeom_tail_quantile,
    hypergeom_tail_quantile_near,
};
pub use progeny::{component_threshold, progeny_sf};
pub use special::{ln_choose, ln_factorial, ln_gamma};
