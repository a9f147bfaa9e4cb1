//! Random-graph substrate for the unaligned-case analysis.
//!
//! Section IV-B of the paper converts the fused digest matrix into a graph
//! over flow-split *groups* and then leans on two classical facts:
//!
//! * the Erdős–Rényi **phase transition** — below edge probability 1/n all
//!   components of G(n, p) are O(log n), above it a giant component
//!   emerges — which powers the yes/no statistical test;
//! * **min-degree peeling** — repeatedly deleting the minimum-degree vertex
//!   — which is the paper's stochastically optimal `FindCore` strategy.
//!
//! This crate supplies the machinery: a compact undirected [`Graph`], exact
//! connected components, an O(E) expected-time G(n, p) sampler
//! ([`er::gnp`]) with planted dense subgraphs ([`er::gnp_planted`]), and a
//! bucket-queue peeling kernel ([`peel::peel_to_size`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod components;
pub mod er;
mod graph;
pub mod peel;

#[cfg(test)]
mod proptests;

pub use components::{component_sizes, largest_component, UnionFind};
pub use graph::{Graph, GraphBuilder};
