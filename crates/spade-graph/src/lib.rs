//! # spade-graph
//!
//! Dynamic directed weighted graph substrate for the Spade fraud-detection
//! framework (Jiang et al., *Spade: A Real-Time Fraud Detection Framework on
//! Evolving Graphs*, PVLDB 16(3)).
//!
//! The paper's transaction graph model (§2.1) is a directed graph
//! `G = (V, E)` where every vertex `u_i` carries a non-negative
//! *suspiciousness* weight `a_i >= 0` and every edge `(u_i, u_j)` carries a
//! strictly positive suspiciousness weight `c_ij > 0`. Transaction graphs
//! evolve by edge insertion (single or batched); the Appendix C extensions
//! additionally require edge deletion.
//!
//! This crate provides:
//!
//! * [`DynamicGraph`] — an adjacency-list graph supporting O(1) amortized
//!   edge insertion, O(1) edge-weight lookup/accumulation, O(1) deletion,
//!   and the running aggregates the peeling algorithms need
//!   (`f(V)` total weight, per-vertex incident weight `w_u(V)`).
//! * [`stats`] — degree distributions and a power-law fit (paper Fig. 9b).
//! * [`io`] — plain-text edge-list readers and a string interner for
//!   datasets with external vertex labels.

pub mod error;
pub mod graph;
pub mod hash;
pub mod id;
pub mod io;
pub mod stats;

pub use error::GraphError;
pub use graph::{DynamicGraph, EdgeInsertion, Neighbor};
pub use id::{EdgeRef, VertexId};

/// Result alias used across the graph substrate.
pub type Result<T> = std::result::Result<T, GraphError>;
