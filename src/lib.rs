//! # spade
//!
//! Real-time fraud detection on evolving graphs via incremental
//! dense-subgraph peeling — a from-scratch Rust reproduction of
//! *Spade: A Real-Time Fraud Detection Framework on Evolving Graphs*
//! (Jiang et al., PVLDB 16(3)).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — dynamic directed weighted graph substrate;
//! * [`core`] — the Spade engine (peeling, incremental reordering, batch
//!   updates, edge grouping, extensions);
//! * [`gen`] — workload generators and dataset surrogates;
//! * [`metrics`] — latency / prevention-ratio measurement;
//! * [`net`] — the framed TCP ingest front end (wire protocol, server,
//!   client) feeding the sharded runtime over sockets.
//!
//! ## Example
//!
//! ```
//! use spade::core::{SpadeEngine, WeightedDensity};
//! use spade::graph::VertexId;
//!
//! let mut engine = SpadeEngine::new(WeightedDensity);
//!
//! // Organic traffic.
//! for i in 0..8u32 {
//!     engine.insert_edge(VertexId(i), VertexId(i + 1), 1.0).unwrap();
//! }
//!
//! // A wash-trading ring appears; each insertion reorders incrementally.
//! for a in 100..104u32 {
//!     for b in 100..104u32 {
//!         if a != b {
//!             engine.insert_edge(VertexId(a), VertexId(b), 20.0).unwrap();
//!         }
//!     }
//! }
//!
//! let detection = engine.detect();
//! assert_eq!(detection.size, 4);
//! assert!(engine
//!     .community(detection)
//!     .iter()
//!     .all(|m| (100..104).contains(&m.0)));
//! ```
//!
//! Or through the paper's Listing 1/2 plug-in API:
//!
//! ```
//! use spade::core::SpadeBuilder;
//! use spade::graph::VertexId;
//!
//! let mut spade = SpadeBuilder::new()
//!     .name("FD")
//!     .esusp(|_s, d, _raw, g| {
//!         if g.contains_edge(_s, d) {
//!             0.0 // duplicate pair: redundant under set semantics
//!         } else {
//!             1.0 / (g.degree(d) as f64 + 5.0).ln()
//!         }
//!     })
//!     .build();
//! spade.insert_edge(VertexId(0), VertexId(1), 9.99).unwrap();
//! assert_eq!(spade.detect().unwrap().len(), 2);
//! ```

pub use spade_core as core;
pub use spade_gen as gen;
pub use spade_graph as graph;
pub use spade_metrics as metrics;
pub use spade_net as net;

/// The sharded parallel detection runtime, re-exported at the top level:
/// [`shard::ShardedSpadeService`] partitions the transaction stream
/// across N worker engines (see `examples/sharded_service.rs`).
pub use spade_core::shard;

/// README's Rust blocks, compiled (and, unless marked `no_run`, run) as
/// doctests so its API snippets cannot drift from the code.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
