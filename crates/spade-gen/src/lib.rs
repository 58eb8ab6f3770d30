//! # spade-gen
//!
//! Workload generators and dataset surrogates for the Spade reproduction.
//!
//! The paper evaluates on four proprietary Grab transaction graphs and
//! three public datasets (Table 3), replaying the final 10% of edges as
//! timestamped increments. None of those inputs ship with this
//! repository, so this crate builds statistically matched surrogates:
//! peeling cost and detection depend on the degree distribution and on
//! bipartiteness, which the surrogates keep while |V| and |E| scale (see
//! [`datasets`]):
//!
//! * [`powerlaw`] — heavy-tailed degree samplers (transaction graphs are
//!   power-law distributed, paper Fig. 9b);
//! * [`transactions`] — Grab-like bipartite customer→merchant streams with
//!   timestamps and amounts;
//! * [`fraud`] — injection of the paper's three fraud patterns
//!   (customer–merchant collusion, deal-hunter, click-farming) with
//!   ground-truth labels;
//! * [`datasets`] — the seven Table 3 workloads at configurable scale,
//!   split 90% initial / 10% increments like the paper's protocol.

pub mod datasets;
pub mod fraud;
pub mod powerlaw;
pub mod transactions;

pub use datasets::{Dataset, DatasetSpec};
pub use fraud::{FraudInjector, FraudInjectorConfig};
pub use powerlaw::ZipfSampler;
pub use transactions::{TransactionStream, TransactionStreamConfig};
