//! Sharded parallel detection runtime.
//!
//! The paper's Spade engine is a single-stream system: one engine, one
//! peeling order, one worker thread. Its incremental reordering, however,
//! is *local to a community* (§4.2 — an update perturbs only the window
//! between its endpoints), which means the transaction graph partitions
//! naturally: route edges to one of N parallel engines and every shard
//! maintains an exact Spade detection over its slice of the graph, while
//! ingest throughput scales with cores. Routing hashes the source vertex,
//! so a community whose members hash to different shards is split and
//! its density diluted on each; the cross-shard [`repair`] pass unions
//! the per-shard evidence and re-peels it, which puts the community back
//! together. This is the same path related stream-processing fraud
//! systems take (partitioned detectors over a keyed stream, reconciled by
//! one cheap global pass); here it is a first-class subsystem:
//!
//! * [`partition`] — the [`Partitioner`] trait and its hash-by-source
//!   policy;
//! * [`service`] — [`ShardedSpadeService`],
//!   N worker engines behind bounded queues reusing the single-service
//!   worker loop, with one entry per primitive: `submit_batch` (and its
//!   one-edge form `submit`) and `repair`;
//! * [`aggregate`] — [`aggregate::merge`] folds per-shard snapshots into
//!   a global densest-community view that ranks every shard;
//! * [`repair`] — the cross-shard community repair pass: per-shard
//!   candidate regions (community + k-hop frontier, subgraph snapshots)
//!   unioned and re-peeled so hash-split communities recover
//!   single-engine exactness.

pub mod aggregate;
pub mod partition;
pub mod repair;
pub mod service;

pub use aggregate::{GlobalDetection, ShardDetection};
pub use partition::{HashPartitioner, PartitionStrategy, Partitioner};
pub use repair::{
    repair_regions, RegionSummary, RepairConfig, RepairOutcome, RepairScratch, RepairStats,
    RepairedDetection,
};
pub use service::{BatchSubmit, ShardStats, ShardedConfig, ShardedSpadeService};
