//! Sharded parallel detection runtime.
//!
//! The paper's Spade engine is a single-stream system: one engine, one
//! peeling order, one worker thread. Its incremental reordering, however,
//! is *local to a community* (§4.2 — an update perturbs only the window
//! between its endpoints), which means the transaction graph partitions
//! naturally: route each community's edges to one of N parallel engines
//! and every shard maintains an exact Spade detection over its slice of
//! the graph, while ingest throughput scales with cores. A shard's slice
//! equals the whole community when the community's component keeps a
//! single home (the common case for fraud bursts on fresh accounts);
//! communities assembled by merging separately-homed components, or
//! living inside a spilled giant component, are split across shards and
//! their density diluted — see [`partition`] for the exact rules. This is the same
//! path related stream-processing fraud systems take (partitioned
//! detectors over a keyed stream); here it is a first-class subsystem:
//!
//! * [`partition`] — the [`Partitioner`] trait
//!   with hash-by-source and connectivity-aware (union-find with spill)
//!   policies;
//! * [`service`] — [`ShardedSpadeService`],
//!   N worker engines behind bounded queues reusing the single-service
//!   worker loop, with one entry per primitive: `submit_batch` (and its
//!   one-edge form `submit`), `repair`, and `rebalance` (and its idle
//!   check `rebalance_if_needed`);
//! * [`aggregate`] — [`aggregate::merge`] folds per-shard snapshots into
//!   a global densest-community view that ranks every shard;
//! * [`repair`] — the cross-shard community repair pass: per-shard
//!   candidate regions (community + k-hop frontier, persist-codec bytes)
//!   unioned and re-peeled so hash-split communities recover
//!   single-engine exactness;
//! * [`migrate`] — live component migration (extract → evict → replay
//!   through the persist codec): repairs merge-stranded slices at their
//!   surviving home and sheds pinned components off overloaded shards,
//!   driven by the partitioner's strand events and the [`ShardStats`]
//!   load signal.

pub mod aggregate;
pub mod migrate;
pub mod partition;
pub mod repair;
pub mod service;

pub use aggregate::{GlobalDetection, ShardDetection};
pub use migrate::{
    pick_load_moves, MigrationPolicy, MigrationRecord, MigrationReport, MigrationStats,
    MigrationTrigger,
};
pub use partition::{
    ConnectivityPartitioner, HashPartitioner, PartitionStrategy, Partitioner, StrandEvent,
};
pub use repair::{
    repair_regions, RegionSummary, RepairConfig, RepairOutcome, RepairScratch, RepairStats,
    RepairedDetection,
};
pub use service::{BatchSubmit, ShardStats, ShardedConfig, ShardedSpadeService};
