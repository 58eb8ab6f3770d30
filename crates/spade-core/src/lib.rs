//! # spade-core
//!
//! The Spade framework: auto-incrementalized dense-subgraph peeling for
//! real-time fraud detection on evolving graphs.

pub mod deletion;
pub mod engine;
pub mod enumeration;
pub mod grouping;
pub mod kinetic;
pub mod metric;
pub mod order;
pub mod peel;
pub mod persist;
pub mod progress;
pub mod reorder;
pub mod service;
pub mod shard;
pub mod spade;
pub mod state;
pub mod stream;
pub mod timewindow;

pub use engine::{SpadeConfig, SpadeEngine};
pub use enumeration::{enumerate_incremental, enumerate_static, EnumerationConfig, FraudInstance};
pub use grouping::{EdgeGrouper, GroupingConfig, GroupingStats, SubmitOutcome};
pub use kinetic::KineticIndex;
pub use metric::{
    BuiltinMetric, CustomMetric, DensityMetric, Fraudar, UnweightedDensity, WeightedDensity,
};
pub use peel::{peel, PeelingOutcome};
pub use persist::{load_engine, save_engine, SnapshotError, SubgraphSnapshot};
pub use reorder::{ReorderScratch, ReorderStats};
pub use service::{CandidateRegion, IngestConfig, PublishedDetection, ServiceStats, SpadeService};
pub use shard::{
    BatchSubmit, GlobalDetection, PartitionStrategy, Partitioner, RepairConfig, RepairStats,
    RepairedDetection, ShardStats, ShardedConfig, ShardedSpadeService,
};
pub use spade::{Spade, SpadeBuilder};
pub use state::{Detection, PeelingState};
pub use stream::{FraudLabel, FraudPattern, StreamEdge};
pub use timewindow::{TimeWindowDetector, WindowMove, WindowRecord};
