//! # spade-bench
//!
//! Benchmark harness regenerating every table and figure of the Spade
//! paper's evaluation (§5 + Appendix B). Each table/figure has a binary
//! (`cargo run -p spade-bench --release --bin <name>`). Performance is
//! measured elsewhere: `bench_stack` in `benchmark/` is the repo's one
//! benchmark (see `BENCHMARK.json`).
//!
//! Scale control: the `SPADE_SCALE` environment variable scales dataset
//! sizes relative to the paper (default `0.01`, i.e. Grab1 becomes ~40K
//! vertices / 100K edges). `SPADE_QUICK=1` shrinks everything further for
//! smoke runs. Absolute numbers will differ from the paper's testbed; the
//! *relations* (who wins, by how many orders, how curves bend) are what
//! the harness reproduces — see EXPERIMENTS.md.

pub mod clock;
pub mod replay;
pub mod workloads;

pub use clock::SimulatedClock;
pub use replay::{
    measure_grouped_replay, measure_incremental_replay, measure_static_baseline, MetricKind,
    ReplayReport,
};
pub use workloads::{env_scale, grab_datasets, table3_datasets};
