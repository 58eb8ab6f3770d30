//! # spade-metrics
//!
//! Measurement machinery for the Spade reproduction:
//!
//! * [`latency`] — the latency metric `L(ΔG_τ)` of Eq. 4 and queueing-time
//!   bookkeeping (Fig. 8);
//! * [`prevention`] — the prevention ratio `R` (Fig. 8, Fig. 9a);
//! * [`runtime`] — the live observability subsystem: a lock-free
//!   metrics registry (atomic counters, gauges, log-scale latency
//!   histograms with mergeable snapshots) plus an event-trace ring;
//! * [`summary`] — mean / percentile summaries for benchmark reports;
//! * [`table`] — fixed-width table rendering for terminal reports.

pub mod latency;
pub mod prevention;
pub mod runtime;
pub mod summary;
pub mod table;

pub use latency::LatencyRecorder;
pub use prevention::PreventionTracker;
pub use runtime::{
    Counter, EventKind, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    TraceEvent,
};
pub use summary::Summary;
pub use table::Table;
