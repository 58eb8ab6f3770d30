//! Replay runners: the measurement core shared by every table/figure
//! binary.
//!
//! Three execution modes mirror the paper's competitors:
//!
//! * **static baseline** (DG/DW/FD): one full from-scratch peel per
//!   detection round — its measured duration is both the per-edge cost of
//!   the static column and the detection period of the latency model;
//! * **incremental replay** (IncDG/IncDW/IncFD, batch size `|ΔE|`):
//!   Algorithm 2 once per batch;
//! * **grouped replay** (IncDGG/IncDWGG/IncFDG): Algorithm 3's buffer in
//!   front of the engine.
//!
//! Latency accounting uses the [`crate::clock::SimulatedClock`]: stream
//! timestamps give arrival times, measured wall-microseconds give
//! processing times (Fig. 8's definitions).

use crate::clock::SimulatedClock;
use spade_core::metric::{BuiltinMetric, Fraudar, UnweightedDensity, WeightedDensity};
use spade_core::{order::MinQueue, stream::StreamEdge};
use spade_core::{
    peel_with_queue, EdgeGrouper, GroupingConfig, ReorderStats, SpadeConfig, SpadeEngine,
};
use spade_graph::{CsrGraph, VertexId};
use spade_metrics::LatencyRecorder;
use std::time::Instant;

/// Which of the paper's three peeling semantics to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Unweighted dense subgraph (Charikar).
    Dg,
    /// Edge-weighted density.
    Dw,
    /// Fraudar.
    Fd,
}

impl MetricKind {
    /// All three, in paper order.
    pub const ALL: [MetricKind; 3] = [MetricKind::Dg, MetricKind::Dw, MetricKind::Fd];

    /// Static algorithm name ("DG").
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Dg => "DG",
            MetricKind::Dw => "DW",
            MetricKind::Fd => "FD",
        }
    }

    /// Incremental name ("IncDG").
    pub fn inc_name(self) -> &'static str {
        match self {
            MetricKind::Dg => "IncDG",
            MetricKind::Dw => "IncDW",
            MetricKind::Fd => "IncFD",
        }
    }

    /// Grouped name ("IncDGG").
    pub fn grouped_name(self) -> &'static str {
        match self {
            MetricKind::Dg => "IncDGG",
            MetricKind::Dw => "IncDWG",
            MetricKind::Fd => "IncFDG",
        }
    }

    /// Instantiates the metric.
    pub fn metric(self) -> BuiltinMetric {
        match self {
            MetricKind::Dg => BuiltinMetric::Dg(UnweightedDensity),
            MetricKind::Dw => BuiltinMetric::Dw(WeightedDensity),
            MetricKind::Fd => BuiltinMetric::Fd(Fraudar::new()),
        }
    }
}

/// Builds an engine bootstrapped on `edges`.
pub fn bootstrap_engine<'a>(
    kind: MetricKind,
    edges: impl IntoIterator<Item = &'a StreamEdge>,
) -> SpadeEngine<BuiltinMetric> {
    let edges = edges.into_iter().map(|e| (e.src, e.dst, e.raw));
    SpadeEngine::bootstrap(kind.metric(), SpadeConfig::default(), edges)
        .expect("bootstrap must succeed on generated workloads")
}

/// Result of one replay run.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Increment edges processed.
    pub edges: usize,
    /// Total measured processing time, microseconds.
    pub total_process_us: f64,
    /// Latency bookkeeping (stream time units = microseconds).
    pub latency: LatencyRecorder,
    /// Cumulative reorder counters.
    pub stats: ReorderStats,
    /// Reordering passes (batches or flushes).
    pub rounds: usize,
}

impl ReplayReport {
    /// Mean processing time per increment edge, microseconds.
    pub fn per_edge_us(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.total_process_us / self.edges as f64
        }
    }
}

/// Measures the static baseline: the mean duration of one full
/// from-scratch peel over the **final** graph (initial ++ increments),
/// traversing a CSR snapshot exactly like a tuned static implementation
/// would. Returns mean microseconds over `runs` runs.
pub fn measure_static_baseline(
    kind: MetricKind,
    initial: &[StreamEdge],
    increments: &[StreamEdge],
    runs: usize,
) -> f64 {
    let engine = bootstrap_engine(kind, initial.iter().chain(increments));
    let csr = CsrGraph::from_graph(engine.graph());
    let mut queue = MinQueue::new();
    // Warm-up run, then timed runs.
    let _ = peel_with_queue(&csr, &mut queue);
    let started = Instant::now();
    for _ in 0..runs.max(1) {
        std::hint::black_box(peel_with_queue(&csr, &mut queue));
    }
    started.elapsed().as_secs_f64() * 1e6 / runs.max(1) as f64
}

/// Latency of the static competitor under the paper's model: detection
/// rounds of duration `round_us` run back-to-back; an edge arriving at `t`
/// is reflected by the first round that starts at or after `t` and
/// responded at that round's completion.
pub fn static_latency(increments: &[StreamEdge], round_us: f64) -> LatencyRecorder {
    let mut rec = LatencyRecorder::new();
    let d = round_us.max(1.0) as u64;
    for e in increments {
        let start = e.timestamp.div_ceil(d) * d;
        rec.record(e.timestamp, start, start + d);
    }
    rec
}

/// Replays `increments` in timestamp order with batch size `batch`,
/// measuring processing time per batch and deriving latencies through the
/// simulated clock.
pub fn measure_incremental_replay(
    kind: MetricKind,
    initial: &[StreamEdge],
    increments: &[StreamEdge],
    batch: usize,
) -> ReplayReport {
    let mut engine = bootstrap_engine(kind, initial);
    let mut clock = SimulatedClock::new();
    let mut latency = LatencyRecorder::new();
    let mut total_us = 0.0f64;
    let mut rounds = 0usize;
    let mut buf: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(batch.max(1));

    for chunk in increments.chunks(batch.max(1)) {
        buf.clear();
        buf.extend(chunk.iter().map(|e| (e.src, e.dst, e.raw)));
        let trigger = chunk.last().expect("non-empty chunk").timestamp;
        let t0 = Instant::now();
        engine.insert_batch(&buf).expect("batch insert");
        let dur_us = t0.elapsed().as_secs_f64() * 1e6;
        total_us += dur_us;
        rounds += 1;
        let (start, done) = clock.process(trigger, dur_us.ceil() as u64);
        for e in chunk {
            latency.record(e.timestamp, start.max(e.timestamp), done);
        }
    }
    ReplayReport {
        edges: increments.len(),
        total_process_us: total_us,
        latency,
        stats: engine.total_reorder_stats(),
        rounds,
    }
}

/// Replays `increments` through the edge-grouping buffer (Algorithm 3),
/// measuring per-flush processing and deriving latencies. Returns the
/// report and the engine (for prevention attribution by the caller).
pub fn measure_grouped_replay(
    kind: MetricKind,
    initial: &[StreamEdge],
    increments: &[StreamEdge],
    config: GroupingConfig,
    mut on_flush: impl FnMut(&SpadeEngine<BuiltinMetric>, u64),
) -> ReplayReport {
    let mut engine = bootstrap_engine(kind, initial);
    let mut grouper = EdgeGrouper::new(config);
    let mut clock = SimulatedClock::new();
    let mut latency = LatencyRecorder::new();
    let mut total_us = 0.0f64;
    let mut rounds = 0usize;
    let mut queued: Vec<u64> = Vec::new();

    for e in increments {
        queued.push(e.timestamp);
        let t0 = Instant::now();
        let outcome = grouper.submit(&mut engine, e.src, e.dst, e.raw).expect("submit");
        let dur_us = t0.elapsed().as_secs_f64() * 1e6;
        total_us += dur_us;
        if outcome.flushed.is_some() {
            rounds += 1;
            let (start, done) = clock.process(e.timestamp, dur_us.ceil() as u64);
            for generated in queued.drain(..) {
                latency.record(generated, start.max(generated), done);
            }
            on_flush(&engine, done);
        }
    }
    // Drain the tail at the final stream timestamp.
    if !queued.is_empty() {
        let trigger = increments.last().map(|e| e.timestamp).unwrap_or(0);
        let t0 = Instant::now();
        grouper.flush(&mut engine).expect("flush");
        let dur_us = t0.elapsed().as_secs_f64() * 1e6;
        total_us += dur_us;
        rounds += 1;
        let (start, done) = clock.process(trigger, dur_us.ceil() as u64);
        for generated in queued.drain(..) {
            latency.record(generated, start.max(generated), done);
        }
        on_flush(&engine, done);
    }
    ReplayReport {
        edges: increments.len(),
        total_process_us: total_us,
        latency,
        stats: engine.total_reorder_stats(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_gen::transactions::{TransactionStream, TransactionStreamConfig};

    fn tiny() -> TransactionStream {
        TransactionStream::generate(&TransactionStreamConfig {
            customers: 120,
            merchants: 40,
            transactions: 1_200,
            seed: 13,
            ..Default::default()
        })
    }

    #[test]
    fn incremental_replay_counts_every_edge() {
        let s = tiny();
        let (init, inc) = s.split(0.9);
        for kind in MetricKind::ALL {
            let report = measure_incremental_replay(kind, init, inc, 10);
            assert_eq!(report.edges, inc.len());
            assert_eq!(report.latency.count(), inc.len());
            assert!(report.total_process_us > 0.0);
            assert_eq!(report.rounds, inc.len().div_ceil(10));
        }
    }

    #[test]
    fn grouped_replay_flushes_everything() {
        let s = tiny();
        let (init, inc) = s.split(0.9);
        let mut flushes = 0usize;
        let report =
            measure_grouped_replay(MetricKind::Dw, init, inc, GroupingConfig::default(), |_, _| {
                flushes += 1
            });
        assert_eq!(report.latency.count(), inc.len());
        assert_eq!(report.rounds, flushes);
        assert!(flushes >= 1);
    }

    /// The harness metric must carry DG's set semantics into the grouper:
    /// a pair repeated while it is still buffered is one edge, weight 1.
    #[test]
    fn grouped_dg_dedups_a_pair_repeated_while_buffered() {
        let v = VertexId;
        // A 5-clique (DG density 4) makes a far-away pair benign.
        let clique = (0..5).flat_map(|a| (0..5).filter(move |&b| a != b).map(move |b| (a, b)));
        let initial: Vec<StreamEdge> =
            clique.map(|(a, b)| StreamEdge::organic(v(a), v(b), 1.0, 0)).collect();
        let mut engine = bootstrap_engine(MetricKind::Dg, &initial);
        let mut grouper = EdgeGrouper::new(GroupingConfig::default());
        for _ in 0..2 {
            let out = grouper.submit(&mut engine, v(10), v(11), 1.0).expect("submit");
            assert!(out.flushed.is_none(), "the pair must still be buffered");
        }
        grouper.flush(&mut engine).expect("flush");
        assert_eq!(engine.graph().edge_weight(v(10), v(11)), Some(1.0));
    }

    #[test]
    fn static_baseline_is_positive_and_latency_model_holds() {
        let s = tiny();
        let (init, inc) = s.split(0.9);
        let us = measure_static_baseline(MetricKind::Dg, init, inc, 2);
        assert!(us > 0.0);
        let rec = static_latency(inc, us);
        assert_eq!(rec.count(), inc.len());
        // Every latency lies in [D, 2D).
        let d = us.max(1.0) as u64;
        for &l in rec.latencies() {
            assert!(l >= d && l < 2 * d + 2, "latency {l} outside [{d}, {})", 2 * d);
        }
    }

    #[test]
    fn metric_kind_names() {
        assert_eq!(MetricKind::Dg.name(), "DG");
        assert_eq!(MetricKind::Dw.inc_name(), "IncDW");
        assert_eq!(MetricKind::Fd.grouped_name(), "IncFDG");
    }
}
