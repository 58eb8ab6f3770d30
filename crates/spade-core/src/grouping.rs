//! Edge grouping (paper §4.3, Algorithm 3).
//!
//! Most transactions come from normal users; reordering after every one of
//! them wastes work that later insertions will undo (§4.2's staleness
//! argument). Spade therefore buffers **benign** edges and reorders in
//! batch, while an **urgent** edge — one that could push an endpoint into
//! the densest subgraph — flushes the buffer immediately so potential
//! fraudsters are caught in real time.
//!
//! Definition 4.1: edge `e = (u_i, u_j)` with suspiciousness `c` is
//! *urgent* iff `w_{u_i}(S_0) + c >= g(S_P)` or `w_{u_j}(S_0) + c >= g(S_P)`,
//! where `w(S_0)` is the endpoint's full-set peeling weight and `g(S_P)`
//! the density of the currently detected community. Lemmas 4.3/4.4: a
//! benign insertion cannot put either endpoint into the optimal subgraph,
//! nor produce a denser peeling community containing them — postponing it
//! is safe.
//!
//! Implementation notes: suspiciousness is evaluated once, at arrival, and
//! reused at flush (the streaming semantics of [`crate::metric`]) — by the
//! engine's own staging checks ([`SpadeEngine::evaluate`]), so the grouper
//! refuses exactly what a direct insertion would; the urgency test
//! optionally counts the buffered-but-uninserted weight of each endpoint
//! (`include_pending`, default on) so a burst of buffered transactions
//! onto one vertex cannot hide below the threshold.

use crate::engine::SpadeEngine;
use crate::metric::DensityMetric;
use crate::state::Detection;
use spade_graph::hash::{FxHashMap, FxHashSet};
use spade_graph::{EdgeRef, GraphError, VertexId};

/// Configuration of the edge-grouping buffer.
#[derive(Clone, Copy, Debug)]
pub struct GroupingConfig {
    /// Flush when the buffer reaches this many edges (0 = unbounded, flush
    /// only on urgent edges or manually).
    pub max_buffer: usize,
    /// Count buffered-but-uninserted edge weight toward the urgency test.
    pub include_pending: bool,
}

impl Default for GroupingConfig {
    fn default() -> Self {
        GroupingConfig { max_buffer: 0, include_pending: true }
    }
}

/// Why a flush happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// An urgent edge arrived (Definition 4.1).
    Urgent,
    /// The buffer hit `max_buffer`.
    Capacity,
    /// The caller invoked [`EdgeGrouper::flush`] (e.g. from `Detect`).
    Manual,
}

/// Result of submitting one transaction to the grouping layer.
#[derive(Clone, Copy, Debug)]
pub struct SubmitOutcome {
    /// Whether the edge classified as urgent.
    pub urgent: bool,
    /// Detection after the flush this submission triggered, if any.
    pub flushed: Option<(FlushReason, Detection)>,
    /// Edges sitting in the buffer after this submission.
    pub buffered: usize,
}

/// Cumulative grouping statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct GroupingStats {
    /// Transactions submitted.
    pub submitted: usize,
    /// Transactions classified urgent.
    pub urgent: usize,
    /// Flushes performed, by any reason.
    pub flushes: usize,
    /// Total edges that went through a flush.
    pub flushed_edges: usize,
}

/// The edge-grouping buffer in front of a [`SpadeEngine`].
#[derive(Debug, Default)]
pub struct EdgeGrouper {
    config: GroupingConfig,
    /// Buffered edges with their arrival-time suspiciousness.
    buffer: Vec<(VertexId, VertexId, f64)>,
    /// Per-vertex buffered incident weight (for `include_pending`).
    pending: FxHashMap<u32, f64>,
    /// Ordered pairs sitting in the buffer (dedup for set-semantics
    /// metrics whose duplicates are redundant).
    buffered_pairs: FxHashSet<u64>,
    stats: GroupingStats,
}

impl EdgeGrouper {
    /// Creates a grouper with the given configuration.
    pub fn new(config: GroupingConfig) -> Self {
        EdgeGrouper { config, ..Default::default() }
    }

    /// Number of edges currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// The grouper's configuration.
    pub fn config(&self) -> GroupingConfig {
        self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> GroupingStats {
        self.stats
    }

    /// Submits one transaction: classifies it (Definition 4.1), buffers it,
    /// and flushes through `engine` if it was urgent or the buffer filled.
    pub fn submit<M: DensityMetric>(
        &mut self,
        engine: &mut SpadeEngine<M>,
        src: VertexId,
        dst: VertexId,
        raw: f64,
    ) -> Result<SubmitOutcome, GraphError> {
        let c = engine.evaluate(src, dst, raw)?; // a refusal is never buffered
        self.stats.submitted += 1;
        let pair = EdgeRef::new(src, dst).packed();
        let redundant = c == 0.0
            || (!engine.metric().accumulates_duplicates() && self.buffered_pairs.contains(&pair));
        if redundant {
            // Redundant under the metric's set semantics (the pair exists
            // in the graph, or already waits in the buffer) — nothing to
            // buffer or flush.
            return Ok(SubmitOutcome { urgent: false, flushed: None, buffered: self.buffer.len() });
        }

        let threshold = engine.cached_detection().density;
        let urgent = self.is_urgent(engine, src, dst, c, threshold);
        self.buffer.push((src, dst, c));
        self.buffered_pairs.insert(pair);
        if self.config.include_pending {
            *self.pending.entry(src.0).or_insert(0.0) += c;
            *self.pending.entry(dst.0).or_insert(0.0) += c;
        }

        let flushed = if urgent {
            self.stats.urgent += 1;
            Some((FlushReason::Urgent, self.flush(engine)?))
        } else if self.config.max_buffer > 0 && self.buffer.len() >= self.config.max_buffer {
            Some((FlushReason::Capacity, self.flush(engine)?))
        } else {
            None
        };
        Ok(SubmitOutcome { urgent, flushed, buffered: self.buffer.len() })
    }

    /// `IsBenign` (negated): Definition 4.1 against the engine's current
    /// detection density.
    fn is_urgent<M: DensityMetric>(
        &self,
        engine: &SpadeEngine<M>,
        src: VertexId,
        dst: VertexId,
        c: f64,
        threshold: f64,
    ) -> bool {
        let pending = |v: VertexId| {
            if self.config.include_pending {
                self.pending.get(&v.0).copied().unwrap_or(0.0)
            } else {
                0.0
            }
        };
        let w_src = engine.graph().incident_weight(src) + pending(src);
        let w_dst = engine.graph().incident_weight(dst) + pending(dst);
        w_src + c >= threshold || w_dst + c >= threshold
    }

    /// Flushes the buffer into the engine (one batch reorder), returning
    /// the post-flush detection. No-op returning the cached detection when
    /// the buffer is empty. Never fails: submit refused every bad edge.
    pub fn flush<M: DensityMetric>(
        &mut self,
        engine: &mut SpadeEngine<M>,
    ) -> Result<Detection, GraphError> {
        if self.buffer.is_empty() {
            return Ok(engine.cached_detection());
        }
        self.stats.flushes += 1;
        self.stats.flushed_edges += self.buffer.len();
        let (det, _) = engine.insert_batch_weighted(&self.buffer);
        self.buffer.clear();
        self.pending.clear();
        self.buffered_pairs.clear();
        Ok(det)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::WeightedDensity;
    use crate::peel::peel;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Engine with an established dense community (density 12) plus sparse
    /// background so benign traffic exists.
    fn engine_with_community() -> SpadeEngine<WeightedDensity> {
        let mut e = SpadeEngine::new(WeightedDensity);
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    e.insert_edge(v(a), v(b), 4.0).unwrap();
                }
            }
        }
        for i in 4..10u32 {
            e.insert_edge(v(i), v(i + 1), 0.5).unwrap();
        }
        e
    }

    #[test]
    fn benign_edges_buffer_without_reordering() {
        let mut e = engine_with_community();
        let threshold = e.detect().density;
        assert!(threshold > 4.0);
        let mut g = EdgeGrouper::new(GroupingConfig::default());
        // A tiny transaction between two background users is benign.
        let out = g.submit(&mut e, v(5), v(8), 0.1).unwrap();
        assert!(!out.urgent);
        assert!(out.flushed.is_none());
        assert_eq!(out.buffered, 1);
        assert_eq!(g.buffered(), 1);
        // The graph has not yet seen the edge.
        assert!(e.graph().edge_weight(v(5), v(8)).is_none());
    }

    #[test]
    fn urgent_edge_flushes_immediately() {
        let mut e = engine_with_community();
        let mut g = EdgeGrouper::new(GroupingConfig::default());
        g.submit(&mut e, v(5), v(8), 0.1).unwrap();
        // A massive transaction towards the dense block is urgent.
        let out = g.submit(&mut e, v(5), v(0), 50.0).unwrap();
        assert!(out.urgent);
        let (reason, det) = out.flushed.unwrap();
        assert_eq!(reason, FlushReason::Urgent);
        assert!(det.size > 0);
        assert_eq!(g.buffered(), 0);
        // Both buffered edges landed in the graph.
        assert!(e.graph().edge_weight(v(5), v(8)).is_some());
        assert!(e.graph().edge_weight(v(5), v(0)).is_some());
        // State stayed exact.
        assert_eq!(e.state().logical_order(), peel(e.graph()).order);
    }

    #[test]
    fn capacity_flush() {
        let mut e = engine_with_community();
        let mut g = EdgeGrouper::new(GroupingConfig { max_buffer: 3, include_pending: true });
        g.submit(&mut e, v(5), v(8), 0.1).unwrap();
        g.submit(&mut e, v(6), v(9), 0.1).unwrap();
        let out = g.submit(&mut e, v(7), v(10), 0.1).unwrap();
        assert!(!out.urgent);
        assert_eq!(out.flushed.unwrap().0, FlushReason::Capacity);
        assert_eq!(g.buffered(), 0);
        assert_eq!(g.stats().flushes, 1);
        assert_eq!(g.stats().flushed_edges, 3);
    }

    #[test]
    fn manual_flush_applies_buffer() {
        let mut e = engine_with_community();
        let before_edges = e.graph().num_edges();
        let mut g = EdgeGrouper::new(GroupingConfig::default());
        g.submit(&mut e, v(5), v(8), 0.1).unwrap();
        g.submit(&mut e, v(8), v(5), 0.1).unwrap();
        let det = g.flush(&mut e).unwrap();
        assert_eq!(e.graph().num_edges(), before_edges + 2);
        assert!(det.size > 0);
        assert_eq!(g.buffered(), 0);
        // Flushing an empty buffer is a no-op.
        let again = g.flush(&mut e).unwrap();
        assert_eq!(again.size, det.size);
        assert_eq!(g.stats().flushes, 1);
    }

    #[test]
    fn pending_weight_accumulation_triggers_urgency() {
        let mut e = engine_with_community();
        let threshold = e.detect().density;
        let mut g = EdgeGrouper::new(GroupingConfig::default());
        // Individually benign, but the accumulated pending weight on v20
        // crosses the threshold.
        let each = threshold / 4.0;
        let mut fired = false;
        for i in 0..10u32 {
            let out = g.submit(&mut e, v(20), v(30 + i), each).unwrap();
            if out.urgent {
                fired = true;
                break;
            }
        }
        assert!(fired, "pending accumulation never triggered urgency");

        // Without pending accounting the same traffic stays buffered.
        let mut e2 = engine_with_community();
        let mut g2 = EdgeGrouper::new(GroupingConfig { max_buffer: 0, include_pending: false });
        for i in 0..10u32 {
            let out = g2.submit(&mut e2, v(20), v(30 + i), each).unwrap();
            assert!(!out.urgent);
        }
        assert_eq!(g2.buffered(), 10);
    }

    #[test]
    fn grouped_stream_matches_eager_insertion_after_flush() {
        let mut eager = engine_with_community();
        let mut grouped = engine_with_community();
        let mut g = EdgeGrouper::new(GroupingConfig::default());
        let stream = [
            (v(5), v(8), 0.2),
            (v(6), v(4), 0.3),
            (v(9), v(10), 0.1),
            (v(0), v(5), 9.0), // urgent
            (v(7), v(8), 0.2),
        ];
        for &(a, b, w) in &stream {
            eager.insert_edge(a, b, w).unwrap();
            g.submit(&mut grouped, a, b, w).unwrap();
        }
        g.flush(&mut grouped).unwrap();
        assert_eq!(eager.state().logical_order(), grouped.state().logical_order());
        assert_eq!(eager.detect(), grouped.detect());
    }

    #[test]
    fn self_loops_are_rejected_at_submit_not_buffered() {
        // Buffering a self-loop would poison the whole flush batch; it
        // must be rejected up front (after vertex materialization,
        // matching the per-edge engine path) while serving continues.
        let mut e = engine_with_community();
        let mut g = EdgeGrouper::new(GroupingConfig::default());
        g.submit(&mut e, v(5), v(8), 0.2).unwrap();
        assert!(matches!(
            g.submit(&mut e, v(6), v(6), 1.0),
            Err(GraphError::SelfLoop { vertex: VertexId(6) })
        ));
        assert_eq!(g.buffered(), 1);
        // The flush still applies the healthy buffered edge.
        g.flush(&mut e).unwrap();
        assert!(e.graph().edge_weight(v(5), v(8)).is_some());
        assert_eq!(e.state().logical_order(), peel(e.graph()).order);
    }

    #[test]
    fn rejects_bad_suspiciousness_without_buffering() {
        let mut e = engine_with_community();
        let mut g = EdgeGrouper::new(GroupingConfig::default());
        assert!(g.submit(&mut e, v(1), v(2), -1.0).is_err());
        assert_eq!(g.buffered(), 0);
        assert_eq!(g.stats().submitted, 0);
    }

    #[test]
    fn zero_suspiciousness_submission_is_noop() {
        let mut e = SpadeEngine::new(crate::metric::UnweightedDensity);
        e.insert_edge(v(0), v(1), 1.0).unwrap();
        let mut g = EdgeGrouper::new(GroupingConfig::default());
        // Duplicate pair under DG set semantics: nothing buffered.
        let out = g.submit(&mut e, v(0), v(1), 1.0).unwrap();
        assert!(!out.urgent);
        assert!(out.flushed.is_none());
        assert_eq!(g.buffered(), 0);
        assert_eq!(g.stats().submitted, 1);
    }
}
