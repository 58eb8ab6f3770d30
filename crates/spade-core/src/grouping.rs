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
//! refuses exactly what a direct insertion would; the urgency test counts
//! the staged-but-uninserted weight of each endpoint, so a burst of staged
//! transactions onto one vertex cannot hide below the threshold.
//!
//! The staged edges live in one `Stage`, which the service worker owns
//! too: without grouping it holds raw weights for the drain-coalesced
//! batch, with grouping the classified `c`. [`EdgeGrouper`] is the
//! standalone form — a stage that settles on urgent edges and on
//! [`EdgeGrouper::flush`].

use crate::engine::SpadeEngine;
use crate::metric::DensityMetric;
use crate::state::Detection;
use spade_graph::hash::{FxHashMap, FxHashSet};
use spade_graph::{EdgeRef, GraphError, VertexId};

/// Configuration of the edge-grouping layer. It has no knobs: the stage
/// settles on urgent edges, and a service worker also caps it at
/// [`crate::IngestConfig::coalesce`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GroupingConfig {}

/// Result of submitting one transaction to the grouping layer.
#[derive(Clone, Copy, Debug)]
pub struct SubmitOutcome {
    /// Whether the edge classified as urgent.
    pub urgent: bool,
    /// Detection after the flush this (urgent) submission triggered.
    pub flushed: Option<Detection>,
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
    /// Flushes performed, urgent or manual.
    pub flushes: usize,
    /// Total edges that went through a flush.
    pub flushed_edges: usize,
}

/// What staging one transaction did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Staged {
    /// Staged; it applies when the stage settles.
    Held,
    /// Staged and urgent under Definition 4.1: settle now.
    Urgent,
    /// Redundant under the metric's set semantics: nothing staged.
    Redundant,
}

/// The edges staged for one apply pass — the one staging buffer of both
/// the service worker and [`EdgeGrouper`]. The default stage groups.
#[derive(Debug, Default)]
pub(crate) struct Stage {
    /// Stage raw weights, which the metric evaluates at apply time (§4.2
    /// exactness for graph-dependent metrics such as Fraudar); otherwise
    /// classify at arrival (Definition 4.1) and stage `c`.
    raw: bool,
    edges: Vec<(VertexId, VertexId, f64)>,
    /// Per-vertex staged incident weight (grouping only).
    weight: FxHashMap<u32, f64>,
    /// Ordered pairs staged (grouping only): dedup for set-semantics
    /// metrics whose duplicates are redundant.
    pairs: FxHashSet<u64>,
}

impl Stage {
    pub(crate) fn new(grouped: bool) -> Self {
        Stage { raw: !grouped, ..Stage::default() }
    }

    pub(crate) fn grouped(&self) -> bool {
        !self.raw
    }

    pub(crate) fn len(&self) -> usize {
        self.edges.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Stages one transaction. Ungrouped, it is held as is; grouped, it
    /// is evaluated and classified first, and a refusal is never staged.
    pub(crate) fn push<M: DensityMetric>(
        &mut self,
        engine: &mut SpadeEngine<M>,
        src: VertexId,
        dst: VertexId,
        raw: f64,
    ) -> Result<Staged, GraphError> {
        if self.raw {
            self.edges.push((src, dst, raw));
            return Ok(Staged::Held);
        }
        let c = engine.evaluate(src, dst, raw)?;
        let pair = EdgeRef::new(src, dst).packed();
        if c == 0.0 || (!engine.metric().accumulates_duplicates() && self.pairs.contains(&pair)) {
            // The pair exists in the graph, or already waits in the stage.
            return Ok(Staged::Redundant);
        }
        // `IsBenign` (negated): Definition 4.1 against the current
        // detection density, counting each endpoint's staged weight.
        let threshold = engine.cached_detection().density;
        let staged = |v: VertexId| {
            engine.graph().incident_weight(v) + self.weight.get(&v.0).copied().unwrap_or(0.0)
        };
        let urgent = staged(src) + c >= threshold || staged(dst) + c >= threshold;
        self.edges.push((src, dst, c));
        self.pairs.insert(pair);
        *self.weight.entry(src.0).or_insert(0.0) += c;
        *self.weight.entry(dst.0).or_insert(0.0) += c;
        Ok(if urgent { Staged::Urgent } else { Staged::Held })
    }

    /// Applies the stage as one batch insertion (one reorder pass) and
    /// empties it. Returns the detection and the refused edges' count.
    pub(crate) fn apply<M: DensityMetric>(
        &mut self,
        engine: &mut SpadeEngine<M>,
    ) -> (Detection, u64) {
        let applied = if self.raw {
            engine.insert_batch_tolerant(&self.edges)
        } else {
            engine.insert_batch_weighted(&self.edges)
        };
        self.edges.clear();
        self.weight.clear();
        self.pairs.clear();
        applied
    }
}

/// The edge-grouping buffer in front of a [`SpadeEngine`].
#[derive(Debug, Default)]
pub struct EdgeGrouper {
    stage: Stage,
    stats: GroupingStats,
}

impl EdgeGrouper {
    /// Creates a grouper (`GroupingConfig` has no knobs to apply).
    pub fn new(_config: GroupingConfig) -> Self {
        Self::default()
    }

    /// Number of edges currently buffered.
    pub fn buffered(&self) -> usize {
        self.stage.len()
    }

    /// The grouper's configuration.
    pub fn config(&self) -> GroupingConfig {
        GroupingConfig::default()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> GroupingStats {
        self.stats
    }

    /// Submits one transaction: classifies it (Definition 4.1), buffers it,
    /// and flushes through `engine` if it was urgent.
    pub fn submit<M: DensityMetric>(
        &mut self,
        engine: &mut SpadeEngine<M>,
        src: VertexId,
        dst: VertexId,
        raw: f64,
    ) -> Result<SubmitOutcome, GraphError> {
        let urgent = self.stage.push(engine, src, dst, raw)? == Staged::Urgent;
        self.stats.submitted += 1;
        self.stats.urgent += usize::from(urgent);
        let flushed = if urgent { Some(self.flush(engine)?) } else { None };
        Ok(SubmitOutcome { urgent, flushed, buffered: self.stage.len() })
    }

    /// Flushes the buffer into the engine (one batch reorder), returning
    /// the post-flush detection. No-op returning the cached detection when
    /// the buffer is empty. Never fails: submit refused every bad edge.
    pub fn flush<M: DensityMetric>(
        &mut self,
        engine: &mut SpadeEngine<M>,
    ) -> Result<Detection, GraphError> {
        if self.stage.is_empty() {
            return Ok(engine.cached_detection());
        }
        self.stats.flushes += 1;
        self.stats.flushed_edges += self.stage.len();
        Ok(self.stage.apply(engine).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpadeConfig;
    use crate::metric::{BuiltinMetric, WeightedDensity};
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
        let det = out.flushed.unwrap();
        assert!(det.size > 0);
        assert_eq!(g.buffered(), 0);
        // Both buffered edges landed in the graph.
        assert!(e.graph().edge_weight(v(5), v(8)).is_some());
        assert!(e.graph().edge_weight(v(5), v(0)).is_some());
        // State stayed exact.
        assert_eq!(e.state().logical_order(), peel(e.graph()).order);
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

    /// DG's set semantics carry into the grouper: a pair repeated while
    /// it is still buffered is one edge, weight 1.
    #[test]
    fn grouped_dg_dedups_a_pair_repeated_while_buffered() {
        // A 5-clique (DG density 4) makes a far-away pair benign.
        let clique = (0..5).flat_map(|a| (0..5).filter(move |&b| a != b).map(move |b| (a, b)));
        let initial = clique.map(|(a, b)| (v(a), v(b), 1.0));
        let metric = BuiltinMetric::from_name("dg").expect("dg is a built-in metric");
        let mut engine = SpadeEngine::bootstrap(metric, SpadeConfig::default(), initial)
            .expect("bootstrap a 5-clique");
        let mut grouper = EdgeGrouper::new(GroupingConfig::default());
        for _ in 0..2 {
            let out = grouper.submit(&mut engine, v(10), v(11), 1.0).expect("submit");
            assert!(out.flushed.is_none(), "the pair must still be buffered");
        }
        grouper.flush(&mut engine).expect("flush");
        assert_eq!(engine.graph().edge_weight(v(10), v(11)), Some(1.0));
    }
}
