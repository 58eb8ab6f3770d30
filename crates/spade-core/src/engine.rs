//! The Spade engine: evolving graph + peeling state + density metric +
//! detection index, glued by the incremental reordering passes.
//!
//! This is the layer the paper's architecture diagram (Fig. 4) calls the
//! "Spade engine": it owns the transaction graph, keeps the peeling
//! sequence and weights up to date on every update (auto-
//! incrementalization), and answers `Detect` in O(1) from the kinetic
//! tournament over 64-slot blocks it maintains beside them
//! ([`crate::kinetic`]: a reorder window writes its blocks' suffix values
//! and only a block whose density bound reaches the best is scanned; the
//! O(n) rescan [`PeelingState::scan_detect`] stays as the reference the
//! tests compare it with). The thin, paper-faithful `Spade` facade
//! (`crate::spade`) and the edge-grouping layer (`crate::grouping`) sit on
//! top.
//!
//! Every insertion has one core: **stage** each edge (materialize both
//! endpoints, evaluate the metric or take a final weight, refuse a
//! self-loop or a non-finite or negative value, write the graph; a
//! refused edge is skipped, counted and remembered), then **commit**
//! once, always (one reorder, one detection refresh), so graph and peel
//! cannot disagree. The entries differ only in how they report refusals;
//! [`SpadeEngine::evaluate`] runs the checks without the graph write.

use crate::kinetic::KineticIndex;
use crate::metric::DensityMetric;
use crate::peel::peel;
use crate::reorder::{reorder, ReorderScratch, ReorderStats};
use crate::state::{Detection, PeelingState};
use spade_graph::hash::FxHashMap;
use spade_graph::{DynamicGraph, EdgeRef, GraphError, VertexId};
use std::cmp::min_by_key;

/// One transaction: `(src, dst, raw attribute or final suspiciousness)`.
type Edge = (VertexId, VertexId, f64);

/// Engine configuration — field-less: every engine maintains the kinetic
/// index, so there is nothing to configure. The type survives only
/// because `bench_stack` (frozen under `benchmark/`) passes
/// `SpadeConfig::default()` to [`SpadeEngine::bootstrap`]; the
/// constructors that take one ignore it.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpadeConfig {}

/// The auto-incrementalized peeling engine.
///
/// Generic over the density metric `M`, so the metric's suspiciousness
/// functions inline into the hot paths. Cloning deep-copies the engine —
/// the moderator's "what-if" tool: clone, apply hypothetical
/// transactions, inspect the detection, discard.
#[derive(Clone, Debug)]
pub struct SpadeEngine<M: DensityMetric> {
    graph: DynamicGraph,
    state: PeelingState,
    metric: M,
    kinetic: KineticIndex,
    detection: Detection,
    scratch: ReorderScratch,
    blacks_buf: Vec<VertexId>,
    /// Reusable batch scratch: within-batch duplicate-pair coalescing.
    coalesce_buf: Vec<Edge>,
    /// Reusable batch scratch: packed pair → `coalesce_buf` slot.
    pair_index: FxHashMap<u64, usize>,
    last_stats: ReorderStats,
    total_stats: ReorderStats,
}

impl<M: DensityMetric> SpadeEngine<M> {
    /// Creates an empty engine.
    pub fn new(metric: M) -> Self {
        SpadeEngine {
            graph: DynamicGraph::new(),
            state: PeelingState::new(),
            metric,
            kinetic: KineticIndex::new(),
            detection: Detection::EMPTY,
            scratch: ReorderScratch::new(),
            blacks_buf: Vec::new(),
            coalesce_buf: Vec::new(),
            pair_index: FxHashMap::default(),
            last_stats: ReorderStats::default(),
            total_stats: ReorderStats::default(),
        }
    }

    /// Bootstraps an engine from an initial transaction log by staging it
    /// edge-by-edge into a bare graph (streaming suspiciousness semantics,
    /// no peeling state yet) and then running **one** static peel — the
    /// `LoadGraph` path of Listing 1. The first refused edge aborts it.
    pub fn bootstrap(
        metric: M,
        _config: SpadeConfig,
        edges: impl IntoIterator<Item = Edge>,
    ) -> Result<Self, GraphError> {
        let mut engine = Self::new(metric);
        let mut graph = DynamicGraph::new();
        for (src, dst, raw) in edges {
            stage(&mut graph, &engine.metric, src, dst, raw, M::edge_susp)?;
        }
        engine.reload_graph(graph);
        Ok(engine)
    }

    /// Rehydrates an engine from a previously captured graph + peeling
    /// state (the snapshot path of [`crate::persist`]) **without** running
    /// a static peel. The caller asserts that `state` is a valid greedy
    /// peel of `graph`; `PeelingState::validate_greedy` checks it in tests.
    pub fn from_parts(
        graph: DynamicGraph,
        state: PeelingState,
        metric: M,
        _config: SpadeConfig,
    ) -> Self {
        debug_assert_eq!(state.len(), graph.num_vertices());
        let mut engine = Self::new(metric);
        engine.kinetic.reset(state.delta_phys());
        engine.detection = engine.kinetic.best();
        engine.graph = graph;
        engine.state = state;
        engine
    }

    /// Replaces the engine's graph with `graph` — whose weights must
    /// already be final suspiciousness values — and re-peels it in place.
    /// The engine value is recycled: metric, kinetic index and reorder
    /// scratch buffers all survive, so a repair pass can run
    /// many union re-peels through one borrowed scratch engine instead of
    /// constructing a fresh engine per union.
    pub fn reload_graph(&mut self, graph: DynamicGraph) {
        let outcome = peel(&graph);
        self.state = PeelingState::from_outcome(&outcome);
        self.graph = graph;
        self.kinetic.reset(self.state.delta_phys());
        self.detection = self.kinetic.best();
    }

    /// The underlying graph (read-only).
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The live peeling state (read-only).
    pub fn state(&self) -> &PeelingState {
        &self.state
    }

    /// The configured metric.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Counters from the most recent reordering pass.
    pub fn last_reorder_stats(&self) -> ReorderStats {
        self.last_stats
    }

    /// Cumulative reordering counters since construction.
    pub fn total_reorder_stats(&self) -> ReorderStats {
        self.total_stats
    }

    /// The current detection through a shared reference. Every update
    /// refreshes it from the kinetic index, so it is never stale.
    pub fn cached_detection(&self) -> Detection {
        self.detection
    }

    /// The current fraudulent community descriptor. O(1): every update
    /// already refreshed it from the kinetic index.
    pub fn detect(&mut self) -> Detection {
        self.detection
    }

    /// The members of a detected community (the `size` densest-end
    /// vertices of the peeling sequence). O(1) slice.
    pub fn community(&self, detection: Detection) -> &[VertexId] {
        self.state.community(detection.size)
    }

    /// Materializes `v` (and any implied lower ids) in graph, state and
    /// index, assigning vertex suspiciousness on first sight — the
    /// edge-grouping buffer uses this so that urgency classification can
    /// read `w_u(S_0)` for endpoints it has not inserted yet.
    pub fn ensure_vertex(&mut self, v: VertexId) -> Result<(), GraphError> {
        let result = materialize(&mut self.graph, &self.metric, v);
        self.track_new_vertices();
        result
    }

    /// Enters every vertex the graph holds beyond the peeling state at the
    /// head of the sequence (§4.1) with its isolated weight `a_u` (0 if
    /// its prior was refused), so graph and peel cover the same vertices.
    fn track_new_vertices(&mut self) {
        for i in self.state.len()..self.graph.num_vertices() {
            let u = VertexId::from_index(i);
            let a = self.graph.vertex_weight(u);
            self.state.push_front(u, a);
            self.kinetic.append(a);
        }
    }

    /// The staging checks of one transaction without the graph write:
    /// returns its suspiciousness `c` (0 = redundant) or the refusal. The
    /// edge-grouping buffer classifies with this at arrival time and later
    /// inserts `c` through [`insert_batch_weighted`](Self::insert_batch_weighted).
    pub fn evaluate(&mut self, src: VertexId, dst: VertexId, raw: f64) -> Result<f64, GraphError> {
        let c = check(&mut self.graph, &self.metric, src, dst, raw, M::edge_susp);
        self.track_new_vertices();
        c
    }

    /// Inserts one transaction, reorders the affected window, and returns
    /// the (possibly updated) detection — the paper's `InsertEdge`, a
    /// one-edge [`insert_batch`](Self::insert_batch).
    ///
    /// A metric may return suspiciousness 0 to declare the transaction
    /// *redundant* (e.g. DG/FD set semantics for repeated pairs); the
    /// insertion is then a no-op.
    pub fn insert_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        raw: f64,
    ) -> Result<Detection, GraphError> {
        self.insert_batch(&[(src, dst, raw)])
    }

    /// Inserts a batch of transactions and reorders **once** (Algorithm 2)
    /// — the paper's `InsertBatchEdges`. A refused transaction does not
    /// stop the others: they are applied and committed, then the first
    /// refusal is returned as the error.
    pub fn insert_batch(&mut self, edges: &[Edge]) -> Result<Detection, GraphError> {
        let (det, _, first_refusal) = self.insert_staged(edges, M::edge_susp);
        first_refusal.map_or(Ok(det), Err)
    }

    /// [`insert_batch`](Self::insert_batch) that returns the detection and
    /// the refusal count — the service worker's drain-coalescing entry.
    pub fn insert_batch_tolerant(&mut self, edges: &[Edge]) -> (Detection, u64) {
        let (det, refused, _) = self.insert_staged(edges, M::edge_susp);
        (det, refused)
    }

    /// [`insert_batch_tolerant`](Self::insert_batch_tolerant) for final
    /// suspiciousness values (no metric runs): the grouping flush.
    /// Duplicate `(src, dst)` pairs are pre-coalesced —
    /// accumulation is linear once `c` is known. (The metric-evaluating
    /// path cannot coalesce: `edge_susp` reads the evolving graph.)
    pub fn insert_batch_weighted(&mut self, edges: &[Edge]) -> (Detection, u64) {
        let mut coalesced = std::mem::take(&mut self.coalesce_buf);
        coalesce_pairs(edges, &mut coalesced, &mut self.pair_index);
        let (det, refused, _) = self.insert_staged(&coalesced, |_, _, _, c, _| c);
        self.coalesce_buf = coalesced;
        (det, refused)
    }

    /// The insertion core: stages every edge (`weigh` gives its
    /// suspiciousness), seeding `ΔV` with the earlier-peeled endpoint of
    /// each one that landed, then commits once whatever was refused.
    /// Returns the detection, the refusal count and the first refusal.
    fn insert_staged(
        &mut self,
        edges: &[Edge],
        weigh: impl Fn(&M, VertexId, VertexId, f64, &DynamicGraph) -> f64 + Copy,
    ) -> (Detection, u64, Option<GraphError>) {
        self.blacks_buf.clear();
        let (mut refused, mut first_refusal) = (0, None);
        for &(src, dst, raw) in edges {
            let landed = stage(&mut self.graph, &self.metric, src, dst, raw, weigh);
            self.track_new_vertices();
            match landed {
                // Ranks survive head insertions: this is the commit's order.
                Ok(true) => {
                    self.blacks_buf.push(min_by_key(src, dst, |&u| self.state.position_of(u)))
                }
                Ok(false) => {} // redundant under the metric's set semantics
                Err(e) => {
                    refused += 1;
                    first_refusal.get_or_insert(e);
                }
            }
        }
        self.run_reorder();
        (self.refresh_detection(), refused, first_refusal)
    }

    fn run_reorder(&mut self) {
        let kinetic = &mut self.kinetic;
        let stats = reorder(
            &self.graph,
            &mut self.state,
            &mut self.blacks_buf,
            &mut self.scratch,
            |lo, ws| kinetic.rewrite_deltas(lo, ws),
        );
        self.last_stats = stats;
        self.total_stats.merge(stats);
    }

    fn refresh_detection(&mut self) -> Detection {
        self.detection = self.kinetic.best();
        self.detection
    }

    /// Removes an accumulated edge entirely and reorders (Appendix C.1).
    pub fn delete_edge(&mut self, src: VertexId, dst: VertexId) -> Result<Detection, GraphError> {
        let w = self.graph.edge_weight(src, dst).ok_or(GraphError::EdgeNotFound { src, dst })?;
        self.delete_transaction(src, dst, w)
    }

    /// Removes `amount` of suspiciousness from edge `(src, dst)` —
    /// deleting it entirely when `amount` equals its accumulated weight —
    /// and reorders (Appendix C.1 generalized to transaction granularity).
    pub fn delete_transaction(
        &mut self,
        src: VertexId,
        dst: VertexId,
        amount: f64,
    ) -> Result<Detection, GraphError> {
        let kinetic = &mut self.kinetic;
        let stats = crate::deletion::delete_and_reorder(
            &mut self.graph,
            &mut self.state,
            &mut self.scratch,
            src,
            dst,
            amount,
            |lo, ws| kinetic.rewrite_deltas(lo, ws),
        )?;
        self.last_stats = stats;
        self.total_stats.merge(stats);
        Ok(self.refresh_detection())
    }

    /// Updates the prior suspiciousness of `v` from fresh side information
    /// and reorders as needed. Increases run through the insertion merge
    /// (the vertex can only move later); decreases through the deletion
    /// pass (it can only move earlier). An invalid `a` (NaN, infinite or
    /// negative) is refused before anything changes.
    pub fn set_vertex_suspiciousness(
        &mut self,
        v: VertexId,
        a: f64,
    ) -> Result<Detection, GraphError> {
        DynamicGraph::check_vertex_weight(v, a)?;
        self.ensure_vertex(v)?;
        let old = self.graph.vertex_weight(v);
        if a > old {
            self.graph.set_vertex_weight(v, a)?;
            self.blacks_buf.clear();
            self.blacks_buf.push(v);
            self.run_reorder();
        } else if a < old {
            let kinetic = &mut self.kinetic;
            let stats = crate::deletion::decrease_vertex_weight_and_reorder(
                &mut self.graph,
                &mut self.state,
                &mut self.scratch,
                v,
                a,
                |lo, ws| kinetic.rewrite_deltas(lo, ws),
            )?;
            self.last_stats = stats;
            self.total_stats.merge(stats);
        }
        Ok(self.refresh_detection())
    }
}

/// Grows `graph` so that `v` exists, giving each created vertex its prior
/// `a_u` under `metric`. A refused prior leaves its vertex at weight 0;
/// the first one is returned as the error.
fn materialize<M: DensityMetric>(
    graph: &mut DynamicGraph,
    metric: &M,
    v: VertexId,
) -> Result<(), GraphError> {
    let created = graph.ensure_vertex(v);
    let mut result = Ok(());
    for i in graph.num_vertices() - created..graph.num_vertices() {
        let u = VertexId::from_index(i);
        let a = metric.vertex_susp(u, graph);
        result = result.and(graph.set_vertex_weight(u, a));
    }
    result
}

/// The staging checks: materialize both endpoints in `graph`, weigh the
/// edge, refuse what no edge may carry. Returns the suspiciousness.
fn check<M: DensityMetric>(
    graph: &mut DynamicGraph,
    metric: &M,
    src: VertexId,
    dst: VertexId,
    raw: f64,
    weigh: impl Fn(&M, VertexId, VertexId, f64, &DynamicGraph) -> f64,
) -> Result<f64, GraphError> {
    materialize(graph, metric, src)?;
    materialize(graph, metric, dst)?;
    let c = weigh(metric, src, dst, raw, graph);
    validate_susp(src, dst, c)?;
    Ok(c)
}

/// Stages one transaction: [`check`], then write it. Returns whether an
/// edge landed.
#[inline]
fn stage<M: DensityMetric>(
    graph: &mut DynamicGraph,
    metric: &M,
    src: VertexId,
    dst: VertexId,
    raw: f64,
    weigh: impl Fn(&M, VertexId, VertexId, f64, &DynamicGraph) -> f64,
) -> Result<bool, GraphError> {
    let c = check(graph, metric, src, dst, raw, weigh)?;
    if c == 0.0 {
        return Ok(false);
    }
    graph.insert_edge(src, dst, c)?;
    Ok(true)
}

/// Sums duplicate ordered `(src, dst)` pairs of a final-weight batch into
/// `out`, keeping first-occurrence order (so vertex materialization order
/// is identical to the sequential path). An entry staging would refuse
/// passes through alone, so no malformed weight hides in an aggregate.
/// `index` is caller-owned scratch so frequent flushes pay no allocation.
fn coalesce_pairs(edges: &[Edge], out: &mut Vec<Edge>, index: &mut FxHashMap<u64, usize>) {
    out.clear();
    index.clear();
    for &(src, dst, c) in edges {
        if validate_susp(src, dst, c).is_err() {
            out.push((src, dst, c));
            continue;
        }
        match index.entry(EdgeRef::new(src, dst).packed()) {
            std::collections::hash_map::Entry::Occupied(slot) => out[*slot.get()].2 += c,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(out.len());
                out.push((src, dst, c));
            }
        }
    }
}

/// The one validation of edge suspiciousness: refuses a self-loop, a
/// non-finite `c` and a negative `c` (a metric bug). Zero is valid: a
/// redundant transaction (set semantics), which staging skips.
fn validate_susp(src: VertexId, dst: VertexId, c: f64) -> Result<(), GraphError> {
    if src == dst {
        return Err(GraphError::SelfLoop { vertex: src });
    }
    if !c.is_finite() {
        return Err(GraphError::NonFiniteWeight { context: "edge suspiciousness" });
    }
    if c < 0.0 {
        return Err(GraphError::NonPositiveEdgeWeight { src, dst, weight: c });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{EdgeGrouper, GroupingConfig};
    use crate::metric::{CustomMetric, Fraudar, UnweightedDensity, WeightedDensity};
    use crate::spade::SpadeBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn check_against_static<M: DensityMetric + Clone>(engine: &mut SpadeEngine<M>) {
        let fresh = peel(engine.graph());
        assert_eq!(engine.state().logical_order(), fresh.order, "sequence diverged");
        let det = engine.detect();
        assert!(
            (det.density - fresh.best_density).abs() < 1e-9,
            "detection density {} vs static {}",
            det.density,
            fresh.best_density
        );
        assert_eq!(det.size, fresh.order.len() - fresh.best_prefix);
    }

    #[test]
    fn empty_engine_detects_nothing() {
        let mut e = SpadeEngine::new(UnweightedDensity);
        assert_eq!(e.detect(), Detection::EMPTY);
    }

    #[test]
    fn streaming_from_scratch_matches_static_dg() {
        let mut e = SpadeEngine::new(UnweightedDensity);
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (3, 4), (0, 3), (2, 3), (1, 4)];
        for &(a, b) in &edges {
            e.insert_edge(v(a), v(b), 1.0).unwrap();
            check_against_static(&mut e);
        }
        assert_eq!(e.graph().num_edges(), edges.len());
    }

    #[test]
    fn streaming_matches_static_dw() {
        let mut e = SpadeEngine::new(WeightedDensity);
        let edges = [(0u32, 1u32, 5.0), (1, 2, 2.0), (2, 0, 7.0), (3, 0, 1.0), (1, 2, 3.0)];
        for &(a, b, w) in &edges {
            e.insert_edge(v(a), v(b), w).unwrap();
            check_against_static(&mut e);
        }
    }

    #[test]
    fn dense_block_raises_detection_density() {
        let mut e = SpadeEngine::new(WeightedDensity);
        // Sparse background.
        for i in 0..6u32 {
            e.insert_edge(v(i), v(i + 1), 1.0).unwrap();
        }
        let before = e.detect();
        // Fraud ring: heavy mutual transactions among 8..11.
        for a in 8..12u32 {
            for b in 8..12u32 {
                if a != b {
                    e.insert_edge(v(a), v(b), 20.0).unwrap();
                }
            }
        }
        let after = e.detect();
        assert!(after.density > before.density);
        let mut community: Vec<u32> = e.community(after).iter().map(|u| u.0).collect();
        community.sort_unstable();
        assert_eq!(community, vec![8, 9, 10, 11]);
        check_against_static(&mut e);
    }

    #[test]
    fn batch_insert_matches_single_inserts() {
        let edges = [(0u32, 1u32, 2.0), (1, 2, 3.0), (0, 2, 1.0), (3, 1, 4.0), (4, 3, 2.0)];
        let mut single = SpadeEngine::new(WeightedDensity);
        for &(a, b, w) in &edges {
            single.insert_edge(v(a), v(b), w).unwrap();
        }
        let mut batch = SpadeEngine::new(WeightedDensity);
        let batch_edges: Vec<_> = edges.iter().map(|&(a, b, w)| (v(a), v(b), w)).collect();
        batch.insert_batch(&batch_edges).unwrap();
        assert_eq!(single.state().logical_order(), batch.state().logical_order());
        assert_eq!(single.detect(), batch.detect());
    }

    #[test]
    fn preweighted_batch_coalesces_duplicate_pairs_identically() {
        // A burst with heavy pair duplication: coalesced insertion must
        // be bit-identical to the sequential pre-weighted path.
        let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
        for rep in 0..6 {
            for a in 0..4u32 {
                for b in 0..4u32 {
                    if a != b {
                        edges.push((v(a), v(b), 1.0 + rep as f64));
                    }
                }
            }
        }
        edges.push((v(9), v(2), 3.0));
        let mut sequential = SpadeEngine::new(WeightedDensity);
        for &(a, b, w) in &edges {
            sequential.insert_edge(a, b, w).unwrap();
        }
        let mut batched = SpadeEngine::new(WeightedDensity);
        assert_eq!(batched.insert_batch_weighted(&edges).1, 0);
        assert_eq!(batched.state().logical_order(), sequential.state().logical_order());
        assert_eq!(batched.detect(), sequential.detect());
        assert_eq!(batched.graph().num_edges(), sequential.graph().num_edges());
    }

    #[test]
    fn tolerant_batch_counts_rejects_and_applies_the_rest() {
        let mut e = SpadeEngine::new(WeightedDensity);
        let edges = [
            (v(0), v(1), 2.0),
            (v(3), v(3), 1.0),  // self-loop: rejected
            (v(1), v(2), -4.0), // negative susp: rejected
            (v(2), v(0), 5.0),
        ];
        let (det, rejected) = e.insert_batch_tolerant(&edges);
        assert_eq!(rejected, 2);
        assert_eq!(e.graph().num_edges(), 2);
        assert!(det.size > 0);
        // The rejected self-loop still materialized its vertex, exactly
        // like the per-edge path would have before erroring.
        assert!(e.graph().contains_vertex(v(3)));
        check_against_static(&mut e);
    }

    #[test]
    fn batch_scratch_buffers_are_reused_across_calls() {
        let mut e = SpadeEngine::new(WeightedDensity);
        e.insert_batch(&[(v(0), v(1), 2.0), (v(1), v(2), 3.0)]).unwrap();
        let (_, refused) =
            e.insert_batch_weighted(&[(v(2), v(3), 1.0), (v(2), v(3), 2.0), (v(3), v(4), 1.0)]);
        assert_eq!(refused, 0);
        e.insert_batch(&[(v(4), v(0), 2.0)]).unwrap();
        check_against_static(&mut e);
        // Accumulated duplicate pair from the weighted batch.
        assert_eq!(e.graph().edge_weight(v(2), v(3)), Some(3.0));
    }

    #[test]
    fn bootstrap_then_stream() {
        let initial: Vec<(VertexId, VertexId, f64)> =
            vec![(v(0), v(1), 1.0), (v(1), v(2), 1.0), (v(2), v(0), 1.0)];
        let mut e =
            SpadeEngine::bootstrap(UnweightedDensity, SpadeConfig::default(), initial).unwrap();
        check_against_static(&mut e);
        e.insert_edge(v(3), v(0), 1.0).unwrap();
        e.insert_edge(v(3), v(1), 1.0).unwrap();
        check_against_static(&mut e);
    }

    #[test]
    fn detection_backends_agree() {
        let edges = [(0u32, 1u32, 2.0), (1, 2, 5.0), (2, 0, 1.0), (3, 2, 2.0), (3, 0, 3.0)];
        let mut e = SpadeEngine::new(WeightedDensity);
        for &(a, b, w) in &edges {
            let kinetic = e.insert_edge(v(a), v(b), w).unwrap();
            let scan = e.state().scan_detect();
            assert_eq!(kinetic.size, scan.size);
            assert!((kinetic.density - scan.density).abs() < 1e-9);
        }
    }

    #[test]
    fn fraudar_streaming_keeps_valid_greedy_state() {
        let mut e = SpadeEngine::new(Fraudar::new());
        let edges = [(0u32, 5u32), (1, 5), (2, 5), (3, 5), (0, 6), (1, 6), (2, 6), (4, 7), (3, 7)];
        for &(a, b) in &edges {
            e.insert_edge(v(a), v(b), 1.0).unwrap();
        }
        // FD weights are irrational; verify the greedy invariant within
        // tolerance rather than bit equality.
        e.state().validate_greedy(e.graph(), 1e-6);
    }

    #[test]
    fn zero_suspiciousness_is_a_noop_negative_is_an_error() {
        let mut e = SpadeEngine::new(crate::metric::CustomMetric::new(
            "zero",
            |_, _| 0.0,
            |_, _, _, _| 0.0,
        ));
        // Zero = redundant transaction: vertices materialize, no edge.
        let det = e.insert_edge(v(0), v(1), 1.0).unwrap();
        assert_eq!(det.size, 0);
        assert_eq!(e.graph().num_edges(), 0);
        assert_eq!(e.graph().num_vertices(), 2);

        let mut neg = SpadeEngine::new(crate::metric::CustomMetric::new(
            "negative",
            |_, _| 0.0,
            |_, _, _, _| -1.0,
        ));
        assert!(neg.insert_edge(v(0), v(1), 1.0).is_err());
    }

    #[test]
    fn dg_set_semantics_ignores_duplicate_transactions() {
        let mut e = SpadeEngine::new(UnweightedDensity);
        e.insert_edge(v(0), v(1), 1.0).unwrap();
        e.insert_edge(v(0), v(1), 1.0).unwrap();
        e.insert_edge(v(0), v(1), 1.0).unwrap();
        assert_eq!(e.graph().num_edges(), 1);
        assert_eq!(e.graph().edge_weight(v(0), v(1)), Some(1.0));
        // The antiparallel edge is distinct.
        e.insert_edge(v(1), v(0), 1.0).unwrap();
        assert_eq!(e.graph().num_edges(), 2);
        check_against_static(&mut e);
    }

    #[test]
    fn reorder_stats_accumulate() {
        let mut e = SpadeEngine::new(UnweightedDensity);
        e.insert_edge(v(0), v(1), 1.0).unwrap();
        e.insert_edge(v(1), v(2), 1.0).unwrap();
        let total = e.total_reorder_stats();
        assert!(total.windows >= 2);
        assert!(total.moved >= e.last_reorder_stats().moved);
    }

    #[test]
    fn cloned_engine_supports_what_if_analysis() {
        let mut live = SpadeEngine::new(WeightedDensity);
        for i in 0..6u32 {
            live.insert_edge(v(i), v(i + 1), 2.0).unwrap();
        }
        let baseline = live.detect();
        // What if this suspicious transfer went through?
        let mut hypothetical = live.clone();
        for a in 10..13u32 {
            for b in 10..13u32 {
                if a != b {
                    hypothetical.insert_edge(v(a), v(b), 50.0).unwrap();
                }
            }
        }
        assert!(hypothetical.detect().density > baseline.density);
        // The live engine is untouched.
        assert_eq!(live.detect(), baseline);
        assert_eq!(live.graph().num_edges(), 6);
        check_against_static(&mut hypothetical);
    }

    #[test]
    fn partial_transaction_deletion_at_engine_level() {
        let mut e = SpadeEngine::new(WeightedDensity);
        e.insert_edge(v(0), v(1), 10.0).unwrap();
        e.insert_edge(v(1), v(2), 4.0).unwrap();
        e.delete_transaction(v(0), v(1), 6.0).unwrap();
        assert_eq!(e.graph().edge_weight(v(0), v(1)), Some(4.0));
        check_against_static(&mut e);
        // Draining the remainder removes the edge.
        e.delete_transaction(v(0), v(1), 4.0).unwrap();
        assert_eq!(e.graph().edge_weight(v(0), v(1)), None);
        check_against_static(&mut e);
    }

    #[test]
    fn vertex_suspiciousness_updates_reorder_both_directions() {
        let mut e = SpadeEngine::new(WeightedDensity);
        for i in 0..5u32 {
            e.insert_edge(v(i), v((i + 1) % 5), 2.0).unwrap();
        }
        // Raise: v3 becomes highly suspicious side information.
        e.set_vertex_suspiciousness(v(3), 25.0).unwrap();
        check_against_static(&mut e);
        // Lower it back down.
        e.set_vertex_suspiciousness(v(3), 0.5).unwrap();
        check_against_static(&mut e);
        e.state().validate_greedy(e.graph(), 1e-9);
    }

    #[test]
    fn invalid_vertex_suspiciousness_is_refused_before_anything_changes() {
        let mut e = SpadeEngine::new(WeightedDensity);
        e.insert_edge(v(0), v(1), 2.0).unwrap();
        e.set_vertex_suspiciousness(v(1), 3.0).unwrap();
        let order = e.state().logical_order();
        for (a, at) in [(f64::NAN, v(1)), (f64::NAN, v(40)), (-1.0, v(1)), (-1.0, v(40))] {
            let err = e.set_vertex_suspiciousness(at, a).unwrap_err();
            match err {
                GraphError::NonFiniteWeight { .. } => assert!(a.is_nan()),
                GraphError::NegativeVertexWeight { vertex, .. } => assert_eq!(vertex, at),
                other => panic!("unexpected error {other:?}"),
            }
            assert_eq!(e.graph().num_vertices(), 2, "{a} at {at} materialized vertices");
            assert_eq!(e.state().logical_order(), order);
            assert_eq!(e.graph().vertex_weight(v(1)), 3.0);
        }
        check_against_static(&mut e);
    }

    #[test]
    fn randomized_streaming_with_new_vertices_matches_static() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2024);
        for _trial in 0..25 {
            let mut e = SpadeEngine::new(WeightedDensity);
            let universe = rng.gen_range(3..16u32);
            for _ in 0..rng.gen_range(1..40) {
                let a = rng.gen_range(0..universe);
                let b = rng.gen_range(0..universe);
                if a == b {
                    continue;
                }
                e.insert_edge(v(a), v(b), rng.gen_range(1..6) as f64).unwrap();
            }
            if e.graph().num_edges() == 0 {
                continue;
            }
            check_against_static(&mut e);
            e.state().validate_greedy(e.graph(), 1e-9);
        }
    }

    /// A random batch over `universe` vertices with injected self-loops,
    /// NaN weights and negative weights, and the same batch without them.
    fn batch_with_refusals(rng: &mut impl rand::Rng, universe: u32) -> (Vec<Edge>, Vec<Edge>) {
        let (mut batch, mut valid) = (Vec::new(), Vec::new());
        for _ in 0..rng.gen_range(1..12) {
            let a = rng.gen_range(0..universe);
            let b = if rng.gen_range(0..6) == 0 { a } else { rng.gen_range(0..universe) };
            let w = match rng.gen_range(0..8) {
                0 => f64::NAN,
                1 => -(rng.gen_range(1..5) as f64),
                _ => rng.gen_range(1..6) as f64,
            };
            batch.push((v(a), v(b), w));
            if a != b && w > 0.0 {
                valid.push((v(a), v(b), w));
            }
        }
        (batch, valid)
    }

    /// Every entry, fed batches with refused edges: the peel equals a static
    /// peel after each batch, and the engine equals a twin fed the same
    /// batches without them. Entry 3 is the grouped facade, alternating
    /// `insert_batch_edges` with per-edge submits through the grouper.
    #[test]
    fn refused_edges_never_desync_the_engine() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(28);
        let build =
            || SpadeBuilder::new().esusp(|_, _, raw, _| raw).turn_on_edge_grouping().build();
        for trial in 0..80 {
            let universe = rng.gen_range(3..12u32);
            let (mut subject, mut twin) = (build(), build());
            for spade in [&mut subject, &mut twin] {
                // Refused edges then materialize nothing the twin lacks.
                spade.engine_mut().ensure_vertex(v(universe - 1)).unwrap();
            }
            for round in 0..rng.gen_range(1..6) {
                let (batch, valid) = batch_with_refusals(&mut rng, universe);
                let refused = (batch.len() - valid.len()) as u64;
                let s = subject.engine_mut();
                match trial % 4 {
                    0 => assert_eq!(s.insert_batch(&batch).is_err(), refused > 0),
                    1 => assert_eq!(s.insert_batch_tolerant(&batch).1, refused),
                    2 => assert_eq!(s.insert_batch_weighted(&batch).1, refused),
                    _ if round % 2 == 0 => {
                        assert_eq!(subject.insert_batch_edges(&batch).is_err(), refused > 0)
                    }
                    _ => {
                        let ok =
                            batch.iter().filter(|e| subject.insert_edge(e.0, e.1, e.2).is_ok());
                        assert_eq!(ok.count(), valid.len());
                    }
                }
                match trial % 4 {
                    0 | 1 => assert_eq!(twin.engine_mut().insert_batch_tolerant(&valid).1, 0),
                    2 => assert_eq!(twin.engine_mut().insert_batch_weighted(&valid).1, 0),
                    _ if round % 2 == 0 => assert!(twin.insert_batch_edges(&valid).is_ok()),
                    _ => assert!(valid.iter().all(|e| twin.insert_edge(e.0, e.1, e.2).is_ok())),
                }
                subject.detection().unwrap(); // flushes the grouping buffer
                twin.detection().unwrap();
                let (s, t) = (subject.engine(), twin.engine());
                assert_eq!(s.state().logical_order(), peel(s.graph()).order, "peel desynced");
                assert_eq!(s.state().logical_order(), t.state().logical_order());
                assert!(s.graph().iter_edges().eq(t.graph().iter_edges()));
                assert_eq!(s.cached_detection(), t.cached_detection());
            }
        }
    }

    /// A refused edge mid-batch once returned early: the edge before it
    /// stayed in the graph but never reached the peel (density 0.5 where
    /// a static peel gives 2.5), and every later insert stayed wrong.
    #[test]
    fn mid_batch_self_loop_still_commits_the_valid_edges() {
        let batch = [(v(1), v(2), 5.0), (v(3), v(3), 1.0), (v(2), v(4), 2.0)];
        let mut e = SpadeEngine::new(WeightedDensity);
        e.insert_edge(v(0), v(1), 1.0).unwrap();
        let refused = e.insert_batch(&batch);
        assert!(matches!(refused, Err(GraphError::SelfLoop { vertex: VertexId(3) })));
        assert_eq!(e.detect().density, 2.5);
        check_against_static(&mut e);
        // Listing 1's `InsertBatchEdges` on the facade, same batch.
        let mut spade = SpadeBuilder::new().esusp(|_, _, raw, _| raw).build();
        spade.insert_edge(v(0), v(1), 1.0).unwrap();
        assert!(spade.insert_batch_edges(&batch).is_err());
        assert_eq!(spade.detection().unwrap().density, 2.5);
        assert_eq!(spade.detect().unwrap().len(), 2);
        assert_eq!(spade.engine().state().logical_order(), e.state().logical_order());
    }

    #[test]
    fn zero_scored_self_loop_is_refused_by_engine_and_grouper() {
        let mut e = SpadeEngine::new(CustomMetric::new("zero", |_, _| 0.0, |_, _, _, _| 0.0));
        let refused = e.insert_edge(v(2), v(2), 1.0);
        assert!(matches!(refused, Err(GraphError::SelfLoop { vertex: VertexId(2) })));
        let mut g = EdgeGrouper::new(GroupingConfig::default());
        let refused = g.submit(&mut e, v(2), v(2), 1.0);
        assert!(matches!(refused, Err(GraphError::SelfLoop { vertex: VertexId(2) })));
    }

    #[test]
    fn refused_vertex_prior_still_enters_the_peel() {
        let prior = |u: VertexId, _: &DynamicGraph| if u.0 == 1 { f64::NAN } else { 1.0 };
        let mut e = SpadeEngine::new(CustomMetric::new("nan", prior, |_, _, raw, _| raw));
        // Materializing 0..=2 refuses vertex 1's prior, and with it the edge.
        assert!(e.insert_edge(v(0), v(2), 3.0).is_err());
        assert_eq!((e.state().len(), e.graph().vertex_weight(v(2))), (3, 1.0));
        e.insert_edge(v(0), v(2), 3.0).unwrap();
        assert_eq!(e.state().logical_order(), peel(e.graph()).order);
    }
}
