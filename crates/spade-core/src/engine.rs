//! The Spade engine: evolving graph + peeling state + density metric +
//! detection index, glued by the incremental reordering passes.
//!
//! This is the layer the paper's architecture diagram (Fig. 4) calls the
//! "Spade engine": it owns the transaction graph, keeps the peeling
//! sequence and weights up to date on every update (auto-
//! incrementalization), and answers `Detect` in O(1) from the kinetic
//! tournament it maintains beside them ([`crate::kinetic`]; the O(n)
//! rescan [`PeelingState::scan_detect`] stays as the reference the tests
//! compare it with). The thin, paper-faithful `Spade` facade
//! (`crate::spade`) and the edge-grouping layer (`crate::grouping`) sit on
//! top.

use crate::kinetic::KineticIndex;
use crate::metric::DensityMetric;
use crate::peel::peel;
use crate::reorder::{reorder, ReorderScratch, ReorderStats};
use crate::state::{Detection, PeelingState};
use spade_graph::hash::FxHashMap;
use spade_graph::{DynamicGraph, EdgeRef, GraphError, VertexId};

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
/// functions inline into the hot paths.
#[derive(Debug)]
pub struct SpadeEngine<M: DensityMetric> {
    graph: DynamicGraph,
    state: PeelingState,
    metric: M,
    kinetic: KineticIndex,
    detection: Detection,
    scratch: ReorderScratch,
    blacks_buf: Vec<VertexId>,
    /// Reusable batch scratch: edges that actually landed in the graph
    /// during the current batch insertion.
    inserted_buf: Vec<(VertexId, VertexId)>,
    /// Reusable batch scratch: within-batch duplicate-pair coalescing.
    coalesce_buf: Vec<(VertexId, VertexId, f64)>,
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
            inserted_buf: Vec::new(),
            coalesce_buf: Vec::new(),
            pair_index: FxHashMap::default(),
            last_stats: ReorderStats::default(),
            total_stats: ReorderStats::default(),
        }
    }

    /// Bootstraps an engine from an initial transaction log by building
    /// the graph edge-by-edge (streaming suspiciousness semantics) and
    /// then running **one** static peel — the `LoadGraph` path of
    /// Listing 1.
    pub fn bootstrap(
        metric: M,
        _config: SpadeConfig,
        edges: impl IntoIterator<Item = (VertexId, VertexId, f64)>,
    ) -> Result<Self, GraphError> {
        let mut engine = Self::new(metric);
        let mut graph = DynamicGraph::new();
        for (src, dst, raw) in edges {
            for v in [src, dst] {
                let created = graph.ensure_vertex(v);
                if created > 0 {
                    let start = graph.num_vertices() - created;
                    for i in start..graph.num_vertices() {
                        let u = VertexId::from_index(i);
                        let a = engine.metric.vertex_susp(u, &graph);
                        graph.set_vertex_weight(u, a)?;
                    }
                }
            }
            let c = engine.metric.edge_susp(src, dst, raw, &graph);
            validate_susp(src, dst, c)?;
            if c > 0.0 {
                graph.insert_edge(src, dst, c)?;
            }
        }
        engine.install_graph(graph);
        Ok(engine)
    }

    /// Builds an engine around a graph whose weights are **already** the
    /// final suspiciousness values (no metric evaluation happens).
    pub fn from_weighted_graph(graph: DynamicGraph, metric: M, _config: SpadeConfig) -> Self {
        let mut engine = Self::new(metric);
        engine.install_graph(graph);
        engine
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
        self.install_graph(graph);
    }

    fn install_graph(&mut self, graph: DynamicGraph) {
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

    /// The current detection through a shared reference. Both backends
    /// refresh it on every update, so it is never stale.
    pub fn cached_detection(&self) -> Detection {
        self.detection
    }

    /// The current fraudulent community descriptor. O(1): every update
    /// already refreshed it through the configured backend.
    pub fn detect(&mut self) -> Detection {
        self.detection
    }

    /// The members of a detected community (the `size` densest-end
    /// vertices of the peeling sequence). O(1) slice.
    pub fn community(&self, detection: Detection) -> &[VertexId] {
        self.state.community(detection.size)
    }

    /// Materializes `v` (and any implied lower ids) in graph, state and
    /// index ahead of time — the edge-grouping buffer uses this so that
    /// urgency classification can read `w_u(S_0)` for endpoints it has not
    /// inserted yet.
    pub fn ensure_vertex(&mut self, v: VertexId) -> Result<(), GraphError> {
        self.prepare_vertex(v)
    }

    /// Ensures `v` (and any implied lower ids) exist in graph, state and
    /// index, assigning vertex suspiciousness on first sight.
    fn prepare_vertex(&mut self, v: VertexId) -> Result<(), GraphError> {
        let created = self.graph.ensure_vertex(v);
        if created == 0 {
            return Ok(());
        }
        let start = self.graph.num_vertices() - created;
        for i in start..self.graph.num_vertices() {
            let u = VertexId::from_index(i);
            let a = self.metric.vertex_susp(u, &self.graph);
            self.graph.set_vertex_weight(u, a)?;
            // New vertices enter at the head of the peeling sequence
            // (§4.1) with their true isolated weight a_u.
            self.state.push_front(u, a);
            self.kinetic.append(a);
        }
        Ok(())
    }

    /// Inserts one transaction, evaluates its suspiciousness, reorders the
    /// affected window, and returns the (possibly updated) detection —
    /// the paper's `InsertEdge`.
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
        self.prepare_vertex(src)?;
        self.prepare_vertex(dst)?;
        let c = self.metric.edge_susp(src, dst, raw, &self.graph);
        validate_susp(src, dst, c)?;
        if c == 0.0 {
            return Ok(self.cached_detection());
        }
        self.graph.insert_edge(src, dst, c)?;
        self.blacks_buf.clear();
        let earlier =
            if self.state.position_of(src) < self.state.position_of(dst) { src } else { dst };
        self.blacks_buf.push(earlier);
        self.run_reorder();
        Ok(self.refresh_detection())
    }

    /// Inserts a batch of transactions and reorders **once** (Algorithm 2)
    /// — the paper's `InsertBatchEdges`.
    pub fn insert_batch(
        &mut self,
        edges: &[(VertexId, VertexId, f64)],
    ) -> Result<Detection, GraphError> {
        self.insert_batch_inner(edges, false)
    }

    /// [`insert_batch`](Self::insert_batch) for edges whose suspiciousness
    /// `c` has already been evaluated (used by the edge-grouping buffer,
    /// which classifies at arrival time).
    pub fn insert_batch_weighted(
        &mut self,
        edges: &[(VertexId, VertexId, f64)],
    ) -> Result<Detection, GraphError> {
        self.insert_batch_inner(edges, true)
    }

    /// Batch insertion that **never fails**: malformed transactions
    /// (self-loops, non-finite or negative suspiciousness) are skipped
    /// and counted instead of aborting the rest of the batch — exactly
    /// what per-edge [`insert_edge`](Self::insert_edge) callers get by
    /// dropping individual errors. Returns the post-batch detection and
    /// the number of rejected transactions. This is the service worker's
    /// drain-coalescing entry point.
    pub fn insert_batch_tolerant(
        &mut self,
        edges: &[(VertexId, VertexId, f64)],
    ) -> (Detection, u64) {
        match self.insert_batch_run(edges, false, true) {
            Ok(result) => result,
            // Tolerant runs swallow per-edge errors by construction.
            Err(_) => unreachable!("tolerant batch insertion cannot fail"),
        }
    }

    /// [`insert_batch_tolerant`](Self::insert_batch_tolerant) for edges
    /// whose suspiciousness is already final (no metric evaluation) —
    /// the migration absorb path, where a possibly corrupt slice must
    /// never abort the healthy remainder of the batch.
    pub fn insert_batch_weighted_tolerant(
        &mut self,
        edges: &[(VertexId, VertexId, f64)],
    ) -> (Detection, u64) {
        match self.insert_batch_run(edges, true, true) {
            Ok(result) => result,
            Err(_) => unreachable!("tolerant batch insertion cannot fail"),
        }
    }

    fn insert_batch_inner(
        &mut self,
        edges: &[(VertexId, VertexId, f64)],
        preweighted: bool,
    ) -> Result<Detection, GraphError> {
        if preweighted && edges.len() > 1 {
            // Pre-coalesce duplicate `(src, dst)` pairs: suspiciousness
            // is already evaluated, so accumulation is linear and k
            // parallel transactions collapse into one graph touch. (The
            // metric-evaluating path cannot coalesce — `edge_susp` reads
            // the evolving graph, so arrival order matters there.)
            let mut coalesced = std::mem::take(&mut self.coalesce_buf);
            coalesced.clear();
            let merge = coalesce_pairs(edges, &mut coalesced, &mut self.pair_index);
            let result = match merge {
                Ok(()) => self.insert_batch_run(&coalesced, true, false).map(|(det, _)| det),
                Err(e) => Err(e),
            };
            self.coalesce_buf = coalesced;
            return result;
        }
        self.insert_batch_run(edges, preweighted, false).map(|(det, _)| det)
    }

    /// Shared batch core: stages every edge into the graph, seeds `ΔV`
    /// (deduplicated by the reordering pass), and reorders **once**.
    /// `tolerant` turns per-edge errors into a rejection count.
    fn insert_batch_run(
        &mut self,
        edges: &[(VertexId, VertexId, f64)],
        preweighted: bool,
        tolerant: bool,
    ) -> Result<(Detection, u64), GraphError> {
        self.blacks_buf.clear();
        let mut inserted = std::mem::take(&mut self.inserted_buf);
        inserted.clear();
        let mut rejected: u64 = 0;
        for &(src, dst, raw) in edges {
            match self.stage_edge(src, dst, raw, preweighted) {
                Ok(true) => inserted.push((src, dst)),
                Ok(false) => {} // redundant under the metric's set semantics
                Err(_) if tolerant => rejected += 1,
                Err(e) => {
                    self.inserted_buf = inserted;
                    return Err(e);
                }
            }
        }
        for &(src, dst) in &inserted {
            let earlier =
                if self.state.position_of(src) < self.state.position_of(dst) { src } else { dst };
            self.blacks_buf.push(earlier);
        }
        self.inserted_buf = inserted;
        self.run_reorder();
        Ok((self.refresh_detection(), rejected))
    }

    /// Stages one transaction of a batch into the graph (no reorder).
    /// Returns whether an edge actually landed.
    fn stage_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        raw: f64,
        preweighted: bool,
    ) -> Result<bool, GraphError> {
        self.prepare_vertex(src)?;
        self.prepare_vertex(dst)?;
        let c = if preweighted { raw } else { self.metric.edge_susp(src, dst, raw, &self.graph) };
        validate_susp(src, dst, c)?;
        if c == 0.0 {
            return Ok(false);
        }
        self.graph.insert_edge(src, dst, c)?;
        Ok(true)
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

    /// Removes the induced slice of `members` — every edge with both
    /// endpoints in the set plus the members' vertex suspiciousness —
    /// through the incremental deletion pass, keeping order, peeling
    /// state and the kinetic index consistent at every step. The members
    /// stay materialized as zero-weight singletons (dense ids cannot be
    /// reclaimed); the removed slice mirrors exactly what
    /// [`crate::persist::SubgraphSnapshot::extract`] captures at
    /// `hops = 0`, which is what makes extract → remove → replay a
    /// lossless migration (`crate::shard::migrate`).
    pub fn remove_member_slice(
        &mut self,
        members: &[VertexId],
    ) -> Result<crate::deletion::SliceRemoval, GraphError> {
        let kinetic = &mut self.kinetic;
        let removal = crate::deletion::remove_member_slice(
            &mut self.graph,
            &mut self.state,
            &mut self.scratch,
            members,
            |lo, ws| kinetic.rewrite_deltas(lo, ws),
        )?;
        self.last_stats = removal.reorder;
        self.total_stats.merge(removal.reorder);
        self.refresh_detection();
        Ok(removal)
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
        self.prepare_vertex(v)?;
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

    /// Consumes the engine, returning the graph (used by the enumeration
    /// extension to avoid a clone).
    pub fn into_graph(self) -> DynamicGraph {
        self.graph
    }
}

impl<M: DensityMetric + Clone> Clone for SpadeEngine<M> {
    /// Deep-copies the engine — the moderator's "what-if" tool: clone,
    /// apply hypothetical transactions, inspect the detection, discard.
    fn clone(&self) -> Self {
        SpadeEngine {
            graph: self.graph.clone(),
            state: self.state.clone(),
            metric: self.metric.clone(),
            kinetic: self.kinetic.clone(),
            detection: self.detection,
            scratch: self.scratch.clone(),
            blacks_buf: self.blacks_buf.clone(),
            inserted_buf: self.inserted_buf.clone(),
            coalesce_buf: self.coalesce_buf.clone(),
            pair_index: self.pair_index.clone(),
            last_stats: self.last_stats,
            total_stats: self.total_stats,
        }
    }
}

/// Sums duplicate ordered `(src, dst)` pairs of a pre-weighted batch into
/// `out`, keeping first-occurrence order (so vertex materialization order
/// is identical to the sequential path). Each entry is validated before
/// summing — a malformed weight must not hide inside an aggregate.
/// `index` is caller-owned scratch (cleared here) so frequent flushes pay
/// no per-batch allocation.
fn coalesce_pairs(
    edges: &[(VertexId, VertexId, f64)],
    out: &mut Vec<(VertexId, VertexId, f64)>,
    index: &mut FxHashMap<u64, usize>,
) -> Result<(), GraphError> {
    index.clear();
    for &(src, dst, c) in edges {
        validate_susp(src, dst, c)?;
        match index.entry(EdgeRef::new(src, dst).packed()) {
            std::collections::hash_map::Entry::Occupied(slot) => out[*slot.get()].2 += c,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(out.len());
                out.push((src, dst, c));
            }
        }
    }
    Ok(())
}

fn validate_susp(src: VertexId, dst: VertexId, c: f64) -> Result<(), GraphError> {
    if !c.is_finite() {
        return Err(GraphError::NonFiniteWeight { context: "edge suspiciousness" });
    }
    // Exactly zero means "redundant transaction" (set semantics) and is
    // handled by the callers; negative suspiciousness is a metric bug.
    if c < 0.0 {
        return Err(GraphError::NonPositiveEdgeWeight { src, dst, weight: c });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Fraudar, UnweightedDensity, WeightedDensity};

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
        batched.insert_batch_weighted(&edges).unwrap();
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
        e.insert_batch_weighted(&[(v(2), v(3), 1.0), (v(2), v(3), 2.0), (v(3), v(4), 1.0)])
            .unwrap();
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
    fn remove_member_slice_keeps_engine_exact_and_detection_fresh() {
        let mut e = SpadeEngine::new(WeightedDensity);
        // Background path plus two rings; the heavier ring dominates.
        for i in 0..6u32 {
            e.insert_edge(v(i), v(i + 1), 1.0).unwrap();
        }
        for a in 10..14u32 {
            for b in 10..14u32 {
                if a != b {
                    e.insert_edge(v(a), v(b), 30.0).unwrap();
                }
            }
        }
        for a in 20..23u32 {
            for b in 20..23u32 {
                if a != b {
                    e.insert_edge(v(a), v(b), 8.0).unwrap();
                }
            }
        }
        let before = e.detect();
        assert!(e.community(before).iter().all(|m| (10..14).contains(&m.0)));
        // Evict the dominant ring: the detection must fall through to the
        // second ring immediately (kinetic index updated in lock-step).
        let members: Vec<VertexId> = (10..14).map(v).collect();
        let removal = e.remove_member_slice(&members).unwrap();
        assert_eq!(removal.edges_removed, 12);
        let after = e.detect();
        assert!(after.density < before.density);
        assert!(e.community(after).iter().all(|m| (20..23).contains(&m.0)));
        check_against_static(&mut e);
        e.state().validate_greedy(e.graph(), 1e-9);
        // Evicted members remain as valid zero-weight singletons and can
        // be re-used by later traffic.
        e.insert_edge(v(10), v(21), 2.0).unwrap();
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
}
