//! The dynamic directed weighted graph (`G = (V, E)` of paper §2.1).
//!
//! Design notes:
//!
//! * **Adjacency**: per-vertex out- and in-lists of `(neighbor, weight)`
//!   pairs. The peeling algorithms need *both* directions of a vertex's
//!   incident edges (Eq. 2 sums `c_ij` over out-edges and `c_ji` over
//!   in-edges within the remaining set), so both lists are maintained.
//! * **Parallel transactions**: repeated transactions over the same ordered
//!   pair accumulate into one weighted edge (`c_ij += w`). All three density
//!   metrics (DG/DW/FD) are linear in edge weight, so accumulation is
//!   semantically equivalent to parallel edges while keeping adjacency lists
//!   deduplicated. An O(1) edge index maps `(src, dst)` to the positions of
//!   the edge inside both adjacency lists.
//! * **Deletion** (needed by the Appendix C.1 extension) swap-removes from
//!   both lists and patches the index entries of the displaced elements,
//!   staying O(1).
//! * **Running aggregates**: `f(V)` (total suspiciousness, Eq. 1) and the
//!   per-vertex incident weight `w_u(V)` (the peeling weight against the
//!   full vertex set, Eq. 2 with `S = S_0 = V`) are maintained on every
//!   mutation; the edge-grouping classifier (Definition 4.1) reads
//!   `w_u(S_0)` in O(1).

use crate::error::GraphError;
use crate::hash::FxHashMap;
use crate::id::{EdgeRef, VertexId};
use crate::Result;

/// An adjacency-list entry: the neighboring vertex and the edge weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// The endpoint on the other side of the edge.
    pub v: VertexId,
    /// The accumulated suspiciousness weight `c` of the edge.
    pub w: f64,
}

/// Positions of one directed edge inside the two adjacency lists.
#[derive(Clone, Copy, Debug)]
struct EdgeSlots {
    /// Index into `out_adj[src]`.
    out_pos: u32,
    /// Index into `in_adj[dst]`.
    in_pos: u32,
}

/// Outcome of [`DynamicGraph::insert_edge`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeInsertion {
    /// `true` if the ordered pair was not previously connected.
    pub is_new: bool,
    /// The edge's accumulated weight after this insertion.
    pub weight_after: f64,
}

/// A directed weighted multigraph-by-accumulation over dense vertex ids.
#[derive(Clone, Debug, Default)]
pub struct DynamicGraph {
    out_adj: Vec<Vec<Neighbor>>,
    in_adj: Vec<Vec<Neighbor>>,
    vertex_weight: Vec<f64>,
    /// `w_u(V)` = `a_u` + total weight of all edges incident to `u`.
    incident_weight: Vec<f64>,
    edge_index: FxHashMap<u64, EdgeSlots>,
    num_edges: usize,
    /// `f(V)`: sum of all vertex weights plus all edge weights (Eq. 1).
    total_weight: f64,
}

impl DynamicGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        DynamicGraph {
            out_adj: Vec::with_capacity(n),
            in_adj: Vec::with_capacity(n),
            vertex_weight: Vec::with_capacity(n),
            incident_weight: Vec::with_capacity(n),
            edge_index: FxHashMap::default(),
            num_edges: 0,
            total_weight: 0.0,
        }
    }

    /// Number of vertices.
    #[inline(always)]
    pub fn num_vertices(&self) -> usize {
        self.vertex_weight.len()
    }

    /// Number of (accumulated) directed edges.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `f(V)`: the total suspiciousness of the whole graph (Eq. 1).
    #[inline(always)]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Appends a new vertex with suspiciousness weight `weight` and returns
    /// its id.
    pub fn add_vertex(&mut self, weight: f64) -> Result<VertexId> {
        let id = VertexId::from_index(self.num_vertices());
        Self::check_vertex_weight(id, weight)?;
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        self.vertex_weight.push(weight);
        self.incident_weight.push(weight);
        self.total_weight += weight;
        Ok(id)
    }

    /// Grows the vertex set (with zero-weight vertices) so that `v` exists.
    ///
    /// Returns the number of vertices created. Streaming ingestion uses this
    /// to materialize endpoints on first sight; the caller then assigns the
    /// vertex suspiciousness via [`set_vertex_weight`](Self::set_vertex_weight).
    pub fn ensure_vertex(&mut self, v: VertexId) -> usize {
        let needed = v.index() + 1;
        let have = self.num_vertices();
        if needed <= have {
            return 0;
        }
        let created = needed - have;
        self.out_adj.resize_with(needed, Vec::new);
        self.in_adj.resize_with(needed, Vec::new);
        self.vertex_weight.resize(needed, 0.0);
        self.incident_weight.resize(needed, 0.0);
        created
    }

    /// Returns `true` if `v` is a valid vertex id.
    #[inline(always)]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.num_vertices()
    }

    #[inline]
    fn check_vertex(&self, v: VertexId) -> Result<()> {
        if self.contains_vertex(v) {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfBounds { vertex: v, num_vertices: self.num_vertices() })
        }
    }

    /// Checks that `weight` is a valid suspiciousness for `vertex`: finite
    /// and non-negative (the model requires `a_u >= 0`).
    pub fn check_vertex_weight(vertex: VertexId, weight: f64) -> Result<()> {
        if !weight.is_finite() {
            return Err(GraphError::NonFiniteWeight { context: "vertex weight" });
        }
        if weight < 0.0 {
            return Err(GraphError::NegativeVertexWeight { vertex, weight });
        }
        Ok(())
    }

    /// The suspiciousness weight `a_u` of vertex `u`.
    #[inline(always)]
    pub fn vertex_weight(&self, u: VertexId) -> f64 {
        self.vertex_weight[u.index()]
    }

    /// Sets the suspiciousness weight of `u`, keeping aggregates consistent.
    pub fn set_vertex_weight(&mut self, u: VertexId, weight: f64) -> Result<()> {
        self.check_vertex(u)?;
        Self::check_vertex_weight(u, weight)?;
        let old = self.vertex_weight[u.index()];
        self.vertex_weight[u.index()] = weight;
        self.incident_weight[u.index()] += weight - old;
        self.total_weight += weight - old;
        Ok(())
    }

    /// `w_u(S_0)`: the peeling weight of `u` against the full vertex set —
    /// `a_u` plus the weight of every incident edge, both directions (Eq. 2).
    #[inline(always)]
    pub fn incident_weight(&self, u: VertexId) -> f64 {
        self.incident_weight[u.index()]
    }

    /// The accumulated weight of directed edge `(src, dst)`, if present.
    #[inline]
    pub fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<f64> {
        let slots = self.edge_index.get(&EdgeRef::new(src, dst).packed())?;
        Some(self.out_adj[src.index()][slots.out_pos as usize].w)
    }

    /// Returns `true` if the directed edge `(src, dst)` exists.
    #[inline]
    pub fn contains_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.edge_index.contains_key(&EdgeRef::new(src, dst).packed())
    }

    /// Inserts (or accumulates onto) the directed edge `(src, dst)` with
    /// weight `w > 0`. Both endpoints must already exist.
    pub fn insert_edge(&mut self, src: VertexId, dst: VertexId, w: f64) -> Result<EdgeInsertion> {
        self.check_vertex(src)?;
        self.check_vertex(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop { vertex: src });
        }
        if !w.is_finite() {
            return Err(GraphError::NonFiniteWeight { context: "edge weight" });
        }
        if w <= 0.0 {
            return Err(GraphError::NonPositiveEdgeWeight { src, dst, weight: w });
        }
        let key = EdgeRef::new(src, dst).packed();
        let result = match self.edge_index.get(&key) {
            Some(&slots) => {
                let out = &mut self.out_adj[src.index()][slots.out_pos as usize];
                out.w += w;
                let after = out.w;
                self.in_adj[dst.index()][slots.in_pos as usize].w = after;
                EdgeInsertion { is_new: false, weight_after: after }
            }
            None => {
                let out_pos = self.out_adj[src.index()].len() as u32;
                let in_pos = self.in_adj[dst.index()].len() as u32;
                self.out_adj[src.index()].push(Neighbor { v: dst, w });
                self.in_adj[dst.index()].push(Neighbor { v: src, w });
                self.edge_index.insert(key, EdgeSlots { out_pos, in_pos });
                self.num_edges += 1;
                EdgeInsertion { is_new: true, weight_after: w }
            }
        };
        self.incident_weight[src.index()] += w;
        self.incident_weight[dst.index()] += w;
        self.total_weight += w;
        Ok(result)
    }

    /// Removes `amount` of weight from the directed edge `(src, dst)`,
    /// deleting the edge entirely when the remainder would be zero (or
    /// within `1e-12` of it, absorbing accumulated float error). Returns
    /// the weight actually removed.
    ///
    /// This is the transaction-granularity deletion the time-window
    /// extension needs: one expired transaction leaves the rest of an
    /// accumulated edge in place.
    pub fn decrease_edge(&mut self, src: VertexId, dst: VertexId, amount: f64) -> Result<f64> {
        let current = self.edge_weight(src, dst).ok_or(GraphError::EdgeNotFound { src, dst })?;
        if !amount.is_finite() || amount <= 0.0 {
            return Err(GraphError::NonPositiveEdgeWeight { src, dst, weight: amount });
        }
        if amount >= current - 1e-12 {
            return self.delete_edge(src, dst);
        }
        let slots = self.edge_index[&EdgeRef::new(src, dst).packed()];
        self.out_adj[src.index()][slots.out_pos as usize].w = current - amount;
        self.in_adj[dst.index()][slots.in_pos as usize].w = current - amount;
        self.incident_weight[src.index()] -= amount;
        self.incident_weight[dst.index()] -= amount;
        self.total_weight -= amount;
        Ok(amount)
    }

    /// Removes the directed edge `(src, dst)` entirely, returning its
    /// accumulated weight (Appendix C.1 substrate).
    pub fn delete_edge(&mut self, src: VertexId, dst: VertexId) -> Result<f64> {
        self.check_vertex(src)?;
        self.check_vertex(dst)?;
        let key = EdgeRef::new(src, dst).packed();
        let slots = self.edge_index.remove(&key).ok_or(GraphError::EdgeNotFound { src, dst })?;
        let w = self.out_adj[src.index()][slots.out_pos as usize].w;

        // Swap-remove from the out-list of `src`, patching the displaced
        // edge's index entry if one moved into the vacated slot.
        let out_list = &mut self.out_adj[src.index()];
        out_list.swap_remove(slots.out_pos as usize);
        if (slots.out_pos as usize) < out_list.len() {
            let moved = out_list[slots.out_pos as usize].v;
            let moved_key = EdgeRef::new(src, moved).packed();
            self.edge_index
                .get_mut(&moved_key)
                .expect("edge index out-entry missing for displaced edge")
                .out_pos = slots.out_pos;
        }

        // Same for the in-list of `dst`.
        let in_list = &mut self.in_adj[dst.index()];
        in_list.swap_remove(slots.in_pos as usize);
        if (slots.in_pos as usize) < in_list.len() {
            let moved = in_list[slots.in_pos as usize].v;
            let moved_key = EdgeRef::new(moved, dst).packed();
            self.edge_index
                .get_mut(&moved_key)
                .expect("edge index in-entry missing for displaced edge")
                .in_pos = slots.in_pos;
        }

        self.incident_weight[src.index()] -= w;
        self.incident_weight[dst.index()] -= w;
        self.total_weight -= w;
        self.num_edges -= 1;
        Ok(w)
    }

    /// Out-neighbors of `u` (edges `u -> v`).
    #[inline(always)]
    pub fn out_neighbors(&self, u: VertexId) -> &[Neighbor] {
        &self.out_adj[u.index()]
    }

    /// In-neighbors of `u` (edges `v -> u`).
    #[inline(always)]
    pub fn in_neighbors(&self, u: VertexId) -> &[Neighbor] {
        &self.in_adj[u.index()]
    }

    /// All incident edges of `u` as `(neighbor, weight)` pairs, out-edges
    /// first. A vertex connected in both directions appears twice, once per
    /// directed edge — exactly the multiset Eq. 2 sums over.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> impl Iterator<Item = Neighbor> + '_ {
        self.out_adj[u.index()].iter().chain(self.in_adj[u.index()].iter()).copied()
    }

    /// Total degree (out + in) of `u`, counting accumulated edges once.
    #[inline(always)]
    pub fn degree(&self, u: VertexId) -> usize {
        self.out_adj[u.index()].len() + self.in_adj[u.index()].len()
    }

    /// Out-degree of `u`.
    #[inline(always)]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.out_adj[u.index()].len()
    }

    /// In-degree of `u`.
    #[inline(always)]
    pub fn in_degree(&self, u: VertexId) -> usize {
        self.in_adj[u.index()].len()
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterates over all directed edges as `(src, dst, weight)`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f64)> + '_ {
        self.out_adj.iter().enumerate().flat_map(|(u, list)| {
            let u = VertexId::from_index(u);
            list.iter().map(move |n| (u, n.v, n.w))
        })
    }

    /// Sum of the weights of all edges between `u` and `v` in either
    /// direction — the amount a peeling weight changes when one of the two
    /// leaves the other's remaining set.
    #[inline]
    pub fn mutual_weight(&self, u: VertexId, v: VertexId) -> f64 {
        self.edge_weight(u, v).unwrap_or(0.0) + self.edge_weight(v, u).unwrap_or(0.0)
    }

    /// Exhaustively checks internal invariants (index consistency, aggregate
    /// correctness). Intended for tests and debug assertions; O(V + E).
    pub fn check_invariants(&self) -> Result<()> {
        let n = self.num_vertices();
        assert_eq!(self.out_adj.len(), n);
        assert_eq!(self.in_adj.len(), n);
        assert_eq!(self.incident_weight.len(), n);

        let mut edge_count = 0usize;
        let mut total = self.vertex_weight.iter().sum::<f64>();
        let mut incident: Vec<f64> = self.vertex_weight.clone();
        for (u, list) in self.out_adj.iter().enumerate() {
            let u = VertexId::from_index(u);
            for (pos, nb) in list.iter().enumerate() {
                edge_count += 1;
                total += nb.w;
                incident[u.index()] += nb.w;
                incident[nb.v.index()] += nb.w;
                let slots = self
                    .edge_index
                    .get(&EdgeRef::new(u, nb.v).packed())
                    .unwrap_or_else(|| panic!("edge ({u} -> {}) missing from index", nb.v));
                assert_eq!(slots.out_pos as usize, pos, "out_pos stale for ({u} -> {})", nb.v);
                let mirror = self.in_adj[nb.v.index()][slots.in_pos as usize];
                assert_eq!(mirror.v, u, "in-list mirror mismatch for ({u} -> {})", nb.v);
                assert!(
                    (mirror.w - nb.w).abs() < 1e-9,
                    "in/out weight mismatch for ({u} -> {})",
                    nb.v
                );
            }
        }
        assert_eq!(edge_count, self.num_edges, "num_edges out of sync");
        assert_eq!(self.edge_index.len(), self.num_edges, "edge index size out of sync");
        assert!(
            (total - self.total_weight).abs() < 1e-6 * (1.0 + total.abs()),
            "total_weight out of sync: recomputed {total}, stored {}",
            self.total_weight
        );
        for (v, (&got, &want)) in incident.iter().zip(&self.incident_weight).enumerate() {
            assert!(
                (got - want).abs() < 1e-6 * (1.0 + got.abs()),
                "incident weight of v{v} out of sync: recomputed {got}, stored {want}"
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn graph_with_vertices(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for _ in 0..n {
            g.add_vertex(0.0).unwrap();
        }
        g
    }

    #[test]
    fn empty_graph() {
        let g = DynamicGraph::new();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_weight(), 0.0);
    }

    #[test]
    fn add_vertices_accumulates_weight() {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(1.5).unwrap();
        let b = g.add_vertex(0.0).unwrap();
        assert_eq!(a, v(0));
        assert_eq!(b, v(1));
        assert_eq!(g.total_weight(), 1.5);
        assert_eq!(g.vertex_weight(a), 1.5);
        assert_eq!(g.incident_weight(a), 1.5);
    }

    #[test]
    fn negative_vertex_weight_rejected() {
        let mut g = DynamicGraph::new();
        assert!(matches!(g.add_vertex(-1.0), Err(GraphError::NegativeVertexWeight { .. })));
        let a = g.add_vertex(1.0).unwrap();
        assert!(g.set_vertex_weight(a, -0.5).is_err());
        assert!(g.add_vertex(f64::NAN).is_err());
    }

    #[test]
    fn insert_edge_basic() {
        let mut g = graph_with_vertices(3);
        let r = g.insert_edge(v(0), v(1), 2.0).unwrap();
        assert!(r.is_new);
        assert_eq!(r.weight_after, 2.0);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(v(0), v(1)), Some(2.0));
        assert_eq!(g.edge_weight(v(1), v(0)), None);
        assert_eq!(g.incident_weight(v(0)), 2.0);
        assert_eq!(g.incident_weight(v(1)), 2.0);
        assert_eq!(g.incident_weight(v(2)), 0.0);
        assert_eq!(g.total_weight(), 2.0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn insert_edge_accumulates_parallel_transactions() {
        let mut g = graph_with_vertices(2);
        g.insert_edge(v(0), v(1), 2.0).unwrap();
        let r = g.insert_edge(v(0), v(1), 3.0).unwrap();
        assert!(!r.is_new);
        assert_eq!(r.weight_after, 5.0);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(v(0), v(1)), Some(5.0));
        assert_eq!(g.total_weight(), 5.0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn antiparallel_edges_are_distinct() {
        let mut g = graph_with_vertices(2);
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        g.insert_edge(v(1), v(0), 4.0).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(v(0), v(1)), Some(1.0));
        assert_eq!(g.edge_weight(v(1), v(0)), Some(4.0));
        assert_eq!(g.mutual_weight(v(0), v(1)), 5.0);
        assert_eq!(g.incident_weight(v(0)), 5.0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn invalid_edges_rejected() {
        let mut g = graph_with_vertices(2);
        assert!(matches!(g.insert_edge(v(0), v(0), 1.0), Err(GraphError::SelfLoop { .. })));
        assert!(matches!(
            g.insert_edge(v(0), v(1), 0.0),
            Err(GraphError::NonPositiveEdgeWeight { .. })
        ));
        assert!(matches!(
            g.insert_edge(v(0), v(1), -2.0),
            Err(GraphError::NonPositiveEdgeWeight { .. })
        ));
        assert!(matches!(
            g.insert_edge(v(0), v(5), 1.0),
            Err(GraphError::VertexOutOfBounds { .. })
        ));
        assert!(g.insert_edge(v(0), v(1), f64::INFINITY).is_err());
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn ensure_vertex_grows() {
        let mut g = DynamicGraph::new();
        assert_eq!(g.ensure_vertex(v(4)), 5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.ensure_vertex(v(2)), 0);
        g.insert_edge(v(4), v(2), 1.0).unwrap();
        g.check_invariants().unwrap();
    }

    #[test]
    fn set_vertex_weight_updates_aggregates() {
        let mut g = graph_with_vertices(2);
        g.insert_edge(v(0), v(1), 2.0).unwrap();
        g.set_vertex_weight(v(0), 3.0).unwrap();
        assert_eq!(g.vertex_weight(v(0)), 3.0);
        assert_eq!(g.incident_weight(v(0)), 5.0);
        assert_eq!(g.total_weight(), 5.0);
        g.set_vertex_weight(v(0), 1.0).unwrap();
        assert_eq!(g.total_weight(), 3.0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn neighbors_yields_both_directions() {
        let mut g = graph_with_vertices(3);
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        g.insert_edge(v(2), v(0), 2.0).unwrap();
        let nbrs: Vec<_> = g.neighbors(v(0)).collect();
        assert_eq!(nbrs.len(), 2);
        assert!(nbrs.contains(&Neighbor { v: v(1), w: 1.0 }));
        assert!(nbrs.contains(&Neighbor { v: v(2), w: 2.0 }));
        assert_eq!(g.degree(v(0)), 2);
        assert_eq!(g.out_degree(v(0)), 1);
        assert_eq!(g.in_degree(v(0)), 1);
    }

    #[test]
    fn delete_edge_roundtrip() {
        let mut g = graph_with_vertices(3);
        g.insert_edge(v(0), v(1), 2.0).unwrap();
        g.insert_edge(v(0), v(2), 3.0).unwrap();
        g.insert_edge(v(1), v(2), 4.0).unwrap();
        let w = g.delete_edge(v(0), v(1)).unwrap();
        assert_eq!(w, 2.0);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(v(0), v(1)), None);
        assert_eq!(g.edge_weight(v(0), v(2)), Some(3.0));
        assert_eq!(g.incident_weight(v(0)), 3.0);
        assert_eq!(g.incident_weight(v(1)), 4.0);
        assert_eq!(g.total_weight(), 7.0);
        g.check_invariants().unwrap();
        assert!(matches!(g.delete_edge(v(0), v(1)), Err(GraphError::EdgeNotFound { .. })));
    }

    #[test]
    fn delete_patches_displaced_index_entries() {
        // Force swap_remove to displace: delete the FIRST of several
        // out-edges of the same source.
        let mut g = graph_with_vertices(4);
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        g.insert_edge(v(0), v(2), 2.0).unwrap();
        g.insert_edge(v(0), v(3), 3.0).unwrap();
        g.insert_edge(v(2), v(3), 5.0).unwrap();
        g.delete_edge(v(0), v(1)).unwrap();
        g.check_invariants().unwrap();
        // The displaced edge (0 -> 3) must still resolve correctly.
        assert_eq!(g.edge_weight(v(0), v(3)), Some(3.0));
        g.delete_edge(v(0), v(3)).unwrap();
        g.check_invariants().unwrap();
        assert_eq!(g.edge_weight(v(0), v(2)), Some(2.0));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn decrease_edge_partial_and_full() {
        let mut g = graph_with_vertices(2);
        g.insert_edge(v(0), v(1), 5.0).unwrap();
        assert_eq!(g.decrease_edge(v(0), v(1), 2.0).unwrap(), 2.0);
        assert_eq!(g.edge_weight(v(0), v(1)), Some(3.0));
        assert_eq!(g.incident_weight(v(0)), 3.0);
        assert_eq!(g.total_weight(), 3.0);
        g.check_invariants().unwrap();
        // Removing the remainder deletes the edge.
        assert_eq!(g.decrease_edge(v(0), v(1), 3.0).unwrap(), 3.0);
        assert_eq!(g.edge_weight(v(0), v(1)), None);
        assert_eq!(g.num_edges(), 0);
        g.check_invariants().unwrap();
        assert!(g.decrease_edge(v(0), v(1), 1.0).is_err());
    }

    #[test]
    fn decrease_edge_rejects_bad_amounts() {
        let mut g = graph_with_vertices(2);
        g.insert_edge(v(0), v(1), 5.0).unwrap();
        assert!(g.decrease_edge(v(0), v(1), 0.0).is_err());
        assert!(g.decrease_edge(v(0), v(1), -1.0).is_err());
        // Over-removal clamps to full deletion semantics.
        assert_eq!(g.decrease_edge(v(0), v(1), 99.0).unwrap(), 5.0);
    }

    #[test]
    fn iter_edges_covers_all() {
        let mut g = graph_with_vertices(3);
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        g.insert_edge(v(1), v(2), 2.0).unwrap();
        let mut edges: Vec<_> = g.iter_edges().collect();
        edges.sort_by_key(|(s, d, _)| (s.0, d.0));
        assert_eq!(edges, vec![(v(0), v(1), 1.0), (v(1), v(2), 2.0)]);
    }

    #[test]
    fn clone_is_deep() {
        let mut g = graph_with_vertices(2);
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        let snapshot = g.clone();
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        assert_eq!(snapshot.edge_weight(v(0), v(1)), Some(1.0));
        assert_eq!(g.edge_weight(v(0), v(1)), Some(2.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A random mutation script against a small vertex universe.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u32, f64),
        Delete(u32, u32),
        SetWeight(u32, f64),
    }

    fn op_strategy(n: u32) -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0..n, 0..n, 0.1f64..10.0).prop_map(|(a, b, w)| Op::Insert(a, b, w)),
            2 => (0..n, 0..n).prop_map(|(a, b)| Op::Delete(a, b)),
            1 => (0..n, 0.0f64..5.0).prop_map(|(a, w)| Op::SetWeight(a, w)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn invariants_hold_under_arbitrary_mutation(
            ops in proptest::collection::vec(op_strategy(8), 1..200)
        ) {
            let mut g = DynamicGraph::new();
            for _ in 0..8 {
                g.add_vertex(0.0).unwrap();
            }
            for op in ops {
                match op {
                    Op::Insert(a, b, w) => {
                        let _ = g.insert_edge(VertexId(a), VertexId(b), w);
                    }
                    Op::Delete(a, b) => {
                        let _ = g.delete_edge(VertexId(a), VertexId(b));
                    }
                    Op::SetWeight(a, w) => {
                        g.set_vertex_weight(VertexId(a), w).unwrap();
                    }
                }
            }
            g.check_invariants().unwrap();
        }

        #[test]
        fn insert_then_delete_restores_weight_totals(
            edges in proptest::collection::vec((0u32..6, 0u32..6, 0.5f64..4.0), 1..40)
        ) {
            let mut g = DynamicGraph::new();
            for _ in 0..6 {
                g.add_vertex(1.0).unwrap();
            }
            let base_total = g.total_weight();
            let mut inserted = Vec::new();
            for (a, b, w) in edges {
                if g.insert_edge(VertexId(a), VertexId(b), w).is_ok() {
                    inserted.push((a, b));
                }
            }
            inserted.sort_unstable();
            inserted.dedup();
            for (a, b) in inserted {
                g.delete_edge(VertexId(a), VertexId(b)).unwrap();
            }
            prop_assert_eq!(g.num_edges(), 0);
            prop_assert!((g.total_weight() - base_total).abs() < 1e-9);
            g.check_invariants().unwrap();
        }
    }
}
