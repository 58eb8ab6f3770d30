//! Peeling-sequence reordering with edge deletion (Appendix C.1).
//!
//! Deleting (or lightening by `c`) edge `(u_i, u_j)` with `i < j` in the
//! peeling order changes the peeling weight of exactly two vertices, and
//! only in the sets that hold both: for `m ≤ i`, `w_{u_i}(S_m)` and
//! `w_{u_j}(S_m)` drop by `c`. For `m > i`, `S_m` no longer holds `u_i`, so
//! every weight there is unchanged — and so is every stored `Δ_m` past `i`,
//! `Δ_j` included. The pass rewrites one window that starts at the first
//! position whose peel step changes:
//!
//! 1. **Divergence walk.** Every weight except the two endpoints' is
//!    untouched, so the old prefix `[0, m)` survives as long as neither
//!    endpoint's new key in any `S_{m'}` (`m' < m`) beats `key_at(m')`.
//!    Walk `m' = i-1, i-2, …`, adding each passed vertex's edge weight to
//!    both endpoints' new weights (read from a per-vertex tie array filled
//!    from the two adjacency lists, so O(1) per position), and record the
//!    smallest violating position as `m*` (`i` when none violates). Stop at
//!    the first candidate `u_{m'}` whose full-set key `w_{u_{m'}}(S_0)` is
//!    below both endpoints' keys in `S_{m'}`: for every `m'' ≤ m'` the
//!    greedy choice and monotonicity give
//!    `key_at(m'') ≤ w_{u_{m'}}(S_{m''}) ≤ w_{u_{m'}}(S_0)`, while each
//!    endpoint's key in `S_{m''} ⊇ S_{m'}` is at least its key in `S_{m'}`,
//!    so nothing before the stop can violate.
//! 2. **Merge in place.** The window is the shared runner of
//!    `crate::reorder` with `u_i` as its only seed: the pending queue `T`
//!    starts with `u_i` at its recovered weight in `R = S_{m*}`, the old
//!    run `[m*, i)` is the runner's *middle run*, read in place, and the
//!    old suffix from `i + 1` is its tail. Every middle vertex other than
//!    `u_i` keeps its weight in every set (`u_j` lies past `i`), so a white
//!    middle head's stored `Δ_m` is exact and the least of the unconsumed
//!    run; only a vertex emitted from `T` ahead of the middle cursor makes
//!    a middle neighbor's stored key an overestimate, and the runner pulls
//!    such neighbors into `T` when it emits that vertex.
//! 3. **The tail.** The later endpoint `u_j` stays in the tail: `S_k` for
//!    `k > i` lacks `u_i`, so `w_{u_j}(R) ≥ w_{u_j}(S_k)` is the old
//!    invariant every tail vertex satisfies. While the middle run is
//!    unconsumed, a tail head's stored key is only a lower bound (`R` holds
//!    the middle run, `S_k` does not) and the runner recovers it into `T`;
//!    afterwards a white tail head is emitted at its stored, exact key.
//!
//! Most deletions barely reorder the reopened run, so it is merged where
//! it lies instead of being replayed through the queue. A vertex-weight
//! decrease is the same pass with one endpoint. The emitted window is
//! written back in place and reported to the detection index like any
//! insertion window.

use crate::order::PeelKey;
use crate::reorder::{run_window, ReorderScratch, ReorderStats};
use crate::state::PeelingState;
use spade_graph::{DynamicGraph, GraphError, VertexId};

/// Removes `amount` of weight from edge `(src, dst)` in `graph` (deleting
/// the edge when fully drained) and restores the greedy peeling invariant
/// of `state`.
///
/// `on_window` receives the rewritten physical range exactly as in
/// [`crate::reorder::reorder`].
pub fn delete_and_reorder(
    graph: &mut DynamicGraph,
    state: &mut PeelingState,
    scratch: &mut ReorderScratch,
    src: VertexId,
    dst: VertexId,
    amount: f64,
    mut on_window: impl FnMut(usize, &[f64]),
) -> Result<ReorderStats, GraphError> {
    let removed = graph.decrease_edge(src, dst, amount)?;
    let (pi, pj) = (state.position_of(src), state.position_of(dst));
    let (i, later) = if pi < pj { (pi, dst) } else { (pj, src) };
    Ok(reorder_after_drop(graph, state, scratch, i, removed, Some(later), &mut on_window))
}

/// Lowers the prior suspiciousness of `v` to `new_weight` and restores the
/// greedy invariant. A vertex-weight decrease behaves exactly like an
/// incident-edge deletion without a second endpoint: only `v`'s own
/// peeling weight drops (by the same amount at every prefix), so the
/// deletion pass applies with one endpoint.
pub fn decrease_vertex_weight_and_reorder(
    graph: &mut DynamicGraph,
    state: &mut PeelingState,
    scratch: &mut ReorderScratch,
    v: VertexId,
    new_weight: f64,
    mut on_window: impl FnMut(usize, &[f64]),
) -> Result<ReorderStats, GraphError> {
    let drop = graph.vertex_weight(v) - new_weight;
    debug_assert!(drop >= 0.0, "use the insertion reorder for weight increases");
    graph.set_vertex_weight(v, new_weight)?;
    if drop == 0.0 {
        return Ok(ReorderStats::default());
    }
    let i = state.position_of(v);
    Ok(reorder_after_drop(graph, state, scratch, i, drop, None, &mut on_window))
}

/// The deletion pass, run after `graph` was mutated: the vertex at
/// position `i` lost `drop` of peeling weight in every set holding it, and
/// so did `later` (at a position past `i`) in every set holding both.
fn reorder_after_drop(
    graph: &DynamicGraph,
    state: &mut PeelingState,
    scratch: &mut ReorderScratch,
    i: usize,
    drop: f64,
    later: Option<VertexId>,
    on_window: &mut impl FnMut(usize, &[f64]),
) -> ReorderStats {
    let mut stats = ReorderStats::default();
    scratch.begin_epoch(graph.num_vertices());
    let start = first_divergence(graph, state, scratch, i, drop, later, &mut stats);
    run_window(graph, state, scratch, start, i, &mut stats, on_window);
    stats
}

/// Phase 1, the divergence walk: the first position `m* ≤ i` whose peel
/// step the drop changes (see the module doc for the stopping rule).
fn first_divergence(
    graph: &DynamicGraph,
    state: &PeelingState,
    scratch: &mut ReorderScratch,
    i: usize,
    drop: f64,
    later: Option<VertexId>,
    stats: &mut ReorderStats,
) -> usize {
    let lightened = state.vertex_at(i);
    // Each endpoint's new key in `S_i`, then in `S_{m'}` as the walk goes.
    let mut keys = [PeelKey::new(state.delta_at(i) - drop, lightened); 2];
    for nb in graph.neighbors(lightened) {
        scratch.add_tie(nb.v, 0, nb.w);
    }
    stats.edges_scanned += graph.degree(lightened);
    let mut ends = 1;
    if let Some(u) = later {
        // `w_u(S_i)` from the mutated graph: the old weight minus `drop`.
        let mut w = graph.vertex_weight(u);
        for nb in graph.neighbors(u) {
            if state.position_of(nb.v) >= i {
                w += nb.w;
            } else {
                scratch.add_tie(nb.v, 1, nb.w);
            }
        }
        stats.edges_scanned += graph.degree(u);
        keys[1] = PeelKey::new(w, u);
        ends = 2;
    }
    let keys = &mut keys[..ends];
    let mut first = i;
    for m in (0..i).rev() {
        let cand = state.vertex_at(m);
        for (key, tie) in keys.iter_mut().zip(scratch.tie(cand)) {
            key.weight += tie;
        }
        let upper = PeelKey::new(graph.incident_weight(cand), cand);
        if keys.iter().all(|key| upper < *key) {
            break;
        }
        let at = state.key_at(m);
        if keys.iter().any(|key| *key < at) {
            first = m;
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn check_delete(base: &DynamicGraph, deletions: &[(u32, u32)]) {
        let mut graph = base.clone();
        let mut state = PeelingState::from_outcome(&peel(&graph));
        let mut scratch = ReorderScratch::new();
        for &(a, b) in deletions {
            let w = graph.edge_weight(v(a), v(b)).unwrap();
            delete_and_reorder(&mut graph, &mut state, &mut scratch, v(a), v(b), w, |_, _| {})
                .unwrap();
            let fresh = peel(&graph);
            assert_eq!(
                state.logical_order(),
                fresh.order,
                "deletion of ({a},{b}) diverged from static peel"
            );
            state.validate_greedy(&graph, 1e-9);
        }
    }

    fn paper_example_plus_edge() -> DynamicGraph {
        // Fig. 16's setting: the Fig. 3 graph *with* the (u1, u5) edge, from
        // which the outdated edge is then deleted.
        let mut g = DynamicGraph::new();
        for _ in 0..5 {
            g.add_vertex(0.0).unwrap();
        }
        g.insert_edge(v(0), v(1), 2.0).unwrap();
        g.insert_edge(v(1), v(2), 1.0).unwrap();
        g.insert_edge(v(1), v(4), 4.0).unwrap();
        g.insert_edge(v(3), v(4), 2.0).unwrap();
        g.insert_edge(v(0), v(3), 2.0).unwrap();
        g.insert_edge(v(0), v(4), 4.0).unwrap();
        g
    }

    #[test]
    fn paper_deletion_example() {
        check_delete(&paper_example_plus_edge(), &[(0, 4)]);
    }

    #[test]
    fn delete_every_edge_one_by_one() {
        let g = paper_example_plus_edge();
        let edges: Vec<(u32, u32)> = g.iter_edges().map(|(s, d, _)| (s.0, d.0)).collect();
        check_delete(&g, &edges);
    }

    #[test]
    fn insert_then_delete_restores_order() {
        let base = paper_example_plus_edge();
        let mut graph = base.clone();
        let mut state = PeelingState::from_outcome(&peel(&graph));
        let mut scratch = ReorderScratch::new();
        let before = state.logical_order();

        graph.insert_edge(v(2), v(3), 6.0).unwrap();
        let mut blacks = Vec::new();
        crate::reorder::reorder_single_edge(
            &graph,
            &mut state,
            v(2),
            v(3),
            &mut scratch,
            &mut blacks,
            |_, _| {},
        );
        delete_and_reorder(&mut graph, &mut state, &mut scratch, v(2), v(3), 6.0, |_, _| {})
            .unwrap();
        assert_eq!(state.logical_order(), before);
        state.validate_greedy(&graph, 1e-9);
    }

    #[test]
    fn partial_decrease_reorders_correctly() {
        let base = paper_example_plus_edge();
        let mut graph = base.clone();
        let mut state = PeelingState::from_outcome(&peel(&graph));
        let mut scratch = ReorderScratch::new();
        delete_and_reorder(&mut graph, &mut state, &mut scratch, v(1), v(4), 3.0, |_, _| {})
            .unwrap();
        assert_eq!(graph.edge_weight(v(1), v(4)), Some(1.0));
        assert_eq!(state.logical_order(), peel(&graph).order);
        state.validate_greedy(&graph, 1e-9);
    }

    #[test]
    fn deleting_missing_edge_errors_without_corruption() {
        let base = paper_example_plus_edge();
        let mut graph = base.clone();
        let mut state = PeelingState::from_outcome(&peel(&graph));
        let before = state.logical_order();
        let mut scratch = ReorderScratch::new();
        let err =
            delete_and_reorder(&mut graph, &mut state, &mut scratch, v(2), v(4), 1.0, |_, _| {});
        assert!(err.is_err());
        assert_eq!(state.logical_order(), before);
    }

    #[test]
    fn randomized_interleaved_inserts_and_deletes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        for _trial in 0..30 {
            let n = rng.gen_range(4..16usize);
            let mut graph = DynamicGraph::new();
            for _ in 0..n {
                graph.add_vertex(0.0).unwrap();
            }
            for _ in 0..rng.gen_range(2..3 * n) {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a != b {
                    let _ = graph.insert_edge(v(a), v(b), rng.gen_range(1..6) as f64);
                }
            }
            let mut state = PeelingState::from_outcome(&peel(&graph));
            let mut scratch = ReorderScratch::new();
            let mut blacks = Vec::new();
            for _ in 0..rng.gen_range(1..20) {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a == b {
                    continue;
                }
                if rng.gen_bool(0.5) {
                    if graph.insert_edge(v(a), v(b), rng.gen_range(1..6) as f64).is_ok() {
                        crate::reorder::reorder_single_edge(
                            &graph,
                            &mut state,
                            v(a),
                            v(b),
                            &mut scratch,
                            &mut blacks,
                            |_, _| {},
                        );
                    }
                } else if let Some(w) = graph.edge_weight(v(a), v(b)) {
                    let amount = if rng.gen_bool(0.5) { w } else { (w / 2.0).max(0.5) };
                    delete_and_reorder(
                        &mut graph,
                        &mut state,
                        &mut scratch,
                        v(a),
                        v(b),
                        amount,
                        |_, _| {},
                    )
                    .unwrap();
                }
            }
            assert_eq!(state.logical_order(), peel(&graph).order, "diverged");
            state.validate_greedy(&graph, 1e-9);
        }
    }

    /// Runs one deletion-side pass and checks its window against a fresh
    /// peel: with `d` the first position where the old order and the new
    /// peel differ, the window starts no later than `d`, exactly at `d`
    /// when `d` precedes the lightened slot `i`, and the rewritten order is
    /// the static peel's. Returns whether the exact-start case applied.
    fn assert_window_is_affected_area(
        graph: &mut DynamicGraph,
        state: &mut PeelingState,
        i: usize,
        pass: impl FnOnce(&mut DynamicGraph, &mut PeelingState, &mut dyn FnMut(usize, &[f64])),
    ) -> bool {
        let before = state.logical_order();
        let n = before.len();
        let mut start = None;
        pass(graph, state, &mut |lo, ws| start = Some(n - lo - ws.len()));
        let fresh = peel(graph).order;
        let d = before.iter().zip(&fresh).position(|(a, b)| a != b).unwrap_or(n);
        let start = start.expect("a deletion pass rewrites one window");
        assert!(start <= d, "window starts at {start}, after the first divergence {d}");
        if d < i {
            assert_eq!(start, d, "the divergence precedes slot {i}");
        }
        assert_eq!(state.logical_order(), fresh, "diverged from static peel");
        d < i
    }

    #[test]
    fn deletion_window_starts_at_the_first_divergence() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(27);
        let mut before_slot = 0;
        for _trial in 0..12 {
            let n = rng.gen_range(30..=60usize);
            let mut graph = DynamicGraph::new();
            for _ in 0..n {
                graph.add_vertex(rng.gen_range(0..3) as f64).unwrap();
            }
            for _ in 0..2 * n {
                let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                if a != b {
                    graph.insert_edge(v(a), v(b), rng.gen_range(1..6) as f64).unwrap();
                }
            }
            let mut state = PeelingState::from_outcome(&peel(&graph));
            let mut scratch = ReorderScratch::new();
            let mut blacks = Vec::new();
            for _ in 0..80 {
                let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                match rng.gen_range(0..4) {
                    0 if a != b => {
                        graph.insert_edge(v(a), v(b), rng.gen_range(1..6) as f64).unwrap();
                        crate::reorder::reorder_single_edge(
                            &graph,
                            &mut state,
                            v(a),
                            v(b),
                            &mut scratch,
                            &mut blacks,
                            |_, _| {},
                        );
                    }
                    1 if graph.vertex_weight(v(a)) > 0.0 => {
                        let lower = rng.gen_range(0..graph.vertex_weight(v(a)) as u32) as f64;
                        let i = state.position_of(v(a));
                        let pass =
                            |g: &mut DynamicGraph,
                             s: &mut PeelingState,
                             on: &mut dyn FnMut(usize, &[f64])| {
                                decrease_vertex_weight_and_reorder(
                                    g,
                                    s,
                                    &mut scratch,
                                    v(a),
                                    lower,
                                    on,
                                )
                                .unwrap();
                            };
                        before_slot +=
                            assert_window_is_affected_area(&mut graph, &mut state, i, pass)
                                as usize;
                    }
                    _ => {
                        let Some(w) = graph.edge_weight(v(a), v(b)) else { continue };
                        let amount = if w == 1.0 || rng.gen_bool(0.5) {
                            w
                        } else {
                            rng.gen_range(1..w as u32) as f64
                        };
                        let i = state.position_of(v(a)).min(state.position_of(v(b)));
                        let pass =
                            |g: &mut DynamicGraph,
                             s: &mut PeelingState,
                             on: &mut dyn FnMut(usize, &[f64])| {
                                delete_and_reorder(g, s, &mut scratch, v(a), v(b), amount, on)
                                    .unwrap();
                            };
                        before_slot +=
                            assert_window_is_affected_area(&mut graph, &mut state, i, pass)
                                as usize;
                    }
                }
            }
            state.validate_greedy(&graph, 1e-9);
        }
        assert!(before_slot > 0, "no pass diverged before its lightened slot");
    }

    /// The three-source merge on hub-heavy graphs, where one deletion
    /// reopens a long middle run whose vertices neighbor the lightened
    /// hub: inserts, full and partial deletes, vertex-weight decreases and
    /// hub drains, each checked against a static peel.
    #[test]
    fn three_source_merge_matches_static_peel_on_hub_heavy_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2024);
        let mut reopened = 0;
        for _trial in 0..150 {
            let n = rng.gen_range(5..=80u32);
            let hubs = rng.gen_range(1..=3u32);
            // One endpoint of ~30 % of the edges is a hub.
            let endpoints = |rng: &mut rand_chacha::ChaCha8Rng| loop {
                let a =
                    if rng.gen_bool(0.3) { rng.gen_range(0..hubs) } else { rng.gen_range(0..n) };
                let b = rng.gen_range(0..n);
                if a != b {
                    break if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                }
            };
            let mut graph = DynamicGraph::new();
            for _ in 0..n {
                graph.add_vertex(rng.gen_range(0..3) as f64).unwrap();
            }
            for _ in 0..2 * n {
                let (a, b) = endpoints(&mut rng);
                graph.insert_edge(v(a), v(b), rng.gen_range(1..6) as f64).unwrap();
            }
            let mut state = PeelingState::from_outcome(&peel(&graph));
            let mut scratch = ReorderScratch::new();
            let mut blacks = Vec::new();
            for _ in 0..40 {
                let edges: Vec<(VertexId, VertexId, f64)> = graph.iter_edges().collect();
                match rng.gen_range(0..10) {
                    0..=2 => {
                        let (a, b) = endpoints(&mut rng);
                        graph.insert_edge(v(a), v(b), rng.gen_range(1..6) as f64).unwrap();
                        crate::reorder::reorder_single_edge(
                            &graph,
                            &mut state,
                            v(a),
                            v(b),
                            &mut scratch,
                            &mut blacks,
                            |_, _| {},
                        );
                        assert_eq!(state.logical_order(), peel(&graph).order, "insert diverged");
                    }
                    3..=7 if !edges.is_empty() => {
                        let (a, b, w) = edges[rng.gen_range(0..edges.len())];
                        let amount = if w == 1.0 || rng.gen_bool(0.5) {
                            w
                        } else {
                            rng.gen_range(1..w as u32) as f64
                        };
                        let i = state.position_of(a).min(state.position_of(b));
                        let pass =
                            |g: &mut DynamicGraph,
                             s: &mut PeelingState,
                             on: &mut dyn FnMut(usize, &[f64])| {
                                delete_and_reorder(g, s, &mut scratch, a, b, amount, on).unwrap();
                            };
                        reopened += assert_window_is_affected_area(&mut graph, &mut state, i, pass)
                            as usize;
                    }
                    8 => {
                        let a = v(rng.gen_range(0..n));
                        let weight = graph.vertex_weight(a);
                        if weight == 0.0 {
                            continue;
                        }
                        let lower = rng.gen_range(0..weight as u32) as f64;
                        let i = state.position_of(a);
                        let pass =
                            |g: &mut DynamicGraph,
                             s: &mut PeelingState,
                             on: &mut dyn FnMut(usize, &[f64])| {
                                decrease_vertex_weight_and_reorder(
                                    g,
                                    s,
                                    &mut scratch,
                                    a,
                                    lower,
                                    on,
                                )
                                .unwrap();
                            };
                        reopened += assert_window_is_affected_area(&mut graph, &mut state, i, pass)
                            as usize;
                    }
                    _ => {
                        // Drain a hub: fully delete each of its out-edges.
                        let hub = v(rng.gen_range(0..hubs));
                        let out: Vec<(VertexId, f64)> =
                            graph.out_neighbors(hub).iter().map(|nb| (nb.v, nb.w)).collect();
                        for (b, w) in out {
                            delete_and_reorder(
                                &mut graph,
                                &mut state,
                                &mut scratch,
                                hub,
                                b,
                                w,
                                |_, _| {},
                            )
                            .unwrap();
                        }
                        assert_eq!(state.logical_order(), peel(&graph).order, "drain diverged");
                    }
                }
                state.validate_greedy(&graph, 1e-9);
            }
        }
        assert!(reopened > 1000, "only {reopened} passes reopened a middle run");
    }

    #[test]
    fn fraudar_partial_deletes_keep_a_valid_greedy_state() {
        use crate::engine::SpadeEngine;
        use crate::metric::Fraudar;
        let mut e = SpadeEngine::new(Fraudar::new());
        let edges = [(0u32, 5u32), (1, 5), (2, 5), (3, 5), (0, 6), (1, 6), (2, 6), (4, 7), (3, 7)];
        for &(a, b) in &edges {
            e.insert_edge(v(a), v(b), 1.0).unwrap();
        }
        for &(a, b) in &[(1u32, 5u32), (0, 6), (3, 7)] {
            let half = e.graph().edge_weight(v(a), v(b)).unwrap() / 2.0;
            e.delete_transaction(v(a), v(b), half).unwrap();
            // FD weights are irrational: greedy within tolerance.
            e.state().validate_greedy(e.graph(), 1e-9);
        }
    }

    /// Builds the literal graph of a pinned case and peels it.
    fn pinned(n: usize, edges: &[(u32, u32, f64)]) -> (DynamicGraph, PeelingState) {
        let mut graph = DynamicGraph::new();
        for _ in 0..n {
            graph.add_vertex(0.0).unwrap();
        }
        for &(a, b, w) in edges {
            graph.insert_edge(v(a), v(b), w).unwrap();
        }
        let state = PeelingState::from_outcome(&peel(&graph));
        (graph, state)
    }

    #[test]
    fn later_endpoint_can_end_before_the_lightened_slot() {
        // Old order [3, 2, 1, 0]: deleting (0, 1) lightens v1 (slot 2) and
        // leaves v0 with weight 1, so the later endpoint now peels first.
        let (mut graph, mut state) =
            pinned(4, &[(1, 2, 1.0), (0, 1, 3.0), (1, 3, 2.0), (0, 2, 1.0)]);
        assert_eq!(state.logical_order(), [v(3), v(2), v(1), v(0)]);
        let exact = assert_window_is_affected_area(&mut graph, &mut state, 2, |g, s, on| {
            delete_and_reorder(g, s, &mut ReorderScratch::new(), v(0), v(1), 3.0, on).unwrap();
        });
        assert!(exact);
        assert_eq!(state.logical_order(), [v(0), v(2), v(3), v(1)]);
        state.validate_greedy(&graph, 1e-9);
    }

    #[test]
    fn later_endpoint_alone_sets_the_window_start() {
        // Old order [1, 3, 2, 0]: deleting (0, 2) lightens v2 (slot 2), whose
        // new key in S_1 still loses the (5, v3) tie; v0 drops to 0 and
        // beats v3 at slot 1, so only the later endpoint moves the start.
        let (mut graph, mut state) = pinned(4, &[(0, 2, 5.0), (2, 3, 5.0)]);
        assert_eq!(state.logical_order(), [v(1), v(3), v(2), v(0)]);
        let exact = assert_window_is_affected_area(&mut graph, &mut state, 2, |g, s, on| {
            delete_and_reorder(g, s, &mut ReorderScratch::new(), v(0), v(2), 5.0, on).unwrap();
        });
        assert!(exact);
        assert_eq!(state.logical_order(), [v(1), v(0), v(3), v(2)]);
        state.validate_greedy(&graph, 1e-9);
    }
}
