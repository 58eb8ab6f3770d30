//! Incremental peeling-sequence reordering (paper §4.1 and §4.2, and the
//! deletion extension of Appendix C.1).
//!
//! Insertion (the single-edge algorithm `T` and the batch Algorithm 2) and
//! deletion are instances of one *window runner*. It merges three sources
//! in `(weight, id)` order and emits the greedy peel of the window:
//!
//! * the pending queue `T`, which starts with the one vertex the update
//!   made stale (the insertion's earlier endpoint, the deletion's lightened
//!   vertex at position `p`);
//! * the *middle run*, the old slots `[start, p)`, read in place by a
//!   cursor `c` — empty for insertion, the run a deletion's divergence
//!   walk reopened otherwise;
//! * the *tail*, the old suffix from `p + 1`, read by a cursor `k`.
//!
//! Everything before the window and after it is untouched — the window is
//! exactly the affected area `G_T` whose size the paper's complexity
//! analysis is about (`O(|E_T| + |E_T| log |V_T|)`).
//!
//! Staleness is kept by *old position*, not by vertex, in a bitset over
//! the sequence. A *black* position holds an insertion endpoint (`ΔV`;
//! marking its position also dedupes `ΔV`). A *gray* one holds a vertex
//! that has or had a neighbor in `T`: seeding a vertex marks each
//! neighbor's position that a cursor can still reach (at or past `k`, or in
//! `[c, p)`). An unmarked position is *white*. The window is written back
//! only when it ends, so every cursor reads old positions, and the marks
//! past a window's end stay valid for the next window of the same pass.
//!
//! Loop invariant (Lemmas 4.1/4.2 generalized to the `(weight, id)` total
//! order): let `R` be the not-yet-emitted vertices — the old positions
//! `≥ start` minus the emitted ones. By position, that is `T`, the tail
//! from `k`, and the unconsumed middle slots `[c, p)` whose vertex was not
//! emitted from `T` (a `done` stamp marks those; what a cursor emits falls
//! behind it).
//!
//! * every queue member's priority is its true peeling weight `w_u(R)`;
//! * the stored key of a white middle head is exact, and it is the minimum
//!   of the unconsumed middle run: the greedy step at `c` bounds every
//!   later middle vertex by its weight in `S_c`, and `R` lacks no neighbor
//!   of theirs from `S_c`;
//! * a stored key that counted an emitted neighbor is an *overestimate*:
//!   when a vertex at an old position past `c` is emitted from `T`, every
//!   unconsumed middle neighbor is pulled into `T` eagerly, at its
//!   recovered weight;
//! * every other stored key is a *lower bound* on the true key: a marked
//!   head (either cursor), and any tail head while the middle run is live
//!   (`R` holds the middle run, `S_k` does not). Such a head is
//!   *recovered* (recomputed against `R` from the adjacency lists) into `T`
//!   when its stored key is the least of the three;
//! * a white tail head is exact once the middle run is consumed.
//!
//! Under the invariant the least of the three keys decides the true global
//! minimum of `R` (Lemma 4.2), so the emitted sequence is bit-identical to
//! a from-scratch greedy peel of the updated graph. Once the middle run is
//! consumed the runner is the two-source insertion loop, which is all an
//! insertion runs; the window ends when `T` is empty too, at `[start, k)`.
//!
//! In that loop a white tail stretch whose stored keys all lie below `T`'s
//! least key is emitted as it stands. The runner scans it — one key
//! compare per slot, one bitset word per 64 slots — and records it as one
//! *run* segment, the old slots it spans. Everything else enters the
//! window as one vertex with its weight, white middle heads of a deletion
//! included. When the window ends, `PeelingState::write_window` copies each
//! run as a block to its new slots, `|T| > 0` earlier than its source, so
//! writing the segments in order never overwrites a source before it is
//! copied.

use crate::order::{MinQueue, PeelKey};
use crate::state::{PeelingState, Segment};
use spade_graph::{DynamicGraph, VertexId};

/// Counters describing the affected area of one reordering pass — the
/// quantities behind the paper's "Spade processes only 3.5e-4 of edges"
/// observation (§5.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Number of contiguous reorder windows executed.
    pub windows: usize,
    /// Vertices whose slot was rewritten (total window length, `|V_T|`).
    pub moved: usize,
    /// Vertices that passed through the pending queue `T`.
    pub queued: usize,
    /// Adjacency entries scanned (`|E_T|`, counting both directions).
    pub edges_scanned: usize,
}

impl ReorderStats {
    /// Accumulates another pass's counters.
    pub fn merge(&mut self, other: ReorderStats) {
        self.windows += other.windows;
        self.moved += other.moved;
        self.queued += other.queued;
        self.edges_scanned += other.edges_scanned;
    }
}

/// Reusable allocations for the reordering passes.
#[derive(Clone, Debug, Default)]
pub struct ReorderScratch {
    pub(crate) queue: MinQueue,
    /// The stale old positions of the current pass: black (an update's
    /// endpoint) or gray (a neighbor of a vertex that entered the pending
    /// queue), where a cursor can still reach them.
    marks: PositionMarks,
    /// Epoch stamps for the vertices a window has emitted from the pending
    /// queue: a middle slot so stamped has left `R` before the middle
    /// cursor reached it.
    done: Vec<u64>,
    /// Deletion's divergence walk: `ties[v].1[e]` is the edge weight
    /// between `v` and the walk's endpoint `e`, valid when
    /// `ties[v].0 == epoch`.
    ties: Vec<(u64, [f64; 2])>,
    epoch: u64,
    /// The current window in logical order: single emissions, and white
    /// tail runs named by the old slots they still occupy.
    window: Vec<Segment>,
}

impl ReorderScratch {
    /// Creates empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn begin_epoch(&mut self, num_vertices: usize) {
        self.epoch += 1;
        if self.done.len() < num_vertices {
            self.done.resize(num_vertices, 0);
            self.ties.resize(num_vertices, (0, [0.0; 2]));
        }
        self.marks.reset(num_vertices);
        self.queue.reset(num_vertices);
        self.window.clear();
    }

    #[inline(always)]
    fn is_done(&self, v: VertexId) -> bool {
        self.done[v.index()] == self.epoch
    }

    /// `true` when `v` is queued or emitted from the queue: the middle
    /// cursor passes over it.
    #[inline(always)]
    fn is_taken(&self, v: VertexId) -> bool {
        self.queue.contains(v) || self.is_done(v)
    }

    /// Adds `w` to the recorded edge weight between `v` and endpoint `end`.
    #[inline(always)]
    pub(crate) fn add_tie(&mut self, v: VertexId, end: usize, w: f64) {
        let slot = &mut self.ties[v.index()];
        if slot.0 != self.epoch {
            *slot = (self.epoch, [0.0; 2]);
        }
        slot.1[end] += w;
    }

    /// The edge weights between `v` and each endpoint recorded this epoch.
    #[inline(always)]
    pub(crate) fn tie(&self, v: VertexId) -> [f64; 2] {
        let (stamp, w) = self.ties[v.index()];
        if stamp == self.epoch {
            w
        } else {
            [0.0; 2]
        }
    }
}

/// A bitset over old positions, cleared through the list of words it set.
#[derive(Clone, Debug, Default)]
struct PositionMarks {
    words: Vec<u64>,
    touched: Vec<usize>,
}

impl PositionMarks {
    /// Clears every mark and covers positions `0..len`.
    fn reset(&mut self, len: usize) {
        for w in self.touched.drain(..) {
            self.words[w] = 0;
        }
        if self.words.len() < len.div_ceil(64) {
            self.words.resize(len.div_ceil(64), 0);
        }
    }

    /// Marks `pos`; `false` when it was marked already.
    #[inline(always)]
    fn mark(&mut self, pos: usize) -> bool {
        let (w, bit) = (pos / 64, 1u64 << (pos % 64));
        if self.words[w] == 0 {
            self.touched.push(w);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    #[inline(always)]
    fn is_marked(&self, pos: usize) -> bool {
        self.words[pos / 64] >> (pos % 64) & 1 == 1
    }

    /// The first marked position in `[from, to)`, or `to`; `to` may lie no
    /// further than the end of `from`'s word.
    #[inline(always)]
    fn first_in(&self, from: usize, to: usize) -> usize {
        match self.words[from / 64] >> (from % 64) {
            0 => to,
            bits => (from + bits.trailing_zeros() as usize).min(to),
        }
    }
}

/// One reordering pass over `state` after `graph` has already been
/// mutated.
///
/// `blacks` is the affected vertex set `ΔV`: for every inserted edge the
/// endpoint with the *smaller* peeling position (whose recorded weight
/// grew), plus any newly created vertices. The pass sorts and deduplicates
/// it internally.
///
/// `on_window(phys_lo, new_deltas)` fires once per rewritten window with
/// the physical (rank-space) range and its new weights so a density index
/// can ingest the change.
pub fn reorder(
    graph: &DynamicGraph,
    state: &mut PeelingState,
    blacks: &mut Vec<VertexId>,
    scratch: &mut ReorderScratch,
    mut on_window: impl FnMut(usize, &[f64]),
) -> ReorderStats {
    let mut stats = ReorderStats::default();
    if blacks.is_empty() || state.is_empty() {
        return stats;
    }
    scratch.begin_epoch(graph.num_vertices());

    // Dedupe `ΔV` in O(k) before sorting by marking each endpoint's
    // position: a k-edge burst onto one community names the same earlier
    // endpoint k times, and carrying the duplicates into the sort would
    // cost O(k log k) and seed the queue with redundant work. The mark
    // doubles as the black coloring.
    {
        let marks = &mut scratch.marks;
        blacks.retain(|&v| marks.mark(state.position_of(v)));
    }
    blacks.sort_unstable_by_key(|&v| state.position_of(v));

    // Global suffix cursor; windows never move it backwards.
    let mut cursor = 0usize;
    for &b in blacks.iter() {
        let pos = state.position_of(b);
        if pos < cursor {
            // Absorbed by a previous window (it was black, so the window
            // loop recovered and re-emitted it already).
            continue;
        }
        cursor = run_window(graph, state, scratch, pos, pos, &mut stats, &mut on_window);
    }
    stats
}

/// Inserts `v` into the pending queue with its *recovered* weight — the
/// true peeling weight against the remaining set `R`, recomputed from the
/// adjacency lists — and marks its neighbors' positions gray where a cursor
/// can still reach them.
fn seed(
    graph: &DynamicGraph,
    state: &PeelingState,
    scratch: &mut ReorderScratch,
    v: VertexId,
    at: Cursors,
    stats: &mut ReorderStats,
) {
    let mut w = graph.vertex_weight(v);
    for nb in graph.neighbors(v) {
        let pos = state.position_of(nb.v);
        let tail = pos >= at.k;
        let middle = (at.c..at.p).contains(&pos);
        if tail || middle {
            scratch.marks.mark(pos);
        }
        // In `R`: queued, at an unconsumed tail slot, or at an unconsumed
        // middle slot and not emitted from the queue.
        if tail || scratch.queue.contains(nb.v) || (middle && !scratch.is_done(nb.v)) {
            w += nb.w;
        }
    }
    scratch.queue.insert(v, w);
    stats.queued += 1;
    stats.edges_scanned += 2 * graph.degree(v);
}

/// The runner's cursors over old positions: the middle run is unconsumed
/// in `[c, p)`, the tail from `k`.
#[derive(Clone, Copy)]
struct Cursors {
    c: usize,
    p: usize,
    k: usize,
}

/// The end of the white run at tail position `k`: the first position from
/// `k` that is marked or whose stored key is not below the queue head.
fn white_run(state: &PeelingState, marks: &PositionMarks, k: usize, head: PeelKey) -> usize {
    let n = state.len();
    let mut at = k;
    while at < n {
        let word_end = ((at / 64 + 1) * 64).min(n);
        at = state.keys_below(at, marks.first_in(at, word_end), head);
        if at < word_end {
            break;
        }
    }
    at
}

/// Runs one window: seeds the vertex at old position `p` into the pending
/// queue, merges it with the middle run `[start, p)` and the tail from
/// `p + 1` (see the module doc), writes the window `[start, k)` back to
/// `state`, reports it through `on_window`, and returns its end `k`.
pub(crate) fn run_window(
    graph: &DynamicGraph,
    state: &mut PeelingState,
    scratch: &mut ReorderScratch,
    start: usize,
    p: usize,
    stats: &mut ReorderStats,
    on_window: &mut impl FnMut(usize, &[f64]),
) -> usize {
    let n = state.len();
    let mut at = Cursors { c: start, p, k: p + 1 };
    seed(graph, state, scratch, state.vertex_at(p), at, stats);
    // While the middle run is live, the least of the three heads is next.
    loop {
        while at.c < p && scratch.is_taken(state.vertex_at(at.c)) {
            at.c += 1;
        }
        if at.c == p {
            break;
        }
        let middle = state.key_at(at.c);
        let tail = (at.k < n).then(|| state.key_at(at.k));
        match scratch.queue.peek() {
            Some(head) if head < middle && tail.is_none_or(|key| head < key) => {
                let pull = state.position_of(head.vertex) > at.c;
                emit_head(graph, state, scratch, head, at, pull, stats);
            }
            _ => match tail {
                // A tail head's stored key is only a lower bound while the
                // middle run is live.
                Some(key) if key < middle => {
                    at.k += 1;
                    seed(graph, state, scratch, key.vertex, at, stats);
                }
                // A white middle head's stored key is exact.
                _ => {
                    let stale = scratch.marks.is_marked(at.c);
                    at.c += 1;
                    if stale {
                        seed(graph, state, scratch, middle.vertex, at, stats);
                    } else {
                        scratch.window.push(Segment::One(middle.vertex, middle.weight));
                    }
                }
            },
        }
    }
    // Then the queue drains against the tail alone. A white tail head's
    // stored key is exact now, so the white run below the queue head is
    // emitted as it stands; a marked head below it is recovered and
    // re-ranked by the queue.
    while let Some(head) = scratch.queue.peek() {
        let end = white_run(state, &scratch.marks, at.k, head);
        if end > at.k {
            scratch.window.push(Segment::Run { from: at.k, len: end - at.k });
            at.k = end;
        }
        match (at.k < n).then(|| state.key_at(at.k)) {
            Some(key) if key < head => {
                at.k += 1;
                seed(graph, state, scratch, key.vertex, at, stats);
            }
            _ => emit_head(graph, state, scratch, head, at, false, stats),
        }
    }
    stats.windows += 1;
    stats.moved += at.k - start;
    let (lo, hi) = state.write_window(start, &scratch.window);
    debug_assert_eq!(hi - lo, at.k - start, "window length mismatch");
    on_window(lo, &state.delta_phys()[lo..hi]);
    scratch.window.clear();
    at.k
}

/// The queue head (just peeked) is the global minimum of `R`: emit it and
/// lower the priorities of its queued neighbors. With `pull`, its
/// neighbors in the unconsumed middle run are first pulled into the
/// queue, while the head still counts towards their weight.
fn emit_head(
    graph: &DynamicGraph,
    state: &PeelingState,
    scratch: &mut ReorderScratch,
    head: PeelKey,
    at: Cursors,
    pull: bool,
    stats: &mut ReorderStats,
) {
    let PeelKey { weight, vertex } = head;
    for nb in graph.neighbors(vertex) {
        if pull && (at.c..at.p).contains(&state.position_of(nb.v)) && !scratch.is_taken(nb.v) {
            seed(graph, state, scratch, nb.v, at, stats);
        }
        if scratch.queue.contains(nb.v) {
            scratch.queue.add_weight(nb.v, -nb.w);
        }
    }
    scratch.queue.remove(vertex);
    scratch.done[vertex.index()] = scratch.epoch;
    scratch.window.push(Segment::One(vertex, weight));
    stats.edges_scanned += graph.degree(vertex);
}

/// Convenience wrapper for a single edge insertion (§4.1): `ΔV` is just
/// the endpoint with the smaller peeling position.
pub fn reorder_single_edge(
    graph: &DynamicGraph,
    state: &mut PeelingState,
    src: VertexId,
    dst: VertexId,
    scratch: &mut ReorderScratch,
    blacks_buf: &mut Vec<VertexId>,
    on_window: impl FnMut(usize, &[f64]),
) -> ReorderStats {
    let earlier = if state.position_of(src) < state.position_of(dst) { src } else { dst };
    blacks_buf.clear();
    blacks_buf.push(earlier);
    reorder(graph, state, blacks_buf, scratch, on_window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Builds a graph, peels it, inserts `edges`, reorders incrementally,
    /// and asserts bit-identical agreement with a from-scratch peel.
    fn check_incremental(base: &DynamicGraph, edges: &[(u32, u32, f64)]) {
        let mut graph = base.clone();
        let mut state = PeelingState::from_outcome(&peel(&graph));
        let mut scratch = ReorderScratch::new();
        let mut blacks = Vec::new();
        for &(a, b, w) in edges {
            graph.insert_edge(v(a), v(b), w).unwrap();
            let stats = reorder_single_edge(
                &graph,
                &mut state,
                v(a),
                v(b),
                &mut scratch,
                &mut blacks,
                |_, _| {},
            );
            assert!(stats.windows <= 1);
        }
        let fresh = peel(&graph);
        assert_eq!(state.logical_order(), fresh.order, "sequence diverged");
        let stored = state.logical_weights();
        for (i, (&got, &want)) in stored.iter().zip(fresh.weights.iter()).enumerate() {
            assert!((got - want).abs() < 1e-9, "weight {i}: {got} vs {want}");
        }
        state.validate_greedy(&graph, 1e-9);
    }

    fn paper_example() -> DynamicGraph {
        // Fig. 3/5 style graph: integer weights so equality is exact.
        let mut g = DynamicGraph::new();
        for _ in 0..5 {
            g.add_vertex(0.0).unwrap();
        }
        g.insert_edge(v(0), v(1), 2.0).unwrap();
        g.insert_edge(v(1), v(2), 1.0).unwrap();
        g.insert_edge(v(1), v(4), 4.0).unwrap();
        g.insert_edge(v(3), v(4), 2.0).unwrap();
        g.insert_edge(v(0), v(3), 2.0).unwrap();
        g
    }

    #[test]
    fn single_insertion_matches_from_scratch() {
        // The paper's running example: insert (u1, u5) with weight 4.
        check_incremental(&paper_example(), &[(0, 4, 4.0)]);
    }

    #[test]
    fn insertion_onto_existing_edge_accumulates() {
        check_incremental(&paper_example(), &[(0, 1, 3.0)]);
    }

    #[test]
    fn repeated_insertions_stay_consistent() {
        check_incremental(
            &paper_example(),
            &[(0, 4, 4.0), (2, 3, 1.0), (2, 3, 1.0), (0, 2, 5.0), (4, 0, 2.0)],
        );
    }

    #[test]
    fn insertion_at_sequence_tail() {
        // Connect the two last-peeled (heaviest) vertices.
        let g = paper_example();
        let state = PeelingState::from_outcome(&peel(&g));
        let a = state.vertex_at(3).0;
        let b = state.vertex_at(4).0;
        check_incremental(&g, &[(a, b, 7.0)]);
    }

    #[test]
    fn insertion_at_sequence_head() {
        let g = paper_example();
        let state = PeelingState::from_outcome(&peel(&g));
        let a = state.vertex_at(0).0;
        let b = state.vertex_at(1).0;
        check_incremental(&g, &[(a, b, 1.0)]);
    }

    #[test]
    fn batch_reorder_matches_from_scratch() {
        let mut graph = paper_example();
        let mut state = PeelingState::from_outcome(&peel(&graph));
        let mut scratch = ReorderScratch::new();
        let edges = [(0u32, 4u32, 4.0f64), (2, 3, 2.0), (0, 2, 1.0)];
        let mut blacks = Vec::new();
        for &(a, b, w) in &edges {
            graph.insert_edge(v(a), v(b), w).unwrap();
        }
        for &(a, b, _) in &edges {
            let earlier =
                if state.position_of(v(a)) < state.position_of(v(b)) { v(a) } else { v(b) };
            blacks.push(earlier);
        }
        reorder(&graph, &mut state, &mut blacks, &mut scratch, |_, _| {});
        assert_eq!(state.logical_order(), peel(&graph).order);
        state.validate_greedy(&graph, 1e-9);
    }

    #[test]
    fn reorder_reports_windows_through_callback() {
        let mut graph = paper_example();
        let mut state = PeelingState::from_outcome(&peel(&graph));
        let mut scratch = ReorderScratch::new();
        graph.insert_edge(v(0), v(4), 4.0).unwrap();
        let mut touched: Vec<(usize, usize)> = Vec::new();
        let mut blacks = Vec::new();
        reorder_single_edge(&graph, &mut state, v(0), v(4), &mut scratch, &mut blacks, |lo, ws| {
            touched.push((lo, ws.len()));
        });
        assert_eq!(touched.len(), 1);
        // The reported physical range must mirror the state's new weights.
        let (lo, len) = touched[0];
        assert!(len > 0);
        assert!(lo + len <= state.len());
    }

    #[test]
    fn duplicated_blacks_are_deduplicated_in_linear_time() {
        // A k-edge burst onto one community seeds the same earlier vertex
        // k times; the pass must behave exactly as if it appeared once.
        let mut graph = paper_example();
        let mut state = PeelingState::from_outcome(&peel(&graph));
        let mut scratch = ReorderScratch::new();
        for _ in 0..8 {
            graph.insert_edge(v(0), v(4), 1.0).unwrap();
        }
        let earlier = if state.position_of(v(0)) < state.position_of(v(4)) { v(0) } else { v(4) };
        let mut blacks = vec![earlier; 8];
        let stats = reorder(&graph, &mut state, &mut blacks, &mut scratch, |_, _| {});
        assert_eq!(blacks.len(), 1, "duplicates must be stripped in place");
        assert_eq!(stats.windows, 1);
        assert_eq!(state.logical_order(), peel(&graph).order);
        state.validate_greedy(&graph, 1e-9);
    }

    #[test]
    fn noop_for_empty_blacks() {
        let graph = paper_example();
        let mut state = PeelingState::from_outcome(&peel(&graph));
        let before = state.logical_order();
        let mut scratch = ReorderScratch::new();
        let mut blacks = Vec::new();
        let stats = reorder(&graph, &mut state, &mut blacks, &mut scratch, |_, _| {
            panic!("no window expected")
        });
        assert_eq!(stats, ReorderStats::default());
        assert_eq!(state.logical_order(), before);
    }

    #[test]
    fn randomized_insertions_match_from_scratch() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for trial in 0..40 {
            let n = rng.gen_range(3..24usize);
            let mut g = DynamicGraph::new();
            for _ in 0..n {
                g.add_vertex(rng.gen_range(0..3) as f64).unwrap();
            }
            // Random base graph with integer weights.
            for _ in 0..rng.gen_range(0..3 * n) {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a != b {
                    let _ = g.insert_edge(v(a), v(b), rng.gen_range(1..8) as f64);
                }
            }
            // Random insertions, applied one at a time.
            let mut updates = Vec::new();
            for _ in 0..rng.gen_range(1..12) {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a != b {
                    updates.push((a, b, rng.gen_range(1..8) as f64));
                }
            }
            if updates.is_empty() {
                continue;
            }
            let mut graph = g.clone();
            let mut state = PeelingState::from_outcome(&peel(&graph));
            let mut scratch = ReorderScratch::new();
            let mut blacks = Vec::new();
            for &(a, b, w) in &updates {
                graph.insert_edge(v(a), v(b), w).unwrap();
                reorder_single_edge(
                    &graph,
                    &mut state,
                    v(a),
                    v(b),
                    &mut scratch,
                    &mut blacks,
                    |_, _| {},
                );
            }
            let fresh = peel(&graph);
            assert_eq!(
                state.logical_order(),
                fresh.order,
                "trial {trial}: incremental and static peels diverged"
            );
            state.validate_greedy(&graph, 1e-9);
        }
    }

    #[test]
    fn randomized_batches_match_from_scratch() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1234);
        for trial in 0..40 {
            let n = rng.gen_range(4..20usize);
            let mut graph = DynamicGraph::new();
            for _ in 0..n {
                graph.add_vertex(0.0).unwrap();
            }
            for _ in 0..rng.gen_range(1..2 * n) {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a != b {
                    let _ = graph.insert_edge(v(a), v(b), rng.gen_range(1..5) as f64);
                }
            }
            let mut state = PeelingState::from_outcome(&peel(&graph));
            let mut scratch = ReorderScratch::new();
            // One batch of several edges.
            let mut blacks = Vec::new();
            for _ in 0..rng.gen_range(1..10) {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a == b {
                    continue;
                }
                if graph.insert_edge(v(a), v(b), rng.gen_range(1..5) as f64).is_ok() {
                    let earlier =
                        if state.position_of(v(a)) < state.position_of(v(b)) { v(a) } else { v(b) };
                    blacks.push(earlier);
                }
            }
            reorder(&graph, &mut state, &mut blacks, &mut scratch, |_, _| {});
            assert_eq!(
                state.logical_order(),
                peel(&graph).order,
                "trial {trial}: batch reorder diverged"
            );
            state.validate_greedy(&graph, 1e-9);
        }
    }
}
