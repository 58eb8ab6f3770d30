//! The live peeling state maintained between updates.
//!
//! Spade stores the peeling sequence `_seq` and the peeling weights
//! `_weight` (Listing 1). Two storage subtleties matter for real-time
//! updates:
//!
//! * **Head insertions are O(1).** New vertices enter at the *head* of the
//!   peeling sequence (§4.1). We key physical storage by *rank* — the size
//!   of the suffix a vertex belongs to, i.e. `rank = n - logical_position`.
//!   Ranks of existing vertices are invariant under head insertion (both
//!   `n` and the position shift by one), so a head insertion is a plain
//!   `push` and no stored index ever needs fixing.
//! * **Suffix prefix-sums are detection-ready.** `f(S_k)` for the suffix of
//!   size `r = n - k` is exactly the prefix sum of the first `r` physical
//!   weights, so the density `g(S_k) = f(S_k)/|S_k|` over every candidate
//!   community is `prefix_sum(r) / r` — the quantity the
//!   [`crate::kinetic`] index maintains.
//!
//! Logical accessors (`vertex_at`, `delta_at`, `position_of`) hide the
//! reversed layout from the reordering algorithms.

use crate::order::{MinQueue, PeelKey};
use crate::peel::PeelingOutcome;
use spade_graph::{DynamicGraph, VertexId};

/// A detected fraudulent community: the densest suffix of the peeling
/// sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detection {
    /// Number of vertices in the community (`|S_P|`).
    pub size: usize,
    /// Its density `g(S_P)`.
    pub density: f64,
}

impl Detection {
    /// Detection over an empty graph.
    pub const EMPTY: Detection = Detection { size: 0, density: 0.0 };
}

/// One piece of a window handed to [`PeelingState::write_window`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Segment {
    /// A vertex and its new peeling weight, written to the next slot.
    One(VertexId, f64),
    /// The `len` vertices at the logical positions `[from, from + len)`,
    /// moved to the next `len` slots with their order and weights.
    Run {
        /// First source position.
        from: usize,
        /// Number of slots moved.
        len: usize,
    },
}

impl From<(VertexId, f64)> for Segment {
    fn from((u, w): (VertexId, f64)) -> Self {
        Segment::One(u, w)
    }
}

/// The peeling sequence, peeling weights, and the vertex→rank map.
#[derive(Clone, Debug, Default)]
pub struct PeelingState {
    /// `seq_phys[r - 1]` = the vertex of rank `r` (rank 1 = peeled last =
    /// densest end).
    seq_phys: Vec<VertexId>,
    /// Peeling weight parallel to `seq_phys`.
    delta_phys: Vec<f64>,
    /// 1-based rank per vertex; 0 = vertex not present in the state.
    rank: Vec<u32>,
}

impl PeelingState {
    /// Empty state (no vertices peeled yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the state from a completed static peel.
    pub fn from_outcome(outcome: &PeelingOutcome) -> Self {
        let n = outcome.order.len();
        let mut seq_phys = Vec::with_capacity(n);
        let mut delta_phys = Vec::with_capacity(n);
        for i in (0..n).rev() {
            seq_phys.push(outcome.order[i]);
            delta_phys.push(outcome.weights[i]);
        }
        let mut rank = Vec::new();
        for (phys, &u) in seq_phys.iter().enumerate() {
            if u.index() >= rank.len() {
                rank.resize(u.index() + 1, 0);
            }
            rank[u.index()] = (phys + 1) as u32;
        }
        PeelingState { seq_phys, delta_phys, rank }
    }

    /// Number of vertices in the sequence.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.seq_phys.len()
    }

    /// `true` when no vertices are tracked.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.seq_phys.is_empty()
    }

    /// `true` if `u` is tracked by the state.
    #[inline(always)]
    pub fn contains(&self, u: VertexId) -> bool {
        u.index() < self.rank.len() && self.rank[u.index()] != 0
    }

    /// The logical peeling position of `u` (0 = peeled first).
    #[inline(always)]
    pub fn position_of(&self, u: VertexId) -> usize {
        debug_assert!(self.contains(u), "position_of on untracked vertex {u}");
        self.seq_phys.len() - self.rank[u.index()] as usize
    }

    /// The vertex at logical position `i`.
    #[inline(always)]
    pub fn vertex_at(&self, i: usize) -> VertexId {
        self.seq_phys[self.seq_phys.len() - 1 - i]
    }

    /// The recorded peeling weight at logical position `i`.
    #[inline(always)]
    pub fn delta_at(&self, i: usize) -> f64 {
        self.delta_phys[self.delta_phys.len() - 1 - i]
    }

    /// The `(weight, id)` peeling key at logical position `i`.
    #[inline(always)]
    pub fn key_at(&self, i: usize) -> PeelKey {
        let phys = self.seq_phys.len() - 1 - i;
        PeelKey::new(self.delta_phys[phys], self.seq_phys[phys])
    }

    /// Physical (rank-space) view of the peeling weights: index `r - 1`
    /// holds the weight of the rank-`r` vertex. Prefix sums of this slice
    /// are the suffix suspiciousness values `f(S_{n-r})`.
    #[inline(always)]
    pub fn delta_phys(&self) -> &[f64] {
        &self.delta_phys
    }

    /// Physical (rank-space) view of the sequence.
    #[inline(always)]
    pub fn seq_phys(&self) -> &[VertexId] {
        &self.seq_phys
    }

    /// Inserts a new vertex at the head of the sequence (§4.1) with its
    /// current true peeling weight (`a_u` for an isolated newcomer). O(1).
    pub fn push_front(&mut self, u: VertexId, delta: f64) {
        assert!(!self.contains(u), "vertex {u} already tracked");
        if u.index() >= self.rank.len() {
            self.rank.resize(u.index() + 1, 0);
        }
        self.seq_phys.push(u);
        self.delta_phys.push(delta);
        self.rank[u.index()] = self.seq_phys.len() as u32;
    }

    /// Overwrites the logical window that starts at `start` with
    /// `segments`, in logical order, and refreshes the rank map.
    ///
    /// A [`Segment::Run`] moves with one block copy per array, then its
    /// ranks are rewritten. Segments are written in order, so a run must
    /// start at or after the slot it lands on: everything written before it
    /// lies below that slot, and its source is still intact when it is
    /// copied.
    ///
    /// Returns the physical range `[lo, hi)` that changed, for feeding the
    /// density index.
    pub fn write_window<S: Copy + Into<Segment>>(
        &mut self,
        start: usize,
        segments: &[S],
    ) -> (usize, usize) {
        let n = self.seq_phys.len();
        let mut end = start;
        for &segment in segments {
            match segment.into() {
                Segment::One(u, w) => {
                    let phys = n - 1 - end;
                    self.seq_phys[phys] = u;
                    self.delta_phys[phys] = w;
                    self.rank[u.index()] = (phys + 1) as u32;
                    end += 1;
                }
                Segment::Run { from, len } => {
                    debug_assert!(from >= end, "a run lands after its source");
                    let (src, dst) = (n - from - len, n - end - len);
                    self.seq_phys.copy_within(src..src + len, dst);
                    self.delta_phys.copy_within(src..src + len, dst);
                    for (phys, u) in (dst..).zip(&self.seq_phys[dst..dst + len]) {
                        self.rank[u.index()] = (phys + 1) as u32;
                    }
                    end += len;
                }
            }
        }
        debug_assert!(end <= n, "window exceeds sequence");
        (n - end, n - start)
    }

    /// The end of the run of stored keys below `bound` that starts at
    /// logical position `from`, looking no further than `to`: the first
    /// position in `[from, to)` whose key is not below `bound`, or `to`.
    #[inline]
    pub(crate) fn keys_below(&self, from: usize, to: usize, bound: PeelKey) -> usize {
        let n = self.seq_phys.len();
        let (lo, hi) = (n - to, n - from);
        let below = self.delta_phys[lo..hi]
            .iter()
            .zip(&self.seq_phys[lo..hi])
            .rev()
            .take_while(|&(&w, &u)| PeelKey::new(w, u) < bound)
            .count();
        from + below
    }

    /// Exact detection by scanning every suffix size: returns the maximum
    /// of `prefix_sum(r)/r`, preferring the **larger** community on density
    /// ties (matching the static peel, which keeps the first maximum seen
    /// while removing vertices). A graph with no suspiciousness at all
    /// (every candidate density zero) reports [`Detection::EMPTY`] — there
    /// is no community worth a moderator's attention.
    pub fn scan_detect(&self) -> Detection {
        let mut best = Detection::EMPTY;
        let mut sum = 0.0;
        for (i, &d) in self.delta_phys.iter().enumerate() {
            sum += d;
            let density = sum / (i + 1) as f64;
            if density > 0.0 && density >= best.density {
                best = Detection { size: i + 1, density };
            }
        }
        best
    }

    /// The community of the given size: the `size` highest-rank vertices
    /// (a physical prefix — O(1) slice).
    pub fn community(&self, size: usize) -> &[VertexId] {
        &self.seq_phys[..size]
    }

    /// The peeling sequence in logical order (peeled-first first). O(n);
    /// intended for tests and reporting.
    pub fn logical_order(&self) -> Vec<VertexId> {
        self.seq_phys.iter().rev().copied().collect()
    }

    /// The peeling weights in logical order. O(n); for tests/reporting.
    pub fn logical_weights(&self) -> Vec<f64> {
        self.delta_phys.iter().rev().copied().collect()
    }

    /// Verifies that this state is a valid greedy peel of `graph`: at
    /// every step the stored vertex's live weight must match the stored
    /// weight within `tol` and must be within `tol` of the global minimum
    /// over the remaining set. O(|E| log |V|). Panics on violation;
    /// intended for tests.
    ///
    /// The tolerance exists for metrics with irrational weights (FD's
    /// `1/ln`), where incremental and from-scratch float summation orders
    /// legitimately differ in the last bits; integer-weight tests combine
    /// this check with exact sequence comparison against a fresh peel.
    pub fn validate_greedy(&self, graph: &DynamicGraph, tol: f64) {
        assert_eq!(self.len(), graph.num_vertices(), "state covers a different vertex set");
        let mut queue = MinQueue::new();
        queue.reset(graph.num_vertices());
        for u in graph.vertices() {
            queue.insert(u, graph.incident_weight(u));
        }
        for i in 0..self.len() {
            let u = self.vertex_at(i);
            assert!(queue.contains(u), "position {i}: {u} appears twice in the sequence");
            let live = queue.weight_of(u);
            assert!(
                (live - self.delta_at(i)).abs() <= tol,
                "position {i} ({u}): stored weight {}, live weight {live}",
                self.delta_at(i),
            );
            let min = queue.peek().expect("queue exhausted early").weight;
            assert!(
                live <= min + tol,
                "position {i}: {u} (weight {live}) is not the minimum (min {min})"
            );
            queue.remove(u);
            for nb in graph.neighbors(u) {
                if queue.contains(nb.v) {
                    queue.add_weight(nb.v, -nb.w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::peel;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn sample_graph() -> DynamicGraph {
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
    fn from_outcome_roundtrips_logical_order() {
        let g = sample_graph();
        let out = peel(&g);
        let st = PeelingState::from_outcome(&out);
        assert_eq!(st.len(), 5);
        assert_eq!(st.logical_order(), out.order);
        assert_eq!(st.logical_weights(), out.weights);
        for (i, &u) in out.order.iter().enumerate() {
            assert_eq!(st.position_of(u), i);
            assert_eq!(st.vertex_at(i), u);
            assert_eq!(st.delta_at(i), out.weights[i]);
        }
    }

    #[test]
    fn scan_detect_matches_static_peel() {
        let g = sample_graph();
        let out = peel(&g);
        let st = PeelingState::from_outcome(&out);
        let det = st.scan_detect();
        assert_eq!(det.size, out.order.len() - out.best_prefix);
        assert!((det.density - out.best_density).abs() < 1e-9);
        // Community contents agree as sets.
        let mut a: Vec<u32> = st.community(det.size).iter().map(|u| u.0).collect();
        let mut b: Vec<u32> = out.community().iter().map(|u| u.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn push_front_keeps_ranks_stable() {
        let g = sample_graph();
        let st0 = PeelingState::from_outcome(&peel(&g));
        let mut st = st0.clone();
        let newcomer = v(5);
        st.push_front(newcomer, 0.0);
        assert_eq!(st.len(), 6);
        assert_eq!(st.position_of(newcomer), 0);
        assert_eq!(st.vertex_at(0), newcomer);
        assert_eq!(st.delta_at(0), 0.0);
        // Every pre-existing vertex shifted one logical slot but kept rank.
        for i in 0..st0.len() {
            assert_eq!(st.vertex_at(i + 1), st0.vertex_at(i));
            assert_eq!(st.delta_at(i + 1), st0.delta_at(i));
        }
    }

    #[test]
    fn write_window_updates_ranks_and_reports_phys_range() {
        let g = sample_graph();
        let mut st = PeelingState::from_outcome(&peel(&g));
        let before = st.logical_order();
        // Swap logical positions 1 and 2 with synthetic weights.
        let entries = [(before[2], 9.0), (before[1], 11.0)];
        let (lo, hi) = st.write_window(1, &entries);
        assert_eq!((lo, hi), (st.len() - 3, st.len() - 1));
        assert_eq!(st.vertex_at(1), before[2]);
        assert_eq!(st.vertex_at(2), before[1]);
        assert_eq!(st.delta_at(1), 9.0);
        assert_eq!(st.delta_at(2), 11.0);
        assert_eq!(st.position_of(before[2]), 1);
        assert_eq!(st.position_of(before[1]), 2);
        // Untouched positions survive.
        assert_eq!(st.vertex_at(0), before[0]);
        assert_eq!(st.vertex_at(3), before[3]);
    }

    /// A state over `n` vertices, vertex `i` with weight `i`, in id order.
    fn ladder(n: u32) -> PeelingState {
        let order: Vec<VertexId> = (0..n).map(v).collect();
        let weights: Vec<f64> = (0..n).map(f64::from).collect();
        PeelingState::from_outcome(&PeelingOutcome {
            order,
            weights,
            best_prefix: 0,
            best_density: 0.0,
            total_weight: 0.0,
        })
    }

    #[test]
    fn write_window_runs_equal_per_vertex_writes() {
        // Each window permutes its slots: runs of untouched vertices keep
        // their order and weights, the rest are written one by one.
        let windows: [(usize, Vec<Segment>); 3] = [
            // Runs shifted one and two slots earlier, overlapping their
            // sources, between single vertices.
            (
                2,
                vec![
                    Segment::Run { from: 3, len: 4 },
                    Segment::One(v(2), 50.0),
                    Segment::Run { from: 8, len: 5 },
                    Segment::One(v(7), 60.0),
                    Segment::Run { from: 13, len: 1 },
                ],
            ),
            // A run copied clear of its source, then the vertices it
            // jumped over, then a run that stays in place.
            (
                4,
                vec![
                    Segment::Run { from: 10, len: 3 },
                    Segment::One(v(4), 1.5),
                    Segment::One(v(5), 2.5),
                    Segment::One(v(9), 3.5),
                    Segment::One(v(8), 4.5),
                    Segment::One(v(7), 5.5),
                    Segment::One(v(6), 6.5),
                    Segment::Run { from: 13, len: 3 },
                ],
            ),
            // A run over the whole rest of the sequence.
            (0, vec![Segment::Run { from: 1, len: 19 }, Segment::One(v(0), 9.0)]),
        ];
        for (start, segments) in windows {
            let before = ladder(20);
            let per_vertex: Vec<(VertexId, f64)> = segments
                .iter()
                .flat_map(|&s| match s {
                    Segment::One(u, w) => vec![(u, w)],
                    Segment::Run { from, len } => (from..from + len)
                        .map(|i| (before.vertex_at(i), before.delta_at(i)))
                        .collect(),
                })
                .collect();
            let mut runs = before.clone();
            let mut singles = before.clone();
            let changed = runs.write_window(start, &segments);
            assert_eq!(changed, singles.write_window(start, &per_vertex), "window at {start}");
            assert_eq!(runs.logical_order(), singles.logical_order(), "window at {start}");
            assert_eq!(runs.logical_weights(), singles.logical_weights(), "window at {start}");
            for u in (0..20).map(v) {
                assert_eq!(runs.position_of(u), singles.position_of(u), "{u} at {start}");
            }
        }
    }

    #[test]
    fn validate_greedy_accepts_static_peel() {
        let g = sample_graph();
        let st = PeelingState::from_outcome(&peel(&g));
        st.validate_greedy(&g, 1e-9);
    }

    #[test]
    #[should_panic(expected = "is not the minimum")]
    fn validate_greedy_rejects_non_minimal_first_pick() {
        let g = sample_graph();
        let mut st = PeelingState::from_outcome(&peel(&g));
        // Put the heaviest vertex first with its (correct) live weight:
        // the stored-weight check passes but the minimality check must
        // fire.
        let heavy = g
            .vertices()
            .max_by(|&a, &b| g.incident_weight(a).total_cmp(&g.incident_weight(b)))
            .unwrap();
        st.write_window(0, &[(heavy, g.incident_weight(heavy))]);
        st.validate_greedy(&g, 1e-9);
    }

    #[test]
    #[should_panic(expected = "stored weight")]
    fn validate_greedy_rejects_wrong_stored_weight() {
        let g = sample_graph();
        let mut st = PeelingState::from_outcome(&peel(&g));
        let u = st.vertex_at(0);
        st.write_window(0, &[(u, st.delta_at(0) + 1.0)]);
        st.validate_greedy(&g, 1e-9);
    }

    #[test]
    fn empty_state_detects_nothing() {
        let st = PeelingState::new();
        assert_eq!(st.scan_detect(), Detection::EMPTY);
        assert!(st.is_empty());
    }

    #[test]
    fn detection_prefers_larger_community_on_ties() {
        // Two disjoint unit-weight pairs: every suffix of size 2 and 4 has
        // density 0.5; the scan must keep the larger (size 4... sizes with
        // equal density: r=2 -> 1/2, r=4 -> 2/4). Prefer 4.
        let mut g = DynamicGraph::new();
        for _ in 0..4 {
            g.add_vertex(0.0).unwrap();
        }
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        g.insert_edge(v(2), v(3), 1.0).unwrap();
        let st = PeelingState::from_outcome(&peel(&g));
        let det = st.scan_detect();
        assert_eq!(det.size, 4);
        assert!((det.density - 0.5).abs() < 1e-12);
    }
}
