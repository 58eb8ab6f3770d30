//! Kinetic density index: exact argmax-density maintenance in polylog time.
//!
//! After every update, Spade must know the densest suffix of the peeling
//! sequence — `max_r prefix_sum(r) / r` over the rank-space weights (see
//! [`crate::state`]). The paper leaves the maintenance strategy implicit;
//! a full rescan is `O(n)` per update, which would dwarf the microsecond
//! reorder costs it reports. This module exploits the *shape* of the
//! updates:
//!
//! * a reorder rewrites a contiguous window of rank-space weights;
//! * every suffix value `y_r = prefix_sum(r)` **after** the window shifts
//!   by one constant (the change in the window's total weight);
//! * suffix values **before** the window are untouched;
//! * a head insertion appends one slot.
//!
//! So the index is a segment tree over suffix slots storing
//! `y_r = f(S_{n-r})` with (a) ranged **uniform shifts** and (b) ranged
//! **rewrites**. The maximum of `y_r / r` under uniform shifts is
//! maintained kinetically: each internal node remembers its winning slot
//! and how much shift it can absorb before *any* ordering decision in its
//! subtree could flip (`(y_a + t)/a - (y_b + t)/b` is linear in `t`, so
//! each decision has a single crossing). Shifts within the slack are O(1)
//! lazy updates; shifts beyond it rebuild only the affected certificates —
//! the classic kinetic-tournament amortization.
//!
//! A window rewrite is one bottom-up pass: pending shifts are pushed down
//! the two boundary paths only, the window's leaves are overwritten, and
//! the window's ancestors are recombined level by level. A node the window
//! covers is never pushed down — its subtree is overwritten anyway — so a
//! rewrite costs the window's leaves, their ancestors and the two boundary
//! paths, plus the certificate repair of the tail shift.
//!
//! Ties prefer the larger community (larger `r`), matching the static peel.

use crate::state::Detection;

const NO_SLOT: u32 = u32::MAX;

/// Segment-tree node payload.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Best suffix value in the subtree (absolute, including this node's
    /// own pending `lazy` but not the ancestors').
    y: f64,
    /// Winning slot index (0-based; community size `r = slot + 1`), or
    /// `NO_SLOT` for an empty subtree.
    slot: u32,
    /// Pending uniform shift not yet pushed to children.
    lazy: f64,
    /// How much more positive shift every decision below can absorb.
    slack_pos: f64,
    /// How much more negative shift every decision below can absorb.
    slack_neg: f64,
}

impl Node {
    const EMPTY: Node = Node {
        y: 0.0,
        slot: NO_SLOT,
        lazy: 0.0,
        slack_pos: f64::INFINITY,
        slack_neg: f64::INFINITY,
    };

    #[inline(always)]
    fn density(&self) -> f64 {
        self.y / (self.slot + 1) as f64
    }
}

/// The kinetic suffix-density index.
#[derive(Clone, Debug)]
pub struct KineticIndex {
    /// Power-of-two leaf capacity.
    cap: usize,
    /// Number of live slots.
    len: usize,
    /// 1-indexed implicit tree; `nodes[cap + i]` is leaf `i`.
    nodes: Vec<Node>,
}

impl Default for KineticIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl KineticIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        KineticIndex { cap: 1, len: 0, nodes: vec![Node::EMPTY; 2] }
    }

    /// Builds the index from rank-space peeling weights (`deltas[i]` is
    /// the weight of the rank-`i+1` vertex).
    pub fn from_deltas(deltas: &[f64]) -> Self {
        let mut idx = KineticIndex::new();
        idx.reset(deltas);
        idx
    }

    /// Rebuilds in place from a fresh weight array.
    pub fn reset(&mut self, deltas: &[f64]) {
        let cap = deltas.len().next_power_of_two().max(1);
        self.cap = cap;
        self.len = deltas.len();
        self.nodes.clear();
        self.nodes.resize(2 * cap, Node::EMPTY);
        let mut sum = 0.0;
        for (i, &d) in deltas.iter().enumerate() {
            sum += d;
            self.nodes[cap + i] = Node { y: sum, slot: i as u32, ..Node::EMPTY };
        }
        for node in (1..cap).rev() {
            self.pull_up(node);
        }
    }

    /// Number of live slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no slots are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current densest suffix; [`Detection::EMPTY`] when every
    /// candidate density is zero or negative (nothing suspicious at all),
    /// matching `PeelingState::scan_detect`.
    pub fn best(&self) -> Detection {
        let root = self.nodes[1];
        if root.slot == NO_SLOT || root.density() <= 0.0 {
            return Detection::EMPTY;
        }
        Detection { size: root.slot as usize + 1, density: root.density() }
    }

    /// Appends one slot whose delta is `delta` (a head-of-sequence vertex
    /// insertion): a one-slot [`Self::rewrite_deltas`] at the new end.
    /// `O(log n)` amortized over capacity doublings.
    pub fn append(&mut self, delta: f64) {
        if self.len == self.cap {
            self.grow();
        }
        self.len += 1;
        self.rewrite_deltas(self.len - 1, &[delta]);
    }

    /// Replaces the deltas of slots `[lo, hi = lo + new_deltas.len())` and
    /// shifts every later suffix value by the change in window total.
    /// One bottom-up pass (see the module doc), with no push-down below a
    /// node the window covers: it costs the window's leaves, their
    /// ancestors and the paths of `lo` and `hi - 1`, plus the tail shift's
    /// amortized certificate repair.
    pub fn rewrite_deltas(&mut self, lo: usize, new_deltas: &[f64]) {
        let hi = lo + new_deltas.len();
        assert!(hi <= self.len, "rewrite window out of range");
        if new_deltas.is_empty() {
            return;
        }
        let base = if lo == 0 { 0.0 } else { self.leaf_value(lo - 1) };
        let old_end = self.leaf_value(hi - 1);
        self.push_path(lo, lo, hi);
        self.push_path(hi - 1, lo, hi);
        let mut sum = base;
        for (i, &d) in (lo..hi).zip(new_deltas) {
            sum += d;
            self.nodes[self.cap + i] = Node { y: sum, slot: i as u32, ..Node::EMPTY };
        }
        let (mut a, mut b) = ((self.cap + lo) >> 1, (self.cap + hi - 1) >> 1);
        while a >= 1 {
            for node in a..=b {
                self.pull_up(node);
            }
            a >>= 1;
            b >>= 1;
        }
        let shift = sum - old_end;
        if hi < self.len && shift != 0.0 {
            self.add_range(hi, self.len, shift);
        }
    }

    /// Uniformly shifts the suffix values of slots `[lo, hi)`.
    pub fn add_range(&mut self, lo: usize, hi: usize, t: f64) {
        assert!(hi <= self.len);
        if lo >= hi || t == 0.0 {
            return;
        }
        self.add_rec(1, 0, self.cap, lo, hi, t);
    }

    /// The absolute suffix value of slot `i` (`f` of the size-`i+1`
    /// community). `O(log n)`.
    pub fn leaf_value(&self, i: usize) -> f64 {
        debug_assert!(i < self.len);
        let mut node = 1usize;
        let (mut lo, mut hi) = (0usize, self.cap);
        let mut acc = 0.0;
        while node < self.cap {
            acc += self.nodes[node].lazy;
            let mid = (lo + hi) / 2;
            if i < mid {
                node *= 2;
                hi = mid;
            } else {
                node = 2 * node + 1;
                lo = mid;
            }
        }
        acc + self.nodes[node].y
    }

    // ---- internal machinery -------------------------------------------

    fn grow(&mut self) {
        let mut values = Vec::with_capacity(self.len);
        self.flatten(1, 0.0, &mut values);
        let cap = (self.cap * 2).max(1);
        let len = self.len;
        self.cap = cap;
        self.nodes.clear();
        self.nodes.resize(2 * cap, Node::EMPTY);
        for (i, &y) in values.iter().enumerate() {
            self.nodes[cap + i] = Node { y, slot: i as u32, ..Node::EMPTY };
        }
        self.len = len;
        for node in (1..cap).rev() {
            self.pull_up(node);
        }
    }

    /// Collects absolute leaf values in slot order.
    fn flatten(&self, node: usize, acc: f64, out: &mut Vec<f64>) {
        if self.nodes[node].slot == NO_SLOT && node < self.cap {
            // Entire subtree empty — but earlier slots always fill first,
            // so emptiness means no live leaves below.
            return;
        }
        if node >= self.cap {
            if node - self.cap < self.len {
                out.push(acc + self.nodes[node].y);
            }
            return;
        }
        let acc = acc + self.nodes[node].lazy;
        self.flatten(2 * node, acc, out);
        self.flatten(2 * node + 1, acc, out);
    }

    /// Applies a uniform shift to an entire subtree, cascading only where
    /// certificates break.
    fn shift_subtree(&mut self, node: usize, t: f64) {
        let n = &mut self.nodes[node];
        if n.slot == NO_SLOT {
            return;
        }
        if node >= self.cap {
            n.y += t;
            return;
        }
        // Strict comparisons: a shift landing exactly ON a crossing makes
        // two candidates' densities tie, and ties must flip to the larger
        // community — so a boundary hit recombines instead of absorbing
        // the shift lazily.
        if t < n.slack_pos && -t < n.slack_neg {
            n.y += t;
            n.lazy += t;
            n.slack_pos -= t;
            n.slack_neg += t;
            return;
        }
        self.push_down(node);
        self.shift_subtree(2 * node, t);
        self.shift_subtree(2 * node + 1, t);
        self.pull_up(node);
    }

    fn add_rec(&mut self, node: usize, nlo: usize, nhi: usize, lo: usize, hi: usize, t: f64) {
        if hi <= nlo || nhi <= lo {
            return;
        }
        if lo <= nlo && nhi <= hi {
            self.shift_subtree(node, t);
            return;
        }
        self.push_down(node);
        let mid = (nlo + nhi) / 2;
        self.add_rec(2 * node, nlo, mid, lo, hi, t);
        self.add_rec(2 * node + 1, mid, nhi, lo, hi, t);
        self.pull_up(node);
    }

    /// Pushes pending shifts down the root-to-leaf path of slot `i`,
    /// stopping at the first node inside `[lo, hi)`: that node's subtree
    /// is about to be overwritten.
    fn push_path(&mut self, i: usize, lo: usize, hi: usize) {
        let depth = self.cap.trailing_zeros();
        for level in (1..=depth).rev() {
            let node = (self.cap + i) >> level;
            let nlo = (node << level) - self.cap;
            if lo <= nlo && nlo + (1 << level) <= hi {
                return;
            }
            self.push_down(node);
        }
    }

    #[inline]
    fn push_down(&mut self, node: usize) {
        let lazy = self.nodes[node].lazy;
        if lazy != 0.0 {
            self.nodes[node].lazy = 0.0;
            self.shift_subtree(2 * node, lazy);
            self.shift_subtree(2 * node + 1, lazy);
        }
    }

    /// Recomputes a node's winner and slack from its children. Assumes the
    /// node's own lazy is clear (children values are absolute relative to
    /// ancestors).
    fn pull_up(&mut self, node: usize) {
        let l = self.nodes[2 * node];
        let r = self.nodes[2 * node + 1];
        let merged = match (l.slot, r.slot) {
            (NO_SLOT, NO_SLOT) => Node::EMPTY,
            (_, NO_SLOT) => Node { lazy: 0.0, ..l },
            (NO_SLOT, _) => Node { lazy: 0.0, ..r },
            _ => {
                let (ra, rb) = ((l.slot + 1) as f64, (r.slot + 1) as f64);
                let da = l.y / ra;
                let db = r.y / rb;
                // Winner: higher density; ties -> larger community (right
                // child holds larger slots).
                let right_wins = db >= da;
                let winner = if right_wins { r } else { l };
                // Crossing point of (l.y + t)/ra = (r.y + t)/rb:
                //   t* = (ra * r.y - rb * l.y) / (rb - ra),  rb > ra always
                // (right child's slots exceed left child's).
                let t_star = (ra * r.y - rb * l.y) / (rb - ra);
                let (mut cross_pos, mut cross_neg) = (f64::INFINITY, f64::INFINITY);
                if right_wins {
                    // Larger-r winner loses ground as t grows.
                    cross_pos = (t_star).max(0.0);
                } else {
                    // Smaller-r winner loses ground as t shrinks.
                    cross_neg = (-t_star).max(0.0);
                }
                Node {
                    y: winner.y,
                    slot: winner.slot,
                    lazy: 0.0,
                    slack_pos: l.slack_pos.min(r.slack_pos).min(cross_pos),
                    slack_neg: l.slack_neg.min(r.slack_neg).min(cross_neg),
                }
            }
        };
        self.nodes[node] = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scan oracle over a delta array (positive densities only, like
    /// `scan_detect`).
    fn oracle(deltas: &[f64]) -> Detection {
        let mut best = Detection::EMPTY;
        let mut sum = 0.0;
        for (i, &d) in deltas.iter().enumerate() {
            sum += d;
            let density = sum / (i + 1) as f64;
            if density > 0.0 && density >= best.density {
                best = Detection { size: i + 1, density };
            }
        }
        best
    }

    fn assert_agrees(idx: &KineticIndex, deltas: &[f64]) {
        let want = oracle(deltas);
        let got = idx.best();
        assert!(
            (got.density - want.density).abs() < 1e-9,
            "density: kinetic {} vs oracle {}",
            got.density,
            want.density
        );
        assert_eq!(got.size, want.size, "size mismatch (kinetic {got:?}, oracle {want:?})");
    }

    #[test]
    fn empty_index() {
        let idx = KineticIndex::new();
        assert_eq!(idx.best(), Detection::EMPTY);
        assert!(idx.is_empty());
    }

    #[test]
    fn from_deltas_matches_oracle() {
        let deltas = [1.0, 3.0, 0.0, 2.0, 10.0, 1.0];
        let idx = KineticIndex::from_deltas(&deltas);
        assert_agrees(&idx, &deltas);
        assert_eq!(idx.len(), 6);
    }

    #[test]
    fn leaf_values_are_prefix_sums() {
        let deltas = [1.0, 3.0, 0.5, 2.0];
        let idx = KineticIndex::from_deltas(&deltas);
        let mut sum = 0.0;
        for (i, &d) in deltas.iter().enumerate() {
            sum += d;
            assert!((idx.leaf_value(i) - sum).abs() < 1e-12);
        }
    }

    #[test]
    fn append_grows_past_capacity() {
        let mut idx = KineticIndex::new();
        let mut deltas = Vec::new();
        for i in 0..40 {
            let d = ((i * 7) % 11) as f64;
            idx.append(d);
            deltas.push(d);
            assert_agrees(&idx, &deltas);
        }
    }

    #[test]
    fn rewrite_shifts_the_tail() {
        let mut deltas = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let mut idx = KineticIndex::from_deltas(&deltas);
        // Rewrite slots 2..5 with a larger total: the tail must shift.
        let new = [9.0, 9.0, 9.0];
        idx.rewrite_deltas(2, &new);
        deltas[2..5].copy_from_slice(&new);
        assert_agrees(&idx, &deltas);
        let mut sum = 0.0;
        for (i, &d) in deltas.iter().enumerate() {
            sum += d;
            assert!((idx.leaf_value(i) - sum).abs() < 1e-9, "leaf {i}");
        }
    }

    #[test]
    fn rewrite_with_negative_shift() {
        let mut deltas = vec![5.0, 5.0, 5.0, 5.0, 1.0, 1.0];
        let mut idx = KineticIndex::from_deltas(&deltas);
        let new = [0.5, 0.5];
        idx.rewrite_deltas(0, &new);
        deltas[0..2].copy_from_slice(&new);
        assert_agrees(&idx, &deltas);
    }

    #[test]
    fn ties_prefer_larger_community() {
        // deltas [0,1,0,1]: densities 0, .5, 1/3, .5 — tie between r=2,4.
        let idx = KineticIndex::from_deltas(&[0.0, 1.0, 0.0, 1.0]);
        assert_eq!(idx.best().size, 4);
    }

    #[test]
    fn randomized_ops_match_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for _trial in 0..30 {
            let mut deltas: Vec<f64> = Vec::new();
            let mut idx = KineticIndex::new();
            for _ in 0..rng.gen_range(5..60) {
                match rng.gen_range(0..3) {
                    0 => {
                        let d = rng.gen_range(0..20) as f64;
                        idx.append(d);
                        deltas.push(d);
                    }
                    1 if !deltas.is_empty() => {
                        let lo = rng.gen_range(0..deltas.len());
                        let len = rng.gen_range(1..=(deltas.len() - lo).min(6));
                        let new: Vec<f64> = (0..len).map(|_| rng.gen_range(0..20) as f64).collect();
                        idx.rewrite_deltas(lo, &new);
                        deltas[lo..lo + len].copy_from_slice(&new);
                    }
                    _ => {
                        if deltas.is_empty() {
                            continue;
                        }
                    }
                }
                assert_agrees(&idx, &deltas);
            }
        }
    }

    #[test]
    fn large_scale_stress_against_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x57E55);
        let n = 4096usize;
        let mut deltas: Vec<f64> = (0..n).map(|_| rng.gen_range(0..100) as f64).collect();
        let mut idx = KineticIndex::from_deltas(&deltas);
        for round in 0..200 {
            let lo = rng.gen_range(0..n);
            let len = rng.gen_range(1..=(n - lo).min(64));
            let vals: Vec<f64> = (0..len).map(|_| rng.gen_range(0..100) as f64).collect();
            idx.rewrite_deltas(lo, &vals);
            deltas[lo..lo + len].copy_from_slice(&vals);
            if round % 10 == 0 {
                assert_agrees(&idx, &deltas);
            }
        }
        assert_agrees(&idx, &deltas);
    }

    #[test]
    fn heavy_shift_cascade_is_correct() {
        // Repeated small rewrites at the front force many tail shifts
        // through the kinetic certificates.
        let n = 128;
        let mut deltas: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let mut idx = KineticIndex::from_deltas(&deltas);
        for round in 0..50 {
            let d = (round % 7) as f64;
            idx.rewrite_deltas(round % 4, &[d]);
            deltas[round % 4] = d;
            assert_agrees(&idx, &deltas);
        }
    }
}
