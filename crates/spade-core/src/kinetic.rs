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
//! **Blocks.** The suffix values live in one flat array, cut into 64-slot
//! blocks, and the leaves of a segment tree are blocks. A leaf is either
//!
//! * *exact* — one scan of its slots found the block's densest slot and
//!   how far a uniform shift may go before another slot of the block
//!   overtakes it; or
//! * *bounded* — it holds only an upper bound on the block's densities,
//!   its largest value over its smallest size, `max y / r_min` (over its
//!   largest size, `max y / r_max`, when `max y < 0`). A bound is a
//!   candidate like a slot of size `r_min` (`r_max`): a shift `t` raises
//!   it by `t / r_min` (`t / r_max` when `t < 0`).
//!
//! **Kinetic tournament.** Each internal node remembers its winning
//! candidate and how much shift it can absorb before *any* ordering
//! decision in its subtree could flip (`(y_a + t)/a - (y_b + t)/b` is
//! linear in `t`, so each decision has a single crossing; a bound's sign
//! flip is one more). Shifts within the slack are O(1) lazy updates;
//! shifts beyond it rebuild only the affected certificates — the classic
//! kinetic-tournament amortization. An exact leaf whose certificate
//! breaks is not rescanned: it turns bounded.
//!
//! **Rewrites.** A window rewrite pushes pending shifts down the two
//! boundary paths, writes the window's suffix values (one add and one max
//! per slot, no division, no node per slot) and turns the window's blocks
//! bounded. Recombining their ancestors, it shifts the tail lazily on the
//! way up: level by level, the tail is the right sibling of the last
//! block's path.
//!
//! **Resolve.** Every mutating call ends by scanning the bounded block
//! that wins the tournament, again and again, until an exact slot wins:
//! only a block whose bound reaches the best is ever scanned, so
//! [`KineticIndex::best`] stays O(1) and exact. Ties prefer the larger
//! community (larger `r`), matching the static peel; a bound is inflated
//! by a relative margin of 2^-40, so a block whose bound merely ties the
//! best (or trails it by the rounding of its shifts) is scanned as well.
//! A window past the densest suffix is usually never scanned. The worst
//! case is an all-ties sequence (every density equal): no bound prunes,
//! and every block a window touches is scanned.

use crate::state::Detection;
use std::ops::Range;

/// Slots per block (tree leaf).
const BLOCK: usize = 64;
const BLOCK_BITS: u32 = BLOCK.trailing_zeros();
const NO_SLOT: u32 = u32::MAX;
/// Relative inflation of a bound (2^-40): it absorbs the rounding by which
/// a bound, shifted up the tree, may trail the values it covers, and makes
/// a bound that ties the best win, so that its block is scanned.
const MARGIN: f64 = f64::EPSILON * 4096.0;

/// `a.max(b)` as one compare and select: suffix values are never NaN, so
/// the NaN handling of `f64::max` would only lengthen the write loop.
#[inline(always)]
fn max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Segment-tree node payload.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Best suffix value in the subtree (absolute, including this node's
    /// own pending `lazy` but not the ancestors'); a bound's is its
    /// block's largest value, inflated by [`MARGIN`].
    y: f64,
    /// Winning slot index (0-based; community size `r = slot + 1`), or
    /// `NO_SLOT` for an empty subtree. A bound's is the block slot whose
    /// size divides it.
    slot: u32,
    /// `true` when the winner is a bounded block, not a scanned slot.
    bounded: bool,
    /// Pending uniform shift not yet pushed to children (a leaf's: not
    /// yet added to its block's values).
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
        bounded: false,
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
    /// Power-of-two block capacity (tree leaves).
    blocks: usize,
    /// Number of live slots.
    len: usize,
    /// 1-indexed implicit tree; `nodes[blocks + b]` is block `b`'s leaf.
    nodes: Vec<Node>,
    /// Suffix values, `BLOCK` per block: slot `i`'s is `ys[i]` plus the
    /// pending lazies from the root down to its leaf.
    ys: Vec<f64>,
    /// Per block, the largest `ys` over its live slots.
    ymax: Vec<f64>,
    /// Exact block scans so far.
    #[cfg(test)]
    scans: usize,
}

impl Default for KineticIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl KineticIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        KineticIndex {
            blocks: 1,
            len: 0,
            nodes: vec![Node::EMPTY; 2],
            ys: vec![0.0; BLOCK],
            ymax: vec![f64::NEG_INFINITY],
            #[cfg(test)]
            scans: 0,
        }
    }

    /// Builds the index from rank-space peeling weights (`deltas[i]` is
    /// the weight of the rank-`i+1` vertex).
    pub fn from_deltas(deltas: &[f64]) -> Self {
        let mut idx = KineticIndex::new();
        idx.reset(deltas);
        idx
    }

    /// Rebuilds in place from a fresh weight array: every block starts
    /// bounded, and the resolve step scans those that can hold the best.
    pub fn reset(&mut self, deltas: &[f64]) {
        let blocks = deltas.len().div_ceil(BLOCK).next_power_of_two();
        self.blocks = blocks;
        self.len = deltas.len();
        self.ys.clear();
        self.ys.resize(blocks * BLOCK, 0.0);
        let mut sum = 0.0;
        for (y, &d) in self.ys.iter_mut().zip(deltas) {
            sum += d;
            *y = sum;
        }
        self.nodes.clear();
        self.nodes.resize(2 * blocks, Node::EMPTY);
        self.ymax.clear();
        for b in 0..blocks {
            self.ymax.push(self.block_max(b));
            self.nodes[blocks + b] = self.bounded_leaf(b, 0.0);
        }
        for node in (1..blocks).rev() {
            self.pull_up(node);
        }
        self.resolve();
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
        debug_assert!(!root.bounded, "resolve leaves a positive bound unscanned");
        Detection { size: root.slot as usize + 1, density: root.density() }
    }

    /// Appends one slot whose delta is `delta` (a head-of-sequence vertex
    /// insertion): a one-slot [`Self::rewrite_deltas`] at the new end.
    /// `O(log n)` amortized over capacity doublings.
    pub fn append(&mut self, delta: f64) {
        if self.len == self.blocks * BLOCK {
            self.grow();
        }
        self.len += 1;
        self.rewrite_deltas(self.len - 1, &[delta]);
    }

    /// Replaces the deltas of slots `[lo, hi = lo + new_deltas.len())` and
    /// shifts every later suffix value by the change in window total.
    /// One pass over the window's slots (see the module doc) with no
    /// division: it costs those slots, the rest of the two boundary
    /// blocks, the blocks' ancestors and the paths of `lo` and `hi - 1`,
    /// plus the tail shift's amortized certificate repair and the scans
    /// of the resolve step.
    pub fn rewrite_deltas(&mut self, lo: usize, new_deltas: &[f64]) {
        let hi = lo + new_deltas.len();
        assert!(hi <= self.len, "rewrite window out of range");
        if new_deltas.is_empty() {
            return;
        }
        let base = if lo == 0 { 0.0 } else { self.leaf_value(lo - 1) };
        let old_end = self.leaf_value(hi - 1);
        let (first, last) = (lo >> BLOCK_BITS, (hi - 1) >> BLOCK_BITS);
        self.push_path(first, lo, hi);
        self.push_path(last, lo, hi);
        let mut sum = base;
        for b in first..=last {
            let live = self.live(b);
            let (ws, we) = (live.start.max(lo), live.end.min(hi));
            // Only the two boundary blocks keep slots outside the window;
            // their paths are pushed, so the leaf's lazy makes them
            // absolute. A covered block's lazy goes with its old values.
            let lazy = self.nodes[self.blocks + b].lazy;
            let mut top = f64::NEG_INFINITY;
            for y in &mut self.ys[live.start..ws] {
                *y += lazy;
                top = max(top, *y);
            }
            for (y, &d) in self.ys[ws..we].iter_mut().zip(&new_deltas[ws - lo..we - lo]) {
                sum += d;
                *y = sum;
                top = max(top, sum);
            }
            // Past the window, the last block's own slots take the shift.
            let shift = sum - old_end;
            for y in &mut self.ys[we..live.end] {
                *y = *y + lazy + shift;
                top = max(top, *y);
            }
            self.ymax[b] = top;
            self.nodes[self.blocks + b] = self.bounded_leaf(b, 0.0);
        }
        // Recombine the window's ancestors level by level. The tail past
        // the last block is, level by level, the right sibling of the
        // last block's path node: it shifts whole on the way up (a dead
        // sibling is empty, so one under a covered node shifts nothing).
        let shift = sum - old_end;
        let (mut a, mut z) = (self.blocks + first, self.blocks + last);
        while a > 1 {
            if shift != 0.0 && z & 1 == 0 {
                self.shift_subtree(z + 1, shift);
            }
            a >>= 1;
            z >>= 1;
            for node in a..=z {
                self.pull_up(node);
            }
        }
        self.resolve();
    }

    /// Uniformly shifts the suffix values of slots `[lo, hi)`.
    pub fn add_range(&mut self, lo: usize, hi: usize, t: f64) {
        assert!(hi <= self.len);
        if lo >= hi || t == 0.0 {
            return;
        }
        self.add_rec(1, 0, self.blocks * BLOCK, lo, hi, t);
        self.resolve();
    }

    /// The absolute suffix value of slot `i` (`f` of the size-`i+1`
    /// community). `O(log n)`.
    pub fn leaf_value(&self, i: usize) -> f64 {
        debug_assert!(i < self.len);
        let leaf = self.blocks + (i >> BLOCK_BITS);
        let mut acc = 0.0;
        for level in (1..=self.blocks.trailing_zeros()).rev() {
            acc += self.nodes[leaf >> level].lazy;
        }
        acc + (self.ys[i] + self.nodes[leaf].lazy)
    }

    // ---- internal machinery -------------------------------------------

    /// The live slots of block `b`.
    fn live(&self, b: usize) -> Range<usize> {
        let start = b * BLOCK;
        start..(start + BLOCK).min(self.len).max(start)
    }

    fn block_max(&self, b: usize) -> f64 {
        self.ys[self.live(b)].iter().fold(f64::NEG_INFINITY, |top, &y| max(top, y))
    }

    /// Block `b`'s bounded leaf under its pending shift `lazy`.
    fn bounded_leaf(&self, b: usize, lazy: f64) -> Node {
        let live = self.live(b);
        if live.is_empty() {
            return Node::EMPTY;
        }
        let top = self.ymax[b];
        let y = top + lazy + (top.abs() + lazy.abs()) * MARGIN;
        if y >= 0.0 {
            let slack_neg = y;
            Node { y, slot: live.start as u32, bounded: true, lazy, slack_neg, ..Node::EMPTY }
        } else {
            let (slot, slack_pos) = ((live.end - 1) as u32, -y);
            Node { y, slot, bounded: true, lazy, slack_pos, ..Node::EMPTY }
        }
    }

    /// Scans block `b`: its densest slot (ties to the larger) and how far
    /// a shift may go each way before another slot overtakes it.
    fn exact_leaf(&mut self, b: usize) -> Node {
        #[cfg(test)]
        {
            self.scans += 1;
        }
        let live = self.live(b);
        let lazy = self.nodes[self.blocks + b].lazy;
        let ys = &self.ys[live.clone()];
        let size = |k: usize| (live.start + k + 1) as f64;
        let (mut w, mut best) = (0, f64::NEG_INFINITY);
        for (k, &y) in ys.iter().enumerate() {
            let density = (y + lazy) / size(k);
            if density >= best {
                (w, best) = (k, density);
            }
        }
        let (yw, rw) = (ys[w] + lazy, size(w));
        let (mut slack_pos, mut slack_neg) = (f64::INFINITY, f64::INFINITY);
        for (k, &y) in ys.iter().enumerate() {
            // Crossing of (yw + t)/rw = (y + t)/r: a smaller community
            // gains on the winner as t grows, a larger one as t shrinks.
            let r = size(k);
            let cross = ((r * yw - rw * (y + lazy)) / (r - rw).abs()).max(0.0);
            if k < w {
                slack_pos = slack_pos.min(cross);
            } else if k > w {
                slack_neg = slack_neg.min(cross);
            }
        }
        let slot = (live.start + w) as u32;
        Node { y: yw, slot, bounded: false, lazy, slack_pos, slack_neg }
    }

    /// Scans the bounded block that wins the tournament until a slot
    /// wins, or the winning bound is not positive (so `best` is empty).
    fn resolve(&mut self) {
        loop {
            let root = self.nodes[1];
            if !root.bounded || root.density() <= 0.0 {
                return;
            }
            let b = root.slot as usize >> BLOCK_BITS;
            // An empty window: push the whole path.
            self.push_path(b, usize::MAX, 0);
            self.nodes[self.blocks + b] = self.exact_leaf(b);
            let mut node = (self.blocks + b) >> 1;
            while node >= 1 {
                self.pull_up(node);
                node >>= 1;
            }
        }
    }

    /// Doubles the block capacity: the old tree becomes the new root's
    /// left subtree (node `k` at depth `d` moves to `k + 2^d`, its
    /// pending lazy with it), so no block is rescanned.
    fn grow(&mut self) {
        let blocks = 2 * self.blocks;
        let mut nodes = vec![Node::EMPTY; 2 * blocks];
        for (k, &node) in self.nodes.iter().enumerate().skip(1) {
            nodes[k + (1 << k.ilog2())] = node;
        }
        self.nodes = nodes;
        self.blocks = blocks;
        self.ys.resize(blocks * BLOCK, 0.0);
        self.ymax.resize(blocks, f64::NEG_INFINITY);
        self.pull_up(1);
    }

    /// Applies a uniform shift to an entire subtree, cascading only where
    /// certificates break.
    fn shift_subtree(&mut self, node: usize, t: f64) {
        let n = self.nodes[node];
        if n.slot == NO_SLOT {
            return;
        }
        // Strict comparisons: a shift landing exactly ON a crossing makes
        // two candidates' densities tie, and ties must flip to the larger
        // community — so a boundary hit recombines instead of absorbing
        // the shift lazily.
        let absorbs = t < n.slack_pos && -t < n.slack_neg;
        if node >= self.blocks {
            // A leaf: an exact one absorbs the shift or turns bounded; a
            // bound is recomputed from its block's largest value.
            let lazy = n.lazy + t;
            self.nodes[node] = if absorbs && !n.bounded {
                let (slack_pos, slack_neg) = (n.slack_pos - t, n.slack_neg + t);
                Node { y: self.ys[n.slot as usize] + lazy, lazy, slack_pos, slack_neg, ..n }
            } else {
                self.bounded_leaf(node - self.blocks, lazy)
            };
            return;
        }
        if absorbs {
            let n = &mut self.nodes[node];
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
        if lo <= nlo && nhi.min(self.len) <= hi {
            self.shift_subtree(node, t);
            return;
        }
        if node >= self.blocks {
            // A block the range cuts: shift its slots in place; it turns
            // bounded.
            let b = node - self.blocks;
            let end = hi.min(self.live(b).end);
            for y in &mut self.ys[lo.max(nlo)..end] {
                *y += t;
            }
            self.ymax[b] = self.block_max(b);
            self.nodes[node] = self.bounded_leaf(b, self.nodes[node].lazy);
            return;
        }
        self.push_down(node);
        let mid = (nlo + nhi) / 2;
        self.add_rec(2 * node, nlo, mid, lo, hi, t);
        self.add_rec(2 * node + 1, mid, nhi, lo, hi, t);
        self.pull_up(node);
    }

    /// Pushes pending shifts down the root-to-leaf path of block `b`,
    /// stopping at the first node whose live slots lie inside `[lo, hi)`:
    /// that node's subtree is about to be overwritten.
    fn push_path(&mut self, b: usize, lo: usize, hi: usize) {
        let leaf = self.blocks + b;
        for level in (1..=self.blocks.trailing_zeros()).rev() {
            let node = leaf >> level;
            let start = ((node << level) - self.blocks) * BLOCK;
            if lo <= start && (start + (BLOCK << level)).min(self.len) <= hi {
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
                    bounded: winner.bounded,
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

    /// Rewrites each window, moving every delta by -1, 0 or +1, checks the
    /// index against the oracle, and returns the block scans each took.
    fn scans_of(
        idx: &mut KineticIndex,
        deltas: &mut [f64],
        windows: &[(usize, usize)],
    ) -> Vec<usize> {
        let mut counts = Vec::new();
        for (round, &(lo, hi)) in windows.iter().enumerate() {
            let before = idx.scans;
            let new: Vec<f64> =
                (lo..hi).map(|i| deltas[i] + ((i + round) % 3) as f64 - 1.0).collect();
            idx.rewrite_deltas(lo, &new);
            deltas[lo..hi].copy_from_slice(&new);
            assert_agrees(idx, deltas);
            counts.push(idx.scans - before);
        }
        counts
    }

    #[test]
    fn windows_past_a_dense_head_scan_no_block() {
        // A dense head (64 slots of 100) over a thin body: after the one
        // scan that finds the head, no window past it reaches the best.
        let mut deltas: Vec<f64> = (0..4096).map(|i| if i < 64 { 100.0 } else { 1.0 }).collect();
        let mut idx = KineticIndex::from_deltas(&deltas);
        assert_eq!(idx.scans, 1);
        assert_eq!(idx.best(), Detection { size: 64, density: 100.0 });
        let windows: Vec<(usize, usize)> =
            (0..40).map(|k| (130 + 80 * k, 130 + 80 * k + 700)).collect();
        assert_eq!(scans_of(&mut idx, &mut deltas, &windows), vec![0; 40]);
        // Appends (new largest communities) are pruned too.
        for _ in 0..100 {
            idx.append(1.0);
        }
        deltas.resize(4196, 1.0);
        assert_agrees(&idx, &deltas);
        assert_eq!(idx.scans, 1);
    }

    #[test]
    fn all_ties_scan_every_block_a_window_touches() {
        // Every density equal: no bound prunes, so a window that keeps
        // the ties scans each block it touches, and no other.
        let n = 4096;
        let mut deltas = vec![1.0; n];
        let mut idx = KineticIndex::from_deltas(&deltas);
        assert_eq!(idx.scans, n / BLOCK);
        assert_eq!(idx.best().size, n);
        for &(lo, hi) in &[(0, 1), (63, 65), (100, 1000), (640, 704), (1, 4000)] {
            let before = idx.scans;
            idx.rewrite_deltas(lo, &vec![1.0; hi - lo]);
            let touched = (hi - 1) / BLOCK - lo / BLOCK + 1;
            assert_eq!(idx.scans - before, touched, "window {lo}..{hi}");
            assert_agrees(&idx, &deltas);
        }
        deltas[10] = 2.0;
        idx.rewrite_deltas(10, &[2.0]);
        assert_agrees(&idx, &deltas);
    }
}
