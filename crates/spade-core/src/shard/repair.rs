//! Cross-shard community repair: recovering single-engine exactness
//! under hash routing.
//!
//! Hash partitioning splits a community's edges across shards, so every
//! shard sees a *diluted* slice and the aggregator's best-of answer
//! understates the true density. The repair pass recovers the exact
//! answer without connectivity routing's state:
//!
//! 1. every shard exports a **candidate region** — its detected
//!    community plus a configurable k-hop frontier of boundary edges,
//!    serialized with the [`crate::persist`] subgraph codec
//!    ([`CandidateRegion`]);
//! 2. regions that share *any* vertex are grouped (union-find): shared
//!    members are exactly the signature of a split community, since a
//!    hash-routed vertex appears as an edge endpoint on every shard that
//!    holds one of its edges;
//! 3. each group's subgraphs are unioned into one dense-id scratch graph
//!    and **re-peeled** through a borrowed scratch engine
//!    ([`RepairScratch`]) — one engine value recycled across repairs;
//! 4. the returned [`RepairOutcome`] density is **provably ≥ the best
//!    per-shard detection**: besides the union re-peel's own best suffix,
//!    every contributing shard's member set is re-evaluated on the union
//!    graph, and a member set can only gain weight there (the union holds
//!    every local edge among those members, plus whatever other shards
//!    contribute), so the maximum dominates every local answer.
//!
//! This mirrors how per-partition evidence is reconciled into one global
//! ranking in partitioned fraud pipelines (BreachRadar's per-partition
//! point-of-compromise aggregation, SAD-F's per-executor partials): local
//! detectors stay hot and independent, a cheap global pass restores
//! exactness.

use crate::engine::SpadeEngine;
use crate::metric::WeightedDensity;
use crate::persist::SubgraphSnapshot;
use crate::service::CandidateRegion;
use spade_graph::hash::FxHashMap;
use spade_graph::{DynamicGraph, VertexId};

/// Tuning of the repair pass.
#[derive(Clone, Copy, Debug)]
pub struct RepairConfig {
    /// Frontier radius exported around each shard's community: the
    /// candidate region is the induced subgraph over the community plus
    /// `hops` breadth-first rings of boundary vertices. `1` suffices to
    /// stitch communities that share members; larger radii also capture
    /// structure connected only through bystander vertices.
    pub hops: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig { hops: 1 }
    }
}

/// Monotonic counters of the repair subsystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct RepairStats {
    /// Repair passes executed.
    pub repairs: u64,
    /// Candidate regions exported across all passes.
    pub regions_exported: u64,
    /// Region groups that actually merged (≥ 2 regions) and re-peeled.
    pub groups_merged: u64,
    /// Regions dropped because their bytes failed to decode.
    pub corrupt_regions: u64,
    /// Density gained by the most recent pass (repaired − best shard).
    pub last_gain: f64,
    /// Wall time of the most recent pass, nanoseconds. The full
    /// distribution lives in the runtime registry's
    /// `spade_repair_pass_ns` histogram
    /// (`crate::shard::service::metric_names::REPAIR_PASS_NS`); this
    /// field keeps the latest sample visible in plain stats reports.
    pub last_pass_ns: u64,
}

/// Per-shard accounting of one repair pass, for reports.
#[derive(Clone, Copy, Debug)]
pub struct RegionSummary {
    /// Exporting shard.
    pub shard: usize,
    /// Vertices in the exported region (community + frontier).
    pub vertices: usize,
    /// Edges in the exported region.
    pub edges: usize,
    /// The shard's local detection size at export.
    pub detection_size: usize,
    /// The shard's local detection density at export.
    pub density: f64,
    /// Whether this region merged with at least one other region.
    pub merged: bool,
}

/// The product of one repair pass: the repaired global detection plus
/// the provenance a moderator needs to trust it.
#[derive(Clone, Debug, Default)]
pub struct RepairedDetection {
    /// The repaired global detection. `epoch` is the number of the pass
    /// that produced it; `updates_applied` sums the per-shard counters at
    /// export.
    pub detection: crate::service::PublishedDetection,
    /// Best per-shard density before repair (the diluted baseline).
    pub baseline_density: f64,
    /// The shard holding that baseline.
    pub baseline_shard: usize,
    /// Shards whose regions merged into the winning union (empty when a
    /// single shard's candidate already won).
    pub merged_shards: Vec<usize>,
    /// Whether the winning answer came out of a multi-region union
    /// re-peel.
    pub repaired: bool,
    /// Per-shard export accounting of the pass that produced this
    /// detection.
    pub regions: Vec<RegionSummary>,
}

/// The result of one repair pass over a set of candidate regions.
#[derive(Clone, Debug, Default)]
pub struct RepairOutcome {
    /// Members of the repaired community (global ids, ascending).
    pub members: Vec<VertexId>,
    /// `|S|` of the repaired community.
    pub size: usize,
    /// Density of the repaired community — ≥ `baseline_density`.
    pub density: f64,
    /// The best per-shard density before repair (the diluted baseline).
    pub baseline_density: f64,
    /// The shard holding that baseline.
    pub baseline_shard: usize,
    /// Shards whose regions merged into the winning union (empty when a
    /// single shard's candidate already won).
    pub merged_shards: Vec<usize>,
    /// Whether the winning candidate came out of a multi-region union
    /// re-peel (`false`: the best single-shard view was already best).
    pub repaired: bool,
    /// Region groups with ≥ 2 members that were union-re-peeled.
    pub groups_merged: usize,
    /// Regions dropped because their bytes failed to decode.
    pub corrupt_regions: usize,
    /// Per-shard export accounting.
    pub regions: Vec<RegionSummary>,
}

/// Reusable workspace of the repair pass: one scratch engine (re-peeled
/// in place via [`SpadeEngine::reload_graph`]) plus the id-remap tables.
///
/// The scratch metric is irrelevant to correctness: region weights are
/// already final suspiciousness values, and a static re-peel reads graph
/// weights only — no metric callback runs. `WeightedDensity` (identity on
/// weights) documents that.
#[derive(Debug)]
pub struct RepairScratch {
    engine: SpadeEngine<WeightedDensity>,
    /// Dense local id → global id of the current union.
    remap: Vec<VertexId>,
    /// Global id → dense local id of the current union.
    local: FxHashMap<u32, u32>,
    /// Packed global `(src, dst)` → slot in the staged edge list.
    edge_slots: FxHashMap<u64, usize>,
}

impl Default for RepairScratch {
    fn default() -> Self {
        RepairScratch {
            engine: SpadeEngine::new(WeightedDensity),
            remap: Vec::new(),
            local: FxHashMap::default(),
            edge_slots: FxHashMap::default(),
        }
    }
}

impl RepairScratch {
    /// Fresh scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    fn local_id(&mut self, global: VertexId) -> u32 {
        match self.local.get(&global.0) {
            Some(&l) => l,
            None => {
                let l = self.remap.len() as u32;
                self.local.insert(global.0, l);
                self.remap.push(global);
                l
            }
        }
    }
}

/// One decoded candidate region, ready for grouping.
struct Region<'a> {
    shard: usize,
    candidate: &'a CandidateRegion,
    snapshot: SubgraphSnapshot,
}

/// Runs one repair pass over per-shard candidate regions: group by shared
/// vertices, union + re-peel each merged group through `scratch`, and
/// return the best candidate seen — guaranteed no worse than the best
/// per-shard detection.
pub fn repair_regions(
    regions: &[(usize, CandidateRegion)],
    scratch: &mut RepairScratch,
) -> RepairOutcome {
    let mut outcome = RepairOutcome::default();
    let mut decoded: Vec<Region<'_>> = Vec::with_capacity(regions.len());
    for (shard, candidate) in regions {
        match SubgraphSnapshot::decode(&candidate.encoded) {
            Ok(snapshot) => {
                outcome.regions.push(RegionSummary {
                    shard: *shard,
                    vertices: snapshot.vertices.len(),
                    edges: snapshot.edges.len(),
                    detection_size: candidate.size,
                    density: candidate.density,
                    merged: false,
                });
                decoded.push(Region { shard: *shard, candidate, snapshot });
            }
            Err(_) => outcome.corrupt_regions += 1,
        }
    }
    if decoded.is_empty() {
        return outcome;
    }

    // The diluted baseline: best per-shard density, ties to lower shard.
    let (baseline_slot, _) = decoded
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            a.candidate.density.total_cmp(&b.candidate.density).then(b.shard.cmp(&a.shard))
        })
        .expect("decoded is non-empty");
    outcome.baseline_density = decoded[baseline_slot].candidate.density;
    outcome.baseline_shard = decoded[baseline_slot].shard;

    // Group regions sharing any vertex (union-find over region slots). A
    // split community's pieces always share vertices: a vertex appears on
    // every shard holding one of its edges.
    let mut parent: Vec<usize> = (0..decoded.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut owner: FxHashMap<u32, usize> = FxHashMap::default();
    for (slot, region) in decoded.iter().enumerate() {
        for &(u, _) in &region.snapshot.vertices {
            match owner.get(&u.0) {
                Some(&other) => {
                    let (a, b) = (find(&mut parent, slot), find(&mut parent, other));
                    if a != b {
                        parent[a] = b;
                    }
                }
                None => {
                    owner.insert(u.0, slot);
                }
            }
        }
    }
    let mut groups: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    for slot in 0..decoded.len() {
        let root = find(&mut parent, slot);
        groups.entry(root).or_default().push(slot);
    }
    let mut grouped: Vec<Vec<usize>> = groups.into_values().collect();
    for g in &mut grouped {
        g.sort_unstable();
    }
    grouped.sort_unstable();

    // Best candidate across groups: (density, size, members, shards,
    // from_union).
    let mut best: Option<(f64, Vec<VertexId>, Vec<usize>, bool)> = None;
    let mut consider = |density: f64, members: Vec<VertexId>, shards: Vec<usize>, union: bool| {
        let better = match &best {
            None => true,
            Some((d, m, _, _)) => {
                density > *d + 1e-12 || ((density - *d).abs() <= 1e-12 && members.len() > m.len())
            }
        };
        if better {
            best = Some((density, members, shards, union));
        }
    };

    for group in &grouped {
        if group.len() == 1 {
            let region = &decoded[group[0]];
            if region.candidate.size > 0 {
                consider(
                    region.candidate.density,
                    region.candidate.members.to_vec(),
                    vec![region.shard],
                    false,
                );
            }
            continue;
        }
        outcome.groups_merged += 1;
        let shards: Vec<usize> = group.iter().map(|&slot| decoded[slot].shard).collect();
        for &slot in group {
            let shard = decoded[slot].shard;
            if let Some(summary) = outcome.regions.iter_mut().find(|s| s.shard == shard) {
                summary.merged = true;
            }
        }

        // Union the group's subgraphs into one dense-id scratch graph.
        // Vertex weights take the max across regions (every shard
        // evaluated the same metric prior; max is exact for the built-in
        // metrics and conservative otherwise); duplicate directed edges —
        // impossible when each edge lives on exactly one shard, but
        // tolerated — also keep the max rather than accumulating.
        scratch.remap.clear();
        scratch.local.clear();
        scratch.edge_slots.clear();
        let mut weights: Vec<f64> = Vec::new();
        let mut edges: Vec<(u32, u32, f64)> = Vec::new();
        for &slot in group {
            for &(u, w) in &decoded[slot].snapshot.vertices {
                let l = scratch.local_id(u) as usize;
                if l == weights.len() {
                    weights.push(w);
                } else if w > weights[l] {
                    weights[l] = w;
                }
            }
            for &(src, dst, w) in &decoded[slot].snapshot.edges {
                let s = scratch.local_id(src);
                let d = scratch.local_id(dst);
                let key = (s as u64) << 32 | d as u64;
                match scratch.edge_slots.get(&key) {
                    Some(&at) => {
                        if w > edges[at].2 {
                            edges[at].2 = w;
                        }
                    }
                    None => {
                        scratch.edge_slots.insert(key, edges.len());
                        edges.push((s, d, w));
                    }
                }
            }
        }
        let mut graph = DynamicGraph::with_capacity(weights.len());
        for &w in &weights {
            let _ = graph.add_vertex(w.max(0.0));
        }
        for &(s, d, w) in &edges {
            if w > 0.0 && s != d {
                let _ = graph.insert_edge(VertexId(s), VertexId(d), w);
            }
        }

        // Re-peel the union in place through the borrowed scratch engine.
        scratch.engine.reload_graph(graph);
        let det = scratch.engine.detect();
        let peel_members: Vec<VertexId> =
            scratch.engine.community(det).iter().map(|&l| scratch.remap[l.index()]).collect();
        consider(det.density, peel_members, shards.clone(), true);

        // The provable floor: every contributing shard's member set,
        // re-evaluated on the union graph, where it can only be denser
        // than on the shard's local slice.
        for &slot in group {
            let region = &decoded[slot];
            if region.candidate.size == 0 {
                continue;
            }
            let locals: Vec<u32> = region
                .candidate
                .members
                .iter()
                .filter_map(|m| scratch.local.get(&m.0).copied())
                .collect();
            // Every community member is in the region's own vertex set.
            debug_assert_eq!(locals.len(), region.candidate.members.len());
            let density = set_density(scratch.engine.graph(), &locals);
            consider(density, region.candidate.members.to_vec(), shards.clone(), true);
        }
    }

    if let Some((density, mut members, shards, union)) = best {
        members.sort_unstable_by_key(|m| m.0);
        outcome.density = density;
        outcome.size = members.len();
        outcome.members = members;
        outcome.repaired = union;
        outcome.merged_shards = if union { shards } else { Vec::new() };
    }
    outcome
}

/// `g(S)` of an explicit member set on `graph`: vertex weights plus every
/// edge with both endpoints inside, divided by `|S|`.
fn set_density(graph: &DynamicGraph, members: &[u32]) -> f64 {
    if members.is_empty() {
        return 0.0;
    }
    let mut inside = vec![false; graph.num_vertices()];
    for &m in members {
        inside[m as usize] = true;
    }
    let mut f = 0.0;
    for &m in members {
        let u = VertexId(m);
        f += graph.vertex_weight(u);
        for nb in graph.out_neighbors(u) {
            if inside[nb.v.index()] {
                f += nb.w;
            }
        }
    }
    f / members.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpadeEngine;
    use crate::metric::WeightedDensity;
    use std::sync::Arc;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Builds a CandidateRegion the way a shard worker would: run a local
    /// engine over `edges`, detect, export the k-hop region.
    fn region_from_edges(edges: &[(u32, u32, f64)], hops: usize) -> CandidateRegion {
        let mut engine = SpadeEngine::new(WeightedDensity);
        for &(a, b, w) in edges {
            engine.insert_edge(v(a), v(b), w).unwrap();
        }
        let det = engine.detect();
        let members: Arc<[VertexId]> = Arc::from(engine.community(det));
        let snapshot = SubgraphSnapshot::extract(engine.graph(), &members, hops);
        CandidateRegion {
            size: det.size,
            density: det.density,
            members,
            encoded: snapshot.encode(),
            updates_applied: edges.len() as u64,
            epoch: 1,
        }
    }

    /// A 4-ring (all ordered pairs, weight 10) split across two shards by
    /// edge parity: each shard alone sees half the weight; the union must
    /// recover the full density.
    fn split_ring_regions() -> Vec<(usize, CandidateRegion)> {
        let ring = [100u32, 101, 102, 103];
        let mut shard0 = Vec::new();
        let mut shard1 = Vec::new();
        let mut flip = false;
        for &a in &ring {
            for &b in &ring {
                if a != b {
                    if flip {
                        shard0.push((a, b, 10.0));
                    } else {
                        shard1.push((a, b, 10.0));
                    }
                    flip = !flip;
                }
            }
        }
        vec![(0, region_from_edges(&shard0, 1)), (1, region_from_edges(&shard1, 1))]
    }

    #[test]
    fn union_recovers_the_full_ring_density() {
        let regions = split_ring_regions();
        let baseline = regions.iter().map(|(_, r)| r.density).fold(f64::NEG_INFINITY, f64::max);
        let mut scratch = RepairScratch::new();
        let outcome = repair_regions(&regions, &mut scratch);
        assert!(outcome.repaired, "split ring must trigger a union re-peel");
        assert_eq!(outcome.groups_merged, 1);
        assert_eq!(outcome.merged_shards, vec![0, 1]);
        // Full ring: 12 ordered pairs × 10 over 4 vertices = density 30.
        assert_eq!(outcome.size, 4);
        assert!((outcome.density - 30.0).abs() < 1e-9);
        assert!((outcome.baseline_density - baseline).abs() < 1e-12);
        assert!(outcome.density >= baseline);
        assert_eq!(
            outcome.members,
            vec![v(100), v(101), v(102), v(103)],
            "members come back as sorted global ids"
        );
    }

    #[test]
    fn disjoint_regions_never_merge() {
        let a = region_from_edges(&[(0, 1, 8.0), (1, 0, 8.0)], 1);
        let b = region_from_edges(&[(10, 11, 6.0), (11, 10, 6.0)], 1);
        let mut scratch = RepairScratch::new();
        let outcome = repair_regions(&[(0, a), (1, b)], &mut scratch);
        assert!(!outcome.repaired);
        assert_eq!(outcome.groups_merged, 0);
        assert!(outcome.merged_shards.is_empty());
        // The densest single-shard candidate wins untouched.
        assert!((outcome.density - 8.0).abs() < 1e-12);
        assert_eq!(outcome.members, vec![v(0), v(1)]);
        assert_eq!(outcome.baseline_shard, 0);
    }

    #[test]
    fn repaired_density_never_below_any_shard() {
        // A merged group where the union re-peel's best suffix could
        // differ: shard 1's candidate is denser than what a naive union
        // peel of mostly-noise structure would pick. The floor evaluation
        // keeps the answer ≥ every local density.
        let a = region_from_edges(
            &[(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0), (3, 4, 2.0), (4, 0, 2.0)],
            1,
        );
        let b = region_from_edges(&[(2, 7, 30.0), (7, 2, 30.0)], 1);
        let locals = [a.density, b.density];
        let mut scratch = RepairScratch::new();
        let outcome = repair_regions(&[(0, a), (1, b)], &mut scratch);
        for d in locals {
            assert!(outcome.density >= d - 1e-9, "repaired {} < local {d}", outcome.density);
        }
    }

    #[test]
    fn corrupt_regions_are_skipped_not_fatal() {
        let good = region_from_edges(&[(0, 1, 5.0), (1, 0, 5.0)], 1);
        let mut bad = region_from_edges(&[(0, 2, 9.0), (2, 0, 9.0)], 1);
        bad.encoded[0] ^= 0xFF;
        let mut scratch = RepairScratch::new();
        let outcome = repair_regions(&[(0, good), (1, bad)], &mut scratch);
        assert_eq!(outcome.corrupt_regions, 1);
        assert!((outcome.density - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_yields_default_outcome() {
        let mut scratch = RepairScratch::new();
        let outcome = repair_regions(&[], &mut scratch);
        assert_eq!(outcome.size, 0);
        assert!(!outcome.repaired);
        assert!(outcome.regions.is_empty());
    }

    #[test]
    fn scratch_is_reusable_across_passes() {
        let mut scratch = RepairScratch::new();
        let first = repair_regions(&split_ring_regions(), &mut scratch);
        let second = repair_regions(&split_ring_regions(), &mut scratch);
        assert_eq!(first.members, second.members);
        assert!((first.density - second.density).abs() < 1e-12);
        // And a different workload through the same scratch stays exact.
        let a = region_from_edges(&[(0, 1, 8.0), (1, 0, 8.0)], 1);
        let third = repair_regions(&[(0, a)], &mut scratch);
        assert_eq!(third.members, vec![v(0), v(1)]);
    }
}
