//! Dense-subgraph enumeration (Appendix C.2, Fig. 14/15).
//!
//! One detected dense subgraph can contain several independent fraud
//! instances (Fig. 14): peeling returns their union when their densities
//! tie. To report individual instances to moderators, Spade repeatedly
//! detects the densest community, removes it from the graph, and detects
//! again until the residual density falls below a floor.
//!
//! Two implementations:
//!
//! * [`enumerate_static`] re-peels the residual graph from scratch each
//!   round — the baseline Appendix C.2 describes first;
//! * [`enumerate_incremental`] removes the community's incident edges
//!   through the deletion reordering (Appendix C.1), avoiding full
//!   re-peels — the "remark" optimization of C.2. It consumes the engine;
//!   clone the engine first if it is still needed.

use crate::engine::SpadeEngine;
use crate::metric::DensityMetric;
use crate::peel::peel;
use spade_graph::{DynamicGraph, VertexId};

/// One enumerated fraud instance.
#[derive(Clone, Debug, PartialEq)]
pub struct FraudInstance {
    /// Community members.
    pub members: Vec<VertexId>,
    /// Density `g` of the community at extraction time.
    pub density: f64,
}

/// Options bounding an enumeration run.
#[derive(Clone, Copy, Debug)]
pub struct EnumerationConfig {
    /// Stop after this many instances (0 = unbounded).
    pub max_instances: usize,
    /// Stop when the next community's density falls below this floor.
    pub min_density: f64,
    /// Split each detected community into weakly connected components —
    /// tied-density instances are returned as a union by peeling (Fig. 14)
    /// and the paper "enumerates these instances" individually
    /// (Appendix B). Default on.
    pub split_components: bool,
}

impl Default for EnumerationConfig {
    fn default() -> Self {
        EnumerationConfig { max_instances: 0, min_density: f64::EPSILON, split_components: true }
    }
}

/// Splits `members` into weakly connected components of the induced
/// subgraph and reports each with its own density; single-component
/// communities come back unchanged.
fn split_instances(g: &DynamicGraph, members: &[VertexId], density: f64) -> Vec<FraudInstance> {
    use spade_graph::hash::FxHashMap;
    let mut index: FxHashMap<u32, usize> = FxHashMap::default();
    for (i, m) in members.iter().enumerate() {
        index.insert(m.0, i);
    }
    let mut component = vec![usize::MAX; members.len()];
    let mut stack = Vec::new();
    let mut n_comp = 0usize;
    for i in 0..members.len() {
        if component[i] != usize::MAX {
            continue;
        }
        component[i] = n_comp;
        stack.push(i);
        while let Some(j) = stack.pop() {
            for nb in g.neighbors(members[j]) {
                if let Some(&k) = index.get(&nb.v.0) {
                    if component[k] == usize::MAX {
                        component[k] = n_comp;
                        stack.push(k);
                    }
                }
            }
        }
        n_comp += 1;
    }
    if n_comp <= 1 {
        return vec![FraudInstance { members: members.to_vec(), density }];
    }
    let mut groups: Vec<Vec<VertexId>> = vec![Vec::new(); n_comp];
    for (i, &c) in component.iter().enumerate() {
        groups[c].push(members[i]);
    }
    groups
        .into_iter()
        .map(|group| {
            let mut f: f64 = group.iter().map(|&u| g.vertex_weight(u)).sum();
            for &u in &group {
                for nb in g.out_neighbors(u) {
                    if index.contains_key(&nb.v.0)
                        && component[index[&nb.v.0]] == component[index[&u.0]]
                    {
                        f += nb.w;
                    }
                }
            }
            let density = f / group.len() as f64;
            FraudInstance { members: group, density }
        })
        .collect()
}

/// Enumerates dense communities by re-peeling the residual graph from
/// scratch after each extraction. Operates on a private copy of `graph`.
pub fn enumerate_static(graph: &DynamicGraph, config: EnumerationConfig) -> Vec<FraudInstance> {
    let mut g = graph.clone();
    let mut out = Vec::new();
    loop {
        if config.max_instances > 0 && out.len() >= config.max_instances {
            break;
        }
        let outcome = peel(&g);
        if outcome.order.is_empty() || outcome.best_density < config.min_density {
            break;
        }
        let members = outcome.community().to_vec();
        remove_members(&mut g, &members);
        if config.split_components {
            out.extend(split_instances(graph, &members, outcome.best_density));
        } else {
            out.push(FraudInstance { members, density: outcome.best_density });
        }
    }
    out
}

/// Enumerates dense communities through incremental deletion reordering:
/// each extracted community's incident edges are deleted one at a time via
/// Appendix C.1's pass, so no full re-peel happens. Destroys the engine's
/// content (the graph ends up sparse); clone beforehand if needed.
pub fn enumerate_incremental<M: DensityMetric>(
    engine: &mut SpadeEngine<M>,
    config: EnumerationConfig,
) -> Vec<FraudInstance> {
    let mut out = Vec::new();
    loop {
        if config.max_instances > 0 && out.len() >= config.max_instances {
            break;
        }
        let det = engine.detect();
        if det.size == 0 || det.density < config.min_density {
            break;
        }
        let members = engine.community(det).to_vec();
        let split = if config.split_components {
            Some(split_instances(engine.graph(), &members, det.density))
        } else {
            None
        };
        // Zero the members' vertex weights and drop their incident edges,
        // restoring the peeling invariant after every deletion.
        let mut edges = Vec::new();
        for &u in &members {
            for nb in engine.graph().out_neighbors(u) {
                edges.push((u, nb.v));
            }
            for nb in engine.graph().in_neighbors(u) {
                edges.push((nb.v, u));
            }
        }
        edges.sort_unstable_by_key(|&(a, b)| (a.0, b.0));
        edges.dedup();
        for (a, b) in edges {
            // Edges inside the community appear from both endpoints; the
            // first deletion removes them, so tolerate "not found".
            let _ = engine.delete_edge(a, b);
        }
        for &u in &members {
            engine
                .set_vertex_suspiciousness(u, 0.0)
                .expect("clearing prior suspiciousness cannot fail");
        }
        match split {
            Some(instances) => out.extend(instances),
            None => out.push(FraudInstance { members, density: det.density }),
        }
    }
    out
}

fn remove_members(g: &mut DynamicGraph, members: &[VertexId]) {
    for &u in members {
        let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(g.degree(u));
        for nb in g.out_neighbors(u) {
            edges.push((u, nb.v));
        }
        for nb in g.in_neighbors(u) {
            edges.push((nb.v, u));
        }
        for (a, b) in edges {
            let _ = g.delete_edge(a, b);
        }
        g.set_vertex_weight(u, 0.0).expect("zeroing vertex weight cannot fail");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::WeightedDensity;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Two planted blocks of different densities plus background noise.
    fn two_block_graph() -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for _ in 0..14 {
            g.add_vertex(0.0).unwrap();
        }
        // Block A (vertices 0..4): weight-10 clique, density 15.
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                g.insert_edge(v(a), v(b), 10.0).unwrap();
            }
        }
        // Block B (vertices 4..8): weight-4 clique, density 6.
        for a in 4..8u32 {
            for b in (a + 1)..8 {
                g.insert_edge(v(a), v(b), 4.0).unwrap();
            }
        }
        // Background path.
        for i in 8..13u32 {
            g.insert_edge(v(i), v(i + 1), 1.0).unwrap();
        }
        g
    }

    #[test]
    fn static_enumeration_finds_both_blocks_in_density_order() {
        let g = two_block_graph();
        let instances = enumerate_static(
            &g,
            EnumerationConfig { max_instances: 2, min_density: 1.0, ..Default::default() },
        );
        assert_eq!(instances.len(), 2);
        let mut a: Vec<u32> = instances[0].members.iter().map(|u| u.0).collect();
        a.sort_unstable();
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert!((instances[0].density - 15.0).abs() < 1e-9);
        let mut b: Vec<u32> = instances[1].members.iter().map(|u| u.0).collect();
        b.sort_unstable();
        assert_eq!(b, vec![4, 5, 6, 7]);
        assert!((instances[1].density - 6.0).abs() < 1e-9);
        assert!(instances[0].density >= instances[1].density);
    }

    #[test]
    fn min_density_floor_stops_enumeration() {
        let g = two_block_graph();
        let instances = enumerate_static(
            &g,
            EnumerationConfig { max_instances: 0, min_density: 10.0, ..Default::default() },
        );
        assert_eq!(instances.len(), 1);
    }

    #[test]
    fn incremental_enumeration_matches_static() {
        let g = two_block_graph();
        let config = EnumerationConfig { max_instances: 0, min_density: 1.0, ..Default::default() };
        let want = enumerate_static(&g, config);

        let mut engine = SpadeEngine::new(WeightedDensity);
        engine.reload_graph(g);
        let got = enumerate_incremental(&mut engine, config);
        assert_eq!(want.len(), got.len());
        for (wi, gi) in want.iter().zip(&got) {
            let mut a: Vec<u32> = wi.members.iter().map(|u| u.0).collect();
            let mut b: Vec<u32> = gi.members.iter().map(|u| u.0).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            assert!((wi.density - gi.density).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_graph_enumerates_nothing() {
        let g = DynamicGraph::new();
        assert!(enumerate_static(&g, EnumerationConfig::default()).is_empty());
    }

    #[test]
    fn tied_densities_enumerate_as_union_then_split() {
        // Fig. 14: disjoint same-density blocks are returned together by a
        // single detection; enumeration splits them across rounds only if
        // removal separates them. Here the union is one detection.
        let mut g = DynamicGraph::new();
        for _ in 0..8 {
            g.add_vertex(0.0).unwrap();
        }
        for base in [0u32, 4u32] {
            for a in base..base + 4 {
                for b in (a + 1)..base + 4 {
                    g.insert_edge(v(a), v(b), 2.0).unwrap();
                }
            }
        }
        let union_only = enumerate_static(
            &g,
            EnumerationConfig { split_components: false, ..Default::default() },
        );
        assert_eq!(union_only.len(), 1, "tied blocks form one dense union (Fig. 14)");
        assert_eq!(union_only[0].members.len(), 8);
        // With component splitting (the default), the union separates into
        // the two planted blocks, each with its own density.
        let split = enumerate_static(&g, EnumerationConfig::default());
        assert_eq!(split.len(), 2);
        for inst in &split {
            assert_eq!(inst.members.len(), 4);
            assert!((inst.density - 3.0).abs() < 1e-9); // 6 edges * 2 / 4
        }
    }
}
