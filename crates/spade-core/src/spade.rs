//! The paper-faithful `Spade` facade (Listing 1/Listing 2).
//!
//! Developers plug in two suspiciousness closures (`VSusp`, `ESusp`),
//! optionally enable edge grouping, load an initial graph, and then stream
//! transactions through `InsertEdge` / `InsertBatchEdges`. Everything else
//! — incrementalization, reordering, batching, detection maintenance — is
//! automatic, exactly the paper's "auto-incrementalization" pitch. The
//! Listing 2 FD implementation is reproduced almost verbatim in
//! `examples/custom_metric.rs`.
//!
//! For performance-critical embedding prefer [`crate::SpadeEngine`]
//! directly: it is generic over the metric (static dispatch) and returns
//! borrowed community slices instead of owned vectors.

use crate::engine::{SpadeConfig, SpadeEngine};
use crate::grouping::{EdgeGrouper, GroupingConfig};
use crate::metric::CustomMetric;
use crate::service::{IngestConfig, SpadeService};
use crate::state::Detection;
use spade_graph::io;
use spade_graph::{DynamicGraph, GraphError, VertexId};
use std::path::Path;

/// Builder mirroring the setup phase of Listing 2 (`VSusp`, `ESusp`,
/// `TurnOnEdgeGrouping`, `LoadGraph`).
pub struct SpadeBuilder {
    vsusp: crate::metric::VertexSuspFn,
    esusp: crate::metric::EdgeSuspFn,
    name: &'static str,
    grouping: Option<GroupingConfig>,
}

impl Default for SpadeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpadeBuilder {
    /// Starts a builder with DG semantics (`vsusp = 0`, `esusp = 1` for
    /// new pairs, redundant for repeats — the paper's set-union update
    /// model).
    pub fn new() -> Self {
        SpadeBuilder {
            vsusp: Box::new(|_, _| 0.0),
            esusp: Box::new(|s, d, _, g| {
                if g.contains_vertex(s) && g.contains_vertex(d) && g.contains_edge(s, d) {
                    0.0
                } else {
                    1.0
                }
            }),
            name: "custom",
            grouping: None,
        }
    }

    /// Plugs in the vertex suspiciousness function (`VSusp`).
    pub fn vsusp(
        mut self,
        f: impl Fn(VertexId, &DynamicGraph) -> f64 + Send + Sync + 'static,
    ) -> Self {
        self.vsusp = Box::new(f);
        self
    }

    /// Plugs in the edge suspiciousness function (`ESusp`). Receives
    /// `(src, dst, raw_attribute, current_graph)`.
    pub fn esusp(
        mut self,
        f: impl Fn(VertexId, VertexId, f64, &DynamicGraph) -> f64 + Send + Sync + 'static,
    ) -> Self {
        self.esusp = Box::new(f);
        self
    }

    /// Names the semantics (shows up in reports).
    pub fn name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Enables edge grouping with default settings
    /// (`TurnOnEdgeGrouping`).
    pub fn turn_on_edge_grouping(self) -> Self {
        self.edge_grouping(GroupingConfig::default())
    }

    /// Enables edge grouping with explicit settings.
    pub fn edge_grouping(mut self, config: GroupingConfig) -> Self {
        self.grouping = Some(config);
        self
    }

    fn into_metric(self) -> (CustomMetric, Option<GroupingConfig>) {
        let vsusp = self.vsusp;
        let esusp = self.esusp;
        let metric = CustomMetric::new(
            self.name,
            move |u, g| vsusp(u, g),
            move |s, d, raw, g| esusp(s, d, raw, g),
        );
        (metric, self.grouping)
    }

    /// Builds an empty `Spade` instance (graph arrives via insertions).
    pub fn build(self) -> Spade {
        let (metric, grouping) = self.into_metric();
        Spade { engine: SpadeEngine::new(metric), grouper: grouping.map(EdgeGrouper::new) }
    }

    /// `LoadGraph`: reads a whitespace edge list (`src dst [raw] [ts]`)
    /// from disk, evaluates the plugged-in suspiciousness functions while
    /// replaying it, and runs one static peel.
    pub fn load_graph<P: AsRef<Path>>(self, path: P) -> Result<Spade, GraphError> {
        let (records, _interner) = io::read_edge_list(std::fs::File::open(path)?)?;
        self.load_records(records.iter().map(|r| (r.src, r.dst, r.weight)))
    }

    /// `LoadGraph` from an in-memory transaction iterator.
    pub fn load_records(
        self,
        records: impl IntoIterator<Item = (VertexId, VertexId, f64)>,
    ) -> Result<Spade, GraphError> {
        let (metric, grouping) = self.into_metric();
        let engine = SpadeEngine::bootstrap(metric, SpadeConfig::default(), records)?;
        Ok(Spade { engine, grouper: grouping.map(EdgeGrouper::new) })
    }
}

/// The Listing 1 interface: `Detect`, `InsertEdge`, `InsertBatchEdges`.
pub struct Spade {
    engine: SpadeEngine<CustomMetric>,
    grouper: Option<EdgeGrouper>,
}

impl Spade {
    /// Detects the current fraudulent community, flushing any buffered
    /// benign edges first so the answer reflects every submitted
    /// transaction.
    pub fn detect(&mut self) -> Result<Vec<VertexId>, GraphError> {
        if let Some(grouper) = self.grouper.as_mut() {
            grouper.flush(&mut self.engine)?;
        }
        let det = self.engine.detect();
        Ok(self.engine.community(det).to_vec())
    }

    /// Inserts one transaction and returns the fraudulent community. With
    /// edge grouping enabled, benign transactions are buffered and the
    /// *previous* community is returned until a flush happens (that delay
    /// is exactly the queueing time of Fig. 8).
    pub fn insert_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        raw: f64,
    ) -> Result<Vec<VertexId>, GraphError> {
        let det = match self.grouper.as_mut() {
            Some(grouper) => {
                let outcome = grouper.submit(&mut self.engine, src, dst, raw)?;
                match outcome.flushed {
                    Some((_, det)) => det,
                    None => self.engine.cached_detection(),
                }
            }
            None => self.engine.insert_edge(src, dst, raw)?,
        };
        Ok(self.engine.community(det).to_vec())
    }

    /// Inserts a batch of transactions with one reordering pass and
    /// returns the fraudulent community.
    pub fn insert_batch_edges(
        &mut self,
        edges: &[(VertexId, VertexId, f64)],
    ) -> Result<Vec<VertexId>, GraphError> {
        if let Some(grouper) = self.grouper.as_mut() {
            grouper.flush(&mut self.engine)?;
        }
        let det = self.engine.insert_batch(edges)?;
        Ok(self.engine.community(det).to_vec())
    }

    /// Deletes an outdated edge (Appendix C.1 extension).
    pub fn delete_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
    ) -> Result<Vec<VertexId>, GraphError> {
        if let Some(grouper) = self.grouper.as_mut() {
            grouper.flush(&mut self.engine)?;
        }
        let det = self.engine.delete_edge(src, dst)?;
        Ok(self.engine.community(det).to_vec())
    }

    /// The current detection descriptor (size + density) without copying
    /// the member list.
    pub fn detection(&mut self) -> Result<Detection, GraphError> {
        if let Some(grouper) = self.grouper.as_mut() {
            grouper.flush(&mut self.engine)?;
        }
        Ok(self.engine.detect())
    }

    /// Hands the facade's engine to a threaded [`SpadeService`] — the
    /// Fig. 1 runtime with drain-coalescing ingest and zero-copy
    /// snapshot publishing. Any buffered benign edges are flushed first,
    /// so the service starts from the exact state every transaction
    /// submitted so far implies; the grouping configuration carries
    /// over to the worker.
    pub fn into_service(mut self, ingest: IngestConfig) -> Result<SpadeService, GraphError> {
        let mut grouping = None;
        if let Some(g) = self.grouper.as_mut() {
            grouping = Some(g.config());
            g.flush(&mut self.engine)?;
        }
        Ok(SpadeService::spawn_with(self.engine, grouping, ingest, "spade-detector".into()))
    }

    /// Read access to the underlying engine.
    pub fn engine(&self) -> &SpadeEngine<CustomMetric> {
        &self.engine
    }

    /// Mutable access to the underlying engine (escape hatch).
    pub fn engine_mut(&mut self) -> &mut SpadeEngine<CustomMetric> {
        &mut self.engine
    }

    /// The grouping buffer, when enabled.
    pub fn grouper(&self) -> Option<&EdgeGrouper> {
        self.grouper.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Listing 2, translated: FD on Spade in ~10 lines.
    fn fraudar_spade() -> Spade {
        SpadeBuilder::new()
            .name("FD")
            .vsusp(|_u, _g| 0.0)
            .esusp(|_s, d, _raw, g| 1.0 / (g.degree(d) as f64 + 5.0).ln())
            .build()
    }

    #[test]
    fn listing2_fraudar_detects_dense_block() {
        let mut spade = fraudar_spade();
        // Background bipartite traffic.
        for u in 0..6u32 {
            for m in [20u32, 21] {
                spade.insert_edge(v(u), v(m), 1.0).unwrap();
            }
        }
        // A click-farming block: many fake users hammering one merchant
        // cluster.
        for u in 10..16u32 {
            for m in [30u32, 31, 32] {
                spade.insert_edge(v(u), v(m), 1.0).unwrap();
                spade.insert_edge(v(u), v(m), 1.0).unwrap();
            }
        }
        let fraudsters = spade.detect().unwrap();
        assert!(!fraudsters.is_empty());
        let ids: std::collections::HashSet<u32> = fraudsters.iter().map(|u| u.0).collect();
        // The dense block's merchants must be implicated.
        assert!(ids.contains(&30) && ids.contains(&31) && ids.contains(&32));
    }

    #[test]
    fn default_builder_is_dg() {
        let mut spade = SpadeBuilder::new().build();
        spade.insert_edge(v(0), v(1), 123.0).unwrap();
        // DG semantics: weight 1 regardless of raw attribute.
        assert_eq!(spade.engine().graph().edge_weight(v(0), v(1)), Some(1.0));
    }

    #[test]
    fn load_records_bootstraps_then_streams() {
        let records = vec![(v(0), v(1), 2.0), (v(1), v(2), 2.0), (v(2), v(0), 2.0)];
        let mut spade =
            SpadeBuilder::new().name("DW").esusp(|_, _, raw, _| raw).load_records(records).unwrap();
        let before = spade.detection().unwrap();
        spade.insert_edge(v(3), v(0), 50.0).unwrap();
        let after = spade.detection().unwrap();
        assert!(after.density > before.density);
    }

    #[test]
    fn load_graph_from_disk() {
        let dir = std::env::temp_dir().join("spade_facade_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.txt");
        std::fs::write(&path, "a b 3.0\nb c 2.0\nc a 4.0\n").unwrap();
        let mut spade = SpadeBuilder::new().esusp(|_, _, raw, _| raw).load_graph(&path).unwrap();
        let det = spade.detection().unwrap();
        assert_eq!(det.size, 3);
        assert!((det.density - 3.0).abs() < 1e-9);
    }

    #[test]
    fn grouping_path_buffers_and_detect_flushes() {
        let mut spade = SpadeBuilder::new()
            .name("DW")
            .esusp(|_, _, raw, _| raw)
            .turn_on_edge_grouping()
            .build();
        // Establish a dense community first (urgent edges flush eagerly
        // while the threshold is still low).
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    spade.insert_edge(v(a), v(b), 10.0).unwrap();
                }
            }
        }
        let threshold = spade.detection().unwrap().density;
        assert!(threshold > 0.0);
        // Benign background edge: buffered, graph unchanged.
        spade.insert_edge(v(7), v(8), 0.01).unwrap();
        assert_eq!(spade.grouper().unwrap().buffered(), 1);
        assert!(spade.engine().graph().edge_weight(v(7), v(8)).is_none());
        // Detect flushes the buffer.
        spade.detect().unwrap();
        assert_eq!(spade.grouper().unwrap().buffered(), 0);
        assert!(spade.engine().graph().edge_weight(v(7), v(8)).is_some());
    }

    #[test]
    fn facade_into_service_flushes_and_serves() {
        let spade = SpadeBuilder::new()
            .name("DW")
            .esusp(|_, _, raw, _| raw)
            .turn_on_edge_grouping()
            .build();
        let service = spade.into_service(IngestConfig::default()).unwrap();
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    assert!(service.submit(v(a), v(b), 15.0));
                }
            }
        }
        let det = service.shutdown();
        assert_eq!(det.updates_applied, 6);
        assert!(det.size >= 3);
    }

    #[test]
    fn facade_delete_edge_roundtrip() {
        let mut spade = SpadeBuilder::new().esusp(|_, _, raw, _| raw).build();
        spade.insert_edge(v(0), v(1), 5.0).unwrap();
        spade.insert_edge(v(1), v(2), 5.0).unwrap();
        spade.delete_edge(v(0), v(1)).unwrap();
        assert_eq!(spade.engine().graph().num_edges(), 1);
    }
}
