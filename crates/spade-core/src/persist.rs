//! Engine-state snapshots (the "Storage system (DFS)" box of the paper's
//! Fig. 4 architecture).
//!
//! In production the transaction graph and its peeling state outlive any
//! single process: Grab's pipeline loads the graph from a distributed file
//! system, and a restarted detector must resume **without** re-peeling
//! millions of vertices. A snapshot stores the graph (vertices, weights,
//! edges) *and* the peeling sequence with its weights, so
//! [`load_engine`] restores in O(|V| + |E|) straight into serving — no
//! static peel.
//!
//! Format: a small length-prefixed binary layout (magic + version
//! header, little-endian fixed-width integers, `f64` bits). Written via
//! any `io::Write`, read via any `io::Read`.
//!
//! The byte primitives are shared with the `spade-net` wire protocol:
//! [`PutLe`] appends to a `Vec<u8>`, [`ByteReader`] reads a borrowed
//! `&[u8]` without copying it. Peers send these bytes (a
//! [`SubgraphSnapshot`] inside a region frame), so every read
//! returns [`Truncated`] instead of panicking.

use crate::engine::{SpadeConfig, SpadeEngine};
use crate::metric::DensityMetric;
use crate::peel::PeelingOutcome;
use crate::state::PeelingState;
use spade_graph::hash::FxHashSet;
use spade_graph::{DynamicGraph, GraphError, VertexId};
use std::io::{Read, Write};

/// Little-endian appends: the write half of the codecs.
pub trait PutLe {
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Appends the bits of an `f64`, little-endian.
    fn put_f64_le(&mut self, v: f64);
}

impl PutLe for Vec<u8> {
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

/// A [`ByteReader`] read past its input, or a section count that cannot
/// fit in it; names what was being read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated(pub &'static str);

/// The read half: a bounds-checked little-endian cursor over borrowed bytes.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { rest: bytes }
    }

    /// Consumes the next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (head, tail) =
            self.rest.split_at_checked(n).ok_or(Truncated("input ends inside a record"))?;
        self.rest = tail;
        Ok(head)
    }

    /// Consumes every byte not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        self.bytes(N)?.try_into().map_err(|_| Truncated("input ends inside a record"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads the bits of a little-endian `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.u64().map(f64::from_bits)
    }

    /// Checks a section count before the caller allocates for it: `count`
    /// records of `width` bytes must fit in the bytes not yet read
    /// (overflow-safe: a crafted count cannot wrap the multiplication).
    pub fn count(&self, count: u64, width: usize, what: &'static str) -> Result<usize, Truncated> {
        let fits = usize::try_from(count)
            .ok()
            .filter(|&n| n.checked_mul(width).is_some_and(|need| need <= self.rest.len()));
        fits.ok_or(Truncated(what))
    }
}

/// Snapshot magic: "SPDE".
const MAGIC: u32 = 0x5350_4445;
/// Current snapshot format version.
const VERSION: u32 = 1;
/// Subgraph snapshot magic: "SPSG".
const SUBGRAPH_MAGIC: u32 = 0x5350_5347;
/// Current subgraph format version.
const SUBGRAPH_VERSION: u32 = 1;

/// Errors raised while decoding a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Wrong magic number (not a Spade snapshot).
    BadMagic(u32),
    /// Unsupported format version.
    BadVersion(u32),
    /// Structurally invalid payload.
    Corrupt(&'static str),
    /// The decoded graph violated model invariants.
    Graph(GraphError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}: not a Spade snapshot"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Graph(e) => write!(f, "snapshot violates graph invariants: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<Truncated> for SnapshotError {
    fn from(e: Truncated) -> Self {
        SnapshotError::Corrupt(e.0)
    }
}

impl From<GraphError> for SnapshotError {
    fn from(e: GraphError) -> Self {
        SnapshotError::Graph(e)
    }
}

/// Serializes the engine's graph and peeling state into `writer`.
pub fn save_engine<M: DensityMetric, W: Write>(
    engine: &SpadeEngine<M>,
    mut writer: W,
) -> Result<(), SnapshotError> {
    let bytes = encode(engine.graph(), engine.state());
    writer.write_all(&bytes)?;
    writer.flush()?;
    Ok(())
}

/// Restores an engine from a snapshot, resuming incremental service
/// without a static peel. The metric is supplied by the caller (snapshots
/// carry data, not code).
pub fn load_engine<M: DensityMetric, R: Read>(
    metric: M,
    config: SpadeConfig,
    mut reader: R,
) -> Result<SpadeEngine<M>, SnapshotError> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let (graph, state) = decode(&raw)?;
    Ok(SpadeEngine::from_parts(graph, state, metric, config))
}

fn encode(graph: &DynamicGraph, state: &PeelingState) -> Vec<u8> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let mut buf = Vec::with_capacity(24 + n * 8 + m * 20 + state.len() * 12);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(m as u64);
    for u in graph.vertices() {
        buf.put_f64_le(graph.vertex_weight(u));
    }
    for (src, dst, w) in graph.iter_edges() {
        buf.put_u32_le(src.0);
        buf.put_u32_le(dst.0);
        buf.put_f64_le(w);
    }
    // Peeling state, in physical (rank) order.
    buf.put_u64_le(state.len() as u64);
    for (&u, &d) in state.seq_phys().iter().zip(state.delta_phys()) {
        buf.put_u32_le(u.0);
        buf.put_f64_le(d);
    }
    buf
}

/// Reads a `magic, version, vertex count, edge count` header.
fn read_header(
    buf: &mut ByteReader<'_>,
    magic: u32,
    version: u32,
) -> Result<(u64, u64), SnapshotError> {
    let found = buf.u32()?;
    if found != magic {
        return Err(SnapshotError::BadMagic(found));
    }
    let found = buf.u32()?;
    if found != version {
        return Err(SnapshotError::BadVersion(found));
    }
    Ok((buf.u64()?, buf.u64()?))
}

fn decode(raw: &[u8]) -> Result<(DynamicGraph, PeelingState), SnapshotError> {
    let mut buf = ByteReader::new(raw);
    let (n, m) = read_header(&mut buf, MAGIC, VERSION)?;
    let n = buf.count(n, 8, "truncated vertex table")?;
    let mut graph = DynamicGraph::with_capacity(n);
    for _ in 0..n {
        graph.add_vertex(buf.f64()?)?;
    }
    // 4 (src) + 4 (dst) + 8 (weight) bytes per edge.
    let m = buf.count(m, 16, "truncated edge table")?;
    for _ in 0..m {
        let src = VertexId(buf.u32()?);
        let dst = VertexId(buf.u32()?);
        let w = buf.f64()?;
        graph.insert_edge(src, dst, w)?;
    }
    let len = buf.u64()?;
    if len != n as u64 {
        return Err(SnapshotError::Corrupt("peeling state does not cover the vertex set"));
    }
    let len = buf.count(len, 12, "truncated peeling state")?;
    // Rebuild via logical order (PeelingOutcome is logical-first).
    let mut order = Vec::with_capacity(len);
    let mut weights = Vec::with_capacity(len);
    for _ in 0..len {
        order.push(VertexId(buf.u32()?));
        weights.push(buf.f64()?);
    }
    order.reverse();
    weights.reverse();
    for u in &order {
        if !graph.contains_vertex(*u) {
            return Err(SnapshotError::Corrupt("peeling state references unknown vertex"));
        }
    }
    let outcome = PeelingOutcome {
        order,
        weights,
        best_prefix: 0,
        best_density: 0.0,
        total_weight: graph.total_weight(),
    };
    let state = PeelingState::from_outcome(&outcome);
    if state.len() != graph.num_vertices() {
        return Err(SnapshotError::Corrupt("duplicate vertices in peeling state"));
    }
    Ok((graph, state))
}

/// A self-contained slice of a transaction graph: explicit (sparse,
/// global) vertex ids with their suspiciousness weights, plus every edge
/// of the induced subgraph.
///
/// Unlike the full-engine snapshot above — dense ids, peeling state
/// included — a subgraph carries no peeling state: the consumer re-peels
/// whatever union of subgraphs it assembles. It is the state-handoff unit
/// of the sharded runtime: a shard's candidate region for the cross-shard
/// repair pass (`crate::shard::repair`). In process it travels as this value;
/// only the `spade-net` wire codec turns it into bytes
/// ([`encode_into`](Self::encode_into)) and back
/// ([`decode`](Self::decode)).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SubgraphSnapshot {
    /// Vertices as `(global id, vertex suspiciousness a_u)`, sorted by id.
    pub vertices: Vec<(VertexId, f64)>,
    /// Directed edges `(src, dst, accumulated suspiciousness)`; both
    /// endpoints are members of `vertices`.
    pub edges: Vec<(VertexId, VertexId, f64)>,
}

impl SubgraphSnapshot {
    /// Extracts the induced subgraph over `seeds` expanded by `hops`
    /// breadth-first steps (both edge directions): the vertex set is
    /// `seeds ∪ N^hops(seeds)`, the edge set is every edge of `graph`
    /// with both endpoints inside. `hops = 0` exports exactly the seeds'
    /// induced subgraph; each extra hop pulls in one ring of boundary
    /// structure so a repair union can stitch communities that only touch
    /// through frontier vertices.
    pub fn extract(graph: &DynamicGraph, seeds: &[VertexId], hops: usize) -> SubgraphSnapshot {
        let mut member: FxHashSet<u32> = FxHashSet::default();
        let mut frontier: Vec<VertexId> = Vec::new();
        for &s in seeds {
            if graph.contains_vertex(s) && member.insert(s.0) {
                frontier.push(s);
            }
        }
        let mut next: Vec<VertexId> = Vec::new();
        for _ in 0..hops {
            for &u in &frontier {
                for nb in graph.neighbors(u) {
                    if member.insert(nb.v.0) {
                        next.push(nb.v);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        // Canonical order: sorted by id, so equal regions encode equal
        // bytes regardless of discovery order.
        let mut ids: Vec<u32> = member.iter().copied().collect();
        ids.sort_unstable();
        let mut vertices = Vec::with_capacity(ids.len());
        let mut edges = Vec::new();
        for &id in &ids {
            let u = VertexId(id);
            vertices.push((u, graph.vertex_weight(u)));
            for nb in graph.out_neighbors(u) {
                if member.contains(&nb.v.0) {
                    edges.push((u, nb.v, nb.w));
                }
            }
        }
        SubgraphSnapshot { vertices, edges }
    }

    /// Bytes [`encode`](Self::encode) writes: a 24-byte header, 12 per
    /// vertex, 16 per edge.
    pub fn encoded_len(&self) -> usize {
        24 + self.vertices.len() * 12 + self.edges.len() * 16
    }

    /// Serializes the subgraph with the same length-prefixed
    /// little-endian layout as the engine snapshot.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends [`encode`](Self::encode)'s bytes to `buf`, in place.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.encoded_len());
        buf.put_u32_le(SUBGRAPH_MAGIC);
        buf.put_u32_le(SUBGRAPH_VERSION);
        buf.put_u64_le(self.vertices.len() as u64);
        buf.put_u64_le(self.edges.len() as u64);
        for &(u, w) in &self.vertices {
            buf.put_u32_le(u.0);
            buf.put_f64_le(w);
        }
        for &(src, dst, w) in &self.edges {
            buf.put_u32_le(src.0);
            buf.put_u32_le(dst.0);
            buf.put_f64_le(w);
        }
    }

    /// Decodes a subgraph produced by [`encode`](Self::encode), verifying
    /// structure: magic/version, section lengths, id order, that every
    /// edge endpoint is a member vertex, and that `raw` ends at the last
    /// edge — so a decoded value re-encodes to exactly `raw`.
    pub fn decode(raw: &[u8]) -> Result<SubgraphSnapshot, SnapshotError> {
        let mut buf = ByteReader::new(raw);
        let (n, m) = read_header(&mut buf, SUBGRAPH_MAGIC, SUBGRAPH_VERSION)?;
        let n = buf.count(n, 12, "truncated subgraph vertex table")?;
        let mut vertices = Vec::with_capacity(n);
        let mut member: FxHashSet<u32> = FxHashSet::default();
        let mut last: Option<u32> = None;
        for _ in 0..n {
            let id = buf.u32()?;
            let w = buf.f64()?;
            if last.is_some_and(|prev| prev >= id) {
                return Err(SnapshotError::Corrupt("subgraph vertices out of order"));
            }
            last = Some(id);
            member.insert(id);
            vertices.push((VertexId(id), w));
        }
        let m = buf.count(m, 16, "truncated subgraph edge table")?;
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let src = buf.u32()?;
            let dst = buf.u32()?;
            let w = buf.f64()?;
            if !member.contains(&src) || !member.contains(&dst) {
                return Err(SnapshotError::Corrupt("subgraph edge references unknown vertex"));
            }
            edges.push((VertexId(src), VertexId(dst), w));
        }
        if !buf.rest().is_empty() {
            return Err(SnapshotError::Corrupt("trailing bytes after subgraph edge table"));
        }
        Ok(SubgraphSnapshot { vertices, edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::WeightedDensity;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn build_engine() -> SpadeEngine<WeightedDensity> {
        // Deliberately edge-heavy relative to the vertex count so the
        // decoder's per-section length checks are exercised with no slack
        // from later sections.
        let mut e = SpadeEngine::new(WeightedDensity);
        for a in 0..24u32 {
            for b in 0..24u32 {
                if a != b {
                    e.insert_edge(v(a), v(b), (a + b + 1) as f64).unwrap();
                }
            }
        }
        e.insert_edge(v(30), v(2), 3.5).unwrap();
        e
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let mut original = build_engine();
        let det_before = original.detect();
        let mut bytes = Vec::new();
        save_engine(&original, &mut bytes).unwrap();

        let mut restored =
            load_engine(WeightedDensity, SpadeConfig::default(), bytes.as_slice()).unwrap();
        assert_eq!(restored.graph().num_vertices(), original.graph().num_vertices());
        assert_eq!(restored.graph().num_edges(), original.graph().num_edges());
        assert_eq!(restored.state().logical_order(), original.state().logical_order());
        let det_after = restored.detect();
        assert_eq!(det_before.size, det_after.size);
        assert!((det_before.density - det_after.density).abs() < 1e-12);
        restored.state().validate_greedy(restored.graph(), 1e-9);
    }

    #[test]
    fn restored_engine_keeps_streaming_incrementally() {
        let original = build_engine();
        let mut bytes = Vec::new();
        save_engine(&original, &mut bytes).unwrap();
        let mut restored =
            load_engine(WeightedDensity, SpadeConfig::default(), bytes.as_slice()).unwrap();
        restored.insert_edge(v(8), v(9), 42.0).unwrap();
        restored.delete_edge(v(7), v(2)).unwrap();
        assert_eq!(restored.state().logical_order(), crate::peel::peel(restored.graph()).order);
    }

    #[test]
    fn rejects_garbage() {
        let garbage = vec![0u8; 64];
        let err = load_engine(WeightedDensity, SpadeConfig::default(), garbage.as_slice());
        assert!(matches!(err, Err(SnapshotError::BadMagic(_))));

        let mut short = Vec::new();
        save_engine(&build_engine(), &mut short).unwrap();
        short.truncate(short.len() - 10);
        let err = load_engine(WeightedDensity, SpadeConfig::default(), short.as_slice());
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = Vec::new();
        save_engine(&build_engine(), &mut bytes).unwrap();
        bytes[4] = 99; // clobber version
        let err = load_engine(WeightedDensity, SpadeConfig::default(), bytes.as_slice());
        assert!(matches!(err, Err(SnapshotError::BadVersion(99))));
    }

    #[test]
    fn empty_engine_roundtrip() {
        let original: SpadeEngine<WeightedDensity> = SpadeEngine::new(WeightedDensity);
        let mut bytes = Vec::new();
        save_engine(&original, &mut bytes).unwrap();
        let mut restored =
            load_engine(WeightedDensity, SpadeConfig::default(), bytes.as_slice()).unwrap();
        assert_eq!(restored.detect(), crate::state::Detection::EMPTY);
    }

    /// A path 0-1-2-3 plus a detached heavy pair (8, 9).
    fn region_graph() -> DynamicGraph {
        let mut g = DynamicGraph::new();
        g.ensure_vertex(v(9));
        for i in 0..4u32 {
            g.set_vertex_weight(v(i), 0.5 * i as f64).unwrap();
        }
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        g.insert_edge(v(1), v(2), 2.0).unwrap();
        g.insert_edge(v(2), v(3), 3.0).unwrap();
        g.insert_edge(v(8), v(9), 50.0).unwrap();
        g
    }

    #[test]
    fn subgraph_extract_respects_hop_budget() {
        let g = region_graph();
        let zero = SubgraphSnapshot::extract(&g, &[v(1)], 0);
        assert_eq!(zero.vertices.len(), 1);
        assert!(zero.edges.is_empty());

        let one = SubgraphSnapshot::extract(&g, &[v(1)], 1);
        let ids: Vec<u32> = one.vertices.iter().map(|&(u, _)| u.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(one.edges.len(), 2, "induced edges of {{0,1,2}}");

        let two = SubgraphSnapshot::extract(&g, &[v(1)], 2);
        let ids: Vec<u32> = two.vertices.iter().map(|&(u, _)| u.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(two.edges.len(), 3);
        // The detached pair never enters any hop expansion of vertex 1.
        assert!(two.vertices.iter().all(|&(u, _)| u.0 < 8));
    }

    #[test]
    fn subgraph_snapshot_roundtrip_is_exact() {
        let g = region_graph();
        let snap = SubgraphSnapshot::extract(&g, &[v(1), v(8)], 1);
        let decoded = SubgraphSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        // Vertex weights and edge weights survive bit-exactly.
        assert!(decoded.vertices.iter().any(|&(u, w)| u == v(1) && w == 0.5));
        assert!(decoded.edges.iter().any(|&(s, d, w)| s == v(8) && d == v(9) && w == 50.0));
    }

    #[test]
    fn subgraph_decode_rejects_malformed_bytes() {
        let g = region_graph();
        let snap = SubgraphSnapshot::extract(&g, &[v(1)], 1);
        let bytes = snap.encode();

        assert_eq!(bytes.len(), snap.encoded_len());
        let err = SubgraphSnapshot::decode(&bytes[..bytes.len() - 4]);
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(SubgraphSnapshot::decode(&trailing), Err(SnapshotError::Corrupt(_))));

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(SubgraphSnapshot::decode(&wrong_magic), Err(SnapshotError::BadMagic(_))));

        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            SubgraphSnapshot::decode(&wrong_version),
            Err(SnapshotError::BadVersion(99))
        ));

        // An edge referencing a vertex outside the member table: corrupt
        // the src id of the first edge (offset: header 24 + 3 vertices
        // of 12 bytes).
        let mut dangling = bytes.clone();
        let edge_off = 24 + 3 * 12;
        dangling[edge_off..edge_off + 4].copy_from_slice(&77u32.to_le_bytes());
        assert!(matches!(SubgraphSnapshot::decode(&dangling), Err(SnapshotError::Corrupt(_))));

        // A crafted vertex count whose byte-size multiplication wraps
        // must fail the section check, not crash on allocation.
        let mut huge_count = bytes.clone();
        huge_count[8..16].copy_from_slice(&0x4000_0000_0000_0001u64.to_le_bytes());
        assert!(matches!(SubgraphSnapshot::decode(&huge_count), Err(SnapshotError::Corrupt(_))));
    }
}
