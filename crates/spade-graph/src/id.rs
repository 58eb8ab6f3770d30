//! Vertex and edge identifiers.
//!
//! Vertices are dense `u32` indices so that per-vertex state (weights,
//! peeling positions, colors) can live in flat arrays — the hot loops of the
//! peeling algorithms never touch a hash table keyed by vertex. Datasets
//! with external string labels map them through [`crate::io::Interner`].

use std::fmt;

/// A dense vertex identifier.
///
/// `VertexId` wraps a `u32`, which bounds graphs at ~4.29 billion vertices —
/// far beyond the paper's largest dataset (Grab4: 6.02M vertices) — while
/// halving the memory footprint of adjacency lists compared to `usize`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Returns the identifier as a `usize` index for flat-array addressing.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `VertexId` from a `usize` index.
    ///
    /// # Panics
    /// Panics if `index` exceeds `u32::MAX`.
    #[inline(always)]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "vertex index overflows u32");
        VertexId(index as u32)
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(raw: u32) -> Self {
        VertexId(raw)
    }
}

impl From<VertexId> for u32 {
    #[inline]
    fn from(id: VertexId) -> Self {
        id.0
    }
}

/// A directed edge reference `(src, dst)`.
///
/// `EdgeRef` identifies an edge by its endpoints; parallel transactions
/// between the same ordered pair are accumulated into a single weighted edge
/// (see [`crate::DynamicGraph::insert_edge`]), so the pair is a unique key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeRef {
    /// Source endpoint (e.g. the paying customer).
    pub src: VertexId,
    /// Destination endpoint (e.g. the merchant).
    pub dst: VertexId,
}

impl EdgeRef {
    /// Creates an edge reference from endpoints.
    #[inline]
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        EdgeRef { src, dst }
    }

    /// Packs both endpoints into a single `u64` key (used for hashing).
    #[inline(always)]
    pub fn packed(self) -> u64 {
        ((self.src.0 as u64) << 32) | self.dst.0 as u64
    }

    /// Returns the opposite endpoint of `v`, if `v` is an endpoint.
    #[inline]
    pub fn other(self, v: VertexId) -> Option<VertexId> {
        if v == self.src {
            Some(self.dst)
        } else if v == self.dst {
            Some(self.src)
        } else {
            None
        }
    }
}

impl fmt::Debug for EdgeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} -> {})", self.src, self.dst)
    }
}

impl From<(u32, u32)> for EdgeRef {
    #[inline]
    fn from((s, d): (u32, u32)) -> Self {
        EdgeRef::new(VertexId(s), VertexId(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(VertexId::from(42u32), v);
    }

    #[test]
    fn vertex_id_ordering_matches_raw() {
        assert!(VertexId(1) < VertexId(2));
        assert!(VertexId(100) > VertexId(99));
    }

    #[test]
    fn edge_ref_packed_is_injective_on_distinct_pairs() {
        let a = EdgeRef::from((1, 2));
        let b = EdgeRef::from((2, 1));
        assert_ne!(a.packed(), b.packed());
        assert_ne!(a, b);
    }

    #[test]
    fn edge_ref_other_endpoint() {
        let e = EdgeRef::from((3, 7));
        assert_eq!(e.other(VertexId(3)), Some(VertexId(7)));
        assert_eq!(e.other(VertexId(7)), Some(VertexId(3)));
        assert_eq!(e.other(VertexId(5)), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", VertexId(9)), "9");
        assert_eq!(format!("{:?}", VertexId(9)), "v9");
        assert_eq!(format!("{:?}", EdgeRef::from((1, 2))), "(1 -> 2)");
    }
}
