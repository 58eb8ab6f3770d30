//! Edge-to-shard routing.
//!
//! Spade's incremental reordering is local to a community (§4.2: an
//! insertion only perturbs the window between its endpoints), so the
//! transaction graph shards naturally — as long as a community's edges
//! land on the same shard, that shard's local detection is the global one.
//! [`HashPartitioner`] routes by an `fx`-hash of the source vertex:
//! perfectly balanced, O(1) and stateless, but a community whose members
//! span hash buckets is split across shards and its density diluted.
//! The cross-shard repair pass (`crate::shard::repair`) puts such a
//! community back together at read time.

use spade_graph::hash::FxHasher;
use spade_graph::VertexId;
use std::hash::Hasher;

/// Routes one edge to a shard in `[0, num_shards)`.
///
/// `route` takes `&mut self` so a policy may learn the graph as it
/// streams. Implementations must be deterministic per input history —
/// replaying a stream must reproduce the same routing.
pub trait Partitioner: Send {
    /// The shard that must process edge `(src, dst)`.
    fn route(&mut self, src: VertexId, dst: VertexId, num_shards: usize) -> usize;
}

/// Built-in routing policies, as configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Stateless hash of the source vertex id ([`HashPartitioner`]).
    #[default]
    HashBySource,
}

/// Stateless hash-by-source routing.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    #[inline]
    fn route(&mut self, src: VertexId, _dst: VertexId, num_shards: usize) -> usize {
        let mut h = FxHasher::default();
        h.write_u32(src.0);
        (h.finish() % num_shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn hash_routing_is_deterministic_and_in_range() {
        let mut p = HashPartitioner;
        for i in 0..100u32 {
            let a = p.route(v(i), v(i + 1), 8);
            let b = p.route(v(i), v(i + 7), 8);
            assert_eq!(a, b, "route depends only on the source");
            assert!(a < 8);
        }
    }

    #[test]
    fn hash_routing_spreads_sources() {
        let mut p = HashPartitioner;
        let mut counts = [0usize; 4];
        for i in 0..4000u32 {
            counts[p.route(v(i), v(0), 4)] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "a shard starved: {counts:?}");
        }
    }
}
