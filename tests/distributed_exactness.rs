//! The multi-process half of the `cross-shard-exactness` CI gate.
//!
//! A router drives N ∈ {2, 4} **real shard-server child processes**
//! (`shardd`, one detection engine each) over the wire protocol:
//! hash-routed ingest with replicated journaling, then the cross-shard
//! repair pass pulled over `Region` frames. The repaired detection must
//! equal the solo engine — same members, same density — exactly as the
//! in-process and single-server TCP gates prove for their topologies.
//! Accounting is exact at shutdown: the router's acked count equals the
//! shards' applied-update total (no acknowledged edge lost, none
//! double-applied).

mod distributed_harness;

use distributed_harness::{seeded_injected_stream, solo_detection, ShardProc};
use spade::graph::VertexId;
use spade::net::{RouterConfig, SpadeRouter};

fn assert_distributed_exactness(num_shards: usize) {
    let edges: Vec<(VertexId, VertexId, f64)> =
        seeded_injected_stream().iter().map(|e| (e.src, e.dst, e.raw)).collect();
    let (want_size, want_density, want_members) = solo_detection(&edges);
    assert!(want_size > 0, "the seeded dataset must contain a detectable community");

    let mut shards: Vec<ShardProc> = (0..num_shards).map(|_| ShardProc::spawn()).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let mut router = SpadeRouter::connect(&addrs, RouterConfig::default()).expect("connect router");

    for &(src, dst, raw) in &edges {
        router.submit(src, dst, raw).expect("submit");
    }
    router.flush_batches().expect("flush");
    let stats = router.stats();
    assert_eq!(stats.edges_submitted, edges.len() as u64);
    assert_eq!(stats.edges_acked, edges.len() as u64, "every edge must be acknowledged");
    assert_eq!(stats.deferred_batches, 0, "no shard died; nothing may defer");

    // The premise: hash routing across processes dilutes the community…
    let outcome = router.repair().expect("repair");
    assert!(
        outcome.baseline_density < want_density * (1.0 - 1e-9),
        "N={num_shards}: expected dilution, got baseline {} vs solo {}",
        outcome.baseline_density,
        want_density
    );
    // …and the over-the-wire repair pass recovers solo exactness.
    let got: Vec<u32> = outcome.members.iter().map(|m| m.0).collect();
    assert_eq!(got, want_members, "N={num_shards}: repaired members diverge from solo");
    assert_eq!(outcome.size, want_size, "N={num_shards}: size mismatch");
    assert!(
        (outcome.density - want_density).abs() < 1e-9,
        "N={num_shards}: repaired density {} vs solo {}",
        outcome.density,
        want_density
    );

    // acked == applied: each edge landed in exactly one live engine.
    let applied: u64 = router
        .shard_stats()
        .expect("shard stats")
        .into_iter()
        .map(|s| s.expect("every shard is live").updates_applied)
        .sum();
    assert_eq!(applied, stats.edges_acked, "N={num_shards}: acked-edge count != applied total");

    router.shutdown_shards().expect("shutdown");
    for shard in &mut shards {
        shard.wait();
    }
    println!(
        "N={num_shards}: {} edges across {num_shards} processes, diluted {:.3} repaired to \
         {:.3} (solo {:.3}, {} members)",
        stats.edges_acked, outcome.baseline_density, outcome.density, want_density, want_size,
    );
}

#[test]
fn router_and_2_shard_processes_recover_solo_exactness() {
    assert_distributed_exactness(2);
}

#[test]
fn router_and_4_shard_processes_recover_solo_exactness() {
    assert_distributed_exactness(4);
}
