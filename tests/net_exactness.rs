//! The network half of the `cross-shard-exactness` CI gate.
//!
//! N concurrent TCP producers replay a seeded injected-fraud workload
//! into a [`SpadeNetServer`] wrapped around the hash-routed sharded
//! runtime; the cross-shard repair pass must recover the **exact**
//! solo-engine answer — same members, same density — just as it does for
//! in-process ingest. The producers interleave arbitrarily, so this also
//! pins down that detection is a function of the final edge multiset,
//! not of arrival order.
//!
//! The second half is the back-pressure contract: with a tiny shard
//! queue and a fast producer, frames must park on the server (and only
//! there — the producer sees nothing but late Acks), **no acknowledged
//! edge may be lost** — the sum of producer-side acked counts equals the
//! shards' applied-update total and (on an all-unique-pairs workload)
//! the resident edge count — and a producer's edges reach the engine in
//! the order it submitted them.

use spade::core::stream::StreamEdge;
use spade::core::{Fraudar, SpadeEngine, WeightedDensity};
use spade::gen::fraud::{FraudInjector, FraudInjectorConfig};
use spade::gen::transactions::{TransactionStream, TransactionStreamConfig};
use spade::graph::VertexId;
use spade::net::{ClientConfig, SpadeNetClient, SpadeNetServer};
use spade::shard::{PartitionStrategy, ShardedConfig, ShardedSpadeService};
use std::sync::Arc;

/// The seeded dataset: identical to the in-process repair gate, so the
/// two halves of the CI job compare the same ground truth.
fn seeded_injected_stream() -> Vec<StreamEdge> {
    let base = TransactionStream::generate(&TransactionStreamConfig {
        customers: 600,
        merchants: 200,
        transactions: 6_000,
        seed: 0xC1_5EED,
        ..Default::default()
    });
    let injected = FraudInjector::inject(
        &base,
        &FraudInjectorConfig {
            instances_per_pattern: 1,
            transactions_per_instance: 240,
            amount: 600.0,
            seed: 0xC1_5EED,
            ..Default::default()
        },
    );
    injected.edges
}

/// Solo-engine ground truth over the same stream.
fn solo_detection(edges: &[StreamEdge]) -> (usize, f64, Vec<u32>) {
    let mut solo = SpadeEngine::new(WeightedDensity);
    for e in edges {
        let _ = solo.insert_edge(e.src, e.dst, e.raw);
    }
    let det = solo.detect();
    let mut members: Vec<u32> = solo.community(det).iter().map(|m| m.0).collect();
    members.sort_unstable();
    (det.size, det.density, members)
}

fn assert_exact_with_producers(shards: usize, producers: usize) {
    let edges = seeded_injected_stream();
    let (want_size, want_density, want_members) = solo_detection(&edges);
    assert!(want_size > 0, "the seeded dataset must contain a detectable community");

    let service = Arc::new(ShardedSpadeService::spawn(
        WeightedDensity,
        ShardedConfig {
            shards,
            queue_capacity: 4096,
            strategy: PartitionStrategy::HashBySource,
            ..Default::default()
        },
    ));
    let server = SpadeNetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // N producers, each replaying an interleaved slice of the stream
    // over its own TCP connection, pipelined and batched.
    let workers: Vec<_> = (0..producers)
        .map(|p| {
            let slice: Vec<(VertexId, VertexId, f64)> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % producers == p)
                .map(|(_, e)| (e.src, e.dst, e.raw))
                .collect();
            std::thread::spawn(move || {
                let mut client = SpadeNetClient::connect_with(
                    addr,
                    ClientConfig { batch: 64, pipeline: 8, ..Default::default() },
                )
                .expect("producer connect");
                for (src, dst, raw) in slice {
                    client.submit(src, dst, raw).expect("submit");
                }
                client.finish().expect("flush")
            })
        })
        .collect();
    let acked: u64 = workers.into_iter().map(|w| w.join().expect("producer").edges_acked).sum();
    assert_eq!(acked, edges.len() as u64, "every edge must be acknowledged");

    // Every acked edge sits in a shard queue; the repair pass drains the
    // queues (region requests ride the same FIFO), so the repaired
    // snapshot covers the whole stream.
    assert!(service.barrier(), "a shard shut down while draining");
    let repaired = service.repair();

    // The premise: hash routing across TCP producers still dilutes.
    assert!(
        repaired.baseline_density < want_density * (1.0 - 1e-9),
        "N={shards}/P={producers}: expected dilution, got baseline {} vs solo {}",
        repaired.baseline_density,
        want_density
    );

    // The gate: server-fed repaired detection == solo, members + density.
    let got: Vec<u32> = repaired.detection.members.iter().map(|m| m.0).collect();
    assert_eq!(
        got, want_members,
        "N={shards}/P={producers}: repaired members diverge from the solo engine"
    );
    assert_eq!(repaired.detection.size, want_size, "N={shards}/P={producers}: size mismatch");
    assert!(
        (repaired.detection.density - want_density).abs() < 1e-9,
        "N={shards}/P={producers}: repaired density {} vs solo {}",
        repaired.detection.density,
        want_density
    );

    let net = server.shutdown();
    assert_eq!(net.connections, producers as u64);
    assert_eq!(net.edges_accepted, acked);
    assert_eq!(net.malformed_frames, 0);

    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    let global = service.shutdown();
    assert_eq!(global.total_updates, edges.len() as u64);
    println!(
        "N={shards}/P={producers}: {} edges over TCP, diluted {:.3} repaired to {:.3} \
         (solo {:.3}, {} members, {} parked frames)",
        acked,
        repaired.baseline_density,
        repaired.detection.density,
        want_density,
        want_size,
        net.busy_replies,
    );
}

#[test]
fn four_tcp_producers_feed_2_shards_to_solo_exactness() {
    assert_exact_with_producers(2, 4);
}

#[test]
fn four_tcp_producers_feed_4_shards_to_solo_exactness() {
    assert_exact_with_producers(4, 4);
}

#[test]
fn six_tcp_producers_feed_8_shards_to_solo_exactness() {
    assert_exact_with_producers(8, 6);
}

#[test]
fn back_pressure_surfaces_busy_and_loses_no_acknowledged_edge() {
    // A deliberately tiny shard queue with strict per-edge processing:
    // the worker is slow, the producer is fast and deeply pipelined, and
    // a 16-edge frame can never fit 2 × 2 free slots at once, so frames
    // MUST park — and every acknowledged edge must still land.
    let service = Arc::new(ShardedSpadeService::spawn(
        WeightedDensity,
        ShardedConfig {
            shards: 2,
            queue_capacity: 2,
            coalesce: 1,
            strategy: PartitionStrategy::HashBySource,
            ..Default::default()
        },
    ));
    let server = SpadeNetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = SpadeNetClient::connect_with(
        server.local_addr(),
        ClientConfig { batch: 16, pipeline: 16, ..Default::default() },
    )
    .expect("connect");

    // All-unique directed pairs (i -> i + 1000 + i): the resident edge
    // count equals the applied count, so graph-level accounting is
    // checkable too.
    let total = 3_000u32;
    for i in 0..total {
        client.submit(VertexId(i), VertexId(i + 10_000), 1.0 + (i % 13) as f64).expect("submit");
    }
    let stats = client.finish().expect("flush");
    assert_eq!(stats.edges_submitted, total as u64);
    assert_eq!(stats.edges_acked, total as u64, "flush must wait out every parked frame");

    let net_stats = server.stats();
    assert!(net_stats.busy_replies > 0, "a 16-edge frame cannot fit two 2-slot queues");
    assert_eq!(net_stats.edges_accepted, total as u64);

    // No acknowledged edge is dropped: the shards apply exactly the
    // acked count...
    assert!(service.barrier(), "a shard shut down while draining");
    let applied: u64 = service.stats().iter().map(|s| s.service.updates_applied).sum();
    assert_eq!(applied, stats.edges_acked);
    // ...and on this all-unique-pairs workload, every one is resident in
    // an engine graph.
    let resident: u64 = service.stats().iter().map(|s| s.service.edges_resident).sum();
    assert_eq!(resident, stats.edges_acked, "acked-edge count == engine edge count");

    server.shutdown();
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    let global = service.shutdown();
    assert_eq!(global.total_updates, total as u64);
}

#[test]
fn back_pressure_preserves_a_producers_submission_order() {
    // Fraudar weighs an edge by its destination's degree *at arrival*,
    // so the detection is a function of the order edges reach the engine.
    // One shard with a 2-slot queue parks every 16-edge frame several
    // times over; the engine must still see exactly the submitted order.
    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut x = 0x2545_F491u32;
    while edges.len() < 1_500 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let (src, dst) = ((x >> 8) % 200, 10_000 + (x >> 20) % 24);
        if seen.insert((src, dst)) {
            edges.push((VertexId(src), VertexId(dst), 1.0));
        }
    }
    let mut solo = SpadeEngine::new(Fraudar::new());
    for &(src, dst, raw) in &edges {
        solo.insert_edge(src, dst, raw).expect("solo insert");
    }
    let want = solo.detect();
    let mut want_members: Vec<u32> = solo.community(want).iter().map(|m| m.0).collect();
    want_members.sort_unstable();

    let service = Arc::new(ShardedSpadeService::spawn(
        Fraudar::new(),
        ShardedConfig { shards: 1, queue_capacity: 2, coalesce: 1, ..Default::default() },
    ));
    let server = SpadeNetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = SpadeNetClient::connect_with(
        server.local_addr(),
        ClientConfig { batch: 16, pipeline: 16, ..Default::default() },
    )
    .expect("connect");
    for &(src, dst, raw) in &edges {
        client.submit(src, dst, raw).expect("submit");
    }
    assert_eq!(client.finish().expect("flush").edges_acked, edges.len() as u64);
    assert!(server.shutdown().busy_replies > 0, "a 16-edge frame cannot fit a 2-slot queue");

    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    let global = service.shutdown();
    assert_eq!(global.total_updates, edges.len() as u64);
    let mut got: Vec<u32> = global.best.members.iter().map(|m| m.0).collect();
    got.sort_unstable();
    assert_eq!(got, want_members, "the engine saw the stream in a different order");
    assert!((global.best.density - want.density).abs() < 1e-9);
}
