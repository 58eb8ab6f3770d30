//! Network ingest replay: concurrent TCP producers feeding one server.
//!
//! The production shape of the transport front end: a `SpadeNetServer`
//! wraps the hash-routed sharded runtime on a loopback socket, four
//! producer threads each connect a `SpadeNetClient` and replay an
//! interleaved slice of a Zipf marketplace stream with an injected fraud
//! burst — batched and pipelined — and a moderator
//! reads the detection back over the same wire. At the end the
//! cross-shard repair pass is compared against a solo engine fed the
//! identical stream: the answer must match member-for-member.
//!
//! Run with: `cargo run --release --example net_ingest`

use spade::core::{SpadeEngine, WeightedDensity};
use spade::gen::fraud::{FraudInjector, FraudInjectorConfig};
use spade::gen::transactions::{TransactionStream, TransactionStreamConfig};
use spade::graph::VertexId;
use spade::net::{ClientConfig, SpadeNetClient, SpadeNetServer};
use spade::shard::{PartitionStrategy, ShardedConfig, ShardedSpadeService};
use std::sync::Arc;
use std::time::Instant;

const PRODUCERS: usize = 4;

fn main() {
    // The workload: a seeded marketplace stream with one injected
    // collusion burst per fraud pattern.
    let base = TransactionStream::generate(&TransactionStreamConfig {
        customers: 2_000,
        merchants: 600,
        transactions: 30_000,
        seed: 77,
        ..Default::default()
    });
    let injected = FraudInjector::inject(
        &base,
        &FraudInjectorConfig {
            instances_per_pattern: 1,
            transactions_per_instance: 250,
            amount: 500.0,
            seed: 77,
            ..Default::default()
        },
    );
    let edges: Vec<(VertexId, VertexId, f64)> =
        injected.edges.iter().map(|e| (e.src, e.dst, e.raw)).collect();
    println!("stream: {} transactions, {PRODUCERS} TCP producers", edges.len());

    // Ground truth: one engine over the whole stream.
    let mut solo = SpadeEngine::new(WeightedDensity);
    for &(a, b, w) in &edges {
        let _ = solo.insert_edge(a, b, w);
    }
    let want = solo.detect();
    let mut want_members: Vec<u32> = solo.community(want).iter().map(|m| m.0).collect();
    want_members.sort_unstable();

    // The server: 4 hash-routed shards behind a loopback listener.
    let service = Arc::new(ShardedSpadeService::spawn(
        WeightedDensity,
        ShardedConfig {
            shards: 4,
            queue_capacity: 4096,
            strategy: PartitionStrategy::HashBySource,
            ..Default::default()
        },
    ));
    let server = SpadeNetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    println!("listening on {addr} (4 shards, hash routing)");

    // Producers: each replays edges[i], i ≡ p (mod PRODUCERS).
    let started = Instant::now();
    let workers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let slice: Vec<(VertexId, VertexId, f64)> =
                edges.iter().skip(p).step_by(PRODUCERS).copied().collect();
            std::thread::spawn(move || {
                let mut client = SpadeNetClient::connect_with(
                    addr,
                    ClientConfig { batch: 256, pipeline: 16, ..Default::default() },
                )
                .expect("producer connect");
                for (src, dst, raw) in slice {
                    client.submit(src, dst, raw).expect("submit");
                }
                client.finish().expect("flush")
            })
        })
        .collect();
    let acked: u64 =
        workers.into_iter().map(|w| w.join().expect("producer thread").edges_acked).sum();
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "replayed {acked} edges in {:.1} ms ({:.0} tx/s across {PRODUCERS} producers)",
        elapsed * 1e3,
        acked as f64 / elapsed.max(1e-9),
    );

    // A moderator connection reads the live state over the wire.
    let mut moderator = SpadeNetClient::connect(addr).expect("moderator connect");
    let det = moderator.detect().expect("detect");
    println!(
        "wire detection: {} members, density {:.3} ({} updates applied)",
        det.size, det.density, det.updates_applied,
    );
    let stats = moderator.server_stats().expect("stats");
    println!(
        "server counters: {} connections, {} frames, {} edges acked, {} parked frames",
        stats.connections, stats.frames, stats.edges_accepted, stats.busy_replies,
    );
    moderator.shutdown_server().expect("shutdown frame");
    server.shutdown();

    // Exactness: the repair pass over the server-fed shards recovers the
    // solo answer, concurrent interleaving and all.
    let repaired = service.repair();
    let mut got: Vec<u32> = repaired.detection.members.iter().map(|m| m.0).collect();
    got.sort_unstable();
    println!(
        "repair: best shard density {:.3} -> repaired {:.3} (solo {:.3})",
        repaired.baseline_density, repaired.detection.density, want.density,
    );
    assert_eq!(got, want_members, "server-fed repaired members diverge from solo");
    assert!((repaired.detection.density - want.density).abs() < 1e-9);
    println!("server-fed detection matches the solo engine exactly ({} members)", want.size);

    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    service.shutdown();
}
