//! Fan-in fairness half of the `cross-shard-exactness` CI job.
//!
//! One firehose producer (deep pipeline, large batches, submitting as
//! fast as the socket accepts) shares a single reactor event loop with
//! 8 drip producers (one edge per round trip). The drain-budget rotation
//! must keep the drips serviced: every drip edge is acknowledged, no
//! ack waits out a full drain cycle unserviced, and acked == applied
//! holds after the drain. The solo and contended ack p99 are printed,
//! not gated: on a small host the firehose, eight drips, two shard
//! workers and the event loop time-share the cores, so the ratio is
//! scheduler noise — the test catches starvation (lost or seconds-long
//! acks), the `bench_stack` ledger carries the latency numbers.

use spade::core::WeightedDensity;
use spade::graph::VertexId;
use spade::net::{ClientConfig, ReactorConfig, SpadeNetClient, SpadeNetServer};
use spade::shard::{PartitionStrategy, ShardedConfig, ShardedSpadeService};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Edges each drip producer pushes, one ack round trip at a time.
const DRIP_EDGES: u32 = 120;
/// No single drip ack may wait longer than this — a connection going
/// unserviced for a full drain cycle shows up here first.
const MAX_ACK_WAIT: Duration = Duration::from_secs(5);

fn spawn_server(shards: usize) -> (Arc<ShardedSpadeService>, SpadeNetServer) {
    let service = Arc::new(ShardedSpadeService::spawn(
        WeightedDensity,
        ShardedConfig {
            shards,
            queue_capacity: 8192,
            strategy: PartitionStrategy::HashBySource,
            ..Default::default()
        },
    ));
    // One event-loop worker on purpose: fairness must come from the
    // frame budget and service rotation, not from the pool absorbing
    // the firehose on another thread.
    let server = SpadeNetServer::bind_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        ReactorConfig { workers: 1, frame_budget: 16 },
    )
    .expect("bind");
    (service, server)
}

/// One drip producer: single-edge batches, one ack round trip per
/// edge. Returns per-edge ack latencies (submit → every ack drained).
fn drip(addr: std::net::SocketAddr, base: u32) -> (Vec<Duration>, u64) {
    let mut client = SpadeNetClient::connect_with(
        addr,
        ClientConfig { batch: 1, pipeline: 1, ..Default::default() },
    )
    .expect("drip connect");
    let mut latencies = Vec::with_capacity(DRIP_EDGES as usize);
    for i in 0..DRIP_EDGES {
        let started = Instant::now();
        client.submit(VertexId(base + i), VertexId(base + i + 1), 2.0).expect("submit");
        client.drain().expect("drain");
        latencies.push(started.elapsed());
    }
    let stats = client.finish().expect("finish");
    (latencies, stats.edges_acked)
}

fn p99(latencies: &mut [Duration]) -> Duration {
    latencies.sort_unstable();
    latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)]
}

#[test]
fn a_firehose_cannot_starve_drip_producers() {
    // Solo baseline: one drip on an otherwise idle server.
    let (service, server) = spawn_server(2);
    let (mut solo_lat, solo_acked) = drip(server.local_addr(), 1_000);
    assert_eq!(solo_acked, u64::from(DRIP_EDGES));
    let solo_p99 = p99(&mut solo_lat);
    server.shutdown();
    drop(Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared")).shutdown());

    // Contended run: 1 firehose + 8 drips on one event loop.
    let (service, server) = spawn_server(2);
    let addr = server.local_addr();
    let stop_firehose = Arc::new(AtomicBool::new(false));
    let firehose = {
        let stop = Arc::clone(&stop_firehose);
        std::thread::spawn(move || {
            let mut client = SpadeNetClient::connect_with(
                addr,
                ClientConfig { batch: 256, pipeline: 16, ..Default::default() },
            )
            .expect("firehose connect");
            let mut i = 0u32;
            while !stop.load(Ordering::Acquire) {
                // A compact id range disjoint from every drip. Ids must
                // stay small: the graph is dense over raw vertex ids
                // (`ensure_vertex` materializes every implied lower id),
                // so a sparse multi-million id would turn the first
                // apply into an O(max id) vertex bootstrap and stall
                // the shard workers for the whole test.
                let src = i % 2048;
                client.submit(VertexId(src), VertexId(4096 + src), 1.0).expect("submit");
                i += 1;
            }
            client.finish().expect("firehose finish")
        })
    };

    let drips: Vec<_> =
        (0..8u32).map(|d| std::thread::spawn(move || drip(addr, 10_000 + d * 1_000))).collect();
    let mut worst_p99 = Duration::ZERO;
    let mut worst_ack = Duration::ZERO;
    for (d, handle) in drips.into_iter().enumerate() {
        let (mut latencies, acked) = handle.join().expect("drip thread");
        // Starvation would first show up as lost acks: drain() returns
        // only once the server has acknowledged every edge.
        assert_eq!(acked, u64::from(DRIP_EDGES), "drip {d}: every edge must be acknowledged");
        let max = *latencies.iter().max().expect("non-empty");
        worst_ack = worst_ack.max(max);
        worst_p99 = worst_p99.max(p99(&mut latencies));
    }
    stop_firehose.store(true, Ordering::Release);
    let firehose_stats = firehose.join().expect("firehose thread");

    // No p99 bound here: the latency claim belongs to the bench ledger, and the
    // structural fairness assertion arrives with admission-by-credit (ROADMAP D3).
    assert!(
        worst_ack <= MAX_ACK_WAIT,
        "an ack waited {worst_ack:?} — a connection went unserviced"
    );

    // The reactor's per-loop series are live in the merged exposition.
    let mut probe = SpadeNetClient::connect(addr).expect("probe connect");
    let exposition = probe.server_metrics().expect("metrics").exposition;
    for series in [
        "spade_net_reactor_wakeups_total",
        "spade_net_reactor_connections_resident",
        "spade_net_reactor_dispatch_ns_count",
        "spade_net_reactor_budget_exhausted_total",
    ] {
        assert!(exposition.contains(series), "missing reactor series {series}:\n{exposition}");
    }
    drop(probe);

    // Acked == applied survives the contended run.
    let total_acked = firehose_stats.edges_acked + 8 * u64::from(DRIP_EDGES);
    assert!(service.barrier(), "a shard shut down while draining");
    let applied: u64 = service.stats().iter().map(|s| s.service.updates_applied).sum();
    assert_eq!(applied, total_acked, "an acknowledged edge was lost");
    let net = server.shutdown();
    assert_eq!(net.edges_accepted, total_acked);
    assert_eq!(net.malformed_frames, 0);
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    let global = service.shutdown();
    assert_eq!(global.total_updates, total_acked);
    println!(
        "fairness: solo p99 {solo_p99:?}, contended worst p99 {worst_p99:?}, \
         worst ack {worst_ack:?}, firehose acked {}",
        firehose_stats.edges_acked
    );
}
