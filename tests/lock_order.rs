//! The `lock-order-audit` CI gate.
//!
//! Built only with `--features lock-audit`, which switches the vendored
//! `parking_lot`/`crossbeam` shims into their lockdep-style audit mode:
//! every lock belongs to a class keyed by its creation site, every
//! acquisition records held-before edges into a global class-order
//! graph, and any edge closing a directed cycle is reported as a
//! potential deadlock.
//!
//! The suite drives the real runtime paths — solo service ingest,
//! sharded submit/batch/repair/migration, the reactor-backed TCP front
//! end, and a router over two shard servers on the same reactor — and
//! asserts the resulting order graph is **acyclic**
//! (excluding classes this file creates on purpose). It then seeds a
//! deliberate two-lock inversion and asserts the audit provably flags
//! it, and checks the crossbeam channel mutex participates in the same
//! graph as the parking_lot locks.
//!
//! Run single-threaded (`--test-threads=1`) in CI: the graph is
//! process-global, and serial execution keeps report attribution
//! deterministic.

#![cfg(feature = "lock-audit")]

use parking_lot::audit;
use spade::core::service::SpadeService;
use spade::core::{SpadeEngine, WeightedDensity};
use spade::graph::VertexId;
use spade::net::{
    RouterConfig, ShardServer, ShardServerConfig, SpadeNetClient, SpadeNetServer, SpadeRouter,
};
use spade::shard::{PartitionStrategy, ShardedConfig, ShardedSpadeService};
use std::sync::Arc;

/// Classes created by this file (the seeded inversion and the channel
/// fixture) are excluded from the global acyclicity assertion.
const SELF: &str = "lock_order";

#[test]
fn real_runtime_paths_produce_an_acyclic_order_graph() {
    // Solo service: submit, batch, flush, region export, shutdown.
    let service = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 256);
    for i in 0..50u32 {
        assert!(service.submit(VertexId(i), VertexId(i + 1), 1.0));
    }
    let batch: Vec<_> = (50..80u32).map(|i| (VertexId(i), VertexId(i + 1), 1.0)).collect();
    assert!(service.submit_batch(batch, None));
    assert!(service.flush());
    assert!(service.candidate_region(2).is_some());
    let _ = service.current_detection();
    let _ = service.stats();
    let _ = service.metrics();
    let _ = service.shutdown();

    // Sharded runtime: connectivity routing (router table lock), batch
    // submit, cross-shard repair, and a migration pass.
    let sharded = ShardedSpadeService::spawn(
        WeightedDensity,
        ShardedConfig {
            shards: 4,
            queue_capacity: 1024,
            strategy: PartitionStrategy::ConnectivityWithSpill { max_component: 256 },
            ..Default::default()
        },
    );
    for i in 0..200u32 {
        assert!(sharded.submit(VertexId(i % 37), VertexId(i % 53 + 40), 1.0));
    }
    let batch: Vec<_> = (0..100u32).map(|i| (VertexId(i), VertexId(i + 7), 2.0)).collect();
    let accepted = sharded.submit_batch(&batch, None);
    assert!(!accepted.closed);
    assert!(sharded.flush());
    let _ = sharded.repair();
    let _ = sharded.rebalance();
    let _ = sharded.stats();
    let _ = sharded.metrics();
    let _ = sharded.current_detection();
    let _ = sharded.shutdown();

    // Reactor front end: framed TCP ingest, detect, stats, shutdown.
    let service = Arc::new(ShardedSpadeService::spawn(
        WeightedDensity,
        ShardedConfig {
            shards: 2,
            queue_capacity: 1024,
            strategy: PartitionStrategy::HashBySource,
            ..Default::default()
        },
    ));
    let server = SpadeNetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut client = SpadeNetClient::connect(addr).expect("connect");
    for i in 0..100u32 {
        client.submit(VertexId(i), VertexId(i + 1), 1.0).expect("submit");
    }
    client.flush().expect("flush");
    let _ = client.detect().expect("detect");
    let _ = client.server_stats().expect("stats");
    let _ = client.finish().expect("finish");
    let _ = server.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        let _ = service.shutdown();
    }

    // Distributed tier: a router over two shard servers — replicate
    // (journal lock), ingest, repair, consolidate and detect, all served
    // by the shard handler on the reactor (inbox lock, worker queues).
    let mut servers: Vec<ShardServer> = (0..2)
        .map(|_| {
            let shard = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 256);
            ShardServer::spawn(Arc::new(shard), &ShardServerConfig::default()).expect("bind")
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let mut router = SpadeRouter::connect(&addrs, RouterConfig::default()).expect("connect");
    for a in 0..6u32 {
        for b in (0..6u32).filter(|&b| b != a) {
            router.submit(VertexId(a), VertexId(b), 5.0).expect("submit");
        }
    }
    let outcome = router.repair().expect("repair");
    router.consolidate(&outcome).expect("consolidate");
    let _ = router.detect(outcome.baseline_shard).expect("detect");
    router.shutdown_shards().expect("shutdown");
    for server in &mut servers {
        server.stop();
    }

    // The graph must have observed real nesting (a lone-lock run would
    // vacuously pass) and must contain no inversion outside this file.
    match audit::check_acyclic_excluding(SELF) {
        Ok(edges) => assert!(
            edges > 0,
            "audit recorded no order edges — instrumentation is not wired through"
        ),
        Err(report) => panic!("lock-order inversion in runtime paths: {report}"),
    }
    // Any report raised so far must involve this file's seeded classes.
    for report in audit::reports() {
        assert!(
            report.chain.iter().any(|label| label.contains(SELF)),
            "unexpected inversion report from runtime paths: {report}"
        );
    }
}

#[test]
fn seeded_inversion_is_detected() {
    let a = Arc::new(parking_lot::Mutex::new(0u64));
    let b = Arc::new(parking_lot::Mutex::new(0u64));

    // Path 1 (its own thread): a, then b.
    {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            let ga = a.lock();
            let gb = b.lock();
            drop(gb);
            drop(ga);
        })
        .join()
        .expect("path 1");
    }
    // Path 2 (another thread, after path 1 finished): b, then a. No
    // real deadlock can occur — the audit must flag the *potential*.
    {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            let gb = b.lock();
            let ga = a.lock();
            drop(ga);
            drop(gb);
        })
        .join()
        .expect("path 2");
    }

    let reports = audit::reports();
    let flagged = reports.iter().any(|r| {
        r.chain.first() == r.chain.last()
            && r.chain.len() == 3
            && r.chain.iter().all(|label| label.contains(SELF))
            && r.acquired_at.contains(SELF)
    });
    assert!(flagged, "seeded a→b / b→a inversion was not reported; reports: {reports:?}");
}

#[test]
fn channel_mutex_participates_in_the_order_graph() {
    let mutex_line = line!() + 1;
    let m = parking_lot::Mutex::new(0u64);
    let channel_line = line!() + 1;
    let (tx, rx) = crossbeam::channel::bounded::<u32>(4);

    // Holding the parking_lot mutex across a channel operation must
    // record a mutex-class → channel-class edge.
    let guard = m.lock();
    tx.try_send(7).expect("try_send");
    drop(guard);
    assert_eq!(rx.try_recv(), Ok(7));

    // The edge's class labels carry the user-facing creation sites
    // (this file); the acquisition site is inside crossbeam, where the
    // channel's internal mutex is actually taken.
    let from = format!(":{mutex_line}");
    let to = format!(":{channel_line}");
    let edges = audit::order_edges();
    assert!(
        edges.iter().any(|(a, b, site)| {
            a.contains(SELF) && a.ends_with(&from) && b.ends_with(&to) && site.contains("crossbeam")
        }),
        "mutex→channel edge not recorded; edges touching this file: {:?}",
        edges.iter().filter(|(a, b, _)| a.contains(SELF) || b.contains(SELF)).collect::<Vec<_>>()
    );
}
