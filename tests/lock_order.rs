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
//! sharded submit/batch/repair, the reactor-backed TCP front
//! end, a `Detect` and an in-process submit both waiting on a stalled
//! shard's progress notifier, and a router over two shard servers on
//! the same reactor — and
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
use spade::core::{CustomMetric, SpadeEngine, WeightedDensity};
use spade::graph::VertexId;
use spade::net::{
    read_frame, write_frame, RouterConfig, ShardServer, ShardServerConfig, SpadeNetClient,
    SpadeNetServer, SpadeRouter, WireFrame,
};
use spade::shard::{PartitionStrategy, ShardedConfig, ShardedSpadeService};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Classes created by this file (the seeded inversion and the channel
/// fixture) are excluded from the global acyclicity assertion.
const SELF: &str = "lock_order";

#[test]
fn real_runtime_paths_produce_an_acyclic_order_graph() {
    // Solo service: submit, batch, barrier, region export, shutdown.
    let service = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 256);
    for i in 0..50u32 {
        assert!(service.submit(VertexId(i), VertexId(i + 1), 1.0));
    }
    let batch: Vec<_> = (50..80u32).map(|i| (VertexId(i), VertexId(i + 1), 1.0)).collect();
    assert!(service.submit_batch(batch, None));
    assert!(service.request_barrier().is_some());
    assert!(service.candidate_region(2).is_some());
    let _ = service.current_detection();
    let _ = service.stats();
    let _ = service.metrics();
    let _ = service.shutdown();

    // Sharded runtime: submit, batch submit and cross-shard repair.
    let sharded = ShardedSpadeService::spawn(
        WeightedDensity,
        ShardedConfig { shards: 4, queue_capacity: 1024, ..Default::default() },
    );
    for i in 0..200u32 {
        assert!(sharded.submit(VertexId(i % 37), VertexId(i % 53 + 40), 1.0));
    }
    let batch: Vec<_> = (0..100u32).map(|i| (VertexId(i), VertexId(i + 7), 2.0)).collect();
    let accepted = sharded.submit_batch(&batch, None);
    assert!(!accepted.closed);
    assert!(sharded.request_barrier().is_some());
    let _ = sharded.repair();
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
    client.drain().expect("drain");
    let _ = client.detect().expect("detect");
    let _ = client.server_stats().expect("stats");
    let _ = client.finish().expect("finish");
    let _ = server.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        let _ = service.shutdown();
    }

    // Wake on progress: one shard whose worker stalls until the gate
    // opens, a front-end Detect parked behind it, and an in-process
    // submit blocked on its full queue. Both wait on the runtime's
    // notifier; the blocked submit's hook takes its channel's lock under
    // the notifier's.
    let gate = Arc::new(AtomicBool::new(false));
    let held = Arc::clone(&gate);
    let stalled = Arc::new(ShardedSpadeService::spawn_with(
        ShardedConfig { shards: 1, queue_capacity: 1, coalesce: 1, ..Default::default() },
        move |_| {
            let held = Arc::clone(&held);
            SpadeEngine::new(CustomMetric::new(
                "gated",
                |_, _| 0.0,
                move |_, _, raw, _| {
                    while !held.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    raw
                },
            ))
        },
    ));
    let server = SpadeNetServer::bind(Arc::clone(&stalled), "127.0.0.1:0").expect("bind");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let edges = vec![(VertexId(1), VertexId(2), 1.0)];
    write_frame(&mut conn, &WireFrame::Batch { edges }).expect("batch");
    assert_eq!(read_frame(&mut conn).expect("ack"), Some(WireFrame::Ack { accepted: 1 }));
    // The acked edge cannot apply while the gate is shut: this parks.
    write_frame(&mut conn, &WireFrame::Detect).expect("detect");
    // Once the worker holds that edge, one more fills the queue and the
    // next submit blocks — holding one more handle on the notifier, its
    // subscription.
    while stalled.stats()[0].service.queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(stalled.submit(VertexId(3), VertexId(4), 1.0));
    let handles = Arc::strong_count(stalled.progress());
    let blocked = {
        let stalled = Arc::clone(&stalled);
        std::thread::spawn(move || stalled.submit(VertexId(5), VertexId(6), 1.0))
    };
    while Arc::strong_count(stalled.progress()) == handles {
        std::thread::sleep(Duration::from_millis(1));
    }
    gate.store(true, Ordering::Release);
    assert!(blocked.join().expect("blocked submitter"));
    let Some(WireFrame::Detection(det)) = read_frame(&mut conn).expect("detection") else {
        panic!("expected a Detection");
    };
    assert!(det.updates_applied >= 1);
    let _ = server.shutdown();
    let stalled = Arc::try_unwrap(stalled).unwrap_or_else(|_| panic!("a loop holds the service"));
    assert_eq!(stalled.shutdown().total_updates, 3);
    assert!(
        audit::order_edges().iter().any(|(from, _, _)| from.contains("progress.rs")),
        "no order edge leaves the progress notifier's lock"
    );

    // Distributed tier: a router over two shard servers — replicate
    // (journal lock), ingest, repair and detect, all served
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
