//! The life of a parked connection on the reactor, pinned with a shard
//! worker that cannot make progress until the test opens a gate: an
//! ingest frame that meets a full queue parks *its* connection only,
//! requests pipelined behind it are answered after its Ack and in order,
//! and a server stop under a parked frame loses nothing that was counted.
//! Both tiers run the matrix: the sharded front end, and a shard server
//! whose single-slot command queue the test fills first.

use spade_core::shard::{ShardedConfig, ShardedSpadeService};
use spade_core::{CustomMetric, IngestConfig, SpadeEngine, SpadeService};
use spade_graph::VertexId;
use spade_net::{
    read_frame, write_frame, ReactorConfig, ShardServer, ShardServerConfig, SpadeNetServer,
    WireFrame,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FRAME_EDGES: u64 = 8;

/// An engine whose worker stalls inside its first `edge_susp` until
/// `gate` opens.
fn gated_engine(gate: &Arc<AtomicBool>) -> SpadeEngine<CustomMetric> {
    let gate = Arc::clone(gate);
    SpadeEngine::new(CustomMetric::new(
        "gated",
        |_, _| 0.0,
        move |_, _, raw, _| {
            while !gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(200));
            }
            raw
        },
    ))
}

/// One shard with a 2-slot queue and a gated worker, behind a single
/// event loop — so the 8-edge frame below parks after at most 4 edges,
/// every time.
fn gated_server() -> (Arc<AtomicBool>, Arc<ShardedSpadeService>, SpadeNetServer) {
    let gate = Arc::new(AtomicBool::new(false));
    let config = ShardedConfig { shards: 1, queue_capacity: 2, coalesce: 1, ..Default::default() };
    let service = Arc::new(ShardedSpadeService::spawn_with(config, |_| gated_engine(&gate)));
    let reactor = ReactorConfig { workers: 1, ..Default::default() };
    let server = SpadeNetServer::bind_with(Arc::clone(&service), "127.0.0.1:0", reactor).unwrap();
    (gate, service, server)
}

/// Edges the test puts into a gated shard server's queue itself.
const PREFILLED: u64 = 2;

/// A shard server over a gated worker whose single-slot command queue is
/// already full: the worker holds the first prefilled edge (it takes one
/// command per run), the second sits in the slot — so any batch offered
/// over the wire parks, every time.
fn gated_shard_server() -> (Arc<AtomicBool>, ShardServer) {
    let gate = Arc::new(AtomicBool::new(false));
    let ingest = IngestConfig { queue_capacity: 1, coalesce: 1, deadline: None };
    let service = SpadeService::spawn_with(gated_engine(&gate), None, ingest, "gated".into());
    for i in 0..PREFILLED as u32 {
        assert!(service.submit(VertexId(200 + i), VertexId(300 + i), 1.0));
    }
    let server = ShardServer::spawn(Arc::new(service), &ShardServerConfig::default()).unwrap();
    (gate, server)
}

/// Connects to `addr` and sends one 8-edge `Batch`, then waits until
/// `parked_frames` says the server has counted it as parked.
fn park_a_producer(addr: SocketAddr, mut parked_frames: impl FnMut() -> u64) -> TcpStream {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let edges = (0..FRAME_EDGES as u32).map(|i| (VertexId(i), VertexId(100 + i), 1.0)).collect();
    write_frame(&mut conn, &WireFrame::Batch { edges }).expect("batch");
    let deadline = Instant::now() + Duration::from_secs(30);
    while parked_frames() == 0 {
        assert!(Instant::now() < deadline, "the frame never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    conn
}

/// The value of the un-labeled counter `name` in a `Metrics` reply read
/// over `conn` — a shard server's transport counters are reachable only
/// over the wire, and `Metrics` (unlike `Stats`) never waits on the worker.
fn wire_counter(conn: &mut TcpStream, name: &str) -> u64 {
    let WireFrame::MetricsReply(metrics) = request(conn, &WireFrame::Metrics) else {
        panic!("expected a MetricsReply");
    };
    let line = metrics.exposition.lines().find(|l| l.starts_with(&format!("{name} ")));
    line.and_then(|l| l.rsplit(' ').next()?.parse().ok()).unwrap_or(0)
}

/// Lets the worker move and reads what A pipelined: one Ack for the whole
/// frame, then the Flush's Ack, then a Detection that covers `applied`
/// edges — every one acked by then.
fn replies_arrive_whole_and_in_order(gate: &AtomicBool, a: &mut TcpStream, applied: u64) {
    gate.store(true, Ordering::Release);
    assert_eq!(read_frame(a).unwrap(), Some(WireFrame::Ack { accepted: FRAME_EDGES }));
    assert_eq!(read_frame(a).unwrap(), Some(WireFrame::Ack { accepted: 0 }));
    let Some(WireFrame::Detection(det)) = read_frame(a).unwrap() else {
        panic!("expected a Detection");
    };
    assert_eq!(det.updates_applied, applied);
}

fn request(conn: &mut TcpStream, frame: &WireFrame) -> WireFrame {
    write_frame(conn, frame).expect("request");
    read_frame(conn).expect("reply").expect("a reply, not EOF")
}

#[test]
fn a_parked_frame_holds_only_its_own_connection_and_its_replies_stay_in_order() {
    let (gate, service, server) = gated_server();
    let mut a = park_a_producer(server.local_addr(), || server.stats().busy_replies);
    write_frame(&mut a, &WireFrame::Flush).expect("flush behind the parked batch");
    write_frame(&mut a, &WireFrame::Detect).expect("detect behind the parked batch");

    // B shares A's event loop and is served while A waits.
    let mut b = TcpStream::connect(server.local_addr()).expect("connect");
    let WireFrame::StatsReply(stats) = request(&mut b, &WireFrame::Stats) else {
        panic!("expected a StatsReply");
    };
    assert_eq!(stats.busy_replies, 1);
    assert!(stats.edges_accepted < FRAME_EDGES, "a stalled 2-slot shard cannot hold the frame");

    replies_arrive_whole_and_in_order(&gate, &mut a, FRAME_EDGES);

    let net = server.shutdown();
    assert_eq!((net.edges_accepted, net.busy_replies), (FRAME_EDGES, 1));
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, FRAME_EDGES);
}

#[test]
fn a_shutdown_under_a_parked_frame_closes_it_and_loses_no_counted_edge() {
    let (gate, service, server) = gated_server();
    let mut a = park_a_producer(server.local_addr(), || server.stats().busy_replies);
    let mut b = TcpStream::connect(server.local_addr()).expect("connect");
    assert_eq!(request(&mut b, &WireFrame::Shutdown), WireFrame::Ack { accepted: 0 });

    // A's frame was never whole, so it is never acked: the connection
    // just closes.
    let net = server.shutdown();
    assert!(matches!(read_frame(&mut a), Ok(None) | Err(_)));
    assert!(net.edges_accepted < FRAME_EDGES);

    // What the server did count was enqueued, and drains.
    gate.store(true, Ordering::Release);
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, net.edges_accepted);
}

#[test]
fn a_shard_server_parks_a_batch_on_its_full_queue_and_acks_it_whole_in_order() {
    let (gate, server) = gated_shard_server();
    // B shares A's event loop; its Metrics are answered while A waits.
    let mut b = TcpStream::connect(server.local_addr()).expect("connect");
    let mut a = park_a_producer(server.local_addr(), || {
        wire_counter(&mut b, "spade_net_busy_replies_total")
    });
    write_frame(&mut a, &WireFrame::Flush).expect("flush behind the parked batch");
    write_frame(&mut a, &WireFrame::Detect).expect("detect behind the parked batch");
    assert_eq!(wire_counter(&mut b, "spade_net_busy_replies_total"), 1);
    assert_eq!(wire_counter(&mut b, "spade_net_edges_accepted_total"), 0, "admitted whole or not");

    replies_arrive_whole_and_in_order(&gate, &mut a, PREFILLED + FRAME_EDGES);

    let service = Arc::try_unwrap(server.into_service()).unwrap_or_else(|_| panic!("shared"));
    assert_eq!(service.shutdown().updates_applied, PREFILLED + FRAME_EDGES);
}

#[test]
fn a_shutdown_under_a_batch_parked_on_a_shard_server_closes_it_unadmitted() {
    let (gate, server) = gated_shard_server();
    let mut b = TcpStream::connect(server.local_addr()).expect("connect");
    let mut a = park_a_producer(server.local_addr(), || {
        wire_counter(&mut b, "spade_net_busy_replies_total")
    });
    assert_eq!(request(&mut b, &WireFrame::Shutdown), WireFrame::Ack { accepted: 0 });

    // A's batch was never admitted, so it is never acked: the connection
    // just closes, and only what the test enqueued itself drains.
    let service = server.into_service();
    assert!(matches!(read_frame(&mut a), Ok(None) | Err(_)));
    gate.store(true, Ordering::Release);
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().updates_applied, PREFILLED);
}
