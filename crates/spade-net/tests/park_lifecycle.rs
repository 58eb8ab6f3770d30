//! The life of a parked connection on the reactor, pinned with a shard
//! worker that cannot make progress until the test opens a gate: an
//! ingest frame that meets a full queue parks *its* connection only,
//! requests pipelined behind it are answered after its Ack and in order,
//! and a server stop under a parked frame loses nothing that was counted.

use spade_core::shard::{ShardedConfig, ShardedSpadeService};
use spade_core::{CustomMetric, SpadeEngine};
use spade_graph::VertexId;
use spade_net::{read_frame, write_frame, ReactorConfig, SpadeNetServer, WireFrame};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FRAME_EDGES: u64 = 8;

/// One shard with a 2-slot queue whose worker stalls inside its first
/// `edge_susp` until `gate` opens, behind a single event loop — so the
/// 8-edge frame below parks after at most 4 edges, every time.
fn gated_server() -> (Arc<AtomicBool>, Arc<ShardedSpadeService>, SpadeNetServer) {
    let gate = Arc::new(AtomicBool::new(false));
    let config = ShardedConfig { shards: 1, queue_capacity: 2, coalesce: 1, ..Default::default() };
    let service = Arc::new(ShardedSpadeService::spawn_with(config, |_| {
        let gate = Arc::clone(&gate);
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
    }));
    let reactor = ReactorConfig { workers: 1, ..Default::default() };
    let server = SpadeNetServer::bind_with(Arc::clone(&service), "127.0.0.1:0", reactor).unwrap();
    (gate, service, server)
}

/// Connects and sends one 8-edge `Batch`, then waits until the server
/// has counted it as parked.
fn park_a_producer(server: &SpadeNetServer) -> TcpStream {
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let edges = (0..FRAME_EDGES as u32).map(|i| (VertexId(i), VertexId(100 + i), 1.0)).collect();
    write_frame(&mut conn, &WireFrame::Batch { edges }).expect("batch");
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().busy_replies == 0 {
        assert!(Instant::now() < deadline, "the frame never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    conn
}

fn request(conn: &mut TcpStream, frame: &WireFrame) -> WireFrame {
    write_frame(conn, frame).expect("request");
    read_frame(conn).expect("reply").expect("a reply, not EOF")
}

#[test]
fn a_parked_frame_holds_only_its_own_connection_and_its_replies_stay_in_order() {
    let (gate, service, server) = gated_server();
    let mut a = park_a_producer(&server);
    write_frame(&mut a, &WireFrame::Flush).expect("flush behind the parked batch");
    write_frame(&mut a, &WireFrame::Detect).expect("detect behind the parked batch");

    // B shares A's event loop and is served while A waits.
    let mut b = TcpStream::connect(server.local_addr()).expect("connect");
    let WireFrame::StatsReply(stats) = request(&mut b, &WireFrame::Stats) else {
        panic!("expected a StatsReply");
    };
    assert_eq!(stats.busy_replies, 1);
    assert!(stats.edges_accepted < FRAME_EDGES, "a stalled 2-slot shard cannot hold the frame");

    // Once the worker moves: one Ack for the whole frame, then the
    // Flush's Ack, then a Detection that covers every acked edge.
    gate.store(true, Ordering::Release);
    assert_eq!(read_frame(&mut a).unwrap(), Some(WireFrame::Ack { accepted: FRAME_EDGES }));
    assert_eq!(read_frame(&mut a).unwrap(), Some(WireFrame::Ack { accepted: 0 }));
    let Some(WireFrame::Detection(det)) = read_frame(&mut a).unwrap() else {
        panic!("expected a Detection");
    };
    assert_eq!(det.updates_applied, FRAME_EDGES);

    let net = server.shutdown();
    assert_eq!((net.edges_accepted, net.busy_replies), (FRAME_EDGES, 1));
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, FRAME_EDGES);
}

#[test]
fn a_shutdown_under_a_parked_frame_closes_it_and_loses_no_counted_edge() {
    let (gate, service, server) = gated_server();
    let mut a = park_a_producer(&server);
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
