//! The life of a parked connection on the reactor, pinned with a shard
//! worker that cannot make progress until the test opens a gate: an
//! ingest frame that meets a full queue parks *its* connection only,
//! requests pipelined behind it are answered after its Ack and in order,
//! and a server stop under a parked frame loses nothing that was counted.
//! Both tiers run the matrix: the sharded front end, and a shard server
//! whose single-slot command queue the test fills first.

use spade_core::shard::{PartitionStrategy, ShardedConfig, ShardedSpadeService};
use spade_core::{
    CustomMetric, GroupingConfig, IngestConfig, SpadeEngine, SpadeService, WeightedDensity,
};
use spade_graph::VertexId;
use spade_net::{
    read_frame, write_frame, ReactorConfig, ShardServer, ShardServerConfig, SpadeNetClient,
    SpadeNetServer, WireFrame,
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
/// frame, then the Metrics reply, then a Detection that covers `applied`
/// edges — every one acked by then.
fn replies_arrive_whole_and_in_order(gate: &AtomicBool, a: &mut TcpStream, applied: u64) {
    gate.store(true, Ordering::Release);
    assert_eq!(read_frame(a).unwrap(), Some(WireFrame::Ack { accepted: FRAME_EDGES }));
    assert!(matches!(read_frame(a).unwrap(), Some(WireFrame::MetricsReply(_))));
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
    write_frame(&mut a, &WireFrame::Metrics).expect("metrics behind the parked batch");
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
    write_frame(&mut a, &WireFrame::Metrics).expect("metrics behind the parked batch");
    write_frame(&mut a, &WireFrame::Detect).expect("detect behind the parked batch");
    assert_eq!(wire_counter(&mut b, "spade_net_busy_replies_total"), 1);
    assert_eq!(
        wire_counter(&mut b, "spade_net_edges_accepted_total"),
        0,
        "a full queue admits none"
    );

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

#[test]
fn a_shard_servers_queue_bound_counts_edges_not_frames() {
    let gate = Arc::new(AtomicBool::new(false));
    let ingest = IngestConfig { queue_capacity: 4, coalesce: 1, deadline: None };
    let service = SpadeService::spawn_with(gated_engine(&gate), None, ingest, "gated".into());
    let server = ShardServer::spawn(Arc::new(service), &ShardServerConfig::default()).unwrap();
    let mut a = TcpStream::connect(server.local_addr()).expect("connect");
    for frame in 0..3 {
        let edges = (0..FRAME_EDGES as u32)
            .map(|i| (VertexId(frame * 10 + i), VertexId(100 + i), 1.0))
            .collect();
        write_frame(&mut a, &WireFrame::Batch { edges }).expect("pipelined batch");
    }

    // While the worker stalls in the first run it took, the server holds
    // the 4-edge bound plus that run — never three frame-sized slots.
    let mut b = TcpStream::connect(server.local_addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    while wire_counter(&mut b, "spade_net_edges_accepted_total") < FRAME_EDGES {
        assert!(Instant::now() < deadline, "the first frame was never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Every loop wakeup re-offers A's parked frame: let ten more pass.
    let wakeups = wire_counter(&mut b, "spade_net_reactor_wakeups_total");
    while wire_counter(&mut b, "spade_net_reactor_wakeups_total") < wakeups + 10 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let accepted = wire_counter(&mut b, "spade_net_edges_accepted_total");
    gate.store(true, Ordering::Release);
    assert!(accepted <= FRAME_EDGES, "{accepted} edges admitted past a 4-edge bound");

    for _ in 0..3 {
        assert_eq!(read_frame(&mut a).unwrap(), Some(WireFrame::Ack { accepted: FRAME_EDGES }));
    }
    let service = Arc::try_unwrap(server.into_service()).unwrap_or_else(|_| panic!("shared"));
    assert_eq!(service.shutdown().updates_applied, 3 * FRAME_EDGES);
}

/// Most loop wakeups a parked `Detect` may cost while its worker cannot
/// move — a tick of any period would spend one per period.
const IDLE_WAKEUPS: u64 = 10;

/// How long each idle test holds the gate shut.
const IDLE_WINDOW: Duration = Duration::from_millis(200);

/// Waits until the single loop of `server` has decoded `frames` frames
/// and finished every cycle it started, so whatever those frames parked
/// is armed for. A cycle counts a wakeup when it starts and records its
/// dispatch time when it ends.
fn loop_settles(server: &SpadeNetServer, frames: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "the loop never settled on {frames} frames");
        if server.stats().frames >= frames {
            let metrics = server.metrics();
            let ended = metrics.histograms["spade_net_reactor_dispatch_ns"].count;
            if ended == metrics.counters["spade_net_reactor_wakeups_total"] {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A front-end counter read in-process.
fn counter(server: &SpadeNetServer, name: &str) -> u64 {
    server.metrics().counters.get(name).copied().unwrap_or(0)
}

#[test]
fn a_detect_parked_behind_a_gated_front_end_worker_does_not_spin_the_loop() {
    let (gate, service, server) = gated_server();
    let mut a = TcpStream::connect(server.local_addr()).expect("connect");
    let edges = vec![(VertexId(1), VertexId(2), 1.0)];
    assert_eq!(request(&mut a, &WireFrame::Batch { edges }), WireFrame::Ack { accepted: 1 });
    write_frame(&mut a, &WireFrame::Detect).expect("detect behind the stalled edge");
    loop_settles(&server, 2);

    let before = counter(&server, "spade_net_reactor_wakeups_total");
    std::thread::sleep(IDLE_WINDOW);
    let spent = counter(&server, "spade_net_reactor_wakeups_total") - before;
    gate.store(true, Ordering::Release);
    assert!(spent <= IDLE_WAKEUPS, "a parked Detect woke its loop {spent} times");

    let Some(WireFrame::Detection(det)) = read_frame(&mut a).unwrap() else {
        panic!("expected a Detection");
    };
    assert_eq!(det.updates_applied, 1);
    server.shutdown();
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("a loop still holds it"));
    assert_eq!(service.shutdown().total_updates, 1);
}

#[test]
fn a_detect_parked_behind_a_gated_shard_worker_does_not_spin_the_loop() {
    let gate = Arc::new(AtomicBool::new(false));
    let ingest = IngestConfig { queue_capacity: 4, coalesce: 1, deadline: None };
    let service = SpadeService::spawn_with(gated_engine(&gate), None, ingest, "gated".into());
    assert!(service.submit(VertexId(1), VertexId(2), 1.0));
    let server = ShardServer::spawn(Arc::new(service), &ShardServerConfig::default()).unwrap();
    // A's Detect enqueues a barrier behind the stalled edge and parks on
    // its reply.
    let mut a = TcpStream::connect(server.local_addr()).expect("connect");
    write_frame(&mut a, &WireFrame::Detect).expect("detect");
    let mut b = TcpStream::connect(server.local_addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    while wire_counter(&mut b, "spade_net_connection_frames{conn=\"1\"}") == 0 {
        assert!(Instant::now() < deadline, "the Detect was never read");
        std::thread::sleep(Duration::from_millis(1));
    }

    // B's own Metrics requests wake the loop once each.
    let before = wire_counter(&mut b, "spade_net_reactor_wakeups_total");
    std::thread::sleep(IDLE_WINDOW);
    let spent = wire_counter(&mut b, "spade_net_reactor_wakeups_total") - before;
    gate.store(true, Ordering::Release);
    assert!(spent <= IDLE_WAKEUPS, "a parked Detect woke its loop {spent} times");

    let Some(WireFrame::Detection(det)) = read_frame(&mut a).unwrap() else {
        panic!("expected a Detection");
    };
    assert_eq!(det.updates_applied, 1);
    let service = Arc::try_unwrap(server.into_service()).unwrap_or_else(|_| panic!("shared"));
    assert_eq!(service.shutdown().updates_applied, 1);
}

/// Two sources whose edges stall the worker until their own gate opens;
/// every other edge applies at once.
const FIRST: u32 = 1000;
const SECOND: u32 = 2000;

#[test]
fn detects_parked_on_one_loop_answer_in_watermark_order() {
    let (first, second) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let gates = (Arc::clone(&first), Arc::clone(&second));
    let mut engine = Some(SpadeEngine::new(CustomMetric::new(
        "two gates",
        |_, _| 0.0,
        move |src, _, raw, _| {
            let gate = match src.0 {
                FIRST => &gates.0,
                SECOND => &gates.1,
                _ => return raw,
            };
            while !gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(200));
            }
            raw
        },
    )));
    let config = ShardedConfig { shards: 1, queue_capacity: 16, coalesce: 1, ..Default::default() };
    let service = Arc::new(ShardedSpadeService::spawn_with(config, |_| engine.take().unwrap()));
    let reactor = ReactorConfig { workers: 1, ..Default::default() };
    let server = SpadeNetServer::bind_with(Arc::clone(&service), "127.0.0.1:0", reactor).unwrap();
    let mut a = TcpStream::connect(server.local_addr()).expect("connect");
    let mut b = TcpStream::connect(server.local_addr()).expect("connect");
    let batch = |src: u32| WireFrame::Batch { edges: vec![(VertexId(src), VertexId(7), 1.0)] };

    // B's edge stalls the worker; A's queues behind it, and A's Detect
    // parks on watermark 2. B's second edge stalls it again, and B's
    // Detect parks on watermark 3.
    assert_eq!(request(&mut b, &batch(FIRST)), WireFrame::Ack { accepted: 1 });
    assert_eq!(request(&mut a, &batch(1)), WireFrame::Ack { accepted: 1 });
    write_frame(&mut a, &WireFrame::Detect).expect("detect on watermark 2");
    loop_settles(&server, 3);
    assert_eq!(request(&mut b, &batch(SECOND)), WireFrame::Ack { accepted: 1 });
    write_frame(&mut b, &WireFrame::Detect).expect("detect on watermark 3");
    loop_settles(&server, 5);

    // Two edges apply, reaching A's watermark but not B's: the loop is
    // woken for the lower one, and A's answer covers both edges.
    first.store(true, Ordering::Release);
    let Some(WireFrame::Detection(det)) = read_frame(&mut a).unwrap() else {
        panic!("expected A's Detection");
    };
    let woken = counter(&server, "spade_net_reactor_progress_wakes_total");
    second.store(true, Ordering::Release);
    assert_eq!(det.updates_applied, 2);
    assert!(woken >= 1, "A was answered without a progress wake");

    let Some(WireFrame::Detection(det)) = read_frame(&mut b).unwrap() else {
        panic!("expected B's Detection");
    };
    assert_eq!(det.updates_applied, 3);
    server.shutdown();
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("a loop still holds it"));
    assert_eq!(service.shutdown().total_updates, 3);
}

/// The 12 directed edges of a 4-clique on `first..first + 4` at `weight`.
fn clique(first: u32, weight: f64) -> Vec<(VertexId, VertexId, f64)> {
    let ids = first..first + 4;
    ids.clone()
        .flat_map(|a| ids.clone().filter(move |&b| b != a).map(move |b| (a, b)))
        .map(|(a, b)| (VertexId(a), VertexId(b), weight))
        .collect()
}

/// Read-your-acks when the connection is not the only producer: a
/// 300 000-edge backlog submitted in-process is still draining on the
/// one shard when a client's clique is acked, and the client's
/// `detect()` must still find that clique.
#[test]
fn a_detect_covers_its_own_acks_behind_an_in_process_backlog() {
    const BACKLOG: u32 = 300_000;
    let config = ShardedConfig {
        shards: 1,
        queue_capacity: 400_000,
        strategy: PartitionStrategy::HashBySource,
        ..Default::default()
    };
    let service = Arc::new(ShardedSpadeService::spawn(WeightedDensity, config));
    let server = SpadeNetServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let backlog: Vec<_> = (0..BACKLOG)
        .map(|i| (VertexId(i % 20_000), VertexId(20_000 + i.wrapping_mul(7919) % 20_000), 1.0))
        .collect();
    assert_eq!(service.submit_batch(&backlog, None).accepted, backlog.len());

    let mut client = SpadeNetClient::connect(server.local_addr()).expect("connect");
    let ring = clique(50_000, 500.0);
    for &(a, b, w) in &ring {
        client.submit(a, b, w).expect("submit");
    }
    let det = client.detect().expect("detect");
    let mut members = det.members;
    members.sort_unstable();
    assert!(
        members.iter().copied().eq((50_000..50_004).map(VertexId)),
        "a Detect answered after {} of {} updates, with {} members",
        det.updates_applied,
        BACKLOG as usize + ring.len(),
        members.len()
    );
    drop(client);
    server.shutdown();
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("a loop still holds it"));
    assert_eq!(service.shutdown().total_updates, BACKLOG as u64 + ring.len() as u64);
}

/// Acks an urgent clique and a benign batch over one connection to
/// `addr`, then sends a raw `Detect`; returns the updates it covers.
fn detect_after_urgent_and_benign_batches(addr: SocketAddr) -> u64 {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let urgent = clique(0, 50.0);
    let benign: Vec<_> = (100..110u32).map(|i| (VertexId(i), VertexId(i + 1), 1.0)).collect();
    for edges in [urgent, benign] {
        let accepted = edges.len() as u64;
        assert_eq!(request(&mut conn, &WireFrame::Batch { edges }), WireFrame::Ack { accepted });
    }
    let WireFrame::Detection(det) = request(&mut conn, &WireFrame::Detect) else {
        panic!("expected a Detection");
    };
    det.updates_applied
}

/// A `Detect` settles a grouped stage on both tiers: after an urgent
/// clique and a benign batch, a raw `Detect` covers all 22 acked edges,
/// and the benign ten are resident in the engine, not held in the stage.
/// On a shard server this is the only way a router-tier client sees
/// held benign edges.
#[test]
fn a_detect_covers_benign_edges_held_by_a_grouped_stage() {
    let config = ShardedConfig {
        shards: 1,
        grouping: Some(GroupingConfig::default()),
        ..Default::default()
    };
    let service = Arc::new(ShardedSpadeService::spawn(WeightedDensity, config));
    let server = SpadeNetServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let updates = detect_after_urgent_and_benign_batches(server.local_addr());
    let resident = service.stats()[0].service.edges_resident;
    assert_eq!((updates, resident), (22, 22));
    server.shutdown();
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("a loop still holds it"));
    assert_eq!(service.shutdown().total_updates, 22);

    let engine = SpadeEngine::new(WeightedDensity);
    let service = Arc::new(SpadeService::spawn(engine, Some(GroupingConfig::default()), 1024));
    let server = ShardServer::spawn(Arc::clone(&service), &ShardServerConfig::default()).unwrap();
    let updates = detect_after_urgent_and_benign_batches(server.local_addr());
    let resident = service.stats().edges_resident;
    assert_eq!((updates, resident), (22, 22));
    drop(service);
    let service = Arc::try_unwrap(server.into_service()).unwrap_or_else(|_| panic!("shared"));
    assert_eq!(service.shutdown().updates_applied, 22);
}
