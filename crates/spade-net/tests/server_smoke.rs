//! Server integration smoke tests over a real loopback socket: a basic
//! produce → detect roundtrip, protocol queries, and the malformed-frame
//! smoke check (garbage bytes earn an Error reply and a closed
//! connection while the server keeps serving everyone else).

use spade_core::metric::WeightedDensity;
use spade_core::shard::{ShardedConfig, ShardedSpadeService};
use spade_core::PartitionStrategy;
use spade_graph::VertexId;
use spade_metrics::EventKind::MalformedFrame;
use spade_net::{read_frame, write_frame, SpadeNetClient, SpadeNetServer, WireFrame};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

fn v(i: u32) -> VertexId {
    VertexId(i)
}

fn spawn_server(shards: usize) -> (Arc<ShardedSpadeService>, SpadeNetServer) {
    let config = ShardedConfig {
        shards,
        strategy: PartitionStrategy::HashBySource,
        ..ShardedConfig::with_shards(shards)
    };
    let service = Arc::new(ShardedSpadeService::spawn(WeightedDensity, config));
    let server = SpadeNetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    (service, server)
}

#[test]
fn a_producer_feeds_the_runtime_and_reads_the_detection_back() {
    let (service, server) = spawn_server(2);
    let mut client = SpadeNetClient::connect(server.local_addr()).expect("connect");
    for i in 0..10u32 {
        client.submit(v(i), v(i + 1), 1.0).unwrap();
    }
    for a in 50..54u32 {
        for b in 50..54u32 {
            if a != b {
                client.submit(v(a), v(b), 25.0).unwrap();
            }
        }
    }
    let det = client.detect().expect("detect");
    assert!(det.density > 10.0);
    assert!(det.members.iter().all(|m| (50..54).contains(&m.0)));
    assert_eq!(det.updates_applied, 10 + 12);

    let remote = client.server_stats().expect("stats");
    // `detect` was read-your-acks, so even the live counters cover them.
    assert_eq!(remote.updates_applied, 22);
    assert_eq!(remote.shards, 2);
    assert_eq!(remote.edges_accepted, 22);
    assert_eq!(remote.connections, 1);
    assert!(remote.frames >= 3);

    let stats = client.finish().expect("finish");
    assert_eq!(stats.edges_submitted, 22);
    assert_eq!(stats.edges_acked, 22);

    let net = server.shutdown();
    assert_eq!(net.edges_accepted, 22);
    assert_eq!(net.malformed_frames, 0);
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    let global = service.shutdown();
    assert_eq!(global.total_updates, 22);
}

#[test]
fn metrics_scrape_over_the_wire_reconciles_with_ingest() {
    let (service, server) = spawn_server(2);
    let mut client = SpadeNetClient::connect(server.local_addr()).expect("connect");
    for i in 0..50u32 {
        client.submit(v(i % 10), v((i + 1) % 10), 1.0).unwrap();
    }
    // Detect waits for every acknowledged edge to be applied
    // (read-your-acks), so the queue-wait histogram is complete after.
    client.detect().expect("detect");

    let reply = client.server_metrics().expect("metrics");
    assert_eq!(reply.version, spade_net::METRICS_VERSION);
    let text = &reply.exposition;
    // Per-stage histograms: every applied edge was timed exactly once.
    assert!(
        text.contains("spade_stage_queue_wait_ns_count 50"),
        "queue-wait count must equal applied updates, got:\n{text}"
    );
    assert!(text.contains("spade_stage_publish_ns_count"), "missing publish stage:\n{text}");
    // Transport totals and per-connection labeled series ride along.
    assert!(text.contains("spade_net_edges_accepted_total 50"), "net totals missing:\n{text}");
    assert!(
        text.contains("spade_net_connection_frames{conn=\"1\"}"),
        "per-connection series missing:\n{text}"
    );
    // The runtime totals from the shard registries are merged in.
    assert!(text.contains("spade_updates_total 50"), "updates counter missing:\n{text}");

    // The extended stats reply carries uptime and live per-shard depths.
    let stats = client.server_stats().expect("stats");
    assert!(stats.uptime_secs > 0.0);
    assert_eq!(stats.shard_queue_depths.len(), 2);
    assert_eq!(stats.shard_queue_depths.iter().sum::<u64>(), stats.queue_depth);

    drop(client);
    server.shutdown();
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, 50);
}

/// Three hostile producers against the server at `addr`, each earning an
/// `Error` reply and a closed connection.
fn three_hostile_producers(addr: std::net::SocketAddr) {
    // A length prefix far beyond the frame bound.
    let mut hostile = TcpStream::connect(addr).expect("connect");
    hostile.write_all(&u32::MAX.to_le_bytes()).unwrap();
    hostile.flush().unwrap();
    match read_frame(&mut hostile).expect("an error reply, not a dropped byte stream") {
        Some(WireFrame::Error { message }) => assert!(message.contains("exceeds")),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    // The server hangs up on the hostile connection...
    assert_eq!(read_frame(&mut hostile).expect("clean close"), None);

    // A second hostile producer: valid length, garbage opcode.
    let mut garbage = TcpStream::connect(addr).expect("connect");
    garbage.write_all(&5u32.to_le_bytes()).unwrap();
    garbage.write_all(&[0x7f, 1, 2, 3, 4]).unwrap();
    garbage.flush().unwrap();
    match read_frame(&mut garbage).expect("an error reply") {
        Some(WireFrame::Error { message }) => assert!(message.contains("opcode")),
        other => panic!("expected an Error frame, got {other:?}"),
    }

    // A third: a well-formed *reply* frame sent to the server is a
    // protocol violation — same Error + close, same counter, same trace
    // event as undecodable bytes.
    let mut backwards = TcpStream::connect(addr).expect("connect");
    write_frame(&mut backwards, &WireFrame::Ack { accepted: 1 }).unwrap();
    backwards.flush().unwrap();
    match read_frame(&mut backwards).expect("an error reply") {
        Some(WireFrame::Error { message }) => assert!(message.contains("reply frame")),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    assert_eq!(read_frame(&mut backwards).expect("clean close"), None);
}

#[test]
fn malformed_frames_get_an_error_reply_and_do_not_kill_the_server() {
    let (service, server) = spawn_server(2);
    three_hostile_producers(server.local_addr());

    // ...while honest producers keep working on the same server.
    let mut honest = SpadeNetClient::connect(server.local_addr()).expect("connect");
    for a in 10..13u32 {
        for b in 10..13u32 {
            if a != b {
                honest.submit(v(a), v(b), 9.0).unwrap();
            }
        }
    }
    let det = honest.detect().expect("detect still works");
    assert_eq!(det.size, 3);
    drop(honest);

    let traced = server.metrics().events.iter().filter(|e| e.kind == MalformedFrame).count();
    let net = server.shutdown();
    assert!(net.malformed_frames >= 3);
    assert_eq!(traced as u64, net.malformed_frames, "every malformed frame leaves a trace event");
    assert_eq!(net.edges_accepted, 6);
    drop(service);

    // A shard server runs the same loop: the same three producers get the
    // same replies, and its `Stats` reports what the loop really counted
    // — four connections, the honest one's two frames plus the decodable
    // reply frame, three malformed.
    let engine = spade_core::SpadeEngine::new(WeightedDensity);
    let shard = Arc::new(spade_core::SpadeService::spawn(engine, None, 64));
    let mut shard_server =
        spade_net::ShardServer::spawn(shard, &spade_net::ShardServerConfig::default()).unwrap();
    three_hostile_producers(shard_server.local_addr());
    let mut honest = TcpStream::connect(shard_server.local_addr()).expect("connect");
    let mut request = |frame: &WireFrame| {
        write_frame(&mut honest, frame).unwrap();
        read_frame(&mut honest).expect("a reply").expect("not EOF")
    };
    let edges = vec![(v(10), v(11), 9.0), (v(11), v(10), 9.0)];
    assert_eq!(request(&WireFrame::Batch { edges }), WireFrame::Ack { accepted: 2 });
    let WireFrame::StatsReply(stats) = request(&WireFrame::Stats) else {
        panic!("expected a StatsReply");
    };
    assert_eq!((stats.connections, stats.frames, stats.malformed_frames), (4, 3, 3));
    assert_eq!((stats.updates_applied, stats.edges_accepted, stats.busy_replies), (2, 2, 0));
    shard_server.stop();
}

/// A length-prefixed frame of `opcode` followed by `body`.
fn raw_frame(opcode: u8, body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32 + 1).to_le_bytes().to_vec();
    frame.push(opcode);
    frame.extend_from_slice(body);
    frame
}

/// Protocol v4 retired the single-`Edge` request, v5 the `Busy` reply
/// and v6 component migration (`MigrateOut`, `Absorb` and their
/// `SliceReply` / `AbsorbReply` answers): opcodes `0x01`, `0x82`, `0x0A`,
/// `0x0B`, `0x88` and `0x89` stay reserved, so a well-formed old frame of
/// any of these kinds earns `Error` + close on both servers and never
/// reaches an engine.
#[test]
fn the_retired_edge_opcode_is_refused_by_both_servers() {
    let mut edge = 1u32.to_le_bytes().to_vec();
    edge.extend_from_slice(&2u32.to_le_bytes());
    edge.extend_from_slice(&3.5f64.to_le_bytes());
    let mut members = 2u32.to_le_bytes().to_vec();
    members.extend_from_slice(&1u32.to_le_bytes());
    members.extend_from_slice(&2u32.to_le_bytes());
    // Slice summary (vertices, edges, weight, updates) + an empty
    // snapshot section; a receipt is three counts.
    let slice = [0u8; 36];
    let receipt = [0u8; 24];
    let retired = [
        (raw_frame(0x01, &edge), "0x01"),
        (raw_frame(0x82, &7u64.to_le_bytes()), "0x82"),
        (raw_frame(0x0A, &members), "0x0a"),
        (raw_frame(0x0B, &slice), "0x0b"),
        (raw_frame(0x88, &slice), "0x88"),
        (raw_frame(0x89, &receipt), "0x89"),
    ];
    let refused = |addr: std::net::SocketAddr| {
        for (frame, opcode) in &retired {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(frame).unwrap();
            match read_frame(&mut conn).expect("an error reply") {
                Some(WireFrame::Error { message }) => {
                    assert!(message.contains(opcode), "{message}")
                }
                other => panic!("expected an Error frame, got {other:?}"),
            }
            assert_eq!(read_frame(&mut conn).expect("clean close"), None);
        }
    };

    let (service, server) = spawn_server(1);
    refused(server.local_addr());
    assert_eq!(server.shutdown().malformed_frames, retired.len() as u64);
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, 0);

    let engine = spade_core::SpadeEngine::new(WeightedDensity);
    let shard = Arc::new(spade_core::SpadeService::spawn(engine, None, 64));
    let shard_server =
        spade_net::ShardServer::spawn(shard, &spade_net::ShardServerConfig::default()).unwrap();
    refused(shard_server.local_addr());
    let shard = Arc::try_unwrap(shard_server.into_service()).unwrap_or_else(|_| panic!("shared"));
    assert_eq!(shard.shutdown().updates_applied, 0);
}

#[test]
fn shutdown_frame_stops_the_server() {
    let (service, server) = spawn_server(1);
    let mut client = SpadeNetClient::connect(server.local_addr()).expect("connect");
    client.submit(v(0), v(1), 2.0).unwrap();
    client.shutdown_server().expect("shutdown handshake");
    // The stop flag must flip promptly (the CLI's serve loop polls it).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !server.is_stopped() {
        assert!(std::time::Instant::now() < deadline, "server failed to stop");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let net = server.shutdown();
    assert_eq!(net.edges_accepted, 1);
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, 1);
}

#[test]
fn budgeted_batches_flow_through_the_slo_scheduler() {
    let (service, server) = spawn_server(2);
    // A client with a per-transaction detection budget ships BatchBudget
    // (protocol v2) frames; the server hands each one to the grouped
    // sharded submit with the budget attached.
    let mut client = SpadeNetClient::connect_with(
        server.local_addr(),
        spade_net::ClientConfig {
            batch: 16,
            budget: Some(std::time::Duration::from_millis(50)),
            ..Default::default()
        },
    )
    .expect("connect");
    for i in 0..100u32 {
        client.submit(v(i % 20), v((i + 1) % 20), 1.0 + (i % 5) as f64).unwrap();
    }
    client.detect().expect("detect");

    // Every applied edge recorded a deadline outcome: with a generous
    // 50ms budget each one lands in the slack histogram, none as a miss.
    let reply = client.server_metrics().expect("metrics");
    let text = &reply.exposition;
    assert!(
        text.contains("spade_deadline_slack_ns_count 100"),
        "every budgeted edge must record slack, got:\n{text}"
    );
    assert!(text.contains("spade_deadline_miss_total 0"), "misses under a 50ms budget:\n{text}");

    let stats = client.finish().expect("finish");
    assert_eq!(stats.edges_acked, 100);
    server.shutdown();
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, 100);
}

#[test]
fn empty_batches_and_pipelined_sends_are_harmless() {
    let (service, server) = spawn_server(2);
    let mut client = SpadeNetClient::connect_with(
        server.local_addr(),
        spade_net::ClientConfig { batch: 4, pipeline: 3, ..Default::default() },
    )
    .expect("connect");
    // Deep pipelining across many small batches.
    for i in 0..200u32 {
        client.submit(v(i % 40), v((i + 1) % 40), 1.0 + (i % 7) as f64).unwrap();
    }
    let stats = client.finish().expect("finish");
    assert_eq!(stats.edges_acked, 200);
    server.shutdown();
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, 200);
}
