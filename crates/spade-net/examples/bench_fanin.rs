//! Connection fan-in sweep over the reactor front end.
//!
//! For each producer count in {4, 16, 64, 128}, boots a fresh sharded
//! runtime behind [`SpadeNetServer`] on loopback and replays a fixed
//! per-producer edge quota from that many concurrent pipelined clients.
//! Every producer drains its acks once per round and times the round
//! trip, so the sweep reports, per count:
//!
//! * aggregate acked-edge throughput (edges/sec over the producer phase),
//! * ack p99 across all producers' drain round trips,
//! * busy rate (the share of request frames that met a full shard queue
//!   and parked their connection — how often back-pressure crossed the
//!   wire; the server's `NetStats::busy_replies / frames`),
//! * lost acked edges (acked minus applied after the drain; the hard
//!   invariant — always 0 on a healthy build),
//! * wall clock for the whole count, producers through drain.
//!
//! The interesting regimes are the two ends: at 4 producers the event
//! loops are mostly idle between wakeups; at 128 producers every
//! readiness cycle carries work for dozens of connections and the
//! per-connection frame budget is what keeps ack tails bounded.
//!
//! Vertex ids stay compact (the graph is dense over raw ids — a sparse
//! multi-million id would turn the first apply into an O(max id) vertex
//! bootstrap and poison every sample).
//!
//! Writes a `BENCH_fanin.json` trajectory (see `--out`) and prints a
//! table. `--smoke` shrinks the workload for CI.
//!
//! `cargo run --release -p spade-net --example bench_fanin [-- --smoke]`

use spade_core::metric::WeightedDensity;
use spade_core::shard::{PartitionStrategy, ShardedConfig, ShardedSpadeService};
use spade_graph::VertexId;
use spade_metrics::Table;
use spade_net::{ClientConfig, SpadeNetClient, SpadeNetServer};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Producer counts swept, smallest first.
const PRODUCER_COUNTS: [usize; 4] = [4, 16, 64, 128];
/// Edges each producer submits between drain round trips.
const ROUND_EDGES: usize = 64;

/// One producer's contribution: per-round drain latencies plus the
/// client's own accounting.
struct ProducerRun {
    drain_rtts: Vec<Duration>,
    acked: u64,
}

/// One measured producer count.
struct Sample {
    producers: usize,
    edges_acked: u64,
    producer_elapsed: Duration,
    ack_p99: Duration,
    busy_rate: f64,
    lost_acked_edges: u64,
    wall_clock: Duration,
}

impl Sample {
    fn throughput_eps(&self) -> f64 {
        self.edges_acked as f64 / self.producer_elapsed.as_secs_f64().max(1e-9)
    }
}

/// Replays one producer's quota: `edges` total, drained (and timed)
/// every [`ROUND_EDGES`]. Each producer owns a disjoint compact id
/// range so shard routing spreads the fan-in.
fn producer(addr: std::net::SocketAddr, index: usize, edges: usize) -> ProducerRun {
    let mut client = SpadeNetClient::connect_with(
        addr,
        ClientConfig { batch: 16, pipeline: 4, ..Default::default() },
    )
    .expect("producer connect");
    let base = (index as u32) * 256;
    let mut drain_rtts = Vec::with_capacity(edges / ROUND_EDGES + 1);
    let mut sent = 0usize;
    while sent < edges {
        let round = ROUND_EDGES.min(edges - sent);
        let started = Instant::now();
        for i in 0..round {
            let k = ((sent + i) % 256) as u32;
            client.submit(VertexId(base + k), VertexId(40_000 + base + k), 1.0).expect("submit");
        }
        client.drain().expect("drain");
        drain_rtts.push(started.elapsed());
        sent += round;
    }
    let stats = client.finish().expect("finish");
    ProducerRun { drain_rtts, acked: stats.edges_acked }
}

/// Runs one producer count against a fresh server and drains to the
/// acked == applied invariant.
fn run_count(producers: usize, edges_per_producer: usize) -> Sample {
    let service = Arc::new(ShardedSpadeService::spawn(
        WeightedDensity,
        ShardedConfig {
            shards: 2,
            queue_capacity: 8192,
            strategy: PartitionStrategy::HashBySource,
            ..Default::default()
        },
    ));
    let server = SpadeNetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind server");
    let addr = server.local_addr();

    let wall_started = Instant::now();
    let handles: Vec<_> = (0..producers)
        .map(|p| std::thread::spawn(move || producer(addr, p, edges_per_producer)))
        .collect();
    let runs: Vec<ProducerRun> =
        handles.into_iter().map(|h| h.join().expect("producer thread")).collect();
    let producer_elapsed = wall_started.elapsed();

    let edges_acked: u64 = runs.iter().map(|r| r.acked).sum();
    let mut rtts: Vec<Duration> = runs.into_iter().flat_map(|r| r.drain_rtts).collect();
    rtts.sort_unstable();
    let ack_p99 = rtts[(rtts.len() * 99 / 100).min(rtts.len() - 1)];

    // Drain: every acked edge must land in a shard engine. A deadline
    // turns a stalled worker into a loud lost-edge report instead of a
    // hung benchmark.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut applied = 0u64;
    while applied < edges_acked && Instant::now() < deadline {
        applied = service.stats().iter().map(|s| s.service.updates_applied).sum();
        std::thread::yield_now();
    }
    let lost_acked_edges = edges_acked.saturating_sub(applied);
    let net = server.shutdown();
    assert_eq!(net.edges_accepted, edges_acked, "server/client acked-edge accounting diverged");
    let service =
        Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared at drain"));
    service.shutdown();

    Sample {
        producers,
        edges_acked,
        producer_elapsed,
        ack_p99,
        busy_rate: net.busy_replies as f64 / net.frames.max(1) as f64,
        lost_acked_edges,
        wall_clock: wall_started.elapsed(),
    }
}

fn write_json(path: &str, edges_per_producer: usize, samples: &[Sample]) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"fanin\",");
    let _ = writeln!(out, "  \"edges_per_producer\": {edges_per_producer},");
    let _ = writeln!(out, "  \"samples\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"producers\": {}, \"edges_acked\": {}, \"elapsed_us\": {:.1}, \
             \"throughput_eps\": {:.1}, \"ack_p99_us\": {:.1}, \"busy_rate\": {:.4}, \
             \"lost_acked_edges\": {}, \"wall_clock_ms\": {:.1}}}{comma}",
            s.producers,
            s.edges_acked,
            s.producer_elapsed.as_secs_f64() * 1e6,
            s.throughput_eps(),
            s.ack_p99.as_secs_f64() * 1e6,
            s.busy_rate,
            s.lost_acked_edges,
            s.wall_clock.as_secs_f64() * 1e3,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    std::fs::write(path, out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_fanin.json".to_string());
    let edges_per_producer = if smoke { 320 } else { 2_000 };

    println!(
        "fan-in sweep: {} producers x {} edges each ({}), loopback reactor, \
         1-hardware-thread note: producers, event loops and shard workers share cores\n",
        PRODUCER_COUNTS.last().unwrap(),
        edges_per_producer,
        if smoke { "smoke" } else { "full" },
    );

    let samples: Vec<Sample> =
        PRODUCER_COUNTS.iter().map(|&n| run_count(n, edges_per_producer)).collect();

    let mut table =
        Table::new(["producers", "acked", "tx/s", "ack p99", "busy rate", "lost", "wall clock"]);
    for s in &samples {
        table.row([
            s.producers.to_string(),
            s.edges_acked.to_string(),
            format!("{:.0}", s.throughput_eps()),
            format!("{:.1} ms", s.ack_p99.as_secs_f64() * 1e3),
            format!("{:.2}%", s.busy_rate * 100.0),
            s.lost_acked_edges.to_string(),
            format!("{:.0} ms", s.wall_clock.as_secs_f64() * 1e3),
        ]);
    }
    table.print();

    if let Some(bad) = samples.iter().find(|s| s.lost_acked_edges > 0) {
        eprintln!(
            "error: {} producers lost {} acknowledged edges",
            bad.producers, bad.lost_acked_edges
        );
        std::process::exit(1);
    }

    match write_json(&out_path, edges_per_producer, &samples) {
        Ok(()) => println!("\ntrajectory written to {out_path}"),
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
