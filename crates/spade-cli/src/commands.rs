//! Subcommand implementations for the `spade` binary.

use crate::args::Args;
use spade_core::metric::{BuiltinMetric, DensityMetric};
use spade_core::{
    load_engine, save_engine, EdgeGrouper, GroupingConfig, RepairConfig, RepairedDetection,
    ShardedConfig, ShardedSpadeService, SpadeConfig, SpadeEngine, SpadeService,
};
use spade_gen::datasets::DatasetSpec;
use spade_graph::io::{read_edge_list, EdgeRecord};
use spade_metrics::Table;
use spade_net::{
    ClientConfig, ClientStats, MetricsHttpServer, NetStats, ReactorConfig, RouterConfig,
    ShardServer, ShardServerConfig, SpadeNetClient, SpadeNetServer, SpadeRouter,
};
use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

type AnyError = Box<dyn Error>;

/// Prints usage.
pub fn print_help() {
    eprintln!(
        "spade — real-time fraud detection on evolving transaction graphs

USAGE:
  spade detect   <edges.txt> [--metric dg|dw|fd] [--top N] [--shards N]
                 [--repair] [--repair-hops K]
  spade stream   <edges.txt> [--metric dg|dw|fd] [--initial 0.9]
                 [--batch N | --grouping]
  spade serve    <edges.txt> [--shards N] [--metric dg|dw|fd] [--grouping]
                 [--queue N] [--coalesce N] [--deadline-ms F]
                 [--top N] [--repair] [--repair-hops K]
  spade serve    --listen <addr> [--shards N] [--metric dg|dw|fd]
                 [--metrics <addr>] [--net-workers N] [...]
  spade ingest   <addr> <edges.txt> [--batch N] [--pipeline N]
                 [--deadline-ms F] [--detect] [--stats] [--shutdown]
  spade watch    <addr> [--interval ms] [--count N]
  spade shard-serve [--listen <addr>] [--metric dg|dw|fd] [--queue N]
                 [--grouping]
  spade route    <edges.txt> <addr>... [--batch N] [--repair-hops K]
                 [--no-replicate] [--shutdown]
  spade gen      [--dataset Grab1] [--scale 0.01] [--seed 42] [--out FILE]
  spade snapshot <edges.txt> --out FILE [--metric dg|dw|fd]
  spade resume   <FILE> [--metric dg|dw|fd] [--top N]
  spade help

`serve` replays the file through the sharded parallel runtime (one engine
per shard, edges routed by a hash of their source account) and reports
per-shard statistics plus the `--top` densest per-shard communities
(overlapping shard views of one split community are deduped).
`detect --shards N` routes the same static input through N shards instead
of one engine. `--coalesce N` caps how many edges a shard worker drains
and applies as one batch (default 256; 1 = per-edge processing); under
`--grouping` it also caps the benign edges a worker holds back.
`--deadline-ms F` sets a per-transaction detection latency budget
(fractional ms allowed): shard workers then schedule batch boundaries so
every queued transaction, a held-back benign one included, is applied
within its budget — prefer it over tuning `--coalesce` directly. On `ingest` the
same flag stamps the budget onto every frame so the server paces those
edges; misses and remaining slack are exported as
`spade_deadline_miss_total` / `spade_deadline_slack_ns` and shown in
`spade watch`. A community whose accounts hash to different shards is
split across them and diluted on each; `--repair` runs the cross-shard
repair pass after the replay, which puts it back together: every shard
exports its community plus a `--repair-hops` frontier (default 1),
overlapping regions are unioned and re-peeled, and the repaired
detection — never less dense than the best per-shard view — is
reported alongside the dilution it recovered.

`serve --listen <addr>` takes no edge list: it binds a framed-TCP ingest
server on <addr> (port 0 picks a free port; the bound address is
printed) and bridges producer frames straight into the sharded runtime —
a frame that meets a full shard queue parks its connection (unread, so
TCP flow control slows that producer) until the rest is enqueued, then
is acked whole. All connections are multiplexed onto a small reactor pool of
`--net-workers` event-loop threads (default 2) with a per-connection
frame budget per readiness cycle, so one firehose producer cannot starve
other connections of acks. The server runs until a producer sends the Shutdown frame
(`spade ingest --shutdown`), then prints the usual sharded report plus
connection/frame/parked-frame transport counters. `spade ingest <addr>
<file>` is the matching producer: it replays an edge list with
`--batch`-sized pipelined frames (`--pipeline` in flight); `--detect`
reads the detection back once every acked edge is applied
(read-your-acks), `--stats` the live server counters, which cover the
whole replay after `--detect`; `--shutdown` stops the server when the
replay ends.

`serve --listen ... --metrics <addr>` additionally serves the live
Prometheus text exposition on <addr> (scrape http://<addr>/metrics):
per-stage latency histograms (queue wait, reorder/peel, publish),
runtime totals, repair counters, and transport counters with
per-connection series. `spade watch <addr>` polls a serving runtime over
the wire and prints a refreshing table of updates, per-shard queue
depths and parked frames (back-pressure), and stage latencies; each poll
flushes, so watch a live workload rather than an idle server for
representative numbers.

`shard-serve` and `route` are the *multi-process* distributed runtime:
each `shard-serve` process hosts one detection engine behind the
protocol-v6 shard listener (its first stdout line is the bound address —
port 0 picks a free port), and `route` replays an edge list across N
such processes. `--queue N` (default 1024) bounds the edges a shard's
queue holds, as `serve --queue N` does per shard: a batch that does not
fit is admitted in frame-order prefixes while its connection parks. The
router journals every batch on the next shard over
before its home applies it, so a SIGKILL'd shard can be restarted and
reseeded from its replica's journal with zero acked-edge loss (single
failure tolerated). After the replay `route` runs the cross-shard repair
pass over the wire and reports the stitched detection; `--shutdown`
stops the shard processes.

Every subcommand refuses an option it does not read.

Edge lists are whitespace-separated `src dst [raw] [timestamp]` lines."
    );
}

fn load_records(path: &str) -> Result<Vec<EdgeRecord>, AnyError> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (records, _) = read_edge_list(file)?;
    Ok(records)
}

fn metric_from(args: &Args) -> Result<BuiltinMetric, AnyError> {
    let name = args.str_opt("metric", "dw");
    BuiltinMetric::from_name(&name)
        .ok_or_else(|| format!("unknown metric {name:?} (expected dg, dw or fd)").into())
}

fn print_communities<M: DensityMetric>(engine: &mut SpadeEngine<M>, top: usize) {
    let det = engine.detect();
    if det.size == 0 {
        println!("no suspicious community detected");
        return;
    }
    let instances = spade_core::enumerate_static(
        engine.graph(),
        spade_core::EnumerationConfig {
            max_instances: top,
            min_density: det.density / 50.0,
            ..Default::default()
        },
    );
    let mut table = Table::new(["#", "members", "density", "sample accounts"]);
    for (i, inst) in instances.iter().enumerate() {
        let sample: Vec<String> = inst.members.iter().take(8).map(|m| m.0.to_string()).collect();
        table.row([
            (i + 1).to_string(),
            inst.members.len().to_string(),
            format!("{:.3}", inst.density),
            sample.join(","),
        ]);
    }
    table.print();
}

/// `--deadline-ms F`: the per-transaction detection-latency budget for
/// the SLO batch scheduler (fractional milliseconds allowed; 0 or absent
/// means unbudgeted drain-coalesce).
fn deadline_from(args: &Args) -> Result<Option<Duration>, AnyError> {
    let ms = args.num_opt("deadline-ms", 0.0f64)?;
    if ms < 0.0 || !ms.is_finite() {
        return Err("--deadline-ms must be a non-negative number of milliseconds".into());
    }
    Ok((ms > 0.0).then(|| Duration::from_secs_f64(ms / 1e3)))
}

/// The options a sharded replay reads: [`sharded_config_from`]'s and the
/// report's.
const SHARDED_OPTIONS: [&str; 9] = [
    "shards",
    "metric",
    "top",
    "queue",
    "coalesce",
    "deadline-ms",
    "grouping",
    "repair",
    "repair-hops",
];

/// Builds a [`ShardedConfig`] from the shared `--queue`, `--coalesce`,
/// `--deadline-ms`, `--grouping` and `--repair-hops` options.
fn sharded_config_from(args: &Args, shards: usize) -> Result<ShardedConfig, AnyError> {
    Ok(ShardedConfig {
        shards,
        queue_capacity: args.num_opt("queue", 1024usize)?.max(1),
        coalesce: args.num_opt("coalesce", ShardedConfig::default().coalesce)?.max(1),
        deadline: deadline_from(args)?,
        grouping: args.flag("grouping").then(GroupingConfig::default),
        repair: RepairConfig { hops: args.num_opt("repair-hops", RepairConfig::default().hops)? },
        ..Default::default()
    })
}

/// Prints the per-shard statistics table (with per-shard repair columns
/// when a repair pass ran) and the `top` densest per-shard communities of
/// the merged view, overlap-deduplicated.
fn print_sharded_report(
    service: &ShardedSpadeService,
    elapsed_secs: f64,
    replayed: usize,
    top: usize,
    repaired: Option<&RepairedDetection>,
    net: Option<&NetStats>,
) {
    let stats = service.stats();
    let global = service.current_detection();
    println!(
        "{} transactions over {} shards in {:.1} ms ({:.0} tx/s)",
        replayed,
        stats.len(),
        elapsed_secs * 1e3,
        replayed as f64 / elapsed_secs.max(1e-9),
    );
    let mut table = Table::new([
        "shard",
        "updates",
        "queued",
        "rejected",
        "flushes",
        "publishes",
        "skipped",
        "det size",
        "det density",
        "region v/e",
        "merged",
    ]);
    for s in &stats {
        let (region, merged) = match repaired
            .and_then(|r| r.regions.iter().find(|summary| summary.shard == s.shard))
        {
            Some(summary) => (
                format!("{}/{}", summary.vertices, summary.edges),
                if summary.merged { "yes" } else { "no" }.to_string(),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        table.row([
            s.shard.to_string(),
            s.service.updates_applied.to_string(),
            s.service.queue_depth.to_string(),
            s.service.rejected.to_string(),
            s.service.flushes.to_string(),
            s.service.publishes.to_string(),
            s.service.skipped_unchanged.to_string(),
            s.service.detection_size.to_string(),
            format!("{:.3}", s.service.detection_density),
            region,
            merged,
        ]);
    }
    table.print();
    if let Some(n) = net {
        println!(
            "net: {} connection(s), {} frame(s), {} edges acked, {} parked frame(s), \
             {} malformed frame(s)",
            n.connections, n.frames, n.edges_accepted, n.busy_replies, n.malformed_frames,
        );
    }
    if global.unique_members > 0 {
        println!("{} distinct suspicious accounts across all shard views", global.unique_members);
    }
    let ranked: Vec<_> =
        global.distinct.iter().filter(|s| s.detection.size > 0).take(top).collect();
    if ranked.is_empty() {
        println!("no suspicious community detected");
    }
    for (rank, s) in ranked.iter().enumerate() {
        let sample: Vec<String> =
            s.detection.members.iter().take(8).map(|m| m.0.to_string()).collect();
        println!(
            "#{}: shard {}, {} members, density {:.3} (accounts {})",
            rank + 1,
            s.shard,
            s.detection.size,
            s.detection.density,
            sample.join(","),
        );
    }
    if let Some(r) = repaired {
        let stats = service.repair_stats();
        println!(
            "repair: {} regions exported, {} merged group(s); best shard density {:.3} -> \
             repaired {:.3} ({})",
            r.regions.len(),
            stats.groups_merged,
            r.baseline_density,
            r.detection.density,
            if r.repaired {
                format!("+{:.1}% recovered by the union re-peel", {
                    let base = r.baseline_density.max(1e-12);
                    (r.detection.density / base - 1.0) * 100.0
                })
            } else {
                "no cross-shard merge needed".to_string()
            },
        );
        let sample: Vec<String> =
            r.detection.members.iter().take(8).map(|m| m.0.to_string()).collect();
        println!(
            "repaired community: {} members, density {:.3} (accounts {})",
            r.detection.size,
            r.detection.density,
            sample.join(","),
        );
    }
}

/// `spade serve`: replay an edge list through the sharded parallel
/// runtime and report the merged detection.
pub fn serve(args: &Args) -> Result<(), AnyError> {
    let listen = args.str_opt("listen", "");
    // The front end's own options mean nothing to a file replay.
    let front_end: &[&str] =
        if listen.is_empty() { &[] } else { &["listen", "net-workers", "metrics"] };
    args.only(&[SHARDED_OPTIONS.as_slice(), front_end].concat())?;
    let shards = args.num_opt("shards", 4usize)?.max(1);
    if !listen.is_empty() {
        return serve_listen(args, shards, &listen);
    }
    run_sharded(args, shards, "serve needs an edge-list path (or --listen <addr>)")
}

/// `spade serve --listen <addr>`: the network front end. Producers feed
/// the sharded runtime over framed TCP until one of them sends the
/// Shutdown frame; then the usual sharded report is printed, extended
/// with the transport counters.
fn serve_listen(args: &Args, shards: usize, addr: &str) -> Result<(), AnyError> {
    let metric = metric_from(args)?;
    let top = args.num_opt("top", 3usize)?.max(1);
    let config = sharded_config_from(args, shards)?;
    // `--net-workers N`: event-loop threads in the reactor pool. Every
    // connection is multiplexed onto one of these; 2 keeps accept and
    // drain responsive without dedicating a thread per connection.
    let net_workers = args.num_opt("net-workers", ReactorConfig::default().workers)?.max(1);
    let service = Arc::new(ShardedSpadeService::spawn(metric, config));
    let server = SpadeNetServer::bind_with(
        Arc::clone(&service),
        addr,
        ReactorConfig { workers: net_workers, ..Default::default() },
    )
    .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    println!(
        "listening on {} ({} shards, {} net workers); stop with a Shutdown frame \
         (`spade ingest ... --shutdown`)",
        server.local_addr(),
        shards,
        net_workers,
    );
    // `--metrics <addr>` serves the live Prometheus exposition over
    // HTTP: the runtime's merged registry snapshot plus the transport
    // counters — the identical rendering a wire `Metrics` request gets.
    let metrics_addr = args.str_opt("metrics", "");
    let exporter = if metrics_addr.is_empty() {
        None
    } else {
        let runtime = Arc::clone(&service);
        let net = server.metrics_provider();
        let exporter = MetricsHttpServer::bind(
            metrics_addr.as_str(),
            Arc::new(move || runtime.metrics().merge(&net()).render_prometheus()),
        )
        .map_err(|e| format!("cannot serve metrics on {metrics_addr}: {e}"))?;
        println!("metrics exposition on http://{}/metrics", exporter.local_addr());
        Some(exporter)
    };
    let started = Instant::now();
    while !server.is_stopped() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let net = server.shutdown();
    // Every acknowledged edge sits in a shard queue; drain before the
    // report so the replay accounting is exact.
    if !service.barrier() {
        return Err("a shard shut down while draining acknowledged edges".into());
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    let repaired = if args.flag("repair") { Some(service.repair()) } else { None };
    print_sharded_report(
        &service,
        elapsed_secs,
        net.edges_accepted as usize,
        top,
        repaired.as_ref(),
        Some(&net),
    );
    // The exporter's render closure holds the runtime Arc — stop it
    // before unwrapping.
    if let Some(exporter) = exporter {
        exporter.shutdown();
    }
    let service =
        Arc::try_unwrap(service).map_err(|_| "a server thread still holds the runtime")?;
    service.shutdown();
    Ok(())
}

/// `spade ingest <addr> <edges.txt>`: a TCP producer replaying an edge
/// list into a `serve --listen` process with batched, pipelined frames.
pub fn ingest(args: &Args) -> Result<(), AnyError> {
    run_ingest(args).map(drop)
}

/// [`ingest`], returning the client's counters at its end.
fn run_ingest(args: &Args) -> Result<ClientStats, AnyError> {
    args.only(&["batch", "pipeline", "deadline-ms", "detect", "stats", "shutdown"])?;
    let addr = args.pos(0).ok_or("ingest needs a server address")?;
    let path = args.pos(1).ok_or("ingest needs an edge-list path")?;
    let records = load_records(path)?;
    let config = ClientConfig {
        batch: args.num_opt("batch", ClientConfig::default().batch)?.max(1),
        pipeline: args.num_opt("pipeline", ClientConfig::default().pipeline)?.max(1),
        // Attach a per-transaction budget to every frame (BatchBudget,
        // protocol v2) so the server's SLO scheduler paces these edges.
        budget: deadline_from(args)?,
    };
    let mut client = SpadeNetClient::connect_with(addr, config)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let started = Instant::now();
    for r in &records {
        client.submit(r.src, r.dst, r.weight)?;
    }
    client.drain()?;
    let elapsed = started.elapsed().as_secs_f64();
    let stats = client.stats();
    println!(
        "{} transactions acked over TCP in {:.1} ms ({:.0} tx/s, {} frames)",
        stats.edges_acked,
        elapsed * 1e3,
        stats.edges_acked as f64 / elapsed.max(1e-9),
        stats.frames_sent,
    );
    if args.flag("detect") {
        let det = client.detect()?;
        let sample: Vec<String> = det.members.iter().take(8).map(|m| m.0.to_string()).collect();
        println!(
            "server detection: {} members, density {:.3}, {} updates applied (accounts {})",
            det.size,
            det.density,
            det.updates_applied,
            sample.join(","),
        );
    }
    // A live read: `updates applied` covers every acked edge only after
    // `--detect`, the read-your-acks request.
    if args.flag("stats") {
        let s = client.server_stats()?;
        let depths: Vec<String> = s.shard_queue_depths.iter().map(u64::to_string).collect();
        println!(
            "server: {} shards, {} updates applied, {} queued ({}), up {:.1}s; net: \
             {} connection(s), {} frame(s), {} edges acked, {} parked frame(s), \
             {} malformed frame(s)",
            s.shards,
            s.updates_applied,
            s.queue_depth,
            depths.join("/"),
            s.uptime_secs,
            s.connections,
            s.frames,
            s.edges_accepted,
            s.busy_replies,
            s.malformed_frames,
        );
    }
    if args.flag("shutdown") {
        client.shutdown_server()?;
        println!("server shutdown requested");
    }
    Ok(client.stats())
}

/// `spade shard-serve [--listen <addr>]`: one shard of the multi-process
/// distributed runtime. Hosts a single [`SpadeService`] behind the
/// protocol-v6 shard listener (ingest plus `Region`, `Replicate`, and
/// `Bootstrap`) and prints the bound address
/// on the first stdout line so a parent process can scrape the chosen
/// port. Runs until a router sends `Shutdown`.
pub fn shard_serve(args: &Args) -> Result<(), AnyError> {
    args.only(&["listen", "metric", "queue", "grouping"])?;
    let metric = metric_from(args)?;
    let addr = args.str_opt("listen", &ShardServerConfig::default().addr);
    let queue = args.num_opt("queue", 1024usize)?.max(1);
    let grouping = args.flag("grouping").then(GroupingConfig::default);
    let service = Arc::new(SpadeService::spawn(SpadeEngine::new(metric), grouping, queue));
    let mut server = ShardServer::spawn(Arc::clone(&service), &ShardServerConfig { addr })
        .map_err(|e| format!("cannot listen: {e}"))?;
    // The first stdout line is machine-read by the router-side harness;
    // flush so a pipe reader sees it before the blocking serve loop.
    println!("{}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush()?;
    while !server.stopping() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.stop();
    drop(server);
    let service = Arc::try_unwrap(service)
        .map_err(|_| "a shard connection thread still holds the runtime")?;
    let det = service.shutdown();
    eprintln!(
        "shard stopped: {} members, density {:.3}, {} updates applied",
        det.size, det.density, det.updates_applied,
    );
    Ok(())
}

/// `spade route <edges.txt> <addr>...`: the router tier. Replays an edge
/// list across N shard-serve processes (replicated journaling on, so
/// every acked batch survives a single shard crash), runs the
/// cross-shard repair pass over the wire, and reports the distributed
/// detection plus router accounting.
pub fn route(args: &Args) -> Result<(), AnyError> {
    args.only(&["batch", "repair-hops", "no-replicate", "shutdown"])?;
    let path = args.pos(0).ok_or("route needs an edge-list path")?;
    let addrs: Vec<String> = (1..).map_while(|i| args.pos(i).map(str::to_string)).collect();
    if addrs.is_empty() {
        return Err("route needs at least one shard address".into());
    }
    let records = load_records(path)?;
    let config = RouterConfig {
        batch_edges: args.num_opt("batch", RouterConfig::default().batch_edges)?,
        hops: args.num_opt("repair-hops", RouterConfig::default().hops)?,
        replicate: !args.flag("no-replicate"),
    };
    let mut router = SpadeRouter::connect(&addrs, config)
        .map_err(|e| format!("cannot connect to shards: {e}"))?;
    let started = Instant::now();
    for r in &records {
        router.submit(r.src, r.dst, r.weight)?;
    }
    router.flush_batches()?;
    let outcome = router.repair()?;
    let elapsed = started.elapsed().as_secs_f64();
    let stats = router.stats();
    println!(
        "{} edges acked across {} shards in {:.1} ms ({:.0} tx/s, {} batches, \
         {} replicated)",
        stats.edges_acked,
        router.num_shards(),
        elapsed * 1e3,
        stats.edges_acked as f64 / elapsed.max(1e-9),
        stats.batches,
        stats.replicated,
    );
    let sample: Vec<String> = outcome.members.iter().take(8).map(|m| m.0.to_string()).collect();
    println!(
        "repaired detection: {} members, density {:.3} (baseline {:.3} on shard {}, \
         {} shard views merged, accounts {})",
        outcome.size,
        outcome.density,
        outcome.baseline_density,
        outcome.baseline_shard,
        outcome.merged_shards.len(),
        sample.join(","),
    );
    if args.flag("shutdown") {
        router.shutdown_shards()?;
        println!("shard shutdown requested");
    }
    Ok(())
}

/// One sample value out of a Prometheus text exposition: the line whose
/// full series name (labels included) equals `series`.
fn exposition_sample(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let (name, value) = line.rsplit_once(' ')?;
        if name == series {
            value.parse().ok()
        } else {
            None
        }
    })
}

/// Formats a nanosecond latency sample for the watch table.
fn fmt_latency_us(ns: Option<f64>) -> String {
    match ns {
        Some(v) => format!("{:.0}", v / 1e3),
        None => "-".to_string(),
    }
}

/// `spade watch <addr>`: poll a serving runtime over the wire and print
/// a refreshing stats + per-stage-latency table — the operator's live
/// view of back-pressure: per-shard queue depths building, and the
/// count of ingest frames that had to park on a full queue.
pub fn watch(args: &Args) -> Result<(), AnyError> {
    args.only(&["interval", "count"])?;
    let addr = args.pos(0).ok_or("watch needs a server address")?;
    let interval = Duration::from_millis(args.num_opt("interval", 1000u64)?.max(10));
    let count = args.num_opt("count", 0u64)?; // 0 = poll until the server goes away
    let mut client =
        SpadeNetClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let headers = [
        "tick",
        "uptime s",
        "updates",
        "queued",
        "per-shard",
        "parked",
        "q-wait p50/p99 us",
        "publish p50/p99 us",
        "ddl miss",
        "slack p50/p99 us",
    ];
    let mut tick = 0u64;
    loop {
        tick += 1;
        let s = client.server_stats()?;
        let m = client.server_metrics()?;
        let depths: Vec<String> = s.shard_queue_depths.iter().map(u64::to_string).collect();
        let quantiles = |name: &str| {
            let p50 = exposition_sample(&m.exposition, &format!("{name}{{quantile=\"0.5\"}}"));
            let p99 = exposition_sample(&m.exposition, &format!("{name}{{quantile=\"0.99\"}}"));
            format!("{}/{}", fmt_latency_us(p50), fmt_latency_us(p99))
        };
        // SLO columns: budgeted traffic shows its miss count and the
        // remaining-headroom distribution; unbudgeted traffic shows 0/-.
        let misses = exposition_sample(&m.exposition, "spade_deadline_miss_total")
            .map_or("-".to_string(), |v| format!("{v:.0}"));
        let mut table = Table::new(headers);
        table.row([
            tick.to_string(),
            format!("{:.1}", s.uptime_secs),
            s.updates_applied.to_string(),
            s.queue_depth.to_string(),
            depths.join("/"),
            s.busy_replies.to_string(),
            quantiles("spade_stage_queue_wait_ns"),
            quantiles("spade_stage_publish_ns"),
            misses,
            quantiles("spade_deadline_slack_ns"),
        ]);
        table.print();
        if count != 0 && tick >= count {
            break;
        }
        std::thread::sleep(interval);
    }
    Ok(())
}

/// `spade detect --shards N`: the same input, N parallel engines.
fn detect_sharded(args: &Args, shards: usize) -> Result<(), AnyError> {
    run_sharded(args, shards, "detect needs an edge-list path")
}

fn run_sharded(args: &Args, shards: usize, path_error: &'static str) -> Result<(), AnyError> {
    let path = args.pos(0).ok_or(path_error)?;
    let metric = metric_from(args)?;
    let top = args.num_opt("top", 3usize)?.max(1);
    let config = sharded_config_from(args, shards)?;
    let records = load_records(path)?;
    let service = ShardedSpadeService::spawn(metric, config);
    let started = Instant::now();
    for r in &records {
        if !service.submit(r.src, r.dst, r.weight) {
            return Err("a shard shut down while ingesting".into());
        }
    }
    // The barrier trails every insert in each shard's FIFO queue and
    // settles the shard's stage, so once it answers, every shard has
    // published counters covering every record and the report is exact.
    if !service.barrier() {
        return Err("a shard shut down while draining".into());
    }
    // Sample the replay clock before the (blocking) repair pass so the
    // reported tx/s measures ingest alone.
    let elapsed_secs = started.elapsed().as_secs_f64();
    let repaired = if args.flag("repair") { Some(service.repair()) } else { None };
    print_sharded_report(&service, elapsed_secs, records.len(), top, repaired.as_ref(), None);
    service.shutdown();
    Ok(())
}

/// `spade detect`: one static detection over the whole file.
pub fn detect(args: &Args) -> Result<(), AnyError> {
    args.only(&SHARDED_OPTIONS)?;
    let path = args.pos(0).ok_or("detect needs an edge-list path")?;
    let metric = metric_from(args)?;
    let top = args.num_opt("top", 3usize)?;
    let shards = args.num_opt("shards", 1usize)?.max(1);
    if shards > 1 {
        return detect_sharded(args, shards);
    }
    let records = load_records(path)?;
    let started = Instant::now();
    let mut engine = SpadeEngine::bootstrap(
        metric,
        SpadeConfig::default(),
        records.iter().map(|r| (r.src, r.dst, r.weight)),
    )?;
    println!(
        "{} transactions -> {} vertices / {} edges, peeled in {:.1} ms ({})",
        records.len(),
        engine.graph().num_vertices(),
        engine.graph().num_edges(),
        started.elapsed().as_secs_f64() * 1e3,
        engine.metric().name(),
    );
    print_communities(&mut engine, top);
    Ok(())
}

/// `spade stream`: bootstrap on a prefix, replay the rest incrementally.
pub fn stream(args: &Args) -> Result<(), AnyError> {
    args.only(&["metric", "initial", "batch", "grouping", "top"])?;
    let path = args.pos(0).ok_or("stream needs an edge-list path")?;
    let metric = metric_from(args)?;
    let initial = args.num_opt("initial", 0.9f64)?;
    if !(0.0..=1.0).contains(&initial) {
        return Err("--initial must be within [0, 1]".into());
    }
    let batch = args.num_opt("batch", 1usize)?.max(1);
    let grouping = args.flag("grouping");
    let records = load_records(path)?;
    let cut = ((records.len() as f64) * initial) as usize;
    let (head, tail) = records.split_at(cut.min(records.len()));

    let mut engine = SpadeEngine::bootstrap(
        metric,
        SpadeConfig::default(),
        head.iter().map(|r| (r.src, r.dst, r.weight)),
    )?;
    println!(
        "bootstrapped on {} transactions; replaying {} increments ({}, {})",
        head.len(),
        tail.len(),
        engine.metric().name(),
        if grouping { "edge grouping".to_string() } else { format!("batch {batch}") },
    );

    let started = Instant::now();
    if grouping {
        let mut grouper = EdgeGrouper::new(GroupingConfig::default());
        for r in tail {
            grouper.submit(&mut engine, r.src, r.dst, r.weight)?;
        }
        grouper.flush(&mut engine)?;
        let s = grouper.stats();
        println!("grouping: {} submitted, {} urgent, {} flushes", s.submitted, s.urgent, s.flushes);
    } else {
        let mut buf = Vec::with_capacity(batch);
        for chunk in tail.chunks(batch) {
            buf.clear();
            buf.extend(chunk.iter().map(|r| (r.src, r.dst, r.weight)));
            engine.insert_batch(&buf)?;
        }
    }
    let elapsed = started.elapsed();
    let stats = engine.total_reorder_stats();
    println!(
        "replayed in {:.1} ms ({:.1} us/edge); affected: {} windows, {} moved vertices, {} scanned edges",
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e6 / tail.len().max(1) as f64,
        stats.windows,
        stats.moved,
        stats.edges_scanned,
    );
    print_communities(&mut engine, args.num_opt("top", 3usize)?);
    Ok(())
}

/// `spade gen`: write a Table 3 surrogate dataset as an edge list.
pub fn generate(args: &Args) -> Result<(), AnyError> {
    args.only(&["dataset", "scale", "seed", "out"])?;
    let name = args.str_opt("dataset", "Grab1");
    let scale = args.num_opt("scale", 0.01f64)?;
    let seed = args.num_opt("seed", 42u64)?;
    let out = args.str_opt("out", "-");
    let spec = DatasetSpec::table3()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(&name))
        .ok_or_else(|| format!("unknown dataset {name:?} (see `spade help`)"))?;
    let data = spec.generate(scale, seed);
    let mut lines = String::new();
    for e in data.initial.iter().chain(&data.increments) {
        use std::fmt::Write as _;
        let _ = writeln!(lines, "{} {} {} {}", e.src, e.dst, e.raw, e.timestamp);
    }
    if out == "-" {
        print!("{lines}");
    } else {
        std::fs::write(&out, lines)?;
        eprintln!(
            "wrote {} transactions of {} (scale {scale}) to {out}",
            data.initial.len() + data.increments.len(),
            spec.name
        );
    }
    Ok(())
}

/// `spade snapshot`: bootstrap and persist engine state.
pub fn snapshot(args: &Args) -> Result<(), AnyError> {
    args.only(&["out", "metric"])?;
    let path = args.pos(0).ok_or("snapshot needs an edge-list path")?;
    let out = args.str_opt("out", "");
    if out.is_empty() {
        return Err("snapshot needs --out FILE".into());
    }
    let metric = metric_from(args)?;
    let records = load_records(path)?;
    let engine = SpadeEngine::bootstrap(
        metric,
        SpadeConfig::default(),
        records.iter().map(|r| (r.src, r.dst, r.weight)),
    )?;
    let file = std::fs::File::create(&out)?;
    save_engine(&engine, std::io::BufWriter::new(file))?;
    eprintln!(
        "snapshot of {} vertices / {} edges written to {out}",
        engine.graph().num_vertices(),
        engine.graph().num_edges()
    );
    Ok(())
}

/// `spade resume`: restore a snapshot and detect, with no re-peel.
pub fn resume(args: &Args) -> Result<(), AnyError> {
    args.only(&["metric", "top"])?;
    let path = args.pos(0).ok_or("resume needs a snapshot path")?;
    let metric = metric_from(args)?;
    let file = std::fs::File::open(path)?;
    let started = Instant::now();
    let mut engine = load_engine(metric, SpadeConfig::default(), std::io::BufReader::new(file))?;
    println!(
        "restored {} vertices / {} edges in {:.1} ms (no re-peel)",
        engine.graph().num_vertices(),
        engine.graph().num_edges(),
        started.elapsed().as_secs_f64() * 1e3
    );
    print_communities(&mut engine, args.num_opt("top", 3usize)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }

    /// A directory of the calling test's own: tests run in parallel, and
    /// one test rewriting a shared `edges.txt` (truncate, then write) lets
    /// another read it empty.
    fn temp_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spade_cli_test_{}_{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_sample_edges(dir: &std::path::Path) -> String {
        let path = dir.join("edges.txt");
        let mut content = String::new();
        // Background path + a dense ring.
        for i in 0..6 {
            content.push_str(&format!("u{i} u{} 1.0 {i}\n", i + 1));
        }
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    content.push_str(&format!("f{a} f{b} 30.0 {}\n", 100 + a * 4 + b));
                }
            }
        }
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn metric_selection() {
        assert_eq!(metric_from(&args("detect x")).unwrap().name(), "DW");
        assert_eq!(metric_from(&args("detect x --metric FD")).unwrap().name(), "FD");
        assert!(metric_from(&args("detect x --metric bogus")).is_err());
    }

    #[test]
    fn detect_command_runs() {
        let dir = temp_dir("detect_command_runs");
        let path = write_sample_edges(&dir);
        detect(&args(&format!("detect {path} --metric dw --top 2"))).unwrap();
    }

    #[test]
    fn stream_command_runs_in_both_modes() {
        let dir = temp_dir("stream_command_runs_in_both_modes");
        let path = write_sample_edges(&dir);
        stream(&args(&format!("stream {path} --metric dw --initial 0.5 --batch 4"))).unwrap();
        stream(&args(&format!("stream {path} --metric fd --initial 0.5 --grouping"))).unwrap();
    }

    #[test]
    fn gen_snapshot_resume_pipeline() {
        let dir = temp_dir("gen_snapshot_resume_pipeline");
        let edges = dir.join("gen.txt").to_string_lossy().into_owned();
        generate(&args(&format!("gen --dataset Wiki-Vote --scale 0.02 --seed 7 --out {edges}")))
            .unwrap();
        assert!(std::fs::metadata(&edges).unwrap().len() > 0);

        let snap = dir.join("state.spade").to_string_lossy().into_owned();
        snapshot(&args(&format!("snapshot {edges} --metric dg --out {snap}"))).unwrap();
        resume(&args(&format!("resume {snap} --metric dg --top 2"))).unwrap();
    }

    #[test]
    fn serve_command_runs_sharded() {
        let dir = temp_dir("serve_command_runs_sharded");
        let path = write_sample_edges(&dir);
        serve(&args(&format!("serve {path} --shards 4 --metric dw"))).unwrap();
        serve(&args(&format!("serve {path} --shards 2 --grouping"))).unwrap();
        serve(&args(&format!("serve {path} --shards 2 --coalesce 1"))).unwrap();
        serve(&args(&format!("serve {path} --shards 2 --deadline-ms 20"))).unwrap();
        serve(&args(&format!("serve {path} --shards 2 --deadline-ms 0.5"))).unwrap();
        assert!(serve(&args(&format!("serve {path} --shards 2 --deadline-ms -1"))).is_err());
    }

    #[test]
    fn detect_with_shards_runs() {
        let dir = temp_dir("detect_with_shards_runs");
        let path = write_sample_edges(&dir);
        detect(&args(&format!("detect {path} --metric dw --shards 3"))).unwrap();
    }

    #[test]
    fn repair_flag_runs_the_cross_shard_pass() {
        let dir = temp_dir("repair_flag_runs_the_cross_shard_pass");
        let path = write_sample_edges(&dir);
        detect(&args(&format!("detect {path} --metric dw --shards 4 --repair"))).unwrap();
        serve(&args(&format!("serve {path} --shards 2 --repair --repair-hops 2"))).unwrap();
    }

    #[test]
    fn serve_listen_and_ingest_roundtrip_over_loopback() {
        let dir = temp_dir("serve_listen_and_ingest_roundtrip_over_loopback");
        let path = write_sample_edges(&dir);
        // Reserve a free port, then release it for the server. The tiny
        // window between drop and rebind is raced only by other local
        // processes grabbing ephemeral ports — retried below just in
        // case.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let server = {
            let listen = addr.clone();
            std::thread::spawn(move || {
                serve(&args(&format!("serve --listen {listen} --shards 2 --repair")))
                    .map_err(|e| e.to_string())
            })
        };
        // The producer: retry until the server's listener is up.
        let mut attempts = 0;
        let stats = loop {
            match run_ingest(&args(&format!(
                "ingest {addr} {path} --batch 4 --pipeline 2 --detect --stats --shutdown"
            ))) {
                Ok(stats) => break stats,
                Err(_) if attempts < 100 => {
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(e) => panic!("ingest never reached the server: {e}"),
            }
        };
        // 18 edges in 5 batches, then `Detect`, `Stats`, and the `Flush`
        // and `Shutdown` of `--shutdown`: the replay itself sends no `Flush`.
        assert_eq!(stats.edges_acked, 18);
        assert_eq!(stats.frames_sent, 9);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn serve_metrics_exporter_and_watch_over_loopback() {
        use std::io::{Read as _, Write as _};

        let dir = temp_dir("serve_metrics_exporter_and_watch_over_loopback");
        let path = write_sample_edges(&dir);
        let (port, mport) = {
            let a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            (a.local_addr().unwrap().port(), b.local_addr().unwrap().port())
        };
        let addr = format!("127.0.0.1:{port}");
        let maddr = format!("127.0.0.1:{mport}");
        let server = {
            let listen = addr.clone();
            let metrics = maddr.clone();
            std::thread::spawn(move || {
                serve(&args(&format!("serve --listen {listen} --shards 2 --metrics {metrics}")))
                    .map_err(|e| e.to_string())
            })
        };
        // Feed edges (retry until the listener is up), keeping the
        // server alive for the scrape + watch below.
        let mut attempts = 0;
        loop {
            match ingest(&args(&format!("ingest {addr} {path} --batch 4 --deadline-ms 50 --stats")))
            {
                Ok(()) => break,
                Err(_) if attempts < 100 => {
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(e) => panic!("ingest never reached the server: {e}"),
            }
        }

        // Scrape the HTTP exposition and check the per-stage histograms
        // and transport counters came through.
        let mut stream = std::net::TcpStream::connect(&maddr).expect("scrape connect");
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("scrape read");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "got: {response}");
        for series in [
            "spade_stage_queue_wait_ns_count",
            "spade_stage_publish_ns_count",
            "spade_updates_total",
            "spade_net_edges_accepted_total",
            // The budgeted ingest above exercised the SLO scheduler: its
            // miss counter and slack histogram ride every scrape.
            "spade_deadline_miss_total",
            "spade_deadline_slack_ns_count",
        ] {
            assert!(response.contains(series), "missing {series} in:\n{response}");
        }

        // One watch tick renders the live table without error.
        watch(&args(&format!("watch {addr} --interval 10 --count 1"))).unwrap();

        ingest(&args(&format!("ingest {addr} {path} --batch 4 --shutdown"))).unwrap();
        server.join().unwrap().unwrap();
    }

    /// Every subcommand refuses an option it does not read, by name,
    /// before it opens a file or a socket.
    #[test]
    fn unknown_options_are_refused_by_name() {
        let dir = temp_dir("unknown_options_are_refused_by_name");
        let path = write_sample_edges(&dir);
        let err = serve(&args(&format!("serve {path} --shards 4 --partition conn --rebalance")))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--partition") && err.contains("--rebalance"), "{err}");
        let err = serve(&args(&format!("serve {path} --metrics 127.0.0.1:0"))).unwrap_err();
        assert!(err.to_string().contains("--metrics"), "{err}");
        type Command = fn(&Args) -> Result<(), AnyError>;
        let commands: [(&str, Command); 10] = [
            ("detect", detect),
            ("stream", stream),
            ("serve", serve),
            ("ingest", ingest),
            ("watch", watch),
            ("shard-serve", shard_serve),
            ("route", route),
            ("gen", generate),
            ("snapshot", snapshot),
            ("resume", resume),
        ];
        for (name, command) in commands {
            let err = command(&args(&format!("{name} {path} --bogus 1"))).unwrap_err();
            assert!(err.to_string().contains("--bogus"), "{name}: {err}");
        }
        // A sharded replay still takes every option its report reads.
        detect(&args(&format!("detect {path} --shards 2 --top 1 --repair --repair-hops 1")))
            .unwrap();
    }

    #[test]
    fn exposition_sample_parses_labeled_series() {
        let text = "# TYPE x summary\nx{quantile=\"0.5\"} 1200\nx_count 3\ny 7\n";
        assert_eq!(exposition_sample(text, "x{quantile=\"0.5\"}"), Some(1200.0));
        assert_eq!(exposition_sample(text, "x_count"), Some(3.0));
        assert_eq!(exposition_sample(text, "y"), Some(7.0));
        assert_eq!(exposition_sample(text, "missing"), None);
        assert_eq!(fmt_latency_us(Some(2500.0)), "2");
        assert_eq!(fmt_latency_us(None), "-");
    }

    #[test]
    fn helpful_errors() {
        assert!(detect(&args("detect")).is_err());
        assert!(detect(&args("detect /nonexistent/file")).is_err());
        assert!(stream(&args("stream missing.txt --initial 2.0")).is_err());
        assert!(generate(&args("gen --dataset NotADataset")).is_err());
        assert!(snapshot(&args("snapshot whatever.txt")).is_err());
        assert!(serve(&args("serve")).is_err());
        assert!(serve(&args("serve missing.txt --partitioner bogus")).is_err());
        assert!(ingest(&args("ingest")).is_err());
        assert!(ingest(&args("ingest 127.0.0.1:1 missing.txt")).is_err());
        assert!(watch(&args("watch")).is_err());
        assert!(watch(&args("watch 127.0.0.1:1 --count 1")).is_err());
        assert!(serve(&args("serve --listen 256.256.256.256:0")).is_err());
    }
}
