//! `shard_burst` and `router_burst`: the same stream pushed as fast as
//! it is accepted (closed loop, saturating) through the in-process
//! sharded runtime and through the router tier in front of two shard
//! servers. They differ only by the tier, so the router's overhead is
//! one subtraction. Detection latency here is a 512-edge frame's
//! *visibility* latency: from the producer's first call for the frame
//! to the first read of the published detections that covers every edge
//! offered up to and including it — admission wait, queue wait, apply
//! and publish together.

use super::{
    check_against_solo, graph_layers, proc_status_kb, repair_layers, service_layers, Ctx, Memory,
    Pass,
};
use crate::input::{digest, generate, Edge, StreamSpec};
use crate::trace::Tracer;
use spade_core::shard::{HashPartitioner, Partitioner};
use spade_core::{
    IngestConfig, PartitionStrategy, ShardedConfig, ShardedSpadeService, SpadeEngine, SpadeService,
    WeightedDensity,
};
use spade_net::{
    FrameDecoder, RouterConfig, ShardServer, ShardServerConfig, SpadeRouter, WireFrame,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sized so one `shard_burst` pass takes ~0.45 s at the seed commit.
const BURST: StreamSpec = StreamSpec { customers: 25_000, merchants: 6_250, transactions: 200_000 };

pub const SHARDS: usize = 2;
const FRAME: usize = 512;
const QUEUE: usize = 8192;
const COALESCE: usize = 1024;
/// Pause before re-offering a frame's refused suffix, and between reads
/// of the applied count while the queues drain: short beside the ~40 ms
/// a full queue holds, long enough that the waiting producer leaves
/// the cores to the shard workers.
const POLL: Duration = Duration::from_micros(250);
/// A drain that has not caught up by now never will (a worker died).
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

pub fn sharded_config() -> ShardedConfig {
    ShardedConfig {
        shards: SHARDS,
        queue_capacity: QUEUE,
        coalesce: COALESCE,
        strategy: PartitionStrategy::HashBySource,
        ..Default::default()
    }
}

/// Frames offered whose edges the published detections do not cover
/// yet, oldest first, and the visibility latency of those they do.
/// Counts are kept per queue (`N` of them) where the producer knows
/// which queue took each edge, and as one total where it does not.
#[derive(Default)]
struct Visibility<const N: usize> {
    /// (edges offered to each queue up to and including the frame, the
    /// frame's first call).
    pending: VecDeque<([u64; N], Instant)>,
    latencies_ns: Vec<u64>,
}

impl<const N: usize> Visibility<N> {
    fn offered(&mut self, edges_so_far: [u64; N], since: Instant) {
        self.pending.push_back((edges_so_far, since));
    }

    /// One read of the applied counts: every pending frame they cover
    /// became visible now at the latest. A queue is applied in arrival
    /// order, so frames become visible in the order they were offered.
    fn observe(&mut self, applied: [u64; N]) {
        let now = Instant::now();
        while let Some(&(edges_so_far, since)) = self.pending.front() {
            if edges_so_far.iter().zip(&applied).any(|(offered, applied)| offered > applied) {
                break;
            }
            self.latencies_ns.push((now - since).as_nanos() as u64);
            self.pending.pop_front();
        }
    }

    /// Reads `applied` every [`POLL`] until every frame is visible.
    fn catch_up(&mut self, mut applied: impl FnMut() -> [u64; N]) -> Result<(), String> {
        let started = Instant::now();
        loop {
            self.observe(applied());
            if self.pending.is_empty() {
                return Ok(());
            }
            if started.elapsed() > DRAIN_LIMIT {
                return Err(format!("{} frames never became visible", self.pending.len()));
            }
            std::thread::sleep(POLL);
        }
    }
}

pub fn shard(ctx: &Ctx) -> Result<Pass, String> {
    let started = Instant::now();
    let edges = generate(BURST.scaled(ctx.scale), ctx.input_seed());
    let inputs_rss_kb = proc_status_kb("VmRSS");
    let service = ShardedSpadeService::spawn(WeightedDensity, sharded_config());
    let setup_ns = started.elapsed().as_nanos() as u64;

    // Per shard: `submit_batch` says which shard took how many edges.
    let visible = |service: &ShardedSpadeService| -> [u64; SHARDS] {
        std::array::from_fn(|shard| service.shard_detection(shard).updates_applied)
    };
    let mut seen = Visibility::<SHARDS>::default();
    let (mut calls, mut full_calls, mut submit_ns, mut blocked_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut queue_depth_max, mut offered, mut closed) = (0u64, [0u64; SHARDS], false);
    let mut tracer = Tracer::new(ctx.traced, Instant::now());
    let (repaired, wall_ns) = tracer.timed("pass", 0, |tracer| {
        for (f, frame) in edges.chunks(FRAME).enumerate() {
            let id = f as u64;
            let since = Instant::now();
            tracer.timed("frame", id, |tracer| {
                let mut rest: &[Edge] = frame;
                loop {
                    let (result, ns) = tracer
                        .timed("shard_service.submit", id, |_| service.submit_batch(rest, None));
                    calls += 1;
                    submit_ns += ns;
                    closed |= result.closed;
                    for (total, taken) in offered.iter_mut().zip(&result.shard_counts) {
                        *total += *taken as u64;
                    }
                    rest = &rest[result.accepted..];
                    if rest.is_empty() || closed {
                        break;
                    }
                    full_calls += 1;
                    blocked_ns +=
                        tracer.timed("shard_service.blocked", id, |_| std::thread::sleep(POLL)).1;
                    tracer.timed("service.read", id, |_| seen.observe(visible(&service)));
                }
                seen.offered(offered, since);
                tracer.timed("service.read", id, |_| {
                    std::hint::black_box(service.current_detection());
                    seen.observe(visible(&service));
                });
            });
            if tracer.is_on() {
                let depth: usize = service.stats().iter().map(|s| s.service.queue_depth).sum();
                queue_depth_max = queue_depth_max.max(depth as u64);
            }
            if closed {
                return Err("a shard shut down mid-run".to_string());
            }
        }
        tracer
            .timed("drain", 0, |tracer| {
                tracer.timed("service.flush", 0, |_| service.flush());
                tracer.timed("service.catch_up", 0, |_| seen.catch_up(|| visible(&service))).0?;
                Ok(tracer.timed("repair.pass", 0, |_| service.repair()).0)
            })
            .0
    });
    let repaired = repaired.map_err(|e| format!("shard_burst: {e}"))?;
    let memory = Memory::read();

    let stats = service.stats();
    let applied: u64 = stats.iter().map(|s| s.service.updates_applied).sum();
    let rejected: u64 = stats.iter().map(|s| s.service.rejected).sum();
    let attempted = edges.len() as u64;
    // Every frame is retried until admitted, so acked == attempted.
    if applied != attempted {
        return Err(format!("shard_burst: acked {attempted} edges but applied {applied}"));
    }
    let (reference, members) = check_against_solo(
        "repaired sharded detection vs solo engine",
        &edges,
        &repaired.detection.members,
        repaired.detection.density,
    )?;

    let mut layers = vec![
        ("shard_service.submit_ns_per_edge", submit_ns as f64 / attempted as f64),
        ("shard_service.full_ratio", full_calls as f64 / calls as f64),
        ("shard_service.blocked_ms", blocked_ns as f64 / 1e6),
        ("service.queue_depth_max", queue_depth_max as f64),
    ];
    repair_layers(service.repair_stats().last_pass_ns, &repaired.regions, &mut layers);
    service_layers(&service.metrics(), wall_ns, SHARDS, &mut layers);
    if ctx.traced {
        let started = Instant::now();
        for _ in 0..1000 {
            std::hint::black_box(service.current_detection());
        }
        layers.push(("engine.detect_ns", started.elapsed().as_nanos() as f64 / 1000.0));
        partition_layers(&edges, &mut layers);
        let per_edge = wall_ns as f64 / attempted as f64;
        graph_layers(reference.graph(), &members, per_edge, &mut layers);
    }
    service.shutdown();

    Ok(Pass {
        setup_ns,
        wall_ns,
        attempted,
        failed: rejected,
        applied,
        latencies_ns: seen.latencies_ns,
        input_digest: digest(&edges),
        resident_edges: reference.graph().num_edges() as u64,
        inputs_rss_kb,
        memory,
        layers,
        spans: tracer.into_spans(),
    })
}

/// `Partitioner::route` replayed over the workload's edges.
pub fn partition_layers(edges: &[Edge], layers: &mut Vec<(&'static str, f64)>) {
    let mut partitioner = HashPartitioner;
    let mut per_shard = [0u64; SHARDS];
    let started = Instant::now();
    for &(src, dst, _) in edges {
        per_shard[partitioner.route(src, dst, SHARDS)] += 1;
    }
    let route_ns = started.elapsed().as_nanos() as f64;
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    layers.extend([
        ("partition.route_ns_per_edge", route_ns / edges.len() as f64),
        ("partition.skew", max * SHARDS as f64 / edges.len() as f64),
    ]);
}

/// The workload's `Batch` frames re-run through the codec: encode each,
/// then feed the bytes to a `FrameDecoder` and pull the frames back.
pub fn wire_layers(edges: &[Edge], frame_edges: usize, layers: &mut Vec<(&'static str, f64)>) {
    let frames: Vec<WireFrame> =
        edges.chunks(frame_edges).map(|c| WireFrame::Batch { edges: c.to_vec() }).collect();
    let started = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(WireFrame::encode).collect();
    let encode_ns = started.elapsed().as_nanos() as f64;
    let mut decoder = FrameDecoder::new();
    let mut decoded = 0usize;
    let started = Instant::now();
    for bytes in &encoded {
        decoder.extend(bytes);
        while let Ok(Some(frame)) = decoder.next_frame() {
            std::hint::black_box(&frame);
            decoded += 1;
        }
    }
    let decode_ns = started.elapsed().as_nanos() as f64;
    assert_eq!(decoded, frames.len(), "codec replay lost frames");
    let n = edges.len() as f64;
    layers.extend([
        ("wire.encode_ns_per_edge", encode_ns / n),
        ("wire.decode_ns_per_edge", decode_ns / n),
        ("wire.bytes_per_edge", encoded.iter().map(Vec::len).sum::<usize>() as f64 / n),
        ("wire.frames", frames.len() as f64),
    ]);
}

/// Two shard servers on loopback plus a connected router.
struct RouterStack {
    services: Vec<Arc<SpadeService>>,
    servers: Vec<ShardServer>,
    router: SpadeRouter,
}

impl RouterStack {
    fn spawn(replicate: bool) -> Result<RouterStack, String> {
        let ingest = IngestConfig { queue_capacity: QUEUE, coalesce: COALESCE, deadline: None };
        let services: Vec<Arc<SpadeService>> = (0..SHARDS)
            .map(|i| {
                let engine = SpadeEngine::new(WeightedDensity);
                Arc::new(SpadeService::spawn_with(engine, None, ingest, format!("bench-shard-{i}")))
            })
            .collect();
        let servers = services
            .iter()
            .map(|s| ShardServer::spawn(Arc::clone(s), &ShardServerConfig::default()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("bind shard server: {e}"))?;
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let config = RouterConfig { batch_edges: FRAME, replicate, ..Default::default() };
        let router =
            SpadeRouter::connect(&addrs, config).map_err(|e| format!("connect router: {e}"))?;
        Ok(RouterStack { services, servers, router })
    }

    /// Edges the shards' published detections cover, as one total: the
    /// router does not say which shard an edge went to. Read in
    /// process: a `Stats` frame would queue behind the load.
    fn visible(&self) -> [u64; 1] {
        [self.services.iter().map(|s| s.current_detection().updates_applied).sum()]
    }

    /// Submits every edge, one span per `FRAME` edges, reading the
    /// applied count after each. Returns (time in `submit`, max total
    /// shard queue depth).
    fn ingest(
        &mut self,
        edges: &[Edge],
        seen: &mut Visibility<1>,
        tracer: &mut Tracer,
    ) -> Result<(u64, u64), String> {
        let (mut ship_ns, mut depth_max, mut offered) = (0u64, 0u64, 0u64);
        for (f, frame) in edges.chunks(FRAME).enumerate() {
            let since = Instant::now();
            let (result, ns) = tracer.timed("router.submit", f as u64, |_| {
                frame.iter().try_for_each(|&(src, dst, raw)| self.router.submit(src, dst, raw))
            });
            result.map_err(|e| format!("router submit: {e}"))?;
            ship_ns += ns;
            offered += frame.len() as u64;
            seen.offered([offered], since);
            tracer.timed("service.read", f as u64, |_| seen.observe(self.visible()));
            if tracer.is_on() {
                let depth: usize = self.services.iter().map(|s| s.stats().queue_depth).sum();
                depth_max = depth_max.max(depth as u64);
            }
        }
        Ok((ship_ns, depth_max))
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.router.shutdown_shards().map_err(|e| format!("shutdown shards: {e}"))?;
        drop(self.router);
        for server in self.servers {
            drop(server.into_service());
        }
        for service in self.services {
            let Ok(service) = Arc::try_unwrap(service) else {
                return Err("a shard-server thread still holds its service".into());
            };
            service.shutdown();
        }
        Ok(())
    }
}

pub fn router(ctx: &Ctx) -> Result<Pass, String> {
    let started = Instant::now();
    let edges = generate(BURST.scaled(ctx.scale), ctx.input_seed());
    let inputs_rss_kb = proc_status_kb("VmRSS");
    let mut stack = RouterStack::spawn(true)?;
    let setup_ns = started.elapsed().as_nanos() as u64;

    let mut seen = Visibility::<1>::default();
    let mut tracer = Tracer::new(ctx.traced, Instant::now());
    let (timed, wall_ns) = tracer.timed("pass", 0, |tracer| {
        let (ship_ns, depth_max) = stack.ingest(&edges, &mut seen, tracer)?;
        let (drained, _) = tracer.timed("drain", 0, |tracer| {
            let (flushed, _) = tracer.timed("router.flush", 0, |_| stack.router.flush_batches());
            flushed.map_err(|e| format!("router flush: {e}"))?;
            tracer.timed("service.catch_up", 0, |_| seen.catch_up(|| stack.visible())).0?;
            let (outcome, ns) = tracer.timed("repair.pass", 0, |_| stack.router.repair());
            Ok::<_, String>((outcome.map_err(|e| format!("router repair: {e}"))?, ns))
        });
        let (outcome, repair_ns) = drained?;
        Ok::<_, String>((ship_ns, depth_max, outcome, repair_ns))
    });
    let (ship_ns, depth_max, outcome, repair_ns) =
        timed.map_err(|e| format!("router_burst: {e}"))?;
    let memory = Memory::read();

    let router_stats = stack.router.stats();
    let applied: u64 = stack
        .router
        .shard_stats()
        .map_err(|e| format!("shard stats: {e}"))?
        .iter()
        .flatten()
        .map(|s| s.updates_applied)
        .sum();
    let attempted = edges.len() as u64;
    if router_stats.edges_acked != attempted || applied != attempted {
        return Err(format!(
            "router_burst: attempted {attempted}, acked {}, applied {applied}",
            router_stats.edges_acked
        ));
    }
    let (reference, members) = check_against_solo(
        "repaired routed detection vs solo engine",
        &edges,
        &outcome.members,
        outcome.density,
    )?;

    let ship_ns = ship_ns as f64 / attempted as f64;
    let mut layers = vec![
        ("router.ship_ns_per_edge", ship_ns),
        ("router.batches", router_stats.batches as f64),
        ("router.replicated", router_stats.replicated as f64),
        ("router.busy_retries", router_stats.busy_retries as f64),
        ("shard_server.applied_edges", applied as f64),
        ("shard_server.queue_depth_max", depth_max as f64),
    ];
    repair_layers(repair_ns, &outcome.regions, &mut layers);
    let metrics = stack
        .services
        .iter()
        .fold(spade_metrics::MetricsSnapshot::default(), |m, s| m.merge(&s.metrics()));
    service_layers(&metrics, wall_ns, SHARDS, &mut layers);
    stack.shutdown()?;
    if ctx.traced && ctx.pass == 0 {
        // The replica hop: the same ingest without the journal write.
        // One subtraction per run; it costs a whole extra ingest.
        let mut plain = RouterStack::spawn(false)?;
        let (base_ns, _) = plain.ingest(
            &edges,
            &mut Visibility::default(),
            &mut Tracer::new(false, Instant::now()),
        )?;
        plain.router.flush_batches().map_err(|e| format!("router flush: {e}"))?;
        plain.shutdown()?;
        let base_ns = base_ns as f64 / attempted as f64;
        layers.push(("router.replica_hop_ns_per_edge", ship_ns - base_ns));
    }
    if ctx.traced {
        partition_layers(&edges, &mut layers);
        wire_layers(&edges, FRAME, &mut layers);
        let per_edge = wall_ns as f64 / attempted as f64;
        graph_layers(reference.graph(), &members, per_edge, &mut layers);
    }

    Ok(Pass {
        setup_ns,
        wall_ns,
        attempted,
        failed: 0,
        applied,
        latencies_ns: seen.latencies_ns,
        input_digest: digest(&edges),
        resident_edges: reference.graph().num_edges() as u64,
        inputs_rss_kb,
        memory,
        layers,
        spans: tracer.into_spans(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_is_visible_once_the_applied_count_covers_it() {
        let mut seen = Visibility::<1>::default();
        let since = Instant::now();
        seen.offered([512], since);
        seen.offered([1024], since);
        seen.offered([1536], since);
        seen.observe([511]);
        assert!(seen.latencies_ns.is_empty(), "one edge short of the first frame");
        seen.observe([1100]);
        assert_eq!((seen.latencies_ns.len(), seen.pending.len()), (2, 1));
        // Latency runs from the frame's first call to the covering read.
        std::thread::sleep(Duration::from_millis(2));
        let mut polls = 0;
        seen.catch_up(|| {
            polls += 1;
            [1024 + 256 * polls]
        })
        .expect("the count reaches the last frame");
        assert_eq!((polls, seen.pending.len()), (2, 0));
        assert!(seen.latencies_ns[2] >= 2_000_000 && seen.latencies_ns[2] > seen.latencies_ns[1]);
    }

    #[test]
    fn every_queue_must_cover_its_share_of_the_frame() {
        let mut seen = Visibility::<2>::default();
        seen.offered([300, 212], Instant::now());
        seen.observe([512, 211]);
        assert!(seen.latencies_ns.is_empty(), "the total covers it, the second queue does not");
        seen.observe([300, 212]);
        assert_eq!(seen.latencies_ns.len(), 1);
    }
}
