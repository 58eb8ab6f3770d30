//! `net_rounds`: the latency path. Two client connections each send a
//! 64-edge round followed by a read-your-acks `detect()` and start the
//! next round when the reply arrives (closed loop, two callers) against
//! a reactor-fronted two-shard runtime on loopback. Detection latency
//! is one round: from its first `submit` to the `Detect` reply that
//! covers it.
//!
//! The same rounds on a fixed schedule (open loop) through a three-step
//! rate ladder run once per traced run and feed the per-layer list
//! only: between paced rounds the cores idle, and how fast this host
//! wakes an idle core drifts by half within minutes, so those latencies
//! carry no bound.

use super::burst::{partition_layers, sharded_config, wire_layers, SHARDS};
use super::{
    check_against_solo, graph_layers, proc_status_kb, repair_layers, service_layers, Ctx, Memory,
    Pass,
};
use crate::input::{digest, generate, Edge, StreamSpec};
use crate::pace::{wait_until, Schedule, Step};
use crate::stats::{median_u64, percentile};
use crate::trace::{merge, Span, Tracer};
use spade_core::shard::RepairedDetection;
use spade_core::{ShardedSpadeService, SpadeEngine, WeightedDensity};
use spade_graph::VertexId;
use spade_net::{ClientConfig, ClientStats, ReactorConfig, SpadeNetClient, SpadeNetServer};
use std::sync::Arc;
use std::time::Instant;

const CONNECTIONS: usize = 2;
const ROUND: usize = 64;
/// Rounds of one closed-loop pass, both connections together: ~1.6 s
/// at the seed commit's ~1 500 rounds/s.
const ROUNDS: usize = 2_400;

/// The ladder, frozen at the seed commit: 8 %, 40 % and 56 % of the
/// rate the closed loop reaches. Latencies are read at the middle step.
const LADDER: [Step; 3] = [
    Step { rate_eps: 7_680.0, secs: 0.2 },
    Step { rate_eps: 38_400.0, secs: 2.0 },
    Step { rate_eps: 53_760.0, secs: 0.8 },
];
const MIDDLE: usize = 1;

/// A step sustains its rate only if its p99 stays within this limit
/// (~3× the seed commit's middle-step p99).
pub const DETECT_LIMIT_US: u64 = 7_000;

/// A small universe keeps the engine's share small and steady while
/// the stream runs: this workload is about the path, not the peel.
const CUSTOMERS: usize = 4_000;
const MERCHANTS: usize = 1_000;

#[derive(Clone, Copy)]
struct Round {
    index: usize,
    /// How long after its due time the round was released (paced only).
    lag_ns: u64,
    /// From the due time (paced) or the first `submit` (closed loop) to
    /// the `Detect` reply.
    latency_ns: u64,
    detect_ns: u64,
}

struct Sent {
    rounds: Vec<Round>,
    submit_ns: u64,
    stats: ClientStats,
    spans: Vec<Span>,
}

/// The server side of one pass; `spawn` also hands back the connected
/// clients, which the connection threads take over.
struct Stack {
    service: Arc<ShardedSpadeService>,
    server: SpadeNetServer,
}

impl Stack {
    fn spawn() -> Result<(Stack, Vec<SpadeNetClient>), String> {
        let service = Arc::new(ShardedSpadeService::spawn(WeightedDensity, sharded_config()));
        let reactor = ReactorConfig { workers: 2, ..Default::default() };
        let server = SpadeNetServer::bind_with(Arc::clone(&service), "127.0.0.1:0", reactor)
            .map_err(|e| format!("bind server: {e}"))?;
        let config = ClientConfig { batch: ROUND, ..Default::default() };
        let clients = (0..CONNECTIONS)
            .map(|_| SpadeNetClient::connect_with(server.local_addr(), config))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect client: {e}"))?;
        Ok((Stack { service, server }, clients))
    }

    /// Runs every round of `edges`, each connection taking every
    /// `CONNECTIONS`-th, on `schedule` or (without one) back to back.
    fn run(
        &self,
        clients: Vec<SpadeNetClient>,
        edges: &[Edge],
        schedule: Option<&Schedule>,
        start: Instant,
        traced: bool,
    ) -> Result<Vec<Sent>, String> {
        let sent: Vec<Result<Sent, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(conn, client)| {
                    scope.spawn(move || send(conn, client, edges, schedule, start, traced))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect()
        });
        sent.into_iter().collect()
    }

    /// The exactness gates: every edge acked and applied exactly once,
    /// and the repaired detection equal to a solo engine's. Returns that
    /// engine and its community.
    fn check(
        &self,
        what: &str,
        edges: &[Edge],
        sent: &[Sent],
        repaired: &RepairedDetection,
    ) -> Result<(SpadeEngine<WeightedDensity>, Vec<VertexId>), String> {
        let acked: u64 = sent.iter().map(|s| s.stats.edges_acked).sum();
        let applied: u64 = self.service.stats().iter().map(|s| s.service.updates_applied).sum();
        let attempted = edges.len() as u64;
        if acked != attempted || applied != acked {
            return Err(format!("{what}: attempted {attempted}, acked {acked}, applied {applied}"));
        }
        check_against_solo(what, edges, &repaired.detection.members, repaired.detection.density)
    }

    fn shutdown(self) -> Result<(), String> {
        self.server.shutdown();
        let Ok(service) = Arc::try_unwrap(self.service) else {
            return Err("a reactor worker still holds the service".into());
        };
        service.shutdown();
        Ok(())
    }
}

fn send(
    conn: usize,
    mut client: SpadeNetClient,
    edges: &[Edge],
    schedule: Option<&Schedule>,
    start: Instant,
    traced: bool,
) -> Result<Sent, String> {
    let total = edges.len() / ROUND;
    let mut rounds = Vec::with_capacity(total / CONNECTIONS + 1);
    let mut submit_ns = 0u64;
    let mut tracer = Tracer::new(traced, start);
    let (result, _) = tracer.timed("connection", conn as u64, |tracer| {
        for index in (conn..total).step_by(CONNECTIONS) {
            let id = index as u64;
            let due_ns = match schedule {
                Some(schedule) => schedule.due_ns(index),
                None => start.elapsed().as_nanos() as u64,
            };
            let lag_ns = if schedule.is_some() { wait_until(start, due_ns) } else { 0 };
            let batch = &edges[index * ROUND..(index + 1) * ROUND];
            let (reply, _) = tracer.timed("client.round", id, |tracer| {
                let (sent, ns) = tracer.timed("client.submit", id, |_| {
                    batch.iter().try_for_each(|&(src, dst, raw)| client.submit(src, dst, raw))
                });
                submit_ns += ns;
                sent?;
                let (reply, detect_ns) = tracer.timed("client.detect", id, |_| client.detect());
                reply.map(|r| (r, detect_ns))
            });
            let latency_ns = (start.elapsed().as_nanos() as u64).saturating_sub(due_ns);
            let (reply, detect_ns) =
                reply.map_err(|e| format!("connection {conn}, round {index}: {e}"))?;
            // Read-your-acks: the reply must cover every edge this
            // connection has had acknowledged.
            let acked = client.stats().edges_acked;
            if reply.updates_applied < acked {
                return Err(format!(
                    "connection {conn}, round {index}: Detect covers {} edges, {acked} were acked",
                    reply.updates_applied
                ));
            }
            rounds.push(Round { index, lag_ns, latency_ns, detect_ns });
        }
        Ok::<(), String>(())
    });
    result?;
    let stats = client.finish().map_err(|e| format!("connection {conn}: final flush: {e}"))?;
    Ok(Sent { rounds, submit_ns, stats, spans: tracer.into_spans() })
}

fn stream(rounds: usize, seed: u64) -> Vec<Edge> {
    let spec =
        StreamSpec { customers: CUSTOMERS, merchants: MERCHANTS, transactions: rounds * ROUND };
    generate(spec, seed)
}

pub fn rounds(ctx: &Ctx) -> Result<Pass, String> {
    let started = Instant::now();
    let edges =
        stream(((ROUNDS as f64 * ctx.scale) as usize).max(2 * CONNECTIONS), ctx.input_seed());
    let inputs_rss_kb = proc_status_kb("VmRSS");
    let (stack, clients) = Stack::spawn()?;
    let setup_ns = started.elapsed().as_nanos() as u64;

    let edges = edges.as_slice();
    let start = Instant::now();
    let sent = stack.run(clients, edges, None, start, ctx.traced)?;
    let mut tracer = Tracer::new(ctx.traced, start);
    let (repaired, _) = tracer
        .timed("drain", 0, |tracer| tracer.timed("repair.pass", 0, |_| stack.service.repair()).0);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let memory = Memory::read();

    let (reference, members) =
        stack.check("repaired networked detection vs solo engine", edges, &sent, &repaired)?;
    let rejected: u64 = stack.service.stats().iter().map(|s| s.service.rejected).sum();

    let mut rounds: Vec<Round> = sent.iter().flat_map(|s| s.rounds.iter().copied()).collect();
    rounds.sort_unstable_by_key(|r| r.index);
    let detect_rtts: Vec<u64> = rounds.iter().map(|r| r.detect_ns).collect();
    let frames_sent: u64 = sent.iter().map(|s| s.stats.frames_sent).sum();
    // Batch + Flush + Detect per round, and one closing Flush per connection.
    let minimum_frames = (3 * rounds.len() + CONNECTIONS) as f64;
    let net = stack.server.metrics();
    let net_stats = stack.server.stats();
    let dispatch = net.histograms.get("spade_net_reactor_dispatch_ns").cloned().unwrap_or_default();
    let counter = |name: &str| net.counters.get(name).copied().unwrap_or(0) as f64;
    let wakeups = counter("spade_net_reactor_wakeups_total");
    let mut layers = vec![
        ("gen.rounds", rounds.len() as f64),
        (
            "client.submit_ns_per_edge",
            sent.iter().map(|s| s.submit_ns).sum::<u64>() as f64 / edges.len() as f64,
        ),
        ("client.detect_rtt_p50_us", median_u64(&detect_rtts) / 1e3),
        ("client.busy_replies", sent.iter().map(|s| s.stats.busy_replies).sum::<u64>() as f64),
        ("client.frames_sent", frames_sent as f64),
        ("client.retry_ratio", frames_sent as f64 / minimum_frames),
        ("reactor.dispatch_p50_ns", dispatch.p50() as f64),
        ("reactor.dispatch_p99_ns", dispatch.p99() as f64),
        ("reactor.wakeups", wakeups),
        ("reactor.frames_per_wakeup", net_stats.frames as f64 / wakeups.max(1.0)),
        ("reactor.budget_exhausted", counter("spade_net_reactor_budget_exhausted_total")),
        ("server.frames", net_stats.frames as f64),
        ("server.busy_replies", net_stats.busy_replies as f64),
    ];
    repair_layers(stack.service.repair_stats().last_pass_ns, &repaired.regions, &mut layers);
    service_layers(&stack.service.metrics(), wall_ns, SHARDS, &mut layers);
    if ctx.traced {
        partition_layers(edges, &mut layers);
        wire_layers(edges, ROUND, &mut layers);
        let per_edge = wall_ns as f64 / edges.len() as f64;
        graph_layers(reference.graph(), &members, per_edge, &mut layers);
    }
    stack.shutdown()?;
    if ctx.traced && ctx.pass == 0 {
        // Once per run; it costs a whole extra stack and ~3 s.
        layers.extend(ladder(ctx)?);
    }

    let mut spans = tracer.into_spans();
    let latencies_ns = rounds.iter().map(|r| r.latency_ns).collect();
    for s in sent {
        merge(&mut spans, s.spans);
    }
    Ok(Pass {
        setup_ns,
        wall_ns,
        attempted: edges.len() as u64,
        failed: rejected,
        applied: edges.len() as u64,
        latencies_ns,
        input_digest: digest(edges),
        resident_edges: reference.graph().num_edges() as u64,
        inputs_rss_kb,
        memory,
        layers,
        spans,
    })
}

/// A ladder step sustains its rate when its tail latency is within the
/// limit and the generator is no further behind at the step's end than
/// after its first quarter (no growing backlog). The tail is p99, or on
/// a short step the highest percentile that still has ten rounds
/// beyond it.
fn sustained(rounds: &[Round], period_ns: u64) -> bool {
    let mut latencies: Vec<u64> = rounds.iter().map(|r| r.latency_ns).collect();
    latencies.sort_unstable();
    let tail_q = (1.0 - 10.0 / rounds.len() as f64).clamp(0.5, 0.99);
    let backlog = |r: &Round| r.lag_ns / period_ns;
    let tail = |from: usize| rounds[from..].iter().take(CONNECTIONS).map(backlog).max();
    percentile(&latencies, tail_q) <= DETECT_LIMIT_US * 1000
        && tail(rounds.len().saturating_sub(CONNECTIONS)) <= tail(rounds.len() / 4).map(|b| b + 1)
}

/// The paced rounds: a fresh stack driven through [`LADDER`] on a fixed
/// schedule, latency charged from each round's *due* time so a stall is
/// paid by every round it delays. Same gates as the closed loop.
fn ladder(ctx: &Ctx) -> Result<Vec<(&'static str, f64)>, String> {
    let steps = LADDER.map(|s| Step { secs: s.secs * ctx.scale, ..s });
    let schedule = Schedule::new(&steps, ROUND);
    let edges = stream(schedule.rounds(), ctx.input_seed());
    let (stack, clients) = Stack::spawn()?;
    let sent = stack.run(clients, &edges, Some(&schedule), Instant::now(), false)?;
    let repaired = stack.service.repair();
    stack.check("paced ladder: repaired detection vs solo engine", &edges, &sent, &repaired)?;
    stack.shutdown()?;

    let mut rounds: Vec<Round> = sent.iter().flat_map(|s| s.rounds.iter().copied()).collect();
    rounds.sort_unstable_by_key(|r| r.index);
    let sorted_latencies = |of_step: &[Round]| {
        let mut latencies: Vec<u64> = of_step.iter().map(|r| r.latency_ns).collect();
        latencies.sort_unstable();
        latencies
    };
    let mut sustained_eps = 0.0;
    let mut lower_steps_hold = true;
    for (step, rung) in steps.iter().enumerate() {
        let of_step = &rounds[schedule.step_rounds(step)];
        let holds = sustained(of_step, schedule.period_ns(step));
        let latencies = sorted_latencies(of_step);
        let at = |q: f64| percentile(&latencies, q) as f64 / 1e3;
        println!(
            "ladder step {step}: {:>6.0} edges/s, {:>4} rounds, detect p50 {:>8.1} p90 {:>8.1} p99 {:>8.1} us, {}",
            rung.rate_eps,
            of_step.len(),
            at(0.50),
            at(0.90),
            at(0.99),
            if holds { "sustained" } else { "not sustained" }
        );
        lower_steps_hold &= holds;
        if lower_steps_hold {
            sustained_eps = rung.rate_eps;
        }
    }
    let middle = sorted_latencies(&rounds[schedule.step_rounds(MIDDLE)]);
    let mut lags: Vec<u64> = rounds.iter().map(|r| r.lag_ns).collect();
    lags.sort_unstable();
    Ok(vec![
        ("gen.lag_p99_us", percentile(&lags, 0.99) as f64 / 1e3),
        ("gen.sustained_rate_eps", sustained_eps),
        ("paced.detect_p50_us", percentile(&middle, 0.50) as f64 / 1e3),
        ("paced.detect_p90_us", percentile(&middle, 0.90) as f64 / 1e3),
        ("paced.detect_p99_us", percentile(&middle, 0.99) as f64 / 1e3),
    ])
}
