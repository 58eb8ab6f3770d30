//! The multi-producer TCP front end of the sharded runtime.
//!
//! [`SpadeNetServer`] binds a `std::net` listener and serves it on the
//! crate's event loop ([`crate::reactor`], which owns connections,
//! fan-in fairness, reply buffering and parking). This module is the
//! loop's handler for the fan-in tier — what each frame means for a
//! shared [`ShardedSpadeService`] — plus what both tiers share: the
//! transport counters and the one ingest path, `offer`. Two properties
//! make the bridge exact under load:
//!
//! * **Back-pressure crosses the wire, in order.** A tier admits the
//!   prefix of a frame that fits its edge-denominated queues; when that
//!   is not the whole frame, the connection *parks* with the rest
//!   (`Ingest`) until the event loop's per-cycle re-offer has enqueued
//!   the whole frame, which one `Ack` then answers. The producer is
//!   slowed by TCP flow control alone and its edges reach the shards in
//!   submission order.
//! * **Acknowledgement is enqueue.** An edge is counted in an Ack's
//!   `accepted` total only after the tier queued it, and every queued
//!   command is drained before shutdown completes — so the sum of
//!   acknowledged edges equals the shards' `updates_applied` total at
//!   shutdown. The back-pressure integration test pins this down.
//!
//! A malformed frame (bad opcode, truncated section, oversized length
//! prefix) earns the producer an [`WireFrame::Error`] reply and its
//! connection is closed; the server itself never panics on wire input.

use crate::reactor::{FrameHandler, FrameStep, Reactor, ReactorConfig};
use crate::wire::{MetricsReply, RawEdge, StatsReply, WireFrame, METRICS_VERSION};
use parking_lot::Mutex;
use spade_core::service::{ServiceStats, SpadeService, TrySubmit};
use spade_core::shard::ShardedSpadeService;
use spade_metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most per-connection counter sets kept for the metrics exposition.
/// The global totals stay exact forever; labeled `conn="N"` series are a
/// sliding window over the most recent connections so a long-lived
/// server's exposition stays bounded.
const MAX_TRACKED_CONNS: usize = 64;

/// Per-connection transport counters, exposed as labeled series in the
/// metrics exposition (`spade_net_connection_frames{conn="N"}` …).
#[derive(Debug, Default)]
pub(crate) struct ConnCounters {
    pub(crate) frames: AtomicU64,
    pub(crate) bytes: AtomicU64,
    pub(crate) busy_replies: AtomicU64,
}

/// Monotonic transport counters (shared by every event-loop worker).
#[derive(Debug, Default)]
pub(crate) struct NetTelemetry {
    pub(crate) connections: AtomicU64,
    pub(crate) frames: AtomicU64,
    pub(crate) edges_accepted: AtomicU64,
    pub(crate) busy_replies: AtomicU64,
    pub(crate) malformed_frames: AtomicU64,
    /// Live + recently closed connections, keyed by accept order.
    per_conn: Mutex<BTreeMap<u64, Arc<ConnCounters>>>,
    /// Transport-side event trace (parked frames, malformed frames) plus
    /// the reactor's per-loop series — merged into the runtime's trace
    /// in the metrics snapshot.
    registry: spade_metrics::MetricsRegistry,
}

impl NetTelemetry {
    /// The transport's own registry (reactor loops resolve their gauge /
    /// counter / histogram handles here).
    pub(crate) fn registry(&self) -> &spade_metrics::MetricsRegistry {
        &self.registry
    }

    /// Counts one decoded frame, globally and per connection.
    pub(crate) fn count_frame(&self, conn: &ConnCounters) {
        // audit: monotone transport counter, telemetry only
        self.frames.fetch_add(1, Ordering::Relaxed);
        conn.frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one malformed frame (the connection is about to close).
    pub(crate) fn count_malformed(&self) {
        // audit: monotone transport counter, telemetry only
        self.malformed_frames.fetch_add(1, Ordering::Relaxed);
        self.registry.event(spade_metrics::EventKind::MalformedFrame, 0);
    }

    /// Counts one ingest frame that met a full queue and parked its
    /// connection with `admitted` of its edges enqueued.
    fn count_parked(&self, conn: &ConnCounters, admitted: usize) {
        // audit: monotone transport counters, telemetry only
        self.busy_replies.fetch_add(1, Ordering::Relaxed);
        conn.busy_replies.fetch_add(1, Ordering::Relaxed);
        self.registry.event(spade_metrics::EventKind::Busy, admitted as u64);
    }

    /// The global totals, each cell read once.
    pub(crate) fn totals(&self) -> NetStats {
        // audit: telemetry counter reads, each cell independently monotone
        NetStats {
            connections: self.connections.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            edges_accepted: self.edges_accepted.load(Ordering::Relaxed),
            busy_replies: self.busy_replies.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
        }
    }

    /// The answer to a `Stats` request: the runtime's per-shard view in
    /// `shards` plus this transport's own counters.
    pub(crate) fn stats_reply(&self, shards: &[ServiceStats], uptime_secs: f64) -> WireFrame {
        let depths: Vec<u64> = shards.iter().map(|s| s.queue_depth as u64).collect();
        let net = self.totals();
        WireFrame::StatsReply(StatsReply {
            shards: shards.len() as u64,
            updates_applied: shards.iter().map(|s| s.updates_applied).sum(),
            queue_depth: depths.iter().sum(),
            connections: net.connections,
            frames: net.frames,
            edges_accepted: net.edges_accepted,
            busy_replies: net.busy_replies,
            malformed_frames: net.malformed_frames,
            uptime_secs,
            shard_queue_depths: depths,
        })
    }

    /// The answer to a `Metrics` request: `runtime` (the registries
    /// behind the server) merged with the transport's own counters,
    /// rendered once server-side so every exporter ships the identical
    /// exposition.
    pub(crate) fn metrics_reply(&self, runtime: MetricsSnapshot) -> WireFrame {
        let exposition = runtime.merge(&net_snapshot(self)).render_prometheus();
        WireFrame::MetricsReply(MetricsReply { version: METRICS_VERSION, exposition })
    }
}

/// Registers a freshly accepted connection: bumps the accept total and
/// tracks its counters in the bounded labeled-series window.
pub(crate) fn register_conn(telemetry: &NetTelemetry, conn_id: u64) -> Arc<ConnCounters> {
    // audit: monotone transport counter, telemetry only
    telemetry.connections.fetch_add(1, Ordering::Relaxed);
    let conn = Arc::new(ConnCounters::default());
    let mut per_conn = telemetry.per_conn.lock();
    per_conn.insert(conn_id, Arc::clone(&conn));
    // Oldest connections age out of the labeled series window (the
    // global totals already counted them).
    while per_conn.len() > MAX_TRACKED_CONNS {
        per_conn.pop_first();
    }
    conn
}

/// Renders the transport counters as a [`MetricsSnapshot`] ready to
/// merge with [`ShardedSpadeService::metrics`]: global totals plus one
/// labeled series triple per tracked connection, plus the transport's
/// event trace and the reactor's per-loop series.
fn net_snapshot(telemetry: &NetTelemetry) -> MetricsSnapshot {
    let mut snap = telemetry.registry.snapshot();
    let mut c = |name: &str, v: u64| {
        snap.counters.insert(name.to_string(), v);
    };
    let net = telemetry.totals();
    c("spade_net_connections_total", net.connections);
    c("spade_net_frames_total", net.frames);
    c("spade_net_edges_accepted_total", net.edges_accepted);
    c("spade_net_busy_replies_total", net.busy_replies);
    c("spade_net_malformed_frames_total", net.malformed_frames);
    // audit: telemetry counter reads, each cell independently monotone
    for (id, conn) in telemetry.per_conn.lock().iter() {
        c(
            &format!("spade_net_connection_frames{{conn=\"{id}\"}}"),
            conn.frames.load(Ordering::Relaxed),
        );
        c(
            &format!("spade_net_connection_bytes{{conn=\"{id}\"}}"),
            conn.bytes.load(Ordering::Relaxed),
        );
        c(
            &format!("spade_net_connection_busy{{conn=\"{id}\"}}"),
            conn.busy_replies.load(Ordering::Relaxed),
        );
    }
    snap
}

/// Point-in-time transport statistics of a [`SpadeNetServer`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Frames decoded across all connections.
    pub frames: u64,
    /// Edges acknowledged — each one was enqueued into a shard queue.
    pub edges_accepted: u64,
    /// Ingest frames that met a full shard queue and parked their
    /// connection until the rest was enqueued (the name predates protocol
    /// v5, which retired the `Busy` reply; `bench_stack` reads it).
    pub busy_replies: u64,
    /// Connections dropped over malformed frames.
    pub malformed_frames: u64,
}

/// A running TCP ingest server wrapped around a shared sharded runtime.
///
/// Dropping the handle stops the reactor and joins every event-loop
/// worker (mirroring the worker-join discipline of [`SpadeService`]'s
/// drop); the wrapped service itself is left running — shut it down
/// through its own handle once `Arc::try_unwrap` succeeds.
///
/// [`SpadeService`]: spade_core::service::SpadeService
pub struct SpadeNetServer {
    reactor: Reactor<FrontEnd>,
}

impl SpadeNetServer {
    /// Binds `addr` (use port 0 for an OS-assigned port — see
    /// [`local_addr`](Self::local_addr)) and starts accepting producers
    /// into `service` with the default reactor tuning.
    pub fn bind<A: ToSocketAddrs>(
        service: Arc<ShardedSpadeService>,
        addr: A,
    ) -> std::io::Result<SpadeNetServer> {
        Self::bind_with(service, addr, ReactorConfig::default())
    }

    /// Binds `addr` with explicit reactor tuning (`serve --listen
    /// --net-workers N` routes here).
    pub fn bind_with<A: ToSocketAddrs>(
        service: Arc<ShardedSpadeService>,
        addr: A,
        config: ReactorConfig,
    ) -> std::io::Result<SpadeNetServer> {
        let reactor = Reactor::bind(addr, config, |stop, telemetry| FrontEnd {
            service,
            stop: Arc::clone(stop),
            telemetry: Arc::clone(telemetry),
        })?;
        Ok(SpadeNetServer { reactor })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.reactor.local_addr
    }

    /// `true` once a producer's Shutdown frame (or [`stop`](Self::stop))
    /// has stopped the server. The CLI's `serve --listen` loop polls
    /// this.
    pub fn is_stopped(&self) -> bool {
        self.reactor.stop.load(Ordering::Acquire)
    }

    /// Asks every event-loop worker to wind down without blocking.
    pub fn stop(&self) {
        self.reactor.stop();
    }

    /// The transport's own counters as a [`MetricsSnapshot`] — global
    /// totals, per-connection `conn="N"`-labeled series, and the
    /// reactor's per-loop series. Merge with
    /// [`ShardedSpadeService::metrics`] for the full picture (the wire
    /// `Metrics` request does exactly that server-side).
    pub fn metrics(&self) -> MetricsSnapshot {
        net_snapshot(&self.reactor.telemetry)
    }

    /// A cloneable provider of the transport's metrics snapshot, for
    /// exporters whose render closure must outlive this handle's borrow
    /// (the CLI's HTTP exporter thread).
    pub fn metrics_provider(&self) -> Arc<dyn Fn() -> MetricsSnapshot + Send + Sync> {
        let telemetry = Arc::clone(&self.reactor.telemetry);
        Arc::new(move || net_snapshot(&telemetry))
    }

    /// Current transport counters.
    pub fn stats(&self) -> NetStats {
        self.reactor.telemetry.totals()
    }

    /// Stops the server, joins every event-loop worker, and returns the
    /// final transport counters. Edges already acknowledged sit in shard
    /// queues; drain them by shutting the underlying service down
    /// afterwards.
    pub fn shutdown(mut self) -> NetStats {
        self.reactor.join();
        self.stats()
    }
}

/// Upper bound on waiting for acknowledged edges to be applied before a
/// parked Detect answers anyway. Acked edges always drain (workers
/// never drop queued commands), so this only fires if the runtime is
/// torn down under a live connection.
const DETECT_DEADLINE: Duration = Duration::from_secs(10);

/// The sharded front end as the reactor's frame handler: ingest, flush,
/// read-your-acks detection and the two introspection requests, over the
/// fan-in tier's [`ShardedSpadeService`].
pub(crate) struct FrontEnd {
    service: Arc<ShardedSpadeService>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<NetTelemetry>,
}

/// The one request a front-end connection is waiting on.
pub(crate) enum Parked {
    /// A read-your-acks Detect: answers once the shards' applied total
    /// reaches `watermark` (or `deadline` passes).
    Detect { watermark: u64, deadline: Instant },
    /// An ingest frame the shard queues admitted only part of.
    Ingest(Ingest),
}

impl From<Ingest> for Parked {
    fn from(ingest: Ingest) -> Self {
        Parked::Ingest(ingest)
    }
}

impl FrameHandler for FrontEnd {
    type Parked = Parked;

    fn apply(&self, frame: WireFrame, conn: &ConnCounters, out: &mut Vec<u8>) -> FrameStep<Parked> {
        let (reply, step) = match frame.into_ingest() {
            Ok((edges, budget)) => {
                let ingest = Ingest { edges, admitted: 0, budget };
                return offer(&*self.service, &self.telemetry, ingest, Some(conn), out);
            }
            Err(WireFrame::Flush) => flushed(self.service.flush()),
            Err(WireFrame::Detect) => {
                // Read-your-acks: every edge the server acknowledged before
                // this request must be reflected in the answer. If the
                // shards already caught up, this answers inline; otherwise
                // the connection parks — the event loop re-checks the
                // watermark every cycle instead of blocking here.
                let watermark = self.telemetry.edges_accepted.load(Ordering::Acquire);
                let deadline = Instant::now() + DETECT_DEADLINE;
                return self.retry(Parked::Detect { watermark, deadline }, out);
            }
            Err(WireFrame::Stats) => {
                let shards: Vec<_> = self.service.stats().iter().map(|s| s.service).collect();
                let uptime = self.service.uptime().as_secs_f64();
                (self.telemetry.stats_reply(&shards, uptime), FrameStep::Continue)
            }
            Err(WireFrame::Metrics) => {
                (self.telemetry.metrics_reply(self.service.metrics()), FrameStep::Continue)
            }
            Err(WireFrame::Shutdown) => shutdown_requested(&self.stop),
            // Everything else is a protocol violation: a reply frame, or a
            // shard-server operation (protocol v3) — those address one
            // engine, not the fan-in tier; a router must dial `spade
            // shard-serve` for them.
            Err(other) => {
                self.telemetry.count_malformed();
                let message = if other.is_reply() {
                    "reply frame sent to server"
                } else {
                    "shard operation sent to the sharded front end"
                };
                (WireFrame::Error { message: message.into() }, FrameStep::Close)
            }
        };
        reply.encode_into(out);
        step
    }

    fn retry(&self, parked: Parked, out: &mut Vec<u8>) -> FrameStep<Parked> {
        match parked {
            Parked::Detect { watermark, deadline } => {
                let applied: u64 =
                    self.service.stats().iter().map(|s| s.service.updates_applied).sum();
                if applied < watermark && Instant::now() < deadline {
                    return FrameStep::Park(parked);
                }
                let global = self.service.current_detection();
                WireFrame::Detection(crate::wire::DetectionReply {
                    size: global.best.size as u64,
                    density: global.best.density,
                    updates_applied: global.total_updates,
                    members: global.best.members.to_vec(),
                })
                .encode_into(out);
                FrameStep::Continue
            }
            Parked::Ingest(ingest) => offer(&*self.service, &self.telemetry, ingest, None, out),
        }
    }
}

/// An ingest frame on its way into the runtime: `edges[..admitted]` are
/// enqueued, the rest waits for queue room.
pub(crate) struct Ingest {
    pub(crate) edges: Vec<RawEdge>,
    pub(crate) admitted: usize,
    pub(crate) budget: Option<Duration>,
}

/// A tier's non-blocking enqueue: it takes the prefix of `edges` that
/// fits its edge-denominated queues, and says how many edges that was.
pub(crate) trait Admit {
    fn admit(&self, edges: &[RawEdge], budget: Option<Duration>) -> Result<usize, TrySubmit>;
}

/// The fan-in tier: one grouped command per destination shard.
impl Admit for ShardedSpadeService {
    fn admit(&self, edges: &[RawEdge], budget: Option<Duration>) -> Result<usize, TrySubmit> {
        let outcome = self.submit_batch(edges, budget);
        (!outcome.closed).then_some(outcome.accepted).ok_or(TrySubmit::Closed)
    }
}

/// A shard server: one command for its one worker, prefix by
/// [`SpadeService::queue_free`].
impl Admit for SpadeService {
    fn admit(&self, edges: &[RawEdge], budget: Option<Duration>) -> Result<usize, TrySubmit> {
        self.try_submit_batch(edges, budget)
    }
}

/// The ingest path of both tiers: `tier` admits what fits of the frame's
/// rest, counted as accepted at once. A suffix left over parks the frame
/// to be re-offered, in order — counted once, on its `first` offer, with
/// what that admitted. One Ack answers the frame when nothing is left.
pub(crate) fn offer<P: From<Ingest>>(
    tier: &impl Admit,
    telemetry: &NetTelemetry,
    mut ingest: Ingest,
    first: Option<&ConnCounters>,
    out: &mut Vec<u8>,
) -> FrameStep<P> {
    let (reply, step) = match tier.admit(&ingest.edges[ingest.admitted..], ingest.budget) {
        Ok(taken) => {
            // audit: monotone transport counter, telemetry only
            telemetry.edges_accepted.fetch_add(taken as u64, Ordering::Relaxed);
            ingest.admitted += taken;
            if ingest.admitted < ingest.edges.len() {
                if let Some(conn) = first {
                    telemetry.count_parked(conn, ingest.admitted);
                }
                return FrameStep::Park(ingest.into());
            }
            (WireFrame::Ack { accepted: ingest.edges.len() as u64 }, FrameStep::Continue)
        }
        Err(_) => shut_down(),
    };
    reply.encode_into(out);
    step
}

/// The answer to `Flush`, given whether the marker was posted — the one
/// channel send on the event loop. It shares the bounded queue ingest
/// uses, but a peer sends Flush only once its batches were acknowledged
/// (a client after its pipeline drained, the router between round trips),
/// so a wait is for a worker to take one command, never for this loop.
pub(crate) fn flushed<P>(posted: bool) -> (WireFrame, FrameStep<P>) {
    if posted {
        (WireFrame::Ack { accepted: 0 }, FrameStep::Continue)
    } else {
        shut_down()
    }
}

/// The answer to a request that found the runtime gone.
pub(crate) fn shut_down<P>() -> (WireFrame, FrameStep<P>) {
    (WireFrame::Error { message: "runtime has shut down".into() }, FrameStep::Close)
}

/// The answer to `Shutdown`, the coordinator's end-of-stream marker:
/// acknowledge, then stop the whole server (acked edges stay queued — the
/// operator drains them by shutting the service down).
pub(crate) fn shutdown_requested<P>(stop: &AtomicBool) -> (WireFrame, FrameStep<P>) {
    stop.store(true, Ordering::Release);
    (WireFrame::Ack { accepted: 0 }, FrameStep::Close)
}
