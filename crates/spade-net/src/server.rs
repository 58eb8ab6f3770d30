//! The multi-producer TCP front end of the sharded runtime.
//!
//! [`SpadeNetServer`] binds a `std::net` listener and bridges decoded
//! [`WireFrame`]s into a shared [`ShardedSpadeService`]. Connections are
//! multiplexed by a fixed pool of readiness-driven event-loop workers
//! (see [`crate::reactor`]) rather than one OS thread per producer, so
//! fan-in scales with sockets, not threads. Three properties make the
//! bridge safe under load:
//!
//! * **Back-pressure crosses the wire, in order.** Ingest goes through
//!   [`ShardedSpadeService::submit_batch`]; when a full shard queue admits
//!   only a prefix of a frame, the connection *parks* with the rest
//!   (`Parked::Ingest`): it is neither read nor served further until
//!   the event loop's per-cycle re-offer has enqueued the whole frame,
//!   which one `Ack` then answers. The producer is slowed by TCP flow
//!   control alone, its edges reach the shards in submission order, and
//!   the event loop never blocks on the runtime — one back-pressured
//!   shard never head-of-line-blocks the listener or any other
//!   connection.
//! * **Acknowledgement is enqueue.** An edge is counted in an Ack's
//!   `accepted` total only after `submit_batch` queued it, and every queued
//!   command is drained before shutdown completes — so the sum of
//!   acknowledged edges equals the shards' `updates_applied` total at
//!   shutdown. The back-pressure integration test pins this down.
//! * **Fan-in is fair.** Each readiness cycle grants every connection a
//!   bounded frame budget and buffers replies per connection, so a
//!   firehose producer can neither starve others of Acks nor wedge the
//!   loop on a slow reader (see `ReactorConfig`).
//!
//! A malformed frame (bad opcode, truncated section, oversized length
//! prefix) earns the producer an [`WireFrame::Error`] reply and its
//! connection is closed; the server itself never panics on wire input.

use crate::reactor::{Reactor, ReactorConfig};
use crate::wire::{MetricsReply, RawEdge, StatsReply, WireFrame, METRICS_VERSION};
use parking_lot::Mutex;
use spade_core::shard::ShardedSpadeService;
use spade_metrics::MetricsSnapshot;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
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
        let oldest = *per_conn.keys().next().expect("non-empty map");
        per_conn.remove(&oldest);
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
    // audit: telemetry counter reads, each cell independently monotone
    c("spade_net_connections_total", telemetry.connections.load(Ordering::Relaxed));
    c("spade_net_frames_total", telemetry.frames.load(Ordering::Relaxed));
    c("spade_net_edges_accepted_total", telemetry.edges_accepted.load(Ordering::Relaxed));
    c("spade_net_busy_replies_total", telemetry.busy_replies.load(Ordering::Relaxed));
    c("spade_net_malformed_frames_total", telemetry.malformed_frames.load(Ordering::Relaxed));
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
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    telemetry: Arc<NetTelemetry>,
    reactor: Option<Reactor>,
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
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let telemetry = Arc::new(NetTelemetry::default());
        let reactor =
            Reactor::start(listener, service, Arc::clone(&stop), Arc::clone(&telemetry), config)?;
        Ok(SpadeNetServer { local_addr, stop, telemetry, reactor: Some(reactor) })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// `true` once a producer's Shutdown frame (or [`stop`](Self::stop))
    /// has stopped the server. The CLI's `serve --listen` loop polls
    /// this.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Asks every event-loop worker to wind down without blocking.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(reactor) = &self.reactor {
            reactor.wake_all();
        }
    }

    /// The transport's own counters as a [`MetricsSnapshot`] — global
    /// totals, per-connection `conn="N"`-labeled series, and the
    /// reactor's per-loop series. Merge with
    /// [`ShardedSpadeService::metrics`] for the full picture (the wire
    /// `Metrics` request does exactly that server-side).
    pub fn metrics(&self) -> MetricsSnapshot {
        net_snapshot(&self.telemetry)
    }

    /// A cloneable provider of the transport's metrics snapshot, for
    /// exporters whose render closure must outlive this handle's borrow
    /// (the CLI's HTTP exporter thread).
    pub fn metrics_provider(&self) -> Arc<dyn Fn() -> MetricsSnapshot + Send + Sync> {
        let telemetry = Arc::clone(&self.telemetry);
        Arc::new(move || net_snapshot(&telemetry))
    }

    /// Current transport counters.
    pub fn stats(&self) -> NetStats {
        let t = &self.telemetry;
        // audit: telemetry counter reads, each cell independently monotone
        NetStats {
            connections: t.connections.load(Ordering::Relaxed),
            frames: t.frames.load(Ordering::Relaxed),
            edges_accepted: t.edges_accepted.load(Ordering::Relaxed),
            busy_replies: t.busy_replies.load(Ordering::Relaxed),
            malformed_frames: t.malformed_frames.load(Ordering::Relaxed),
        }
    }

    /// Stops the server, joins every event-loop worker, and returns the
    /// final transport counters. Edges already acknowledged sit in shard
    /// queues; drain them by shutting the underlying service down
    /// afterwards.
    pub fn shutdown(mut self) -> NetStats {
        self.join();
        self.stats()
    }

    fn join(&mut self) {
        self.stop();
        if let Some(mut reactor) = self.reactor.take() {
            reactor.join();
        }
    }
}

impl Drop for SpadeNetServer {
    fn drop(&mut self) {
        self.join();
    }
}

/// Upper bound on waiting for acknowledged edges to be applied before a
/// parked Detect answers anyway. Acked edges always drain (workers
/// never drop queued commands), so this only fires if the runtime is
/// torn down under a live connection.
const DETECT_DEADLINE: Duration = Duration::from_secs(10);

/// What the event loop must do after applying one frame.
pub(crate) enum FrameStep {
    /// Keep the connection; replies (if any) are in the out buffer.
    Continue,
    /// The reply ends the connection — close once the out buffer drains.
    Close,
    /// The request cannot be answered yet: hold it on the connection and
    /// [`retry`](Parked::retry) it every cycle. Until it answers, the
    /// connection is neither read nor served further, so replies stay in
    /// request order.
    Park(Parked),
}

/// The one request a connection is waiting on.
pub(crate) enum Parked {
    /// A read-your-acks Detect: answers once the shards' applied total
    /// reaches `watermark` (or `deadline` passes).
    Detect { watermark: u64, deadline: Instant },
    /// An ingest frame a full shard queue admitted only
    /// `edges[..admitted]` of: the rest is re-offered, in order, until
    /// one Ack can answer the whole frame.
    Ingest { edges: Vec<RawEdge>, admitted: usize, budget: Option<Duration> },
}

impl Parked {
    /// The once-per-cycle re-check: answers into `out`, or parks again.
    pub(crate) fn retry(
        self,
        service: &ShardedSpadeService,
        telemetry: &NetTelemetry,
        out: &mut Vec<u8>,
    ) -> FrameStep {
        match self {
            Parked::Detect { watermark, deadline } => {
                if applied_total(service) < watermark && Instant::now() < deadline {
                    return FrameStep::Park(self);
                }
                write_detection(service, out);
                FrameStep::Continue
            }
            Parked::Ingest { edges, admitted, budget } => {
                offer(edges, admitted, budget, service, telemetry, out)
            }
        }
    }
}

/// Applies one decoded request, appending any reply to `out` (flushed by
/// the event loop, never here — no blocking on the reactor).
pub(crate) fn apply_frame(
    frame: WireFrame,
    service: &ShardedSpadeService,
    stop: &AtomicBool,
    telemetry: &NetTelemetry,
    conn: &ConnCounters,
    out: &mut Vec<u8>,
) -> FrameStep {
    let (reply, step) = match frame.into_ingest() {
        Ok((edges, budget)) => {
            let step = offer(edges, 0, budget, service, telemetry, out);
            if let FrameStep::Park(Parked::Ingest { admitted, .. }) = &step {
                // audit: monotone transport counters, telemetry only
                telemetry.busy_replies.fetch_add(1, Ordering::Relaxed);
                conn.busy_replies.fetch_add(1, Ordering::Relaxed);
                telemetry.registry.event(spade_metrics::EventKind::Busy, *admitted as u64);
            }
            return step;
        }
        // The one channel send on the event loop: Flush posts a marker
        // command per shard and returns without waiting for it to
        // apply. The flush channel is the same bounded queue ingest
        // uses, but a producer only sends Flush after its pipeline
        // drained, so the queues have room by construction.
        Err(WireFrame::Flush) => {
            if service.flush() {
                (WireFrame::Ack { accepted: 0 }, FrameStep::Continue)
            } else {
                shut_down()
            }
        }
        Err(WireFrame::Detect) => {
            // Read-your-acks: every edge the server acknowledged before
            // this request must be reflected in the answer. If the
            // shards already caught up, this answers inline; otherwise
            // the connection parks — the event loop re-checks the
            // watermark every cycle instead of blocking here.
            let watermark = telemetry.edges_accepted.load(Ordering::Acquire);
            let deadline = Instant::now() + DETECT_DEADLINE;
            return Parked::Detect { watermark, deadline }.retry(service, telemetry, out);
        }
        Err(WireFrame::Stats) => {
            let shard_stats = service.stats();
            let t = telemetry;
            // audit: telemetry counter reads, each cell independently monotone
            let stats = StatsReply {
                shards: shard_stats.len() as u64,
                updates_applied: shard_stats.iter().map(|s| s.service.updates_applied).sum(),
                queue_depth: shard_stats.iter().map(|s| s.service.queue_depth as u64).sum(),
                connections: t.connections.load(Ordering::Relaxed),
                frames: t.frames.load(Ordering::Relaxed),
                edges_accepted: t.edges_accepted.load(Ordering::Relaxed),
                busy_replies: t.busy_replies.load(Ordering::Relaxed),
                malformed_frames: t.malformed_frames.load(Ordering::Relaxed),
                uptime_secs: service.uptime().as_secs_f64(),
                shard_queue_depths: shard_stats
                    .iter()
                    .map(|s| s.service.queue_depth as u64)
                    .collect(),
            };
            (WireFrame::StatsReply(stats), FrameStep::Continue)
        }
        Err(WireFrame::Metrics) => {
            // Runtime registries (every shard, merged) + the transport's
            // own counters, rendered once server-side so every exporter
            // ships the identical exposition.
            let merged = service.metrics().merge(&net_snapshot(telemetry));
            let metrics =
                MetricsReply { version: METRICS_VERSION, exposition: merged.render_prometheus() };
            (WireFrame::MetricsReply(metrics), FrameStep::Continue)
        }
        Err(WireFrame::Shutdown) => {
            // The coordinator's end-of-stream marker: acknowledge, then
            // stop the whole server (acked edges stay queued — the
            // operator drains them by shutting the service down).
            stop.store(true, Ordering::Release);
            (WireFrame::Ack { accepted: 0 }, FrameStep::Close)
        }
        // Everything else is a protocol violation: a reply frame, or a
        // shard-server operation (protocol v3) — those address one
        // engine, not the fan-in tier; a router must dial `spade
        // shard-serve` for them.
        Err(other) => {
            telemetry.count_malformed();
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

/// The answer to a request that found the runtime gone.
fn shut_down() -> (WireFrame, FrameStep) {
    (WireFrame::Error { message: "runtime has shut down".into() }, FrameStep::Close)
}

/// Appends the current merged global detection as a reply frame.
fn write_detection(service: &ShardedSpadeService, out: &mut Vec<u8>) {
    let global = service.current_detection();
    WireFrame::Detection(crate::wire::DetectionReply {
        size: global.best.size as u64,
        density: global.best.density,
        updates_applied: global.total_updates,
        members: global.best.members.to_vec(),
    })
    .encode_into(out);
}

/// Ingest commands applied across all shards.
fn applied_total(service: &ShardedSpadeService) -> u64 {
    service.stats().iter().map(|s| s.service.updates_applied).sum()
}

/// The ingest path: hands `edges[admitted..]` to
/// [`ShardedSpadeService::submit_batch`], which routes every edge once
/// and enqueues one grouped command per destination shard — instead of a
/// route + `try_send` round trip per edge. Admission is the strict
/// frame-order prefix, so whatever a full queue leaves over is a suffix:
/// the frame parks with it and is offered again next cycle, and the Ack
/// for the whole frame is written only when nothing is left.
fn offer(
    edges: Vec<RawEdge>,
    admitted: usize,
    budget: Option<Duration>,
    service: &ShardedSpadeService,
    telemetry: &NetTelemetry,
    out: &mut Vec<u8>,
) -> FrameStep {
    let outcome = service.submit_batch(&edges[admitted..], budget);
    // audit: monotone transport counter, telemetry only
    telemetry.edges_accepted.fetch_add(outcome.accepted as u64, Ordering::Relaxed);
    let admitted = admitted + outcome.accepted;
    let (reply, step) = if outcome.closed {
        shut_down()
    } else if admitted < edges.len() {
        return FrameStep::Park(Parked::Ingest { edges, admitted, budget });
    } else {
        (WireFrame::Ack { accepted: admitted as u64 }, FrameStep::Continue)
    };
    reply.encode_into(out);
    step
}
