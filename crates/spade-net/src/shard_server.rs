//! # Shard server: one detection engine behind the wire protocol
//!
//! The process-level counterpart of an in-process shard: a single
//! [`SpadeService`] worker exposed over the [`crate::wire`] protocol, so
//! a router tier ([`crate::router`]) can treat N independent *processes*
//! exactly like the sharded runtime treats its N worker threads — the
//! paper's §4 parallel incremental peeling promoted from threads to
//! processes.
//!
//! Besides the ingest surface (`Batch` / `BatchBudget` / `Detect` /
//! `Stats` / `Metrics` / `Shutdown`), a shard server answers
//! the shard operations documented on their [`WireFrame`] variants.
//! `Region` rides the worker's FIFO ingest queue, so its reply reflects
//! every edge acknowledged before it; the other two keep the recovery
//! substrate:
//!
//! * **`Replicate { owner, seq, edges }`** → `Ack`: appends a raw-edge
//!   batch to the **standby journal** this server keeps on behalf of
//!   peer shard `owner`. The journal is the recovery substrate: the
//!   router acknowledges an edge upstream only after both the home
//!   shard *and* its replica acked, so a SIGKILLed shard can always be
//!   rebuilt from its replica's journal with zero acked-edge loss.
//!   Sequence numbers are per-owner and contiguous; a duplicate seq is
//!   acked idempotently (`accepted: 0`), a gap is a protocol error.
//! * **`Bootstrap { owner, after }`** → a stream of
//!   [`WireFrame::BootstrapChunk`]s: replays the journal held for
//!   `owner` beyond `after`, one chunk per journaled batch, terminated
//!   by a `done` chunk carrying the journal's high-water mark. A
//!   restarted shard reseeds by replaying these chunks as ordinary
//!   batches — raw edges, not state snapshots, because detection is a
//!   function of the final edge multiset and the engine re-derives all
//!   metric state.
//!
//! A shard server is a frame handler on the crate's one event loop
//! ([`crate::reactor`], which owns accept, framing, malformed-frame
//! accounting, reply buffering and close), fixed at a single worker: its
//! fan-in is one router connection plus an occasional operator probe.
//! Nothing here waits on the worker: a batch is admitted by edges, the
//! same rule as the fan-in tier's (`server::offer`) — whatever does not
//! fit the worker's queue parks its connection until it does. Every
//! operation the worker must answer (`Detect`, `Stats`, `Region`) posts
//! a marker, which takes no queue room and so is always enqueued at
//! once, and parks on the reply channel; the journal operations answer
//! inline. Every such marker settles a grouped worker's stage, so the
//! answer covers the benign edges the stage held back — the only way a
//! router-tier client sees them. The loop re-checks a parked request
//! when the worker reports what it waits for: freed queue room, or a
//! reply sent.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use spade_core::service::SpadeService;

use crate::reactor::{FrameHandler, FrameStep, Reactor, ReactorConfig};
use crate::server::{
    after_barriers, offer, shut_down, shutdown_requested, ConnCounters, Ingest, NetTelemetry,
    Parked, ReplyPoll,
};
use crate::wire::{BootstrapChunk, DetectionReply, RawEdge, WireFrame};

/// One journaled batch: its replication sequence plus the raw edges.
type JournalBatch = (u64, Vec<RawEdge>);

/// Tuning for a [`ShardServer`].
#[derive(Clone, Debug)]
pub struct ShardServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port; see
    /// [`ShardServer::local_addr`]).
    pub addr: String,
}

impl Default for ShardServerConfig {
    fn default() -> Self {
        ShardServerConfig { addr: "127.0.0.1:0".into() }
    }
}

/// One standby journal: the contiguous, seq-stamped raw-edge batches
/// replicated here on behalf of a peer shard.
#[derive(Debug, Default)]
struct Journal {
    /// Highest contiguous sequence number appended (0 = empty; the
    /// router numbers batches from 1).
    last_seq: u64,
    /// `(seq, edges)` in append order.
    entries: Vec<JournalBatch>,
}

/// Per-owner standby journals.
#[derive(Debug, Default)]
struct JournalSet {
    journals: std::collections::HashMap<u32, Journal>,
}

impl JournalSet {
    /// Appends one replicated batch. Returns `Ok(accepted)` — the count
    /// of newly journaled edges, 0 for an idempotent duplicate — or an
    /// error message for a sequence gap.
    ///
    /// An **empty** batch is a watermark sync, not data: it fast-forwards
    /// `last_seq` without an entry. The router sends one during recovery
    /// to the replacement process standing in as replica for a shard
    /// whose earlier batches were journaled on the dead incarnation —
    /// those batches are applied on their (live) home, and re-journaling
    /// them is exactly the double-failure cover the design excludes, so
    /// the fresh journal only needs to accept the next sequence.
    fn append(&mut self, owner: u32, seq: u64, edges: Vec<RawEdge>) -> Result<u64, &'static str> {
        let journal = self.journals.entry(owner).or_default();
        if seq <= journal.last_seq {
            // The router retried a batch the journal already holds
            // (e.g. after a dropped ack): confirm without re-appending.
            return Ok(0);
        }
        if edges.is_empty() {
            journal.last_seq = seq;
            return Ok(0);
        }
        if seq != journal.last_seq + 1 {
            return Err("replicate sequence gap");
        }
        let accepted = edges.len() as u64;
        journal.entries.push((seq, edges));
        journal.last_seq = seq;
        Ok(accepted)
    }

    /// The journaled batches for `owner` with sequence beyond `after`,
    /// plus the journal's high-water mark.
    fn replay(&self, owner: u32, after: u64) -> (u64, Vec<JournalBatch>) {
        match self.journals.get(&owner) {
            Some(journal) => {
                let tail =
                    journal.entries.iter().filter(|(seq, _)| *seq > after).cloned().collect();
                (journal.last_seq, tail)
            }
            None => (0, Vec::new()),
        }
    }
}

/// A running shard server: a bound address, a stop flag and the
/// single-worker event loop serving `service`.
pub struct ShardServer {
    service: Arc<SpadeService>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactor: Option<Reactor<ShardHandler>>,
}

impl ShardServer {
    /// Binds the listener and starts the event loop around `service`.
    /// The service stays shared — callers keep their handle for local
    /// draining and reclaim it with [`into_service`](Self::into_service)
    /// after [`stop`](Self::stop).
    pub fn spawn(service: Arc<SpadeService>, config: &ShardServerConfig) -> std::io::Result<Self> {
        let one_loop = ReactorConfig { workers: 1, ..Default::default() };
        let progress = service.progress();
        let reactor =
            Reactor::bind(&config.addr, one_loop, progress, |stop, telemetry| ShardHandler {
                service: Arc::clone(&service),
                journals: Mutex::new(JournalSet::default()),
                stop: Arc::clone(stop),
                telemetry: Arc::clone(telemetry),
            })?;
        let (local_addr, stop) = (reactor.local_addr, Arc::clone(&reactor.stop));
        Ok(ShardServer { service, local_addr, stop, reactor: Some(reactor) })
    }

    /// The bound address (the chosen port when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// `true` once a `Shutdown` frame (or [`stop`](Self::stop)) has
    /// asked the server to wind down.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Stops and joins the event loop, which drops its handle on the
    /// service. Idempotent.
    pub fn stop(&mut self) {
        self.reactor = None;
    }

    /// Stops the server and hands the service handle back (sole owner
    /// once the event loop is gone), so the host can drain and shut the
    /// engine down.
    pub fn into_service(mut self) -> Arc<SpadeService> {
        self.stop();
        Arc::clone(&self.service)
    }
}

/// One engine as the reactor's frame handler: the ingest surface plus
/// the shard operations, over a [`SpadeService`] and the standby journals
/// kept for peer shards.
pub(crate) struct ShardHandler {
    service: Arc<SpadeService>,
    journals: Mutex<JournalSet>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<NetTelemetry>,
}

impl FrameHandler for ShardHandler {
    fn apply(&self, frame: WireFrame, conn: &ConnCounters, out: &mut Vec<u8>) -> FrameStep {
        match frame.into_ingest() {
            Ok((edges, budget)) => {
                let ingest = Ingest { edges, admitted: 0, budget };
                offer(&*self.service, &self.telemetry, ingest, Some(conn), out)
            }
            Err(frame) => self.serve(frame, out),
        }
    }

    fn retry(&self, parked: Parked, out: &mut Vec<u8>) -> FrameStep {
        parked.retry(&*self.service, &self.telemetry, out)
    }
}

impl ShardHandler {
    /// Serves one request other than ingest: answers into `out`, or says
    /// what it waits for.
    fn serve(&self, frame: WireFrame, out: &mut Vec<u8>) -> FrameStep {
        let error = |message: &str| WireFrame::Error { message: message.into() };
        let (reply, step) = match self.enqueue(frame) {
            Ok(Some(poll)) => return self.retry(Parked::Reply(poll), out),
            Ok(None) => shut_down(),
            Err(frame) => match frame {
                WireFrame::Metrics => {
                    (self.telemetry.metrics_reply(self.service.metrics()), FrameStep::Continue)
                }
                WireFrame::Shutdown => shutdown_requested(&self.stop),
                WireFrame::Replicate { owner, seq, edges } => {
                    match self.journals.lock().append(owner, seq, edges) {
                        Ok(accepted) => (WireFrame::Ack { accepted }, FrameStep::Continue),
                        Err(message) => (error(message), FrameStep::Close),
                    }
                }
                // `replay` already cloned the whole tail, so every chunk
                // goes straight into the out buffer; the loop drains it as
                // the router reads.
                WireFrame::Bootstrap { owner, after } => {
                    let (through, tail) = self.journals.lock().replay(owner, after);
                    for (through, edges) in tail {
                        let chunk = BootstrapChunk { owner, through, done: false, edges };
                        WireFrame::BootstrapChunk(chunk).encode_into(out);
                    }
                    let last = BootstrapChunk { owner, through, done: true, edges: Vec::new() };
                    (WireFrame::BootstrapChunk(last), FrameStep::Continue)
                }
                // Every request kind is served above, so what is left is
                // a reply frame — a protocol violation: report and drop
                // the connection.
                other => {
                    debug_assert!(other.is_reply(), "unserved request kind {}", other.kind());
                    self.telemetry.count_malformed();
                    let message = format!("{} reply frame sent to a shard server", other.kind());
                    (error(&message), FrameStep::Close)
                }
            },
        };
        reply.encode_into(out);
        step
    }

    /// Enqueues a request only the worker can answer — a marker, so it
    /// never waits for room: it rides the worker's FIFO queue behind
    /// everything already acknowledged, and the poll handed back collects
    /// the answer (`None` when the worker is gone). Every other frame
    /// comes back unchanged.
    fn enqueue(&self, frame: WireFrame) -> Result<Option<ReplyPoll>, WireFrame> {
        let service = &self.service;
        Ok(match frame {
            // Read-your-acks: a `Batch` is acked once *enqueued*, so the
            // detection waits for every edge already acknowledged.
            WireFrame::Detect => service.request_barrier().map(|done| {
                let service = Arc::clone(service);
                after_barriers(vec![done], move || {
                    let det = service.current_detection();
                    WireFrame::Detection(DetectionReply {
                        size: det.size as u64,
                        density: det.density,
                        updates_applied: det.updates_applied,
                        members: det.members.to_vec(),
                    })
                })
            }),
            // The same barrier: `updates_applied` feeds the router's
            // acked == applied exactly-once audit, which must not observe
            // a still-queued suffix.
            WireFrame::Stats => service.request_barrier().map(|done| {
                let (service, telemetry) = (Arc::clone(service), Arc::clone(&self.telemetry));
                after_barriers(vec![done], move || {
                    let stats = service.stats();
                    telemetry.stats_reply(&[stats], stats.uptime_secs)
                })
            }),
            WireFrame::Region { hops } => service
                .request_candidate_region(hops as usize)
                .map(|region| collect(region, |r| WireFrame::RegionReply(r).within_bounds())),
            other => return Err(other),
        })
    }
}

/// The poll for a request answered on `channel`, shaped by `reply`.
fn collect<T: 'static>(
    channel: Receiver<T>,
    reply: impl Fn(T) -> WireFrame + 'static,
) -> ReplyPoll {
    Box::new(move || channel.try_recv().map(&reply))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::write_frame;
    use spade_core::{CustomMetric, IngestConfig, SpadeEngine, WeightedDensity};
    use spade_graph::VertexId;
    use spade_metrics::EventKind;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;

    fn spawn_server() -> (ShardServer, TcpStream) {
        let engine = SpadeEngine::new(WeightedDensity);
        let service = Arc::new(SpadeService::spawn(engine, None, 1024));
        let server = ShardServer::spawn(service, &ShardServerConfig::default()).expect("bind");
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        (server, stream)
    }

    fn request(stream: &mut TcpStream, frame: &WireFrame) -> WireFrame {
        write_frame(stream, frame).expect("write");
        stream.flush().expect("flush");
        crate::wire::read_frame(stream).expect("read").expect("reply")
    }

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn serves_ingest_and_detect_over_the_wire() {
        let (mut server, mut stream) = spawn_server();
        let edges: Vec<_> = (0..4u32)
            .flat_map(|a| (0..4u32).filter(move |b| a != *b).map(move |b| (v(a), v(b), 5.0)))
            .collect();
        let sent = edges.len() as u64;
        match request(&mut stream, &WireFrame::Batch { edges }) {
            WireFrame::Ack { accepted } => assert_eq!(accepted, sent),
            other => panic!("unexpected reply: {other:?}"),
        }
        // Region rides the same FIFO queue, so it observes the batch.
        match request(&mut stream, &WireFrame::Region { hops: 1 }) {
            WireFrame::RegionReply(region) => {
                assert_eq!(region.size, 4);
                assert!(region.density > 0.0);
                assert_eq!(region.updates_applied, sent);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        match request(&mut stream, &WireFrame::Detect) {
            WireFrame::Detection(det) => assert_eq!(det.size, 4),
            other => panic!("unexpected reply: {other:?}"),
        }
        server.stop();
    }

    /// A batch that parks on a shard server traces the edges it had
    /// admitted: a worker stalled inside its first run leaves a 4-edge
    /// bound, so an 8-edge batch admits 4, then parks.
    #[test]
    fn a_parked_batch_traces_the_edges_it_admitted() {
        let gate = Arc::new(AtomicBool::new(false));
        let held = Arc::clone(&gate);
        let gated = CustomMetric::new(
            "gated",
            |_, _| 0.0,
            move |_, _, raw, _| {
                while !held.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_micros(200));
                }
                raw
            },
        );
        let ingest = IngestConfig { queue_capacity: 4, coalesce: 1, deadline: None };
        let service = SpadeService::spawn_with(SpadeEngine::new(gated), None, ingest, "g".into());
        let mut server =
            ShardServer::spawn(Arc::new(service), &ShardServerConfig::default()).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let edges: Vec<_> = (0..8u32).map(|i| (v(i), v(100 + i), 1.0)).collect();
        write_frame(&mut stream, &WireFrame::Batch { edges }).expect("write");
        let telemetry = Arc::clone(&server.reactor.as_ref().expect("running").telemetry);
        let busy = || {
            let events = telemetry.registry().recent_events();
            events.iter().filter(|e| e.kind == EventKind::Busy).map(|e| e.value).collect::<Vec<_>>()
        };
        // Either the frame parks, or it is all accepted at once.
        while busy().is_empty() && telemetry.totals().edges_accepted < 8 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let parked = busy();
        gate.store(true, Ordering::Release);
        assert_eq!(parked, [4]);
        assert_eq!(
            crate::wire::read_frame(&mut stream).expect("read"),
            Some(WireFrame::Ack { accepted: 8 })
        );
        server.stop();
    }

    #[test]
    fn zero_budget_batch_means_no_budget_not_an_elapsed_one() {
        let (mut server, mut stream) = spawn_server();
        let edges = vec![(v(1), v(2), 4.0), (v(2), v(3), 4.0), (v(3), v(1), 4.0)];
        match request(&mut stream, &WireFrame::BatchBudget { budget_us: 0, edges }) {
            WireFrame::Ack { accepted } => assert_eq!(accepted, 3),
            other => panic!("unexpected reply: {other:?}"),
        }
        // Stats drains the worker first, so the batch has been applied.
        match request(&mut stream, &WireFrame::Stats) {
            WireFrame::StatsReply(stats) => assert_eq!(stats.updates_applied, 3),
            other => panic!("unexpected reply: {other:?}"),
        }
        match request(&mut stream, &WireFrame::Metrics) {
            WireFrame::MetricsReply(m) => assert!(
                m.exposition.contains("spade_deadline_miss_total 0"),
                "a zero budget was scheduled as a deadline:\n{}",
                m.exposition
            ),
            other => panic!("unexpected reply: {other:?}"),
        }
        server.stop();
    }

    #[test]
    fn journal_is_idempotent_and_replays_in_order() {
        let (mut server, mut stream) = spawn_server();
        let batch1 = vec![(v(1), v(2), 1.0)];
        let batch2 = vec![(v(3), v(4), 2.0), (v(4), v(3), 2.0)];
        match request(
            &mut stream,
            &WireFrame::Replicate { owner: 0, seq: 1, edges: batch1.clone() },
        ) {
            WireFrame::Ack { accepted } => assert_eq!(accepted, 1),
            other => panic!("unexpected reply: {other:?}"),
        }
        match request(
            &mut stream,
            &WireFrame::Replicate { owner: 0, seq: 2, edges: batch2.clone() },
        ) {
            WireFrame::Ack { accepted } => assert_eq!(accepted, 2),
            other => panic!("unexpected reply: {other:?}"),
        }
        // A retried seq is confirmed without double-journaling.
        match request(
            &mut stream,
            &WireFrame::Replicate { owner: 0, seq: 2, edges: batch2.clone() },
        ) {
            WireFrame::Ack { accepted } => assert_eq!(accepted, 0),
            other => panic!("unexpected reply: {other:?}"),
        }
        write_frame(&mut stream, &WireFrame::Bootstrap { owner: 0, after: 0 }).expect("write");
        let mut chunks = Vec::new();
        loop {
            match crate::wire::read_frame(&mut stream).expect("read").expect("chunk") {
                WireFrame::BootstrapChunk(chunk) => {
                    let done = chunk.done;
                    chunks.push(chunk);
                    if done {
                        break;
                    }
                }
                other => panic!("unexpected reply: {other:?}"),
            }
        }
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].edges, batch1);
        assert_eq!(chunks[1].edges, batch2);
        assert!(chunks[2].done && chunks[2].edges.is_empty());
        assert_eq!(chunks[2].through, 2);
        // Resuming beyond seq 1 replays only the tail (entry 2 plus the
        // terminal done chunk).
        write_frame(&mut stream, &WireFrame::Bootstrap { owner: 0, after: 1 }).expect("write");
        let mut tail = Vec::new();
        loop {
            match crate::wire::read_frame(&mut stream).expect("read").expect("chunk") {
                WireFrame::BootstrapChunk(chunk) => {
                    let done = chunk.done;
                    tail.push(chunk);
                    if done {
                        break;
                    }
                }
                other => panic!("unexpected reply: {other:?}"),
            }
        }
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].through, 2);
        assert_eq!(tail[0].edges, batch2);
        // A gap is rejected…
        match request(
            &mut stream,
            &WireFrame::Replicate { owner: 0, seq: 9, edges: batch1.clone() },
        ) {
            WireFrame::Error { message } => assert!(message.contains("gap")),
            other => panic!("unexpected reply: {other:?}"),
        }
        // …and closes the connection (corrupt protocol state). On a
        // fresh connection, an EMPTY batch at the same sequence is a
        // watermark sync (the recovery handshake for a replacement
        // replica): it fast-forwards the journal so the next real batch
        // is contiguous.
        let mut stream = TcpStream::connect(server.local_addr()).expect("reconnect");
        match request(&mut stream, &WireFrame::Replicate { owner: 0, seq: 9, edges: Vec::new() }) {
            WireFrame::Ack { accepted } => assert_eq!(accepted, 0),
            other => panic!("unexpected reply: {other:?}"),
        }
        match request(&mut stream, &WireFrame::Replicate { owner: 0, seq: 10, edges: batch1 }) {
            WireFrame::Ack { accepted } => assert_eq!(accepted, 1),
            other => panic!("unexpected reply: {other:?}"),
        }
        server.stop();
    }
}
