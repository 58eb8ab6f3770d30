//! # Shard server: one detection engine behind the wire protocol
//!
//! The process-level counterpart of an in-process shard: a single
//! [`SpadeService`] worker exposed over the [`crate::wire`] protocol, so
//! a router tier ([`crate::router`]) can treat N independent *processes*
//! exactly like the sharded runtime treats its N worker threads. This is
//! ROADMAP open item 1 — the paper's §4 parallel incremental peeling
//! promoted from threads to processes.
//!
//! Besides the ingest surface (`Batch` / `BatchBudget` / `Flush` /
//! `Detect` / `Stats` / `Metrics` / `Shutdown`), a shard server answers
//! the protocol-v3 shard operations:
//!
//! * **`Region { hops }`** → [`WireFrame::RegionReply`]: exports the
//!   engine's candidate region (community + `hops`-hop frontier through
//!   the persist subgraph codec) for the router's cross-shard repair
//!   pass. The request rides the worker's FIFO ingest queue, so the
//!   reply reflects every edge acknowledged before it.
//! * **`MigrateOut { members }`** → [`WireFrame::SliceReply`]: extracts
//!   **and evicts** the induced slice over `members` — the source half
//!   of a component migration, serialized as a snapshot in flight.
//! * **`Absorb { slice }`** → [`WireFrame::AbsorbReply`]: replays a
//!   migrated slice into the local engine (the target half).
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
//! The fan-in at a shard server is one router connection (plus an
//! occasional operator probe), so connections are served by plain
//! blocking threads — the readiness reactor stays dedicated to the
//! many-producer front end. The accept loop reuses the reactor's
//! `poll(2)` binding to stay interruptible by the stop flag.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use spade_core::service::{MigrationSlice, SpadeService};

use crate::reactor::wait_readable;
use crate::wire::{
    write_frame, AbsorbReply, BootstrapChunk, DetectionReply, FrameDecoder, MetricsReply, RawEdge,
    RegionReply, StatsReply, WireFrame, WireSlice, MAX_MIGRATE_MEMBERS, MAX_SNAPSHOT_BYTES,
    METRICS_VERSION,
};

/// How long a blocked read waits before re-checking the stop flag.
const POLL_TICK: Duration = Duration::from_millis(50);

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

/// A running shard server: a bound listener plus the accept thread
/// fanning connections out to blocking handler threads.
pub struct ShardServer {
    service: Arc<SpadeService>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl ShardServer {
    /// Binds the listener and spawns the accept thread around
    /// `service`. The service stays shared — callers keep their handle
    /// for local draining and reclaim it with
    /// [`into_service`](Self::into_service) after [`stop`](Self::stop).
    pub fn spawn(service: Arc<SpadeService>, config: &ShardServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let journals = Arc::new(Mutex::new(JournalSet::default()));
        let accept = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("spade-shard-accept".into())
                .spawn(move || accept_loop(listener, service, journals, stop))
                .expect("spawn accept thread")
        };
        Ok(ShardServer { service, local_addr, stop, accept: Some(accept) })
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

    /// Asks the accept loop and every connection thread to wind down,
    /// then joins them. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let handlers = accept.join().expect("accept thread panicked");
            for h in handlers {
                h.join().expect("connection thread panicked");
            }
        }
    }

    /// Stops the server and hands the service handle back (sole owner
    /// after the connection threads exit), so the host can drain and
    /// shut the engine down.
    pub fn into_service(mut self) -> Arc<SpadeService> {
        self.stop();
        Arc::clone(&self.service)
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<SpadeService>,
    journals: Arc<Mutex<JournalSet>>,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match wait_readable(listener.as_raw_fd(), POLL_TICK) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(_) => break,
        }
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
            Err(_) => break,
        };
        handlers.retain(|h| !h.is_finished());
        let service = Arc::clone(&service);
        let journals = Arc::clone(&journals);
        let stop = Arc::clone(&stop);
        let handler = std::thread::Builder::new()
            .name("spade-shard-conn".into())
            .spawn(move || serve_connection(stream, &service, &journals, &stop))
            .expect("spawn connection thread");
        handlers.push(handler);
    }
    handlers
}

/// Reads frames off one connection until EOF, error, or stop.
fn serve_connection(
    mut stream: TcpStream,
    service: &SpadeService,
    journals: &Mutex<JournalSet>,
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => decoder.extend(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    if !apply(frame, service, journals, stop, &mut stream) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    // Framing can no longer be trusted: describe the
                    // corruption and drop the connection.
                    let _ =
                        write_frame(&mut stream, &WireFrame::Error { message: err.to_string() });
                    return;
                }
            }
        }
    }
}

/// Applies one decoded frame; `false` closes the connection.
fn apply(
    frame: WireFrame,
    service: &SpadeService,
    journals: &Mutex<JournalSet>,
    stop: &AtomicBool,
    out: &mut TcpStream,
) -> bool {
    let mut reply = |frame: &WireFrame| write_frame(out, frame).and_then(|()| out.flush()).is_ok();
    let error = |message: &str| WireFrame::Error { message: message.into() };
    // Each arm yields its reply and whether the connection stays open,
    // or `None` when the worker behind the service is gone.
    let answer = match frame.into_ingest() {
        // One worker command per batch (the shard-grouped fast path).
        // `submit_batch` blocks while the queue is full, so a batch is
        // always accepted whole and the late Ack is the back-pressure.
        Ok((edges, budget)) => {
            let accepted = edges.len() as u64;
            service.submit_batch(edges, budget).then_some((WireFrame::Ack { accepted }, true))
        }
        Err(WireFrame::Flush) => service.flush().then_some((WireFrame::Ack { accepted: 0 }, true)),
        // Read-your-acks: a `Batch` is acked once *enqueued*, so drain
        // the worker first — the detection must reflect every edge this
        // connection was already acknowledged for.
        Err(WireFrame::Detect) => service.barrier().then(|| {
            let det = service.current_detection();
            let det = DetectionReply {
                size: det.size as u64,
                density: det.density,
                updates_applied: det.updates_applied,
                members: det.members.to_vec(),
            };
            (WireFrame::Detection(det), true)
        }),
        // Same read-your-acks barrier: `updates_applied` feeds the
        // router's acked == applied exactly-once audit, which must not
        // observe a still-queued suffix.
        Err(WireFrame::Stats) => service.barrier().then(|| {
            let stats = service.stats();
            let stats = StatsReply {
                shards: 1,
                updates_applied: stats.updates_applied,
                queue_depth: stats.queue_depth as u64,
                connections: 1,
                frames: 0,
                edges_accepted: stats.updates_applied,
                busy_replies: 0,
                malformed_frames: 0,
                uptime_secs: stats.uptime_secs,
                shard_queue_depths: vec![stats.queue_depth as u64],
            };
            (WireFrame::StatsReply(stats), true)
        }),
        Err(WireFrame::Metrics) => {
            let exposition = service.metrics().render_prometheus();
            Some((
                WireFrame::MetricsReply(MetricsReply { version: METRICS_VERSION, exposition }),
                true,
            ))
        }
        Err(WireFrame::Shutdown) => {
            stop.store(true, Ordering::Release);
            Some((WireFrame::Ack { accepted: 0 }, false))
        }
        Err(WireFrame::Region { hops }) => service.candidate_region(hops as usize).map(|region| {
            if region.members.len() > MAX_MIGRATE_MEMBERS
                || region.encoded.len() > MAX_SNAPSHOT_BYTES
            {
                return (error("candidate region exceeds frame bounds"), true);
            }
            let region = RegionReply {
                size: region.size as u64,
                density: region.density,
                updates_applied: region.updates_applied,
                epoch: region.epoch,
                members: region.members.to_vec(),
                encoded: region.encoded,
            };
            (WireFrame::RegionReply(region), true)
        }),
        Err(WireFrame::MigrateOut { members }) => {
            service.migrate_out(Arc::from(members.as_slice())).map(|slice| {
                if slice.encoded.len() > MAX_SNAPSHOT_BYTES {
                    return (error("migration slice exceeds frame bounds"), true);
                }
                let slice = WireSlice {
                    vertices: slice.vertices as u64,
                    edges: slice.edges as u64,
                    edge_weight: slice.edge_weight,
                    updates_applied: slice.updates_applied,
                    encoded: slice.encoded,
                };
                (WireFrame::SliceReply(slice), true)
            })
        }
        Err(WireFrame::Absorb { slice }) => {
            let slice = MigrationSlice {
                encoded: slice.encoded,
                vertices: slice.vertices as usize,
                edges: slice.edges as usize,
                edge_weight: slice.edge_weight,
                updates_applied: slice.updates_applied,
            };
            service.absorb(slice).map(|receipt| {
                let receipt = AbsorbReply {
                    vertices_touched: receipt.vertices_touched as u64,
                    edges_applied: receipt.edges_applied as u64,
                    rejected: receipt.rejected,
                };
                (WireFrame::AbsorbReply(receipt), true)
            })
        }
        Err(WireFrame::Replicate { owner, seq, edges }) => {
            Some(match journals.lock().append(owner, seq, edges) {
                Ok(accepted) => (WireFrame::Ack { accepted }, true),
                Err(message) => (error(message), false),
            })
        }
        Err(WireFrame::Bootstrap { owner, after }) => {
            let (through, tail) = journals.lock().replay(owner, after);
            for (through, edges) in tail {
                let chunk = BootstrapChunk { owner, through, done: false, edges };
                if !reply(&WireFrame::BootstrapChunk(chunk)) {
                    return false;
                }
            }
            let last = BootstrapChunk { owner, through, done: true, edges: Vec::new() };
            Some((WireFrame::BootstrapChunk(last), true))
        }
        // Every request kind is served above, so what is left is a reply
        // frame — a protocol violation: report and drop the connection.
        Err(other) => {
            debug_assert!(other.is_reply(), "unserved request kind {}", other.kind());
            Some((error(&format!("{} reply sent to a shard server", other.kind())), false))
        }
    };
    let (frame, keep_open) = answer.unwrap_or_else(|| (error("shard has shut down"), false));
    reply(&frame) && keep_open
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_core::{SpadeEngine, WeightedDensity};
    use spade_graph::VertexId;

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
        assert!(matches!(request(&mut stream, &WireFrame::Flush), WireFrame::Ack { .. }));
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
    fn migrates_a_slice_between_two_servers() {
        let (mut src_server, mut src) = spawn_server();
        let (mut dst_server, mut dst) = spawn_server();
        let edges = vec![(v(1), v(2), 4.0), (v(2), v(1), 4.0), (v(1), v(3), 2.0)];
        request(&mut src, &WireFrame::Batch { edges });
        request(&mut src, &WireFrame::Flush);
        let slice =
            match request(&mut src, &WireFrame::MigrateOut { members: vec![v(1), v(2), v(3)] }) {
                WireFrame::SliceReply(slice) => slice,
                other => panic!("unexpected reply: {other:?}"),
            };
        assert_eq!(slice.edges, 3);
        assert!(!slice.is_empty());
        match request(&mut dst, &WireFrame::Absorb { slice }) {
            WireFrame::AbsorbReply(receipt) => {
                assert_eq!(receipt.edges_applied, 3);
                assert_eq!(receipt.rejected, 0);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        // The slice was evicted at the source and lives on the target.
        match request(&mut src, &WireFrame::Detect) {
            WireFrame::Detection(det) => assert_eq!(det.size, 0),
            other => panic!("unexpected reply: {other:?}"),
        }
        match request(&mut dst, &WireFrame::Region { hops: 1 }) {
            WireFrame::RegionReply(region) => assert!(region.size > 0),
            other => panic!("unexpected reply: {other:?}"),
        }
        src_server.stop();
        dst_server.stop();
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
