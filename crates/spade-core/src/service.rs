//! Threaded streaming service — the runtime shape of the paper's Fig. 1
//! pipeline.
//!
//! Production fraud detection separates the *ingest* path (transactions
//! arrive on a queue, the engine reorders incrementally) from the *query*
//! path (moderators read the current fraudulent community, ban accounts,
//! pull statistics). [`SpadeService`] runs the engine on a dedicated
//! worker thread fed by a bounded crossbeam channel and publishes each
//! new detection as an epoch-versioned snapshot that any number of
//! moderator threads read without blocking ingestion.
//!
//! Two hot-path optimizations keep the ingest rate at hardware speed:
//!
//! * **Drain coalescing** (the paper's Algorithm 2 applied to the
//!   runtime): after blocking on the first command, the worker
//!   opportunistically drains whatever else is already queued (up to
//!   [`IngestConfig::coalesce`] commands) and feeds the whole run through
//!   the batch insertion path, so a burst of N edges costs **one**
//!   reorder pass and **one** publish instead of N of each. Exactness is
//!   preserved: §4.2 guarantees the batch reorder yields a peeling
//!   sequence bit-identical to per-edge insertion (property-tested in
//!   `tests/properties.rs`), and `updates_applied` still counts every
//!   submitted command. With edge grouping on, every drained insert is
//!   classified per edge and an **urgent** flush publishes immediately
//!   mid-run — coalescing never delays the §4.3 real-time path, it only
//!   amortizes the benign one.
//! * **Zero-copy publishing**: the published snapshot holds its member
//!   list behind an `Arc<[VertexId]>` and is swapped only when the
//!   detection actually changed. Readers clone a pointer, never a vec;
//!   unchanged publishes are counted as `skipped_unchanged` instead of
//!   re-cloning the community.
//!
//! The service wraps the edge-grouping layer, so benign traffic batches
//! exactly as in §4.3 while urgent transactions update the published
//! detection immediately.
//!
//! Every submit is a batch: `submit` is a one-edge `submit_batch`, so the
//! worker has one ingest command and one `ingest` step (stage the edge,
//! or classify it when grouping is on), and everything readers may
//! observe — a run's end, a barrier, a region export — goes through the
//! same `settle` step: apply the staged batch as one pass, then publish.
//!
//! The sharded runtime (`crate::shard`) scales this out by wrapping one
//! [`SpadeService`] per shard — same ingest protocol, same
//! publish-into-snapshot discipline, same drain-on-shutdown guarantee.

use crate::engine::SpadeEngine;
use crate::grouping::{EdgeGrouper, GroupingConfig};
use crate::metric::DensityMetric;
use crate::state::Detection;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::RwLock;
use spade_graph::VertexId;
use spade_metrics::runtime::{
    Counter, EventKind, Gauge, Histogram, MetricsRegistry, MetricsSnapshot,
};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Registry names of the per-stage metrics one worker records. Public
/// so front ends (sharded runtime, benches, the CLI) can look up the
/// same series without stringly re-deriving them.
pub mod metric_names {
    /// Histogram: submit → drain wait per ingest command, nanoseconds.
    /// Its count equals `updates_applied` at quiesce — every insert is
    /// timed exactly once.
    pub const STAGE_QUEUE_WAIT_NS: &str = "spade_stage_queue_wait_ns";
    /// Histogram: reorder/peel time per applied batch (or per urgent
    /// grouped flush), nanoseconds.
    pub const STAGE_REORDER_NS: &str = "spade_stage_reorder_ns";
    /// Histogram: publish-attempt latency (detect + snapshot swap),
    /// nanoseconds.
    pub const STAGE_PUBLISH_NS: &str = "spade_stage_publish_ns";
    /// Histogram: inserts applied per coalesced batch.
    pub const COALESCE_BATCH_SIZE: &str = "spade_coalesce_batch_size";
    /// Counter: edge-grouping flushes performed.
    pub const FLUSHES_TOTAL: &str = "spade_flushes_total";
    /// Counter: snapshot publications that swapped the snapshot.
    pub const PUBLISHES_TOTAL: &str = "spade_publishes_total";
    /// Counter: publish attempts skipped (detection unchanged).
    pub const PUBLISHES_SKIPPED_TOTAL: &str = "spade_publishes_skipped_total";
    /// Counter: malformed transactions dropped by the worker.
    pub const REJECTED_TOTAL: &str = "spade_rejected_total";
    /// Counter: ingest commands processed (mirrors `updates_applied`).
    pub const UPDATES_TOTAL: &str = "spade_updates_total";
    /// Gauge: commands waiting in the ingest queue (refreshed on
    /// snapshot).
    pub const QUEUE_DEPTH: &str = "spade_queue_depth";
    /// Gauge: directed edges resident in the worker's graph.
    pub const EDGES_RESIDENT: &str = "spade_edges_resident";
    /// Counter: budgeted transactions applied after their latency
    /// budget had already elapsed.
    pub const DEADLINE_MISS_TOTAL: &str = "spade_deadline_miss_total";
    /// Histogram: remaining latency budget when a budgeted transaction
    /// reached the engine, nanoseconds (misses record zero slack).
    pub const DEADLINE_SLACK_NS: &str = "spade_deadline_slack_ns";
}

/// Ingest tuning knobs of a [`SpadeService`] worker.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Bound of the ingest channel (back-pressure for bursty producers).
    pub queue_capacity: usize,
    /// Maximum number of queued commands the worker drains per wake-up
    /// and applies as one batch (one reorder pass, one publish). `1`
    /// reproduces strict per-edge processing; larger values amortize a
    /// burst without delaying anything — the worker never *waits* for a
    /// batch to fill, it only drains what is already queued.
    pub coalesce: usize,
    /// Default per-transaction detection-latency budget (the SLO
    /// deadline), applied to every submit that does not carry an
    /// explicit budget. When budgeted transactions are staged and the
    /// queue runs dry, the worker *spring-pushes* the batch boundary:
    /// instead of applying immediately it waits for more work until the
    /// earliest staged budget would be at risk (arrival + budget − a
    /// peel-cost margin from the live reorder histogram), so loose
    /// budgets buy bigger batches and tight budgets degrade gracefully
    /// to per-edge latency. `None` (the default) reproduces today's
    /// drain-coalesce behavior bit-exactly: the worker never waits.
    pub deadline: Option<Duration>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { queue_capacity: 1024, coalesce: 256, deadline: None }
    }
}

impl IngestConfig {
    /// Config with the given queue bound and the default coalesce cap.
    pub fn with_queue_capacity(queue_capacity: usize) -> Self {
        IngestConfig { queue_capacity, ..Default::default() }
    }
}

/// A published detection: descriptor plus the community members behind a
/// shared pointer (cloning a `PublishedDetection` never copies the
/// member list).
#[derive(Clone, Debug, Default)]
pub struct PublishedDetection {
    /// Community size and density.
    pub size: usize,
    /// `g(S_P)`.
    pub density: f64,
    /// Members of the detected community. Shared, immutable snapshot:
    /// the worker allocates it once per *changed* detection and readers
    /// clone the pointer.
    pub members: Arc<[VertexId]>,
    /// Ingest commands processed when this detection was read. Counts
    /// every submitted transaction, including ones the engine rejected
    /// (self-loops, bad weights) or treated as redundant — it answers
    /// "how much of the stream has this worker consumed", which is what
    /// drain/exactness accounting needs, not "how many edges landed in
    /// the graph".
    pub updates_applied: u64,
    /// Monotone snapshot version, bumped every time the worker publishes
    /// a *changed* detection. Two reads with equal epochs hold the same
    /// member list (pointer-equal), so pollers can skip downstream work.
    pub epoch: u64,
}

/// One shard's candidate-region export: its current detection plus the
/// k-hop frontier subgraph around it, serialized with the
/// [`crate::persist`] subgraph codec. This is the unit the cross-shard
/// repair pass (`crate::shard::repair`) unions and re-peels, and — being
/// plain bytes — the wire format a distributed backend would ship between
/// processes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CandidateRegion {
    /// Community size at export time.
    pub size: usize,
    /// Community density `g(S_P)` on this shard's local graph.
    pub density: f64,
    /// Community members (global vertex ids). Shared snapshot — cloning a
    /// region never copies the member list.
    pub members: Arc<[VertexId]>,
    /// Encoded induced subgraph over the community plus its `hops`-hop
    /// frontier ([`crate::persist::SubgraphSnapshot`] bytes).
    pub encoded: Vec<u8>,
    /// Ingest commands this worker had consumed when the region was
    /// exported.
    pub updates_applied: u64,
    /// The worker's published detection epoch at export time. The export
    /// publishes before replying, so `(epoch, updates_applied)` names
    /// exactly the state this region reflects.
    pub epoch: u64,
}

/// A component slice leaving its source shard: the induced subgraph over
/// the migrated members (vertex suspiciousness + every member-to-member
/// edge this shard held), serialized with the [`crate::persist`] subgraph
/// codec, already **evicted** from the source engine when this value is
/// produced. Replaying it into another shard's engine completes the move
/// — see `crate::shard::migrate`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MigrationSlice {
    /// Encoded [`crate::persist::SubgraphSnapshot`] bytes (isolated
    /// zero-weight members pruned).
    pub encoded: Vec<u8>,
    /// Vertices carried by the slice after pruning.
    pub vertices: usize,
    /// Member-to-member edges carried (and evicted at the source).
    pub edges: usize,
    /// Total edge suspiciousness carried.
    pub edge_weight: f64,
    /// Ingest commands the source worker had consumed at export.
    pub updates_applied: u64,
}

impl MigrationSlice {
    /// `true` when the source shard held nothing of the component — no
    /// edges, no positive vertex weight — so there is nothing to absorb.
    pub fn is_empty(&self) -> bool {
        self.vertices == 0 && self.edges == 0
    }
}

/// What a target shard did with an absorbed [`MigrationSlice`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbsorbReceipt {
    /// Slice vertices materialized or re-weighted on the target.
    pub vertices_touched: usize,
    /// Slice edges applied (accumulated onto any weight the target
    /// already held for the same ordered pair).
    pub edges_applied: usize,
    /// Slice entries dropped (undecodable bytes or invalid weights).
    pub rejected: u64,
}

/// The ingest protocol between a service handle and its worker thread.
enum Command {
    /// A run of transactions (one edge for `submit`, a shard's share of
    /// a decoded frame for the sharded runtime) in one queue slot,
    /// stamped with its ingest time at submit so the worker can attribute
    /// queueing latency (Eq. 4's dominant term per §5.2) to the wait
    /// itself, plus its optional detection-latency budget (drives the
    /// spring-push batch boundary and deadline-miss accounting).
    Insert { edges: EdgeRun, queued: Instant, budget: Option<Duration> },
    /// Apply any buffered benign edges now.
    Flush,
    /// Drain marker: reply once every command queued before it has been
    /// applied and the resulting detection published.
    Barrier { reply: Sender<()> },
    /// Export the current detection plus a `hops`-hop frontier subgraph.
    Region { hops: usize, reply: Sender<CandidateRegion> },
    /// Extract the induced slice over `members`, evict it from this
    /// engine, and hand the encoded slice back (the source half of a
    /// component migration).
    MigrateOut { members: Arc<[VertexId]>, reply: Sender<MigrationSlice> },
    /// Replay a migrated slice into this engine (the target half).
    Absorb { slice: MigrationSlice, reply: Sender<AbsorbReceipt> },
    /// Drain and exit.
    Shutdown,
}

/// Pre-resolved registry handles the worker records into. Resolved once
/// at spawn (registration takes a lock), so the per-edge path is pure
/// relaxed atomic bumps — the registry itself is never touched while
/// streaming. Replaces the old ad-hoc `WorkerTelemetry` counter struct:
/// the same monotone counters now live in the registry, and
/// [`ServiceStats`] reads them back as a snapshot.
#[derive(Debug)]
struct WorkerMetrics {
    registry: Arc<MetricsRegistry>,
    /// Edge-grouping flushes applied (urgent, capacity, manual and the
    /// final drain). Mirrored from the grouper's own counter.
    flushes: Arc<Counter>,
    /// Snapshot publications that actually swapped the snapshot.
    publishes: Arc<Counter>,
    /// Publish attempts skipped because the detection had not changed
    /// since the last swap (the coalescing win, made observable).
    skipped_unchanged: Arc<Counter>,
    /// Malformed transactions dropped by the worker (self-loops,
    /// non-finite or negative suspiciousness).
    rejected: Arc<Counter>,
    /// Ingest commands processed (mirrors `updates_applied`).
    updates: Arc<Counter>,
    /// Submit → drain wait per ingest command (ns).
    queue_wait_ns: Arc<Histogram>,
    /// Reorder/peel time per applied batch or urgent flush (ns).
    reorder_ns: Arc<Histogram>,
    /// Publish-attempt latency (ns).
    publish_ns: Arc<Histogram>,
    /// Inserts applied per coalesced batch.
    batch_size: Arc<Histogram>,
    /// Live ingest-queue depth (refreshed when a snapshot is taken).
    queue_depth: Arc<Gauge>,
    /// Directed edges resident in the worker's graph.
    edges_resident: Arc<Gauge>,
    /// Budgeted transactions applied after their budget elapsed.
    deadline_miss: Arc<Counter>,
    /// Remaining budget at apply time (ns); misses record zero.
    deadline_slack_ns: Arc<Histogram>,
}

impl WorkerMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> WorkerMetrics {
        use metric_names as n;
        WorkerMetrics {
            flushes: registry.counter(n::FLUSHES_TOTAL),
            publishes: registry.counter(n::PUBLISHES_TOTAL),
            skipped_unchanged: registry.counter(n::PUBLISHES_SKIPPED_TOTAL),
            rejected: registry.counter(n::REJECTED_TOTAL),
            updates: registry.counter(n::UPDATES_TOTAL),
            queue_wait_ns: registry.histogram(n::STAGE_QUEUE_WAIT_NS),
            reorder_ns: registry.histogram(n::STAGE_REORDER_NS),
            publish_ns: registry.histogram(n::STAGE_PUBLISH_NS),
            batch_size: registry.histogram(n::COALESCE_BATCH_SIZE),
            queue_depth: registry.gauge(n::QUEUE_DEPTH),
            edges_resident: registry.gauge(n::EDGES_RESIDENT),
            deadline_miss: registry.counter(n::DEADLINE_MISS_TOTAL),
            deadline_slack_ns: registry.histogram(n::DEADLINE_SLACK_NS),
            registry,
        }
    }
}

/// The snapshot cell shared between the worker and all reader handles.
#[derive(Debug, Default)]
struct SharedDetection {
    /// The latest *changed* detection; swapped whole, read by pointer.
    detection: RwLock<PublishedDetection>,
    /// Commands consumed so far — advanced on **every** publish attempt
    /// (even skipped ones) so drain accounting never stalls behind an
    /// unchanged detection.
    updates_applied: AtomicU64,
    /// Directed edges resident in the worker's graph at the last publish
    /// attempt — the migration scheduler's size signal for choosing a
    /// move target.
    edges_resident: AtomicU64,
    /// Edges queued beyond their command count: each `Insert` holds
    /// one channel slot but carries many edges, and back-pressure must
    /// stay edge-denominated — `queue_free` subtracts this surplus so a
    /// stream of batched frames cannot buffer unboundedly more edges
    /// than `queue_capacity`. Incremented by `submit_batch` before the
    /// send, decremented by the worker on receipt.
    batched_backlog: AtomicU64,
}

/// Point-in-time statistics of a running [`SpadeService`].
///
/// Carries the published detection's descriptor (size/density) so status
/// polling never clones the member list — use
/// [`SpadeService::current_detection`] when the members are needed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Commands waiting in the ingest queue.
    pub queue_depth: usize,
    /// Ingest commands processed at the last publish attempt (see
    /// [`PublishedDetection::updates_applied`] for exact semantics).
    pub updates_applied: u64,
    /// Edge-grouping flushes performed.
    pub flushes: u64,
    /// Detection snapshots published (snapshot actually swapped).
    pub publishes: u64,
    /// Publish attempts skipped because nothing changed.
    pub skipped_unchanged: u64,
    /// Malformed transactions dropped by the worker.
    pub rejected: u64,
    /// Budgeted transactions applied after their latency budget had
    /// already elapsed.
    pub deadline_miss: u64,
    /// Directed edges resident in the worker's graph at the last publish
    /// attempt (accumulated pairs count once). The sharded migration
    /// scheduler breaks windowed-load ties toward the shard holding the
    /// least resident state.
    pub edges_resident: u64,
    /// Size of the last published detection.
    pub detection_size: usize,
    /// Density of the last published detection.
    pub detection_density: f64,
    /// Seconds since the service was spawned — lets a watch table turn
    /// monotone counters into rates without keeping its own clock.
    pub uptime_secs: f64,
}

/// Why an enqueue was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrySubmit {
    /// The ingest queue is at capacity; the service is alive.
    Full,
    /// The service has shut down.
    Closed,
}

/// A run of transactions: `(source, destination, raw weight)` each.
type EdgeRun = Vec<(VertexId, VertexId, f64)>;

/// A refused enqueue: why, and the payload handed back.
pub type Refused<T> = (TrySubmit, T);

/// Handle to a running detection service.
pub struct SpadeService {
    sender: Sender<Command>,
    shared: Arc<SharedDetection>,
    metrics: Arc<WorkerMetrics>,
    /// Budget stamped onto submits that carry none ([`IngestConfig::deadline`]).
    default_budget: Option<Duration>,
    /// Bound of the ingest channel — kept here so batch submitters can
    /// compute free slots (the channel itself only exposes `len`).
    queue_capacity: usize,
    /// The worker hands its engine back through here on exit, so callers
    /// can recover it (snapshotting, equivalence tests) after a drain.
    engine_back: Receiver<Box<dyn Any + Send>>,
    worker: Option<JoinHandle<()>>,
}

impl SpadeService {
    /// Spawns the worker thread around `engine`. `queue_capacity` bounds
    /// the ingest channel (back-pressure for bursty producers);
    /// `grouping` enables the §4.3 buffer. Uses the default coalesce cap
    /// — see [`SpadeService::spawn_with`] to tune it.
    pub fn spawn<M: DensityMetric + Send + 'static>(
        engine: SpadeEngine<M>,
        grouping: Option<GroupingConfig>,
        queue_capacity: usize,
    ) -> Self {
        Self::spawn_with(
            engine,
            grouping,
            IngestConfig::with_queue_capacity(queue_capacity),
            "spade-detector".into(),
        )
    }

    /// Spawns the worker with full ingest tuning (queue bound and drain
    /// coalesce cap) and an explicit worker-thread name — the sharded
    /// runtime names each of its workers `spade-shard-<i>`.
    pub fn spawn_with<M: DensityMetric + Send + 'static>(
        engine: SpadeEngine<M>,
        grouping: Option<GroupingConfig>,
        ingest: IngestConfig,
        thread_name: String,
    ) -> Self {
        let (sender, receiver) = bounded(ingest.queue_capacity.max(1));
        let (engine_tx, engine_back) = bounded(1);
        let shared = Arc::new(SharedDetection::default());
        let metrics = Arc::new(WorkerMetrics::new(Arc::new(MetricsRegistry::new())));
        let mut worker = Worker::new(
            engine,
            grouping,
            ingest.coalesce,
            Arc::clone(&shared),
            Arc::clone(&metrics),
        );
        let worker = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                worker.run(&receiver);
                let engine: Box<dyn Any + Send> = Box::new(worker.engine);
                let _ = engine_tx.send(engine);
            })
            .expect("failed to spawn detector thread");
        SpadeService {
            sender,
            shared,
            metrics,
            default_budget: ingest.deadline,
            queue_capacity: ingest.queue_capacity.max(1),
            engine_back,
            worker: Some(worker),
        }
    }

    /// Enqueues one transaction — a one-edge
    /// [`submit_batch`](Self::submit_batch) with the default budget.
    /// Blocks when the ingest queue is full (back-pressure); returns
    /// `false` if the service has shut down.
    pub fn submit(&self, src: VertexId, dst: VertexId, raw: f64) -> bool {
        self.submit_batch(vec![(src, dst, raw)], None)
    }

    /// Enqueues a whole run of transactions as **one** channel operation
    /// (one queue slot), sharing a single arrival stamp and budget. This
    /// is the shard-grouped fast path: a decoded 512-edge frame costs one
    /// send per destination shard instead of 512. The stamp lets the
    /// worker report submit → apply queueing latency. Blocks when the
    /// queue is full; returns `false` if the service has shut down. An
    /// empty run is a no-op. `budget: None` falls back to
    /// [`IngestConfig::deadline`]; a budget (either way) lets the worker
    /// spring-push the batch boundary and drives deadline-miss
    /// accounting.
    pub fn submit_batch(&self, edges: EdgeRun, budget: Option<Duration>) -> bool {
        self.send_batch(edges, budget, true).is_ok()
    }

    /// Non-blocking [`submit_batch`](Self::submit_batch): the run takes
    /// one queue slot now or none at all. A refusal hands the edges back
    /// with the reason, so an event loop keeps the frame and offers it
    /// again instead of blocking.
    pub fn try_submit_batch(
        &self,
        edges: EdgeRun,
        budget: Option<Duration>,
    ) -> Result<(), Refused<EdgeRun>> {
        self.send_batch(edges, budget, false)
    }

    fn send_batch(
        &self,
        edges: EdgeRun,
        budget: Option<Duration>,
        wait: bool,
    ) -> Result<(), Refused<EdgeRun>> {
        if edges.is_empty() {
            return Ok(());
        }
        let budget = budget.or(self.default_budget);
        // The surplus is published BEFORE the send so a concurrent
        // `queue_free` never under-counts; the worker's decrement
        // happens-after the send, so the counter cannot go negative.
        // audit: advisory backlog counter, races only widen queue_free slack
        let surplus = (edges.len() - 1) as u64;
        self.shared.batched_backlog.fetch_add(surplus, Ordering::Relaxed);
        let command = Command::Insert { edges, queued: Instant::now(), budget };
        self.enqueue(command, wait).map_err(|(why, command)| {
            self.shared.batched_backlog.fetch_sub(surplus, Ordering::Relaxed);
            let Command::Insert { edges, .. } = command else {
                unreachable!("a refused send returns the command it was given")
            };
            (why, edges)
        })
    }

    /// The one place a command enters the ingest queue. A full queue
    /// blocks the caller when `wait` is set and refuses the command with
    /// [`TrySubmit::Full`] otherwise; a worker that is gone refuses it
    /// with [`TrySubmit::Closed`] either way.
    fn enqueue(&self, command: Command, wait: bool) -> Result<(), Refused<Command>> {
        if wait {
            return self.sender.send(command).map_err(|e| (TrySubmit::Closed, e.0));
        }
        self.sender.try_send(command).map_err(|e| match e {
            TrySendError::Full(command) => (TrySubmit::Full, command),
            TrySendError::Disconnected(command) => (TrySubmit::Closed, command),
        })
    }

    /// Enqueues a command that answers on a reply channel and hands that
    /// channel back without waiting for the answer.
    fn request<T>(
        &self,
        wait: bool,
        command: impl FnOnce(Sender<T>) -> Command,
    ) -> Result<Receiver<T>, TrySubmit> {
        let (reply, receiver) = bounded(1);
        self.enqueue(command(reply), wait).map(|()| receiver).map_err(|(why, _)| why)
    }

    /// Edge-denominated queue slots free right now: capacity minus
    /// queued commands minus the surplus edges carried by queued batch
    /// commands. Advisory: other producers may race; batch submitters
    /// combine it with a routing lock (the sharded runtime) or accept
    /// the bounded slack. A worker that is gone (a panicking metric
    /// unwound it) leaves its queued commands counted forever, so it
    /// reads as unbounded instead: the enqueue that follows then fails
    /// as [`TrySubmit::Closed`] rather than waiting on a queue no one
    /// drains.
    pub fn queue_free(&self) -> usize {
        if self.worker.as_ref().is_none_or(JoinHandle::is_finished) {
            return usize::MAX;
        }
        // audit: advisory backlog counter, races only widen queue_free slack
        let backlog = self.shared.batched_backlog.load(Ordering::Relaxed) as usize;
        self.queue_capacity.saturating_sub(self.sender.len().saturating_add(backlog))
    }

    /// Asks the worker to flush any buffered benign edges.
    pub fn flush(&self) -> bool {
        self.sender.send(Command::Flush).is_ok()
    }

    /// Read-your-acks barrier: blocks until the worker has applied every
    /// transaction submitted before this call and published the
    /// resulting detection. Grouped benign edges stay buffered — the
    /// published detection excludes them, and the barrier agrees with
    /// it. Returns `false` if the service has shut down.
    pub fn barrier(&self) -> bool {
        self.request_barrier(true).is_ok_and(|done| done.recv().is_ok())
    }

    /// Fire-and-collect variant of [`barrier`](Self::barrier): hands back
    /// the reply channel without waiting for the answer, so the sharded
    /// runtime can let all shards drain in parallel and an event loop can
    /// park a connection on the reply. As for every `request_*` form, a
    /// full queue blocks the caller when `wait` is set and is an
    /// `Err(TrySubmit::Full)` otherwise; `Closed` means shut down.
    pub fn request_barrier(&self, wait: bool) -> Result<Receiver<()>, TrySubmit> {
        self.request(wait, |reply| Command::Barrier { reply })
    }

    /// Exports this worker's candidate region: its current detection plus
    /// a `hops`-hop frontier of boundary edges, serialized with the
    /// persist subgraph codec. Blocks until the worker reaches the
    /// request in its FIFO queue, so the region reflects every
    /// transaction submitted before this call (grouped benign edges still
    /// buffered are excluded, exactly as they are from the published
    /// detection). Returns `None` if the service has shut down.
    pub fn candidate_region(&self, hops: usize) -> Option<CandidateRegion> {
        self.request_candidate_region(hops, true).ok()?.recv().ok()
    }

    /// Fire-and-collect variant of
    /// [`candidate_region`](Self::candidate_region), so the sharded
    /// runtime can let all shards drain and extract in parallel.
    pub fn request_candidate_region(
        &self,
        hops: usize,
        wait: bool,
    ) -> Result<Receiver<CandidateRegion>, TrySubmit> {
        self.request(wait, |reply| Command::Region { hops, reply })
    }

    /// Extracts and **evicts** the induced slice over `members` from this
    /// worker's engine, returning the encoded slice (the source half of a
    /// component migration — see `crate::shard::migrate`). Blocks until
    /// the worker reaches the request in its FIFO queue, so the slice
    /// covers every transaction submitted before this call, including
    /// grouped benign edges (the worker flushes its buffer first).
    /// Returns `None` if the service has shut down.
    pub fn migrate_out(&self, members: Arc<[VertexId]>) -> Option<MigrationSlice> {
        self.request_migrate_out(members, true).ok()?.recv().ok()
    }

    /// Fire-and-collect variant of [`migrate_out`](Self::migrate_out).
    /// The sharded runtime enqueues this **under its routing lock** (and
    /// waiting for room) so the marker is ordered after every edge routed
    /// to this shard before a rehome.
    pub fn request_migrate_out(
        &self,
        members: Arc<[VertexId]>,
        wait: bool,
    ) -> Result<Receiver<MigrationSlice>, TrySubmit> {
        self.request(wait, |reply| Command::MigrateOut { members, reply })
    }

    /// Replays a migrated slice into this worker's engine (the target
    /// half of a component migration). Returns `None` if the service has
    /// shut down.
    pub fn absorb(&self, slice: MigrationSlice) -> Option<AbsorbReceipt> {
        self.request_absorb(slice, true).ok()?.recv().ok()
    }

    /// Fire-and-collect variant of [`absorb`](Self::absorb).
    pub fn request_absorb(
        &self,
        slice: MigrationSlice,
        wait: bool,
    ) -> Result<Receiver<AbsorbReceipt>, TrySubmit> {
        self.request(wait, |reply| Command::Absorb { slice, reply })
    }

    /// The most recently published detection. O(1): a brief read lock
    /// and an `Arc` pointer clone — never proportional to community
    /// size.
    pub fn current_detection(&self) -> PublishedDetection {
        let mut det = self.shared.detection.read().clone();
        det.updates_applied = self.shared.updates_applied.load(Ordering::Acquire);
        det
    }

    /// Current ingest/processing counters (no member-list clone). A
    /// view over the same registry handles the worker records into —
    /// `ServiceStats` is the registry snapshot in struct form.
    pub fn stats(&self) -> ServiceStats {
        let det = self.shared.detection.read();
        ServiceStats {
            queue_depth: self.sender.len(),
            updates_applied: self.shared.updates_applied.load(Ordering::Acquire),
            flushes: self.metrics.flushes.get(),
            publishes: self.metrics.publishes.get(),
            skipped_unchanged: self.metrics.skipped_unchanged.get(),
            rejected: self.metrics.rejected.get(),
            deadline_miss: self.metrics.deadline_miss.get(),
            edges_resident: self.shared.edges_resident.load(Ordering::Acquire),
            detection_size: det.size,
            detection_density: det.density,
            uptime_secs: self.metrics.registry.uptime().as_secs_f64(),
        }
    }

    /// A point-in-time copy of this worker's full metrics registry:
    /// per-stage latency histograms (queue wait, reorder/peel, publish),
    /// the monotone counters behind [`stats`](Self::stats), and the
    /// recent event trace. The live queue-depth and resident-edge gauges
    /// are refreshed as part of taking the snapshot. Snapshots merge —
    /// see [`spade_metrics::MetricsSnapshot::merge`] — which is how the
    /// sharded runtime builds its global view.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.queue_depth.set(self.sender.len() as u64);
        self.metrics.edges_resident.set(self.shared.edges_resident.load(Ordering::Acquire));
        self.metrics.registry.snapshot()
    }

    /// Signals shutdown, waits for the worker to drain the queue, and
    /// returns the final published detection.
    pub fn shutdown(mut self) -> PublishedDetection {
        self.join_worker();
        self.current_detection()
    }

    /// Like [`shutdown`](Self::shutdown), additionally handing back the
    /// worker's engine so callers can snapshot it or inspect the full
    /// peeling state after the drain. Returns `None` for the engine if
    /// `M` does not match the type the service was spawned with.
    pub fn shutdown_into_engine<M: DensityMetric + Send + 'static>(
        mut self,
    ) -> (PublishedDetection, Option<SpadeEngine<M>>) {
        self.join_worker();
        let engine = self
            .engine_back
            .try_recv()
            .ok()
            .and_then(|boxed| boxed.downcast::<SpadeEngine<M>>().ok())
            .map(|boxed| *boxed);
        (self.current_detection(), engine)
    }

    fn join_worker(&mut self) {
        let _ = self.sender.send(Command::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for SpadeService {
    fn drop(&mut self) {
        self.join_worker();
    }
}

/// The detector worker: everything the ingest thread owns. Every
/// [`SpadeService`] runs one of these — including the N services the
/// sharded runtime wraps. [`ingest`](Self::ingest) and
/// [`settle`](Self::settle) are the one route the module docs describe.
struct Worker<M: DensityMetric> {
    engine: SpadeEngine<M>,
    grouper: Option<EdgeGrouper>,
    /// Cap on the staged batch and on the edges one run drains.
    coalesce: usize,
    /// Ungrouped inserts staged for one batch application.
    batch: Vec<(VertexId, VertexId, f64)>,
    /// Arrival stamp + budget of every staged insert, kept in lockstep
    /// with `batch` so apply time can record the true submit → apply
    /// wait and deadline slack per transaction.
    pending: Vec<(Instant, Option<Duration>)>,
    /// Edges ingested by the current run.
    run_len: usize,
    /// Ingest commands consumed so far.
    updates: u64,
    publisher: Publisher,
    shared: Arc<SharedDetection>,
    metrics: Arc<WorkerMetrics>,
}

impl<M: DensityMetric> Worker<M> {
    fn new(
        engine: SpadeEngine<M>,
        grouping: Option<GroupingConfig>,
        coalesce: usize,
        shared: Arc<SharedDetection>,
        metrics: Arc<WorkerMetrics>,
    ) -> Self {
        let coalesce = coalesce.max(1);
        Worker {
            engine,
            grouper: grouping.map(EdgeGrouper::new),
            coalesce,
            batch: Vec::with_capacity(coalesce.min(4096)),
            pending: Vec::with_capacity(coalesce.min(4096)),
            run_len: 0,
            updates: 0,
            publisher: Publisher::default(),
            shared,
            metrics,
        }
    }

    /// Consumes [`Command`]s until shutdown (or until every sender is
    /// gone), publishing every new detection into `shared`.
    ///
    /// The loop blocks on the first command of a run, then drains
    /// whatever else is already queued (up to the coalesce cap) and
    /// settles the whole run at once: one reorder pass, one publish
    /// attempt.
    ///
    /// With latency budgets in play the drain becomes an event-driven
    /// wait: when the queue runs dry while budgeted transactions are
    /// staged, the worker spring-pushes the batch boundary — it sleeps
    /// on the channel until either new work arrives or the earliest
    /// staged deadline (minus a peel-cost margin estimated from the live
    /// reorder histogram) would be at risk, whichever comes first.
    /// Budget-free runs never wait, so the no-budget path is
    /// bit-identical to plain drain-coalescing.
    fn run(&mut self, receiver: &Receiver<Command>) {
        self.publish();
        let mut shutdown = false;
        while !shutdown {
            // Every sender gone is a shutdown without the marker.
            let mut cmd = receiver.recv().unwrap_or(Command::Shutdown);
            self.run_len = 0;
            // Peel-cost margin for the spring push, resolved from the
            // live reorder histogram at most once per run (a snapshot
            // allocates) and only when a budgeted insert needs it.
            let mut margin: Option<Duration> = None;
            loop {
                match cmd {
                    Command::Insert { edges, queued, budget } => {
                        // The command left the channel: its surplus
                        // edges no longer occupy queue slots.
                        // audit: advisory backlog counter, races only widen queue_free slack
                        self.shared
                            .batched_backlog
                            .fetch_sub(edges.len().saturating_sub(1) as u64, Ordering::Relaxed);
                        self.ingest(&edges, queued, budget);
                    }
                    Command::Flush => self.flush(),
                    Command::Barrier { reply } => {
                        self.settle();
                        let _ = reply.send(());
                    }
                    Command::Region { hops, reply } => {
                        let _ = reply.send(self.export_region(hops));
                    }
                    Command::MigrateOut { members, reply } => {
                        let _ = reply.send(self.migrate_out(&members));
                    }
                    Command::Absorb { slice, reply } => {
                        let _ = reply.send(self.absorb(&slice));
                    }
                    Command::Shutdown => {
                        // Final drain, so the last published state
                        // reflects every submission before the marker.
                        self.flush();
                        shutdown = true;
                        break;
                    }
                }
                if self.run_len >= self.coalesce {
                    break;
                }
                cmd = match receiver.try_recv() {
                    Ok(next) => next,
                    // Queue ran dry mid-run. Spring push: if every staged
                    // insert still has budget slack past the peel margin,
                    // hold the batch open and sleep on the channel until
                    // new work arrives or the earliest boundary hits —
                    // whichever comes first. Budget-free batches (and
                    // boundaries already past) apply immediately, exactly
                    // like the pre-deadline drain-coalesce.
                    Err(_) => {
                        let now = Instant::now();
                        match spring_wait(&self.pending, &mut margin, &self.metrics, now)
                            .map(|timeout| receiver.recv_timeout(timeout))
                        {
                            Some(Ok(next)) => next,
                            _ => break,
                        }
                    }
                };
            }
            self.settle();
        }
    }

    /// The one ingest path: `Command::Insert` hands in its run; `queued`
    /// and `budget` cover the slice.
    ///
    /// Without a grouper, edges are staged and apply as one §4.2 pass
    /// when the run settles. Staged inserts defer their queue-wait
    /// sample to apply time (the wait they pay includes any spring-push
    /// delay), so there is no clock read per edge. A run can overshoot
    /// the coalesce cap mid-command: the full batch settles first and
    /// staging continues — the same mid-run publish an urgent grouped
    /// flush does.
    ///
    /// With a grouper, each edge goes through per-edge urgency
    /// classification right here (benign edges only touch the grouping
    /// buffer — no reorder, no publish), and an urgent flush publishes
    /// *immediately*, so the §4.3 real-time guarantee survives
    /// coalescing. Drain time IS apply time: one clock read per call
    /// covers the queue-wait samples and the start of processing time.
    fn ingest(
        &mut self,
        edges: &[(VertexId, VertexId, f64)],
        queued: Instant,
        budget: Option<Duration>,
    ) {
        self.run_len += edges.len();
        let Some(g) = self.grouper.as_mut() else {
            for &edge in edges {
                if self.batch.len() >= self.coalesce {
                    self.settle();
                }
                self.batch.push(edge);
                self.pending.push((queued, budget));
            }
            return;
        };
        let drained = Instant::now();
        let wait = drained.saturating_duration_since(queued);
        for &(src, dst, raw) in edges {
            record_wait(&self.metrics, wait, budget);
            self.updates += 1;
            match g.submit(&mut self.engine, src, dst, raw) {
                Ok(out) if out.flushed.is_some() => {
                    // An urgent/capacity flush ran a real reorder pass:
                    // attribute its cost to the reorder/peel stage.
                    self.metrics.reorder_ns.record_duration(drained.elapsed());
                    self.metrics.registry.event(EventKind::Flush, self.updates);
                    self.metrics.flushes.store(g.stats().flushes as u64);
                    // `g` holds the grouper field, so name the others.
                    self.publisher.publish(
                        &mut self.engine,
                        &self.shared,
                        self.updates,
                        &self.metrics,
                    );
                }
                Ok(_) => {}
                Err(_) => self.metrics.rejected.inc(),
            }
        }
    }

    /// Applies the staged batch as one §4.2 batch insertion (one reorder
    /// pass). Malformed transactions are counted, never fatal. Records
    /// the batch size, each transaction's queue wait and deadline
    /// outcome (stamped here, where the wait truly ends), and the
    /// reorder/peel wall time — the processing half of Eq. 4's latency
    /// split. A single-command drain skips the batch-path setup entirely
    /// and inserts per-edge — §4.2 makes a batch of one identical, and
    /// drip traffic should not pay batching overhead for it.
    fn apply_staged(&mut self) {
        debug_assert_eq!(self.batch.len(), self.pending.len(), "batch and stamps diverged");
        if self.batch.is_empty() {
            return;
        }
        let applied_at = Instant::now();
        for (queued, budget) in self.pending.drain(..) {
            record_wait(&self.metrics, applied_at.saturating_duration_since(queued), budget);
        }
        self.updates += self.batch.len() as u64;
        self.metrics.batch_size.record(self.batch.len() as u64);
        let reorder_started = Instant::now();
        let rejected = match self.batch[..] {
            [(src, dst, raw)] => u64::from(self.engine.insert_edge(src, dst, raw).is_err()),
            _ => self.engine.insert_batch_tolerant(&self.batch).1,
        };
        self.metrics.reorder_ns.record_duration(reorder_started.elapsed());
        if rejected > 0 {
            self.metrics.rejected.add(rejected);
        }
        self.batch.clear();
    }

    fn publish(&mut self) {
        self.publisher.publish(&mut self.engine, &self.shared, self.updates, &self.metrics);
    }

    /// Applies the staged batch, then publishes: `updates_applied` and
    /// the published detection now cover every insert ingested so far
    /// (grouped benign edges stay buffered, by design).
    fn settle(&mut self) {
        self.apply_staged();
        self.publish();
    }

    /// Applies the staged batch and every benign edge the grouper still
    /// buffers (timed as a reorder pass when it ran one), and mirrors
    /// the grouper's flush counter into the exported telemetry — the
    /// grouper is the single source of truth for what counts as a flush.
    /// The caller publishes.
    fn flush(&mut self) {
        self.apply_staged();
        let Some(g) = self.grouper.as_mut() else { return };
        let before = g.stats().flushes;
        let flush_started = Instant::now();
        let _ = g.flush(&mut self.engine);
        if g.stats().flushes > before {
            self.metrics.reorder_ns.record_duration(flush_started.elapsed());
            self.metrics.registry.event(EventKind::Flush, self.updates);
            self.metrics.flushes.store(g.stats().flushes as u64);
        }
    }

    /// `Command::Region`. Regions reflect everything submitted before
    /// the request, so the run settles first. Buffered benign edges stay
    /// buffered — the region must agree with the published detection,
    /// which excludes them too. Publishing *here* (not at run end) keeps
    /// that agreement exact and lets the reply carry the final `(epoch,
    /// updates_applied)` of this state.
    fn export_region(&mut self, hops: usize) -> CandidateRegion {
        self.settle();
        let det = self.engine.detect();
        let members: Arc<[VertexId]> = Arc::from(self.engine.community(det));
        let snapshot =
            crate::persist::SubgraphSnapshot::extract(self.engine.graph(), &members, hops);
        CandidateRegion {
            size: det.size,
            density: det.density,
            members,
            encoded: snapshot.encode(),
            updates_applied: self.updates,
            epoch: self.publisher.epoch,
        }
    }

    /// `Command::MigrateOut`. Everything submitted before the marker
    /// must be in the slice: the staged batch AND the grouping buffer (a
    /// benign edge of a migrated member left in the buffer would
    /// resurrect on this shard after the eviction and be stranded for
    /// good).
    fn migrate_out(&mut self, members: &[VertexId]) -> MigrationSlice {
        self.flush();
        let mut snapshot =
            crate::persist::SubgraphSnapshot::extract(self.engine.graph(), members, 0);
        snapshot.prune_isolated();
        // Eviction cannot fail on a live single-threaded graph (every
        // collected edge exists, every weight clears to zero) — and
        // shipping an extracted slice after a PARTIAL eviction would
        // double-count the remainder fleet-wide, so a failure here must
        // be loud, not limped past.
        self.engine
            .remove_member_slice(members)
            .expect("slice eviction cannot fail on a live graph");
        self.publish();
        MigrationSlice {
            vertices: snapshot.vertices.len(),
            edges: snapshot.edges.len(),
            edge_weight: snapshot.edge_weight_total(),
            encoded: snapshot.encode(),
            updates_applied: self.updates,
        }
    }

    /// `Command::Absorb`: replays a migrated slice behind everything
    /// already staged.
    fn absorb(&mut self, slice: &MigrationSlice) -> AbsorbReceipt {
        self.apply_staged();
        let receipt = absorb_slice(&mut self.engine, slice);
        if receipt.rejected > 0 {
            self.metrics.rejected.add(receipt.rejected);
        }
        self.publish();
        receipt
    }
}

/// Replays a migrated slice into `engine`: vertex suspiciousness is
/// installed max-wise (both shards evaluated the same metric prior, so
/// the maximum is exact for the built-ins and conservative otherwise),
/// edge weights **accumulate** — a pair whose transactions were split
/// across the two shards by an earlier home change sums back to exactly
/// the solo-engine weight.
fn absorb_slice<M: DensityMetric>(
    engine: &mut SpadeEngine<M>,
    slice: &MigrationSlice,
) -> AbsorbReceipt {
    let mut receipt = AbsorbReceipt::default();
    let snapshot = match crate::persist::SubgraphSnapshot::decode(&slice.encoded) {
        Ok(snapshot) => snapshot,
        Err(_) => {
            receipt.rejected = (slice.vertices + slice.edges) as u64;
            return receipt;
        }
    };
    for &(u, w) in &snapshot.vertices {
        if engine.ensure_vertex(u).is_err() {
            receipt.rejected += 1;
            continue;
        }
        if w > engine.graph().vertex_weight(u) && engine.set_vertex_suspiciousness(u, w).is_err() {
            receipt.rejected += 1;
            continue;
        }
        receipt.vertices_touched += 1;
    }
    let (_, rejected) = engine.insert_batch_weighted_tolerant(&snapshot.edges);
    receipt.rejected += rejected;
    receipt.edges_applied = snapshot.edges.len() - rejected as usize;
    receipt
}

/// Scheduling slack added on top of the measured peel cost when the
/// spring push computes how long a budgeted batch may stay open: absorbs
/// OS timer oversleep and the wake-to-apply gap, so a feasible operating
/// point records zero deadline misses rather than flapping on noise.
/// Sized for the noisiest supported host — a container time-slicing one
/// hardware thread, where a runnable thread is routinely frozen for
/// several milliseconds — because a missed deadline costs more than the
/// coalescing the reserve gives up; budgets at or under the reserve
/// degrade to immediate per-edge applies, which is the correct limit.
const SCHED_SLACK: Duration = Duration::from_millis(5);

/// Records one transaction's submit → apply wait plus, when it carried a
/// latency budget, the deadline outcome: remaining slack on time,
/// miss counter + zero slack (and a trace event with the overshoot in
/// microseconds) when the budget had already elapsed.
fn record_wait(metrics: &WorkerMetrics, wait: Duration, budget: Option<Duration>) {
    metrics.queue_wait_ns.record_duration(wait);
    let Some(budget) = budget else { return };
    if wait > budget {
        metrics.deadline_miss.inc();
        metrics.deadline_slack_ns.record(0);
        let overshoot_us = (wait - budget).as_micros().min(u64::MAX as u128) as u64;
        metrics.registry.event(EventKind::DeadlineMiss, overshoot_us);
    } else {
        metrics.deadline_slack_ns.record_duration(budget - wait);
    }
}

/// How long the staged batch may stay open before the earliest budget is
/// at risk: `min(arrival + budget) − peel margin − now`, where the peel
/// margin is the live reorder-latency p99 plus [`SCHED_SLACK`]. `None`
/// means apply now — the batch is empty, holds no budgeted insert (the
/// exact legacy drain-coalesce case), or its boundary has already
/// passed. The margin is resolved lazily and cached in `margin` so a
/// run snapshots the histogram at most once. Pure in `now`, so the
/// boundary arithmetic is unit-tested without a clock.
fn spring_wait(
    pending: &[(Instant, Option<Duration>)],
    margin: &mut Option<Duration>,
    metrics: &WorkerMetrics,
    now: Instant,
) -> Option<Duration> {
    let mut boundary: Option<Instant> = None;
    for &(queued, budget) in pending {
        let Some(budget) = budget else { continue };
        let m = *margin.get_or_insert_with(|| {
            Duration::from_nanos(metrics.reorder_ns.snapshot().p99()) + SCHED_SLACK
        });
        let latest = queued + budget.saturating_sub(m);
        boundary = Some(boundary.map_or(latest, |cur| cur.min(latest)));
    }
    boundary?.checked_duration_since(now).filter(|d| !d.is_zero())
}

/// Worker-local publish state: detects whether the detection changed
/// since the last swap so unchanged publishes cost two comparisons, not
/// an allocation plus a member-list clone.
#[derive(Debug)]
struct Publisher {
    epoch: u64,
    last: Detection,
    /// Cumulative reorder-window count at the last swap; a rewritten
    /// window is the only way the community membership can change while
    /// the (size, density) descriptor stays equal.
    last_windows: Option<usize>,
}

impl Default for Publisher {
    fn default() -> Self {
        Publisher { epoch: 0, last: Detection::EMPTY, last_windows: None }
    }
}

impl Publisher {
    fn publish<M: DensityMetric>(
        &mut self,
        engine: &mut SpadeEngine<M>,
        shared: &SharedDetection,
        updates: u64,
        metrics: &WorkerMetrics,
    ) {
        let publish_started = Instant::now();
        // Exactness accounting advances on every attempt, even when the
        // snapshot itself is not swapped. The resident-size store comes
        // first: a reader that observes the new update count is then
        // guaranteed (release/acquire on `updates_applied`) to see a
        // graph size at least as fresh.
        shared.edges_resident.store(engine.graph().num_edges() as u64, Ordering::Release);
        shared.updates_applied.store(updates, Ordering::Release);
        metrics.updates.store(updates);
        let det: Detection = engine.detect();
        let windows = engine.total_reorder_stats().windows;
        if self.last_windows == Some(windows) && det == self.last {
            metrics.skipped_unchanged.inc();
            metrics.publish_ns.record_duration(publish_started.elapsed());
            return;
        }
        self.last_windows = Some(windows);
        self.last = det;
        self.epoch += 1;
        let members: Arc<[VertexId]> = Arc::from(engine.community(det));
        *shared.detection.write() = PublishedDetection {
            size: det.size,
            density: det.density,
            members,
            updates_applied: updates,
            epoch: self.epoch,
        };
        metrics.publishes.inc();
        metrics.publish_ns.record_duration(publish_started.elapsed());
        metrics.registry.event(EventKind::Publish, self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{UnweightedDensity, WeightedDensity};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn service_detects_fraud_ring_from_stream() {
        let engine = SpadeEngine::new(WeightedDensity);
        let service = SpadeService::spawn(engine, None, 64);
        // Background noise.
        for i in 0..10u32 {
            assert!(service.submit(v(i), v(i + 1), 1.0));
        }
        // Fraud ring.
        for a in 50..54u32 {
            for b in 50..54u32 {
                if a != b {
                    assert!(service.submit(v(a), v(b), 25.0));
                }
            }
        }
        let final_det = service.shutdown();
        assert!(final_det.density > 10.0);
        assert!(final_det.members.iter().all(|m| (50..54).contains(&m.0)));
        assert_eq!(final_det.updates_applied, 10 + 12);
    }

    #[test]
    fn grouped_service_publishes_after_flush() {
        let mut engine = SpadeEngine::new(WeightedDensity);
        // Establish a community so benign edges buffer.
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    engine.insert_edge(v(a), v(b), 20.0).unwrap();
                }
            }
        }
        let service = SpadeService::spawn(engine, Some(GroupingConfig::default()), 16);
        service.submit(v(10), v(11), 0.01); // benign: buffered
        service.flush();
        // Allow the worker to process.
        for _ in 0..2_000 {
            if service.current_detection().updates_applied >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let det = service.shutdown();
        assert!(det.size >= 3);
        assert_eq!(det.updates_applied, 1);
    }

    #[test]
    fn readers_see_published_snapshots_concurrently() {
        let engine = SpadeEngine::new(WeightedDensity);
        let service = Arc::new(SpadeService::spawn(engine, None, 128));
        let reader = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut max_seen = 0u64;
                for _ in 0..50 {
                    max_seen = max_seen.max(service.current_detection().updates_applied);
                    std::thread::yield_now();
                }
                max_seen
            })
        };
        for i in 0..100u32 {
            service.submit(v(i % 20), v((i + 1) % 20), 1.0 + i as f64);
        }
        let _ = reader.join().unwrap();
        let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("readers done"));
        let det = service.shutdown();
        assert_eq!(det.updates_applied, 100);
        assert!(det.size > 0);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let engine = SpadeEngine::new(WeightedDensity);
        let service = SpadeService::spawn(engine, None, 8);
        service.submit(v(0), v(1), 1.0);
        drop(service); // must not hang or panic
    }

    #[test]
    fn stats_count_flushes_and_publishes() {
        let mut engine = SpadeEngine::new(WeightedDensity);
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    engine.insert_edge(v(a), v(b), 20.0).unwrap();
                }
            }
        }
        let service = SpadeService::spawn(engine, Some(GroupingConfig::default()), 16);
        service.submit(v(10), v(11), 0.01); // benign: buffered
        service.flush();
        for _ in 0..2_000 {
            if service.stats().flushes >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let stats = service.stats();
        assert!(stats.flushes >= 1);
        assert!(stats.publishes >= 1);
        drop(service);
    }

    #[test]
    fn coalesced_run_matches_per_edge_processing() {
        // The same stream through a coalescing service and a solo
        // per-edge engine must produce bit-identical peeling state —
        // §4.2 equivalence exercised end to end through the worker loop.
        let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
        for i in 0..60u32 {
            edges.push((v(i % 17), v((i * 7 + 1) % 17), 1.0 + (i % 5) as f64));
        }
        for a in 40..44u32 {
            for b in 40..44u32 {
                if a != b {
                    edges.push((v(a), v(b), 30.0));
                }
            }
        }
        let service = SpadeService::spawn_with(
            SpadeEngine::new(WeightedDensity),
            None,
            IngestConfig { queue_capacity: 256, coalesce: 16, deadline: None },
            "coalesce-test".into(),
        );
        for &(a, b, w) in &edges {
            assert!(service.submit(a, b, w));
        }
        let (det, engine) = service.shutdown_into_engine::<WeightedDensity>();
        let mut coalesced = engine.expect("engine handed back");
        assert_eq!(det.updates_applied, edges.len() as u64);

        let mut solo = SpadeEngine::new(WeightedDensity);
        for &(a, b, w) in &edges {
            // Drop malformed edges (self-loops from the generator),
            // exactly like the worker does.
            let _ = solo.insert_edge(a, b, w);
        }
        assert_eq!(coalesced.state().logical_order(), solo.state().logical_order());
        assert_eq!(coalesced.detect(), solo.detect());
        assert_eq!(det.size, solo.detect().size);
    }

    #[test]
    fn malformed_inserts_are_counted_not_dropped_silently() {
        let service = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 32);
        assert!(service.submit(v(0), v(1), 2.0));
        assert!(service.submit(v(5), v(5), 1.0)); // self-loop: rejected
        assert!(service.submit(v(1), v(2), -3.0)); // negative susp: rejected
        assert!(service.submit(v(1), v(2), 1.0));
        let before_shutdown = {
            // Drain deterministically: poll until all four commands are
            // accounted for.
            for _ in 0..2_000 {
                if service.stats().updates_applied >= 4 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            service.stats()
        };
        assert_eq!(before_shutdown.updates_applied, 4);
        assert_eq!(before_shutdown.rejected, 2);
        let det = service.shutdown();
        assert_eq!(det.updates_applied, 4);
    }

    #[test]
    fn unchanged_detection_skips_the_snapshot_swap() {
        // DG set semantics: duplicate pairs are redundant, so repeated
        // submissions change nothing and must not re-publish.
        let mut engine = SpadeEngine::new(UnweightedDensity);
        engine.insert_edge(v(0), v(1), 1.0).unwrap();
        let service = SpadeService::spawn(engine, None, 32);
        // Wait for the worker's initial publish so `first` is the real
        // epoch-1 snapshot, not the pre-spawn default.
        for _ in 0..2_000 {
            if service.stats().publishes >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let first = service.current_detection();
        assert_eq!(first.epoch, 1, "worker must have published its initial snapshot");
        for _ in 0..20 {
            assert!(service.submit(v(0), v(1), 1.0));
        }
        for _ in 0..2_000 {
            if service.stats().updates_applied >= 20 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stats = service.stats();
        assert!(stats.skipped_unchanged >= 1, "redundant runs must skip the swap");
        let second = service.current_detection();
        assert_eq!(first.epoch, second.epoch);
        // Zero-copy: the member list is the same allocation, not a copy.
        assert!(Arc::ptr_eq(&first.members, &second.members));
        drop(service);
    }

    #[test]
    fn epoch_advances_when_the_detection_changes() {
        let service = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 32);
        let before = service.current_detection();
        for a in 10..13u32 {
            for b in 10..13u32 {
                if a != b {
                    assert!(service.submit(v(a), v(b), 9.0));
                }
            }
        }
        let det = service.shutdown();
        assert!(det.epoch > before.epoch);
        assert!(det.size > 0);
    }

    #[test]
    fn migrate_out_then_absorb_moves_a_slice_between_workers() {
        let source = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 64);
        let target = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 64);
        // Source: a dominant ring over 10..13 plus background noise.
        for i in 0..5u32 {
            assert!(source.submit(v(i), v(i + 1), 1.0));
        }
        for a in 10..13u32 {
            for b in 10..13u32 {
                if a != b {
                    assert!(source.submit(v(a), v(b), 20.0));
                }
            }
        }
        // Target already holds part of the same accumulated pair: the
        // absorbed weight must ADD, reassembling the solo total.
        assert!(target.submit(v(10), v(11), 5.0));

        let members: Arc<[VertexId]> = (10..13).map(v).collect::<Vec<_>>().into();
        let slice = source.migrate_out(Arc::clone(&members)).expect("source alive");
        assert_eq!(slice.vertices, 3);
        assert_eq!(slice.edges, 6);
        assert!((slice.edge_weight - 120.0).abs() < 1e-9);
        assert!(!slice.is_empty());

        let receipt = target.absorb(slice).expect("target alive");
        assert_eq!(receipt.edges_applied, 6);
        assert_eq!(receipt.rejected, 0);

        // Source fell back to the noise path; target now detects the
        // ring with the accumulated pair weight.
        let source_det = source.shutdown();
        assert!(source_det.members.iter().all(|m| m.0 <= 5));
        let (target_det, engine) = target.shutdown_into_engine::<WeightedDensity>();
        let engine = engine.expect("engine handed back");
        assert!(target_det.members.iter().all(|m| (10..13).contains(&m.0)));
        assert_eq!(engine.graph().edge_weight(v(10), v(11)), Some(25.0));
        assert!((target_det.density - (120.0 + 5.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn migrating_an_absent_component_yields_an_empty_slice() {
        let source = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 16);
        assert!(source.submit(v(0), v(1), 2.0));
        // Members far outside anything this worker holds.
        let members: Arc<[VertexId]> = vec![v(500), v(501)].into();
        let slice = source.migrate_out(members).expect("alive");
        assert!(slice.is_empty());
        assert_eq!(slice.edge_weight, 0.0);
        // Absorbing an empty slice is a harmless no-op.
        let target = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 16);
        let receipt = target.absorb(slice).expect("alive");
        assert_eq!(receipt.edges_applied, 0);
        assert_eq!(receipt.rejected, 0);
        let det = source.shutdown();
        assert_eq!(det.updates_applied, 1);
        drop(target);
    }

    #[test]
    fn grouped_source_flushes_its_buffer_before_migrating_out() {
        let mut engine = SpadeEngine::new(WeightedDensity);
        // Established community so later benign member edges buffer.
        for a in 10..13u32 {
            for b in 10..13u32 {
                if a != b {
                    engine.insert_edge(v(a), v(b), 20.0).unwrap();
                }
            }
        }
        let source = SpadeService::spawn(engine, Some(GroupingConfig::default()), 16);
        // A benign edge touching a migrated member: buffered, not yet in
        // the graph — the migrate-out flush must capture it.
        assert!(source.submit(v(10), v(12), 0.01));
        let members: Arc<[VertexId]> = (10..13).map(v).collect::<Vec<_>>().into();
        let slice = source.migrate_out(members).expect("alive");
        assert!(
            (slice.edge_weight - 120.01).abs() < 1e-9,
            "buffered edge lost: {}",
            slice.edge_weight
        );
        let det = source.shutdown();
        assert_eq!(det.size, 0, "everything was evicted");
    }

    #[test]
    fn stage_histograms_reconcile_with_updates_applied() {
        let service = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 256);
        for i in 0..200u32 {
            assert!(service.submit(v(i % 20), v((i + 1) % 20), 1.0 + (i % 7) as f64));
        }
        for _ in 0..2_000 {
            if service.stats().updates_applied >= 200 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stats = service.stats();
        assert_eq!(stats.updates_applied, 200);
        assert!(stats.uptime_secs > 0.0);

        let snap = service.metrics();
        // Every submitted insert is timed through the queue exactly once,
        // so the queue-wait histogram count IS the update count …
        let queue_wait = &snap.histograms[metric_names::STAGE_QUEUE_WAIT_NS];
        assert_eq!(queue_wait.count, 200);
        // … and the coalesced batches partition the same inserts.
        let batch = &snap.histograms[metric_names::COALESCE_BATCH_SIZE];
        assert_eq!(batch.sum, 200);
        assert!(batch.count >= 1 && batch.count <= 200);
        assert_eq!(snap.counters[metric_names::UPDATES_TOTAL], 200);

        // Processing stages ran and their latencies are sane.
        let reorder = &snap.histograms[metric_names::STAGE_REORDER_NS];
        assert_eq!(reorder.count, batch.count, "one reorder pass per applied batch");
        let publish = &snap.histograms[metric_names::STAGE_PUBLISH_NS];
        assert!(publish.count >= 1);
        assert!(publish.p99() <= publish.max);
        assert!(snap.counters[metric_names::PUBLISHES_TOTAL] >= 1);

        // The event ring saw the publishes.
        assert!(snap.events.iter().any(|e| e.kind == EventKind::Publish));
        drop(service);
    }

    #[test]
    fn generous_budget_records_slack_and_no_misses() {
        let service = SpadeService::spawn_with(
            SpadeEngine::new(WeightedDensity),
            None,
            IngestConfig {
                queue_capacity: 64,
                coalesce: 16,
                deadline: Some(Duration::from_secs(30)),
            },
            "budget-loose".into(),
        );
        for i in 0..40u32 {
            assert!(service.submit(v(i % 9), v((i + 1) % 9), 1.0 + (i % 3) as f64));
        }
        // The 30s budget would hold the last partial batch open for a
        // long time; a Flush command wakes the spring wait and forces
        // the apply — the "new command" half of the event-driven wait.
        assert!(service.flush());
        for _ in 0..2_000 {
            if service.stats().updates_applied >= 40 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stats = service.stats();
        assert_eq!(stats.updates_applied, 40);
        assert_eq!(stats.deadline_miss, 0, "a 30s budget cannot be missed in-process");
        let snap = service.metrics();
        let slack = &snap.histograms[metric_names::DEADLINE_SLACK_NS];
        assert_eq!(slack.count, 40, "every budgeted insert records a slack sample");
        assert!(slack.p50() > 0);
        assert_eq!(snap.counters[metric_names::DEADLINE_MISS_TOTAL], 0);
        drop(service);
    }

    #[test]
    fn spring_push_holds_the_batch_until_the_budget_boundary() {
        let budget = Duration::from_millis(300);
        let service = SpadeService::spawn_with(
            SpadeEngine::new(WeightedDensity),
            None,
            IngestConfig { queue_capacity: 64, coalesce: 64, deadline: Some(budget) },
            "budget-hold".into(),
        );
        let submitted = Instant::now();
        assert!(service.submit(v(1), v(2), 3.0));
        // Well before the boundary the batch must still be open. The
        // observation only counts if it provably happened early: a host
        // that oversleeps this thread past the boundary proves nothing.
        std::thread::sleep(Duration::from_millis(50));
        let early = service.stats().updates_applied;
        if submitted.elapsed() < Duration::from_millis(150) {
            assert_eq!(early, 0, "budgeted insert applied early: the spring push did not hold");
        }
        // Once the boundary passes it must land, exactly once.
        for _ in 0..2_000 {
            if service.stats().updates_applied >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let waited = submitted.elapsed();
        let stats = service.stats();
        assert_eq!(stats.updates_applied, 1);
        assert!(
            waited >= Duration::from_millis(150),
            "applied after only {waited:?} — boundary ignored"
        );
        drop(service);
    }

    #[test]
    fn spring_wait_is_the_earliest_budget_boundary_minus_the_margin() {
        let metrics = WorkerMetrics::new(Arc::new(MetricsRegistry::new()));
        let ms = Duration::from_millis;
        let t0 = Instant::now();
        // (pending as (queued, budget) ms offsets, now, expected wait),
        // all under a fixed 10 ms margin.
        type Case = (&'static [(u64, Option<u64>)], u64, Option<u64>);
        let cases: &[Case] = &[
            (&[], 0, None),
            (&[(0, None), (5, None)], 7, None), // no budgeted entry
            (&[(0, Some(100))], 20, Some(70)),  // queued + budget − margin − now
            (&[(0, Some(100)), (5, Some(50))], 20, Some(25)), // the earlier boundary
            (&[(5, Some(50)), (0, Some(100))], 20, Some(25)), // … in either order
            (&[(0, None), (0, Some(100))], 20, Some(70)), // budget-free entries ignored
            (&[(0, Some(100))], 90, None),      // boundary is now
            (&[(0, Some(100))], 200, None),     // boundary already past
            (&[(0, Some(10))], 0, None),        // budget == margin
            (&[(0, Some(3))], 0, None),         // budget < margin
        ];
        for &(pending, now, want) in cases {
            let pending: Vec<_> = pending.iter().map(|&(q, b)| (t0 + ms(q), b.map(ms))).collect();
            let got = spring_wait(&pending, &mut Some(ms(10)), &metrics, t0 + ms(now));
            assert_eq!(got, want.map(ms), "pending {pending:?} at +{now} ms");
        }

        // The margin is resolved only when a budgeted entry needs it: an
        // empty reorder histogram leaves exactly the scheduling slack.
        let mut margin = None;
        assert_eq!(spring_wait(&[(t0, None)], &mut margin, &metrics, t0), None);
        assert_eq!(margin, None);
        let got = spring_wait(&[(t0, Some(ms(100)))], &mut margin, &metrics, t0);
        assert_eq!(got, Some(ms(100) - SCHED_SLACK));
        assert_eq!(margin, Some(SCHED_SLACK));
    }

    #[test]
    fn zero_budget_counts_every_insert_as_missed() {
        let service = SpadeService::spawn_with(
            SpadeEngine::new(WeightedDensity),
            None,
            IngestConfig { queue_capacity: 64, coalesce: 16, deadline: Some(Duration::ZERO) },
            "budget-zero".into(),
        );
        for i in 0..25u32 {
            assert!(service.submit(v(i % 7), v((i + 1) % 7), 2.0));
        }
        for _ in 0..2_000 {
            if service.stats().updates_applied >= 25 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stats = service.stats();
        assert_eq!(stats.updates_applied, 25);
        // A zero budget has already elapsed by apply time, so every
        // insert is a miss — and the scheduler degrades to immediate
        // application instead of waiting (the boundary is always past).
        assert_eq!(stats.deadline_miss, 25);
        let snap = service.metrics();
        let slack = &snap.histograms[metric_names::DEADLINE_SLACK_NS];
        assert_eq!(slack.count, 25);
        assert_eq!(slack.max, 0, "misses record zero slack");
        assert!(snap.events.iter().any(|e| e.kind == EventKind::DeadlineMiss));
        drop(service);
    }

    #[test]
    fn submit_batch_feeds_every_edge_through_one_queue_slot() {
        let service = SpadeService::spawn_with(
            SpadeEngine::new(WeightedDensity),
            None,
            IngestConfig { queue_capacity: 4, coalesce: 8, deadline: None },
            "batch-submit".into(),
        );
        let edges: Vec<(VertexId, VertexId, f64)> =
            (0..30u32).map(|i| (v(i % 11), v((i * 3 + 1) % 11), 1.0 + (i % 4) as f64)).collect();
        // 30 edges, queue bound 4: only possible because the whole run
        // occupies a single slot.
        assert!(service.submit_batch(edges.clone(), None));
        assert!(service.submit_batch(Vec::new(), None), "empty batch is a no-op");
        let (det, engine) = service.shutdown_into_engine::<WeightedDensity>();
        let mut batched = engine.expect("engine handed back");
        assert_eq!(det.updates_applied, 30);

        let mut solo = SpadeEngine::new(WeightedDensity);
        for &(a, b, w) in &edges {
            let _ = solo.insert_edge(a, b, w);
        }
        assert_eq!(batched.state().logical_order(), solo.state().logical_order());
        assert_eq!(batched.detect(), solo.detect());
    }

    /// The grouped half of the pair above: per-edge `submit`s and one
    /// `submit_batch` of the same stream go through the same `ingest`,
    /// so classification, flushes, rejects and per-edge wait samples
    /// cannot differ.
    #[test]
    fn grouped_submits_and_one_grouped_batch_are_indistinguishable() {
        let mut edges: Vec<(VertexId, VertexId, f64)> =
            (0..24u32).map(|i| (v(20 + i % 9), v(20 + (i % 9 + 1 + i % 4) % 9), 0.01)).collect();
        for a in 50..54u32 {
            edges.extend((50..54).filter(|&b| b != a).map(|b| (v(a), v(b), 25.0)));
        }
        edges.push((v(5), v(5), 1.0)); // self-loop: rejected
        edges.push((v(1), v(2), -3.0)); // negative suspiciousness: rejected
        let run = |batched: bool| {
            let mut engine = SpadeEngine::new(WeightedDensity);
            // An established community, so the 0.01 edges are benign.
            for (a, b) in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
                engine.insert_edge(v(a), v(b), 20.0).unwrap();
            }
            let service = SpadeService::spawn(engine, Some(GroupingConfig::default()), 256);
            if batched {
                assert!(service.submit_batch(edges.clone(), None));
            } else {
                assert!(edges.iter().all(|&(a, b, w)| service.submit(a, b, w)));
            }
            assert!(service.flush() && service.barrier());
            let stats = service.stats();
            let waits = service.metrics().histograms[metric_names::STAGE_QUEUE_WAIT_NS].count;
            let (det, engine) = service.shutdown_into_engine::<WeightedDensity>();
            let order = engine.expect("engine handed back").state().logical_order();
            (
                (det.size, det.density.to_bits(), det.members.to_vec(), order),
                (stats.flushes, stats.rejected, stats.updates_applied, waits),
            )
        };
        let (per_edge, batched) = (run(false), run(true));
        assert_eq!(per_edge, batched);
        let (flushes, rejected, updates, waits) = batched.1;
        assert!(flushes >= 2, "an urgent flush and the final benign flush, got {flushes}");
        assert_eq!((rejected, updates, waits), (2, edges.len() as u64, edges.len() as u64));
    }

    #[test]
    fn coalesce_cap_one_reproduces_per_edge_publishing() {
        let service = SpadeService::spawn_with(
            SpadeEngine::new(WeightedDensity),
            None,
            IngestConfig { queue_capacity: 4, coalesce: 1, deadline: None },
            "per-edge".into(),
        );
        for i in 0..10u32 {
            assert!(service.submit(v(i), v(i + 1), 2.0));
        }
        let det = service.shutdown();
        assert_eq!(det.updates_applied, 10);
        assert!(det.size > 0);
    }
}
