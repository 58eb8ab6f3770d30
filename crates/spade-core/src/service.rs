//! Threaded streaming service — the runtime shape of the paper's Fig. 1
//! pipeline.
//!
//! Production fraud detection separates the *ingest* path (transactions
//! arrive on a queue, the engine reorders incrementally) from the *query*
//! path (moderators read the current fraudulent community, ban accounts,
//! pull statistics). [`SpadeService`] runs the engine on a dedicated
//! worker thread fed by an ingest queue and publishes each new detection
//! as an epoch-versioned snapshot that any number of moderator threads
//! read without blocking ingestion.
//!
//! The queue's one bound is in edges ([`IngestConfig::queue_capacity`]):
//! an insert reserves its room before it is sent and the worker frees it
//! on dequeue. A marker (barrier, region export) takes no room, so it
//! never waits; whoever posted it waits for its answer. A barrier is the
//! one settle request: there is no flush, since reading a detection
//! behind a barrier is what applies the benign edges a grouped stage
//! holds back.
//!
//! Two hot-path optimizations keep the ingest rate at hardware speed:
//!
//! * **Drain coalescing** (the paper's Algorithm 2 applied to the
//!   runtime): after the first command of a run, the worker takes
//!   whatever else is already queued (up to [`IngestConfig::coalesce`]
//!   edges) and feeds the whole run through the batch insertion path,
//!   so a burst of N edges costs **one** reorder pass and **one**
//!   publish instead of N of each. Exactness is preserved: §4.2
//!   guarantees the batch reorder yields a peeling sequence
//!   bit-identical to per-edge insertion (property-tested in
//!   `tests/properties.rs`), and `updates_applied` still counts every
//!   submitted transaction.
//! * **Zero-copy publishing**: the published snapshot holds its member
//!   list behind an `Arc<[VertexId]>` and is swapped only when the
//!   detection actually changed. Readers clone a pointer, never a vec;
//!   unchanged publishes are counted as `skipped_unchanged` instead of
//!   re-cloning the community.
//!
//! Every submit is a batch: `submit` is a one-edge `submit_batch`, so the
//! worker has one ingest command and one `ingest` path, which puts each
//! edge on the worker's one stage. Edge grouping (§4.3) is a policy of
//! that stage, not a second buffer: a grouped stage classifies each edge
//! at arrival and holds benign ones past the end of a run. The worker's
//! `step`, one function of (command, now) that a short receive loop
//! drives, settles — applies the stage as one pass, then publishes — when:
//!
//! * a staged edge is urgent (Definition 4.1; grouping only), so urgent
//!   transactions update the published detection immediately;
//! * the stage already holds [`IngestConfig::coalesce`] edges;
//! * the spring-push boundary of the staged budgets passes;
//! * any other command arrives (barrier, region export, shutdown);
//! * a run drains and no grouper is configured.
//!
//! The worker reports its [`Progress`] to the service's [`Notifier`]
//! after every reply it sends and every insert it dequeues, so a
//! waiter — an event loop with a parked request, a blocked submit —
//! wakes on the progress it waits for instead of a tick. Read-your-acks
//! is a reply wait: a barrier answers once the worker has settled and
//! published everything queued before it.
//!
//! The sharded runtime (`crate::shard`) scales this out by wrapping one
//! [`SpadeService`] per shard — same ingest protocol, same
//! publish-into-snapshot discipline, same drain-on-shutdown guarantee.

use crate::engine::SpadeEngine;
use crate::grouping::{GroupingConfig, Stage, Staged};
use crate::metric::DensityMetric;
use crate::persist::SubgraphSnapshot;
use crate::progress::{offer_until_enqueued, Notifier, Progress};
use crate::state::Detection;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use spade_graph::VertexId;
use spade_metrics::runtime::{
    Counter, EventKind, Gauge, Histogram, MetricsRegistry, MetricsSnapshot,
};
use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Registry names of the per-stage metrics one worker records. Public
/// so front ends (sharded runtime, benches, the CLI) can look up the
/// same series without stringly re-deriving them.
pub mod metric_names {
    /// Histogram: submit → apply wait per ingested edge, nanoseconds.
    /// Its count equals `updates_applied` at quiesce — every insert is
    /// timed exactly once, a staged one when its stage applies.
    pub const STAGE_QUEUE_WAIT_NS: &str = "spade_stage_queue_wait_ns";
    /// Histogram: reorder/peel time per applied stage, nanoseconds.
    pub const STAGE_REORDER_NS: &str = "spade_stage_reorder_ns";
    /// Histogram: publish-attempt latency (detect + snapshot swap),
    /// nanoseconds.
    pub const STAGE_PUBLISH_NS: &str = "spade_stage_publish_ns";
    /// Histogram: edges applied per stage.
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
    /// Gauge: edges waiting in the ingest queue, the unit of
    /// [`IngestConfig::queue_capacity`](super::IngestConfig::queue_capacity)
    /// (refreshed on snapshot).
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
    /// Edges the ingest queue holds (back-pressure for bursty producers):
    /// every submit path reserves from this one bound, which
    /// [`SpadeService::queue_free`] counts down. Markers take no room.
    pub queue_capacity: usize,
    /// Maximum number of edges the worker drains per run and applies as
    /// one batch (one reorder pass, one publish). `1` reproduces strict
    /// per-edge processing; larger values amortize a burst without
    /// delaying anything — the worker never *waits* for a batch to fill,
    /// it only drains what is already queued. It also caps the grouped
    /// stage: with edge grouping on, the stage settles before it would
    /// hold more than this many benign edges.
    pub coalesce: usize,
    /// Default per-transaction detection-latency budget (the SLO
    /// deadline), applied to every submit that does not carry an
    /// explicit budget. When budgeted transactions are staged and the
    /// queue runs dry, the worker *spring-pushes* the batch boundary:
    /// instead of applying immediately it waits for more work until the
    /// earliest staged budget would be at risk (arrival + budget − a
    /// peel-cost margin from the live reorder histogram), so loose
    /// budgets buy bigger batches and tight budgets degrade gracefully
    /// to per-edge latency. With edge grouping on, the same boundary
    /// bounds how long a benign edge stays staged. `None` (the default)
    /// reproduces plain drain-coalescing bit-exactly: the worker never
    /// waits.
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
/// k-hop frontier subgraph around it, as a [`SubgraphSnapshot`] value.
/// This is the unit the cross-shard repair pass (`crate::shard::repair`)
/// unions and re-peels; in process it is handed over as is, and only the
/// `spade-net` wire codec (a `RegionReply` frame) turns it into bytes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CandidateRegion {
    /// Community size at export time.
    pub size: usize,
    /// Community density `g(S_P)` on this shard's local graph.
    pub density: f64,
    /// Community members (global vertex ids). Shared snapshot — cloning a
    /// region never copies the member list.
    pub members: Arc<[VertexId]>,
    /// Induced subgraph over the community plus its `hops`-hop frontier.
    pub snapshot: SubgraphSnapshot,
    /// Ingest commands this worker had consumed when the region was
    /// exported.
    pub updates_applied: u64,
    /// The worker's published detection epoch at export time. The export
    /// publishes before replying, so `(epoch, updates_applied)` names
    /// exactly the state this region reflects.
    pub epoch: u64,
}

/// The ingest protocol between a service handle and its worker thread.
enum Command {
    /// A run of transactions (one edge for `submit`, a shard's share of
    /// a decoded frame for the sharded runtime) as one command, stamped
    /// with its ingest time at submit so the worker can attribute
    /// queueing latency (Eq. 4's dominant term per §5.2) to the wait
    /// itself, plus its optional detection-latency budget (drives the
    /// spring-push batch boundary and deadline-miss accounting).
    Insert { edges: EdgeRun, queued: Instant, budget: Option<Duration> },
    /// Drain marker: reply once every command queued before it has been
    /// applied and the resulting detection published.
    Barrier { reply: Sender<()> },
    /// Export the current detection plus a `hops`-hop frontier subgraph.
    Region { hops: usize, reply: Sender<CandidateRegion> },
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
    /// Grouped stages applied, whatever triggered the settle.
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
    /// Submit → apply wait per ingested edge (ns).
    queue_wait_ns: Arc<Histogram>,
    /// Reorder/peel time per applied stage (ns).
    reorder_ns: Arc<Histogram>,
    /// Publish-attempt latency (ns).
    publish_ns: Arc<Histogram>,
    /// Edges applied per stage.
    batch_size: Arc<Histogram>,
    /// Live ingest-queue depth in edges (refreshed when a snapshot is
    /// taken).
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

/// The snapshot cell shared between the worker and all reader handles,
/// plus the ingest queue's one bound.
#[derive(Debug, Default)]
struct SharedDetection {
    /// The latest *changed* detection; swapped whole, read by pointer.
    detection: RwLock<PublishedDetection>,
    /// Commands consumed so far — advanced on **every** publish attempt
    /// (even skipped ones) so drain accounting never stalls behind an
    /// unchanged detection.
    updates_applied: AtomicU64,
    /// Directed edges resident in the worker's graph at the last publish
    /// attempt.
    edges_resident: AtomicU64,
    /// The queue's bound in edges ([`IngestConfig::queue_capacity`]).
    queue_capacity: usize,
    /// Edges reserved in the queue, never above `queue_capacity`: a
    /// producer reserves before it sends an `Insert`, and the worker
    /// releases on dequeue (the channel, not this count, publishes them).
    queued: AtomicUsize,
}

impl SharedDetection {
    /// Edges of room free right now.
    fn free(&self) -> usize {
        self.queue_capacity.saturating_sub(self.queued.load(Ordering::Acquire))
    }

    /// Frees `edges` of reserved room, then reports it once at least half
    /// the queue is free, not on every release: a waiter woken for room
    /// then finds enough to admit whole frames, instead of a sliver per
    /// wake-up while every parked producer re-offers (the silly-window
    /// rule).
    fn release(&self, edges: usize, progress: &Notifier) {
        self.queued.fetch_sub(edges, Ordering::AcqRel);
        if self.free() >= self.queue_capacity.div_ceil(2) {
            progress.report(Progress::Room);
        }
    }
}

/// Point-in-time statistics of a running [`SpadeService`].
///
/// Carries the published detection's descriptor (size/density) so status
/// polling never clones the member list — use
/// [`SpadeService::current_detection`] when the members are needed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Edges waiting in the ingest queue — the unit of
    /// [`IngestConfig::queue_capacity`].
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
    /// attempt (accumulated pairs count once).
    pub edges_resident: u64,
    /// Size of the last published detection.
    pub detection_size: usize,
    /// Density of the last published detection.
    pub detection_density: f64,
    /// Seconds since the service was spawned — lets a watch table turn
    /// monotone counters into rates without keeping its own clock.
    pub uptime_secs: f64,
}

/// A run of transactions: `(source, destination, raw weight)` each.
type EdgeRun = Vec<(VertexId, VertexId, f64)>;

/// Handle to a running detection service.
pub struct SpadeService {
    sender: Sender<Command>,
    shared: Arc<SharedDetection>,
    metrics: Arc<WorkerMetrics>,
    /// Where the worker reports its progress.
    progress: Arc<Notifier>,
    /// Budget stamped onto submits that carry none ([`IngestConfig::deadline`]).
    default_budget: Option<Duration>,
    /// The worker hands its engine back through here on exit, so callers
    /// can recover it (snapshotting, equivalence tests) after a drain.
    engine_back: Receiver<Box<dyn Any + Send>>,
    worker: Option<JoinHandle<()>>,
}

impl SpadeService {
    /// Spawns the worker thread around `engine`. `queue_capacity` bounds
    /// the ingest queue in edges (back-pressure for bursty producers);
    /// `grouping` turns on §4.3 edge grouping of its stage. Uses the
    /// default coalesce cap — see [`SpadeService::spawn_with`] to tune it.
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
        Self::spawn_reporting(engine, grouping, ingest, thread_name, Arc::default())
    }

    /// [`spawn_with`](Self::spawn_with), reporting into `progress` — the
    /// sharded runtime hands every shard the same notifier.
    pub(crate) fn spawn_reporting<M: DensityMetric + Send + 'static>(
        engine: SpadeEngine<M>,
        grouping: Option<GroupingConfig>,
        ingest: IngestConfig,
        thread_name: String,
        progress: Arc<Notifier>,
    ) -> Self {
        let (sender, receiver) = unbounded();
        let (engine_tx, engine_back) = bounded(1);
        let queue_capacity = ingest.queue_capacity.max(1);
        let shared = Arc::new(SharedDetection { queue_capacity, ..Default::default() });
        let metrics = Arc::new(WorkerMetrics::new(Arc::new(MetricsRegistry::new())));
        let mut worker = Worker::new(
            engine,
            grouping.is_some(),
            ingest,
            Arc::clone(&shared),
            Arc::clone(&metrics),
            Arc::clone(&progress),
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
            progress,
            default_budget: ingest.deadline,
            engine_back,
            worker: Some(worker),
        }
    }

    /// Enqueues one transaction — a one-edge
    /// [`submit_batch`](Self::submit_batch) with the default budget.
    /// Blocks while the ingest queue is full (back-pressure); returns
    /// `false` if the service has shut down.
    pub fn submit(&self, src: VertexId, dst: VertexId, raw: f64) -> bool {
        self.submit_batch(vec![(src, dst, raw)], None)
    }

    /// Enqueues a whole run of transactions sharing a single arrival
    /// stamp and budget: the prefix that fits the queue's free edges goes
    /// as one command, and while edges remain the caller waits for the
    /// worker to free room, then offers the rest — so a run larger than
    /// the queue enters as several commands. The stamp lets the worker
    /// report submit → apply queueing latency. Returns `false` if the
    /// service has shut down; an empty run is a no-op. `budget: None`
    /// falls back to [`IngestConfig::deadline`]; a budget (either way)
    /// lets the worker spring-push the batch boundary and drives
    /// deadline-miss accounting.
    pub fn submit_batch(&self, edges: EdgeRun, budget: Option<Duration>) -> bool {
        let mut rest = &edges[..];
        offer_until_enqueued(&self.progress, || {
            rest = &rest[self.try_submit_batch(rest, budget)?..];
            Some(rest.is_empty())
        })
    }

    /// Non-blocking [`submit_batch`](Self::submit_batch): reserves room
    /// for the prefix of `edges` that fits, enqueues it as one command
    /// and returns how many edges it took — 0 when the queue is full, so
    /// an event loop keeps the rest and offers it again. `None` only
    /// when the service has shut down.
    pub fn try_submit_batch(
        &self,
        edges: &[(VertexId, VertexId, f64)],
        budget: Option<Duration>,
    ) -> Option<usize> {
        let take = self.reserve(edges.len())?;
        (take == 0 || self.send_reserved(edges[..take].to_vec(), budget)).then_some(take)
    }

    /// Reserves `min(want, capacity − queued)` edges of room in one
    /// compare-and-swap; 0 when full. A dead worker leaves its edges
    /// reserved forever, so when none fit it reads as closed (`None`).
    pub(crate) fn reserve(&self, want: usize) -> Option<usize> {
        let mut taken = 0;
        let _ = self.shared.queued.fetch_update(Ordering::AcqRel, Ordering::Acquire, |queued| {
            taken = want.min(self.shared.queue_capacity.saturating_sub(queued));
            (taken > 0).then_some(queued + taken)
        });
        (taken > 0 || want == 0 || !self.worker_gone()).then_some(taken)
    }

    /// Hands back `edges` of reserved room that will not be sent, through
    /// the worker's own release, so a waiter for room hears of it.
    pub(crate) fn unreserve(&self, edges: usize) {
        self.shared.release(edges, &self.progress);
    }

    /// Sends `edges`, whose room the caller reserved, as one `Insert`;
    /// `false` when the worker is gone.
    pub(crate) fn send_reserved(&self, edges: EdgeRun, budget: Option<Duration>) -> bool {
        let budget = budget.or(self.default_budget);
        let command = Command::Insert { edges, queued: Instant::now(), budget };
        self.sender.send(command).is_ok()
    }

    /// Enqueues a marker (it takes no queue room, so this never waits)
    /// and hands back its reply channel; `None` when shut down.
    fn request<T>(&self, command: impl FnOnce(Sender<T>) -> Command) -> Option<Receiver<T>> {
        let (reply, receiver) = bounded(1);
        self.sender.send(command(reply)).is_ok().then_some(receiver)
    }

    /// Edges of queue room free right now. A worker that is gone reads as
    /// unbounded, so a submit that follows finds it closed, not full.
    pub fn queue_free(&self) -> usize {
        if self.worker_gone() {
            return usize::MAX;
        }
        self.shared.free()
    }

    fn worker_gone(&self) -> bool {
        self.worker.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Read-your-acks barrier: blocks until the worker has applied every
    /// transaction submitted before this call and published the
    /// resulting detection. Grouped benign edges are applied too, as
    /// [`crate::Spade::detect`] does. Returns `false` if the service has
    /// shut down.
    pub fn barrier(&self) -> bool {
        self.request_barrier().is_some_and(|done| done.recv().is_ok())
    }

    /// Fire-and-collect variant of [`barrier`](Self::barrier): hands back
    /// the reply channel without waiting for the answer, so the sharded
    /// runtime can let all shards drain in parallel and an event loop can
    /// park a connection on the reply. As for every `request_*` form,
    /// the marker takes no queue room, so posting it never waits; `None`
    /// means shut down.
    pub fn request_barrier(&self) -> Option<Receiver<()>> {
        self.request(|reply| Command::Barrier { reply })
    }

    /// Exports this worker's candidate region: its current detection plus
    /// a `hops`-hop frontier of boundary edges. Blocks until the worker
    /// reaches the request in its FIFO queue, so the region reflects every
    /// transaction submitted before this call, grouped benign edges
    /// included (the worker settles its stage first). Returns `None` if
    /// the service has shut down.
    pub fn candidate_region(&self, hops: usize) -> Option<CandidateRegion> {
        self.request_candidate_region(hops)?.recv().ok()
    }

    /// Fire-and-collect variant of
    /// [`candidate_region`](Self::candidate_region), so the sharded
    /// runtime can let all shards drain and extract in parallel.
    pub fn request_candidate_region(&self, hops: usize) -> Option<Receiver<CandidateRegion>> {
        self.request(|reply| Command::Region { hops, reply })
    }

    /// The notifier this worker reports its progress into: subscribe to
    /// wait for applied edges, replies or queue room without a tick.
    pub fn progress(&self) -> &Arc<Notifier> {
        &self.progress
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
            queue_depth: self.shared.queued.load(Ordering::Acquire),
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
        self.metrics.queue_depth.set(self.shared.queued.load(Ordering::Acquire) as u64);
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
            .recv()
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

/// What a [`Worker::step`] asks of the loop that calls it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Next {
    /// Wait for the next command until this instant (`None`: no limit);
    /// one not past the step's `now` is a zero wait.
    Wait(Option<Instant>),
    /// `Shutdown` was handled.
    Exit,
}

/// The detector worker: everything the ingest thread owns. Every
/// [`SpadeService`] runs one of these — including the N services the
/// sharded runtime wraps. [`run`](Self::run) drives
/// [`step`](Self::step); [`ingest`](Self::ingest) stages edges and
/// [`settle`](Self::settle) applies the stage and publishes: the one
/// route the module docs describe.
struct Worker<M: DensityMetric> {
    engine: SpadeEngine<M>,
    /// The one staging buffer: the drain-coalesced run, or the grouped
    /// edges waiting for a settle trigger.
    stage: Stage,
    /// Arrival stamp + budget of every staged edge, kept in lockstep
    /// with `stage` so apply time can record the true submit → apply
    /// wait and deadline slack per transaction.
    stamps: Vec<(Instant, Option<Duration>)>,
    /// Cap on the stage and on the edges one run drains.
    coalesce: usize,
    /// Edges ingested by the current run.
    run_len: usize,
    /// The spring push's peel margin, resolved at most once per run.
    margin: Option<Duration>,
    /// Edges ingested so far.
    updates: u64,
    publisher: Publisher,
    shared: Arc<SharedDetection>,
    metrics: Arc<WorkerMetrics>,
    progress: Arc<Notifier>,
}

impl<M: DensityMetric> Worker<M> {
    fn new(
        engine: SpadeEngine<M>,
        grouped: bool,
        ingest: IngestConfig,
        shared: Arc<SharedDetection>,
        metrics: Arc<WorkerMetrics>,
        progress: Arc<Notifier>,
    ) -> Self {
        let coalesce = ingest.coalesce.max(1);
        Worker {
            engine,
            stage: Stage::new(grouped),
            stamps: Vec::with_capacity(coalesce.min(4096)),
            coalesce,
            run_len: 0,
            margin: None,
            updates: 0,
            publisher: Publisher::default(),
            shared,
            metrics,
            progress,
        }
    }

    /// The receive loop: waits until the last step's wake time (with no
    /// limit without one) for the next command, stamps the clock once and
    /// steps with it, or `None`. Every sender gone is a shutdown.
    fn run(&mut self, receiver: &Receiver<Command>) {
        self.publish();
        let mut wait = None;
        loop {
            let input = match wait.map(|wait| receiver.recv_timeout(wait)) {
                None => Some(receiver.recv().unwrap_or(Command::Shutdown)),
                Some(Ok(command)) => Some(command),
                Some(Err(RecvTimeoutError::Timeout)) => None,
                Some(Err(RecvTimeoutError::Disconnected)) => Some(Command::Shutdown),
            };
            let now = Instant::now();
            match self.step(input, now) {
                Next::Wait(wake_at) => wait = wake_at.map(|at| at.saturating_duration_since(now)),
                Next::Exit => return,
            }
        }
    }

    /// The settle rule of the module docs as a function of (`input`,
    /// `now`): handles the next command, or `None` when the wait ran out,
    /// and says how long to wait for the next. `now` decides policy only
    /// (the spring-push boundary, whether a run has drained). A run takes
    /// what is already queued, by zero waits, up to `coalesce` edges. Run
    /// dry with budgeted edges staged, it waits for new work until the
    /// earliest staged budget minus the peel margin (the spring push);
    /// budget-free stages never wait. Then it ends and the stage settles,
    /// unless it is grouped and its boundary has not passed. Only a step
    /// that did no work names a wake time past `now`, so a loop that
    /// measures the wait from `now` waits exactly that long.
    fn step(&mut self, input: Option<Command>, now: Instant) -> Next {
        let dry = input.is_none();
        if let Some(command) = input {
            // An insert left the queue, and with it the room its edges
            // held.
            if let Command::Insert { edges, .. } = &command {
                self.shared.release(edges.len(), &self.progress);
            }
            let replied = match command {
                Command::Insert { edges, queued, budget } => {
                    self.ingest(&edges, queued, budget);
                    false
                }
                Command::Barrier { reply } => {
                    self.settle();
                    reply.send(()).is_ok()
                }
                Command::Region { hops, reply } => reply.send(self.export_region(hops)).is_ok(),
                Command::Shutdown => {
                    // Final drain, so the last published state reflects
                    // every submission before the marker.
                    self.settle();
                    return Next::Exit;
                }
            };
            if replied {
                self.progress.report(Progress::Replied);
            }
            if self.run_len < self.coalesce {
                return Next::Wait(Some(now));
            }
        }
        // Only a dry run or a grouped stage can stay open.
        let wait = (dry || self.stage.grouped())
            .then(|| spring_wait(&self.stamps, &mut self.margin, &self.metrics, now))
            .flatten();
        if let Some(wait) = wait.filter(|_| dry) {
            return Next::Wait(Some(now + wait));
        }
        // The run ends. A grouped stage only publishes until a staged
        // budget reaches its boundary, and re-checks that after a zero wait.
        let held = self.stage.grouped()
            && (wait.is_some() || self.stamps.iter().all(|&(_, budget)| budget.is_none()));
        if held {
            self.publish();
        } else {
            self.settle();
        }
        self.run_len = 0;
        self.margin = None;
        Next::Wait(wait.filter(|_| held).map(|_| now))
    }

    /// The one ingest path: `Command::Insert` hands in its run; `queued`
    /// and `budget` cover the slice.
    ///
    /// Each edge is counted, then staged: raw without a grouper,
    /// classified per edge with one. The stage settles before an edge
    /// would take it past the coalesce cap, and right after an urgent
    /// edge, so the §4.3 real-time path never waits for the run to end.
    /// A staged edge defers its queue-wait sample to apply time (the wait
    /// it pays includes its time in the stage), so there is no clock read
    /// per edge; a grouped edge that stages nothing (redundant or
    /// refused) is done on arrival, timed by the command's one clock read.
    fn ingest(
        &mut self,
        edges: &[(VertexId, VertexId, f64)],
        queued: Instant,
        budget: Option<Duration>,
    ) {
        self.run_len += edges.len();
        let drained = Instant::now();
        for &(src, dst, raw) in edges {
            if self.stage.len() >= self.coalesce {
                self.settle();
            }
            self.updates += 1;
            match self.stage.push(&mut self.engine, src, dst, raw) {
                Ok(Staged::Held) => self.stamps.push((queued, budget)),
                Ok(Staged::Urgent) => {
                    self.stamps.push((queued, budget));
                    self.settle();
                }
                // Nothing staged (grouped: redundant or refused), so the
                // wait ends here.
                done => {
                    if done.is_err() {
                        self.metrics.rejected.inc();
                    }
                    record_wait(&self.metrics, drained.saturating_duration_since(queued), budget);
                }
            }
        }
    }

    /// Applies the stage as one §4.2 batch insertion (one reorder pass).
    /// Malformed transactions are counted, never fatal. Records the
    /// batch size, each staged transaction's queue wait and deadline
    /// outcome (stamped here, where the wait truly ends), and the
    /// reorder/peel wall time — the processing half of Eq. 4's latency
    /// split. A grouped stage's apply is also a flush.
    fn apply(&mut self) {
        debug_assert_eq!(self.stage.len(), self.stamps.len(), "stage and stamps diverged");
        if self.stage.is_empty() {
            return;
        }
        let applied_at = Instant::now();
        for (queued, budget) in self.stamps.drain(..) {
            record_wait(&self.metrics, applied_at.saturating_duration_since(queued), budget);
        }
        let staged = self.stage.len() as u64;
        self.metrics.batch_size.record(staged);
        let reorder_started = Instant::now();
        let (_, rejected) = self.stage.apply(&mut self.engine);
        self.metrics.reorder_ns.record_duration(reorder_started.elapsed());
        if rejected > 0 {
            self.metrics.rejected.add(rejected);
        }
        if self.stage.grouped() {
            // Event first: a reader that sees the count sees the event.
            self.metrics.registry.event(EventKind::Flush, staged);
            self.metrics.flushes.inc();
        }
    }

    /// One publish attempt.
    fn publish(&mut self) {
        self.publisher.publish(&mut self.engine, &self.shared, self.updates, &self.metrics);
    }

    /// Applies the stage, then publishes: `updates_applied` and the
    /// published detection now cover every edge ingested so far.
    fn settle(&mut self) {
        self.apply();
        self.publish();
    }

    /// `Command::Region`. Regions reflect everything submitted before
    /// the request, so the stage settles first. Publishing *here* (not
    /// at run end) keeps the region in agreement with the published
    /// detection and lets the reply carry the final `(epoch,
    /// updates_applied)` of this state.
    fn export_region(&mut self, hops: usize) -> CandidateRegion {
        self.settle();
        let det = self.engine.detect();
        let members: Arc<[VertexId]> = Arc::from(self.engine.community(det));
        let snapshot = SubgraphSnapshot::extract(self.engine.graph(), &members, hops);
        CandidateRegion {
            size: det.size,
            density: det.density,
            members,
            snapshot,
            updates_applied: self.updates,
            epoch: self.publisher.epoch,
        }
    }
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
    use crate::grouping::EdgeGrouper;
    use crate::metric::{Fraudar, UnweightedDensity, WeightedDensity};
    use spade_metrics::runtime::HistogramSnapshot;
    use std::sync::atomic::AtomicBool;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// An engine holding a 3-clique of weight-20 edges (density 40), so a
    /// 0.01 edge between fresh accounts is benign.
    fn community() -> SpadeEngine<WeightedDensity> {
        let mut engine = SpadeEngine::new(WeightedDensity);
        for (a, b) in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
            engine.insert_edge(v(a), v(b), 20.0).unwrap();
        }
        engine
    }

    fn grouped(coalesce: usize, deadline: Option<Duration>) -> SpadeService {
        SpadeService::spawn_with(
            community(),
            Some(GroupingConfig::default()),
            IngestConfig { queue_capacity: 64, coalesce, deadline },
            "grouped".into(),
        )
    }

    /// Polls `stats().flushes` until it reaches `want` or ten seconds
    /// pass, and returns the last reading.
    fn wait_for_flushes(service: &SpadeService, want: u64) -> u64 {
        for _ in 0..2_000 {
            if service.stats().flushes >= want {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        service.stats().flushes
    }

    /// Polls `stats().updates_applied` until it reaches `want` or four
    /// seconds pass, and returns the last reading.
    fn wait_for_applied(service: &SpadeService, want: u64) -> u64 {
        for _ in 0..2_000 {
            if service.stats().updates_applied >= want {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        service.stats().updates_applied
    }

    /// A staged benign edge applies by its spring-push boundary with no
    /// further command to wake the worker: budgets hold under grouping.
    /// That the boundary settle misses no deadline is checked under
    /// virtual time, in `step_ends_a_grouped_run_by_publishing_without_settling`.
    #[test]
    fn grouped_benign_edge_applies_by_its_budget_boundary() {
        let service = grouped(256, Some(Duration::from_millis(50)));
        assert!(service.submit(v(10), v(11), 0.01));
        assert_eq!(wait_for_flushes(&service, 1), 1, "the staged edge never settled");
        let waits = service.metrics().histograms[metric_names::STAGE_QUEUE_WAIT_NS].count;
        assert_eq!(waits, 1, "one queue-wait sample, taken when the stage applied");
    }

    /// The grouped stage is capped at `coalesce`: 20 benign edges on
    /// distinct pairs settle four full stages of 4 and leave 4 staged.
    #[test]
    fn grouped_stage_settles_at_the_coalesce_cap() {
        let service = grouped(4, None);
        for i in 0..20u32 {
            assert!(service.submit(v(10 + 2 * i), v(11 + 2 * i), 0.01));
        }
        assert_eq!(wait_for_flushes(&service, 4), 4);
        let events = service.metrics().events;
        let flushed: Vec<u64> =
            events.iter().filter(|e| e.kind == EventKind::Flush).map(|e| e.value).collect();
        assert_eq!(flushed, [4, 4, 4, 4]);
    }

    /// A barrier settles the grouped stage, as `Spade::detect` flushes
    /// the facade's grouper.
    #[test]
    fn barrier_applies_the_grouped_stage() {
        let service = grouped(256, None);
        let benign = [(v(10), v(11)), (v(12), v(13)), (v(14), v(15))];
        for &(a, b) in &benign {
            assert!(service.submit(a, b, 0.01));
        }
        assert!(service.barrier());
        assert_eq!(service.stats().flushes, 1);
        let (det, engine) = service.shutdown_into_engine::<WeightedDensity>();
        let engine = engine.expect("engine handed back");
        assert_eq!(det.updates_applied, 3);
        for (a, b) in benign {
            assert_eq!(engine.graph().edge_weight(a, b), Some(0.01));
        }
    }

    /// The worker's grouped stage evaluates suspiciousness at arrival
    /// exactly as a standalone [`EdgeGrouper`] does, on a metric whose
    /// weights depend on the graph at evaluation time, and settles at
    /// the same points (urgent edges, then the final barrier).
    #[test]
    fn grouped_service_matches_a_standalone_grouper_on_fraudar() {
        let seed = || {
            let mut engine = SpadeEngine::new(Fraudar::default());
            for a in 0..12u32 {
                for b in (0..12u32).filter(|&b| b != a) {
                    engine.insert_edge(v(a), v(b), 1.0).unwrap();
                }
            }
            engine
        };
        let mut stream = Vec::new();
        for i in 0..40u32 {
            // Background between fresh accounts (benign), and every tenth
            // an edge into the clique (urgent).
            stream.push((v(100 + i % 13), v(200 + (i * 7) % 11), 1.0));
            if i % 10 == 9 {
                stream.push((v(100 + i % 13), v(i % 12), 1.0));
            }
        }

        let mut solo = seed();
        let mut grouper = EdgeGrouper::new(GroupingConfig::default());
        for &(a, b, w) in &stream {
            grouper.submit(&mut solo, a, b, w).unwrap();
        }
        grouper.flush(&mut solo).unwrap();
        let stats = grouper.stats();
        assert!(stats.urgent >= 1 && stats.flushes >= 2, "{stats:?}");

        let service = SpadeService::spawn_with(
            seed(),
            Some(GroupingConfig::default()),
            IngestConfig { queue_capacity: 256, coalesce: stream.len(), deadline: None },
            "grouped-fraudar".into(),
        );
        assert!(stream.iter().all(|&(a, b, w)| service.submit(a, b, w)));
        assert!(service.barrier());
        let flushes = service.stats().flushes;
        let (det, engine) = service.shutdown_into_engine::<Fraudar>();
        let mut staged = engine.expect("engine handed back");
        assert_eq!(staged.state().logical_order(), solo.state().logical_order());
        let want = solo.detect();
        assert_eq!(staged.detect(), want);
        assert_eq!(&det.members[..], solo.community(want));
        assert_eq!(flushes, stats.flushes as u64);
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
        assert!(service.request_barrier().is_some());
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
        assert!(service.request_barrier().is_some());
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
        // Drain deterministically: poll until all four commands are
        // accounted for.
        wait_for_applied(&service, 4);
        let before_shutdown = service.stats();
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
        wait_for_applied(&service, 20);
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
    fn stage_histograms_reconcile_with_updates_applied() {
        let service = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 256);
        for i in 0..200u32 {
            assert!(service.submit(v(i % 20), v((i + 1) % 20), 1.0 + (i % 7) as f64));
        }
        wait_for_applied(&service, 200);
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
        // long time; a barrier wakes the spring wait and forces the
        // apply — the "new command" half of the event-driven wait.
        assert!(service.request_barrier().is_some());
        wait_for_applied(&service, 40);
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
        wait_for_applied(&service, 1);
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
        wait_for_applied(&service, 25);
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
    fn submit_batch_larger_than_the_queue_enters_as_several_commands() {
        let service = SpadeService::spawn_with(
            SpadeEngine::new(WeightedDensity),
            None,
            IngestConfig { queue_capacity: 4, coalesce: 8, deadline: None },
            "batch-submit".into(),
        );
        let edges: Vec<(VertexId, VertexId, f64)> =
            (0..30u32).map(|i| (v(i % 11), v((i * 3 + 1) % 11), 1.0 + (i % 4) as f64)).collect();
        // 30 edges, queue bound 4: the run enters 4 edges at a time, each
        // part once the worker has freed room.
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
            assert!(service.barrier());
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

    /// The non-blocking entry admits by edges: a worker that stalls
    /// inside its first run leaves room for exactly `queue_capacity`
    /// more edges, taken as frame-order prefixes, then none.
    #[test]
    fn try_submit_batch_takes_the_prefix_that_fits_the_edge_bound() {
        let gate = Arc::new(AtomicBool::new(false));
        let service = gated_service(&gate, 4);
        let edges: Vec<_> = (0..16u32).map(|i| (v(i), v(100 + i), 1.0)).collect();
        let first = service.try_submit_batch(&edges[..6], None);
        // The worker takes that run and stalls in it: the whole bound is
        // free again.
        while first.is_some() && service.queue_free() < 4 {
            std::thread::yield_now();
        }
        let taken = [
            service.try_submit_batch(&edges[4..6], None),
            service.try_submit_batch(&edges[6..], None),
            service.try_submit_batch(&edges[8..], None),
        ];
        gate.store(true, Ordering::Release);
        assert_eq!(first, Some(4));
        assert_eq!(taken, [Some(2), Some(2), Some(0)]);
        assert_eq!(service.shutdown().updates_applied, 8);
    }

    /// A service with a `queue_capacity`-edge bound whose worker stalls
    /// inside every edge until `gate` opens, one edge per run.
    fn gated_service(gate: &Arc<AtomicBool>, queue_capacity: usize) -> SpadeService {
        let held = Arc::clone(gate);
        let gated = crate::metric::CustomMetric::new(
            "gated",
            |_, _| 0.0,
            move |_, _, raw, _| {
                while !held.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_micros(200));
                }
                raw
            },
        );
        let ingest = IngestConfig { queue_capacity, coalesce: 1, deadline: None };
        SpadeService::spawn_with(SpadeEngine::new(gated), None, ingest, "gated".into())
    }

    /// Submits edge 0 → 1 and waits until the gated worker holds it: the
    /// whole bound is free again, and nothing dequeues until the gate
    /// opens.
    fn stall(service: &SpadeService, queue_capacity: usize) {
        assert!(service.submit(v(0), v(1), 1.0));
        while service.queue_free() < queue_capacity {
            std::thread::yield_now();
        }
    }

    /// The blocking `submit_batch` holds the edge bound too: a 10-edge
    /// run against a 4-edge queue takes 4 edges, then waits for the
    /// stalled worker to free room, and once the gate opens every edge
    /// applies exactly once.
    #[test]
    fn a_blocking_submit_batch_waits_for_room_past_the_bound() {
        let gate = Arc::new(AtomicBool::new(false));
        let service = gated_service(&gate, 4);
        stall(&service, 4);
        let edges: Vec<_> = (0..10u32).map(|i| (v(10 + i), v(100 + i), 1.0)).collect();
        let idle = Arc::strong_count(service.progress());
        let returned = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let submitter = scope.spawn(|| {
                let enqueued = service.submit_batch(edges.clone(), None);
                returned.store(true, Ordering::SeqCst);
                enqueued
            });
            // The submit either subscribes to wait for room or returns.
            while Arc::strong_count(service.progress()) == idle && !returned.load(Ordering::SeqCst)
            {
                std::thread::yield_now();
            }
            let early = returned.load(Ordering::SeqCst);
            let queued = service.stats().queue_depth;
            gate.store(true, Ordering::Release);
            assert!(!early, "submit_batch returned with edges past the bound unsent");
            assert_eq!(queued, 4, "the queue holds the bound, in edges");
            assert!(submitter.join().expect("submitter"));
        });
        let (det, engine) = service.shutdown_into_engine::<crate::metric::CustomMetric>();
        let engine = engine.expect("engine handed back");
        assert_eq!(det.updates_applied, 11);
        assert_eq!(engine.graph().num_edges(), 11);
        for &(a, b, _) in &edges {
            assert_eq!(engine.graph().edge_weight(a, b), Some(1.0), "{a:?} → {b:?}");
        }
    }

    /// Markers take no queue room: with the whole edge bound taken, a
    /// barrier and a region export still enqueue, and both answer once
    /// the worker moves.
    #[test]
    fn markers_enqueue_on_a_full_queue() {
        let gate = Arc::new(AtomicBool::new(false));
        let service = gated_service(&gate, 4);
        stall(&service, 4);
        for i in 1..5u32 {
            assert_eq!(service.try_submit_batch(&[(v(10 + i), v(20 + i), 1.0)], None), Some(1));
        }
        let free = service.queue_free();
        let barrier = service.request_barrier();
        let region = service.request_candidate_region(1);
        gate.store(true, Ordering::Release);
        assert_eq!(free, 0);
        assert!(barrier.expect("a barrier enqueues on a full queue").recv().is_ok());
        let region = region.expect("a region export enqueues on a full queue").recv();
        assert_eq!(region.expect("region").updates_applied, 5);
        assert_eq!(service.shutdown().updates_applied, 5);
    }

    /// Reservation is exact: producers racing on one bound admit exactly
    /// `queue_capacity` edges between them, and the queue depth reads
    /// that many edges.
    #[test]
    fn racing_producers_admit_exactly_the_bound() {
        let gate = Arc::new(AtomicBool::new(false));
        let service = gated_service(&gate, 64);
        stall(&service, 64);
        let admitted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 1..=4u32 {
                let (service, admitted) = (&service, &admitted);
                scope.spawn(move || {
                    let edges: Vec<_> =
                        (0..3u32).map(|i| (v(1000 * t + i), v(1000 * t + 500 + i), 1.0)).collect();
                    while let Some(taken) = service.try_submit_batch(&edges, None) {
                        if taken == 0 {
                            break;
                        }
                        admitted.fetch_add(taken, Ordering::SeqCst);
                    }
                });
            }
        });
        let depth = service.stats().queue_depth;
        gate.store(true, Ordering::Release);
        assert_eq!(admitted.load(Ordering::SeqCst), 64);
        assert_eq!(depth, 64);
        assert_eq!(service.shutdown().updates_applied, 65);
    }

    /// Room is reported only once half the queue is free: draining four
    /// queued one-edge commands from a 4-edge queue reports it three
    /// times (free 2, 3, 4), not four.
    #[test]
    fn room_is_reported_once_half_the_queue_is_free() {
        let gate = Arc::new(AtomicBool::new(false));
        let service = gated_service(&gate, 4);
        // The worker takes the first edge and stalls in it; four more
        // fill the queue.
        stall(&service, 4);
        for i in 1..5u32 {
            assert_eq!(service.try_submit_batch(&[(v(i), v(i + 1), 1.0)], None), Some(1));
        }
        let rooms = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&rooms);
        let subscription = service.progress().subscribe(move |p| {
            if p == Progress::Room {
                seen.fetch_add(1, Ordering::SeqCst);
            }
        });
        gate.store(true, Ordering::Release);
        while service.stats().updates_applied < 5 {
            std::thread::yield_now();
        }
        drop(subscription);
        assert_eq!(rooms.load(Ordering::SeqCst), 3);
        assert_eq!(service.shutdown().updates_applied, 5);
    }

    /// A `Flush` event carries the edges that flush applied — a barrier's
    /// settle and an urgent edge each apply two buffered edges here.
    #[test]
    fn flush_events_carry_the_edges_each_flush_applied() {
        let mut engine = SpadeEngine::new(WeightedDensity);
        for (a, b) in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
            engine.insert_edge(v(a), v(b), 20.0).unwrap();
        }
        let service = SpadeService::spawn(engine, Some(GroupingConfig::default()), 64);
        assert!(service.submit(v(10), v(11), 0.01) && service.submit(v(12), v(13), 0.01));
        assert!(service.request_barrier().is_some());
        // A benign edge buffers; an edge at the community is urgent and
        // flushes both.
        assert!(service.submit(v(14), v(15), 0.01) && service.submit(v(0), v(16), 5.0));
        assert!(service.barrier());
        let events = service.metrics().events;
        let flushed: Vec<u64> =
            events.iter().filter(|e| e.kind == EventKind::Flush).map(|e| e.value).collect();
        assert_eq!(flushed, [2, 2]);
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

    /// A worker stepped by hand: no thread, no clock but the instants its
    /// test picks, and a log of every progress report it makes.
    struct Stepped<M: DensityMetric> {
        worker: Worker<M>,
        reports: Arc<parking_lot::Mutex<Vec<Progress>>>,
        _subscription: crate::progress::Subscription,
    }

    impl<M: DensityMetric> Stepped<M> {
        fn new(engine: SpadeEngine<M>, grouped: bool, coalesce: usize, capacity: usize) -> Self {
            let shared =
                Arc::new(SharedDetection { queue_capacity: capacity, ..Default::default() });
            let metrics = Arc::new(WorkerMetrics::new(Arc::new(MetricsRegistry::new())));
            let progress = Arc::new(Notifier::default());
            let reports = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let log = Arc::clone(&reports);
            let _subscription = progress.subscribe(move |p| log.lock().push(p));
            let ingest = IngestConfig { queue_capacity: capacity, coalesce, deadline: None };
            let worker = Worker::new(engine, grouped, ingest, shared, metrics, progress);
            Stepped { worker, reports, _subscription }
        }

        /// An `Insert` of `edges`, its room reserved as a producer would.
        fn insert(
            &self,
            edges: &[(u32, u32, f64)],
            queued: Instant,
            budget: Option<Duration>,
        ) -> Command {
            self.worker.shared.queued.fetch_add(edges.len(), Ordering::AcqRel);
            let edges = edges.iter().map(|&(a, b, w)| (v(a), v(b), w)).collect();
            Command::Insert { edges, queued, budget }
        }

        /// Flushes, published `updates_applied` and the batch sizes.
        fn settled(&self) -> (u64, u64, HistogramSnapshot) {
            let metrics = &self.worker.metrics;
            let applied = self.worker.shared.updates_applied.load(Ordering::Acquire);
            (metrics.flushes.get(), applied, metrics.batch_size.snapshot())
        }
    }

    /// The histogram of exactly these samples.
    fn samples(values: &[u64]) -> HistogramSnapshot {
        let histogram = Histogram::new();
        values.iter().for_each(|&value| histogram.record(value));
        histogram.snapshot()
    }

    /// An urgent edge settles the grouped stage at once, the benign edge
    /// staged before it included, and the run goes on.
    #[test]
    fn step_settles_the_stage_on_an_urgent_edge() {
        let t0 = Instant::now();
        let mut w = Stepped::new(community(), true, 64, 64);
        let benign = w.insert(&[(10, 11, 0.01)], t0, None);
        assert_eq!(w.worker.step(Some(benign), t0), Next::Wait(Some(t0)));
        assert_eq!(w.settled(), (0, 0, samples(&[])));
        let urgent = w.insert(&[(0, 16, 5.0)], t0, None);
        assert_eq!(w.worker.step(Some(urgent), t0), Next::Wait(Some(t0)));
        assert_eq!(w.settled(), (1, 2, samples(&[2])));
    }

    /// The stage settles before an edge would take it past `coalesce`,
    /// and a run that reaches `coalesce` edges ends.
    #[test]
    fn step_settles_at_the_stage_cap_and_ends_a_full_run() {
        let t0 = Instant::now();
        // Grouped, cap 4: six benign edges in one command flush four; the
        // full run ends by publishing the count, two edges still staged.
        let mut grouped = Stepped::new(community(), true, 4, 64);
        let six: Vec<_> = (0..6).map(|i| (10 + 2 * i, 11 + 2 * i, 0.01)).collect();
        let run = grouped.insert(&six, t0, None);
        assert_eq!(grouped.worker.step(Some(run), t0), Next::Wait(None));
        assert_eq!(grouped.settled(), (1, 6, samples(&[4])));
        assert_eq!(grouped.worker.stage.len(), 2);

        // Ungrouped, cap 4: the run ends and settles at its fourth edge,
        // and the next command opens a new run.
        let mut plain = Stepped::new(SpadeEngine::new(WeightedDensity), false, 4, 64);
        let first = plain.insert(&[(0, 1, 1.0), (1, 2, 1.0)], t0, None);
        assert_eq!(plain.worker.step(Some(first), t0), Next::Wait(Some(t0)));
        let second = plain.insert(&[(2, 3, 1.0), (3, 4, 1.0)], t0, None);
        assert_eq!(plain.worker.step(Some(second), t0), Next::Wait(None));
        assert_eq!(plain.settled(), (0, 4, samples(&[4])));
        let third = plain.insert(&[(4, 5, 1.0)], t0, None);
        assert_eq!(plain.worker.step(Some(third), t0), Next::Wait(Some(t0)));
        assert_eq!(plain.worker.step(None, t0), Next::Wait(None));
        assert_eq!(plain.settled(), (0, 5, samples(&[4, 1])));
    }

    /// A dry run with budgeted edges staged holds until the earliest
    /// `queued + budget − margin`, the margin being the reorder p99 plus
    /// `SCHED_SLACK`; an arrival in the hold joins the run.
    #[test]
    fn step_holds_a_budgeted_run_until_its_spring_boundary() {
        let (t0, ms) = (Instant::now(), Duration::from_millis);
        let mut w = Stepped::new(SpadeEngine::new(WeightedDensity), false, 64, 64);
        let first = w.insert(&[(0, 1, 1.0)], t0, Some(ms(100)));
        assert_eq!(w.worker.step(Some(first), t0 + ms(1)), Next::Wait(Some(t0 + ms(1))));
        // A fresh worker's reorder histogram is empty: the slack alone.
        let boundary = t0 + ms(100) - SCHED_SLACK;
        assert_eq!(w.worker.step(None, t0 + ms(2)), Next::Wait(Some(boundary)));
        // A later arrival with a looser budget does not move it.
        let second = w.insert(&[(1, 2, 1.0)], t0 + ms(10), Some(ms(500)));
        assert_eq!(w.worker.step(Some(second), t0 + ms(10)), Next::Wait(Some(t0 + ms(10))));
        assert_eq!(w.worker.step(None, t0 + ms(10)), Next::Wait(Some(boundary)));
        assert_eq!(w.settled(), (0, 0, samples(&[])));
        assert_eq!(w.worker.step(None, boundary), Next::Wait(None));
        assert_eq!(w.settled(), (0, 2, samples(&[2])));

        // After an apply the margin takes the recorded reorder p99 too.
        let p99 = Duration::from_nanos(w.worker.metrics.reorder_ns.snapshot().p99());
        let t1 = t0 + ms(200);
        let third = w.insert(&[(2, 3, 1.0)], t1, Some(ms(100)));
        assert_eq!(w.worker.step(Some(third), t1), Next::Wait(Some(t1)));
        let boundary = t1 + (ms(100) - (p99 + SCHED_SLACK));
        assert_eq!(w.worker.step(None, t1), Next::Wait(Some(boundary)));
    }

    /// Every marker applies the grouped stage (and publishes) before it
    /// replies, then leaves the run open for a zero wait; `Shutdown`
    /// settles and exits.
    #[test]
    fn step_settles_the_stage_on_every_marker() {
        let t0 = Instant::now();
        let staged = || {
            let mut w = Stepped::new(community(), true, 64, 64);
            let benign = w.insert(&[(10, 11, 0.01)], t0, None);
            assert_eq!(w.worker.step(Some(benign), t0), Next::Wait(Some(t0)));
            assert_eq!(w.settled(), (0, 0, samples(&[])));
            w
        };
        let settled = (1, 1, samples(&[1]));
        let open = Next::Wait(Some(t0));

        let mut w = staged();
        let (reply, done) = bounded(1);
        assert_eq!(w.worker.step(Some(Command::Barrier { reply }), t0), open);
        assert_eq!((w.settled(), done.recv()), (settled.clone(), Ok(())));

        let mut w = staged();
        let (reply, region) = bounded(1);
        assert_eq!(w.worker.step(Some(Command::Region { hops: 1, reply }), t0), open);
        assert_eq!(w.settled(), settled);
        assert_eq!(region.recv().expect("region").updates_applied, 1);

        let mut w = staged();
        assert_eq!(w.worker.step(Some(Command::Shutdown), t0), Next::Exit);
        assert_eq!(w.settled(), settled);
    }

    /// Without a grouper a run settles once the queue runs dry: one batch,
    /// one publish, then a wait with no limit.
    #[test]
    fn step_settles_a_drained_run_without_a_grouper() {
        let t0 = Instant::now();
        let mut w = Stepped::new(SpadeEngine::new(WeightedDensity), false, 64, 64);
        for edges in [&[(0, 1, 1.0), (1, 2, 2.0)][..], &[(2, 0, 3.0)]] {
            let insert = w.insert(edges, t0, None);
            assert_eq!(w.worker.step(Some(insert), t0), Next::Wait(Some(t0)));
        }
        assert_eq!(w.settled(), (0, 0, samples(&[])));
        assert_eq!(w.worker.step(None, t0), Next::Wait(None));
        assert_eq!(w.settled(), (0, 3, samples(&[3])));
    }

    /// A grouped run end publishes the update count and keeps its benign
    /// edges staged. With no budget staged it waits with no limit; with
    /// one it re-checks at once, holds until the boundary, and settles
    /// there without a deadline miss.
    #[test]
    fn step_ends_a_grouped_run_by_publishing_without_settling() {
        let (t0, ms) = (Instant::now(), Duration::from_millis);
        let mut w = Stepped::new(community(), true, 64, 64);
        let benign = w.insert(&[(10, 11, 0.01)], t0, None);
        assert_eq!(w.worker.step(Some(benign), t0), Next::Wait(Some(t0)));
        assert_eq!(w.worker.step(None, t0), Next::Wait(None));
        assert_eq!(w.settled(), (0, 1, samples(&[])));
        assert_eq!(w.worker.stage.len(), 1);

        // Budgeted, the run ends full (cap 1).
        let mut w = Stepped::new(community(), true, 1, 64);
        let benign = w.insert(&[(10, 11, 0.01)], t0, Some(ms(50)));
        assert_eq!(w.worker.step(Some(benign), t0), Next::Wait(Some(t0)));
        assert_eq!(w.settled(), (0, 1, samples(&[])));
        let boundary = t0 + ms(50) - SCHED_SLACK;
        assert_eq!(w.worker.step(None, t0), Next::Wait(Some(boundary)));
        assert_eq!(w.worker.step(None, boundary), Next::Wait(None));
        assert_eq!(w.settled(), (1, 1, samples(&[1])));
        assert_eq!(w.worker.metrics.deadline_miss.get(), 0);
    }

    /// An edge whose budget ran out in the queue holds nothing: the dry
    /// run settles at once and records the miss with zero slack.
    #[test]
    fn step_applies_an_overdue_edge_at_once_and_counts_the_miss() {
        let t0 = Instant::now();
        let mut w = Stepped::new(SpadeEngine::new(WeightedDensity), false, 64, 64);
        let queued = t0 - Duration::from_secs(10);
        let overdue = w.insert(&[(0, 1, 1.0)], queued, Some(Duration::from_millis(1)));
        assert_eq!(w.worker.step(Some(overdue), t0), Next::Wait(Some(t0)));
        assert_eq!(w.worker.step(None, t0), Next::Wait(None));
        assert_eq!(w.settled(), (0, 1, samples(&[1])));
        assert_eq!(w.worker.metrics.deadline_miss.get(), 1);
        assert_eq!(w.worker.metrics.deadline_slack_ns.snapshot(), samples(&[0]));
    }

    /// The reports of a scripted input, in order, as parked waiters rely
    /// on them: `Room` once a release leaves half the queue free,
    /// `Replied` after each reply.
    #[test]
    fn step_reports_progress_in_order() {
        let t0 = Instant::now();
        let mut w = Stepped::new(SpadeEngine::new(WeightedDensity), false, 64, 8);
        let a = w.insert(&[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], t0, None);
        let b = w.insert(&[(3, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0)], t0, None);
        let c = w.insert(&[(6, 7, 1.0), (7, 8, 1.0)], t0, None);
        let (reply, done) = bounded(1);
        let (region_reply, region) = bounded(1);
        let script = [
            Some(a),
            Some(b),
            Some(Command::Barrier { reply }),
            Some(c),
            Some(Command::Region { hops: 0, reply: region_reply }),
            None,
            Some(Command::Shutdown),
        ];
        let next: Vec<Next> = script.into_iter().map(|input| w.worker.step(input, t0)).collect();
        let zero = Next::Wait(Some(t0));
        assert_eq!(next, [zero, zero, zero, zero, zero, Next::Wait(None), Next::Exit]);
        let (replied, room) = (Progress::Replied, Progress::Room);
        assert_eq!(*w.reports.lock(), [room, replied, room, replied]);
        assert!(done.recv().is_ok() && region.recv().is_ok());
    }

    proptest::proptest! {
        /// The spring-push contract over virtual time. A simulated loop
        /// steps at the next arrival or the returned wake time, whichever
        /// comes first. No wait runs past the earliest staged `queued +
        /// budget − margin` (a boundary already behind `now` allows no
        /// wait), and once a drained ungrouped run settles the engine
        /// equals per-edge solo insertion.
        #[test]
        fn stepped_spring_push_keeps_every_boundary_and_exactness(
            arrivals in proptest::collection::vec(
                (
                    0u64..20_000,
                    proptest::collection::vec((0u32..10, 0u32..10, 1u8..5), 1..4),
                    proptest::prop_oneof![
                        proptest::strategy::Just(None),
                        proptest::strategy::Strategy::prop_map(0u64..40, Some),
                    ],
                ),
                1..30,
            ),
            coalesce in 1usize..40,
            grouped in 0u8..2,
        ) {
            let grouped = grouped == 1;
            let t0 = Instant::now();
            let mut w = Stepped::new(community(), grouped, coalesce, 1 << 20);
            let mut solo = community();
            let mut queue = std::collections::VecDeque::new();
            let mut at = t0;
            for (gap_us, edges, budget_ms) in arrivals {
                at += Duration::from_micros(gap_us);
                let edges: Vec<_> = edges.into_iter().map(|(a, b, w)| (a, b, w as f64)).collect();
                queue.push_back((at, edges, budget_ms.map(Duration::from_millis)));
            }
            let (mut now, mut next, mut submitted) = (t0, Next::Wait(None), 0);
            while let Next::Wait(wake_at) = next {
                let arrival = queue.front().map(|&(at, ..)| at);
                let input = match (arrival, wake_at) {
                    // The next arrival comes before the wait runs out.
                    (Some(at), wake) if wake.is_none_or(|wake| at <= wake.max(now)) => {
                        let (at, edges, budget) = queue.pop_front().expect("an arrival");
                        now = now.max(at);
                        for &(a, b, w) in &edges {
                            let _ = solo.insert_edge(v(a), v(b), w);
                        }
                        submitted += edges.len() as u64;
                        Some(w.insert(&edges, at, budget))
                    }
                    (_, Some(wake)) => {
                        now = now.max(wake);
                        None
                    }
                    // Nothing left to arrive or to wait for.
                    (_, None) => Some(Command::Shutdown),
                };
                let dry = input.is_none();
                next = w.worker.step(input, now);
                let margin = w.worker.margin.unwrap_or_else(|| {
                    Duration::from_nanos(w.worker.metrics.reorder_ns.snapshot().p99()) + SCHED_SLACK
                });
                let boundary = w.worker.stamps.iter()
                    .filter_map(|&(queued, budget)| Some(queued + budget?.saturating_sub(margin)))
                    .min();
                if let (Some(boundary), Next::Wait(wake_at)) = (boundary, next) {
                    proptest::prop_assert!(
                        wake_at.is_some_and(|wake| wake <= boundary.max(now)),
                        "wake {:?} past the boundary {:?} (since t0)",
                        wake_at.map(|wake| wake - t0),
                        boundary - t0
                    );
                }
                if !grouped && (dry && next == Next::Wait(None) || next == Next::Exit) {
                    proptest::prop_assert_eq!(
                        w.worker.engine.state().logical_order(),
                        solo.state().logical_order()
                    );
                }
            }
            proptest::prop_assert_eq!(w.settled().1, submitted);
        }
    }
}
