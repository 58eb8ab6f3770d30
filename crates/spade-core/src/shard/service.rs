//! The sharded parallel detection runtime.
//!
//! [`ShardedSpadeService`] fans the single-engine worker loop of
//! [`crate::service`] out across N shards: a [`Partitioner`] routes each
//! arriving transaction to one shard, every shard runs a full
//! [`SpadeEngine`] (plus optional §4.3 edge grouping) behind its own
//! bounded ingest queue on its own thread, and [`merge`] folds the
//! per-shard snapshots into a global densest-community view on every
//! read.
//!
//! Each runtime primitive has one entry: ingest is
//! [`submit_batch`](ShardedSpadeService::submit_batch) (`submit` is its
//! one-edge form), cross-shard repair is
//! [`repair`](ShardedSpadeService::repair), and component moves are
//! [`rebalance`](ShardedSpadeService::rebalance) (`rebalance_if_needed`
//! is its idle check).
//!
//! With the connectivity partitioner (the default), a community whose
//! component is born and stays on one home shard has all of its edges
//! co-resident, so that shard detects exactly what a single engine over
//! the whole stream would — while benign traffic spreads across all
//! cores. Exactness is *per component home*: edges routed before two
//! already-homed components merge stay on their original shards until a
//! rebalance pass moves them (see `shard::migrate`), and components that
//! outgrow the spill bound hash-spread. Shutdown fans out: every queue is
//! drained, every grouper flushed, every worker joined, and the final
//! aggregate reflects every submitted transaction.

use crate::engine::SpadeEngine;
use crate::grouping::GroupingConfig;
use crate::metric::DensityMetric;
use crate::service::{
    CandidateRegion, IngestConfig, MigrationSlice, PublishedDetection, ServiceStats, SpadeService,
};
use crate::shard::aggregate::{merge, GlobalDetection};
use crate::shard::migrate::{
    pick_load_moves, MigrationPolicy, MigrationRecord, MigrationReport, MigrationStats,
    MigrationTrigger,
};
use crate::shard::partition::{HashPartitioner, PartitionStrategy, Partitioner};
use crate::shard::repair::{
    repair_regions, RepairConfig, RepairScratch, RepairStats, RepairedDetection,
};
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use spade_graph::VertexId;
use spade_metrics::runtime::{EventKind, Histogram, MetricsRegistry, MetricsSnapshot};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry names of the runtime-level (cross-shard) metrics, alongside
/// the per-worker names in [`crate::service::metric_names`].
pub mod metric_names {
    /// Histogram: wall time of one full repair pass (export → union →
    /// re-peel), nanoseconds.
    pub const REPAIR_PASS_NS: &str = "spade_repair_pass_ns";
    /// Histogram: wall time of one completed component move (await
    /// evicted slice → replay into target), nanoseconds.
    pub const MIGRATION_MOVE_NS: &str = "spade_migration_move_ns";
    /// Gauge: number of worker shards.
    pub const SHARDS: &str = "spade_shards";
}

/// Configuration of the sharded runtime.
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// Number of worker shards (engines/threads). Minimum 1.
    pub shards: usize,
    /// Per-shard ingest queue bound (back-pressure per shard).
    pub queue_capacity: usize,
    /// Per-shard drain-coalescing cap: how many queued commands a shard
    /// worker applies per wake-up as one batch (one reorder pass, one
    /// publish). `1` means strict per-edge processing; see
    /// [`IngestConfig::coalesce`].
    pub coalesce: usize,
    /// Default per-transaction detection-latency budget applied inside
    /// every shard worker; see [`IngestConfig::deadline`]. `None` keeps
    /// the plain drain-coalesce scheduler.
    pub deadline: Option<Duration>,
    /// Edge-grouping configuration applied inside every shard.
    pub grouping: Option<GroupingConfig>,
    /// Edge-to-shard routing policy.
    pub strategy: PartitionStrategy,
    /// Cross-shard repair tuning (frontier radius).
    pub repair: RepairConfig,
    /// Migration scheduler tuning (strand repair + load balancing).
    pub migration: MigrationPolicy,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        let ingest = IngestConfig::default();
        ShardedConfig {
            shards: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(8),
            queue_capacity: ingest.queue_capacity,
            coalesce: ingest.coalesce,
            deadline: ingest.deadline,
            grouping: None,
            strategy: PartitionStrategy::default(),
            repair: RepairConfig::default(),
            migration: MigrationPolicy::default(),
        }
    }
}

impl ShardedConfig {
    /// A config with `shards` workers and defaults elsewhere.
    pub fn with_shards(shards: usize) -> Self {
        ShardedConfig { shards: shards.max(1), ..Default::default() }
    }
}

/// Point-in-time statistics of one shard: the shard index plus its
/// worker's [`ServiceStats`] (queue depth, counters, detection
/// descriptor).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// The shard worker's service statistics.
    pub service: ServiceStats,
}

/// Outcome of one [`ShardedSpadeService::submit_batch`] call.
///
/// `accepted` counts the frame-order *prefix* of the batch that was
/// enqueued: the walk stops at the first edge whose destination shard has
/// no free queue slot, so a producer can offer `edges[accepted..]` again
/// verbatim without reordering or double-inserting anything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchSubmit {
    /// Edges enqueued — always a frame-order prefix of the input.
    pub accepted: usize,
    /// `true` when some destination shard had shut down; the accepted
    /// count is then unreliable (the runtime is going away regardless).
    pub closed: bool,
    /// How many of the accepted edges each shard received.
    pub shard_counts: Vec<usize>,
}

/// Handle to a running sharded detection runtime. Each shard is a full
/// [`SpadeService`] (engine + bounded queue + worker thread); this type
/// adds routing and aggregation on top.
pub struct ShardedSpadeService {
    shards: Vec<SpadeService>,
    router: Router,
    repair_config: RepairConfig,
    migration_policy: MigrationPolicy,
    /// Migration scheduler state; the mutex also serializes rebalance
    /// passes (one component move sequence at a time).
    migration: Mutex<MigrationState>,
    /// Repair state (scratch engine, counters); the mutex also
    /// serializes repair passes.
    repair: Mutex<RepairState>,
    /// Runtime-level registry (repair/migration pass durations, event
    /// trace); [`metrics`](Self::metrics) merges it with every shard's
    /// per-worker registry.
    registry: Arc<MetricsRegistry>,
    /// Pre-resolved handle: repair pass wall time.
    repair_pass_ns: Arc<Histogram>,
    /// Pre-resolved handle: completed component-move wall time.
    migration_move_ns: Arc<Histogram>,
}

/// Mutable state of the migration scheduler.
#[derive(Default)]
struct MigrationState {
    stats: MigrationStats,
    /// Per-shard `updates_applied` snapshot taken the last time the load
    /// trigger fired. The trigger compares traffic *since then* — a
    /// cumulative counter would keep re-flagging a shard that was hot
    /// once, long after its component moved away.
    load_baseline: Vec<u64>,
}

impl MigrationState {
    /// Per-shard traffic since the load trigger last fired.
    fn load_window(&self, updates: &[u64]) -> Vec<u64> {
        updates
            .iter()
            .enumerate()
            .map(|(i, &u)| u.saturating_sub(self.load_baseline.get(i).copied().unwrap_or(0)))
            .collect()
    }
}

/// Mutable state of the repair pass.
#[derive(Default)]
struct RepairState {
    scratch: RepairScratch,
    stats: RepairStats,
}

/// Walks `edges` in frame order, routing each onto its shard group while
/// one virtual queue slot per edge remains: stops at the FIRST edge whose
/// shard has no free slot, so the accepted set is a strict frame-order
/// prefix (the contract of [`ShardedSpadeService::submit_batch`]).
/// Returns the accepted count.
fn fill_groups(
    edges: &[(VertexId, VertexId, f64)],
    route: &mut dyn FnMut(VertexId, VertexId) -> usize,
    free: &mut [usize],
    groups: &mut [Vec<(VertexId, VertexId, f64)>],
) -> usize {
    let mut accepted = 0;
    for &(src, dst, raw) in edges {
        let shard = route(src, dst);
        if free[shard] == 0 {
            break;
        }
        free[shard] -= 1;
        groups[shard].push((src, dst, raw));
        accepted += 1;
    }
    accepted
}

/// The routing fast path: stateless policies route lock-free; stateful
/// ones (union-find) serialize behind a mutex.
enum Router {
    /// Lock-free hash-by-source.
    Hash,
    /// Any stateful [`Partitioner`].
    Locked(Mutex<Box<dyn Partitioner>>),
}

impl Router {
    fn new(strategy: PartitionStrategy) -> Self {
        match strategy {
            PartitionStrategy::HashBySource => Router::Hash,
            other => Router::Locked(Mutex::new(other.build())),
        }
    }

    /// The routing table behind a stateful policy, or `None` for the
    /// lock-free hash path (which has no table to rebalance).
    fn table(&self) -> Option<parking_lot::MutexGuard<'_, Box<dyn Partitioner>>> {
        match self {
            Router::Hash => None,
            Router::Locked(p) => Some(p.lock()),
        }
    }

    /// Lends the routing policy to `f` — the single copy of the
    /// route-then-enqueue protocol [`ShardedSpadeService::submit_batch`]
    /// runs.
    ///
    /// For stateful routing the lock is held ACROSS `f`, so across the
    /// enqueue and not just the lookup: the migration scheduler takes
    /// the same lock to rehome a component and stage its eviction
    /// marker, so an edge routed before a rehome is guaranteed to sit in
    /// its shard's queue ahead of the marker — in-flight edges always
    /// drain into the migrated slice instead of landing on an evicted
    /// shard. (No deadlock: workers drain their queues without ever
    /// taking this lock.)
    fn with<R>(&self, f: impl FnOnce(&mut dyn Partitioner) -> R) -> R {
        match self.table() {
            Some(mut table) => f(table.as_mut()),
            // `HashPartitioner::route` takes `&mut self` to satisfy the
            // trait but touches no state, so a fresh copy routes alike.
            None => f(&mut HashPartitioner),
        }
    }
}

impl ShardedSpadeService {
    /// Spawns `config.shards` worker engines built by `factory` (called
    /// once per shard index — use it to pre-bootstrap shards from
    /// snapshots or to vary per-shard configuration).
    pub fn spawn_with<M, F>(config: ShardedConfig, mut factory: F) -> Self
    where
        M: DensityMetric + Send + 'static,
        F: FnMut(usize) -> SpadeEngine<M>,
    {
        let num_shards = config.shards.max(1);
        let mut shards = Vec::with_capacity(num_shards);
        let ingest = IngestConfig {
            queue_capacity: config.queue_capacity,
            coalesce: config.coalesce,
            deadline: config.deadline,
        };
        for shard in 0..num_shards {
            shards.push(SpadeService::spawn_with(
                factory(shard),
                config.grouping,
                ingest,
                format!("spade-shard-{shard}"),
            ));
        }
        let registry = Arc::new(MetricsRegistry::new());
        let repair_pass_ns = registry.histogram(metric_names::REPAIR_PASS_NS);
        let migration_move_ns = registry.histogram(metric_names::MIGRATION_MOVE_NS);
        ShardedSpadeService {
            shards,
            router: Router::new(config.strategy),
            repair_config: config.repair,
            migration_policy: config.migration,
            migration: Mutex::new(MigrationState::default()),
            repair: Mutex::new(RepairState::default()),
            registry,
            repair_pass_ns,
            migration_move_ns,
        }
    }

    /// Spawns the runtime with one empty engine per shard sharing the
    /// given metric.
    pub fn spawn<M>(metric: M, config: ShardedConfig) -> Self
    where
        M: DensityMetric + Clone + Send + 'static,
    {
        Self::spawn_with(config, |_| SpadeEngine::new(metric.clone()))
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Routes one transaction to its shard and enqueues it — a one-edge
    /// [`submit_batch`](Self::submit_batch), offered again every 50 µs
    /// while that shard's queue is full (per-shard back-pressure).
    /// Returns `false` if the runtime has shut down.
    ///
    /// The routing lock is released between offers, so one
    /// back-pressured shard never head-of-line-blocks producers bound for
    /// idle shards. Re-routing the same edge is safe — the union is
    /// idempotent and no duplicate strand event is recorded (the
    /// endpoints already share a root) — at worst the load heuristic
    /// counts a re-offered edge twice, nudging new pins away from the
    /// congested shard.
    pub fn submit(&self, src: VertexId, dst: VertexId, raw: f64) -> bool {
        loop {
            match self.submit_batch(&[(src, dst, raw)], None) {
                BatchSubmit { closed: true, .. } => return false,
                BatchSubmit { accepted: 1, .. } => return true,
                _ => std::thread::sleep(Duration::from_micros(50)),
            }
        }
    }

    /// Routes a whole decoded batch by destination shard and enqueues
    /// one grouped command per shard — one route pass and one channel
    /// operation per shard per batch, instead of a route + submit round
    /// trip per edge.
    ///
    /// Admission is a free-slot precheck against each shard's
    /// edge-denominated queue headroom ([`SpadeService::queue_free`]),
    /// taken before anything is enqueued: the walk stops at the first
    /// edge whose shard has no slot left, so the accepted set is always
    /// a frame-order prefix and a producer can offer `edges[accepted..]`
    /// again without double-inserting or reordering (`spade-net` parks a
    /// connection on that suffix until it is all enqueued).
    /// Under stateful routing both the routing pass and the enqueues
    /// happen under the table lock, preserving the marker-ordering
    /// guarantee [`rebalance`](Self::rebalance) relies on; the free slots are
    /// snapshotted under that lock too — all producers to a stateful
    /// router serialize there, so the snapshot cannot be raced by
    /// another batch — which keeps the enqueues from blocking under the
    /// lock (producers to a lock-free router may still ride the shard's
    /// own back-pressure briefly).
    ///
    /// `budget` overrides the configured default detection-latency
    /// budget for every edge in the batch; `None` inherits the default.
    pub fn submit_batch(
        &self,
        edges: &[(VertexId, VertexId, f64)],
        budget: Option<Duration>,
    ) -> BatchSubmit {
        let num_shards = self.shards.len();
        if edges.is_empty() {
            return BatchSubmit { accepted: 0, closed: false, shard_counts: vec![0; num_shards] };
        }
        let mut groups: Vec<Vec<(VertexId, VertexId, f64)>> = vec![Vec::new(); num_shards];
        self.router.with(|partitioner| {
            let mut free: Vec<usize> = self.shards.iter().map(|s| s.queue_free()).collect();
            let accepted = fill_groups(
                edges,
                &mut |src, dst| partitioner.route(src, dst, num_shards),
                &mut free,
                &mut groups,
            );
            // One grouped command per non-empty shard group.
            let mut closed = false;
            let shard_counts = groups
                .into_iter()
                .zip(&self.shards)
                .map(|(group, shard)| {
                    let count = group.len();
                    closed |= count > 0 && !shard.submit_batch(group, budget);
                    count
                })
                .collect();
            BatchSubmit { accepted, closed, shard_counts }
        })
    }

    /// Asks every shard to flush buffered benign edges. Returns `false`
    /// if any shard has shut down.
    pub fn flush(&self) -> bool {
        self.shards.iter().all(|s| s.flush())
    }

    /// Read-your-submits barrier: blocks until every shard has applied
    /// and published everything enqueued before this call (see
    /// [`SpadeService::barrier`]). Every shard is asked first and the
    /// replies collected after, so the shards drain concurrently.
    /// Returns `false` if any shard has shut down.
    pub fn barrier(&self) -> bool {
        let pending: Vec<_> = self.shards.iter().map(|s| s.request_barrier(true)).collect();
        pending.into_iter().all(|done| done.is_ok_and(|done| done.recv().is_ok()))
    }

    /// The merged global detection across all shards (densest community
    /// wins), computed from each shard's latest snapshot.
    pub fn current_detection(&self) -> GlobalDetection {
        merge(self.shards.iter().map(|s| s.current_detection()).collect())
    }

    /// One shard's latest published detection.
    pub fn shard_detection(&self, shard: usize) -> PublishedDetection {
        self.shards[shard].current_detection()
    }

    /// Per-shard statistics: queue depth, updates applied, flush and
    /// publish counts, current detection descriptor.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardStats { shard, service: s.stats() })
            .collect()
    }

    /// Time since the runtime was spawned.
    pub fn uptime(&self) -> std::time::Duration {
        self.registry.uptime()
    }

    /// The merged observability view: every shard's per-worker registry
    /// (per-stage latency histograms, counters, event traces) summed
    /// bucket-wise with the runtime-level registry (repair/migration
    /// pass durations), plus the repair and migration subsystem counters
    /// re-expressed as registry series. Histogram counts reconcile with
    /// the drain accounting — at quiesce, the merged
    /// `spade_stage_queue_wait_ns` count equals the summed
    /// `updates_applied` across shards, because every insert is timed
    /// through its queue exactly once.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut merged = self.registry.snapshot();
        for shard in &self.shards {
            merged = merged.merge(&shard.metrics());
        }
        merged.gauges.insert(metric_names::SHARDS.into(), self.shards.len() as u64);
        let repair = self.repair.lock().stats;
        let migration = self.migration.lock().stats;
        for (name, value) in [
            ("spade_repair_passes_total", repair.repairs),
            ("spade_repair_regions_exported_total", repair.regions_exported),
            ("spade_repair_groups_merged_total", repair.groups_merged),
            ("spade_repair_corrupt_regions_total", repair.corrupt_regions),
            ("spade_migration_passes_total", migration.passes),
            ("spade_migrations_total", migration.migrations),
            ("spade_migration_strand_repairs_total", migration.strand_repairs),
            ("spade_migration_load_moves_total", migration.load_moves),
            ("spade_migration_edges_moved_total", migration.edges_moved),
            ("spade_migration_failed_moves_total", migration.failed_moves),
            ("spade_migration_skipped_empty_total", migration.skipped_empty),
        ] {
            merged.counters.insert(name.into(), value);
        }
        merged
    }

    /// Runs a cross-shard repair pass: every shard exports its candidate
    /// region (community + `RepairConfig::hops` frontier, serialized
    /// through the persist subgraph codec), regions sharing members are
    /// unioned and re-peeled through the scratch engine, and the
    /// repaired detection — density provably ≥ the best per-shard
    /// detection — is returned. Blocks until every shard has drained the
    /// submissions that preceded this call (region requests ride the
    /// same FIFO queues as transactions). Every shard is asked first and
    /// the replies collected after, so the shards drain and extract
    /// their frontiers concurrently.
    pub fn repair(&self) -> RepairedDetection {
        let mut state = self.repair.lock();
        let RepairState { scratch, stats } = &mut *state;
        let pass_started = Instant::now();
        let hops = self.repair_config.hops;
        let pending: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(shard, s)| {
                s.request_candidate_region(hops, true).ok().map(|rx| (shard, rx))
            })
            .collect();
        let regions: Vec<(usize, CandidateRegion)> = pending
            .into_iter()
            .filter_map(|(shard, rx)| rx.recv().ok().map(|region| (shard, region)))
            .collect();
        let outcome = repair_regions(&regions, scratch);
        stats.repairs += 1;
        stats.regions_exported += regions.len() as u64;
        stats.groups_merged += outcome.groups_merged as u64;
        stats.corrupt_regions += outcome.corrupt_regions as u64;
        stats.last_gain = (outcome.density - outcome.baseline_density).max(0.0);
        let pass_elapsed = pass_started.elapsed();
        stats.last_pass_ns = pass_elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.repair_pass_ns.record_duration(pass_elapsed);
        self.registry.event(EventKind::RepairPass, stats.regions_exported);
        RepairedDetection {
            detection: PublishedDetection {
                size: outcome.size,
                density: outcome.density,
                members: outcome.members.into(),
                updates_applied: regions.iter().map(|(_, r)| r.updates_applied).sum(),
                epoch: stats.repairs,
            },
            baseline_density: outcome.baseline_density,
            baseline_shard: outcome.baseline_shard,
            merged_shards: outcome.merged_shards,
            repaired: outcome.repaired,
            regions: outcome.regions,
        }
    }

    /// Counters of the repair subsystem.
    pub fn repair_stats(&self) -> RepairStats {
        self.repair.lock().stats
    }

    /// Counters of the migration subsystem.
    pub fn migration_stats(&self) -> MigrationStats {
        self.migration.lock().stats
    }

    /// The partitioner's routing-table revision: bumped on every rehome
    /// or shard-count clamp. Stateless (hash) routing stays at 0.
    pub fn routing_epoch(&self) -> u64 {
        self.router.table().map(|p| p.routing_epoch()).unwrap_or(0)
    }

    /// Runs one migration pass now (see `crate::shard::migrate`): every
    /// pending strand event moves the losing component slice onto its
    /// surviving home, then up to
    /// [`MigrationPolicy::max_load_moves`] load-balancing moves shed the
    /// largest pinned component of any shard running ahead of the
    /// configured imbalance ratio. Blocks until the involved shards have
    /// drained the submissions that preceded each move (migration
    /// markers ride the same FIFO queues as transactions). A no-op — and
    /// cheap — under stateless hash routing, which has no routing table
    /// to update.
    pub fn rebalance(&self) -> MigrationReport {
        let mut state = self.migration.lock();
        state.stats.passes += 1;
        let mut report = MigrationReport::default();
        let num_shards = self.shards.len();

        // Strand repairs: correctness fixes, never capped. The events
        // were recorded at merge time; traffic for these components has
        // been flowing to the surviving home ever since, so the stranded
        // slice is stable and the eviction marker needs no routing lock
        // — FIFO order alone guarantees it trails every stranded edge.
        let events = match self.router.table() {
            Some(mut table) => table.drain_strands(num_shards),
            None => Vec::new(),
        };
        for event in events {
            let staged = {
                let Some(mut table) = self.router.table() else { break };
                let Some(home) = table.home_of(event.member) else { continue };
                if home == event.stranded_shard || home >= num_shards {
                    continue;
                }
                let members: Arc<[VertexId]> = table.component_members(event.member).into();
                drop(table);
                self.shards[event.stranded_shard]
                    .request_migrate_out(members, true)
                    .ok()
                    .map(|rx| (home, rx))
            };
            let Some((home, rx)) = staged else { continue };
            self.complete_move(
                MigrationTrigger::StrandRepair,
                event.member,
                event.stranded_shard,
                home,
                rx,
                &mut state.stats,
                &mut report,
            );
        }

        // Load balancing: shed the largest pinned component of every
        // shard whose traffic *since the last load move* runs ahead of
        // the imbalance ratio. The whole multi-move plan comes from ONE
        // observation of the windowed counters (`pick_load_moves`) and
        // is staged under ONE routing-lock session — every rehome and
        // eviction marker lands before the lock drops, so all the
        // pass's moves split in-flight edges against a single
        // consistent routing epoch instead of re-observing (and
        // re-waiting a full window) between moves.
        let stats: Vec<ServiceStats> = self.shards.iter().map(|s| s.stats()).collect();
        let updates: Vec<u64> = stats.iter().map(|s| s.updates_applied).collect();
        let resident: Vec<u64> = stats.iter().map(|s| s.edges_resident).collect();
        let window = state.load_window(&updates);
        let plan = pick_load_moves(&window, &resident, &self.migration_policy);
        if !plan.is_empty() {
            // Acknowledge the signal whether or not the moves
            // materialize: the window restarts here, so a shard that
            // was hot once (or has nothing pinned to shed) is not
            // re-flagged forever.
            state.load_baseline = updates;
            let staged: Vec<(VertexId, usize, usize, _)> = match self.router.table() {
                Some(mut table) => plan
                    .into_iter()
                    .filter_map(|(hot, cold)| {
                        // `homed_components` reflects the rehomes staged
                        // earlier in this session, so a second move off
                        // the same hot shard picks its next-largest
                        // component, never the one already claimed.
                        let (member, _) = table
                            .homed_components(hot)
                            .into_iter()
                            .max_by_key(|&(_, size)| size)?;
                        table.rehome(member, cold);
                        let members: Arc<[VertexId]> = table.component_members(member).into();
                        let rx = self.shards[hot].request_migrate_out(members, true).ok()?;
                        Some((member, hot, cold, rx))
                    })
                    .collect(),
                None => Vec::new(),
            };
            for (member, hot, cold, rx) in staged {
                if !self.complete_move(
                    MigrationTrigger::LoadBalance,
                    member,
                    hot,
                    cold,
                    rx,
                    &mut state.stats,
                    &mut report,
                ) {
                    break;
                }
            }
        }
        report.routing_epoch = self.router.table().map(|p| p.routing_epoch()).unwrap_or(0);
        report
    }

    /// The idle check in front of [`rebalance`](Self::rebalance): looks
    /// at the two trigger signals — pending strand events and the
    /// [`ShardStats`] load imbalance, planned exactly as the pass would
    /// plan it — without touching any worker queue, and runs the pass
    /// only when it would do something.
    pub fn rebalance_if_needed(&self) -> Option<MigrationReport> {
        let pending = self.router.table().map(|p| p.pending_strands())?;
        if pending == 0 {
            let stats: Vec<ServiceStats> = self.shards.iter().map(|s| s.stats()).collect();
            let updates: Vec<u64> = stats.iter().map(|s| s.updates_applied).collect();
            let resident: Vec<u64> = stats.iter().map(|s| s.edges_resident).collect();
            let mut state = self.migration.lock();
            let window = state.load_window(&updates);
            if pick_load_moves(&window, &resident, &self.migration_policy).is_empty() {
                state.stats.served_idle += 1;
                return None;
            }
        }
        Some(self.rebalance())
    }

    /// Second half of one component move: await the evicted slice from
    /// the source, replay it into the target, account. Returns `false`
    /// when a shard has shut down mid-move.
    #[allow(clippy::too_many_arguments)]
    fn complete_move(
        &self,
        trigger: MigrationTrigger,
        member: VertexId,
        from: usize,
        to: usize,
        rx: Receiver<MigrationSlice>,
        stats: &mut MigrationStats,
        report: &mut MigrationReport,
    ) -> bool {
        let move_started = Instant::now();
        let Ok(slice) = rx.recv() else {
            // The source died after accepting the marker: its engine —
            // and with it the slice — is gone, evicted or not. Nothing
            // to restore; routing already points at the (live) target.
            stats.failed_moves += 1;
            return false;
        };
        if slice.is_empty() {
            stats.skipped_empty += 1;
            report.skipped_empty += 1;
            return true;
        }
        let record = MigrationRecord {
            trigger,
            member,
            from,
            to,
            vertices: slice.vertices,
            edges: slice.edges,
            edge_weight: slice.edge_weight,
        };
        if self.shards[to].absorb(slice.clone()).is_none() {
            // The target died mid-move but the slice is in hand and the
            // source is (presumably) alive: put the slice back where it
            // came from and point routing back at it, so the component
            // stays whole and exact. Both shards dead means the whole
            // runtime is shutting down — nothing left to preserve.
            stats.failed_moves += 1;
            if self.shards[from].absorb(slice).is_some() {
                if let Some(mut table) = self.router.table() {
                    table.rehome(member, from);
                }
            }
            return false;
        }
        stats.migrations += 1;
        match trigger {
            MigrationTrigger::StrandRepair => stats.strand_repairs += 1,
            MigrationTrigger::LoadBalance => stats.load_moves += 1,
        }
        stats.edges_moved += record.edges as u64;
        stats.edge_weight_moved += record.edge_weight;
        let move_elapsed = move_started.elapsed();
        stats.last_move_ns = move_elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.migration_move_ns.record_duration(move_elapsed);
        self.registry.event(EventKind::Migration, record.edges as u64);
        report.moves.push(record);
        true
    }

    /// Shuts every shard down in turn, waiting for each queue to drain
    /// and each worker to exit, and returns the final merged detection —
    /// it reflects every transaction ever submitted. (Workers keep
    /// draining their own queues concurrently while earlier shards are
    /// joined, so the total wait is governed by the slowest shard.)
    pub fn shutdown(mut self) -> GlobalDetection {
        merge(self.shards.drain(..).map(SpadeService::shutdown).collect())
    }

    /// [`shutdown`](Self::shutdown) preceded by a final flush + repair
    /// pass, so the returned repaired detection reflects every submitted
    /// transaction (including grouped benign edges, which the flush
    /// forces out of the per-shard buffers before regions are exported).
    pub fn shutdown_repaired(self) -> (GlobalDetection, RepairedDetection) {
        self.flush();
        let repaired = self.repair();
        (self.shutdown(), repaired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::WeightedDensity;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Noise path + a dense ring, mirroring the single-service test.
    fn feed_ring(service: &ShardedSpadeService) -> u64 {
        let mut submitted = 0;
        for i in 0..10u32 {
            assert!(service.submit(v(i), v(i + 1), 1.0));
            submitted += 1;
        }
        for a in 50..54u32 {
            for b in 50..54u32 {
                if a != b {
                    assert!(service.submit(v(a), v(b), 25.0));
                    submitted += 1;
                }
            }
        }
        submitted
    }

    #[test]
    fn sharded_runtime_detects_the_ring() {
        let service = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(4));
        assert_eq!(service.num_shards(), 4);
        let submitted = feed_ring(&service);
        let global = service.shutdown();
        assert!(global.best.density > 10.0);
        assert!(global.best.members.iter().all(|m| (50..54).contains(&m.0)));
        assert_eq!(global.total_updates, submitted);
    }

    #[test]
    fn one_shard_equals_the_single_service() {
        let sharded = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(1));
        feed_ring(&sharded);
        let global = sharded.shutdown();

        let single =
            crate::service::SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 64);
        for i in 0..10u32 {
            single.submit(v(i), v(i + 1), 1.0);
        }
        for a in 50..54u32 {
            for b in 50..54u32 {
                if a != b {
                    single.submit(v(a), v(b), 25.0);
                }
            }
        }
        let want = single.shutdown();
        assert_eq!(global.best.size, want.size);
        assert!((global.best.density - want.density).abs() < 1e-12);
        assert_eq!(global.best.members, want.members);
    }

    #[test]
    fn per_shard_stats_cover_all_submissions() {
        let service = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(3));
        let submitted = feed_ring(&service);
        // Drain deterministically before reading stats.
        let global = service.current_detection();
        let _ = global;
        let final_global = {
            let stats_before = service.stats();
            assert_eq!(stats_before.len(), 3);
            service.shutdown()
        };
        assert_eq!(final_global.total_updates, submitted);
    }

    #[test]
    fn merged_metrics_reconcile_with_updates_applied() {
        use crate::service::metric_names as worker_names;
        let service = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(3));
        let submitted = feed_ring(&service);
        let _ = service.repair();
        // Wait for every shard worker to drain its queue — repair alone
        // is not a barrier (it may serve a partial export).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while service.stats().iter().map(|s| s.service.updates_applied).sum::<u64>() < submitted {
            assert!(std::time::Instant::now() < deadline, "shard workers stalled");
            std::thread::yield_now();
        }

        let snap = service.metrics();
        assert_eq!(snap.gauges[super::metric_names::SHARDS], 3);
        assert_eq!(
            snap.histograms[worker_names::STAGE_QUEUE_WAIT_NS].count,
            submitted,
            "every submitted insert is timed through its queue exactly once"
        );
        assert_eq!(snap.counters[worker_names::UPDATES_TOTAL], submitted);
        let applied: u64 = service.stats().iter().map(|s| s.service.updates_applied).sum();
        assert_eq!(applied, submitted);
        assert!(snap.histograms[worker_names::STAGE_PUBLISH_NS].count >= 3);

        // The runtime-level registry saw the repair pass.
        assert_eq!(snap.counters["spade_repair_passes_total"], 1);
        assert_eq!(snap.histograms[super::metric_names::REPAIR_PASS_NS].count, 1);
        assert!(snap.events.iter().any(|e| e.kind == EventKind::RepairPass));
        assert!(snap.uptime_secs > 0.0);

        // The rendered exposition carries the merged series.
        let text = snap.render_prometheus();
        assert!(text.contains("spade_stage_queue_wait_ns_count"));
        assert!(text.contains("spade_repair_pass_ns_count 1"));
        service.shutdown();
    }

    #[test]
    fn grouped_shards_flush_on_shutdown() {
        let config = ShardedConfig {
            shards: 2,
            grouping: Some(GroupingConfig::default()),
            ..Default::default()
        };
        let service = ShardedSpadeService::spawn_with(config, |_| {
            // Pre-established community so benign traffic buffers.
            let mut engine = SpadeEngine::new(WeightedDensity);
            for a in 100..103u32 {
                for b in 100..103u32 {
                    if a != b {
                        engine.insert_edge(v(a), v(b), 20.0).unwrap();
                    }
                }
            }
            engine
        });
        // Benign edges: buffered inside their shard until shutdown drains.
        for i in 0..6u32 {
            assert!(service.submit(v(i), v(i + 1), 0.01));
        }
        let global = service.shutdown();
        assert_eq!(global.total_updates, 6);
        assert!(global.best.size >= 3);
    }

    #[test]
    fn drop_joins_all_workers() {
        let service = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(4));
        feed_ring(&service);
        drop(service); // must not hang or panic
    }

    /// All ordered pairs of a heavy ring over `ids`, plus a noise path.
    fn ring_with_noise(ids: std::ops::Range<u32>) -> Vec<(VertexId, VertexId, f64)> {
        let mut edges = Vec::new();
        for i in 0..10u32 {
            edges.push((v(i), v(i + 1), 1.0));
        }
        for a in ids.clone() {
            for b in ids.clone() {
                if a != b {
                    edges.push((v(a), v(b), 25.0));
                }
            }
        }
        edges
    }

    #[test]
    fn repair_recovers_hash_split_ring_exactly() {
        let edges = ring_with_noise(50..54);
        let mut solo = SpadeEngine::new(WeightedDensity);
        for &(a, b, w) in &edges {
            solo.insert_edge(a, b, w).unwrap();
        }
        let want = solo.detect();
        let mut want_members: Vec<u32> = solo.community(want).iter().map(|m| m.0).collect();
        want_members.sort_unstable();

        let config = ShardedConfig {
            shards: 4,
            strategy: PartitionStrategy::HashBySource,
            ..Default::default()
        };
        let service = ShardedSpadeService::spawn(WeightedDensity, config);
        for &(a, b, w) in &edges {
            assert!(service.submit(a, b, w));
        }
        let repaired = service.repair();
        let global = service.shutdown();

        // The diluted per-shard baseline never beats the solo answer...
        assert!(repaired.baseline_density <= want.density + 1e-9);
        assert!(global.best.density <= want.density + 1e-9);
        // ...and the repaired snapshot recovers it exactly.
        assert!((repaired.detection.density - want.density).abs() < 1e-9);
        let got: Vec<u32> = repaired.detection.members.iter().map(|m| m.0).collect();
        assert_eq!(got, want_members);
        assert_eq!(repaired.detection.size, want.size);
        assert!(repaired.detection.density >= repaired.baseline_density);
    }

    #[test]
    fn shutdown_repaired_covers_every_submission() {
        let config = ShardedConfig {
            shards: 3,
            strategy: PartitionStrategy::HashBySource,
            grouping: Some(GroupingConfig::default()),
            ..Default::default()
        };
        let service = ShardedSpadeService::spawn(WeightedDensity, config);
        let edges = ring_with_noise(60..64);
        for &(a, b, w) in &edges {
            assert!(service.submit(a, b, w));
        }
        let (global, repaired) = service.shutdown_repaired();
        assert_eq!(global.total_updates, edges.len() as u64);
        assert_eq!(repaired.detection.updates_applied, edges.len() as u64);
        assert!(repaired.detection.density >= global.best.density - 1e-9);
    }

    /// All ordered pairs of a heavy ring, shared by the migration tests.
    fn ring_pairs(ids: std::ops::Range<u32>, w: f64) -> Vec<(VertexId, VertexId, f64)> {
        let mut edges = Vec::new();
        for a in ids.clone() {
            for b in ids.clone() {
                if a != b {
                    edges.push((v(a), v(b), w));
                }
            }
        }
        edges
    }

    /// Solo-engine ground truth: sorted members + density.
    fn solo_answer(edges: &[(VertexId, VertexId, f64)]) -> (usize, f64, Vec<u32>) {
        let mut solo = SpadeEngine::new(WeightedDensity);
        for &(a, b, w) in edges {
            let _ = solo.insert_edge(a, b, w);
        }
        let det = solo.detect();
        let mut members: Vec<u32> = solo.community(det).iter().map(|m| m.0).collect();
        members.sort_unstable();
        (det.size, det.density, members)
    }

    #[test]
    fn stranded_merge_is_repaired_to_solo_exactness() {
        // Two fraud half-rings born as separate components (pinned to
        // different shards), then bridged: the losing side's edges are
        // stranded until a rebalance pass migrates them home.
        let mut edges = Vec::new();
        edges.extend(ring_pairs(50..54, 25.0)); // component A
        edges.extend(ring_pairs(80..84, 25.0)); // component B
        for i in 0..10u32 {
            edges.push((v(i), v(i + 1), 1.0)); // background noise
        }
        // The bridge merges A and B into one community.
        edges.push((v(50), v(80), 25.0));
        edges.push((v(81), v(53), 25.0));
        let (want_size, want_density, want_members) = solo_answer(&edges);

        let service = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(2));
        for &(a, b, w) in &edges {
            assert!(service.submit(a, b, w));
        }
        // Before the pass the merged ring is split: the strand event is
        // pending and the detection underestimates the solo answer.
        let report = service.rebalance();
        assert!(!report.moves.is_empty(), "the stranded slice must move");
        let stats = service.migration_stats();
        assert!(stats.strand_repairs >= 1);
        assert_eq!(stats.migrations as usize, report.moves.len());
        assert!(stats.edges_moved > 0);
        // Every move is timed and traced in the runtime registry.
        let snap = service.metrics();
        let moves = report.moves.len() as u64;
        assert_eq!(snap.histograms[metric_names::MIGRATION_MOVE_NS].count, moves);
        assert_eq!(snap.counters["spade_migrations_total"], moves);
        assert!(snap.events.iter().any(|e| e.kind == EventKind::Migration));

        let global = service.shutdown();
        assert_eq!(global.total_updates, edges.len() as u64);
        let mut got: Vec<u32> = global.best.members.iter().map(|m| m.0).collect();
        got.sort_unstable();
        assert_eq!(got, want_members, "post-migration members diverge from solo");
        assert_eq!(global.best.size, want_size);
        assert!(
            (global.best.density - want_density).abs() < 1e-9,
            "post-migration density {} vs solo {}",
            global.best.density,
            want_density
        );
    }

    #[test]
    fn rebalance_is_a_noop_under_hash_routing() {
        let service = ShardedSpadeService::spawn(
            WeightedDensity,
            ShardedConfig {
                shards: 2,
                strategy: PartitionStrategy::HashBySource,
                ..Default::default()
            },
        );
        for (a, b, w) in ring_with_noise(50..54) {
            assert!(service.submit(a, b, w));
        }
        assert!(service.rebalance_if_needed().is_none());
        let report = service.rebalance();
        assert!(report.moves.is_empty());
        assert_eq!(report.routing_epoch, 0);
        assert_eq!(service.routing_epoch(), 0);
        drop(service);
    }

    #[test]
    fn load_imbalance_sheds_the_largest_component() {
        let config = ShardedConfig {
            shards: 2,
            migration: crate::shard::migrate::MigrationPolicy {
                imbalance_ratio: 1.2,
                min_updates: 8,
                max_load_moves: 1,
            },
            ..Default::default()
        };
        let service = ShardedSpadeService::spawn(WeightedDensity, config);
        // One dominant component hammers its home shard; a tiny one
        // lives on the other.
        let mut edges = ring_pairs(10..16, 10.0);
        edges.push((v(100), v(101), 1.0));
        let (want_size, want_density, want_members) = solo_answer(&edges);
        for &(a, b, w) in &edges {
            assert!(service.submit(a, b, w));
        }
        // Drain so the load signal reflects every submission.
        for _ in 0..2_000 {
            let applied: u64 = service.stats().iter().map(|s| s.service.updates_applied).sum();
            if applied >= edges.len() as u64 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let report = service.rebalance_if_needed().expect("imbalance must trigger a pass");
        assert_eq!(report.moves.len(), 1);
        assert_eq!(report.moves[0].trigger, MigrationTrigger::LoadBalance);
        assert_eq!(report.moves[0].edges, 30, "the 6-ring (30 ordered pairs) must move");
        assert!(report.routing_epoch >= 1, "a rehome must bump the routing epoch");
        assert_eq!(service.migration_stats().load_moves, 1);

        // Exactness survives the move; the evicted source no longer
        // holds the ring.
        let global = service.shutdown();
        assert_eq!(global.total_updates, edges.len() as u64);
        let mut got: Vec<u32> = global.best.members.iter().map(|m| m.0).collect();
        got.sort_unstable();
        assert_eq!(got, want_members);
        assert_eq!(global.best.size, want_size);
        assert!((global.best.density - want_density).abs() < 1e-9);
    }

    #[test]
    fn rebalance_if_needed_idles_on_a_balanced_fleet() {
        // Two disjoint, similar components: no strand, no imbalance
        // (and far below the default min_updates floor anyway).
        let mut balanced = ring_pairs(10..13, 5.0);
        balanced.extend(ring_pairs(20..23, 5.0));
        // A skewed fleet under a policy that may not move anything: the
        // idle check must agree with the pass it stands in front of.
        let mut skewed = ring_pairs(10..16, 10.0);
        skewed.push((v(100), v(101), 1.0));
        let frozen = MigrationPolicy { imbalance_ratio: 1.2, min_updates: 8, max_load_moves: 0 };
        for (edges, migration) in [(balanced, MigrationPolicy::default()), (skewed, frozen)] {
            let config = ShardedConfig { shards: 2, migration, ..Default::default() };
            let service = ShardedSpadeService::spawn(WeightedDensity, config);
            for &(a, b, w) in &edges {
                assert!(service.submit(a, b, w));
            }
            // The load window must see every submission.
            assert!(service.barrier());
            assert!(service.rebalance_if_needed().is_none());
            assert_eq!(service.migration_stats().served_idle, 1);
            assert_eq!(service.migration_stats().passes, 0);
        }
    }

    #[test]
    fn repeated_rebalance_passes_are_stable() {
        let service = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(2));
        let mut edges = ring_pairs(50..53, 20.0);
        edges.extend(ring_pairs(80..83, 20.0));
        edges.push((v(50), v(80), 20.0));
        for &(a, b, w) in &edges {
            assert!(service.submit(a, b, w));
        }
        let first = service.rebalance();
        let moved: usize = first.moves.len();
        // A second pass finds nothing left to do.
        let second = service.rebalance();
        assert!(second.moves.is_empty(), "second pass must be a no-op");
        assert_eq!(second.skipped_empty, 0);
        assert!(moved <= 1);
        let (want_size, _, want_members) = solo_answer(&edges);
        let global = service.shutdown();
        let mut got: Vec<u32> = global.best.members.iter().map(|m| m.0).collect();
        got.sort_unstable();
        assert_eq!(got, want_members);
        assert_eq!(global.best.size, want_size);
    }

    #[test]
    fn fill_groups_stops_at_the_first_full_shard() {
        let edges: Vec<_> = (0..6u32).map(|i| (v(i), v(i + 10), 1.0)).collect();
        let mut free = vec![2usize, 1];
        let mut groups = vec![Vec::new(), Vec::new()];
        let mut turn = 0usize;
        let accepted = fill_groups(
            &edges,
            &mut |_, _| {
                let shard = turn % 2;
                turn += 1;
                shard
            },
            &mut free,
            &mut groups,
        );
        // Alternating routes with free = [2, 1]: edge 0 → shard 0, edge
        // 1 → shard 1 (now full), edge 2 → shard 0, edge 3 → shard 1
        // stops the walk even though shard 0 still has room.
        assert_eq!(accepted, 3);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].len(), 1);
        assert_eq!(free, vec![0, 0]);
        assert_eq!(groups[0][1].0, v(2), "prefix must preserve frame order");
    }

    #[test]
    fn submit_batch_matches_per_edge_submits_exactly() {
        let edges = ring_with_noise(50..54);

        // Grouped submission through the default (stateful) router.
        let batched = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(3));
        let outcome = batched.submit_batch(&edges, None);
        assert_eq!(outcome.accepted, edges.len(), "default queues must admit the whole frame");
        assert!(!outcome.closed);
        assert_eq!(outcome.shard_counts.iter().sum::<usize>(), edges.len());
        assert_eq!(
            batched.submit_batch(&[], None),
            BatchSubmit { accepted: 0, closed: false, shard_counts: vec![0; 3] }
        );
        let got = batched.shutdown();

        // Per-edge submission of the same stream.
        let per_edge = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(3));
        for &(a, b, w) in &edges {
            assert!(per_edge.submit(a, b, w));
        }
        let want = per_edge.shutdown();

        assert_eq!(got.total_updates, want.total_updates);
        assert_eq!(got.best.size, want.best.size);
        assert!((got.best.density - want.best.density).abs() < 1e-12);
        assert_eq!(got.best.members, want.best.members);

        // Per-edge submits re-offered on a 2-slot queue (`tight`), under
        // both router arms, with a metric whose weights depend on arrival
        // order: the same answer as one default-queue batch.
        let run = |strategy, tight: bool| {
            let mut config = ShardedConfig { shards: 3, strategy, ..Default::default() };
            if tight {
                (config.queue_capacity, config.coalesce) = (2, 1);
            }
            let service = ShardedSpadeService::spawn(crate::metric::Fraudar::new(), config);
            if tight {
                assert!(edges.iter().all(|&(a, b, w)| service.submit(a, b, w)));
            } else {
                assert_eq!(service.submit_batch(&edges, None).accepted, edges.len());
            }
            let global = service.shutdown();
            let mut members: Vec<u32> = global.best.members.iter().map(|m| m.0).collect();
            members.sort_unstable();
            (members, global.best.density, global.total_updates)
        };
        for strategy in [PartitionStrategy::HashBySource, PartitionStrategy::default()] {
            let (members, density, updates) = run(strategy, false);
            let (tight_members, tight_density, tight_updates) = run(strategy, true);
            assert_eq!(tight_members, members, "{strategy:?}");
            assert!((tight_density - density).abs() < 1e-12, "{strategy:?}");
            assert_eq!((tight_updates, updates), (edges.len() as u64, edges.len() as u64));
        }
    }

    #[test]
    fn a_dead_worker_behind_a_full_queue_reads_as_closed() {
        use crate::metric::CustomMetric;
        use std::sync::atomic::{AtomicBool, Ordering};
        // The only shard's worker stalls inside its first edge until the
        // gate opens, then panics: its queue stays full and its receiver
        // is gone.
        let gate = Arc::new(AtomicBool::new(false));
        let config =
            ShardedConfig { shards: 1, queue_capacity: 2, coalesce: 1, ..Default::default() };
        let service = ShardedSpadeService::spawn_with(config, |_| {
            let gate = Arc::clone(&gate);
            SpadeEngine::new(CustomMetric::new(
                "doomed",
                |_, _| 0.0,
                move |_, _, _, _| {
                    while !gate.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    panic!("metric failure unwinds the shard worker");
                },
            ))
        });
        // The worker holds the first edge; the next two fill the queue.
        let edge = (v(1), v(2), 1.0);
        for _ in 0..3 {
            assert!(service.submit(edge.0, edge.1, edge.2));
        }
        let stalled = service.submit_batch(&[edge], None);
        assert_eq!((stalled.accepted, stalled.closed), (0, false));
        gate.store(true, Ordering::Release);
        let deadline = Instant::now() + Duration::from_secs(60);
        while !service.submit_batch(&[edge], None).closed {
            assert!(Instant::now() < deadline, "a dead worker's full queue never read as closed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!service.submit(edge.0, edge.1, edge.2));
    }

    #[test]
    fn submit_batch_under_hash_routing_covers_every_edge() {
        let config = ShardedConfig {
            shards: 4,
            strategy: PartitionStrategy::HashBySource,
            ..Default::default()
        };
        let service = ShardedSpadeService::spawn(WeightedDensity, config);
        let edges = ring_with_noise(50..54);
        let outcome = service.submit_batch(&edges, None);
        assert_eq!(outcome.accepted, edges.len());
        assert!(!outcome.closed);
        let global = service.shutdown();
        assert_eq!(global.total_updates, edges.len() as u64);
    }

    #[test]
    fn top_ranking_orders_by_density() {
        let service = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(3));
        feed_ring(&service);
        let global = service.shutdown();
        assert_eq!(global.top.len(), 3, "every shard is ranked");
        for pair in global.top.windows(2) {
            assert!(pair[0].detection.density >= pair[1].detection.density, "ranking out of order");
        }
        assert_eq!(global.top[0].shard, global.best_shard);
    }
}
