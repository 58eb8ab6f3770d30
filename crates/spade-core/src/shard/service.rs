//! The sharded parallel detection runtime.
//!
//! [`ShardedSpadeService`] fans the single-engine worker loop of
//! [`crate::service`] out across N shards: a [`Partitioner`] routes each
//! arriving transaction to one shard, every shard runs a full
//! [`SpadeEngine`] (plus optional §4.3 edge grouping) behind its own
//! edge-bounded ingest queue on its own thread, and [`merge`] folds the
//! per-shard snapshots into a global densest-community view on every
//! read.
//!
//! Each runtime primitive has one entry: ingest is
//! [`submit_batch`](ShardedSpadeService::submit_batch) (`submit` is its
//! one-edge form) and cross-shard repair is
//! [`repair`](ShardedSpadeService::repair).
//!
//! Routing hashes each edge's source vertex ([`HashPartitioner`]), so
//! benign traffic spreads evenly across cores. A community whose
//! members hash to different shards is split and its density diluted on
//! each; [`repair`](ShardedSpadeService::repair) unions the shards'
//! candidate regions and re-peels them, recovering the single-engine
//! answer. Shutdown fans out: every queue is drained, every grouper
//! flushed, every worker joined, and the final aggregate reflects every
//! submitted transaction.

use crate::engine::SpadeEngine;
use crate::grouping::GroupingConfig;
use crate::metric::DensityMetric;
use crate::progress::{offer_until_enqueued, Notifier};
use crate::service::{
    CandidateRegion, IngestConfig, PublishedDetection, ServiceStats, SpadeService,
};
use crate::shard::aggregate::{merge, GlobalDetection};
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
    /// Gauge: number of worker shards.
    pub const SHARDS: &str = "spade_shards";
}

/// Configuration of the sharded runtime.
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// Number of worker shards (engines/threads). Minimum 1.
    pub shards: usize,
    /// Per-shard ingest queue bound in edges (back-pressure per shard);
    /// see [`IngestConfig::queue_capacity`].
    pub queue_capacity: usize,
    /// Per-shard drain-coalescing cap: how many edges a shard worker
    /// applies as one batch (one reorder pass, one publish), and the cap
    /// on its grouped stage. `1` means strict per-edge processing; see
    /// [`IngestConfig::coalesce`].
    pub coalesce: usize,
    /// Default per-transaction detection-latency budget applied inside
    /// every shard worker; see [`IngestConfig::deadline`]. `None` keeps
    /// the plain drain-coalesce scheduler.
    pub deadline: Option<Duration>,
    /// Edge-grouping configuration applied inside every shard.
    pub grouping: Option<GroupingConfig>,
    /// Edge-to-shard routing policy; hash by source is the only one.
    pub strategy: PartitionStrategy,
    /// Cross-shard repair tuning (frontier radius).
    pub repair: RepairConfig,
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
/// enqueued: it ends at the first edge whose destination shard has no
/// queue room left for it, so a producer can offer `edges[accepted..]` again
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
    /// The one notifier every shard worker reports into.
    progress: Arc<Notifier>,
    repair_config: RepairConfig,
    /// Repair state (scratch engine, counters); the mutex also
    /// serializes repair passes.
    repair: Mutex<RepairState>,
    /// Runtime-level registry (repair pass durations, event trace);
    /// [`metrics`](Self::metrics) merges it with every shard's per-worker
    /// registry.
    registry: Arc<MetricsRegistry>,
    /// Pre-resolved handle: repair pass wall time.
    repair_pass_ns: Arc<Histogram>,
}

/// Mutable state of the repair pass.
#[derive(Default)]
struct RepairState {
    scratch: RepairScratch,
    stats: RepairStats,
}

/// Walks `edges` in frame order, routing each onto its shard group while
/// its shard has `room` left (counting it down): stops at the FIRST edge
/// whose shard has none, so the accepted set is a strict frame-order
/// prefix (the contract of [`ShardedSpadeService::submit_batch`]).
/// Returns the accepted count.
fn fill_groups(
    edges: &[(VertexId, VertexId, f64)],
    route: &mut dyn FnMut(VertexId, VertexId) -> usize,
    room: &mut [usize],
    groups: &mut [Vec<(VertexId, VertexId, f64)>],
) -> usize {
    let mut accepted = 0;
    for &(src, dst, raw) in edges {
        let shard = route(src, dst);
        if room[shard] == 0 {
            break;
        }
        room[shard] -= 1;
        groups[shard].push((src, dst, raw));
        accepted += 1;
    }
    accepted
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
        let progress = Arc::new(Notifier::default());
        let ingest = IngestConfig {
            queue_capacity: config.queue_capacity,
            coalesce: config.coalesce,
            deadline: config.deadline,
        };
        for shard in 0..num_shards {
            shards.push(SpadeService::spawn_reporting(
                factory(shard),
                config.grouping,
                ingest,
                format!("spade-shard-{shard}"),
                Arc::clone(&progress),
            ));
        }
        let registry = Arc::new(MetricsRegistry::new());
        let repair_pass_ns = registry.histogram(metric_names::REPAIR_PASS_NS);
        ShardedSpadeService {
            shards,
            progress,
            repair_config: config.repair,
            repair: Mutex::new(RepairState::default()),
            registry,
            repair_pass_ns,
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
    /// [`submit_batch`](Self::submit_batch). While that shard's queue is
    /// full (per-shard back-pressure) the caller waits on the runtime's
    /// [`progress`](Self::progress) and offers the edge again each time a
    /// shard worker frees queue room, the wait
    /// [`SpadeService::submit_batch`] runs too. Returns `false` if the
    /// runtime has shut down.
    pub fn submit(&self, src: VertexId, dst: VertexId, raw: f64) -> bool {
        offer_until_enqueued(&self.progress, || {
            let outcome = self.submit_batch(&[(src, dst, raw)], None);
            (!outcome.closed).then_some(outcome.accepted == 1)
        })
    }

    /// The notifier every shard worker reports its progress into (see
    /// [`crate::progress`]): one subscription covers the whole runtime.
    pub fn progress(&self) -> &Arc<Notifier> {
        &self.progress
    }

    /// Routes a whole decoded batch by destination shard and enqueues
    /// one grouped command per shard — one route pass and one channel
    /// operation per shard per batch, instead of a route + submit round
    /// trip per edge. Never blocks.
    ///
    /// The routing walk stops at the first edge whose shard has no free
    /// room ([`SpadeService::queue_free`]); then each shard's group
    /// reserves its room, and only a reserved edge is enqueued. The
    /// accepted set is always a frame-order prefix, so a producer can
    /// offer `edges[accepted..]` again without double-inserting or
    /// reordering (`spade-net` parks a connection on that suffix until
    /// it is all enqueued). Routing is a pure hash, so producers never
    /// serialize: one racing on the same shard can leave it short, and
    /// the prefix then ends at that shard's first unreserved edge, with
    /// room reserved past the cut handed back.
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
        // Each shard's room for this batch: free room for the walk, then
        // the room reserved for the group it routed there.
        let mut room: Vec<usize> = self.shards.iter().map(SpadeService::queue_free).collect();
        let mut route = |src, dst| HashPartitioner.route(src, dst, num_shards);
        let mut accepted = fill_groups(edges, &mut route, &mut room, &mut groups);
        let mut closed = false;
        for ((room, group), shard) in room.iter_mut().zip(&groups).zip(&self.shards) {
            let got = shard.reserve(group.len());
            closed |= got.is_none();
            *room = got.unwrap_or(0);
        }
        if groups.iter().zip(&room).any(|(group, &got)| group.len() > got) {
            // A racing producer took room the walk counted, or a shard is
            // gone: walk again on the room reserved, and hand back what
            // that shorter prefix leaves unused.
            groups.iter_mut().for_each(Vec::clear);
            accepted = fill_groups(&edges[..accepted], &mut route, &mut room, &mut groups);
            for (shard, &unused) in self.shards.iter().zip(&room) {
                if unused > 0 {
                    shard.unreserve(unused);
                }
            }
        }
        // One grouped command per non-empty shard group.
        let shard_counts = groups
            .into_iter()
            .zip(&self.shards)
            .map(|(group, shard)| {
                let count = group.len();
                closed |= count > 0 && !shard.send_reserved(group, budget);
                count
            })
            .collect();
        BatchSubmit { accepted, closed, shard_counts }
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
        self.request_barrier().is_some_and(|pending| pending.iter().all(|done| done.recv().is_ok()))
    }

    /// A [`barrier`](Self::barrier) that does not wait: posts one barrier
    /// per shard and hands back the reply channels, so an event loop can
    /// park a connection on them. The markers take no queue room, so
    /// posting never waits; `None` if any shard has shut down.
    pub fn request_barrier(&self) -> Option<Vec<Receiver<()>>> {
        self.shards.iter().map(SpadeService::request_barrier).collect()
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
    /// bucket-wise with the runtime-level registry (repair pass
    /// durations), plus the repair counters re-expressed as registry
    /// series. Histogram counts reconcile with
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
        for (name, value) in [
            ("spade_repair_passes_total", repair.repairs),
            ("spade_repair_regions_exported_total", repair.regions_exported),
            ("spade_repair_groups_merged_total", repair.groups_merged),
        ] {
            merged.counters.insert(name.into(), value);
        }
        merged
    }

    /// Runs a cross-shard repair pass: every shard exports its candidate
    /// region (community + `RepairConfig::hops` frontier, as a snapshot
    /// value), regions sharing members are unioned and re-peeled through
    /// the scratch engine, and the repaired detection — density provably
    /// ≥ the best per-shard detection — is returned. Blocks until every
    /// shard has drained the submissions that preceded this call (region
    /// requests ride the same FIFO queues as transactions). Every shard is
    /// asked first and the replies collected after, so the shards drain
    /// and extract their frontiers concurrently.
    pub fn repair(&self) -> RepairedDetection {
        let mut state = self.repair.lock();
        let RepairState { scratch, stats } = &mut *state;
        let pass_started = Instant::now();
        let hops = self.repair_config.hops;
        let pending: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(shard, s)| s.request_candidate_region(hops).map(|rx| (shard, rx)))
            .collect();
        let regions: Vec<(usize, CandidateRegion)> = pending
            .into_iter()
            .filter_map(|(shard, rx)| rx.recv().ok().map(|region| (shard, region)))
            .collect();
        let outcome = repair_regions(&regions, scratch);
        stats.repairs += 1;
        stats.regions_exported += regions.len() as u64;
        stats.groups_merged += outcome.groups_merged as u64;
        stats.last_gain = (outcome.density - outcome.baseline_density).max(0.0);
        let pass_elapsed = pass_started.elapsed();
        stats.last_pass_ns = pass_elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.repair_pass_ns.record_duration(pass_elapsed);
        self.registry.event(EventKind::RepairPass, regions.len() as u64);
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

    /// Shuts every shard down in turn, waiting for each queue to drain
    /// and each worker to exit, and returns the final merged detection —
    /// it reflects every transaction ever submitted. (Workers keep
    /// draining their own queues concurrently while earlier shards are
    /// joined, so the total wait is governed by the slowest shard.)
    pub fn shutdown(mut self) -> GlobalDetection {
        merge(self.shards.drain(..).map(SpadeService::shutdown).collect())
    }

    /// [`shutdown`](Self::shutdown) preceded by a final repair pass, so
    /// the returned repaired detection reflects every submitted
    /// transaction (a region export settles its shard's stage first, so
    /// grouped benign edges are in it).
    pub fn shutdown_repaired(self) -> (GlobalDetection, RepairedDetection) {
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
    fn repair_pass_events_carry_each_pass_own_region_count() {
        let service = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(3));
        feed_ring(&service);
        let _ = service.repair();
        let _ = service.repair();
        let events = service.metrics().events;
        let regions: Vec<u64> =
            events.iter().filter(|e| e.kind == EventKind::RepairPass).map(|e| e.value).collect();
        assert_eq!(regions, [3, 3], "each pass exports one region per shard");
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

        // Grouped submission.
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

        // Per-edge submits re-offered on a 2-slot queue (`tight`), with a
        // metric whose weights depend on arrival order: the same answer as
        // one default-queue batch.
        let run = |tight: bool| {
            let mut config = ShardedConfig::with_shards(3);
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
        let (members, density, updates) = run(false);
        let (tight_members, tight_density, tight_updates) = run(true);
        assert_eq!(tight_members, members);
        assert!((tight_density - density).abs() < 1e-12);
        assert_eq!((tight_updates, updates), (edges.len() as u64, edges.len() as u64));
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
    fn a_blocked_submit_waits_for_room_and_then_unsubscribes() {
        use crate::metric::CustomMetric;
        use std::sync::atomic::{AtomicBool, Ordering};
        let gate = Arc::new(AtomicBool::new(false));
        let config =
            ShardedConfig { shards: 1, queue_capacity: 1, coalesce: 1, ..Default::default() };
        let service = ShardedSpadeService::spawn_with(config, |_| {
            let gate = Arc::clone(&gate);
            SpadeEngine::new(CustomMetric::new(
                "gated",
                |_, _| 0.0,
                move |_, _, raw, _| {
                    while !gate.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    raw
                },
            ))
        });
        // The worker holds the first edge, the second fills the queue.
        assert!(service.submit(v(1), v(2), 1.0));
        while service.stats()[0].service.queue_depth > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(service.submit(v(3), v(4), 1.0));
        // The third blocks, holding one more notifier handle (its
        // subscription) until the worker frees room.
        let idle = Arc::strong_count(service.progress());
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| service.submit(v(5), v(6), 1.0));
            while Arc::strong_count(service.progress()) == idle {
                std::thread::sleep(Duration::from_millis(1));
            }
            gate.store(true, Ordering::Release);
            assert!(blocked.join().expect("blocked submitter"));
        });
        assert_eq!(
            Arc::strong_count(service.progress()),
            idle,
            "the subscription outlived the wait"
        );
        assert_eq!(service.shutdown().total_updates, 3);
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
