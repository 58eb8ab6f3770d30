//! # Router tier: the sharded runtime over processes
//!
//! [`SpadeRouter`] speaks the [`crate::wire`] protocol to N
//! [`crate::shard_server`] processes and reproduces the in-process
//! sharded runtime's contract at the process level: deterministic
//! partitioned ingest, the cross-shard repair/aggregation pass (§4's
//! per-shard peeling stitched back to the exact global detection), and
//! component migration as snapshots in flight. The pieces:
//!
//! * **Ingest**: edges are routed by a [`Partitioner`] (hash-by-source
//!   by default), buffered per shard, and shipped as `Batch` frames —
//!   one synchronous round trip per batch, so at most one batch per
//!   shard is ever in flight and replay order is deterministic.
//! * **Replication**: before a batch is offered to its home shard `k`,
//!   it is journaled on the *replica* shard `(k+1) % N` via a
//!   `Replicate` frame. An edge counts as acknowledged only after
//!   **both** the replica and the home shard acked — which is what
//!   makes "zero acked edges lost" provable under SIGKILL: any acked
//!   edge is either applied on a live home or sits in a live journal.
//! * **Recovery** ([`recover`](SpadeRouter::recover)): when a home
//!   connection dies, batches keep journaling on the replica and queue
//!   as *pending*. A restarted (empty) shard process is reseeded by
//!   draining the replica's journal (`Bootstrap` → `BootstrapChunk`
//!   stream) and replaying every journaled batch — raw edges, applied
//!   exactly once by the fresh engine — after which pending batches are
//!   acknowledged without a resend (they are part of the journal). One
//!   failure at a time is tolerated: a crash destroys the journals the
//!   victim held *for others*, which are not rebuilt.
//! * **Repair** ([`repair`](SpadeRouter::repair)): flush + pull every
//!   shard's candidate region over the wire (`Region` frames ride the
//!   shard FIFO queues, so the pass observes every acked edge) and run
//!   the same [`repair_regions`] union/re-peel the in-process
//!   aggregator uses — the detection it publishes is provably at least
//!   as dense as the best single-shard view, and exact on communities
//!   covered by the exported frontiers.
//! * **Consolidation** ([`consolidate`](SpadeRouter::consolidate)):
//!   migrates a repaired community onto its baseline shard with
//!   `MigrateOut` → `Absorb` (extract → evict → replay in flight), then
//!   pins the members there so future traffic stays co-resident.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;

use spade_core::service::CandidateRegion;
use spade_core::shard::{repair_regions, RepairOutcome, RepairScratch};
use spade_core::shard::{PartitionStrategy, Partitioner};
use spade_graph::VertexId;

use crate::wire::{
    read_frame, write_batch, write_frame, write_replicate, RawEdge, WireError, WireFrame,
    MAX_BATCH_EDGES, MAX_MIGRATE_MEMBERS,
};

/// Tuning for a [`SpadeRouter`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Edges buffered per shard before a batch ships.
    pub batch_edges: usize,
    /// Frontier radius of the repair pass (see `RepairConfig::hops`).
    pub hops: usize,
    /// Edge-routing policy.
    pub strategy: PartitionStrategy,
    /// Journal every batch on the replica shard before offering it to
    /// its home. Disabling trades crash recovery for one round trip.
    pub replicate: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            batch_edges: 512,
            hops: 1,
            strategy: PartitionStrategy::HashBySource,
            replicate: true,
        }
    }
}

/// Router-side accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterStats {
    /// Edges accepted into the router (buffered or shipped).
    pub edges_submitted: u64,
    /// Edges acknowledged end to end (journaled *and* applied on a
    /// home shard — directly or through a recovery replay).
    pub edges_acked: u64,
    /// `Batch` frames shipped to home shards.
    pub batches: u64,
    /// `Replicate` frames journaled on replicas.
    pub replicated: u64,
    /// Always 0: a shard server admits a batch whole (a full queue parks
    /// the connection; the late Ack is the back-pressure) and protocol v5
    /// has no `Busy` reply. The field stays because `bench_stack` reads it.
    pub busy_retries: u64,
    /// Completed [`SpadeRouter::recover`] calls.
    pub recoveries: u64,
    /// Edges replayed out of a replica journal during recovery.
    pub bootstrap_edges: u64,
    /// Batches queued while their home shard was offline.
    pub deferred_batches: u64,
}

/// One home shard as the router sees it.
struct Shard {
    addr: String,
    /// `None` while the shard is offline (connection died; awaiting
    /// [`SpadeRouter::recover`]).
    conn: Option<TcpStream>,
    /// Edges routed here, not yet shipped.
    buffer: Vec<RawEdge>,
    /// Last replication sequence journaled for this shard as owner.
    seq: u64,
    /// Journaled batches not yet applied by a live home, FIFO by seq.
    pending: VecDeque<(u64, Vec<RawEdge>)>,
}

/// The router: partitioned ingest, repair, migration, and recovery over
/// N shard-server connections.
pub struct SpadeRouter {
    shards: Vec<Shard>,
    partitioner: Box<dyn Partitioner>,
    /// Vertices pinned to a shard by consolidation — consulted before
    /// the partitioner so migrated communities keep their new home.
    overrides: HashMap<VertexId, usize>,
    scratch: RepairScratch,
    config: RouterConfig,
    stats: RouterStats,
}

impl SpadeRouter {
    /// Connects to one shard server per address. Shard `k`'s replica is
    /// `(k + 1) % N`; with a single shard, replication degenerates to a
    /// self-journal (no crash tolerance).
    pub fn connect(addrs: &[String], config: RouterConfig) -> Result<SpadeRouter, WireError> {
        assert!(!addrs.is_empty(), "a router needs at least one shard");
        assert!(config.batch_edges >= 1 && config.batch_edges <= MAX_BATCH_EDGES);
        let mut shards = Vec::with_capacity(addrs.len());
        for addr in addrs {
            shards.push(Shard {
                addr: addr.clone(),
                conn: Some(dial(addr)?),
                buffer: Vec::new(),
                seq: 0,
                pending: VecDeque::new(),
            });
        }
        Ok(SpadeRouter {
            shards,
            partitioner: config.strategy.build(),
            overrides: HashMap::new(),
            scratch: RepairScratch::new(),
            config,
            stats: RouterStats::default(),
        })
    }

    /// Number of shard servers.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Router-side accounting snapshot.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// `true` while `shard`'s home connection is down.
    pub fn is_offline(&self, shard: usize) -> bool {
        self.shards[shard].conn.is_none()
    }

    /// Routes one edge; ships the destination shard's buffer when full.
    /// An edge is only *submitted* here — it is acked after
    /// [`flush_batches`](Self::flush_batches) (or a buffer-full ship)
    /// confirms the round trips.
    pub fn submit(&mut self, src: VertexId, dst: VertexId, raw: f64) -> Result<(), WireError> {
        let num = self.shards.len();
        let shard = match self.overrides.get(&src) {
            Some(&pinned) => pinned,
            None => self.partitioner.route(src, dst, num),
        };
        self.stats.edges_submitted += 1;
        self.shards[shard].buffer.push((src, dst, raw));
        if self.shards[shard].buffer.len() >= self.config.batch_edges {
            self.ship(shard)?;
        }
        Ok(())
    }

    /// Ships every buffered batch.
    pub fn flush_batches(&mut self) -> Result<(), WireError> {
        for shard in 0..self.shards.len() {
            if !self.shards[shard].buffer.is_empty() {
                self.ship(shard)?;
            }
        }
        Ok(())
    }

    /// Journals the shard's buffered edges on its replica, then offers
    /// them to the home shard. A dead home defers the batch (it stays
    /// journaled and pending); a dead replica is an error — that is the
    /// second simultaneous failure the design excludes.
    fn ship(&mut self, shard: usize) -> Result<(), WireError> {
        let edges = std::mem::take(&mut self.shards[shard].buffer);
        debug_assert!(edges.len() <= MAX_BATCH_EDGES);
        let seq = self.shards[shard].seq + 1;
        if self.config.replicate {
            let replica = (shard + 1) % self.shards.len();
            expect_ack(
                self.round_trip(replica, |conn| write_replicate(conn, shard as u32, seq, &edges))?,
            )?;
            self.stats.replicated += 1;
        }
        self.shards[shard].seq = seq;
        if self.shards[shard].conn.is_some() {
            match self.deliver(shard, &edges) {
                Ok(accepted) => {
                    self.stats.edges_acked += accepted;
                    return Ok(());
                }
                // The home died mid-round-trip; a partially applied
                // prefix on the dead engine died with it, so the
                // recovery replay cannot double-apply.
                Err(WireError::Io(_)) if self.config.replicate => self.shards[shard].conn = None,
                Err(e) => return Err(e),
            }
        }
        // Home offline: the batch is safe in the journal, so park it as
        // pending instead of failing ingest; recovery replays it and
        // acks it then.
        self.shards[shard].pending.push_back((seq, edges));
        self.stats.deferred_batches += 1;
        Ok(())
    }

    /// One `Batch` round trip to a live home shard, which admits the
    /// batch whole before it acks. Returns the edge count.
    fn deliver(&mut self, shard: usize, edges: &[RawEdge]) -> Result<u64, WireError> {
        self.stats.batches += 1;
        expect_ack(self.round_trip(shard, |conn| write_batch(conn, None, edges))?)?;
        Ok(edges.len() as u64)
    }

    /// Reconnects a (re)started shard process at `addr` and reseeds it
    /// from its replica's journal: every journaled batch is replayed as
    /// an ordinary `Batch` frame — the fresh engine applies each edge
    /// exactly once — then the deferred pending batches (all part of
    /// the journal) are acknowledged without a resend. Returns the
    /// number of edges replayed.
    pub fn recover(&mut self, shard: usize, addr: &str) -> Result<u64, WireError> {
        assert!(self.config.replicate, "recovery needs replication enabled");
        assert!(self.shards.len() > 1, "a lone shard has no replica to recover from");
        self.shards[shard].addr = addr.to_string();
        self.shards[shard].conn = Some(dial(addr)?);
        let replica = (shard + 1) % self.shards.len();
        // Drain the journal. Chunks arrive in seq order, terminated by
        // a `done` chunk carrying the journal high-water mark.
        let mut reply =
            self.request(replica, &WireFrame::Bootstrap { owner: shard as u32, after: 0 })?;
        let mut replayed = 0u64;
        loop {
            let WireFrame::BootstrapChunk(chunk) = reply else { return Err(unexpected(reply)) };
            if !chunk.edges.is_empty() {
                replayed += self.deliver(shard, &chunk.edges)?;
            }
            if chunk.done {
                break;
            }
            // Nothing more to ask: read the stream's next chunk.
            reply = self.round_trip(replica, |_| Ok(()))?;
        }
        self.stats.bootstrap_edges += replayed;
        // Every pending batch was journaled before it was deferred, so
        // the replay above already applied it: ack without resending.
        while let Some((seq, edges)) = self.shards[shard].pending.pop_front() {
            debug_assert!(seq <= self.shards[shard].seq);
            self.stats.edges_acked += edges.len() as u64;
        }
        // The replacement is also the *replica* for its predecessor,
        // whose earlier batches were journaled on the dead incarnation
        // (they are applied on the live predecessor; re-journaling them
        // is the double-failure cover the design excludes). Sync the
        // fresh journal's watermark so the predecessor's next batch is
        // contiguous instead of a rejected sequence gap.
        let prev = (shard + self.shards.len() - 1) % self.shards.len();
        if prev != shard && self.shards[prev].seq > 0 {
            let sync = WireFrame::Replicate {
                owner: prev as u32,
                seq: self.shards[prev].seq,
                edges: Vec::new(),
            };
            expect_ack(self.request(shard, &sync)?)?;
        }
        self.stats.recoveries += 1;
        Ok(replayed)
    }

    /// The cross-shard repair pass over the wire: flush every shard,
    /// pull each candidate region (the request rides the shard's FIFO
    /// queue, so it observes every previously acked edge), and run the
    /// aggregator's union/re-peel locally.
    pub fn repair(&mut self) -> Result<RepairOutcome, WireError> {
        self.flush_batches()?;
        let hops = self.config.hops as u32;
        let mut regions: Vec<(usize, CandidateRegion)> = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            if self.shards[shard].conn.is_none() {
                continue;
            }
            expect_ack(self.request(shard, &WireFrame::Flush)?)?;
            let region = match self.request(shard, &WireFrame::Region { hops })? {
                WireFrame::RegionReply(region) => region,
                other => return Err(unexpected(other)),
            };
            regions.push((shard, region));
        }
        Ok(repair_regions(&regions, &mut self.scratch))
    }

    /// Consolidates a repaired community onto its baseline shard:
    /// `MigrateOut` (extract + evict) from every other shard, `Absorb`
    /// into the baseline, and pin the members there for future routing.
    /// Returns the number of edges that moved.
    pub fn consolidate(&mut self, outcome: &RepairOutcome) -> Result<u64, WireError> {
        assert!(outcome.members.len() <= MAX_MIGRATE_MEMBERS, "community exceeds a wire frame");
        let baseline = outcome.baseline_shard;
        let mut moved = 0u64;
        for shard in 0..self.shards.len() {
            if shard == baseline || self.shards[shard].conn.is_none() {
                continue;
            }
            let out = WireFrame::MigrateOut { members: outcome.members.clone() };
            let slice = match self.request(shard, &out)? {
                WireFrame::SliceReply(slice) => slice,
                other => return Err(unexpected(other)),
            };
            if slice.is_empty() {
                continue;
            }
            moved += slice.edges as u64;
            match self.request(baseline, &WireFrame::Absorb { slice })? {
                WireFrame::AbsorbReply(_) => {}
                other => return Err(unexpected(other)),
            }
        }
        for &member in &outcome.members {
            self.overrides.insert(member, baseline);
        }
        Ok(moved)
    }

    /// The baseline shard's live detection (exact for a community after
    /// [`consolidate`](Self::consolidate) moved it there).
    pub fn detect(&mut self, shard: usize) -> Result<crate::wire::DetectionReply, WireError> {
        expect_ack(self.request(shard, &WireFrame::Flush)?)?;
        match self.request(shard, &WireFrame::Detect)? {
            WireFrame::Detection(det) => Ok(det),
            other => Err(unexpected(other)),
        }
    }

    /// Per-shard stats over the wire (`None` for offline shards).
    pub fn shard_stats(&mut self) -> Result<Vec<Option<crate::wire::StatsReply>>, WireError> {
        let mut all = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            if self.shards[shard].conn.is_none() {
                all.push(None);
                continue;
            }
            match self.request(shard, &WireFrame::Stats)? {
                WireFrame::StatsReply(stats) => all.push(Some(stats)),
                other => return Err(unexpected(other)),
            }
        }
        Ok(all)
    }

    /// Sends `Shutdown` to every live shard server.
    pub fn shutdown_shards(&mut self) -> Result<(), WireError> {
        self.flush_batches()?;
        for shard in 0..self.shards.len() {
            if self.shards[shard].conn.is_none() {
                continue;
            }
            expect_ack(self.request(shard, &WireFrame::Shutdown)?)?;
            self.shards[shard].conn = None;
        }
        Ok(())
    }

    /// One synchronous request/reply round trip on `shard`'s connection.
    fn request(&mut self, shard: usize, frame: &WireFrame) -> Result<WireFrame, WireError> {
        self.round_trip(shard, |conn| write_frame(conn, frame))
    }

    /// Sends whatever `write` puts on `shard`'s connection and reads one
    /// reply. An `Error` reply is surfaced as corruption — the shard
    /// rejected the frame, which is a router bug, not transport noise.
    fn round_trip(
        &mut self,
        shard: usize,
        write: impl FnOnce(&mut TcpStream) -> std::io::Result<()>,
    ) -> Result<WireFrame, WireError> {
        let conn = self.shards[shard].conn.as_mut().ok_or_else(|| {
            WireError::Io(std::io::Error::new(std::io::ErrorKind::NotConnected, "shard offline"))
        })?;
        write(conn)?;
        conn.flush().map_err(WireError::Io)?;
        match read_frame(conn)? {
            Some(WireFrame::Error { .. }) => Err(WireError::Corrupt("shard rejected the frame")),
            Some(reply) => Ok(reply),
            None => Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "shard closed the connection",
            ))),
        }
    }
}

fn dial(addr: &str) -> Result<TcpStream, WireError> {
    let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
    stream.set_nodelay(true).map_err(WireError::Io)?;
    Ok(stream)
}

/// The error for a well-formed reply of the wrong kind, naming what
/// the shard sent.
fn unexpected(frame: WireFrame) -> WireError {
    WireError::Unexpected(frame.kind())
}

fn expect_ack(reply: WireFrame) -> Result<(), WireError> {
    match reply {
        WireFrame::Ack { .. } => Ok(()),
        other => Err(unexpected(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard_server::{ShardServer, ShardServerConfig};
    use spade_core::service::SpadeService;
    use spade_core::{SpadeEngine, WeightedDensity};
    use std::sync::Arc;

    fn spawn_shards(n: usize) -> (Vec<ShardServer>, Vec<String>) {
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..n {
            let engine = SpadeEngine::new(WeightedDensity);
            let service = Arc::new(SpadeService::spawn(engine, None, 1024));
            let server = ShardServer::spawn(service, &ShardServerConfig::default()).expect("bind");
            addrs.push(server.local_addr().to_string());
            servers.push(server);
        }
        (servers, addrs)
    }

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// A dense 6-clique split across shards by hash routing plus noise,
    /// repaired back to the exact global community.
    #[test]
    fn repair_stitches_a_split_community() {
        let (mut servers, addrs) = spawn_shards(3);
        let mut router = SpadeRouter::connect(&addrs, RouterConfig::default()).expect("connect");
        let clique: Vec<u32> = (100..106).collect();
        let mut solo = SpadeEngine::new(WeightedDensity);
        let push = |router: &mut SpadeRouter,
                    solo: &mut SpadeEngine<WeightedDensity>,
                    src: u32,
                    dst: u32,
                    w: f64| {
            router.submit(v(src), v(dst), w).expect("submit");
            let _ = solo.insert_edge(v(src), v(dst), w);
        };
        for &a in &clique {
            for &b in &clique {
                if a != b {
                    push(&mut router, &mut solo, a, b, 9.0);
                }
            }
        }
        for i in 0..200u32 {
            push(&mut router, &mut solo, 1000 + i, 2000 + (i % 7), 0.5);
        }
        let outcome = router.repair().expect("repair");
        let want = solo.detect();
        let mut want_members: Vec<VertexId> = solo.community(want).to_vec();
        want_members.sort_unstable_by_key(|m| m.0);
        assert_eq!(outcome.members, want_members);
        assert!((outcome.density - want.density).abs() < 1e-9);
        let acked = router.stats().edges_acked;
        assert_eq!(acked, router.stats().edges_submitted);

        // Consolidate the community onto its baseline shard: its live
        // detection now equals the solo engine with no repair pass.
        let moved = router.consolidate(&outcome).expect("consolidate");
        assert!(moved > 0, "a hash-split clique must have edges to move");
        let det = router.detect(outcome.baseline_shard).expect("detect");
        let mut got: Vec<VertexId> = det.members;
        got.sort_unstable_by_key(|m| m.0);
        assert_eq!(got, want_members);
        assert!((det.density - want.density).abs() < 1e-9);

        router.shutdown_shards().expect("shutdown");
        for s in &mut servers {
            s.stop();
        }
    }

    /// A batch is answered by an `Ack` or it is an error that names the
    /// frame kind the shard sent instead.
    #[test]
    fn a_wrong_kind_reply_is_an_error_naming_the_frame() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let fake_shard = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            assert!(matches!(read_frame(&mut conn), Ok(Some(WireFrame::Batch { .. }))));
            write_frame(&mut conn, &WireFrame::Detect).expect("reply");
        });
        let config = RouterConfig { replicate: false, ..Default::default() };
        let mut router = SpadeRouter::connect(&[addr], config).expect("connect");
        router.submit(v(1), v(2), 1.0).expect("buffered");
        let err = router.flush_batches().expect_err("the reply is a protocol violation");
        assert!(err.to_string().contains("unexpected Detect frame"), "{err}");
        assert_eq!(router.stats().edges_acked, 0);
        fake_shard.join().expect("fake shard");
    }

    /// Kill nothing, but exercise the offline-defer path directly: a
    /// dead home connection defers batches into the journal, and
    /// recovery replays them into a fresh process.
    #[test]
    fn recovery_replays_the_journal_into_a_fresh_process() {
        let (mut servers, addrs) = spawn_shards(2);
        let mut router = SpadeRouter::connect(&addrs, RouterConfig::default()).expect("connect");
        // Edges homed on shard 0 (hash of src decides; probe for one).
        let mut p = spade_core::shard::HashPartitioner;
        let src0 = (0..).find(|&i| p.route(v(i), v(0), 2) == 0).unwrap();
        router.submit(v(src0), v(1), 2.0).expect("submit");
        router.flush_batches().expect("flush");
        let acked_before = router.stats().edges_acked;
        assert_eq!(acked_before, 1);

        // Shard 0 dies: drop its server entirely (connection resets).
        let dead = servers.remove(0);
        drop(dead.into_service());
        router.shards[0].conn = None;

        // Ingest continues: the batch defers but journals on shard 1.
        router.submit(v(src0), v(2), 3.0).expect("submit");
        router.flush_batches().expect("flush");
        assert_eq!(router.stats().deferred_batches, 1);
        assert_eq!(router.stats().edges_acked, acked_before, "deferred edges are not acked");

        // A fresh process takes over shard 0 and reseeds.
        let (mut fresh, fresh_addrs) = spawn_shards(1);
        let replayed = router.recover(0, &fresh_addrs[0]).expect("recover");
        assert_eq!(replayed, 2, "both journaled batches replay");
        assert_eq!(router.stats().edges_acked, acked_before + 1, "the deferred edge is now acked");
        let det = router.detect(0).expect("detect");
        assert_eq!(det.updates_applied, 2);

        router.shutdown_shards().expect("shutdown");
        for s in &mut fresh {
            s.stop();
        }
        for s in &mut servers {
            s.stop();
        }
    }
}
