//! The producer side: a batching, pipelining TCP client.
//!
//! [`SpadeNetClient`] stages submitted transactions into `Batch` frames
//! of [`ClientConfig::batch`] edges and keeps up to
//! [`ClientConfig::pipeline`] frames in flight before draining a reply —
//! so a replay saturates the socket instead of paying a round trip per
//! batch. Replies map to in-flight frames in FIFO order (the server
//! processes one connection's frames sequentially). A [`WireFrame::Busy`]
//! reply parks the unaccepted suffix of its batch under a capped,
//! jittered exponential back-off while the rest of the pipeline keeps
//! draining — one full shard queue never sleeps the whole client;
//! [`flush`](SpadeNetClient::flush) drains every in-flight and parked frame, so
//! when it returns every submitted edge has been **acknowledged** — i.e.
//! enqueued into a shard on the server.

use crate::wire::{
    write_frame, DetectionReply, FrameDecoder, MetricsReply, RawEdge, StatsReply, WireFrame,
};
use spade_graph::VertexId;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Tuning knobs of a [`SpadeNetClient`].
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Edges staged per `Batch` frame. Clamped to
    /// [`crate::wire::MAX_BATCH_EDGES`].
    pub batch: usize,
    /// Batch frames kept in flight before a reply is drained.
    pub pipeline: usize,
    /// Base pause before re-sending the suffix a Busy reply bounced.
    /// Consecutive Busy replies double it (±25 % jitter, so a fleet of
    /// producers bounced together does not retry in lockstep) up to
    /// [`busy_backoff_cap`](Self::busy_backoff_cap). Only the bounced
    /// suffix waits — in-flight non-busy frames keep draining.
    pub busy_backoff: Duration,
    /// Ceiling of the exponential Busy back-off.
    pub busy_backoff_cap: Duration,
    /// Per-transaction detection-latency budget to attach to every batch
    /// (shipped as a `BatchBudget` frame, protocol v2). `None` sends
    /// plain `Batch` frames a v1 server also understands; the shards
    /// then fall back to their configured default deadline.
    pub budget: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            batch: 512,
            pipeline: 32,
            busy_backoff: Duration::from_micros(200),
            busy_backoff_cap: Duration::from_millis(50),
            budget: None,
        }
    }
}

/// Counters a client accumulates over its lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Edges handed to [`SpadeNetClient::submit`].
    pub edges_submitted: u64,
    /// Edges acknowledged by the server (enqueued into a shard).
    pub edges_acked: u64,
    /// Busy replies received (each one re-sent a batch suffix).
    pub busy_replies: u64,
    /// Request frames written (retries included).
    pub frames_sent: u64,
}

/// A connected producer.
pub struct SpadeNetClient {
    reader: TcpStream,
    writer: std::io::BufWriter<TcpStream>,
    decoder: FrameDecoder,
    staged: Vec<RawEdge>,
    /// Sent-but-unacknowledged batches, in send order (== reply order).
    inflight: VecDeque<Vec<RawEdge>>,
    /// Busy-bounced suffixes parked until their back-off elapses. The
    /// pipeline keeps moving while they wait: a Busy reply frees its
    /// in-flight slot immediately instead of sleeping the whole client.
    deferred: VecDeque<(Instant, Vec<RawEdge>)>,
    /// Consecutive Busy replies since the last Ack (back-off exponent).
    busy_streak: u32,
    /// xorshift state for retry jitter.
    jitter: u64,
    stats: ClientStats,
    config: ClientConfig,
}

impl SpadeNetClient {
    /// Connects with default tuning.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<SpadeNetClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit batch/pipeline tuning.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        mut config: ClientConfig,
    ) -> std::io::Result<SpadeNetClient> {
        config.batch = config.batch.clamp(1, crate::wire::MAX_BATCH_EDGES);
        config.pipeline = config.pipeline.max(1);
        config.busy_backoff_cap = config.busy_backoff_cap.max(config.busy_backoff);
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone()?;
        // Seed the retry jitter from the hasher RNG — no rand dependency
        // and no two clients sharing a lockstep sequence.
        let jitter = {
            use std::hash::{BuildHasher, Hasher};
            let h = std::collections::hash_map::RandomState::new().build_hasher();
            h.finish() | 1
        };
        Ok(SpadeNetClient {
            reader,
            writer: std::io::BufWriter::new(stream),
            decoder: FrameDecoder::new(),
            staged: Vec::new(),
            inflight: VecDeque::new(),
            deferred: VecDeque::new(),
            busy_streak: 0,
            jitter,
            stats: ClientStats::default(),
            config,
        })
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Stages one transaction, shipping a `Batch` frame whenever the
    /// staging buffer fills. May block draining a reply when the
    /// pipeline window is full.
    pub fn submit(&mut self, src: VertexId, dst: VertexId, raw: f64) -> std::io::Result<()> {
        self.stats.edges_submitted += 1;
        self.staged.push((src, dst, raw));
        if self.staged.len() >= self.config.batch {
            let batch = std::mem::take(&mut self.staged);
            self.send_batch(batch)?;
        }
        Ok(())
    }

    /// Ships every staged edge, drains every in-flight frame (retrying
    /// Busy suffixes until acknowledged), then issues a wire-level Flush
    /// so shards apply buffered benign edges. On return, every submitted
    /// edge sits in a shard queue on the server.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.staged.is_empty() {
            let batch = std::mem::take(&mut self.staged);
            self.send_batch(batch)?;
        }
        loop {
            self.pump_deferred()?;
            if !self.inflight.is_empty() {
                self.drain_one()?;
            } else if let Some(&(due, _)) = self.deferred.front() {
                // Nothing in flight to drain while the bounced suffix
                // waits out its back-off — sleeping here stalls only
                // this already-empty pipeline.
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            } else {
                break;
            }
        }
        self.request(&WireFrame::Flush)?;
        match self.read_reply()? {
            WireFrame::Ack { .. } => Ok(()),
            other => Err(unexpected(&other, "Ack")),
        }
    }

    /// Flushes, then asks for the merged global detection.
    pub fn detect(&mut self) -> std::io::Result<DetectionReply> {
        self.flush()?;
        self.request(&WireFrame::Detect)?;
        match self.read_reply()? {
            WireFrame::Detection(reply) => Ok(reply),
            other => Err(unexpected(&other, "Detection")),
        }
    }

    /// Flushes, then asks for runtime + transport statistics.
    pub fn server_stats(&mut self) -> std::io::Result<StatsReply> {
        self.flush()?;
        self.request(&WireFrame::Stats)?;
        match self.read_reply()? {
            WireFrame::StatsReply(reply) => Ok(reply),
            other => Err(unexpected(&other, "StatsReply")),
        }
    }

    /// Flushes, then asks for the merged metrics snapshot rendered as
    /// Prometheus text exposition (per-stage latency histograms, repair
    /// and migration counters, transport totals and per-connection
    /// series).
    pub fn server_metrics(&mut self) -> std::io::Result<MetricsReply> {
        self.flush()?;
        self.request(&WireFrame::Metrics)?;
        match self.read_reply()? {
            WireFrame::MetricsReply(reply) => Ok(reply),
            other => Err(unexpected(&other, "MetricsReply")),
        }
    }

    /// Flushes, then sends the end-of-stream Shutdown marker that stops
    /// the server (the replay coordinator calls this once all producers
    /// have finished).
    pub fn shutdown_server(&mut self) -> std::io::Result<()> {
        self.flush()?;
        self.request(&WireFrame::Shutdown)?;
        match self.read_reply()? {
            WireFrame::Ack { .. } => Ok(()),
            other => Err(unexpected(&other, "Ack")),
        }
    }

    /// Flushes and hands back the lifetime counters.
    pub fn finish(mut self) -> std::io::Result<ClientStats> {
        self.flush()?;
        Ok(self.stats)
    }

    /// Sends one request frame immediately (no pipelining).
    fn request(&mut self, frame: &WireFrame) -> std::io::Result<()> {
        write_frame(&mut self.writer, frame)?;
        self.stats.frames_sent += 1;
        self.writer.flush()
    }

    /// Ships `batch` as one frame, first re-sending any due Busy
    /// suffixes (so retries do not rot behind fresh traffic) and
    /// draining a reply if the pipeline window is full.
    fn send_batch(&mut self, batch: Vec<RawEdge>) -> std::io::Result<()> {
        self.pump_deferred()?;
        while self.inflight.len() >= self.config.pipeline {
            self.drain_one()?;
        }
        self.write_batch(batch)
    }

    /// Re-sends every parked Busy suffix whose back-off has elapsed.
    fn pump_deferred(&mut self) -> std::io::Result<()> {
        while matches!(self.deferred.front(), Some(&(due, _)) if due <= Instant::now()) {
            let (_, batch) = self.deferred.pop_front().expect("checked non-empty");
            while self.inflight.len() >= self.config.pipeline {
                self.drain_one()?;
            }
            self.write_batch(batch)?;
        }
        Ok(())
    }

    /// The capped exponential back-off (with ±25 % jitter) for the
    /// current Busy streak.
    fn busy_delay(&mut self) -> Duration {
        let exp = self.busy_streak.min(16);
        let base = self
            .config
            .busy_backoff
            .saturating_mul(1u32 << exp.min(31))
            .min(self.config.busy_backoff_cap);
        // xorshift64 — cheap, seeded per client, never zero.
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let quarter = base.as_nanos() as u64 / 4;
        let offset = if quarter == 0 { 0 } else { self.jitter % (2 * quarter + 1) };
        // base - quarter + offset ∈ [0.75 · base, 1.25 · base].
        Duration::from_nanos((base.as_nanos() as u64 - quarter).saturating_add(offset))
    }

    /// Writes one `Batch` (or, with a configured budget, `BatchBudget`)
    /// frame and parks the edges in the in-flight window (moved, not
    /// cloned — the writer borrows them, so the hot path pays only the
    /// encode copy).
    fn write_batch(&mut self, batch: Vec<RawEdge>) -> std::io::Result<()> {
        // Saturate instead of wrapping a >71-minute budget; u32::MAX
        // microseconds is already far beyond any real-time SLO.
        let budget_us =
            self.config.budget.map(|b| u32::try_from(b.as_micros()).unwrap_or(u32::MAX));
        crate::wire::write_batch(&mut self.writer, budget_us, &batch)?;
        self.stats.frames_sent += 1;
        self.writer.flush()?;
        self.inflight.push_back(batch);
        Ok(())
    }

    /// Consumes one reply, freeing one in-flight slot. A Busy reply
    /// parks the bounced suffix with a capped exponential back-off
    /// (jittered) instead of sleeping the whole client — the remaining
    /// in-flight non-busy frames keep draining while the suffix waits,
    /// and `pump_deferred` re-sends it once the back-off elapses.
    fn drain_one(&mut self) -> std::io::Result<()> {
        let reply = self.read_reply()?;
        let Some(batch) = self.inflight.pop_front() else {
            return Err(unexpected(&reply, "no request in flight"));
        };
        match reply {
            WireFrame::Ack { accepted } => {
                self.stats.edges_acked += accepted;
                self.busy_streak = 0;
                debug_assert_eq!(accepted as usize, batch.len());
                Ok(())
            }
            WireFrame::Busy { accepted } => {
                self.stats.edges_acked += accepted;
                self.stats.busy_replies += 1;
                // Clamp against a nonsensical accepted count — a
                // protocol violation must not become a panic.
                let rest = batch[(accepted as usize).min(batch.len())..].to_vec();
                let delay = self.busy_delay();
                self.busy_streak = self.busy_streak.saturating_add(1);
                self.deferred.push_back((Instant::now() + delay, rest));
                Ok(())
            }
            WireFrame::Error { message } => {
                Err(std::io::Error::other(format!("server error: {message}")))
            }
            other => Err(unexpected(&other, "Ack or Busy")),
        }
    }

    /// Blocks until one reply frame is reassembled.
    fn read_reply(&mut self) -> std::io::Result<WireFrame> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(std::io::Error::from)? {
                return Ok(frame);
            }
            let n = self.reader.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            self.decoder.extend(&chunk[..n]);
        }
    }
}

fn unexpected(got: &WireFrame, wanted: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("protocol violation: expected {wanted}, got {got:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::read_frame;
    use std::net::TcpListener;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// A Busy reply must not stall the pipeline: the bounced suffix is
    /// parked under back-off while every other in-flight frame keeps
    /// draining, and the retry goes out only after the fresh traffic
    /// already in the pipeline. The scripted server bounces the first
    /// batch (Busy, zero accepted) and acknowledges everything else,
    /// recording the arrival order of batch frames by their first edge.
    #[test]
    fn busy_backoff_defers_only_the_bounced_suffix() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || -> Vec<u32> {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut order = Vec::new();
            let mut batches = 0u32;
            loop {
                match read_frame(&mut stream).expect("frame") {
                    Some(WireFrame::Batch { edges }) => {
                        order.push(edges[0].0 .0);
                        batches += 1;
                        let reply = if batches == 1 {
                            WireFrame::Busy { accepted: 0 }
                        } else {
                            WireFrame::Ack { accepted: edges.len() as u64 }
                        };
                        write_frame(&mut stream, &reply).expect("reply");
                    }
                    Some(WireFrame::Flush) => {
                        write_frame(&mut stream, &WireFrame::Ack { accepted: 0 }).expect("reply");
                    }
                    Some(other) => panic!("unexpected frame: {other:?}"),
                    None => return order,
                }
            }
        });

        let mut client = SpadeNetClient::connect_with(
            addr,
            ClientConfig {
                batch: 1,
                pipeline: 4,
                busy_backoff: Duration::from_millis(40),
                busy_backoff_cap: Duration::from_millis(40),
                ..Default::default()
            },
        )
        .expect("connect");
        // Six single-edge batches, identified by src id 1..=6. The
        // pipeline holds 4, so batch 5 forces a drain that receives the
        // Busy for batch 1 — which must free the slot immediately.
        for i in 1..=6u32 {
            client.submit(v(i), v(100 + i), 1.0).expect("submit");
        }
        let stats = client.finish().expect("finish");
        let order = server.join().expect("server thread");

        assert_eq!(stats.edges_submitted, 6);
        assert_eq!(stats.edges_acked, 6, "the bounced suffix was retried and acknowledged");
        assert_eq!(stats.busy_replies, 1);

        // Every fresh batch reached the server before the retry of the
        // bounced batch 1: the old behavior (sleep + immediate re-send
        // inside the drain loop) would put the retry at position 5,
        // ahead of batches 5 and 6.
        assert_eq!(order.len(), 7, "six batches + one retry, got {order:?}");
        assert_eq!(&order[..6], &[1, 2, 3, 4, 5, 6], "fresh traffic drained first: {order:?}");
        assert_eq!(order[6], 1, "the retry carries the bounced suffix: {order:?}");
    }

    /// The exponential back-off is capped and jitter stays within
    /// ±25 % of the capped base.
    #[test]
    fn busy_delay_is_capped_and_jittered() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let accept = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut client = SpadeNetClient::connect_with(
            addr,
            ClientConfig {
                busy_backoff: Duration::from_millis(10),
                busy_backoff_cap: Duration::from_millis(80),
                ..Default::default()
            },
        )
        .expect("connect");
        let _held = accept.join().unwrap().expect("accept");
        let cap = Duration::from_millis(80);
        for streak in 0..20u32 {
            client.busy_streak = streak;
            let d = client.busy_delay();
            assert!(d <= cap.mul_f64(1.25), "streak {streak}: {d:?} exceeds jittered cap");
            assert!(
                d >= Duration::from_millis(10).mul_f64(0.75),
                "streak {streak}: {d:?} under jittered base"
            );
        }
    }
}
