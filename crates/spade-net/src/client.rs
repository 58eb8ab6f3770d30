//! The producer side: a batching, pipelining TCP client.
//!
//! [`SpadeNetClient`] stages submitted transactions into `Batch` frames
//! of [`ClientConfig::batch`] edges and keeps up to
//! [`ClientConfig::pipeline`] frames in flight before draining a reply —
//! so a replay saturates the socket instead of paying a round trip per
//! batch. Replies map to in-flight frames in FIFO order (the server
//! processes one connection's frames sequentially), and every batch is
//! answered by exactly one `Ack` for all of it: a server whose shard
//! queue is full holds the frame and stops reading this connection until
//! the rest is enqueued, so back-pressure reaches the producer as TCP
//! flow control — a blocked write or a late reply — and nothing is ever
//! re-sent or reordered. [`drain`](SpadeNetClient::drain) waits out every
//! in-flight frame, so when it returns every submitted edge has been
//! **acknowledged** — i.e. enqueued into a shard on the server. Reading
//! a detection is what applies the benign edges a grouped shard holds
//! back: [`detect`](SpadeNetClient::detect)'s `Detect` is a barrier on
//! every shard, and there is no separate flush request.

use crate::wire::{
    write_frame, DetectionReply, FrameDecoder, MetricsReply, RawEdge, StatsReply, WireFrame,
};
use spade_graph::VertexId;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Tuning knobs of a [`SpadeNetClient`].
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Edges staged per `Batch` frame. Clamped to
    /// [`crate::wire::MAX_BATCH_EDGES`].
    pub batch: usize,
    /// Batch frames kept in flight before a reply is drained.
    pub pipeline: usize,
    /// Per-transaction detection-latency budget to attach to every batch
    /// (shipped as a `BatchBudget` frame, protocol v2). `None` sends
    /// plain `Batch` frames a v1 server also understands; the shards
    /// then fall back to their configured default deadline.
    pub budget: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { batch: 512, pipeline: 32, budget: None }
    }
}

/// Counters a client accumulates over its lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Edges handed to [`SpadeNetClient::submit`].
    pub edges_submitted: u64,
    /// Edges acknowledged by the server (enqueued into a shard).
    pub edges_acked: u64,
    /// Always 0 since protocol v5 retired the `Busy` reply (the server's
    /// `NetStats::busy_replies` counts the frames that had to wait); the
    /// field stays because `bench_stack` reads it.
    pub busy_replies: u64,
    /// Request frames written.
    pub frames_sent: u64,
}

/// A connected producer.
pub struct SpadeNetClient {
    reader: TcpStream,
    writer: std::io::BufWriter<TcpStream>,
    decoder: FrameDecoder,
    staged: Vec<RawEdge>,
    /// Edge counts of the sent-but-unacknowledged batches, in send
    /// order (== reply order).
    inflight: VecDeque<usize>,
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
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone()?;
        Ok(SpadeNetClient {
            reader,
            writer: std::io::BufWriter::new(stream),
            decoder: FrameDecoder::new(),
            staged: Vec::new(),
            inflight: VecDeque::new(),
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
            self.send_staged()?;
        }
        Ok(())
    }

    /// Ships every staged edge and drains every in-flight frame, then
    /// asks for the merged global detection. `Detect` is a barrier on the
    /// server, so the answer covers every edge this client had
    /// acknowledged, grouped benign edges included.
    pub fn detect(&mut self) -> std::io::Result<DetectionReply> {
        self.drain()?;
        self.request(&WireFrame::Detect)?;
        match self.read_reply()? {
            WireFrame::Detection(reply) => Ok(reply),
            other => Err(unexpected(&other, "Detection")),
        }
    }

    /// Ships every staged edge and drains every in-flight frame, then
    /// asks for runtime + transport statistics. A front end answers from
    /// live counters, so `updates_applied` may trail the edges this
    /// client had acknowledged; [`detect`](Self::detect) first when the
    /// counters must cover them (read-your-acks). A shard server answers
    /// `Stats` behind a barrier.
    pub fn server_stats(&mut self) -> std::io::Result<StatsReply> {
        self.drain()?;
        self.request(&WireFrame::Stats)?;
        match self.read_reply()? {
            WireFrame::StatsReply(reply) => Ok(reply),
            other => Err(unexpected(&other, "StatsReply")),
        }
    }

    /// Ships every staged edge and drains every in-flight frame, then
    /// asks for the merged metrics snapshot rendered as Prometheus text
    /// exposition (per-stage latency histograms, repair counters,
    /// transport totals and per-connection series) — a live
    /// read on both servers.
    pub fn server_metrics(&mut self) -> std::io::Result<MetricsReply> {
        self.drain()?;
        self.request(&WireFrame::Metrics)?;
        match self.read_reply()? {
            WireFrame::MetricsReply(reply) => Ok(reply),
            other => Err(unexpected(&other, "MetricsReply")),
        }
    }

    /// Drains, then sends the end-of-stream Shutdown marker that stops
    /// the server (the replay coordinator calls this once all producers
    /// have finished).
    pub fn shutdown_server(&mut self) -> std::io::Result<()> {
        self.drain()?;
        self.request(&WireFrame::Shutdown)?;
        match self.read_reply()? {
            WireFrame::Ack { .. } => Ok(()),
            other => Err(unexpected(&other, "Ack")),
        }
    }

    /// Drains and hands back the lifetime counters.
    pub fn finish(mut self) -> std::io::Result<ClientStats> {
        self.drain()?;
        Ok(self.stats)
    }

    /// Ships every staged edge and drains every in-flight frame: on
    /// return, every submitted edge sits in a shard queue on the server.
    /// Sends no request of its own.
    pub fn drain(&mut self) -> std::io::Result<()> {
        if !self.staged.is_empty() {
            self.send_staged()?;
        }
        while !self.inflight.is_empty() {
            self.drain_one()?;
        }
        Ok(())
    }

    /// Sends one request frame immediately (no pipelining).
    fn request(&mut self, frame: &WireFrame) -> std::io::Result<()> {
        write_frame(&mut self.writer, frame)?;
        self.stats.frames_sent += 1;
        self.writer.flush()
    }

    /// Ships the staged edges as one `Batch` (or, with a configured
    /// budget, `BatchBudget`) frame, first draining a reply if the
    /// pipeline window is full. The edges are not kept: nothing is ever
    /// re-sent, so the in-flight window remembers only their count.
    fn send_staged(&mut self) -> std::io::Result<()> {
        while self.inflight.len() >= self.config.pipeline {
            self.drain_one()?;
        }
        // Saturate instead of wrapping a >71-minute budget; u32::MAX
        // microseconds is already far beyond any real-time SLO.
        let budget_us =
            self.config.budget.map(|b| u32::try_from(b.as_micros()).unwrap_or(u32::MAX));
        crate::wire::write_batch(&mut self.writer, budget_us, &self.staged)?;
        self.stats.frames_sent += 1;
        self.writer.flush()?;
        self.inflight.push_back(self.staged.len());
        self.staged.clear();
        Ok(())
    }

    /// Consumes one reply, freeing one in-flight slot. The only answer
    /// to a batch is an `Ack` for all of it; anything else is an error.
    fn drain_one(&mut self) -> std::io::Result<()> {
        let reply = self.read_reply()?;
        let Some(sent) = self.inflight.pop_front() else {
            return Err(unexpected(&reply, "no request in flight"));
        };
        match reply {
            WireFrame::Ack { accepted } if accepted == sent as u64 => {
                self.stats.edges_acked += accepted;
                Ok(())
            }
            WireFrame::Error { message } => {
                Err(std::io::Error::other(format!("server error: {message}")))
            }
            other => Err(unexpected(&other, "an Ack for the whole batch")),
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

    /// Every batch is answered by one Ack for all of it: a server that
    /// acknowledges part of a batch (what `Busy` used to mean) or sends
    /// another reply kind is a protocol violation the producer surfaces,
    /// never silently under-counts.
    #[test]
    fn anything_but_a_whole_batch_ack_is_an_error() {
        for reply in [WireFrame::Ack { accepted: 1 }, WireFrame::Detect] {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().expect("accept");
                assert!(matches!(read_frame(&mut stream), Ok(Some(WireFrame::Batch { .. }))));
                write_frame(&mut stream, &reply).expect("reply");
            });
            let config = ClientConfig { batch: 2, ..Default::default() };
            let mut client = SpadeNetClient::connect_with(addr, config).expect("connect");
            client.submit(VertexId(1), VertexId(2), 1.0).expect("staged");
            client.submit(VertexId(3), VertexId(4), 1.0).expect("shipped");
            let err = client.drain().expect_err("the reply is a protocol violation");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert_eq!(client.stats().edges_acked, 0);
            server.join().expect("server thread");
        }
    }
}
