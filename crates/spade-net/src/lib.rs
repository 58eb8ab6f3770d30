//! # spade-net
//!
//! The network tiers of the Spade runtime: a length-prefixed binary wire
//! protocol ([`WireFrame`]), one readiness-based event loop (the
//! [`reactor`] module: `poll(2)` workers with per-connection fairness
//! budgets, reply buffers and parked requests — see [`ReactorConfig`])
//! serving both frame servers — the multi-producer front end of the
//! sharded runtime ([`SpadeNetServer`]) and the one-engine shard server
//! of the distributed tier ([`ShardServer`], driven by [`SpadeRouter`])
//! — and a batching, pipelining client ([`SpadeNetClient`]).
//!
//! The paper frames Spade as a *real-time* system fed by live transaction
//! streams. Frames decode straight into
//! `ShardedSpadeService::submit_batch`, so every shard's drain-coalescing
//! batch path, routing policy, and repair/migration machinery is
//! inherited unchanged — and back-pressure crosses the wire. When an
//! edge-bounded ingest queue is full, either server keeps what it could not
//! enqueue on the connection, stops reading that connection, and offers
//! the rest again every event-loop cycle; the one `Ack` for the whole
//! frame goes out when all of it is enqueued. The producer is slowed by
//! TCP flow control alone and its edges reach the shards in the order it
//! sent them — nothing is bounced, re-sent or reordered. An edge is
//! acknowledged **only after** it sits in a shard queue, so the acked
//! count is exact drain accounting: at shutdown, `sum(updates_applied)`
//! across shards equals the server's `edges_accepted`, which covers every
//! edge a producer was acknowledged for.
//!
//! Protocol shape (all integers little-endian, `f64` as raw bits):
//!
//! ```text
//! frame   := u32 payload_len | payload            (len ≤ MAX_FRAME_BYTES)
//! payload := u8 opcode | body
//! ```
//!
//! Requests (protocol v5): `Batch` / `BatchBudget` (one ingest request,
//! without or with a latency budget — a single transaction is a one-edge
//! `Batch`; opcode `0x01`, the retired `Edge` request, stays reserved),
//! `Flush`, `Detect`, `Stats`, `Shutdown`, `Metrics`, plus the
//! shard-server operations `Region`, `MigrateOut`, `Absorb`,
//! `Replicate`, and `Bootstrap` (served by [`ShardServer`], driven by
//! [`SpadeRouter`]). Replies: `Ack`, `Detection`, `StatsReply`,
//! `MetricsReply`, `RegionReply`, `SliceReply`, `AbsorbReply`,
//! `BootstrapChunk`, `Error` (opcode `0x82`, the `Busy` reply retired in
//! v5, stays reserved).
//! The decoder rejects truncated, oversized,
//! and structurally invalid frames with an error — never a panic —
//! mirroring the overflow-safe section checks of the
//! `spade_core::persist` snapshot codec.
//!
//! Observability rides the same socket: a `Metrics` request answers with
//! the merged runtime + transport registry snapshot rendered as
//! Prometheus text exposition ([`MetricsReply`]), and
//! [`MetricsHttpServer`] serves the identical rendering to plain HTTP
//! scrapers (`spade-cli serve --metrics`).

pub mod client;
pub mod http;
pub mod reactor;
pub mod router;
pub mod server;
pub mod shard_server;
pub mod wire;

pub use client::{ClientConfig, ClientStats, SpadeNetClient};
pub use http::MetricsHttpServer;
pub use reactor::ReactorConfig;
pub use router::{RouterConfig, RouterStats, SpadeRouter};
pub use server::{NetStats, SpadeNetServer};
pub use shard_server::{ShardServer, ShardServerConfig};
pub use wire::{
    read_frame, write_batch, write_frame, write_replicate, BootstrapChunk, DetectionReply,
    FrameDecoder, MetricsReply, RawEdge, StatsReply, WireError, WireFrame, MAX_BATCH_EDGES,
    MAX_DETECTION_MEMBERS, MAX_EXPOSITION_BYTES, MAX_FRAME_BYTES, MAX_MIGRATE_MEMBERS,
    MAX_SNAPSHOT_BYTES, MAX_STATS_SHARDS, METRICS_VERSION, PROTOCOL_VERSION,
};
