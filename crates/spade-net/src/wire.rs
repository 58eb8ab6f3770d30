//! The length-prefixed binary wire protocol.
//!
//! A frame is `u32 payload_len` followed by `payload_len` payload bytes;
//! the payload is a one-byte opcode plus a fixed layout per frame kind,
//! encoded through the same primitives as the `spade_core::persist`
//! snapshot codec ([`PutLe`], and a [`ByteReader`] over the borrowed
//! payload, never a copy). Decoding is defensive throughout: every read
//! returns an error instead of panicking, every section length is
//! overflow-checked against the remaining buffer before a single record
//! is read, unknown opcodes and trailing bytes are errors, and an
//! oversized length prefix is rejected before any allocation — a
//! malicious or corrupt producer can terminate its own connection, never
//! the server.
//!
//! This is the one place a [`SubgraphSnapshot`] (a region's, a value
//! everywhere else) becomes bytes and back: a snapshot section is decoded
//! **and validated** at the frame boundary, so a bad one makes the whole
//! frame malformed.

use spade_core::persist::{ByteReader, PutLe, SubgraphSnapshot, Truncated};
use spade_core::service::CandidateRegion;
use spade_graph::VertexId;
use std::io::{Read, Write};
use std::time::Duration;

/// One transaction as it travels in an edge run: `(source, destination,
/// raw weight)`.
pub type RawEdge = (VertexId, VertexId, f64);

/// Upper bound on one frame's payload (1 MiB). A length prefix above
/// this is rejected before allocating.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Version of the request/reply framing itself. Version 2 added the
/// `BatchBudget` frame (a `Batch` carrying a per-transaction detection
/// budget for the SLO scheduler); a v1 server answers its opcode with
/// `BadOpcode`, so a client that sets a budget needs a v2 server.
/// Version 3 added the shard-server operations of the multi-process
/// runtime — `Region`, `Replicate`, `Bootstrap` and their replies — so a
/// router needs v3 shard servers. Version 4
/// retired the single-`Edge` request: opcode `0x01` stays reserved and
/// is answered with `BadOpcode`; one transaction travels as a one-edge
/// `Batch`. Version 5 retired the `Busy` reply the same way (opcode
/// `0x82` reserved): a full shard queue parks the connection until the
/// whole frame is enqueued, so every ingest frame is answered by one
/// `Ack` for all of it and back-pressure is TCP flow control. Version 6
/// retired component migration: the `MigrateOut` and `Absorb` requests
/// and their `SliceReply` and `AbsorbReply` answers (opcodes `0x0A`,
/// `0x0B`, `0x88`, `0x89` reserved), since hash routing plus the repair
/// pass is the one way a split community is put back together.
pub const PROTOCOL_VERSION: u32 = 6;

/// Most edges one `Batch` frame can carry within [`MAX_FRAME_BYTES`]
/// (opcode byte + u32 count + 16 bytes per edge). A `BatchBudget` frame
/// adds a 4-byte budget header, but the bound is kept shared — the lost
/// fraction of a frame is a quarter of one edge.
pub const MAX_BATCH_EDGES: usize = (MAX_FRAME_BYTES - 9) / 16;

/// Most members a `Detection` reply ships within [`MAX_FRAME_BYTES`]
/// (header 29 bytes + 4 per member); a larger community truncates its
/// member list at encode time while `size` keeps the true count.
pub const MAX_DETECTION_MEMBERS: usize = (MAX_FRAME_BYTES - 29) / 4;

/// Longest `Error` message shipped over the wire; longer ones truncate
/// at encode time.
const MAX_ERROR_BYTES: usize = 512;

/// Version tag of the metrics exposition carried by
/// [`WireFrame::MetricsReply`]. Bump when the exposition's structure
/// (not its metric set — new series are always fair game) changes
/// incompatibly, so a scraper can refuse formats it doesn't understand.
pub const METRICS_VERSION: u32 = 1;

/// Longest metrics exposition one `MetricsReply` ships (opcode + u32
/// version leave the rest of the frame for UTF-8 text). A larger
/// rendering truncates at a char boundary at encode time.
pub const MAX_EXPOSITION_BYTES: usize = MAX_FRAME_BYTES - 5;

/// Most per-shard queue depths one `StatsReply` carries (fixed header
/// of 77 bytes + 8 per shard) — far above any real shard count, it only
/// bounds hostile input.
pub const MAX_STATS_SHARDS: usize = (MAX_FRAME_BYTES - 77) / 8;

/// Largest [`SubgraphSnapshot::encoded_len`] one region frame carries:
/// its fixed header fits well inside 64 bytes, so a snapshot under this
/// bound always fits a frame. Larger extracts fail the operation
/// gracefully (the shard server answers `Error`), never break framing.
pub const MAX_SNAPSHOT_BYTES: usize = MAX_FRAME_BYTES - 64;

/// Most member ids a `RegionReply` member list ships within
/// [`MAX_FRAME_BYTES`]; a larger community is refused at encode time (a
/// community of over 260k vertices is the benign giant component, not a
/// fraud ring).
pub const MAX_REGION_MEMBERS: usize = (MAX_FRAME_BYTES - 64) / 4;

// 0x01 was the single-`Edge` request (retired in v4; never reuse it).
const OP_BATCH: u8 = 0x02;
const OP_FLUSH: u8 = 0x03;
const OP_DETECT: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const OP_METRICS: u8 = 0x07;
const OP_BATCH_BUDGET: u8 = 0x08;
const OP_REGION: u8 = 0x09;
// 0x0A and 0x0B were `MigrateOut` and `Absorb` (retired in v6; never
// reuse them).
const OP_REPLICATE: u8 = 0x0C;
const OP_BOOTSTRAP: u8 = 0x0D;
const OP_ACK: u8 = 0x81;
// 0x82 was the `Busy` reply (retired in v5; never reuse it).
const OP_DETECTION: u8 = 0x83;
const OP_STATS_REPLY: u8 = 0x84;
const OP_ERROR: u8 = 0x85;
const OP_METRICS_REPLY: u8 = 0x86;
const OP_REGION_REPLY: u8 = 0x87;
// 0x88 and 0x89 were `SliceReply` and `AbsorbReply` (retired in v6).
const OP_BOOTSTRAP_CHUNK: u8 = 0x8A;

/// Errors raised while decoding or transporting frames.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/stream failure.
    Io(std::io::Error),
    /// A length prefix exceeded [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// The payload carried an opcode this protocol version doesn't know.
    BadOpcode(u8),
    /// Structurally invalid payload (truncated section, trailing bytes,
    /// inconsistent counts).
    Corrupt(&'static str),
    /// A well-formed frame of the wrong kind answered a request; carries
    /// [`WireFrame::kind`] of what arrived.
    Unexpected(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte bound")
            }
            WireError::BadOpcode(op) => write!(f, "unknown frame opcode 0x{op:02x}"),
            WireError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            WireError::Unexpected(kind) => write!(f, "unexpected {kind} frame in reply"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<Truncated> for WireError {
    fn from(e: Truncated) -> Self {
        WireError::Corrupt(e.0)
    }
}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// The server's answer to a `Detect` request: the merged global
/// detection (densest community across shards).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DetectionReply {
    /// Community size.
    pub size: u64,
    /// Community density `g(S_P)`.
    pub density: f64,
    /// Ingest commands applied across all shards at snapshot time.
    pub updates_applied: u64,
    /// Community members (global vertex ids). Truncated to
    /// [`MAX_DETECTION_MEMBERS`] on the wire so the frame stays within
    /// [`MAX_FRAME_BYTES`]; compare against `size` to detect truncation
    /// (a >262k-member "community" is the benign giant component, not a
    /// reviewable fraud ring).
    pub members: Vec<VertexId>,
}

/// The server's answer to a `Stats` request: runtime totals plus the
/// transport's own counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReply {
    /// Worker shards behind the server.
    pub shards: u64,
    /// Ingest commands applied across all shards: a live read on the
    /// front end (it may trail the acks until a `Detect` has answered),
    /// every acked edge on a shard server, whose `Stats` is a barrier.
    pub updates_applied: u64,
    /// Edges currently waiting in shard queues (the unit of `--queue N`).
    pub queue_depth: u64,
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Frames decoded across all connections.
    pub frames: u64,
    /// Edges acknowledged (enqueued into a shard) across all connections.
    pub edges_accepted: u64,
    /// Ingest frames that met a full shard queue and parked their
    /// connection until the rest was enqueued (the name predates v5,
    /// which retired the `Busy` reply; scrapers read it).
    pub busy_replies: u64,
    /// Connections dropped over malformed frames.
    pub malformed_frames: u64,
    /// Seconds the runtime behind the server has been up.
    pub uptime_secs: f64,
    /// Edges waiting in each shard's queue, indexed by shard — the
    /// live back-pressure signal (`queue_depth` above is their sum). A
    /// deployment beyond [`MAX_STATS_SHARDS`] shards truncates the list
    /// on the wire.
    pub shard_queue_depths: Vec<u64>,
}

/// The server's answer to a `Metrics` request: the merged runtime +
/// transport registry snapshot rendered as Prometheus text exposition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsReply {
    /// Exposition format version ([`METRICS_VERSION`] when produced by
    /// this build).
    pub version: u32,
    /// Prometheus-style text exposition. Truncated at a char boundary
    /// to [`MAX_EXPOSITION_BYTES`] on the wire.
    pub exposition: String,
}

/// One chunk of a peer's standby journal, streamed back by `Bootstrap`:
/// the raw acked edges a (re)started shard replays to reseed. `through`
/// is the journal sequence number covered so far; the router resumes the
/// next request after it, and resends only pending frames beyond the
/// final `through` — so no acked edge is lost and none is applied twice.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BootstrapChunk {
    /// The crashed shard whose journal this chunk replays.
    pub owner: u32,
    /// Highest journal sequence number included so far.
    pub through: u64,
    /// `true` once the journal is exhausted.
    pub done: bool,
    /// The journaled edges, in original routing order.
    pub edges: Vec<RawEdge>,
}

/// One protocol frame, request or reply.
#[derive(Clone, Debug, PartialEq)]
pub enum WireFrame {
    /// A run of transactions applied in order — the unit the client
    /// pipelines and the shard workers drain-coalesce.
    Batch {
        /// The transactions, in submission order.
        edges: Vec<RawEdge>,
    },
    /// A `Batch` whose transactions carry a detection-latency budget for
    /// the SLO scheduler: each edge should be applied within `budget_us`
    /// of arriving at its shard. Protocol v2
    /// ([`PROTOCOL_VERSION`]); a v1 server rejects the opcode.
    BatchBudget {
        /// Per-transaction budget in microseconds (0 means "no budget" —
        /// equivalent to a plain `Batch`).
        budget_us: u32,
        /// The transactions, in submission order.
        edges: Vec<RawEdge>,
    },
    /// Ask every shard to flush buffered benign edges.
    Flush,
    /// Ask for the merged global detection — the read-your-acks request
    /// on both tiers: the server answers behind a barrier on every shard,
    /// so the reply covers every edge acknowledged before it on this
    /// connection, grouped benign edges included.
    Detect,
    /// Ask for runtime + transport statistics. The front end answers at
    /// once from live counters, so a stalled worker cannot hold the reply
    /// and `updates_applied` may trail the acks; a shard server answers
    /// behind a barrier, which the router's acked == applied audit reads.
    /// Send `Detect` first for counters that cover every ack.
    Stats,
    /// Stop the server once this frame is processed (the replay
    /// coordinator's end-of-stream marker).
    Shutdown,
    /// Ask for the merged metrics-registry snapshot as Prometheus text
    /// exposition (per-stage latency histograms included).
    Metrics,
    /// Ask a shard server for its candidate region — local detection
    /// plus a `hops`-hop frontier — for the router's cross-process
    /// repair pass. Protocol v3.
    Region {
        /// Frontier radius around the local community.
        hops: u32,
    },
    /// Append acked edges to this shard's standby journal for `owner`
    /// (a *peer* shard): the router copies every batch it routes to
    /// `owner` onto a replica, and only acks upstream once both
    /// confirmed — the crash-recovery groundwork. Protocol v3.
    Replicate {
        /// The peer shard these edges were routed to.
        owner: u32,
        /// Router-assigned journal sequence number (strictly
        /// increasing per owner; a repeat is acknowledged idempotently).
        seq: u64,
        /// The batch, in routing order.
        edges: Vec<RawEdge>,
    },
    /// Stream the standby journal held for `owner` back to the router,
    /// starting after journal sequence `after` — the snapshot-bootstrap
    /// handshake a restarted shard reseeds through. Protocol v3.
    Bootstrap {
        /// The crashed shard whose journal to replay.
        owner: u32,
        /// Resume after this sequence number (0 = from the start).
        after: u64,
    },
    /// Request processed; `accepted` edges were enqueued (0 for
    /// non-ingest requests).
    Ack {
        /// Edges enqueued from the acknowledged frame.
        accepted: u64,
    },
    /// The merged global detection.
    Detection(DetectionReply),
    /// Runtime + transport statistics.
    StatsReply(StatsReply),
    /// The merged metrics snapshot, rendered for scraping.
    MetricsReply(MetricsReply),
    /// A shard server's candidate region, fed into the router's repair
    /// pass. Members ship whole — the pass needs the exact set, and encode
    /// refuses lists beyond [`MAX_REGION_MEMBERS`]; `size` is a `u64`.
    /// The snapshot travels as a length-prefixed section of
    /// [`SubgraphSnapshot::encode`] bytes, decoded and validated here.
    RegionReply(CandidateRegion),
    /// One chunk of a standby journal replay.
    BootstrapChunk(BootstrapChunk),
    /// The request failed; the connection closes after this frame.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// Reads a `u32` record count of at most `max` records, checked against
/// the remaining payload ([`ByteReader::count`]) before any is read.
fn take_count(
    buf: &mut ByteReader<'_>,
    max: usize,
    width: usize,
    what: &'static str,
) -> Result<usize, WireError> {
    let count = u64::from(buf.u32()?);
    buf.count(count, width, what).ok().filter(|&n| n <= max).ok_or(WireError::Corrupt(what))
}

/// Appends one frame to `out`: the length prefix, patched once `body`
/// has appended the payload behind it — a frame is encoded in place,
/// never into a scratch buffer and copied.
fn framed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.put_u32_le(0);
    body(out);
    let payload = out.len() - at - 4;
    debug_assert!(payload <= MAX_FRAME_BYTES, "encoded frame exceeds the bound");
    out[at..at + 4].copy_from_slice(&(payload as u32).to_le_bytes());
}

/// Writes an edge run: a `u32` count, then 16 bytes per edge — the one
/// place the edge triple is laid out for the wire. Panics if the run
/// exceeds [`MAX_BATCH_EDGES`]; producers chunk below the bound (the
/// client does this automatically).
fn put_edges(out: &mut Vec<u8>, edges: &[RawEdge]) {
    assert!(edges.len() <= MAX_BATCH_EDGES, "edge run exceeds the frame bound");
    out.reserve(edges.len().saturating_mul(16));
    out.put_u32_le(edges.len() as u32);
    for &(src, dst, raw) in edges {
        out.put_u32_le(src.0);
        out.put_u32_le(dst.0);
        out.put_f64_le(raw);
    }
}

/// Reads an edge run, the inverse of [`put_edges`].
fn take_edges(buf: &mut ByteReader<'_>, what: &'static str) -> Result<Vec<RawEdge>, WireError> {
    let count = take_count(buf, MAX_BATCH_EDGES, 16, what)?;
    let mut edges = Vec::with_capacity(count);
    for _ in 0..count {
        edges.push((VertexId(buf.u32()?), VertexId(buf.u32()?), buf.f64()?));
    }
    Ok(edges)
}

/// Writes a member list: a `u32` count, then one `u32` id per member.
/// Callers truncate or assert against their frame's own bound first.
fn put_members(out: &mut Vec<u8>, members: &[VertexId]) {
    out.reserve(members.len().saturating_mul(4));
    out.put_u32_le(members.len() as u32);
    for m in members {
        out.put_u32_le(m.0);
    }
}

/// Reads a member list of at most `max` ids, the inverse of
/// [`put_members`].
fn take_members(
    buf: &mut ByteReader<'_>,
    max: usize,
    what: &'static str,
) -> Result<Vec<VertexId>, WireError> {
    let count = take_count(buf, max, 4, what)?;
    (0..count).map(|_| Ok(VertexId(buf.u32()?))).collect()
}

/// Writes a snapshot section: a `u32` byte length, then the snapshot
/// encoded in place. Panics beyond [`MAX_SNAPSHOT_BYTES`] — producers
/// refuse larger extracts first.
fn put_snapshot(out: &mut Vec<u8>, snapshot: &SubgraphSnapshot) {
    let len = snapshot.encoded_len();
    assert!(len <= MAX_SNAPSHOT_BYTES, "snapshot too large");
    out.put_u32_le(len as u32);
    snapshot.encode_into(out);
}

/// Reads a snapshot section, the inverse of [`put_snapshot`]: the
/// section must decode to a valid snapshot and end where it does, so the
/// value re-encodes to exactly the bytes received.
fn take_snapshot(
    buf: &mut ByteReader<'_>,
    what: &'static str,
) -> Result<SubgraphSnapshot, WireError> {
    let len = take_count(buf, MAX_SNAPSHOT_BYTES, 1, what)?;
    SubgraphSnapshot::decode(buf.bytes(len)?).map_err(|_| WireError::Corrupt(what))
}

/// Appends `text` cut to at most `max` bytes, never splitting a UTF-8
/// sequence at the truncation point.
fn put_text(out: &mut Vec<u8>, text: &str, max: usize) {
    let cut = (0..=text.len().min(max)).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
    out.extend_from_slice(&text.as_bytes()[..cut]);
}

/// Reads the rest of the payload as UTF-8 text.
fn take_text(buf: &mut ByteReader<'_>, what: &'static str) -> Result<String, WireError> {
    std::str::from_utf8(buf.rest()).map(str::to_owned).map_err(|_| WireError::Corrupt(what))
}

/// The payload of a `Batch` frame — a `BatchBudget` when `budget_us` is
/// set — over borrowed edges.
fn put_batch(out: &mut Vec<u8>, budget_us: Option<u32>, edges: &[RawEdge]) {
    match budget_us {
        Some(budget_us) => {
            out.push(OP_BATCH_BUDGET);
            out.put_u32_le(budget_us);
        }
        None => out.push(OP_BATCH),
    }
    put_edges(out, edges);
}

/// The payload of a `Replicate` frame over borrowed edges.
fn put_replicate(out: &mut Vec<u8>, owner: u32, seq: u64, edges: &[RawEdge]) {
    out.push(OP_REPLICATE);
    out.put_u32_le(owner);
    out.put_u64_le(seq);
    put_edges(out, edges);
}

impl WireFrame {
    /// Serializes the frame, **including** its length prefix, ready to
    /// write to a socket.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// This frame, or an `Error` in its place when a region it carries is
    /// too large for one frame — how a shard server refuses
    /// such an extract instead of breaking framing.
    pub(crate) fn within_bounds(self) -> WireFrame {
        let fits = match &self {
            WireFrame::RegionReply(region) => {
                region.members.len() <= MAX_REGION_MEMBERS
                    && region.snapshot.encoded_len() <= MAX_SNAPSHOT_BYTES
            }
            _ => true,
        };
        if fits {
            return self;
        }
        WireFrame::Error { message: format!("{} exceeds frame bounds", self.kind()) }
    }

    /// Appends the serialized frame (length prefix included) to `out` —
    /// how the servers queue replies on a connection's output buffer.
    /// Panics if an edge run exceeds [`MAX_BATCH_EDGES`], a member list
    /// that must ship whole exceeds [`MAX_REGION_MEMBERS`] or a
    /// snapshot exceeds [`MAX_SNAPSHOT_BYTES`]; `Detection` members,
    /// `StatsReply` depths and text truncate instead.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        framed(out, |out| match self {
            WireFrame::Batch { edges } => put_batch(out, None, edges),
            WireFrame::BatchBudget { budget_us, edges } => put_batch(out, Some(*budget_us), edges),
            WireFrame::Flush => out.push(OP_FLUSH),
            WireFrame::Detect => out.push(OP_DETECT),
            WireFrame::Stats => out.push(OP_STATS),
            WireFrame::Shutdown => out.push(OP_SHUTDOWN),
            WireFrame::Metrics => out.push(OP_METRICS),
            WireFrame::Region { hops } => {
                out.push(OP_REGION);
                out.put_u32_le(*hops);
            }
            WireFrame::Replicate { owner, seq, edges } => put_replicate(out, *owner, *seq, edges),
            WireFrame::Bootstrap { owner, after } => {
                out.push(OP_BOOTSTRAP);
                out.put_u32_le(*owner);
                out.put_u64_le(*after);
            }
            WireFrame::Ack { accepted } => {
                out.push(OP_ACK);
                out.put_u64_le(*accepted);
            }
            WireFrame::Detection(det) => {
                out.push(OP_DETECTION);
                out.put_u64_le(det.size);
                out.put_f64_le(det.density);
                out.put_u64_le(det.updates_applied);
                // Keep the frame within MAX_FRAME_BYTES no matter how
                // large the community is: ship a truncated member list
                // (size above carries the true count).
                put_members(out, &det.members[..det.members.len().min(MAX_DETECTION_MEMBERS)]);
            }
            WireFrame::StatsReply(s) => {
                out.push(OP_STATS_REPLY);
                for v in [
                    s.shards,
                    s.updates_applied,
                    s.queue_depth,
                    s.connections,
                    s.frames,
                    s.edges_accepted,
                    s.busy_replies,
                    s.malformed_frames,
                ] {
                    out.put_u64_le(v);
                }
                out.put_f64_le(s.uptime_secs);
                let depths =
                    &s.shard_queue_depths[..s.shard_queue_depths.len().min(MAX_STATS_SHARDS)];
                out.put_u32_le(depths.len() as u32);
                for &d in depths {
                    out.put_u64_le(d);
                }
            }
            WireFrame::MetricsReply(m) => {
                out.push(OP_METRICS_REPLY);
                out.put_u32_le(m.version);
                put_text(out, &m.exposition, MAX_EXPOSITION_BYTES);
            }
            WireFrame::RegionReply(region) => {
                assert!(
                    region.members.len() <= MAX_REGION_MEMBERS,
                    "region member list exceeds the bound"
                );
                out.push(OP_REGION_REPLY);
                out.put_u64_le(region.size as u64);
                out.put_f64_le(region.density);
                out.put_u64_le(region.updates_applied);
                out.put_u64_le(region.epoch);
                put_members(out, &region.members);
                put_snapshot(out, &region.snapshot);
            }
            WireFrame::BootstrapChunk(chunk) => {
                out.push(OP_BOOTSTRAP_CHUNK);
                out.put_u32_le(chunk.owner);
                out.put_u64_le(chunk.through);
                out.push(u8::from(chunk.done));
                put_edges(out, &chunk.edges);
            }
            WireFrame::Error { message } => {
                out.push(OP_ERROR);
                put_text(out, message, MAX_ERROR_BYTES);
            }
        });
    }

    /// Decodes one payload (the bytes **after** the length prefix).
    /// Every failure is an error, never a panic: truncated sections,
    /// count/length mismatches, unknown opcodes, trailing garbage.
    pub fn decode_payload(payload: &[u8]) -> Result<WireFrame, WireError> {
        let mut buf = ByteReader::new(payload);
        let frame = match buf.u8()? {
            OP_BATCH => WireFrame::Batch { edges: take_edges(&mut buf, "truncated batch")? },
            OP_BATCH_BUDGET => WireFrame::BatchBudget {
                budget_us: buf.u32()?,
                edges: take_edges(&mut buf, "truncated budgeted batch")?,
            },
            OP_FLUSH => WireFrame::Flush,
            OP_DETECT => WireFrame::Detect,
            OP_STATS => WireFrame::Stats,
            OP_SHUTDOWN => WireFrame::Shutdown,
            OP_METRICS => WireFrame::Metrics,
            OP_ACK => WireFrame::Ack { accepted: buf.u64()? },
            OP_DETECTION => WireFrame::Detection(DetectionReply {
                size: buf.u64()?,
                density: buf.f64()?,
                updates_applied: buf.u64()?,
                members: take_members(&mut buf, MAX_DETECTION_MEMBERS, "bad member list")?,
            }),
            OP_STATS_REPLY => {
                let mut reply = StatsReply {
                    shards: buf.u64()?,
                    updates_applied: buf.u64()?,
                    queue_depth: buf.u64()?,
                    connections: buf.u64()?,
                    frames: buf.u64()?,
                    edges_accepted: buf.u64()?,
                    busy_replies: buf.u64()?,
                    malformed_frames: buf.u64()?,
                    uptime_secs: buf.f64()?,
                    shard_queue_depths: Vec::new(),
                };
                let count = take_count(&mut buf, MAX_STATS_SHARDS, 8, "bad queue-depth list")?;
                reply.shard_queue_depths =
                    (0..count).map(|_| buf.u64()).collect::<Result<_, _>>()?;
                WireFrame::StatsReply(reply)
            }
            OP_REGION => WireFrame::Region { hops: buf.u32()? },
            OP_REPLICATE => WireFrame::Replicate {
                owner: buf.u32()?,
                seq: buf.u64()?,
                edges: take_edges(&mut buf, "truncated replicate batch")?,
            },
            OP_BOOTSTRAP => WireFrame::Bootstrap { owner: buf.u32()?, after: buf.u64()? },
            OP_REGION_REPLY => WireFrame::RegionReply(CandidateRegion {
                size: buf.u64()? as usize,
                density: buf.f64()?,
                updates_applied: buf.u64()?,
                epoch: buf.u64()?,
                members: take_members(&mut buf, MAX_REGION_MEMBERS, "bad region member list")?
                    .into(),
                snapshot: take_snapshot(&mut buf, "bad region snapshot")?,
            }),
            OP_BOOTSTRAP_CHUNK => {
                let owner = buf.u32()?;
                let through = buf.u64()?;
                let done = match buf.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Corrupt("bootstrap done flag is not 0/1")),
                };
                let edges = take_edges(&mut buf, "truncated bootstrap chunk")?;
                WireFrame::BootstrapChunk(BootstrapChunk { owner, through, done, edges })
            }
            OP_METRICS_REPLY => WireFrame::MetricsReply(MetricsReply {
                version: buf.u32()?,
                exposition: take_text(&mut buf, "metrics exposition is not UTF-8")?,
            }),
            OP_ERROR => {
                WireFrame::Error { message: take_text(&mut buf, "error message is not UTF-8")? }
            }
            other => return Err(WireError::BadOpcode(other)),
        };
        if !buf.rest().is_empty() {
            return Err(WireError::Corrupt("trailing bytes after frame body"));
        }
        Ok(frame)
    }

    /// Splits an ingest frame into its edges and their detection-latency
    /// budget — `Batch` and `BatchBudget` are two encodings of one
    /// request, and this is the only place `budget_us == 0` is read as
    /// "no budget". Any other frame comes back unchanged.
    pub fn into_ingest(self) -> Result<(Vec<RawEdge>, Option<Duration>), WireFrame> {
        match self {
            WireFrame::Batch { edges } => Ok((edges, None)),
            WireFrame::BatchBudget { budget_us, edges } => {
                Ok((edges, (budget_us > 0).then(|| Duration::from_micros(u64::from(budget_us)))))
            }
            other => Err(other),
        }
    }

    /// `true` for the frames only a server sends; one arriving *at* a
    /// server is a protocol violation.
    pub fn is_reply(&self) -> bool {
        matches!(
            self,
            WireFrame::Ack { .. }
                | WireFrame::Detection(_)
                | WireFrame::StatsReply(_)
                | WireFrame::MetricsReply(_)
                | WireFrame::RegionReply(_)
                | WireFrame::BootstrapChunk(_)
                | WireFrame::Error { .. }
        )
    }

    /// The variant's name, for errors that must say which frame arrived
    /// without dumping its payload.
    pub fn kind(&self) -> &'static str {
        match self {
            WireFrame::Batch { .. } => "Batch",
            WireFrame::BatchBudget { .. } => "BatchBudget",
            WireFrame::Flush => "Flush",
            WireFrame::Detect => "Detect",
            WireFrame::Stats => "Stats",
            WireFrame::Shutdown => "Shutdown",
            WireFrame::Metrics => "Metrics",
            WireFrame::Region { .. } => "Region",
            WireFrame::Replicate { .. } => "Replicate",
            WireFrame::Bootstrap { .. } => "Bootstrap",
            WireFrame::Ack { .. } => "Ack",
            WireFrame::Detection(_) => "Detection",
            WireFrame::StatsReply(_) => "StatsReply",
            WireFrame::MetricsReply(_) => "MetricsReply",
            WireFrame::RegionReply(_) => "RegionReply",
            WireFrame::BootstrapChunk(_) => "BootstrapChunk",
            WireFrame::Error { .. } => "Error",
        }
    }
}

/// Incremental frame reassembly over a byte stream: feed whatever the
/// socket produced with [`extend`](Self::extend), pop complete frames
/// with [`next_frame`](Self::next_frame). Bytes are buffered across calls, so frames
/// may arrive split at ANY byte boundary (including inside the length
/// prefix) — the property tests feed one byte at a time.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix space before growing, so a long-lived
        // connection never accumulates dead bytes.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= (1 << 16)) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete frame, `Ok(None)` while the buffer holds
    /// only part of one. An oversized length prefix or a corrupt payload
    /// is an error; the offending frame's bytes are consumed, but a
    /// server should treat any error as fatal for the connection (framing
    /// can no longer be trusted).
    pub fn next_frame(&mut self) -> Result<Option<WireFrame>, WireError> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let mut head = [0u8; 4];
        head.copy_from_slice(&self.buf[self.start..self.start + 4]);
        let len = u32::from_le_bytes(head) as usize;
        if len > MAX_FRAME_BYTES {
            // Consume the prefix so a caller that (wrongly) continues
            // does not loop forever on the same bytes.
            self.start += 4;
            return Err(WireError::Oversized(len));
        }
        if self.buffered().saturating_sub(4) < len {
            return Ok(None);
        }
        let payload_at = self.start + 4;
        let frame = WireFrame::decode_payload(&self.buf[payload_at..payload_at + len]);
        self.start += 4 + len;
        frame.map(Some)
    }
}

/// Writes one frame (length prefix included) to `w`. The caller flushes
/// — the client deliberately leaves batches buffered to pipeline them.
pub fn write_frame<W: Write>(w: &mut W, frame: &WireFrame) -> std::io::Result<()> {
    w.write_all(&frame.encode())
}

/// Writes a `Batch` frame — a `BatchBudget` when `budget_us` is set —
/// over **borrowed** edges, byte-identical to [`WireFrame::encode`] of
/// the owning frame: a producer that holds the edges in a buffer of its
/// own (the client's staging buffer, the router's per-shard batch) ships
/// them without building, cloning or taking apart a [`WireFrame`]. Same chunking contract as [`WireFrame::encode_into`].
pub fn write_batch<W: Write>(
    w: &mut W,
    budget_us: Option<u32>,
    edges: &[RawEdge],
) -> std::io::Result<()> {
    let mut out = Vec::new();
    framed(&mut out, |out| put_batch(out, budget_us, edges));
    w.write_all(&out)
}

/// [`write_batch`]'s counterpart for a `Replicate` frame.
pub fn write_replicate<W: Write>(
    w: &mut W,
    owner: u32,
    seq: u64,
    edges: &[RawEdge],
) -> std::io::Result<()> {
    let mut out = Vec::new();
    framed(&mut out, |out| put_replicate(out, owner, seq, edges));
    w.write_all(&out)
}

/// Reads exactly one frame from `r` (blocking). Returns `Ok(None)` on a
/// clean EOF **at a frame boundary**; EOF mid-frame is an error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<WireFrame>, WireError> {
    let mut head = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut head[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(WireError::Corrupt("EOF inside a length prefix"));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(head) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|_| WireError::Corrupt("EOF inside a payload"))?;
    WireFrame::decode_payload(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// A small valid snapshot: three members, two edges.
    fn snapshot() -> SubgraphSnapshot {
        SubgraphSnapshot {
            vertices: vec![(v(1), 0.5), (v(2), 0.0), (v(7), 2.0)],
            edges: vec![(v(1), v(2), 3.0), (v(7), v(1), 4.5)],
        }
    }

    fn roundtrip(frame: WireFrame) {
        let bytes = frame.encode();
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(WireFrame::Batch { edges: vec![(v(1), v(2), 3.5)] });
        roundtrip(WireFrame::Batch { edges: vec![(v(0), v(1), 1.0), (v(9), v(7), 0.25)] });
        roundtrip(WireFrame::Batch { edges: Vec::new() });
        roundtrip(WireFrame::BatchBudget {
            budget_us: 5_000,
            edges: vec![(v(0), v(1), 1.0), (v(9), v(7), 0.25)],
        });
        roundtrip(WireFrame::BatchBudget { budget_us: 0, edges: Vec::new() });
        roundtrip(WireFrame::Flush);
        roundtrip(WireFrame::Detect);
        roundtrip(WireFrame::Stats);
        roundtrip(WireFrame::Shutdown);
        roundtrip(WireFrame::Metrics);
        roundtrip(WireFrame::Ack { accepted: u64::MAX });
        roundtrip(WireFrame::Detection(DetectionReply {
            size: 3,
            density: 41.25,
            updates_applied: 900,
            members: vec![v(5), v(6), v(7)],
        }));
        roundtrip(WireFrame::StatsReply(StatsReply {
            shards: 4,
            updates_applied: 10,
            queue_depth: 2,
            connections: 3,
            frames: 9,
            edges_accepted: 8,
            busy_replies: 1,
            malformed_frames: 0,
            uptime_secs: 12.75,
            shard_queue_depths: vec![2, 0, 0, 0],
        }));
        roundtrip(WireFrame::StatsReply(StatsReply::default()));
        roundtrip(WireFrame::MetricsReply(MetricsReply {
            version: METRICS_VERSION,
            exposition: "# TYPE spade_updates_total counter\nspade_updates_total 9\n".into(),
        }));
        roundtrip(WireFrame::Error { message: "queue déjà full".into() });
        // Protocol v3: shard-server operations.
        roundtrip(WireFrame::Region { hops: 2 });
        roundtrip(WireFrame::Replicate {
            owner: 1,
            seq: 42,
            edges: vec![(v(0), v(1), 1.0), (v(2), v(3), 0.5)],
        });
        roundtrip(WireFrame::Replicate { owner: 0, seq: 0, edges: Vec::new() });
        roundtrip(WireFrame::Bootstrap { owner: 2, after: 17 });
        roundtrip(WireFrame::RegionReply(CandidateRegion {
            size: 3,
            density: 12.5,
            updates_applied: 99,
            epoch: 4,
            members: vec![v(10), v(11), v(12)].into(),
            snapshot: snapshot(),
        }));
        roundtrip(WireFrame::RegionReply(CandidateRegion::default()));
        roundtrip(WireFrame::BootstrapChunk(BootstrapChunk {
            owner: 1,
            through: 9,
            done: true,
            edges: vec![(v(5), v(6), 2.25)],
        }));
        roundtrip(WireFrame::BootstrapChunk(BootstrapChunk {
            owner: 0,
            through: 0,
            done: false,
            edges: Vec::new(),
        }));
    }

    #[test]
    fn v3_truncated_and_garbage_payloads_error_not_panic() {
        // Replicate batch crafted to overflow count * 16.
        let mut wrap = vec![OP_REPLICATE];
        wrap.extend_from_slice(&0u32.to_le_bytes()); // owner
        wrap.extend_from_slice(&0u64.to_le_bytes()); // seq
        wrap.extend_from_slice(&u32::MAX.to_le_bytes()); // count
        assert!(matches!(WireFrame::decode_payload(&wrap), Err(WireError::Corrupt(_))));

        // A bootstrap chunk with a done flag outside {0, 1}.
        let mut flag = vec![OP_BOOTSTRAP_CHUNK];
        flag.extend_from_slice(&0u32.to_le_bytes()); // owner
        flag.extend_from_slice(&0u64.to_le_bytes()); // through
        flag.push(7); // bogus done flag
        flag.extend_from_slice(&0u32.to_le_bytes()); // count
        assert!(matches!(WireFrame::decode_payload(&flag), Err(WireError::Corrupt(_))));

        // Region reply with a member section that stops short.
        let mut region = vec![OP_REGION_REPLY];
        region.extend_from_slice(&[0u8; 32]); // size/density/updates/epoch
        region.extend_from_slice(&5u32.to_le_bytes()); // five members claimed
        region.extend_from_slice(&[0u8; 8]); // room for two
        assert!(matches!(WireFrame::decode_payload(&region), Err(WireError::Corrupt(_))));
        // A member count above the frame-level bound.
        let mut over = vec![OP_REGION_REPLY];
        over.extend_from_slice(&[0u8; 32]);
        over.extend_from_slice(&(MAX_REGION_MEMBERS as u32 + 1).to_le_bytes());
        assert!(matches!(WireFrame::decode_payload(&over), Err(WireError::Corrupt(_))));
        // A snapshot section that claims 64 bytes and has none.
        let mut short = vec![OP_REGION_REPLY];
        short.extend_from_slice(&[0u8; 32]);
        short.extend_from_slice(&0u32.to_le_bytes()); // no members
        short.extend_from_slice(&64u32.to_le_bytes());
        assert!(matches!(WireFrame::decode_payload(&short), Err(WireError::Corrupt(_))));

        // Trailing garbage after well-formed v3 bodies.
        for frame in [
            WireFrame::Region { hops: 1 },
            WireFrame::Bootstrap { owner: 0, after: 3 },
            WireFrame::RegionReply(CandidateRegion::default()),
        ] {
            let mut trailing = frame.encode()[4..].to_vec();
            trailing.push(0);
            assert!(matches!(WireFrame::decode_payload(&trailing), Err(WireError::Corrupt(_))));
        }
    }

    /// A region ships a member list and a snapshot slice of the
    /// subgraph; either one past its bound turns the reply into `Error`.
    #[test]
    fn regions_and_slices_too_large_for_a_frame_become_errors() {
        let edges = vec![(v(0), v(1), 1.0); MAX_SNAPSHOT_BYTES / 16];
        let huge = SubgraphSnapshot { vertices: Vec::new(), edges };
        assert!(huge.encoded_len() > MAX_SNAPSHOT_BYTES);
        let many: Vec<VertexId> = (0..=MAX_REGION_MEMBERS as u32).map(v).collect();
        for frame in [
            WireFrame::RegionReply(CandidateRegion { snapshot: huge, ..Default::default() }),
            WireFrame::RegionReply(CandidateRegion { members: many.into(), ..Default::default() }),
        ] {
            let kind = frame.kind();
            let WireFrame::Error { message } = frame.within_bounds() else {
                panic!("an oversized {kind} must be refused");
            };
            assert_eq!(message, format!("{kind} exceeds frame bounds"));
        }
        let fits =
            WireFrame::RegionReply(CandidateRegion { snapshot: snapshot(), ..Default::default() });
        assert_eq!(fits.clone().within_bounds(), fits);
    }

    #[test]
    fn split_delivery_reassembles() {
        let frames =
            [WireFrame::Batch { edges: vec![(v(1), v(2), 9.0)] }, WireFrame::Ack { accepted: 1 }];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in bytes {
            dec.extend(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.as_slice(), frames.as_slice());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(u32::MAX).to_le_bytes());
        assert!(matches!(dec.next_frame(), Err(WireError::Oversized(_))));
    }

    #[test]
    fn truncated_and_garbage_payloads_error_not_panic() {
        // A batch claiming more edges than the payload holds.
        let mut payload = vec![OP_BATCH];
        payload.extend_from_slice(&1000u32.to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]); // room for exactly one
        assert!(matches!(WireFrame::decode_payload(&payload), Err(WireError::Corrupt(_))));

        // A batch count crafted to overflow count * 16.
        let mut wrap = vec![OP_BATCH];
        wrap.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(WireFrame::decode_payload(&wrap), Err(WireError::Corrupt(_))));

        // The same two attacks through the budgeted-batch opcode.
        let mut payload = vec![OP_BATCH_BUDGET];
        payload.extend_from_slice(&200u32.to_le_bytes()); // budget_us
        payload.extend_from_slice(&1000u32.to_le_bytes()); // count
        payload.extend_from_slice(&[0u8; 16]); // room for exactly one
        assert!(matches!(WireFrame::decode_payload(&payload), Err(WireError::Corrupt(_))));
        let mut wrap = vec![OP_BATCH_BUDGET];
        wrap.extend_from_slice(&200u32.to_le_bytes());
        wrap.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(WireFrame::decode_payload(&wrap), Err(WireError::Corrupt(_))));
        // A budgeted batch with trailing garbage after the edge section.
        let mut trailing_batch =
            WireFrame::BatchBudget { budget_us: 7, edges: vec![(v(1), v(2), 3.0)] }.encode()[4..]
                .to_vec();
        trailing_batch.push(0);
        assert!(matches!(WireFrame::decode_payload(&trailing_batch), Err(WireError::Corrupt(_))));

        assert!(matches!(WireFrame::decode_payload(&[]), Err(WireError::Corrupt(_))));
        // Unknown and retired opcodes alike: 0x01 (`Edge`, v4), 0x82
        // (`Busy`, v5), 0x0A / 0x0B / 0x88 / 0x89 (the migration frames, v6).
        for op in [0x7f, 0x01, 0x82, 0x0A, 0x0B, 0x88, 0x89] {
            let decoded = WireFrame::decode_payload(&[op, 0, 0, 0, 0]);
            assert!(matches!(decoded, Err(WireError::BadOpcode(got)) if got == op), "0x{op:02x}");
        }
        // Trailing bytes after a fixed-size body.
        let mut trailing = WireFrame::Flush.encode()[4..].to_vec();
        trailing.push(0);
        assert!(matches!(WireFrame::decode_payload(&trailing), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn read_frame_distinguishes_clean_eof_from_truncation() {
        let bytes = WireFrame::Detect.encode();
        let mut cursor = &bytes[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(WireFrame::Detect));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF at a boundary");
        let mut cut = &bytes[..3];
        assert!(matches!(read_frame(&mut cut), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn oversized_detection_replies_truncate_instead_of_breaking_framing() {
        // A "community" larger than the frame bound (the benign giant
        // component, in practice): the member list truncates on the wire
        // while size keeps the true count, and the frame stays decodable.
        let huge = WireFrame::Detection(DetectionReply {
            size: (MAX_DETECTION_MEMBERS + 1000) as u64,
            density: 1.5,
            updates_applied: 9,
            members: (0..(MAX_DETECTION_MEMBERS + 1000) as u32).map(v).collect(),
        });
        let bytes = huge.encode();
        assert!(bytes.len() <= 4 + MAX_FRAME_BYTES);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let Some(WireFrame::Detection(det)) = dec.next_frame().unwrap() else {
            panic!("expected a detection frame");
        };
        assert_eq!(det.members.len(), MAX_DETECTION_MEMBERS);
        assert_eq!(det.size, (MAX_DETECTION_MEMBERS + 1000) as u64, "true size survives");
    }

    #[test]
    fn oversized_expositions_truncate_on_char_boundaries() {
        // A rendering beyond the frame budget (multi-byte chars placed to
        // straddle the cut) truncates on the wire without breaking
        // framing or UTF-8.
        let huge = "λ".repeat(MAX_EXPOSITION_BYTES); // 2 bytes per char
        let bytes =
            WireFrame::MetricsReply(MetricsReply { version: METRICS_VERSION, exposition: huge })
                .encode();
        assert!(bytes.len() <= 4 + MAX_FRAME_BYTES);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let Some(WireFrame::MetricsReply(m)) = dec.next_frame().unwrap() else {
            panic!("expected a metrics reply");
        };
        assert_eq!(m.version, METRICS_VERSION);
        assert!(m.exposition.len() <= MAX_EXPOSITION_BYTES);
        assert!(m.exposition.chars().all(|c| c == 'λ'));
    }

    #[test]
    fn stats_reply_queue_depth_lists_are_overflow_checked() {
        // A depth count claiming more entries than the payload holds.
        let mut payload = WireFrame::StatsReply(StatsReply::default()).encode()[4..].to_vec();
        let at = payload.len() - 4;
        payload[at..].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(WireFrame::decode_payload(&payload), Err(WireError::Corrupt(_))));
        // A count crafted to overflow count * 8.
        payload[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(WireFrame::decode_payload(&payload), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn error_messages_truncate_on_char_boundaries() {
        let long = "é".repeat(MAX_ERROR_BYTES); // 2 bytes per char
        let bytes = WireFrame::Error { message: long }.encode();
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let Some(WireFrame::Error { message }) = dec.next_frame().unwrap() else {
            panic!("expected an error frame");
        };
        assert!(message.len() <= MAX_ERROR_BYTES);
        assert!(message.chars().all(|c| c == 'é'));
    }
}
