//! The length-prefixed binary wire protocol.
//!
//! A frame is `u32 payload_len` followed by `payload_len` payload bytes;
//! the payload is a one-byte opcode plus a fixed layout per frame kind,
//! encoded through the same [`bytes`] primitives as the
//! `spade_core::persist` snapshot codec. Decoding is defensive
//! throughout: every section length is overflow-checked against the
//! remaining buffer before a single record is read, unknown opcodes and
//! trailing bytes are errors, and an oversized length prefix is rejected
//! before any allocation — a malicious or corrupt producer can terminate
//! its own connection, never the server.

use bytes::{Buf, BufMut, Bytes};
use spade_core::service::{AbsorbReceipt, CandidateRegion, MigrationSlice};
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
/// runtime — `Region`, `MigrateOut`, `Absorb`, `Replicate`, `Bootstrap`
/// and their replies — so a router needs v3 shard servers. Version 4
/// retired the single-`Edge` request: opcode `0x01` stays reserved and
/// is answered with `BadOpcode`; one transaction travels as a one-edge
/// `Batch`. Version 5 retired the `Busy` reply the same way (opcode
/// `0x82` reserved): a full shard queue parks the connection until the
/// whole frame is enqueued, so every ingest frame is answered by one
/// `Ack` for all of it and back-pressure is TCP flow control.
pub const PROTOCOL_VERSION: u32 = 5;

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

/// Largest `SubgraphSnapshot` byte blob one region/slice frame carries:
/// the fixed headers of every snapshot-bearing frame fit well inside 64
/// bytes, so producers that keep their encoded snapshot under this bound
/// are guaranteed an encodable frame. Larger extracts must fail the
/// operation gracefully (the shard server answers `Error`), never break
/// framing.
pub const MAX_SNAPSHOT_BYTES: usize = MAX_FRAME_BYTES - 64;

/// Most member ids a `MigrateOut` request (or a `RegionReply` member
/// list) ships within [`MAX_FRAME_BYTES`]. Component migration beyond
/// this bound is refused at encode time — a >260k-vertex "component" is
/// the benign giant component, not a movable fraud ring.
pub const MAX_MIGRATE_MEMBERS: usize = (MAX_FRAME_BYTES - 64) / 4;

// 0x01 was the single-`Edge` request (retired in v4; never reuse it).
const OP_BATCH: u8 = 0x02;
const OP_FLUSH: u8 = 0x03;
const OP_DETECT: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const OP_METRICS: u8 = 0x07;
const OP_BATCH_BUDGET: u8 = 0x08;
const OP_REGION: u8 = 0x09;
const OP_MIGRATE_OUT: u8 = 0x0A;
const OP_ABSORB: u8 = 0x0B;
const OP_REPLICATE: u8 = 0x0C;
const OP_BOOTSTRAP: u8 = 0x0D;
const OP_ACK: u8 = 0x81;
// 0x82 was the `Busy` reply (retired in v5; never reuse it).
const OP_DETECTION: u8 = 0x83;
const OP_STATS_REPLY: u8 = 0x84;
const OP_ERROR: u8 = 0x85;
const OP_METRICS_REPLY: u8 = 0x86;
const OP_REGION_REPLY: u8 = 0x87;
const OP_SLICE_REPLY: u8 = 0x88;
const OP_ABSORB_REPLY: u8 = 0x89;
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
    /// Ingest commands applied across all shards.
    pub updates_applied: u64,
    /// Commands currently waiting in shard queues.
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
    /// Commands waiting in each shard's queue, indexed by shard — the
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
    /// Ask for the merged global detection.
    Detect,
    /// Ask for runtime + transport statistics.
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
    /// Ask a shard server to extract **and evict** the induced slice
    /// over `members` (the source half of a cross-process migration).
    /// Protocol v3.
    MigrateOut {
        /// Global vertex ids of the component to move.
        members: Vec<VertexId>,
    },
    /// Replay a migrated slice into a shard server's engine (the target
    /// half of a cross-process migration). Protocol v3.
    Absorb {
        /// The slice in flight.
        slice: MigrationSlice,
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
    /// refuses lists beyond [`MAX_MIGRATE_MEMBERS`]; `size` is a `u64`.
    RegionReply(CandidateRegion),
    /// An extracted (and evicted) migration slice — what `Absorb` replays
    /// at the target shard. Counts travel as `u64`.
    SliceReply(MigrationSlice),
    /// The receipt of a replayed migration slice (counts as `u64`).
    AbsorbReply(AbsorbReceipt),
    /// One chunk of a standby journal replay.
    BootstrapChunk(BootstrapChunk),
    /// The request failed; the connection closes after this frame.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

fn need(buf: &Bytes, n: usize, what: &'static str) -> Result<(), WireError> {
    if buf.remaining() < n {
        return Err(WireError::Corrupt(what));
    }
    Ok(())
}

/// Reads a `u32` record count and checks it before a single record is
/// read: at most `max` records, and `count` records of `width` bytes
/// must fit in the remaining payload (overflow-safe — a crafted 32-bit
/// count must fail decoding, not wrap the multiplication).
fn take_count(
    buf: &mut Bytes,
    max: usize,
    width: usize,
    what: &'static str,
) -> Result<usize, WireError> {
    need(buf, 4, what)?;
    let count = buf.get_u32_le() as usize;
    match count.checked_mul(width) {
        Some(bytes) if count <= max && buf.remaining() >= bytes => Ok(count),
        _ => Err(WireError::Corrupt(what)),
    }
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
fn take_edges(buf: &mut Bytes, what: &'static str) -> Result<Vec<RawEdge>, WireError> {
    let count = take_count(buf, MAX_BATCH_EDGES, 16, what)?;
    Ok((0..count)
        .map(|_| (VertexId(buf.get_u32_le()), VertexId(buf.get_u32_le()), buf.get_f64_le()))
        .collect())
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
    buf: &mut Bytes,
    max: usize,
    what: &'static str,
) -> Result<Vec<VertexId>, WireError> {
    let count = take_count(buf, max, 4, what)?;
    Ok((0..count).map(|_| VertexId(buf.get_u32_le())).collect())
}

/// Writes a length-prefixed `SubgraphSnapshot` blob. Panics beyond
/// [`MAX_SNAPSHOT_BYTES`] — producers split migrations below the bound.
fn put_snapshot(out: &mut Vec<u8>, encoded: &[u8]) {
    assert!(encoded.len() <= MAX_SNAPSHOT_BYTES, "snapshot too large");
    out.put_u32_le(encoded.len() as u32);
    out.put_slice(encoded);
}

/// Reads a snapshot blob, the inverse of [`put_snapshot`].
fn take_snapshot(buf: &mut Bytes, what: &'static str) -> Result<Vec<u8>, WireError> {
    let len = take_count(buf, MAX_SNAPSHOT_BYTES, 1, what)?;
    Ok(buf.take_bytes(len).to_vec())
}

/// Appends `text` cut to at most `max` bytes, never splitting a UTF-8
/// sequence at the truncation point.
fn put_text(out: &mut Vec<u8>, text: &str, max: usize) {
    let cut = (0..=text.len().min(max)).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
    out.put_slice(&text.as_bytes()[..cut]);
}

/// Reads the rest of the payload as UTF-8 text.
fn take_text(buf: &mut Bytes, what: &'static str) -> Result<String, WireError> {
    let raw = buf.take_bytes(buf.remaining()).to_vec();
    String::from_utf8(raw).map_err(|_| WireError::Corrupt(what))
}

/// Encodes a [`MigrationSlice`] body (shared by `Absorb` and
/// `SliceReply`, which carry the same payload after the opcode).
fn put_slice_body(out: &mut Vec<u8>, slice: &MigrationSlice) {
    out.put_u64_le(slice.vertices as u64);
    out.put_u64_le(slice.edges as u64);
    out.put_f64_le(slice.edge_weight);
    out.put_u64_le(slice.updates_applied);
    put_snapshot(out, &slice.encoded);
}

/// Decodes a [`MigrationSlice`] body, the inverse of [`put_slice_body`].
fn take_slice_body(buf: &mut Bytes) -> Result<MigrationSlice, WireError> {
    need(buf, 32, "truncated slice header")?;
    Ok(MigrationSlice {
        vertices: buf.get_u64_le() as usize,
        edges: buf.get_u64_le() as usize,
        edge_weight: buf.get_f64_le(),
        updates_applied: buf.get_u64_le(),
        encoded: take_snapshot(buf, "bad slice snapshot")?,
    })
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

    /// Appends the serialized frame (length prefix included) to `out` —
    /// how the servers queue replies on a connection's output buffer.
    /// Panics if an edge run exceeds [`MAX_BATCH_EDGES`], a member list
    /// that must ship whole exceeds [`MAX_MIGRATE_MEMBERS`] or a
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
            WireFrame::MigrateOut { members } => {
                assert!(members.len() <= MAX_MIGRATE_MEMBERS, "member list exceeds the bound");
                out.push(OP_MIGRATE_OUT);
                put_members(out, members);
            }
            WireFrame::Absorb { slice } => {
                out.push(OP_ABSORB);
                put_slice_body(out, slice);
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
                    region.members.len() <= MAX_MIGRATE_MEMBERS,
                    "region member list exceeds the bound"
                );
                out.push(OP_REGION_REPLY);
                out.put_u64_le(region.size as u64);
                out.put_f64_le(region.density);
                out.put_u64_le(region.updates_applied);
                out.put_u64_le(region.epoch);
                put_members(out, &region.members);
                put_snapshot(out, &region.encoded);
            }
            WireFrame::SliceReply(slice) => {
                out.push(OP_SLICE_REPLY);
                put_slice_body(out, slice);
            }
            WireFrame::AbsorbReply(receipt) => {
                out.push(OP_ABSORB_REPLY);
                out.put_u64_le(receipt.vertices_touched as u64);
                out.put_u64_le(receipt.edges_applied as u64);
                out.put_u64_le(receipt.rejected);
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
        let mut buf = Bytes::from(payload);
        need(&buf, 1, "empty payload")?;
        let opcode = buf.take_bytes(1)[0];
        let frame = match opcode {
            OP_BATCH => WireFrame::Batch { edges: take_edges(&mut buf, "truncated batch")? },
            OP_BATCH_BUDGET => {
                need(&buf, 4, "truncated budgeted-batch header")?;
                let budget_us = buf.get_u32_le();
                WireFrame::BatchBudget {
                    budget_us,
                    edges: take_edges(&mut buf, "truncated budgeted batch")?,
                }
            }
            OP_FLUSH => WireFrame::Flush,
            OP_DETECT => WireFrame::Detect,
            OP_STATS => WireFrame::Stats,
            OP_SHUTDOWN => WireFrame::Shutdown,
            OP_METRICS => WireFrame::Metrics,
            OP_ACK => {
                need(&buf, 8, "truncated ack")?;
                WireFrame::Ack { accepted: buf.get_u64_le() }
            }
            OP_DETECTION => {
                need(&buf, 24, "truncated detection header")?;
                WireFrame::Detection(DetectionReply {
                    size: buf.get_u64_le(),
                    density: buf.get_f64_le(),
                    updates_applied: buf.get_u64_le(),
                    members: take_members(&mut buf, MAX_DETECTION_MEMBERS, "bad member list")?,
                })
            }
            OP_STATS_REPLY => {
                need(&buf, 72, "truncated stats reply")?;
                let mut reply = StatsReply {
                    shards: buf.get_u64_le(),
                    updates_applied: buf.get_u64_le(),
                    queue_depth: buf.get_u64_le(),
                    connections: buf.get_u64_le(),
                    frames: buf.get_u64_le(),
                    edges_accepted: buf.get_u64_le(),
                    busy_replies: buf.get_u64_le(),
                    malformed_frames: buf.get_u64_le(),
                    uptime_secs: buf.get_f64_le(),
                    shard_queue_depths: Vec::new(),
                };
                let count = take_count(&mut buf, MAX_STATS_SHARDS, 8, "bad queue-depth list")?;
                reply.shard_queue_depths = (0..count).map(|_| buf.get_u64_le()).collect();
                WireFrame::StatsReply(reply)
            }
            OP_REGION => {
                need(&buf, 4, "truncated region request")?;
                WireFrame::Region { hops: buf.get_u32_le() }
            }
            OP_MIGRATE_OUT => WireFrame::MigrateOut {
                members: take_members(
                    &mut buf,
                    MAX_MIGRATE_MEMBERS,
                    "bad migrate-out member list",
                )?,
            },
            OP_ABSORB => WireFrame::Absorb { slice: take_slice_body(&mut buf)? },
            OP_REPLICATE => {
                need(&buf, 12, "truncated replicate header")?;
                WireFrame::Replicate {
                    owner: buf.get_u32_le(),
                    seq: buf.get_u64_le(),
                    edges: take_edges(&mut buf, "truncated replicate batch")?,
                }
            }
            OP_BOOTSTRAP => {
                need(&buf, 12, "truncated bootstrap request")?;
                WireFrame::Bootstrap { owner: buf.get_u32_le(), after: buf.get_u64_le() }
            }
            OP_REGION_REPLY => {
                need(&buf, 32, "truncated region reply header")?;
                WireFrame::RegionReply(CandidateRegion {
                    size: buf.get_u64_le() as usize,
                    density: buf.get_f64_le(),
                    updates_applied: buf.get_u64_le(),
                    epoch: buf.get_u64_le(),
                    members: take_members(&mut buf, MAX_MIGRATE_MEMBERS, "bad region member list")?
                        .into(),
                    encoded: take_snapshot(&mut buf, "bad region snapshot")?,
                })
            }
            OP_SLICE_REPLY => WireFrame::SliceReply(take_slice_body(&mut buf)?),
            OP_ABSORB_REPLY => {
                need(&buf, 24, "truncated absorb reply")?;
                WireFrame::AbsorbReply(AbsorbReceipt {
                    vertices_touched: buf.get_u64_le() as usize,
                    edges_applied: buf.get_u64_le() as usize,
                    rejected: buf.get_u64_le(),
                })
            }
            OP_BOOTSTRAP_CHUNK => {
                need(&buf, 13, "truncated bootstrap chunk header")?;
                let owner = buf.get_u32_le();
                let through = buf.get_u64_le();
                let done = match buf.take_bytes(1)[0] {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Corrupt("bootstrap done flag is not 0/1")),
                };
                let edges = take_edges(&mut buf, "truncated bootstrap chunk")?;
                WireFrame::BootstrapChunk(BootstrapChunk { owner, through, done, edges })
            }
            OP_METRICS_REPLY => {
                need(&buf, 4, "truncated metrics reply")?;
                WireFrame::MetricsReply(MetricsReply {
                    version: buf.get_u32_le(),
                    exposition: take_text(&mut buf, "metrics exposition is not UTF-8")?,
                })
            }
            OP_ERROR => {
                WireFrame::Error { message: take_text(&mut buf, "error message is not UTF-8")? }
            }
            other => return Err(WireError::BadOpcode(other)),
        };
        if buf.remaining() != 0 {
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
                | WireFrame::SliceReply(_)
                | WireFrame::AbsorbReply(_)
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
            WireFrame::MigrateOut { .. } => "MigrateOut",
            WireFrame::Absorb { .. } => "Absorb",
            WireFrame::Replicate { .. } => "Replicate",
            WireFrame::Bootstrap { .. } => "Bootstrap",
            WireFrame::Ack { .. } => "Ack",
            WireFrame::Detection(_) => "Detection",
            WireFrame::StatsReply(_) => "StatsReply",
            WireFrame::MetricsReply(_) => "MetricsReply",
            WireFrame::RegionReply(_) => "RegionReply",
            WireFrame::SliceReply(_) => "SliceReply",
            WireFrame::AbsorbReply(_) => "AbsorbReply",
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
        roundtrip(WireFrame::MigrateOut { members: vec![v(3), v(1), v(4)] });
        roundtrip(WireFrame::MigrateOut { members: Vec::new() });
        roundtrip(WireFrame::Absorb {
            slice: MigrationSlice {
                vertices: 3,
                edges: 2,
                edge_weight: 7.5,
                updates_applied: 41,
                encoded: vec![9, 8, 7, 6],
            },
        });
        roundtrip(WireFrame::Absorb { slice: MigrationSlice::default() });
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
            encoded: vec![1, 2, 3],
        }));
        roundtrip(WireFrame::RegionReply(CandidateRegion::default()));
        roundtrip(WireFrame::SliceReply(MigrationSlice {
            vertices: 1,
            edges: 1,
            edge_weight: 2.0,
            updates_applied: 5,
            encoded: vec![0xAB],
        }));
        roundtrip(WireFrame::AbsorbReply(AbsorbReceipt {
            vertices_touched: 4,
            edges_applied: 6,
            rejected: 1,
        }));
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
        // Migrate-out claiming more members than the payload holds.
        let mut payload = vec![OP_MIGRATE_OUT];
        payload.extend_from_slice(&1000u32.to_le_bytes());
        payload.extend_from_slice(&[0u8; 4]);
        assert!(matches!(WireFrame::decode_payload(&payload), Err(WireError::Corrupt(_))));
        // A member count above the frame-level bound.
        let mut over = vec![OP_MIGRATE_OUT];
        over.extend_from_slice(&(MAX_MIGRATE_MEMBERS as u32 + 1).to_le_bytes());
        assert!(matches!(WireFrame::decode_payload(&over), Err(WireError::Corrupt(_))));

        // A slice whose snapshot length exceeds both the payload and the bound.
        let mut slice = vec![OP_ABSORB];
        slice.extend_from_slice(&[0u8; 32]); // vertices/edges/weight/updates
        slice.extend_from_slice(&(MAX_SNAPSHOT_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(WireFrame::decode_payload(&slice), Err(WireError::Corrupt(_))));
        let mut short = vec![OP_SLICE_REPLY];
        short.extend_from_slice(&[0u8; 32]);
        short.extend_from_slice(&64u32.to_le_bytes()); // claims 64 bytes, has none
        assert!(matches!(WireFrame::decode_payload(&short), Err(WireError::Corrupt(_))));

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

        // Trailing garbage after well-formed v3 bodies.
        for frame in [
            WireFrame::Region { hops: 1 },
            WireFrame::Bootstrap { owner: 0, after: 3 },
            WireFrame::AbsorbReply(AbsorbReceipt::default()),
            WireFrame::SliceReply(MigrationSlice::default()),
        ] {
            let mut trailing = frame.encode()[4..].to_vec();
            trailing.push(0);
            assert!(matches!(WireFrame::decode_payload(&trailing), Err(WireError::Corrupt(_))));
        }
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
        assert!(matches!(WireFrame::decode_payload(&[0x7f]), Err(WireError::BadOpcode(0x7f))));
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
