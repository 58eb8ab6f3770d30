//! The readiness-based event loop every frame server in this crate runs
//! on.
//!
//! A small fixed pool of event-loop workers, each multiplexing many
//! nonblocking sockets over `poll(2)`, owns everything a connection needs
//! — accept, read, framing, malformed-frame accounting, reply buffering,
//! parking, close — and hands each decoded frame to a `FrameHandler`.
//! The sharded front end ([`crate::server`]) and the shard server
//! ([`crate::shard_server`]) are the two handlers: they differ in what a
//! frame *means*, never in how a connection is served. The syscall is
//! reached through a direct `extern "C"` binding — the vendored-shim
//! policy holds: no new external crates, no libc dependency, just the one
//! POSIX entry point the loop needs.
//!
//! Shape of the loop (one per worker thread):
//!
//! * **Worker 0 owns the listener.** Accepted sockets are handed out
//!   round-robin across the pool through per-worker inboxes; a
//!   `UnixStream` wake pipe per worker interrupts its `poll` so adoption
//!   is prompt.
//! * **Fairness is budgeted.** Each readiness cycle visits connections
//!   in a rotating order and applies at most
//!   [`ReactorConfig::frame_budget`] frames per connection before moving
//!   on, so a firehose producer with a deep kernel receive buffer cannot
//!   monopolize the cycle; leftover buffered frames keep the loop hot
//!   (zero poll timeout) and are drained next cycle. Exhaustions are
//!   counted (`spade_net_reactor_budget_exhausted_total`).
//! * **Writes never block the loop.** Replies land in a per-connection
//!   pending-write buffer flushed only while the socket accepts bytes;
//!   a slow reader accumulates backlog until `MAX_PENDING_WRITE`, at
//!   which point the loop stops *reading* from that connection
//!   (back-pressure through the kernel window) but keeps every other
//!   connection moving.
//! * **Nothing on the loop blocks on the runtime.** A handler enqueues
//!   without waiting, and every wait a request can need — queue room for
//!   an ingest frame, the applied watermark of a read-your-acks `Detect`,
//!   a shard worker's answer to a `Region` — shares one mechanism: the
//!   handler returns `FrameStep::Park`, the connection *parks* on the
//!   request (reads paused, replies in order preserved) and the loop
//!   retries it once per cycle, at most `PARKED_POLL_MS` apart and never
//!   on a zero-timeout spin. A parked producer is slowed by TCP flow
//!   control, not by a reply.
//!
//! Per-loop observability rides the transport's existing
//! [`spade_metrics::MetricsRegistry`]: connections resident
//! (`spade_net_reactor_connections_resident`), readiness wakeups
//! (`spade_net_reactor_wakeups_total`), drain-budget exhaustions, and a
//! per-cycle dispatch latency histogram
//! (`spade_net_reactor_dispatch_ns`).

use crate::server::{register_conn, ConnCounters, NetTelemetry};
use crate::wire::{FrameDecoder, WireFrame};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll timeout while every connection is idle — bounds how long a stop
/// request can go unnoticed without a wake byte.
const IDLE_POLL_MS: i32 = 50;
/// Poll timeout while some connection is parked: how long its request
/// can wait for the next retry when no socket turns ready first.
const PARKED_POLL_MS: i32 = 1;
/// Bytes read per connection per cycle (one `read` call each).
const READ_CHUNK: usize = 64 * 1024;
/// Pending-write backlog (bytes) at which the loop stops reading from a
/// connection until its peer drains replies — a slow reader
/// back-pressures itself, never the loop.
const MAX_PENDING_WRITE: usize = 256 * 1024;

// ---------------------------------------------------------------------
// poll(2), bound directly. `pollfd` layout and event bits are POSIX.
// ---------------------------------------------------------------------

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: core::ffi::c_ulong,
        timeout: core::ffi::c_int,
    ) -> core::ffi::c_int;
}

/// `poll(2)` over `fds`, retrying on `EINTR`. Returns the number of fds
/// with events.
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice for the
        // whole call; PollFd is #[repr(C)] and matches the libc layout,
        // and nfds is exactly the slice length.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as core::ffi::c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Blocks up to `timeout` for `fd` to become readable (the HTTP
/// exporter's accept wait).
pub(crate) fn wait_readable(fd: RawFd, timeout: Duration) -> std::io::Result<bool> {
    let mut fds = [PollFd { fd, events: POLLIN, revents: 0 }];
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    Ok(poll_fds(&mut fds, ms)? > 0 && fds[0].revents != 0)
}

// ---------------------------------------------------------------------
// The handler seam.
// ---------------------------------------------------------------------

/// What the event loop must do after a handler applied one frame.
pub(crate) enum FrameStep<P> {
    /// Keep the connection; replies (if any) are in the out buffer.
    Continue,
    /// The reply ends the connection — close once the out buffer drains.
    Close,
    /// The request cannot be answered yet: hold it on the connection and
    /// [`retry`](FrameHandler::retry) it every cycle. Until it answers,
    /// the connection is neither read nor served further, so replies stay
    /// in request order.
    Park(P),
}

/// What a tier does with a decoded frame. Both methods run on the event
/// loop, so neither may block on the runtime: a request that has to wait
/// says so with [`FrameStep::Park`], naming what it waits for in the
/// handler's own `Parked` type. Replies are appended to `out` and flushed
/// by the loop, never by the handler.
pub(crate) trait FrameHandler: Send + Sync + 'static {
    /// The one request a connection of this tier can be waiting on.
    type Parked;

    /// Applies one decoded request from the connection counted in `conn`.
    fn apply(
        &self,
        frame: WireFrame,
        conn: &ConnCounters,
        out: &mut Vec<u8>,
    ) -> FrameStep<Self::Parked>;

    /// The once-per-cycle re-check of a parked request: answers into
    /// `out`, or parks again.
    fn retry(&self, parked: Self::Parked, out: &mut Vec<u8>) -> FrameStep<Self::Parked>;
}

// ---------------------------------------------------------------------
// Configuration and pool scaffolding.
// ---------------------------------------------------------------------

/// Tuning knobs of the reactor worker pool (`serve --listen
/// --net-workers N` surfaces `workers`).
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Event-loop worker threads; connections are assigned round-robin.
    pub workers: usize,
    /// Frames decoded and applied per connection per readiness cycle —
    /// the fan-in fairness knob. Leftovers stay buffered and the loop
    /// re-runs immediately, so the budget bounds burst monopoly, not
    /// throughput.
    pub frame_budget: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { workers: 2, frame_budget: 32 }
    }
}

/// A worker's adoption inbox: accepted sockets with their counters.
type Inbox = Mutex<Vec<(TcpStream, Arc<ConnCounters>)>>;

/// State shared by every worker in one reactor.
struct Shared<H> {
    handler: H,
    stop: Arc<AtomicBool>,
    telemetry: Arc<NetTelemetry>,
    config: ReactorConfig,
    /// Live connections across all workers (drives the resident gauge;
    /// signed so a racy decrement can never wrap a gauge to 2^64).
    resident: AtomicI64,
    /// Accepted sockets awaiting adoption, one inbox per worker.
    inboxes: Vec<Inbox>,
    /// Write ends of each worker's wake pipe.
    wakers: Vec<UnixStream>,
}

impl<H> Shared<H> {
    fn wake(&self, worker: usize) {
        // A failed wake is harmless: the worker's idle poll timeout
        // bounds the delay instead.
        let _ = (&self.wakers[worker]).write(&[1u8]);
    }
}

/// A bound listener and the pool of event-loop workers serving it.
/// Dropping it stops and joins every worker and drops the handler.
pub(crate) struct Reactor<H> {
    /// The bound address (resolves port 0 to the real port).
    pub(crate) local_addr: SocketAddr,
    /// The flag that stops every loop.
    pub(crate) stop: Arc<AtomicBool>,
    /// The counters the loops and the handler record into.
    pub(crate) telemetry: Arc<NetTelemetry>,
    shared: Arc<Shared<H>>,
    workers: Vec<JoinHandle<()>>,
}

impl<H: FrameHandler> Reactor<H> {
    /// Binds `addr` and spawns `config.workers` event loops (worker 0
    /// adopts the listener) around the handler `build` makes from the
    /// stop flag and the telemetry it shares with the loops. The loops
    /// exit once the flag is set — by a handler's `Shutdown` frame or by
    /// [`stop`](Self::stop).
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        mut config: ReactorConfig,
        build: impl FnOnce(&Arc<AtomicBool>, &Arc<NetTelemetry>) -> H,
    ) -> std::io::Result<Reactor<H>> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let telemetry = Arc::new(NetTelemetry::default());
        let handler = build(&stop, &telemetry);
        config.workers = config.workers.clamp(1, 64);
        config.frame_budget = config.frame_budget.max(1);
        let mut wakers = Vec::with_capacity(config.workers);
        let mut wake_rxs = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            wakers.push(tx);
            wake_rxs.push(rx);
        }
        let shared = Arc::new(Shared {
            handler,
            stop: Arc::clone(&stop),
            telemetry: Arc::clone(&telemetry),
            config,
            resident: AtomicI64::new(0),
            inboxes: (0..config.workers).map(|_| Mutex::new(Vec::new())).collect(),
            wakers,
        });
        let mut listener = Some(listener);
        let workers = wake_rxs
            .into_iter()
            .enumerate()
            .map(|(idx, wake_rx)| {
                let shared = Arc::clone(&shared);
                let listener = if idx == 0 { listener.take() } else { None };
                std::thread::Builder::new()
                    .name(format!("spade-net-loop-{idx}"))
                    .spawn(move || run_worker(idx, listener, wake_rx, &shared))
                    .expect("failed to spawn a reactor worker")
            })
            .collect();
        Ok(Reactor { local_addr, stop, telemetry, shared, workers })
    }
}

impl<H> Reactor<H> {
    /// Asks every worker to wind down, without waiting for it.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        (0..self.shared.wakers.len()).for_each(|worker| self.shared.wake(worker));
    }

    /// Stops and joins every worker. Idempotent.
    pub(crate) fn join(&mut self) {
        self.stop();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<H> Drop for Reactor<H> {
    fn drop(&mut self) {
        self.join();
    }
}

// ---------------------------------------------------------------------
// Per-connection state and the worker loop.
// ---------------------------------------------------------------------

/// One multiplexed producer connection, parked on at most one `P`.
struct Conn<P> {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Pending reply bytes: `out[out_cursor..]` is not yet written.
    out: Vec<u8>,
    out_cursor: usize,
    counters: Arc<ConnCounters>,
    /// The request this connection is parked on. While set, no further
    /// frames are applied (replies stay in request order) and the socket
    /// is not read.
    parked: Option<P>,
    /// Reply written for a frame that ends the connection; close once
    /// the out buffer drains.
    closing: bool,
    /// Peer half-closed; drain buffered frames, then close.
    eof: bool,
    /// Budget exhausted with bytes still buffered — poll with zero
    /// timeout so the leftovers drain next cycle.
    hot: bool,
}

impl<P> Conn<P> {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_cursor
    }

    /// `true` while the loop must not read this socket: a request is
    /// parked, the connection is ending, or the peer owes a reply drain.
    fn paused(&self) -> bool {
        self.parked.is_some() || self.closing || self.eof || self.pending_out() >= MAX_PENDING_WRITE
    }
}

/// Resolved metric handles, one set per worker (same registry names, so
/// the exposition aggregates the pool).
struct LoopMetrics {
    resident: Arc<spade_metrics::Gauge>,
    wakeups: Arc<spade_metrics::Counter>,
    budget_exhausted: Arc<spade_metrics::Counter>,
    dispatch: Arc<spade_metrics::Histogram>,
}

impl LoopMetrics {
    fn resolve(telemetry: &NetTelemetry) -> LoopMetrics {
        let r = telemetry.registry();
        LoopMetrics {
            resident: r.gauge("spade_net_reactor_connections_resident"),
            wakeups: r.counter("spade_net_reactor_wakeups_total"),
            budget_exhausted: r.counter("spade_net_reactor_budget_exhausted_total"),
            dispatch: r.histogram("spade_net_reactor_dispatch_ns"),
        }
    }
}

fn run_worker<H: FrameHandler>(
    idx: usize,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    shared: &Shared<H>,
) {
    let metrics = LoopMetrics::resolve(&shared.telemetry);
    let mut conns: Vec<Conn<H::Parked>> = Vec::new();
    let mut next_conn_id = 0u64; // worker 0 only (owns the listener)
    let mut rotate = 0usize;
    let mut chunk = vec![0u8; READ_CHUNK];

    while !shared.stop.load(Ordering::Acquire) {
        // Leftover buffered frames need an immediate re-visit and a
        // parked request a prompt one; otherwise sleep until readiness
        // or the idle bound.
        let mut timeout = IDLE_POLL_MS;
        for c in &conns {
            if c.hot {
                timeout = 0;
            } else if c.parked.is_some() {
                timeout = timeout.min(PARKED_POLL_MS);
            }
        }

        let mut fds = Vec::with_capacity(conns.len() + 2);
        fds.push(PollFd { fd: wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
        if let Some(l) = listener.as_ref() {
            fds.push(PollFd { fd: l.as_raw_fd(), events: POLLIN, revents: 0 });
        }
        let base = fds.len();
        for c in &conns {
            let mut events = 0i16;
            if !c.paused() {
                events |= POLLIN;
            }
            if c.pending_out() > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd { fd: c.stream.as_raw_fd(), events, revents: 0 });
        }

        if poll_fds(&mut fds, timeout).is_err() {
            // A transient poll failure must not spin the loop hot.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        metrics.wakeups.inc();
        let dispatch_started = Instant::now();

        if fds[0].revents != 0 {
            let mut sink = [0u8; 64];
            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        // Adopt handed-over sockets, then accept fresh ones (worker 0).
        let adopted = std::mem::take(&mut *shared.inboxes[idx].lock());
        for (stream, counters) in adopted {
            conns.push(new_conn(stream, counters));
        }
        if let Some(l) = listener.as_ref().filter(|_| fds[1].revents != 0) {
            accept_ready(l, &mut next_conn_id, &mut conns, shared);
        }

        // Service connections in a rotating order: whoever went last
        // cycle goes first eventually, so a budget-capped firehose can
        // never push a drip producer to the end of every cycle.
        let len = conns.len();
        let mut dead = Vec::new();
        for k in 0..len {
            let i = (rotate + k) % len;
            let revents = fds.get(base + i).map(|f| f.revents).unwrap_or(0);
            if !service_conn(&mut conns[i], revents, shared, &metrics, &mut chunk) {
                dead.push(i);
            }
        }
        rotate = rotate.wrapping_add(1);
        if !dead.is_empty() {
            dead.sort_unstable();
            for i in dead.into_iter().rev() {
                conns.swap_remove(i);
            }
        }
        // audit: resident gauge is telemetry-only, single counter cell
        let resident = shared.resident.load(Ordering::Relaxed);
        metrics.resident.set(resident.max(0) as u64);

        metrics.dispatch.record_duration(dispatch_started.elapsed());
    }

    // Wind-down: one best-effort flush per connection so replies already
    // produced (e.g. the Shutdown Ack) reach their producers.
    // audit: resident gauge is telemetry-only, single counter cell
    for c in &mut conns {
        let _ = flush_out(c);
        shared.resident.fetch_sub(1, Ordering::Relaxed);
    }
    let resident = shared.resident.load(Ordering::Relaxed);
    metrics.resident.set(resident.max(0) as u64);
}

fn new_conn<P>(stream: TcpStream, counters: Arc<ConnCounters>) -> Conn<P> {
    Conn {
        stream,
        decoder: FrameDecoder::new(),
        out: Vec::new(),
        out_cursor: 0,
        counters,
        parked: None,
        closing: false,
        eof: false,
        hot: false,
    }
}

/// Drains the listener, assigning each new socket round-robin across
/// the pool (worker 0 keeps its own share).
fn accept_ready<H: FrameHandler>(
    listener: &TcpListener,
    next_conn_id: &mut u64,
    own: &mut Vec<Conn<H::Parked>>,
    shared: &Shared<H>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                stream.set_nodelay(true).ok();
                *next_conn_id += 1;
                let id = *next_conn_id;
                let counters = register_conn(&shared.telemetry, id);
                // audit: resident gauge is telemetry-only, single counter cell
                shared.resident.fetch_add(1, Ordering::Relaxed);
                let target = (id as usize - 1) % shared.config.workers;
                if target == 0 {
                    own.push(new_conn(stream, counters));
                } else {
                    shared.inboxes[target].lock().push((stream, counters));
                    shared.wake(target);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// One readiness-cycle visit to one connection. Returns `false` once
/// the connection is finished and must be dropped.
fn service_conn<H: FrameHandler>(
    c: &mut Conn<H::Parked>,
    revents: i16,
    shared: &Shared<H>,
    metrics: &LoopMetrics,
    chunk: &mut [u8],
) -> bool {
    c.hot = false;
    if revents & (POLLERR | POLLNVAL) != 0 {
        return drop_conn(c, shared);
    }

    // Flush first: freeing reply backlog may unpause reading below.
    if !flush_out(c) {
        return drop_conn(c, shared);
    }

    // A parked request is retried once per cycle: a Detect answers when
    // the shards catch up to its watermark, an ingest frame when its
    // last edge finds queue room, a shard operation when its worker has
    // replied. Until then nothing else on this connection is read or
    // applied, so the reply order the producer sees is unchanged from a
    // blocking server.
    if let Some(parked) = c.parked.take() {
        let step = shared.handler.retry(parked, &mut c.out);
        settle(c, step);
    }

    if revents & (POLLIN | POLLHUP) != 0 && !c.paused() {
        match c.stream.read(chunk) {
            Ok(0) => c.eof = true,
            Ok(n) => {
                // audit: per-connection byte counter, telemetry only
                c.counters.bytes.fetch_add(n as u64, Ordering::Relaxed);
                c.decoder.extend(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return drop_conn(c, shared),
        }
    }

    // Apply at most `frame_budget` frames, then yield the cycle to the
    // other connections — fan-in fairness.
    let budget = shared.config.frame_budget;
    let mut applied = 0usize;
    while applied < budget && c.parked.is_none() && !c.closing {
        match c.decoder.next_frame() {
            Ok(Some(frame)) => {
                applied += 1;
                shared.telemetry.count_frame(&c.counters);
                let step = shared.handler.apply(frame, &c.counters, &mut c.out);
                settle(c, step);
            }
            Ok(None) => break,
            Err(err) => {
                shared.telemetry.count_malformed();
                WireFrame::Error { message: err.to_string() }.encode_into(&mut c.out);
                c.closing = true;
            }
        }
    }
    if applied == budget && c.decoder.buffered() > 0 {
        metrics.budget_exhausted.inc();
        c.hot = true;
    }
    if c.eof && c.decoder.buffered() > 0 {
        // Half-closed with bytes still queued: revisit soon.
        c.hot = true;
    }
    // A parked connection waits for the runtime, not for the loop: it is
    // revisited on the `PARKED_POLL_MS` tick, never on a zero timeout.
    c.hot &= c.parked.is_none();

    if !flush_out(c) {
        return drop_conn(c, shared);
    }
    if c.closing && c.pending_out() == 0 {
        return drop_conn(c, shared);
    }
    if c.eof && c.pending_out() == 0 && c.parked.is_none() && applied == 0 {
        // Peer gone, replies delivered, and the residual buffer holds no
        // complete frame: nothing left to do.
        return drop_conn(c, shared);
    }
    true
}

/// Records what a frame (or a parked request's retry) asks of the loop.
fn settle<P>(c: &mut Conn<P>, step: FrameStep<P>) {
    match step {
        FrameStep::Continue => {}
        FrameStep::Close => c.closing = true,
        FrameStep::Park(parked) => c.parked = Some(parked),
    }
}

fn drop_conn<H: FrameHandler>(c: &mut Conn<H::Parked>, shared: &Shared<H>) -> bool {
    let _ = flush_out(c);
    // audit: resident gauge is telemetry-only, single counter cell
    shared.resident.fetch_sub(1, Ordering::Relaxed);
    false
}

/// Writes pending reply bytes until the socket would block. Returns
/// `false` on a fatal socket error.
fn flush_out<P>(c: &mut Conn<P>) -> bool {
    while c.out_cursor < c.out.len() {
        match (&c.stream).write(&c.out[c.out_cursor..]) {
            Ok(0) => return false,
            Ok(n) => c.out_cursor += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if c.out_cursor >= c.out.len() {
        c.out.clear();
        c.out_cursor = 0;
    } else if c.out_cursor > 64 * 1024 {
        // Reclaim the written prefix of a long-lived backlog.
        c.out.drain(..c.out_cursor);
        c.out_cursor = 0;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn wait_readable_reports_idle_then_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let fd = listener.as_raw_fd();
        // Nothing pending: the wait times out false.
        assert!(!wait_readable(fd, Duration::from_millis(10)).expect("poll"));
        // A pending connection flips it true well before the timeout.
        let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert!(wait_readable(fd, Duration::from_secs(5)).expect("poll"));
    }

    #[test]
    fn poll_handles_many_fds_in_one_call() {
        let listeners: Vec<TcpListener> =
            (0..8).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
        let mut fds: Vec<PollFd> = listeners
            .iter()
            .map(|l| PollFd { fd: l.as_raw_fd(), events: POLLIN, revents: 0 })
            .collect();
        // All idle.
        assert_eq!(poll_fds(&mut fds, 0).expect("poll"), 0);
        // Exactly the listeners with a pending connection turn ready.
        let _a = std::net::TcpStream::connect(listeners[2].local_addr().unwrap()).unwrap();
        let _b = std::net::TcpStream::connect(listeners[5].local_addr().unwrap()).unwrap();
        let ready = poll_fds(&mut fds, 1000).expect("poll");
        assert_eq!(ready, 2);
        assert!(fds[2].revents & POLLIN != 0);
        assert!(fds[5].revents & POLLIN != 0);
    }
}
