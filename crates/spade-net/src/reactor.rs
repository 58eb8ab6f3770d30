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
//!   without waiting (ingest takes only the edge room it can reserve, a
//!   marker takes none), and a request waits for one of two things —
//!   queue room for an ingest frame, or the workers' replies to the
//!   markers it posted (the barriers of a read-your-acks `Detect`, a
//!   shard worker's answer to a `Region`). Both share one mechanism: the
//!   handler returns `FrameStep::Park`, the connection *parks* on the
//!   request (reads paused, replies in order preserved) and the loop
//!   re-checks it when the runtime reports the progress it waits for. A
//!   parked producer is slowed by TCP flow control, not by a reply.
//! * **Wake on progress, not on a tick.** The reactor subscribes one
//!   hook to the runtime's [`Notifier`]. Before a loop sleeps in `poll`
//!   with requests parked, it records what they wait for (`Wait`: room
//!   or a reply), *arms*, and only then re-checks them. The hook writes
//!   the loop's wake byte only for an armed loop and only for a report
//!   that can answer one of its waits, so a report that lands between
//!   the check and `poll` always wakes it, and no other report does.
//!
//! Per-loop observability rides the transport's existing
//! [`spade_metrics::MetricsRegistry`]: connections resident
//! (`spade_net_reactor_connections_resident`), readiness wakeups
//! (`spade_net_reactor_wakeups_total`), wake bytes written by progress
//! reports (`spade_net_reactor_progress_wakes_total`), drain-budget
//! exhaustions, and a per-cycle dispatch latency histogram
//! (`spade_net_reactor_dispatch_ns`).

use crate::server::{register_conn, ConnCounters, NetTelemetry, Parked};
use crate::wire::{FrameDecoder, WireFrame};
use parking_lot::Mutex;
use spade_core::progress::{Notifier, Progress, Subscription};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{fence, AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll timeout unless buffered frames are waiting — bounds how long a
/// stop request can go unnoticed without a wake byte.
const IDLE_POLL_MS: i32 = 50;
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
pub(crate) enum FrameStep {
    /// Keep the connection; replies (if any) are in the out buffer.
    Continue,
    /// The reply ends the connection — close once the out buffer drains.
    Close,
    /// The request cannot be answered yet: hold it on the connection and
    /// [`retry`](FrameHandler::retry) it once the runtime reports the
    /// progress it [waits for](Parked::wait). Until it answers, the
    /// connection is neither read nor served further, so replies stay in
    /// request order.
    Park(Parked),
}

/// The progress report a parked request waits for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Wait {
    /// Queue room: a worker freed reserved edge room (it dequeued
    /// edges, or a producer handed back room it did not use).
    Room,
    /// A worker's answer to a request in its queue.
    Reply,
}

/// What a tier does with a decoded frame. Both methods run on the event
/// loop, so neither may block on the runtime: a request that has to wait
/// says so with [`FrameStep::Park`], naming what it waits for as a
/// [`Parked`]. Replies are appended to `out` and flushed by the loop,
/// never by the handler.
pub(crate) trait FrameHandler: Send + Sync + 'static {
    /// Applies one decoded request from the connection counted in `conn`.
    fn apply(&self, frame: WireFrame, conn: &ConnCounters, out: &mut Vec<u8>) -> FrameStep;

    /// The re-check of a parked request, after the loop armed for its
    /// [`wait`](Parked::wait): answers into `out`, or parks again.
    fn retry(&self, parked: Parked, out: &mut Vec<u8>) -> FrameStep;
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
    /// Each worker's wake pipe and arm state, shared with the progress
    /// hook.
    wakes: Arc<Wakes>,
}

/// One event loop's side of the progress hook: the write end of its
/// wake pipe, whether it is armed (about to sleep in `poll` with
/// requests parked), and what those requests wait for.
struct LoopWake {
    waker: UnixStream,
    armed: AtomicBool,
    room: AtomicBool,
    reply: AtomicBool,
}

impl LoopWake {
    fn new(waker: UnixStream) -> LoopWake {
        LoopWake {
            waker,
            armed: AtomicBool::new(false),
            room: AtomicBool::new(false),
            reply: AtomicBool::new(false),
        }
    }

    fn wake(&self) {
        // A failed wake is harmless: the worker's idle poll timeout
        // bounds the delay instead.
        let _ = (&self.waker).write(&[1u8]);
    }

    /// Records what the loop's parked requests wait for, then arms. The
    /// caller re-checks them only after this returns: the fence pairs
    /// with the one in [`Wakes::report`], so a report either lands
    /// before the check (which sees it) or finds the loop armed.
    fn arm(&self, waits: impl Iterator<Item = Wait>) {
        let (mut room, mut reply) = (false, false);
        for wait in waits {
            match wait {
                Wait::Room => room = true,
                Wait::Reply => reply = true,
            }
        }
        self.room.store(room, Ordering::SeqCst);
        self.reply.store(reply, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// The loop is awake: reports need not wake it until it arms again.
    fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }
}

/// The progress hook every loop of one reactor shares. It holds the
/// loops' wake pipes and a counter — never the handler, whose runtime
/// owns the notifier this hook is subscribed to.
struct Wakes {
    loops: Vec<LoopWake>,
    progress_wakes: Arc<spade_metrics::Counter>,
}

impl Wakes {
    /// Writes the wake byte of every armed loop that waits for this kind
    /// of report — once per arm.
    fn report(&self, progress: Progress) {
        fence(Ordering::SeqCst);
        for lw in &self.loops {
            if !lw.armed.load(Ordering::SeqCst) {
                continue;
            }
            let wanted = match progress {
                Progress::Replied => lw.reply.load(Ordering::SeqCst),
                Progress::Room => lw.room.load(Ordering::SeqCst),
            };
            if wanted && lw.armed.swap(false, Ordering::SeqCst) {
                // Counted first: whoever the byte gets answered sees it.
                self.progress_wakes.inc();
                lw.wake();
            }
        }
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
    /// The wake hook on the handler's runtime, dropped once the loops
    /// have joined.
    progress: Option<Subscription>,
}

impl<H: FrameHandler> Reactor<H> {
    /// Binds `addr` and spawns `config.workers` event loops (worker 0
    /// adopts the listener) around the handler `build` makes from the
    /// stop flag and the telemetry it shares with the loops; `progress`
    /// is the notifier of the runtime the handler feeds, where the wake
    /// hook subscribes. The loops exit once the flag is set — by a
    /// handler's `Shutdown` frame or by [`stop`](Self::stop).
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        mut config: ReactorConfig,
        progress: &Arc<Notifier>,
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
        let mut loops = Vec::with_capacity(config.workers);
        let mut wake_rxs = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            loops.push(LoopWake::new(tx));
            wake_rxs.push(rx);
        }
        let wakes = Arc::new(Wakes {
            loops,
            progress_wakes: telemetry.registry().counter("spade_net_reactor_progress_wakes_total"),
        });
        // Subscribed before the first accept, so every reply a parked
        // request waits for is reported to it.
        let hook = Arc::clone(&wakes);
        let progress = progress.subscribe(move |p| hook.report(p));
        let shared = Arc::new(Shared {
            handler,
            stop: Arc::clone(&stop),
            telemetry: Arc::clone(&telemetry),
            config,
            resident: AtomicI64::new(0),
            inboxes: (0..config.workers).map(|_| Mutex::new(Vec::new())).collect(),
            wakes,
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
        Ok(Reactor { local_addr, stop, telemetry, shared, workers, progress: Some(progress) })
    }
}

impl<H> Reactor<H> {
    /// Asks every worker to wind down, without waiting for it.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.shared.wakes.loops.iter().for_each(LoopWake::wake);
    }

    /// Stops and joins every worker, then unsubscribes the wake hook.
    /// Idempotent.
    pub(crate) fn join(&mut self) {
        self.stop();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.progress = None;
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

/// One multiplexed producer connection, parked on at most one request.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Pending reply bytes: `out[out_cursor..]` is not yet written.
    out: Vec<u8>,
    out_cursor: usize,
    counters: Arc<ConnCounters>,
    /// The request this connection is parked on. While set, no further
    /// frames are applied (replies stay in request order) and the socket
    /// is not read.
    parked: Option<Parked>,
    /// Reply written for a frame that ends the connection; close once
    /// the out buffer drains.
    closing: bool,
    /// Peer half-closed; drain buffered frames, then close.
    eof: bool,
    /// Budget exhausted with bytes still buffered — poll with zero
    /// timeout so the leftovers drain next cycle.
    hot: bool,
}

impl Conn {
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
    let wake = &shared.wakes.loops[idx];
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_conn_id = 0u64; // worker 0 only (owns the listener)
    let mut rotate = 0usize;
    let mut chunk = vec![0u8; READ_CHUNK];

    while !shared.stop.load(Ordering::Acquire) {
        // Leftover buffered frames need an immediate re-visit; otherwise
        // sleep until readiness, a progress wake, or the idle bound.
        let timeout = if conns.iter().any(|c| c.hot) { 0 } else { IDLE_POLL_MS };

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

        let polled = poll_fds(&mut fds, timeout);
        wake.disarm();
        if polled.is_err() {
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
        check_parked(&mut conns, rotate, wake, &shared.handler);
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

fn new_conn(stream: TcpStream, counters: Arc<ConnCounters>) -> Conn {
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
    own: &mut Vec<Conn>,
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
                    shared.wakes.loops[target].wake();
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
    c: &mut Conn,
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
    // re-checked when the runtime reports progress, never on a zero
    // timeout.
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

/// The end of every cycle: arms the loop for what its parked requests
/// wait for, then re-checks each, starting at `rotate` like the service
/// pass so no connection always comes last to freed room. An ingest
/// frame answers when its last edge finds queue room, any other request
/// when the workers it asked have replied (a `Detect` once the barriers
/// it posted behind the acked edges have). A request that parks again
/// waits for what it waited for, which the loop is already armed for.
/// Until it answers nothing else on that connection is read or applied,
/// so the reply order the producer sees is unchanged from a blocking
/// server.
fn check_parked<H: FrameHandler>(conns: &mut [Conn], rotate: usize, wake: &LoopWake, handler: &H) {
    if conns.iter().all(|c| c.parked.is_none()) {
        return;
    }
    wake.arm(conns.iter().filter_map(|c| c.parked.as_ref()).map(Parked::wait));
    let len = conns.len();
    for k in 0..len {
        let c = &mut conns[(rotate + k) % len];
        let Some(parked) = c.parked.take() else { continue };
        let step = handler.retry(parked, &mut c.out);
        settle(c, step);
        if c.parked.is_none() {
            // Answered: reply now, and come straight back if frames are
            // buffered behind it or the connection is ending.
            c.hot = !flush_out(c) || c.closing || c.eof || c.decoder.buffered() > 0;
        }
    }
}

/// Records what a frame (or a parked request's retry) asks of the loop.
fn settle(c: &mut Conn, step: FrameStep) {
    match step {
        FrameStep::Continue => {}
        FrameStep::Close => c.closing = true,
        FrameStep::Park(parked) => c.parked = Some(parked),
    }
}

fn drop_conn<H: FrameHandler>(c: &mut Conn, shared: &Shared<H>) -> bool {
    let _ = flush_out(c);
    // audit: resident gauge is telemetry-only, single counter cell
    shared.resident.fetch_sub(1, Ordering::Relaxed);
    false
}

/// Writes pending reply bytes until the socket would block. Returns
/// `false` on a fatal socket error.
fn flush_out(c: &mut Conn) -> bool {
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

    /// One loop's wake side over a fresh pipe, and the read end to watch.
    fn one_loop() -> (Wakes, UnixStream) {
        let (tx, rx) = UnixStream::pair().expect("pair");
        tx.set_nonblocking(true).expect("nonblocking");
        rx.set_nonblocking(true).expect("nonblocking");
        let telemetry = NetTelemetry::default();
        let progress_wakes = telemetry.registry().counter("spade_net_reactor_progress_wakes_total");
        (Wakes { loops: vec![LoopWake::new(tx)], progress_wakes }, rx)
    }

    /// Whether a wake byte is waiting, draining it.
    fn woken(rx: &UnixStream) -> bool {
        let ready = wait_readable(rx.as_raw_fd(), Duration::ZERO).expect("poll");
        let mut sink = [0u8; 8];
        while matches!((&*rx).read(&mut sink), Ok(n) if n > 0) {}
        ready
    }

    #[test]
    fn an_armed_loop_wakes_once_on_the_report_it_waits_for() {
        let (wakes, rx) = one_loop();
        let lw = &wakes.loops[0];

        // A report before arming writes nothing.
        wakes.report(Progress::Room);
        assert!(!woken(&rx));

        // Room and reply waits wake on their own kind only.
        lw.arm([Wait::Room].into_iter());
        wakes.report(Progress::Replied);
        assert!(!woken(&rx));
        wakes.report(Progress::Room);
        assert!(woken(&rx));
        lw.arm([Wait::Reply].into_iter());
        wakes.report(Progress::Room);
        assert!(!woken(&rx));
        wakes.report(Progress::Replied);
        assert!(woken(&rx));
        wakes.report(Progress::Replied);
        assert!(!woken(&rx), "a fired arm wrote a second byte");

        // A disarmed (awake) loop is never written to.
        lw.arm([Wait::Room].into_iter());
        lw.disarm();
        wakes.report(Progress::Room);
        assert!(!woken(&rx));
        assert_eq!(wakes.progress_wakes.get(), 2);
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
