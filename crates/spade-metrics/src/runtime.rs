//! Lock-free runtime metrics: counters, gauges, log-scale latency
//! histograms, a mergeable snapshot model, and an event-trace ring.
//!
//! The hot path is allocation-free: recording into a [`Counter`],
//! [`Gauge`] or [`Histogram`] is a handful of atomic bumps on
//! pre-registered handles. Registration (name → handle) and snapshots
//! take a lock, but both happen off the per-edge path — workers resolve
//! their handles once at spawn and only ever touch the atomics after
//! that.
//!
//! Writes use `Release` and reads `Acquire`: a snapshot that observes a
//! counter at `N` also observes every metric write the recording thread
//! made before bumping it to `N`, so cross-metric reconciliation (e.g.
//! an applied-updates counter against a latency histogram's count) can
//! never see the counter lead its companion writes. On x86 both orders
//! compile to the same instructions as `Relaxed`, so the hot path pays
//! nothing for the guarantee.
//!
//! Snapshots are plain owned data ([`MetricsSnapshot`]) that
//! [`merge`](MetricsSnapshot::merge) across shards: counters and gauges
//! add, histograms add bucket-wise, so a sharded runtime can expose one
//! global view without ever stopping a worker. [`HistogramSnapshot`]
//! estimates p50/p90/p99 from fixed log-scale buckets (4 sub-buckets
//! per octave, ≤ 25 % relative bucket width) and caps every quantile at
//! the exact recorded maximum.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of histogram buckets: values 0..=7 get exact buckets, then 4
/// sub-buckets per power of two up to `u64::MAX` (index `4·62 + 3`).
pub const NUM_BUCKETS: usize = 252;

/// Capacity of a registry's event-trace ring.
pub const EVENT_RING_CAPACITY: usize = 256;

/// Monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // Release: pairs with the Acquire load in `get` so an observer
        // of the new count also sees prior writes by this thread.
        self.value.fetch_add(n, Ordering::Release);
    }

    /// Overwrites the value — for counters mirrored from an external
    /// monotone source (e.g. a grouper's own flush count).
    #[inline]
    pub fn store(&self, v: u64) {
        // Release: see `add`.
        self.value.store(v, Ordering::Release);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // Acquire: pairs with the Release writes above.
        self.value.load(Ordering::Acquire)
    }
}

/// Instantaneous level (queue depth, resident edges, …).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: u64) {
        // Release: pairs with the Acquire load in `get` (see module doc).
        self.value.store(v, Ordering::Release);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        // Acquire: pairs with the Release store above.
        self.value.load(Ordering::Acquire)
    }
}

/// Maps a value to its fixed log-scale bucket.
///
/// Values 0..=7 get exact buckets; above that each power of two splits
/// into 4 sub-buckets keyed by the two bits after the leading one, so
/// adjacent bucket bounds stay within 25 % of each other.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (exp - 2)) & 3) as usize;
        4 * (exp - 1) + sub
    }
}

/// Inclusive upper bound of bucket `idx` (the conservative quantile
/// representative).
fn bucket_upper(idx: usize) -> u64 {
    if idx < 8 {
        idx as u64
    } else {
        let exp = idx / 4 + 1;
        let sub = (idx % 4) as u64;
        let width = 1u64 << (exp - 2);
        (1u64 << exp) + (sub + 1) * width - 1
    }
}

/// Fixed-bucket log-scale histogram with atomic recording.
///
/// [`record`](Histogram::record) is three atomic operations — no
/// allocation, no lock — so it is safe on the per-edge hot path.
/// Units are whatever the caller records (the runtime uses
/// nanoseconds for stage latencies and raw counts for batch sizes).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation. Allocation-free: one bucket bump plus
    /// sum/max updates.
    #[inline]
    pub fn record(&self, v: u64) {
        // Release: pairs with the Acquire loads in `count`/`snapshot`.
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Release);
        self.sum.fetch_add(v, Ordering::Release);
        self.max.fetch_max(v, Ordering::Release);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded so far (bucket sum, so it is always
    /// consistent with a concurrently taken snapshot's count).
    pub fn count(&self) -> u64 {
        // Acquire: pairs with the Release bumps in `record`.
        self.buckets.iter().map(|b| b.load(Ordering::Acquire)).sum()
    }

    /// A point-in-time copy of the buckets. Under concurrent recording
    /// the snapshot's `count` is derived from the same bucket loads, so
    /// quantiles are always internally consistent; `sum` and `max` may
    /// trail or lead by in-flight records but never regress.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // Acquire: pairs with the Release bumps in `record`.
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Acquire)).collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Acquire),
            max: self.max.load(Ordering::Acquire),
            buckets,
        }
    }
}

/// Owned, mergeable copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations (sum over buckets).
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Per-bucket observation counts (`NUM_BUCKETS` entries).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot { count: 0, sum: 0, max: 0, buckets: vec![0; NUM_BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the rank-`⌈q·count⌉` observation, capped at the
    /// exact recorded maximum. Empty snapshots yield 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Bucket-wise sum of two snapshots. Commutative and associative,
    /// so shard order never changes the merged view.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> =
            self.buckets.iter().zip(&other.buckets).map(|(a, b)| a + b).collect();
        HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
            buckets,
        }
    }
}

/// What happened, for the event-trace ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A grouper flush ran (value: edges flushed, when known).
    Flush,
    /// A detection was published (value: publish epoch).
    Publish,
    /// A cross-shard repair pass completed (value: regions exported).
    RepairPass,
    /// A migration move completed (value: edges moved).
    Migration,
    /// Back-pressure: an ingest frame met a full shard queue and parked
    /// its connection (value: edges enqueued before the park).
    Busy,
    /// A malformed wire frame was dropped (value: decoder error code,
    /// when known).
    MalformedFrame,
    /// A transaction was applied after its latency budget elapsed
    /// (value: overshoot in microseconds).
    DeadlineMiss,
}

impl EventKind {
    /// Stable lower-case label (used in traces and the CLI).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Flush => "flush",
            EventKind::Publish => "publish",
            EventKind::RepairPass => "repair_pass",
            EventKind::Migration => "migration",
            EventKind::Busy => "busy",
            EventKind::MalformedFrame => "malformed_frame",
            EventKind::DeadlineMiss => "deadline_miss",
        }
    }
}

/// One discrete runtime event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-registry sequence number (dense, starts at 0).
    pub seq: u64,
    /// Microseconds since the owning registry was created.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`]).
    pub value: u64,
}

/// Bounded ring of recent [`TraceEvent`]s. Pushes take a mutex — events
/// are rare (flushes, repairs, back-pressure), never per-edge.
#[derive(Debug)]
struct EventRing {
    inner: Mutex<EventRingInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct EventRingInner {
    next_seq: u64,
    buf: std::collections::VecDeque<TraceEvent>,
}

impl EventRing {
    fn new(capacity: usize) -> EventRing {
        EventRing { inner: Mutex::new(EventRingInner::default()), capacity }
    }

    fn push(&self, at_us: u64, kind: EventKind, value: u64) {
        let mut inner = self.inner.lock().expect("event ring poisoned");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
        }
        inner.buf.push_back(TraceEvent { seq, at_us, kind, value });
    }

    fn recent(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock().expect("event ring poisoned");
        inner.buf.iter().copied().collect()
    }
}

/// Named metrics for one runtime component (a worker, a shard set, a
/// network front end).
///
/// Handles are `Arc`-shared: resolve them once (registration locks a
/// map), then record through the atomics forever after. `snapshot()`
/// walks the maps under the same short locks.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: EventRing,
    started: Instant,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: EventRing::new(EVENT_RING_CAPACITY),
            started: Instant::now(),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry; its uptime clock starts now.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use. Call once per handle, not per record.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Appends a discrete event to the trace ring, stamped with the
    /// registry's uptime clock.
    pub fn event(&self, kind: EventKind, value: u64) {
        let at_us = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.events.push(at_us, kind, value);
    }

    /// Recent events, oldest first (the ring keeps the last
    /// [`EVENT_RING_CAPACITY`]).
    pub fn recent_events(&self) -> Vec<TraceEvent> {
        self.events.recent()
    }

    /// Time since the registry was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// A point-in-time copy of every registered metric plus the recent
    /// event trace.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            events: self.events.recent(),
            uptime_secs: self.started.elapsed().as_secs_f64(),
        }
    }
}

/// Owned, mergeable copy of a registry (or of many, merged).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Recent trace events (concatenated across merges).
    pub events: Vec<TraceEvent>,
    /// Seconds since the source registry started (max across merges).
    pub uptime_secs: f64,
}

impl MetricsSnapshot {
    /// Combines two snapshots: counters and gauges add (a gauge summed
    /// across shards reads as the global level, e.g. total queue
    /// depth), histograms merge bucket-wise, events concatenate.
    pub fn merge(mut self, other: &MetricsSnapshot) -> MetricsSnapshot {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            let merged = match self.histograms.get(name) {
                Some(mine) => mine.merge(h),
                None => h.clone(),
            };
            self.histograms.insert(name.clone(), merged);
        }
        self.events.extend_from_slice(&other.events);
        self.uptime_secs = self.uptime_secs.max(other.uptime_secs);
        self
    }

    /// Renders the Prometheus text exposition format (version 0.0.4):
    /// `# TYPE` comments, plain `name value` samples, histograms as
    /// summaries with `quantile` labels plus `_sum`/`_count`/`_max`.
    /// Keys may carry a `{label="v"}` suffix; the `# TYPE` line is
    /// emitted once per base name.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("# TYPE spade_uptime_seconds gauge\n");
        out.push_str(&format!("spade_uptime_seconds {:.3}\n", self.uptime_secs));

        let mut last_base = String::new();
        for (name, v) in &self.counters {
            let base = base_name(name);
            if base != last_base {
                out.push_str(&format!("# TYPE {base} counter\n"));
                last_base = base.to_string();
            }
            out.push_str(&format!("{name} {v}\n"));
        }
        last_base.clear();
        for (name, v) in &self.gauges {
            let base = base_name(name);
            if base != last_base {
                out.push_str(&format!("# TYPE {base} gauge\n"));
                last_base = base.to_string();
            }
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!("{name}{{quantile=\"{label}\"}} {}\n", h.quantile(q)));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_max {}\n", h.max));
        }
        out
    }
}

/// Metric name with any `{label="v"}` suffix stripped.
fn base_name(name: &str) -> &str {
    match name.find('{') {
        Some(i) => &name[..i],
        None => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        for exp in 0..64u32 {
            let mid = (1u64 << exp) | (1u64 << exp.saturating_sub(1));
            for &v in &[1u64 << exp, (1u64 << exp) + 1, mid] {
                let idx = bucket_index(v);
                assert!(idx < NUM_BUCKETS, "v={v} idx={idx}");
                assert!(idx >= last || v < 8, "bucket index regressed at v={v}");
                last = last.max(idx);
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(7), 7);
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_upper_bounds_contain_their_values() {
        for v in [0u64, 1, 7, 8, 9, 100, 1_000, 123_456, u64::MAX / 2] {
            let idx = bucket_index(v);
            assert!(bucket_upper(idx) >= v, "upper bound of bucket {idx} excludes {v}");
            if idx > 0 {
                assert!(bucket_upper(idx - 1) < v, "v={v} should not fit bucket {}", idx - 1);
            }
        }
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let h = Histogram::new();
        h.record(42);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50(), 42);
        assert_eq!(s.p90(), 42);
        assert_eq!(s.p99(), 42);
        assert_eq!(s.max, 42);
    }

    #[test]
    fn all_equal_samples_collapse_to_the_value() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(777);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        // Quantiles are capped at the exact max, so an all-equal
        // distribution reports the value itself at every quantile.
        assert_eq!(s.p50(), 777);
        assert_eq!(s.p99(), 777);
        assert_eq!(s.quantile(1.0), 777);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.p50();
        let p99 = s.p99();
        assert!((5_000..=6_250).contains(&p50), "p50={p50}");
        assert!((9_900..=10_000).contains(&p99), "p99={p99}");
        assert!(s.p90() <= p99);
        assert!(p99 <= s.max);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let (ha, hb, hc) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 1..500u64 {
            ha.record(v);
            hb.record(v * 17);
            hc.record(v * 1000);
        }
        let (a, b, c) = (ha.snapshot(), hb.snapshot(), hc.snapshot());
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        let m = a.merge(&b);
        assert_eq!(m.count, a.count + b.count);
        assert_eq!(m.max, a.max.max(b.max));
    }

    #[test]
    fn snapshot_is_stable_under_concurrent_recording() {
        let h = Arc::new(Histogram::new());
        let stop = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut v = 1u64 + t;
                    while stop.load(Ordering::Relaxed) == 0 {
                        h.record(v % 100_000 + 1);
                        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                })
            })
            .collect();
        // Snapshots race recording only once a writer is running; waiting
        // for the first sample also makes the final `count > 0` follow
        // from this test's own ordering, not the scheduler's.
        while h.snapshot().count == 0 {
            std::thread::yield_now();
        }
        let mut last_count = 0u64;
        for _ in 0..200 {
            let s = h.snapshot();
            // Internally consistent: count derives from the same bucket
            // loads, so quantiles are always defined and ordered.
            assert_eq!(s.count, s.buckets.iter().sum::<u64>());
            assert!(s.p50() <= s.p99());
            assert!(s.count >= last_count, "count regressed");
            last_count = s.count;
        }
        stop.store(1, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        let s = h.snapshot();
        assert!(s.count > 0);
        assert!(s.p99() <= s.max);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("spade_test_total");
        let b = reg.counter("spade_test_total");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("spade_test_total").get(), 4);
        let g = reg.gauge("spade_depth");
        g.set(17);
        assert_eq!(reg.gauge("spade_depth").get(), 17);
        reg.histogram("spade_lat_ns").record(9);
        assert_eq!(reg.snapshot().histograms["spade_lat_ns"].count, 1);
    }

    #[test]
    fn snapshot_merge_sums_counters_and_gauges() {
        let (ra, rb) = (MetricsRegistry::new(), MetricsRegistry::new());
        ra.counter("c").add(5);
        rb.counter("c").add(7);
        rb.counter("only_b").inc();
        ra.gauge("depth").set(3);
        rb.gauge("depth").set(4);
        ra.histogram("h").record(10);
        rb.histogram("h").record(1_000);
        let merged = ra.snapshot().merge(&rb.snapshot());
        assert_eq!(merged.counters["c"], 12);
        assert_eq!(merged.counters["only_b"], 1);
        assert_eq!(merged.gauges["depth"], 7);
        assert_eq!(merged.histograms["h"].count, 2);
        assert_eq!(merged.histograms["h"].max, 1_000);
    }

    #[test]
    fn event_ring_keeps_the_tail_and_dense_seqs() {
        let reg = MetricsRegistry::new();
        for i in 0..(EVENT_RING_CAPACITY as u64 + 10) {
            reg.event(EventKind::Flush, i);
        }
        let events = reg.recent_events();
        assert_eq!(events.len(), EVENT_RING_CAPACITY);
        assert_eq!(events.first().unwrap().seq, 10);
        assert_eq!(events.last().unwrap().seq, EVENT_RING_CAPACITY as u64 + 9);
        for w in events.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
            assert!(w[1].at_us >= w[0].at_us);
        }
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.counter("spade_updates_total").add(12);
        reg.counter("spade_net_frames{conn=\"0\"}").add(3);
        reg.counter("spade_net_frames{conn=\"1\"}").add(4);
        reg.gauge("spade_queue_depth").set(2);
        let h = reg.histogram("spade_stage_publish_ns");
        h.record(1_500);
        h.record(2_500);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("spade_uptime_seconds"));
        assert!(text.contains("# TYPE spade_updates_total counter\n"));
        assert!(text.contains("spade_updates_total 12\n"));
        // Labeled series share one TYPE line for the base name.
        assert_eq!(text.matches("# TYPE spade_net_frames counter").count(), 1);
        assert!(text.contains("spade_net_frames{conn=\"0\"} 3\n"));
        assert!(text.contains("spade_stage_publish_ns{quantile=\"0.5\"}"));
        assert!(text.contains("spade_stage_publish_ns_count 2\n"));
        assert!(text.contains("spade_stage_publish_ns_sum 4000\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
        }
    }
}
