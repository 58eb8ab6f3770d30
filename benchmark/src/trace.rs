//! In-memory spans around the calls into each layer's public functions.
//!
//! Spans are recorded by benchmark code only; the program under test is
//! not instrumented. A span is a name (`layer.operation`), a start and
//! an end in nanoseconds since the tracer's epoch, the index of the
//! span that was open when it began, and the round/batch id it served.
//! A layer's *self time* is its span minus the parts its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Round, frame or edge index the span served.
    pub id: u64,
}

/// One thread's span recorder. With tracing off it still times the
/// call (the plain run needs the latency sample) but records nothing,
/// so the traced-minus-plain difference is the cost of recording.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { epoch, on, spans: Vec::new(), open: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// nanoseconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let started = Instant::now();
        let slot = self.on.then(|| {
            let parent = self.open.last().copied().unwrap_or(NO_PARENT);
            let start_ns = (started - self.epoch).as_nanos() as u64;
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
            self.open.push(self.spans.len() as u32 - 1);
            self.spans.len() - 1
        });
        let result = f(self);
        let elapsed = started.elapsed().as_nanos() as u64;
        if let Some(slot) = slot {
            self.spans[slot].end_ns = self.spans[slot].start_ns + elapsed;
            self.open.pop();
        }
        (result, elapsed)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends another thread's spans, re-basing their parent indices.
pub fn merge(into: &mut Vec<Span>, other: Vec<Span>) {
    let base = into.len() as u32;
    into.extend(other.into_iter().map(|mut s| {
        if s.parent != NO_PARENT {
            s.parent += base;
        }
        s
    }));
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus its direct
/// children's durations (children of one thread never overlap).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let row = table.entry(s.name).or_default();
        let total = s.end_ns - s.start_ns;
        row.calls += 1;
        row.total_ns += total;
        row.self_ns += total.saturating_sub(children);
    }
    table
}

/// Share of the top-level spans' time that spans below them account
/// for: 1 − (self time of the roots ÷ their duration). A low value
/// names time no layer span covers.
pub fn coverage(spans: &[Span]) -> f64 {
    let mut root_ns = 0u64;
    let mut covered = 0u64;
    for s in spans {
        if s.parent == NO_PARENT {
            root_ns += s.end_ns - s.start_ns;
        } else if spans[s.parent as usize].parent == NO_PARENT {
            covered += s.end_ns - s.start_ns;
        }
    }
    if root_ns == 0 {
        0.0
    } else {
        covered as f64 / root_ns as f64
    }
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
        writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, id: 0 }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // pass [0,100) > a [10,40) > b [20,30); pass > a [50,90)
        let spans = [
            span("pass", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 20, 30, 1),
            span("a", 50, 90, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"], LayerTime { calls: 1, total_ns: 100, self_ns: 30 });
        assert_eq!(t["a"], LayerTime { calls: 2, total_ns: 70, self_ns: 60 });
        assert_eq!(t["b"], LayerTime { calls: 1, total_ns: 10, self_ns: 10 });
        // Self times add up to the root: nothing is counted twice.
        assert_eq!(t.values().map(|l| l.self_ns).sum::<u64>(), 100);
        assert_eq!(coverage(&spans), 0.70);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut on = Tracer::new(true, Instant::now());
        let ((), outer) = on.timed("outer", 7, |t| t.timed("inner", 8, |_| ()).0);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].id), ("outer", NO_PARENT, 7));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].id), ("inner", 0, 8));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].end_ns - spans[0].start_ns, outer);

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.timed("outer", 0, |_| 5).0, 5);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = vec![span("x", 0, 10, NO_PARENT)];
        merge(&mut a, vec![span("y", 0, 10, NO_PARENT), span("z", 1, 2, 0)]);
        assert_eq!(a[1].parent, NO_PARENT);
        assert_eq!(a[2].parent, 1);
    }
}
