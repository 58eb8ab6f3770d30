//! The five workloads. Each is one function that runs one *pass*: set
//! up a fresh stack from the seed, push a fixed amount of work through
//! it, drain, check the result against a reference computation, tear
//! down. The runner repeats passes until the measuring time is used up,
//! so a slower program runs fewer passes, never a longer benchmark.
//! Pass `k` of a run draws its input from sub-seed `k` of the run's
//! seed: a run reports medians over several inputs of the same shape,
//! which is what keeps two seeds' results within a few percent.

mod burst;
mod engine;
mod net;

use crate::input::Edge;
use crate::trace::Span;
use spade_core::shard::RegionSummary;
use spade_core::{peel, SpadeConfig, SpadeEngine, SubgraphSnapshot, WeightedDensity};
use spade_graph::{DynamicGraph, VertexId};
use spade_metrics::MetricsSnapshot;
use std::time::Instant;

/// What a pass is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Index of this pass among the run's passes of its kind.
    pub pass: u64,
    /// 1.0 at full size; the smoke mode shrinks every count.
    pub scale: f64,
    pub traced: bool,
}

/// What a pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Input generation + stack construction.
    pub setup_ns: u64,
    /// The timed phase, final drain included.
    pub wall_ns: u64,
    /// Edges (engine workloads: operations) offered to the program.
    pub attempted: u64,
    /// Refused, rejected, errored, or acked but missing from `applied`.
    pub failed: u64,
    /// Post-drain applied count.
    pub applied: u64,
    /// Detection-latency samples in arrival order.
    pub latencies_ns: Vec<u64>,
    /// Digest of the generated input.
    pub input_digest: u64,
    /// Edges resident in the reference graph after the pass.
    pub resident_edges: u64,
    /// `VmRSS` once the inputs exist, before the stack is built.
    pub inputs_rss_kb: u64,
    /// Memory once the timed phase has ended, before the reference is built.
    pub memory: Memory,
    /// Per-layer values this pass measured (traced passes fill all).
    pub layers: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

/// Resident memory of this process now and at its peak, in kB.
#[derive(Clone, Copy, Debug, Default)]
pub struct Memory {
    pub now: u64,
    pub peak: u64,
}

impl Memory {
    pub fn read() -> Memory {
        Memory { now: proc_status_kb("VmRSS"), peak: proc_status_kb("VmHWM") }
    }
}

impl Ctx {
    /// The generator seed of this pass: distinct for every (seed, pass).
    pub fn input_seed(&self) -> u64 {
        self.seed.wrapping_mul(1_000_003).wrapping_add(self.pass)
    }
}

pub type PassFn = fn(&Ctx) -> Result<Pass, String>;

/// Every workload by name, in report order.
pub const WORKLOADS: &[(&str, PassFn)] = &[
    ("engine_grow", engine::grow),
    ("engine_churn", engine::churn),
    ("shard_burst", burst::shard),
    ("net_rounds", net::rounds),
    ("router_burst", burst::router),
];

/// A field of `/proc/self/status` in kB (`VmRSS`, `VmHWM`).
fn proc_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn sorted_ids(members: &[VertexId]) -> Vec<u32> {
    let mut ids: Vec<u32> = members.iter().map(|m| m.0).collect();
    ids.sort_unstable();
    ids
}

/// The exactness gate: a detection must equal the reference — same
/// members, same density up to float accumulation order.
fn check_detection(
    what: &str,
    got_members: &[VertexId],
    got_density: f64,
    want_members: &[VertexId],
    want_density: f64,
) -> Result<(), String> {
    if want_members.is_empty() {
        return Err(format!("{what}: the reference detects nothing; the input is degenerate"));
    }
    if (got_density - want_density).abs() > 1e-9 * want_density.abs() {
        return Err(format!("{what}: density {got_density} differs from reference {want_density}"));
    }
    if sorted_ids(got_members) != sorted_ids(want_members) {
        return Err(format!(
            "{what}: {} members differ from the reference's {}",
            got_members.len(),
            want_members.len()
        ));
    }
    Ok(())
}

/// The exactness gate of the sharded, networked and routed workloads:
/// the repaired detection must equal a solo engine bootstrapped on the
/// same edges (one static peel). Returns that engine and its community
/// for the layers read off the reference graph.
fn check_against_solo(
    what: &str,
    edges: &[Edge],
    got_members: &[VertexId],
    got_density: f64,
) -> Result<(SpadeEngine<WeightedDensity>, Vec<VertexId>), String> {
    let mut solo =
        SpadeEngine::bootstrap(WeightedDensity, SpadeConfig::default(), edges.iter().copied())
            .map_err(|e| format!("reference bootstrap: {e}"))?;
    let want = solo.detect();
    let members = solo.community(want).to_vec();
    check_detection(what, got_members, got_density, &members, want.density)?;
    Ok((solo, members))
}

/// Layers measured on the final reference graph: the static peel the
/// paper compares against, state size, and the snapshot cost of the
/// detection's 1-hop region. `inc_ns` is the workload's incremental
/// cost per edge: the median call on the engine workloads, the timed
/// phase ÷ edges elsewhere.
fn graph_layers(
    graph: &DynamicGraph,
    members: &[VertexId],
    inc_ns: f64,
    layers: &mut Vec<(&'static str, f64)>,
) {
    let started = Instant::now();
    std::hint::black_box(peel(graph));
    let peel_ns = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    let bytes = SubgraphSnapshot::extract(graph, members, 1).encode();
    let snapshot_ns = started.elapsed().as_nanos() as f64;
    layers.extend([
        ("peel.static_ms", peel_ns / 1e6),
        ("peel.static_over_inc_x", if inc_ns > 0.0 { peel_ns / inc_ns } else { 0.0 }),
        ("graph.vertices", graph.num_vertices() as f64),
        ("graph.edges_resident", graph.num_edges() as f64),
        ("persist.snapshot_ms", snapshot_ns / 1e6),
        ("persist.snapshot_bytes", bytes.len() as f64),
    ]);
}

/// The `service.*` and `engine.*` layers a shard worker exports through
/// its registry. `wall_ns` × `workers` is the time the workers had.
fn service_layers(
    m: &MetricsSnapshot,
    wall_ns: u64,
    workers: usize,
    layers: &mut Vec<(&'static str, f64)>,
) {
    use spade_core::service::metric_names as names;
    let hist = |name: &str| m.histograms.get(name).cloned().unwrap_or_default();
    let count = |name: &str| m.counters.get(name).copied().unwrap_or(0) as f64;
    let (wait, batch, publish, reorder) = (
        hist(names::STAGE_QUEUE_WAIT_NS),
        hist(names::COALESCE_BATCH_SIZE),
        hist(names::STAGE_PUBLISH_NS),
        hist(names::STAGE_REORDER_NS),
    );
    layers.extend([
        ("service.queue_wait_p50_ns", wait.p50() as f64),
        ("service.queue_wait_p99_ns", wait.p99() as f64),
        ("service.coalesce_batch_p50", batch.p50() as f64),
        ("service.coalesce_batch_p99", batch.p99() as f64),
        ("service.publish_p50_ns", publish.p50() as f64),
        ("service.publish_p99_ns", publish.p99() as f64),
        ("service.publishes", count(names::PUBLISHES_TOTAL)),
        ("service.publishes_skipped", count(names::PUBLISHES_SKIPPED_TOTAL)),
        ("service.rejected", count(names::REJECTED_TOTAL)),
        ("engine.reorder_p50_ns", reorder.p50() as f64),
        ("engine.reorder_p99_ns", reorder.p99() as f64),
        ("engine.busy_share", reorder.sum as f64 / (wall_ns as f64 * workers as f64)),
    ]);
}

/// The `repair.*` layers of a closing repair pass.
fn repair_layers(pass_ns: u64, regions: &[RegionSummary], layers: &mut Vec<(&'static str, f64)>) {
    layers.extend([
        ("repair.pass_ms", pass_ns as f64 / 1e6),
        ("repair.regions_exported", regions.len() as f64),
        ("repair.union_edges", regions.iter().map(|r| r.edges).sum::<usize>() as f64),
    ]);
}

/// Mean of a slice of nanosecond samples (0 when empty).
fn mean_ns(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}
