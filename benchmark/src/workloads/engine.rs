//! `engine_grow` and `engine_churn`: a solo `SpadeEngine` driven edge
//! by edge from one thread — the paper's setting. Detection latency is
//! the duration of the call, which returns the updated `Detection`; on
//! `engine_churn` it is one window step (the insert plus the expiry), so
//! the cheap and the costly call do not make the median a coin toss.

use super::{check_detection, graph_layers, mean_ns, proc_status_kb, Ctx, Memory, Pass};
use crate::input::{digest, generate, Edge, StreamSpec};
use crate::stats::{median_u64, percentile};
use crate::trace::Tracer;
use spade_core::{peel, ReorderStats, SpadeConfig, SpadeEngine, WeightedDensity};
use std::time::Instant;

/// `engine_grow`: bootstrap on the first fifth, insert the rest. Sized
/// so one pass takes ~1 s at the seed commit (the insert cost grows
/// with the vertex count, ~12 µs at the start and ~45 µs at the end).
const GROW: StreamSpec = StreamSpec { customers: 7_000, merchants: 1_750, transactions: 56_000 };

/// `engine_churn`: a window of `CHURN_WINDOW` resident transactions
/// slides over the stream for `CHURN_STEPS` steps. Deletion costs
/// ~25× insertion at the seed commit, which is what caps the window.
const CHURN_WINDOW: usize = 20_000;
const CHURN_STEPS: usize = 4_000;
const CHURN: StreamSpec =
    StreamSpec { customers: 2_500, merchants: 625, transactions: CHURN_WINDOW + CHURN_STEPS };

type Engine = SpadeEngine<WeightedDensity>;

fn bootstrap(edges: &[Edge]) -> Result<Engine, String> {
    SpadeEngine::bootstrap(WeightedDensity, SpadeConfig::default(), edges.iter().copied())
        .map_err(|e| format!("bootstrap: {e}"))
}

pub fn grow(ctx: &Ctx) -> Result<Pass, String> {
    let spec = GROW.scaled(ctx.scale);
    let started = Instant::now();
    let edges = generate(spec, ctx.input_seed());
    let inputs_rss_kb = proc_status_kb("VmRSS");
    let boot = spec.transactions / 5;
    let mut engine = bootstrap(&edges[..boot])?;
    let setup_ns = started.elapsed().as_nanos() as u64;

    let replay = &edges[boot..];
    let mut latencies_ns = Vec::with_capacity(replay.len());
    let mut failed = 0u64;
    let mut tracer = Tracer::new(ctx.traced, Instant::now());
    let ((), wall_ns) = tracer.timed("pass", 0, |tracer| {
        for (i, &(src, dst, raw)) in replay.iter().enumerate() {
            let (result, ns) =
                tracer.timed("engine.insert", i as u64, |_| engine.insert_edge(src, dst, raw));
            failed += u64::from(result.is_err());
            latencies_ns.push(ns);
        }
    });

    let decile = latencies_ns.len() / 10;
    let layers = vec![
        ("engine.insert_ns_per_edge", mean_ns(&latencies_ns)),
        ("engine.insert_ns_first_decile", mean_ns(&latencies_ns[..decile])),
        ("engine.insert_ns_last_decile", mean_ns(&latencies_ns[latencies_ns.len() - decile..])),
    ];
    finish(
        ctx,
        engine,
        &edges,
        layers,
        tracer,
        Pass {
            setup_ns,
            wall_ns,
            attempted: replay.len() as u64,
            failed,
            latencies_ns,
            inputs_rss_kb,
            ..Pass::default()
        },
    )
}

pub fn churn(ctx: &Ctx) -> Result<Pass, String> {
    let spec = CHURN.scaled(ctx.scale);
    let started = Instant::now();
    let edges = generate(spec, ctx.input_seed());
    let inputs_rss_kb = proc_status_kb("VmRSS");
    let window = spec.transactions * CHURN_WINDOW / CHURN.transactions;
    let mut engine = bootstrap(&edges[..window])?;
    let setup_ns = started.elapsed().as_nanos() as u64;

    // Step i admits transaction window+i and expires transaction i, at
    // transaction granularity: an expiry removes that transaction's
    // weight, not the whole accumulated pair.
    let steps = edges.len() - window;
    let mut latencies_ns = Vec::with_capacity(steps);
    let (mut insert_ns, mut delete_ns) = (0u64, 0u64);
    let mut failed = 0u64;
    let mut tracer = Tracer::new(ctx.traced, Instant::now());
    let ((), wall_ns) = tracer.timed("pass", 0, |tracer| {
        for i in 0..steps {
            let (src, dst, raw) = edges[window + i];
            let (inserted, admit_ns) =
                tracer.timed("engine.insert", i as u64, |_| engine.insert_edge(src, dst, raw));
            let (src, dst, raw) = edges[i];
            let (deleted, expire_ns) = tracer
                .timed("engine.delete", i as u64, |_| engine.delete_transaction(src, dst, raw));
            failed += u64::from(inserted.is_err()) + u64::from(deleted.is_err());
            insert_ns += admit_ns;
            delete_ns += expire_ns;
            latencies_ns.push(admit_ns + expire_ns);
        }
    });

    let layers = vec![
        ("engine.insert_ns_per_edge", insert_ns as f64 / steps as f64),
        ("engine.delete_ns_per_edge", delete_ns as f64 / steps as f64),
    ];
    finish(
        ctx,
        engine,
        &edges,
        layers,
        tracer,
        Pass {
            setup_ns,
            wall_ns,
            attempted: 2 * steps as u64,
            failed,
            latencies_ns,
            inputs_rss_kb,
            ..Pass::default()
        },
    )
}

/// The shared tail of both workloads: exactness against a static peel
/// of the engine's own final graph, then the layers read from outside.
fn finish(
    ctx: &Ctx,
    mut engine: Engine,
    edges: &[Edge],
    mut layers: Vec<(&'static str, f64)>,
    tracer: Tracer,
    mut pass: Pass,
) -> Result<Pass, String> {
    pass.memory = Memory::read();
    let detection = engine.detect();
    let fresh = peel(engine.graph());
    check_detection(
        "incremental detection vs static peel",
        engine.community(detection),
        detection.density,
        fresh.community(),
        fresh.best_density,
    )?;
    pass.applied = pass.attempted - pass.failed;
    pass.input_digest = digest(edges);
    pass.resident_edges = engine.graph().num_edges() as u64;

    let started = Instant::now();
    for _ in 0..1000 {
        std::hint::black_box(engine.detect());
    }
    let detect_ns = started.elapsed().as_nanos() as f64 / 1000.0;
    let ReorderStats { windows, moved, queued, edges_scanned } = engine.total_reorder_stats();
    let ops = pass.attempted as f64;
    let mut sorted = pass.latencies_ns.clone();
    sorted.sort_unstable();
    layers.extend([
        ("engine.detect_ns", detect_ns),
        // One thread, nothing queued: the reorder is the call.
        ("engine.reorder_p50_ns", percentile(&sorted, 0.50) as f64),
        ("engine.reorder_p99_ns", percentile(&sorted, 0.99) as f64),
        ("engine.busy_share", sorted.iter().sum::<u64>() as f64 / pass.wall_ns as f64),
        ("reorder.windows", windows as f64),
        ("reorder.moved_per_edge", moved as f64 / ops),
        ("reorder.queued_per_edge", queued as f64 / ops),
        ("reorder.edges_scanned_per_edge", edges_scanned as f64 / ops),
    ]);
    if ctx.traced {
        let members = engine.community(detection).to_vec();
        graph_layers(engine.graph(), &members, median_u64(&pass.latencies_ns), &mut layers);
    }
    pass.layers = layers;
    pass.spans = tracer.into_spans();
    Ok(pass)
}
