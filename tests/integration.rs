//! Cross-crate integration tests: generated workloads (spade-gen) flowing
//! through the engine (spade-core) over the graph substrate (spade-graph),
//! measured by spade-metrics — the full pipeline the benchmark harness
//! uses, verified end to end.

use spade::core::{
    enumerate_static, peel, EdgeGrouper, EnumerationConfig, GroupingConfig, SpadeConfig,
    SpadeEngine, TimeWindowDetector, UnweightedDensity, WeightedDensity, WindowRecord,
};
use spade::gen::datasets::DatasetSpec;
use spade::gen::fraud::{FraudInjector, FraudInjectorConfig};
use spade::gen::transactions::{batches, TransactionStream, TransactionStreamConfig};
use spade::metrics::{LatencyRecorder, PreventionTracker, Summary};

fn small_stream(seed: u64) -> TransactionStream {
    TransactionStream::generate(&TransactionStreamConfig {
        customers: 500,
        merchants: 150,
        transactions: 5_000,
        seed,
        ..Default::default()
    })
}

#[test]
fn dataset_replay_keeps_incremental_equal_to_static() {
    // The Fig. 10 protocol at miniature scale: bootstrap on 90%, replay
    // 10% one edge at a time, and verify the engine state is the exact
    // greedy peel of the final graph.
    let spec = DatasetSpec::table3()[5]; // Wiki-Vote surrogate
    let data = spec.generate(0.02, 99);
    let mut engine = SpadeEngine::bootstrap(
        UnweightedDensity,
        SpadeConfig::default(),
        data.initial.iter().map(|e| (e.src, e.dst, e.raw)),
    )
    .expect("bootstrap");
    for e in &data.increments {
        engine.insert_edge(e.src, e.dst, e.raw).expect("insert");
    }
    let fresh = peel(engine.graph());
    assert_eq!(engine.state().logical_order(), fresh.order);
    let det = engine.detect();
    assert!((det.density - fresh.best_density).abs() < 1e-9);
}

#[test]
fn batch_sizes_converge_to_identical_state() {
    // Table 4's invariant: any batch size yields the same final peeling
    // state (only the work differs).
    let stream = small_stream(17);
    let (initial, increments) = stream.split(0.9);
    let mut reference: Option<Vec<spade::graph::VertexId>> = None;
    for batch_size in [1usize, 7, 64, 1000] {
        let mut engine = SpadeEngine::bootstrap(
            WeightedDensity,
            SpadeConfig::default(),
            initial.iter().map(|e| (e.src, e.dst, e.raw)),
        )
        .expect("bootstrap");
        for chunk in batches(increments, batch_size) {
            let edges: Vec<_> = chunk.iter().map(|e| (e.src, e.dst, e.raw)).collect();
            engine.insert_batch(&edges).expect("batch insert");
        }
        let order = engine.state().logical_order();
        match &reference {
            None => reference = Some(order),
            Some(want) => assert_eq!(&order, want, "batch size {batch_size} diverged"),
        }
    }
}

#[test]
fn grouping_pipeline_prevents_fraud() {
    // The Fig. 9a pipeline: labeled stream -> grouping -> detection ->
    // prevention accounting.
    let base = small_stream(5);
    let injected = FraudInjector::inject(
        &base,
        &FraudInjectorConfig {
            instances_per_pattern: 1,
            transactions_per_instance: 200,
            amount: 500.0,
            inject_after_fraction: 0.5,
            ..Default::default()
        },
    );
    let mut engine = SpadeEngine::new(WeightedDensity);
    let mut grouper = EdgeGrouper::new(GroupingConfig::default());
    let mut prevention = PreventionTracker::new();
    let mut latency = LatencyRecorder::new();

    let mut account_instance = std::collections::HashMap::new();
    for info in &injected.instances {
        for m in &info.members {
            account_instance.insert(m.0, info.instance);
        }
    }
    let mut queued: Vec<u64> = Vec::new();
    for e in &injected.edges {
        if let Some(l) = e.label {
            prevention.note_transaction(l.instance, e.timestamp);
        }
        queued.push(e.timestamp);
        let outcome = grouper.submit(&mut engine, e.src, e.dst, e.raw).expect("submit");
        if outcome.flushed.is_some() {
            for generated in queued.drain(..) {
                latency.record(generated, e.timestamp, e.timestamp);
            }
            let det = engine.cached_detection();
            for m in engine.community(det) {
                if let Some(&inst) = account_instance.get(&m.0) {
                    prevention.note_detection(inst, e.timestamp);
                }
            }
        }
    }
    grouper.flush(&mut engine).expect("flush");
    assert!(prevention.num_detected() >= 1, "fraud must be caught");
    assert!(prevention.overall_ratio() > 0.0, "some transactions must be prevented");
    assert!(latency.count() > 0);
    let summary = Summary::of_u64(latency.latencies());
    assert!(summary.p50 <= summary.p99);
}

#[test]
fn enumeration_recovers_injected_instances() {
    let base = small_stream(23);
    let injected = FraudInjector::inject(
        &base,
        &FraudInjectorConfig {
            instances_per_pattern: 1,
            transactions_per_instance: 250,
            amount: 600.0,
            ..Default::default()
        },
    );
    let mut engine = SpadeEngine::new(WeightedDensity);
    for e in &injected.edges {
        engine.insert_edge(e.src, e.dst, e.raw).expect("insert");
    }
    let det = engine.detect();
    let found = enumerate_static(
        engine.graph(),
        EnumerationConfig {
            max_instances: 6,
            min_density: det.density / 30.0,
            ..Default::default()
        },
    );
    assert!(!found.is_empty());
    // At least one enumerated community must recover most of an injected
    // instance's member set.
    let best_recall = injected
        .instances
        .iter()
        .map(|gt| {
            found
                .iter()
                .map(|inst| {
                    let members: std::collections::HashSet<u32> =
                        inst.members.iter().map(|u| u.0).collect();
                    gt.members.iter().filter(|m| members.contains(&m.0)).count() as f64
                        / gt.members.len() as f64
                })
                .fold(0.0f64, f64::max)
        })
        .fold(0.0f64, f64::max);
    assert!(best_recall >= 0.8, "best recall {best_recall} too low");
}

#[test]
fn time_window_detector_over_generated_stream() {
    let stream = small_stream(31);
    let records: Vec<WindowRecord> = stream
        .edges
        .iter()
        .map(|e| WindowRecord { src: e.src, dst: e.dst, c: e.raw, ts: e.timestamp })
        .collect();
    let horizon = records.last().unwrap().ts;
    let mut detector = TimeWindowDetector::new(records.clone());
    // Slide a window across the stream; every answer must match a fresh
    // bootstrap of exactly that window.
    for (ts, te) in
        [(0, horizon / 3), (horizon / 4, horizon / 2), (horizon / 3, horizon), (0, horizon + 1)]
    {
        let (det, _) = detector.detect_window(ts, te).expect("window move");
        let fresh = SpadeEngine::bootstrap(
            WeightedDensity,
            SpadeConfig::default(),
            records.iter().filter(|r| r.ts >= ts && r.ts < te).map(|r| (r.src, r.dst, r.c)),
        )
        .expect("bootstrap");
        let want = peel(fresh.graph());
        assert!(
            (det.density - want.best_density).abs() < 1e-6,
            "window [{ts},{te}): {} vs {}",
            det.density,
            want.best_density
        );
    }
}

#[test]
fn detection_backends_agree_on_real_workload() {
    let stream = small_stream(47);
    let (initial, increments) = stream.split(0.9);
    let mut engine = SpadeEngine::bootstrap(
        WeightedDensity,
        SpadeConfig::default(),
        initial.iter().map(|e| (e.src, e.dst, e.raw)),
    )
    .expect("bootstrap");
    for e in increments {
        let a = engine.insert_edge(e.src, e.dst, e.raw).expect("insert");
        let b = engine.state().scan_detect();
        assert_eq!(a.size, b.size, "backend community sizes diverged");
        assert!((a.density - b.density).abs() < 1e-6);
    }
}

#[test]
fn facade_full_lifecycle() {
    use spade::core::SpadeBuilder;
    let stream = small_stream(61);
    let (initial, increments) = stream.split(0.9);
    let mut spade = SpadeBuilder::new()
        .name("DW")
        .esusp(|_, _, raw, _| raw)
        .turn_on_edge_grouping()
        .load_records(initial.iter().map(|e| (e.src, e.dst, e.raw)))
        .expect("load");
    for e in increments {
        spade.insert_edge(e.src, e.dst, e.raw).expect("insert");
    }
    let community = spade.detect().expect("detect");
    assert!(!community.is_empty());
    // After detect(), the buffer must be empty and the engine state a
    // valid greedy peel. DW amounts are continuous floats here, so the
    // incremental and from-scratch summation orders differ in the last
    // ulps and near-ties in the peeling order may resolve differently —
    // verify the greedy invariant within tolerance (the FD convention)
    // plus density agreement instead of bit equality.
    assert_eq!(spade.grouper().unwrap().buffered(), 0);
    spade.engine().state().validate_greedy(spade.engine().graph(), 1e-6);
    let fresh = peel(spade.engine().graph());
    let det = spade.engine().cached_detection();
    assert!((det.density - fresh.best_density).abs() < 1e-6);
}
