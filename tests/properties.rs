//! Property-based tests over the full stack: arbitrary update scripts must
//! keep the incremental engine bit-equivalent to a from-scratch peel, the
//! detection indexes must agree, and snapshots must round-trip — the
//! paper's correctness claims (§4.1/§4.2/Appendix A/D) as executable
//! properties.

use proptest::prelude::*;
use spade::core::{
    load_engine, peel, save_engine, GroupingConfig, IngestConfig, KineticIndex, SpadeConfig,
    SpadeEngine, SpadeService, TimeWindowDetector, WeightedDensity, WindowRecord,
};
use spade::graph::VertexId;
use spade::shard::{PartitionStrategy, ShardedConfig, ShardedSpadeService};

fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// One step of an arbitrary update script against a small vertex universe.
#[derive(Clone, Debug)]
enum Op {
    Insert(u32, u32, u8),
    InsertBatch(Vec<(u32, u32, u8)>),
    Delete(u32, u32),
    SetVertexSusp(u32, u8),
}

fn op_strategy(n: u32) -> impl Strategy<Value = Op> {
    let edge = (0..n, 0..n, 1u8..6);
    prop_oneof![
        5 => edge.clone().prop_map(|(a, b, w)| Op::Insert(a, b, w)),
        2 => proptest::collection::vec(edge, 1..8).prop_map(Op::InsertBatch),
        2 => (0..n, 0..n).prop_map(|(a, b)| Op::Delete(a, b)),
        1 => (0..n, 0u8..4).prop_map(|(a, w)| Op::SetVertexSusp(a, w)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flagship invariant: after ANY script of insertions (single and
    /// batched), deletions, and vertex-suspiciousness updates, the
    /// incrementally maintained peeling sequence equals a from-scratch
    /// greedy peel of the final graph, and the detection matches.
    #[test]
    fn engine_stays_equivalent_to_static_peel(
        ops in proptest::collection::vec(op_strategy(10), 1..40)
    ) {
        let mut engine = SpadeEngine::new(WeightedDensity);
        for op in ops {
            match op {
                Op::Insert(a, b, w) => {
                    if a != b {
                        engine.insert_edge(v(a), v(b), w as f64).unwrap();
                    }
                }
                Op::InsertBatch(edges) => {
                    let batch: Vec<_> = edges
                        .into_iter()
                        .filter(|(a, b, _)| a != b)
                        .map(|(a, b, w)| (v(a), v(b), w as f64))
                        .collect();
                    if !batch.is_empty() {
                        engine.insert_batch(&batch).unwrap();
                    }
                }
                Op::Delete(a, b) => {
                    if engine.graph().contains_vertex(v(a))
                        && engine.graph().contains_vertex(v(b))
                        && engine.graph().contains_edge(v(a), v(b))
                    {
                        engine.delete_edge(v(a), v(b)).unwrap();
                    }
                }
                Op::SetVertexSusp(a, w) => {
                    engine.set_vertex_suspiciousness(v(a), w as f64).unwrap();
                }
            }
        }
        if engine.graph().num_vertices() == 0 {
            return Ok(());
        }
        let fresh = peel(engine.graph());
        prop_assert_eq!(engine.state().logical_order(), fresh.order);
        let det = engine.detect();
        prop_assert!((det.density - fresh.best_density).abs() < 1e-9);
        engine.state().validate_greedy(engine.graph(), 1e-9);
        engine.graph().check_invariants().unwrap();
    }

    /// Kinetic detection equals the O(n) scan under arbitrary scripts.
    #[test]
    fn kinetic_backend_equals_scan_backend(
        ops in proptest::collection::vec(op_strategy(8), 1..30)
    ) {
        let mut engine = SpadeEngine::new(WeightedDensity);
        for op in ops {
            let (a, b, w) = match op {
                Op::Insert(a, b, w) => (a, b, w),
                Op::InsertBatch(edges) if !edges.is_empty() => edges[0],
                _ => continue,
            };
            if a == b {
                continue;
            }
            let d1 = engine.insert_edge(v(a), v(b), w as f64).unwrap();
            let d2 = engine.state().scan_detect();
            prop_assert_eq!(d1.size, d2.size);
            prop_assert!((d1.density - d2.density).abs() < 1e-9);
        }
    }

    /// The kinetic index agrees with a direct prefix-sum oracle under
    /// arbitrary append/rewrite scripts (shrinking finds tiny
    /// counterexamples if the certificates are ever wrong).
    #[test]
    fn kinetic_index_matches_prefix_sum_oracle(
        init in proptest::collection::vec(0u8..20, 1..30),
        scripts in proptest::collection::vec(
            (0usize..30, proptest::collection::vec(0u8..20, 1..5)), 0..20
        )
    ) {
        let mut deltas: Vec<f64> = init.iter().map(|&d| d as f64).collect();
        let mut idx = KineticIndex::from_deltas(&deltas);
        for (lo, vals) in scripts {
            let lo = lo % deltas.len();
            let len = vals.len().min(deltas.len() - lo);
            if len == 0 {
                continue;
            }
            let vals: Vec<f64> = vals[..len].iter().map(|&d| d as f64).collect();
            idx.rewrite_deltas(lo, &vals);
            deltas[lo..lo + len].copy_from_slice(&vals);

            // Oracle: max over prefix sums / size, positive densities
            // only, ties -> larger (the detection-layer convention).
            let mut best = (0usize, 0.0f64);
            let mut sum = 0.0;
            for (i, &d) in deltas.iter().enumerate() {
                sum += d;
                let g = sum / (i + 1) as f64;
                if g > 0.0 && g >= best.1 {
                    best = (i + 1, g);
                }
            }
            let got = idx.best();
            prop_assert!((got.density - best.1).abs() < 1e-9,
                "density {} vs oracle {}", got.density, best.1);
            prop_assert_eq!(got.size, best.0);
        }
    }

    /// The drained/coalesced service path is bit-identical to per-edge
    /// insertion on a solo engine: for random interleavings (including
    /// malformed self-loops the worker must reject and keep serving),
    /// the worker's batch runs (§4.2) yield the same peeling sequence
    /// and the same final detection — the coalescing optimization is
    /// observationally pure, now exercised through the service layer.
    /// With `deadline: None` this is also the no-budget half of the
    /// scheduler property: a budget-free config never takes the
    /// spring-push wait, so the SLO scheduler IS plain drain-coalescing.
    #[test]
    fn coalesced_service_equals_per_edge_solo_engine(
        edges in proptest::collection::vec((0u32..12, 0u32..12, 1u8..7), 1..60),
        coalesce in 1usize..40,
        grouped in (0u8..2).prop_map(|x| x == 1),
    ) {
        let grouping = grouped.then(GroupingConfig::default);
        let service = SpadeService::spawn_with(
            SpadeEngine::new(WeightedDensity),
            grouping,
            IngestConfig { queue_capacity: 128, coalesce, deadline: None },
            "prop-coalesce".into(),
        );
        let mut submitted = 0u64;
        for &(a, b, w) in &edges {
            prop_assert!(service.submit(v(a), v(b), w as f64));
            submitted += 1;
        }
        let (det, engine) = service.shutdown_into_engine::<WeightedDensity>();
        let mut coalesced = engine.expect("worker hands the engine back");
        prop_assert_eq!(det.updates_applied, submitted);

        let mut solo = SpadeEngine::new(WeightedDensity);
        for &(a, b, w) in &edges {
            // The worker drops malformed transactions (self-loops here)
            // and keeps serving; mirror that per edge.
            let _ = solo.insert_edge(v(a), v(b), w as f64);
        }
        prop_assert_eq!(coalesced.state().logical_order(), solo.state().logical_order());
        let (got, want) = (coalesced.detect(), solo.detect());
        prop_assert_eq!(got.size, want.size);
        prop_assert_eq!(got.density.to_bits(), want.density.to_bits());
        prop_assert_eq!(det.size, want.size);
        // The published members are exactly the solo community.
        let published: Vec<VertexId> = det.members.to_vec();
        prop_assert_eq!(&published[..], solo.community(want));
    }

    /// Scheduler exactness under budgets: turning the spring-push
    /// scheduler ON (every transaction carries a budget) changes only
    /// WHEN batches apply, never WHAT they compute — the final peeling
    /// sequence and detection stay bit-identical to per-edge solo
    /// insertion, and under feasible offered load no admitted
    /// transaction's queue-wait sample exceeds its budget plus one
    /// batch-peel p99 (plus scheduler wakeup slop).
    #[test]
    fn budgeted_scheduler_is_exact_and_respects_budgets(
        edges in proptest::collection::vec((0u32..12, 0u32..12, 1u8..7), 1..50),
        coalesce in 1usize..40,
        budget_ms in 40u64..120,
        flush_early in (0u8..2).prop_map(|x| x == 1),
    ) {
        use std::time::{Duration, Instant};
        let budget = Duration::from_millis(budget_ms);
        let service = SpadeService::spawn_with(
            SpadeEngine::new(WeightedDensity),
            None,
            IngestConfig { queue_capacity: 128, coalesce, deadline: Some(budget) },
            "prop-budget".into(),
        );
        let mut submitted = 0u64;
        for &(a, b, w) in &edges {
            prop_assert!(service.submit(v(a), v(b), w as f64));
            submitted += 1;
        }
        if flush_early {
            // A flush wakes the spring wait immediately; otherwise the
            // final partial batch is held until its budget boundary.
            prop_assert!(service.flush());
        }
        let deadline = Instant::now() + budget + Duration::from_secs(10);
        while service.stats().updates_applied < submitted {
            prop_assert!(Instant::now() < deadline, "scheduler stalled past every budget");
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = service.metrics();
        let wait = &snap.histograms["spade_stage_queue_wait_ns"];
        prop_assert_eq!(wait.count, submitted);
        let peel_p99 = Duration::from_nanos(snap.histograms["spade_stage_reorder_ns"].p99());
        let bound = budget + peel_p99 + Duration::from_millis(250);
        prop_assert!(
            wait.max <= bound.as_nanos() as u64,
            "queue wait {}ns exceeds budget {}ms + peel p99 {}ns + slop",
            wait.max, budget_ms, peel_p99.as_nanos()
        );
        if flush_early {
            // With the wait cut short, nothing comes near its budget.
            prop_assert_eq!(snap.counters["spade_deadline_miss_total"], 0);
        }

        let (det, engine) = service.shutdown_into_engine::<WeightedDensity>();
        let mut budgeted = engine.expect("worker hands the engine back");
        prop_assert_eq!(det.updates_applied, submitted);
        let mut solo = SpadeEngine::new(WeightedDensity);
        for &(a, b, w) in &edges {
            let _ = solo.insert_edge(v(a), v(b), w as f64);
        }
        prop_assert_eq!(budgeted.state().logical_order(), solo.state().logical_order());
        let (got, want) = (budgeted.detect(), solo.detect());
        prop_assert_eq!(got.size, want.size);
        prop_assert_eq!(got.density.to_bits(), want.density.to_bits());
    }

    /// Snapshot round-trips preserve the engine state exactly.
    #[test]
    fn snapshot_roundtrip(
        edges in proptest::collection::vec((0u32..8, 0u32..8, 1u8..6), 1..25)
    ) {
        let mut engine = SpadeEngine::new(WeightedDensity);
        for (a, b, w) in edges {
            if a != b {
                engine.insert_edge(v(a), v(b), w as f64).unwrap();
            }
        }
        let mut buf = Vec::new();
        save_engine(&engine, &mut buf).unwrap();
        let mut restored =
            load_engine(WeightedDensity, SpadeConfig::default(), buf.as_slice()).unwrap();
        prop_assert_eq!(restored.state().logical_order(), engine.state().logical_order());
        let (d1, d2) = (restored.detect(), engine.cached_detection());
        prop_assert_eq!(d1.size, d2.size);
        prop_assert!((d1.density - d2.density).abs() < 1e-9);
    }

    /// Cross-shard repair recovers single-engine exactness under hash
    /// routing: for any generated background traffic, any planted
    /// dominant ring (whose ids hash across shards and split it), and
    /// any shard count, the repaired detection (a) is never less dense
    /// than the best per-shard view — the provable floor — and (b)
    /// equals the solo engine's detection exactly, members and density.
    #[test]
    fn repaired_detection_matches_solo_engine(
        background in proptest::collection::vec((0u32..40, 0u32..40, 1u8..10), 0..40),
        links in proptest::collection::vec((0u32..40, 0u32..6), 0..4),
        base in 100u32..160,
        stride in 1u32..40,
        ring in 3usize..6,
        shards in 2usize..5,
    ) {
        // Planted ring: every ordered pair at weight 50 — dominant over
        // the background (≤ 40 edges of ≤ 1.0 plus ≤ 4 weak links), so
        // every shard's slice of the ring is locally densest and the
        // solo detection is exactly the ring.
        let ring_ids: Vec<u32> = (0..ring as u32).map(|i| base + i * stride).collect();
        let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
        for &(a, b, w) in &background {
            if a != b {
                edges.push((v(a), v(b), w as f64 / 10.0));
            }
        }
        for &(bg, r) in &links {
            edges.push((v(bg), v(ring_ids[r as usize % ring_ids.len()]), 0.1));
        }
        for &a in &ring_ids {
            for &b in &ring_ids {
                if a != b {
                    edges.push((v(a), v(b), 50.0));
                }
            }
        }

        let mut solo = SpadeEngine::new(WeightedDensity);
        for &(a, b, w) in &edges {
            solo.insert_edge(a, b, w).unwrap();
        }
        let want = solo.detect();
        let mut want_members: Vec<u32> = solo.community(want).iter().map(|m| m.0).collect();
        want_members.sort_unstable();

        let service = ShardedSpadeService::spawn(
            WeightedDensity,
            ShardedConfig {
                shards,
                strategy: PartitionStrategy::HashBySource,
                ..Default::default()
            },
        );
        for &(a, b, w) in &edges {
            prop_assert!(service.submit(a, b, w));
        }
        let repaired = service.repair();
        let global = service.shutdown();

        // (a) the provable floor: repaired ≥ every per-shard view.
        prop_assert!(repaired.detection.density >= repaired.baseline_density - 1e-9);
        prop_assert!(repaired.detection.density >= global.best.density - 1e-9);
        // (b) exactness: the repaired community is the solo community.
        let got: Vec<u32> = repaired.detection.members.iter().map(|m| m.0).collect();
        prop_assert_eq!(got, want_members);
        prop_assert!(
            (repaired.detection.density - want.density).abs() < 1e-9,
            "repaired {} vs solo {}",
            repaired.detection.density,
            want.density
        );
    }

    /// Arbitrary time-window moves match a fresh bootstrap of the window.
    #[test]
    fn time_windows_match_fresh_bootstrap(
        recs in proptest::collection::vec((0u32..6, 0u32..6, 1u8..5, 0u64..40), 1..30),
        moves in proptest::collection::vec((0u64..45, 0u64..45), 1..8)
    ) {
        let records: Vec<WindowRecord> = recs
            .into_iter()
            .filter(|(a, b, _, _)| a != b)
            .map(|(a, b, w, ts)| WindowRecord { src: v(a), dst: v(b), c: w as f64, ts })
            .collect();
        if records.is_empty() {
            return Ok(());
        }
        let mut detector = TimeWindowDetector::new(records.clone());
        let mut sorted = records;
        sorted.sort_by_key(|r| r.ts);
        for (a, b) in moves {
            let (ts, te) = (a.min(b), a.max(b));
            let (det, _) = detector.detect_window(ts, te).unwrap();
            let fresh = SpadeEngine::bootstrap(
                WeightedDensity,
                SpadeConfig::default(),
                sorted
                    .iter()
                    .filter(|r| r.ts >= ts && r.ts < te)
                    .map(|r| (r.src, r.dst, r.c)),
            )
            .unwrap();
            let want = peel(fresh.graph());
            let want_density = if want.order.is_empty() { 0.0 } else { want.best_density };
            prop_assert!(
                (det.density - want_density).abs() < 1e-9,
                "window [{}, {}): {} vs {}",
                ts,
                te,
                det.density,
                want_density
            );
        }
    }
}
