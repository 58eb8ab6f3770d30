//! Integration tests of the sharded parallel detection runtime across
//! the full stack: generated workloads (spade-gen) streaming through N
//! parallel engines (spade-core shard module) with community-aware
//! routing, validated against the single-engine service.

use spade::core::{GroupingConfig, SpadeEngine, SpadeService, WeightedDensity};
use spade::gen::fraud::{FraudInjector, FraudInjectorConfig};
use spade::gen::transactions::{TransactionStream, TransactionStreamConfig};
use spade::graph::VertexId;
use spade::shard::{PartitionStrategy, ShardedConfig, ShardedSpadeService};
use std::collections::HashSet;

fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// Background noise plus a dense ring on fresh accounts — the canonical
/// detection workload, fully deterministic.
fn ring_stream() -> Vec<(VertexId, VertexId, f64)> {
    let mut edges = Vec::new();
    for i in 0..40u32 {
        edges.push((v(i), v(i + 1), 1.0));
    }
    for a in 200..205u32 {
        for b in 200..205u32 {
            if a != b {
                edges.push((v(a), v(b), 40.0));
            }
        }
    }
    // More background after the burst, so shutdown ordering matters.
    for i in 50..70u32 {
        edges.push((v(i), v(i + 2), 0.5));
    }
    edges
}

#[test]
fn four_shards_find_the_same_ring_as_one_engine() {
    let stream = ring_stream();

    let single = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 256);
    for &(a, b, w) in &stream {
        assert!(single.submit(a, b, w));
    }
    let want = single.shutdown();

    let sharded = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(4));
    assert_eq!(sharded.num_shards(), 4);
    for &(a, b, w) in &stream {
        assert!(sharded.submit(a, b, w));
    }
    let got = sharded.shutdown();

    // The connectivity partitioner keeps the ring co-resident, so the
    // owning shard's detection is exactly the single-engine detection.
    assert_eq!(got.best.size, want.size);
    assert!((got.best.density - want.density).abs() < 1e-12);
    let got_members: HashSet<u32> = got.best.members.iter().map(|m| m.0).collect();
    let want_members: HashSet<u32> = want.members.iter().map(|m| m.0).collect();
    assert_eq!(got_members, want_members);
    assert!(want_members.iter().all(|m| (200..205).contains(m)));
}

#[test]
fn sharded_runtime_recovers_injected_fraud_from_generated_stream() {
    // The Fig. 9a protocol through the sharded runtime: a Zipf
    // marketplace stream with labeled fraud bursts; the merged global
    // detection must surface labeled fraudsters.
    let base = TransactionStream::generate(&TransactionStreamConfig {
        customers: 800,
        merchants: 250,
        transactions: 8_000,
        seed: 41,
        ..Default::default()
    });
    let injected = FraudInjector::inject(
        &base,
        &FraudInjectorConfig {
            instances_per_pattern: 1,
            transactions_per_instance: 220,
            amount: 500.0,
            ..Default::default()
        },
    );
    let config = ShardedConfig {
        shards: 4,
        strategy: PartitionStrategy::ConnectivityWithSpill { max_component: 256 },
        ..Default::default()
    };
    let service = ShardedSpadeService::spawn(WeightedDensity, config);
    for e in &injected.edges {
        assert!(service.submit(e.src, e.dst, e.raw));
    }
    let global = service.shutdown();
    assert_eq!(global.total_updates, injected.edges.len() as u64);

    let fraud_accounts: HashSet<u32> =
        injected.instances.iter().flat_map(|i| i.members.iter().map(|m| m.0)).collect();
    let caught = global.best.members.iter().filter(|m| fraud_accounts.contains(&m.0)).count();
    assert!(
        caught * 2 > global.best.size.max(1),
        "global densest community must be dominated by labeled fraudsters \
         ({caught}/{} members)",
        global.best.size
    );
}

#[test]
fn shutdown_drains_all_shards_and_aggregates_updates_exactly() {
    for shards in [1usize, 2, 4, 7] {
        let service =
            ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(shards));
        let stream = ring_stream();
        for &(a, b, w) in &stream {
            assert!(service.submit(a, b, w));
        }
        let global = service.shutdown();
        assert_eq!(
            global.total_updates,
            stream.len() as u64,
            "{shards} shards lost updates on shutdown"
        );
    }
}

#[test]
fn grouped_sharded_shutdown_flushes_every_buffer() {
    // With edge grouping on, benign edges sit in per-shard buffers;
    // shutdown must drain them so the aggregate covers every submission.
    let config = ShardedConfig {
        shards: 3,
        grouping: Some(GroupingConfig::default()),
        ..Default::default()
    };
    let service = ShardedSpadeService::spawn_with(config, |_| {
        let mut engine = SpadeEngine::new(WeightedDensity);
        for a in 500..503u32 {
            for b in 500..503u32 {
                if a != b {
                    engine.insert_edge(v(a), v(b), 30.0).unwrap();
                }
            }
        }
        engine
    });
    let stream = ring_stream();
    for &(a, b, w) in &stream {
        assert!(service.submit(a, b, w));
    }
    let global = service.shutdown();
    assert_eq!(global.total_updates, stream.len() as u64);
    // Every shard's final snapshot reflects its full share.
    let per_shard: u64 = global.top.iter().map(|s| s.detection.updates_applied).sum();
    assert_eq!(per_shard, stream.len() as u64, "top-k must cover all shards here");
}

#[test]
fn ten_thousand_edge_burst_coalesces_publishes_and_loses_nothing() {
    // A 10k burst through the coalescing sharded runtime: every
    // submission must be accounted for on shutdown, and the workers must
    // have amortized publishing (far fewer snapshot swaps than updates)
    // — the drain-coalescing win, observable end to end.
    let config = ShardedConfig { shards: 4, queue_capacity: 2048, ..Default::default() };
    assert!(config.coalesce > 1, "coalescing must be on by default");
    let service = ShardedSpadeService::spawn(WeightedDensity, config);
    let total: u32 = 10_000;
    for i in 0..total {
        // Zipf-ish self-similar traffic plus a hot ring every 1000th
        // submission, so bursts repeatedly hit the same communities.
        let (a, b, w) = if i % 1_000 < 20 {
            (3_000 + (i % 5), 3_000 + ((i + 1 + i / 1_000) % 5), 50.0)
        } else {
            (i % 700, 700 + (i * 13 % 350), 1.0 + (i % 7) as f64)
        };
        assert!(service.submit(v(a), v(b), w));
    }
    // Wait for the drain (bounded, so a worker panic fails the test
    // instead of hanging CI), then read the counters (stats are gone
    // after shutdown).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        assert!(std::time::Instant::now() < deadline, "shards failed to drain 10k submissions");
        let stats = service.stats();
        let applied: u64 = stats.iter().map(|s| s.service.updates_applied).sum();
        if applied >= total as u64 {
            let publishes: u64 = stats.iter().map(|s| s.service.publishes).sum();
            assert!(
                publishes < total as u64,
                "coalescing must amortize publishing ({publishes} publishes for {total} updates)"
            );
            // Blocks 4 and 9 of the ring generator degenerate to
            // self-loops (20 each): rejected, counted, never fatal.
            let rejected: u64 = stats.iter().map(|s| s.service.rejected).sum();
            assert_eq!(rejected, 40, "malformed submissions must be counted exactly");
            break;
        }
        std::thread::yield_now();
    }
    let global = service.shutdown();
    assert_eq!(global.total_updates, total as u64, "shutdown drained inexactly");
    assert!(global.best.density > 10.0, "the hot ring must dominate the global detection");
}

#[test]
fn hash_partitioning_still_aggregates_exactly_and_detects_something() {
    let config = ShardedConfig {
        shards: 4,
        strategy: PartitionStrategy::HashBySource,
        ..Default::default()
    };
    let service = ShardedSpadeService::spawn(WeightedDensity, config);
    let stream = ring_stream();
    for &(a, b, w) in &stream {
        assert!(service.submit(a, b, w));
    }
    let global = service.shutdown();
    assert_eq!(global.total_updates, stream.len() as u64);
    // Hash routing may split the ring across shards (detection density is
    // diluted but never zero — each shard still sees a dense slice).
    assert!(global.best.density > 1.0);
}

#[test]
fn repair_pass_restores_hash_split_ring_to_single_engine_answer() {
    let stream = ring_stream();

    let single = SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 256);
    for &(a, b, w) in &stream {
        assert!(single.submit(a, b, w));
    }
    let want = single.shutdown();
    let want_members: HashSet<u32> = want.members.iter().map(|m| m.0).collect();

    let config = ShardedConfig {
        shards: 4,
        strategy: PartitionStrategy::HashBySource,
        ..Default::default()
    };
    let sharded = ShardedSpadeService::spawn(WeightedDensity, config);
    for &(a, b, w) in &stream {
        assert!(sharded.submit(a, b, w));
    }
    let (global, repaired) = sharded.shutdown_repaired();
    assert_eq!(global.total_updates, stream.len() as u64);
    assert_eq!(repaired.detection.updates_applied, stream.len() as u64);

    // The repaired snapshot is exactly the single-engine detection, even
    // though hash routing scattered the ring's edges across all shards.
    assert_eq!(repaired.detection.size, want.size);
    assert!((repaired.detection.density - want.density).abs() < 1e-9);
    let got_members: HashSet<u32> = repaired.detection.members.iter().map(|m| m.0).collect();
    assert_eq!(got_members, want_members);
    // And it can only improve on the diluted per-shard maximum.
    assert!(repaired.detection.density >= global.best.density - 1e-9);
    assert!(repaired.detection.density >= repaired.baseline_density - 1e-9);
}

#[test]
fn overlapping_shard_views_are_deduped_in_the_global_ranking() {
    // Every shard pre-seeded with the SAME community: the raw ranking
    // reports it once per shard, the distinct ranking exactly once, and
    // unique_members counts each account once.
    let config = ShardedConfig {
        shards: 3,
        strategy: PartitionStrategy::HashBySource,
        ..Default::default()
    };
    let service = ShardedSpadeService::spawn_with(config, |_| {
        let mut engine = SpadeEngine::new(WeightedDensity);
        for a in 900..904u32 {
            for b in 900..904u32 {
                if a != b {
                    engine.insert_edge(v(a), v(b), 40.0).unwrap();
                }
            }
        }
        engine
    });
    for i in 0..6u32 {
        assert!(service.submit(v(i), v(i + 1), 0.5));
    }
    let global = service.shutdown();
    assert_eq!(global.top.len(), 3, "raw ranking keeps every shard");
    assert_eq!(global.distinct.len(), 1, "identical views collapse to the densest");
    assert_eq!(global.unique_members, 4, "members are counted once, not once per shard");
    assert_eq!(global.distinct[0].shard, global.best_shard);
}
