//! Multi-core production shape: the sharded parallel detection runtime.
//!
//! A power-law marketplace stream with an injected fraud ring is routed
//! across N worker engines by a hash of each edge's source account, so
//! ingest spreads over all cores. A ring whose accounts hash to different
//! shards is split across them; a moderator polls the merged global view
//! and the per-shard statistics while ingest runs, and the cross-shard
//! repair pass at shutdown puts the ring back together.
//!
//! Run with: `cargo run --release --example sharded_service`

use spade::core::WeightedDensity;
use spade::gen::fraud::{FraudInjector, FraudInjectorConfig};
use spade::gen::transactions::{TransactionStream, TransactionStreamConfig};
use spade::shard::{ShardedConfig, ShardedSpadeService};

fn main() {
    // A Zipf-distributed customer->merchant stream with labeled fraud
    // bursts injected near the end (the paper's evaluation protocol).
    let base = TransactionStream::generate(&TransactionStreamConfig {
        customers: 2_000,
        merchants: 600,
        transactions: 20_000,
        seed: 2024,
        ..Default::default()
    });
    let injected = FraudInjector::inject(
        &base,
        &FraudInjectorConfig {
            instances_per_pattern: 1,
            transactions_per_instance: 250,
            amount: 400.0,
            ..Default::default()
        },
    );
    println!(
        "stream: {} transactions, {} labeled fraudulent",
        injected.edges.len(),
        injected.edges.iter().filter(|e| e.is_fraud()).count(),
    );

    let service = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(4));
    println!("spawned {} shard workers (hash-by-source routing)", service.num_shards());

    for e in &injected.edges {
        service.submit(e.src, e.dst, e.raw);
    }
    service.flush();

    // A moderator polls the merged view without touching ingest.
    let fraud_accounts: std::collections::HashSet<u32> =
        injected.instances.iter().flat_map(|i| i.members.iter().map(|m| m.0)).collect();
    let mut global = service.current_detection();
    for _ in 0..400 {
        global = service.current_detection();
        if global.best.members.iter().any(|m| fraud_accounts.contains(&m.0)) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    println!(
        "moderator sees: shard {} holds {} members at density {:.1} ({} updates cluster-wide)",
        global.best_shard, global.best.size, global.best.density, global.total_updates,
    );

    for s in service.stats() {
        println!(
            "  shard {}: {} updates, queue depth {}, {} publishes, local detection {} @ {:.1}",
            s.shard,
            s.service.updates_applied,
            s.service.queue_depth,
            s.service.publishes,
            s.service.detection_size,
            s.service.detection_density,
        );
    }

    // Shutdown drains every shard after one repair pass: the shards'
    // candidate regions are unioned and re-peeled, so a ring split by
    // routing is whole again in the repaired detection.
    let (final_global, repaired) = service.shutdown_repaired();
    assert_eq!(final_global.total_updates, injected.edges.len() as u64);
    let detection = &repaired.detection;
    let caught = detection.members.iter().filter(|m| fraud_accounts.contains(&m.0)).count();
    println!(
        "final: best single shard {:.1}, repaired community of {} members (density {:.1}), \
         {}/{} are labeled fraudsters",
        repaired.baseline_density, detection.size, detection.density, caught, detection.size,
    );
    assert!(detection.density >= final_global.best.density - 1e-9);
    assert!(caught > 0, "the injected ring must surface in the repaired view");
}
