//! `shardd` — a minimal shard-server process for the distributed test
//! harness (`tests/distributed_exactness.rs`,
//! `tests/distributed_recovery.rs`).
//!
//! Hosts one `WeightedDensity` detection engine behind the protocol-v6
//! shard listener and prints the bound address as the first stdout line
//! (always port 0 → a fresh kernel-chosen port, so a restarted shard
//! never trips over a `TIME_WAIT` predecessor). The harness SIGKILLs
//! these processes mid-ingest on purpose; all state is in-memory by
//! design — recovery comes from the replica journal on a peer, not from
//! local persistence. Its worker's queue holds 4096 edges: a batch that
//! does not fit is admitted in prefixes as the worker drains.
//!
//! The full-featured operator-facing equivalent is `spade shard-serve`
//! in spade-cli; this binary exists so `CARGO_BIN_EXE_shardd` resolves
//! for the root package's integration tests without dragging the CLI's
//! argument surface into the fault-injection loop.

use spade::core::{SpadeEngine, SpadeService, WeightedDensity};
use spade::net::{ShardServer, ShardServerConfig};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let service = Arc::new(SpadeService::spawn(SpadeEngine::new(WeightedDensity), None, 4096));
    let server = ShardServer::spawn(Arc::clone(&service), &ShardServerConfig::default())
        .expect("shardd: bind 127.0.0.1:0");
    println!("{}", server.local_addr());
    std::io::stdout().flush().expect("shardd: flush bound address");
    while !server.stopping() {
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(server.into_service());
    let Ok(service) = Arc::try_unwrap(service) else {
        panic!("shardd: connection thread still live");
    };
    service.shutdown();
}
