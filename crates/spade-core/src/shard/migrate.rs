//! Live component migration: the routing-layer correctness fix for
//! stranded merges, and runtime skew adaptation in the same move.
//!
//! The connectivity partitioner pins each component to a home shard, but
//! routing is forward-only: when two already-homed components merge, the
//! losing side's earlier edges stay **stranded** on its old shard, so a
//! fraud ring assembled by such a merge is split across two shards and
//! its density diluted — exactly the failure mode hash routing has
//! everywhere (see `crate::shard::partition`). Real fraud workloads make
//! this worse, not rarer: fraud concentrates at points of compromise
//! (BreachRadar's hotspot finding), so the components that merge and the
//! shards that overload are precisely the ones that matter.
//!
//! A migration moves a component's slice between shards with the
//! extract → evict → replay primitive:
//!
//! 1. the **source** worker drains its queue, flushes its grouping
//!    buffer, extracts the induced subgraph over the component's members
//!    through the [`crate::persist::SubgraphSnapshot`] codec, and evicts
//!    that slice from its engine through the incremental deletion pass
//!    ([`crate::service::MigrationSlice`]);
//! 2. the **target** worker replays the slice: vertex suspiciousness
//!    installs max-wise, edge weights *accumulate* — a pair whose
//!    transactions were split across the shards by the home change sums
//!    back to the exact solo-engine weight;
//! 3. the partitioner's routing table is updated (`rehome` + routing
//!    epoch) **before** the source marker is enqueued, under the sharded
//!    runtime's routing lock, so every in-flight edge routed to the old
//!    home is already queued ahead of the eviction marker and drains into
//!    the slice — nothing is lost, nothing is double-counted.
//!
//! Two triggers drive the scheduler ([`MigrationPolicy`]):
//!
//! * **strand repair** — the partitioner records every home-vs-home
//!   merge as a [`crate::shard::partition::StrandEvent`]; each drained
//!   event moves the losing slice onto the surviving home, restoring
//!   single-engine exactness for the merged community;
//! * **load balancing** — when one shard's ingest counter runs
//!   [`MigrationPolicy::imbalance_ratio`] ahead of the mean (the
//!   [`crate::shard::ShardStats`] signal), the largest component homed
//!   there moves to the shard that is coldest by *windowed* load, with
//!   ties broken toward the smallest resident engine
//!   ([`crate::service::ServiceStats::edges_resident`]) — the SAD-F-style
//!   partition rebalance applied to pinned communities.

use spade_graph::VertexId;

/// Tuning of the migration scheduler.
#[derive(Clone, Copy, Debug)]
pub struct MigrationPolicy {
    /// Load trigger: a shard whose applied-update counter exceeds
    /// `imbalance_ratio × mean` is considered hot and sheds its largest
    /// pinned component. Values ≤ 1 disable the load trigger.
    pub imbalance_ratio: f64,
    /// Load moves only start once the runtime has applied at least this
    /// many updates in total — early traffic is always lumpy.
    pub min_updates: u64,
    /// Upper bound on load-balancing moves per pass (strand repairs are
    /// correctness fixes and are never capped).
    pub max_load_moves: usize,
}

impl Default for MigrationPolicy {
    fn default() -> Self {
        MigrationPolicy { imbalance_ratio: 1.75, min_updates: 2048, max_load_moves: 1 }
    }
}

/// Why a component was migrated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationTrigger {
    /// A home-vs-home merge left this slice stranded on the losing home.
    StrandRepair,
    /// The source shard ran ahead of the configured imbalance ratio.
    LoadBalance,
}

/// One completed component move.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationRecord {
    /// What triggered the move.
    pub trigger: MigrationTrigger,
    /// A member of the migrated component.
    pub member: VertexId,
    /// Source shard (slice evicted here).
    pub from: usize,
    /// Target shard (slice replayed here).
    pub to: usize,
    /// Vertices carried by the slice.
    pub vertices: usize,
    /// Edges carried by the slice.
    pub edges: usize,
    /// Edge suspiciousness carried by the slice.
    pub edge_weight: f64,
}

/// The product of one rebalance pass.
#[derive(Clone, Debug, Default)]
pub struct MigrationReport {
    /// Completed moves, in execution order.
    pub moves: Vec<MigrationRecord>,
    /// Strand events whose source shard turned out to hold nothing
    /// (already repaired, or the losing home never received an edge).
    pub skipped_empty: usize,
    /// The partitioner's routing-table revision after the pass.
    pub routing_epoch: u64,
}

impl MigrationReport {
    /// Total edges moved by this pass.
    pub fn edges_moved(&self) -> usize {
        self.moves.iter().map(|m| m.edges).sum()
    }
}

/// Monotonic counters of the migration subsystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct MigrationStats {
    /// Rebalance passes executed.
    pub passes: u64,
    /// Components migrated (all triggers).
    pub migrations: u64,
    /// Migrations triggered by strand events.
    pub strand_repairs: u64,
    /// Migrations triggered by load imbalance.
    pub load_moves: u64,
    /// Directed edges moved across shards.
    pub edges_moved: u64,
    /// Edge suspiciousness moved across shards.
    pub edge_weight_moved: f64,
    /// Strand events that resolved to an empty slice (nothing to move).
    pub skipped_empty: u64,
    /// `rebalance_if_needed` calls that found no trigger and did nothing.
    pub served_idle: u64,
    /// Moves aborted mid-flight because a shard had shut down. When the
    /// target died the slice is re-absorbed by its source and routing is
    /// pointed back, so the fleet stays exact; when the source died its
    /// slice was unrecoverable regardless.
    pub failed_moves: u64,
    /// Wall time of the most recent completed move, nanoseconds. The
    /// full distribution lives in the runtime registry's
    /// `spade_migration_move_ns` histogram
    /// (`crate::shard::service::metric_names::MIGRATION_MOVE_NS`); this
    /// field keeps the latest sample visible in plain stats reports.
    pub last_move_ns: u64,
}

/// Picks a load-balancing move from per-shard **windowed** applied-update
/// counters (traffic since the load trigger last fired, not the raw
/// lifetime counter): `Some((hot, cold))` when the hottest shard exceeds
/// `imbalance_ratio × mean`. The target choice is size-aware: among the
/// candidate targets the coldest shard by windowed load wins, and a
/// windowed-load tie breaks toward the shard holding the **fewest
/// resident edges** (then the lower index) — a shard that was hammered
/// long ago has a cold window but a full engine, and piling the moved
/// component onto it would just mint the next hot spot. Pure so the
/// policy is unit-testable without a running fleet.
///
/// `resident_edges[i]` is shard `i`'s current graph size
/// (`ServiceStats::edges_resident`); a short slice is padded with zeros.
fn pick_load_move(
    window: &[u64],
    resident_edges: &[u64],
    policy: &MigrationPolicy,
) -> Option<(usize, usize)> {
    if window.len() < 2 || policy.imbalance_ratio <= 1.0 {
        return None;
    }
    let total: u64 = window.iter().sum();
    if total < policy.min_updates.max(1) {
        return None;
    }
    let mean = total as f64 / window.len() as f64;
    let (hot, &hot_load) = window.iter().enumerate().max_by_key(|&(_, &u)| u)?;
    if (hot_load as f64) <= policy.imbalance_ratio * mean {
        return None;
    }
    let resident = |i: usize| resident_edges.get(i).copied().unwrap_or(0);
    let cold =
        (0..window.len()).filter(|&i| i != hot).min_by_key(|&i| (window[i], resident(i), i))?;
    if window[cold] >= hot_load {
        return None;
    }
    Some((hot, cold))
}

/// Plans up to [`MigrationPolicy::max_load_moves`] load-balancing moves
/// from **one** observation of the windowed counters — the multi-move
/// upgrade of `pick_load_move`. The scheduler executes the whole plan
/// under a single window reset and one routing-lock session, so a pass
/// can drain several hot shards (or shed several components off one)
/// instead of re-observing — and re-waiting a full window — between
/// moves.
///
/// Each planned move transfers half of the hot/cold gap in simulation
/// (the expectation for shedding the dominant component: the move that
/// equalizes the pair); the next move is picked against the simulated
/// loads, so the plan never ping-pongs a component back. Planning stops
/// when the simulated fleet is balanced, the transfer rounds to zero, or
/// the cap is reached. Pure, like `pick_load_move`.
pub fn pick_load_moves(
    window: &[u64],
    resident_edges: &[u64],
    policy: &MigrationPolicy,
) -> Vec<(usize, usize)> {
    let mut window = window.to_vec();
    let mut plan = Vec::new();
    while plan.len() < policy.max_load_moves {
        let Some((hot, cold)) = pick_load_move(&window, resident_edges, policy) else {
            break;
        };
        // Simulate the transfer before planning further. A zero
        // transfer (gap < 2) cannot change the picture; stop rather
        // than loop on an identical observation.
        let moved = (window[hot] - window[cold]) / 2;
        if moved == 0 {
            break;
        }
        window[hot] -= moved;
        window[cold] += moved;
        plan.push((hot, cold));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No resident-size signal: every shard reports an empty engine.
    const NO_SIZES: &[u64] = &[];

    #[test]
    fn balanced_loads_trigger_nothing() {
        let policy = MigrationPolicy::default();
        assert_eq!(pick_load_move(&[5000, 5100, 4900, 5050], NO_SIZES, &policy), None);
        assert_eq!(pick_load_move(&[0, 0, 0], NO_SIZES, &policy), None);
        assert_eq!(pick_load_move(&[9000], NO_SIZES, &policy), None, "nowhere to move");
    }

    #[test]
    fn a_hot_shard_moves_toward_the_coldest() {
        let policy = MigrationPolicy { min_updates: 100, ..Default::default() };
        // Shard 1 carries ~3x the mean; shard 2 is idle.
        assert_eq!(pick_load_move(&[200, 1200, 40, 160], NO_SIZES, &policy), Some((1, 2)));
    }

    #[test]
    fn min_updates_suppresses_early_noise() {
        let policy = MigrationPolicy { min_updates: 10_000, ..Default::default() };
        assert_eq!(pick_load_move(&[10, 900, 5, 20], NO_SIZES, &policy), None);
        let warm = MigrationPolicy { min_updates: 100, ..Default::default() };
        assert_eq!(pick_load_move(&[10, 900, 5, 20], NO_SIZES, &warm), Some((1, 2)));
    }

    #[test]
    fn ratio_at_or_below_one_disables_the_load_trigger() {
        let policy = MigrationPolicy { imbalance_ratio: 1.0, min_updates: 0, ..Default::default() };
        assert_eq!(pick_load_move(&[1, 1_000_000], NO_SIZES, &policy), None);
    }

    #[test]
    fn windowed_load_ties_break_toward_the_smallest_resident_engine() {
        let policy = MigrationPolicy { min_updates: 100, ..Default::default() };
        // Shards 1 and 3 are equally cold by window, but shard 1 already
        // holds 50k resident edges (hammered before the window reset) —
        // the move must target shard 3, not re-heat shard 1.
        assert_eq!(
            pick_load_move(&[2_000, 0, 300, 0], &[10, 50_000, 400, 12], &policy),
            Some((0, 3))
        );
        // With the resident sizes swapped the tie resolves the other way.
        assert_eq!(
            pick_load_move(&[2_000, 0, 300, 0], &[10, 12, 400, 50_000], &policy),
            Some((0, 1))
        );
        // A missing size entry counts as an empty engine.
        assert_eq!(pick_load_move(&[2_000, 0, 300, 0], &[10, 7], &policy), Some((0, 3)));
    }

    #[test]
    fn multi_move_plan_drains_several_hot_shards_in_one_pass() {
        let policy = MigrationPolicy { min_updates: 100, max_load_moves: 4, ..Default::default() };
        // Shards 0 and 2 both run far ahead of the mean; 1 and 3 are
        // idle. One observation must plan a move off each hot shard —
        // the single-move picker would shed only shard 2 and leave
        // shard 0 hot until the *next* pass re-observes.
        let window = [4_000, 0, 5_000, 0];
        let plan = pick_load_moves(&window, NO_SIZES, &policy);
        assert_eq!(plan[0], (2, 1), "hottest shard sheds first, toward the coldest");
        assert!(
            plan.iter().any(|&(hot, _)| hot == 0),
            "the second hot shard must be drained in the same pass: {plan:?}"
        );
        // Every planned source was hot in the original observation and
        // no pair repeats.
        for &(hot, cold) in &plan {
            assert_ne!(hot, cold);
        }
        let mut pairs = plan.clone();
        pairs.dedup();
        assert_eq!(pairs.len(), plan.len(), "a plan never repeats a pair back-to-back");
    }

    #[test]
    fn multi_move_plan_respects_the_cap_and_balanced_fleets() {
        let capped = MigrationPolicy { min_updates: 100, max_load_moves: 1, ..Default::default() };
        assert_eq!(pick_load_moves(&[4_000, 0, 5_000, 0], NO_SIZES, &capped).len(), 1);
        let policy = MigrationPolicy { min_updates: 100, max_load_moves: 8, ..Default::default() };
        assert!(pick_load_moves(&[500, 510, 490, 505], NO_SIZES, &policy).is_empty());
        // A mildly hot shard plans one equalizing move, after which the
        // simulated fleet is balanced — the plan must not thrash.
        let plan = pick_load_moves(&[2_000, 500, 600, 550], NO_SIZES, &policy);
        assert_eq!(plan, vec![(0, 1)]);
        // The simulation must terminate even with a pathological cap.
        let wide = MigrationPolicy { min_updates: 0, max_load_moves: 1_000, ..Default::default() };
        assert!(pick_load_moves(&[3, 0], NO_SIZES, &wide).len() < 1_000);
    }

    #[test]
    fn strictly_coldest_window_wins_over_a_smaller_engine() {
        let policy = MigrationPolicy { min_updates: 100, ..Default::default() };
        // Shard 2 is the coldest by window even though shard 1's engine
        // is smaller: windowed load dominates, size only breaks ties.
        assert_eq!(
            pick_load_move(&[2_000, 50, 20, 600], &[0, 5, 90_000, 0], &policy),
            Some((0, 2))
        );
    }
}
