//! Merging per-shard detections into one global view.
//!
//! Each shard publishes its local [`PublishedDetection`] independently;
//! [`merge`] folds those snapshots into a global answer — densest
//! community wins, exactly the rule a single engine applies across its
//! own candidate prefixes — plus a per-shard ranking for moderators who
//! drill down ("which shard is hot right now?").

use crate::service::PublishedDetection;
use spade_graph::hash::FxHashSet;

/// One shard's entry in the ranked view.
#[derive(Clone, Debug)]
pub struct ShardDetection {
    /// Shard index.
    pub shard: usize,
    /// That shard's current detection.
    pub detection: PublishedDetection,
}

/// The merged, cluster-wide detection state.
#[derive(Clone, Debug, Default)]
pub struct GlobalDetection {
    /// Index of the shard holding the densest community.
    pub best_shard: usize,
    /// The densest community across shards. Deliberately duplicates
    /// `top[0].detection` so the common "what's the answer" read needs
    /// no index gymnastics — since member lists live behind `Arc`
    /// snapshots, the duplicate costs a pointer clone, not a vec copy.
    /// High-frequency pollers that only need counters should use
    /// `ShardedSpadeService::stats`, which takes no snapshot at all.
    pub best: PublishedDetection,
    /// Every shard ranked by detection density (descending; ties break
    /// toward the lower shard index). Every shard appears here, even
    /// when several report overlapping views of one split community —
    /// use [`GlobalDetection::distinct`] for a deduplicated ranking.
    pub top: Vec<ShardDetection>,
    /// [`GlobalDetection::top`] with overlapping candidates deduplicated:
    /// when two shards' member lists intersect (the signature of one
    /// community split by hash routing), only the densest view survives.
    /// This is the ranking reports should show — the raw `top` counts the
    /// same accounts once per shard that sees them.
    pub distinct: Vec<ShardDetection>,
    /// Number of distinct members across **all** shard detections: a
    /// vertex reported by several shards counts once. Always ≤ the sum of
    /// per-shard detection sizes; a gap between the two is exactly the
    /// double-counting the repair pass resolves.
    pub unique_members: usize,
    /// Total updates applied across all shards at snapshot time.
    pub total_updates: u64,
}

/// Folds one snapshot per shard (indexed by position) into a
/// [`GlobalDetection`].
pub fn merge(snapshots: Vec<PublishedDetection>) -> GlobalDetection {
    let total_updates = snapshots.iter().map(|d| d.updates_applied).sum();
    // Distinct members across every shard view: overlapping shard
    // detections of one split community count each account once.
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    for det in &snapshots {
        for m in det.members.iter() {
            seen.insert(m.0);
        }
    }
    let unique_members = seen.len();
    let mut ranked: Vec<ShardDetection> = snapshots
        .into_iter()
        .enumerate()
        .map(|(shard, detection)| ShardDetection { shard, detection })
        .collect();
    // Densest first; ties toward the lower shard id for determinism.
    ranked.sort_by(|a, b| {
        b.detection.density.total_cmp(&a.detection.density).then_with(|| a.shard.cmp(&b.shard))
    });
    let (best_shard, best) = ranked
        .first()
        .map(|s| (s.shard, s.detection.clone()))
        .unwrap_or((0, PublishedDetection::default()));
    // Overlap-deduplicated ranking: walking densest-first, a candidate
    // sharing any member with an already-kept (denser) candidate is a
    // diluted view of the same community and is dropped.
    seen.clear();
    let mut distinct: Vec<ShardDetection> = Vec::new();
    for entry in &ranked {
        let overlaps = entry.detection.members.iter().any(|m| seen.contains(&m.0));
        if overlaps {
            continue;
        }
        for m in entry.detection.members.iter() {
            seen.insert(m.0);
        }
        distinct.push(entry.clone());
    }
    GlobalDetection { best_shard, best, top: ranked, distinct, unique_members, total_updates }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(size: usize, density: f64, updates: u64) -> PublishedDetection {
        PublishedDetection { size, density, updates_applied: updates, ..Default::default() }
    }

    #[test]
    fn densest_shard_wins() {
        let global = merge(vec![det(3, 5.0, 10), det(4, 9.0, 20), det(2, 1.0, 5)]);
        assert_eq!(global.best_shard, 1);
        assert_eq!(global.best.size, 4);
        assert_eq!(global.total_updates, 35);
        let ranked: Vec<usize> = global.top.iter().map(|s| s.shard).collect();
        assert_eq!(ranked, vec![1, 0, 2]);
    }

    #[test]
    fn density_ties_break_to_lower_shard() {
        let global = merge(vec![det(3, 7.0, 1), det(3, 7.0, 1)]);
        assert_eq!(global.best_shard, 0);
    }

    #[test]
    fn empty_cluster_merges_to_default() {
        let global = merge(Vec::new());
        assert_eq!(global.best.size, 0);
        assert_eq!(global.total_updates, 0);
        assert!(global.top.is_empty());
        assert!(global.distinct.is_empty());
        assert_eq!(global.unique_members, 0);
    }

    fn det_over(members: &[u32], density: f64) -> PublishedDetection {
        PublishedDetection {
            size: members.len(),
            density,
            members: members.iter().map(|&m| spade_graph::VertexId(m)).collect::<Vec<_>>().into(),
            ..Default::default()
        }
    }

    #[test]
    fn overlapping_shard_views_dedupe_in_the_distinct_ranking() {
        // Shards 0 and 2 report overlapping slices of one split
        // community; shard 1 reports a disjoint one. The raw ranking
        // keeps all three, the distinct ranking keeps the densest view
        // per overlap cluster.
        let global = merge(vec![
            det_over(&[10, 11, 12], 6.0),
            det_over(&[50, 51], 4.0),
            det_over(&[12, 13], 9.0),
        ]);
        assert_eq!(global.top.len(), 3);
        let distinct_shards: Vec<usize> = global.distinct.iter().map(|s| s.shard).collect();
        assert_eq!(distinct_shards, vec![2, 1], "shard 0 overlaps denser shard 2 and is dropped");
        // 10, 11, 12, 13, 50, 51 — member 12 counted once.
        assert_eq!(global.unique_members, 6);
        // `best` is untouched by deduplication.
        assert_eq!(global.best_shard, 2);
    }

    #[test]
    fn disjoint_shard_views_keep_the_full_distinct_ranking() {
        let global =
            merge(vec![det_over(&[0, 1], 3.0), det_over(&[2, 3], 5.0), det_over(&[4], 1.0)]);
        assert_eq!(global.distinct.len(), 3);
        assert_eq!(global.unique_members, 5);
        assert_eq!(global.distinct[0].shard, 1);
    }

    #[test]
    fn identical_member_sets_with_different_densities_keep_the_densest_view() {
        // Three shards report the SAME member set — a fully replicated
        // view of one split community — at different local densities
        // (each shard holds a different slice of the edge weight). The
        // distinct ranking must keep exactly one entry: the densest one.
        let global = merge(vec![
            det_over(&[7, 8, 9], 2.5),
            det_over(&[7, 8, 9], 8.0),
            det_over(&[7, 8, 9], 4.0),
        ]);
        assert_eq!(global.distinct.len(), 1, "identical member sets must collapse to one view");
        assert_eq!(global.distinct[0].shard, 1);
        assert_eq!(global.distinct[0].detection.density, 8.0);
        // The raw ranking still shows all three for drill-down.
        assert_eq!(global.top.len(), 3);
        // Members counted once, not three times.
        assert_eq!(global.unique_members, 3);
        assert_eq!(global.best_shard, 1);
    }

    #[test]
    fn unique_members_count_once_under_three_way_overlap() {
        // A chain of three overlapping views: shard 0 and shard 2 only
        // overlap transitively through shard 1, and member 20 appears in
        // all three. unique_members must count {10,20,30,40} once each,
        // and the distinct ranking must drop BOTH chained views — each
        // overlaps the kept densest view directly via member 20.
        let global = merge(vec![
            det_over(&[10, 20], 3.0),
            det_over(&[20, 30], 9.0),
            det_over(&[20, 40], 5.0),
        ]);
        assert_eq!(global.unique_members, 4, "members shared three ways count once");
        let distinct_shards: Vec<usize> = global.distinct.iter().map(|s| s.shard).collect();
        assert_eq!(distinct_shards, vec![1], "both overlapping views collapse into shard 1's");
        assert_eq!(global.best_shard, 1);
        // Aggregate size bookkeeping: raw sizes sum to 6, the gap of 2 is
        // exactly the double-counted member 20.
        let raw_sum: usize = global.top.iter().map(|s| s.detection.size).sum();
        assert_eq!(raw_sum - global.unique_members, 2);
    }
}
