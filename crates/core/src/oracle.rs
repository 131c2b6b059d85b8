//! Exact distance rows for a set of routing targets.
//!
//! Greedy routing consults `dist_G(·, t)` at every hop, so each trial
//! target needs one full distance row. A per-pair scalar BFS recomputes
//! the same row for every pair sharing a target and pays a full
//! traversal per row. The [`TargetDistanceCache`] avoids both for a
//! stand-alone pair set (the exact evaluator, the scale bench and the
//! serving benchmark's checks use it): it deduplicates the targets,
//! packs the distinct ones `width.lanes()` at a time into bit-parallel
//! MS-BFS passes ([`nav_graph::msbfs::batched_compact_rows_w`], passes
//! fanned out to `nav-par` workers), and hands each [`GreedyRouter`] a
//! *borrowed* row instead of an owned re-BFS. The trial executor
//! ([`crate::wave`]) fills its waves' rows through the same call.
//!
//! Distances are exact, so cached rows are bit-identical to per-pair BFS
//! for every thread count and width — the engine's determinism guarantee
//! is unaffected. Rows are the same compact [`DistRowBuf`]s the serving
//! engine's row cache holds: `2n` bytes per target, `4n` only for a row
//! with a finite distance ≥ 65535.

use crate::routing::GreedyRouter;
use nav_graph::distance::{DistRowBuf, DistRowView};
use nav_graph::msbfs::{batched_compact_rows_w, LaneWidth};
use nav_graph::{Graph, GraphError, NodeId};

/// Distance rows for a set of routing targets, each computed exactly once.
///
/// Build it from the (multi-)set of a workload's targets, then borrow rows
/// — or ready-made routers — per pair:
///
/// ```
/// use nav_core::oracle::TargetDistanceCache;
/// use nav_graph::GraphBuilder;
///
/// let g = GraphBuilder::from_edges(5, (0..4u32).map(|u| (u, u + 1))).unwrap();
/// let pairs = [(0u32, 4u32), (1, 4), (2, 0)];
/// let cache = TargetDistanceCache::build(&g, pairs.iter().map(|&(_, t)| t), 1).unwrap();
/// assert_eq!(cache.targets(), &[0, 4]); // deduplicated and sorted
/// assert_eq!(cache.dist(1, 4), Some(3));
/// let router = cache.router(4).unwrap();
/// assert_eq!(router.dist_to_target(0), 4);
/// ```
#[derive(Clone, Debug)]
pub struct TargetDistanceCache<'g> {
    /// The graph the rows were computed on — routers borrow it from here,
    /// so a cache can never be (mis)used against a different graph.
    g: &'g Graph,
    /// Distinct targets, sorted ascending; row `i` belongs to
    /// `targets[i]`. Lookup is a binary search, so the cache's footprint
    /// is `O(#targets)` beyond the rows — nothing `O(n)`.
    targets: Vec<NodeId>,
    /// One compact distance row per target.
    rows: Vec<DistRowBuf>,
}

impl<'g> TargetDistanceCache<'g> {
    /// Computes one distance row per *distinct* target in `targets`
    /// (duplicates are free), batched 64 targets per MS-BFS pass with the
    /// passes running on `threads` workers (`1` = inline). The result is
    /// identical for every thread count.
    pub fn build(
        g: &'g Graph,
        targets: impl IntoIterator<Item = NodeId>,
        threads: usize,
    ) -> Result<Self, GraphError> {
        Self::build_width(g, targets, threads, LaneWidth::W64)
    }

    /// [`TargetDistanceCache::build`] at an explicit MS-BFS word-block
    /// width: `width.lanes()` targets per pass. Rows are exact BFS
    /// distances, so the cache is **bit-identical at every width** — the
    /// knob only changes how many targets amortise one traversal.
    pub fn build_width(
        g: &'g Graph,
        targets: impl IntoIterator<Item = NodeId>,
        threads: usize,
        width: LaneWidth,
    ) -> Result<Self, GraphError> {
        let mut distinct: Vec<NodeId> = Vec::new();
        for t in targets {
            g.check_node(t)?;
            distinct.push(t);
        }
        distinct.sort_unstable();
        distinct.dedup();
        let rows = batched_compact_rows_w(g, &distinct, threads, width);
        Ok(TargetDistanceCache {
            g,
            targets: distinct,
            rows,
        })
    }

    /// The graph the cache was built on.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The distinct targets, sorted ascending.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Resident payload size of the rows in bytes.
    pub fn bytes(&self) -> usize {
        self.rows.iter().map(DistRowBuf::bytes).sum()
    }

    /// The distance row of target `t` (`row.get(v) = dist_G(v, t)`,
    /// [`nav_graph::INFINITY`] for unreachable `v`), or `None` if `t` was
    /// not in the build set.
    pub fn row(&self, t: NodeId) -> Option<DistRowView<'_>> {
        let slot = self.targets.binary_search(&t).ok()?;
        Some(self.rows[slot].view())
    }

    /// `dist_G(s, t)` for a cached target `t` ([`nav_graph::INFINITY`] when
    /// disconnected); `None` if `t` is not cached or `s` out of range.
    pub fn dist(&self, s: NodeId, t: NodeId) -> Option<u32> {
        let row = self.row(t)?;
        ((s as usize) < row.len()).then(|| row.get(s as usize))
    }

    /// A [`GreedyRouter`] for cached target `t`, borrowing its row and the
    /// cache's own graph (no BFS). `None` if `t` is not cached.
    pub fn router(&self, t: NodeId) -> Option<GreedyRouter<'_>> {
        let row = self.row(t)?;
        Some(GreedyRouter::from_row(self.g, t, row).expect("cached target is in range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nav_graph::{GraphBuilder, INFINITY};

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn rows_match_per_target_bfs() {
        let g = path(40);
        let targets = [5u32, 39, 5, 0, 39, 17];
        let cache = TargetDistanceCache::build(&g, targets.iter().copied(), 2).unwrap();
        assert_eq!(cache.targets(), &[0, 5, 17, 39]);
        for &t in &[5u32, 39, 0, 17] {
            let fresh = GreedyRouter::new(&g, t).unwrap();
            let row = cache.row(t).unwrap();
            for v in 0..40u32 {
                assert_eq!(row.get(v as usize), fresh.dist_to_target(v), "t={t} v={v}");
            }
        }
        assert!(cache.row(1).is_none());
        assert!(cache.router(1).is_none());
    }

    #[test]
    fn more_than_one_batch() {
        // 100 distinct targets on a circulant: exercises the 64-lane split.
        let n = 100usize;
        let mut b = GraphBuilder::new(n);
        for u in 0..n as NodeId {
            b.add_edge(u, (u + 1) % n as NodeId);
            b.add_edge(u, (u + 7) % n as NodeId);
        }
        let g = b.build().unwrap();
        let targets: Vec<NodeId> = (0..n as NodeId).collect();
        let c1 = TargetDistanceCache::build(&g, targets.iter().copied(), 1).unwrap();
        let c8 = TargetDistanceCache::build(&g, targets.iter().copied(), 8).unwrap();
        assert_eq!(c1.rows, c8.rows, "thread count must not change rows");
        for &t in &targets {
            let fresh = GreedyRouter::new(&g, t).unwrap();
            let row = c1.row(t).unwrap();
            for v in 0..n as NodeId {
                assert_eq!(row.get(v as usize), fresh.dist_to_target(v));
            }
        }
    }

    #[test]
    fn rows_are_compact_and_out_of_range_sources_are_none() {
        let g = path(40);
        let cache = TargetDistanceCache::build(&g, [3u32, 20, 39, 3], 1).unwrap();
        assert_eq!(cache.bytes(), cache.targets().len() * 40 * 2);
        assert!(matches!(cache.row(20), Some(DistRowView::Narrow(_))));
        assert_eq!(cache.dist(39, 20), Some(19));
        assert_eq!(cache.dist(40, 20), None);
    }

    #[test]
    fn disconnected_rows_carry_infinity() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let cache = TargetDistanceCache::build(&g, [0u32], 1).unwrap();
        assert_eq!(cache.dist(1, 0), Some(1));
        assert_eq!(cache.dist(2, 0), Some(INFINITY));
    }

    #[test]
    fn invalid_target_rejected() {
        let g = path(4);
        assert!(TargetDistanceCache::build(&g, [7u32], 1).is_err());
    }

    #[test]
    fn empty_target_set_is_fine() {
        let g = path(4);
        let cache = TargetDistanceCache::build(&g, std::iter::empty(), 4).unwrap();
        assert!(cache.targets().is_empty());
        assert!(cache.row(0).is_none());
    }
}
