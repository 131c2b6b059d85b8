//! Random interval graphs, **with their interval representation**.
//!
//! Interval graphs are AT-free and have pathlength ≤ 1 (the clique path is
//! a path-decomposition whose bags are cliques), hence pathshape ≤ 1 —
//! they are the workload for Corollary 1's `O(log² n)` clause (experiment
//! E4). Keeping the representation lets `nav-decomp` build that clique
//! path directly instead of solving NP-hard recognition problems.

use nav_graph::{Graph, GraphBuilder, GraphError, NodeId};
use rand::Rng;

/// Interval representation: `intervals[v] = (l, r)` with `l ≤ r`; nodes
/// `u, v` are adjacent iff their closed intervals intersect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalRep {
    /// Closed intervals, indexed by node id.
    pub intervals: Vec<(u64, u64)>,
}

impl IntervalRep {
    /// Whether intervals of `u` and `v` intersect.
    pub fn overlaps(&self, u: NodeId, v: NodeId) -> bool {
        let (lu, ru) = self.intervals[u as usize];
        let (lv, rv) = self.intervals[v as usize];
        lu <= rv && lv <= ru
    }

    /// Builds the interval graph (edges = pairwise overlaps) with a sweep
    /// over sorted left endpoints: `O(n log n + m)`.
    pub fn to_graph(&self) -> Result<Graph, GraphError> {
        let n = self.intervals.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| self.intervals[i]);
        let mut b = GraphBuilder::new(n);
        // Active list of (r, node) — prune lazily as new intervals arrive.
        let mut active: Vec<(u64, usize)> = Vec::new();
        for &i in &order {
            let (l, _r) = self.intervals[i];
            active.retain(|&(r_a, _)| r_a >= l);
            for &(_, j) in &active {
                b.add_edge(i as NodeId, j as NodeId);
            }
            active.push((self.intervals[i].1, i));
        }
        b.build()
    }
}

/// Random connected interval graph on `n` nodes.
///
/// Left endpoints are uniform in `[0, n·4)`, lengths uniform in
/// `[1, 8·avg_len]` (so the expected overlap count is controlled by
/// `avg_len`). Connectivity is repaired **inside the interval model**: a
/// sweep stretches any interval that would start a new component back to
/// the current maximum right endpoint, so the result is still a genuine
/// interval graph with the returned representation.
pub fn random_interval_graph(
    n: usize,
    avg_len: u64,
    rng: &mut impl Rng,
) -> Result<(Graph, IntervalRep), GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let space = (n as u64) * 4;
    let mut intervals: Vec<(u64, u64)> = (0..n)
        .map(|_| {
            let l = rng.gen_range(0..space);
            let len = rng.gen_range(1..=avg_len.max(1) * 8);
            (l, l + len)
        })
        .collect();
    repair_connectivity(&mut intervals);
    let rep = IntervalRep { intervals };
    let g = rep.to_graph()?;
    Ok((g, rep))
}

/// Stretches intervals left so the union of intervals is one contiguous
/// segment (⇒ the interval graph is connected).
fn repair_connectivity(intervals: &mut [(u64, u64)]) {
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_unstable_by_key(|&i| intervals[i]);
    let mut max_r = intervals[order[0]].1;
    for &i in order.iter().skip(1) {
        let (l, r) = intervals[i];
        if l > max_r {
            intervals[i].0 = max_r; // stretch left edge back to the frontier
        }
        max_r = max_r.max(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nav_graph::components::is_connected;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn graph_matches_pairwise_overlaps() {
        let rep = IntervalRep {
            intervals: vec![(0, 2), (1, 3), (4, 5), (2, 4)],
        };
        let g = rep.to_graph().unwrap();
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                assert_eq!(
                    g.has_edge(u, v),
                    rep.overlaps(u, v),
                    "mismatch at ({u},{v})"
                );
            }
        }
        // 0-1 overlap, 1-3 overlap, 0-3 touch at 2, 2-3 touch at 4, not 0-2.
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn random_graphs_are_connected_and_consistent() {
        for seed in 0..5u64 {
            let (g, rep) = random_interval_graph(300, 4, &mut rng(seed)).unwrap();
            assert!(is_connected(&g), "seed {seed}");
            assert_eq!(g.num_nodes(), 300);
            // Spot-check edge consistency on a sample of pairs.
            for u in (0..300u32).step_by(17) {
                for v in (1..300u32).step_by(23) {
                    if u != v {
                        assert_eq!(g.has_edge(u, v), rep.overlaps(u, v));
                    }
                }
            }
        }
    }

    #[test]
    fn zero_nodes_rejected() {
        assert!(random_interval_graph(0, 3, &mut rng(0)).is_err());
    }

    #[test]
    fn single_interval() {
        let (g, _) = random_interval_graph(1, 3, &mut rng(0)).unwrap();
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn repair_makes_union_contiguous() {
        let mut iv = vec![(0u64, 1u64), (10, 12), (5, 6), (30, 31)];
        repair_connectivity(&mut iv);
        let mut sorted = iv.clone();
        sorted.sort_unstable();
        let mut max_r = sorted[0].1;
        for &(l, r) in &sorted[1..] {
            assert!(l <= max_r, "gap before ({l},{r})");
            max_r = max_r.max(r);
        }
    }
}
