//! Balls `B(u, r)` — the central object of the paper's Theorem 4 scheme.
//!
//! The Õ(n^{1/3}) universal scheme augments every node `u` by first drawing
//! a scale `k` uniformly in `{1, …, ⌈log₂ n⌉}` and then a uniform node of
//! `B(u, 2^k)`. This module provides ball enumeration and the rank
//! function `r(v) = min { k : v ∈ B(u, 2^k) }` in which the scheme's
//! distribution is written.

use crate::{bfs::Bfs, csr::Graph, NodeId};

/// Collects `B(source, radius)` into a fresh vector (BFS order).
pub fn ball(g: &Graph, source: NodeId, radius: u32) -> Vec<NodeId> {
    let mut bfs = Bfs::new(g.num_nodes());
    let mut out = Vec::new();
    bfs.ball(g, source, radius, &mut out);
    out
}

/// Size of `B(source, radius)`.
pub fn ball_size(g: &Graph, source: NodeId, radius: u32) -> usize {
    ball(g, source, radius).len()
}

/// The smallest `k ≥ 0` with `d ≤ 2^k` (so `rank_of_distance(0) == 0`).
#[inline]
pub fn rank_of_distance(d: u32) -> u32 {
    if d <= 1 {
        0
    } else {
        // ceil(log2(d)) for d >= 2
        32 - (d - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn rank_of_distance_table() {
        assert_eq!(rank_of_distance(0), 0);
        assert_eq!(rank_of_distance(1), 0);
        assert_eq!(rank_of_distance(2), 1);
        assert_eq!(rank_of_distance(3), 2);
        assert_eq!(rank_of_distance(4), 2);
        assert_eq!(rank_of_distance(5), 3);
        assert_eq!(rank_of_distance(8), 3);
        assert_eq!(rank_of_distance(9), 4);
        assert_eq!(rank_of_distance(1 << 20), 20);
        assert_eq!(rank_of_distance((1 << 20) + 1), 21);
    }

    #[test]
    fn rank_is_minimal() {
        for d in 0..1000u32 {
            let k = rank_of_distance(d);
            assert!(d <= 1u32 << k, "d={d} k={k}");
            if k > 0 {
                assert!(d > 1u32 << (k - 1), "d={d} k={k} not minimal");
            }
        }
    }

    #[test]
    fn ball_sizes_on_path() {
        let g = path(101);
        // From the middle, |B(50, r)| = 2r + 1 until hitting the ends.
        assert_eq!(ball_size(&g, 50, 0), 1);
        assert_eq!(ball_size(&g, 50, 1), 3);
        assert_eq!(ball_size(&g, 50, 10), 21);
        assert_eq!(ball_size(&g, 50, 50), 101);
        assert_eq!(ball_size(&g, 50, 1000), 101);
        // From an endpoint, |B(0, r)| = r + 1.
        assert_eq!(ball_size(&g, 0, 7), 8);
    }

    #[test]
    fn ball_on_star() {
        let n = 10usize;
        let g = GraphBuilder::from_edges(n, (1..n as NodeId).map(|v| (0, v))).unwrap();
        assert_eq!(ball_size(&g, 0, 1), n);
        assert_eq!(ball_size(&g, 3, 1), 2); // leaf + hub
        assert_eq!(ball_size(&g, 3, 2), n); // whole star
    }
}
