//! Breadth-first search with reusable buffers.
//!
//! Every routing trial needs one BFS from the target, and Theorem 4's ball
//! scheme runs truncated BFS from the current node at every long-range
//! sampling, so BFS is the hot path of the whole reproduction. The [`Bfs`]
//! struct owns its queue and a *versioned* visited/distance array so that
//! repeated searches on the same graph never reallocate and never pay an
//! `O(n)` clear: each search bumps an epoch counter and stale entries are
//! treated as unvisited.

use crate::{csr::Graph, NodeId, INFINITY};

/// Reusable BFS workspace for graphs with at most the configured node count.
///
/// The queue is a flat ring over a reused `Vec<NodeId>`: BFS enqueues every
/// node at most once, so a head cursor into a grow-only vector is a full
/// FIFO — contiguous memory, no `VecDeque` wrap-around arithmetic on the
/// hot pop/push path, and the allocation survives across searches.
#[derive(Clone, Debug)]
pub struct Bfs {
    /// `dist[v]` is meaningful only when `mark[v] == epoch`.
    dist: Vec<u32>,
    mark: Vec<u32>,
    epoch: u32,
    /// Flat FIFO: `queue[head..]` is the pending frontier.
    queue: Vec<NodeId>,
    head: usize,
}

impl Bfs {
    /// Creates a workspace able to search graphs of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        Bfs {
            dist: vec![0; n],
            mark: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
            head: 0,
        }
    }

    /// Ensures capacity for graphs of `n` nodes (cheap if already large enough).
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.mark.resize(n, 0);
        }
    }

    fn begin(&mut self, n: usize) {
        self.ensure_capacity(n);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: hard reset so stale marks cannot alias.
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        self.queue.clear();
        self.head = 0;
    }

    #[inline]
    fn visit(&mut self, v: NodeId, d: u32) {
        self.dist[v as usize] = d;
        self.mark[v as usize] = self.epoch;
        self.queue.push(v);
    }

    #[inline]
    fn pop(&mut self) -> Option<NodeId> {
        let v = self.queue.get(self.head).copied();
        self.head += v.is_some() as usize;
        v
    }

    #[inline]
    fn seen(&self, v: NodeId) -> bool {
        self.mark[v as usize] == self.epoch
    }

    /// Distance of `v` from the last search's source, or [`INFINITY`] if
    /// unreached (or not searched since the workspace was (re)used).
    #[inline]
    pub fn dist(&self, v: NodeId) -> u32 {
        if self.seen(v) {
            self.dist[v as usize]
        } else {
            INFINITY
        }
    }

    /// Full single-source BFS; returns an owned distance vector with
    /// [`INFINITY`] for unreachable nodes.
    pub fn distances(&mut self, g: &Graph, source: NodeId) -> Vec<u32> {
        self.run(g, source, u32::MAX, |_, _| true);
        (0..g.num_nodes()).map(|v| self.dist(v as NodeId)).collect()
    }

    /// Runs BFS from `source` out to radius `max_depth`, invoking `visit`
    /// on every discovered node `(v, dist)` **including the source at 0**.
    /// If `visit` returns `false` the search stops immediately (early exit).
    ///
    /// Afterwards, [`Bfs::dist`] answers queries for all visited nodes.
    pub fn run<F: FnMut(NodeId, u32) -> bool>(
        &mut self,
        g: &Graph,
        source: NodeId,
        max_depth: u32,
        mut visit: F,
    ) {
        self.begin(g.num_nodes());
        self.visit(source, 0);
        if !visit(source, 0) {
            return;
        }
        while let Some(u) = self.pop() {
            let du = self.dist[u as usize];
            if du >= max_depth {
                continue;
            }
            for &v in g.neighbors(u) {
                if !self.seen(v) {
                    self.visit(v, du + 1);
                    if !visit(v, du + 1) {
                        return;
                    }
                }
            }
        }
    }

    /// Collects the ball `B(source, radius)` (all nodes at distance ≤
    /// `radius`), in BFS order (so distances are non-decreasing along the
    /// returned vector and `out[0] == source`).
    pub fn ball(&mut self, g: &Graph, source: NodeId, radius: u32, out: &mut Vec<NodeId>) {
        out.clear();
        self.run(g, source, radius, |v, _| {
            out.push(v);
            true
        });
    }

    /// The node with maximum BFS distance from `source` (ties: smallest id),
    /// together with that distance. Used for double-sweep diameter estimates.
    pub fn farthest(&mut self, g: &Graph, source: NodeId) -> (NodeId, u32) {
        let mut best = (source, 0u32);
        self.run(g, source, u32::MAX, |v, d| {
            if d > best.1 {
                best = (v, d);
            }
            true
        });
        best
    }

    /// Number of nodes reachable from `source` (including itself).
    pub fn reachable_count(&mut self, g: &Graph, source: NodeId) -> usize {
        let mut count = 0usize;
        self.run(g, source, u32::MAX, |_, _| {
            count += 1;
            true
        });
        count
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
    fn distances_on_path() {
        let g = path(6);
        let mut bfs = Bfs::new(6);
        let d = bfs.distances(&g, 2);
        assert_eq!(d, vec![2, 1, 0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_is_infinity() {
        let g = GraphBuilder::from_edges(4, [(0, 1)]).unwrap();
        let mut bfs = Bfs::new(4);
        let d = bfs.distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INFINITY);
        assert_eq!(d[3], INFINITY);
    }

    #[test]
    fn reuse_without_stale_state() {
        let g = path(5);
        let mut bfs = Bfs::new(5);
        let d0 = bfs.distances(&g, 0);
        let d4 = bfs.distances(&g, 4);
        assert_eq!(d0, vec![0, 1, 2, 3, 4]);
        assert_eq!(d4, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn epoch_wraparound_resets() {
        let g = path(3);
        let mut bfs = Bfs::new(3);
        bfs.epoch = u32::MAX - 1;
        let _ = bfs.distances(&g, 0);
        let d = bfs.distances(&g, 2); // crosses the wrap
        assert_eq!(d, vec![2, 1, 0]);
    }

    #[test]
    fn ball_on_path() {
        let g = path(9);
        let mut bfs = Bfs::new(9);
        let mut ball = Vec::new();
        bfs.ball(&g, 4, 2, &mut ball);
        let mut sorted = ball.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 3, 4, 5, 6]);
        assert_eq!(ball[0], 4);
        // distances non-decreasing in BFS order
        let ds: Vec<u32> = ball.iter().map(|&v| bfs.dist(v)).collect();
        assert!(ds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ball_radius_zero_is_singleton() {
        let g = path(4);
        let mut bfs = Bfs::new(4);
        let mut ball = Vec::new();
        bfs.ball(&g, 1, 0, &mut ball);
        assert_eq!(ball, vec![1]);
    }

    #[test]
    fn farthest_on_path() {
        let g = path(7);
        let mut bfs = Bfs::new(7);
        assert_eq!(bfs.farthest(&g, 2), (6, 4));
        assert_eq!(bfs.farthest(&g, 0), (6, 6));
    }

    #[test]
    fn reachable_count_components() {
        let g = GraphBuilder::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut bfs = Bfs::new(5);
        assert_eq!(bfs.reachable_count(&g, 0), 3);
        assert_eq!(bfs.reachable_count(&g, 3), 2);
    }

    #[test]
    fn run_visits_source_first() {
        let g = path(3);
        let mut bfs = Bfs::new(3);
        let mut order = Vec::new();
        bfs.run(&g, 1, u32::MAX, |v, d| {
            order.push((v, d));
            true
        });
        assert_eq!(order[0], (1, 0));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn undersized_workspace_grows() {
        let g = path(10);
        let mut bfs = Bfs::new(2); // deliberately too small
        let d = bfs.distances(&g, 0);
        assert_eq!(d[9], 9);
    }
}
