//! Width, length and **shape** of bags and decompositions (Definition 2).

use crate::decomposition::PathDecomposition;
use nav_graph::{bfs::Bfs, Graph, NodeId};

/// `width(X) = |X| − 1`.
pub fn bag_width(bag: &[NodeId]) -> usize {
    bag.len().saturating_sub(1)
}

/// `length(X) = max_{x,y ∈ X} dist_G(x, y)` — the max *graph* distance
/// between bag members (the bag need not induce a connected subgraph; the
/// paper measures distance in all of `G`). `O(|X| · m)` via one BFS per
/// member. Returns `u32::MAX` if some pair is disconnected in `G`.
pub fn bag_length(g: &Graph, bag: &[NodeId], bfs: &mut Bfs) -> u32 {
    bag_length_capped(g, bag, bfs, u32::MAX)
}

/// Like [`bag_length`], but stops early and returns `cap` as soon as the
/// length is known to be ≥ `cap`. Because `shape = min(width, length)`,
/// callers can pass `cap = width + 1`: any value ≥ that leaves the shape
/// equal to the width anyway, and the BFS can be radius-bounded.
pub fn bag_length_capped(g: &Graph, bag: &[NodeId], bfs: &mut Bfs, cap: u32) -> u32 {
    if bag.len() <= 1 {
        return 0;
    }
    let mut best = 0u32;
    for &x in bag {
        // Radius-bounded BFS: distances beyond `cap` are irrelevant.
        bfs.run(g, x, cap.saturating_sub(1), |_, _| true);
        for &y in bag {
            if y == x {
                continue;
            }
            let d = bfs.dist(y); // INFINITY if beyond the bound / unreachable
            let d = if d == nav_graph::INFINITY { cap } else { d };
            best = best.max(d);
            if best >= cap {
                return cap;
            }
        }
    }
    best
}

/// `shape(X) = min(width(X), length(X))` (Definition 2).
pub fn bag_shape(g: &Graph, bag: &[NodeId], bfs: &mut Bfs) -> usize {
    let w = bag_width(bag);
    if w == 0 {
        return 0;
    }
    let len = bag_length_capped(g, bag, bfs, w as u32 + 1);
    (w).min(len as usize)
}

/// Width of a decomposition: max bag width.
pub fn decomposition_width(pd: &PathDecomposition) -> usize {
    pd.bags.iter().map(|b| bag_width(b)).max().unwrap_or(0)
}

/// Length of a decomposition: max bag length.
pub fn decomposition_length(g: &Graph, pd: &PathDecomposition) -> u32 {
    let mut bfs = Bfs::new(g.num_nodes());
    pd.bags
        .iter()
        .map(|b| bag_length(g, b, &mut bfs))
        .max()
        .unwrap_or(0)
}

/// Shape of a decomposition: max over bags of `min(width, length)`. This is
/// the quantity whose minimum over all path-decompositions is `ps(G)`.
pub fn decomposition_shape(g: &Graph, pd: &PathDecomposition) -> usize {
    let mut bfs = Bfs::new(g.num_nodes());
    pd.bags
        .iter()
        .map(|b| bag_shape(g, b, &mut bfs))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nav_graph::GraphBuilder;

    fn path_graph(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as u32 - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn width_of_bags() {
        assert_eq!(bag_width(&[]), 0);
        assert_eq!(bag_width(&[3]), 0);
        assert_eq!(bag_width(&[1, 2, 3]), 2);
    }

    #[test]
    fn length_on_path_bags() {
        let g = path_graph(10);
        let mut bfs = Bfs::new(10);
        assert_eq!(bag_length(&g, &[0, 9], &mut bfs), 9);
        assert_eq!(bag_length(&g, &[2, 3, 4], &mut bfs), 2);
        assert_eq!(bag_length(&g, &[5], &mut bfs), 0);
        assert_eq!(bag_length(&g, &[], &mut bfs), 0);
    }

    #[test]
    fn length_cap_short_circuits() {
        let g = path_graph(100);
        let mut bfs = Bfs::new(100);
        assert_eq!(bag_length_capped(&g, &[0, 99], &mut bfs, 5), 5);
        assert_eq!(bag_length_capped(&g, &[0, 3], &mut bfs, 5), 3);
    }

    #[test]
    fn length_disconnected_is_cap() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut bfs = Bfs::new(4);
        assert_eq!(bag_length(&g, &[0, 2], &mut bfs), u32::MAX);
        assert_eq!(bag_length_capped(&g, &[0, 2], &mut bfs, 7), 7);
    }

    #[test]
    fn shape_is_min_of_width_and_length() {
        let g = path_graph(10);
        let mut bfs = Bfs::new(10);
        // Two far-apart nodes: width 1 < length 9 → shape 1.
        assert_eq!(bag_shape(&g, &[0, 9], &mut bfs), 1);
        // A contiguous run: width 4, length 4 → shape 4.
        assert_eq!(bag_shape(&g, &[0, 1, 2, 3, 4], &mut bfs), 4);
        // Singleton: shape 0.
        assert_eq!(bag_shape(&g, &[5], &mut bfs), 0);
    }

    #[test]
    fn shape_of_clique_bag_is_one() {
        let g =
            GraphBuilder::from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let mut bfs = Bfs::new(5);
        // Bag = K4: width 3, length 1 → shape 1 (the interval-graph case).
        assert_eq!(bag_shape(&g, &[0, 1, 2, 3], &mut bfs), 1);
    }

    #[test]
    fn decomposition_measures() {
        let g = path_graph(6);
        let pd = PathDecomposition::new(vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5]]);
        assert_eq!(decomposition_width(&pd), 2);
        assert_eq!(decomposition_length(&g, &pd), 2);
        assert_eq!(decomposition_shape(&g, &pd), 2);
        let trivial = PathDecomposition::trivial(6);
        assert_eq!(decomposition_width(&trivial), 5);
        assert_eq!(decomposition_shape(&g, &trivial), 5); // min(5, length 5)
    }
}
