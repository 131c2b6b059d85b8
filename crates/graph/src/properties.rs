//! Structural graph properties used by generators, decompositions and tests.

use crate::{bfs::Bfs, components::is_connected, csr::Graph, NodeId};

/// Whether `g` is a tree: connected with exactly `n - 1` edges.
pub fn is_tree(g: &Graph) -> bool {
    g.num_edges() == g.num_nodes().saturating_sub(1) && is_connected(g)
}

/// Whether `g` is a simple path graph: a tree whose degrees are all ≤ 2.
pub fn is_path_graph(g: &Graph) -> bool {
    is_tree(g) && g.nodes().all(|u| g.degree(u) <= 2)
}

/// Whether `g` is a cycle: connected, `m == n`, all degrees exactly 2.
pub fn is_cycle_graph(g: &Graph) -> bool {
    g.num_nodes() >= 3
        && g.num_edges() == g.num_nodes()
        && g.nodes().all(|u| g.degree(u) == 2)
        && is_connected(g)
}

/// Whether every node has degree exactly `d`.
pub fn is_regular(g: &Graph, d: usize) -> bool {
    g.nodes().all(|u| g.degree(u) == d)
}

/// Whether `g` is bipartite (2-colourable), via BFS layering.
///
/// Deliberately scalar: one epoch-versioned BFS per component is `O(n+m)`
/// total with no per-component clears, which beats a 64-lane batched pass
/// both on connected graphs (a single lane suffices) and on
/// many-component graphs (batches would pay `O(n)` mask clears each).
pub fn is_bipartite(g: &Graph) -> bool {
    let n = g.num_nodes();
    let mut color = vec![u8::MAX; n];
    let mut bfs = Bfs::new(n);
    for s in 0..n as NodeId {
        if color[s as usize] != u8::MAX {
            continue;
        }
        bfs.run(g, s, u32::MAX, |v, d| {
            color[v as usize] = (d % 2) as u8;
            true
        });
    }
    g.edges()
        .all(|(u, v)| color[u as usize] != color[v as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    fn cycle(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId).map(|u| (u, (u + 1) % n as NodeId))).unwrap()
    }

    fn complete(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n as NodeId {
            for v in u + 1..n as NodeId {
                b.add_edge(u, v);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn tree_and_path_predicates() {
        assert!(is_tree(&path(5)));
        assert!(is_path_graph(&path(5)));
        let star = GraphBuilder::from_edges(5, (1..5).map(|v| (0, v))).unwrap();
        assert!(is_tree(&star));
        assert!(!is_path_graph(&star));
        assert!(!is_tree(&cycle(5)));
    }

    #[test]
    fn cycle_predicate() {
        assert!(is_cycle_graph(&cycle(3)));
        assert!(is_cycle_graph(&cycle(10)));
        assert!(!is_cycle_graph(&path(4)));
        // Two disjoint triangles: m == n, all degree 2, but disconnected.
        let g =
            GraphBuilder::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        assert!(!is_cycle_graph(&g));
    }

    #[test]
    fn regular_predicate() {
        assert!(is_regular(&cycle(8), 2));
        assert!(is_regular(&complete(5), 4));
        assert!(!is_regular(&path(4), 2));
    }

    #[test]
    fn bipartite_detection() {
        assert!(is_bipartite(&path(6)));
        assert!(is_bipartite(&cycle(8)));
        assert!(!is_bipartite(&cycle(7)));
        assert!(!is_bipartite(&complete(3)));
        // Disconnected with one odd cycle.
        let g = GraphBuilder::from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 2)]).unwrap();
        assert!(!is_bipartite(&g));
    }
}
