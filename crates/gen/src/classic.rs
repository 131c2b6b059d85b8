//! Deterministic classic graphs: paths, cycles, stars, cliques, circulants.

use nav_graph::{Graph, GraphBuilder, GraphError, NodeId};

/// The `n`-node path `0 — 1 — … — n−1`. Every lower bound in the paper
/// (Theorems 1 and 3) is proved on this graph.
pub fn path(n: usize) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for u in 1..n {
        b.add_edge((u - 1) as NodeId, u as NodeId);
    }
    b.build()
}

/// The `n`-node cycle (`n ≥ 3`).
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::Empty);
    }
    let mut b = GraphBuilder::with_capacity(n, n);
    for u in 0..n {
        b.add_edge(u as NodeId, ((u + 1) % n) as NodeId);
    }
    b.build()
}

/// The star `K_{1,n−1}`: node 0 is the hub.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge(0, v as NodeId);
    }
    b.build()
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    b.build()
}

/// Circulant graph `C_n(S)`: node `u` adjacent to `u ± s (mod n)` for each
/// stride `s` in `strides`. A handy deterministic "expander-ish" family.
pub fn circulant(n: usize, strides: &[usize]) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::Empty);
    }
    let mut b = GraphBuilder::with_capacity(n, n * strides.len());
    for u in 0..n {
        for &s in strides {
            let s = s % n;
            if s == 0 {
                continue;
            }
            b.add_edge(u as NodeId, ((u + s) % n) as NodeId);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nav_graph::components::is_connected;
    use nav_graph::distance::diameter_exact;
    use nav_graph::properties::{is_cycle_graph, is_path_graph, is_regular};

    #[test]
    fn path_shape() {
        let g = path(10).unwrap();
        assert!(is_path_graph(&g));
        assert_eq!(diameter_exact(&g), Some(9));
    }

    #[test]
    fn path_of_one_node() {
        let g = path(1).unwrap();
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(8).unwrap();
        assert!(is_cycle_graph(&g));
        assert_eq!(diameter_exact(&g), Some(4));
        assert!(cycle(2).is_err());
    }

    #[test]
    fn star_shape() {
        let g = star(9).unwrap();
        assert_eq!(g.degree(0), 8);
        assert_eq!(diameter_exact(&g), Some(2));
    }

    #[test]
    fn complete_shape() {
        let g = complete(7).unwrap();
        assert_eq!(g.num_edges(), 21);
        assert!(is_regular(&g, 6));
        assert_eq!(diameter_exact(&g), Some(1));
    }

    #[test]
    fn circulant_shape() {
        let g = circulant(12, &[1, 3]).unwrap();
        assert!(is_regular(&g, 4));
        assert!(is_connected(&g));
        // Stride 0 and duplicate strides are ignored.
        let g2 = circulant(12, &[1, 1, 0, 12]).unwrap();
        assert!(is_cycle_graph(&g2));
    }
}
