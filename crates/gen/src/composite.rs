//! Composite instances: mixed-growth graphs that separate the schemes.
//!
//! The Õ(n^{1/3}) analysis of Theorem 4 balances two regimes — entering
//! the set `B` of the n^{2/3} closest nodes to the target, then navigating
//! inside it. Graphs that glue a dense part (balls explode) onto a long
//! path (balls grow linearly) exercise exactly that trade-off; the uniform
//! scheme pays `Θ(√n)` on them while the ball scheme pays `Õ(n^{1/3})`.

use nav_graph::{Graph, GraphBuilder, GraphError, NodeId};

/// Lollipop: a clique on `clique` nodes (ids `0..clique`) with a pendant
/// path of `path_len` nodes attached to clique node 0.
/// Total nodes: `clique + path_len`.
pub fn lollipop(clique: usize, path_len: usize) -> Result<Graph, GraphError> {
    if clique == 0 {
        return Err(GraphError::Empty);
    }
    let n = clique + path_len;
    let mut b = GraphBuilder::with_capacity(n, clique * clique / 2 + path_len);
    for u in 0..clique {
        for v in (u + 1)..clique {
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    let mut prev = 0 as NodeId;
    for i in 0..path_len {
        let v = (clique + i) as NodeId;
        b.add_edge(prev, v);
        prev = v;
    }
    b.build()
}

/// Comb: a spine path of `spine` nodes, each carrying a pendant "tooth"
/// path of `tooth_len` nodes. Total: `spine · (1 + tooth_len)`.
pub fn comb(spine: usize, tooth_len: usize) -> Result<Graph, GraphError> {
    if spine == 0 {
        return Err(GraphError::Empty);
    }
    let n = spine * (1 + tooth_len);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for u in 1..spine {
        b.add_edge((u - 1) as NodeId, u as NodeId);
    }
    for s in 0..spine {
        let mut prev = s as NodeId;
        for t in 0..tooth_len {
            let v = (spine + s * tooth_len + t) as NodeId;
            b.add_edge(prev, v);
            prev = v;
        }
    }
    b.build()
}

/// Dense-core lollipop: a **dyadic-circulant expander** on `core` nodes
/// (strides 1, 2, 4, …: degree `2⌈log₂ core⌉`, diameter `O(log core)`)
/// with a pendant path of `path_len` nodes attached to core node 0.
///
/// Metrically this behaves like [`lollipop`] (balls inside the core
/// explode to the whole core within `O(log)` radius) but has `O(n log n)`
/// edges instead of `Θ(n²)`, keeping ball-scheme sampling affordable at
/// experiment scale — the substitution documented in DESIGN.md.
pub fn expander_lollipop(core: usize, path_len: usize) -> Result<Graph, GraphError> {
    if core < 3 {
        return Err(GraphError::Empty);
    }
    let n = core + path_len;
    let log = (usize::BITS - (core - 1).leading_zeros()) as usize;
    let mut b = GraphBuilder::with_capacity(n, core * log + path_len);
    for u in 0..core {
        let mut s = 1usize;
        while s < core {
            b.add_edge(u as NodeId, ((u + s) % core) as NodeId);
            s <<= 1;
        }
    }
    let mut prev = 0 as NodeId;
    for i in 0..path_len {
        let v = (core + i) as NodeId;
        b.add_edge(prev, v);
        prev = v;
    }
    b.build()
}

/// The Theorem-4 stress instance used by experiment E7: a lollipop whose
/// pendant path holds ~`n^{2/3}` nodes and whose dense core holds the
/// rest, so that the `n^{2/3}` nodes closest to a path-end target form the
/// path itself, making "entering B" cost Θ(n^{1/3} log n) for the ball
/// scheme but Θ(√n) for uniform. The core is the expander of
/// [`expander_lollipop`] (metrically a clique up to log factors, linearly
/// many edges).
pub fn theorem4_stress(n: usize) -> Result<Graph, GraphError> {
    let path_len = ((n as f64).powf(2.0 / 3.0).round() as usize).min(n.saturating_sub(3));
    expander_lollipop(n - path_len, path_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nav_graph::components::is_connected;
    use nav_graph::distance::diameter_exact;
    use nav_graph::properties::is_tree;

    #[test]
    fn lollipop_structure() {
        let g = lollipop(5, 4).unwrap();
        assert_eq!(g.num_nodes(), 9);
        assert_eq!(g.num_edges(), 10 + 4);
        assert!(is_connected(&g));
        assert_eq!(diameter_exact(&g), Some(1 + 4));
        assert_eq!(g.degree(0), 4 + 1); // clique + path attachment
    }

    #[test]
    fn lollipop_no_path_is_clique() {
        let g = lollipop(6, 0).unwrap();
        assert_eq!(g.num_edges(), 15);
        assert_eq!(diameter_exact(&g), Some(1));
    }

    #[test]
    fn comb_structure() {
        let g = comb(5, 3).unwrap();
        assert_eq!(g.num_nodes(), 20);
        assert!(is_tree(&g));
        // tooth tip to tooth tip: 3 + 4 + 3
        assert_eq!(diameter_exact(&g), Some(10));
    }

    #[test]
    fn comb_no_teeth_is_path() {
        let g = comb(7, 0).unwrap();
        assert!(nav_graph::properties::is_path_graph(&g));
    }

    #[test]
    fn expander_lollipop_structure() {
        let g = expander_lollipop(256, 50).unwrap();
        assert_eq!(g.num_nodes(), 306);
        assert!(is_connected(&g));
        // Core diameter is logarithmic; edges are n·log, not n².
        assert!(g.num_edges() < 256 * 10 + 60);
        let d = diameter_exact(&g).unwrap();
        assert!((50..=70).contains(&d), "d = {d}");
        assert!(expander_lollipop(2, 5).is_err());
    }

    #[test]
    fn theorem4_stress_plausible_split() {
        let g = theorem4_stress(1000).unwrap();
        assert_eq!(g.num_nodes(), 1000);
        assert!(is_connected(&g));
        // path_len = round(1000^(2/3)) = 100; core adds only O(log) more.
        let d = diameter_exact(&g).unwrap();
        assert!((100..=120).contains(&d), "d = {d}");
    }

    #[test]
    fn degenerate_inputs() {
        assert!(lollipop(0, 5).is_err());
        assert!(comb(0, 2).is_err());
    }
}
