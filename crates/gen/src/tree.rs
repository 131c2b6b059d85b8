//! Tree generators: the pathshape-`O(log n)` workloads of Corollary 1.

use nav_graph::prufer::tree_from_prufer;
use nav_graph::{Graph, GraphBuilder, GraphError, NodeId};
use rand::Rng;

/// Uniformly random labelled tree on `n` nodes (exact, via Prüfer decode).
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Result<Graph, GraphError> {
    match n {
        0 => Err(GraphError::Empty),
        1 => GraphBuilder::new(1).build(),
        2 => GraphBuilder::from_edges(2, [(0, 1)]),
        _ => {
            let seq: Vec<NodeId> = (0..n - 2).map(|_| rng.gen_range(0..n as NodeId)).collect();
            tree_from_prufer(n, &seq)
        }
    }
}

/// Complete `k`-ary tree truncated to exactly `n` nodes (node `i`'s parent
/// is `(i − 1) / k`), so the height is `Θ(log_k n)`.
pub fn complete_kary_tree(k: usize, n: usize) -> Result<Graph, GraphError> {
    if n == 0 || k == 0 {
        return Err(GraphError::Empty);
    }
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge(((i - 1) / k) as NodeId, i as NodeId);
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` nodes (ids `0..spine`) with `legs`
/// leaf nodes attached round-robin to spine nodes. Pathwidth ≤ 2.
pub fn caterpillar(spine: usize, legs: usize) -> Result<Graph, GraphError> {
    if spine == 0 {
        return Err(GraphError::Empty);
    }
    let n = spine + legs;
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for u in 1..spine {
        b.add_edge((u - 1) as NodeId, u as NodeId);
    }
    for leg in 0..legs {
        let attach = (leg % spine) as NodeId;
        b.add_edge(attach, (spine + leg) as NodeId);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nav_graph::distance::diameter_exact;
    use nav_graph::properties::is_tree;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn random_tree_is_tree_various_sizes() {
        let mut rng = rng();
        for n in [1usize, 2, 3, 10, 100, 500] {
            let g = random_tree(n, &mut rng).unwrap();
            assert!(is_tree(&g), "n={n}");
            assert_eq!(g.num_nodes(), n);
        }
        assert!(random_tree(0, &mut rng).is_err());
    }

    #[test]
    fn random_tree_deterministic_per_seed() {
        let g1 = random_tree(50, &mut rand::rngs::StdRng::seed_from_u64(5)).unwrap();
        let g2 = random_tree(50, &mut rand::rngs::StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn random_tree_is_roughly_uniform() {
        // On n=3 there are 3 labelled trees (each a path with a distinct
        // middle node). Check rough equidistribution.
        let mut rng = rng();
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            let g = random_tree(3, &mut rng).unwrap();
            let middle = (0..3u32).find(|&v| g.degree(v) == 2).unwrap();
            counts[middle as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn kary_tree_structure() {
        let g = complete_kary_tree(2, 15).unwrap();
        assert!(is_tree(&g));
        assert_eq!(g.degree(0), 2);
        assert_eq!(diameter_exact(&g), Some(6)); // leaf to leaf via root
        let g3 = complete_kary_tree(3, 13).unwrap();
        assert_eq!(g3.degree(0), 3);
        assert!(complete_kary_tree(0, 5).is_err());
    }

    #[test]
    fn caterpillar_structure() {
        let g = caterpillar(5, 7).unwrap();
        assert!(is_tree(&g));
        assert_eq!(g.num_nodes(), 12);
        // Legs attach round-robin: spine node 0 gets legs 0 and 5.
        assert_eq!(g.degree(0), 1 + 2);
        assert!(caterpillar(0, 3).is_err());
    }
}
