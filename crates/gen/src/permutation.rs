//! Permutation graphs — the second AT-free family of Corollary 1.
//!
//! Nodes are positions `0..n`; `i ~ j` iff the pair is *inverted* by the
//! permutation: `(i < j) ∧ (π(i) > π(j))`. A uniform random permutation
//! yields a dense graph (~n²/4 edges), usable only at small `n`.

use nav_graph::{Graph, GraphBuilder, GraphError, NodeId};
use rand::Rng;

/// Builds the permutation graph of `perm` (edges = inversions). `O(n²)` —
/// use only for small/medium `n`.
pub fn permutation_graph(perm: &[usize]) -> Result<Graph, GraphError> {
    let n = perm.len();
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if perm[i] > perm[j] {
                b.add_edge(i as NodeId, j as NodeId);
            }
        }
    }
    b.build()
}

/// Uniform random permutation graph, **repaired to be connected** by
/// breaking "prefix fixpoints": whenever `π({0..k}) = {0..k}` for `k <
/// n−1` the graph splits there, so we swap `π(k) ↔ π(k+1)` — the result is
/// still a permutation, hence still a permutation graph.
///
/// Returns the graph and the final permutation.
pub fn random_permutation_graph(
    n: usize,
    rng: &mut impl Rng,
) -> Result<(Graph, Vec<usize>), GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut perm: Vec<usize> = (0..n).collect();
    // Fisher–Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    make_indecomposable(&mut perm);
    let g = permutation_graph(&perm)?;
    Ok((g, perm))
}

/// Breaks every proper prefix fixpoint `π({0..k}) = {0..k}` by swapping
/// across it, making the permutation graph connected (for n ≥ 2).
fn make_indecomposable(perm: &mut [usize]) {
    let n = perm.len();
    if n < 2 {
        return;
    }
    loop {
        let mut changed = false;
        let mut max_so_far = 0usize;
        for k in 0..n - 1 {
            max_so_far = max_so_far.max(perm[k]);
            if max_so_far == k {
                perm.swap(k, k + 1);
                changed = true;
                max_so_far = max_so_far.max(perm[k]);
            }
        }
        if !changed {
            break;
        }
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
    fn identity_has_no_edges_reverse_is_complete() {
        let id: Vec<usize> = (0..6).collect();
        let g = permutation_graph(&id).unwrap();
        assert_eq!(g.num_edges(), 0);
        let rev: Vec<usize> = (0..6).rev().collect();
        let g = permutation_graph(&rev).unwrap();
        assert_eq!(g.num_edges(), 15); // K6
    }

    #[test]
    fn single_inversion_single_edge() {
        let g = permutation_graph(&[0, 2, 1, 3]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn random_permutation_graph_connected() {
        for seed in 0..10u64 {
            let (g, perm) = random_permutation_graph(60, &mut rng(seed)).unwrap();
            assert!(is_connected(&g), "seed {seed}");
            // perm is a permutation
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..60).collect::<Vec<_>>());
        }
    }

    #[test]
    fn indecomposable_repair_on_identity() {
        let mut p: Vec<usize> = (0..8).collect();
        make_indecomposable(&mut p);
        let g = permutation_graph(&p).unwrap();
        assert!(is_connected(&g));
    }

    #[test]
    fn tiny_sizes() {
        assert!(random_permutation_graph(0, &mut rng(0)).is_err());
        let (g, _) = random_permutation_graph(1, &mut rng(0)).unwrap();
        assert_eq!(g.num_nodes(), 1);
        let (g, _) = random_permutation_graph(2, &mut rng(0)).unwrap();
        assert!(is_connected(&g));
    }
}
