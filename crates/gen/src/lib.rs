//! # nav-gen — graph-family generators
//!
//! Workload generators for the navigability experiments. The paper's
//! claims are *universal* ("for any n-node graph"), so the experiment suite
//! sweeps families chosen to cover the regimes its proofs distinguish:
//!
//! * [`classic`] — paths, cycles, stars, complete graphs, circulants: the
//!   extremal instances (every lower bound in the paper lives on the path);
//! * [`grid`] — d-dimensional meshes, tori and hypercubes: bounded-growth
//!   graphs where Kleinberg-style schemes are polylog;
//! * [`tree`] — uniform random labelled trees (exact, via Prüfer), k-ary
//!   trees, caterpillars: pathshape `O(log n)` instances for Corollary 1;
//! * [`interval`] — random interval graphs **with their interval
//!   representation** (AT-free, pathlength ≤ 1 clique-path decompositions
//!   for Corollary 1's second clause);
//! * [`permutation`] — permutation graphs from random permutations
//!   (also AT-free);
//! * [`random`] — Erdős–Rényi `G(n, p)` (connected variants), random
//!   regular graphs (expander-like), random geometric graphs;
//! * [`composite`] — lollipops, combs, expander lollipops: the
//!   mixed-growth instances that separate the Õ(n^{1/3}) ball scheme from
//!   the uniform scheme.
//!
//! All generators are deterministic functions of their parameters and the
//! supplied RNG, and always return **connected** graphs (random families
//! repair connectivity explicitly and say how).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classic;
pub mod composite;
pub mod grid;
pub mod interval;
pub mod permutation;
pub mod random;
pub mod tree;

pub use nav_graph::{Graph, GraphError, NodeId};

/// A named graph family, used by experiment sweeps to iterate workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// The n-node path — the paper's canonical hard instance.
    Path,
    /// The n-node cycle.
    Cycle,
    /// √n × √n grid (2-dimensional mesh).
    Grid2d,
    /// 2-dimensional torus.
    Torus2d,
    /// Uniform random labelled tree.
    RandomTree,
    /// Complete binary tree.
    BinaryTree,
    /// Caterpillar tree.
    Caterpillar,
    /// Random connected interval graph.
    Interval,
    /// Random permutation graph (made connected).
    Permutation,
    /// Connected Erdős–Rényi with average degree ≈ 6.
    Gnp,
    /// Random 4-regular multigraph simplified (expander-like).
    Regular4,
    /// Lollipop: dense expander core plus a pendant path (the Theorem-4
    /// stress instance, see [`composite::theorem4_stress`]).
    Lollipop,
    /// Comb: spine with teeth of length ~√n.
    Comb,
}

impl Family {
    /// Human-readable name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::Grid2d => "grid2d",
            Family::Torus2d => "torus2d",
            Family::RandomTree => "random-tree",
            Family::BinaryTree => "binary-tree",
            Family::Caterpillar => "caterpillar",
            Family::Interval => "interval",
            Family::Permutation => "permutation",
            Family::Gnp => "gnp",
            Family::Regular4 => "regular4",
            Family::Lollipop => "lollipop",
            Family::Comb => "comb",
        }
    }

    /// Generates an instance of the family with approximately `n` nodes
    /// (exact for deterministic families; random families may deviate
    /// slightly after connectivity repair).
    pub fn generate(self, n: usize, rng: &mut impl rand::Rng) -> Result<Graph, GraphError> {
        match self {
            Family::Path => classic::path(n),
            Family::Cycle => classic::cycle(n),
            Family::Grid2d => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                grid::grid2d(side, side)
            }
            Family::Torus2d => {
                let side = (n as f64).sqrt().round().max(3.0) as usize;
                grid::torus2d(side, side)
            }
            Family::RandomTree => tree::random_tree(n, rng),
            Family::BinaryTree => tree::complete_kary_tree(2, n),
            Family::Caterpillar => {
                let spine = (n / 2).max(1);
                tree::caterpillar(spine, n.saturating_sub(spine))
            }
            Family::Interval => interval::random_interval_graph(n, 8, rng).map(|(g, _)| g),
            Family::Permutation => permutation::random_permutation_graph(n, rng).map(|(g, _)| g),
            Family::Gnp => {
                let p = 6.0 / n.max(2) as f64;
                random::gnp_connected(n, p, rng)
            }
            Family::Regular4 => random::random_regular(n, 4, rng),
            Family::Lollipop => composite::theorem4_stress(n.max(6)),
            Family::Comb => {
                let tooth = (n as f64).sqrt().round().max(1.0) as usize;
                let spine = (n / (tooth + 1)).max(1);
                composite::comb(spine, tooth)
            }
        }
    }

    /// The full list of families, for exhaustive sweeps.
    pub fn all() -> &'static [Family] {
        &[
            Family::Path,
            Family::Cycle,
            Family::Grid2d,
            Family::Torus2d,
            Family::RandomTree,
            Family::BinaryTree,
            Family::Caterpillar,
            Family::Interval,
            Family::Permutation,
            Family::Gnp,
            Family::Regular4,
            Family::Lollipop,
            Family::Comb,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nav_graph::components::is_connected;
    use rand::SeedableRng;

    #[test]
    fn every_family_generates_connected_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for &fam in Family::all() {
            let g = fam.generate(200, &mut rng).unwrap_or_else(|e| {
                panic!("family {} failed: {e}", fam.name());
            });
            assert!(is_connected(&g), "family {} disconnected", fam.name());
            assert!(
                g.num_nodes() >= 50,
                "family {} too small: {}",
                fam.name(),
                g.num_nodes()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Family::all().iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Family::all().len());
    }
}
