//! Axiomatic validation of decompositions.

use crate::decomposition::PathDecomposition;
use nav_graph::Graph;
use std::fmt;

/// Why a decomposition is not valid for a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// A node appears in no bag.
    NodeUncovered {
        /// The missing node.
        node: u32,
    },
    /// An edge has no bag containing both endpoints.
    EdgeUncovered {
        /// The uncovered edge.
        edge: (u32, u32),
    },
    /// A node's bags do not form a contiguous interval.
    NotContiguous {
        /// The offending node.
        node: u32,
    },
    /// A bag references a node outside `0..n`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NodeUncovered { node } => write!(f, "node {node} in no bag"),
            ValidationError::EdgeUncovered { edge } => {
                write!(f, "edge ({}, {}) in no bag", edge.0, edge.1)
            }
            ValidationError::NotContiguous { node } => {
                write!(f, "bags of node {node} are not contiguous")
            }
            ValidationError::NodeOutOfRange { node } => write!(f, "bag node {node} out of range"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks the three path-decomposition axioms against `g`.
pub fn validate_path_decomposition(
    g: &Graph,
    pd: &PathDecomposition,
) -> Result<(), ValidationError> {
    let n = g.num_nodes();
    // Range check + occurrence counting with contiguity tracking.
    let mut first = vec![usize::MAX; n];
    let mut last = vec![usize::MAX; n];
    let mut count = vec![0usize; n];
    for (i, bag) in pd.bags.iter().enumerate() {
        for &u in bag {
            if u as usize >= n {
                return Err(ValidationError::NodeOutOfRange { node: u });
            }
            let ui = u as usize;
            if first[ui] == usize::MAX {
                first[ui] = i;
            }
            last[ui] = i;
            count[ui] += 1;
        }
    }
    for u in 0..n {
        if count[u] == 0 {
            return Err(ValidationError::NodeUncovered { node: u as u32 });
        }
        // Contiguity: occurrences must fill the hull exactly. (Bags are
        // deduplicated by construction, so one occurrence per bag.)
        if count[u] != last[u] - first[u] + 1 {
            return Err(ValidationError::NotContiguous { node: u as u32 });
        }
    }
    // Edge coverage: with contiguity established, an edge is covered iff
    // the endpoint intervals intersect.
    for (u, v) in g.edges() {
        let (fu, lu) = (first[u as usize], last[u as usize]);
        let (fv, lv) = (first[v as usize], last[v as usize]);
        if fu.max(fv) > lu.min(lv) {
            return Err(ValidationError::EdgeUncovered { edge: (u, v) });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nav_graph::GraphBuilder;

    fn path_graph(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as u32 - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn canonical_path_decomposition_valid() {
        let g = path_graph(5);
        let pd = PathDecomposition::new(vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        assert!(validate_path_decomposition(&g, &pd).is_ok());
    }

    #[test]
    fn trivial_always_valid() {
        let g = path_graph(6);
        let pd = PathDecomposition::trivial(6);
        assert!(validate_path_decomposition(&g, &pd).is_ok());
    }

    #[test]
    fn uncovered_node_detected() {
        let g = path_graph(3);
        let pd = PathDecomposition::new(vec![vec![0, 1]]);
        assert_eq!(
            validate_path_decomposition(&g, &pd),
            Err(ValidationError::NodeUncovered { node: 2 })
        );
    }

    #[test]
    fn uncovered_edge_detected() {
        let g = path_graph(3);
        let pd = PathDecomposition::new(vec![vec![0, 1], vec![2]]);
        assert_eq!(
            validate_path_decomposition(&g, &pd),
            Err(ValidationError::EdgeUncovered { edge: (1, 2) })
        );
    }

    #[test]
    fn non_contiguous_detected() {
        let g = path_graph(3);
        let pd = PathDecomposition::new(vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert_eq!(
            validate_path_decomposition(&g, &pd),
            Err(ValidationError::NotContiguous { node: 0 })
        );
    }

    #[test]
    fn out_of_range_detected() {
        let g = path_graph(3);
        let pd = PathDecomposition::new(vec![vec![0, 1, 9], vec![1, 2]]);
        assert_eq!(
            validate_path_decomposition(&g, &pd),
            Err(ValidationError::NodeOutOfRange { node: 9 })
        );
    }
}
