//! The compressed-sparse-row graph representation.

use crate::{GraphError, NodeId};

/// An immutable, undirected, simple graph in CSR form.
///
/// Neighbour lists are sorted ascending, which gives deterministic iteration
/// order (important for reproducible greedy tie-breaking) and `O(log deg)`
/// adjacency tests.
///
/// Construction goes through [`crate::GraphBuilder`], which deduplicates
/// parallel edges and rejects self-loops.
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Graph {
    /// `offsets[u]..offsets[u+1]` indexes `targets` for node `u`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists (each undirected edge appears twice).
    targets: Vec<NodeId>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl Graph {
    /// Assembles a graph from raw CSR parts. Used by the builder and the
    /// bridge merge of [`crate::components::connect_components`]; callers
    /// should prefer [`crate::GraphBuilder`].
    pub(crate) fn from_parts(offsets: Vec<usize>, targets: Vec<NodeId>, num_edges: usize) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());
        Graph {
            offsets,
            targets,
            num_edges,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Sorted neighbour slice of node `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`,
    /// in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Average degree `2m / n`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_nodes() as f64
        }
    }

    /// Validates that a node id is in range.
    pub fn check_node(&self, u: NodeId) -> Result<(), GraphError> {
        if (u as usize) < self.num_nodes() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: u,
                num_nodes: self.num_nodes(),
            })
        }
    }

    /// Returns the edge list `(u, v)` with `u < v`, useful for re-building
    /// or serialising graphs compactly.
    pub fn edge_list(&self) -> Vec<(NodeId, NodeId)> {
        self.edges().collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle_plus_pendant() -> crate::Graph {
        // 0-1, 1-2, 2-0, 2-3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.nodes().map(|u| g.degree(u)).max(), Some(3));
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = triangle_plus_pendant();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(3), &[2]);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(3, 0));
    }

    #[test]
    fn edges_each_once_lexicographic() {
        let g = triangle_plus_pendant();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = triangle_plus_pendant();
        let mut b = GraphBuilder::new(g.num_nodes());
        for (u, v) in g.edge_list() {
            b.add_edge(u, v);
        }
        let g2 = b.build().unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn check_node_bounds() {
        let g = triangle_plus_pendant();
        assert!(g.check_node(3).is_ok());
        assert!(g.check_node(4).is_err());
    }

    #[test]
    fn singleton_graph() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.avg_degree(), 0.0);
    }
}
