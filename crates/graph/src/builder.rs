//! Incremental construction of [`Graph`]s.

use crate::{csr::Graph, GraphError, NodeId};

/// Builds an undirected simple [`Graph`].
///
/// Duplicate edges are silently deduplicated; self-loops are rejected at
/// [`GraphBuilder::build`] time (or eagerly through
/// [`GraphBuilder::try_add_edge`]).
///
/// ```
/// use nav_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(0, 1); // duplicate: ignored
/// let g = b.build().unwrap();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// Each undirected edge stored once as `(min, max)`.
    edges: Vec<(NodeId, NodeId)>,
    /// First error encountered by infallible `add_edge`, reported at build.
    deferred_error: Option<GraphError>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
            deferred_error: None,
        }
    }

    /// Creates a builder with pre-reserved edge capacity.
    pub fn with_capacity(num_nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::with_capacity(edges),
            deferred_error: None,
        }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Adds the undirected edge `{u, v}`. Errors are deferred to
    /// [`GraphBuilder::build`], so loops over edge sets stay clean.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        if let Err(e) = self.try_add_edge(u, v) {
            if self.deferred_error.is_none() {
                self.deferred_error = Some(e);
            }
        }
        self
    }

    /// Adds the undirected edge `{u, v}`, reporting errors eagerly.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        for w in [u, v] {
            if w as usize >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: w,
                    num_nodes: self.num_nodes,
                });
            }
        }
        self.edges.push((u.min(v), u.max(v)));
        Ok(())
    }

    /// Adds every edge from an iterator (deferred error handling).
    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) -> &mut Self {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
        self
    }

    /// Finalises the CSR graph: sorts, deduplicates, and checks invariants.
    ///
    /// One global sort of the `(min, max)` pairs, then a counting scatter
    /// into CSR. The scatter leaves every adjacency run sorted with no
    /// per-node sort: node `x` first receives each `w < x` in ascending
    /// order (from the edges `(w, x)`, sorted by `w`), then each `v > x`
    /// in ascending order (from its own edges `(x, v)`).
    pub fn build(mut self) -> Result<Graph, GraphError> {
        if let Some(e) = self.deferred_error.take() {
            return Err(e);
        }
        if self.num_nodes == 0 {
            return Err(GraphError::Empty);
        }
        if self.num_nodes > u32::MAX as usize {
            return Err(GraphError::TooManyNodes {
                requested: self.num_nodes,
            });
        }
        self.edges.sort_unstable();
        self.edges.dedup();
        let m = self.edges.len();

        // Counting sort into CSR: each edge contributes to both endpoints.
        let n = self.num_nodes;
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as NodeId; 2 * m];
        for &(u, v) in &self.edges {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        debug_assert!(
            offsets
                .windows(2)
                .all(|w| targets[w[0]..w[1]].windows(2).all(|p| p[0] < p[1])),
            "the scatter of sorted (min, max) edges leaves every run sorted"
        );
        Ok(Graph::from_parts(offsets, targets, m))
    }

    /// Convenience: builds a graph directly from an edge list.
    pub fn from_edges(
        num_nodes: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(num_nodes);
        b.extend_edges(edges);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_orientation() {
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 0), (1, 2), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn self_loop_rejected_eager() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.try_add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn self_loop_rejected_deferred() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(1, 1);
        assert!(matches!(b.build(), Err(GraphError::SelfLoop { node: 1 })));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
        assert!(matches!(
            b.build(),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
    }

    #[test]
    fn empty_graph_rejected() {
        assert!(matches!(
            GraphBuilder::new(0).build(),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn first_deferred_error_wins() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1); // SelfLoop first
        b.add_edge(0, 9); // then out of range
        assert!(matches!(b.build(), Err(GraphError::SelfLoop { node: 1 })));
    }

    #[test]
    fn edgeless_graph_allowed() {
        let g = GraphBuilder::new(5).build().unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn adjacency_sorted_for_every_node() {
        // Star with hub 3 plus extra chords, inserted in scrambled order.
        let g =
            GraphBuilder::from_edges(6, [(3, 5), (3, 0), (3, 4), (3, 1), (3, 2), (1, 5)]).unwrap();
        for u in g.nodes() {
            let nb = g.neighbors(u);
            assert!(
                nb.windows(2).all(|w| w[0] < w[1]),
                "unsorted at {u}: {nb:?}"
            );
        }
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4, 5]);
    }

    #[test]
    fn extend_edges_builder_chaining() {
        let mut b = GraphBuilder::with_capacity(4, 3);
        b.extend_edges([(0, 1), (1, 2)]).add_edge(2, 3);
        assert_eq!(b.num_nodes(), 4);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 3);
    }
}
