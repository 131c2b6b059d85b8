//! Connected components and connectivity repair.
//!
//! The paper's model assumes connected graphs (greedy routing needs every
//! target reachable). Random generators (G(n,p), geometric, interval) may
//! produce disconnected graphs; this module finds components and links
//! them into one [`Graph`].

use crate::{bfs::Bfs, csr::Graph, NodeId, NO_NODE};

/// Component labelling: `label[v]` is the 0-based component index of `v`,
/// components numbered in order of discovery (by smallest contained node).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// Component index per node.
    pub label: Vec<u32>,
    /// Size of each component.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }
}

/// Computes connected components via repeated BFS.
pub fn components(g: &Graph) -> Components {
    let n = g.num_nodes();
    let mut label = vec![NO_NODE; n];
    let mut sizes = Vec::new();
    let mut bfs = Bfs::new(n);
    for s in 0..n {
        if label[s] != NO_NODE {
            continue;
        }
        let idx = sizes.len() as u32;
        let mut size = 0usize;
        bfs.run(g, s as NodeId, u32::MAX, |v, _| {
            label[v as usize] = idx;
            size += 1;
            true
        });
        sizes.push(size);
    }
    Components { label, sizes }
}

/// Whether the graph is connected (vacuously true for a single node).
pub fn is_connected(g: &Graph) -> bool {
    let mut bfs = Bfs::new(g.num_nodes());
    bfs.reachable_count(g, 0) == g.num_nodes()
}

/// Ensures connectivity by linking consecutive components with an edge
/// between their smallest-id nodes. Returns the (possibly identical)
/// connected graph and the number of edges added.
pub fn connect_components(g: &Graph) -> (Graph, usize) {
    let comps = components(g);
    if comps.count() <= 1 {
        return (g.clone(), 0);
    }
    // Smallest node of each component, in component order.
    let mut representative = vec![NO_NODE; comps.count()];
    for v in g.nodes() {
        let c = comps.label[v as usize] as usize;
        if representative[c] == NO_NODE {
            representative[c] = v;
        }
    }
    let mut b = crate::GraphBuilder::with_capacity(g.num_nodes(), g.num_edges() + comps.count());
    b.extend_edges(g.edges());
    let mut added = 0usize;
    for w in representative.windows(2) {
        b.add_edge(w[0], w[1]);
        added += 1;
    }
    (
        b.build().expect("adding edges keeps the graph valid"),
        added,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn single_component() {
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let c = components(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.sizes, vec![3]);
        assert!(is_connected(&g));
    }

    #[test]
    fn three_components_sized() {
        let g = GraphBuilder::from_edges(6, [(0, 1), (2, 3), (3, 4)]).unwrap();
        let c = components(&g);
        assert_eq!(c.count(), 3);
        assert_eq!(c.sizes, vec![2, 3, 1]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connect_components_links_all() {
        let g = GraphBuilder::from_edges(6, [(0, 1), (2, 3), (3, 4)]).unwrap();
        let (cg, added) = connect_components(&g);
        assert_eq!(added, 2);
        assert!(is_connected(&cg));
        assert_eq!(cg.num_nodes(), 6);
        assert_eq!(cg.num_edges(), 5);
    }

    #[test]
    fn connect_already_connected_noop() {
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let (cg, added) = connect_components(&g);
        assert_eq!(added, 0);
        assert_eq!(cg, g);
    }

    #[test]
    fn isolated_nodes_are_components() {
        let g = GraphBuilder::new(4).build().unwrap();
        let c = components(&g);
        assert_eq!(c.count(), 4);
        let (cg, added) = connect_components(&g);
        assert_eq!(added, 3);
        assert!(is_connected(&cg));
    }

    #[test]
    fn singleton_is_connected() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert!(is_connected(&g));
    }
}
