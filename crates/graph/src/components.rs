//! Connected components and connectivity repair.
//!
//! The paper's model assumes connected graphs (greedy routing needs every
//! target reachable). Random generators (G(n,p), geometric, interval) may
//! produce disconnected graphs; this module finds components and links
//! them into one [`Graph`].

use crate::{bfs::Bfs, csr::Graph, NodeId};

/// Component labelling: `label[v]` is the 0-based component index of `v`,
/// components numbered in order of their smallest node.
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

/// Computes connected components by union-find over the CSR edges
/// (path halving, smaller root wins) in one `n`-word array.
///
/// Unions link the larger root under the smaller, so every node's parent
/// is at most the node itself and every root is its component's minimum.
/// One ascending pass then resolves each node through its (already
/// resolved) parent and hands out labels as roots appear — the same
/// numbering by smallest node as a BFS sweep over `0..n`.
pub fn components(g: &Graph) -> Components {
    let n = g.num_nodes();
    let mut label: Vec<u32> = (0..n as u32).collect();
    for u in g.nodes() {
        let nb = g.neighbors(u);
        // Each undirected edge once, from its smaller end.
        for &v in &nb[nb.partition_point(|&v| v < u)..] {
            let (ru, rv) = (find_root(&mut label, u), find_root(&mut label, v));
            label[ru.max(rv) as usize] = ru.min(rv);
        }
    }
    // `label` holds parents, each `≤` its node. Ascending, a root keeps
    // its own id until its turn and is then given the next label; any
    // other node copies its parent's entry, already a label by then.
    let mut sizes: Vec<usize> = Vec::new();
    for v in 0..n {
        let p = label[v] as usize;
        label[v] = if p == v {
            sizes.push(0);
            (sizes.len() - 1) as u32
        } else {
            label[p]
        };
        sizes[label[v] as usize] += 1;
    }
    Components { label, sizes }
}

/// The root of `x` in the parent array, halving the path on the way.
fn find_root(parent: &mut [u32], mut x: NodeId) -> NodeId {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

/// Whether the graph is connected (vacuously true for a single node).
pub fn is_connected(g: &Graph) -> bool {
    let mut bfs = Bfs::new(g.num_nodes());
    bfs.reachable_count(g, 0) == g.num_nodes()
}

/// Ensures connectivity by linking consecutive components with an edge
/// between their smallest-id nodes. Returns the connected graph (`g`
/// itself, uncopied, when it already is) and the number of edges added.
///
/// A bridge joins two different components, so it is never a duplicate
/// or a self-loop. One forward pass copies every adjacency run into
/// fresh CSR arrays and, at each component's smallest node, merges in
/// its one or two bridge partners at their sorted places.
pub fn connect_components(g: Graph) -> (Graph, usize) {
    let comps = components(&g);
    if comps.count() <= 1 {
        return (g, 0);
    }
    // Smallest node of each component, in component order (ascending).
    let mut representative: Vec<NodeId> = Vec::with_capacity(comps.count());
    for (v, &c) in comps.label.iter().enumerate() {
        if c as usize == representative.len() {
            representative.push(v as NodeId);
        }
    }
    drop(comps);
    let bridges = representative.len() - 1;
    let mut offsets = Vec::with_capacity(g.num_nodes() + 1);
    let mut targets = Vec::with_capacity(2 * (g.num_edges() + bridges));
    offsets.push(0);
    let mut c = 0;
    for u in g.nodes() {
        let mut run = g.neighbors(u);
        if representative.get(c) == Some(&u) {
            // Partners ascending: the previous representative, then the next.
            let below = c.checked_sub(1).map(|p| representative[p]);
            let above = representative.get(c + 1).copied();
            for w in [below, above].into_iter().flatten() {
                let (head, tail) = run.split_at(run.partition_point(|&v| v < w));
                targets.extend_from_slice(head);
                targets.push(w);
                run = tail;
            }
            c += 1;
        }
        targets.extend_from_slice(run);
        offsets.push(targets.len());
    }
    let m = g.num_edges() + bridges;
    (Graph::from_parts(offsets, targets, m), bridges)
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
        let (cg, added) = connect_components(g);
        assert_eq!(added, 2);
        assert!(is_connected(&cg));
        assert_eq!(cg.num_nodes(), 6);
        assert_eq!(cg.num_edges(), 5);
    }

    #[test]
    fn connect_already_connected_noop() {
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let (cg, added) = connect_components(g.clone());
        assert_eq!(added, 0);
        assert_eq!(cg, g);
    }

    #[test]
    fn isolated_nodes_are_components() {
        let g = GraphBuilder::new(4).build().unwrap();
        let c = components(&g);
        assert_eq!(c.count(), 4);
        let (cg, added) = connect_components(g);
        assert_eq!(added, 3);
        assert!(is_connected(&cg));
    }

    #[test]
    fn singleton_is_connected() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert!(is_connected(&g));
    }
}
