//! Decomposition data types.

use nav_graph::NodeId;

/// A path-decomposition: bags `X_1, …, X_b` arranged along a path (the
/// index order **is** the path). Axioms (checked by [`crate::validate`]):
///
/// 1. every node appears in some bag;
/// 2. both endpoints of every edge appear together in some bag;
/// 3. the bags containing any fixed node form a **contiguous interval**
///    of indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathDecomposition {
    /// The bags in path order. Bag contents are kept sorted and unique.
    pub bags: Vec<Vec<NodeId>>,
}

impl PathDecomposition {
    /// Creates a decomposition from bags, normalising each bag (sort+dedup).
    pub fn new(mut bags: Vec<Vec<NodeId>>) -> Self {
        for bag in &mut bags {
            bag.sort_unstable();
            bag.dedup();
        }
        PathDecomposition { bags }
    }

    /// Number of bags `b`.
    pub fn num_bags(&self) -> usize {
        self.bags.len()
    }

    /// The single-bag decomposition containing all of `0..n` (always valid;
    /// width `n − 1`).
    pub fn trivial(n: usize) -> Self {
        PathDecomposition {
            bags: vec![(0..n as NodeId).collect()],
        }
    }

    /// For every node, the contiguous interval `[first, last]` of bag
    /// indices containing it (`None` if the node is in no bag). Does **not**
    /// assume validity: if occurrences are non-contiguous this returns the
    /// hull, and [`crate::validate`] is the place that catches it.
    pub fn node_intervals(&self, num_nodes: usize) -> Vec<Option<(usize, usize)>> {
        let mut intervals: Vec<Option<(usize, usize)>> = vec![None; num_nodes];
        for (i, bag) in self.bags.iter().enumerate() {
            for &u in bag {
                let slot = &mut intervals[u as usize];
                *slot = match *slot {
                    None => Some((i, i)),
                    Some((first, _)) => Some((first, i)),
                };
            }
        }
        intervals
    }

    /// Removes bags that are subsets of an adjacent bag, repeatedly, giving
    /// a *reduced* decomposition (the paper uses that a reduced
    /// path-decomposition of a connected n-node graph has ≤ max(1, n−1)
    /// bags). Preserves validity and never increases any bag's shape.
    pub fn reduce(&mut self) {
        loop {
            let mut removed = false;
            let mut i = 0;
            while i < self.bags.len() && self.bags.len() > 1 {
                let is_subset_of_neighbor = {
                    let bag = &self.bags[i];
                    let prev = i.checked_sub(1).map(|p| &self.bags[p]);
                    let next = self.bags.get(i + 1);
                    let subset = |a: &Vec<NodeId>, b: &Vec<NodeId>| {
                        a.iter().all(|x| b.binary_search(x).is_ok())
                    };
                    prev.map(|p| subset(bag, p)).unwrap_or(false)
                        || next.map(|nx| subset(bag, nx)).unwrap_or(false)
                };
                if is_subset_of_neighbor {
                    self.bags.remove(i);
                    removed = true;
                } else {
                    i += 1;
                }
            }
            if !removed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises_bags() {
        let pd = PathDecomposition::new(vec![vec![2, 0, 1, 1], vec![3, 2]]);
        assert_eq!(pd.bags[0], vec![0, 1, 2]);
        assert_eq!(pd.bags[1], vec![2, 3]);
    }

    #[test]
    fn trivial_contains_everything() {
        let pd = PathDecomposition::trivial(4);
        assert_eq!(pd.num_bags(), 1);
        assert_eq!(pd.bags[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn node_intervals_hull() {
        let pd = PathDecomposition::new(vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        let iv = pd.node_intervals(4);
        assert_eq!(iv[0], Some((0, 0)));
        assert_eq!(iv[1], Some((0, 1)));
        assert_eq!(iv[2], Some((1, 2)));
        assert_eq!(iv[3], Some((2, 2)));
        let iv5 = pd.node_intervals(5);
        assert_eq!(iv5[4], None);
    }

    #[test]
    fn reduce_removes_nested_bags() {
        let mut pd = PathDecomposition::new(vec![
            vec![0, 1],
            vec![1], // subset of previous
            vec![1, 2, 3],
            vec![2, 3], // subset of previous
            vec![3, 4],
        ]);
        pd.reduce();
        assert_eq!(pd.bags, vec![vec![0, 1], vec![1, 2, 3], vec![3, 4]]);
    }

    #[test]
    fn reduce_keeps_at_least_one_bag() {
        let mut pd = PathDecomposition::new(vec![vec![0, 1], vec![0, 1], vec![0, 1]]);
        pd.reduce();
        assert_eq!(pd.num_bags(), 1);
    }

    #[test]
    fn reduce_cascades() {
        // [0] ⊂ [0,1] ⊂ [0,1,2]: both removable, second only after first.
        let mut pd = PathDecomposition::new(vec![vec![0], vec![0, 1], vec![0, 1, 2]]);
        pd.reduce();
        assert_eq!(pd.bags, vec![vec![0, 1, 2]]);
    }
}
