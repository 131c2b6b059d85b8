//! Node labelings `L : V → {1, …, k}` (shared labels allowed).

use crate::ancestry::max_level_index;
use nav_decomp::decomposition::PathDecomposition;
use nav_graph::NodeId;

/// A labeling of `n` nodes with labels in `1..=k` plus the reverse index
/// (label → nodes carrying it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Labeling {
    label_of: Vec<u32>,
    /// `buckets[j-1]` = sorted nodes labeled `j`.
    buckets: Vec<Vec<NodeId>>,
}

impl Labeling {
    /// Builds from per-node labels (values must be in `1..=k`).
    pub fn new(label_of: Vec<u32>, k: usize) -> Self {
        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for (u, &l) in label_of.iter().enumerate() {
            assert!(
                (1..=k as u32).contains(&l),
                "label {l} of node {u} outside 1..={k}"
            );
            buckets[(l - 1) as usize].push(u as NodeId);
        }
        Labeling { label_of, buckets }
    }

    /// The identity labeling: node `u` gets label `u + 1` (distinct labels).
    pub fn identity(n: usize) -> Self {
        Labeling::new((1..=n as u32).collect(), n)
    }

    /// **The paper's Theorem-2 labeling.** Bags of a path-decomposition
    /// are numbered `1..=b` along the path; each node `u` occupies a
    /// contiguous interval `I_u` of bags, and `L(u)` is the unique index
    /// of maximum dyadic level in `I_u`. Label space: `1..=k` where
    /// `k = max(b, 1)` (all labels valid even if some unused).
    ///
    /// # Panics
    /// Panics if some node appears in no bag (invalid decomposition).
    pub fn from_path_decomposition(pd: &PathDecomposition, num_nodes: usize) -> Self {
        let b = pd.num_bags().max(1);
        let intervals = pd.node_intervals(num_nodes);
        let label_of: Vec<u32> = intervals
            .iter()
            .enumerate()
            .map(|(u, iv)| {
                let (lo, hi) = iv.unwrap_or_else(|| panic!("node {u} not in any bag"));
                max_level_index(lo as u64 + 1, hi as u64 + 1) as u32
            })
            .collect();
        Labeling::new(label_of, b)
    }

    /// Number of nodes labeled.
    pub fn num_nodes(&self) -> usize {
        self.label_of.len()
    }

    /// Size of the label space `k`.
    pub fn num_labels(&self) -> usize {
        self.buckets.len()
    }

    /// Label of node `u` (1-based).
    #[inline]
    pub fn label(&self, u: NodeId) -> u32 {
        self.label_of[u as usize]
    }

    /// Sorted nodes carrying label `j` (may be empty).
    #[inline]
    pub fn bucket(&self, j: u32) -> &[NodeId] {
        &self.buckets[(j - 1) as usize]
    }

    /// Number of distinct labels actually used.
    pub fn labels_used(&self) -> usize {
        self.buckets.iter().filter(|b| !b.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_labeling() {
        let l = Labeling::identity(4);
        assert_eq!(l.num_labels(), 4);
        for u in 0..4u32 {
            assert_eq!(l.label(u), u + 1);
            assert_eq!(l.bucket(u + 1), &[u]);
        }
        assert_eq!(l.labels_used(), 4);
    }

    #[test]
    fn shared_labels_bucket() {
        let l = Labeling::new(vec![2, 2, 1, 2], 3);
        assert_eq!(l.bucket(2), &[0, 1, 3]);
        assert_eq!(l.bucket(1), &[2]);
        assert!(l.bucket(3).is_empty());
        assert_eq!(l.labels_used(), 2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_label_panics() {
        let _ = Labeling::new(vec![0, 1], 2);
    }

    #[test]
    fn theorem2_labeling_on_path_decomposition() {
        // Path 0-1-2-3-4 canonical decomposition: bags {i,i+1}, b = 4.
        // Node 0: I = [1,1] → L=1. Node 1: I=[1,2] → max level index = 2.
        // Node 2: I=[2,3] → 2. Node 3: I=[3,4] → 4. Node 4: I=[4,4] → 4.
        let pd = PathDecomposition::new(vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        let l = Labeling::from_path_decomposition(&pd, 5);
        assert_eq!(l.label(0), 1);
        assert_eq!(l.label(1), 2);
        assert_eq!(l.label(2), 2);
        assert_eq!(l.label(3), 4);
        assert_eq!(l.label(4), 4);
        assert_eq!(l.num_labels(), 4);
    }

    #[test]
    fn theorem2_label_is_inside_interval() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let b = rng.gen_range(1..40usize);
            // One node occupying a random interval of bags.
            let lo = rng.gen_range(0..b);
            let hi = rng.gen_range(lo..b);
            let bags: Vec<Vec<NodeId>> = (0..b)
                .map(|i| if i >= lo && i <= hi { vec![0] } else { vec![] })
                .collect();
            let pd = PathDecomposition::new(bags);
            // Pad: other bags empty is fine for this unit-level check.
            let l = Labeling::from_path_decomposition(&pd, 1);
            let lab = l.label(0) as usize;
            assert!((lo + 1..=hi + 1).contains(&lab));
        }
    }

    #[test]
    #[should_panic(expected = "not in any bag")]
    fn uncovered_node_panics() {
        let pd = PathDecomposition::new(vec![vec![0]]);
        let _ = Labeling::from_path_decomposition(&pd, 2);
    }

    #[test]
    fn single_bag_decomposition_all_same_label() {
        let pd = PathDecomposition::trivial(6);
        let l = Labeling::from_path_decomposition(&pd, 6);
        for u in 0..6u32 {
            assert_eq!(l.label(u), 1);
        }
        assert_eq!(l.num_labels(), 1);
    }
}
