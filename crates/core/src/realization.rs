//! Fixed realizations of an augmentation.
//!
//! The paper's model draws every node's long-range link **once**; the
//! greedy diameter is the expectation over these draws. The lazy sampling
//! used by the trial engine is distributionally identical for a single
//! (s, t) walk — but some questions live on a *fixed* realization: a
//! deployed P2P overlay routes every lookup over the same fingers. This
//! module materialises realizations and exposes them as (deterministic)
//! schemes.

use crate::scheme::{AugmentationScheme, ExplicitScheme};
use nav_graph::{Graph, NodeId};
use rand::RngCore;

/// One joint draw of every node's long-range contact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Realization {
    contacts: Vec<Option<NodeId>>,
}

impl Realization {
    /// Draws a realization of `scheme` on `g` (one independent draw per
    /// node, exactly the model of the paper).
    pub fn sample<S: AugmentationScheme + ?Sized>(
        g: &Graph,
        scheme: &S,
        rng: &mut dyn RngCore,
    ) -> Self {
        let contacts = g
            .nodes()
            .map(|u| scheme.sample_contact(g, u, rng))
            .collect();
        Realization { contacts }
    }

    /// Wraps an explicit per-node contact table (entry `u` is node `u`'s
    /// long-range contact) — the constructor used by batched realizers
    /// such as [`crate::ball::BallScheme::realize_batched`].
    pub fn from_contacts(contacts: Vec<Option<NodeId>>) -> Self {
        Realization { contacts }
    }

    /// The long-range contact of `u` in this realization.
    pub fn contact(&self, u: NodeId) -> Option<NodeId> {
        self.contacts[u as usize]
    }

    /// Number of nodes whose draw produced a usable link.
    pub fn num_links(&self) -> usize {
        self.contacts.iter().flatten().count()
    }
}

/// An owned [`Realization`] is itself a (deterministic)
/// [`AugmentationScheme`]: every sample returns the fixed contact. This is
/// the form a long-lived serving engine boxes up — no borrow to keep
/// alive.
impl AugmentationScheme for Realization {
    fn name(&self) -> String {
        "realized".into()
    }

    fn sample_contact(&self, _g: &Graph, u: NodeId, _rng: &mut dyn RngCore) -> Option<NodeId> {
        self.contact(u)
    }

    fn contact_table(&self) -> Option<Vec<Option<NodeId>>> {
        Some(self.contacts.clone())
    }
}

/// A realization's per-node distribution is a point mass on the fixed
/// contact (empty when the draw produced no link) — which makes fixed
/// realizations first-class citizens of the exact evaluator and the
/// scheme-conformance harness.
impl ExplicitScheme for Realization {
    fn contact_distribution(&self, _g: &Graph, u: NodeId) -> Vec<(NodeId, f64)> {
        match self.contact(u) {
            Some(v) => vec![(v, 1.0)],
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{default_step_cap, GreedyRouter};
    use crate::uniform::{NoAugmentation, UniformScheme};
    use nav_graph::GraphBuilder;
    use nav_par::rng::{seeded_rng, task_rng};

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn realization_is_deterministic_given_draw() {
        let g = path(50);
        let mut rng = seeded_rng(1);
        let real = Realization::sample(&g, &UniformScheme, &mut rng);
        let router = GreedyRouter::new(&g, 49).unwrap();
        let route = |seed: u64| {
            let mut r = seeded_rng(seed);
            router
                .route(&real, 0, &mut r, default_step_cap(&g), true)
                .path
                .unwrap()
        };
        // Different routing RNGs, same fixed links → identical path.
        assert_eq!(route(10), route(999));
    }

    #[test]
    fn no_augmentation_realization_is_empty() {
        let g = path(10);
        let mut rng = seeded_rng(2);
        let real = Realization::sample(&g, &NoAugmentation, &mut rng);
        assert_eq!(real.num_links(), 0);
    }

    #[test]
    fn uniform_realization_links_everywhere() {
        let g = path(100);
        let mut rng = seeded_rng(3);
        let real = Realization::sample(&g, &UniformScheme, &mut rng);
        assert_eq!(real.num_links(), 100); // uniform always yields a link
        for u in g.nodes() {
            assert!(real.contact(u).unwrap() < 100);
        }
    }

    #[test]
    fn expectation_over_realizations_matches_lazy_sampling() {
        // E[steps] averaged over fixed realizations must agree with the
        // lazy-sampling Monte-Carlo estimate (deferred decisions).
        let g = path(40);
        let router = GreedyRouter::new(&g, 39).unwrap();
        let trials = 4000;
        let mut sum_realized = 0.0;
        let mut sum_lazy = 0.0;
        for t in 0..trials {
            let mut rng = task_rng(55, t);
            let real = Realization::sample(&g, &UniformScheme, &mut rng);
            sum_realized += router
                .route(&real, 0, &mut rng, default_step_cap(&g), false)
                .steps as f64;
            let mut rng2 = task_rng(56, t);
            sum_lazy += router
                .route(&UniformScheme, 0, &mut rng2, default_step_cap(&g), false)
                .steps as f64;
        }
        let (a, b) = (sum_realized / trials as f64, sum_lazy / trials as f64);
        assert!((a - b).abs() < 0.6, "realized {a:.3} vs lazy {b:.3}");
    }
}
