//! The augmentation-scheme abstraction.

use crate::sampler::ContactSampler;
use nav_graph::msbfs::LaneWidth;
use nav_graph::{Graph, NodeId};
use rand::RngCore;

/// An augmentation scheme `φ = {φ_u}`: for every node `u`, a probability
/// distribution over long-range contacts (possibly sub-stochastic — the
/// leftover mass means "no usable long-range link", exactly as rows of an
/// augmentation matrix may sum to less than 1, Definition 1).
///
/// Implementations must be [`Sync`]: trials sample from many threads, each
/// with its own RNG.
pub trait AugmentationScheme: Sync {
    /// Display name (used in experiment tables).
    fn name(&self) -> String;

    /// Draws the long-range contact of `u`, or `None` when the leftover
    /// (sub-stochastic) mass is hit. Must be a fresh independent draw each
    /// call — the routing engine calls it exactly once per visited node
    /// (deferred-decisions sampling).
    fn sample_contact(&self, g: &Graph, u: NodeId, rng: &mut dyn RngCore) -> Option<NodeId>;

    /// A per-worker **batched** sampler for this scheme, bounded at
    /// `byte_cap` bytes of cached state, whose MS-BFS batch fills carry
    /// `width.lanes()` sources per pass — or `None` when only the generic
    /// scalar path exists (the default). Implementations must draw from
    /// exactly the same per-node distribution as [`sample_contact`]
    /// (they may consume the RNG differently — see
    /// [`crate::sampler::ContactSampler`]); the width is a throughput
    /// knob, never a distribution change.
    ///
    /// [`sample_contact`]: AugmentationScheme::sample_contact
    fn batched_sampler(
        &self,
        g: &Graph,
        byte_cap: usize,
        width: LaneWidth,
    ) -> Option<Box<dyn ContactSampler + '_>> {
        let _ = (g, byte_cap, width);
        None
    }

    /// The scheme's explicit per-node contact table, when the scheme *is*
    /// one — i.e. a fixed realization whose entry `u` is node `u`'s
    /// deterministic long-range contact. `None` (the default) for every
    /// distributional scheme. The durability layer uses this to serialize
    /// realized schemes: a snapshot must carry the actual joint draw, not
    /// the distribution it was drawn from, or a restore would re-roll the
    /// links and break bit-identical replay.
    fn contact_table(&self) -> Option<Vec<Option<NodeId>>> {
        None
    }
}

/// Schemes able to enumerate `φ_u` explicitly, enabling the exact
/// expected-steps evaluator and distribution-level tests.
pub trait ExplicitScheme: AugmentationScheme {
    /// The support of `φ_u` with probabilities: pairs `(v, p)` with
    /// `p > 0`, summing to ≤ 1 (± float tolerance). Order unspecified;
    /// duplicates not allowed.
    fn contact_distribution(&self, g: &Graph, u: NodeId) -> Vec<(NodeId, f64)>;
}

// The sampling-vs-distribution checker lives in [`crate::conformance`]
// (pooled chi-squared, support/self-contact discipline, fixed-seed
// determinism) — one harness for scheme unit tests, the cross-scheme
// suite, and the batched sampler backends alike.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{check_scheme, ConformanceConfig};
    use nav_graph::GraphBuilder;

    /// A degenerate deterministic scheme exercising the trait surface.
    struct AlwaysZero;
    impl AugmentationScheme for AlwaysZero {
        fn name(&self) -> String {
            "always-zero".into()
        }
        fn sample_contact(&self, _g: &Graph, _u: NodeId, _rng: &mut dyn RngCore) -> Option<NodeId> {
            Some(0)
        }
    }
    impl ExplicitScheme for AlwaysZero {
        fn contact_distribution(&self, _g: &Graph, _u: NodeId) -> Vec<(NodeId, f64)> {
            vec![(0, 1.0)]
        }
    }

    #[test]
    fn default_batched_sampler_is_absent() {
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(AlwaysZero
            .batched_sampler(&g, usize::MAX, LaneWidth::W64)
            .is_none());
    }

    #[test]
    fn trivial_scheme_passes_conformance() {
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let cfg = ConformanceConfig::with_samples(2_000);
        check_scheme(&g, &AlwaysZero, &[1, 2], &cfg);
    }
}
