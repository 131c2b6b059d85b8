//! Failure injection: long-range links that flake and nodes that churn.
//!
//! Milgram chains famously had high attrition, and P2P fingers go stale;
//! the natural robustness question for any augmentation scheme is how
//! greedy routing degrades when each long-range lookup independently
//! fails with probability `p` (the message then falls back to the local
//! greedy hop — progress never stops, it just slows down).
//!
//! Two failure dimensions live here, both fully deterministic:
//!
//! * **Link drops** — [`FaultyScheme`] wraps any scheme and drops each
//!   sampled contact i.i.d. with probability `p`; for explicit schemes the
//!   wrapped distribution is exactly the inner one scaled by `1 − p`, so
//!   the exact evaluator and all distribution-level tests extend to the
//!   faulty setting for free. [`FaultySampler`] is the same coin at the
//!   [`ContactSampler`] layer, so the PR-4 batched backends (ball rows,
//!   realizations) work under drops with the inner RNG stream unchanged:
//!   the contact is drawn first, the failure coin second.
//! * **Node churn** — a [`FailurePlan`] derives, from a seed, one down-node
//!   set per *epoch* (a counter the serving layer advances with the query
//!   stream). Which nodes are down in epoch `e` is a pure hash of
//!   `(seed, e, node)`: no storage, O(1) queries, and every replica of the
//!   plan agrees byte for byte. Routing under a plan falls back to the
//!   best *live* local hop (the paper's model: a dead neighbour simply
//!   cannot be forwarded to); the routing target itself is exempt — it is
//!   the node asking the query.

use crate::sampler::{ContactSampler, SamplerStats};
use crate::scheme::{AugmentationScheme, ExplicitScheme};
use nav_graph::{Graph, NodeId};
use rand::{Rng, RngCore};

/// A scheme whose links fail independently with probability `drop_prob`.
#[derive(Clone, Copy, Debug)]
pub struct FaultyScheme<S> {
    inner: S,
    drop_prob: f64,
}

impl<S: AugmentationScheme> FaultyScheme<S> {
    /// Wraps `inner`; `drop_prob` must be in `[0, 1]`.
    pub fn new(inner: S, drop_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_prob),
            "drop probability {drop_prob} outside [0, 1]"
        );
        FaultyScheme { inner, drop_prob }
    }

    /// The failure probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// The wrapped scheme.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: AugmentationScheme> AugmentationScheme for FaultyScheme<S> {
    fn name(&self) -> String {
        // The exact value, not a rounded rendering: two distinct
        // probabilities must never collide in metrics/bench labels
        // (0.125 used to print as 0.13 under `{:.2}`).
        format!("{}+drop{}", self.inner.name(), self.drop_prob)
    }

    fn sample_contact(&self, g: &Graph, u: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        // Order matters for stream reproducibility: draw the contact
        // first, then the failure coin, so the inner stream is unchanged.
        let contact = self.inner.sample_contact(g, u, rng);
        if self.drop_prob > 0.0 && rng.gen::<f64>() < self.drop_prob {
            return None;
        }
        contact
    }

    fn batched_sampler<'s>(
        &'s self,
        g: &Graph,
        byte_cap: usize,
    ) -> Option<Box<dyn ContactSampler + 's>> {
        // Pass the inner scheme's batched backend through the same coin.
        // When the inner scheme has none, returning `None` makes
        // `sampler_for` fall back to a `ScalarSampler` over `self`, which
        // already applies the coin — either path consumes the identical
        // RNG stream.
        let inner = self.inner.batched_sampler(g, byte_cap)?;
        Some(Box::new(FaultySampler::new(inner, self.drop_prob)))
    }
}

impl<S: ExplicitScheme> ExplicitScheme for FaultyScheme<S> {
    fn contact_distribution(&self, g: &Graph, u: NodeId) -> Vec<(NodeId, f64)> {
        let keep = 1.0 - self.drop_prob;
        if keep <= 0.0 {
            return Vec::new();
        }
        self.inner
            .contact_distribution(g, u)
            .into_iter()
            .map(|(v, p)| (v, p * keep))
            .collect()
    }
}

/// The i.i.d. link-drop coin at the [`ContactSampler`] layer: wraps any
/// sampler (scalar or batched), draws the inner contact first and the
/// failure coin second — exactly the [`FaultyScheme::sample_contact`]
/// order, so `ScalarSampler(FaultyScheme(S, p))` and
/// `FaultySampler(ScalarSampler(S), p)` consume bit-identical RNG
/// streams. Counts the contacts it suppresses, so the serving layer can
/// report dropped links.
pub struct FaultySampler<T> {
    inner: T,
    drop_prob: f64,
    dropped: u64,
}

impl<T: ContactSampler> FaultySampler<T> {
    /// Wraps `inner`; `drop_prob` must be in `[0, 1]`.
    pub fn new(inner: T, drop_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_prob),
            "drop probability {drop_prob} outside [0, 1]"
        );
        FaultySampler {
            inner,
            drop_prob,
            dropped: 0,
        }
    }
}

impl<T: ContactSampler> ContactSampler for FaultySampler<T> {
    fn name(&self) -> String {
        format!("{}+drop{}", self.inner.name(), self.drop_prob)
    }

    fn sample(&mut self, g: &Graph, u: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        let contact = self.inner.sample(g, u, rng);
        if self.drop_prob > 0.0 && rng.gen::<f64>() < self.drop_prob {
            if contact.is_some() {
                self.dropped += 1;
            }
            return None;
        }
        contact
    }

    fn prepare(&mut self, g: &Graph, nodes: &[NodeId]) -> usize {
        self.inner.prepare(g, nodes)
    }

    fn wants_lockstep(&self) -> bool {
        self.inner.wants_lockstep()
    }

    /// Coin flips that fired on a draw that actually produced a contact.
    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn stats(&self) -> SamplerStats {
        self.inner.stats()
    }
}

/// Seeded, epoch-tagged node-failure churn: epoch `e`'s down-node set is
/// `{v : hash(seed, e, v) < down_frac}` — a pure function, so every
/// holder of the plan (engines, test oracles, remote replicas)
/// agrees on exactly which nodes are down at every epoch with no
/// coordination and no storage.
///
/// The query stream drives the clock: query index `i` lands in epoch
/// `(i / period) % epochs` ([`FailurePlan::epoch_of`]), so a serving
/// stream cycles through the plan's epochs deterministically and a
/// retried query replays in the same epoch it was first assigned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailurePlan {
    seed: u64,
    epochs: u32,
    period: u64,
    down_frac: f64,
}

/// SplitMix64 finalizer: a fast, well-mixed `u64 → u64` bijection.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FailurePlan {
    /// Builds a plan. `epochs ≥ 1` and `period ≥ 1` (queries per epoch
    /// tick); `down_frac` is the expected fraction of nodes down in any
    /// epoch, in `[0, 1]`.
    pub fn new(seed: u64, epochs: u32, period: u64, down_frac: f64) -> Self {
        assert!(epochs >= 1, "a failure plan needs at least one epoch");
        assert!(period >= 1, "epoch period must be at least one query");
        assert!(
            (0.0..=1.0).contains(&down_frac),
            "down fraction {down_frac} outside [0, 1]"
        );
        FailurePlan {
            seed,
            epochs,
            period,
            down_frac,
        }
    }

    /// The conventional churn plan behind the `--fault-epochs` CLI knob:
    /// `epochs` epochs of 1024 queries each, 5% of nodes down per epoch.
    pub fn standard(seed: u64, epochs: u32) -> Self {
        FailurePlan::new(seed, epochs, 1024, 0.05)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of distinct epochs the plan cycles through.
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// Queries per epoch tick.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Expected fraction of nodes down per epoch.
    pub fn down_frac(&self) -> f64 {
        self.down_frac
    }

    /// The epoch query index `i` lands in: `(i / period) % epochs`.
    #[inline]
    pub fn epoch_of(&self, index: u64) -> u64 {
        (index / self.period) % u64::from(self.epochs)
    }

    /// Whether `node` is down in `epoch` — a pure hash of
    /// `(seed, epoch, node)`, O(1) and storage-free. Callers routing to a
    /// target exempt the target themselves (the node asking the query is
    /// by definition up).
    #[inline]
    pub fn is_down(&self, epoch: u64, node: NodeId) -> bool {
        if self.down_frac <= 0.0 {
            return false;
        }
        let h = mix(self.seed
            ^ mix(epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ mix(u64::from(node).wrapping_mul(0xa24b_aed4_963e_e407)));
        // 53 high-order bits → uniform in [0, 1).
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.down_frac
    }
}

/// The full failure configuration a serving layer applies to a query
/// stream: an i.i.d. link-drop probability plus an optional node-churn
/// plan. `Default` is fault-free, so `..EngineConfig::default()` call
/// sites stay untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Probability each sampled long-range contact is dropped
    /// (the [`FaultyScheme`] / [`FaultySampler`] coin). `0.0` disables.
    pub drop_prob: f64,
    /// Node-failure churn; `None` disables.
    pub plan: Option<FailurePlan>,
}

impl FaultConfig {
    /// `true` when either failure dimension is switched on.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0 || self.plan.is_some()
    }

    /// Panics unless `drop_prob ∈ [0, 1]` (plans validate on
    /// construction).
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.drop_prob),
            "drop probability {} outside [0, 1]",
            self.drop_prob
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{check_scheme, ConformanceConfig};
    use crate::exact::exact_expected_steps;
    use crate::sampler::ScalarSampler;
    use crate::uniform::UniformScheme;
    use nav_graph::GraphBuilder;
    use nav_par::rng::seeded_rng;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn zero_drop_is_identity() {
        let g = path(30);
        let faulty = FaultyScheme::new(UniformScheme, 0.0);
        let t = 29;
        let a = exact_expected_steps(&g, &faulty, t).unwrap();
        let b = exact_expected_steps(&g, &UniformScheme, t).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn full_drop_is_walking() {
        let g = path(30);
        let faulty = FaultyScheme::new(UniformScheme, 1.0);
        let e = exact_expected_steps(&g, &faulty, 29).unwrap();
        assert!((e[0] - 29.0).abs() < 1e-12);
        assert!(faulty.contact_distribution(&g, 0).is_empty());
    }

    #[test]
    fn degradation_is_monotone_in_p() {
        let g = path(64);
        let mut prev = 0.0;
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let faulty = FaultyScheme::new(UniformScheme, p);
            let e = exact_expected_steps(&g, &faulty, 63).unwrap()[0];
            assert!(e >= prev - 1e-9, "p={p}: {e} < {prev}");
            prev = e;
        }
    }

    #[test]
    fn sampling_matches_scaled_distribution() {
        let g = path(12);
        let faulty = FaultyScheme::new(UniformScheme, 0.3);
        let cfg = ConformanceConfig::with_samples(60_000);
        check_scheme(&g, &faulty, &[5], &cfg);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_probability_rejected() {
        let _ = FaultyScheme::new(UniformScheme, 1.5);
    }

    #[test]
    fn name_reflects_drop_exactly() {
        let faulty = FaultyScheme::new(UniformScheme, 0.25);
        assert_eq!(faulty.name(), "uniform+drop0.25");
        assert_eq!(faulty.drop_prob(), 0.25);
        assert_eq!(faulty.inner().name(), "uniform");
        // Values that `{:.2}` used to round (0.125 → "0.13") print
        // exactly, so distinct probabilities can never collide in labels.
        assert_eq!(
            FaultyScheme::new(UniformScheme, 0.125).name(),
            "uniform+drop0.125"
        );
        assert_ne!(
            FaultyScheme::new(UniformScheme, 0.125).name(),
            FaultyScheme::new(UniformScheme, 0.134).name()
        );
    }

    #[test]
    fn faulty_sampler_matches_faulty_scheme_stream() {
        // FaultySampler(ScalarSampler(S), p) ≡ ScalarSampler(FaultyScheme(S, p)):
        // the same draws out of the same seed, bit for bit.
        let g = path(16);
        let p = 0.4;
        let faulty = FaultyScheme::new(UniformScheme, p);
        let mut via_scheme = ScalarSampler::new(&faulty);
        let mut via_sampler = FaultySampler::new(ScalarSampler::new(&UniformScheme), p);
        let mut rng_a = seeded_rng(77);
        let mut rng_b = seeded_rng(77);
        for i in 0..200u32 {
            let u = i % 16;
            assert_eq!(
                via_scheme.sample(&g, u, &mut rng_a),
                via_sampler.sample(&g, u, &mut rng_b),
                "draw {i} diverged"
            );
        }
        assert_eq!(via_sampler.name(), "uniform+drop0.4");
        assert_eq!(via_sampler.stats(), SamplerStats::default());
    }

    #[test]
    fn faulty_sampler_counts_real_drops_only() {
        struct Never;
        impl AugmentationScheme for Never {
            fn name(&self) -> String {
                "never".into()
            }
            fn sample_contact(
                &self,
                _g: &Graph,
                _u: NodeId,
                _rng: &mut dyn RngCore,
            ) -> Option<NodeId> {
                None
            }
        }
        let g = path(8);
        let mut rng = seeded_rng(3);
        let mut s = FaultySampler::new(ScalarSampler::new(&Never), 1.0);
        for _ in 0..50 {
            assert_eq!(s.sample(&g, 0, &mut rng), None);
        }
        assert_eq!(s.dropped(), 0, "no contact existed, so none was dropped");
        let mut s = FaultySampler::new(ScalarSampler::new(&UniformScheme), 1.0);
        for _ in 0..50 {
            assert_eq!(s.sample(&g, 0, &mut rng), None);
        }
        assert!(s.dropped() > 0);
    }

    #[test]
    fn batched_passthrough_exists_iff_inner_has_one() {
        use crate::ball::BallScheme;
        let g = path(32);
        // UniformScheme has no batched backend → neither does its wrapper.
        assert!(FaultyScheme::new(UniformScheme, 0.3)
            .batched_sampler(&g, usize::MAX)
            .is_none());
        // BallScheme has one → the wrapper passes it through the coin.
        let ball = BallScheme::new(&g);
        let faulty = FaultyScheme::new(ball, 0.3);
        let mut s = faulty
            .batched_sampler(&g, usize::MAX)
            .expect("ball scheme has a batched backend");
        let mut rng = seeded_rng(5);
        for i in 0..32u32 {
            let c = s.sample(&g, i, &mut rng);
            if let Some(v) = c {
                assert!((v as usize) < 32);
            }
        }
    }

    #[test]
    fn plan_epochs_cycle_with_the_query_stream() {
        let plan = FailurePlan::new(9, 3, 4, 0.5);
        let epochs: Vec<u64> = (0..14).map(|i| plan.epoch_of(i)).collect();
        assert_eq!(epochs, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0]);
        assert_eq!(plan.epochs(), 3);
        assert_eq!(plan.period(), 4);
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.down_frac(), 0.5);
        let std = FailurePlan::standard(1, 4);
        assert_eq!((std.period(), std.down_frac()), (1024, 0.05));
    }

    #[test]
    fn down_sets_are_deterministic_and_near_the_declared_fraction() {
        let plan = FailurePlan::new(0x5eed, 4, 1, 0.25);
        let n = 20_000u32;
        for epoch in 0..4 {
            let down: Vec<NodeId> = (0..n).filter(|&v| plan.is_down(epoch, v)).collect();
            let again: Vec<NodeId> = (0..n).filter(|&v| plan.is_down(epoch, v)).collect();
            assert_eq!(down, again, "down set must be a pure function");
            let frac = down.len() as f64 / n as f64;
            assert!(
                (frac - 0.25).abs() < 0.02,
                "epoch {epoch}: down fraction {frac} far from 0.25"
            );
        }
        // Distinct epochs get distinct down sets (with overwhelming
        // probability for these sizes; the seeds are fixed, so this is a
        // deterministic assertion).
        let e0: Vec<NodeId> = (0..n).filter(|&v| plan.is_down(0, v)).collect();
        let e1: Vec<NodeId> = (0..n).filter(|&v| plan.is_down(1, v)).collect();
        assert_ne!(e0, e1);
        // Zero fraction: nobody is ever down.
        let quiet = FailurePlan::new(0x5eed, 4, 1, 0.0);
        assert!((0..n).all(|v| !quiet.is_down(0, v)));
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn plan_rejects_zero_epochs() {
        let _ = FailurePlan::new(1, 0, 16, 0.1);
    }

    #[test]
    fn fault_config_defaults_off() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        cfg.validate();
        assert!(FaultConfig {
            drop_prob: 0.1,
            plan: None
        }
        .is_active());
        assert!(FaultConfig {
            drop_prob: 0.0,
            plan: Some(FailurePlan::standard(1, 2))
        }
        .is_active());
    }
}
