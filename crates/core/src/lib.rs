//! # nav-core — augmentation schemes and greedy routing
//!
//! The paper's contribution, implemented in full:
//!
//! | Paper | Module | What it is |
//! |---|---|---|
//! | Peleg's observation | [`uniform`] | the uniform universal scheme, `O(√n)` greedy diameter |
//! | Definition 1 | [`matrix`] | augmentation matrices + labeled application |
//! | Theorem 1 | [`theorem1`] | the adversarial path labeling forcing `Ω(√n)` on *any* name-independent matrix scheme |
//! | Theorem 2 | [`ancestry`], [`labeling`], [`theorem2`] | the `(M, L)` scheme: dyadic ancestor matrix `A`, uniform matrix `U`, `M = (A+U)/2`, and the max-level bag labeling — `O(min{ps·log²n, √n})` |
//! | Theorem 3 | [`theorem3`] | the label-budget-restricted variant exhibiting the `Ω(n^{(1−ε)/3})` degradation |
//! | Theorem 4 | [`ball`] | the a-posteriori ball scheme — `Õ(n^{1/3})` universal |
//! | baseline | [`kleinberg`] | distance-harmonic scheme (class-specific contrast) |
//!
//! Greedy routing ([`routing`]) is the oblivious process of the paper:
//! forward to the neighbour (local ∪ own long-range contact) closest to the
//! target in the **underlying** metric. Because each step strictly
//! decreases the distance to the target, no node repeats, and long-range
//! contacts can be sampled lazily at first visit — distributionally
//! identical to sampling all links upfront (deferred decisions), and the
//! basis of the whole engine's efficiency.
//!
//! Distance queries flow through exact target rows ([`oracle`]): the
//! distinct targets of a workload are deduplicated and their compact
//! distance rows computed `width.lanes()` (64, 128 or 256) at a time by
//! bit-parallel multi-source BFS, then borrowed by the routers through
//! their one row constructor ([`GreedyRouter::from_row`]) — no per-pair
//! BFS anywhere in the engine, and no approximate distance tier.
//!
//! Per-step contact draws flow through the sampler layer ([`sampler`]):
//! the scalar reference backend (bit-identical to calling
//! [`scheme::AugmentationScheme::sample_contact`] directly), shared ball
//! rows ([`ball::BallRowSampler`] — lockstep trial rounds across many
//! pairs, one MS-BFS pass serving up to 64 · W walk positions), and
//! pre-realized contact tables
//! ([`realization`]). The conformance harness ([`conformance`])
//! chi-squared-tests every backend against the scheme's declared
//! distribution.
//!
//! Two evaluation paths cross-check each other:
//! * Monte-Carlo trials ([`trial`], [`diameter`]) — parallel, seeded,
//!   reproducible, run by the one trial executor ([`wave`]) that the
//!   serving engine shares;
//! * an exact expected-steps evaluator ([`exact`]) for any scheme that can
//!   enumerate its distribution ([`scheme::ExplicitScheme`]), processing
//!   nodes in increasing target-distance order.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ancestry;
pub mod ball;
pub mod conformance;
pub mod diameter;
pub mod exact;
pub mod faulty;
pub mod kleinberg;
pub mod labeling;
pub mod matrix;
pub mod oracle;
pub mod realization;
pub mod routing;
pub mod sampler;
pub mod scheme;
pub mod theorem1;
pub mod theorem2;
pub mod theorem3;
pub mod trial;
pub mod uniform;
pub mod wave;
pub mod workspace;

pub use ball::{BallRowSampler, BallScheme};
pub use faulty::{FailurePlan, FaultConfig, FaultySampler, FaultyScheme};
pub use kleinberg::KleinbergScheme;
pub use matrix::{AugmentationMatrix, MatrixScheme};
pub use oracle::TargetDistanceCache;
pub use realization::Realization;
pub use routing::{GreedyRouter, RouteOutcome};
pub use sampler::{ContactSampler, SamplerMode, SamplerStats};
pub use scheme::{AugmentationScheme, ExplicitScheme};
pub use theorem2::{Theorem2Mode, Theorem2Scheme};
pub use uniform::{NoAugmentation, UniformScheme};
