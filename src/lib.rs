//! # navigability — umbrella crate
//!
//! Reproduction of *"Universal augmentation schemes for network
//! navigability: overcoming the √n-barrier"* (Fraigniaud, Gavoille,
//! Kosowski, Lebhar, Lotker — SPAA 2007).
//!
//! This crate re-exports the whole workspace behind one dependency:
//!
//! * [`graph`] — CSR graph substrate, BFS, balls, distances;
//! * [`gen`] — graph-family generators (the experiment workloads);
//! * [`decomp`] — tree/path decompositions and the pathshape parameter;
//! * [`core`] — the paper's augmentation schemes and greedy routing;
//! * [`engine`] — the persistent batched query-serving subsystem;
//! * [`net`] — the length-prefixed TCP serving front for [`engine`];
//! * [`obs`] — bounded histograms, stage spans, and sampled query
//!   traces (the observability layer threaded through [`engine`] and
//!   [`net`]);
//! * [`store`] — the durability layer: versioned snapshot/restore of a
//!   serving front and length-prefixed traffic recording for replay;
//! * [`par`] — deterministic parallel substrate;
//! * [`analysis`] — statistics, exponent fits, table output.
//!
//! ## Quickstart
//!
//! ```
//! use navigability::prelude::*;
//!
//! // Build a 32x32 grid, augment it with the paper's Theorem 4 ball
//! // scheme, and greedily route between opposite corners.
//! let g = navigability::gen::grid::grid2d(32, 32).unwrap();
//! let scheme = BallScheme::new(&g);
//! let mut rng = seeded_rng(7);
//! let outcome = route_with_fresh_oracle(&g, &scheme, 0, 32 * 32 - 1, &mut rng).unwrap();
//! assert!(outcome.reached);
//! // Greedy routing strictly decreases the distance to the target each
//! // step, so it never takes more steps than the shortest path:
//! // dist(corner, corner) = 31 + 31 = 62 on a 32x32 grid.
//! assert!(outcome.steps <= 62);
//! ```

pub use nav_analysis as analysis;
pub use nav_core as core;
pub use nav_decomp as decomp;
pub use nav_engine as engine;
pub use nav_gen as gen;
pub use nav_graph as graph;
pub use nav_net as net;
pub use nav_obs as obs;
pub use nav_par as par;
pub use nav_store as store;

/// The most common imports in one place.
pub mod prelude {
    pub use nav_analysis::fit::PowerLawFit;
    pub use nav_core::ball::BallScheme;
    pub use nav_core::kleinberg::KleinbergScheme;
    pub use nav_core::routing::{route_with_fresh_oracle, GreedyRouter, RouteOutcome};
    pub use nav_core::scheme::AugmentationScheme;
    pub use nav_core::theorem2::Theorem2Scheme;
    pub use nav_core::trial::{run_standard, run_trials, TrialConfig, TrialResult};
    pub use nav_core::uniform::UniformScheme;
    pub use nav_decomp::decomposition::PathDecomposition;
    pub use nav_engine::{Engine, EngineConfig, QueryBatch};
    pub use nav_graph::{Graph, GraphBuilder, NodeId};
    pub use nav_par::rng::seeded_rng;
}

/// Compile-checks the README's code blocks as doctests, so the front-page
/// examples can never drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
