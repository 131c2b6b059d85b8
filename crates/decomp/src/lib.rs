//! # nav-decomp — path decompositions and the **pathshape** parameter
//!
//! The paper's Theorem 2 analyses its matrix-based scheme `(M, L)` in terms
//! of a new graph parameter, the *pathshape* `ps(G)`: the minimum over all
//! path-decompositions of the maximum over bags of
//! `shape(X) = min(width(X), length(X))`, where `width(X) = |X| − 1` and
//! `length(X) = max_{x,y ∈ X} dist_G(x, y)`. Pathshape interpolates between
//! pathwidth (Robertson–Seymour) and pathlength (Dourisboure): trees have
//! `ps = O(log n)` (small width bags), interval/AT-free graphs have
//! `ps = O(1)` (small length bags — cliques).
//!
//! Computing `ps(G)` exactly is NP-hard (it generalises pathwidth), so this
//! crate provides:
//!
//! * decomposition **data types** and an axiomatic [`validate`]-or;
//! * **measures** (width/length/shape) for any decomposition;
//! * **constructions** with proven guarantees:
//!   [`tree_pd`] (heavy-path recursion, width ≤ log₂ n + 1 on any tree),
//!   [`interval_pd`] (clique path from an interval representation,
//!   length ≤ 1), [`construct`] (vertex-ordering and BFS-layer
//!   decompositions for arbitrary graphs);
//! * an **exact** vertex-separation DP for tiny graphs ([`exact`],
//!   `pw(G) = vs(G)`), used to certify the heuristics in tests;
//! * a best-of [`portfolio`] that tries everything applicable and returns
//!   the smallest-shape decomposition found — the default input to the
//!   Theorem-2 scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod construct;
pub mod decomposition;
pub mod exact;
pub mod interval_pd;
pub mod measures;
pub mod ordering;
pub mod portfolio;
pub mod tree_pd;
pub mod validate;

pub use decomposition::PathDecomposition;
pub use portfolio::best_path_decomposition;
