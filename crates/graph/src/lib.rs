//! # nav-graph — graph substrate for the navigability reproduction
//!
//! A small, fast, dependency-free undirected-graph library purpose-built for
//! the SPAA 2007 paper *"Universal augmentation schemes for network
//! navigability: overcoming the √n-barrier"* (Fraigniaud, Gavoille,
//! Kosowski, Lebhar, Lotker).
//!
//! Everything the augmentation schemes and the greedy-routing engine need
//! from a graph lives here:
//!
//! * a compact **CSR** (compressed sparse row) representation with sorted
//!   adjacency ([`Graph`]), built through [`GraphBuilder`];
//! * **BFS** machinery with reusable buffers ([`bfs::Bfs`]) — full
//!   single-source distances and truncated (radius-bounded) searches;
//! * **bit-parallel multi-source BFS** ([`msbfs::MsBfs`]) — 64 sources per
//!   pass, one `u64` lane each, feeding the all-pairs, eccentricity and
//!   distance-oracle layers;
//! * **balls** `B(u, r) = { v : dist(u, v) ≤ r }` as used by the paper's
//!   Theorem 4 scheme ([`ball`]);
//! * exact **distance matrices**, eccentricities and diameters for analysis
//!   and for the exact expected-steps evaluator ([`distance`]);
//! * **connected components** and connectivity repair ([`components`]);
//! * structural **properties** (tree, path, cycle, regularity and
//!   bipartiteness tests) ([`properties`]);
//! * a **Prüfer-sequence codec** used by the uniform-random-tree generator
//!   ([`prufer`]).
//!
//! The crate is `no_std`-agnostic in spirit but uses `std` collections; node
//! identifiers are plain `u32` ([`NodeId`]) for cache friendliness (the
//! paper's instances comfortably fit in 32 bits).
//!
//! ## Example
//!
//! ```
//! use nav_graph::{GraphBuilder, bfs::Bfs};
//!
//! // A 5-node path 0 - 1 - 2 - 3 - 4.
//! let mut b = GraphBuilder::new(5);
//! for u in 0..4u32 {
//!     b.add_edge(u, u + 1);
//! }
//! let g = b.build().unwrap();
//! assert_eq!(g.num_nodes(), 5);
//! assert_eq!(g.num_edges(), 4);
//!
//! let mut bfs = Bfs::new(g.num_nodes());
//! let dist = bfs.distances(&g, 0);
//! assert_eq!(dist[4], 4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ball;
pub mod bfs;
pub mod builder;
pub mod components;
pub mod csr;
pub mod distance;
pub mod error;
pub mod msbfs;
pub mod properties;
pub mod prufer;

pub use builder::GraphBuilder;
pub use csr::Graph;
pub use error::GraphError;

/// Node identifier. Nodes of an `n`-node graph are `0..n as NodeId`.
pub type NodeId = u32;

/// Sentinel distance meaning "unreachable" / "not yet visited".
pub const INFINITY: u32 = u32::MAX;

/// Sentinel node id meaning "no node".
pub const NO_NODE: NodeId = u32::MAX;
