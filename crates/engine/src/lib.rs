//! # nav-engine — the persistent batched query-serving subsystem
//!
//! Everything before this crate answers routing questions *offline*: build
//! a graph, run a trial sweep, throw the state away. A deployed navigation
//! service looks nothing like that — it owns one huge instance for hours,
//! queries arrive continuously with heavy target skew, and the expensive
//! part (a full distance row per distinct target) is exactly the part
//! worth keeping warm between requests. This crate is that service shape:
//!
//! * [`Engine`] — a long-lived owner of a graph + augmentation scheme,
//!   answering [`QueryBatch`]es through a three-stage pipeline:
//!   **admission** (validate, dedup targets), **cache** (a byte-bounded
//!   LRU over compact distance rows, [`RowCache`]), **execute** (cold rows
//!   64-at-a-time via bit-parallel MS-BFS fanned out to `nav-par`
//!   workers, then trials in parallel with `(seed, query-index)` RNGs);
//! * [`RowCache`] — the cross-batch distance-row cache: capacity in
//!   bytes, adaptive `u16`/`u32` row storage
//!   ([`nav_graph::distance::DistRowBuf`]), hit/miss/eviction counters,
//!   and a choice of [`AdmissionPolicy`] (strict LRU, or a segmented
//!   probation/protected LRU that survives one-shot scan traffic);
//! * [`workload`] — a dependency-free workload-file format (graph spec +
//!   query stream) with a zipfian-target generator, so hot-target skew
//!   actually exercises the cache;
//! * [`metrics`] — served counts, a bounded per-batch latency histogram
//!   (`nav_obs::LogHistogram` — O(1) memory however long the engine
//!   runs) and throughput, digestible via [`nav_analysis::latency`];
//!   stage-level timings and sampled query traces live in the engine's
//!   `nav_obs::Registry` ([`Engine::obs_snapshot`]).
//!
//! **Determinism contract.** Cached rows are exact distances and each
//! query's RNG is derived from `(seed, lifetime query index)`, so the
//! engine's answers are **bit-identical** to a fresh
//! [`nav_core::trial::run_trials`] over the same `(s, t)` sequence — at
//! every thread count, every cache capacity (including 0) and every
//! batch split. `tests/engine.rs` and the `BENCH_serve.json` emitter both
//! assert it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod cache;
pub mod engine;
pub mod metrics;
pub mod workload;

pub use batch::{BatchResult, Query, QueryBatch};
pub use cache::{AdmissionPolicy, CacheStats, RowCache};
pub use engine::{Engine, EngineConfig, EngineState};
pub use metrics::EngineMetrics;
pub use workload::{FaultSpec, GraphSpec, WorkloadError, WorkloadSpec, ZipfSpec};
