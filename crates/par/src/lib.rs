//! # nav-par — deterministic parallel substrate
//!
//! Monte-Carlo estimation of greedy diameters runs thousands of independent
//! routing trials; this crate provides the small amount of parallel
//! machinery the reproduction needs, built directly on `crossbeam` scoped
//! threads (no global thread pool, no work-stealing deque — an atomic
//! work counter is enough for the embarrassingly parallel workloads here):
//!
//! * [`rng`] — splittable, fast, reproducible random number generation:
//!   a [`rng::SplitMix64`] stream seeder and a
//!   [Xoshiro256++](`rng::Xoshiro256pp`) generator implementing the `rand`
//!   traits, so every parallel task derives an independent, deterministic
//!   generator from `(seed, task_index)`;
//! * [`map`] — `parallel_map` / `parallel_chunks_mut` over an index space
//!   with dynamic (atomic-counter) load balancing.
//!
//! The design rule throughout: **parallel results are bit-identical to
//! sequential results** for the same seed. Tests enforce it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod map;
pub mod rng;

pub use host::HostMeta;
pub use map::{parallel_chunks_mut, parallel_map};
pub use rng::{seeded_rng, task_rng, SplitMix64, Xoshiro256pp};

/// Default number of worker threads: the machine's available parallelism,
/// capped at 16 (the workloads here stop scaling far before that).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// The environment variable [`test_threads`] honours, mirroring the
/// `PROPTEST_CASES` convention the vendored proptest follows: one knob,
/// read at use, pinned in CI.
pub const TEST_THREADS_ENV: &str = "NAV_TEST_THREADS";

/// Worker-thread count for test suites: `NAV_TEST_THREADS` when set to a
/// positive integer, otherwise [`default_threads`] clamped to `[2, 4]`.
///
/// Every multi-threaded code path in the workspace is answer-invariant in
/// its thread count, so tests that sweep `[1, test_threads()]` prove the
/// same contract everywhere — this knob only sizes the sweep so it is
/// *reproducible*: pin `NAV_TEST_THREADS=2` on 1-core CI and the suite
/// exercises the identical configurations a ≥8-core dev box does, instead
/// of each host deriving its own ad-hoc counts.
pub fn test_threads() -> usize {
    std::env::var(TEST_THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| default_threads().clamp(2, 4))
}
