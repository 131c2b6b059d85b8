//! # nav-analysis — statistics and reporting for the experiments
//!
//! Everything needed to turn raw trial outputs into the paper-shaped
//! artefacts of EXPERIMENTS.md:
//!
//! * [`quantile`] — order statistics on collected samples;
//! * [`fit`] — least-squares **power-law fits** `y = C·n^γ` on log–log
//!   scale (the scaling-exponent methodology: `γ ≈ 0.5` reproduces the
//!   √n-regime, `γ ≈ 1/3` the ball scheme's headline, `γ ≈ 0` the polylog
//!   regimes);
//! * [`table`] — markdown/CSV table rendering for the experiment binary;
//! * [`latency`] — tail-latency digests (p50/p90/p99) for the
//!   query-serving engine's batch reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod latency;
pub mod quantile;
pub mod table;

pub use fit::PowerLawFit;
pub use latency::LatencySummary;
