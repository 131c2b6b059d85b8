//! `nav-obs`: bounded-memory observability for the navigability stack.
//!
//! Three pieces, each O(1) in queries served:
//!
//! - [`LogHistogram`] — a 64-bucket log-spaced latency histogram with a
//!   declared multiplicative quantile-error bound
//!   ([`LogHistogram::error_factor`], ≈ 1.14) and elementwise
//!   [`LogHistogram::merge`] so digests aggregate without sample vectors.
//! - [`Stage`] times — named pipeline stages (engine:
//!   admission/cache/cold-fill/trials; server: decode/encode/socket)
//!   recorded into a per-stage [`StageSet`]; with stage timing off the
//!   engine reads no clock.
//! - Sampled traces — a [`TraceSampler`] picks 1-in-N queries
//!   deterministically from the lifetime query index (identical picks
//!   across threads and batch splits), recording a
//!   [`QueryTrace`] into a bounded [`TraceRing`].
//!
//! An engine owns a [`Registry`]; [`Registry::snapshot`] freezes it into
//! the [`ObsSnapshot`] that travels over the wire and renders
//! as a `/metrics`-style text exposition, JSON, or an aligned table.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod hist;
pub mod snapshot;
pub mod stage;
pub mod trace;

pub use hist::{LogHistogram, BUCKETS};
pub use snapshot::{ObsConfig, ObsSnapshot, Registry};
pub use stage::{Stage, StageSet};
pub use trace::{QueryTrace, TraceRing, TraceSampler};
