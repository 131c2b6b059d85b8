//! # nav-net — the TCP serving front for `nav-engine`
//!
//! PR 3 made the reproduction a *service shape* (a persistent engine
//! answering query batches); this crate makes it an actual **server**.
//! The batch API was transport-agnostic by design, and this is the
//! transport: a versioned, length-prefixed binary protocol over TCP,
//! small enough to have no dependencies and total enough to face a
//! hostile peer.
//!
//! * [`frame`] — the wire format: a 12-byte header (magic, version,
//!   kind, payload length) framing request / response / typed-error
//!   payloads. Floats travel as IEEE-754 bit patterns, so the engine's
//!   bit-identical determinism contract extends across the wire. The
//!   decoder never panics and never allocates beyond its configured
//!   bound (property-tested in `tests/net.rs`).
//! * [`server`] — [`NetServer`]: a multi-threaded blocking server
//!   (accept loop + worker pool over a bounded connection queue, graceful
//!   shutdown, byte/batch/in-flight admission limits via [`NetConfig`]).
//!   Engine execution is serialized — the engine already fans each batch
//!   out to its own compute workers — while socket I/O and codec work
//!   overlap across connections.
//! * [`client`] — [`NetClient`]: a blocking connection that stamps each
//!   request with its cumulative RNG offset, making a client stream
//!   bit-identical to the same batches through a local
//!   [`nav_engine::Engine`] no matter what other connections interleave
//!   with it (the [`nav_engine::Engine::serve_at`] contract). Layered on
//!   top, [`RetryingClient`] reconnects and replays on retryable
//!   failures (transport drops, [`ErrorCode::Overloaded`] sheds) with
//!   jittered backoff — and because the RNG base is fixed before the
//!   first attempt, the retried stream is bit-identical to an
//!   uninterrupted one.
//!
//! The protocol also carries an **ops surface**: a [`StatsRequest`]
//! frame answers with a [`StatsReply`] — merged engine counters,
//! per-stage latency histograms (engine pipeline stages plus the
//! front's own socket/decode/encode timings, recorded via
//! [`read_frame_timed`]), and sampled query traces — rendered by
//! `nav-engine stats` as Prometheus-style text or JSON.
//!
//! And a **durability surface**: a [`SnapshotRequest`] frame answers
//! with a [`SnapshotReply`] carrying an encoded `nav-store` snapshot of
//! the served engine (opaque to the wire layer), while
//! [`NetServer::record_to`] appends every accepted request frame and
//! its reply to a length-prefixed traffic log — together they make
//! `kill -9` → restore → replay a bit-identical round trip, exercised
//! end to end by `nav-engine snapshot` / `replay` and CI's
//! durability-smoke job.
//!
//! The `nav-engine serve-tcp` / `bench-tcp` CLI pair (in `nav-bench`)
//! puts a workload file on one end of this protocol and a replaying
//! client on the other; `BENCH_net.json` records what the wire costs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod frame;
pub mod server;

pub use client::{NetClient, NetError, RetryPolicy, RetryingClient};
pub use frame::{
    frames_bits_eq, is_deadline_expiry, is_timeout, read_frame, read_frame_deadline,
    read_frame_timed, write_frame, ErrorCode, ErrorFrame, Frame, FrameError, MetricsSnapshot,
    ReadError, Request, Response, SnapshotReply, SnapshotRequest, StatsReply, StatsRequest,
    WireTiming,
};
pub use server::{NetConfig, NetServer, ServerHandle};
