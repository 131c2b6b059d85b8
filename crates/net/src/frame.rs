//! The length-prefixed binary wire format.
//!
//! Every message on a `nav-net` connection is one **frame**: a fixed
//! 12-byte header followed by a bounded payload, all integers
//! little-endian, floats as IEEE-754 bit patterns (so answers survive the
//! wire bit-for-bit — the whole point of the engine's determinism
//! contract):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "NAVF"
//! 4       2     version (= 5)
//! 6       1     kind    (1 = request, 2 = response, 3 = error,
//!                        4 = stats request, 5 = stats,
//!                        6 = snapshot request, 7 = snapshot reply)
//! 7       1     reserved (= 0)
//! 8       4     payload length in bytes
//! 12      …     payload
//! ```
//!
//! The decoder is **total**: any byte sequence either yields a frame or a
//! typed [`FrameError`] — it never panics, and it never allocates more
//! than the declared (and bounds-checked) payload, so a hostile peer
//! cannot balloon server memory with a forged length field. Round-tripping
//! is property-tested in `tests/net.rs`.

use nav_core::sampler::SamplerMode;
use nav_core::trial::PairStats;
use nav_engine::Query;
use nav_obs::{LogHistogram, ObsSnapshot, QueryTrace, Stage, BUCKETS};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"NAVF";
/// Protocol version this build speaks (2 added the stats frames; 3 added
/// the snapshot frames and the cache-rejection metric; 4 widened the
/// per-trace `trials`/`dropped_links`/`rerouted_hops` counters to `u64`
/// and added the non-retryable [`ErrorCode::InvalidQuery`] refusal; 5
/// dropped the stats frame's `u32` label count after the metrics and the
/// `u16` label after each trace's `t`).
pub const VERSION: u16 = 5;
/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 12;
/// Default payload bound (16 MiB) — comfortably above any realistic
/// batch, far below a memory-exhaustion vector.
pub const DEFAULT_MAX_PAYLOAD: usize = 16 << 20;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_STATS_REQUEST: u8 = 4;
const KIND_STATS: u8 = 5;
const KIND_SNAPSHOT_REQUEST: u8 = 6;
const KIND_SNAPSHOT_REPLY: u8 = 7;

/// Wire encoding of one query: `s`, `t`, `trials`, 4 bytes each.
const QUERY_WIRE: usize = 12;
/// Wire encoding of one [`PairStats`]: four `u32`s, one `u64`, three
/// `f64`s.
const STATS_WIRE: usize = 48;
/// Wire encoding of a [`MetricsSnapshot`]: sixteen `u64`s.
const METRICS_WIRE: usize = 128;
/// Wire encoding of one stage histogram entry: stage id byte, then
/// `sum`/`min`/`max` as `f64` and the 64 bucket counts as `u64`s.
const STAGE_WIRE: usize = 1 + 3 * 8 + BUCKETS * 8;
/// Wire encoding of one [`QueryTrace`]: index `u64`, `s`/`t` `u32`,
/// cache-hit byte, trials `u64`, trials_ms `f64`,
/// dropped/rerouted `u64` (full width since v4 — long churn runs
/// overflow 32 bits, and a trace must report what actually ran).
const TRACE_WIRE: usize = 8 + 4 + 4 + 1 + 8 + 8 + 8 + 8;

/// Why a server refused a well-formed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request named a graph/scheme handle this server does not own.
    UnknownHandle,
    /// The batch exceeded the server's per-request query admission limit.
    TooManyQueries,
    /// A query endpoint was out of range for the served graph.
    InvalidEndpoint,
    /// The peer sent a frame kind that makes no sense in its role (e.g. a
    /// response to a server).
    UnexpectedFrame,
    /// The server failed internally; the message carries detail.
    Internal,
    /// The server's admission queue was full when the connection arrived.
    /// Transient by construction — the same request succeeds once load
    /// drains, so this is the one refusal a client should retry.
    Overloaded,
    /// A query field cannot be represented on the wire (today: `trials`
    /// beyond `u32::MAX`, which the v3 encoder silently clamped — the
    /// server would then answer a *different* question). Deterministic in
    /// the request, hence non-retryable; raised client-side before any
    /// bytes are sent.
    InvalidQuery,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::UnknownHandle => 1,
            ErrorCode::TooManyQueries => 2,
            ErrorCode::InvalidEndpoint => 3,
            ErrorCode::UnexpectedFrame => 4,
            ErrorCode::Internal => 5,
            ErrorCode::Overloaded => 6,
            ErrorCode::InvalidQuery => 7,
        }
    }

    fn from_u16(v: u16) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::UnknownHandle),
            2 => Some(ErrorCode::TooManyQueries),
            3 => Some(ErrorCode::InvalidEndpoint),
            4 => Some(ErrorCode::UnexpectedFrame),
            5 => Some(ErrorCode::Internal),
            6 => Some(ErrorCode::Overloaded),
            7 => Some(ErrorCode::InvalidQuery),
            _ => None,
        }
    }

    /// `true` when retrying the *same* request can succeed. Only
    /// [`ErrorCode::Overloaded`] qualifies: every other refusal is a
    /// deterministic function of the request (bad handle, bad endpoint,
    /// over-limit batch …), so resending it would only fail again.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded)
    }
}

/// One batch of routing queries addressed to a served engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Which graph/scheme the server should answer from (servers today
    /// register one engine under one handle; the field exists so
    /// multi-tenant serving is a server change, not a protocol bump).
    pub handle: u32,
    /// RNG stream offset: query `i` of the batch runs on the RNG derived
    /// from `(engine seed, rng_base + i)` — see
    /// [`nav_engine::Engine::serve_at`]. Stamping requests with the
    /// client's own cumulative offset makes answers independent of how
    /// connections interleave at the server.
    pub rng_base: u64,
    /// Per-step sampling backend for this batch.
    pub sampler: SamplerMode,
    /// The queries, in order; answers come back in the same order.
    pub queries: Vec<Query>,
}

/// Cumulative service counters a response carries back — the engine's
/// lifetime metrics and row-cache counters at the moment the batch
/// finished, so clients can watch warm/cold behaviour without a second
/// endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Queries answered over the engine's lifetime.
    pub queries: u64,
    /// Batches served.
    pub batches: u64,
    /// Routing trials executed.
    pub trials: u64,
    /// Distinct targets served warm (row already resident).
    pub warm_targets: u64,
    /// Distinct targets computed cold.
    pub cold_targets: u64,
    /// Row-cache hits.
    pub cache_hits: u64,
    /// Row-cache misses.
    pub cache_misses: u64,
    /// Row-cache evictions.
    pub cache_evictions: u64,
    /// Rows currently resident.
    pub cache_resident_rows: u64,
    /// Payload bytes currently resident.
    pub cache_resident_bytes: u64,
    /// Configured row-cache capacity in bytes.
    pub cache_capacity_bytes: u64,
    /// Long-range contacts suppressed by fault injection (drop coin plus
    /// churn-dead contacts). 0 on a fault-free server.
    pub dropped_links: u64,
    /// Hops where the fault-free greedy winner was down and routing fell
    /// back to a different live hop.
    pub rerouted_hops: u64,
    /// Churn-epoch changes between consecutive engine batches (a
    /// transition counter; rows stay resident across a flip).
    pub epoch_flips: u64,
    /// Connections whose socket deadline could not be installed
    /// (`set_read_timeout`/`set_write_timeout` failed). Such connections
    /// still serve, but shutdown polling and deadlines degrade to
    /// blocking reads — worth watching, hence counted instead of dropped.
    pub timeout_setup_failures: u64,
    /// Rows refused admission because a single row exceeded the cache's
    /// whole capacity. A non-zero value means the capacity is sized below
    /// one distance row — the cache is effectively disabled.
    pub cache_rejected_rows: u64,
}

/// The server's answer to one [`Request`].
#[derive(Clone, Debug)]
pub struct Response {
    /// Per-query statistics, in request order — bit-for-bit the
    /// [`PairStats`] a local [`nav_engine::Engine`] produces.
    pub answers: Vec<PairStats>,
    /// Engine/cache counters after this batch.
    pub metrics: MetricsSnapshot,
}

/// A typed refusal. The connection stays usable after an error frame —
/// only malformed *framing* tears it down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Why the request was refused.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// A client's request for the server's observability snapshot — the ops
/// surface's read endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsRequest {
    /// Which graph/scheme registry to snapshot (same addressing as
    /// [`Request::handle`]).
    pub handle: u32,
}

/// The server's observability snapshot: lifetime engine/cache counters,
/// per-stage latency histograms (engine stages plus the server's own wire
/// stages), and the retained sampled traces.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReply {
    /// Engine and cache counters.
    pub metrics: MetricsSnapshot,
    /// Stage histograms and sampled traces.
    pub obs: ObsSnapshot,
}

/// A client's request for a durable state snapshot of the served engine
/// — the durability layer's capture endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotRequest {
    /// Which graph/scheme to snapshot (same addressing as
    /// [`Request::handle`]).
    pub handle: u32,
}

/// The server's reply to a [`SnapshotRequest`]: an encoded `nav-store`
/// snapshot, carried opaquely. The wire layer never parses it — the
/// snapshot format versions independently of the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotReply {
    /// The encoded snapshot, exactly as `nav_store::Snapshot::encode`
    /// produced it.
    pub bytes: Vec<u8>,
}

/// One protocol message.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Client → server: a batch of queries.
    Request(Request),
    /// Server → client: the answers.
    Response(Response),
    /// Server → client: a typed refusal.
    Error(ErrorFrame),
    /// Client → server: snapshot the ops registry.
    StatsRequest(StatsRequest),
    /// Server → client: the ops snapshot.
    Stats(StatsReply),
    /// Client → server: capture a durable state snapshot.
    SnapshotRequest(SnapshotRequest),
    /// Server → client: the encoded state snapshot.
    SnapshotReply(SnapshotReply),
}

/// Why a byte sequence failed to decode as a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header (or the declared payload) requires.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// A version this build does not speak.
    BadVersion(u16),
    /// An unknown frame kind.
    BadKind(u8),
    /// The declared payload exceeds the decoder's bound — rejected
    /// *before* any allocation.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The decoder's configured bound.
        max: usize,
    },
    /// The payload's internal structure is inconsistent (bad enum tag,
    /// length mismatch, trailing bytes, non-UTF-8 message …).
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reading a frame off a stream failed.
#[derive(Debug)]
pub enum ReadError {
    /// The transport failed (including an EOF *inside* a frame).
    Io(io::Error),
    /// The bytes arrived but are not a valid frame.
    Frame(FrameError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "transport: {e}"),
            ReadError::Frame(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<FrameError> for ReadError {
    fn from(e: FrameError) -> Self {
        ReadError::Frame(e)
    }
}

// --- encoding ----------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn sampler_byte(mode: SamplerMode) -> u8 {
    match mode {
        SamplerMode::Scalar => 0,
        SamplerMode::Batched => 1,
    }
}

fn put_metrics(out: &mut Vec<u8>, m: &MetricsSnapshot) {
    for v in [
        m.queries,
        m.batches,
        m.trials,
        m.warm_targets,
        m.cold_targets,
        m.cache_hits,
        m.cache_misses,
        m.cache_evictions,
        m.cache_resident_rows,
        m.cache_resident_bytes,
        m.cache_capacity_bytes,
        m.dropped_links,
        m.rerouted_hops,
        m.epoch_flips,
        m.timeout_setup_failures,
        m.cache_rejected_rows,
    ] {
        put_u64(out, v);
    }
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Request(_) => KIND_REQUEST,
            Frame::Response(_) => KIND_RESPONSE,
            Frame::Error(_) => KIND_ERROR,
            Frame::StatsRequest(_) => KIND_STATS_REQUEST,
            Frame::Stats(_) => KIND_STATS,
            Frame::SnapshotRequest(_) => KIND_SNAPSHOT_REQUEST,
            Frame::SnapshotReply(_) => KIND_SNAPSHOT_REPLY,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Request(req) => {
                put_u32(out, req.handle);
                put_u64(out, req.rng_base);
                out.push(sampler_byte(req.sampler));
                put_u32(out, req.queries.len() as u32);
                for q in &req.queries {
                    put_u32(out, q.s);
                    put_u32(out, q.t);
                    // No silent clamp: the client refuses oversized trials
                    // with a typed InvalidQuery before encoding, so a
                    // value that doesn't fit here is a caller bug.
                    put_u32(
                        out,
                        u32::try_from(q.trials)
                            .expect("trials beyond u32 must be refused before encoding"),
                    );
                }
            }
            Frame::Response(resp) => {
                put_u32(out, resp.answers.len() as u32);
                for a in &resp.answers {
                    put_u32(out, a.s);
                    put_u32(out, a.t);
                    put_u32(out, a.dist);
                    put_u32(out, a.max_steps);
                    put_u64(out, a.failures as u64);
                    put_f64(out, a.mean_steps);
                    put_f64(out, a.std_steps);
                    put_f64(out, a.mean_long_links);
                }
                put_metrics(out, &resp.metrics);
            }
            Frame::Error(err) => {
                put_u16(out, err.code.to_u16());
                put_u32(out, err.message.len() as u32);
                out.extend_from_slice(err.message.as_bytes());
            }
            Frame::StatsRequest(req) => {
                put_u32(out, req.handle);
            }
            Frame::Stats(stats) => {
                put_metrics(out, &stats.metrics);
                put_u64(out, stats.obs.trace_every);
                put_u64(out, stats.obs.traces_recorded);
                // Only non-empty stages travel (ObsSnapshot's invariant),
                // in wire-id order — the decoder enforces both.
                out.push(stats.obs.stages.len().min(u8::MAX as usize) as u8);
                for (stage, h) in &stats.obs.stages {
                    out.push(stage.wire_id());
                    put_f64(out, h.sum());
                    put_f64(out, h.min().unwrap_or(0.0));
                    put_f64(out, h.max().unwrap_or(0.0));
                    for &b in h.bucket_counts() {
                        put_u64(out, b);
                    }
                }
                put_u32(out, stats.obs.traces.len() as u32);
                for t in &stats.obs.traces {
                    put_u64(out, t.index);
                    put_u32(out, t.s);
                    put_u32(out, t.t);
                    out.push(t.cache_hit as u8);
                    put_u64(out, t.trials);
                    put_f64(out, t.trials_ms);
                    put_u64(out, t.dropped_links);
                    put_u64(out, t.rerouted_hops);
                }
            }
            Frame::SnapshotRequest(req) => {
                put_u32(out, req.handle);
            }
            Frame::SnapshotReply(reply) => {
                put_u32(out, reply.bytes.len() as u32);
                out.extend_from_slice(&reply.bytes);
            }
        }
    }

    /// Serializes the frame: header plus payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 64);
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, VERSION);
        out.push(self.kind());
        out.push(0); // reserved
        put_u32(&mut out, 0); // payload length backpatched below
        self.encode_payload(&mut out);
        let len = (out.len() - HEADER_LEN) as u32;
        out[8..12].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// bytes consumed. Payloads longer than `max_payload` are refused
    /// before any allocation.
    pub fn decode(buf: &[u8], max_payload: usize) -> Result<(Frame, usize), FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        let (kind, len) = decode_header(&buf[..HEADER_LEN], max_payload)?;
        let total = HEADER_LEN + len;
        if buf.len() < total {
            return Err(FrameError::Truncated);
        }
        let frame = decode_payload(kind, &buf[HEADER_LEN..total])?;
        Ok((frame, total))
    }
}

/// Validates a 12-byte header, returning `(kind, payload_len)`.
fn decode_header(h: &[u8], max_payload: usize) -> Result<(u8, usize), FrameError> {
    debug_assert_eq!(h.len(), HEADER_LEN);
    let magic: [u8; 4] = h[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(h[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = h[6];
    if !(KIND_REQUEST..=KIND_SNAPSHOT_REPLY).contains(&kind) {
        return Err(FrameError::BadKind(kind));
    }
    let len = u32::from_le_bytes(h[8..12].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return Err(FrameError::Oversized {
            len,
            max: max_payload,
        });
    }
    Ok((kind, len))
}

/// Bounds-checked little-endian payload cursor.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Malformed("payload shorter than its fields"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::Malformed("trailing payload bytes"));
        }
        Ok(())
    }
}

fn decode_metrics(cur: &mut Cur<'_>) -> Result<MetricsSnapshot, FrameError> {
    Ok(MetricsSnapshot {
        queries: cur.u64()?,
        batches: cur.u64()?,
        trials: cur.u64()?,
        warm_targets: cur.u64()?,
        cold_targets: cur.u64()?,
        cache_hits: cur.u64()?,
        cache_misses: cur.u64()?,
        cache_evictions: cur.u64()?,
        cache_resident_rows: cur.u64()?,
        cache_resident_bytes: cur.u64()?,
        cache_capacity_bytes: cur.u64()?,
        dropped_links: cur.u64()?,
        rerouted_hops: cur.u64()?,
        epoch_flips: cur.u64()?,
        timeout_setup_failures: cur.u64()?,
        cache_rejected_rows: cur.u64()?,
    })
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, FrameError> {
    let mut cur = Cur::new(payload);
    match kind {
        KIND_REQUEST => {
            let handle = cur.u32()?;
            let rng_base = cur.u64()?;
            let sampler = match cur.u8()? {
                0 => SamplerMode::Scalar,
                1 => SamplerMode::Batched,
                _ => return Err(FrameError::Malformed("unknown sampler mode")),
            };
            let count = cur.u32()? as usize;
            // The count must be consistent with the bytes actually present
            // *before* the answer vector is sized from it.
            if cur.remaining() != count * QUERY_WIRE {
                return Err(FrameError::Malformed("query count mismatches payload"));
            }
            let mut queries = Vec::with_capacity(count);
            for _ in 0..count {
                queries.push(Query {
                    s: cur.u32()?,
                    t: cur.u32()?,
                    trials: cur.u32()? as usize,
                });
            }
            cur.done()?;
            Ok(Frame::Request(Request {
                handle,
                rng_base,
                sampler,
                queries,
            }))
        }
        KIND_RESPONSE => {
            let count = cur.u32()? as usize;
            if cur.remaining() != count * STATS_WIRE + METRICS_WIRE {
                return Err(FrameError::Malformed("answer count mismatches payload"));
            }
            let mut answers = Vec::with_capacity(count);
            for _ in 0..count {
                let (s, t, dist, max_steps) = (cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?);
                let failures = cur.u64()? as usize;
                answers.push(PairStats {
                    s,
                    t,
                    dist,
                    max_steps,
                    failures,
                    mean_steps: cur.f64()?,
                    std_steps: cur.f64()?,
                    mean_long_links: cur.f64()?,
                });
            }
            let metrics = decode_metrics(&mut cur)?;
            cur.done()?;
            Ok(Frame::Response(Response { answers, metrics }))
        }
        KIND_ERROR => {
            let code = ErrorCode::from_u16(cur.u16()?)
                .ok_or(FrameError::Malformed("unknown error code"))?;
            let len = cur.u32()? as usize;
            if cur.remaining() != len {
                return Err(FrameError::Malformed("message length mismatches payload"));
            }
            let message = std::str::from_utf8(cur.take(len)?)
                .map_err(|_| FrameError::Malformed("non-UTF-8 error message"))?
                .to_string();
            cur.done()?;
            Ok(Frame::Error(ErrorFrame { code, message }))
        }
        KIND_STATS_REQUEST => {
            let handle = cur.u32()?;
            cur.done()?;
            Ok(Frame::StatsRequest(StatsRequest { handle }))
        }
        KIND_STATS => {
            let metrics = decode_metrics(&mut cur)?;
            let trace_every = cur.u64()?;
            let traces_recorded = cur.u64()?;
            let stage_count = cur.u8()? as usize;
            if stage_count > Stage::ALL.len() {
                return Err(FrameError::Malformed("more stage entries than stages"));
            }
            // Stage and trace sections are length-checked against the
            // declared counts *before* either vector is sized from them.
            if cur.remaining() < stage_count * (STAGE_WIRE) + 4 {
                return Err(FrameError::Malformed("stage count mismatches payload"));
            }
            let mut stages = Vec::with_capacity(stage_count);
            let mut last_id = 0u8;
            for _ in 0..stage_count {
                let id = cur.u8()?;
                let stage =
                    Stage::from_wire(id).ok_or(FrameError::Malformed("unknown stage id"))?;
                if id <= last_id {
                    return Err(FrameError::Malformed("stage ids not strictly increasing"));
                }
                last_id = id;
                let sum = cur.f64()?;
                let min = cur.f64()?;
                let max = cur.f64()?;
                let mut buckets = [0u64; BUCKETS];
                for b in buckets.iter_mut() {
                    *b = cur.u64()?;
                }
                let h = LogHistogram::from_parts(buckets, sum, min, max);
                if h.is_empty() {
                    return Err(FrameError::Malformed("empty stage histogram"));
                }
                stages.push((stage, h));
            }
            let trace_count = cur.u32()? as usize;
            if cur.remaining() != trace_count * TRACE_WIRE {
                return Err(FrameError::Malformed("trace count mismatches payload"));
            }
            let mut traces = Vec::with_capacity(trace_count);
            for _ in 0..trace_count {
                let index = cur.u64()?;
                let s = cur.u32()?;
                let t = cur.u32()?;
                let cache_hit = match cur.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Malformed("cache-hit byte not 0/1")),
                };
                traces.push(QueryTrace {
                    index,
                    s,
                    t,
                    cache_hit,
                    trials: cur.u64()?,
                    trials_ms: cur.f64()?,
                    dropped_links: cur.u64()?,
                    rerouted_hops: cur.u64()?,
                });
            }
            cur.done()?;
            Ok(Frame::Stats(StatsReply {
                metrics,
                obs: ObsSnapshot {
                    stages,
                    traces,
                    trace_every,
                    traces_recorded,
                },
            }))
        }
        KIND_SNAPSHOT_REQUEST => {
            let handle = cur.u32()?;
            cur.done()?;
            Ok(Frame::SnapshotRequest(SnapshotRequest { handle }))
        }
        KIND_SNAPSHOT_REPLY => {
            let len = cur.u32()? as usize;
            if cur.remaining() != len {
                return Err(FrameError::Malformed("snapshot length mismatches payload"));
            }
            let bytes = cur.take(len)?.to_vec();
            cur.done()?;
            Ok(Frame::SnapshotReply(SnapshotReply { bytes }))
        }
        other => Err(FrameError::BadKind(other)),
    }
}

// --- stream I/O ---------------------------------------------------------

/// Writes one frame to `w` (flushes, so a blocking peer sees it).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// `true` for the error kinds a read timeout surfaces as
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// `true` when `e` is the mid-frame deadline expiry produced by
/// [`read_frame_timed`] — as opposed to the stream's own idle-poll
/// timeout, which is a raw OS error carrying no inner payload. A server
/// polling its stop flag must `continue` on the latter but tear the
/// connection down on the former (the half-read frame has no
/// recoverable boundary).
pub fn is_deadline_expiry(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::TimedOut && e.get_ref().is_some()
}

/// Reads one frame from `r`. `Ok(None)` is a clean end of stream (the
/// peer closed at a frame boundary); an EOF *inside* a frame is an
/// [`io::ErrorKind::UnexpectedEof`] transport error. The payload buffer
/// is only allocated after its declared length passes the `max_payload`
/// bound.
///
/// Timeout contract (for streams with a read timeout set): a timeout
/// **before any byte of a frame** is returned as its `Io` error, so a
/// server can poll a shutdown flag between frames; a timeout *inside* a
/// frame keeps waiting — the frame boundary stays trustworthy under
/// slow-trickle writers. A server that wants a *bound* on how long a
/// started frame may trickle sets one with [`read_frame_timed`]
/// instead — the between-frames half of the contract is identical
/// there, only the in-frame patience changes.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Option<Frame>, ReadError> {
    Ok(read_frame_timed(r, max_payload, None)?.map(|(f, _)| f))
}

/// Wall-clock observed while reading one frame, for the server's wire
/// stage histograms.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireTiming {
    /// First byte of the frame to last byte of the payload, milliseconds
    /// (socket receive; excludes idle time between frames).
    pub recv_ms: f64,
    /// Payload decode, milliseconds.
    pub decode_ms: f64,
}

/// [`read_frame`] returning the observed [`WireTiming`] alongside the
/// frame, with an optional bound on in-frame patience (`None` =
/// unbounded): once the first byte of a frame has arrived, the whole
/// frame must complete within `budget` or the read fails with a
/// [`io::ErrorKind::TimedOut`] transport error (tear the connection down
/// — a half-read frame has no recoverable boundary). Timeouts
/// **between** frames still surface immediately as `Io` errors, exactly
/// as in [`read_frame`], so shutdown polling works unchanged. The budget
/// is only checked when the underlying stream's read timeout fires, so
/// the stream must have one set (e.g. the server's `IDLE_POLL`) for the
/// deadline to bind.
pub fn read_frame_timed(
    r: &mut impl Read,
    max_payload: usize,
    budget: Option<Duration>,
) -> Result<Option<(Frame, WireTiming)>, ReadError> {
    // Started when the first byte of the frame arrives; the deadline is
    // measured from there, never from idle time between frames.
    let mut frame_start: Option<Instant> = None;
    let over_budget = |start: &Option<Instant>| -> Option<ReadError> {
        match (budget, start) {
            (Some(b), Some(t0)) if t0.elapsed() >= b => Some(ReadError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "read deadline exceeded mid-frame",
            ))),
            _ => None,
        }
    };
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(ReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => {
                if frame_start.is_none() {
                    frame_start = Some(Instant::now());
                }
                got += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) && got > 0 => {
                if let Some(err) = over_budget(&frame_start) {
                    return Err(err);
                }
                continue;
            }
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    let (kind, len) = decode_header(&header, max_payload)?;
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(ReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                if let Some(err) = over_budget(&frame_start) {
                    return Err(err);
                }
                continue;
            }
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    let recv_ms = frame_start
        .map(|t| t.elapsed().as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    let d0 = Instant::now();
    let frame = decode_payload(kind, &payload)?;
    let decode_ms = d0.elapsed().as_secs_f64() * 1e3;
    Ok(Some((frame, WireTiming { recv_ms, decode_ms })))
}

/// Bit-exact frame comparison (floats by bit pattern) — the test suites'
/// round-trip oracle.
pub fn frames_bits_eq(a: &Frame, b: &Frame) -> bool {
    match (a, b) {
        (Frame::Request(x), Frame::Request(y)) => x == y,
        (Frame::Response(x), Frame::Response(y)) => {
            x.metrics == y.metrics
                && x.answers.len() == y.answers.len()
                && x.answers.iter().zip(&y.answers).all(|(p, q)| p.bits_eq(q))
        }
        (Frame::Error(x), Frame::Error(y)) => x == y,
        (Frame::StatsRequest(x), Frame::StatsRequest(y)) => x == y,
        // Stats carry no NaN-able floats in practice (histogram min/max
        // come from real samples), so derived equality is bit-faithful.
        (Frame::Stats(x), Frame::Stats(y)) => x == y,
        (Frame::SnapshotRequest(x), Frame::SnapshotRequest(y)) => x == y,
        (Frame::SnapshotReply(x), Frame::SnapshotReply(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode();
        let (back, used) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).expect("decodes");
        assert_eq!(used, bytes.len());
        assert!(frames_bits_eq(&frame, &back), "{frame:?} vs {back:?}");
        // And through the stream reader.
        let mut cursor = std::io::Cursor::new(bytes);
        let back = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD)
            .expect("reads")
            .expect("one frame");
        assert!(frames_bits_eq(&frame, &back));
    }

    #[test]
    fn request_roundtrip() {
        roundtrip(Frame::Request(Request {
            handle: 7,
            rng_base: u64::MAX - 3,
            sampler: SamplerMode::Batched,
            queries: vec![
                Query {
                    s: 0,
                    t: 1,
                    trials: 9,
                },
                Query {
                    s: u32::MAX,
                    t: 0,
                    trials: 0,
                },
            ],
        }));
    }

    #[test]
    fn empty_request_roundtrip() {
        roundtrip(Frame::Request(Request {
            handle: 0,
            rng_base: 0,
            sampler: SamplerMode::Scalar,
            queries: Vec::new(),
        }));
    }

    #[test]
    fn response_roundtrip_preserves_float_bits() {
        roundtrip(Frame::Response(Response {
            answers: vec![PairStats {
                s: 3,
                t: 4,
                dist: 17,
                max_steps: 99,
                failures: 2,
                mean_steps: f64::from_bits(0x7ff8_0000_0000_0001), // a NaN payload
                std_steps: -0.0,
                mean_long_links: 1.5e-300,
            }],
            metrics: MetricsSnapshot {
                queries: 1,
                cache_capacity_bytes: u64::MAX,
                ..MetricsSnapshot::default()
            },
        }));
    }

    #[test]
    fn error_roundtrip() {
        roundtrip(Frame::Error(ErrorFrame {
            code: ErrorCode::InvalidEndpoint,
            message: "node 4096 out of range — π≈3.14159".into(),
        }));
    }

    #[test]
    fn truncation_at_every_length_is_rejected_not_panicked() {
        let bytes = Frame::Request(Request {
            handle: 1,
            rng_base: 2,
            sampler: SamplerMode::Scalar,
            queries: vec![Query {
                s: 5,
                t: 6,
                trials: 7,
            }],
        })
        .encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut], DEFAULT_MAX_PAYLOAD).unwrap_err();
            assert_eq!(err, FrameError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_version_kind() {
        let good = Frame::Error(ErrorFrame {
            code: ErrorCode::Internal,
            message: String::new(),
        })
        .encode();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::BadMagic(_))
        ));
        // v4 frames (stats with a label count) are refused by version.
        for v in [4u8, 9] {
            let mut bad = good.clone();
            bad[4] = v;
            assert_eq!(
                Frame::decode(&bad, DEFAULT_MAX_PAYLOAD).unwrap_err(),
                FrameError::BadVersion(v.into())
            );
        }
        let mut bad = good.clone();
        bad[6] = 42;
        assert_eq!(
            Frame::decode(&bad, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            FrameError::BadKind(42)
        );
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        // A header declaring a 3 GiB payload against a 1 KiB bound must be
        // refused from the 12 header bytes alone.
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.push(KIND_REQUEST);
        header.push(0);
        header.extend_from_slice(&(3u32 << 30).to_le_bytes());
        assert_eq!(
            Frame::decode(&header, 1024).unwrap_err(),
            FrameError::Oversized {
                len: 3 << 30,
                max: 1024
            }
        );
        let mut cursor = std::io::Cursor::new(header);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(ReadError::Frame(FrameError::Oversized { .. }))
        ));
    }

    #[test]
    fn forged_count_cannot_overallocate() {
        // A request declaring 2^31 queries in a 17-byte payload must fail
        // the count/length consistency check, not size a Vec from it.
        let mut frame = Frame::Request(Request {
            handle: 0,
            rng_base: 0,
            sampler: SamplerMode::Scalar,
            queries: Vec::new(),
        })
        .encode();
        let count_at = HEADER_LEN + 4 + 8 + 1;
        frame[count_at..count_at + 4].copy_from_slice(&(1u32 << 31).to_le_bytes());
        assert_eq!(
            Frame::decode(&frame, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            FrameError::Malformed("query count mismatches payload")
        );
    }

    #[test]
    fn clean_eof_is_none_and_midframe_eof_is_error() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut empty, 1024).expect("clean").is_none());
        let bytes = Frame::Error(ErrorFrame {
            code: ErrorCode::Internal,
            message: "x".into(),
        })
        .encode();
        for cut in 1..bytes.len() {
            let mut cursor = std::io::Cursor::new(bytes[..cut].to_vec());
            assert!(
                matches!(read_frame(&mut cursor, 1024), Err(ReadError::Io(_))),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Frame::Request(Request {
            handle: 0,
            rng_base: 0,
            sampler: SamplerMode::Scalar,
            queries: Vec::new(),
        })
        .encode();
        bytes.push(0xAA);
        let len = (bytes.len() - HEADER_LEN) as u32;
        bytes[8..12].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn overloaded_roundtrips_and_is_the_only_retryable_code() {
        roundtrip(Frame::Error(ErrorFrame {
            code: ErrorCode::Overloaded,
            message: "admission queue full".into(),
        }));
        let all = [
            ErrorCode::UnknownHandle,
            ErrorCode::TooManyQueries,
            ErrorCode::InvalidEndpoint,
            ErrorCode::UnexpectedFrame,
            ErrorCode::Internal,
            ErrorCode::Overloaded,
            ErrorCode::InvalidQuery,
        ];
        for code in all {
            assert_eq!(
                code.is_retryable(),
                code == ErrorCode::Overloaded,
                "{code:?}"
            );
            assert_eq!(ErrorCode::from_u16(code.to_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(8), None);
    }

    #[test]
    fn fault_snapshot_fields_survive_the_wire() {
        roundtrip(Frame::Response(Response {
            answers: Vec::new(),
            metrics: MetricsSnapshot {
                dropped_links: 11,
                rerouted_hops: 22,
                epoch_flips: 33,
                timeout_setup_failures: 44,
                cache_rejected_rows: 55,
                ..MetricsSnapshot::default()
            },
        }));
    }

    /// A reader that yields its bytes one at a time, then stalls with
    /// timeout errors forever — a slow-trickle writer's worst case.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.bytes.len() && !buf.is_empty() {
                buf[0] = self.bytes[self.pos];
                self.pos += 1;
                Ok(1)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"))
            }
        }
    }

    #[test]
    fn deadline_read_times_out_mid_frame_but_not_between_frames() {
        // A stall before any frame byte is the ordinary shutdown-poll
        // timeout, identical to read_frame's contract.
        let mut idle = Trickle {
            bytes: Vec::new(),
            pos: 0,
        };
        match read_frame_timed(&mut idle, 1024, Some(Duration::from_millis(0))) {
            Err(ReadError::Io(e)) => assert!(is_timeout(&e)),
            other => panic!("expected idle timeout, got {other:?}"),
        }
        // A stall *inside* a frame exhausts the budget and fails TimedOut
        // instead of waiting forever.
        let bytes = Frame::Error(ErrorFrame {
            code: ErrorCode::Internal,
            message: "x".into(),
        })
        .encode();
        let mut trickle = Trickle {
            bytes: bytes[..bytes.len() - 1].to_vec(),
            pos: 0,
        };
        match read_frame_timed(&mut trickle, 1024, Some(Duration::from_millis(0))) {
            Err(ReadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected mid-frame deadline, got {other:?}"),
        }
        // The whole frame inside the budget decodes normally.
        let mut ok = Trickle { bytes, pos: 0 };
        let (frame, _) = read_frame_timed(&mut ok, 1024, Some(Duration::from_secs(30)))
            .expect("reads")
            .expect("one frame");
        assert!(matches!(frame, Frame::Error(_)));
    }

    fn sample_stats_reply() -> StatsReply {
        let mut reg = nav_obs::Registry::new(
            nav_obs::ObsConfig {
                stages: true,
                trace_every: 16,
                trace_capacity: 8,
            },
            77,
        );
        reg.stages_mut().record(Stage::Admission, 0.012);
        reg.stages_mut().record(Stage::Trials, 1.7);
        reg.stages_mut().record(Stage::Trials, 0.4);
        reg.stages_mut().record(Stage::Socket, 0.09);
        reg.record_trace(QueryTrace {
            index: 512,
            s: 3,
            t: 99,
            cache_hit: true,
            trials: 8,
            trials_ms: 0.031,
            dropped_links: 2,
            rerouted_hops: 1,
        });
        StatsReply {
            metrics: MetricsSnapshot {
                queries: 1000,
                batches: 4,
                cache_hits: 17,
                ..MetricsSnapshot::default()
            },
            obs: reg.snapshot(),
        }
    }

    #[test]
    fn stats_request_roundtrip() {
        roundtrip(Frame::StatsRequest(StatsRequest {
            handle: 0x0102_0304,
        }));
    }

    #[test]
    fn stats_reply_roundtrip() {
        roundtrip(Frame::Stats(sample_stats_reply()));
        // Empty snapshot too (a fresh server asked for stats).
        roundtrip(Frame::Stats(StatsReply {
            metrics: MetricsSnapshot::default(),
            obs: ObsSnapshot::default(),
        }));
    }

    #[test]
    fn trace_counters_above_u32_survive_the_wire() {
        // v3 carried these as u32; long churn runs overflow that. Pin the
        // widened encoding with values no 32-bit field could hold.
        let mut reg = nav_obs::Registry::new(
            nav_obs::ObsConfig {
                stages: false,
                trace_every: 1,
                trace_capacity: 4,
            },
            3,
        );
        let big = QueryTrace {
            index: 9,
            s: 1,
            t: 2,
            cache_hit: false,
            trials: u32::MAX as u64 + 17,
            trials_ms: 1.5,
            dropped_links: u32::MAX as u64 + 1,
            rerouted_hops: u64::MAX,
        };
        reg.record_trace(big);
        let frame = Frame::Stats(StatsReply {
            metrics: MetricsSnapshot::default(),
            obs: reg.snapshot(),
        });
        let bytes = frame.encode();
        let (decoded, _) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).expect("decodes");
        match decoded {
            Frame::Stats(reply) => {
                assert_eq!(reply.obs.traces, vec![big]);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_reply_truncation_rejected_not_panicked() {
        let bytes = Frame::Stats(sample_stats_reply()).encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Frame::decode(&bytes[..cut], DEFAULT_MAX_PAYLOAD).unwrap_err(),
                FrameError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn forged_stats_counts_cannot_overallocate_or_panic() {
        let bytes = Frame::Stats(sample_stats_reply()).encode();
        // Stage count byte sits right after metrics + two u64s.
        let stage_count_at = HEADER_LEN + METRICS_WIRE + 8 + 8;
        let mut forged = bytes.clone();
        forged[stage_count_at] = 200;
        assert!(matches!(
            Frame::decode(&forged, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // An unknown stage id is refused.
        let mut forged = bytes.clone();
        forged[stage_count_at + 1] = 99;
        assert!(matches!(
            Frame::decode(&forged, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Swapped min/max in a stage entry must decode without panicking
        // and survive quantile queries (from_parts sanitizes).
        let mut forged = bytes;
        let min_at = stage_count_at + 1 + 1 + 8; // into first stage's min
        let max_at = min_at + 8;
        let min: [u8; 8] = forged[min_at..min_at + 8].try_into().unwrap();
        let max: [u8; 8] = forged[max_at..max_at + 8].try_into().unwrap();
        forged[min_at..min_at + 8].copy_from_slice(&max);
        forged[max_at..max_at + 8].copy_from_slice(&min);
        if let Ok((Frame::Stats(reply), _)) = Frame::decode(&forged, DEFAULT_MAX_PAYLOAD) {
            for (_, h) in &reply.obs.stages {
                let _ = h.quantile(0.5);
                let _ = h.summary();
            }
        }
    }

    #[test]
    fn snapshot_request_roundtrip() {
        roundtrip(Frame::SnapshotRequest(SnapshotRequest {
            handle: 0x0a0b_0c0d,
        }));
    }

    #[test]
    fn snapshot_reply_roundtrip() {
        roundtrip(Frame::SnapshotReply(SnapshotReply {
            bytes: (0u16..300).map(|v| (v % 251) as u8).collect(),
        }));
        // An empty snapshot body is a valid (if useless) reply.
        roundtrip(Frame::SnapshotReply(SnapshotReply { bytes: Vec::new() }));
    }

    #[test]
    fn forged_snapshot_length_cannot_overallocate_or_panic() {
        let bytes = Frame::SnapshotReply(SnapshotReply { bytes: vec![7; 32] }).encode();
        // Forge the embedded length both ways: the decoder must refuse
        // the mismatch before sizing anything from it.
        for forged_len in [0u32, 31, 33, u32::MAX] {
            let mut forged = bytes.clone();
            forged[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&forged_len.to_le_bytes());
            assert!(matches!(
                Frame::decode(&forged, DEFAULT_MAX_PAYLOAD).unwrap_err(),
                FrameError::Malformed(_)
            ));
        }
    }

    #[test]
    fn error_display_strings() {
        assert!(FrameError::BadVersion(3).to_string().contains("version 3"));
        assert!(FrameError::Oversized { len: 10, max: 5 }
            .to_string()
            .contains("bound"));
        assert!(ReadError::Frame(FrameError::Truncated)
            .to_string()
            .contains("protocol"));
    }
}
