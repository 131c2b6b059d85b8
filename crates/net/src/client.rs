//! The blocking client side of the protocol: [`NetClient`] (one
//! connection, no retries) and [`RetryingClient`] (reconnect-and-replay
//! with bounded, jittered backoff — same answers, bit for bit).

use crate::frame::{
    read_frame, write_frame, ErrorCode, ErrorFrame, Frame, MetricsSnapshot, ReadError, Request,
    SnapshotRequest, StatsReply, StatsRequest, DEFAULT_MAX_PAYLOAD,
};
use nav_core::sampler::SamplerMode;
use nav_core::trial::PairStats;
use nav_engine::QueryBatch;
use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, write, or mid-frame EOF).
    Io(io::Error),
    /// The server's bytes did not decode as a frame.
    Protocol(crate::frame::FrameError),
    /// The server answered with a typed refusal.
    Remote(ErrorFrame),
    /// The server closed, or answered with a frame kind that is not an
    /// answer.
    UnexpectedReply(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport: {e}"),
            NetError::Protocol(e) => write!(f, "protocol: {e}"),
            NetError::Remote(e) => write!(f, "server refused ({:?}): {}", e.code, e.message),
            NetError::UnexpectedReply(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl NetError {
    /// `true` when retrying the same request over a fresh connection can
    /// succeed: transport failures, a mid-conversation close, and the
    /// server's typed [`crate::frame::ErrorCode::Overloaded`] refusal.
    /// Protocol violations and deterministic refusals (bad handle, bad
    /// endpoint, over-limit batch …) stay `false` — resending the same
    /// bytes would only fail the same way.
    pub fn is_retryable(&self) -> bool {
        match self {
            NetError::Io(_) => true,
            NetError::Remote(e) => e.code.is_retryable(),
            NetError::UnexpectedReply(what) => *what == "connection closed",
            NetError::Protocol(_) => false,
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ReadError> for NetError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => NetError::Io(e),
            ReadError::Frame(e) => NetError::Protocol(e),
        }
    }
}

/// Refuses a request the wire cannot carry faithfully. The query frame
/// encodes `trials` as `u32`; older builds clamped larger values, which
/// silently answered a *different* question. Now the client refuses with
/// a typed, non-retryable [`ErrorCode::InvalidQuery`] before any bytes
/// hit the socket.
fn validate_request(req: &Request) -> Result<(), NetError> {
    for q in &req.queries {
        if q.trials > u32::MAX as usize {
            return Err(NetError::Remote(ErrorFrame {
                code: ErrorCode::InvalidQuery,
                message: format!(
                    "query ({}, {}) asks for {} trials; the wire carries at most {}",
                    q.s,
                    q.t,
                    q.trials,
                    u32::MAX
                ),
            }));
        }
    }
    Ok(())
}

/// A blocking connection to a [`crate::NetServer`]. One request is in
/// flight at a time (the protocol is strictly request/response per
/// connection; open more connections for pipelining).
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame_bytes: usize,
    /// Cumulative queries sent through [`NetClient::serve`] — the
    /// automatic RNG stream offset, mirroring a local engine's lifetime
    /// counter.
    sent: u64,
}

impl NetClient {
    /// Connects with the default frame bound.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Self::connect_with(addr, DEFAULT_MAX_PAYLOAD)
    }

    /// Connects with an explicit response-payload bound.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        max_frame_bytes: usize,
    ) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(NetClient {
            reader,
            writer: BufWriter::new(stream),
            max_frame_bytes,
            sent: 0,
        })
    }

    /// Queries sent through [`NetClient::serve`] so far (the next
    /// automatic `rng_base`).
    pub fn queries_sent(&self) -> u64 {
        self.sent
    }

    /// Sends one fully explicit request and waits for the answer. A
    /// request the wire cannot carry faithfully (any query's `trials`
    /// beyond `u32::MAX`) is refused locally with a non-retryable
    /// [`ErrorCode::InvalidQuery`] — never clamped, never sent.
    pub fn request(&mut self, req: Request) -> Result<(Vec<PairStats>, MetricsSnapshot), NetError> {
        validate_request(&req)?;
        write_frame(&mut self.writer, &Frame::Request(req))?;
        match read_frame(&mut self.reader, self.max_frame_bytes)? {
            Some(Frame::Response(resp)) => Ok((resp.answers, resp.metrics)),
            Some(Frame::Error(e)) => Err(NetError::Remote(e)),
            Some(Frame::Request(_) | Frame::StatsRequest(_) | Frame::SnapshotRequest(_)) => {
                Err(NetError::UnexpectedReply("request frame"))
            }
            Some(Frame::Stats(_)) => Err(NetError::UnexpectedReply("stats frame")),
            Some(Frame::SnapshotReply(_)) => Err(NetError::UnexpectedReply("snapshot frame")),
            None => Err(NetError::UnexpectedReply("connection closed")),
        }
    }

    /// Asks the server for its ops snapshot: merged counters, per-stage
    /// latency histograms (engine pipeline stages plus the serving
    /// front's socket/decode/encode timings), and sampled query traces.
    /// `handle` is checked exactly like a query handle.
    pub fn stats(&mut self, handle: u32) -> Result<StatsReply, NetError> {
        write_frame(
            &mut self.writer,
            &Frame::StatsRequest(StatsRequest { handle }),
        )?;
        match read_frame(&mut self.reader, self.max_frame_bytes)? {
            Some(Frame::Stats(reply)) => Ok(reply),
            Some(Frame::Error(e)) => Err(NetError::Remote(e)),
            Some(Frame::Request(_) | Frame::StatsRequest(_) | Frame::SnapshotRequest(_)) => {
                Err(NetError::UnexpectedReply("request frame"))
            }
            Some(Frame::Response(_)) => Err(NetError::UnexpectedReply("response frame")),
            Some(Frame::SnapshotReply(_)) => Err(NetError::UnexpectedReply("snapshot frame")),
            None => Err(NetError::UnexpectedReply("connection closed")),
        }
    }

    /// Asks the server to capture a durable state snapshot of the engine
    /// behind `handle` and returns the encoded `nav-store` bytes (decode
    /// them with `nav_store::Snapshot::decode`). `handle` is checked
    /// exactly like a query handle.
    pub fn snapshot(&mut self, handle: u32) -> Result<Vec<u8>, NetError> {
        write_frame(
            &mut self.writer,
            &Frame::SnapshotRequest(SnapshotRequest { handle }),
        )?;
        match read_frame(&mut self.reader, self.max_frame_bytes)? {
            Some(Frame::SnapshotReply(reply)) => Ok(reply.bytes),
            Some(Frame::Error(e)) => Err(NetError::Remote(e)),
            Some(Frame::Request(_) | Frame::StatsRequest(_) | Frame::SnapshotRequest(_)) => {
                Err(NetError::UnexpectedReply("request frame"))
            }
            Some(Frame::Response(_)) => Err(NetError::UnexpectedReply("response frame")),
            Some(Frame::Stats(_)) => Err(NetError::UnexpectedReply("stats frame")),
            None => Err(NetError::UnexpectedReply("connection closed")),
        }
    }

    /// Serves one batch the way a local [`nav_engine::Engine::serve`]
    /// does: the client's cumulative query count is the RNG offset, so a
    /// stream of `serve` calls over one client is bit-identical to the
    /// same batches through one local engine — regardless of what other
    /// clients do to the same server.
    pub fn serve(
        &mut self,
        handle: u32,
        sampler: SamplerMode,
        batch: &QueryBatch,
    ) -> Result<(Vec<PairStats>, MetricsSnapshot), NetError> {
        let req = Request {
            handle,
            rng_base: self.sent,
            sampler,
            queries: batch.queries.clone(),
        };
        let out = self.request(req)?;
        self.sent += batch.len() as u64;
        Ok(out)
    }
}

/// Retry knobs for a [`RetryingClient`]: bounded attempts with
/// decorrelated-jitter backoff (each sleep is drawn uniformly from
/// `[backoff_base, 3 × previous]`, capped at `backoff_cap`), seeded so a
/// test run's sleep schedule is reproducible.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total tries per call, including the first (≥ 1; 0 behaves as 1).
    pub max_attempts: u32,
    /// Lower bound of every backoff sleep.
    pub backoff_base: Duration,
    /// Upper bound no backoff sleep exceeds.
    pub backoff_cap: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(2),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// SplitMix64 step — the jitter stream's generator. Self-contained so
/// the client needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`NetClient`] that survives the connection: on a retryable failure
/// (see [`NetError::is_retryable`]) it reconnects and **replays the same
/// request** after a jittered backoff.
///
/// Replay is safe because answers are pure functions of the request:
/// every request carries an explicit `rng_base`, and the base for a
/// [`RetryingClient::serve`] call is fixed *before* the first attempt
/// (the cumulative counter advances only on success). So a stream of
/// batches interrupted by disconnects, server churn epochs, or
/// [`crate::frame::ErrorCode::Overloaded`] sheds is **bit-identical** to
/// the same stream served without a single failure — even if the server
/// executed a request whose response was lost and then executes it
/// again. `tests/net.rs` chaos-tests exactly this equivalence.
pub struct RetryingClient {
    addr: SocketAddr,
    max_frame_bytes: usize,
    policy: RetryPolicy,
    client: Option<NetClient>,
    /// Cumulative queries acknowledged — the next [`RetryingClient::serve`]
    /// call's `rng_base`. Mirrors [`NetClient::queries_sent`].
    sent: u64,
    /// Jitter stream state.
    rng: u64,
    /// Previous sleep in milliseconds (decorrelated-jitter state).
    prev_sleep_ms: u64,
    /// Reconnect-and-replay events over this client's lifetime.
    retries: u64,
}

impl RetryingClient {
    /// Resolves `addr` once and returns a client; the first TCP connect
    /// happens lazily on the first call, so construction cannot fail on
    /// a server that is still coming up.
    pub fn connect(addr: impl ToSocketAddrs, policy: RetryPolicy) -> Result<Self, NetError> {
        Self::connect_with(addr, policy, DEFAULT_MAX_PAYLOAD)
    }

    /// [`RetryingClient::connect`] with an explicit response-payload
    /// bound.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
        max_frame_bytes: usize,
    ) -> Result<Self, NetError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            NetError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ))
        })?;
        Ok(RetryingClient {
            addr,
            max_frame_bytes,
            policy,
            client: None,
            sent: 0,
            rng: policy.seed,
            prev_sleep_ms: policy.backoff_base.as_millis() as u64,
            retries: 0,
        })
    }

    /// Queries acknowledged so far (the next automatic `rng_base`).
    pub fn queries_sent(&self) -> u64 {
        self.sent
    }

    /// Reconnect-and-replay events over this client's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Chaos hook: drops the live connection (if any) so the next call
    /// must reconnect and replay. The next answer is still bit-identical
    /// — severing loses no stream state, only a socket.
    pub fn sever(&mut self) {
        self.client = None;
    }

    /// The next decorrelated-jitter sleep: uniform in
    /// `[base, 3 × previous]`, capped.
    fn next_backoff(&mut self) -> Duration {
        let base = self.policy.backoff_base.as_millis() as u64;
        let cap = (self.policy.backoff_cap.as_millis() as u64).max(base);
        let hi = self.prev_sleep_ms.saturating_mul(3).clamp(base, cap);
        let span = hi - base;
        let ms = if span == 0 {
            base
        } else {
            base + splitmix64(&mut self.rng) % (span + 1)
        };
        self.prev_sleep_ms = ms;
        Duration::from_millis(ms)
    }

    /// Sends `req` exactly as given, reconnecting and replaying it on
    /// retryable failures up to the policy's attempt bound. The caller
    /// owns `rng_base`, so a replay is byte-identical to the original
    /// send. An unencodable request (oversized `trials`) is refused
    /// before the first connect — [`ErrorCode::InvalidQuery`] is
    /// deterministic, so retrying it would only fail identically.
    pub fn request(&mut self, req: Request) -> Result<(Vec<PairStats>, MetricsSnapshot), NetError> {
        validate_request(&req)?;
        let attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = match self.client.as_mut() {
                Some(c) => c.request(req.clone()),
                None => match NetClient::connect_with(self.addr, self.max_frame_bytes) {
                    Ok(mut c) => {
                        let r = c.request(req.clone());
                        self.client = Some(c);
                        r
                    }
                    Err(e) => Err(e),
                },
            };
            match result {
                Ok(out) => return Ok(out),
                Err(e) if attempt < attempts && e.is_retryable() => {
                    // The connection's state is unknowable after a failure
                    // mid-conversation; replay only ever runs on a fresh
                    // socket.
                    self.client = None;
                    self.retries += 1;
                    std::thread::sleep(self.next_backoff());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// [`NetClient::stats`] with retries: reconnects and re-asks on
    /// retryable failures, same policy as [`RetryingClient::request`].
    /// Re-asking is safe for the same reason replaying a request is —
    /// stats are a read, so the worst a retry can observe is a *newer*
    /// snapshot, never a corrupted one.
    pub fn stats(&mut self, handle: u32) -> Result<StatsReply, NetError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = match self.client.as_mut() {
                Some(c) => c.stats(handle),
                None => match NetClient::connect_with(self.addr, self.max_frame_bytes) {
                    Ok(mut c) => {
                        let r = c.stats(handle);
                        self.client = Some(c);
                        r
                    }
                    Err(e) => Err(e),
                },
            };
            match result {
                Ok(out) => return Ok(out),
                Err(e) if attempt < attempts && e.is_retryable() => {
                    self.client = None;
                    self.retries += 1;
                    std::thread::sleep(self.next_backoff());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// [`NetClient::serve`] with retries: stamps the batch with the
    /// cumulative offset **before** the first attempt and advances it
    /// only on success, so however many times the request is replayed,
    /// the served stream equals the uninterrupted one bit for bit.
    pub fn serve(
        &mut self,
        handle: u32,
        sampler: SamplerMode,
        batch: &QueryBatch,
    ) -> Result<(Vec<PairStats>, MetricsSnapshot), NetError> {
        let req = Request {
            handle,
            rng_base: self.sent,
            sampler,
            queries: batch.queries.clone(),
        };
        let out = self.request(req)?;
        self.sent += batch.len() as u64;
        Ok(out)
    }
}
