//! The multi-threaded blocking TCP server.
//!
//! One [`NetServer`] owns one [`Engine`] behind one protocol handle. The
//! accept loop hands connections to a fixed worker pool through a bounded
//! queue (the in-flight admission limit); each worker runs a
//! read → decode → execute → encode loop per connection. Engine execution
//! is serialized behind a mutex — the engine parallelizes *internally*
//! across `EngineConfig::threads` workers, so one batch already saturates
//! the machine and interleaving two would only thrash the row cache —
//! while decode/encode and socket I/O overlap freely across connections.
//!
//! Determinism over the wire: requests carry their own RNG stream offset
//! ([`crate::frame::Request::rng_base`]) and execute via
//! [`Engine::serve_at`], so a response is a pure function of the request
//! and the engine's immutable config — never of how concurrent
//! connections interleave. `tests/net.rs` drives N threads against one
//! server and checks every byte against a local engine.

use crate::frame::{
    is_deadline_expiry, is_timeout, read_frame_timed, write_frame, ErrorCode, ErrorFrame, Frame,
    FrameError, MetricsSnapshot, ReadError, Request, Response, SnapshotReply, SnapshotRequest,
    StatsReply, StatsRequest, DEFAULT_MAX_PAYLOAD,
};
use nav_engine::{Engine, QueryBatch};
use nav_obs::{Stage, StageSet};
use nav_store::{RecordWriter, Snapshot};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker's blocking read waits before it re-checks the stop
/// flag. Bounds how far shutdown can lag behind an idle connection.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Per-request trial admission limit: the saturating sum of one
/// request's `trials`. The lockstep walk state of a batched sampler costs
/// about 32 bytes per trial, so this bounds it near 32 MiB; a larger
/// request gets a typed [`ErrorCode::TooManyQueries`] refusal before it
/// takes the engine.
const MAX_BATCH_TRIALS: usize = 1 << 20;

/// Serving-front knobs of a [`NetServer`].
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// The handle every request must name, compared as a whole `u32`;
    /// any other handle gets a typed [`ErrorCode::UnknownHandle`] refusal.
    pub handle: u32,
    /// Connection-handling worker threads (each engine batch additionally
    /// fans out to `EngineConfig::threads` compute workers).
    pub workers: usize,
    /// Frame-payload admission bound in bytes; larger frames are refused
    /// at the header, before any allocation.
    pub max_frame_bytes: usize,
    /// Per-request query admission limit; longer batches get a typed
    /// [`ErrorCode::TooManyQueries`] refusal.
    pub max_batch_queries: usize,
    /// Accepted connections allowed to wait for a worker; a connection
    /// arriving with the queue already this deep is **refused**: the
    /// server writes a best-effort typed [`ErrorCode::Overloaded`] frame
    /// and closes, so a retrying client can tell "back off and retry"
    /// from a real failure. The in-flight admission limit: shed load
    /// early rather than queueing unboundedly.
    pub max_pending: usize,
    /// In-frame read deadline: once the first byte of a frame arrives,
    /// the rest must follow within this budget or the connection is torn
    /// down ([`read_frame_timed`]). Distinct from the `IDLE_POLL`
    /// shutdown poll, which governs *idle* connections and never expires
    /// them. `None` (the default) keeps unbounded in-frame patience.
    pub read_deadline: Option<Duration>,
    /// Per-connection socket write deadline (`set_write_timeout`): bounds
    /// how long one slow reader can pin a worker mid-response. `None`
    /// (the default) blocks indefinitely.
    pub write_deadline: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            handle: 0,
            workers: 2,
            max_frame_bytes: DEFAULT_MAX_PAYLOAD,
            max_batch_queries: 1 << 16,
            max_pending: 64,
            read_deadline: None,
            write_deadline: None,
        }
    }
}

/// Queue of accepted connections, closed on shutdown.
struct ConnQueue {
    queue: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
}

impl ConnQueue {
    fn new() -> Self {
        ConnQueue {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    /// Enqueues a connection unless the queue is over `bound` or closed —
    /// a refused stream gets a best-effort typed [`ErrorCode::Overloaded`]
    /// frame before it drops, so a retry-capable client can distinguish
    /// shed load (back off, resend) from a dead server.
    fn push(&self, stream: TcpStream, bound: usize) {
        {
            let mut q = self.queue.lock().expect("queue poisoned");
            if !q.1 && q.0.len() < bound {
                q.0.push_back(stream);
                drop(q);
                self.ready.notify_one();
                return;
            }
        }
        // Refused. The write is best-effort and tightly bounded: this
        // runs on the accept thread, and a refusal path that blocks on a
        // slow peer would turn shed load into a new bottleneck.
        let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
        let mut writer = BufWriter::new(stream);
        let _ = write_frame(
            &mut writer,
            &Frame::Error(ErrorFrame {
                code: ErrorCode::Overloaded,
                message: "admission queue full; back off and retry".into(),
            }),
        );
    }

    /// Blocks for the next connection; `None` means the queue was closed
    /// and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.queue.lock().expect("queue poisoned");
        loop {
            if let Some(s) = q.0.pop_front() {
                return Some(s);
            }
            if q.1 {
                return None;
            }
            q = self.ready.wait(q).expect("queue poisoned");
        }
    }

    fn close(&self) {
        self.queue.lock().expect("queue poisoned").1 = true;
        self.ready.notify_all();
    }
}

struct Shared {
    engine: Mutex<Engine>,
    cfg: NetConfig,
    conns: ConnQueue,
    stop: AtomicBool,
    /// Connections whose socket deadlines could not be installed; served
    /// anyway, but surfaced in every [`MetricsSnapshot`] so degraded
    /// shutdown-polling/deadline behaviour is observable.
    timeout_failures: AtomicU64,
    /// Wire-side stage histograms (socket receive/send, decode, encode),
    /// merged into every [`StatsReply`] alongside the engine's own
    /// stage timings. One short lock per frame; never held across
    /// engine execution or socket I/O.
    net_stages: Mutex<StageSet>,
    /// Traffic recorder ([`NetServer::record_to`]): every accepted
    /// request frame and its reply, appended and flushed entry by entry
    /// so a `kill -9` leaves a replayable durable prefix. `None` when
    /// recording is off (the default).
    recorder: Mutex<Option<RecordWriter<BufWriter<File>>>>,
}

/// A bound, not-yet-running server. [`NetServer::bind`] → inspect
/// [`NetServer::local_addr`] → [`NetServer::spawn`] (background threads +
/// a [`ServerHandle`]) or [`NetServer::run`] (block the caller).
pub struct NetServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A running server: the bound address plus the shutdown/join handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) around
    /// `engine`.
    pub fn bind(engine: Engine, cfg: NetConfig, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(NetServer {
            listener,
            shared: Arc::new(Shared {
                engine: Mutex::new(engine),
                cfg,
                conns: ConnQueue::new(),
                stop: AtomicBool::new(false),
                timeout_failures: AtomicU64::new(0),
                net_stages: Mutex::new(StageSet::default()),
                recorder: Mutex::new(None),
            }),
        })
    }

    /// Starts recording traffic to `path` (truncating any existing
    /// file): every accepted request frame and the reply it produced,
    /// flushed per entry, in `nav-store` record-log format. Replay the
    /// log with `nav-engine replay` to re-drive the exact query stream —
    /// answers are bit-identical because every request carries its own
    /// RNG offset. Call before [`NetServer::run`]/[`NetServer::spawn`].
    pub fn record_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let writer = RecordWriter::new(BufWriter::new(File::create(path)?))?;
        *self.shared.recorder.lock().expect("recorder poisoned") = Some(writer);
        Ok(())
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the caller's thread with `workers` pool
    /// threads, until [`ServerHandle::shutdown`]-style wakeup (only
    /// reachable via [`NetServer::spawn`]) — so for a CLI server this
    /// simply never returns until the process is killed.
    pub fn run(self) -> io::Result<()> {
        let workers = spawn_workers(&self.shared);
        accept_loop(&self.listener, &self.shared);
        self.shared.conns.close();
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Starts the accept loop and worker pool on background threads and
    /// returns a handle for graceful shutdown.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let workers = spawn_workers(&self.shared);
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let accept = std::thread::Builder::new()
            .name("nav-net-accept".into())
            .spawn(move || accept_loop(&listener, &shared))?;
        Ok(ServerHandle {
            addr,
            shared: self.shared,
            accept,
            workers,
        })
    }
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain queued connections, join
    /// every thread. A request already executing finishes and its
    /// response is written; open connections are then closed at the next
    /// frame boundary (idle peers within `IDLE_POLL`), so shutdown
    /// cannot hang on a silent client.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(2); a throwaway connection
        // wakes it to observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        self.shared.conns.close();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn spawn_workers(shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    (0..shared.cfg.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("nav-net-worker-{i}"))
                .spawn(move || {
                    while let Some(stream) = shared.conns.pop() {
                        serve_connection(&shared, stream);
                    }
                })
                .expect("spawn worker")
        })
        .collect()
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                shared.conns.push(stream, shared.cfg.max_pending);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Accept errors are per-connection conditions (reset mid
            // handshake, fd pressure); the listener itself stays sound.
            // Back off briefly so persistent conditions like fd
            // exhaustion don't turn this loop into a busy-spin on the
            // very machine that is already resource-starved.
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// One connection's read → decode → execute → encode loop. Returns (and
/// drops the stream) on clean close, transport error, a framing
/// violation, or — between frames — server shutdown; protocol-level
/// refusals are answered with typed error frames and the loop continues.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    // The read timeout is a shutdown poll, not a client deadline: an
    // idle connection wakes the worker every IDLE_POLL to check the stop
    // flag (read_frame only surfaces timeouts at frame boundaries), so
    // ServerHandle::shutdown can never hang on a silent peer. The client
    // deadlines are separate knobs: cfg.read_deadline bounds a *started*
    // frame via read_frame_timed (the poll timeout is what makes the
    // budget observable), cfg.write_deadline is a plain socket write
    // timeout. Setup failures are counted, not fatal — the connection
    // still serves, just without the degraded guarantee.
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        shared.timeout_failures.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(d) = shared.cfg.write_deadline {
        if stream.set_write_timeout(Some(d)).is_err() {
            shared.timeout_failures.fetch_add(1, Ordering::Relaxed);
        }
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        let read = read_frame_timed(
            &mut reader,
            shared.cfg.max_frame_bytes,
            shared.cfg.read_deadline,
        );
        let (frame, timing) = match read {
            Ok(Some(f)) => f,
            Err(ReadError::Io(e)) if is_timeout(&e) && !is_deadline_expiry(&e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            // Clean close, the client vanished mid-frame, or a started
            // frame blew its read deadline: either way this connection is
            // done and the server keeps running.
            Ok(None) | Err(ReadError::Io(_)) => return,
            Err(ReadError::Frame(e)) => {
                // Tell the peer why before hanging up; framing is broken,
                // so no further frame boundary can be trusted.
                let _ = write_frame(&mut writer, &refusal_for(&e));
                return;
            }
        };
        // Re-encode the accepted request for the traffic recorder before
        // dispatch moves it into the engine. Only query requests are
        // recorded — they are the replayable stream; stats and snapshot
        // reads don't shape it.
        let recorded_req = match &frame {
            Frame::Request(_) if shared.recorder.lock().expect("recorder poisoned").is_some() => {
                Some(frame.encode())
            }
            _ => None,
        };
        let reply = match frame {
            Frame::Request(req) => answer(shared, req),
            Frame::StatsRequest(req) => stats_reply(shared, req),
            Frame::SnapshotRequest(req) => snapshot_reply(shared, req),
            Frame::Response(_) | Frame::Error(_) | Frame::Stats(_) | Frame::SnapshotReply(_) => {
                Frame::Error(ErrorFrame {
                    code: ErrorCode::UnexpectedFrame,
                    message: "server accepts request frames only".into(),
                })
            }
        };
        // Encode and send separately so each lands in its own wire-stage
        // histogram; the receive half of Socket was timed by
        // read_frame_timed above.
        let e0 = Instant::now();
        let bytes = reply.encode();
        let encode_ms = e0.elapsed().as_secs_f64() * 1e3;
        // Append to the traffic log *before* the reply goes out: the
        // entry is durable by the time any client can act on the answer.
        if let Some(req_bytes) = recorded_req {
            if let Some(rec) = shared.recorder.lock().expect("recorder poisoned").as_mut() {
                let _ = rec.append(&req_bytes, &bytes);
            }
        }
        let s0 = Instant::now();
        let sent = writer.write_all(&bytes).and_then(|()| writer.flush());
        let send_ms = s0.elapsed().as_secs_f64() * 1e3;
        {
            let mut st = shared.net_stages.lock().expect("net stages poisoned");
            st.record(Stage::Decode, timing.decode_ms);
            st.record(Stage::Encode, encode_ms);
            st.record(Stage::Socket, timing.recv_ms);
            st.record(Stage::Socket, send_ms);
        }
        if sent.is_err() {
            return;
        }
    }
}

/// The typed refusal sent before closing a connection whose framing broke.
fn refusal_for(e: &FrameError) -> Frame {
    Frame::Error(ErrorFrame {
        code: ErrorCode::UnexpectedFrame,
        message: e.to_string(),
    })
}

/// The typed refusal for a request whose handle is not this server's
/// [`NetConfig::handle`]; `None` when the handle matches.
fn unknown_handle(shared: &Shared, handle: u32) -> Option<Frame> {
    (handle != shared.cfg.handle).then(|| {
        Frame::Error(ErrorFrame {
            code: ErrorCode::UnknownHandle,
            message: format!(
                "handle {handle} not served here (this server owns handle {})",
                shared.cfg.handle
            ),
        })
    })
}

/// Executes one admitted request against the engine at the request's
/// `rng_base`.
fn answer(shared: &Shared, req: Request) -> Frame {
    if let Some(refusal) = unknown_handle(shared, req.handle) {
        return refusal;
    }
    if req.queries.len() > shared.cfg.max_batch_queries {
        return Frame::Error(ErrorFrame {
            code: ErrorCode::TooManyQueries,
            message: format!(
                "batch of {} exceeds the {}-query admission limit",
                req.queries.len(),
                shared.cfg.max_batch_queries
            ),
        });
    }
    let trials = req
        .queries
        .iter()
        .fold(0usize, |sum, q| sum.saturating_add(q.trials));
    if trials > MAX_BATCH_TRIALS {
        return Frame::Error(ErrorFrame {
            code: ErrorCode::TooManyQueries,
            message: format!(
                "batch of {trials} trials exceeds the {MAX_BATCH_TRIALS}-trial admission limit"
            ),
        });
    }
    let batch = QueryBatch {
        queries: req.queries,
    };
    let mut engine = shared.engine.lock().expect("engine poisoned");
    // A panic inside the batch (a scheme's sampler, say) costs this batch
    // only: it is caught inside the locked region, so the guard drops
    // normally and the mutex is never poisoned. The engine stays
    // consistent after the unwind. Resident rows are exact whenever they
    // are inserted; the batch counters and the churn epoch are recorded
    // only after a batch completes; and an MS-BFS fill takes its depth
    // planes out of the thread-local workspace while it runs, so an
    // unwound fill leaves no dirty planes behind.
    let served = panic::catch_unwind(AssertUnwindSafe(|| {
        engine.serve_at(&batch, req.rng_base, req.sampler)
    }));
    match served {
        Ok(Ok(result)) => Frame::Response(Response {
            answers: result.answers,
            metrics: metrics_snapshot(shared, &engine),
        }),
        Ok(Err(e)) => Frame::Error(ErrorFrame {
            code: ErrorCode::InvalidEndpoint,
            message: e.to_string(),
        }),
        // The panic hook has already logged the payload.
        Err(_) => Frame::Error(ErrorFrame {
            code: ErrorCode::Internal,
            message: "the batch panicked".into(),
        }),
    }
}

/// The wire view of the engine's counters (plus the serving front's own
/// `timeout_setup_failures`), shared by every [`Response`] and
/// [`StatsReply`].
fn metrics_snapshot(shared: &Shared, engine: &Engine) -> MetricsSnapshot {
    let m = engine.metrics();
    let c = engine.cache_stats();
    MetricsSnapshot {
        queries: m.queries,
        batches: m.batches,
        trials: m.trials,
        warm_targets: m.warm_targets,
        cold_targets: m.cold_targets,
        cache_hits: c.hits,
        cache_misses: c.misses,
        cache_evictions: c.evictions,
        cache_resident_rows: c.resident_rows as u64,
        cache_resident_bytes: c.resident_bytes as u64,
        cache_capacity_bytes: c.capacity_bytes as u64,
        dropped_links: m.dropped_links,
        rerouted_hops: m.rerouted_hops,
        epoch_flips: m.epoch_flips,
        timeout_setup_failures: shared.timeout_failures.load(Ordering::Relaxed),
        cache_rejected_rows: c.rejected,
    }
}

/// Answers a [`StatsRequest`]: the engine counters, stage histograms and
/// sampled traces, plus the serving front's own wire-stage timings
/// (socket/decode/encode) merged in. Handle-checked like a query.
fn stats_reply(shared: &Shared, req: StatsRequest) -> Frame {
    if let Some(refusal) = unknown_handle(shared, req.handle) {
        return refusal;
    }
    let engine = shared.engine.lock().expect("engine poisoned");
    let metrics = metrics_snapshot(shared, &engine);
    let mut obs = engine.obs_snapshot();
    drop(engine);
    obs.merge_stage_set(&shared.net_stages.lock().expect("net stages poisoned"));
    Frame::Stats(StatsReply { metrics, obs })
}

/// Answers a [`SnapshotRequest`]: captures the served engine's durable
/// state under the engine lock (so the snapshot sits at a batch
/// boundary) and ships the encoded `nav-store` bytes. Handle-checked
/// like a query.
fn snapshot_reply(shared: &Shared, req: SnapshotRequest) -> Frame {
    if let Some(refusal) = unknown_handle(shared, req.handle) {
        return refusal;
    }
    let engine = shared.engine.lock().expect("engine poisoned");
    match Snapshot::capture(&engine) {
        Ok(snap) => Frame::SnapshotReply(SnapshotReply {
            bytes: snap.encode(),
        }),
        Err(e) => Frame::Error(ErrorFrame {
            code: ErrorCode::Internal,
            message: format!("snapshot capture failed: {e}"),
        }),
    }
}
