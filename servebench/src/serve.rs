//! Set-up of a loopback `NetServer` and the closed-loop client load.

use crate::spec::{Inputs, SchemeKind, CACHE_BYTES, ENGINE_THREADS, SERVER_WORKERS};
use nav_bench::workloads::Workload;
use nav_core::ball::BallScheme;
use nav_core::scheme::AugmentationScheme;
use nav_core::trial::PairStats;
use nav_core::uniform::UniformScheme;
use nav_engine::workload::{parse_workload, GraphSpec};
use nav_engine::{AdmissionPolicy, Engine, EngineConfig, Query};
use nav_graph::msbfs::LaneWidth;
use nav_graph::Graph;
use nav_net::{ErrorCode, NetClient, NetConfig, NetError, NetServer, Request, ServerHandle};
use nav_obs::ObsConfig;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Every wire refusal code with its metric label, in a fixed order
/// (index = slot in [`LoopOut::refusals`]; the last slot counts
/// transport errors).
pub const REFUSALS: [(ErrorCode, &str); 7] = [
    (ErrorCode::UnknownHandle, "unknown_handle"),
    (ErrorCode::TooManyQueries, "too_many_queries"),
    (ErrorCode::InvalidEndpoint, "invalid_endpoint"),
    (ErrorCode::UnexpectedFrame, "unexpected_frame"),
    (ErrorCode::Internal, "internal"),
    (ErrorCode::Overloaded, "overloaded"),
    (ErrorCode::InvalidQuery, "invalid_query"),
];

/// Builds a workload file's graph the way `nav-engine serve` does.
pub fn build_graph(spec: &GraphSpec) -> Graph {
    let family = match spec.family.as_str() {
        "gnp" => Workload::Gnp,
        "grid2d" => Workload::Grid2d,
        other => unreachable!("no workload uses family {other}"),
    };
    let g = family.build(spec.n, spec.seed);
    assert_eq!(g.num_nodes(), spec.n, "family built a different size");
    g
}

pub fn scheme_for(kind: SchemeKind, g: &Graph) -> Box<dyn AugmentationScheme + Send> {
    match kind {
        SchemeKind::Uniform => Box::new(UniformScheme),
        SchemeKind::Ball => Box::new(BallScheme::new(g)),
    }
}

pub fn engine_config(inputs: &Inputs, obs: ObsConfig, width: LaneWidth) -> EngineConfig {
    EngineConfig {
        seed: inputs.engine_seed,
        threads: ENGINE_THREADS,
        cache_bytes: CACHE_BYTES,
        sampler: inputs.def.sampler,
        admission: AdmissionPolicy::Lru,
        fault: inputs.fault(),
        obs,
        width,
    }
}

/// One served batch: its RNG range and a digest of its answers.
#[derive(Debug)]
pub struct Record {
    pub base: u64,
    pub len: usize,
    pub hash: u64,
    /// The answers themselves, kept only where the check samples them.
    pub answers: Option<Vec<PairStats>>,
}

/// FNV-1a over every field of every answer, floats by their bits — equal
/// digests mean bit-identical answers (up to a 2^-64 collision).
pub fn digest(answers: &[PairStats]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for a in answers {
        eat(a.s as u64);
        eat(a.t as u64);
        eat(a.dist as u64);
        eat(a.mean_steps.to_bits());
        eat(a.std_steps.to_bits());
        eat(a.max_steps as u64);
        eat(a.mean_long_links.to_bits());
        eat(a.failures as u64);
    }
    h
}

/// Greedy-routing outcome totals, taken from the answers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub trials: u64,
    pub ok_trials: u64,
    pub steps: u64,
}

impl Tally {
    fn add(&mut self, q: &Query, a: &PairStats) {
        let ok = (q.trials - a.failures) as u64;
        self.trials += q.trials as u64;
        self.ok_trials += ok;
        // mean_steps is (Σ steps) / ok, so this recovers the exact count.
        self.steps += (a.mean_steps * ok as f64).round() as u64;
    }

    fn merge(&mut self, o: &Tally) {
        self.trials += o.trials;
        self.ok_trials += o.ok_trials;
        self.steps += o.steps;
    }

    pub fn mean_steps(&self) -> f64 {
        self.steps as f64 / self.ok_trials.max(1) as f64
    }

    pub fn success_rate(&self) -> f64 {
        self.ok_trials as f64 / self.trials.max(1) as f64
    }
}

/// A running loopback server with its connected clients.
pub struct Live {
    handle: ServerHandle,
    pub addr: SocketAddr,
    pub clients: Vec<NetClient>,
    /// The warm-up batches, to be checked like timed ones.
    pub warm_records: Vec<Record>,
}

impl Live {
    pub fn shutdown(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

/// Loads the workload file, builds graph, scheme and engine, binds and
/// spawns the server, connects the workload's clients and serves the
/// warm-up pass: everything `setup_s` times.
pub fn setup(inputs: &Inputs, obs: ObsConfig, keep_answers: bool) -> Live {
    let spec = parse_workload(&inputs.text).expect("generated workload parses");
    assert_eq!(spec.queries.len(), inputs.warm.len() + inputs.stream.len());
    let g = build_graph(&spec.graph);
    let scheme = scheme_for(inputs.def.scheme, &g);
    let engine = Engine::new(g, scheme, engine_config(inputs, obs, LaneWidth::W64));
    let net = NetConfig {
        workers: SERVER_WORKERS,
        ..NetConfig::default()
    };
    let handle = NetServer::bind(engine, net, "127.0.0.1:0")
        .expect("bind loopback")
        .spawn()
        .expect("spawn server");
    let addr = handle.addr();
    let mut clients: Vec<NetClient> = (0..inputs.def.conns)
        .map(|_| NetClient::connect(addr).expect("connect loopback"))
        .collect();
    let mut warm_records = Vec::new();
    for (i, chunk) in inputs.warm.chunks(inputs.def.batch).enumerate() {
        let base = (i * inputs.def.batch) as u64;
        let (answers, _) = clients[0]
            .request(request(inputs, base, chunk.to_vec()))
            .expect("warm-up batch");
        warm_records.push(Record {
            base,
            len: chunk.len(),
            hash: digest(&answers),
            answers: keep_answers.then_some(answers),
        });
    }
    Live {
        handle,
        addr,
        clients,
        warm_records,
    }
}

fn request(inputs: &Inputs, base: u64, queries: Vec<Query>) -> Request {
    Request {
        handle: 0,
        rng_base: base,
        sampler: inputs.def.sampler,
        queries,
    }
}

/// One answered request.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    /// Completion, seconds since the phase started.
    pub at_s: f64,
    pub queries: u64,
    /// Client round trip, milliseconds.
    pub rtt_ms: f64,
}

/// What one closed-loop phase observed.
#[derive(Default)]
pub struct LoopOut {
    pub records: Vec<Record>,
    pub done: Vec<Done>,
    /// Request frames sent.
    pub frames: u64,
    /// Frames refused or lost in transport.
    pub failed: u64,
    /// Refusals by [`REFUSALS`] slot, then transport errors.
    pub refusals: [u64; 8],
    pub tally: Tally,
    pub elapsed_s: f64,
    pub seconds: f64,
}

/// The latency tail as reported: a percentile with at least ten samples
/// beyond it, taken per window and reduced to the median over windows.
pub struct Tail {
    pub percentile: f64,
    pub value_ms: f64,
    pub windows: usize,
    /// Samples in the smallest window, and beyond its percentile.
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

impl LoopOut {
    /// Queries answered.
    pub fn queries(&self) -> u64 {
        self.done.iter().map(|d| d.queries).sum()
    }

    /// The answered requests split into `windows` equal slices of the
    /// timed phase (completions after its end are dropped).
    fn windows(&self, windows: usize) -> Vec<Vec<Done>> {
        let width = self.seconds / windows as f64;
        let mut out = vec![Vec::new(); windows];
        for d in &self.done {
            if let Some(w) = out.get_mut((d.at_s / width) as usize) {
                w.push(*d);
            }
        }
        out
    }

    /// Queries per second in each of up to 20 equal windows (at least 50
    /// answered requests per window on average, so a workload with slow
    /// batches gets one window: the whole run).
    pub fn window_qps(&self) -> Vec<f64> {
        let windows = (self.done.len() / 50).clamp(1, 20);
        if windows == 1 {
            return vec![self.queries() as f64 / self.elapsed_s];
        }
        let width = self.seconds / windows as f64;
        self.windows(windows)
            .iter()
            .map(|w| w.iter().map(|d| d.queries).sum::<u64>() as f64 / width)
            .collect()
    }

    /// Median of [`Self::window_qps`].
    pub fn qps(&self) -> f64 {
        crate::median(&self.window_qps())
    }

    /// Median client round trip over the whole phase.
    pub fn p50_ms(&self) -> f64 {
        let mut rtts: Vec<f64> = self.done.iter().map(|d| d.rtt_ms).collect();
        rtts.sort_by(f64::total_cmp);
        percentile(&rtts, 0.5)
    }

    /// The highest of p99.9/p99/p90 that keeps at least ten samples beyond
    /// it in every window (p50 when none does), as the median over up to
    /// 20 windows of 200 requests each on average (so p90 keeps ten beyond
    /// it in the smallest): one disturbed second of a noisy host then
    /// moves one window, not the reported tail.
    pub fn tail(&self) -> Tail {
        let count = (self.done.len() / 200).clamp(1, 20);
        let windows: Vec<Vec<f64>> = if count == 1 {
            vec![self.done.iter().map(|d| d.rtt_ms).collect()]
        } else {
            self.windows(count)
                .into_iter()
                .map(|w| w.iter().map(|d| d.rtt_ms).collect())
                .collect()
        };
        let samples = windows.iter().map(Vec::len).min().unwrap_or(0);
        let beyond = |p: f64| samples - rank(samples, p);
        let p = [0.999, 0.99, 0.9]
            .into_iter()
            .find(|&p| beyond(p) >= 10)
            .unwrap_or(0.5);
        let values: Vec<f64> = windows
            .into_iter()
            .map(|mut w| {
                w.sort_by(f64::total_cmp);
                percentile(&w, p)
            })
            .collect();
        Tail {
            percentile: p,
            value_ms: crate::median(&values),
            windows: count,
            samples,
            beyond: beyond(p),
        }
    }
}

/// Drives every client in a closed loop for `seconds`: each connection
/// claims the next batch slot, sends it and waits for the answer before
/// claiming another. Slots are claimed from one counter, so the served
/// RNG ranges are disjoint and, together, contiguous.
pub fn closed_loop(inputs: &Inputs, live: &mut Live, seconds: f64, keep_answers: bool) -> LoopOut {
    let next = AtomicU64::new(0);
    let addr = live.addr;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let parts: Vec<(LoopOut, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    conn_loop(inputs, client, addr, next, (start, deadline), keep_answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = LoopOut::default();
    let mut end = start;
    for (part, finished) in parts {
        end = end.max(finished);
        out.records.extend(part.records);
        out.frames += part.frames;
        out.failed += part.failed;
        for (a, b) in out.refusals.iter_mut().zip(part.refusals) {
            *a += b;
        }
        out.tally.merge(&part.tally);
        out.done.extend(part.done);
    }
    out.records.sort_by_key(|r| r.base);
    out.elapsed_s = (end - start).as_secs_f64();
    out.seconds = seconds;
    out
}

fn conn_loop(
    inputs: &Inputs,
    client: &mut NetClient,
    addr: SocketAddr,
    next: &AtomicU64,
    (start, deadline): (Instant, Instant),
    keep_answers: bool,
) -> (LoopOut, Instant) {
    // Reserved up front (untouched pages are not resident), so growth
    // never reallocates and the peak resident set stays linear in load.
    let room = (deadline - start).as_secs_f64() as usize * 20_000;
    let mut out = LoopOut {
        records: Vec::with_capacity(room),
        done: Vec::with_capacity(room),
        ..LoopOut::default()
    };
    let batch = inputs.def.batch;
    while Instant::now() < deadline {
        let base = inputs.timed_base(next.fetch_add(1, Ordering::Relaxed));
        let queries = inputs.slice(base, batch);
        let req = request(inputs, base, queries.clone());
        let t0 = Instant::now();
        let reply = client.request(req);
        let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.frames += 1;
        match reply {
            Ok((answers, _)) => {
                out.done.push(Done {
                    at_s: start.elapsed().as_secs_f64(),
                    queries: answers.len() as u64,
                    rtt_ms,
                });
                for (q, a) in queries.iter().zip(&answers) {
                    out.tally.add(q, a);
                }
                out.records.push(Record {
                    base,
                    len: answers.len(),
                    hash: digest(&answers),
                    answers: keep_answers.then_some(answers),
                });
            }
            Err(e) => {
                out.failed += 1;
                let slot = match &e {
                    NetError::Remote(f) => REFUSALS.iter().position(|(c, _)| *c == f.code),
                    _ => None,
                };
                out.refusals[slot.unwrap_or(REFUSALS.len())] += 1;
                if e.is_retryable() {
                    match NetClient::connect(addr) {
                        Ok(c) => *client = c,
                        Err(_) => break,
                    }
                }
            }
        }
    }
    (out, Instant::now())
}
