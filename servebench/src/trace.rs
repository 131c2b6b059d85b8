//! The traced run: per-layer metrics, measured from outside the program.
//!
//! Two closed-loop phases of `seconds / 2` each serve the same stream: an
//! untraced one (engine observability off, as in the end-to-end run) and
//! a traced one (stage histograms on). The traced phase brackets the load
//! with two `Stats` frames, and every stage total below is the difference
//! between them. The client's own span is each request's round trip.
//! Counts the wire does not carry (cold rows per batch, ball-sampler
//! counters) come from replaying the stream in-process through
//! `Engine::serve_at`, and the cold-fill and codec costs from direct calls
//! into `nav_graph::msbfs`, `DistRowBuf` and `Frame`.

use crate::serve::{self, LoopOut, REFUSALS};
use crate::spec::{Inputs, SchemeKind, ENGINE_THREADS};
use crate::{metric, ratio, sys, Metric, Report};
use nav_core::sampler::SamplerStats;
use nav_engine::{Engine, QueryBatch};
use nav_graph::distance::DistRowBuf;
use nav_graph::msbfs::{batched_rows_into_w, LaneWidth};
use nav_graph::{Graph, NodeId};
use nav_net::{Frame, MetricsSnapshot, Request, Response, StatsReply};
use nav_obs::{ObsConfig, Stage};
use std::time::{Duration, Instant};

/// How far Σ server stage time may exceed Σ client round trip before the
/// run fails: the stages are timed inside each round trip, so only clock
/// granularity and the two `Stats` frames' own wire stages can push the
/// sum over.
pub const STAGE_SLACK: f64 = 0.02;

/// Wall-clock budget of each in-process replay.
const REPLAY_BUDGET: Duration = Duration::from_secs(2);

/// Stage totals between two `Stats` frames: `(Σ ms, samples)` per stage.
struct StageDelta([(f64, u64); 7]);

impl StageDelta {
    fn between(before: &StatsReply, after: &StatsReply) -> StageDelta {
        let mut d = [(0.0, 0u64); 7];
        for (slot, stage) in Stage::ALL.into_iter().enumerate() {
            let get = |r: &StatsReply| {
                r.obs
                    .stage(stage)
                    .map_or((0.0, 0), |h| (h.sum(), h.count()))
            };
            let (a, b) = (get(before), get(after));
            d[slot] = (b.0 - a.0, b.1 - a.1);
        }
        StageDelta(d)
    }

    fn ms(&self, stage: Stage) -> f64 {
        self.0[stage as usize - 1].0
    }

    fn count(&self, stage: Stage) -> u64 {
        self.0[stage as usize - 1].1
    }

    fn total_ms(&self) -> f64 {
        self.0.iter().map(|s| s.0).sum()
    }
}

/// What an in-process replay of the timed stream observed.
#[derive(Default)]
struct Replay {
    batches: u64,
    queries: u64,
    batch_ms: f64,
    admission_ms: f64,
    cold_rows: u64,
    passes: u64,
    staging_bytes: usize,
    sampler: SamplerStats,
    /// The first timed batch's answers, for the response-size count.
    first_answers: Vec<nav_core::trial::PairStats>,
}

/// Replays the timed stream from batch 0 through `Engine::serve_at` at
/// `width`, after the warm-up, for at most [`REPLAY_BUDGET`].
fn replay(inputs: &Inputs, g: &Graph, width: LaneWidth) -> Replay {
    let def = inputs.def;
    let mut engine = Engine::new(
        g.clone(),
        serve::scheme_for(def.scheme, g),
        serve::engine_config(inputs, ObsConfig::default(), width),
    );
    for (i, chunk) in inputs.warm.chunks(def.batch).enumerate() {
        let batch = QueryBatch {
            queries: chunk.to_vec(),
        };
        engine
            .serve_at(&batch, (i * def.batch) as u64, def.sampler)
            .expect("warm-up batch");
    }
    let admission = |e: &Engine| {
        e.obs_snapshot()
            .stage(Stage::Admission)
            .map_or(0.0, |h| h.sum())
    };
    let admission0 = admission(&engine);
    let sampler0 = engine.metrics().sampler;
    let mut out = Replay::default();
    let start = Instant::now();
    while out.batches == 0 || start.elapsed() < REPLAY_BUDGET {
        let base = inputs.timed_base(out.batches);
        let batch = QueryBatch {
            queries: inputs.slice(base, def.batch),
        };
        let result = engine
            .serve_at(&batch, base, def.sampler)
            .expect("replay batch");
        out.batch_ms += result.elapsed_ms;
        out.cold_rows += result.cold_targets as u64;
        out.passes += result.cold_targets.div_ceil(width.lanes()) as u64;
        out.staging_bytes = out
            .staging_bytes
            .max(result.cold_targets * g.num_nodes() * 4);
        if out.batches == 0 {
            out.first_answers = result.answers;
        }
        out.batches += 1;
        out.queries += batch.len() as u64;
    }
    out.admission_ms = admission(&engine) - admission0;
    let s = engine.metrics().sampler;
    out.sampler = SamplerStats {
        hits: s.hits - sampler0.hits,
        misses: s.misses - sampler0.misses,
        rows: s.rows - sampler0.rows,
        passes: s.passes - sampler0.passes,
        row_bytes: s.row_bytes - sampler0.row_bytes,
        fallbacks: s.fallbacks - sampler0.fallbacks,
    };
    out
}

/// Direct calls into the cold-fill path for the first timed batch's
/// distinct targets, as if all were cold: `(kernel ms, compaction ms)`
/// per row, repeated until 0.3 s of work.
fn cold_fill_direct(inputs: &Inputs, g: &Graph) -> (f64, f64) {
    let n = g.num_nodes();
    let mut targets: Vec<NodeId> = inputs
        .slice(inputs.timed_base(0), inputs.def.batch)
        .iter()
        .map(|q| q.t)
        .collect();
    targets.sort_unstable();
    targets.dedup();
    let mut wide = vec![0u32; targets.len() * n];
    let (mut kernel, mut compact, mut rows) = (0.0, 0.0, 0usize);
    while rows == 0 || kernel + compact < 300.0 {
        let t0 = Instant::now();
        batched_rows_into_w(g, &targets, ENGINE_THREADS, LaneWidth::W64, &mut wide);
        kernel += t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        for row in wide.chunks(n) {
            std::hint::black_box(DistRowBuf::from_wide(row));
        }
        compact += t0.elapsed().as_secs_f64() * 1e3;
        rows += targets.len();
    }
    (kernel / rows as f64, compact / rows as f64)
}

fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot, f: fn(&MetricsSnapshot) -> u64) -> f64 {
    (f(after) - f(before)) as f64
}

/// Frame bytes per query of the first timed batch's request and response.
fn frame_bytes(inputs: &Inputs, answers: &[nav_core::trial::PairStats]) -> (f64, f64) {
    let base = inputs.timed_base(0);
    let request = Frame::Request(Request {
        handle: 0,
        rng_base: base,
        sampler: inputs.def.sampler,
        queries: inputs.slice(base, inputs.def.batch),
    });
    let response = Frame::Response(Response {
        answers: answers.to_vec(),
        metrics: MetricsSnapshot::default(),
    });
    let per = |f: &Frame| f.encode().len() as f64 / inputs.def.batch as f64;
    (per(&request), per(&response))
}

/// Everything the traced run measured, before it becomes metrics.
struct Measured {
    plain: LoopOut,
    traced: LoopOut,
    before: StatsReply,
    after: StatsReply,
    stages: StageDelta,
    cpu_util: f64,
    replay: Replay,
    /// The ball workload's replay at 256 lanes (width-inversion check).
    wide: Option<Replay>,
    kernel_ms_per_row: f64,
    compact_ms_per_row: f64,
    request_bytes: f64,
    response_bytes: f64,
}

pub fn traced(inputs: &Inputs, seconds: f64) -> Report {
    let def = inputs.def;
    let keep = matches!(def.check, crate::spec::Check::Sample(_));
    let half = seconds / 2.0;

    let mut live = serve::setup(inputs, ObsConfig::disabled(), keep);
    let mut plain = serve::closed_loop(inputs, &mut live, half, keep);
    let mut records = std::mem::take(&mut live.warm_records);
    live.shutdown();

    let mut live = serve::setup(inputs, ObsConfig::default(), keep);
    let before = live.clients[0]
        .stats(0)
        .expect("stats before the traced phase");
    let cpu0 = sys::cpu_seconds();
    let wall0 = Instant::now();
    let mut traced = serve::closed_loop(inputs, &mut live, half, keep);
    let cpu = sys::cpu_seconds() - cpu0;
    let wall = wall0.elapsed().as_secs_f64();
    let after = live.clients[0]
        .stats(0)
        .expect("stats after the traced phase");
    records.append(&mut live.warm_records);
    live.shutdown();

    let g = serve::build_graph(&inputs.graph_spec());
    let replay = replay(inputs, &g, LaneWidth::W64);
    let wide = (def.scheme == SchemeKind::Ball).then(|| self::replay(inputs, &g, LaneWidth::W256));
    let (kernel_ms_per_row, compact_ms_per_row) = cold_fill_direct(inputs, &g);
    let (request_bytes, response_bytes) = frame_bytes(inputs, &replay.first_answers);
    drop(g);

    records.append(&mut plain.records);
    records.append(&mut traced.records);
    let checked = crate::check_answers(inputs, &records);

    let m = Measured {
        stages: StageDelta::between(&before, &after),
        cpu_util: cpu / (wall * nav_par::HostMeta::current().cores as f64),
        plain,
        traced,
        before,
        after,
        replay,
        wide,
        kernel_ms_per_row,
        compact_ms_per_row,
        request_bytes,
        response_bytes,
    };
    let stage_ms = m.stages.total_ms();
    let rtt_ms = m.rtt_ms();
    let coverage = ratio(stage_ms, rtt_ms);
    let reconciled = coverage <= 1.0 + STAGE_SLACK;
    let stage_json: Vec<String> = Stage::ALL
        .iter()
        .map(|&s| format!("\"{}\": {}", s.label(), m.stages.ms(s)))
        .collect();
    let notes = vec![
        ("checked".into(), crate::checked_note(&checked)),
        (
            "reconciliation".into(),
            format!(
                "{{\"ok\": {reconciled}, \"stage_ms\": {stage_ms}, \"client_rtt_ms\": {rtt_ms}, \"coverage\": {coverage}, \"slack\": {STAGE_SLACK}}}"
            ),
        ),
        ("stage_ms".into(), format!("{{{}}}", stage_json.join(", "))),
        ("greedy".into(), crate::greedy_note(&m.traced.tally)),
        (
            "replay".into(),
            format!(
                "{{\"batches\": {}, \"queries\": {}}}",
                m.replay.batches, m.replay.queries
            ),
        ),
        ("qps_untraced".into(), m.plain.qps().to_string()),
        ("qps_traced".into(), m.traced.qps().to_string()),
    ];
    Report {
        correct: checked.is_ok() && reconciled,
        attempted: m.plain.frames + m.traced.frames,
        failed: m.plain.failed + m.traced.failed,
        metrics: m.per_layer(),
        notes,
    }
}

impl Measured {
    /// Σ client round trip over the traced phase, milliseconds.
    fn rtt_ms(&self) -> f64 {
        self.traced.done.iter().map(|d| d.rtt_ms).sum()
    }

    fn per_layer(&self) -> Vec<Metric> {
        let Measured {
            plain,
            traced: out,
            stages,
            replay: rep,
            ..
        } = self;
        let (m0, m1) = (&self.before.metrics, &self.after.metrics);
        let queries = delta(m1, m0, |m| m.queries);
        let kq = queries / 1e3;
        let batches = delta(m1, m0, |m| m.batches);
        let trials = delta(m1, m0, |m| m.trials);
        let cold = delta(m1, m0, |m| m.cold_targets);
        let hits = delta(m1, m0, |m| m.cache_hits);
        let misses = delta(m1, m0, |m| m.cache_misses);
        // Server-side frames: one decode sample per request frame.
        let frames = stages.count(Stage::Decode) as f64;
        let rtt_ms = self.rtt_ms();
        let s = &rep.sampler;
        let rep_kq = rep.queries as f64 / 1e3;
        let mut m = vec![
            metric(
                "msbfs.fill_ms_per_row",
                "ms",
                ratio(stages.ms(Stage::ColdFill), cold),
            ),
            metric(
                "msbfs.rows_per_pass",
                "count",
                ratio(rep.cold_rows as f64, rep.passes as f64),
            ),
            metric(
                "msbfs.staging_mb",
                "MB",
                rep.staging_bytes as f64 / (1 << 20) as f64,
            ),
            metric("msbfs.kernel_ms_per_row", "ms", self.kernel_ms_per_row),
            metric("msbfs.compact_ms_per_row", "ms", self.compact_ms_per_row),
            metric("cache.hit_rate", "frac", ratio(hits, hits + misses)),
            metric("cache.misses_per_kq", "count/kq", ratio(misses, kq)),
            metric(
                "cache.evictions_per_kq",
                "count/kq",
                ratio(delta(m1, m0, |m| m.cache_evictions), kq),
            ),
            metric(
                "cache.lookup_ms",
                "ms",
                ratio(stages.ms(Stage::CacheLookup), batches),
            ),
            metric(
                "cache.resident_mb",
                "MB",
                m1.cache_resident_bytes as f64 / (1 << 20) as f64,
            ),
            metric(
                "engine.admission_ms",
                "ms",
                ratio(rep.admission_ms, rep.batches as f64),
            ),
            metric(
                "engine.batch_ms",
                "ms",
                ratio(rep.batch_ms, rep.batches as f64),
            ),
            metric(
                "engine.epoch_flips_per_kq",
                "count/kq",
                ratio(delta(m1, m0, |m| m.epoch_flips), kq),
            ),
            metric(
                "trial.us_per_trial",
                "us",
                ratio(stages.ms(Stage::Trials) * 1e3, trials),
            ),
            metric("trial.steps_per_trial", "count", out.tally.mean_steps()),
            metric("trial.success_rate", "frac", out.tally.success_rate()),
            metric("ball.rows_per_kq", "count/kq", ratio(s.rows as f64, rep_kq)),
            metric(
                "ball.passes_per_kq",
                "count/kq",
                ratio(s.passes as f64, rep_kq),
            ),
            metric(
                "ball.rows_per_pass",
                "count",
                ratio(s.rows as f64, s.passes as f64),
            ),
            metric(
                "ball.row_mb_per_kq",
                "MB/kq",
                ratio(s.row_bytes as f64 / (1 << 20) as f64, rep_kq),
            ),
            metric(
                "ball.hit_rate",
                "frac",
                ratio(s.hits as f64, (s.hits + s.misses) as f64),
            ),
            metric("ball.fallbacks", "count", s.fallbacks as f64),
            metric(
                "ball.rows_per_pass_w256",
                "count",
                self.wide.as_ref().map_or(0.0, |w| {
                    ratio(w.sampler.rows as f64, w.sampler.passes as f64)
                }),
            ),
            metric(
                "ball.w256_over_w64_batch_ms",
                "ratio",
                self.wide.as_ref().map_or(0.0, |w| {
                    ratio(
                        w.batch_ms / w.batches as f64,
                        rep.batch_ms / rep.batches as f64,
                    )
                }),
            ),
            metric(
                "fault.dropped_links_per_trial",
                "count",
                ratio(delta(m1, m0, |m| m.dropped_links), trials),
            ),
            metric(
                "fault.rerouted_hops_per_trial",
                "count",
                ratio(delta(m1, m0, |m| m.rerouted_hops), trials),
            ),
            metric(
                "frame.decode_us",
                "us",
                ratio(stages.ms(Stage::Decode) * 1e3, frames),
            ),
            metric(
                "frame.encode_us",
                "us",
                ratio(stages.ms(Stage::Encode) * 1e3, frames),
            ),
            metric("frame.request_bytes_per_query", "B", self.request_bytes),
            metric("frame.response_bytes_per_query", "B", self.response_bytes),
            metric(
                "socket.us_per_frame",
                "us",
                ratio(stages.ms(Stage::Socket) * 1e3, frames),
            ),
            metric(
                "server.unaccounted_ms",
                "ms",
                ratio(rtt_ms - stages.total_ms(), out.done.len() as f64),
            ),
        ];
        let labels = REFUSALS
            .iter()
            .map(|(_, label)| *label)
            .chain(["transport"]);
        for (label, (a, b)) in labels.zip(plain.refusals.iter().zip(&out.refusals)) {
            m.push(metric(
                format!("server.refusals.{label}"),
                "count",
                (a + b) as f64,
            ));
        }
        m.push(metric(
            "obs.overhead_frac",
            "frac",
            1.0 - ratio(out.qps(), plain.qps()),
        ));
        m.push(metric(
            "stages.coverage_frac",
            "frac",
            ratio(stages.total_ms(), rtt_ms),
        ));
        m.push(metric("proc.cpu_util", "frac", self.cpu_util));
        m
    }
}
