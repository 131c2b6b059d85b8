//! The `BENCH_scale.json` emitter (`nav-engine scale-bench`).
//!
//! The scale story of exact distance rows, measured at `n = 10^6` (full
//! mode) on three families of different geometry — `gnp` (expander),
//! `grid2d` and `random-tree` (large diameters):
//!
//! * **memory** — exact rows cost `O(n)` bytes per resident target,
//!   measured as the compact (adaptive `u16`/`u32`) rows a serving cache
//!   holds and as the wide `u32` rows of a [`TargetDistanceCache`];
//! * **routing** — greedy success rate and mean steps over sampled pairs;
//! * **serving** — one [`Engine`] replays a stream cold, asserted
//!   **bit-identical** to [`run_trials`], then replays it again warm from
//!   its row cache (the warm replay must be pure cache hits).
//!
//! Like every emitter in this crate, the JSON is rendered only after all
//! correctness gates pass — the numbers describe a verified run.

use crate::benchjson::stats_identical;
use crate::workloads::Workload;
use crate::ExpConfig;
use nav_core::oracle::TargetDistanceCache;
use nav_core::routing::default_step_cap;
use nav_core::trial::{run_trials, TrialConfig};
use nav_core::uniform::UniformScheme;
use nav_engine::{Engine, EngineConfig, Query, QueryBatch};
use nav_graph::distance::DistRowBuf;
use nav_graph::{Graph, NodeId};
use nav_par::rng::task_rng;
use rand::RngCore as _;
use std::time::Instant;

fn fms(v: f64) -> String {
    format!("{v:.3}")
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Knobs of one scale run: the presets [`ScaleParams::full`] and
/// [`ScaleParams::quick`], shrunk further by the unit test.
#[derive(Clone, Copy, Debug)]
pub struct ScaleParams {
    /// Requested nodes per family (families round, e.g. grids).
    pub n: usize,
    /// Sampled distinct targets charged to the exact working set.
    pub targets: usize,
    /// Routed sources per target (quality measurement).
    pub sources_per_target: usize,
    /// Routing trials per (s, t) pair.
    pub route_trials: usize,
    /// Distinct targets of the serving stream.
    pub serve_targets: usize,
    /// Queries in the serving stream.
    pub serve_queries: usize,
    /// Trials per serving query.
    pub serve_trials: usize,
    /// Serving batch size.
    pub batch: usize,
}

impl ScaleParams {
    /// The acceptance-scale run: `n = 10^6`.
    pub fn full() -> Self {
        ScaleParams {
            n: 1_000_000,
            targets: 256,
            sources_per_target: 2,
            route_trials: 2,
            serve_targets: 32,
            serve_queries: 256,
            serve_trials: 2,
            batch: 64,
        }
    }

    /// The CI-sized smoke of the same shape: `n = 10^5`, same target
    /// count.
    pub fn quick() -> Self {
        ScaleParams {
            n: 100_000,
            sources_per_target: 1,
            serve_targets: 16,
            ..Self::full()
        }
    }
}

/// `count` distinct node ids, deterministic in `seed`.
fn sample_targets(n: usize, count: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = task_rng(seed, 0);
    let mut set = std::collections::BTreeSet::new();
    while set.len() < count.min(n) {
        set.insert((rng.next_u64() % n as u64) as NodeId);
    }
    set.into_iter().collect()
}

/// Mean of a sum over `count` observations (`0` when empty).
fn mean(sum: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Serves every batch in order from RNG index 0 (without advancing the
/// engine's lifetime counter), returning the concatenated answers and
/// the wall-clock in ms.
fn replay(engine: &mut Engine, batches: &[QueryBatch]) -> (Vec<nav_core::trial::PairStats>, f64) {
    let t0 = Instant::now();
    let mut answers = Vec::new();
    let mut base = 0u64;
    for b in batches {
        let r = engine
            .serve_at(b, base, nav_core::sampler::SamplerMode::Scalar)
            .expect("validated queries");
        answers.extend(r.answers);
        base += b.len() as u64;
    }
    (answers, ms_since(t0))
}

/// Everything measured for one family, pre-rendering.
struct FamilyReport {
    family: &'static str,
    n: usize,
    m: usize,
    avg_degree: f64,
    graph_build_ms: f64,
    exact_build_ms: f64,
    exact_compact_bytes: usize,
    exact_wide_bytes: usize,
    pairs: usize,
    exact_success: f64,
    exact_mean_steps: f64,
    serve: ServeReport,
}

/// The serving/equivalence leg of one family.
struct ServeReport {
    targets: usize,
    queries: usize,
    single_ms: f64,
    warm_ms: f64,
    warm_hits: u64,
    warm_misses: u64,
}

fn measure_family(
    family: Workload,
    cfg: &ExpConfig,
    p: &ScaleParams,
    scheme: &UniformScheme,
) -> FamilyReport {
    let t0 = Instant::now();
    let g = family.build(p.n, cfg.seed_for("scale-graph", p.n));
    let graph_build_ms = ms_since(t0);
    let n = g.num_nodes();
    let step_cap = default_step_cap(&g);

    // --- targets, sources, and the exact working set ---------------------
    // The exact side is charged what a serving cache would hold resident:
    // one *compact* (adaptive u16/u32) row per sampled target. Rows are
    // built 64 targets per chunk so the wide u32 staging buffer stays
    // bounded at 64·n even at n = 10^6.
    let targets = sample_targets(n, p.targets, cfg.seed_for("scale-targets", n));
    let mut src_rng = task_rng(cfg.seed_for("scale-sources", n), 1);
    let sources: Vec<Vec<NodeId>> = targets
        .iter()
        .map(|&t| {
            (0..p.sources_per_target)
                .map(|_| loop {
                    let s = (src_rng.next_u64() % n as u64) as NodeId;
                    if s != t {
                        break s;
                    }
                })
                .collect()
        })
        .collect();

    let exact_route_seed = cfg.seed_for("scale-route-exact", n);
    let mut exact_build_ms = 0.0f64;
    let mut exact_compact_bytes = 0usize;
    let mut routed_pairs = 0usize;
    let mut trial_idx = 0u64;
    let mut exact_ok = 0usize;
    let mut exact_steps = 0u64;
    for (chunk_idx, chunk) in targets.chunks(64).enumerate() {
        let t0 = Instant::now();
        let cache =
            TargetDistanceCache::build(&g, chunk.iter().copied(), cfg.threads).expect("in range");
        exact_build_ms += ms_since(t0);
        for (off, &t) in chunk.iter().enumerate() {
            let row = cache.row(t).expect("built target");
            exact_compact_bytes += DistRowBuf::from_wide(row).bytes();
            let router = cache.router(t).expect("built target");
            for &s in &sources[chunk_idx * 64 + off] {
                routed_pairs += 1;
                for _ in 0..p.route_trials {
                    let mut rng = task_rng(exact_route_seed, trial_idx);
                    let out = router.route(scheme, s, &mut rng, step_cap, false);
                    exact_ok += out.reached as usize;
                    exact_steps += if out.reached { out.steps as u64 } else { 0 };
                    trial_idx += 1;
                }
            }
        }
    }
    let exact_wide_bytes = targets.len() * n * std::mem::size_of::<u32>();
    let trials_total = routed_pairs * p.route_trials;

    // --- serving: one engine, cold then warm, vs run_trials --------------
    let serve = measure_serving(&g, cfg, p, &targets);

    FamilyReport {
        family: family.name(),
        n,
        m: g.num_edges(),
        avg_degree: g.avg_degree(),
        graph_build_ms,
        exact_build_ms,
        exact_compact_bytes,
        exact_wide_bytes,
        pairs: routed_pairs,
        exact_success: mean(exact_ok as f64, trials_total),
        exact_mean_steps: mean(exact_steps as f64, exact_ok),
        serve,
    }
}

fn measure_serving(g: &Graph, cfg: &ExpConfig, p: &ScaleParams, targets: &[NodeId]) -> ServeReport {
    let n = g.num_nodes();
    // Spread the serving targets across the sampled set, cycling the
    // stream through them so the second replay is pure cache hits.
    let serve_t = p.serve_targets.min(targets.len()).max(1);
    let stride = (targets.len() / serve_t).max(1);
    let serve_targets: Vec<NodeId> = (0..serve_t).map(|i| targets[i * stride]).collect();
    let seed = cfg.seed_for("scale-serve", n);
    let mut rng = task_rng(seed, 2);
    let queries: Vec<Query> = (0..p.serve_queries)
        .map(|i| Query {
            s: (rng.next_u64() % n as u64) as NodeId,
            t: serve_targets[i % serve_targets.len()],
            trials: p.serve_trials,
        })
        .collect();
    let batches: Vec<QueryBatch> = queries
        .chunks(p.batch)
        .map(|c| QueryBatch {
            queries: c.to_vec(),
        })
        .collect();
    let pairs: Vec<_> = queries.iter().map(|q| (q.s, q.t)).collect();
    let reference = run_trials(
        g,
        &UniformScheme,
        &pairs,
        &TrialConfig {
            trials_per_pair: p.serve_trials,
            seed,
            threads: cfg.threads,
            width: cfg.width,
            ..TrialConfig::default()
        },
    )
    .expect("valid pairs");
    // Compact rows are ~2 bytes/node; ×2 headroom over the working set.
    let ecfg = EngineConfig {
        seed,
        threads: cfg.threads,
        cache_bytes: (serve_t * n * 4).max(1 << 20),
        width: cfg.width,
        ..EngineConfig::default()
    };

    let mut engine = Engine::new(g.clone(), Box::new(UniformScheme), ecfg);
    let (cold_answers, single_ms) = replay(&mut engine, &batches);
    assert!(
        stats_identical(&cold_answers, &reference.pairs),
        "engine diverged from run_trials"
    );
    let cold_misses = engine.cache_stats().misses;
    assert_eq!(
        cold_misses as usize, serve_t,
        "one miss per distinct target"
    );

    // Steady state: the same stream again, from the same RNG base, is
    // served entirely from resident rows and re-issues the *same* trial
    // streams, so the warm answers must be bit-identical too.
    let (warm_answers, warm_ms) = replay(&mut engine, &batches);
    assert!(
        stats_identical(&warm_answers, &reference.pairs),
        "warm replay diverged from run_trials"
    );
    let warm_stats = engine.cache_stats();
    assert_eq!(
        warm_stats.misses, cold_misses,
        "steady-state replay must be all hits"
    );
    ServeReport {
        targets: serve_t,
        queries: queries.len(),
        single_ms,
        warm_ms,
        warm_hits: warm_stats.hits,
        warm_misses: warm_stats.misses,
    }
}

/// Runs the scale benchmark with explicit knobs and renders
/// `BENCH_scale.json`.
///
/// # Panics
/// Panics if any gate fails: a cold or warm replay diverging from
/// [`run_trials`], or a warm replay that is not pure cache hits.
pub fn render_scale_bench_with(cfg: &ExpConfig, p: &ScaleParams) -> String {
    let families = [Workload::Gnp, Workload::Grid2d, Workload::RandomTree];
    let scheme = UniformScheme;
    let reports: Vec<FamilyReport> = families
        .iter()
        .map(|&f| {
            eprintln!("[bench] scale family {} (n = {})", f.name(), p.n);
            measure_family(f, cfg, p, &scheme)
        })
        .collect();
    let qps = |queries: usize, trials: usize, ms: f64| queries as f64 * trials as f64 / (ms / 1e3);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"nav-bench-scale/v2\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if cfg.quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"threads\": {},\n", cfg.threads));
    out.push_str(&format!(
        "  \"host\": {},\n",
        nav_par::HostMeta::current().to_json()
    ));
    out.push_str(&format!(
        "  \"params\": {{\"n\": {}, \"targets\": {}, \"sources_per_target\": {}, \"route_trials\": {}, \"serve_targets\": {}, \"serve_queries\": {}, \"serve_trials\": {}, \"batch\": {}}},\n",
        p.n,
        p.targets,
        p.sources_per_target,
        p.route_trials,
        p.serve_targets,
        p.serve_queries,
        p.serve_trials,
        p.batch,
    ));
    out.push_str("  \"families\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \"avg_degree\": {}, \"graph_build_ms\": {},\n",
            r.family,
            r.n,
            r.m,
            fms(r.avg_degree),
            fms(r.graph_build_ms)
        ));
        out.push_str(&format!(
            "     \"exact\": {{\"backend\": \"exact-rows\", \"targets\": {}, \"build_ms\": {}, \"resident_bytes_compact\": {}, \"resident_bytes_wide\": {}, \"success_rate\": {}, \"mean_steps\": {}}},\n",
            p.targets,
            fms(r.exact_build_ms),
            r.exact_compact_bytes,
            r.exact_wide_bytes,
            fms(r.exact_success),
            fms(r.exact_mean_steps)
        ));
        out.push_str(&format!("     \"routed_pairs\": {},\n", r.pairs));
        let s = &r.serve;
        out.push_str(&format!(
            "     \"serving\": {{\"targets\": {}, \"queries\": {}, \"trials_per_query\": {}, \"single_ms\": {}, \"single_qps\": {}, \"warm_ms\": {}, \"warm_qps\": {}, \"warm_hits\": {}, \"warm_misses\": {}, \"bit_identical\": true}}}}{}\n",
            s.targets,
            s.queries,
            p.serve_trials,
            fms(s.single_ms),
            fms(qps(s.queries, p.serve_trials, s.single_ms)),
            fms(s.warm_ms),
            fms(qps(s.queries, p.serve_trials, s.warm_ms)),
            s.warm_hits,
            s.warm_misses,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"bit_identical\": true\n");
    out.push_str("}\n");
    out
}

/// [`render_scale_bench_with`] at the standard presets:
/// [`ScaleParams::quick`] under `cfg.quick`, else [`ScaleParams::full`]
/// (`n = 10^6`).
pub fn render_scale_bench(cfg: &ExpConfig) -> String {
    let p = if cfg.quick {
        ScaleParams::quick()
    } else {
        ScaleParams::full()
    };
    render_scale_bench_with(cfg, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_bench_renders_valid_schema() {
        let cfg = ExpConfig {
            quick: true,
            seed: 11,
            threads: 2,
            ..ExpConfig::default()
        };
        let p = ScaleParams {
            n: 1500,
            targets: 64,
            serve_targets: 8,
            serve_queries: 64,
            sources_per_target: 1,
            ..ScaleParams::quick()
        };
        let json = render_scale_bench_with(&cfg, &p);
        for key in [
            "\"schema\": \"nav-bench-scale/v2\"",
            "\"mode\": \"quick\"",
            "\"host\":",
            "\"params\":",
            "\"families\": [",
            "\"family\": \"gnp\"",
            "\"family\": \"grid2d\"",
            "\"family\": \"random-tree\"",
            "\"exact\":",
            "\"resident_bytes_compact\":",
            "\"serving\":",
            "\"warm_hits\":",
            "\"bit_identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        for gone in ["landmark", "shard", "memory_ratio"] {
            assert!(!json.contains(gone), "stale {gone} in {json}");
        }
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
