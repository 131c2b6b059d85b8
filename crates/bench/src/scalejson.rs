//! The `BENCH_scale.json` emitter (`nav-engine scale-bench`).
//!
//! The scale story of exact distance rows, measured at `n = 10^6` (full
//! mode) on three families of different geometry — `gnp` (an expander,
//! except that `gnp_connected` chains the ≈ n·e⁻⁶ isolated nodes, about
//! 2,480 of them, into a path tail hanging off the giant component, so
//! its maximum depth is about 2,500), `grid2d` and `random-tree` (large
//! diameters):
//!
//! * **memory** — exact rows cost `O(n)` bytes per resident target,
//!   measured as the compact (adaptive `u16`/`u32`) rows a
//!   [`TargetDistanceCache`] holds — the same rows a serving cache keeps;
//! * **routing** — greedy success rate and mean steps over sampled pairs;
//! * **serving** — one [`Engine`] replays a stream cold, asserted
//!   **bit-identical** to [`run_trials`], then replays it again warm from
//!   its row cache (the warm replay must be pure cache hits).
//!
//! Like every emitter in this crate, the JSON is rendered only after all
//! correctness gates pass — the numbers describe a verified run.
//!
//! [`run_trials`]: nav_core::trial::run_trials

use crate::measure::{
    assert_same_answers, batches, bench_header, fms, reference, replay, working_set_bytes,
};
use crate::workloads::Workload;
use crate::ExpConfig;
use nav_core::oracle::TargetDistanceCache;
use nav_core::routing::default_step_cap;
use nav_core::sampler::SamplerMode;
use nav_core::uniform::UniformScheme;
use nav_engine::{Engine, EngineConfig, Query};
use nav_graph::{Graph, NodeId};
use nav_par::rng::task_rng;
use rand::RngCore as _;
use std::time::Instant;

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

/// Measures one family and renders its `families` entry (no trailing
/// comma).
fn measure_family(
    family: Workload,
    cfg: &ExpConfig,
    p: &ScaleParams,
    scheme: &UniformScheme,
) -> String {
    let t0 = Instant::now();
    let g = family.build(p.n, cfg.seed_for("scale-graph", p.n));
    let graph_build_ms = ms_since(t0);
    let n = g.num_nodes();
    let step_cap = default_step_cap(&g);

    // --- targets, sources, and the exact working set ---------------------
    // The exact side is charged what its oracles hold resident: one
    // compact (adaptive u16/u32) row per sampled target, the same rows a
    // serving cache would keep. Rows are built 64 targets per chunk, so
    // at most 64 rows are resident at once even at n = 10^6.
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
        exact_compact_bytes += cache.bytes();
        for (off, &t) in chunk.iter().enumerate() {
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
    let trials_total = routed_pairs * p.route_trials;

    // --- serving: one engine, cold then warm, vs run_trials --------------
    let serving = measure_serving(&g, cfg, p, &targets);
    format!(
        "    {{\"family\": \"{}\", \"n\": {n}, \"m\": {}, \"avg_degree\": {}, \"graph_build_ms\": {},\n     \"exact\": {{\"backend\": \"exact-rows\", \"targets\": {}, \"build_ms\": {}, \"resident_bytes_compact\": {exact_compact_bytes}, \"success_rate\": {}, \"mean_steps\": {}}},\n     \"routed_pairs\": {routed_pairs},\n{serving}",
        family.name(),
        g.num_edges(),
        fms(g.avg_degree()),
        fms(graph_build_ms),
        p.targets,
        fms(exact_build_ms),
        // Both sums are 0 when their count is, so the means are 0 then.
        fms(exact_ok as f64 / trials_total.max(1) as f64),
        fms(exact_steps as f64 / exact_ok.max(1) as f64),
    )
}

/// The serving leg of one family, rendered as its `serving` entry (which
/// closes the family's object).
fn measure_serving(g: &Graph, cfg: &ExpConfig, p: &ScaleParams, targets: &[NodeId]) -> String {
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
    let batches = batches(&queries, p.batch);
    let scalar = SamplerMode::Scalar;
    let expected = reference(
        g,
        &UniformScheme,
        &queries,
        seed,
        cfg.threads,
        scalar,
        cfg.width,
    );
    let ecfg = EngineConfig {
        seed,
        threads: cfg.threads,
        cache_bytes: working_set_bytes(serve_t, n),
        width: cfg.width,
        ..EngineConfig::default()
    };

    let mut engine = Engine::new(g.clone(), Box::new(UniformScheme), ecfg);
    let (cold_answers, _, single_ms) = replay(&mut engine, &batches, 0, scalar);
    assert_same_answers("scale: cold engine vs run_trials", &cold_answers, &expected);
    let cold_misses = engine.cache_stats().misses;
    assert_eq!(
        cold_misses as usize, serve_t,
        "scale: one miss per distinct target"
    );

    // Steady state: the same stream again, from the same RNG base, is
    // served entirely from resident rows and re-issues the *same* trial
    // streams, so the warm answers must be bit-identical too.
    let (warm_answers, _, warm_ms) = replay(&mut engine, &batches, 0, scalar);
    assert_same_answers("scale: warm replay vs run_trials", &warm_answers, &expected);
    let warm_stats = engine.cache_stats();
    assert_eq!(
        warm_stats.misses, cold_misses,
        "scale: steady-state replay must be all hits"
    );
    let qps = |ms: f64| (queries.len() * p.serve_trials) as f64 / (ms / 1e3);
    format!(
        "     \"serving\": {{\"targets\": {serve_t}, \"queries\": {}, \"trials_per_query\": {}, \"single_ms\": {}, \"single_qps\": {}, \"warm_ms\": {}, \"warm_qps\": {}, \"warm_hits\": {}, \"warm_misses\": {}, \"bit_identical\": true}}}}",
        queries.len(),
        p.serve_trials,
        fms(single_ms),
        fms(qps(single_ms)),
        fms(warm_ms),
        fms(qps(warm_ms)),
        warm_stats.hits,
        warm_stats.misses,
    )
}

/// Runs the scale benchmark with explicit knobs and renders
/// `BENCH_scale.json`.
///
/// # Panics
/// Panics if any gate fails: a cold or warm replay diverging from
/// [`run_trials`](nav_core::trial::run_trials), or a warm replay that is
/// not pure cache hits.
pub fn render_scale_bench_with(cfg: &ExpConfig, p: &ScaleParams) -> String {
    let families = [Workload::Gnp, Workload::Grid2d, Workload::RandomTree];
    let scheme = UniformScheme;
    let reports: Vec<String> = families
        .iter()
        .map(|&f| {
            eprintln!("[bench] scale family {} (n = {})", f.name(), p.n);
            measure_family(f, cfg, p, &scheme)
        })
        .collect();
    let mut out = bench_header("nav-bench-scale/v3", cfg);
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
    out.push_str(&reports.join(",\n"));
    out.push('\n');
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
            "\"schema\": \"nav-bench-scale/v3\"",
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
        for gone in ["landmark", "shard", "memory_ratio", "resident_bytes_wide"] {
            assert!(!json.contains(gone), "stale {gone} in {json}");
        }
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
