//! The `BENCH_serve.json` emitter (`nav-engine --bench-json`).
//!
//! Measures the serving subsystem the way it will actually be used: a
//! long-lived [`nav_engine::Engine`] replaying a zipfian-target query
//! stream in batches, cold (cache capacity 0 — every batch recomputes its
//! rows) versus warm (cache sized for the working set, throughput
//! measured on a second replay after the first has populated it). The gap
//! between the two is exactly what the cross-batch row cache buys.
//!
//! Like the core emitter, this one is a correctness gate first: before a
//! single number is rendered it asserts that the engine's answers — both
//! at capacity 0 and with the populated cache — are **bit-identical** to
//! a fresh [`run_trials`] over the same query sequence, and that the warm
//! replay actually outran the cold one.
//!
//! [`run_trials`]: nav_core::trial::run_trials

use crate::measure::{
    self, assert_same_answers, bench_header, fms, graph_json, reference, replay, working_set_bytes,
    zipf_stream,
};
use crate::workloads::Workload;
use crate::ExpConfig;
use nav_analysis::latency::LatencySummary;
use nav_core::ball::BallScheme;
use nav_core::sampler::SamplerMode;
use nav_core::scheme::AugmentationScheme;
use nav_core::uniform::UniformScheme;
use nav_engine::workload::ZipfSpec;
use nav_engine::{Engine, EngineConfig};

/// One JSON fragment for a measured replay.
fn replay_json(label: &str, elapsed_ms: f64, queries: usize, latency: &[f64]) -> String {
    let digest = LatencySummary::from_samples(latency)
        .map(|l| l.to_json())
        .unwrap_or_else(|| "null".into());
    format!(
        "  \"{label}\": {{\"elapsed_ms\": {}, \"qps\": {}, \"batch_latency_ms\": {digest}}},\n",
        fms(elapsed_ms),
        fms(queries as f64 / (elapsed_ms / 1e3))
    )
}

/// Runs the serve benchmark and renders `BENCH_serve.json`.
///
/// # Panics
/// Panics if engine answers diverge from
/// [`run_trials`](nav_core::trial::run_trials) at any cache capacity, or
/// if the warm replay fails to beat the cold one — the JSON is only
/// produced for a correct, cache-effective engine.
pub fn render_serve_bench(cfg: &ExpConfig) -> String {
    // Full mode replays a ≥100k-query stream (the acceptance-scale run);
    // quick mode is the CI-sized smoke of the same shape.
    let (n, count, hot, batch_size) = if cfg.quick {
        (512, 6_000, 128, 256)
    } else {
        (4096, 120_000, 1024, 512)
    };
    let trials = 4usize;
    let g = Workload::Gnp.build(n, cfg.seed_for("serve-graph", n));
    let n = g.num_nodes();
    let zipf = ZipfSpec {
        count,
        theta: 1.1,
        seed: cfg.seed_for("serve-zipf", n),
        hot,
    };
    let (queries, batches, distinct) = zipf_stream(n, &zipf, trials, batch_size);
    let seed = cfg.seed_for("serve-trials", n);
    let scalar = SamplerMode::Scalar;
    // Every engine here serves the uniform scheme at this seed; only the
    // cache, the observability and the scheme of the ball legs vary.
    let engine_cfg = |cache_bytes| EngineConfig {
        seed,
        threads: cfg.threads,
        cache_bytes,
        ..EngineConfig::default()
    };
    let uniform = |ecfg| Engine::new(g.clone(), Box::new(UniformScheme), ecfg);

    // --- the reference: one long run_trials over the whole stream -------
    let expected = reference(
        &g,
        &UniformScheme,
        &queries,
        seed,
        cfg.threads,
        scalar,
        cfg.width,
    );

    // --- cold: capacity 0, every batch recomputes its rows --------------
    let mut cold_engine = uniform(engine_cfg(0));
    let (cold_answers, cold_latency, cold_ms) = replay(&mut cold_engine, &batches, 0, scalar);
    assert_same_answers("serve: cold engine vs run_trials", &cold_answers, &expected);

    // --- warm: cache sized for the working set ---------------------------
    let cache_bytes = working_set_bytes(distinct, n);
    let mut warm_engine = uniform(engine_cfg(cache_bytes));
    let (first_answers, _, _) = replay(&mut warm_engine, &batches, 0, scalar);
    // Cache state must be invisible in the answers: the populating replay
    // (mixed cold/warm as the zipf head fills in) is bit-identical too.
    assert_same_answers(
        "serve: warm-cache engine vs run_trials",
        &first_answers,
        &expected,
    );
    // The second replay continues the stream (RNG base `count`) and is
    // served entirely from the resident rows — the steady state of a
    // skewed production stream.
    let (_, warm_latency, warm_ms) = replay(&mut warm_engine, &batches, count as u64, scalar);
    let warm_stats = warm_engine.cache_stats();
    assert_eq!(
        warm_stats.misses as usize, distinct,
        "serve: steady-state replay must be all hits"
    );
    let cold_qps = count as f64 / (cold_ms / 1e3);
    let warm_qps = count as f64 / (warm_ms / 1e3);
    // Gated in full mode only, like the timing gates below: a quick
    // replay is too short to time fairly.
    if cfg.quick {
        eprintln!("[bench] warm/cold quick: warm {warm_qps:.0} qps vs cold {cold_qps:.0} qps");
    } else {
        assert!(
            warm_qps > cold_qps,
            "serve: warm-cache replay ({warm_qps:.0} qps) must beat cold ({cold_qps:.0} qps)"
        );
    }

    // --- observability overhead: instrumented vs. stripped ---------------
    // The default engine above runs with stage spans + the bounded batch
    // histogram + 1-in-1024 trace sampling on. Re-run the same warm
    // steady-state replay on an engine with observability fully off; the
    // instrumented engine must stay within a 3% throughput budget
    // (gated in full mode — quick replays are too short to time fairly).
    // Answers must be bit-identical either way: observability may cost
    // nanoseconds, never correctness.
    let mut plain_engine = uniform(EngineConfig {
        obs: nav_obs::ObsConfig::disabled(),
        ..engine_cfg(cache_bytes)
    });
    let (plain_first, _, _) = replay(&mut plain_engine, &batches, 0, scalar);
    assert_same_answers(
        "serve: obs-disabled engine vs run_trials",
        &plain_first,
        &expected,
    );
    let (_, _, plain_ms) = replay(&mut plain_engine, &batches, count as u64, scalar);
    let plain_qps = count as f64 / (plain_ms / 1e3);
    let overhead_frac = 1.0 - warm_qps / plain_qps;
    const OBS_BUDGET_FRAC: f64 = 0.03;
    if cfg.quick {
        eprintln!(
            "[bench] obs overhead quick: instrumented {warm_qps:.0} qps vs plain {plain_qps:.0} qps ({:+.1}%)",
            overhead_frac * 100.0
        );
    } else {
        assert!(
            warm_qps >= (1.0 - OBS_BUDGET_FRAC) * plain_qps,
            "serve: instrumented warm replay ({warm_qps:.0} qps) fell more than {:.0}% behind uninstrumented ({plain_qps:.0} qps)",
            OBS_BUDGET_FRAC * 100.0
        );
    }

    // --- ball workload: the per-step sampler backends head to head ------
    // A prefix of the same zipfian stream served under the Theorem-4 ball
    // scheme, whose per-step draw is the engine's last scalar hot path:
    // (a) scalar truncated-BFS draws, (b) the batched shared ball rows,
    // (c) a pre-realized contact table from `realize_batched`. Each
    // backend is gated bit-identical against `run_trials` in its own
    // mode before a number is rendered.
    let ball_count = if cfg.quick { 600 } else { 6_000 };
    let ball_queries = &queries[..ball_count.min(queries.len())];
    let ball_batches = measure::batches(ball_queries, batch_size);
    let ball = BallScheme::new(&g);
    let ball_seed = cfg.seed_for("serve-ball", n);
    let realization = ball.realize_batched(&g, ball_seed, cfg.threads);
    let legs: [(&str, Box<dyn AugmentationScheme + Send>, SamplerMode); 3] = [
        ("scalar sampler", Box::new(ball), SamplerMode::Scalar),
        ("batched sampler", Box::new(ball), SamplerMode::Batched),
        (
            "pre-realized scheme",
            Box::new(realization),
            SamplerMode::Scalar,
        ),
    ];
    let mut ball_ms = [0.0f64; 3];
    for (slot, (leg, scheme, mode)) in legs.into_iter().enumerate() {
        let expected = reference(
            &g,
            scheme.as_ref(),
            ball_queries,
            ball_seed,
            cfg.threads,
            mode,
            cfg.width,
        );
        let mut e = Engine::new(
            g.clone(),
            scheme,
            EngineConfig {
                seed: ball_seed,
                sampler: mode,
                ..engine_cfg(cache_bytes)
            },
        );
        let (answers, _, ms) = replay(&mut e, &ball_batches, 0, mode);
        ball_ms[slot] = ms;
        assert_same_answers(
            &format!("serve: ball engine ({leg}) vs run_trials"),
            &answers,
            &expected,
        );
    }
    let [ball_scalar_ms, ball_batched_ms, ball_realized_ms] = ball_ms;
    if cfg.quick {
        // See the core emitter: wall-clock gates only bind in full mode,
        // where the replays run for seconds rather than milliseconds.
        eprintln!(
            "[bench] ball serving quick: scalar {ball_scalar_ms:.1} ms, batched {ball_batched_ms:.1} ms"
        );
    } else {
        assert!(
            ball_batched_ms < ball_scalar_ms,
            "serve: batched ball serving ({ball_batched_ms:.1} ms) must beat scalar ({ball_scalar_ms:.1} ms)"
        );
    }
    let ball_qps = |ms: f64| ball_queries.len() as f64 / (ms / 1e3);

    // --- restore-warm: durability as a serving optimization --------------
    // Freeze the steady-state engine into a `nav-store` snapshot, push it
    // through its own encode/decode (the on-disk round trip), restore,
    // and replay the stream from RNG base 0. Two gates before a number is
    // rendered: the restored answers are bit-identical to the reference
    // (restore is answer-invisible), and in full mode the restored replay
    // beats the cold one (the imported rows actually serve warm).
    let snap = nav_store::Snapshot::capture(&warm_engine).expect("uniform scheme snapshots");
    let snap_bytes = snap.encode();
    let decoded = nav_store::Snapshot::decode(&snap_bytes).expect("own encoding decodes");
    let mut restored = decoded
        .restore(cfg.threads, nav_obs::ObsConfig::default())
        .expect("own snapshot restores");
    let (restored_answers, restore_latency, restore_ms) =
        replay(&mut restored, &batches, 0, scalar);
    assert_same_answers(
        "serve: restored engine vs run_trials",
        &restored_answers,
        &expected,
    );
    let restore_qps = count as f64 / (restore_ms / 1e3);
    if cfg.quick {
        eprintln!(
            "[bench] restore-warm quick: {restore_qps:.0} qps off a {}-byte snapshot (cold {cold_qps:.0} qps)",
            snap_bytes.len()
        );
    } else {
        assert!(
            restore_qps > cold_qps,
            "serve: restored-warm replay ({restore_qps:.0} qps) must beat cold ({cold_qps:.0} qps)"
        );
    }

    // --- render ----------------------------------------------------------
    let mut out = bench_header("nav-bench-serve/v1", cfg);
    out.push_str(&graph_json("gnp", &g));
    out.push_str(&format!(
        "  \"workload\": {{\"queries\": {count}, \"trials_per_query\": {trials}, \"batch\": {batch_size}, \"zipf_theta\": {}, \"hot_targets\": {hot}, \"distinct_targets\": {distinct}, \"scheme\": \"uniform\"}},\n",
        zipf.theta
    ));
    out.push_str(&replay_json("cold", cold_ms, count, &cold_latency));
    out.push_str(&replay_json("warm", warm_ms, count, &warm_latency));
    out.push_str(&format!(
        "  \"obs_overhead\": {{\"instrumented_qps\": {}, \"plain_qps\": {}, \"overhead_frac\": {}, \"budget_frac\": {OBS_BUDGET_FRAC}, \"gated\": {}}},\n",
        fms(warm_qps),
        fms(plain_qps),
        fms(overhead_frac),
        !cfg.quick
    ));
    out.push_str(&format!(
        "  \"ball\": {{\"queries\": {}, \"trials_per_query\": {trials}, \"scheme\": \"ball(thm4)\", \"scalar_ms\": {}, \"scalar_qps\": {}, \"batched_ms\": {}, \"batched_qps\": {}, \"realized_ms\": {}, \"realized_qps\": {}, \"batched_over_scalar_speedup\": {}, \"bit_identical_to_run_trials\": true}},\n",
        ball_queries.len(),
        fms(ball_scalar_ms),
        fms(ball_qps(ball_scalar_ms)),
        fms(ball_batched_ms),
        fms(ball_qps(ball_batched_ms)),
        fms(ball_realized_ms),
        fms(ball_qps(ball_realized_ms)),
        fms(ball_scalar_ms / ball_batched_ms)
    ));
    out.push_str(&format!(
        "  \"cache\": {{\"capacity_bytes\": {}, \"resident_rows\": {}, \"resident_bytes\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {}}},\n",
        warm_stats.capacity_bytes,
        warm_stats.resident_rows,
        warm_stats.resident_bytes,
        warm_stats.hits,
        warm_stats.misses,
        warm_stats.evictions,
        fms(warm_stats.hit_rate())
    ));
    out.push_str(&replay_json(
        "restore_warm",
        restore_ms,
        count,
        &restore_latency,
    ));
    out.push_str(&format!(
        "  \"restore\": {{\"snapshot_bytes\": {}, \"restored_rows\": {}, \"restore_over_cold_speedup\": {}, \"bit_identical_after_restore\": true, \"gated\": {}}},\n",
        snap_bytes.len(),
        snap.state.rows.len(),
        fms(cold_ms / restore_ms),
        !cfg.quick
    ));
    out.push_str(&format!(
        "  \"warm_over_cold_speedup\": {},\n",
        fms(cold_ms / warm_ms)
    ));
    out.push_str("  \"bit_identical_to_run_trials\": true\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_serve_bench_renders_valid_schema() {
        let cfg = ExpConfig {
            quick: true,
            seed: 4,
            threads: 2,
            ..ExpConfig::default()
        };
        let json = render_serve_bench(&cfg);
        for key in [
            "\"schema\": \"nav-bench-serve/v1\"",
            "\"mode\": \"quick\"",
            "\"host\":",
            "\"workload\":",
            "\"cold\":",
            "\"warm\":",
            "\"ball\":",
            "\"batched_over_scalar_speedup\":",
            "\"batch_latency_ms\":",
            "\"cache\":",
            "\"obs_overhead\":",
            "\"restore_warm\":",
            "\"restore\":",
            "\"bit_identical_after_restore\": true",
            "\"warm_over_cold_speedup\":",
            "\"bit_identical_to_run_trials\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
