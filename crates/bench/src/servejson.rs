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

use crate::benchjson::stats_identical;
use crate::workloads::Workload;
use crate::ExpConfig;
use nav_analysis::latency::LatencySummary;
use nav_core::ball::BallScheme;
use nav_core::sampler::SamplerMode;
use nav_core::trial::{run_trials, PairStats, TrialConfig};
use nav_core::uniform::UniformScheme;
use nav_engine::workload::{zipf_queries, ZipfSpec};
use nav_engine::{Engine, EngineConfig, Query, QueryBatch};
use nav_graph::Graph;
use std::time::Instant;

fn fms(v: f64) -> String {
    format!("{v:.3}")
}

/// A fresh engine over `g` with the given cache capacity.
fn engine(g: &Graph, seed: u64, threads: usize, cache_bytes: usize) -> Engine {
    Engine::new(
        g.clone(),
        Box::new(UniformScheme),
        EngineConfig {
            seed,
            threads,
            cache_bytes,
            ..EngineConfig::default()
        },
    )
}

/// Serves every batch in order, returning the concatenated answers and
/// the per-batch service times (the engine itself only keeps a bounded
/// histogram of these — exact samples are the emitter's to collect).
fn replay(engine: &mut Engine, batches: &[QueryBatch]) -> (Vec<PairStats>, Vec<f64>) {
    let mut answers = Vec::new();
    let mut batch_ms = Vec::with_capacity(batches.len());
    for b in batches {
        let r = engine.serve(b).expect("workload validated");
        batch_ms.push(r.elapsed_ms);
        answers.extend(r.answers);
    }
    (answers, batch_ms)
}

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
/// Panics if engine answers diverge from [`run_trials`] at any cache
/// capacity, or if the warm replay fails to beat the cold one — the JSON
/// is only produced for a correct, cache-effective engine.
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
    let queries: Vec<Query> = zipf_queries(n, &zipf, trials);
    let batches: Vec<QueryBatch> = queries
        .chunks(batch_size)
        .map(|c| QueryBatch {
            queries: c.to_vec(),
        })
        .collect();
    let distinct = {
        let mut t: Vec<_> = queries.iter().map(|q| q.t).collect();
        t.sort_unstable();
        t.dedup();
        t.len()
    };
    let seed = cfg.seed_for("serve-trials", n);

    // --- the reference: one long run_trials over the whole stream -------
    let pairs: Vec<_> = queries.iter().map(|q| (q.s, q.t)).collect();
    let reference = run_trials(
        &g,
        &UniformScheme,
        &pairs,
        &TrialConfig {
            trials_per_pair: trials,
            seed,
            threads: cfg.threads,
            ..TrialConfig::default()
        },
    )
    .expect("valid pairs");

    // --- cold: capacity 0, every batch recomputes its rows --------------
    let mut cold_engine = engine(&g, seed, cfg.threads, 0);
    let t0 = Instant::now();
    let (cold_answers, cold_latency) = replay(&mut cold_engine, &batches);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        stats_identical(&cold_answers, &reference.pairs),
        "cold engine answers diverged from run_trials"
    );

    // --- warm: cache sized for the working set ---------------------------
    // Compact rows are 2 bytes per node; ×2 headroom over the distinct-
    // target working set.
    let cache_bytes = (distinct * n * 4).max(1 << 20);
    let mut warm_engine = engine(&g, seed, cfg.threads, cache_bytes);
    let (first_answers, _) = replay(&mut warm_engine, &batches);
    // Cache state must be invisible in the answers: the populating replay
    // (mixed cold/warm as the zipf head fills in) is bit-identical too.
    assert!(
        stats_identical(&first_answers, &reference.pairs),
        "warm-cache engine answers diverged from run_trials"
    );
    // The second replay of the same stream is served entirely from the
    // resident rows — the steady state of a skewed production stream.
    let t1 = Instant::now();
    let (_steady, warm_latency) = replay(&mut warm_engine, &batches);
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    let warm_stats = warm_engine.cache_stats();
    assert_eq!(
        warm_stats.misses as usize, distinct,
        "steady-state replay must be all hits"
    );
    let cold_qps = count as f64 / (cold_ms / 1e3);
    let warm_qps = count as f64 / (warm_ms / 1e3);
    assert!(
        warm_qps > cold_qps,
        "warm-cache replay ({warm_qps:.0} qps) must beat cold ({cold_qps:.0} qps)"
    );

    // --- observability overhead: instrumented vs. stripped ---------------
    // The default engine above runs with stage spans + the bounded batch
    // histogram + 1-in-1024 trace sampling on. Re-run the same warm
    // steady-state replay on an engine with observability fully off; the
    // instrumented engine must stay within a 3% throughput budget
    // (gated in full mode — quick replays are too short to time fairly).
    // Answers must be bit-identical either way: observability may cost
    // nanoseconds, never correctness.
    let mut plain_engine = Engine::new(
        g.clone(),
        Box::new(UniformScheme),
        EngineConfig {
            seed,
            threads: cfg.threads,
            cache_bytes,
            obs: nav_obs::ObsConfig::disabled(),
            ..EngineConfig::default()
        },
    );
    let (plain_first, _) = replay(&mut plain_engine, &batches);
    assert!(
        stats_identical(&plain_first, &reference.pairs),
        "obs-disabled engine answers diverged from run_trials"
    );
    let t2 = Instant::now();
    let _ = replay(&mut plain_engine, &batches);
    let plain_ms = t2.elapsed().as_secs_f64() * 1e3;
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
            "instrumented warm replay ({warm_qps:.0} qps) fell more than {:.0}% behind uninstrumented ({plain_qps:.0} qps)",
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
    let ball_batches: Vec<QueryBatch> = ball_queries
        .chunks(batch_size)
        .map(|c| QueryBatch {
            queries: c.to_vec(),
        })
        .collect();
    let ball_pairs: Vec<_> = ball_queries.iter().map(|q| (q.s, q.t)).collect();
    let ball = BallScheme::new(&g);
    let ball_seed = cfg.seed_for("serve-ball", n);
    let mut ball_ms = [0.0f64; 3];
    for (slot, mode) in [SamplerMode::Scalar, SamplerMode::Batched]
        .into_iter()
        .enumerate()
    {
        let reference = run_trials(
            &g,
            &ball,
            &ball_pairs,
            &TrialConfig {
                trials_per_pair: trials,
                seed: ball_seed,
                threads: cfg.threads,
                sampler: mode,
                ..TrialConfig::default()
            },
        )
        .expect("valid pairs");
        let mut e = Engine::new(
            g.clone(),
            Box::new(ball),
            EngineConfig {
                seed: ball_seed,
                threads: cfg.threads,
                cache_bytes,
                sampler: mode,
                ..EngineConfig::default()
            },
        );
        let t = Instant::now();
        let (answers, _) = replay(&mut e, &ball_batches);
        ball_ms[slot] = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            stats_identical(&answers, &reference.pairs),
            "ball engine ({mode:?} sampler) diverged from run_trials"
        );
    }
    let realization = ball.realize_batched(&g, ball_seed, cfg.threads);
    let realized_reference = run_trials(
        &g,
        &realization,
        &ball_pairs,
        &TrialConfig {
            trials_per_pair: trials,
            seed: ball_seed,
            threads: cfg.threads,
            sampler: SamplerMode::Scalar,
            ..TrialConfig::default()
        },
    )
    .expect("valid pairs");
    let mut realized_engine = Engine::new(
        g.clone(),
        Box::new(realization),
        EngineConfig {
            seed: ball_seed,
            threads: cfg.threads,
            cache_bytes,
            sampler: SamplerMode::Scalar,
            ..EngineConfig::default()
        },
    );
    let t = Instant::now();
    let (realized_answers, _) = replay(&mut realized_engine, &ball_batches);
    ball_ms[2] = t.elapsed().as_secs_f64() * 1e3;
    assert!(
        stats_identical(&realized_answers, &realized_reference.pairs),
        "ball engine (pre-realized scheme) diverged from run_trials"
    );
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
            "batched ball serving ({ball_batched_ms:.1} ms) must beat scalar ({ball_scalar_ms:.1} ms)"
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
    let front = nav_engine::ShardedEngine::from_engine(warm_engine);
    let snap = nav_store::Snapshot::capture(&front).expect("uniform scheme snapshots");
    let snap_bytes = snap.encode();
    let decoded = nav_store::Snapshot::decode(&snap_bytes).expect("own encoding decodes");
    let mut restored = decoded
        .restore(cfg.threads, nav_obs::ObsConfig::default())
        .expect("own snapshot restores");
    let mut restored_answers = Vec::new();
    let mut restore_latency = Vec::with_capacity(batches.len());
    let mut base = 0u64;
    let t3 = Instant::now();
    for b in &batches {
        let r = restored
            .serve_at(b, base, SamplerMode::Scalar)
            .expect("workload validated");
        base += b.len() as u64;
        restore_latency.push(r.elapsed_ms);
        restored_answers.extend(r.answers);
    }
    let restore_ms = t3.elapsed().as_secs_f64() * 1e3;
    assert!(
        stats_identical(&restored_answers, &reference.pairs),
        "restored engine answers diverged from run_trials"
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
            "restored-warm replay ({restore_qps:.0} qps) must beat cold ({cold_qps:.0} qps)"
        );
    }

    // --- render ----------------------------------------------------------
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"nav-bench-serve/v1\",\n");
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
        "  \"graph\": {{\"family\": \"gnp\", \"n\": {}, \"m\": {}, \"avg_degree\": {}}},\n",
        n,
        g.num_edges(),
        fms(g.avg_degree())
    ));
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
        snap.shards.iter().map(|s| s.rows.len()).sum::<usize>(),
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
