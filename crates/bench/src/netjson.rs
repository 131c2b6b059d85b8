//! The `BENCH_net.json` emitter (`nav-engine bench-tcp --bench-json`).
//!
//! Measures what the wire costs: the same zipfian replay the serve
//! baseline uses, but through a real `nav-net` TCP server on a loopback
//! socket — framing, copies, syscalls and the engine mutex included — in
//! a **cold vs warm** pair per batch size (bigger batches amortise both
//! the MS-BFS passes *and* the per-frame overhead, so the sweep shows the
//! knee), plus an **admission-policy** comparison (strict LRU vs the
//! segmented probation/protected LRU) under a cache deliberately smaller
//! than the working set.
//!
//! Like the other emitters, a correctness gate comes first: every replay's
//! answers must be **bit-identical** to a fresh [`run_trials`] over the
//! same query sequence — the engine's determinism contract surviving the
//! socket — and the two admission policies must agree bit-for-bit before
//! their hit rates are rendered.
//!
//! [`run_trials`]: nav_core::trial::run_trials

use crate::measure::{
    assert_same_answers, batches, bench_header, fms, graph_json, reference, working_set_bytes,
    zipf_stream,
};
use crate::workloads::Workload;
use crate::ExpConfig;
use nav_core::sampler::SamplerMode;
use nav_core::trial::PairStats;
use nav_core::uniform::UniformScheme;
use nav_engine::workload::ZipfSpec;
use nav_engine::{AdmissionPolicy, Engine, EngineConfig, Query};
use nav_graph::Graph;
use nav_net::{MetricsSnapshot, NetClient, NetConfig, NetServer, ServerHandle};
use std::time::Instant;

/// Boots a loopback server around a fresh uniform-scheme engine.
fn spawn_server(g: &Graph, cfg: EngineConfig) -> ServerHandle {
    let engine = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
    NetServer::bind(engine, NetConfig::default(), "127.0.0.1:0")
        .expect("bind loopback")
        .spawn()
        .expect("spawn server")
}

/// Replays `queries` over `client` in batches of `batch`, returning the
/// concatenated answers, the last metrics snapshot, and the wall-clock.
fn replay_tcp(
    client: &mut NetClient,
    queries: &[Query],
    batch: usize,
) -> (Vec<PairStats>, MetricsSnapshot, f64) {
    let t0 = Instant::now();
    let mut answers = Vec::with_capacity(queries.len());
    let mut metrics = MetricsSnapshot::default();
    for b in batches(queries, batch) {
        let (a, m) = client
            .serve(0, SamplerMode::Scalar, &b)
            .expect("loopback replay");
        answers.extend(a);
        metrics = m;
    }
    (answers, metrics, t0.elapsed().as_secs_f64() * 1e3)
}

/// Runs the network benchmark and renders `BENCH_net.json`.
///
/// # Panics
/// Panics if any TCP-served replay diverges from
/// [`run_trials`](nav_core::trial::run_trials), or if the two admission
/// policies disagree — the JSON is only produced for a wire front that
/// is invisible in the answers.
pub fn render_net_bench(cfg: &ExpConfig) -> String {
    let (n, count, hot) = if cfg.quick {
        (512, 4_000, 128)
    } else {
        (4096, 40_000, 1024)
    };
    let trials = 4usize;
    let g = Workload::Gnp.build(n, cfg.seed_for("net-graph", n));
    let n = g.num_nodes();
    let zipf = ZipfSpec {
        count,
        theta: 1.1,
        seed: cfg.seed_for("net-zipf", n),
        hot,
    };
    // The TCP replays cut the stream per sweep point; keep it whole here.
    let (queries, _, distinct) = zipf_stream(n, &zipf, trials, count);
    let seed = cfg.seed_for("net-trials", n);
    let engine_cfg = |cache_bytes, admission| EngineConfig {
        seed,
        threads: cfg.threads,
        cache_bytes,
        admission,
        ..EngineConfig::default()
    };

    // --- the reference: the stream replayed twice, as one long
    // run_trials (the warm pass continues the client's RNG offset) ------
    let twice: Vec<Query> = queries.iter().chain(&queries).copied().collect();
    let expected = reference(
        &g,
        &UniformScheme,
        &twice,
        seed,
        cfg.threads,
        SamplerMode::Scalar,
        cfg.width,
    );
    let (ref_cold, ref_warm) = expected.split_at(queries.len());

    // --- batch-size sweep: cold and warm replays per size ---------------
    let cache_bytes = working_set_bytes(distinct, n);
    let sweep: &[usize] = if cfg.quick {
        &[32, 128, 512]
    } else {
        &[64, 256, 1024]
    };
    let mut rows = String::new();
    for (i, &batch) in sweep.iter().enumerate() {
        let server = spawn_server(&g, engine_cfg(cache_bytes, AdmissionPolicy::Lru));
        let mut client = NetClient::connect(server.addr()).expect("connect");
        let (cold_answers, _, cold_ms) = replay_tcp(&mut client, &queries, batch);
        assert_same_answers(
            &format!("net: TCP cold replay (batch {batch}) vs run_trials"),
            &cold_answers,
            ref_cold,
        );
        let (warm_answers, metrics, warm_ms) = replay_tcp(&mut client, &queries, batch);
        assert_same_answers(
            &format!("net: TCP warm replay (batch {batch}) vs run_trials"),
            &warm_answers,
            ref_warm,
        );
        assert_eq!(
            metrics.cache_misses as usize, distinct,
            "net: warm replay (batch {batch}) must be all hits"
        );
        drop(client);
        server.shutdown();
        let qps = |ms: f64| count as f64 / (ms / 1e3);
        rows.push_str(&format!(
            "    {{\"batch\": {batch}, \"cold\": {{\"elapsed_ms\": {}, \"qps\": {}}}, \"warm\": {{\"elapsed_ms\": {}, \"qps\": {}}}, \"warm_over_cold_speedup\": {}, \"warm_hit_rate\": {}}}{}\n",
            fms(cold_ms),
            fms(qps(cold_ms)),
            fms(warm_ms),
            fms(qps(warm_ms)),
            fms(cold_ms / warm_ms),
            fms(metrics.cache_hits as f64 / (metrics.cache_hits + metrics.cache_misses) as f64),
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }

    // --- admission policies under a binding cache ------------------------
    // A cache that holds ~30% of the working set: strict LRU lets the
    // zipf tail's one-shot targets churn the head's rows; the segmented
    // policy keeps re-referenced rows in the protected tier.
    let tight_bytes = (distinct * n * 2 * 3 / 10).max(4 * n * 2);
    let batch = sweep[sweep.len() / 2];
    let mut policy_answers: Vec<Vec<PairStats>> = Vec::new();
    let mut policy_rates = Vec::new();
    for admission in [AdmissionPolicy::Lru, AdmissionPolicy::Segmented] {
        let server = spawn_server(&g, engine_cfg(tight_bytes, admission));
        let mut client = NetClient::connect(server.addr()).expect("connect");
        let (a1, _, _) = replay_tcp(&mut client, &queries, batch);
        let (mut a2, metrics, _) = replay_tcp(&mut client, &queries, batch);
        drop(client);
        server.shutdown();
        let mut answers = a1;
        answers.append(&mut a2);
        assert_same_answers(
            &format!("net: {} replay vs run_trials", admission.label()),
            &answers,
            &expected,
        );
        policy_rates
            .push(metrics.cache_hits as f64 / (metrics.cache_hits + metrics.cache_misses) as f64);
        policy_answers.push(answers);
    }
    assert_same_answers(
        "net: segmented vs lru admission answers",
        &policy_answers[1],
        &policy_answers[0],
    );

    // --- render ----------------------------------------------------------
    let mut out = bench_header("nav-bench-net/v1", cfg);
    out.push_str(&format!(
        "  \"protocol\": {{\"version\": {}, \"header_bytes\": {}, \"transport\": \"tcp-loopback\"}},\n",
        nav_net::frame::VERSION,
        nav_net::frame::HEADER_LEN
    ));
    out.push_str(&graph_json("gnp", &g));
    out.push_str(&format!(
        "  \"workload\": {{\"queries\": {count}, \"trials_per_query\": {trials}, \"zipf_theta\": {}, \"hot_targets\": {hot}, \"distinct_targets\": {distinct}, \"scheme\": \"uniform\", \"cache_bytes\": {cache_bytes}}},\n",
        zipf.theta
    ));
    out.push_str("  \"rows\": [\n");
    out.push_str(&rows);
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"admission\": {{\"cache_bytes\": {tight_bytes}, \"batch\": {batch}, \"lru_hit_rate\": {}, \"segmented_hit_rate\": {}, \"bit_identical_across_policies\": true}},\n",
        fms(policy_rates[0]),
        fms(policy_rates[1])
    ));
    out.push_str("  \"bit_identical_to_run_trials\": true\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_net_bench_renders_valid_schema() {
        let cfg = ExpConfig {
            quick: true,
            seed: 6,
            threads: 2,
            ..ExpConfig::default()
        };
        let json = render_net_bench(&cfg);
        for key in [
            "\"schema\": \"nav-bench-net/v1\"",
            "\"mode\": \"quick\"",
            "\"host\":",
            "\"protocol\":",
            "\"rows\": [",
            "\"warm_hit_rate\":",
            "\"admission\":",
            "\"segmented_hit_rate\":",
            "\"bit_identical_across_policies\": true",
            "\"bit_identical_to_run_trials\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
