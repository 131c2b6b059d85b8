//! The `BENCH_fault.json` emitter (`nav-engine chaos-bench`).
//!
//! Measures what failures cost: the serving engine replaying a zipfian
//! stream under the two fault dimensions of [`nav_core::faulty`] —
//! i.i.d. **link drops** (each long-range lookup fails with probability
//! `p`, routing falls back to the local greedy hop) and **node churn**
//! (a seeded [`FailurePlan`] takes 5% of nodes down per epoch, routing
//! falls back to the best *live* local hop or fails when stuck). Per
//! graph family the emitter renders a success/stretch-vs-`p` curve for
//! `p ∈ {0, 0.1, 0.25, 0.5}`, once with drops alone and once with churn
//! layered on top, plus the warm-serving throughput cost of churn.
//!
//! Like the other emitters, correctness gates come first, asserted
//! before a single row is rendered:
//!
//! * pure link drops never fail a walk on a connected graph (the local
//!   fallback always makes progress), so drop-only success is exactly
//!   1.0 — not approximately;
//! * degradation is **monotone** in `p` (stretch non-decreasing,
//!   churned success non-increasing) within a declared statistical
//!   tolerance [`MONOTONE_EPS`];
//! * warm churned throughput stays within the declared budget
//!   [`MIN_WARM_RATIO`] of the fault-free warm pass.

use crate::measure::{bench_header, fms, replay, working_set_bytes, zipf_stream};
use crate::workloads::Workload;
use crate::ExpConfig;
use nav_core::faulty::{FailurePlan, FaultConfig};
use nav_core::sampler::SamplerMode;
use nav_core::trial::PairStats;
use nav_core::uniform::UniformScheme;
use nav_engine::workload::ZipfSpec;
use nav_engine::{Engine, EngineConfig, QueryBatch};
use nav_graph::Graph;

/// The drop-probability sweep.
pub const DROP_GRID: [f64; 4] = [0.0, 0.1, 0.25, 0.5];

/// Churn epochs the failure plan cycles through.
const CHURN_EPOCHS: u32 = 3;

/// Statistical tolerance for the monotone-degradation gates: adjacent
/// grid points may disagree by this much before the emitter panics
/// (success rates and stretch are sample means over tens of thousands
/// of walks, not exact quantities).
pub const MONOTONE_EPS: f64 = 0.02;

/// The declared throughput budget: the warm churned replay must sustain
/// at least this fraction of the fault-free warm replay's queries/s.
/// Both warm passes are pure row-cache hits — rows are exact full-graph
/// distances, so an epoch flip invalidates none of them — and churn's
/// remaining cost is the per-hop liveness hash over every neighbour plus
/// the drop coins and the longer rerouted walks. The gate catches a
/// liveness check gone quadratic, or rows refilled on every flip.
pub const MIN_WARM_RATIO: f64 = 0.4;

/// One measured point of the degradation curve.
struct FaultRow {
    drop_p: f64,
    success: f64,
    stretch: f64,
    failures: usize,
    dropped_links: u64,
    rerouted_hops: u64,
    epoch_flips: u64,
    elapsed_ms: f64,
}

/// A uniform-scheme engine over `g`.
fn engine(g: &Graph, cfg: EngineConfig) -> Engine {
    Engine::new(g.clone(), Box::new(UniformScheme), cfg)
}

/// Mean stretch (`mean_steps / dist`) over pairs with at least one
/// successful trial out of `trials`; failed trials never contribute
/// steps (`mean_steps` averages successes only), and a pair with no
/// success at all has nothing to measure.
fn mean_stretch(answers: &[PairStats], trials: usize) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for a in answers {
        if a.dist > 0 && a.failures < trials {
            sum += a.mean_steps / f64::from(a.dist);
            count += 1;
        }
    }
    sum / count.max(1) as f64
}

/// Runs one grid point: one engine replays the stream (`trials` per
/// query) from RNG base 0 with the fault under test in `cfg.fault`.
fn measure(g: &Graph, batches: &[QueryBatch], trials: usize, cfg: EngineConfig) -> FaultRow {
    let mut single = engine(g, cfg);
    let (answers, _, elapsed_ms) = replay(&mut single, batches, 0, SamplerMode::Scalar);
    let m = single.metrics();
    let failures: usize = answers.iter().map(|a| a.failures).sum();
    FaultRow {
        drop_p: cfg.fault.drop_prob,
        success: 1.0 - failures as f64 / (answers.len() * trials).max(1) as f64,
        stretch: mean_stretch(&answers, trials),
        failures,
        dropped_links: m.dropped_links,
        rerouted_hops: m.rerouted_hops,
        epoch_flips: m.epoch_flips,
        elapsed_ms,
    }
}

fn render_rows(rows: &[FaultRow], queries: usize) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| format!(
            "        {{\"drop_p\": {}, \"success_rate\": {}, \"mean_stretch\": {}, \"failures\": {}, \"dropped_links\": {}, \"rerouted_hops\": {}, \"epoch_flips\": {}, \"elapsed_ms\": {}, \"qps\": {}}}",
            r.drop_p,
            fms(r.success),
            fms(r.stretch),
            r.failures,
            r.dropped_links,
            r.rerouted_hops,
            r.epoch_flips,
            fms(r.elapsed_ms),
            fms(queries as f64 / (r.elapsed_ms / 1e3)),
        ))
        .collect();
    rows.join(",\n") + "\n"
}

/// Runs the fault benchmark and renders `BENCH_fault.json`.
///
/// # Panics
/// Panics if a drop-only walk fails on a connected graph, if degradation
/// is not monotone in `p` (within [`MONOTONE_EPS`]), or if warm churned
/// throughput falls below [`MIN_WARM_RATIO`] of the fault-free warm
/// pass — the JSON is only produced for curves worth reading.
pub fn render_fault_bench(cfg: &ExpConfig) -> String {
    let (n_req, count, hot, batch) = if cfg.quick {
        (400, 2_000, 64, 256)
    } else {
        (4096, 8_000, 512, 512)
    };
    let trials = 4usize;
    // Families where long links carry real distance (large diameters):
    // link drops visibly stretch walks, churn visibly strands them.
    let families = [
        (Workload::Grid2d, "grid2d"),
        (Workload::RandomTree, "random-tree"),
    ];

    let mut family_blocks = String::new();
    let mut churn_overhead = String::new();
    for (fi, (family, name)) in families.iter().enumerate() {
        let g = family.build(n_req, cfg.seed_for("fault-graph", n_req));
        let n = g.num_nodes();
        let zipf = ZipfSpec {
            count,
            theta: 1.1,
            seed: cfg.seed_for("fault-zipf", n),
            hot: hot.min(n),
        };
        let (_, batches, distinct) = zipf_stream(n, &zipf, trials, batch);
        let cache_bytes = working_set_bytes(distinct, n);
        let plan = FailurePlan::standard(cfg.seed_for("fault-plan", n), CHURN_EPOCHS);
        let base_cfg = EngineConfig {
            seed: cfg.seed_for("fault-trials", n),
            threads: cfg.threads,
            cache_bytes,
            ..EngineConfig::default()
        };

        // One degradation curve: a fresh engine per drop probability.
        let curve = |plan: Option<FailurePlan>| -> Vec<FaultRow> {
            DROP_GRID
                .iter()
                .map(|&drop_prob| {
                    let fault = FaultConfig { drop_prob, plan };
                    measure(&g, &batches, trials, EngineConfig { fault, ..base_cfg })
                })
                .collect()
        };

        // --- drops alone: success is structurally perfect, stretch grows --
        let drop_rows = curve(None);
        for r in &drop_rows {
            assert_eq!(
                r.failures, 0,
                "fault {name}: drop-only routing failed {} walks — the local fallback must always make progress on a connected graph",
                r.failures
            );
            assert!(
                (r.drop_p > 0.0) == (r.dropped_links > 0),
                "fault {name} p={}: dropped_links={} — the drop coin fired iff p > 0",
                r.drop_p,
                r.dropped_links
            );
        }
        for w in drop_rows.windows(2) {
            assert!(
                w[1].stretch >= w[0].stretch - MONOTONE_EPS,
                "fault {name}: drop stretch not monotone ({} at p={} vs {} at p={})",
                w[1].stretch,
                w[1].drop_p,
                w[0].stretch,
                w[0].drop_p
            );
            assert!(
                w[1].dropped_links >= w[0].dropped_links,
                "fault {name}: dropped_links not monotone in p"
            );
        }

        // --- churn layered on top: success degrades, epochs flip ----------
        let churn_rows = curve(Some(plan));
        for r in &churn_rows {
            assert!(
                r.epoch_flips >= 1,
                "fault {name} p={}: the query stream crossed no churn epoch",
                r.drop_p
            );
        }
        assert!(
            churn_rows[0].failures > 0,
            "fault {name}: churn stranded no walk — the down fraction should bite at these sizes"
        );
        assert!(
            churn_rows[0].rerouted_hops > 0,
            "fault {name}: churn rerouted no hop"
        );
        for w in churn_rows.windows(2) {
            assert!(
                w[1].success <= w[0].success + MONOTONE_EPS,
                "fault {name}: churned success not monotone ({} at p={} vs {} at p={})",
                w[1].success,
                w[1].drop_p,
                w[0].success,
                w[0].drop_p
            );
        }

        family_blocks.push_str(&format!(
            "    {{\n      \"family\": \"{name}\", \"n\": {n}, \"m\": {}, \"queries\": {count}, \"trials_per_query\": {trials}, \"distinct_targets\": {distinct},\n      \"drop_only\": [\n{}      ],\n      \"with_churn\": [\n{}      ],\n      \"gates\": {{\"drop_success_exact\": 1.0, \"stretch_nondecreasing\": true, \"churn_success_nonincreasing\": true}}\n    }}{}\n",
            g.num_edges(),
            render_rows(&drop_rows, count),
            render_rows(&churn_rows, count),
            if fi + 1 == families.len() { "" } else { "," }
        ));

        // --- warm throughput under churn, first family only ---------------
        // One cold pass each, then three rounds that alternate the two
        // warm passes, keeping each one's best (alternating exposes both
        // to the same background load; min ms damps scheduler noise):
        // fault-free baseline vs churn + drops at p = 0.25. Pass `k`
        // continues the stream at RNG base `k · count`, so successive
        // passes walk through the churn plan's epochs.
        if fi == 0 {
            let churn_cfg = EngineConfig {
                fault: FaultConfig {
                    drop_prob: 0.25,
                    plan: Some(plan),
                },
                ..base_cfg
            };
            let mut base = engine(&g, base_cfg);
            let mut churned = engine(&g, churn_cfg);
            let pass_ms = |e: &mut Engine, k: u64| {
                replay(e, &batches, k * count as u64, SamplerMode::Scalar).2
            };
            pass_ms(&mut base, 0);
            pass_ms(&mut churned, 0);
            let (mut base_warm_ms, mut churn_warm_ms) = (f64::INFINITY, f64::INFINITY);
            for k in 1..=3 {
                base_warm_ms = base_warm_ms.min(pass_ms(&mut base, k));
                churn_warm_ms = churn_warm_ms.min(pass_ms(&mut churned, k));
            }
            let ratio = base_warm_ms / churn_warm_ms;
            assert!(
                ratio >= MIN_WARM_RATIO,
                "fault {name}: warm churned replay fell below the declared budget: {:.3}× the fault-free warm pass (budget {MIN_WARM_RATIO})",
                ratio
            );
            let qps = |ms: f64| count as f64 / (ms / 1e3);
            churn_overhead = format!(
                "  \"churn_overhead\": {{\"family\": \"{name}\", \"drop_p\": 0.25, \"faultfree_warm_qps\": {}, \"churned_warm_qps\": {}, \"ratio\": {}, \"declared_min_ratio\": {MIN_WARM_RATIO}, \"within_budget\": true}}\n",
                fms(qps(base_warm_ms)),
                fms(qps(churn_warm_ms)),
                fms(ratio),
            );
        }
    }

    // --- render ----------------------------------------------------------
    let mut out = bench_header("nav-bench-fault/v1", cfg);
    out.push_str(&format!(
        "  \"drop_grid\": [{}],\n",
        DROP_GRID.map(|p| p.to_string()).join(", ")
    ));
    out.push_str(&format!(
        "  \"churn\": {{\"epochs\": {CHURN_EPOCHS}, \"period\": 1024, \"down_frac\": 0.05}},\n"
    ));
    out.push_str(&format!("  \"monotone_eps\": {MONOTONE_EPS},\n"));
    out.push_str("  \"families\": [\n");
    out.push_str(&family_blocks);
    out.push_str("  ],\n");
    out.push_str(&churn_overhead);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fault_bench_renders_valid_schema_with_monotone_curves() {
        let cfg = ExpConfig {
            quick: true,
            seed: 6,
            threads: 2,
            ..ExpConfig::default()
        };
        let json = render_fault_bench(&cfg);
        for key in [
            "\"schema\": \"nav-bench-fault/v1\"",
            "\"mode\": \"quick\"",
            "\"host\":",
            "\"drop_grid\": [0, 0.1, 0.25, 0.5]",
            "\"family\": \"grid2d\"",
            "\"family\": \"random-tree\"",
            "\"drop_only\": [",
            "\"with_churn\": [",
            "\"success_rate\":",
            "\"mean_stretch\":",
            "\"epoch_flips\":",
            "\"churn_overhead\":",
            "\"within_budget\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
