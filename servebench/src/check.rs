//! Answer checking: every served batch is recomputed through `nav-core`
//! and compared bit for bit.
//!
//! The recomputation is `nav_core::trial::run_trials`'s per-pair body —
//! an exact row from a `TargetDistanceCache`, the trial RNG
//! `task_rng(seed, index)`, the workload's sampler and fault knobs, and
//! `aggregate_pair_with` — run at each query's own RNG index, so batches
//! from any connection can be checked without replaying the stream from
//! zero. Where the workload has no churn plan, a literal `run_trials` over
//! the stream's prefix pins that recomputation to `run_trials` itself.

use crate::serve::{digest, Record};
use crate::spec::{Check, Inputs, CACHE_BYTES, ENGINE_THREADS};
use nav_core::faulty::FaultySampler;
use nav_core::oracle::TargetDistanceCache;
use nav_core::routing::default_step_cap;
use nav_core::sampler::sampler_for_w;
use nav_core::scheme::AugmentationScheme;
use nav_core::trial::{aggregate_pair_with, run_trials, PairStats, TrialConfig};
use nav_engine::Query;
use nav_graph::msbfs::LaneWidth;
use nav_graph::{Graph, NodeId};
use nav_par::rng::task_rng;
use nav_par::SplitMix64;

/// Queries of the stream's prefix that a literal `run_trials` re-checks
/// (on sampled workloads: one batch).
const PREFIX: usize = 2048;

/// How much a run checked.
pub struct Checked {
    pub queries: u64,
    pub method: &'static str,
    pub run_trials_prefix: usize,
}

/// Checks `records` (sorted by RNG base or not); `Err` names the first
/// batch whose answers differ.
pub fn verify<S: AugmentationScheme + Sync + ?Sized>(
    inputs: &Inputs,
    g: &Graph,
    scheme: &S,
    records: &[Record],
) -> Result<Checked, String> {
    let mut checked = match inputs.def.check {
        Check::Full => verify_full(inputs, g, scheme, records)?,
        Check::Sample(k) => verify_sample(inputs, g, scheme, records, k)?,
    };
    if inputs.fault().plan.is_none() {
        checked.run_trials_prefix = verify_prefix(inputs, g, scheme, records)?;
    }
    Ok(checked)
}

fn recompute<S: AugmentationScheme + ?Sized>(
    inputs: &Inputs,
    g: &Graph,
    scheme: &S,
    oracle: &TargetDistanceCache<'_>,
    index: u64,
    q: Query,
) -> PairStats {
    let mut router = oracle.router(q.t).expect("target row built");
    let fault = inputs.fault();
    if let Some(plan) = fault.plan {
        router = router.with_fault(plan, plan.epoch_of(index));
    }
    let mut rng = task_rng(inputs.engine_seed, index);
    let inner = sampler_for_w(scheme, g, inputs.def.sampler, CACHE_BYTES, LaneWidth::W64);
    let cap = default_step_cap(g);
    if fault.drop_prob > 0.0 {
        let mut s = FaultySampler::new(inner, fault.drop_prob);
        aggregate_pair_with(&router, &mut s, q.s, &mut rng, q.trials, cap)
    } else {
        let mut s = inner;
        aggregate_pair_with(&router, s.as_mut(), q.s, &mut rng, q.trials, cap)
    }
}

fn mismatch(r: &Record) -> String {
    format!(
        "answers of the batch at RNG index {} (len {}) differ from nav-core",
        r.base, r.len
    )
}

fn verify_full<S: AugmentationScheme + Sync + ?Sized>(
    inputs: &Inputs,
    g: &Graph,
    scheme: &S,
    records: &[Record],
) -> Result<Checked, String> {
    let targets: Vec<NodeId> = inputs.targets();
    let oracle = TargetDistanceCache::build_width(g, targets, ENGINE_THREADS, LaneWidth::W64)
        .expect("targets in range");
    let want: Vec<u64> = nav_par::parallel_map(records.len(), ENGINE_THREADS, |i| {
        let r = &records[i];
        let answers: Vec<PairStats> = (r.base..r.base + r.len as u64)
            .map(|idx| recompute(inputs, g, scheme, &oracle, idx, inputs.query(idx)))
            .collect();
        digest(&answers)
    });
    for (r, w) in records.iter().zip(want) {
        if r.hash != w {
            return Err(mismatch(r));
        }
    }
    Ok(Checked {
        queries: records.iter().map(|r| r.len as u64).sum(),
        method: "full",
        run_trials_prefix: 0,
    })
}

fn verify_sample<S: AugmentationScheme + Sync + ?Sized>(
    inputs: &Inputs,
    g: &Graph,
    scheme: &S,
    records: &[Record],
    k: usize,
) -> Result<Checked, String> {
    // (record, offset) of every served query, then a seeded draw.
    let all: Vec<(usize, usize)> = records
        .iter()
        .enumerate()
        .flat_map(|(i, r)| (0..r.len).map(move |j| (i, j)))
        .collect();
    let mut mix = SplitMix64::new(inputs.engine_seed ^ 0xc4ec);
    let picks: Vec<(usize, usize)> = (0..k.min(all.len()))
        .map(|_| all[(mix.next() % all.len() as u64) as usize])
        .collect();
    let index = |(i, j): (usize, usize)| records[i].base + j as u64;
    let targets = picks.iter().map(|&p| inputs.query(index(p)).t);
    let oracle = TargetDistanceCache::build_width(g, targets, ENGINE_THREADS, LaneWidth::W64)
        .expect("targets in range");
    let want: Vec<PairStats> = nav_par::parallel_map(picks.len(), ENGINE_THREADS, |p| {
        let idx = index(picks[p]);
        recompute(inputs, g, scheme, &oracle, idx, inputs.query(idx))
    });
    for (&(i, j), w) in picks.iter().zip(&want) {
        let served = &records[i]
            .answers
            .as_ref()
            .expect("sampled records keep answers")[j];
        if !served.bits_eq(w) {
            return Err(format!(
                "answer at RNG index {} differs from nav-core",
                index((i, j))
            ));
        }
    }
    Ok(Checked {
        queries: picks.len() as u64,
        method: "sample",
        run_trials_prefix: 0,
    })
}

/// Literal `run_trials` over the stream's first batches; returns the
/// number of queries it re-checked.
fn verify_prefix<S: AugmentationScheme + Sync + ?Sized>(
    inputs: &Inputs,
    g: &Graph,
    scheme: &S,
    records: &[Record],
) -> Result<usize, String> {
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by_key(|r| r.base);
    sorted.dedup_by_key(|r| r.base);
    let limit = match inputs.def.check {
        Check::Full => PREFIX,
        Check::Sample(_) => inputs.def.batch,
    };
    let mut covered = 0usize;
    let mut prefix = Vec::new();
    for r in sorted {
        if r.base != covered as u64 || covered + r.len > limit {
            break;
        }
        covered += r.len;
        prefix.push(r);
    }
    if prefix.is_empty() {
        return Ok(0);
    }
    let pairs: Vec<(NodeId, NodeId)> = (0..covered as u64)
        .map(|i| {
            let q = inputs.query(i);
            (q.s, q.t)
        })
        .collect();
    let cfg = TrialConfig {
        trials_per_pair: inputs.def.trials,
        seed: inputs.engine_seed,
        threads: ENGINE_THREADS,
        sampler: inputs.def.sampler,
        width: LaneWidth::W64,
    };
    let want = run_trials(g, scheme, &pairs, &cfg).expect("stream endpoints are in range");
    for r in prefix {
        let lo = r.base as usize;
        if digest(&want.pairs[lo..lo + r.len]) != r.hash {
            return Err(format!("{} (run_trials prefix)", mismatch(r)));
        }
    }
    Ok(covered)
}
