//! The one trial executor, behind [`crate::trial::run_trials`] and the
//! serving engine: validate the queries, get each distinct target's exact
//! row from a [`RowSource`], bind routers to the rows, fan the queries out
//! to the workers and aggregate their trials.
//!
//! Targets run in **waves** of `max(budget_bytes / 2n, lanes·threads)`,
//! in first-appearance order — the `u16` rows the budget pays for, and
//! never fewer than one MS-BFS pass per worker — so the rows a batch
//! holds beyond its source stay bounded however many targets it has.
//! Query `i` draws from the RNG of index `base + i`, so neither the waves
//! nor the workers' chunks change an answer.

use crate::faulty::{FaultConfig, FaultySampler};
use crate::routing::{default_step_cap, GreedyRouter};
use crate::sampler::{ContactSampler, SamplerStats};
use crate::trial::{aggregate_pairs_with, PairJob, PairStats};
use nav_graph::distance::DistRowBuf;
use nav_graph::msbfs::{batched_compact_rows_w, LaneWidth};
use nav_graph::{Graph, GraphError, NodeId};
use nav_par::rng::task_rng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// One routing query: estimate greedy-routing behaviour from `s` to `t`
/// over `trials` independent long-range draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// Source node.
    pub s: NodeId,
    /// Target node.
    pub t: NodeId,
    /// Independent routing trials to aggregate for this query.
    pub trials: usize,
}

/// Where the executor gets exact distance rows.
pub trait RowSource {
    /// The rows of one wave's sorted, distinct `targets`, each `true`
    /// when the source already held it. The default holds none: it
    /// computes every row, `width.lanes()` per MS-BFS pass on `threads`
    /// workers, for one wave's use.
    fn rows(
        &mut self,
        g: &Graph,
        targets: &[NodeId],
        threads: usize,
        width: LaneWidth,
    ) -> Vec<(Arc<DistRowBuf>, bool)> {
        let rows = batched_compact_rows_w(g, targets, threads, width);
        rows.into_iter().map(|row| (Arc::new(row), false)).collect()
    }

    /// Called once the queries are validated and their targets numbered
    /// (a hook for timing the stages).
    fn admitted(&mut self) {}

    /// Called as each wave's trials end.
    fn answered(&mut self) {}
}

/// The source that holds no rows.
pub struct NoCache;

impl RowSource for NoCache {}

/// One query's result.
#[derive(Clone, Debug, Default)]
pub struct QueryOutcome {
    /// The aggregated trials.
    pub stats: PairStats,
    /// Contacts the drop coin suppressed plus links to down nodes.
    pub dropped: u64,
    /// Hops rerouted around down neighbours.
    pub rerouted: u64,
    /// `true` when the source already held the target's row.
    pub cache_hit: bool,
    /// Wall time of the trials that ran the query, in milliseconds, for
    /// queries [`Waves::traced`] selects.
    pub trials_ms: Option<f64>,
}

/// What [`Waves::run`] returns.
#[derive(Debug, Default)]
pub struct WaveRun {
    /// Per-query outcomes, in query order.
    pub outcomes: Vec<QueryOutcome>,
    /// Counters summed over every worker's sampler.
    pub sampler: SamplerStats,
    /// Distinct targets whose rows the source already held.
    pub warm: usize,
    /// Distinct targets whose rows were computed.
    pub cold: usize,
}

/// The fixed inputs of a trial run.
pub struct Waves<'a> {
    /// The graph.
    pub g: &'a Graph,
    /// Master seed: query `i` draws from `task_rng(seed, base + i)`.
    pub seed: u64,
    /// Worker threads (`1` = inline).
    pub threads: usize,
    /// MS-BFS word-block width of the row fills.
    pub width: LaneWidth,
    /// Bytes of `u16` rows one wave may hold (at least `lanes·threads`
    /// rows).
    pub budget_bytes: usize,
    /// Faults: every sampler draws the link-drop coin, and query `i`
    /// routes under the churn epoch of index `base + i`.
    pub fault: FaultConfig,
    /// One sampler per work unit (wrapped in the drop coin).
    pub new_sampler: &'a (dyn Fn() -> Box<dyn ContactSampler + 'a> + Sync),
    /// The RNG indices whose trials are timed.
    pub traced: &'a (dyn Fn(u64) -> bool + Sync),
}

/// Queries per work unit under a sampler that does not run lockstep.
const PAIRS_PER_UNIT: usize = 8;

impl Waves<'_> {
    /// Answers `queries`, query `i` on RNG index `base + i`. Errors on an
    /// out-of-range endpoint before touching `rows`.
    pub fn run<R: RowSource>(
        &self,
        queries: &[Query],
        base: u64,
        rows: &mut R,
    ) -> Result<WaveRun, GraphError> {
        let mut seen = HashSet::with_capacity(queries.len());
        let mut order = Vec::new();
        for q in queries {
            self.g.check_node(q.s)?;
            self.g.check_node(q.t)?;
            if seen.insert(q.t) {
                order.push(q.t);
            }
        }
        rows.admitted();
        let lanes = self.width.lanes().saturating_mul(self.threads.max(1));
        let per_wave = (self.budget_bytes / (2 * self.g.num_nodes()).max(1)).max(lanes);
        let lockstep = (self.new_sampler)().wants_lockstep();
        let mut run = WaveRun {
            outcomes: vec![QueryOutcome::default(); queries.len()],
            ..WaveRun::default()
        };
        // Warm targets take wave slots too. Only rows the source held when
        // the run began can be warm, and the engine's source (the budget
        // is its capacity) holds at most `budget_bytes / 2n`, so that
        // costs at most one wave.
        for wave in order.chunks(per_wave) {
            let mut targets = wave.to_vec();
            targets.sort_unstable();
            // `wave[k]`: the row of `targets[k]`, and whether it was warm.
            let wave = rows.rows(self.g, &targets, self.threads, self.width);
            let warm = wave.iter().filter(|row| row.1).count();
            run.warm += warm;
            run.cold += targets.len() - warm;
            let row_of = |t| &wave[targets.binary_search(&t).expect("target in wave")];
            let items: Vec<usize> = (0..queries.len())
                .filter(|&i| targets.binary_search(&queries[i].t).is_ok())
                .collect();
            // Under a lockstep sampler each worker gets one contiguous
            // chunk (one sampler sharing MS-BFS passes across it);
            // otherwise small units balance the workers.
            let per_unit = if lockstep {
                items.len().div_ceil(self.threads.max(1)).max(1)
            } else {
                PAIRS_PER_UNIT
            };
            let units: Vec<&[usize]> = items.chunks(per_unit).collect();
            let mut out = vec![(Vec::new(), SamplerStats::default()); units.len()];
            // One unit per cell, so a handful of lockstep chunks still
            // spreads across the workers.
            nav_par::parallel_chunks_mut(&mut out, 1, self.threads, |u, cell| {
                cell[0] = self.unit(queries, base, units[u], row_of);
            });
            for (outcomes, stats) in out {
                run.sampler.merge(&stats);
                for (i, outcome) in outcomes {
                    run.outcomes[i] = outcome;
                }
            }
            rows.answered();
        }
        Ok(run)
    }

    /// Answers the queries `items` through one sampler: together when it
    /// runs lockstep, otherwise one at a time, so that a traced query's
    /// timing is its own.
    fn unit<'r>(
        &self,
        queries: &[Query],
        base: u64,
        items: &[usize],
        row_of: impl Fn(NodeId) -> &'r (Arc<DistRowBuf>, bool),
    ) -> (Vec<(usize, QueryOutcome)>, SamplerStats) {
        let routers: Vec<GreedyRouter<'_>> = items
            .iter()
            .map(|&i| {
                let t = queries[i].t;
                let router = GreedyRouter::from_row(self.g, t, row_of(t).0.view())
                    .expect("endpoints validated at admission");
                // The churn epoch is a pure function of the RNG index, so
                // a retried query routes under the same down-node set.
                match self.fault.plan {
                    Some(plan) => router.with_fault(plan, plan.epoch_of(base + i as u64)),
                    None => router,
                }
            })
            .collect();
        let mut rngs: Vec<_> = items
            .iter()
            .map(|&i| task_rng(self.seed, base + i as u64))
            .collect();
        let mut jobs: Vec<PairJob<'_, '_>> = items
            .iter()
            .zip(&routers)
            .zip(&mut rngs)
            .map(|((&i, router), rng)| PairJob {
                router,
                s: queries[i].s,
                trials: queries[i].trials,
                rng,
            })
            .collect();
        // At `drop_prob == 0` the coin is never drawn, so the wrapper
        // leaves the RNG stream untouched.
        let mut sampler = FaultySampler::new((self.new_sampler)(), self.fault.drop_prob);
        let group = if sampler.wants_lockstep() {
            jobs.len().max(1)
        } else {
            1
        };
        let traced = |&i: &usize| (self.traced)(base + i as u64);
        let mut out = Vec::with_capacity(items.len());
        let groups = jobs.chunks_mut(group).zip(routers.chunks(group));
        for ((jobs, routers), items) in groups.zip(items.chunks(group)) {
            let clock = items.iter().any(traced).then(Instant::now);
            let stats = aggregate_pairs_with(jobs, &mut sampler, default_step_cap(self.g));
            let trials_ms = clock.map(|c| c.elapsed().as_secs_f64() * 1e3);
            for (((stats, coin_drops), router), &i) in stats.into_iter().zip(routers).zip(items) {
                let (churn_drops, rerouted) = router.fault_counts();
                let outcome = QueryOutcome {
                    stats,
                    dropped: coin_drops + churn_drops,
                    rerouted,
                    cache_hit: row_of(queries[i].t).1,
                    trials_ms: trials_ms.filter(|_| traced(&i)),
                };
                out.push((i, outcome));
            }
        }
        (out, sampler.stats())
    }
}
