//! Parallel Monte-Carlo trial running.
//!
//! Estimates `E(φ, s, t)` for a set of source/target pairs by repeated
//! greedy-routing trials with fresh long-range draws. [`run_trials`] runs
//! them through the wave executor ([`crate::wave`]), with no row cache:
//! one wave of `lanes·threads` distinct targets at a time, each target's
//! row computed once. Pair `i` draws from the RNG of `(seed, i)`, so
//! results are bit-identical across thread counts.

use crate::faulty::FaultConfig;
use crate::routing::GreedyRouter;
use crate::sampler::{sampler_for_w, ContactSampler, SamplerMode};
use crate::scheme::AugmentationScheme;
use crate::wave::{Query, Waves};
use nav_graph::msbfs::{batched_compact_rows_w, LaneWidth};
use nav_graph::{Graph, GraphError, NodeId, INFINITY};
use rand::{Rng, RngCore};
use std::sync::Arc;

/// Configuration for a trial run.
#[derive(Clone, Debug)]
pub struct TrialConfig {
    /// Independent routing trials per (s, t) pair.
    pub trials_per_pair: usize,
    /// Master seed; every derived stream is a pure function of it.
    pub seed: u64,
    /// Worker threads (1 = inline).
    pub threads: usize,
    /// The per-step contact-sampling backend each worker builds.
    /// [`SamplerMode::Scalar`] (the default) is bit-identical to the
    /// pre-sampler engine; [`SamplerMode::Batched`] serves ball draws
    /// from shared MS-BFS ball rows — same distributions, different RNG
    /// consumption, and bit-identical to a per-pair
    /// [`aggregate_pair_with`] on a fresh batched sampler.
    pub sampler: SamplerMode,
    /// MS-BFS word-block width for the target-distance oracle fills and
    /// the batched sampler backends: 64, 128 or 256 bit-lanes per pass.
    /// Distance and ball rows are exact at every width, so results in
    /// either sampler mode are bit-identical across widths.
    pub width: LaneWidth,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            trials_per_pair: 64,
            seed: 0x5eed,
            threads: nav_par::default_threads(),
            sampler: SamplerMode::Scalar,
            width: LaneWidth::W64,
        }
    }
}

/// Per-pair aggregated outcome.
#[derive(Clone, Debug, Default)]
pub struct PairStats {
    /// The source.
    pub s: NodeId,
    /// The target.
    pub t: NodeId,
    /// `dist_G(s, t)` (an unconditional lower bound on steps... and also
    /// an upper bound in expectation, since links only help).
    pub dist: u32,
    /// Mean steps across trials.
    pub mean_steps: f64,
    /// Sample standard deviation of steps.
    pub std_steps: f64,
    /// Maximum steps observed.
    pub max_steps: u32,
    /// Mean number of long links used per trial.
    pub mean_long_links: f64,
    /// Number of trials that failed to reach the target (0 on connected
    /// graphs).
    pub failures: usize,
}

impl PairStats {
    /// Exact equality, floats compared **bit for bit** — the comparison
    /// behind every "engine B reproduces engine A" determinism gate
    /// (perf baselines, the serving engine's contract, property tests).
    pub fn bits_eq(&self, other: &PairStats) -> bool {
        self.s == other.s
            && self.t == other.t
            && self.dist == other.dist
            && self.mean_steps.to_bits() == other.mean_steps.to_bits()
            && self.std_steps.to_bits() == other.std_steps.to_bits()
            && self.max_steps == other.max_steps
            && self.mean_long_links.to_bits() == other.mean_long_links.to_bits()
            && self.failures == other.failures
    }
}

/// The FNV-1a offset basis: [`digest_answers`]' state before any answer.
pub const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `answers` into the FNV-1a stream digest `h` (start from
/// [`DIGEST_BASIS`]), float fields by bit pattern — the identity
/// [`PairStats::bits_eq`] checks — so equal digests mean bit-identical
/// answer streams, up to a 2^-64 collision. Self-contained and stable
/// across platforms.
pub fn digest_answers(mut h: u64, answers: &[PairStats]) -> u64 {
    for a in answers {
        let ints = [a.s, a.t, a.dist, a.max_steps].map(u32::to_le_bytes);
        let failures = (a.failures as u64).to_le_bytes();
        let floats =
            [a.mean_steps, a.std_steps, a.mean_long_links].map(|v| v.to_bits().to_le_bytes());
        let bytes = ints.iter().flatten().chain(&failures);
        for &b in bytes.chain(floats.iter().flatten()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Result of a full trial run.
#[derive(Clone, Debug)]
pub struct TrialResult {
    /// Per-pair statistics, in input order.
    pub pairs: Vec<PairStats>,
}

impl TrialResult {
    /// Mean of per-pair means (the sweep statistic for exponent fits).
    pub fn grand_mean(&self) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        self.pairs.iter().map(|p| p.mean_steps).sum::<f64>() / self.pairs.len() as f64
    }

    /// Max of per-pair means — the empirical greedy-diameter estimate.
    pub fn max_pair_mean(&self) -> f64 {
        self.pairs.iter().map(|p| p.mean_steps).fold(0.0, f64::max)
    }

    /// Total failures across pairs.
    pub fn failures(&self) -> usize {
        self.pairs.iter().map(|p| p.failures).sum()
    }
}

/// Aggregates `trials` independent routing attempts from `s` through
/// `router` into a [`PairStats`]. This is *the* per-pair statistic
/// definition: the engine below and the perf baseline's legacy-engine
/// reproduction (`nav-bench`, `--bench-json`) both call it, so their
/// bit-identity comparison isolates exactly where the distance rows came
/// from.
pub fn aggregate_pair<S: AugmentationScheme + ?Sized>(
    router: &GreedyRouter<'_>,
    scheme: &S,
    s: NodeId,
    rng: &mut dyn RngCore,
    trials: usize,
    cap: u32,
) -> PairStats {
    let mut sampler = crate::sampler::ScalarSampler::new(scheme);
    aggregate_pair_with(router, &mut sampler, s, rng, trials, cap)
}

/// [`aggregate_pair`] over a caller-owned [`ContactSampler`]: the
/// one-pair case of [`aggregate_pairs_with`], and the per-query reference
/// every shared-sampler answer must reproduce bit for bit.
pub fn aggregate_pair_with<C: ContactSampler + ?Sized>(
    router: &GreedyRouter<'_>,
    sampler: &mut C,
    s: NodeId,
    rng: &mut dyn RngCore,
    trials: usize,
    cap: u32,
) -> PairStats {
    let mut job = [PairJob {
        router,
        s,
        trials,
        rng,
    }];
    let (stats, _) = aggregate_pairs_with(&mut job, sampler, cap)
        .pop()
        .expect("one pair in, one out");
    stats
}

/// One pair's share of an [`aggregate_pairs_with`] run: its router (bound
/// to the target), source, trial count and its own RNG.
pub struct PairJob<'a, 'g> {
    /// Router bound to the pair's target.
    pub router: &'a GreedyRouter<'g>,
    /// The source.
    pub s: NodeId,
    /// Independent routing trials.
    pub trials: usize,
    /// The pair's trial RNG; no other pair draws from it.
    pub rng: &'a mut dyn RngCore,
}

/// Per-pair running sums of one trial run.
#[derive(Clone, Copy, Default)]
struct Tally {
    sum: f64,
    sum_sq: f64,
    max_steps: u32,
    long_links: f64,
    failures: usize,
    /// Contacts the sampler's drop coin suppressed on this pair's walks
    /// (kept by the lockstep rounds, which interleave the pairs).
    dropped: u64,
}

impl Tally {
    fn record(&mut self, steps: u32, reached: bool, long: u32) {
        if !reached {
            self.failures += 1;
            return;
        }
        let st = steps as f64;
        self.sum += st;
        self.sum_sq += st * st;
        self.max_steps = self.max_steps.max(steps);
        self.long_links += long as f64;
    }

    fn finish(&self, job: &PairJob<'_, '_>) -> PairStats {
        let ok = (job.trials - self.failures).max(1) as f64;
        let mean = self.sum / ok;
        let var = (self.sum_sq / ok - mean * mean).max(0.0);
        PairStats {
            s: job.s,
            t: job.router.target(),
            dist: job.router.dist_to_target(job.s),
            mean_steps: mean,
            std_steps: var.sqrt(),
            max_steps: self.max_steps,
            mean_long_links: self.long_links / ok,
            failures: self.failures,
        }
    }
}

/// Runs every pair's trials through one shared sampler and returns, per
/// pair, its [`PairStats`] and the contacts the sampler's drop coin
/// suppressed on its walks ([`ContactSampler::dropped`]).
///
/// Samplers that ask for it ([`ContactSampler::wants_lockstep`]) get
/// **lockstep rounds**: every walk of every pair advances one hop per
/// round. A round's walks, in (pair, trial) order, are cut into
/// consecutive segments by [`ContactSampler::prepare`] — each segment's
/// state (ball rows) is built in one MS-BFS pass — and then draw in that
/// order. Each pair draws only from its own RNG, round by round in trial
/// order, so its answer is the same whichever pairs share the sampler or
/// where the segments fall: exactly [`aggregate_pair_with`] on a fresh
/// sampler. Other samplers run each pair's trials sequentially, which
/// keeps the scalar backend bit-identical to the pre-sampler engine.
pub fn aggregate_pairs_with<C: ContactSampler + ?Sized>(
    jobs: &mut [PairJob<'_, '_>],
    sampler: &mut C,
    cap: u32,
) -> Vec<(PairStats, u64)> {
    if sampler.wants_lockstep() {
        return lockstep(jobs, sampler, cap);
    }
    jobs.iter_mut()
        .map(|job| {
            let before = sampler.dropped();
            let mut tally = Tally::default();
            for _ in 0..job.trials {
                let out = job.router.route_with(sampler, job.s, job.rng, cap, false);
                tally.record(out.steps, out.reached, out.long_links_used);
            }
            (tally.finish(job), sampler.dropped() - before)
        })
        .collect()
}

/// The lockstep rounds of [`aggregate_pairs_with`].
fn lockstep<C: ContactSampler + ?Sized>(
    jobs: &mut [PairJob<'_, '_>],
    sampler: &mut C,
    cap: u32,
) -> Vec<(PairStats, u64)> {
    let Some(first) = jobs.first() else {
        return Vec::new();
    };
    let g = first.router.graph();
    let mut tallies = vec![Tally::default(); jobs.len()];
    #[derive(Clone)]
    struct Walk {
        pair: usize,
        u: NodeId,
        steps: u32,
        long: u32,
        stuck: bool,
    }
    let mut walks: Vec<Walk> = jobs
        .iter()
        .enumerate()
        .flat_map(|(pair, job)| {
            let walk = Walk {
                pair,
                u: job.s,
                steps: 0,
                long: 0,
                stuck: false,
            };
            std::iter::repeat_n(walk, job.trials)
        })
        .collect();
    // Running walks, in (pair, trial) order, and their current nodes.
    let mut running: Vec<usize> = (0..walks.len()).collect();
    let mut nodes: Vec<NodeId> = Vec::new();
    loop {
        running.retain(|&w| {
            let walk = &walks[w];
            let router = jobs[walk.pair].router;
            // The same stop conditions as `GreedyRouter::route_with`.
            !(walk.stuck
                || walk.u == router.target()
                || walk.steps >= cap
                || router.dist_to_target(walk.u) == INFINITY)
        });
        if running.is_empty() {
            break;
        }
        nodes.clear();
        nodes.extend(running.iter().map(|&w| walks[w].u));
        let mut at = 0;
        while at < running.len() {
            let len = sampler
                .prepare(g, &nodes[at..])
                .clamp(1, running.len() - at);
            for &w in &running[at..at + len] {
                let walk = &mut walks[w];
                let job = &mut jobs[walk.pair];
                let before = sampler.dropped();
                let contact = sampler.sample(g, walk.u, job.rng);
                tallies[walk.pair].dropped += sampler.dropped() - before;
                match job.router.step(walk.u, contact) {
                    Some((next, long)) => {
                        walk.long += long as u32;
                        walk.u = next;
                        walk.steps += 1;
                    }
                    None => walk.stuck = true,
                }
            }
            at += len;
        }
    }
    for walk in &walks {
        let reached = walk.u == jobs[walk.pair].router.target();
        tallies[walk.pair].record(walk.steps, reached, walk.long);
    }
    jobs.iter()
        .zip(tallies)
        .map(|(job, tally)| (tally.finish(job), tally.dropped))
        .collect()
}

/// Runs trials for explicit (s, t) pairs, pair `i` on the RNG of
/// `(seed, i)`.
pub fn run_trials<S: AugmentationScheme + ?Sized>(
    g: &Graph,
    scheme: &S,
    pairs: &[(NodeId, NodeId)],
    cfg: &TrialConfig,
) -> Result<TrialResult, GraphError> {
    let queries: Vec<Query> = pairs
        .iter()
        .map(|&(s, t)| Query {
            s,
            t,
            trials: cfg.trials_per_pair,
        })
        .collect();
    let new_sampler = || sampler_for_w(scheme, g, cfg.sampler, usize::MAX, cfg.width);
    // With no cache and no byte budget, each wave computes the rows of
    // `lanes·threads` distinct targets — one MS-BFS pass per worker — so
    // resident rows stay at `O(lanes·threads·n)` compact cells however
    // many targets the pairs have.
    let waves = Waves {
        g,
        seed: cfg.seed,
        threads: cfg.threads,
        width: cfg.width,
        budget_bytes: 0,
        fault: FaultConfig::default(),
        new_sampler: &new_sampler,
        traced: &|_| false,
    };
    let run = waves.run(&queries, 0, |targets| {
        let rows = batched_compact_rows_w(g, targets, cfg.threads, cfg.width);
        rows.into_iter().map(|row| (Arc::new(row), false)).collect()
    })?;
    Ok(TrialResult {
        pairs: run.outcomes.into_iter().map(|o| o.stats).collect(),
    })
}

/// Draws `count` random (s, t) pairs with `s ≠ t`.
pub fn random_pairs(g: &Graph, count: usize, rng: &mut impl Rng) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes() as NodeId;
    assert!(n >= 2, "need at least two nodes for pairs");
    (0..count)
        .map(|_| loop {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            if s != t {
                return (s, t);
            }
        })
        .collect()
}

/// The extremal pairs of the graph: both orientations of a double-sweep
/// diametral pair — the pairs that realise lower-bound behaviour on paths,
/// lollipops, combs, etc.
pub fn extremal_pairs(g: &Graph) -> Vec<(NodeId, NodeId)> {
    extremal_pairs_with_distance(g).0
}

/// [`extremal_pairs`] plus `dist(a, b)` — the double sweep already
/// computed it, so callers wanting the extremal distance (a diameter
/// proxy) need not re-run any BFS.
pub fn extremal_pairs_with_distance(g: &Graph) -> (Vec<(NodeId, NodeId)>, u32) {
    let (a, b, d) = nav_graph::distance::double_sweep(g, 0);
    (vec![(a, b), (b, a)], d)
}

/// A convenience runner: extremal pairs plus `extra_random` random pairs.
pub fn run_standard<S: AugmentationScheme + ?Sized>(
    g: &Graph,
    scheme: &S,
    extra_random: usize,
    cfg: &TrialConfig,
) -> Result<TrialResult, GraphError> {
    let mut pairs = extremal_pairs(g);
    let mut rng = nav_par::rng::seeded_rng(cfg.seed ^ 0xA5A5_5A5A);
    pairs.extend(random_pairs(g, extra_random, &mut rng));
    run_trials(g, scheme, &pairs, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::default_step_cap;
    use crate::uniform::{NoAugmentation, UniformScheme};
    use nav_graph::GraphBuilder;
    use nav_par::rng::seeded_rng;
    use nav_par::rng::task_rng;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn no_augmentation_mean_is_distance() {
        let g = path(30);
        let cfg = TrialConfig {
            trials_per_pair: 5,
            seed: 1,
            threads: 1,
            ..TrialConfig::default()
        };
        let r = run_trials(&g, &NoAugmentation, &[(0, 29), (5, 10)], &cfg).unwrap();
        assert_eq!(r.pairs[0].mean_steps, 29.0);
        assert_eq!(r.pairs[0].std_steps, 0.0);
        assert_eq!(r.pairs[0].dist, 29);
        assert_eq!(r.pairs[1].mean_steps, 5.0);
        assert_eq!(r.max_pair_mean(), 29.0);
        assert!((r.grand_mean() - 17.0).abs() < 1e-12);
        assert_eq!(r.failures(), 0);
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = path(64);
        let pairs: Vec<(NodeId, NodeId)> = (0..16).map(|i| (i, 63 - i)).collect();
        let base = TrialConfig {
            trials_per_pair: 20,
            seed: 77,
            threads: 1,
            ..TrialConfig::default()
        };
        let par = TrialConfig {
            threads: 8,
            ..base.clone()
        };
        let r1 = run_trials(&g, &UniformScheme, &pairs, &base).unwrap();
        let r8 = run_trials(&g, &UniformScheme, &pairs, &par).unwrap();
        for (a, b) in r1.pairs.iter().zip(&r8.pairs) {
            assert_eq!(a.mean_steps, b.mean_steps);
            assert_eq!(a.max_steps, b.max_steps);
        }
    }

    #[test]
    fn uniform_helps_on_long_path() {
        let g = path(400);
        let cfg = TrialConfig {
            trials_per_pair: 40,
            seed: 3,
            threads: 2,
            ..TrialConfig::default()
        };
        let r = run_trials(&g, &UniformScheme, &[(0, 399)], &cfg).unwrap();
        // E[steps] = O(√n·polylog-ish constant); must clearly beat 399.
        assert!(
            r.pairs[0].mean_steps < 250.0,
            "mean {}",
            r.pairs[0].mean_steps
        );
        assert!(r.pairs[0].mean_long_links >= 1.0);
    }

    #[test]
    fn random_pairs_distinct_endpoints() {
        let g = path(10);
        let mut rng = seeded_rng(5);
        let pairs = random_pairs(&g, 100, &mut rng);
        assert_eq!(pairs.len(), 100);
        assert!(pairs.iter().all(|&(s, t)| s != t && s < 10 && t < 10));
    }

    #[test]
    fn oracle_engine_matches_fresh_bfs_engine() {
        // The pre-oracle engine ran one fresh BFS per pair; the cached rows
        // must reproduce its outputs bit for bit.
        let g = path(96);
        let pairs: Vec<(NodeId, NodeId)> = vec![(0, 95), (95, 0), (3, 77), (12, 77), (50, 1)];
        let cfg = TrialConfig {
            trials_per_pair: 16,
            seed: 41,
            threads: 1,
            ..TrialConfig::default()
        };
        let cached = run_trials(&g, &UniformScheme, &pairs, &cfg).unwrap();
        let cap = default_step_cap(&g);
        for (idx, &(s, t)) in pairs.iter().enumerate() {
            let router = GreedyRouter::new(&g, t).unwrap();
            let mut rng = task_rng(cfg.seed, idx as u64);
            let mut steps: Vec<u32> = Vec::new();
            for _ in 0..cfg.trials_per_pair {
                steps.push(router.route(&UniformScheme, s, &mut rng, cap, false).steps);
            }
            let mean = steps.iter().map(|&x| x as f64).sum::<f64>() / steps.len() as f64;
            let p = &cached.pairs[idx];
            assert_eq!(p.mean_steps, mean, "pair {idx}");
            assert_eq!(p.max_steps, steps.iter().copied().max().unwrap());
            assert_eq!(p.dist, router.dist_to_target(s));
        }
    }

    #[test]
    fn scalar_mode_results_are_width_invariant() {
        // The oracle rows are exact at every word-block width and the
        // scalar sampler never touches MS-BFS state, so every statistic
        // must be bit-identical across widths (and across thread counts,
        // which regroup the widened target batches differently).
        let g = path(90);
        let pairs: Vec<(NodeId, NodeId)> = (0..80).map(|i| (i, 89 - (i % 30))).collect();
        let base = TrialConfig {
            trials_per_pair: 6,
            seed: 21,
            threads: 1,
            ..TrialConfig::default()
        };
        let reference = run_trials(&g, &UniformScheme, &pairs, &base).unwrap();
        for width in LaneWidth::ALL {
            for threads in [1usize, 3] {
                let cfg = TrialConfig {
                    width,
                    threads,
                    ..base.clone()
                };
                let r = run_trials(&g, &UniformScheme, &pairs, &cfg).unwrap();
                for (a, b) in reference.pairs.iter().zip(&r.pairs) {
                    assert!(a.bits_eq(b), "width {width} threads {threads}");
                }
            }
        }
        // More distinct targets (280) than one wave holds at every width
        // on one thread, and at 64 and 128 lanes on three: the oracle is
        // rebuilt per wave, and every pair must still answer like a fresh
        // scalar-BFS router with the pair's own RNG stream.
        let g = path(300);
        let pairs: Vec<(NodeId, NodeId)> = (0..280).map(|i| (i * 7 % 300, 299 - i)).collect();
        let reference = run_trials(&g, &UniformScheme, &pairs, &base).unwrap();
        let cap = default_step_cap(&g);
        for (idx, &(s, t)) in pairs.iter().enumerate().step_by(31) {
            let router = GreedyRouter::new(&g, t).unwrap();
            let mut rng = task_rng(base.seed, idx as u64);
            let fresh = aggregate_pair(&router, &UniformScheme, s, &mut rng, 6, cap);
            assert!(fresh.bits_eq(&reference.pairs[idx]), "pair {idx}");
        }
        // The wave rule, on the executor directly: with no byte budget a
        // wave fills `lanes·threads` targets in first-appearance order
        // (run_trials' waves), a budget of `k` rows widens the waves to
        // `max(k, lanes·threads)`, and one covering every row gives one
        // wave. The first 280 targets are all distinct. The last query
        // reuses the first target, whose wave closed long before: it is
        // answered in that wave, and the fill log does not change.
        let mut queries: Vec<Query> = pairs
            .iter()
            .map(|&(s, t)| Query { s, t, trials: 6 })
            .collect();
        queries.push(Query {
            s: 150,
            t: pairs[0].1,
            trials: 6,
        });
        let router = GreedyRouter::new(&g, pairs[0].1).unwrap();
        let mut rng = task_rng(base.seed, pairs.len() as u64);
        let reused = aggregate_pair(&router, &UniformScheme, 150, &mut rng, 6, cap);
        // The same queries with an out-of-range source on the last one.
        let mut invalid = queries.clone();
        invalid[pairs.len()].s = 300;
        let row_bytes = 2 * g.num_nodes();
        for width in LaneWidth::ALL {
            for threads in [1usize, 3] {
                let cfg = TrialConfig {
                    width,
                    threads,
                    ..base.clone()
                };
                let r = run_trials(&g, &UniformScheme, &pairs, &cfg).unwrap();
                assert_eq!(r.pairs.len(), pairs.len());
                for (a, b) in reference.pairs.iter().zip(&r.pairs) {
                    assert!(a.bits_eq(b), "multi-wave width {width} threads {threads}");
                }
                let pass = width.lanes() * threads;
                let new_sampler =
                    || sampler_for_w(&UniformScheme, &g, SamplerMode::Scalar, usize::MAX, width);
                for (budget_rows, per_wave) in [(0, pass), (100, pass.max(100)), (280, 280)] {
                    let waves = Waves {
                        g: &g,
                        seed: base.seed,
                        threads,
                        width,
                        budget_bytes: budget_rows * row_bytes,
                        fault: FaultConfig::default(),
                        new_sampler: &new_sampler,
                        traced: &|_| false,
                    };
                    let mut fills = Vec::new();
                    let run = waves
                        .run(&queries, 0, |targets| {
                            fills.push(targets.to_vec());
                            let rows = batched_compact_rows_w(&g, targets, threads, width);
                            rows.into_iter().map(|row| (Arc::new(row), false)).collect()
                        })
                        .unwrap();
                    let want: Vec<Vec<NodeId>> = pairs
                        .chunks(per_wave)
                        .map(|chunk| {
                            let mut targets: Vec<NodeId> = chunk.iter().map(|p| p.1).collect();
                            targets.sort_unstable();
                            targets
                        })
                        .collect();
                    let shape = format!("width {width} threads {threads} budget {budget_rows}");
                    assert_eq!(fills, want, "{shape}");
                    assert_eq!((run.cold, run.warm), (pairs.len(), 0), "{shape}");
                    for (a, b) in reference.pairs.iter().zip(&run.outcomes) {
                        assert!(a.bits_eq(&b.stats), "{shape}");
                    }
                    assert!(reused.bits_eq(&run.outcomes[pairs.len()].stats), "{shape}");
                    // Admission refuses the batch before the first fill.
                    let refused = waves.run(&invalid, 0, |_| panic!("filled before admission"));
                    assert!(refused.is_err(), "{shape}");
                }
            }
        }
    }

    #[test]
    fn shared_lockstep_sampler_answers_like_fresh_per_pair_samplers() {
        // One ball-row sampler shared by many pairs — at any byte budget
        // and lane width — answers each pair exactly as a fresh sampler
        // of its own would, while sharing MS-BFS passes across pairs.
        use crate::ball::{BallRowSampler, BallScheme};
        let g = path(90);
        let scheme = BallScheme::new(&g);
        let cap = default_step_cap(&g);
        let pairs: Vec<(NodeId, NodeId, usize)> = (0..12)
            .map(|i| (i * 7 % 90, 89 - i * 3, 3 + i as usize % 3))
            .collect();
        let routers: Vec<GreedyRouter<'_>> = pairs
            .iter()
            .map(|&(_, t, _)| GreedyRouter::new(&g, t).unwrap())
            .collect();
        let reference: Vec<PairStats> = pairs
            .iter()
            .zip(&routers)
            .enumerate()
            .map(|(i, (&(s, _, trials), router))| {
                let mut sampler = BallRowSampler::new(scheme, usize::MAX);
                let mut rng = task_rng(5, i as u64);
                aggregate_pair_with(router, &mut sampler, s, &mut rng, trials, cap)
            })
            .collect();
        for width in LaneWidth::ALL {
            for byte_cap in [0usize, 4096, usize::MAX] {
                let mut rngs: Vec<_> = (0..pairs.len()).map(|i| task_rng(5, i as u64)).collect();
                let mut jobs: Vec<PairJob<'_, '_>> = pairs
                    .iter()
                    .zip(&routers)
                    .zip(&mut rngs)
                    .map(|((&(s, _, trials), router), rng)| PairJob {
                        router,
                        s,
                        trials,
                        rng,
                    })
                    .collect();
                let mut sampler = BallRowSampler::with_width(scheme, byte_cap, width);
                let got = aggregate_pairs_with(&mut jobs, &mut sampler, cap);
                for (i, ((ps, dropped), want)) in got.iter().zip(&reference).enumerate() {
                    assert!(ps.bits_eq(want), "{width} cap={byte_cap} pair {i}");
                    assert_eq!(*dropped, 0);
                }
                let stats = sampler.stats();
                if byte_cap == usize::MAX {
                    assert!(stats.rows > 2 * stats.passes, "{width}: {stats:?}");
                } else if byte_cap == 0 {
                    assert_eq!(stats.rows, stats.passes, "{width}: {stats:?}");
                }
            }
        }
    }

    #[test]
    fn extremal_pairs_on_path_are_endpoints() {
        let g = path(50);
        let (pairs, d) = extremal_pairs_with_distance(&g);
        assert_eq!(d, 49);
        assert_eq!(pairs, extremal_pairs(&g));
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, pairs[1].1);
        let d = pairs[0];
        assert!((d.0 == 0 && d.1 == 49) || (d.0 == 49 && d.1 == 0));
    }

    #[test]
    fn run_standard_smoke() {
        let g = path(40);
        let cfg = TrialConfig {
            trials_per_pair: 8,
            seed: 9,
            threads: 2,
            ..TrialConfig::default()
        };
        let r = run_standard(&g, &UniformScheme, 4, &cfg).unwrap();
        assert_eq!(r.pairs.len(), 6);
        assert_eq!(r.failures(), 0);
    }

    #[test]
    fn invalid_pair_rejected() {
        let g = path(5);
        let cfg = TrialConfig::default();
        assert!(run_trials(&g, &UniformScheme, &[(0, 9)], &cfg).is_err());
    }
}
