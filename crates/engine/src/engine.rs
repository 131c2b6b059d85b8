//! The long-lived serving engine and its admission/cache/execute pipeline.

use crate::batch::{BatchResult, QueryBatch};
use crate::cache::{AdmissionPolicy, CacheStats, RowCache};
use crate::metrics::EngineMetrics;
use nav_core::faulty::FaultConfig;
use nav_core::sampler::{sampler_for_w, SamplerMode};
use nav_core::scheme::AugmentationScheme;
use nav_core::wave::Waves;
use nav_graph::distance::DistRowBuf;
use nav_graph::msbfs::{batched_compact_rows_w, LaneWidth};
use nav_graph::{Graph, GraphError, NodeId};
use nav_obs::{ObsConfig, ObsSnapshot, QueryTrace, Registry, Stage};
use std::sync::Arc;
use std::time::Instant;

/// Construction-time knobs of an [`Engine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Master seed: every query's trial RNG derives from
    /// `(seed, lifetime query index)`.
    pub seed: u64,
    /// Worker threads for row computation and trial execution
    /// (`1` = inline). Cold-fill passes fan out across them, and when a
    /// batch has fewer passes than threads, each pass also splits its big
    /// levels and decodes across the idle ones. Never changes answers.
    pub threads: usize,
    /// Row-cache capacity in bytes (`0` = recompute every batch). It also
    /// bounds a batch's transient rows: a batch runs in waves of at most
    /// `w = max(cache_bytes / 2n, width.lanes()·threads)` targets, so its
    /// exact rows peak at `cache_bytes + w·2n` bytes (`w·4n` for `u32`
    /// rows, past depth 65535), plus one MS-BFS workspace per worker: the
    /// `seen`/`frontier`/`next` bit sets and 8 depth planes of
    /// `MsBfsW`, `11·lanes/8` bytes a node, and its node lists, about
    /// `12` bytes a node (≈ `100n` bytes at 64 lanes). The same knob caps
    /// each trial worker's resident ball rows under
    /// [`SamplerMode::Batched`]: a smaller budget means fewer rows per
    /// MS-BFS pass, never a different answer.
    pub cache_bytes: usize,
    /// Per-step contact-sampling backend the trial workers build.
    /// [`SamplerMode::Scalar`] keeps the engine bit-identical to
    /// [`nav_core::trial::run_trials`] under its default config;
    /// [`SamplerMode::Batched`] has each worker answer its chunk of the
    /// batch through one ball-row sampler whose MS-BFS passes serve the
    /// current nodes of all the chunk's walks — same distributions as
    /// scalar, different RNG consumption, and bit-identical to
    /// `run_trials` in the same mode and to a fresh per-query
    /// [`nav_core::trial::aggregate_pair_with`], whatever `cache_bytes`,
    /// `threads`, `width` or the batch split.
    pub sampler: SamplerMode,
    /// Replacement policy of the cross-batch row cache. Distances are
    /// exact, so the policy can never change an answer — only hit rates
    /// and latency. [`AdmissionPolicy::Segmented`] shields hot zipfian
    /// targets from one-shot scan traffic.
    pub admission: AdmissionPolicy,
    /// Deterministic fault injection: an i.i.d. link-drop probability and
    /// an optional node-churn [`nav_core::faulty::FailurePlan`]. Faults
    /// are keyed by each query's RNG index — query `i` always sees the
    /// same drop coins and the same churn epoch, whatever the batch
    /// split, thread count or cache size — so the engine's bit-identity
    /// contract extends unchanged to the faulty setting.
    /// `FaultConfig::default()` disables both dimensions.
    pub fault: FaultConfig,
    /// Observability: per-stage latency histograms and sampled query
    /// traces ([`nav_obs`]). All state is bounded — histograms are
    /// fixed-size, traces live in a ring — and the trace sampler is
    /// deterministic in `(seed, lifetime query index)`, so it can never
    /// perturb answers and the traced set is identical across thread
    /// counts and batch splits.
    pub obs: ObsConfig,
    /// MS-BFS word-block width for the cold-fill passes and the batched
    /// sampler backends: 64, 128 or 256 bit-lanes per pass. Distance and
    /// ball rows are exact at every width, so answers in either sampler
    /// mode are bit-identical across widths.
    pub width: LaneWidth,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0x5eed,
            threads: nav_par::default_threads(),
            // Room for ~16k compact rows at n = 4096 — a generous default
            // that still fits comfortably in commodity RAM.
            cache_bytes: 128 << 20,
            sampler: SamplerMode::Scalar,
            admission: AdmissionPolicy::Lru,
            fault: FaultConfig::default(),
            obs: ObsConfig::default(),
            width: LaneWidth::W64,
        }
    }
}

/// Resumable state of one [`Engine`], as exported for the durability
/// layer: the lifetime query and batch counters (the former is the RNG
/// index the next `serve` continues from) and the resident rows in
/// re-insertion order with their SLRU tier. Together with the
/// construction inputs (graph, scheme, [`EngineConfig`]) this is
/// everything a restore needs to answer the continuation of the stream
/// bit-identically to the uninterrupted engine. No churn epoch travels: each query's epoch is a
/// pure function of its RNG index, and rows are valid in every epoch.
#[derive(Clone, Debug)]
pub struct EngineState {
    /// Queries answered over the engine's lifetime ([`Engine::serve`]'s
    /// next RNG base).
    pub served: u64,
    /// Batches served over the engine's lifetime
    /// ([`EngineMetrics::batches`]).
    pub batches: u64,
    /// Resident rows in re-insertion order (coldest first per tier); the
    /// `bool` is "protected" (see [`RowCache::export_rows`]).
    pub rows: Vec<(NodeId, Arc<DistRowBuf>, bool)>,
}

/// A persistent query-serving engine: owns a graph and an augmentation
/// scheme, keeps hot target rows resident across batches, and answers
/// [`QueryBatch`]es with statistics bit-identical to a fresh
/// [`nav_core::trial::run_trials`] over the same query sequence.
///
/// ```
/// use nav_engine::{Engine, EngineConfig, QueryBatch};
/// use nav_core::uniform::UniformScheme;
/// use nav_graph::GraphBuilder;
///
/// let g = GraphBuilder::from_edges(64, (0..63u32).map(|u| (u, u + 1))).unwrap();
/// let mut engine = Engine::new(g, Box::new(UniformScheme), EngineConfig::default());
/// let batch = QueryBatch::from_pairs(&[(0, 63), (5, 63)], 8);
/// let result = engine.serve(&batch).unwrap();
/// assert_eq!(result.answers.len(), 2);
/// assert_eq!(result.cold_targets, 1); // 63, deduplicated
/// // Serving the same batch again finds the row resident.
/// assert_eq!(engine.serve(&batch).unwrap().warm_targets, 1);
/// ```
pub struct Engine {
    g: Graph,
    scheme: Box<dyn AugmentationScheme + Send>,
    cfg: EngineConfig,
    cache: RowCache,
    metrics: EngineMetrics,
    obs: Registry,
    /// Lifetime query counter — the RNG index of the next query, which
    /// makes a batched stream equivalent to one long `run_trials`.
    served: u64,
    /// Churn epoch of the last served batch — feeds only the
    /// [`EngineMetrics::epoch_flips`] transition counter.
    last_epoch: u64,
}

impl Engine {
    /// Builds an engine owning `g` and `scheme`.
    pub fn new(g: Graph, scheme: Box<dyn AugmentationScheme + Send>, cfg: EngineConfig) -> Self {
        cfg.fault.validate();
        Engine {
            cache: RowCache::with_policy(cfg.cache_bytes, cfg.admission),
            metrics: EngineMetrics::default(),
            obs: Registry::new(cfg.obs, cfg.seed),
            served: 0,
            last_epoch: 0,
            g,
            scheme,
            cfg,
        }
    }

    /// The graph being served.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The augmentation scheme's display name.
    pub fn scheme_name(&self) -> String {
        self.scheme.name()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Row-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Lifetime service metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Freezes the engine's observability state — per-stage latency
    /// histograms and the retained sampled traces — into a
    /// snapshot.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Queries answered over the engine's lifetime.
    pub fn queries_served(&self) -> u64 {
        self.served
    }

    /// The augmentation scheme being served — the durability layer reads
    /// its [`AugmentationScheme::contact_table`] to serialize realized
    /// schemes by their actual joint draw.
    pub fn scheme(&self) -> &(dyn AugmentationScheme + Send) {
        self.scheme.as_ref()
    }

    /// Exports the engine's resumable state (lifetime counter, resident
    /// cache rows) without disturbing it — the snapshot layer's read
    /// side.
    pub fn export_state(&self) -> EngineState {
        EngineState {
            served: self.served,
            batches: self.metrics.batches,
            rows: self.cache.export_rows(),
        }
    }

    /// Restores state exported by [`Engine::export_state`] into this
    /// engine (built from the same graph, scheme, and config): the
    /// lifetime counters resume the stream where it stopped, and the
    /// rows are re-admitted directly — they are exact full-graph
    /// distances, valid in whatever churn epoch the stream resumes in.
    /// Rows larger than this engine's capacity are rejected by the
    /// cache's normal admission control, so restoring a snapshot into a
    /// smaller cache stays safe (and visible via
    /// [`CacheStats::rejected`]).
    pub fn import_state(&mut self, state: EngineState) {
        self.served = state.served;
        self.metrics.batches = state.batches;
        for (t, row, protected) in state.rows {
            self.cache.import_row(t, row, protected);
        }
    }

    /// Serves one batch through the wave executor ([`nav_core::wave`]).
    /// **Admission** is one pass over the queries: it validates every
    /// endpoint, gives each distinct target its first-appearance ordinal
    /// `k` and puts each query in wave `k / w`, for waves of at most `w =
    /// max(cache_bytes / 2n, width.lanes()·threads)` targets (every
    /// benchmark batch is one wave). Then each wave makes one row-fill
    /// callback with its sorted targets: **cache lookup** takes the
    /// resident rows from the cross-batch LRU; **cold fill** evicts the
    /// rows the fresh ones will displace, computes the rest
    /// `width.lanes()` per bit-parallel MS-BFS pass straight into compact
    /// `u16` rows (passes fanned out to `threads` workers, a lone pass
    /// splitting its big levels across them) and admits each to the
    /// cache; and **trials** answer the wave's queries in parallel, query
    /// `i` of the batch on the RNG of `(seed, lifetime_index + i)`, one
    /// sampler per work unit (see [`EngineConfig::sampler`]). Admission
    /// and trials are timed at the edges of each callback.
    ///
    /// Answers are a pure function of `(graph, scheme, seed, sampler
    /// mode, query sequence)`: thread count, cache capacity, lane width
    /// and batch splits never change a bit. Errors on an out-of-range
    /// endpoint; the engine state is unchanged in that case.
    pub fn serve(&mut self, batch: &QueryBatch) -> Result<BatchResult, GraphError> {
        let result = self.serve_at(batch, self.served, self.cfg.sampler)?;
        self.served += batch.len() as u64;
        Ok(result)
    }

    /// [`Self::serve`] with the RNG addressing made explicit: query `i`
    /// of the batch runs on the RNG derived from `(seed, base + i)`, and
    /// the engine's lifetime counter is **not** advanced. This is the
    /// network front's entry point — a client that stamps each request
    /// with its own stream offset gets answers that are a pure function
    /// of the request, independent of how requests from other connections
    /// interleave with it. `sampler` selects the per-step backend for
    /// this batch only (the same knob as [`EngineConfig::sampler`];
    /// schemes without a batched sampler fall back to scalar, so any
    /// value is safe on any scheme).
    ///
    /// It runs the pipeline [`Self::serve`] describes as one
    /// [`Waves::run`]: a single admission pass over the batch, then one
    /// row-fill callback per wave into the cache-backed fill, which also
    /// records the admission and trials spans between its calls.
    pub fn serve_at(
        &mut self,
        batch: &QueryBatch,
        base: u64,
        sampler: SamplerMode,
    ) -> Result<BatchResult, GraphError> {
        let t0 = Instant::now();
        // Transient sampler state, byte-capped by the engine's one memory
        // knob; one sampler per work unit, freed when the unit answers.
        let new_sampler = || {
            sampler_for_w(
                self.scheme.as_ref(),
                &self.g,
                sampler,
                self.cfg.cache_bytes,
                self.cfg.width,
            )
        };
        // Trace sampling is pure in the query's RNG index, so the traced
        // set is identical whatever thread or batch split runs the query.
        let tracer = self.obs.sampler();
        let waves = Waves {
            g: &self.g,
            seed: self.cfg.seed,
            threads: self.cfg.threads,
            width: self.cfg.width,
            budget_bytes: self.cfg.cache_bytes,
            fault: self.cfg.fault,
            new_sampler: &new_sampler,
            traced: &|index| tracer.hits(index),
        };
        let mut rows = CachedRows {
            last: self.obs.stages_enabled().then(Instant::now),
            before_fill: Stage::Admission,
            cache: &mut self.cache,
            obs: &mut self.obs,
        };
        let run = waves.run(&batch.queries, base, |targets| rows.fill(&waves, targets))?;
        // The last wave's trials (admission, when the batch had no wave).
        rows.tick(rows.before_fill);
        let mut answers = Vec::with_capacity(batch.len());
        let (mut dropped_links, mut rerouted_hops) = (0u64, 0u64);
        for (i, (outcome, q)) in run.outcomes.into_iter().zip(&batch.queries).enumerate() {
            if let Some(trials_ms) = outcome.trials_ms {
                self.obs.record_trace(QueryTrace {
                    index: base + i as u64,
                    s: q.s,
                    t: q.t,
                    cache_hit: outcome.cache_hit,
                    trials: q.trials as u64,
                    trials_ms,
                    dropped_links: outcome.dropped,
                    rerouted_hops: outcome.rerouted,
                });
            }
            dropped_links += outcome.dropped;
            rerouted_hops += outcome.rerouted;
            answers.push(outcome.stats);
        }
        // A batch's churn epoch is the max epoch any of its queries lands
        // in. A change from the last batch's epoch counts as one flip. It
        // touches nothing else: every query routes under its own epoch
        // (from its RNG index) on an exact full-graph row, so resident
        // rows stay valid across the flip.
        let new_epoch = self
            .cfg
            .fault
            .plan
            .and_then(|plan| {
                (0..batch.len() as u64)
                    .map(|i| plan.epoch_of(base + i))
                    .max()
            })
            .filter(|&e| e != self.last_epoch);
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let trials: u64 = batch.queries.iter().map(|q| q.trials as u64).sum();
        self.metrics
            .record_batch(batch.len(), trials, run.warm, run.cold, elapsed_ms);
        self.metrics.record_sampler(&run.sampler);
        // The epoch moves with the counters, once the batch completes.
        if let Some(epoch) = new_epoch {
            self.last_epoch = epoch;
        }
        self.metrics
            .record_fault(dropped_links, rerouted_hops, new_epoch.is_some() as u64);
        Ok(BatchResult {
            answers,
            warm_targets: run.warm,
            cold_targets: run.cold,
            elapsed_ms,
        })
    }
}

/// The engine's row-fill callback: the cross-batch row cache, with every
/// stage timed into the engine's stage histograms. Admission and trials
/// are timed at the edges of each fill: the span before the first fill is
/// admission, each later one the previous wave's trials.
struct CachedRows<'e> {
    cache: &'e mut RowCache,
    obs: &'e mut Registry,
    /// When the last stage ended (`None` with stage timing off).
    last: Option<Instant>,
    /// The stage the span before the next fill (or after the last one)
    /// belongs to.
    before_fill: Stage,
}

impl CachedRows<'_> {
    /// Records the time since the last stage ended as one `stage` span.
    fn tick(&mut self, stage: Stage) {
        if let Some(last) = self.last.as_mut() {
            let now = Instant::now();
            let ms = (now - *last).as_secs_f64() * 1e3;
            self.obs.stages_mut().record(stage, ms);
            *last = now;
        }
    }

    /// The rows of one wave's sorted, distinct `targets`, each `true`
    /// when the cache held it; the rest are computed `run.width.lanes()`
    /// per MS-BFS pass on `run.threads` workers and admitted to the cache.
    fn fill(&mut self, run: &Waves<'_>, targets: &[NodeId]) -> Vec<(Arc<DistRowBuf>, bool)> {
        let stage = std::mem::replace(&mut self.before_fill, Stage::Trials);
        self.tick(stage);
        let found: Vec<_> = targets.iter().map(|&t| self.cache.get(t)).collect();
        self.tick(Stage::CacheLookup);
        let cold: Vec<NodeId> = targets
            .iter()
            .zip(&found)
            .filter_map(|(&t, row)| row.is_none().then_some(t))
            .collect();
        let mut fresh = Vec::new().into_iter();
        if !cold.is_empty() {
            // Free the rows the inserts below will evict before the fill
            // allocates the fresh ones, so the wave stays inside
            // `cache_bytes`. Room is made for `u16` rows; a `u32` row
            // (depth ≥ 65535) evicts the rest when it is inserted, and
            // the guard keeps it admissible, so the victims never change.
            let n = run.g.num_nodes();
            if n * std::mem::size_of::<u32>() <= self.cache.capacity_bytes() {
                self.cache
                    .make_room(cold.len(), n * std::mem::size_of::<u16>());
            }
            let rows = batched_compact_rows_w(run.g, &cold, run.threads, run.width);
            let rows: Vec<_> = rows.into_iter().map(Arc::new).collect();
            for (&t, row) in cold.iter().zip(&rows) {
                self.cache.insert(t, Arc::clone(row));
            }
            fresh = rows.into_iter();
            self.tick(Stage::ColdFill);
        }
        found
            .into_iter()
            .map(|row| match row {
                Some(row) => (row, true),
                None => (fresh.next().expect("one fresh row per cold target"), false),
            })
            .collect()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Query;
    use nav_core::trial::{run_trials, PairStats, TrialConfig};
    use nav_core::uniform::{NoAugmentation, UniformScheme};
    use nav_graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    fn identical(a: &[PairStats], b: &[PairStats]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(y))
    }

    #[test]
    fn answers_match_run_trials_bit_for_bit() {
        let g = path(96);
        let pairs: Vec<(NodeId, NodeId)> = vec![(0, 95), (95, 0), (3, 77), (12, 77), (50, 1)];
        let cfg = EngineConfig {
            seed: 41,
            threads: 2,
            cache_bytes: 1 << 20,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
        let got = engine.serve(&QueryBatch::from_pairs(&pairs, 16)).unwrap();
        let want = run_trials(
            &g,
            &UniformScheme,
            &pairs,
            &TrialConfig {
                trials_per_pair: 16,
                seed: 41,
                threads: 1,
                ..TrialConfig::default()
            },
        )
        .unwrap();
        assert!(identical(&got.answers, &want.pairs));
    }

    #[test]
    fn batch_split_never_changes_answers() {
        let g = path(64);
        let pairs: Vec<(NodeId, NodeId)> = (0..20).map(|i| (i, 63 - (i % 7))).collect();
        let cfg = EngineConfig {
            seed: 5,
            threads: 1,
            cache_bytes: 1 << 16,
            ..EngineConfig::default()
        };
        let mut one = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
        let whole = one.serve(&QueryBatch::from_pairs(&pairs, 6)).unwrap();
        let mut split = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
        let mut stitched = Vec::new();
        for chunk in pairs.chunks(3) {
            stitched.extend(
                split
                    .serve(&QueryBatch::from_pairs(chunk, 6))
                    .unwrap()
                    .answers,
            );
        }
        assert!(identical(&whole.answers, &stitched));
        assert_eq!(split.queries_served(), 20);
    }

    #[test]
    fn cache_capacity_never_changes_answers() {
        let g = path(80);
        let pairs: Vec<(NodeId, NodeId)> = (0..12).map(|i| (i * 3, 79 - (i % 4))).collect();
        let mut answers = Vec::new();
        for cache_bytes in [0usize, 200, 1 << 20] {
            let cfg = EngineConfig {
                seed: 99,
                threads: 2,
                cache_bytes,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
            let mut got = Vec::new();
            for chunk in pairs.chunks(4) {
                got.extend(e.serve(&QueryBatch::from_pairs(chunk, 5)).unwrap().answers);
            }
            answers.push(got);
        }
        assert!(identical(&answers[0], &answers[1]));
        assert!(identical(&answers[0], &answers[2]));
    }

    #[test]
    fn warm_batches_skip_row_computation() {
        let g = path(50);
        let cfg = EngineConfig {
            seed: 1,
            threads: 1,
            cache_bytes: 1 << 20,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(g, Box::new(NoAugmentation), cfg);
        let batch = QueryBatch::from_pairs(&[(0, 49), (3, 49), (7, 20)], 2);
        let first = e.serve(&batch).unwrap();
        assert_eq!((first.cold_targets, first.warm_targets), (2, 0));
        let second = e.serve(&batch).unwrap();
        assert_eq!((second.cold_targets, second.warm_targets), (0, 2));
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.resident_rows, 2);
        // Path distances fit 16 bits → compact rows, 2 bytes per node.
        assert_eq!(stats.resident_bytes, 2 * 50 * 2);
        assert_eq!(e.metrics().queries, 6);
        assert_eq!(e.metrics().batches, 2);
        assert_eq!(e.metrics().trials, 12);
        assert!(e.metrics().throughput_qps() > 0.0);
        assert_eq!(e.scheme_name(), "none");
        assert_eq!(e.config().cache_bytes, 1 << 20);
        assert_eq!(e.graph().num_nodes(), 50);
    }

    #[test]
    fn per_query_trial_counts_are_respected() {
        let g = path(30);
        let cfg = EngineConfig {
            seed: 2,
            threads: 1,
            cache_bytes: 0,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(g, Box::new(NoAugmentation), cfg);
        let batch = QueryBatch {
            queries: vec![
                Query {
                    s: 0,
                    t: 29,
                    trials: 1,
                },
                Query {
                    s: 5,
                    t: 29,
                    trials: 9,
                },
            ],
        };
        let r = e.serve(&batch).unwrap();
        assert_eq!(r.answers[0].mean_steps, 29.0);
        assert_eq!(r.answers[1].mean_steps, 24.0);
        assert_eq!(e.metrics().trials, 10);
    }

    #[test]
    fn batched_ball_serving_matches_run_trials_in_batched_mode() {
        // The batched sampler consumes RNG differently from the scalar
        // path, but an engine in batched mode must still reproduce
        // `run_trials` *run in the same mode* bit for bit.
        use nav_core::ball::BallScheme;
        let g = path(72);
        let scheme = BallScheme::new(&g);
        let pairs: Vec<(NodeId, NodeId)> = (0..10).map(|i| (i * 7 % 72, 71 - i)).collect();
        let cfg = EngineConfig {
            seed: 77,
            threads: 2,
            cache_bytes: 1 << 20,
            sampler: SamplerMode::Batched,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(g.clone(), Box::new(scheme), cfg);
        let got = engine.serve(&QueryBatch::from_pairs(&pairs, 6)).unwrap();
        let want = run_trials(
            &g,
            &scheme,
            &pairs,
            &TrialConfig {
                trials_per_pair: 6,
                seed: 77,
                threads: 1,
                sampler: SamplerMode::Batched,
                ..TrialConfig::default()
            },
        )
        .unwrap();
        assert!(identical(&got.answers, &want.pairs));
        let stats = engine.metrics().sampler;
        assert!(stats.rows > 0, "{stats:?}");
        assert!(stats.hits > 0, "{stats:?}");
        assert_eq!(stats.fallbacks, 0);
        assert!(stats.row_bytes > 0);
    }

    #[test]
    fn scalar_answers_are_width_invariant() {
        // Cold-fill rows are exact at every word-block width, so a scalar
        // engine's answers must be bit-identical across widths.
        let g = path(96);
        let pairs: Vec<(NodeId, NodeId)> = (0..20).map(|i| (i, 95 - (i % 9))).collect();
        let serve = |width: LaneWidth| {
            let cfg = EngineConfig {
                seed: 23,
                threads: 2,
                cache_bytes: 1 << 20,
                width,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
            e.serve(&QueryBatch::from_pairs(&pairs, 7)).unwrap().answers
        };
        let base = serve(LaneWidth::W64);
        for width in [LaneWidth::W128, LaneWidth::W256] {
            assert!(identical(&base, &serve(width)), "width {width}");
        }
    }

    #[test]
    fn wide_batched_engine_matches_run_trials_at_same_width() {
        // Ball rows are canonical at every width, so batched answers
        // reproduce run_trials bit for bit at every width — and the
        // widths agree with each other too.
        use nav_core::ball::BallScheme;
        let g = path(72);
        let scheme = BallScheme::new(&g);
        let pairs: Vec<(NodeId, NodeId)> = (0..10).map(|i| (i * 7 % 72, 71 - i)).collect();
        let mut per_width = Vec::new();
        for width in LaneWidth::ALL {
            let cfg = EngineConfig {
                seed: 77,
                threads: 2,
                cache_bytes: 1 << 20,
                sampler: SamplerMode::Batched,
                width,
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(g.clone(), Box::new(scheme), cfg);
            let got = engine.serve(&QueryBatch::from_pairs(&pairs, 6)).unwrap();
            let want = run_trials(
                &g,
                &scheme,
                &pairs,
                &TrialConfig {
                    trials_per_pair: 6,
                    seed: 77,
                    threads: 1,
                    sampler: SamplerMode::Batched,
                    width,
                },
            )
            .unwrap();
            assert!(identical(&got.answers, &want.pairs), "width {width}");
            per_width.push(got.answers);
        }
        assert!(identical(&per_width[0], &per_width[1]));
        assert!(identical(&per_width[0], &per_width[2]));
    }

    #[test]
    fn binding_ball_row_budget_stays_correct_and_deterministic() {
        // cache_bytes = 0 shrinks every ball-row segment to one row: more
        // passes, the same answers as an unbounded budget, at any thread
        // count.
        use nav_core::ball::BallScheme;
        let g = path(60);
        let scheme = BallScheme::new(&g);
        let pairs: Vec<(NodeId, NodeId)> = (0..6).map(|i| (i * 9, 59 - i)).collect();
        let serve = |threads: usize, cache_bytes: usize| {
            let mut e = Engine::new(
                g.clone(),
                Box::new(scheme),
                EngineConfig {
                    seed: 3,
                    threads,
                    cache_bytes,
                    sampler: SamplerMode::Batched,
                    ..EngineConfig::default()
                },
            );
            let r = e.serve(&QueryBatch::from_pairs(&pairs, 5)).unwrap();
            (r, e.metrics().sampler)
        };
        let (r1, s1) = serve(1, 0);
        let (r4, s4) = serve(4, 0);
        let (free, s_free) = serve(1, usize::MAX);
        assert!(identical(&r1.answers, &r4.answers));
        assert!(identical(&r1.answers, &free.answers));
        assert_eq!(s1.fallbacks + s4.fallbacks, 0, "{s1:?}");
        assert_eq!(s1.rows, s1.passes, "one row per pass: {s1:?}");
        assert!(s_free.rows > s_free.passes, "{s_free:?}");
        assert_eq!(r1.answers.iter().map(|a| a.failures).sum::<usize>(), 0);
    }

    #[test]
    fn scalar_mode_keeps_sampler_counters_at_zero() {
        let g = path(20);
        let mut e = Engine::new(g, Box::new(UniformScheme), EngineConfig::default());
        e.serve(&QueryBatch::from_pairs(&[(0, 19)], 4)).unwrap();
        assert_eq!(
            e.metrics().sampler,
            nav_core::sampler::SamplerStats::default()
        );
    }

    #[test]
    fn serve_at_is_stateless_addressing() {
        // serve_at(batch, base) answers exactly the slice [base, base+len)
        // of the one long stream `serve` walks — and never advances the
        // lifetime counter.
        let g = path(40);
        let pairs: Vec<(NodeId, NodeId)> = (0..8).map(|i| (i, 39 - i)).collect();
        let cfg = EngineConfig {
            seed: 11,
            threads: 1,
            cache_bytes: 1 << 20,
            ..EngineConfig::default()
        };
        let mut sequential = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
        let mut want = Vec::new();
        for chunk in pairs.chunks(3) {
            want.extend(
                sequential
                    .serve(&QueryBatch::from_pairs(chunk, 4))
                    .unwrap()
                    .answers,
            );
        }
        let mut explicit = Engine::new(g, Box::new(UniformScheme), cfg);
        let mut got = Vec::new();
        let mut base = 0u64;
        for chunk in pairs.chunks(3) {
            let batch = QueryBatch::from_pairs(chunk, 4);
            got.extend(
                explicit
                    .serve_at(&batch, base, cfg.sampler)
                    .unwrap()
                    .answers,
            );
            base += batch.len() as u64;
            assert_eq!(explicit.queries_served(), 0, "serve_at must not advance");
        }
        assert!(identical(&want, &got));
        // Replaying an offset is reproducible: the same frame twice gives
        // the same bits.
        let batch = QueryBatch::from_pairs(&pairs[2..5], 4);
        let a = explicit.serve_at(&batch, 2, cfg.sampler).unwrap().answers;
        let b = explicit.serve_at(&batch, 2, cfg.sampler).unwrap().answers;
        assert!(identical(&a, &b));
    }

    #[test]
    fn admission_policy_never_changes_answers() {
        use crate::cache::AdmissionPolicy;
        let g = path(70);
        let pairs: Vec<(NodeId, NodeId)> = (0..16).map(|i| (i * 2, 69 - (i % 5))).collect();
        let mut per_policy = Vec::new();
        for admission in [AdmissionPolicy::Lru, AdmissionPolicy::Segmented] {
            // A capacity tight enough to force evictions, so the policies
            // actually diverge in what they keep.
            let cfg = EngineConfig {
                seed: 8,
                threads: 2,
                cache_bytes: 3 * 70 * 2,
                admission,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
            let mut got = Vec::new();
            for chunk in pairs.chunks(4) {
                got.extend(e.serve(&QueryBatch::from_pairs(chunk, 5)).unwrap().answers);
            }
            let stats = e.cache_stats();
            assert!(stats.resident_bytes <= stats.capacity_bytes, "{stats:?}");
            per_policy.push(got);
        }
        assert!(
            identical(&per_policy[0], &per_policy[1]),
            "cache policy leaked into answers"
        );
    }

    #[test]
    fn fault_drop_matches_run_trials_over_faulty_scheme_bit_for_bit() {
        // EngineConfig::fault's drop coin at the sampler layer must be
        // the same stream as wrapping the scheme in FaultyScheme: contact
        // first, coin second, either way.
        use nav_core::faulty::FaultyScheme;
        let g = path(96);
        let pairs: Vec<(NodeId, NodeId)> = vec![(0, 95), (95, 0), (3, 77), (12, 77), (50, 1)];
        let p = 0.3;
        let cfg = EngineConfig {
            seed: 41,
            threads: 2,
            cache_bytes: 1 << 20,
            fault: FaultConfig {
                drop_prob: p,
                plan: None,
            },
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
        let got = engine.serve(&QueryBatch::from_pairs(&pairs, 16)).unwrap();
        let want = run_trials(
            &g,
            &FaultyScheme::new(UniformScheme, p),
            &pairs,
            &TrialConfig {
                trials_per_pair: 16,
                seed: 41,
                threads: 1,
                ..TrialConfig::default()
            },
        )
        .unwrap();
        assert!(identical(&got.answers, &want.pairs));
        assert!(engine.metrics().dropped_links > 0);
        assert_eq!(engine.metrics().epoch_flips, 0, "no plan, no flips");
    }

    #[test]
    fn churn_epoch_flips_keep_rows_resident_and_count_in_metrics() {
        use nav_core::faulty::FailurePlan;
        let g = path(50);
        // 2-query epochs over a 3-epoch plan with some churn.
        let plan = FailurePlan::new(99, 3, 2, 0.2);
        let cfg = EngineConfig {
            seed: 7,
            threads: 1,
            cache_bytes: 1 << 20,
            fault: FaultConfig {
                drop_prob: 0.0,
                plan: Some(plan),
            },
            ..EngineConfig::default()
        };
        let mut e = Engine::new(g, Box::new(NoAugmentation), cfg);
        let batch = QueryBatch::from_pairs(&[(0, 49), (3, 49)], 2);
        e.serve(&batch).unwrap(); // bases 0, 1 → epoch 0
        assert_eq!(e.metrics().epoch_flips, 0, "epoch 0 is the initial one");
        let first_cold = e.cache_stats().insertions;
        assert_eq!(first_cold, 1, "one distinct target");
        let second = e.serve(&batch).unwrap(); // bases 2, 3 → epoch 1: flip
        assert_eq!(e.metrics().epoch_flips, 1);
        assert_eq!(
            (second.warm_targets, second.cold_targets),
            (1, 0),
            "the row survives the flip"
        );
        assert_eq!(e.cache_stats().insertions, first_cold, "no refill");
        e.serve(&batch).unwrap(); // epoch 2
        e.serve(&batch).unwrap(); // wraps to epoch 0 again
        assert_eq!(e.metrics().epoch_flips, 3);
        assert_eq!(e.cache_stats().insertions, first_cold);
    }

    #[test]
    fn churn_answers_are_pure_functions_of_the_rng_index() {
        // Same queries, same bases → same bits, regardless of cache
        // capacity or thread count — the fault dimension joins the
        // determinism contract instead of weakening it.
        use nav_core::faulty::FailurePlan;
        let g = path(80);
        let pairs: Vec<(NodeId, NodeId)> = (0..12).map(|i| (i * 5, 79 - (i % 6))).collect();
        let fault = FaultConfig {
            drop_prob: 0.2,
            plan: Some(FailurePlan::new(4, 4, 3, 0.15)),
        };
        let mut per_shape = Vec::new();
        for (threads, cache_bytes) in [(1usize, 0usize), (4, 1 << 20)] {
            let cfg = EngineConfig {
                seed: 13,
                threads,
                cache_bytes,
                fault,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
            let mut got = Vec::new();
            for chunk in pairs.chunks(5) {
                got.extend(e.serve(&QueryBatch::from_pairs(chunk, 6)).unwrap().answers);
            }
            per_shape.push(got);
        }
        assert!(identical(&per_shape[0], &per_shape[1]));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_fault_config_rejected_at_construction() {
        let g = path(4);
        let _ = Engine::new(
            g,
            Box::new(NoAugmentation),
            EngineConfig {
                fault: FaultConfig {
                    drop_prob: 1.5,
                    plan: None,
                },
                ..EngineConfig::default()
            },
        );
    }

    #[test]
    fn invalid_endpoint_rejected_without_side_effects() {
        let g = path(10);
        let mut e = Engine::new(g, Box::new(NoAugmentation), EngineConfig::default());
        let bad = QueryBatch::from_pairs(&[(0, 10)], 2);
        assert!(e.serve(&bad).is_err());
        assert_eq!(e.queries_served(), 0);
        assert_eq!(e.metrics().batches, 0);
    }

    #[test]
    fn sharded_engine_rejects_before_any_row_fills() {
        let g = path(10);
        let mut e = Engine::new(g, Box::new(UniformScheme), EngineConfig::default());
        // The valid query's target is not filled before the bad one is seen.
        let bad = QueryBatch::from_pairs(&[(0, 4), (0, 10)], 2);
        assert!(e.serve(&bad).is_err());
        assert_eq!(e.queries_served(), 0);
        assert_eq!(e.metrics().batches, 0);
        assert_eq!(e.cache_stats().misses, 0);
    }

    #[test]
    fn trace_every_one_traces_every_index() {
        let g = path(90);
        let cfg = EngineConfig {
            seed: 31,
            threads: 2,
            cache_bytes: 1 << 20,
            obs: ObsConfig {
                stages: true,
                trace_every: 1, // trace everything
                trace_capacity: 64,
            },
            ..EngineConfig::default()
        };
        let mut e = Engine::new(g, Box::new(UniformScheme), cfg);
        let pairs: Vec<(NodeId, NodeId)> = (0..24u32).map(|i| (i, 89 - (i % 11))).collect();
        e.serve(&QueryBatch::from_pairs(&pairs, 4)).unwrap();
        let snap = e.obs_snapshot();
        let idx: Vec<u64> = snap.traces.iter().map(|t| t.index).collect();
        assert_eq!(idx, (0..24u64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_fine() {
        let g = path(4);
        let mut e = Engine::new(g, Box::new(NoAugmentation), EngineConfig::default());
        let r = e.serve(&QueryBatch::default()).unwrap();
        assert!(r.answers.is_empty());
        assert_eq!(r.cold_targets + r.warm_targets, 0);
    }
}
