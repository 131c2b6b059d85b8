//! The serving engine's determinism contract, property-tested: batch
//! answers are bit-identical to a direct [`run_trials`] over the same
//! query sequence — across cache capacities (including 0), thread counts,
//! batch orderings, and cache admission policies.
//!
//! Thread counts come from the centralized `NAV_TEST_THREADS` knob
//! ([`nav_par::test_threads`]) and case counts from `PROPTEST_CASES`, so
//! the suite runs the same configurations on 1-core CI and many-core dev
//! boxes.

use navigability::core::trial::{run_trials, PairStats, TrialConfig};
use navigability::core::uniform::UniformScheme;
use navigability::core::{FailurePlan, FaultConfig, FaultyScheme};
use navigability::engine::{AdmissionPolicy, Engine, EngineConfig, QueryBatch};
use navigability::graph::components::connect_components;
use navigability::par::test_threads;
use navigability::prelude::*;
use proptest::prelude::*;

/// Arbitrary connected graph: random edge set over `n` nodes, repaired.
fn connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n);
            (Just(n), edges)
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            let g = b.build().expect("valid");
            connect_components(g).0
        })
}

fn identical(a: &[PairStats], b: &[PairStats]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(y))
}

/// Replays `pairs` through a fresh engine in batches of `batch_size`.
fn engine_answers(
    g: &Graph,
    pairs: &[(NodeId, NodeId)],
    trials: usize,
    seed: u64,
    threads: usize,
    cache_bytes: usize,
    batch_size: usize,
) -> Vec<PairStats> {
    let mut engine = Engine::new(
        g.clone(),
        Box::new(UniformScheme),
        EngineConfig {
            seed,
            threads,
            cache_bytes,
            ..EngineConfig::default()
        },
    );
    let mut answers = Vec::new();
    for chunk in pairs.chunks(batch_size.max(1)) {
        answers.extend(
            engine
                .serve(&QueryBatch::from_pairs(chunk, trials))
                .expect("valid pairs")
                .answers,
        );
    }
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_run_trials_everywhere(
        g in connected_graph(48),
        seed in 0u64..1000,
        num_pairs in 1usize..24,
        trials in 1usize..6,
        batch_size in 1usize..10,
    ) {
        let n = g.num_nodes() as NodeId;
        let mut rng = seeded_rng(seed ^ 0xabcd);
        let pairs: Vec<(NodeId, NodeId)> = (0..num_pairs)
            .map(|_| {
                use rand::Rng;
                (rng.gen_range(0..n), rng.gen_range(0..n))
            })
            .collect();
        // The ground truth: one run_trials over the whole sequence.
        let reference = run_trials(
            &g,
            &UniformScheme,
            &pairs,
            &TrialConfig { trials_per_pair: trials, seed, threads: 1, ..TrialConfig::default() },
        )
        .expect("valid pairs");
        // A tiny capacity that forces evictions mid-stream: one row plus
        // change (rows are 2·n bytes compact).
        let tiny = 3 * g.num_nodes();
        for cache_bytes in [0usize, tiny, 1 << 22] {
            for threads in [1usize, test_threads()] {
                let got = engine_answers(&g, &pairs, trials, seed, threads, cache_bytes, batch_size);
                prop_assert!(
                    identical(&got, &reference.pairs),
                    "diverged at cache={cache_bytes} threads={threads} batch={batch_size}"
                );
            }
        }
        // Batch orderings: one query per batch vs everything in one batch.
        let per_query = engine_answers(&g, &pairs, trials, seed, 1, 1 << 22, 1);
        let one_shot = engine_answers(&g, &pairs, trials, seed, 1, 1 << 22, pairs.len());
        prop_assert!(identical(&per_query, &reference.pairs));
        prop_assert!(identical(&one_shot, &reference.pairs));
    }

    #[test]
    fn permuted_streams_match_permuted_run_trials(
        g in connected_graph(40),
        seed in 0u64..500,
        rot in 0usize..16,
    ) {
        // Serving a permuted stream is the same as run_trials on the
        // permuted pair list — position in the stream, not the pair
        // itself, owns the RNG.
        let n = g.num_nodes() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> = (0..12u32).map(|i| (i % n, (i * 7 + 1) % n)).collect();
        let mut rotated = pairs.clone();
        let len = rotated.len();
        rotated.rotate_left(rot % len);
        let reference = run_trials(
            &g,
            &UniformScheme,
            &rotated,
            &TrialConfig { trials_per_pair: 3, seed, threads: 1, ..TrialConfig::default() },
        )
        .expect("valid pairs");
        let got = engine_answers(&g, &rotated, 3, seed, 2, 1 << 20, 5);
        prop_assert!(identical(&got, &reference.pairs));
    }

    #[test]
    fn admission_policy_is_invisible_in_answers(
        g in connected_graph(48),
        seed in 0u64..1000,
        num_pairs in 1usize..32,
        batch_size in 1usize..10,
        cache_rows in 0usize..6,
    ) {
        // The segmented-LRU soak: under a capacity tight enough to force
        // evictions mid-stream (0..5 compact rows), both policies must
        // produce bit-identical trial outcomes — only their hit/eviction
        // counters may differ — and neither may ever exceed its byte
        // budget.
        let n = g.num_nodes() as NodeId;
        let mut rng = seeded_rng(seed ^ 0x517e);
        let pairs: Vec<(NodeId, NodeId)> = (0..num_pairs)
            .map(|_| {
                use rand::Rng;
                (rng.gen_range(0..n), rng.gen_range(0..n))
            })
            .collect();
        let cache_bytes = cache_rows * 2 * g.num_nodes();
        let mut outcomes = Vec::new();
        for admission in [AdmissionPolicy::Lru, AdmissionPolicy::Segmented] {
            let mut engine = Engine::new(
                g.clone(),
                Box::new(UniformScheme),
                EngineConfig {
                    seed,
                    threads: test_threads(),
                    cache_bytes,
                    admission,
                    ..EngineConfig::default()
                },
            );
            let mut answers = Vec::new();
            for chunk in pairs.chunks(batch_size.max(1)) {
                answers.extend(
                    engine
                        .serve(&QueryBatch::from_pairs(chunk, 3))
                        .expect("valid pairs")
                        .answers,
                );
                // Eviction accounting must hold after *every* batch, for
                // both tiers.
                let s = engine.cache_stats();
                prop_assert!(s.resident_bytes <= s.capacity_bytes, "{admission:?}: {s:?}");
                prop_assert!(s.protected_bytes <= s.resident_bytes, "{admission:?}: {s:?}");
                prop_assert!(s.protected_rows <= s.resident_rows, "{admission:?}: {s:?}");
            }
            outcomes.push(answers);
        }
        prop_assert!(
            identical(&outcomes[0], &outcomes[1]),
            "admission policy changed routing outcomes"
        );
    }

    #[test]
    fn ball_sampler_backends_match_run_trials(
        g in connected_graph(40),
        seed in 0u64..500,
        batch_size in 1usize..8,
    ) {
        // The two batched ball backends keep the engine's determinism
        // contract: (b) an engine with the ball-row-cache sampler is
        // bit-identical to run_trials in the same mode; (c) an engine
        // serving a pre-realized contact table (`--sampler ball-realized`)
        // is bit-identical to run_trials over that realization.
        use navigability::core::sampler::SamplerMode;
        let n = g.num_nodes() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> = (0..10u32).map(|i| (i % n, (i * 5 + 2) % n)).collect();
        let ball = BallScheme::new(&g);
        for (scheme, mode) in [
            (Box::new(ball) as Box<dyn navigability::core::AugmentationScheme + Send>, SamplerMode::Batched),
            (Box::new(ball.realize_batched(&g, seed ^ 0xba11, 2)), SamplerMode::Scalar),
        ] {
            let reference = run_trials(
                &g,
                scheme.as_ref(),
                &pairs,
                &TrialConfig {
                    trials_per_pair: 3, seed, threads: 1, sampler: mode,
                    ..TrialConfig::default()
                },
            )
            .expect("valid pairs");
            let mut engine = Engine::new(
                g.clone(),
                scheme,
                EngineConfig {
                    seed,
                    threads: test_threads(),
                    cache_bytes: 1 << 20,
                    sampler: mode,
                    ..EngineConfig::default()
                },
            );
            let mut answers = Vec::new();
            for chunk in pairs.chunks(batch_size.max(1)) {
                answers.extend(
                    engine
                        .serve(&QueryBatch::from_pairs(chunk, 3))
                        .expect("valid pairs")
                        .answers,
                );
            }
            prop_assert!(identical(&answers, &reference.pairs), "mode {:?}", mode);
        }
    }

    #[test]
    fn batched_ball_answers_equal_the_per_query_reference(
        g in connected_graph(40),
        seed in 0u64..500,
        num_pairs in 1usize..20,
        trials in 1usize..5,
        batch_size in 1usize..9,
    ) {
        // The shared-pass contract: each engine worker answers its chunk
        // of a batch through one ball-row sampler, yet every answer equals
        // a fresh per-query `sampler_for_w` + `aggregate_pair_with` (the
        // reference the serving benchmark checks against) and, without
        // churn, `run_trials` — at every thread count, batch split, byte
        // budget, lane width and drop probability, and under a churn
        // plan. Traces keep their per-query fault counts.
        use navigability::core::faulty::FaultySampler;
        use navigability::core::oracle::TargetDistanceCache;
        use navigability::core::routing::default_step_cap;
        use navigability::core::sampler::{sampler_for_w, ContactSampler, SamplerMode};
        use navigability::core::trial::aggregate_pair_with;
        use navigability::graph::msbfs::LaneWidth;
        use navigability::obs::ObsConfig;
        use navigability::par::rng::task_rng;
        let n = g.num_nodes() as NodeId;
        let mut rng = seeded_rng(seed ^ 0xba11);
        let pairs: Vec<(NodeId, NodeId)> = (0..num_pairs)
            .map(|_| {
                use rand::Rng;
                (rng.gen_range(0..n), rng.gen_range(0..n))
            })
            .collect();
        let ball = BallScheme::new(&g);
        let oracle = TargetDistanceCache::build(&g, pairs.iter().map(|&(_, t)| t), 1)
            .expect("valid pairs");
        let cap = default_step_cap(&g);
        let churn = FailurePlan::new(seed ^ 0xc4, 3, 4, 0.15);
        for width in LaneWidth::ALL {
            for fault in [
                FaultConfig { drop_prob: 0.0, plan: None },
                FaultConfig { drop_prob: 0.35, plan: None },
                FaultConfig { drop_prob: 0.35, plan: Some(churn) },
            ] {
                // (answer, dropped links, rerouted hops) per query.
                let reference: Vec<(PairStats, u64, u64)> = pairs
                    .iter()
                    .enumerate()
                    .map(|(i, &(s, t))| {
                        let mut router = oracle.router(t).expect("built");
                        if let Some(plan) = fault.plan {
                            router = router.with_fault(plan, plan.epoch_of(i as u64));
                        }
                        let mut rng = task_rng(seed, i as u64);
                        let inner =
                            sampler_for_w(&ball, &g, SamplerMode::Batched, 128 << 20, width);
                        let mut sampler = FaultySampler::new(inner, fault.drop_prob);
                        let stats =
                            aggregate_pair_with(&router, &mut sampler, s, &mut rng, trials, cap);
                        let (churn_drops, rerouted) = router.fault_counts();
                        (stats, sampler.dropped() + churn_drops, rerouted)
                    })
                    .collect();
                let want: Vec<PairStats> = reference.iter().map(|r| r.0.clone()).collect();
                if fault.plan.is_none() {
                    let cfg = TrialConfig {
                        trials_per_pair: trials,
                        seed,
                        threads: test_threads(),
                        sampler: SamplerMode::Batched,
                        width,
                    };
                    let faulty = FaultyScheme::new(ball, fault.drop_prob);
                    let got = run_trials(&g, &faulty, &pairs, &cfg).expect("valid pairs");
                    prop_assert!(identical(&got.pairs, &want), "run_trials at {width} {fault:?}");
                }
                for cache_bytes in [0usize, 1 << 20, 128 << 20] {
                    for threads in [1usize, test_threads()] {
                        let mut engine = Engine::new(
                            g.clone(),
                            Box::new(ball),
                            EngineConfig {
                                seed,
                                threads,
                                cache_bytes,
                                sampler: SamplerMode::Batched,
                                fault,
                                obs: ObsConfig { stages: false, trace_every: 1, trace_capacity: 64 },
                                width,
                                ..EngineConfig::default()
                            },
                        );
                        let mut answers = Vec::new();
                        for chunk in pairs.chunks(batch_size) {
                            answers.extend(
                                engine
                                    .serve(&QueryBatch::from_pairs(chunk, trials))
                                    .expect("valid pairs")
                                    .answers,
                            );
                        }
                        let shape = format!("{width} {fault:?} cache={cache_bytes} threads={threads} batch={batch_size}");
                        prop_assert!(identical(&answers, &want), "answers diverged at {}", shape);
                        let traces = engine.obs_snapshot().traces;
                        prop_assert_eq!(traces.len(), pairs.len());
                        for tr in traces {
                            let (_, dropped, rerouted) = &reference[tr.index as usize];
                            prop_assert_eq!((tr.dropped_links, tr.rerouted_hops), (*dropped, *rerouted), "{}", shape);
                        }
                        prop_assert_eq!(engine.metrics().sampler.fallbacks, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn zero_drop_wrapper_preserves_the_inner_rng_stream(
        g in connected_graph(36),
        seed in 0u64..500,
    ) {
        // The coin-after-contact contract, property-tested end-to-end:
        // wrapping a scheme in FaultyScheme must leave the inner scheme's
        // RNG stream byte-identical — at p = 0 the wrapper is invisible
        // under both sampler backends and any thread count, and at p > 0
        // the scalar and batched fault samplers agree bit for bit
        // (the drop coin is drawn *after* the inner contact in both).
        use navigability::core::sampler::SamplerMode;
        let n = g.num_nodes() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> = (0..10u32).map(|i| (i % n, (i * 3 + 1) % n)).collect();
        for mode in [SamplerMode::Scalar, SamplerMode::Batched] {
            for threads in [1usize, test_threads()] {
                let cfg = TrialConfig {
                    trials_per_pair: 3, seed, threads, sampler: mode,
                    ..TrialConfig::default()
                };
                let plain = run_trials(&g, &BallScheme::new(&g), &pairs, &cfg).expect("valid");
                let wrapped =
                    run_trials(&g, &FaultyScheme::new(BallScheme::new(&g), 0.0), &pairs, &cfg)
                        .expect("valid");
                prop_assert!(
                    identical(&plain.pairs, &wrapped.pairs),
                    "p=0 wrapper changed the stream at mode={mode:?} threads={threads}"
                );
            }
        }
        // And at p > 0 the engine's fault knob and the explicit wrapper
        // scheme must be the *same* faulty sampler, per mode: under
        // Scalar both are ScalarSampler(FaultyScheme), under Batched both
        // are FaultySampler(BallRowSampler) — one via the scheme's
        // batched passthrough, one via the engine wrapping the inner
        // backend. (The two modes differ from *each other* by design —
        // same distribution, different RNG consumption.)
        let faulty = FaultyScheme::new(BallScheme::new(&g), 0.35);
        for mode in [SamplerMode::Scalar, SamplerMode::Batched] {
            let reference = run_trials(
                &g, &faulty, &pairs,
                &TrialConfig {
                    trials_per_pair: 3, seed, threads: 1, sampler: mode,
                    ..TrialConfig::default()
                },
            ).expect("valid");
            for threads in [1usize, test_threads()] {
                let mut engine = Engine::new(
                    g.clone(),
                    Box::new(BallScheme::new(&g)),
                    EngineConfig {
                        seed,
                        threads,
                        cache_bytes: 1 << 20,
                        sampler: mode,
                        fault: FaultConfig { drop_prob: 0.35, plan: None },
                        ..EngineConfig::default()
                    },
                );
                let answers = engine
                    .serve(&QueryBatch::from_pairs(&pairs, 3))
                    .expect("valid")
                    .answers;
                prop_assert!(
                    identical(&answers, &reference.pairs),
                    "engine fault knob diverged from wrapper scheme at mode={mode:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn fault_injected_serving_is_a_pure_function_of_the_rng_index(
        g in connected_graph(40),
        seed in 0u64..500,
        num_pairs in 4usize..20,
        batch_size in 1usize..8,
    ) {
        // The robustness contract: with link drops *and* churn epochs on,
        // answers stay bit-identical across cache capacities (evictions
        // leave different residencies), thread counts and batch splits —
        // every query's fate is a pure function of its RNG index. The 3-epoch / period-4 plan guarantees streams cross
        // epoch boundaries mid-run.
        let n = g.num_nodes() as NodeId;
        let mut rng = seeded_rng(seed ^ 0xfa017);
        let pairs: Vec<(NodeId, NodeId)> = (0..num_pairs)
            .map(|_| {
                use rand::Rng;
                (rng.gen_range(0..n), rng.gen_range(0..n))
            })
            .collect();
        let fault = FaultConfig {
            drop_prob: 0.3,
            plan: Some(FailurePlan::new(seed ^ 0xc4, 3, 4, 0.15)),
        };
        let serve_all = |threads: usize, cache_bytes: usize, split: usize| -> Vec<PairStats> {
            let mut engine = Engine::new(
                g.clone(),
                Box::new(UniformScheme),
                EngineConfig { seed, threads, cache_bytes, fault, ..EngineConfig::default() },
            );
            let mut answers = Vec::new();
            for chunk in pairs.chunks(split.max(1)) {
                answers.extend(
                    engine.serve(&QueryBatch::from_pairs(chunk, 3)).expect("valid").answers,
                );
            }
            answers
        };
        let reference = serve_all(1, 1 << 22, pairs.len());
        let tiny = 3 * g.num_nodes();
        for threads in [1usize, test_threads()] {
            for cache_bytes in [0usize, tiny, 1 << 22] {
                let got = serve_all(threads, cache_bytes, batch_size);
                prop_assert!(
                    identical(&got, &reference),
                    "fault serving diverged at threads={threads} cache={cache_bytes} batch={batch_size}"
                );
            }
        }
    }

    #[test]
    fn snapshot_restore_resumes_the_stream_bit_identically(
        g in connected_graph(40),
        seed in 0u64..500,
        num_pairs in 6usize..20,
        cut_seed in 1usize..19,
        batch_size in 1usize..6,
    ) {
        // The durability contract at the engine layer: freeze a warm,
        // fault-injected front mid-stream, round-trip it through the
        // on-disk snapshot *bytes*, restore at a different thread count,
        // and the continuation must be bit-identical to the engine that
        // was never interrupted — whatever the cut point or batch split.
        // Cache contents and the RNG cursor travel through the encoding.
        use navigability::obs::ObsConfig;
        use navigability::store::Snapshot;
        let n = g.num_nodes() as NodeId;
        let mut rng = seeded_rng(seed ^ 0x5704a9e);
        let pairs: Vec<(NodeId, NodeId)> = (0..num_pairs)
            .map(|_| {
                use rand::Rng;
                (rng.gen_range(0..n), rng.gen_range(0..n))
            })
            .collect();
        let cfg = EngineConfig {
            seed,
            threads: 1,
            cache_bytes: 1 << 20,
            admission: AdmissionPolicy::Segmented,
            fault: FaultConfig {
                drop_prob: 0.25,
                plan: Some(FailurePlan::new(seed ^ 0xc4, 3, 4, 0.15)),
            },
            ..EngineConfig::default()
        };
        let cut = cut_seed.min(pairs.len() - 1).max(1);
        let mut uninterrupted = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
        let mut reference = Vec::new();
        for chunk in pairs.chunks(batch_size) {
            reference.extend(
                uninterrupted
                    .serve(&QueryBatch::from_pairs(chunk, 3))
                    .expect("valid")
                    .answers,
            );
        }
        // Serve a prefix, snapshot, drop everything but the bytes.
        let mut victim = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
        let mut resumed = Vec::new();
        for chunk in pairs[..cut].chunks(batch_size) {
            resumed.extend(
                victim
                    .serve(&QueryBatch::from_pairs(chunk, 3))
                    .expect("valid")
                    .answers,
            );
        }
        let bytes = Snapshot::capture(&victim)
            .expect("uniform scheme snapshots")
            .encode();
        drop(victim);
        let mut restored = Snapshot::decode(&bytes)
            .expect("own encoding decodes")
            .restore(test_threads(), ObsConfig::default())
            .expect("own snapshot restores");
        prop_assert_eq!(restored.queries_served(), cut as u64);
        for chunk in pairs[cut..].chunks(batch_size) {
            resumed.extend(
                restored
                    .serve(&QueryBatch::from_pairs(chunk, 3))
                    .expect("valid")
                    .answers,
            );
        }
        prop_assert!(
            identical(&resumed, &reference),
            "restored stream diverged at cut={cut} batch={batch_size}"
        );
    }
}

/// The adaptive row storage's u16→u32 fallback, exercised by an *actual*
/// graph whose eccentricity overflows `u16`: a 70,000-node path, where
/// the distance row of target 0 peaks at 69,999 > 65,535. Synthetic unit
/// tests poke `DistRowBuf::from_wide` with hand-built slices; this drives
/// the fallback end-to-end through the distance oracle and the serving
/// engine — both must hold the row wide (4 bytes/node, visible in
/// `bytes()` and `resident_bytes`), and the answers must stay
/// bit-identical to [`run_trials`].
#[test]
fn wide_row_fallback_on_real_geometry() {
    use navigability::core::oracle::TargetDistanceCache;
    use navigability::graph::distance::DistRowView;

    const N: usize = 70_000;
    let g = GraphBuilder::from_edges(N, (0..N as NodeId - 1).map(|u| (u, u + 1))).expect("path");

    // The oracle layer: its own row refuses the narrow width.
    let cache = TargetDistanceCache::build(&g, [0u32], 1).expect("in range");
    let row = cache.row(0).expect("built target");
    assert!(
        matches!(row, DistRowView::Wide(_)),
        "a 69,999-step row must fall back to u32 storage"
    );
    assert_eq!(cache.bytes(), N * 4);
    assert_eq!(row.get(N - 1), (N - 1) as u32, "path eccentricity");

    // The serving layer: one warm target far beyond u16 range.
    let pairs: Vec<(NodeId, NodeId)> = vec![(1_000, 0), ((N - 1) as NodeId, 0), (500, 0)];
    let seed = 0x81d5eed;
    let reference = run_trials(
        &g,
        &UniformScheme,
        &pairs,
        &TrialConfig {
            trials_per_pair: 1,
            seed,
            threads: 1,
            ..TrialConfig::default()
        },
    )
    .expect("valid pairs");
    let mut engine = Engine::new(
        g.clone(),
        Box::new(UniformScheme),
        EngineConfig {
            seed,
            threads: 1,
            cache_bytes: 1 << 20,
            ..EngineConfig::default()
        },
    );
    let answers = engine
        .serve(&QueryBatch::from_pairs(&pairs, 1))
        .expect("valid pairs")
        .answers;
    assert!(identical(&answers, &reference.pairs));
    let stats = engine.cache_stats();
    assert_eq!(stats.resident_rows, 1, "one distinct target");
    assert_eq!(
        stats.resident_bytes,
        N * 4,
        "the resident row must be charged at the wide (u32) width"
    );
}

/// Churn never costs a refill: rows are exact full-graph distances and
/// each query routes under its own epoch, so a cache big enough for the
/// working set computes every distinct target exactly once, however many
/// epoch flips the stream crosses — and the answers stay bit-identical to
/// an engine that caches nothing.
#[test]
fn churn_epoch_flips_never_refill_a_resident_row() {
    let g = navigability::gen::grid::grid2d(8, 8).expect("grid");
    let n = g.num_nodes() as NodeId;
    // 3 epochs of 4 queries: 60 queries cross every epoch five times.
    let pairs: Vec<(NodeId, NodeId)> = (0..60u32)
        .map(|i| ((i * 11 + 5) % n, (i * 7) % 9 + 50))
        .collect();
    let mut targets: Vec<NodeId> = pairs.iter().map(|&(_, t)| t).collect();
    targets.sort_unstable();
    targets.dedup();
    let cfg = |cache_bytes: usize| EngineConfig {
        seed: 0xc0ffee,
        threads: test_threads(),
        cache_bytes,
        fault: FaultConfig {
            drop_prob: 0.2,
            plan: Some(FailurePlan::new(17, 3, 4, 0.15)),
        },
        ..EngineConfig::default()
    };
    let serve = |engine: &mut dyn FnMut(&QueryBatch) -> Vec<PairStats>| {
        pairs
            .chunks(5)
            .flat_map(|chunk| engine(&QueryBatch::from_pairs(chunk, 4)))
            .collect::<Vec<_>>()
    };

    let mut warm = Engine::new(g.clone(), Box::new(UniformScheme), cfg(1 << 20));
    let answers = serve(&mut |b| warm.serve(b).expect("valid").answers);
    assert!(warm.metrics().epoch_flips >= 6, "{:?}", warm.metrics());
    let s = warm.cache_stats();
    assert_eq!(s.insertions, targets.len() as u64, "{s:?}");
    assert_eq!(s.evictions, 0, "{s:?}");

    let mut uncached = Engine::new(g.clone(), Box::new(UniformScheme), cfg(0));
    let reference = serve(&mut |b| uncached.serve(b).expect("valid").answers);
    assert!(
        identical(&answers, &reference),
        "diverged from cache_bytes = 0"
    );
}

/// One batch fills all its cold targets in one `ColdFill` stage (one set
/// of shared MS-BFS passes) and records one batch, and every distinct
/// target is filled exactly once.
#[test]
fn one_batch_fills_all_its_cold_targets_in_one_pass() {
    use navigability::obs::{ObsConfig, Stage};
    let g = navigability::gen::grid::grid2d(8, 8).expect("grid");
    let mut engine = Engine::new(
        g.clone(),
        Box::new(UniformScheme),
        EngineConfig {
            seed: 5,
            threads: test_threads(),
            cache_bytes: 1 << 20,
            obs: ObsConfig {
                stages: true,
                ..ObsConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    // 8 distinct targets 40..48, every target asked twice.
    let pairs: Vec<(NodeId, NodeId)> = (0..16u32).map(|i| (i, 40 + i % 8)).collect();
    let result = engine
        .serve(&QueryBatch::from_pairs(&pairs, 2))
        .expect("valid");
    assert_eq!((result.cold_targets, result.warm_targets), (8, 0));
    assert_eq!(engine.metrics().cold_targets, 8);
    assert_eq!(engine.metrics().batch_hist().count(), 1);
    assert_eq!(engine.cache_stats().insertions, 8);
    let obs = engine.obs_snapshot();
    assert_eq!(obs.stage(Stage::ColdFill).expect("cold fill").count(), 1);
}

/// A batch with far more cold targets than the cache holds runs in
/// waves, and still answers every query exactly like an independent
/// per-query reference: a scalar-BFS router, the query's own RNG and
/// `aggregate_pair_with` — with and without faults, at every thread
/// count. The waves keep the cache inside its capacity.
#[test]
fn multi_wave_batch_matches_a_per_query_scalar_reference() {
    use navigability::core::faulty::FaultySampler;
    use navigability::core::routing::{default_step_cap, GreedyRouter};
    use navigability::core::sampler::{ContactSampler, ScalarSampler};
    use navigability::core::trial::aggregate_pair_with;
    use navigability::graph::msbfs::LaneWidth;
    use navigability::obs::{ObsConfig, Stage};
    use navigability::par::rng::task_rng;
    let n = 2000usize;
    let g = navigability::gen::random::gnp_connected(n, 3.0 / n as f64, &mut seeded_rng(17))
        .expect("gnp");
    // 1100 distinct targets (13 is coprime to n), the first 100 asked twice.
    let distinct = 1100usize;
    let pairs: Vec<(NodeId, NodeId)> = (0..distinct + 100)
        .map(|i| {
            (
                ((i * 37 + 11) % n) as NodeId,
                ((i % distinct) * 13 % n) as NodeId,
            )
        })
        .collect();
    let (seed, trials, cache_rows) = (29u64, 2usize, 20usize);
    let cap = default_step_cap(&g);
    let churn = FailurePlan::new(seed ^ 0xc4, 3, 250, 0.1);
    for fault in [
        FaultConfig::default(),
        FaultConfig {
            drop_prob: 0.3,
            plan: Some(churn),
        },
    ] {
        // (answer, dropped links, rerouted hops) per query.
        let reference: Vec<(PairStats, u64, u64)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, t))| {
                let mut router = GreedyRouter::new(&g, t).expect("valid target");
                if let Some(plan) = fault.plan {
                    router = router.with_fault(plan, plan.epoch_of(i as u64));
                }
                let mut sampler =
                    FaultySampler::new(ScalarSampler::new(&UniformScheme), fault.drop_prob);
                let mut rng = task_rng(seed, i as u64);
                let stats = aggregate_pair_with(&router, &mut sampler, s, &mut rng, trials, cap);
                let (churn_drops, rerouted) = router.fault_counts();
                (stats, sampler.dropped() + churn_drops, rerouted)
            })
            .collect();
        for threads in [1usize, test_threads()] {
            let mut engine = Engine::new(
                g.clone(),
                Box::new(UniformScheme),
                EngineConfig {
                    seed,
                    threads,
                    cache_bytes: cache_rows * 2 * n,
                    fault,
                    obs: ObsConfig {
                        stages: true,
                        trace_every: 1,
                        trace_capacity: pairs.len(),
                    },
                    ..EngineConfig::default()
                },
            );
            let result = engine
                .serve(&QueryBatch::from_pairs(&pairs, trials))
                .expect("valid pairs");
            let shape = format!("{fault:?} threads={threads}");
            for (i, (got, want)) in result.answers.iter().zip(&reference).enumerate() {
                assert!(got.bits_eq(&want.0), "query {i} diverged at {shape}");
            }
            let traces = engine.obs_snapshot().traces;
            assert_eq!(traces.len(), pairs.len());
            for tr in &traces {
                let (_, dropped, rerouted) = &reference[tr.index as usize];
                assert_eq!(
                    (tr.dropped_links, tr.rerouted_hops),
                    (*dropped, *rerouted),
                    "{shape}"
                );
                assert!(!tr.cache_hit, "a fresh engine has no warm rows: {shape}");
            }
            let per_wave = cache_rows.max(LaneWidth::W64.lanes() * threads);
            let obs = engine.obs_snapshot();
            let fills = obs.stage(Stage::ColdFill).expect("cold fill").count();
            assert_eq!(fills as usize, distinct.div_ceil(per_wave), "{shape}");
            let stats = engine.cache_stats();
            assert!(
                stats.resident_bytes <= stats.capacity_bytes,
                "{shape}: {stats:?}"
            );
            assert_eq!(
                result.cold_targets + result.warm_targets,
                distinct,
                "{shape}"
            );
        }
        if fault.plan.is_some() {
            assert!(reference.iter().any(|r| r.1 > 0), "the faults must bite");
        }
    }
}

/// Direct soak of the cache's eviction accounting: a long random
/// insert/get/replace sequence (row sizes varied, including same-key
/// replacements that grow and shrink) must keep `resident_bytes` within
/// `capacity_bytes` and exactly equal to the sum of resident row sizes —
/// under both policies and several capacities.
#[test]
fn row_cache_accounting_soak() {
    use navigability::engine::RowCache;
    use navigability::graph::distance::DistRowBuf;
    use rand::Rng;
    use std::collections::HashMap;
    use std::sync::Arc;

    for policy in [AdmissionPolicy::Lru, AdmissionPolicy::Segmented] {
        for capacity in [0usize, 64, 1000, 1 << 16] {
            let mut cache = RowCache::with_policy(capacity, policy);
            let mut rng = seeded_rng(capacity as u64 ^ 0xcac4e);
            let mut sizes: HashMap<u32, usize> = HashMap::new();
            for step in 0..4000 {
                let key = rng.gen_range(0..64u32);
                if rng.gen_range(0..3u32) == 0 {
                    match cache.get(key) {
                        // A hit must return the bytes of the last admitted
                        // insert for that key.
                        Some(row) => assert_eq!(
                            sizes.get(&key),
                            Some(&row.bytes()),
                            "{policy:?} cap={capacity} step={step}: stale row served"
                        ),
                        // Misses sync the shadow map lazily (the key was
                        // evicted, or never admitted).
                        None => {
                            sizes.remove(&key);
                        }
                    }
                } else {
                    let len = rng.gen_range(1..200usize);
                    let row = Arc::new(DistRowBuf::Narrow(vec![1u16; len]));
                    let bytes = row.bytes();
                    cache.insert(key, row);
                    if bytes <= capacity {
                        sizes.insert(key, bytes);
                    }
                    // An oversized row is rejected and any previously
                    // resident row for the key is retained — the shadow
                    // entry stays as-is.
                }
                let s = cache.stats();
                assert!(
                    s.resident_bytes <= s.capacity_bytes,
                    "{policy:?} cap={capacity} step={step}: over budget {s:?}"
                );
                assert!(s.protected_bytes <= s.resident_bytes, "{s:?}");
                assert!(s.protected_rows <= s.resident_rows, "{s:?}");
                // Keys evicted under byte pressure leave our shadow map
                // lazily (on the next get/insert), so the cache can only
                // hold a subset of it — never more bytes than it claims.
                let shadow_total: usize = sizes.values().sum();
                assert!(
                    s.resident_bytes <= shadow_total,
                    "{policy:?} cap={capacity} step={step}: cache retains more than ever admitted"
                );
                if let AdmissionPolicy::Lru = policy {
                    assert_eq!(s.protected_rows, 0, "strict LRU must not use tiers");
                }
            }
            // Drain check: everything still resident must be findable and
            // its accounting must sum exactly.
            let resident_before = cache.stats().resident_rows;
            let mut found = 0usize;
            let mut found_bytes = 0usize;
            for key in 0..64u32 {
                if let Some(row) = cache.get(key) {
                    found += 1;
                    found_bytes += row.bytes();
                }
            }
            assert_eq!(found, resident_before);
            assert_eq!(found_bytes, cache.stats().resident_bytes);
        }
    }
}
