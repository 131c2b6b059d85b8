//! Answer identity: every scheme, fault setting and serving path gives
//! the answers it always has, pinned as digests.
//!
//! The determinism suites compare two paths through one build:
//! `run_trials` against the engine, one thread count against another.
//! Both sides run the same wave executor, the same samplers and the same
//! `task_rng`, so a change that moves every path's answers at once (a
//! sampler that draws its RNG in another order, a changed `task_rng`
//! mix, a churn-epoch off-by-one) passes all of them. The digests below
//! pin the answers themselves. They were computed before the executor's
//! row-fill callback and single admission pass replaced its row-source
//! trait; a change meant to move answers must re-pin them and say why.
//!
//! Each case is one (graph, scheme, fault) triple and one digest
//! ([`digest_answers`], the fold `nav-engine replay` prints). Every path
//! must reproduce it: `run_trials` (fault-free cases only, it has no
//! fault knob) at one and [`test_threads`] workers, and the engine at
//! one and `test_threads()` workers, caches of 0 bytes, three rows and
//! 1 MiB, served whole and in uneven batches. The query stream has more
//! distinct targets than one single-worker wave holds, and repeats
//! targets from a closed wave, so the wave rule is on the path too.
//!
//! Kleinberg weights go through libm's `powf`, so those digests are
//! pinned for linux x86_64: another libm may round a weight differently
//! and move a draw. The other schemes draw with integer and exactly
//! rounded float arithmetic only.

use nav_bench::workloads::{theorem2_for, Workload};
use navigability::core::sampler::SamplerMode;
use navigability::core::trial::{digest_answers, run_trials, TrialConfig, DIGEST_BASIS};
use navigability::core::uniform::UniformScheme;
use navigability::core::{FailurePlan, FaultConfig};
use navigability::engine::{Engine, EngineConfig, QueryBatch};
use navigability::net::{NetClient, NetConfig, NetServer};
use navigability::par::test_threads;
use navigability::prelude::*;

const SEED: u64 = 0x0a11_5eed;
const TRIALS: usize = 4;

/// The three fault settings, in pin order.
fn faults() -> [FaultConfig; 3] {
    [
        FaultConfig::default(),
        FaultConfig {
            drop_prob: 0.3,
            plan: None,
        },
        FaultConfig {
            drop_prob: 0.0,
            plan: Some(FailurePlan::new(SEED ^ 0xc4, 3, 16, 0.15)),
        },
    ]
}

/// The two graph families, in pin order.
fn graphs() -> [(&'static str, Graph); 2] {
    [
        ("grid2d", Workload::Grid2d.build(144, 3)),
        ("random-tree", Workload::RandomTree.build(150, 5)),
    ]
}

/// 96 queries over 72 distinct targets: the last 24 reuse the first 24
/// targets, which sit in the first single-worker wave (64 targets).
fn pairs(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes() as NodeId;
    (0..96)
        .map(|i: NodeId| {
            let t = ((i % 72) * 37 + 5) % n;
            let s = (i * 53 + 11) % n;
            (if s == t { (s + 1) % n } else { s }, t)
        })
        .collect()
}

/// A scheme under test and the sampler mode it is served with.
type Scheme = fn(&Graph) -> Box<dyn AugmentationScheme + Send>;

/// Checks one scheme against its six pins (graph-major, then fault) on
/// every path, and returns one line per mismatch.
fn check(scheme: Scheme, mode: SamplerMode, pins: [u64; 6]) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |case: &str, path: String, want: u64, got: u64| {
        if got != want {
            bad.push(format!(
                "{case} via {path}: got {got:#018x}, pinned {want:#018x}"
            ));
        }
    };
    for (gi, (family, g)) in graphs().into_iter().enumerate() {
        let pairs = pairs(&g);
        for (fi, fault) in faults().into_iter().enumerate() {
            let want = pins[gi * 3 + fi];
            let case = format!("{family} fault {fi}");
            for threads in [1, test_threads()] {
                if fi == 0 {
                    let cfg = TrialConfig {
                        trials_per_pair: TRIALS,
                        seed: SEED,
                        threads,
                        sampler: mode,
                        ..TrialConfig::default()
                    };
                    let r = run_trials(&g, scheme(&g).as_ref(), &pairs, &cfg).expect("valid");
                    let got = digest_answers(DIGEST_BASIS, &r.pairs);
                    expect(&case, format!("run_trials threads {threads}"), want, got);
                }
                for cache_bytes in [0, 3 * 2 * g.num_nodes(), 1 << 20] {
                    for split in [pairs.len(), 13] {
                        let mut engine = Engine::new(
                            g.clone(),
                            scheme(&g),
                            EngineConfig {
                                seed: SEED,
                                threads,
                                cache_bytes,
                                sampler: mode,
                                fault,
                                ..EngineConfig::default()
                            },
                        );
                        let mut h = DIGEST_BASIS;
                        for chunk in pairs.chunks(split) {
                            let batch = QueryBatch::from_pairs(chunk, TRIALS);
                            h = digest_answers(h, &engine.serve(&batch).expect("valid").answers);
                        }
                        let path =
                            format!("engine threads {threads} cache {cache_bytes} split {split}");
                        expect(&case, path, want, h);
                    }
                }
            }
        }
    }
    bad
}

fn assert_pins(bad: Vec<String>) {
    assert!(bad.is_empty(), "answers moved:\n{}", bad.join("\n"));
}

#[test]
fn uniform_answers_hold_their_pinned_digests() {
    assert_pins(check(
        |_| Box::new(UniformScheme),
        SamplerMode::Scalar,
        [
            0x2b53_42c7_1b3d_1e9d,
            0x4621_81e8_125f_8845,
            0xe269_f64c_7cb7_f61e,
            0x62ea_38ec_44f7_eb13,
            0x21c2_04b3_8015_8460,
            0x0421_cdf4_3f44_6765,
        ],
    ));
}

#[test]
fn kleinberg_answers_hold_their_pinned_digests() {
    assert_pins(check(
        |_| Box::new(KleinbergScheme::new(2.0)),
        SamplerMode::Scalar,
        [
            0xb731_cfaf_9dbb_f110,
            0x9e0a_60f1_7b1e_30ab,
            0xdac2_38a2_8c93_e599,
            0x3a10_d257_3c83_75e5,
            0xebcd_428b_0d52_e779,
            0x57a5_db75_ddd7_02c7,
        ],
    ));
}

#[test]
fn theorem2_answers_hold_their_pinned_digests() {
    assert_pins(check(
        |g| Box::new(theorem2_for(g)),
        SamplerMode::Scalar,
        [
            0xc5f9_fec4_dc37_b7b4,
            0x0ffe_6e89_fcc3_3141,
            0x3f89_900e_847d_cb1b,
            0x00fb_30f9_9d0b_4699,
            0x1308_871c_4511_dbe2,
            0x6f7c_8062_8d3d_04f8,
        ],
    ));
}

/// The batched ball scheme's pins, shared with the loopback stream.
const BALL_PINS: [u64; 6] = [
    0x026f_3156_b900_f7c2,
    0xcf61_a80c_68a6_bab5,
    0x5186_f5cf_8df4_1eed,
    0x63c0_9b8a_0460_9e28,
    0x0085_cfe0_7628_aaf7,
    0x154b_1846_749f_279c,
];

#[test]
fn batched_ball_answers_hold_their_pinned_digests() {
    assert_pins(check(
        |g| Box::new(BallScheme::new(g)),
        SamplerMode::Batched,
        BALL_PINS,
    ));
}

/// One stream over loopback TCP, in uneven batches on the client's own
/// RNG offsets: the batched ball scheme under churn on the grid, whose
/// digest is the matching pin of the engine case above.
#[test]
fn a_stream_over_net_server_holds_its_pinned_digest() {
    let (_, g) = graphs().into_iter().next().expect("grid");
    let pairs = pairs(&g);
    let engine = Engine::new(
        g.clone(),
        Box::new(BallScheme::new(&g)),
        EngineConfig {
            seed: SEED,
            threads: test_threads(),
            cache_bytes: 1 << 20,
            fault: faults()[2],
            ..EngineConfig::default()
        },
    );
    let server = NetServer::bind(engine, NetConfig::default(), "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let mut h = DIGEST_BASIS;
    for chunk in pairs.chunks(13) {
        let batch = QueryBatch::from_pairs(chunk, TRIALS);
        let (answers, _) = client
            .serve(0, SamplerMode::Batched, &batch)
            .expect("serve");
        h = digest_answers(h, &answers);
    }
    drop(client);
    server.shutdown();
    assert_eq!(h, BALL_PINS[2], "got {h:#018x}");
}
